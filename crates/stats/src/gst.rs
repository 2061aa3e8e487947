//! Group-sequential hypothesis testing with Pocock boundaries.
//!
//! The paper (§4.3) notes Wald's SPRT has an unbounded worst case and
//! anticipates "adapting the considerable body of work on group sequential
//! methods \[17\], widely used in medical clinical trials, which provide
//! 'closed' sequential hypothesis tests with guaranteed upper bounds on the
//! sample size." This module implements that extension: a Pocock-style
//! design with `K` interim analyses and a constant nominal z-boundary.

use crate::StatsError;

/// Pocock constants `c_P(K, α)` for a two-sided overall significance level
/// of 5%, K = 1..=10 analyses (Jennison & Turnbull, Table 2.1).
const POCOCK_0_05: [f64; 10] = [
    1.960, 2.178, 2.289, 2.361, 2.413, 2.453, 2.485, 2.512, 2.535, 2.555,
];

/// Outcome of a group-sequential run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSequentialOutcome {
    /// Whether `Pr[X] > threshold` was accepted (decision at stop or at the
    /// final analysis).
    pub accepted: bool,
    /// Samples actually drawn — at most `analyses × group_size`, by
    /// construction (the "closed" guarantee).
    pub samples: usize,
    /// Number of `true` samples observed.
    pub successes: u64,
    /// Empirical estimate of `p`.
    pub estimate: f64,
    /// Which interim analysis stopped the test (1-based); equals the number
    /// of analyses when the test ran to the end.
    pub stopped_at_analysis: usize,
    /// Whether an interim boundary was crossed (versus deciding at the final
    /// analysis by comparing the estimate to the threshold).
    pub early_stop: bool,
}

/// A Pocock group-sequential test of `Pr[X] > threshold` with `K ≤ 10`
/// analyses of `group_size` samples each.
///
/// Unlike the open-ended SPRT, this design **guarantees** at most
/// `K × group_size` samples, at the cost of a somewhat larger average
/// sample size.
///
/// # Examples
///
/// ```
/// use uncertain_stats::GroupSequentialTest;
/// use rand::{Rng, SeedableRng};
///
/// # fn main() -> Result<(), uncertain_stats::StatsError> {
/// let test = GroupSequentialTest::new(0.5, 5, 40)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let o = test.run(|| rng.gen::<f64>() < 0.9);
/// assert!(o.accepted);
/// assert!(o.samples <= 200); // hard bound: 5 analyses × 40 samples
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSequentialTest {
    threshold: f64,
    analyses: usize,
    group_size: usize,
    boundary: f64,
}

impl GroupSequentialTest {
    /// Creates a Pocock test of `Pr[X] > threshold` with `analyses` interim
    /// looks of `group_size` samples each (overall two-sided α = 0.05).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] unless `threshold ∈ (0,1)`,
    /// `1 ≤ analyses ≤ 10`, and `group_size ≥ 1`.
    pub fn new(threshold: f64, analyses: usize, group_size: usize) -> Result<Self, StatsError> {
        if !(threshold > 0.0 && threshold < 1.0) {
            return Err(StatsError::new(format!(
                "threshold must be in (0,1), got {threshold}"
            )));
        }
        if analyses == 0 || analyses > 10 {
            return Err(StatsError::new(format!(
                "analyses must be in 1..=10 (Pocock table), got {analyses}"
            )));
        }
        if group_size == 0 {
            return Err(StatsError::new("group_size must be at least 1"));
        }
        Ok(Self {
            threshold,
            analyses,
            group_size,
            boundary: POCOCK_0_05[analyses - 1],
        })
    }

    /// The hard upper bound on samples drawn.
    pub fn max_samples(&self) -> usize {
        self.analyses * self.group_size
    }

    /// The Pocock z-boundary in use.
    pub fn boundary(&self) -> f64 {
        self.boundary
    }

    /// Runs the test against samples from `gen`.
    pub fn run(&self, mut gen: impl FnMut() -> bool) -> GroupSequentialOutcome {
        let mut n = 0usize;
        let mut successes = 0u64;
        for analysis in 1..=self.analyses {
            for _ in 0..self.group_size {
                if gen() {
                    successes += 1;
                }
            }
            n += self.group_size;
            let estimate = successes as f64 / n as f64;
            let se = (self.threshold * (1.0 - self.threshold) / n as f64).sqrt();
            let z = (estimate - self.threshold) / se;
            if z.abs() >= self.boundary {
                return GroupSequentialOutcome {
                    accepted: z > 0.0,
                    samples: n,
                    successes,
                    estimate,
                    stopped_at_analysis: analysis,
                    early_stop: analysis < self.analyses,
                };
            }
        }
        let estimate = successes as f64 / n as f64;
        GroupSequentialOutcome {
            accepted: estimate > self.threshold,
            samples: n,
            successes,
            estimate,
            stopped_at_analysis: self.analyses,
            early_stop: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rejects_bad_params() {
        assert!(GroupSequentialTest::new(0.0, 5, 10).is_err());
        assert!(GroupSequentialTest::new(0.5, 0, 10).is_err());
        assert!(GroupSequentialTest::new(0.5, 11, 10).is_err());
        assert!(GroupSequentialTest::new(0.5, 5, 0).is_err());
    }

    #[test]
    fn sample_bound_is_hard() {
        let t = GroupSequentialTest::new(0.5, 4, 25).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for _ in 0..50 {
            let o = t.run(|| rng.gen::<f64>() < 0.5);
            assert!(o.samples <= t.max_samples());
        }
    }

    #[test]
    fn strong_evidence_stops_early() {
        let t = GroupSequentialTest::new(0.5, 10, 30).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let o = t.run(|| rng.gen::<f64>() < 0.95);
        assert!(o.accepted);
        assert!(o.early_stop, "should have crossed the boundary early");
        assert!(o.stopped_at_analysis <= 2);
    }

    #[test]
    fn null_evidence_rejects() {
        let t = GroupSequentialTest::new(0.5, 5, 40).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let o = t.run(|| rng.gen::<f64>() < 0.1);
        assert!(!o.accepted);
    }

    #[test]
    fn boundary_grows_with_analyses() {
        let few = GroupSequentialTest::new(0.5, 2, 10).unwrap();
        let many = GroupSequentialTest::new(0.5, 10, 10).unwrap();
        assert!(many.boundary() > few.boundary());
    }
}
