//! Truncation of a continuous distribution to an interval.

use crate::{Continuous, Distribution, ParamError};
use rand::RngCore;
use std::fmt;
use std::sync::Arc;

/// A continuous distribution truncated (and renormalized) to `[low, high]`.
///
/// Truncation is the simplest *constraint abstraction* from the paper's
/// prior-knowledge discussion (§3.5): "humans are incredibly unlikely to
/// walk at 60 mph" becomes a truncated walking-speed distribution.
///
/// Sampling picks one of two exact samplers by the mass the base keeps on
/// the interval:
///
/// * At least ½: draw from the base until a draw lands in `[low, high]`,
///   which takes at most two draws on average. A draw accepted this way
///   follows the truncated law exactly, for any base and whatever the
///   accuracy of its `cdf` and `quantile`. After 64 misses, which happen
///   together with probability at most 2⁻⁶⁴, it falls back to the inverse
///   CDF below, itself a draw from the truncated law, so the mixture is
///   still exactly that law. The cap also keeps a base whose `sample`
///   disagrees with its `cdf` (one that returns NaN, say) from looping
///   forever.
/// * Below ½: invert the base's CDF on the interval,
///   `quantile(cdf(low) + u · mass)`. Rejection would need `1 / mass`
///   draws on average, which grows without bound as the mass shrinks.
///
/// Either way a sample consumes draws from the one RNG it is given, so a
/// varying number of draws per sample keeps batched and one-at-a-time
/// sampling bitwise identical.
///
/// # Examples
///
/// ```
/// use uncertain_dist::{Continuous, Gaussian, Truncated};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), uncertain_dist::ParamError> {
/// let walking = Truncated::new(Arc::new(Gaussian::new(3.0, 1.0)?), 0.0, 6.0)?;
/// assert_eq!(walking.support(), (0.0, 6.0));
/// assert_eq!(walking.pdf(-1.0), 0.0);
/// assert!(walking.pdf(3.0) > Gaussian::new(3.0, 1.0)?.pdf(3.0));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Truncated {
    base: Arc<dyn Continuous>,
    low: f64,
    high: f64,
    cdf_low: f64,
    mass: f64,
}

impl Truncated {
    /// Truncates `base` to `[low, high]`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `low >= high` or the base distribution has
    /// (numerically) zero mass on the interval.
    pub fn new(base: Arc<dyn Continuous>, low: f64, high: f64) -> Result<Self, ParamError> {
        if low >= high || low.is_nan() || high.is_nan() {
            return Err(ParamError::new(format!(
                "truncation requires low < high, got [{low}, {high}]"
            )));
        }
        let cdf_low = base.cdf(low);
        let mass = base.cdf(high) - cdf_low;
        if mass <= 0.0 || mass.is_nan() {
            return Err(ParamError::new(format!(
                "base distribution has no mass on [{low}, {high}]"
            )));
        }
        Ok(Self {
            base,
            low,
            high,
            cdf_low,
            mass,
        })
    }

    /// Lower truncation bound.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Upper truncation bound.
    pub fn high(&self) -> f64 {
        self.high
    }

    /// The probability mass the base distribution had on the interval.
    pub fn base_mass(&self) -> f64 {
        self.mass
    }
}

impl fmt::Debug for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Truncated")
            .field("low", &self.low)
            .field("high", &self.high)
            .field("base_mass", &self.mass)
            .finish()
    }
}

/// The least kept mass at which [`Truncated`] samples by rejection.
const REJECTION_MIN_MASS: f64 = 0.5;

/// Base draws a rejection sample tries before it falls back to the
/// inverse CDF.
const MAX_REJECTIONS: usize = 64;

impl Distribution<f64> for Truncated {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        use rand::Rng;
        if self.mass >= REJECTION_MIN_MASS {
            for _ in 0..MAX_REJECTIONS {
                let x = self.base.sample(rng);
                if self.low <= x && x <= self.high {
                    return x;
                }
            }
        }
        let u: f64 = rng.gen();
        let p = self.cdf_low + u * self.mass;
        self.base.quantile(p).clamp(self.low, self.high)
    }
}

impl Continuous for Truncated {
    fn ln_pdf(&self, x: f64) -> f64 {
        if x < self.low || x > self.high {
            f64::NEG_INFINITY
        } else {
            self.base.ln_pdf(x) - self.mass.ln()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.low {
            0.0
        } else if x >= self.high {
            1.0
        } else {
            (self.base.cdf(x) - self.cdf_low) / self.mass
        }
    }

    fn mean(&self) -> f64 {
        // Numeric integration over the (finite) truncated support.
        let n = 4096;
        let dx = (self.high - self.low) / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let x = self.low + (i as f64 + 0.5) * dx;
            acc += x * self.pdf(x) * dx;
        }
        acc
    }

    fn variance(&self) -> f64 {
        let mean = self.mean();
        let n = 4096;
        let dx = (self.high - self.low) / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let x = self.low + (i as f64 + 0.5) * dx;
            acc += (x - mean).powi(2) * self.pdf(x) * dx;
        }
        acc
    }

    fn support(&self) -> (f64, f64) {
        (self.low, self.high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gaussian;
    use rand::SeedableRng;

    fn trunc_normal() -> Truncated {
        Truncated::new(Arc::new(Gaussian::new(0.0, 1.0).unwrap()), -1.0, 2.0).unwrap()
    }

    #[test]
    fn rejects_bad_interval() {
        let g = Arc::new(Gaussian::new(0.0, 1.0).unwrap());
        assert!(Truncated::new(g.clone(), 1.0, 1.0).is_err());
        assert!(Truncated::new(g.clone(), 2.0, 1.0).is_err());
        // No mass far in the tail.
        assert!(Truncated::new(g, 50.0, 51.0).is_err());
    }

    #[test]
    fn samples_in_bounds() {
        let t = trunc_normal();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for _ in 0..2000 {
            let x = t.sample(&mut rng);
            assert!((-1.0..=2.0).contains(&x), "x={x}");
        }
    }

    #[test]
    fn density_renormalized() {
        let t = trunc_normal();
        // Integral of pdf over the support ≈ 1.
        let n = 20_000;
        let dx = 3.0 / n as f64;
        let total: f64 = (0..n)
            .map(|i| t.pdf(-1.0 + (i as f64 + 0.5) * dx) * dx)
            .sum();
        assert!((total - 1.0).abs() < 1e-4, "total={total}");
    }

    #[test]
    fn cdf_endpoints() {
        let t = trunc_normal();
        assert_eq!(t.cdf(-1.5), 0.0);
        assert_eq!(t.cdf(2.5), 1.0);
        assert!(t.cdf(0.0) > 0.0 && t.cdf(0.0) < 1.0);
    }

    #[test]
    fn truncated_mean_shifts_toward_kept_mass() {
        // Truncating N(0,1) to [0, 4] gives mean ≈ 0.798 (half-normal).
        let t = Truncated::new(Arc::new(Gaussian::new(0.0, 1.0).unwrap()), 0.0, 8.0).unwrap();
        let m = t.mean();
        assert!(
            (m - (2.0 / core::f64::consts::PI).sqrt()).abs() < 1e-3,
            "m={m}"
        );
    }

    /// Uniform on [0, 1] by its CDF, but a sampler that only returns NaN.
    struct NanSampler;

    impl Distribution<f64> for NanSampler {
        fn sample(&self, _: &mut dyn RngCore) -> f64 {
            f64::NAN
        }
    }

    impl Continuous for NanSampler {
        fn ln_pdf(&self, x: f64) -> f64 {
            if (0.0..=1.0).contains(&x) {
                0.0
            } else {
                f64::NEG_INFINITY
            }
        }
        fn cdf(&self, x: f64) -> f64 {
            x.clamp(0.0, 1.0)
        }
        fn mean(&self) -> f64 {
            0.5
        }
        fn variance(&self) -> f64 {
            1.0 / 12.0
        }
        fn support(&self) -> (f64, f64) {
            (0.0, 1.0)
        }
    }

    #[test]
    fn a_base_that_never_lands_in_the_interval_falls_back_to_the_inverse_cdf() {
        let t = Truncated::new(Arc::new(NanSampler), -1.0, 2.0).unwrap();
        assert_eq!(t.base_mass(), 1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let x = t.sample(&mut rng);
            assert!((-1.0..=2.0).contains(&x), "x={x}");
        }
    }

    #[test]
    fn sample_mean_matches_numeric_mean() {
        let t = trunc_normal();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| t.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - t.mean()).abs() < 0.02, "{mean} vs {}", t.mean());
    }
}
