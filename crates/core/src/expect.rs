//! The evaluation operator `E` and sample-based statistics.
//!
//! For code that needs a total order (sorting, printing), the paper
//! provides the expected-value operator `E :: U<T> → T` (Table 1, §3.4),
//! implemented as a fixed-size sample mean (§4.3). Because the runtime
//! already draws samples, richer summaries (variance, quantiles, coverage
//! intervals — the paper's 95% confidence intervals on speed) come for
//! free through [`Uncertain::stats_in`].
//!
//! As everywhere on the eval surface: the ergonomic method
//! ([`Uncertain::expected_value`]) uses the thread's ambient [`Session`],
//! and `*_in(&mut Session, ..)` is the explicit deterministic form.

use crate::error::Error;
use crate::runtime::Session;
use crate::uncertain::{Uncertain, Value};
use uncertain_stats::{Histogram, StatsError, Summary};

impl Uncertain<f64> {
    /// The paper's `E` operator: the mean of `n` joint samples, in the
    /// thread's ambient [`Session`]. Use [`Uncertain::expected_value_in`]
    /// for deterministic evaluation in a named session.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn expected_value(&self, n: usize) -> f64 {
        Session::with_ambient(|s| s.e(self, n))
    }

    /// The `E` operator in a named session (deterministic when the session
    /// is seeded; shards across the session's workers on large `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn expected_value_in(&self, session: &mut Session, n: usize) -> f64 {
        session.e(self, n)
    }

    /// A full descriptive summary (mean, variance, quantiles, coverage
    /// intervals) from `n` joint samples.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`, sampling produced non-finite values
    /// (e.g. a division by a distribution with mass near zero), or the
    /// session demanded [`EvalStrategy::ExactOnly`](crate::EvalStrategy)
    /// on a graph the analytic backend cannot summarize.
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{Session, Uncertain};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let x = Uncertain::normal(2.0, 1.0)?;
    /// let mut session = Session::seeded(0);
    /// let stats = x.stats_in(&mut session, 4000)?;
    /// assert!((stats.mean() - 2.0).abs() < 0.1);
    /// let (lo, hi) = stats.coverage_interval(0.95);
    /// assert!(lo < 0.5 && hi > 3.5); // ≈ 2 ± 1.96
    /// # Ok(())
    /// # }
    /// ```
    pub fn stats_in(&self, session: &mut Session, n: usize) -> Result<Summary, Error> {
        session.stats(self, n)
    }

    /// A sampled histogram of this variable on `[low, high)` — the
    /// terminal "plot" the figure binaries print.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] if the histogram bounds/bins are invalid.
    pub fn histogram_in(
        &self,
        session: &mut Session,
        n: usize,
        low: f64,
        high: f64,
        bins: usize,
    ) -> Result<Histogram, StatsError> {
        session.histogram(self, n, low, high, bins)
    }
}

impl<T: Value> Uncertain<T> {
    /// Generalized expectation: the mean of `score` over `n` joint samples.
    ///
    /// This is how `E` extends to non-`f64` payloads (e.g. the expected
    /// latitude of an uncertain coordinate).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn expect_by_in(&self, session: &mut Session, n: usize, score: impl Fn(&T) -> f64) -> f64 {
        session.expect_by(self, n, score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_value_of_point_mass_is_exact() {
        let x = Uncertain::point(4.25);
        let mut s = Session::sequential(0);
        assert_eq!(x.expected_value_in(&mut s, 10), 4.25);
    }

    #[test]
    fn expected_value_converges() {
        let x = Uncertain::normal(-3.0, 2.0).unwrap();
        let mut s = Session::sequential(1);
        let e = x.expected_value_in(&mut s, 20_000);
        assert!((e + 3.0).abs() < 0.05, "e={e}");
    }

    #[test]
    fn expectation_is_linear() {
        let a = Uncertain::normal(1.0, 1.0).unwrap();
        let b = Uncertain::normal(2.0, 1.0).unwrap();
        let sum = &a + &b;
        let mut s = Session::sequential(2);
        let e = sum.expected_value_in(&mut s, 20_000);
        assert!((e - 3.0).abs() < 0.05, "e={e}");
    }

    #[test]
    fn stats_capture_spread() {
        let x = Uncertain::uniform(0.0, 12.0).unwrap();
        let mut s = Session::sequential(3);
        let st = x.stats_in(&mut s, 20_000).unwrap();
        assert!((st.mean() - 6.0).abs() < 0.1);
        assert!((st.variance() - 12.0).abs() < 0.5);
        assert!(st.min() >= 0.0 && st.max() < 12.0);
    }

    #[test]
    fn expect_by_projects_components() {
        let pair = Uncertain::point((3.0_f64, 4.0_f64));
        let mut s = Session::sequential(4);
        let first = pair.expect_by_in(&mut s, 5, |(a, _)| *a);
        let second = pair.expect_by_in(&mut s, 5, |(_, b)| *b);
        assert_eq!(first, 3.0);
        assert_eq!(second, 4.0);
    }

    #[test]
    fn histogram_with_counts_everything() {
        let x = Uncertain::uniform(0.0, 1.0).unwrap();
        let mut s = Session::sequential(6);
        let h = x.histogram_in(&mut s, 500, 0.0, 1.0, 10).unwrap();
        assert_eq!(h.total(), 500);
        assert_eq!(h.underflow() + h.overflow(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let x = Uncertain::point(1.0);
        let mut s = Session::sequential(5);
        let _ = x.expected_value_in(&mut s, 0);
    }
}
