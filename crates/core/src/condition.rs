//! Conditional semantics: deciding `Uncertain<bool>` with hypothesis tests.
//!
//! A lifted comparison yields a Bernoulli whose parameter `p` is the
//! evidence for the condition. To branch, the program must turn that
//! Bernoulli into a concrete `bool` (paper §3.4):
//!
//! * the **implicit** operator asks `Pr[cond] > 0.5` — "more likely than
//!   not" ([`Uncertain::is_probable`]),
//! * the **explicit** operator asks `Pr[cond] > θ` for a developer-chosen
//!   threshold ([`Uncertain::pr`]), trading false positives against false
//!   negatives.
//!
//! Both are decided by Wald's SPRT (paper §4.3) with batching and a
//! termination cap, so easy conditionals cost a handful of samples and only
//! genuinely marginal ones approach the cap. [`Uncertain::evaluate_in`]
//! exposes the full outcome including the paper's *ternary* logic: a test
//! can be inconclusive, in which case neither `A < B` nor `A >= B` would
//! conclusively hold — [`HypothesisOutcome::expect_decided`] surfaces that
//! case as a typed error instead of a silent fallback.
//!
//! Every query comes in two forms (one convention across the crate): the
//! ergonomic method (`pr`, `is_probable`) uses the thread's ambient
//! [`Session`], and the explicit `*_in(&mut Session, ..)` form names the
//! session — which is what seeded experiments and services use.

use crate::error::ConfigError;
use crate::exact::ExactMethod;
use crate::runtime::Session;
use crate::uncertain::Uncertain;
use std::error::Error;
use std::fmt;
use uncertain_stats::{SequentialTest, StatsError, Summary};

/// Which evaluation backend a session may use to answer a query.
///
/// The default is [`EvalStrategy::SamplingOnly`] — the paper's SPRT
/// sampling path, bitwise-reproducible across releases. Opting into
/// [`EvalStrategy::Auto`] lets the session answer analytically tractable
/// graphs (linear-Gaussian comparisons, independent evidence chains; see
/// the `exact` module docs) in closed form with **zero samples drawn**,
/// falling back to sampling — bitwise identical to `SamplingOnly` —
/// for anything unrecognized. [`EvalStrategy::ExactOnly`] turns the
/// fallback into a typed error, for callers that must not pay sampling
/// cost silently.
///
/// # Examples
///
/// ```
/// use uncertain_core::{EvalStrategy, Provenance, Session, Uncertain};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Uncertain::normal(1.0, 1.0)?;
/// let mut s = Session::seeded(0).with_strategy(EvalStrategy::Auto);
/// let outcome = s.evaluate(&x.gt(0.0), 0.5);
/// assert!(outcome.is_true());
/// assert_eq!(outcome.samples, 0);
/// assert!(matches!(outcome.provenance, Provenance::Exact { .. }));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalStrategy {
    /// Answer exactly when the graph is recognized, sample otherwise.
    Auto,
    /// Always sample — the paper's SPRT path, and the default.
    #[default]
    SamplingOnly,
    /// Answer exactly or fail with [`Error::NotAnalytic`](crate::Error);
    /// never sample.
    ExactOnly,
}

/// Which backend produced a result — attached to [`HypothesisOutcome`]
/// and [`StatsOutcome`] so callers and tests can see who decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Provenance {
    /// The SPRT/Monte-Carlo sampling path, with the number of samples it
    /// drew.
    Sampled {
        /// Samples drawn to produce the result.
        samples: usize,
    },
    /// The analytic backend, with the closed form it used.
    Exact {
        /// The closed form that produced the result.
        method: ExactMethod,
    },
}

impl Provenance {
    /// Whether the result came from the analytic backend.
    pub fn is_exact(&self) -> bool {
        matches!(self, Provenance::Exact { .. })
    }
}

/// A [`Summary`] plus the [`Provenance`] of how it was computed —
/// returned by [`Session::stats_with_provenance`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsOutcome {
    /// The descriptive summary.
    pub summary: Summary,
    /// Which backend produced it.
    pub provenance: Provenance,
}

/// Configuration for conditional evaluation (the SPRT of paper §4.3).
///
/// This is the single home for the SPRT knobs: build one and hand it to
/// [`Session::with_config`] (or to a per-call `evaluate_with`) instead of
/// threading individual parameters through call sites.
///
/// # Examples
///
/// ```
/// use uncertain_core::{EvalConfig, Session, Uncertain};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let strict = EvalConfig::default()
///     .with_error_bounds(0.01, 0.01)
///     .with_max_samples(20_000);
/// let x = Uncertain::normal(1.0, 1.0)?;
/// let mut session = Session::seeded(0).with_config(strict);
/// let outcome = x.gt(0.0).evaluate_in(&mut session, 0.5);
/// assert!(outcome.is_true());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Half-width of the SPRT indifference region around the threshold.
    pub delta: f64,
    /// Bound on false acceptance of the condition (type-I error).
    pub alpha: f64,
    /// Bound on false rejection of the condition (type-II error).
    pub beta: f64,
    /// Samples drawn per SPRT step (the paper's `k`, default 10).
    pub batch: usize,
    /// Termination cap on total samples per conditional.
    pub max_samples: usize,
    /// Which backend may answer (default: [`EvalStrategy::SamplingOnly`]).
    pub strategy: EvalStrategy,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            delta: SequentialTest::DEFAULT_DELTA,
            alpha: SequentialTest::DEFAULT_ALPHA,
            beta: SequentialTest::DEFAULT_BETA,
            batch: SequentialTest::DEFAULT_BATCH,
            max_samples: SequentialTest::DEFAULT_MAX_SAMPLES,
            strategy: EvalStrategy::SamplingOnly,
        }
    }
}

impl EvalConfig {
    /// Starts a validating builder: the path that *rejects* nonsensical
    /// settings (α/β outside `(0, 1)`, a zero batch, a cap smaller than
    /// one batch) instead of letting them silently produce a degenerate
    /// SPRT at decision time. Unset knobs keep their defaults.
    ///
    /// The plain struct-literal / `with_*` path remains available for
    /// call sites whose settings are code literals.
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{ConfigError, EvalConfig};
    ///
    /// let strict = EvalConfig::builder()
    ///     .alpha(0.01)
    ///     .beta(0.01)
    ///     .batch(20)
    ///     .max_samples(20_000)
    ///     .build()
    ///     .expect("valid settings");
    /// assert_eq!(strict.batch, 20);
    ///
    /// // Nonsense is rejected, not deferred to the decision site:
    /// assert_eq!(
    ///     EvalConfig::builder().alpha(1.5).build(),
    ///     Err(ConfigError::Alpha(1.5)),
    /// );
    /// assert_eq!(
    ///     EvalConfig::builder().batch(0).build(),
    ///     Err(ConfigError::ZeroBatch),
    /// );
    /// ```
    pub fn builder() -> EvalConfigBuilder {
        EvalConfigBuilder {
            config: EvalConfig::default(),
        }
    }

    /// Returns a copy with the given indifference half-width.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Returns a copy with the given α/β error bounds.
    pub fn with_error_bounds(mut self, alpha: f64, beta: f64) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    /// Returns a copy with the given SPRT batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Returns a copy with the given termination cap.
    pub fn with_max_samples(mut self, max_samples: usize) -> Self {
        self.max_samples = max_samples;
        self
    }

    /// Returns a copy with the given [`EvalStrategy`].
    pub fn with_strategy(mut self, strategy: EvalStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builds the sequential test for a conditional at `threshold`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] if the threshold or config parameters are out
    /// of range.
    pub fn sequential_test(&self, threshold: f64) -> Result<SequentialTest, StatsError> {
        SequentialTest::with_params(
            threshold,
            self.delta,
            self.alpha,
            self.beta,
            self.batch,
            self.max_samples,
        )
    }
}

/// The validating builder behind [`EvalConfig::builder`].
///
/// Accumulates the SPRT knobs and checks them *jointly* at
/// [`build`](EvalConfigBuilder::build) (the cap-vs-batch constraint spans
/// two fields, so per-setter checks cannot express it).
#[derive(Debug, Clone, Copy)]
pub struct EvalConfigBuilder {
    config: EvalConfig,
}

impl EvalConfigBuilder {
    /// Sets the indifference half-width δ (must end up in `(0, 0.5)`).
    pub fn delta(mut self, delta: f64) -> Self {
        self.config.delta = delta;
        self
    }

    /// Sets the type-I error bound α (must end up in `(0, 1)`).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Sets the type-II error bound β (must end up in `(0, 1)`).
    pub fn beta(mut self, beta: f64) -> Self {
        self.config.beta = beta;
        self
    }

    /// Sets the SPRT batch size `k` (must end up at least 1).
    pub fn batch(mut self, batch: usize) -> Self {
        self.config.batch = batch;
        self
    }

    /// Sets the termination cap (must end up holding at least one batch).
    pub fn max_samples(mut self, max_samples: usize) -> Self {
        self.config.max_samples = max_samples;
        self
    }

    /// Sets the [`EvalStrategy`] (any value is valid; no joint checks).
    pub fn strategy(mut self, strategy: EvalStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Validates the accumulated settings.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found, checking α, β, δ, the
    /// batch size, and the cap in that order.
    pub fn build(self) -> Result<EvalConfig, ConfigError> {
        let c = self.config;
        if !(c.alpha > 0.0 && c.alpha < 1.0) {
            return Err(ConfigError::Alpha(c.alpha));
        }
        if !(c.beta > 0.0 && c.beta < 1.0) {
            return Err(ConfigError::Beta(c.beta));
        }
        if !(c.delta > 0.0 && c.delta < 0.5) {
            return Err(ConfigError::Delta(c.delta));
        }
        if c.batch == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if c.max_samples < c.batch {
            return Err(ConfigError::CapBelowBatch {
                max_samples: c.max_samples,
                batch: c.batch,
            });
        }
        Ok(c)
    }
}

/// The full result of evaluating a conditional on uncertain data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypothesisOutcome {
    /// The threshold θ the evidence was tested against.
    pub threshold: f64,
    /// Whether `Pr[cond] > θ` was accepted (the branch decision).
    pub accepted: bool,
    /// Whether a Wald boundary was crossed (`false` = the sample cap forced
    /// a fallback decision; the paper's ternary "neither branch" case).
    pub conclusive: bool,
    /// Bernoulli samples drawn for this conditional (0 when the analytic
    /// backend decided).
    pub samples: usize,
    /// Estimate of `Pr[cond]` — empirical from samples, or the exact
    /// probability when the analytic backend decided.
    pub estimate: f64,
    /// Which backend decided (see [`Provenance`]).
    pub provenance: Provenance,
}

impl HypothesisOutcome {
    /// Conclusively true: the SPRT accepted `Pr[cond] > θ`.
    pub fn is_true(&self) -> bool {
        self.accepted && self.conclusive
    }

    /// Conclusively false: the SPRT accepted `Pr[cond] ≤ θ`.
    pub fn is_false(&self) -> bool {
        !self.accepted && self.conclusive
    }

    /// Neither hypothesis reached significance before the cap — the
    /// third value of the paper's ternary logic.
    pub fn is_inconclusive(&self) -> bool {
        !self.conclusive
    }

    /// Collapses to a `bool` (the fallback the runtime uses inside `if`):
    /// the accepted branch, whether or not the test was conclusive.
    pub fn to_bool(&self) -> bool {
        self.accepted
    }

    /// The decision, or a typed error if the test was inconclusive —
    /// for callers that must *not* silently take the fallback branch
    /// (the paper's ternary logic made explicit in the type system).
    ///
    /// # Errors
    ///
    /// Returns [`InconclusiveError`] (carrying the threshold, sample count,
    /// and running estimate) when the sample cap forced a fallback
    /// decision instead of a Wald boundary crossing.
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{Session, Uncertain};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let likely = Uncertain::bernoulli(0.95)?;
    /// let mut session = Session::seeded(7);
    /// let outcome = session.evaluate(&likely, 0.5);
    /// assert_eq!(outcome.expect_decided()?, true);
    /// # Ok(())
    /// # }
    /// ```
    pub fn expect_decided(&self) -> Result<bool, InconclusiveError> {
        if self.conclusive {
            Ok(self.accepted)
        } else {
            Err(InconclusiveError {
                threshold: self.threshold,
                samples: self.samples,
                estimate: self.estimate,
            })
        }
    }
}

/// A conditional's SPRT hit its sample cap without crossing either Wald
/// boundary: the evidence is statistically indistinguishable from the
/// threshold, so neither branch is conclusively right.
///
/// Returned by [`HypothesisOutcome::expect_decided`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InconclusiveError {
    /// The threshold θ the evidence was tested against.
    pub threshold: f64,
    /// Samples drawn before the cap stopped the test.
    pub samples: usize,
    /// The running estimate of `Pr[cond]` when the test stopped.
    pub estimate: f64,
}

impl fmt::Display for InconclusiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conditional inconclusive at threshold {} after {} samples (estimate {:.4})",
            self.threshold, self.samples, self.estimate
        )
    }
}

impl Error for InconclusiveError {}

impl Uncertain<bool> {
    /// The paper's **explicit conditional operator**: decides
    /// `Pr[self] > threshold` by SPRT through the thread's ambient
    /// [`Session`] (entropy-seeded unless one was installed with
    /// [`Session::install_ambient`]).
    ///
    /// Use [`Uncertain::pr_in`] to name the session explicitly —
    /// deterministic when the session is seeded.
    ///
    /// # Panics
    ///
    /// Panics if `threshold ∉ (0, 1)`.
    pub fn pr(&self, threshold: f64) -> bool {
        Session::with_ambient(|s| s.pr(self, threshold))
    }

    /// Explicit conditional in a named session (deterministic when the
    /// session is seeded; uses the session's [`EvalConfig`]).
    ///
    /// # Panics
    ///
    /// Panics if `threshold ∉ (0, 1)`.
    pub fn pr_in(&self, session: &mut Session, threshold: f64) -> bool {
        session.pr(self, threshold)
    }

    /// The paper's **implicit conditional operator**: "more likely than
    /// not", i.e. `Pr[self] > 0.5`, in the thread's ambient [`Session`].
    pub fn is_probable(&self) -> bool {
        self.pr(0.5)
    }

    /// Implicit conditional in a named session.
    pub fn is_probable_in(&self, session: &mut Session) -> bool {
        session.is_probable(self)
    }

    /// Runs the hypothesis test in a named session and returns the
    /// complete outcome, including sample counts and the ternary
    /// conclusive/inconclusive distinction (see
    /// [`HypothesisOutcome::expect_decided`]). The session's
    /// [`EvalConfig`] governs the SPRT; use
    /// [`Session::evaluate_with`] for a per-call override.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` or the session's config are invalid (e.g.
    /// threshold outside `(0, 1)`); conditional thresholds are code
    /// literals, so this is a programming error rather than a recoverable
    /// condition.
    pub fn evaluate_in(&self, session: &mut Session, threshold: f64) -> HypothesisOutcome {
        session.evaluate(self, threshold)
    }

    /// Fixed-size estimate of the Bernoulli parameter `Pr[self]` from `n`
    /// joint samples (no early stopping). Used by the evaluation harness
    /// to plot evidence curves (e.g. Fig. 4's ticket probabilities).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn probability_in(&self, session: &mut Session, n: usize) -> f64 {
        session.probability(self, n)
    }

    /// Conditional-probability estimate `Pr[self | evidence]` from `n`
    /// joint samples of the pair: both conditions are evaluated in the
    /// *same* joint sample, so shared ancestry between them is respected
    /// (the whole point of the Bayesian network).
    ///
    /// Returns `None` if the evidence never fired in `n` samples — the
    /// rare-observation regime where rejection-style conditioning
    /// degenerates (the paper's Church anecdote, §6).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{Session, Uncertain};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let x = Uncertain::uniform(0.0, 1.0)?;
    /// let big = x.gt(0.8);
    /// let medium = x.gt(0.5);
    /// let mut session = Session::sequential(1);
    /// // Pr[x > 0.8 | x > 0.5] = 0.2 / 0.5 = 0.4.
    /// let p = big.probability_given_in(&medium, &mut session, 20_000).unwrap();
    /// assert!((p - 0.4).abs() < 0.02);
    /// # Ok(())
    /// # }
    /// ```
    pub fn probability_given_in(
        &self,
        evidence: &Uncertain<bool>,
        session: &mut Session,
        n: usize,
    ) -> Option<f64> {
        session.probability_given(self, evidence, n)
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;

    #[test]
    fn expect_decided_distinguishes_ternary_outcomes() {
        let mut session = Session::sequential(12);
        let easy = Uncertain::bernoulli(0.95).unwrap();
        assert_eq!(
            easy.evaluate_in(&mut session, 0.5).expect_decided(),
            Ok(true)
        );

        // Evidence pinned at the threshold: cap forces inconclusive.
        let marginal = Uncertain::bernoulli(0.5).unwrap();
        let mut capped =
            Session::sequential(13).with_config(EvalConfig::default().with_max_samples(100));
        let mut saw_inconclusive = false;
        for _ in 0..20 {
            let o = marginal.evaluate_in(&mut capped, 0.5);
            if let Err(e) = o.expect_decided() {
                saw_inconclusive = true;
                assert_eq!(e.samples, 100);
                assert_eq!(e.threshold, 0.5);
                let msg = e.to_string();
                assert!(msg.contains("inconclusive"), "msg={msg}");
            }
        }
        assert!(saw_inconclusive);
    }

    #[test]
    fn config_builders_apply() {
        let cfg = EvalConfig::default()
            .with_delta(0.1)
            .with_error_bounds(0.01, 0.02)
            .with_batch(5)
            .with_max_samples(50);
        assert_eq!(cfg.delta, 0.1);
        assert_eq!(cfg.alpha, 0.01);
        assert_eq!(cfg.beta, 0.02);
        assert_eq!(cfg.batch, 5);
        assert_eq!(cfg.max_samples, 50);
        assert!(cfg.sequential_test(0.5).is_ok());
        assert!(cfg.sequential_test(0.0).is_err());
    }

    #[test]
    fn validating_builder_accepts_sensible_settings() {
        let cfg = EvalConfig::builder()
            .delta(0.1)
            .alpha(0.01)
            .beta(0.02)
            .batch(5)
            .max_samples(50)
            .build()
            .unwrap();
        let loose = EvalConfig::default()
            .with_delta(0.1)
            .with_error_bounds(0.01, 0.02)
            .with_batch(5)
            .with_max_samples(50);
        assert_eq!(cfg, loose, "builder and struct-literal paths agree");
    }

    #[test]
    fn validating_builder_defaults_match_default() {
        assert_eq!(
            EvalConfig::builder().build().unwrap(),
            EvalConfig::default()
        );
    }

    #[test]
    fn validating_builder_rejects_degenerate_settings() {
        use crate::error::ConfigError;
        let b = EvalConfig::builder;
        assert_eq!(b().alpha(0.0).build(), Err(ConfigError::Alpha(0.0)));
        assert_eq!(b().alpha(1.5).build(), Err(ConfigError::Alpha(1.5)));
        assert_eq!(b().beta(1.0).build(), Err(ConfigError::Beta(1.0)));
        assert_eq!(b().beta(-0.2).build(), Err(ConfigError::Beta(-0.2)));
        assert_eq!(b().delta(0.5).build(), Err(ConfigError::Delta(0.5)));
        assert_eq!(b().delta(0.0).build(), Err(ConfigError::Delta(0.0)));
        assert_eq!(b().batch(0).build(), Err(ConfigError::ZeroBatch));
        assert_eq!(
            b().batch(64).max_samples(10).build(),
            Err(ConfigError::CapBelowBatch {
                max_samples: 10,
                batch: 64
            })
        );
        assert!(b().alpha(f64::NAN).build().is_err(), "NaN alpha rejected");
    }

    #[test]
    fn validating_builder_reports_the_first_problem() {
        // Deterministic validation order: alpha before batch.
        use crate::error::ConfigError;
        assert_eq!(
            EvalConfig::builder().alpha(2.0).batch(0).build(),
            Err(ConfigError::Alpha(2.0))
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_operator_is_majority_vote() {
        let mut s = Session::sequential(1);
        let likely = Uncertain::bernoulli(0.8).unwrap();
        let unlikely = Uncertain::bernoulli(0.2).unwrap();
        assert!(likely.is_probable_in(&mut s));
        assert!(!unlikely.is_probable_in(&mut s));
    }

    #[test]
    fn explicit_operator_demands_stronger_evidence() {
        // Pr = 0.8: passes the 0.5 test but must fail the 0.95 test.
        let mut s = Session::sequential(2);
        let b = Uncertain::bernoulli(0.8).unwrap();
        assert!(b.pr_in(&mut s, 0.5));
        assert!(!b.pr_in(&mut s, 0.95));
    }

    #[test]
    fn evaluate_reports_sample_count_and_estimate() {
        let mut s = Session::sequential(3);
        let b = Uncertain::bernoulli(0.9).unwrap();
        let o = b.evaluate_in(&mut s, 0.5);
        assert!(o.is_true());
        assert!(o.samples >= EvalConfig::default().batch);
        assert!(o.samples <= EvalConfig::default().max_samples);
        assert!(o.estimate > 0.6);
        assert_eq!(o.threshold, 0.5);
    }

    #[test]
    fn marginal_conditional_is_inconclusive() {
        // Evidence exactly at the threshold: the cap should hit.
        let mut s = Session::sequential(4);
        let b = Uncertain::bernoulli(0.5).unwrap();
        let not_b = !&b;
        let cfg = EvalConfig::default().with_max_samples(100);
        // Any single run can cross a boundary by luck; the *typical*
        // outcome must be inconclusive — and symmetrically so for the
        // complement (the paper's ternary logic: neither `A < B` nor
        // `A >= B` need hold).
        let mut inconclusive = 0;
        let mut complement_inconclusive = 0;
        for _ in 0..20 {
            let o = s.evaluate_with(&b, 0.5, &cfg);
            if o.is_inconclusive() {
                inconclusive += 1;
                assert_eq!(o.samples, 100);
            }
            if s.evaluate_with(&not_b, 0.5, &cfg).is_inconclusive() {
                complement_inconclusive += 1;
            }
        }
        assert!(inconclusive >= 10, "inconclusive={inconclusive}/20");
        assert!(
            complement_inconclusive >= 10,
            "complement={complement_inconclusive}/20"
        );
    }

    #[test]
    fn easy_conditionals_stop_early() {
        let mut s = Session::sequential(5);
        let b = Uncertain::bernoulli(0.99).unwrap();
        let o = b.evaluate_in(&mut s, 0.5);
        assert!(o.samples <= 30, "easy test took {} samples", o.samples);
    }

    #[test]
    #[should_panic(expected = "invalid conditional threshold")]
    fn invalid_threshold_panics() {
        let mut s = Session::sequential(6);
        let b = Uncertain::bernoulli(0.5).unwrap();
        let _ = b.evaluate_in(&mut s, 1.5);
    }

    #[test]
    fn probability_estimate_converges() {
        let mut s = Session::sequential(7);
        let b = Uncertain::bernoulli(0.3).unwrap();
        let p = b.probability_in(&mut s, 30_000);
        assert!((p - 0.3).abs() < 0.01, "p={p}");
    }

    #[test]
    fn conditional_probability_respects_shared_ancestry() {
        // The alarm model of paper Fig. 17, answered without inference
        // machinery: Pr[phone | alarm] where both depend on `earthquake`.
        let earthquake = Uncertain::bernoulli(0.01).unwrap(); // boosted rate for test speed
        let burglary = Uncertain::bernoulli(0.01).unwrap();
        let alarm = &earthquake | &burglary;
        let phone = earthquake.flat_map("phone|eq", |eq| {
            Uncertain::bernoulli(if eq { 0.7 } else { 0.99 }).unwrap()
        });
        let mut s = Session::sequential(9);
        let p = phone
            .probability_given_in(&alarm, &mut s, 60_000)
            .expect("alarm fires often enough at boosted rates");
        // Analytic: Pr[eq|alarm] ≈ 0.01/(0.01+0.99·0.01) ≈ 0.5025 →
        // p ≈ 0.5025·0.7 + 0.4975·0.99 ≈ 0.844.
        assert!((p - 0.844).abs() < 0.03, "p={p}");
    }

    #[test]
    fn impossible_evidence_returns_none() {
        let never = Uncertain::bernoulli(0.0).unwrap();
        let anything = Uncertain::bernoulli(0.5).unwrap();
        let mut s = Session::sequential(10);
        assert_eq!(anything.probability_given_in(&never, &mut s, 1000), None);
    }

    #[test]
    fn speeding_ticket_scenario() {
        // Paper Fig. 4: true speed 57 mph, ε = 4 m over 1 s ⇒ the naive
        // conditional Speed > 60 has a substantial false-positive rate,
        // but demanding 90% evidence suppresses it.
        let mut s = Session::sequential(8);
        // Speed error ≈ Gaussian-ish with large σ; model directly.
        let speed = Uncertain::normal(57.0, 6.0).unwrap();
        let over_limit = speed.gt(60.0);
        let naive_fp = over_limit.probability_in(&mut s, 5000);
        assert!(naive_fp > 0.2, "naive false-positive rate = {naive_fp}");
        assert!(!over_limit.pr_in(&mut s, 0.9));
    }
}
