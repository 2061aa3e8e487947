//! A reusable evaluator for one network — the paper's "compile at the
//! conditional" fast path, made literal.
//!
//! A single [`Session::sample`] tree-walks the network, probing a
//! `NodeId` hash map and boxing every node's value, which is the right
//! default for one-off draws. A conditional, however, samples the *same*
//! network tens to hundreds of times (§4.3); an [`Evaluator`] compiles the
//! network once into a [`Plan`] — dense slot indices instead of a
//! `NodeId` hash map, a flat reusable arena instead of per-sample boxing —
//! and reuses one context across samples, while its batches run on the
//! columnar kernel whenever the network lowers. This is the practical
//! payoff of the paper's observation that "the runtime … much like a JIT,
//! compiles those expression trees to executable code at conditionals."
//!
//! Deprecated: [`Session`] now does all of this itself — its batches and
//! decisions run on the cached kernel, and [`Session::kernel_profile`]
//! profiles it — so the closure plan underneath this type has no callers
//! left and goes in the next release.

#![allow(deprecated)]

use crate::condition::{EvalConfig, EvalStrategy, HypothesisOutcome, Provenance};
use crate::context::SampleContext;
use crate::error::{Error, NotAnalyticError};
use crate::exact::{self, BoolLaw};
use crate::kernel::{Kernel, KernelState, KERNEL_CHUNK};
use crate::node::NodeInfo;
#[cfg(feature = "obs")]
use crate::obs::{kind_of, NodeCost, Profile};
use crate::plan::{sample_seed, Plan};
use crate::runtime::Session;
use crate::uncertain::{Uncertain, Value};
use std::sync::Arc;
use uncertain_stats::{SequentialTest, TestDecision};

/// Draws repeated joint samples of one pinned network through a compiled
/// [`Plan`] with a reused evaluation context.
///
/// Semantically identical to calling [`Session::sample`] in a loop (each
/// call is one independent joint sample; sharing within a sample is
/// preserved); the difference is that the per-node hash-map probes, heap
/// boxing, and downcasts of the tree-walk interpreter are gone from the
/// inner loop.
///
/// # Examples
///
/// ```
/// use uncertain_core::{Evaluator, Uncertain};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Uncertain::normal(0.0, 1.0)?;
/// let sum = &x + &x; // shared X: always exactly 2x
/// let mut eval = Evaluator::new(&sum, 7);
/// let a = eval.sample();
/// let b = eval.sample();
/// assert_ne!(a, b, "independent joint samples");
/// # Ok(())
/// # }
/// ```
#[deprecated(
    note = "use `Session`: `samples`/`try_evaluate` run on its cached kernel, \
            `Session::sample` is the tree-walk draw, and `Session::kernel_profile` \
            replaces `kernel_profile`"
)]
pub struct Evaluator<T> {
    network: Uncertain<T>,
    plan: Arc<Plan<T>>,
    /// The columnar twin of `plan`, when every reachable node lowers to
    /// the instruction tape. Batch draws run here; `None` falls back to
    /// the closure path.
    kernel: Option<Arc<Kernel<T>>>,
    /// Lazily-allocated register file for `kernel`, reused across batches.
    kernel_state: Option<KernelState>,
    /// Reusable per-chunk seed buffer for the kernel path.
    seed_buf: Vec<u64>,
    ctx: SampleContext,
    seed: u64,
    samples_drawn: u64,
    /// Next sample index of the indexed batch stream (see
    /// [`Evaluator::sample_batch`]).
    batch_cursor: u64,
    /// The last sequential test built by [`Evaluator::try_decide`], keyed
    /// by the config/threshold that produced it.
    cached_test: Option<(EvalConfig, f64, SequentialTest)>,
    /// The analytic verdict for the pinned network, computed at most once
    /// (outer `None` = never analyzed; inner `None` = analyzer declined).
    /// Only consulted by the boolean decision path.
    exact_law: Option<Option<BoolLaw>>,
}

impl<T: Value> std::fmt::Debug for Evaluator<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("network", &self.network)
            .field("plan", &self.plan)
            .field("samples_drawn", &self.samples_drawn)
            .finish_non_exhaustive()
    }
}

impl<T: Value> Evaluator<T> {
    /// Compiles `network` and pins it with a deterministic RNG stream.
    pub fn new(network: &Uncertain<T>, seed: u64) -> Self {
        Self::with_plan(network.clone(), Arc::new(Plan::compile(network)), seed)
    }

    /// Builds an evaluator that **borrows the session's cached kernel** for
    /// `network` (lowering it into the cache on first use) instead of
    /// re-lowering, compiles its own plan for the continuous
    /// [`Evaluator::sample`] stream, and derives its deterministic seed
    /// from the session's seeding policy. This is the cheap way to pin a
    /// long-lived fast path for one network inside a session-based
    /// program.
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{Evaluator, Session, Uncertain};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let x = Uncertain::normal(1.0, 1.0)?;
    /// let cond = x.gt(0.0); // Pr ≈ 0.84
    /// let mut session = Session::seeded(3);
    /// session.pr(&cond, 0.5); // kernel now cached
    /// let mut eval = Evaluator::from_session(&mut session, &cond);
    /// assert_eq!(session.cache_stats().hits, 1, "evaluator reused the entry");
    /// assert!(eval.decide(0.5));
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_session(session: &mut Session, network: &Uncertain<T>) -> Self {
        let kernel = session.cached_kernel(network);
        let seed = session.derive_seed();
        let plan = Arc::new(Plan::compile(network));
        Self::with_parts(network.clone(), plan, kernel, seed)
    }

    fn with_plan(network: Uncertain<T>, plan: Arc<Plan<T>>, seed: u64) -> Self {
        let kernel = Kernel::lower(&network).map(Arc::new);
        Self::with_parts(network, plan, kernel, seed)
    }

    fn with_parts(
        network: Uncertain<T>,
        plan: Arc<Plan<T>>,
        kernel: Option<Arc<Kernel<T>>>,
        seed: u64,
    ) -> Self {
        let mut ctx = SampleContext::from_seed(seed);
        plan.install(&mut ctx);
        Self {
            network,
            plan,
            kernel,
            kernel_state: None,
            seed_buf: Vec::new(),
            ctx,
            seed,
            samples_drawn: 0,
            batch_cursor: 0,
            cached_test: None,
            exact_law: None,
        }
    }

    /// Draws one joint sample from the evaluator's continuous RNG stream.
    pub fn sample(&mut self) -> T {
        self.samples_drawn += 1;
        self.plan.evaluate(&mut self.ctx)
    }

    /// Draws the next `n` joint samples of the evaluator's *indexed batch
    /// stream*: sample `i` (counted across all `sample_batch` calls) is
    /// seeded by a SplitMix64 mix of `(seed, i)`, so the sequence of batch
    /// samples depends only on the evaluator's seed — not on batch
    /// boundaries, and bitwise identical to what a
    /// [`ParSampler`](crate::ParSampler) with the same seed produces on any
    /// number of threads.
    pub fn sample_batch(&mut self, n: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(n);
        self.sample_batch_into(&mut out, n);
        out
    }

    /// [`Evaluator::sample_batch`] into a caller-owned buffer: clears
    /// `out`, then fills it with the next `n` samples of the indexed batch
    /// stream. Steady-state callers (an SPRT pulling a batch per stopping
    /// check) reuse one buffer instead of allocating a `Vec` per batch.
    ///
    /// On networks the columnar kernel can express, the batch runs as
    /// column-at-a-time instruction loops; otherwise it falls back to the
    /// per-sample closure path. Both produce bitwise-identical streams.
    pub fn sample_batch_into(&mut self, out: &mut Vec<T>, n: usize) {
        out.clear();
        out.reserve(n);
        if let Some(kernel) = self.kernel.clone() {
            let state = self.kernel_state.get_or_insert_with(|| kernel.new_state());
            let mut done = 0;
            while done < n {
                let take = KERNEL_CHUNK.min(n - done);
                let base = self.batch_cursor + done as u64;
                self.seed_buf.clear();
                self.seed_buf
                    .extend((0..take as u64).map(|i| sample_seed(self.seed, base + i)));
                kernel.run_into(&self.seed_buf, state, out);
                done += take;
            }
        } else {
            for i in 0..n {
                self.ctx
                    .reseed(sample_seed(self.seed, self.batch_cursor + i as u64));
                out.push(self.plan.evaluate(&mut self.ctx));
            }
        }
        self.batch_cursor += n as u64;
        self.samples_drawn += n as u64;
    }

    /// Compiles `network` in **profiling mode**: every slotted node's
    /// closure is wrapped with a timer, and [`Evaluator::profile`] reports
    /// where sampling time goes — per node and per node kind. Sampled
    /// values are bitwise identical to an unprofiled evaluator with the
    /// same seed; only wall time changes (one `Instant` pair per node per
    /// joint sample), so profile a workload, not a production loop.
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{Evaluator, Uncertain};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let x = Uncertain::normal(0.0, 1.0)?;
    /// let expr = (&x + &x).gt(0.0);
    /// let mut eval = Evaluator::profiled(&expr, 7);
    /// for _ in 0..100 { eval.sample(); }
    /// let profile = eval.profile().expect("profiling mode is on");
    /// // x, +, gt each drew once per joint sample; x was also re-read
    /// // once per sample by the second `+` operand.
    /// assert!(profile.entries.iter().all(|e| e.draws == 100));
    /// assert_eq!(profile.by_kind().len(), 3);
    /// # Ok(())
    /// # }
    /// ```
    #[cfg(feature = "obs")]
    pub fn profiled(network: &Uncertain<T>, seed: u64) -> Self {
        let plan = Arc::new(Plan::compile_profiled(network));
        // No kernel: the per-node timers live in the plan's closures, so a
        // profiled evaluator must route batches through them too.
        let mut eval = Self::with_parts(network.clone(), plan, None, seed);
        eval.ctx.enable_profile(eval.plan.slot_count());
        eval
    }

    /// The per-node cost profile accumulated by a
    /// [`Evaluator::profiled`] evaluator, or `None` on an unprofiled one.
    /// Entries are sorted hottest-first; timings are inclusive of
    /// children, like flamegraph frames.
    #[cfg(feature = "obs")]
    pub fn profile(&self) -> Option<Profile> {
        let slots = self.ctx.profile_slots();
        if slots.is_empty() {
            return None;
        }
        let view = self.network.network();
        let mut entries: Vec<NodeCost> = self
            .plan
            .slots()
            .iter()
            .map(|(&id, &slot)| {
                let cost = slots.get(slot as usize).copied().unwrap_or_default();
                let (label, is_leaf) = view
                    .node(id)
                    .map(|meta| (meta.label.clone(), meta.is_leaf))
                    .unwrap_or_else(|| (format!("node {}", id.as_u64()), false));
                NodeCost {
                    id,
                    kind: kind_of(&label),
                    label,
                    is_leaf,
                    draws: cost.draws,
                    hits: cost.hits,
                    ns: cost.ns,
                }
            })
            .collect();
        entries.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.id.as_u64().cmp(&b.id.as_u64())));
        Some(Profile {
            entries,
            joint_samples: self.samples_drawn,
        })
    }

    /// Profiles the **columnar kernel** over the next `n` samples of the
    /// indexed batch stream: runs the tape with a timer around every
    /// instruction's column pass and reports exclusive per-instruction
    /// costs. Returns `None` when the network has a node the tape cannot
    /// express (see [`Evaluator::profiled`] for the closure-path profile,
    /// which covers every network).
    ///
    /// The drawn samples advance the batch cursor exactly like
    /// [`Evaluator::sample_batch`], so the stream stays reproducible.
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{Evaluator, Uncertain};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let x = Uncertain::normal(0.0, 1.0)?;
    /// let expr = (&x + &x).gt(0.0);
    /// let mut eval = Evaluator::new(&expr, 7);
    /// let profile = eval.kernel_profile(1024).expect("tape-expressible");
    /// assert_eq!(profile.samples, 1024);
    /// assert_eq!(profile.instrs.len(), 4); // x, +, point(0), >
    /// // The optimizer found nothing to remove in this tape …
    /// assert_eq!(profile.pre_opt_instrs, profile.post_opt_instrs());
    /// // … and the one leaf is a vectorized Gaussian column fill.
    /// let leaves = profile.by_leaf_kind();
    /// assert_eq!(leaves.len(), 1);
    /// assert!(leaves[0].vectorized);
    /// # Ok(())
    /// # }
    /// ```
    #[cfg(feature = "obs")]
    pub fn kernel_profile(&mut self, n: usize) -> Option<crate::obs::KernelProfile> {
        let kernel = match &self.kernel {
            Some(k) => Arc::clone(k),
            None => Arc::new(Kernel::lower(&self.network)?),
        };
        let (seed, mut index) = (self.seed, self.batch_cursor);
        let profile = kernel.profiled_run(n, || {
            index += 1;
            sample_seed(seed, index - 1)
        });
        self.batch_cursor += n as u64;
        self.samples_drawn += n as u64;
        Some(profile)
    }

    /// Joint samples drawn so far.
    pub fn samples_drawn(&self) -> u64 {
        self.samples_drawn
    }

    /// The pinned network.
    pub fn network(&self) -> &Uncertain<T> {
        &self.network
    }

    /// The compiled plan.
    pub fn plan(&self) -> &Plan<T> {
        &self.plan
    }
}

impl Evaluator<bool> {
    /// Runs the SPRT for `Pr[cond] > threshold` on the pinned Bernoulli,
    /// drawing batches through [`Evaluator::sample_batch`]. The built
    /// [`SequentialTest`] is cached and reused across calls with the same
    /// `config`/`threshold` (the common case: one conditional site decided
    /// repeatedly).
    ///
    /// When `config.strategy` admits the analytic backend and the pinned
    /// network is recognized, the decision comes back in closed form with
    /// zero samples drawn (the batch stream does not advance) and
    /// [`Provenance::Exact`] attached; otherwise it is decided by sampling
    /// exactly as under [`EvalStrategy::SamplingOnly`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Stats`] if `threshold` or `config` are out of
    /// range (e.g. `threshold ∉ (0, 1)`), and [`Error::NotAnalytic`] if
    /// [`EvalStrategy::ExactOnly`] was demanded on an unrecognized graph.
    pub fn try_decide(
        &mut self,
        config: &EvalConfig,
        threshold: f64,
    ) -> Result<HypothesisOutcome, Error> {
        let test = match &self.cached_test {
            Some((c, t, test)) if *c == *config && *t == threshold => *test,
            _ => {
                let test = config.sequential_test(threshold)?;
                self.cached_test = Some((*config, threshold, test));
                test
            }
        };
        if config.strategy != EvalStrategy::SamplingOnly {
            if self.exact_law.is_none() {
                let root = self.network.node().clone() as Arc<dyn NodeInfo>;
                self.exact_law = Some(exact::analyze_bool(&root));
            }
            if let Some(law) = self.exact_law.unwrap_or(None) {
                return Ok(HypothesisOutcome {
                    threshold,
                    accepted: law.p > threshold,
                    conclusive: (law.p - threshold).abs() > config.delta,
                    samples: 0,
                    estimate: law.p,
                    provenance: Provenance::Exact { method: law.method },
                });
            }
            if config.strategy == EvalStrategy::ExactOnly {
                return Err(NotAnalyticError { query: "decide" }.into());
            }
        }
        let mut buf: Vec<bool> = Vec::new();
        let outcome = test
            .run_counted_while(
                |k| {
                    self.sample_batch_into(&mut buf, k);
                    buf.iter().filter(|&&b| b).count() as u64
                },
                |_| true,
            )
            .expect("unconditional keep_going never aborts");
        Ok(HypothesisOutcome {
            threshold,
            accepted: outcome.decision == TestDecision::AcceptAlternative,
            conclusive: outcome.conclusive,
            samples: outcome.samples,
            estimate: outcome.estimate,
            provenance: Provenance::Sampled {
                samples: outcome.samples,
            },
        })
    }

    /// Runs the SPRT for `Pr[cond] > threshold` with default configuration
    /// — the conditional fast path (same semantics as
    /// [`Uncertain::evaluate_in`](crate::Uncertain::evaluate_in) with
    /// default configuration, minus the per-sample interpreter overhead).
    ///
    /// # Panics
    ///
    /// Panics if `threshold ∉ (0, 1)`.
    pub fn decide(&mut self, threshold: f64) -> bool {
        self.try_decide(&EvalConfig::default(), threshold)
            .expect("invalid conditional threshold")
            .to_bool()
    }
}

impl Evaluator<f64> {
    /// The `E` operator on the pinned network.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn expected_value(&mut self, n: usize) -> f64 {
        assert!(n > 0, "expected value needs at least one sample");
        let mut acc = 0.0;
        for _ in 0..n {
            acc += self.sample();
        }
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParSampler;

    #[test]
    fn from_session_matches_standalone_evaluator() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let expr = &x * &x;
        let mut session = Session::seeded(31);
        let mut from_session = Evaluator::from_session(&mut session, &expr);
        // The derived seed is the session's next query seed; a standalone
        // evaluator with that same seed must produce the same stream.
        let mut session2 = Session::seeded(31);
        let seed = session2.derive_seed();
        let mut standalone = Evaluator::new(&expr, seed);
        assert_eq!(from_session.sample_batch(64), standalone.sample_batch(64));
    }

    #[test]
    fn matches_sampler_distribution() {
        let x = Uncertain::normal(3.0, 1.5).unwrap();
        let expr = &x * 2.0 + 1.0;
        let mut eval = Evaluator::new(&expr, 1);
        let mean = eval.expected_value(20_000);
        assert!((mean - 7.0).abs() < 0.05, "mean={mean}");
        assert_eq!(eval.samples_drawn(), 20_000);
    }

    #[test]
    fn preserves_shared_dependence() {
        let x = Uncertain::uniform(1.0, 5.0).unwrap();
        let zero = &x - &x;
        let mut eval = Evaluator::new(&zero, 2);
        for _ in 0..500 {
            assert_eq!(eval.sample(), 0.0);
        }
    }

    #[test]
    fn consecutive_samples_are_independent() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut eval = Evaluator::new(&x, 3);
        let first = eval.sample();
        let distinct = (0..50).filter(|_| eval.sample() != first).count();
        assert!(distinct > 45);
    }

    #[test]
    fn deterministic_per_seed() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut a = Evaluator::new(&x, 9);
        let mut b = Evaluator::new(&x, 9);
        for _ in 0..20 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn decide_matches_uncertain_semantics() {
        let likely = Uncertain::bernoulli(0.9).unwrap();
        let mut eval = Evaluator::new(&likely, 4);
        assert!(eval.decide(0.5));
        let mut eval = Evaluator::new(&(!&likely), 5);
        assert!(!eval.decide(0.5));
    }

    #[test]
    fn try_decide_reports_errors_instead_of_panicking() {
        let b = Uncertain::bernoulli(0.5).unwrap();
        let mut eval = Evaluator::new(&b, 6);
        assert!(eval.try_decide(&EvalConfig::default(), 1.5).is_err());
        assert!(eval.try_decide(&EvalConfig::default(), -0.1).is_err());
        let ok = eval.try_decide(&EvalConfig::default(), 0.5).unwrap();
        assert!(ok.samples > 0);
    }

    #[test]
    #[should_panic(expected = "invalid conditional threshold")]
    fn decide_panics_on_bad_threshold() {
        let b = Uncertain::bernoulli(0.5).unwrap();
        let mut eval = Evaluator::new(&b, 6);
        let _ = eval.decide(2.0);
    }

    #[test]
    fn try_decide_reuses_the_cached_test() {
        let likely = Uncertain::bernoulli(0.95).unwrap();
        let mut eval = Evaluator::new(&likely, 7);
        let cfg = EvalConfig::default();
        let first = eval.try_decide(&cfg, 0.5).unwrap();
        assert!(eval.cached_test.is_some());
        let second = eval.try_decide(&cfg, 0.5).unwrap();
        assert!(first.accepted && second.accepted);
        // A different threshold rebuilds (and re-caches) the test.
        let _ = eval.try_decide(&cfg, 0.6).unwrap();
        assert_eq!(eval.cached_test.as_ref().unwrap().1, 0.6);
    }

    #[test]
    fn sample_batch_is_batch_boundary_invariant() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut whole = Evaluator::new(&x, 11);
        let all = whole.sample_batch(50);
        let mut pieces = Evaluator::new(&x, 11);
        let mut joined = pieces.sample_batch(13);
        joined.extend(pieces.sample_batch(37));
        assert_eq!(all, joined);
    }

    #[test]
    fn sample_batch_matches_par_sampler() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let expr = &x * &x;
        let mut eval = Evaluator::new(&expr, 21);
        let serial = eval.sample_batch(64);
        let parallel = ParSampler::with_threads(&expr, 21, 4).sample_batch(64);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn agrees_statistically_with_sampler() {
        // Same distribution through both paths.
        let u = Uncertain::uniform(0.0, 1.0).unwrap();
        let cond = u.gt(0.3);
        let mut session = Session::sequential(6);
        let via_sampler = session.probability(&cond, 20_000);
        let mut eval = Evaluator::new(&cond, 7);
        let via_eval = (0..20_000).filter(|_| eval.sample()).count() as f64 / 20_000.0;
        assert!((via_sampler - via_eval).abs() < 0.02);
    }
}
