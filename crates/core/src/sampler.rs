//! The legacy joint-sample driver, now a thin wrapper over [`Session`].
//!
//! [`Sampler`] predates the session runtime; it remains as the
//! compatibility surface for seeded experiments whose recorded numbers
//! must not move. Internally every `Sampler` is a single-threaded
//! [`Session`] in *sequential* seeding mode ([`Session::sequential`]):
//! one shared `StdRng`, one `u64` drawn per joint sample, in call order —
//! the exact stream the pre-runtime implementation drew — so `Sampler`
//! results are bitwise identical to every prior release while
//! transparently gaining the session's kernel cache.
//!
//! New code should construct a [`Session`] directly; [`Sampler::session`]
//! / [`Sampler::session_mut`] are the in-place migration path.

#[cfg(test)]
use crate::context::SampleContext;
#[cfg(test)]
use crate::plan::Plan;
use crate::runtime::Session;
use crate::uncertain::{Uncertain, Value};
use rand::RngCore;

/// Draws joint samples from `Uncertain<T>` networks.
///
/// Each call to [`Sampler::sample`] performs one *joint sample*: the
/// network is evaluated once by ancestral sampling (leaves first, shared
/// nodes drawn exactly once) and the root value is returned (paper §4.2).
/// The sampler also counts joint samples, which is how the evaluation
/// harness reports "samples per cell update" (paper Fig. 14b).
///
/// This type is a compatibility wrapper over a single-threaded
/// [`Session`]; see the module docs for the migration story.
///
/// # Examples
///
/// ```
/// use uncertain_core::{Sampler, Uncertain};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Uncertain::normal(1.0, 0.5)?;
/// let mut s = Sampler::seeded(11);
/// let values = s.samples(&x, 100);
/// assert_eq!(values.len(), 100);
/// assert_eq!(s.joint_samples(), 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Sampler {
    session: Session,
}

impl Sampler {
    /// Creates a sampler seeded from OS entropy.
    pub fn new() -> Self {
        Self {
            session: Session::sequential_from_entropy(),
        }
    }

    /// Creates a deterministic sampler — same seed, same sample stream.
    /// Every experiment in this repository is driven through seeded
    /// samplers so the paper's figures regenerate exactly.
    pub fn seeded(seed: u64) -> Self {
        Self {
            session: Session::sequential(seed),
        }
    }

    /// The underlying session (cache statistics, configuration).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable access to the underlying session — the migration path from
    /// `Sampler`-based call sites to the [`Session`] API.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Draws one joint sample of the network rooted at `u`.
    pub fn sample<T: Value>(&mut self, u: &Uncertain<T>) -> T {
        self.session.sample(u)
    }

    /// Draws `n` joint samples into a `Vec`.
    ///
    /// Unlike a loop over [`Sampler::sample`], the evaluation context (memo
    /// table and its allocation) is created once and re-seeded per draw —
    /// the sample stream is bitwise identical, without `n` context
    /// allocations.
    pub fn samples<T: Value>(&mut self, u: &Uncertain<T>, n: usize) -> Vec<T> {
        self.session.samples(u, n)
    }

    /// Draws one joint sample through a compiled [`Plan`], consuming one
    /// seed from this sampler's stream — the per-sample seeding is bitwise
    /// identical to [`Sampler::sample`], so swapping the tree-walk for a
    /// plan does not move any seeded experiment. Production call sites now
    /// route through [`Session`]; the stream-equivalence tests keep driving
    /// this legacy protocol directly.
    #[cfg(test)]
    pub(crate) fn sample_planned<T: Value>(
        &mut self,
        plan: &Plan<T>,
        ctx: &mut SampleContext,
    ) -> T {
        self.session.count_joint_samples(1);
        ctx.reseed(self.session.next_stream_seed());
        plan.evaluate(ctx)
    }

    /// Total joint samples drawn through this sampler so far.
    pub fn joint_samples(&self) -> u64 {
        self.session.joint_samples()
    }

    /// Resets the joint-sample counter (the RNG stream is unaffected).
    pub fn reset_counter(&mut self) {
        self.session.reset_joint_samples();
    }

    /// Direct access to the underlying RNG, for code that mixes raw draws
    /// with network sampling (e.g. workload generators).
    pub fn rng(&mut self) -> &mut dyn RngCore {
        self.session.rng()
    }
}

impl Default for Sampler {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn seeded_samplers_are_reproducible() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut a = Sampler::seeded(99);
        let mut b = Sampler::seeded(99);
        assert_eq!(a.samples(&x, 20), b.samples(&x, 20));
    }

    #[test]
    fn different_seeds_differ() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut a = Sampler::seeded(1);
        let mut b = Sampler::seeded(2);
        assert_ne!(a.samples(&x, 5), b.samples(&x, 5));
    }

    #[test]
    fn joint_samples_are_independent_across_calls() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut s = Sampler::seeded(3);
        let a = s.sample(&x);
        let b = s.sample(&x);
        assert_ne!(a, b, "separate joint samples must redraw the leaves");
    }

    #[test]
    fn samples_matches_a_loop_of_sample() {
        // The context-reuse fast path must not perturb the stream.
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let shared = &x * &x - &x;
        let mut a = Sampler::seeded(17);
        let batch = a.samples(&shared, 25);
        let mut b = Sampler::seeded(17);
        let looped: Vec<f64> = (0..25).map(|_| b.sample(&shared)).collect();
        assert_eq!(batch, looped);
        assert_eq!(a.joint_samples(), b.joint_samples());
    }

    #[test]
    fn sample_planned_matches_sample() {
        let x = Uncertain::uniform(0.0, 1.0).unwrap();
        let expr = (&x + &x).gt(0.7);
        let mut a = Sampler::seeded(23);
        let tree: Vec<bool> = (0..40).map(|_| a.sample(&expr)).collect();
        let mut b = Sampler::seeded(23);
        let plan = Plan::compile(&expr);
        let mut ctx = plan.new_context();
        let planned: Vec<bool> = (0..40).map(|_| b.sample_planned(&plan, &mut ctx)).collect();
        assert_eq!(tree, planned);
        assert_eq!(b.joint_samples(), 40);
    }

    #[test]
    fn wrapper_preserves_the_legacy_seed_stream() {
        // The compatibility contract of the whole module: Sampler::seeded(s)
        // must draw exactly the stream the pre-session implementation drew
        // (one u64 per joint sample from StdRng::seed_from_u64(s), fresh
        // tree-walk context each).
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let expr = (&x + &x) * &x;
        let mut s = Sampler::seeded(424242);
        let via_wrapper = s.samples(&expr, 30);
        let mut rng = StdRng::seed_from_u64(424242);
        let legacy: Vec<f64> = (0..30)
            .map(|_| {
                let mut ctx = SampleContext::from_seed(rng.gen());
                expr.node().sample_value(&mut ctx)
            })
            .collect();
        assert_eq!(via_wrapper, legacy);
    }

    #[test]
    fn wrapper_exposes_session_cache() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut s = Sampler::seeded(5);
        let _ = s.samples(&x, 10);
        let _ = s.samples(&x, 10);
        let stats = s.session().cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn counter_counts_and_resets() {
        let x = Uncertain::point(1.0);
        let mut s = Sampler::seeded(0);
        let _ = s.samples(&x, 7);
        assert_eq!(s.joint_samples(), 7);
        s.reset_counter();
        assert_eq!(s.joint_samples(), 0);
    }
}
