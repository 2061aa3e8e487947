//! Per-joint-sample evaluation context: RNG + memo table.
//!
//! One `SampleContext` lives exactly as long as one *joint sample* of a
//! Bayesian network. It implements the paper's ancestral-sampling guarantee
//! (§4.2): because values are memoized by [`NodeId`], "each node is visited
//! exactly once" per joint sample, and shared sub-expressions stay perfectly
//! correlated.
//!
//! The memo is a `NodeId → Box<dyn Any>` hash map. It also covers nodes
//! discovered dynamically (e.g. networks produced inside a `flat_map`
//! closure): a dynamic sub-network that closes over an outer variable reads
//! the same per-joint-sample value through the same id.

use crate::node::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::any::Any;
use std::collections::HashMap;

/// Evaluation state for one joint sample of a network.
pub(crate) struct SampleContext {
    rng: SmallRng,
    memo: HashMap<NodeId, Box<dyn Any + Send>>,
}

impl SampleContext {
    /// Creates a context with the given RNG seed.
    pub(crate) fn from_seed(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            memo: HashMap::new(),
        }
    }

    /// Re-seeds the RNG stream in place, keeping the memo allocation.
    /// After `reseed(s)` + [`begin_joint_sample`](Self::begin_joint_sample),
    /// the next joint sample is bitwise identical to one drawn from a fresh
    /// `SampleContext::from_seed(s)`.
    pub(crate) fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }

    /// The randomness source for leaf sampling functions.
    pub(crate) fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }

    /// Looks up a memoized value for `id`.
    ///
    /// # Panics
    ///
    /// Panics if a value of a different type was memoized under the same id
    /// — impossible unless node identity is violated internally.
    pub(crate) fn lookup<T: Clone + 'static>(&self, id: NodeId) -> Option<T> {
        self.memo.get(&id).map(|boxed| {
            boxed
                .downcast_ref::<T>()
                .expect("node id memoized with inconsistent type")
                .clone()
        })
    }

    /// Memoizes a computed value for `id`.
    pub(crate) fn store<T: Clone + Send + 'static>(&mut self, id: NodeId, value: T) {
        self.memo.insert(id, Box::new(value));
    }

    /// Looks up `id`, or computes and memoizes it.
    pub(crate) fn memoized<T: Clone + Send + 'static>(
        &mut self,
        id: NodeId,
        compute: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if let Some(v) = self.lookup::<T>(id) {
            return v;
        }
        let v = compute(self);
        self.store(id, v.clone());
        v
    }

    /// Derives a fresh, independent context (fresh memo table, RNG seeded
    /// from this context's stream) for encapsulated sub-networks:
    /// encapsulation means the sub-network must decorrelate from the outer
    /// sample.
    pub(crate) fn fork(&mut self) -> SampleContext {
        SampleContext::from_seed(self.rng.gen())
    }

    /// Turns `sub` into the next [`fork`](Self::fork) of this context:
    /// re-seeds it from this context's stream and clears its memo, keeping
    /// the memo's allocation. A loop that forks once per iteration can
    /// refork one context instead and draw the same bits.
    pub(crate) fn refork(&mut self, sub: &mut SampleContext) {
        sub.reseed(self.rng.gen());
        sub.begin_joint_sample();
    }

    /// Starts the next joint sample: clears the memo table while keeping
    /// its allocation, so one context draws many joint samples of the same
    /// network.
    pub(crate) fn begin_joint_sample(&mut self) {
        self.memo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoized_computes_once() {
        let mut ctx = SampleContext::from_seed(0);
        let id = NodeId::fresh();
        let mut calls = 0;
        let a: i32 = ctx.memoized(id, |_| {
            calls += 1;
            41
        });
        let b: i32 = ctx.memoized(id, |_| {
            calls += 1;
            99
        });
        assert_eq!(a, 41);
        assert_eq!(b, 41, "second lookup must return the memoized value");
        assert_eq!(calls, 1);
    }

    #[test]
    fn distinct_ids_do_not_collide() {
        let mut ctx = SampleContext::from_seed(0);
        let id1 = NodeId::fresh();
        let id2 = NodeId::fresh();
        ctx.store(id1, 1.0_f64);
        ctx.store(id2, 2.0_f64);
        assert_eq!(ctx.lookup::<f64>(id1), Some(1.0));
        assert_eq!(ctx.lookup::<f64>(id2), Some(2.0));
    }

    #[test]
    fn fork_is_independent() {
        let mut ctx = SampleContext::from_seed(7);
        let id = NodeId::fresh();
        ctx.store(id, 5_u8);
        let sub = ctx.fork();
        assert_eq!(sub.lookup::<u8>(id), None, "fork must not inherit memo");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SampleContext::from_seed(9);
        let mut b = SampleContext::from_seed(9);
        let xa: u64 = a.rng().next_u64();
        let xb: u64 = b.rng().next_u64();
        assert_eq!(xa, xb);
    }

    #[test]
    fn refork_matches_fork() {
        let mut a = SampleContext::from_seed(5);
        let mut b = SampleContext::from_seed(5);
        let mut sub = SampleContext::from_seed(0);
        sub.store(NodeId::fresh(), 1_u8);
        for _ in 0..3 {
            a.refork(&mut sub);
            let mut fresh = b.fork();
            assert!(sub.memo.is_empty(), "a refork starts with an empty memo");
            assert_eq!(sub.rng().next_u64(), fresh.rng().next_u64());
        }
    }

    #[test]
    fn reseed_matches_fresh_context() {
        let mut reused = SampleContext::from_seed(0);
        let _ = reused.rng().next_u64();
        reused.reseed(1234);
        reused.begin_joint_sample();
        let mut fresh = SampleContext::from_seed(1234);
        assert_eq!(reused.rng().next_u64(), fresh.rng().next_u64());
    }
}
