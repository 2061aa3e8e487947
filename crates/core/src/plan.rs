//! Compiled evaluation plans: the "JIT at the conditional" made literal.
//!
//! The tree-walk interpreter pays three taxes per node per joint sample: a
//! `HashMap<NodeId, _>` probe, a `Box<dyn Any>` heap allocation, and a
//! downcast. A [`Plan`] removes all three for the *statically reachable*
//! part of a network: compilation walks the pinned DAG once (an explicit
//! work stack, children before parents, so depth costs no call-stack),
//! assigns each reachable node a dense slot index (`NodeId → u32`, shared
//! nodes compile once), and fuses the per-node sampling logic into nested
//! closures that read and write a flat slot arena
//! ([`SampleContext`](crate::context::SampleContext)'s epoch-stamped
//! `Vec`). Exactly-once-per-joint-sample sharing (paper Fig. 8) is
//! preserved: a shared node's closure is compiled once and its value is
//! cached in its slot for the duration of the epoch.
//!
//! Dynamic structure falls back gracefully: a `flat_map` body still
//! tree-walks inside the same context (its id-keyed memo traffic is
//! redirected onto slots for planned nodes, so correlations cross the
//! compiled/interpreted boundary correctly), and `encapsulate` /
//! `weight_by` / `condition_on` fork fresh sub-contexts exactly as the
//! interpreter does. Because the compiled closures visit nodes in the same
//! depth-first order as `sample_value`, a plan consumes RNG draws in
//! *bitwise* the same order — for any seed, plan and interpreter produce
//! identical values (covered by this module's tests).
//!
//! On top of plans, [`ParSampler`] provides **deterministic parallel batch
//! sampling**: sample `i` of a batch is drawn from an RNG seeded by a
//! SplitMix64 mix of `(root_seed, i)`, so a batch's contents are a pure
//! function of the root seed and the index range — bitwise identical for
//! any thread count, including 1.
//!
//! Deprecated: a [`Session`](crate::Session) runs every batch and decision
//! on the columnar kernel, or on the tree-walk when a network does not
//! lower, so [`Plan`] and [`ParSampler`] have no callers left and go in
//! the next release. `sample_seed` and `sample_batch_sharded` stay.

#![allow(deprecated)]

use crate::context::SampleContext;
use crate::node::{NodeId, NodeInfo};
use crate::uncertain::{Uncertain, Value};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A compiled node: a closure producing this node's value for the current
/// joint sample, memoizing through the slot arena.
pub(crate) type CompiledFn<T> = Arc<dyn Fn(&mut SampleContext) -> T + Send + Sync>;

/// Compilation state: assigns dense slots and caches each shared node's
/// compiled closure so DAG sharing stays sharing (not duplication) in the
/// compiled form.
pub(crate) struct PlanBuilder {
    slot_of: HashMap<NodeId, u32>,
    compiled: HashMap<NodeId, Box<dyn Any>>,
    next_slot: u32,
    /// When set, every compiled closure is wrapped with a per-invocation
    /// timer feeding the context's slot-cost counters
    /// ([`Plan::compile_profiled`]).
    #[cfg(feature = "obs")]
    profiling: bool,
}

impl PlanBuilder {
    fn new() -> Self {
        Self {
            slot_of: HashMap::new(),
            compiled: HashMap::new(),
            next_slot: 0,
            #[cfg(feature = "obs")]
            profiling: false,
        }
    }

    /// The already-compiled closure for `id`, if this node was reached
    /// before (shared sub-expression).
    pub(crate) fn cached<T: Value>(&self, id: NodeId) -> Option<CompiledFn<T>> {
        self.compiled.get(&id).map(|any| {
            any.downcast_ref::<CompiledFn<T>>()
                .expect("node id compiled with inconsistent type")
                .clone()
        })
    }

    /// Assigns the next dense slot to `id` (first visit only).
    pub(crate) fn assign_slot(&mut self, id: NodeId) -> u32 {
        debug_assert!(!self.slot_of.contains_key(&id), "slot assigned twice");
        let slot = self.next_slot;
        self.next_slot += 1;
        self.slot_of.insert(id, slot);
        slot
    }

    /// Records the compiled closure for `id`.
    pub(crate) fn remember<T: Value>(&mut self, id: NodeId, f: CompiledFn<T>) {
        self.compiled.insert(id, Box::new(f));
    }

    /// Whether `id`'s closure is already cached (shared sub-expression, or
    /// a node pre-compiled by the work-stack driver).
    fn is_compiled(&self, id: NodeId) -> bool {
        self.compiled.contains_key(&id)
    }
}

/// Compiles a network with an explicit work stack: an iterative post-order
/// walk pre-compiles every statically-reachable node bottom-up, so each
/// node's `compile` finds its children already cached and the natural
/// recursion inside `compile` stays O(1) deep. Without this, a deep
/// evidence chain (the ~1.5k-node networks `bench_session` builds) would
/// recurse once per node and overflow the stack in debug builds.
fn compile_root<T: Value>(network: &Uncertain<T>, builder: &mut PlanBuilder) -> CompiledFn<T> {
    let root = network.node().clone() as Arc<dyn NodeInfo>;
    let mut stack: Vec<(Arc<dyn NodeInfo>, bool)> = vec![(Arc::clone(&root), false)];
    while let Some((node, expanded)) = stack.pop() {
        if builder.is_compiled(node.id()) {
            continue;
        }
        if expanded {
            node.precompile(builder);
        } else {
            stack.push((Arc::clone(&node), true));
            // Reversed push so children compile in `sample_value` visit
            // order (left before right), keeping slot assignment and RNG
            // draw order deterministic.
            for child in node.compile_children().into_iter().rev() {
                if !builder.is_compiled(child.id()) {
                    stack.push((child, false));
                }
            }
        }
    }
    network.node().clone().compile(builder)
}

/// Standard per-node compilation wrapper: returns the cached closure for a
/// node reached before (shared sub-expression), otherwise assigns the next
/// dense slot, builds the closure via `make`, and caches it.
pub(crate) fn compile_node<T: Value>(
    builder: &mut PlanBuilder,
    id: NodeId,
    make: impl FnOnce(&mut PlanBuilder, u32) -> CompiledFn<T>,
) -> CompiledFn<T> {
    if let Some(f) = builder.cached::<T>(id) {
        return f;
    }
    let slot = builder.assign_slot(id);
    let f = make(builder, slot);
    #[cfg(feature = "obs")]
    let f = if builder.profiling {
        let inner = f;
        Arc::new(move |ctx: &mut SampleContext| {
            // Classify before running: if the slot is already filled this
            // epoch, the closure will serve the memoized value (a re-entry
            // from a shared parent), not a fresh draw.
            let was_hit = ctx.slot_filled(slot);
            let start = std::time::Instant::now();
            let v = inner(ctx);
            ctx.profile_record(slot, start.elapsed().as_nanos() as u64, was_hit);
            v
        }) as CompiledFn<T>
    } else {
        f
    };
    builder.remember(id, f.clone());
    f
}

/// Mixes a root seed and a per-sample index into an independent sub-stream
/// seed (SplitMix64 finalizer). Sample `i`'s value depends only on
/// `(root_seed, i)`, which is what makes batch sampling shard-independent.
pub(crate) fn sample_seed(root_seed: u64, index: u64) -> u64 {
    let mut z = root_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws joint samples `start .. start + n` of the deterministic stream
/// rooted at `seed`, sharded across `threads` scoped workers. Each worker
/// reuses one context from `new_context`; sample `i` reseeds it with
/// [`sample_seed`]`(seed, i)` and draws through `evaluate`, so the output
/// is a pure function of `(seed, start, n)` — bitwise identical for any
/// thread count. Shared by [`ParSampler`] (a plan) and the session
/// runtime's tree-walk batches.
pub(crate) fn sample_batch_sharded<T: Value>(
    new_context: impl Fn() -> SampleContext + Sync,
    evaluate: impl Fn(&mut SampleContext) -> T + Sync,
    seed: u64,
    start: u64,
    n: usize,
    threads: usize,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.min(n).max(1);
    let chunk_len = n.div_ceil(workers);
    let mut out: Vec<Option<T>> = vec![None; n];
    std::thread::scope(|scope| {
        for (w, chunk) in out.chunks_mut(chunk_len).enumerate() {
            let base = start + (w * chunk_len) as u64;
            let (new_context, evaluate) = (&new_context, &evaluate);
            scope.spawn(move || {
                let mut ctx = new_context();
                for (j, cell) in chunk.iter_mut().enumerate() {
                    ctx.reseed(sample_seed(seed, base + j as u64));
                    *cell = Some(evaluate(&mut ctx));
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("every sample index is covered by exactly one worker"))
        .collect()
}

/// A compiled evaluation plan for one pinned `Uncertain<T>` network.
///
/// Compiling walks the network once and turns it into slot-indexed
/// closures; evaluating draws one joint sample without any hashing, boxing,
/// or downcasting on the static path. Plans are immutable and `Send +
/// Sync`, so one plan can drive any number of contexts — including worker
/// threads ([`ParSampler`]) — concurrently.
///
/// Plans run [`Evaluator`](crate::Evaluator)'s continuous sample stream
/// and [`ParSampler`]'s batches; a [`Session`](crate::Session) runs its
/// queries on the columnar kernel or the tree-walk instead. The type is
/// exposed so callers can amortize compilation explicitly and inspect its
/// footprint.
///
/// # Examples
///
/// ```
/// use uncertain_core::{Plan, Uncertain};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Uncertain::normal(0.0, 1.0)?;
/// let expr = &x * 2.0 + 1.0;
/// let plan = Plan::compile(&expr);
/// // x, *, + are each assigned one slot; literals fold into the closures.
/// assert_eq!(plan.slot_count(), 3);
/// # Ok(())
/// # }
/// ```
#[deprecated(
    note = "use `Session`: its batches and decisions run on the cached kernel, \
            `Session::sample` is the tree-walk reference, and \
            `network().node_count()` replaces `slot_count`"
)]
pub struct Plan<T> {
    root: CompiledFn<T>,
    slot_of: Arc<HashMap<NodeId, u32>>,
    slot_count: usize,
}

impl<T> fmt::Debug for Plan<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plan")
            .field("slot_count", &self.slot_count)
            .finish_non_exhaustive()
    }
}

impl<T: Value> Plan<T> {
    /// Compiles the network rooted at `network` into slot-indexed closures.
    ///
    /// Compilation is driven by an explicit work stack (children before
    /// parents), so arbitrarily deep networks compile without deep
    /// recursion.
    pub fn compile(network: &Uncertain<T>) -> Self {
        let mut builder = PlanBuilder::new();
        let root = compile_root(network, &mut builder);
        Plan {
            root,
            slot_of: Arc::new(builder.slot_of),
            slot_count: builder.next_slot as usize,
        }
    }

    /// Compiles with per-node cost instrumentation: every slotted node's
    /// closure is wrapped with a timer that charges inclusive nanoseconds
    /// and draw/hit counts to the evaluating context's profile counters.
    /// Sampled values and RNG draw order are bitwise identical to
    /// [`Plan::compile`]; only wall time changes. Used by
    /// [`Evaluator::profiled`](crate::Evaluator::profiled).
    #[cfg(feature = "obs")]
    pub(crate) fn compile_profiled(network: &Uncertain<T>) -> Self {
        let mut builder = PlanBuilder::new();
        builder.profiling = true;
        let root = compile_root(network, &mut builder);
        Plan {
            root,
            slot_of: Arc::new(builder.slot_of),
            slot_count: builder.next_slot as usize,
        }
    }

    /// The slot assignment: which arena slot each reachable node landed
    /// in. Profile reporting joins this against the per-slot counters.
    #[cfg(feature = "obs")]
    pub(crate) fn slots(&self) -> &HashMap<NodeId, u32> {
        &self.slot_of
    }

    /// Number of arena slots this plan uses — the count of memoizable
    /// reachable nodes (point masses need no slot).
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Creates a context sized for this plan, with the slot assignment
    /// installed. Callers must [`reseed`](SampleContext::reseed) (or accept
    /// seed 0) before evaluating.
    pub(crate) fn new_context(&self) -> SampleContext {
        let mut ctx = SampleContext::from_seed(0);
        self.install(&mut ctx);
        ctx
    }

    /// Installs this plan's slot assignment into an existing context.
    pub(crate) fn install(&self, ctx: &mut SampleContext) {
        ctx.install_plan(self.slot_of.clone(), self.slot_count);
    }

    /// Draws one joint sample: bumps the context epoch and runs the
    /// compiled root closure.
    pub(crate) fn evaluate(&self, ctx: &mut SampleContext) -> T {
        ctx.begin_joint_sample();
        (self.root)(ctx)
    }
}

/// Deterministic parallel batch sampler over a compiled [`Plan`].
///
/// A batch of `n` joint samples is sharded across `threads` scoped OS
/// threads. Each sample's RNG is seeded by a SplitMix64 mix of
/// `(root_seed, sample_index)`, so the batch's contents depend only on the
/// seed and the running sample index — **bitwise identical for any thread
/// count**. Workers reuse one context each, so the per-sample cost on every
/// shard is the same allocation-free slot-arena path a single-threaded
/// [`Evaluator`](crate::Evaluator) takes.
///
/// # Examples
///
/// ```
/// use uncertain_core::{ParSampler, Uncertain};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Uncertain::normal(0.0, 1.0)?;
/// let expr = &x + &x;
/// let a = ParSampler::with_threads(&expr, 7, 1).sample_batch(100);
/// let b = ParSampler::with_threads(&expr, 7, 4).sample_batch(100);
/// assert_eq!(a, b, "sharding must not change the samples");
/// # Ok(())
/// # }
/// ```
#[deprecated(note = "use `Session::seeded(seed).with_threads(n).samples(..)`: \
            thread-count-invariant batches on the cached kernel")]
pub struct ParSampler<T> {
    plan: Plan<T>,
    seed: u64,
    threads: usize,
    cursor: u64,
}

impl<T> fmt::Debug for ParSampler<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParSampler")
            .field("seed", &self.seed)
            .field("threads", &self.threads)
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

impl<T: Value> ParSampler<T> {
    /// Compiles `network` and shards batches across all available cores.
    pub fn new(network: &Uncertain<T>, seed: u64) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(network, seed, threads)
    }

    /// Compiles `network` with an explicit worker count (≥ 1). The worker
    /// count affects wall-clock time only, never the samples produced.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(network: &Uncertain<T>, seed: u64, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        Self {
            plan: Plan::compile(network),
            seed,
            threads,
            cursor: 0,
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Joint samples drawn so far (the next batch starts at this index).
    pub fn samples_drawn(&self) -> u64 {
        self.cursor
    }

    /// The compiled plan driving this sampler.
    pub fn plan(&self) -> &Plan<T> {
        &self.plan
    }

    /// Draws the next `n` joint samples (indices `cursor .. cursor + n` of
    /// this sampler's stream), sharded across the configured workers.
    ///
    /// Equal `(seed, index-range)` always yields equal output, regardless
    /// of `threads` — and identical to
    /// [`Evaluator::sample_batch`](crate::Evaluator::sample_batch) with the
    /// same seed.
    pub fn sample_batch(&mut self, n: usize) -> Vec<T> {
        let start = self.cursor;
        self.cursor += n as u64;
        let plan = &self.plan;
        sample_batch_sharded(
            || plan.new_context(),
            |ctx| plan.evaluate(ctx),
            self.seed,
            start,
            n,
            self.threads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// The central equivalence claim: for any seed, the compiled plan and
    /// the tree-walk interpreter produce bitwise-identical joint samples
    /// (same values, same RNG draw order).
    fn assert_plan_matches_treewalk<T: Value + PartialEq + Debug>(u: &Uncertain<T>, seeds: u64) {
        let plan = Plan::compile(u);
        let mut ctx = plan.new_context();
        for seed in 0..seeds {
            ctx.reseed(seed);
            let via_plan = plan.evaluate(&mut ctx);
            let mut tree_ctx = SampleContext::from_seed(seed);
            let via_tree = u.node().sample_value(&mut tree_ctx);
            assert_eq!(via_plan, via_tree, "diverged at seed {seed}");
        }
    }

    #[test]
    fn arithmetic_chain_matches_treewalk() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let y = Uncertain::uniform(1.0, 2.0).unwrap();
        let expr = (&x + &y) * 3.0 - &x / &y + 0.5;
        assert_plan_matches_treewalk(&expr, 64);
    }

    #[test]
    fn shared_nodes_stay_correlated() {
        let x = Uncertain::normal(0.0, 10.0).unwrap();
        let zero = x.clone() - x;
        let plan = Plan::compile(&zero);
        let mut ctx = plan.new_context();
        for seed in 0..100 {
            ctx.reseed(seed);
            assert_eq!(plan.evaluate(&mut ctx), 0.0, "x - x must be exactly 0");
        }
    }

    #[test]
    fn comparisons_and_logic_match_treewalk() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let y = Uncertain::normal(0.2, 1.0).unwrap();
        let a = x.gt(0.0);
        let b = y.lt(1.0);
        let cond = &a & &b;
        assert_plan_matches_treewalk(&cond, 64);
    }

    #[test]
    fn bind_matches_treewalk() {
        // flat_map builds its inner network per joint sample; the plan
        // tree-walks it inside the same context.
        let x = Uncertain::uniform(0.5, 2.0).unwrap();
        let dependent = x.flat_map("noise(x)", |v| Uncertain::normal(v, v).unwrap());
        assert_plan_matches_treewalk(&dependent, 64);
    }

    #[test]
    fn bind_closing_over_planned_node_stays_correlated() {
        // The bind's inner network shares a leaf with the planned outer
        // network: the id-to-slot redirection must keep both views of `x`
        // perfectly correlated across the compiled/interpreted boundary.
        let x = Uncertain::normal(0.0, 5.0).unwrap();
        let captured = x.clone();
        let echoed = x.flat_map("echo-x", move |_| captured.clone());
        let diff = echoed - x;
        assert_plan_matches_treewalk(&diff, 32);
        let plan = Plan::compile(&diff);
        let mut ctx = plan.new_context();
        for seed in 0..50 {
            ctx.reseed(seed);
            assert_eq!(
                plan.evaluate(&mut ctx),
                0.0,
                "cross-boundary sharing broken at seed {seed}"
            );
        }
    }

    #[test]
    fn encapsulated_matches_treewalk() {
        let x = Uncertain::normal(0.0, 10.0).unwrap();
        let independent = x.encapsulate() - x.encapsulate();
        assert_plan_matches_treewalk(&independent, 64);
        // And the encapsulated copies really decorrelate under the plan.
        let plan = Plan::compile(&independent);
        let mut ctx = plan.new_context();
        let nonzero = (0..100)
            .filter(|&seed| {
                ctx.reseed(seed);
                plan.evaluate(&mut ctx) != 0.0
            })
            .count();
        assert!(nonzero > 90, "nonzero={nonzero}");
    }

    #[test]
    fn weighted_and_conditioned_match_treewalk() {
        let x = Uncertain::normal(5.0, 2.0).unwrap();
        let weighted = x.weight_by_k(|v| (-0.5 * (v - 4.0) * (v - 4.0)).exp(), 4);
        assert_plan_matches_treewalk(&weighted, 64);

        let y = Uncertain::normal(0.0, 1.0).unwrap();
        let conditioned = y.condition_on(|v: &f64| *v > 0.0, 64);
        assert_plan_matches_treewalk(&conditioned, 64);
    }

    #[test]
    fn zero_weight_prior_falls_back_under_plan() {
        let x = Uncertain::normal(5.0, 1.0).unwrap();
        let weighted = x.weight_by_k(|_| 0.0, 8);
        let plan = Plan::compile(&weighted);
        let mut ctx = plan.new_context();
        ctx.reseed(4);
        let v = plan.evaluate(&mut ctx);
        assert!((0.0..10.0).contains(&v));
    }

    #[test]
    fn tuples_and_non_numeric_payloads_match_treewalk() {
        let x = Uncertain::uniform(0.0, 1.0).unwrap();
        let pair = x.gt(0.5).zip(&x.lt(0.9));
        assert_plan_matches_treewalk(&pair, 64);
    }

    #[test]
    fn slot_count_reflects_sharing() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let shared = &x + &x; // x once, + once
        assert_eq!(Plan::compile(&shared).slot_count(), 2);
        let unshared = Uncertain::normal(0.0, 1.0).unwrap() + Uncertain::normal(0.0, 1.0).unwrap();
        assert_eq!(Plan::compile(&unshared).slot_count(), 3);
    }

    #[test]
    fn sample_seed_mixing_is_index_sensitive() {
        assert_ne!(sample_seed(0, 0), sample_seed(0, 1));
        assert_ne!(sample_seed(0, 0), sample_seed(1, 0));
        assert_eq!(sample_seed(42, 7), sample_seed(42, 7));
    }

    #[test]
    fn par_sampler_is_thread_count_invariant() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let y = Uncertain::uniform(0.0, 1.0).unwrap();
        let expr = &x * &y + &x;
        let baseline = ParSampler::with_threads(&expr, 99, 1).sample_batch(257);
        for threads in [2, 3, 8] {
            let sharded = ParSampler::with_threads(&expr, 99, threads).sample_batch(257);
            assert_eq!(baseline, sharded, "threads={threads}");
        }
    }

    #[test]
    fn par_sampler_batches_continue_the_stream() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut one_shot = ParSampler::with_threads(&x, 5, 4);
        let all = one_shot.sample_batch(100);
        let mut split = ParSampler::with_threads(&x, 5, 2);
        let mut joined = split.sample_batch(37);
        joined.extend(split.sample_batch(63));
        assert_eq!(all, joined, "batch boundaries must not change samples");
        assert_eq!(split.samples_drawn(), 100);
    }

    #[test]
    fn par_sampler_empty_batch_is_fine() {
        let x = Uncertain::point(1.0);
        let mut s = ParSampler::with_threads(&x, 1, 4);
        assert!(s.sample_batch(0).is_empty());
        assert_eq!(s.sample_batch(3), vec![1.0, 1.0, 1.0]);
    }
}
