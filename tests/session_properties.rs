//! Property-based tests (proptest) over the [`Session`] runtime: the plan
//! cache must be invisible to the sample stream (hit, miss, eviction, and
//! explicit invalidation all draw the same values), the columnar kernel
//! must agree with the tree-walk interpreter, shared dependence and
//! encapsulation must survive both executors, and substream seeding must
//! be thread-count invariant.

use proptest::prelude::*;
use uncertain_suite::{Session, Uncertain};

/// An arbitrary expression shape mixing shared leaves, scalar ops, and a
/// nonlinearity — the shapes whose plans the session caches.
fn build_expr(mean: f64, sd: f64, n_ops: usize) -> Uncertain<f64> {
    let x = Uncertain::normal(mean, sd).unwrap();
    let mut expr = x.clone();
    for i in 0..n_ops {
        expr = match i % 4 {
            0 => expr + &x,
            1 => expr * 0.5,
            2 => expr - Uncertain::uniform(0.0, 1.0).unwrap(),
            _ => expr.map("tanh", f64::tanh),
        };
    }
    expr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A cache hit draws the exact stream a fresh compile draws: the same
    /// session queried twice (second query hits) matches a session that is
    /// forced to recompile between queries.
    #[test]
    fn cache_hit_stream_equals_fresh_compile_stream(
        mean in -10.0_f64..10.0,
        sd in 0.1_f64..5.0,
        n_ops in 0usize..12,
        seed in 0u64..1000,
    ) {
        let expr = build_expr(mean, sd, n_ops);

        let mut hitting = Session::seeded(seed);
        let h1 = hitting.samples(&expr, 12);
        let h2 = hitting.samples(&expr, 12);

        let mut fresh = Session::seeded(seed);
        let f1 = fresh.samples(&expr, 12);
        fresh.clear_cache();
        let f2 = fresh.samples(&expr, 12);

        prop_assert_eq!(h1, f1);
        prop_assert_eq!(h2, f2);
        let hs = hitting.cache_stats();
        prop_assert_eq!((hs.hits, hs.misses), (1, 1));
        let fs = fresh.cache_stats();
        prop_assert_eq!((fs.hits, fs.misses), (0, 2));
    }

    /// A capacity-1 LRU stays correct under worst-case thrashing: two
    /// roots queried alternately evict each other on every access, yet
    /// every draw matches an uncapped session bitwise.
    #[test]
    fn lru_capacity_one_thrashing_is_correct(
        n_ops in 0usize..8,
        seed in 0u64..1000,
    ) {
        let e1 = build_expr(0.0, 1.0, n_ops);
        let e2 = build_expr(5.0, 2.0, n_ops + 1);

        let mut tiny = Session::seeded(seed).with_cache_capacity(1);
        let mut wide = Session::seeded(seed);
        for _ in 0..3 {
            prop_assert_eq!(tiny.samples(&e1, 5), wide.samples(&e1, 5));
            prop_assert_eq!(tiny.samples(&e2, 5), wide.samples(&e2, 5));
        }

        // Thrashing is visible in the counters: every access misses…
        let ts = tiny.cache_stats();
        prop_assert_eq!((ts.hits, ts.misses), (0, 6));
        // …while the uncapped session compiled each root exactly once.
        let ws = wide.cache_stats();
        prop_assert_eq!((ws.hits, ws.misses), (4, 2));
    }

    /// Explicit invalidation forces a recompile but cannot move the
    /// stream: draws after `invalidate` continue exactly where an
    /// uninterrupted session would be.
    #[test]
    fn invalidate_recompiles_without_moving_stream(
        n_ops in 0usize..10,
        seed in 0u64..1000,
    ) {
        let expr = build_expr(1.0, 1.0, n_ops);

        // Identical query patterns on both sides: each `samples` call is
        // its own substream, so only the cache state may differ.
        let mut invalidated = Session::seeded(seed);
        let mut first = invalidated.samples(&expr, 10);
        prop_assert!(invalidated.invalidate(expr.id()));
        prop_assert!(!invalidated.invalidate(expr.id()), "entry already gone");
        first.extend(invalidated.samples(&expr, 10));

        let mut unbroken = Session::seeded(seed);
        let mut reference = unbroken.samples(&expr, 10);
        reference.extend(unbroken.samples(&expr, 10));
        prop_assert_eq!(first, reference);
        prop_assert_eq!(invalidated.cache_stats().misses, 2);
        prop_assert_eq!(unbroken.cache_stats().misses, 1);
    }

    /// Both executors preserve shared dependence: x − x ≡ 0 for every
    /// joint sample, on the tree-walk and in a sharded kernel batch.
    #[test]
    fn plan_keeps_ssa_identity(mean in -100.0_f64..100.0, sd in 0.1_f64..50.0, seed in 0u64..1000) {
        let x = Uncertain::normal(mean, sd).unwrap();
        let zero = &x - &x;
        let mut tree = Session::sequential(seed);
        for _ in 0..20 {
            prop_assert_eq!(tree.sample(&zero), 0.0);
        }
        // Past the parallel cutover (≥1024), so 4 workers really shard.
        let batch = Session::seeded(seed).with_threads(4).samples(&zero, 1500);
        prop_assert!(batch.iter().all(|&v| v == 0.0));
    }

    /// The columnar kernel and the tree-walk draw bitwise-identical sample
    /// streams for the same sequential seed, across arbitrary expression
    /// shapes.
    #[test]
    fn kernel_matches_treewalk_stream(
        mean in -10.0_f64..10.0,
        sd in 0.1_f64..5.0,
        n_ops in 0usize..12,
        seed in 0u64..1000,
    ) {
        let expr = build_expr(mean, sd, n_ops);
        // A batch runs on the cached kernel; a single draw always runs on
        // the tree-walk. Both consume one seed per joint sample.
        let mut kernel = Session::sequential(seed);
        let batch: Vec<u64> = kernel.samples(&expr, 16).iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(kernel.cache_stats().entries, 1, "every shape lowers");
        let mut tree = Session::sequential(seed);
        let walked: Vec<u64> = (0..16).map(|_| tree.sample(&expr).to_bits()).collect();
        prop_assert_eq!(batch, walked);
    }

    /// Encapsulation decorrelates: x.encapsulate() − x is almost never
    /// zero. The network does not lower, so it runs on the tree-walk.
    #[test]
    fn plan_keeps_encapsulation_independent(seed in 0u64..500) {
        let x = Uncertain::normal(0.0, 10.0).unwrap();
        let diff = x.encapsulate() - &x;
        let mut session = Session::sequential(seed);
        let nonzero = session.samples(&diff, 50).iter().filter(|&&v| v != 0.0).count();
        prop_assert!(nonzero >= 48, "only {nonzero}/50 nonzero");
        prop_assert_eq!(session.cache_stats().entries, 0, "runs on the tree-walk");
    }

    /// A weight_by prior with constant weight is a no-op (SIR resampling
    /// runs on the tree-walk: the network does not lower).
    #[test]
    fn plan_constant_weight_is_noop(c in 0.1_f64..10.0, seed in 0u64..100) {
        let x = Uncertain::normal(5.0, 1.0).unwrap();
        let w = x.weight_by(move |_| c);
        let e = Session::sequential(seed).e(&w, 3000);
        prop_assert!((e - 5.0).abs() < 0.2, "e={e}");
    }
}

proptest! {
    // Batched draws are larger here; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Substream seeding is thread-count invariant: a session's batch
    /// draws are bitwise identical whether sampled on 1 or 8 workers.
    #[test]
    fn seeded_session_is_thread_count_invariant(
        n_ops in 0usize..8,
        seed in 0u64..1000,
    ) {
        let expr = build_expr(0.0, 1.0, n_ops);
        // Past the parallel cutover (≥1024), so 8 workers really shard.
        let n = 1500;
        let serial = Session::seeded(seed).with_threads(1).samples(&expr, n);
        let sharded = Session::seeded(seed).with_threads(8).samples(&expr, n);
        prop_assert_eq!(serial, sharded);
    }
}
