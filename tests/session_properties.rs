//! Property-based tests (proptest) over the [`Session`] runtime: the plan
//! cache must be invisible to the sample stream (hit, miss, eviction, and
//! explicit invalidation all draw the same values), and substream seeding
//! must be thread-count invariant.

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
