//! Property-based tests (proptest) that compiled evaluation plans and the
//! columnar kernel agree with the tree-walk interpreter, and that parallel
//! batch sampling is deterministic regardless of worker count.

use proptest::prelude::*;
use uncertain_suite::{Evaluator, ParSampler, Session, Uncertain};

/// An arbitrary expression shape mixing shared leaves, scalar ops, and a
/// nonlinearity — the shapes a compiled plan must reproduce exactly.
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

    /// The compiled plan preserves shared dependence: x − x ≡ 0 for every
    /// joint sample of every leaf distribution.
    #[test]
    fn plan_keeps_ssa_identity(mean in -100.0_f64..100.0, sd in 0.1_f64..50.0, seed in 0u64..1000) {
        let x = Uncertain::normal(mean, sd).unwrap();
        let zero = &x - &x;
        let mut eval = Evaluator::new(&zero, seed);
        for _ in 0..20 {
            prop_assert_eq!(eval.sample(), 0.0);
        }
        let batch = ParSampler::with_threads(&zero, seed, 4).sample_batch(64);
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

    /// Encapsulation decorrelates under the plan exactly as it does under
    /// the interpreter: x.encapsulate() − x is almost never zero.
    #[test]
    fn plan_keeps_encapsulation_independent(seed in 0u64..500) {
        let x = Uncertain::normal(0.0, 10.0).unwrap();
        let diff = x.encapsulate() - &x;
        let mut eval = Evaluator::new(&diff, seed);
        let nonzero = (0..50).filter(|_| eval.sample() != 0.0).count();
        prop_assert!(nonzero >= 48, "only {nonzero}/50 nonzero");
    }

    /// A weight_by prior with constant weight stays a no-op when evaluated
    /// through a compiled plan (SIR resampling included in the plan).
    #[test]
    fn plan_constant_weight_is_noop(c in 0.1_f64..10.0, seed in 0u64..100) {
        let x = Uncertain::normal(5.0, 1.0).unwrap();
        let w = x.weight_by(move |_| c);
        let mut eval = Evaluator::new(&w, seed);
        let e = eval.expected_value(3000);
        prop_assert!((e - 5.0).abs() < 0.2, "e={e}");
    }

    /// Parallel batch sampling is bitwise identical for 1, 2, and 8 worker
    /// threads, for any batch size and seed.
    #[test]
    fn par_sampler_thread_count_invariant(
        seed in 0u64..1000,
        n in 1usize..200,
        n_ops in 0usize..8,
    ) {
        let expr = build_expr(0.0, 1.0, n_ops);
        let reference = ParSampler::with_threads(&expr, seed, 1).sample_batch(n);
        for threads in [2, 8] {
            let batch = ParSampler::with_threads(&expr, seed, threads).sample_batch(n);
            prop_assert_eq!(&reference, &batch, "threads={}", threads);
        }
    }

    /// Batch boundaries don't move the stream: drawing n then m samples
    /// equals drawing n + m at once, even with different thread counts.
    #[test]
    fn par_sampler_batch_split_invariant(
        seed in 0u64..1000,
        n in 0usize..60,
        m in 1usize..60,
    ) {
        let x = Uncertain::uniform(-1.0, 1.0).unwrap();
        let expr = &x * &x;
        let whole = ParSampler::with_threads(&expr, seed, 3).sample_batch(n + m);
        let mut split = ParSampler::with_threads(&expr, seed, 5);
        let mut joined = split.sample_batch(n);
        joined.extend(split.sample_batch(m));
        prop_assert_eq!(whole, joined);
    }
}
