//! Property tests for the columnar batch kernel: over random networks —
//! shared subexpressions, scalar ops, comparisons, boolean logic, and
//! Bernoulli priors — a session's kernel batches must reproduce the
//! tree-walk reference interpreter **bitwise**: identical sample streams
//! (compared through `f64::to_bits`, so NaN propagation must match too),
//! identical SPRT decisions, across batch splits, chunk boundaries, and
//! worker thread counts, and whatever other tapes the session's one
//! kernel scratch ran before.
//!
//! The oracle is [`Session::sample`] on a `Session::sequential(seed)`
//! stream: each call tree-walks one joint sample and consumes one seed,
//! exactly as one row of a `samples` batch on a second
//! `Session::sequential(seed)` does.

use proptest::prelude::*;
use uncertain_core::stats::{SequentialTest, TestDecision};
use uncertain_core::{EvalConfig, Session, Uncertain, Value};

/// A generatable f64 expression shape. Built fresh into an
/// [`Uncertain<f64>`] once per case; the same network object is then
/// handed to both evaluation paths, so leaves line up by construction.
#[derive(Debug, Clone)]
enum FExpr {
    Normal {
        mean: f64,
        sd: f64,
    },
    Uniform {
        lo: f64,
        width: f64,
    },
    Point(f64),
    Neg(Box<FExpr>),
    Sqrt(Box<FExpr>),
    Sin(Box<FExpr>),
    AddK(Box<FExpr>, f64),
    MulK(Box<FExpr>, f64),
    Add(Box<FExpr>, Box<FExpr>),
    Sub(Box<FExpr>, Box<FExpr>),
    Mul(Box<FExpr>, Box<FExpr>),
    /// `&u + &u * 0.5`: forces a genuinely shared subexpression, so the
    /// tape must evaluate `u`'s register once and read it twice.
    SelfDup(Box<FExpr>),
}

fn build_f(e: &FExpr) -> Uncertain<f64> {
    match e {
        FExpr::Normal { mean, sd } => Uncertain::normal(*mean, *sd).unwrap(),
        FExpr::Uniform { lo, width } => Uncertain::uniform(*lo, lo + width).unwrap(),
        FExpr::Point(v) => Uncertain::point(*v),
        FExpr::Neg(a) => -build_f(a),
        // May go NaN for negative inputs — that is the point: both paths
        // must propagate the same bits.
        FExpr::Sqrt(a) => build_f(a).sqrt(),
        FExpr::Sin(a) => build_f(a).sin(),
        FExpr::AddK(a, k) => build_f(a) + *k,
        FExpr::MulK(a, k) => build_f(a) * *k,
        FExpr::Add(a, b) => build_f(a) + build_f(b),
        FExpr::Sub(a, b) => build_f(a) - build_f(b),
        FExpr::Mul(a, b) => build_f(a) * build_f(b),
        FExpr::SelfDup(a) => {
            let u = build_f(a);
            &u + &u * 0.5
        }
    }
}

fn f_expr() -> impl Strategy<Value = FExpr> {
    let leaf = prop_oneof![
        (-5.0..5.0, 0.1..3.0).prop_map(|(mean, sd)| FExpr::Normal { mean, sd }),
        (-5.0..5.0, 0.1..5.0).prop_map(|(lo, width)| FExpr::Uniform { lo, width }),
        (-5.0..5.0).prop_map(FExpr::Point),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| FExpr::Neg(Box::new(a))),
            inner.clone().prop_map(|a| FExpr::Sqrt(Box::new(a))),
            inner.clone().prop_map(|a| FExpr::Sin(Box::new(a))),
            (inner.clone(), -3.0..3.0).prop_map(|(a, k)| FExpr::AddK(Box::new(a), k)),
            (inner.clone(), -3.0..3.0).prop_map(|(a, k)| FExpr::MulK(Box::new(a), k)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Mul(Box::new(a), Box::new(b))),
            inner.prop_map(|a| FExpr::SelfDup(Box::new(a))),
        ]
    })
}

/// A generatable boolean network: comparisons over f64 subnetworks,
/// Bernoulli priors, and the lifted logic operators.
#[derive(Debug, Clone)]
enum BExpr {
    Gt(FExpr, f64),
    Lt(FExpr, f64),
    Ge2(FExpr, FExpr),
    Coin(f64),
    And(Box<BExpr>, Box<BExpr>),
    Or(Box<BExpr>, Box<BExpr>),
    Xor(Box<BExpr>, Box<BExpr>),
    Not(Box<BExpr>),
}

fn build_b(e: &BExpr) -> Uncertain<bool> {
    match e {
        BExpr::Gt(a, t) => build_f(a).gt(*t),
        BExpr::Lt(a, t) => build_f(a).lt(*t),
        BExpr::Ge2(a, b) => build_f(a).ge(build_f(b)),
        BExpr::Coin(p) => Uncertain::bernoulli(*p).unwrap(),
        BExpr::And(a, b) => build_b(a) & build_b(b),
        BExpr::Or(a, b) => build_b(a) | build_b(b),
        BExpr::Xor(a, b) => build_b(a) ^ build_b(b),
        BExpr::Not(a) => !build_b(a),
    }
}

fn b_expr() -> impl Strategy<Value = BExpr> {
    let leaf = prop_oneof![
        (f_expr(), -4.0..4.0).prop_map(|(a, t)| BExpr::Gt(a, t)),
        (f_expr(), -4.0..4.0).prop_map(|(a, t)| BExpr::Lt(a, t)),
        (f_expr(), f_expr()).prop_map(|(a, b)| BExpr::Ge2(a, b)),
        (0.05..0.95).prop_map(BExpr::Coin),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| BExpr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| BExpr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| BExpr::Xor(Box::new(a), Box::new(b))),
            inner.prop_map(|a| BExpr::Not(Box::new(a))),
        ]
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The oracle: `n` tree-walk draws of `net` on a fresh
/// `Session::sequential(seed)`.
fn tree_walk<T: Value>(net: &Uncertain<T>, seed: u64, n: usize) -> Vec<T> {
    tree_rows(&mut Session::sequential(seed), net, n)
}

/// `n` tree-walk draws of `net` on `session`, the oracle for one `n`-row
/// batch query on a second session at the same stream position.
fn tree_rows<T: Value>(session: &mut Session, net: &Uncertain<T>, n: usize) -> Vec<T> {
    (0..n).map(|_| session.sample(net)).collect()
}

/// Rows per kernel chunk of `net`'s tape: 256 KiB of 8-byte registers,
/// within 128–4096 rows, read off the tape's profile.
fn chunk_rows<T: Value>(net: &Uncertain<T>) -> usize {
    let registers = Session::seeded(0)
        .kernel_profile(net, 0)
        .expect("the root lowers")
        .instrs
        .len();
    (256 * 1024 / (8 * registers)).clamp(128, 4096)
}

/// A tape of about 300 registers, past the 256 at which 256 KiB holds
/// 128 rows, so it runs at the 128-row floor: a running sum over 100
/// fresh leaves with a lift per step.
fn floor_tape() -> Uncertain<f64> {
    let mut acc = Uncertain::normal(0.0, 1.0).unwrap();
    for i in 0..100 {
        let leaf = Uncertain::uniform(-1.0, i as f64).unwrap();
        acc = (acc * 0.5 + leaf).sin();
    }
    acc
}

/// `n` rows of `net` drawn on a fresh `Session::sequential(seed)` as two
/// batch queries split at `cut`.
fn split_batches<T: Value>(net: &Uncertain<T>, seed: u64, n: usize, cut: usize) -> Vec<T> {
    let mut session = Session::sequential(seed);
    let mut got = session.samples(net, cut);
    got.extend(session.samples(net, n - cut));
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The kernel's f64 sample stream is bitwise identical to the
    /// tree-walk's, and splitting the kernel's draws across two batch
    /// queries cannot move the stream.
    #[test]
    fn kernel_f64_stream_is_bitwise_identical_to_tree_walk(
        expr in f_expr(),
        n1 in 1usize..200,
        n2 in 1usize..200,
        seed in 0u64..10_000,
    ) {
        let net = build_f(&expr);
        let reference = tree_walk(&net, seed, n1 + n2);

        let mut session = Session::sequential(seed);
        let mut got = session.samples(&net, n1);
        got.extend(session.samples(&net, n2));
        prop_assert_eq!(session.cache_stats().entries, 1, "the root lowered");

        prop_assert_eq!(bits(&reference), bits(&got));
    }

    /// Same statement for boolean networks: comparisons, priors, and the
    /// lifted logic operators agree draw for draw.
    #[test]
    fn kernel_bool_stream_is_identical_to_tree_walk(
        expr in b_expr(),
        n in 1usize..400,
        seed in 0u64..10_000,
    ) {
        let net = build_b(&expr);
        let reference = tree_walk(&net, seed, n);
        let mut session = Session::sequential(seed);
        let got = session.samples(&net, n);
        prop_assert_eq!(session.cache_stats().entries, 1, "the root lowered");
        prop_assert_eq!(reference, got);
    }

    /// The kernel-backed SPRT reaches the exact decision the tree-walk
    /// reaches: same sample count, same (bitwise) estimate, same verdict.
    #[test]
    fn kernel_sprt_decisions_match_tree_walk_decisions(
        expr in b_expr(),
        threshold in 0.1f64..0.9,
        seed in 0u64..10_000,
    ) {
        let net = build_b(&expr);
        let cfg = EvalConfig::default();

        let mut session = Session::sequential(seed);
        let outcome = session.try_evaluate(&net, threshold, &cfg).unwrap();
        prop_assert_eq!(session.cache_stats().entries, 1, "the root lowered");

        let mut tree = Session::sequential(seed);
        let test = SequentialTest::with_params(
            threshold, cfg.delta, cfg.alpha, cfg.beta, cfg.batch, cfg.max_samples,
        ).unwrap();
        let reference = test.run_batched(|k| (0..k).map(|_| tree.sample(&net)).collect());

        prop_assert_eq!(outcome.samples, reference.samples);
        prop_assert_eq!(outcome.estimate.to_bits(), reference.estimate.to_bits());
        prop_assert_eq!(
            outcome.accepted,
            reference.decision == TestDecision::AcceptAlternative
        );
        prop_assert_eq!(outcome.conclusive, reference.conclusive);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A session runs all its kernel queries in one scratch register file,
    /// refitted to each tape. Interleaving `f64`, `bool` and pair roots of
    /// different tape lengths — one-row queries, a batch of three chunks
    /// between two short queries, and an SPRT decision — on one
    /// `Session::sequential(seed)` draws exactly the tree-walk stream of
    /// the same queries on a second one.
    #[test]
    fn one_session_interleaves_many_kernels_bitwise(
        fexpr in f_expr(),
        bexpr in b_expr(),
        threshold in 0.1f64..0.9,
        seed in 0u64..10_000,
    ) {
        let f = build_f(&fexpr);
        let b = build_b(&bexpr);
        // A root of neither `f64` nor `bool`: the pair `probability_given`
        // draws, over a tape longer than either side's.
        let pair = f.gt(0.0).zip(&b);
        let big = 3 * chunk_rows(&f) + 7;
        let cfg = EvalConfig::default();
        let mut kernel = Session::sequential(seed);
        let mut tree = Session::sequential(seed);

        prop_assert_eq!(kernel.samples(&b, 1), tree_rows(&mut tree, &b, 1));
        prop_assert_eq!(
            bits(&kernel.samples(&f, big)),
            bits(&tree_rows(&mut tree, &f, big))
        );
        let outcome = kernel.try_evaluate(&b, threshold, &cfg).unwrap();
        let test = SequentialTest::with_params(
            threshold, cfg.delta, cfg.alpha, cfg.beta, cfg.batch, cfg.max_samples,
        ).unwrap();
        let reference = test.run_batched(|k| tree_rows(&mut tree, &b, k));
        prop_assert_eq!(outcome.samples, reference.samples);
        prop_assert_eq!(outcome.estimate.to_bits(), reference.estimate.to_bits());
        prop_assert_eq!(kernel.samples(&pair, 1), tree_rows(&mut tree, &pair, 1));
        prop_assert_eq!(
            bits(&kernel.samples(&f, 1)),
            bits(&tree_rows(&mut tree, &f, 1))
        );
        prop_assert_eq!(kernel.samples(&pair, 300), tree_rows(&mut tree, &pair, 300));
        prop_assert_eq!(
            bits(&kernel.samples(&f, 5)),
            bits(&tree_rows(&mut tree, &f, 5))
        );
        prop_assert_eq!(kernel.cache_stats().entries, 3, "every root lowered");
    }
}

proptest! {
    // These cases draw thousands of samples each; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batch draws that straddle the kernel's chunk boundaries — three
    /// chunks and more of the tape, sliced into uneven batch queries —
    /// still reproduce the tree-walk stream exactly.
    #[test]
    fn chunk_boundary_slicing_cannot_move_the_stream(
        expr in f_expr(),
        cut in 1usize..4096,
        seed in 0u64..1000,
    ) {
        let net = build_f(&expr);
        let n = 3 * chunk_rows(&net) + 513;
        let cut = cut % n;
        let reference = tree_walk(&net, seed, n);

        let mut session = Session::sequential(seed);
        let mut got = session.samples(&net, cut);
        got.extend(session.samples(&net, n - cut));
        prop_assert_eq!(session.cache_stats().entries, 1, "the root lowered");

        prop_assert_eq!(bits(&reference), bits(&got));
    }

    /// The same at the 128-row floor of a long tape.
    #[test]
    fn chunk_boundaries_at_the_row_floor_cannot_move_the_stream(
        cut in 1usize..4096,
        seed in 0u64..1000,
    ) {
        let net = floor_tape();
        prop_assert_eq!(chunk_rows(&net), 128, "the tape runs at the floor");
        let n = 3 * chunk_rows(&net) + 41;
        let cut = cut % n;
        let reference = tree_walk(&net, seed, n);
        let got = split_batches(&net, seed, n, cut);
        prop_assert_eq!(bits(&reference), bits(&got));
    }

    /// Session batch draws through the kernel are thread-count invariant:
    /// one worker (serial columnar loop) and eight workers (sharded
    /// kernel) produce the same bits, for f64 and bool roots alike.
    #[test]
    fn kernel_sharding_is_thread_count_invariant(
        fexpr in f_expr(),
        bexpr in b_expr(),
        seed in 0u64..1000,
    ) {
        // Past the parallel cutover (≥1024), so 8 workers really shard.
        let n = 1500;
        let fnet = build_f(&fexpr);
        let serial = Session::seeded(seed).with_threads(1).samples(&fnet, n);
        let sharded = Session::seeded(seed).with_threads(8).samples(&fnet, n);
        prop_assert_eq!(bits(&serial), bits(&sharded));

        let bnet = build_b(&bexpr);
        let serial = Session::seeded(seed).with_threads(1).samples(&bnet, n);
        let sharded = Session::seeded(seed).with_threads(8).samples(&bnet, n);
        prop_assert_eq!(serial, sharded);
    }
}

// ---------------------------------------------------------------------------
// Scalar vs. vectorized leaf fills
// ---------------------------------------------------------------------------
//
// `Uncertain::from_distribution` tags its leaf with the distribution's
// batched `fill_column` pass, so the kernel fills whole columns at once;
// `Uncertain::from_fn` over the *same* distribution object is an opaque
// closure the kernel must fall back to per-element scalar sampling for.
// The `fill_column` contract says both are bitwise interchangeable — these
// properties enforce it through the public API, across chunk boundaries,
// odd batch sizes, and worker thread counts.

use std::sync::Arc;
use uncertain_core::dist::{Bernoulli, Exponential, Gaussian, Rayleigh, Truncated, Uniform};
use uncertain_core::prelude::Distribution;

/// A distribution with a hand-vectorized `fill_column` path, buildable as
/// either a tagged (vectorized) or closure (scalar-fallback) leaf.
#[derive(Debug, Clone, Copy)]
enum VecDist {
    Gaussian { mean: f64, sd: f64 },
    Exponential { rate: f64 },
    Rayleigh { scale: f64 },
    Uniform { lo: f64, width: f64 },
}

impl VecDist {
    /// The tagged leaf: kernel batches run the vectorized column fill.
    fn vectorized(self) -> Uncertain<f64> {
        match self {
            VecDist::Gaussian { mean, sd } => {
                Uncertain::from_distribution(Gaussian::new(mean, sd).unwrap())
            }
            VecDist::Exponential { rate } => {
                Uncertain::from_distribution(Exponential::new(rate).unwrap())
            }
            VecDist::Rayleigh { scale } => {
                Uncertain::from_distribution(Rayleigh::new(scale).unwrap())
            }
            VecDist::Uniform { lo, width } => {
                Uncertain::from_distribution(Uniform::new(lo, lo + width).unwrap())
            }
        }
    }

    /// The closure leaf over the same distribution: the kernel sees an
    /// opaque sampling function and falls back to one scalar draw per row.
    fn scalar(self) -> Uncertain<f64> {
        match self {
            VecDist::Gaussian { mean, sd } => {
                let d = Arc::new(Gaussian::new(mean, sd).unwrap());
                Uncertain::from_fn("scalar gaussian", move |rng| d.sample(rng))
            }
            VecDist::Exponential { rate } => {
                let d = Arc::new(Exponential::new(rate).unwrap());
                Uncertain::from_fn("scalar exponential", move |rng| d.sample(rng))
            }
            VecDist::Rayleigh { scale } => {
                let d = Arc::new(Rayleigh::new(scale).unwrap());
                Uncertain::from_fn("scalar rayleigh", move |rng| d.sample(rng))
            }
            VecDist::Uniform { lo, width } => {
                let d = Arc::new(Uniform::new(lo, lo + width).unwrap());
                Uncertain::from_fn("scalar uniform", move |rng| d.sample(rng))
            }
        }
    }
}

fn vec_dist() -> impl Strategy<Value = VecDist> {
    prop_oneof![
        (-5.0..5.0, 0.1..3.0).prop_map(|(mean, sd)| VecDist::Gaussian { mean, sd }),
        (0.05..4.0).prop_map(|rate| VecDist::Exponential { rate }),
        (0.1..5.0).prop_map(|scale| VecDist::Rayleigh { scale }),
        (-5.0..5.0, 0.1..5.0).prop_map(|(lo, width)| VecDist::Uniform { lo, width }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The vectorized column fill produces the exact bits the scalar
    /// per-row fallback produces, at odd batch sizes and across uneven
    /// batch splits.
    #[test]
    fn vectorized_leaf_fill_is_bitwise_identical_to_scalar(
        dist in vec_dist(),
        n1 in 1usize..300,
        n2 in 1usize..300,
        seed in 0u64..10_000,
    ) {
        let reference = split_batches(&dist.scalar(), seed, n1 + n2, n1);
        let got = split_batches(&dist.vectorized(), seed, n1 + n2, n1);
        prop_assert_eq!(bits(&reference), bits(&got));
    }

    /// Same statement for the Bernoulli bool column.
    #[test]
    fn vectorized_bernoulli_fill_matches_scalar(
        p in 0.05f64..0.95,
        n in 1usize..500,
        seed in 0u64..10_000,
    ) {
        let d = Arc::new(Bernoulli::new(p).unwrap());
        let scalar = Uncertain::from_fn("scalar coin", move |rng| d.sample(rng));
        let vectorized = Uncertain::from_distribution(Bernoulli::new(p).unwrap());
        let reference = Session::sequential(seed).samples(&scalar, n);
        let got = Session::sequential(seed).samples(&vectorized, n);
        prop_assert_eq!(reference, got);
    }

    /// An SPRT decision over a vectorized leaf is identical — verdict,
    /// sample count, and bitwise estimate — to the scalar-leaf decision.
    #[test]
    fn vectorized_leaf_sprt_decisions_match_scalar(
        dist in vec_dist(),
        threshold in 0.1f64..0.9,
        cut in -1.0f64..2.0,
        seed in 0u64..10_000,
    ) {
        let cfg = EvalConfig::default();
        let scalar = Session::sequential(seed)
            .try_evaluate(&dist.scalar().gt(cut), threshold, &cfg).unwrap();
        let vectorized = Session::sequential(seed)
            .try_evaluate(&dist.vectorized().gt(cut), threshold, &cfg).unwrap();
        prop_assert_eq!(scalar.samples, vectorized.samples);
        prop_assert_eq!(scalar.estimate.to_bits(), vectorized.estimate.to_bits());
        prop_assert_eq!(scalar.accepted, vectorized.accepted);
        prop_assert_eq!(scalar.conclusive, vectorized.conclusive);
    }
}

proptest! {
    // Chunk-straddling cases draw ~4.6k samples each; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Vectorized fills that straddle the kernel's chunk boundaries —
    /// three chunks and more, with the draw split at an arbitrary point —
    /// cannot diverge from the scalar stream.
    #[test]
    fn vectorized_fill_survives_chunk_boundaries(
        dist in vec_dist(),
        cut in 1usize..4096,
        seed in 0u64..1000,
    ) {
        let n = 3 * chunk_rows(&dist.vectorized()) + 513;
        let cut = cut % n;
        let reference = Session::sequential(seed).samples(&dist.scalar(), n);
        let got = split_batches(&dist.vectorized(), seed, n, cut);
        prop_assert_eq!(bits(&reference), bits(&got));
    }

    /// Thread-count invariance holds for vectorized leaves: one worker
    /// and eight workers shard to the same bits, and both equal the
    /// scalar closure leaf's stream.
    #[test]
    fn vectorized_fill_is_thread_count_invariant(
        dist in vec_dist(),
        seed in 0u64..1000,
    ) {
        let n = 1500; // past the parallel cutover, so 8 workers shard
        let net = dist.vectorized();
        let serial = Session::seeded(seed).with_threads(1).samples(&net, n);
        let sharded = Session::seeded(seed).with_threads(8).samples(&net, n);
        prop_assert_eq!(bits(&serial), bits(&sharded));
        let scalar = Session::seeded(seed).with_threads(8).samples(&dist.scalar(), n);
        prop_assert_eq!(bits(&serial), bits(&scalar));
    }
}

/// A `Truncated` leaf fills its column through the per-row default loop.
/// Keeping at least half its base's mass, it samples by rejection, a
/// varying number of base draws per row; below that, by one inverse-CDF
/// draw. Either way each row draws only from its own RNG, so the kernel
/// stays the tree-walk's bitwise twin, across a chunk boundary too.
#[test]
fn truncated_leaves_match_the_tree_walk_in_both_sampling_branches() {
    // Kept mass 0.977 (the walking prior: rejection) and 0.067 (inverse CDF).
    for (mean, sd, low, high) in [(3.0, 1.5, 0.0, 8.0), (0.0, 1.0, 1.5, 4.0)] {
        let base = Arc::new(Gaussian::new(mean, sd).unwrap());
        let leaf = Uncertain::from_distribution(Truncated::new(base, low, high).unwrap());
        let net = leaf * 2.0 + 1.0;
        let n = 5_000;
        let reference = tree_walk(&net, 23, n);
        let mut session = Session::sequential(23);
        let got = session.samples(&net, n);
        assert_eq!(session.cache_stats().entries, 1, "the root lowered");
        assert_eq!(
            bits(&reference),
            bits(&got),
            "N({mean}, {sd}) on [{low}, {high}]"
        );
    }
}
