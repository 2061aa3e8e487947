//! Compiled evaluation plans vs the tree-walk interpreter — the hot path
//! of every SPRT-decided conditional. The tree-walk pays a `NodeId` hash
//! probe, a `Box` allocation, and an `Any` downcast per node per joint
//! sample; a compiled [`Plan`] replaces all three with an indexed slot
//! read/write. `bench_plan` (src/bin) measures the same contrast outside
//! Criterion and records the speedup in `BENCH_plan.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uncertain_core::{Evaluator, ParSampler, Session, Uncertain};

/// A GPS-flavored network of `3n + 6` nodes: shared-leaf arithmetic chains
/// on each side of a comparison, plus the conjunction gluing them together.
fn network(n: usize) -> Uncertain<bool> {
    let x = Uncertain::normal(0.0, 1.0).unwrap();
    let y = Uncertain::normal(1.0, 2.0).unwrap();
    let mut left = x.clone();
    let mut right = y.clone();
    for _ in 0..n {
        left = left + &x;
        right = right * 0.99 + &y;
    }
    let a = left.lt(&right);
    let b = (&x + &y).gt(-10.0);
    &a & &b
}

/// One joint sample, interpreter vs compiled plan, across network sizes.
fn bench_single_sample(c: &mut Criterion) {
    let mut group = c.benchmark_group("joint sample: plan vs tree-walk");
    for n in [5usize, 50, 500] {
        let expr = network(n);
        group.bench_with_input(BenchmarkId::new("tree-walk", n), &expr, |bencher, e| {
            let mut s = Session::seeded(1);
            bencher.iter(|| black_box(s.sample(e)));
        });
        group.bench_with_input(BenchmarkId::new("plan", n), &expr, |bencher, e| {
            let mut eval = Evaluator::new(e, 1);
            bencher.iter(|| black_box(eval.sample()));
        });
    }
    group.finish();
}

/// The conditional fast path end to end: one SPRT decision per iteration.
fn bench_sprt_decision(c: &mut Criterion) {
    let expr = network(50);
    let mut group = c.benchmark_group("SPRT decision, 156-node conditional");
    group.bench_function("Evaluator::decide (plan + cached test)", |bencher| {
        let mut eval = Evaluator::new(&expr, 2);
        bencher.iter(|| black_box(eval.decide(0.5)));
    });
    group.bench_function("Session::pr (cached plan)", |bencher| {
        let mut s = Session::seeded(2);
        bencher.iter(|| black_box(s.pr(&expr, 0.5)));
    });
    group.bench_function(
        "Session::pr (cache disabled, per-call compile)",
        |bencher| {
            let mut s = Session::seeded(2).with_cache_capacity(0);
            bencher.iter(|| black_box(s.pr(&expr, 0.5)));
        },
    );
    group.finish();
}

/// Deterministic batch sampling by worker count — the batch is bitwise
/// identical in every row; only the wall-clock changes.
fn bench_parallel_batches(c: &mut Criterion) {
    let expr = network(200);
    let mut group = c.benchmark_group("4096-sample batch by thread count");
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |bencher, &threads| {
                let mut par = ParSampler::with_threads(&expr, 3, threads);
                bencher.iter(|| black_box(par.sample_batch(4096)));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_sample,
    bench_sprt_decision,
    bench_parallel_batches
);
criterion_main!(benches);
