//! Runtime costs of the core abstraction: network construction, joint
//! sampling, and the memoization that implements shared-dependence
//! tracking. These are the ablation benches DESIGN.md calls out for the
//! operator layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uncertain_core::{Session, Uncertain};

/// Building `a + b` allocates two nodes and never samples: construction is
/// the cheap, lazy phase of the paper's design.
fn bench_construction(c: &mut Criterion) {
    let a = Uncertain::normal(0.0, 1.0).unwrap();
    let b = Uncertain::normal(0.0, 1.0).unwrap();
    c.bench_function("construct a+b (no sampling)", |bencher| {
        bencher.iter(|| black_box(&a) + black_box(&b));
    });
}

/// One joint sample of expression chains of increasing depth — the
/// ancestral-sampling cost is linear in network size.
fn bench_chain_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("joint sample, chain of +");
    for depth in [1usize, 10, 100] {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut expr = x.clone();
        for _ in 0..depth {
            expr = expr + Uncertain::normal(0.0, 1.0).unwrap();
        }
        group.bench_with_input(BenchmarkId::from_parameter(depth), &expr, |bencher, e| {
            let mut s = Session::seeded(1);
            bencher.iter(|| black_box(s.sample(e)));
        });
    }
    group.finish();
}

/// Memoization ablation: a diamond-shaped network (the same leaf reused
/// many times) is sampled once per joint sample thanks to node identity;
/// the encapsulated variant redraws every use.
fn bench_shared_vs_independent(c: &mut Criterion) {
    let x = Uncertain::normal(0.0, 1.0).unwrap();
    let mut shared = x.clone();
    let mut independent = x.encapsulate();
    for _ in 0..32 {
        shared = shared + &x;
        independent = independent + x.encapsulate();
    }
    let mut group = c.benchmark_group("32 reuses of one leaf");
    group.bench_function("shared (memoized once)", |bencher| {
        let mut s = Session::seeded(2);
        bencher.iter(|| black_box(s.sample(&shared)));
    });
    group.bench_function("independent (encapsulated)", |bencher| {
        let mut s = Session::seeded(2);
        bencher.iter(|| black_box(s.sample(&independent)));
    });
    group.finish();
}

/// The expected-value operator at several sample budgets.
fn bench_expected_value(c: &mut Criterion) {
    let speed = Uncertain::normal(3.0, 6.0).unwrap();
    let mut group = c.benchmark_group("E[x] by sample budget");
    for n in [10usize, 100, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            let mut s = Session::seeded(3);
            bencher.iter(|| black_box(speed.expected_value_in(&mut s, n)));
        });
    }
    group.finish();
}

/// One tree-walk joint sample of a 100-node chain (a fresh memo walk per
/// draw) — the per-sample interpreter cost the kernel batches amortize.
fn bench_tree_walk_chain(c: &mut Criterion) {
    let mut expr = Uncertain::normal(0.0, 1.0).unwrap();
    for _ in 0..100 {
        expr = expr + Uncertain::normal(0.0, 1.0).unwrap();
    }
    let mut group = c.benchmark_group("100-node chain, one joint sample");
    group.bench_function("Session tree-walk (fresh context)", |bencher| {
        let mut s = Session::seeded(4);
        bencher.iter(|| black_box(s.sample(&expr)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_construction,
    bench_chain_sampling,
    bench_shared_vs_independent,
    bench_expected_value,
    bench_tree_walk_chain
);
criterion_main!(benches);
