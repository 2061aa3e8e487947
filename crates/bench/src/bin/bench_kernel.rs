//! Measures the columnar batch kernel against the tree-walk reference
//! interpreter on the SPRT hot path — batched `Session::samples` queries
//! against single `Session::sample` draws of the same network — and
//! appends one machine-readable JSON line per (workload, batch size) to
//! `BENCH_kernel.json` (in the working directory).
//!
//! Three workloads spanning the shapes the kernel targets:
//!
//! - `fig9_gps`: the literal Fig. 9 conditional (`Speed < 4 mph` from two
//!   ε = 4 m fixes), transcendental-heavy with shared subexpressions.
//! - `evidence_chain`: the 159-node chain the `bench_serve` family uses —
//!   long dependency chains, cheap per-node math.
//! - `wide_dag`: a 129-node network: a balanced reduction over 64 Gaussian leaves —
//!   maximum instruction-level breadth per tape step.
//!
//! A fourth section, `leaf_bound`, isolates the per-distribution cost of
//! the leaf instruction itself: a single-leaf network per distribution,
//! run once as a tagged `from_distribution` leaf (the kernel fills whole
//! columns through the vectorized `fill_column` pass) and once as a `from_fn`
//! closure over the same distribution (the kernel's per-element scalar
//! fallback). The scalar-vs-vectorized ns/sample delta is the leaf
//! batching win with no arithmetic in the way.
//!
//! Both paths draw identical sample streams (asserted bitwise before
//! timing: a `Session::sequential` kernel batch against the same number of
//! tree-walk draws on a second `Session::sequential`), so the speedup
//! column is pure evaluation-strategy delta: register-tape columns and
//! per-instruction loops versus one memoized tree walk per sample. The
//! tree-walk has no batch size, so its `treewalk_ns_per_sample` is timed
//! once per workload and repeated on each of that workload's rows.
//!
//! Run `cargo run --release --bin bench_kernel`; `--quick` (or `QUICK=1`)
//! shrinks the sample budget for smoke runs.

use std::fs::OpenOptions;
use std::io::Write;
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use uncertain_bench::{header, scaled};
use uncertain_core::dist::{Bernoulli, Exponential, Gaussian, Rayleigh, Uniform};
use uncertain_core::prelude::Distribution;
use uncertain_core::{Session, Uncertain, Value};
use uncertain_gps::{uncertain_speed, GeoCoordinate, GpsReading, MPS_TO_MPH};

const SEED: u64 = 2014;

/// The literal Fig. 9 evidence network: walking at a true 3 mph with
/// ε = 4 m GPS fixes, asking the paper's `Speed < 4` question.
fn fig9_gps() -> Uncertain<bool> {
    let start = GeoCoordinate::new(47.6, -122.3);
    let end = start.destination(3.0 / MPS_TO_MPH, 90.0);
    let a = GpsReading::new(start, 4.0).expect("valid accuracy");
    let b = GpsReading::new(end, 4.0).expect("valid accuracy");
    uncertain_speed(&a, &b, 1.0).lt(4.0)
}

/// The `3n + 9`-node evidence conditional of `bench_serve` (159 nodes at
/// n = 50): long chains of scalar ops over two shared Gaussian leaves.
fn evidence_chain(n: usize) -> Uncertain<bool> {
    let x = Uncertain::normal(0.0, 1.0).unwrap();
    let y = Uncertain::normal(1.0, 2.0).unwrap();
    let mut left = x.clone();
    let mut right = y.clone();
    for _ in 0..n {
        left = left + &x;
        right = right * 0.99 + &y;
    }
    let a = left.lt(&(right + 40.0 + 8.0 * n as f64));
    let b = (&x + &y).gt(-10.0);
    &a & &b
}

/// A balanced binary reduction over `width` Gaussian leaves compared
/// against a threshold: wide layers of independent adds, the best case
/// for columnar evaluation.
fn wide_dag(width: usize) -> Uncertain<bool> {
    let mut layer: Vec<Uncertain<f64>> = (0..width)
        .map(|i| Uncertain::normal(i as f64 * 0.1, 1.0).unwrap())
        .collect();
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|pair| {
                if let [a, b] = pair {
                    a + b
                } else {
                    pair[0].clone()
                }
            })
            .collect();
    }
    let sum = layer.pop().expect("non-empty reduction");
    sum.gt(0.0)
}

/// Median ns/sample over `reps` timed repetitions, each drawing
/// `batches × batch` samples through `run`.
fn median_ns(reps: usize, batches: usize, batch: usize, mut run: impl FnMut(usize)) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batches {
                run(batch);
            }
            start.elapsed().as_nanos() as f64 / (batches * batch) as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    times[times.len() / 2]
}

/// Median ns/sample of `Session::samples` batches of `batch` rows on a
/// session whose kernel for `net` is already cached.
fn kernel_ns<T: Value>(net: &Uncertain<T>, reps: usize, batches: usize, batch: usize) -> f64 {
    let mut session = Session::sequential(SEED);
    session.samples(net, batch); // lower into the cache, warm
    median_ns(reps, batches, batch, |k| {
        std::hint::black_box(session.samples(net, k));
    })
}

/// One `leaf_bound` row: times a single-leaf network through the kernel's
/// vectorized column fill (`tagged`) and its per-element scalar fallback
/// (`closure`), and appends the comparison as JSON. Both leaves sample the
/// same distribution, so the streams are asserted bitwise-equal first.
#[allow(clippy::too_many_arguments)]
fn leaf_bound_row<T: Value + PartialEq + std::fmt::Debug>(
    out: &mut impl Write,
    dist: &str,
    tagged: Uncertain<T>,
    closure: Uncertain<T>,
    reps: usize,
    budget: usize,
    stamp: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    let batch = 4096usize;
    let batches = (budget / batch).max(1);

    assert_eq!(
        Session::sequential(SEED).samples(&closure, 10_000),
        Session::sequential(SEED).samples(&tagged, 10_000),
        "vectorized and scalar leaf fills disagree for {dist}"
    );

    let scalar_ns = kernel_ns(&closure, reps, batches, batch);
    let vector_ns = kernel_ns(&tagged, reps, batches, batch);

    let speedup = scalar_ns / vector_ns;
    println!("{dist:>12} {scalar_ns:>14.2} {vector_ns:>14.2} {speedup:>8.2}x");
    writeln!(
        out,
        "{{\"bench\":\"kernel_columnar\",\"workload\":\"leaf_bound\",\
         \"dist\":\"{dist}\",\"unix_time\":{stamp},\"batch\":{batch},\
         \"samples\":{samples},\"threads\":1,\
         \"scalar_ns_per_sample\":{scalar_ns:.2},\
         \"vector_ns_per_sample\":{vector_ns:.2},\"speedup\":{speedup:.3}}}",
        samples = batches * batch,
    )?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().any(|a| a == "--quick") {
        std::env::set_var("QUICK", "1");
    }
    header("Columnar kernel vs tree-walk: batched sampling (appends BENCH_kernel.json)");
    // Per-repetition sample budget; batches = budget / batch size.
    let budget = scaled(262_144, 8_192);
    let reps = 7;
    let stamp = SystemTime::now().duration_since(UNIX_EPOCH)?.as_secs();
    let mut out = OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_kernel.json")?;

    let workloads: [(&str, Uncertain<bool>); 3] = [
        ("fig9_gps", fig9_gps()),
        ("evidence_chain", evidence_chain(50)),
        ("wide_dag", wide_dag(64)),
    ];

    let mut records = 0usize;
    for (workload, net) in &workloads {
        // Determinism witness first: the kernel batch and the tree-walk
        // draws must agree bitwise before their timings are comparable.
        let mut kernel = Session::sequential(SEED);
        let columnar = kernel.samples(net, 10_000);
        assert_eq!(kernel.cache_stats().entries, 1, "{workload} lowers");
        let mut tree = Session::sequential(SEED);
        let reference: Vec<bool> = (0..10_000).map(|_| tree.sample(net)).collect();
        assert_eq!(reference, columnar, "kernel and tree-walk disagree");

        let treewalk_ns = median_ns(reps, budget, 1, |_| {
            std::hint::black_box(tree.sample(net));
        });

        println!("\n[{workload}] ({} nodes)", net.network().node_count());
        println!(
            "{:>6} {:>14} {:>14} {:>9}",
            "batch", "tree-walk ns", "kernel ns", "speedup"
        );
        for batch in [32usize, 256, 4096] {
            let batches = (budget / batch).max(1);
            let kernel_ns = kernel_ns(net, reps, batches, batch);
            let speedup = treewalk_ns / kernel_ns;
            println!("{batch:>6} {treewalk_ns:>14.1} {kernel_ns:>14.1} {speedup:>8.2}x");
            writeln!(
                out,
                "{{\"bench\":\"kernel_columnar\",\"workload\":\"{workload}\",\
                 \"unix_time\":{stamp},\"nodes\":{nodes},\"batch\":{batch},\
                 \"samples\":{samples},\"threads\":1,\
                 \"treewalk_ns_per_sample\":{treewalk_ns:.2},\
                 \"kernel_ns_per_sample\":{kernel_ns:.2},\"speedup\":{speedup:.3}}}",
                nodes = net.network().node_count(),
                samples = batches * batch,
            )?;
            records += 1;
        }
    }
    // Leaf-bound microbench: leaf-instruction cost per distribution, scalar
    // fallback vs vectorized column fill, nothing else on the tape.
    println!("\n[leaf_bound] (single-leaf networks, batch 4096)");
    println!(
        "{:>12} {:>14} {:>14} {:>9}",
        "dist", "scalar ns", "vector ns", "speedup"
    );
    macro_rules! f64_leaf {
        ($name:literal, $dist:expr) => {{
            let tagged = Uncertain::from_distribution($dist);
            let d = Arc::new($dist);
            let closure = Uncertain::from_fn(concat!("scalar ", $name), move |rng| d.sample(rng));
            leaf_bound_row(&mut out, $name, tagged, closure, reps, budget, stamp)?;
            records += 1;
        }};
    }
    f64_leaf!("Gaussian", Gaussian::new(0.0, 1.0).unwrap());
    f64_leaf!("Exponential", Exponential::new(1.0).unwrap());
    f64_leaf!("Rayleigh", Rayleigh::new(2.0).unwrap());
    f64_leaf!("Uniform", Uniform::new(0.0, 1.0).unwrap());
    f64_leaf!("Bernoulli", Bernoulli::new(0.3).unwrap());

    println!("\nappended {records} records to BENCH_kernel.json");
    Ok(())
}
