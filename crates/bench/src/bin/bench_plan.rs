//! Measures the compiled-plan speedup over the tree-walk interpreter and
//! appends one machine-readable JSON line per network size to
//! `BENCH_plan.json` (in the working directory), so the speedup is
//! checkable without parsing Criterion output.
//!
//! Run `cargo run --release --bin bench_plan`; `--quick` (or `QUICK=1`)
//! shrinks the sample budget for smoke runs.

use std::fs::OpenOptions;
use std::io::Write;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use uncertain_bench::{header, scaled};
use uncertain_core::{Evaluator, ParSampler, Session, Uncertain};

/// A mixed arithmetic/comparison network of `3n + 6` slotted nodes with
/// shared leaves — the same family as the `plan_vs_treewalk` Criterion
/// bench.
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

/// Median ns/sample over `reps` timed repetitions of `iters` samples.
fn median_ns(reps: usize, iters: usize, mut run: impl FnMut(usize)) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            run(iters);
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    times[times.len() / 2]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().any(|a| a == "--quick") {
        std::env::set_var("QUICK", "1");
    }
    header("Compiled plan vs tree-walk (appends BENCH_plan.json)");
    let iters = scaled(20_000, 2_000);
    let reps = 7;
    let stamp = SystemTime::now().duration_since(UNIX_EPOCH)?.as_secs();
    let mut out = OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_plan.json")?;

    println!(
        "{:>6} {:>14} {:>14} {:>9}",
        "nodes", "treewalk ns", "plan ns", "speedup"
    );
    for n in [3usize, 48, 498] {
        let expr = network(n);
        let mut eval = Evaluator::new(&expr, 1);
        let nodes = eval.plan().slot_count();
        let mut session = Session::seeded(1);
        let mut checksum = 0usize;
        let tree_ns = median_ns(reps, iters, |k| {
            for _ in 0..k {
                checksum += session.sample(&expr) as usize;
            }
        });
        let plan_ns = median_ns(reps, iters, |k| {
            for _ in 0..k {
                checksum += eval.sample() as usize;
            }
        });
        let speedup = tree_ns / plan_ns;
        println!("{nodes:>6} {tree_ns:>14.1} {plan_ns:>14.1} {speedup:>8.2}x");

        // One parallel data point at this size: batch throughput at the
        // machine's parallelism.
        let mut par = ParSampler::new(&expr, 1);
        let par_ns = median_ns(reps, iters, |k| {
            checksum += par.sample_batch(k).into_iter().filter(|&b| b).count();
        });
        writeln!(
            out,
            "{{\"bench\":\"plan_vs_treewalk\",\"unix_time\":{stamp},\"nodes\":{nodes},\
             \"samples\":{iters},\"treewalk_ns_per_sample\":{tree_ns:.1},\
             \"plan_ns_per_sample\":{plan_ns:.1},\"speedup\":{speedup:.3},\
             \"par_threads\":{threads},\"par_ns_per_sample\":{par_ns:.1},\
             \"checksum\":{checksum}}}",
            threads = par.threads(),
        )?;
    }
    println!("\nappended 3 records to BENCH_plan.json");
    Ok(())
}
