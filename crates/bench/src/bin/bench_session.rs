//! Measures what the session's cross-call plan cache buys on the paper's
//! hot path — repeated conditional decisions on the same network (every
//! `if (Speed > 4)` in a loop is this shape) — and appends one
//! machine-readable JSON line per network size to `BENCH_session.json`
//! (in the working directory).
//!
//! "cached" is a default [`Session`]: one untimed decision lowers the
//! network's kernel, every timed decision reuses it. "uncached" is the
//! same session with the cache disabled ([`Session::with_cache_capacity`]
//! 0), paying a fresh lowering per decision — the cost every pre-session
//! call site paid.
//!
//! Run `cargo run --release --bin bench_session`; `--quick` (or `QUICK=1`) shrinks the
//! repetition budget for smoke runs.

use std::fs::OpenOptions;
use std::io::Write;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use uncertain_bench::{header, scaled};
use uncertain_core::{Session, Uncertain};

/// A GPS-flavored conditional of `3n + 9` nodes: shared-leaf arithmetic
/// chains on each side of a comparison, conjoined — the same family as
/// `bench_kernel`'s `evidence_chain` and `bench_serve`.
/// The comparison margin makes the conditional decisive, so the SPRT
/// terminates at its minimum budget: the repeated-decision hot loop where
/// per-call plan compilation, not sampling, is the dominant cost.
fn network(n: usize) -> Uncertain<bool> {
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

/// Median ns/decision over `reps` timed repetitions of `iters` decisions.
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
    header("Session plan cache: repeated decisions, cached vs uncached");
    let iters = scaled(2_000, 200);
    let reps = 7;
    let stamp = SystemTime::now().duration_since(UNIX_EPOCH)?.as_secs();
    let mut out = OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_session.json")?;

    println!(
        "{:>6} {:>14} {:>14} {:>9}",
        "nodes", "uncached ns", "cached ns", "speedup"
    );
    for n in [5usize, 50, 500] {
        let expr = network(n);

        let nodes = expr.network().node_count();
        let mut cached = Session::seeded(1);
        // One untimed decision caches the kernel, so every timed one hits.
        let mut checksum = cached.pr(&expr, 0.5) as usize;
        let cached_ns = median_ns(reps, iters, |k| {
            for _ in 0..k {
                checksum += cached.pr(&expr, 0.5) as usize;
            }
        });
        let stats = cached.cache_stats();

        let mut uncached = Session::seeded(1).with_cache_capacity(0);
        let uncached_ns = median_ns(reps, iters, |k| {
            for _ in 0..k {
                checksum += uncached.pr(&expr, 0.5) as usize;
            }
        });

        let speedup = uncached_ns / cached_ns;
        println!("{nodes:>6} {uncached_ns:>14.1} {cached_ns:>14.1} {speedup:>8.2}x");
        writeln!(
            out,
            "{{\"bench\":\"session_plan_cache\",\"unix_time\":{stamp},\"nodes\":{nodes},\
             \"decisions\":{iters},\"uncached_ns_per_decision\":{uncached_ns:.1},\
             \"cached_ns_per_decision\":{cached_ns:.1},\"speedup\":{speedup:.3},\
             \"cache_hits\":{hits},\"cache_misses\":{misses},\
             \"uncached_misses\":{unc_misses},\"checksum\":{checksum}}}",
            hits = stats.hits,
            misses = stats.misses,
            unc_misses = uncached.cache_stats().misses,
        )?;
    }
    println!("\nappended 3 records to BENCH_session.json");
    Ok(())
}
