//! The hooks-free baseline for the observability overhead benchmark.
//!
//! `bench_obs` (in `uncertain-bench`) measures the decision hot path with
//! the `obs` hooks compiled in; this example measures the identical
//! workload with the hooks compiled *out*. It lives here, not in the
//! bench crate, because feature unification would otherwise re-enable
//! `obs` through `uncertain-serve`: a true no-hooks binary can only be
//! built from `uncertain-core` alone. Run as
//!
//! ```text
//! cargo run --release -p uncertain-core --no-default-features --example obs_baseline
//! ```
//!
//! which appends one `{"mode":"no_hooks", ...}` line to `BENCH_obs.json`
//! for `bench_obs` to read back. Running it with `obs` enabled is refused
//! rather than silently recorded as a baseline.

use std::fs::OpenOptions;
use std::io::Write;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use uncertain_core::{Session, Uncertain};

// The workload must stay line-for-line identical to `bench_obs`'s copy in
// crates/bench/src/bin/bench_obs.rs: the same network family as
// bench_session (3n + 9 nodes, decisive conditional) at n = 50,
// decided repeatedly on one cached session.

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

fn scaled<T>(full: T, quick: T) -> T {
    match std::env::var("QUICK") {
        Ok(v) if !v.is_empty() && v != "0" => quick,
        _ => full,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    #[cfg(feature = "obs")]
    {
        eprintln!(
            "obs_baseline measures the no-hooks build; rebuild with\n  \
             cargo run --release -p uncertain-core --no-default-features --example obs_baseline"
        );
        std::process::exit(2);
    }
    #[allow(unreachable_code)]
    {
        println!("Observability overhead baseline (obs hooks compiled out)");
        let n = 50usize;
        let iters = scaled(2_000, 200);
        let reps = 9;
        let stamp = SystemTime::now().duration_since(UNIX_EPOCH)?.as_secs();

        let expr = network(n);
        let nodes = expr.network().node_count();
        let mut session = Session::seeded(1);
        let mut checksum = 0usize;
        // Warm the kernel cache and the branch predictors before timing.
        for _ in 0..iters / 10 + 1 {
            checksum += session.pr(&expr, 0.5) as usize;
        }
        let ns = median_ns(reps, iters, |k| {
            for _ in 0..k {
                checksum += session.pr(&expr, 0.5) as usize;
            }
        });
        println!("{nodes} nodes, {iters} decisions/rep: {ns:.1} ns/decision");

        let mut out = OpenOptions::new()
            .create(true)
            .append(true)
            .open("BENCH_obs.json")?;
        writeln!(
            out,
            "{{\"bench\":\"obs_overhead\",\"mode\":\"no_hooks\",\"unix_time\":{stamp},\
             \"nodes\":{nodes},\"decisions\":{iters},\"ns_per_decision\":{ns:.1},\
             \"checksum\":{checksum}}}"
        )?;
        println!("appended the no_hooks record to BENCH_obs.json");
        Ok(())
    }
}
