//! Quantifies what the observability hooks cost on the decision hot path
//! (the `bench_session` workload: repeated SPRT decisions on one cached
//! plan) and appends a summary line to `BENCH_obs.json`.
//!
//! Three modes of the identical workload:
//!
//! * **no_hooks** — the `obs` feature compiled out. Feature unification
//!   makes that impossible in this binary (`uncertain-serve` turns `obs`
//!   back on), so the number comes from a prior run of
//!   `cargo run --release -p uncertain-core --no-default-features --example obs_baseline`,
//!   which appends its `{"mode":"no_hooks"}` record to the same file.
//! * **disabled** — hooks compiled in, no recorder installed: the shipping
//!   configuration. Measured here; asserted to cost < 3% over `no_hooks`
//!   (`OBS_OVERHEAD_MAX` overrides the percentage for noisy CI boxes).
//! * **recording** — a [`TraceLog`] installed, every decision traced.
//!   Measured and reported, not asserted: recording is opt-in and priced
//!   by the trajectory length, not a fixed tax.
//!
//! Two more modes price the *request tracing* layer (spans + flight
//! recorder) on the same decision workload:
//!
//! * **tracing_dormant** — the per-request guard an untraced request
//!   pays: one `Option<TraceContext>` check per decision, no recorder.
//!   Asserted to cost < 1% over `disabled` (`TRACING_OVERHEAD_MAX`
//!   overrides the percentage for noisy CI boxes).
//! * **tracing_recording** — the full traced-request path per decision:
//!   a [`TraceLog`] recorder, span-tree assembly (request/decide spans,
//!   capped `sprt_batch` events), and a [`FlightRecorder`] offer.
//!   Reported, not asserted.
//!
//! Run the baseline example first, then
//! `cargo run --release --bin bench_obs`; `QUICK=1` shrinks both.

use std::fs::OpenOptions;
use std::io::Write;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use uncertain_bench::{header, scaled};
use uncertain_core::{Session, Uncertain};
use uncertain_obs::{
    monotonic_ns, AttrValue, FlightConfig, FlightRecorder, RequestTrace, SpanEvent, TraceBuilder,
    TraceContext, TraceLog,
};

// The workload must stay line-for-line identical to the baseline copy in
// crates/core/examples/obs_baseline.rs (see there for why it is a copy).

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

/// ns/decision of `iters` decisions on a warmed session, `reps` medians.
fn measure(
    session: &mut Session,
    expr: &Uncertain<bool>,
    reps: usize,
    iters: usize,
) -> (f64, usize) {
    let mut checksum = 0usize;
    for _ in 0..iters / 10 + 1 {
        checksum += session.pr(expr, 0.5) as usize;
    }
    let ns = median_ns(reps, iters, |k| {
        for _ in 0..k {
            checksum += session.pr(expr, 0.5) as usize;
        }
    });
    (ns, checksum)
}

/// The last `"ns_per_decision"` value on a `"mode":"no_hooks"` line of
/// `BENCH_obs.json`, parsed without a JSON dependency (the file is
/// machine-written, one object per line).
fn last_baseline_ns(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .rev()
        .find(|l| l.contains("\"mode\":\"no_hooks\""))
        .and_then(|l| {
            let rest = &l[l.find("\"ns_per_decision\":")? + "\"ns_per_decision\":".len()..];
            let end = rest.find([',', '}'])?;
            rest[..end].trim().parse().ok()
        })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("Observability overhead: decision hot path, hooks out/dormant/recording");
    let n = 50usize;
    let iters = scaled(2_000, 200);
    let reps = 9;
    let stamp = SystemTime::now().duration_since(UNIX_EPOCH)?.as_secs();
    let max_pct: f64 = std::env::var("OBS_OVERHEAD_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);

    let Some(no_hooks_ns) = last_baseline_ns("BENCH_obs.json") else {
        eprintln!(
            "BENCH_obs.json has no no_hooks baseline; run\n  \
             cargo run --release -p uncertain-core --no-default-features --example obs_baseline\n\
             first (QUICK must match)."
        );
        std::process::exit(2);
    };

    let expr = network(n);

    // Hooks compiled in, dormant: what every default build pays.
    let nodes = expr.network().node_count();
    let mut disabled = Session::seeded(1);
    let (disabled_ns, mut checksum) = measure(&mut disabled, &expr, reps, iters);

    // Hooks live: every decision appends a full LLR trajectory.
    let log = TraceLog::new();
    let mut recording = Session::seeded(1).with_recorder(log.clone());
    let (recording_ns, c2) = measure(&mut recording, &expr, reps, iters);
    checksum += c2;
    let traces = log.len();
    assert!(traces > 0, "the recorder saw every decision");

    // Request tracing, dormant: what every untraced request pays for the
    // tracing layer existing — one Option<TraceContext> check, nothing
    // allocated, nothing timed. Identical code path to `disabled` plus
    // the guard, so the delta is asserted against `disabled`, not the
    // compiled-out baseline.
    let tracing_max_pct: f64 = std::env::var("TRACING_OVERHEAD_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let mut dormant = Session::seeded(1);
    for _ in 0..iters / 10 + 1 {
        checksum += dormant.pr(&expr, 0.5) as usize;
    }
    let ctx: Option<TraceContext> = None;
    let tracing_dormant_ns = median_ns(reps, iters, |k| {
        for _ in 0..k {
            let tracer = match std::hint::black_box(ctx) {
                Some(c) if c.sampled => Some(TraceBuilder::new(c)),
                _ => None,
            };
            checksum += dormant.pr(&expr, 0.5) as usize;
            checksum += usize::from(tracer.is_some());
        }
    });

    // Request tracing, live: per decision, a sampled root context, span
    // assembly (request + decide spans, batch events from the decision
    // trace), and a flight-recorder offer — the serve crate's traced
    // request path at decision granularity.
    let flight = FlightRecorder::new(FlightConfig::default());
    let traced_log = TraceLog::new();
    let mut traced = Session::seeded(1).with_recorder(traced_log.clone());
    for _ in 0..iters / 10 + 1 {
        checksum += traced.pr(&expr, 0.5) as usize;
    }
    traced_log.take();
    let tracing_recording_ns = median_ns(reps, iters, |k| {
        for _ in 0..k {
            let ctx = TraceContext::root();
            let mut b = TraceBuilder::new(ctx);
            let started = monotonic_ns();
            let root = b.start_at("request", ctx.parent_span, started);
            b.attr(root, "tenant", AttrValue::U64(1));
            let decide = b.start("decide", root);
            checksum += traced.pr(&expr, 0.5) as usize;
            if let Some(t) = traced_log.take().last() {
                b.attr(decide, "samples", AttrValue::U64(t.samples as u64));
                b.attr(decide, "estimate", AttrValue::F64(t.estimate));
                for p in t.batches.iter().take(128) {
                    b.event(
                        decide,
                        SpanEvent {
                            name: "sprt_batch",
                            at_ns: monotonic_ns(),
                            attrs: vec![
                                ("samples", AttrValue::U64(p.samples as u64)),
                                ("llr", AttrValue::F64(p.llr)),
                            ],
                        },
                    );
                }
            }
            b.end(decide);
            b.end(root);
            let mut rt = RequestTrace::new(ctx.trace_id, 1, "pr");
            rt.started_ns = started;
            rt.total_ns = monotonic_ns().saturating_sub(started);
            rt.spans = b.finish();
            checksum += usize::from(flight.offer(rt));
        }
    });
    let flight_stats = flight.stats();
    assert!(flight_stats.offered > 0, "the flight recorder saw offers");

    let overhead_disabled_pct = (disabled_ns / no_hooks_ns - 1.0) * 100.0;
    let overhead_recording_pct = (recording_ns / no_hooks_ns - 1.0) * 100.0;
    let tracing_dormant_pct = (tracing_dormant_ns / disabled_ns - 1.0) * 100.0;
    let tracing_recording_pct = (tracing_recording_ns / disabled_ns - 1.0) * 100.0;
    println!("{nodes} nodes, {iters} decisions/rep:");
    println!("  no_hooks          {no_hooks_ns:>10.1} ns/decision (from baseline record)");
    println!("  disabled          {disabled_ns:>10.1} ns/decision  ({overhead_disabled_pct:+.2}%)");
    println!(
        "  recording         {recording_ns:>10.1} ns/decision  ({overhead_recording_pct:+.2}%)"
    );
    println!(
        "  tracing_dormant   {tracing_dormant_ns:>10.1} ns/decision  ({tracing_dormant_pct:+.2}% vs disabled)"
    );
    println!(
        "  tracing_recording {tracing_recording_ns:>10.1} ns/decision  ({tracing_recording_pct:+.2}% vs disabled)"
    );

    let mut out = OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_obs.json")?;
    writeln!(
        out,
        "{{\"bench\":\"obs_overhead\",\"mode\":\"summary\",\"unix_time\":{stamp},\
         \"nodes\":{nodes},\"decisions\":{iters},\"no_hooks_ns\":{no_hooks_ns:.1},\
         \"disabled_ns\":{disabled_ns:.1},\"recording_ns\":{recording_ns:.1},\
         \"overhead_disabled_pct\":{overhead_disabled_pct:.2},\
         \"overhead_recording_pct\":{overhead_recording_pct:.2},\
         \"traces\":{traces},\"checksum\":{checksum}}}"
    )?;
    writeln!(
        out,
        "{{\"bench\":\"obs_overhead\",\"mode\":\"tracing_dormant\",\"unix_time\":{stamp},\
         \"nodes\":{nodes},\"decisions\":{iters},\
         \"ns_per_decision\":{tracing_dormant_ns:.1},\
         \"overhead_vs_disabled_pct\":{tracing_dormant_pct:.2}}}"
    )?;
    writeln!(
        out,
        "{{\"bench\":\"obs_overhead\",\"mode\":\"tracing_recording\",\"unix_time\":{stamp},\
         \"nodes\":{nodes},\"decisions\":{iters},\
         \"ns_per_decision\":{tracing_recording_ns:.1},\
         \"overhead_vs_disabled_pct\":{tracing_recording_pct:.2},\
         \"traces_offered\":{},\"traces_retained\":{}}}",
        flight_stats.offered, flight_stats.retained
    )?;
    println!("appended summary + tracing records to BENCH_obs.json");

    assert!(
        overhead_disabled_pct < max_pct,
        "dormant hooks cost {overhead_disabled_pct:.2}% (limit {max_pct}%)"
    );
    assert!(
        tracing_dormant_pct < tracing_max_pct,
        "dormant tracing cost {tracing_dormant_pct:.2}% over disabled (limit {tracing_max_pct}%)"
    );
    Ok(())
}
