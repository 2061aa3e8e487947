//! Measures the sharded evaluation service on repeated Fig. 9-style
//! evidence decisions across 1/2/4/8 shards, and appends machine-readable
//! JSON lines to `BENCH_serve.json` (in the working directory).
//!
//! The workload is many-tenant: more tenants than one shard's session
//! pool holds. Sharding therefore scales the service's *aggregate hot
//! cache capacity*: a 1-shard service evicts tenant sessions on every
//! round (each decision pays session rebuild + plan recompilation), while
//! a 4-shard service keeps the whole working set resident. That — not CPU
//! parallelism, which a single-core runner cannot grant — is what the
//! throughput column measures, and it is the same effect production
//! sharding buys when tenants outnumber one box's memory.
//!
//! Two workloads, because the capacity mechanism's headroom is exactly
//! the workload's cold/hot decision-cost ratio:
//!
//! - `evidence_chain`: a 159-node GPS-flavored evidence conditional (the
//!   `bench_session`/`bench_kernel` family), where plan compilation
//!   dominates a decision. This is where sharding's capacity effect
//!   shows: ≳4× decision throughput from 1 → 4 shards.
//! - `fig9_gps`: the literal Fig. 9 network (`Speed < 4 mph` on the GPS
//!   walking evidence). Transcendental-heavy sampling used to bound its
//!   capacity win near the raw cold/hot ratio (~1.2–1.4× on one core);
//!   the columnar batch kernel cut hot sampling several-fold, so cache
//!   residency is now worth ≳3× here too.
//!
//! Also reports closed-loop tail latency under saturation (4 client
//! threads), and checks the service's determinism contract: per-tenant
//! outcome fingerprints must be bitwise identical for every shard count.
//!
//! Run `cargo run --release --bin bench_serve`; `--quick` (or `QUICK=1`)
//! shrinks the budget for smoke runs.

use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::Write;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use uncertain_bench::{header, scaled};
use uncertain_core::{HypothesisOutcome, Uncertain};
use uncertain_gps::{uncertain_speed, GeoCoordinate, GpsReading, MPS_TO_MPH};
use uncertain_serve::{Pending, ServeConfig, Service};

/// More tenants than one shard's pool: the working set fits only when the
/// aggregate capacity (shards × pool) covers it.
const TENANTS: u64 = 48;
const POOL: usize = 16;
const SEED: u64 = 2014;
const THRESHOLD: f64 = 0.5;

/// The literal Fig. 9 evidence network: walking at a true 3 mph with
/// ε = 4 m GPS fixes, asking the paper's `Speed < 4` question.
fn fig9_gps() -> Uncertain<bool> {
    let start = GeoCoordinate::new(47.6, -122.3);
    let end = start.destination(3.0 / MPS_TO_MPH, 90.0);
    let a = GpsReading::new(start, 4.0).expect("valid accuracy");
    let b = GpsReading::new(end, 4.0).expect("valid accuracy");
    uncertain_speed(&a, &b, 1.0).lt(4.0)
}

/// A `3n + 9`-node GPS-flavored evidence conditional — the same
/// shared-leaf family as `bench_session` and `bench_kernel`. The comparison
/// margin keeps the conditional decisive (minimum SPRT budget), so plan
/// compilation, not sampling, dominates a cold decision: the workload
/// where a session cache's capacity is worth the most.
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

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct TopologyRun {
    throughput_dps: f64,
    decisions: usize,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    cache_hit_rate: f64,
    sessions_evicted: u64,
    sprt_samples: u64,
    /// Per-tenant fold of (samples, estimate-bits) over every decision —
    /// the bitwise-determinism witness compared across shard counts.
    fingerprints: Vec<u64>,
}

/// In-flight requests per driver in the pipelined throughput loop — deep
/// enough to keep every shard's queue non-empty, well under the service
/// queue depth so nothing is shed.
const WINDOW: usize = 64;

/// Single-driver closed loop: round-robin over all tenants for `rounds`
/// rounds. Cache behavior is the steady state of a cyclic working set.
///
/// The throughput phase pipelines `WINDOW` requests so shards process
/// back-to-back from their queues; otherwise the per-request wakeup
/// round-trip (≈10 µs on this box) would swamp the 6–14 µs decision cost
/// the topologies differ in. Latency percentiles come from a separate
/// blocking phase, where per-request timing is meaningful.
fn run_topology(shards: usize, rounds: usize, cond: &Uncertain<bool>) -> TopologyRun {
    let service = Service::start(
        ServeConfig::default()
            .with_shards(shards)
            .with_sessions_per_shard(POOL)
            .with_queue_depth(256)
            .with_seed(SEED),
    );
    let client = service.client();
    // One untimed warmup round: topology-independent (every tenant's
    // stream advances by one query on every path).
    for tenant in 0..TENANTS {
        client.evaluate(tenant, cond, THRESHOLD).expect("warmup");
    }
    let mut fingerprints = vec![0u64; TENANTS as usize];
    let fold = |fingerprints: &mut Vec<u64>, tenant: u64, samples: usize, bits: u64| {
        let fp = &mut fingerprints[tenant as usize];
        *fp = mix(*fp ^ samples as u64 ^ bits);
    };

    // Blocking phase: unloaded request latency, one request in flight.
    let lat_rounds = (rounds / 8).max(2);
    let mut latencies = Vec::with_capacity(lat_rounds * TENANTS as usize);
    for _ in 0..lat_rounds {
        for tenant in 0..TENANTS {
            let t0 = Instant::now();
            let o = client.evaluate(tenant, cond, THRESHOLD).expect("decision");
            latencies.push(t0.elapsed().as_nanos() as u64);
            fold(&mut fingerprints, tenant, o.samples, o.estimate.to_bits());
        }
    }

    // Pipelined phase: sustained decision throughput.
    let mut window: VecDeque<(u64, Pending<HypothesisOutcome>)> = VecDeque::with_capacity(WINDOW);
    let start = Instant::now();
    for _ in 0..rounds {
        for tenant in 0..TENANTS {
            if window.len() == WINDOW {
                let (t, pending) = window.pop_front().expect("non-empty window");
                let o = pending.wait().expect("decision");
                fold(&mut fingerprints, t, o.samples, o.estimate.to_bits());
            }
            let pending = client
                .submit_evaluate(tenant, cond, THRESHOLD, None)
                .expect("submit");
            window.push_back((tenant, pending));
        }
    }
    for (t, pending) in window {
        let o = pending.wait().expect("decision");
        fold(&mut fingerprints, t, o.samples, o.estimate.to_bits());
    }
    let elapsed = start.elapsed();
    let metrics = service.shutdown();
    latencies.sort_unstable();
    let decisions = rounds * TENANTS as usize;
    TopologyRun {
        throughput_dps: decisions as f64 / elapsed.as_secs_f64(),
        decisions,
        p50_us: percentile(&latencies, 0.50) as f64 / 1e3,
        p95_us: percentile(&latencies, 0.95) as f64 / 1e3,
        p99_us: percentile(&latencies, 0.99) as f64 / 1e3,
        cache_hit_rate: metrics.cache_hit_rate(),
        sessions_evicted: metrics.shards.iter().map(|s| s.sessions_evicted).sum(),
        sprt_samples: metrics.sprt_samples(),
        fingerprints,
    }
}

/// Saturating closed-loop load: 4 client threads, each hammering its own
/// tenant slice with zero think time, so every shard queue stays busy.
/// Returns sorted latencies (ns).
fn saturating_latencies(shards: usize, per_thread: usize, cond: &Uncertain<bool>) -> Vec<u64> {
    const CLIENTS: u64 = 4;
    let service = Service::start(
        ServeConfig::default()
            .with_shards(shards)
            .with_sessions_per_shard(POOL)
            .with_queue_depth(256)
            .with_seed(SEED),
    );
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = service.client();
            let cond = cond.clone();
            let slice = TENANTS / CLIENTS;
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let tenant = c * slice + (i as u64 % slice);
                    let t0 = Instant::now();
                    client.evaluate(tenant, &cond, THRESHOLD).expect("decision");
                    lat.push(t0.elapsed().as_nanos() as u64);
                }
                lat
            })
        })
        .collect();
    let mut all: Vec<u64> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    service.shutdown();
    all.sort_unstable();
    all
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().any(|a| a == "--quick") {
        std::env::set_var("QUICK", "1");
    }
    header("Serve: evidence decisions/sec vs shard count (48 tenants, pool 16/shard)");
    let rounds = scaled(400, 40);
    let sat_per_thread = scaled(400, 20);
    let stamp = SystemTime::now().duration_since(UNIX_EPOCH)?.as_secs();
    let mut out = OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_serve.json")?;
    let workloads: [(&str, Uncertain<bool>); 2] = [
        ("evidence_chain", evidence_chain(50)),
        ("fig9_gps", fig9_gps()),
    ];

    let mut records = 0usize;
    for (workload, cond) in &workloads {
        println!("\n[{workload}]");
        println!(
            "{:>6} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9}",
            "shards", "dec/s", "p50 µs", "p99 µs", "sat p99", "hit rate", "evicted"
        );
        let mut runs = Vec::new();
        for shards in [1usize, 2, 4, 8] {
            let run = run_topology(shards, rounds, cond);
            let sat = saturating_latencies(shards, sat_per_thread, cond);
            let sat_p50_us = percentile(&sat, 0.50) as f64 / 1e3;
            let sat_p95_us = percentile(&sat, 0.95) as f64 / 1e3;
            let sat_p99_us = percentile(&sat, 0.99) as f64 / 1e3;
            println!(
                "{shards:>6} {:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>9.3} {:>9}",
                run.throughput_dps,
                run.p50_us,
                run.p99_us,
                sat_p99_us,
                run.cache_hit_rate,
                run.sessions_evicted
            );
            writeln!(
                out,
                "{{\"bench\":\"serve_scaling\",\"workload\":\"{workload}\",\
                 \"unix_time\":{stamp},\"shards\":{shards},\
                 \"tenants\":{TENANTS},\"sessions_per_shard\":{POOL},\"decisions\":{decisions},\
                 \"throughput_dps\":{dps:.1},\"p50_us\":{p50:.1},\"p95_us\":{p95:.1},\
                 \"p99_us\":{p99:.1},\"sat_clients\":4,\"sat_p50_us\":{sp50:.1},\
                 \"sat_p95_us\":{sp95:.1},\"sat_p99_us\":{sp99:.1},\
                 \"cache_hit_rate\":{hit:.4},\"sessions_evicted\":{evicted},\
                 \"sprt_samples\":{samples},\"tenant_fingerprint\":{fp}}}",
                decisions = run.decisions,
                dps = run.throughput_dps,
                p50 = run.p50_us,
                p95 = run.p95_us,
                p99 = run.p99_us,
                sp50 = sat_p50_us,
                sp95 = sat_p95_us,
                sp99 = sat_p99_us,
                hit = run.cache_hit_rate,
                evicted = run.sessions_evicted,
                samples = run.sprt_samples,
                fp = run.fingerprints.iter().fold(0u64, |acc, &f| mix(acc ^ f)),
            )?;
            records += 1;
            runs.push((shards, run));
        }

        // Determinism contract: per-tenant results bitwise identical
        // whatever the shard count (the fingerprints fold samples and
        // estimate bits of every decision).
        let baseline = &runs[0].1.fingerprints;
        let deterministic = runs.iter().all(|(_, r)| &r.fingerprints == baseline);
        let t1 = runs[0].1.throughput_dps;
        let t4 = runs[2].1.throughput_dps;
        let scaling = t4 / t1;
        println!("1→4 shard scaling: {scaling:.2}x  (aggregate hot-session capacity)");
        println!("per-tenant results identical across shard counts: {deterministic}");
        writeln!(
            out,
            "{{\"bench\":\"serve_summary\",\"workload\":\"{workload}\",\
             \"unix_time\":{stamp},\"shard_counts\":[1,2,4,8],\
             \"scaling_1_to_4\":{scaling:.3},\"deterministic_across_shards\":{deterministic}}}"
        )?;
        records += 1;
        assert!(
            deterministic,
            "per-tenant results changed with the shard count"
        );
    }
    println!("\nappended {records} records to BENCH_serve.json");
    Ok(())
}
