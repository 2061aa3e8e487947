//! Load-generates the TCP transport: N concurrent connections, each a
//! closed-loop client hammering its own tenant, against one listening
//! service. Appends machine-readable JSON lines to `BENCH_net.json` (in
//! the working directory).
//!
//! The connection-count sweep (8 → 1024) measures what connection
//! concurrency costs the event-driven server: the readiness-polled
//! listener drives every connection from a fixed pool of event-loop
//! threads, so the server's thread count — and therefore its scheduler
//! footprint — is independent of the connection count, and aggregate
//! decision throughput should hold roughly flat across the sweep. The
//! load generator is symmetric: one poller-driven thread multiplexes all
//! N client sockets (one tenant each, one request outstanding each), so
//! the sweep's high rows measure the server, not 2 000 generator
//! threads fighting it for the core. The sweep's throughput-retention
//! ratio (max over min connection count) is the regression line: a
//! change that adds per-connection cost to the event loops shows up
//! here first, at the high-connection rows.
//!
//! Before the sweep, a verification phase runs the same per-tenant
//! request sequence over TCP and in-process against identically
//! configured services and asserts the folded per-tenant outcome
//! fingerprints are bitwise identical: the wire is not allowed to change
//! a single decision, sample count, or estimate bit.
//!
//! Run `cargo run --release --bin bench_net`; `--quick` (or `QUICK=1`)
//! shrinks connection counts and budgets for smoke runs.

use std::fs::OpenOptions;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use uncertain_bench::{header, scaled};
use uncertain_core::{Uncertain, WireGraph};
use uncertain_serve::poll::{Interest, PollEvent, Poller};
use uncertain_serve::wire::{self, FrameDecoder, MAGIC};
use uncertain_serve::{Request, RequestKind, Response, ServeClient, ServeConfig, Service};

const SHARDS: usize = 4;
const SEED: u64 = 2014;
const THRESHOLD: f64 = 0.5;

/// A `3n + 7`-node evidence conditional from the `bench_serve` family,
/// built only from kernel-tagged ops so it is wire-expressible. The
/// margin keeps the SPRT decisive: the decision cost is dominated by
/// plan/session state, which is what connection churn stresses.
fn evidence(n: usize) -> Uncertain<bool> {
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

/// Service topology for a row with `conns` closed-loop tenants. Shards
/// and seed are fixed; the queue bound scales with the tenant population
/// so the high-connection rows measure connection concurrency rather than
/// a queue sized for a different row (it cannot change results: a queue
/// that never fills rejects nothing).
fn service_config(conns: usize) -> ServeConfig {
    ServeConfig::builder()
        .shards(SHARDS)
        .queue_depth(256.max(conns))
        .seed(SEED)
        .bind_addr("127.0.0.1:0")
        .build()
        .expect("valid bench config")
}

/// Folds one decision into a tenant's determinism fingerprint.
fn fold(fp: &mut u64, samples: usize, bits: u64) {
    *fp = mix(*fp ^ samples as u64 ^ bits);
}

struct LoadRun {
    throughput_dps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    frames_in: u64,
    wire_errors: u64,
    fingerprint: u64,
    traces_offered: u64,
    traces_retained: u64,
}

/// One sweep row: `conns` connections, each a closed-loop driver thread
/// owning one tenant and one TCP connection, `per_conn` decisions each.
/// Service and listener are fresh per row so tenant sample streams start
/// from the origin and fingerprints are comparable run to run.
///
/// `traced_fraction` of requests (selected deterministically per tenant
/// and request index) carry a sampled trace context and go through the
/// full span-assembly + flight-recorder path; the rest are untraced.
/// Outcomes are folded into the same fingerprint either way, so rows at
/// different fractions must agree bit for bit.
fn run_load(
    conns: usize,
    per_conn: usize,
    cond: &Uncertain<bool>,
    traced_fraction: f64,
) -> LoadRun {
    let service = Service::start(service_config(conns));
    let listener = service.listen().expect("listen");
    let addr = listener.local_addr();
    // Compare in u64 space: mix(tenant, i) < bar ⇔ "trace this request".
    let trace_bar = if traced_fraction >= 1.0 {
        u64::MAX
    } else {
        (traced_fraction.max(0.0) * u64::MAX as f64) as u64
    };

    let start = Instant::now();
    let drivers: Vec<_> = (0..conns)
        .map(|c| {
            let cond = cond.clone();
            std::thread::spawn(move || {
                let client = ServeClient::connect(addr).expect("connect");
                let tenant = c as u64;
                let mut fp = 0u64;
                let mut lat = Vec::with_capacity(per_conn);
                for i in 0..per_conn {
                    let traced = traced_fraction >= 1.0
                        || mix(tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64) < trace_bar;
                    let t0 = Instant::now();
                    let o = if traced {
                        let (o, id) = client
                            .evaluate_traced(tenant, &cond, THRESHOLD)
                            .expect("traced decision");
                        assert!(id.is_some(), "traced replies echo a trace id");
                        o
                    } else {
                        client.evaluate(tenant, &cond, THRESHOLD).expect("decision")
                    };
                    lat.push(t0.elapsed().as_nanos() as u64);
                    fold(&mut fp, o.samples, o.estimate.to_bits());
                }
                (fp, lat)
            })
        })
        .collect();
    let mut fingerprints = Vec::with_capacity(conns);
    let mut latencies = Vec::with_capacity(conns * per_conn);
    for driver in drivers {
        let (fp, lat) = driver.join().expect("driver thread");
        fingerprints.push(fp);
        latencies.extend(lat);
    }
    let elapsed = start.elapsed();

    listener.shutdown();
    let metrics = service.shutdown();
    latencies.sort_unstable();
    LoadRun {
        throughput_dps: (conns * per_conn) as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&latencies, 0.50) as f64 / 1e3,
        p95_us: percentile(&latencies, 0.95) as f64 / 1e3,
        p99_us: percentile(&latencies, 0.99) as f64 / 1e3,
        frames_in: metrics.net.frames_in,
        wire_errors: metrics.net.wire_errors,
        fingerprint: fingerprints.iter().fold(0u64, |acc, &f| mix(acc ^ f)),
        traces_offered: metrics.flight.offered,
        traces_retained: metrics.flight.retained,
    }
}

/// One client socket of the polled load generator: a closed-loop tenant
/// with exactly one untraced request in flight, its next request frame
/// prebuilt (only results vary between a tenant's requests, never the
/// request bytes, so encoding once is free repetition later).
struct PolledConn {
    stream: TcpStream,
    frame: Vec<u8>,
    out: Vec<u8>,
    outpos: usize,
    decoder: FrameDecoder,
    remaining: usize,
    t0: Instant,
    fp: u64,
    lat: Vec<u64>,
    interest: Interest,
    done: bool,
}

impl PolledConn {
    /// Queues the next request and restarts its latency clock.
    fn queue_request(&mut self) {
        self.t0 = Instant::now();
        self.out.extend_from_slice(&self.frame);
    }

    fn flush(&mut self) {
        while self.outpos < self.out.len() {
            match (&self.stream).write(&self.out[self.outpos..]) {
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("bench connection write failed: {e}"),
            }
        }
        self.out.clear();
        self.outpos = 0;
    }

    fn desired_interest(&self) -> Interest {
        if self.outpos < self.out.len() {
            Interest::READ_WRITE
        } else {
            Interest::READ
        }
    }
}

/// Like [`run_load`] for untraced rows, but the load generator is a
/// single poller-driven thread multiplexing all `conns` sockets —
/// scaling the generator the same way the server scales, so a
/// 1024-connection row adds 1024 sockets and zero threads on either
/// side. Same tenants, same per-tenant request sequence, same
/// fingerprint folding: rows are bitwise comparable to thread-driven
/// runs of the same shape.
fn run_load_polled(conns: usize, per_conn: usize, cond: &Uncertain<bool>) -> LoadRun {
    let service = Service::start(service_config(conns));
    let listener = service.listen().expect("listen");
    let addr = listener.local_addr();

    // Untimed setup: every connection is established — and each tenant's
    // first decision executed — before the clock starts. The connect
    // storm would otherwise cap actual concurrency at the connect rate
    // (early connections finish before late ones exist), and the first
    // decision carries the tenant's one-time session build + plan
    // compile, a session-layer cold-start cost (`session.compile_us`)
    // that scales with the tenant count, not with what this sweep
    // measures — connection concurrency at the socket edge. Warmup
    // outcomes still fold into the fingerprint, so rows stay bitwise
    // comparable to runs that time every request.
    let setup = Instant::now();
    let mut drivers: Vec<PolledConn> = (0..conns)
        .map(|c| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let payload = wire::encode_request(
                1, // one request outstanding per socket: a constant id correlates fine
                &Request {
                    tenant: c as u64,
                    kind: RequestKind::Evaluate {
                        cond: cond.clone(),
                        threshold: THRESHOLD,
                    },
                    timeout: None,
                    strategy: None,
                    trace: None,
                },
            )
            .expect("encode request");
            let mut frame = Vec::with_capacity(4 + payload.len());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);

            // Warmup request, blocking: preamble + first decision.
            stream.write_all(&MAGIC).expect("preamble");
            stream.write_all(&frame).expect("warmup request");
            let mut len = [0u8; 4];
            stream.read_exact(&mut len).expect("warmup reply length");
            let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
            stream.read_exact(&mut reply).expect("warmup reply");
            let (id, _trace, result) = wire::decode_response(&reply).expect("decode reply");
            assert_eq!(id, 1);
            let mut fp = 0u64;
            match result.expect("warmup decision") {
                Response::Outcome(o) => fold(&mut fp, o.samples, o.estimate.to_bits()),
                other => panic!("evaluate answered {other:?}"),
            }

            stream.set_nonblocking(true).expect("nonblocking");
            PolledConn {
                stream,
                frame,
                out: Vec::new(),
                outpos: 0,
                decoder: FrameDecoder::new(),
                remaining: per_conn - 1,
                t0: setup,
                fp,
                lat: Vec::with_capacity(per_conn),
                interest: Interest::READ_WRITE,
                done: false,
            }
        })
        .collect();

    let start = Instant::now();
    let mut poller = Poller::new().expect("bench poller");
    for (c, conn) in drivers.iter_mut().enumerate() {
        conn.queue_request();
        poller
            .add(conn.stream.as_raw_fd(), c as u64, Interest::READ_WRITE)
            .expect("register");
    }

    let mut live = conns;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    while live > 0 {
        poller.wait(&mut events, None).expect("bench poll");
        for ev in &events {
            let conn = &mut drivers[ev.token as usize];
            if conn.done {
                continue;
            }
            if ev.writable {
                conn.flush();
            }
            if ev.readable {
                'read: loop {
                    match (&conn.stream).read(&mut scratch) {
                        Ok(0) => panic!("server closed a bench connection mid-run"),
                        Ok(n) => {
                            conn.decoder.push(&scratch[..n]);
                            while let Some(reply) = conn.decoder.next_frame().expect("reply frame")
                            {
                                let (id, _trace, result) =
                                    wire::decode_response(&reply).expect("decode reply");
                                assert_eq!(id, 1);
                                let o = match result.expect("decision") {
                                    Response::Outcome(o) => o,
                                    other => panic!("evaluate answered {other:?}"),
                                };
                                conn.lat.push(conn.t0.elapsed().as_nanos() as u64);
                                fold(&mut conn.fp, o.samples, o.estimate.to_bits());
                                conn.remaining -= 1;
                                if conn.remaining == 0 {
                                    poller.remove(conn.stream.as_raw_fd()).expect("deregister");
                                    conn.done = true;
                                    live -= 1;
                                    break 'read;
                                }
                                conn.queue_request();
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => panic!("bench connection read failed: {e}"),
                    }
                }
            }
            if !conn.done {
                conn.flush();
                let desired = conn.desired_interest();
                if desired != conn.interest {
                    poller
                        .modify(conn.stream.as_raw_fd(), ev.token, desired)
                        .expect("reregister");
                    conn.interest = desired;
                }
            }
        }
    }
    let elapsed = start.elapsed();

    listener.shutdown();
    let metrics = service.shutdown();
    let mut latencies: Vec<u64> = Vec::with_capacity(conns * per_conn);
    let mut fingerprints: Vec<u64> = Vec::with_capacity(conns);
    for conn in &mut drivers {
        fingerprints.push(conn.fp);
        latencies.append(&mut conn.lat);
    }
    latencies.sort_unstable();
    LoadRun {
        // Throughput and latency cover the timed requests only (one
        // warmup decision per connection ran before the clock started).
        throughput_dps: (conns * (per_conn - 1)) as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&latencies, 0.50) as f64 / 1e3,
        p95_us: percentile(&latencies, 0.95) as f64 / 1e3,
        p99_us: percentile(&latencies, 0.99) as f64 / 1e3,
        frames_in: metrics.net.frames_in,
        wire_errors: metrics.net.wire_errors,
        fingerprint: fingerprints.iter().fold(0u64, |acc, &f| mix(acc ^ f)),
        traces_offered: metrics.flight.offered,
        traces_retained: metrics.flight.retained,
    }
}

/// Per-tenant outcome fingerprints for `tenants` tenants × `rounds`
/// decisions, driven either over TCP (one connection per tenant) or by
/// the in-process client. Per-tenant sample streams are independent of
/// request interleaving across tenants, so the two are comparable
/// element for element.
fn fingerprints(tenants: u64, rounds: usize, cond: &Uncertain<bool>, remote: bool) -> Vec<u64> {
    let service = Service::start(service_config(tenants as usize));
    let result = if remote {
        let listener = service.listen().expect("listen");
        let addr = listener.local_addr();
        let drivers: Vec<_> = (0..tenants)
            .map(|tenant| {
                let cond = cond.clone();
                std::thread::spawn(move || {
                    let client = ServeClient::connect(addr).expect("connect");
                    let mut fp = 0u64;
                    for _ in 0..rounds {
                        let o = client.evaluate(tenant, &cond, THRESHOLD).expect("decision");
                        fold(&mut fp, o.samples, o.estimate.to_bits());
                    }
                    fp
                })
            })
            .collect();
        let fps = drivers
            .into_iter()
            .map(|d| d.join().expect("driver thread"))
            .collect();
        listener.shutdown();
        fps
    } else {
        let client = service.client();
        (0..tenants)
            .map(|tenant| {
                let mut fp = 0u64;
                for _ in 0..rounds {
                    let o = client.evaluate(tenant, cond, THRESHOLD).expect("decision");
                    fold(&mut fp, o.samples, o.estimate.to_bits());
                }
                fp
            })
            .collect()
    };
    service.shutdown();
    result
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().any(|a| a == "--quick") {
        std::env::set_var("QUICK", "1");
    }
    let quick = std::env::var("QUICK").is_ok();
    header("Net: TCP decision throughput / tail latency vs connection count");

    let cond = evidence(12);
    WireGraph::from_bool(&cond).expect("workload must be wire-expressible");

    let stamp = SystemTime::now().duration_since(UNIX_EPOCH)?.as_secs();
    let mut out = OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_net.json")?;

    // Determinism first: the sweep is meaningless if the wire changes
    // results.
    let v_tenants = 12u64;
    let v_rounds = scaled(12, 4);
    let remote = fingerprints(v_tenants, v_rounds, &cond, true);
    let local = fingerprints(v_tenants, v_rounds, &cond, false);
    let identical = remote == local;
    println!("remote results bitwise-identical to in-process: {identical}");
    writeln!(
        out,
        "{{\"bench\":\"net_determinism\",\"unix_time\":{stamp},\
         \"tenants\":{v_tenants},\"rounds\":{v_rounds},\
         \"remote_matches_in_process\":{identical}}}"
    )?;
    assert!(identical, "TCP transport changed decision results");

    // Total decisions held constant across rows, so throughput compares
    // equal work at different concurrency.
    let total = scaled(8192, 512);
    let conn_counts: &[usize] = if quick { &[4, 16] } else { &[8, 64, 256, 1024] };
    println!(
        "\n{:>6} {:>9} {:>12} {:>10} {:>10} {:>10}",
        "conns", "per-conn", "dec/s", "p50 µs", "p95 µs", "p99 µs"
    );
    let mut records = 1usize;
    let mut throughputs = Vec::new();
    for &conns in conn_counts {
        let per_conn = (total / conns).max(4);
        let run = run_load_polled(conns, per_conn, &cond);
        println!(
            "{conns:>6} {per_conn:>9} {:>12.0} {:>10.1} {:>10.1} {:>10.1}",
            run.throughput_dps, run.p50_us, run.p95_us, run.p99_us
        );
        assert_eq!(run.wire_errors, 0, "load run produced wire errors");
        writeln!(
            out,
            "{{\"bench\":\"net_load\",\"unix_time\":{stamp},\
             \"connections\":{conns},\"per_connection\":{per_conn},\
             \"decisions\":{decisions},\"timed_decisions\":{timed},\
             \"shards\":{SHARDS},\
             \"throughput_dps\":{dps:.1},\"p50_us\":{p50:.1},\
             \"p95_us\":{p95:.1},\"p99_us\":{p99:.1},\
             \"net_frames_in\":{frames},\"fingerprint\":{fp}}}",
            decisions = conns * per_conn,
            timed = conns * (per_conn - 1),
            dps = run.throughput_dps,
            p50 = run.p50_us,
            p95 = run.p95_us,
            p99 = run.p99_us,
            frames = run.frames_in,
            fp = run.fingerprint,
        )?;
        records += 1;
        throughputs.push((conns, run.throughput_dps));
    }

    // Traced-fraction sweep: what carrying spans across the wire costs,
    // from dormant (0%) through tail-sampling-ish (1%) to everything
    // (100%). Fixed concurrency; identical work; fingerprints must agree
    // across fractions because tracing never changes what is computed.
    let t_conns = if quick { 4 } else { 16 };
    let t_per_conn = (total / t_conns).max(4);
    println!(
        "\n{:>8} {:>9} {:>12} {:>10} {:>10} {:>9}",
        "traced", "per-conn", "dec/s", "p50 µs", "p99 µs", "retained"
    );
    let mut traced_fingerprints = Vec::new();
    for &fraction in &[0.0f64, 0.01, 1.0] {
        let run = run_load(t_conns, t_per_conn, &cond, fraction);
        println!(
            "{:>7.0}% {t_per_conn:>9} {:>12.0} {:>10.1} {:>10.1} {:>9}",
            fraction * 100.0,
            run.throughput_dps,
            run.p50_us,
            run.p99_us,
            run.traces_retained
        );
        assert_eq!(run.wire_errors, 0, "traced run produced wire errors");
        writeln!(
            out,
            "{{\"bench\":\"net_traced\",\"unix_time\":{stamp},\
             \"traced_fraction\":{fraction},\"connections\":{t_conns},\
             \"per_connection\":{t_per_conn},\
             \"throughput_dps\":{dps:.1},\"p50_us\":{p50:.1},\
             \"p99_us\":{p99:.1},\"traces_offered\":{offered},\
             \"traces_retained\":{retained},\"fingerprint\":{fp}}}",
            dps = run.throughput_dps,
            p50 = run.p50_us,
            p99 = run.p99_us,
            offered = run.traces_offered,
            retained = run.traces_retained,
            fp = run.fingerprint,
        )?;
        records += 1;
        traced_fingerprints.push(run.fingerprint);
        if fraction >= 1.0 {
            assert_eq!(
                run.traces_offered,
                (t_conns * t_per_conn) as u64,
                "at 100% every request must reach the flight recorder"
            );
        }
    }
    assert!(
        traced_fingerprints.windows(2).all(|w| w[0] == w[1]),
        "tracing changed decision results across the fraction sweep"
    );

    let (base_conns, base) = throughputs[0];
    let (peak_conns, peak) = throughputs[throughputs.len() - 1];
    writeln!(
        out,
        "{{\"bench\":\"net_summary\",\"unix_time\":{stamp},\
         \"throughput_ratio_max_over_min_conns\":{ratio:.3},\
         \"min_connections\":{base_conns},\"max_connections\":{peak_conns}}}",
        ratio = peak / base,
    )?;
    records += 1;
    println!(
        "\n{base_conns} → {peak_conns} connections throughput ratio: {:.2}x",
        peak / base
    );
    println!("appended {records} records to BENCH_net.json");
    Ok(())
}
