//! The two TCP workloads, `tcp_gps_stream` and `tcp_exact_hot`: a
//! `Service` started from `ServeConfig::default()` with only the seed and
//! bind address set, driven closed-loop over 2 connections × 8 requests
//! in flight by one generator thread.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use uncertain_core::Session;
use uncertain_serve::{Listener, ServeConfig, ServeMetrics, Service};

use crate::inputs::{ExactSource, GpsSource, Source, TENANTS_PER_SLOT};
use crate::layers::{self, Dispatched};
use crate::report::{Metrics, RunResult};
use crate::speed;
use crate::stats::{self, median, median_u64, percentile, quartiles, Window, WindowStats, Windows};
use crate::tcp::{replay_in_process, Client, Phase, Tenants, Until};
use crate::trace::{ledger, Tracer};

/// Client connections: at most `nproc` (2 on the reference host).
const CONNECTIONS: usize = 2;
/// Requests in flight: 8 per connection.
const SLOTS: usize = 16;
/// Service set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// An untraced run's replay check takes every `REPLAYED`-th tenant.
const REPLAYED: usize = 4;
/// Traced requests replayed in a `Session` per traced run, at most.
const SHADOWED: usize = 3000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fresh `uncertain_speed` networks of 16 seeded Fig. 13 walkers.
    Gps,
    /// The hot 159-node evidence chain under `Auto`, over 64 tenants.
    Exact,
}

pub fn config(seed: u64) -> ServeConfig {
    ServeConfig::builder()
        .seed(seed)
        .bind_addr("127.0.0.1:0")
        .build()
        .expect("default topology with a loopback bind address")
}

fn source(kind: Kind, seed: u64) -> Box<dyn Source> {
    match kind {
        Kind::Gps => Box::new(GpsSource::new(seed, SLOTS)),
        Kind::Exact => Box::new(ExactSource::new(seed, SLOTS)),
    }
}

/// A started service with its listener and connected client, every
/// tenant warmed by one query.
struct Live {
    service: Service,
    listener: Listener,
    client: Client,
    src: Box<dyn Source>,
    warm: Phase,
    setup_s: f64,
}

fn start(kind: Kind, seed: u64, epoch: Instant) -> Live {
    let mut src = source(kind, seed);
    let mut warm = Phase::with_capacity(1024);
    let warm_each = match kind {
        Kind::Gps => 1,
        Kind::Exact => TENANTS_PER_SLOT,
    };
    let t = Instant::now();
    let service = Service::start(config(seed));
    let listener = service.listen().expect("listen on loopback");
    let mut client = Client::connect(listener.local_addr(), CONNECTIONS, src.slots(), epoch)
        .expect("connect to the service");
    client.run(src.as_mut(), Until::Each(warm_each), &mut warm, None);
    let setup_s = t.elapsed().as_secs_f64();
    Live {
        service,
        listener,
        client,
        src,
        warm,
        setup_s,
    }
}

impl Live {
    /// Closes the client, stops the listener and drains the service.
    fn stop(self) -> (Client, ServeMetrics) {
        let Live {
            service,
            listener,
            mut client,
            ..
        } = self;
        client.close();
        listener.shutdown();
        let metrics = service.shutdown();
        (client, metrics)
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The service's own instruments (what `/metrics` exports) as result
/// fields, beside the benchmark's outside timings.
fn instruments(m: &ServeMetrics) -> String {
    let h = |s: uncertain_serve::HistogramSnapshot| {
        format!(
            "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            s.count,
            s.mean(),
            s.p50,
            s.p90,
            s.p99,
            s.max
        )
    };
    let n = m.net;
    format!(
        "{{\"requests\":{},\"decisions\":{},\"exact_decisions\":{},\"sprt_samples\":{},\
         \"rejected\":{},\"timeouts\":{},\"sessions_evicted\":{},\"cache_hit_rate\":{},\
         \"queue_wait\":{},\"compile\":{},\"sampling\":{},\
         \"net\":{{\"accepted\":{},\"frames_in\":{},\"frames_out\":{},\"wire_errors\":{},\
         \"event_loop_wakeups\":{},\"partial_reads\":{},\"writev_batches\":{}}}}}",
        m.requests(),
        m.decisions(),
        m.exact_decisions(),
        m.sprt_samples(),
        m.rejected(),
        m.timeouts(),
        m.sessions_evicted(),
        m.cache_hit_rate(),
        h(m.queue_wait()),
        h(m.compile()),
        h(m.sampling()),
        n.accepted,
        n.frames_in,
        n.frames_out,
        n.wire_errors,
        n.event_loop_wakeups,
        n.partial_reads,
        n.writev_batches
    )
}

fn counts(run: &mut RunResult, p: &Phase) {
    let f = p.failures;
    run.detail(
        "counts",
        format!(
            "{{\"sent\":{},\"succeeded\":{},\"failed\":{},\"failed_frac\":{},\
             \"queue_full\":{},\"timeout\":{},\"wire\":{},\"transport\":{},\"other\":{}}}",
            p.attempted,
            p.ok,
            p.failed(),
            p.failed() as f64 / p.attempted.max(1) as f64,
            f.queue_full,
            f.timeout,
            f.wire,
            f.transport,
            f.other
        ),
    );
}

/// Every served outcome of `tcp_exact_hot` carries analytic provenance
/// and the closed-form probability `Session::analyze_bool` gives.
fn exact_check(p: &Phase) -> bool {
    p.exact == p.ok && p.estimate_mismatches == 0
}

/// One untraced run: `SETUP_REPS` set-ups, half of them before and half
/// after `seconds` of closed-loop load (the middle one serves it), then
/// the in-process replay check.
pub fn run(kind: Kind, seed: u64, seconds: f64, epoch: Instant) -> RunResult {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let set_up = |setups: &mut Vec<f64>| {
        for _ in 0..SETUP_REPS / 2 {
            let l = start(kind, seed, epoch);
            setups.push(l.setup_s);
            l.stop();
        }
    };
    set_up(&mut setups);
    let mut live = start(kind, seed, epoch);
    setups.push(live.setup_s);
    let mut phase = Phase::with_capacity(1);
    phase.expect_estimate = expected_estimate(kind, seed);
    // Windows of about half a second on the reference host.
    let per_window = match kind {
        Kind::Gps => 4_000,
        Kind::Exact => 40_000,
    };
    phase.windows = Some(Windows::new(per_window, epoch.elapsed().as_nanos() as u64));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // The load pauses every `speed::EVERY` (the client drains its requests)
    // for the host to be probed; the pauses are left out of the windows.
    let mut host = speed::HostSpeed::new();
    host.probe();
    while Instant::now() < deadline {
        live.client.run(
            live.src.as_mut(),
            Until::Deadline((Instant::now() + speed::EVERY).min(deadline)),
            &mut phase,
            None,
        );
        let paused = Instant::now();
        host.probe();
        if let Some(w) = phase.windows.as_mut() {
            w.pause(paused.elapsed().as_nanos() as u64);
        }
    }
    let warm_failed = live.warm.failed();
    let (client, server) = live.stop();
    set_up(&mut setups);

    // Tenants' streams are independent, so every `REPLAYED`-th tenant's
    // stream is replayed: the check then costs a fraction of the run.
    let replayed: Tenants = client
        .tenants
        .iter()
        .step_by(REPLAYED)
        .map(|(&t, log)| (t, log.clone()))
        .collect();
    let mut replay_src = source(kind, seed);
    let (fps, _) = replay_in_process(
        config(seed),
        replay_src.as_mut(),
        &replayed,
        SLOTS,
        &BTreeSet::new(),
        epoch,
    );
    let replay_ok = replayed.iter().all(|(t, log)| fps.get(t) == Some(&log.fp));
    let mut correct = replay_ok && warm_failed == 0 && server.net.wire_errors == 0;
    if kind == Kind::Exact {
        correct &= exact_check(&phase);
    }

    let w = phase
        .windows
        .as_ref()
        .expect("measured phases are windowed")
        .stats();
    let slowdown = host.slowdown();
    let mut m = Metrics::default();
    m.set("queries_per_s", w.qps * slowdown);
    m.set("latency_p50_us", us(w.p50_ns / slowdown));
    m.set("latency_p99_us", us(w.p99_ns / slowdown));
    m.set(
        "answered_frac",
        phase.ok as f64 / phase.attempted.max(1) as f64,
    );
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", stats::peak_rss_mb());

    let mut run = RunResult {
        correct,
        attempted: phase.attempted,
        failed: phase.failed(),
        metrics: m,
        details: Vec::new(),
        ledger: None,
        tracer: None,
    };
    counts(&mut run, &phase);
    windows_detail(
        &mut run,
        &w,
        &host,
        phase.ok as f64 / phase.elapsed.as_secs_f64(),
    );
    run.detail("setup_reps_s", format!("{setups:?}"));
    run.detail("setup_quartiles_s", format!("{:?}", quartiles(&setups)));
    run.detail("replay_matches", replay_ok);
    run.detail("replayed_tenants", replayed.len());
    run.detail("server", instruments(&server));
    run
}

/// Window figures and sample counts as result fields, with the host's
/// slowdown, the unscaled figures and every probe.
pub fn windows_detail(
    run: &mut RunResult,
    w: &WindowStats,
    host: &speed::HostSpeed,
    overall_qps: f64,
) {
    run.detail("overall_queries_per_s", overall_qps);
    run.detail("host_slowdown", host.slowdown());
    run.detail("unscaled_queries_per_s", w.qps);
    run.detail("unscaled_latency_p50_us", us(w.p50_ns));
    run.detail("unscaled_latency_p99_us", us(w.p99_ns));
    run.detail("host_probes_ns", format!("{:?}", host.probes()));
    run.detail("windows", w.windows);
    run.detail("queries_per_window", w.per_window);
    run.detail("window_beyond_p99", w.beyond_p99);
    let list = |f: fn(&Window) -> f64| format!("{:?}", w.all.iter().map(f).collect::<Vec<_>>());
    run.detail("window_queries_per_s", list(|x| x.qps));
    run.detail("window_p50_ns", list(|x| x.p50_ns as f64));
    run.detail("window_p99_ns", list(|x| x.p99_ns as f64));
}

/// The analytic answer to every `tcp_exact_hot` query.
fn expected_estimate(kind: Kind, seed: u64) -> Option<u64> {
    (kind == Kind::Exact).then(|| {
        let chain = crate::inputs::evidence_chain(crate::inputs::CHAIN_N);
        Session::seeded(seed)
            .analyze_bool(&chain)
            .expect("the chain is in the analytic fragment")
            .p
            .to_bits()
    })
}

/// One traced run: untraced and traced halves alternating (`phase_s` of
/// each in total), then the shadow replays that split a sample of the
/// traced requests across the layers. Returns every per-layer metric and
/// the request ledger.
pub fn traced(kind: Kind, seed: u64, phase_s: f64, epoch: Instant) -> RunResult {
    let mut live = start(kind, seed, epoch);
    let mut plain = Phase::with_capacity(crate::tcp::RESERVOIR);
    let mut tracer = Tracer::new(epoch);
    let mut traced = Phase::with_capacity(crate::tcp::RESERVOIR);
    traced.expect_estimate = expected_estimate(kind, seed);
    // Untraced and traced halves alternate, so drift over the run does not
    // read as tracing overhead.
    for _ in 0..2 {
        let deadline = Instant::now() + Duration::from_secs_f64(phase_s / 2.0);
        live.client.run(
            live.src.as_mut(),
            Until::Deadline(deadline),
            &mut plain,
            None,
        );
        let deadline = Instant::now() + Duration::from_secs_f64(phase_s / 2.0);
        live.client.run(
            live.src.as_mut(),
            Until::Deadline(deadline),
            &mut traced,
            Some(&mut tracer),
        );
    }
    let (client, server) = live.stop();

    // The shadows split an evenly spaced sample of the traced requests;
    // only sampled requests enter the ledger.
    let every = traced.done.len().div_ceil(SHADOWED).max(1);
    let sample: Vec<_> = traced.done.iter().copied().step_by(every).collect();
    let shadowed: BTreeSet<u64> = sample.iter().map(|d| d.req).collect();

    // Shadow 1: the whole stream again in-process, timing the sampled
    // requests' in-process round trips.
    let timed: BTreeSet<(u64, u64)> = sample.iter().map(|d| (d.tenant, d.tag)).collect();
    let mut replay_src = source(kind, seed);
    let (fps, inproc) = replay_in_process(
        config(seed),
        replay_src.as_mut(),
        &client.tenants,
        SLOTS,
        &timed,
        epoch,
    );
    let replay_ok = client
        .tenants
        .iter()
        .all(|(t, log)| fps.get(t) == Some(&log.fp));

    // Shadow 2: the sampled requests' graph codec and decision, replayed
    // in a `Session` at each tenant's seed and stream position.
    let mut session_src = source(kind, seed);
    let rep = layers::replay_sessions(
        seed,
        session_src.as_mut(),
        &client.tenants,
        &sample,
        &inproc,
        kind == Kind::Exact,
        &mut tracer,
    );

    let mut correct = replay_ok && rep.mismatches == 0 && server.net.wire_errors == 0;
    if kind == Kind::Exact {
        correct &= exact_check(&traced);
    }

    let spans = tracer.spans();
    let durations = |name: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur().max(0) as u64)
            .collect()
    };
    let tcp_rtt: Vec<u64> = sample.iter().map(|d| d.rtt_ns).collect();
    let inproc_rtt: Vec<u64> = inproc.values().map(|&(a, b)| b - a).collect();
    let session_p50 = median_u64(&rep.queries);
    let inproc_p50 = median_u64(&inproc_rtt);
    let lat_plain = plain.latency.sorted();
    let lat_traced = traced.latency.sorted();
    let decisions = rep.queries.len().max(1) as f64;

    let mut m = Metrics::default();
    let n = server.net;
    m.set("net.edge_us", us(median_u64(&tcp_rtt) - inproc_p50));
    m.set(
        "net.wakeups_per_query",
        n.event_loop_wakeups as f64 / n.frames_in.max(1) as f64,
    );
    m.set(
        "net.writev_batch_frac",
        n.writev_batches as f64 / n.frames_out.max(1) as f64,
    );
    m.set(
        "net.partial_read_frac",
        n.partial_reads as f64 / n.frames_in.max(1) as f64,
    );
    m.set("wire.frame_encode_ns", median_u64(&rep.frame_encode_ns));
    m.set(
        "wire.frame_decode_ns",
        median_u64(&durations("wire.frame_decode")),
    );
    m.set(
        "wire.request_bytes",
        traced.request_bytes as f64 / traced.attempted.max(1) as f64,
    );
    m.set("graph.encode_us", us(median_u64(&rep.encode_ns)));
    m.set("graph.decode_us", us(median_u64(&rep.decode_ns)));
    m.set("graph.nodes", rep.nodes as f64 / decisions);
    m.set("service.inproc_rtt_us", us(inproc_p50));
    m.set("service.handoff_us", us(inproc_p50 - session_p50));
    let qw = server.queue_wait();
    m.set("service.queue_wait_p50_us", us(qw.p50 as f64));
    m.set("service.queue_wait_p99_us", us(qw.p99 as f64));
    m.set("service.compile_mean_us", us(server.compile().mean()));
    m.set("service.sampling_mean_us", us(server.sampling().mean()));
    m.set("service.rejected", server.rejected() as f64);
    m.set("service.timeouts", server.timeouts() as f64);
    m.set("service.sessions_evicted", server.sessions_evicted() as f64);
    m.set("session.query_us", us(session_p50));
    m.set(
        "session.cache_hit_rate",
        rep.cache_hits as f64 / rep.cache_lookups.max(1) as f64,
    );
    m.set("session.compile_us", us(rep.compile_ns as f64 / decisions));
    m.set(
        "session.compile_share",
        rep.compile_ns as f64 / rep.queries.iter().sum::<u64>().max(1) as f64,
    );
    m.set(
        "session.dispatch_exact_frac",
        rep.exact.calls as f64 / decisions,
    );
    m.set(
        "session.dispatch_kernel_frac",
        rep.kernel.calls as f64 / decisions,
    );
    m.set(
        "session.dispatch_closure_frac",
        rep.closure.calls as f64 / decisions,
    );
    executor_metrics(&mut m, seed, rep.kernel, rep.closure);
    m.set("exact.decide_ns", layers::exact_decide_ns(seed));
    m.set("exact.share", traced.exact as f64 / traced.ok.max(1) as f64);
    sprt_metrics(&mut m, &traced);
    m.set(
        "dist.fill_ns_per_sample",
        layers::dist_fill_ns_per_sample(seed),
    );
    m.set("app.build_us", us(median_u64(&durations("app.build"))));
    let l = ledger(spans, "query", &["net.rtt"], |req| shadowed.contains(&req));
    m.set("ledger.unattributed_frac", l.unattributed_frac);
    let eval_ns: i64 = spans
        .iter()
        .filter(|s| s.name == "session.query")
        .map(|s| s.dur())
        .sum();
    m.set(
        "ledger.outside_eval_frac",
        1.0 - eval_ns as f64 / l.total_ns.max(1) as f64,
    );
    m.set(
        "trace.overhead_frac",
        percentile(&lat_traced, 0.5) as f64 / percentile(&lat_plain, 0.5) as f64 - 1.0,
    );

    let mut run = RunResult {
        correct,
        attempted: traced.attempted,
        failed: traced.failed(),
        metrics: m,
        details: Vec::new(),
        ledger: None,
        tracer: None,
    };
    counts(&mut run, &traced);
    run.detail("replay_matches", replay_ok);
    run.detail("session_replay_mismatches", rep.mismatches);
    run.detail(
        "compile_check_us",
        format!(
            "{{\"session_replay_mean\":{},\"server_mean\":{}}}",
            us(rep.compile_ns as f64 / decisions),
            us(server.compile().mean())
        ),
    );
    if kind == Kind::Exact {
        let outside = run.metrics.get("ledger.outside_eval_frac").unwrap_or(0.0);
        println!(
            "hypothesis \"over 99% of an exact-answered TCP request is outside evaluation\": {} \
             ({:.3}% outside)",
            if outside > 0.99 { "holds" } else { "refuted" },
            outside * 100.0
        );
        run.detail("hypothesis_outside_eval_over_99pct", outside > 0.99);
    }
    run.detail("server", instruments(&server));
    run.ledger = Some(l);
    run.tracer = Some(tracer);
    run
}

/// `kernel.ns_per_sample` and `plan.ns_per_sample` from the workload's
/// own decisions where it dispatched there, else from the executor probe.
pub fn executor_metrics(m: &mut Metrics, seed: u64, kernel: Dispatched, closure: Dispatched) {
    let (k, c) = match (kernel.ns_per_sample(), closure.ns_per_sample()) {
        (Some(k), Some(c)) => (k, c),
        (k, c) => {
            let (pk, pc) = layers::executor_probe(seed);
            (
                k.or(pk.ns_per_sample()).unwrap_or(0.0),
                c.or(pc.ns_per_sample()).unwrap_or(0.0),
            )
        }
    };
    m.set("kernel.ns_per_sample", k);
    m.set("plan.ns_per_sample", c);
}

fn sprt_metrics(m: &mut Metrics, p: &Phase) {
    let sampled: Vec<u64> = p
        .samples
        .iter()
        .filter(|(&s, _)| s > 0)
        .flat_map(|(&s, &c)| std::iter::repeat_n(s as u64, c as usize))
        .collect();
    let mean = if sampled.is_empty() {
        0.0
    } else {
        sampled.iter().sum::<u64>() as f64 / sampled.len() as f64
    };
    m.set("sprt.samples_per_decision", mean);
    m.set(
        "sprt.samples_p99",
        if sampled.is_empty() {
            0.0
        } else {
            percentile(&sampled, 0.99) as f64
        },
    );
    m.set(
        "sprt.capped_frac",
        p.inconclusive as f64 / p.ok.max(1) as f64,
    );
}
