//! The in-process workload `session_gps_walk`: the paper's GPS-Walking
//! app as a library user runs it, on one thread and one
//! `Session::seeded`. Each step of a seeded Fig. 13 walk (the 16 walkers
//! of the seed taken in turn) asks
//! `uncertain_action` of the raw speed (columnar kernel), `Session::e` of
//! the raw speed, and `uncertain_action` of the walking-prior posterior
//! (`weight_by` SIR on the closure plan). One query is one step.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use uncertain_core::{DecisionTrace, Dispatch, Recorder, Session, StoppingReason};
use uncertain_gps::{Action, GpsWalking};

use crate::cpus::Cpus;
use crate::inputs::{Walks, TARGET_MPH};
use crate::layers::{self, Dispatched};
use crate::report::{Metrics, RunResult};
use crate::serve::{self, Kind};
use crate::speed;
use crate::stats::{self, fold, median, median_u64, percentile, quartiles, Reservoir, Windows};
use crate::trace::{ledger, Tracer};

/// Session set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Joint samples of each step's `Session::e`, sized so that no query
/// family takes more than about two thirds of a step.
const E_SAMPLES: usize = 2000;
/// Steps per window of an untraced run: about 1.6 s on the reference host,
/// with ten steps beyond each window's p99 (see `stats::Windows`).
const STEPS_PER_WINDOW: usize = 1_000;
/// Steps between moves of the thread to the next CPU: eight per walker,
/// about a fifth of a second.
const PIN_EVERY: usize = 128;
/// Steps the replay check re-runs: a prefix of the run, so the check
/// costs a few seconds whatever the run's length.
const REPLAYED_STEPS: u64 = 2_000;
/// Step latencies a traced run keeps per mode (far more than it takes).
const RESERVOIR: usize = 1 << 14;

struct Step {
    raw: Action,
    mean: f64,
    posterior: Action,
}

fn fold_step(fp: &mut u64, s: &Step) {
    fold(
        fp,
        s.raw as usize * 3 + s.posterior as usize,
        s.mean.to_bits(),
    );
}

fn step(app: &GpsWalking, walk: &mut Walks, n: u64, session: &mut Session) -> Step {
    let (raw, posterior) = walk.speeds(n);
    Step {
        raw: app.uncertain_action(&raw, session),
        mean: session.e(&raw, E_SAMPLES),
        posterior: app.uncertain_action(&posterior, session),
    }
}

/// A walk and its session after the timed set-up (session built, first
/// step run), with the running fingerprint.
struct Started {
    walk: Walks,
    session: Session,
    fp: u64,
    setup_s: f64,
}

fn start(app: &GpsWalking, seed: u64) -> Started {
    let mut walk = Walks::new(seed);
    let t = Instant::now();
    let mut session = Session::seeded(seed);
    let first = step(app, &mut walk, 1, &mut session);
    let setup_s = t.elapsed().as_secs_f64();
    let mut fp = 0;
    fold_step(&mut fp, &first);
    Started {
        walk,
        session,
        fp,
        setup_s,
    }
}

/// One untraced run: `SETUP_REPS` set-ups, half of them before and half
/// after `seconds` of steps (the middle one's session takes them), then a
/// replay of the first `REPLAYED_STEPS` steps in a fresh session at the
/// same seed.
pub fn run(seed: u64, seconds: f64) -> RunResult {
    let app = GpsWalking::new(TARGET_MPH);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let set_up = |setups: &mut Vec<f64>| {
        for _ in 0..SETUP_REPS / 2 {
            setups.push(start(&app, seed).setup_s);
        }
    };
    set_up(&mut setups);
    let mut s = start(&app, seed);
    setups.push(s.setup_s);
    let cpus = Cpus::of_this_thread();
    let mut host = speed::HostSpeed::new();
    let mut finite = true;
    let mut n = 1;
    let mut prefix_fp = None;
    host.probe();
    let t = Instant::now();
    let mut windows = Windows::new(STEPS_PER_WINDOW, 0);
    let deadline = t + Duration::from_secs_f64(seconds);
    let mut next_probe = t + speed::EVERY;
    while Instant::now() < deadline {
        n += 1;
        // Every `PIN_EVERY` steps the thread moves to the next CPU (see
        // `cpus`); every `speed::EVERY` the steps pause for the host to be
        // probed, and the pause is left out of the windows.
        let k = (n - 2) as usize;
        if Instant::now() >= next_probe {
            let paused = Instant::now();
            host.probe();
            windows.pause(paused.elapsed().as_nanos() as u64);
            cpus.pin(k / PIN_EVERY);
            next_probe = Instant::now() + speed::EVERY;
        } else if k.is_multiple_of(PIN_EVERY) {
            cpus.pin(k / PIN_EVERY);
        }
        let t0 = Instant::now();
        let st = step(&app, &mut s.walk, n, &mut s.session);
        windows.push(
            t.elapsed().as_nanos() as u64,
            t0.elapsed().as_nanos() as u64,
        );
        finite &= st.mean.is_finite();
        fold_step(&mut s.fp, &st);
        if n == REPLAYED_STEPS {
            prefix_fp = Some(s.fp);
        }
    }
    let elapsed = t.elapsed().as_secs_f64();
    // The last probe also leaves the thread free to run on every CPU.
    host.probe();
    set_up(&mut setups);

    let mut replay_walk = Walks::new(seed);
    let mut replay = Session::seeded(seed);
    let mut fp = 0;
    let replayed = n.min(REPLAYED_STEPS);
    for k in 1..=replayed {
        fold_step(&mut fp, &step(&app, &mut replay_walk, k, &mut replay));
    }
    let replay_ok = fp == prefix_fp.unwrap_or(s.fp);

    let w = windows.stats();
    let slowdown = host.slowdown();
    let steps = n - 1;
    let mut m = Metrics::default();
    m.set("queries_per_s", w.qps * slowdown);
    m.set("latency_p50_us", w.p50_ns / slowdown / 1e3);
    m.set("latency_p99_us", w.p99_ns / slowdown / 1e3);
    m.set("answered_frac", 1.0);
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", stats::peak_rss_mb());
    let mut run = RunResult {
        correct: replay_ok && finite,
        attempted: steps,
        failed: 0,
        metrics: m,
        details: Vec::new(),
        ledger: None,
        tracer: None,
    };
    run.detail(
        "counts",
        format!("{{\"sent\":{steps},\"succeeded\":{steps},\"failed\":0,\"failed_frac\":0}}"),
    );
    serve::windows_detail(&mut run, &w, &host, steps as f64 / elapsed);
    run.detail("setup_reps_s", format!("{setups:?}"));
    run.detail("setup_quartiles_s", format!("{:?}", quartiles(&setups)));
    run.detail("replay_matches", replay_ok);
    run.detail("replayed_steps", replayed);
    run.detail("cpus", cpus.count());
    run.detail("e_samples", E_SAMPLES);
    run
}

/// Collects every SPRT decision's sample count and whether the cap
/// stopped it.
struct SprtLog(Arc<Mutex<Vec<(usize, bool)>>>);

impl Recorder for SprtLog {
    fn record_decision(&mut self, trace: DecisionTrace) {
        self.0
            .lock()
            .expect("the recorder's log is never poisoned")
            .push((
                trace.samples,
                trace.stopping == StoppingReason::BudgetCapped,
            ));
    }
}

/// One timed `Session` call inside a traced step.
struct Call {
    dur: u64,
    compile: u64,
    samples: u64,
}

fn call(
    tracer: &mut Tracer,
    req: u64,
    parent: u32,
    name: &'static str,
    session: &mut Session,
    f: impl FnOnce(&mut Session),
) -> Call {
    let built = session.plan_build_ns();
    let drawn = session.joint_samples();
    let t0 = tracer.now();
    f(session);
    let t1 = tracer.now();
    let compile = session.plan_build_ns() - built;
    let id = tracer.span(req, parent, name, t0, t1);
    tracer.span(req, id, "session.compile", t0, t0 + compile);
    Call {
        dur: t1 - t0,
        compile,
        samples: session.joint_samples() - drawn,
    }
}

/// One traced run: untraced and traced halves of the walk alternating
/// (`phase_s` of each in total, so drift does not read as tracing
/// overhead), then a short TCP probe of the same walk's conditionals for
/// the serve-side layers.
pub fn traced(seed: u64, phase_s: f64, probe_s: f64, epoch: Instant) -> RunResult {
    let app = GpsWalking::new(TARGET_MPH);
    let mut s = start(&app, seed);
    let mut n = 1;
    let mut plain = Reservoir::new(RESERVOIR);
    let mut traced = Reservoir::new(RESERVOIR);
    let mut tracer = Tracer::new(epoch);
    let log = Arc::new(Mutex::new(Vec::new()));
    let (mut kernel, mut closure) = (Dispatched::default(), Dispatched::default());
    // Decisions answered by the analytic backend, the kernel and the
    // closure plan.
    let mut dispatched = [0u64; 3];
    let (mut calls, mut compile, mut busy) = (Vec::new(), 0u64, 0u64);
    let half = Duration::from_secs_f64(phase_s / 2.0);
    for _ in 0..2 {
        let deadline = Instant::now() + half;
        while Instant::now() < deadline {
            n += 1;
            let t0 = Instant::now();
            step(&app, &mut s.walk, n, &mut s.session);
            plain.push(t0.elapsed().as_nanos() as u64);
        }
        s.session
            .install_recorder(Box::new(SprtLog(Arc::clone(&log))));
        let deadline = Instant::now() + half;
        while Instant::now() < deadline {
            n += 1;
            let r0 = tracer.now();
            let root = tracer.span(n, 0, "step", r0, r0);
            let (raw, posterior) = s.walk.speeds(n);
            tracer.span(n, root, "app.build", r0, tracer.now());
            let session = &mut s.session;
            let a = call(&mut tracer, n, root, "session.action_raw", session, |ss| {
                app.uncertain_action(&raw, ss);
            });
            let raw_dispatch = session.last_dispatch();
            let e = call(&mut tracer, n, root, "session.e", session, |ss| {
                ss.e(&raw, E_SAMPLES);
            });
            let p = call(
                &mut tracer,
                n,
                root,
                "session.action_posterior",
                session,
                |ss| {
                    app.uncertain_action(&posterior, ss);
                },
            );
            let post_dispatch = session.last_dispatch();
            let end = tracer.now();
            tracer.close(root, end);
            traced.push(end - r0);
            // `e` samples the raw-speed network the first action decided,
            // so it runs on that action's executor.
            for (c, d, decision) in [
                (&a, raw_dispatch, true),
                (&e, raw_dispatch, false),
                (&p, post_dispatch, true),
            ] {
                calls.push(c.dur);
                compile += c.compile;
                busy += c.dur;
                let net = c.dur.saturating_sub(c.compile);
                let kind = match d {
                    Some(Dispatch::Exact) => 0,
                    Some(Dispatch::Kernel) => {
                        kernel.add(net, c.samples);
                        1
                    }
                    Some(Dispatch::Closure) => {
                        closure.add(net, c.samples);
                        2
                    }
                    None => continue,
                };
                if decision {
                    dispatched[kind] += 1;
                }
            }
        }
        s.session.take_recorder();
    }
    let sprt = log
        .lock()
        .expect("the recorder's log is never poisoned")
        .clone();

    let mut m = Metrics::default();
    let probe = serve::traced(Kind::Gps, seed, probe_s, epoch);
    m.take_from(&probe.metrics, &["net.", "wire.", "graph.", "service."]);
    let ncalls = calls.len().max(1) as f64;
    m.set("session.query_us", median_u64(&calls) / 1e3);
    m.set("session.cache_hit_rate", s.session.cache_stats().hit_rate());
    m.set("session.compile_us", compile as f64 / ncalls / 1e3);
    m.set("session.compile_share", compile as f64 / busy.max(1) as f64);
    let d = dispatched.iter().sum::<u64>().max(1) as f64;
    m.set("session.dispatch_exact_frac", dispatched[0] as f64 / d);
    m.set("session.dispatch_kernel_frac", dispatched[1] as f64 / d);
    m.set("session.dispatch_closure_frac", dispatched[2] as f64 / d);
    serve::executor_metrics(&mut m, seed, kernel, closure);
    m.set("exact.decide_ns", layers::exact_decide_ns(seed));
    m.set("exact.share", dispatched[0] as f64 / d);
    let mut samples: Vec<u64> = sprt.iter().map(|&(n, _)| n as u64).collect();
    samples.sort_unstable();
    let capped = sprt.iter().filter(|&&(_, c)| c).count();
    m.set(
        "sprt.samples_per_decision",
        samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64,
    );
    m.set(
        "sprt.samples_p99",
        if samples.is_empty() {
            0.0
        } else {
            percentile(&samples, 0.99) as f64
        },
    );
    m.set("sprt.capped_frac", capped as f64 / sprt.len().max(1) as f64);
    m.set(
        "dist.fill_ns_per_sample",
        layers::dist_fill_ns_per_sample(seed),
    );
    let spans = tracer.spans();
    let builds: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "app.build")
        .map(|s| s.dur().max(0) as u64)
        .collect();
    m.set("app.build_us", median_u64(&builds) / 1e3);
    let l = ledger(spans, "step", &[], |_| true);
    m.set("ledger.unattributed_frac", l.unattributed_frac);
    m.set(
        "ledger.outside_eval_frac",
        1.0 - busy as f64 / l.total_ns.max(1) as f64,
    );
    let (plain, traced) = (plain.sorted(), traced.sorted());
    m.set(
        "trace.overhead_frac",
        percentile(&traced, 0.5) as f64 / percentile(&plain, 0.5) as f64 - 1.0,
    );

    let steps = traced.len() as u64;
    let mut run = RunResult {
        correct: probe.correct,
        attempted: steps,
        failed: 0,
        metrics: m,
        details: Vec::new(),
        ledger: Some(l),
        tracer: Some(tracer),
    };
    run.detail("serve_probe_correct", probe.correct);
    run.detail("traced_steps", steps);
    run.detail("sprt_decisions", sprt.len());
    run
}
