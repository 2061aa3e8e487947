//! Per-layer measurements taken from outside the library in traced runs:
//! a `Session` replay of served decisions, and fixed probes of the
//! analytic backend, the leaf samplers and both sampling executors.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use uncertain_core::dist::{Distribution, Rayleigh, Uniform};
use uncertain_core::{Dispatch, EvalConfig, EvalStrategy, Session, Uncertain, WireGraph};
use uncertain_gps::rho_from_accuracy;
use uncertain_serve::wire::encode_request;
use uncertain_serve::{tenant_seed, Request, RequestKind};

use crate::inputs::{evidence_chain, Source, Walks, CHAIN_N, GPS_EPSILON_M, TARGET_MPH};
use crate::stats::median;
use crate::tcp::{Done, RoundTrips, TagCursor, Tenants};
use crate::trace::Tracer;

/// Query time net of compile, and samples drawn, per dispatch kind.
#[derive(Default, Clone, Copy)]
pub struct Dispatched {
    pub calls: u64,
    pub net_ns: u64,
    pub samples: u64,
}

impl Dispatched {
    pub fn add(&mut self, net_ns: u64, samples: u64) {
        self.calls += 1;
        self.net_ns += net_ns;
        self.samples += samples;
    }

    pub fn ns_per_sample(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.net_ns as f64 / self.samples as f64)
    }
}

/// What replaying served decisions in a `Session` measured.
#[derive(Default)]
pub struct Replay {
    pub queries: Vec<u64>,
    pub compile_ns: u64,
    pub frame_encode_ns: Vec<u64>,
    pub encode_ns: Vec<u64>,
    pub decode_ns: Vec<u64>,
    pub nodes: u64,
    pub exact: Dispatched,
    pub kernel: Dispatched,
    pub closure: Dispatched,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub mismatches: u64,
}

/// Decoded graphs the replay keeps, like the server's decoded-graph cache
/// (dropped wholesale when full).
const GRAPH_CACHE_CAP: usize = 4096;

/// Replays the traced requests `done` in per-tenant `Session`s at each
/// tenant's seed and stream position, mirroring what a shard does with
/// them: encode the request, decode its network through a byte-keyed
/// graph cache (the server's decoded-graph cache), and decide it. Each
/// call is timed; the graph codec and the decision are attached as shadow
/// spans under the request's spans (the graph encode only where the live
/// request encoded its frame rather than reusing it). Every outcome must
/// equal the served one bit for bit.
///
/// `warm` asks each tenant's replay session the tenant's first graph once
/// before positioning it, for workloads whose tenants re-ask a graph the
/// server has already compiled.
#[allow(clippy::too_many_arguments)]
pub fn replay_sessions(
    service_seed: u64,
    src: &mut dyn Source,
    tenants: &Tenants,
    done: &[Done],
    inproc: &RoundTrips,
    warm: bool,
    tracer: &mut Tracer,
) -> Replay {
    let mut r = Replay::default();
    let mut graphs: HashMap<Vec<u8>, Uncertain<bool>> = HashMap::new();
    let mut sessions: HashMap<u64, (Session, TagCursor, u64)> = HashMap::new();
    let base = EvalConfig::default();
    for d in done {
        let q = src.rebuild(d.tenant, d.tag);
        let request = Request {
            tenant: q.tenant,
            kind: RequestKind::Evaluate {
                cond: q.cond.clone(),
                threshold: q.threshold,
            },
            timeout: None,
            strategy: q.strategy,
            trace: None,
        };
        let f0 = tracer.now();
        std::hint::black_box(encode_request(0, &request).expect("wire-expressible"));
        r.frame_encode_ns.push(tracer.now() - f0);
        let t0 = tracer.now();
        let graph = WireGraph::from_bool(&q.cond).expect("served graphs are wire-expressible");
        let bytes = graph.to_bytes();
        let t1 = tracer.now();
        r.nodes += graph.node_count() as u64;
        let decoded = match graphs.get(&bytes) {
            Some(g) => g.clone(),
            None => {
                let g = WireGraph::from_bytes(&bytes)
                    .and_then(|w| w.decode_bool())
                    .expect("encoded graphs decode");
                if graphs.len() >= GRAPH_CACHE_CAP {
                    graphs.clear();
                }
                graphs.insert(bytes, g.clone());
                g
            }
        };
        let t2 = tracer.now();
        r.encode_ns.push(t1 - t0);
        r.decode_ns.push(t2 - t1);
        if d.encoded {
            tracer.span(d.req, d.encode_span, "graph.encode", t0, t1);
        }
        tracer.span(d.req, d.rtt_span, "graph.decode", t1, t2);

        let eval = match q.strategy {
            Some(s) => base.with_strategy(s),
            None => base,
        };
        let (session, cursor, position) = sessions.entry(d.tenant).or_insert_with(|| {
            let mut s = Session::seeded(tenant_seed(service_seed, d.tenant)).with_config(eval);
            if warm {
                let _ = s.try_evaluate(&decoded, q.threshold, &eval);
            }
            (s, TagCursor::default(), 0)
        });
        // Sampled requests skip parts of the tenant's stream: find this
        // one's position and start the session there.
        let log = &tenants[&d.tenant];
        while log.next_tag(cursor).expect("traced queries are logged") != d.tag {
            *position += 1;
        }
        session.resume_at(*position);
        *position += 1;
        session.set_config(eval);
        let built = session.plan_build_ns();
        let t3 = tracer.now();
        let outcome = session.try_evaluate(&decoded, q.threshold, &eval);
        let t4 = tracer.now();
        let compile = session.plan_build_ns() - built;
        let Ok(o) = outcome else {
            r.mismatches += 1;
            continue;
        };
        if o.samples != d.outcome.samples
            || o.estimate.to_bits() != d.outcome.estimate.to_bits()
            || o.accepted != d.outcome.accepted
        {
            r.mismatches += 1;
        }
        let parent = match inproc.get(&(d.tenant, d.tag)) {
            Some(&(start, end)) => tracer.span(d.req, d.rtt_span, "service.inproc", start, end),
            None => d.rtt_span,
        };
        let query = tracer.span(d.req, parent, "session.query", t3, t4);
        tracer.span(d.req, query, "session.compile", t3, t3 + compile);
        r.queries.push(t4 - t3);
        r.compile_ns += compile;
        let net = (t4 - t3).saturating_sub(compile);
        match session.last_dispatch() {
            Some(Dispatch::Exact) => r.exact.add(net, o.samples as u64),
            Some(Dispatch::Kernel) => r.kernel.add(net, o.samples as u64),
            Some(Dispatch::Closure) => r.closure.add(net, o.samples as u64),
            None => {}
        }
    }
    for (s, _, _) in sessions.values() {
        let c = s.cache_stats();
        r.cache_hits += c.hits;
        r.cache_lookups += c.hits + c.misses;
    }
    r
}

/// Median ns per analytic decision: `Session::evaluate` under `Auto` on
/// the hot evidence chain (a memo hit after the first call).
pub fn exact_decide_ns(seed: u64) -> f64 {
    const CALLS: usize = 20_000;
    let chain = evidence_chain(CHAIN_N);
    let mut session = Session::seeded(seed).with_strategy(EvalStrategy::Auto);
    let _ = session.evaluate(&chain, 0.5);
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                std::hint::black_box(session.evaluate(std::hint::black_box(&chain), 0.5));
            }
            t.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&reps)
}

/// Median ns per sample of `fill_column` on the GPS leaves (the Rayleigh
/// radial error and the uniform bearing) at batch 4096.
pub fn dist_fill_ns_per_sample(seed: u64) -> f64 {
    const BATCH: usize = 4096;
    const FILLS: usize = 40;
    let radial = Rayleigh::new(rho_from_accuracy(GPS_EPSILON_M)).expect("valid scale");
    let bearing = Uniform::new(0.0, 360.0).expect("valid bounds");
    let mut rngs: Vec<SmallRng> = (0..BATCH as u64)
        .map(|i| SmallRng::seed_from_u64(seed ^ i))
        .collect();
    let mut out = Vec::with_capacity(BATCH);
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..FILLS {
                radial.fill_column(&mut rngs, &mut out);
                std::hint::black_box(&out);
                bearing.fill_column(&mut rngs, &mut out);
                std::hint::black_box(&out);
            }
            t.elapsed().as_nanos() as f64 / (2 * FILLS * BATCH) as f64
        })
        .collect();
    median(&reps)
}

/// Both sampling executors on a seeded walk's first steps: the raw speed
/// conditional (columnar kernel) and its posterior (closure plan), for
/// workloads that never dispatch to one of them.
pub fn executor_probe(seed: u64) -> (Dispatched, Dispatched) {
    let mut walk = Walks::new(seed);
    let mut session = Session::seeded(seed);
    let (mut kernel, mut closure) = (Dispatched::default(), Dispatched::default());
    for step in 1..=12 {
        let (raw, post) = walk.speeds(step);
        for cond in [raw.gt(TARGET_MPH), post.gt(TARGET_MPH)] {
            let built = session.plan_build_ns();
            let drawn = session.joint_samples();
            let t = Instant::now();
            std::hint::black_box(session.evaluate(&cond, 0.5));
            let ns = t.elapsed().as_nanos() as u64;
            let net = ns.saturating_sub(session.plan_build_ns() - built);
            let samples = session.joint_samples() - drawn;
            match session.last_dispatch() {
                Some(Dispatch::Kernel) => kernel.add(net, samples),
                Some(Dispatch::Closure) => closure.add(net, samples),
                _ => {}
            }
        }
    }
    (kernel, closure)
}
