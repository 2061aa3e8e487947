//! The service runtime: shard workers, each with one session for all of
//! its tenants, request execution, and lifecycle (start → drain →
//! shutdown).

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use uncertain_core::{
    Error, EvalConfig, EvalStrategy, HypothesisOutcome, ServeError, Session, Uncertain,
};
use uncertain_obs::{monotonic_ns, FlightRecorder, TraceContext};
use uncertain_stats::{StatsError, Summary};

use crate::client::ServeClient;
use crate::metrics::{NetStats, ServeMetrics, ShardStats};
use crate::net::Listener;
use crate::traced::{kind_name, RequestTracer};
use crate::transport::{Reply, ReplySlot, RequestKind, Response};
use crate::{mix64, tenant_seed, ServeConfig};

/// `e`/`stats` requests draw their samples in fixed chunks of this many
/// joint samples, checking the deadline between chunks. The chunk size is
/// part of the service's deterministic contract: each chunk is one session
/// query, so a request for `n` samples always consumes `ceil(n / CHUNK)`
/// query indices — regardless of shard count, timing, or whether the
/// request aborted halfway.
pub(crate) const SAMPLE_CHUNK: usize = 4096;

/// One queued request.
pub(crate) struct Job {
    pub(crate) tenant: u64,
    pub(crate) kind: RequestKind,
    pub(crate) deadline: Option<Instant>,
    /// Per-request strategy override; `None` inherits the service config.
    pub(crate) strategy: Option<EvalStrategy>,
    /// Wire-propagated tracing context; `None` is the dormant path.
    pub(crate) trace: Option<TraceContext>,
    /// Admission on the span clock ([`monotonic_ns`]): the start of the
    /// queue-wait histogram's interval and of a sampled trace's queue span.
    pub(crate) enqueued_ns: u64,
    /// Where the reply goes: the in-process caller's channel, or the event
    /// loop of the TCP connection the request came in on.
    pub(crate) reply: ReplySlot,
}

/// Seed salt separating a tenant's shadow-audit substream from its real
/// one: the audit session must never replay (or perturb) the tenant's
/// deterministic sample stream.
const AUDIT_SALT: u64 = 0x00A0_D175_1ADE_D0C5;

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

// ---------------------------------------------------------------------------
// Shard worker
// ---------------------------------------------------------------------------

/// A shard keeps one session for all of its tenants, and the query cursor
/// of every tenant it has served. A tenant's stream is its [`tenant_seed`]
/// plus its cursor, so `process` seeks the session to it before each
/// request and stores the cursor back after. Everything else the session
/// holds (kernels, exact verdicts, the cached sequential test, the kernel
/// scratch) depends only on the networks asked, so the tenants share it
/// and a network is compiled once per shard, not once per tenant.
fn run_shard(
    rx: Receiver<Job>,
    stats: Arc<ShardStats>,
    config: ServeConfig,
    flight: Arc<FlightRecorder>,
    shard_index: usize,
) {
    let mut session = Session::seeded(config.seed).with_config(config.eval);
    let mut cursors = HashMap::new();
    // `recv` keeps returning queued jobs after every sender is dropped,
    // then errors: shutdown drains the queue for free.
    while let Ok(job) = rx.recv() {
        stats.queue_depth.dec();
        stats
            .queue_wait_ns
            .record(monotonic_ns().saturating_sub(job.enqueued_ns));
        process(
            &mut session,
            &mut cursors,
            &stats,
            job,
            &flight,
            &config,
            shard_index,
        );
        // Publish the plan-cache gauges at every request boundary, so they
        // are current whether the shard goes idle next or stays busy.
        stats.publish_cache(session.cache_stats());
    }
}

fn process(
    session: &mut Session,
    cursors: &mut HashMap<u64, u64>,
    stats: &ShardStats,
    job: Job,
    flight: &FlightRecorder,
    config: &ServeConfig,
    shard_index: usize,
) {
    let Job {
        tenant,
        kind,
        deadline,
        strategy,
        trace,
        enqueued_ns,
        reply,
    } = job;
    // Sampled requests get their tracer before the deadline check so a
    // request that expired *in the queue* still leaves a trace (errors are
    // exactly what the flight recorder wants to retain).
    let mut tracer = match trace {
        Some(ctx) if ctx.sampled => Some(RequestTracer::begin(
            ctx,
            tenant,
            kind_name(&kind),
            shard_index,
            enqueued_ns,
        )),
        _ => None,
    };
    // Expired in the queue, or asking for no samples: reject without
    // touching the tenant's stream (no query index is consumed — the
    // tenant's stream is exactly as if the request was never admitted).
    // Such a request contributes only queue-wait time, not
    // compile/sampling observations.
    let result = if expired(deadline) {
        Err(ServeError::Timeout)
    } else if matches!(
        kind,
        RequestKind::E { n: 0, .. } | RequestKind::Stats { n: 0, .. }
    ) {
        Err(ServeError::Invalid(StatsError::new(
            "sample requests need n >= 1",
        )))
    } else {
        let eval = match strategy {
            Some(s) => config.eval.with_strategy(s),
            None => config.eval,
        };
        let cursor = cursors.entry(tenant).or_default();
        let start = *cursor;
        session.seek(tenant_seed(config.seed, tenant), start);
        // The request's effective config also becomes the session config
        // for its duration, so strategy-aware session queries (`try_e`,
        // `stats_with_provenance`) see the per-request override. Every
        // request sets it, so a previous override never leaks forward.
        session.set_config(eval);
        // The query indices a completed request of this kind consumes.
        let spent = match &kind {
            RequestKind::Evaluate { .. } => 1,
            RequestKind::E { n, .. } | RequestKind::Stats { n, .. } => {
                n.div_ceil(SAMPLE_CHUNK) as u64
            }
        };
        let work_started = Instant::now();
        let builds_before = session.plan_build_ns();
        if let Some(tr) = tracer.as_mut() {
            tr.executing(session);
        }
        // User code runs inside (closures, `condition_on`'s rejection
        // budget), so a request may panic; the shard must outlive it.
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            let result = match &kind {
                RequestKind::Evaluate { cond, threshold } => {
                    decide(session, cond, *threshold, &eval, deadline, stats).map(Response::Outcome)
                }
                RequestKind::E { expr, n } => {
                    e_request(session, expr, *n, &eval, deadline, stats).map(Response::Mean)
                }
                RequestKind::Stats { expr, n } => {
                    stats_request(session, expr, *n, &eval, deadline, stats).map(Response::Summary)
                }
            };
            if let Some(tr) = tracer.as_mut() {
                tr.executed(session, &result);
                if let (RequestKind::Evaluate { cond, threshold }, Ok(Response::Outcome(o))) =
                    (&kind, &result)
                {
                    maybe_audit(tr, tenant, cond, *threshold, o, config);
                }
            }
            result
        }));
        // Split the request's execution time into its compile share
        // (the session counts compile nanoseconds monotonically; the delta
        // is this request's share, 0 on a warm cache) and everything else
        // — which on this path is sampling.
        let total_ns = work_started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let compile_ns = session.plan_build_ns() - builds_before;
        stats.compile_ns.record(compile_ns);
        stats
            .sampling_ns
            .record(total_ns.saturating_sub(compile_ns));
        let panicked = ran.is_err();
        let result = ran.unwrap_or_else(|payload| {
            // The trace log a traced request installed goes too.
            session.take_recorder();
            Err(ServeError::Invalid(StatsError::new(format!(
                "request panicked: {}",
                panic_message(&*payload)
            ))))
        });
        // A request that stops early, timed out or panicked, leaves the
        // tenant's cursor where a completed one would: its abort point
        // never leaks into the tenant's later results. Every query reseeds
        // what it reads (the tree-walk's context each sample, the kernel
        // scratch each column), so nothing else of a panic outlives it.
        *cursor = if panicked || matches!(result, Err(ServeError::Timeout)) {
            start + spent
        } else {
            session
                .query_index()
                .expect("shard sessions are substream-seeded")
        };
        result
    };
    if matches!(result, Err(ServeError::Timeout)) {
        stats.timeouts.inc();
    }
    stats.requests.inc();
    if let Some(tr) = tracer {
        flight.offer(tr.finish(&result));
    }
    // A dropped receiver means the caller gave up; the work is done either
    // way, and per-tenant stream state is already consistent.
    reply.send(Reply {
        result,
        trace_id: trace.map(|c| c.trace_id),
    });
}

/// Shadow-audits an exact decision: re-decides the same conditional on a
/// freshly seeded, sampling-only session drawn from the tenant's *audit*
/// substream ([`AUDIT_SALT`] keeps it disjoint from the tenant's real
/// stream, so auditing can never perturb tenant-visible results). Runs
/// only for traced requests whose verdict carried exact provenance, and
/// only for the deterministic `audit_fraction` slice of trace ids.
fn maybe_audit(
    tr: &mut RequestTracer,
    tenant: u64,
    cond: &Uncertain<bool>,
    threshold: f64,
    outcome: &HypothesisOutcome,
    config: &ServeConfig,
) {
    if !outcome.provenance.is_exact() || config.audit_fraction <= 0.0 {
        return;
    }
    // Deterministic selection from the trace id: the same traced request
    // is audited (or not) on every replay, independent of topology.
    let slice = (mix64(tr.trace_id()) >> 11) as f64 / (1u64 << 53) as f64;
    if slice >= config.audit_fraction {
        return;
    }
    let started = monotonic_ns();
    let eval = config.eval.with_strategy(EvalStrategy::SamplingOnly);
    let mut shadow =
        Session::seeded(mix64(tenant_seed(config.seed, tenant) ^ AUDIT_SALT)).with_config(eval);
    if let Ok(Some(sampled)) = shadow.try_evaluate_until(cond, threshold, &eval, |_| true) {
        // Only a *conclusive* sampled verdict can contradict the exact
        // one; an inconclusive SPRT is recorded but is not a mismatch.
        let mismatch = sampled.conclusive && sampled.accepted != outcome.accepted;
        tr.audit(started, &sampled, mismatch);
    }
}

/// The message a panic was raised with, when it carried one.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message")
}

/// Maps a core evaluation error onto the service's wire-expressible error
/// surface: parameter errors keep their payload, everything else (e.g.
/// `NotAnalytic` under an `ExactOnly` request) crosses as an invalid
/// request with its display text.
fn invalid(e: Error) -> ServeError {
    match e {
        Error::Stats(s) => ServeError::Invalid(s),
        other => ServeError::Invalid(StatsError::new(other.to_string())),
    }
}

/// One SPRT decision with cooperative deadline checks between batches.
/// Whether it completes or aborts, it consumes exactly one query index, so
/// later queries are bitwise unaffected by the abort point. Under an
/// [`EvalStrategy::Auto`]/[`EvalStrategy::ExactOnly`] config, recognized
/// analytic graphs decide in closed form with zero samples (counted in
/// the shard's `exact_decisions`).
fn decide(
    session: &mut Session,
    cond: &Uncertain<bool>,
    threshold: f64,
    eval: &EvalConfig,
    deadline: Option<Instant>,
    stats: &ShardStats,
) -> Result<HypothesisOutcome, ServeError> {
    match session.try_evaluate_until(cond, threshold, eval, |_| !expired(deadline)) {
        Err(e) => Err(invalid(e)),
        Ok(None) => Err(ServeError::Timeout),
        Ok(Some(outcome)) => {
            stats.decisions.inc();
            if outcome.provenance.is_exact() {
                stats.exact_decisions.inc();
            }
            stats.sprt_samples.add(outcome.samples as u64);
            Ok(outcome)
        }
    }
}

/// Routes an `e` request: closed-form mean with zero samples when the
/// strategy admits the analytic backend and the graph is recognized,
/// chunked sampling otherwise; `ExactOnly` on an unrecognized graph is an
/// invalid request.
fn e_request(
    session: &mut Session,
    expr: &Uncertain<f64>,
    n: usize,
    eval: &EvalConfig,
    deadline: Option<Instant>,
    stats: &ShardStats,
) -> Result<f64, ServeError> {
    if eval.strategy != EvalStrategy::SamplingOnly && session.analyze_f64(expr).is_some() {
        let mean = session.try_e(expr, n).map_err(invalid)?;
        stats.exact_decisions.inc();
        return Ok(mean);
    }
    if eval.strategy == EvalStrategy::ExactOnly {
        return Err(invalid(Error::from(uncertain_core::NotAnalyticError {
            query: "e",
        })));
    }
    chunked_samples(session, expr, n, deadline)
        .map(|samples| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Routes a `stats` request like [`e_request`]; the exact path needs the
/// full shape, so it fires only for all-Gaussian laws.
fn stats_request(
    session: &mut Session,
    expr: &Uncertain<f64>,
    n: usize,
    eval: &EvalConfig,
    deadline: Option<Instant>,
    stats: &ShardStats,
) -> Result<Summary, ServeError> {
    if eval.strategy != EvalStrategy::SamplingOnly
        && session.analyze_f64(expr).is_some_and(|law| law.gaussian)
    {
        let outcome = session.stats_with_provenance(expr, n).map_err(invalid)?;
        stats.exact_decisions.inc();
        return Ok(outcome.summary);
    }
    if eval.strategy == EvalStrategy::ExactOnly {
        return Err(invalid(Error::from(uncertain_core::NotAnalyticError {
            query: "stats",
        })));
    }
    chunked_samples(session, expr, n, deadline)
        .and_then(|samples| Summary::from_slice(&samples).map_err(ServeError::Invalid))
}

/// Draws `n` joint samples in [`SAMPLE_CHUNK`]-sized queries, one query
/// index each, checking the deadline between chunks. On a timeout,
/// `process` moves the cursor on to where all `ceil(n / SAMPLE_CHUNK)`
/// chunks would have left it.
fn chunked_samples(
    session: &mut Session,
    expr: &Uncertain<f64>,
    n: usize,
    deadline: Option<Instant>,
) -> Result<Vec<f64>, ServeError> {
    let mut out = Vec::with_capacity(n);
    let mut remaining = n;
    while remaining > 0 {
        if expired(deadline) {
            return Err(ServeError::Timeout);
        }
        let take = remaining.min(SAMPLE_CHUNK);
        out.extend(session.samples(expr, take));
        remaining -= take;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

pub(crate) struct ShardHandle {
    /// `None` once shutdown has begun; taking the sender out is what lets
    /// the shard's `recv` loop terminate after draining.
    pub(crate) tx: Mutex<Option<SyncSender<Job>>>,
    pub(crate) stats: Arc<ShardStats>,
}

pub(crate) struct Inner {
    pub(crate) config: ServeConfig,
    pub(crate) shards: Vec<ShardHandle>,
    pub(crate) accepting: AtomicBool,
    pub(crate) started: Instant,
    /// Network-edge counters, shared with every [`Listener`] the service
    /// opens (all zeros when the service is used purely in-process).
    pub(crate) net: Arc<NetStats>,
    /// The service's flight recorder: shard workers offer completed
    /// traced requests; the `/traces` endpoints read retained ones.
    pub(crate) flight: Arc<FlightRecorder>,
}

impl Inner {
    pub(crate) fn metrics(&self) -> ServeMetrics {
        ServeMetrics {
            shards: self.shards.iter().map(|s| s.stats.snapshot()).collect(),
            net: self.net.snapshot(),
            flight: self.flight.stats(),
            elapsed: self.started.elapsed(),
        }
    }
}

/// A running sharded evaluation service. See the crate docs for the
/// architecture; [`Service::client`] hands out cheap cloneable handles,
/// [`Service::shutdown`] drains and stops it.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Spawns the shard workers and starts accepting requests.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.queue_depth` is zero — a
    /// service with no workers or no queue cannot serve anything.
    pub fn start(config: ServeConfig) -> Self {
        assert!(config.shards > 0, "a service needs at least one shard");
        assert!(config.queue_depth > 0, "request queues need depth >= 1");
        let flight = Arc::new(FlightRecorder::new(config.flight));
        let mut shards = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for shard_index in 0..config.shards {
            let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth);
            let stats = Arc::new(ShardStats::default());
            let worker_stats = Arc::clone(&stats);
            let worker_config = config.clone();
            let worker_flight = Arc::clone(&flight);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("shard-{shard_index}"))
                    .spawn(move || {
                        run_shard(rx, worker_stats, worker_config, worker_flight, shard_index)
                    })
                    .expect("failed to spawn a shard worker thread"),
            );
            shards.push(ShardHandle {
                tx: Mutex::new(Some(tx)),
                stats,
            });
        }
        Self {
            inner: Arc::new(Inner {
                config,
                shards,
                accepting: AtomicBool::new(true),
                started: Instant::now(),
                net: Arc::new(NetStats::default()),
                flight,
            }),
            workers,
        }
    }

    /// A new client handle. Handles are independent and cheap; all of them
    /// route a given tenant to the same shard.
    pub fn client(&self) -> ServeClient {
        ServeClient::new(Arc::clone(&self.inner))
    }

    /// Starts accepting TCP clients on the config's `bind_addr` (use
    /// `"127.0.0.1:0"` to let the OS pick a free port, then
    /// [`Listener::local_addr`] to learn it).
    ///
    /// One socket speaks both protocols, sniffed from the connection
    /// preamble: the `UNC1` magic starts the binary request protocol (see
    /// [`TcpTransport`](crate::TcpTransport)), while `GET ` serves one
    /// plain-text Prometheus scrape of [`Service::metrics`] and closes.
    /// The listener's lifetime is independent of the service handle's
    /// methods: dropping (or [`Listener::shutdown`]ting) it stops the
    /// network edge, finishes in-flight replies, and leaves the service
    /// itself running.
    pub fn listen(&self) -> Result<Listener, ServeError> {
        Listener::bind(Arc::clone(&self.inner))
    }

    /// A live metrics snapshot. Request/decision counters are exact; the
    /// plan-cache gauges refresh at every request boundary, so they lag at
    /// most the request currently executing. [`Service::shutdown`]'s snapshot is exact.
    pub fn metrics(&self) -> ServeMetrics {
        self.inner.metrics()
    }

    /// The most recent `limit` traces the flight recorder retained,
    /// newest last — the in-process form of `GET /traces`.
    pub fn traces(&self, limit: usize) -> Vec<Arc<uncertain_obs::RequestTrace>> {
        self.inner.flight.recent(limit)
    }

    /// Looks up one retained trace by id — the in-process form of
    /// `GET /traces/<id>`. `None` if the policy dropped it or the ring
    /// has since evicted it.
    pub fn trace(&self, trace_id: u64) -> Option<Arc<uncertain_obs::RequestTrace>> {
        self.inner.flight.get(trace_id)
    }

    /// Graceful shutdown: stops admitting, lets every already-queued
    /// request run to a real reply (in-flight work is drained, not
    /// dropped), joins the workers, and returns the final metrics.
    pub fn shutdown(mut self) -> ServeMetrics {
        self.stop();
        self.inner.metrics()
    }

    fn stop(&mut self) {
        self.inner.accepting.store(false, Ordering::SeqCst);
        for shard in &self.inner.shards {
            shard.tx.lock().expect("shard sender lock").take();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop();
    }
}
