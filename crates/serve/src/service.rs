//! The service runtime: shard workers, per-shard session pools, request
//! execution, and lifecycle (start → drain → shutdown).

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use uncertain_core::{
    CacheStats, Error, EvalConfig, EvalStrategy, HypothesisOutcome, ServeError, Session, Uncertain,
};
use uncertain_obs::{monotonic_ns, FlightRecorder, TraceContext, TraceLog};
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
// Per-shard session pool
// ---------------------------------------------------------------------------

struct PoolEntry {
    tenant: u64,
    session: Session,
    last_used: u64,
}

/// A bounded LRU pool of tenant sessions plus the query cursors of every
/// tenant this shard has ever served. The cursor map is what makes
/// eviction safe: a rebuilt session resumes at its stored cursor and draws
/// bitwise the stream the evicted one would have.
struct SessionPool {
    service_seed: u64,
    eval: EvalConfig,
    capacity: usize,
    entries: Vec<PoolEntry>,
    cursors: HashMap<u64, u64>,
    /// Hit/miss/eviction history of evicted sessions' plan caches
    /// (occupancy fields zeroed — an evicted cache holds nothing).
    retired_cache: CacheStats,
    evicted: u64,
    tick: u64,
}

impl SessionPool {
    fn new(service_seed: u64, eval: EvalConfig, capacity: usize) -> Self {
        Self {
            service_seed,
            eval,
            capacity,
            entries: Vec::with_capacity(capacity),
            cursors: HashMap::new(),
            retired_cache: CacheStats::default(),
            evicted: 0,
            tick: 0,
        }
    }

    /// The tenant's session, rebuilt at its stored cursor if it was
    /// evicted (or never seen). Evicts the least-recently-used entry when
    /// the pool is full.
    fn session(&mut self, tenant: u64) -> &mut Session {
        self.tick += 1;
        let tick = self.tick;
        if let Some(i) = self.entries.iter().position(|e| e.tenant == tenant) {
            self.entries[i].last_used = tick;
            return &mut self.entries[i].session;
        }
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("pool is non-empty when full");
            let entry = self.entries.swap_remove(lru);
            let cursor = entry
                .session
                .query_index()
                .expect("pool sessions are substream-seeded");
            self.cursors.insert(entry.tenant, cursor);
            let mut cache = entry.session.cache_stats();
            cache.entries = 0;
            cache.capacity = 0;
            self.retired_cache += cache;
            self.evicted += 1;
        }
        let mut session =
            Session::seeded(tenant_seed(self.service_seed, tenant)).with_config(self.eval);
        if let Some(&cursor) = self.cursors.get(&tenant) {
            session.resume_at(cursor);
        }
        self.entries.push(PoolEntry {
            tenant,
            session,
            last_used: tick,
        });
        &mut self.entries.last_mut().expect("just pushed").session
    }

    /// Plan-cache counters over the whole pool: live sessions plus the
    /// history of evicted ones.
    fn cache_totals(&self) -> CacheStats {
        self.retired_cache
            + self
                .entries
                .iter()
                .map(|e| e.session.cache_stats())
                .sum::<CacheStats>()
    }
}

// ---------------------------------------------------------------------------
// Shard worker
// ---------------------------------------------------------------------------

fn run_shard(
    rx: Receiver<Job>,
    stats: Arc<ShardStats>,
    config: ServeConfig,
    flight: Arc<FlightRecorder>,
    shard_index: usize,
) {
    let mut pool = SessionPool::new(config.seed, config.eval, config.sessions_per_shard.max(1));
    loop {
        let next = rx.try_recv().or_else(|_| {
            // Publish before blocking: an idle shard's pool gauges stay
            // exact while it waits, so remote-only workloads (where
            // nothing else forces a request boundary here) never scrape
            // stale cache/session numbers.
            stats.publish_cache(pool.cache_totals(), pool.entries.len(), pool.evicted);
            // `recv` keeps returning queued jobs after every sender is
            // dropped, then errors: shutdown drains the queue for free.
            rx.recv()
        });
        let Ok(job) = next else { break };
        stats.queue_depth.dec();
        stats
            .queue_wait_ns
            .record(monotonic_ns().saturating_sub(job.enqueued_ns));
        process(&mut pool, &stats, job, &flight, &config, shard_index);
        // Publish the pool-derived gauges at every request boundary: the
        // walk is O(pool size), a rounding error next to any request that
        // drew samples, and it keeps cache/session gauges current on a
        // shard that never goes idle.
        stats.publish_cache(pool.cache_totals(), pool.entries.len(), pool.evicted);
    }
    stats.publish_cache(pool.cache_totals(), pool.entries.len(), pool.evicted);
}

fn process(
    pool: &mut SessionPool,
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
    // Expired in the queue: reject without touching the tenant's session
    // (no query index is consumed — the tenant's stream is exactly as if
    // the request was never admitted). Such a request contributes only
    // queue-wait time, not compile/sampling observations.
    let result = if expired(deadline) {
        Err(ServeError::Timeout)
    } else {
        let eval = match strategy {
            Some(s) => pool.eval.with_strategy(s),
            None => pool.eval,
        };
        let service_seed = pool.service_seed;
        let base_eval = pool.eval;
        let session = pool.session(tenant);
        // The request's effective config also becomes the session config
        // for its duration, so strategy-aware session queries (`try_e`,
        // `stats_with_provenance`) see the per-request override. Every
        // request sets it, so a previous override never leaks forward.
        session.set_config(eval);
        let start = session
            .query_index()
            .expect("pool sessions are substream-seeded");
        // A `pr` is an `evaluate` that replies with the verdict alone.
        let verdict_only = matches!(kind, RequestKind::Pr { .. });
        // The query indices a completed request of this kind consumes.
        let spent = match &kind {
            RequestKind::Evaluate { .. } | RequestKind::Pr { .. } => 1,
            RequestKind::E { n, .. } | RequestKind::Stats { n, .. } => {
                n.div_ceil(SAMPLE_CHUNK) as u64
            }
        };
        let work_started = Instant::now();
        let work_started_ns = if tracer.is_some() { monotonic_ns() } else { 0 };
        let builds_before = session.plan_build_ns();
        // User code runs inside (closures, `condition_on`'s rejection
        // budget), so a request may panic; the shard must outlive it.
        let ran = panic::catch_unwind(AssertUnwindSafe(|| match kind {
            RequestKind::Evaluate { cond, threshold } | RequestKind::Pr { cond, threshold } => {
                let r = decide(
                    session,
                    &cond,
                    threshold,
                    &eval,
                    deadline,
                    stats,
                    &mut tracer,
                );
                if let Some(tr) = tracer.as_mut() {
                    maybe_audit(
                        tr,
                        service_seed,
                        tenant,
                        &cond,
                        threshold,
                        base_eval,
                        config,
                    );
                }
                r.map(|o| {
                    if verdict_only {
                        Response::Decision(o.accepted)
                    } else {
                        Response::Outcome(o)
                    }
                })
            }
            RequestKind::E { expr, n } => {
                e_request(session, &expr, n, &eval, deadline, stats, &mut tracer)
                    .map(Response::Mean)
            }
            RequestKind::Stats { expr, n } => {
                stats_request(session, &expr, n, &eval, deadline, stats, &mut tracer)
                    .map(Response::Summary)
            }
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
        if let Some(tr) = tracer.as_mut() {
            tr.compile(work_started_ns, compile_ns);
        }
        let panicked = ran.is_err();
        let result = ran.unwrap_or_else(|payload| {
            // The trace recorder a traced decision installed goes too.
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
        if panicked || matches!(result, Err(ServeError::Timeout)) {
            session.resume_at(start + spent);
        }
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
    service_seed: u64,
    tenant: u64,
    cond: &Uncertain<bool>,
    threshold: f64,
    base_eval: EvalConfig,
    config: &ServeConfig,
) {
    let Some(outcome) = tr.outcome else { return };
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
    let eval = base_eval.with_strategy(EvalStrategy::SamplingOnly);
    let mut shadow =
        Session::seeded(mix64(tenant_seed(service_seed, tenant) ^ AUDIT_SALT)).with_config(eval);
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
    tracer: &mut Option<RequestTracer>,
) -> Result<HypothesisOutcome, ServeError> {
    // Traced decisions temporarily install a TraceLog recorder so the
    // SPRT's batch trajectory lands in the span as events. Recorders are
    // proven not to perturb sample streams (the runtime draws the same
    // batches with or without one), so the sampled values — and therefore
    // the verdict — are bitwise identical tracing on or off. No other
    // recorder can be present: the pool builds its sessions without one,
    // and this is the only place that installs one, taking it back below
    // (or in `process`, if the decision panicked).
    let (started_ns, log) = match tracer {
        Some(_) => {
            let log = TraceLog::new();
            session.install_recorder(Box::new(log.clone()));
            (monotonic_ns(), Some(log))
        }
        None => (0, None),
    };
    let decided = session.try_evaluate_until(cond, threshold, eval, |_| !expired(deadline));
    if let Some(log) = log {
        session.take_recorder();
        if let Some(tr) = tracer.as_mut() {
            let traces = log.take();
            tr.decide(
                started_ns,
                session.last_dispatch(),
                traces.last(),
                decided.as_ref().ok().and_then(|o| o.as_ref()),
            );
        }
    }
    match decided {
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
    tracer: &mut Option<RequestTracer>,
) -> Result<f64, ServeError> {
    if n == 0 {
        return Err(ServeError::Invalid(StatsError::new(
            "sample requests need n >= 1",
        )));
    }
    if eval.strategy != EvalStrategy::SamplingOnly && session.analyze_f64(expr).is_some() {
        let started_ns = tracer.as_ref().map(|_| monotonic_ns());
        let mean = session.try_e(expr, n).map_err(invalid)?;
        stats.exact_decisions.inc();
        if let Some(tr) = tracer.as_mut() {
            tr.exact(started_ns.unwrap_or(0));
        }
        return Ok(mean);
    }
    if eval.strategy == EvalStrategy::ExactOnly {
        return Err(invalid(Error::from(uncertain_core::NotAnalyticError {
            query: "e",
        })));
    }
    chunked_samples(session, expr, n, deadline, tracer)
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
    tracer: &mut Option<RequestTracer>,
) -> Result<Summary, ServeError> {
    if eval.strategy != EvalStrategy::SamplingOnly
        && session.analyze_f64(expr).is_some_and(|law| law.gaussian)
    {
        let started_ns = tracer.as_ref().map(|_| monotonic_ns());
        let outcome = session.stats_with_provenance(expr, n).map_err(invalid)?;
        stats.exact_decisions.inc();
        if let Some(tr) = tracer.as_mut() {
            tr.exact(started_ns.unwrap_or(0));
        }
        return Ok(outcome.summary);
    }
    if eval.strategy == EvalStrategy::ExactOnly {
        return Err(invalid(Error::from(uncertain_core::NotAnalyticError {
            query: "stats",
        })));
    }
    chunked_samples(session, expr, n, deadline, tracer)
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
    tracer: &mut Option<RequestTracer>,
) -> Result<Vec<f64>, ServeError> {
    if n == 0 {
        return Err(ServeError::Invalid(uncertain_stats::StatsError::new(
            "sample requests need n >= 1",
        )));
    }
    let mut out = Vec::with_capacity(n);
    let mut remaining = n;
    let mut chunk_index = 0u64;
    while remaining > 0 {
        if expired(deadline) {
            return Err(ServeError::Timeout);
        }
        let take = remaining.min(SAMPLE_CHUNK);
        let started_ns = tracer.as_ref().map(|_| monotonic_ns());
        out.extend(session.samples(expr, take));
        if let Some(tr) = tracer.as_mut() {
            tr.chunk(started_ns.unwrap_or(0), chunk_index, take as u64);
        }
        remaining -= take;
        chunk_index += 1;
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
    /// Panics if `config.shards`, `config.queue_depth`, or
    /// `config.sessions_per_shard` is zero — a service with no workers, no
    /// queue, or no tenancy cannot serve anything.
    pub fn start(config: ServeConfig) -> Self {
        assert!(config.shards > 0, "a service needs at least one shard");
        assert!(config.queue_depth > 0, "request queues need depth >= 1");
        assert!(
            config.sessions_per_shard > 0,
            "shards need room for at least one session"
        );
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

    /// A live metrics snapshot. Request/decision counters are exact;
    /// pool-derived gauges (plan-cache counters, live/evicted sessions)
    /// refresh at every request boundary, so they lag at most the request
    /// currently executing. [`Service::shutdown`]'s snapshot is exact.
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
