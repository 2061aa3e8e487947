//! Service observability, built on the `uncertain-obs` primitives:
//! lock-light per-shard counters/gauges, log-bucketed latency histograms
//! splitting each request into queue-wait / compile / sampling time,
//! and the aggregated snapshot handed to callers — renderable as a
//! Prometheus scrape body via [`ServeMetrics::render_prometheus`].

use std::time::Duration;
use uncertain_core::CacheStats;
use uncertain_obs::{Counter, FlightStats, Gauge, HistogramSnapshot, LogHistogram, PromWriter};

/// Shared mutable metrics of one shard. The shard worker owns the write
/// side (except `queue_depth` and `rejected`, maintained at the client
/// edge); snapshots read with relaxed ordering — metrics are advisory.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    pub(crate) queue_depth: Gauge,
    pub(crate) requests: Counter,
    pub(crate) decisions: Counter,
    pub(crate) exact_decisions: Counter,
    pub(crate) sprt_samples: Counter,
    pub(crate) timeouts: Counter,
    pub(crate) rejected: Counter,
    // Plan-cache gauges, published by the shard worker from its session.
    cache_hits: Gauge,
    cache_misses: Gauge,
    cache_evictions: Gauge,
    cache_entries: Gauge,
    cache_capacity: Gauge,
    /// Time from admission to dequeue, per request.
    pub(crate) queue_wait_ns: LogHistogram,
    /// Kernel-lowering time per executed request (0 on a warm cache).
    pub(crate) compile_ns: LogHistogram,
    /// Execution time net of compilation, per executed request.
    pub(crate) sampling_ns: LogHistogram,
}

impl ShardStats {
    /// Publishes the shard session's plan-cache counters.
    pub(crate) fn publish_cache(&self, cache: CacheStats) {
        self.cache_hits.set(cache.hits as i64);
        self.cache_misses.set(cache.misses as i64);
        self.cache_evictions.set(cache.evictions as i64);
        self.cache_entries.set(cache.entries as i64);
        self.cache_capacity.set(cache.capacity as i64);
    }

    pub(crate) fn snapshot(&self) -> ShardMetrics {
        ShardMetrics {
            queue_depth: self.queue_depth.get().max(0) as usize,
            requests: self.requests.get(),
            decisions: self.decisions.get(),
            exact_decisions: self.exact_decisions.get(),
            sprt_samples: self.sprt_samples.get(),
            timeouts: self.timeouts.get(),
            rejected: self.rejected.get(),
            cache: CacheStats {
                hits: self.cache_hits.get() as u64,
                misses: self.cache_misses.get() as u64,
                evictions: self.cache_evictions.get() as u64,
                entries: self.cache_entries.get() as usize,
                capacity: self.cache_capacity.get() as usize,
            },
            queue_wait: self.queue_wait_ns.snapshot(),
            compile: self.compile_ns.snapshot(),
            sampling: self.sampling_ns.snapshot(),
        }
    }
}

/// Shared mutable counters of the service's network edge, maintained by
/// [`Listener`](crate::Listener) connection handlers on accept/close and
/// per frame. All zeros for a service never exposed on a socket.
#[derive(Debug, Default)]
pub(crate) struct NetStats {
    /// Connections currently open (binary and HTTP alike).
    pub(crate) connections_open: Gauge,
    pub(crate) accepted: Counter,
    pub(crate) closed: Counter,
    pub(crate) frames_in: Counter,
    pub(crate) frames_out: Counter,
    pub(crate) wire_errors: Counter,
    pub(crate) http_scrapes: Counter,
    /// Accept pauses forced by fd exhaustion (`EMFILE`/`ENFILE`).
    pub(crate) accept_stalls: Counter,
    /// Times an event loop woke from its poll wait with work to do.
    pub(crate) event_loop_wakeups: Counter,
    /// Socket reads that left a frame incomplete in a connection's
    /// incremental decoder.
    pub(crate) partial_reads: Counter,
    /// Write flushes that coalesced two or more reply frames into one
    /// syscall.
    pub(crate) writev_batches: Counter,
    /// Connections handed to an event loop and registered with its
    /// poller, lifetime.
    pub(crate) connections_registered: Counter,
}

impl NetStats {
    pub(crate) fn snapshot(&self) -> NetMetrics {
        NetMetrics {
            connections_open: self.connections_open.get().max(0) as usize,
            accepted: self.accepted.get(),
            closed: self.closed.get(),
            frames_in: self.frames_in.get(),
            frames_out: self.frames_out.get(),
            wire_errors: self.wire_errors.get(),
            http_scrapes: self.http_scrapes.get(),
            accept_stalls: self.accept_stalls.get(),
            event_loop_wakeups: self.event_loop_wakeups.get(),
            partial_reads: self.partial_reads.get(),
            writev_batches: self.writev_batches.get(),
            connections_registered: self.connections_registered.get(),
        }
    }
}

/// Point-in-time counters of the service's network edge. Published on
/// connection accept/close events and per decoded/encoded frame, so they
/// are exact whenever no frame is mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetMetrics {
    /// TCP connections currently open.
    pub connections_open: usize,
    /// Connections accepted over the listener's lifetime.
    pub accepted: u64,
    /// Connections closed over the listener's lifetime.
    pub closed: u64,
    /// Request frames decoded off sockets.
    pub frames_in: u64,
    /// Response frames written to sockets.
    pub frames_out: u64,
    /// Frames rejected as malformed, truncated, or unsupported.
    pub wire_errors: u64,
    /// Prometheus scrapes served over the HTTP side of the port.
    pub http_scrapes: u64,
    /// Accept pauses forced by fd exhaustion (`EMFILE`/`ENFILE`): each
    /// stall backs the accept loop off instead of killing it.
    pub accept_stalls: u64,
    /// Times an event loop woke from its poll wait with work to do
    /// (socket readiness, a completed reply, or a shutdown signal).
    pub event_loop_wakeups: u64,
    /// Socket reads that ended with a frame still incomplete in the
    /// connection's incremental decoder — the partial reads the
    /// event-driven decode path exists to tolerate.
    pub partial_reads: u64,
    /// Write flushes that coalesced two or more pipelined reply frames
    /// into a single syscall.
    pub writev_batches: u64,
    /// Connections registered with an event loop's poller, lifetime.
    pub connections_registered: u64,
}

/// Point-in-time counters of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Requests currently queued (admitted, not yet dequeued).
    pub queue_depth: usize,
    /// Requests answered, whatever the outcome.
    pub requests: u64,
    /// SPRT decisions completed (`evaluate`/`pr` requests that ran to a
    /// verdict rather than timing out or being rejected as invalid).
    pub decisions: u64,
    /// Requests answered by the analytic backend in closed form with
    /// zero samples (decisions plus exact `e`/`stats` replies), under an
    /// `Auto`/`ExactOnly` strategy.
    pub exact_decisions: u64,
    /// Joint samples drawn by completed SPRT decisions.
    pub sprt_samples: u64,
    /// Requests that expired — in the queue or mid-decision.
    pub timeouts: u64,
    /// Requests refused at the edge because the queue was full.
    pub rejected: u64,
    /// Plan-cache counters of the shard's session, which all of the
    /// shard's tenants share.
    pub cache: CacheStats,
    /// Admission-to-dequeue latency, per request (nanoseconds).
    pub queue_wait: HistogramSnapshot,
    /// Kernel-lowering time per executed request (nanoseconds; 0 when
    /// every kernel came from the session's cache, or its network was
    /// already known not to lower).
    pub compile: HistogramSnapshot,
    /// Execution time net of compilation, per executed request
    /// (nanoseconds) — SPRT sampling for `evaluate`/`pr`, chunked
    /// drawing for `e`/`stats`.
    pub sampling: HistogramSnapshot,
}

/// A service-wide metrics snapshot: per-shard counters plus the service
/// uptime they were collected over.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardMetrics>,
    /// Network-edge counters (all zeros for an in-process-only service).
    pub net: NetMetrics,
    /// Flight-recorder activity (all zeros when no request ever carried
    /// a sampled trace context).
    pub flight: FlightStats,
    /// Time since [`Service::start`](crate::Service::start).
    pub elapsed: Duration,
}

impl ServeMetrics {
    /// Total requests answered.
    pub fn requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Total SPRT decisions completed.
    pub fn decisions(&self) -> u64 {
        self.shards.iter().map(|s| s.decisions).sum()
    }

    /// Total requests answered analytically with zero samples.
    pub fn exact_decisions(&self) -> u64 {
        self.shards.iter().map(|s| s.exact_decisions).sum()
    }

    /// Total joint samples drawn by completed decisions.
    pub fn sprt_samples(&self) -> u64 {
        self.shards.iter().map(|s| s.sprt_samples).sum()
    }

    /// Total expired requests.
    pub fn timeouts(&self) -> u64 {
        self.shards.iter().map(|s| s.timeouts).sum()
    }

    /// Total requests shed by full queues.
    pub fn rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected).sum()
    }

    /// Aggregate decision throughput over the service's lifetime.
    pub fn decisions_per_sec(&self) -> f64 {
        self.decisions() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Plan-cache counters summed across every shard's session.
    pub fn cache(&self) -> CacheStats {
        self.shards.iter().map(|s| s.cache).sum()
    }

    /// Fraction of plan-cache lookups that found the network's kernel,
    /// service-wide (`0.0` before any lookup happened).
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache().hit_rate()
    }

    /// Per-shard queue occupancy, in shard order.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.queue_depth).collect()
    }

    /// Always 0: a shard serves every tenant from one session and evicts
    /// none. Kept only because the repository benchmark reports it as
    /// `service.sessions_evicted`; the next change to the benchmark drops
    /// both.
    pub fn sessions_evicted(&self) -> u64 {
        0
    }

    fn pooled(&self, pick: impl Fn(&ShardMetrics) -> HistogramSnapshot) -> HistogramSnapshot {
        self.shards
            .iter()
            .map(&pick)
            .fold(HistogramSnapshot::default(), |acc, s| acc.merge(&s))
    }

    /// Admission-to-dequeue latency pooled over shards (`count`/`sum`/
    /// `max` exact; quantiles are per-shard maxima, a conservative upper
    /// estimate).
    pub fn queue_wait(&self) -> HistogramSnapshot {
        self.pooled(|s| s.queue_wait)
    }

    /// Plan-compile time per executed request, pooled over shards.
    pub fn compile(&self) -> HistogramSnapshot {
        self.pooled(|s| s.compile)
    }

    /// Execution time net of compilation, pooled over shards.
    pub fn sampling(&self) -> HistogramSnapshot {
        self.pooled(|s| s.sampling)
    }

    /// The snapshot as a Prometheus text-exposition scrape body
    /// (format 0.0.4): counters and gauges service-wide, queue depth as
    /// one series per shard, and the three request-phase latency
    /// histograms as summaries with p50/p90/p99/max quantiles.
    pub fn render_prometheus(&self) -> String {
        let cache = self.cache();
        let mut w = PromWriter::new();
        w.counter(
            "uncertain_requests_total",
            "Requests answered, whatever the outcome.",
            self.requests(),
        );
        w.counter(
            "uncertain_decisions_total",
            "SPRT decisions run to a verdict.",
            self.decisions(),
        );
        w.counter(
            "uncertain_decisions_exact_total",
            "Requests answered by the analytic backend with zero samples.",
            self.exact_decisions(),
        );
        w.counter(
            "uncertain_sprt_samples_total",
            "Joint samples drawn by completed SPRT decisions.",
            self.sprt_samples(),
        );
        w.counter(
            "uncertain_timeouts_total",
            "Requests that expired in the queue or mid-computation.",
            self.timeouts(),
        );
        w.counter(
            "uncertain_rejected_total",
            "Requests refused at admission because a queue was full.",
            self.rejected(),
        );
        w.counter(
            "uncertain_plan_cache_hits_total",
            "Plan-cache lookups that found the network's kernel.",
            cache.hits,
        );
        w.counter(
            "uncertain_plan_cache_misses_total",
            "Plan-cache lookups that found no kernel (lowered, or run on the tree-walk).",
            cache.misses,
        );
        w.counter(
            "uncertain_plan_cache_evictions_total",
            "Cached kernels dropped by cache pressure.",
            cache.evictions,
        );
        w.gauge(
            "uncertain_plan_cache_hit_rate",
            "Fraction of plan-cache lookups that found the network's kernel.",
            self.cache_hit_rate(),
        );
        w.gauge(
            "uncertain_plan_cache_entries",
            "Kernels currently cached across shard sessions.",
            cache.entries as f64,
        );
        w.gauge_per(
            "uncertain_queue_depth",
            "Requests admitted but not yet dequeued.",
            "shard",
            &self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| (i.to_string(), s.queue_depth as f64))
                .collect::<Vec<_>>(),
        );
        w.summary(
            "uncertain_queue_wait_ns",
            "Admission-to-dequeue latency per request.",
            &self.queue_wait(),
        );
        w.summary(
            "uncertain_compile_ns",
            "Kernel-lowering time per executed request.",
            &self.compile(),
        );
        w.summary(
            "uncertain_sampling_ns",
            "Execution time net of compilation per executed request.",
            &self.sampling(),
        );
        w.gauge(
            "uncertain_net_connections",
            "TCP connections currently open.",
            self.net.connections_open as f64,
        );
        w.counter(
            "uncertain_net_accepted_total",
            "TCP connections accepted.",
            self.net.accepted,
        );
        w.counter(
            "uncertain_net_closed_total",
            "TCP connections closed.",
            self.net.closed,
        );
        w.counter(
            "uncertain_net_frames_in_total",
            "Request frames decoded off sockets.",
            self.net.frames_in,
        );
        w.counter(
            "uncertain_net_frames_out_total",
            "Response frames written to sockets.",
            self.net.frames_out,
        );
        w.counter(
            "uncertain_net_wire_errors_total",
            "Frames rejected as malformed, truncated, or unsupported.",
            self.net.wire_errors,
        );
        w.counter(
            "uncertain_net_http_scrapes_total",
            "Prometheus scrapes served over the metrics endpoint.",
            self.net.http_scrapes,
        );
        w.counter(
            "uncertain_net_accept_stalls_total",
            "Accept pauses forced by fd exhaustion (EMFILE/ENFILE).",
            self.net.accept_stalls,
        );
        w.counter(
            "uncertain_net_event_loop_wakeups_total",
            "Event-loop poll wakeups with work to do.",
            self.net.event_loop_wakeups,
        );
        w.counter(
            "uncertain_net_partial_reads_total",
            "Socket reads that left a frame incomplete in the decoder.",
            self.net.partial_reads,
        );
        w.counter(
            "uncertain_net_writev_batches_total",
            "Write flushes that coalesced multiple reply frames.",
            self.net.writev_batches,
        );
        w.counter(
            "uncertain_net_connections_registered_total",
            "Connections registered with an event loop's poller.",
            self.net.connections_registered,
        );
        w.counter(
            "uncertain_traces_offered_total",
            "Completed traced requests offered to the flight recorder.",
            self.flight.offered,
        );
        w.counter(
            "uncertain_traces_retained_total",
            "Traces the tail-based retention policy kept.",
            self.flight.retained,
        );
        w.gauge(
            "uncertain_traces_buffered",
            "Traces currently buffered in the flight recorder's ring.",
            self.flight.buffered as f64,
        );
        w.gauge(
            "uncertain_uptime_seconds",
            "Time since the service started.",
            self.elapsed.as_secs_f64(),
        );
        w.finish()
    }
}
