//! The typed client handle, generic over its [`Transport`].

use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Duration;

use uncertain_core::{EvalStrategy, HypothesisOutcome, ServeError, Uncertain};
use uncertain_obs::TraceContext;
use uncertain_stats::Summary;

use crate::net::TcpTransport;
use crate::service::Inner;
use crate::transport::{
    ChannelTransport, ReplyReceiver, Request, RequestKind, Response, Transport,
};

/// A reply that has been admitted for execution but not yet waited on.
///
/// Returned by the `submit_*` methods; lets one client keep many requests
/// in flight (pipelining), which is how a bounded queue is actually
/// saturated — the shard dequeues back-to-back instead of idling between
/// synchronous round-trips. Per-tenant ordering still holds: a tenant's
/// requests share one FIFO shard queue, so replies complete in the
/// tenant's submission order. The type is transport-agnostic — the reply
/// may come from an in-process shard or from a socket's demux thread, and
/// waiting looks identical either way.
#[must_use = "a pending reply does nothing until waited on"]
pub struct Pending<T> {
    rx: ReplyReceiver,
    map: fn(Response) -> T,
    /// The trace id this request was submitted under, `None` untraced.
    trace_id: Option<u64>,
}

impl<T> Pending<T> {
    /// Blocks until the service answers this request.
    pub fn wait(self) -> Result<T, ServeError> {
        self.wait_traced().map(|(value, _)| value)
    }

    /// Blocks like [`Pending::wait`], also returning the trace id the
    /// service echoed on the reply — the key into `GET /traces/<id>` (or
    /// [`Service::trace`](crate::Service::trace)). `None` when the
    /// request carried no trace context or the reply path dropped the
    /// echo (e.g. a frame rejected before its header was parsed).
    pub fn wait_traced(self) -> Result<(T, Option<u64>), ServeError> {
        let reply = self.rx.recv().map_err(|_| ServeError::Shutdown)?;
        let response = reply.result?;
        Ok(((self.map)(response), reply.trace_id))
    }

    /// The trace id this request was *submitted* under (available before
    /// the reply arrives), `None` for untraced requests.
    pub fn trace_id(&self) -> Option<u64> {
        self.trace_id
    }
}

/// A handle for submitting requests to a [`Service`](crate::Service) —
/// in-process or across a socket.
///
/// Handles are cheap to clone and safe to use from many threads; every
/// handle routes a given tenant to the same shard, so a tenant's requests
/// execute one at a time, in queue order, on one seeded session.
///
/// Each method blocks until the service replies; the `submit_*` variants
/// instead return a [`Pending`] handle so many requests can be kept in
/// flight. `*_within` variants attach a deadline: the request fails with
/// [`ServeError::Timeout`] if it expires in the queue or mid-computation
/// (the timed-out request still consumes the tenant's query indices it
/// would have, so later results are unaffected).
///
/// The handle is a thin typed layer over a [`Transport`]:
/// [`Service::client`](crate::Service::client) builds one over the
/// in-process [`ChannelTransport`], [`ServeClient::connect`] over a
/// [`TcpTransport`], and [`ServeClient::with_transport`] over anything
/// else. The typed surface — and the results it returns — is identical
/// across transports.
#[derive(Clone)]
pub struct ServeClient {
    transport: Arc<dyn Transport>,
}

impl ServeClient {
    /// The in-process constructor [`Service::client`](crate::Service::client)
    /// uses: a [`ChannelTransport`] straight into the shard queues.
    pub(crate) fn new(inner: Arc<Inner>) -> Self {
        Self::with_transport(Arc::new(ChannelTransport::new(inner)))
    }

    /// A client over an arbitrary [`Transport`].
    pub fn with_transport(transport: Arc<dyn Transport>) -> Self {
        Self { transport }
    }

    /// A client over one TCP connection to a service listening at `addr`
    /// (see [`Service::listen`](crate::Service::listen)).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ServeError> {
        Ok(Self::with_transport(Arc::new(TcpTransport::connect(addr)?)))
    }

    /// A client over a pool of `connections` TCP connections; tenants are
    /// hashed across the pool, so per-tenant ordering is preserved while
    /// distinct tenants pipeline on distinct sockets.
    pub fn connect_pooled<A: ToSocketAddrs>(
        addr: A,
        connections: usize,
    ) -> Result<Self, ServeError> {
        Ok(Self::with_transport(Arc::new(
            TcpTransport::connect_pooled(addr, connections)?,
        )))
    }

    /// Full SPRT verdict for `Pr[cond] > threshold` on `tenant`'s session.
    pub fn evaluate(
        &self,
        tenant: u64,
        cond: &Uncertain<bool>,
        threshold: f64,
    ) -> Result<HypothesisOutcome, ServeError> {
        self.submit_evaluate(tenant, cond, threshold, None)?.wait()
    }

    /// [`ServeClient::evaluate`] with a deadline.
    pub fn evaluate_within(
        &self,
        tenant: u64,
        cond: &Uncertain<bool>,
        threshold: f64,
        timeout: Duration,
    ) -> Result<HypothesisOutcome, ServeError> {
        self.submit_evaluate(tenant, cond, threshold, Some(timeout))?
            .wait()
    }

    /// [`ServeClient::evaluate`] with a per-request strategy override —
    /// e.g. [`EvalStrategy::Auto`] to let a recognized analytic graph
    /// answer in closed form with zero samples. The outcome's
    /// `provenance` records which backend actually answered.
    pub fn evaluate_with_strategy(
        &self,
        tenant: u64,
        cond: &Uncertain<bool>,
        threshold: f64,
        strategy: EvalStrategy,
    ) -> Result<HypothesisOutcome, ServeError> {
        self.submit_evaluate_with_strategy(tenant, cond, threshold, None, strategy)?
            .wait()
    }

    /// Pipelined [`ServeClient::evaluate`]: admits the request and returns
    /// without waiting. `QueueFull`/`Shutdown` surface here, at admission;
    /// `Timeout`/`Invalid` surface from [`Pending::wait`].
    pub fn submit_evaluate(
        &self,
        tenant: u64,
        cond: &Uncertain<bool>,
        threshold: f64,
        timeout: Option<Duration>,
    ) -> Result<Pending<HypothesisOutcome>, ServeError> {
        self.submit_evaluate_inner(tenant, cond, threshold, timeout, None)
    }

    /// Pipelined [`ServeClient::evaluate_with_strategy`].
    pub fn submit_evaluate_with_strategy(
        &self,
        tenant: u64,
        cond: &Uncertain<bool>,
        threshold: f64,
        timeout: Option<Duration>,
        strategy: EvalStrategy,
    ) -> Result<Pending<HypothesisOutcome>, ServeError> {
        self.submit_evaluate_inner(tenant, cond, threshold, timeout, Some(strategy))
    }

    fn submit_evaluate_inner(
        &self,
        tenant: u64,
        cond: &Uncertain<bool>,
        threshold: f64,
        timeout: Option<Duration>,
        strategy: Option<EvalStrategy>,
    ) -> Result<Pending<HypothesisOutcome>, ServeError> {
        let kind = RequestKind::Evaluate {
            cond: cond.clone(),
            threshold,
        };
        self.submit(tenant, kind, timeout, strategy, |r| match r {
            Response::Outcome(o) => o,
            _ => unreachable!("evaluate requests yield outcomes"),
        })
    }

    /// [`ServeClient::evaluate`] with request tracing on: the service
    /// records a span tree for the request (queue wait, plan compile, the
    /// SPRT trajectory) under a fresh trace id, offers it to the flight
    /// recorder, and echoes the id on the reply. Returns the outcome and
    /// that id — the key into `GET /traces/<id>`.
    ///
    /// Tracing never changes what is computed: the sampled values, the
    /// verdict, and the tenant's stream position are bitwise identical to
    /// the untraced call.
    pub fn evaluate_traced(
        &self,
        tenant: u64,
        cond: &Uncertain<bool>,
        threshold: f64,
    ) -> Result<(HypothesisOutcome, Option<u64>), ServeError> {
        self.submit_evaluate_traced(tenant, cond, threshold, None)?
            .wait_traced()
    }

    /// Pipelined [`ServeClient::evaluate_traced`]. The submitted trace id
    /// is readable immediately via [`Pending::trace_id`]; the echoed one
    /// comes back from [`Pending::wait_traced`].
    pub fn submit_evaluate_traced(
        &self,
        tenant: u64,
        cond: &Uncertain<bool>,
        threshold: f64,
        timeout: Option<Duration>,
    ) -> Result<Pending<HypothesisOutcome>, ServeError> {
        let kind = RequestKind::Evaluate {
            cond: cond.clone(),
            threshold,
        };
        self.submit_with_trace(
            tenant,
            kind,
            timeout,
            None,
            Some(TraceContext::root()),
            |r| match r {
                Response::Outcome(o) => o,
                _ => unreachable!("evaluate requests yield outcomes"),
            },
        )
    }

    /// The paper's conditional: does the evidence support
    /// `Pr[cond] > threshold`? The same request as
    /// [`ServeClient::evaluate`], keeping only the outcome's `accepted`.
    pub fn pr(
        &self,
        tenant: u64,
        cond: &Uncertain<bool>,
        threshold: f64,
    ) -> Result<bool, ServeError> {
        self.submit_pr(tenant, cond, threshold, None)?.wait()
    }

    /// [`ServeClient::pr`] with a deadline.
    pub fn pr_within(
        &self,
        tenant: u64,
        cond: &Uncertain<bool>,
        threshold: f64,
        timeout: Duration,
    ) -> Result<bool, ServeError> {
        self.submit_pr(tenant, cond, threshold, Some(timeout))?
            .wait()
    }

    /// [`ServeClient::pr`] with a per-request strategy override.
    pub fn pr_with_strategy(
        &self,
        tenant: u64,
        cond: &Uncertain<bool>,
        threshold: f64,
        strategy: EvalStrategy,
    ) -> Result<bool, ServeError> {
        let kind = RequestKind::Evaluate {
            cond: cond.clone(),
            threshold,
        };
        self.submit(tenant, kind, None, Some(strategy), verdict)?
            .wait()
    }

    /// Pipelined [`ServeClient::pr`].
    pub fn submit_pr(
        &self,
        tenant: u64,
        cond: &Uncertain<bool>,
        threshold: f64,
        timeout: Option<Duration>,
    ) -> Result<Pending<bool>, ServeError> {
        let kind = RequestKind::Evaluate {
            cond: cond.clone(),
            threshold,
        };
        self.submit(tenant, kind, timeout, None, verdict)
    }

    /// Expected value of `expr` from `n` joint samples on `tenant`'s
    /// session.
    pub fn e(&self, tenant: u64, expr: &Uncertain<f64>, n: usize) -> Result<f64, ServeError> {
        self.submit_e(tenant, expr, n, None)?.wait()
    }

    /// [`ServeClient::e`] with a deadline.
    pub fn e_within(
        &self,
        tenant: u64,
        expr: &Uncertain<f64>,
        n: usize,
        timeout: Duration,
    ) -> Result<f64, ServeError> {
        self.submit_e(tenant, expr, n, Some(timeout))?.wait()
    }

    /// [`ServeClient::e`] with a per-request strategy override.
    pub fn e_with_strategy(
        &self,
        tenant: u64,
        expr: &Uncertain<f64>,
        n: usize,
        strategy: EvalStrategy,
    ) -> Result<f64, ServeError> {
        let kind = RequestKind::E {
            expr: expr.clone(),
            n,
        };
        self.submit(tenant, kind, None, Some(strategy), |r| match r {
            Response::Mean(m) => m,
            _ => unreachable!("e requests yield means"),
        })?
        .wait()
    }

    /// Pipelined [`ServeClient::e`].
    pub fn submit_e(
        &self,
        tenant: u64,
        expr: &Uncertain<f64>,
        n: usize,
        timeout: Option<Duration>,
    ) -> Result<Pending<f64>, ServeError> {
        let kind = RequestKind::E {
            expr: expr.clone(),
            n,
        };
        self.submit(tenant, kind, timeout, None, |r| match r {
            Response::Mean(m) => m,
            _ => unreachable!("e requests yield means"),
        })
    }

    /// Descriptive summary of `expr` from `n` joint samples.
    pub fn stats(
        &self,
        tenant: u64,
        expr: &Uncertain<f64>,
        n: usize,
    ) -> Result<Summary, ServeError> {
        self.submit_stats(tenant, expr, n, None)?.wait()
    }

    /// [`ServeClient::stats`] with a deadline.
    pub fn stats_within(
        &self,
        tenant: u64,
        expr: &Uncertain<f64>,
        n: usize,
        timeout: Duration,
    ) -> Result<Summary, ServeError> {
        self.submit_stats(tenant, expr, n, Some(timeout))?.wait()
    }

    /// [`ServeClient::stats`] with a per-request strategy override.
    pub fn stats_with_strategy(
        &self,
        tenant: u64,
        expr: &Uncertain<f64>,
        n: usize,
        strategy: EvalStrategy,
    ) -> Result<Summary, ServeError> {
        let kind = RequestKind::Stats {
            expr: expr.clone(),
            n,
        };
        self.submit(tenant, kind, None, Some(strategy), |r| match r {
            Response::Summary(s) => s,
            _ => unreachable!("stats requests yield summaries"),
        })?
        .wait()
    }

    /// Pipelined [`ServeClient::stats`].
    pub fn submit_stats(
        &self,
        tenant: u64,
        expr: &Uncertain<f64>,
        n: usize,
        timeout: Option<Duration>,
    ) -> Result<Pending<Summary>, ServeError> {
        let kind = RequestKind::Stats {
            expr: expr.clone(),
            n,
        };
        self.submit(tenant, kind, timeout, None, |r| match r {
            Response::Summary(s) => s,
            _ => unreachable!("stats requests yield summaries"),
        })
    }

    /// Admits one untraced request through the transport.
    fn submit<T>(
        &self,
        tenant: u64,
        kind: RequestKind,
        timeout: Option<Duration>,
        strategy: Option<EvalStrategy>,
        map: fn(Response) -> T,
    ) -> Result<Pending<T>, ServeError> {
        self.submit_with_trace(tenant, kind, timeout, strategy, None, map)
    }

    /// Admits one request, optionally under a trace context.
    fn submit_with_trace<T>(
        &self,
        tenant: u64,
        kind: RequestKind,
        timeout: Option<Duration>,
        strategy: Option<EvalStrategy>,
        trace: Option<TraceContext>,
        map: fn(Response) -> T,
    ) -> Result<Pending<T>, ServeError> {
        let rx = self.transport.submit(Request {
            tenant,
            kind,
            timeout,
            strategy,
            trace,
        })?;
        Ok(Pending {
            rx,
            map,
            trace_id: trace.map(|c| c.trace_id),
        })
    }
}

/// The verdict of an evaluate reply: what the `pr` methods return.
fn verdict(response: Response) -> bool {
    match response {
        Response::Outcome(o) => o.accepted,
        _ => unreachable!("evaluate requests yield outcomes"),
    }
}
