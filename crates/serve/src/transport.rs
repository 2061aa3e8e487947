//! The transport abstraction under [`ServeClient`](crate::ServeClient).
//!
//! A [`Transport`] is "somewhere requests can be admitted": the client's
//! typed methods build a [`Request`], hand it to the transport, and get
//! back the channel its reply will eventually arrive on. Two transports
//! ship with the crate:
//!
//! * [`ChannelTransport`] — the original in-process path. Admission *is*
//!   the shard queue's `try_send`; backpressure and shutdown surface
//!   synchronously, exactly as they did before the trait existed.
//! * [`TcpTransport`](crate::TcpTransport) — the same requests over a
//!   pooled, pipelined TCP connection to a [`Service`](crate::Service)
//!   listening on a socket (see [`Service::listen`](crate::Service::listen)).
//!
//! Both deliver replies through a plain [`std::sync::mpsc`] receiver, so
//! [`Pending`](crate::Pending) — and everything built on it — is
//! transport-agnostic: a pipelined client loop written against the
//! in-process service works unchanged against a remote one.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uncertain_core::{EvalStrategy, HypothesisOutcome, ServeError, Uncertain};
use uncertain_obs::{monotonic_ns, TraceContext};
use uncertain_stats::Summary;

use crate::net::ConnReply;
use crate::service::{Inner, Job};
use crate::shard_of;

/// What a request asks of its tenant's session.
///
/// Marked `#[non_exhaustive]`: the service may grow request kinds without
/// a breaking release, so third-party [`Transport`]s must tolerate
/// variants they do not know (typically by rejecting them as
/// [`ServeError::Wire`] with an `Unsupported` payload).
#[derive(Clone)]
#[non_exhaustive]
pub enum RequestKind {
    /// Full SPRT verdict for `Pr[cond] > threshold`. The client's `pr`
    /// sends this too and keeps the outcome's `accepted`.
    Evaluate {
        /// The conditional under test.
        cond: Uncertain<bool>,
        /// The probability threshold θ.
        threshold: f64,
    },
    /// Expected value from `n` joint samples.
    E {
        /// The expression to sample.
        expr: Uncertain<f64>,
        /// How many joint samples to draw.
        n: usize,
    },
    /// Descriptive summary from `n` joint samples.
    Stats {
        /// The expression to sample.
        expr: Uncertain<f64>,
        /// How many joint samples to draw.
        n: usize,
    },
}

/// The typed success payload, matched by the client into the per-method
/// return type.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// Reply to [`RequestKind::Evaluate`].
    Outcome(HypothesisOutcome),
    /// Reply to [`RequestKind::E`].
    Mean(f64),
    /// Reply to [`RequestKind::Stats`].
    Summary(Summary),
}

/// One request as a [`Transport`] sees it: who is asking, what they ask,
/// and how long they are willing to wait.
pub struct Request {
    /// The tenant whose seeded session executes the request.
    pub tenant: u64,
    /// The question.
    pub kind: RequestKind,
    /// Per-request deadline, measured from admission. `None` defers to the
    /// service's `default_deadline`.
    pub timeout: Option<Duration>,
    /// Per-request evaluation-strategy override. `None` inherits the
    /// service's configured [`EvalConfig`](uncertain_core::EvalConfig)
    /// strategy; `Some` rewrites it for this request only (e.g.
    /// [`EvalStrategy::Auto`] to let a recognized analytic graph answer
    /// with zero samples).
    pub strategy: Option<EvalStrategy>,
    /// Tracing context for this request. `None` (the default everywhere)
    /// is the dormant path; `Some` with `sampled = true` makes the shard
    /// record a span tree and the reply carry the trace id back.
    pub trace: Option<TraceContext>,
}

/// One reply as it travels back from the service: the result plus the
/// echo of the request's trace id (when the request carried a context),
/// so a traced client can pair its outcome with the server-side span
/// tree in `/traces/<id>` with no side channel.
#[derive(Debug)]
pub struct Reply {
    /// The request's outcome.
    pub result: Result<Response, ServeError>,
    /// Echo of the request's trace id, `None` for untraced requests.
    pub trace_id: Option<u64>,
}

impl Reply {
    /// An untraced reply (the common case for error short-circuits).
    pub(crate) fn bare(result: Result<Response, ServeError>) -> Self {
        Self {
            result,
            trace_id: None,
        }
    }
}

/// Where a submitted request's reply eventually arrives.
pub type ReplyReceiver = Receiver<Reply>;

/// Where a job's reply goes: the channel an in-process caller waits on,
/// or the event loop that owns the TCP connection the request came in on.
pub(crate) enum ReplySlot {
    Channel(mpsc::SyncSender<Reply>),
    Conn(ConnReply),
}

impl ReplySlot {
    /// Delivers the reply. A send failure on a channel (receiver dropped —
    /// the submitter gave up) is ignored: the work is done either way.
    pub(crate) fn send(self, reply: Reply) {
        match self {
            Self::Channel(tx) => {
                let _ = tx.send(reply);
            }
            Self::Conn(mut conn) => conn.send(reply),
        }
    }
}

/// A way to get requests to a service and replies back.
///
/// `submit` must be cheap and non-blocking in the sense of the in-process
/// path: it either admits the request (returning the reply channel) or
/// fails fast — [`ServeError::QueueFull`] for backpressure,
/// [`ServeError::Shutdown`] once the service stops accepting,
/// [`ServeError::Transport`] when the medium itself fails. Implementations
/// must preserve **per-tenant ordering**: two requests for the same tenant
/// submitted from one thread execute in submission order.
pub trait Transport: Send + Sync {
    /// Admits one request; the reply arrives on the returned receiver.
    fn submit(&self, request: Request) -> Result<ReplyReceiver, ServeError>;
}

/// The in-process transport: admission directly into the tenant's shard
/// queue, with no serialization at all. This is what
/// [`Service::client`](crate::Service::client) hands out, byte-for-byte
/// the pre-trait behavior.
pub struct ChannelTransport {
    inner: Arc<Inner>,
}

impl ChannelTransport {
    pub(crate) fn new(inner: Arc<Inner>) -> Self {
        Self { inner }
    }

    /// Admits one request, its reply to go to `reply`. This is the one
    /// admission path — every QueueFull / Shutdown / deadline-anchoring
    /// decision lives here, whether the caller is an in-process client or
    /// the event-driven listener. A refused request hands its slot back.
    pub(crate) fn admit(
        &self,
        request: Request,
        reply: ReplySlot,
    ) -> Result<(), (ServeError, ReplySlot)> {
        let Request {
            tenant,
            kind,
            timeout,
            strategy,
            trace,
        } = request;
        if !self.inner.accepting.load(Ordering::SeqCst) {
            return Err((ServeError::Shutdown, reply));
        }
        let shard = &self.inner.shards[shard_of(tenant, self.inner.shards.len())];
        let deadline = timeout
            .or(self.inner.config.default_deadline)
            .map(|t| Instant::now() + t);
        let job = Job {
            tenant,
            kind,
            deadline,
            strategy,
            trace,
            enqueued_ns: monotonic_ns(),
            reply,
        };
        let guard = shard.tx.lock().expect("shard sender lock");
        let Some(tx) = guard.as_ref() else {
            return Err((ServeError::Shutdown, job.reply));
        };
        // Count the admission before sending so the shard's matching
        // decrement can never observe a missing increment.
        shard.stats.queue_depth.inc();
        tx.try_send(job).map_err(|e| {
            shard.stats.queue_depth.dec();
            match e {
                TrySendError::Full(job) => {
                    shard.stats.rejected.inc();
                    (ServeError::QueueFull, job.reply)
                }
                TrySendError::Disconnected(job) => (ServeError::Shutdown, job.reply),
            }
        })
    }
}

impl Transport for ChannelTransport {
    fn submit(&self, request: Request) -> Result<ReplyReceiver, ServeError> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.admit(request, ReplySlot::Channel(tx))
            .map_err(|(e, _)| e)?;
        // The shard always replies — even to drained-at-shutdown or
        // timed-out requests. A dropped reply channel therefore means the
        // worker is gone.
        Ok(rx)
    }
}
