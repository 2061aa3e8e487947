//! The unified error vocabulary of the `Uncertain<T>` runtime.
//!
//! Each subsystem keeps its own precise error type — [`StatsError`] for
//! invalid test/estimator parameters, [`InconclusiveError`] for the
//! paper's ternary "neither branch" outcome, [`ConfigError`] for a
//! rejected [`EvalConfig`](crate::EvalConfig) build, [`ServeError`] for
//! request failures in an evaluation service — and [`Error`] is the
//! `#[non_exhaustive]` sum of all of them, with `From` impls in every
//! direction that matters. Service code and applications that mix
//! subsystems can return `Result<_, uncertain_core::Error>` and use `?`
//! throughout instead of hand-rolling conversions.
//!
//! `ServeError` lives here rather than in the `uncertain-serve` crate so
//! that `impl From<ServeError> for Error` is possible at all (the orphan
//! rules forbid a downstream crate from adding variants' conversions into
//! this type); the serve crate re-exports it as its public error type.

use crate::condition::InconclusiveError;
use std::fmt;
use uncertain_stats::StatsError;

/// Any error the `Uncertain<T>` runtime can produce, as one type.
///
/// Marked `#[non_exhaustive]`: new subsystems may add variants without a
/// breaking release, so downstream `match`es must carry a wildcard arm.
///
/// # Examples
///
/// ```
/// use uncertain_core::{Error, EvalConfig, Session, Uncertain};
///
/// fn decide(session: &mut Session, cond: &Uncertain<bool>) -> Result<bool, Error> {
///     let config = EvalConfig::builder().alpha(0.01).beta(0.01).build()?; // ConfigError
///     let outcome = session.try_evaluate(cond, 0.9, &config)?;            // Error (Stats/NotAnalytic)
///     Ok(outcome.expect_decided()?)                                      // InconclusiveError
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut session = Session::seeded(0);
/// let sure = Uncertain::bernoulli(0.99)?;
/// assert_eq!(decide(&mut session, &sure)?, true);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A hypothesis test or estimator was configured with invalid
    /// parameters (threshold outside `(0, 1)`, empty data, …).
    Stats(StatsError),
    /// A conditional's SPRT hit its sample cap without crossing a Wald
    /// boundary: neither branch is conclusively right.
    Inconclusive(InconclusiveError),
    /// An [`EvalConfig`](crate::EvalConfig) builder rejected its settings.
    Config(ConfigError),
    /// A request to a sharded evaluation service failed.
    Serve(ServeError),
    /// A network graph/frame could not be encoded or decoded.
    Wire(WireError),
    /// The analytic backend was demanded
    /// ([`EvalStrategy::ExactOnly`](crate::EvalStrategy::ExactOnly)) for a
    /// graph it does not recognize.
    NotAnalytic(NotAnalyticError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Stats(e) => e.fmt(f),
            Error::Inconclusive(e) => e.fmt(f),
            Error::Config(e) => e.fmt(f),
            Error::Serve(e) => e.fmt(f),
            Error::Wire(e) => e.fmt(f),
            Error::NotAnalytic(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Stats(e) => Some(e),
            Error::Inconclusive(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Serve(e) => Some(e),
            Error::Wire(e) => Some(e),
            Error::NotAnalytic(e) => Some(e),
        }
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Self {
        Error::Wire(e)
    }
}

impl From<StatsError> for Error {
    fn from(e: StatsError) -> Self {
        Error::Stats(e)
    }
}

impl From<InconclusiveError> for Error {
    fn from(e: InconclusiveError) -> Self {
        Error::Inconclusive(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<ServeError> for Error {
    fn from(e: ServeError) -> Self {
        Error::Serve(e)
    }
}

impl From<NotAnalyticError> for Error {
    fn from(e: NotAnalyticError) -> Self {
        Error::NotAnalytic(e)
    }
}

/// A query demanded the analytic backend
/// ([`EvalStrategy::ExactOnly`](crate::EvalStrategy::ExactOnly)) on a
/// graph the `exact` analysis declines — an opaque closure, a non-affine
/// operator over non-constant operands, correlated non-Gaussian branches,
/// and so on. Under [`EvalStrategy::Auto`](crate::EvalStrategy::Auto) the
/// same graph would silently (and bitwise-reproducibly) fall back to
/// sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct NotAnalyticError {
    /// What the query was (e.g. `"evaluate"`, `"e"`, `"stats"`).
    pub query: &'static str,
}

impl fmt::Display for NotAnalyticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} query demanded ExactOnly on a graph the analytic backend does not \
             recognize; use EvalStrategy::Auto to fall back to sampling",
            self.query
        )
    }
}

impl std::error::Error for NotAnalyticError {}

/// A rejected [`EvalConfig`](crate::EvalConfig) build: the combination of
/// SPRT knobs would produce a degenerate test (silently, before this type
/// existed — a zero batch spins forever, `α ∉ (0, 1)` makes the Wald
/// boundaries NaN).
///
/// Returned by [`EvalConfigBuilder::build`](crate::EvalConfigBuilder::build).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `alpha` (type-I error bound) must lie strictly inside `(0, 1)`.
    Alpha(f64),
    /// `beta` (type-II error bound) must lie strictly inside `(0, 1)`.
    Beta(f64),
    /// `delta` (indifference half-width) must lie strictly inside
    /// `(0, 0.5)`.
    Delta(f64),
    /// `batch` (samples per SPRT step) must be at least 1.
    ZeroBatch,
    /// `max_samples` must be able to hold at least one batch.
    CapBelowBatch {
        /// The rejected termination cap.
        max_samples: usize,
        /// The batch size the cap cannot hold.
        batch: usize,
    },
    /// A serve config asked for zero shards — there would be nowhere to
    /// route requests.
    ZeroShards,
    /// A serve config asked for a zero-depth request queue — every submit
    /// would be `QueueFull`.
    ZeroQueueDepth,
    /// A serve config asked for zero listener event loops — no thread
    /// would ever poll the sockets.
    ZeroEventLoops,
    /// A serve config's bind address failed to parse as `host:port`.
    BadBindAddr(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Alpha(v) => write!(f, "eval config alpha must be in (0, 1), got {v}"),
            ConfigError::Beta(v) => write!(f, "eval config beta must be in (0, 1), got {v}"),
            ConfigError::Delta(v) => write!(f, "eval config delta must be in (0, 0.5), got {v}"),
            ConfigError::ZeroBatch => write!(f, "eval config batch size must be at least 1"),
            ConfigError::CapBelowBatch { max_samples, batch } => write!(
                f,
                "eval config max_samples ({max_samples}) must be at least the batch size ({batch})"
            ),
            ConfigError::ZeroShards => write!(f, "serve config shard count must be at least 1"),
            ConfigError::ZeroQueueDepth => {
                write!(f, "serve config queue depth must be at least 1")
            }
            ConfigError::ZeroEventLoops => {
                write!(f, "serve config event_loops must be at least 1")
            }
            ConfigError::BadBindAddr(addr) => {
                write!(
                    f,
                    "serve config bind address {addr:?} is not a valid host:port"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A request to a sharded evaluation service failed.
///
/// This is the error half of `ServeClient::evaluate` and friends in the
/// `uncertain-serve` crate (which re-exports this type); it is defined
/// here so it participates in the unified [`Error`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request's deadline expired — in the queue, or mid-SPRT (the
    /// shard aborts the test at the next batch boundary).
    Timeout,
    /// The target shard's bounded request queue was full; the caller
    /// should back off and retry (the service sheds load instead of
    /// buffering unboundedly).
    QueueFull,
    /// The service is shutting down (or has shut down) and accepts no new
    /// requests; in-flight work is drained, not dropped.
    Shutdown,
    /// The request itself was invalid (e.g. a conditional threshold
    /// outside `(0, 1)`), reported by the underlying runtime.
    Invalid(StatsError),
    /// A request or response could not be encoded/decoded — the query
    /// graph is not wire-expressible, or a frame arrived malformed.
    Wire(WireError),
    /// The network transport itself failed (connect refused, connection
    /// reset mid-request, I/O error) — distinct from the service
    /// *rejecting* a request.
    Transport(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Timeout => write!(f, "evaluation request deadline expired"),
            ServeError::QueueFull => write!(f, "shard request queue is full"),
            ServeError::Shutdown => write!(f, "evaluation service is shut down"),
            ServeError::Invalid(e) => write!(f, "invalid evaluation request: {e}"),
            ServeError::Wire(e) => write!(f, "wire protocol error: {e}"),
            ServeError::Transport(msg) => write!(f, "transport failure: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Invalid(e) => Some(e),
            ServeError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for ServeError {
    fn from(e: StatsError) -> Self {
        ServeError::Invalid(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

/// A wire-format encode or decode failure.
///
/// Produced by [`WireGraph`](crate::WireGraph) when a query graph cannot
/// be expressed in the network encoding, and by frame decoders (client and
/// server side) when bytes on the wire do not parse.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// The graph contains a node the wire format cannot express — an
    /// opaque closure leaf, a monadic bind, encapsulation, priors,
    /// conditioning, or an untagged lifted operator. Carries the node's
    /// display label.
    Unsupported(String),
    /// The byte stream ended mid-structure.
    Truncated,
    /// The bytes parsed structurally but described something invalid
    /// (unknown opcode, child index out of range, parameters a public
    /// constructor rejects).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Unsupported(label) => {
                write!(
                    f,
                    "graph node {label:?} is not expressible in the wire format"
                )
            }
            WireError::Truncated => write!(f, "wire data ended mid-structure"),
            WireError::Malformed(msg) => write!(f, "malformed wire data: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_compose_with_question_mark() {
        fn stats() -> Result<(), Error> {
            Err(StatsError::new("bad"))?
        }
        fn config() -> Result<(), Error> {
            Err(ConfigError::ZeroBatch)?
        }
        fn serve() -> Result<(), Error> {
            Err(ServeError::Timeout)?
        }
        assert!(matches!(stats(), Err(Error::Stats(_))));
        assert!(matches!(config(), Err(Error::Config(_))));
        assert!(matches!(serve(), Err(Error::Serve(ServeError::Timeout))));
    }

    #[test]
    fn display_is_specific() {
        assert!(Error::from(ConfigError::Alpha(1.5))
            .to_string()
            .contains("alpha"));
        assert!(Error::from(ServeError::QueueFull)
            .to_string()
            .contains("queue"));
        let e = Error::from(ConfigError::CapBelowBatch {
            max_samples: 5,
            batch: 10,
        });
        assert!(e.to_string().contains("max_samples (5)"));
    }

    #[test]
    fn source_chains_to_the_underlying_error() {
        use std::error::Error as _;
        let e = Error::from(StatsError::new("alpha out of range"));
        assert!(e.source().unwrap().to_string().contains("alpha"));
        let s = ServeError::from(StatsError::new("threshold"));
        assert!(s.source().unwrap().to_string().contains("threshold"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<Error>();
        check::<ConfigError>();
        check::<ServeError>();
    }
}
