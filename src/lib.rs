//! Umbrella crate for the **Uncertain\<T\>** reproduction (Bornholt,
//! Mytkowicz, McKinley — ASPLOS 2014).
//!
//! Re-exports the whole suite under one roof and hosts the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! * `core` ([`uncertain_core`]) — the `Uncertain<T>` type itself,
//! * `dist` ([`uncertain_dist`]) — the distribution substrate,
//! * `stats` ([`uncertain_stats`]) — hypothesis tests and statistics,
//! * `gps` ([`uncertain_gps`]) — the GPS-Walking case study (§5.1),
//! * `life` ([`uncertain_life`]) — the SensorLife case study (§5.2),
//! * `neural` ([`uncertain_neural`]) — the Parakeet case study (§5.3),
//! * `obs` ([`uncertain_obs`]) — decision traces, metrics, exporters,
//! * `serve` ([`uncertain_serve`]) — the sharded evaluation service.
//!
//! # Examples
//!
//! ```
//! use uncertain_suite::{Session, Uncertain};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let noisy = Uncertain::normal(3.0, 1.0)?;
//! let mut session = Session::seeded(1);
//! assert!(noisy.gt(2.0).is_probable_in(&mut session));
//! # Ok(())
//! # }
//! ```

pub use uncertain_core::{
    BoolLaw, CacheStats, ConfigError, DecisionTrace, Error, EvalConfig, EvalConfigBuilder,
    EvalStrategy, ExactMethod, HypothesisOutcome, InconclusiveError, IntoUncertain, NetworkView,
    NodeId, NodeMeta, NotAnalyticError, Provenance, Recorder, ScalarLaw, ServeError, Session,
    StatsOutcome, StoppingReason, TracePoint, Uncertain, Value, DEFAULT_CACHE_CAPACITY,
};
pub use uncertain_obs::{PromWriter, TraceLog};
pub use uncertain_serve::{
    ChannelTransport, Listener, NetMetrics, Pending, Request, RequestKind, Response, ServeClient,
    ServeConfig, ServeConfigBuilder, ServeMetrics, Service, TcpTransport, Transport,
};

pub use uncertain_core as core;
pub use uncertain_dist as dist;
pub use uncertain_gps as gps;
pub use uncertain_life as life;
pub use uncertain_neural as neural;
pub use uncertain_obs as obs;
pub use uncertain_serve as serve;
pub use uncertain_stats as stats;

/// `docs/TUTORIAL.md`, whose code blocks run as this crate's doctests.
#[cfg(doctest)]
#[doc = include_str!("../docs/TUTORIAL.md")]
pub struct Tutorial;
