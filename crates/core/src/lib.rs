//! # `Uncertain<T>` — a first-order type for uncertain data
//!
//! A from-scratch Rust implementation of the programming abstraction from
//! *Uncertain\<T\>: A First-Order Type for Uncertain Data* (Bornholt,
//! Mytkowicz, McKinley — ASPLOS 2014).
//!
//! An [`Uncertain<T>`] encapsulates a random variable of type `T`:
//!
//! * **Leaves** are known distributions exposed by expert developers as
//!   *sampling functions* ([`Uncertain::from_distribution`],
//!   [`Uncertain::from_fn`], or the [`Uncertain::normal`]-style shortcuts).
//! * **Computation** with the usual operators (`+ - * /`, comparisons,
//!   `& | !`) lazily builds a **Bayesian network** — a DAG whose nodes are
//!   random variables and whose edges are conditional dependences. Nothing
//!   is sampled until the program asks a question.
//! * **Shared dependences are tracked** (the paper's Fig. 8 "echoes static
//!   single assignment"): two uses of the same variable are perfectly
//!   correlated, so `x.clone() - x` is exactly zero, not a widened
//!   distribution.
//! * **Conditionals evaluate evidence**: a comparison yields
//!   `Uncertain<bool>` (a Bernoulli whose parameter is the evidence for the
//!   condition), and [`Uncertain::pr`]/[`Uncertain::is_probable`]
//!   decide it at runtime with Wald's sequential probability ratio test,
//!   drawing only as many samples as this particular conditional needs
//!   (§4.3).
//! * **Estimates improve with domain knowledge**: [`Uncertain::weight_by`]
//!   applies a Bayesian prior by sampling–importance–resampling, and
//!   [`Uncertain::condition_on`] applies hard evidence by rejection (§3.5).
//!
//! # Quick start
//!
//! Queries run inside a [`Session`] — the evaluation runtime that caches
//! compiled kernels across calls, owns the seeding policy, and shards large
//! sample batches across worker threads:
//!
//! ```
//! use uncertain_core::{Session, Uncertain};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An expert exposes two noisy measurements…
//! let a = Uncertain::normal(4.0, 1.0)?;
//! let b = Uncertain::normal(5.0, 1.0)?;
//!
//! // …an application computes with them as if they were plain numbers…
//! let c = &a + &b; // a Bayesian network, not a number
//!
//! // …and asks calibrated questions instead of reading off point values.
//! let mut session = Session::seeded(42);
//! let over_five = c.gt(5.0); // Uncertain<bool>: evidence, not a bool
//! assert!(session.is_probable(&over_five)); // Pr[c > 5] > 0.5
//! assert!(!session.pr(&c.gt(12.0), 0.9));   // not 90% sure c > 12
//!
//! // The expected-value operator E projects back to a plain number.
//! let e = session.e(&c, 1000);
//! assert!((e - 9.0).abs() < 0.2);
//!
//! // Re-deciding the same conditional reuses its cached kernel.
//! assert!(session.is_probable(&over_five));
//! assert!(session.cache_stats().hits >= 1);
//! # Ok(())
//! # }
//! ```
//!
//! The same queries exist as methods on [`Uncertain`] itself: the
//! ergonomic forms (`c.gt(5.0).is_probable()`) use the thread's ambient
//! session, and `*_in(&mut Session, ..)` forms name one explicitly.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bayes;
mod compare;
mod condition;
mod context;
mod error;
mod exact;
mod expect;
mod graph;
mod kernel;
mod logic;
mod math;
mod node;
mod obs;
mod ops;
mod runtime;
mod uncertain;
mod wire;

pub use condition::{
    EvalConfig, EvalConfigBuilder, EvalStrategy, HypothesisOutcome, InconclusiveError, Provenance,
    StatsOutcome,
};
pub use error::{ConfigError, Error, NotAnalyticError, ServeError, WireError};
pub use exact::{BoolLaw, ExactMethod, ScalarLaw};
pub use graph::{NetworkView, NodeMeta};
pub use node::NodeId;
pub use obs::{
    DecisionTrace, Dispatch, InstrCost, KernelProfile, LeafKindCost, Recorder, StoppingReason,
    TracePoint,
};
pub use runtime::{CacheStats, Session, DEFAULT_CACHE_CAPACITY};
pub use uncertain::{IntoUncertain, Uncertain, Value};
pub use wire::WireGraph;

// Re-export the substrate crates whose types appear in this crate's API,
// so downstream users need only one dependency.
pub use uncertain_dist as dist;
pub use uncertain_stats as stats;

/// The common imports in one line: `use uncertain_core::prelude::*;`.
///
/// # Examples
///
/// ```
/// use uncertain_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Uncertain::normal(0.0, 1.0)?;
/// let mut session = Session::seeded(0);
/// assert!(x.lt(5.0).is_probable_in(&mut session));
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use crate::{
        CacheStats, ConfigError, Error, EvalConfig, EvalConfigBuilder, EvalStrategy, ExactMethod,
        HypothesisOutcome, InconclusiveError, IntoUncertain, NetworkView, NotAnalyticError,
        Provenance, ServeError, Session, StatsOutcome, Uncertain,
    };
    pub use crate::{DecisionTrace, Recorder, StoppingReason};
    pub use uncertain_dist::{Continuous, Discrete, Distribution};
}
