//! # `uncertain-obs` — observability for the `Uncertain<T>` runtime
//!
//! The telemetry toolkit for the reproduction of *Uncertain\<T\>: A
//! First-Order Type for Uncertain Data* (ASPLOS 2014). The core runtime
//! emits structured events through its `Recorder` hook; this crate
//! supplies the consumers:
//!
//! * **Decision traces** — [`TraceLog`] is a [`Recorder`] that captures
//!   every SPRT decision a [`Session`](uncertain_core::Session) makes:
//!   the batch-by-batch log-likelihood-ratio trajectory, samples drawn,
//!   and the stopping reason (accepted / rejected / budget-capped).
//!   [`trace_to_json`] / [`to_jsonl`] / [`write_jsonl`] export them as
//!   JSON-lines.
//! * **Metric primitives** — [`Counter`], [`Gauge`], and the
//!   log-bucketed [`LogHistogram`] (p50/p90/p99/max in a ~4 KiB
//!   lock-free structure) for services built on the runtime.
//! * **Prometheus exposition** — [`PromWriter`] renders counters,
//!   gauges, and histogram summaries in the text format scrapers
//!   accept.
//! * **Request tracing** — [`TraceContext`] / [`Span`] /
//!   [`TraceBuilder`] describe one request as a tree of monotonic-clock
//!   spans that propagates across threads and the serve crate's wire
//!   protocol. A [`RequestTrace`] carries that tree and, for a sampled
//!   decision, the SPRT's own [`DecisionTrace`], which
//!   [`request_trace_to_json`] prints with the same [`trace_to_json`]
//!   a [`TraceLog`] reader uses. The [`FlightRecorder`] retains completed
//!   traces by a tail-based policy (slowest-N per window, all errors,
//!   all audit mismatches) for the `/traces` introspection endpoints.
//!
//! The kernel cost *profiles* live in the core crate — see
//! [`Session::kernel_profile`](uncertain_core::Session::kernel_profile) —
//! since they need the kernel's internals; this crate re-exports the
//! event types so `use uncertain_obs::*` is self-sufficient.
//!
//! # Quick start
//!
//! ```
//! use uncertain_core::{Session, Uncertain};
//! use uncertain_obs::TraceLog;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let log = TraceLog::new();
//! let mut session = Session::seeded(42).with_recorder(log.clone());
//!
//! let a = Uncertain::normal(4.0, 1.0)?;
//! let b = Uncertain::normal(5.0, 1.0)?;
//! session.is_probable(&(&a + &b).gt(5.0));
//!
//! let trace = &log.take()[0];
//! assert_eq!(trace.samples, trace.batches.last().unwrap().samples);
//! println!("decided in {} samples: {}", trace.samples, trace.stopping.as_str());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod flight;
#[cfg(test)]
mod json_check;
mod metrics;
mod prom;
mod span;
mod trace;

pub use flight::{request_trace_to_json, FlightConfig, FlightRecorder, FlightStats, RequestTrace};
pub use metrics::{Counter, Gauge, HistogramSnapshot, LogHistogram};
pub use prom::PromWriter;
pub use span::{monotonic_ns, AttrValue, Span, TraceBuilder, TraceContext};
pub use trace::{to_jsonl, trace_to_json, write_jsonl, TraceLog};

// Re-export the core event types this crate's API speaks, so consumers
// need not name uncertain-core for plain trace handling.
pub use uncertain_core::{DecisionTrace, Dispatch, Recorder, StoppingReason, TracePoint};
