//! A sharded, multi-tenant evaluation service over
//! [`uncertain_core::Session`].
//!
//! The paper's conditional (`Pr[cond] > θ`, decided by Wald's SPRT) is a
//! per-query decision procedure, which makes it the natural unit of a
//! request/response service: a request carries a network and a question,
//! the response carries a [`HypothesisOutcome`](uncertain_core::HypothesisOutcome). This crate turns the
//! single-process [`Session`](uncertain_core::Session) runtime into such a service:
//!
//! * **Sharding** — [`Service::start`] spawns N worker shards. A tenant id
//!   is hashed to one shard ([`shard_of`]) and *always* lands there, so its
//!   seeded sample stream stays deterministic: all of a tenant's requests
//!   are executed by one single-threaded worker, in queue order, with no
//!   interleaving inside a decision.
//! * **Tenancy** — a tenant is a seed and a cursor. Its stream is the
//!   substream of [`tenant_seed`] (a pure function of the service seed and
//!   the tenant id — *not* of the shard count), and the shard keeps only
//!   its query cursor ([`Session::query_index`](uncertain_core::Session::query_index)). Each shard owns one
//!   `Session`: before a request it seeks the session to the tenant's
//!   stream ([`Session::seek`](uncertain_core::Session::seek)), after it stores the cursor back. So every
//!   outcome is bitwise what `Session::seeded(tenant_seed(..))` would
//!   answer, while the shard's tenants share its compiled kernels, exact
//!   verdicts and scratch: a network many tenants ask is compiled once
//!   per shard.
//! * **Backpressure** — each shard is fronted by a bounded MPSC queue.
//!   When it is full the client's request fails fast with
//!   [`ServeError::QueueFull`] instead of buffering unboundedly.
//! * **Deadlines** — a request may carry a deadline. It is checked when
//!   the request is dequeued and again between SPRT batches (and between
//!   fixed-size sampling chunks for `e`/`stats`), so an expensive decision
//!   aborts promptly with [`ServeError::Timeout`] — without poisoning the
//!   shard: the aborted request consumes exactly the query indices the
//!   completed request would have, so subsequent results are unaffected.
//! * **Graceful shutdown** — [`Service::shutdown`] stops admitting new
//!   requests, drains every queued request (each gets a real reply), joins
//!   the shard workers, and returns the final [`ServeMetrics`].
//!
//! # Example
//!
//! ```
//! use uncertain_core::Uncertain;
//! use uncertain_serve::{ServeConfig, Service};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = Service::start(ServeConfig::default().with_shards(2).with_seed(7));
//! let client = service.client();
//!
//! let speed = Uncertain::normal(57.0, 6.0)?;
//! let outcome = client.evaluate(42, &speed.gt(60.0), 0.9)?;
//! assert!(!outcome.accepted, "not 90% sure the speed exceeds 60");
//!
//! let mean = client.e(42, &speed, 1000)?;
//! assert!((mean - 57.0).abs() < 1.0);
//!
//! let metrics = service.shutdown();
//! assert_eq!(metrics.requests(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

mod client;
mod config;
mod metrics;
mod net;
pub mod poll;
mod service;
mod traced;
mod transport;
pub mod wire;

pub use client::{Pending, ServeClient};
pub use config::{ServeConfig, ServeConfigBuilder};
pub use metrics::{NetMetrics, ServeMetrics, ShardMetrics};
pub use net::{Listener, TcpTransport};
pub use service::Service;
pub use transport::{
    ChannelTransport, Reply, ReplyReceiver, Request, RequestKind, Response, Transport,
};
/// Re-export: the request-failure error (defined in `uncertain-core` so it
/// participates in the unified [`uncertain_core::Error`]).
pub use uncertain_core::ServeError;
/// Re-export: the latency-summary type [`ShardMetrics`] exposes for the
/// queue-wait / plan-compile / sampling phases of a request.
pub use uncertain_obs::HistogramSnapshot;
/// Re-exports: the tracing vocabulary requests and introspection speak —
/// the wire-propagated [`TraceContext`], the retained [`RequestTrace`]s
/// (a span tree plus the SPRT's record of a sampled decision), and the
/// flight recorder's policy/stats types.
pub use uncertain_obs::{FlightConfig, FlightStats, RequestTrace, Span, TraceContext};

/// SplitMix64 finalizer: the same avalanche the core runtime uses for
/// substream derivation, applied here to tenant ids and shard routing.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of `tenant`'s substream under `service_seed`.
///
/// A pure function of the two ids and nothing else — in particular not of
/// the shard count or the shard's other tenants — which is what makes
/// per-tenant results reproducible across service topologies. Exposed so tests and
/// offline replays can run `Session::seeded(tenant_seed(s, t))` as the
/// reference for what the service must return.
pub fn tenant_seed(service_seed: u64, tenant: u64) -> u64 {
    mix64(service_seed ^ mix64(tenant))
}

/// The shard that owns `tenant` in a service with `shards` workers.
///
/// Deterministic, so every client handle routes a tenant to the same
/// queue; distinct from [`tenant_seed`]'s mixing so that changing the
/// shard count only remaps tenants, never reseeds them.
pub fn shard_of(tenant: u64, shards: usize) -> usize {
    (mix64(tenant ^ 0xA076_1D64_78BD_642F) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_seed_ignores_topology() {
        // Same inputs, same seed; different tenants, different seeds.
        assert_eq!(tenant_seed(1, 2), tenant_seed(1, 2));
        assert_ne!(tenant_seed(1, 2), tenant_seed(1, 3));
        assert_ne!(tenant_seed(1, 2), tenant_seed(2, 2));
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1, 2, 4, 8] {
            for tenant in 0..100 {
                let s = shard_of(tenant, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(tenant, shards));
            }
        }
    }

    #[test]
    fn shard_routing_spreads_tenants() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for tenant in 0..1000 {
            counts[shard_of(tenant, shards)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 150, "shard {i} got only {c}/1000 tenants");
        }
    }
}
