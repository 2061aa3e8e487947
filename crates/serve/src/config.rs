//! Service topology and policy knobs.

use std::net::ToSocketAddrs;
use std::time::Duration;
use uncertain_core::{ConfigError, EvalConfig};
use uncertain_obs::FlightConfig;

/// Configuration for [`Service::start`](crate::Service::start).
///
/// The defaults favor test/bench friendliness (small, deterministic);
/// production deployments mostly raise `shards` and `queue_depth`. Build
/// one with [`ServeConfig::builder`] for validated construction (the
/// `with_*` methods stay available for the infallible knobs).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards. Each shard is one OS thread owning one session that
    /// all of its tenants share; tenants are hashed across shards by
    /// [`shard_of`](crate::shard_of).
    pub shards: usize,
    /// Bound of each shard's request queue. A full queue rejects with
    /// [`ServeError::QueueFull`](crate::ServeError::QueueFull) instead of
    /// buffering — load is shed at the edge.
    pub queue_depth: usize,
    /// Root seed of the whole service; tenant `t` samples from the
    /// substream [`tenant_seed`](crate::tenant_seed)`(seed, t)`.
    pub seed: u64,
    /// SPRT knobs applied to every request (a request may override the
    /// strategy alone).
    pub eval: EvalConfig,
    /// Deadline applied to requests that do not carry their own.
    /// `None` = requests wait as long as the work takes.
    pub default_deadline: Option<Duration>,
    /// Where [`Service::listen`](crate::Service::listen) binds its TCP
    /// port. The default `127.0.0.1:0` asks the OS for a free local port
    /// (read it back from [`Listener::local_addr`](crate::Listener::local_addr)).
    pub bind_addr: String,
    /// Retention policy of the service's flight recorder (capacity,
    /// slowest-N per window). Applies only to requests that carry a
    /// sampled [`TraceContext`](uncertain_obs::TraceContext); untraced
    /// requests never touch the recorder.
    pub flight: FlightConfig,
    /// Fraction (`0.0..=1.0`) of *traced* exact-provenance decisions to
    /// shadow-audit against a freshly seeded sampling session. A
    /// disagreement flags the trace `audit_mismatch`, which the flight
    /// recorder always retains. `0.0` (the default) disables auditing.
    /// The shadow session draws from its own seed substream, so audits
    /// never perturb tenant sample streams.
    pub audit_fraction: f64,
    /// Event-loop threads of the TCP listener. Each loop owns a share of
    /// the open connections and drives them with readiness polling, so
    /// this is the listener's *socket-edge* parallelism — decision work
    /// still runs on the `shards` workers. Connection-count independent:
    /// 1024 connections on 2 loops cost 2 threads, not 2048. The default
    /// matches the machine's available parallelism, capped at 4 (the
    /// socket edge saturates long before the shards do).
    pub event_loops: usize,
}

fn default_event_loops() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 4)
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_depth: 128,
            seed: 0,
            eval: EvalConfig::default(),
            default_deadline: None,
            bind_addr: "127.0.0.1:0".to_string(),
            flight: FlightConfig::default(),
            audit_fraction: 0.0,
            event_loops: default_event_loops(),
        }
    }
}

impl ServeConfig {
    /// A validating builder, mirroring
    /// [`EvalConfig::builder`](uncertain_core::EvalConfig::builder):
    /// degenerate topologies are rejected at build time with a specific
    /// [`ConfigError`] instead of panicking inside
    /// [`Service::start`](crate::Service::start).
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: Self::default(),
        }
    }

    /// Returns the config with the given shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns the config with the given per-shard queue bound.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Returns the config with the given service seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with the given SPRT configuration.
    pub fn with_eval(mut self, eval: EvalConfig) -> Self {
        self.eval = eval;
        self
    }

    /// Returns the config with a default per-request deadline.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Returns the config with the given TCP bind address (unvalidated —
    /// use [`ServeConfig::builder`] to have it checked up front).
    pub fn with_bind_addr(mut self, bind_addr: impl Into<String>) -> Self {
        self.bind_addr = bind_addr.into();
        self
    }

    /// Returns the config with the given flight-recorder retention policy.
    pub fn with_flight(mut self, flight: FlightConfig) -> Self {
        self.flight = flight;
        self
    }

    /// Returns the config with the given shadow-audit fraction, clamped
    /// to `0.0..=1.0` (NaN disables auditing).
    pub fn with_audit_fraction(mut self, fraction: f64) -> Self {
        self.audit_fraction = if fraction.is_nan() {
            0.0
        } else {
            fraction.clamp(0.0, 1.0)
        };
        self
    }

    /// Returns the config with the given listener event-loop count
    /// (unvalidated — use [`ServeConfig::builder`] to have zero rejected).
    pub fn with_event_loops(mut self, event_loops: usize) -> Self {
        self.event_loops = event_loops;
        self
    }
}

/// Builder for [`ServeConfig`] with validation at
/// [`ServeConfigBuilder::build`].
///
/// # Examples
///
/// ```
/// use uncertain_serve::ServeConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = ServeConfig::builder()
///     .shards(8)
///     .queue_depth(512)
///     .seed(2014)
///     .bind_addr("127.0.0.1:0")
///     .build()?;
/// assert_eq!(config.shards, 8);
///
/// assert!(ServeConfig::builder().shards(0).build().is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the worker shard count (must be ≥ 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets the per-shard request queue bound (must be ≥ 1).
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.config.queue_depth = queue_depth;
        self
    }

    /// Sets the service seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the SPRT configuration applied to every request.
    pub fn eval(mut self, eval: EvalConfig) -> Self {
        self.config.eval = eval;
        self
    }

    /// Sets the deadline applied to requests that carry none.
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.config.default_deadline = Some(deadline);
        self
    }

    /// Sets where [`Service::listen`](crate::Service::listen) binds (must
    /// resolve as `host:port`).
    pub fn bind_addr(mut self, bind_addr: impl Into<String>) -> Self {
        self.config.bind_addr = bind_addr.into();
        self
    }

    /// Sets the flight-recorder retention policy.
    pub fn flight(mut self, flight: FlightConfig) -> Self {
        self.config.flight = flight;
        self
    }

    /// Sets the shadow-audit fraction (clamped to `0.0..=1.0`).
    pub fn audit_fraction(mut self, fraction: f64) -> Self {
        self.config = self.config.with_audit_fraction(fraction);
        self
    }

    /// Sets the listener event-loop thread count (must be ≥ 1).
    pub fn event_loops(mut self, event_loops: usize) -> Self {
        self.config.event_loops = event_loops;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroShards`], [`ConfigError::ZeroQueueDepth`], or
    /// [`ConfigError::ZeroEventLoops`] for a degenerate topology;
    /// [`ConfigError::BadBindAddr`] when the bind address does not
    /// resolve as `host:port`.
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        let c = self.config;
        if c.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if c.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if c.event_loops == 0 {
            return Err(ConfigError::ZeroEventLoops);
        }
        if c.bind_addr.to_socket_addrs().is_err() {
            return Err(ConfigError::BadBindAddr(c.bind_addr));
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accepts_a_sane_config() {
        let config = ServeConfig::builder()
            .shards(2)
            .queue_depth(16)
            .seed(7)
            .default_deadline(Duration::from_millis(50))
            .bind_addr("127.0.0.1:0")
            .build()
            .expect("valid config");
        assert_eq!(config.shards, 2);
        assert_eq!(config.queue_depth, 16);
        assert_eq!(config.seed, 7);
        assert_eq!(config.default_deadline, Some(Duration::from_millis(50)));
        assert_eq!(config.bind_addr, "127.0.0.1:0");
    }

    #[test]
    fn builder_rejects_degenerate_topologies() {
        assert!(matches!(
            ServeConfig::builder().shards(0).build(),
            Err(ConfigError::ZeroShards)
        ));
        assert!(matches!(
            ServeConfig::builder().queue_depth(0).build(),
            Err(ConfigError::ZeroQueueDepth)
        ));
        assert!(matches!(
            ServeConfig::builder().event_loops(0).build(),
            Err(ConfigError::ZeroEventLoops)
        ));
    }

    #[test]
    fn event_loop_default_is_bounded() {
        let config = ServeConfig::default();
        assert!((1..=4).contains(&config.event_loops));
        let config = ServeConfig::builder().event_loops(2).build().unwrap();
        assert_eq!(config.event_loops, 2);
    }

    #[test]
    fn builder_rejects_a_bad_bind_addr() {
        let err = ServeConfig::builder()
            .bind_addr("not an address")
            .build()
            .unwrap_err();
        match err {
            ConfigError::BadBindAddr(addr) => assert_eq!(addr, "not an address"),
            other => panic!("wrong error: {other:?}"),
        }
    }
}
