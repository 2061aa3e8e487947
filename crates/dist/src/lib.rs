//! Probability-distribution substrate for the `Uncertain<T>` reproduction.
//!
//! The paper (Bornholt, Mytkowicz, McKinley — ASPLOS 2014, §3.2/§4.1)
//! represents every distribution as a *sampling function*: a no-argument
//! procedure that returns a fresh random draw on each invocation. This crate
//! provides that substrate from scratch:
//!
//! * the [`Distribution`] trait — a sampling function over an RNG,
//! * the [`Continuous`] and [`Discrete`] traits — densities, CDFs, moments
//!   and quantiles for the distributions that have them (needed by the
//!   Bayesian machinery in the case studies, e.g. BayesLife's likelihoods
//!   and the GPS walking-speed prior),
//! * concrete distributions: [`Uniform`], [`Gaussian`] (Box–Muller),
//!   [`Bernoulli`], [`Rayleigh`] (the paper's GPS posterior), [`Exponential`],
//!   [`Binomial`], [`Triangular`], [`LogNormal`], [`PointMass`],
//!   [`Empirical`] sample pools, [`Mixture`], [`Truncated`], [`Categorical`],
//!   and [`KernelDensity`] estimates.
//!
//! Everything is implemented in this repository — no external statistics
//! crates — so the reproduction is self-contained.
//!
//! # Examples
//!
//! ```
//! use uncertain_dist::{Distribution, Continuous, Gaussian};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), uncertain_dist::ParamError> {
//! let g = Gaussian::new(0.0, 1.0)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let x = g.sample(&mut rng);
//! assert!(x.is_finite());
//! assert!((g.cdf(0.0) - 0.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_debug_implementations)]

pub mod column;
pub mod special;
pub mod trig;

mod bernoulli;
mod beta;
mod binomial;
mod categorical;
mod empirical;
mod error;
mod exponential;
mod gamma;
mod gaussian;
mod kde;
mod lognormal;
mod mixture;
mod point;
mod poisson;
mod rayleigh;
mod rician;
mod spec;
mod student_t;
mod traits;
mod triangular;
mod truncated;
mod uniform;

pub use bernoulli::Bernoulli;
pub use beta::Beta;
pub use binomial::Binomial;
pub use categorical::Categorical;
pub use column::{fast_cos_2pi, fast_ln};
pub use empirical::Empirical;
pub use error::ParamError;
pub use exponential::Exponential;
pub use gamma::Gamma;
pub use gaussian::Gaussian;
pub use kde::KernelDensity;
pub use lognormal::LogNormal;
pub use mixture::Mixture;
pub use point::PointMass;
pub use poisson::Poisson;
pub use rayleigh::Rayleigh;
pub use rician::Rician;
pub use spec::DistSpec;
pub use student_t::StudentT;
pub use traits::{Continuous, Discrete, Distribution, SamplingFn};
pub use triangular::Triangular;
pub use truncated::Truncated;
pub use uniform::Uniform;
