//! Hybrid (Hamiltonian) Monte Carlo (paper §5.3, Neal \[20\]).
//!
//! "We adopt the hybrid Monte Carlo algorithm to create samples from the
//! PPD. … We execute hybrid Monte Carlo offline and capture a fixed number
//! of samples in a training phase." This module is a from-scratch,
//! general-purpose HMC over any differentiable log-density: leapfrog
//! integration of Hamiltonian dynamics plus a Metropolis accept step, with
//! burn-in and thinning ("we discard most samples and only retain every
//! Mth sample").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A differentiable (unnormalized) log-density over ℝⁿ — the target an
/// [`Hmc`] sampler explores.
pub trait LogDensity {
    /// Dimension of the parameter space.
    fn dim(&self) -> usize;
    /// Unnormalized log-probability at `w`.
    fn log_prob(&self, w: &[f64]) -> f64;
    /// Gradient of [`LogDensity::log_prob`] at `w`.
    fn grad(&self, w: &[f64]) -> Vec<f64>;
}

/// HMC tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmcConfig {
    /// Leapfrog step size ε.
    pub step_size: f64,
    /// Leapfrog steps L per proposal.
    pub leapfrog_steps: usize,
    /// Proposals discarded before retaining samples.
    pub burn_in: usize,
    /// Samples to retain.
    pub samples: usize,
    /// Keep every `thin`-th post-burn-in sample (the paper's M).
    pub thin: usize,
    /// RNG seed (HMC runs offline; determinism makes experiments
    /// repeatable).
    pub seed: u64,
}

impl Default for HmcConfig {
    fn default() -> Self {
        Self {
            step_size: 0.01,
            leapfrog_steps: 20,
            burn_in: 200,
            samples: 200,
            thin: 5,
            seed: 0,
        }
    }
}

/// The retained posterior samples plus diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct HmcRun {
    /// Retained parameter vectors (one per kept sample).
    pub samples: Vec<Vec<f64>>,
    /// Fraction of proposals accepted (healthy HMC sits around 0.6–0.95).
    pub acceptance_rate: f64,
}

/// A hybrid Monte Carlo sampler.
///
/// # Examples
///
/// Sampling a standard normal:
///
/// ```
/// use uncertain_neural::{Hmc, HmcConfig, LogDensity};
///
/// struct StdNormal;
/// impl LogDensity for StdNormal {
///     fn dim(&self) -> usize { 1 }
///     fn log_prob(&self, w: &[f64]) -> f64 { -0.5 * w[0] * w[0] }
///     fn grad(&self, w: &[f64]) -> Vec<f64> { vec![-w[0]] }
/// }
///
/// let cfg = HmcConfig { step_size: 0.3, leapfrog_steps: 10, burn_in: 100,
///                       samples: 500, thin: 2, seed: 1 };
/// let run = Hmc::new(cfg).sample(&StdNormal, vec![3.0]);
/// let mean: f64 = run.samples.iter().map(|s| s[0]).sum::<f64>() / 500.0;
/// assert!(mean.abs() < 0.2);
/// assert!(run.acceptance_rate > 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hmc {
    config: HmcConfig,
}

impl Hmc {
    /// Creates a sampler with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics on non-positive step size, zero leapfrog steps, zero samples,
    /// or zero thinning.
    pub fn new(config: HmcConfig) -> Self {
        assert!(config.step_size > 0.0, "step size must be positive");
        assert!(config.leapfrog_steps > 0, "need at least one leapfrog step");
        assert!(config.samples > 0, "need at least one retained sample");
        assert!(config.thin > 0, "thinning factor must be at least 1");
        Self { config }
    }

    /// The tuning in use.
    pub fn config(&self) -> &HmcConfig {
        &self.config
    }

    /// Runs the chain from `init`, returning the retained samples.
    ///
    /// # Panics
    ///
    /// Panics if `init.len() != target.dim()`.
    pub fn sample<D: LogDensity>(&self, target: &D, init: Vec<f64>) -> HmcRun {
        assert_eq!(init.len(), target.dim(), "init dimension mismatch");
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut position = init;
        let mut log_p = target.log_prob(&position);
        let mut kept = Vec::with_capacity(cfg.samples);
        let mut accepted = 0usize;
        let mut proposals = 0usize;
        let total_iterations = cfg.burn_in + cfg.samples * cfg.thin;

        for iter in 0..total_iterations {
            // Fresh momentum ~ N(0, I).
            let mut momentum: Vec<f64> = (0..position.len()).map(|_| gaussian(&mut rng)).collect();
            let kinetic0: f64 = 0.5 * momentum.iter().map(|p| p * p).sum::<f64>();

            // Randomize the trajectory length per proposal (uniform in
            // [⌈L/2⌉, L]). Fixed-length trajectories resonate with
            // oscillatory targets — consecutive samples become (anti-)
            // periodic and the chain stops mixing (Neal, "MCMC using
            // Hamiltonian dynamics", §3.2).
            let lo = cfg.leapfrog_steps.div_ceil(2);
            let steps = rng.gen_range(lo..=cfg.leapfrog_steps);

            // Leapfrog integration.
            let mut q = position.clone();
            let mut grad = target.grad(&q);
            for p in momentum.iter_mut().zip(&grad) {
                *p.0 += 0.5 * cfg.step_size * p.1;
            }
            for step in 0..steps {
                for (qi, pi) in q.iter_mut().zip(&momentum) {
                    *qi += cfg.step_size * pi;
                }
                grad = target.grad(&q);
                let half = if step == steps - 1 { 0.5 } else { 1.0 };
                for (pi, gi) in momentum.iter_mut().zip(&grad) {
                    *pi += half * cfg.step_size * gi;
                }
            }

            // Metropolis accept.
            let log_p_new = target.log_prob(&q);
            let kinetic1: f64 = 0.5 * momentum.iter().map(|p| p * p).sum::<f64>();
            let log_accept = (log_p_new - kinetic1) - (log_p - kinetic0);
            proposals += 1;
            if log_accept >= 0.0 || rng.gen::<f64>() < log_accept.exp() {
                position = q;
                log_p = log_p_new;
                accepted += 1;
            }

            if iter >= cfg.burn_in && (iter - cfg.burn_in).is_multiple_of(cfg.thin) {
                kept.push(position.clone());
            }
        }
        kept.truncate(cfg.samples);
        HmcRun {
            samples: kept,
            acceptance_rate: accepted as f64 / proposals as f64,
        }
    }
}

/// One standard-normal draw (Box–Muller).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Gaussian2 {
        mean: [f64; 2],
        inv_var: [f64; 2],
    }

    impl LogDensity for Gaussian2 {
        fn dim(&self) -> usize {
            2
        }
        fn log_prob(&self, w: &[f64]) -> f64 {
            -0.5 * (0..2)
                .map(|i| (w[i] - self.mean[i]).powi(2) * self.inv_var[i])
                .sum::<f64>()
        }
        fn grad(&self, w: &[f64]) -> Vec<f64> {
            (0..2)
                .map(|i| -(w[i] - self.mean[i]) * self.inv_var[i])
                .collect()
        }
    }

    fn target() -> Gaussian2 {
        Gaussian2 {
            mean: [2.0, -1.0],
            inv_var: [1.0, 4.0], // variances 1 and 0.25
        }
    }

    fn run() -> HmcRun {
        let cfg = HmcConfig {
            step_size: 0.2,
            leapfrog_steps: 15,
            burn_in: 300,
            samples: 1500,
            thin: 2,
            seed: 7,
        };
        Hmc::new(cfg).sample(&target(), vec![0.0, 0.0])
    }

    #[test]
    #[should_panic(expected = "step size")]
    fn rejects_bad_step_size() {
        let cfg = HmcConfig {
            step_size: 0.0,
            ..HmcConfig::default()
        };
        let _ = Hmc::new(cfg);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_bad_init() {
        let _ = Hmc::new(HmcConfig::default()).sample(&target(), vec![0.0]);
    }

    #[test]
    fn recovers_mean_and_variance() {
        let run = run();
        assert_eq!(run.samples.len(), 1500);
        let mean0: f64 = run.samples.iter().map(|s| s[0]).sum::<f64>() / 1500.0;
        let mean1: f64 = run.samples.iter().map(|s| s[1]).sum::<f64>() / 1500.0;
        assert!((mean0 - 2.0).abs() < 0.1, "mean0={mean0}");
        assert!((mean1 + 1.0).abs() < 0.1, "mean1={mean1}");
        let var0: f64 = run
            .samples
            .iter()
            .map(|s| (s[0] - mean0).powi(2))
            .sum::<f64>()
            / 1499.0;
        let var1: f64 = run
            .samples
            .iter()
            .map(|s| (s[1] - mean1).powi(2))
            .sum::<f64>()
            / 1499.0;
        assert!((var0 - 1.0).abs() < 0.2, "var0={var0}");
        assert!((var1 - 0.25).abs() < 0.08, "var1={var1}");
    }

    #[test]
    fn healthy_acceptance_rate() {
        let run = run();
        assert!(
            run.acceptance_rate > 0.6,
            "acceptance {}",
            run.acceptance_rate
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run();
        let b = run();
        assert_eq!(a.samples[0], b.samples[0]);
        assert_eq!(a.acceptance_rate, b.acceptance_rate);
    }

    #[test]
    fn huge_step_size_collapses_acceptance() {
        let cfg = HmcConfig {
            step_size: 50.0,
            leapfrog_steps: 10,
            burn_in: 10,
            samples: 100,
            thin: 1,
            seed: 3,
        };
        let run = Hmc::new(cfg).sample(&target(), vec![0.0, 0.0]);
        assert!(
            run.acceptance_rate < 0.2,
            "acceptance {}",
            run.acceptance_rate
        );
    }
}
