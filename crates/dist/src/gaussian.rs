//! Gaussian (normal) distribution, sampled with the Box–Muller transform.

use crate::column::{self, fast_cos_2pi, fast_ln};
use crate::special::{standard_normal_cdf, standard_normal_quantile};
use crate::{Continuous, Distribution, ParamError};
use rand::{Rng, RngCore};

/// Gaussian (normal) distribution with mean `μ` and standard deviation `σ`.
///
/// The paper names the Box–Muller transform as the canonical sampling
/// function for the Gaussian (§4.1); that is exactly what
/// [`Distribution::sample`] implements here (the trigonometric variant, one
/// variate per call so that sampling is stateless and `Sync`).
///
/// # Examples
///
/// ```
/// use uncertain_dist::{Continuous, Gaussian};
///
/// # fn main() -> Result<(), uncertain_dist::ParamError> {
/// let g = Gaussian::new(3.0, 2.0)?;
/// assert_eq!(g.mean(), 3.0);
/// assert_eq!(g.variance(), 4.0);
/// assert!((g.cdf(3.0) - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std_dev: f64,
}

impl Gaussian {
    /// Creates a Gaussian with the given mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `std_dev` is not strictly positive or either
    /// parameter is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, ParamError> {
        if !mean.is_finite() || !std_dev.is_finite() {
            return Err(ParamError::new(format!(
                "gaussian parameters must be finite, got N({mean}, {std_dev})"
            )));
        }
        if std_dev <= 0.0 {
            return Err(ParamError::new(format!(
                "gaussian std_dev must be positive, got {std_dev}"
            )));
        }
        Ok(Self { mean, std_dev })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self {
            mean: 0.0,
            std_dev: 1.0,
        }
    }

    /// Draws one standard-normal variate via Box–Muller.
    ///
    /// Uses the crate's deterministic [`fast_ln`]/[`fast_cos_2pi`] kernels
    /// — the same straight-line arithmetic the batched
    /// [`Distribution::fill_column`] pass applies — so scalar and columnar
    /// sampling are bitwise identical (see the [`column`](mod@column)
    /// module docs).
    fn standard_draw(rng: &mut dyn RngCore) -> f64 {
        // u1 ∈ (0, 1] to keep ln(u1) finite.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        (-2.0 * fast_ln(u1)).sqrt() * fast_cos_2pi(u2)
    }
}

impl Distribution<f64> for Gaussian {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.mean + self.std_dev * Self::standard_draw(rng)
    }

    fn fill_column(&self, rngs: &mut [rand::rngs::SmallRng], out: &mut Vec<f64>) {
        // Per-index draws first (same order and count as `sample`), then
        // one vectorized Box–Muller pass over the uniform columns.
        column::draw_open01(rngs, out); // out[i] = u1 for index i
        column::with_scratch(rngs.len(), |u2| {
            u2.extend(rngs.iter_mut().map(|rng| rng.gen::<f64>()));
            column::gaussian_transform(out, u2, self.mean, self.std_dev);
        });
    }

    fn spec(&self) -> Option<crate::DistSpec> {
        Some(crate::DistSpec::Gaussian {
            mean: self.mean,
            std_dev: self.std_dev,
        })
    }
}

impl Continuous for Gaussian {
    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        -0.5 * z * z - self.std_dev.ln() - 0.5 * (2.0 * core::f64::consts::PI).ln()
    }

    fn cdf(&self, x: f64) -> f64 {
        standard_normal_cdf((x - self.mean) / self.std_dev)
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.std_dev * self.std_dev
    }

    fn std_dev(&self) -> f64 {
        self.std_dev
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mean + self.std_dev * standard_normal_quantile(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_params() {
        assert!(Gaussian::new(0.0, 0.0).is_err());
        assert!(Gaussian::new(0.0, -1.0).is_err());
        assert!(Gaussian::new(f64::NAN, 1.0).is_err());
        assert!(Gaussian::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn sample_moments_match() {
        let g = Gaussian::new(5.0, 3.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean={mean}");
        assert!((var - 9.0).abs() < 0.25, "var={var}");
    }

    #[test]
    fn pdf_peak_at_mean() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let peak = 1.0 / (2.0 * core::f64::consts::PI).sqrt();
        assert!((g.pdf(0.0) - peak).abs() < 1e-12);
        assert!(g.pdf(0.0) > g.pdf(0.5));
        assert!(g.pdf(0.5) > g.pdf(1.5));
    }

    #[test]
    fn cdf_known_values() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        // Φ(1.96) ≈ 0.975
        assert!((g.cdf(1.959963984540054) - 0.975).abs() < 1e-9);
        assert!((g.cdf(-1.959963984540054) - 0.025).abs() < 1e-9);
    }

    #[test]
    fn quantile_round_trip() {
        let g = Gaussian::new(-2.0, 0.5).unwrap();
        for &p in &[0.01, 0.2, 0.5, 0.8, 0.99] {
            assert!((g.cdf(g.quantile(p)) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn within_one_sigma_fraction() {
        // ~68.3% of samples must fall within one σ.
        let g = Gaussian::new(0.0, 2.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let n = 20_000;
        let inside = (0..n).filter(|_| g.sample(&mut rng).abs() <= 2.0).count() as f64 / n as f64;
        assert!((inside - 0.6827).abs() < 0.02, "inside={inside}");
    }
}
