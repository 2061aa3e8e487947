//! Calibration of the analytic evaluation backend against sampling.
//!
//! The `exact` analysis answers recognized queries in closed form with
//! zero samples; this suite is the evidence that switching it on is safe:
//!
//! * graphs it declines (the Fig. 9 GPS network's transcendental speed
//!   computation) stay **bitwise identical** to the sampling path,
//! * graphs it recognizes (Bernoulli evidence chains, linear-Gaussian
//!   comparisons) agree with the SPRT's verdicts and estimates,
//! * the seed-stream contract holds: an exact hit consumes exactly one
//!   query index, so later sampled queries are bitwise unaffected by
//!   which backend answered an earlier one,
//! * the strategy override and the outcome's provenance round-trip
//!   through the serve wire protocol.

use proptest::prelude::*;
use uncertain_suite::gps::{uncertain_speed, GeoCoordinate, GpsReading, MPS_TO_MPH};
use uncertain_suite::{
    Error, EvalConfig, EvalStrategy, Provenance, ServeClient, ServeConfig, Service, Session,
    Uncertain,
};

/// The literal Fig. 9 evidence network: walking at a true 3 mph with
/// ε = 4 m GPS fixes, asking the paper's `Speed < 4` question. The speed
/// computation is transcendental (haversine), so the analytic backend
/// must decline it.
fn fig9_gps() -> Uncertain<bool> {
    let start = GeoCoordinate::new(47.6, -122.3);
    let end = start.destination(3.0 / MPS_TO_MPH, 90.0);
    let a = GpsReading::new(start, 4.0).expect("valid accuracy");
    let b = GpsReading::new(end, 4.0).expect("valid accuracy");
    uncertain_speed(&a, &b, 1.0).lt(4.0)
}

/// The `3n + 7`-node linear-Gaussian evidence conditional the session/serve
/// benchmarks use — affine chains over two shared Gaussian leaves,
/// compared and conjoined. Entirely inside the analytic fragment.
fn evidence_chain(n: usize) -> Uncertain<bool> {
    let x = Uncertain::normal(0.0, 1.0).unwrap();
    let y = Uncertain::normal(1.0, 2.0).unwrap();
    let mut left = x.clone();
    let mut right = y.clone();
    for _ in 0..n {
        left = left + &x;
        right = right * 0.99 + &y;
    }
    let a = left.lt(&(right + 40.0 + 8.0 * n as f64));
    let b = (&x + &y).gt(-10.0);
    &a & &b
}

/// A graph outside the analytic fragment but inside the wire format:
/// a product of two non-constant Gaussians.
fn non_analytic_f64() -> Uncertain<f64> {
    let x = Uncertain::normal(1.0, 0.5).unwrap();
    let y = Uncertain::normal(2.0, 0.5).unwrap();
    &x * &y
}

#[test]
fn fig9_gps_stays_bitwise_sampled_under_auto() {
    let cond = fig9_gps();
    let sampling = EvalConfig::default();
    let auto = sampling.with_strategy(EvalStrategy::Auto);

    let mut a = Session::seeded(2014);
    let mut b = Session::seeded(2014).with_strategy(EvalStrategy::Auto);
    let sampled = a.try_evaluate(&cond, 0.5, &sampling).unwrap();
    let routed = b.try_evaluate(&cond, 0.5, &auto).unwrap();

    // The analytic backend declined, so Auto fell through to the SPRT
    // with an untouched seed stream: every field is bitwise identical.
    assert_eq!(sampled.samples, routed.samples);
    assert_eq!(sampled.estimate.to_bits(), routed.estimate.to_bits());
    assert_eq!(sampled.accepted, routed.accepted);
    assert_eq!(
        routed.provenance,
        Provenance::Sampled {
            samples: routed.samples
        }
    );
    assert_eq!(b.exact_hits(), 0);
}

#[test]
fn evidence_chain_decides_with_zero_samples_under_auto() {
    let cond = evidence_chain(50);
    let sampling = EvalConfig::default();
    let auto = sampling.with_strategy(EvalStrategy::Auto);

    let mut s = Session::seeded(7);
    let sampled = s.try_evaluate(&cond, 0.5, &sampling).unwrap();

    let mut e = Session::seeded(7).with_strategy(EvalStrategy::Auto);
    let exact = e.try_evaluate(&cond, 0.5, &auto).unwrap();

    assert_eq!(exact.samples, 0, "analytic path must draw nothing");
    assert!(exact.provenance.is_exact());
    assert!(exact.conclusive);
    assert_eq!(e.exact_hits(), 1);
    // Same verdict as the SPRT, and the closed-form probability sits
    // inside the sampling estimate's SPRT tolerance.
    assert_eq!(exact.accepted, sampled.accepted);
    assert!(
        (exact.estimate - sampled.estimate).abs() < 0.05,
        "exact {} vs sampled {}",
        exact.estimate,
        sampled.estimate
    );
}

#[test]
fn bernoulli_evidence_chain_is_exact() {
    // Conjunction/disjunction/negation over independent Bernoulli leaves:
    // Beta-pseudo-count territory, p = 0.9 · (1 − 0.2 · (1 − 0.7)).
    let a = Uncertain::bernoulli(0.9).unwrap();
    let b = Uncertain::bernoulli(0.2).unwrap();
    let c = Uncertain::bernoulli(0.7).unwrap();
    let cond = &a & &(!&(&b & &(!&c)));
    let auto = EvalConfig::default().with_strategy(EvalStrategy::Auto);
    let mut s = Session::seeded(0).with_strategy(EvalStrategy::Auto);
    let outcome = s.try_evaluate(&cond, 0.5, &auto).unwrap();
    assert_eq!(outcome.samples, 0);
    assert!(outcome.provenance.is_exact());
    assert!((outcome.estimate - 0.9 * (1.0 - 0.2 * 0.3)).abs() < 1e-12);
    assert!(outcome.accepted);
}

#[test]
fn exact_hit_consumes_exactly_one_query_index() {
    // Two sessions, same seed: one answers the chain analytically, the
    // other samples it. The *next* (sampled) query must then be bitwise
    // identical in both — the exact path burned exactly one query index.
    let chain = evidence_chain(20);
    let probe = fig9_gps();
    let sampling = EvalConfig::default();
    let auto = sampling.with_strategy(EvalStrategy::Auto);

    let mut a = Session::seeded(99);
    let mut b = Session::seeded(99).with_strategy(EvalStrategy::Auto);
    let _ = a.try_evaluate(&chain, 0.5, &sampling).unwrap();
    let fast = b.try_evaluate(&chain, 0.5, &auto).unwrap();
    assert_eq!(fast.samples, 0);

    let after_a = a.try_evaluate(&probe, 0.5, &sampling).unwrap();
    let after_b = b.try_evaluate(&probe, 0.5, &auto).unwrap();
    assert_eq!(after_a.samples, after_b.samples);
    assert_eq!(after_a.estimate.to_bits(), after_b.estimate.to_bits());
}

#[test]
fn exact_only_errors_on_unrecognized_graphs_without_burning_seeds() {
    let cond = fig9_gps();
    let exact_only = EvalConfig::default().with_strategy(EvalStrategy::ExactOnly);
    let mut s = Session::seeded(5).with_strategy(EvalStrategy::ExactOnly);
    let before = s.query_index();
    match s.try_evaluate(&cond, 0.5, &exact_only) {
        Err(Error::NotAnalytic(e)) => assert_eq!(e.query, "evaluate"),
        other => panic!("expected NotAnalytic, got {other:?}"),
    }
    match s.stats_with_provenance(&non_analytic_f64(), 100) {
        Err(Error::NotAnalytic(e)) => assert_eq!(e.query, "stats"),
        other => panic!("expected NotAnalytic, got {other:?}"),
    }
    match s.try_e(&non_analytic_f64(), 100) {
        Err(Error::NotAnalytic(e)) => assert_eq!(e.query, "e"),
        other => panic!("expected NotAnalytic, got {other:?}"),
    }
    assert_eq!(
        s.query_index(),
        before,
        "failed queries must not advance the stream"
    );
}

#[test]
fn exact_stats_match_the_law_and_sampling_agrees() {
    // z = 2x − y + 3 with x ~ N(1, 2²), y ~ N(−2, 1): N(7, 17).
    let x = Uncertain::normal(1.0, 2.0).unwrap();
    let y = Uncertain::normal(-2.0, 1.0).unwrap();
    let z = &(&x * 2.0) - &y + 3.0;

    let mut exact = Session::seeded(3).with_strategy(EvalStrategy::Auto);
    let outcome = exact.stats_with_provenance(&z, 4001).unwrap();
    assert!(outcome.provenance.is_exact());
    assert!((outcome.summary.mean() - 7.0).abs() < 1e-9);
    assert!((outcome.summary.variance() - 17.0).abs() < 1e-9);
    assert_eq!(outcome.summary.count(), 4001);
    // The synthesized quantile grid is an honest Gaussian shape: its
    // median matches the mean and its 95% interval matches ±1.96σ.
    let (lo, hi) = outcome.summary.coverage_interval(0.95);
    let sd = 17.0_f64.sqrt();
    assert!((lo - (7.0 - 1.96 * sd)).abs() < 0.05 * sd);
    assert!((hi - (7.0 + 1.96 * sd)).abs() < 0.05 * sd);

    // Sampling lands within Monte-Carlo error of the same law.
    let mut sampled = Session::seeded(3);
    let summary = z.stats_in(&mut sampled, 4001).unwrap();
    assert!((summary.mean() - 7.0).abs() < 4.0 * sd / (4001.0_f64).sqrt());

    // `e` under Auto returns the exact mean with zero extra cost.
    assert_eq!(exact.try_e(&z, 10).unwrap(), 7.0);
}

#[test]
fn strategy_and_provenance_roundtrip_through_the_serve_stack() {
    let service = Service::start(ServeConfig::default().with_shards(1).with_seed(11));
    let listener = service.listen().expect("listen");
    let client = ServeClient::connect(listener.local_addr()).expect("connect");

    let chain = evidence_chain(50);
    // Default (inherit = SamplingOnly): the SPRT answers.
    let sampled = client.evaluate(1, &chain, 0.5).unwrap();
    assert!(sampled.samples > 0);
    assert_eq!(
        sampled.provenance,
        Provenance::Sampled {
            samples: sampled.samples
        }
    );
    // Auto override: the analytic backend answers, across the wire.
    let exact = client
        .evaluate_with_strategy(1, &chain, 0.5, EvalStrategy::Auto)
        .unwrap();
    assert_eq!(exact.samples, 0);
    assert!(exact.provenance.is_exact());
    assert_eq!(exact.accepted, sampled.accepted);

    // The override is per-request: the same tenant's next default
    // request samples again.
    let again = client.evaluate(1, &chain, 0.5).unwrap();
    assert!(again.samples > 0);

    // Exact e/stats cross the wire too.
    let x = Uncertain::normal(4.0, 1.0).unwrap();
    let z = &x + 1.0;
    assert_eq!(
        client
            .e_with_strategy(2, &z, 100, EvalStrategy::ExactOnly)
            .unwrap(),
        5.0
    );
    let summary = client
        .stats_with_strategy(2, &z, 501, EvalStrategy::Auto)
        .unwrap();
    assert!((summary.mean() - 5.0).abs() < 1e-9);

    // ExactOnly on an unrecognized graph is an invalid request, not a
    // hang or a silent fallback.
    let err = client
        .e_with_strategy(3, &non_analytic_f64(), 100, EvalStrategy::ExactOnly)
        .unwrap_err();
    assert!(matches!(err, uncertain_suite::ServeError::Invalid(_)));

    assert!(service.metrics().exact_decisions() >= 3);
    listener.shutdown();
    service.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random linear-Gaussian conditionals with a decisive margin: the
    /// analytic verdict and the SPRT verdict always agree, and Auto
    /// never changes a decision relative to SamplingOnly at the default
    /// config.
    #[test]
    fn auto_agrees_with_sampling_on_linear_gaussian_graphs(
        mu_x in -5.0f64..5.0,
        mu_y in -5.0f64..5.0,
        sd_x in 0.1f64..3.0,
        sd_y in 0.1f64..3.0,
        a in -2.0f64..2.0,
        b in -2.0f64..2.0,
        k in 1.8f64..4.0,
        seed in 0u64..1000,
        side in 0u8..2,
    ) {
        let above = side == 1;
        let x = Uncertain::normal(mu_x, sd_x).unwrap();
        let y = Uncertain::normal(mu_y, sd_y).unwrap();
        let z = &(&x * a) + &(&y * b) + 0.5;
        let mean = a * mu_x + b * mu_y + 0.5;
        let sd = (a * a * sd_x * sd_x + b * b * sd_y * sd_y).sqrt().max(1e-6);
        // Compare k standard deviations away from the mean, on either
        // side, so Pr[z < c] is decisively far from the 0.5 threshold.
        let c = if above { mean + k * sd } else { mean - k * sd };
        let cond = z.lt(c);

        let sampling = EvalConfig::default();
        let auto = sampling.with_strategy(EvalStrategy::Auto);

        let mut s = Session::seeded(seed);
        let sampled = s.try_evaluate(&cond, 0.5, &sampling).unwrap();
        let mut e = Session::seeded(seed).with_strategy(EvalStrategy::Auto);
        let exact = e.try_evaluate(&cond, 0.5, &auto).unwrap();

        prop_assert_eq!(exact.samples, 0);
        prop_assert!(exact.provenance.is_exact());
        prop_assert_eq!(exact.accepted, sampled.accepted);
        prop_assert_eq!(exact.accepted, above);
        // The closed-form probability sits within the SPRT estimate's
        // tolerance at this decisive margin.
        prop_assert!((exact.estimate - sampled.estimate).abs() < 0.1);
    }
}
