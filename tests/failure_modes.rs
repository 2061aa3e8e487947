//! Failure-injection tests: how the suite behaves when computations go
//! wrong — non-finite samples, impossible evidence, invalid configuration,
//! degenerate workloads. A library for uncertain data must itself fail
//! predictably.

use uncertain_suite::dist::{Empirical, ParamError};
use uncertain_suite::stats::{StatsError, Summary};
use uncertain_suite::{Error, Session, Uncertain};

#[test]
fn division_by_zero_mass_surfaces_as_stats_error() {
    // A denominator with mass exactly at 0 produces infinities; stats_in
    // must refuse rather than return a garbage mean.
    let numerator = Uncertain::point(1.0);
    let denominator = Uncertain::point(0.0);
    let ratio = &numerator / &denominator;
    let mut s = Session::sequential(1);
    let result = ratio.stats_in(&mut s, 100);
    assert!(result.is_err(), "non-finite samples must not summarize");
}

#[test]
fn nan_producing_map_is_caught_by_summary() {
    let x = Uncertain::normal(0.0, 1.0).unwrap();
    let sqrt = x.sqrt(); // NaN for roughly half the samples
    let mut s = Session::sequential(2);
    assert!(sqrt.stats_in(&mut s, 200).is_err());
    // The calibrated alternative: clamp the domain first.
    let safe = x.abs().sqrt();
    assert!(safe.stats_in(&mut s, 200).is_ok());
}

#[test]
fn comparisons_with_nan_are_well_defined_booleans() {
    // NaN compares false against everything; the Bernoulli is still a
    // legal bool stream and evidence evaluates to 0.
    let nan = Uncertain::point(f64::NAN);
    let gt = nan.gt(0.0);
    let lt = nan.lt(0.0);
    let mut s = Session::sequential(3);
    assert_eq!(gt.probability_in(&mut s, 100), 0.0);
    assert_eq!(lt.probability_in(&mut s, 100), 0.0);
}

#[test]
#[should_panic(expected = "condition_on")]
fn impossible_hard_evidence_panics_with_context() {
    let x = Uncertain::uniform(0.0, 1.0).unwrap();
    let impossible = x.condition_on(|v| *v > 2.0, 16);
    let mut s = Session::sequential(4);
    let _ = s.sample(&impossible);
}

#[test]
fn invalid_distribution_parameters_are_errors_not_panics() {
    assert!(Uncertain::normal(0.0, -1.0).is_err());
    assert!(Uncertain::normal(f64::NAN, 1.0).is_err());
    assert!(Uncertain::uniform(1.0, 1.0).is_err());
    assert!(Uncertain::bernoulli(1.5).is_err());
    assert!(Uncertain::rayleigh(0.0).is_err());
    // Error types are real std errors with readable messages.
    let err: ParamError = Uncertain::normal(0.0, -1.0).unwrap_err();
    assert!(err.to_string().contains("std_dev"));
}

#[test]
fn empty_data_is_an_error_everywhere() {
    assert!(Summary::from_slice(&[]).is_err());
    assert!(Empirical::<f64>::new(vec![]).is_err());
    let err: StatsError = Summary::from_slice(&[]).unwrap_err();
    assert!(!err.to_string().is_empty());
}

#[test]
#[should_panic(expected = "invalid conditional threshold")]
fn out_of_range_threshold_panics_at_the_conditional() {
    let b = Uncertain::bernoulli(0.5).unwrap();
    let mut s = Session::sequential(5);
    let _ = b.evaluate_in(&mut s, 0.0);
}

#[test]
fn out_of_range_thresholds_are_typed_errors_that_draw_nothing() {
    let b = Uncertain::bernoulli(0.5).unwrap();
    let mut s = Session::seeded(6);
    let config = *s.config();
    for threshold in [1.5, -0.1, f64::NAN] {
        let err = s.try_evaluate(&b, threshold, &config).unwrap_err();
        assert!(
            matches!(err, Error::Stats(_)),
            "threshold {threshold}: {err}"
        );
    }
    // A rejected threshold spends no query, draws no sample and compiles
    // nothing, so the session answers its next query like a fresh one.
    let mut fresh = Session::seeded(6);
    assert_eq!(s.query_index(), Some(0));
    assert_eq!(s.joint_samples(), 0);
    assert_eq!(s.cache_stats(), fresh.cache_stats());
    assert_eq!(
        s.try_evaluate(&b, 0.5, &config).unwrap(),
        fresh.try_evaluate(&b, 0.5, &config).unwrap()
    );
}

#[test]
fn degenerate_point_mass_conditionals_decide_instantly() {
    // Pr is exactly 0 or 1: the SPRT crosses a boundary on the first batch.
    let always = Uncertain::point(true);
    let never = Uncertain::point(false);
    let mut s = Session::sequential(6);
    let o1 = always.evaluate_in(&mut s, 0.5);
    let o2 = never.evaluate_in(&mut s, 0.5);
    assert!(o1.is_true() && o1.samples <= 20);
    assert!(o2.is_false() && o2.samples <= 20);
}

#[test]
fn weight_by_tolerates_pathological_weight_functions() {
    let x = Uncertain::uniform(0.0, 1.0).unwrap();
    let mut s = Session::sequential(7);
    // NaN weights are treated as zero (with fallback), not propagated.
    let nan_weights = x.weight_by(|_| f64::NAN);
    let v = s.sample(&nan_weights);
    assert!((0.0..1.0).contains(&v));
    // Infinite weights are treated as zero too (not a crash).
    let inf_weights = x.weight_by(|_| f64::INFINITY);
    let v = s.sample(&inf_weights);
    assert!((0.0..1.0).contains(&v));
    // Negative weights clamp to zero: only the positive-weight region
    // survives.
    let signed = x.weight_by(|v| if *v > 0.5 { 1.0 } else { -5.0 });
    for _ in 0..100 {
        assert!(s.sample(&signed) > 0.5);
    }
}

#[test]
fn extreme_magnitudes_flow_through_the_network() {
    let tiny = Uncertain::normal(1e-300, 1e-301).unwrap();
    let huge = Uncertain::normal(1e300, 1e299).unwrap();
    let mut s = Session::sequential(8);
    assert!(s.sample(&tiny).is_finite());
    assert!(s.sample(&huge).is_finite());
    // Product overflows to infinity — detected by stats, not hidden.
    let product = &huge * &huge;
    assert!(product.stats_in(&mut s, 50).is_err());
}

#[test]
fn sampler_state_is_isolated_between_variables() {
    // Evaluating one network never perturbs the distribution of another:
    // interleaved sampling matches isolated sampling statistically.
    let a = Uncertain::normal(0.0, 1.0).unwrap();
    let b = Uncertain::uniform(0.0, 1.0).unwrap();
    let mut s = Session::sequential(9);
    let mut a_sum = 0.0;
    for i in 0..4000 {
        if i % 2 == 0 {
            a_sum += s.sample(&a);
        } else {
            let _ = s.sample(&b);
        }
    }
    assert!((a_sum / 2000.0).abs() < 0.07);
}
