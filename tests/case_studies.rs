//! End-to-end integration tests spanning the case-study crates: each
//! asserts the qualitative claim of the corresponding section of the
//! paper's evaluation, at reduced scale (the figure binaries run the full
//! scale).

use uncertain_suite::gps::{
    naive_speed, priors, uncertain_speed, Action, GeoCoordinate, GpsReading, SimulatedGps,
    WalkExperiment,
};
use uncertain_suite::life::{LifeExperiment, Variant};
use uncertain_suite::neural::eval::{parakeet_precision_recall, parrot_confusion};
use uncertain_suite::neural::sobel::generate_dataset;
use uncertain_suite::neural::{Parakeet, Parrot};
use uncertain_suite::Session;

// ---------------------------------------------------------------------- GPS

#[test]
fn gps_walking_claims() {
    // §5.1 at reduced scale: naive is absurd, E smooths, priors repair.
    let result = WalkExperiment::new(4.0, 150, 11)
        .samples_per_estimate(150)
        .run()
        .unwrap();

    // Compounded error: the naive series shows running speeds for a walker.
    assert!(result.max_of(|r| r.naive_speed) > 6.0);

    // The prior-improved series never leaves plausible walking range.
    assert!(result.max_of(|r| r.improved_speed) <= 8.0);

    // Mean absolute error: improved beats naive.
    let mae = |f: &dyn Fn(&uncertain_suite::gps::WalkRecord) -> f64| {
        result
            .records
            .iter()
            .map(|r| (f(r) - r.true_speed).abs())
            .sum::<f64>()
            / result.records.len() as f64
    };
    let naive_err = mae(&|r| r.naive_speed);
    let improved_err = mae(&|r| r.improved_speed);
    assert!(improved_err < naive_err, "{improved_err} vs {naive_err}");

    // The uncertain app nags less when unsure.
    assert!(
        result.uncertain_action_count(Action::Silent) > 0,
        "the third action exists only with evidence"
    );
}

#[test]
fn compounding_error_quantified() {
    // §2: with ε = 4 m, the 95% interval of a 1-second speed spans >10 mph
    // (the paper quotes 12.7).
    let start = GeoCoordinate::new(47.6, -122.3);
    let a = GpsReading::new(start, 4.0).unwrap();
    let b = GpsReading::new(start.destination(1.34, 90.0), 4.0).unwrap();
    let speed = uncertain_speed(&a, &b, 1.0);
    let mut s = Session::sequential(12);
    let stats = speed.stats_in(&mut s, 5000).unwrap();
    let (lo, hi) = stats.coverage_interval(0.95);
    assert!(hi - lo > 10.0, "interval = [{lo:.1}, {hi:.1}]");
}

#[test]
fn stationary_user_naive_speed_is_biased() {
    // Two fixes of a stationary user: naive speed is strictly positive
    // noise; its mean is far from zero.
    let gps = SimulatedGps::new(4.0).unwrap();
    let truth = GeoCoordinate::new(47.6, -122.3);
    let mut s = Session::sequential(13);
    let mut total = 0.0;
    let n = 200;
    for _ in 0..n {
        let a = gps.read(&truth, s.rng());
        let b = gps.read(&truth, s.rng());
        total += naive_speed(&a, &b, 1.0);
    }
    assert!(total / n as f64 > 2.0, "mean = {}", total / n as f64);
}

#[test]
fn walking_prior_is_a_library_preset() {
    // §3.5: experts ship preset priors; applications apply them in one line.
    let noisy = uncertain_suite::Uncertain::normal(20.0, 30.0).unwrap();
    let improved = priors::apply(&noisy, priors::walking_speed());
    let mut s = Session::sequential(14);
    for _ in 0..500 {
        let v = s.sample(&improved);
        assert!((0.0..=8.0).contains(&v), "prior support violated: {v}");
    }
}

// --------------------------------------------------------------------- Life

#[test]
fn sensor_life_figure_14_shape() {
    let exp = LifeExperiment::new(10, 10, 4, 3, 21);
    let sigma = 0.2;
    let naive = exp.run(Variant::Naive, sigma).unwrap();
    let sensor = exp.run(Variant::Sensor, sigma).unwrap();
    let bayes = exp.run(Variant::Bayes, sigma).unwrap();

    // (a) accuracy ordering.
    assert!(naive.error_rate() > sensor.error_rate());
    assert!(bayes.error_rate() <= sensor.error_rate());
    assert!(bayes.error_rate() < 0.01);

    // (b) cost ordering: naive = 1, bayes < sensor.
    assert_eq!(naive.samples_per_update(), 1.0);
    assert!(bayes.samples_per_update() < sensor.samples_per_update());
}

#[test]
fn sensor_life_errors_scale_with_noise() {
    let exp = LifeExperiment::new(10, 10, 4, 3, 22);
    let low = exp.run(Variant::Sensor, 0.05).unwrap();
    let high = exp.run(Variant::Sensor, 0.35).unwrap();
    assert!(
        high.error_rate() > low.error_rate(),
        "{} vs {}",
        high.error_rate(),
        low.error_rate()
    );
}

// ------------------------------------------------------------------- Neural

#[test]
fn parakeet_beats_parrot_on_precision() {
    let train = generate_dataset(250, 31);
    let test = generate_dataset(150, 32);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(33);
    let parrot = Parrot::train(&train, 40, 0.05, &mut rng);
    let parakeet = Parakeet::train_tuned(&train, 50, 34, &mut rng);

    let parrot_m = parrot_confusion(&parrot, &test);
    // Session::sequential(35) draws the recorded seed stream, so the
    // qualitative outcome is unchanged.
    let mut s = Session::sequential(35);
    let points = parakeet_precision_recall(&parakeet, &test, &[0.8], 120, &mut s);

    let parrot_precision = parrot_m.precision().unwrap();
    let parakeet_precision = points[0].precision.unwrap_or(1.0);
    assert!(
        parakeet_precision >= parrot_precision,
        "α=0.8 must not lose precision: parakeet {parakeet_precision} vs parrot {parrot_precision}"
    );
}

#[test]
fn alpha_trades_recall_for_precision() {
    let train = generate_dataset(250, 36);
    let test = generate_dataset(150, 37);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(38);
    let parakeet = Parakeet::train_tuned(&train, 50, 39, &mut rng);
    let mut s = Session::sequential(40);
    let points = parakeet_precision_recall(&parakeet, &test, &[0.1, 0.9], 120, &mut s);
    assert!(
        points[0].recall.unwrap() >= points[1].recall.unwrap(),
        "recall at α=0.1 must be ≥ recall at α=0.9"
    );
}
