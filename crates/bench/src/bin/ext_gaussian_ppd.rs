//! Extension experiment: the Gaussian PPD approximation the paper proposes
//! as the cheap alternative to Monte-Carlo PPD sampling (§5.3). Compares
//! edge-detection quality and per-decision cost of the two Parakeet modes.

use std::time::Instant;
use uncertain_bench::{header, scaled};
use uncertain_core::Session;
use uncertain_neural::sobel::{generate_dataset, EDGE_THRESHOLD};
use uncertain_neural::Parakeet;
use uncertain_stats::ConfusionMatrix;

fn main() {
    header("Extension: Monte-Carlo PPD vs Gaussian PPD approximation");
    let train = generate_dataset(scaled(2000, 300), 90);
    let test = generate_dataset(scaled(400, 100), 91);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(92);
    let parakeet = Parakeet::train_tuned(&train, scaled(200, 40), 93, &mut rng);
    println!(
        "pool {} networks, HMC acceptance {:.2}\n",
        parakeet.pool_size(),
        parakeet.acceptance_rate()
    );

    let alpha = 0.8;
    let samples_per_input = scaled(300, 80);
    let mut session = Session::seeded(94);

    let mut evaluate = |label: &str, gaussian: bool| {
        let mut matrix = ConfusionMatrix::new();
        let mut decisions = Vec::with_capacity(test.len());
        let start = Instant::now();
        for (x, &t) in test.inputs.iter().zip(&test.targets) {
            let ppd = if gaussian {
                parakeet.predict_gaussian(x)
            } else {
                parakeet.predict(x)
            };
            let p = ppd
                .gt(EDGE_THRESHOLD)
                .probability_in(&mut session, samples_per_input);
            let edge = p > alpha;
            matrix.record(edge, t > EDGE_THRESHOLD);
            decisions.push(edge);
        }
        let elapsed = start.elapsed();
        println!(
            "{label:<22} precision {:.3}  recall {:.3}  time {:>8.1?}  ({:.1} µs/decision)",
            matrix.precision().unwrap_or(f64::NAN),
            matrix.recall().unwrap_or(f64::NAN),
            elapsed,
            elapsed.as_micros() as f64 / test.len() as f64
        );
        decisions
    };

    let monte_carlo = evaluate("Monte-Carlo PPD", false);
    let gaussian = evaluate("Gaussian approximation", true);
    let agree = monte_carlo
        .iter()
        .zip(&gaussian)
        .filter(|(a, b)| a == b)
        .count();
    println!("decisions agree on {agree} of {} inputs", test.len());

    println!();
    println!("the Gaussian mode runs the pool once per input and then samples a");
    println!("closed-form normal — far fewer network executions, appropriate");
    println!("exactly when the posterior is approximately Gaussian");
    println!("(as the Sobel posterior is, paper Fig. 15).");
}
