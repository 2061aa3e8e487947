//! Quickstart: the whole `Uncertain<T>` story in one file.
//!
//! Run with `cargo run --example quickstart`.

use uncertain_suite::dist::Gaussian;
use uncertain_suite::{EvalConfig, Session, Uncertain};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Experts expose estimates as distributions (sampling functions).
    let distance = Uncertain::normal(30.0, 8.0)?; // meters, noisy
    let dt = 10.0; // seconds, exact

    // 2. Applications compute with them as if they were numbers. The
    //    operators build a Bayesian network; nothing samples yet.
    let speed = &distance / dt * 2.23694; // mph
    println!("network for speed:\n{}", speed.to_dot());

    // 3. Questions are evidence, not booleans. A `Session` owns the RNG
    //    policy and caches each network's compiled kernel across calls.
    let mut session = Session::seeded(42);
    let fast = speed.gt(4.0);
    println!(
        "Pr[speed > 4 mph] ≈ {:.2}",
        fast.probability_in(&mut session, 2000)
    );
    println!(
        "implicit conditional (more likely than not): {}",
        fast.is_probable_in(&mut session)
    );
    println!(
        "explicit conditional at 90% evidence:        {}",
        fast.pr_in(&mut session, 0.9)
    );

    // 4. The full hypothesis-test outcome, including sampling cost.
    let outcome = session.evaluate_with(&fast, 0.9, &EvalConfig::default());
    println!(
        "SPRT: accepted={} conclusive={} after {} samples (estimate {:.2})",
        outcome.accepted, outcome.conclusive, outcome.samples, outcome.estimate
    );

    // 5. Domain knowledge sharpens estimates (Bayes).
    let walking_prior = Gaussian::new(3.0, 1.0)?;
    let improved = speed.with_prior(walking_prior);
    let stats = improved.stats_in(&mut session, 2000)?;
    println!(
        "prior-improved speed: {:.2} ± {:.2} mph",
        stats.mean(),
        stats.std_dev()
    );

    // 6. And `E` projects back to a plain number when you must have one.
    println!(
        "E[speed] = {:.2} mph",
        speed.expected_value_in(&mut session, 2000)
    );

    // 7. Every question above reused one cached kernel per root.
    let cache = session.cache_stats();
    println!(
        "session plan cache: {} hits, {} misses",
        cache.hits, cache.misses
    );
    Ok(())
}
