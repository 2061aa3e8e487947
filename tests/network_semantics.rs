//! Cross-cutting semantics of the Bayesian-network runtime: laziness,
//! shared-dependence (SSA) tracking, joint sampling, ternary conditional
//! logic, and Bayesian conditioning — the paper's §3/§4 guarantees,
//! exercised through the public API only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use uncertain_suite::{EvalConfig, Session, Uncertain};

#[test]
fn construction_is_lazy_sampling_is_not() {
    // Count how many times the leaf's sampling function actually runs.
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let leaf = Uncertain::from_fn("counted", move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
        1.0_f64
    });

    // Building a sizable expression draws nothing.
    let expr = (&leaf + 1.0) * 2.0 - &leaf;
    assert_eq!(calls.load(Ordering::SeqCst), 0, "operators must not sample");

    // One joint sample evaluates the leaf exactly once (memoized), even
    // though the expression references it twice.
    let mut s = Session::sequential(1);
    let v = s.sample(&expr);
    assert_eq!(v, (1.0 + 1.0) * 2.0 - 1.0);
    assert_eq!(calls.load(Ordering::SeqCst), 1, "shared leaf sampled once");

    // n joint samples → n evaluations.
    let _ = s.samples(&expr, 9);
    assert_eq!(calls.load(Ordering::SeqCst), 10);
}

#[test]
fn figure_8_network_and_variance() {
    let x = Uncertain::normal(0.0, 1.0).unwrap();
    let y = Uncertain::normal(0.0, 1.0).unwrap();
    let a = &y + &x;
    let b = &a + &x;

    // Structure: 2 leaves, 2 inner nodes (the paper's correct Fig. 8b).
    let view = b.network();
    assert_eq!(view.leaf_count(), 2);
    assert_eq!(view.node_count(), 4);

    // Semantics: Var[Y + 2X] = 5, not the wrong network's 3.
    let mut s = Session::sequential(2);
    let stats = b.stats_in(&mut s, 30_000).unwrap();
    assert!((stats.variance() - 5.0).abs() < 0.3, "{}", stats.variance());
}

#[test]
fn correlation_flows_through_arbitrary_combinators() {
    // (x·3 − x) / x == 2 exactly, whatever x sampled.
    let x = Uncertain::uniform(1.0, 9.0).unwrap();
    let expr = (&x * 3.0 - &x) / &x;
    let mut s = Session::sequential(3);
    for _ in 0..200 {
        assert!((s.sample(&expr) - 2.0).abs() < 1e-12);
    }
}

#[test]
fn zip_and_flat_map_share_context() {
    // flat_map sees the same joint sample as a zip of its source.
    let x = Uncertain::uniform(0.0, 1.0).unwrap();
    let doubled = x.flat_map("double", |v| Uncertain::point(v * 2.0));
    let pair = x.zip(&doubled);
    let mut s = Session::sequential(4);
    for _ in 0..100 {
        let (raw, dbl) = s.sample(&pair);
        assert!((dbl - 2.0 * raw).abs() < 1e-12);
    }

    // A flat_map body that returns a node captured from the outer network
    // reads that node's value in the same joint sample, so subtracting the
    // node leaves exactly zero — for single draws and for batches (which
    // tree-walk too, because flat_map does not lower).
    let y = Uncertain::normal(0.0, 5.0).unwrap();
    let captured = y.clone();
    let echo = y.flat_map("echo-y", move |_| captured.clone()) - &y;
    for _ in 0..50 {
        assert_eq!(s.sample(&echo), 0.0);
    }
    assert_eq!(s.samples(&echo, 50), vec![0.0; 50]);
}

#[test]
fn ternary_logic_on_marginal_comparisons() {
    // §3.4: for overlapping distributions, neither `a < b` nor `a >= b`
    // may reach significance at a bounded budget.
    let a = Uncertain::normal(0.0, 1.0).unwrap();
    let b = Uncertain::normal(0.02, 1.0).unwrap();
    let cfg = EvalConfig::default().with_max_samples(60);
    let mut s = Session::sequential(5);
    let mut neither = 0;
    for _ in 0..20 {
        let lt = s.evaluate_with(&a.lt(&b), 0.5, &cfg);
        let ge = s.evaluate_with(&a.ge(&b), 0.5, &cfg);
        if lt.is_inconclusive() && ge.is_inconclusive() {
            neither += 1;
        }
    }
    assert!(
        neither >= 10,
        "typically neither side is conclusive: {neither}/20"
    );
}

#[test]
fn conclusive_comparisons_on_separated_distributions() {
    let lo = Uncertain::normal(0.0, 1.0).unwrap();
    let hi = Uncertain::normal(5.0, 1.0).unwrap();
    let mut s = Session::sequential(6);
    let o = lo.lt(&hi).evaluate_in(&mut s, 0.5);
    assert!(o.is_true());
    assert!(
        o.samples <= 50,
        "easy comparison took {} samples",
        o.samples
    );
}

#[test]
fn conditioning_composes_with_computation() {
    // Condition a sum on an observable, then compute with the posterior.
    let die = Uncertain::from_fn("d6", |rng| {
        use rand::Rng;
        rng.gen_range(1..=6) as f64
    });
    let pair_sum = &die + &die.encapsulate();
    // Observe: the sum is at least 10 (so 10, 11 or 12).
    let high = pair_sum.condition_on_default(|s| *s >= 10.0);
    let mut s = Session::sequential(7);
    let e = high.expected_value_in(&mut s, 4000);
    // Analytic: E[sum | sum ≥ 10] = (10·3 + 11·2 + 12·1)/6 = 64/6 ≈ 10.67.
    assert!((e - 64.0 / 6.0).abs() < 0.1, "e={e}");
    // And downstream arithmetic still works.
    let halved = high / 2.0;
    let eh = halved.expected_value_in(&mut s, 4000);
    assert!((eh - 32.0 / 6.0).abs() < 0.1, "eh={eh}");
}

#[test]
fn priors_and_conditionals_interact_correctly() {
    // A wide likelihood plus a tight prior: conditionals should answer
    // according to the posterior, not the likelihood.
    let raw = Uncertain::normal(0.0, 10.0).unwrap();
    let posterior = raw.weight_by(|v| {
        // Unnormalized N(6, 1) density.
        (-0.5 * (v - 6.0) * (v - 6.0)).exp()
    });
    let mut s = Session::sequential(8);
    assert!(posterior.gt(3.0).is_probable_in(&mut s));
    assert!(!raw.gt(3.0).is_probable_in(&mut s));
}

#[test]
fn networks_render_to_dot_with_shaded_leaves() {
    let a = Uncertain::normal(0.0, 1.0).unwrap();
    let b = Uncertain::normal(0.0, 1.0).unwrap();
    let c = (&a + &b).gt(0.5);
    let dot = c.to_dot();
    assert!(dot.contains("digraph"));
    // Three leaves: the two Gaussians plus the point mass the comparison
    // lifted from the scalar 0.5.
    assert_eq!(
        dot.matches("fillcolor=gray85").count(),
        3,
        "three leaves shaded"
    );
    assert!(dot.contains('>'), "comparison node labeled");
}

#[test]
fn sampler_counts_joint_samples_across_conditionals() {
    let b = Uncertain::bernoulli(0.95).unwrap();
    let mut s = Session::sequential(9);
    let o = b.evaluate_in(&mut s, 0.5);
    assert_eq!(s.joint_samples() as usize, o.samples);
}
