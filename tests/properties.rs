//! Property-based tests (proptest) over the core invariants of the
//! `Uncertain<T>` runtime and its substrates.

use proptest::prelude::*;
use uncertain_suite::dist::{Continuous, Gaussian, Rayleigh, Uniform};
use uncertain_suite::stats::{wilson_interval, Summary};
use uncertain_suite::{Session, Uncertain};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Point-mass arithmetic agrees exactly with scalar arithmetic.
    #[test]
    fn pointmass_arithmetic_is_scalar_arithmetic(
        a in -1e6_f64..1e6,
        b in -1e6_f64..1e6,
    ) {
        let ua = Uncertain::point(a);
        let ub = Uncertain::point(b);
        let mut s = Session::sequential(0);
        prop_assert_eq!(s.sample(&(&ua + &ub)), a + b);
        prop_assert_eq!(s.sample(&(&ua - &ub)), a - b);
        prop_assert_eq!(s.sample(&(&ua * &ub)), a * b);
    }

    /// Shared-dependence: x − x ≡ 0 and (x + x) ≡ 2x per joint sample,
    /// whatever the leaf distribution parameters.
    #[test]
    fn ssa_identities(mean in -100.0_f64..100.0, sd in 0.1_f64..50.0, seed in 0u64..1000) {
        let x = Uncertain::normal(mean, sd).unwrap();
        let zero = &x - &x;
        let pair = (&x + &x).zip(&(&x * 2.0));
        let mut s = Session::sequential(seed);
        prop_assert_eq!(s.sample(&zero), 0.0);
        let (sum2, twice) = s.sample(&pair);
        prop_assert!((sum2 - twice).abs() < 1e-12);
    }

    /// Comparison operators are consistent: gt ∧ le is impossible on the
    /// same joint sample, gt ∨ le is certain.
    #[test]
    fn comparisons_partition(seed in 0u64..500) {
        let a = Uncertain::normal(0.0, 1.0).unwrap();
        let b = Uncertain::normal(0.0, 1.0).unwrap();
        let gt = a.gt(&b);
        let le = a.le(&b);
        let both = &gt & &le;
        let either = &gt | &le;
        let mut s = Session::sequential(seed);
        prop_assert!(!s.sample(&both));
        prop_assert!(s.sample(&either));
    }

    /// Seeded sampling is reproducible for an arbitrary expression shape.
    #[test]
    fn determinism(seed in 0u64..1000, scale in 0.5_f64..5.0) {
        let x = Uncertain::normal(0.0, scale).unwrap();
        let expr = (&x * 2.0 + 1.0).map("sin", f64::sin);
        let mut s1 = Session::sequential(seed);
        let mut s2 = Session::sequential(seed);
        prop_assert_eq!(s1.samples(&expr, 8), s2.samples(&expr, 8));
    }

    /// Gaussian CDF is monotone and quantile inverts it.
    #[test]
    fn gaussian_cdf_quantile(mu in -50.0_f64..50.0, sd in 0.1_f64..20.0, p in 0.01_f64..0.99) {
        let g = Gaussian::new(mu, sd).unwrap();
        let q = g.quantile(p);
        prop_assert!((g.cdf(q) - p).abs() < 1e-8);
        prop_assert!(g.cdf(q + sd) > g.cdf(q));
    }

    /// The Rayleigh GPS posterior always puts 95% of its mass inside ε.
    #[test]
    fn rayleigh_gps_calibration(eps in 0.5_f64..50.0) {
        let r = Rayleigh::from_gps_accuracy(eps).unwrap();
        prop_assert!((r.cdf(eps) - 0.95).abs() < 1e-9);
    }

    /// Uniform samples honor their support and mean.
    #[test]
    fn uniform_support(lo in -100.0_f64..0.0, width in 0.1_f64..100.0, seed in 0u64..100) {
        let u = Uniform::new(lo, lo + width).unwrap();
        let x = Uncertain::from_distribution(u);
        let mut s = Session::sequential(seed);
        for v in s.samples(&x, 50) {
            prop_assert!(v >= lo && v < lo + width);
        }
    }

    /// Summary quantiles are monotone and bounded by min/max.
    #[test]
    fn summary_quantiles_monotone(data in prop::collection::vec(-1e3_f64..1e3, 2..60)) {
        let s = Summary::from_slice(&data).unwrap();
        let mut prev = s.min();
        for i in 0..=10 {
            let q = s.quantile(i as f64 / 10.0);
            prop_assert!(q + 1e-9 >= prev);
            prop_assert!(q >= s.min() - 1e-9 && q <= s.max() + 1e-9);
            prev = q;
        }
    }

    /// Wilson intervals contain the point estimate and stay in [0, 1].
    #[test]
    fn wilson_contains_estimate(k in 0u64..100, extra in 1u64..100) {
        let n = k + extra;
        let (lo, hi) = wilson_interval(k, n, 0.95).unwrap();
        let p = k as f64 / n as f64;
        prop_assert!(lo <= p + 1e-12 && p <= hi + 1e-12);
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    /// weight_by with a constant weight is a no-op on the distribution
    /// (same mean within tolerance).
    #[test]
    fn constant_weight_is_noop(c in 0.1_f64..10.0) {
        let x = Uncertain::normal(5.0, 1.0).unwrap();
        let w = x.weight_by(move |_| c);
        let mut s = Session::sequential(7);
        let e = w.expected_value_in(&mut s, 3000);
        prop_assert!((e - 5.0).abs() < 0.15, "e={e}");
    }

    /// Network views are well-formed: edges reference known nodes, the
    /// root is present, depth ≥ 1.
    #[test]
    fn network_views_well_formed(n_ops in 1usize..20) {
        let mut expr = Uncertain::normal(0.0, 1.0).unwrap();
        for i in 0..n_ops {
            expr = if i % 2 == 0 {
                expr + Uncertain::normal(0.0, 1.0).unwrap()
            } else {
                expr * 2.0
            };
        }
        let view = expr.network();
        prop_assert!(view.contains(view.root()));
        prop_assert!(view.depth() >= 1);
        for (from, to) in view.edges() {
            prop_assert!(view.contains(from) && view.contains(to));
        }
        // Leaves: one original + one per even step.
        prop_assert_eq!(view.leaf_count(), 1 + n_ops.div_ceil(2));
    }
}

proptest! {
    // Heavier statistical properties get fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Monte-Carlo linearity of expectation for random coefficients.
    #[test]
    fn expectation_linear(a in -5.0_f64..5.0, b in -5.0_f64..5.0) {
        let x = Uncertain::normal(1.0, 1.0).unwrap();
        let y = Uncertain::normal(-2.0, 2.0).unwrap();
        let combo = &x * a + &y * b;
        let mut s = Session::sequential(11);
        let e = combo.expected_value_in(&mut s, 20_000);
        let expect = a * 1.0 + b * -2.0;
        prop_assert!((e - expect).abs() < 0.15 * (1.0 + a.abs() + b.abs()), "{e} vs {expect}");
    }

    /// The SPRT answers correctly for clearly separated evidence levels.
    #[test]
    fn sprt_correct_when_separated(p in 0.75_f64..0.95, seed in 0u64..100) {
        let b = Uncertain::bernoulli(p).unwrap();
        let mut s = Session::sequential(seed);
        prop_assert!(b.is_probable_in(&mut s));
        prop_assert!(!(!&b).is_probable_in(&mut s));
    }
}
