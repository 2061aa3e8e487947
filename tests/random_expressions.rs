//! Stress test: randomly generated expression trees. A recursive proptest
//! strategy builds arbitrary `Uncertain<f64>` networks (leaves, unary and
//! binary operators, shared sub-expressions, priors) and checks the
//! runtime's global invariants on each: well-formed graphs, deterministic
//! sampling, finite values, and consistency between the graph structure
//! and sampling behavior.

use proptest::prelude::*;
use uncertain_suite::{Session, Uncertain};

/// A serializable description of an expression tree (proptest shrinks
/// these, then we build the real network).
#[derive(Debug, Clone)]
enum Expr {
    Normal {
        mean: f64,
        sd: f64,
    },
    Uniform {
        lo: f64,
        width: f64,
    },
    Point(f64),
    Neg(Box<Expr>),
    Abs(Box<Expr>),
    Scale(Box<Expr>, f64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    /// `child + child` built from ONE shared node — exercises SSA sharing.
    SelfSum(Box<Expr>),
    /// Clamped, prior-weighted variant — exercises the SIR node.
    Weighted(Box<Expr>),
}

impl Expr {
    fn build(&self) -> Uncertain<f64> {
        match self {
            Expr::Normal { mean, sd } => Uncertain::normal(*mean, *sd).expect("valid params"),
            Expr::Uniform { lo, width } => {
                Uncertain::uniform(*lo, lo + width).expect("valid params")
            }
            Expr::Point(v) => Uncertain::point(*v),
            Expr::Neg(e) => -e.build(),
            Expr::Abs(e) => e.build().abs(),
            Expr::Scale(e, k) => e.build() * *k,
            Expr::Add(a, b) => a.build() + b.build(),
            Expr::Sub(a, b) => a.build() - b.build(),
            Expr::Mul(a, b) => a.build() * b.build(),
            Expr::SelfSum(e) => {
                let shared = e.build();
                &shared + &shared
            }
            Expr::Weighted(e) => e.build().weight_by_k(|v| (-v.abs()).exp().max(1e-12), 4),
        }
    }
}

fn leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (-20.0_f64..20.0, 0.1_f64..5.0).prop_map(|(mean, sd)| Expr::Normal { mean, sd }),
        (-20.0_f64..0.0, 0.5_f64..10.0).prop_map(|(lo, width)| Expr::Uniform { lo, width }),
        (-10.0_f64..10.0).prop_map(Expr::Point),
    ]
}

fn expr() -> impl Strategy<Value = Expr> {
    leaf().prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Abs(Box::new(e))),
            (inner.clone(), -3.0_f64..3.0).prop_map(|(e, k)| Expr::Scale(Box::new(e), k)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|e| Expr::SelfSum(Box::new(e))),
            inner.prop_map(|e| Expr::Weighted(Box::new(e))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every random network samples finite values deterministically and
    /// reports a well-formed graph.
    #[test]
    fn random_networks_are_well_behaved(tree in expr(), seed in 0u64..10_000) {
        let u = tree.build();

        // Graph invariants.
        let view = u.network();
        prop_assert!(view.node_count() >= 1);
        prop_assert!(view.leaf_count() >= 1);
        prop_assert!(view.depth() >= 1);
        prop_assert!(view.contains(view.root()));
        for (from, to) in view.edges() {
            prop_assert!(view.contains(from) && view.contains(to));
        }
        let dot = view.to_dot();
        prop_assert!(dot.starts_with("digraph"));

        // Sampling invariants.
        let mut s1 = Session::sequential(seed);
        let mut s2 = Session::sequential(seed);
        for _ in 0..8 {
            let v1 = s1.sample(&u);
            let v2 = s2.sample(&u);
            prop_assert!(v1.is_finite(), "finite leaves ⇒ finite values");
            prop_assert_eq!(v1, v2, "same seed ⇒ same joint samples");
        }
    }

    /// Affine identities hold exactly per joint sample on any network:
    /// `e − e ≡ 0` and `(e + e) − 2e ≡ 0` (up to floating-point rounding
    /// of the ×2).
    #[test]
    fn random_networks_respect_sharing(tree in expr(), seed in 0u64..10_000) {
        let u = tree.build();
        let zero = &u - &u;
        let doubled_diff = (&u + &u) - &u * 2.0;
        let mut s = Session::sequential(seed);
        for _ in 0..8 {
            prop_assert_eq!(s.sample(&zero), 0.0);
            let d = s.sample(&doubled_diff);
            prop_assert!(d.abs() < 1e-9, "d={d}");
        }
    }

    /// Comparisons of a network against itself are tautologies.
    #[test]
    fn random_networks_compare_reflexively(tree in expr(), seed in 0u64..10_000) {
        let u = tree.build();
        let ge_self = u.ge(&u);
        let gt_self = u.gt(&u);
        let mut s = Session::sequential(seed);
        for _ in 0..8 {
            prop_assert!(s.sample(&ge_self));
            prop_assert!(!s.sample(&gt_self));
        }
    }
}
