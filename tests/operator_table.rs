//! Table 1 of the paper, as executable checks: every operator and method
//! of the `Uncertain<T>` algebra with its type and semantics.
//!
//! | Math (+ − × ÷)    | `U<T> → U<T> → U<T>`        |
//! | Order (< > ≤ ≥)   | `U<T> → U<T> → U<Bool>`     |
//! | Logical (∧ ∨)     | `U<Bool> → U<Bool> → U<Bool>` |
//! | Unary (¬)         | `U<Bool> → U<Bool>`         |
//! | Pointmass         | `T → U<T>`                  |
//! | Explicit Pr       | `U<Bool> → [0,1] → Bool`    |
//! | Implicit Pr       | `U<Bool> → Bool`            |
//! | Expected value E  | `U<T> → T`                  |

use uncertain_suite::{Session, Uncertain};

/// A helper asserting a value has a given type, documenting the table's
/// signatures at compile time.
fn has_type<T>(_: &T) {}

#[test]
fn math_operators_are_endomorphisms_on_uncertain() {
    let a = Uncertain::normal(2.0, 0.1).unwrap();
    let b = Uncertain::normal(3.0, 0.1).unwrap();
    let sum = &a + &b;
    let diff = &a - &b;
    let prod = &a * &b;
    let quot = &a / &b;
    has_type::<Uncertain<f64>>(&sum);
    has_type::<Uncertain<f64>>(&diff);
    has_type::<Uncertain<f64>>(&prod);
    has_type::<Uncertain<f64>>(&quot);

    let mut s = Session::sequential(1);
    assert!((sum.expected_value_in(&mut s, 2000) - 5.0).abs() < 0.05);
    assert!((diff.expected_value_in(&mut s, 2000) + 1.0).abs() < 0.05);
    assert!((prod.expected_value_in(&mut s, 2000) - 6.0).abs() < 0.1);
    assert!((quot.expected_value_in(&mut s, 2000) - 2.0 / 3.0).abs() < 0.05);
}

#[test]
fn order_operators_return_uncertain_bool() {
    let a = Uncertain::normal(0.0, 1.0).unwrap();
    let b = Uncertain::normal(1.0, 1.0).unwrap();
    let lt = a.lt(&b);
    let gt = a.gt(&b);
    let le = a.le(&b);
    let ge = a.ge(&b);
    has_type::<Uncertain<bool>>(&lt);
    has_type::<Uncertain<bool>>(&gt);
    has_type::<Uncertain<bool>>(&le);
    has_type::<Uncertain<bool>>(&ge);

    // Pr[a < b] for N(0,1) vs N(1,1): Φ(1/√2) ≈ 0.76.
    let mut s = Session::sequential(2);
    let p = lt.probability_in(&mut s, 20_000);
    assert!((p - 0.7602).abs() < 0.02, "p={p}");
    // lt and ge are complements on joint samples.
    let consistent = lt.eq_exact(&(!&ge));
    for _ in 0..100 {
        assert!(s.sample(&consistent));
    }
}

#[test]
fn logical_operators_compose_uncertain_bools() {
    let a = Uncertain::bernoulli(0.6).unwrap();
    let b = Uncertain::bernoulli(0.6).unwrap();
    let and = &a & &b;
    let or = &a | &b;
    let not = !&a;
    has_type::<Uncertain<bool>>(&and);
    has_type::<Uncertain<bool>>(&or);
    has_type::<Uncertain<bool>>(&not);

    let mut s = Session::sequential(3);
    assert!((and.probability_in(&mut s, 20_000) - 0.36).abs() < 0.02);
    assert!((or.probability_in(&mut s, 20_000) - 0.84).abs() < 0.02);
    assert!((not.probability_in(&mut s, 20_000) - 0.4).abs() < 0.02);
}

#[test]
fn pointmass_lifts_scalars() {
    // Explicit constructor, `From`, and the implicit scalar coercion in
    // mixed arithmetic (the paper's `Distance / dt`).
    let explicit = Uncertain::point(4.0);
    let from: Uncertain<f64> = 4.0.into();
    let mut s = Session::sequential(4);
    assert_eq!(s.sample(&explicit), 4.0);
    assert_eq!(s.sample(&from), 4.0);

    let distance = Uncertain::normal(30.0, 3.0).unwrap();
    let speed = &distance / 10.0; // scalar coerced to a point mass
    assert!((speed.expected_value_in(&mut s, 3000) - 3.0).abs() < 0.05);
}

#[test]
fn explicit_pr_takes_a_threshold() {
    let b = Uncertain::bernoulli(0.7).unwrap();
    let mut s = Session::sequential(5);
    let decided: bool = b.pr_in(&mut s, 0.5);
    assert!(decided);
    assert!(!b.pr_in(&mut s, 0.9));
}

#[test]
fn implicit_pr_is_more_likely_than_not() {
    let b = Uncertain::bernoulli(0.7).unwrap();
    let mut s = Session::sequential(6);
    let decided: bool = b.is_probable_in(&mut s);
    assert!(decided);
    assert!(!(!&b).is_probable_in(&mut s));
}

#[test]
fn expected_value_projects_to_base_type() {
    let x = Uncertain::normal(2.5, 1.0).unwrap();
    let mut s = Session::sequential(7);
    let e: f64 = x.expected_value_in(&mut s, 5000);
    has_type::<f64>(&e);
    assert!((e - 2.5).abs() < 0.05);

    // E preserves the base type's total order where distributions overlap
    // too much for conclusive comparisons (the paper's sorting use case).
    let lo = Uncertain::normal(1.0, 5.0).unwrap();
    let hi = Uncertain::normal(1.2, 5.0).unwrap();
    let e_lo = lo.expected_value_in(&mut s, 50_000);
    let e_hi = hi.expected_value_in(&mut s, 50_000);
    assert!(
        e_lo < e_hi,
        "E gives a usable total order: {e_lo} vs {e_hi}"
    );
}

#[test]
fn lifted_operators_may_change_type() {
    // §3.3: "a lifted operator may have any type", e.g. integer division
    // producing a real.
    let a = Uncertain::point(7i64);
    let b = Uncertain::point(2i64);
    let real_div = a.map2("int/int→f64", &b, |x, y| x as f64 / y as f64);
    let mut s = Session::sequential(8);
    assert_eq!(s.sample(&real_div), 3.5);
}
