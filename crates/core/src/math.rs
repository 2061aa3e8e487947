//! Convenience combinators: lifted `f64` math, aggregation, and selection.
//!
//! Everything here is sugar over [`Uncertain::map`]/[`Uncertain::map2`] —
//! each call adds one inner node to the Bayesian network, preserving the
//! shared-dependence semantics of the underlying graph.

use crate::kernel::{BinOp, Map2Tag, MapTag, UnOp};
use crate::uncertain::{Uncertain, Value};
use uncertain_dist::trig;

impl Uncertain<f64> {
    /// Lifted absolute value.
    pub fn abs(&self) -> Uncertain<f64> {
        self.map_tagged("abs", Some(MapTag::F64(UnOp::Abs)), f64::abs)
    }

    /// Lifted square root (`NaN` for negative samples, as in `f64::sqrt`).
    pub fn sqrt(&self) -> Uncertain<f64> {
        self.map_tagged("sqrt", Some(MapTag::F64(UnOp::Sqrt)), f64::sqrt)
    }

    /// Lifted exponential.
    pub fn exp(&self) -> Uncertain<f64> {
        self.map_tagged("exp", Some(MapTag::F64(UnOp::Exp)), f64::exp)
    }

    /// Lifted natural logarithm (`NaN`/`-∞` outside the domain, as in
    /// `f64::ln`).
    pub fn ln(&self) -> Uncertain<f64> {
        self.map_tagged("ln", Some(MapTag::F64(UnOp::Ln)), f64::ln)
    }

    /// Lifted sine (radians).
    ///
    /// Portable, not libm: [`uncertain_dist::trig::sin`], within 1 ulp of
    /// the correctly rounded value and the same bits on every host, which
    /// the columnar kernel computes too.
    pub fn sin(&self) -> Uncertain<f64> {
        self.map_tagged("sin", Some(MapTag::F64(UnOp::Sin)), trig::sin)
    }

    /// Lifted cosine (radians). Portable, not libm:
    /// [`uncertain_dist::trig::cos`], within 1 ulp (see [`Uncertain::sin`]).
    pub fn cos(&self) -> Uncertain<f64> {
        self.map_tagged("cos", Some(MapTag::F64(UnOp::Cos)), trig::cos)
    }

    /// Lifted arcsine (`NaN` outside `[-1, 1]`). Portable, not libm:
    /// [`uncertain_dist::trig::asin`], within 1 ulp (see [`Uncertain::sin`]).
    pub fn asin(&self) -> Uncertain<f64> {
        self.map_tagged("asin", Some(MapTag::F64(UnOp::Asin)), trig::asin)
    }

    /// Lifted arctangent. Portable, not libm:
    /// [`uncertain_dist::trig::atan`], within 1 ulp (see [`Uncertain::sin`]).
    pub fn atan(&self) -> Uncertain<f64> {
        self.map_tagged("atan", Some(MapTag::F64(UnOp::Atan)), trig::atan)
    }

    /// Lifted four-quadrant arctangent: per-sample `self.atan2(other)`.
    /// Portable, not libm: [`uncertain_dist::trig::atan2`], within 1 ulp
    /// and with C99 Annex F's values at zeros, infinities and NaN (see
    /// [`Uncertain::sin`]).
    pub fn atan2(&self, other: &Uncertain<f64>) -> Uncertain<f64> {
        self.map2_tagged(
            "atan2",
            other,
            Some(Map2Tag::F64(BinOp::Atan2)),
            trig::atan2,
        )
    }

    /// Lifted degrees → radians conversion.
    pub fn to_radians(&self) -> Uncertain<f64> {
        self.map_tagged(
            "to_radians",
            Some(MapTag::F64(UnOp::ToRadians)),
            f64::to_radians,
        )
    }

    /// Lifted radians → degrees conversion.
    pub fn to_degrees(&self) -> Uncertain<f64> {
        self.map_tagged(
            "to_degrees",
            Some(MapTag::F64(UnOp::ToDegrees)),
            f64::to_degrees,
        )
    }

    /// Lifted integer power.
    pub fn powi(&self, n: i32) -> Uncertain<f64> {
        self.map_tagged("powi", Some(MapTag::F64(UnOp::PowiK(n))), move |v: f64| {
            v.powi(n)
        })
    }

    /// Lifted float power.
    pub fn powf(&self, p: f64) -> Uncertain<f64> {
        self.map_tagged("powf", Some(MapTag::F64(UnOp::PowfK(p))), move |v: f64| {
            v.powf(p)
        })
    }

    /// Lifted clamp to `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics at sampling time if `low > high` (the contract of
    /// `f64::clamp`).
    pub fn clamp(&self, low: f64, high: f64) -> Uncertain<f64> {
        self.map_tagged(
            "clamp",
            Some(MapTag::F64(UnOp::ClampK(low, high))),
            move |v: f64| v.clamp(low, high),
        )
    }

    /// Per-sample maximum of two uncertain values.
    pub fn max_u(&self, other: &Uncertain<f64>) -> Uncertain<f64> {
        self.map2_tagged("max", other, Some(Map2Tag::F64(BinOp::Max)), f64::max)
    }

    /// Per-sample minimum of two uncertain values.
    pub fn min_u(&self, other: &Uncertain<f64>) -> Uncertain<f64> {
        self.map2_tagged("min", other, Some(Map2Tag::F64(BinOp::Min)), f64::min)
    }

    /// Sums an iterator of uncertain values into one network node chain.
    ///
    /// Shared variables stay correlated: summing the same variable twice
    /// doubles it, exactly. An empty iterator yields a point mass at 0.
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{Session, Uncertain};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let sensors: Vec<_> = (0..8)
    ///     .map(|_| Uncertain::normal(1.0, 0.1))
    ///     .collect::<Result<_, _>>()?;
    /// let total = Uncertain::sum(sensors.iter().cloned());
    /// let mut s = Session::seeded(0);
    /// assert!((total.expected_value_in(&mut s, 2000) - 8.0).abs() < 0.05);
    /// # Ok(())
    /// # }
    /// ```
    pub fn sum(values: impl IntoIterator<Item = Uncertain<f64>>) -> Uncertain<f64> {
        values
            .into_iter()
            .fold(Uncertain::point(0.0), |acc, v| acc + v)
    }

    /// The per-sample arithmetic mean of a collection of uncertain values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn mean_of(values: &[Uncertain<f64>]) -> Uncertain<f64> {
        assert!(!values.is_empty(), "mean of an empty collection");
        let n = values.len() as f64;
        Uncertain::sum(values.iter().cloned()) / n
    }
}

impl std::iter::Sum for Uncertain<f64> {
    fn sum<I: Iterator<Item = Uncertain<f64>>>(iter: I) -> Self {
        Uncertain::sum(iter)
    }
}

impl<T: Value> Uncertain<T> {
    /// Gathers a collection of uncertain values into one uncertain
    /// collection, sampled jointly (shared ancestry stays correlated).
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{Session, Uncertain};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let x = Uncertain::normal(0.0, 1.0)?;
    /// let copies = Uncertain::sequence(vec![x.clone(), x.clone(), x]);
    /// let mut s = Session::seeded(1);
    /// let v = s.sample(&copies);
    /// assert_eq!(v[0], v[1]);
    /// assert_eq!(v[1], v[2]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn sequence(values: Vec<Uncertain<T>>) -> Uncertain<Vec<T>> {
        let empty: Uncertain<Vec<T>> = Uncertain::from_fn("[]", |_| Vec::new());
        values.into_iter().fold(empty, |acc, v| {
            acc.map2("push", &v, |mut list: Vec<T>, item| {
                list.push(item);
                list
            })
        })
    }
}

impl Uncertain<bool> {
    /// Per-sample selection (an uncertain conditional *expression*):
    /// where this Bernoulli samples `true`, take `if_true`'s joint sample,
    /// otherwise `if_false`'s.
    ///
    /// Unlike an `if` statement decided by a hypothesis test, `select`
    /// keeps **both** branches alive as distributions — this is the
    /// probabilistic mixture, not a branch decision.
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{Session, Uncertain};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let rainy = Uncertain::bernoulli(0.3)?;
    /// let commute = rainy.select(
    ///     &Uncertain::normal(40.0, 5.0)?, // rainy-day minutes
    ///     &Uncertain::normal(25.0, 3.0)?, // dry-day minutes
    /// );
    /// let mut s = Session::seeded(2);
    /// let e = commute.expected_value_in(&mut s, 4000);
    /// assert!((e - (0.3 * 40.0 + 0.7 * 25.0)).abs() < 0.5);
    /// # Ok(())
    /// # }
    /// ```
    pub fn select<T: Value>(
        &self,
        if_true: &Uncertain<T>,
        if_false: &Uncertain<T>,
    ) -> Uncertain<T> {
        let branches = if_true.zip(if_false);
        self.map2("select", &branches, |cond, (t, f)| if cond { t } else { f })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;

    #[test]
    fn pointwise_math_on_point_masses() {
        let x = Uncertain::point(-4.0);
        let mut s = Session::sequential(0);
        assert_eq!(s.sample(&x.abs()), 4.0);
        assert_eq!(s.sample(&x.abs().sqrt()), 2.0);
        assert_eq!(s.sample(&x.powi(2)), 16.0);
        assert_eq!(s.sample(&x.clamp(-1.0, 1.0)), -1.0);
        assert_eq!(s.sample(&Uncertain::point(0.0).exp()), 1.0);
        assert_eq!(s.sample(&Uncertain::point(1.0).ln()), 0.0);
        assert_eq!(s.sample(&x.abs().powf(0.5)), 2.0);
    }

    #[test]
    fn max_min_track_joint_samples() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let shifted = &x + 1.0;
        let hi = x.max_u(&shifted);
        let lo = x.min_u(&shifted);
        let mut s = Session::sequential(1);
        // shifted is always larger than x in the same joint sample.
        for _ in 0..100 {
            let (h, l) = s.sample(&hi.zip(&lo));
            assert!((h - l - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_of_shared_variable_doubles() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let twice = Uncertain::sum([x.clone(), x.clone()]);
        let consistent = twice.eq_exact(&(&x * 2.0));
        let mut s = Session::sequential(2);
        for _ in 0..100 {
            assert!(s.sample(&consistent));
        }
    }

    #[test]
    fn empty_sum_is_zero() {
        let zero = Uncertain::sum(std::iter::empty());
        let mut s = Session::sequential(3);
        assert_eq!(s.sample(&zero), 0.0);
    }

    #[test]
    fn iterator_sum_works() {
        let parts: Vec<Uncertain<f64>> = (1..=4).map(|i| Uncertain::point(i as f64)).collect();
        let total: Uncertain<f64> = parts.into_iter().sum();
        let mut s = Session::sequential(4);
        assert_eq!(s.sample(&total), 10.0);
    }

    #[test]
    fn mean_of_reduces_variance() {
        let sensors: Vec<Uncertain<f64>> = (0..16)
            .map(|_| Uncertain::normal(5.0, 2.0).unwrap())
            .collect();
        let averaged = Uncertain::mean_of(&sensors);
        let mut s = Session::sequential(5);
        let stats = averaged.stats_in(&mut s, 8000).unwrap();
        // σ/√16 = 0.5.
        assert!((stats.std_dev() - 0.5).abs() < 0.05, "{}", stats.std_dev());
    }

    #[test]
    #[should_panic(expected = "empty collection")]
    fn mean_of_empty_panics() {
        let _ = Uncertain::mean_of(&[]);
    }

    #[test]
    fn sequence_preserves_order_and_length() {
        let vals = vec![
            Uncertain::point(1),
            Uncertain::point(2),
            Uncertain::point(3),
        ];
        let seq = Uncertain::sequence(vals);
        let mut s = Session::sequential(6);
        assert_eq!(s.sample(&seq), vec![1, 2, 3]);
    }

    #[test]
    fn select_mixture_probabilities() {
        let coin = Uncertain::bernoulli(0.25).unwrap();
        let mixed = coin.select(&Uncertain::point(1.0), &Uncertain::point(0.0));
        let mut s = Session::sequential(7);
        let e = mixed.expected_value_in(&mut s, 20_000);
        assert!((e - 0.25).abs() < 0.01, "e={e}");
    }

    #[test]
    fn select_correlates_with_condition() {
        // Using the same condition twice stays consistent per sample.
        let cond = Uncertain::bernoulli(0.5).unwrap();
        let a = cond.select(&Uncertain::point(1), &Uncertain::point(0));
        let b = cond.select(&Uncertain::point(10), &Uncertain::point(0));
        let pair = a.zip(&b);
        let mut s = Session::sequential(8);
        for _ in 0..100 {
            let (x, y) = s.sample(&pair);
            assert!(
                (x == 1 && y == 10) || (x == 0 && y == 0),
                "branches must agree: {x}, {y}"
            );
        }
    }
}
