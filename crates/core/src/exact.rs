//! Analytic recognition of tractable subgraphs — the zero-sample backend.
//!
//! The SPRT machinery spends thousands of draws deciding conditionals that
//! have closed forms. This module walks the node DAG through the same
//! type-erased surface the wire codec uses ([`NodeInfo::wire_op`] +
//! [`NodeInfo::children`]) and recognizes two families:
//!
//! * **Bernoulli/boolean evidence chains** — `&`/`|`/`^`/`!` over Bernoulli
//!   leaves and point masses whose branches touch *disjoint* leaf sets.
//!   Distinct leaves draw from independent RNG substreams, so the
//!   connectives propagate success probabilities exactly, the way Beta
//!   pseudo-counts propagate through an evidence chain (Cerutti et al.).
//! * **Linear-Gaussian subgraphs** — affine maps and sums of Gaussian
//!   leaves compared against (affine transforms of) each other reduce to a
//!   closed-form normal CDF, exact conditioning in the Stein & Staton
//!   sense. A *pair* of comparisons sharing Gaussian leaves is still
//!   exact: the joint law is bivariate normal and the connective reduces
//!   to `Φ₂` (computed here by a smooth one-dimensional quadrature).
//!
//! Scalar queries (`e`/`stats`) are served by affine **moment
//! propagation**: any affine combination of closed-form leaves (Gaussian,
//! Uniform, Rayleigh, Exponential, Beta) has an exact mean and variance;
//! when every contributing leaf is Gaussian the full law is Gaussian and
//! quantiles are exact too.
//!
//! Everything else — opaque closures, `flat_map`, conditioning,
//! non-affine operators over non-constant operands — is *declined*
//! (`None`), and the caller falls back to the sampling path bitwise
//! unchanged. The analysis never guesses: a returned law is exact (or an
//! exact moment match), not an approximation of convenience.
//!
//! Verdicts are cached per root `NodeId` in the session's plan cache,
//! beside the kernel tapes (mirroring the `no_tape` memo), so the walk
//! runs once per graph, not once per query.

use crate::kernel::{BinOp, BoolOp, CmpOp, Map2Tag, MapTag, UnOp};
use crate::node::{NodeId, NodeInfo};
use crate::wire::WireOp;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use uncertain_dist::{Continuous, DistSpec, Gaussian};

/// How an exact answer was obtained — carried in
/// [`Provenance::Exact`](crate::Provenance::Exact) so callers can see
/// which closed form decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExactMethod {
    /// Boolean evidence-chain propagation over independent branches
    /// (Bernoulli success probabilities composed exactly, as Beta
    /// pseudo-counts compose).
    BetaChain,
    /// Linear-Gaussian comparison(s) reduced to the normal CDF `Φ` (or
    /// the bivariate `Φ₂` for correlated pairs).
    GaussianCdf,
    /// Affine moment propagation over closed-form leaves (exact mean and
    /// variance; full law when all leaves are Gaussian).
    Moment,
}

impl std::fmt::Display for ExactMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactMethod::BetaChain => write!(f, "beta-chain"),
            ExactMethod::GaussianCdf => write!(f, "gaussian-cdf"),
            ExactMethod::Moment => write!(f, "moment"),
        }
    }
}

/// The analytic law of a recognized `Uncertain<bool>` graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoolLaw {
    /// `Pr[root = true]`, exactly.
    pub p: f64,
    /// Which closed form produced `p`.
    pub method: ExactMethod,
}

/// The analytic law of a recognized `Uncertain<f64>` graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarLaw {
    /// Exact mean of the root.
    pub mean: f64,
    /// Exact variance of the root.
    pub variance: f64,
    /// Whether the root is itself Gaussian (affine in Gaussian leaves
    /// only) — when `true`, quantiles are exact, not just moments.
    pub gaussian: bool,
    /// Which closed form produced the law.
    pub method: ExactMethod,
}

impl ScalarLaw {
    /// Standard deviation of the root.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Exact quantile at probability `p` — only meaningful when
    /// [`ScalarLaw::gaussian`] holds (callers gate on it).
    pub(crate) fn quantile(&self, p: f64) -> f64 {
        if self.variance <= 0.0 {
            return self.mean;
        }
        let g = Gaussian::new(self.mean, self.std_dev())
            .expect("recognized law has positive finite std-dev");
        g.quantile(p)
    }
}

/// Recursion budget for the analysis walk: graphs deeper than this
/// decline to the sampling path rather than risk the stack.
const MAX_ANALYSIS_DEPTH: usize = 2500;

/// Analyzes a `bool`-rooted DAG; `None` means "not analytically
/// tractable — sample it".
pub(crate) fn analyze_bool(root: &dyn NodeInfo) -> Option<BoolLaw> {
    let mut a = Analyzer::default();
    let event = a.event_of(root, 0)?;
    let method = if a.used_gaussian {
        ExactMethod::GaussianCdf
    } else {
        ExactMethod::BetaChain
    };
    Some(BoolLaw {
        p: event.p.clamp(0.0, 1.0),
        method,
    })
}

/// Analyzes an `f64`-rooted DAG into an exact moment (or full Gaussian)
/// law; `None` means "not analytically tractable — sample it".
pub(crate) fn analyze_f64(root: &dyn NodeInfo) -> Option<ScalarLaw> {
    let mut a = Analyzer::default();
    let aff = a.affine_of(root, 0)?;
    let (mean, variance) = a.moments(&aff)?;
    let gaussian = aff.coeffs.keys().all(|id| a.leaves[id].gaussian);
    Some(ScalarLaw {
        mean,
        variance,
        gaussian,
        method: ExactMethod::Moment,
    })
}

/// Exact first and second moments of one closed-form leaf.
#[derive(Debug, Clone, Copy)]
struct LeafMoments {
    mean: f64,
    var: f64,
    gaussian: bool,
}

fn leaf_moments(spec: DistSpec) -> Option<LeafMoments> {
    let m = match spec {
        DistSpec::Gaussian { mean, std_dev } => LeafMoments {
            mean,
            var: std_dev * std_dev,
            gaussian: true,
        },
        DistSpec::Uniform { low, high } => LeafMoments {
            mean: 0.5 * (low + high),
            var: (high - low) * (high - low) / 12.0,
            gaussian: false,
        },
        DistSpec::Rayleigh { scale } => LeafMoments {
            mean: scale * (std::f64::consts::FRAC_PI_2).sqrt(),
            var: (2.0 - std::f64::consts::FRAC_PI_2) * scale * scale,
            gaussian: false,
        },
        DistSpec::Exponential { rate } => LeafMoments {
            mean: 1.0 / rate,
            var: 1.0 / (rate * rate),
            gaussian: false,
        },
        DistSpec::Beta { alpha, beta } => {
            let s = alpha + beta;
            LeafMoments {
                mean: alpha / s,
                var: alpha * beta / (s * s * (s + 1.0)),
                gaussian: false,
            }
        }
        // Bernoulli is bool-valued and never appears in an f64 position;
        // `DistSpec` is non-exhaustive, so unknown future shapes decline.
        _ => return None,
    };
    (m.mean.is_finite() && m.var.is_finite() && m.var >= 0.0).then_some(m)
}

/// An affine form over leaf nodes: `konst + Σ coeffs[id] · leaf(id)`.
///
/// Shared leaves merge by coefficient addition, which is exactly how
/// correlation through shared ancestry behaves under ancestral sampling
/// (paper Fig. 8) — `x - x` really is the constant `0`.
#[derive(Debug, Clone, PartialEq)]
struct Affine {
    coeffs: BTreeMap<NodeId, f64>,
    konst: f64,
}

impl Affine {
    fn constant(k: f64) -> Self {
        Affine {
            coeffs: BTreeMap::new(),
            konst: k,
        }
    }

    fn leaf(id: NodeId) -> Self {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(id, 1.0);
        Affine { coeffs, konst: 0.0 }
    }

    fn as_constant(&self) -> Option<f64> {
        self.coeffs.is_empty().then_some(self.konst)
    }

    fn scaled(&self, s: f64) -> Self {
        Affine {
            coeffs: self.coeffs.iter().map(|(&id, &c)| (id, c * s)).collect(),
            konst: self.konst * s,
        }
    }

    fn shifted(&self, k: f64) -> Self {
        Affine {
            coeffs: self.coeffs.clone(),
            konst: self.konst + k,
        }
    }

    /// `self + sign · other`, dropping coefficients that cancel exactly.
    fn combined(&self, other: &Affine, sign: f64) -> Self {
        let mut coeffs = self.coeffs.clone();
        for (&id, &c) in &other.coeffs {
            let e = coeffs.entry(id).or_insert(0.0);
            *e += sign * c;
            if *e == 0.0 {
                coeffs.remove(&id);
            }
        }
        Affine {
            coeffs,
            konst: self.konst + sign * other.konst,
        }
    }

    fn is_finite(&self) -> bool {
        self.konst.is_finite() && self.coeffs.values().all(|c| c.is_finite())
    }
}

/// A recognized boolean event with enough structure to keep combining.
///
/// `gauss` is `Some` exactly when the event *is* `[form < 0]` for a
/// single linear-Gaussian form — the shape that can still be joined with
/// a correlated sibling through `Φ₂`. Composite events (already-combined
/// connectives) drop the atom but keep their leaf set, so disjoint
/// (independent) combination upward remains exact.
#[derive(Debug, Clone)]
struct Event {
    p: f64,
    leaves: BTreeSet<NodeId>,
    gauss: Option<GaussAtom>,
}

impl Event {
    fn constant(p: f64) -> Self {
        Event {
            p,
            leaves: BTreeSet::new(),
            gauss: None,
        }
    }

    fn complement(&self) -> Self {
        Event {
            p: 1.0 - self.p,
            leaves: self.leaves.clone(),
            // [form < 0]ᶜ is [-form ≤ 0]; the boundary has measure zero
            // for a nondegenerate Gaussian form, so the strict atom is
            // the same event up to a null set.
            gauss: self.gauss.as_ref().map(GaussAtom::negated),
        }
    }
}

/// The standardized description of `[form < 0]` for a nondegenerate
/// linear-Gaussian `form`.
#[derive(Debug, Clone)]
struct GaussAtom {
    form: Affine,
    mean: f64,
    sd: f64,
}

impl GaussAtom {
    /// The atom for the complementary event `[-form < 0]`.
    fn negated(&self) -> Self {
        GaussAtom {
            form: self.form.scaled(-1.0),
            mean: -self.mean,
            sd: self.sd,
        }
    }

    /// `h` such that the event is `[Z < h]` for standardized `Z`.
    fn h(&self) -> f64 {
        -self.mean / self.sd
    }
}

#[derive(Default)]
struct Analyzer {
    /// Moments of every leaf seen so far, by node id.
    leaves: HashMap<NodeId, LeafMoments>,
    /// Affine forms already derived, by node id — shared subexpressions
    /// analyze once (the DAG encodes sharing by identity).
    affine_memo: HashMap<NodeId, Option<Affine>>,
    /// Whether any normal-CDF reduction fired (method attribution).
    used_gaussian: bool,
}

impl Analyzer {
    /// Exact mean/variance of an affine form over independent leaves.
    fn moments(&self, aff: &Affine) -> Option<(f64, f64)> {
        let mut mean = aff.konst;
        let mut var = 0.0;
        for (id, &c) in &aff.coeffs {
            let m = self.leaves.get(id)?;
            mean += c * m.mean;
            var += c * c * m.var;
        }
        (mean.is_finite() && var.is_finite()).then_some((mean, var))
    }

    /// Covariance of two affine forms over the same independent leaves.
    fn covariance(&self, a: &Affine, b: &Affine) -> f64 {
        a.coeffs
            .iter()
            .filter_map(|(id, &ca)| {
                let cb = b.coeffs.get(id)?;
                Some(ca * cb * self.leaves[id].var)
            })
            .sum()
    }

    /// Derives the affine form of an `f64`-valued node, or declines.
    fn affine_of(&mut self, node: &dyn NodeInfo, depth: usize) -> Option<Affine> {
        if depth > MAX_ANALYSIS_DEPTH {
            return None;
        }
        let id = node.id();
        if let Some(memo) = self.affine_memo.get(&id) {
            return memo.clone();
        }
        let result = self.affine_of_uncached(node, depth);
        self.affine_memo.insert(id, result.clone());
        result
    }

    fn affine_of_uncached(&mut self, node: &dyn NodeInfo, depth: usize) -> Option<Affine> {
        let aff = match node.wire_op()? {
            WireOp::Leaf(spec) => {
                let m = leaf_moments(spec)?;
                self.leaves.insert(node.id(), m);
                Affine::leaf(node.id())
            }
            WireOp::PointF64(x) => Affine::constant(x),
            WireOp::PointBool(_) => return None,
            WireOp::Map(MapTag::NotBool) => return None,
            WireOp::Map(MapTag::F64(op)) => {
                let [child, _] = node.children();
                let child = self.affine_of(child?, depth + 1)?;
                if let Some(k) = child.as_constant() {
                    // Any tagged unary folds over a constant — the scalar
                    // `apply` twin is the loop body the kernel would run.
                    Affine::constant(op.apply(k))
                } else {
                    match op {
                        UnOp::Neg => child.scaled(-1.0),
                        UnOp::AddK(k) => child.shifted(k),
                        UnOp::SubK(k) => child.shifted(-k),
                        UnOp::RsubK(k) => child.scaled(-1.0).shifted(k),
                        UnOp::MulK(k) => child.scaled(k),
                        UnOp::DivK(k) => child.scaled(1.0 / k),
                        UnOp::ToRadians => child.scaled(std::f64::consts::PI / 180.0),
                        UnOp::ToDegrees => child.scaled(180.0 / std::f64::consts::PI),
                        _ => return None,
                    }
                }
            }
            WireOp::Map2(Map2Tag::F64(op)) => {
                let [l, r] = node.children();
                let a = self.affine_of(l?, depth + 1)?;
                let b = self.affine_of(r?, depth + 1)?;
                match (a.as_constant(), b.as_constant()) {
                    (Some(x), Some(y)) => Affine::constant(op.apply(x, y)),
                    _ => match op {
                        BinOp::Add => a.combined(&b, 1.0),
                        BinOp::Sub => a.combined(&b, -1.0),
                        BinOp::Mul => match (a.as_constant(), b.as_constant()) {
                            (Some(x), None) => b.scaled(x),
                            (None, Some(y)) => a.scaled(y),
                            // Products of non-constant forms are not
                            // affine (and not Gaussian).
                            _ => return None,
                        },
                        BinOp::Div => match b.as_constant() {
                            Some(y) => a.scaled(1.0 / y),
                            None => return None,
                        },
                        _ => return None,
                    },
                }
            }
            WireOp::Map2(Map2Tag::Cmp(_) | Map2Tag::Bool(_)) => return None,
        };
        aff.is_finite().then_some(aff)
    }

    /// Derives the event description of a `bool`-valued node, or declines.
    fn event_of(&mut self, node: &dyn NodeInfo, depth: usize) -> Option<Event> {
        if depth > MAX_ANALYSIS_DEPTH {
            return None;
        }
        let event = match node.wire_op()? {
            WireOp::Leaf(DistSpec::Bernoulli { p }) => {
                if !(0.0..=1.0).contains(&p) {
                    return None;
                }
                let mut leaves = BTreeSet::new();
                leaves.insert(node.id());
                Event {
                    p,
                    leaves,
                    gauss: None,
                }
            }
            WireOp::Leaf(_) | WireOp::PointF64(_) | WireOp::Map(MapTag::F64(_)) => return None,
            WireOp::PointBool(b) => Event::constant(if b { 1.0 } else { 0.0 }),
            WireOp::Map(MapTag::NotBool) => {
                let [child, _] = node.children();
                self.event_of(child?, depth + 1)?.complement()
            }
            WireOp::Map2(Map2Tag::Cmp(op)) => {
                let [l, r] = node.children();
                let a = self.affine_of(l?, depth + 1)?;
                let b = self.affine_of(r?, depth + 1)?;
                self.comparison_event(op, &a, &b)?
            }
            WireOp::Map2(Map2Tag::Bool(op)) => {
                let [l, r] = node.children();
                let a = self.event_of(l?, depth + 1)?;
                let b = self.event_of(r?, depth + 1)?;
                self.connective_event(op, a, b)?
            }
            WireOp::Map2(Map2Tag::F64(_)) => return None,
        };
        event.p.is_finite().then_some(event)
    }

    /// The event `[a op b]` for affine `a`, `b` — a constant when the
    /// difference degenerates, otherwise a normal-CDF atom (which
    /// requires every contributing leaf to be Gaussian).
    fn comparison_event(&mut self, op: CmpOp, a: &Affine, b: &Affine) -> Option<Event> {
        // Canonical orientation: express the event through d = a − b.
        let d = a.combined(b, -1.0);
        let (mean, var) = self.moments(&d)?;
        if d.coeffs.is_empty() || var == 0.0 {
            // Degenerate: the comparison is a coin that always lands the
            // same way. (A zero-variance non-empty form can only arise
            // from a zero-width Uniform-like leaf; its mean is its value.)
            let p = if op.apply(mean, 0.0) { 1.0 } else { 0.0 };
            return Some(Event::constant(p));
        }
        if !d.coeffs.keys().all(|id| self.leaves[id].gaussian) {
            // Non-Gaussian comparisons have no closed-form CDF here.
            return None;
        }
        let sd = var.sqrt();
        // For a continuous law, ties are null events: Ge/Gt and Le/Lt
        // coincide, Eq is impossible, Ne is sure. Both Eq and Ne are
        // *constants* — independent of every leaf up to a null set.
        let (form, form_mean) = match op {
            CmpOp::Lt | CmpOp::Le => (d, mean),
            CmpOp::Gt | CmpOp::Ge => (d.scaled(-1.0), -mean),
            CmpOp::Eq => return Some(Event::constant(0.0)),
            CmpOp::Ne => return Some(Event::constant(1.0)),
        };
        let atom = GaussAtom {
            mean: form_mean,
            sd,
            form,
        };
        self.used_gaussian = true;
        let p = phi(atom.h());
        Some(Event {
            p,
            leaves: atom.form.coeffs.keys().copied().collect(),
            gauss: Some(atom),
        })
    }

    /// Combines two recognized events through a boolean connective.
    fn connective_event(&mut self, op: BoolOp, a: Event, b: Event) -> Option<Event> {
        // Constant operands short-circuit *before* the disjointness
        // check so they absorb/pass the other side with its atom intact
        // (e.g. `true & cmp` can still pair with a correlated sibling).
        for (konst, other) in [(&a, &b), (&b, &a)] {
            if konst.leaves.is_empty() && (konst.p == 0.0 || konst.p == 1.0) {
                let t = konst.p == 1.0;
                return Some(match (op, t) {
                    (BoolOp::And, true) | (BoolOp::Xor, false) | (BoolOp::Or, false) => {
                        other.clone()
                    }
                    (BoolOp::And, false) => Event::constant(0.0),
                    (BoolOp::Or, true) => Event::constant(1.0),
                    (BoolOp::Xor, true) => other.complement(),
                });
            }
        }
        if a.leaves.is_disjoint(&b.leaves) {
            // Independent branches: exact product rules. The combined
            // event is no longer a single atom, but its leaf set keeps
            // independence decidable further up.
            let p = match op {
                BoolOp::And => a.p * b.p,
                BoolOp::Or => a.p + b.p - a.p * b.p,
                BoolOp::Xor => a.p + b.p - 2.0 * a.p * b.p,
            };
            let leaves = a.leaves.union(&b.leaves).copied().collect();
            return Some(Event {
                p,
                leaves,
                gauss: None,
            });
        }
        // Overlapping leaves: exact only when both sides are single
        // linear-Gaussian atoms — the pair is bivariate normal and the
        // joint probability is Φ₂ with the forms' exact correlation.
        let (ga, gb) = (a.gauss.as_ref()?, b.gauss.as_ref()?);
        let rho = self.covariance(&ga.form, &gb.form) / (ga.sd * gb.sd);
        let p_and = phi2(ga.h(), gb.h(), rho.clamp(-1.0, 1.0));
        let p = match op {
            BoolOp::And => p_and,
            BoolOp::Or => a.p + b.p - p_and,
            BoolOp::Xor => a.p + b.p - 2.0 * p_and,
        };
        let leaves = a.leaves.union(&b.leaves).copied().collect();
        Some(Event {
            p,
            leaves,
            gauss: None,
        })
    }
}

/// Standard normal CDF `Φ(z)`.
fn phi(z: f64) -> f64 {
    // `Gaussian::new(0, 1)` cannot fail; keep one shared standard normal.
    Gaussian::new(0.0, 1.0).expect("standard normal").cdf(z)
}

/// Bivariate standard normal CDF `Φ₂(h, k, ρ) = Pr[Z₁ < h, Z₂ < k]` with
/// correlation `ρ`.
///
/// Uses the single-integral form with the `sin θ` substitution,
///
/// ```text
/// Φ₂(h, k, ρ) = Φ(h)Φ(k)
///   + (1/2π) ∫₀^{asin ρ} exp(−(h² + k² − 2hk·sinθ) / (2cos²θ)) dθ
/// ```
///
/// whose integrand is smooth on the whole range (as `θ → ±π/2` the
/// exponent tends to a finite limit when the endpoint is reachable),
/// integrated by composite Simpson. Deterministic, ~µs, and accurate to
/// well below the SPRT's indifference region.
fn phi2(h: f64, k: f64, rho: f64) -> f64 {
    if rho >= 1.0 - 1e-12 {
        // Perfectly correlated: Z₁ = Z₂.
        return phi(h.min(k));
    }
    if rho <= -1.0 + 1e-12 {
        // Perfectly anti-correlated: Z₂ = −Z₁.
        return (phi(h) + phi(k) - 1.0).max(0.0);
    }
    if rho == 0.0 {
        return phi(h) * phi(k);
    }
    let upper = rho.asin();
    let f = |theta: f64| {
        let (s, c) = theta.sin_cos();
        (-(h * h + k * k - 2.0 * h * k * s) / (2.0 * c * c)).exp()
    };
    // Composite Simpson over [0, asin ρ], 200 panels.
    const PANELS: usize = 200;
    let step = upper / PANELS as f64;
    let mut acc = f(0.0) + f(upper);
    for i in 1..PANELS {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * f(step * i as f64);
    }
    let integral = acc * step / 3.0;
    (phi(h) * phi(k) + integral / std::f64::consts::TAU).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uncertain::Uncertain;

    fn law_of_bool(u: &Uncertain<bool>) -> Option<BoolLaw> {
        analyze_bool(&**u.node())
    }

    fn law_of_f64(u: &Uncertain<f64>) -> Option<ScalarLaw> {
        analyze_f64(&**u.node())
    }

    #[test]
    fn phi2_reduces_to_known_special_cases() {
        // Independence: Φ₂(h, k, 0) = Φ(h)Φ(k).
        assert!((phi2(0.3, -0.7, 0.0) - phi(0.3) * phi(-0.7)).abs() < 1e-12);
        // Perfect correlation: Φ(min).
        assert!((phi2(0.5, 1.5, 1.0) - phi(0.5)).abs() < 1e-12);
        // Perfect anti-correlation: max(0, Φ(h)+Φ(k)−1).
        assert!((phi2(0.5, 0.8, -1.0) - (phi(0.5) + phi(0.8) - 1.0)).abs() < 1e-12);
        // Symmetry in (h, k).
        assert!((phi2(0.4, 1.1, 0.6) - phi2(1.1, 0.4, 0.6)).abs() < 1e-12);
        // Marginal consistency: Φ₂(h, ∞-ish, ρ) ≈ Φ(h).
        assert!((phi2(0.25, 8.0, 0.6) - phi(0.25)).abs() < 1e-9);
        // Known value: Φ₂(0, 0, ρ) = 1/4 + asin(ρ)/2π.
        let rho = 0.37_f64;
        let expected = 0.25 + rho.asin() / (2.0 * std::f64::consts::PI);
        assert!((phi2(0.0, 0.0, rho) - expected).abs() < 1e-9);
    }

    #[test]
    fn affine_gaussian_comparison_is_recognized() {
        let x = Uncertain::normal(3.0, 2.0).unwrap();
        let cond = (&x * 2.0 + 1.0).lt(7.0);
        let law = law_of_bool(&cond).expect("linear-Gaussian comparison");
        // 2x+1 ~ N(7, 16): Pr[< 7] = 1/2.
        assert!((law.p - 0.5).abs() < 1e-12);
        assert_eq!(law.method, ExactMethod::GaussianCdf);
    }

    #[test]
    fn shared_leaves_cancel_exactly() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let diff = &x - &x;
        let law = law_of_f64(&diff).expect("x - x is constant");
        assert_eq!(law.mean, 0.0);
        assert_eq!(law.variance, 0.0);
        assert!(law.gaussian, "no non-Gaussian leaf contributes");
    }

    #[test]
    fn bernoulli_chain_propagates_exactly() {
        let a = Uncertain::<bool>::bernoulli(0.3).unwrap();
        let b = Uncertain::<bool>::bernoulli(0.6).unwrap();
        let c = Uncertain::<bool>::bernoulli(0.9).unwrap();
        let chain = &(&a & &b) | &!&c;
        let law = law_of_bool(&chain).expect("independent evidence chain");
        let (pa, pb, pc) = (0.3, 0.6, 0.1);
        let p_and = pa * pb;
        let expected = p_and + pc - p_and * pc;
        assert!((law.p - expected).abs() < 1e-12);
        assert_eq!(law.method, ExactMethod::BetaChain);
    }

    #[test]
    fn shared_bernoulli_leaves_decline() {
        let a = Uncertain::<bool>::bernoulli(0.5).unwrap();
        assert!(law_of_bool(&(&a & &!&a)).is_none());
    }

    #[test]
    fn correlated_gaussian_pair_uses_phi2() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let a = x.lt(0.0);
        let b = x.gt(0.0);
        // a & b is impossible; a | b is sure (up to null sets).
        let both = law_of_bool(&(&a & &b)).expect("correlated pair");
        assert!(both.p.abs() < 1e-9, "got {}", both.p);
        let either = law_of_bool(&(&a | &b)).expect("correlated pair");
        assert!((either.p - 1.0).abs() < 1e-9, "got {}", either.p);
    }

    #[test]
    fn transcendental_and_opaque_graphs_decline() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        assert!(law_of_bool(&x.sin().lt(0.5)).is_none());
        assert!(law_of_f64(&(&x * &x)).is_none());
        let opaque = x.map("opaque", |v: f64| v + 1.0);
        assert!(law_of_f64(&opaque).is_none());
    }

    #[test]
    fn constant_subtrees_fold_through_nonlinear_ops() {
        // sqrt(4) is constant, so the whole comparison is analyzable
        // even though sqrt of a variable would decline.
        let four = Uncertain::<f64>::point(4.0);
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let cond = x.lt(four.sqrt());
        let law = law_of_bool(&cond).expect("constant-folded rhs");
        assert!((law.p - phi(2.0)).abs() < 1e-12);
    }

    #[test]
    fn mixed_leaf_moments_are_exact() {
        let u = Uncertain::uniform(0.0, 6.0).unwrap();
        let e = Uncertain::from_distribution(uncertain_dist::Exponential::new(2.0).unwrap());
        let combo = &(&u * 2.0) + &e;
        let law = law_of_f64(&combo).expect("affine over closed-form leaves");
        assert!((law.mean - (6.0 + 0.5)).abs() < 1e-12);
        assert!((law.variance - (4.0 * 3.0 + 0.25)).abs() < 1e-12);
        assert!(!law.gaussian);
        assert_eq!(law.method, ExactMethod::Moment);
    }

    #[test]
    fn beta_leaf_moments_are_exact() {
        let b = Uncertain::beta(2.0, 5.0).unwrap();
        let law = law_of_f64(&b).expect("beta leaf");
        assert!((law.mean - 2.0 / 7.0).abs() < 1e-12);
        assert!((law.variance - 10.0 / (49.0 * 8.0)).abs() < 1e-12);
    }
}
