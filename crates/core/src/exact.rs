//! Analytic recognition of tractable subgraphs — the zero-sample backend.
//!
//! The SPRT machinery spends thousands of draws deciding conditionals that
//! have closed forms. This module reads the node DAG in the vocabulary
//! kernel lowering and the wire encoder read ([`NodeInfo::op`]), in one
//! iterative [`post_order`] pass that derives each node's form from its
//! operands' forms, and recognizes two families:
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
//! (`None`), as is a graph whose analysis would pass a fixed work budget,
//! and the caller falls back to the sampling path bitwise unchanged. The
//! analysis never guesses: a returned law is exact (or an exact moment
//! match), not an approximation of convenience.
//!
//! Verdicts are cached per root `NodeId` in the session's plan cache,
//! in the same per-root memo as its "does not lower" verdicts, so the
//! pass runs once per graph, not once per query.

use crate::graph::{post_order, ChildOrder};
use crate::kernel::{BinOp, BoolOp, CmpOp, Map2Tag, MapTag, UnOp};
use crate::node::{IdMap, NodeId, NodeInfo, Op};
use std::collections::{BTreeMap, BTreeSet};
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

/// Work budget of one analysis pass, in form entries (an affine form's
/// coefficients, an event's leaves). Deriving a node's form takes time,
/// and the form space, within a small multiple of one entry plus its
/// operands' entries; each node is charged that sum before its form is
/// derived, and a pass past the budget declines to sampling. Every form
/// lives until the pass ends: without the budget a left-deep sum of `n`
/// distinct leaves, or a conjunction of `n` Bernoulli clauses, would
/// build and hold `n(n+1)/2` entries. The budget admits such chains up
/// to 2 500 links (3.13 million entries).
const MAX_ANALYSIS_WORK: usize = 3 << 20;

/// Analyzes a `bool`-rooted DAG; `None` means "not analytically
/// tractable — sample it".
pub(crate) fn analyze_bool(root: &dyn NodeInfo) -> Option<BoolLaw> {
    let mut a = Analyzer::default();
    let Form::Event(event) = a.run(root)? else {
        return None;
    };
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
    let Form::Affine(aff) = a.run(root)? else {
        return None;
    };
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

/// What the analysis knows about one node: an `f64` node's affine form,
/// or a `bool` node's event.
enum Form {
    Affine(Affine),
    Event(Event),
}

impl Form {
    /// The form's entries: an affine form's coefficients, an event's
    /// leaves (a Gaussian atom holds one coefficient per leaf besides).
    fn entries(&self) -> usize {
        match self {
            Form::Affine(a) => a.coeffs.len(),
            Form::Event(e) => e.leaves.len(),
        }
    }
}

#[derive(Default)]
struct Analyzer {
    /// Moments of every leaf seen so far, by node id.
    leaves: IdMap<LeafMoments>,
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

    /// The root's form, from one [`post_order`] pass that derives every
    /// reachable node's form once (a shared node is analyzed once, however
    /// many parents read it), or `None` at the first node outside the
    /// analytic fragment or past [`MAX_ANALYSIS_WORK`]. The pass is
    /// iterative, so depth costs no stack.
    fn run(&mut self, root: &dyn NodeInfo) -> Option<Form> {
        let mut forms: Vec<Form> = Vec::new();
        let mut work = 0;
        post_order(
            root,
            ChildOrder::LeftFirst,
            |node| match node.op() {
                Some(Op::Leaf(None) | Op::Opaque) | None => Err(()),
                Some(_) => Ok(()),
            },
            |node, operands, _| {
                work += 1 + operands.iter().map(|&i| forms[i].entries()).sum::<usize>();
                if work > MAX_ANALYSIS_WORK {
                    return Err(());
                }
                let form = self.form(node, operands, &forms).ok_or(())?;
                forms.push(form);
                Ok(())
            },
        )
        .ok()?;
        // Post-order visits the root last.
        forms.pop()
    }

    /// The form of `node` from its operands' (their post-order positions
    /// in `forms`), or `None` when the node declines.
    fn form(&mut self, node: &dyn NodeInfo, operands: &[usize], forms: &[Form]) -> Option<Form> {
        let affine = |k: usize| match &forms[operands[k]] {
            Form::Affine(a) => Some(a),
            Form::Event(_) => None,
        };
        let event = |k: usize| match &forms[operands[k]] {
            Form::Event(e) => Some(e),
            Form::Affine(_) => None,
        };
        let form = match node.op()? {
            Op::Leaf(Some(DistSpec::Bernoulli { p })) => {
                if !(0.0..=1.0).contains(&p) {
                    return None;
                }
                Form::Event(Event {
                    p,
                    leaves: BTreeSet::from([node.id()]),
                    gauss: None,
                })
            }
            Op::Leaf(Some(spec)) => {
                self.leaves.insert(node.id(), leaf_moments(spec)?);
                Form::Affine(Affine::leaf(node.id()))
            }
            Op::PointF64(x) => Form::Affine(Affine::constant(x)),
            Op::PointBool(b) => Form::Event(Event::constant(if b { 1.0 } else { 0.0 })),
            Op::Map(MapTag::F64(op)) => {
                let child = affine(0)?;
                Form::Affine(match child.as_constant() {
                    // Any tagged unary folds over a constant — the scalar
                    // `apply` twin is the loop body the kernel would run.
                    Some(k) => Affine::constant(op.apply(k)),
                    None => match op {
                        UnOp::Neg => child.scaled(-1.0),
                        UnOp::AddK(k) => child.shifted(k),
                        UnOp::SubK(k) => child.shifted(-k),
                        UnOp::RsubK(k) => child.scaled(-1.0).shifted(k),
                        UnOp::MulK(k) => child.scaled(k),
                        UnOp::DivK(k) => child.scaled(1.0 / k),
                        UnOp::ToRadians => child.scaled(std::f64::consts::PI / 180.0),
                        UnOp::ToDegrees => child.scaled(180.0 / std::f64::consts::PI),
                        _ => return None,
                    },
                })
            }
            Op::Map(MapTag::NotBool) => Form::Event(event(0)?.complement()),
            Op::Map2(Map2Tag::F64(op)) => {
                let (a, b) = (affine(0)?, affine(1)?);
                Form::Affine(match (a.as_constant(), b.as_constant()) {
                    (Some(x), Some(y)) => Affine::constant(op.apply(x, y)),
                    (x, y) => match op {
                        BinOp::Add => a.combined(b, 1.0),
                        BinOp::Sub => a.combined(b, -1.0),
                        BinOp::Mul => match (x, y) {
                            (Some(x), None) => b.scaled(x),
                            (None, Some(y)) => a.scaled(y),
                            // Products of non-constant forms are not
                            // affine (and not Gaussian).
                            _ => return None,
                        },
                        BinOp::Div => a.scaled(1.0 / y?),
                        _ => return None,
                    },
                })
            }
            Op::Map2(Map2Tag::Cmp(op)) => {
                Form::Event(self.comparison_event(op, affine(0)?, affine(1)?)?)
            }
            Op::Map2(Map2Tag::Bool(op)) => {
                Form::Event(self.connective_event(op, event(0)?, event(1)?)?)
            }
            Op::Leaf(None) | Op::Opaque => return None,
        };
        let finite = match &form {
            Form::Affine(a) => a.is_finite(),
            Form::Event(e) => e.p.is_finite(),
        };
        finite.then_some(form)
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
    fn connective_event(&mut self, op: BoolOp, a: &Event, b: &Event) -> Option<Event> {
        // Constant operands short-circuit *before* the disjointness
        // check so they absorb/pass the other side with its atom intact
        // (e.g. `true & cmp` can still pair with a correlated sibling).
        for (konst, other) in [(a, b), (b, a)] {
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
    use crate::condition::{EvalConfig, EvalStrategy, Provenance};
    use crate::error::Error;
    use crate::runtime::Session;
    use crate::uncertain::Uncertain;
    use crate::wire::WireGraph;

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

    /// The evidence conditional of `tests/exact_calibration.rs` and
    /// perfbench (159 nodes at `n = 50`): affine chains over two shared
    /// Gaussian leaves, compared and conjoined, so the conjunction of two
    /// correlated comparisons takes the Φ₂ path.
    fn evidence_chain(n: usize) -> Uncertain<bool> {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let y = Uncertain::normal(1.0, 2.0).unwrap();
        let mut left = x.clone();
        let mut right = y.clone();
        for _ in 0..n {
            left = left + &x;
            right = right * 0.99 + &y;
        }
        let a = left.lt(&(right + 40.0 + 8.0 * n as f64));
        let b = (&x + &y).gt(-10.0);
        &a & &b
    }

    #[test]
    fn answers_keep_their_bits() {
        // Each answer's bits as built, then after a wire round trip
        // (encode, bytes, parse, decode). The decoder mints node ids in
        // wire order, and the sums over leaves run in id order, so the
        // two are pinned separately.
        let x = Uncertain::normal(3.0, 2.0).unwrap();
        let u = Uncertain::normal(0.0, 1.0).unwrap();
        let v = Uncertain::normal(1.0, 2.0).unwrap();
        let [a, b, c] = [0.3, 0.6, 0.9].map(|p| Uncertain::<bool>::bernoulli(p).unwrap());
        let conditions = [
            evidence_chain(50),
            (&x * 2.0 + 1.0).lt(7.0),
            // Correlation 1/√65 between the two comparisons: Φ₂.
            &(&u + &v).lt(1.5) & &(&u * 3.0 - &v).gt(-0.5),
            &a & &!(&b & &!&c),
        ];
        let p = |u: &Uncertain<bool>| law_of_bool(u).expect("analytic").p.to_bits();
        let shipped = |u: &Uncertain<bool>| {
            let bytes = WireGraph::from_bool(u).unwrap().to_bytes();
            let graph = WireGraph::from_bytes(&bytes).unwrap();
            p(&graph.decode_bool().unwrap())
        };
        assert_eq!(
            conditions.each_ref().map(|u| [p(u), shipped(u)]),
            [
                [0x3fef_fffe_a193_1bb3, 0x3fef_fffe_a193_1bb3],
                [0x3fe0_0000_0000_0000, 0x3fe0_0000_0000_0000],
                [0x3fd1_f99c_72f5_1941, 0x3fd1_f99c_72f5_1941],
                [0x3fd2_0c49_ba5e_3540, 0x3fd2_0c49_ba5e_3540],
            ]
        );

        let exponential = uncertain_dist::Exponential::new(2.0).unwrap();
        let mixed = Uncertain::uniform(0.0, 6.0).unwrap() * 2.0
            + Uncertain::from_distribution(exponential)
            + Uncertain::rayleigh(1.5).unwrap();
        let scalars = [mixed, &u - &u];
        let moments = |u: &Uncertain<f64>| {
            let law = law_of_f64(u).expect("analytic");
            [law.mean.to_bits(), law.variance.to_bits()]
        };
        let shipped = |u: &Uncertain<f64>| {
            let bytes = WireGraph::from_f64(u).unwrap().to_bytes();
            let graph = WireGraph::from_bytes(&bytes).unwrap();
            moments(&graph.decode_f64().unwrap())
        };
        let mixed_bits = [0x4020_c28b_95fe_2751, 0x402a_6e71_504c_d351];
        assert_eq!(
            scalars.each_ref().map(|u| [moments(u), shipped(u)]),
            [[mixed_bits, mixed_bits], [[0, 0], [0, 0]]]
        );
    }

    /// A 3 001-node affine chain over one standard Gaussian that computes
    /// `x + 500` exactly (each `·2`, `+1`, `·0.5` step is exact in binary
    /// floating point), with a sine after step `sin_at`, if given.
    fn deep_chain(sin_at: Option<usize>) -> Uncertain<f64> {
        let mut c = Uncertain::normal(0.0, 1.0).unwrap();
        for i in 0..3000 {
            c = match i % 3 {
                0 => c * 2.0,
                1 => c + 1.0,
                _ => c * 0.5,
            };
            if sin_at == Some(i) {
                c = c.sin();
            }
        }
        c
    }

    #[test]
    fn deep_analytic_chains_decide_exactly() {
        let config = EvalConfig::default().with_strategy(EvalStrategy::ExactOnly);
        let chain = deep_chain(None);
        assert_eq!(chain.network().node_count(), 3001);
        let outcome = Session::seeded(1)
            .try_evaluate(&chain.lt(501.0), 0.5, &config)
            .expect("an affine chain is analytic at any depth");
        assert_eq!(
            outcome.provenance,
            Provenance::Exact {
                method: ExactMethod::GaussianCdf
            }
        );
        // Pr[x + 500 < 501] = Φ(1).
        assert!((outcome.estimate - phi(1.0)).abs() < 1e-12);
        // One sine in the chain still declines, and finding it costs no
        // stack: the pass is iterative.
        let bent = deep_chain(Some(1500)).lt(501.0);
        assert!(matches!(
            Session::seeded(1).try_evaluate(&bent, 0.5, &config),
            Err(Error::NotAnalytic(_))
        ));
    }

    #[test]
    fn long_chains_of_distinct_leaves_stay_within_the_work_budget() {
        // A left-deep sum of `n` distinct Gaussian leaves, and a
        // conjunction of `n` Bernoulli clauses: link `k` derives a form of
        // `k` entries, so a chain derives `n(n+1)/2`.
        let sum = |n: usize| {
            let leaf = || Uncertain::normal(0.0, 1.0).unwrap();
            (1..n).fold(leaf(), |s, _| s + leaf())
        };
        let all = |n: usize| {
            let clause = || Uncertain::<bool>::bernoulli(0.999).unwrap();
            (1..n).fold(clause(), |c, _| &c & &clause())
        };
        // Chains of 2 500 links still decide.
        let law = law_of_f64(&sum(2_500)).expect("within budget");
        assert_eq!((law.mean, law.variance), (0.0, 2_500.0));
        let law = law_of_bool(&all(2_500)).expect("within budget");
        assert!((law.p - 0.999f64.powi(2_500)).abs() < 1e-12);
        // Ten times longer, they would derive 2·10⁸ entries; the pass
        // declines once it has charged its budget instead. Dropping a
        // network recurses once per link, which a 20 000-link chain in a
        // debug build does past a test thread's 2 MiB stack.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || {
                assert!(law_of_f64(&sum(20_000)).is_none());
                assert!(law_of_bool(&all(20_000)).is_none());
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
