//! Observability hooks: SPRT decision traces and kernel cost profiles.
//!
//! This module defines the *event types* the runtime emits and the
//! [`Recorder`] trait that consumes them; the `uncertain-obs` crate
//! provides ready-made recorders (in-memory trace logs, JSON-lines
//! export) and the metrics registry the serving stack builds on.
//!
//! Two instruments live here:
//!
//! * **Decision traces** — install a [`Recorder`] on a
//!   [`Session`](crate::Session) and every SPRT decision emits one
//!   [`DecisionTrace`]: the batch-by-batch log-likelihood-ratio
//!   trajectory, the Wald boundaries it ran between, samples drawn,
//!   the [`StoppingReason`], and wall time. This is the paper's Fig. 9
//!   claim ("draw only as many samples as each conditional needs") made
//!   observable per decision instead of assertable per benchmark.
//! * **Cost profiles** — [`Session::kernel_profile`](crate::Session::kernel_profile)
//!   runs a network's kernel tape with a timer around every instruction
//!   and reports a [`KernelProfile`]: exclusive ns per instruction, per
//!   [`NodeId`], and per leaf distribution kind.
//!
//! Both instruments are pay-for-use: a session with no recorder installed
//! runs one dormant branch per decision, and only a profiling call pays
//! for timers.

use crate::node::NodeId;
use std::time::Duration;

/// Consumes instrumentation events from a [`Session`](crate::Session).
///
/// Installed with [`Session::install_recorder`](crate::Session::install_recorder);
/// the session calls [`Recorder::record_decision`] once per completed (or
/// aborted) SPRT decision, synchronously, on the deciding thread. Keep
/// implementations cheap — they sit between batches of a hot loop only in
/// the sense that they run after the verdict; a slow recorder stretches
/// the caller's wall time, never the sample stream.
pub trait Recorder: Send {
    /// One SPRT decision ran to a verdict (or was cooperatively aborted).
    fn record_decision(&mut self, trace: DecisionTrace);
}

/// Why an SPRT decision stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoppingReason {
    /// A Wald boundary was crossed: the alternative (`Pr > threshold`)
    /// was accepted.
    Accepted,
    /// A Wald boundary was crossed: the null was accepted.
    Rejected,
    /// The sample cap was reached without crossing a boundary; the
    /// decision fell back to the empirical estimate (outcome flagged
    /// inconclusive).
    BudgetCapped,
    /// The caller's cooperative deadline hook abandoned the decision
    /// before a verdict (service request timeout).
    Aborted,
}

impl StoppingReason {
    /// Stable lower-case name, used by the exporters
    /// (`"accepted"`, `"rejected"`, `"budget_capped"`, `"aborted"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            StoppingReason::Accepted => "accepted",
            StoppingReason::Rejected => "rejected",
            StoppingReason::BudgetCapped => "budget_capped",
            StoppingReason::Aborted => "aborted",
        }
    }
}

/// Which execution backend answered a decision-family query
/// ([`Session::last_dispatch`](crate::Session::last_dispatch)).
///
/// Recording it costs one enum store per decision, so it is always
/// tracked; the serve layer turns it into a span attribute when request
/// tracing is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dispatch {
    /// The analytic backend answered in closed form, zero samples.
    Exact,
    /// The columnar SSA kernel drove the SPRT sample loop.
    Kernel,
    /// The tree-walk interpreter drove the SPRT sample loop, because the
    /// network does not lower to the kernel tape.
    Closure,
}

impl Dispatch {
    /// Stable lower-case name for exporters
    /// (`"exact"`, `"kernel"`, `"closure"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Dispatch::Exact => "exact",
            Dispatch::Kernel => "kernel",
            Dispatch::Closure => "closure",
        }
    }
}

/// One point of a decision's log-likelihood-ratio trajectory: the
/// cumulative state after one SPRT batch was absorbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Cumulative samples drawn after this batch.
    pub samples: usize,
    /// Cumulative `true` observations after this batch.
    pub successes: u64,
    /// Wald log-likelihood ratio at these counts.
    pub llr: f64,
}

/// The full record of one SPRT decision, emitted to a [`Recorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTrace {
    /// Root node of the decided conditional's network.
    pub root: NodeId,
    /// The threshold of `Pr[cond] > threshold`.
    pub threshold: f64,
    /// Accept-H₁ boundary `ln((1−β)/α)` the trajectory ran against.
    pub upper: f64,
    /// Accept-H₀ boundary `ln(β/(1−α))`.
    pub lower: f64,
    /// The batch-by-batch trajectory, in draw order. Empty iff the
    /// decision was aborted before its first batch.
    pub batches: Vec<TracePoint>,
    /// Total samples drawn (equals the outcome's reported `samples` for
    /// completed decisions; for aborted ones, the samples of completed
    /// batches).
    pub samples: usize,
    /// Total `true` observations.
    pub successes: u64,
    /// Empirical estimate `successes / samples` (`0.0` when no sample
    /// was drawn).
    pub estimate: f64,
    /// Why sampling stopped.
    pub stopping: StoppingReason,
    /// Wall time from test start to verdict/abort.
    pub elapsed: Duration,
}

impl DecisionTrace {
    /// Whether the decision reached a verdict (was not aborted).
    pub fn completed(&self) -> bool {
        self.stopping != StoppingReason::Aborted
    }
}

/// Measured cost of one kernel-tape instruction.
///
/// Instruction timings are *exclusive*: the kernel runs each instruction
/// over the whole column before moving on, so every entry is the wall time
/// of that one columnar loop and the entries sum to the batch total.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrCost {
    /// The network node this instruction materialises.
    pub node: NodeId,
    /// The node's display label (e.g. `"Gaussian(0, 1)"`, `"+"`), looked
    /// up in the network when the profile is taken.
    pub label: String,
    /// The instruction mnemonic (e.g. `"leaf_vec"`, `"binary"`,
    /// `"muladd"`).
    pub op: &'static str,
    /// Column elements this instruction produced across the profiled run.
    pub elems: u64,
    /// Exclusive nanoseconds spent in this instruction's columnar loops.
    pub ns: u64,
}

/// A per-instruction cost breakdown of a columnar kernel run, produced by
/// [`Session::kernel_profile`](crate::Session::kernel_profile).
///
/// Instructions appear in tape order (children before parents); `ns` is
/// exclusive per instruction, so the hot spots read directly off the list.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Per-instruction costs in tape (execution) order.
    pub instrs: Vec<InstrCost>,
    /// Joint samples drawn during the profiled run.
    pub samples: u64,
    /// Tape length as lowered, before the optimizer's fold / CSE /
    /// copy-propagation / fusion / DCE passes ran. Compare with
    /// [`KernelProfile::post_opt_instrs`] to see how much of the raw tape
    /// the optimizer removed.
    pub pre_opt_instrs: usize,
}

impl KernelProfile {
    /// Total nanoseconds across all instructions.
    pub fn total_ns(&self) -> u64 {
        self.instrs.iter().map(|i| i.ns).sum()
    }

    /// Tape length after optimization — the instructions that actually
    /// ran (`instrs.len()`).
    pub fn post_opt_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// Leaf-fill cost aggregated by distribution kind, hottest first.
    ///
    /// Each entry sums the leaf instructions of one distribution
    /// family (label kind prefix, e.g. `"Gaussian"`), split by whether the
    /// leaf filled its column through the vectorized
    /// [`fill_column`](uncertain_dist::Distribution::fill_column) path
    /// (`op == "leaf_vec"`) or the per-element scalar fallback
    /// (`op == "leaf"`). Non-leaf instructions are excluded, so the total
    /// here is the tape's sampling cost as opposed to its arithmetic cost.
    pub fn by_leaf_kind(&self) -> Vec<LeafKindCost> {
        let mut kinds: Vec<LeafKindCost> = Vec::new();
        for i in &self.instrs {
            let vectorized = match i.op {
                "leaf_vec" => true,
                "leaf" => false,
                _ => continue,
            };
            let kind = kind_of(&i.label);
            match kinds
                .iter_mut()
                .find(|k| k.kind == kind && k.vectorized == vectorized)
            {
                Some(k) => {
                    k.instrs += 1;
                    k.elems += i.elems;
                    k.ns += i.ns;
                }
                None => kinds.push(LeafKindCost {
                    kind,
                    vectorized,
                    instrs: 1,
                    elems: i.elems,
                    ns: i.ns,
                }),
            }
        }
        kinds.sort_by_key(|k| std::cmp::Reverse(k.ns));
        kinds
    }
}

/// Leaf sampling cost aggregated over every leaf instruction of one
/// distribution kind, from [`KernelProfile::by_leaf_kind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafKindCost {
    /// The distribution family (label kind prefix, e.g. `"Gaussian"`).
    pub kind: String,
    /// Whether these leaves filled whole columns via the distribution's
    /// vectorized `fill_column` (`true`) or fell back to per-element
    /// scalar sampling (`false`). The same kind can appear twice — once
    /// per path — when a network mixes tagged and closure leaves.
    pub vectorized: bool,
    /// Distinct leaf instructions aggregated.
    pub instrs: usize,
    /// Summed column elements produced.
    pub elems: u64,
    /// Summed exclusive nanoseconds.
    pub ns: u64,
}

/// The kind prefix of a node label: everything before the first `(`,
/// trimmed (`"Gaussian(0, 1)"` → `"Gaussian"`, `"+"` → `"+"`).
pub(crate) fn kind_of(label: &str) -> String {
    label.split('(').next().unwrap_or(label).trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_strips_parameterization() {
        assert_eq!(kind_of("Gaussian(0, 1)"), "Gaussian");
        assert_eq!(kind_of("+"), "+");
        assert_eq!(kind_of("weight_by (k=4)"), "weight_by");
    }

    #[test]
    fn stopping_reason_names_are_stable() {
        assert_eq!(StoppingReason::Accepted.as_str(), "accepted");
        assert_eq!(StoppingReason::Rejected.as_str(), "rejected");
        assert_eq!(StoppingReason::BudgetCapped.as_str(), "budget_capped");
        assert_eq!(StoppingReason::Aborted.as_str(), "aborted");
    }

    #[test]
    fn kernel_profile_totals_are_exclusive_sums() {
        let profile = KernelProfile {
            instrs: vec![
                InstrCost {
                    node: NodeId::fresh(),
                    label: "Gaussian(0, 1)".into(),
                    op: "fill_leaf",
                    elems: 256,
                    ns: 700,
                },
                InstrCost {
                    node: NodeId::fresh(),
                    label: "+".into(),
                    op: "bin_f64",
                    elems: 256,
                    ns: 300,
                },
            ],
            samples: 256,
            pre_opt_instrs: 3,
        };
        assert_eq!(profile.total_ns(), 1000);
        assert_eq!(profile.pre_opt_instrs, 3);
        assert_eq!(profile.post_opt_instrs(), 2);
    }

    #[test]
    fn leaf_breakdown_splits_kind_and_path() {
        let leaf = |label: &str, op: &'static str, ns: u64| InstrCost {
            node: NodeId::fresh(),
            label: label.into(),
            op,
            elems: 100,
            ns,
        };
        let profile = KernelProfile {
            instrs: vec![
                leaf("Gaussian(0, 1)", "leaf_vec", 500),
                leaf("Gaussian(2, 3)", "leaf_vec", 300),
                leaf("Gaussian(sampling fn)", "leaf", 900),
                leaf("Exponential(1)", "leaf_vec", 200),
                leaf("+", "bin_f64", 5_000), // non-leaf: excluded
            ],
            samples: 100,
            pre_opt_instrs: 5,
        };
        let kinds = profile.by_leaf_kind();
        assert_eq!(kinds.len(), 3);
        // Hottest first: the scalar Gaussian outweighs the two vectorized.
        assert_eq!(kinds[0].kind, "Gaussian");
        assert!(!kinds[0].vectorized);
        assert_eq!(kinds[0].ns, 900);
        assert_eq!(kinds[1].kind, "Gaussian");
        assert!(kinds[1].vectorized);
        assert_eq!(
            (kinds[1].instrs, kinds[1].elems, kinds[1].ns),
            (2, 200, 800)
        );
        assert_eq!(kinds[2].kind, "Exponential");
        assert!(kinds[2].vectorized);
    }
}
