//! Decision-trace collection and JSON-lines export.
//!
//! [`TraceLog`] is the standard [`Recorder`]: a cheaply cloneable handle
//! to a shared trace buffer. Install a clone on a
//! [`Session`](uncertain_core::Session) with
//! [`Session::install_recorder`](uncertain_core::Session::install_recorder)
//! (or `Session::with_recorder`) and keep the other clone to read traces
//! back after — or while — the session runs.
//!
//! [`trace_to_json`] renders one trace as a single JSON object, and
//! [`to_jsonl`]/[`write_jsonl`] stream a batch as JSON-lines, the format
//! every trace viewer and `jq` pipeline eats.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use uncertain_core::{DecisionTrace, Recorder};

/// A shared, thread-safe log of [`DecisionTrace`] events.
///
/// Clones share one buffer, so the idiom is: clone, install the clone,
/// query, then read the original. The mutex is touched once per
/// *decision* (not per sample or batch), so contention is negligible.
///
/// # Examples
///
/// ```
/// use uncertain_core::{Session, StoppingReason, Uncertain};
/// use uncertain_obs::TraceLog;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let log = TraceLog::new();
/// let mut session = Session::seeded(7).with_recorder(log.clone());
///
/// let coin = Uncertain::bernoulli(0.9)?;
/// assert!(session.is_probable(&coin));
///
/// let traces = log.take();
/// assert_eq!(traces.len(), 1);
/// assert_eq!(traces[0].stopping, StoppingReason::Accepted);
/// assert!(!traces[0].batches.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    traces: Arc<Mutex<Vec<DecisionTrace>>>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Traces recorded so far.
    pub fn len(&self) -> usize {
        self.traces.lock().expect("trace log poisoned").len()
    }

    /// Whether no trace has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns every recorded trace, oldest first.
    pub fn take(&self) -> Vec<DecisionTrace> {
        std::mem::take(&mut *self.traces.lock().expect("trace log poisoned"))
    }

    /// Clones every recorded trace without draining the log.
    pub fn traces(&self) -> Vec<DecisionTrace> {
        self.traces.lock().expect("trace log poisoned").clone()
    }

    /// Renders the current contents as JSON-lines (see [`to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.traces())
    }
}

impl Recorder for TraceLog {
    fn record_decision(&mut self, trace: DecisionTrace) {
        self.traces.lock().expect("trace log poisoned").push(trace);
    }
}

/// Writes a JSON number, keeping the output valid JSON even for the
/// non-finite values f64 allows but JSON does not. The `Debug` form
/// round-trips, keeps a decimal point on integral values and writes an
/// exponent for extremes (`1e300`, not 301 digits).
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Renders one [`DecisionTrace`] as a single-line JSON object.
///
/// The shape is stable: scalar fields first, then `batches` as an array
/// of `{n, successes, llr}` points — the decision's LLR trajectory in
/// sample order, ready to plot against the `upper`/`lower` boundaries.
///
/// # Examples
///
/// ```
/// use uncertain_core::{Session, Uncertain};
/// use uncertain_obs::{trace_to_json, TraceLog};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let log = TraceLog::new();
/// let mut session = Session::seeded(7).with_recorder(log.clone());
/// session.is_probable(&Uncertain::bernoulli(0.9)?);
///
/// let json = trace_to_json(&log.take()[0]);
/// assert!(json.starts_with('{') && json.ends_with('}'));
/// assert!(json.contains("\"stopping\":\"accepted\""));
/// assert!(json.contains("\"batches\":[{\"n\":"));
/// # Ok(())
/// # }
/// ```
pub fn trace_to_json(trace: &DecisionTrace) -> String {
    let mut out = String::with_capacity(160 + trace.batches.len() * 48);
    let _ = write!(out, "{{\"root\":{},\"threshold\":", trace.root.as_u64());
    push_f64(&mut out, trace.threshold);
    out.push_str(",\"upper\":");
    push_f64(&mut out, trace.upper);
    out.push_str(",\"lower\":");
    push_f64(&mut out, trace.lower);
    let _ = write!(
        out,
        ",\"samples\":{},\"successes\":{},\"estimate\":",
        trace.samples, trace.successes
    );
    push_f64(&mut out, trace.estimate);
    let _ = write!(
        out,
        ",\"stopping\":\"{}\",\"elapsed_ns\":{},\"batches\":[",
        trace.stopping.as_str(),
        trace.elapsed.as_nanos()
    );
    for (i, p) in trace.batches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"n\":{},\"successes\":{},\"llr\":",
            p.samples, p.successes
        );
        push_f64(&mut out, p.llr);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Renders traces as JSON-lines: one [`trace_to_json`] object per line.
pub fn to_jsonl(traces: &[DecisionTrace]) -> String {
    let mut out = String::new();
    for t in traces {
        out.push_str(&trace_to_json(t));
        out.push('\n');
    }
    out
}

/// Streams traces as JSON-lines to any writer (a file, a socket, a
/// capture buffer).
pub fn write_jsonl<W: std::io::Write>(w: &mut W, traces: &[DecisionTrace]) -> std::io::Result<()> {
    for t in traces {
        writeln!(w, "{}", trace_to_json(t))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncertain_core::{Session, StoppingReason, Uncertain};

    fn one_trace() -> DecisionTrace {
        let log = TraceLog::new();
        let mut session = Session::seeded(11).with_recorder(log.clone());
        let coin = Uncertain::bernoulli(0.95).unwrap();
        assert!(session.is_probable(&coin));
        let mut traces = log.take();
        assert_eq!(traces.len(), 1);
        traces.pop().unwrap()
    }

    #[test]
    fn recorder_captures_trajectory() {
        let t = one_trace();
        assert_eq!(t.stopping, StoppingReason::Accepted);
        assert!(t.samples > 0);
        let last = t.batches.last().expect("at least one batch");
        assert_eq!(last.samples, t.samples, "trajectory ends at the decision");
        assert_eq!(last.successes, t.successes);
        assert!(
            t.batches.windows(2).all(|w| w[0].samples < w[1].samples),
            "cumulative sample counts are strictly increasing"
        );
    }

    #[test]
    fn json_shape_is_parseable_line() {
        let t = one_trace();
        let json = trace_to_json(&t);
        assert!(!json.contains('\n'));
        assert!(json.contains(&format!("\"root\":{}", t.root.as_u64())));
        assert!(json.contains(&format!("\"samples\":{}", t.samples)));
        assert!(json.contains("\"stopping\":\"accepted\""));
        crate::json_check::check(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert_eq!(json.matches("{\"n\":").count(), t.batches.len());
    }

    #[test]
    fn jsonl_is_one_line_per_trace() {
        let log = TraceLog::new();
        let mut session = Session::seeded(3).with_recorder(log.clone());
        let coin = Uncertain::bernoulli(0.9).unwrap();
        session.is_probable(&coin);
        session.is_probable(&coin);
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &log.take()).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), text);
        assert!(log.is_empty(), "take drained the log");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut s = String::new();
        for v in [f64::NAN, f64::INFINITY, 1.0, 1e300, -2.5e-7] {
            push_f64(&mut s, v);
            s.push(',');
        }
        assert_eq!(s, "null,null,1.0,1e300,-2.5e-7,");
    }
}
