//! The flight recorder: a bounded ring of completed request traces
//! retained by a tail-based policy.
//!
//! Head-based sampling (decide at admission) keeps a *fraction*;
//! operators debugging a p99 regression want the *interesting* requests.
//! The [`FlightRecorder`] therefore decides at completion, when the
//! outcome is known, and keeps a trace iff it is an error/timeout, an
//! exact-vs-sampled audit mismatch, or among the slowest-N of the
//! current time window. Everything lives in one bounded `VecDeque`
//! behind a mutex touched once per *completed traced request* — never
//! on the per-sample or per-batch hot path.
//!
//! # Examples
//!
//! ```
//! use uncertain_obs::{FlightConfig, FlightRecorder, RequestTrace};
//!
//! let rec = FlightRecorder::new(FlightConfig::default());
//! let mut t = RequestTrace::new(7, 1, "evaluate");
//! t.status = "ok";
//! t.total_ns = 1_000_000;
//! assert!(rec.offer(t)); // first-of-window is always among slowest-N
//! assert_eq!(rec.recent(10).len(), 1);
//! assert!(rec.get(7).is_some());
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use uncertain_core::DecisionTrace;

use crate::span::{monotonic_ns, AttrValue, Span};
use crate::trace::{push_f64, trace_to_json};

/// How many SPRT batches a retained decision keeps. A near-threshold
/// decision can run thousands; the ring keeps the head of each
/// trajectory, and the record's totals stay exact.
const MAX_RETAINED_BATCHES: usize = 128;

/// Retention policy and capacity for a [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightConfig {
    /// Ring capacity: at most this many traces are retained; older
    /// traces fall off the front.
    pub capacity: usize,
    /// How many of the slowest traces each window admits (errors and
    /// audit mismatches are always admitted and don't count against it).
    pub slow_n: usize,
    /// Window length in nanoseconds; the slowest-N admission threshold
    /// resets each window.
    pub window_ns: u64,
}

impl Default for FlightConfig {
    /// 256 traces, slowest 8 per 1-second window.
    fn default() -> Self {
        Self {
            capacity: 256,
            slow_n: 8,
            window_ns: 1_000_000_000,
        }
    }
}

/// Everything the recorder keeps about one completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// The wire-propagated trace id.
    pub trace_id: u64,
    /// Tenant the request ran as.
    pub tenant: u64,
    /// Request kind (`"evaluate"`, `"e"`, `"stats"`).
    pub kind: &'static str,
    /// Terminal status (`"ok"`, `"timeout"`, `"queue_full"`, …).
    pub status: &'static str,
    /// Whether the request failed (any non-`ok` status).
    pub error: bool,
    /// Whether the analytic backend answered (zero samples drawn).
    pub exact: bool,
    /// Whether a shadow-sample audit disagreed with an exact verdict.
    pub audit_mismatch: bool,
    /// When the request was admitted, [`monotonic_ns`] clock.
    pub started_ns: u64,
    /// Admission-to-reply latency in nanoseconds.
    pub total_ns: u64,
    /// The span tree (root first, ids sequential from 1).
    pub spans: Vec<Span>,
    /// The SPRT's own record of the request's sampled decision: its
    /// batch-by-batch trajectory, Wald's boundaries and its stopping
    /// reason, as a [`TraceLog`](crate::TraceLog) holds it. `None` for an
    /// exact decision, an `e`/`stats` request, or a request that never
    /// ran. A retained record keeps its first 128 batches.
    pub decision: Option<DecisionTrace>,
}

impl RequestTrace {
    /// An empty `ok` trace shell for `trace_id`/`tenant`/`kind`; the
    /// caller fills status, timings, and spans.
    pub fn new(trace_id: u64, tenant: u64, kind: &'static str) -> Self {
        Self {
            trace_id,
            tenant,
            kind,
            status: "ok",
            error: false,
            exact: false,
            audit_mismatch: false,
            started_ns: 0,
            total_ns: 0,
            spans: Vec::new(),
            decision: None,
        }
    }
}

/// Counters describing a recorder's activity, for metrics exposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Completed traces offered to the recorder.
    pub offered: u64,
    /// Traces the retention policy kept.
    pub retained: u64,
    /// Traces currently buffered in the ring.
    pub buffered: usize,
}

#[derive(Debug)]
struct FlightState {
    ring: VecDeque<Arc<RequestTrace>>,
    /// Durations of the slow-path admissions in the current window,
    /// unsorted; its minimum is the admission bar once full.
    window_slow: Vec<u64>,
    window_start: u64,
    offered: u64,
    retained: u64,
}

/// A bounded, tail-retaining ring buffer of completed [`RequestTrace`]s.
///
/// Shared via `Arc` between shard workers (who `offer`) and the HTTP
/// introspection endpoints (who `recent`/`get`).
#[derive(Debug)]
pub struct FlightRecorder {
    config: FlightConfig,
    state: Mutex<FlightState>,
}

impl FlightRecorder {
    /// An empty recorder with the given policy.
    pub fn new(config: FlightConfig) -> Self {
        Self {
            config,
            state: Mutex::new(FlightState {
                ring: VecDeque::with_capacity(config.capacity.min(1024)),
                window_slow: Vec::new(),
                window_start: monotonic_ns(),
                offered: 0,
                retained: 0,
            }),
        }
    }

    /// The retention policy in force.
    pub fn config(&self) -> FlightConfig {
        self.config
    }

    /// Offers a completed trace; returns whether the policy retained it.
    ///
    /// Retained iff any of: `error`, `audit_mismatch`, or among the
    /// slowest-N completions of the current window (greedy at admission
    /// time: kept while the window has fewer than N slow slots, or when
    /// slower than the slowest-N bar so far). The ring bounds what each
    /// trace holds too: a decision's trajectory is cut to its first 128
    /// batches.
    pub fn offer(&self, mut trace: RequestTrace) -> bool {
        if let Some(d) = &mut trace.decision {
            if d.batches.len() > MAX_RETAINED_BATCHES {
                d.batches.truncate(MAX_RETAINED_BATCHES);
                d.batches.shrink_to_fit();
            }
        }
        let mut s = self.state.lock().unwrap();
        s.offered += 1;
        let now = monotonic_ns();
        if now.saturating_sub(s.window_start) >= self.config.window_ns {
            s.window_start = now;
            s.window_slow.clear();
        }
        let mut keep = trace.error || trace.audit_mismatch;
        if !keep {
            if s.window_slow.len() < self.config.slow_n {
                s.window_slow.push(trace.total_ns);
                keep = true;
            } else if let Some((slot, &bar)) =
                s.window_slow.iter().enumerate().min_by_key(|(_, &d)| d)
            {
                if trace.total_ns > bar {
                    s.window_slow[slot] = trace.total_ns;
                    keep = true;
                }
            }
        }
        if keep {
            s.retained += 1;
            if s.ring.len() >= self.config.capacity.max(1) {
                s.ring.pop_front();
            }
            s.ring.push_back(Arc::new(trace));
        }
        keep
    }

    /// The most recent `limit` retained traces, newest last.
    pub fn recent(&self, limit: usize) -> Vec<Arc<RequestTrace>> {
        let s = self.state.lock().unwrap();
        let skip = s.ring.len().saturating_sub(limit);
        s.ring.iter().skip(skip).cloned().collect()
    }

    /// Looks up a retained trace by id (most recent wins on reuse).
    pub fn get(&self, trace_id: u64) -> Option<Arc<RequestTrace>> {
        let s = self.state.lock().unwrap();
        s.ring
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// Activity counters for metrics exposition.
    pub fn stats(&self) -> FlightStats {
        let s = self.state.lock().unwrap();
        FlightStats {
            offered: s.offered,
            retained: s.retained,
            buffered: s.ring.len(),
        }
    }
}

/// Escapes a string for a JSON string literal (quotes, backslash,
/// control characters).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_attrs(out: &mut String, attrs: &[(&'static str, AttrValue)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        match v {
            AttrValue::U64(n) => out.push_str(&n.to_string()),
            AttrValue::F64(f) => push_f64(out, *f),
            AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            AttrValue::Str(s) => push_json_str(out, s),
        }
    }
    out.push('}');
}

/// Renders one retained trace as a single JSON object (one line, no
/// trailing newline) — the `/traces` endpoints emit these as JSON-lines.
/// The span tree comes first, then `"decision"`: the record as
/// [`trace_to_json`] prints it, or `null`.
pub fn request_trace_to_json(t: &RequestTrace) -> String {
    let mut s = String::with_capacity(256 + t.spans.len() * 128);
    s.push_str(&format!(
        "{{\"trace_id\":{},\"tenant\":{},\"kind\":\"{}\",\"status\":\"{}\",\
         \"error\":{},\"exact\":{},\"audit_mismatch\":{},\"started_ns\":{},\
         \"total_ns\":{},\"spans\":[",
        t.trace_id,
        t.tenant,
        t.kind,
        t.status,
        t.error,
        t.exact,
        t.audit_mismatch,
        t.started_ns,
        t.total_ns
    ));
    for (i, sp) in t.spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":",
            sp.id, sp.parent, sp.name, sp.start_ns, sp.end_ns
        ));
        push_attrs(&mut s, &sp.attrs);
        s.push('}');
    }
    s.push_str("],\"decision\":");
    match &t.decision {
        Some(d) => s.push_str(&trace_to_json(d)),
        None => s.push_str("null"),
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json_check::check;
    use uncertain_core::{StoppingReason, TracePoint, Uncertain};

    fn trace(id: u64, total_ns: u64) -> RequestTrace {
        let mut t = RequestTrace::new(id, 1, "evaluate");
        t.total_ns = total_ns;
        t
    }

    #[test]
    fn slowest_n_admission_within_a_window() {
        let rec = FlightRecorder::new(FlightConfig {
            capacity: 64,
            slow_n: 2,
            window_ns: u64::MAX, // never roll the window
        });
        assert!(rec.offer(trace(1, 100))); // fills slot 1
        assert!(rec.offer(trace(2, 50))); // fills slot 2
        assert!(!rec.offer(trace(3, 40))); // below the bar (50)
        assert!(rec.offer(trace(4, 60))); // beats the bar, evicts it
        assert!(!rec.offer(trace(5, 55))); // bar is now 60
        let ids: Vec<u64> = rec.recent(10).iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![1, 2, 4]);
        let s = rec.stats();
        assert_eq!((s.offered, s.retained, s.buffered), (5, 3, 3));
    }

    #[test]
    fn errors_and_mismatches_always_retained() {
        let rec = FlightRecorder::new(FlightConfig {
            capacity: 64,
            slow_n: 1,
            window_ns: u64::MAX,
        });
        assert!(rec.offer(trace(1, 1000)));
        let mut err = trace(2, 1); // far below the bar
        err.error = true;
        err.status = "timeout";
        assert!(rec.offer(err));
        let mut bad = trace(3, 1);
        bad.audit_mismatch = true;
        assert!(rec.offer(bad));
        assert_eq!(rec.recent(10).len(), 3);
    }

    #[test]
    fn ring_capacity_is_bounded() {
        let rec = FlightRecorder::new(FlightConfig {
            capacity: 3,
            slow_n: 100,
            window_ns: u64::MAX,
        });
        for i in 0..10 {
            rec.offer(trace(i, i));
        }
        let kept = rec.recent(100);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].trace_id, 7);
        assert!(rec.get(6).is_none(), "evicted from the ring");
        assert!(rec.get(9).is_some());
    }

    #[test]
    fn get_prefers_most_recent_on_id_reuse() {
        let rec = FlightRecorder::new(FlightConfig {
            capacity: 8,
            slow_n: 100,
            window_ns: u64::MAX,
        });
        rec.offer(trace(5, 10));
        let mut second = trace(5, 20);
        second.kind = "e";
        rec.offer(second);
        assert_eq!(rec.get(5).unwrap().kind, "e");
    }

    /// A budget-capped decision of `batches` batches of 64 samples.
    fn decision(batches: usize) -> DecisionTrace {
        DecisionTrace {
            root: Uncertain::bernoulli(0.5).unwrap().id(),
            threshold: 0.5,
            upper: 2.5,
            lower: -2.5,
            batches: (1..=batches)
                .map(|i| TracePoint {
                    samples: i * 64,
                    successes: (i * 32) as u64,
                    llr: i as f64 * -1e-7,
                })
                .collect(),
            samples: batches * 64,
            successes: (batches * 32) as u64,
            estimate: 0.5,
            stopping: StoppingReason::BudgetCapped,
            elapsed: std::time::Duration::from_millis(1),
        }
    }

    #[test]
    fn retained_decisions_keep_their_first_batches_and_exact_totals() {
        let rec = FlightRecorder::new(FlightConfig::default());
        let mut t = trace(3, 10);
        t.decision = Some(decision(500));
        assert!(rec.offer(t));
        let kept = rec.get(3).unwrap();
        let d = kept.decision.as_ref().unwrap();
        assert_eq!(d.batches.len(), MAX_RETAINED_BATCHES);
        assert_eq!(d.batches.last().unwrap().samples, 128 * 64);
        assert_eq!((d.samples, d.successes), (32_000, 16_000));
        assert_eq!(d.stopping, StoppingReason::BudgetCapped);
    }

    #[test]
    fn json_rendering_is_one_line_and_escaped() {
        let mut t = trace(9, 123);
        t.spans.push(Span {
            id: 1,
            parent: 0,
            name: "request",
            start_ns: 10,
            end_ns: 133,
            attrs: vec![
                ("tenant", AttrValue::U64(1)),
                ("note", AttrValue::Str("a\"b\\c\nd\u{1}".into())),
                ("estimate", AttrValue::F64(0.5)),
                ("nan", AttrValue::F64(f64::NAN)),
                ("inf", AttrValue::F64(f64::NEG_INFINITY)),
                ("whole", AttrValue::F64(2.0)),
                ("ok", AttrValue::Bool(true)),
            ],
        });
        let j = request_trace_to_json(&t);
        check(&j).unwrap_or_else(|e| panic!("{e}: {j}"));
        assert!(!j.contains('\n'), "JSON-lines record must be one line");
        assert!(j.contains("\"trace_id\":9"));
        assert!(j.contains("\"note\":\"a\\\"b\\\\c\\nd\\u0001\""));
        assert!(j.contains("\"nan\":null,\"inf\":null,\"whole\":2.0"));
        assert!(j.ends_with("}],\"decision\":null}"));

        // A decision is spliced in as `trace_to_json` prints it.
        t.decision = Some(decision(3));
        let j = request_trace_to_json(&t);
        check(&j).unwrap_or_else(|e| panic!("{e}: {j}"));
        let record = trace_to_json(t.decision.as_ref().unwrap());
        assert!(j.ends_with(&format!("}}],\"decision\":{record}}}")));
        assert!(record.contains("\"upper\":2.5,\"lower\":-2.5,"));
        assert!(record.contains("\"llr\":-1e-7}"));
        assert_eq!(record.matches("{\"n\":").count(), 3);
    }
}
