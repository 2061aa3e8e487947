//! Server-side span assembly for traced requests.
//!
//! A [`RequestTracer`] rides the shard worker's stack for the lifetime
//! of one sampled request and turns what the worker already knows —
//! admission time, plan-compile nanoseconds, the SPRT's
//! [`DecisionTrace`], chunk boundaries, the audit verdict — into the
//! span taxonomy the flight recorder retains:
//!
//! ```text
//! request                      admission → reply, tenant/kind/shard/status
//! ├─ queue                     admission → dequeue
//! ├─ compile                   plan-compile share (omitted on warm cache)
//! ├─ decide                    SPRT or exact verdict; sprt_batch events
//! │                            (dispatch = exact | kernel | closure)
//! ├─ sample_chunk × k          e/stats sampling path, one per 4096-chunk
//! ├─ exact                     e/stats analytic path (zero samples)
//! └─ audit                     shadow-sample check of an exact verdict
//! ```
//!
//! The tracer is plain owned data — building spans takes no locks; the
//! one synchronized step is `FlightRecorder::offer` at the end. Nothing
//! in this module runs for untraced requests.

use uncertain_core::{DecisionTrace, Dispatch, HypothesisOutcome, ServeError};
use uncertain_obs::{monotonic_ns, AttrValue, RequestTrace, SpanEvent, TraceBuilder, TraceContext};

use crate::transport::{RequestKind, Response};

/// Cap on `sprt_batch` events copied into a `decide` span. A
/// near-threshold decision can run thousands of batches; the trajectory
/// head is where the boundaries and estimate settle, and the span notes
/// how many batches were dropped.
const MAX_BATCH_EVENTS: usize = 128;

/// The stable span-attribute name of a request kind.
pub(crate) fn kind_name(kind: &RequestKind) -> &'static str {
    match kind {
        RequestKind::Evaluate { .. } => "evaluate",
        RequestKind::Pr { .. } => "pr",
        RequestKind::E { .. } => "e",
        RequestKind::Stats { .. } => "stats",
    }
}

/// The stable status string of a finished request.
pub(crate) fn status_of(result: &Result<Response, ServeError>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(ServeError::Timeout) => "timeout",
        Err(ServeError::QueueFull) => "queue_full",
        Err(ServeError::Shutdown) => "shutdown",
        Err(ServeError::Invalid(_)) => "invalid",
        Err(ServeError::Wire(_)) => "wire",
        Err(ServeError::Transport(_)) => "transport",
        Err(_) => "error",
    }
}

/// Builds one traced request's span tree on the shard worker's stack.
pub(crate) struct RequestTracer {
    b: TraceBuilder,
    root: u64,
    tenant: u64,
    kind: &'static str,
    started_ns: u64,
    /// The decision outcome, stashed so the audit step can inspect the
    /// provenance/verdict after `kind` has been consumed.
    pub(crate) outcome: Option<HypothesisOutcome>,
    exact: bool,
    audit_mismatch: bool,
}

impl RequestTracer {
    /// Opens the `request` root (parented under the wire-propagated
    /// caller span) and its `queue` child covering admission → now.
    pub(crate) fn begin(
        ctx: TraceContext,
        tenant: u64,
        kind: &'static str,
        shard: usize,
        enqueued_ns: u64,
    ) -> Self {
        let mut b = TraceBuilder::new(ctx);
        let now = monotonic_ns();
        let admitted = enqueued_ns.min(now);
        let root = b.start_at("request", ctx.parent_span, admitted);
        b.attr(root, "tenant", AttrValue::U64(tenant));
        b.attr(root, "kind", AttrValue::Str(kind.into()));
        b.attr(root, "shard", AttrValue::U64(shard as u64));
        let queue = b.start_at("queue", root, admitted);
        b.end_at(queue, now);
        Self {
            b,
            root,
            tenant,
            kind,
            started_ns: admitted,
            outcome: None,
            exact: false,
            audit_mismatch: false,
        }
    }

    /// The id this trace is recorded (and echoed) under.
    pub(crate) fn trace_id(&self) -> u64 {
        self.b.trace_id()
    }

    /// Synthesizes the `compile` span from the session's monotonic
    /// plan-compile counter delta. Compilation happens at the front of
    /// the execution phase (the executor is built before sampling), so
    /// the span is anchored at the phase start. No span on a warm cache.
    pub(crate) fn compile(&mut self, work_start_ns: u64, compile_ns: u64) {
        if compile_ns == 0 {
            return;
        }
        let s = self.b.start_at("compile", self.root, work_start_ns);
        self.b.end_at(s, work_start_ns.saturating_add(compile_ns));
    }

    /// Records the `decide` span of an evaluate/pr request: dispatch
    /// backend, outcome attributes, and the SPRT trajectory as
    /// `sprt_batch` events. Batch *order and content* come verbatim from
    /// the [`DecisionTrace`] the stopping rule emitted; batch
    /// *timestamps* are interpolated evenly across the measured SPRT
    /// wall time (the trace records no per-batch clock).
    pub(crate) fn decide(
        &mut self,
        started_ns: u64,
        dispatch: Option<Dispatch>,
        trace: Option<&DecisionTrace>,
        outcome: Option<&HypothesisOutcome>,
    ) {
        let s = self.b.start_at("decide", self.root, started_ns);
        if let Some(d) = dispatch {
            self.b
                .attr(s, "dispatch", AttrValue::Str(d.as_str().into()));
        }
        if let Some(o) = outcome {
            self.outcome = Some(*o);
            self.exact |= o.provenance.is_exact();
            self.b.attr(s, "samples", AttrValue::U64(o.samples as u64));
            self.b.attr(s, "estimate", AttrValue::F64(o.estimate));
            self.b.attr(s, "accepted", AttrValue::Bool(o.accepted));
            self.b.attr(s, "conclusive", AttrValue::Bool(o.conclusive));
        }
        let end_ns = monotonic_ns().max(started_ns);
        if let Some(t) = trace {
            self.b
                .attr(s, "stopping", AttrValue::Str(t.stopping.as_str().into()));
            let total = t.batches.len();
            let span_ns = end_ns - started_ns;
            for (i, p) in t.batches.iter().take(MAX_BATCH_EVENTS).enumerate() {
                let at_ns =
                    started_ns + span_ns.saturating_mul(i as u64 + 1) / (total.max(1) as u64);
                self.b.event(
                    s,
                    SpanEvent {
                        name: "sprt_batch",
                        at_ns,
                        attrs: vec![
                            ("samples", AttrValue::U64(p.samples as u64)),
                            ("successes", AttrValue::U64(p.successes)),
                            ("llr", AttrValue::F64(p.llr)),
                        ],
                    },
                );
            }
            if total > MAX_BATCH_EVENTS {
                self.b.attr(
                    s,
                    "batches_dropped",
                    AttrValue::U64((total - MAX_BATCH_EVENTS) as u64),
                );
            }
        }
        self.b.end_at(s, end_ns);
    }

    /// Records the `exact` span of an `e`/`stats` request answered by
    /// the analytic backend with zero samples.
    pub(crate) fn exact(&mut self, started_ns: u64) {
        self.exact = true;
        let s = self.b.start_at("exact", self.root, started_ns);
        self.b.end(s);
    }

    /// Records one `sample_chunk` span of the chunked `e`/`stats` path.
    pub(crate) fn chunk(&mut self, started_ns: u64, index: u64, samples: u64) {
        let s = self.b.start_at("sample_chunk", self.root, started_ns);
        self.b.attr(s, "chunk", AttrValue::U64(index));
        self.b.attr(s, "samples", AttrValue::U64(samples));
        self.b.end(s);
    }

    /// Records the `audit` span: an exact verdict was re-decided by a
    /// shadow sampling session. A conclusive disagreement marks the
    /// whole trace `audit_mismatch`, which the flight recorder always
    /// retains.
    pub(crate) fn audit(&mut self, started_ns: u64, shadow: &HypothesisOutcome, mismatch: bool) {
        self.audit_mismatch |= mismatch;
        let s = self.b.start_at("audit", self.root, started_ns);
        self.b
            .attr(s, "shadow_accepted", AttrValue::Bool(shadow.accepted));
        self.b
            .attr(s, "shadow_conclusive", AttrValue::Bool(shadow.conclusive));
        self.b
            .attr(s, "shadow_samples", AttrValue::U64(shadow.samples as u64));
        self.b.attr(s, "mismatch", AttrValue::Bool(mismatch));
        self.b.end(s);
    }

    /// Closes the root span and packages the finished [`RequestTrace`]
    /// for the flight recorder.
    pub(crate) fn finish(mut self, result: &Result<Response, ServeError>) -> RequestTrace {
        let status = status_of(result);
        self.b
            .attr(self.root, "status", AttrValue::Str(status.into()));
        self.b.end(self.root);
        let mut out = RequestTrace::new(self.b.trace_id(), self.tenant, self.kind);
        out.status = status;
        out.error = result.is_err();
        out.exact = self.exact;
        out.audit_mismatch = self.audit_mismatch;
        out.started_ns = self.started_ns;
        let spans = self.b.finish();
        out.total_ns = spans
            .first()
            .map(|root| root.end_ns.saturating_sub(root.start_ns))
            .unwrap_or(0);
        out.spans = spans;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_builds_a_connected_tree() {
        let ctx = TraceContext::root();
        let t0 = monotonic_ns();
        let mut tr = RequestTracer::begin(ctx.child(5), 42, "evaluate", 1, t0);
        tr.compile(t0, 1_000);
        tr.decide(t0, Some(Dispatch::Kernel), None, None);
        let trace = tr.finish(&Ok(Response::Decision(true)));
        assert_eq!(trace.trace_id, ctx.trace_id);
        assert_eq!(trace.tenant, 42);
        assert_eq!(trace.status, "ok");
        assert!(!trace.error);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["request", "queue", "compile", "decide"]);
        // The root nests under the wire parent; everything else under it.
        assert_eq!(trace.spans[0].parent, 5);
        for s in &trace.spans[1..] {
            assert_eq!(s.parent, trace.spans[0].id);
        }
    }

    #[test]
    fn errors_and_status_strings_are_recorded() {
        let tr = RequestTracer::begin(TraceContext::root(), 1, "e", 0, 0);
        let trace = tr.finish(&Err(ServeError::Timeout));
        assert_eq!(trace.status, "timeout");
        assert!(trace.error);
        assert_eq!(status_of(&Err(ServeError::QueueFull)), "queue_full");
        assert_eq!(status_of(&Ok(Response::Mean(0.0))), "ok");
    }

    #[test]
    fn batch_events_are_capped_not_unbounded() {
        use uncertain_core::{StoppingReason, TracePoint};
        let batches: Vec<TracePoint> = (1..=500)
            .map(|i| TracePoint {
                samples: i * 64,
                successes: (i * 32) as u64,
                llr: 0.0,
            })
            .collect();
        let dtrace = DecisionTrace {
            root: uncertain_core::Uncertain::bernoulli(0.5).unwrap().id(),
            threshold: 0.5,
            upper: 1.0,
            lower: -1.0,
            batches,
            samples: 32_000,
            successes: 16_000,
            estimate: 0.5,
            stopping: StoppingReason::BudgetCapped,
            elapsed: std::time::Duration::from_millis(1),
        };
        let mut tr = RequestTracer::begin(TraceContext::root(), 1, "pr", 0, 0);
        tr.decide(monotonic_ns(), Some(Dispatch::Closure), Some(&dtrace), None);
        let trace = tr.finish(&Ok(Response::Decision(false)));
        let decide = trace.spans.iter().find(|s| s.name == "decide").unwrap();
        assert_eq!(decide.events.len(), MAX_BATCH_EVENTS);
        assert!(decide
            .attrs
            .iter()
            .any(|(k, v)| *k == "batches_dropped" && *v == AttrValue::U64(372)));
    }
}
