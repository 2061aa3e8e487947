//! Server-side span assembly for traced requests.
//!
//! A [`RequestTracer`] rides the shard worker's stack for the lifetime
//! of one sampled request, and the request functions never see it.
//! Before execution it installs a [`TraceLog`] on the session and notes
//! the counters the session keeps anyway (`plan_build_ns`,
//! `joint_samples`, `exact_hits`); after, it turns their deltas into
//! spans and keeps the SPRT's own [`DecisionTrace`] as the request's
//! `decision`, the record a `TraceLog` reader sees in-process:
//!
//! ```text
//! request          admission → reply; tenant/kind/shard/status
//! ├─ queue         admission → dequeue
//! ├─ compile       from the start of execution, as long as the
//! │                plan_build_ns delta (omitted on a warm cache)
//! ├─ decide        evaluate: from the end of compile to the result;
//! │                samples, exact, dispatch, estimate/accepted/conclusive
//! ├─ sample        e/stats: the same span without dispatch or outcome
//! └─ audit         shadow-sample check of an exact verdict
//! decision         the sampled decision's record, or none
//! ```
//!
//! `samples` is the `joint_samples` delta, so a request that timed out
//! reports the batches or chunks it completed, and `exact` says whether
//! the analytic backend answered. The tracer is plain owned data —
//! building spans takes no locks; the one synchronized step is
//! `FlightRecorder::offer` at the end. Nothing in this module runs for
//! untraced requests.

use uncertain_core::{DecisionTrace, HypothesisOutcome, ServeError, Session};
use uncertain_obs::{monotonic_ns, AttrValue, RequestTrace, TraceBuilder, TraceContext, TraceLog};

use crate::transport::{RequestKind, Response};

/// The stable span-attribute name of a request kind.
pub(crate) fn kind_name(kind: &RequestKind) -> &'static str {
    match kind {
        RequestKind::Evaluate { .. } => "evaluate",
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

/// When a traced request began executing, and the session's counters
/// then.
#[derive(Default)]
struct Before {
    at_ns: u64,
    plan_build_ns: u64,
    joint_samples: u64,
    exact_hits: u64,
}

/// Builds one traced request's span tree on the shard worker's stack.
pub(crate) struct RequestTracer {
    b: TraceBuilder,
    root: u64,
    tenant: u64,
    kind: &'static str,
    started_ns: u64,
    before: Before,
    log: TraceLog,
    decision: Option<DecisionTrace>,
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
            before: Before::default(),
            log: TraceLog::new(),
            decision: None,
            exact: false,
            audit_mismatch: false,
        }
    }

    /// The id this trace is recorded (and echoed) under.
    pub(crate) fn trace_id(&self) -> u64 {
        self.b.trace_id()
    }

    /// Called just before the request executes: installs the trace log
    /// and notes the session's counters. A recorder never perturbs the
    /// sample stream (the runtime draws the same batches with or without
    /// one), so the request computes bitwise what it would untraced. No
    /// other recorder can be present: the shard builds its session
    /// without one, and [`RequestTracer::executed`] (or `process`, after
    /// a panic) takes this one back.
    pub(crate) fn executing(&mut self, session: &mut Session) {
        session.install_recorder(Box::new(self.log.clone()));
        self.before = Before {
            at_ns: monotonic_ns(),
            plan_build_ns: session.plan_build_ns(),
            joint_samples: session.joint_samples(),
            exact_hits: session.exact_hits(),
        };
    }

    /// Called once the request has executed: records the `compile` span
    /// and the `decide` or `sample` span from the session's counter
    /// deltas, then takes the log off the session and keeps its record.
    pub(crate) fn executed(
        &mut self,
        session: &mut Session,
        result: &Result<Response, ServeError>,
    ) {
        let end_ns = monotonic_ns();
        let compile_ns = session.plan_build_ns() - self.before.plan_build_ns;
        let compiled_ns = self.before.at_ns.saturating_add(compile_ns).min(end_ns);
        if compile_ns > 0 {
            let s = self.b.start_at("compile", self.root, self.before.at_ns);
            self.b.end_at(s, compiled_ns);
        }
        let decides = self.kind == "evaluate";
        let s = self.b.start_at(
            if decides { "decide" } else { "sample" },
            self.root,
            compiled_ns,
        );
        let samples = session.joint_samples() - self.before.joint_samples;
        self.b.attr(s, "samples", AttrValue::U64(samples));
        self.exact = session.exact_hits() != self.before.exact_hits;
        self.b.attr(s, "exact", AttrValue::Bool(self.exact));
        // A decision that failed validation never dispatched; the session
        // still names the backend of an earlier one.
        if decides && !matches!(result, Err(ServeError::Invalid(_))) {
            if let Some(d) = session.last_dispatch() {
                self.b
                    .attr(s, "dispatch", AttrValue::Str(d.as_str().into()));
            }
        }
        if let Ok(Response::Outcome(o)) = result {
            self.b.attr(s, "estimate", AttrValue::F64(o.estimate));
            self.b.attr(s, "accepted", AttrValue::Bool(o.accepted));
            self.b.attr(s, "conclusive", AttrValue::Bool(o.conclusive));
        }
        self.b.end_at(s, end_ns);
        session.take_recorder();
        self.decision = self.log.take().pop();
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
        out.decision = self.decision;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncertain_core::Uncertain;

    #[test]
    fn taxonomy_builds_a_connected_tree() {
        let ctx = TraceContext::root();
        let mut session = Session::seeded(7);
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let cond = (&x + &x).gt(0.3);
        let mut tr = RequestTracer::begin(ctx.child(5), 42, "evaluate", 1, monotonic_ns());
        tr.executing(&mut session);
        let outcome = session.evaluate(&cond, 0.5);
        let result = Ok(Response::Outcome(outcome));
        tr.executed(&mut session, &result);
        assert!(session.take_recorder().is_none(), "the log came back off");
        let trace = tr.finish(&result);
        assert_eq!(trace.trace_id, ctx.trace_id);
        assert_eq!(trace.tenant, 42);
        assert_eq!(trace.status, "ok");
        assert!(!trace.error && !trace.exact);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["request", "queue", "compile", "decide"]);
        assert_eq!(trace.spans[3].start_ns, trace.spans[2].end_ns);
        assert!(trace.spans[3]
            .attrs
            .contains(&("samples", AttrValue::U64(outcome.samples as u64))));
        let decision = trace.decision.expect("a sampled decision keeps its record");
        assert_eq!(decision.samples, outcome.samples);
        assert_eq!(decision.root, cond.id());
        // The root nests under the wire parent; everything else under it.
        assert_eq!(trace.spans[0].parent, 5);
        for s in &trace.spans[1..] {
            assert_eq!(s.parent, trace.spans[0].id);
        }

        // A decision that fails validation draws nothing, and its span
        // names no backend although the session still holds the last one.
        let mut tr = RequestTracer::begin(ctx, 42, "evaluate", 1, monotonic_ns());
        tr.executing(&mut session);
        let config = *session.config();
        let err = session.try_evaluate_until(&cond, 1.5, &config, |_| true);
        assert!(err.is_err() && session.last_dispatch().is_some());
        let result = Err(ServeError::Invalid(uncertain_stats::StatsError::new("θ")));
        tr.executed(&mut session, &result);
        let trace = tr.finish(&result);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["request", "queue", "decide"]);
        assert_eq!(
            trace.spans[2].attrs,
            vec![
                ("samples", AttrValue::U64(0)),
                ("exact", AttrValue::Bool(false))
            ]
        );
        assert!(trace.decision.is_none());
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
}
