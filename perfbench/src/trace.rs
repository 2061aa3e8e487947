//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the reconciled per-layer ledger built from them.
//!
//! A span has a name, a start, an end, a parent span and the id of the
//! request it belongs to. Most spans time a call as it happens; a few are
//! *shadows*: the same work re-run on the same input outside the request
//! (an in-process replay of a TCP request, a `Session` replay of a served
//! decision) and attached under the request span whose interval contains
//! that work. Nesting is therefore logical, not by clock interval, and a
//! span's self time is its duration minus the summed durations of its
//! direct children (the children of one span are sequential calls, so
//! they never overlap). A negative self time means the shadow children
//! cost more than the measured parent; the ledger keeps the sign.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; `parent == 0` marks a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> i64 {
        self.end_ns as i64 - self.start_ns as i64
    }
}

/// A span buffer with a common clock origin.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its id (ids start at 1).
    pub fn span(&mut self, req: u64, parent: u32, name: &'static str, start: u64, end: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end.max(start),
        });
        id
    }

    /// Sets the end of a span recorded before its children.
    pub fn close(&mut self, id: u32, end: u64) {
        let s = &mut self.spans[id as usize - 1];
        s.end_ns = end.max(s.start_ns);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, at most `limit` of them.
    pub fn to_json_lines(&self, limit: usize) -> String {
        let mut out = String::new();
        for s in self.spans.iter().take(limit) {
            let _ = writeln!(
                out,
                "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span, indexed like the span slice.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != 0 {
            own[s.parent as usize - 1] -= s.dur();
        }
    }
    own
}

/// One ledger row: a span name's summed self time under the roots.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub count: u64,
    pub self_ns: i64,
}

/// The reconciled ledger of every tree rooted at a span named `root`:
/// per-name self time of the descendants, the roots' summed duration, and
/// the unattributed share `1 − Σ layer self time ÷ end-to-end time`. The
/// roots' own self time is unattributed, and so is that of the `residual`
/// spans: containers whose inside the benchmark cannot split from outside
/// (a TCP round trip beyond its shadowed parts).
pub struct Ledger {
    pub rows: Vec<Row>,
    pub roots: u64,
    pub total_ns: i64,
    pub unattributed_frac: f64,
}

/// Only roots whose request `keep` accepts enter the ledger.
pub fn ledger(spans: &[Span], root: &str, residual: &[&str], keep: impl Fn(u64) -> bool) -> Ledger {
    let own = self_times(spans);
    // Which root each span descends from (spans are recorded after their
    // parents' ids exist, but may be appended later; resolve iteratively).
    let mut root_of = vec![0u32; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let mut cur = s;
        while cur.parent != 0 {
            cur = &spans[cur.parent as usize - 1];
        }
        root_of[i] = if cur.name == root && keep(cur.req) {
            cur.id
        } else {
            0
        };
    }
    let mut rows: Vec<Row> = Vec::new();
    let (mut roots, mut total, mut root_self) = (0u64, 0i64, 0i64);
    for (i, s) in spans.iter().enumerate() {
        if root_of[i] == 0 {
            continue;
        }
        if s.parent == 0 {
            roots += 1;
            total += s.dur();
            root_self += own[i];
            continue;
        }
        if residual.contains(&s.name) {
            root_self += own[i];
        }
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.count += 1;
                r.self_ns += own[i];
            }
            None => rows.push(Row {
                name: s.name,
                count: 1,
                self_ns: own[i],
            }),
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
    Ledger {
        rows,
        roots,
        total_ns: total,
        unattributed_frac: if total > 0 {
            root_self as f64 / total as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(Instant::now());
        let root = t.span(1, 0, "query", 0, 100);
        let rtt = t.span(1, root, "net.rtt", 10, 90);
        t.span(1, rtt, "service.inproc", 0, 50);
        t.span(1, root, "wire.frame_encode", 0, 10);
        let own = self_times(t.spans());
        assert_eq!(own, vec![10, 30, 50, 10]);

        let l = ledger(t.spans(), "query", &[], |_| true);
        assert_eq!(l.roots, 1);
        assert_eq!(l.total_ns, 100);
        assert!((l.unattributed_frac - 0.10).abs() < 1e-12);
        let with_residual = ledger(t.spans(), "query", &["net.rtt"], |_| true);
        assert!((with_residual.unattributed_frac - 0.40).abs() < 1e-12);
        let sum: i64 = l.rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(sum, 90, "layer self times plus the residual reconcile");
        assert_eq!(l.rows[0].name, "service.inproc");
    }

    #[test]
    fn ledger_ignores_other_roots() {
        let mut t = Tracer::new(Instant::now());
        t.span(1, 0, "app.build", 0, 5);
        let q = t.span(1, 0, "query", 5, 25);
        t.span(1, q, "net.rtt", 5, 25);
        let l = ledger(t.spans(), "query", &[], |_| true);
        assert_eq!(l.roots, 1);
        assert_eq!(l.rows.len(), 1);
        assert_eq!(l.unattributed_frac, 0.0);
        assert_eq!(ledger(t.spans(), "query", &[], |req| req != 1).roots, 0);
    }
}
