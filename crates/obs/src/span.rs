//! Request-scoped tracing spans: [`TraceContext`], [`Span`], and the
//! per-request [`TraceBuilder`].
//!
//! A *trace* is one tree of spans describing everything that happened to
//! a single request: admission, queue wait, plan compile, and the
//! decision or sampling that answered it. The context that names
//! the tree — trace id, parent span id, sampling flag — is 17 bytes and
//! travels with the request across threads and across the wire (see the
//! serve crate's frame codec), so a `TcpTransport` client and the shard
//! that answered it agree on the same ids.
//!
//! Design constraints inherited from the rest of the runtime:
//!
//! * **Monotonic clocks only.** All timestamps are nanoseconds since a
//!   process-local epoch ([`monotonic_ns`]), immune to wall-clock steps.
//!   Timestamps are comparable within a process, not across machines.
//! * **Lock-light.** A [`TraceBuilder`] is a plain `Vec` of spans owned
//!   by the worker thread handling the request — building a trace takes
//!   no locks at all; the single synchronized step is handing the
//!   finished trace to the flight recorder.
//! * **Zero-cost when dormant.** Nothing here runs unless a request
//!   carries a sampled [`TraceContext`]; untraced requests pay one
//!   `Option` check.
//!
//! # Examples
//!
//! ```
//! use uncertain_obs::{AttrValue, TraceBuilder, TraceContext};
//!
//! let ctx = TraceContext::root();
//! let mut b = TraceBuilder::new(ctx);
//! let root = b.start("request", 0);
//! b.attr(root, "tenant", AttrValue::U64(7));
//! let child = b.start("compile", root);
//! b.end(child);
//! b.end(root);
//! let spans = b.finish();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[1].parent, spans[0].id);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mix used to turn
/// a counter into well-spread trace ids.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nanoseconds since a process-local monotonic epoch (the first call in
/// this process). Steady under wall-clock adjustments; all span
/// timestamps use this clock.
#[inline]
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// The identity a request's trace carries across threads and the wire:
/// which tree this is (`trace_id`), where in the tree the next span
/// hangs (`parent_span`), and whether anyone is recording (`sampled`).
///
/// `sampled == false` contexts still propagate their ids (so a reply can
/// echo them) but produce no spans anywhere — the dormant path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace (tree) identifier, nonzero for real traces.
    pub trace_id: u64,
    /// The span id in the caller under which callee spans nest; `0`
    /// means "root" (the callee's top span becomes the tree root).
    pub parent_span: u64,
    /// Whether spans should actually be recorded for this request.
    pub sampled: bool,
}

impl TraceContext {
    /// A fresh root context with a new process-unique trace id, no
    /// parent span, and sampling on.
    ///
    /// Ids come from an atomic counter seeded with wall-clock entropy
    /// and passed through a SplitMix64 finalizer, so concurrent clients
    /// in one process never collide and two processes are unlikely to.
    pub fn root() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            mix64(now ^ (std::process::id() as u64) << 32)
        });
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let mut id = mix64(seed ^ n);
        if id == 0 {
            id = 1; // reserve 0 for "no trace"
        }
        Self {
            trace_id: id,
            parent_span: 0,
            sampled: true,
        }
    }

    /// The same trace, re-rooted under `parent_span` — what a caller
    /// passes downstream so the callee's spans nest under its own.
    pub fn child(&self, parent_span: u64) -> Self {
        Self {
            parent_span,
            ..*self
        }
    }
}

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer (ids, counts, nanoseconds).
    U64(u64),
    /// A floating-point number (estimates, ratios).
    F64(f64),
    /// A boolean flag.
    Bool(bool),
    /// A short string (names, reasons).
    Str(String),
}

/// One timed operation in a trace: a named interval with a parent link
/// and typed attributes.
///
/// Span ids are allocated sequentially per trace by [`TraceBuilder`]
/// (root = 1), so a finished trace's tree structure can be checked by id
/// arithmetic alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id, unique within its trace.
    pub id: u64,
    /// The id of the enclosing span, or `0` for the tree root.
    pub parent: u64,
    /// Static span name (`"request"`, `"queue"`, `"compile"`, …).
    pub name: &'static str,
    /// Start, [`monotonic_ns`] clock.
    pub start_ns: u64,
    /// End, [`monotonic_ns`] clock; `>= start_ns` once finished.
    pub end_ns: u64,
    /// Typed attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// The span's duration in nanoseconds (0 while unfinished).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects the spans of one request on the thread doing the work.
///
/// Not `Sync` and never shared: each request gets its own builder, so
/// recording a span is a `Vec` push with no synchronization. Call
/// [`finish`](Self::finish) to take the spans (unfinished ones are
/// closed at the current instant).
#[derive(Debug)]
pub struct TraceBuilder {
    ctx: TraceContext,
    spans: Vec<Span>,
    next_id: u64,
}

impl TraceBuilder {
    /// A builder for one request's trace.
    pub fn new(ctx: TraceContext) -> Self {
        Self {
            ctx,
            spans: Vec::with_capacity(8),
            next_id: 1,
        }
    }

    /// The trace id spans are being recorded under.
    pub fn trace_id(&self) -> u64 {
        self.ctx.trace_id
    }

    /// The wire-propagated parent span id this trace nests under.
    pub fn wire_parent(&self) -> u64 {
        self.ctx.parent_span
    }

    /// Starts a span now. `parent = 0` makes it a tree root. Returns the
    /// new span's id.
    pub fn start(&mut self, name: &'static str, parent: u64) -> u64 {
        self.start_at(name, parent, monotonic_ns())
    }

    /// Starts a span with an explicit start timestamp (for intervals
    /// that began before the builder existed, like queue wait).
    pub fn start_at(&mut self, name: &'static str, parent: u64, start_ns: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: 0,
            attrs: Vec::new(),
        });
        id
    }

    /// Ends span `id` now.
    pub fn end(&mut self, id: u64) {
        self.end_at(id, monotonic_ns());
    }

    /// Ends span `id` at an explicit timestamp.
    pub fn end_at(&mut self, id: u64, end_ns: u64) {
        if let Some(s) = self.get_mut(id) {
            s.end_ns = end_ns.max(s.start_ns);
        }
    }

    /// Attaches an attribute to span `id`.
    pub fn attr(&mut self, id: u64, key: &'static str, value: AttrValue) {
        if let Some(s) = self.get_mut(id) {
            s.attrs.push((key, value));
        }
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Span> {
        // Ids are allocated sequentially from 1 in push order.
        self.spans.get_mut((id as usize).wrapping_sub(1))
    }

    /// Takes the spans, closing any still-open ones at the current
    /// instant.
    pub fn finish(mut self) -> Vec<Span> {
        let now = monotonic_ns();
        for s in &mut self.spans {
            if s.end_ns == 0 {
                s.end_ns = now.max(s.start_ns);
            }
        }
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_contexts_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let c = TraceContext::root();
            assert_ne!(c.trace_id, 0);
            assert_eq!(c.parent_span, 0);
            assert!(c.sampled);
            assert!(seen.insert(c.trace_id), "duplicate trace id");
        }
    }

    #[test]
    fn child_rebases_parent_only() {
        let c = TraceContext::root();
        let k = c.child(42);
        assert_eq!(k.trace_id, c.trace_id);
        assert_eq!(k.parent_span, 42);
        assert_eq!(k.sampled, c.sampled);
    }

    #[test]
    fn monotonic_ns_never_goes_backwards() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }

    #[test]
    fn builder_links_and_finishes_spans() {
        let mut b = TraceBuilder::new(TraceContext::root());
        let root = b.start("request", 0);
        let child = b.start_at("queue", root, 5);
        b.end_at(child, 9);
        b.attr(root, "tenant", AttrValue::U64(3));
        let spans = b.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 1);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, 1);
        assert_eq!(spans[1].duration_ns(), 4);
        assert!(spans[0].end_ns >= spans[0].start_ns, "root auto-closed");
        assert_eq!(spans[0].attrs, vec![("tenant", AttrValue::U64(3))]);
    }

    #[test]
    fn end_clamps_to_start() {
        let mut b = TraceBuilder::new(TraceContext::root());
        let s = b.start_at("x", 0, 100);
        b.end_at(s, 50);
        assert_eq!(b.finish()[0].duration_ns(), 0);
    }
}
