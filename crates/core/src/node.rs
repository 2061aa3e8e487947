//! The Bayesian-network node graph behind `Uncertain<T>`.
//!
//! Every `Uncertain<T>` wraps an `Arc` of a node in a directed acyclic
//! graph. Leaf nodes hold sampling functions; inner nodes hold the lifted
//! operator that combines their children (paper §3.3). The graph is built
//! incrementally and lazily as the program computes; it is only *executed*
//! — by ancestral sampling in topological order — when a conditional or
//! evaluation operator demands samples (§4.2).
//!
//! Each node carries a process-unique [`NodeId`]. During one joint sample,
//! the [`SampleContext`] memoizes every node's value by id, which is what
//! makes two references to the same variable perfectly correlated (the
//! paper's SSA-style shared-dependence analysis, Fig. 8) and guarantees
//! each node is computed exactly once per joint sample.

use crate::context::SampleContext;
use crate::kernel::{Map2Tag, MapTag, Opaque};
use crate::uncertain::{Uncertain, Value};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uncertain_dist::DistSpec;

/// A process-unique identifier for a node in the Bayesian network.
///
/// Identity — not structure — defines sharing: the same `NodeId` appearing
/// twice in a network means the *same* random variable, sampled once per
/// joint sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u64);

static NEXT_NODE_ID: AtomicU64 = AtomicU64::new(0);

impl NodeId {
    /// Allocates a fresh id (process-wide monotonic).
    pub(crate) fn fresh() -> Self {
        NodeId(NEXT_NODE_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw numeric id.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A hash map keyed by [`NodeId`], hashed by [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<NodeId, V, BuildHasherDefault<IdHasher>>;

/// A plain multiplicative hasher for [`NodeId`]s (one multiply). Ids come
/// from a process-wide counter, never off the wire, so SipHash's
/// resistance to chosen keys buys nothing here, at several times the cost
/// per key. Keys that carry outside data (a decoded graph's constants)
/// keep the standard hasher.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A node's children, left to right, borrowed from it. No node kind has
/// more than two (the operands of a binary lift), so listing them neither
/// allocates nor touches a reference count.
pub(crate) type Children<'a> = [Option<&'a dyn NodeInfo>; 2];

/// What a node is: the one vocabulary that kernel lowering, the wire
/// encoder and the exact backend all read ([`NodeInfo::op`]).
///
/// A tag is only reported over the types it names, so every reader can
/// trust that a `Map(MapTag::F64(_))` maps `f64` to `f64`, a `Cmp` reads
/// two `f64`s, and so on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// A leaf, with the closed-form description of its distribution when
    /// it has one (which is what makes it wire-expressible and analytic).
    Leaf(Option<DistSpec>),
    /// A point mass over `f64`.
    PointF64(f64),
    /// A point mass over `bool`.
    PointBool(bool),
    /// A tagged unary lift.
    Map(MapTag),
    /// A tagged binary lift.
    Map2(Map2Tag),
    /// What only the kernel can run, through the node's own code: a point
    /// mass of another type, or an untagged lift of one or two operands.
    Opaque,
}

/// Type-erased view of a node: identity, display label, children, and
/// what it is.
///
/// This is the surface the graph walks ([`crate::graph::post_order`])
/// see; it knows nothing about the value type.
pub(crate) trait NodeInfo: Send + Sync {
    /// This node's unique id.
    fn id(&self) -> NodeId;
    /// A short human-readable label (operator symbol or leaf description).
    fn label(&self) -> String;
    /// The nodes this node depends on (its parents in Bayesian-network
    /// terminology; children of the expression tree), left to right.
    fn children(&self) -> Children<'_>;

    /// What this node is, or `None` for the kinds whose sampling needs
    /// `SampleContext` machinery (bind, encapsulation, priors,
    /// conditioning): such a node neither lowers to a tape, nor crosses
    /// the wire, nor has a closed form, so each walk that reads `op`
    /// stops at the first one.
    fn op(&self) -> Option<Op> {
        None
    }

    /// Child `k` as the kernel's pointer to it, when that child is a node
    /// an instruction can point at (see [`TypedNode::as_opaque`]).
    fn child_opaque(&self, k: usize) -> Option<Arc<dyn Opaque>> {
        let _ = k;
        None
    }
}

/// Whether `X` is `Y`: how a lift checks that its tag names its own
/// operand and value types.
fn same<X: 'static, Y: 'static>() -> bool {
    TypeId::of::<X>() == TypeId::of::<Y>()
}

/// A node that produces values of type `T`.
pub(crate) trait TypedNode<T>: NodeInfo {
    /// Draws this node's value within the given joint-sample context,
    /// memoizing by node id so shared nodes are computed exactly once.
    fn sample_value(&self, ctx: &mut SampleContext) -> T;

    /// This node as a pointer a tape instruction can keep: a leaf's
    /// sampler, a point mass, or a lifted closure. `None` for the kinds
    /// that never lower.
    fn as_opaque(self: Arc<Self>) -> Option<Arc<dyn Opaque>> {
        None
    }
}

pub(crate) type DynNode<T> = Arc<dyn TypedNode<T>>;

// ---------------------------------------------------------------------------
// Leaf: a known distribution provided as a sampling function.
// ---------------------------------------------------------------------------

/// A boxed raw sampling function (the paper's leaf representation).
type BoxedSamplingFn<T> = Box<dyn Fn(&mut dyn rand::RngCore) -> T + Send + Sync>;

/// A boxed *column* fill: one value per RNG, bitwise-identical to calling
/// the scalar sampling function once per index (the
/// `Distribution::fill_column` contract from `uncertain-dist`).
type BoxedFillFn<T> = Box<dyn Fn(&mut [rand::rngs::SmallRng], &mut Vec<T>) + Send + Sync>;

/// Leaf node: a sampling function over the raw RNG, optionally tagged
/// with a vectorized column fill for the batch kernel.
pub(crate) struct LeafNode<T> {
    id: NodeId,
    label: String,
    sample_fn: BoxedSamplingFn<T>,
    fill_fn: Option<BoxedFillFn<T>>,
    /// The closed-form description of the leaf's distribution, when it
    /// has one — what makes the leaf wire-expressible. Carried from
    /// `Distribution::spec()` by `Uncertain::from_distribution`.
    spec: Option<DistSpec>,
}

impl<T> LeafNode<T> {
    pub(crate) fn new(
        label: impl Into<String>,
        sample_fn: impl Fn(&mut dyn rand::RngCore) -> T + Send + Sync + 'static,
    ) -> Self {
        Self {
            id: NodeId::fresh(),
            label: label.into(),
            sample_fn: Box::new(sample_fn),
            fill_fn: None,
            spec: None,
        }
    }

    /// A leaf that also carries a batched column fill — the kernel tag
    /// `Uncertain::from_distribution` attaches. `fill_fn` **must** be
    /// bitwise-equivalent to one `sample_fn` call per index (each index
    /// consuming only its own RNG, in scalar call order); the columnar
    /// kernel relies on this to stay sample-for-sample identical to the
    /// tree-walk.
    pub(crate) fn with_fill(
        label: impl Into<String>,
        sample_fn: impl Fn(&mut dyn rand::RngCore) -> T + Send + Sync + 'static,
        fill_fn: impl Fn(&mut [rand::rngs::SmallRng], &mut Vec<T>) + Send + Sync + 'static,
        spec: Option<DistSpec>,
    ) -> Self {
        Self {
            id: NodeId::fresh(),
            label: label.into(),
            sample_fn: Box::new(sample_fn),
            fill_fn: Some(Box::new(fill_fn)),
            spec,
        }
    }

    /// Draws one value straight from the sampling function — the kernel's
    /// per-row leaf fill, which does its own per-sample memoization by
    /// lowering each `NodeId` exactly once.
    pub(crate) fn sample_raw(&self, rng: &mut dyn rand::RngCore) -> T {
        (self.sample_fn)(rng)
    }

    /// The vectorized column fill, when this leaf carries one.
    pub(crate) fn fill_fn(&self) -> Option<&BoxedFillFn<T>> {
        self.fill_fn.as_ref()
    }
}

impl<T: Value> NodeInfo for LeafNode<T> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn label(&self) -> String {
        self.label.clone()
    }
    fn children(&self) -> Children<'_> {
        [None, None]
    }
    fn op(&self) -> Option<Op> {
        Some(Op::Leaf(self.spec))
    }
}

impl<T: Value> TypedNode<T> for LeafNode<T> {
    fn sample_value(&self, ctx: &mut SampleContext) -> T {
        ctx.memoized(self.id, |ctx| (self.sample_fn)(ctx.rng()))
    }
    fn as_opaque(self: Arc<Self>) -> Option<Arc<dyn Opaque>> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Point mass: a constant lifted into the network.
// ---------------------------------------------------------------------------

/// Point-mass node: the paper's `Pointmass :: T → U<T>` coercion.
pub(crate) struct PointNode<T> {
    id: NodeId,
    value: T,
}

impl<T> PointNode<T> {
    pub(crate) fn new(value: T) -> Self {
        Self {
            id: NodeId::fresh(),
            value,
        }
    }

    /// The constant this point mass holds.
    pub(crate) fn value(&self) -> &T {
        &self.value
    }
}

impl<T: Value + fmt::Debug> NodeInfo for PointNode<T> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn label(&self) -> String {
        format!("point({:?})", self.value)
    }
    fn children(&self) -> Children<'_> {
        [None, None]
    }
    fn op(&self) -> Option<Op> {
        // `Value: 'static`, so the constant can be inspected through `Any`.
        // The two scalar types the tape and the wire hold as data are
        // data; any other type keeps its node, and only the kernel can
        // fill its column (by cloning the value).
        let v: &dyn Any = &self.value;
        Some(match (v.downcast_ref::<f64>(), v.downcast_ref::<bool>()) {
            (Some(&x), _) => Op::PointF64(x),
            (_, Some(&b)) => Op::PointBool(b),
            _ => Op::Opaque,
        })
    }
}

impl<T: Value + fmt::Debug> TypedNode<T> for PointNode<T> {
    fn sample_value(&self, _ctx: &mut SampleContext) -> T {
        self.value.clone()
    }
    fn as_opaque(self: Arc<Self>) -> Option<Arc<dyn Opaque>> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Unary lifted operator.
// ---------------------------------------------------------------------------

/// Inner node applying a pure unary function to one child.
pub(crate) struct MapNode<A, T> {
    id: NodeId,
    label: String,
    child: DynNode<A>,
    f: Box<dyn Fn(A) -> T + Send + Sync>,
    /// What the closure computes, when it is one of the known scalar
    /// operations — lets the kernel run it as a monomorphic column loop
    /// instead of a per-element closure call. `None` is always sound.
    tag: Option<MapTag>,
}

impl<A, T> MapNode<A, T> {
    pub(crate) fn new(
        label: impl Into<String>,
        child: DynNode<A>,
        f: impl Fn(A) -> T + Send + Sync + 'static,
    ) -> Self {
        Self::with_tag(label, child, f, None)
    }

    pub(crate) fn with_tag(
        label: impl Into<String>,
        child: DynNode<A>,
        f: impl Fn(A) -> T + Send + Sync + 'static,
        tag: Option<MapTag>,
    ) -> Self {
        Self {
            id: NodeId::fresh(),
            label: label.into(),
            child,
            f: Box::new(f),
            tag,
        }
    }

    /// Applies the lifted function to one already-sampled child value.
    pub(crate) fn apply(&self, a: A) -> T {
        (self.f)(a)
    }
}

impl<A: Value, T: Value> NodeInfo for MapNode<A, T> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn label(&self) -> String {
        self.label.clone()
    }
    fn children(&self) -> Children<'_> {
        [Some(&*self.child), None]
    }
    fn op(&self) -> Option<Op> {
        // The tag *is* the closure's meaning over the types it names, so a
        // tagged map is a column loop, a wire opcode and an affine step;
        // over any other types the node is its closure.
        Some(match self.tag {
            Some(tag @ MapTag::F64(_)) if same::<(A, T), (f64, f64)>() => Op::Map(tag),
            Some(tag @ MapTag::NotBool) if same::<(A, T), (bool, bool)>() => Op::Map(tag),
            _ => Op::Opaque,
        })
    }
    fn child_opaque(&self, _: usize) -> Option<Arc<dyn Opaque>> {
        self.child.clone().as_opaque()
    }
}

impl<A: Value, T: Value> TypedNode<T> for MapNode<A, T> {
    fn sample_value(&self, ctx: &mut SampleContext) -> T {
        if let Some(v) = ctx.lookup::<T>(self.id) {
            return v;
        }
        let a = self.child.sample_value(ctx);
        let v = (self.f)(a);
        ctx.store(self.id, v.clone());
        v
    }
    fn as_opaque(self: Arc<Self>) -> Option<Arc<dyn Opaque>> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Binary lifted operator.
// ---------------------------------------------------------------------------

/// Inner node applying a pure binary function to two children — the workhorse
/// behind every lifted arithmetic, comparison, and logical operator.
pub(crate) struct Map2Node<A, B, T> {
    id: NodeId,
    label: String,
    left: DynNode<A>,
    right: DynNode<B>,
    f: Box<dyn Fn(A, B) -> T + Send + Sync>,
    /// Known-operation tag for the kernel; see [`MapNode::tag`].
    tag: Option<Map2Tag>,
}

impl<A, B, T> Map2Node<A, B, T> {
    pub(crate) fn new(
        label: impl Into<String>,
        left: DynNode<A>,
        right: DynNode<B>,
        f: impl Fn(A, B) -> T + Send + Sync + 'static,
    ) -> Self {
        Self::with_tag(label, left, right, f, None)
    }

    pub(crate) fn with_tag(
        label: impl Into<String>,
        left: DynNode<A>,
        right: DynNode<B>,
        f: impl Fn(A, B) -> T + Send + Sync + 'static,
        tag: Option<Map2Tag>,
    ) -> Self {
        Self {
            id: NodeId::fresh(),
            label: label.into(),
            left,
            right,
            f: Box::new(f),
            tag,
        }
    }

    /// Applies the lifted function to already-sampled child values.
    pub(crate) fn apply(&self, a: A, b: B) -> T {
        (self.f)(a, b)
    }
}

impl<A: Value, B: Value, T: Value> NodeInfo for Map2Node<A, B, T> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn label(&self) -> String {
        self.label.clone()
    }
    fn children(&self) -> Children<'_> {
        // Left before right: the order `sample_value` draws in.
        [Some(&*self.left), Some(&*self.right)]
    }
    fn op(&self) -> Option<Op> {
        // As for `MapNode::op`: a tag is only trusted over its own types.
        Some(match self.tag {
            Some(tag @ Map2Tag::F64(_)) if same::<(A, B, T), (f64, f64, f64)>() => Op::Map2(tag),
            Some(tag @ Map2Tag::Cmp(_)) if same::<(A, B, T), (f64, f64, bool)>() => Op::Map2(tag),
            Some(tag @ Map2Tag::Bool(_)) if same::<(A, B, T), (bool, bool, bool)>() => {
                Op::Map2(tag)
            }
            _ => Op::Opaque,
        })
    }
    fn child_opaque(&self, k: usize) -> Option<Arc<dyn Opaque>> {
        if k == 0 {
            self.left.clone().as_opaque()
        } else {
            self.right.clone().as_opaque()
        }
    }
}

impl<A: Value, B: Value, T: Value> TypedNode<T> for Map2Node<A, B, T> {
    fn sample_value(&self, ctx: &mut SampleContext) -> T {
        if let Some(v) = ctx.lookup::<T>(self.id) {
            return v;
        }
        let a = self.left.sample_value(ctx);
        let b = self.right.sample_value(ctx);
        let v = (self.f)(a, b);
        ctx.store(self.id, v.clone());
        v
    }
    fn as_opaque(self: Arc<Self>) -> Option<Arc<dyn Opaque>> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Monadic bind: dependent distributions.
// ---------------------------------------------------------------------------

/// Inner node whose distribution *depends on the sampled value* of its
/// child: the conditional distribution `Pr[T | A = a]`. This is how expert
/// developers "override \[independence\] by specifying the joint distribution
/// between two variables" (paper §3.3).
pub(crate) struct BindNode<A, T> {
    id: NodeId,
    label: String,
    child: DynNode<A>,
    f: Box<dyn Fn(A) -> Uncertain<T> + Send + Sync>,
}

impl<A, T> BindNode<A, T> {
    pub(crate) fn new(
        label: impl Into<String>,
        child: DynNode<A>,
        f: impl Fn(A) -> Uncertain<T> + Send + Sync + 'static,
    ) -> Self {
        Self {
            id: NodeId::fresh(),
            label: label.into(),
            child,
            f: Box::new(f),
        }
    }
}

impl<A: Value, T: Value> NodeInfo for BindNode<A, T> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn label(&self) -> String {
        self.label.clone()
    }
    fn children(&self) -> Children<'_> {
        [Some(&*self.child), None]
    }
}

impl<A: Value, T: Value> TypedNode<T> for BindNode<A, T> {
    fn sample_value(&self, ctx: &mut SampleContext) -> T {
        if let Some(v) = ctx.lookup::<T>(self.id) {
            return v;
        }
        let a = self.child.sample_value(ctx);
        let inner = (self.f)(a);
        let v = inner.node().sample_value(ctx);
        ctx.store(self.id, v.clone());
        v
    }
}

// ---------------------------------------------------------------------------
// Encapsulation boundary: a sub-network sampled in its own context.
// ---------------------------------------------------------------------------

/// Wraps a sub-network so it is sampled in a *fresh* joint-sample context.
///
/// The wrapped variable becomes independent of every other use of the same
/// leaves — the boundary a library puts around a distribution it hands out
/// repeatedly (each `GPS.GetLocation()` call is a new reading even though
/// the library reuses one error model).
pub(crate) struct EncapsulatedNode<T> {
    id: NodeId,
    label: String,
    inner: DynNode<T>,
}

impl<T> EncapsulatedNode<T> {
    pub(crate) fn new(label: impl Into<String>, inner: DynNode<T>) -> Self {
        Self {
            id: NodeId::fresh(),
            label: label.into(),
            inner,
        }
    }
}

impl<T: Value> NodeInfo for EncapsulatedNode<T> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn label(&self) -> String {
        self.label.clone()
    }
    fn children(&self) -> Children<'_> {
        [Some(&*self.inner), None]
    }
}

impl<T: Value> TypedNode<T> for EncapsulatedNode<T> {
    fn sample_value(&self, ctx: &mut SampleContext) -> T {
        ctx.memoized(self.id, |ctx| {
            let mut sub = ctx.fork();
            self.inner.sample_value(&mut sub)
        })
    }
}

// ---------------------------------------------------------------------------
// Prior weighting: sampling–importance–resampling.
// ---------------------------------------------------------------------------

/// Applies a Bayesian prior by sampling–importance–resampling (paper §3.5):
/// per joint sample, draws `candidates` independent samples of the child
/// sub-network, weighs each by `weight`, and resamples one in proportion.
pub(crate) struct WeightedNode<T> {
    id: NodeId,
    label: String,
    inner: DynNode<T>,
    /// Weight function; interpreted as a log-weight when `log_space`.
    weight: Box<dyn Fn(&T) -> f64 + Send + Sync>,
    candidates: usize,
    /// When set, `weight` returns *log* weights and resampling normalizes
    /// by the pool maximum — immune to extreme-likelihood underflow.
    log_space: bool,
}

impl<T> WeightedNode<T> {
    pub(crate) fn new(
        label: impl Into<String>,
        inner: DynNode<T>,
        weight: impl Fn(&T) -> f64 + Send + Sync + 'static,
        candidates: usize,
    ) -> Self {
        debug_assert!(candidates > 0);
        Self {
            id: NodeId::fresh(),
            label: label.into(),
            inner,
            weight: Box::new(weight),
            candidates,
            log_space: false,
        }
    }

    pub(crate) fn new_log_space(
        label: impl Into<String>,
        inner: DynNode<T>,
        ln_weight: impl Fn(&T) -> f64 + Send + Sync + 'static,
        candidates: usize,
    ) -> Self {
        debug_assert!(candidates > 0);
        Self {
            id: NodeId::fresh(),
            label: label.into(),
            inner,
            weight: Box::new(ln_weight),
            candidates,
            log_space: true,
        }
    }
}

impl<T: Value> NodeInfo for WeightedNode<T> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn label(&self) -> String {
        self.label.clone()
    }
    fn children(&self) -> Children<'_> {
        [Some(&*self.inner), None]
    }
}

impl<T: Value> WeightedNode<T> {
    /// One sampling–importance–resampling draw: a pool of `candidates`
    /// draws, each in its own fork of this context, resampled by one draw
    /// from this context's RNG (the pool is redrawn while every weight is
    /// zero). One sub-context is reforked for every candidate.
    fn draw(&self, ctx: &mut SampleContext) -> T {
        /// If every candidate in a pool has zero weight, redraw the pool up
        /// to this many times before falling back to an unweighted draw.
        const ZERO_WEIGHT_ROUNDS: usize = 8;
        let mut pool = Vec::with_capacity(self.candidates);
        let mut weights = Vec::with_capacity(self.candidates);
        let mut sub = SampleContext::from_seed(0);
        for _ in 0..ZERO_WEIGHT_ROUNDS {
            pool.clear();
            weights.clear();
            for _ in 0..self.candidates {
                ctx.refork(&mut sub);
                let v = self.inner.sample_value(&mut sub);
                let raw = (self.weight)(&v);
                pool.push(v);
                weights.push(raw);
            }
            if self.log_space {
                // Normalize by the pool maximum before exponentiating,
                // so astronomically small likelihoods keep their
                // *relative* weights instead of all flushing to zero.
                let max = weights
                    .iter()
                    .copied()
                    .filter(|w| w.is_finite())
                    .fold(f64::NEG_INFINITY, f64::max);
                for w in weights.iter_mut() {
                    *w = if w.is_finite() && max.is_finite() {
                        (*w - max).exp()
                    } else {
                        0.0
                    };
                }
            } else {
                for w in weights.iter_mut() {
                    *w = if w.is_finite() { w.max(0.0) } else { 0.0 };
                }
            }
            let total: f64 = weights.iter().sum();
            if total > 0.0 {
                use rand::Rng;
                let mut u = ctx.rng().gen::<f64>() * total;
                for (i, w) in weights.iter().enumerate() {
                    u -= w;
                    if u <= 0.0 {
                        return pool.swap_remove(i);
                    }
                }
                return pool.pop().expect("candidate pool is non-empty");
            }
        }
        // Prior assigns zero mass to every candidate across all rounds:
        // fall back to an unweighted draw rather than failing the whole
        // joint sample (documented on `Uncertain::weight_by`).
        use rand::Rng;
        let i = ctx.rng().gen_range(0..pool.len());
        pool.swap_remove(i)
    }
}

impl<T: Value> TypedNode<T> for WeightedNode<T> {
    fn sample_value(&self, ctx: &mut SampleContext) -> T {
        ctx.memoized(self.id, |ctx| self.draw(ctx))
    }
}

// ---------------------------------------------------------------------------
// Rejection conditioning.
// ---------------------------------------------------------------------------

/// Conditions a sub-network on a hard predicate by rejection sampling: per
/// joint sample, redraws the child (in fresh sub-contexts) until the
/// predicate holds, up to `max_tries`.
pub(crate) struct ConditionedNode<T> {
    id: NodeId,
    label: String,
    inner: DynNode<T>,
    predicate: Box<dyn Fn(&T) -> bool + Send + Sync>,
    max_tries: usize,
}

impl<T> ConditionedNode<T> {
    pub(crate) fn new(
        label: impl Into<String>,
        inner: DynNode<T>,
        predicate: impl Fn(&T) -> bool + Send + Sync + 'static,
        max_tries: usize,
    ) -> Self {
        debug_assert!(max_tries > 0);
        Self {
            id: NodeId::fresh(),
            label: label.into(),
            inner,
            predicate: Box::new(predicate),
            max_tries,
        }
    }
}

impl<T: Value> NodeInfo for ConditionedNode<T> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn label(&self) -> String {
        self.label.clone()
    }
    fn children(&self) -> Children<'_> {
        [Some(&*self.inner), None]
    }
}

impl<T: Value> ConditionedNode<T> {
    /// One rejection-sampling draw: each try samples the inner network in
    /// its own fork of this context (one sub-context, reforked per try).
    fn draw(&self, ctx: &mut SampleContext) -> T {
        let mut sub = SampleContext::from_seed(0);
        for _ in 0..self.max_tries {
            ctx.refork(&mut sub);
            let v = self.inner.sample_value(&mut sub);
            if (self.predicate)(&v) {
                return v;
            }
        }
        panic!(
            "condition_on: predicate rejected {} consecutive samples of node {} ({}); \
             the evidence is (nearly) impossible under this distribution",
            self.max_tries, self.id, self.label
        );
    }
}

impl<T: Value> TypedNode<T> for ConditionedNode<T> {
    fn sample_value(&self, ctx: &mut SampleContext) -> T {
        ctx.memoized(self.id, |ctx| self.draw(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Session;
    use crate::uncertain::Uncertain;

    #[test]
    fn node_ids_are_unique_and_monotonic() {
        let a = NodeId::fresh();
        let b = NodeId::fresh();
        assert_ne!(a, b);
        assert!(b.as_u64() > a.as_u64());
        assert_eq!(format!("{a}"), format!("n{}", a.as_u64()));
    }

    #[test]
    fn point_node_is_leaf_with_debug_label() {
        let u = Uncertain::point(7);
        let view = u.network();
        assert_eq!(view.node_count(), 1);
        assert!(view.nodes().next().unwrap().label.contains('7'));
    }

    #[test]
    fn leaf_memoization_makes_copies_correlated() {
        // x - x must be exactly zero in every joint sample (paper Fig. 8).
        let x = Uncertain::normal(0.0, 10.0).unwrap();
        let diff = x.clone() - x;
        let mut s = Session::sequential(1);
        for _ in 0..100 {
            assert_eq!(s.sample(&diff), 0.0);
        }
    }

    #[test]
    fn encapsulated_copies_are_independent() {
        let x = Uncertain::normal(0.0, 10.0).unwrap();
        let independent = x.encapsulate() - x.encapsulate();
        let mut s = Session::sequential(2);
        let nonzero = (0..100).filter(|_| s.sample(&independent) != 0.0).count();
        assert!(nonzero > 90, "nonzero={nonzero}");
    }

    #[test]
    #[should_panic(expected = "condition_on")]
    fn impossible_condition_panics() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let impossible = x.condition_on(|v: &f64| *v > 1e9, 32);
        let mut s = Session::sequential(3);
        let _ = s.sample(&impossible);
    }

    #[test]
    fn zero_weight_prior_falls_back_to_unweighted() {
        let x = Uncertain::normal(5.0, 1.0).unwrap();
        let weighted = x.weight_by_k(|_| 0.0, 8);
        let mut s = Session::sequential(4);
        // Must not panic, and must still produce plausible values.
        let v = s.sample(&weighted);
        assert!((0.0..10.0).contains(&v));
    }
}
