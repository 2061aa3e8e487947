//! The columnar batch backend: a network lowered to a flat instruction
//! tape and evaluated column-wise (one operation over a whole batch).
//!
//! The tree-walk reference interpreter evaluates one joint sample at a
//! time — per sample per node it pays a `NodeId` memo probe, a boxed
//! value, and a downcast. The SPRT hot path never wants one sample; it
//! wants a *batch*. A [`Kernel`] is the batch-shaped compilation of the
//! same network, and the executor a [`Session`](crate::Session) runs for
//! every batch and decision on a network that lowers:
//!
//! * **Tape**: a post-order walk over the deduplicated DAG emits one
//!   SSA-style instruction per [`NodeId`]. Shared sub-expressions (the
//!   paper's Fig. 8) fall out for free — a node reached twice is lowered
//!   once and both parents read its register.
//! * **Registers**: structure-of-arrays column buffers (`Vec<f64>`,
//!   `Vec<bool>`, or `Vec<T>` for opaque values), one per instruction.
//!   Because emission is post-order, an instruction's destination index is
//!   strictly greater than its sources' — `split_at_mut` gives the
//!   disjoint mutable/shared views without unsafe code.
//! * **Leaves** fill their column from per-sample RNGs seeded exactly as
//!   the tree-walk seeds each joint sample (from the session's query
//!   stream), and instructions consume each sample's RNG in exactly the
//!   order the tree-walk visits nodes — so a kernel batch is **bitwise
//!   identical** to the tree-walk, sample for sample.
//! * **Tagged arithmetic** (`+ - * / %`, comparisons, boolean ops, and the
//!   `f64` method lifts) runs as tight monomorphic loops over columns that
//!   the compiler can unroll and vectorize. Untagged `map`/`map2` closures
//!   still lower — they run the closure per element, which keeps the
//!   whole-network fallback rare.
//!
//! Networks containing nodes whose sampling needs `SampleContext`
//! machinery — `flat_map` (fresh memo scope per outer draw),
//! `encapsulate` (forked RNG), `weight_by` (SIR loop), `condition_on`
//! (rejection loop) — do not lower; [`Kernel::lower`] returns `None` and
//! the session runs them on the tree-walk. The fallback is per *network*,
//! never per sample, so a network always takes one path and stays
//! reproducible.

use crate::node::{LeafNode, Map2Node, MapNode, NodeId, NodeInfo};
use crate::uncertain::{Uncertain, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Rows evaluated per column pass when [`Kernel::run`] streams a large
/// batch in chunks: big enough that per-chunk setup amortizes to nothing,
/// small enough that register columns stay cache- and memory-friendly for
/// thousand-node tapes.
pub(crate) const KERNEL_CHUNK: usize = 4096;

// ---------------------------------------------------------------------------
// Operation tags
// ---------------------------------------------------------------------------

/// A unary `f64 → f64` operation a `map` node advertises to the kernel.
///
/// The `*K` variants carry the scalar a lifted operator captured in its
/// closure (`x + 3.0` is `AddK(3.0)`); `R*K` are the reversed,
/// non-commutative forms (`3.0 - x` is `RsubK(3.0)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum UnOp {
    Neg,
    Abs,
    Sqrt,
    Exp,
    Ln,
    Sin,
    Cos,
    Asin,
    Atan,
    ToRadians,
    ToDegrees,
    AddK(f64),
    SubK(f64),
    RsubK(f64),
    MulK(f64),
    DivK(f64),
    RdivK(f64),
    RemK(f64),
    RremK(f64),
    PowiK(i32),
    PowfK(f64),
    ClampK(f64, f64),
}

impl UnOp {
    /// Fills `out[..n]` with the operation applied to `a[..n]`, one
    /// monomorphic loop per variant.
    fn fill(self, a: &[f64], out: &mut Vec<f64>, n: usize) {
        #[inline]
        fn loop_fill(a: &[f64], out: &mut Vec<f64>, n: usize, f: impl Fn(f64) -> f64) {
            out.clear();
            out.extend(a[..n].iter().map(|&x| f(x)));
        }
        match self {
            UnOp::Neg => loop_fill(a, out, n, |x| -x),
            UnOp::Abs => loop_fill(a, out, n, f64::abs),
            UnOp::Sqrt => loop_fill(a, out, n, f64::sqrt),
            UnOp::Exp => loop_fill(a, out, n, f64::exp),
            UnOp::Ln => loop_fill(a, out, n, f64::ln),
            UnOp::Sin => loop_fill(a, out, n, f64::sin),
            UnOp::Cos => loop_fill(a, out, n, f64::cos),
            UnOp::Asin => loop_fill(a, out, n, f64::asin),
            UnOp::Atan => loop_fill(a, out, n, f64::atan),
            UnOp::ToRadians => loop_fill(a, out, n, f64::to_radians),
            UnOp::ToDegrees => loop_fill(a, out, n, f64::to_degrees),
            UnOp::AddK(k) => loop_fill(a, out, n, |x| x + k),
            UnOp::SubK(k) => loop_fill(a, out, n, |x| x - k),
            UnOp::RsubK(k) => loop_fill(a, out, n, |x| k - x),
            UnOp::MulK(k) => loop_fill(a, out, n, |x| x * k),
            UnOp::DivK(k) => loop_fill(a, out, n, |x| x / k),
            UnOp::RdivK(k) => loop_fill(a, out, n, |x| k / x),
            UnOp::RemK(k) => loop_fill(a, out, n, |x| x % k),
            UnOp::RremK(k) => loop_fill(a, out, n, |x| k % x),
            UnOp::PowiK(k) => loop_fill(a, out, n, |x| x.powi(k)),
            UnOp::PowfK(k) => loop_fill(a, out, n, |x| x.powf(k)),
            UnOp::ClampK(lo, hi) => loop_fill(a, out, n, |x| x.clamp(lo, hi)),
        }
    }

    /// Applies the operation to one scalar — exactly the expression the
    /// corresponding [`UnOp::fill`] loop body evaluates, so constant
    /// folding through `apply` is bitwise identical to running the column
    /// pass over a constant column.
    pub(crate) fn apply(self, x: f64) -> f64 {
        match self {
            UnOp::Neg => -x,
            UnOp::Abs => x.abs(),
            UnOp::Sqrt => x.sqrt(),
            UnOp::Exp => x.exp(),
            UnOp::Ln => x.ln(),
            UnOp::Sin => x.sin(),
            UnOp::Cos => x.cos(),
            UnOp::Asin => x.asin(),
            UnOp::Atan => x.atan(),
            UnOp::ToRadians => x.to_radians(),
            UnOp::ToDegrees => x.to_degrees(),
            UnOp::AddK(k) => x + k,
            UnOp::SubK(k) => x - k,
            UnOp::RsubK(k) => k - x,
            UnOp::MulK(k) => x * k,
            UnOp::DivK(k) => x / k,
            UnOp::RdivK(k) => k / x,
            UnOp::RemK(k) => x % k,
            UnOp::RremK(k) => k % x,
            UnOp::PowiK(k) => x.powi(k),
            UnOp::PowfK(k) => x.powf(k),
            UnOp::ClampK(lo, hi) => x.clamp(lo, hi),
        }
    }
}

/// A stable hash key for a [`UnOp`] (its variants capture `f64` scalars,
/// which are keyed by bit pattern — two `NaN` captures only merge when
/// their payloads match).
fn un_key(op: UnOp) -> (u8, u64, u64) {
    match op {
        UnOp::Neg => (0, 0, 0),
        UnOp::Abs => (1, 0, 0),
        UnOp::Sqrt => (2, 0, 0),
        UnOp::Exp => (3, 0, 0),
        UnOp::Ln => (4, 0, 0),
        UnOp::Sin => (5, 0, 0),
        UnOp::Cos => (6, 0, 0),
        UnOp::Asin => (7, 0, 0),
        UnOp::Atan => (8, 0, 0),
        UnOp::ToRadians => (9, 0, 0),
        UnOp::ToDegrees => (10, 0, 0),
        UnOp::AddK(k) => (11, k.to_bits(), 0),
        UnOp::SubK(k) => (12, k.to_bits(), 0),
        UnOp::RsubK(k) => (13, k.to_bits(), 0),
        UnOp::MulK(k) => (14, k.to_bits(), 0),
        UnOp::DivK(k) => (15, k.to_bits(), 0),
        UnOp::RdivK(k) => (16, k.to_bits(), 0),
        UnOp::RemK(k) => (17, k.to_bits(), 0),
        UnOp::RremK(k) => (18, k.to_bits(), 0),
        UnOp::PowiK(k) => (19, k as u32 as u64, 0),
        UnOp::PowfK(k) => (20, k.to_bits(), 0),
        UnOp::ClampK(lo, hi) => (21, lo.to_bits(), hi.to_bits()),
    }
}

/// A binary `f64 × f64 → f64` operation a `map2` node advertises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Max,
    Min,
    Atan2,
}

impl BinOp {
    fn fill(self, a: &[f64], b: &[f64], out: &mut Vec<f64>, n: usize) {
        #[inline]
        fn loop_fill(
            a: &[f64],
            b: &[f64],
            out: &mut Vec<f64>,
            n: usize,
            f: impl Fn(f64, f64) -> f64,
        ) {
            out.clear();
            out.extend(a[..n].iter().zip(&b[..n]).map(|(&x, &y)| f(x, y)));
        }
        match self {
            BinOp::Add => loop_fill(a, b, out, n, |x, y| x + y),
            BinOp::Sub => loop_fill(a, b, out, n, |x, y| x - y),
            BinOp::Mul => loop_fill(a, b, out, n, |x, y| x * y),
            BinOp::Div => loop_fill(a, b, out, n, |x, y| x / y),
            BinOp::Rem => loop_fill(a, b, out, n, |x, y| x % y),
            BinOp::Max => loop_fill(a, b, out, n, f64::max),
            BinOp::Min => loop_fill(a, b, out, n, f64::min),
            BinOp::Atan2 => loop_fill(a, b, out, n, f64::atan2),
        }
    }

    /// Scalar twin of the [`BinOp::fill`] loop body (see [`UnOp::apply`]).
    pub(crate) fn apply(self, x: f64, y: f64) -> f64 {
        match self {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Rem => x % y,
            BinOp::Max => x.max(y),
            BinOp::Min => x.min(y),
            BinOp::Atan2 => x.atan2(y),
        }
    }

    /// The `UnOp` equivalent of this operation with a constant **left**
    /// operand (`k op x`), where one exists. `None` for `Max`/`Min`/
    /// `Atan2`, which have no `*K` forms.
    ///
    /// For the commutative ops (`Add`, `Mul`) this swaps operand order
    /// (`k + x` becomes the `AddK` loop's `x + k`); IEEE addition and
    /// multiplication are bitwise commutative whenever at most one operand
    /// is NaN, so callers must skip NaN constants — with two NaNs, which
    /// payload propagates depends on operand order.
    fn with_const_lhs(self, k: f64) -> Option<UnOp> {
        Some(match self {
            BinOp::Add => UnOp::AddK(k),
            BinOp::Sub => UnOp::RsubK(k),
            BinOp::Mul => UnOp::MulK(k),
            BinOp::Div => UnOp::RdivK(k),
            BinOp::Rem => UnOp::RremK(k),
            BinOp::Max | BinOp::Min | BinOp::Atan2 => return None,
        })
    }

    /// The `UnOp` equivalent with a constant **right** operand (`x op k`).
    /// Same NaN caveat as [`BinOp::with_const_lhs`].
    fn with_const_rhs(self, k: f64) -> Option<UnOp> {
        Some(match self {
            BinOp::Add => UnOp::AddK(k),
            BinOp::Sub => UnOp::SubK(k),
            BinOp::Mul => UnOp::MulK(k),
            BinOp::Div => UnOp::DivK(k),
            BinOp::Rem => UnOp::RemK(k),
            BinOp::Max | BinOp::Min | BinOp::Atan2 => return None,
        })
    }
}

/// A `f64 × f64 → bool` comparison a lifted operator advertises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CmpOp {
    Gt,
    Lt,
    Ge,
    Le,
    Eq,
    Ne,
}

impl CmpOp {
    fn fill(self, a: &[f64], b: &[f64], out: &mut Vec<bool>, n: usize) {
        #[inline]
        fn loop_fill(
            a: &[f64],
            b: &[f64],
            out: &mut Vec<bool>,
            n: usize,
            f: impl Fn(f64, f64) -> bool,
        ) {
            out.clear();
            out.extend(a[..n].iter().zip(&b[..n]).map(|(&x, &y)| f(x, y)));
        }
        match self {
            CmpOp::Gt => loop_fill(a, b, out, n, |x, y| x > y),
            CmpOp::Lt => loop_fill(a, b, out, n, |x, y| x < y),
            CmpOp::Ge => loop_fill(a, b, out, n, |x, y| x >= y),
            CmpOp::Le => loop_fill(a, b, out, n, |x, y| x <= y),
            CmpOp::Eq => loop_fill(a, b, out, n, |x, y| x == y),
            CmpOp::Ne => loop_fill(a, b, out, n, |x, y| x != y),
        }
    }

    /// Scalar twin of the [`CmpOp::fill`] loop body.
    pub(crate) fn apply(self, x: f64, y: f64) -> bool {
        match self {
            CmpOp::Gt => x > y,
            CmpOp::Lt => x < y,
            CmpOp::Ge => x >= y,
            CmpOp::Le => x <= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
        }
    }
}

/// A `bool × bool → bool` connective a lifted operator advertises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum BoolOp {
    And,
    Or,
    Xor,
}

impl BoolOp {
    fn fill(self, a: &[bool], b: &[bool], out: &mut Vec<bool>, n: usize) {
        #[inline]
        fn loop_fill(
            a: &[bool],
            b: &[bool],
            out: &mut Vec<bool>,
            n: usize,
            f: impl Fn(bool, bool) -> bool,
        ) {
            out.clear();
            out.extend(a[..n].iter().zip(&b[..n]).map(|(&x, &y)| f(x, y)));
        }
        match self {
            BoolOp::And => loop_fill(a, b, out, n, |x, y| x & y),
            BoolOp::Or => loop_fill(a, b, out, n, |x, y| x | y),
            BoolOp::Xor => loop_fill(a, b, out, n, |x, y| x ^ y),
        }
    }

    /// Scalar twin of the [`BoolOp::fill`] loop body.
    pub(crate) fn apply(self, x: bool, y: bool) -> bool {
        match self {
            BoolOp::And => x & y,
            BoolOp::Or => x | y,
            BoolOp::Xor => x ^ y,
        }
    }
}

/// What a `map` node means to the kernel, beyond its opaque closure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MapTag {
    /// A unary `f64 → f64` operation.
    F64(UnOp),
    /// Boolean negation.
    NotBool,
}

/// What a `map2` node means to the kernel, beyond its opaque closure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Map2Tag {
    /// A binary `f64 × f64 → f64` operation.
    F64(BinOp),
    /// A `f64` comparison producing `bool`.
    Cmp(CmpOp),
    /// A boolean connective.
    Bool(BoolOp),
}

/// Tags a generic unary lift when its element type is `f64`. The closure
/// defers `UnOp` construction so scalar captures are only converted for
/// the type the tag is valid for.
pub(crate) fn un_tag_for<T: 'static>(op: impl FnOnce() -> UnOp) -> Option<MapTag> {
    (TypeId::of::<T>() == TypeId::of::<f64>()).then(|| MapTag::F64(op()))
}

/// Tags a generic binary lift when its element type is `f64`.
pub(crate) fn bin_tag_for<T: 'static>(op: BinOp) -> Option<Map2Tag> {
    (TypeId::of::<T>() == TypeId::of::<f64>()).then_some(Map2Tag::F64(op))
}

/// Tags a generic comparison lift when its element type is `f64`.
pub(crate) fn cmp_tag_for<T: 'static>(op: CmpOp) -> Option<Map2Tag> {
    (TypeId::of::<T>() == TypeId::of::<f64>()).then_some(Map2Tag::Cmp(op))
}

// ---------------------------------------------------------------------------
// Register columns
// ---------------------------------------------------------------------------

/// A type-erased register column (`Vec<T>` behind `dyn Any` access).
pub(crate) trait Col: Send {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Send + 'static> Col for Vec<T> {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Allocates one (empty) column of an instruction's output type.
type ColMaker = Box<dyn Fn() -> Box<dyn Col> + Send + Sync>;

fn col_ref<T: 'static>(c: &dyn Col) -> &Vec<T> {
    c.as_any()
        .downcast_ref()
        .expect("kernel register column has its instruction's output type")
}

fn col_mut<T: 'static>(c: &mut dyn Col) -> &mut Vec<T> {
    c.as_any_mut()
        .downcast_mut()
        .expect("kernel register column has its instruction's output type")
}

/// Splits the register file at an instruction's destination: sources are
/// strictly below it (post-order SSA), so `lo` holds every readable source
/// column and `dst` is the writable destination.
fn dst_and_srcs(regs: &mut [Box<dyn Col>], dst: usize) -> (&mut dyn Col, &[Box<dyn Col>]) {
    let (lo, hi) = regs.split_at_mut(dst);
    (hi[0].as_mut(), lo)
}

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

/// Structural shape of an instruction, as reported to the optimizer.
///
/// `Opaque` means "a pure per-element closure the optimizer must not fold
/// or merge, but may eliminate if dead". `Leaf` additionally pins the
/// instruction in place: leaves consume per-sample RNG draws, and every
/// sample's RNG is shared across the whole tape in tape order — dropping,
/// merging, or reordering a leaf would shift every later leaf's draws and
/// break bitwise equality with the tree-walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum InstrKind {
    Leaf,
    ConstF64(f64),
    ConstBool(bool),
    /// A `FillPoint` of some type other than `f64`/`bool`.
    ConstOther,
    Un(UnOp, usize),
    Bin(BinOp, usize, usize),
    Cmp(CmpOp, usize, usize),
    Bool(BoolOp, usize, usize),
    Not(usize),
    MulAdd {
        a: usize,
        b: usize,
        c: usize,
        c_first: bool,
    },
    MulKAdd {
        k: f64,
        a: usize,
        c: usize,
        c_first: bool,
    },
    Opaque,
}

/// One tape instruction: computes its destination column from source
/// columns (and, for leaves, the per-sample RNGs) for `n` rows.
pub(crate) trait Instr: Send + Sync {
    fn run(&self, regs: &mut [Box<dyn Col>], rngs: &mut [SmallRng], n: usize);

    /// Structural shape for the optimizer. Source indices in the returned
    /// kind are the instruction's raw register fields.
    fn kind(&self) -> InstrKind;

    /// Source registers read by [`Instr::run`].
    fn srcs(&self) -> Vec<usize>;

    /// Clones the instruction with destination `dst` and each source `s`
    /// replaced by `map[s]`.
    fn remap(&self, dst: usize, map: &[usize]) -> Box<dyn Instr>;
}

struct FillLeaf<T: Value> {
    node: Arc<LeafNode<T>>,
    dst: usize,
}

impl<T: Value> Instr for FillLeaf<T> {
    fn run(&self, regs: &mut [Box<dyn Col>], rngs: &mut [SmallRng], n: usize) {
        let out = col_mut::<T>(regs[self.dst].as_mut());
        if let Some(fill) = self.node.fill_fn() {
            // Vectorized column fill — bitwise-identical to the scalar
            // loop below by the `fill_column` contract.
            fill(&mut rngs[..n], out);
        } else {
            out.clear();
            out.reserve(n);
            for rng in rngs[..n].iter_mut() {
                out.push(self.node.sample_raw(rng));
            }
        }
    }

    fn kind(&self) -> InstrKind {
        InstrKind::Leaf
    }

    fn srcs(&self) -> Vec<usize> {
        Vec::new()
    }

    fn remap(&self, dst: usize, _map: &[usize]) -> Box<dyn Instr> {
        Box::new(FillLeaf {
            node: Arc::clone(&self.node),
            dst,
        })
    }
}

struct FillPoint<T: Value> {
    value: T,
    dst: usize,
}

impl<T: Value> Instr for FillPoint<T> {
    fn run(&self, regs: &mut [Box<dyn Col>], _rngs: &mut [SmallRng], n: usize) {
        let out = col_mut::<T>(regs[self.dst].as_mut());
        out.clear();
        out.extend((0..n).map(|_| self.value.clone()));
    }

    fn kind(&self) -> InstrKind {
        let v: &dyn Any = &self.value;
        if let Some(&x) = v.downcast_ref::<f64>() {
            InstrKind::ConstF64(x)
        } else if let Some(&b) = v.downcast_ref::<bool>() {
            InstrKind::ConstBool(b)
        } else {
            InstrKind::ConstOther
        }
    }

    fn srcs(&self) -> Vec<usize> {
        Vec::new()
    }

    fn remap(&self, dst: usize, _map: &[usize]) -> Box<dyn Instr> {
        Box::new(FillPoint {
            value: self.value.clone(),
            dst,
        })
    }
}

struct MapOpaque<A: Value, T: Value> {
    node: Arc<MapNode<A, T>>,
    src: usize,
    dst: usize,
}

impl<A: Value, T: Value> Instr for MapOpaque<A, T> {
    fn run(&self, regs: &mut [Box<dyn Col>], _rngs: &mut [SmallRng], n: usize) {
        let (dst, srcs) = dst_and_srcs(regs, self.dst);
        let a = col_ref::<A>(srcs[self.src].as_ref());
        let out = col_mut::<T>(dst);
        out.clear();
        out.extend(a[..n].iter().map(|v| self.node.apply(v.clone())));
    }

    fn kind(&self) -> InstrKind {
        InstrKind::Opaque
    }

    fn srcs(&self) -> Vec<usize> {
        vec![self.src]
    }

    fn remap(&self, dst: usize, map: &[usize]) -> Box<dyn Instr> {
        Box::new(MapOpaque {
            node: Arc::clone(&self.node),
            src: map[self.src],
            dst,
        })
    }
}

struct Map2Opaque<A: Value, B: Value, T: Value> {
    node: Arc<Map2Node<A, B, T>>,
    a: usize,
    b: usize,
    dst: usize,
}

impl<A: Value, B: Value, T: Value> Instr for Map2Opaque<A, B, T> {
    fn run(&self, regs: &mut [Box<dyn Col>], _rngs: &mut [SmallRng], n: usize) {
        let (dst, srcs) = dst_and_srcs(regs, self.dst);
        let a = col_ref::<A>(srcs[self.a].as_ref());
        let b = col_ref::<B>(srcs[self.b].as_ref());
        let out = col_mut::<T>(dst);
        out.clear();
        out.extend(
            a[..n]
                .iter()
                .zip(&b[..n])
                .map(|(x, y)| self.node.apply(x.clone(), y.clone())),
        );
    }

    fn kind(&self) -> InstrKind {
        InstrKind::Opaque
    }

    fn srcs(&self) -> Vec<usize> {
        vec![self.a, self.b]
    }

    fn remap(&self, dst: usize, map: &[usize]) -> Box<dyn Instr> {
        Box::new(Map2Opaque {
            node: Arc::clone(&self.node),
            a: map[self.a],
            b: map[self.b],
            dst,
        })
    }
}

struct UnF64 {
    op: UnOp,
    src: usize,
    dst: usize,
}

impl Instr for UnF64 {
    fn run(&self, regs: &mut [Box<dyn Col>], _rngs: &mut [SmallRng], n: usize) {
        let (dst, srcs) = dst_and_srcs(regs, self.dst);
        let a = col_ref::<f64>(srcs[self.src].as_ref());
        self.op.fill(a, col_mut::<f64>(dst), n);
    }

    fn kind(&self) -> InstrKind {
        InstrKind::Un(self.op, self.src)
    }

    fn srcs(&self) -> Vec<usize> {
        vec![self.src]
    }

    fn remap(&self, dst: usize, map: &[usize]) -> Box<dyn Instr> {
        Box::new(UnF64 {
            op: self.op,
            src: map[self.src],
            dst,
        })
    }
}

struct BinF64 {
    op: BinOp,
    a: usize,
    b: usize,
    dst: usize,
}

impl Instr for BinF64 {
    fn run(&self, regs: &mut [Box<dyn Col>], _rngs: &mut [SmallRng], n: usize) {
        let (dst, srcs) = dst_and_srcs(regs, self.dst);
        let a = col_ref::<f64>(srcs[self.a].as_ref());
        let b = col_ref::<f64>(srcs[self.b].as_ref());
        self.op.fill(a, b, col_mut::<f64>(dst), n);
    }

    fn kind(&self) -> InstrKind {
        InstrKind::Bin(self.op, self.a, self.b)
    }

    fn srcs(&self) -> Vec<usize> {
        vec![self.a, self.b]
    }

    fn remap(&self, dst: usize, map: &[usize]) -> Box<dyn Instr> {
        Box::new(BinF64 {
            op: self.op,
            a: map[self.a],
            b: map[self.b],
            dst,
        })
    }
}

struct CmpF64 {
    op: CmpOp,
    a: usize,
    b: usize,
    dst: usize,
}

impl Instr for CmpF64 {
    fn run(&self, regs: &mut [Box<dyn Col>], _rngs: &mut [SmallRng], n: usize) {
        let (dst, srcs) = dst_and_srcs(regs, self.dst);
        let a = col_ref::<f64>(srcs[self.a].as_ref());
        let b = col_ref::<f64>(srcs[self.b].as_ref());
        self.op.fill(a, b, col_mut::<bool>(dst), n);
    }

    fn kind(&self) -> InstrKind {
        InstrKind::Cmp(self.op, self.a, self.b)
    }

    fn srcs(&self) -> Vec<usize> {
        vec![self.a, self.b]
    }

    fn remap(&self, dst: usize, map: &[usize]) -> Box<dyn Instr> {
        Box::new(CmpF64 {
            op: self.op,
            a: map[self.a],
            b: map[self.b],
            dst,
        })
    }
}

struct BoolBin {
    op: BoolOp,
    a: usize,
    b: usize,
    dst: usize,
}

impl Instr for BoolBin {
    fn run(&self, regs: &mut [Box<dyn Col>], _rngs: &mut [SmallRng], n: usize) {
        let (dst, srcs) = dst_and_srcs(regs, self.dst);
        let a = col_ref::<bool>(srcs[self.a].as_ref());
        let b = col_ref::<bool>(srcs[self.b].as_ref());
        self.op.fill(a, b, col_mut::<bool>(dst), n);
    }

    fn kind(&self) -> InstrKind {
        InstrKind::Bool(self.op, self.a, self.b)
    }

    fn srcs(&self) -> Vec<usize> {
        vec![self.a, self.b]
    }

    fn remap(&self, dst: usize, map: &[usize]) -> Box<dyn Instr> {
        Box::new(BoolBin {
            op: self.op,
            a: map[self.a],
            b: map[self.b],
            dst,
        })
    }
}

struct NotBool {
    src: usize,
    dst: usize,
}

impl Instr for NotBool {
    fn run(&self, regs: &mut [Box<dyn Col>], _rngs: &mut [SmallRng], n: usize) {
        let (dst, srcs) = dst_and_srcs(regs, self.dst);
        let a = col_ref::<bool>(srcs[self.src].as_ref());
        let out = col_mut::<bool>(dst);
        out.clear();
        out.extend(a[..n].iter().map(|&x| !x));
    }

    fn kind(&self) -> InstrKind {
        InstrKind::Not(self.src)
    }

    fn srcs(&self) -> Vec<usize> {
        vec![self.src]
    }

    fn remap(&self, dst: usize, map: &[usize]) -> Box<dyn Instr> {
        Box::new(NotBool {
            src: map[self.src],
            dst,
        })
    }
}

/// Fused `a*b + c` (or `c + a*b` when `c_first`): the optimizer's
/// replacement for an `Add` whose `Mul` operand has no other use. The two
/// IEEE operations are still performed separately per element — this is
/// *loop* fusion (one column pass and one register instead of two), **not**
/// a hardware FMA contraction, so results stay bitwise identical to the
/// unfused tape.
struct MulAddF64 {
    a: usize,
    b: usize,
    c: usize,
    c_first: bool,
    dst: usize,
}

impl Instr for MulAddF64 {
    fn run(&self, regs: &mut [Box<dyn Col>], _rngs: &mut [SmallRng], n: usize) {
        let (dst, srcs) = dst_and_srcs(regs, self.dst);
        let a = col_ref::<f64>(srcs[self.a].as_ref());
        let b = col_ref::<f64>(srcs[self.b].as_ref());
        let c = col_ref::<f64>(srcs[self.c].as_ref());
        let out = col_mut::<f64>(dst);
        out.clear();
        let it = a[..n].iter().zip(&b[..n]).zip(&c[..n]);
        if self.c_first {
            out.extend(it.map(|((&x, &y), &z)| z + x * y));
        } else {
            out.extend(it.map(|((&x, &y), &z)| x * y + z));
        }
    }

    fn kind(&self) -> InstrKind {
        InstrKind::MulAdd {
            a: self.a,
            b: self.b,
            c: self.c,
            c_first: self.c_first,
        }
    }

    fn srcs(&self) -> Vec<usize> {
        vec![self.a, self.b, self.c]
    }

    fn remap(&self, dst: usize, map: &[usize]) -> Box<dyn Instr> {
        Box::new(MulAddF64 {
            a: map[self.a],
            b: map[self.b],
            c: map[self.c],
            c_first: self.c_first,
            dst,
        })
    }
}

/// Fused `a*k + c` / `c + a*k` — the strength-reduced (`MulK`) twin of
/// [`MulAddF64`], with the same bitwise guarantee.
struct MulKAddF64 {
    k: f64,
    a: usize,
    c: usize,
    c_first: bool,
    dst: usize,
}

impl Instr for MulKAddF64 {
    fn run(&self, regs: &mut [Box<dyn Col>], _rngs: &mut [SmallRng], n: usize) {
        let (dst, srcs) = dst_and_srcs(regs, self.dst);
        let a = col_ref::<f64>(srcs[self.a].as_ref());
        let c = col_ref::<f64>(srcs[self.c].as_ref());
        let out = col_mut::<f64>(dst);
        out.clear();
        let k = self.k;
        let it = a[..n].iter().zip(&c[..n]);
        if self.c_first {
            out.extend(it.map(|(&x, &z)| z + x * k));
        } else {
            out.extend(it.map(|(&x, &z)| x * k + z));
        }
    }

    fn kind(&self) -> InstrKind {
        InstrKind::MulKAdd {
            k: self.k,
            a: self.a,
            c: self.c,
            c_first: self.c_first,
        }
    }

    fn srcs(&self) -> Vec<usize> {
        vec![self.a, self.c]
    }

    fn remap(&self, dst: usize, map: &[usize]) -> Box<dyn Instr> {
        Box::new(MulKAddF64 {
            k: self.k,
            a: map[self.a],
            c: map[self.c],
            c_first: self.c_first,
            dst,
        })
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Display metadata for one instruction — what the obs profiler reports.
/// Carried unconditionally (it is a few words per instruction) so lowering
/// is identical with and without the `obs` feature.
#[derive(Debug, Clone)]
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub(crate) struct InstrMeta {
    pub(crate) node: NodeId,
    pub(crate) label: String,
    pub(crate) op: &'static str,
}

/// Accumulates the tape during lowering; one register per emitted
/// instruction, allocated in post-order.
#[derive(Default)]
pub(crate) struct KernelBuilder {
    reg_of: HashMap<NodeId, usize>,
    instrs: Vec<Box<dyn Instr>>,
    metas: Vec<InstrMeta>,
    makers: Vec<ColMaker>,
}

impl KernelBuilder {
    /// Whether `id` already has a register (shared sub-expression).
    fn has(&self, id: NodeId) -> bool {
        self.reg_of.contains_key(&id)
    }

    /// The register holding an already-lowered node's column.
    pub(crate) fn reg(&self, id: NodeId) -> usize {
        self.reg_of[&id]
    }

    /// The register the next emitted instruction will write.
    pub(crate) fn next_reg(&self) -> usize {
        self.instrs.len()
    }

    /// Appends an instruction whose destination column holds `T`s.
    pub(crate) fn emit<T: Value>(
        &mut self,
        id: NodeId,
        label: String,
        op: &'static str,
        instr: Box<dyn Instr>,
    ) {
        let dst = self.instrs.len();
        self.reg_of.insert(id, dst);
        self.instrs.push(instr);
        self.metas.push(InstrMeta {
            node: id,
            label,
            op,
        });
        self.makers.push(Box::new(|| Box::new(Vec::<T>::new())));
    }
}

// ---------------------------------------------------------------------------
// Per-node lowering (called from the NodeInfo hooks in node.rs)
// ---------------------------------------------------------------------------

pub(crate) fn lower_leaf<T: Value>(node: Arc<LeafNode<T>>, k: &mut KernelBuilder) {
    let dst = k.next_reg();
    let (id, label) = (node.id(), node.label());
    // Distinguish vectorized column fills in the profile so the obs layer
    // can report scalar vs. batched leaf cost separately.
    let op = if node.fill_fn().is_some() {
        "leaf_vec"
    } else {
        "leaf"
    };
    k.emit::<T>(id, label, op, Box::new(FillLeaf { node, dst }));
}

pub(crate) fn lower_point<T: Value>(id: NodeId, label: String, value: T, k: &mut KernelBuilder) {
    let dst = k.next_reg();
    k.emit::<T>(id, label, "point", Box::new(FillPoint { value, dst }));
}

pub(crate) fn lower_map<A: Value, T: Value>(
    node: Arc<MapNode<A, T>>,
    tag: Option<MapTag>,
    child: NodeId,
    k: &mut KernelBuilder,
) {
    let src = k.reg(child);
    let dst = k.next_reg();
    let (id, label) = (node.id(), node.label());
    match tag {
        Some(MapTag::F64(op))
            if TypeId::of::<A>() == TypeId::of::<f64>()
                && TypeId::of::<T>() == TypeId::of::<f64>() =>
        {
            k.emit::<f64>(id, label, "unary", Box::new(UnF64 { op, src, dst }));
        }
        Some(MapTag::NotBool)
            if TypeId::of::<A>() == TypeId::of::<bool>()
                && TypeId::of::<T>() == TypeId::of::<bool>() =>
        {
            k.emit::<bool>(id, label, "not", Box::new(NotBool { src, dst }));
        }
        _ => k.emit::<T>(id, label, "map", Box::new(MapOpaque { node, src, dst })),
    }
}

pub(crate) fn lower_map2<A: Value, B: Value, T: Value>(
    node: Arc<Map2Node<A, B, T>>,
    tag: Option<Map2Tag>,
    left: NodeId,
    right: NodeId,
    k: &mut KernelBuilder,
) {
    let a = k.reg(left);
    let b = k.reg(right);
    let dst = k.next_reg();
    let (id, label) = (node.id(), node.label());
    let f64_in =
        TypeId::of::<A>() == TypeId::of::<f64>() && TypeId::of::<B>() == TypeId::of::<f64>();
    let bool_in =
        TypeId::of::<A>() == TypeId::of::<bool>() && TypeId::of::<B>() == TypeId::of::<bool>();
    match tag {
        Some(Map2Tag::F64(op)) if f64_in && TypeId::of::<T>() == TypeId::of::<f64>() => {
            k.emit::<f64>(id, label, "binary", Box::new(BinF64 { op, a, b, dst }));
        }
        Some(Map2Tag::Cmp(op)) if f64_in && TypeId::of::<T>() == TypeId::of::<bool>() => {
            k.emit::<bool>(id, label, "cmp", Box::new(CmpF64 { op, a, b, dst }));
        }
        Some(Map2Tag::Bool(op)) if bool_in && TypeId::of::<T>() == TypeId::of::<bool>() => {
            k.emit::<bool>(id, label, "bool", Box::new(BoolBin { op, a, b, dst }));
        }
        _ => k.emit::<T>(id, label, "map2", Box::new(Map2Opaque { node, a, b, dst })),
    }
}

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

/// The columnar compilation of a network rooted in a `T`: a flat
/// instruction tape plus the recipe for its register file.
///
/// A kernel is immutable and shareable (`Send + Sync`); per-thread scratch
/// lives in a [`KernelState`].
pub(crate) struct Kernel<T> {
    instrs: Vec<Box<dyn Instr>>,
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    metas: Vec<InstrMeta>,
    makers: Vec<ColMaker>,
    root: usize,
    /// Tape length as lowered, before the optimizer ran.
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    pre_opt_len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for Kernel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("instrs", &self.instrs.len())
            .field("root", &self.root)
            .finish()
    }
}

/// The mutable scratch of one kernel executor: the register columns and
/// the per-sample RNGs. Reused across batches so steady-state SPRT runs
/// stop allocating.
pub(crate) struct KernelState {
    regs: Vec<Box<dyn Col>>,
    rngs: Vec<SmallRng>,
}

impl std::fmt::Debug for KernelState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelState")
            .field("regs", &self.regs.len())
            .finish()
    }
}

impl<T: Value> Kernel<T> {
    /// Lowers a network to an **optimized** tape, or `None` if any
    /// reachable node needs `SampleContext` machinery (see the module
    /// docs' fallback rules). This is what production callers use; the
    /// optimizer never changes output bits (see [`Kernel::optimize`]).
    pub(crate) fn lower(network: &Uncertain<T>) -> Option<Self> {
        let mut k = Self::lower_raw(network)?;
        k.optimize();
        Some(k)
    }

    /// Lowers a network to a tape without running the optimizer — the
    /// raw one-instruction-per-node form. Kept for tests and baselines
    /// that compare pre- and post-optimizer tapes.
    ///
    /// The walk is iterative — an explicit work stack, not recursion — so
    /// thousand-node evidence chains lower safely in debug builds.
    pub(crate) fn lower_raw(network: &Uncertain<T>) -> Option<Self> {
        let mut b = KernelBuilder::default();
        let root = network.node().clone() as Arc<dyn NodeInfo>;
        let mut stack: Vec<(Arc<dyn NodeInfo>, bool)> = vec![(Arc::clone(&root), false)];
        while let Some((node, expanded)) = stack.pop() {
            if b.has(node.id()) {
                continue;
            }
            if expanded {
                if !node.lower(&mut b) {
                    return None;
                }
            } else {
                let children = node.lower_children()?;
                stack.push((Arc::clone(&node), true));
                for child in children.into_iter().rev() {
                    if !b.has(child.id()) {
                        stack.push((child, false));
                    }
                }
            }
        }
        let root_reg = b.reg(root.id());
        let pre_opt_len = b.instrs.len();
        Some(Kernel {
            instrs: b.instrs,
            metas: b.metas,
            makers: b.makers,
            root: root_reg,
            pre_opt_len,
            _marker: PhantomData,
        })
    }

    /// Runs the SSA tape optimizer in place: constant folding + strength
    /// reduction, boolean identities, common-subexpression elimination,
    /// copy propagation, mul+add loop fusion, and dead-register
    /// elimination with register compaction.
    ///
    /// Every rewrite preserves output **bits** exactly — folds evaluate
    /// the same IEEE expression the column loop would, strength reduction
    /// and CSE only substitute bitwise-equal columns, and fusion keeps
    /// the multiply and add as two separate operations (no FMA
    /// contraction). No pass ever drops, merges, or reorders a `Leaf`
    /// instruction: leaves consume per-sample RNG draws in tape order, so
    /// they stay pinned even when their value is dead, keeping the draw
    /// sequence identical to the tree-walk.
    fn optimize(&mut self) {
        let n = self.instrs.len();
        let mut kinds: Vec<InstrKind> = self.instrs.iter().map(|i| i.kind()).collect();
        // `alias[i]` names a register whose column is bitwise equal to
        // `i`'s; aliases always point backwards at a register that is its
        // own representative, so one hop resolves.
        let mut alias: Vec<usize> = (0..n).collect();

        self.fold_constants(&mut kinds, &mut alias);
        Self::cse(&kinds, &mut alias);

        // Copy propagation: rewrite every source through the alias map so
        // aliased registers go dead, then refresh the cached kinds.
        if alias.iter().enumerate().any(|(i, &a)| a != i) {
            for i in 0..n {
                self.instrs[i] = self.instrs[i].remap(i, &alias);
            }
            self.root = alias[self.root];
            for (k, ins) in kinds.iter_mut().zip(&self.instrs) {
                *k = ins.kind();
            }
        }

        self.fuse_muladd(&mut kinds);
        self.dce_compact(&kinds);
    }

    /// Replaces instruction `i` with a constant `f64` fill. The register
    /// keeps its `Vec<f64>` column maker, so only the instruction (and
    /// its profile `op`) changes.
    fn set_const_f64(&mut self, i: usize, value: f64, kinds: &mut [InstrKind]) {
        self.instrs[i] = Box::new(FillPoint { value, dst: i });
        self.metas[i].op = "point";
        kinds[i] = InstrKind::ConstF64(value);
    }

    fn set_const_bool(&mut self, i: usize, value: bool, kinds: &mut [InstrKind]) {
        self.instrs[i] = Box::new(FillPoint { value, dst: i });
        self.metas[i].op = "point";
        kinds[i] = InstrKind::ConstBool(value);
    }

    /// Strength-reduces a binary op with one constant operand to its `*K`
    /// unary form (one column read instead of two).
    fn set_unary(&mut self, i: usize, op: UnOp, src: usize, kinds: &mut [InstrKind]) {
        self.instrs[i] = Box::new(UnF64 { op, src, dst: i });
        self.metas[i].op = "unary";
        kinds[i] = InstrKind::Un(op, src);
    }

    /// Forward constant-folding sweep. Also applies strength reduction
    /// (`Bin` with one constant operand → `*K` unary), the exact boolean
    /// identities, and double-negation elimination.
    ///
    /// Deliberately **not** folded, because the "identity" is not one in
    /// IEEE arithmetic: `x + 0.0` (breaks on `-0.0`), `x * 1.0` and
    /// `x / 1.0` (could be argued, but kept for uniformity), `x * 0.0`
    /// (breaks on infinities, NaN, and `-0.0`). Strength reduction with a
    /// NaN constant is skipped: for the commutative ops the operand swap
    /// could change which NaN payload propagates when both sides are NaN.
    fn fold_constants(&mut self, kinds: &mut [InstrKind], alias: &mut [usize]) {
        for i in 0..kinds.len() {
            match kinds[i] {
                InstrKind::Un(op, s) => {
                    if let InstrKind::ConstF64(v) = kinds[alias[s]] {
                        self.set_const_f64(i, op.apply(v), kinds);
                    }
                }
                InstrKind::Bin(op, a, b) => {
                    let (ra, rb) = (alias[a], alias[b]);
                    match (kinds[ra], kinds[rb]) {
                        (InstrKind::ConstF64(x), InstrKind::ConstF64(y)) => {
                            self.set_const_f64(i, op.apply(x, y), kinds);
                        }
                        (InstrKind::ConstF64(x), _) if !x.is_nan() => {
                            if let Some(un) = op.with_const_lhs(x) {
                                self.set_unary(i, un, rb, kinds);
                            }
                        }
                        (_, InstrKind::ConstF64(y)) if !y.is_nan() => {
                            if let Some(un) = op.with_const_rhs(y) {
                                self.set_unary(i, un, ra, kinds);
                            }
                        }
                        _ => {}
                    }
                }
                InstrKind::Cmp(op, a, b) => {
                    if let (InstrKind::ConstF64(x), InstrKind::ConstF64(y)) =
                        (kinds[alias[a]], kinds[alias[b]])
                    {
                        self.set_const_bool(i, op.apply(x, y), kinds);
                    }
                }
                InstrKind::Bool(op, a, b) => {
                    let (ra, rb) = (alias[a], alias[b]);
                    match (kinds[ra], kinds[rb]) {
                        (InstrKind::ConstBool(x), InstrKind::ConstBool(y)) => {
                            self.set_const_bool(i, op.apply(x, y), kinds);
                        }
                        (InstrKind::ConstBool(k), _) | (_, InstrKind::ConstBool(k)) => {
                            let other = if matches!(kinds[ra], InstrKind::ConstBool(_)) {
                                rb
                            } else {
                                ra
                            };
                            // Booleans have exact identities (unlike f64).
                            match (op, k) {
                                (BoolOp::And, true)
                                | (BoolOp::Or, false)
                                | (BoolOp::Xor, false) => alias[i] = other,
                                (BoolOp::And, false) => self.set_const_bool(i, false, kinds),
                                (BoolOp::Or, true) => self.set_const_bool(i, true, kinds),
                                (BoolOp::Xor, true) => {
                                    self.instrs[i] = Box::new(NotBool { src: other, dst: i });
                                    self.metas[i].op = "not";
                                    kinds[i] = InstrKind::Not(other);
                                }
                            }
                        }
                        _ => {}
                    }
                }
                InstrKind::Not(s) => match kinds[alias[s]] {
                    InstrKind::ConstBool(v) => self.set_const_bool(i, !v, kinds),
                    // `!!x == x` exactly.
                    InstrKind::Not(inner) => alias[i] = alias[inner],
                    _ => {}
                },
                _ => {}
            }
        }
    }

    /// Value-numbering CSE: two pure instructions with the same op and
    /// the same (representative) sources compute bitwise-identical
    /// columns, so the later one aliases the earlier. Scalar captures are
    /// keyed by bit pattern, and operands are **not** commutatively
    /// canonicalized — `a+b` and `b+a` can differ in which NaN payload
    /// propagates when both operands are NaN — so only syntactic matches
    /// merge. Leaves (RNG consumers), opaque closures, and non-scalar
    /// constants have no identity key and never merge.
    fn cse(kinds: &[InstrKind], alias: &mut [usize]) {
        #[derive(PartialEq, Eq, Hash)]
        enum Key {
            ConstF64(u64),
            ConstBool(bool),
            Un((u8, u64, u64), usize),
            Bin(BinOp, usize, usize),
            Cmp(CmpOp, usize, usize),
            Bool(BoolOp, usize, usize),
            Not(usize),
        }
        let mut table: HashMap<Key, usize> = HashMap::new();
        for i in 0..kinds.len() {
            if alias[i] != i {
                continue;
            }
            let key = match kinds[i] {
                InstrKind::ConstF64(v) => Key::ConstF64(v.to_bits()),
                InstrKind::ConstBool(b) => Key::ConstBool(b),
                InstrKind::Un(op, s) => Key::Un(un_key(op), alias[s]),
                InstrKind::Bin(op, a, b) => Key::Bin(op, alias[a], alias[b]),
                InstrKind::Cmp(op, a, b) => Key::Cmp(op, alias[a], alias[b]),
                InstrKind::Bool(op, a, b) => Key::Bool(op, alias[a], alias[b]),
                InstrKind::Not(s) => Key::Not(alias[s]),
                _ => continue,
            };
            use std::collections::hash_map::Entry;
            match table.entry(key) {
                Entry::Occupied(e) => alias[i] = *e.get(),
                Entry::Vacant(e) => {
                    e.insert(i);
                }
            }
        }
    }

    /// Fuses an `Add` whose `Mul` (or `MulK`) operand has no other use
    /// into one fused column pass — halving the loop and register traffic
    /// for the `a*b + c` shapes that dominate lifted arithmetic. Runs
    /// after copy propagation, so kind source indices are final. The
    /// single-use requirement (counting the root as a use) guarantees the
    /// mul register goes dead and DCE reclaims it.
    fn fuse_muladd(&mut self, kinds: &mut [InstrKind]) {
        let n = kinds.len();
        let mut uses = vec![0u32; n];
        for ins in &self.instrs {
            for s in ins.srcs() {
                uses[s] += 1;
            }
        }
        uses[self.root] += 1;
        for i in 0..n {
            let InstrKind::Bin(BinOp::Add, p, q) = kinds[i] else {
                continue;
            };
            let (fused, kind): (Box<dyn Instr>, InstrKind) = match (kinds[p], kinds[q]) {
                (InstrKind::Bin(BinOp::Mul, x, y), _) if uses[p] == 1 => (
                    Box::new(MulAddF64 {
                        a: x,
                        b: y,
                        c: q,
                        c_first: false,
                        dst: i,
                    }),
                    InstrKind::MulAdd {
                        a: x,
                        b: y,
                        c: q,
                        c_first: false,
                    },
                ),
                (_, InstrKind::Bin(BinOp::Mul, x, y)) if uses[q] == 1 => (
                    Box::new(MulAddF64 {
                        a: x,
                        b: y,
                        c: p,
                        c_first: true,
                        dst: i,
                    }),
                    InstrKind::MulAdd {
                        a: x,
                        b: y,
                        c: p,
                        c_first: true,
                    },
                ),
                (InstrKind::Un(UnOp::MulK(k), x), _) if uses[p] == 1 => (
                    Box::new(MulKAddF64 {
                        k,
                        a: x,
                        c: q,
                        c_first: false,
                        dst: i,
                    }),
                    InstrKind::MulKAdd {
                        k,
                        a: x,
                        c: q,
                        c_first: false,
                    },
                ),
                (_, InstrKind::Un(UnOp::MulK(k), x)) if uses[q] == 1 => (
                    Box::new(MulKAddF64 {
                        k,
                        a: x,
                        c: p,
                        c_first: true,
                        dst: i,
                    }),
                    InstrKind::MulKAdd {
                        k,
                        a: x,
                        c: p,
                        c_first: true,
                    },
                ),
                _ => continue,
            };
            self.instrs[i] = fused;
            self.metas[i].op = "muladd";
            kinds[i] = kind;
        }
    }

    /// Dead-register elimination + compaction: drops every instruction
    /// whose column nobody (transitively) reads — except leaves, which
    /// stay so each sample's RNG draw sequence matches the tree-walk
    /// (which also samples dead leaves) — then renumbers the survivors
    /// densely so the register file shrinks with the tape.
    fn dce_compact(&mut self, kinds: &[InstrKind]) {
        let n = self.instrs.len();
        let mut keep = vec![false; n];
        let mut used = vec![false; n];
        used[self.root] = true;
        // Reverse sweep is sound: an instruction's sources are strictly
        // below it, so every user of `i` was visited before `i`.
        for i in (0..n).rev() {
            if used[i] || matches!(kinds[i], InstrKind::Leaf) {
                keep[i] = true;
                for s in self.instrs[i].srcs() {
                    used[s] = true;
                }
            }
        }
        if keep.iter().all(|&k| k) {
            return;
        }
        let mut map = vec![usize::MAX; n];
        let mut next = 0;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                map[i] = next;
                next += 1;
            }
        }
        let instrs = std::mem::take(&mut self.instrs);
        let metas = std::mem::take(&mut self.metas);
        let makers = std::mem::take(&mut self.makers);
        self.instrs.reserve(next);
        for (i, ((ins, meta), maker)) in instrs.into_iter().zip(metas).zip(makers).enumerate() {
            if keep[i] {
                self.instrs.push(ins.remap(map[i], &map));
                self.metas.push(meta);
                self.makers.push(maker);
            }
        }
        self.root = map[self.root];
    }

    /// Allocates an empty register file + RNG scratch for this kernel.
    pub(crate) fn new_state(&self) -> KernelState {
        KernelState {
            regs: self.makers.iter().map(|make| make()).collect(),
            rngs: Vec::new(),
        }
    }

    /// Runs the tape over `n` rows and **appends** the root column to
    /// `out`. Row `i`'s RNG is seeded with the `i`-th `next_seed()`, exactly
    /// as the tree-walk reseeds per joint sample; rows run a
    /// [`KERNEL_CHUNK`] at a time, pulling seeds in row order.
    pub(crate) fn run(
        &self,
        n: usize,
        mut next_seed: impl FnMut() -> u64,
        state: &mut KernelState,
        out: &mut Vec<T>,
    ) {
        debug_assert_eq!(state.regs.len(), self.instrs.len());
        out.reserve(n);
        let mut done = 0;
        while done < n {
            let take = KERNEL_CHUNK.min(n - done);
            state.rngs.clear();
            state
                .rngs
                .extend((0..take).map(|_| SmallRng::seed_from_u64(next_seed())));
            for instr in &self.instrs {
                instr.run(&mut state.regs, &mut state.rngs, take);
            }
            let root = col_ref::<T>(state.regs[self.root].as_ref());
            out.extend_from_slice(&root[..take]);
            done += take;
        }
    }

    /// Profiles `n` rows of the tape: runs it in [`KERNEL_CHUNK`]-row
    /// chunks, seeding each row with the next `next_seed()`, with a
    /// wall-clock timer around every instruction's column pass, and
    /// reports the exclusive per-instruction costs. The rows draw exactly
    /// the values an unprofiled [`run`](Self::run) over the same seeds
    /// would; only wall time changes.
    #[cfg(feature = "obs")]
    pub(crate) fn profiled_run(
        &self,
        n: usize,
        mut next_seed: impl FnMut() -> u64,
    ) -> crate::obs::KernelProfile {
        let mut state = self.new_state();
        let mut ns = vec![0u64; self.instrs.len()];
        let mut done = 0;
        while done < n {
            let take = KERNEL_CHUNK.min(n - done);
            state.rngs.clear();
            state
                .rngs
                .extend((0..take).map(|_| SmallRng::seed_from_u64(next_seed())));
            for (i, instr) in self.instrs.iter().enumerate() {
                let start = std::time::Instant::now();
                instr.run(&mut state.regs, &mut state.rngs, take);
                ns[i] += start.elapsed().as_nanos() as u64;
            }
            done += take;
        }
        let samples = n as u64;
        crate::obs::KernelProfile {
            instrs: self
                .metas
                .iter()
                .zip(ns)
                .map(|(meta, ns)| crate::obs::InstrCost {
                    node: meta.node,
                    label: meta.label.clone(),
                    op: meta.op,
                    elems: samples,
                    ns,
                })
                .collect(),
            samples,
            pre_opt_instrs: self.pre_opt_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::sample_seed;
    use crate::uncertain::Uncertain;

    fn run<T: Value>(k: &Kernel<T>, seed: u64, n: usize) -> Vec<T> {
        let mut seeds = (0..n as u64).map(|i| sample_seed(seed, i));
        let mut out = Vec::new();
        k.run(n, || seeds.next().unwrap(), &mut k.new_state(), &mut out);
        out
    }

    fn ops<T>(k: &Kernel<T>) -> Vec<&'static str> {
        k.metas.iter().map(|m| m.op).collect()
    }

    fn leaf_count<T>(k: &Kernel<T>) -> usize {
        k.metas
            .iter()
            .filter(|m| m.op == "leaf" || m.op == "leaf_vec")
            .count()
    }

    /// Lowers `net` raw and optimized, asserts the optimizer changed no
    /// output bit and dropped no leaf, and hands both tapes back for
    /// shape assertions.
    fn opt_preserves_f64(net: &Uncertain<f64>) -> (Kernel<f64>, Kernel<f64>) {
        let raw = Kernel::lower_raw(net).expect("lowerable");
        let opt = Kernel::lower(net).expect("lowerable");
        let raw_bits: Vec<u64> = run(&raw, 77, 257).iter().map(|x| x.to_bits()).collect();
        let opt_bits: Vec<u64> = run(&opt, 77, 257).iter().map(|x| x.to_bits()).collect();
        assert_eq!(raw_bits, opt_bits, "optimizer changed output bits");
        assert_eq!(
            leaf_count(&raw),
            leaf_count(&opt),
            "optimizer dropped a leaf — RNG draw order is broken"
        );
        (raw, opt)
    }

    fn opt_preserves_bool(net: &Uncertain<bool>) -> (Kernel<bool>, Kernel<bool>) {
        let raw = Kernel::lower_raw(net).expect("lowerable");
        let opt = Kernel::lower(net).expect("lowerable");
        assert_eq!(run(&raw, 91, 257), run(&opt, 91, 257));
        assert_eq!(leaf_count(&raw), leaf_count(&opt));
        (raw, opt)
    }

    #[test]
    fn fold_collapses_constant_subtrees_and_dce_removes_them() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        // (2 + 3) * x: the add folds to 5.0, the mul strength-reduces to
        // MulK(5.0), and DCE sweeps both point registers and the folded
        // constant. Only the leaf and one unary survive.
        let net = (Uncertain::point(2.0) + Uncertain::point(3.0)) * &x;
        let (raw, opt) = opt_preserves_f64(&net);
        assert_eq!(raw.instrs.len(), 5);
        assert_eq!(opt.instrs.len(), 2);
        assert_eq!(opt.pre_opt_len, 5);
        assert_eq!(ops(&opt), vec!["leaf_vec", "unary"]);
    }

    #[test]
    fn cse_merges_duplicate_subexpressions() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let y = Uncertain::uniform(0.0, 1.0).unwrap();
        // Two *distinct* add nodes over the same registers: CSE aliases
        // the second onto the first, copy-prop rewires the product, DCE
        // drops the duplicate column.
        let a = &x + &y;
        let b = &x + &y;
        let net = &a * &b;
        let (raw, opt) = opt_preserves_f64(&net);
        assert_eq!(raw.instrs.len(), 5);
        assert_eq!(opt.instrs.len(), 4, "duplicate add survived CSE");
    }

    #[test]
    fn muladd_fusion_fuses_single_use_products() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let y = Uncertain::uniform(0.0, 1.0).unwrap();
        let z = Uncertain::normal(1.0, 2.0).unwrap();
        let net = &x * &y + &z;
        let (raw, opt) = opt_preserves_f64(&net);
        assert_eq!(raw.instrs.len(), 5);
        assert_eq!(opt.instrs.len(), 4);
        assert!(ops(&opt).contains(&"muladd"), "ops: {:?}", ops(&opt));
    }

    #[test]
    fn mulk_add_fusion_handles_scalar_products() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let z = Uncertain::uniform(0.0, 1.0).unwrap();
        // x * 3 folds to MulK, then fuses with the add into MulKAdd; the
        // point register dies. Three instructions remain: two leaves and
        // the fused loop.
        let net = &x * 3.0 + &z;
        let (raw, opt) = opt_preserves_f64(&net);
        assert!(raw.instrs.len() > opt.instrs.len());
        assert_eq!(opt.instrs.len(), 3);
        assert!(ops(&opt).contains(&"muladd"), "ops: {:?}", ops(&opt));
    }

    #[test]
    fn shared_products_are_not_fused() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let y = Uncertain::uniform(0.0, 1.0).unwrap();
        // The product feeds two adds; fusing either would re-run the
        // multiply. Both adds must stay unfused.
        let p = &x * &y;
        let net = (&p + &x) + (&p + &y);
        let (_, opt) = opt_preserves_f64(&net);
        assert!(!ops(&opt).contains(&"muladd"), "ops: {:?}", ops(&opt));
    }

    #[test]
    fn bool_identities_keep_dead_leaves_alive() {
        let a = Uncertain::bernoulli(0.3).unwrap();
        let b = Uncertain::bernoulli(0.7).unwrap();
        // a & false folds to false; false | b aliases to b. Leaf `a` is
        // arithmetically dead but must stay on the tape: it consumes RNG
        // draws ahead of `b`, and the tree-walk samples it too.
        let net = (&a & Uncertain::point(false)) | &b;
        let (raw, opt) = opt_preserves_bool(&net);
        assert!(opt.instrs.len() < raw.instrs.len());
        assert_eq!(leaf_count(&opt), 2);
    }

    #[test]
    fn double_negation_cancels() {
        let b = Uncertain::bernoulli(0.4).unwrap();
        let net = !!(&b & &b);
        let (raw, opt) = opt_preserves_bool(&net);
        assert!(opt.instrs.len() < raw.instrs.len());
        assert!(!ops(&opt).contains(&"not"), "ops: {:?}", ops(&opt));
    }

    #[test]
    fn optimizer_is_identity_on_irreducible_tapes() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let y = Uncertain::uniform(0.0, 1.0).unwrap();
        // max has no *K form and the sub result is shared: nothing folds,
        // nothing fuses, nothing dies.
        let d = &x - &y;
        let net = d.map("max0", |v: f64| v.max(0.0)) + &d;
        let (raw, opt) = opt_preserves_f64(&net);
        assert_eq!(raw.instrs.len(), opt.instrs.len());
    }

    #[test]
    fn nan_constants_are_not_commuted() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        // NaN + x must NOT strength-reduce to AddK (which computes
        // x + NaN): with two NaN operands the propagated payload depends
        // on operand order. The binary instruction must survive.
        let net = Uncertain::point(f64::NAN) + &x;
        let (raw, opt) = opt_preserves_f64(&net);
        assert_eq!(raw.instrs.len(), opt.instrs.len());
        assert!(!ops(&opt).contains(&"unary"), "ops: {:?}", ops(&opt));
    }

    #[test]
    fn unop_apply_is_bitwise_twin_of_fill() {
        use UnOp::*;
        let all = [
            Neg,
            Abs,
            Sqrt,
            Exp,
            Ln,
            Sin,
            Cos,
            Asin,
            Atan,
            ToRadians,
            ToDegrees,
            AddK(1.5),
            SubK(1.5),
            RsubK(1.5),
            MulK(-2.5),
            DivK(3.0),
            RdivK(3.0),
            RemK(2.0),
            RremK(2.0),
            PowiK(3),
            PowfK(0.5),
            ClampK(-1.0, 1.0),
        ];
        let inputs = [
            -3.75,
            -1.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            2.25,
            1e300,
            -1e-300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut out = Vec::new();
        for op in all {
            op.fill(&inputs, &mut out, inputs.len());
            for (i, &x) in inputs.iter().enumerate() {
                assert_eq!(
                    op.apply(x).to_bits(),
                    out[i].to_bits(),
                    "{op:?} apply/fill disagree at x={x}"
                );
            }
        }
    }

    #[test]
    fn binop_apply_is_bitwise_twin_of_fill() {
        use BinOp::*;
        let all = [Add, Sub, Mul, Div, Rem, Max, Min, Atan2];
        let xs = [-2.5, -0.0, 0.0, 1.5, f64::INFINITY, f64::NAN];
        let mut out = Vec::new();
        for op in all {
            for &y in &xs {
                let ys = [y; 6];
                op.fill(&xs, &ys, &mut out, xs.len());
                for (i, &x) in xs.iter().enumerate() {
                    assert_eq!(
                        op.apply(x, y).to_bits(),
                        out[i].to_bits(),
                        "{op:?} apply/fill disagree at ({x}, {y})"
                    );
                }
            }
        }
    }

    #[test]
    fn strength_reduced_forms_match_their_binary_twins() {
        // For non-NaN constants, AddK/MulK/… must compute the same bits
        // as the two-column binary loop they replace, for every lattice
        // corner the fold can see.
        let xs = [
            -2.5,
            -0.0,
            0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let ks = [-3.0, -0.0, 0.0, 0.5, 2.0, f64::INFINITY];
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem] {
            for &k in &ks {
                let lhs = op.with_const_lhs(k).unwrap();
                let rhs = op.with_const_rhs(k).unwrap();
                for &x in &xs {
                    assert_eq!(
                        lhs.apply(x).to_bits(),
                        op.apply(k, x).to_bits(),
                        "{op:?} const-lhs {k} at {x}"
                    );
                    assert_eq!(
                        rhs.apply(x).to_bits(),
                        op.apply(x, k).to_bits(),
                        "{op:?} const-rhs {k} at {x}"
                    );
                }
            }
        }
    }
}
