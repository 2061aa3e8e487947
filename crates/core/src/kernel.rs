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
//!   once and both parents read its register. The tape is data: an
//!   [`Instr`] is an operation code and its source registers, and only
//!   leaves and opaque closures point at their node. The tape carries no
//!   labels; a profile looks them up in the network.
//! * **Registers**: structure-of-arrays column buffers (`Vec<f64>`,
//!   `Vec<bool>`, or `Vec<T>` for opaque values), one per instruction.
//!   Because emission is post-order, an instruction's destination index is
//!   strictly greater than its sources' — `split_at_mut` gives the
//!   disjoint mutable/shared views without unsafe code. The columns live
//!   in a [`KernelState`] the session keeps and every run refits to its
//!   tape, and a tape runs [`Kernel::chunk`] rows per pass: 256 KiB of
//!   8-byte registers, within 128–4096 rows.
//! * **Leaves** fill their column from per-sample RNGs seeded exactly as
//!   the tree-walk seeds each joint sample (from the session's query
//!   stream), and instructions consume each sample's RNG in exactly the
//!   order the tree-walk visits nodes — so a kernel batch is **bitwise
//!   identical** to the tree-walk, sample for sample.
//! * **Tagged arithmetic** (`+ - * / %`, comparisons, boolean ops, and the
//!   `f64` method lifts) runs as tight monomorphic loops over columns that
//!   the compiler can unroll and vectorize. The trig lifts run
//!   `uncertain_dist::trig`'s portable column passes, not libm, and
//!   [`UnOp::apply`]/[`BinOp::apply`] call their scalar twins. Untagged `map`/`map2` closures
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

use crate::graph::{post_order, ChildOrder};
use crate::node::{LeafNode, Map2Node, MapNode, NodeId, Op, PointNode};
use crate::uncertain::{Uncertain, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uncertain_dist::trig;

/// Bytes of register columns one pass over a chunk of rows may span
/// ([`Kernel::chunk`]). It bounds the scratch a session keeps between
/// queries, not only the working set of one pass.
const CHUNK_BYTES: usize = 256 * 1024;

/// Fewest rows per column pass, for tapes past 256 registers: shorter
/// passes pay the per-instruction dispatch on too few rows.
const MIN_CHUNK: usize = 128;

/// Most rows per column pass, for tapes of a few registers.
const MAX_CHUNK: usize = 4096;

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

/// `out` sized to `n` rows, for a column pass that writes every one. A
/// register that already has `n` rows is not touched first.
fn rows(out: &mut Vec<f64>, n: usize) -> &mut [f64] {
    out.resize(n, 0.0);
    out
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
            UnOp::Sin => trig::sin_column(&a[..n], rows(out, n)),
            UnOp::Cos => trig::cos_column(&a[..n], rows(out, n)),
            UnOp::Asin => trig::asin_column(&a[..n], rows(out, n)),
            UnOp::Atan => trig::atan_column(&a[..n], rows(out, n)),
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
            UnOp::Sin => trig::sin(x),
            UnOp::Cos => trig::cos(x),
            UnOp::Asin => trig::asin(x),
            UnOp::Atan => trig::atan(x),
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
            BinOp::Atan2 => trig::atan2_column(&a[..n], &b[..n], rows(out, n)),
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
            BinOp::Atan2 => trig::atan2(x, y),
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

/// One register: the column of values its instruction wrote for the
/// current chunk's rows. The two scalar types the tape computes on are
/// held as they are; any other value type sits behind `dyn Any`.
pub(crate) enum Col {
    F64(Vec<f64>),
    Bool(Vec<bool>),
    Other(Box<dyn Any + Send>),
}

const MISTYPED: &str = "kernel register column has its instruction's output type";

impl Col {
    /// An empty column of `T`s.
    fn of<T: Value>() -> Self {
        if TypeId::of::<T>() == TypeId::of::<f64>() {
            Col::F64(Vec::new())
        } else if TypeId::of::<T>() == TypeId::of::<bool>() {
            Col::Bool(Vec::new())
        } else {
            Col::Other(Box::new(Vec::<T>::new()))
        }
    }

    /// Empties this register and makes it a column of `T`s with room for
    /// `rows` rows, reserved exactly. A column that already holds `T`s
    /// keeps its buffer, capacity included; telling costs a type
    /// comparison, not an allocation.
    fn fit<T: Value>(&mut self, rows: usize) {
        let holds = match self {
            Col::F64(_) => TypeId::of::<T>() == TypeId::of::<f64>(),
            Col::Bool(_) => TypeId::of::<T>() == TypeId::of::<bool>(),
            Col::Other(v) => (**v).is::<Vec<T>>(),
        };
        if !holds {
            *self = Col::of::<T>();
        }
        let v = self.typed_mut::<T>();
        v.clear();
        v.reserve_exact(rows);
    }

    fn f64s(&self) -> &[f64] {
        let Col::F64(v) = self else {
            panic!("{MISTYPED}")
        };
        v
    }

    fn f64s_mut(&mut self) -> &mut Vec<f64> {
        let Col::F64(v) = self else {
            panic!("{MISTYPED}")
        };
        v
    }

    fn bools(&self) -> &[bool] {
        let Col::Bool(v) = self else {
            panic!("{MISTYPED}")
        };
        v
    }

    fn bools_mut(&mut self) -> &mut Vec<bool> {
        let Col::Bool(v) = self else {
            panic!("{MISTYPED}")
        };
        v
    }

    /// The column as a `Vec<T>`, for code generic in the value type.
    fn typed<T: 'static>(&self) -> &Vec<T> {
        let any: &dyn Any = match self {
            Col::F64(v) => v,
            Col::Bool(v) => v,
            Col::Other(v) => &**v,
        };
        any.downcast_ref().expect(MISTYPED)
    }

    fn typed_mut<T: 'static>(&mut self) -> &mut Vec<T> {
        let any: &mut dyn Any = match self {
            Col::F64(v) => v,
            Col::Bool(v) => v,
            Col::Other(v) => &mut **v,
        };
        any.downcast_mut().expect(MISTYPED)
    }
}

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

/// The part of a tape that stays code: a leaf's sampler, an untagged
/// `map`/`map2` closure, or a point mass of a type the tape does not hold
/// as data. The node implements it itself, so an instruction points at
/// its node and lowering one costs a reference count, not an allocation.
pub(crate) trait Opaque: Send + Sync {
    /// Fits `col` to hold `rows` rows of the node's value type
    /// ([`Col::fit`]).
    fn fit(&self, col: &mut Col, rows: usize);

    /// Writes `n` rows to `out` from the operand columns `args` (left to
    /// right), or, for a leaf, from the rows' RNGs.
    fn fill(&self, args: &[&Col], out: &mut Col, rngs: &mut [SmallRng], n: usize);

    /// The profile mnemonic ([`crate::obs::InstrCost::op`]).
    fn mnemonic(&self) -> &'static str;
}

impl<T: Value> Opaque for LeafNode<T> {
    fn fit(&self, col: &mut Col, rows: usize) {
        col.fit::<T>(rows);
    }

    fn fill(&self, _: &[&Col], out: &mut Col, rngs: &mut [SmallRng], n: usize) {
        let out = out.typed_mut::<T>();
        if let Some(fill) = self.fill_fn() {
            // Vectorized column fill — bitwise-identical to the scalar
            // loop below by the `fill_column` contract.
            fill(&mut rngs[..n], out);
        } else {
            out.clear();
            out.reserve(n);
            for rng in rngs[..n].iter_mut() {
                out.push(self.sample_raw(rng));
            }
        }
    }

    fn mnemonic(&self) -> &'static str {
        // Vectorized column fills are told apart so the obs layer can
        // report scalar vs. batched leaf cost separately.
        if self.fill_fn().is_some() {
            "leaf_vec"
        } else {
            "leaf"
        }
    }
}

impl<T: Value> Opaque for PointNode<T> {
    fn fit(&self, col: &mut Col, rows: usize) {
        col.fit::<T>(rows);
    }

    fn fill(&self, _: &[&Col], out: &mut Col, _: &mut [SmallRng], n: usize) {
        let out = out.typed_mut::<T>();
        out.clear();
        out.extend((0..n).map(|_| self.value().clone()));
    }

    fn mnemonic(&self) -> &'static str {
        "point"
    }
}

impl<A: Value, T: Value> Opaque for MapNode<A, T> {
    fn fit(&self, col: &mut Col, rows: usize) {
        col.fit::<T>(rows);
    }

    fn fill(&self, args: &[&Col], out: &mut Col, _: &mut [SmallRng], n: usize) {
        let a = args[0].typed::<A>();
        let out = out.typed_mut::<T>();
        out.clear();
        out.extend(a[..n].iter().map(|v| self.apply(v.clone())));
    }

    fn mnemonic(&self) -> &'static str {
        "map"
    }
}

impl<A: Value, B: Value, T: Value> Opaque for Map2Node<A, B, T> {
    fn fit(&self, col: &mut Col, rows: usize) {
        col.fit::<T>(rows);
    }

    fn fill(&self, args: &[&Col], out: &mut Col, _: &mut [SmallRng], n: usize) {
        let (a, b) = (args[0].typed::<A>(), args[1].typed::<B>());
        let out = out.typed_mut::<T>();
        out.clear();
        out.extend(
            a[..n]
                .iter()
                .zip(&b[..n])
                .map(|(x, y)| self.apply(x.clone(), y.clone())),
        );
    }

    fn mnemonic(&self) -> &'static str {
        "map2"
    }
}

/// One tape instruction. Instruction `i` writes register `i`, and every
/// operand names a lower register: the tape is in post-order, so
/// `dst > src` always holds and `split_at_mut` hands out the destination
/// beside its sources without unsafe code.
///
/// The tape is data. Only the four opaque variants keep a pointer (to
/// their node); the rest are operation codes and register numbers, so
/// the optimizer rewrites instructions in place and the run loop is one
/// `match`.
///
/// `Leaf` is pinned: leaves consume per-sample RNG draws, and every
/// sample's RNG is shared across the whole tape in tape order — dropping,
/// merging, or reordering a leaf would shift every later leaf's draws and
/// break bitwise equality with the tree-walk. `Point`, `Map` and `Map2`
/// are pure per-element code the optimizer must not fold or merge, but
/// may drop when dead.
pub(crate) enum Instr {
    /// A leaf's column fill.
    Leaf(Arc<dyn Opaque>),
    /// A point mass of a type other than `f64`/`bool`.
    Point(Arc<dyn Opaque>),
    /// An untagged (or not `f64`/`bool`-typed) unary lift.
    Map(Arc<dyn Opaque>, usize),
    /// An untagged (or not `f64`/`bool`-typed) binary lift.
    Map2(Arc<dyn Opaque>, usize, usize),
    ConstF64(f64),
    ConstBool(bool),
    Un(UnOp, usize),
    Bin(BinOp, usize, usize),
    Cmp(CmpOp, usize, usize),
    Bool(BoolOp, usize, usize),
    Not(usize),
    /// Fused `a*b + c` (or `c + a*b` when `c_first`): the optimizer's
    /// replacement for an `Add` whose `Mul` operand has no other use. The
    /// two IEEE operations are still performed separately per element —
    /// this is *loop* fusion (one column pass and one register instead of
    /// two), **not** a hardware FMA contraction, so results stay bitwise
    /// identical to the unfused tape.
    MulAdd {
        a: usize,
        b: usize,
        c: usize,
        c_first: bool,
    },
    /// Fused `a*k + c` / `c + a*k` — the strength-reduced (`MulK`) twin of
    /// `MulAdd`, with the same bitwise guarantee.
    MulKAdd {
        k: f64,
        a: usize,
        c: usize,
        c_first: bool,
    },
}

impl Instr {
    /// Fits `col` to hold `rows` rows of this instruction's output type
    /// ([`Col::fit`]).
    fn fit(&self, col: &mut Col, rows: usize) {
        match self {
            Instr::Leaf(f) | Instr::Point(f) | Instr::Map(f, _) | Instr::Map2(f, ..) => {
                f.fit(col, rows)
            }
            Instr::ConstBool(_) | Instr::Cmp(..) | Instr::Bool(..) | Instr::Not(_) => {
                col.fit::<bool>(rows)
            }
            Instr::ConstF64(_)
            | Instr::Un(..)
            | Instr::Bin(..)
            | Instr::MulAdd { .. }
            | Instr::MulKAdd { .. } => col.fit::<f64>(rows),
        }
    }

    /// The profile mnemonic ([`crate::obs::InstrCost::op`]).
    fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Leaf(f) | Instr::Point(f) | Instr::Map(f, _) | Instr::Map2(f, ..) => {
                f.mnemonic()
            }
            Instr::ConstF64(_) | Instr::ConstBool(_) => "point",
            Instr::Un(..) => "unary",
            Instr::Bin(..) => "binary",
            Instr::Cmp(..) => "cmp",
            Instr::Bool(..) => "bool",
            Instr::Not(_) => "not",
            Instr::MulAdd { .. } | Instr::MulKAdd { .. } => "muladd",
        }
    }

    /// The registers this instruction reads.
    fn srcs(&self) -> impl Iterator<Item = usize> {
        let (a, b, c) = match *self {
            Instr::Leaf(_) | Instr::Point(_) | Instr::ConstF64(_) | Instr::ConstBool(_) => {
                (None, None, None)
            }
            Instr::Map(_, a) | Instr::Un(_, a) | Instr::Not(a) => (Some(a), None, None),
            Instr::Map2(_, a, b)
            | Instr::Bin(_, a, b)
            | Instr::Cmp(_, a, b)
            | Instr::Bool(_, a, b)
            | Instr::MulKAdd { a, c: b, .. } => (Some(a), Some(b), None),
            Instr::MulAdd { a, b, c, .. } => (Some(a), Some(b), Some(c)),
        };
        [a, b, c].into_iter().flatten()
    }

    /// Renumbers every operand `r` to `map[r]`, in place.
    fn remap(&mut self, map: &[usize]) {
        let (a, b, c) = match self {
            Instr::Leaf(_) | Instr::Point(_) | Instr::ConstF64(_) | Instr::ConstBool(_) => {
                (None, None, None)
            }
            Instr::Map(_, a) | Instr::Un(_, a) | Instr::Not(a) => (Some(a), None, None),
            Instr::Map2(_, a, b)
            | Instr::Bin(_, a, b)
            | Instr::Cmp(_, a, b)
            | Instr::Bool(_, a, b)
            | Instr::MulKAdd { a, c: b, .. } => (Some(a), Some(b), None),
            Instr::MulAdd { a, b, c, .. } => (Some(a), Some(b), Some(c)),
        };
        for r in [a, b, c].into_iter().flatten() {
            *r = map[*r];
        }
    }

    /// Runs this instruction (the one at `dst`) over `n` rows, reading its
    /// operands from the registers below `dst`.
    fn run(&self, regs: &mut [Col], dst: usize, rngs: &mut [SmallRng], n: usize) {
        let (lo, hi) = regs.split_at_mut(dst);
        let out = &mut hi[0];
        match *self {
            Instr::Leaf(ref f) | Instr::Point(ref f) => f.fill(&[], out, rngs, n),
            Instr::Map(ref f, a) => f.fill(&[&lo[a]], out, rngs, n),
            Instr::Map2(ref f, a, b) => f.fill(&[&lo[a], &lo[b]], out, rngs, n),
            Instr::ConstF64(x) => {
                let out = out.f64s_mut();
                out.clear();
                out.resize(n, x);
            }
            Instr::ConstBool(x) => {
                let out = out.bools_mut();
                out.clear();
                out.resize(n, x);
            }
            Instr::Un(op, a) => op.fill(lo[a].f64s(), out.f64s_mut(), n),
            Instr::Bin(op, a, b) => op.fill(lo[a].f64s(), lo[b].f64s(), out.f64s_mut(), n),
            Instr::Cmp(op, a, b) => op.fill(lo[a].f64s(), lo[b].f64s(), out.bools_mut(), n),
            Instr::Bool(op, a, b) => op.fill(lo[a].bools(), lo[b].bools(), out.bools_mut(), n),
            Instr::Not(a) => {
                let out = out.bools_mut();
                out.clear();
                out.extend(lo[a].bools()[..n].iter().map(|&x| !x));
            }
            Instr::MulAdd { a, b, c, c_first } => {
                let (a, b, c) = (lo[a].f64s(), lo[b].f64s(), lo[c].f64s());
                let out = out.f64s_mut();
                out.clear();
                let it = a[..n].iter().zip(&b[..n]).zip(&c[..n]);
                if c_first {
                    out.extend(it.map(|((&x, &y), &z)| z + x * y));
                } else {
                    out.extend(it.map(|((&x, &y), &z)| x * y + z));
                }
            }
            Instr::MulKAdd { k, a, c, c_first } => {
                let (a, c) = (lo[a].f64s(), lo[c].f64s());
                let out = out.f64s_mut();
                out.clear();
                let it = a[..n].iter().zip(&c[..n]);
                if c_first {
                    out.extend(it.map(|(&x, &z)| z + x * k));
                } else {
                    out.extend(it.map(|(&x, &z)| x * k + z));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

/// The columnar compilation of a network rooted in a `T`: a flat
/// instruction tape whose instructions also say what column each
/// register holds.
///
/// A kernel is immutable and shareable (`Send + Sync`); the scratch it
/// runs in is a [`KernelState`], which one session keeps for all its
/// kernels.
pub(crate) struct Kernel<T> {
    instrs: Vec<Instr>,
    /// The network node each instruction computes. Profiles look its
    /// label up in the network only when asked.
    nodes: Vec<NodeId>,
    root: usize,
    /// Tape length as lowered, before the optimizer ran.
    pre_opt_len: usize,
    /// This tape's number, unique in the process: a scratch already
    /// fitted to it needs no refit ([`KernelState::fit`]).
    tape: u64,
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

/// The scratch a tape runs in: the register columns and the per-row RNGs.
///
/// A session keeps one and runs every kernel query in it, whatever tape
/// the query runs: [`Kernel::run`] refits it to its tape, so a query on a
/// cached kernel allocates nothing here. Between queries a session keeps
/// only the last tape's registers, each with room for the largest pass a
/// tape has run in it, which is at most that tape's
/// [`chunk`](Kernel::chunk). An empty scratch (`default`) is where a
/// sharded worker starts.
#[derive(Default)]
pub(crate) struct KernelState {
    regs: Vec<Col>,
    rngs: Vec<SmallRng>,
    /// The tape ([`Kernel::tape`]) the registers are fitted to, and the
    /// rows each has room for.
    fitted: Option<(u64, usize)>,
}

/// Numbers every tape lowered in the process ([`Kernel::tape`]).
static TAPES: AtomicU64 = AtomicU64::new(0);

impl std::fmt::Debug for KernelState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelState")
            .field("regs", &self.regs.len())
            .finish()
    }
}

impl KernelState {
    /// Refits the scratch to tape number `tape`, `instrs`, for passes of
    /// up to `rows` rows: a register whose column already holds its
    /// instruction's type keeps its buffer, any other is retyped, and
    /// registers past the tape are dropped. A scratch last fitted to the
    /// same tape for as many rows is left as it is.
    fn fit(&mut self, tape: u64, instrs: &[Instr], rows: usize) {
        if matches!(self.fitted, Some((t, r)) if t == tape && r >= rows) {
            return;
        }
        self.fitted = Some((tape, rows));
        self.regs.truncate(instrs.len());
        self.regs.resize_with(instrs.len(), || Col::F64(Vec::new()));
        for (instr, col) in instrs.iter().zip(&mut self.regs) {
            instr.fit(col, rows);
        }
        self.rngs.clear();
        self.rngs.reserve_exact(rows);
    }

    /// Seeds the RNGs of the next `take` rows from the query stream.
    fn seed_rows(&mut self, take: usize, next_seed: &mut impl FnMut() -> u64) {
        self.rngs.clear();
        self.rngs
            .extend((0..take).map(|_| SmallRng::seed_from_u64(next_seed())));
    }

    /// Drops the rows of registers that hold neither `f64` nor `bool`:
    /// such values can own memory, and a session keeps buffers between
    /// queries, not values.
    fn drop_values(&mut self, instrs: &[Instr]) {
        for (instr, col) in instrs.iter().zip(&mut self.regs) {
            if let Col::Other(_) = col {
                instr.fit(col, 0);
            }
        }
    }

    /// Bytes of column buffer the `f64` and `bool` registers hold.
    #[cfg(test)]
    pub(crate) fn scalar_column_bytes(&self) -> usize {
        self.regs
            .iter()
            .map(|col| match col {
                Col::F64(v) => v.capacity() * std::mem::size_of::<f64>(),
                Col::Bool(v) => v.capacity(),
                Col::Other(_) => 0,
            })
            .sum()
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
    /// raw one-instruction-per-node form, kept for the optimizer tests
    /// that compare pre- and post-optimizer tapes.
    ///
    /// One [`post_order`] walk, left child first (the order the tree-walk
    /// draws in, so each leaf column consumes every row's RNG exactly when
    /// the tree-walk would), maps each node's [`Op`] to its instruction
    /// over its children's registers, and stops at the first node without
    /// one. The walk is iterative, so thousand-node evidence chains lower
    /// safely in debug builds, and it allocates nothing per node beyond
    /// the tape itself: no label, no list of children, no boxed
    /// instruction.
    pub(crate) fn lower_raw(network: &Uncertain<T>) -> Option<Self> {
        let root = network.node();
        let mut instrs = Vec::new();
        let mut nodes = Vec::new();
        post_order(
            &**root,
            ChildOrder::LeftFirst,
            |node| node.op().map(|_| ()).ok_or(()),
            |node, operands, parent| {
                // The pointer a leaf or closure instruction keeps comes
                // from whoever owns the node: its parent, or the network.
                let this = || {
                    match parent {
                        Some((parent, k)) => parent.child_opaque(k),
                        None => Arc::clone(root).as_opaque(),
                    }
                    .expect("a node that lowers can be pointed at")
                };
                nodes.push(node.id());
                instrs.push(match node.op().ok_or(())? {
                    Op::Leaf(_) => Instr::Leaf(this()),
                    Op::PointF64(x) => Instr::ConstF64(x),
                    Op::PointBool(b) => Instr::ConstBool(b),
                    Op::Map(MapTag::F64(op)) => Instr::Un(op, operands[0]),
                    Op::Map(MapTag::NotBool) => Instr::Not(operands[0]),
                    Op::Map2(Map2Tag::F64(op)) => Instr::Bin(op, operands[0], operands[1]),
                    Op::Map2(Map2Tag::Cmp(op)) => Instr::Cmp(op, operands[0], operands[1]),
                    Op::Map2(Map2Tag::Bool(op)) => Instr::Bool(op, operands[0], operands[1]),
                    Op::Opaque => match *operands {
                        [] => Instr::Point(this()),
                        [a] => Instr::Map(this(), a),
                        [a, b, ..] => Instr::Map2(this(), a, b),
                    },
                });
                Ok(())
            },
        )
        .ok()?;
        // Post-order visits the root last.
        let root = instrs.len() - 1;
        Some(Kernel {
            instrs,
            nodes,
            root,
            pre_opt_len: root + 1,
            // The optimizer rewrites the tape in place before anything
            // runs it, so the number stays this tape's.
            tape: TAPES.fetch_add(1, Ordering::Relaxed),
            _marker: PhantomData,
        })
    }

    /// Runs the SSA tape optimizer in place: constant folding + strength
    /// reduction, boolean identities, common-subexpression elimination,
    /// copy propagation, mul+add loop fusion, and dead-register
    /// elimination with register compaction. Every pass rewrites
    /// instructions and operands where they stand; none allocates per
    /// instruction.
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
        // `alias[i]` names a register whose column is bitwise equal to
        // `i`'s; aliases always point backwards at a register that is its
        // own representative, so one hop resolves.
        let mut alias: Vec<usize> = (0..self.instrs.len()).collect();

        self.fold_constants(&mut alias);
        self.cse(&mut alias);

        // Copy propagation: rewrite every source through the alias map so
        // aliased registers go dead.
        if alias.iter().enumerate().any(|(i, &a)| a != i) {
            for ins in &mut self.instrs {
                ins.remap(&alias);
            }
            self.root = alias[self.root];
        }

        self.fuse_muladd();
        self.dce_compact();
    }

    /// Forward constant-folding sweep. Also applies strength reduction
    /// (`Bin` with one constant operand → `*K` unary), the exact boolean
    /// identities, and double-negation elimination. A folded instruction
    /// keeps its register, whose column type does not change.
    ///
    /// Deliberately **not** folded, because the "identity" is not one in
    /// IEEE arithmetic: `x + 0.0` (breaks on `-0.0`), `x * 1.0` and
    /// `x / 1.0` (could be argued, but kept for uniformity), `x * 0.0`
    /// (breaks on infinities, NaN, and `-0.0`). Strength reduction with a
    /// NaN constant is skipped: for the commutative ops the operand swap
    /// could change which NaN payload propagates when both sides are NaN.
    fn fold_constants(&mut self, alias: &mut [usize]) {
        for i in 0..self.instrs.len() {
            let instrs = &self.instrs;
            let f64_at = |r: usize| match instrs[r] {
                Instr::ConstF64(v) => Some(v),
                _ => None,
            };
            let bool_at = |r: usize| match instrs[r] {
                Instr::ConstBool(v) => Some(v),
                _ => None,
            };
            let folded = match instrs[i] {
                Instr::Un(op, s) => f64_at(alias[s]).map(|v| Instr::ConstF64(op.apply(v))),
                Instr::Bin(op, a, b) => {
                    let (ra, rb) = (alias[a], alias[b]);
                    match (f64_at(ra), f64_at(rb)) {
                        (Some(x), Some(y)) => Some(Instr::ConstF64(op.apply(x, y))),
                        (Some(x), None) if !x.is_nan() => {
                            op.with_const_lhs(x).map(|un| Instr::Un(un, rb))
                        }
                        (None, Some(y)) if !y.is_nan() => {
                            op.with_const_rhs(y).map(|un| Instr::Un(un, ra))
                        }
                        _ => None,
                    }
                }
                Instr::Cmp(op, a, b) => match (f64_at(alias[a]), f64_at(alias[b])) {
                    (Some(x), Some(y)) => Some(Instr::ConstBool(op.apply(x, y))),
                    _ => None,
                },
                Instr::Bool(op, a, b) => {
                    let (ra, rb) = (alias[a], alias[b]);
                    match (bool_at(ra), bool_at(rb)) {
                        (Some(x), Some(y)) => Some(Instr::ConstBool(op.apply(x, y))),
                        (Some(k), None) | (None, Some(k)) => {
                            let other = if bool_at(ra).is_some() { rb } else { ra };
                            // Booleans have exact identities (unlike f64).
                            match (op, k) {
                                (BoolOp::And, true)
                                | (BoolOp::Or, false)
                                | (BoolOp::Xor, false) => {
                                    alias[i] = other;
                                    None
                                }
                                (BoolOp::And, false) => Some(Instr::ConstBool(false)),
                                (BoolOp::Or, true) => Some(Instr::ConstBool(true)),
                                (BoolOp::Xor, true) => Some(Instr::Not(other)),
                            }
                        }
                        (None, None) => None,
                    }
                }
                Instr::Not(s) => match instrs[alias[s]] {
                    Instr::ConstBool(v) => Some(Instr::ConstBool(!v)),
                    // `!!x == x` exactly.
                    Instr::Not(inner) => {
                        alias[i] = alias[inner];
                        None
                    }
                    _ => None,
                },
                _ => None,
            };
            if let Some(ins) = folded {
                self.instrs[i] = ins;
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
    fn cse(&self, alias: &mut [usize]) {
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
        // Constants and captured scalars can come off the wire, so the
        // table keeps the standard (keyed) hasher.
        let mut table: HashMap<Key, usize> = HashMap::with_capacity(self.instrs.len());
        for (i, ins) in self.instrs.iter().enumerate() {
            if alias[i] != i {
                continue;
            }
            let key = match *ins {
                Instr::ConstF64(v) => Key::ConstF64(v.to_bits()),
                Instr::ConstBool(b) => Key::ConstBool(b),
                Instr::Un(op, s) => Key::Un(un_key(op), alias[s]),
                Instr::Bin(op, a, b) => Key::Bin(op, alias[a], alias[b]),
                Instr::Cmp(op, a, b) => Key::Cmp(op, alias[a], alias[b]),
                Instr::Bool(op, a, b) => Key::Bool(op, alias[a], alias[b]),
                Instr::Not(s) => Key::Not(alias[s]),
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
    /// after copy propagation, so source registers are final. The
    /// single-use requirement (counting the root as a use) guarantees the
    /// mul register goes dead and DCE reclaims it.
    fn fuse_muladd(&mut self) {
        let n = self.instrs.len();
        let mut uses = vec![0u32; n];
        for ins in &self.instrs {
            for s in ins.srcs() {
                uses[s] += 1;
            }
        }
        uses[self.root] += 1;
        for i in 0..n {
            let Instr::Bin(BinOp::Add, p, q) = self.instrs[i] else {
                continue;
            };
            self.instrs[i] = match (&self.instrs[p], &self.instrs[q]) {
                (&Instr::Bin(BinOp::Mul, a, b), _) if uses[p] == 1 => Instr::MulAdd {
                    a,
                    b,
                    c: q,
                    c_first: false,
                },
                (_, &Instr::Bin(BinOp::Mul, a, b)) if uses[q] == 1 => Instr::MulAdd {
                    a,
                    b,
                    c: p,
                    c_first: true,
                },
                (&Instr::Un(UnOp::MulK(k), a), _) if uses[p] == 1 => Instr::MulKAdd {
                    k,
                    a,
                    c: q,
                    c_first: false,
                },
                (_, &Instr::Un(UnOp::MulK(k), a)) if uses[q] == 1 => Instr::MulKAdd {
                    k,
                    a,
                    c: p,
                    c_first: true,
                },
                _ => continue,
            };
        }
    }

    /// Dead-register elimination + compaction: drops every instruction
    /// whose column nobody (transitively) reads — except leaves, which
    /// stay so each sample's RNG draw sequence matches the tree-walk
    /// (which also samples dead leaves) — then renumbers the survivors
    /// densely so the register file shrinks with the tape.
    fn dce_compact(&mut self) {
        let n = self.instrs.len();
        let mut keep = vec![false; n];
        keep[self.root] = true;
        // Reverse sweep is sound: an instruction's sources are strictly
        // below it, so every user of `i` was visited before `i`.
        for i in (0..n).rev() {
            if keep[i] || matches!(self.instrs[i], Instr::Leaf(_)) {
                keep[i] = true;
                for s in self.instrs[i].srcs() {
                    keep[s] = true;
                }
            }
        }
        if keep.iter().all(|&k| k) {
            return;
        }
        let mut map = vec![usize::MAX; n];
        for (new, old) in (0..n).filter(|&i| keep[i]).enumerate() {
            map[old] = new;
        }
        let mut kept = keep.iter();
        self.instrs
            .retain(|_| *kept.next().expect("one flag per instruction"));
        let mut kept = keep.iter();
        self.nodes
            .retain(|_| *kept.next().expect("one flag per instruction"));
        for ins in &mut self.instrs {
            ins.remap(&map);
        }
        self.root = map[self.root];
    }

    /// Rows per column pass: as many as fit [`CHUNK_BYTES`] of 8-byte
    /// registers, clamped to [`MIN_CHUNK`]`..=`[`MAX_CHUNK`].
    fn chunk(&self) -> usize {
        (CHUNK_BYTES / (8 * self.instrs.len())).clamp(MIN_CHUNK, MAX_CHUNK)
    }

    /// Runs the tape over `n` rows in `state` and **appends** the root
    /// column to `out`. Row `i`'s RNG is seeded with the `i`-th
    /// `next_seed()`, exactly as the tree-walk reseeds per joint sample;
    /// rows run a [`chunk`](Self::chunk) at a time, pulling seeds in row
    /// order.
    ///
    /// `state` is first refitted to this tape ([`KernelState`]), so it may
    /// come from any earlier run, of this tape or another: a run on a
    /// scratch that already fits allocates nothing but `out`'s growth.
    pub(crate) fn run(
        &self,
        n: usize,
        mut next_seed: impl FnMut() -> u64,
        state: &mut KernelState,
        out: &mut Vec<T>,
    ) {
        let chunk = self.chunk();
        state.fit(self.tape, &self.instrs, n.min(chunk));
        out.reserve(n);
        let mut done = 0;
        while done < n {
            let take = chunk.min(n - done);
            state.seed_rows(take, &mut next_seed);
            for (i, instr) in self.instrs.iter().enumerate() {
                instr.run(&mut state.regs, i, &mut state.rngs, take);
            }
            let root = state.regs[self.root].typed::<T>();
            out.extend_from_slice(&root[..take]);
            done += take;
        }
        state.drop_values(&self.instrs);
    }

    /// Profiles `n` rows of the tape: runs it in `state` a
    /// [`chunk`](Self::chunk) at a time, seeding each row with the next
    /// `next_seed()`, with a wall-clock timer around every instruction's
    /// column pass, and reports the exclusive per-instruction costs. The
    /// rows draw exactly the values an unprofiled [`run`](Self::run) over
    /// the same seeds would; only wall time changes.
    ///
    /// `network` is the network this kernel was lowered from: each
    /// instruction's label is its node's label there. The tape carries
    /// only node ids, so lowering never builds a label string.
    pub(crate) fn profiled_run(
        &self,
        n: usize,
        mut next_seed: impl FnMut() -> u64,
        state: &mut KernelState,
        network: &crate::graph::NetworkView,
    ) -> crate::obs::KernelProfile {
        let chunk = self.chunk();
        state.fit(self.tape, &self.instrs, n.min(chunk));
        let mut ns = vec![0u64; self.instrs.len()];
        let mut done = 0;
        while done < n {
            let take = chunk.min(n - done);
            state.seed_rows(take, &mut next_seed);
            for (i, instr) in self.instrs.iter().enumerate() {
                let start = std::time::Instant::now();
                instr.run(&mut state.regs, i, &mut state.rngs, take);
                ns[i] += start.elapsed().as_nanos() as u64;
            }
            done += take;
        }
        state.drop_values(&self.instrs);
        let samples = n as u64;
        crate::obs::KernelProfile {
            instrs: self
                .instrs
                .iter()
                .zip(&self.nodes)
                .zip(ns)
                .map(|((instr, &node), ns)| crate::obs::InstrCost {
                    node,
                    label: network
                        .node(node)
                        .expect("every lowered node is in its network")
                        .label
                        .clone(),
                    op: instr.mnemonic(),
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
    use std::hint::black_box;

    fn run<T: Value>(k: &Kernel<T>, seed: u64, n: usize) -> Vec<T> {
        let mut seeds = (0..n as u64).map(|i| sample_seed(seed, i));
        let (mut state, mut out) = (KernelState::default(), Vec::new());
        k.run(n, || seeds.next().unwrap(), &mut state, &mut out);
        out
    }

    fn ops<T>(k: &Kernel<T>) -> Vec<&'static str> {
        k.instrs.iter().map(Instr::mnemonic).collect()
    }

    fn leaf_count<T>(k: &Kernel<T>) -> usize {
        k.instrs
            .iter()
            .filter(|i| matches!(i, Instr::Leaf(_)))
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
            // Rare trig paths among common elements: cancellation at the
            // doubles nearest π/2, π and 710·π/2, Payne–Hanek reduction,
            // and a subnormal.
            std::f64::consts::FRAC_PI_2,
            0.3,
            std::f64::consts::PI,
            -0.7,
            710.0 * std::f64::consts::FRAC_PI_2,
            1e6,
            2e6,
            1.25,
            1e22,
            5e-324,
            -2.0,
        ];
        let mut out = Vec::new();
        for op in all {
            op.fill(&inputs, &mut out, inputs.len());
            for (i, &x) in inputs.iter().enumerate() {
                // `black_box` keeps the compiler from folding the scalar
                // twin at build time, where it may pick another NaN sign
                // than the hardware does at run time.
                assert_eq!(
                    black_box(op).apply(black_box(x)).to_bits(),
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
        // ±0, ±∞ and NaN in either operand take atan2's rare path among
        // common pairs.
        let xs = [
            -2.5,
            -0.0,
            0.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
            f64::NEG_INFINITY,
            0.75,
            -1e-300,
            1e300,
        ];
        let mut out = Vec::new();
        for op in all {
            for &y in &xs {
                let ys = [y; 10];
                op.fill(&xs, &ys, &mut out, xs.len());
                for (i, &x) in xs.iter().enumerate() {
                    // Unfolded at build time; see the unary twin test.
                    assert_eq!(
                        black_box(op).apply(black_box(x), black_box(y)).to_bits(),
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
                    // Unfolded at build time; see the unary twin test.
                    let (k, x) = (black_box(k), black_box(x));
                    assert_eq!(
                        black_box(lhs).apply(x).to_bits(),
                        black_box(op).apply(k, x).to_bits(),
                        "{op:?} const-lhs {k} at {x}"
                    );
                    assert_eq!(
                        black_box(rhs).apply(x).to_bits(),
                        black_box(op).apply(x, k).to_bits(),
                        "{op:?} const-rhs {k} at {x}"
                    );
                }
            }
        }
    }
}
