//! Wire encoding of tape-expressible `Uncertain` graphs.
//!
//! A remote client cannot ship closures, so the network protocol carries
//! the *recipe* for a query graph instead: the closed-form distribution
//! behind each leaf (its [`DistSpec`]), point masses over `f64`/`bool`,
//! and the kernel tags of lifted operators. The server rebuilds the graph
//! through the same public constructors and operators the client used, so
//! the reconstruction draws **bitwise identical** sample streams — the
//! tags are already the contract the columnar kernel relies on for
//! closure/tape equivalence, and RNG draw order depends only on graph
//! structure, never on `NodeId` values.
//!
//! The encoder reads the node vocabulary the kernel lowers from
//! ([`Op`]), and carries the part of it that is data. Graphs containing
//! opaque closures (`from_fn`, untagged lifts), monadic binds,
//! encapsulation, priors, or conditioning fail to encode with
//! [`WireError::Unsupported`]; remote callers keep those workloads
//! in-process.
//!
//! # Format
//!
//! Little-endian throughout:
//!
//! ```text
//! [version u8 = 1][root_type u8: 0 = f64, 1 = bool][node_count u32]
//! node := opcode u8, then:
//!   1  leaf       [shape u8][params f64 × arity]
//!   2  point f64  [value f64]
//!   3  point bool [value u8: 0|1]
//!   4  unary f64  [un u8][payload…][child u32]
//!   5  not bool   [child u32]
//!   6  binary f64 [bin u8][left u32][right u32]
//!   7  compare    [cmp u8][left u32][right u32]
//!   8  logic      [bool u8][left u32][right u32]
//! ```
//!
//! Nodes appear in topological (post-)order; children reference earlier
//! indices only, and the last node is the root. Shared sub-expressions are
//! emitted once and referenced by index, so the decoder's `Arc` sharing —
//! and with it the paper's perfect correlation of shared variables —
//! survives the round trip.

use crate::error::WireError;
use crate::graph::{post_order, ChildOrder};
use crate::kernel::{BinOp, BoolOp, CmpOp, Map2Tag, MapTag, UnOp};
use crate::node::{NodeInfo, Op};
use crate::uncertain::Uncertain;
use uncertain_dist::{Bernoulli, Beta, DistSpec, Exponential, Gaussian, Rayleigh, Uniform};

/// One decoded/encodable node with children resolved to indices: an
/// [`Op`] the wire can carry.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WireNode {
    Leaf(DistSpec),
    PointF64(f64),
    PointBool(bool),
    Map(MapTag, u32),
    Map2(Map2Tag, u32, u32),
}

impl WireNode {
    /// Whether this node produces `bool` columns (vs `f64`).
    fn is_bool(&self) -> bool {
        match self {
            WireNode::Leaf(DistSpec::Bernoulli { .. }) => true,
            WireNode::Leaf(_) | WireNode::PointF64(_) => false,
            WireNode::PointBool(_) => true,
            WireNode::Map(MapTag::NotBool, _) => true,
            WireNode::Map(MapTag::F64(_), _) => false,
            WireNode::Map2(Map2Tag::Cmp(_) | Map2Tag::Bool(_), _, _) => true,
            WireNode::Map2(Map2Tag::F64(_), _, _) => false,
        }
    }
}

/// A serialized, tape-expressible `Uncertain` graph.
///
/// Produced from a live graph by [`WireGraph::from_f64`] /
/// [`WireGraph::from_bool`], shipped as bytes via [`WireGraph::to_bytes`],
/// and rebuilt on the far side with [`WireGraph::from_bytes`] +
/// [`WireGraph::decode_f64`] / [`WireGraph::decode_bool`].
///
/// # Examples
///
/// ```
/// use uncertain_core::{Session, Uncertain, WireGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let speed = Uncertain::normal(4.0, 1.0)?;
/// let query = speed.gt(3.0);
///
/// let bytes = WireGraph::from_bool(&query)?.to_bytes();
/// let rebuilt = WireGraph::from_bytes(&bytes)?.decode_bool()?;
///
/// // Same seed, same structure: bitwise-identical sample streams.
/// let (mut a, mut b) = (Session::seeded(7), Session::seeded(7));
/// for _ in 0..64 {
///     assert_eq!(a.sample(&query), b.sample(&rebuilt));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WireGraph {
    nodes: Vec<WireNode>,
    root_is_bool: bool,
}

const WIRE_VERSION: u8 = 1;

impl WireGraph {
    /// Encodes an `f64`-valued graph.
    ///
    /// # Errors
    ///
    /// [`WireError::Unsupported`] when the graph contains a node the wire
    /// format cannot express (opaque leaf, bind, encapsulation, prior,
    /// conditioning, untagged operator).
    pub fn from_f64(u: &Uncertain<f64>) -> Result<Self, WireError> {
        Self::encode_root(&**u.node(), false)
    }

    /// Encodes a `bool`-valued graph (the shape of every conditional).
    ///
    /// # Errors
    ///
    /// [`WireError::Unsupported`] as for [`WireGraph::from_f64`].
    pub fn from_bool(u: &Uncertain<bool>) -> Result<Self, WireError> {
        Self::encode_root(&**u.node(), true)
    }

    fn encode_root(root: &dyn NodeInfo, root_is_bool: bool) -> Result<Self, WireError> {
        let mut nodes: Vec<WireNode> = Vec::new();
        // Children are emitted before their parent and shared nodes once,
        // right child first: that order numbers the nodes, so it is part
        // of the format (server cache keys, `NodeId` minting on decode).
        post_order(
            root,
            ChildOrder::RightFirst,
            |_| Ok(()),
            |node, kids, _| {
                nodes.push(match node.op() {
                    Some(Op::Leaf(Some(s))) => WireNode::Leaf(s),
                    Some(Op::PointF64(x)) => WireNode::PointF64(x),
                    Some(Op::PointBool(b)) => WireNode::PointBool(b),
                    Some(Op::Map(t)) => WireNode::Map(t, kids[0] as u32),
                    Some(Op::Map2(t)) => WireNode::Map2(t, kids[0] as u32, kids[1] as u32),
                    // A leaf without a closed form, a node only the kernel
                    // can run, or one that needs `SampleContext`.
                    Some(Op::Leaf(None) | Op::Opaque) | None => {
                        return Err(WireError::Unsupported(node.label()))
                    }
                });
                Ok(())
            },
        )?;
        debug_assert_eq!(
            nodes.last().map(WireNode::is_bool),
            Some(root_is_bool),
            "root value type must match the encoding entry point"
        );
        Ok(Self {
            nodes,
            root_is_bool,
        })
    }

    /// Whether the root (last) node produces `bool` — i.e. whether
    /// [`WireGraph::decode_bool`] is the right decoder.
    pub fn root_is_bool(&self) -> bool {
        self.root_is_bool
    }

    /// Number of distinct nodes in the encoded graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    // -- bytes ---------------------------------------------------------

    /// Serializes the graph to its byte representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.nodes.len() * 12);
        out.push(WIRE_VERSION);
        out.push(u8::from(self.root_is_bool));
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        for node in &self.nodes {
            match *node {
                WireNode::Leaf(spec) => {
                    out.push(1);
                    put_spec(&mut out, spec);
                }
                WireNode::PointF64(x) => {
                    out.push(2);
                    out.extend_from_slice(&x.to_le_bytes());
                }
                WireNode::PointBool(b) => {
                    out.push(3);
                    out.push(u8::from(b));
                }
                WireNode::Map(MapTag::F64(un), child) => {
                    out.push(4);
                    put_un(&mut out, un);
                    out.extend_from_slice(&child.to_le_bytes());
                }
                WireNode::Map(MapTag::NotBool, child) => {
                    out.push(5);
                    out.extend_from_slice(&child.to_le_bytes());
                }
                WireNode::Map2(tag, l, r) => {
                    let (op, code) = match tag {
                        Map2Tag::F64(b) => (6, bin_code(b)),
                        Map2Tag::Cmp(c) => (7, cmp_code(c)),
                        Map2Tag::Bool(b) => (8, bool_code(b)),
                    };
                    out.push(op);
                    out.push(code);
                    out.extend_from_slice(&l.to_le_bytes());
                    out.extend_from_slice(&r.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parses a graph from bytes, validating structure as it goes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the bytes end mid-structure;
    /// [`WireError::Malformed`] for unknown opcodes, out-of-range child
    /// references, or an empty graph.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::Malformed(format!(
                "unknown wire graph version {version}"
            )));
        }
        let root_is_bool = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(WireError::Malformed(format!("unknown root type {t}"))),
        };
        let count = r.u32()? as usize;
        if count == 0 {
            return Err(WireError::Malformed("empty graph".into()));
        }
        // Each node occupies at least 2 bytes, so an honest count can
        // never exceed the remaining payload — reject absurd headers
        // before reserving memory for them.
        if count > bytes.len() {
            return Err(WireError::Malformed(format!(
                "node count {count} exceeds payload size"
            )));
        }
        let mut nodes = Vec::with_capacity(count);
        for i in 0..count {
            let child = |idx: u32| -> Result<u32, WireError> {
                if (idx as usize) < i {
                    Ok(idx)
                } else {
                    Err(WireError::Malformed(format!(
                        "node {i} references child {idx}, which is not an earlier node"
                    )))
                }
            };
            let node = match r.u8()? {
                1 => WireNode::Leaf(read_spec(&mut r)?),
                2 => WireNode::PointF64(r.f64()?),
                3 => WireNode::PointBool(match r.u8()? {
                    0 => false,
                    1 => true,
                    b => {
                        return Err(WireError::Malformed(format!("bad bool literal {b}")));
                    }
                }),
                4 => {
                    let un = read_un(&mut r)?;
                    WireNode::Map(MapTag::F64(un), child(r.u32()?)?)
                }
                5 => WireNode::Map(MapTag::NotBool, child(r.u32()?)?),
                6 => {
                    let b = read_bin(&mut r)?;
                    WireNode::Map2(Map2Tag::F64(b), child(r.u32()?)?, child(r.u32()?)?)
                }
                7 => {
                    let c = read_cmp(&mut r)?;
                    WireNode::Map2(Map2Tag::Cmp(c), child(r.u32()?)?, child(r.u32()?)?)
                }
                8 => {
                    let b = read_bool_op(&mut r)?;
                    WireNode::Map2(Map2Tag::Bool(b), child(r.u32()?)?, child(r.u32()?)?)
                }
                op => return Err(WireError::Malformed(format!("unknown node opcode {op}"))),
            };
            nodes.push(node);
        }
        let graph = Self {
            nodes,
            root_is_bool,
        };
        if graph.nodes.last().map(WireNode::is_bool) != Some(root_is_bool) {
            return Err(WireError::Malformed(
                "root type header disagrees with the root node".into(),
            ));
        }
        Ok(graph)
    }

    // -- decode --------------------------------------------------------

    /// Rebuilds the graph as a live `Uncertain<f64>`.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the root is `bool`-valued, a node's
    /// child has the wrong value type, or a distribution's parameters are
    /// rejected by its public constructor.
    pub fn decode_f64(&self) -> Result<Uncertain<f64>, WireError> {
        match self.build()? {
            Slot::F(u) => Ok(u),
            Slot::B(_) => Err(WireError::Malformed(
                "graph root is bool-valued, not f64".into(),
            )),
        }
    }

    /// Rebuilds the graph as a live `Uncertain<bool>`.
    ///
    /// # Errors
    ///
    /// As for [`WireGraph::decode_f64`], with the type check reversed.
    pub fn decode_bool(&self) -> Result<Uncertain<bool>, WireError> {
        match self.build()? {
            Slot::B(u) => Ok(u),
            Slot::F(_) => Err(WireError::Malformed(
                "graph root is f64-valued, not bool".into(),
            )),
        }
    }

    fn build(&self) -> Result<Slot, WireError> {
        if self.nodes.is_empty() {
            return Err(WireError::Malformed("empty graph".into()));
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let f = |idx: u32| -> Result<&Uncertain<f64>, WireError> {
                match slots.get(idx as usize) {
                    Some(Slot::F(u)) => Ok(u),
                    Some(Slot::B(_)) => Err(WireError::Malformed(format!(
                        "node {i} expects an f64 child, node {idx} is bool"
                    ))),
                    None => Err(WireError::Malformed(format!(
                        "node {i} references missing child {idx}"
                    ))),
                }
            };
            let b = |idx: u32| -> Result<&Uncertain<bool>, WireError> {
                match slots.get(idx as usize) {
                    Some(Slot::B(u)) => Ok(u),
                    Some(Slot::F(_)) => Err(WireError::Malformed(format!(
                        "node {i} expects a bool child, node {idx} is f64"
                    ))),
                    None => Err(WireError::Malformed(format!(
                        "node {i} references missing child {idx}"
                    ))),
                }
            };
            let slot = match *node {
                WireNode::Leaf(spec) => build_leaf(spec)?,
                WireNode::PointF64(x) => Slot::F(Uncertain::point(x)),
                WireNode::PointBool(v) => Slot::B(Uncertain::point(v)),
                WireNode::Map(MapTag::F64(un), c) => Slot::F(apply_un(un, f(c)?)?),
                WireNode::Map(MapTag::NotBool, c) => {
                    let child = b(c)?;
                    Slot::B(!child)
                }
                WireNode::Map2(Map2Tag::F64(op), l, r) => Slot::F(apply_bin(op, f(l)?, f(r)?)),
                WireNode::Map2(Map2Tag::Cmp(op), l, r) => Slot::B(apply_cmp(op, f(l)?, f(r)?)),
                WireNode::Map2(Map2Tag::Bool(op), l, r) => Slot::B(apply_bool(op, b(l)?, b(r)?)),
            };
            slots.push(slot);
        }
        Ok(slots.pop().expect("graph is non-empty"))
    }
}

/// A decoded node: the two value types the wire format carries.
enum Slot {
    F(Uncertain<f64>),
    B(Uncertain<bool>),
}

fn build_leaf(spec: DistSpec) -> Result<Slot, WireError> {
    let bad = |e: uncertain_dist::ParamError| WireError::Malformed(e.to_string());
    Ok(match spec {
        DistSpec::Gaussian { mean, std_dev } => Slot::F(Uncertain::from_distribution(
            Gaussian::new(mean, std_dev).map_err(bad)?,
        )),
        DistSpec::Uniform { low, high } => Slot::F(Uncertain::from_distribution(
            Uniform::new(low, high).map_err(bad)?,
        )),
        DistSpec::Rayleigh { scale } => Slot::F(Uncertain::from_distribution(
            Rayleigh::new(scale).map_err(bad)?,
        )),
        DistSpec::Exponential { rate } => Slot::F(Uncertain::from_distribution(
            Exponential::new(rate).map_err(bad)?,
        )),
        DistSpec::Bernoulli { p } => Slot::B(Uncertain::from_distribution(
            Bernoulli::new(p).map_err(bad)?,
        )),
        DistSpec::Beta { alpha, beta } => Slot::F(Uncertain::from_distribution(
            Beta::new(alpha, beta).map_err(bad)?,
        )),
        // `DistSpec` is non-exhaustive: a newer peer may know shapes this
        // build does not.
        #[allow(unreachable_patterns)]
        other => {
            return Err(WireError::Unsupported(format!("{other:?}")));
        }
    })
}

/// Rebuilds a tagged unary lift through the *public* operator that
/// produces that tag, so the reconstruction is closure-for-closure
/// identical to what the encoding client built.
fn apply_un(op: UnOp, x: &Uncertain<f64>) -> Result<Uncertain<f64>, WireError> {
    Ok(match op {
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
        UnOp::PowiK(n) => x.powi(n),
        UnOp::PowfK(p) => x.powf(p),
        UnOp::ClampK(lo, hi) => {
            // `f64::clamp` panics on an inverted or NaN range — reject it
            // here so hostile bytes cannot panic a serving shard later.
            if lo.is_nan() || hi.is_nan() || lo > hi {
                return Err(WireError::Malformed(format!(
                    "clamp range [{lo}, {hi}] is inverted or NaN"
                )));
            }
            x.clamp(lo, hi)
        }
    })
}

fn apply_bin(op: BinOp, a: &Uncertain<f64>, b: &Uncertain<f64>) -> Uncertain<f64> {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        BinOp::Max => a.max_u(b),
        BinOp::Min => a.min_u(b),
        BinOp::Atan2 => a.atan2(b),
    }
}

fn apply_cmp(op: CmpOp, a: &Uncertain<f64>, b: &Uncertain<f64>) -> Uncertain<bool> {
    match op {
        CmpOp::Gt => a.gt(b),
        CmpOp::Lt => a.lt(b),
        CmpOp::Ge => a.ge(b),
        CmpOp::Le => a.le(b),
        CmpOp::Eq => a.eq_exact(b),
        CmpOp::Ne => a.ne_exact(b),
    }
}

fn apply_bool(op: BoolOp, a: &Uncertain<bool>, b: &Uncertain<bool>) -> Uncertain<bool> {
    match op {
        BoolOp::And => a & b,
        BoolOp::Or => a | b,
        BoolOp::Xor => a ^ b,
    }
}

// -- scalar codecs ------------------------------------------------------

fn put_spec(out: &mut Vec<u8>, spec: DistSpec) {
    match spec {
        DistSpec::Gaussian { mean, std_dev } => {
            out.push(1);
            out.extend_from_slice(&mean.to_le_bytes());
            out.extend_from_slice(&std_dev.to_le_bytes());
        }
        DistSpec::Uniform { low, high } => {
            out.push(2);
            out.extend_from_slice(&low.to_le_bytes());
            out.extend_from_slice(&high.to_le_bytes());
        }
        DistSpec::Rayleigh { scale } => {
            out.push(3);
            out.extend_from_slice(&scale.to_le_bytes());
        }
        DistSpec::Exponential { rate } => {
            out.push(4);
            out.extend_from_slice(&rate.to_le_bytes());
        }
        DistSpec::Bernoulli { p } => {
            out.push(5);
            out.extend_from_slice(&p.to_le_bytes());
        }
        DistSpec::Beta { alpha, beta } => {
            out.push(6);
            out.extend_from_slice(&alpha.to_le_bytes());
            out.extend_from_slice(&beta.to_le_bytes());
        }
        // Encoding of a shape this build does not know is unreachable:
        // specs only originate from this build's distributions.
        #[allow(unreachable_patterns)]
        other => unreachable!("unencodable DistSpec {other:?}"),
    }
}

fn read_spec(r: &mut Reader<'_>) -> Result<DistSpec, WireError> {
    Ok(match r.u8()? {
        1 => DistSpec::Gaussian {
            mean: r.f64()?,
            std_dev: r.f64()?,
        },
        2 => DistSpec::Uniform {
            low: r.f64()?,
            high: r.f64()?,
        },
        3 => DistSpec::Rayleigh { scale: r.f64()? },
        4 => DistSpec::Exponential { rate: r.f64()? },
        5 => DistSpec::Bernoulli { p: r.f64()? },
        6 => DistSpec::Beta {
            alpha: r.f64()?,
            beta: r.f64()?,
        },
        code => {
            return Err(WireError::Malformed(format!(
                "unknown distribution shape {code}"
            )));
        }
    })
}

fn put_un(out: &mut Vec<u8>, op: UnOp) {
    let (code, payload): (u8, &[f64]) = match op {
        UnOp::Neg => (1, &[]),
        UnOp::Abs => (2, &[]),
        UnOp::Sqrt => (3, &[]),
        UnOp::Exp => (4, &[]),
        UnOp::Ln => (5, &[]),
        UnOp::Sin => (6, &[]),
        UnOp::Cos => (7, &[]),
        UnOp::Asin => (8, &[]),
        UnOp::Atan => (9, &[]),
        UnOp::ToRadians => (10, &[]),
        UnOp::ToDegrees => (11, &[]),
        UnOp::AddK(k) => (12, &[k]),
        UnOp::SubK(k) => (13, &[k]),
        UnOp::RsubK(k) => (14, &[k]),
        UnOp::MulK(k) => (15, &[k]),
        UnOp::DivK(k) => (16, &[k]),
        UnOp::RdivK(k) => (17, &[k]),
        UnOp::RemK(k) => (18, &[k]),
        UnOp::RremK(k) => (19, &[k]),
        UnOp::PowiK(n) => {
            out.push(20);
            out.extend_from_slice(&n.to_le_bytes());
            return;
        }
        UnOp::PowfK(p) => (21, &[p]),
        UnOp::ClampK(lo, hi) => (22, &[lo, hi]),
    };
    out.push(code);
    for k in payload {
        out.extend_from_slice(&k.to_le_bytes());
    }
}

fn read_un(r: &mut Reader<'_>) -> Result<UnOp, WireError> {
    Ok(match r.u8()? {
        1 => UnOp::Neg,
        2 => UnOp::Abs,
        3 => UnOp::Sqrt,
        4 => UnOp::Exp,
        5 => UnOp::Ln,
        6 => UnOp::Sin,
        7 => UnOp::Cos,
        8 => UnOp::Asin,
        9 => UnOp::Atan,
        10 => UnOp::ToRadians,
        11 => UnOp::ToDegrees,
        12 => UnOp::AddK(r.f64()?),
        13 => UnOp::SubK(r.f64()?),
        14 => UnOp::RsubK(r.f64()?),
        15 => UnOp::MulK(r.f64()?),
        16 => UnOp::DivK(r.f64()?),
        17 => UnOp::RdivK(r.f64()?),
        18 => UnOp::RemK(r.f64()?),
        19 => UnOp::RremK(r.f64()?),
        20 => UnOp::PowiK(r.i32()?),
        21 => UnOp::PowfK(r.f64()?),
        22 => UnOp::ClampK(r.f64()?, r.f64()?),
        code => {
            return Err(WireError::Malformed(format!("unknown unary op {code}")));
        }
    })
}

fn bin_code(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 1,
        BinOp::Sub => 2,
        BinOp::Mul => 3,
        BinOp::Div => 4,
        BinOp::Rem => 5,
        BinOp::Max => 6,
        BinOp::Min => 7,
        BinOp::Atan2 => 8,
    }
}

fn read_bin(r: &mut Reader<'_>) -> Result<BinOp, WireError> {
    Ok(match r.u8()? {
        1 => BinOp::Add,
        2 => BinOp::Sub,
        3 => BinOp::Mul,
        4 => BinOp::Div,
        5 => BinOp::Rem,
        6 => BinOp::Max,
        7 => BinOp::Min,
        8 => BinOp::Atan2,
        code => {
            return Err(WireError::Malformed(format!("unknown binary op {code}")));
        }
    })
}

fn cmp_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Gt => 1,
        CmpOp::Lt => 2,
        CmpOp::Ge => 3,
        CmpOp::Le => 4,
        CmpOp::Eq => 5,
        CmpOp::Ne => 6,
    }
}

fn read_cmp(r: &mut Reader<'_>) -> Result<CmpOp, WireError> {
    Ok(match r.u8()? {
        1 => CmpOp::Gt,
        2 => CmpOp::Lt,
        3 => CmpOp::Ge,
        4 => CmpOp::Le,
        5 => CmpOp::Eq,
        6 => CmpOp::Ne,
        code => {
            return Err(WireError::Malformed(format!("unknown comparison {code}")));
        }
    })
}

fn bool_code(op: BoolOp) -> u8 {
    match op {
        BoolOp::And => 1,
        BoolOp::Or => 2,
        BoolOp::Xor => 3,
    }
}

fn read_bool_op(r: &mut Reader<'_>) -> Result<BoolOp, WireError> {
    Ok(match r.u8()? {
        1 => BoolOp::And,
        2 => BoolOp::Or,
        3 => BoolOp::Xor,
        code => {
            return Err(WireError::Malformed(format!("unknown connective {code}")));
        }
    })
}

/// A bounds-checked little-endian cursor over wire bytes.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Session;

    fn samples_f64(u: &Uncertain<f64>, seed: u64, n: usize) -> Vec<u64> {
        let mut s = Session::seeded(seed);
        (0..n).map(|_| s.sample(u).to_bits()).collect()
    }

    fn samples_bool(u: &Uncertain<bool>, seed: u64, n: usize) -> Vec<bool> {
        let mut s = Session::seeded(seed);
        (0..n).map(|_| s.sample(u)).collect()
    }

    /// Encodes, decodes, and checks that the decoded graph encodes to the
    /// same bytes again; returns the bytes and the decoded graph.
    fn roundtrip_f64(u: &Uncertain<f64>) -> (Vec<u8>, Uncertain<f64>) {
        let bytes = WireGraph::from_f64(u).unwrap().to_bytes();
        let rebuilt = WireGraph::from_bytes(&bytes).unwrap().decode_f64().unwrap();
        let again = WireGraph::from_f64(&rebuilt).unwrap().to_bytes();
        assert_eq!(bytes, again, "re-encoding the decoded graph moved bytes");
        (bytes, rebuilt)
    }

    fn roundtrip_bool(u: &Uncertain<bool>) -> (Vec<u8>, Uncertain<bool>) {
        let bytes = WireGraph::from_bool(u).unwrap().to_bytes();
        let rebuilt = WireGraph::from_bytes(&bytes)
            .unwrap()
            .decode_bool()
            .unwrap();
        let again = WireGraph::from_bool(&rebuilt).unwrap().to_bytes();
        assert_eq!(bytes, again, "re-encoding the decoded graph moved bytes");
        (bytes, rebuilt)
    }

    /// 64-bit FNV-1a, to pin encoded bytes in a test without spelling
    /// them out.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn gps_query_roundtrips_bitwise() {
        // The paper's Fig. 9 shape: speed from two noisy fixes, thresholded.
        let fix_err = Uncertain::rayleigh(4.0).unwrap();
        let speed = (&fix_err + &Uncertain::rayleigh(3.0).unwrap()) / 5.0;
        let query = speed.gt(1.2);
        let (_, rebuilt) = roundtrip_bool(&query);
        assert_eq!(
            samples_bool(&query, 42, 256),
            samples_bool(&rebuilt, 42, 256)
        );
    }

    #[test]
    fn shared_subexpressions_stay_correlated() {
        // x - x == 0 exactly, iff the decoder preserves sharing.
        let x = Uncertain::normal(0.0, 10.0).unwrap();
        let diff = &x - &x;
        let (_, rebuilt) = roundtrip_f64(&diff);
        let g = WireGraph::from_f64(&diff).unwrap();
        assert_eq!(g.node_count(), 2, "x emitted once, minus once");
        for bits in samples_f64(&rebuilt, 7, 64) {
            assert_eq!(f64::from_bits(bits), 0.0);
        }
    }

    #[test]
    fn all_distributions_and_scalar_ops_roundtrip() {
        let g = Uncertain::normal(1.0, 2.0).unwrap();
        let u = Uncertain::uniform(-1.0, 1.0).unwrap();
        let r = Uncertain::rayleigh(0.5).unwrap();
        let e = Uncertain::from_distribution(Exponential::new(1.5).unwrap());
        let expr = ((&g * 2.0 + 1.0) - (3.0 - &u)).abs().sqrt().exp().ln()
            + (&r % 2.0).clamp(-5.0, 5.0).powi(2).powf(0.5)
            + (2.0 % (4.0 / (&e + 10.0)))
                .sin()
                .cos()
                .atan()
                .to_radians()
                .to_degrees();
        let (bytes, rebuilt) = roundtrip_f64(&expr);
        assert_eq!(samples_f64(&expr, 3, 128), samples_f64(&rebuilt, 3, 128));
        // The node order is part of the format: the server keys its
        // decoded-graph cache on these bytes, and the decoder mints node
        // ids in this order.
        assert_eq!((bytes.len(), fnv1a(&bytes)), (290, 0x0d0d_87ff_edc7_4e9c));
    }

    #[test]
    fn comparisons_logic_and_bool_points_roundtrip() {
        let a = Uncertain::normal(0.0, 1.0).unwrap();
        let b = Uncertain::uniform(-2.0, 2.0).unwrap();
        let flag = Uncertain::bernoulli(0.5).unwrap();
        let big = a.max_u(&b).min_u(&a).atan2(&b).ge(0.0);
        let small = a.lt(&b) | a.eq_exact(&b) | a.ne_exact(&b) | a.le(&b);
        let q = (&big & &small) ^ (!&flag) ^ Uncertain::point(true);
        let (bytes, rebuilt) = roundtrip_bool(&q);
        assert_eq!(samples_bool(&q, 99, 256), samples_bool(&rebuilt, 99, 256));
        // Pinned like `all_distributions_and_scalar_ops_roundtrip`'s.
        assert_eq!((bytes.len(), fnv1a(&bytes)), (208, 0x597e_0d17_7a07_e4e0));
    }

    #[test]
    fn unsupported_nodes_are_rejected_at_encode() {
        use rand::Rng;
        // Opaque closure leaf.
        let opaque = Uncertain::from_fn("d6", |rng| rng.gen_range(1.0..=6.0));
        assert!(matches!(
            WireGraph::from_f64(&opaque),
            Err(WireError::Unsupported(_))
        ));
        // Monadic bind.
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let bound = x.flat_map("double", |v| Uncertain::point(v * 2.0));
        assert!(matches!(
            WireGraph::from_f64(&bound),
            Err(WireError::Unsupported(_))
        ));
        // Untagged generic map.
        let mapped = Uncertain::normal(0.0, 1.0)
            .unwrap()
            .map("tanh", |v| v.tanh());
        assert!(matches!(
            WireGraph::from_f64(&mapped),
            Err(WireError::Unsupported(_))
        ));
    }

    #[test]
    fn truncated_and_malformed_bytes_are_rejected() {
        let q = Uncertain::normal(0.0, 1.0).unwrap().gt(0.5);
        let bytes = WireGraph::from_bool(&q).unwrap().to_bytes();
        // Every strict prefix is truncated or malformed, never a panic.
        for cut in 0..bytes.len() {
            assert!(WireGraph::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Unknown version.
        let mut v = bytes.clone();
        v[0] = 9;
        assert!(matches!(
            WireGraph::from_bytes(&v),
            Err(WireError::Malformed(_))
        ));
        // Forward child reference.
        let mut fwd = bytes.clone();
        // Find the gt node's child bytes? Simpler: corrupt the node count.
        fwd[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(WireGraph::from_bytes(&fwd).is_err());
    }

    #[test]
    fn hostile_parameters_fail_decode_not_panic() {
        // An inverted clamp range must be rejected (f64::clamp panics on it).
        let x = Uncertain::normal(0.0, 1.0).unwrap().clamp(-1.0, 1.0);
        let mut g = WireGraph::from_f64(&x).unwrap();
        // Rewrite the clamp bounds through the byte layer.
        if let Some(WireNode::Map(MapTag::F64(UnOp::ClampK(lo, hi)), c)) = g.nodes.pop() {
            let _ = (lo, hi);
            g.nodes
                .push(WireNode::Map(MapTag::F64(UnOp::ClampK(1.0, -1.0)), c));
        } else {
            panic!("expected a clamp node at the root");
        }
        let bytes = g.to_bytes();
        let parsed = WireGraph::from_bytes(&bytes).unwrap();
        assert!(matches!(parsed.decode_f64(), Err(WireError::Malformed(_))));
        // A negative std_dev is rejected by Gaussian::new at decode.
        let sick = WireGraph {
            nodes: vec![WireNode::Leaf(DistSpec::Gaussian {
                mean: 0.0,
                std_dev: -1.0,
            })],
            root_is_bool: false,
        };
        let parsed = WireGraph::from_bytes(&sick.to_bytes()).unwrap();
        assert!(matches!(parsed.decode_f64(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn root_type_mismatch_is_an_error() {
        let q = Uncertain::normal(0.0, 1.0).unwrap().gt(0.0);
        let g = WireGraph::from_bool(&q).unwrap();
        assert!(g.root_is_bool());
        assert!(g.decode_f64().is_err());
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let g = WireGraph::from_f64(&x).unwrap();
        assert!(!g.root_is_bool());
        assert!(g.decode_bool().is_err());
    }
}
