//! Introspection of the Bayesian network behind an `Uncertain<T>`.
//!
//! The paper's runtime "builds Bayesian networks dynamically and then, much
//! like a JIT, compiles those expression trees to executable code at
//! conditionals" (§3). This module exposes the constructed network so
//! programs, tests, and documentation can see exactly what the operators
//! built: node labels, leaf/inner structure, edges, topological order, and
//! Graphviz DOT output (used to render the paper's Figs. 7 and 8).

use crate::node::{Children, IdMap, NodeId, NodeInfo};
use crate::uncertain::{Uncertain, Value};
use std::collections::HashMap;
use std::convert::Infallible;

/// The order in which [`post_order`] expands a node's children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChildOrder {
    /// Left child first: the order the tree-walk draws in, which the
    /// kernel's leaf columns must follow.
    LeftFirst,
    /// Right child first: the order that numbers the wire encoding's
    /// nodes (so it fixes the bytes) and lists a [`NetworkView`]'s.
    RightFirst,
}

/// Initial capacity of [`post_order`]'s position map: room for a typical
/// query network (the GPS speed conditional has 58 nodes) without
/// rehashing; larger networks grow it as usual.
const WALK_CAPACITY: usize = 64;

/// Visits every node reachable from `root` once, children before
/// parents, and returns each node's position in that post-order (the
/// root's is last).
///
/// `enter` sees a node before its children are expanded and may stop the
/// walk there. `visit` then gets the node, its operands — the post-order
/// positions of its children, left to right — and the parent that
/// reached it first, with which of that parent's children it is (`None`
/// for the root). The walk is iterative (deep chains cannot overflow the
/// call stack), deduplicates shared nodes by id, and only borrows nodes:
/// a frame collects its children's positions as they finish, so a node
/// costs one map lookup per edge and one insert, and nothing is
/// allocated or reference-counted per node.
pub(crate) fn post_order<'a, E>(
    root: &'a dyn NodeInfo,
    order: ChildOrder,
    mut enter: impl FnMut(&'a dyn NodeInfo) -> Result<(), E>,
    mut visit: impl FnMut(
        &'a dyn NodeInfo,
        &[usize],
        Option<(&'a dyn NodeInfo, usize)>,
    ) -> Result<(), E>,
) -> Result<IdMap<usize>, E> {
    /// A node being expanded: its children not yet taken, and the
    /// positions of those already finished.
    struct Frame<'a> {
        node: &'a dyn NodeInfo,
        id: NodeId,
        children: Children<'a>,
        arity: usize,
        /// How many children have been taken (in `order`).
        taken: usize,
        /// Which operand of its parent this node is.
        slot: usize,
        operands: [usize; 2],
    }
    let frame = |node: &'a dyn NodeInfo, id, slot| {
        let children = node.children();
        let arity = children.iter().flatten().count();
        Frame {
            node,
            id,
            children,
            arity,
            taken: 0,
            slot,
            operands: [0; 2],
        }
    };
    let mut pos = IdMap::with_capacity_and_hasher(WALK_CAPACITY, Default::default());
    enter(root)?;
    let mut stack = vec![frame(root, root.id(), 0)];
    while let Some(top) = stack.last_mut() {
        if top.taken < 2 {
            let k = match order {
                ChildOrder::LeftFirst => top.taken,
                ChildOrder::RightFirst => 1 - top.taken,
            };
            top.taken += 1;
            let Some(child) = top.children[k] else {
                continue;
            };
            let id = child.id();
            if let Some(&p) = pos.get(&id) {
                top.operands[k] = p;
                continue;
            }
            enter(child)?;
            stack.push(frame(child, id, k));
            continue;
        }
        let done = stack
            .pop()
            .expect("the loop runs while the stack is non-empty");
        let p = pos.len();
        let parent = stack.last().map(|parent| (parent.node, done.slot));
        visit(done.node, &done.operands[..done.arity], parent)?;
        pos.insert(done.id, p);
        if let Some(parent) = stack.last_mut() {
            parent.operands[done.slot] = p;
        }
    }
    Ok(pos)
}

/// Metadata for one node of a captured network view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMeta {
    /// The node's unique id.
    pub id: NodeId,
    /// Display label (operator symbol or leaf description).
    pub label: String,
    /// Whether the node is a leaf distribution (shaded in the paper's
    /// figures).
    pub is_leaf: bool,
    /// Ids of the nodes this node depends on.
    pub dependencies: Vec<NodeId>,
}

/// A snapshot of the Bayesian network reachable from one root.
///
/// # Examples
///
/// ```
/// use uncertain_core::Uncertain;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Fig. 8(b): B = (Y + X) + X shares the node X.
/// let x = Uncertain::normal(0.0, 1.0)?;
/// let y = Uncertain::normal(0.0, 1.0)?;
/// let a = &y + &x;
/// let b = &a + &x;
/// let view = b.network();
/// assert_eq!(view.leaf_count(), 2);  // X and Y, not three leaves
/// assert_eq!(view.node_count(), 4);  // X, Y, +, +
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetworkView {
    root: NodeId,
    /// Nodes in dependency-first (topological) order.
    nodes: Vec<NodeMeta>,
    index: IdMap<usize>,
}

impl NetworkView {
    fn capture(root: &dyn NodeInfo) -> Self {
        let mut nodes: Vec<NodeMeta> = Vec::new();
        // Post-order lists dependencies before the node itself: a
        // topological order of the DAG.
        let Ok(index) = post_order(
            root,
            ChildOrder::RightFirst,
            |_| Ok(()),
            |node, operands, _| {
                let dependencies = operands.iter().map(|&k| nodes[k].id).collect();
                nodes.push(NodeMeta {
                    id: node.id(),
                    label: node.label(),
                    is_leaf: operands.is_empty(),
                    dependencies,
                });
                Ok::<(), Infallible>(())
            },
        );
        Self {
            root: root.id(),
            nodes,
            index,
        }
    }

    /// The root node's id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of distinct nodes in the network.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf (known-distribution) nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf).count()
    }

    /// Number of edges (dependency links).
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.dependencies.len()).sum()
    }

    /// Longest path from the root to a leaf (a single node has depth 1).
    pub fn depth(&self) -> usize {
        let mut depth: HashMap<NodeId, usize> = HashMap::new();
        // Nodes are topologically ordered, dependencies first.
        for meta in &self.nodes {
            let d = 1 + meta
                .dependencies
                .iter()
                .filter_map(|c| depth.get(c))
                .copied()
                .max()
                .unwrap_or(0);
            depth.insert(meta.id, d);
        }
        depth.get(&self.root).copied().unwrap_or(0)
    }

    /// Whether the network contains a node with this id.
    pub fn contains(&self, id: NodeId) -> bool {
        self.index.contains_key(&id)
    }

    /// Looks up one node's metadata.
    pub fn node(&self, id: NodeId) -> Option<&NodeMeta> {
        self.index.get(&id).map(|&i| &self.nodes[i])
    }

    /// Iterates over nodes in topological (dependencies-first) order — the
    /// ancestral-sampling order of paper §4.2.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeMeta> {
        self.nodes.iter()
    }

    /// Iterates over `(from, to)` dependency edges.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes
            .iter()
            .flat_map(|n| n.dependencies.iter().map(move |&d| (n.id, d)))
    }

    /// Renders the network in Graphviz DOT format. Leaves are shaded, as in
    /// the paper's figures.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph bayesian_network {\n  rankdir=BT;\n");
        for n in &self.nodes {
            let style = if n.is_leaf {
                ", style=filled, fillcolor=gray85"
            } else {
                ""
            };
            out.push_str(&format!(
                "  {} [label=\"{}\"{}];\n",
                n.id,
                n.label.replace('"', "'"),
                style
            ));
        }
        for (from, to) in self.edges() {
            out.push_str(&format!("  {to} -> {from};\n"));
        }
        out.push_str("}\n");
        out
    }
}

impl<T: Value> Uncertain<T> {
    /// Captures a structural snapshot of this variable's Bayesian network.
    pub fn network(&self) -> NetworkView {
        NetworkView::capture(&**self.node())
    }

    /// Renders this variable's network in Graphviz DOT format.
    pub fn to_dot(&self) -> String {
        self.network().to_dot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_leaf_network() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let v = x.network();
        assert_eq!(v.node_count(), 1);
        assert_eq!(v.leaf_count(), 1);
        assert_eq!(v.edge_count(), 0);
        assert_eq!(v.depth(), 1);
        assert_eq!(v.root(), x.id());
        assert!(v.contains(x.id()));
    }

    #[test]
    fn figure_7_shape() {
        // D = A / B; E = C + D — three leaves, two inner nodes.
        let a = Uncertain::normal(0.0, 1.0).unwrap();
        let b = Uncertain::normal(0.0, 1.0).unwrap();
        let c = Uncertain::normal(0.0, 1.0).unwrap();
        let d = &a / &b;
        let e = &c + &d;
        let v = e.network();
        assert_eq!(v.node_count(), 5);
        assert_eq!(v.leaf_count(), 3);
        assert_eq!(v.edge_count(), 4);
        assert_eq!(v.depth(), 3);
    }

    #[test]
    fn figure_8_shared_node_is_single() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let y = Uncertain::normal(0.0, 1.0).unwrap();
        let a = &y + &x;
        let b = &a + &x;
        let v = b.network();
        // Correct network (Fig. 8b): X, Y, A(+), B(+).
        assert_eq!(v.node_count(), 4);
        assert_eq!(v.leaf_count(), 2);
        // X feeds two + nodes: edges are A→Y, A→X, B→A, B→X.
        assert_eq!(v.edge_count(), 4);
    }

    #[test]
    fn topological_order_has_dependencies_first() {
        let a = Uncertain::normal(0.0, 1.0).unwrap();
        let b = &a + 1.0;
        let c = &b + 1.0;
        let v = c.network();
        let order: Vec<NodeId> = v.nodes().map(|n| n.id).collect();
        for meta in v.nodes() {
            let own_pos = order.iter().position(|&i| i == meta.id).unwrap();
            for dep in &meta.dependencies {
                let dep_pos = order.iter().position(|i| i == dep).unwrap();
                assert!(dep_pos < own_pos, "dependency must precede dependent");
            }
        }
        // Root is last in topological order.
        assert_eq!(*order.last().unwrap(), v.root());
    }

    #[test]
    fn dot_output_shape() {
        let a = Uncertain::normal(0.0, 1.0).unwrap();
        let b = &a + 1.0;
        let dot = b.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("fillcolor=gray85"), "leaves must be shaded");
        assert!(dot.contains("->"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn node_lookup_by_id() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let v = x.network();
        let meta = v.node(x.id()).unwrap();
        assert!(meta.is_leaf);
        assert!(meta.label.contains("Gaussian"));
        assert!(v.node(NodeId::fresh()).is_none());
    }
}
