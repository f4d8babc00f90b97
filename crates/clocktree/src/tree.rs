//! The buffered clock tree data structure.
//!
//! An arena of nodes: one clock source (root), internal buffering elements
//! and leaf buffering elements (the *sinks* `L` of the paper — the cells
//! directly driving flip-flops). Every node carries the name of the library
//! cell currently implementing it; polarity assignment and sizing mutate
//! leaf cells through [`ClockTree::set_cell`].

use crate::geom::Point;
use serde::Serialize;
use std::fmt;
use wavemin_cells::units::{Femtofarads, Microns, Picoseconds};

/// Index of a node within a [`ClockTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The structural role of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum NodeKind {
    /// The clock source (root); exactly one per tree.
    Source,
    /// A non-leaf buffering element.
    Internal,
    /// A leaf buffering element (sink) driving flip-flops.
    Leaf,
}

/// One buffering element of the clock tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Node {
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    /// Placement location.
    pub location: Point,
    /// Structural role.
    pub kind: NodeKind,
    /// Name of the library cell implementing this node.
    pub cell: String,
    /// Routed wirelength from the parent's output to this node's input.
    pub wire_to_parent: Microns,
    /// Flip-flop load driven by a leaf (zero for non-leaves).
    pub sink_cap: Femtofarads,
    /// Extra input-side routing-detour delay used for skew equalization
    /// (a shielded snaking route: pure delay, no extra load).
    pub delay_trim: Picoseconds,
}

impl Node {
    /// The parent node, if any (the source has none).
    #[must_use]
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The fanout nodes.
    #[must_use]
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// `true` for leaf buffering elements (the paper's sinks).
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.kind == NodeKind::Leaf
    }
}

/// Errors detected by [`ClockTree::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The tree has no nodes.
    Empty,
    /// A node other than the root has no parent.
    Orphan(NodeId),
    /// Parent/child links disagree.
    BrokenLink(NodeId),
    /// Not every node is reachable from the root (cycle or disconnection).
    Unreachable(NodeId),
    /// A leaf node has children.
    LeafWithChildren(NodeId),
    /// A referenced cell name is missing from the library.
    UnknownCell(NodeId, String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => write!(f, "clock tree has no nodes"),
            TreeError::Orphan(n) => write!(f, "node {n} has no parent and is not the root"),
            TreeError::BrokenLink(n) => write!(f, "parent/child links disagree at node {n}"),
            TreeError::Unreachable(n) => write!(f, "node {n} is unreachable from the root"),
            TreeError::LeafWithChildren(n) => write!(f, "leaf node {n} has children"),
            TreeError::UnknownCell(n, c) => {
                write!(f, "node {n} references unknown cell '{c}'")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A raw per-node record used when reassembling a tree from serialized
/// form (crate-internal).
#[derive(Debug, Clone)]
pub(crate) struct NodeRecord {
    pub parent: Option<usize>,
    pub location: Point,
    pub kind: NodeKind,
    pub cell: String,
    pub wire_to_parent: Microns,
    pub sink_cap: Femtofarads,
    pub delay_trim: Picoseconds,
}

/// An arena-based buffered clock tree.
///
/// # Example
///
/// ```
/// use wavemin_clocktree::{ClockTree, Point, NodeKind};
/// use wavemin_cells::units::*;
///
/// let mut tree = ClockTree::new(Point::new(0.0, 0.0), "BUF_X16");
/// let leaf = tree.add_leaf(tree.root(), Point::new(50.0, 50.0), "BUF_X4",
///                          Microns::new(100.0), Femtofarads::new(4.0));
/// assert_eq!(tree.leaves().len(), 1);
/// assert_eq!(tree.node(leaf).cell, "BUF_X4");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClockTree {
    nodes: Vec<Node>,
    root: NodeId,
}

impl ClockTree {
    /// Creates a tree containing only the clock source.
    #[must_use]
    pub fn new(location: Point, source_cell: impl Into<String>) -> Self {
        Self {
            nodes: vec![Node {
                parent: None,
                children: Vec::new(),
                location,
                kind: NodeKind::Source,
                cell: source_cell.into(),
                wire_to_parent: Microns::ZERO,
                sink_cap: Femtofarads::ZERO,
                delay_trim: Picoseconds::ZERO,
            }],
            root: NodeId(0),
        }
    }

    /// The clock source node.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes (the paper's `n`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tree has no nodes (never for a constructed tree).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable node access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Iterates over `(id, node)` pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// All node ids in arena order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The leaf buffering elements (the paper's sink set `L`), in arena
    /// order.
    #[must_use]
    pub fn leaves(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| n.is_leaf())
            .map(|(i, _)| i)
            .collect()
    }

    /// The non-leaf buffering elements (source + internals).
    #[must_use]
    pub fn non_leaves(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| !n.is_leaf())
            .map(|(i, _)| i)
            .collect()
    }

    /// Adds an internal buffering element under `parent`.
    pub fn add_internal(
        &mut self,
        parent: NodeId,
        location: Point,
        cell: impl Into<String>,
        wire: Microns,
    ) -> NodeId {
        self.add(
            parent,
            location,
            NodeKind::Internal,
            cell,
            wire,
            Femtofarads::ZERO,
        )
    }

    /// Adds a leaf buffering element (sink) under `parent`.
    pub fn add_leaf(
        &mut self,
        parent: NodeId,
        location: Point,
        cell: impl Into<String>,
        wire: Microns,
        sink_cap: Femtofarads,
    ) -> NodeId {
        self.add(parent, location, NodeKind::Leaf, cell, wire, sink_cap)
    }

    fn add(
        &mut self,
        parent: NodeId,
        location: Point,
        kind: NodeKind,
        cell: impl Into<String>,
        wire: Microns,
        sink_cap: Femtofarads,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            parent: Some(parent),
            children: Vec::new(),
            location,
            kind,
            cell: cell.into(),
            wire_to_parent: wire,
            sink_cap,
            delay_trim: Picoseconds::ZERO,
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Replaces the library cell implementing a node (the polarity /
    /// sizing primitive).
    pub fn set_cell(&mut self, id: NodeId, cell: impl Into<String>) {
        self.nodes[id.0].cell = cell.into();
    }

    /// Splits the wire into `node` by inserting a chain repeater at the
    /// midpoint, preserving total wirelength. Returns the new node's id.
    ///
    /// Used by the synthesizer to model deep buffer chains (the ISPD'09
    /// benchmarks have more internal nodes than leaves).
    ///
    /// # Panics
    ///
    /// Panics if `node` is the root (there is no wire above it to split)
    /// or if the arena's parent/child links are inconsistent.
    // Precondition violations, not recoverable states: a caller passing
    // the root or a corrupted arena is a bug on its side.
    #[allow(clippy::expect_used)]
    pub fn insert_repeater(&mut self, node: NodeId, cell: impl Into<String>) -> NodeId {
        let parent = self.nodes[node.0]
            .parent
            .expect("cannot insert a repeater above the root");
        let wire = self.nodes[node.0].wire_to_parent;
        let loc = self.nodes[node.0]
            .location
            .midpoint(self.nodes[parent.0].location);
        let rep = NodeId(self.nodes.len());
        self.nodes.push(Node {
            parent: Some(parent),
            children: vec![node],
            location: loc,
            kind: NodeKind::Internal,
            cell: cell.into(),
            wire_to_parent: wire / 2.0,
            sink_cap: Femtofarads::ZERO,
            delay_trim: Picoseconds::ZERO,
        });
        let pos = self.nodes[parent.0]
            .children
            .iter()
            .position(|&c| c == node)
            .expect("child link must exist");
        self.nodes[parent.0].children[pos] = rep;
        self.nodes[node.0].parent = Some(rep);
        self.nodes[node.0].wire_to_parent = wire / 2.0;
        rep
    }

    /// Sorts every node's fanout list by node id. Fanout order carries no
    /// timing or noise meaning; canonicalizing makes trees comparable
    /// after serialization round-trips (repeater insertion leaves
    /// non-ascending orders behind).
    pub fn canonicalize(&mut self) {
        for node in &mut self.nodes {
            node.children.sort();
        }
    }

    /// Reassembles a tree from per-node records (parent links only; child
    /// lists are derived). Exactly one record must be a parentless source,
    /// and it must be the first. Used by the text reader, where repeater
    /// insertion may have left parents *after* their children in arena
    /// order.
    pub(crate) fn from_records(records: Vec<NodeRecord>) -> Result<Self, TreeError> {
        if records.is_empty() {
            return Err(TreeError::Empty);
        }
        let n = records.len();
        let mut nodes: Vec<Node> = Vec::with_capacity(n);
        for (i, r) in records.into_iter().enumerate() {
            match (i, r.parent) {
                (0, None) if r.kind == NodeKind::Source => {}
                (0, _) => return Err(TreeError::Orphan(NodeId(0))),
                (_, None) => return Err(TreeError::Orphan(NodeId(i))),
                (_, Some(p)) if p >= n => return Err(TreeError::BrokenLink(NodeId(i))),
                _ => {}
            }
            nodes.push(Node {
                parent: r.parent.map(NodeId),
                children: Vec::new(),
                location: r.location,
                kind: r.kind,
                cell: r.cell,
                wire_to_parent: r.wire_to_parent,
                sink_cap: r.sink_cap,
                delay_trim: r.delay_trim,
            });
        }
        for i in 0..n {
            if let Some(p) = nodes[i].parent {
                nodes[p.0].children.push(NodeId(i));
            }
        }
        let tree = Self {
            nodes,
            root: NodeId(0),
        };
        tree.validate(|_| true)?;
        Ok(tree)
    }

    /// Nodes in topological (parent-before-child) order starting at the
    /// root.
    #[must_use]
    pub fn topological_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            order.push(id);
            stack.extend(self.nodes[id.0].children.iter().copied());
        }
        order
    }

    /// Checks the structural invariants; `library_has` reports whether a
    /// cell name exists (pass `|_| true` to skip the cell check).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant found.
    // Membership test only; the reported node comes from `ids()` order.
    #[allow(clippy::disallowed_types)]
    pub fn validate(&self, library_has: impl Fn(&str) -> bool) -> Result<(), TreeError> {
        if self.nodes.is_empty() {
            return Err(TreeError::Empty);
        }
        for (id, node) in self.iter() {
            if node.parent.is_none() && id != self.root {
                return Err(TreeError::Orphan(id));
            }
            if let Some(p) = node.parent {
                if !self.nodes[p.0].children.contains(&id) {
                    return Err(TreeError::BrokenLink(id));
                }
            }
            for &c in &node.children {
                if self.nodes[c.0].parent != Some(id) {
                    return Err(TreeError::BrokenLink(id));
                }
            }
            if node.is_leaf() && !node.children.is_empty() {
                return Err(TreeError::LeafWithChildren(id));
            }
            if !library_has(&node.cell) {
                return Err(TreeError::UnknownCell(id, node.cell.clone()));
            }
        }
        let reached = self.topological_order().len();
        if reached != self.nodes.len() {
            let seen: std::collections::HashSet<_> = self.topological_order().into_iter().collect();
            let missing = self
                .ids()
                .find(|id| !seen.contains(id))
                .unwrap_or(self.root);
            return Err(TreeError::Unreachable(missing));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> ClockTree {
        let mut t = ClockTree::new(Point::new(0.0, 0.0), "BUF_X16");
        let a = t.add_internal(
            t.root(),
            Point::new(10.0, 0.0),
            "BUF_X8",
            Microns::new(10.0),
        );
        t.add_leaf(
            a,
            Point::new(20.0, 0.0),
            "BUF_X4",
            Microns::new(10.0),
            Femtofarads::new(4.0),
        );
        t.add_leaf(
            a,
            Point::new(20.0, 5.0),
            "BUF_X4",
            Microns::new(15.0),
            Femtofarads::new(4.0),
        );
        t
    }

    #[test]
    fn construction_and_accessors() {
        let t = sample_tree();
        assert_eq!(t.len(), 4);
        assert_eq!(t.leaves().len(), 2);
        assert_eq!(t.non_leaves().len(), 2);
        assert_eq!(t.node(t.root()).kind, NodeKind::Source);
        assert!(t.node(t.root()).parent().is_none());
    }

    #[test]
    fn validate_accepts_well_formed_tree() {
        let t = sample_tree();
        assert_eq!(t.validate(|_| true), Ok(()));
    }

    #[test]
    fn validate_rejects_unknown_cell() {
        let t = sample_tree();
        let err = t.validate(|c| c != "BUF_X4").unwrap_err();
        assert!(matches!(err, TreeError::UnknownCell(_, _)));
    }

    #[test]
    fn validate_detects_leaf_with_children() {
        let mut t = sample_tree();
        let leaf = t.leaves()[0];
        // Corrupt: hang a child off a leaf.
        let bad = t.add_internal(leaf, Point::new(30.0, 0.0), "BUF_X1", Microns::ZERO);
        let _ = bad;
        assert!(matches!(
            t.validate(|_| true),
            Err(TreeError::LeafWithChildren(_))
        ));
    }

    #[test]
    fn set_cell_changes_leaf() {
        let mut t = sample_tree();
        let leaf = t.leaves()[0];
        t.set_cell(leaf, "INV_X8");
        assert_eq!(t.node(leaf).cell, "INV_X8");
    }

    #[test]
    // Index lookups only; the map is never iterated.
    #[allow(clippy::disallowed_types)]
    fn topological_order_is_parent_first() {
        let t = sample_tree();
        let order = t.topological_order();
        assert_eq!(order.len(), t.len());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for (id, n) in t.iter() {
            if let Some(p) = n.parent() {
                assert!(pos[&p] < pos[&id]);
            }
        }
    }

    #[test]
    fn insert_repeater_preserves_structure_and_length() {
        let mut t = sample_tree();
        let leaf = t.leaves()[1];
        let before = t.node(leaf).wire_to_parent;
        let parent_before = t.node(leaf).parent().unwrap();
        let rep = t.insert_repeater(leaf, "BUF_X8");
        assert_eq!(t.node(leaf).parent(), Some(rep));
        assert_eq!(t.node(rep).parent(), Some(parent_before));
        let total = t.node(leaf).wire_to_parent + t.node(rep).wire_to_parent;
        assert_eq!(total, before);
        assert_eq!(t.validate(|_| true), Ok(()));
    }

    #[test]
    fn display_of_ids_and_errors() {
        assert_eq!(NodeId(3).to_string(), "n3");
        let e = TreeError::Orphan(NodeId(1));
        assert!(e.to_string().contains("n1"));
    }
}
