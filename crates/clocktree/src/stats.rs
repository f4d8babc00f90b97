//! Clock tree statistics: the numbers a CTS report card shows.

use crate::tree::{ClockTree, NodeId};
use crate::wire::WireModel;
use serde::Serialize;
use std::collections::BTreeMap;
use wavemin_cells::units::{Femtofarads, Microns, Picoseconds};
use wavemin_cells::{CellKind, CellLibrary};

/// Summary statistics of a buffered clock tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TreeStats {
    /// Total nodes (the paper's `n`).
    pub nodes: usize,
    /// Leaf buffering elements (the paper's `|L|`).
    pub leaves: usize,
    /// Total routed wirelength.
    pub wirelength: Microns,
    /// Total wire capacitance under the given wire model.
    pub wire_cap: Femtofarads,
    /// Total flip-flop load at the sinks.
    pub sink_cap: Femtofarads,
    /// Total routing-detour trim used for skew equalization.
    pub total_trim: Picoseconds,
    /// Minimum leaf depth (root = 0).
    pub min_depth: usize,
    /// Maximum leaf depth.
    pub max_depth: usize,
    /// Fanout histogram: fanout → node count (leaves excluded).
    pub fanout_histogram: BTreeMap<usize, usize>,
    /// Cell-kind histogram over all nodes.
    pub kind_histogram: BTreeMap<CellKind, usize>,
    /// Sum of drive strengths — a crude cell-area proxy.
    pub total_drive: u64,
}

impl TreeStats {
    /// Computes the statistics. Cells missing from `lib` are skipped in
    /// the kind/drive histograms (the structural figures still count them).
    #[must_use]
    pub fn compute(tree: &ClockTree, lib: &CellLibrary, wire: WireModel) -> Self {
        let mut wirelength = Microns::ZERO;
        let mut sink_cap = Femtofarads::ZERO;
        let mut total_trim = Picoseconds::ZERO;
        let mut fanout_histogram: BTreeMap<usize, usize> = BTreeMap::new();
        let mut kind_histogram: BTreeMap<CellKind, usize> = BTreeMap::new();
        let mut total_drive = 0u64;
        for (_, node) in tree.iter() {
            wirelength += node.wire_to_parent;
            sink_cap += node.sink_cap;
            total_trim += node.delay_trim;
            if !node.is_leaf() {
                *fanout_histogram.entry(node.children().len()).or_insert(0) += 1;
            }
            if let Some(cell) = lib.get(&node.cell) {
                *kind_histogram.entry(cell.kind()).or_insert(0) += 1;
                total_drive += u64::from(cell.drive());
            }
        }
        let (mut min_depth, mut max_depth) = (usize::MAX, 0usize);
        for leaf in tree.leaves() {
            let d = depth(tree, leaf);
            min_depth = min_depth.min(d);
            max_depth = max_depth.max(d);
        }
        if min_depth == usize::MAX {
            min_depth = 0;
        }
        Self {
            nodes: tree.len(),
            leaves: tree.leaves().len(),
            wirelength,
            wire_cap: wire.capacitance(wirelength),
            sink_cap,
            total_trim,
            min_depth,
            max_depth,
            fanout_histogram,
            kind_histogram,
            total_drive,
        }
    }

    /// Mean fanout over non-leaf nodes (0 for a sink-only tree).
    #[must_use]
    pub fn mean_fanout(&self) -> f64 {
        let nodes: usize = self.fanout_histogram.values().sum();
        if nodes == 0 {
            return 0.0;
        }
        let total: usize = self.fanout_histogram.iter().map(|(f, c)| f * c).sum();
        total as f64 / nodes as f64
    }
}

fn depth(tree: &ClockTree, node: NodeId) -> usize {
    let mut d = 0;
    let mut cur = node;
    while let Some(p) = tree.node(cur).parent() {
        d += 1;
        cur = p;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;

    fn stats(bench: &Benchmark) -> TreeStats {
        let tree = bench.synthesize(4);
        TreeStats::compute(&tree, &CellLibrary::nangate45(), WireModel::default())
    }

    #[test]
    fn counts_match_benchmark_spec() {
        let b = Benchmark::s13207();
        let s = stats(&b);
        assert_eq!(s.nodes, b.total_nodes);
        assert_eq!(s.leaves, b.leaf_count);
    }

    #[test]
    fn structural_figures_are_positive() {
        let s = stats(&Benchmark::s15850());
        assert!(s.wirelength.value() > 0.0);
        assert!(s.wire_cap.value() > 0.0);
        assert!(s.sink_cap.value() > 0.0);
        assert!(s.max_depth >= s.min_depth);
        assert!(s.min_depth >= 1);
        assert!(s.total_drive > 0);
    }

    #[test]
    fn kind_histogram_counts_every_node() {
        let s = stats(&Benchmark::s13207());
        let total: usize = s.kind_histogram.values().sum();
        assert_eq!(total, s.nodes, "all-buffer benchmark: every cell known");
        assert_eq!(s.kind_histogram.get(&CellKind::Inverter), None);
    }

    #[test]
    fn fanout_histogram_respects_arity() {
        let b = Benchmark::s13207();
        let s = stats(&b);
        let max_fanout = *s.fanout_histogram.keys().max().unwrap();
        assert!(max_fanout <= b.arity.max(2));
        // Mean sinks per internal node is bounded by the max fanout.
        assert!(s.mean_fanout() <= max_fanout as f64);
        assert!(s.mean_fanout() >= 1.0);
    }

    #[test]
    fn equalized_trees_carry_trim() {
        let s = stats(&Benchmark::s35932());
        assert!(s.total_trim.value() > 0.0);
    }
}
