//! The result of an optimization: the sink → cell mapping φ.

use crate::design::Design;
use serde::Serialize;
use std::collections::BTreeMap;
use wavemin_cells::units::Picoseconds;
use wavemin_cells::{CellKind, Polarity};
use wavemin_clocktree::NodeId;

/// A mapping from sinks to library cells, plus per-mode delay codes for
/// adjustable cells (Problem 1's φ, extended for multiple power modes).
#[derive(Debug, Default, Clone, PartialEq, Serialize)]
pub struct Assignment {
    /// Cell per reassigned sink (sinks absent keep their current cell).
    pub cells: BTreeMap<NodeId, String>,
    /// Per-mode adjustable-delay codes: `delay_codes[mode][node]`.
    pub delay_codes: Vec<BTreeMap<NodeId, Picoseconds>>,
}

impl Assignment {
    /// An empty assignment (changes nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sink's cell choice.
    pub fn set(&mut self, sink: NodeId, cell: impl Into<String>) {
        self.cells.insert(sink, cell.into());
    }

    /// Records an adjustable-delay code for `mode`.
    pub fn set_delay_code(&mut self, mode: usize, sink: NodeId, code: Picoseconds) {
        if self.delay_codes.len() <= mode {
            self.delay_codes.resize(mode + 1, BTreeMap::new());
        }
        self.delay_codes[mode].insert(sink, code);
    }

    /// Number of reassigned sinks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when nothing is reassigned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Applies the assignment to a design: swaps leaf cells and installs
    /// the per-mode delay codes.
    ///
    /// # Panics
    ///
    /// Panics if a delay-code mode index exceeds the design's mode count.
    pub fn apply_to(&self, design: &mut Design) {
        for (&node, cell) in &self.cells {
            design.tree.set_cell(node, cell.clone());
        }
        for (mode, codes) in self.delay_codes.iter().enumerate() {
            assert!(
                mode < design.mode_adjust.len(),
                "delay codes reference mode {mode} beyond the design's modes"
            );
            for (&node, &code) in codes {
                design.mode_adjust[mode].set_extra_delay(node, code);
            }
        }
    }

    /// Counts `(positive, negative)` polarity sinks in the assignment,
    /// given the design's library.
    #[must_use]
    pub fn polarity_counts(&self, design: &Design) -> (usize, usize) {
        let mut pos = 0;
        let mut neg = 0;
        for cell in self.cells.values() {
            match design.lib.get(cell).map(|c| c.polarity()) {
                Some(Polarity::Positive) => pos += 1,
                Some(Polarity::Negative) => neg += 1,
                None => {}
            }
        }
        (pos, neg)
    }

    /// Counts sinks assigned to each cell kind.
    #[must_use]
    pub fn kind_counts(&self, design: &Design) -> BTreeMap<CellKind, usize> {
        let mut map = BTreeMap::new();
        for cell in self.cells.values() {
            if let Some(spec) = design.lib.get(cell) {
                *map.entry(spec.kind()).or_insert(0) += 1;
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavemin_clocktree::Benchmark;

    #[test]
    fn apply_swaps_cells() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let leaves = d.leaves();
        let mut a = Assignment::new();
        a.set(leaves[0], "INV_X8");
        a.set(leaves[1], "BUF_X16");
        a.apply_to(&mut d);
        assert_eq!(d.tree.node(leaves[0]).cell, "INV_X8");
        assert_eq!(d.tree.node(leaves[1]).cell, "BUF_X16");
        assert_eq!(d.tree.node(leaves[2]).cell, "BUF_X8", "untouched sink");
    }

    #[test]
    fn apply_installs_delay_codes() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let leaf = d.leaves()[0];
        let mut a = Assignment::new();
        a.set(leaf, "ADB_X8");
        a.set_delay_code(0, leaf, Picoseconds::new(7.5));
        a.apply_to(&mut d);
        assert_eq!(d.mode_adjust[0].extra_delay[leaf.0], Picoseconds::new(7.5));
    }

    #[test]
    fn polarity_and_kind_counts() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let leaves = d.leaves();
        let mut a = Assignment::new();
        a.set(leaves[0], "INV_X8");
        a.set(leaves[1], "INV_X16");
        a.set(leaves[2], "BUF_X8");
        let (pos, neg) = a.polarity_counts(&d);
        assert_eq!((pos, neg), (1, 2));
        let kinds = a.kind_counts(&d);
        assert_eq!(kinds[&CellKind::Inverter], 2);
        assert_eq!(kinds[&CellKind::Buffer], 1);
    }

    #[test]
    fn empty_assignment_is_identity() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let before = d.tree.clone();
        Assignment::new().apply_to(&mut d);
        assert_eq!(d.tree, before);
        assert!(Assignment::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "beyond the design's modes")]
    fn out_of_range_mode_panics() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let leaf = d.leaves()[0];
        let mut a = Assignment::new();
        a.set_delay_code(3, leaf, Picoseconds::new(1.0));
        a.apply_to(&mut d);
    }
}
