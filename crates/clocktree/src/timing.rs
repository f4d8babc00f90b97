//! Elmore-delay timing analysis over the buffered clock tree.
//!
//! Arrival times are propagated from the clock source to every node,
//! tracking which clock edge each node sees: a negative-polarity cell
//! (inverter / ADI) flips the edge for its entire subtree, and rise/fall
//! delays differ, so polarity assignment genuinely perturbs arrival times —
//! the effect the paper's feasible-interval machinery controls.

use crate::tree::{ClockTree, NodeId, TreeError};
use crate::wire::WireModel;
use serde::Serialize;
use std::fmt;
use wavemin_cells::characterize::ClockEdge;
use wavemin_cells::kind::Polarity;
use wavemin_cells::units::{Femtofarads, Picoseconds, Volts};
use wavemin_cells::{CellLibrary, Characterizer};

/// Supply voltage seen by each node.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SupplyAssignment {
    /// Every node operates at the same supply (single power mode).
    Uniform(Volts),
    /// Per-node supply, indexed by [`NodeId`] (voltage islands).
    PerNode(Vec<Volts>),
}

impl SupplyAssignment {
    /// The supply at a node.
    ///
    /// # Panics
    ///
    /// Panics if a `PerNode` vector is shorter than the node index.
    #[must_use]
    pub fn at(&self, id: NodeId) -> Volts {
        match self {
            SupplyAssignment::Uniform(v) => *v,
            SupplyAssignment::PerNode(v) => v[id.0],
        }
    }
}

/// Per-node adjustments applied during analysis: process-variation
/// multipliers and ADB/ADI extra delay codes.
///
/// All vectors are indexed by node id; an empty vector means "no
/// adjustment".
#[derive(Debug, Default, Clone, PartialEq, Serialize)]
pub struct TimingAdjust {
    /// Multiplier on each node's cell delay (process variation).
    pub cell_delay_mult: Vec<f64>,
    /// Additive delay from an adjustable cell's delay code.
    pub extra_delay: Vec<Picoseconds>,
    /// Multiplier on each node's upstream wire resistance.
    pub wire_r_mult: Vec<f64>,
    /// Multiplier on each node's upstream wire capacitance.
    pub wire_c_mult: Vec<f64>,
}

impl TimingAdjust {
    /// An adjustment that changes nothing.
    #[must_use]
    pub fn identity() -> Self {
        Self::default()
    }

    fn delay_mult(&self, id: NodeId) -> f64 {
        self.cell_delay_mult.get(id.0).copied().unwrap_or(1.0)
    }

    fn extra(&self, id: NodeId) -> Picoseconds {
        self.extra_delay
            .get(id.0)
            .copied()
            .unwrap_or(Picoseconds::ZERO)
    }

    fn r_mult(&self, id: NodeId) -> f64 {
        self.wire_r_mult.get(id.0).copied().unwrap_or(1.0)
    }

    fn c_mult(&self, id: NodeId) -> f64 {
        self.wire_c_mult.get(id.0).copied().unwrap_or(1.0)
    }

    /// Sets the extra delay of one node (ADB/ADI delay code), growing the
    /// vector as needed.
    pub fn set_extra_delay(&mut self, id: NodeId, dt: Picoseconds) {
        if self.extra_delay.len() <= id.0 {
            self.extra_delay.resize(id.0 + 1, Picoseconds::ZERO);
        }
        self.extra_delay[id.0] = dt;
    }
}

/// Errors from timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum TimingError {
    /// A node references a cell absent from the library.
    UnknownCell(NodeId, String),
    /// The tree failed structural validation.
    Structure(TreeError),
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::UnknownCell(n, c) => {
                write!(f, "node {n} references unknown cell '{c}'")
            }
            TimingError::Structure(e) => write!(f, "invalid clock tree: {e}"),
        }
    }
}

impl std::error::Error for TimingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TimingError::Structure(e) => Some(e),
            TimingError::UnknownCell(..) => None,
        }
    }
}

impl From<TreeError> for TimingError {
    fn from(e: TreeError) -> Self {
        TimingError::Structure(e)
    }
}

/// The result of a timing analysis pass: arrivals, slews, loads and the
/// clock edge seen at each node, all indexed by node id.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Timing {
    /// Arrival of the tracked clock edge at each node's input.
    pub input_arrival: Vec<Picoseconds>,
    /// Arrival of the clock edge at each node's output (= the flip-flop
    /// clock pin time for leaves).
    pub output_arrival: Vec<Picoseconds>,
    /// Input slew at each node.
    pub input_slew: Vec<Picoseconds>,
    /// Capacitive load driven by each node's cell.
    pub load: Vec<Femtofarads>,
    /// Clock edge seen at each node's input when the source rises.
    pub input_edge: Vec<ClockEdge>,
}

impl Timing {
    /// Runs the analysis.
    ///
    /// The tracked event is a **rising edge at the clock source**; negative
    /// polarity cells flip the edge for their fanout.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::UnknownCell`] if a node's cell is not in
    /// `lib`, or [`TimingError::Structure`] for a malformed tree.
    pub fn analyze(
        tree: &ClockTree,
        lib: &CellLibrary,
        chr: &Characterizer,
        wire: WireModel,
        supply: &SupplyAssignment,
        adjust: Option<&TimingAdjust>,
    ) -> Result<Self, TimingError> {
        tree.validate(|_| true)?;
        let n = tree.len();
        let identity = TimingAdjust::identity();
        let adj = adjust.unwrap_or(&identity);

        let mut input_arrival = vec![Picoseconds::ZERO; n];
        let mut output_arrival = vec![Picoseconds::ZERO; n];
        let mut input_slew = vec![Picoseconds::new(20.0); n];
        let mut load = vec![Femtofarads::ZERO; n];
        let mut input_edge = vec![ClockEdge::Rise; n];

        // Loads first (children's wires + input pins, or the FF load).
        for id in tree.ids() {
            let node = tree.node(id);
            let mut c = node.sink_cap;
            for &child in node.children() {
                let cn = tree.node(child);
                let cell = lib
                    .get(&cn.cell)
                    .ok_or_else(|| TimingError::UnknownCell(child, cn.cell.clone()))?;
                c += wire.capacitance(cn.wire_to_parent) * adj.c_mult(child) + cell.c_in();
            }
            load[id.0] = c;
        }

        for id in tree.topological_order() {
            let node = tree.node(id);
            let cell = lib
                .get(&node.cell)
                .ok_or_else(|| TimingError::UnknownCell(id, node.cell.clone()))?;
            let vdd = supply.at(id);
            let (t_d, slew_out) =
                chr.timing(cell, load[id.0], input_slew[id.0], vdd, input_edge[id.0]);
            output_arrival[id.0] = input_arrival[id.0] + t_d * adj.delay_mult(id) + adj.extra(id);
            let out_edge = match cell.polarity() {
                Polarity::Positive => input_edge[id.0],
                Polarity::Negative => match input_edge[id.0] {
                    ClockEdge::Rise => ClockEdge::Fall,
                    ClockEdge::Fall => ClockEdge::Rise,
                },
            };
            for &child in node.children() {
                let cn = tree.node(child);
                let ccell = lib
                    .get(&cn.cell)
                    .ok_or_else(|| TimingError::UnknownCell(child, cn.cell.clone()))?;
                let len = cn.wire_to_parent;
                let r_mult = adj.r_mult(child);
                let c_mult = adj.c_mult(child);
                let r = wire.resistance(len) * r_mult;
                let c = wire.capacitance(len) * c_mult;
                let wire_delay = 0.69 * (r * (c / 2.0 + ccell.c_in()));
                let wire_slew = 2.2 * (r * (c / 2.0 + ccell.c_in()));
                input_arrival[child.0] = output_arrival[id.0] + wire_delay + cn.delay_trim;
                input_slew[child.0] = Picoseconds::new(slew_out.value().hypot(wire_slew.value()));
                input_edge[child.0] = out_edge;
            }
        }

        Ok(Self {
            input_arrival,
            output_arrival,
            input_slew,
            load,
            input_edge,
        })
    }

    /// `(sink, arrival)` pairs for all leaves, in arena order.
    #[must_use]
    pub fn sink_arrivals(&self, tree: &ClockTree) -> Vec<(NodeId, Picoseconds)> {
        tree.leaves()
            .into_iter()
            .map(|id| (id, self.output_arrival[id.0]))
            .collect()
    }

    /// The clock skew: spread of arrival times over the sinks.
    #[must_use]
    pub fn skew(&self, tree: &ClockTree) -> Picoseconds {
        let leaves = tree.leaves();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for id in leaves {
            let a = self.output_arrival[id.0].value();
            min = min.min(a);
            max = max.max(a);
        }
        if min.is_finite() && max.is_finite() {
            Picoseconds::new(max - min)
        } else {
            Picoseconds::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;
    use wavemin_cells::units::Microns;

    fn setup() -> (ClockTree, CellLibrary, Characterizer) {
        let mut t = ClockTree::new(Point::new(0.0, 0.0), "BUF_X32");
        let a = t.add_internal(
            t.root(),
            Point::new(50.0, 0.0),
            "BUF_X16",
            Microns::new(50.0),
        );
        t.add_leaf(
            a,
            Point::new(100.0, 0.0),
            "BUF_X4",
            Microns::new(60.0),
            Femtofarads::new(4.0),
        );
        t.add_leaf(
            a,
            Point::new(100.0, 10.0),
            "BUF_X4",
            Microns::new(60.0),
            Femtofarads::new(4.0),
        );
        (t, CellLibrary::nangate45(), Characterizer::default())
    }

    fn uniform() -> SupplyAssignment {
        SupplyAssignment::Uniform(Volts::new(1.1))
    }

    #[test]
    fn arrivals_increase_down_the_tree() {
        let (t, lib, chr) = setup();
        let timing =
            Timing::analyze(&t, &lib, &chr, WireModel::default(), &uniform(), None).unwrap();
        for (id, node) in t.iter() {
            if let Some(p) = node.parent() {
                assert!(
                    timing.input_arrival[id.0]
                        > timing.output_arrival[p.0] - Picoseconds::new(1e-9)
                );
            }
            assert!(timing.output_arrival[id.0] > timing.input_arrival[id.0]);
        }
    }

    #[test]
    fn symmetric_tree_has_zero_skew() {
        let (t, lib, chr) = setup();
        let timing =
            Timing::analyze(&t, &lib, &chr, WireModel::default(), &uniform(), None).unwrap();
        assert!(timing.skew(&t).value() < 1e-9);
    }

    #[test]
    fn inverter_flips_edge_for_subtree() {
        let (mut t, lib, chr) = setup();
        let leaf = t.leaves()[0];
        t.set_cell(leaf, "INV_X4");
        let timing =
            Timing::analyze(&t, &lib, &chr, WireModel::default(), &uniform(), None).unwrap();
        // The inverter's own input still sees the source edge...
        assert_eq!(timing.input_edge[leaf.0], ClockEdge::Rise);
        // ...and resizing changed arrival (INV_X4 differs from BUF_X4).
        assert!(timing.skew(&t).value() > 0.1);
    }

    #[test]
    fn internal_inverter_flips_children_edges() {
        let (mut t, lib, chr) = setup();
        let internal = t.node(t.root()).children()[0];
        t.set_cell(internal, "INV_X16");
        let timing =
            Timing::analyze(&t, &lib, &chr, WireModel::default(), &uniform(), None).unwrap();
        for leaf in t.leaves() {
            assert_eq!(timing.input_edge[leaf.0], ClockEdge::Fall);
        }
    }

    #[test]
    fn lower_supply_increases_arrival() {
        let (t, lib, chr) = setup();
        let hi = Timing::analyze(&t, &lib, &chr, WireModel::default(), &uniform(), None).unwrap();
        let lo = Timing::analyze(
            &t,
            &lib,
            &chr,
            WireModel::default(),
            &SupplyAssignment::Uniform(Volts::new(0.9)),
            None,
        )
        .unwrap();
        let leaf = t.leaves()[0];
        assert!(lo.output_arrival[leaf.0] > hi.output_arrival[leaf.0]);
    }

    #[test]
    fn per_node_supply_creates_skew() {
        let (t, lib, chr) = setup();
        let mut v = vec![Volts::new(1.1); t.len()];
        let slow_leaf = t.leaves()[0];
        v[slow_leaf.0] = Volts::new(0.9);
        let timing = Timing::analyze(
            &t,
            &lib,
            &chr,
            WireModel::default(),
            &SupplyAssignment::PerNode(v),
            None,
        )
        .unwrap();
        assert!(timing.skew(&t).value() > 0.5);
    }

    #[test]
    fn extra_delay_shifts_one_sink() {
        let (t, lib, chr) = setup();
        let mut adj = TimingAdjust::identity();
        let leaf = t.leaves()[1];
        adj.set_extra_delay(leaf, Picoseconds::new(12.0));
        let timing =
            Timing::analyze(&t, &lib, &chr, WireModel::default(), &uniform(), Some(&adj)).unwrap();
        assert!((timing.skew(&t).value() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn variation_multipliers_change_delay() {
        let (t, lib, chr) = setup();
        let mut adj = TimingAdjust::identity();
        adj.cell_delay_mult = vec![1.1; t.len()];
        let base = Timing::analyze(&t, &lib, &chr, WireModel::default(), &uniform(), None).unwrap();
        let slow =
            Timing::analyze(&t, &lib, &chr, WireModel::default(), &uniform(), Some(&adj)).unwrap();
        let leaf = t.leaves()[0];
        assert!(slow.output_arrival[leaf.0] > base.output_arrival[leaf.0]);
    }

    #[test]
    fn unknown_cell_is_reported() {
        let (mut t, lib, chr) = setup();
        let leaf = t.leaves()[0];
        t.set_cell(leaf, "MISSING_X1");
        let err =
            Timing::analyze(&t, &lib, &chr, WireModel::default(), &uniform(), None).unwrap_err();
        assert!(matches!(err, TimingError::UnknownCell(_, _)));
        assert!(err.to_string().contains("MISSING_X1"));
    }

    #[test]
    fn loads_include_wire_and_pin_caps() {
        let (t, lib, chr) = setup();
        let timing =
            Timing::analyze(&t, &lib, &chr, WireModel::default(), &uniform(), None).unwrap();
        let internal = t.node(t.root()).children()[0];
        // Two leaf children: 2 × (60 µm × 0.16 fF/µm + 1 fF) = 21.2 fF.
        let expect = 2.0 * (60.0 * 0.16 + 1.0);
        assert!((timing.load[internal.0].value() - expect).abs() < 1e-9);
        // Leaf load is the FF cap.
        let leaf = t.leaves()[0];
        assert_eq!(timing.load[leaf.0], Femtofarads::new(4.0));
    }
}
