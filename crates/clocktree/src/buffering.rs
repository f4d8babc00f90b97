//! Slew-constrained repeater insertion.
//!
//! CTS tools bound the clock slew at every buffering element's input: a
//! degraded edge weakens the paper's polarity-assignment assumptions (the
//! profiling slew must stay representative — Section IV-B) and slows the
//! tree. This pass walks a synthesized tree and splits any wire whose
//! receiving end sees a slew beyond the target, inserting chain repeaters
//! until the constraint holds or the iteration budget runs out.

use crate::timing::{SupplyAssignment, Timing, TimingError};
use crate::tree::{ClockTree, NodeId};
use crate::wire::WireModel;
use serde::Serialize;
use wavemin_cells::units::{Picoseconds, Volts};
use wavemin_cells::{CellLibrary, Characterizer};

/// Options for the slew repair pass.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SlewRepairOptions {
    /// Maximum allowed input slew at any node.
    pub max_slew: Picoseconds,
    /// Repeater cell inserted at wire midpoints.
    pub repeater_cell: String,
    /// Supply at which slews are analyzed.
    pub vdd: Volts,
    /// Wire model.
    pub wire: WireModel,
    /// Maximum repair sweeps (each sweep may split many wires).
    pub max_iterations: usize,
}

impl Default for SlewRepairOptions {
    fn default() -> Self {
        Self {
            max_slew: Picoseconds::new(60.0),
            repeater_cell: "BUF_X16".to_owned(),
            vdd: Volts::new(1.1),
            wire: WireModel::default(),
            max_iterations: 8,
        }
    }
}

/// The outcome of a slew repair pass.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SlewRepairReport {
    /// Repeaters inserted.
    pub repeaters_added: usize,
    /// Worst input slew before the pass.
    pub worst_slew_before: Picoseconds,
    /// Worst input slew after the pass.
    pub worst_slew_after: Picoseconds,
    /// `true` when the constraint holds everywhere after the pass.
    pub met: bool,
}

/// Repairs slew violations by splitting offending wires with repeaters.
///
/// Returns the report; the tree is modified in place. Re-equalize the
/// skew afterwards (repeaters add path delay) — e.g. with
/// [`crate::synthesis::Synthesizer::equalize_skew`].
///
/// # Errors
///
/// Propagates timing-analysis failures (e.g. an unknown repeater cell).
pub fn repair_slews(
    tree: &mut ClockTree,
    lib: &CellLibrary,
    chr: &Characterizer,
    options: &SlewRepairOptions,
) -> Result<SlewRepairReport, TimingError> {
    let supply = SupplyAssignment::Uniform(options.vdd);
    let worst = |timing: &Timing| {
        timing
            .input_slew
            .iter()
            .map(|s| s.value())
            .fold(0.0_f64, f64::max)
    };

    let initial = Timing::analyze(tree, lib, chr, options.wire, &supply, None)?;
    let worst_slew_before = Picoseconds::new(worst(&initial));
    let mut repeaters_added = 0usize;

    for _ in 0..options.max_iterations {
        let timing = Timing::analyze(tree, lib, chr, options.wire, &supply, None)?;
        // Offenders: nodes whose input slew exceeds the target and whose
        // upstream wire is long enough that splitting can help.
        let offenders: Vec<NodeId> = tree
            .ids()
            .filter(|&id| id != tree.root())
            .filter(|&id| timing.input_slew[id.0] > options.max_slew)
            .filter(|&id| tree.node(id).wire_to_parent.value() > 1.0)
            .collect();
        if offenders.is_empty() {
            break;
        }
        for id in offenders {
            tree.insert_repeater(id, &options.repeater_cell);
            repeaters_added += 1;
        }
    }

    let after = Timing::analyze(tree, lib, chr, options.wire, &supply, None)?;
    let worst_slew_after = Picoseconds::new(worst(&after));
    Ok(SlewRepairReport {
        repeaters_added,
        worst_slew_before,
        worst_slew_after,
        met: worst_slew_after <= options.max_slew,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;
    use crate::synthesis::{SynthesisOptions, Synthesizer};
    use wavemin_cells::units::{Femtofarads, Microns};

    fn context() -> (CellLibrary, Characterizer) {
        (CellLibrary::nangate45(), Characterizer::default())
    }

    /// A deliberately slew-broken tree: a weak driver through a very long
    /// wire to heavy sinks.
    fn sick_tree() -> ClockTree {
        let mut tree = ClockTree::new(Point::new(0.0, 0.0), "BUF_X2");
        let hub = tree.add_internal(
            tree.root(),
            Point::new(900.0, 0.0),
            "BUF_X2",
            Microns::new(1800.0),
        );
        for i in 0..4 {
            tree.add_leaf(
                hub,
                Point::new(1000.0, 10.0 * i as f64),
                "BUF_X4",
                Microns::new(500.0),
                Femtofarads::new(8.0),
            );
        }
        tree
    }

    #[test]
    fn repairs_a_slew_violation() {
        let (lib, chr) = context();
        let mut tree = sick_tree();
        let options = SlewRepairOptions::default();
        let report = repair_slews(&mut tree, &lib, &chr, &options).unwrap();
        assert!(
            report.worst_slew_before > options.max_slew,
            "precondition: broken ({})",
            report.worst_slew_before
        );
        assert!(report.repeaters_added > 0);
        assert!(report.worst_slew_after < report.worst_slew_before);
        assert_eq!(tree.validate(|c| lib.get(c).is_some()), Ok(()));
    }

    #[test]
    fn healthy_tree_is_untouched() {
        let (lib, chr) = context();
        let synth = Synthesizer::new(&lib, &chr, SynthesisOptions::default());
        let sinks: Vec<_> = (0..12)
            .map(|i| {
                (
                    Point::new((i * 17 % 100) as f64, (i * 29 % 100) as f64),
                    Femtofarads::new(4.0),
                )
            })
            .collect();
        let mut tree = synth.synthesize(&sinks).unwrap();
        let before = tree.clone();
        let report = repair_slews(&mut tree, &lib, &chr, &SlewRepairOptions::default()).unwrap();
        assert_eq!(report.repeaters_added, 0);
        assert!(report.met);
        assert_eq!(tree, before);
    }

    #[test]
    fn iteration_budget_is_respected() {
        let (lib, chr) = context();
        let mut tree = sick_tree();
        let options = SlewRepairOptions {
            max_slew: Picoseconds::new(0.5), // unmeetable
            max_iterations: 2,
            ..SlewRepairOptions::default()
        };
        let report = repair_slews(&mut tree, &lib, &chr, &options).unwrap();
        assert!(!report.met);
        // Each sweep can split each offending wire once: bounded growth.
        assert!(report.repeaters_added <= 2 * tree.len());
    }

    #[test]
    fn report_is_consistent_with_final_state() {
        let (lib, chr) = context();
        let mut tree = sick_tree();
        let options = SlewRepairOptions::default();
        let report = repair_slews(&mut tree, &lib, &chr, &options).unwrap();
        let timing = Timing::analyze(
            &tree,
            &lib,
            &chr,
            options.wire,
            &SupplyAssignment::Uniform(options.vdd),
            None,
        )
        .unwrap();
        let worst = timing
            .input_slew
            .iter()
            .map(|s| s.value())
            .fold(0.0_f64, f64::max);
        assert!((worst - report.worst_slew_after.value()).abs() < 1e-9);
        assert_eq!(report.met, worst <= options.max_slew.value());
    }
}
