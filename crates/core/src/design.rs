//! The design under optimization: tree + libraries + power intent.

use crate::error::WaveMinError;
use serde::Serialize;
use wavemin_cells::units::Picoseconds;
use wavemin_cells::units::Volts;
use wavemin_cells::{CellLibrary, Characterizer};
use wavemin_clocktree::prelude::*;
use wavemin_clocktree::timing::TimingAdjust;

/// Everything a WaveMin optimization consumes: the synthesized clock tree,
/// the cell library and characterizer, the wire model, the power intent
/// (domains + modes) and the per-mode adjustable-delay settings.
#[derive(Debug, Clone, Serialize)]
pub struct Design {
    /// The buffered clock tree.
    pub tree: ClockTree,
    /// The cell library (must contain every cell the tree references).
    pub lib: CellLibrary,
    /// The analytic characterizer (SPICE substitute).
    pub chr: Characterizer,
    /// Interconnect parasitics.
    pub wire: WireModel,
    /// Voltage islands and power modes.
    pub power: PowerDesign,
    /// Per-mode timing adjustments (ADB/ADI delay codes), indexed by mode.
    pub mode_adjust: Vec<TimingAdjust>,
}

impl Design {
    /// Wraps an existing tree with default models and the given power
    /// intent.
    #[must_use]
    pub fn new(tree: ClockTree, lib: CellLibrary, power: PowerDesign) -> Self {
        let modes = power.mode_count();
        Self {
            tree,
            lib,
            chr: Characterizer::default(),
            wire: WireModel::default(),
            power,
            mode_adjust: vec![TimingAdjust::identity(); modes],
        }
    }

    /// Synthesizes a single-power-mode design from a benchmark circuit.
    ///
    /// Leaves are buffered with `BUF_X8` so that the paper's candidate set
    /// `{BUF_X8, BUF_X16, INV_X8, INV_X16}` includes the initial cell.
    ///
    /// # Panics
    ///
    /// Panics if synthesis fails (the default library covers all cells).
    #[must_use]
    pub fn from_benchmark(bench: &Benchmark, seed: u64) -> Self {
        let lib = CellLibrary::nangate45();
        let chr = Characterizer::default();
        let mut b = bench.clone();
        let tree = Self::synthesize_x8(&mut b, &lib, &chr, seed);
        let mut d = Self::new(tree, lib, PowerDesign::uniform(Volts::new(1.1)));
        d.chr = chr;
        d
    }

    /// Synthesizes a multi-power-mode design: the die is split into
    /// `n_domains` voltage islands driven by `n_modes` power modes at
    /// 0.9 V / 1.1 V (Section VII-E setup).
    ///
    /// # Panics
    ///
    /// Panics if synthesis fails or `n_domains`/`n_modes` is zero.
    #[must_use]
    pub fn from_benchmark_multimode(
        bench: &Benchmark,
        seed: u64,
        n_domains: usize,
        n_modes: usize,
    ) -> Self {
        Self::from_benchmark_multimode_levels(
            bench,
            seed,
            n_domains,
            n_modes,
            Volts::new(0.9),
            Volts::new(1.1),
        )
    }

    /// [`Self::from_benchmark_multimode`] with explicit low/high supply
    /// levels for the voltage islands.
    ///
    /// # Panics
    ///
    /// Panics if synthesis fails or `n_domains`/`n_modes` is zero.
    #[must_use]
    pub fn from_benchmark_multimode_levels(
        bench: &Benchmark,
        seed: u64,
        n_domains: usize,
        n_modes: usize,
        low: Volts,
        high: Volts,
    ) -> Self {
        let lib = CellLibrary::nangate45();
        let chr = Characterizer::default();
        let mut b = bench.clone();
        let tree = Self::synthesize_x8(&mut b, &lib, &chr, seed);
        let power = PowerDesign::random_with_levels(
            wavemin_cells::units::Microns::new(bench.die_side_um as f64),
            n_domains,
            n_modes,
            seed,
            low,
            high,
        );
        let mut d = Self::new(tree, lib, power);
        d.chr = chr;
        d
    }

    // Helper of the `from_benchmark*` constructors, whose documented
    // contract is to panic if synthesis fails (it cannot with the bundled
    // library).
    #[allow(clippy::expect_used)]
    fn synthesize_x8(
        bench: &mut Benchmark,
        lib: &CellLibrary,
        chr: &Characterizer,
        seed: u64,
    ) -> ClockTree {
        let options = SynthesisOptions {
            leaf_cell: "BUF_X8".to_owned(),
            arity: bench.arity,
            ..SynthesisOptions::default()
        };
        bench
            .synthesize_with_options(lib, chr, seed, options)
            .expect("default library covers synthesis cells")
    }

    /// Number of power modes.
    #[must_use]
    pub fn mode_count(&self) -> usize {
        self.power.mode_count()
    }

    /// Timing analysis in one power mode (applies that mode's ADB codes).
    ///
    /// # Errors
    ///
    /// Propagates timing-analysis failures.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn timing(&self, mode: usize) -> Result<Timing, WaveMinError> {
        let supply = self.power.supply_for(&self.tree, mode);
        Ok(Timing::analyze(
            &self.tree,
            &self.lib,
            &self.chr,
            self.wire,
            &supply,
            Some(&self.mode_adjust[mode]),
        )?)
    }

    /// Clock skew in one power mode.
    ///
    /// # Errors
    ///
    /// Propagates timing-analysis failures.
    pub fn skew(&self, mode: usize) -> Result<Picoseconds, WaveMinError> {
        Ok(self.timing(mode)?.skew(&self.tree))
    }

    /// The worst clock skew over all power modes.
    ///
    /// # Errors
    ///
    /// Propagates timing-analysis failures.
    pub fn max_skew(&self) -> Result<Picoseconds, WaveMinError> {
        let mut worst = Picoseconds::ZERO;
        for m in 0..self.mode_count() {
            worst = worst.max(self.skew(m)?);
        }
        Ok(worst)
    }

    /// The sink set `L` (arena order).
    #[must_use]
    pub fn leaves(&self) -> Vec<NodeId> {
        self.tree.leaves()
    }

    /// Upfront input validation, run before any optimization: structural
    /// tree invariants (connectivity, parent/child links, known cells), a
    /// non-empty duplicate-free sink set, finite/nonnegative numeric
    /// fields everywhere (locations, wirelengths, caps, trims, supplies,
    /// wire parasitics, cell parameters), and finite characterized
    /// current waveforms per referenced cell × supply.
    ///
    /// # Errors
    ///
    /// The first violation found, as a [`WaveMinError`] naming the
    /// offending node/cell/field.
    // Membership test only; the set is never iterated.
    #[allow(clippy::disallowed_types)]
    pub fn validate(&self) -> Result<(), WaveMinError> {
        self.tree.validate(|c| self.lib.get(c).is_some())?;
        if self.tree.leaves().is_empty() {
            return Err(WaveMinError::EmptySinks);
        }

        let finite = |v: f64, what: &dyn Fn() -> String| -> Result<(), WaveMinError> {
            if v.is_finite() {
                Ok(())
            } else {
                Err(WaveMinError::NonFiniteInput(what()))
            }
        };
        let nonneg = |v: f64, what: &dyn Fn() -> String| -> Result<(), WaveMinError> {
            finite(v, what)?;
            if v >= 0.0 {
                Ok(())
            } else {
                Err(WaveMinError::NegativeInput(what()))
            }
        };

        // Per-node numerics + duplicate-sink detection.
        let mut seen_sinks = std::collections::HashSet::new();
        for (id, node) in self.tree.iter() {
            finite(node.location.x.value(), &|| {
                format!("x location of node {id}")
            })?;
            finite(node.location.y.value(), &|| {
                format!("y location of node {id}")
            })?;
            nonneg(node.wire_to_parent.value(), &|| {
                format!("wire length into node {id}")
            })?;
            nonneg(node.sink_cap.value(), &|| format!("sink cap of node {id}"))?;
            finite(node.delay_trim.value(), &|| {
                format!("delay trim of node {id}")
            })?;
            if node.is_leaf() {
                let key = (
                    node.location.x.value().to_bits(),
                    node.location.y.value().to_bits(),
                );
                if !seen_sinks.insert(key) {
                    return Err(WaveMinError::DuplicateSinks(format!(
                        "sink {id} duplicates another sink at {:?}",
                        node.location
                    )));
                }
            }
        }

        // Interconnect model.
        nonneg(self.wire.r_per_um.value(), &|| {
            "wire resistance per um".into()
        })?;
        nonneg(self.wire.c_per_um.value(), &|| {
            "wire capacitance per um".into()
        })?;

        // Power intent: every supply must be finite and positive.
        if self.mode_adjust.len() != self.mode_count() {
            return Err(WaveMinError::InvalidConfig(
                "mode_adjust must hold one entry per power mode",
            ));
        }
        let mut supplies: Vec<Volts> = Vec::new();
        for mode in 0..self.mode_count() {
            match self.power.supply_for(&self.tree, mode) {
                SupplyAssignment::Uniform(v) => supplies.push(v),
                SupplyAssignment::PerNode(vs) => supplies.extend(vs),
            }
        }
        supplies.sort_by(|a, b| a.value().total_cmp(&b.value()));
        supplies.dedup();
        for v in &supplies {
            finite(v.value(), &|| format!("supply voltage {v:?}"))?;
            if v.value() <= 0.0 {
                return Err(WaveMinError::NegativeInput(format!(
                    "supply voltage {v:?} must be positive"
                )));
            }
        }

        // Referenced cells: finite positive electrical parameters, and
        // finite characterized waveform samples at each used supply.
        let mut cells: Vec<&str> = self.tree.iter().map(|(_, n)| n.cell.as_str()).collect();
        cells.sort_unstable();
        cells.dedup();
        for name in cells {
            let cell = self
                .lib
                .get(name)
                .ok_or_else(|| WaveMinError::MissingCell(name.to_owned()))?;
            nonneg(cell.r_out().value(), &|| format!("r_out of cell '{name}'"))?;
            nonneg(cell.c_in().value(), &|| format!("c_in of cell '{name}'"))?;
            nonneg(cell.c_par().value(), &|| format!("c_par of cell '{name}'"))?;
            nonneg(cell.t_intrinsic().value(), &|| {
                format!("t_intrinsic of cell '{name}'")
            })?;
            for vdd in &supplies {
                let profile = self.chr.characterize(
                    cell,
                    wavemin_cells::units::Femtofarads::new(10.0),
                    Picoseconds::new(20.0),
                    *vdd,
                );
                finite(profile.t_d_rise.value(), &|| {
                    format!("rise delay of cell '{name}' at {vdd:?}")
                })?;
                finite(profile.t_d_fall.value(), &|| {
                    format!("fall delay of cell '{name}' at {vdd:?}")
                })?;
                for wave in [
                    &profile.idd_rise,
                    &profile.iss_rise,
                    &profile.idd_fall,
                    &profile.iss_fall,
                ] {
                    for (t, i) in wave.breakpoints() {
                        finite(t.value() + i.value(), &|| {
                            format!("waveform sample of cell '{name}' at {vdd:?}")
                        })?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavemin_cells::units::{Femtofarads, Microns, Ohms};

    #[test]
    fn from_benchmark_counts_match() {
        let bench = Benchmark::s15850();
        let d = Design::from_benchmark(&bench, 1);
        assert_eq!(d.tree.len(), bench.total_nodes);
        assert_eq!(d.leaves().len(), bench.leaf_count);
        assert_eq!(d.mode_count(), 1);
    }

    #[test]
    fn single_mode_design_is_balanced() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let skew = d.skew(0).unwrap();
        assert!(skew.value() < 10.0, "skew {skew}");
    }

    #[test]
    fn leaves_start_as_buf_x8() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 1);
        for id in d.leaves() {
            assert_eq!(d.tree.node(id).cell, "BUF_X8");
        }
    }

    #[test]
    fn multimode_design_has_modes_and_violations() {
        let d = Design::from_benchmark_multimode(&Benchmark::s15850(), 3, 4, 4);
        assert_eq!(d.mode_count(), 4);
        // Mode 0 is all-high: tight skew. Other modes are mixed-voltage
        // and generally skewed.
        assert!(d.skew(0).unwrap().value() < 10.0);
        assert!(d.max_skew().unwrap() >= d.skew(0).unwrap());
    }

    #[test]
    fn benchmark_design_validates_clean() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 1);
        d.validate().unwrap();
        let m = Design::from_benchmark_multimode(&Benchmark::s15850(), 3, 4, 2);
        m.validate().unwrap();
    }

    fn assert_rejects(d: &Design, needle: &str) {
        let err = d.validate().expect_err(needle).to_string();
        assert!(
            err.contains(needle),
            "error {err:?} should mention {needle:?}"
        );
    }

    #[test]
    fn validate_rejects_empty_sink_set() {
        let lib = CellLibrary::nangate45();
        let tree = ClockTree::new(Point::new(0.0, 0.0), "BUF_X8");
        let d = Design::new(tree, lib, PowerDesign::uniform(Volts::new(1.1)));
        assert!(matches!(d.validate(), Err(WaveMinError::EmptySinks)));
    }

    #[test]
    fn validate_rejects_unknown_cell() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let leaf = d.leaves()[0];
        d.tree.set_cell(leaf, "NOT_A_CELL");
        assert_rejects(&d, "invalid clock tree");
    }

    #[test]
    fn validate_rejects_nan_location() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let leaf = d.leaves()[0];
        d.tree.node_mut(leaf).location.x = Microns::new(f64::NAN);
        assert_rejects(&d, "x location");
    }

    #[test]
    fn validate_rejects_negative_wirelength() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let leaf = d.leaves()[0];
        d.tree.node_mut(leaf).wire_to_parent = Microns::new(-1.0);
        assert_rejects(&d, "wire length");
    }

    #[test]
    fn validate_rejects_negative_sink_cap() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let leaf = d.leaves()[0];
        d.tree.node_mut(leaf).sink_cap = Femtofarads::new(-3.0);
        assert_rejects(&d, "sink cap");
    }

    #[test]
    fn validate_rejects_nonfinite_delay_trim() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let leaf = d.leaves()[0];
        d.tree.node_mut(leaf).delay_trim = Picoseconds::new(f64::INFINITY);
        assert_rejects(&d, "delay trim");
    }

    #[test]
    fn validate_rejects_duplicate_sinks() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let leaves = d.leaves();
        let spot = d.tree.node(leaves[0]).location;
        d.tree.node_mut(leaves[1]).location = spot;
        assert_rejects(&d, "duplicate sinks");
    }

    #[test]
    fn validate_rejects_bad_wire_model() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        d.wire.r_per_um = Ohms::new(f64::NAN);
        assert_rejects(&d, "wire resistance");
    }

    #[test]
    fn validate_rejects_nonpositive_supply() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        d.power = PowerDesign::uniform(Volts::new(0.0));
        assert_rejects(&d, "supply voltage");
    }

    #[test]
    fn validate_rejects_mode_adjust_mismatch() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        d.mode_adjust.push(TimingAdjust::identity());
        assert_rejects(&d, "mode_adjust");
    }

    #[test]
    fn mode_adjust_is_per_mode() {
        let mut d = Design::from_benchmark_multimode(&Benchmark::s15850(), 3, 4, 2);
        let leaf = d.leaves()[0];
        d.mode_adjust[1].set_extra_delay(leaf, Picoseconds::new(15.0));
        let t0 = d.timing(0).unwrap();
        let t1 = d.timing(1).unwrap();
        // Mode 1's arrival at that leaf includes the extra delay.
        let base_gap = t1.output_arrival[leaf.0] - t0.output_arrival[leaf.0];
        assert!(base_gap.value() >= 15.0 - 1e-9);
    }
}
