//! Per-(sink, cell) noise characterization — the preprocessing of
//! Section IV-B.
//!
//! For every sink and every candidate cell the analytic characterizer
//! produces the cell's current signature under that sink's load; the
//! signature is shifted to absolute time by the sink's input arrival so
//! that arrival-time differences between sinks misalign the pulses exactly
//! as Observation 2 describes. The fixed non-leaf buffering elements are
//! characterized once and accumulated into a background waveform
//! (Observation 1).

use crate::config::WaveMinConfig;
use crate::design::Design;
use crate::error::WaveMinError;
use serde::Serialize;
// LUT cache keyed by (cell, supply); lookups only.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use wavemin_cells::characterize::{ClockEdge, Rail};
use wavemin_cells::lut::NoiseLut;
use wavemin_cells::units::{Femtofarads, Picoseconds};
use wavemin_cells::{CellKind, CellProfile, Waveform};
use wavemin_clocktree::prelude::*;

/// The sharpest input slew sinks are profiled with (Section IV-B: the
/// paper profiles at a fixed 20 ps, slightly sharper than the observed
/// average for an upper bound).
pub const PROFILING_SLEW: Picoseconds = Picoseconds::new(20.0);

/// Current waveforms organized by **source event** rather than cell-input
/// edge: `rise` slots describe what happens when the *clock source* rises,
/// regardless of how many inverting stages sit above the cell.
#[derive(Debug, Default, Clone, PartialEq, Serialize)]
pub struct EventWaveforms {
    /// `I_DD` during the source-rising event.
    pub vdd_rise: Waveform,
    /// `I_SS` during the source-rising event.
    pub gnd_rise: Waveform,
    /// `I_DD` during the source-falling event.
    pub vdd_fall: Waveform,
    /// `I_SS` during the source-falling event.
    pub gnd_fall: Waveform,
}

impl EventWaveforms {
    /// All-zero waveforms.
    #[must_use]
    pub fn zero() -> Self {
        Self::default()
    }

    /// Reorients a cell profile: a cell whose input sees `input_edge` when
    /// the source rises contributes its `input_edge` waveforms to the
    /// source-rise slots and the opposite pair to the source-fall slots.
    #[must_use]
    pub fn from_profile(profile: &CellProfile, input_edge: ClockEdge) -> Self {
        match input_edge {
            ClockEdge::Rise => Self {
                vdd_rise: profile.idd_rise.clone(),
                gnd_rise: profile.iss_rise.clone(),
                vdd_fall: profile.idd_fall.clone(),
                gnd_fall: profile.iss_fall.clone(),
            },
            ClockEdge::Fall => Self {
                vdd_rise: profile.idd_fall.clone(),
                gnd_rise: profile.iss_fall.clone(),
                vdd_fall: profile.idd_rise.clone(),
                gnd_fall: profile.iss_rise.clone(),
            },
        }
    }

    /// The waveform on `rail` during the source `event`.
    #[must_use]
    pub fn get(&self, rail: Rail, event: ClockEdge) -> &Waveform {
        match (rail, event) {
            (Rail::Vdd, ClockEdge::Rise) => &self.vdd_rise,
            (Rail::Gnd, ClockEdge::Rise) => &self.gnd_rise,
            (Rail::Vdd, ClockEdge::Fall) => &self.vdd_fall,
            (Rail::Gnd, ClockEdge::Fall) => &self.gnd_fall,
        }
    }

    /// The four `(rail, event)` slots in canonical order.
    pub const SLOTS: [(Rail, ClockEdge); 4] = [
        (Rail::Vdd, ClockEdge::Rise),
        (Rail::Gnd, ClockEdge::Rise),
        (Rail::Vdd, ClockEdge::Fall),
        (Rail::Gnd, ClockEdge::Fall),
    ];

    /// Sums many event waveforms by pooling breakpoints once per slot
    /// (much faster than folding [`Self::plus`] pairwise).
    #[must_use]
    pub fn sum<'a, I>(items: I) -> Self
    where
        I: IntoIterator<Item = &'a EventWaveforms> + Clone,
    {
        Self {
            vdd_rise: Waveform::sum(items.clone().into_iter().map(|w| &w.vdd_rise)),
            gnd_rise: Waveform::sum(items.clone().into_iter().map(|w| &w.gnd_rise)),
            vdd_fall: Waveform::sum(items.clone().into_iter().map(|w| &w.vdd_fall)),
            gnd_fall: Waveform::sum(items.into_iter().map(|w| &w.gnd_fall)),
        }
    }

    /// Pointwise sum.
    #[must_use]
    pub fn plus(&self, other: &Self) -> Self {
        Self {
            vdd_rise: self.vdd_rise.plus(&other.vdd_rise),
            gnd_rise: self.gnd_rise.plus(&other.gnd_rise),
            vdd_fall: self.vdd_fall.plus(&other.vdd_fall),
            gnd_fall: self.gnd_fall.plus(&other.gnd_fall),
        }
    }

    /// Every slot shifted later by `dt`.
    #[must_use]
    pub fn shifted(&self, dt: Picoseconds) -> Self {
        Self {
            vdd_rise: self.vdd_rise.shifted(dt),
            gnd_rise: self.gnd_rise.shifted(dt),
            vdd_fall: self.vdd_fall.shifted(dt),
            gnd_fall: self.gnd_fall.shifted(dt),
        }
    }

    /// Every slot scaled by `k`.
    #[must_use]
    pub fn scaled(&self, k: f64) -> Self {
        Self {
            vdd_rise: self.vdd_rise.scaled(k),
            gnd_rise: self.gnd_rise.scaled(k),
            vdd_fall: self.vdd_fall.scaled(k),
            gnd_fall: self.gnd_fall.scaled(k),
        }
    }

    /// The worst instantaneous current over all four slots.
    #[must_use]
    pub fn peak(&self) -> wavemin_cells::units::MicroAmps {
        self.vdd_rise
            .peak()
            .max(self.gnd_rise.peak())
            .max(self.vdd_fall.peak())
            .max(self.gnd_fall.peak())
    }

    /// Folds the two clock-edge events into one full-period pair of rail
    /// waveforms: the source rises at `t = 0` and falls at `t = period/2`,
    /// so the fall-event waveforms shift by half a period and add to the
    /// rise-event ones. Returns `(I_DD, I_SS)` over the period.
    ///
    /// When the half-period exceeds the pulse supports (the usual case —
    /// the paper treats the edges as temporally separate), the per-event
    /// peaks are recovered exactly; for very fast clocks the events
    /// overlap and the folded peak can exceed both.
    #[must_use]
    pub fn over_period(&self, period: Picoseconds) -> (Waveform, Waveform) {
        let half = period / 2.0;
        let idd = self.vdd_rise.plus(&self.vdd_fall.shifted(half));
        let iss = self.gnd_rise.plus(&self.gnd_fall.shifted(half));
        (idd, iss)
    }

    /// The union time support over all slots.
    #[must_use]
    pub fn support(&self) -> Option<(Picoseconds, Picoseconds)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (rail, event) in Self::SLOTS {
            if let Some((a, b)) = self.get(rail, event).support() {
                lo = lo.min(a.value());
                hi = hi.max(b.value());
            }
        }
        (lo <= hi).then(|| (Picoseconds::new(lo), Picoseconds::new(hi)))
    }
}

/// Incrementally accumulated background noise for one interval solve.
///
/// Zones inside an interval chain through the noise of the sinks already
/// assigned. Folding every chosen pulse into one pooled
/// [`EventWaveforms`] re-pools the entire breakpoint set per addition —
/// quadratic in sinks, and the dominant cost at 10⁵+-sink scale. This
/// accumulator keeps the pulses in logarithmic merge levels instead (the
/// Bentley–Saxe binary-counter scheme): a push merges geometrically
/// sized pooled waveforms `O(log n)` amortized times, and a sample reads
/// `O(log n)` pooled waveforms. Both the merge order and the sample
/// order are fixed by the push sequence, so results stay bit-identical
/// across residency policies and worker counts.
#[derive(Debug, Default, Clone)]
pub struct BackgroundAccumulator {
    levels: Vec<Option<EventWaveforms>>,
}

impl BackgroundAccumulator {
    /// An empty accumulator (no noise yet).
    #[must_use]
    pub fn zero() -> Self {
        Self::default()
    }

    /// Adds one chosen option's event waveforms.
    pub fn push(&mut self, waves: &EventWaveforms) {
        let mut carry = waves.clone();
        for slot in &mut self.levels {
            match slot.take() {
                None => {
                    *slot = Some(carry);
                    return;
                }
                Some(existing) => carry = EventWaveforms::sum([&existing, &carry]),
            }
        }
        self.levels.push(Some(carry));
    }

    /// The resident merge levels, smallest first.
    pub fn levels(&self) -> impl Iterator<Item = &EventWaveforms> {
        self.levels.iter().flatten()
    }

    /// `true` when nothing has been accumulated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(Option::is_none)
    }
}

/// One candidate cell for one sink.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SinkOption {
    /// The candidate cell's library name.
    pub cell: String,
    /// The cell kind (determines polarity).
    pub kind: CellKind,
    /// Propagation delay under this sink's load (for the sink's input
    /// edge).
    pub delay: Picoseconds,
    /// Output arrival time: sink input arrival + `delay` (before any
    /// adjustable-delay code).
    pub arrival: Picoseconds,
    /// Current waveforms in absolute time (shifted by the input arrival).
    pub waves: EventWaveforms,
    /// Adjustable-delay range (zero for plain cells).
    pub adjust_range: Picoseconds,
    /// Number of adjustable-delay steps.
    pub adjust_steps: u32,
}

impl SinkOption {
    /// `true` for ADB/ADI candidates.
    #[must_use]
    pub fn is_adjustable(&self) -> bool {
        self.adjust_steps > 0
    }

    /// The smallest quantized delay code whose adjusted arrival falls in
    /// `[lo, hi]`, or `None` when no code fits.
    ///
    /// Non-adjustable options return `Some(0)` iff the raw arrival is in
    /// range.
    #[must_use]
    pub fn delay_code_for(&self, lo: Picoseconds, hi: Picoseconds) -> Option<Picoseconds> {
        let eps = 1e-9;
        if !self.is_adjustable() {
            return (self.arrival.value() >= lo.value() - eps
                && self.arrival.value() <= hi.value() + eps)
                .then_some(Picoseconds::ZERO);
        }
        let step = self.adjust_range.value() / self.adjust_steps as f64;
        let needed = (lo.value() - self.arrival.value()).max(0.0);
        let code = (needed / step).ceil() * step;
        let code = code.min(self.adjust_range.value());
        let adjusted = self.arrival.value() + code;
        (adjusted >= lo.value() - eps && adjusted <= hi.value() + eps)
            .then(|| Picoseconds::new(code))
    }
}

/// Per-sink characterization results.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SinkEntry {
    /// The leaf node.
    pub node: NodeId,
    /// Clock arrival at the sink's input.
    pub input_arrival: Picoseconds,
    /// Edge the sink's input sees when the source rises.
    pub input_edge: ClockEdge,
    /// Load the sink drives (the FF capacitance).
    pub load: Femtofarads,
    /// Candidate cells for this sink.
    pub options: Vec<SinkOption>,
}

/// The complete preprocessing result for one power mode: every sink's
/// candidate profiles plus the accumulated non-leaf background.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NoiseTable {
    /// The power mode this table was built for.
    pub mode: usize,
    /// Per-sink candidates, in [`ClockTree::leaves`] order.
    pub sinks: Vec<SinkEntry>,
    /// Accumulated non-leaf current background (absolute time).
    pub nonleaf: EventWaveforms,
    /// Per-node non-leaf signatures, for localized (per-zone) backgrounds.
    pub nonleaf_nodes: Vec<(NodeId, EventWaveforms)>,
}

impl NoiseTable {
    /// Builds the table for one power mode.
    ///
    /// Candidate rules follow Section VI: a leaf currently implemented as
    /// an ADB may only choose between the same-drive ADB and ADI; a plain
    /// leaf chooses among `config.assignment_cells` (never ADB/ADI, which
    /// would waste area).
    ///
    /// # Errors
    ///
    /// Fails if timing analysis fails or a candidate cell is missing from
    /// the library.
    // LUT cache keyed by (cell, supply); lookups only.
    #[allow(clippy::disallowed_types)]
    pub fn build(
        design: &Design,
        config: &WaveMinConfig,
        mode: usize,
    ) -> Result<Self, WaveMinError> {
        let timing = design.timing(mode)?;
        let tree = &design.tree;
        let supply = design.power.supply_for(tree, mode);

        // Non-leaf background: every non-leaf cell under its real load,
        // slew and supply, shifted to absolute time. ADB extra delay of
        // this mode shifts the pulse too.
        let mut nonleaf_nodes = Vec::new();
        for id in tree.non_leaves() {
            let node = tree.node(id);
            let cell = design
                .lib
                .get(&node.cell)
                .ok_or_else(|| WaveMinError::MissingCell(node.cell.clone()))?;
            let profile = design.chr.characterize(
                cell,
                timing.load[id.0],
                timing.input_slew[id.0],
                supply_at(&supply, id),
            );
            let extra = design.mode_adjust[mode]
                .extra_delay
                .get(id.0)
                .copied()
                .unwrap_or(Picoseconds::ZERO);
            let waves = EventWaveforms::from_profile(&profile, timing.input_edge[id.0])
                .shifted(timing.input_arrival[id.0] + extra);
            nonleaf_nodes.push((id, waves));
        }
        let nonleaf = EventWaveforms::sum(nonleaf_nodes.iter().map(|(_, w)| w));

        // Optional LUT characterization (Section IV-B): one table per
        // (cell, supply), shared by all sinks.
        let mut luts: HashMap<(String, u64), NoiseLut> = HashMap::new();
        let lut_loads = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
        let lut_slews = [10.0, 20.0, 35.0, 60.0, 100.0, 170.0, 300.0];

        // Per-sink candidate profiles.
        let mut sinks = Vec::new();
        for id in tree.leaves() {
            let node = tree.node(id);
            let current = design
                .lib
                .get(&node.cell)
                .ok_or_else(|| WaveMinError::MissingCell(node.cell.clone()))?;
            let candidate_names: Vec<String> = if current.kind() == CellKind::Adb {
                let drive = current.drive();
                vec![format!("ADB_X{drive}"), format!("ADI_X{drive}")]
            } else {
                config.assignment_cells.clone()
            };
            let input_arrival = timing.input_arrival[id.0];
            let input_edge = timing.input_edge[id.0];
            let load = node.sink_cap;
            let vdd = supply_at(&supply, id);
            // Section IV-B: the profiling slew must track the slew actually
            // observed in the tree (the paper uses a fixed 20 ps because its
            // trees settle there; ours vary more, so use the analyzed slew,
            // never sharper than the paper's profiling slew).
            let slew = timing.input_slew[id.0].max(PROFILING_SLEW);
            let mut options = Vec::with_capacity(candidate_names.len());
            for name in candidate_names {
                let cell = design
                    .lib
                    .get(&name)
                    .ok_or_else(|| WaveMinError::MissingCell(name.clone()))?;
                let profile = if config.lut_characterization {
                    let key = (name.clone(), vdd.value().to_bits());
                    luts.entry(key)
                        .or_insert_with(|| {
                            NoiseLut::build(&design.chr, cell, &lut_loads, &lut_slews, vdd)
                        })
                        .lookup(load, slew)
                } else {
                    design.chr.characterize(cell, load, slew, vdd)
                };
                let delay = profile.delay(input_edge);
                options.push(SinkOption {
                    cell: name,
                    kind: cell.kind(),
                    delay,
                    arrival: input_arrival + delay,
                    waves: EventWaveforms::from_profile(&profile, input_edge)
                        .shifted(input_arrival),
                    adjust_range: cell.delay_range(),
                    adjust_steps: cell.delay_steps(),
                });
            }
            sinks.push(SinkEntry {
                node: id,
                input_arrival,
                input_edge,
                load,
                options,
            });
        }

        Ok(Self {
            mode,
            sinks,
            nonleaf,
            nonleaf_nodes,
        })
    }

    /// The accumulated background of the non-leaf elements placed inside a
    /// rectangle (the paper optimizes noise zone by zone because it is a
    /// local effect, so only nearby non-leaf noise competes with a zone's
    /// leaves).
    #[must_use]
    pub fn nonleaf_within(
        &self,
        tree: &wavemin_clocktree::ClockTree,
        rect: &wavemin_clocktree::geom::Rect,
    ) -> EventWaveforms {
        let local: Vec<&EventWaveforms> = self
            .nonleaf_nodes
            .iter()
            .filter(|(id, _)| rect.contains(tree.node(*id).location))
            .map(|(_, w)| w)
            .collect();
        EventWaveforms::sum(local.iter().copied())
    }

    /// Index of the [`SinkEntry`] for a node, if it is a sink.
    #[must_use]
    pub fn sink_index(&self, node: NodeId) -> Option<usize> {
        self.sinks.iter().position(|s| s.node == node)
    }
}

fn supply_at(supply: &SupplyAssignment, id: NodeId) -> wavemin_cells::units::Volts {
    supply.at(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WaveMinConfig;
    use wavemin_cells::units::MicroAmps;

    fn design() -> Design {
        Design::from_benchmark(&Benchmark::s15850(), 1)
    }

    #[test]
    fn table_covers_all_sinks_and_candidates() {
        let d = design();
        let cfg = WaveMinConfig::default();
        let t = NoiseTable::build(&d, &cfg, 0).unwrap();
        assert_eq!(t.sinks.len(), d.leaves().len());
        for s in &t.sinks {
            assert_eq!(s.options.len(), 4);
            for o in &s.options {
                assert!(o.arrival > s.input_arrival);
                assert!(o.waves.peak() > MicroAmps::ZERO);
            }
        }
    }

    #[test]
    fn nonleaf_background_is_nonzero() {
        let d = design();
        let t = NoiseTable::build(&d, &WaveMinConfig::default(), 0).unwrap();
        assert!(t.nonleaf.peak() > MicroAmps::ZERO);
        // Background support overlaps the sink switching window.
        let (lo, hi) = t.nonleaf.support().unwrap();
        assert!(lo < hi);
    }

    #[test]
    fn buffer_and_inverter_options_differ_in_rail() {
        let d = design();
        let t = NoiseTable::build(&d, &WaveMinConfig::default(), 0).unwrap();
        let s = &t.sinks[0];
        let buf = s
            .options
            .iter()
            .find(|o| o.kind == CellKind::Buffer)
            .unwrap();
        let inv = s
            .options
            .iter()
            .find(|o| o.kind == CellKind::Inverter)
            .unwrap();
        // Buffer: main VDD pulse at source rise; inverter: at source fall.
        assert!(buf.waves.vdd_rise.peak() > buf.waves.vdd_fall.peak());
        assert!(inv.waves.vdd_fall.peak() > inv.waves.vdd_rise.peak());
    }

    #[test]
    fn waves_are_shifted_by_arrival() {
        let d = design();
        let t = NoiseTable::build(&d, &WaveMinConfig::default(), 0).unwrap();
        let s = &t.sinks[0];
        let o = &s.options[0];
        let (lo, _) = o.waves.support().unwrap();
        // The pulse cannot start before the sink's input arrival.
        assert!(lo >= s.input_arrival - Picoseconds::new(1e-9));
    }

    #[test]
    fn adb_leaf_gets_adb_adi_candidates() {
        let mut d = design();
        let leaf = d.leaves()[0];
        d.tree.set_cell(leaf, "ADB_X8");
        let t = NoiseTable::build(&d, &WaveMinConfig::default(), 0).unwrap();
        let entry = t.sinks.iter().find(|s| s.node == leaf).unwrap();
        let names: Vec<&str> = entry.options.iter().map(|o| o.cell.as_str()).collect();
        assert_eq!(names, vec!["ADB_X8", "ADI_X8"]);
        assert!(entry.options.iter().all(SinkOption::is_adjustable));
    }

    #[test]
    fn delay_code_quantization() {
        let opt = SinkOption {
            cell: "ADB_X8".into(),
            kind: CellKind::Adb,
            delay: Picoseconds::new(20.0),
            arrival: Picoseconds::new(100.0),
            waves: EventWaveforms::zero(),
            adjust_range: Picoseconds::new(20.0),
            adjust_steps: 8,
        };
        // Window already contains the arrival: zero code.
        assert_eq!(
            opt.delay_code_for(Picoseconds::new(95.0), Picoseconds::new(105.0)),
            Some(Picoseconds::ZERO)
        );
        // Needs 6 ps: steps are 2.5 ps, so the code is 7.5 ps.
        assert_eq!(
            opt.delay_code_for(Picoseconds::new(106.0), Picoseconds::new(120.0)),
            Some(Picoseconds::new(7.5))
        );
        // Window beyond the range: infeasible.
        assert_eq!(
            opt.delay_code_for(Picoseconds::new(125.0), Picoseconds::new(140.0)),
            None
        );
        // Window entirely before the arrival: infeasible (delay only adds).
        assert_eq!(
            opt.delay_code_for(Picoseconds::new(80.0), Picoseconds::new(90.0)),
            None
        );
    }

    #[test]
    fn non_adjustable_delay_code() {
        let opt = SinkOption {
            cell: "BUF_X8".into(),
            kind: CellKind::Buffer,
            delay: Picoseconds::new(20.0),
            arrival: Picoseconds::new(100.0),
            waves: EventWaveforms::zero(),
            adjust_range: Picoseconds::ZERO,
            adjust_steps: 0,
        };
        assert_eq!(
            opt.delay_code_for(Picoseconds::new(95.0), Picoseconds::new(105.0)),
            Some(Picoseconds::ZERO)
        );
        assert_eq!(
            opt.delay_code_for(Picoseconds::new(101.0), Picoseconds::new(105.0)),
            None
        );
    }

    #[test]
    fn event_waveform_reorientation() {
        let d = design();
        let lib = &d.lib;
        let cell = lib.get("BUF_X4").unwrap();
        let profile = d.chr.characterize(
            cell,
            Femtofarads::new(5.0),
            Picoseconds::new(20.0),
            wavemin_cells::units::Volts::new(1.1),
        );
        let rise = EventWaveforms::from_profile(&profile, ClockEdge::Rise);
        let fall = EventWaveforms::from_profile(&profile, ClockEdge::Fall);
        // Under a flipped input edge the rise/fall slots swap.
        assert_eq!(rise.vdd_rise, fall.vdd_fall);
        assert_eq!(rise.gnd_fall, fall.gnd_rise);
    }

    #[test]
    fn period_folding_separates_slow_clocks() {
        let d = design();
        let t = NoiseTable::build(&d, &WaveMinConfig::default(), 0).unwrap();
        // A slow clock: the events stay disjoint, so the folded peak is
        // the max of the per-event peaks.
        let (idd, iss) = t.nonleaf.over_period(Picoseconds::new(10_000.0));
        let expect_idd = t.nonleaf.vdd_rise.peak().max(t.nonleaf.vdd_fall.peak());
        assert!((idd.peak() - expect_idd).abs().value() < 1e-6);
        let expect_iss = t.nonleaf.gnd_rise.peak().max(t.nonleaf.gnd_fall.peak());
        assert!((iss.peak() - expect_iss).abs().value() < 1e-6);
    }

    #[test]
    fn period_folding_overlaps_fast_clocks() {
        let d = design();
        let t = NoiseTable::build(&d, &WaveMinConfig::default(), 0).unwrap();
        // An absurdly fast clock folds both events on top of each other.
        let (idd, _) = t.nonleaf.over_period(Picoseconds::new(0.0));
        let separate = t.nonleaf.vdd_rise.peak().max(t.nonleaf.vdd_fall.peak());
        assert!(idd.peak() >= separate);
    }

    #[test]
    fn lut_characterization_tracks_direct() {
        let d = design();
        let direct_cfg = WaveMinConfig::default();
        let lut_cfg = WaveMinConfig {
            lut_characterization: true,
            ..WaveMinConfig::default()
        };
        let direct = NoiseTable::build(&d, &direct_cfg, 0).unwrap();
        let lut = NoiseTable::build(&d, &lut_cfg, 0).unwrap();
        for (a, b) in direct.sinks.iter().zip(&lut.sinks) {
            for (oa, ob) in a.options.iter().zip(&b.options) {
                let derr = (oa.delay - ob.delay).abs().value() / oa.delay.value();
                assert!(derr < 0.05, "{}: delay err {derr}", oa.cell);
                let perr =
                    (oa.waves.peak() - ob.waves.peak()).abs().value() / oa.waves.peak().value();
                assert!(perr < 0.25, "{}: peak err {perr}", oa.cell);
            }
        }
    }

    #[test]
    fn slots_order_is_canonical() {
        let slots = EventWaveforms::SLOTS;
        assert_eq!(slots[0], (Rail::Vdd, ClockEdge::Rise));
        assert_eq!(slots[3], (Rail::Gnd, ClockEdge::Fall));
    }
}
