//! The fine-grained noise evaluator: accumulated current waveforms, peak
//! current and power-grid noise.
//!
//! This is the reproduction's stand-in for the paper's verification HSPICE
//! runs: it characterizes **every** node (leaves and non-leaves) under its
//! actual load, slew and supply, shifts the signatures by the real arrival
//! times, accumulates them per rail and clock-edge event, and reports the
//! worst instantaneous total current plus the IR-drop noise the currents
//! induce on the power grid.

use crate::design::Design;
use crate::error::WaveMinError;
use crate::noise_table::EventWaveforms;
use serde::Serialize;
use wavemin_cells::characterize::{ClockEdge, Rail};
use wavemin_cells::units::{MicroAmps, Microns, MilliAmps, Millivolts, Picoseconds};
use wavemin_clocktree::variation::Variation;
use wavemin_pgrid::{GridOptions, PowerGrid};

/// The evaluator's output for one power mode.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NoiseReport {
    /// Worst instantaneous total current over all rails and events.
    pub peak: MilliAmps,
    /// When and where the peak occurs.
    pub peak_rail: Rail,
    /// The source event during which the peak occurs.
    pub peak_event: ClockEdge,
    /// The time of the peak.
    pub peak_time: Picoseconds,
    /// Worst VDD-rail IR drop on the power grid.
    pub vdd_noise: Millivolts,
    /// Worst ground-rail bounce on the power grid.
    pub gnd_noise: Millivolts,
    /// The clock skew of the evaluated mode.
    pub skew: Picoseconds,
}

/// Evaluates a design's accumulated noise (see the module docs).
#[derive(Debug, Clone)]
pub struct NoiseEvaluator<'a> {
    design: &'a Design,
    grid_options: GridOptions,
}

impl<'a> NoiseEvaluator<'a> {
    /// Creates an evaluator with the default power-grid model.
    #[must_use]
    pub fn new(design: &'a Design) -> Self {
        Self {
            design,
            grid_options: GridOptions::default(),
        }
    }

    /// Overrides the power-grid model.
    #[must_use]
    pub fn with_grid_options(mut self, options: GridOptions) -> Self {
        self.grid_options = options;
        self
    }

    /// Evaluates one power mode on the design's current state.
    ///
    /// # Errors
    ///
    /// Propagates timing/characterization failures.
    pub fn evaluate(&self, mode: usize) -> Result<NoiseReport, WaveMinError> {
        self.evaluate_inner(mode, None)
    }

    /// Evaluates one power mode under a sampled process variation.
    ///
    /// # Errors
    ///
    /// Propagates timing/characterization failures.
    pub fn evaluate_with_variation(
        &self,
        mode: usize,
        variation: &Variation,
    ) -> Result<NoiseReport, WaveMinError> {
        self.evaluate_inner(mode, Some(variation))
    }

    /// Per-node event waveforms plus the total, for one mode (used by the
    /// waveform-dump example and the figure binaries).
    ///
    /// # Errors
    ///
    /// Propagates timing/characterization failures.
    pub fn waveforms(
        &self,
        mode: usize,
    ) -> Result<(Vec<EventWaveforms>, EventWaveforms), WaveMinError> {
        let per_node = self.node_waveforms(mode, None)?;
        let total = EventWaveforms::sum(per_node.iter());
        Ok((per_node, total))
    }

    /// Decomposes one mode's peak into per-node contributions: finds the
    /// argmax sample of the total waveform over the four (rail, event)
    /// slots, then samples every node's shifted waveform at that instant.
    ///
    /// The returned record's `peak_ma` is *defined as* the sum of the
    /// contributions in stored order, so the decomposition is exact by
    /// construction (the per-node sample sum and the pooled total agree
    /// to float accumulation order, ~1e-6 relative — see the
    /// `waveforms_sum_to_total` test — and the attribution reports the
    /// decomposed figure). Contributions are sorted largest-first with
    /// node id as the deterministic tie-break.
    ///
    /// # Errors
    ///
    /// Propagates timing/characterization failures.
    pub fn attribution(
        &self,
        mode: usize,
    ) -> Result<crate::observe::PeakAttribution, WaveMinError> {
        use wavemin_clocktree::NodeKind;

        let (per_node, total) = self.waveforms(mode)?;

        let mut peak = MicroAmps::ZERO;
        let mut peak_rail = Rail::Vdd;
        let mut peak_event = ClockEdge::Rise;
        let mut peak_time = Picoseconds::ZERO;
        for (rail, event) in EventWaveforms::SLOTS {
            let w = total.get(rail, event);
            let p = w.peak();
            if p > peak {
                peak = p;
                peak_rail = rail;
                peak_event = event;
                peak_time = w.peak_time().unwrap_or(Picoseconds::ZERO);
            }
        }

        let mut contributions: Vec<crate::observe::Contribution> = self
            .design
            .tree
            .iter()
            .map(|(id, node)| {
                let amps = per_node[id.0].get(peak_rail, peak_event).sample(peak_time);
                crate::observe::Contribution {
                    node: id.0,
                    cell: node.cell.clone(),
                    kind: if node.kind == NodeKind::Leaf {
                        "sink"
                    } else {
                        "nonleaf"
                    }
                    .to_owned(),
                    amps_ma: amps.to_milliamps().value(),
                }
            })
            .collect();
        contributions.sort_by(|a, b| {
            b.amps_ma
                .partial_cmp(&a.amps_ma)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.node.cmp(&b.node))
        });
        let peak_ma = contributions.iter().map(|c| c.amps_ma).sum();

        Ok(crate::observe::PeakAttribution {
            mode,
            rail: match peak_rail {
                Rail::Vdd => "vdd",
                Rail::Gnd => "gnd",
            }
            .to_owned(),
            edge: match peak_event {
                ClockEdge::Rise => "rise",
                ClockEdge::Fall => "fall",
            }
            .to_owned(),
            time_ps: peak_time.value(),
            peak_ma,
            contributions,
        })
    }

    /// The [`Self::attribution`] of the mode with the largest attributed
    /// peak (the first such mode on a tie), matching the worst-mode
    /// `peak_after` an outcome reports; `None` for a design without power
    /// modes.
    ///
    /// # Errors
    ///
    /// Propagates timing/characterization failures.
    pub fn worst_attribution(
        &self,
    ) -> Result<Option<crate::observe::PeakAttribution>, WaveMinError> {
        let mut worst: Option<crate::observe::PeakAttribution> = None;
        for mode in 0..self.design.mode_count() {
            let attr = self.attribution(mode)?;
            if worst.as_ref().is_none_or(|w| attr.peak_ma > w.peak_ma) {
                worst = Some(attr);
            }
        }
        Ok(worst)
    }

    fn evaluate_inner(
        &self,
        mode: usize,
        variation: Option<&Variation>,
    ) -> Result<NoiseReport, WaveMinError> {
        let design = self.design;
        let tree = &design.tree;

        // Timing under variation (if any) for the skew figure.
        let supply = design.power.supply_for(tree, mode);
        let adjust = match variation {
            Some(v) => {
                let mut combined = v.timing.clone();
                // ADB codes add on top of variation.
                let base = &design.mode_adjust[mode];
                for (i, &d) in base.extra_delay.iter().enumerate() {
                    if d > Picoseconds::ZERO {
                        let mut cur = combined
                            .extra_delay
                            .get(i)
                            .copied()
                            .unwrap_or(Picoseconds::ZERO);
                        cur += d;
                        combined.set_extra_delay(wavemin_clocktree::NodeId(i), cur);
                    }
                }
                combined
            }
            None => design.mode_adjust[mode].clone(),
        };
        let timing = wavemin_clocktree::Timing::analyze(
            tree,
            &design.lib,
            &design.chr,
            design.wire,
            &supply,
            Some(&adjust),
        )?;
        let skew = timing.skew(tree);

        let per_node = self.node_waveforms(mode, variation)?;
        let total = EventWaveforms::sum(per_node.iter());

        // Worst instantaneous current over the four slots.
        let mut peak = MicroAmps::ZERO;
        let mut peak_rail = Rail::Vdd;
        let mut peak_event = ClockEdge::Rise;
        let mut peak_time = Picoseconds::ZERO;
        for (rail, event) in EventWaveforms::SLOTS {
            let w = total.get(rail, event);
            let p = w.peak();
            if p > peak {
                peak = p;
                peak_rail = rail;
                peak_event = event;
                peak_time = w.peak_time().unwrap_or(Picoseconds::ZERO);
            }
        }

        // Power-grid noise: inject each node's instantaneous current at
        // the worst instant of each rail (per event, take the worse).
        let die = die_side(design);
        let grid = PowerGrid::over_die(die, self.grid_options);
        let mut vdd_noise = Millivolts::ZERO;
        let mut gnd_noise = Millivolts::ZERO;
        for (rail, event) in EventWaveforms::SLOTS {
            let w = total.get(rail, event);
            let Some(t_star) = w.peak_time() else {
                continue;
            };
            let injections: Vec<((f64, f64), MicroAmps)> = tree
                .iter()
                .map(|(id, node)| {
                    let i = per_node[id.0].get(rail, event).sample(t_star);
                    ((node.location.x.value(), node.location.y.value()), i)
                })
                .collect();
            let drop = grid.ir_drop(&injections);
            match rail {
                Rail::Vdd => vdd_noise = vdd_noise.max(drop),
                Rail::Gnd => gnd_noise = gnd_noise.max(drop),
            }
        }

        Ok(NoiseReport {
            peak: peak.to_milliamps(),
            peak_rail,
            peak_event,
            peak_time,
            vdd_noise,
            gnd_noise,
            skew,
        })
    }

    /// Characterizes every node under its actual operating point and
    /// shifts the signature to absolute time.
    fn node_waveforms(
        &self,
        mode: usize,
        variation: Option<&Variation>,
    ) -> Result<Vec<EventWaveforms>, WaveMinError> {
        let design = self.design;
        let tree = &design.tree;
        let supply = design.power.supply_for(tree, mode);
        let timing = wavemin_clocktree::Timing::analyze(
            tree,
            &design.lib,
            &design.chr,
            design.wire,
            &supply,
            Some(&design.mode_adjust[mode]),
        )?;
        let mut out = Vec::with_capacity(tree.len());
        for (id, node) in tree.iter() {
            let cell = design
                .lib
                .get(&node.cell)
                .ok_or_else(|| WaveMinError::MissingCell(node.cell.clone()))?;
            let profile = design.chr.characterize(
                cell,
                timing.load[id.0],
                timing.input_slew[id.0],
                supply.at(id),
            );
            let extra = design.mode_adjust[mode]
                .extra_delay
                .get(id.0)
                .copied()
                .unwrap_or(Picoseconds::ZERO);
            let mut waves = EventWaveforms::from_profile(&profile, timing.input_edge[id.0])
                .shifted(timing.input_arrival[id.0] + extra);
            if let Some(v) = variation {
                waves = waves.scaled(v.current_mult.get(id.0).copied().unwrap_or(1.0));
            }
            out.push(waves);
        }
        Ok(out)
    }
}

/// The die side covering all node placements (for the power grid).
fn die_side(design: &Design) -> Microns {
    let mut side = 50.0_f64;
    for (_, node) in design.tree.iter() {
        side = side
            .max(node.location.x.value())
            .max(node.location.y.value());
    }
    Microns::new(side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wavemin_clocktree::variation::VariationModel;
    use wavemin_clocktree::Benchmark;

    fn design() -> Design {
        Design::from_benchmark(&Benchmark::s15850(), 1)
    }

    #[test]
    fn report_has_positive_noise_figures() {
        let d = design();
        let r = NoiseEvaluator::new(&d).evaluate(0).unwrap();
        assert!(r.peak.value() > 0.0);
        assert!(r.vdd_noise.value() > 0.0);
        assert!(r.gnd_noise.value() > 0.0);
        assert!(r.skew.value() < 10.0);
    }

    #[test]
    fn peak_magnitude_is_chip_scale() {
        // 22 buffering elements, each a few hundred µA: peak should be
        // on the order of single-digit mA (Table V lists 3 mA for s15850).
        let d = design();
        let r = NoiseEvaluator::new(&d).evaluate(0).unwrap();
        assert!(
            (0.2..60.0).contains(&r.peak.value()),
            "peak {} mA out of plausible range",
            r.peak
        );
    }

    #[test]
    fn all_buffer_tree_peaks_at_vdd_rise() {
        // Every cell is a buffer: the whole tree charges from VDD at the
        // rising edge, so that slot must hold the peak.
        let d = design();
        let r = NoiseEvaluator::new(&d).evaluate(0).unwrap();
        assert_eq!(r.peak_rail, Rail::Vdd);
        assert_eq!(r.peak_event, ClockEdge::Rise);
    }

    #[test]
    fn inverting_half_the_leaves_reduces_peak() {
        // The core premise of polarity assignment (Fig. 1).
        let mut d = design();
        let leaves = d.leaves();
        for (i, &leaf) in leaves.iter().enumerate() {
            if i % 2 == 0 {
                d.tree.set_cell(leaf, "INV_X8");
            }
        }
        let balanced = NoiseEvaluator::new(&d).evaluate(0).unwrap();
        let all_buf = NoiseEvaluator::new(&design()).evaluate(0).unwrap();
        assert!(
            balanced.peak.value() < all_buf.peak.value(),
            "balanced {} vs all-buffer {}",
            balanced.peak,
            all_buf.peak
        );
    }

    #[test]
    fn waveforms_sum_to_total() {
        let d = design();
        let (per_node, total) = NoiseEvaluator::new(&d).waveforms(0).unwrap();
        assert_eq!(per_node.len(), d.tree.len());
        let t = total.vdd_rise.peak_time().unwrap();
        let manual: f64 = per_node.iter().map(|w| w.vdd_rise.sample(t).value()).sum();
        assert!((manual - total.vdd_rise.sample(t).value()).abs() < 1e-6);
    }

    #[test]
    fn attribution_sums_to_its_peak_and_matches_the_report() {
        let d = design();
        let eval = NoiseEvaluator::new(&d);
        let report = eval.evaluate(0).unwrap();
        let attr = eval.attribution(0).unwrap();
        // Exact by construction: peak_ma is the stored-order sum.
        assert!((attr.contribution_sum() - attr.peak_ma).abs() <= 1e-9);
        // And it decomposes the same argmax instant the report found.
        assert_eq!(attr.rail, "vdd");
        assert_eq!(attr.edge, "rise");
        assert!((attr.time_ps - report.peak_time.value()).abs() < 1e-9);
        assert!(
            (attr.peak_ma - report.peak.value()).abs() < 1e-5,
            "attributed {} vs evaluated {}",
            attr.peak_ma,
            report.peak
        );
        assert_eq!(attr.contributions.len(), d.tree.len());
        assert!(attr
            .contributions
            .windows(2)
            .all(|w| w[0].amps_ma >= w[1].amps_ma));
        assert!(attr.contributions.iter().any(|c| c.kind == "sink"));
        assert!(attr.contributions.iter().any(|c| c.kind == "nonleaf"));
    }

    #[test]
    fn variation_changes_but_stays_close() {
        let d = design();
        let eval = NoiseEvaluator::new(&d);
        let base = eval.evaluate(0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let v = VariationModel::default().sample(&d.tree, &mut rng);
        let varied = eval.evaluate_with_variation(0, &v).unwrap();
        assert_ne!(base.peak, varied.peak);
        let ratio = varied.peak.value() / base.peak.value();
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn corner_pads_worsen_grid_noise() {
        use wavemin_pgrid::{GridOptions, PadPlacement};
        let d = design();
        let ring = NoiseEvaluator::new(&d).evaluate(0).unwrap();
        let corners = NoiseEvaluator::new(&d)
            .with_grid_options(GridOptions {
                pads: PadPlacement::Corners,
                ..GridOptions::default()
            })
            .evaluate(0)
            .unwrap();
        assert!(corners.vdd_noise > ring.vdd_noise);
        assert_eq!(corners.peak, ring.peak, "pads do not change currents");
    }

    #[test]
    fn evaluation_is_invariant_under_fanout_order() {
        let d = design();
        let mut canon = d.clone();
        canon.tree.canonicalize();
        let a = NoiseEvaluator::new(&d).evaluate(0).unwrap();
        let b = NoiseEvaluator::new(&canon).evaluate(0).unwrap();
        assert!((a.peak.value() - b.peak.value()).abs() < 1e-9);
        assert!((a.skew.value() - b.skew.value()).abs() < 1e-9);
    }

    #[test]
    fn adb_code_shifts_waveform_and_skew() {
        let mut d = design();
        let leaf = d.leaves()[0];
        d.mode_adjust[0].set_extra_delay(leaf, Picoseconds::new(10.0));
        let r = NoiseEvaluator::new(&d).evaluate(0).unwrap();
        assert!((r.skew.value() - 10.0).abs() < 2.0, "skew {}", r.skew);
    }
}
