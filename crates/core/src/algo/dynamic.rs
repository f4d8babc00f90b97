//! Dynamically reconfigurable polarity — the XOR-gate scheme of Lu,
//! Teng & Taskin [30], [31], cited by the paper as enabling mode-specific
//! noise reduction.
//!
//! A static assignment must compromise across power modes; with an XOR
//! gate in front of a sink (and double-edge-triggered flip-flops), the
//! sink's polarity can be switched *per mode*. This optimizer therefore
//! runs an independent single-mode ClkWaveMin per power mode and reports
//! the per-mode assignments plus the hardware cost: the number of sinks
//! whose polarity differs between modes (each needs an XOR cell).

use crate::algo::{ClkWaveMin, Outcome};
use crate::assignment::Assignment;
use crate::config::WaveMinConfig;
use crate::design::Design;
use crate::error::WaveMinError;
use serde::Serialize;
use wavemin_cells::Polarity;
use wavemin_clocktree::{NodeId, PowerDesign};

/// The result of a dynamic (per-mode) polarity optimization.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DynamicOutcome {
    /// One full single-mode outcome per power mode.
    pub per_mode: Vec<Outcome>,
    /// Sinks whose polarity differs between at least two modes — each
    /// needs an XOR reconfiguration cell.
    pub xor_sinks: Vec<NodeId>,
    /// The worst per-mode optimized peak (mA) — what the dynamic scheme
    /// achieves.
    pub dynamic_peak_ma: f64,
    /// The worst-mode peak of the best *static* single assignment among
    /// the per-mode winners, for comparison.
    pub static_peak_ma: f64,
}

impl DynamicOutcome {
    /// Number of XOR cells required.
    #[must_use]
    pub fn xor_count(&self) -> usize {
        self.xor_sinks.len()
    }

    /// Peak reduction of dynamic over static, in percent.
    #[must_use]
    pub fn gain_over_static_pct(&self) -> f64 {
        if self.static_peak_ma.abs() < 1e-12 {
            0.0
        } else {
            (self.static_peak_ma - self.dynamic_peak_ma) / self.static_peak_ma * 100.0
        }
    }
}

/// Per-mode independent polarity assignment with XOR accounting.
#[derive(Debug, Clone)]
pub struct DynamicPolarity {
    config: WaveMinConfig,
}

impl DynamicPolarity {
    /// Creates the optimizer.
    #[must_use]
    pub fn new(config: WaveMinConfig) -> Self {
        Self { config }
    }

    /// Optimizes each power mode independently.
    ///
    /// # Errors
    ///
    /// Fails when any mode's single-mode problem is infeasible.
    pub fn run(&self, design: &Design) -> Result<DynamicOutcome, WaveMinError> {
        let modes = design.mode_count();
        // The per-mode problems are fully independent, so they fan out
        // over the worker pool (input-order collection keeps the result
        // identical to a sequential run).
        let mode_ids: Vec<usize> = (0..modes).collect();
        let per_mode: Vec<crate::algo::Outcome> =
            crate::parallel::map_ordered(&mode_ids, self.config.effective_threads(), |_, &m| {
                let view = mode_view(design, m);
                ClkWaveMin::new(self.config.clone()).run(&view)
            })
            .into_iter()
            .collect::<Result<_, _>>()?;

        // Cross-pollination: evaluate every winning assignment in every
        // mode and let each mode pick its best. By the minimax inequality
        // the resulting per-mode maximum can never exceed the best static
        // assignment's worst-mode peak.
        let assignments: Vec<&Assignment> = per_mode.iter().map(|o| &o.assignment).collect();
        let mut matrix = vec![vec![0.0_f64; modes]; assignments.len()];
        for (j, a) in assignments.iter().enumerate() {
            let peaks = per_mode_peaks(design, a)?;
            matrix[j].copy_from_slice(&peaks);
        }
        let static_best = (0..assignments.len())
            .min_by(|&a, &b| {
                let wa = matrix[a].iter().copied().fold(0.0_f64, f64::max);
                let wb = matrix[b].iter().copied().fold(0.0_f64, f64::max);
                wa.total_cmp(&wb)
            })
            .unwrap_or(0);
        let static_peak_ma = matrix[static_best].iter().copied().fold(0.0_f64, f64::max);
        // Per-mode argmin; near-ties resolve to the static winner so XOR
        // cells are only spent where they actually buy noise.
        let chosen: Vec<usize> = (0..modes)
            .map(|m| {
                let best = (0..assignments.len())
                    .min_by(|&a, &b| matrix[a][m].total_cmp(&matrix[b][m]))
                    .unwrap_or(m);
                if matrix[static_best][m] <= matrix[best][m] * 1.001 {
                    static_best
                } else {
                    best
                }
            })
            .collect();
        let mut chosen = chosen;
        let mut dynamic_peak_ma = (0..modes)
            .map(|m| matrix[chosen[m]][m])
            .fold(0.0_f64, f64::max);
        // When reconfiguration buys nothing overall, stay static: zero
        // XOR cells is strictly better hardware for the same noise.
        if dynamic_peak_ma >= static_peak_ma * 0.999 {
            chosen = vec![static_best; modes];
            dynamic_peak_ma = static_peak_ma;
        }

        // XOR accounting: sinks whose chosen polarity differs across the
        // modes' selected assignments.
        let mut xor_sinks = Vec::new();
        for &leaf in &design.tree.leaves() {
            let polarities: Vec<Option<Polarity>> = chosen
                .iter()
                .map(|&j| {
                    assignments[j]
                        .cells
                        .get(&leaf)
                        .and_then(|c| design.lib.get(c))
                        .map(|s| s.polarity())
                })
                .collect();
            let mut distinct: Vec<Polarity> = polarities.iter().flatten().copied().collect();
            distinct.sort();
            distinct.dedup();
            if distinct.len() > 1 {
                xor_sinks.push(leaf);
            }
        }

        Ok(DynamicOutcome {
            per_mode,
            xor_sinks,
            dynamic_peak_ma,
            static_peak_ma,
        })
    }
}

/// A single-mode view of one power mode: same tree and libraries, but the
/// power intent keeps only mode `m`.
fn mode_view(design: &Design, mode: usize) -> Design {
    let domains = design.power.domains().to_vec();
    let m = design.power.modes()[mode].clone();
    let mut view = design.clone();
    view.power = PowerDesign::new(domains, vec![m], wavemin_cells::units::Volts::new(1.1));
    view.mode_adjust = vec![design.mode_adjust[mode].clone()];
    view
}

/// The assignment's evaluated peak in every mode (delay codes dropped:
/// they belong to one mode's view only, and these designs have no ADBs).
fn per_mode_peaks(design: &Design, assignment: &Assignment) -> Result<Vec<f64>, WaveMinError> {
    let mut candidate = design.clone();
    let static_assignment = Assignment {
        cells: assignment.cells.clone(),
        delay_codes: Vec::new(),
    };
    static_assignment.apply_to(&mut candidate);
    let eval = crate::eval::NoiseEvaluator::new(&candidate);
    (0..candidate.mode_count())
        .map(|m| eval.evaluate(m).map(|r| r.peak.value()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use wavemin_cells::units::Picoseconds;

    fn quick_config() -> WaveMinConfig {
        let mut cfg = WaveMinConfig::default()
            .with_sample_count(16)
            .with_skew_bound(Picoseconds::new(40.0));
        cfg.max_intervals = Some(4);
        cfg
    }

    fn design() -> Design {
        Design::from_benchmark_multimode(&Benchmark::s15850(), 5, 3, 3)
    }

    #[test]
    fn per_mode_outcomes_cover_all_modes() {
        let d = design();
        let out = DynamicPolarity::new(quick_config()).run(&d).unwrap();
        assert_eq!(out.per_mode.len(), d.mode_count());
        for o in &out.per_mode {
            assert!(o.peak_after.value() > 0.0);
        }
    }

    #[test]
    fn dynamic_never_loses_to_static() {
        // Per-mode freedom is a superset of a single static assignment.
        let d = design();
        let out = DynamicPolarity::new(quick_config()).run(&d).unwrap();
        assert!(
            out.dynamic_peak_ma <= out.static_peak_ma + 1e-9,
            "dynamic {} vs static {} (minimax guarantee)",
            out.dynamic_peak_ma,
            out.static_peak_ma
        );
    }

    #[test]
    fn xor_sinks_are_leaves_with_conflicting_polarities() {
        let d = design();
        let out = DynamicPolarity::new(quick_config()).run(&d).unwrap();
        let leaves = d.tree.leaves();
        for s in &out.xor_sinks {
            assert!(leaves.contains(s));
        }
        assert!(out.xor_count() <= leaves.len());
    }

    #[test]
    fn single_mode_design_needs_no_xors() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 5);
        let out = DynamicPolarity::new(quick_config()).run(&d).unwrap();
        assert_eq!(out.per_mode.len(), 1);
        assert_eq!(out.xor_count(), 0);
    }
}
