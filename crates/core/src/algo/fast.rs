//! ClkWaveMin-f: the fast greedy variant (Section V-C).

use crate::algo::{run_interval_framework, Outcome, ZoneProblem, ZoneSolution, ZoneSolver};
use crate::config::WaveMinConfig;
use crate::design::Design;
use crate::error::WaveMinError;
use crate::intervals::FeasibleInterval;
use crate::noise_table::NoiseTable;
use crate::observe::{MetricsRegistry, ReportContext, ZoneSolveRecord};
use wavemin_cells::units::Picoseconds;
use wavemin_mosp::SolveStats;

/// The greedy variant: instead of a shortest-path search, sinks are
/// assigned one at a time; at each step the (sink, cell) option whose
/// selection worsens the running noise expectation the least is committed
/// (`M(v) = max_s (sum(s) + noise(v, s))`, minimized over unassigned
/// vertices). `O(|S|·|L|²)` time, `O(|S|·|L|)` space.
///
/// # Example
///
/// ```
/// use wavemin::prelude::*;
///
/// let design = Design::from_benchmark(&Benchmark::s15850(), 7);
/// let fast = ClkWaveMinFast::new(WaveMinConfig::default()).run(&design)?;
/// assert!(fast.peak_after.value() <= fast.peak_before.value() + 1e-9);
/// # Ok::<(), WaveMinError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClkWaveMinFast {
    config: WaveMinConfig,
}

impl ClkWaveMinFast {
    /// Creates the optimizer with the given configuration.
    #[must_use]
    pub fn new(config: WaveMinConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &WaveMinConfig {
        &self.config
    }

    /// Optimizes a single-power-mode design.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::algo::ClkWaveMin::run`].
    pub fn run(&self, design: &Design) -> Result<Outcome, WaveMinError> {
        let registry = MetricsRegistry::from_config(&self.config);
        let solver = GreedyZoneSolver::new(registry.clone());
        let mut out = run_interval_framework(design, &self.config, &solver, &registry)?;
        out.report = registry.report(&ReportContext {
            threads: self.config.effective_threads(),
            degenerate_zones: out.degenerate_zones,
            ladder_rung: 0,
            budget_units: 0,
            kernel: wavemin_mosp::kernels::active().name(),
        });
        Ok(out)
    }
}

/// Greedy least-noise-worsening-first inner solver.
pub(crate) struct GreedyZoneSolver {
    registry: MetricsRegistry,
}

impl GreedyZoneSolver {
    pub(crate) fn new(registry: MetricsRegistry) -> Self {
        Self { registry }
    }
}

impl ZoneSolver for GreedyZoneSolver {
    fn solve_zone(
        &self,
        table: &NoiseTable,
        zone: &ZoneProblem,
        interval: &FeasibleInterval,
        extra: &crate::noise_table::BackgroundAccumulator,
    ) -> Result<ZoneSolution, WaveMinError> {
        let started = self.registry.is_enabled().then(std::time::Instant::now);
        let mut work = 0_u64;
        let spec = zone.spec();
        let rows = spec.sinks.len();
        let allowed = interval.allowed_for(&spec.sinks);
        // Candidate (row, option, code, vector) tuples.
        let mut candidates: Vec<Vec<(usize, Picoseconds, Vec<f64>)>> = Vec::with_capacity(rows);
        for (local, opts) in allowed.iter().enumerate() {
            let mut row = Vec::new();
            for &opt in opts.iter() {
                let si = spec.sinks[local];
                let o = &table.sinks[si].options[opt];
                if let Some(code) = o.delay_code_for(interval.t_lo, interval.t_hi) {
                    row.push((opt, code, zone.option_vector(table, local, opt, code)));
                }
            }
            if row.is_empty() {
                return Err(WaveMinError::NoFeasibleInterval);
            }
            candidates.push(row);
        }

        let mut sum = spec.background.clone();
        spec.plan.accumulate_background_into(&mut sum, extra);
        let mut choices = vec![(usize::MAX, Picoseconds::ZERO); rows];
        let mut remaining: Vec<usize> = (0..rows).collect();
        while !remaining.is_empty() {
            // Globally least-worsening vertex over all unassigned rows.
            let mut best: Option<(usize, usize, f64)> = None; // (row, cand idx, M)
            for &row in &remaining {
                for (ci, (_, _, vector)) in candidates[row].iter().enumerate() {
                    work += 1;
                    let m = wavemin_mosp::kernels::add_max(&sum, vector);
                    if best.is_none_or(|(_, _, bm)| m < bm) {
                        best = Some((row, ci, m));
                    }
                }
            }
            // Every row kept at least one candidate above, so a missing
            // best means the zone is genuinely unsolvable.
            let Some((row, ci, _)) = best else {
                return Err(WaveMinError::NoFeasibleInterval);
            };
            let (opt, code, ref vector) = candidates[row][ci];
            wavemin_mosp::kernels::add_assign(&mut sum, vector);
            choices[row] = (opt, code);
            remaining.retain(|&r| r != row);
        }
        let cost = wavemin_mosp::kernels::max_component(&sum).max(0.0);
        if let Some(started) = started {
            self.registry.record_zone_solve(
                spec.id,
                &ZoneSolveRecord {
                    stats: SolveStats {
                        labels_created: rows as u64,
                        labels_pruned: 0,
                        work,
                        front_size: 1,
                        dominance_checks: 0,
                        dominance_skipped: 0,
                    },
                    exhausted: false,
                    arena_arcs: 0,
                    arena_unique_weights: 0,
                    wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                },
            );
        }
        Ok(ZoneSolution { choices, cost })
    }
}

/// Sanity hook: the greedy cost can never beat the exact MOSP cost on the
/// same subproblem (used by the in-crate tests).
#[cfg(test)]
#[allow(clippy::items_after_test_module)]
fn greedy_vs_mosp_zone_cost(
    config: &WaveMinConfig,
    table: &NoiseTable,
    zone: &ZoneProblem,
    interval: &FeasibleInterval,
) -> Result<(f64, f64), WaveMinError> {
    use crate::algo::clkwavemin::MospZoneSolver;
    let zero = crate::noise_table::BackgroundAccumulator::zero();
    let greedy = GreedyZoneSolver::new(MetricsRegistry::disabled())
        .solve_zone(table, zone, interval, &zero)?;
    let mosp = MospZoneSolver::new(
        config,
        wavemin_mosp::Budget::unlimited(),
        MetricsRegistry::disabled(),
    )
    .solve_zone(table, zone, interval, &zero)?;
    Ok((greedy.cost, mosp.cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals::IntervalSet;
    use crate::prelude::*;

    fn small_design() -> Design {
        Design::from_benchmark(&Benchmark::s15850(), 7)
    }

    #[test]
    fn fast_reduces_or_keeps_peak() {
        let d = small_design();
        let out = ClkWaveMinFast::new(WaveMinConfig::default())
            .run(&d)
            .unwrap();
        assert!(out.peak_after.value() <= out.peak_before.value() + 1e-9);
    }

    #[test]
    fn fast_respects_skew_bound() {
        let d = small_design();
        let cfg = WaveMinConfig::default();
        let out = ClkWaveMinFast::new(cfg.clone()).run(&d).unwrap();
        assert!(out.skew_after.value() <= cfg.skew_bound.value() * 1.05 + 1e-9);
    }

    #[test]
    fn greedy_never_beats_mosp_per_zone() {
        let d = small_design();
        let cfg = WaveMinConfig::default().with_sample_count(16);
        let table = NoiseTable::build(&d, &cfg, 0).unwrap();
        let intervals = IntervalSet::generate(&table, cfg.skew_bound, Some(4));
        let zones = ZoneProblem::build_all(&d, &cfg, &table);
        let mut compared = 0;
        for interval in intervals.intervals() {
            for zone in &zones {
                if let Ok((g, m)) = greedy_vs_mosp_zone_cost(&cfg, &table, zone, interval) {
                    // The Warburton grid rounds within epsilon: allow that
                    // much slack in the comparison.
                    assert!(
                        g >= m * (1.0 - 0.02) - 1e-6,
                        "greedy {g} beat the exact-ish MOSP cost {m}"
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 0, "no zone/interval pairs compared");
    }

    #[test]
    fn fast_is_close_to_clkwavemin() {
        // Table VI shape: the greedy result lands near the MOSP result.
        let d = small_design();
        let cfg = WaveMinConfig::default();
        let full = ClkWaveMin::new(cfg.clone()).run(&d).unwrap();
        let fast = ClkWaveMinFast::new(cfg).run(&d).unwrap();
        let ratio = fast.peak_after.value() / full.peak_after.value();
        assert!(
            ratio <= 1.3,
            "greedy peak {} too far from MOSP peak {}",
            fast.peak_after,
            full.peak_after
        );
    }
}
