//! Optimization configuration.

use crate::error::WaveMinError;
use crate::fault::FaultPlan;
use serde::Serialize;
use std::time::Duration;
use wavemin_cells::units::{Microns, Picoseconds};
use wavemin_mosp::Budget;

/// How the fixed non-leaf buffers' noise enters each zone's objective
/// (Observation 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BackgroundMode {
    /// Non-leaf elements placed in or near the zone (noise is local).
    LocalZone,
    /// The whole tree's non-leaf background in every zone.
    Global,
    /// Ignore non-leaf noise (the prior-work behaviour WaveMin fixes).
    None,
}

/// Which solver runs inside each zone × interval subproblem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum SolverKind {
    /// Warburton's ε-approximate MOSP solve (the paper's ClkWaveMin).
    Warburton {
        /// Approximation parameter (the paper uses 0.01).
        epsilon: f64,
    },
    /// Exact Pareto enumeration, capped per vertex at
    /// [`WaveMinConfig::label_cap`] labels like the Warburton solve.
    Exact,
}

impl Default for SolverKind {
    fn default() -> Self {
        SolverKind::Warburton { epsilon: 0.01 }
    }
}

/// Configuration of a WaveMin run (Problem 1 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WaveMinConfig {
    /// Clock skew bound κ.
    pub skew_bound: Picoseconds,
    /// Total number of time sampling points |S| (split over 2 rails × 2
    /// clock-edge events; values below 4 are rounded up to 4).
    pub sample_count: usize,
    /// Candidate cells `B ∪ I` every sink may be assigned to.
    pub assignment_cells: Vec<String>,
    /// Zone pitch for the local-noise partition.
    pub zone_pitch: Microns,
    /// The per-subproblem solver.
    pub solver: SolverKind,
    /// Safety cap on Pareto labels per vertex inside every zone solve,
    /// exact or Warburton (the ε-grid usually collapses labels long
    /// before this).
    pub label_cap: usize,
    /// Keep at most this many feasible intervals (best degree-of-freedom
    /// first); `None` = all.
    pub max_intervals: Option<usize>,
    /// Non-leaf background treatment (Observation 1).
    pub background: BackgroundMode,
    /// Fraction of κ used as the optimization window; the remainder is
    /// headroom for the sibling-load feedback Observation 4 ignores.
    pub window_margin: f64,
    /// Characterize sink candidates through per-cell lookup tables with
    /// linear interpolation (the paper's Section IV-B scheme) instead of
    /// calling the analytic model per (sink, cell) pair. Faster for large
    /// designs, at a small interpolation error.
    pub lut_characterization: bool,
    /// Wall-clock budget for one optimization run in milliseconds
    /// (`None` = unbounded). When the budget runs out mid-solve the zone
    /// solvers descend the degradation ladder (exact → ε-approximate →
    /// capped → greedy) instead of running unbounded; the relaxations are
    /// reported in [`crate::algo::Outcome::degradation`].
    pub time_budget_ms: Option<u64>,
    /// Worker threads for the independent solve units (feasible intervals,
    /// interval intersections, power modes). `None` = one per available
    /// core. Results are collected in input order, so the outcome is
    /// independent of this setting (budgeted runs excepted: a shared work
    /// cap is drained in whatever order the workers charge it).
    pub threads: Option<usize>,
    /// Collect solver metrics into a [`crate::observe::RunReport`] attached
    /// to the outcome. Off by default: when disabled the instrumented call
    /// sites reduce to a branch on a `None` registry.
    #[serde(default)]
    pub collect_metrics: bool,
    /// Deterministic fault-injection plan for chaos testing: seeded panics,
    /// forced budget exhaustion, and NaN-poisoned cost vectors fired at
    /// solver hook sites. `None` (the production setting) injects nothing.
    /// Defaults from the `WAVEMIN_FAULTS=seed:rate` environment variable.
    #[serde(default)]
    pub fault_plan: Option<FaultPlan>,
    /// Total process memory budget in MB. Zone problems are built when an
    /// interval first needs them and kept resident in a store sized to
    /// what remains after the measured baseline (noise table, intervals)
    /// and one hot zone; resident zones are evicted LRU (`zones_spilled`)
    /// and rebuilt on next use (`zone_recomputes`). Residency never
    /// changes results. A budget the minimal working set cannot fit
    /// fails with [`WaveMinError::MemoryBudget`] before any zone is
    /// solved. `None` = unbounded: every zone stays resident.
    #[serde(default)]
    pub memory_budget_mb: Option<usize>,
}

impl Default for WaveMinConfig {
    /// The paper's experimental setup: κ = 20 ps, |S| = 158, ε = 0.01,
    /// 50 µm zones, candidates {BUF_X8, BUF_X16, INV_X8, INV_X16}.
    fn default() -> Self {
        Self {
            skew_bound: Picoseconds::new(20.0),
            sample_count: 158,
            assignment_cells: vec![
                "BUF_X8".to_owned(),
                "BUF_X16".to_owned(),
                "INV_X8".to_owned(),
                "INV_X16".to_owned(),
            ],
            zone_pitch: Microns::new(50.0),
            solver: SolverKind::default(),
            label_cap: 64,
            max_intervals: Some(48),
            background: BackgroundMode::Global,
            window_margin: 0.8,
            lut_characterization: false,
            time_budget_ms: None,
            threads: None,
            collect_metrics: false,
            fault_plan: FaultPlan::from_env(),
            memory_budget_mb: None,
        }
    }
}

impl WaveMinConfig {
    /// Number of sample times per (rail, event) pair: `max(1, |S|/4)`.
    #[must_use]
    pub fn samples_per_slot(&self) -> usize {
        (self.sample_count / 4).max(1)
    }

    /// The effective |S| after rounding (always a multiple of 4).
    #[must_use]
    pub fn effective_sample_count(&self) -> usize {
        self.samples_per_slot() * 4
    }

    /// Returns the config with a different skew bound.
    #[must_use]
    pub fn with_skew_bound(mut self, kappa: Picoseconds) -> Self {
        self.skew_bound = kappa;
        self
    }

    /// Returns the config with a different sample count.
    #[must_use]
    pub fn with_sample_count(mut self, s: usize) -> Self {
        self.sample_count = s;
        self
    }

    /// Returns the config with a different zone solver.
    #[must_use]
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Returns the config with a wall-clock budget (milliseconds).
    #[must_use]
    pub fn with_time_budget_ms(mut self, ms: u64) -> Self {
        self.time_budget_ms = Some(ms);
        self
    }

    /// Returns the config with an explicit worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Returns the config with metric collection switched on or off.
    #[must_use]
    pub fn with_metrics(mut self, collect: bool) -> Self {
        self.collect_metrics = collect;
        self
    }

    /// Returns the config with an explicit fault-injection plan (`None`
    /// disables injection even when `WAVEMIN_FAULTS` is set).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Returns the config with a total-process memory budget in MB.
    #[must_use]
    pub fn with_memory_budget_mb(mut self, mb: usize) -> Self {
        self.memory_budget_mb = Some(mb);
        self
    }

    /// The worker count the solve pipeline will actually use: the
    /// configured [`Self::threads`], or one per available core. The core
    /// count is resolved once per process and then pinned, so a daemon
    /// whose cgroup limits change between jobs keeps a stable worker
    /// count for every job of a session.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(crate::parallel::available_threads)
    }

    /// A fresh [`Budget`] for one run: the deadline starts counting now.
    #[must_use]
    pub fn budget(&self) -> Budget {
        match self.time_budget_ms {
            Some(ms) => Budget::with_time_limit(Duration::from_millis(ms)),
            None => Budget::unlimited(),
        }
    }

    /// Rejects configurations no optimization can meaningfully run with.
    ///
    /// # Errors
    ///
    /// [`WaveMinError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), WaveMinError> {
        if !self.skew_bound.value().is_finite() || self.skew_bound.value() <= 0.0 {
            return Err(WaveMinError::InvalidConfig(
                "skew_bound must be positive and finite",
            ));
        }
        if self.sample_count == 0 {
            return Err(WaveMinError::InvalidConfig(
                "sample_count must be nonzero (the noise objective needs samples)",
            ));
        }
        if self.assignment_cells.is_empty() {
            return Err(WaveMinError::InvalidConfig(
                "assignment_cells must name at least one candidate cell",
            ));
        }
        if !self.zone_pitch.value().is_finite() || self.zone_pitch.value() <= 0.0 {
            return Err(WaveMinError::InvalidConfig(
                "zone_pitch must be positive and finite",
            ));
        }
        if let SolverKind::Warburton { epsilon } = self.solver {
            if !epsilon.is_finite() || epsilon <= 0.0 {
                return Err(WaveMinError::InvalidConfig(
                    "Warburton epsilon must be positive and finite",
                ));
            }
        }
        if self.label_cap == 0 {
            return Err(WaveMinError::InvalidConfig("label_cap must be at least 1"));
        }
        if self.max_intervals == Some(0) {
            return Err(WaveMinError::InvalidConfig(
                "max_intervals of 0 keeps no interval; use None for unbounded",
            ));
        }
        if !self.window_margin.is_finite() || self.window_margin <= 0.0 || self.window_margin > 1.0
        {
            return Err(WaveMinError::InvalidConfig(
                "window_margin must lie in (0, 1]",
            ));
        }
        if self.threads == Some(0) {
            return Err(WaveMinError::InvalidConfig(
                "threads must be at least 1 (use None for one per core)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = WaveMinConfig::default();
        assert_eq!(c.skew_bound, Picoseconds::new(20.0));
        assert_eq!(c.sample_count, 158);
        assert_eq!(c.assignment_cells.len(), 4);
        assert_eq!(c.zone_pitch, Microns::new(50.0));
        assert!(matches!(c.solver, SolverKind::Warburton { epsilon } if epsilon == 0.01));
    }

    #[test]
    fn sample_slot_arithmetic() {
        let c = WaveMinConfig::default().with_sample_count(158);
        assert_eq!(c.samples_per_slot(), 39);
        assert_eq!(c.effective_sample_count(), 156);
        let tiny = WaveMinConfig::default().with_sample_count(4);
        assert_eq!(tiny.samples_per_slot(), 1);
        assert_eq!(tiny.effective_sample_count(), 4);
        let sub = WaveMinConfig::default().with_sample_count(1);
        assert_eq!(
            sub.effective_sample_count(),
            4,
            "rounded up to one per slot"
        );
    }

    #[test]
    fn builder_methods() {
        let c = WaveMinConfig::default()
            .with_skew_bound(Picoseconds::new(90.0))
            .with_sample_count(8);
        assert_eq!(c.skew_bound, Picoseconds::new(90.0));
        assert_eq!(c.sample_count, 8);
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(
            WaveMinConfig::default().with_threads(3).effective_threads(),
            3
        );
        assert!(WaveMinConfig::default().effective_threads() >= 1);
        assert_eq!(WaveMinConfig::default().with_threads(1).validate(), Ok(()));
    }

    #[test]
    fn default_config_validates_and_is_unbudgeted() {
        let c = WaveMinConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.budget(), Budget::unlimited());
        let b = c.with_time_budget_ms(50).budget();
        assert!(b.remaining().expect("deadline set") <= Duration::from_millis(50));
    }

    #[test]
    fn memory_budget_builder_sets_the_cap() {
        let c = WaveMinConfig::default();
        assert_eq!(c.memory_budget_mb, None);
        let budgeted = c.with_memory_budget_mb(256);
        assert_eq!(budgeted.memory_budget_mb, Some(256));
        assert_eq!(budgeted.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_fields() {
        let cases: Vec<(WaveMinConfig, &str)> = vec![
            (
                WaveMinConfig::default().with_skew_bound(Picoseconds::new(-1.0)),
                "skew_bound",
            ),
            (
                WaveMinConfig::default().with_skew_bound(Picoseconds::new(f64::NAN)),
                "skew_bound",
            ),
            (
                WaveMinConfig::default().with_sample_count(0),
                "sample_count",
            ),
            (
                WaveMinConfig {
                    assignment_cells: vec![],
                    ..WaveMinConfig::default()
                },
                "assignment_cells",
            ),
            (
                WaveMinConfig {
                    zone_pitch: Microns::new(0.0),
                    ..WaveMinConfig::default()
                },
                "zone_pitch",
            ),
            (
                WaveMinConfig {
                    solver: SolverKind::Warburton { epsilon: 0.0 },
                    ..WaveMinConfig::default()
                },
                "epsilon",
            ),
            (
                WaveMinConfig {
                    label_cap: 0,
                    ..WaveMinConfig::default()
                },
                "label_cap",
            ),
            (
                WaveMinConfig {
                    max_intervals: Some(0),
                    ..WaveMinConfig::default()
                },
                "max_intervals",
            ),
            (
                WaveMinConfig {
                    window_margin: 1.5,
                    ..WaveMinConfig::default()
                },
                "window_margin",
            ),
            (WaveMinConfig::default().with_threads(0), "threads"),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().expect_err(needle);
            assert!(
                err.to_string().contains(needle),
                "error '{err}' should mention {needle}"
            );
        }
    }
}
