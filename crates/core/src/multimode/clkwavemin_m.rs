//! ClkWaveMin-M: the full multi-mode optimization flow (Fig. 13).

use crate::algo::clkwavemin::MospZoneSolver;
use crate::algo::{
    finish_outcome, prepare_run, solve_each_intersection, solve_prepared, Outcome, PreparedRun,
};
use crate::assignment::Assignment;
use crate::checkpoint::ZoneCache;
use crate::config::WaveMinConfig;
use crate::design::Design;
use crate::error::WaveMinError;
use crate::multimode::adb::insert_adbs;
use crate::multimode::intersect::{FeasibleIntersection, IntersectionSet};
use crate::noise_table::NoiseTable;
use crate::observe::{Instruments, Stage};

/// The multi-power-mode optimizer.
///
/// Flow: try polarity assignment + sizing alone (per-mode feasible
/// interval intersection, per-mode noise vectors concatenated into the
/// MOSP weights); if no feasible intersection exists, insert ADBs first
/// (leaf ADBs may then be re-assigned to the proposed ADIs), and optimize
/// the ADB-embedded tree. The `Outcome`'s *before* figures describe the
/// state right before the final polarity optimization — i.e. the
/// "ADB-embedded-only" baseline of Table VII when ADBs were needed.
///
/// The solve itself is the shared interval framework with k-window
/// intersections as its unit of work, so zone residency under the memory
/// budget, the zone-result store (checkpoint journal or in-memory cache)
/// and fault containment are the single-mode ones; with one mode this is
/// exactly ClkWaveMin.
///
/// # Example
///
/// ```
/// use wavemin::prelude::*;
/// use wavemin_cells::units::Picoseconds;
///
/// let design = Design::from_benchmark_multimode(&Benchmark::s15850(), 5, 4, 2);
/// let cfg = WaveMinConfig::default().with_skew_bound(Picoseconds::new(90.0));
/// let out = ClkWaveMinM::new(cfg.clone()).run(&design)?;
/// assert!(out.skew_after.value() <= cfg.skew_bound.value() * 1.05 + 1e-9);
/// # Ok::<(), WaveMinError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClkWaveMinM {
    config: WaveMinConfig,
    beam: usize,
}

impl ClkWaveMinM {
    /// Creates the optimizer with the given configuration and the default
    /// intersection beam width.
    #[must_use]
    pub fn new(config: WaveMinConfig) -> Self {
        Self { config, beam: 24 }
    }

    /// Overrides the degree-of-freedom beam width used while intersecting
    /// per-mode interval sets.
    #[must_use]
    pub fn with_beam(mut self, beam: usize) -> Self {
        self.beam = beam.max(1);
        self
    }

    /// Runs the flow on a multi-mode design, instrumented as the config
    /// asks ([`Instruments::from_config`]), without a zone store.
    ///
    /// # Errors
    ///
    /// [`WaveMinError::AdbInsertionFailed`] when even ADBs cannot meet the
    /// bound; timing/solver errors otherwise.
    pub fn run(&self, design: &Design) -> Result<Outcome, WaveMinError> {
        self.run_instrumented(design, None, &Instruments::from_config(&self.config))
    }

    /// [`Self::run`] against the caller's zone store, observed through the
    /// caller's [`Instruments`], as
    /// [`crate::algo::ClkWaveMin::run_instrumented`]: every zone solve of
    /// every margin and ADB retry looks up and records its zone in
    /// `store`. Chain keys hash each zone's content and restriction over
    /// every mode, so an entry is as safe to splice here as in the
    /// single-mode flow. The run report comes from the instruments'
    /// registry, and their journal receives the stage spans
    /// (`intersection` included), zone-solve spans and solver events of
    /// every retry.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`], plus [`WaveMinError::Checkpoint`] when a
    /// journal write fails.
    pub fn run_instrumented(
        &self,
        design: &Design,
        store: Option<&ZoneCache>,
        ins: &Instruments,
    ) -> Result<Outcome, WaveMinError> {
        self.config.validate()?;
        design.validate()?;
        // One ladder (and one shared deadline) governs the whole flow, so
        // escalations persist across the margin retries below — and one
        // registry keeps accumulating across them (zone ids are stable
        // between retries).
        let solver = MospZoneSolver::new(&self.config, self.config.budget(), ins);
        let mut outcome = self.run_ladder(design, &solver, store)?;
        outcome.degradation = solver.ladder.degradation();
        outcome.attach_report(&self.config, ins, Some(&solver.ladder));
        Ok(outcome)
    }

    fn run_ladder(
        &self,
        design: &Design,
        solver: &MospZoneSolver,
        store: Option<&ZoneCache>,
    ) -> Result<Outcome, WaveMinError> {
        let ins = &solver.ladder.ins;
        // Estimation error (sibling-load feedback, slew drift, quantized
        // delay codes, per-mode voltage scaling) can exceed the default
        // headroom on multi-mode designs, so the optimization window is
        // tightened progressively until the exact skew check passes.
        let wm = self.config.window_margin;
        let margins = [wm, (wm - 0.15).max(0.3), (wm - 0.3).max(0.25)];

        // Phase 1: polarity assignment + sizing alone. The margin only
        // tightens the intersection windows, never the characterization,
        // so one prepared run (per-mode noise tables and zone store) is
        // shared across all margin retries.
        let mut prep = self.prepare(design, ins)?;
        for &margin in &margins {
            match self.optimize(design, &mut prep, margin, solver, store) {
                Ok(outcome) => return Ok(outcome),
                Err(WaveMinError::NoFeasibleInterval) => {}
                Err(e) => return Err(e),
            }
        }
        drop(prep);
        // Phase 2: embed ADBs, then re-optimize with ADB/ADI candidates.
        // Repair to the tightened bound so the matching optimization
        // window stays feasible. Each embedded clone is a different
        // design, so it is prepared afresh.
        let mut last_err = WaveMinError::NoFeasibleInterval;
        for &margin in &margins {
            let mut embedded = design.clone();
            match insert_adbs(&mut embedded, self.config.skew_bound * margin) {
                Ok(_) => {}
                Err(e) => {
                    last_err = e;
                    continue;
                }
            }
            let mut prep = self.prepare(&embedded, ins)?;
            match self.optimize(&embedded, &mut prep, margin, solver, store) {
                Ok(outcome) => return Ok(outcome),
                Err(WaveMinError::NoFeasibleInterval) => {
                    last_err = WaveMinError::NoFeasibleInterval;
                }
                Err(e) => return Err(e),
            }
        }
        // Trivial solution: the ADB-embedded tree itself (feasible when
        // any insertion above succeeded).
        let mut embedded = design.clone();
        match insert_adbs(&mut embedded, self.config.skew_bound * margins[0]) {
            Ok(_) => finish_outcome(
                &embedded,
                &embedded,
                Assignment::new(),
                f64::NAN,
                0,
                std::time::Duration::ZERO,
            ),
            Err(_) => Err(last_err),
        }
    }

    /// Solves every feasible intersection of a design and returns
    /// `(degree of freedom, min-max cost)` pairs — the data behind the
    /// paper's Fig. 14 (degree-of-freedom pruning justification).
    ///
    /// # Errors
    ///
    /// Propagates preprocessing/solver failures; returns
    /// [`WaveMinError::NoFeasibleInterval`] when nothing intersects.
    pub fn intersection_costs(&self, design: &Design) -> Result<Vec<(usize, f64)>, WaveMinError> {
        // (figure helper keeps the configured margin and has no budget)
        let ins = Instruments::disabled();
        let solver = MospZoneSolver::new(&self.config, wavemin_mosp::Budget::unlimited(), &ins);
        let mut prep = self.prepare(design, &ins)?;
        prep.intersections = self.intersections(&prep.tables, self.config.window_margin, &ins)?;
        let (solved, _) = solve_each_intersection(
            self.config.effective_threads(),
            &prep,
            &solver,
            None,
            None,
            &ins,
        );
        let mut out = Vec::new();
        for (intersection, result) in prep.intersections.iter().zip(solved) {
            if let Some((cost, _)) = result? {
                out.push((intersection.degree_of_freedom(), cost));
            }
        }
        Ok(out)
    }

    /// Characterizes every power mode of `design` (in parallel over
    /// modes) and partitions its zones; the intersections are left for
    /// [`Self::intersections`] to fill per margin.
    pub(crate) fn prepare(
        &self,
        design: &Design,
        ins: &Instruments,
    ) -> Result<PreparedRun, WaveMinError> {
        prepare_run(design, &self.config, design.mode_count(), ins, |_| {
            Ok(Vec::new())
        })
    }

    /// The feasible intersections of the per-mode windows under the skew
    /// bound tightened by `margin` (headroom for sibling-load feedback,
    /// like the single-mode flow).
    pub(crate) fn intersections(
        &self,
        tables: &[NoiseTable],
        margin: f64,
        ins: &Instruments,
    ) -> Result<Vec<FeasibleIntersection>, WaveMinError> {
        let _stage = ins.stage(Stage::Intersection);
        let mut tight = self.config.clone();
        tight.skew_bound = self.config.skew_bound * margin;
        Ok(IntersectionSet::generate(&tight, tables, self.beam)?.into_intersections())
    }

    /// One optimization pass over a prepared (possibly ADB-embedded)
    /// design with the given window margin. A pass with no intersection,
    /// or whose candidates all miss the exact bound, is
    /// [`WaveMinError::NoFeasibleInterval`], which moves the flow on to
    /// the next margin.
    fn optimize(
        &self,
        design: &Design,
        prep: &mut PreparedRun,
        margin: f64,
        solver: &MospZoneSolver,
        store: Option<&ZoneCache>,
    ) -> Result<Outcome, WaveMinError> {
        let ins = &solver.ladder.ins;
        prep.intersections = self.intersections(&prep.tables, margin, ins)?;
        solve_prepared(design, &self.config, prep, solver, store, ins)?
            .outcome
            .ok_or(WaveMinError::NoFeasibleInterval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use wavemin_cells::units::{Picoseconds, Volts};

    #[test]
    fn mild_design_needs_no_adbs() {
        let d = Design::from_benchmark_multimode(&Benchmark::s15850(), 5, 4, 2);
        let cfg = WaveMinConfig::default().with_skew_bound(Picoseconds::new(110.0));
        let out = ClkWaveMinM::new(cfg).run(&d).unwrap();
        assert_eq!(out.adb_count, 0);
        assert_eq!(out.adi_count, 0);
        assert!(out.peak_after.value() <= out.peak_before.value() + 1e-9);
    }

    #[test]
    fn harsh_design_gets_adbs_and_meets_skew() {
        let d = Design::from_benchmark_multimode_levels(
            &Benchmark::s15850(),
            3,
            4,
            4,
            Volts::new(0.9),
            Volts::new(1.1),
        );
        let kappa = Picoseconds::new(20.0);
        assert!(d.max_skew().unwrap() > kappa);
        let cfg = WaveMinConfig::default().with_skew_bound(kappa);
        let out = ClkWaveMinM::new(cfg).run(&d).unwrap();
        assert!(out.adb_count > 0, "ADBs must be embedded");
        assert!(
            out.skew_after.value() <= kappa.value() * 1.05 + 1e-9,
            "skew {} vs bound {kappa}",
            out.skew_after
        );
    }

    #[test]
    fn every_mode_respects_the_bound_after_optimization() {
        // Table VII's s15850 at κ = 28 ps needs no ADBs, so the assignment
        // alone turns the input into the optimized design.
        let bench = Benchmark::s15850();
        let d =
            Design::from_benchmark_multimode(&bench, 42, (4 + bench.leaf_count / 60).min(10), 4);
        let kappa = Picoseconds::new(28.0);
        let cfg = WaveMinConfig::default().with_skew_bound(kappa);
        let out = ClkWaveMinM::new(cfg).run(&d).unwrap();
        assert_eq!(out.adb_count, 0);
        assert!(!out.assignment.is_empty());
        let mut optimized = d.clone();
        out.assignment.apply_to(&mut optimized);
        for mode in 0..optimized.mode_count() {
            let skew = optimized.skew(mode).unwrap();
            assert!(
                skew.value() <= kappa.value() * 1.05 + 1e-9,
                "mode {mode}: skew {skew} vs bound {kappa}"
            );
        }
        // The outcome's worst-mode skew describes this very design.
        assert_eq!(optimized.max_skew().unwrap(), out.skew_after);
    }
}
