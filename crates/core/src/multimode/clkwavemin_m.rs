//! ClkWaveMin-M: the full multi-mode optimization flow (Fig. 13).

use crate::algo::clkwavemin::{solve_zone_mosp_generic, MospLadder};
use crate::algo::{finish_outcome, Outcome, ZoneProblem};
use crate::assignment::Assignment;
use crate::config::WaveMinConfig;
use crate::design::Design;
use crate::error::WaveMinError;
use crate::multimode::adb::insert_adbs;
use crate::multimode::intersect::{FeasibleIntersection, IntersectionSet};
use crate::noise_table::NoiseTable;
use crate::observe::{MetricsRegistry, ReportContext, Stage};
use wavemin_cells::units::Picoseconds;

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

    /// Runs the flow on a multi-mode design.
    ///
    /// # Errors
    ///
    /// [`WaveMinError::AdbInsertionFailed`] when even ADBs cannot meet the
    /// bound; timing/solver errors otherwise.
    pub fn run(&self, design: &Design) -> Result<Outcome, WaveMinError> {
        self.config.validate()?;
        design.validate()?;
        // One ladder (and one shared deadline) governs the whole flow, so
        // escalations persist across the margin retries below — and one
        // registry keeps accumulating across them (zone ids are stable
        // between retries).
        let registry = MetricsRegistry::from_config(&self.config);
        let budget = self.config.budget();
        let ladder = MospLadder::new(&self.config, budget.clone(), registry.clone());
        let mut outcome = self.run_ladder(design, &ladder)?;
        outcome.degradation = ladder.degradation();
        outcome.faulted_zones = ladder.faulted_zones();
        outcome.report = registry.report(&ReportContext {
            threads: self.config.effective_threads(),
            degenerate_zones: outcome.degenerate_zones,
            ladder_rung: ladder.current_rung(),
            budget_units: budget.work_done(),
            kernel: wavemin_mosp::kernels::active().name(),
        });
        Ok(outcome)
    }

    fn run_ladder(&self, design: &Design, ladder: &MospLadder) -> Result<Outcome, WaveMinError> {
        // Estimation error (sibling-load feedback, slew drift, quantized
        // delay codes, per-mode voltage scaling) can exceed the default
        // headroom on multi-mode designs, so the optimization window is
        // tightened progressively until the exact skew check passes.
        let wm = self.config.window_margin;
        let margins = [wm, (wm - 0.15).max(0.3), (wm - 0.3).max(0.25)];
        let threads = self.config.effective_threads();

        // Phase 1: polarity assignment + sizing alone. The margin only
        // tightens the intersection windows, never the characterization,
        // so the per-mode noise tables and zone problems are built once
        // and shared across all margin retries — the session philosophy
        // applied inside one run.
        let mode_data = self.build_mode_data(design, threads, &ladder.registry)?;
        for &margin in &margins {
            match self.optimize(design, &mode_data, margin, ladder) {
                Ok(outcome) => return Ok(outcome),
                Err(WaveMinError::NoFeasibleInterval) => {}
                Err(e) => return Err(e),
            }
        }
        drop(mode_data);
        // Phase 2: embed ADBs, then re-optimize with ADB/ADI candidates.
        // Repair to the tightened bound so the matching optimization
        // window stays feasible. Each embedded clone is a different
        // design, so its mode data is rebuilt.
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
            let embedded_data = self.build_mode_data(&embedded, threads, &ladder.registry)?;
            match self.optimize(&embedded, &embedded_data, margin, ladder) {
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
        let threads = self.config.effective_threads();
        // (figure helper keeps the configured margin and has no budget)
        let ladder = MospLadder::unbudgeted(&self.config);
        let (tables, zones) = self.build_mode_data(design, threads, &ladder.registry)?;
        let mut tight = self.config.clone();
        tight.skew_bound = self.config.skew_bound * self.config.window_margin;
        let set = IntersectionSet::generate(design, &tight, &tables, self.beam)?;
        let solved = crate::parallel::map_ordered(
            set.intersections(),
            threads,
            |_, intersection| match self.solve_intersection(
                design,
                &tables,
                &zones,
                intersection,
                &ladder,
            ) {
                Ok((cost, _)) => Ok(Some((intersection.degree_of_freedom(), cost))),
                Err(WaveMinError::NoFeasibleInterval) => Ok(None),
                Err(e) => Err(e),
            },
        );
        let mut out = Vec::new();
        for result in solved {
            if let Some(pair) = result? {
                out.push(pair);
            }
        }
        Ok(out)
    }

    /// Builds the per-mode noise tables and zone problems, fanning the
    /// independent modes out over the worker pool.
    #[allow(clippy::type_complexity)]
    fn build_mode_data(
        &self,
        design: &Design,
        threads: usize,
        registry: &MetricsRegistry,
    ) -> Result<(Vec<NoiseTable>, Vec<Vec<ZoneProblem>>), WaveMinError> {
        let mode_ids: Vec<usize> = (0..design.mode_count()).collect();
        let tables: Vec<NoiseTable> = {
            let _span = registry.span(Stage::Characterization);
            crate::parallel::map_ordered(&mode_ids, threads, |_, &m| {
                NoiseTable::build(design, &self.config, m)
            })
            .into_iter()
            .collect::<Result<_, _>>()?
        };
        let _span = registry.span(Stage::Zoning);
        let zones: Vec<Vec<ZoneProblem>> =
            crate::parallel::map_ordered(&mode_ids, threads, |_, &m| {
                ZoneProblem::build_all(design, &self.config, &tables[m])
            });
        if let Some(per_mode) = zones.first() {
            registry.ensure_zones(per_mode.len());
        }
        Ok((tables, zones))
    }

    /// One optimization pass over a (possibly ADB-embedded) design with
    /// the given window margin. `mode_data` must be the output of
    /// [`Self::build_mode_data`] for this exact design; passing it in lets
    /// margin retries share one characterization.
    fn optimize(
        &self,
        design: &Design,
        mode_data: &(Vec<NoiseTable>, Vec<Vec<ZoneProblem>>),
        margin: f64,
        ladder: &MospLadder,
    ) -> Result<Outcome, WaveMinError> {
        let start = std::time::Instant::now();
        let threads = self.config.effective_threads();
        let (tables, zones) = mode_data;
        // Reserve sibling-load headroom like the single-mode flow.
        let mut tight = self.config.clone();
        tight.skew_bound = self.config.skew_bound * margin;
        let set = IntersectionSet::generate(design, &tight, tables, self.beam)?;
        let degenerate_zones = zones
            .iter()
            .flatten()
            .filter(|z| z.spec().plan.is_degenerate())
            .count();

        // Intersections are independent of each other (each chains its own
        // per-mode accumulated background), so they fan out over the
        // worker pool; input-order collection keeps the ranking identical
        // to a sequential run.
        let solved =
            crate::parallel::map_ordered(set.intersections(), threads, |_, intersection| {
                let _span = ladder.registry.span(Stage::Intersection);
                match self.solve_intersection(design, tables, zones, intersection, ladder) {
                    Ok(pair) => Ok(Some(pair)),
                    Err(WaveMinError::NoFeasibleInterval) => Ok(None),
                    Err(e) => Err(e),
                }
            });
        let mut ranked: Vec<(f64, Assignment)> = Vec::new();
        // Like the single-mode flow, an intersection lost to an
        // unsalvageable zone fault only fails the run when nothing else
        // survives to rank.
        let mut fault: Option<WaveMinError> = None;
        for result in solved {
            match result {
                Ok(Some(pair)) => ranked.push(pair),
                Ok(None) => {}
                Err(e @ WaveMinError::ZoneFault { .. }) => {
                    if fault.is_none() {
                        fault = Some(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if ranked.is_empty() {
            return Err(fault.unwrap_or(WaveMinError::NoFeasibleInterval));
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let runtime = start.elapsed();

        let _validation_span = ladder.registry.span(Stage::Validation);
        for (cost, assignment) in &ranked {
            let mut candidate = design.clone();
            assignment.apply_to(&mut candidate);
            let skew = candidate.max_skew()?;
            if std::env::var_os("WAVEMIN_DEBUG").is_some() {
                eprintln!("mm candidate cost {cost:.1} -> exact skew {skew}");
            }
            if skew.value() <= self.config.skew_bound.value() + 1e-9 {
                let mut out = finish_outcome(
                    design,
                    &candidate,
                    assignment.clone(),
                    *cost,
                    set.len(),
                    runtime,
                )?;
                out.degenerate_zones = degenerate_zones;
                return Ok(out);
            }
        }
        Err(WaveMinError::NoFeasibleInterval)
    }

    /// Solves every zone inside one intersection; weights concatenate the
    /// per-mode noise vectors (Fig. 12).
    fn solve_intersection(
        &self,
        design: &Design,
        tables: &[NoiseTable],
        zones: &[Vec<ZoneProblem>],
        intersection: &FeasibleIntersection,
        ladder: &MospLadder,
    ) -> Result<(f64, Assignment), WaveMinError> {
        let _ = design;
        let modes = tables.len();
        let zone_count = zones[0].len();
        let mut assignment = Assignment::new();
        let mut cost = 0.0_f64;
        // Accumulated noise of already-assigned zones, per mode (the
        // zones-one-by-one accumulation of the single-mode flow).
        let mut accumulated = vec![crate::noise_table::BackgroundAccumulator::zero(); modes];
        // Largest zones first.
        let mut zone_ids: Vec<usize> = (0..zone_count).collect();
        zone_ids.sort_by_key(|&z| std::cmp::Reverse(zones[0][z].spec().sinks.len()));

        for zi in zone_ids {
            let sinks0 = &zones[0][zi].spec().sinks;
            let rows = sinks0.len();
            let allowed: Vec<&[usize]> = sinks0
                .iter()
                .map(|&si| intersection.allowed[si].as_slice())
                .collect();
            // Concatenated background (static non-leaf + accumulated
            // assigned zones, per mode).
            let mut background = Vec::new();
            for m in 0..modes {
                let spec = zones[m][zi].spec();
                let mut bg = spec.background.clone();
                spec.plan
                    .accumulate_background_into(&mut bg, &accumulated[m]);
                background.extend_from_slice(&bg);
            }

            let option_data = |local: usize, opt: usize| {
                let mut codes = Vec::with_capacity(modes);
                let mut vector = Vec::new();
                for m in 0..modes {
                    let si = zones[m][zi].spec().sinks[local];
                    let o = &tables[m].sinks[si].options[opt];
                    let (lo, hi) = intersection.windows[m];
                    let code = o.delay_code_for(lo, hi)?;
                    codes.push(code);
                    vector.extend(zones[m][zi].option_vector(&tables[m], local, opt, code));
                }
                Some((codes, vector))
            };

            // Same containment as the single-mode framework: a panicking
            // (or injected-fault) zone worker is caught, retried once on
            // the injection-free greedy rung, and only fails the
            // intersection when the salvage also dies.
            let attempt = |salvage: bool| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    solve_zone_mosp_generic::<Vec<Picoseconds>>(
                        ladder,
                        zi,
                        rows,
                        option_data,
                        &allowed,
                        &background,
                        salvage,
                    )
                }))
            };
            let (choices, zone_cost) = match attempt(false) {
                Ok(Ok(pair)) => pair,
                Ok(Err(WaveMinError::ZoneFault { payload, .. })) => {
                    salvage_mm_zone(ladder, zi, &payload, &attempt)?
                }
                Ok(Err(e)) => return Err(e),
                Err(p) => {
                    let payload = crate::parallel::panic_payload(p.as_ref());
                    salvage_mm_zone(ladder, zi, &payload, &attempt)?
                }
            };
            cost = cost.max(zone_cost);
            for (local, (opt, codes)) in choices.iter().enumerate() {
                let si = sinks0[local];
                let entry = &tables[0].sinks[si];
                let option = &entry.options[*opt];
                assignment.set(entry.node, option.cell.clone());
                for m in 0..modes {
                    let o = &tables[m].sinks[zones[m][zi].spec().sinks[local]].options[*opt];
                    let code = codes.get(m).copied().unwrap_or(Picoseconds::ZERO);
                    accumulated[m].push(&o.waves.shifted(code));
                }
                if option.is_adjustable() {
                    // Always record adjustable codes (zero overwrites any
                    // stale insertion-phase code).
                    for (m, &code) in codes.iter().enumerate() {
                        assignment.set_delay_code(m, entry.node, code);
                    }
                }
            }
        }
        Ok((cost, assignment))
    }
}

/// One multimode zone solution: per-sink `(option, per-mode delay codes)`
/// choices plus the zone's min–max cost.
type MmZoneSolution = (Vec<(usize, Vec<Picoseconds>)>, f64);

/// The multimode salvage retry: records the fault against the ladder and
/// the registry, re-attempts the zone on the injection-free greedy rung,
/// and wraps an unrecoverable failure in [`WaveMinError::ZoneFault`].
fn salvage_mm_zone<F>(
    ladder: &MospLadder,
    zone: usize,
    payload: &str,
    attempt: &F,
) -> Result<MmZoneSolution, WaveMinError>
where
    F: Fn(bool) -> std::thread::Result<Result<MmZoneSolution, WaveMinError>>,
{
    ladder.note_zone_fault(zone);
    ladder.registry.record_zone_fault();
    match attempt(true) {
        Ok(Ok(pair)) => {
            ladder.note_zone_salvaged(zone);
            ladder.registry.record_zone_salvage();
            Ok(pair)
        }
        Ok(Err(e)) => Err(WaveMinError::ZoneFault {
            zone,
            payload: format!("{payload}; salvage failed: {e}"),
        }),
        Err(p) => Err(WaveMinError::ZoneFault {
            zone,
            payload: format!(
                "{payload}; salvage panicked: {}",
                crate::parallel::panic_payload(p.as_ref())
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use wavemin_cells::units::Volts;

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
        let d = Design::from_benchmark_multimode_levels(
            &Benchmark::s15850(),
            3,
            4,
            4,
            Volts::new(0.9),
            Volts::new(1.1),
        );
        let kappa = Picoseconds::new(22.0);
        let cfg = WaveMinConfig::default().with_skew_bound(kappa);
        let out = ClkWaveMinM::new(cfg).run(&d).unwrap();
        let mut optimized = d.clone();
        out.assignment.apply_to(&mut optimized);
        // Reconstruct the embedded ADB codes: skew_after already checked
        // the worst mode; verify per mode explicitly through the outcome.
        assert!(out.skew_after.value() <= kappa.value() * 1.05 + 1e-9);
    }
}
