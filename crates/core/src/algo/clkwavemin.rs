//! ClkWaveMin: the MOSP-based approximation algorithm (Section V).

use crate::algo::{
    characterize_design, solve_prepared, Degradation, DegradationStep, Outcome, PreparedRun,
    ZoneProblem, ZoneSolution, ZoneSolver,
};
use crate::checkpoint::ZoneCache;
use crate::config::{SolverKind, WaveMinConfig};
use crate::design::Design;
use crate::error::WaveMinError;
use crate::eval::NoiseEvaluator;
use crate::fault::{FaultKind, FaultObserver, FaultPlan, FaultSite};
use crate::multimode::FeasibleIntersection;
use crate::noise_table::{BackgroundAccumulator, NoiseTable};
use crate::observe::{Instruments, ZoneSolveRecord};
use crate::trace::TraceEventKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use wavemin_cells::units::Picoseconds;
use wavemin_mosp::{
    solve, Budget, Exhaustion, MospError, MospGraph, ParetoSet, SolveObserver, VertexId,
};

/// The paper's main algorithm: per zone and feasible interval, convert the
/// assignment subproblem to a multi-objective shortest path instance
/// (Algorithm 1) and solve it with Warburton's ε-approximation; the
/// min–max Pareto path is the zone's assignment.
///
/// # Example
///
/// ```
/// use wavemin::prelude::*;
///
/// let design = Design::from_benchmark(&Benchmark::s15850(), 7);
/// let outcome = ClkWaveMin::new(WaveMinConfig::default()).run(&design)?;
/// assert!(outcome.peak_after.value() <= outcome.peak_before.value() + 1e-9);
/// # Ok::<(), WaveMinError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClkWaveMin {
    config: WaveMinConfig,
}

impl ClkWaveMin {
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

    /// Optimizes a single-power-mode design, instrumented as the config
    /// asks ([`Instruments::from_config`]), without a zone store.
    ///
    /// When the config carries a time budget, pathological solves descend
    /// the degradation ladder instead of running unbounded; the applied
    /// relaxations land in [`Outcome::degradation`].
    ///
    /// # Errors
    ///
    /// [`WaveMinError::NoFeasibleInterval`] when no assignment can satisfy
    /// the skew bound; timing/characterization errors otherwise.
    pub fn run(&self, design: &Design) -> Result<Outcome, WaveMinError> {
        self.run_instrumented(design, None, &Instruments::from_config(&self.config))
    }

    /// [`ClkWaveMin::run`] against the caller's zone store, observed
    /// through the caller's [`Instruments`]. With a store — the checkpoint
    /// journal's ([`ZoneCache::open`]) or an in-memory one — zones whose
    /// chain keys hit are spliced bit-for-bit and every solved zone is
    /// recorded (see `crate::checkpoint`). The instruments' registry
    /// yields the report, their journal the spans and instants, their
    /// tracker the progress ticks. Neither changes the outcome.
    ///
    /// # Errors
    ///
    /// Same as [`ClkWaveMin::run`], plus [`WaveMinError::Checkpoint`] when
    /// a journal write fails.
    pub fn run_instrumented(
        &self,
        design: &Design,
        store: Option<&ZoneCache>,
        ins: &Instruments,
    ) -> Result<Outcome, WaveMinError> {
        self.config.validate()?;
        design.validate()?;
        // The time budget's deadline covers characterization too.
        let budget = self.config.budget();
        let prep = characterize_design(design, &self.config, ins)?;
        solve_single_mode(design, &self.config, &prep, budget, store, ins)
    }
}

/// The single-mode MOSP solve of [`ClkWaveMin`] and the session, which
/// differ only in where their zone store comes from:
/// solves and validates `prep` on `budget` (keeping the tree as-is when
/// no candidate validates), then records degradation, report and peak
/// attribution.
pub(crate) fn solve_single_mode(
    design: &Design,
    config: &WaveMinConfig,
    prep: &PreparedRun,
    budget: Budget,
    store: Option<&ZoneCache>,
    ins: &Instruments,
) -> Result<Outcome, WaveMinError> {
    let solver = MospZoneSolver::new(config, budget, ins);
    let mut out =
        solve_prepared(design, config, prep, &solver, store, ins)?.or_identity(design, ins)?;
    out.degradation = solver.ladder.degradation();
    out.attach_report(config, ins, Some(&solver.ladder));
    if out.report.is_some() {
        let mut optimized = design.clone();
        out.assignment.apply_to(&mut optimized);
        let attribution = NoiseEvaluator::new(&optimized).worst_attribution()?;
        if let Some(report) = out.report.as_mut() {
            report.attribution = attribution;
        }
    }
    Ok(out)
}

/// The resource-governed degradation ladder shared by every MOSP zone
/// solve of one optimization run:
///
/// 1. the configured solver (exact enumeration or Warburton ε);
/// 2. Warburton with escalating ε (exact runs are demoted here first);
/// 3. Warburton with a large ε *and* a tightened per-vertex label cap;
/// 4. greedy single-label completion (always terminates, still a valid
///    assignment).
///
/// The ladder descends one rung every time a solve exhausts the shared
/// [`Budget`]; once the wall-clock deadline itself has passed it jumps
/// straight to the greedy rung. Every transition is recorded as a
/// [`DegradationStep`] for the final [`Degradation`] report.
///
/// The state sits behind a [`Mutex`] because concurrent interval solves
/// share one ladder; the lock only guards the tiny rung/step bookkeeping,
/// never a solve itself.
pub(crate) struct MospLadder {
    pub(crate) budget: Budget,
    rungs: Vec<Rung>,
    state: Mutex<LadderState>,
    /// The last rung recorded by a *completed* transition, kept outside
    /// the mutex so poison recovery can restore it (a panicking worker
    /// can poison the lock, never corrupt this).
    last_rung: AtomicUsize,
    /// The run's deterministic fault schedule (`None` in production);
    /// consulted by [`solve_zone_mosp`] on non-salvage solves.
    pub(crate) fault_plan: Option<FaultPlan>,
    /// The run's instruments: rung transitions and (through
    /// [`solve_zone_mosp`]) zone solves land in the registry and the
    /// journal, and rung transitions update the progress rung gauge.
    pub(crate) ins: Instruments,
}

#[derive(Debug, Clone, Copy)]
struct Rung {
    solver: SolverKind,
    label_cap: usize,
}

#[derive(Debug)]
struct LadderState {
    rung: usize,
    steps: Vec<DegradationStep>,
    exhausted_solves: usize,
    total_solves: usize,
}

impl MospLadder {
    pub(crate) fn new(config: &WaveMinConfig, budget: Budget, ins: &Instruments) -> Self {
        let cap = config.label_cap.max(1);
        let base_eps = match config.solver {
            SolverKind::Warburton { epsilon } => epsilon,
            SolverKind::Exact => 0.01,
        };
        let mut rungs = vec![Rung {
            solver: config.solver,
            label_cap: cap,
        }];
        if matches!(config.solver, SolverKind::Exact) {
            rungs.push(Rung {
                solver: SolverKind::Warburton { epsilon: base_eps },
                label_cap: cap,
            });
        }
        rungs.push(Rung {
            solver: SolverKind::Warburton {
                epsilon: (base_eps * 5.0).min(0.5),
            },
            label_cap: cap,
        });
        rungs.push(Rung {
            solver: SolverKind::Warburton {
                epsilon: (base_eps * 25.0).min(0.5),
            },
            label_cap: (cap / 4).max(4).min(cap),
        });
        rungs.push(Rung {
            solver: SolverKind::Exact,
            label_cap: 1,
        });
        Self {
            budget,
            rungs,
            state: Mutex::new(LadderState {
                rung: 0,
                steps: Vec::new(),
                exhausted_solves: 0,
                total_solves: 0,
            }),
            last_rung: AtomicUsize::new(0),
            fault_plan: config.fault_plan,
            ins: ins.clone(),
        }
    }

    /// Locks the ladder state. On poison (a worker panicked while holding
    /// the guard) the last rung recorded by a completed transition is
    /// restored, the poison is cleared, and a trace instant marks the
    /// recovery — the ladder never silently loses its position.
    fn state(&self) -> std::sync::MutexGuard<'_, LadderState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                let rung = self.last_rung.load(Ordering::Relaxed);
                g.rung = rung;
                self.state.clear_poison();
                self.ins.instant(TraceEventKind::LadderRestored { rung });
                g
            }
        }
    }

    /// A ladder that never descends (no limits set) and records nothing.
    #[cfg(test)]
    pub(crate) fn unbudgeted(config: &WaveMinConfig) -> Self {
        Self::new(config, Budget::unlimited(), &Instruments::disabled())
    }

    /// The rung the ladder currently sits on (0 = full fidelity).
    pub(crate) fn current_rung(&self) -> usize {
        self.state().rung
    }

    /// The index of the last (greedy single-label) rung — the one the
    /// salvage path always runs on.
    pub(crate) fn greedy_rung(&self) -> usize {
        self.rungs.len() - 1
    }

    /// Solves one prepared MOSP instance at the current rung, descending
    /// the ladder when the budget runs out mid-solve, with an optional
    /// [`SolveObserver`] receiving the solver's layer/batch spans and
    /// instants. Also returns the rung index the solve actually ran on,
    /// so per-zone accounting can report the worst rung a zone used
    /// rather than inferring it from the (racy) global ladder position.
    pub(crate) fn solve_observed(
        &self,
        graph: &MospGraph,
        src: VertexId,
        dest: VertexId,
        observer: Option<&mut dyn SolveObserver>,
    ) -> Result<(ParetoSet, usize), WaveMinError> {
        if self.budget.deadline_expired() {
            self.jump_to_greedy(Exhaustion::DeadlineExpired);
        }
        let (rung, rung_index) = {
            let st = self.state();
            (self.rungs[st.rung], st.rung)
        };
        let set = match rung.solver {
            SolverKind::Warburton { epsilon } => solve::warburton(
                graph,
                src,
                dest,
                epsilon,
                Some(rung.label_cap),
                &self.budget,
                observer,
            )?,
            SolverKind::Exact => solve::exact(
                graph,
                src,
                dest,
                Some(rung.label_cap),
                &self.budget,
                observer,
            )?,
        };
        let mut st = self.state();
        st.total_solves += 1;
        if let Some(reason) = set.exhaustion() {
            st.exhausted_solves += 1;
            drop(st);
            self.descend(reason);
        }
        Ok((set, rung_index))
    }

    /// Moves one rung down and records what changed.
    fn descend(&self, reason: Exhaustion) {
        let mut st = self.state();
        if st.rung + 1 >= self.rungs.len() {
            return;
        }
        let from = self.rungs[st.rung];
        let to = self.rungs[st.rung + 1];
        st.rung += 1;
        self.last_rung.store(st.rung, Ordering::Relaxed);
        self.record_transition(st.rung);
        match (from.solver, to.solver) {
            (_, SolverKind::Exact) => {
                st.steps.push(DegradationStep::GreedyFallback { reason });
            }
            (SolverKind::Exact, SolverKind::Warburton { epsilon }) => {
                st.steps
                    .push(DegradationStep::ExactToApproximate { epsilon, reason });
            }
            (SolverKind::Warburton { epsilon: a }, SolverKind::Warburton { epsilon: b }) => {
                if b > a {
                    st.steps.push(DegradationStep::EpsilonRaised {
                        from: a,
                        to: b,
                        reason,
                    });
                }
                if to.label_cap < from.label_cap {
                    st.steps.push(DegradationStep::LabelCapTightened {
                        from: from.label_cap,
                        to: to.label_cap,
                        reason,
                    });
                }
            }
        }
    }

    /// Drops straight to the last (greedy) rung.
    fn jump_to_greedy(&self, reason: Exhaustion) {
        let mut st = self.state();
        let last = self.rungs.len() - 1;
        if st.rung < last {
            st.rung = last;
            self.last_rung.store(last, Ordering::Relaxed);
            st.steps.push(DegradationStep::GreedyFallback { reason });
            self.record_transition(last);
        }
    }

    /// Reports a move to `rung` to every instrument.
    fn record_transition(&self, rung: usize) {
        self.ins.registry.record_rung_transition();
        self.ins.progress.set_rung(rung);
        self.ins.instant(TraceEventKind::RungTransition { rung });
    }

    /// The machine-readable record of everything that was relaxed, or
    /// `None` for a full-fidelity run.
    pub(crate) fn degradation(&self) -> Option<Degradation> {
        let st = self.state();
        if st.steps.is_empty() && st.exhausted_solves == 0 {
            None
        } else {
            Some(Degradation {
                steps: st.steps.clone(),
                exhausted_solves: st.exhausted_solves,
                total_solves: st.total_solves,
            })
        }
    }

    /// Records a contained zone fault as a degradation step and emits the
    /// trace instant (the containment layer owns the metrics counters).
    pub(crate) fn note_zone_fault(&self, zone: usize) {
        self.state()
            .steps
            .push(DegradationStep::ZoneFaultContained { zone });
        self.ins.instant(TraceEventKind::ZoneFault { zone });
    }

    /// Emits the salvage trace instant for a recovered zone.
    pub(crate) fn note_zone_salvaged(&self, zone: usize) {
        self.ins.instant(TraceEventKind::ZoneSalvaged { zone });
    }

    /// The salvage solver: greedy single-label completion (the ladder's
    /// last rung) without touching the ladder state or firing any
    /// injection. Always terminates, still a valid assignment.
    pub(crate) fn solve_salvage(
        &self,
        graph: &MospGraph,
        src: VertexId,
        dest: VertexId,
    ) -> Result<ParetoSet, WaveMinError> {
        Ok(solve::exact(graph, src, dest, Some(1), &self.budget, None)?)
    }
}

/// The MOSP-based inner solver shared by ClkWaveMin and ClkWaveMin-M.
pub(crate) struct MospZoneSolver {
    pub(crate) ladder: MospLadder,
}

impl MospZoneSolver {
    pub(crate) fn new(config: &WaveMinConfig, budget: Budget, ins: &Instruments) -> Self {
        Self {
            ladder: MospLadder::new(config, budget, ins),
        }
    }
}

impl MospZoneSolver {
    /// Solves one zone in one k-mode intersection: per-mode option vectors and
    /// backgrounds are joined end to end into one MOSP weight (Fig. 12),
    /// so a single mode is exactly ClkWaveMin.
    fn solve_zone_inner(
        &self,
        tables: &[NoiseTable],
        zone: &ZoneProblem,
        intersection: &FeasibleIntersection,
        extra: &[BackgroundAccumulator],
        salvage: bool,
    ) -> Result<ZoneSolution, WaveMinError> {
        let spec = zone.spec();
        solve_zone_mosp(
            &self.ladder,
            spec.id,
            spec.sinks.len(),
            |local, option| zone.option_data(tables, intersection, local, option),
            &intersection.allowed_for(&spec.sinks),
            &zone.background(extra),
            salvage,
        )
    }
}

impl ZoneSolver for MospZoneSolver {
    fn solve_zone(
        &self,
        tables: &[NoiseTable],
        zone: &ZoneProblem,
        intersection: &FeasibleIntersection,
        extra: &[BackgroundAccumulator],
    ) -> Result<ZoneSolution, WaveMinError> {
        self.solve_zone_inner(tables, zone, intersection, extra, false)
    }

    fn salvage_zone(
        &self,
        tables: &[NoiseTable],
        zone: &ZoneProblem,
        intersection: &FeasibleIntersection,
        extra: &[BackgroundAccumulator],
    ) -> Result<ZoneSolution, WaveMinError> {
        self.solve_zone_inner(tables, zone, intersection, extra, true)
    }

    fn note_zone_fault(&self, zone: usize, _payload: &str) {
        self.ladder.note_zone_fault(zone);
    }

    fn note_zone_salvaged(&self, zone: usize) {
        self.ladder.note_zone_salvaged(zone);
    }
}

/// Builds the MOSP graph of Algorithm 1 and solves it.
///
/// * `rows` — number of sinks in the zone;
/// * `option_data(local, option)` — the delay code and sampled noise
///   vector of an option, or `None` when it cannot fit the intersection;
/// * `allowed[local]` — candidate option indices per sink;
/// * `background` — the non-leaf noise vector carried by the arcs into
///   `dest` (Observation 1).
///
/// With `salvage` set, the solve runs greedy (single label), bypasses the
/// ladder state, and ignores the fault plan — the containment layer's
/// injection-free retry path.
fn solve_zone_mosp(
    ladder: &MospLadder,
    zone_id: usize,
    rows: usize,
    mut option_data: impl FnMut(usize, usize) -> Option<(Picoseconds, Vec<f64>)>,
    allowed: &[&[usize]],
    background: &[f64],
    salvage: bool,
) -> Result<ZoneSolution, WaveMinError> {
    if rows == 0 {
        return Ok(ZoneSolution {
            choices: Vec::new(),
            cost: background.iter().copied().fold(0.0, f64::max),
        });
    }
    let plan = if salvage { None } else { ladder.fault_plan };
    if let Some(p) = plan {
        let site = FaultSite::ZoneSolve { zone: zone_id };
        if p.decide(site) == Some(FaultKind::Panic) {
            p.fire_panic(site);
        }
    }
    // A pending NaN poison corrupts the first cost vector built below;
    // the kernels' ingest guard must reject it — `poison_ingest_error`
    // then converts the rejection into a contained `ZoneFault`.
    let mut poison_pending = plan.is_some_and(|p| {
        p.decide(FaultSite::ZoneIngest { zone: zone_id }) == Some(FaultKind::PoisonNan)
    });
    let mut poisoned = false;
    let dims = background.len();
    let mut graph = MospGraph::new(dims);
    let src = graph.add_vertex();
    // Registry: vertex -> (row, option index, payload).
    let mut registry: Vec<(usize, usize, Picoseconds)> =
        vec![(usize::MAX, usize::MAX, Picoseconds::ZERO)];
    let mut prev_row: Vec<VertexId> = vec![src];
    let mut row_vectors: Vec<(VertexId, Vec<f64>)> = Vec::new();

    for (local, opts) in allowed.iter().enumerate().take(rows) {
        let mut this_row = Vec::new();
        row_vectors.clear();
        for &opt in opts.iter() {
            let Some((code, mut vector)) = option_data(local, opt) else {
                continue;
            };
            if poison_pending && !vector.is_empty() {
                vector[0] = f64::NAN;
                poison_pending = false;
                poisoned = true;
            }
            let v = graph.add_vertex();
            registry.push((local, opt, code));
            row_vectors.push((v, vector));
            this_row.push(v);
        }
        if this_row.is_empty() {
            return Err(WaveMinError::NoFeasibleInterval);
        }
        for &(v, ref vector) in &row_vectors {
            // The whole fan-in shares one validated, interned arena slot.
            graph
                .add_fan_in(&prev_row, v, vector)
                .map_err(|e| poison_ingest_error(e, zone_id, poisoned))?;
        }
        prev_row = this_row;
    }

    let dest = graph.add_vertex();
    registry.push((usize::MAX, usize::MAX, Picoseconds::ZERO));
    graph.add_fan_in(&prev_row, dest, background)?;

    let ins = &ladder.ins;
    let mut handle = ins.journal.handle();
    let started = ins.clock();
    let (set, rung_used) = if salvage {
        // The salvage retry always runs the greedy rung, injection-free,
        // without touching the ladder state — the greedy rung must show
        // up in this zone's row, not in the global ladder position.
        (
            ladder.solve_salvage(&graph, src, dest)?,
            ladder.greedy_rung(),
        )
    } else if let Some(p) = plan {
        // A fault plan keeps the observed path live even when tracing is
        // off, so layer-site faults fire on untraced runs too.
        let inner: Option<&mut dyn SolveObserver> = if handle.is_enabled() {
            Some(&mut handle)
        } else {
            None
        };
        let mut fo = FaultObserver::new(p, zone_id, &ladder.budget, inner);
        ladder.solve_observed(&graph, src, dest, Some(&mut fo))?
    } else if handle.is_enabled() {
        ladder.solve_observed(&graph, src, dest, Some(&mut handle))?
    } else {
        ladder.solve_observed(&graph, src, dest, None)?
    };
    ins.registry.record_zone_rung(zone_id, rung_used);
    ins.zone_solved(started, &mut handle, zone_id, || ZoneSolveRecord {
        stats: *set.stats(),
        exhausted: set.exhaustion().is_some(),
        arena_arcs: graph.arc_count() as u64,
        arena_unique_weights: graph.unique_weight_count() as u64,
        ..ZoneSolveRecord::default()
    });
    drop(handle);
    let best = set.min_max().ok_or(WaveMinError::NoFeasibleInterval)?;
    let mut choices = vec![(usize::MAX, Picoseconds::ZERO); rows];
    for v in &best.vertices {
        let (row, opt, code) = registry[v.0];
        if row != usize::MAX {
            choices[row] = (opt, code);
        }
    }
    debug_assert!(choices.iter().all(|(o, _)| *o != usize::MAX));
    Ok(ZoneSolution {
        choices,
        cost: best.max_component(),
    })
}

/// Converts the ingest guard's rejection of a deliberately poisoned
/// vector into a contained [`WaveMinError::ZoneFault`]; genuine invalid
/// weights (not ours) keep their `Mosp` error identity.
fn poison_ingest_error(e: MospError, zone: usize, poisoned: bool) -> WaveMinError {
    match e {
        MospError::InvalidWeight(w) if poisoned && !w.is_finite() => WaveMinError::ZoneFault {
            zone,
            payload: "injected NaN cost vector rejected at ingest".to_string(),
        },
        other => other.into(),
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
    fn run_reduces_or_keeps_peak() {
        let d = small_design();
        let out = ClkWaveMin::new(WaveMinConfig::default()).run(&d).unwrap();
        assert!(out.peak_after.value() <= out.peak_before.value() + 1e-9);
        assert!(out.intervals_tried > 0);
    }

    #[test]
    fn assignment_mixes_polarities() {
        // s13207's zones hold ~4 sinks each, enough for a genuine split
        // (tiny 1-sink zones may legitimately all flip).
        let d = Design::from_benchmark(&Benchmark::s13207(), 1);
        let mut cfg = WaveMinConfig::default().with_sample_count(32);
        cfg.max_intervals = Some(6);
        let out = ClkWaveMin::new(cfg).run(&d).unwrap();
        let (pos, neg) = out.assignment.polarity_counts(&d);
        assert_eq!(pos + neg, d.leaves().len());
        assert!(neg > 0, "some sinks should become inverters");
        assert!(pos > 0, "not everything should flip");
    }

    #[test]
    fn skew_bound_is_respected() {
        let d = small_design();
        let cfg = WaveMinConfig::default();
        let out = ClkWaveMin::new(cfg.clone()).run(&d).unwrap();
        assert!(
            out.skew_after.value() <= cfg.skew_bound.value() * 1.05 + 1e-9,
            "skew {} exceeds bound {}",
            out.skew_after,
            cfg.skew_bound
        );
    }

    #[test]
    fn infeasible_skew_bound_errors() {
        // One sink pushed 50 ps late: no sub-ps window can cover all.
        let mut d = small_design();
        let victim = d.leaves()[0];
        d.tree.node_mut(victim).delay_trim += Picoseconds::new(50.0);
        let cfg = WaveMinConfig::default().with_skew_bound(Picoseconds::new(0.5));
        assert_eq!(
            ClkWaveMin::new(cfg).run(&d).unwrap_err(),
            WaveMinError::NoFeasibleInterval
        );
    }

    #[test]
    fn exact_solver_agrees_with_warburton_on_small_design() {
        let d = small_design();
        let mut cfg_w = WaveMinConfig::default().with_sample_count(8);
        cfg_w.solver = SolverKind::Warburton { epsilon: 0.01 };
        let mut cfg_e = cfg_w.clone();
        cfg_e.solver = SolverKind::Exact;
        let out_w = ClkWaveMin::new(cfg_w).run(&d).unwrap();
        let out_e = ClkWaveMin::new(cfg_e).run(&d).unwrap();
        // ε = 0.01: the approximation must be within ~1 % of exact.
        let ratio = out_w.estimated_cost / out_e.estimated_cost;
        assert!(
            (0.98..=1.02).contains(&ratio),
            "warburton {} vs exact {}",
            out_w.estimated_cost,
            out_e.estimated_cost
        );
    }

    #[test]
    fn the_greedy_rung_is_exact_at_a_one_label_cap() {
        for solver in [SolverKind::default(), SolverKind::Exact] {
            let ladder = MospLadder::unbudgeted(&WaveMinConfig::default().with_solver(solver));
            assert_eq!(ladder.rungs[0].solver, solver);
            assert_eq!(ladder.rungs[0].label_cap, 64);
            let greedy = ladder.rungs[ladder.greedy_rung()];
            assert_eq!(greedy.solver, SolverKind::Exact);
            assert_eq!(greedy.label_cap, 1);
        }
    }

    #[test]
    fn label_cap_bounds_the_exact_solver_front() {
        let mut cfg = WaveMinConfig::default()
            .with_solver(SolverKind::Exact)
            .with_metrics(true);
        cfg.label_cap = 2;
        let out = ClkWaveMin::new(cfg).run(&small_design()).unwrap();
        let front = out.report.expect("metrics collected").histograms.front_size;
        assert!(front.count > 0);
        assert!(
            front.max <= 2,
            "front of {} paths exceeds the cap",
            front.max
        );
    }

    #[test]
    fn more_samples_never_hurt_much() {
        // Table VI shape: peak with |S| = 158 <= peak with |S| = 4 (small
        // slack for evaluation noise).
        let d = small_design();
        let coarse = ClkWaveMin::new(WaveMinConfig::default().with_sample_count(4))
            .run(&d)
            .unwrap();
        let fine = ClkWaveMin::new(WaveMinConfig::default().with_sample_count(158))
            .run(&d)
            .unwrap();
        assert!(
            fine.peak_after.value() <= coarse.peak_after.value() * 1.05,
            "fine {} vs coarse {}",
            fine.peak_after,
            coarse.peak_after
        );
    }

    #[test]
    fn zone_mosp_solver_picks_min_max() {
        // Two sinks, two options each: buffer-ish (10, 0) and
        // inverter-ish (0, 10) per sample slot. Min-max splits them.
        let cfg = WaveMinConfig::default();
        let vectors = [
            vec![vec![10.0, 0.0], vec![0.0, 10.0]],
            vec![vec![10.0, 0.0], vec![0.0, 10.0]],
        ];
        let allowed: Vec<&[usize]> = vec![&[0, 1], &[0, 1]];
        let sol = solve_zone_mosp(
            &MospLadder::unbudgeted(&cfg),
            0,
            2,
            |l, o| Some((Picoseconds::ZERO, vectors[l][o].clone())),
            &allowed,
            &[0.0, 0.0],
            false,
        )
        .unwrap();
        assert_eq!(sol.cost, 10.0);
        let (a, b) = (sol.choices[0].0, sol.choices[1].0);
        assert_ne!(a, b, "the two sinks must take opposite polarities");
    }

    #[test]
    fn zone_mosp_respects_background() {
        // Background loads dimension 0, so both sinks should pick option 1.
        let cfg = WaveMinConfig::default();
        let vectors = [
            vec![vec![5.0, 0.0], vec![0.0, 5.0]],
            vec![vec![5.0, 0.0], vec![0.0, 5.0]],
        ];
        let allowed: Vec<&[usize]> = vec![&[0, 1], &[0, 1]];
        let sol = solve_zone_mosp(
            &MospLadder::unbudgeted(&cfg),
            0,
            2,
            |l, o| Some((Picoseconds::ZERO, vectors[l][o].clone())),
            &allowed,
            &[20.0, 0.0],
            false,
        )
        .unwrap();
        assert_eq!(sol.choices[0].0, 1);
        assert_eq!(sol.choices[1].0, 1);
        assert_eq!(sol.cost, 20.0);
    }

    #[test]
    fn empty_zone_costs_background_peak() {
        let cfg = WaveMinConfig::default();
        let sol = solve_zone_mosp(
            &MospLadder::unbudgeted(&cfg),
            0,
            0,
            |_, _| None,
            &[],
            &[3.0, 7.0],
            false,
        )
        .unwrap();
        assert_eq!(sol.cost, 7.0);
        assert!(sol.choices.is_empty());
    }

    #[test]
    fn ladder_recovers_from_poisoned_state_mutex() {
        let cfg = WaveMinConfig::default();
        let ladder = MospLadder::unbudgeted(&cfg);
        ladder.descend(Exhaustion::WorkCapReached);
        let rung = ladder.current_rung();
        assert!(rung > 0, "descend must move off the top rung");
        // Poison the state mutex: a thread panics while holding the guard,
        // after tearing the rung to a value no rung table contains.
        let join = std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = ladder.state.lock().expect("not yet poisoned");
                g.rung = usize::MAX;
                panic!("poison the ladder");
            })
            .join()
        });
        assert!(join.is_err());
        assert!(ladder.state.is_poisoned());
        // Recovery restores the last-known-good rung and clears the poison.
        assert_eq!(ladder.current_rung(), rung);
        assert!(!ladder.state.is_poisoned());
        assert_eq!(ladder.current_rung(), rung, "stable after recovery");
    }

    #[test]
    fn injected_zone_panic_fires_and_salvage_path_is_injection_free() {
        // rate 1.0 fires at every site, and ZoneSolve sites always panic.
        let plan = crate::fault::FaultPlan { seed: 1, rate: 1.0 };
        let cfg = WaveMinConfig::default().with_fault_plan(Some(plan));
        let ladder = MospLadder::unbudgeted(&cfg);
        let allowed: Vec<&[usize]> = vec![&[0]];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solve_zone_mosp(
                &ladder,
                3,
                1,
                |_, _| Some((Picoseconds::ZERO, vec![1.0])),
                &allowed,
                &[0.0],
                false,
            )
        }));
        let p = caught.expect_err("a rate-1.0 plan must fire");
        let payload = crate::parallel::panic_payload(p.as_ref());
        assert!(
            payload.contains(crate::fault::INJECTED_MARKER),
            "payload '{payload}' lacks the marker"
        );
        // The salvage retry runs with injection disarmed and succeeds.
        let sol = solve_zone_mosp(
            &ladder,
            3,
            1,
            |_, _| Some((Picoseconds::ZERO, vec![1.0])),
            &allowed,
            &[0.0],
            true,
        )
        .expect("salvage solve is injection-free");
        assert_eq!(sol.choices.len(), 1);
    }
}
