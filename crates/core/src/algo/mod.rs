//! The optimization algorithms: ClkWaveMin, ClkWaveMin-f and the
//! comparison baselines.
//!
//! All interval-based algorithms share one skeleton (Fig. 8):
//!
//! 1. preprocess the design into a [`NoiseTable`];
//! 2. generate the feasible time intervals (global, so the skew bound
//!    holds across the whole sink set);
//! 3. partition the sinks into zones;
//! 4. for every interval, solve each zone's subproblem with the
//!    algorithm-specific inner solver; the interval's cost is the worst
//!    zone cost;
//! 5. keep the best interval's assignment, validate the exact skew and
//!    report before/after noise.

pub(crate) mod clkwavemin;
mod dynamic;
mod exhaustive;
mod fast;
mod nieh;
mod nonleaf;
mod peakmin;
mod samanta;
mod share;
pub(crate) mod streaming;
mod yield_aware;

pub use clkwavemin::ClkWaveMin;
pub use dynamic::{DynamicOutcome, DynamicPolarity};
pub use exhaustive::ExhaustiveSearch;
pub use fast::ClkWaveMinFast;
pub use nieh::NiehOppositePhase;
pub use nonleaf::NonLeafPolarity;
pub use peakmin::ClkPeakMin;
pub use samanta::SamantaBalanced;
pub use yield_aware::{normal_quantile, YieldAwareWaveMin, YieldOutcome};

use crate::assignment::Assignment;
use crate::checkpoint::{StoreAcquire, ZoneCache};
use crate::config::{BackgroundMode, WaveMinConfig};
use crate::design::Design;
use crate::error::WaveMinError;
use crate::eval::NoiseEvaluator;
use crate::intervals::IntervalSet;
use crate::multimode::FeasibleIntersection;
use crate::noise_table::{BackgroundAccumulator, NoiseTable};
use crate::observe::{Instruments, ReportContext, RunReport, Stage};
use crate::sampling::SamplePlan;
use crate::trace::TraceEventKind;
use serde::Serialize;
use share::SharePlan;
use std::sync::Arc;
use std::time::Duration;
use wavemin_cells::characterize::ClockEdge;
use wavemin_cells::units::{MilliAmps, Millivolts, Picoseconds};
use wavemin_cells::CellKind;
use wavemin_clocktree::ZoneGrid;
use wavemin_mosp::Exhaustion;

/// One relaxation the optimizer applied while descending the degradation
/// ladder (exact → ε-approximate → tightly capped → greedy).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum DegradationStep {
    /// Exact Pareto enumeration was abandoned for Warburton's
    /// ε-approximation.
    ExactToApproximate {
        /// The ε the approximation continued with.
        epsilon: f64,
        /// Which resource ran out.
        reason: Exhaustion,
    },
    /// The Warburton approximation parameter was escalated.
    EpsilonRaised {
        /// ε before the escalation.
        from: f64,
        /// ε after the escalation.
        to: f64,
        /// Which resource ran out.
        reason: Exhaustion,
    },
    /// The per-vertex Pareto label cap was tightened.
    LabelCapTightened {
        /// Cap before tightening.
        from: usize,
        /// Cap after tightening.
        to: usize,
        /// Which resource ran out.
        reason: Exhaustion,
    },
    /// Remaining zone solves fell back to the greedy single-label
    /// completion (still a valid assignment, no optimality claim).
    GreedyFallback {
        /// Which resource ran out.
        reason: Exhaustion,
    },
    /// A zone worker faulted (panic or injected fault) and its result was
    /// salvaged by a greedy retry — the assignment is valid but carries
    /// no optimality claim for that zone.
    ZoneFaultContained {
        /// The zone whose solve faulted.
        zone: usize,
    },
}

impl std::fmt::Display for DegradationStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ExactToApproximate { epsilon, reason } => {
                write!(f, "exact -> eps-approximate (eps = {epsilon}): {reason}")
            }
            Self::EpsilonRaised { from, to, reason } => {
                write!(f, "eps raised {from} -> {to}: {reason}")
            }
            Self::LabelCapTightened { from, to, reason } => {
                write!(f, "label cap tightened {from} -> {to}: {reason}")
            }
            Self::GreedyFallback { reason } => {
                write!(f, "greedy fallback: {reason}")
            }
            Self::ZoneFaultContained { zone } => {
                write!(f, "zone {zone} fault contained (salvaged on greedy rung)")
            }
        }
    }
}

/// A machine-readable account of everything the optimizer relaxed to fit
/// its resource budget. Absent from an [`Outcome`] when the run completed
/// at full fidelity.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Degradation {
    /// The relaxations, in the order they were applied.
    pub steps: Vec<DegradationStep>,
    /// Zone solves whose Pareto frontier was truncated mid-solve.
    pub exhausted_solves: usize,
    /// Total zone solves attempted during the run.
    pub total_solves: usize,
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "degraded ({}/{} zone solves exhausted)",
            self.exhausted_solves, self.total_solves
        )?;
        for step in &self.steps {
            write!(f, "; {step}")?;
        }
        Ok(())
    }
}

/// The result of running an optimization algorithm on a design.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Outcome {
    /// The chosen sink → cell mapping (plus delay codes).
    pub assignment: Assignment,
    /// Worst-mode peak current before optimization.
    pub peak_before: MilliAmps,
    /// Worst-mode peak current after optimization.
    pub peak_after: MilliAmps,
    /// Worst-mode VDD noise before optimization.
    pub vdd_noise_before: Millivolts,
    /// Worst-mode VDD noise after optimization.
    pub vdd_noise_after: Millivolts,
    /// Worst-mode ground noise before optimization.
    pub gnd_noise_before: Millivolts,
    /// Worst-mode ground noise after optimization.
    pub gnd_noise_after: Millivolts,
    /// Worst-mode clock skew before optimization.
    pub skew_before: Picoseconds,
    /// Worst-mode clock skew after optimization (exact re-analysis).
    pub skew_after: Picoseconds,
    /// The solver's internal min–max objective value for the chosen
    /// interval (sampled µA, not directly comparable across |S|).
    pub estimated_cost: f64,
    /// Number of feasible intervals examined.
    pub intervals_tried: usize,
    /// ADBs present in the optimized design (multi-mode flows).
    pub adb_count: usize,
    /// ADIs present in the optimized design (multi-mode flows).
    pub adi_count: usize,
    /// Wall-clock optimization time (excludes evaluation).
    pub runtime: Duration,
    /// What was relaxed to fit the resource budget (`None` = the run
    /// completed at full fidelity).
    pub degradation: Option<Degradation>,
    /// Zones whose sampling plan fell back to a single dummy time because
    /// the hot window was degenerate (see
    /// [`crate::sampling::SamplePlan::is_degenerate`]). Their sampled
    /// objectives are identically zero, so a nonzero count means parts of
    /// the reported `estimated_cost` are vacuous rather than optimal.
    pub degenerate_zones: usize,
    /// The run's structured metrics report (`None` unless the run's
    /// [`Instruments`] carried a collecting registry — by default, unless
    /// the config set [`crate::config::WaveMinConfig::collect_metrics`]).
    #[serde(default)]
    pub report: Option<RunReport>,
    /// Zones whose solve faulted (panicked or hit an injected fault) and
    /// were salvaged by a greedy retry, sorted ascending. Empty for a
    /// clean run; non-empty means the assignment is valid but those zones
    /// carry no optimality claim.
    #[serde(default)]
    pub faulted_zones: Vec<usize>,
}

impl Outcome {
    /// Assembles the run report from `ins`'s registry (`None` when it is
    /// disabled): the one place a [`ReportContext`] is built. `ladder` is
    /// the MOSP degradation ladder of the run, whose rung and budget the
    /// report records; solvers without one report rung 0 and no budget.
    pub(crate) fn attach_report(
        &mut self,
        config: &WaveMinConfig,
        ins: &Instruments,
        ladder: Option<&clkwavemin::MospLadder>,
    ) {
        let (ladder_rung, budget_units) =
            ladder.map_or((0, 0), |l| (l.current_rung(), l.budget.work_done()));
        self.report = ins.registry.report(&ReportContext {
            threads: config.effective_threads(),
            degenerate_zones: self.degenerate_zones,
            ladder_rung,
            budget_units,
        });
    }

    /// Relative peak-current improvement in percent (positive = better).
    #[must_use]
    pub fn peak_improvement_pct(&self) -> f64 {
        improvement_pct(self.peak_before.value(), self.peak_after.value())
    }

    /// Relative VDD-noise improvement in percent.
    #[must_use]
    pub fn vdd_improvement_pct(&self) -> f64 {
        improvement_pct(self.vdd_noise_before.value(), self.vdd_noise_after.value())
    }

    /// Relative ground-noise improvement in percent.
    #[must_use]
    pub fn gnd_improvement_pct(&self) -> f64 {
        improvement_pct(self.gnd_noise_before.value(), self.gnd_noise_after.value())
    }
}

pub(crate) fn improvement_pct(before: f64, after: f64) -> f64 {
    if before.abs() < 1e-12 {
        0.0
    } else {
        (before - after) / before * 100.0
    }
}

/// A zone's lightweight description: everything the partition derives
/// for one zone *except* the sampled option vectors. Specs stay resident
/// for the whole run (a few hundred bytes each) while the heavy vectors
/// live in the budget-bounded [`streaming::ZoneStorage`].
#[derive(Debug)]
pub(crate) struct ZoneSpec {
    /// The zone's id in the run's partition (the metrics registry keys its
    /// per-zone rows by this).
    pub id: usize,
    /// Indices into `table.sinks` for this zone's sinks.
    pub sinks: Vec<usize>,
    /// The zone's sampling plan.
    pub plan: SamplePlan,
    /// Non-leaf background sampled on the plan.
    pub background: Vec<f64>,
}

impl ZoneSpec {
    /// Partitions a design into zone specs (no vectors sampled yet).
    // Keyed lookups only; zones and bucket members are read in their own order.
    #[allow(clippy::disallowed_types)]
    pub(crate) fn build_specs(
        design: &Design,
        config: &WaveMinConfig,
        table: &NoiseTable,
    ) -> Vec<ZoneSpec> {
        let grid = ZoneGrid::partition(&design.tree, config.zone_pitch);
        let k = config.samples_per_slot();
        // O(1) node -> sink lookup; the linear `sink_index` scan per zone
        // sink made zoning quadratic past ~100k sinks.
        let sink_of: std::collections::HashMap<wavemin_clocktree::NodeId, usize> = table
            .sinks
            .iter()
            .enumerate()
            .map(|(i, s)| (s.node, i))
            .collect();
        // Spatial buckets of non-leaf nodes at the zone pitch: a zone's
        // local-background query (its rect plus a half-pitch margin) only
        // touches the neighboring buckets instead of every non-leaf node.
        let pitch = grid.pitch().value();
        let mut nonleaf_buckets: std::collections::HashMap<(i64, i64), Vec<usize>> =
            std::collections::HashMap::new();
        if matches!(config.background, BackgroundMode::LocalZone) {
            for (i, (nid, _)) in table.nonleaf_nodes.iter().enumerate() {
                let loc = design.tree.node(*nid).location;
                let key = (
                    (loc.x.value() / pitch).floor() as i64,
                    (loc.y.value() / pitch).floor() as i64,
                );
                nonleaf_buckets.entry(key).or_default().push(i);
            }
        }
        grid.zones()
            .iter()
            .enumerate()
            .map(|(id, zone)| {
                let sinks: Vec<usize> = zone
                    .sinks
                    .iter()
                    .filter_map(|&n| sink_of.get(&n).copied())
                    .collect();
                let plan = SamplePlan::for_sinks(table, &sinks, k);
                let background = match config.background {
                    BackgroundMode::LocalZone => {
                        // Noise is local: only non-leaf elements near the
                        // zone (one half-pitch margin) compete with its
                        // leaves.
                        let margin = config.zone_pitch.value() * 0.5;
                        let rect = zone.rect(grid.pitch());
                        let rect = wavemin_clocktree::geom::Rect::new(
                            wavemin_clocktree::Point::new(
                                rect.min.x.value() - margin,
                                rect.min.y.value() - margin,
                            ),
                            wavemin_clocktree::Point::new(
                                rect.max.x.value() + margin,
                                rect.max.y.value() + margin,
                            ),
                        );
                        let bx0 = (rect.min.x.value() / pitch).floor() as i64;
                        let bx1 = (rect.max.x.value() / pitch).floor() as i64;
                        let by0 = (rect.min.y.value() / pitch).floor() as i64;
                        let by1 = (rect.max.y.value() / pitch).floor() as i64;
                        let mut local: Vec<usize> = Vec::new();
                        for bx in bx0..=bx1 {
                            for by in by0..=by1 {
                                if let Some(ids) = nonleaf_buckets.get(&(bx, by)) {
                                    local.extend(ids.iter().copied().filter(|&i| {
                                        let nid = table.nonleaf_nodes[i].0;
                                        rect.contains(design.tree.node(nid).location)
                                    }));
                                }
                            }
                        }
                        // Summing in node order keeps the result
                        // bit-identical to the full `nonleaf_within` scan.
                        local.sort_unstable();
                        plan.vector_of(&crate::noise_table::EventWaveforms::sum(
                            local.iter().map(|&i| &table.nonleaf_nodes[i].1),
                        ))
                    }
                    BackgroundMode::Global => plan.vector_of(&table.nonleaf),
                    BackgroundMode::None => vec![0.0; plan.dims()],
                };
                ZoneSpec {
                    id,
                    sinks,
                    plan,
                    background,
                }
            })
            .collect()
    }

    /// Samples this zone's option vectors: per local sink, one flat
    /// row-major `Vec` with one `plan.dims()` row per candidate option.
    /// Deterministic: sampling the same spec twice produces bit-identical
    /// vectors, which is what lets the zone store rebuild evicted zones
    /// without changing results.
    pub(crate) fn sample_rows<'a>(
        &'a self,
        table: &'a NoiseTable,
    ) -> impl Iterator<Item = Vec<f64>> + 'a {
        let dims = self.plan.dims();
        self.sinks.iter().map(move |&si| {
            let options = &table.sinks[si].options;
            let mut rows = Vec::with_capacity(options.len() * dims);
            for o in options {
                self.plan.sample_into(&o.waves, &mut rows);
            }
            rows
        })
    }

    /// Bytes this zone's materialized `vectors` occupy while resident
    /// (`Σ options × plan dims × 8`): what the zone store charges against
    /// its budget, and what the budget feasibility check sizes the
    /// minimal working set from (the largest zone's figure).
    pub(crate) fn hot_bytes(&self, table: &NoiseTable) -> usize {
        let options: usize = self
            .sinks
            .iter()
            .map(|&si| table.sinks[si].options.len())
            .sum();
        options * self.plan.dims() * std::mem::size_of::<f64>()
    }

    /// A content hash of everything this zone's solve can depend on
    /// *except* its predecessors' solutions (those enter through the
    /// [`crate::checkpoint::ZoneKeyChain`]): the characterized sink
    /// entries with all candidate waveforms, the sampling plan, and the
    /// sampled background. Node identities are deliberately excluded —
    /// choices are (option index, code) pairs, so two designs whose
    /// characterized zones match bit-for-bit can splice each other's
    /// solutions even if their node numbering differs. This is what makes
    /// an ECO re-solve incremental: untouched zones hash identically and
    /// hit the shared cache.
    pub(crate) fn content_hash(&self, table: &NoiseTable) -> u64 {
        use crate::checkpoint::{fnv1a, step};
        let mut h = fnv1a(b"wavemin-zone-content-v1");
        h = step(h, self.sinks.len() as u64);
        for &si in &self.sinks {
            let e = &table.sinks[si];
            h = step(h, e.input_arrival.value().to_bits());
            h = step(h, matches!(e.input_edge, ClockEdge::Fall) as u64);
            h = step(h, e.load.value().to_bits());
            h = step(h, e.options.len() as u64);
            for o in &e.options {
                h = step(h, fnv1a(o.cell.as_bytes()));
                h = step(h, o.kind as u64);
                h = step(h, o.delay.value().to_bits());
                h = step(h, o.arrival.value().to_bits());
                h = step(h, o.adjust_range.value().to_bits());
                h = step(h, u64::from(o.adjust_steps));
                for (rail, event) in crate::noise_table::EventWaveforms::SLOTS {
                    for (t, i) in o.waves.get(rail, event).breakpoints() {
                        h = step(h, t.value().to_bits());
                        h = step(h, i.value().to_bits());
                    }
                    h = step(h, 0x77); // slot separator
                }
            }
        }
        h = step(h, self.plan.times().len() as u64);
        for &t in self.plan.times() {
            h = step(h, t.value().to_bits());
        }
        h = step(h, u64::from(self.plan.is_degenerate()));
        h = step(h, self.background.len() as u64);
        for &b in &self.background {
            h = step(h, b.to_bits());
        }
        h
    }
}

/// A zone's sampled noise data in every mode, shared by all inner
/// solvers.
#[derive(Debug)]
pub(crate) struct ZoneProblem {
    /// Every zone's spec in every mode, mode-major (see
    /// [`streaming::ZoneStorage`]); this zone's mode-`m` spec is
    /// `specs[m * zones + zi]`.
    specs: Arc<[ZoneSpec]>,
    zi: usize,
    zones: usize,
    /// Unshifted sampled rows, one per (mode, local sink), mode-major.
    /// Read through [`Self::option_data`].
    vectors: Arc<[Vec<f64>]>,
}

impl ZoneProblem {
    /// The zone's mode-0 partition data: sinks, sampling plan, background.
    pub(crate) fn spec(&self) -> &ZoneSpec {
        self.spec_in(0)
    }

    /// The zone's partition data in power mode `mode`.
    pub(crate) fn spec_in(&self, mode: usize) -> &ZoneSpec {
        &self.specs[mode * self.zones + self.zi]
    }

    /// One option's delay code in mode 0 (the code the checkpoint journal
    /// records) and its sampled vectors in every mode, joined end to end
    /// (Fig. 12) and delay-shifted where a nonzero adjustable code
    /// applies; `None` when the option misses any mode's window.
    pub(crate) fn option_data(
        &self,
        tables: &[NoiseTable],
        intersection: &FeasibleIntersection,
        local: usize,
        option: usize,
    ) -> Option<(Picoseconds, Vec<f64>)> {
        let rows = self.spec().sinks.len();
        let dims: usize = (0..tables.len()).map(|m| self.spec_in(m).plan.dims()).sum();
        let mut vector = Vec::with_capacity(dims);
        let mut code0 = Picoseconds::ZERO;
        for (m, (table, &(lo, hi))) in tables.iter().zip(&intersection.windows).enumerate() {
            let spec = self.spec_in(m);
            let o = &table.sinks[spec.sinks[local]].options[option];
            let code = o.delay_code_for(lo, hi)?;
            if code == Picoseconds::ZERO {
                let dims = spec.plan.dims();
                let row = &self.vectors[m * rows + local];
                vector.extend_from_slice(&row[option * dims..(option + 1) * dims]);
            } else {
                spec.plan.sample_into(&o.waves.shifted(code), &mut vector);
            }
            if m == 0 {
                code0 = code;
            }
        }
        Some((code0, vector))
    }

    /// The zone's background in every mode, joined end to end: the
    /// static non-leaf noise plus `extra[m]`, the accumulated noise of
    /// the zones already assigned in this intersection.
    pub(crate) fn background(&self, extra: &[BackgroundAccumulator]) -> Vec<f64> {
        let mut out = Vec::new();
        for (m, acc) in extra.iter().enumerate() {
            let spec = self.spec_in(m);
            let start = out.len();
            out.extend_from_slice(&spec.background);
            spec.plan.accumulate_background_into(&mut out[start..], acc);
        }
        out
    }
}

/// One zone's solution: the chosen option and its mode-0 delay code per
/// local sink, plus the min–max objective value including the
/// background. Other modes' codes follow from the intersection's
/// windows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ZoneSolution {
    pub choices: Vec<(usize, Picoseconds)>,
    pub cost: f64,
}

/// An inner solver assigns one zone's sinks inside one feasible
/// intersection (one window per power mode). `extra[m]` carries the
/// mode-`m` accumulated noise of zones already assigned in this
/// intersection (the paper optimizes zones "one by one"). Solvers must be
/// `Sync`: independent intersections are solved concurrently on a worker
/// pool, all through one shared solver instance.
pub(crate) trait ZoneSolver: Sync {
    fn solve_zone(
        &self,
        tables: &[NoiseTable],
        zone: &ZoneProblem,
        intersection: &FeasibleIntersection,
        extra: &[BackgroundAccumulator],
    ) -> Result<ZoneSolution, WaveMinError>;

    /// The containment layer's one retry after [`Self::solve_zone`]
    /// faulted: solve the same zone on the cheapest rung available,
    /// injection-free. The default just retries the normal solve.
    fn salvage_zone(
        &self,
        tables: &[NoiseTable],
        zone: &ZoneProblem,
        intersection: &FeasibleIntersection,
        extra: &[BackgroundAccumulator],
    ) -> Result<ZoneSolution, WaveMinError> {
        self.solve_zone(tables, zone, intersection, extra)
    }

    /// Notification that `zone`'s solve faulted (before the salvage
    /// retry); solvers record it in their own degradation bookkeeping.
    fn note_zone_fault(&self, _zone: usize, _payload: &str) {}

    /// Notification that `zone`'s salvage retry produced a usable result.
    fn note_zone_salvaged(&self, _zone: usize) {}
}

/// The shared interval-based optimization skeleton for the solvers
/// without a degradation ladder: characterizes the design, solves and
/// validates every interval (keeping the tree as-is when no candidate
/// validates), and attaches the run report. No zone store is attached:
/// store keys do not name the solver, so only the MOSP flows
/// ([`ClkWaveMin`] and ClkWaveMin-M) take one.
pub(crate) fn run_interval_framework<S: ZoneSolver>(
    design: &Design,
    config: &WaveMinConfig,
    solver: &S,
    ins: &Instruments,
) -> Result<Outcome, WaveMinError> {
    let prep = characterize_design(design, config, ins)?;
    let mut out =
        solve_prepared(design, config, &prep, solver, None, ins)?.or_identity(design, ins)?;
    out.attach_report(config, ins, None);
    Ok(out)
}

/// Everything the interval framework derives from a design before any
/// zone is solved: the characterized noise table of every power mode,
/// the feasible intersections, the zone partition with solve order, and
/// each zone's content hash. Holding one of these resident is what makes
/// a serve-mode session cheap to re-solve — repeated jobs skip straight
/// to the solve phase.
pub(crate) struct PreparedRun {
    /// The characterized noise tables, one per power mode.
    pub tables: Vec<NoiseTable>,
    /// The feasible intersections: one window per power mode each, plus
    /// the options allowed in all of them. A single-mode run's intervals
    /// are one-window intersections.
    pub intersections: Vec<FeasibleIntersection>,
    /// Every zone in every mode, built on first use and kept resident
    /// within the memory budget.
    pub zones: streaming::ZoneStorage,
    /// Zone indices largest-first (the solve order inside each
    /// intersection).
    pub zone_order: Vec<usize>,
    /// `zone_hashes[zone]` — the zone's content hash over every mode,
    /// for store keying.
    pub zone_hashes: Vec<u64>,
    /// Zone specs, over all modes, whose sampling plan fell back to a
    /// dummy time.
    pub degenerate_zones: usize,
}

impl PreparedRun {
    /// Appends zone `zi`'s restriction in intersection `xi` to `out`: its
    /// sinks' allowed option lists and every allowed option's delay code
    /// in every mode (see [`share::encode_restriction`]). Everything a
    /// zone solve reads from its intersection is in here.
    pub(crate) fn restriction(&self, xi: usize, zi: usize, out: &mut Vec<u64>) {
        let intersection = &self.intersections[xi];
        let allowed = intersection.allowed_for(&self.zones.spec(zi).sinks);
        share::encode_restriction(out, &allowed, self.tables.len(), |local, opt, m| {
            let (lo, hi) = intersection.windows[m];
            let si = self.zones.spec_in(m, zi).sinks[local];
            self.tables[m].sinks[si].options[opt].delay_code_for(lo, hi)
        });
    }
}

/// Characterizes a single-mode design (mode 0) into a [`PreparedRun`]
/// whose intersections are the feasible intervals under the tightened
/// bound. This is the session-resident half of the split entry point;
/// [`solve_prepared`] is the repeatable half.
pub(crate) fn characterize_design(
    design: &Design,
    config: &WaveMinConfig,
    ins: &Instruments,
) -> Result<PreparedRun, WaveMinError> {
    prepare_run(design, config, 1, ins, |tables| {
        // Optimize against a slightly tightened window: Observation 4
        // ignores sibling-load feedback during assignment, so headroom is
        // reserved and the exact bound is checked afterwards.
        let kappa_eff = config.skew_bound * config.window_margin;
        let intervals = IntervalSet::generate(&tables[0], kappa_eff, config.max_intervals);
        if intervals.is_empty() {
            return Err(WaveMinError::NoFeasibleInterval);
        }
        Ok(intervals
            .into_intervals()
            .into_iter()
            .map(FeasibleIntersection::from)
            .collect())
    })
}

/// Characterizes modes `0..modes` of a design (in parallel over modes),
/// generates the feasible intersections from the tables, partitions the
/// zones in every mode, and sizes the zone store to the memory budget.
pub(crate) fn prepare_run(
    design: &Design,
    config: &WaveMinConfig,
    modes: usize,
    ins: &Instruments,
    intersections: impl FnOnce(&[NoiseTable]) -> Result<Vec<FeasibleIntersection>, WaveMinError>,
) -> Result<PreparedRun, WaveMinError> {
    let threads = config.effective_threads();
    let mode_ids: Vec<usize> = (0..modes).collect();
    let tables: Vec<NoiseTable> = {
        let _stage = ins.stage(Stage::Characterization);
        crate::parallel::map_ordered(&mode_ids, threads, |_, &m| {
            NoiseTable::build(design, config, m)
        })
        .into_iter()
        .collect::<Result<_, _>>()?
    };
    let zoning = ins.stage(Stage::Zoning);
    let intersections = intersections(&tables)?;
    let specs: Vec<ZoneSpec> = crate::parallel::map_ordered(&tables, threads, |_, table| {
        ZoneSpec::build_specs(design, config, table)
    })
    .into_iter()
    .flatten()
    .collect();
    let zone_count = specs.len() / modes.max(1);
    ins.registry.ensure_zones(zone_count);

    // Zones are processed largest-first so the dominant zones shape the
    // accumulated background the smaller ones then avoid.
    let mut zone_order: Vec<usize> = (0..zone_count).collect();
    zone_order.sort_by_key(|&z| std::cmp::Reverse(specs[z].sinks.len()));
    let degenerate_zones = specs.iter().filter(|s| s.plan.is_degenerate()).count();

    let mut zones = streaming::ZoneStorage::new(specs, modes, usize::MAX);
    let zone_hashes: Vec<u64> = (0..zone_count)
        .map(|zi| {
            (1..modes).fold(zones.spec(zi).content_hash(&tables[0]), |h, m| {
                crate::checkpoint::step(h, zones.spec_in(m, zi).content_hash(&tables[m]))
            })
        })
        .collect();
    let max_hot = (0..zone_count)
        .map(|zi| zones.hot_bytes(zi, &tables))
        .max()
        .unwrap_or(0);
    zones.reset(streaming_limit_bytes(config, max_hot)?);
    drop(zoning);
    ins.registry.sample_rss();
    Ok(PreparedRun {
        tables,
        intersections,
        zones,
        zone_order,
        zone_hashes,
        degenerate_zones,
    })
}

/// Translates `--memory-budget-mb` into the zone store's byte budget, or
/// rejects an infeasible budget with a typed error.
///
/// The budget covers the *whole process*: the store may only use what
/// remains after the current resident set (characterized tables, tree,
/// intersections) plus the transient working set of one acquire — a zone
/// being built while an evicted one is still held by its solver,
/// bounded by twice the largest zone's hot bytes (`max_hot`). A budget
/// below that minimal working set cannot run at any store size, so it
/// fails up front with [`WaveMinError::MemoryBudget`] instead of
/// thrashing or aborting.
fn streaming_limit_bytes(config: &WaveMinConfig, max_hot: usize) -> Result<usize, WaveMinError> {
    const MB: usize = 1 << 20;
    let Some(budget_mb) = config.memory_budget_mb else {
        return Ok(usize::MAX); // no cap: every zone stays resident
    };
    let budget = budget_mb.saturating_mul(MB);
    let baseline = crate::observe::current_rss_bytes().unwrap_or(0) as usize;
    // Slack for resident memory the store's ledger cannot see: zone
    // build/solve churn leaves freed chunks retained by the allocator,
    // and the solve loop holds accumulated backgrounds and
    // per-intersection results. Reserved up front so the end-of-solve RSS
    // stays under the budget rather than just the store's own bytes.
    let slack = 16 * MB + budget / 8;
    let required = baseline.saturating_add(2 * max_hot).saturating_add(slack);
    if budget < required.saturating_add(MB) {
        return Err(WaveMinError::MemoryBudget {
            budget_mb,
            required_mb: required / MB + 2,
        });
    }
    Ok(budget - required)
}

/// One intersection's result: its min–max cost and assignment, `None`
/// when some zone had no feasible option.
type IntersectionResult = Result<Option<(f64, Assignment)>, WaveMinError>;

/// The answer to one share-plan group, read by every member cell: the
/// zone's solution (or why there is none) and, when a store is attached,
/// the key chain advanced past the zone.
struct SharedAnswer {
    solution: Result<ZoneSolution, WaveMinError>,
    chain: Option<crate::checkpoint::ZoneKeyChain>,
}

/// Everything the zones after a restriction prefix start from, shared by
/// every intersection with that prefix: the accumulated background per
/// mode, the key chain, the worst zone cost so far and the zone solutions
/// along the prefix.
#[derive(Clone)]
struct Prefix {
    accumulated: Vec<BackgroundAccumulator>,
    chain: Option<crate::checkpoint::ZoneKeyChain>,
    cost: f64,
    solutions: Option<Arc<ZoneLink>>,
}

/// One zone's solution on a prefix, linked to the solutions before it.
/// Prefixes that split share their common links.
struct ZoneLink {
    zone: usize,
    solution: ZoneSolution,
    before: Option<Arc<ZoneLink>>,
}

impl Drop for ZoneLink {
    /// Unlinks iteratively: a 20,000-zone chain must not recurse.
    fn drop(&mut self) {
        let mut next = self.before.take();
        while let Some(link) = next {
            next = Arc::try_unwrap(link).ok().and_then(|mut l| l.before.take());
        }
    }
}

/// Calls `pick(mode, node, option, code, adjustable)` for every sink of
/// zone `zi` in `solution`, in every mode, with the mode's delay code for
/// the chosen option in `intersection` (zero when it has none).
fn for_each_pick(
    prep: &PreparedRun,
    zi: usize,
    solution: &ZoneSolution,
    intersection: &FeasibleIntersection,
    mut pick: impl FnMut(
        usize,
        wavemin_clocktree::NodeId,
        &crate::noise_table::SinkOption,
        Picoseconds,
        bool,
    ),
) {
    let tables = &prep.tables;
    for (local, &(opt, _)) in solution.choices.iter().enumerate() {
        let entry = &tables[0].sinks[prep.zones.spec(zi).sinks[local]];
        let adjustable = entry.options[opt].is_adjustable();
        for (m, &(lo, hi)) in intersection.windows.iter().enumerate() {
            let o = &tables[m].sinks[prep.zones.spec_in(m, zi).sinks[local]].options[opt];
            let code = o.delay_code_for(lo, hi).unwrap_or(Picoseconds::ZERO);
            pick(m, entry.node, o, code, adjustable);
        }
    }
}

/// Solves every intersection of a [`PreparedRun`], with results in input
/// order. Inside one intersection the zones chain through the per-mode
/// accumulated background along `zone_order`. Cells (intersection, zone)
/// whose restriction prefixes are equal pose one subproblem, so the
/// [`SharePlan`] tree is walked instead of the intersections: each group
/// is solved once from its parent's prefix (counted in `zone_solves`, or
/// `zones_reused` on a store hit) and serves every member
/// (`zones_shared`), and independent groups run concurrently. Results are
/// bit-identical at any thread count, and one thread solves in the order
/// of a plain intersection-by-intersection loop. Also returns the zones
/// that faulted and were salvaged, across all intersections. See
/// [`solve_prepared`] for the `store` and `seed` contract.
pub(crate) fn solve_each_intersection<S: ZoneSolver>(
    threads: usize,
    prep: &PreparedRun,
    solver: &S,
    store: Option<&ZoneCache>,
    seed: Option<u64>,
    ins: &Instruments,
) -> (Vec<IntersectionResult>, Vec<usize>) {
    let registry = &ins.registry;
    let tables = &prep.tables[..];
    let zones = &prep.zones;
    let plan = SharePlan::build(
        prep.intersections.len(),
        prep.zone_order.len(),
        |xi, rank, out| prep.restriction(xi, prep.zone_order[rank], out),
    );
    // Zones that faulted and were salvaged, across all intersections.
    let faulted = std::sync::Mutex::new(std::collections::BTreeSet::new());

    // Solve one zone with fault containment: a panic (or an injected
    // fault surfacing as `ZoneFault`) is noted, then retried once through
    // the solver's salvage path. A second failure makes the whole
    // intersection a fault — handled at ranking like an infeasible one as
    // long as some intersection survives.
    let contained_solve = |zi: usize,
                           zone: &ZoneProblem,
                           intersection: &FeasibleIntersection,
                           accumulated: &[BackgroundAccumulator]|
     -> Result<ZoneSolution, WaveMinError> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let first = catch_unwind(AssertUnwindSafe(|| {
            solver.solve_zone(tables, zone, intersection, accumulated)
        }));
        let payload = match first {
            Ok(Ok(sol)) => return Ok(sol),
            Ok(Err(WaveMinError::ZoneFault { payload, .. })) => payload,
            Ok(Err(e)) => return Err(e),
            Err(p) => crate::parallel::panic_payload(p.as_ref()),
        };
        solver.note_zone_fault(zi, &payload);
        registry.record_zone_fault();
        if let Ok(mut g) = faulted.lock() {
            g.insert(zi);
        }
        let retry = catch_unwind(AssertUnwindSafe(|| {
            solver.salvage_zone(tables, zone, intersection, accumulated)
        }));
        match retry {
            Ok(Ok(sol)) => {
                solver.note_zone_salvaged(zi);
                registry.record_zone_salvage();
                Ok(sol)
            }
            Ok(Err(e)) => Err(WaveMinError::ZoneFault {
                zone: zi,
                payload: format!("{payload}; salvage failed: {e}"),
            }),
            Err(p) => Err(WaveMinError::ZoneFault {
                zone: zi,
                payload: format!(
                    "{payload}; salvage panicked: {}",
                    crate::parallel::panic_payload(p.as_ref())
                ),
            }),
        }
    };

    // Solve one cell — zone `zi` inside intersection `xi` — consulting the
    // store once when there is one. `chain` is the cell's key chain; it
    // comes back advanced past this zone for the group's members.
    let solve_cell = |xi: usize,
                      zi: usize,
                      accumulated: &[BackgroundAccumulator],
                      mut chain: Option<crate::checkpoint::ZoneKeyChain>|
     -> SharedAnswer {
        let intersection = &prep.intersections[xi];
        // The zone's input in this intersection: its content and its
        // restriction, which covers every mode's delay codes.
        let input = chain.as_ref().map(|_| {
            let mut restriction = Vec::new();
            prep.restriction(xi, zi, &mut restriction);
            restriction
                .iter()
                .fold(prep.zone_hashes[zi], |h, &w| crate::checkpoint::step(h, w))
        });
        let key = chain.as_ref().zip(input).map(|(c, i)| c.key_for(i));
        // The hot zone (and the solver's Pareto tables) lives only for
        // this solve.
        let solve = || {
            let zone = zones.acquire(zi, tables, ins);
            contained_solve(zi, &zone, intersection, accumulated)
        };
        let solution = match store.zip(key).map(|(s, k)| s.acquire(k)) {
            Some(StoreAcquire::Hit(hit)) => {
                // Splicing a stored solution needs only the zone's spec:
                // the vectors stay cold.
                registry.record_zone_reused();
                Ok(ZoneSolution {
                    choices: hit.choices_ps(),
                    cost: hit.cost(),
                })
            }
            // A miss holds its key in flight for concurrent jobs until the
            // reservation drops; a successful record resolves it to a hit.
            Some(StoreAcquire::Solve(reservation)) => solve().and_then(|sol| {
                reservation.record(sol.cost.to_bits(), &sol.choices)?;
                Ok(sol)
            }),
            None => solve(),
        };
        if let (Some(c), Some(i), Ok(sol)) = (chain.as_mut(), input, &solution) {
            c.absorb(i, sol.cost.to_bits(), &sol.choices);
        }
        SharedAnswer { solution, chain }
    };

    // Answer one group from its parent's prefix, solving in the group's
    // first intersection; a zone without a feasible option ends the
    // prefix for every member.
    let answer = |rank: usize, members: &[usize], mut prefix: Prefix| {
        let (xi, zi) = (members[0], prep.zone_order[rank]);
        let SharedAnswer { solution, chain } =
            solve_cell(xi, zi, &prefix.accumulated, prefix.chain.take());
        for member in 0..members.len() {
            registry.record_zone_cell(member > 0);
        }
        let solution = match solution {
            Ok(sol) => sol,
            Err(WaveMinError::NoFeasibleInterval) => return Err(Ok(None)),
            Err(e) => return Err(Err(e)),
        };
        for _ in members {
            ins.progress.zone_done();
        }
        // Every member has the same delay codes on its prefix, so the
        // first intersection's windows accumulate for all of them.
        for_each_pick(
            prep,
            zi,
            &solution,
            &prep.intersections[xi],
            |m, _, o, code, _| {
                let acc = &mut prefix.accumulated[m];
                if code > Picoseconds::ZERO {
                    acc.push(&o.waves.shifted(code));
                } else {
                    acc.push(&o.waves);
                }
            },
        );
        prefix.chain = chain;
        prefix.cost = prefix.cost.max(solution.cost);
        prefix.solutions = Some(Arc::new(ZoneLink {
            zone: zi,
            solution,
            before: prefix.solutions.take(),
        }));
        Ok(prefix)
    };
    // Assemble one intersection's assignment from its prefix. Zones own
    // disjoint sinks, so the walk back from the last zone sets each entry
    // once.
    let finish = |xi: usize, prefix: &Prefix| -> IntersectionResult {
        let intersection = &prep.intersections[xi];
        let mut assignment = Assignment::new();
        let mut at = prefix.solutions.as_deref();
        while let Some(link) = at {
            for_each_pick(
                prep,
                link.zone,
                &link.solution,
                intersection,
                |m, node, o, code, adjustable| {
                    if m == 0 {
                        assignment.set(node, o.cell.clone());
                    }
                    // Adjustable codes are always recorded: a zero code
                    // overwrites any stale insertion-phase code.
                    if adjustable {
                        assignment.set_delay_code(m, node, code);
                    }
                },
            );
            at = link.before.as_deref();
        }
        registry.sample_rss();
        Ok(Some((prefix.cost, assignment)))
    };
    let root = Prefix {
        accumulated: vec![BackgroundAccumulator::zero(); tables.len()],
        chain: seed.map(crate::checkpoint::ZoneKeyChain::new),
        cost: 0.0,
        solutions: None,
    };
    let solved = plan.run(threads, root, answer, finish);
    let faulted = faulted
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (solved, faulted.into_iter().collect())
}

/// What [`solve_prepared`] found.
pub(crate) struct Solved {
    /// The best-ranked candidate that met the exact skew bound, or
    /// `None` when none did — each caller picks its own fallback.
    pub outcome: Option<Outcome>,
    intervals_tried: usize,
    runtime: Duration,
    degenerate_zones: usize,
    faulted_zones: Vec<usize>,
}

impl Solved {
    /// The single-mode policy: when no candidate validated, keep the tree
    /// as-is (the identity assignment).
    pub(crate) fn or_identity(
        self,
        design: &Design,
        ins: &Instruments,
    ) -> Result<Outcome, WaveMinError> {
        if let Some(out) = self.outcome {
            return Ok(out);
        }
        let _stage = ins.stage(Stage::Validation);
        let mut out = finish_outcome(
            design,
            design,
            Assignment::new(),
            f64::NAN,
            self.intervals_tried,
            self.runtime,
        )?;
        out.degenerate_zones = self.degenerate_zones;
        out.faulted_zones = self.faulted_zones;
        Ok(out)
    }
}

/// Solves a [`PreparedRun`] ([`solve_each_intersection`]), ranks the
/// intersections by cost and validates the candidates with exact timing
/// in every mode, best first. With a [`ZoneCache`] attached (the
/// checkpoint journal's or the serve-mode one), zones whose chain key
/// hits are spliced bit-for-bit and counted as `zones_reused`; every
/// intersection's key chain starts from the solver config's fingerprint
/// (see [`crate::checkpoint::config_fingerprint`]) and absorbs each
/// zone's content hash and restriction over every mode, so a key names
/// one share-plan group and the store is consulted once per group.
///
/// Each candidate that misses the bound becomes a `candidate_rejected`
/// journal instant (rank, cost, exact skew).
pub(crate) fn solve_prepared<S: ZoneSolver>(
    design: &Design,
    config: &WaveMinConfig,
    prep: &PreparedRun,
    solver: &S,
    store: Option<&ZoneCache>,
    ins: &Instruments,
) -> Result<Solved, WaveMinError> {
    let seed = store
        .is_some()
        .then(|| crate::checkpoint::config_fingerprint(config))
        .transpose()?;
    let registry = &ins.registry;
    // A session characterized without a registry sizes the table here.
    registry.ensure_zones(prep.zones.len());
    let start = std::time::Instant::now();
    registry.sample_rss();
    // Progress ticker for the whole solve (observation only — it never
    // feeds back into solver state, keeping enabled ≡ disabled runs
    // bit-identical). Each tick also folds an RSS sample into the peak
    // gauge so transient spikes between phase checkpoints are seen.
    let _progress_guard = ins.progress.begin(
        (prep.intersections.len() * prep.zone_order.len()) as u64,
        registry,
    );
    let (solved, faulted_zones) =
        solve_each_intersection(config.effective_threads(), prep, solver, store, seed, ins);
    registry.sample_solve_rss();
    let mut ranked: Vec<(f64, Assignment)> = Vec::new();
    let mut fault: Option<WaveMinError> = None;
    for result in solved {
        match result {
            Ok(Some(pair)) => ranked.push(pair),
            Ok(None) => {}
            // An uncontainable zone fault drops its intersection from the
            // ranking; only if *every* intersection is lost does it become the
            // run's error.
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
    let mut solved = Solved {
        outcome: None,
        intervals_tried: prep.intersections.len(),
        runtime: start.elapsed(),
        degenerate_zones: prep.degenerate_zones,
        faulted_zones,
    };

    // Validate with exact timing (Observation 4 ignores sibling-load
    // feedback, so re-check against the true bound); fall back to the
    // next-best intersection.
    let validation = ins.stage(Stage::Validation);
    let mut thandle = ins.journal.handle();
    for (rank, (cost, assignment)) in ranked.iter().enumerate() {
        let mut candidate = design.clone();
        assignment.apply_to(&mut candidate);
        let skew = candidate.max_skew()?;
        if skew.value() <= config.skew_bound.value() + 1e-9 {
            let mut out = finish_outcome(
                design,
                &candidate,
                assignment.clone(),
                *cost,
                solved.intervals_tried,
                solved.runtime,
            )?;
            out.degenerate_zones = solved.degenerate_zones;
            out.faulted_zones = solved.faulted_zones.clone();
            solved.outcome = Some(out);
            break;
        }
        thandle.instant(TraceEventKind::CandidateRejected {
            rank,
            cost: *cost,
            skew_ps: skew.value(),
        });
    }
    registry.sample_rss();
    drop(validation);
    Ok(solved)
}

/// Evaluates before/after and assembles the [`Outcome`].
pub(crate) fn finish_outcome(
    before: &Design,
    after: &Design,
    assignment: Assignment,
    estimated_cost: f64,
    intervals_tried: usize,
    runtime: Duration,
) -> Result<Outcome, WaveMinError> {
    let eval_before = NoiseEvaluator::new(before);
    let eval_after = NoiseEvaluator::new(after);
    let mut out = Outcome {
        assignment,
        peak_before: MilliAmps::ZERO,
        peak_after: MilliAmps::ZERO,
        vdd_noise_before: Millivolts::ZERO,
        vdd_noise_after: Millivolts::ZERO,
        gnd_noise_before: Millivolts::ZERO,
        gnd_noise_after: Millivolts::ZERO,
        skew_before: Picoseconds::ZERO,
        skew_after: Picoseconds::ZERO,
        estimated_cost,
        intervals_tried,
        adb_count: count_kind(after, CellKind::Adb),
        adi_count: count_kind(after, CellKind::Adi),
        runtime,
        degradation: None,
        degenerate_zones: 0,
        report: None,
        faulted_zones: Vec::new(),
    };
    for mode in 0..before.mode_count() {
        let rb = eval_before.evaluate(mode)?;
        out.peak_before = out.peak_before.max(rb.peak);
        out.vdd_noise_before = out.vdd_noise_before.max(rb.vdd_noise);
        out.gnd_noise_before = out.gnd_noise_before.max(rb.gnd_noise);
        out.skew_before = out.skew_before.max(rb.skew);
    }
    for mode in 0..after.mode_count() {
        let ra = eval_after.evaluate(mode)?;
        out.peak_after = out.peak_after.max(ra.peak);
        out.vdd_noise_after = out.vdd_noise_after.max(ra.vdd_noise);
        out.gnd_noise_after = out.gnd_noise_after.max(ra.gnd_noise);
        out.skew_after = out.skew_after.max(ra.skew);
    }
    Ok(out)
}

/// Counts the tree's cells of one kind.
pub(crate) fn count_kind(design: &Design, kind: CellKind) -> usize {
    design
        .tree
        .iter()
        .filter(|(_, n)| design.lib.get(&n.cell).is_some_and(|c| c.kind() == kind))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_percentage() {
        assert!((improvement_pct(100.0, 80.0) - 20.0).abs() < 1e-12);
        assert!((improvement_pct(100.0, 120.0) + 20.0).abs() < 1e-12);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn outcome_improvements_are_consistent() {
        let o = Outcome {
            assignment: Assignment::new(),
            peak_before: MilliAmps::new(10.0),
            peak_after: MilliAmps::new(8.0),
            vdd_noise_before: Millivolts::new(5.0),
            vdd_noise_after: Millivolts::new(4.0),
            gnd_noise_before: Millivolts::new(5.0),
            gnd_noise_after: Millivolts::new(6.0),
            skew_before: Picoseconds::ZERO,
            skew_after: Picoseconds::ZERO,
            estimated_cost: 0.0,
            intervals_tried: 0,
            adb_count: 0,
            adi_count: 0,
            runtime: Duration::ZERO,
            degradation: None,
            degenerate_zones: 0,
            report: None,
            faulted_zones: Vec::new(),
        };
        assert!((o.peak_improvement_pct() - 20.0).abs() < 1e-9);
        assert!((o.vdd_improvement_pct() - 20.0).abs() < 1e-9);
        assert!(o.gnd_improvement_pct() < 0.0);
    }

    /// The s15850 fixture's largest zone hot bytes and default config.
    fn zone_fixture() -> (usize, WaveMinConfig) {
        let design = Design::from_benchmark(&wavemin_clocktree::Benchmark::s15850(), 3);
        let config = WaveMinConfig::default();
        let table = NoiseTable::build(&design, &config, 0).expect("characterize");
        let specs = ZoneSpec::build_specs(&design, &config, &table);
        let max_hot = specs.iter().map(|s| s.hot_bytes(&table)).max().unwrap_or(0);
        (max_hot, config)
    }

    #[test]
    fn no_memory_budget_means_an_unlimited_store() {
        let (max_hot, config) = zone_fixture();
        assert_eq!(config.memory_budget_mb, None);
        assert_eq!(
            streaming_limit_bytes(&config, max_hot).expect("no budget"),
            usize::MAX
        );
    }

    #[test]
    fn a_budget_below_the_working_set_is_rejected() {
        let (max_hot, config) = zone_fixture();
        // The fixed slack alone is 16 MB, so 1 MB can never run.
        match streaming_limit_bytes(&config.with_memory_budget_mb(1), max_hot) {
            Err(WaveMinError::MemoryBudget {
                budget_mb,
                required_mb,
            }) => {
                assert_eq!(budget_mb, 1);
                assert!(required_mb > 16, "required {required_mb} MB");
            }
            other => panic!("expected a memory-budget error, got {other:?}"),
        }
    }

    #[test]
    fn a_feasible_budget_reserves_the_working_set_and_slack() {
        const MB: usize = 1 << 20;
        let (max_hot, config) = zone_fixture();
        let budget_mb = 64 * 1024;
        let limit = streaming_limit_bytes(&config.with_memory_budget_mb(budget_mb), max_hot)
            .expect("a 64 GB budget fits");
        let budget = budget_mb * MB;
        assert!(max_hot > 0);
        let reserved = budget - limit;
        assert!(
            reserved >= 16 * MB + budget / 8 + 2 * max_hot,
            "only {reserved} bytes kept out of the store"
        );
        assert!(limit > 0);
    }
}
