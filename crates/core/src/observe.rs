//! Observability: pipeline stage spans, the solver metrics registry,
//! and the machine-readable [`RunReport`].
//!
//! [`Instruments`] carries the registry, the event journal and the
//! progress tracker through the pipeline as one value; its stage guard
//! times each stage from one pair of clock readings for all of them.
//!
//! The registry is an `Option<Arc<_>>`: a disabled registry carries no
//! allocation and every recording call is a single branch on `None`, so
//! the instrumented hot paths cost nothing when metrics are off (the
//! paired `trace_overhead/e2e/disabled_vs_baseline` row of
//! `wavemin-bench`'s `overhead` bench keeps that honest). An enabled registry records straight into the report's own
//! structs behind one mutex, so a report is a clone of them. Every
//! recorded value is a commutative sum or a maximum, so the aggregates
//! are identical for any worker count on an unbudgeted run.
//!
//! Span hierarchy (one [`Stage`] per pipeline phase):
//!
//! ```text
//! run
//! ├── characterization      NoiseTable::build (per power mode)
//! ├── zoning                feasible intervals + zone specs and store
//! ├── zone_solve            one span per zone × window MOSP solve
//! ├── intersection          multi-mode intersection generation, per margin
//! ├── validation            exact skew re-check of ranked candidates
//! └── monte_carlo           process-variation study
//! ```

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use wavemin_mosp::SolveStats;

use crate::trace::{TraceEventKind, TraceHandle, TraceJournal};

/// The instrumented pipeline stages, in report order (a stage's
/// discriminant indexes the registry's per-stage span totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Per-mode candidate characterization ([`crate::NoiseTable`] build).
    Characterization,
    /// Feasible interval generation and zone partitioning.
    Zoning,
    /// One zone × window MOSP (or greedy) subproblem solve.
    ZoneSolve,
    /// Multi-mode feasible intersection generation
    /// ([`crate::multimode::IntersectionSet::generate`]), once per window
    /// margin; the intersections' zone solves are not part of it.
    Intersection,
    /// Exact skew re-validation of the ranked candidates.
    Validation,
    /// Monte-Carlo process-variation study.
    MonteCarlo,
}

impl Stage {
    const COUNT: usize = 6;

    const ALL: [Stage; Stage::COUNT] = [
        Stage::Characterization,
        Stage::Zoning,
        Stage::ZoneSolve,
        Stage::Intersection,
        Stage::Validation,
        Stage::MonteCarlo,
    ];

    /// The stage's stable snake_case name (the key used in reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Characterization => "characterization",
            Stage::Zoning => "zoning",
            Stage::ZoneSolve => "zone_solve",
            Stage::Intersection => "intersection",
            Stage::Validation => "validation",
            Stage::MonteCarlo => "monte_carlo",
        }
    }
}

/// Number of histogram buckets in the fixed log2 layout: bucket 0 holds
/// exact zeros, bucket `i` (1..=63) holds values of bit length `i`
/// (the range `[2^(i-1), 2^i - 1]`), bucket 64 holds `2^63` and above.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value lands in: its bit length (0 for 0). Exact by
/// construction — no floating point, so the same value always lands in
/// the same bucket on every platform.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The largest value bucket `index` can hold (the `le` bound Prometheus
/// exposition uses). Indices past the table clamp to `u64::MAX`.
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        1..=63 => (1u64 << index) - 1,
        _ => u64::MAX,
    }
}

/// What an enabled registry records into: the report's own structs.
/// The eight per-zone sums of [`RunCounters`] stay 0 here;
/// [`MetricsRegistry::report`] adds them up from the zone rows, so
/// `global == Σ zones` holds by construction.
#[derive(Clone, Default)]
struct Ledger {
    counters: RunCounters,
    /// `(count, total_ns)` per [`Stage`], indexed by discriminant.
    stages: [(u64, u64); Stage::COUNT],
    /// Indexed by [`crate::algo::ZoneProblem`] id, grown on demand.
    zones: Vec<ZoneMetrics>,
    /// Quantiles are stale until [`RunHistograms::refresh_quantiles`].
    hists: RunHistograms,
}

impl Ledger {
    /// Grows the zone table to at least `zones` rows. Growth is
    /// monotonic — multi-mode margin retries re-use the ids of earlier
    /// builds and keep accumulating into them.
    fn grow(&mut self, zones: usize) {
        let len = self.zones.len();
        self.zones.extend((len..zones).map(|zone| ZoneMetrics {
            zone,
            ..ZoneMetrics::default()
        }));
    }

    fn zone(&mut self, zone: usize) -> &mut ZoneMetrics {
        self.grow(zone + 1);
        &mut self.zones[zone]
    }

    fn add_span(&mut self, stage: Stage, elapsed_ns: u64) {
        let (count, total_ns) = &mut self.stages[stage as usize];
        *count += 1;
        *total_ns += elapsed_ns;
    }
}

/// The run-wide metrics sink threaded through the optimization pipeline
/// (inside [`Instruments`]).
///
/// Cheap to clone (it is an `Option<Arc<_>>`); a disabled registry is a
/// `None` and every method short-circuits on the first branch.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Mutex<Ledger>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl MetricsRegistry {
    /// A registry that records nothing (also the `Default`).
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A collecting registry.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::default()),
        }
    }

    /// `true` when this registry records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The ledger, locked; `None` when the registry is disabled. A
    /// poisoned lock is taken over: every update leaves the ledger whole.
    /// Callers only update plain fields while holding it, so the lock
    /// order stays caller → registry.
    fn ledger(&self) -> Option<MutexGuard<'_, Ledger>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Adds one finished span of `stage` lasting `elapsed_ns` (see
    /// [`Instruments::stage`], the only caller outside tests).
    fn record_stage(&self, stage: Stage, elapsed_ns: u64) {
        if let Some(mut l) = self.ledger() {
            l.add_span(stage, elapsed_ns);
        }
    }

    /// Pre-sizes the per-zone table, so the report lists every zone of
    /// the partition even when some never solve.
    pub fn ensure_zones(&self, zones: usize) {
        if let Some(mut l) = self.ledger() {
            l.grow(zones);
        }
    }

    /// Records one finished zone subproblem solve: the DP's label/work
    /// counters, the graph's arena interning footprint, whether the solve
    /// exhausted its budget, and its wall time. The solver counters go
    /// into the zone's row only; the report's global counters are their
    /// sums.
    pub fn record_zone_solve(&self, zone: usize, solve: &ZoneSolveRecord) {
        let Some(mut l) = self.ledger() else {
            return;
        };
        let s = &solve.stats;
        let row = l.zone(zone);
        row.solves += 1;
        row.labels_created += s.labels_created;
        row.labels_pruned += s.labels_pruned;
        row.solver_work += s.work;
        row.pareto_paths += s.front_size;
        row.exhausted_solves += u64::from(solve.exhausted);
        row.dominance_checks += s.dominance_checks;
        row.dominance_skipped += s.dominance_skipped;
        row.wall_ns += solve.wall_ns;
        l.counters.arena_arcs += solve.arena_arcs;
        l.counters.arena_unique_weights += solve.arena_unique_weights;
        l.add_span(Stage::ZoneSolve, solve.wall_ns);
        l.hists.zone_solve_ns.record(solve.wall_ns);
        l.hists.labels_per_zone.record(s.labels_created);
        l.hists.front_size.record(s.front_size);
    }

    /// Records the ladder rung one solve of `zone` actually used; the
    /// zone's row keeps the worst (highest) rung seen. A salvaged zone is
    /// recorded on the greedy rung even while the global ladder sits on a
    /// better one — the per-zone row is where that asymmetry is visible.
    pub fn record_zone_rung(&self, zone: usize, rung: usize) {
        if let Some(mut l) = self.ledger() {
            let row = l.zone(zone);
            row.worst_rung = row.worst_rung.max(rung as u64);
        }
    }

    /// Counts one degradation-ladder rung transition.
    pub fn record_rung_transition(&self) {
        if let Some(mut l) = self.ledger() {
            l.counters.rung_transitions += 1;
        }
    }

    /// Counts one contained zone-worker fault (panic or poisoned input).
    pub fn record_zone_fault(&self) {
        if let Some(mut l) = self.ledger() {
            l.counters.zone_faults += 1;
        }
    }

    /// Counts one successful salvage retry of a faulted zone.
    pub fn record_zone_salvage(&self) {
        if let Some(mut l) = self.ledger() {
            l.counters.zone_salvages += 1;
        }
    }

    /// Counts one zone result served from the checkpoint journal instead
    /// of being re-solved.
    pub fn record_zone_reused(&self) {
        if let Some(mut l) = self.ledger() {
            l.counters.zones_reused += 1;
        }
    }

    /// Counts one answered (intersection, zone) cell; `shared` when its
    /// answer came from an identical subproblem another cell of the run
    /// solved or spliced.
    pub fn record_zone_cell(&self, shared: bool) {
        if let Some(mut l) = self.ledger() {
            l.counters.zone_cells += 1;
            l.counters.zones_shared += u64::from(shared);
        }
    }

    /// Counts one resident zone evicted from the zone store to stay
    /// under the memory budget.
    pub fn record_zone_spill(&self) {
        if let Some(mut l) = self.ledger() {
            l.counters.zones_spilled += 1;
        }
    }

    /// Counts one zone rebuilt after it was spilled.
    pub fn record_zone_recompute(&self) {
        if let Some(mut l) = self.ledger() {
            l.counters.zone_recomputes += 1;
        }
    }

    /// Samples the process RSS and folds it into the peak-RSS gauge.
    /// Called at pipeline checkpoints — characterization, each
    /// interval's completion, validation. No-op when the registry is
    /// disabled or `/proc/self/status` is unavailable.
    pub fn sample_rss(&self) {
        self.sample(false);
    }

    /// Samples the RSS into the end-of-solve gauge (and the peak). The
    /// memory budget governs the solve phase — characterization, zone
    /// residency, interval accumulation; final validation re-evaluates
    /// the whole design and is measured but not budgeted.
    pub fn sample_solve_rss(&self) {
        self.sample(true);
    }

    /// Reads the RSS before taking the lock, then folds it into the
    /// gauges (both keep their maximum).
    fn sample(&self, solve: bool) {
        if !self.is_enabled() {
            return;
        }
        let Some(rss) = current_rss_bytes() else {
            return;
        };
        if let Some(mut l) = self.ledger() {
            let c = &mut l.counters;
            c.peak_rss_bytes = c.peak_rss_bytes.max(rss);
            if solve {
                c.solve_rss_bytes = c.solve_rss_bytes.max(rss);
            }
        }
    }

    /// Records one finished job's end-to-end wall time into the
    /// job-wall-clock histogram (the serve daemon calls this once per
    /// completed solve job).
    pub fn record_job_wall_ns(&self, wall_ns: u64) {
        if let Some(mut l) = self.ledger() {
            l.hists.job_wall_ns.record(wall_ns);
        }
    }

    /// Folds an already-reported set of histograms into this registry —
    /// how the serve daemon aggregates per-job distributions into one
    /// scrapeable process-lifetime view.
    pub fn absorb_histograms(&self, hists: &RunHistograms) {
        if let Some(mut l) = self.ledger() {
            l.hists.merge(hists);
        }
    }

    /// Snapshots the current histograms without assembling a full report
    /// (the Prometheus exposition path).
    #[must_use]
    pub fn histograms(&self) -> Option<RunHistograms> {
        let mut hists = self.ledger()?.hists.clone();
        hists.refresh_quantiles();
        Some(hists)
    }

    /// Assembles the [`RunReport`], or `None` when the registry is
    /// disabled. The caller supplies run-level context the registry
    /// cannot observe itself.
    #[must_use]
    pub fn report(&self, ctx: &ReportContext) -> Option<RunReport> {
        let Ledger {
            mut counters,
            stages,
            zones,
            mut hists,
        } = self.ledger()?.clone();
        counters.budget_units = ctx.budget_units;
        for z in &zones {
            counters.zone_solves += z.solves;
            counters.labels_created += z.labels_created;
            counters.labels_pruned += z.labels_pruned;
            counters.solver_work += z.solver_work;
            counters.pareto_paths += z.pareto_paths;
            counters.exhausted_solves += z.exhausted_solves;
            counters.dominance_checks += z.dominance_checks;
            counters.dominance_skipped += z.dominance_skipped;
        }
        hists.refresh_quantiles();
        Some(RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            threads: ctx.threads,
            counters,
            stages: Stage::ALL
                .iter()
                .zip(stages)
                .filter(|(_, (count, _))| *count > 0)
                .map(|(s, (count, total_ns))| StageTiming {
                    stage: s.name().to_owned(),
                    count,
                    total_ns,
                })
                .collect(),
            zones,
            degenerate_zones: ctx.degenerate_zones,
            ladder_rung: ctx.ladder_rung,
            attribution: None,
            histograms: hists,
        })
    }
}

/// One solver progress snapshot, emitted periodically while a solve
/// runs and once more (with `done = true`) when it finishes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Progress {
    /// Zone × interval subproblems completed so far.
    pub zones_done: u64,
    /// Total subproblems the run will solve.
    pub zones_total: u64,
    /// Current (worst seen) degradation-ladder rung.
    pub rung: u64,
    /// Process RSS at the snapshot, bytes (0 where `/proc` is missing).
    pub rss_bytes: u64,
    /// Wall time since the solve started, milliseconds.
    pub elapsed_ms: u64,
    /// `true` only on the final event the guard emits at drop.
    pub done: bool,
}

struct ProgressInner {
    zones_done: AtomicU64,
    zones_total: AtomicU64,
    rung: AtomicU64,
    interval: Duration,
    sink: Box<dyn Fn(&Progress) + Send + Sync>,
}

impl ProgressInner {
    fn emit(&self, started: Instant, done: bool) {
        let p = Progress {
            zones_done: self.zones_done.load(Ordering::Relaxed),
            zones_total: self.zones_total.load(Ordering::Relaxed),
            rung: self.rung.load(Ordering::Relaxed),
            rss_bytes: current_rss_bytes().unwrap_or(0),
            elapsed_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
            done,
        };
        (self.sink)(&p);
    }
}

/// The solver's progress channel: a clock (ticker thread) driving a
/// caller-supplied sink with [`Progress`] snapshots.
///
/// Shaped exactly like [`MetricsRegistry`] (and carried next to it in
/// [`Instruments`]): an `Option<Arc<_>>`, so a
/// disabled tracker is a `None` and every hook on the solve path is a
/// single branch. The tracker is strictly an observer — it reads its own
/// atomics and the RSS gauge, never solver state — so enabled and
/// disabled runs produce bit-identical outcomes (the
/// `progress_differential` test keeps that honest).
#[derive(Clone, Default)]
pub struct ProgressTracker {
    inner: Option<Arc<ProgressInner>>,
}

impl std::fmt::Debug for ProgressTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressTracker")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl ProgressTracker {
    /// A tracker that emits nothing (also the `Default`).
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A tracker calling `sink` every `interval` while a solve runs
    /// (plus one final `done` event). The sink runs on the ticker
    /// thread, never on a solver worker.
    #[must_use]
    pub fn enabled<F>(interval: Duration, sink: F) -> Self
    where
        F: Fn(&Progress) + Send + Sync + 'static,
    {
        Self {
            inner: Some(Arc::new(ProgressInner {
                zones_done: AtomicU64::new(0),
                zones_total: AtomicU64::new(0),
                rung: AtomicU64::new(0),
                interval,
                sink: Box::new(sink),
            })),
        }
    }

    /// `true` when this tracker emits events.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Counts one completed zone × interval subproblem.
    pub fn zone_done(&self) {
        if let Some(inner) = self.inner.as_ref() {
            inner.zones_done.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the ladder rung the solve currently runs on (`fetch_max`:
    /// the ladder only descends).
    pub fn set_rung(&self, rung: usize) {
        if let Some(inner) = self.inner.as_ref() {
            inner.rung.fetch_max(rung as u64, Ordering::Relaxed);
        }
    }

    /// Starts the ticker for one solve of `zones_total` subproblems; the
    /// returned guard stops it (and emits the final `done` event) on
    /// drop. Each tick also folds a fresh RSS sample into `registry`'s
    /// peak gauge, so transient mid-solve spikes reach `peak_rss_bytes`
    /// instead of only the end-of-phase checkpoints. No-op when the
    /// tracker is disabled.
    #[must_use]
    pub fn begin(&self, zones_total: u64, registry: &MetricsRegistry) -> ProgressGuard {
        let Some(inner) = self.inner.as_ref() else {
            return ProgressGuard { state: None };
        };
        inner.zones_done.store(0, Ordering::Relaxed);
        inner.rung.store(0, Ordering::Relaxed);
        inner.zones_total.store(zones_total, Ordering::Relaxed);
        let started = Instant::now();
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread = {
            let inner = Arc::clone(inner);
            let registry = registry.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (lock, cvar) = &*stop;
                let mut stopped = lock.lock().unwrap_or_else(PoisonError::into_inner);
                while !*stopped {
                    let (guard, timeout) = cvar
                        .wait_timeout(stopped, inner.interval)
                        .unwrap_or_else(PoisonError::into_inner);
                    stopped = guard;
                    if !*stopped && timeout.timed_out() {
                        registry.sample_rss();
                        inner.emit(started, false);
                    }
                }
            })
        };
        ProgressGuard {
            state: Some(ProgressGuardState {
                inner: Arc::clone(inner),
                registry: registry.clone(),
                started,
                stop,
                thread: Some(thread),
            }),
        }
    }
}

struct ProgressGuardState {
    inner: Arc<ProgressInner>,
    registry: MetricsRegistry,
    started: Instant,
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Live guard of one solve's progress ticker; stops the ticker thread
/// and emits the final `done = true` event on drop.
pub struct ProgressGuard {
    state: Option<ProgressGuardState>,
}

impl Drop for ProgressGuard {
    fn drop(&mut self) {
        let Some(mut st) = self.state.take() else {
            return;
        };
        {
            let (lock, cvar) = &*st.stop;
            *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
            cvar.notify_all();
        }
        if let Some(t) = st.thread.take() {
            let _ = t.join();
        }
        st.registry.sample_rss();
        st.inner.emit(st.started, true);
    }
}

/// The run's observability context: the metrics registry, the event
/// journal and the progress tracker, threaded through the pipeline as one
/// value. Cheap to clone. The default is fully disabled — all three are
/// `None` — so every hook site on the solve path costs one branch.
/// Instruments only observe: enabling any of them never changes a result.
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    /// Counters, stage timings and per-zone rows for the run report.
    pub registry: MetricsRegistry,
    /// Stage / zone / solver spans and instants (`--trace-out`).
    pub journal: TraceJournal,
    /// Periodic [`Progress`] snapshots while a solve runs.
    pub progress: ProgressTracker,
    /// Print every finished stage span to stderr (`--trace`).
    pub trace: bool,
}

impl Instruments {
    /// Instruments that record nothing (also the `Default`).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// What a config asks for: a collecting registry iff it sets
    /// [`crate::config::WaveMinConfig::collect_metrics`].
    #[must_use]
    pub fn from_config(config: &crate::config::WaveMinConfig) -> Self {
        if config.collect_metrics {
            Self {
                registry: MetricsRegistry::enabled(),
                ..Self::default()
            }
        } else {
            Self::disabled()
        }
    }

    /// Opens a span of `stage`. The guard reads the clock once now and
    /// once when it drops; from those two readings it adds the span to
    /// the registry's stage cell, records a journal stage span on the
    /// calling thread's track, and prints the `--trace` line.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> StageGuard<'_> {
        StageGuard {
            ins: self,
            stage,
            started: self.clock(),
        }
    }

    /// Reads the clock at the start of a timed region; `None` (no
    /// reading) when nothing records or prints.
    #[must_use]
    pub fn clock(&self) -> Option<Instant> {
        (self.registry.is_enabled() || self.journal.is_enabled() || self.trace).then(Instant::now)
    }

    /// Closes a zone solve opened with [`Self::clock`]: one more reading
    /// gives the duration that becomes both the registry's
    /// [`ZoneSolveRecord::wall_ns`] and the `zone_solve` span on `handle`.
    /// `record` is only called when something records.
    pub fn zone_solved(
        &self,
        started: Option<Instant>,
        handle: &mut TraceHandle,
        zone: usize,
        record: impl FnOnce() -> ZoneSolveRecord,
    ) {
        let Some(started) = started else {
            return;
        };
        let mut record = record();
        record.wall_ns = elapsed_ns(started);
        self.registry.record_zone_solve(zone, &record);
        handle.span_at(
            started,
            record.wall_ns,
            TraceEventKind::ZoneSolve {
                zone,
                stats: record.stats,
                exhausted: record.exhausted,
            },
        );
    }

    /// Records a journal instant on the calling thread's track.
    pub fn instant(&self, kind: TraceEventKind) {
        self.journal.handle().instant(kind);
    }
}

/// Nanoseconds since `started`, saturating.
fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Live guard of an open [`Stage`] span (see [`Instruments::stage`]);
/// records on drop.
pub struct StageGuard<'a> {
    ins: &'a Instruments,
    stage: Stage,
    started: Option<Instant>,
}

impl Drop for StageGuard<'_> {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let ns = elapsed_ns(started);
        self.ins.registry.record_stage(self.stage, ns);
        self.ins
            .journal
            .handle()
            .span_at(started, ns, TraceEventKind::Stage { stage: self.stage });
        if self.ins.trace {
            eprintln!(
                "[trace] span={} elapsed_us={:.1}",
                self.stage.name(),
                ns as f64 / 1e3
            );
        }
    }
}

/// Everything one zone subproblem solve contributes to the registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZoneSolveRecord {
    /// The DP's label/work counters.
    pub stats: SolveStats,
    /// Whether the solve exhausted its resource budget mid-way.
    pub exhausted: bool,
    /// Arcs in the solve's MOSP graph (each references an arena slot).
    pub arena_arcs: u64,
    /// Distinct interned weight vectors in the graph's arena.
    pub arena_unique_weights: u64,
    /// Wall time of the solve, nanoseconds (set from the solve's clock
    /// readings by [`Instruments::zone_solved`]).
    pub wall_ns: u64,
}

impl ZoneSolveRecord {
    /// A single-label (greedy or DP) solve: `rows` labels, one front
    /// entry, `work` candidate evaluations.
    #[must_use]
    pub fn single_label(rows: usize, work: u64) -> Self {
        Self {
            stats: SolveStats {
                labels_created: rows as u64,
                work,
                front_size: 1,
                ..SolveStats::default()
            },
            ..Self::default()
        }
    }
}

/// Run-level context only the driver knows, passed to
/// [`MetricsRegistry::report`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReportContext {
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// Zones whose sampling plan degenerated (see
    /// [`crate::algo::Outcome::degenerate_zones`]).
    pub degenerate_zones: usize,
    /// Final degradation-ladder rung (0 = full fidelity).
    pub ladder_rung: usize,
    /// Work units the shared [`wavemin_mosp::Budget`] charged (0 when the
    /// run was unbudgeted — the budget's fast path skips its atomic; see
    /// [`RunCounters::solver_work`] for the unconditional count).
    pub budget_units: u64,
}

/// One stage's aggregated span timing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct StageTiming {
    /// Stage name ([`Stage::name`]).
    pub stage: String,
    /// Number of spans recorded for the stage.
    pub count: u64,
    /// Total wall time across those spans, nanoseconds.
    pub total_ns: u64,
}

/// The run-wide counter aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RunCounters {
    /// MOSP labels that survived insertion, across all zone solves.
    pub labels_created: u64,
    /// Labels evicted from an active frontier (dominance or cap).
    pub labels_pruned: u64,
    /// Label-insertion attempts (the budget work unit), counted
    /// unconditionally.
    pub solver_work: u64,
    /// Pareto paths returned at the destinations (Σ front sizes).
    pub pareto_paths: u64,
    /// Zone subproblem solves performed; each share-plan group that no
    /// store answers is solved once.
    pub zone_solves: u64,
    /// Zone solves that exhausted their resource budget.
    pub exhausted_solves: u64,
    /// Arcs across all solved MOSP graphs.
    pub arena_arcs: u64,
    /// Distinct interned weight vectors across those graphs.
    pub arena_unique_weights: u64,
    /// Degradation-ladder rung transitions during the run.
    pub rung_transitions: u64,
    /// Work units charged against the shared budget (0 for unbudgeted
    /// runs, whose fast path never touches the atomic).
    pub budget_units: u64,
    /// Pairwise dominance comparisons the frontier actually performed.
    /// Additive schema field — 0 in reports written before it existed.
    #[serde(default)]
    pub dominance_checks: u64,
    /// Dominance comparisons the sorted max-component index proved
    /// unnecessary and skipped. Additive schema field — 0 in older reports.
    #[serde(default)]
    pub dominance_skipped: u64,
    /// Zone-worker faults (panics or poisoned inputs) the containment
    /// layer caught. Additive schema field — defaults to 0 in reports
    /// written before it existed.
    #[serde(default)]
    pub zone_faults: u64,
    /// Faulted zones whose greedy salvage retry succeeded.
    #[serde(default)]
    pub zone_salvages: u64,
    /// Zone results served from a zone store (the checkpoint journal on
    /// `--resume`, or the serve-mode zone cache) instead of being solved.
    #[serde(default)]
    pub zones_reused: u64,
    /// (Intersection, zone) cells answered by an identical subproblem
    /// another cell of the same run solved or spliced (the share plan).
    /// Additive schema field — 0 in reports written before it existed.
    #[serde(default)]
    pub zones_shared: u64,
    /// (Intersection, zone) cells the run answered: solved, spliced from
    /// a store, or shared. Additive schema field — 0 in older reports.
    #[serde(default)]
    pub zone_cells: u64,
    /// Resident zones evicted from the zone store to stay under the
    /// memory budget. Environment-dependent (eviction order follows
    /// worker interleaving) — zeroed by [`RunReport::normalized`].
    #[serde(default)]
    pub zones_spilled: u64,
    /// Zones rebuilt after they were spilled (never more than
    /// `zones_spilled`). Environment-dependent — zeroed by [`RunReport::normalized`].
    #[serde(default)]
    pub zone_recomputes: u64,
    /// Largest process RSS (bytes) sampled at a pipeline checkpoint; 0
    /// when the platform exposes no `/proc/self/status`.
    /// Environment-dependent — zeroed by [`RunReport::normalized`].
    #[serde(default)]
    pub peak_rss_bytes: u64,
    /// RSS (bytes) sampled when the interval solves finished, before
    /// final validation — the phase `--memory-budget-mb` governs.
    /// Environment-dependent — zeroed by [`RunReport::normalized`].
    #[serde(default)]
    pub solve_rss_bytes: u64,
}

/// The process's current resident set size in bytes (the `VmRSS` row of
/// `/proc/self/status`), or `None` where that interface is missing.
#[must_use]
pub fn current_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

impl RunCounters {
    /// Fraction of arc weight lookups served by an already-interned arena
    /// vector: `1 - unique/arcs` (0 when no arcs were built).
    #[must_use]
    pub fn intern_hit_rate(&self) -> f64 {
        if self.arena_arcs == 0 {
            0.0
        } else {
            1.0 - self.arena_unique_weights as f64 / self.arena_arcs as f64
        }
    }
}

/// One zone's aggregated solver metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ZoneMetrics {
    /// Zone id (index into the run's zone partition).
    pub zone: usize,
    /// Subproblem solves recorded against this zone.
    pub solves: u64,
    /// Labels created by this zone's solves.
    pub labels_created: u64,
    /// Labels pruned by this zone's solves.
    pub labels_pruned: u64,
    /// Label-insertion attempts by this zone's solves.
    pub solver_work: u64,
    /// Pareto paths returned by this zone's solves.
    pub pareto_paths: u64,
    /// This zone's solves that exhausted the budget.
    pub exhausted_solves: u64,
    /// Dominance comparisons performed by this zone's solves (0 in reports
    /// written before the field existed).
    #[serde(default)]
    pub dominance_checks: u64,
    /// Dominance comparisons skipped via the sorted-key index (0 in older
    /// reports).
    #[serde(default)]
    pub dominance_skipped: u64,
    /// Total wall time of this zone's solves, nanoseconds.
    pub wall_ns: u64,
    /// Worst (highest-index) degradation-ladder rung any solve of this
    /// zone actually used. A salvaged zone shows the greedy rung here
    /// even when the run-level `ladder_rung` stayed at a better rung.
    #[serde(default)]
    pub worst_rung: u64,
}

/// One occupied histogram bucket (sparse: empty buckets are omitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct HistogramBucket {
    /// Bucket index in the fixed log2 layout ([`bucket_index`]).
    pub index: u32,
    /// Observations that landed in this bucket.
    pub count: u64,
}

/// One serialized log2-bucket histogram with quantile summaries.
///
/// Quantiles are stored as [`bucket_upper_bound`]s — exact integers, so
/// the type stays `Eq` and two runs of the same problem produce equal
/// histograms for the deterministic distributions (labels per zone,
/// front sizes). `count == Σ buckets[].count` by construction and the
/// stored quantiles always equal [`RunHistogram::quantile`] recomputed
/// from the buckets ([`RunReport::validate`] enforces both).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RunHistogram {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Occupied buckets, ascending by index.
    pub buckets: Vec<HistogramBucket>,
    /// Median upper bound (0 when empty).
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
}

impl RunHistogram {
    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        self.record(value);
        self.refresh_quantiles();
    }

    /// Records one value, leaving the stored quantiles stale (the
    /// registry refreshes them once per snapshot).
    fn record(&mut self, value: u64) {
        let index = bucket_index(value) as u32;
        match self.buckets.binary_search_by_key(&index, |b| b.index) {
            Ok(i) => self.buckets[i].count += 1,
            Err(i) => self.buckets.insert(i, HistogramBucket { index, count: 1 }),
        }
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.count += 1;
        self.sum += value;
    }

    /// Merges another histogram in. Associative and commutative up to
    /// bucket resolution — `a.merge(b)` equals `b.merge(a)` exactly.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        for b in &other.buckets {
            match self.buckets.binary_search_by_key(&b.index, |x| x.index) {
                Ok(i) => self.buckets[i].count += b.count,
                Err(i) => self.buckets.insert(i, *b),
            }
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        self.refresh_quantiles();
    }

    /// The upper bound of the bucket holding the `q`-quantile
    /// observation (rank `ceil(q·count)`, clamped to `[1, count]`).
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for b in &self.buckets {
            cumulative = cumulative.saturating_add(b.count);
            if cumulative >= rank {
                return bucket_upper_bound(b.index as usize);
            }
        }
        self.max
    }

    /// Mean observed value (0 for an empty histogram).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn refresh_quantiles(&mut self) {
        self.p50 = self.quantile(0.50);
        self.p90 = self.quantile(0.90);
        self.p99 = self.quantile(0.99);
    }

    fn validate(&self, name: &str) -> Result<(), String> {
        let mut bucket_sum = 0u64;
        let mut last_index: Option<u32> = None;
        for b in &self.buckets {
            if b.index as usize >= HISTOGRAM_BUCKETS {
                return Err(format!(
                    "histogram {name}: bucket index {} out of range",
                    b.index
                ));
            }
            if b.count == 0 {
                return Err(format!(
                    "histogram {name}: empty bucket {} stored (sparse form)",
                    b.index
                ));
            }
            if last_index.is_some_and(|prev| prev >= b.index) {
                return Err(format!(
                    "histogram {name}: bucket indices not strictly ascending at {}",
                    b.index
                ));
            }
            last_index = Some(b.index);
            bucket_sum = bucket_sum.saturating_add(b.count);
        }
        if bucket_sum != self.count {
            return Err(format!(
                "histogram {name}: count {} but buckets sum to {bucket_sum}",
                self.count
            ));
        }
        if self.count == 0 {
            if self.sum != 0 || self.min != 0 || self.max != 0 {
                return Err(format!("histogram {name}: empty but carries values"));
            }
        } else if self.min > self.max {
            return Err(format!(
                "histogram {name}: min {} exceeds max {}",
                self.min, self.max
            ));
        }
        for (label, stored, q) in [
            ("p50", self.p50, 0.50),
            ("p90", self.p90, 0.90),
            ("p99", self.p99, 0.99),
        ] {
            if stored != self.quantile(q) {
                return Err(format!(
                    "histogram {name}: stored {label} {stored} disagrees with buckets"
                ));
            }
        }
        if self.p50 > self.p90 || self.p90 > self.p99 {
            return Err(format!(
                "histogram {name}: quantiles not monotone ({} / {} / {})",
                self.p50, self.p90, self.p99
            ));
        }
        Ok(())
    }
}

/// The report's histogram set. Additive schema-v1 field — reports
/// written before it existed decode to the empty default.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RunHistograms {
    /// Wall time of each zone × interval subproblem solve, nanoseconds.
    /// Environment-dependent — emptied by [`RunReport::normalized`].
    pub zone_solve_ns: RunHistogram,
    /// Labels created per zone solve (deterministic).
    pub labels_per_zone: RunHistogram,
    /// Pareto front size per zone solve (deterministic).
    pub front_size: RunHistogram,
    /// End-to-end wall time per serve-mode job, nanoseconds (empty for
    /// single-run reports). Environment-dependent — emptied by
    /// [`RunReport::normalized`].
    pub job_wall_ns: RunHistogram,
}

impl RunHistograms {
    /// Merges another set in, distribution by distribution.
    pub fn merge(&mut self, other: &Self) {
        self.zone_solve_ns.merge(&other.zone_solve_ns);
        self.labels_per_zone.merge(&other.labels_per_zone);
        self.front_size.merge(&other.front_size);
        self.job_wall_ns.merge(&other.job_wall_ns);
    }

    fn refresh_quantiles(&mut self) {
        self.zone_solve_ns.refresh_quantiles();
        self.labels_per_zone.refresh_quantiles();
        self.front_size.refresh_quantiles();
        self.job_wall_ns.refresh_quantiles();
    }

    /// `true` when no distribution holds any observation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.zone_solve_ns.count == 0
            && self.labels_per_zone.count == 0
            && self.front_size.count == 0
            && self.job_wall_ns.count == 0
    }

    /// The distributions paired with their stable report names.
    #[must_use]
    pub fn named(&self) -> [(&'static str, &RunHistogram); 4] {
        [
            ("zone_solve_ns", &self.zone_solve_ns),
            ("labels_per_zone", &self.labels_per_zone),
            ("front_size", &self.front_size),
            ("job_wall_ns", &self.job_wall_ns),
        ]
    }
}

/// One node's share of the total rail current at the attributed peak
/// instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Contribution {
    /// Node id in the clock tree.
    pub node: usize,
    /// The node's cell name at the attributed assignment.
    pub cell: String,
    /// `"sink"` for leaf buffers/inverters, `"nonleaf"` for the fixed
    /// internal levels.
    pub kind: String,
    /// The node's sampled current at the peak instant, milliamps.
    pub amps_ma: f64,
}

/// The peak-attribution record: the argmax sample of the evaluated total
/// IDD/ISS waveform, decomposed into per-node contributions.
///
/// The decomposition is exact by construction — `peak_ma` is defined as
/// the sum of `contributions[].amps_ma` in stored order, and the vendored
/// JSON writer round-trips `f64` exactly, so re-summing a decoded report
/// reproduces `peak_ma` bit-for-bit ([`RunReport::validate`] enforces a
/// 1e-9 tolerance to stay robust against hand-edited reports).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PeakAttribution {
    /// Power-mode index the peak occurred in.
    pub mode: usize,
    /// The peak rail: `"vdd"` or `"gnd"`.
    pub rail: String,
    /// The clock edge driving the peak: `"rise"` or `"fall"`.
    pub edge: String,
    /// The argmax sample time, picoseconds.
    pub time_ps: f64,
    /// The attributed peak current, milliamps (= Σ contributions).
    pub peak_ma: f64,
    /// Per-node contributions at the peak instant, largest first.
    pub contributions: Vec<Contribution>,
}

impl PeakAttribution {
    /// The contributions' sum in stored order (must equal `peak_ma`).
    #[must_use]
    pub fn contribution_sum(&self) -> f64 {
        self.contributions.iter().map(|c| c.amps_ma).sum()
    }
}

/// The structured, machine-readable account of one optimization run.
///
/// Everything except the wall-time fields (`stages[].total_ns`,
/// `zones[].wall_ns`) and `threads` is identical across worker counts for
/// an unbudgeted run; [`RunReport::normalized`] strips exactly those
/// fields for differential comparisons.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RunReport {
    /// Schema version of this report ([`RunReport::SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Worker threads the run used.
    pub threads: usize,
    /// Run-wide counter aggregates.
    pub counters: RunCounters,
    /// Per-stage span timings (stages with zero spans are omitted).
    pub stages: Vec<StageTiming>,
    /// Per-zone solver metrics.
    pub zones: Vec<ZoneMetrics>,
    /// Zones whose sampling plan degenerated to a dummy time.
    pub degenerate_zones: usize,
    /// Final degradation-ladder rung (0 = full fidelity).
    pub ladder_rung: usize,
    /// Peak attribution of the winning assignment (absent in reports
    /// written before the field existed, and in runs that skipped the
    /// explain pass). Additive schema field — still schema v1.
    #[serde(default)]
    pub attribution: Option<PeakAttribution>,
    /// Latency/size distributions. Additive schema field — reports
    /// written before it existed decode to the empty default.
    #[serde(default)]
    pub histograms: RunHistograms,
}

impl RunReport {
    /// Version stamped into (and required from) serialized reports.
    pub const SCHEMA_VERSION: u32 = 1;

    /// Checks the report's internal consistency: the schema version is
    /// supported and every global counter equals the sum of its per-zone
    /// rows.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != Self::SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {} (expected {})",
                self.schema_version,
                Self::SCHEMA_VERSION
            ));
        }
        let sums: [(&str, u64, u64); 8] = [
            (
                "labels_created",
                self.counters.labels_created,
                self.zones.iter().map(|z| z.labels_created).sum(),
            ),
            (
                "labels_pruned",
                self.counters.labels_pruned,
                self.zones.iter().map(|z| z.labels_pruned).sum(),
            ),
            (
                "solver_work",
                self.counters.solver_work,
                self.zones.iter().map(|z| z.solver_work).sum(),
            ),
            (
                "pareto_paths",
                self.counters.pareto_paths,
                self.zones.iter().map(|z| z.pareto_paths).sum(),
            ),
            (
                "zone_solves",
                self.counters.zone_solves,
                self.zones.iter().map(|z| z.solves).sum(),
            ),
            (
                "exhausted_solves",
                self.counters.exhausted_solves,
                self.zones.iter().map(|z| z.exhausted_solves).sum(),
            ),
            (
                "dominance_checks",
                self.counters.dominance_checks,
                self.zones.iter().map(|z| z.dominance_checks).sum(),
            ),
            (
                "dominance_skipped",
                self.counters.dominance_skipped,
                self.zones.iter().map(|z| z.dominance_skipped).sum(),
            ),
        ];
        for (name, global, zone_sum) in sums {
            if global != zone_sum {
                return Err(format!(
                    "counter {name} = {global} but its per-zone rows sum to {zone_sum}"
                ));
            }
        }
        if self.counters.arena_unique_weights > self.counters.arena_arcs {
            return Err(format!(
                "arena_unique_weights {} exceeds arena_arcs {}",
                self.counters.arena_unique_weights, self.counters.arena_arcs
            ));
        }
        if self.counters.zones_shared > self.counters.zone_cells {
            return Err(format!(
                "zones_shared {} exceeds the {} answered zone cells",
                self.counters.zones_shared, self.counters.zone_cells
            ));
        }
        if self.counters.exhausted_solves > self.counters.zone_solves {
            return Err(format!(
                "exhausted_solves {} exceeds zone_solves {}",
                self.counters.exhausted_solves, self.counters.zone_solves
            ));
        }
        if let Some(attr) = &self.attribution {
            if attr.rail != "vdd" && attr.rail != "gnd" {
                return Err(format!("attribution rail '{}' is not vdd/gnd", attr.rail));
            }
            if attr.edge != "rise" && attr.edge != "fall" {
                return Err(format!("attribution edge '{}' is not rise/fall", attr.edge));
            }
            for c in &attr.contributions {
                if c.kind != "sink" && c.kind != "nonleaf" {
                    return Err(format!(
                        "attribution contribution kind '{}' is not sink/nonleaf",
                        c.kind
                    ));
                }
            }
            let sum = attr.contribution_sum();
            if (sum - attr.peak_ma).abs() > 1e-9 {
                return Err(format!(
                    "attribution contributions sum to {sum} mA but peak_ma is {} (|Δ| > 1e-9)",
                    attr.peak_ma
                ));
            }
        }
        for (name, h) in self.histograms.named() {
            h.validate(name)?;
        }
        let h = &self.histograms;
        // Cross-checks against the counters, guarded on count > 0 so a
        // normalized (emptied) or legacy (absent) histogram still passes.
        if h.zone_solve_ns.count > 0 && h.zone_solve_ns.count != self.counters.zone_solves {
            return Err(format!(
                "zone_solve_ns histogram holds {} samples but zone_solves is {}",
                h.zone_solve_ns.count, self.counters.zone_solves
            ));
        }
        if h.labels_per_zone.count > 0 {
            if h.labels_per_zone.count != self.counters.zone_solves {
                return Err(format!(
                    "labels_per_zone histogram holds {} samples but zone_solves is {}",
                    h.labels_per_zone.count, self.counters.zone_solves
                ));
            }
            if h.labels_per_zone.sum != self.counters.labels_created {
                return Err(format!(
                    "labels_per_zone histogram sums to {} but labels_created is {}",
                    h.labels_per_zone.sum, self.counters.labels_created
                ));
            }
        }
        if h.front_size.count > 0 {
            if h.front_size.count != self.counters.zone_solves {
                return Err(format!(
                    "front_size histogram holds {} samples but zone_solves is {}",
                    h.front_size.count, self.counters.zone_solves
                ));
            }
            if h.front_size.sum != self.counters.pareto_paths {
                return Err(format!(
                    "front_size histogram sums to {} but pareto_paths is {}",
                    h.front_size.sum, self.counters.pareto_paths
                ));
            }
        }
        Ok(())
    }

    /// A copy with every run-environment field zeroed (`threads`, stage
    /// `total_ns`, zone `wall_ns`): two unbudgeted runs of the same
    /// problem must produce equal normalized reports regardless of worker
    /// count.
    #[must_use]
    pub fn normalized(&self) -> Self {
        let mut out = self.clone();
        out.threads = 0;
        // Zone-store traffic and the RSS gauge depend on worker
        // interleaving, the memory budget and the process environment,
        // not on the problem: runs of the same instance under any budget
        // must compare equal once normalized.
        out.counters.zones_spilled = 0;
        out.counters.zone_recomputes = 0;
        out.counters.peak_rss_bytes = 0;
        out.counters.solve_rss_bytes = 0;
        for s in &mut out.stages {
            s.total_ns = 0;
        }
        for z in &mut out.zones {
            z.wall_ns = 0;
        }
        // Wall-clock distributions vary run to run; the label/front-size
        // distributions are deterministic and stay.
        out.histograms.zone_solve_ns = RunHistogram::default();
        out.histograms.job_wall_ns = RunHistogram::default();
        out
    }

    /// Parses a report back from its JSON serialization (the format
    /// `--metrics-out` writes). Unknown and duplicate fields are rejected
    /// so a report that decodes is structurally exactly this schema.
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema problem.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        // The retired kernel-family stamp: accepted and ignored.
        if let serde::Value::Map(entries) = &mut value {
            entries.retain(|(key, _)| key != "kernel");
        }
        serde::from_value(&value).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_record(labels: u64) -> ZoneSolveRecord {
        ZoneSolveRecord {
            stats: SolveStats {
                labels_created: labels,
                labels_pruned: labels / 2,
                work: labels * 3,
                front_size: 2,
                dominance_checks: labels * 4,
                dominance_skipped: labels,
            },
            exhausted: false,
            arena_arcs: 10,
            arena_unique_weights: 4,
            wall_ns: 1_000,
        }
    }

    #[test]
    fn disabled_registry_records_nothing_and_reports_none() {
        let r = MetricsRegistry::disabled();
        assert!(!r.is_enabled());
        r.ensure_zones(4);
        r.record_zone_solve(0, &sample_record(5));
        r.record_rung_transition();
        r.record_stage(Stage::Zoning, 5);
        assert!(r.report(&ReportContext::default()).is_none());
    }

    #[test]
    fn global_counters_equal_zone_sums_by_construction() {
        let r = MetricsRegistry::enabled();
        r.ensure_zones(3);
        r.record_zone_solve(0, &sample_record(5));
        r.record_zone_solve(1, &sample_record(7));
        r.record_zone_solve(1, &sample_record(2));
        let report = r.report(&ReportContext::default()).expect("enabled");
        report.validate().expect("self-consistent");
        assert_eq!(report.counters.labels_created, 14);
        assert_eq!(report.counters.zone_solves, 3);
        assert_eq!(report.zones[1].solves, 2);
        assert_eq!(report.zones[2].solves, 0);
        assert!((report.counters.intern_hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn unsized_zone_table_grows_on_demand() {
        let r = MetricsRegistry::enabled();
        r.record_zone_solve(5, &sample_record(1));
        r.record_zone_rung(8, 3);
        let report = r.report(&ReportContext::default()).expect("enabled");
        assert_eq!(report.zones.len(), 9);
        assert_eq!(report.zones[5].solves, 1);
        assert_eq!(report.zones[8].worst_rung, 3);
        assert_eq!(report.zones[8].solves, 0);
        report.validate().expect("self-consistent");
    }

    #[test]
    fn spans_accumulate_wall_time() {
        let ins = Instruments {
            registry: MetricsRegistry::enabled(),
            ..Instruments::default()
        };
        {
            let _g = ins.stage(Stage::Characterization);
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let _g = ins.stage(Stage::Characterization);
        }
        let report = ins
            .registry
            .report(&ReportContext::default())
            .expect("enabled");
        let t = report
            .stages
            .iter()
            .find(|s| s.stage == "characterization")
            .expect("stage present");
        assert_eq!(t.count, 2);
        assert!(t.total_ns >= 2_000_000, "slept 2 ms, got {} ns", t.total_ns);
        assert!(
            !report.stages.iter().any(|s| s.stage == "monte_carlo"),
            "unused stages are omitted"
        );
    }

    #[test]
    fn aggregation_is_worker_count_independent() {
        // The same 64 distinct records, pushed from 1, 2 and 8 threads,
        // must produce identical reports: counters, zone rows, stage
        // totals and every histogram, the deterministic `labels_per_zone`
        // and `front_size` included.
        let record = |k: u64| ZoneSolveRecord {
            stats: SolveStats {
                labels_created: k * 7 + 1,
                labels_pruned: k % 5,
                work: k * 9 + 2,
                front_size: k % 6 + 1,
                dominance_checks: k * k,
                dominance_skipped: k,
            },
            exhausted: k.is_multiple_of(7),
            arena_arcs: 10 + k,
            arena_unique_weights: 4 + k % 3,
            wall_ns: 1_000 + k * 37,
        };
        let run = |threads: usize| {
            let r = MetricsRegistry::enabled();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let r = r.clone();
                    scope.spawn(move || {
                        let per = 64 / threads;
                        for i in 0..per {
                            let k = (t * per + i) as u64;
                            let zone = (k % 5) as usize;
                            r.record_zone_solve(zone, &record(k));
                            r.record_zone_rung(zone, (k % 3) as usize);
                            r.record_zone_cell(k.is_multiple_of(4));
                        }
                    });
                }
            });
            r.report(&ReportContext::default()).expect("enabled")
        };
        let seq = run(1);
        seq.validate().expect("seq self-consistent");
        assert_eq!(seq.counters.zone_solves, 64);
        assert_eq!(seq.histograms.labels_per_zone.count, 64);
        assert!(seq.histograms.front_size.buckets.len() > 1);
        for threads in [2, 8] {
            let par = run(threads);
            par.validate().expect("par self-consistent");
            assert_eq!(seq.normalized(), par.normalized(), "threads={threads}");
            // The wall times come from the records, not a clock, so even
            // the fields `normalized` strips agree.
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn report_roundtrips_through_json_and_validates() {
        let r = MetricsRegistry::enabled();
        r.ensure_zones(2);
        r.record_zone_solve(0, &sample_record(4));
        r.record_rung_transition();
        let report = r
            .report(&ReportContext {
                threads: 4,
                degenerate_zones: 1,
                ladder_rung: 2,
                budget_units: 99,
            })
            .expect("enabled");
        let json = serde_json::to_string(&report).expect("serialize");
        let back = RunReport::from_json(&json).expect("deserialize");
        assert_eq!(back, report);
        back.validate().expect("valid after roundtrip");
        assert_eq!(back.ladder_rung, 2);
        assert_eq!(back.counters.rung_transitions, 1);
        assert_eq!(back.counters.budget_units, 99);
    }

    #[test]
    fn decode_defaults_fields_older_reports_lack() {
        // A report serialized before the dominance and store fields
        // existed must still decode, with those fields defaulted; one
        // that still carries the retired `kernel` stamp decodes too.
        let r = MetricsRegistry::enabled();
        r.record_zone_solve(0, &sample_record(4));
        let report = r.report(&ReportContext::default()).expect("enabled");
        let json = serde_json::to_string(&report).expect("serialize");
        let legacy = json
            .replace("\"counters\":", "\"kernel\":\"vector\",\"counters\":")
            .replace(",\"dominance_checks\":16,\"dominance_skipped\":4", "")
            .replace(
                ",\"zone_faults\":0,\"zone_salvages\":0,\"zones_reused\":0",
                "",
            )
            .replace(",\"zones_shared\":0,\"zone_cells\":0", "");
        assert_ne!(legacy, json, "fixture must actually strip the fields");
        assert!(legacy.contains("\"kernel\":\"vector\""), "{legacy}");
        let back = RunReport::from_json(&legacy).expect("legacy decodes");
        assert_eq!(back.counters.dominance_checks, 0);
        assert_eq!(back.counters.dominance_skipped, 0);
        assert_eq!(back.counters.zone_faults, 0);
        assert_eq!(back.counters.zones_reused, 0);
        assert_eq!(back.counters.zones_shared, 0);
        assert_eq!(back.counters.zone_cells, 0);
        back.validate().expect("defaults stay self-consistent");
    }

    #[test]
    fn decode_rejects_duplicate_and_unknown_fields() {
        let r = MetricsRegistry::enabled();
        r.record_zone_solve(0, &sample_record(4));
        let json = serde_json::to_string(&r.report(&ReportContext::default()).expect("enabled"))
            .expect("serialize");
        let twice = json.replace("\"zone_solves\":1,", "\"zone_solves\":1,\"zone_solves\":0,");
        assert_ne!(twice, json, "fixture must actually repeat the key");
        let err = RunReport::from_json(&twice).expect_err("duplicate key");
        assert_eq!(err, "counters: duplicate field `zone_solves`");
        let extra = json.replace("\"wall_ns\":", "\"bogus\":1,\"wall_ns\":");
        assert_ne!(extra, json, "fixture must actually add the key");
        let err = RunReport::from_json(&extra).expect_err("unknown key");
        assert_eq!(err, "zones[0]: unknown field `bogus`");
    }

    #[test]
    fn streaming_counters_report_and_normalize_away() {
        let r = MetricsRegistry::enabled();
        r.record_zone_spill();
        r.record_zone_spill();
        r.record_zone_recompute();
        r.sample_rss();
        let report = r.report(&ReportContext::default()).expect("enabled");
        assert_eq!(report.counters.zones_spilled, 2);
        assert_eq!(report.counters.zone_recomputes, 1);
        if current_rss_bytes().is_some() {
            assert!(report.counters.peak_rss_bytes > 0, "gauge took the sample");
        }
        let n = report.normalized();
        assert_eq!(n.counters.zones_spilled, 0);
        assert_eq!(n.counters.zone_recomputes, 0);
        assert_eq!(n.counters.peak_rss_bytes, 0);
        // Round-trip keeps the raw values.
        let json = serde_json::to_string(&report).expect("serialize");
        let back = RunReport::from_json(&json).expect("decode");
        assert_eq!(back.counters.zones_spilled, 2);
        assert_eq!(back.counters.zone_recomputes, 1);
    }

    #[test]
    fn rss_probe_reports_plausible_footprint() {
        // On Linux the probe must see this very test's resident pages.
        if let Some(rss) = current_rss_bytes() {
            assert!(rss > 1 << 20, "a live process holds over a MiB: {rss}");
        }
    }

    fn sample_attribution() -> PeakAttribution {
        PeakAttribution {
            mode: 0,
            rail: "vdd".to_owned(),
            edge: "rise".to_owned(),
            time_ps: 38.5,
            peak_ma: 0.0,
            contributions: vec![
                Contribution {
                    node: 3,
                    cell: "buf_x4".to_owned(),
                    kind: "sink".to_owned(),
                    amps_ma: 7.25,
                },
                Contribution {
                    node: 1,
                    cell: "buf_x8".to_owned(),
                    kind: "nonleaf".to_owned(),
                    amps_ma: 0.1 + 0.2, // deliberately non-representable sum
                },
            ],
        }
    }

    #[test]
    fn attribution_roundtrips_and_validates() {
        let r = MetricsRegistry::enabled();
        r.record_zone_solve(0, &sample_record(4));
        let mut report = r.report(&ReportContext::default()).expect("enabled");
        let mut attr = sample_attribution();
        attr.peak_ma = attr.contribution_sum();
        report.attribution = Some(attr);
        report.validate().expect("sum matches by construction");
        let json = serde_json::to_string(&report).expect("serialize");
        let back = RunReport::from_json(&json).expect("deserialize");
        assert_eq!(back, report);
        // Exact f64 JSON roundtrip: the decoded contributions re-sum
        // bit-identically, so validation still passes post-decode.
        back.validate().expect("valid after roundtrip");
    }

    #[test]
    fn legacy_reports_without_attribution_still_decode() {
        let r = MetricsRegistry::enabled();
        r.record_zone_solve(0, &sample_record(4));
        let report = r.report(&ReportContext::default()).expect("enabled");
        let json = serde_json::to_string(&report).expect("serialize");
        let legacy = json.replace(",\"attribution\":null", "");
        assert_ne!(legacy, json, "fixture must actually strip the field");
        let back = RunReport::from_json(&legacy).expect("legacy decodes");
        assert_eq!(back.attribution, None);
        back.validate().expect("legacy report stays valid");
    }

    #[test]
    fn validate_rejects_attribution_sum_mismatch() {
        let r = MetricsRegistry::enabled();
        r.record_zone_solve(0, &sample_record(4));
        let mut report = r.report(&ReportContext::default()).expect("enabled");
        let mut attr = sample_attribution();
        attr.peak_ma = attr.contribution_sum() + 1e-6;
        report.attribution = Some(attr);
        let err = report.validate().expect_err("sum off by 1e-6");
        assert!(err.contains("attribution"), "{err}");

        let mut bad_rail = sample_attribution();
        bad_rail.peak_ma = bad_rail.contribution_sum();
        bad_rail.rail = "vss".to_owned();
        report = r.report(&ReportContext::default()).expect("enabled");
        report.attribution = Some(bad_rail);
        assert!(report.validate().is_err());
    }

    #[test]
    fn validate_rejects_inconsistent_reports() {
        let r = MetricsRegistry::enabled();
        r.record_zone_solve(0, &sample_record(4));
        let mut report = r.report(&ReportContext::default()).expect("enabled");
        report.counters.labels_created += 1;
        let err = report.validate().expect_err("tampered counter");
        assert!(err.contains("labels_created"), "{err}");
        r.record_zone_cell(false);
        r.record_zone_cell(true);
        let mut over_shared = r.report(&ReportContext::default()).expect("enabled");
        over_shared.validate().expect("one shared cell of two");
        over_shared.counters.zones_shared = 3;
        let err = over_shared
            .validate()
            .expect_err("more shared cells than cells");
        assert!(err.contains("zones_shared"), "{err}");
        let mut wrong_version = r.report(&ReportContext::default()).expect("enabled");
        wrong_version.schema_version = 99;
        assert!(wrong_version.validate().is_err());
    }

    #[test]
    fn bucket_layout_is_exact_at_the_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..=63usize {
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(hi), i, "upper bound stays in its bucket");
            assert_eq!(bucket_index(hi + 1), i + 1, "next value moves up");
            assert_eq!(hi, (1u64 << i) - 1);
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histograms_record_merge_and_quantile() {
        let mut h = RunHistogram::default();
        for v in [0u64, 1, 1, 7, 100, 100_000] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 100_109);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100_000);
        h.validate("test").expect("self-consistent");
        // Rank 3 of 6 at q=0.5 is the second `1` → bucket 1's bound.
        assert_eq!(h.p50, 1);
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99);
        assert_eq!(h.quantile(1.0), bucket_upper_bound(bucket_index(100_000)));

        let mut other = RunHistogram::default();
        other.observe(3);
        other.observe(1 << 40);
        let mut ab = h.clone();
        ab.merge(&other);
        let mut ba = other.clone();
        ba.merge(&h);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.count, 8);
        assert_eq!(ab.max, 1 << 40);
        ab.validate("merged").expect("merged stays consistent");
    }

    #[test]
    fn empty_histogram_merges_as_identity() {
        let mut h = RunHistogram::default();
        h.observe(42);
        let snapshot = h.clone();
        h.merge(&RunHistogram::default());
        assert_eq!(h, snapshot);
        let mut empty = RunHistogram::default();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
        assert_eq!(RunHistogram::default().quantile(0.5), 0);
        RunHistogram::default().validate("empty").expect("valid");
    }

    #[test]
    fn zone_solves_fill_the_report_histograms() {
        let r = MetricsRegistry::enabled();
        r.ensure_zones(2);
        r.record_zone_solve(0, &sample_record(5));
        r.record_zone_solve(1, &sample_record(9));
        let report = r.report(&ReportContext::default()).expect("enabled");
        report.validate().expect("cross-checks hold");
        let h = &report.histograms;
        assert_eq!(h.zone_solve_ns.count, 2);
        assert_eq!(h.zone_solve_ns.sum, 2_000);
        assert_eq!(h.labels_per_zone.count, 2);
        assert_eq!(h.labels_per_zone.sum, 14);
        assert_eq!(h.front_size.sum, 4);
        assert_eq!(h.job_wall_ns.count, 0, "single runs record no jobs");
        assert!(!h.is_empty());
    }

    #[test]
    fn histograms_roundtrip_and_validate_rejects_tampering() {
        let r = MetricsRegistry::enabled();
        r.record_zone_solve(0, &sample_record(5));
        r.record_job_wall_ns(1_234_567);
        let report = r.report(&ReportContext::default()).expect("enabled");
        let json = serde_json::to_string(&report).expect("serialize");
        let back = RunReport::from_json(&json).expect("decode");
        assert_eq!(back, report);
        back.validate().expect("valid after roundtrip");
        assert_eq!(back.histograms.job_wall_ns.count, 1);

        let mut tampered = report.clone();
        tampered.histograms.labels_per_zone.sum += 1;
        assert!(tampered.validate().is_err(), "sum cross-check trips");
        let mut wrong_q = report;
        wrong_q.histograms.zone_solve_ns.p50 += 1;
        assert!(wrong_q.validate().is_err(), "quantile check trips");
    }

    #[test]
    fn legacy_reports_without_histograms_still_decode() {
        let r = MetricsRegistry::enabled();
        r.record_zone_solve(0, &sample_record(4));
        let report = r.report(&ReportContext::default()).expect("enabled");
        let json = serde_json::to_string(&report).expect("serialize");
        let start = json.find(",\"histograms\":").expect("field present");
        let mut legacy = json[..start].to_owned();
        legacy.push('}');
        assert_ne!(legacy, json, "fixture must actually strip the field");
        let back = RunReport::from_json(&legacy).expect("legacy decodes");
        assert!(back.histograms.is_empty());
        back.validate().expect("legacy report stays valid");
    }

    #[test]
    fn daemon_absorbs_job_histograms() {
        let job = {
            let r = MetricsRegistry::enabled();
            r.record_zone_solve(0, &sample_record(5));
            r.report(&ReportContext::default()).expect("enabled")
        };
        let daemon = MetricsRegistry::enabled();
        daemon.absorb_histograms(&job.histograms);
        daemon.absorb_histograms(&job.histograms);
        daemon.record_job_wall_ns(10);
        let h = daemon.histograms().expect("enabled");
        assert_eq!(h.zone_solve_ns.count, 2);
        assert_eq!(h.labels_per_zone.sum, 10);
        assert_eq!(h.job_wall_ns.count, 1);
        h.zone_solve_ns.validate("absorbed").expect("consistent");
    }

    #[test]
    fn normalization_empties_wall_clock_histograms_only() {
        let r = MetricsRegistry::enabled();
        r.record_zone_solve(0, &sample_record(5));
        r.record_job_wall_ns(99);
        let report = r.report(&ReportContext::default()).expect("enabled");
        let n = report.normalized();
        assert_eq!(n.histograms.zone_solve_ns, RunHistogram::default());
        assert_eq!(n.histograms.job_wall_ns, RunHistogram::default());
        assert_eq!(
            n.histograms.labels_per_zone,
            report.histograms.labels_per_zone
        );
        assert_eq!(n.histograms.front_size, report.histograms.front_size);
        n.validate().expect("normalized report stays valid");
    }

    #[test]
    fn progress_ticker_emits_and_finishes() {
        let events: Arc<Mutex<Vec<Progress>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_events = Arc::clone(&events);
        let tracker = ProgressTracker::enabled(Duration::from_millis(5), move |p| {
            sink_events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(p.clone());
        });
        let registry = MetricsRegistry::enabled();
        {
            let _guard = tracker.begin(4, &registry);
            tracker.zone_done();
            tracker.zone_done();
            tracker.set_rung(2);
            tracker.set_rung(1);
            std::thread::sleep(Duration::from_millis(25));
        }
        let events = events.lock().unwrap_or_else(PoisonError::into_inner);
        let last = events.last().expect("final event always emitted");
        assert!(last.done);
        assert_eq!(last.zones_done, 2);
        assert_eq!(last.zones_total, 4);
        assert_eq!(last.rung, 2, "rung keeps the max");
        assert!(
            events.iter().filter(|p| !p.done).count() >= 1,
            "the ticker fired at least once in 25 ms: {events:?}"
        );
        if current_rss_bytes().is_some() {
            let report = registry.report(&ReportContext::default()).expect("enabled");
            assert!(report.counters.peak_rss_bytes > 0, "ticks sample RSS");
            assert!(last.rss_bytes > 0);
        }
    }

    #[test]
    fn disabled_progress_tracker_is_inert() {
        let tracker = ProgressTracker::disabled();
        assert!(!tracker.is_enabled());
        let guard = tracker.begin(10, &MetricsRegistry::disabled());
        tracker.zone_done();
        tracker.set_rung(3);
        drop(guard);
        // Restarting resets the counters for the next solve.
        let events: Arc<Mutex<Vec<Progress>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_events = Arc::clone(&events);
        let t = ProgressTracker::enabled(Duration::from_secs(3600), move |p| {
            sink_events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(p.clone());
        });
        let r = MetricsRegistry::disabled();
        {
            let _g = t.begin(2, &r);
            t.zone_done();
        }
        {
            let _g = t.begin(7, &r);
        }
        let events = events.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(events.len(), 2, "one final event per solve");
        assert_eq!(events[0].zones_done, 1);
        assert_eq!(events[1].zones_done, 0, "begin resets the counter");
        assert_eq!(events[1].zones_total, 7);
    }

    #[test]
    fn normalization_strips_timing_but_keeps_counters() {
        let r = MetricsRegistry::enabled();
        r.record_zone_solve(0, &sample_record(4));
        let report = r
            .report(&ReportContext {
                threads: 8,
                ..ReportContext::default()
            })
            .expect("enabled");
        let n = report.normalized();
        assert_eq!(n.threads, 0);
        assert!(n.zones.iter().all(|z| z.wall_ns == 0));
        assert_eq!(n.counters, report.counters);
    }
}
