//! Observability: pipeline stage spans, a lock-free solver metrics
//! registry, and the machine-readable [`RunReport`].
//!
//! [`Instruments`] carries the registry, the event journal and the
//! progress tracker through the pipeline as one value; its stage guard
//! times each stage from one pair of clock readings for all of them.
//!
//! The registry is an `Option<Arc<_>>`: a disabled registry carries no
//! allocation and every recording call is a single branch on `None`, so
//! the instrumented hot paths cost nothing when metrics are off (the
//! `metrics_overhead` criterion group in `wavemin-bench` keeps that
//! honest). When enabled, all counters are relaxed [`AtomicU64`]s —
//! recording from the `parallel::map_ordered` workers never locks, and
//! because every counter is a commutative sum, the aggregates are
//! identical for any worker count on an unbudgeted run.
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
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};
use wavemin_mosp::SolveStats;

use crate::trace::{TraceEventKind, TraceHandle, TraceJournal};

/// The instrumented pipeline stages, in report order (a stage's
/// discriminant indexes the registry's stage cells).
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

/// Per-stage span accumulator: entry count and total wall time.
#[derive(Default)]
struct StageCell {
    count: AtomicU64,
    total_ns: AtomicU64,
}

/// Global run counters (relaxed atomics; every one is a commutative sum).
#[derive(Default)]
struct Counters {
    labels_created: AtomicU64,
    labels_pruned: AtomicU64,
    solver_work: AtomicU64,
    pareto_paths: AtomicU64,
    zone_solves: AtomicU64,
    exhausted_solves: AtomicU64,
    arena_arcs: AtomicU64,
    arena_unique_weights: AtomicU64,
    rung_transitions: AtomicU64,
    dominance_checks: AtomicU64,
    dominance_skipped: AtomicU64,
    zone_faults: AtomicU64,
    zone_salvages: AtomicU64,
    zones_reused: AtomicU64,
    zones_shared: AtomicU64,
    zone_cells: AtomicU64,
    zones_spilled: AtomicU64,
    zone_recomputes: AtomicU64,
    /// Gauge, not a sum: the largest VmRSS sampled at a pipeline
    /// checkpoint (`fetch_max`).
    peak_rss_bytes: AtomicU64,
    /// Gauge: the RSS sampled when the interval solves finished, before
    /// final validation (the phase the memory budget governs).
    solve_rss_bytes: AtomicU64,
}

/// Per-zone counters, same units as the matching [`Counters`] fields.
#[derive(Default)]
struct ZoneCell {
    solves: AtomicU64,
    labels_created: AtomicU64,
    labels_pruned: AtomicU64,
    solver_work: AtomicU64,
    pareto_paths: AtomicU64,
    exhausted_solves: AtomicU64,
    dominance_checks: AtomicU64,
    dominance_skipped: AtomicU64,
    wall_ns: AtomicU64,
    /// Worst (highest-index) degradation-ladder rung any solve of this
    /// zone actually ran on, via `fetch_max`. Distinguishes a salvaged
    /// zone's forced greedy rung from the global ladder position.
    worst_rung: AtomicU64,
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

/// One live log2-bucket histogram (relaxed atomics, like [`Counters`]).
/// Bucket increments and the count/sum/min/max are each commutative, so
/// the aggregate is worker-count independent like every other counter.
struct HistCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first observation (`fetch_min`).
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCell {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistCell {
    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Folds an already-snapshotted histogram in (daemon-level
    /// aggregation across jobs).
    fn absorb(&self, h: &RunHistogram) {
        if h.count == 0 {
            return;
        }
        for b in &h.buckets {
            let i = (b.index as usize).min(HISTOGRAM_BUCKETS - 1);
            self.buckets[i].fetch_add(b.count, Ordering::Relaxed);
        }
        self.count.fetch_add(h.count, Ordering::Relaxed);
        self.sum.fetch_add(h.sum, Ordering::Relaxed);
        self.min.fetch_min(h.min, Ordering::Relaxed);
        self.max.fetch_max(h.max, Ordering::Relaxed);
    }

    fn snapshot(&self) -> RunHistogram {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let count = load(&self.count);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = load(b);
                (c > 0).then_some(HistogramBucket {
                    index: i as u32,
                    count: c,
                })
            })
            .collect();
        let mut h = RunHistogram {
            count,
            sum: load(&self.sum),
            min: if count == 0 { 0 } else { load(&self.min) },
            max: load(&self.max),
            buckets,
            p50: 0,
            p90: 0,
            p99: 0,
        };
        h.refresh_quantiles();
        h
    }
}

/// The registry's live histograms (one [`HistCell`] per distribution).
#[derive(Default)]
struct Hists {
    zone_solve_ns: HistCell,
    labels_per_zone: HistCell,
    front_size: HistCell,
    job_wall_ns: HistCell,
}

impl Hists {
    fn snapshot(&self) -> RunHistograms {
        RunHistograms {
            zone_solve_ns: self.zone_solve_ns.snapshot(),
            labels_per_zone: self.labels_per_zone.snapshot(),
            front_size: self.front_size.snapshot(),
            job_wall_ns: self.job_wall_ns.snapshot(),
        }
    }
}

struct Inner {
    counters: Counters,
    stages: [StageCell; Stage::COUNT],
    hists: Hists,
    /// Indexed by [`crate::algo::ZoneProblem`] id. Behind an `RwLock` only
    /// for growth ([`MetricsRegistry::ensure_zones`]); recording takes the
    /// read lock and bumps atomics, so concurrent workers never contend on
    /// anything but the cells themselves.
    zones: RwLock<Vec<ZoneCell>>,
}

/// The run-wide metrics sink threaded through the optimization pipeline
/// (inside [`Instruments`]).
///
/// Cheap to clone (it is an `Option<Arc<_>>`); a disabled registry is a
/// `None` and every method short-circuits on the first branch.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Inner>>,
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
            inner: Some(Arc::new(Inner {
                counters: Counters::default(),
                stages: Default::default(),
                hists: Hists::default(),
                zones: RwLock::new(Vec::new()),
            })),
        }
    }

    /// `true` when this registry records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds one finished span of `stage` lasting `elapsed_ns` (see
    /// [`Instruments::stage`], the only caller outside tests).
    fn record_stage(&self, stage: Stage, elapsed_ns: u64) {
        if let Some(inner) = self.inner.as_ref() {
            let cell = &inner.stages[stage as usize];
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        }
    }

    /// Pre-sizes the per-zone table so worker threads only ever take the
    /// read lock. Growth is monotonic — multi-mode margin retries re-use
    /// the ids of earlier builds and keep accumulating into them.
    pub fn ensure_zones(&self, zones: usize) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let mut table = inner.zones.write().unwrap_or_else(PoisonError::into_inner);
        if table.len() < zones {
            table.resize_with(zones, ZoneCell::default);
        }
    }

    /// Applies `update` to `zone`'s row under the read lock. A zone id
    /// past the table means [`Self::ensure_zones`] was not called first:
    /// the table grows rather than silently dropping the row.
    fn with_zone_cell(&self, zone: usize, update: impl FnOnce(&ZoneCell)) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let table = inner.zones.read().unwrap_or_else(PoisonError::into_inner);
        match table.get(zone) {
            Some(cell) => update(cell),
            None => {
                drop(table);
                self.ensure_zones(zone + 1);
                self.with_zone_cell(zone, update);
            }
        }
    }

    /// Records one finished zone subproblem solve: the DP's label/work
    /// counters, the graph's arena interning footprint, whether the solve
    /// exhausted its budget, and its wall time. Updates the global and the
    /// per-zone counters from the same numbers, so `global == Σ zones`
    /// holds by construction.
    pub fn record_zone_solve(&self, zone: usize, solve: &ZoneSolveRecord) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let c = &inner.counters;
        c.labels_created
            .fetch_add(solve.stats.labels_created, Ordering::Relaxed);
        c.labels_pruned
            .fetch_add(solve.stats.labels_pruned, Ordering::Relaxed);
        c.solver_work.fetch_add(solve.stats.work, Ordering::Relaxed);
        c.pareto_paths
            .fetch_add(solve.stats.front_size, Ordering::Relaxed);
        c.zone_solves.fetch_add(1, Ordering::Relaxed);
        c.exhausted_solves
            .fetch_add(u64::from(solve.exhausted), Ordering::Relaxed);
        c.arena_arcs.fetch_add(solve.arena_arcs, Ordering::Relaxed);
        c.arena_unique_weights
            .fetch_add(solve.arena_unique_weights, Ordering::Relaxed);
        c.dominance_checks
            .fetch_add(solve.stats.dominance_checks, Ordering::Relaxed);
        c.dominance_skipped
            .fetch_add(solve.stats.dominance_skipped, Ordering::Relaxed);
        self.record_stage(Stage::ZoneSolve, solve.wall_ns);

        inner.hists.zone_solve_ns.record(solve.wall_ns);
        inner
            .hists
            .labels_per_zone
            .record(solve.stats.labels_created);
        inner.hists.front_size.record(solve.stats.front_size);

        self.with_zone_cell(zone, |cell| {
            cell.solves.fetch_add(1, Ordering::Relaxed);
            cell.labels_created
                .fetch_add(solve.stats.labels_created, Ordering::Relaxed);
            cell.labels_pruned
                .fetch_add(solve.stats.labels_pruned, Ordering::Relaxed);
            cell.solver_work
                .fetch_add(solve.stats.work, Ordering::Relaxed);
            cell.pareto_paths
                .fetch_add(solve.stats.front_size, Ordering::Relaxed);
            cell.exhausted_solves
                .fetch_add(u64::from(solve.exhausted), Ordering::Relaxed);
            cell.dominance_checks
                .fetch_add(solve.stats.dominance_checks, Ordering::Relaxed);
            cell.dominance_skipped
                .fetch_add(solve.stats.dominance_skipped, Ordering::Relaxed);
            cell.wall_ns.fetch_add(solve.wall_ns, Ordering::Relaxed);
        });
    }

    /// Records the ladder rung one solve of `zone` actually used; the
    /// zone's row keeps the worst (highest) rung seen. A salvaged zone is
    /// recorded on the greedy rung even while the global ladder sits on a
    /// better one — the per-zone row is where that asymmetry is visible.
    pub fn record_zone_rung(&self, zone: usize, rung: usize) {
        self.with_zone_cell(zone, |cell| {
            cell.worst_rung.fetch_max(rung as u64, Ordering::Relaxed);
        });
    }

    /// Counts one degradation-ladder rung transition.
    pub fn record_rung_transition(&self) {
        if let Some(inner) = self.inner.as_ref() {
            inner
                .counters
                .rung_transitions
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one contained zone-worker fault (panic or poisoned input).
    pub fn record_zone_fault(&self) {
        if let Some(inner) = self.inner.as_ref() {
            inner.counters.zone_faults.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one successful salvage retry of a faulted zone.
    pub fn record_zone_salvage(&self) {
        if let Some(inner) = self.inner.as_ref() {
            inner.counters.zone_salvages.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one zone result served from the checkpoint journal instead
    /// of being re-solved.
    pub fn record_zone_reused(&self) {
        if let Some(inner) = self.inner.as_ref() {
            inner.counters.zones_reused.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one answered (intersection, zone) cell; `shared` when its
    /// answer came from an identical subproblem another cell of the run
    /// solved or spliced.
    pub fn record_zone_cell(&self, shared: bool) {
        if let Some(inner) = self.inner.as_ref() {
            inner.counters.zone_cells.fetch_add(1, Ordering::Relaxed);
            if shared {
                inner.counters.zones_shared.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Counts one resident zone evicted from the zone store to stay
    /// under the memory budget.
    pub fn record_zone_spill(&self) {
        if let Some(inner) = self.inner.as_ref() {
            inner.counters.zones_spilled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one zone rebuilt after it was spilled.
    pub fn record_zone_recompute(&self) {
        if let Some(inner) = self.inner.as_ref() {
            inner
                .counters
                .zone_recomputes
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Samples the process RSS and folds it into the peak-RSS gauge
    /// (`fetch_max`). Called at pipeline checkpoints — characterization,
    /// each interval's completion, validation. No-op when the registry
    /// is disabled or `/proc/self/status` is unavailable.
    pub fn sample_rss(&self) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        if let Some(rss) = current_rss_bytes() {
            inner
                .counters
                .peak_rss_bytes
                .fetch_max(rss, Ordering::Relaxed);
        }
    }

    /// Samples the RSS into the end-of-solve gauge (and the peak). The
    /// memory budget governs the solve phase — characterization, zone
    /// residency, interval accumulation; final validation re-evaluates
    /// the whole design and is measured but not budgeted.
    pub fn sample_solve_rss(&self) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        if let Some(rss) = current_rss_bytes() {
            inner
                .counters
                .peak_rss_bytes
                .fetch_max(rss, Ordering::Relaxed);
            inner
                .counters
                .solve_rss_bytes
                .fetch_max(rss, Ordering::Relaxed);
        }
    }

    /// Records one finished job's end-to-end wall time into the
    /// job-wall-clock histogram (the serve daemon calls this once per
    /// completed solve job).
    pub fn record_job_wall_ns(&self, wall_ns: u64) {
        if let Some(inner) = self.inner.as_ref() {
            inner.hists.job_wall_ns.record(wall_ns);
        }
    }

    /// Folds an already-reported set of histograms into this registry —
    /// how the serve daemon aggregates per-job distributions into one
    /// scrapeable process-lifetime view.
    pub fn absorb_histograms(&self, hists: &RunHistograms) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        inner.hists.zone_solve_ns.absorb(&hists.zone_solve_ns);
        inner.hists.labels_per_zone.absorb(&hists.labels_per_zone);
        inner.hists.front_size.absorb(&hists.front_size);
        inner.hists.job_wall_ns.absorb(&hists.job_wall_ns);
    }

    /// Snapshots the current histograms without assembling a full report
    /// (the Prometheus exposition path).
    #[must_use]
    pub fn histograms(&self) -> Option<RunHistograms> {
        self.inner.as_ref().map(|inner| inner.hists.snapshot())
    }

    /// Assembles the [`RunReport`], or `None` when the registry is
    /// disabled. The caller supplies run-level context the registry
    /// cannot observe itself.
    #[must_use]
    pub fn report(&self, ctx: &ReportContext) -> Option<RunReport> {
        let inner = self.inner.as_ref()?;
        let c = &inner.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let stages = Stage::ALL
            .iter()
            .map(|&s| {
                let cell = &inner.stages[s as usize];
                StageTiming {
                    stage: s.name().to_owned(),
                    count: load(&cell.count),
                    total_ns: load(&cell.total_ns),
                }
            })
            .filter(|t| t.count > 0)
            .collect();
        let zones = {
            let table = inner.zones.read().unwrap_or_else(PoisonError::into_inner);
            table
                .iter()
                .enumerate()
                .map(|(id, cell)| ZoneMetrics {
                    zone: id,
                    solves: load(&cell.solves),
                    labels_created: load(&cell.labels_created),
                    labels_pruned: load(&cell.labels_pruned),
                    solver_work: load(&cell.solver_work),
                    pareto_paths: load(&cell.pareto_paths),
                    exhausted_solves: load(&cell.exhausted_solves),
                    dominance_checks: load(&cell.dominance_checks),
                    dominance_skipped: load(&cell.dominance_skipped),
                    wall_ns: load(&cell.wall_ns),
                    worst_rung: load(&cell.worst_rung),
                })
                .collect()
        };
        Some(RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            threads: ctx.threads,
            kernel: ctx.kernel.to_owned(),
            counters: RunCounters {
                labels_created: load(&c.labels_created),
                labels_pruned: load(&c.labels_pruned),
                solver_work: load(&c.solver_work),
                pareto_paths: load(&c.pareto_paths),
                zone_solves: load(&c.zone_solves),
                exhausted_solves: load(&c.exhausted_solves),
                arena_arcs: load(&c.arena_arcs),
                arena_unique_weights: load(&c.arena_unique_weights),
                rung_transitions: load(&c.rung_transitions),
                budget_units: ctx.budget_units,
                dominance_checks: load(&c.dominance_checks),
                dominance_skipped: load(&c.dominance_skipped),
                zone_faults: load(&c.zone_faults),
                zone_salvages: load(&c.zone_salvages),
                zones_reused: load(&c.zones_reused),
                zones_shared: load(&c.zones_shared),
                zone_cells: load(&c.zone_cells),
                zones_spilled: load(&c.zones_spilled),
                zone_recomputes: load(&c.zone_recomputes),
                peak_rss_bytes: load(&c.peak_rss_bytes),
                solve_rss_bytes: load(&c.solve_rss_bytes),
            },
            stages,
            zones,
            degenerate_zones: ctx.degenerate_zones,
            ladder_rung: ctx.ladder_rung,
            attribution: None,
            histograms: inner.hists.snapshot(),
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
    /// [`crate::config::WaveMinConfig::collect_metrics`] or
    /// [`crate::config::WaveMinConfig::trace_spans`], the latter also
    /// printing each finished stage span to stderr.
    #[must_use]
    pub fn from_config(config: &crate::config::WaveMinConfig) -> Self {
        if config.collect_metrics || config.trace_spans {
            Self {
                registry: MetricsRegistry::enabled(),
                trace: config.trace_spans,
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
    /// Name of the numeric kernel family the run dispatched to
    /// ([`wavemin_mosp::kernels::active`]`().name()`; empty when unknown).
    pub kernel: &'static str,
}

/// One stage's aggregated span timing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name ([`Stage::name`]).
    pub stage: String,
    /// Number of spans recorded for the stage.
    pub count: u64,
    /// Total wall time across those spans, nanoseconds.
    pub total_ns: u64,
}

/// The run-wide counter aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    pub dominance_checks: u64,
    /// Dominance comparisons the sorted max-component index proved
    /// unnecessary and skipped.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Dominance comparisons performed by this zone's solves.
    pub dominance_checks: u64,
    /// Dominance comparisons skipped via the sorted-key index.
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
    /// Records one value (the non-atomic mirror of the registry's live
    /// cell, for merging and tests).
    pub fn observe(&mut self, value: u64) {
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
        self.refresh_quantiles();
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
pub struct RunReport {
    /// Schema version of this report ([`RunReport::SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Worker threads the run used.
    pub threads: usize,
    /// Numeric kernel family the run dispatched to ("vector"/"scalar";
    /// empty in reports written before the field existed). Stripped by
    /// [`RunReport::normalized`] — both families are bit-identical, so
    /// normalized reports must compare equal across them.
    #[serde(default)]
    pub kernel: String,
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

    /// A copy with every run-environment field zeroed (`threads`, the
    /// `kernel` name, stage `total_ns`, zone `wall_ns`): two unbudgeted
    /// runs of the same problem must produce equal normalized reports
    /// regardless of worker count or kernel family.
    #[must_use]
    pub fn normalized(&self) -> Self {
        let mut out = self.clone();
        out.threads = 0;
        out.kernel = String::new();
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
    /// `--metrics-out` writes). Unknown fields are rejected so a report
    /// that decodes is structurally exactly this schema.
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema problem.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        decode::report(&value)
    }
}

/// Hand-rolled decoding of the report's JSON [`serde::Value`] tree — the
/// vendored serde stack has no typed deserializer.
mod decode {
    use super::{
        Contribution, HistogramBucket, PeakAttribution, RunCounters, RunHistogram, RunHistograms,
        RunReport, StageTiming, ZoneMetrics,
    };
    use serde::Value;

    fn fields<'a>(
        v: &'a Value,
        expected: &'static [&'static str],
        what: &str,
    ) -> Result<&'a [(String, Value)], String> {
        let Value::Map(entries) = v else {
            return Err(format!("{what}: expected a JSON object"));
        };
        for (k, _) in entries {
            if !expected.contains(&k.as_str()) {
                return Err(format!("{what}: unknown field '{k}'"));
            }
        }
        Ok(entries)
    }

    fn get<'a>(entries: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    fn u64_field(entries: &[(String, Value)], key: &str) -> Result<u64, String> {
        match get(entries, key)? {
            Value::UInt(u) => Ok(*u),
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            other => Err(format!(
                "field '{key}': expected an unsigned integer, got {other:?}"
            )),
        }
    }

    /// Like [`u64_field`] but defaults to 0 when the field is absent —
    /// for additive schema fields that older reports predate.
    fn opt_u64_field(entries: &[(String, Value)], key: &str) -> Result<u64, String> {
        if entries.iter().any(|(k, _)| k == key) {
            u64_field(entries, key)
        } else {
            Ok(0)
        }
    }

    /// Like [`str_field`] but defaults to "" when the field is absent.
    fn opt_str_field(entries: &[(String, Value)], key: &str) -> Result<String, String> {
        if entries.iter().any(|(k, _)| k == key) {
            str_field(entries, key)
        } else {
            Ok(String::new())
        }
    }

    fn usize_field(entries: &[(String, Value)], key: &str) -> Result<usize, String> {
        usize::try_from(u64_field(entries, key)?)
            .map_err(|_| format!("field '{key}': value does not fit usize"))
    }

    fn str_field(entries: &[(String, Value)], key: &str) -> Result<String, String> {
        match get(entries, key)? {
            Value::Str(s) => Ok(s.clone()),
            other => Err(format!("field '{key}': expected a string, got {other:?}")),
        }
    }

    fn seq_field<'a>(entries: &'a [(String, Value)], key: &str) -> Result<&'a [Value], String> {
        match get(entries, key)? {
            Value::Seq(items) => Ok(items),
            other => Err(format!("field '{key}': expected an array, got {other:?}")),
        }
    }

    fn f64_field(entries: &[(String, Value)], key: &str) -> Result<f64, String> {
        match get(entries, key)? {
            Value::Float(f) => Ok(*f),
            Value::UInt(u) => Ok(*u as f64),
            Value::Int(i) => Ok(*i as f64),
            other => Err(format!("field '{key}': expected a number, got {other:?}")),
        }
    }

    pub(super) fn report(v: &Value) -> Result<RunReport, String> {
        let entries = fields(
            v,
            &[
                "schema_version",
                "threads",
                "kernel",
                "counters",
                "stages",
                "zones",
                "degenerate_zones",
                "ladder_rung",
                "attribution",
                "histograms",
            ],
            "report",
        )?;
        let schema_version = u64_field(entries, "schema_version")?;
        let schema_version = u32::try_from(schema_version)
            .map_err(|_| format!("schema_version {schema_version} does not fit u32"))?;
        Ok(RunReport {
            schema_version,
            threads: usize_field(entries, "threads")?,
            kernel: opt_str_field(entries, "kernel")?,
            counters: counters(get(entries, "counters")?)?,
            stages: seq_field(entries, "stages")?
                .iter()
                .map(stage_timing)
                .collect::<Result<_, _>>()?,
            zones: seq_field(entries, "zones")?
                .iter()
                .map(zone_metrics)
                .collect::<Result<_, _>>()?,
            degenerate_zones: usize_field(entries, "degenerate_zones")?,
            ladder_rung: usize_field(entries, "ladder_rung")?,
            attribution: attribution(entries)?,
            histograms: histograms(entries)?,
        })
    }

    /// Additive v1 field: absent (legacy reports) decodes to the empty
    /// default, mirroring [`attribution`].
    fn histograms(entries: &[(String, Value)]) -> Result<RunHistograms, String> {
        let Some((_, v)) = entries.iter().find(|(k, _)| k == "histograms") else {
            return Ok(RunHistograms::default());
        };
        let entries = fields(
            v,
            &[
                "zone_solve_ns",
                "labels_per_zone",
                "front_size",
                "job_wall_ns",
            ],
            "histograms",
        )?;
        Ok(RunHistograms {
            zone_solve_ns: histogram(get(entries, "zone_solve_ns")?)?,
            labels_per_zone: histogram(get(entries, "labels_per_zone")?)?,
            front_size: histogram(get(entries, "front_size")?)?,
            job_wall_ns: histogram(get(entries, "job_wall_ns")?)?,
        })
    }

    fn histogram(v: &Value) -> Result<RunHistogram, String> {
        let entries = fields(
            v,
            &["count", "sum", "min", "max", "buckets", "p50", "p90", "p99"],
            "histogram",
        )?;
        Ok(RunHistogram {
            count: u64_field(entries, "count")?,
            sum: u64_field(entries, "sum")?,
            min: u64_field(entries, "min")?,
            max: u64_field(entries, "max")?,
            buckets: seq_field(entries, "buckets")?
                .iter()
                .map(histogram_bucket)
                .collect::<Result<_, _>>()?,
            p50: u64_field(entries, "p50")?,
            p90: u64_field(entries, "p90")?,
            p99: u64_field(entries, "p99")?,
        })
    }

    fn histogram_bucket(v: &Value) -> Result<HistogramBucket, String> {
        let entries = fields(v, &["index", "count"], "histogram bucket")?;
        let index = u64_field(entries, "index")?;
        Ok(HistogramBucket {
            index: u32::try_from(index)
                .map_err(|_| format!("histogram bucket index {index} does not fit u32"))?,
            count: u64_field(entries, "count")?,
        })
    }

    /// Additive v1 field: absent (legacy reports) and explicit `null`
    /// both decode to `None`.
    fn attribution(entries: &[(String, Value)]) -> Result<Option<PeakAttribution>, String> {
        let Some((_, v)) = entries.iter().find(|(k, _)| k == "attribution") else {
            return Ok(None);
        };
        if matches!(v, Value::Null) {
            return Ok(None);
        }
        let entries = fields(
            v,
            &[
                "mode",
                "rail",
                "edge",
                "time_ps",
                "peak_ma",
                "contributions",
            ],
            "attribution",
        )?;
        Ok(Some(PeakAttribution {
            mode: usize_field(entries, "mode")?,
            rail: str_field(entries, "rail")?,
            edge: str_field(entries, "edge")?,
            time_ps: f64_field(entries, "time_ps")?,
            peak_ma: f64_field(entries, "peak_ma")?,
            contributions: seq_field(entries, "contributions")?
                .iter()
                .map(contribution)
                .collect::<Result<_, _>>()?,
        }))
    }

    fn contribution(v: &Value) -> Result<Contribution, String> {
        let entries = fields(v, &["node", "cell", "kind", "amps_ma"], "contribution")?;
        Ok(Contribution {
            node: usize_field(entries, "node")?,
            cell: str_field(entries, "cell")?,
            kind: str_field(entries, "kind")?,
            amps_ma: f64_field(entries, "amps_ma")?,
        })
    }

    fn counters(v: &Value) -> Result<RunCounters, String> {
        let entries = fields(
            v,
            &[
                "labels_created",
                "labels_pruned",
                "solver_work",
                "pareto_paths",
                "zone_solves",
                "exhausted_solves",
                "arena_arcs",
                "arena_unique_weights",
                "rung_transitions",
                "budget_units",
                "dominance_checks",
                "dominance_skipped",
                "zone_faults",
                "zone_salvages",
                "zones_reused",
                "zones_shared",
                "zone_cells",
                "zones_spilled",
                "zone_recomputes",
                "peak_rss_bytes",
                "solve_rss_bytes",
            ],
            "counters",
        )?;
        Ok(RunCounters {
            labels_created: u64_field(entries, "labels_created")?,
            labels_pruned: u64_field(entries, "labels_pruned")?,
            solver_work: u64_field(entries, "solver_work")?,
            pareto_paths: u64_field(entries, "pareto_paths")?,
            zone_solves: u64_field(entries, "zone_solves")?,
            exhausted_solves: u64_field(entries, "exhausted_solves")?,
            arena_arcs: u64_field(entries, "arena_arcs")?,
            arena_unique_weights: u64_field(entries, "arena_unique_weights")?,
            rung_transitions: u64_field(entries, "rung_transitions")?,
            budget_units: u64_field(entries, "budget_units")?,
            dominance_checks: opt_u64_field(entries, "dominance_checks")?,
            dominance_skipped: opt_u64_field(entries, "dominance_skipped")?,
            zone_faults: opt_u64_field(entries, "zone_faults")?,
            zone_salvages: opt_u64_field(entries, "zone_salvages")?,
            zones_reused: opt_u64_field(entries, "zones_reused")?,
            zones_shared: opt_u64_field(entries, "zones_shared")?,
            zone_cells: opt_u64_field(entries, "zone_cells")?,
            zones_spilled: opt_u64_field(entries, "zones_spilled")?,
            zone_recomputes: opt_u64_field(entries, "zone_recomputes")?,
            peak_rss_bytes: opt_u64_field(entries, "peak_rss_bytes")?,
            solve_rss_bytes: opt_u64_field(entries, "solve_rss_bytes")?,
        })
    }

    fn stage_timing(v: &Value) -> Result<StageTiming, String> {
        let entries = fields(v, &["stage", "count", "total_ns"], "stage timing")?;
        Ok(StageTiming {
            stage: str_field(entries, "stage")?,
            count: u64_field(entries, "count")?,
            total_ns: u64_field(entries, "total_ns")?,
        })
    }

    fn zone_metrics(v: &Value) -> Result<ZoneMetrics, String> {
        let entries = fields(
            v,
            &[
                "zone",
                "solves",
                "labels_created",
                "labels_pruned",
                "solver_work",
                "pareto_paths",
                "exhausted_solves",
                "dominance_checks",
                "dominance_skipped",
                "wall_ns",
                "worst_rung",
            ],
            "zone metrics",
        )?;
        Ok(ZoneMetrics {
            zone: usize_field(entries, "zone")?,
            solves: u64_field(entries, "solves")?,
            labels_created: u64_field(entries, "labels_created")?,
            labels_pruned: u64_field(entries, "labels_pruned")?,
            solver_work: u64_field(entries, "solver_work")?,
            pareto_paths: u64_field(entries, "pareto_paths")?,
            exhausted_solves: u64_field(entries, "exhausted_solves")?,
            dominance_checks: opt_u64_field(entries, "dominance_checks")?,
            dominance_skipped: opt_u64_field(entries, "dominance_skipped")?,
            wall_ns: u64_field(entries, "wall_ns")?,
            worst_rung: opt_u64_field(entries, "worst_rung")?,
        })
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
        // The same 64 records, pushed from 1 thread and from 8, must
        // produce identical normalized reports.
        let run = |threads: usize| {
            let r = MetricsRegistry::enabled();
            r.ensure_zones(4);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let r = r.clone();
                    scope.spawn(move || {
                        for i in 0..(64 / threads) {
                            r.record_zone_solve((t + i) % 4, &sample_record(3));
                        }
                    });
                }
            });
            r.report(&ReportContext::default()).expect("enabled")
        };
        let seq = run(1);
        let par = run(8);
        seq.validate().expect("seq self-consistent");
        par.validate().expect("par self-consistent");
        assert_eq!(seq.counters, par.counters);
        assert_eq!(seq.normalized().zones, par.normalized().zones);
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
                kernel: "vector",
            })
            .expect("enabled");
        let json = serde_json::to_string(&report).expect("serialize");
        let back = RunReport::from_json(&json).expect("deserialize");
        assert_eq!(back, report);
        back.validate().expect("valid after roundtrip");
        assert_eq!(back.ladder_rung, 2);
        assert_eq!(back.counters.rung_transitions, 1);
        assert_eq!(back.counters.budget_units, 99);
        assert_eq!(back.kernel, "vector");
        assert_eq!(back.normalized().kernel, "", "normalization strips kernel");
    }

    #[test]
    fn decode_defaults_fields_older_reports_lack() {
        // A report serialized before the kernel/dominance fields existed
        // must still decode, with those fields defaulted.
        let r = MetricsRegistry::enabled();
        r.record_zone_solve(0, &sample_record(4));
        let report = r
            .report(&ReportContext {
                kernel: "vector",
                ..ReportContext::default()
            })
            .expect("enabled");
        let json = serde_json::to_string(&report).expect("serialize");
        let legacy = json
            .replace("\"kernel\":\"vector\",", "")
            .replace(",\"dominance_checks\":16,\"dominance_skipped\":4", "")
            .replace(
                ",\"zone_faults\":0,\"zone_salvages\":0,\"zones_reused\":0",
                "",
            )
            .replace(",\"zones_shared\":0,\"zone_cells\":0", "");
        assert_ne!(legacy, json, "fixture must actually strip the fields");
        let back = RunReport::from_json(&legacy).expect("legacy decodes");
        assert_eq!(back.kernel, "");
        assert_eq!(back.counters.dominance_checks, 0);
        assert_eq!(back.counters.dominance_skipped, 0);
        assert_eq!(back.counters.zone_faults, 0);
        assert_eq!(back.counters.zones_reused, 0);
        assert_eq!(back.counters.zones_shared, 0);
        assert_eq!(back.counters.zone_cells, 0);
        back.validate().expect("defaults stay self-consistent");
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
