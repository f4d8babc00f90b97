//! `bench_mosp` — the MOSP solver rows, scale runs and run-report
//! counters, persisted as `BENCH_mosp.json` for regression tracking.
//!
//! Usage: `bench_mosp [seed] [--json path]` (default path
//! `BENCH_mosp.json` in the current directory). The record carries the
//! host's core count: absolute numbers are only comparable across equal
//! machines. Each solver row carries its batches' quartiles beside the
//! median, so a difference inside them is noise.

use serde::Serialize;
use wavemin::prelude::*;
use wavemin_bench::{append_history, ExperimentArgs};
use wavemin_testkit::mosp::{layered, solver_rows, SolverRow};
use wavemin_testkit::timing::time;

/// One timed solver row, with the solver's label counters from a
/// reference solve.
#[derive(Serialize)]
struct Measurement {
    name: String,
    median_us: f64,
    /// Lower and upper quartiles of the timed batches.
    q1_us: f64,
    q3_us: f64,
    labels_created: u64,
    labels_pruned: u64,
    front_size: u64,
    /// Dominance comparisons the frontier performed / skipped via its
    /// sorted max-component index.
    dominance_checks: u64,
    dominance_skipped: u64,
}

/// Arena interning effectiveness on the largest layered fixture.
#[derive(Serialize)]
struct ArenaStats {
    arcs: usize,
    unique_weight_vectors: usize,
    /// `arcs / unique_weight_vectors` — how many arcs share each slot.
    sharing_factor: f64,
}

/// Aggregated label/interning counters from one instrumented end-to-end
/// run (the `RunReport` the optimizer attaches when metrics are on).
#[derive(Serialize)]
struct MetricsSummary {
    labels_created: u64,
    labels_pruned: u64,
    zone_solves: u64,
    zones: usize,
    arena_arcs: u64,
    arena_unique_weights: u64,
    /// `1 - unique/arcs`: fraction of arc weights served from the arena.
    intern_hit_rate: f64,
    dominance_checks: u64,
    dominance_skipped: u64,
}

/// One budgeted scale run (synthesized `scale*` tree).
#[derive(Serialize)]
struct ScaleSample {
    name: String,
    sinks: usize,
    /// The `--memory-budget-mb` the run was given.
    budget_mb: usize,
    wall_s: f64,
    /// Sampled process peak RSS over the run, from the run report.
    peak_rss_bytes: u64,
    zones: usize,
    zones_per_sec: f64,
    zones_spilled: u64,
    zone_recomputes: u64,
}

#[derive(Serialize)]
struct Record {
    seed: u64,
    /// Cores visible to the process.
    available_cores: usize,
    solver: Vec<Measurement>,
    arena: ArenaStats,
    metrics: MetricsSummary,
    /// Streaming scale sweep (10k/100k always; 1M with `--scale-full`).
    scale: Vec<ScaleSample>,
}

fn measure(row: &SolverRow) -> Measurement {
    let times = time(|| row.solve(None));
    // One reference solve for the label counters (deterministic, so any
    // repetition reports the same numbers as the timed ones).
    let stats = *row.solve(None).stats();
    Measurement {
        name: row.name.clone(),
        median_us: times.median * 1e6,
        q1_us: times.q1 * 1e6,
        q3_us: times.q3 * 1e6,
        labels_created: stats.labels_created,
        labels_pruned: stats.labels_pruned,
        front_size: stats.front_size,
        dominance_checks: stats.dominance_checks,
        dominance_skipped: stats.dominance_skipped,
    }
}

/// One instrumented ClkWaveMin run; its RunReport supplies the label and
/// interning columns.
#[allow(clippy::unwrap_used, clippy::expect_used)]
fn metrics_summary(seed: u64) -> MetricsSummary {
    let design = Design::from_benchmark(&Benchmark::s13207(), seed);
    let mut cfg = WaveMinConfig::default()
        .with_sample_count(32)
        .with_metrics(true);
    cfg.max_intervals = Some(8);
    let out = ClkWaveMin::new(cfg).run(&design).unwrap();
    let report = out.report.expect("metrics were enabled");
    report.validate().expect("self-consistent report");
    MetricsSummary {
        labels_created: report.counters.labels_created,
        labels_pruned: report.counters.labels_pruned,
        zone_solves: report.counters.zone_solves,
        zones: report.zones.len(),
        arena_arcs: report.counters.arena_arcs,
        arena_unique_weights: report.counters.arena_unique_weights,
        intern_hit_rate: report.counters.intern_hit_rate(),
        dominance_checks: report.counters.dominance_checks,
        dominance_skipped: report.counters.dominance_skipped,
    }
}

/// One budgeted run per scale tree. The budgets are sized for this
/// record's reference box (single-core, 128 GB): generous enough to
/// finish, tight enough that the 100k/1M runs exercise the zone store's
/// spill path when the working set grows past them.
#[allow(clippy::expect_used)]
fn scale_measurements(seed: u64, full: bool) -> Vec<ScaleSample> {
    let mut sweeps = vec![
        ("scale10k", 10_000usize, 2048usize),
        ("scale100k", 100_000, 8192),
    ];
    if full {
        sweeps.push(("scale1m", 1_000_000, 24_576));
    }
    let mut out = Vec::new();
    for (name, sinks, budget_mb) in sweeps {
        let design = Design::from_benchmark(&Benchmark::scale(name, sinks), seed);
        let cfg = WaveMinConfig::default()
            .with_sample_count(16)
            .with_threads(1)
            .with_metrics(true)
            .with_memory_budget_mb(budget_mb);
        let start = std::time::Instant::now();
        let run = ClkWaveMin::new(cfg)
            .run(&design)
            .expect("budgeted scale run completes");
        let wall_s = start.elapsed().as_secs_f64();
        let report = run.report.expect("metrics were enabled");
        report.validate().expect("self-consistent report");
        let zones = report.zones.len();
        out.push(ScaleSample {
            name: name.to_owned(),
            sinks,
            budget_mb,
            wall_s,
            peak_rss_bytes: report.counters.peak_rss_bytes,
            zones,
            zones_per_sec: zones as f64 / wall_s.max(1e-9),
            zones_spilled: report.counters.zones_spilled,
            zone_recomputes: report.counters.zone_recomputes,
        });
    }
    out
}

fn arena_stats() -> ArenaStats {
    let (g, _, _) = layered(8, 4, 156, 4);
    let arcs = (0..g.vertex_count())
        .map(|v| g.out_degree(wavemin_mosp::VertexId(v)))
        .sum::<usize>();
    let unique = g.unique_weight_count();
    ArenaStats {
        arcs,
        unique_weight_vectors: unique,
        sharing_factor: arcs as f64 / unique.max(1) as f64,
    }
}

fn main() {
    let args = ExperimentArgs::parse();
    let full = args.rest.iter().any(|a| a == "--scale-full");
    let record = Record {
        seed: args.seed,
        available_cores: std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get),
        solver: solver_rows().iter().map(measure).collect(),
        arena: arena_stats(),
        metrics: metrics_summary(args.seed),
        scale: scale_measurements(args.seed, full),
    };
    for m in &record.solver {
        println!(
            "{:<28} {:>10.1} us [{:.1}–{:.1}]   {:>7} labels ({} pruned, front {}, dom {}/{} skipped)",
            m.name,
            m.median_us,
            m.q1_us,
            m.q3_us,
            m.labels_created,
            m.labels_pruned,
            m.front_size,
            m.dominance_checks,
            m.dominance_skipped
        );
    }
    println!(
        "arena: {} arcs share {} weight vectors ({:.1}x)",
        record.arena.arcs, record.arena.unique_weight_vectors, record.arena.sharing_factor
    );
    println!(
        "metrics: {} labels over {} zone solves in {} zones, intern hit rate {:.1} %",
        record.metrics.labels_created,
        record.metrics.zone_solves,
        record.metrics.zones,
        record.metrics.intern_hit_rate * 100.0
    );
    for s in &record.scale {
        println!(
            "scale/{:<10} {:>8.1} s  {:>6.0} zones/s  peak RSS {:>6.0} MB / {} MB budget  ({} spilled, {} recomputed)",
            s.name,
            s.wall_s,
            s.zones_per_sec,
            s.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            s.budget_mb,
            s.zones_spilled,
            s.zone_recomputes
        );
    }
    // Persist: --json wins, else BENCH_mosp.json in the working directory.
    let mut args = args;
    if args.json.is_none() {
        args.json = Some(std::path::PathBuf::from("BENCH_mosp.json"));
    }
    args.persist(&record);
    // The snapshot above overwrites; the history file next to it
    // accumulates one dated line per run so trends survive re-runs.
    let history = args
        .json
        .as_deref()
        .and_then(std::path::Path::parent)
        .map_or_else(
            || std::path::PathBuf::from("BENCH_history.jsonl"),
            |dir| dir.join("BENCH_history.jsonl"),
        );
    append_history(&history, &record);
}
