//! `bench_mosp` — machine-readable runs of the `mosp_scaling` criterion
//! benches, persisted as `BENCH_mosp.json` for regression tracking.
//!
//! Usage: `bench_mosp [seed] [--json path]` (default path
//! `BENCH_mosp.json` in the current directory). The record carries the
//! host's core count: absolute numbers and the multi-zone speedups are
//! only comparable across equal machines.

use serde::Serialize;
use std::time::Duration;
use wavemin::prelude::*;
use wavemin_bench::mosp_fixtures::{layered, median_secs};
use wavemin_bench::{append_history, ExperimentArgs};
use wavemin_mosp::{kernels, solve, Kernel};

/// One timed measurement, named like its criterion counterpart, with the
/// solver's label counters from an instrumented reference solve. Each
/// solve is timed twice — once per kernel family — so the record carries
/// the vectorized-vs-scalar before/after on the same fixture.
#[derive(Serialize)]
struct Measurement {
    name: String,
    /// Median with the vectorized kernels (the production path).
    median_us: f64,
    /// Median with the scalar-reference kernels forced.
    median_us_scalar: f64,
    /// `median_us_scalar / median_us` (>1 means the vector path wins).
    kernel_speedup: f64,
    labels_created: u64,
    labels_pruned: u64,
    front_size: u64,
    /// Dominance comparisons the frontier performed / skipped via its
    /// sorted max-component index.
    dominance_checks: u64,
    dominance_skipped: u64,
}

/// One multi-zone worker-count sample.
#[derive(Serialize)]
struct ThreadSample {
    threads: usize,
    median_ms: f64,
    /// Wall-clock speedup relative to the single-thread run.
    speedup: f64,
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
    /// Kernel family the instrumented run executed with.
    kernel: String,
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
    /// Cores visible to the process; multi-zone speedups saturate here.
    available_cores: usize,
    solver: Vec<Measurement>,
    multi_zone: Vec<ThreadSample>,
    arena: ArenaStats,
    metrics: MetricsSummary,
    /// Streaming scale sweep (10k/100k always; 1M with `--scale-full`).
    scale: Vec<ScaleSample>,
}

const BATCHES: usize = 5;
const SOLVER_BUDGET: Duration = Duration::from_millis(300);
const E2E_BUDGET: Duration = Duration::from_millis(1500);

#[allow(clippy::unwrap_used)]
fn measure(name: String, run: impl Fn() -> wavemin_mosp::ParetoSet) -> Measurement {
    kernels::force(Some(Kernel::Scalar));
    let secs_scalar = median_secs(&run, BATCHES, SOLVER_BUDGET);
    kernels::force(Some(Kernel::Vector));
    let secs = median_secs(&run, BATCHES, SOLVER_BUDGET);
    kernels::force(None);
    // One reference solve for the label counters (deterministic, so any
    // repetition reports the same numbers as the timed ones).
    let stats = *run().stats();
    Measurement {
        name,
        median_us: secs * 1e6,
        median_us_scalar: secs_scalar * 1e6,
        kernel_speedup: secs_scalar / secs,
        labels_created: stats.labels_created,
        labels_pruned: stats.labels_pruned,
        front_size: stats.front_size,
        dominance_checks: stats.dominance_checks,
        dominance_skipped: stats.dominance_skipped,
    }
}

#[allow(clippy::unwrap_used)]
fn solver_measurements() -> Vec<Measurement> {
    let mut out = Vec::new();
    for rows in [2usize, 4, 8] {
        let (g, s, t) = layered(rows, 4, 8, 1);
        out.push(measure(format!("warburton_rows/{rows}"), || {
            solve::warburton_capped(&g, s, t, 0.01, Some(64)).unwrap()
        }));
    }
    for dims in [4usize, 32, 156] {
        let (g, s, t) = layered(5, 4, dims, 2);
        out.push(measure(format!("warburton_dims/{dims}"), || {
            solve::warburton_capped(&g, s, t, 0.01, Some(64)).unwrap()
        }));
    }
    let (g, s, t) = layered(6, 4, 8, 3);
    for (name, eps) in [("warburton_e01", 0.01), ("warburton_e50", 0.5)] {
        out.push(measure(format!("solver_kind/{name}"), || {
            solve::warburton_capped(&g, s, t, eps, Some(64)).unwrap()
        }));
    }
    out.push(measure("solver_kind/exact".to_owned(), || {
        solve::exact(&g, s, t, Some(64)).unwrap()
    }));
    out
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
        kernel: report.kernel.clone(),
        dominance_checks: report.counters.dominance_checks,
        dominance_skipped: report.counters.dominance_skipped,
    }
}

#[allow(clippy::unwrap_used)]
fn multi_zone_measurements(seed: u64) -> Vec<ThreadSample> {
    let design = Design::from_benchmark(&Benchmark::s13207(), seed);
    let mut out: Vec<ThreadSample> = Vec::new();
    let mut base = f64::NAN;
    for threads in [1usize, 2, 4, 8] {
        let mut cfg = WaveMinConfig::default()
            .with_sample_count(32)
            .with_threads(threads);
        cfg.max_intervals = Some(8);
        let algo = ClkWaveMin::new(cfg);
        let secs = median_secs(|| algo.run(&design).unwrap(), 3, E2E_BUDGET);
        if threads == 1 {
            base = secs;
        }
        out.push(ThreadSample {
            threads,
            median_ms: secs * 1e3,
            speedup: base / secs,
        });
    }
    out
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
        solver: solver_measurements(),
        multi_zone: multi_zone_measurements(args.seed),
        arena: arena_stats(),
        metrics: metrics_summary(args.seed),
        scale: scale_measurements(args.seed, full),
    };
    for m in &record.solver {
        println!(
            "{:<28} {:>10.1} us (scalar {:>10.1} us, {:.2}x)   {:>7} labels ({} pruned, front {}, dom {}/{} skipped)",
            m.name,
            m.median_us,
            m.median_us_scalar,
            m.kernel_speedup,
            m.labels_created,
            m.labels_pruned,
            m.front_size,
            m.dominance_checks,
            m.dominance_skipped
        );
    }
    for s in &record.multi_zone {
        println!(
            "multi_zone/threads={:<2}        {:>12.1} ms   speedup {:.2}x",
            s.threads, s.median_ms, s.speedup
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
