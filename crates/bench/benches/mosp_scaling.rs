//! Criterion bench: MOSP solver scaling with zone size and weight
//! dimension — the complexity knobs of Warburton's ε-approximation — plus
//! the end-to-end cost of the metrics and trace layers.
//!
//! The `bench_mosp` binary re-runs the same measurements and persists them
//! as `BENCH_mosp.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wavemin::prelude::*;
use wavemin_bench::mosp_fixtures::layered;
use wavemin_mosp::solve;

fn bench_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("warburton_rows");
    for rows in [2usize, 4, 8] {
        let (g, s, t) = layered(rows, 4, 8, 1);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &g, |b, g| {
            b.iter(|| {
                solve::warburton(g, s, t, 0.01, Some(64), &Budget::unlimited(), None).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_dims(c: &mut Criterion) {
    let mut group = c.benchmark_group("warburton_dims");
    for dims in [4usize, 32, 156] {
        let (g, s, t) = layered(5, 4, dims, 2);
        group.bench_with_input(BenchmarkId::from_parameter(dims), &g, |b, g| {
            b.iter(|| {
                solve::warburton(g, s, t, 0.01, Some(64), &Budget::unlimited(), None).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_exact_vs_warburton(c: &mut Criterion) {
    let (g, s, t) = layered(6, 4, 8, 3);
    let mut group = c.benchmark_group("solver_kind");
    group.bench_function("exact", |b| {
        b.iter(|| solve::exact(&g, s, t, Some(64), &Budget::unlimited(), None).unwrap());
    });
    group.bench_function("warburton_e01", |b| {
        b.iter(|| solve::warburton(&g, s, t, 0.01, Some(64), &Budget::unlimited(), None).unwrap());
    });
    group.bench_function("warburton_e50", |b| {
        b.iter(|| solve::warburton(&g, s, t, 0.5, Some(64), &Budget::unlimited(), None).unwrap());
    });
    group.finish();
}

/// A/B overhead of the observability layer on the same end-to-end run.
///
/// `disabled` exercises the instrumented call sites with a `None`
/// registry (a branch per site, no lock) — this is the default path
/// every production run takes and it must stay within noise (≤ 2 %) of
/// pre-instrumentation cost. `enabled` adds the registry's ledger: one
/// short mutex hold per recorded event (zone solve, answered cell, rung
/// move, RSS sample) updating the counters, histograms and per-zone
/// rows, bounding what turning metrics on costs. `enabled+progress` layers a live progress tracker
/// with a no-op sink on top, bounding the full telemetry stack —
/// counters, histograms, and the ticker thread — at the same ≤ 2 %.
fn bench_metrics_overhead(c: &mut Criterion) {
    let design = Design::from_benchmark(&Benchmark::s13207(), 1);
    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(10);
    for (name, collect, progress) in [
        ("disabled", false, false),
        ("enabled", true, false),
        ("enabled+progress", true, true),
    ] {
        let mut cfg = WaveMinConfig::default()
            .with_sample_count(32)
            .with_threads(1)
            .with_metrics(collect);
        cfg.max_intervals = Some(8);
        let mut ins = Instruments::from_config(&cfg);
        if progress {
            let tracker = ProgressTracker::enabled(std::time::Duration::from_millis(50), |_p| {});
            ins.progress = tracker;
        }
        let algo = ClkWaveMin::new(cfg);
        group.bench_with_input(BenchmarkId::new("metrics", name), &design, |b, design| {
            b.iter(|| {
                algo.run_instrumented(std::hint::black_box(design), &ins)
                    .unwrap()
            });
        });
    }
    group.finish();
}

/// A/B overhead of the event journal, mirroring `metrics_overhead`.
///
/// End-to-end, `disabled` runs `run_instrumented` with disabled
/// instruments — the production default, one branch per hook site — and
/// must stay within noise of the plain `run`; `enabled` attaches a journal
/// and bounds what a full journal costs an end-to-end run. Solver-level, `enabled` drives the `warburton_rows/8`
/// fixture through `warburton` with a live handle recording every
/// layer and label batch — the finest-grained ceiling, budgeted at under
/// 5 % over the unobserved baseline on this fixture.
fn bench_trace_overhead(c: &mut Criterion) {
    use wavemin::trace::TraceJournal;

    let design = Design::from_benchmark(&Benchmark::s13207(), 1);
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    let mut cfg = WaveMinConfig::default()
        .with_sample_count(32)
        .with_threads(1);
    cfg.max_intervals = Some(8);
    let algo = ClkWaveMin::new(cfg);
    group.bench_with_input(BenchmarkId::new("e2e", "baseline"), &design, |b, design| {
        b.iter(|| algo.run(std::hint::black_box(design)).unwrap());
    });
    let disabled = Instruments::disabled();
    group.bench_with_input(BenchmarkId::new("e2e", "disabled"), &design, |b, design| {
        b.iter(|| {
            algo.run_instrumented(std::hint::black_box(design), &disabled)
                .unwrap()
        });
    });
    group.bench_with_input(BenchmarkId::new("e2e", "enabled"), &design, |b, design| {
        b.iter(|| {
            let ins = Instruments {
                journal: TraceJournal::enabled(),
                ..Instruments::disabled()
            };
            algo.run_instrumented(std::hint::black_box(design), &ins)
                .unwrap()
        });
    });

    let (g, s, t) = layered(8, 4, 8, 1);
    group.bench_with_input(
        BenchmarkId::new("warburton_rows/8", "baseline"),
        &g,
        |b, g| {
            b.iter(|| {
                solve::warburton(g, s, t, 0.01, Some(64), &Budget::unlimited(), None).unwrap()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("warburton_rows/8", "enabled"),
        &g,
        |b, g| {
            b.iter(|| {
                // A fresh journal per iteration so the track never
                // saturates into the (cheaper) overflow-drop path.
                let journal = TraceJournal::enabled();
                let mut handle = journal.handle();
                let set = solve::warburton(
                    g,
                    s,
                    t,
                    0.01,
                    Some(64),
                    &Budget::unlimited(),
                    Some(&mut handle),
                )
                .unwrap();
                handle.flush();
                std::hint::black_box(set)
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_rows,
    bench_dims,
    bench_exact_vs_warburton,
    bench_metrics_overhead,
    bench_trace_overhead
);
criterion_main!(benches);
