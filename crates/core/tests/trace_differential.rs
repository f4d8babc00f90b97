//! Differential and end-to-end tests for traced runs (the `--trace-out`
//! path): attaching a journal must not perturb the optimizer — identical
//! outcomes and normalized reports at any worker count — and the exported
//! Chrome trace plus peak attribution must meet the acceptance criteria
//! (valid JSON, zone/layer spans, per-track monotonic timestamps, and an
//! attribution that sums to the reported peak within 1e-9).

use serde::Value;
// Per-track lookups and name membership only; never iterated.
#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use wavemin::prelude::*;
use wavemin::trace::{TraceEventKind, TraceJournal};

/// Asserts two outcomes are observationally identical (runtime aside).
fn assert_outcomes_identical(plain: &Outcome, traced: &Outcome, label: &str) {
    assert_eq!(plain.assignment, traced.assignment, "{label}: assignment");
    assert_eq!(plain.peak_after, traced.peak_after, "{label}: peak");
    assert_eq!(
        plain.vdd_noise_after, traced.vdd_noise_after,
        "{label}: vdd"
    );
    assert_eq!(
        plain.gnd_noise_after, traced.gnd_noise_after,
        "{label}: gnd"
    );
    assert_eq!(plain.skew_after, traced.skew_after, "{label}: skew");
    assert!(
        plain.estimated_cost == traced.estimated_cost
            || (plain.estimated_cost.is_nan() && traced.estimated_cost.is_nan()),
        "{label}: cost {} vs {}",
        plain.estimated_cost,
        traced.estimated_cost
    );
    assert_eq!(
        plain.intervals_tried, traced.intervals_tried,
        "{label}: tried"
    );
    assert_eq!(
        plain.degenerate_zones, traced.degenerate_zones,
        "{label}: degenerate zones"
    );
}

#[test]
fn traced_runs_are_identical_to_untraced_runs() {
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    for threads in [1usize, 4] {
        let mut cfg = WaveMinConfig::default()
            .with_sample_count(16)
            .with_metrics(true)
            .with_threads(threads);
        cfg.max_intervals = Some(6);
        let ins = Instruments {
            journal: TraceJournal::enabled(),
            ..Instruments::from_config(&cfg)
        };
        let journal = &ins.journal;
        let algo = ClkWaveMin::new(cfg);
        let plain = algo.run(&d).expect("untraced run");
        let traced = algo.run_instrumented(&d, &ins).expect("traced run");
        let label = format!("threads={threads}");
        assert_outcomes_identical(&plain, &traced, &label);
        assert_eq!(
            plain.report.as_ref().expect("untraced report").normalized(),
            traced.report.as_ref().expect("traced report").normalized(),
            "{label}: normalized reports must not depend on tracing"
        );
        let merged = journal.merged().expect("enabled journal");
        let zone_spans = merged
            .events
            .iter()
            .filter(|(_, e)| matches!(e.kind, TraceEventKind::ZoneSolve { .. }))
            .count();
        assert!(zone_spans > 0, "{label}: zone spans recorded");
        assert_eq!(journal.dropped_events(), 0, "{label}: no overflow expected");
    }
}

#[test]
// Per-track lookups and name membership only; never iterated.
#[allow(clippy::disallowed_types)]
fn s15850_trace_export_and_attribution_meet_acceptance() {
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    let mut cfg = WaveMinConfig::default()
        .with_sample_count(16)
        .with_metrics(true)
        .with_threads(4);
    cfg.max_intervals = Some(6);
    let ins = Instruments {
        journal: TraceJournal::enabled(),
        ..Instruments::from_config(&cfg)
    };
    let journal = &ins.journal;
    let out = ClkWaveMin::new(cfg)
        .run_instrumented(&d, &ins)
        .expect("traced run");

    // The attribution decomposes the reported worst-mode peak exactly.
    let report = out.report.as_ref().expect("report");
    report.validate().expect("report self-consistency");
    let attr = report.attribution.as_ref().expect("attribution");
    assert!(!attr.contributions.is_empty(), "contributors present");
    let sum: f64 = attr.contributions.iter().map(|c| c.amps_ma).sum();
    assert!(
        (sum - attr.peak_ma).abs() <= 1e-9,
        "contribution sum {sum} must match peak {} to 1e-9",
        attr.peak_ma
    );

    // The exported Chrome trace parses, carries zone and layer spans, and
    // is timestamp-monotonic within every (pid, tid) track.
    let json = journal.chrome_trace().expect("chrome trace");
    let root = serde_json::from_str(&json).expect("valid trace JSON");
    let Value::Map(entries) = &root else {
        panic!("object root");
    };
    let field = |fields: &[(String, Value)], key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let Some(Value::Seq(events)) = field(entries, "traceEvents") else {
        panic!("traceEvents array");
    };
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut names: HashSet<String> = HashSet::new();
    let mut metadata = 0usize;
    for ev in &events {
        let Value::Map(fields) = ev else {
            panic!("event object");
        };
        let Some(Value::Str(ph)) = field(fields, "ph") else {
            panic!("ph field");
        };
        if ph == "M" {
            metadata += 1;
            continue;
        }
        if let Some(Value::Str(name)) = field(fields, "name") {
            names.insert(name);
        }
        let (Some(Value::UInt(pid)), Some(Value::UInt(tid))) =
            (field(fields, "pid"), field(fields, "tid"))
        else {
            panic!("pid/tid fields");
        };
        let Some(Value::Float(ts)) = field(fields, "ts") else {
            panic!("ts field");
        };
        if let Some(prev) = last_ts.insert((pid, tid), ts) {
            assert!(prev <= ts, "ts monotonic within track {tid}");
        }
    }
    assert!(metadata >= 1, "thread_name metadata present");
    assert!(names.contains("zone_solve"), "zone spans exported");
    assert!(names.contains("layer"), "graph-layer spans exported");
    assert!(!last_ts.is_empty(), "at least one worker track");
}

/// Asserts that every stage the report times is exactly the sum of its
/// journal spans: the same span count, and `total_ns` equal to the sum
/// of their `dur_ns` — one clock per stage, `zone_solve` included.
fn assert_stages_agree(report: &RunReport, journal: &TraceJournal, label: &str) {
    assert_eq!(journal.dropped_events(), 0, "{label}: no overflow expected");
    let merged = journal.merged().expect("enabled journal");
    assert!(!report.stages.is_empty(), "{label}: stages reported");
    for timing in &report.stages {
        let spans: Vec<u64> = merged
            .events
            .iter()
            .filter(|(_, e)| e.kind.is_span() && e.kind.name() == timing.stage)
            .map(|(_, e)| e.dur_ns)
            .collect();
        assert_eq!(
            spans.len() as u64,
            timing.count,
            "{label}: {} span count",
            timing.stage
        );
        assert_eq!(
            spans.iter().sum::<u64>(),
            timing.total_ns,
            "{label}: {} total_ns",
            timing.stage
        );
    }
    for (_, e) in &merged.events {
        if let TraceEventKind::Stage { stage } = e.kind {
            assert!(
                report.stages.iter().any(|t| t.stage == stage.name()),
                "{label}: journal stage {} missing from the report",
                stage.name()
            );
        }
    }
}

#[test]
fn report_stage_times_equal_journal_span_sums() {
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    let mut cfg = WaveMinConfig::default()
        .with_sample_count(16)
        .with_metrics(true)
        .with_threads(2);
    cfg.max_intervals = Some(6);
    let ins = Instruments {
        journal: TraceJournal::enabled(),
        ..Instruments::from_config(&cfg)
    };
    let out = ClkWaveMin::new(cfg)
        .run_instrumented(&d, &ins)
        .expect("traced run");
    let report = out.report.as_ref().expect("report");
    for stage in ["characterization", "zoning", "zone_solve", "validation"] {
        assert!(
            report.stages.iter().any(|t| t.stage == stage),
            "{stage} timed"
        );
    }
    assert_stages_agree(report, &ins.journal, "ClkWaveMin s15850");
}

#[test]
fn multimode_journal_carries_intersection_stage_spans() {
    let d = Design::from_benchmark_multimode_levels(
        &Benchmark::s15850(),
        3,
        4,
        4,
        wavemin_cells::units::Volts::new(0.9),
        wavemin_cells::units::Volts::new(1.1),
    );
    let cfg = WaveMinConfig::default()
        .with_skew_bound(wavemin_cells::units::Picoseconds::new(22.0))
        .with_sample_count(8)
        .with_metrics(true);
    let ins = Instruments {
        journal: TraceJournal::enabled(),
        ..Instruments::from_config(&cfg)
    };
    let out = ClkWaveMinM::new(cfg)
        .run_instrumented(&d, &ins)
        .expect("traced multi-mode run");
    let merged = ins.journal.merged().expect("enabled journal");
    let intersections = merged
        .events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e.kind,
                TraceEventKind::Stage {
                    stage: Stage::Intersection
                }
            )
        })
        .count();
    assert!(intersections > 0, "intersection stage spans journaled");
    let report = out.report.as_ref().expect("report");
    assert_stages_agree(report, &ins.journal, "ClkWaveMin-M s15850");
}

#[test]
fn rejected_validation_candidates_are_journaled_in_rank_order() {
    // With no window headroom, the cheapest intersections on this seed
    // miss the exact bound once sibling-load feedback is timed.
    let d = Design::from_benchmark(&Benchmark::s15850(), 1);
    let mut cfg = WaveMinConfig::default()
        .with_sample_count(16)
        .with_threads(1);
    cfg.max_intervals = Some(6);
    cfg.window_margin = 1.0;
    let bound = cfg.skew_bound.value();
    let ins = Instruments {
        journal: TraceJournal::enabled(),
        ..Instruments::from_config(&cfg)
    };
    let out = ClkWaveMin::new(cfg)
        .run_instrumented(&d, &ins)
        .expect("traced run");
    let merged = ins.journal.merged().expect("enabled journal");
    let rejected: Vec<(usize, f64, f64)> = merged
        .events
        .iter()
        .filter_map(|(_, e)| match e.kind {
            TraceEventKind::CandidateRejected {
                rank,
                cost,
                skew_ps,
            } => Some((rank, cost, skew_ps)),
            _ => None,
        })
        .collect();
    assert!(!rejected.is_empty(), "some candidate misses the bound");
    assert!(rejected.len() <= out.intervals_tried);
    for (i, &(rank, cost, skew_ps)) in rejected.iter().enumerate() {
        assert_eq!(rank, i, "ranks are walked best first");
        assert!(skew_ps > bound, "a rejected candidate misses {bound} ps");
        assert!(cost.is_finite());
    }
    assert!(
        rejected.windows(2).all(|w| w[0].1 <= w[1].1),
        "costs ascend with rank"
    );
    assert!(out.skew_after.value() <= bound + 1e-9);
}
