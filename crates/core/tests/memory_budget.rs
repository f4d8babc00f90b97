//! Memory-budget behaviour: an infeasible budget fails up front with a
//! typed error, and a budgeted scale run stays within its cap while
//! spilling resident zones (the `#[ignore]`d regression is driven
//! explicitly by the CI scale job).

use wavemin::prelude::*;

/// A budget below the process baseline cannot possibly run; the solver
/// must refuse with `WaveMinError::MemoryBudget` — naming both sides —
/// instead of thrashing or aborting.
#[test]
fn infeasible_budget_fails_with_typed_error() {
    let design = Design::from_benchmark(&Benchmark::s15850(), 1);
    let cfg = WaveMinConfig::default().with_memory_budget_mb(1);
    match ClkWaveMin::new(cfg).run(&design) {
        Err(WaveMinError::MemoryBudget {
            budget_mb,
            required_mb,
        }) => {
            assert_eq!(budget_mb, 1);
            assert!(
                required_mb > budget_mb,
                "required {required_mb} MB must exceed the {budget_mb} MB budget"
            );
            let msg = WaveMinError::MemoryBudget {
                budget_mb,
                required_mb,
            }
            .to_string();
            assert!(msg.contains("memory budget"), "{msg}");
        }
        other => panic!("expected MemoryBudget error, got {other:?}"),
    }
}

/// The 100k-sink regression: a run under a deliberately tight
/// budget must finish, keep its end-of-solve RSS within the budget, and
/// actually exercise the spill path (nonzero `zones_spilled`).
///
/// The budget is derived at runtime: a 1 MB probe run reports the
/// minimal working set via the typed error, and the real run gets that
/// plus a fixed store allowance small enough to force eviction. The
/// budget governs the solve phase (zone residency + interval
/// accumulation); the final whole-design validation pass is measured
/// via `peak_rss_bytes` but sits outside the budgeted store, so the
/// cap is asserted against `solve_rss_bytes`.
#[test]
#[ignore = "scale regression (~minutes): run explicitly or via the CI scale job"]
fn scale100k_stays_within_budget_and_spills() {
    let design = Design::from_benchmark(&Benchmark::scale("budget100k", 100_000), 9);
    let mut cfg = WaveMinConfig::default()
        .with_sample_count(16)
        .with_threads(1)
        .with_metrics(true);
    cfg.max_intervals = Some(2);

    let probe = ClkWaveMin::new(cfg.clone().with_memory_budget_mb(1)).run(&design);
    let required_mb = match probe {
        Err(WaveMinError::MemoryBudget { required_mb, .. }) => required_mb,
        other => panic!("probe should report the minimal working set, got {other:?}"),
    };

    // ~16 MB of store headroom: far below the full store for 100k
    // sinks at 16 samples, so the LRU must evict. If allocator retention
    // from the probe shifted the baseline, widen once and retry.
    let mut budget_mb = required_mb + 16;
    let outcome = match ClkWaveMin::new(cfg.clone().with_memory_budget_mb(budget_mb)).run(&design) {
        Ok(out) => out,
        Err(WaveMinError::MemoryBudget { required_mb, .. }) => {
            budget_mb = required_mb + 16;
            ClkWaveMin::new(cfg.with_memory_budget_mb(budget_mb))
                .run(&design)
                .expect("budgeted run after baseline re-probe")
        }
        Err(other) => panic!("budgeted run failed: {other}"),
    };

    let report = outcome.report.expect("metrics were requested");
    report.validate().expect("report consistency");
    assert!(
        report.counters.zones_spilled > 0,
        "a {budget_mb} MB budget on 100k sinks must evict resident zones"
    );
    if outcome.intervals_tried > 1 {
        // A second interval revisits zones the first one's evictions
        // pushed out of the store.
        assert!(
            report.counters.zone_recomputes > 0,
            "evicted zones revisited on later intervals must be recomputed"
        );
    }
    let budget_bytes = (budget_mb as u64) << 20;
    assert!(
        report.counters.solve_rss_bytes > 0,
        "the solve-phase RSS gauge must have been sampled"
    );
    assert!(
        report.counters.solve_rss_bytes <= budget_bytes,
        "end-of-solve RSS {} exceeds the {} byte budget",
        report.counters.solve_rss_bytes,
        budget_bytes
    );
    assert!(
        report.counters.peak_rss_bytes >= report.counters.solve_rss_bytes,
        "the peak gauge covers every checkpoint, including end-of-solve"
    );
    assert!(
        outcome.skew_after.value() <= WaveMinConfig::default().skew_bound.value() + 1e-9
            || outcome.assignment.is_empty(),
        "budgeted run must still satisfy the bound (or fall back to identity)"
    );
}
