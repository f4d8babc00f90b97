//! End-to-end acceptance tests for resource-governed solving: a tightly
//! budgeted run must finish quickly with a valid (feasible-skew)
//! assignment and a populated degradation record, while an unconstrained
//! run must report no degradation and unchanged results.

use std::time::{Duration, Instant};
use wavemin::prelude::*;

fn design() -> Design {
    Design::from_benchmark(&Benchmark::s15850(), 7)
}

#[test]
fn tight_budget_degrades_but_stays_valid() {
    let d = design();
    // Exact Pareto enumeration is worst-case exponential in the zone size.
    // One zone spanning the whole die (huge pitch) makes every sink a DAG
    // layer, and with high-dimensional sample vectors almost no label
    // dominates another, so every frontier fills to the 64-label cap. A
    // budget already spent when the solve starts must force the ladder
    // down however fast the solver is, instead of letting the solve run
    // to completion.
    let mut cfg = WaveMinConfig::default()
        .with_solver(SolverKind::Exact)
        .with_time_budget_ms(0);
    cfg.zone_pitch = wavemin_cells::units::Microns::new(1.0e9);
    let started = Instant::now();
    let out = ClkWaveMin::new(cfg.clone()).run(&d).expect("budgeted run");
    // Generous bound: the point is "did not hang", not a benchmark.
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "budgeted run took {:?}",
        started.elapsed()
    );

    let degradation = out.degradation.expect("a spent budget must degrade");
    assert!(degradation.exhausted_solves > 0);
    assert!(degradation.total_solves >= degradation.exhausted_solves);
    assert!(
        !degradation.steps.is_empty(),
        "degradation must say what was relaxed"
    );

    // The result is still a complete, skew-feasible assignment.
    assert_eq!(out.assignment.len(), d.leaves().len());
    assert!(
        out.skew_after.value() <= cfg.skew_bound.value() * 1.05 + 1e-9,
        "skew {} vs bound {}",
        out.skew_after,
        cfg.skew_bound
    );
    assert!(out.peak_after.value().is_finite());
    assert!(out.peak_after.value() <= out.peak_before.value() + 1e-9);
}

#[test]
fn unconstrained_run_reports_no_degradation() {
    let d = design();
    let free = ClkWaveMin::new(WaveMinConfig::default())
        .run(&d)
        .expect("unconstrained run");
    assert!(
        free.degradation.is_none(),
        "unconstrained run degraded: {:?}",
        free.degradation
    );

    // A budget loose enough to never trip must not change the result.
    let loose = ClkWaveMin::new(WaveMinConfig::default().with_time_budget_ms(3_600_000))
        .run(&d)
        .expect("loosely budgeted run");
    assert!(loose.degradation.is_none());
    assert_eq!(free.peak_after.value(), loose.peak_after.value());
    assert_eq!(free.skew_after.value(), loose.skew_after.value());
}

#[test]
fn multimode_budget_degrades_but_stays_valid() {
    let d = Design::from_benchmark_multimode(&Benchmark::s15850(), 3, 4, 2);
    // The budget must sit well below the unconstrained runtime or the run
    // simply finishes inside it (the vectorized-kernel frontier brought
    // this fixture down to ~15 ms, which is why 2 ms and not 50 ms).
    let cfg = WaveMinConfig::default()
        .with_solver(SolverKind::Exact)
        .with_time_budget_ms(2);
    let out = ClkWaveMinM::new(cfg)
        .run(&d)
        .expect("budgeted multimode run");
    let degradation = out.degradation.expect("a 2 ms budget must degrade");
    assert!(degradation.exhausted_solves > 0);
    assert_eq!(out.assignment.len(), d.leaves().len());

    let free = ClkWaveMinM::new(WaveMinConfig::default())
        .run(&d)
        .expect("unconstrained multimode run");
    assert!(free.degradation.is_none());
}

#[test]
fn validate_rejects_broken_design_before_solving() {
    let mut d = design();
    let leaf = d.leaves()[0];
    d.tree.node_mut(leaf).sink_cap = wavemin_cells::units::Femtofarads::new(f64::NAN);
    let err = ClkWaveMin::new(WaveMinConfig::default())
        .run(&d)
        .expect_err("NaN sink cap must be rejected");
    assert!(err.to_string().contains("sink cap"), "{err}");
}
