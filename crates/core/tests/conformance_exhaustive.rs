//! Ground-truth conformance suite: on randomized tiny designs (≤ 8
//! sinks) the heuristic pipeline is checked against
//! [`ExhaustiveSearch`], which enumerates every assignment and keeps the
//! true evaluated optimum.
//!
//! Two design families with different claims:
//!
//! * **strict** — single branch, 3–6 sinks, one noise zone (huge
//!   `zone_pitch`), full optimization window and a dense sampling grid.
//!   Here the sampled min–max objective ranks assignments exactly like
//!   the continuous evaluator, so the exact Pareto solve must reproduce
//!   the exhaustive optimum peak bit-for-bit on every seed.
//! * **hard** — up to two branch buffers, 3–8 sinks, the default
//!   sampling density and window margin. The sampled model and the
//!   continuous evaluator now disagree on near-ties, so every solver —
//!   including the exact one — is held to a documented worst-case ratio
//!   instead of equality.
//!
//! Both families use two candidate cells (one buffer, one inverter — the
//! pure polarity problem) and a skew bound generous enough that every
//! assignment is feasible, keeping the exhaustive reference meaningful.

use wavemin::prelude::*;
use wavemin_testkit::configs::{polarity_hard as hard_config, polarity_strict as strict_config};
use wavemin_testkit::designs::random_polarity_design;

/// Designs checked per family; the strict equality claim covers 100
/// random designs as required by the conformance contract.
const SEEDS: u64 = 100;

/// Runs one solver over all seeds of a family and returns the worst
/// peak-to-optimum ratio observed (1.0 = always optimal).
fn worst_ratio(
    label: &str,
    design_for: impl Fn(u64) -> Design,
    config: impl Fn() -> WaveMinConfig,
    run: impl Fn(&Design, WaveMinConfig) -> Result<Outcome, WaveMinError>,
) -> f64 {
    let mut worst: f64 = 1.0;
    for seed in 0..SEEDS {
        let design = design_for(seed);
        let optimum = ExhaustiveSearch::new(config())
            .run(&design)
            .unwrap_or_else(|e| panic!("{label}: exhaustive failed on seed {seed}: {e}"));
        let heuristic = run(&design, config())
            .unwrap_or_else(|e| panic!("{label}: solver failed on seed {seed}: {e}"));
        let ratio = heuristic.peak_after.value() / optimum.peak_after.value();
        assert!(
            ratio >= 1.0 - 1e-9,
            "{label}: seed {seed} beat the exhaustive optimum (ratio {ratio}); \
             the reference search is broken"
        );
        if ratio > worst {
            worst = ratio;
        }
    }
    eprintln!("{label}: worst peak/optimum ratio over {SEEDS} seeds = {worst:.6}");
    worst
}

fn strict_design(seed: u64) -> Design {
    random_polarity_design(seed, 1, 6)
}

fn hard_design(seed: u64) -> Design {
    random_polarity_design(seed, 2, 8)
}

#[test]
fn exact_solver_matches_exhaustive_optimum() {
    let worst = worst_ratio("exact/strict", strict_design, strict_config, |d, cfg| {
        ClkWaveMin::new(cfg.with_solver(SolverKind::Exact)).run(d)
    });
    assert!(
        worst <= 1.0 + 1e-9,
        "the exact Pareto solve must reproduce the exhaustive optimum \
         on the strict single-zone family (worst ratio {worst})"
    );
}

#[test]
fn warburton_solver_matches_optimum_on_strict_family() {
    // ε = 0.01 cannot misrank on a family where the sampled objective is
    // faithful: the approximation error is far below the cost separation.
    let worst = worst_ratio(
        "warburton/strict",
        strict_design,
        strict_config,
        |d, cfg| ClkWaveMin::new(cfg).run(d),
    );
    assert!(
        worst <= 1.0 + 1e-9,
        "ClkWaveMin (Warburton ε = 0.01) must match the optimum on the \
         strict family (worst ratio {worst})"
    );
}

#[test]
fn exact_solver_stays_within_model_gap_on_hard_family() {
    // On the hard family the residual is the sampled-model gap, not the
    // solver: calibrated worst case 1.033, documented bound 10 %.
    let worst = worst_ratio("exact/hard", hard_design, hard_config, |d, cfg| {
        ClkWaveMin::new(cfg.with_solver(SolverKind::Exact)).run(d)
    });
    assert!(
        worst <= 1.10,
        "the exact solve drifted beyond the documented 10 % sampled-model \
         gap on the hard family (worst ratio {worst})"
    );
}

#[test]
fn warburton_solver_stays_within_documented_ratio() {
    // Calibrated worst case 1.033 (the sampled-model gap dominates the
    // ε-approximation error); documented bound 10 %.
    let worst = worst_ratio("warburton/hard", hard_design, hard_config, |d, cfg| {
        ClkWaveMin::new(cfg).run(d)
    });
    assert!(
        worst <= 1.10,
        "ClkWaveMin (Warburton ε = 0.01) drifted beyond its documented \
         10 % conformance bound (worst ratio {worst})"
    );
}

#[test]
fn greedy_ladder_rung_stays_within_documented_ratio() {
    // The last degradation rung (Exact with a one-label frontier) is the
    // quality floor budget exhaustion can reach: calibrated worst case
    // 1.069, documented bound 25 %.
    let worst = worst_ratio("greedy-rung/hard", hard_design, hard_config, |d, cfg| {
        let greedy = WaveMinConfig {
            label_cap: 1,
            ..cfg.with_solver(SolverKind::Exact)
        };
        ClkWaveMin::new(greedy).run(d)
    });
    assert!(
        worst <= 1.25,
        "the greedy ladder rung exceeded its documented 25 % conformance \
         bound (worst ratio {worst})"
    );
}

#[test]
fn fast_greedy_stays_within_documented_ratio() {
    // Calibrated worst case 1.078; documented bound 25 %.
    let worst = worst_ratio("fast/hard", hard_design, hard_config, |d, cfg| {
        ClkWaveMinFast::new(cfg).run(d)
    });
    assert!(
        worst <= 1.25,
        "ClkWaveMinFast exceeded its documented 25 % conformance bound \
         (worst ratio {worst})"
    );
}
