//! Session-API and zone-cache integration tests: concurrent jobs must
//! dedup zone solves through the shared cache's in-flight reservations,
//! an ECO re-solve must splice clean zones while staying bit-identical
//! to a from-scratch solve of the edited design, and a salvaged zone's
//! greedy rung must show up in that zone's `worst_rung` — not leak into
//! the run's global ladder rung.

use std::sync::Arc;
use wavemin::prelude::*;
use wavemin_cells::units::Picoseconds;
use wavemin_testkit::configs::small_session as base_config;
use wavemin_testkit::designs::s15850;

fn characterize(design: Design) -> CharacterizedDesign {
    CharacterizedDesign::new(design, base_config()).expect("characterize")
}

#[test]
fn concurrent_jobs_share_the_cache_without_duplicate_solves() {
    let design = s15850(23);

    // Baseline: how many zone solves one cold run performs.
    let baseline = characterize(design.clone())
        .solve(&SolveOptions::default())
        .expect("baseline solve");
    let baseline_solves = baseline
        .report
        .as_ref()
        .expect("baseline report")
        .counters
        .zone_solves;
    assert!(baseline_solves > 0);

    // Two jobs race cold onto one shared cache. In-flight reservations
    // must make each distinct zone subproblem (one share-plan group of
    // equal restriction prefixes) be solved exactly once across the
    // pair: one job solves it, the other blocks and splices.
    let session = Arc::new(characterize(design));
    let cache = Arc::new(ZoneCache::new(64 << 20));
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let session = Arc::clone(&session);
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    session
                        .solve_cached(&cache, &SolveOptions::default())
                        .expect("concurrent solve")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    let total_solves: u64 = outcomes
        .iter()
        .map(|o| o.report.as_ref().expect("report").counters.zone_solves)
        .sum();
    let total_reused: u64 = outcomes
        .iter()
        .map(|o| o.report.as_ref().expect("report").counters.zones_reused)
        .sum();
    assert_eq!(
        total_solves, baseline_solves,
        "the pair must not duplicate any zone solve"
    );
    assert_eq!(
        total_reused, baseline_solves,
        "every solve one job performs is spliced by the other"
    );
    assert_eq!(
        outcomes[0].peak_after.value().to_bits(),
        outcomes[1].peak_after.value().to_bits(),
        "splices are bit-identical to solves"
    );
    assert_eq!(outcomes[0].assignment, outcomes[1].assignment);
    assert_eq!(
        outcomes[0].peak_after.value().to_bits(),
        baseline.peak_after.value().to_bits(),
        "cached solving must not change results"
    );
}

#[test]
fn eco_resolve_splices_clean_zones_and_matches_from_scratch() {
    let design = s15850(23);
    let cache = ZoneCache::new(64 << 20);
    let opts = SolveOptions::default();

    let session = characterize(design.clone());
    let cold = session.solve_cached(&cache, &opts).expect("cold solve");
    let cold_report = cold.report.as_ref().expect("cold report");
    assert_eq!(cold_report.counters.zones_reused, 0);

    // The ECO: a small local trim on a sink of the last-ordered zone,
    // leaving every other zone's content untouched.
    let probe = session.eco_probe_sink().expect("probe sink");
    let mut edited = design;
    edited.tree.node_mut(probe).delay_trim += Picoseconds::new(1.5);

    // Incremental: a fresh session over the edited design, same cache.
    let eco_session = characterize(edited.clone());
    let eco = eco_session.solve_cached(&cache, &opts).expect("eco solve");
    let eco_report = eco.report.as_ref().expect("eco report");
    assert!(
        eco_report.counters.zones_reused > 0,
        "a local edit must leave reusable zones (reused {}, solved {})",
        eco_report.counters.zones_reused,
        eco_report.counters.zone_solves
    );
    assert!(
        eco_report.counters.zone_solves < cold_report.counters.zone_solves,
        "an incremental re-solve must do less work than the cold solve"
    );

    // Ground truth: the edited design solved from scratch, no cache.
    let scratch = characterize(edited)
        .solve(&opts)
        .expect("from-scratch solve of the edited design");
    assert_eq!(
        eco.peak_after.value().to_bits(),
        scratch.peak_after.value().to_bits(),
        "splicing cached zones must be bit-identical to re-solving them"
    );
    assert_eq!(eco.assignment, scratch.assignment);
    assert_eq!(
        eco.skew_after.value().to_bits(),
        scratch.skew_after.value().to_bits()
    );
}

#[test]
fn salvaged_zones_report_their_greedy_rung_without_degrading_the_ladder() {
    // A rate-1.0 fault plan forces every zone through the salvage path,
    // which runs on the ladder's last (greedy) rung. The per-zone
    // worst_rung must record that; the *global* ladder rung must stay 0
    // because salvage never descends the shared ladder.
    let design = s15850(7);
    let mut cfg = base_config().with_fault_plan(Some(FaultPlan { seed: 1, rate: 1.0 }));
    cfg.max_intervals = Some(4);
    let out = ClkWaveMin::new(cfg).run(&design).expect("salvaged run");
    assert!(!out.faulted_zones.is_empty(), "rate 1.0 must fault zones");
    let report = out.report.as_ref().expect("report");
    assert_eq!(
        report.ladder_rung, 0,
        "salvage rungs must not leak into the global ladder position"
    );
    for &zone in &out.faulted_zones {
        let zm = &report.zones[zone];
        assert!(
            zm.worst_rung > 0,
            "faulted zone {zone} was salvaged on the greedy rung; its \
             worst_rung must record that (got {})",
            zm.worst_rung
        );
    }
    // An unfaulted control run keeps every zone at full fidelity.
    let clean = ClkWaveMin::new(base_config())
        .run(&design)
        .expect("clean run");
    let clean_report = clean.report.as_ref().expect("clean report");
    assert!(clean_report
        .zones
        .iter()
        .all(|z| z.worst_rung == 0 || z.solves == 0));
}
