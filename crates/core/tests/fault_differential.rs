//! Chaos differential tests for the fault-containment layer: under a
//! deterministic fault plan every run must either finish with a valid
//! (possibly salvaged) `Outcome` or fail with a typed `WaveMinError` —
//! never abort the process — and a checkpointed run killed mid-journal
//! must resume bit-for-bit, re-solving only the zones the journal cannot
//! vouch for.

use std::panic::{catch_unwind, AssertUnwindSafe};
use wavemin::prelude::*;
use wavemin_cells::units::Volts;

/// A unique scratch path under the system temp dir.
fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join("wavemin-fault-differential");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name).to_string_lossy().into_owned()
}

/// The shared small-but-multi-zone configuration. Every test pins the
/// fault plan explicitly so the suite is deterministic even when the
/// process itself runs under `WAVEMIN_FAULTS` (the CI chaos job does).
fn base_config() -> WaveMinConfig {
    let mut cfg = WaveMinConfig::default()
        .with_sample_count(16)
        .with_fault_plan(None);
    cfg.max_intervals = Some(6);
    cfg
}

fn assert_valid_outcome(d: &Design, cfg: &WaveMinConfig, out: &Outcome, label: &str) {
    assert_eq!(
        out.assignment.len(),
        d.leaves().len(),
        "{label}: every sink must still be assigned"
    );
    assert!(
        out.skew_after.value() <= cfg.skew_bound.value() * 1.05 + 1e-9,
        "{label}: salvaged runs must stay skew-feasible ({} > {})",
        out.skew_after.value(),
        cfg.skew_bound.value()
    );
}

#[test]
fn rate_one_plan_faults_every_zone_and_still_completes() {
    // rate 1.0 fires the ZoneSolve panic site on every zone worker, so
    // every zone takes the catch_unwind -> greedy-salvage path. The run
    // must still produce a complete, skew-feasible outcome that reports
    // each contained fault.
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    let cfg = base_config()
        .with_fault_plan(Some(FaultPlan { seed: 1, rate: 1.0 }))
        .with_metrics(true);
    let out = ClkWaveMin::new(cfg.clone())
        .run(&d)
        .expect("a fully faulted run must still be salvageable");
    assert_valid_outcome(&d, &cfg, &out, "rate-1.0");
    assert!(
        !out.faulted_zones.is_empty(),
        "a rate-1.0 plan must report faulted zones"
    );

    let degradation = out.degradation.as_ref().expect("degradation record");
    let contained = degradation
        .steps
        .iter()
        .filter(|s| matches!(s, DegradationStep::ZoneFaultContained { .. }))
        .count();
    assert!(contained > 0, "contained faults must appear as steps");

    let report = out.report.as_ref().expect("metrics report");
    report.validate().expect("report consistency");
    assert!(report.counters.zone_faults > 0, "fault counter");
    assert_eq!(
        report.counters.zone_faults, report.counters.zone_salvages,
        "every injected fault must be salvaged (the salvage path is injection-free)"
    );
}

#[test]
fn salvaged_outcome_matches_across_thread_counts() {
    // Containment bookkeeping must not break the ordered-collection
    // determinism guarantee: a faulted run is thread-count independent
    // just like a clean one.
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    let cfg = base_config().with_fault_plan(Some(FaultPlan { seed: 5, rate: 1.0 }));
    let seq = ClkWaveMin::new(cfg.clone().with_threads(1))
        .run(&d)
        .expect("sequential faulted run");
    let par = ClkWaveMin::new(cfg.with_threads(4))
        .run(&d)
        .expect("parallel faulted run");
    assert_eq!(seq.assignment, par.assignment, "assignment");
    assert_eq!(seq.peak_after, par.peak_after, "peak");
    assert_eq!(
        seq.estimated_cost.to_bits(),
        par.estimated_cost.to_bits(),
        "cost bits"
    );
    assert_eq!(seq.faulted_zones, par.faulted_zones, "faulted zones");
}

#[test]
fn seed_sweep_never_aborts() {
    // Across a spread of seeds and rates the solver must uphold its
    // chaos contract: a valid outcome or a typed error, never a panic
    // that escapes `run`.
    let d = Design::from_benchmark(&Benchmark::s13207(), 3);
    for seed in 1..=6u64 {
        for rate in [0.05, 0.35, 1.0] {
            let cfg = base_config().with_fault_plan(Some(FaultPlan { seed, rate }));
            let label = format!("seed {seed} rate {rate}");
            let run = catch_unwind(AssertUnwindSafe(|| ClkWaveMin::new(cfg.clone()).run(&d)));
            let result = run.unwrap_or_else(|_| panic!("{label}: panic escaped run()"));
            match result {
                Ok(out) => assert_valid_outcome(&d, &cfg, &out, &label),
                Err(e) => {
                    // Typed errors are acceptable; stringifying proves the
                    // error is well-formed (payloads included).
                    let msg = e.to_string();
                    assert!(!msg.is_empty(), "{label}: error must describe itself");
                }
            }
        }
    }
}

#[test]
fn multimode_chaos_run_is_contained() {
    let d = Design::from_benchmark_multimode_levels(
        &Benchmark::s15850(),
        3,
        4,
        4,
        Volts::new(0.9),
        Volts::new(1.1),
    );
    let cfg = WaveMinConfig::default()
        .with_skew_bound(wavemin_cells::units::Picoseconds::new(22.0))
        .with_sample_count(8)
        .with_fault_plan(Some(FaultPlan { seed: 3, rate: 1.0 }));
    let out = ClkWaveMinM::new(cfg)
        .run(&d)
        .expect("a fully faulted multimode run must still be salvageable");
    assert!(
        !out.faulted_zones.is_empty(),
        "multimode must report faulted zones"
    );
    assert_eq!(
        out.assignment.len(),
        d.leaves().len(),
        "multimode salvage keeps the assignment complete"
    );
}

#[test]
fn checkpoint_resume_reproduces_the_uninterrupted_run_bit_for_bit() {
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    let cfg = base_config().with_threads(1).with_metrics(true);

    // Ground truth: same configuration, no journal involved at all.
    let baseline = ClkWaveMin::new(cfg.clone()).run(&d).expect("baseline run");

    // Uninterrupted checkpointed run: must match the baseline exactly and
    // leave a complete journal behind.
    let path = scratch("resume-roundtrip.ckpt");
    let _ = std::fs::remove_file(&path);
    let full = ClkWaveMin::new(cfg.clone().with_checkpoint(&path))
        .run(&d)
        .expect("checkpointed run");
    assert_eq!(baseline.assignment, full.assignment, "journaling is inert");
    assert_eq!(baseline.peak_after, full.peak_after, "journaling is inert");
    let full_solves = full.report.as_ref().expect("report").counters.zone_solves;
    assert!(full_solves > 0, "the run must have solved zones");

    // Simulate a mid-run kill: truncate the journal to its header plus the
    // first `keep` complete zone lines (a dangling partial line is the
    // loader's job and covered by unit tests).
    let keep = 3usize;
    let text = std::fs::read_to_string(&path).expect("read journal");
    let mut lines = text.lines();
    let header = lines.next().expect("journal header").to_owned();
    let kept: Vec<&str> = lines.take(keep).collect();
    assert_eq!(kept.len(), keep, "journal must hold at least {keep} zones");
    std::fs::write(&path, format!("{header}\n{}\n", kept.join("\n"))).expect("truncate journal");

    // Resume: bit-for-bit equal to the uninterrupted run, reusing exactly
    // the surviving zones and re-solving only the rest.
    let resumed = ClkWaveMin::new(cfg.clone().with_checkpoint(&path).with_resume(true))
        .run(&d)
        .expect("resumed run");
    assert_eq!(baseline.assignment, resumed.assignment, "assignment");
    assert_eq!(
        baseline.peak_after.value().to_bits(),
        resumed.peak_after.value().to_bits(),
        "peak bits"
    );
    assert_eq!(
        baseline.estimated_cost.to_bits(),
        resumed.estimated_cost.to_bits(),
        "cost bits"
    );
    let counters = &resumed.report.as_ref().expect("resumed report").counters;
    assert_eq!(counters.zones_reused, keep as u64, "reused zone count");
    assert_eq!(
        counters.zone_solves + keep as u64,
        full_solves,
        "resume must re-solve exactly the zones missing from the journal"
    );

    // Resuming again from the now-complete journal re-solves nothing.
    let replay = ClkWaveMin::new(cfg.with_checkpoint(&path).with_resume(true))
        .run(&d)
        .expect("replay run");
    assert_eq!(baseline.assignment, replay.assignment, "replay assignment");
    let counters = &replay.report.as_ref().expect("replay report").counters;
    assert_eq!(
        counters.zone_solves, 0,
        "a complete journal answers everything"
    );
    assert!(counters.zones_reused >= full_solves, "all zones reused");
}

#[test]
fn checkpoint_under_faults_resumes_identically() {
    // Faulted runs journal their *salvaged* results; a resume must replay
    // them without re-firing the injection (the zone is never re-solved).
    let d = Design::from_benchmark(&Benchmark::s13207(), 3);
    let cfg = base_config()
        .with_threads(1)
        .with_metrics(true)
        .with_fault_plan(Some(FaultPlan { seed: 2, rate: 1.0 }));

    let path = scratch("faulted-resume.ckpt");
    let _ = std::fs::remove_file(&path);
    let full = ClkWaveMin::new(cfg.clone().with_checkpoint(&path))
        .run(&d)
        .expect("faulted checkpointed run");
    assert!(!full.faulted_zones.is_empty(), "faults must fire");

    let resumed = ClkWaveMin::new(cfg.with_checkpoint(&path).with_resume(true))
        .run(&d)
        .expect("faulted resume");
    assert_eq!(full.assignment, resumed.assignment, "assignment");
    assert_eq!(
        full.estimated_cost.to_bits(),
        resumed.estimated_cost.to_bits(),
        "cost bits"
    );
    let counters = &resumed.report.as_ref().expect("report").counters;
    assert_eq!(counters.zone_solves, 0, "nothing left to re-solve");
    assert_eq!(counters.zone_faults, 0, "reused zones cannot fault");
}

#[test]
fn checkpoint_resumes_under_a_different_memory_budget() {
    // Zone residency never changes results, so the memory budget is run
    // plumbing: a journal written under one budget resumes under another.
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    let cfg = base_config().with_threads(1).with_metrics(true);

    let path = scratch("budget-resume.ckpt");
    let _ = std::fs::remove_file(&path);
    let full = ClkWaveMin::new(
        cfg.clone()
            .with_memory_budget_mb(4096)
            .with_checkpoint(&path),
    )
    .run(&d)
    .expect("budgeted checkpointed run");

    let resumed = ClkWaveMin::new(cfg.with_checkpoint(&path).with_resume(true))
        .run(&d)
        .expect("unbudgeted resume");
    assert_eq!(full.assignment, resumed.assignment, "assignment");
    assert_eq!(
        full.estimated_cost.to_bits(),
        resumed.estimated_cost.to_bits(),
        "cost bits"
    );
    let counters = &resumed.report.as_ref().expect("report").counters;
    assert!(
        counters.zones_reused > 0,
        "the budgeted run's journal must be reused"
    );
    assert_eq!(counters.zone_solves, 0, "nothing left to re-solve");
}

#[test]
fn a_journal_from_an_older_format_is_started_fresh() {
    // A `v2` journal keyed its chains on the interval bounds; its keys mean
    // nothing under the current chain, so resuming from one must start a
    // fresh journal instead of splicing anything from it.
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    let cfg = base_config().with_threads(1).with_metrics(true);

    let path = scratch("older-format.ckpt");
    let _ = std::fs::remove_file(&path);
    let full = ClkWaveMin::new(cfg.clone().with_checkpoint(&path))
        .run(&d)
        .expect("checkpointed run");
    let full_solves = full.report.as_ref().expect("report").counters.zone_solves;

    let text = std::fs::read_to_string(&path).expect("read journal");
    let (header, body) = text.split_once('\n').expect("journal header");
    let current = format!("wavemin-checkpoint {}", wavemin::checkpoint::FORMAT_VERSION);
    assert_eq!(wavemin::checkpoint::FORMAT_VERSION, "v3");
    assert!(header.starts_with(&current), "{header}");
    let old_header = header.replacen(&current, "wavemin-checkpoint v2", 1);
    std::fs::write(&path, format!("{old_header}\n{body}")).expect("rewrite header");

    let resumed = ClkWaveMin::new(cfg.with_checkpoint(&path).with_resume(true))
        .run(&d)
        .expect("resume from an older journal");
    assert_eq!(full.assignment, resumed.assignment, "assignment");
    let counters = &resumed.report.as_ref().expect("report").counters;
    assert_eq!(
        counters.zones_reused, 0,
        "nothing is spliced from a v2 journal"
    );
    assert_eq!(
        counters.zone_solves, full_solves,
        "every group is solved again"
    );
    let rewritten = std::fs::read_to_string(&path).expect("read journal");
    assert!(
        rewritten.starts_with(&current),
        "the journal restarts under the current format"
    );
}

/// Runs `foreign` with a checkpoint path, then resumes ClkWaveMin on that
/// path: only ClkWaveMin journals zone results, and the journal's header
/// and key chain do not name the algorithm, so a foreign journal would
/// otherwise resume as if it held ClkWaveMin's solutions.
fn assert_foreign_run_leaves_nothing_to_resume(
    name: &str,
    foreign: impl Fn(WaveMinConfig, &Design),
) {
    let d = Design::from_benchmark(&Benchmark::s13207(), 3);
    let cfg = base_config().with_threads(1).with_metrics(true);
    let baseline = ClkWaveMin::new(cfg.clone()).run(&d).expect("baseline run");

    let path = scratch(&format!("{name}-then-wavemin.ckpt"));
    let _ = std::fs::remove_file(&path);
    foreign(cfg.clone().with_checkpoint(&path), &d);

    let resumed = ClkWaveMin::new(cfg.with_checkpoint(&path).with_resume(true))
        .run(&d)
        .expect("wavemin resume");
    assert_eq!(
        baseline.assignment, resumed.assignment,
        "{name}: assignment"
    );
    assert_eq!(
        baseline.estimated_cost.to_bits(),
        resumed.estimated_cost.to_bits(),
        "{name}: cost bits"
    );
    let counters = &resumed.report.as_ref().expect("report").counters;
    assert_eq!(counters.zones_reused, 0, "{name}: nothing to splice");
}

#[test]
fn a_fast_run_never_journals_so_a_wavemin_resume_solves_for_itself() {
    assert_foreign_run_leaves_nothing_to_resume("fast", |cfg, d| {
        ClkWaveMinFast::new(cfg).run(d).expect("fast run");
    });
}

#[test]
fn a_peakmin_run_never_journals_so_a_wavemin_resume_solves_for_itself() {
    assert_foreign_run_leaves_nothing_to_resume("peakmin", |cfg, d| {
        ClkPeakMin::new(cfg).run(d).expect("peakmin run");
    });
}

/// FNV-1a over a byte string: a content pin that needs no golden file.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn a_one_thread_journal_pins_the_solve_order_and_more_threads_write_the_same_entries() {
    // The journal records one line per distinct zone subproblem in solve
    // order. At one thread that order is the plain intersection-by-
    // intersection loop: each share-plan group when its first intersection
    // reaches it. The pinned hash is that order's journal, byte for byte.
    // More threads solve the same groups in another order.
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    let journal = |threads: usize| {
        let path = scratch(&format!("solve-order-t{threads}.ckpt"));
        let _ = std::fs::remove_file(&path);
        ClkWaveMin::new(base_config().with_threads(threads).with_checkpoint(&path))
            .run(&d)
            .expect("checkpointed run");
        std::fs::read_to_string(&path).expect("read journal")
    };
    let one = journal(1);
    assert_eq!(
        (one.lines().count(), fnv1a(one.as_bytes())),
        (41, 0x15ee_b853_2c12_db75),
        "the one-thread journal changed"
    );
    let sorted = |text: &str| {
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines[1..].sort_unstable();
        lines
    };
    for threads in [2, 4] {
        assert_eq!(sorted(&journal(threads)), sorted(&one), "threads={threads}");
    }
}
