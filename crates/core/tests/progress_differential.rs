//! Differential tests for the progress channel: an enabled tracker is
//! observation-only, so a run with progress streaming must produce
//! bit-identical outcomes to the same run without it — on one thread
//! and on four — and the ticks themselves must be monotone and end
//! with a final `done` event.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wavemin::prelude::*;
use wavemin_cells::units::{Picoseconds, Volts};

fn assert_outcomes_identical(a: &Outcome, b: &Outcome, label: &str) {
    assert_eq!(a.assignment, b.assignment, "{label}: assignment");
    assert_eq!(
        a.peak_after.value().to_bits(),
        b.peak_after.value().to_bits(),
        "{label}: peak"
    );
    assert_eq!(a.vdd_noise_after, b.vdd_noise_after, "{label}: vdd");
    assert_eq!(a.gnd_noise_after, b.gnd_noise_after, "{label}: gnd");
    assert_eq!(a.skew_after, b.skew_after, "{label}: skew");
    assert_eq!(a.intervals_tried, b.intervals_tried, "{label}: tried");
}

fn small_config(threads: usize) -> WaveMinConfig {
    let mut cfg = WaveMinConfig::default()
        .with_sample_count(16)
        .with_threads(threads);
    cfg.max_intervals = Some(6);
    cfg.collect_metrics = true;
    cfg
}

#[test]
fn progress_streaming_is_bit_identical_across_thread_counts() {
    let design = Design::from_benchmark(&Benchmark::s15850(), 7);
    for threads in [1usize, 4] {
        let plain = ClkWaveMin::new(small_config(threads))
            .run(&design)
            .expect("plain run");
        let ticks = Arc::new(AtomicU64::new(0));
        let ticks_in_sink = Arc::clone(&ticks);
        let tracker = ProgressTracker::enabled(Duration::from_millis(5), move |_p| {
            ticks_in_sink.fetch_add(1, Ordering::Relaxed);
        });
        let ins = Instruments {
            progress: tracker,
            ..Instruments::from_config(&small_config(threads))
        };
        let with_progress = ClkWaveMin::new(small_config(threads))
            .run_instrumented(&design, &ins)
            .expect("progress run");
        assert_outcomes_identical(&plain, &with_progress, &format!("threads={threads}"));
        assert!(
            ticks.load(Ordering::Relaxed) > 0,
            "the tracker must have emitted at least the final tick"
        );
        // The deterministic report content matches too: normalization
        // strips wall-clock fields, everything else must be identical.
        let a = plain.report.as_ref().expect("plain report").normalized();
        let b = with_progress
            .report
            .as_ref()
            .expect("progress report")
            .normalized();
        assert_eq!(a, b, "threads={threads}: normalized reports differ");
    }
}

#[test]
fn progress_ticks_are_monotone_and_finish_with_done() {
    let design = Design::from_benchmark(&Benchmark::s13207(), 3);
    let seen: Arc<Mutex<Vec<Progress>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = Arc::clone(&seen);
    let tracker = ProgressTracker::enabled(Duration::from_millis(1), move |p: &Progress| {
        sink_seen.lock().expect("sink lock").push(p.clone());
    });
    let ins = Instruments {
        progress: tracker,
        ..Instruments::from_config(&small_config(2))
    };
    ClkWaveMin::new(small_config(2))
        .run_instrumented(&design, &ins)
        .expect("run");
    let ticks = seen.lock().expect("final lock");
    assert!(!ticks.is_empty(), "at least the final tick fires");
    let last = ticks.last().expect("nonempty");
    assert!(last.done, "the final tick must carry done=true");
    // An interval that turns out infeasible bails before solving its
    // remaining zones, so `zones_done` can fall short of the planned
    // total — but never exceed it, and something must have solved.
    assert!(last.zones_done > 0, "some zone solves must have ticked");
    assert!(
        last.zones_done <= last.zones_total,
        "ticks cannot exceed the planned total"
    );
    for w in ticks.windows(2) {
        assert!(
            w[0].zones_done <= w[1].zones_done,
            "zones_done must be monotone"
        );
        assert!(w[0].rung <= w[1].rung, "the ladder only descends");
        assert!(
            w[0].elapsed_ms <= w[1].elapsed_ms,
            "elapsed time is monotone"
        );
    }
    assert_eq!(
        ticks.iter().filter(|p| p.done).count(),
        1,
        "exactly one done tick"
    );
}

#[test]
fn progress_ticks_total_the_answered_cells_at_every_thread_count() {
    // Every (intersection, zone) cell ticks once when its share-plan group
    // is answered, whichever worker answered it and however many members
    // the group has. No interval of this fixture is infeasible, so every
    // planned cell is answered.
    let design = Design::from_benchmark(&Benchmark::s15850(), 7);
    for threads in [1usize, 2, 4] {
        let last: Arc<Mutex<Option<Progress>>> = Arc::new(Mutex::new(None));
        let sink_last = Arc::clone(&last);
        let tracker = ProgressTracker::enabled(Duration::from_millis(5), move |p: &Progress| {
            *sink_last.lock().expect("sink lock") = Some(p.clone());
        });
        let ins = Instruments {
            progress: tracker,
            ..Instruments::from_config(&small_config(threads))
        };
        let out = ClkWaveMin::new(small_config(threads))
            .run_instrumented(&design, &ins)
            .expect("run");
        let counters = &out.report.as_ref().expect("report").counters;
        let last = last
            .lock()
            .expect("final lock")
            .clone()
            .expect("a final tick");
        assert!(
            last.done,
            "threads={threads}: the last tick is the done tick"
        );
        assert_eq!(
            last.zones_done, counters.zone_cells,
            "threads={threads}: ticks must total the answered cells"
        );
        assert_eq!(
            last.zones_done, last.zones_total,
            "threads={threads}: every planned cell is answered"
        );
        assert!(
            counters.zones_shared > 0,
            "threads={threads}: the fixture must share groups"
        );
    }
}

#[test]
fn multimode_progress_ticks_alike_at_every_thread_count() {
    // ClkWaveMin-M solves through the same interval framework, once per
    // window-margin pass, so each pass ends with its own done tick. The
    // done ticks' counts are deterministic: equal at 1, 2 and 4 threads.
    let design = Design::from_benchmark_multimode_levels(
        &Benchmark::s15850(),
        3,
        4,
        4,
        Volts::new(0.9),
        Volts::new(1.1),
    );
    let mut done_ticks = Vec::new();
    for threads in [1usize, 2, 4] {
        let seen: Arc<Mutex<Vec<Progress>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let tracker = ProgressTracker::enabled(Duration::from_millis(1), move |p: &Progress| {
            sink_seen.lock().expect("sink lock").push(p.clone());
        });
        let cfg = small_config(threads).with_skew_bound(Picoseconds::new(20.0));
        let ins = Instruments {
            progress: tracker,
            ..Instruments::from_config(&cfg)
        };
        ClkWaveMinM::new(cfg)
            .run_instrumented(&design, &ins)
            .expect("multimode run");
        let ticks = seen.lock().expect("final lock");
        let done: Vec<(u64, u64, u64)> = ticks
            .iter()
            .filter(|p| p.done)
            .map(|p| (p.zones_done, p.zones_total, p.rung))
            .collect();
        assert!(!done.is_empty(), "threads={threads}: no done tick");
        assert!(
            ticks.last().is_some_and(|p| p.done),
            "threads={threads}: the last tick is a done tick"
        );
        for &(zones_done, zones_total, _) in &done {
            assert!(
                zones_done <= zones_total,
                "threads={threads}: {zones_done} of {zones_total} zones done"
            );
        }
        assert!(
            done.iter().any(|&(zones_done, _, _)| zones_done > 0),
            "threads={threads}: some zone solves must have ticked"
        );
        done_ticks.push(done);
    }
    assert_eq!(done_ticks[0], done_ticks[1], "1 vs 2 threads");
    assert_eq!(done_ticks[0], done_ticks[2], "1 vs 4 threads");
}
