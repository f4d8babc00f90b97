//! Golden-snapshot compare/regenerate helper.
//!
//! A snapshot is a text file whose first `peak_after_ma = …` line is
//! compared numerically to 1e-9 mA (robust to a formatting-only
//! regeneration) and whose remaining lines — assignment listings, delay
//! codes — must match the frozen text exactly. `GOLDEN_REGEN=1` rewrites
//! the snapshot instead of comparing.

use std::fmt::Write as _;
use std::path::Path;
use wavemin::prelude::Outcome;

/// Prefix of the numerically-compared peak line.
pub const PEAK_PREFIX: &str = "peak_after_ma = ";

/// Stable textual form of an outcome: the peak (full precision) and the
/// complete assignment (BTreeMaps iterate in node order, so the listing
/// is deterministic by construction).
#[must_use]
pub fn render_outcome(out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{PEAK_PREFIX}{:.17e}", out.peak_after.value());
    let _ = writeln!(s, "assignment:");
    for (node, cell) in &out.assignment.cells {
        let _ = writeln!(s, "{}={}", node.0, cell);
    }
    for (mode, codes) in out.assignment.delay_codes.iter().enumerate() {
        let _ = writeln!(s, "delay_codes[{mode}]:");
        for (node, code) in codes {
            let _ = writeln!(s, "{}={:.17e}", node.0, code.value());
        }
    }
    s
}

/// Stable textual form of an outcome's normalized run report (the same
/// on every host): the peak line, every stage's name and span count, the
/// counters, one line per zone row and the deterministic histograms.
///
/// # Panics
///
/// Panics when the outcome carries no report.
#[must_use]
pub fn render_report(out: &Outcome) -> String {
    let r = out.report.as_ref().expect("run report").normalized();
    let mut s = format!("{PEAK_PREFIX}{:.17e}\n", out.peak_after.value());
    for t in &r.stages {
        let _ = writeln!(s, "stage {} count={}", t.stage, t.count);
    }
    let _ = writeln!(s, "counters {}", json(&r.counters));
    let _ = writeln!(
        s,
        "degenerate_zones={} ladder_rung={} attribution={}",
        r.degenerate_zones,
        r.ladder_rung,
        r.attribution.is_some()
    );
    for z in &r.zones {
        let _ = writeln!(s, "zone {}", json(z));
    }
    let h = &r.histograms;
    let _ = writeln!(s, "labels_per_zone {}", json(&h.labels_per_zone));
    let _ = writeln!(s, "front_size {}", json(&h.front_size));
    s
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("report fields serialize")
}

fn peak_of(name: &str, snapshot: &str) -> f64 {
    let line = snapshot
        .lines()
        .find(|l| l.starts_with(PEAK_PREFIX))
        .unwrap_or_else(|| panic!("{name}: snapshot has no '{PEAK_PREFIX}' line"));
    line[PEAK_PREFIX.len()..]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{name}: unparsable peak line: {e}"))
}

/// Compares `got` against the snapshot at `dir/name.txt`, or rewrites it
/// when `GOLDEN_REGEN=1` is set.
///
/// # Panics
///
/// Panics on a mismatch, a missing snapshot (naming the regen command),
/// or an I/O failure while regenerating.
pub fn check_snapshot(dir: &Path, name: &str, got: &str) {
    let path = dir.join(format!("{name}.txt"));
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(dir).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with GOLDEN_REGEN=1",
            path.display()
        )
    });
    let got_peak = peak_of(name, got);
    let want_peak = peak_of(name, &want);
    assert!(
        (got_peak - want_peak).abs() <= 1e-9,
        "{name}: peak {got_peak} differs from golden {want_peak}"
    );
    let tail = |s: &str| {
        s.lines()
            .filter(|l| !l.starts_with(PEAK_PREFIX))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        tail(got),
        tail(&want),
        "{name}: output diverged from the golden snapshot"
    );
}
