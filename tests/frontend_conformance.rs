//! Front-end conformance: the committed real-format fixtures under
//! `tests/fixtures/` must import, validate, and optimize to the frozen
//! golden outcomes under `tests/golden/` — and the outcome must be
//! identical under threads=1 vs threads=4. Regenerate snapshots (and the generated
//! `mixed16.sdf` fixture) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p wavemin --test frontend_conformance
//! ```

use std::path::PathBuf;
use wavemin::prelude::*;
use wavemin_cells::units::Picoseconds;
use wavemin_testkit::golden;

fn repo_tests_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests")
}

fn fixture(name: &str) -> String {
    let path = repo_tests_dir().join("fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn import_fixture(sdf: &str) -> wavemin::io::ImportedDesign {
    let lib = wavemin_cells::liberty::parse_library(&fixture("wavemin_cells.lib"))
        .expect("fixture library parses");
    wavemin::io::import_sdf(&fixture(sdf), lib).expect("fixture imports")
}

fn conformance_config(threads: usize) -> WaveMinConfig {
    WaveMinConfig::default()
        .with_sample_count(16)
        .with_skew_bound(Picoseconds::new(40.0))
        .with_threads(threads)
}

/// Optimizes `design` at every thread-count corner, asserts all corners
/// render identically, and returns the rendering.
fn render_all_corners(design: &Design) -> String {
    let run = |threads: usize| {
        let out = ClkWaveMin::new(conformance_config(threads))
            .run(design)
            .expect("optimize");
        golden::render_outcome(&out)
    };
    let one = run(1);
    assert_eq!(one, run(4), "outcome must not depend on the thread count");
    one
}

#[test]
fn tiny_tree_arrivals_are_exact() {
    let imp = import_fixture("tiny_tree.sdf");
    assert_eq!(imp.design.tree.len(), 7);
    assert_eq!(imp.design.tree.leaves().len(), 4);
    // Hand-computed chains from the fixture header: s0 lands at 58.0 ps,
    // s1..s3 at 58.25 ps (the inverting branch selects the fall slots).
    let timing = imp.design.timing(0).expect("timing");
    for (name, want) in [("s0", 58.0), ("s1", 58.25), ("s2", 58.25), ("s3", 58.25)] {
        let (chain_name, chain) = imp
            .sink_arrivals
            .iter()
            .find(|(n, _)| n == name)
            .expect("sink present");
        assert_eq!(chain.value(), want, "{chain_name}: SDF chain arrival");
        let id = imp.instances.iter().position(|n| n == name).unwrap();
        assert_eq!(
            timing.output_arrival[id].value(),
            want,
            "{name}: lowered design reproduces the arrival bit-for-bit"
        );
    }
    assert_eq!(imp.recovered_skew.value(), 0.25);
}

#[test]
fn tiny_tree_matches_golden_under_all_corners() {
    let imp = import_fixture("tiny_tree.sdf");
    let rendered = render_all_corners(&imp.design);
    golden::check_snapshot(
        &repo_tests_dir().join("golden"),
        "frontend_tiny_tree",
        &rendered,
    );
}

#[test]
fn mixed16_matches_golden_under_all_corners() {
    let imp = import_fixture("mixed16.sdf");
    assert_eq!(imp.design.tree.len(), 16);
    assert_eq!(imp.design.tree.leaves().len(), 12);
    let rendered = render_all_corners(&imp.design);
    golden::check_snapshot(
        &repo_tests_dir().join("golden"),
        "frontend_mixed16",
        &rendered,
    );
}

#[test]
fn mixed16_fixture_matches_its_generator() {
    // The fixture is the committed export of a testkit design; keep the
    // two in lockstep so the fixture never silently drifts from what the
    // exporter produces. GOLDEN_REGEN=1 rewrites the fixture (keeping
    // its comment header).
    let design = wavemin_testkit::designs::random_polarity_design(5, 3, 12);
    let generated = wavemin::io::export_sdf(&design).expect("export");
    let path = repo_tests_dir().join("fixtures").join("mixed16.sdf");
    let committed = fixture("mixed16.sdf");
    let header: String = committed
        .lines()
        .take_while(|l| l.starts_with("//"))
        .map(|l| format!("{l}\n"))
        .collect();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, format!("{header}{generated}")).expect("rewrite fixture");
        return;
    }
    let body: String = committed
        .lines()
        .skip_while(|l| l.starts_with("//"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        body, generated,
        "tests/fixtures/mixed16.sdf drifted from its generator; \
         regenerate with GOLDEN_REGEN=1"
    );
}
