//! Pins the SDF importer's exact output and error precedence, so a
//! rewrite of the parser or the lowering must reproduce the imported
//! designs bit for bit and report the same typed errors.
//!
//! The fingerprints hash, in arena order, every node's instance name,
//! cell, parent, `sink_cap` bits and `delay_trim` bits, plus each
//! recovered sink arrival. The seed-42 scale exports also pin their
//! `inexact_sinks` counts. Print the current fingerprints with:
//!
//! ```text
//! cargo test -p wavemin --test sdf_import_pins -- --nocapture --include-ignored
//! ```

use std::path::PathBuf;

use wavemin::io::sdf::SdfError;
use wavemin::io::{export_sdf, import_sdf, ImportedDesign};
use wavemin::prelude::*;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn fingerprint(imp: &ImportedDesign) -> u64 {
    let mut h = Fnv::new();
    let tree = &imp.design.tree;
    h.u64(tree.len() as u64);
    for (id, node) in tree.iter() {
        h.str(&imp.instances[id.0]);
        h.str(&node.cell);
        h.u64(node.parent().map_or(u64::MAX, |p| p.0 as u64));
        h.u64(node.sink_cap.value().to_bits());
        h.u64(node.delay_trim.value().to_bits());
    }
    for (name, arrival) in &imp.sink_arrivals {
        h.str(name);
        h.u64(arrival.value().to_bits());
    }
    h.u64(imp.recovered_skew.value().to_bits());
    h.0
}

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn fixture_lib() -> CellLibrary {
    wavemin_cells::liberty::parse_library(&fixture("wavemin_cells.lib"))
        .expect("fixture library parses")
}

fn check(what: &str, imp: &ImportedDesign, want: u64) {
    let got = fingerprint(imp);
    println!("{what}: {got:#018x}");
    assert_eq!(
        got, want,
        "{what}: imported design changed (fingerprint {got:#018x})"
    );
}

#[test]
fn tiny_tree_import_is_pinned() {
    let imp = import_sdf(&fixture("tiny_tree.sdf"), fixture_lib()).expect("import");
    check("tiny_tree.sdf", &imp, 0xfff9_4a91_e246_452e);
}

#[test]
fn mixed16_import_is_pinned() {
    let imp = import_sdf(&fixture("mixed16.sdf"), fixture_lib()).expect("import");
    check("mixed16.sdf", &imp, 0xc67a_b80f_f0a6_9704);
}

#[test]
fn scale10k_export_import_is_pinned() {
    let design = Design::from_benchmark(&Benchmark::scale("scale10k", 10_000), 42);
    let text = export_sdf(&design).expect("export");
    let imp = import_sdf(&text, CellLibrary::nangate45()).expect("import");
    check("scale10k seed 42", &imp, 0x3ec7_3196_734a_5669);
    assert_eq!(imp.inexact_sinks, 2568, "scale10k inexact sinks");
}

#[test]
#[ignore = "exports and imports 100k sinks; run with --include-ignored"]
fn scale100k_export_reports_its_inexact_sinks() {
    let design = Design::from_benchmark(&Benchmark::scale("scale100k", 100_000), 42);
    let text = export_sdf(&design).expect("export");
    let imp = import_sdf(&text, CellLibrary::nangate45()).expect("import");
    assert_eq!(imp.inexact_sinks, 16_941, "scale100k inexact sinks");
}

fn import_err(text: &str) -> WaveMinError {
    match import_sdf(text, CellLibrary::nangate45()) {
        Ok(_) => panic!("import must fail"),
        Err(e) => e,
    }
}

fn sdf_err(text: &str) -> SdfError {
    match import_err(text) {
        WaveMinError::Sdf(e) => e,
        other => panic!("expected an SDF error, got {other:?}"),
    }
}

/// A `CELL` entry for `inst` of type `cell`.
fn cell(cell: &str, inst: &str) -> String {
    format!("(CELL (CELLTYPE \"{cell}\") (INSTANCE {inst}) (DELAY (ABSOLUTE (IOPATH A Z (1.0)))))")
}

/// A top-scope `CELL` holding `nets` as `(driver, load)` instance pairs.
fn nets(pairs: &[(&str, &str)]) -> String {
    let body: String = pairs
        .iter()
        .map(|(d, l)| format!("(INTERCONNECT {d}/Z {l}/A (1.0))"))
        .collect();
    format!("(CELL (CELLTYPE \"top\") (INSTANCE) (DELAY (ABSOLUTE {body})))")
}

fn doc(entries: &[String]) -> String {
    format!("(DELAYFILE {})", entries.join(" "))
}

#[test]
fn multiple_roots_names_the_two_name_first_undriven_instances() {
    // Four undriven instances declared out of name order: the error names
    // the two smallest names, smallest first.
    let text = doc(&[
        cell("BUF_X8", "r9"),
        cell("BUF_X8", "r2"),
        cell("BUF_X8", "r5"),
        cell("BUF_X8", "r1"),
        cell("BUF_X8", "x"),
        nets(&[("r9", "x")]),
    ]);
    assert_eq!(
        sdf_err(&text),
        SdfError::MultipleRoots("r1".into(), "r2".into())
    );
}

#[test]
fn not_a_tree_names_the_name_first_unreached_instance() {
    // root -> a is the tree; {z, m, q} form a driven cycle off to the side.
    let text = doc(&[
        cell("BUF_X8", "root"),
        cell("BUF_X8", "a"),
        cell("BUF_X8", "z"),
        cell("BUF_X8", "q"),
        cell("BUF_X8", "m"),
        nets(&[("root", "a"), ("z", "q"), ("q", "m"), ("m", "z")]),
    ]);
    assert_eq!(sdf_err(&text), SdfError::NotATree("m".into()));
}

#[test]
fn first_net_in_file_order_decides_unknown_vs_multiple_drivers() {
    let decls = [
        cell("BUF_X8", "root"),
        cell("BUF_X8", "a"),
        cell("BUF_X8", "b"),
    ];
    // The duplicate driver of `b` comes first.
    let mut entries = decls.to_vec();
    entries.push(nets(&[("root", "b"), ("a", "b"), ("a", "ghost")]));
    assert_eq!(
        sdf_err(&doc(&entries)),
        SdfError::MultipleDrivers("b".into())
    );
    // The unknown load comes first.
    let mut entries = decls.to_vec();
    entries.push(nets(&[("root", "b"), ("a", "ghost"), ("a", "b")]));
    assert_eq!(
        sdf_err(&doc(&entries)),
        SdfError::UnknownInstance("ghost".into())
    );
    // Within one net the driver is checked before the load.
    let mut entries = decls.to_vec();
    entries.push(nets(&[("phantom", "ghost")]));
    assert_eq!(
        sdf_err(&doc(&entries)),
        SdfError::UnknownInstance("phantom".into())
    );
    // Nets are read in file order across CELL entries: an instance's own
    // INTERCONNECT entries count where that CELL stands.
    let entries = vec![
        cell("BUF_X8", "root"),
        "(CELL (CELLTYPE \"BUF_X8\") (INSTANCE a) (DELAY (ABSOLUTE \
         (IOPATH A Z (1.0)) (INTERCONNECT a/Z ghost/A (1.0)))))"
            .to_owned(),
        nets(&[("root", "a"), ("root", "a")]),
    ];
    assert_eq!(
        sdf_err(&doc(&entries)),
        SdfError::UnknownInstance("ghost".into())
    );
}

#[test]
fn declaration_errors_come_in_file_order() {
    let text = doc(&[cell("BUF_X8", "a"), cell("", "b"), cell("BUF_X8", "a")]);
    assert_eq!(sdf_err(&text), SdfError::EmptyCellType("b".into()));
    let text = doc(&[cell("BUF_X8", "a"), cell("BUF_X8", "a"), cell("", "b")]);
    assert_eq!(sdf_err(&text), SdfError::DuplicateInstance("a".into()));
    assert_eq!(sdf_err(&doc(&[nets(&[("a", "b")])])), SdfError::NoCells);
    // Declaration errors win over net errors.
    let text = doc(&[nets(&[("ghost", "a")]), cell("", "a")]);
    assert_eq!(sdf_err(&text), SdfError::EmptyCellType("a".into()));
}

#[test]
fn missing_cells_are_reported_in_bfs_order_after_topology() {
    // The first unknown cell met in the name-sorted BFS wins: `b` is
    // shallower than `a1` and `a` sorts before `b`.
    let text = doc(&[
        cell("BUF_X8", "root"),
        cell("BUF_X8", "a"),
        cell("NO_SUCH_B", "b"),
        cell("NO_SUCH_A1", "a1"),
        nets(&[("root", "b"), ("root", "a"), ("a", "a1")]),
    ]);
    assert!(matches!(
        import_err(&text),
        WaveMinError::MissingCell(c) if c == "NO_SUCH_B"
    ));
    // A topology error is found before any cell lookup.
    let text = doc(&[
        cell("NO_SUCH", "root"),
        cell("BUF_X8", "a"),
        cell("BUF_X8", "b"),
    ]);
    assert_eq!(
        sdf_err(&text),
        SdfError::MultipleRoots("a".into(), "b".into())
    );
    // An unknown cell on the tree wins over an unreached island.
    let text = doc(&[
        cell("NO_SUCH", "root"),
        cell("BUF_X8", "a"),
        cell("BUF_X8", "y"),
        cell("BUF_X8", "z"),
        nets(&[("root", "a"), ("y", "z"), ("z", "y")]),
    ]);
    assert!(matches!(
        import_err(&text),
        WaveMinError::MissingCell(c) if c == "NO_SUCH"
    ));
    // An unknown cell on the island is never looked up.
    let text = doc(&[
        cell("BUF_X8", "root"),
        cell("BUF_X8", "a"),
        cell("NO_SUCH", "y"),
        cell("BUF_X8", "z"),
        nets(&[("root", "a"), ("y", "z"), ("z", "y")]),
    ]);
    assert_eq!(sdf_err(&text), SdfError::NotATree("y".into()));
}
