//! Bench: interchange-format throughput (Liberty parsing, clock tree
//! text round-trips, and SDF parsing and import).

use std::hint::black_box;
use wavemin::design::Design;
use wavemin::io::{export_sdf, import_sdf, sdf};
use wavemin_cells::{liberty, CellLibrary};
use wavemin_clocktree::{io as tree_io, Benchmark};
use wavemin_testkit::timing::Bench;

fn main() {
    let bench = Bench::from_args();
    let lib = CellLibrary::nangate45();
    let text = liberty::write_library("nangate45", &lib);
    bench.time("liberty/write", || {
        liberty::write_library("nangate45", black_box(&lib))
    });
    bench.time("liberty/parse", || {
        liberty::parse_library(black_box(&text)).unwrap()
    });

    let tree = Benchmark::s35932().synthesize(1);
    let text = tree_io::write_tree(&tree);
    bench.time("tree_io_s35932/write", || {
        tree_io::write_tree(black_box(&tree))
    });
    bench.time("tree_io_s35932/read", || {
        tree_io::read_tree(black_box(&text)).unwrap()
    });

    // The seed-42 scale10k export: 10k sinks, about a quarter of which
    // exhaust the importer's sink-cap walk.
    let design = Design::from_benchmark(&Benchmark::scale("scale10k", 10_000), 42);
    let text = export_sdf(&design).unwrap();
    bench.time("sdf_scale10k/parse", || {
        sdf::parse(black_box(&text)).unwrap()
    });
    bench.time("sdf_scale10k/import", || {
        import_sdf(black_box(&text), CellLibrary::nangate45()).unwrap()
    });
}
