//! Criterion bench: interchange-format throughput (Liberty parsing,
//! clock tree text round-trips, and SDF parsing and import).

use criterion::{criterion_group, criterion_main, Criterion};
use wavemin::design::Design;
use wavemin::io::{export_sdf, import_sdf, sdf};
use wavemin_cells::{liberty, CellLibrary};
use wavemin_clocktree::{io as tree_io, Benchmark};

fn bench_liberty(c: &mut Criterion) {
    let lib = CellLibrary::nangate45();
    let text = liberty::write_library("nangate45", &lib);
    let mut group = c.benchmark_group("liberty");
    group.bench_function("write", |b| {
        b.iter(|| liberty::write_library("nangate45", std::hint::black_box(&lib)));
    });
    group.bench_function("parse", |b| {
        b.iter(|| liberty::parse_library(std::hint::black_box(&text)).unwrap());
    });
    group.finish();
}

fn bench_tree_io(c: &mut Criterion) {
    let tree = Benchmark::s35932().synthesize(1);
    let text = tree_io::write_tree(&tree);
    let mut group = c.benchmark_group("tree_io_s35932");
    group.bench_function("write", |b| {
        b.iter(|| tree_io::write_tree(std::hint::black_box(&tree)));
    });
    group.bench_function("read", |b| {
        b.iter(|| tree_io::read_tree(std::hint::black_box(&text)).unwrap());
    });
    group.finish();
}

fn bench_sdf(c: &mut Criterion) {
    // The seed-42 scale10k export: 10k sinks, about a quarter of which
    // exhaust the importer's sink-cap walk.
    let design = Design::from_benchmark(&Benchmark::scale("scale10k", 10_000), 42);
    let text = export_sdf(&design).unwrap();
    let mut group = c.benchmark_group("sdf_scale10k");
    group.sample_size(10);
    group.bench_function("parse", |b| {
        b.iter(|| sdf::parse(std::hint::black_box(&text)).unwrap());
    });
    group.bench_function("import", |b| {
        b.iter(|| import_sdf(std::hint::black_box(&text), CellLibrary::nangate45()).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_liberty, bench_tree_io, bench_sdf);
criterion_main!(benches);
