//! Criterion bench: the numeric kernel primitives in isolation, the
//! shipped vectorized bodies (`vector`) vs the scalar reference, at the
//! dimensionalities the solver actually runs (|S| = 4·k sampled waveform
//! points; 156 matches the paper's ≈158-point waveforms, 8/32 cover small
//! zones). This is the per-primitive measurement a kernel body is chosen
//! from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wavemin_mosp::kernels::{self, scalar};

/// Deterministic pseudo-random operands (no RNG dependency needed — a
/// fixed linear-congruential walk is plenty for timing).
fn operand(len: usize, salt: u64) -> Vec<f64> {
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0
        })
        .collect()
}

fn bench_add(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_add_into");
    for dims in [8usize, 32, 156] {
        let a = operand(dims, 1);
        let b = operand(dims, 2);
        let mut out = vec![0.0; dims];
        group.bench_with_input(BenchmarkId::new("vector", dims), &dims, |bch, _| {
            bch.iter(|| kernels::add_into(&mut out, std::hint::black_box(&a), &b));
        });
        group.bench_with_input(BenchmarkId::new("scalar", dims), &dims, |bch, _| {
            bch.iter(|| scalar::add_into(&mut out, std::hint::black_box(&a), &b));
        });
    }
    group.finish();
}

fn bench_add_max(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_add_max");
    for dims in [8usize, 32, 156] {
        let a = operand(dims, 3);
        let b = operand(dims, 4);
        group.bench_with_input(BenchmarkId::new("vector", dims), &dims, |bch, _| {
            bch.iter(|| kernels::add_max(std::hint::black_box(&a), &b));
        });
        group.bench_with_input(BenchmarkId::new("scalar", dims), &dims, |bch, _| {
            bch.iter(|| scalar::add_max(std::hint::black_box(&a), &b));
        });
    }
    group.finish();
}

fn bench_max_component(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_max_component");
    for dims in [8usize, 32, 156] {
        let a = operand(dims, 5);
        group.bench_with_input(BenchmarkId::new("vector", dims), &dims, |bch, _| {
            bch.iter(|| kernels::max_component(std::hint::black_box(&a)));
        });
        group.bench_with_input(BenchmarkId::new("scalar", dims), &dims, |bch, _| {
            bch.iter(|| scalar::max_component(std::hint::black_box(&a)));
        });
    }
    group.finish();
}

fn bench_dominates(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_dominates");
    for dims in [8usize, 32, 156] {
        // Comparable vectors (a <= b componentwise) force the full scan —
        // the worst case; incomparable pairs early-exit per chunk.
        let a = operand(dims, 6);
        let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
        group.bench_with_input(BenchmarkId::new("vector", dims), &dims, |bch, _| {
            bch.iter(|| kernels::dominates(std::hint::black_box(&a), &b));
        });
        group.bench_with_input(BenchmarkId::new("scalar", dims), &dims, |bch, _| {
            bch.iter(|| scalar::dominates(std::hint::black_box(&a), &b));
        });
    }
    group.finish();
}

/// Operands on the Warburton ε-grid: the f64 operand scaled to integers.
fn grid_operand(len: usize, salt: u64) -> Vec<i64> {
    operand(len, salt)
        .iter()
        .map(|x| (x * 1e3) as i64)
        .collect()
}

fn bench_scaled_leq(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_scaled_leq");
    for dims in [8usize, 32, 156] {
        // a <= b componentwise forces the full scan, as in `dominates`.
        let a = grid_operand(dims, 8);
        let b: Vec<i64> = a.iter().map(|x| x + 1).collect();
        group.bench_with_input(BenchmarkId::new("vector", dims), &dims, |bch, _| {
            bch.iter(|| kernels::scaled_leq(std::hint::black_box(&a), &b));
        });
        group.bench_with_input(BenchmarkId::new("scalar", dims), &dims, |bch, _| {
            bch.iter(|| scalar::scaled_leq(std::hint::black_box(&a), &b));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_add,
    bench_add_max,
    bench_max_component,
    bench_dominates,
    bench_scaled_leq
);
criterion_main!(benches);
