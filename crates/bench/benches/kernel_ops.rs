//! Bench: the numeric kernel primitives in isolation, each a paired row
//! of the shipped vectorized body (B) over its scalar reference (A), at
//! the dimensionalities the solver actually runs (|S| = 4·k sampled
//! waveform points; 156 matches the paper's ≈158-point waveforms, 8/32
//! cover small zones). A body must win its row (ratio below 1).

use std::hint::black_box;
use wavemin_mosp::kernels::{self, scalar};
use wavemin_testkit::timing::Bench;

const DIMS: [usize; 3] = [8, 32, 156];

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

/// Operands on the Warburton ε-grid: the f64 operand scaled to integers.
fn grid_operand(len: usize, salt: u64) -> Vec<i32> {
    operand(len, salt)
        .iter()
        .map(|x| (x * 1e3) as i32)
        .collect()
}

fn main() {
    let bench = Bench::from_args();
    let row = |group: &str, dims: usize| format!("{group}/vector_vs_scalar/{dims}");
    for dims in DIMS {
        let (a, b) = (operand(dims, 1), operand(dims, 2));
        let (mut out_s, mut out_v) = (vec![0.0; dims], vec![0.0; dims]);
        bench.paired(
            &row("kernel_add_into", dims),
            || scalar::add_into(&mut out_s, black_box(&a), &b),
            || kernels::add_into(&mut out_v, black_box(&a), &b),
        );
    }
    for dims in DIMS {
        let (a, b) = (operand(dims, 3), operand(dims, 4));
        bench.paired(
            &row("kernel_add_max", dims),
            || scalar::add_max(black_box(&a), &b),
            || kernels::add_max(black_box(&a), &b),
        );
    }
    for dims in DIMS {
        let a = operand(dims, 5);
        bench.paired(
            &row("kernel_max_component", dims),
            || scalar::max_component(black_box(&a)),
            || kernels::max_component(black_box(&a)),
        );
    }
    for dims in DIMS {
        // Comparable vectors (a <= b componentwise) force the full scan —
        // the worst case; incomparable pairs early-exit per chunk.
        let a = operand(dims, 6);
        let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
        bench.paired(
            &row("kernel_dominates", dims),
            || scalar::dominates(black_box(&a), &b),
            || kernels::dominates(black_box(&a), &b),
        );
    }
    for dims in DIMS {
        // a <= b componentwise forces the full scan, as in `dominates`.
        let a = grid_operand(dims, 8);
        let b: Vec<i32> = a.iter().map(|x| x + 1).collect();
        bench.paired(
            &row("kernel_scaled_leq", dims),
            || scalar::scaled_leq(black_box(&a), &b),
            || kernels::scaled_leq(black_box(&a), &b),
        );
    }
}
