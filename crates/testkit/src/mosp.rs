//! Shared MOSP benchmark fixtures: the layered WaveMin-shaped graph used
//! by both the criterion benches (`benches/mosp_scaling.rs`) and the
//! `bench_mosp` JSON emitter, plus a small timing helper for the emitter.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};
use wavemin_mosp::{MospGraph, VertexId};

/// Builds a WaveMin-shaped layered graph: `rows` sinks × `cols` candidate
/// cells with `dims`-dimensional weights. Every candidate's full fan-in
/// shares one weight vector, so the arena interns it once per (row, col).
///
/// # Panics
///
/// Panics when an arc is rejected (cannot happen for the generated
/// finite, non-negative weights).
#[must_use]
#[allow(clippy::expect_used)]
pub fn layered(
    rows: usize,
    cols: usize,
    dims: usize,
    seed: u64,
) -> (MospGraph, VertexId, VertexId) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = MospGraph::new(dims);
    let src = g.add_vertex();
    let mut prev = vec![src];
    for _ in 0..rows {
        let mut row = Vec::new();
        for _ in 0..cols {
            let v = g.add_vertex();
            let w: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..100.0)).collect();
            g.add_fan_in(&prev, v, &w)
                .expect("generated weights are valid");
            row.push(v);
        }
        prev = row;
    }
    let dest = g.add_vertex();
    let zero = vec![0.0; dims];
    g.add_fan_in(&prev, dest, &zero)
        .expect("zero weights are valid");
    (g, src, dest)
}

/// Median wall-clock time of `f` over `batches` timed batches, each at
/// least `budget / batches` long — the same scheme as the vendored
/// criterion stand-in, but returning the number instead of printing it.
pub fn median_secs<O, F: FnMut() -> O>(mut f: F, batches: usize, budget: Duration) -> f64 {
    let batches = batches.max(1);
    std::hint::black_box(f()); // warmup
    let per_batch = budget / u32::try_from(batches).unwrap_or(1);
    let mut samples: Vec<f64> = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            std::hint::black_box(f());
            iters += 1;
            if start.elapsed() >= per_batch {
                break;
            }
        }
        samples.push(start.elapsed().as_secs_f64() / iters as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layered_builds_the_expected_shape() {
        let (g, src, dest) = layered(3, 4, 8, 1);
        // src + 3 rows × 4 cols + dest.
        assert_eq!(g.vertex_count(), 14);
        assert_eq!(g.out_degree(src), 4);
        assert_eq!(g.out_degree(dest), 0);
        // Fan-in arcs share interned weights: one unique vector per
        // (row, col) plus the zero vector into dest.
        assert_eq!(g.unique_weight_count(), 3 * 4 + 1);
    }

    #[test]
    fn median_secs_measures_something_positive() {
        let t = median_secs(
            || std::hint::black_box((0..100).sum::<u64>()),
            3,
            Duration::from_millis(5),
        );
        assert!(t > 0.0 && t < 1.0);
    }
}
