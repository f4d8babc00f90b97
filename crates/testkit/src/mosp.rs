//! Shared MOSP benchmark fixtures: the layered WaveMin-shaped graph and
//! the solver rows the `bench_mosp` emitter and the `overhead` bench time.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wavemin_mosp::{solve, Budget, MospGraph, ParetoSet, SolveObserver, VertexId};

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

/// One MOSP solver row: a layered fixture and the solver run on it, with
/// a 64-label cap and no budget. `bench_mosp` times every row; the
/// `overhead` bench traces `warburton_rows/8`.
pub struct SolverRow {
    /// The row's name, e.g. `warburton_rows/8`.
    pub name: String,
    graph: MospGraph,
    src: VertexId,
    dest: VertexId,
    /// Warburton's ε; `None` runs the exact solver.
    epsilon: Option<f64>,
}

impl SolverRow {
    /// Solves the row's fixture, reporting to `observer` when given.
    ///
    /// # Panics
    ///
    /// Panics when the solver rejects the fixture (it cannot: ε is
    /// positive and the budget unlimited).
    pub fn solve(&self, observer: Option<&mut dyn SolveObserver>) -> ParetoSet {
        let (g, s, t, budget) = (&self.graph, self.src, self.dest, Budget::unlimited());
        match self.epsilon {
            Some(eps) => solve::warburton(g, s, t, eps, Some(64), &budget, observer),
            None => solve::exact(g, s, t, Some(64), &budget, observer),
        }
        .expect("fixture rows solve")
    }
}

/// Every solver row, each defined here once: zone rows 2 → 8
/// (`warburton_rows/*`), weight dimensions 4 → 156 (`warburton_dims/*`),
/// and ε = 0.01 and 0.5 against the exact solver on one fixture
/// (`solver_kind/*`).
#[must_use]
pub fn solver_rows() -> Vec<SolverRow> {
    let row = |name: String, (graph, src, dest), epsilon| SolverRow {
        name,
        graph,
        src,
        dest,
        epsilon,
    };
    let mut out = Vec::new();
    for rows in [2usize, 4, 8] {
        out.push(row(
            format!("warburton_rows/{rows}"),
            layered(rows, 4, 8, 1),
            Some(0.01),
        ));
    }
    for dims in [4usize, 32, 156] {
        out.push(row(
            format!("warburton_dims/{dims}"),
            layered(5, 4, dims, 2),
            Some(0.01),
        ));
    }
    for (name, epsilon) in [
        ("warburton_e01", Some(0.01)),
        ("warburton_e50", Some(0.5)),
        ("exact", None),
    ] {
        out.push(row(
            format!("solver_kind/{name}"),
            layered(6, 4, 8, 3),
            epsilon,
        ));
    }
    out
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
}
