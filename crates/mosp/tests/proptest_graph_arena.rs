//! Property-based equivalence of the arena-backed [`MospGraph`] against a
//! plain Vec-of-Vec reference model (the storage layout the graph used
//! before weights were interned into a flat arena). The two must be
//! observationally identical: same arc lists with the same weight values,
//! same topological order, same longest-path bounds, and the exact solver
//! must return the reference model's brute-force Pareto front.

use proptest::prelude::*;
use wavemin_mosp::kernels::dominates;
use wavemin_mosp::{solve, Budget, MospGraph, VertexId};

/// The old storage layout: every arc owns its weight vector.
#[derive(Debug, Clone, Default)]
struct RefGraph {
    dim: usize,
    adjacency: Vec<Vec<(usize, Vec<f64>)>>,
}

impl RefGraph {
    fn new(dim: usize) -> Self {
        Self {
            dim,
            adjacency: Vec::new(),
        }
    }

    fn add_vertex(&mut self) -> usize {
        self.adjacency.push(Vec::new());
        self.adjacency.len() - 1
    }

    fn add_arc(&mut self, from: usize, to: usize, w: Vec<f64>) {
        self.adjacency[from].push((to, w));
    }

    /// Kahn's algorithm with the same LIFO tie-break as `MospGraph`.
    fn topological_order(&self) -> Vec<usize> {
        let n = self.adjacency.len();
        let mut indegree = vec![0usize; n];
        for arcs in &self.adjacency {
            for (to, _) in arcs {
                indegree[*to] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for (to, _) in &self.adjacency[v] {
                indegree[*to] -= 1;
                if indegree[*to] == 0 {
                    queue.push(*to);
                }
            }
        }
        order
    }

    /// Brute-force enumeration of all source→dest path costs.
    fn all_costs(&self, src: usize, dest: usize) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        let mut stack = vec![(src, vec![0.0; self.dim])];
        while let Some((v, cost)) = stack.pop() {
            if v == dest {
                out.push(cost);
                continue;
            }
            for (to, w) in &self.adjacency[v] {
                let mut c = cost.clone();
                for (a, b) in c.iter_mut().zip(w) {
                    *a += b;
                }
                stack.push((*to, c));
            }
        }
        out
    }
}

/// An instance built twice: arena-backed and reference layout, from the
/// same arc stream. Weights are drawn from a small pool so interning
/// actually shares slots (like WaveMin's per-(sink, option) vectors shared
/// across predecessor arcs).
#[derive(Debug, Clone)]
struct Paired {
    arena: MospGraph,
    reference: RefGraph,
    src: usize,
    dest: usize,
}

fn arb_paired(max_rows: usize, max_cols: usize, dims: usize) -> impl Strategy<Value = Paired> {
    let pool = proptest::collection::vec(proptest::collection::vec(0.0..50.0f64, dims), 1..6);
    (1..=max_rows, 1..=max_cols, pool).prop_flat_map(move |(r, c, pool)| {
        proptest::collection::vec(0..pool.len(), r * c).prop_map(move |picks| {
            let mut arena = MospGraph::new(dims);
            let mut reference = RefGraph::new(dims);
            let src = arena.add_vertex();
            assert_eq!(reference.add_vertex(), src.0);
            let mut prev = vec![src];
            let mut pick = picks.iter();
            for _ in 0..r {
                let mut row = Vec::new();
                for _ in 0..c {
                    let v = arena.add_vertex();
                    assert_eq!(reference.add_vertex(), v.0);
                    let w = &pool[*pick.next().unwrap()];
                    for &u in &prev {
                        arena.add_arc_slice(u, v, w).unwrap();
                        reference.add_arc(u.0, v.0, w.clone());
                    }
                    row.push(v);
                }
                prev = row;
            }
            let dest = arena.add_vertex();
            assert_eq!(reference.add_vertex(), dest.0);
            let zero = vec![0.0; dims];
            for &u in &prev {
                arena.add_arc_slice(u, dest, &zero).unwrap();
                reference.add_arc(u.0, dest.0, zero.clone());
            }
            Paired {
                arena,
                reference,
                src: src.0,
                dest: dest.0,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arc_lists_match_the_reference(p in arb_paired(4, 3, 3)) {
        prop_assert_eq!(p.arena.vertex_count(), p.reference.adjacency.len());
        let ref_arcs: usize = p.reference.adjacency.iter().map(Vec::len).sum();
        prop_assert_eq!(p.arena.arc_count(), ref_arcs);
        for v in 0..p.arena.vertex_count() {
            let got: Vec<(usize, Vec<f64>)> = p
                .arena
                .out_arcs(VertexId(v))
                .map(|(to, w)| (to.0, w.to_vec()))
                .collect();
            prop_assert_eq!(&got, &p.reference.adjacency[v], "vertex {}", v);
        }
    }

    #[test]
    fn interning_never_exceeds_arc_count(p in arb_paired(4, 4, 2)) {
        prop_assert!(p.arena.unique_weight_count() <= p.arena.arc_count());
        // The generator draws from a pool of < 6 vectors plus the zero
        // vector, so the arena must have collapsed to at most 7 slots.
        prop_assert!(p.arena.unique_weight_count() <= 7);
    }

    #[test]
    fn topological_order_matches_the_reference(p in arb_paired(4, 3, 2)) {
        let got: Vec<usize> = p
            .arena
            .topological_order()
            .unwrap()
            .into_iter()
            .map(|v| v.0)
            .collect();
        prop_assert_eq!(got, p.reference.topological_order());
    }

    #[test]
    fn pareto_front_matches_reference_brute_force(p in arb_paired(4, 3, 3)) {
        let set = solve::exact(
            &p.arena,
            VertexId(p.src),
            VertexId(p.dest),
            None,
            &Budget::unlimited(),
            None,
        ).unwrap();
        let brute = p.reference.all_costs(p.src, p.dest);
        for path in set.paths() {
            prop_assert!(
                !brute.iter().any(|c| dominates(c, &path.cost)),
                "arena solver returned a dominated path"
            );
        }
        for c in &brute {
            if !brute.iter().any(|c2| dominates(c2, c)) {
                prop_assert!(
                    set.paths().iter().any(
                        |path| path.cost.iter().zip(c).all(|(a, b)| (a - b).abs() < 1e-9)
                    ),
                    "arena solver missed nondominated cost {:?}", c
                );
            }
        }
    }

    #[test]
    fn path_upper_bounds_match_reference_longest_paths(p in arb_paired(4, 3, 2)) {
        let ub = p.arena.path_upper_bounds(VertexId(p.src)).unwrap();
        // Reference longest path per dimension over all brute-force costs
        // (every vertex is on some src→dest path in the layered shape).
        let brute = p.reference.all_costs(p.src, p.dest);
        let dim = p.arena.dim();
        let mut want = vec![0.0f64; dim];
        for c in &brute {
            for k in 0..dim {
                if c[k] > want[k] {
                    want[k] = c[k];
                }
            }
        }
        for k in 0..dim {
            prop_assert!((ub[k] - want[k]).abs() < 1e-9, "dim {}: {} vs {}", k, ub[k], want[k]);
        }
    }
}
