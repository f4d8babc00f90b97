//! Property-based tests for the MOSP solvers: the exact solver must
//! return exactly the nondominated path set, and Warburton must stay
//! within its (1+ε) guarantee.

use proptest::prelude::*;
use wavemin_mosp::kernels::dominates;
use wavemin_mosp::{solve, Budget, Exhaustion, MospGraph, ParetoSet, SolveStats, VertexId};

/// A random layered DAG shaped like a WaveMin zone instance.
#[derive(Debug, Clone)]
struct Layered {
    graph: MospGraph,
    src: VertexId,
    dest: VertexId,
}

fn arb_layered(max_rows: usize, max_cols: usize, dims: usize) -> impl Strategy<Value = Layered> {
    let rows = 1..=max_rows;
    let cols = 1..=max_cols;
    (rows, cols).prop_flat_map(move |(r, c)| {
        proptest::collection::vec(0.0..100.0f64, r * c * dims).prop_map(move |weights| {
            let mut graph = MospGraph::new(dims);
            let src = graph.add_vertex();
            let mut prev = vec![src];
            let mut w_iter = weights.into_iter();
            for _ in 0..r {
                let mut row = Vec::new();
                for _ in 0..c {
                    let v = graph.add_vertex();
                    let w: Vec<f64> = (0..dims).map(|_| w_iter.next().unwrap()).collect();
                    for &u in &prev {
                        graph.add_arc(u, v, w.clone()).unwrap();
                    }
                    row.push(v);
                }
                prev = row;
            }
            let dest = graph.add_vertex();
            for &u in &prev {
                graph.add_arc(u, dest, vec![0.0; dims]).unwrap();
            }
            Layered { graph, src, dest }
        })
    })
}

/// Enumerates all source→dest path costs by brute force.
fn brute_force_costs(l: &Layered) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    let mut stack = vec![(l.src, vec![0.0; l.graph.dim()])];
    while let Some((v, cost)) = stack.pop() {
        if v == l.dest {
            out.push(cost);
            continue;
        }
        for (to, w) in l.graph.out_arcs(v) {
            let mut c = cost.clone();
            for (a, b) in c.iter_mut().zip(w) {
                *a += b;
            }
            stack.push((to, c));
        }
    }
    out
}

/// A solve's answer as bits: each path's cost bits and vertices, the
/// truncation and exhaustion marks, and the solve counters.
type SetBits = (
    Vec<(Vec<u64>, Vec<usize>)>,
    bool,
    Option<Exhaustion>,
    SolveStats,
);

fn bits(set: &ParetoSet) -> SetBits {
    let paths = set
        .paths()
        .iter()
        .map(|p| {
            let cost = p.cost.iter().map(|c| c.to_bits()).collect();
            (cost, p.vertices.iter().map(|v| v.0).collect())
        })
        .collect();
    (paths, set.is_truncated(), set.exhaustion(), *set.stats())
}

/// Solves `l` with one of three solver setups, picked by `mode`: exact
/// uncapped, exact capped at two labels, or Warburton capped at three.
fn solve_with(l: &Layered, mode: usize) -> SetBits {
    let free = Budget::unlimited();
    let set = match mode {
        0 => solve::exact(&l.graph, l.src, l.dest, None, &free, None),
        1 => solve::exact(&l.graph, l.src, l.dest, Some(2), &free, None),
        _ => solve::warburton(&l.graph, l.src, l.dest, 0.1, Some(3), &free, None),
    };
    bits(&set.unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recycled_scratch_solves_bit_identically_to_a_fresh_thread(
        graphs in proptest::collection::vec(
            (1usize..5, 0usize..3).prop_flat_map(|(dims, mode)| {
                (arb_layered(5, 4, dims), Just(mode))
            }),
            1..8,
        ),
    ) {
        // One thread solves the whole sequence, so every solve after the
        // first reuses the frontier slabs the earlier ones returned, at
        // other dimensions and caps. Each fresh thread starts from empty
        // scratch.
        let recycled: Vec<SetBits> = graphs.iter().map(|(l, mode)| solve_with(l, *mode)).collect();
        for ((l, mode), got) in graphs.iter().zip(&recycled) {
            let fresh = std::thread::scope(|s| s.spawn(|| solve_with(l, *mode)).join().unwrap());
            prop_assert_eq!(got, &fresh);
        }
    }

    #[test]
    fn exact_returns_exactly_the_pareto_front(l in arb_layered(4, 3, 3)) {
        let set = solve::exact(&l.graph, l.src, l.dest, None, &Budget::unlimited(), None).unwrap();
        let brute = brute_force_costs(&l);
        // Soundness: no returned path is dominated by any path.
        for p in set.paths() {
            prop_assert!(
                !brute.iter().any(|c| dominates(c, &p.cost)),
                "returned a dominated path"
            );
        }
        // Completeness: every nondominated brute-force cost appears.
        for c in &brute {
            let nondominated = !brute.iter().any(|c2| dominates(c2, c));
            if nondominated {
                prop_assert!(
                    set.paths().iter().any(|p| p.cost.iter().zip(c).all(|(a, b)| (a - b).abs() < 1e-9)),
                    "missing nondominated cost {:?}", c
                );
            }
        }
    }

    #[test]
    fn warburton_respects_epsilon_guarantee(l in arb_layered(4, 3, 3), eps in 0.01..0.6f64) {
        let exact = solve::exact(&l.graph, l.src, l.dest, None, &Budget::unlimited(), None).unwrap();
        let approx = solve::warburton(&l.graph, l.src, l.dest, eps, None, &Budget::unlimited(), None).unwrap();
        let opt = exact.min_max().unwrap().max_component();
        let got = approx.min_max().unwrap().max_component();
        prop_assert!(
            got <= opt * (1.0 + eps) + 1e-6,
            "eps={eps}: approx {got} vs opt {opt}"
        );
        // The approximation can never beat the true optimum.
        prop_assert!(got >= opt - 1e-6);
    }

    #[test]
    fn returned_paths_are_mutually_nondominated(l in arb_layered(5, 4, 2)) {
        let set = solve::exact(&l.graph, l.src, l.dest, None, &Budget::unlimited(), None).unwrap();
        for (i, a) in set.paths().iter().enumerate() {
            for (j, b) in set.paths().iter().enumerate() {
                if i != j {
                    prop_assert!(!dominates(&a.cost, &b.cost));
                }
            }
        }
    }

    #[test]
    fn warburton_paths_come_in_max_key_order_and_are_nondominated(
        l in arb_layered(5, 4, 3),
        eps in 0.01..0.6f64,
        cap in 0usize..6,
    ) {
        let cap = (cap > 0).then_some(cap);
        let set = solve::warburton(&l.graph, l.src, l.dest, eps, cap, &Budget::unlimited(), None)
            .unwrap();
        let paths = set.paths();
        for w in paths.windows(2) {
            prop_assert!(
                w[0].max_component() <= w[1].max_component(),
                "max keys {} then {}", w[0].max_component(), w[1].max_component()
            );
        }
        for (i, a) in paths.iter().enumerate() {
            for (j, b) in paths.iter().enumerate() {
                if i != j {
                    prop_assert!(!dominates(&a.cost, &b.cost), "{:?} dominates {:?}", a.cost, b.cost);
                }
            }
        }
    }

    #[test]
    fn path_costs_re_add_along_vertices(l in arb_layered(4, 3, 2)) {
        let set = solve::exact(&l.graph, l.src, l.dest, None, &Budget::unlimited(), None).unwrap();
        for p in set.paths() {
            let mut cost = vec![0.0; l.graph.dim()];
            for w in p.vertices.windows(2) {
                let (_, arc_w) = l
                    .graph
                    .out_arcs(w[0])
                    .find(|(to, _)| *to == w[1])
                    .expect("path follows arcs");
                for (a, b) in cost.iter_mut().zip(arc_w) {
                    *a += b;
                }
            }
            for (a, b) in cost.iter().zip(&p.cost) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn label_cap_never_loses_feasibility(l in arb_layered(5, 3, 3), cap in 1usize..8) {
        // Capped solves may be suboptimal but must still return a path
        // whose cost is a genuine path cost.
        let set = solve::exact(&l.graph, l.src, l.dest, Some(cap), &Budget::unlimited(), None).unwrap();
        prop_assert!(!set.paths().is_empty());
        let brute = brute_force_costs(&l);
        for p in set.paths() {
            prop_assert!(
                brute.iter().any(|c| c.iter().zip(&p.cost).all(|(a, b)| (a - b).abs() < 1e-9)),
                "capped solver invented a cost"
            );
        }
    }

    #[test]
    fn dominance_is_a_strict_partial_order(
        a in proptest::collection::vec(0.0..10.0f64, 3),
        b in proptest::collection::vec(0.0..10.0f64, 3),
        c in proptest::collection::vec(0.0..10.0f64, 3),
    ) {
        // Irreflexive.
        prop_assert!(!dominates(&a, &a));
        // Antisymmetric.
        if dominates(&a, &b) {
            prop_assert!(!dominates(&b, &a));
        }
        // Transitive.
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }
}
