//! Property-based tests for the MOSP solvers: the exact solver must
//! return exactly the nondominated path set, Warburton must stay
//! within its (1+ε) guarantee, and [`ParetoFront`] must keep its core
//! invariants (mutual nondominance, no lost candidates).

use proptest::prelude::*;
use wavemin_mosp::pareto::dominates;
use wavemin_mosp::{solve, MospGraph, ParetoFront, VertexId};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_returns_exactly_the_pareto_front(l in arb_layered(4, 3, 3)) {
        let set = solve::exact(&l.graph, l.src, l.dest, None).unwrap();
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
        let exact = solve::exact(&l.graph, l.src, l.dest, None).unwrap();
        let approx = solve::warburton(&l.graph, l.src, l.dest, eps).unwrap();
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
        let set = solve::exact(&l.graph, l.src, l.dest, None).unwrap();
        for (i, a) in set.paths().iter().enumerate() {
            for (j, b) in set.paths().iter().enumerate() {
                if i != j {
                    prop_assert!(!dominates(&a.cost, &b.cost));
                }
            }
        }
    }

    #[test]
    fn path_costs_re_add_along_vertices(l in arb_layered(4, 3, 2)) {
        let set = solve::exact(&l.graph, l.src, l.dest, None).unwrap();
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
        let set = solve::exact(&l.graph, l.src, l.dest, Some(cap)).unwrap();
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

    #[test]
    fn pareto_front_invariants_hold_for_raw_rows(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1e30f64..1e30, 4), 1..40),
    ) {
        let mut front = ParetoFront::new(4);
        for (i, r) in rows.iter().enumerate() {
            front.insert(r, i);
        }
        prop_assert!(front.len() <= rows.len());
        prop_assert!(!front.is_empty(), "a nonempty insert stream keeps >= 1");
        // Mutual nondominance: no member strictly dominates another.
        let members: Vec<Vec<f64>> =
            front.iter().map(|(c, _)| c.to_vec()).collect();
        for x in &members {
            for y in &members {
                prop_assert!(
                    x == y || !dominates(x, y),
                    "front members {:?} and {:?} are not mutually nondominated",
                    x, y
                );
            }
        }
        // No lost candidates: every inserted row is weakly dominated by
        // some front member.
        for r in &rows {
            let covered = members.iter().any(|m| {
                m.iter().zip(r).all(|(mc, rc)| mc <= rc)
            });
            prop_assert!(covered, "row {:?} escaped the front", r);
        }
    }
}
