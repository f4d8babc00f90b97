//! Multi-objective shortest path (MOSP) solvers.
//!
//! WaveMin casts polarity assignment inside one feasible time interval as a
//! MOSP problem on a layered DAG: every arc carries an `r = |S|`-dimensional
//! noise vector, a path's cost is the componentwise sum of its arc weights,
//! and the wanted solution is the Pareto-optimal path minimizing the maximum
//! component (the *min–max* or *max-ordering* objective).
//!
//! Even for `r = 2` the decision version is NP-complete, so two solvers are
//! provided:
//!
//! * [`solve::exact`] — label-correcting Pareto enumeration over the DAG
//!   (exponential worst case, exact);
//! * [`solve::warburton`] — Warburton's fully polynomial ε-approximation
//!   (OR 35(1), 1987): weights are rounded onto per-dimension grids of
//!   `ε·UB/n` so the label space per vertex is polynomial in `n/ε`, and
//!   every Pareto point is approximated within `(1+ε)`.
//!
//! # Example
//!
//! ```
//! use wavemin_mosp::{Budget, MospGraph, solve};
//!
//! // Two parallel arcs: (10, 1) and (1, 10) — both Pareto-optimal.
//! let mut g = MospGraph::new(2);
//! let s = g.add_vertex();
//! let t = g.add_vertex();
//! g.add_arc(s, t, vec![10.0, 1.0]).unwrap();
//! g.add_arc(s, t, vec![1.0, 10.0]).unwrap();
//! let set = solve::exact(&g, s, t, None, &Budget::unlimited(), None).unwrap();
//! assert_eq!(set.paths().len(), 2);
//! // Min–max picks either (max component 10 both ways).
//! assert_eq!(set.min_max().unwrap().max_component(), 10.0);
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod graph;
pub mod kernels;
pub mod pareto;
pub mod solve;

pub use budget::{Budget, Exhaustion};
pub use graph::{MospError, MospGraph, VertexId};
pub use pareto::{ParetoPath, ParetoSet, SolveStats};
pub use solve::SolveObserver;
