//! The weighted directed graph underlying the MOSP problem.
//!
//! Arc weights are `r`-dimensional sample vectors; on WaveMin instances
//! `r = |S|` can reach 158 and every candidate's vector is shared by one
//! arc per predecessor vertex. Weights therefore live in a single flat
//! `f64` arena and arcs carry `(target, weight-slot)` handles: identical
//! vectors are interned once per graph instead of cloned per arc, and the
//! solvers propagate labels over contiguous arena slices.

use serde::Serialize;
// Intern lookups by weight hash; the table is never iterated.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::fmt;

/// Index of a vertex within a [`MospGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct VertexId(pub usize);

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Errors raised while building or solving a MOSP instance.
#[derive(Debug, Clone, PartialEq)]
pub enum MospError {
    /// An arc weight's dimension does not match the graph's.
    DimensionMismatch {
        /// The graph's weight dimension `r`.
        expected: usize,
        /// The offending weight's length.
        got: usize,
    },
    /// An arc endpoint is out of range.
    InvalidVertex(VertexId),
    /// The graph contains a directed cycle (solvers require a DAG).
    Cyclic,
    /// No path exists from source to destination.
    NoPath,
    /// An arc weight is negative or non-finite.
    InvalidWeight(f64),
    /// A solver parameter is out of range (e.g. `ε <= 0`).
    InvalidParameter(&'static str),
}

impl fmt::Display for MospError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MospError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "arc weight has {got} dimensions, graph expects {expected}"
                )
            }
            MospError::InvalidVertex(v) => write!(f, "vertex {v} does not exist"),
            MospError::Cyclic => write!(f, "graph contains a directed cycle"),
            MospError::NoPath => write!(f, "no path from source to destination"),
            MospError::InvalidWeight(w) => {
                write!(f, "arc weights must be finite and non-negative, got {w}")
            }
            MospError::InvalidParameter(p) => write!(f, "invalid solver parameter: {p}"),
        }
    }
}

impl std::error::Error for MospError {}

/// A directed graph with `r`-dimensional non-negative arc weights backed
/// by a flat interned weight arena.
#[derive(Debug, Clone, Serialize)]
// Intern lookups by weight hash; the table is never iterated.
#[allow(clippy::disallowed_types)]
pub struct MospGraph {
    dim: usize,
    /// Flat weight storage; slot `i` occupies `weights[i*dim .. (i+1)*dim]`.
    weights: Vec<f64>,
    /// Outgoing adjacency: `(target, weight slot)` per source vertex.
    adjacency: Vec<Vec<(VertexId, u32)>>,
    /// Intern table: weight hash → candidate slots (not serialized; misses
    /// only cost arena space, never correctness).
    #[serde(skip)]
    intern: HashMap<u64, Vec<u32>>,
}

/// Graphs compare observationally: same dimension and the same arcs with
/// the same weight *values* (slot numbering and intern state are ignored,
/// so a graph with an emptied intern table equals its original).
impl PartialEq for MospGraph {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.adjacency.len() == other.adjacency.len()
            && (0..self.adjacency.len()).all(|v| {
                let a = &self.adjacency[v];
                let b = &other.adjacency[v];
                a.len() == b.len()
                    && a.iter().zip(b).all(|(&(ta, sa), &(tb, sb))| {
                        ta == tb && self.weight_slice(sa) == other.weight_slice(sb)
                    })
            })
    }
}

impl MospGraph {
    /// Creates an empty graph with weight dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    #[must_use]
    // Intern lookups by weight hash; the table is never iterated.
    #[allow(clippy::disallowed_types)]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "weight dimension must be positive");
        Self {
            dim,
            weights: Vec::new(),
            adjacency: Vec::new(),
            intern: HashMap::new(),
        }
    }

    /// The arc-weight dimension `r`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of arcs.
    #[must_use]
    pub fn arc_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// Number of distinct weight vectors stored in the arena. With
    /// interning this is at most [`Self::arc_count`]; the gap is the
    /// storage the arena saved over per-arc clones.
    #[must_use]
    pub fn unique_weight_count(&self) -> usize {
        self.weights.len() / self.dim
    }

    /// Adds a vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.adjacency.push(Vec::new());
        VertexId(self.adjacency.len() - 1)
    }

    /// Adds `n` vertices, returning their ids.
    pub fn add_vertices(&mut self, n: usize) -> Vec<VertexId> {
        (0..n).map(|_| self.add_vertex()).collect()
    }

    /// Adds a weighted arc `from → to` (see [`Self::add_arc_slice`]).
    ///
    /// # Errors
    ///
    /// Returns [`MospError::DimensionMismatch`] for a wrong-sized weight,
    /// [`MospError::InvalidVertex`] for out-of-range endpoints and
    /// [`MospError::InvalidWeight`] for negative / non-finite components.
    pub fn add_arc(
        &mut self,
        from: VertexId,
        to: VertexId,
        weight: Vec<f64>,
    ) -> Result<(), MospError> {
        self.add_arc_slice(from, to, &weight)
    }

    /// Adds a weighted arc `from → to` without taking ownership of the
    /// weight: the vector is interned into the arena (stored once however
    /// many arcs share it), so callers can pass the same borrowed slice
    /// for every predecessor without cloning.
    ///
    /// # Errors
    ///
    /// Same as [`Self::add_arc`].
    pub fn add_arc_slice(
        &mut self,
        from: VertexId,
        to: VertexId,
        weight: &[f64],
    ) -> Result<(), MospError> {
        self.add_fan_in(&[from], to, weight)
    }

    /// Adds the arc `u → to` for every `u` in `from`, in order, all
    /// sharing `weight`: one candidate's fan-in in the layered WaveMin
    /// graph. The weight is validated and interned once for the whole
    /// fan-in; an empty `from` adds nothing, and a rejected call leaves no
    /// trace.
    ///
    /// # Errors
    ///
    /// Same as [`Self::add_arc`].
    pub fn add_fan_in(
        &mut self,
        from: &[VertexId],
        to: VertexId,
        weight: &[f64],
    ) -> Result<(), MospError> {
        if weight.len() != self.dim {
            return Err(MospError::DimensionMismatch {
                expected: self.dim,
                got: weight.len(),
            });
        }
        let n = self.adjacency.len();
        if let Some(&u) = from.iter().find(|u| u.0 >= n) {
            return Err(MospError::InvalidVertex(u));
        }
        if to.0 >= n {
            return Err(MospError::InvalidVertex(to));
        }
        if let Some(w) = crate::kernels::invalid_weight(weight) {
            return Err(MospError::InvalidWeight(w));
        }
        if from.is_empty() {
            return Ok(());
        }
        let slot = self.intern_weight(weight);
        for u in from {
            self.adjacency[u.0].push((to, slot));
        }
        Ok(())
    }

    /// Finds the arena slot holding `weight`, appending it when new.
    fn intern_weight(&mut self, weight: &[f64]) -> u32 {
        let hash = hash_bits(weight);
        if let Some(slots) = self.intern.get(&hash) {
            for &slot in slots {
                let start = slot as usize * self.dim;
                if &self.weights[start..start + self.dim] == weight {
                    return slot;
                }
            }
        }
        let slot = u32::try_from(self.weights.len() / self.dim)
            .unwrap_or_else(|_| panic!("weight arena exceeds u32 slots"));
        self.weights.extend_from_slice(weight);
        self.intern.entry(hash).or_default().push(slot);
        slot
    }

    /// The weight slice of an arena slot.
    #[inline]
    fn weight_slice(&self, slot: u32) -> &[f64] {
        let start = slot as usize * self.dim;
        &self.weights[start..start + self.dim]
    }

    /// The outgoing arcs of a vertex as `(target, weight slice)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_arcs(&self, v: VertexId) -> impl Iterator<Item = (VertexId, &[f64])> + '_ {
        self.adjacency[v.0]
            .iter()
            .map(move |&(to, slot)| (to, self.weight_slice(slot)))
    }

    /// Out-degree of a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.adjacency[v.0].len()
    }

    /// Topological order of all vertices.
    ///
    /// # Errors
    ///
    /// Returns [`MospError::Cyclic`] when the graph is not a DAG.
    pub fn topological_order(&self) -> Result<Vec<VertexId>, MospError> {
        let n = self.adjacency.len();
        let mut indegree = vec![0usize; n];
        for arcs in &self.adjacency {
            for (to, _) in arcs {
                indegree[to.0] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(VertexId(v));
            for (to, _) in &self.adjacency[v] {
                indegree[to.0] -= 1;
                if indegree[to.0] == 0 {
                    queue.push(to.0);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(MospError::Cyclic)
        }
    }

    /// Per-dimension upper bound on any simple-path cost: the longest-path
    /// value per dimension over the DAG (used by Warburton scaling).
    ///
    /// # Errors
    ///
    /// Returns [`MospError::Cyclic`] when the graph is not a DAG.
    pub fn path_upper_bounds(&self, source: VertexId) -> Result<Vec<f64>, MospError> {
        let order = self.topological_order()?;
        Ok(self.upper_bounds_along(&order, source))
    }

    /// [`Self::path_upper_bounds`] along a topological `order` the caller
    /// already holds. The per-vertex longest-path rows live in one flat
    /// `n × dim` buffer.
    pub(crate) fn upper_bounds_along(&self, order: &[VertexId], source: VertexId) -> Vec<f64> {
        let dim = self.dim;
        let mut best = vec![f64::NEG_INFINITY; self.adjacency.len() * dim];
        best[source.0 * dim..(source.0 + 1) * dim].fill(0.0);
        for v in order {
            let from = v.0 * dim;
            if best[from] == f64::NEG_INFINITY {
                continue;
            }
            for &(to, slot) in &self.adjacency[v.0] {
                let w = self.weight_slice(slot);
                let at = to.0 * dim;
                for k in 0..dim {
                    let cand = best[from + k] + w[k];
                    if cand > best[at + k] {
                        best[at + k] = cand;
                    }
                }
            }
        }
        let mut ub = vec![0.0; dim];
        for row in best.chunks_exact(dim) {
            for (u, &b) in ub.iter_mut().zip(row) {
                if b.is_finite() && b > *u {
                    *u = b;
                }
            }
        }
        ub
    }
}

/// FNV-1a over the raw bit patterns. Weights are validated finite and
/// non-negative before interning, so bitwise equality is sound (the only
/// bitwise-distinct equal pair, `0.0`/`-0.0`, cannot both occur).
fn hash_bits(weight: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in weight {
        for b in w.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_count() {
        let mut g = MospGraph::new(3);
        let vs = g.add_vertices(3);
        g.add_arc(vs[0], vs[1], vec![1.0, 2.0, 3.0]).unwrap();
        g.add_arc(vs[1], vs[2], vec![0.0, 0.0, 0.0]).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.arc_count(), 2);
        assert_eq!(g.dim(), 3);
        assert_eq!(g.out_degree(vs[0]), 1);
        let (to, w) = g.out_arcs(vs[0]).next().unwrap();
        assert_eq!(to, vs[1]);
        assert_eq!(w, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn identical_weights_are_interned_once() {
        let mut g = MospGraph::new(2);
        let vs = g.add_vertices(4);
        let w = vec![1.5, 2.5];
        for &u in &vs[..3] {
            g.add_arc_slice(u, vs[3], &w).unwrap();
        }
        g.add_arc(vs[0], vs[1], vec![9.0, 9.0]).unwrap();
        assert_eq!(g.arc_count(), 4);
        assert_eq!(g.unique_weight_count(), 2, "shared vector stored once");
        for (_, got) in g.out_arcs(vs[1]) {
            assert_eq!(got, w.as_slice());
        }
    }

    #[test]
    fn a_fan_in_equals_one_arc_per_predecessor() {
        let mut per_arc = MospGraph::new(2);
        let mut fan_in = MospGraph::new(2);
        let vs = per_arc.add_vertices(5);
        fan_in.add_vertices(5);
        let w = [0.5, 1.5];
        for &u in &vs[..3] {
            per_arc.add_arc_slice(u, vs[3], &w).unwrap();
        }
        per_arc.add_arc_slice(vs[3], vs[4], &w).unwrap();
        fan_in.add_fan_in(&vs[..3], vs[3], &w).unwrap();
        fan_in.add_fan_in(&vs[3..4], vs[4], &w).unwrap();
        fan_in.add_fan_in(&[], vs[4], &[7.0, 7.0]).unwrap();
        assert_eq!(per_arc, fan_in);
        assert_eq!(fan_in.arc_count(), 4);
        assert_eq!(
            fan_in.unique_weight_count(),
            1,
            "an empty fan-in stores nothing"
        );
        // A bad predecessor anywhere in the fan-in rejects all of it.
        assert_eq!(
            fan_in.add_fan_in(&[vs[0], VertexId(9)], vs[4], &w),
            Err(MospError::InvalidVertex(VertexId(9)))
        );
        assert_eq!(
            fan_in
                .add_fan_in(&vs[..2], vs[4], &[1.0, f64::NAN])
                .map_err(|e| e.to_string()),
            Err(MospError::InvalidWeight(f64::NAN).to_string())
        );
        assert_eq!(fan_in.arc_count(), 4, "rejected fan-ins leave no trace");
    }

    #[test]
    fn rejects_bad_arcs() {
        let mut g = MospGraph::new(2);
        let a = g.add_vertex();
        let b = g.add_vertex();
        assert!(matches!(
            g.add_arc(a, b, vec![1.0]),
            Err(MospError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            g.add_arc(a, VertexId(99), vec![1.0, 1.0]),
            Err(MospError::InvalidVertex(_))
        ));
        assert!(matches!(
            g.add_arc(a, b, vec![-1.0, 1.0]),
            Err(MospError::InvalidWeight(_))
        ));
        assert!(matches!(
            g.add_arc(a, b, vec![f64::NAN, 1.0]),
            Err(MospError::InvalidWeight(_))
        ));
        assert_eq!(g.arc_count(), 0, "rejected arcs leave no trace");
        assert_eq!(g.unique_weight_count(), 0);
    }

    #[test]
    fn topological_order_of_chain() {
        let mut g = MospGraph::new(1);
        let vs = g.add_vertices(4);
        for w in vs.windows(2) {
            g.add_arc(w[0], w[1], vec![1.0]).unwrap();
        }
        let order = g.topological_order().unwrap();
        let pos: Vec<usize> = vs
            .iter()
            .map(|v| order.iter().position(|o| o == v).unwrap())
            .collect();
        assert!(pos.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = MospGraph::new(1);
        let vs = g.add_vertices(2);
        g.add_arc(vs[0], vs[1], vec![1.0]).unwrap();
        g.add_arc(vs[1], vs[0], vec![1.0]).unwrap();
        assert_eq!(g.topological_order(), Err(MospError::Cyclic));
        assert_eq!(g.path_upper_bounds(vs[0]), Err(MospError::Cyclic));
    }

    #[test]
    fn upper_bounds_take_longest_path() {
        let mut g = MospGraph::new(2);
        let vs = g.add_vertices(3);
        g.add_arc(vs[0], vs[1], vec![5.0, 1.0]).unwrap();
        g.add_arc(vs[0], vs[1], vec![1.0, 5.0]).unwrap();
        g.add_arc(vs[1], vs[2], vec![2.0, 2.0]).unwrap();
        let ub = g.path_upper_bounds(vs[0]).unwrap();
        assert_eq!(ub, vec![7.0, 7.0]);
    }

    #[test]
    fn observational_equality_ignores_slot_numbering() {
        // Same arcs added in different orders → different slot layout,
        // equal graphs.
        let mut a = MospGraph::new(2);
        let va = a.add_vertices(3);
        a.add_arc(va[0], va[1], vec![1.0, 2.0]).unwrap();
        a.add_arc(va[0], va[2], vec![3.0, 4.0]).unwrap();

        let mut b = MospGraph::new(2);
        let vb = b.add_vertices(3);
        b.add_arc(vb[0], vb[2], vec![3.0, 4.0]).unwrap();
        // Rebuild so arc order under v0 matches `a`.
        let mut c = MospGraph::new(2);
        let vc = c.add_vertices(3);
        c.add_arc(vc[0], vc[1], vec![1.0, 2.0]).unwrap();
        c.add_arc(vc[0], vc[2], vec![3.0, 4.0]).unwrap();
        assert_eq!(a, c);
        assert_ne!(a, b);
    }

    #[test]
    fn graph_without_intern_table_still_works() {
        // The intern table is `#[serde(skip)]` and may be empty. Simulate
        // that state — serialization must succeed
        // and later arc additions must still be correct (an intern miss
        // only appends a duplicate slot, never corrupts weights).
        let mut g = MospGraph::new(2);
        let vs = g.add_vertices(3);
        g.add_arc(vs[0], vs[1], vec![1.0, 2.0]).unwrap();
        g.add_arc(vs[1], vs[2], vec![1.0, 2.0]).unwrap();
        assert!(serde_json::to_string(&g).is_ok());
        let mut back = g.clone();
        back.intern.clear();
        assert_eq!(g, back, "equality ignores intern state");
        back.add_arc(vs[2], vs[0], vec![1.0, 2.0]).unwrap();
        assert_eq!(back.arc_count(), 3);
        let (_, w) = back.out_arcs(vs[2]).next().unwrap();
        assert_eq!(w, &[1.0, 2.0]);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = MospError::DimensionMismatch {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains('4'));
        assert!(MospError::Cyclic.to_string().contains("cycle"));
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dimension_rejected() {
        let _ = MospGraph::new(0);
    }
}
