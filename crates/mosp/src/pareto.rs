//! Pareto path sets and solve counters.

use crate::budget::Exhaustion;
use crate::graph::VertexId;
use crate::kernels;
use serde::Serialize;

/// Counters collected by one label-correcting solve. Always on: the
/// counters are plain local integers inside the DP loop, so the cost is a
/// handful of register increments per label attempt — far below the
/// dominance comparisons they count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SolveStats {
    /// Labels that survived insertion into some vertex frontier (including
    /// the source label).
    pub labels_created: u64,
    /// Labels evicted from an active frontier, by dominance or by the
    /// per-vertex cap. Evicted labels keep their store slot (predecessor
    /// chains stay valid), so this counts frontier removals, not frees.
    pub labels_pruned: u64,
    /// Label-insertion attempts — the same unit the [`crate::Budget`]
    /// work counter charges, but counted unconditionally (the budget's
    /// fast path skips its atomic when no cap is set).
    pub work: u64,
    /// Pareto paths returned at the destination.
    pub front_size: u64,
    /// Full componentwise dominance comparisons the frontiers performed
    /// (both rejection and eviction directions).
    #[serde(default)]
    pub dominance_checks: u64,
    /// Dominance comparisons the sorted min–max key index short-circuited
    /// without touching the cost components.
    #[serde(default)]
    pub dominance_skipped: u64,
}

impl SolveStats {
    /// Componentwise sum, for aggregating across solves.
    #[must_use]
    pub fn plus(&self, other: &Self) -> Self {
        Self {
            labels_created: self.labels_created + other.labels_created,
            labels_pruned: self.labels_pruned + other.labels_pruned,
            work: self.work + other.work,
            front_size: self.front_size + other.front_size,
            dominance_checks: self.dominance_checks + other.dominance_checks,
            dominance_skipped: self.dominance_skipped + other.dominance_skipped,
        }
    }
}

/// One Pareto-optimal source→destination path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ParetoPath {
    /// Componentwise sum of the arc weights along the path.
    pub cost: Vec<f64>,
    /// The vertices visited, source first.
    pub vertices: Vec<VertexId>,
}

impl ParetoPath {
    /// The maximum cost component — the min–max objective value of this
    /// path. Computed by [`crate::kernels::max_component`]; a `-0.0`
    /// maximum is canonicalized to `+0.0` (value-equal, and it keeps the
    /// lane-split reduction bit-identical to the scalar reference).
    #[must_use]
    pub fn max_component(&self) -> f64 {
        kernels::max_component(&self.cost)
    }
}

/// The set of (approximately) Pareto-optimal paths returned by a solver.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ParetoSet {
    paths: Vec<ParetoPath>,
    /// `true` when the solver truncated the label sets (the frontier may
    /// be incomplete).
    truncated: bool,
    /// Which resource budget (if any) ran out mid-solve. Implies
    /// `truncated` when set.
    exhausted: Option<Exhaustion>,
    /// Label/work counters of the solve that produced this set.
    #[serde(default)]
    stats: SolveStats,
}

impl ParetoSet {
    /// Wraps solver output.
    #[must_use]
    pub fn new(paths: Vec<ParetoPath>, truncated: bool) -> Self {
        Self {
            paths,
            truncated,
            exhausted: None,
            stats: SolveStats::default(),
        }
    }

    /// Attaches the solve's counters (set once by the DP before returning).
    pub fn set_stats(&mut self, stats: SolveStats) {
        self.stats = stats;
    }

    /// The counters collected while computing this set.
    #[must_use]
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Marks this set as cut short by an exhausted budget (also marks it
    /// truncated: an exhausted solve can have lost frontier paths).
    pub fn mark_exhausted(&mut self, exhausted: Exhaustion) {
        self.truncated = true;
        self.exhausted = Some(exhausted);
    }

    /// Which resource budget ran out during the solve, if any.
    #[must_use]
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        self.exhausted
    }

    /// The Pareto paths found.
    #[must_use]
    pub fn paths(&self) -> &[ParetoPath] {
        &self.paths
    }

    /// `true` when the solver hit its label cap and may have lost paths.
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// The path minimizing the worst cost component (the paper's final
    /// selection among Pareto optima), or `None` for an empty set.
    #[must_use]
    pub fn min_max(&self) -> Option<&ParetoPath> {
        self.paths
            .iter()
            .min_by(|a, b| a.max_component().total_cmp(&b.max_component()))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernels::dominates;

    /// Inserts `cost` into a `Vec`-backed Pareto frontier of `(cost,
    /// payload)` pairs, dropping dominated entries; returns `false` (and
    /// leaves the frontier unchanged) when `cost` is itself dominated or
    /// duplicated. The linear-scan oracle the solver's sorted frontier is
    /// checked against.
    pub(crate) fn insert_nondominated<T>(
        frontier: &mut Vec<(Vec<f64>, T)>,
        cost: Vec<f64>,
        payload: T,
    ) -> bool {
        if frontier
            .iter()
            .any(|(c, _)| kernels::dominates_or_eq(c, &cost))
        {
            return false;
        }
        frontier.retain(|(c, _)| !dominates(&cost, c));
        frontier.push((cost, payload));
        true
    }

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
        assert!(
            !dominates(&[2.0, 2.0], &[2.0, 2.0]),
            "equal does not dominate"
        );
        assert!(!dominates(&[3.0, 1.0], &[1.0, 3.0]));
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn dominance_dimension_mismatch_panics() {
        let _ = dominates(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn a_never_dominates_itself() {
        for a in [
            vec![],
            vec![0.0],
            vec![-0.0, 0.0],
            vec![1.0, 2.0, 3.0],
            vec![f64::INFINITY; 9],
            vec![7.0; 17],
        ] {
            assert!(!dominates(&a, &a), "dominates(a, a) must be false: {a:?}");
        }
    }

    #[test]
    fn empty_vectors_never_dominate() {
        assert!(!dominates(&[], &[]));
    }

    #[test]
    fn single_nan_components_are_incomparable() {
        // NaN is neither < nor > anything: it cannot disqualify dominance
        // and it cannot supply the required strict inequality.
        assert!(!dominates(&[f64::NAN], &[1.0]));
        assert!(!dominates(&[1.0], &[f64::NAN]));
        assert!(!dominates(&[f64::NAN], &[f64::NAN]));
        // A NaN pair contributes nothing; the remaining components decide.
        assert!(dominates(&[f64::NAN, 1.0], &[f64::NAN, 2.0]));
        assert!(!dominates(&[f64::NAN, 3.0], &[f64::NAN, 2.0]));
        assert!(!dominates(&[f64::NAN, 2.0], &[f64::NAN, 2.0]));
    }

    #[test]
    fn frontier_insertion_drops_dominated() {
        let mut f: Vec<(Vec<f64>, ())> = Vec::new();
        assert!(insert_nondominated(&mut f, vec![2.0, 2.0], ()));
        assert!(
            !insert_nondominated(&mut f, vec![3.0, 3.0], ()),
            "dominated"
        );
        assert!(
            !insert_nondominated(&mut f, vec![2.0, 2.0], ()),
            "duplicate"
        );
        assert!(
            insert_nondominated(&mut f, vec![1.0, 3.0], ()),
            "incomparable"
        );
        assert!(
            insert_nondominated(&mut f, vec![1.0, 1.0], ()),
            "dominates all"
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].0, vec![1.0, 1.0]);
    }

    #[test]
    fn min_max_selection() {
        let set = ParetoSet::new(
            vec![
                ParetoPath {
                    cost: vec![10.0, 1.0],
                    vertices: vec![],
                },
                ParetoPath {
                    cost: vec![6.0, 6.0],
                    vertices: vec![],
                },
                ParetoPath {
                    cost: vec![1.0, 9.0],
                    vertices: vec![],
                },
            ],
            false,
        );
        assert_eq!(set.min_max().unwrap().cost, vec![6.0, 6.0]);
    }

    #[test]
    fn empty_set_has_no_min_max() {
        let set = ParetoSet::new(vec![], false);
        assert!(set.min_max().is_none());
        assert!(!set.is_truncated());
    }

    #[test]
    fn max_component() {
        let p = ParetoPath {
            cost: vec![3.0, 7.0, 5.0],
            vertices: vec![],
        };
        assert_eq!(p.max_component(), 7.0);
    }
}
