//! Pareto path sets and dominance.

use crate::budget::Exhaustion;
use crate::graph::VertexId;
use crate::kernels;
use serde::Serialize;
use std::cmp::Ordering;

/// `true` when `a` dominates `b`: componentwise `a <= b` with at least one
/// strict inequality. Computed by [`crate::kernels::dominates`]
/// (bit-identical to its scalar reference).
///
/// Edge cases, pinned by unit tests so kernel rewrites cannot drift:
///
/// * **Equal vectors never dominate** — in particular `dominates(a, a)`
///   is `false` for every `a`: there is no strict component.
/// * **Empty vectors never dominate**: with zero components there is no
///   strict inequality, so `dominates(&[], &[])` is `false`.
/// * **NaN components are incomparable**: a NaN is neither `>` nor `<`
///   anything, so a NaN pair neither disqualifies dominance nor counts as
///   the required strict inequality. `[NaN]` vs `[1.0]` is `false` both
///   ways, while `[NaN, 1.0]` still dominates `[NaN, 2.0]` — the NaN pair
///   contributes nothing and the second component is strictly smaller.
///
/// # Panics
///
/// Panics if the vectors differ in length.
#[must_use]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    kernels::dominates(a, b)
}

/// Inserts `cost` into a mutable Pareto frontier of `(cost, payload)` pairs,
/// dropping dominated entries. Returns `false` (and leaves the frontier
/// unchanged) when `cost` is itself dominated or duplicated.
///
/// This is the simple linear-scan form for ad-hoc `Vec`-backed frontiers;
/// a maintained front that is inserted into repeatedly should use
/// [`ParetoFront`], which caches per-entry min–max keys to skip most
/// comparisons outright.
pub fn insert_nondominated<T>(
    frontier: &mut Vec<(Vec<f64>, T)>,
    cost: Vec<f64>,
    payload: T,
) -> bool {
    for (c, _) in frontier.iter() {
        if kernels::dominates_or_eq(c, &cost) {
            return false;
        }
    }
    frontier.retain(|(c, _)| !dominates(&cost, c));
    frontier.push((cost, payload));
    true
}

/// Sort/pruning keys cached per [`ParetoFront`] entry.
///
/// For a NaN-free vector both keys are its `max_component`, and the
/// pruning rule is the pair of implications
///
/// * `a` dominates `b` (all `a <= b`) ⟹ `max(a) <= max(b)`, and
/// * conversely `max(a) > max(b)` ⟹ `a` cannot dominate `b`,
///
/// so entries are kept sorted by `lo` and a candidate only needs full
/// comparisons against the prefix with `lo <= max(candidate)` (rejection
/// direction) and entries with `hi >= max(candidate)` (eviction
/// direction). A NaN component breaks the implication (the NaN position
/// is excluded from both the dominance test and the max), so vectors
/// containing NaN get the sentinel keys `(-inf, +inf)`: they sort first,
/// are never skipped in either direction, and the scan stays sound.
#[derive(Debug, Clone, Copy)]
struct FrontKey {
    lo: f64,
    hi: f64,
}

impl FrontKey {
    fn of(cost: &[f64]) -> Self {
        if cost.iter().any(|c| c.is_nan()) {
            Self {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
            }
        } else {
            let m = kernels::max_component(cost);
            Self { lo: m, hi: m }
        }
    }
}

/// A maintained Pareto frontier with cached per-entry `max_component`
/// keys, a sorted-by-key index, and contiguous cost storage.
///
/// Entry costs live in one flat `f64` slab (stride = the front's
/// dimension) kept in ascending key order, so a candidate's dominance
/// screening is one contiguous forward pass over the prefix of the slab
/// its key admits — no per-entry pointer chasing — and everything past
/// the candidate's key partition is skipped without touching its
/// components at all (see [`FrontKey`] for the soundness argument,
/// including NaN inputs). [`ParetoFront::counters`] reports how many full
/// comparisons ran versus how many the key index short-circuited.
#[derive(Debug, Clone)]
pub struct ParetoFront<T> {
    dim: usize,
    keys: Vec<FrontKey>,
    costs: Vec<f64>,
    payloads: Vec<T>,
    checks: u64,
    skipped: u64,
}

impl<T> ParetoFront<T> {
    /// An empty front for `dim`-dimensional cost vectors.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            keys: Vec::new(),
            costs: Vec::new(),
            payloads: Vec::new(),
            checks: 0,
            skipped: 0,
        }
    }

    /// Number of nondominated entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the front holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The cost vector of entry `i` (entries are in ascending
    /// `max_component` order, ties in insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn cost(&self, i: usize) -> &[f64] {
        &self.costs[i * self.dim..(i + 1) * self.dim]
    }

    /// The payload of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn payload(&self, i: usize) -> &T {
        &self.payloads[i]
    }

    /// Iterates `(cost, payload)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], &T)> {
        (0..self.len()).map(move |i| (self.cost(i), &self.payloads[i]))
    }

    /// `(full dominance comparisons performed, comparisons skipped via
    /// the sorted key index)` since construction.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.checks, self.skipped)
    }

    /// Consumes the front into `(cost, payload)` pairs in key order.
    #[must_use]
    pub fn into_pairs(self) -> Vec<(Vec<f64>, T)> {
        let Self {
            dim,
            costs,
            payloads,
            ..
        } = self;
        payloads
            .into_iter()
            .enumerate()
            .map(|(i, p)| (costs[i * dim..(i + 1) * dim].to_vec(), p))
            .collect()
    }

    /// Inserts `cost` unless an incumbent weakly dominates it (dominates
    /// or equals — a duplicate is not an improvement), evicting every
    /// incumbent it strictly dominates. Returns whether the candidate was
    /// admitted.
    ///
    /// # Panics
    ///
    /// Panics if `cost` length differs from the front's dimension.
    pub fn insert(&mut self, cost: &[f64], payload: T) -> bool {
        assert_eq!(cost.len(), self.dim, "front dimension mismatch");
        let key = FrontKey::of(cost);
        let n = self.keys.len();
        // Rejection direction: only the sorted prefix with lo <= key.hi
        // can weakly dominate the candidate; scan it as one contiguous
        // slab pass.
        let hi = self
            .keys
            .partition_point(|k| k.lo.total_cmp(&key.hi) != Ordering::Greater);
        self.skipped += (n - hi) as u64;
        if let Some(r) = kernels::dominated_weakly_by_any(&self.costs, self.dim, hi, cost) {
            self.checks += (r + 1) as u64;
            return false;
        }
        self.checks += hi as u64;
        // Eviction direction: an incumbent with hi < key.lo cannot be
        // dominated by the candidate; compact survivors in place.
        let mut w = 0;
        for r in 0..n {
            let reachable = self.keys[r].hi.total_cmp(&key.lo) != Ordering::Less;
            let doomed = if reachable {
                self.checks += 1;
                kernels::dominates(cost, self.cost(r))
            } else {
                self.skipped += 1;
                false
            };
            if !doomed {
                if w != r {
                    self.keys[w] = self.keys[r];
                    self.costs
                        .copy_within(r * self.dim..(r + 1) * self.dim, w * self.dim);
                    self.payloads.swap(w, r);
                }
                w += 1;
            }
        }
        self.keys.truncate(w);
        self.payloads.truncate(w);
        self.costs.truncate(w * self.dim);
        // Insert in key order, after equal keys (insertion order breaks
        // ties).
        let p = self
            .keys
            .partition_point(|k| k.lo.total_cmp(&key.lo) != Ordering::Greater);
        self.keys.insert(p, key);
        self.payloads.insert(p, payload);
        let old = self.costs.len();
        self.costs.resize(old + self.dim, 0.0);
        self.costs
            .copy_within(p * self.dim..old, (p + 1) * self.dim);
        self.costs[p * self.dim..(p + 1) * self.dim].copy_from_slice(cost);
        true
    }
}

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
    /// Pareto paths at the destination after the final dominance sweep.
    pub front_size: u64,
    /// Full componentwise dominance comparisons the frontiers performed
    /// (both rejection and eviction directions, plus the final sweep).
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

    /// The path minimizing the worst *weighted* cost component; useful when
    /// dimensions carry different rails or power modes that should be
    /// prioritized unevenly.
    ///
    /// # Panics
    ///
    /// Panics if `weights` length differs from the cost dimension.
    #[must_use]
    pub fn min_max_weighted(&self, weights: &[f64]) -> Option<&ParetoPath> {
        self.paths.iter().min_by(|a, b| {
            let wa = weighted_max(&a.cost, weights);
            let wb = weighted_max(&b.cost, weights);
            wa.total_cmp(&wb)
        })
    }
}

fn weighted_max(cost: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(
        cost.len(),
        weights.len(),
        "weight vector dimension mismatch"
    );
    cost.iter()
        .zip(weights)
        .map(|(c, w)| c * w)
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn pareto_front_matches_simple_insertion() {
        let mut simple: Vec<(Vec<f64>, usize)> = Vec::new();
        let mut front = ParetoFront::new(2);
        let candidates = [
            vec![2.0, 2.0],
            vec![3.0, 3.0],
            vec![2.0, 2.0],
            vec![1.0, 3.0],
            vec![3.0, 1.0],
            vec![1.0, 1.0],
            vec![0.5, 4.0],
        ];
        for (i, c) in candidates.iter().enumerate() {
            let a = insert_nondominated(&mut simple, c.clone(), i);
            let b = front.insert(c, i);
            assert_eq!(a, b, "candidate {i} admission");
        }
        // Same surviving set (the maintained front is key-sorted).
        let mut simple_costs: Vec<Vec<f64>> = simple.into_iter().map(|(c, _)| c).collect();
        simple_costs.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let mut front_costs: Vec<Vec<f64>> = front.iter().map(|(c, _)| c.to_vec()).collect();
        front_costs.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(simple_costs, front_costs);
        let (checks, skipped) = front.counters();
        assert!(checks > 0);
        assert!(skipped > 0, "the key index must skip some comparisons");
    }

    #[test]
    fn pareto_front_orders_by_max_component() {
        let mut front = ParetoFront::new(2);
        assert!(front.insert(&[10.0, 1.0], "a"));
        assert!(front.insert(&[6.0, 6.0], "b"));
        assert!(front.insert(&[1.0, 9.0], "c"));
        assert!(!front.is_empty());
        assert_eq!(front.len(), 3);
        let order: Vec<&str> = front.iter().map(|(_, &p)| p).collect();
        assert_eq!(order, ["b", "c", "a"], "ascending max-component order");
        assert_eq!(front.cost(0), &[6.0, 6.0]);
        assert_eq!(*front.payload(0), "b");
        let pairs = front.into_pairs();
        assert_eq!(pairs[2], (vec![10.0, 1.0], "a"));
    }

    #[test]
    fn pareto_front_handles_nan_entries_soundly() {
        // The max-key shortcut is unsound for NaN vectors in general
        // ([10, 0] dominates [NaN, 5] even though 10 > 5); the sentinel
        // keys must keep such pairs fully compared.
        let mut front = ParetoFront::new(2);
        assert!(front.insert(&[f64::NAN, 5.0], 0));
        assert!(front.insert(&[10.0, 0.0], 1), "dominates the NaN entry");
        assert_eq!(front.len(), 1, "the NaN entry is dominated and evicted");
        assert_eq!(*front.payload(0), 1);
        // Rejection direction: the incumbent's key (10) exceeds the NaN
        // candidate's finite components, yet it dominates the candidate —
        // the +inf sentinel keeps the pair compared.
        let mut front = ParetoFront::new(2);
        assert!(front.insert(&[10.0, 0.0], 0));
        assert!(
            !front.insert(&[f64::NAN, 5.0], 1),
            "dominated NaN candidate"
        );
        // An all-NaN vector is incomparable with everything: admitted,
        // evicts nothing.
        let mut front = ParetoFront::new(2);
        assert!(front.insert(&[1.0, 1.0], 0));
        assert!(front.insert(&[f64::NAN, f64::NAN], 1));
        assert_eq!(front.len(), 2);
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
    fn weighted_min_max_changes_winner() {
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
            ],
            false,
        );
        // Heavily discount dimension 0: the (10, 1) path wins.
        let w = set.min_max_weighted(&[0.1, 1.0]).unwrap();
        assert_eq!(w.cost, vec![10.0, 1.0]);
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
