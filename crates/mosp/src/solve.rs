//! The MOSP solvers: exact Pareto enumeration and Warburton's
//! ε-approximation, with optional resource budgets.

use crate::budget::{Budget, Exhaustion};
use crate::graph::{MospError, MospGraph, VertexId};
use crate::kernels;
use crate::pareto::{ParetoPath, ParetoSet, SolveStats};
use std::cmp::Ordering;

/// Observer hooks for solver-internal trace events, implemented by the
/// event journal in the `wavemin` core crate (which owns the clock and the
/// buffers — this crate stays dependency-free).
///
/// The DP calls these at three granularities:
///
/// * one *layer* span per vertex expansion (all out-arcs of one vertex);
/// * one *label-batch* span per (vertex, arc) pair — every insertion
///   attempt that batch made plus the labels it pruned;
/// * instants for per-vertex cap evictions and the first budget-exhaustion
///   transition.
///
/// Span hooks receive the `start_ns` the caller sampled via [`now_ns`]
/// before the work ran; the observer stamps the end itself. Every hook
/// site in the solver is a single `Option` branch when no observer is
/// attached, so untraced solves pay nothing.
///
/// [`now_ns`]: SolveObserver::now_ns
pub trait SolveObserver {
    /// The observer's current monotonic timestamp, nanoseconds since its
    /// own epoch.
    fn now_ns(&mut self) -> u64;
    /// One finished vertex expansion: `labels` source labels propagated
    /// over all of `vertex`'s out-arcs.
    fn layer_span(&mut self, start_ns: u64, vertex: usize, labels: usize);
    /// One finished (vertex, arc) label batch: `attempts` insertion
    /// attempts into `target`, of which `pruned` incumbent labels were
    /// evicted by dominance.
    fn batch_span(
        &mut self,
        start_ns: u64,
        vertex: usize,
        target: usize,
        attempts: u64,
        pruned: u64,
    );
    /// Instant: the per-vertex cap evicted `count` labels at `vertex`.
    fn cap_evictions(&mut self, vertex: usize, count: u64);
    /// Instant: the shared budget ran out mid-solve (fired once per solve,
    /// on the first `None -> Some` exhaustion transition).
    fn budget_exhausted(&mut self, reason: Exhaustion);
}

/// One vertex's active label frontier: entries sorted by cached min–max
/// key, each naming the slab row that holds its label data.
///
/// The costs of the *active* labels live in one flat `f64` slab (stride =
/// the graph's weight dimension); the ε-solver's scaled grid lives in a
/// parallel `i32` slab with the same row numbering, which stays **empty**
/// in exact mode (see [`grid_cell`] for why 32 bits hold every cell
/// exactly). Only `entries` is kept in ascending key order: a label's
/// slab rows never move once written, and an evicted label's row goes on
/// a free list that the next admitted label reuses, so the slabs never
/// hold more rows than the frontier's peak label count. Keeping the
/// entries in key order restricts the two dominance scans of a candidate
/// insertion by the key partition:
///
/// * rejection: an incumbent dominating (weakly) the candidate satisfies
///   componentwise `inc <= cand`, hence `max(inc) <= max(cand)` — only
///   the sorted prefix with `key <= cand_key` needs comparing;
/// * eviction: symmetrically, only entries with `key >= cand_key` can be
///   dominated by the candidate.
///
/// The implications require NaN-free costs, which the solver guarantees:
/// [`MospGraph`] validates arc weights finite and non-negative, and sums
/// of non-negative finite values never produce NaN (at worst `+inf`,
/// which orders fine).
///
/// Dominated or cap-evicted labels leave the frontier but keep their slot
/// in the vertex's append-only predecessor store, so reconstruction
/// chains stay valid.
#[derive(Debug, Default, Clone)]
struct Frontier {
    entries: Vec<FrontierEntry>,
    costs: Vec<f64>,
    scaled: Vec<i32>,
    /// Slab rows of evicted labels, reused by later commits.
    free: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct FrontierEntry {
    /// Cached max true-cost component: the exact-mode sort key and the
    /// cap-truncation order in both modes.
    fkey: f64,
    /// Cached max scaled component: the ε-mode sort key (grid cells are
    /// compared as integers, never through `f64`). 0 in exact mode.
    ikey: i32,
    /// The label's slot in its vertex's predecessor store.
    slot: usize,
    /// The label's row in the cost (and scaled) slab.
    row: usize,
}

impl Frontier {
    /// Empties the frontier for the spare pool. Its slabs keep their
    /// capacity: the next vertex to take it fills it to a similar size,
    /// and regrowing a slab past the allocator's `mmap` threshold costs
    /// fresh pages on every take. The recycled state is logically
    /// identical to `Frontier::default()` (every operation depends only
    /// on content, never capacity).
    fn recycled(mut self) -> Self {
        self.entries.clear();
        self.costs.clear();
        self.scaled.clear();
        self.free.clear();
        self
    }

    /// Whether the frontier ever held a label (a default one owns no slab).
    fn has_slabs(&self) -> bool {
        self.entries.capacity() > 0
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The costs of the `i`-th label in key order.
    #[inline]
    fn cost(&self, dim: usize, i: usize) -> &[f64] {
        slab_row(&self.costs, dim, self.entries[i].row)
    }

    /// Dominance screening of a candidate: the rejection test against the
    /// admissible sorted prefix, then eviction of every incumbent the
    /// candidate dominates (its row goes to the free list). Returns
    /// whether the candidate belongs in the frontier. Comparison runs on
    /// the scaled grid in ε mode (weak dominance) and on true costs
    /// otherwise.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        dim: usize,
        eps_mode: bool,
        cost: &[f64],
        scaled: &[i32],
        fkey: f64,
        ikey: i32,
        stats: &mut SolveStats,
    ) -> bool {
        let Self {
            entries,
            costs,
            scaled: grid,
            free,
        } = self;
        let n = entries.len();
        let hi = if eps_mode {
            entries.partition_point(|e| e.ikey <= ikey)
        } else {
            entries.partition_point(|e| e.fkey.total_cmp(&fkey) != Ordering::Greater)
        };
        stats.dominance_skipped += (n - hi) as u64;
        let rejected_by = entries[..hi].iter().position(|e| {
            if eps_mode {
                kernels::scaled_leq(slab_row(grid, dim, e.row), scaled)
            } else {
                kernels::dominates_or_eq(slab_row(costs, dim, e.row), cost)
            }
        });
        if let Some(r) = rejected_by {
            stats.dominance_checks += (r + 1) as u64;
            return false;
        }
        stats.dominance_checks += hi as u64;
        let lo = if eps_mode {
            entries.partition_point(|e| e.ikey < ikey)
        } else {
            entries.partition_point(|e| e.fkey.total_cmp(&fkey) == Ordering::Less)
        };
        stats.dominance_skipped += lo as u64;
        stats.dominance_checks += (n - lo) as u64;
        let mut w = lo;
        for r in lo..n {
            let e = entries[r];
            let doomed = if eps_mode {
                kernels::scaled_leq(scaled, slab_row(grid, dim, e.row))
            } else {
                kernels::dominates(cost, slab_row(costs, dim, e.row))
            };
            if doomed {
                free.push(e.row);
            } else {
                entries[w] = e;
                w += 1;
            }
        }
        stats.labels_pruned += (n - w) as u64;
        entries.truncate(w);
        true
    }

    /// Inserts an admitted label's entry at its sorted position (after
    /// equal keys, so ties keep insertion order) and writes its data into
    /// a free slab row, or a new one when none is free.
    #[allow(clippy::too_many_arguments)]
    fn commit(
        &mut self,
        dim: usize,
        eps_mode: bool,
        cost: &[f64],
        scaled: &[i32],
        fkey: f64,
        ikey: i32,
        slot: usize,
    ) {
        let p = if eps_mode {
            self.entries.partition_point(|e| e.ikey <= ikey)
        } else {
            self.entries
                .partition_point(|e| e.fkey.total_cmp(&fkey) != Ordering::Greater)
        };
        let row = self.free.pop().unwrap_or(self.costs.len() / dim);
        write_row(&mut self.costs, row, cost);
        if eps_mode {
            write_row(&mut self.scaled, row, scaled);
        }
        self.entries.insert(
            p,
            FrontierEntry {
                fkey,
                ikey,
                slot,
                row,
            },
        );
    }

    /// Truncates to the `cap` labels with the smallest max true-cost
    /// component (ties keep the earlier entry) and keeps the survivors in
    /// their entry order. Exact-mode entries are already in `fkey` order,
    /// so there the cap keeps the first `cap` entries; ε mode keeps its
    /// scaled-key order. `order` is index scratch reused across calls.
    /// Returns the number of evicted labels.
    fn apply_cap(&mut self, cap: usize, order: &mut Vec<usize>) -> usize {
        let n = self.entries.len();
        if n <= cap {
            return 0;
        }
        // Entry `i` ranks by `(fkey, i)`, a total order: the `cap`
        // smallest are those ranked no later than the `cap`-th, which a
        // selection finds without a full sort.
        let cut = cap.checked_sub(1).map(|last| {
            order.clear();
            order.extend(0..n);
            let entries = &self.entries;
            let (_, &mut t, _) = order.select_nth_unstable_by(last, |&a, &b| {
                entries[a].fkey.total_cmp(&entries[b].fkey).then(a.cmp(&b))
            });
            (entries[t].fkey, t)
        });
        let free = &mut self.free;
        let mut i = 0;
        self.entries.retain(|e| {
            let kept = cut
                .is_some_and(|(tk, t)| e.fkey.total_cmp(&tk).then(i.cmp(&t)) != Ordering::Greater);
            i += 1;
            if !kept {
                free.push(e.row);
            }
            kept
        });
        n - cap
    }
}

/// Row `row` of a flat slab of stride `dim`.
#[inline]
fn slab_row<T>(slab: &[T], dim: usize, row: usize) -> &[T] {
    &slab[row * dim..(row + 1) * dim]
}

/// Writes `values` as row `row` of a flat slab of stride `values.len()`,
/// growing the slab by one row when `row` is the next one.
fn write_row<T: Copy>(slab: &mut Vec<T>, row: usize, values: &[T]) {
    let at = row * values.len();
    if at == slab.len() {
        slab.extend_from_slice(values);
    } else {
        slab[at..at + values.len()].copy_from_slice(values);
    }
}

/// Per-thread solve scratch recycled between solves: the per-vertex
/// predecessor stores, a pool of spare frontier slabs and the cap's index
/// scratch, which the zone pipeline would otherwise reallocate for every
/// zone. A vertex's frontier is moved out when the vertex is expanded and
/// goes back to the pool with its capacity, so the scratch never holds
/// more slabs than the most frontiers ever alive at once on the thread
/// (about two rows of a layered zone graph), plus the destination's until
/// the next solve. A solve takes the thread's scratch and returns it
/// on completion — including early returns and panics, via
/// [`ScratchGuard`]'s `Drop`. Recycling is bit-neutral: a cleared
/// [`Frontier`] is logically `Frontier::default()`, and no solver
/// operation observes capacity.
#[derive(Default)]
struct SolveScratch {
    fronts: Vec<Frontier>,
    preds: Vec<Vec<Option<(usize, usize)>>>,
    spare: Vec<Frontier>,
    cap_order: Vec<usize>,
}

impl SolveScratch {
    /// Prepares the scratch for a graph of `n` vertices: every frontier
    /// left from the last solve goes to the spare pool, the predecessor
    /// stores are truncated (a later bigger solve must never see stale
    /// rows) and cleared in place, and missing slots are
    /// default-constructed.
    fn begin(&mut self, n: usize) {
        for f in self.fronts.drain(..) {
            if f.has_slabs() {
                self.spare.push(f.recycled());
            }
        }
        self.fronts.resize_with(n, Frontier::default);
        self.preds.truncate(n);
        for p in &mut self.preds {
            p.clear();
        }
        self.preds.resize_with(n, Vec::new);
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<SolveScratch> =
        std::cell::RefCell::new(SolveScratch::default());
}

/// Moves the thread's scratch pool out of thread-local storage (leaving a
/// fresh empty pool behind, so a nested or racing borrow can never
/// observe the in-use state) and prepares it (see [`SolveScratch::begin`]).
fn acquire_scratch(n: usize) -> ScratchGuard {
    let mut scratch = SCRATCH.with(|c| std::mem::take(&mut *c.borrow_mut()));
    scratch.begin(n);
    ScratchGuard { scratch }
}

/// Returns the scratch pool to thread-local storage on drop — the unwind
/// path included, so a panicking solve (fault injection) recycles its
/// allocations instead of leaking the pool for the thread's lifetime.
struct ScratchGuard {
    scratch: SolveScratch,
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        SCRATCH.with(|c| {
            if let Ok(mut slot) = c.try_borrow_mut() {
                *slot = scratch;
            }
        });
    }
}

/// Exact Pareto enumeration over the DAG.
///
/// Labels are propagated in topological order; at each vertex only
/// nondominated labels survive. Worst-case exponential (the frontier can
/// be exponential), so `max_labels` optionally caps the per-vertex frontier
/// — when the cap triggers, labels with the smallest maximum component are
/// kept (biased toward the min–max selection) and the result is marked
/// [`ParetoSet::is_truncated`].
///
/// When `budget` trips mid-solve the DP does not abort: it finishes
/// propagating in single-label greedy mode (keeping only the best min–max
/// label per vertex), so a valid path set still comes back — marked
/// truncated, with [`ParetoSet::exhaustion`] naming the resource that ran
/// out. An attached `observer` receives layer and label-batch spans plus
/// eviction/exhaustion instants; `None` costs one branch per hook site.
///
/// # Errors
///
/// Returns [`MospError::Cyclic`] for non-DAG inputs and
/// [`MospError::NoPath`] when `dest` is unreachable from `source`.
pub fn exact(
    graph: &MospGraph,
    source: VertexId,
    dest: VertexId,
    max_labels: Option<usize>,
    budget: &Budget,
    observer: Option<&mut dyn SolveObserver>,
) -> Result<ParetoSet, MospError> {
    let order = checked_order(graph, source, dest)?;
    run(
        graph, order, source, dest, max_labels, None, budget, observer,
    )
}

/// Warburton's fully polynomial ε-approximation.
///
/// Per dimension `k`, costs are compared on a grid of `δ_k = ε·UB_k / n`
/// (with `UB_k` the longest-path bound and `n` the vertex count), which
/// bounds the per-vertex label count by `∏_k (n/ε)` and guarantees every
/// Pareto point is matched within a `(1+ε)` factor per dimension.
/// `max_labels` is a safety net for very high weight dimensions (where
/// even the scaled label space can be large); the cap, `budget` and
/// `observer` behave as in [`exact`].
///
/// Grid cells are stored as `i32`, so `n/ε` must stay below `2^30` (at
/// `ε = 0.01`, zones of up to 10^7 vertices).
///
/// # Errors
///
/// Returns [`MospError::InvalidParameter`] for `ε <= 0` and for
/// `n/ε >= 2^30`, plus the same errors as [`exact`].
pub fn warburton(
    graph: &MospGraph,
    source: VertexId,
    dest: VertexId,
    epsilon: f64,
    max_labels: Option<usize>,
    budget: &Budget,
    observer: Option<&mut dyn SolveObserver>,
) -> Result<ParetoSet, MospError> {
    if epsilon <= 0.0 || epsilon.is_nan() || !epsilon.is_finite() {
        return Err(MospError::InvalidParameter("epsilon must be positive"));
    }
    let n = graph.vertex_count().max(1) as f64;
    if n / epsilon >= GRID_CELL_LIMIT {
        return Err(MospError::InvalidParameter(
            "epsilon too small for the graph: n/epsilon must stay below 2^30",
        ));
    }
    let order = checked_order(graph, source, dest)?;
    let ub = graph.upper_bounds_along(&order, source);
    let deltas: Vec<f64> = ub
        .iter()
        .map(|&u| {
            let d = epsilon * u / n;
            if d > 0.0 {
                d
            } else {
                1.0
            }
        })
        .collect();
    run(
        graph,
        order,
        source,
        dest,
        max_labels,
        Some(&deltas),
        budget,
        observer,
    )
}

/// The bound on `n/ε` that keeps every ε-grid cell an exact `i32`.
///
/// Every DP cost satisfies `c_k <= UB_k`: a label's cost is built by the
/// same `f64` additions along a path as the longest-path bound, and
/// rounding is monotone. So a cell `⌊c_k / δ_k⌋` is at most about
/// `UB_k / δ_k = n/ε`. The factor-two margin below `2^31` absorbs the
/// rounding of `δ_k` itself, which stays well under ×2 even when `δ_k`
/// is subnormal.
const GRID_CELL_LIMIT: f64 = (1u64 << 30) as f64;

/// The graph's topological order, once the endpoints are checked.
fn checked_order(
    graph: &MospGraph,
    source: VertexId,
    dest: VertexId,
) -> Result<Vec<VertexId>, MospError> {
    let order = graph.topological_order()?;
    let n = graph.vertex_count();
    if source.0 >= n {
        return Err(MospError::InvalidVertex(source));
    }
    if dest.0 >= n {
        return Err(MospError::InvalidVertex(dest));
    }
    Ok(order)
}

/// Shared label-correcting DP over the vertices in topological `order`
/// (from [`checked_order`]). `deltas` switches scaled-dominance mode;
/// `budget` bounds the work (on exhaustion the DP degrades to single-label
/// greedy propagation instead of aborting, so the result stays valid).
///
/// Each label-insertion attempt charges one unit against the budget's
/// shared atomic work counter, so concurrent solves on a worker pool draw
/// from a single global cap. Arc weights arrive as borrowed arena slices
/// from the graph; candidate costs are built in reusable scratch buffers,
/// so the hot loop performs no per-attempt allocation. Every `observer`
/// hook site is a single branch when the observer is `None`.
#[allow(clippy::too_many_arguments)]
fn run(
    graph: &MospGraph,
    order: Vec<VertexId>,
    source: VertexId,
    dest: VertexId,
    max_labels: Option<usize>,
    deltas: Option<&[f64]>,
    budget: &Budget,
    mut observer: Option<&mut dyn SolveObserver>,
) -> Result<ParetoSet, MospError> {
    let dim = graph.dim();
    let eps_mode = deltas.is_some();

    // Per-vertex frontiers and the append-only predecessor store
    // (dominated or cap-evicted labels leave the frontier but keep their
    // slot here, so predecessor chains stay valid for reconstruction).
    // Both come from the thread's recycled scratch: at scale the pipeline
    // runs thousands of zone solves per thread, and reusing the slabs
    // removes the per-zone allocation storm.
    let mut guard = acquire_scratch(graph.vertex_count());
    let SolveScratch {
        fronts,
        preds,
        spare,
        cap_order,
    } = &mut guard.scratch;
    let mut truncated = false;
    let mut exhausted = None;
    let mut stats = SolveStats::default();

    // Writes the ε-grid image of `cost` into `out` (left empty in exact
    // mode, matching the frontier's empty scaled slab).
    let scale_into = |cost: &[f64], out: &mut Vec<i32>| {
        out.clear();
        if let Some(ds) = deltas {
            out.extend(cost.iter().zip(ds).map(|(c, d)| grid_cell(c / d)));
        }
    };

    let mut scaled_scratch: Vec<i32> = Vec::new();
    let zero = vec![0.0; dim];
    scale_into(&zero, &mut scaled_scratch);
    preds[source.0].push(None);
    take_spare(&mut fronts[source.0], spare);
    fronts[source.0].commit(
        dim,
        eps_mode,
        &zero,
        &scaled_scratch,
        kernels::max_component(&zero),
        ikey_of(&scaled_scratch),
        0,
    );
    stats.labels_created += 1;

    // The candidate cost, reused across attempts.
    let mut cand = vec![0.0; dim];

    // The first None -> Some exhaustion transition is reported to the
    // observer exactly once.
    let mut exhaustion_reported = false;
    for v in order {
        if exhausted.is_none() {
            exhausted = budget.exhausted();
        }
        if let (Some(reason), false) = (exhausted, exhaustion_reported) {
            exhaustion_reported = true;
            if let Some(o) = observer.as_deref_mut() {
                o.budget_exhausted(reason);
            }
        }
        // Apply the per-vertex cap before expanding. Once the budget is
        // exhausted the cap collapses to 1: the remainder of the DP is a
        // greedy min–max completion that still reaches the destination.
        let cap = if exhausted.is_some() {
            Some(1)
        } else {
            max_labels
        };
        if let Some(cap) = cap {
            let evicted = fronts[v.0].apply_cap(cap, cap_order);
            if evicted > 0 {
                stats.labels_pruned += evicted as u64;
                truncated = true;
                if let Some(o) = observer.as_deref_mut() {
                    o.cap_evictions(v.0, evicted as u64);
                }
            }
        }
        if fronts[v.0].is_empty() {
            continue;
        }
        // Move the frontier out for its expansion: targets come strictly
        // later in topological order, so `v`'s frontier cannot change
        // while its arcs are expanded, and the target frontiers can be
        // borrowed mutably.
        let src = std::mem::take(&mut fronts[v.0]);
        let layer_start = observer.as_deref_mut().map(|o| o.now_ns());
        for (to, w) in graph.out_arcs(v) {
            let batch_start = observer.as_deref_mut().map(|o| o.now_ns());
            let pruned_before = stats.labels_pruned;
            take_spare(&mut fronts[to.0], spare);
            for e in &src.entries {
                stats.work += 1;
                if exhausted.is_none() {
                    exhausted = budget.charge(1);
                }
                kernels::add_into(&mut cand, slab_row(&src.costs, dim, e.row), w);
                scale_into(&cand, &mut scaled_scratch);
                push_label(
                    &mut fronts[to.0],
                    &mut preds[to.0],
                    dim,
                    &cand,
                    &scaled_scratch,
                    (v.0, e.slot),
                    eps_mode,
                    &mut stats,
                );
            }
            if let Some(o) = observer.as_deref_mut() {
                o.batch_span(
                    batch_start.unwrap_or(0),
                    v.0,
                    to.0,
                    src.len() as u64,
                    stats.labels_pruned - pruned_before,
                );
            }
        }
        if let Some(o) = observer.as_deref_mut() {
            o.layer_span(layer_start.unwrap_or(0), v.0, src.len());
        }
        // The destination keeps its frontier for the result.
        if v == dest {
            fronts[v.0] = src;
        } else {
            spare.push(src.recycled());
        }
    }
    if let (Some(reason), false) = (exhausted, exhaustion_reported) {
        // Exhaustion during the final vertex's inner loop.
        if let Some(o) = observer {
            o.budget_exhausted(reason);
        }
    }

    if fronts[dest.0].is_empty() {
        if source == dest {
            let mut set = ParetoSet::new(
                vec![ParetoPath {
                    cost: vec![0.0; dim],
                    vertices: vec![source],
                }],
                false,
            );
            stats.front_size = 1;
            set.set_stats(stats);
            return Ok(set);
        }
        return Err(MospError::NoPath);
    }

    // The destination frontier is already mutually nondominated in both
    // modes for NaN-free costs: exact dominance implies ε-grid weak
    // dominance. Its rows are returned in true max-key order, ties in
    // frontier order. Exact mode already keeps that order; ε mode keeps
    // the scaled-key order, so a stable sort by `fkey` reorders it.
    let found = &fronts[dest.0];
    let mut order: Vec<usize> = (0..found.len()).collect();
    order.sort_by(|&a, &b| found.entries[a].fkey.total_cmp(&found.entries[b].fkey));
    let paths: Vec<ParetoPath> = order
        .into_iter()
        .map(|i| ParetoPath {
            cost: found.cost(dim, i).to_vec(),
            vertices: reconstruct(preds, dest.0, found.entries[i].slot),
        })
        .collect();
    let mut set = ParetoSet::new(paths, truncated);
    if let Some(reason) = exhausted {
        set.mark_exhausted(reason);
    }
    stats.front_size = set.paths().len() as u64;
    set.set_stats(stats);
    Ok(set)
}

/// Inserts a candidate label unless dominated; prunes dominated incumbents
/// from the frontier (the predecessor store is append-only). Comparison
/// uses the scaled grid in ε mode, true costs otherwise. The candidate is
/// copied into the frontier slab only when it survives screening.
#[allow(clippy::too_many_arguments)]
fn push_label(
    front: &mut Frontier,
    preds: &mut Vec<Option<(usize, usize)>>,
    dim: usize,
    cost: &[f64],
    scaled: &[i32],
    pred: (usize, usize),
    eps_mode: bool,
    stats: &mut SolveStats,
) -> bool {
    let fkey = kernels::max_component(cost);
    let ikey = ikey_of(scaled);
    if !front.admit(dim, eps_mode, cost, scaled, fkey, ikey, stats) {
        return false;
    }
    stats.labels_created += 1;
    preds.push(Some(pred));
    front.commit(dim, eps_mode, cost, scaled, fkey, ikey, preds.len() - 1);
    true
}

/// Gives a vertex about to get its first label a spare slab, so that every
/// slab a solve hands out comes back to the pool: the source and each
/// target take one, and each expanded vertex returns one.
fn take_spare(front: &mut Frontier, spare: &mut Vec<Frontier>) {
    if !front.has_slabs() {
        if let Some(slab) = spare.pop() {
            *front = slab;
        }
    }
}

/// The ε-grid cell of a scaled cost `q = c / δ`. Costs and grid steps
/// are non-negative ([`MospGraph`] validates the weights), and there the
/// truncating cast is `floor`, saturation at `+inf` included, without
/// `f64::floor`'s libm call. [`warburton`]'s `n/ε` bound keeps every
/// finite `q` of a solve below `2^31` (see [`GRID_CELL_LIMIT`]), so the
/// `i32` cell equals the `i64` one.
#[inline]
fn grid_cell(q: f64) -> i32 {
    debug_assert!(
        q >= 0.0 || q.is_nan(),
        "ε-grid costs are non-negative, got {q}"
    );
    q as i32
}

/// Max scaled component: the ε-mode frontier sort key (0 in exact mode,
/// where the scaled slice is empty).
fn ikey_of(scaled: &[i32]) -> i32 {
    scaled.iter().copied().max().unwrap_or(0)
}

fn reconstruct(preds: &[Vec<Option<(usize, usize)>>], vertex: usize, slot: usize) -> Vec<VertexId> {
    let mut rev = vec![VertexId(vertex)];
    let mut cur = preds[vertex][slot];
    while let Some((pv, ps)) = cur {
        rev.push(VertexId(pv));
        cur = preds[pv][ps];
    }
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Exhaustion;
    use crate::kernels::dominates;
    use crate::pareto::tests::insert_nondominated;
    use proptest::prelude::*;
    use std::time::Duration;

    impl Frontier {
        /// The ε-grid image of the `i`-th label in key order.
        fn scaled_row(&self, dim: usize, i: usize) -> &[i32] {
            slab_row(&self.scaled, dim, self.entries[i].row)
        }
    }

    /// Brute-force path enumeration for validation.
    fn all_paths(g: &MospGraph, from: VertexId, to: VertexId) -> Vec<(Vec<f64>, Vec<VertexId>)> {
        let mut out = Vec::new();
        let mut stack = vec![(from, vec![0.0; g.dim()], vec![from])];
        while let Some((v, cost, path)) = stack.pop() {
            if v == to {
                out.push((cost.clone(), path.clone()));
                if v == from && g.out_degree(v) == 0 {
                    continue;
                }
            }
            for (next, w) in g.out_arcs(v) {
                let mut c = cost.clone();
                for (a, b) in c.iter_mut().zip(w) {
                    *a += b;
                }
                let mut p = path.clone();
                p.push(next);
                stack.push((next, c, p));
            }
        }
        out
    }

    fn diamond() -> (MospGraph, VertexId, VertexId) {
        // src -> {a, b} -> dest, asymmetric weights.
        let mut g = MospGraph::new(2);
        let vs = g.add_vertices(4);
        g.add_arc(vs[0], vs[1], vec![1.0, 8.0]).unwrap();
        g.add_arc(vs[0], vs[2], vec![8.0, 1.0]).unwrap();
        g.add_arc(vs[1], vs[3], vec![1.0, 1.0]).unwrap();
        g.add_arc(vs[2], vs[3], vec![1.0, 1.0]).unwrap();
        (g, vs[0], vs[3])
    }

    #[test]
    fn exact_finds_both_pareto_paths() {
        let (g, s, t) = diamond();
        let set = exact(&g, s, t, None, &Budget::unlimited(), None).unwrap();
        assert_eq!(set.paths().len(), 2);
        assert!(!set.is_truncated());
        let mm = set.min_max().unwrap();
        assert_eq!(mm.max_component(), 9.0);
        assert_eq!(mm.vertices.len(), 3);
    }

    #[test]
    fn solve_stats_count_labels_and_work() {
        let (g, s, t) = diamond();
        let set = exact(&g, s, t, None, &Budget::unlimited(), None).unwrap();
        let stats = set.stats();
        // src label + one label per vertex reached (a, b, and two at dest).
        assert_eq!(stats.labels_created, 5);
        // One insertion attempt per (arc, source label) pair: 4 arcs, one
        // label each side.
        assert_eq!(stats.work, 4);
        assert_eq!(stats.front_size, 2);
        assert_eq!(stats.labels_pruned, 0, "no dominated labels here");
        // Merging stats adds componentwise.
        let twice = stats.plus(stats);
        assert_eq!(twice.work, 8);
        assert_eq!(twice.front_size, 4);
    }

    #[test]
    fn solve_stats_record_pruning_under_cap() {
        let (g, src, dest) = diamond_chain(6);
        let set = exact(&g, src, dest, Some(2), &Budget::unlimited(), None).unwrap();
        assert!(set.is_truncated());
        assert!(set.stats().labels_pruned > 0, "the cap must prune");
        assert!(set.stats().work >= set.stats().labels_created - 1);
    }

    /// The most frontiers a solve holds at once: the source's, plus one
    /// for each target an expansion reaches first, minus each expanded
    /// vertex's once its arcs are done (the destination keeps its own).
    fn peak_live_frontiers(g: &MospGraph, src: VertexId, dest: VertexId) -> usize {
        let mut reached = vec![false; g.vertex_count()];
        reached[src.0] = true;
        let (mut live, mut peak) = (1, 1);
        for v in g.topological_order().unwrap() {
            if !reached[v.0] {
                continue;
            }
            for (to, _) in g.out_arcs(v) {
                if !reached[to.0] {
                    reached[to.0] = true;
                    live += 1;
                    peak = peak.max(live);
                }
            }
            if v != dest {
                live -= 1;
            }
        }
        peak
    }

    #[test]
    fn the_spare_pool_stays_within_the_peak_live_frontiers() {
        // Slabs come back with their capacity, so the pool is bounded by
        // how many frontiers were ever alive at once, not by the solves.
        std::thread::spawn(|| {
            let weights: Vec<f64> = (0..64).map(|i| ((i * 7) % 11) as f64).collect();
            let mut peak = 0;
            for round in 0..3 {
                for (i, &(rows, cols, dims)) in [
                    (2, 3, 4),
                    (6, 2, 2),
                    (1, 1, 1),
                    (4, 5, 9),
                    (3, 2, 16),
                    (6, 4, 3),
                ]
                .iter()
                .enumerate()
                {
                    let (g, src, dest) = layered(rows, cols, dims, &weights);
                    peak = peak.max(peak_live_frontiers(&g, src, dest));
                    let free = Budget::unlimited();
                    if (round + i) % 2 == 0 {
                        warburton(&g, src, dest, 0.05, Some(4), &free, None).unwrap();
                    } else {
                        exact(&g, src, dest, Some(4), &free, None).unwrap();
                    }
                    SCRATCH.with(|c| {
                        let c = c.borrow();
                        let held = c.fronts.iter().filter(|f| f.has_slabs()).count();
                        assert_eq!(held, 1, "only the destination keeps its slab");
                        // Every slab the thread made is pooled or held, so
                        // the pool never exceeds the peak live frontiers.
                        assert_eq!(c.spare.len() + held, peak);
                        assert!(c.spare.iter().all(Frontier::is_empty));
                    });
                }
            }
        })
        .join()
        .unwrap();
    }

    /// Screens and commits `cost` as the frontier's next label in exact
    /// mode; returns whether it was admitted.
    fn offer(front: &mut Frontier, cost: &[f64], slot: usize, stats: &mut SolveStats) -> bool {
        let fkey = kernels::max_component(cost);
        let admitted = front.admit(cost.len(), false, cost, &[], fkey, 0, stats);
        if admitted {
            front.commit(cost.len(), false, cost, &[], fkey, 0, slot);
        }
        admitted
    }

    fn rows(front: &Frontier, dim: usize) -> Vec<(usize, Vec<f64>)> {
        (0..front.len())
            .map(|i| (front.entries[i].slot, front.cost(dim, i).to_vec()))
            .collect()
    }

    #[test]
    fn exact_frontier_matches_simple_insertion() {
        let mut simple: Vec<(Vec<f64>, usize)> = Vec::new();
        let mut front = Frontier::default();
        let mut stats = SolveStats::default();
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
            let b = offer(&mut front, c, i, &mut stats);
            assert_eq!(a, b, "candidate {i} admission");
        }
        // Same surviving set (the frontier is key-sorted).
        let mut simple_rows: Vec<(usize, Vec<f64>)> =
            simple.into_iter().map(|(c, i)| (i, c)).collect();
        simple_rows.sort_by_key(|r| r.0);
        let mut front_rows = rows(&front, 2);
        front_rows.sort_by_key(|r| r.0);
        assert_eq!(simple_rows, front_rows);
        assert!(stats.dominance_checks > 0);
        assert!(
            stats.dominance_skipped > 0,
            "the key index must skip some comparisons"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn exact_frontier_invariants_hold_for_raw_rows(
            raw in proptest::collection::vec(
                proptest::collection::vec(-1e30f64..1e30, 4), 1..40),
        ) {
            let mut front = Frontier::default();
            let mut simple: Vec<(Vec<f64>, usize)> = Vec::new();
            let mut stats = SolveStats::default();
            for (i, r) in raw.iter().enumerate() {
                let admitted = offer(&mut front, r, i, &mut stats);
                prop_assert_eq!(admitted, insert_nondominated(&mut simple, r.clone(), i));
            }
            prop_assert!(!front.is_empty(), "a nonempty insert stream keeps >= 1");
            let members = rows(&front, 4);
            // Mutual nondominance: no member strictly dominates another.
            for (_, x) in &members {
                for (_, y) in &members {
                    prop_assert!(
                        x == y || !dominates(x, y),
                        "front members {:?} and {:?} are not mutually nondominated",
                        x, y
                    );
                }
            }
            // No lost candidates: every inserted row is weakly dominated
            // by some front member.
            for r in &raw {
                let covered = members
                    .iter()
                    .any(|(_, m)| m.iter().zip(r).all(|(mc, rc)| mc <= rc));
                prop_assert!(covered, "row {:?} escaped the front", r);
            }
            // The same rows as the linear-scan oracle.
            let mut sorted = members.clone();
            sorted.sort_by_key(|r| r.0);
            let mut oracle: Vec<(usize, Vec<f64>)> =
                simple.into_iter().map(|(c, i)| (i, c)).collect();
            oracle.sort_by_key(|r| r.0);
            prop_assert_eq!(sorted, oracle);
        }
    }

    /// One ε-mode label of the oracle: slot, true costs, grid image. The
    /// oracle keeps the grid in `i64`, the width the frontier narrowed
    /// from, so the tests check the `i32` cells against it.
    type OracleLabel = (usize, Vec<f64>, Vec<i64>);

    /// The max grid component of an oracle label.
    fn wide_key(grid: &[i64]) -> i64 {
        grid.iter().copied().max().unwrap_or(0)
    }

    /// The ε-mode frontier spelled out on a plain `Vec` in logical order:
    /// reject a candidate some incumbent weakly dominates on the grid,
    /// evict the incumbents it weakly dominates, and insert it after
    /// every incumbent whose max grid component is not larger. `stats`
    /// counts what the key index lets the frontier compare and skip: the
    /// rejection scan covers the incumbents with a key no larger than the
    /// candidate's, up to the first that rejects it; the eviction scan
    /// the incumbents with a key no smaller.
    fn oracle_offer(
        oracle: &mut Vec<OracleLabel>,
        label: OracleLabel,
        stats: &mut SolveStats,
    ) -> bool {
        let leq = |a: &[i64], b: &[i64]| a.iter().zip(b).all(|(x, y)| x <= y);
        let key = wide_key(&label.2);
        let n = oracle.len() as u64;
        let at_most = oracle.iter().filter(|(_, _, g)| wide_key(g) <= key).count() as u64;
        let below = oracle.iter().filter(|(_, _, g)| wide_key(g) < key).count() as u64;
        stats.dominance_skipped += n - at_most;
        if let Some(r) = oracle.iter().position(|(_, _, g)| leq(g, &label.2)) {
            stats.dominance_checks += r as u64 + 1;
            return false;
        }
        stats.dominance_checks += at_most + (n - below);
        stats.dominance_skipped += below;
        oracle.retain(|(_, _, g)| !leq(&label.2, g));
        stats.labels_pruned += n - oracle.len() as u64;
        let at = oracle.iter().filter(|(_, _, g)| wide_key(g) <= key).count();
        oracle.insert(at, label);
        true
    }

    /// The oracle's cap: keep the `cap` smallest true max keys (ties to
    /// the earlier entry) in their logical order. Returns the number of
    /// evicted labels.
    fn oracle_cap(oracle: &mut Vec<OracleLabel>, cap: usize) -> usize {
        let fkey = |c: &[f64]| c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut order: Vec<usize> = (0..oracle.len()).collect();
        order.sort_by(|&a, &b| fkey(&oracle[a].1).total_cmp(&fkey(&oracle[b].1)));
        let keep: Vec<bool> = (0..oracle.len())
            .map(|i| order.iter().take(cap).any(|&k| k == i))
            .collect();
        let before = oracle.len();
        let mut keep = keep.into_iter();
        oracle.retain(|_| keep.next() == Some(true));
        before - oracle.len()
    }

    /// One path of a solve: its cost bits and its vertices.
    type PathBits = (Vec<u64>, Vec<VertexId>);

    /// Warburton's DP spelled out on the `Vec` oracle with `i64` cells
    /// taken by `f64::floor`: labels propagate in topological order, the
    /// cap runs before each expansion, and the destination's labels come
    /// back in true max-key order. Unbudgeted.
    fn oracle_warburton(
        g: &MospGraph,
        src: VertexId,
        dest: VertexId,
        eps: f64,
        cap: Option<usize>,
    ) -> (Vec<PathBits>, SolveStats) {
        let n = g.vertex_count();
        let ub = g.path_upper_bounds(src).unwrap();
        let deltas: Vec<f64> = ub
            .iter()
            .map(|&u| match eps * u / n as f64 {
                d if d > 0.0 => d,
                _ => 1.0,
            })
            .collect();
        let cells = |c: &[f64]| -> Vec<i64> {
            c.iter()
                .zip(&deltas)
                .map(|(c, d)| (c / d).floor() as i64)
                .collect()
        };
        let mut stats = SolveStats::default();
        let mut fronts: Vec<Vec<OracleLabel>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<Option<(usize, usize)>>> = vec![Vec::new(); n];
        let zero = vec![0.0; g.dim()];
        preds[src.0].push(None);
        fronts[src.0].push((0, zero.clone(), cells(&zero)));
        stats.labels_created += 1;
        for v in g.topological_order().unwrap() {
            if let Some(cap) = cap {
                stats.labels_pruned += oracle_cap(&mut fronts[v.0], cap) as u64;
            }
            let labels = std::mem::take(&mut fronts[v.0]);
            for (to, w) in g.out_arcs(v) {
                for (slot, cost, _) in &labels {
                    stats.work += 1;
                    let cand: Vec<f64> = cost.iter().zip(w).map(|(c, w)| c + w).collect();
                    let label = (preds[to.0].len(), cand.clone(), cells(&cand));
                    if oracle_offer(&mut fronts[to.0], label, &mut stats) {
                        stats.labels_created += 1;
                        preds[to.0].push(Some((v.0, *slot)));
                    }
                }
            }
            if v == dest {
                fronts[v.0] = labels;
            }
        }
        let mut found = fronts[dest.0].clone();
        found.sort_by(|a, b| {
            kernels::scalar::max_component(&a.1).total_cmp(&kernels::scalar::max_component(&b.1))
        });
        stats.front_size = found.len() as u64;
        let paths = found
            .into_iter()
            .map(|(slot, cost, _)| {
                let bits = cost.iter().map(|c| c.to_bits()).collect();
                (bits, reconstruct(&preds, dest.0, slot))
            })
            .collect();
        (paths, stats)
    }

    /// A layered DAG like a WaveMin zone graph: `rows` layers of `cols`
    /// vertices, each fed by every vertex of the layer before, between a
    /// source and a destination. Arc weights are taken `dims` at a time
    /// from `weights`, cyclically.
    fn layered(
        rows: usize,
        cols: usize,
        dims: usize,
        weights: &[f64],
    ) -> (MospGraph, VertexId, VertexId) {
        let mut g = MospGraph::new(dims);
        let src = g.add_vertex();
        let mut prev = vec![src];
        let mut w = weights.chunks_exact(dims).cycle();
        for _ in 0..rows {
            let row = g.add_vertices(cols);
            for &v in &row {
                g.add_fan_in(&prev, v, w.next().unwrap()).unwrap();
            }
            prev = row;
        }
        let dest = g.add_vertex();
        g.add_fan_in(&prev, dest, &vec![0.0; dims]).unwrap();
        (g, src, dest)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn warburton_on_i32_cells_matches_an_i64_oracle_dp(
            (rows, cols, dims) in (1usize..=5, 1usize..=4, 1usize..=12),
            raw in proptest::collection::vec((0u32..4, 0.0f64..100.0), 5 * 4 * 12),
            (eps_pick, cap_pick) in (0usize..5, 0usize..4),
        ) {
            // Zero and integral weights make grid ties and equal keys.
            let weights: Vec<f64> = raw
                .iter()
                .map(|&(tag, x)| match tag {
                    0 => 0.0,
                    1 => x.floor(),
                    _ => x,
                })
                .collect();
            let (g, src, dest) = layered(rows, cols, dims, &weights);
            let n = g.vertex_count() as f64;
            // The last ε puts the largest cells just under the 2^30 bound.
            let eps = [0.5, 0.05, 1e-3, 1e-6, n / (GRID_CELL_LIMIT - 1.0)][eps_pick];
            let cap = [None, Some(1), Some(3), Some(64)][cap_pick];
            let set = warburton(&g, src, dest, eps, cap, &Budget::unlimited(), None).unwrap();
            let (want, want_stats) = oracle_warburton(&g, src, dest, eps, cap);
            let got: Vec<PathBits> = set
                .paths()
                .iter()
                .map(|p| (p.cost.iter().map(|c| c.to_bits()).collect(), p.vertices.clone()))
                .collect();
            // The same paths in the same order, so the same min–max path.
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(set.stats(), &want_stats);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn epsilon_frontier_matches_a_vec_oracle_and_reuses_freed_rows(
            ops in proptest::collection::vec(
                (proptest::collection::vec(0.0f64..10.0, 3), 0usize..10), 1..80),
        ) {
            let dim = 3;
            let mut front = Frontier::default();
            let mut oracle: Vec<OracleLabel> = Vec::new();
            let mut stats = SolveStats::default();
            let mut oracle_stats = SolveStats::default();
            let mut order = Vec::new();
            let mut peak = 0;
            for (slot, (cost, op)) in ops.into_iter().enumerate() {
                if op == 0 {
                    let cap = 1 + slot % 4;
                    front.apply_cap(cap, &mut order);
                    oracle_cap(&mut oracle, cap);
                } else {
                    let grid: Vec<i32> = cost.iter().map(|c| grid_cell(c / 2.5)).collect();
                    let fkey = kernels::max_component(&cost);
                    let ikey = ikey_of(&grid);
                    let admitted = front.admit(dim, true, &cost, &grid, fkey, ikey, &mut stats);
                    if admitted {
                        front.commit(dim, true, &cost, &grid, fkey, ikey, slot);
                    }
                    let wide = grid.iter().map(|&g| i64::from(g)).collect();
                    let label = (slot, cost, wide);
                    prop_assert_eq!(admitted, oracle_offer(&mut oracle, label, &mut oracle_stats));
                    prop_assert_eq!(&stats, &oracle_stats);
                }
                peak = peak.max(front.len());
                let logical: Vec<OracleLabel> = (0..front.len())
                    .map(|i| {
                        let e = front.entries[i];
                        let wide = front.scaled_row(dim, i).iter().map(|&g| i64::from(g));
                        (e.slot, front.cost(dim, i).to_vec(), wide.collect())
                    })
                    .collect();
                prop_assert_eq!(&logical, &oracle);
                // Freed rows are reused before the slabs grow, so they
                // hold exactly the peak live label count.
                prop_assert_eq!(front.costs.len(), peak * dim);
                prop_assert_eq!(front.scaled.len(), peak * dim);
                prop_assert_eq!(front.free.len() + front.len(), peak);
            }
        }
    }

    #[test]
    fn write_row_overwrites_a_row_or_appends_the_next() {
        let mut slab = vec![1, 1, 3, 3];
        write_row(&mut slab, 2, &[4, 4]);
        write_row(&mut slab, 0, &[0, 0]);
        write_row(&mut slab, 1, &[2, 2]);
        assert_eq!(slab, vec![0, 0, 2, 2, 4, 4]);
    }

    #[test]
    fn the_truncating_grid_cast_is_floor_on_non_negative_costs() {
        let near_2_31 = 2_147_483_648.0_f64; // 2^31
        let limit = GRID_CELL_LIMIT; // 2^30
        for q in [
            0.0,
            -0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE * 0.5,
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON / 2.0, // the largest double below 1
            1.0,
            2.5,
            1e9,
            limit - 0.5,
            limit,
            limit * 1.5 + 0.75,
            near_2_31 - near_2_31 * f64::EPSILON / 2.0, // the largest double below 2^31
            near_2_31 - 1.0,
            near_2_31,
            near_2_31 * 2.0,
            f64::MAX,
            f64::INFINITY,
        ] {
            assert_eq!(grid_cell(q), q.floor() as i32, "q = {q:e}");
            if q < near_2_31 {
                // Below 2^31 the narrow cell is the wide one.
                assert_eq!(i64::from(grid_cell(q)), q.floor() as i64, "q = {q:e}");
            }
        }
        assert_eq!(grid_cell(f64::INFINITY), i32::MAX);
        assert_eq!(grid_cell(near_2_31 - 1.0), i32::MAX);
        assert_eq!(grid_cell(near_2_31 - 1.5), i32::MAX - 1);
        assert_eq!(grid_cell(limit * 1.5 + 0.75), 1_610_612_736);
    }

    #[test]
    fn exact_admission_rejects_the_weakly_dominated_and_evicts_the_dominated() {
        let mut front = Frontier::default();
        let mut stats = SolveStats::default();
        assert!(offer(&mut front, &[4.0, 1.0], 0, &mut stats));
        assert!(offer(&mut front, &[1.0, 4.0], 1, &mut stats));
        // Equal to an incumbent: weakly dominated, so rejected.
        assert!(!offer(&mut front, &[4.0, 1.0], 2, &mut stats));
        assert!(!offer(&mut front, &[5.0, 4.0], 3, &mut stats));
        // Dominates both incumbents: they leave and it is the only row.
        assert!(offer(&mut front, &[1.0, 1.0], 4, &mut stats));
        assert_eq!(rows(&front, 2), vec![(4, vec![1.0, 1.0])]);
        assert_eq!(stats.labels_pruned, 2);
    }

    #[test]
    fn commits_keep_the_max_key_order_with_ties_in_arrival_order() {
        let mut front = Frontier::default();
        let mut stats = SolveStats::default();
        // Pairwise nondominated; slots 0 and 2 tie on key 3.
        for (slot, cost) in [[3.0, 0.0], [1.0, 1.0], [0.0, 3.0], [2.0, 0.5]]
            .iter()
            .enumerate()
        {
            assert!(offer(&mut front, cost, slot, &mut stats));
        }
        let slots: Vec<usize> = front.entries.iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![1, 3, 0, 2]);
        let keys: Vec<f64> = front.entries.iter().map(|e| e.fkey).collect();
        assert_eq!(keys, vec![1.0, 2.0, 3.0, 3.0]);
        let costs: Vec<f64> = (0..front.len())
            .flat_map(|i| front.cost(2, i).to_vec())
            .collect();
        assert_eq!(costs, vec![1.0, 1.0, 2.0, 0.5, 3.0, 0.0, 0.0, 3.0]);
        assert_eq!(stats.labels_pruned, 0);
    }

    #[test]
    fn epsilon_admission_compares_the_scaled_grid_only() {
        let mut front = Frontier::default();
        let mut stats = SolveStats::default();
        let mut offer_eps = |front: &mut Frontier, cost: &[f64], scaled: &[i32], slot| {
            let ikey = ikey_of(scaled);
            let fkey = cost.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let ok = front.admit(2, true, cost, scaled, fkey, ikey, &mut stats);
            if ok {
                front.commit(2, true, cost, scaled, fkey, ikey, slot);
            }
            ok
        };
        assert!(offer_eps(&mut front, &[1.0, 2.0], &[1, 2], 0));
        // Better true costs, but the same grid cell: collapsed into the
        // incumbent.
        assert!(!offer_eps(&mut front, &[0.9, 1.9], &[1, 2], 1));
        assert!(offer_eps(&mut front, &[2.0, 0.5], &[2, 0], 2));
        assert!(offer_eps(&mut front, &[0.5, 0.5], &[0, 0], 3));
        let slots: Vec<usize> = front.entries.iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![3]);
        assert_eq!(front.scaled_row(2, 0), &[0, 0]);
    }

    #[test]
    fn the_cap_keeps_the_smallest_max_keys_in_both_modes() {
        let mut exact_front = Frontier::default();
        let mut stats = SolveStats::default();
        for (slot, cost) in [[1.0, 5.0], [2.0, 2.0], [5.0, 1.0], [3.0, 1.5]]
            .iter()
            .enumerate()
        {
            offer(&mut exact_front, cost, slot, &mut stats);
        }
        assert_eq!(exact_front.apply_cap(2, &mut Vec::new()), 2);
        let slots: Vec<usize> = exact_front.entries.iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![1, 3]);
        assert_eq!(exact_front.cost(2, 0), &[2.0, 2.0]);
        assert_eq!(exact_front.cost(2, 1), &[3.0, 1.5]);
        assert_eq!(exact_front.apply_cap(5, &mut Vec::new()), 0);

        // In ε mode the survivors are chosen by true max but keep their
        // scaled-key order.
        let mut eps = Frontier::default();
        for (slot, (fkey, ikey)) in [(4.0, 1), (1.0, 2), (2.0, 3)].into_iter().enumerate() {
            let row = [ikey, 0];
            eps.commit(2, true, &[fkey, 0.0], &row, fkey, ikey, slot);
        }
        assert_eq!(eps.apply_cap(2, &mut Vec::new()), 1);
        let kept: Vec<(usize, i32)> = eps.entries.iter().map(|e| (e.slot, e.ikey)).collect();
        assert_eq!(kept, vec![(1, 2), (2, 3)]);
        let grid: Vec<i32> = (0..eps.len())
            .flat_map(|i| eps.scaled_row(2, i).to_vec())
            .collect();
        assert_eq!(grid, vec![2, 0, 3, 0]);
    }

    #[test]
    fn beginning_a_smaller_solve_leaves_no_stale_rows() {
        let mut scratch = SolveScratch::default();
        scratch.begin(5);
        scratch.preds[4].push(Some((1, 0)));
        scratch.preds[1].push(None);
        let mut stats = SolveStats::default();
        offer(&mut scratch.fronts[2], &[1.0, 1.0], 0, &mut stats);
        scratch.begin(3);
        assert_eq!(scratch.preds.len(), 3);
        assert!(scratch.preds.iter().all(Vec::is_empty));
        assert_eq!(scratch.fronts.len(), 3);
        assert!(scratch
            .fronts
            .iter()
            .all(|f| f.is_empty() && !f.has_slabs()));
        // Only the frontier that ever held a label went to the pool.
        assert_eq!(scratch.spare.len(), 1);
        assert!(scratch.spare[0].is_empty() && scratch.spare[0].has_slabs());
    }

    #[test]
    fn exact_drops_dominated_paths() {
        let mut g = MospGraph::new(2);
        let vs = g.add_vertices(2);
        g.add_arc(vs[0], vs[1], vec![1.0, 1.0]).unwrap();
        g.add_arc(vs[0], vs[1], vec![2.0, 2.0]).unwrap();
        g.add_arc(vs[0], vs[1], vec![0.5, 3.0]).unwrap();
        let set = exact(&g, vs[0], vs[1], None, &Budget::unlimited(), None).unwrap();
        assert_eq!(set.paths().len(), 2, "the (2,2) arc is dominated");
    }

    #[test]
    fn exact_matches_brute_force_on_layered_graph() {
        // A 3-layer, 3-column layered graph like the WaveMin conversion.
        let mut g = MospGraph::new(3);
        let src = g.add_vertex();
        let l1 = g.add_vertices(3);
        let l2 = g.add_vertices(3);
        let dest = g.add_vertex();
        let w = |a: f64, b: f64, c: f64| vec![a, b, c];
        for (i, &v) in l1.iter().enumerate() {
            g.add_arc(src, v, w(i as f64, 2.0 - i as f64, 1.0)).unwrap();
        }
        for &u in &l1 {
            for (j, &v) in l2.iter().enumerate() {
                g.add_arc(u, v, w(1.0 + j as f64, 3.0 - j as f64, j as f64))
                    .unwrap();
            }
        }
        for &u in &l2 {
            g.add_arc(u, dest, w(0.5, 0.5, 0.5)).unwrap();
        }
        let set = exact(&g, src, dest, None, &Budget::unlimited(), None).unwrap();
        // Every returned path must be nondominated against brute force,
        // and every brute-force nondominated cost must appear.
        let brute = all_paths(&g, src, dest);
        for p in set.paths() {
            assert!(
                !brute.iter().any(|(c, _)| dominates(c, &p.cost)),
                "solver returned dominated path {:?}",
                p.cost
            );
        }
        for (c, _) in &brute {
            if !brute.iter().any(|(c2, _)| dominates(c2, c)) {
                assert!(
                    set.paths().iter().any(|p| p.cost == *c),
                    "missing nondominated cost {c:?}"
                );
            }
        }
    }

    #[test]
    fn path_reconstruction_is_consistent() {
        let (g, s, t) = diamond();
        let set = exact(&g, s, t, None, &Budget::unlimited(), None).unwrap();
        for p in set.paths() {
            assert_eq!(p.vertices.first(), Some(&s));
            assert_eq!(p.vertices.last(), Some(&t));
            // Re-sum the arc weights along the reconstructed path.
            let mut cost = vec![0.0; g.dim()];
            for w2 in p.vertices.windows(2) {
                let (u, v) = (w2[0], w2[1]);
                let (_, w) = g.out_arcs(u).find(|(to, _)| *to == v).expect("arc exists");
                for (a, b) in cost.iter_mut().zip(w) {
                    *a += b;
                }
            }
            assert_eq!(&cost, &p.cost);
        }
    }

    #[test]
    fn label_cap_truncates_but_still_answers() {
        let mut g = MospGraph::new(2);
        let mut prev = g.add_vertex();
        let src = prev;
        // 8 diamond stages: up to 2^8 Pareto paths.
        for _ in 0..8 {
            let a = g.add_vertex();
            let b = g.add_vertex();
            let join = g.add_vertex();
            g.add_arc(prev, a, vec![1.0, 0.0]).unwrap();
            g.add_arc(prev, b, vec![0.0, 1.0]).unwrap();
            g.add_arc(a, join, vec![0.0, 0.0]).unwrap();
            g.add_arc(b, join, vec![0.0, 0.0]).unwrap();
            prev = join;
        }
        let capped = exact(&g, src, prev, Some(4), &Budget::unlimited(), None).unwrap();
        assert!(capped.is_truncated());
        // The min-max optimum splits 4/4.
        let mm = capped.min_max().unwrap().max_component();
        assert!(mm <= 6.0, "cap kept a good min-max path, got {mm}");
        let full = exact(&g, src, prev, None, &Budget::unlimited(), None).unwrap();
        assert_eq!(full.min_max().unwrap().max_component(), 4.0);
    }

    /// `stages` chained diamonds with power-of-two stage weights: every
    /// subset sum is distinct and all `2^stages` path costs lie on one
    /// anti-diagonal, so the frontier is genuinely exponential — the worst
    /// case for the exact DP.
    fn diamond_chain(stages: usize) -> (MospGraph, VertexId, VertexId) {
        let mut g = MospGraph::new(2);
        let mut prev = g.add_vertex();
        let src = prev;
        for i in 0..stages {
            let a = g.add_vertex();
            let b = g.add_vertex();
            let join = g.add_vertex();
            let w = (1u64 << i) as f64;
            g.add_arc(prev, a, vec![w, 0.0]).unwrap();
            g.add_arc(prev, b, vec![0.0, w]).unwrap();
            g.add_arc(a, join, vec![0.0, 0.0]).unwrap();
            g.add_arc(b, join, vec![0.0, 0.0]).unwrap();
            prev = join;
        }
        (g, src, prev)
    }

    #[test]
    fn work_cap_degrades_to_valid_paths() {
        let (g, src, dest) = diamond_chain(14);
        let budget = Budget::unlimited().and_work_cap(2_000);
        let set = exact(&g, src, dest, None, &budget, None).unwrap();
        assert_eq!(
            set.exhaustion(),
            Some(crate::budget::Exhaustion::WorkCapReached)
        );
        assert!(set.is_truncated());
        // Every returned path is still a genuine source→dest path whose
        // cost re-adds along its arcs.
        assert!(!set.paths().is_empty());
        for p in set.paths() {
            assert_eq!(p.vertices.first(), Some(&src));
            assert_eq!(p.vertices.last(), Some(&dest));
            let total = ((1u64 << 14) - 1) as f64;
            assert_eq!(p.cost.iter().sum::<f64>(), total, "total arc weight");
        }
    }

    #[test]
    fn expired_deadline_still_returns_a_path() {
        let (g, src, dest) = diamond_chain(12);
        let budget =
            Budget::unlimited().and_deadline(std::time::Instant::now() - Duration::from_secs(1));
        let set = exact(&g, src, dest, None, &budget, None).unwrap();
        assert_eq!(
            set.exhaustion(),
            Some(crate::budget::Exhaustion::DeadlineExpired)
        );
        assert!(!set.paths().is_empty());
        let p = &set.paths()[0];
        assert_eq!(p.vertices.first(), Some(&src));
        assert_eq!(p.vertices.last(), Some(&dest));
    }

    #[test]
    fn tight_deadline_finishes_fast_on_exponential_instance() {
        // 2^22 Pareto paths unbudgeted — minutes of work. Under a ~100 ms
        // budget the solve must come back quickly with a valid answer.
        let (g, src, dest) = diamond_chain(22);
        let budget = Budget::with_time_limit(Duration::from_millis(100));
        let started = std::time::Instant::now();
        let set = exact(&g, src, dest, None, &budget, None).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "budgeted solve took {elapsed:?}"
        );
        assert!(set.is_truncated());
        assert!(set.exhaustion().is_some());
        assert!(!set.paths().is_empty());
    }

    #[test]
    fn generous_budget_reports_no_exhaustion() {
        let (g, s, t) = diamond();
        let budget = Budget::with_time_limit(Duration::from_secs(60)).and_work_cap(1 << 30);
        let set = exact(&g, s, t, None, &budget, None).unwrap();
        assert_eq!(set.exhaustion(), None);
        assert!(!set.is_truncated());
        assert_eq!(set.paths().len(), 2);
    }

    #[test]
    fn shared_budget_caps_across_solves() {
        // Two solves drawing from one budget: the second starts with the
        // counter already charged by the first and degrades sooner —
        // exactly the semantics concurrent zone solves rely on.
        let (g, src, dest) = diamond_chain(10);
        let lone = Budget::unlimited().and_work_cap(5_000);
        let lone_set = exact(&g, src, dest, None, &lone, None).unwrap();
        assert_eq!(lone_set.exhaustion(), None, "5k units suffice alone");

        let shared = Budget::unlimited().and_work_cap(5_000);
        let first = exact(&g, src, dest, None, &shared.clone(), None).unwrap();
        assert_eq!(first.exhaustion(), None);
        let second = exact(&g, src, dest, None, &shared.clone(), None).unwrap();
        assert_eq!(
            second.exhaustion(),
            Some(crate::budget::Exhaustion::WorkCapReached),
            "the second solve inherits the first one's spend"
        );
        assert!(!second.paths().is_empty(), "still degrades to a valid path");
    }

    #[test]
    fn warburton_degrades_under_a_work_cap_too() {
        let (g, src, dest) = diamond_chain(14);
        let budget = Budget::unlimited().and_work_cap(500);
        let set = warburton(&g, src, dest, 0.01, None, &budget, None).unwrap();
        assert!(set.exhaustion().is_some());
        assert!(!set.paths().is_empty());
    }

    #[test]
    fn warburton_label_cap_truncates_but_still_answers() {
        let (g, src, dest) = diamond_chain(8);
        let free = Budget::unlimited();
        let capped = warburton(&g, src, dest, 0.01, Some(3), &free, None).unwrap();
        assert!(capped.is_truncated());
        assert!(!capped.paths().is_empty() && capped.paths().len() <= 3);
        let full = warburton(&g, src, dest, 0.01, None, &free, None).unwrap();
        assert!(!full.is_truncated());
        assert!(full.paths().len() > 3);
    }

    /// Sums what a solve reports to its observer.
    #[derive(Default)]
    struct Tally {
        layers: u64,
        attempts: u64,
        pruned: u64,
        evicted: u64,
        exhausted: Vec<Exhaustion>,
    }

    impl SolveObserver for Tally {
        fn now_ns(&mut self) -> u64 {
            0
        }
        fn layer_span(&mut self, _: u64, _: usize, _: usize) {
            self.layers += 1;
        }
        fn batch_span(&mut self, _: u64, _: usize, _: usize, attempts: u64, pruned: u64) {
            self.attempts += attempts;
            self.pruned += pruned;
        }
        fn cap_evictions(&mut self, _: usize, count: u64) {
            self.evicted += count;
        }
        fn budget_exhausted(&mut self, reason: Exhaustion) {
            self.exhausted.push(reason);
        }
    }

    #[test]
    fn the_observer_sees_every_attempt_and_eviction() {
        // Batches account for every attempt, and batch prunes plus cap
        // evictions for every pruned label. Exhaustion is reported once.
        let (g, src, dest) = diamond_chain(10);
        for eps in [None, Some(0.01)] {
            for budget in [Budget::unlimited(), Budget::unlimited().and_work_cap(50)] {
                let mut tally = Tally::default();
                let obs: Option<&mut dyn SolveObserver> = Some(&mut tally);
                let set = match eps {
                    None => exact(&g, src, dest, Some(4), &budget, obs),
                    Some(e) => warburton(&g, src, dest, e, Some(4), &budget, obs),
                }
                .unwrap();
                let stats = set.stats();
                assert_eq!(tally.layers, g.vertex_count() as u64);
                assert_eq!(tally.attempts, stats.work);
                assert!(tally.evicted > 0, "the cap must evict");
                assert_eq!(tally.pruned + tally.evicted, stats.labels_pruned);
                assert_eq!(set.exhaustion().is_some(), budget != Budget::unlimited());
                let want: Vec<Exhaustion> = set.exhaustion().into_iter().collect();
                assert_eq!(tally.exhausted, want);
            }
        }
    }

    #[test]
    fn warburton_approximates_within_bound() {
        let (g, s, t) = diamond();
        for eps in [0.01, 0.1, 0.5] {
            let approx = warburton(&g, s, t, eps, None, &Budget::unlimited(), None).unwrap();
            let exact_set = exact(&g, s, t, None, &Budget::unlimited(), None).unwrap();
            let opt = exact_set.min_max().unwrap().max_component();
            let got = approx.min_max().unwrap().max_component();
            assert!(
                got <= opt * (1.0 + eps) + 1e-9,
                "eps={eps}: got {got}, opt {opt}"
            );
        }
    }

    #[test]
    fn warburton_collapses_near_equal_labels() {
        // Many near-identical parallel routes: the ε grid should merge them.
        let mut g = MospGraph::new(2);
        let mut prev = g.add_vertex();
        let src = prev;
        for i in 0..6 {
            let a = g.add_vertex();
            let b = g.add_vertex();
            let join = g.add_vertex();
            let jitter = 1e-4 * i as f64;
            g.add_arc(prev, a, vec![1.0 + jitter, 1.0]).unwrap();
            g.add_arc(prev, b, vec![1.0, 1.0 + jitter]).unwrap();
            g.add_arc(a, join, vec![0.0, 0.0]).unwrap();
            g.add_arc(b, join, vec![0.0, 0.0]).unwrap();
            prev = join;
        }
        let approx = warburton(&g, src, prev, 0.2, None, &Budget::unlimited(), None).unwrap();
        assert!(
            approx.paths().len() <= 8,
            "grid should collapse near-ties, got {}",
            approx.paths().len()
        );
    }

    #[test]
    fn warburton_rejects_bad_epsilon() {
        let (g, s, t) = diamond();
        assert!(matches!(
            warburton(&g, s, t, 0.0, None, &Budget::unlimited(), None),
            Err(MospError::InvalidParameter(_))
        ));
        assert!(matches!(
            warburton(&g, s, t, -1.0, None, &Budget::unlimited(), None),
            Err(MospError::InvalidParameter(_))
        ));
        assert!(matches!(
            warburton(&g, s, t, f64::NAN, None, &Budget::unlimited(), None),
            Err(MospError::InvalidParameter(_))
        ));
    }

    #[test]
    fn warburton_rejects_a_grid_of_2_pow_30_cells_and_runs_just_below() {
        let (g, s, t) = diamond();
        let n = g.vertex_count() as f64; // 4: n/ε below is exact
        let free = Budget::unlimited();
        for eps in [n / GRID_CELL_LIMIT, n / GRID_CELL_LIMIT / 2.0, 1e-300] {
            assert!(matches!(
                warburton(&g, s, t, eps, None, &free, None),
                Err(MospError::InvalidParameter(_))
            ));
        }
        // One cell under the bound the grid is as fine as `i32` holds,
        // and the ε answer is the exact Pareto set.
        let eps = n / (GRID_CELL_LIMIT - 1.0);
        assert!(n / eps < GRID_CELL_LIMIT);
        let fine = warburton(&g, s, t, eps, None, &free, None).unwrap();
        let exact_set = exact(&g, s, t, None, &free, None).unwrap();
        assert_eq!(fine.paths(), exact_set.paths());
    }

    #[test]
    fn unreachable_dest_errors() {
        let mut g = MospGraph::new(1);
        let a = g.add_vertex();
        let b = g.add_vertex();
        assert_eq!(
            exact(&g, a, b, None, &Budget::unlimited(), None),
            Err(MospError::NoPath)
        );
    }

    #[test]
    fn source_equals_dest() {
        let mut g = MospGraph::new(2);
        let a = g.add_vertex();
        let set = exact(&g, a, a, None, &Budget::unlimited(), None).unwrap();
        assert_eq!(set.paths().len(), 1);
        assert_eq!(set.paths()[0].cost, vec![0.0, 0.0]);
        assert_eq!(set.paths()[0].vertices, vec![a]);
    }

    #[test]
    fn zero_weight_graph() {
        let mut g = MospGraph::new(2);
        let vs = g.add_vertices(3);
        g.add_arc(vs[0], vs[1], vec![0.0, 0.0]).unwrap();
        g.add_arc(vs[1], vs[2], vec![0.0, 0.0]).unwrap();
        let set = warburton(&g, vs[0], vs[2], 0.1, None, &Budget::unlimited(), None).unwrap();
        assert_eq!(set.paths().len(), 1);
        assert_eq!(set.paths()[0].cost, vec![0.0, 0.0]);
    }

    #[test]
    fn high_dimension_weights() {
        // r = 8 like a multi-mode WaveMin instance.
        let mut g = MospGraph::new(8);
        let vs = g.add_vertices(3);
        g.add_arc(vs[0], vs[1], vec![1.0; 8]).unwrap();
        g.add_arc(vs[1], vs[2], vec![2.0; 8]).unwrap();
        let set = exact(&g, vs[0], vs[2], None, &Budget::unlimited(), None).unwrap();
        assert_eq!(set.paths()[0].cost, vec![3.0; 8]);
    }
}
