//! The share plan: solve each distinct zone subproblem once per run.
//!
//! A zone's solve inside one feasible intersection reads only its
//! *restriction* (the allowed option lists of its sinks and every allowed
//! option's delay code in every mode), its static background and the
//! choices of the zones before it in the solve order. Those choices are in
//! turn fixed by the earlier zones' restrictions, so two cells (intersection,
//! zone rank) whose restriction *prefixes* along the solve order are equal
//! pose the same subproblem and get the same answer, bit for bit.
//!
//! [`SharePlan::build`] partitions the cells into groups by exact equality
//! of those prefixes (the encoded restrictions are compared element by
//! element, never by hash). The groups form a tree: a group at rank `r + 1`
//! lies inside one group at rank `r`, its parent. [`SharePlan::run`] walks
//! that tree. A group is solved once, from its parent's state, as soon as
//! the parent is answered, and its answer serves every member, so no
//! worker ever blocks on a group another worker is solving. The number of
//! solves therefore depends on the problem alone, not on the worker count.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use wavemin_cells::units::Picoseconds;

/// Appends one zone's restriction in one intersection to `out`: per
/// local sink the length of its allowed option list, then per allowed
/// option its index and, for each of the `modes` power modes, the delay
/// code `code(local, option, mode)` (a tag plus the code's bits, or a
/// miss tag when the option cannot reach that mode's window). The
/// encoding is prefix-free for a fixed mode count, so two zones' encodings
/// are equal exactly when their restrictions are.
pub(crate) fn encode_restriction(
    out: &mut Vec<u64>,
    allowed: &[&[usize]],
    modes: usize,
    mut code: impl FnMut(usize, usize, usize) -> Option<Picoseconds>,
) {
    for (local, opts) in allowed.iter().enumerate() {
        out.push(opts.len() as u64);
        for &opt in opts.iter() {
            out.push(opt as u64);
            for mode in 0..modes {
                match code(local, opt, mode) {
                    Some(c) => out.extend([1, c.value().to_bits()]),
                    None => out.push(0),
                }
            }
        }
    }
}

/// One group: the cells sharing one restriction prefix up to `rank`.
struct Group {
    rank: usize,
    /// The member cells, as a range of [`SharePlan::order`].
    members: Range<usize>,
    /// The groups at `rank + 1` inside this one, ordered by first member.
    children: Range<usize>,
}

/// The groups of equal restriction prefixes over a grid of `cells`
/// intersections × `ranks` zone ranks, as a tree.
pub(crate) struct SharePlan {
    /// A permutation of the cells in which every group's members form one
    /// run, led by the group's lowest cell (its first member).
    order: Vec<usize>,
    groups: Vec<Group>,
    /// The rank-0 groups (the children of the empty prefix).
    roots: Range<usize>,
}

impl SharePlan {
    /// Groups the cells. `restriction(cell, rank, out)` appends the
    /// encoded restriction of the cell's zone at `rank` to `out`; it is
    /// only called where the cell's prefix up to `rank - 1` is shared with
    /// some other cell, since a cell alone at one rank stays alone.
    pub(crate) fn build(
        cells: usize,
        ranks: usize,
        mut restriction: impl FnMut(usize, usize, &mut Vec<u64>),
    ) -> Self {
        let mut order: Vec<usize> = (0..cells).collect();
        let mut groups: Vec<Group> = Vec::new();
        let mut roots = 0..0;
        // The groups at the previous rank and their member runs; the empty
        // prefix (no group) spans every cell.
        let mut parents: Vec<(Option<usize>, Range<usize>)> = vec![(None, 0..cells)];
        for rank in 0..ranks {
            let mut next = Vec::new();
            for (parent, run) in parents {
                let first = groups.len();
                if run.len() == 1 {
                    groups.push(Group {
                        rank,
                        members: run,
                        children: 0..0,
                    });
                } else {
                    // The run is still ascending (its descendants are split
                    // later). A stable split keeps each child's run
                    // ascending and orders the children by first member, so
                    // the first child leads with the parent's first member.
                    let mut split: Vec<(Vec<u64>, Vec<usize>)> = Vec::new();
                    for &cell in &order[run.clone()] {
                        let mut key = Vec::new();
                        restriction(cell, rank, &mut key);
                        match split.iter_mut().find(|(k, _)| *k == key) {
                            Some((_, members)) => members.push(cell),
                            None => split.push((key, vec![cell])),
                        }
                    }
                    let mut at = run.start;
                    for (_, members) in split {
                        order[at..at + members.len()].copy_from_slice(&members);
                        groups.push(Group {
                            rank,
                            members: at..at + members.len(),
                            children: 0..0,
                        });
                        at += members.len();
                    }
                }
                let kids = first..groups.len();
                match parent {
                    Some(p) => groups[p].children = kids.clone(),
                    None => roots = kids.clone(),
                }
                next.extend(kids.map(|g| (Some(g), groups[g].members.clone())));
            }
            parents = next;
        }
        Self {
            order,
            groups,
            roots,
        }
    }

    fn members(&self, group: usize) -> &[usize] {
        &self.order[self.groups[group].members.clone()]
    }

    /// Solves every group reachable from the empty prefix and returns one
    /// result per cell, in cell order.
    ///
    /// `solve(rank, members, state)` answers one group from its parent's
    /// state (`root` for a rank-0 group), where `members` are its cells,
    /// lowest first. It returns the state the group's children start
    /// from, or the result every member gets when the prefix ends there (an
    /// infeasible or failed zone). At the last rank, `finish(cell, state)`
    /// makes each member's result.
    ///
    /// Ready groups wait in a set ordered by first member. A worker takes
    /// the first one and walks down through the child that holds the
    /// group's first member, publishing only the other children. The walk
    /// moves the state on; the published children share one copy of it,
    /// which each clones when it starts except the last, which takes it.
    /// At one thread the groups are therefore solved in (first member,
    /// rank) order: intersection by intersection, each zone when its first
    /// intersection reaches it. The set is touched only where the tree
    /// splits. A group's state, and whatever its answer holds, is dropped
    /// once its last descendant has been taken up.
    pub(crate) fn run<S, R>(
        &self,
        threads: usize,
        root: S,
        solve: impl Fn(usize, &[usize], S) -> Result<S, R> + Sync,
        finish: impl Fn(usize, &S) -> R + Sync,
    ) -> Vec<R>
    where
        S: Clone + Send + Sync,
        R: Clone + Send,
    {
        let cells = self.order.len();
        if self.roots.is_empty() {
            // No zones: every cell is its empty prefix.
            return (0..cells).map(|cell| finish(cell, &root)).collect();
        }
        let queue = Queue {
            state: Mutex::new(Ready {
                groups: BTreeMap::new(),
                busy: 0,
            }),
            wake: Condvar::new(),
        };
        let first = |g: usize| self.order[self.groups[g].members.start];
        queue.publish(self.roots.clone().map(|g| (first(g), g)), Arc::new(root));
        // One worker's walk from a taken group to the end of its prefix.
        let walk = |mut group: usize, mut state: S, out: &mut Vec<(usize, R)>| loop {
            let g = &self.groups[group];
            let members = self.members(group);
            match solve(g.rank, members, state) {
                Err(result) => {
                    out.extend(members.iter().map(|&cell| (cell, result.clone())));
                    return;
                }
                Ok(next) if g.children.is_empty() => {
                    out.extend(members.iter().map(|&cell| (cell, finish(cell, &next))));
                    return;
                }
                Ok(next) => {
                    let others = g.children.start + 1..g.children.end;
                    if !others.is_empty() {
                        queue.publish(others.map(|c| (first(c), c)), Arc::new(next.clone()));
                    }
                    group = g.children.start;
                    state = next;
                }
            }
        };
        let work = || {
            let mut out = Vec::new();
            while let Some((group, shared)) = queue.take() {
                let _busy = Busy(&queue);
                let state = Arc::try_unwrap(shared).unwrap_or_else(|s| S::clone(&s));
                walk(group, state, &mut out);
            }
            out
        };
        let workers = threads.clamp(1, cells.max(1));
        let mut finished: Vec<(usize, R)> = if workers == 1 {
            work()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        // Every cell ends in exactly one group: a failed one or a leaf.
        finished.sort_unstable_by_key(|&(cell, _)| cell);
        debug_assert!(finished.iter().enumerate().all(|(i, &(cell, _))| i == cell));
        finished.into_iter().map(|(_, result)| result).collect()
    }
}

/// The groups ready to solve with their parent's shared state, keyed by
/// first member (unique: two ready groups sharing a member would be
/// ancestor and descendant), and the number of workers walking.
struct Ready<S> {
    groups: BTreeMap<usize, (usize, Arc<S>)>,
    busy: usize,
}

struct Queue<S> {
    state: Mutex<Ready<S>>,
    wake: Condvar,
}

impl<S: Clone> Queue<S> {
    /// Every update under the lock leaves the set and the count valid, so
    /// a worker that panicked elsewhere leaves nothing to repair.
    fn lock(&self) -> MutexGuard<'_, Ready<S>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Makes `(first member, group)` pairs ready, all from `state`.
    fn publish(&self, groups: impl Iterator<Item = (usize, usize)>, state: Arc<S>) {
        let ready = groups.map(|(first, g)| (first, (g, Arc::clone(&state))));
        self.lock().groups.extend(ready);
        self.wake.notify_all();
    }

    /// The ready group with the lowest first member, waiting while other
    /// workers may still publish; `None` once the tree is done.
    fn take(&self) -> Option<(usize, Arc<S>)> {
        let mut ready = self.lock();
        loop {
            if let Some((_, taken)) = ready.groups.pop_first() {
                ready.busy += 1;
                return Some(taken);
            }
            if ready.busy == 0 {
                return None;
            }
            ready = self
                .wake
                .wait(ready)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Marks a worker's walk finished, also when it unwinds, so that idle
/// workers never wait on a walk that cannot publish any more.
struct Busy<'a, S: Clone>(&'a Queue<S>);

impl<S: Clone> Drop for Busy<'_, S> {
    fn drop(&mut self) {
        let mut ready = self.0.lock();
        ready.busy -= 1;
        if ready.busy == 0 {
            self.0.wake.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One zone's restriction as data: per sink, the allowed options with
    /// their per-mode codes.
    type Restriction = Vec<Vec<(usize, Vec<Option<f64>>)>>;

    fn encode(r: &Restriction, modes: usize) -> Vec<u64> {
        let allowed: Vec<Vec<usize>> = r
            .iter()
            .map(|sink| sink.iter().map(|&(o, _)| o).collect())
            .collect();
        let borrowed: Vec<&[usize]> = allowed.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        encode_restriction(&mut out, &borrowed, modes, |local, opt, mode| {
            let (_, codes) = r[local].iter().find(|&&(o, _)| o == opt)?;
            codes[mode].map(Picoseconds::new)
        });
        out
    }

    impl SharePlan {
        /// The group of cell `(cell, rank)`.
        fn group(&self, cell: usize, rank: usize) -> usize {
            let mut kids = self.roots.clone();
            let mut group = usize::MAX;
            for _ in 0..=rank {
                group = kids
                    .find(|&g| self.members(g).contains(&cell))
                    .expect("every cell has a group at every rank");
                kids = self.groups[group].children.clone();
            }
            group
        }

        /// Number of groups (distinct subproblems).
        fn groups(&self) -> usize {
            self.groups.len()
        }
    }

    fn plan_of(grid: &[Vec<Restriction>], modes: usize) -> SharePlan {
        let ranks = grid.first().map_or(0, Vec::len);
        SharePlan::build(grid.len(), ranks, |cell, rank, out| {
            out.extend(encode(&grid[cell][rank], modes));
        })
    }

    /// A restriction drawn from a tiny alphabet so that equal prefixes are
    /// common: one or two sinks, options 0..3, codes from {0, 2.5, miss}.
    /// Option lists never repeat an index (the real allowed lists are
    /// strictly increasing).
    fn arb_restriction(modes: usize) -> impl Strategy<Value = Restriction> {
        let code = (0u32..3).prop_map(|c| [Some(0.0), Some(2.5), None][c as usize]);
        let option = (0usize..3, prop::collection::vec(code, modes));
        let sink = prop::collection::vec(option, 0..3).prop_map(|mut opts| {
            opts.sort_by_key(|&(o, _)| o);
            opts.dedup_by_key(|&mut (o, _)| o);
            opts
        });
        prop::collection::vec(sink, 1..3)
    }

    /// A variant of `base`: itself, the same lists with one delay code
    /// moved, the same lists with one code turned into a miss (or back),
    /// or the unrelated `fresh` restriction.
    fn variant(base: &Restriction, fresh: &Restriction, which: usize) -> Restriction {
        let mut out = base.clone();
        let first = out.iter_mut().flat_map(|sink| sink.iter_mut()).next();
        match (which, first) {
            (1, Some((_, codes))) => codes[0] = Some(codes[0].map_or(0.0, |c| c + 2.5)),
            (2, Some((_, codes))) => {
                let last = codes.len() - 1;
                codes[last] = if codes[last].is_some() {
                    None
                } else {
                    Some(1.0)
                };
            }
            (3, _) => out = fresh.clone(),
            _ => {}
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn cells_share_exactly_when_their_restriction_prefixes_are_equal(
            (bases, fresh, picks) in (1usize..5).prop_flat_map(|ranks| {
                (
                    prop::collection::vec(arb_restriction(2), ranks),
                    prop::collection::vec(arb_restriction(2), ranks),
                    prop::collection::vec(prop::collection::vec(0usize..4, ranks), 1..9),
                )
            }),
        ) {
            let grid: Vec<Vec<Restriction>> = picks
                .iter()
                .map(|cell| {
                    cell.iter()
                        .enumerate()
                        .map(|(rank, &which)| variant(&bases[rank], &fresh[rank], which))
                        .collect()
                })
                .collect();
            let plan = plan_of(&grid, 2);
            let ranks = bases.len();
            let mut distinct = 0;
            for rank in 0..ranks {
                for a in 0..grid.len() {
                    if (0..a).all(|b| grid[b][..=rank] != grid[a][..=rank]) {
                        distinct += 1;
                    }
                    for b in 0..grid.len() {
                        // The brute-force oracle compares the restriction
                        // data itself, not its encoding.
                        let oracle = grid[a][..=rank] == grid[b][..=rank];
                        prop_assert_eq!(
                            plan.group(a, rank) == plan.group(b, rank),
                            oracle,
                            "cells {} and {} at rank {}",
                            a,
                            b,
                            rank
                        );
                    }
                }
            }
            prop_assert_eq!(plan.groups(), distinct);
        }
    }

    mod differential {
        use crate::algo::clkwavemin::MospZoneSolver;
        use crate::algo::{characterize_design, solve_each_intersection, PreparedRun};
        use crate::multimode::FeasibleIntersection;
        use crate::observe::{Instruments, MetricsRegistry};
        use crate::prelude::*;
        use wavemin_cells::units::Picoseconds;

        /// The per-intersection answers of one solve: cost bits and
        /// assignment, `None` where the intersection was infeasible.
        type Answers = Vec<Option<(u64, Assignment)>>;

        fn solve(prep: &PreparedRun, cfg: &WaveMinConfig, threads: usize) -> (Answers, u64) {
            let ins = Instruments {
                registry: MetricsRegistry::enabled(),
                ..Instruments::disabled()
            };
            let solver = MospZoneSolver::new(cfg, wavemin_mosp::Budget::unlimited(), &ins);
            let (solved, faulted) =
                solve_each_intersection(threads, prep, &solver, None, None, &ins);
            assert!(faulted.is_empty());
            let answers = solved
                .into_iter()
                .map(|r| r.expect("solve").map(|(cost, a)| (cost.to_bits(), a)))
                .collect();
            let shared = ins
                .registry
                .report(&Default::default())
                .expect("enabled")
                .counters
                .zones_shared;
            (answers, shared)
        }

        /// Solving every intersection in one run (where equal prefixes
        /// share answers) gives each intersection exactly the cost bits
        /// and assignment it gets when solved alone in its own run.
        fn assert_sharing_is_exact(mut prep: PreparedRun, cfg: &WaveMinConfig, label: &str) {
            let (together, shared) = solve(&prep, cfg, 2);
            assert!(shared > 0, "{label}: the fixture must share subproblems");
            let all = std::mem::take(&mut prep.intersections);
            for (xi, x) in all.into_iter().enumerate() {
                prep.intersections = vec![x];
                let (alone, alone_shared) = solve(&prep, cfg, 1);
                assert_eq!(alone_shared, 0, "{label}: one intersection shares nothing");
                assert_eq!(alone[0], together[xi], "{label}: intersection {xi}");
            }
        }

        fn small() -> WaveMinConfig {
            let mut cfg = WaveMinConfig::default().with_sample_count(16);
            cfg.max_intervals = Some(12);
            cfg
        }

        #[test]
        fn single_mode_sharing_matches_solving_each_interval_alone() {
            let cfg = small();
            for bench in [Benchmark::s13207(), Benchmark::s15850()] {
                let design = Design::from_benchmark(&bench, 42);
                let prep = characterize_design(&design, &cfg, &Instruments::disabled())
                    .expect("characterize");
                assert_sharing_is_exact(prep, &cfg, &bench.name);
            }
        }

        #[test]
        fn four_mode_sharing_matches_solving_each_intersection_alone() {
            let cfg = small().with_skew_bound(Picoseconds::new(28.0));
            let design = Design::from_benchmark_multimode(&Benchmark::s15850(), 42, 8, 4);
            let flow = ClkWaveMinM::new(cfg.clone());
            let ins = Instruments::disabled();
            let mut prep = flow.prepare(&design, &ins).expect("prepare");
            prep.intersections = flow
                .intersections(&prep.tables, cfg.window_margin, &ins)
                .expect("intersections");
            assert_sharing_is_exact(prep, &cfg, "s15850 x4 modes");
        }

        #[test]
        fn adb_embedded_sharing_matches_solving_each_intersection_alone() {
            // Every leaf embedded as an ADB: its ADB/ADI candidates reach
            // every window, with a delay code that depends on the window.
            // All intervals are kept so that the windows spread over
            // several code steps.
            let mut cfg = small();
            cfg.max_intervals = None;
            let mut design = Design::from_benchmark(&Benchmark::s15850(), 42);
            for leaf in design.leaves() {
                design.tree.set_cell(leaf, "ADB_X8");
            }
            let prep =
                characterize_design(&design, &cfg, &Instruments::disabled()).expect("characterize");
            // The fixture must hold a zone whose allowed lists agree in two
            // intersections while its adjustable delay codes differ.
            let codes_only = prep.zone_order.iter().any(|&zi| {
                let sinks = &prep.zones.spec(zi).sinks;
                let codes = |x: &FeasibleIntersection| {
                    let (lo, hi) = x.windows[0];
                    let mut out = Vec::new();
                    for &si in sinks {
                        for &o in &x.allowed[si] {
                            out.push(prep.tables[0].sinks[si].options[o].delay_code_for(lo, hi));
                        }
                    }
                    out
                };
                let xs = &prep.intersections;
                (0..xs.len()).any(|a| {
                    (0..a).any(|b| {
                        xs[a].allowed_for(sinks) == xs[b].allowed_for(sinks)
                            && codes(&xs[a]) != codes(&xs[b])
                    })
                })
            });
            assert!(codes_only, "some windows must differ in delay codes alone");
            assert_sharing_is_exact(prep, &cfg, "s15850 ADB-embedded");
        }
    }

    #[test]
    fn windows_differing_only_in_delay_codes_never_share() {
        let base: Restriction = vec![vec![(0, vec![Some(0.0)]), (1, vec![Some(2.5)])]];
        let mut other = base.clone();
        other[0][1].1[0] = Some(5.0);
        let plan = plan_of(&[vec![base.clone()], vec![other], vec![base]], 1);
        assert_ne!(plan.group(0, 0), plan.group(1, 0));
        assert_eq!(plan.group(0, 0), plan.group(2, 0));
        assert_eq!(plan.groups(), 2);
    }

    #[test]
    fn a_miss_differs_from_every_code() {
        let hit: Restriction = vec![vec![(0, vec![Some(0.0), Some(0.0)])]];
        let miss: Restriction = vec![vec![(0, vec![Some(0.0), None])]];
        let plan = plan_of(&[vec![hit], vec![miss]], 2);
        assert_ne!(plan.group(0, 0), plan.group(1, 0));
    }

    #[test]
    fn a_diverged_prefix_never_rejoins() {
        let a: Restriction = vec![vec![(0, vec![Some(0.0)])]];
        let b: Restriction = vec![vec![(1, vec![Some(0.0)])]];
        let plan = plan_of(&[vec![a.clone(), a.clone()], vec![b, a]], 1);
        assert_ne!(plan.group(0, 1), plan.group(1, 1));
    }

    /// A grid of `cells` cells over `ranks` ranks drawn from a tiny
    /// alphabet, so that prefixes are shared and split at every depth.
    fn arb_grid() -> impl Strategy<Value = Vec<Vec<usize>>> {
        (1usize..5).prop_flat_map(|ranks| {
            prop::collection::vec(prop::collection::vec(0usize..3, ranks), 1..12)
        })
    }

    /// What one run saw: the solves in order as (rank, first member), and
    /// each cell's result: its prefix path, or the rank where it failed.
    type Trace = (Vec<(usize, usize)>, Vec<Result<Vec<usize>, usize>>);

    /// Runs a plan over `grid` where a group fails when `fails(rank,
    /// first member)`; the state is the path of first members.
    fn run_traced(
        grid: &[Vec<usize>],
        threads: usize,
        fails: impl Fn(usize, usize) -> bool + Sync,
    ) -> Trace {
        let ranks = grid[0].len();
        let plan = SharePlan::build(grid.len(), ranks, |cell, rank, out| {
            out.push(grid[cell][rank] as u64);
        });
        let log = Mutex::new(Vec::new());
        let results = plan.run(
            threads,
            Vec::new(),
            |rank, members: &[usize], mut path: Vec<usize>| {
                assert_eq!(members.iter().min(), Some(&members[0]), "lowest first");
                log.lock().expect("log").push((rank, members[0]));
                if fails(rank, members[0]) {
                    return Err(Err(rank));
                }
                path.push(members[0]);
                Ok(path)
            },
            |_, path| Ok(path.clone()),
        );
        (log.into_inner().expect("log"), results)
    }

    /// The per-intersection loop the scheduler replaced: each cell walks
    /// its ranks in order and a group is solved when its first cell
    /// arrives; a failed group ends every member's walk.
    fn sequential(grid: &[Vec<usize>], fails: impl Fn(usize, usize) -> bool) -> Trace {
        let ranks = grid[0].len();
        let mut log = Vec::new();
        let mut results = Vec::new();
        for (cell, row) in grid.iter().enumerate() {
            let mut path = Vec::new();
            let mut result = Ok(());
            for rank in 0..ranks {
                let first = (0..=cell)
                    .find(|&c| grid[c][..=rank] == row[..=rank])
                    .expect("the cell itself matches");
                if first == cell {
                    log.push((rank, first));
                }
                if fails(rank, first) {
                    result = Err(rank);
                    break;
                }
                path.push(first);
            }
            results.push(result.map(|()| path));
        }
        (log, results)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn the_tree_walk_solves_each_group_once_as_the_sequential_loop_would(
            grid in arb_grid(),
            modulus in 0usize..5,
        ) {
            let fails = |rank: usize, first: usize| modulus > 0 && (rank * 7 + first).is_multiple_of(modulus + 2);
            let (order, results) = sequential(&grid, fails);
            // One thread reproduces the sequential solve order exactly.
            prop_assert_eq!(&run_traced(&grid, 1, fails), &(order.clone(), results.clone()));
            for threads in [2, 4] {
                let (mut seen, got) = run_traced(&grid, threads, fails);
                prop_assert_eq!(&got, &results, "threads {}", threads);
                seen.sort_unstable();
                let mut want = order.clone();
                want.sort_unstable();
                prop_assert_eq!(seen, want, "threads {}", threads);
            }
        }
    }

    #[test]
    fn no_zones_finish_every_cell_from_the_root_state() {
        let plan = SharePlan::build(3, 0, |_, _, _| unreachable!("no ranks"));
        let results: Vec<usize> = plan.run(
            2,
            7,
            |_, _, _| -> Result<usize, usize> { unreachable!("no groups") },
            |cell, &root| root + cell,
        );
        assert_eq!(results, vec![7, 8, 9]);
    }

    /// A state that counts how often it is cloned.
    struct Counted<'a>(&'a std::sync::atomic::AtomicUsize);

    impl Clone for Counted<'_> {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Self(self.0)
        }
    }

    /// Clones made solving `grid` on `threads` workers.
    fn clones(grid: &[Vec<usize>], threads: usize) -> usize {
        let count = std::sync::atomic::AtomicUsize::new(0);
        let plan = SharePlan::build(grid.len(), grid[0].len(), |cell, rank, out| {
            out.push(grid[cell][rank] as u64);
        });
        let done = plan.run(
            threads,
            Counted(&count),
            |_, _, state| -> Result<Counted<'_>, ()> { Ok(state) },
            |_, _| (),
        );
        assert_eq!(done.len(), grid.len());
        count.into_inner()
    }

    #[test]
    fn a_split_clones_the_state_once_per_child_except_the_walked_and_the_last() {
        // Three rank-0 groups share the moved-in root: the first two clone
        // it and the last takes it. No other rank splits.
        assert_eq!(clones(&[vec![0, 0], vec![1, 0], vec![2, 0]], 1), 2);
        // One rank-0 group splits in three at rank 1: the walk moves the
        // state into the first child, the other two share one clone, and
        // the first of them to start clones it again.
        assert_eq!(clones(&[vec![0, 0], vec![0, 1], vec![0, 2]], 1), 2);
        // A chain never clones.
        assert_eq!(clones(&[vec![0, 0, 0], vec![0, 0, 0]], 1), 0);
        // More workers may clone where two take the last siblings at once,
        // but never more than once per group.
        assert!(clones(&[vec![0, 0], vec![1, 0], vec![2, 1], vec![2, 2]], 4) <= 7);
    }

    #[test]
    fn a_lone_cell_walks_every_rank_in_order_without_encoding() {
        let plan = SharePlan::build(1, 4, |_, _, _| unreachable!("no prefix is shared"));
        let log = Mutex::new(Vec::new());
        let results = plan.run(
            3,
            0usize,
            |rank, members: &[usize], depth| -> Result<usize, usize> {
                log.lock().expect("log").push((rank, members.to_vec()));
                Ok(depth + 1)
            },
            |_, &depth| depth,
        );
        assert_eq!(results, vec![4]);
        let want: Vec<(usize, Vec<usize>)> = (0..4).map(|r| (r, vec![0])).collect();
        assert_eq!(log.into_inner().expect("log"), want);
    }

    #[test]
    fn restrictions_are_encoded_only_while_a_prefix_is_shared() {
        // Cell 2 leaves the others at rank 0; cells 0 and 1 part at rank 2.
        let grid = [vec![0, 0, 0, 0], vec![0, 0, 1, 1], vec![5, 0, 0, 0]];
        let asked = Mutex::new(Vec::new());
        let plan = SharePlan::build(3, 4, |cell, rank, out| {
            asked.lock().expect("asked").push((cell, rank));
            out.push(grid[cell][rank]);
        });
        let asked = asked.into_inner().expect("asked");
        let want = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (1, 2)];
        assert_eq!(asked, want);
        assert_eq!(plan.groups(), 2 + 2 + 3 + 3);
        assert_eq!(plan.group(0, 1), plan.group(1, 1));
        assert_ne!(plan.group(0, 2), plan.group(1, 2));
    }

    #[test]
    fn more_workers_than_cells_still_answer_every_cell() {
        let grid: Vec<Vec<usize>> = vec![vec![0, 1], vec![0, 2]];
        let (mut seen, results) = run_traced(&grid, 64, |_, _| false);
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0), (1, 0), (1, 1)]);
        assert_eq!(results, vec![Ok(vec![0, 0]), Ok(vec![0, 1])]);
    }

    #[test]
    #[should_panic(expected = "solve panicked")]
    fn a_panicking_solve_propagates_instead_of_stalling_the_pool() {
        let grid: Vec<Vec<usize>> = (0..6).map(|c| vec![c % 3, c]).collect();
        let _ = run_traced(&grid, 3, |rank, first| {
            assert!(!(rank == 1 && first == 4), "solve panicked");
            false
        });
    }
}
