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
//! element, never by hash). [`SharePlan::answer`] then runs each group's
//! solve exactly once: the first member to arrive solves, concurrent
//! members block on it, and the answer is released after its last member
//! has taken it. The number of solves therefore depends on the problem
//! alone, not on the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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

/// One group's answer slot.
struct Slot<T> {
    answer: Mutex<Option<Arc<T>>>,
    /// Members that have not taken the answer yet.
    remaining: AtomicUsize,
}

/// The groups of equal restriction prefixes over a grid of `cells`
/// intersections × `ranks` zone ranks, with one answer slot per group.
pub(crate) struct SharePlan<T> {
    ranks: usize,
    /// `group[cell * ranks + rank]`.
    group: Vec<usize>,
    slots: Vec<Slot<T>>,
}

impl<T> SharePlan<T> {
    /// Groups the cells. `restriction(cell, rank, out)` appends the
    /// encoded restriction of the cell's zone at `rank` to `out`; it is
    /// only called where the cell's prefix up to `rank - 1` is shared with
    /// some other cell, since a cell alone at one rank stays alone.
    pub(crate) fn build(
        cells: usize,
        ranks: usize,
        mut restriction: impl FnMut(usize, usize, &mut Vec<u64>),
    ) -> Self {
        let mut group = vec![0; cells * ranks];
        let mut members: Vec<usize> = Vec::new();
        // Each cell's group at the previous rank, as an index into
        // `parent_size`; every cell shares the empty prefix.
        let mut parent = vec![0; cells];
        let mut parent_size = vec![cells];
        for rank in 0..ranks {
            let base = members.len();
            // Per parent group: the distinct restrictions met so far and
            // the group each one opened.
            let mut children: Vec<Vec<(Vec<u64>, usize)>> = vec![Vec::new(); parent_size.len()];
            for cell in 0..cells {
                let p = parent[cell];
                let local = if parent_size[p] == 1 {
                    members.push(0);
                    members.len() - 1 - base
                } else {
                    let mut key = Vec::new();
                    restriction(cell, rank, &mut key);
                    match children[p].iter().find(|(k, _)| *k == key) {
                        Some(&(_, g)) => g,
                        None => {
                            members.push(0);
                            let g = members.len() - 1 - base;
                            children[p].push((key, g));
                            g
                        }
                    }
                };
                members[base + local] += 1;
                group[cell * ranks + rank] = base + local;
                parent[cell] = local;
            }
            parent_size = members[base..].to_vec();
        }
        let slots = members
            .into_iter()
            .map(|n| Slot {
                answer: Mutex::new(None),
                remaining: AtomicUsize::new(n),
            })
            .collect();
        Self {
            ranks,
            group,
            slots,
        }
    }

    /// The group of cell `(cell, rank)`.
    pub(crate) fn group(&self, cell: usize, rank: usize) -> usize {
        self.group[cell * self.ranks + rank]
    }

    /// Number of groups (distinct subproblems).
    #[cfg(test)]
    pub(crate) fn groups(&self) -> usize {
        self.slots.len()
    }

    /// The answer for cell `(cell, rank)`, and whether another member of
    /// its group produced it. The group's first member runs `solve` while
    /// holding the slot, so concurrent members block until it lands. Each
    /// member must ask exactly once: the slot drops the answer when its
    /// last member has it.
    pub(crate) fn answer(
        &self,
        cell: usize,
        rank: usize,
        solve: impl FnOnce() -> T,
    ) -> (Arc<T>, bool) {
        let slot = &self.slots[self.group(cell, rank)];
        // A solve that panicked leaves the slot empty, which is a valid
        // state: the next member solves again.
        let lock = || slot.answer.lock().unwrap_or_else(PoisonError::into_inner);
        let taken = {
            let mut held = lock();
            match held.as_ref() {
                Some(answer) => (Arc::clone(answer), true),
                None => {
                    let answer = Arc::new(solve());
                    *held = Some(Arc::clone(&answer));
                    (answer, false)
                }
            }
        };
        // The count only picks the member that empties the slot; the
        // answer itself is published and dropped under the mutex.
        if slot.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *lock() = None;
        }
        taken
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

    fn plan_of(grid: &[Vec<Restriction>], modes: usize) -> SharePlan<()> {
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

    #[test]
    fn each_group_solves_once_and_releases_after_its_last_member() {
        let r: Restriction = vec![vec![(0, vec![Some(0.0)])]];
        let grid = vec![vec![r.clone()]; 3];
        let plan: SharePlan<usize> = SharePlan::build(3, 1, |cell, rank, out| {
            out.extend(encode(&grid[cell][rank], 1));
        });
        let solves = AtomicUsize::new(0);
        let solve = || solves.fetch_add(1, Ordering::Relaxed) + 41;
        let (first, shared) = plan.answer(0, 0, solve);
        assert!(!shared);
        let (second, shared) = plan.answer(2, 0, || unreachable!("solved already"));
        assert!(shared);
        assert_eq!((*first, *second), (41, 41));
        assert!(plan.slots[0].answer.lock().expect("slot").is_some());
        let _ = plan.answer(1, 0, || unreachable!("solved already"));
        assert!(plan.slots[0].answer.lock().expect("slot").is_none());
        assert_eq!(solves.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn members_arriving_during_the_solve_take_its_answer() {
        let grid = vec![vec![vec![vec![(0, vec![Some(0.0)])]]]; 8];
        let plan: SharePlan<u64> = SharePlan::build(8, 1, |cell, rank, out| {
            out.extend(encode(&grid[cell][rank], 1));
        });
        let solves = AtomicUsize::new(0);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let others_ready = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let (plan, solves) = (&plan, &solves);
            // Cell 0 solves, and holds its solve open until the other seven
            // members have been started and are about to ask.
            scope.spawn(move || {
                let (answer, shared) = plan.answer(0, 0, || {
                    solves.fetch_add(1, Ordering::Relaxed);
                    started_tx.send(()).expect("main thread listens");
                    release_rx.recv().expect("main thread releases");
                    7
                });
                assert_eq!((*answer, shared), (7, false));
            });
            started_rx.recv().expect("cell 0 starts solving");
            for cell in 1..8 {
                let others_ready = &others_ready;
                scope.spawn(move || {
                    others_ready.wait();
                    let (answer, shared) = plan.answer(cell, 0, || unreachable!("solving"));
                    assert_eq!((*answer, shared), (7, true));
                });
            }
            others_ready.wait();
            release_tx.send(()).expect("cell 0 waits");
        });
        assert_eq!(solves.load(Ordering::Relaxed), 1);
    }
}
