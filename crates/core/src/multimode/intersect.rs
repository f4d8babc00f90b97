//! Feasible interval intersections across power modes (Fig. 11,
//! Table IV).

use crate::config::WaveMinConfig;
use crate::error::WaveMinError;
use crate::intervals::{FeasibleInterval, IntervalSet};
use crate::noise_table::NoiseTable;
use serde::Serialize;
use wavemin_cells::units::Picoseconds;

/// One feasible intersection: a per-mode window plus, per sink, the
/// options allowed in **all** modes simultaneously.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FeasibleIntersection {
    /// `(t_lo, t_hi)` per power mode.
    pub windows: Vec<(Picoseconds, Picoseconds)>,
    /// `allowed[sink][..]` — option indices feasible in every mode.
    pub allowed: Vec<Vec<usize>>,
}

impl FeasibleIntersection {
    /// The degree of freedom (Section VI): total allowed candidates over
    /// all sinks. Larger tends to mean lower achievable noise (Fig. 14).
    #[must_use]
    pub fn degree_of_freedom(&self) -> usize {
        self.allowed.iter().map(Vec::len).sum()
    }

    /// The allowed-option lists of the given sinks (indices into the full
    /// sink list), borrowed straight from the intersection — the hot path
    /// builds one of these per (zone, window) pair, so no per-sink
    /// clones.
    pub(crate) fn allowed_for(&self, sinks: &[usize]) -> Vec<&[usize]> {
        sinks
            .iter()
            .map(|&si| self.allowed[si].as_slice())
            .collect()
    }
}

/// A single-mode interval is the one-window intersection (its allowed
/// lists move, not copy).
impl From<FeasibleInterval> for FeasibleIntersection {
    fn from(iv: FeasibleInterval) -> Self {
        Self {
            windows: vec![(iv.t_lo, iv.t_hi)],
            allowed: iv.allowed,
        }
    }
}

/// The set of feasible intersections, sorted by decreasing degree of
/// freedom.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IntersectionSet {
    intersections: Vec<FeasibleIntersection>,
}

impl IntersectionSet {
    /// Generates feasible intersections from the per-mode noise tables.
    ///
    /// The exact product over modes is exponential
    /// (`O((|L|·|B∪I|)^(M+1)`), so a beam search is used: per-mode
    /// interval sets are intersected mode by mode, keeping the
    /// `beam` highest-degree-of-freedom partial intersections — the
    /// degree-of-freedom pruning of Section VI.
    ///
    /// # Errors
    ///
    /// Returns [`WaveMinError::NoFeasibleInterval`] when there is no mode,
    /// any mode has no feasible interval at all or every intersection is
    /// infeasible.
    pub fn generate(
        config: &WaveMinConfig,
        tables: &[NoiseTable],
        beam: usize,
    ) -> Result<Self, WaveMinError> {
        let kappa = config.skew_bound;
        let options = tables
            .iter()
            .flat_map(|t| &t.sinks)
            .map(|s| s.options.len())
            .max()
            .unwrap_or(0);
        // Per-mode interval sets stay uncapped here: the degree-of-
        // freedom cap would happily drop the only intervals that are
        // jointly feasible across modes; the beam does the pruning
        // instead. A mode is swept only while the earlier ones still
        // intersect.
        let modes = tables
            .iter()
            .map(|table| IntervalSet::generate(table, kappa, None).into_intervals());
        let intersections = intersect_modes(modes, options, beam);
        if intersections.is_empty() {
            return Err(WaveMinError::NoFeasibleInterval);
        }
        Ok(Self { intersections })
    }

    /// The intersections, best degree of freedom first.
    #[must_use]
    pub fn intersections(&self) -> &[FeasibleIntersection] {
        &self.intersections
    }

    /// The intersections by value, best degree of freedom first.
    #[must_use]
    pub fn into_intersections(self) -> Vec<FeasibleIntersection> {
        self.intersections
    }

    /// Number of feasible intersections kept.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intersections.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intersections.is_empty()
    }
}

/// The pair-and-beam step of [`IntersectionSet::generate`] over per-mode
/// interval lists; `options` bounds every option index.
///
/// Mode 0 keeps all of its intervals. Each later mode pairs every partial
/// intersection with every interval, orders the jointly feasible pairs by
/// (degree of freedom, pair index) descending — pair index
/// `partial · |mode intervals| + interval` — drops a pair whose allowed
/// sets equal the last kept one's, and keeps the first `beam`. The
/// survivors come back best degree of freedom first (ties reversed); empty
/// when nothing intersects, and later modes are not drawn once the beam
/// is empty.
///
/// Pairs are scored on per-sink option bitmasks (AND + popcount, rejected
/// at the first empty sink) and only the survivors are materialized.
fn intersect_modes<M: AsRef<[FeasibleInterval]>>(
    modes: impl IntoIterator<Item = M>,
    options: usize,
    beam: usize,
) -> Vec<FeasibleIntersection> {
    let mut modes = modes.into_iter();
    let Some(first) = modes.next() else {
        return Vec::new();
    };
    let mut partial = Partials::seed(first.as_ref(), options.div_ceil(64).max(1));
    while !partial.windows.is_empty() {
        let Some(mode) = modes.next() else {
            break;
        };
        partial = partial.extend(mode.as_ref(), beam.max(1));
    }
    let mut intersections = partial.into_intersections();
    intersections.sort_by_key(FeasibleIntersection::degree_of_freedom);
    intersections.reverse();
    intersections
}

/// Partial intersections held as option bitmask rows: `words` u64 per
/// sink, bit `o % 64` of word `o / 64` set when option `o` is allowed in
/// every mode so far.
struct Partials {
    words: usize,
    /// `sinks · words`, the length of one row.
    stride: usize,
    /// Per partial, one `(t_lo, t_hi)` window per mode so far.
    windows: Vec<Vec<(Picoseconds, Picoseconds)>>,
    rows: Vec<u64>,
}

impl Partials {
    /// Every interval of the first mode, as is.
    fn seed(intervals: &[FeasibleInterval], words: usize) -> Self {
        let stride = intervals.first().map_or(0, |iv| iv.allowed.len() * words);
        Self {
            words,
            stride,
            windows: intervals
                .iter()
                .map(|iv| vec![(iv.t_lo, iv.t_hi)])
                .collect(),
            rows: mask_rows(intervals, words, stride),
        }
    }

    fn row(&self, index: usize) -> &[u64] {
        &self.rows[index * self.stride..(index + 1) * self.stride]
    }

    /// The `beam` best distinct pairs of these partials with one more
    /// mode's intervals (see [`intersect_modes`] for the order).
    fn extend(&self, intervals: &[FeasibleInterval], beam: usize) -> Self {
        let stride = self.stride;
        let masks = mask_rows(intervals, self.words, stride);
        let n = intervals.len();
        let mut scored: Vec<(usize, usize)> = Vec::new();
        for p in 0..self.windows.len() {
            let row = self.row(p);
            for i in 0..n {
                if let Some(dof) = joint_dof(row, &masks[i * stride..(i + 1) * stride], self.words)
                {
                    scored.push((dof, p * n + i));
                }
            }
        }
        scored.sort_unstable_by(|a, b| b.cmp(a));

        let mut next = Self {
            words: self.words,
            stride,
            windows: Vec::new(),
            rows: Vec::new(),
        };
        let mut row = vec![0u64; stride];
        for &(_, pair) in &scored {
            let (p, i) = (pair / n, pair % n);
            let interval = &masks[i * stride..(i + 1) * stride];
            for ((w, a), b) in row.iter_mut().zip(self.row(p)).zip(interval) {
                *w = a & b;
            }
            if !next.windows.is_empty() && next.row(next.windows.len() - 1) == row {
                continue;
            }
            let mut windows = self.windows[p].clone();
            windows.push((intervals[i].t_lo, intervals[i].t_hi));
            next.windows.push(windows);
            next.rows.extend_from_slice(&row);
            if next.windows.len() == beam {
                break;
            }
        }
        next
    }

    /// The partials with ascending allowed-option lists.
    fn into_intersections(self) -> Vec<FeasibleIntersection> {
        let (words, stride) = (self.words, self.stride);
        self.windows
            .into_iter()
            .enumerate()
            .map(|(p, windows)| {
                let allowed = self.rows[p * stride..(p + 1) * stride]
                    .chunks_exact(words)
                    .map(|sink| {
                        (0..words * 64)
                            .filter(|&o| sink[o / 64] >> (o % 64) & 1 == 1)
                            .collect()
                    })
                    .collect();
                FeasibleIntersection { windows, allowed }
            })
            .collect()
    }
}

/// The intervals' allowed sets as bitmask rows of `stride` words.
fn mask_rows(intervals: &[FeasibleInterval], words: usize, stride: usize) -> Vec<u64> {
    let mut rows = vec![0u64; intervals.len() * stride];
    for (row, iv) in rows.chunks_exact_mut(stride.max(1)).zip(intervals) {
        debug_assert_eq!(iv.allowed.len() * words, stride);
        for (sink, opts) in row.chunks_exact_mut(words).zip(&iv.allowed) {
            for &o in opts {
                sink[o / 64] |= 1 << (o % 64);
            }
        }
    }
    rows
}

/// The degree of freedom of two rows' intersection, or `None` when some
/// sink has no option left. Feasibility is checked first, without a
/// popcount, so a rejected pair costs no popcount at all; a fused
/// per-sink fold measured slower on Table VII (≈1.45 s vs ≈1.05 s of
/// `generate` in `table7_multimode`).
fn joint_dof(a: &[u64], b: &[u64], words: usize) -> Option<usize> {
    let feasible = a
        .chunks_exact(words)
        .zip(b.chunks_exact(words))
        .all(|(sa, sb)| sa.iter().zip(sb).any(|(x, y)| x & y != 0));
    feasible.then(|| {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multimode::adb::insert_adbs;
    use crate::prelude::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn tables(design: &Design, cfg: &WaveMinConfig) -> Vec<NoiseTable> {
        (0..design.mode_count())
            .map(|m| NoiseTable::build(design, cfg, m).unwrap())
            .collect()
    }

    /// The pair-and-beam step as first written, kept as the oracle: every
    /// (partial × interval) pair is materialized with its allowed lists,
    /// then the whole list is sorted, deduplicated against its neighbour
    /// and truncated to the beam.
    fn oracle<M: AsRef<[FeasibleInterval]>>(
        modes: impl IntoIterator<Item = M>,
        beam: usize,
    ) -> Vec<FeasibleIntersection> {
        let beam = beam.max(1);
        let mut partial: Vec<FeasibleIntersection> = Vec::new();
        for (mode, set) in modes.into_iter().enumerate() {
            let set = set.as_ref();
            if mode == 0 {
                partial = set
                    .iter()
                    .map(|iv| FeasibleIntersection {
                        windows: vec![(iv.t_lo, iv.t_hi)],
                        allowed: iv.allowed.clone(),
                    })
                    .collect();
            } else {
                let mut next = Vec::new();
                for p in &partial {
                    for iv in set {
                        let mut allowed = Vec::with_capacity(p.allowed.len());
                        let mut feasible = true;
                        for (sa, sb) in p.allowed.iter().zip(&iv.allowed) {
                            let inter: Vec<usize> =
                                sa.iter().copied().filter(|o| sb.contains(o)).collect();
                            if inter.is_empty() {
                                feasible = false;
                                break;
                            }
                            allowed.push(inter);
                        }
                        if feasible {
                            let mut windows = p.windows.clone();
                            windows.push((iv.t_lo, iv.t_hi));
                            next.push(FeasibleIntersection { windows, allowed });
                        }
                    }
                }
                next.sort_by_key(FeasibleIntersection::degree_of_freedom);
                next.reverse();
                next.dedup_by(|a, b| a.allowed == b.allowed);
                next.truncate(beam);
                partial = next;
            }
            if partial.is_empty() {
                return Vec::new();
            }
        }
        partial.sort_by_key(FeasibleIntersection::degree_of_freedom);
        partial.reverse();
        partial
    }

    /// [`IntersectionSet::generate`] with the oracle in place of
    /// [`intersect_modes`].
    fn oracle_generate(
        cfg: &WaveMinConfig,
        tables: &[NoiseTable],
        beam: usize,
    ) -> Result<Vec<FeasibleIntersection>, WaveMinError> {
        let modes = tables
            .iter()
            .map(|t| IntervalSet::generate(t, cfg.skew_bound, None).into_intervals());
        let out = oracle(modes, beam);
        if out.is_empty() {
            Err(WaveMinError::NoFeasibleInterval)
        } else {
            Ok(out)
        }
    }

    /// Synthetic per-mode interval lists built to stress the order and
    /// dedup contract: every sink draws its allowed sets from four fixed
    /// options, so degree-of-freedom ties and repeated rows are common,
    /// and `options` (up to 200) spreads those options over up to four
    /// mask words. Returns the lists and the option count.
    fn synthetic_modes(seed: u64, modes: usize) -> (Vec<Vec<FeasibleInterval>>, usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let options = [6, 64, 65, 130, 200][rng.gen_range(0..5usize)];
        let sinks = rng.gen_range(1..=5);
        let pools: Vec<Vec<usize>> = (0..sinks)
            .map(|_| {
                let mut pool: Vec<usize> = Vec::new();
                while pool.len() < 4.min(options) {
                    let o = rng.gen_range(0..options);
                    if !pool.contains(&o) {
                        pool.push(o);
                    }
                }
                pool.sort_unstable();
                pool
            })
            .collect();
        let sets = (0..modes)
            .map(|mode| {
                (0..rng.gen_range(1..=9))
                    .map(|i| {
                        let t_hi = Picoseconds::new((100 * mode + i) as f64);
                        let allowed = pools
                            .iter()
                            .map(|pool| {
                                let pick: u32 = rng.gen_range(1..16);
                                (0..pool.len())
                                    .filter(|b| pick & (1 << b) != 0)
                                    .map(|b| pool[b])
                                    .collect()
                            })
                            .collect();
                        FeasibleInterval {
                            t_hi,
                            t_lo: t_hi - Picoseconds::new(10.0),
                            allowed,
                        }
                    })
                    .collect()
            })
            .collect();
        (sets, options)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn mask_beam_matches_the_oracle(
            seed in 0u64..u64::MAX,
            modes in 1usize..=4,
            beam in 1usize..=32,
        ) {
            let (sets, options) = synthetic_modes(seed, modes);
            prop_assert_eq!(intersect_modes(&sets, options, beam), oracle(&sets, beam));
        }
    }

    #[test]
    fn synthetic_modes_exercise_ties_duplicates_and_wide_masks() {
        let (mut ties, mut duplicates, mut wide) = (0, 0, 0);
        for seed in 0..256 {
            let (sets, _) = synthetic_modes(seed, 3);
            let out = oracle(&sets, 32);
            ties += out
                .windows(2)
                .filter(|w| w[0].degree_of_freedom() == w[1].degree_of_freedom())
                .count();
            // Rows the dedup keeps twice were not neighbours in its order.
            duplicates += out
                .iter()
                .enumerate()
                .filter(|(i, x)| out[..*i].iter().any(|y| y.allowed == x.allowed))
                .count();
            wide += usize::from(
                out.iter()
                    .flat_map(|x| x.allowed.iter().flatten())
                    .any(|&o| o >= 128),
            );
        }
        assert!(
            ties > 0 && duplicates > 0 && wide > 0,
            "{ties} {duplicates} {wide}"
        );
    }

    #[test]
    fn order_and_dedup_contract_on_a_hand_built_case() {
        let iv = |t: f64, allowed: Vec<Vec<usize>>| FeasibleInterval {
            t_hi: Picoseconds::new(t),
            t_lo: Picoseconds::new(t - 1.0),
            allowed,
        };
        // Mode 0: partials A = {0,1}, B = {1,70}; mode 1: intervals
        // X = {1,70}, Y = {0,1,70}. Pairs in index order: AX {1}, AY
        // {0,1}, BX {1,70}, BY {1,70}.
        let modes = vec![
            vec![iv(1.0, vec![vec![0, 1]]), iv(2.0, vec![vec![1, 70]])],
            vec![iv(3.0, vec![vec![1, 70]]), iv(4.0, vec![vec![0, 1, 70]])],
        ];
        let got = intersect_modes(&modes, 71, 8);
        assert_eq!(got, oracle(&modes, 8));
        // (dof, pair) descending: BY, BX (dropped: same row as BY), AY,
        // AX; the final stable sort + reverse flips the dof-2 tie.
        let windows: Vec<f64> = got.iter().map(|x| x.windows[1].1.value()).collect();
        assert_eq!(windows, vec![4.0, 4.0, 3.0]);
        assert_eq!(got[0].allowed, vec![vec![0, 1]]);
        assert_eq!(got[1].allowed, vec![vec![1, 70]]);
        assert_eq!(got[2].allowed, vec![vec![1]]);
    }

    #[test]
    fn zero_modes_have_no_feasible_intersection() {
        let cfg = WaveMinConfig::default();
        assert_eq!(
            IntersectionSet::generate(&cfg, &[], 16).unwrap_err(),
            WaveMinError::NoFeasibleInterval
        );
    }

    /// The mask scorer against the oracle on Table VII designs: the plain
    /// design and each margin's ADB embedding, at every ClkWaveMin-M
    /// margin. At κ = 20 ps only the embeddings intersect; at 28 ps the
    /// plain designs do too.
    #[test]
    fn generate_matches_the_oracle_on_real_designs() {
        let mut feasible = 0;
        for bench in [Benchmark::s15850(), Benchmark::s13207()] {
            let domains = (4 + bench.leaf_count / 60).min(10);
            let plain = Design::from_benchmark_multimode(&bench, 42, domains, 4);
            for kappa in [20.0, 28.0] {
                let cfg = WaveMinConfig::default().with_skew_bound(Picoseconds::new(kappa));
                let plain_tables = tables(&plain, &cfg);
                let wm = cfg.window_margin;
                for margin in [wm, (wm - 0.15).max(0.3), (wm - 0.3).max(0.25)] {
                    let mut tight = cfg.clone();
                    tight.skew_bound = cfg.skew_bound * margin;
                    let mut embedded = plain.clone();
                    insert_adbs(&mut embedded, tight.skew_bound).unwrap();
                    for t in [plain_tables.clone(), tables(&embedded, &cfg)] {
                        for beam in [1, 8, 24] {
                            let got = IntersectionSet::generate(&tight, &t, beam)
                                .map(IntersectionSet::into_intersections);
                            assert_eq!(
                                got,
                                oracle_generate(&tight, &t, beam),
                                "{} κ {kappa} margin {margin} beam {beam}",
                                bench.name
                            );
                            feasible += usize::from(got.is_ok());
                        }
                    }
                }
            }
        }
        assert!(feasible > 36, "only {feasible} feasible generate calls");
    }

    #[test]
    fn single_mode_intersections_match_intervals() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let cfg = WaveMinConfig::default();
        let t = tables(&d, &cfg);
        let set = IntersectionSet::generate(&cfg, &t, 16).unwrap();
        assert!(!set.is_empty());
        for x in set.intersections() {
            assert_eq!(x.windows.len(), 1);
            assert!(x.allowed.iter().all(|a| !a.is_empty()));
        }
    }

    #[test]
    fn mild_multimode_still_feasible() {
        // With the generous 110 ps bound used by Table VII-style runs,
        // sizing alone can absorb 0.9/1.1 V arrival differences.
        let d = Design::from_benchmark_multimode(&Benchmark::s15850(), 3, 4, 2);
        let cfg = WaveMinConfig::default().with_skew_bound(Picoseconds::new(110.0));
        let t = tables(&d, &cfg);
        let set = IntersectionSet::generate(&cfg, &t, 16).unwrap();
        assert!(!set.is_empty());
        for x in set.intersections() {
            assert_eq!(x.windows.len(), 2);
        }
    }

    #[test]
    fn harsh_multimode_is_infeasible() {
        // A 0.7 V island slows its sinks far beyond a 5 ps bound.
        let d = Design::from_benchmark_multimode_levels(
            &Benchmark::s15850(),
            3,
            4,
            3,
            wavemin_cells::units::Volts::new(0.7),
            wavemin_cells::units::Volts::new(1.1),
        );
        let cfg = WaveMinConfig::default().with_skew_bound(Picoseconds::new(5.0));
        let t = tables(&d, &cfg);
        assert_eq!(
            IntersectionSet::generate(&cfg, &t, 16).unwrap_err(),
            WaveMinError::NoFeasibleInterval
        );
    }

    #[test]
    fn dof_ordering_and_beam() {
        let d = Design::from_benchmark_multimode(&Benchmark::s15850(), 3, 4, 2);
        let cfg = WaveMinConfig::default().with_skew_bound(Picoseconds::new(110.0));
        let t = tables(&d, &cfg);
        let set = IntersectionSet::generate(&cfg, &t, 4).unwrap();
        assert!(set.len() <= 4);
        let dofs: Vec<usize> = set
            .intersections()
            .iter()
            .map(FeasibleIntersection::degree_of_freedom)
            .collect();
        assert!(dofs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn intersection_allowed_is_subset_of_each_mode() {
        let d = Design::from_benchmark_multimode(&Benchmark::s15850(), 3, 4, 2);
        let cfg = WaveMinConfig::default().with_skew_bound(Picoseconds::new(110.0));
        let t = tables(&d, &cfg);
        let set = IntersectionSet::generate(&cfg, &t, 8).unwrap();
        for x in set.intersections() {
            for (mode, &(lo, hi)) in x.windows.iter().enumerate() {
                for (si, opts) in x.allowed.iter().enumerate() {
                    for &o in opts {
                        let opt = &t[mode].sinks[si].options[o];
                        assert!(
                            opt.delay_code_for(lo, hi).is_some(),
                            "option {o} of sink {si} infeasible in mode {mode}"
                        );
                    }
                }
            }
        }
    }
}
