//! Feasible interval intersections across power modes (Fig. 11,
//! Table IV).

use crate::config::WaveMinConfig;
use crate::error::WaveMinError;
use crate::intervals::{FeasibleInterval, IntervalSet};
use crate::noise_table::NoiseTable;
use serde::{Deserialize, Serialize};
use wavemin_cells::units::Picoseconds;

/// One feasible intersection: a per-mode window plus, per sink, the
/// options allowed in **all** modes simultaneously.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Returns [`WaveMinError::NoFeasibleInterval`] when any mode has no
    /// feasible interval at all or every intersection is infeasible.
    pub fn generate(
        config: &WaveMinConfig,
        tables: &[NoiseTable],
        beam: usize,
    ) -> Result<Self, WaveMinError> {
        let kappa = config.skew_bound;
        let beam = beam.max(1);
        let mut partial: Vec<FeasibleIntersection> = Vec::new();

        for (mode, table) in tables.iter().enumerate() {
            // Per-mode interval sets stay uncapped here: the degree-of-
            // freedom cap would happily drop the only intervals that are
            // jointly feasible across modes; the beam below does the
            // pruning instead.
            let set = IntervalSet::generate(table, kappa, None);
            if set.is_empty() {
                return Err(WaveMinError::NoFeasibleInterval);
            }
            if mode == 0 {
                partial = set
                    .intervals()
                    .iter()
                    .map(|iv| FeasibleIntersection {
                        windows: vec![(iv.t_lo, iv.t_hi)],
                        allowed: iv.allowed.clone(),
                    })
                    .collect();
            } else {
                let mut next = Vec::new();
                for p in &partial {
                    for iv in set.intervals() {
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
                return Err(WaveMinError::NoFeasibleInterval);
            }
        }

        partial.sort_by_key(FeasibleIntersection::degree_of_freedom);
        partial.reverse();
        Ok(Self {
            intersections: partial,
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn tables(design: &Design, cfg: &WaveMinConfig) -> Vec<NoiseTable> {
        (0..design.mode_count())
            .map(|m| NoiseTable::build(design, cfg, m).unwrap())
            .collect()
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
