//! Feasible time intervals (Step 1–2 of the PeakMin framework, Fig. 6).
//!
//! Every candidate (sink, cell) pair produces an arrival time; each arrival
//! time `t` defines the interval `[t − κ, t]`. An interval is *feasible*
//! when every sink has at least one candidate whose (possibly
//! delay-adjusted) arrival falls inside it — assigning only such candidates
//! bounds the clock skew by κ. The optimizer then solves one subproblem per
//! feasible interval and keeps the best.

use crate::noise_table::NoiseTable;
use serde::Serialize;
use wavemin_cells::units::Picoseconds;

/// One feasible interval `[t_hi − κ, t_hi]` plus, per sink, the candidate
/// options allowed inside it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FeasibleInterval {
    /// Upper end of the interval.
    pub t_hi: Picoseconds,
    /// Lower end (`t_hi − κ`).
    pub t_lo: Picoseconds,
    /// `allowed[sink][..]` — indices into that sink's option list.
    pub allowed: Vec<Vec<usize>>,
}

impl FeasibleInterval {
    /// The degree of freedom: total allowed candidates over all sinks
    /// (Section VI uses this to prune weak interval intersections).
    #[must_use]
    pub fn degree_of_freedom(&self) -> usize {
        self.allowed.iter().map(Vec::len).sum()
    }
}

/// All feasible intervals of an instance, sorted by decreasing degree of
/// freedom.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IntervalSet {
    intervals: Vec<FeasibleInterval>,
}

impl IntervalSet {
    /// Generates the feasible intervals of a noise table under skew bound
    /// κ.
    ///
    /// Candidate interval endpoints are all option arrivals (plus, for
    /// adjustable options, the fully-delayed arrival). Intervals whose
    /// allowed sets coincide are deduplicated; the result is sorted by
    /// decreasing degree of freedom and truncated to `max_intervals`.
    #[must_use]
    pub fn generate(table: &NoiseTable, kappa: Picoseconds, max_intervals: Option<usize>) -> Self {
        let mut endpoints: Vec<f64> = Vec::new();
        for sink in &table.sinks {
            for opt in &sink.options {
                endpoints.push(opt.arrival.value());
                if opt.is_adjustable() {
                    endpoints.push(opt.arrival.value() + opt.adjust_range.value());
                }
            }
        }
        endpoints.sort_by(f64::total_cmp);
        endpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        // The sweep below is O(endpoints × Σ options). At million-sink
        // scale that product explodes while the endpoints themselves
        // cluster densely (equalized trees put most arrivals within a
        // few ps), so past a fixed work budget the endpoint list is
        // thinned to an even subsample. Instances below the budget —
        // every conventional benchmark — see the exact legacy sweep.
        let per_endpoint: usize = table.sinks.iter().map(|s| s.options.len()).sum();
        if endpoints.len().saturating_mul(per_endpoint) > SWEEP_WORK_BUDGET {
            let keep = (SWEEP_WORK_BUDGET / per_endpoint.max(1)).max(MIN_SWEPT_ENDPOINTS);
            endpoints = subsample_even(endpoints, keep);
        }

        let mut intervals: Vec<FeasibleInterval> = Vec::new();
        'ep: for &t in &endpoints {
            let t_hi = Picoseconds::new(t);
            let t_lo = Picoseconds::new(t - kappa.value());
            let mut allowed = Vec::with_capacity(table.sinks.len());
            for sink in &table.sinks {
                let opts: Vec<usize> = sink
                    .options
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.delay_code_for(t_lo, t_hi).is_some())
                    .map(|(i, _)| i)
                    .collect();
                if opts.is_empty() {
                    continue 'ep;
                }
                allowed.push(opts);
            }
            if intervals.iter().any(|iv| iv.allowed == allowed) {
                continue;
            }
            intervals.push(FeasibleInterval {
                t_hi,
                t_lo,
                allowed,
            });
        }

        intervals.sort_by_key(|iv| std::cmp::Reverse(iv.degree_of_freedom()));
        if let Some(cap) = max_intervals {
            intervals.truncate(cap);
        }
        Self { intervals }
    }

    /// The feasible intervals (highest degree of freedom first).
    #[must_use]
    pub fn intervals(&self) -> &[FeasibleInterval] {
        &self.intervals
    }

    /// The feasible intervals by value (highest degree of freedom first).
    #[must_use]
    pub fn into_intervals(self) -> Vec<FeasibleInterval> {
        self.intervals
    }

    /// Number of feasible intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// `true` when no interval satisfies the skew bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

/// Cap on `endpoints × Σ options` feasibility probes one generate call
/// may spend (~a second of sweep on one core).
const SWEEP_WORK_BUDGET: usize = 50_000_000;

/// Never thin the candidate endpoints below this many.
const MIN_SWEPT_ENDPOINTS: usize = 16;

/// Keeps `keep` elements of `v` at an even stride, always including the
/// first and last (deterministic; order preserved).
fn subsample_even(v: Vec<f64>, keep: usize) -> Vec<f64> {
    if v.len() <= keep || keep < 2 {
        return v;
    }
    let last = v.len() - 1;
    (0..keep).map(|i| v[i * last / (keep - 1)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WaveMinConfig;
    use crate::design::Design;
    use wavemin_clocktree::Benchmark;

    fn table() -> NoiseTable {
        let d = Design::from_benchmark(&Benchmark::s15850(), 1);
        NoiseTable::build(&d, &WaveMinConfig::default(), 0).unwrap()
    }

    #[test]
    fn balanced_tree_has_feasible_intervals() {
        let t = table();
        let set = IntervalSet::generate(&t, Picoseconds::new(20.0), None);
        assert!(!set.is_empty());
        for iv in set.intervals() {
            assert_eq!(iv.allowed.len(), t.sinks.len());
            assert!((iv.t_hi - iv.t_lo).value() - 20.0 < 1e-9);
            assert!(iv.allowed.iter().all(|a| !a.is_empty()));
        }
    }

    #[test]
    fn allowed_options_really_fit_the_window() {
        let t = table();
        let set = IntervalSet::generate(&t, Picoseconds::new(20.0), None);
        for iv in set.intervals() {
            for (si, opts) in iv.allowed.iter().enumerate() {
                for &oi in opts {
                    let o = &t.sinks[si].options[oi];
                    let code = o.delay_code_for(iv.t_lo, iv.t_hi).unwrap();
                    let adj = o.arrival + code;
                    assert!(adj.value() >= iv.t_lo.value() - 1e-6);
                    assert!(adj.value() <= iv.t_hi.value() + 1e-6);
                }
            }
        }
    }

    #[test]
    fn tight_bound_reduces_freedom() {
        let t = table();
        let wide = IntervalSet::generate(&t, Picoseconds::new(50.0), None);
        let tight = IntervalSet::generate(&t, Picoseconds::new(8.0), None);
        let dof_wide = wide
            .intervals()
            .first()
            .map_or(0, FeasibleInterval::degree_of_freedom);
        let dof_tight = tight
            .intervals()
            .first()
            .map_or(0, FeasibleInterval::degree_of_freedom);
        assert!(dof_wide >= dof_tight);
    }

    #[test]
    fn tiny_bound_leaves_no_freedom() {
        // The synthesized tree is equalized exactly, so even a 0.01 ps
        // bound admits the identity-like assignment — but nothing more.
        let t = table();
        let set = IntervalSet::generate(&t, Picoseconds::new(0.01), None);
        let wide = IntervalSet::generate(&t, Picoseconds::new(20.0), None);
        let tight_dof = set
            .intervals()
            .iter()
            .map(FeasibleInterval::degree_of_freedom)
            .max()
            .unwrap_or(0);
        let wide_dof = wide
            .intervals()
            .iter()
            .map(FeasibleInterval::degree_of_freedom)
            .max()
            .unwrap_or(0);
        assert!(tight_dof < wide_dof, "tight {tight_dof} vs wide {wide_dof}");
    }

    #[test]
    fn disturbed_tree_with_tiny_bound_is_infeasible() {
        // Push one sink 50 ps late: no 0.5 ps window covers every sink.
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let victim = d.leaves()[0];
        d.tree.node_mut(victim).delay_trim += Picoseconds::new(50.0);
        let t = NoiseTable::build(&d, &WaveMinConfig::default(), 0).unwrap();
        let set = IntervalSet::generate(&t, Picoseconds::new(0.5), None);
        assert!(set.is_empty());
    }

    #[test]
    fn intervals_sorted_by_dof_and_capped() {
        let t = table();
        let set = IntervalSet::generate(&t, Picoseconds::new(20.0), None);
        let dofs: Vec<usize> = set
            .intervals()
            .iter()
            .map(FeasibleInterval::degree_of_freedom)
            .collect();
        assert!(dofs.windows(2).all(|w| w[0] >= w[1]));
        let capped = IntervalSet::generate(&t, Picoseconds::new(20.0), Some(2));
        assert!(capped.len() <= 2);
        if !dofs.is_empty() {
            assert_eq!(
                capped.intervals()[0].degree_of_freedom(),
                dofs[0],
                "cap keeps the best intervals"
            );
        }
    }

    #[test]
    fn endpoint_subsampling_is_even_and_keeps_extremes() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = subsample_even(v.clone(), 16);
        assert_eq!(s.len(), 16);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[15], 999.0);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "order preserved");
        // Below the target the list passes through untouched.
        assert_eq!(subsample_even(v.clone(), 1000), v);
        assert_eq!(subsample_even(vec![1.0, 2.0], 1), vec![1.0, 2.0]);
    }

    #[test]
    fn duplicate_allowed_sets_are_merged() {
        let t = table();
        let set = IntervalSet::generate(&t, Picoseconds::new(20.0), None);
        for (i, a) in set.intervals().iter().enumerate() {
            for b in &set.intervals()[i + 1..] {
                assert_ne!(a.allowed, b.allowed);
            }
        }
    }
}
