//! Time sampling point selection.
//!
//! The objective (1) is evaluated at a finite set `S` of sampling points:
//! pairs of (rail, source event, time). Times are spread over the *hot
//! window* — the union support of the candidate waveforms under
//! consideration — because outside it every current is zero (Fig. 7: only
//! the hot spots near the clock edges are sampled).

use crate::noise_table::{EventWaveforms, NoiseTable, SinkEntry};
use serde::{Deserialize, Serialize};
use wavemin_cells::units::Picoseconds;

/// A concrete sampling plan: `k` shared times applied to each of the four
/// (rail, event) slots, giving `|S| = 4k` dimensions in canonical slot
/// order (VDD-rise, GND-rise, VDD-fall, GND-fall).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplePlan {
    times: Vec<Picoseconds>,
    /// `true` when the hot window was degenerate (empty or inverted) and
    /// the plan fell back to a single dummy time at t = 0. Every sampled
    /// objective is then identically zero — "optimal" for the wrong
    /// reason — so the pipeline surfaces this through
    /// [`crate::algo::Outcome::degenerate_zones`].
    degenerate: bool,
}

impl SamplePlan {
    /// Builds a plan with `k` uniform times over the hot window of the
    /// given sinks' candidate waveforms.
    ///
    /// Falls back to a single dummy time when the sinks have no support
    /// (all-zero waveforms).
    #[must_use]
    pub fn for_sinks(table: &NoiseTable, sink_indices: &[usize], k: usize) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &si in sink_indices {
            let entry: &SinkEntry = &table.sinks[si];
            for opt in &entry.options {
                if let Some((a, b)) = opt.waves.support() {
                    lo = lo.min(a.value());
                    hi = hi.max(b.value());
                }
            }
        }
        // Adjustable candidates can shift right by their full range.
        let slack: f64 = sink_indices
            .iter()
            .flat_map(|&si| table.sinks[si].options.iter())
            .map(|o| o.adjust_range.value())
            .fold(0.0, f64::max);
        Self::over_window(lo, hi + slack, k)
    }

    /// Builds a plan with `k` uniform times over an explicit window. A
    /// degenerate window (non-finite bounds or `hi <= lo`) falls back to a
    /// single dummy time and marks the plan [`Self::is_degenerate`].
    #[must_use]
    pub fn over_window(lo: f64, hi: f64, k: usize) -> Self {
        let k = k.max(1);
        if !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return Self {
                times: vec![Picoseconds::ZERO],
                degenerate: true,
            };
        }
        let times = (0..k)
            .map(|i| {
                // Midpoint sampling avoids the always-zero window edges.
                let frac = (i as f64 + 0.5) / k as f64;
                Picoseconds::new(lo + frac * (hi - lo))
            })
            .collect();
        Self {
            times,
            degenerate: false,
        }
    }

    /// The shared sample times.
    #[must_use]
    pub fn times(&self) -> &[Picoseconds] {
        &self.times
    }

    /// `true` when the plan is the single-dummy-time fallback for a
    /// degenerate hot window: its sampled objectives are all-zero and say
    /// nothing about the real noise.
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.degenerate
    }

    /// Total dimension `|S| = 4k`.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.times.len() * 4
    }

    /// Samples all four slots of `waves` into one `|S|`-vector (canonical
    /// slot order).
    #[must_use]
    pub fn vector_of(&self, waves: &EventWaveforms) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.dims());
        self.sample_into(waves, &mut v);
        v
    }

    /// Appends [`Self::vector_of`]`(waves)` to `out`.
    pub(crate) fn sample_into(&self, waves: &EventWaveforms, out: &mut Vec<f64>) {
        for (rail, event) in EventWaveforms::SLOTS {
            let w = waves.get(rail, event);
            out.extend(self.times.iter().map(|&t| w.sample(t).value()));
        }
    }

    /// Adds an interval's accumulated background (every resident merge
    /// level, smallest first) into an existing `|S|`-vector.
    ///
    /// # Panics
    ///
    /// Panics if `acc` length differs from [`Self::dims`].
    pub fn accumulate_background_into(
        &self,
        acc: &mut [f64],
        background: &crate::noise_table::BackgroundAccumulator,
    ) {
        for level in background.levels() {
            self.accumulate_into(acc, level);
        }
    }

    /// Adds `waves` (sampled) into an existing `|S|`-vector.
    ///
    /// # Panics
    ///
    /// Panics if `acc` length differs from [`Self::dims`].
    pub fn accumulate_into(&self, acc: &mut [f64], waves: &EventWaveforms) {
        assert_eq!(acc.len(), self.dims(), "accumulator dimension mismatch");
        // Sample each slot into a contiguous scratch row, then add it with
        // the vectorizable kernel — waveform interpolation is branchy and
        // defeats autovectorization, but the accumulate itself need not.
        let k = self.times.len();
        let mut row = vec![0.0; k];
        for (slot, (rail, event)) in EventWaveforms::SLOTS.iter().enumerate() {
            let w = waves.get(*rail, *event);
            for (r, &t) in row.iter_mut().zip(&self.times) {
                *r = w.sample(t).value();
            }
            wavemin_mosp::kernels::add_assign(&mut acc[slot * k..(slot + 1) * k], &row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WaveMinConfig;
    use crate::design::Design;
    use wavemin_cells::units::MicroAmps;
    use wavemin_cells::Waveform;
    use wavemin_clocktree::Benchmark;

    #[test]
    fn uniform_times_cover_window() {
        let plan = SamplePlan::over_window(10.0, 50.0, 4);
        let t: Vec<f64> = plan.times().iter().map(|t| t.value()).collect();
        assert_eq!(t.len(), 4);
        assert!(t[0] > 10.0 && t[3] < 50.0);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(plan.dims(), 16);
    }

    #[test]
    fn degenerate_window_fallback() {
        let plan = SamplePlan::over_window(f64::INFINITY, f64::NEG_INFINITY, 8);
        assert_eq!(plan.times().len(), 1);
        assert!(plan.is_degenerate(), "fallback must be diagnosable");
        assert!(!SamplePlan::over_window(0.0, 10.0, 8).is_degenerate());
        assert!(SamplePlan::over_window(5.0, 5.0, 2).is_degenerate());
        assert!(SamplePlan::over_window(f64::NAN, 1.0, 2).is_degenerate());
    }

    #[test]
    fn vector_matches_manual_sampling() {
        let tri = Waveform::triangle(
            Picoseconds::new(0.0),
            Picoseconds::new(10.0),
            Picoseconds::new(20.0),
            MicroAmps::new(100.0),
        );
        let waves = EventWaveforms {
            vdd_rise: tri.clone(),
            ..EventWaveforms::zero()
        };
        let plan = SamplePlan::over_window(0.0, 20.0, 2);
        let v = plan.vector_of(&waves);
        assert_eq!(v.len(), 8);
        // First two entries are the VDD-rise samples; the rest are zero.
        assert!(v[0] > 0.0 && v[1] > 0.0);
        assert!(v[2..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn accumulate_matches_vector() {
        let tri = Waveform::triangle(
            Picoseconds::new(0.0),
            Picoseconds::new(5.0),
            Picoseconds::new(20.0),
            MicroAmps::new(50.0),
        );
        let waves = EventWaveforms {
            gnd_fall: tri,
            ..EventWaveforms::zero()
        };
        let plan = SamplePlan::over_window(0.0, 20.0, 3);
        let mut acc = vec![1.0; plan.dims()];
        plan.accumulate_into(&mut acc, &waves);
        let v = plan.vector_of(&waves);
        for i in 0..plan.dims() {
            assert!((acc[i] - (1.0 + v[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn plan_for_sinks_covers_candidate_pulses() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let table =
            crate::noise_table::NoiseTable::build(&d, &WaveMinConfig::default(), 0).unwrap();
        let all: Vec<usize> = (0..table.sinks.len()).collect();
        let plan = SamplePlan::for_sinks(&table, &all, 10);
        // At least one candidate waveform must be nonzero at some sample.
        let any_nonzero = table.sinks.iter().any(|s| {
            s.options
                .iter()
                .any(|o| plan.vector_of(&o.waves).iter().any(|&x| x > 0.0))
        });
        assert!(any_nonzero);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn accumulate_rejects_wrong_length() {
        let plan = SamplePlan::over_window(0.0, 10.0, 2);
        let mut acc = vec![0.0; 3];
        plan.accumulate_into(&mut acc, &EventWaveforms::zero());
    }
}
