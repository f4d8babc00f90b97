//! Piecewise-linear current waveforms.
//!
//! All current signatures produced by the characterizer — and all
//! accumulated tree-level waveforms built on top of them — are represented
//! as piecewise-linear functions of time: a sorted list of `(t, i)`
//! breakpoints with linear interpolation in between and zero outside the
//! support. Because the function is piecewise linear, its maximum over any
//! window is attained at a breakpoint or window edge, which makes exact peak
//! extraction cheap.

use crate::units::{MicroAmps, Picoseconds};
use serde::Serialize;

/// A piecewise-linear current waveform (µA over ps).
///
/// # Example
///
/// ```
/// use wavemin_cells::Waveform;
/// use wavemin_cells::units::{MicroAmps, Picoseconds};
///
/// let a = Waveform::triangle(Picoseconds::new(0.0), Picoseconds::new(10.0),
///                            Picoseconds::new(40.0), MicroAmps::new(100.0));
/// let b = a.shifted(Picoseconds::new(5.0));
/// let sum = a.plus(&b);
/// assert!(sum.peak().value() > a.peak().value());
/// assert!(sum.peak().value() <= 200.0);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Serialize)]
pub struct Waveform {
    /// Breakpoints sorted by time; value is zero outside the first/last.
    points: Vec<(f64, f64)>,
}

impl Waveform {
    /// An identically-zero waveform.
    #[must_use]
    pub fn zero() -> Self {
        Self { points: Vec::new() }
    }

    /// Builds a waveform from `(time, current)` breakpoints.
    ///
    /// Points are sorted by time; exact duplicates are merged (keeping the
    /// larger magnitude). Non-finite samples are dropped.
    #[must_use]
    pub fn from_points<I>(points: I) -> Self
    where
        I: IntoIterator<Item = (Picoseconds, MicroAmps)>,
    {
        let mut pts: Vec<(f64, f64)> = points
            .into_iter()
            .map(|(t, i)| (t.value(), i.value()))
            .filter(|(t, i)| t.is_finite() && i.is_finite())
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        pts.dedup_by(|next, prev| {
            if (next.0 - prev.0).abs() < 1e-12 {
                if next.1.abs() > prev.1.abs() {
                    prev.1 = next.1;
                }
                true
            } else {
                false
            }
        });
        Self { points: pts }
    }

    /// An asymmetric triangular pulse: zero at `start`, `peak` at `t_peak`,
    /// zero again at `end`.
    ///
    /// # Panics
    ///
    /// Panics if `start <= t_peak <= end` does not hold.
    #[must_use]
    pub fn triangle(
        start: Picoseconds,
        t_peak: Picoseconds,
        end: Picoseconds,
        peak: MicroAmps,
    ) -> Self {
        assert!(
            start.value() <= t_peak.value() && t_peak.value() <= end.value(),
            "triangle breakpoints must be ordered: {start} <= {t_peak} <= {end}"
        );
        Self::from_points([
            (start, MicroAmps::ZERO),
            (t_peak, peak),
            (end, MicroAmps::ZERO),
        ])
    }

    /// `true` when the waveform has no breakpoints (identically zero).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.points.is_empty() || self.points.iter().all(|&(_, i)| i == 0.0)
    }

    /// The breakpoints of the waveform.
    pub fn breakpoints(&self) -> impl Iterator<Item = (Picoseconds, MicroAmps)> + '_ {
        self.points
            .iter()
            .map(|&(t, i)| (Picoseconds::new(t), MicroAmps::new(i)))
    }

    /// Number of breakpoints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when there are no breakpoints.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The time span `[first, last]` over which the waveform may be nonzero,
    /// or `None` for the zero waveform.
    #[must_use]
    pub fn support(&self) -> Option<(Picoseconds, Picoseconds)> {
        match (self.points.first(), self.points.last()) {
            (Some(&(a, _)), Some(&(b, _))) => Some((Picoseconds::new(a), Picoseconds::new(b))),
            _ => None,
        }
    }

    /// The waveform value at time `t` (linear interpolation, zero outside
    /// the support).
    #[must_use]
    pub fn sample(&self, t: Picoseconds) -> MicroAmps {
        let t = t.value();
        let n = self.points.len();
        if n == 0 {
            return MicroAmps::ZERO;
        }
        if t < self.points[0].0 || t > self.points[n - 1].0 {
            return MicroAmps::ZERO;
        }
        // Binary search for the segment containing t.
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        if idx == 0 {
            return MicroAmps::new(self.points[0].1);
        }
        if idx >= n {
            return MicroAmps::new(self.points[n - 1].1);
        }
        let (t0, i0) = self.points[idx - 1];
        let (t1, i1) = self.points[idx];
        if t1 <= t0 {
            return MicroAmps::new(i0.max(i1));
        }
        let frac = (t - t0) / (t1 - t0);
        MicroAmps::new(i0 + frac * (i1 - i0))
    }

    /// The global maximum of the waveform (zero for the zero waveform).
    #[must_use]
    pub fn peak(&self) -> MicroAmps {
        MicroAmps::new(self.points.iter().map(|&(_, i)| i).fold(0.0_f64, f64::max))
    }

    /// The time at which [`Self::peak`] is attained, or `None` for the zero
    /// waveform.
    #[must_use]
    pub fn peak_time(&self) -> Option<Picoseconds> {
        self.points
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(t, _)| Picoseconds::new(t))
    }

    /// The maximum over the closed window `[from, to]`.
    ///
    /// Since the waveform is piecewise linear the maximum is attained at a
    /// breakpoint inside the window or at a window edge.
    #[must_use]
    pub fn max_in_window(&self, from: Picoseconds, to: Picoseconds) -> MicroAmps {
        if to < from {
            return MicroAmps::ZERO;
        }
        let mut best = self.sample(from).value().max(self.sample(to).value());
        let lo = self.points.partition_point(|&(t, _)| t < from.value());
        let hi = self.points.partition_point(|&(t, _)| t <= to.value());
        for &(_, i) in &self.points[lo..hi] {
            best = best.max(i);
        }
        MicroAmps::new(best)
    }

    /// The waveform shifted later in time by `dt` (negative `dt` shifts
    /// earlier).
    #[must_use]
    pub fn shifted(&self, dt: Picoseconds) -> Self {
        Self {
            points: self
                .points
                .iter()
                .map(|&(t, i)| (t + dt.value(), i))
                .collect(),
        }
    }

    /// The waveform with every value scaled by `k`.
    #[must_use]
    pub fn scaled(&self, k: f64) -> Self {
        Self {
            points: self.points.iter().map(|&(t, i)| (t, i * k)).collect(),
        }
    }

    /// The pointwise sum of two waveforms.
    ///
    /// The result's breakpoints are the union of both inputs' breakpoints,
    /// extended with the entry/exit points of each support so that the sum
    /// remains exact.
    #[must_use]
    pub fn plus(&self, other: &Self) -> Self {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut times: Vec<f64> = self
            .points
            .iter()
            .chain(other.points.iter())
            .map(|&(t, _)| t)
            .collect();
        times.sort_by(f64::total_cmp);
        times.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let points = times
            .into_iter()
            .map(|t| {
                let tt = Picoseconds::new(t);
                (t, (self.sample(tt) + other.sample(tt)).value())
            })
            .collect();
        Self { points }
    }

    /// Sums an iterator of waveforms.
    ///
    /// This pools all breakpoints once instead of folding pairwise, which
    /// keeps accumulation of hundreds of cell pulses `O(total points × log)`.
    #[must_use]
    pub fn sum<'a, I>(waveforms: I) -> Self
    where
        I: IntoIterator<Item = &'a Waveform>,
    {
        let mut events: Vec<SumEvent> = Vec::new();
        for w in waveforms {
            push_sum_events(&mut events, &w.points);
        }
        if events.is_empty() {
            return Self::zero();
        }
        events.sort_by(|a, b| a.t.total_cmp(&b.t));
        Self {
            points: sweep_sum_events(&events),
        }
    }

    /// Samples the waveform at the given times, producing a dense vector.
    #[must_use]
    pub fn resample(&self, times: &[Picoseconds]) -> Vec<MicroAmps> {
        times.iter().map(|&t| self.sample(t)).collect()
    }

    /// Total charge carried by the waveform, in femtocoulombs
    /// (`∫ i dt`, with µA·ps = 10⁻³ fC).
    #[must_use]
    pub fn charge_fc(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| {
                let (t0, i0) = w[0];
                let (t1, i1) = w[1];
                0.5 * (i0 + i1) * (t1 - t0) * 1e-3
            })
            .sum()
    }
}

/// One breakpoint's contribution to a pooled sum: at `t` the summed
/// function's slope changes by `dslope`; `jump_before` is a value
/// discontinuity applied *at* `t` (a component's support starting with a
/// nonzero sample), `jump_after` one applied just past `t` (a support
/// ending with a nonzero sample — the component still counts at `t`
/// itself, matching [`Waveform::sample`]'s closed-support semantics).
struct SumEvent {
    t: f64,
    dslope: f64,
    jump_before: f64,
    jump_after: f64,
}

/// Emits one [`SumEvent`] per breakpoint of a single waveform.
fn push_sum_events(events: &mut Vec<SumEvent>, points: &[(f64, f64)]) {
    let n = points.len();
    let slope = |a: (f64, f64), b: (f64, f64)| -> f64 {
        if b.0 > a.0 {
            (b.1 - a.1) / (b.0 - a.0)
        } else {
            0.0
        }
    };
    for i in 0..n {
        let (t, v) = points[i];
        let s_in = if i > 0 {
            slope(points[i - 1], points[i])
        } else {
            0.0
        };
        let s_out = if i + 1 < n {
            slope(points[i], points[i + 1])
        } else {
            0.0
        };
        events.push(SumEvent {
            t,
            dslope: s_out - s_in,
            jump_before: if i == 0 { v } else { 0.0 },
            jump_after: if i + 1 == n { -v } else { 0.0 },
        });
    }
}

/// Linear sweep over time-sorted events: integrates the running slope
/// between distinct times and emits one pooled breakpoint per group of
/// events closer than the breakpoint-dedup tolerance. `O(events)` after
/// the sort, versus the old re-sample-everyone-at-every-time pooling
/// that was quadratic in the number of overlapping waveforms.
fn sweep_sum_events(events: &[SumEvent]) -> Vec<(f64, f64)> {
    let mut points = Vec::new();
    let mut value = 0.0_f64;
    let mut slope = 0.0_f64;
    let mut prev_t = events[0].t;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].t;
        value += slope * (t - prev_t);
        let mut jump_after = 0.0_f64;
        while i < events.len() && (events[i].t - t).abs() < 1e-12 {
            value += events[i].jump_before;
            jump_after += events[i].jump_after;
            slope += events[i].dslope;
            i += 1;
        }
        points.push((t, value));
        value += jump_after;
        prev_t = t;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: f64) -> Picoseconds {
        Picoseconds::new(v)
    }
    fn ua(v: f64) -> MicroAmps {
        MicroAmps::new(v)
    }

    #[test]
    fn zero_waveform_is_zero_everywhere() {
        let w = Waveform::zero();
        assert!(w.is_zero());
        assert_eq!(w.sample(ps(5.0)), ua(0.0));
        assert_eq!(w.peak(), ua(0.0));
        assert_eq!(w.support(), None);
    }

    #[test]
    fn triangle_interpolates_linearly() {
        let w = Waveform::triangle(ps(0.0), ps(10.0), ps(40.0), ua(100.0));
        assert_eq!(w.sample(ps(-1.0)), ua(0.0));
        assert_eq!(w.sample(ps(0.0)), ua(0.0));
        assert!((w.sample(ps(5.0)).value() - 50.0).abs() < 1e-9);
        assert_eq!(w.sample(ps(10.0)), ua(100.0));
        assert!((w.sample(ps(25.0)).value() - 50.0).abs() < 1e-9);
        assert_eq!(w.sample(ps(40.0)), ua(0.0));
        assert_eq!(w.sample(ps(41.0)), ua(0.0));
        assert_eq!(w.peak(), ua(100.0));
        assert_eq!(w.peak_time(), Some(ps(10.0)));
    }

    #[test]
    #[should_panic(expected = "triangle breakpoints")]
    fn triangle_rejects_disordered_breakpoints() {
        let _ = Waveform::triangle(ps(10.0), ps(0.0), ps(40.0), ua(1.0));
    }

    #[test]
    fn triangle_charge_matches_area() {
        let w = Waveform::triangle(ps(0.0), ps(10.0), ps(40.0), ua(100.0));
        // 0.5 * 100 µA * 40 ps = 2000 µA·ps = 2 fC
        assert!((w.charge_fc() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn shift_preserves_shape() {
        let w = Waveform::triangle(ps(0.0), ps(10.0), ps(40.0), ua(100.0));
        let s = w.shifted(ps(7.0));
        assert_eq!(s.peak(), w.peak());
        assert_eq!(s.peak_time(), Some(ps(17.0)));
        assert!((s.charge_fc() - w.charge_fc()).abs() < 1e-9);
        let back = s.shifted(ps(-7.0));
        assert_eq!(back, w);
    }

    #[test]
    fn scale_scales_values_only() {
        let w = Waveform::triangle(ps(0.0), ps(10.0), ps(40.0), ua(100.0));
        let s = w.scaled(0.5);
        assert_eq!(s.peak(), ua(50.0));
        assert_eq!(s.peak_time(), w.peak_time());
    }

    #[test]
    fn plus_is_exact_on_breakpoint_union() {
        let a = Waveform::triangle(ps(0.0), ps(10.0), ps(20.0), ua(100.0));
        let b = Waveform::triangle(ps(10.0), ps(20.0), ps(30.0), ua(50.0));
        let s = a.plus(&b);
        assert_eq!(s.sample(ps(10.0)), ua(100.0));
        assert!((s.sample(ps(15.0)).value() - (50.0 + 25.0)).abs() < 1e-9);
        assert!((s.charge_fc() - (a.charge_fc() + b.charge_fc())).abs() < 1e-9);
    }

    #[test]
    fn plus_with_zero_is_identity() {
        let a = Waveform::triangle(ps(0.0), ps(10.0), ps(20.0), ua(100.0));
        assert_eq!(a.plus(&Waveform::zero()), a);
        assert_eq!(Waveform::zero().plus(&a), a);
    }

    #[test]
    fn sum_matches_iterated_plus() {
        let a = Waveform::triangle(ps(0.0), ps(5.0), ps(10.0), ua(10.0));
        let b = Waveform::triangle(ps(2.0), ps(8.0), ps(14.0), ua(20.0));
        let c = Waveform::triangle(ps(4.0), ps(9.0), ps(18.0), ua(30.0));
        let folded = a.plus(&b).plus(&c);
        let pooled = Waveform::sum([&a, &b, &c]);
        for t in 0..20 {
            let t = ps(t as f64);
            assert!(
                (folded.sample(t).value() - pooled.sample(t).value()).abs() < 1e-9,
                "mismatch at {t}"
            );
        }
    }

    #[test]
    fn max_in_window_respects_edges() {
        let w = Waveform::triangle(ps(0.0), ps(10.0), ps(20.0), ua(100.0));
        assert_eq!(w.max_in_window(ps(0.0), ps(20.0)), ua(100.0));
        // A window that excludes the apex: max is at a window edge.
        let m = w.max_in_window(ps(12.0), ps(16.0));
        assert!((m.value() - w.sample(ps(12.0)).value()).abs() < 1e-9);
        // Degenerate window.
        assert_eq!(w.max_in_window(ps(16.0), ps(12.0)), ua(0.0));
    }

    #[test]
    fn from_points_sorts_and_dedups() {
        let w =
            Waveform::from_points([(ps(10.0), ua(5.0)), (ps(0.0), ua(0.0)), (ps(10.0), ua(7.0))]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.sample(ps(10.0)), ua(7.0));
    }

    #[test]
    fn from_points_drops_non_finite() {
        let w = Waveform::from_points([
            (ps(f64::NAN), ua(5.0)),
            (ps(1.0), ua(f64::INFINITY)),
            (ps(2.0), ua(3.0)),
        ]);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn resample_returns_dense_vector() {
        let w = Waveform::triangle(ps(0.0), ps(10.0), ps(20.0), ua(100.0));
        let times: Vec<Picoseconds> = (0..=4).map(|i| ps(i as f64 * 5.0)).collect();
        let v = w.resample(&times);
        assert_eq!(v.len(), 5);
        assert_eq!(v[2], ua(100.0));
    }
}
