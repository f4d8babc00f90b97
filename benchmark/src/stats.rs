//! Order statistics, failure accounting and the seeded generator.

/// Sorts a copy of `xs` (NaN-free by construction: every sample is a
/// measured duration, size or ratio).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads this benchmark reports match the ones its users compute.
/// A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        _ => {
            // Signed: with few samples `delta` goes negative and the
            // outer quartiles extrapolate, as Python's do.
            let (ld, n) = (ld as i64, 4i64);
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..n) {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m - j * n) as f64;
                let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
                *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
            }
            out
        }
    }
}

/// `(q3 - q1) / median`: the spread the regression bounds are judged
/// against.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((q3 - q1) / q2).abs()
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles worth reporting for `n` samples: the median, plus
/// each tail percentile that has at least ten samples beyond it.
pub fn reported_percentiles(n: usize) -> Vec<u32> {
    let mut out = vec![50];
    for p in [90u32, 99] {
        if n as f64 * (100 - p) as f64 / 100.0 >= 10.0 {
            out.push(p);
        }
    }
    out
}

/// Operations attempted and failed. An operation is one design solve,
/// one daemon request or one verification solve; it fails on an error
/// return, an `ok:false` reply, or any failed check of its output.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks an already-recorded operation as failed by a later check
    /// (such as a pass-to-pass bit comparison).
    pub fn fail_recorded(&mut self) {
        self.failed = (self.failed + 1).min(self.attempted);
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// SplitMix64: a tiny, fully specified generator, so the inputs a seed
/// produces never depend on another crate's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5745_4156_454d_494e)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), [4.5, 6.0, 7.5]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
        assert!((relative_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn percentile_choice_needs_ten_samples_beyond() {
        assert_eq!(reported_percentiles(100), vec![50, 90]);
        assert_eq!(reported_percentiles(99), vec![50]);
        assert_eq!(reported_percentiles(4), vec![50]);
        assert_eq!(reported_percentiles(1000), vec![50, 90, 99]);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn fail_ratio_counts_failed_over_attempted() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.fail_ratio(), 0.25);
        t.fail_recorded();
        assert_eq!(t.fail_ratio(), 0.5);
        // A later check can never push failures past the attempts.
        let mut one = Tally::default();
        one.record(false);
        one.fail_recorded();
        assert_eq!(one.fail_ratio(), 1.0);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..5)
            .scan(Rng::new(42), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..5)
            .scan(Rng::new(42), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..5)
            .scan(Rng::new(43), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut xs = [0, 1, 2, 3, 4, 5, 6];
        Rng::new(1).shuffle(&mut xs);
        let mut sorted = xs;
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4, 5, 6]);
    }
}
