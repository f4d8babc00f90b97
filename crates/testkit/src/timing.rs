//! The one micro-benchmark timer: every `cargo bench` main in
//! `wavemin-bench` and the `bench_mosp` emitter time through it.
//!
//! * [`time`] reports one closure's per-call wall time as quartiles over
//!   [`ROUNDS`] equal batches.
//! * [`paired`] answers "how much slower is B than A" in one process.
//!   Each round times one batch of A and one of B with the same call
//!   count, alternating which runs first, and the quartiles are those of
//!   the per-round ratio B/A. Drift slower than a round (frequency
//!   scaling, a neighbour's load) hits both sides of it, so the ratio
//!   resolves differences well below the run-to-run spread of either
//!   side's absolute time.
//!
//! Both first calibrate the calls per batch so a batch lasts about
//! [`BATCH`]; that also warms caches and lazy set-up. [`Bench`] runs the
//! rows a bench main selects and prints one line per row.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed rounds per row. At 101 rounds an A-vs-A pair (both sides the
/// same code) reads a median within about 1.5 % of 1 on a 2-core host;
/// at 21 rounds it read up to 4.4 % off.
pub const ROUNDS: usize = 101;

/// Target wall time of one timed batch.
pub const BATCH: Duration = Duration::from_millis(20);

/// Lower quartile, median and upper quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// The lower quartile.
    pub q1: f64,
    /// The median.
    pub median: f64,
    /// The upper quartile.
    pub q3: f64,
}

impl Quartiles {
    /// The quartiles of `samples` by rank after sorting them in place
    /// (indices `n/4`, `n/2` and `3n/4`: exact for `n = 4k + 1`).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub(crate) fn of(samples: &mut [f64]) -> Self {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        Self {
            q1: samples[n / 4],
            median: samples[n / 2],
            q3: samples[3 * n / 4],
        }
    }
}

/// Per-call wall-clock seconds of `f`, as quartiles over [`ROUNDS`]
/// batches.
pub fn time<O>(mut f: impl FnMut() -> O) -> Quartiles {
    let iters = calibrate(&mut f);
    let mut per_call: Vec<f64> = (0..ROUNDS)
        .map(|_| batch(&mut f, iters) / iters as f64)
        .collect();
    Quartiles::of(&mut per_call)
}

/// B's wall time over A's: quartiles of the per-round ratio B/A over
/// [`ROUNDS`] rounds of equal-length batches (the call count that makes
/// one batch of A last about [`BATCH`]).
pub fn paired<OA, OB>(mut a: impl FnMut() -> OA, mut b: impl FnMut() -> OB) -> Quartiles {
    let iters = calibrate(&mut a);
    calibrate(&mut b); // B's warm-up
    let mut ratios = rounds(&mut a, &mut b, iters, ROUNDS);
    Quartiles::of(&mut ratios)
}

/// The ratio B/A of each round; even rounds run A first, odd rounds B.
fn rounds<OA, OB>(
    a: &mut impl FnMut() -> OA,
    b: &mut impl FnMut() -> OB,
    iters: u64,
    rounds: usize,
) -> Vec<f64> {
    (0..rounds)
        .map(|round| {
            let (ta, tb) = if round % 2 == 0 {
                let ta = batch(a, iters);
                (ta, batch(b, iters))
            } else {
                let tb = batch(b, iters);
                (batch(a, iters), tb)
            };
            tb / ta
        })
        .collect()
}

/// Wall-clock seconds of `iters` calls of `f`.
fn batch<O>(f: &mut impl FnMut() -> O, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64()
}

/// Calls per batch: trial batches double until one lasts half of
/// [`BATCH`], whose rate is then scaled to [`BATCH`] (at least one call).
fn calibrate<O>(f: &mut impl FnMut() -> O) -> u64 {
    let target = BATCH.as_secs_f64();
    let mut iters = 1u64;
    loop {
        let t = batch(f, iters);
        if t >= target / 2.0 {
            return ((iters as f64 * target / t).ceil() as u64).max(1);
        }
        iters *= 2;
    }
}

/// The rows of one bench main. The first command-line argument that is
/// not a flag selects rows whose name contains it (`cargo bench --bench
/// kernel_ops -- kernel_add_max`); each selected row prints one line.
#[derive(Debug, Clone, Default)]
pub struct Bench {
    filter: Option<String>,
    /// An A-vs-A reading, printed beside every later ratio as the
    /// resolution the ratios can be read to.
    pub resolution: Option<Quartiles>,
}

impl Bench {
    /// The rows the process arguments select.
    #[must_use]
    pub fn from_args() -> Self {
        Self {
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
            resolution: None,
        }
    }

    /// `true` when row `name` runs.
    #[must_use]
    fn selects(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|s| name.contains(s))
    }

    /// Row `name`: [`time`]s `f` and prints its per-call quartiles.
    pub fn time<O>(&self, name: &str, f: impl FnMut() -> O) {
        if self.selects(name) {
            let t = time(f);
            println!(
                "bench: {name:<52} {:>14.1} ns/iter [{:.1}–{:.1}]",
                t.median * 1e9,
                t.q1 * 1e9,
                t.q3 * 1e9
            );
        }
    }

    /// Row `name`: the [`paired`] ratio B/A, printed with its quartiles
    /// and the [`Bench::resolution`] when one is set.
    pub fn paired<OA, OB>(
        &self,
        name: &str,
        a: impl FnMut() -> OA,
        b: impl FnMut() -> OB,
    ) -> Option<Quartiles> {
        if !self.selects(name) {
            return None;
        }
        let r = paired(a, b);
        let resolution = self.resolution.map_or_else(String::new, |aa| {
            format!("  A-vs-A {:.3} [{:.3}–{:.3}]", aa.median, aa.q1, aa.q3)
        });
        println!(
            "bench: {name:<52} {:>8.3} B/A [{:.3}–{:.3}]{resolution}",
            r.median, r.q1, r.q3
        );
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn a_and_b_alternate_first_position_round_by_round() {
        let log = RefCell::new(String::new());
        let ratios = rounds(
            &mut || log.borrow_mut().push('a'),
            &mut || log.borrow_mut().push('b'),
            2,
            4,
        );
        assert_eq!(ratios.len(), 4);
        assert_eq!(log.into_inner(), "aabb bbaa aabb bbaa".replace(' ', ""));
    }

    #[test]
    fn quartiles_of_a_known_sample() {
        let q = Quartiles::of(&mut [5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        // 101 samples, the size of a row: 0..=100 in scrambled order.
        let mut sample: Vec<f64> = (0..=100).map(|i| f64::from((i * 37) % 101)).collect();
        let q = Quartiles::of(&mut sample);
        assert_eq!((q.q1, q.median, q.q3), (25.0, 50.0, 75.0));
        assert_eq!(Quartiles::of(&mut [7.0]).median, 7.0);
    }

    #[test]
    fn without_a_filter_every_row_runs() {
        let bench = Bench::default();
        for name in [
            "kernel_add_into/vector_vs_scalar/8",
            "s13207/clkpeakmin",
            "",
        ] {
            assert!(bench.selects(name), "{name}");
        }
    }

    #[test]
    fn the_filter_runs_only_names_containing_it() {
        let bench = Bench {
            filter: Some("scaled_leq".to_owned()),
            resolution: None,
        };
        assert!(bench.selects("kernel_scaled_leq/vector_vs_scalar/8"));
        assert!(bench.selects("top_scaled_leq_any"));
        // Unselected rows never call their closures.
        let never = || -> u8 { unreachable!("an unselected row ran") };
        bench.time("kernel_dominates/vector_vs_scalar/8", never);
        assert_eq!(bench.paired("top", never, never), None);
    }
}
