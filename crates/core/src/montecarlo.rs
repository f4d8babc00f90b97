//! Monte-Carlo process-variation study (Section VII-D).
//!
//! Wire widths/lengths, cell widths and threshold voltages are randomized
//! as Gaussians with σ/µ = 5 %; 1000 instances per circuit are analyzed
//! for skew-bound yield and for the spread (normalized standard deviation
//! σ̂/µ̂) of the peak current and VDD/Gnd noises.

use crate::design::Design;
use crate::error::WaveMinError;
use crate::eval::NoiseEvaluator;
use crate::observe::{Instruments, Stage};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use wavemin_cells::units::Picoseconds;
use wavemin_clocktree::variation::VariationModel;
use wavemin_mosp::Budget;

/// Summary statistics of one observed quantity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Spread {
    /// Observed mean µ̂.
    pub mean: f64,
    /// Observed standard deviation σ̂.
    pub std_dev: f64,
}

impl Spread {
    fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self {
                mean: 0.0,
                std_dev: 0.0,
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        Self {
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// The paper's normalized deviation σ̂/µ̂.
    #[must_use]
    pub fn normalized(&self) -> f64 {
        if self.mean.abs() < 1e-12 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Results of a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MonteCarloStats {
    /// Number of instances actually analyzed (smaller than the requested
    /// count when the deadline expired mid-study).
    pub runs: usize,
    /// `true` when the study stopped early because its time budget ran
    /// out; the statistics then cover only the completed instances.
    pub deadline_hit: bool,
    /// Fraction of instances whose skew stayed within the bound.
    pub skew_yield: f64,
    /// Peak-current spread (mA).
    pub peak: Spread,
    /// VDD-noise spread (mV).
    pub vdd_noise: Spread,
    /// Ground-noise spread (mV).
    pub gnd_noise: Spread,
}

/// The Monte-Carlo driver.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    /// The variation magnitudes (default: σ/µ = 5 % everywhere).
    pub model: VariationModel,
    /// Instances to analyze (the paper uses 1000).
    pub runs: usize,
    /// The skew bound checked for yield.
    pub kappa: Picoseconds,
    /// Optional resource budget; when its deadline expires the study
    /// returns partial statistics instead of running to completion.
    pub budget: Budget,
    /// Observability context; disabled instruments (the default) record
    /// nothing. Set to the optimization run's instruments, the study
    /// appears as a `monte_carlo` stage in the same
    /// [`crate::observe::RunReport`] and event journal.
    pub instruments: Instruments,
}

impl MonteCarlo {
    /// The paper's setup: 1000 instances, σ/µ = 5 %, κ = 100 ps.
    #[must_use]
    pub fn paper_setup() -> Self {
        Self {
            model: VariationModel::default(),
            runs: 1000,
            kappa: Picoseconds::new(100.0),
            budget: Budget::unlimited(),
            instruments: Instruments::disabled(),
        }
    }

    /// Creates a driver with explicit parameters.
    #[must_use]
    pub fn new(model: VariationModel, runs: usize, kappa: Picoseconds) -> Self {
        Self {
            model,
            runs,
            kappa,
            budget: Budget::unlimited(),
            instruments: Instruments::disabled(),
        }
    }

    /// Bounds the study by a resource budget (deadline-checked between
    /// instances; on expiry the partial statistics are returned with
    /// [`MonteCarloStats::deadline_hit`] set).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Runs the study on the design's current state (mode 0).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn run(&self, design: &Design, seed: u64) -> Result<MonteCarloStats, WaveMinError> {
        let _stage = self.instruments.stage(Stage::MonteCarlo);
        // Sample all variations up front (sequentially, so the result is
        // independent of the worker count), then evaluate in parallel.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let model = self.model;
        let variations: Vec<_> = (0..self.runs)
            .map(|_| model.sample(&design.tree, &mut rng))
            .collect();

        let workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(self.runs.max(1));
        let chunk = self.runs.div_ceil(workers.max(1)).max(1);
        let budget = &self.budget;
        let reports: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = variations
                .chunks(chunk)
                .map(|slice| {
                    scope.spawn(move || {
                        let eval = NoiseEvaluator::new(design);
                        let mut done = Vec::with_capacity(slice.len());
                        for v in slice {
                            // Deadline checks sit between instances so a
                            // partial study is always a prefix of whole
                            // evaluations, never a half-computed one.
                            if budget.deadline_expired() {
                                break;
                            }
                            done.push(eval.evaluate_with_variation(0, v)?);
                        }
                        Ok::<_, WaveMinError>(done)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect::<Result<Vec<_>, _>>()
        })?
        .into_iter()
        .flatten()
        .collect();

        let completed = reports.len();
        let mut peaks = Vec::with_capacity(completed);
        let mut vdds = Vec::with_capacity(completed);
        let mut gnds = Vec::with_capacity(completed);
        let mut pass = 0usize;
        for report in reports {
            if report.skew.value() <= self.kappa.value() + 1e-9 {
                pass += 1;
            }
            peaks.push(report.peak.value());
            vdds.push(report.vdd_noise.value());
            gnds.push(report.gnd_noise.value());
        }
        Ok(MonteCarloStats {
            runs: completed,
            deadline_hit: completed < self.runs,
            skew_yield: if completed == 0 {
                0.0
            } else {
                pass as f64 / completed as f64
            },
            peak: Spread::from_samples(&peaks),
            vdd_noise: Spread::from_samples(&vdds),
            gnd_noise: Spread::from_samples(&gnds),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn spread_statistics() {
        let s = Spread::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std_dev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((s.normalized() - s.std_dev / 2.0).abs() < 1e-12);
        assert_eq!(Spread::from_samples(&[]).mean, 0.0);
    }

    #[test]
    fn small_variation_gives_high_yield() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let mc = MonteCarlo::new(VariationModel::default(), 40, Picoseconds::new(100.0));
        let stats = mc.run(&d, 11).unwrap();
        assert_eq!(stats.runs, 40);
        // A balanced tree with κ = 100 ps survives 5 % variation easily.
        assert!(stats.skew_yield > 0.9, "yield {}", stats.skew_yield);
        // Normalized spread should be on the order of the 5 % sigma.
        let norm = stats.peak.normalized();
        assert!((0.005..0.2).contains(&norm), "σ̂/µ̂ {norm}");
    }

    #[test]
    fn tight_bound_lowers_yield() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let loose = MonteCarlo::new(VariationModel::default(), 30, Picoseconds::new(100.0))
            .run(&d, 3)
            .unwrap();
        let tight = MonteCarlo::new(VariationModel::default(), 30, Picoseconds::new(3.0))
            .run(&d, 3)
            .unwrap();
        assert!(tight.skew_yield <= loose.skew_yield);
    }

    #[test]
    fn expired_budget_returns_partial_stats() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let mc = MonteCarlo::new(VariationModel::default(), 50, Picoseconds::new(100.0))
            .with_budget(Budget::with_time_limit(std::time::Duration::ZERO));
        let stats = mc.run(&d, 5).unwrap();
        assert!(stats.deadline_hit, "zero budget must flag the early stop");
        assert!(stats.runs < 50, "ran {} instances", stats.runs);
    }

    #[test]
    fn runs_are_reproducible() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let mc = MonteCarlo::new(VariationModel::default(), 10, Picoseconds::new(50.0));
        assert_eq!(mc.run(&d, 9).unwrap(), mc.run(&d, 9).unwrap());
    }
}
