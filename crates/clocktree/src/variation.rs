//! Process-variation sampling for Monte-Carlo analysis.
//!
//! Section VII-D of the paper randomizes wire widths/lengths,
//! buffer/inverter widths and threshold voltages as Gaussians with
//! `σ/µ = 5 %` and runs 1000 instances per circuit. Here a variation
//! sample is a [`TimingAdjust`]: per-node multipliers on cell delay and
//! wire R/C, plus a current multiplier consumed by the noise evaluator.

use crate::timing::TimingAdjust;
use crate::tree::ClockTree;
use rand::Rng;
use serde::Serialize;

/// Gaussian variation magnitudes (all as `σ/µ` fractions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VariationModel {
    /// Cell delay variation (device width + threshold voltage combined).
    pub cell_delay_sigma: f64,
    /// Wire resistance variation (width/thickness).
    pub wire_r_sigma: f64,
    /// Wire capacitance variation.
    pub wire_c_sigma: f64,
    /// Peak current variation.
    pub current_sigma: f64,
}

impl Default for VariationModel {
    /// The paper's `σ/µ = 5 %` everywhere.
    fn default() -> Self {
        Self {
            cell_delay_sigma: 0.05,
            wire_r_sigma: 0.05,
            wire_c_sigma: 0.05,
            current_sigma: 0.05,
        }
    }
}

/// One sampled variation instance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Variation {
    /// Timing-side multipliers (consumed by [`crate::timing::Timing`]).
    pub timing: TimingAdjust,
    /// Per-node multipliers on emitted current peaks.
    pub current_mult: Vec<f64>,
}

impl VariationModel {
    /// Samples one variation instance for a tree.
    ///
    /// Multipliers are Gaussian `N(1, σ²)` clamped to `[0.5, 1.5]` to keep
    /// extreme tail samples physical.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(&self, tree: &ClockTree, rng: &mut R) -> Variation {
        let n = tree.len();
        let gauss = |rng: &mut R, sigma: f64| -> f64 {
            (1.0 + sigma * standard_normal(rng)).clamp(0.5, 1.5)
        };
        Variation {
            timing: TimingAdjust {
                cell_delay_mult: (0..n).map(|_| gauss(rng, self.cell_delay_sigma)).collect(),
                extra_delay: Vec::new(),
                wire_r_mult: (0..n).map(|_| gauss(rng, self.wire_r_sigma)).collect(),
                wire_c_mult: (0..n).map(|_| gauss(rng, self.wire_c_sigma)).collect(),
            },
            current_mult: (0..n).map(|_| gauss(rng, self.current_sigma)).collect(),
        }
    }
}

/// A standard-normal sample via the Box–Muller transform (avoids adding a
/// `rand_distr` dependency for one distribution).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sample_covers_every_node() {
        let tree = Benchmark::s15850().synthesize(1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let v = VariationModel::default().sample(&tree, &mut rng);
        assert_eq!(v.timing.cell_delay_mult.len(), tree.len());
        assert_eq!(v.timing.wire_r_mult.len(), tree.len());
        assert_eq!(v.current_mult.len(), tree.len());
    }

    #[test]
    fn multipliers_are_clamped_and_centered() {
        let tree = Benchmark::s13207().synthesize(1);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let model = VariationModel::default();
        let mut all = Vec::new();
        for _ in 0..50 {
            let v = model.sample(&tree, &mut rng);
            all.extend(v.timing.cell_delay_mult);
        }
        assert!(all.iter().all(|&m| (0.5..=1.5).contains(&m)));
        let mean: f64 = all.iter().sum::<f64>() / all.len() as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        let var: f64 = all.iter().map(|m| (m - 1.0).powi(2)).sum::<f64>() / all.len() as f64;
        let sigma = var.sqrt();
        assert!((sigma - 0.05).abs() < 0.01, "sigma {sigma}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let tree = Benchmark::s15850().synthesize(1);
        let model = VariationModel::default();
        let a = model.sample(&tree, &mut ChaCha8Rng::seed_from_u64(7));
        let b = model.sample(&tree, &mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = model.sample(&tree, &mut ChaCha8Rng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn standard_normal_statistics() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn zero_sigma_is_identity() {
        let tree = Benchmark::s15850().synthesize(1);
        let model = VariationModel {
            cell_delay_sigma: 0.0,
            wire_r_sigma: 0.0,
            wire_c_sigma: 0.0,
            current_sigma: 0.0,
        };
        let v = model.sample(&tree, &mut ChaCha8Rng::seed_from_u64(1));
        assert!(v.timing.cell_delay_mult.iter().all(|&m| m == 1.0));
        assert!(v.current_mult.iter().all(|&m| m == 1.0));
    }
}
