//! Skew-yield-aware polarity assignment — the constraint style of Kang &
//! Kim [26], cited by the paper: meet the skew bound not just nominally
//! but with a target *yield* under process variation.
//!
//! The approach is the classic statistical guard band: estimate the skew's
//! standard deviation with a fast timing-only Monte-Carlo pass, tighten
//! the optimization bound by `z(target_yield) · σ̂`, run ClkWaveMin against
//! the tightened bound, and verify the achieved yield with a second
//! Monte-Carlo pass.

use crate::algo::{ClkWaveMin, Outcome};
use crate::config::WaveMinConfig;
use crate::design::Design;
use crate::error::WaveMinError;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use wavemin_cells::units::Picoseconds;
use wavemin_clocktree::variation::VariationModel;
use wavemin_clocktree::Timing;

/// The yield-aware result: the underlying outcome plus the statistical
/// figures that produced and validated it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct YieldOutcome {
    /// The optimization outcome (against the tightened bound).
    pub outcome: Outcome,
    /// Estimated skew standard deviation of the *input* design.
    pub skew_sigma: Picoseconds,
    /// Guard band subtracted from the skew bound.
    pub guard_band: Picoseconds,
    /// Fraction of validation samples meeting the original bound.
    pub achieved_yield: f64,
    /// The requested yield.
    pub target_yield: f64,
}

/// ClkWaveMin under a skew-yield constraint (see the module docs).
#[derive(Debug, Clone)]
pub struct YieldAwareWaveMin {
    config: WaveMinConfig,
    model: VariationModel,
    target_yield: f64,
    samples: usize,
}

impl YieldAwareWaveMin {
    /// Creates the optimizer.
    ///
    /// `target_yield` is clamped to `[0.5, 0.9999]`; `samples` sets both
    /// Monte-Carlo passes' sizes (the paper-scale default is 1000, but a
    /// few hundred suffice for a σ estimate).
    #[must_use]
    pub fn new(
        config: WaveMinConfig,
        model: VariationModel,
        target_yield: f64,
        samples: usize,
    ) -> Self {
        Self {
            config,
            model,
            target_yield: target_yield.clamp(0.5, 0.9999),
            samples: samples.max(10),
        }
    }

    /// Runs the guard-banded optimization.
    ///
    /// # Errors
    ///
    /// [`WaveMinError::NoFeasibleInterval`] when the guard-banded bound is
    /// too tight to admit any assignment, plus the usual timing errors.
    pub fn run(&self, design: &Design, seed: u64) -> Result<YieldOutcome, WaveMinError> {
        let sigma = self.skew_sigma(design, seed)?;
        let z = normal_quantile(self.target_yield);
        let guard = Picoseconds::new(z * sigma.value());
        let tightened = (self.config.skew_bound - guard).max(Picoseconds::new(0.1));

        let mut config = self.config.clone();
        config.skew_bound = tightened;
        let outcome = ClkWaveMin::new(config).run(design)?;

        // Validation against the ORIGINAL bound.
        let mut optimized = design.clone();
        outcome.assignment.apply_to(&mut optimized);
        let achieved = self.measure_yield(&optimized, seed + 1)?;
        Ok(YieldOutcome {
            outcome,
            skew_sigma: sigma,
            guard_band: guard,
            achieved_yield: achieved,
            target_yield: self.target_yield,
        })
    }

    /// Timing-only Monte-Carlo estimate of the skew's σ.
    fn skew_sigma(&self, design: &Design, seed: u64) -> Result<Picoseconds, WaveMinError> {
        let skews = self.sample_skews(design, seed)?;
        let n = skews.len() as f64;
        let mean = skews.iter().sum::<f64>() / n;
        let var = skews.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        Ok(Picoseconds::new(var.sqrt()))
    }

    fn measure_yield(&self, design: &Design, seed: u64) -> Result<f64, WaveMinError> {
        let skews = self.sample_skews(design, seed)?;
        let pass = skews
            .iter()
            .filter(|&&s| s <= self.config.skew_bound.value() + 1e-9)
            .count();
        Ok(pass as f64 / skews.len() as f64)
    }

    fn sample_skews(&self, design: &Design, seed: u64) -> Result<Vec<f64>, WaveMinError> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let supply = design.power.supply_for(&design.tree, 0);
        let mut out = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let v = self.model.sample(&design.tree, &mut rng);
            let mut adjust = v.timing;
            // Keep the mode-0 ADB codes on top of the variation.
            for (i, &d) in design.mode_adjust[0].extra_delay.iter().enumerate() {
                if d > Picoseconds::ZERO {
                    let cur = adjust
                        .extra_delay
                        .get(i)
                        .copied()
                        .unwrap_or(Picoseconds::ZERO);
                    adjust.set_extra_delay(wavemin_clocktree::NodeId(i), cur + d);
                }
            }
            let timing = Timing::analyze(
                &design.tree,
                &design.lib,
                &design.chr,
                design.wire,
                &supply,
                Some(&adjust),
            )?;
            out.push(timing.skew(&design.tree).value());
        }
        Ok(out)
    }
}

/// The standard normal quantile Φ⁻¹(p) for `p ∈ [0.5, 0.9999]`, via
/// Acklam's rational approximation (relative error < 1.15e-9 — far tighter
/// than the Monte-Carlo noise it guards).
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    let p = p.clamp(0.5, 0.9999);
    const A: [f64; 6] = [
        -39.696_830_286_653_76,
        220.946_098_424_520_5,
        -275.928_510_446_968_7,
        138.357_751_867_269,
        -30.664_798_066_147_16,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -54.476_098_798_224_06,
        161.585_836_858_040_9,
        -155.698_979_859_886_6,
        66.801_311_887_719_72,
        -13.280_681_552_885_72,
    ];
    const C: [f64; 6] = [
        -0.007_784_894_002_430_293,
        -0.322_396_458_041_136_5,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        0.007_784_695_709_041_462,
        0.322_467_129_070_039_8,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_HIGH: f64 = 1.0 - 0.02425;
    if p <= P_HIGH {
        // Central region.
        let q = p - 0.5;
        let r = q * q;
        let num = ((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5];
        let den = ((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0;
        q * num / den
    } else {
        // Upper tail.
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        let num = ((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5];
        let den = (((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0;
        -num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn quick_config(kappa: f64) -> WaveMinConfig {
        let mut cfg = WaveMinConfig::default()
            .with_sample_count(16)
            .with_skew_bound(Picoseconds::new(kappa));
        cfg.max_intervals = Some(4);
        cfg
    }

    #[test]
    fn normal_quantile_reference_points() {
        assert!((normal_quantile(0.5) - 0.0).abs() < 1e-6);
        assert!((normal_quantile(0.8413447) - 1.0).abs() < 1e-3);
        assert!((normal_quantile(0.97725) - 2.0).abs() < 1e-3);
        assert!((normal_quantile(0.99865) - 3.0).abs() < 1e-2);
        // Monotone.
        assert!(normal_quantile(0.95) < normal_quantile(0.99));
    }

    #[test]
    fn guard_band_grows_with_target_yield() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 3);
        let model = VariationModel::default();
        let lo = YieldAwareWaveMin::new(quick_config(20.0), model, 0.84, 40)
            .run(&d, 9)
            .unwrap();
        let hi = YieldAwareWaveMin::new(quick_config(20.0), model, 0.999, 40)
            .run(&d, 9)
            .unwrap();
        assert!(hi.guard_band > lo.guard_band);
        assert!(lo.skew_sigma.value() > 0.0);
    }

    #[test]
    fn achieves_high_yield_with_guard_band() {
        let d = Design::from_benchmark(&Benchmark::s15850(), 3);
        let out = YieldAwareWaveMin::new(quick_config(20.0), VariationModel::default(), 0.97, 60)
            .run(&d, 4)
            .unwrap();
        assert!(
            out.achieved_yield >= 0.9,
            "yield {} below expectation (guard {})",
            out.achieved_yield,
            out.guard_band
        );
        // The optimization itself respected the tightened bound.
        assert!(
            out.outcome.skew_after.value()
                <= (Picoseconds::new(20.0) - out.guard_band).value() + 1e-9
        );
    }

    #[test]
    fn overwhelming_variation_reports_honest_low_yield() {
        // Under 50 % delay variation no guard band can rescue a 5 ps
        // bound; the run still succeeds (the exactly-equalized tree always
        // admits the identity-like assignment) but must report the low
        // achieved yield rather than pretend.
        let d = Design::from_benchmark(&Benchmark::s15850(), 3);
        let model = VariationModel {
            cell_delay_sigma: 0.5,
            wire_r_sigma: 0.5,
            wire_c_sigma: 0.5,
            current_sigma: 0.05,
        };
        let out = YieldAwareWaveMin::new(quick_config(5.0), model, 0.9999, 30)
            .run(&d, 1)
            .unwrap();
        assert!(out.guard_band.value() > 0.0);
        assert!(
            out.achieved_yield < 0.5,
            "yield {} should collapse under 50 % variation",
            out.achieved_yield
        );
    }
}
