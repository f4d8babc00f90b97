//! Supply-voltage dependence of delay and current.
//!
//! Multiple-power-mode designs run voltage islands at different supplies
//! (the paper uses 0.9 V and 1.1 V). The alpha-power law gives the standard
//! first-order dependence: a lower supply slows the cell down (carrier
//! drive `(V - V_T)^α` shrinks faster than the swing `V`) and slightly
//! lowers the peak current of velocity-saturated devices.

use crate::units::Volts;
use serde::Serialize;

/// Alpha-power-law supply scaling model.
///
/// `delay_factor` and `current_factor` are both `1.0` at the reference
/// supply; delays are multiplied and currents are multiplied by the
/// respective factor when operating at another supply.
///
/// # Example
///
/// ```
/// use wavemin_cells::{SupplyModel, units::Volts};
///
/// let m = SupplyModel::default();
/// assert!((m.delay_factor(Volts::new(1.1)) - 1.0).abs() < 1e-12);
/// // Lower supply: slower and slightly weaker.
/// assert!(m.delay_factor(Volts::new(0.9)) > 1.0);
/// assert!(m.current_factor(Volts::new(0.9)) < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SupplyModel {
    /// Reference supply at which cells were characterized.
    v_ref: Volts,
    /// Threshold voltage.
    v_t: Volts,
    /// Alpha-power exponent (≈1.3 for short-channel devices).
    alpha: f64,
    /// Peak-current sensitivity exponent: `I ∝ (V/V_ref)^beta`.
    beta: f64,
}

impl Default for SupplyModel {
    fn default() -> Self {
        Self {
            v_ref: Volts::new(1.1),
            v_t: Volts::new(0.35),
            alpha: 1.3,
            beta: 0.4,
        }
    }
}

impl SupplyModel {
    /// Creates a model with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `v_ref <= v_t`, which would make the reference operating
    /// point unable to switch at all.
    #[must_use]
    pub fn new(v_ref: Volts, v_t: Volts, alpha: f64, beta: f64) -> Self {
        assert!(
            v_ref > v_t,
            "reference supply {v_ref} must exceed threshold {v_t}"
        );
        Self {
            v_ref,
            v_t,
            alpha,
            beta,
        }
    }

    /// The reference supply voltage.
    #[must_use]
    pub fn v_ref(&self) -> Volts {
        self.v_ref
    }

    /// Multiplier on all delays and slews when operating at `v`.
    ///
    /// `t(V) = t(V_ref) · (V/V_ref) / ((V−V_T)/(V_ref−V_T))^α`, clamped to a
    /// large but finite factor as `V → V_T`.
    #[must_use]
    pub fn delay_factor(&self, v: Volts) -> f64 {
        let headroom = (v - self.v_t).value();
        if headroom <= 1e-6 {
            return 1e6;
        }
        let swing = v / self.v_ref;
        let drive = (headroom / (self.v_ref - self.v_t).value()).powf(self.alpha);
        (swing / drive).min(1e6)
    }

    /// Multiplier on all peak currents when operating at `v`:
    /// `I(V) = I(V_ref) · (V/V_ref)^β`.
    #[must_use]
    pub fn current_factor(&self, v: Volts) -> f64 {
        (v / self.v_ref).max(0.0).powf(self.beta)
    }

    /// Multiplier on the switched charge: the rail-to-rail swing scales
    /// linearly with the supply.
    #[must_use]
    pub fn charge_factor(&self, v: Volts) -> f64 {
        (v / self.v_ref).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_point_is_identity() {
        let m = SupplyModel::default();
        let v = m.v_ref();
        assert!((m.delay_factor(v) - 1.0).abs() < 1e-12);
        assert!((m.current_factor(v) - 1.0).abs() < 1e-12);
        assert!((m.charge_factor(v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_supply_slows_and_weakens() {
        let m = SupplyModel::default();
        let low = Volts::new(0.9);
        assert!(m.delay_factor(low) > 1.0);
        assert!(m.current_factor(low) < 1.0);
        assert!(m.charge_factor(low) < 1.0);
    }

    #[test]
    fn paper_magnitudes_are_plausible() {
        // Table III: delays grow ~10-30 % and peaks shrink ~8 % from 1.1 V
        // to 0.9 V. The default model should land in that neighbourhood.
        let m = SupplyModel::default();
        let d = m.delay_factor(Volts::new(0.9));
        assert!((1.05..1.4).contains(&d), "delay factor {d}");
        let i = m.current_factor(Volts::new(0.9));
        assert!((0.85..0.99).contains(&i), "current factor {i}");
    }

    #[test]
    fn near_threshold_is_clamped_not_infinite() {
        let m = SupplyModel::default();
        let d = m.delay_factor(Volts::new(0.35));
        assert!(d.is_finite());
        assert!(d >= 1e5);
    }

    #[test]
    fn higher_supply_speeds_up() {
        let m = SupplyModel::default();
        assert!(m.delay_factor(Volts::new(1.3)) < 1.0);
        assert!(m.current_factor(Volts::new(1.3)) > 1.0);
    }

    #[test]
    #[should_panic(expected = "must exceed threshold")]
    fn rejects_vref_below_threshold() {
        let _ = SupplyModel::new(Volts::new(0.3), Volts::new(0.35), 1.3, 0.4);
    }
}
