//! Interconnect RC model.

use serde::Serialize;
use wavemin_cells::units::{Femtofarads, Microns, Ohms};

/// Per-micron wire parasitics for the clock routing layer.
///
/// Defaults are typical of a 45 nm intermediate metal layer.
///
/// # Example
///
/// ```
/// use wavemin_clocktree::WireModel;
/// use wavemin_cells::units::Microns;
///
/// let w = WireModel::default();
/// let r = w.resistance(Microns::new(100.0));
/// let c = w.capacitance(Microns::new(100.0));
/// assert!(r.value() > 0.0 && c.value() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WireModel {
    /// Sheet resistance per micron of routed length.
    pub r_per_um: Ohms,
    /// Capacitance per micron of routed length.
    pub c_per_um: Femtofarads,
}

impl Default for WireModel {
    fn default() -> Self {
        Self {
            r_per_um: Ohms::new(0.30),
            c_per_um: Femtofarads::new(0.16),
        }
    }
}

impl WireModel {
    /// Total resistance of a wire of the given length.
    #[must_use]
    pub fn resistance(&self, length: Microns) -> Ohms {
        self.r_per_um * length.value().max(0.0)
    }

    /// Total capacitance of a wire of the given length.
    #[must_use]
    pub fn capacitance(&self, length: Microns) -> Femtofarads {
        self.c_per_um * length.value().max(0.0)
    }

    /// Elmore delay of the wire driving `c_load` at its far end
    /// (`0.69 · R_w · (C_w/2 + C_load)`).
    #[must_use]
    pub fn elmore_delay(
        &self,
        length: Microns,
        c_load: Femtofarads,
    ) -> wavemin_cells::units::Picoseconds {
        let r = self.resistance(length);
        let c = self.capacitance(length);
        0.69 * (r * (c / 2.0 + c_load))
    }

    /// Slew degradation across the wire (PERI-style, 20–80 %).
    #[must_use]
    pub fn slew_degradation(
        &self,
        length: Microns,
        c_load: Femtofarads,
    ) -> wavemin_cells::units::Picoseconds {
        let r = self.resistance(length);
        let c = self.capacitance(length);
        2.2 * (r * (c / 2.0 + c_load))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavemin_cells::units::Picoseconds;

    #[test]
    fn parasitics_scale_linearly() {
        let w = WireModel::default();
        let r1 = w.resistance(Microns::new(10.0));
        let r2 = w.resistance(Microns::new(20.0));
        assert!((r2.value() - 2.0 * r1.value()).abs() < 1e-12);
        let c1 = w.capacitance(Microns::new(10.0));
        let c2 = w.capacitance(Microns::new(20.0));
        assert!((c2.value() - 2.0 * c1.value()).abs() < 1e-12);
    }

    #[test]
    fn negative_length_clamps_to_zero() {
        let w = WireModel::default();
        assert_eq!(w.resistance(Microns::new(-5.0)), Ohms::ZERO);
        assert_eq!(w.capacitance(Microns::new(-5.0)), Femtofarads::ZERO);
    }

    #[test]
    fn elmore_delay_grows_superlinearly_with_length() {
        let w = WireModel::default();
        let load = Femtofarads::new(2.0);
        let d1 = w.elmore_delay(Microns::new(100.0), load);
        let d2 = w.elmore_delay(Microns::new(200.0), load);
        assert!(d2.value() > 2.0 * d1.value());
    }

    #[test]
    fn zero_length_wire_has_zero_delay() {
        let w = WireModel::default();
        assert_eq!(
            w.elmore_delay(Microns::ZERO, Femtofarads::new(5.0)),
            Picoseconds::ZERO
        );
    }

    #[test]
    fn slew_degradation_exceeds_delay() {
        let w = WireModel::default();
        let load = Femtofarads::new(2.0);
        let len = Microns::new(150.0);
        assert!(w.slew_degradation(len, load) > w.elmore_delay(len, load));
    }
}
