//! Lookup-table characterization with linear interpolation — the paper's
//! actual preprocessing scheme (Section IV-B: every buffer/inverter ×
//! sink combination is characterized once into a table `noise`, and the
//! noise function is built by linear interpolation).
//!
//! A [`NoiseLut`] caches [`CellProfile`]s on a (load, slew) grid at one
//! supply; lookups bilinearly blend the four surrounding grid profiles.
//! Waveforms blend exactly (piecewise-linear functions are closed under
//! convex combination), so the interpolation error comes only from the
//! grid resolution.
//!
//! # Example
//!
//! ```
//! use wavemin_cells::{CellLibrary, Characterizer, lut::NoiseLut, units::*};
//!
//! let lib = CellLibrary::nangate45();
//! let chr = Characterizer::default();
//! let lut = NoiseLut::build(
//!     &chr, lib.get("BUF_X8").unwrap(),
//!     &[1.0, 5.0, 10.0, 20.0], &[10.0, 20.0, 40.0], Volts::new(1.1),
//! );
//! let p = lut.lookup(Femtofarads::new(7.5), Picoseconds::new(25.0));
//! assert!(p.t_d_rise.value() > 0.0);
//! ```

use crate::characterize::{CellProfile, Characterizer};
use crate::spec::CellSpec;
use crate::units::{Femtofarads, Picoseconds, Volts};
use crate::waveform::Waveform;
use serde::Serialize;

/// A characterized (load × slew) grid for one cell at one supply.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NoiseLut {
    cell: String,
    vdd: Volts,
    loads: Vec<f64>,
    slews: Vec<f64>,
    /// Row-major: `profiles[li * slews.len() + si]`.
    profiles: Vec<CellProfile>,
}

impl NoiseLut {
    /// Characterizes the grid.
    ///
    /// # Panics
    ///
    /// Panics when either axis is empty or not strictly increasing.
    #[must_use]
    pub fn build(
        chr: &Characterizer,
        cell: &CellSpec,
        loads_ff: &[f64],
        slews_ps: &[f64],
        vdd: Volts,
    ) -> Self {
        assert!(
            !loads_ff.is_empty() && !slews_ps.is_empty(),
            "LUT axes must be non-empty"
        );
        assert!(
            loads_ff.windows(2).all(|w| w[0] < w[1]),
            "load axis must be strictly increasing"
        );
        assert!(
            slews_ps.windows(2).all(|w| w[0] < w[1]),
            "slew axis must be strictly increasing"
        );
        let mut profiles = Vec::with_capacity(loads_ff.len() * slews_ps.len());
        for &l in loads_ff {
            for &s in slews_ps {
                profiles.push(chr.characterize(
                    cell,
                    Femtofarads::new(l),
                    Picoseconds::new(s),
                    vdd,
                ));
            }
        }
        Self {
            cell: cell.name().to_owned(),
            vdd,
            loads: loads_ff.to_vec(),
            slews: slews_ps.to_vec(),
            profiles,
        }
    }

    /// The cell name the table characterizes.
    #[must_use]
    pub fn cell(&self) -> &str {
        &self.cell
    }

    /// The supply the table was built at.
    #[must_use]
    pub fn vdd(&self) -> Volts {
        self.vdd
    }

    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// `true` when the table holds no profiles (never after `build`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Bilinearly interpolated profile at an operating point
    /// (out-of-range queries clamp to the grid edge).
    #[must_use]
    pub fn lookup(&self, load: Femtofarads, slew: Picoseconds) -> CellProfile {
        let (li, lf) = bracket(&self.loads, load.value());
        let (si, sf) = bracket(&self.slews, slew.value());
        let li1 = (li + 1).min(self.loads.len() - 1);
        let si1 = (si + 1).min(self.slews.len() - 1);
        let at = |li: usize, si: usize| &self.profiles[li * self.slews.len() + si];
        let p00 = at(li, si);
        let p01 = at(li, si1);
        let p10 = at(li1, si);
        let p11 = at(li1, si1);
        let lo = blend(p00, p01, sf);
        let hi = blend(p10, p11, sf);
        blend(&lo, &hi, lf)
    }
}

/// Index + fraction of `x` within a sorted axis, clamped to the edges.
fn bracket(axis: &[f64], x: f64) -> (usize, f64) {
    if axis.len() == 1 {
        return (0, 0.0);
    }
    let hi = axis.partition_point(|&a| a <= x).clamp(1, axis.len() - 1);
    let lo = hi - 1;
    let span = axis[hi] - axis[lo];
    let frac = if span > 0.0 {
        ((x - axis[lo]) / span).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (lo, frac)
}

fn lerp(a: f64, b: f64, f: f64) -> f64 {
    a + (b - a) * f
}

/// Blends two current pulses after aligning each to the interpolated
/// switching delay `t`. Blending in raw absolute time smears the apex of
/// two time-shifted pulses (the peak error grows with the delay spread of
/// the bracketing grid points); aligning first keeps the peak error down
/// to the shape difference alone, while shifting preserves charge exactly.
fn blend_wave(a: &Waveform, b: &Waveform, f: f64, t_a: f64, t_b: f64, t: f64) -> Waveform {
    if f <= 0.0 {
        return a.clone();
    }
    if f >= 1.0 {
        return b.clone();
    }
    let a = a.shifted(Picoseconds::new(t - t_a));
    let b = b.shifted(Picoseconds::new(t - t_b));
    a.scaled(1.0 - f).plus(&b.scaled(f))
}

fn blend(a: &CellProfile, b: &CellProfile, f: f64) -> CellProfile {
    let t_d_rise = lerp(a.t_d_rise.value(), b.t_d_rise.value(), f);
    let t_d_fall = lerp(a.t_d_fall.value(), b.t_d_fall.value(), f);
    let (ra, rb) = (a.t_d_rise.value(), b.t_d_rise.value());
    let (fa, fb) = (a.t_d_fall.value(), b.t_d_fall.value());
    CellProfile {
        t_d_rise: Picoseconds::new(t_d_rise),
        t_d_fall: Picoseconds::new(t_d_fall),
        slew_rise: Picoseconds::new(lerp(a.slew_rise.value(), b.slew_rise.value(), f)),
        slew_fall: Picoseconds::new(lerp(a.slew_fall.value(), b.slew_fall.value(), f)),
        idd_rise: blend_wave(&a.idd_rise, &b.idd_rise, f, ra, rb, t_d_rise),
        iss_rise: blend_wave(&a.iss_rise, &b.iss_rise, f, ra, rb, t_d_rise),
        idd_fall: blend_wave(&a.idd_fall, &b.idd_fall, f, fa, fb, t_d_fall),
        iss_fall: blend_wave(&a.iss_fall, &b.iss_fall, f, fa, fb, t_d_fall),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellLibrary;

    fn lut() -> NoiseLut {
        let lib = CellLibrary::nangate45();
        NoiseLut::build(
            &Characterizer::default(),
            lib.get("BUF_X8").unwrap(),
            &[1.0, 3.0, 6.0, 12.0, 24.0],
            &[10.0, 20.0, 30.0, 50.0],
            Volts::new(1.1),
        )
    }

    #[test]
    fn grid_points_are_exact() {
        let lut = lut();
        let lib = CellLibrary::nangate45();
        let direct = Characterizer::default().characterize(
            lib.get("BUF_X8").unwrap(),
            Femtofarads::new(6.0),
            Picoseconds::new(20.0),
            Volts::new(1.1),
        );
        let looked = lut.lookup(Femtofarads::new(6.0), Picoseconds::new(20.0));
        assert_eq!(looked, direct);
    }

    #[test]
    fn interpolation_tracks_direct_characterization() {
        let lut = lut();
        let lib = CellLibrary::nangate45();
        let chr = Characterizer::default();
        for (load, slew) in [(2.0, 15.0), (4.5, 25.0), (9.0, 40.0), (18.0, 12.0)] {
            let direct = chr.characterize(
                lib.get("BUF_X8").unwrap(),
                Femtofarads::new(load),
                Picoseconds::new(slew),
                Volts::new(1.1),
            );
            let looked = lut.lookup(Femtofarads::new(load), Picoseconds::new(slew));
            let delay_err =
                (looked.t_d_rise.value() - direct.t_d_rise.value()).abs() / direct.t_d_rise.value();
            assert!(
                delay_err < 0.05,
                "delay err {delay_err} at ({load}, {slew})"
            );
            // Blending two time-shifted pulses smears the apex, so the
            // peak error exceeds the delay error (inherent to the paper's
            // interpolation scheme as well).
            let peak_err =
                (looked.p_plus().value() - direct.p_plus().value()).abs() / direct.p_plus().value();
            assert!(peak_err < 0.25, "peak err {peak_err} at ({load}, {slew})");
        }
    }

    #[test]
    fn out_of_range_clamps() {
        let lut = lut();
        let low = lut.lookup(Femtofarads::new(0.1), Picoseconds::new(1.0));
        let corner = lut.lookup(Femtofarads::new(1.0), Picoseconds::new(10.0));
        assert_eq!(low, corner);
        let high = lut.lookup(Femtofarads::new(100.0), Picoseconds::new(500.0));
        let hc = lut.lookup(Femtofarads::new(24.0), Picoseconds::new(50.0));
        assert_eq!(high, hc);
    }

    #[test]
    fn interpolated_values_are_monotone_in_load() {
        let lut = lut();
        let mut prev = 0.0;
        for load in [1.0, 2.0, 4.0, 8.0, 16.0, 24.0] {
            let p = lut.lookup(Femtofarads::new(load), Picoseconds::new(20.0));
            assert!(p.t_d_rise.value() >= prev, "delay not monotone at {load}");
            prev = p.t_d_rise.value();
        }
    }

    #[test]
    fn charge_interpolates_linearly() {
        // Between two grid loads the blended waveform's charge is the
        // exact linear interpolation of the grid charges.
        let lut = lut();
        let a = lut.lookup(Femtofarads::new(3.0), Picoseconds::new(20.0));
        let b = lut.lookup(Femtofarads::new(6.0), Picoseconds::new(20.0));
        let mid = lut.lookup(Femtofarads::new(4.5), Picoseconds::new(20.0));
        let expect = 0.5 * (a.idd_rise.charge_fc() + b.idd_rise.charge_fc());
        assert!((mid.idd_rise.charge_fc() - expect).abs() < 1e-9);
    }

    #[test]
    fn single_point_axes_work() {
        let lib = CellLibrary::nangate45();
        let lut = NoiseLut::build(
            &Characterizer::default(),
            lib.get("INV_X4").unwrap(),
            &[5.0],
            &[20.0],
            Volts::new(1.1),
        );
        assert_eq!(lut.len(), 1);
        let p = lut.lookup(Femtofarads::new(50.0), Picoseconds::new(5.0));
        assert!(p.p_plus().value() > 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_axis_rejected() {
        let lib = CellLibrary::nangate45();
        let _ = NoiseLut::build(
            &Characterizer::default(),
            lib.get("BUF_X1").unwrap(),
            &[5.0, 3.0],
            &[20.0],
            Volts::new(1.1),
        );
    }
}
