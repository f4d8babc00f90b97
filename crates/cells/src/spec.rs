//! Static cell descriptions.

use crate::kind::{CellKind, Polarity};
use crate::units::{Femtofarads, Ohms, Picoseconds};
use serde::Serialize;
use std::fmt;

/// A static description of a clock buffering cell (the datasheet view).
///
/// A `CellSpec` holds only technology parameters; the dynamic behaviour
/// (delay, slew, current waveforms under a concrete load / slew / supply) is
/// produced by [`crate::Characterizer`].
///
/// # Example
///
/// ```
/// use wavemin_cells::{CellKind, CellSpec};
/// use wavemin_cells::units::*;
///
/// let cell = CellSpec::builder("BUF_X4", CellKind::Buffer, 4)
///     .r_out(Ohms::new(1590.4))
///     .c_in(Femtofarads::new(1.0))
///     .build();
/// assert_eq!(cell.drive(), 4);
/// assert!(!cell.is_adjustable());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellSpec {
    name: String,
    kind: CellKind,
    drive: u32,
    r_out: Ohms,
    c_in: Femtofarads,
    c_par: Femtofarads,
    t_intrinsic: Picoseconds,
    crossover: f64,
    delay_range: Picoseconds,
    delay_steps: u32,
}

impl CellSpec {
    /// Starts building a cell with the given name, kind and drive strength.
    pub fn builder(name: impl Into<String>, kind: CellKind, drive: u32) -> CellSpecBuilder {
        CellSpecBuilder {
            spec: CellSpec {
                name: name.into(),
                kind,
                drive: drive.max(1),
                r_out: Ohms::new(6361.6 / drive.max(1) as f64),
                c_in: Femtofarads::new(0.25 * drive.max(1) as f64),
                c_par: Femtofarads::new(0.35 * drive.max(1) as f64),
                t_intrinsic: Picoseconds::new(match kind {
                    CellKind::Inverter => 4.0,
                    CellKind::Buffer => 6.0,
                    CellKind::Adb => 11.0,
                    CellKind::Adi => 15.0,
                }),
                crossover: 0.10,
                delay_range: if kind.is_adjustable() {
                    Picoseconds::new(30.0)
                } else {
                    Picoseconds::ZERO
                },
                delay_steps: if kind.is_adjustable() { 12 } else { 0 },
            },
        }
    }

    /// The cell's library name (e.g. `"BUF_X4"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The functional kind (buffer / inverter / ADB / ADI).
    #[must_use]
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The output polarity the cell assigns to its fanout.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.kind.polarity()
    }

    /// The drive strength multiplier (the `X` in `BUF_X4`).
    #[must_use]
    pub fn drive(&self) -> u32 {
        self.drive
    }

    /// Output resistance of the final stage at the reference supply.
    #[must_use]
    pub fn r_out(&self) -> Ohms {
        self.r_out
    }

    /// Input pin capacitance.
    #[must_use]
    pub fn c_in(&self) -> Femtofarads {
        self.c_in
    }

    /// Output parasitic (self-load) capacitance.
    #[must_use]
    pub fn c_par(&self) -> Femtofarads {
        self.c_par
    }

    /// Load-independent part of the propagation delay.
    #[must_use]
    pub fn t_intrinsic(&self) -> Picoseconds {
        self.t_intrinsic
    }

    /// Fraction of the main-rail peak that leaks onto the opposite rail
    /// (crossover / short-circuit current).
    #[must_use]
    pub fn crossover(&self) -> f64 {
        self.crossover
    }

    /// Total adjustable-delay range (zero for plain buffers/inverters).
    #[must_use]
    pub fn delay_range(&self) -> Picoseconds {
        self.delay_range
    }

    /// Number of discrete delay steps of an adjustable cell.
    #[must_use]
    pub fn delay_steps(&self) -> u32 {
        self.delay_steps
    }

    /// `true` for ADB/ADI cells.
    #[must_use]
    pub fn is_adjustable(&self) -> bool {
        self.kind.is_adjustable()
    }

    /// The delay added by adjustable-delay code `step` (0 = minimum delay).
    ///
    /// Returns zero for non-adjustable cells and clamps `step` to the last
    /// available code.
    #[must_use]
    pub fn delay_at_step(&self, step: u32) -> Picoseconds {
        if self.delay_steps == 0 {
            return Picoseconds::ZERO;
        }
        let step = step.min(self.delay_steps);
        self.delay_range * (step as f64 / self.delay_steps as f64)
    }

    /// Per-stage drive strengths from input to output.
    ///
    /// A buffer is an unequally sized inverter chain (small first stage);
    /// the paper's ADI (Fig. 4) is a three-inverter chain whose first stage
    /// is the minimum feature size.
    #[must_use]
    pub fn stage_drives(&self) -> StageDrives {
        let half = (self.drive / 2).max(1);
        let (drives, len) = match self.kind {
            CellKind::Inverter => ([self.drive, 0, 0], 1),
            CellKind::Buffer | CellKind::Adb => ([half, self.drive, 0], 2),
            CellKind::Adi => ([1, half, self.drive], 3),
        };
        StageDrives { drives, len }
    }
}

/// A cell's per-stage drive strengths, held inline (a cell has at most
/// three stages) so the timing hot path allocates nothing. Derefs to the
/// `[u32]` slice of drives, input stage first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDrives {
    drives: [u32; 3],
    len: usize,
}

impl std::ops::Deref for StageDrives {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.drives[..self.len]
    }
}

impl fmt::Display for CellSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Builder for [`CellSpec`]; every parameter has a technology-plausible
/// default derived from the kind and drive strength.
#[derive(Debug, Clone)]
pub struct CellSpecBuilder {
    spec: CellSpec,
}

impl CellSpecBuilder {
    /// Sets the final-stage output resistance.
    #[must_use]
    pub fn r_out(mut self, r: Ohms) -> Self {
        self.spec.r_out = r;
        self
    }

    /// Sets the input pin capacitance.
    #[must_use]
    pub fn c_in(mut self, c: Femtofarads) -> Self {
        self.spec.c_in = c;
        self
    }

    /// Sets the output parasitic capacitance.
    #[must_use]
    pub fn c_par(mut self, c: Femtofarads) -> Self {
        self.spec.c_par = c;
        self
    }

    /// Sets the load-independent delay component.
    #[must_use]
    pub fn t_intrinsic(mut self, t: Picoseconds) -> Self {
        self.spec.t_intrinsic = t;
        self
    }

    /// Sets the opposite-rail crossover fraction (clamped to `[0, 1]`).
    #[must_use]
    pub fn crossover(mut self, frac: f64) -> Self {
        self.spec.crossover = frac.clamp(0.0, 1.0);
        self
    }

    /// Sets the adjustable-delay range and step count (ADB/ADI only).
    #[must_use]
    pub fn adjustable(mut self, range: Picoseconds, steps: u32) -> Self {
        self.spec.delay_range = range;
        self.spec.delay_steps = steps;
        self
    }

    /// Finalizes the spec.
    #[must_use]
    pub fn build(self) -> CellSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_scale_with_drive() {
        let x1 = CellSpec::builder("BUF_X1", CellKind::Buffer, 1).build();
        let x16 = CellSpec::builder("BUF_X16", CellKind::Buffer, 16).build();
        assert!((x16.r_out().value() - 397.6).abs() < 1e-6);
        assert!(x1.r_out() > x16.r_out());
        assert!(x16.c_in() > x1.c_in());
    }

    #[test]
    fn paper_anchor_points() {
        // Paper: BUF_X4 has C_in = 1 fF; BUF_X16 has R_out = 397.6 ohm.
        let b4 = CellSpec::builder("BUF_X4", CellKind::Buffer, 4).build();
        assert!((b4.c_in().value() - 1.0).abs() < 1e-9);
        let b16 = CellSpec::builder("BUF_X16", CellKind::Buffer, 16).build();
        assert!((b16.r_out().value() - 397.6).abs() < 1e-6);
    }

    #[test]
    fn drive_zero_is_clamped() {
        let c = CellSpec::builder("X", CellKind::Inverter, 0).build();
        assert_eq!(c.drive(), 1);
        assert!(c.r_out().is_finite());
    }

    #[test]
    fn adjustable_delay_steps() {
        let adb = CellSpec::builder("ADB_X4", CellKind::Adb, 4)
            .adjustable(Picoseconds::new(16.0), 8)
            .build();
        assert_eq!(adb.delay_at_step(0), Picoseconds::ZERO);
        assert_eq!(adb.delay_at_step(4), Picoseconds::new(8.0));
        assert_eq!(adb.delay_at_step(8), Picoseconds::new(16.0));
        // Steps beyond the range clamp.
        assert_eq!(adb.delay_at_step(99), Picoseconds::new(16.0));
    }

    #[test]
    fn non_adjustable_has_zero_delay_range() {
        let buf = CellSpec::builder("BUF_X2", CellKind::Buffer, 2).build();
        assert_eq!(buf.delay_at_step(5), Picoseconds::ZERO);
        assert!(!buf.is_adjustable());
    }

    #[test]
    fn stage_drives_reflect_topology() {
        let inv = CellSpec::builder("INV_X8", CellKind::Inverter, 8).build();
        assert_eq!(*inv.stage_drives(), [8]);
        let buf = CellSpec::builder("BUF_X8", CellKind::Buffer, 8).build();
        assert_eq!(*buf.stage_drives(), [4, 8]);
        let adi = CellSpec::builder("ADI_X8", CellKind::Adi, 8).build();
        assert_eq!(*adi.stage_drives(), [1, 4, 8]);
        // ADI first stage is minimum size regardless of drive (paper Sec. VII-E).
        let adi_big = CellSpec::builder("ADI_X32", CellKind::Adi, 32).build();
        assert_eq!(adi_big.stage_drives()[0], 1);
    }

    #[test]
    fn adi_is_slower_than_adb() {
        let adb = CellSpec::builder("ADB_X4", CellKind::Adb, 4).build();
        let adi = CellSpec::builder("ADI_X4", CellKind::Adi, 4).build();
        assert!(adi.t_intrinsic() > adb.t_intrinsic());
    }

    #[test]
    fn crossover_is_clamped() {
        let c = CellSpec::builder("X", CellKind::Buffer, 1)
            .crossover(2.0)
            .build();
        assert_eq!(c.crossover(), 1.0);
    }
}
