//! Analytic cell characterization: the HSPICE substitute.
//!
//! The paper characterizes every `(cell, sink)` combination with HSPICE
//! (Fig. 7): a clock pulse is applied to the input and the `I_DD`/`I_SS`
//! current waveforms plus the propagation delay `T_D` are recorded. Here the
//! same interface is provided by an analytic CMOS model:
//!
//! * A cell is a chain of inverting stages ([`crate::CellSpec::stage_drives`]).
//! * When a stage's output **rises**, the stage charges its load from VDD:
//!   a main `I_DD` pulse plus a small crossover `I_SS` pulse. A **falling**
//!   output discharges to ground: main `I_SS`, crossover `I_DD`.
//! * Each pulse is an asymmetric triangle whose area equals the switched
//!   charge `Q = C·V` and whose width follows the stage RC product and the
//!   input slew, so larger drives give taller, narrower pulses.
//! * Supply scaling follows [`crate::SupplyModel`].
//!
//! The absolute magnitudes land in the paper's published ranges by
//! construction (see the anchor tests at the bottom of this file).

use crate::spec::CellSpec;
use crate::supply::SupplyModel;
use crate::units::{Femtofarads, MicroAmps, Ohms, Picoseconds, Volts};
use crate::waveform::Waveform;
use serde::{Deserialize, Serialize};

/// A supply rail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rail {
    /// The VDD (power) rail: `I_DD` flows here.
    Vdd,
    /// The ground rail: `I_SS` flows here.
    Gnd,
}

/// A clock edge at the cell input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClockEdge {
    /// Rising input edge.
    Rise,
    /// Falling input edge.
    Fall,
}

impl ClockEdge {
    /// Both edges, in rise-then-fall order.
    pub const BOTH: [ClockEdge; 2] = [ClockEdge::Rise, ClockEdge::Fall];
}

/// The dynamic behaviour of one cell under one operating point
/// (load, input slew, supply): delays, output slews and the four current
/// waveforms, with time measured from the input edge (50 % crossing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellProfile {
    /// Propagation delay for a rising input edge.
    pub t_d_rise: Picoseconds,
    /// Propagation delay for a falling input edge.
    pub t_d_fall: Picoseconds,
    /// Output slew (20–80 %) after a rising input edge.
    pub slew_rise: Picoseconds,
    /// Output slew (20–80 %) after a falling input edge.
    pub slew_fall: Picoseconds,
    /// `I_DD` during a rising-input event.
    pub idd_rise: Waveform,
    /// `I_SS` during a rising-input event.
    pub iss_rise: Waveform,
    /// `I_DD` during a falling-input event.
    pub idd_fall: Waveform,
    /// `I_SS` during a falling-input event.
    pub iss_fall: Waveform,
}

impl CellProfile {
    /// The current waveform on `rail` for an input `edge` event.
    #[must_use]
    pub fn waveform(&self, rail: Rail, edge: ClockEdge) -> &Waveform {
        match (rail, edge) {
            (Rail::Vdd, ClockEdge::Rise) => &self.idd_rise,
            (Rail::Gnd, ClockEdge::Rise) => &self.iss_rise,
            (Rail::Vdd, ClockEdge::Fall) => &self.idd_fall,
            (Rail::Gnd, ClockEdge::Fall) => &self.iss_fall,
        }
    }

    /// The propagation delay for an input `edge`.
    #[must_use]
    pub fn delay(&self, edge: ClockEdge) -> Picoseconds {
        match edge {
            ClockEdge::Rise => self.t_d_rise,
            ClockEdge::Fall => self.t_d_fall,
        }
    }

    /// The worse (larger) of the two propagation delays.
    #[must_use]
    pub fn delay_max(&self) -> Picoseconds {
        self.t_d_rise.max(self.t_d_fall)
    }

    /// The average of the two propagation delays — the single `T_D` the
    /// paper tables report.
    #[must_use]
    pub fn delay_avg(&self) -> Picoseconds {
        (self.t_d_rise + self.t_d_fall) / 2.0
    }

    /// Peak `I_DD` at the rising edge — the `P+` of the paper's tables.
    #[must_use]
    pub fn p_plus(&self) -> MicroAmps {
        self.idd_rise.peak()
    }

    /// Peak `I_DD` at the falling edge — the `P−` of the paper's tables.
    #[must_use]
    pub fn p_minus(&self) -> MicroAmps {
        self.idd_fall.peak()
    }

    /// Returns the profile with every waveform delayed by `dt` and the
    /// propagation delays increased accordingly (models an ADB/ADI delay
    /// code).
    #[must_use]
    pub fn delayed(&self, dt: Picoseconds) -> Self {
        Self {
            t_d_rise: self.t_d_rise + dt,
            t_d_fall: self.t_d_fall + dt,
            slew_rise: self.slew_rise,
            slew_fall: self.slew_fall,
            idd_rise: self.idd_rise.shifted(dt),
            iss_rise: self.iss_rise.shifted(dt),
            idd_fall: self.idd_fall.shifted(dt),
            iss_fall: self.iss_fall.shifted(dt),
        }
    }
}

/// Analytic characterizer (see the module docs for the model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Characterizer {
    supply: SupplyModel,
    /// Unit output resistance of a drive-1 inverter stage.
    r_unit: Ohms,
    /// Input capacitance per unit drive of an internal inverter stage.
    c_stage_per_drive: Femtofarads,
    /// Pulse width = `width_factor × 0.69·R·C + slew_fraction × slew_in`.
    width_factor: f64,
    /// Contribution of the input slew to the pulse width.
    slew_fraction: f64,
    /// Position of the pulse apex within the pulse width (0..1).
    asymmetry: f64,
    /// Penalty factor for rising outputs (PMOS weaker than NMOS).
    rise_penalty: f64,
    /// Extra capacitor-bank load inside ADB/ADI cells.
    c_bank: Femtofarads,
    /// Saturation current per unit drive: a stage of drive `k` can deliver
    /// at most `k × sat_per_drive` (velocity saturation); charge beyond
    /// that flows in a wider pulse.
    sat_per_drive: MicroAmps,
}

impl Default for Characterizer {
    fn default() -> Self {
        Self {
            supply: SupplyModel::default(),
            r_unit: Ohms::new(6361.6),
            c_stage_per_drive: Femtofarads::new(0.275),
            width_factor: 1.2,
            slew_fraction: 0.25,
            asymmetry: 0.35,
            rise_penalty: 1.12,
            c_bank: Femtofarads::new(2.0),
            sat_per_drive: MicroAmps::new(120.0),
        }
    }
}

/// One stage of the inverting chain, as [`Characterizer::stages`] hands
/// it to its visitor: everything the pulse model needs beyond the delay
/// and slew arithmetic.
struct Stage {
    /// When the stage's input crosses 50 %, from the cell input edge.
    start: Picoseconds,
    drive: u32,
    output_rising: bool,
    /// Gate plus diffusion load the stage switches.
    c_total: Femtofarads,
    rc: Picoseconds,
    /// Input slew of this stage.
    slew_in: Picoseconds,
}

impl Characterizer {
    /// Creates a characterizer with a custom supply model.
    #[must_use]
    pub fn with_supply(supply: SupplyModel) -> Self {
        Self {
            supply,
            ..Self::default()
        }
    }

    /// The supply model in use.
    #[must_use]
    pub fn supply(&self) -> &SupplyModel {
        &self.supply
    }

    /// Overrides the per-drive saturation current (use a very large value
    /// to study the unclamped RC-limited regime).
    #[must_use]
    pub fn with_saturation(mut self, per_drive: MicroAmps) -> Self {
        self.sat_per_drive = per_drive;
        self
    }

    /// Characterizes `cell` driving `load` with input slew `slew_in` at
    /// supply `vdd` (Fig. 7 of the paper, without the SPICE deck).
    #[must_use]
    pub fn characterize(
        &self,
        cell: &CellSpec,
        load: Femtofarads,
        slew_in: Picoseconds,
        vdd: Volts,
    ) -> CellProfile {
        let rise = self.event(cell, load, slew_in, vdd, ClockEdge::Rise);
        let fall = self.event(cell, load, slew_in, vdd, ClockEdge::Fall);
        CellProfile {
            t_d_rise: rise.0,
            t_d_fall: fall.0,
            slew_rise: rise.1,
            slew_fall: fall.1,
            idd_rise: rise.2,
            iss_rise: rise.3,
            idd_fall: fall.2,
            iss_fall: fall.3,
        }
    }

    /// Computes only the propagation delay and output slew for one input
    /// edge, skipping waveform construction.
    ///
    /// This is the fast path used by tree timing analysis, where thousands
    /// of (cell, load) evaluations are needed but no current data. It runs
    /// the same stage arithmetic as [`characterize`](Self::characterize),
    /// so the two agree bit for bit.
    #[must_use]
    pub fn timing(
        &self,
        cell: &CellSpec,
        load: Femtofarads,
        slew_in: Picoseconds,
        vdd: Volts,
        edge: ClockEdge,
    ) -> (Picoseconds, Picoseconds) {
        self.stages(cell, load, slew_in, vdd, edge, |_| {})
    }

    /// Walks one input-edge event through the stage chain, handing each
    /// stage to `visit`, and returns `(T_D, slew_out)`.
    fn stages(
        &self,
        cell: &CellSpec,
        load: Femtofarads,
        slew_in: Picoseconds,
        vdd: Volts,
        edge: ClockEdge,
        mut visit: impl FnMut(&Stage),
    ) -> (Picoseconds, Picoseconds) {
        let drives = cell.stage_drives();
        let n = drives.len();
        let d_factor = self.supply.delay_factor(vdd);

        let mut t_cursor = Picoseconds::ZERO;
        let mut slew = slew_in;
        // The signal direction at the *output* of each stage: the chain
        // input follows `edge`, and every stage inverts.
        let mut input_rising = matches!(edge, ClockEdge::Rise);

        for (idx, &drive) in drives.iter().enumerate() {
            let output_rising = !input_rising;
            // Stage load: the next stage's gate cap (plus the capacitor bank
            // for adjustable cells), or the external load at the last stage.
            let c_next = if idx + 1 < n {
                let mut c = self.c_stage_per_drive * drives[idx + 1] as f64;
                if cell.kind().is_adjustable() && idx == 0 {
                    c += self.c_bank;
                }
                c
            } else {
                load
            };
            let c_total = c_next + Femtofarads::new(0.35 * drive as f64);
            let r_stage = self.r_unit / drive as f64;
            let rc = r_stage * c_total;

            // Edge-dependent drive asymmetry: PMOS (rising output) weaker.
            let edge_mult = if output_rising {
                self.rise_penalty
            } else {
                1.0
            };
            let t_stage =
                (cell.t_intrinsic() / n as f64 + 0.69 * rc * edge_mult) * d_factor + slew * 0.1;
            // PERI-style slew propagation: the stage's own RC dominates but
            // a sharper input edge still sharpens the output.
            let intrinsic_slew = (2.2 * rc * edge_mult) * d_factor;
            let stage_slew = Picoseconds::new(intrinsic_slew.value().hypot(0.45 * slew.value()));

            visit(&Stage {
                start: t_cursor,
                drive,
                output_rising,
                c_total,
                rc,
                slew_in: slew,
            });

            t_cursor += t_stage;
            slew = stage_slew;
            input_rising = output_rising;
        }
        (t_cursor, slew)
    }

    /// Simulates one input-edge event through the stage chain.
    ///
    /// Returns `(T_D, slew_out, I_DD, I_SS)`.
    fn event(
        &self,
        cell: &CellSpec,
        load: Femtofarads,
        slew_in: Picoseconds,
        vdd: Volts,
        edge: ClockEdge,
    ) -> (Picoseconds, Picoseconds, Waveform, Waveform) {
        let i_factor = self.supply.current_factor(vdd);
        let q_factor = self.supply.charge_factor(vdd);
        let mut idd = Waveform::zero();
        let mut iss = Waveform::zero();
        let (t_d, slew) = self.stages(cell, load, slew_in, vdd, edge, |st| {
            // Pulse on the rail this stage switches against.
            let q_ref = st.c_total.value() * self.supply.v_ref().value(); // fC at V_ref
            let width_ref = self.width_factor.mul_add(
                0.69 * st.rc.value(),
                self.slew_fraction * st.slew_in.value(),
            );
            // Current flows for at least the input transition time.
            let width_ref = width_ref.max(st.slew_in.value()).max(1.0);
            // Triangle area = Q: I_pk = 2Q/w, with µA·ps = 1e-3 fC.
            // Charging (rising-output) pulses peak slightly higher — the
            // paper's characterization (Tables I/II) shows I_DD peaks
            // above I_SS for buffers.
            let pulse_mult = if st.output_rising { 1.10 } else { 0.92 };
            let i_pk_ref = 2000.0 * q_ref / width_ref;
            let i_sat = self.sat_per_drive.value() * st.drive as f64 * pulse_mult;
            let i_pk = (i_pk_ref * pulse_mult).min(i_sat) * i_factor;
            // Charge conservation at the actual supply fixes the width.
            let q = q_ref * q_factor;
            let width = Picoseconds::new((2000.0 * q / i_pk).max(0.5));

            let apex = st.start + width * self.asymmetry;
            let end = st.start + width;
            let main = Waveform::triangle(st.start, apex, end, MicroAmps::new(i_pk));
            let cross = main.scaled(cell.crossover());
            if st.output_rising {
                idd = idd.plus(&main);
                iss = iss.plus(&cross);
            } else {
                iss = iss.plus(&main);
                idd = idd.plus(&cross);
            }
        });
        (t_d, slew, idd, iss)
    }

    /// The total load a cell presents at its input (used by tree delay
    /// computations): simply `C_in` of the spec.
    #[must_use]
    pub fn input_load(&self, cell: &CellSpec) -> Femtofarads {
        cell.c_in()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellLibrary;

    fn chr() -> Characterizer {
        Characterizer::default()
    }

    fn std_profile(name: &str) -> CellProfile {
        let lib = CellLibrary::nangate45();
        chr().characterize(
            lib.get(name).unwrap(),
            Femtofarads::new(6.0),
            Picoseconds::new(20.0),
            Volts::new(1.1),
        )
    }

    #[test]
    fn buffer_charges_on_rise() {
        let p = std_profile("BUF_X2");
        // Fig. 1(a): buffers draw high I_DD at the rising edge. The small
        // first stage draws some opposite current, so the margin is
        // bounded by the two-stage structure.
        assert!(p.idd_rise.peak().value() > 1.5 * p.iss_rise.peak().value());
        assert!(p.iss_fall.peak().value() > 1.5 * p.idd_fall.peak().value());
    }

    #[test]
    fn inverter_charges_on_fall() {
        let p = std_profile("INV_X2");
        // Fig. 1(b): inverters draw high I_DD at the falling edge.
        assert!(p.idd_fall.peak().value() > 2.0 * p.iss_fall.peak().value());
        assert!(p.iss_rise.peak().value() > 2.0 * p.idd_rise.peak().value());
    }

    #[test]
    fn bigger_drive_is_faster_and_noisier() {
        let p1 = std_profile("BUF_X1");
        let p2 = std_profile("BUF_X2");
        assert!(p2.delay_avg() < p1.delay_avg());
        assert!(p2.p_plus() > p1.p_plus());
    }

    #[test]
    fn inverter_is_faster_than_buffer_of_same_drive() {
        // Table II: INV_X2 delay 17 < BUF_X2 delay 19.
        let b = std_profile("BUF_X2");
        let i = std_profile("INV_X2");
        assert!(i.delay_avg() < b.delay_avg());
    }

    #[test]
    fn delays_land_in_paper_range() {
        // Table II lists 17–24 ps for X1/X2 cells at 1.1 V under light load.
        for name in ["BUF_X1", "BUF_X2", "INV_X1", "INV_X2"] {
            let d = std_profile(name).delay_avg().value();
            assert!(
                (8.0..80.0).contains(&d),
                "{name} delay {d} ps out of plausible range"
            );
        }
    }

    #[test]
    fn peaks_land_in_paper_range() {
        // Table II lists P+ of 130–255 µA for X1/X2 cells.
        for name in ["BUF_X1", "BUF_X2", "INV_X1", "INV_X2"] {
            let p = std_profile(name);
            let peak = p.p_plus().max(p.p_minus()).value();
            assert!(
                (30.0..2000.0).contains(&peak),
                "{name} peak {peak} µA out of plausible range"
            );
        }
    }

    #[test]
    fn crossover_ratio_matches_table2() {
        // Table II: P− ≈ 10 % of P+ for buffers.
        let p = std_profile("BUF_X2");
        let ratio = p.p_minus().value() / p.p_plus().value();
        assert!((0.02..0.6).contains(&ratio), "crossover ratio {ratio}");
    }

    #[test]
    fn lower_vdd_slower_and_weaker() {
        let lib = CellLibrary::nangate45();
        let cell = lib.get("BUF_X2").unwrap();
        let hi = chr().characterize(
            cell,
            Femtofarads::new(6.0),
            Picoseconds::new(20.0),
            Volts::new(1.1),
        );
        let lo = chr().characterize(
            cell,
            Femtofarads::new(6.0),
            Picoseconds::new(20.0),
            Volts::new(0.9),
        );
        assert!(lo.delay_avg() > hi.delay_avg());
        assert!(lo.p_plus() < hi.p_plus());
        // Table III shape: peak shrinks by less than 20 %.
        let ratio = lo.p_plus().value() / hi.p_plus().value();
        assert!((0.8..1.0).contains(&ratio), "peak ratio {ratio}");
    }

    #[test]
    fn charge_is_conserved_across_supply() {
        let lib = CellLibrary::nangate45();
        let cell = lib.get("INV_X4").unwrap();
        let hi = chr().characterize(
            cell,
            Femtofarads::new(6.0),
            Picoseconds::new(20.0),
            Volts::new(1.1),
        );
        let lo = chr().characterize(
            cell,
            Femtofarads::new(6.0),
            Picoseconds::new(20.0),
            Volts::new(0.9),
        );
        // Main-rail charge should scale roughly like the supply swing.
        let expect = 0.9 / 1.1;
        let got = lo.idd_fall.charge_fc() / hi.idd_fall.charge_fc();
        assert!(
            (got - expect).abs() < 0.05,
            "charge ratio {got} vs supply ratio {expect}"
        );
    }

    #[test]
    fn heavier_load_slows_and_widens() {
        let lib = CellLibrary::nangate45();
        let cell = lib.get("BUF_X4").unwrap();
        let light = chr().characterize(
            cell,
            Femtofarads::new(2.0),
            Picoseconds::new(20.0),
            Volts::new(1.1),
        );
        let heavy = chr().characterize(
            cell,
            Femtofarads::new(20.0),
            Picoseconds::new(20.0),
            Volts::new(1.1),
        );
        assert!(heavy.delay_avg() > light.delay_avg());
        assert!(heavy.slew_rise > light.slew_rise);
        assert!(heavy.idd_rise.charge_fc() > light.idd_rise.charge_fc());
    }

    #[test]
    fn buffer_waveform_has_two_humps() {
        // Stage 1 of a buffer discharges (I_SS) before stage 2 charges
        // (I_DD): the I_SS pulse should start earlier than the I_DD apex.
        let p = std_profile("BUF_X8");
        let iss_start = p.iss_rise.support().unwrap().0;
        let idd_apex = p.idd_rise.peak_time().unwrap();
        assert!(iss_start < idd_apex);
    }

    #[test]
    fn adjustable_cells_are_slower() {
        let lib = CellLibrary::nangate45();
        let chrz = chr();
        let args = (
            Femtofarads::new(6.0),
            Picoseconds::new(20.0),
            Volts::new(1.1),
        );
        let buf = chrz.characterize(lib.get("BUF_X8").unwrap(), args.0, args.1, args.2);
        let adb = chrz.characterize(lib.get("ADB_X8").unwrap(), args.0, args.1, args.2);
        let adi = chrz.characterize(lib.get("ADI_X8").unwrap(), args.0, args.1, args.2);
        assert!(adb.delay_avg() > buf.delay_avg());
        // Section VII-E: ADIs have longer delay than ADBs (3 stages).
        assert!(adi.delay_avg() > adb.delay_avg());
    }

    #[test]
    fn adi_has_inverter_polarity() {
        let lib = CellLibrary::nangate45();
        let p = chr().characterize(
            lib.get("ADI_X8").unwrap(),
            Femtofarads::new(6.0),
            Picoseconds::new(20.0),
            Volts::new(1.1),
        );
        // Odd number of stages: charges from VDD at the falling clock edge.
        assert!(p.idd_fall.peak() > p.idd_rise.peak());
    }

    #[test]
    fn delayed_profile_shifts_everything() {
        let p = std_profile("ADB_X8");
        let d = p.delayed(Picoseconds::new(10.0));
        assert_eq!(d.t_d_rise, p.t_d_rise + Picoseconds::new(10.0));
        assert_eq!(
            d.idd_rise.peak_time().unwrap(),
            p.idd_rise.peak_time().unwrap() + Picoseconds::new(10.0)
        );
        assert_eq!(d.idd_rise.peak(), p.idd_rise.peak());
    }

    #[test]
    fn waveform_accessor_maps_rails() {
        let p = std_profile("BUF_X2");
        assert_eq!(p.waveform(Rail::Vdd, ClockEdge::Rise), &p.idd_rise);
        assert_eq!(p.waveform(Rail::Gnd, ClockEdge::Fall), &p.iss_fall);
        assert_eq!(p.delay(ClockEdge::Rise), p.t_d_rise);
        assert_eq!(p.delay(ClockEdge::Fall), p.t_d_fall);
    }

    #[test]
    fn zero_load_still_produces_finite_profile() {
        let lib = CellLibrary::nangate45();
        let p = chr().characterize(
            lib.get("INV_X1").unwrap(),
            Femtofarads::ZERO,
            Picoseconds::new(20.0),
            Volts::new(1.1),
        );
        assert!(p.t_d_rise.is_finite() && p.t_d_rise.value() > 0.0);
        assert!(p.idd_fall.peak().value() > 0.0, "parasitics still switch");
    }

    #[test]
    fn enormous_load_saturates_peak_but_not_charge() {
        let lib = CellLibrary::nangate45();
        let cell = lib.get("BUF_X4").unwrap();
        let small = chr().characterize(
            cell,
            Femtofarads::new(10.0),
            Picoseconds::new(20.0),
            Volts::new(1.1),
        );
        let big = chr().characterize(
            cell,
            Femtofarads::new(500.0),
            Picoseconds::new(20.0),
            Volts::new(1.1),
        );
        // Saturation clamp: the peak stops growing...
        assert!(big.p_plus().value() <= small.p_plus().value() * 1.6);
        // ...but the switched charge keeps tracking the load.
        assert!(big.idd_rise.charge_fc() > 10.0 * small.idd_rise.charge_fc());
    }

    #[test]
    fn both_edges_enumerate_rise_then_fall() {
        assert_eq!(ClockEdge::BOTH, [ClockEdge::Rise, ClockEdge::Fall]);
    }

    #[test]
    fn timing_fast_path_matches_full_characterization() {
        let lib = CellLibrary::nangate45();
        let cell = lib.get("BUF_X8").unwrap();
        let full = chr().characterize(
            cell,
            Femtofarads::new(6.0),
            Picoseconds::new(25.0),
            Volts::new(1.1),
        );
        let (t, s) = chr().timing(
            cell,
            Femtofarads::new(6.0),
            Picoseconds::new(25.0),
            Volts::new(1.1),
            ClockEdge::Rise,
        );
        assert_eq!(t, full.t_d_rise);
        assert_eq!(s, full.slew_rise);
    }

    #[test]
    fn sharper_input_slew_gives_higher_peak() {
        // Section IV-B: profiling uses a slightly sharper slew to obtain a
        // noise upper bound. The property concerns the RC/slew-limited
        // regime, so saturation is lifted for this check.
        let lib = CellLibrary::nangate45();
        let cell = lib.get("BUF_X4").unwrap();
        let chrz = chr().with_saturation(MicroAmps::new(1e9));
        let sharp = chrz.characterize(
            cell,
            Femtofarads::new(6.0),
            Picoseconds::new(10.0),
            Volts::new(1.1),
        );
        let slow = chrz.characterize(
            cell,
            Femtofarads::new(6.0),
            Picoseconds::new(40.0),
            Volts::new(1.1),
        );
        assert!(sharp.p_plus() > slow.p_plus());
        // Under saturation the peaks clamp equal instead.
        let clamped_sharp = chr().characterize(
            cell,
            Femtofarads::new(6.0),
            Picoseconds::new(10.0),
            Volts::new(1.1),
        );
        let clamped_slow = chr().characterize(
            cell,
            Femtofarads::new(6.0),
            Picoseconds::new(40.0),
            Volts::new(1.1),
        );
        assert!(clamped_sharp.p_plus() >= clamped_slow.p_plus() * 0.98);
    }
}
