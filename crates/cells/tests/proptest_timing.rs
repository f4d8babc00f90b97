//! The waveform-free timing path must agree bit for bit with full
//! characterization: `Characterizer::timing` returns exactly the delay and
//! output slew that `Characterizer::characterize` records for the same
//! edge, for every library cell and operating point.

use proptest::prelude::*;
use wavemin_cells::characterize::ClockEdge;
use wavemin_cells::units::{Femtofarads, Picoseconds, Volts};
use wavemin_cells::{CellKind, CellLibrary, Characterizer};

/// Asserts `timing` ≡ `characterize` on both edges for every nangate45
/// cell at one operating point.
fn check_all_cells(chr: &Characterizer, load: f64, slew: f64, vdd: f64) {
    let lib = CellLibrary::nangate45();
    let (load, slew, vdd) = (
        Femtofarads::new(load),
        Picoseconds::new(slew),
        Volts::new(vdd),
    );
    for cell in lib.iter() {
        let full = chr.characterize(cell, load, slew, vdd);
        for edge in ClockEdge::BOTH {
            let (t_d, slew_out) = chr.timing(cell, load, slew, vdd, edge);
            let (want_t, want_s) = match edge {
                ClockEdge::Rise => (full.t_d_rise, full.slew_rise),
                ClockEdge::Fall => (full.t_d_fall, full.slew_fall),
            };
            assert_eq!(
                (t_d.value().to_bits(), slew_out.value().to_bits()),
                (want_t.value().to_bits(), want_s.value().to_bits()),
                "{} {edge:?} at load {load}, slew {slew}, vdd {vdd}",
                cell.name()
            );
        }
    }
}

#[test]
fn library_covers_every_cell_kind() {
    let lib = CellLibrary::nangate45();
    for kind in [
        CellKind::Buffer,
        CellKind::Inverter,
        CellKind::Adb,
        CellKind::Adi,
    ] {
        assert!(lib.iter().any(|c| c.kind() == kind), "no {kind:?} cell");
    }
}

#[test]
fn timing_matches_at_the_low_vdd_clamp() {
    // At or below the threshold voltage the delay factor clamps to 1e6.
    let chr = Characterizer::default();
    for vdd in [0.0, 0.2, 0.35, 0.350_000_5] {
        check_all_cells(&chr, 6.0, 20.0, vdd);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn timing_matches_characterize_bit_for_bit(
        load in 0.0..200.0f64,
        slew in 0.0..200.0f64,
        vdd in 0.0..1.5f64,
        saturated in prop::bool::ANY,
    ) {
        let chr = if saturated {
            Characterizer::default()
        } else {
            Characterizer::default().with_saturation(wavemin_cells::MicroAmps::new(1e9))
        };
        check_all_cells(&chr, load, slew, vdd);
    }
}
