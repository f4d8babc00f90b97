//! Bench: the analytic characterizer (the SPICE substitute) — the
//! innermost hot path of preprocessing and evaluation.

use std::hint::black_box;
use wavemin_cells::characterize::ClockEdge;
use wavemin_cells::units::{Femtofarads, MicroAmps, Picoseconds, Volts};
use wavemin_cells::{CellLibrary, Characterizer, Waveform};
use wavemin_testkit::timing::Bench;

fn main() {
    let bench = Bench::from_args();
    let lib = CellLibrary::nangate45();
    let chr = Characterizer::default();
    let (load, slew, vdd) = (
        Femtofarads::new(6.0),
        Picoseconds::new(20.0),
        Volts::new(1.1),
    );
    for name in ["INV_X8", "BUF_X8", "ADI_X8"] {
        let cell = lib.get(name).unwrap();
        bench.time(&format!("characterize/{name}"), || {
            chr.characterize(black_box(cell), load, slew, vdd)
        });
    }
    let cell = lib.get("BUF_X8").unwrap();
    bench.time("timing_fast_path", || {
        chr.timing(black_box(cell), load, slew, vdd, ClockEdge::Rise)
    });
    let waves: Vec<Waveform> = (0..100)
        .map(|i| {
            let t = f64::from(i);
            Waveform::triangle(
                Picoseconds::new(t),
                Picoseconds::new(t + 5.0),
                Picoseconds::new(t + 20.0),
                MicroAmps::new(100.0),
            )
        })
        .collect();
    bench.time("waveform_sum_100", || Waveform::sum(black_box(&waves)));
}
