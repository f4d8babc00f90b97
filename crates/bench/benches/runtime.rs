//! Bench: end-to-end optimizer runtimes per circuit — the execution-time
//! columns of Table VI.

use std::hint::black_box;
use wavemin::prelude::*;
use wavemin_testkit::timing::Bench;

fn quick(sample_count: usize) -> WaveMinConfig {
    let mut cfg = WaveMinConfig::default().with_sample_count(sample_count);
    cfg.max_intervals = Some(8);
    cfg
}

fn main() {
    let bench = Bench::from_args();
    let design = Design::from_benchmark(&Benchmark::s13207(), 1);
    let algo = ClkPeakMin::new(quick(158));
    bench.time("s13207/clkpeakmin", || {
        algo.run(black_box(&design)).unwrap()
    });
    for (name, samples) in [("clkwavemin_s158", 158), ("clkwavemin_s8", 8)] {
        let algo = ClkWaveMin::new(quick(samples));
        bench.time(&format!("s13207/{name}"), || {
            algo.run(black_box(&design)).unwrap()
        });
    }
    let algo = ClkWaveMinFast::new(quick(158));
    bench.time("s13207/clkwavemin_fast", || {
        algo.run(black_box(&design)).unwrap()
    });

    let cfg = WaveMinConfig::default();
    bench.time("preprocess/noise_table", || {
        NoiseTable::build(black_box(&design), &cfg, 0).unwrap()
    });
    let table = NoiseTable::build(&design, &cfg, 0).unwrap();
    bench.time("preprocess/intervals", || {
        IntervalSet::generate(black_box(&table), cfg.skew_bound, Some(48))
    });

    for bm in [Benchmark::s13207(), Benchmark::s35932()] {
        let design = Design::from_benchmark(&bm, 1);
        let eval = NoiseEvaluator::new(&design);
        bench.time(&format!("evaluate/{}", bm.name), || {
            eval.evaluate(0).unwrap()
        });
    }
    for bm in [Benchmark::s15850(), Benchmark::s13207()] {
        bench.time(&format!("synthesis/{}", bm.name), || {
            bm.synthesize(black_box(1))
        });
    }
}
