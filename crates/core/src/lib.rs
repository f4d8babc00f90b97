//! # WaveMin — fine-grained clock buffer polarity assignment with sizing
//!
//! A from-scratch reproduction of *"WaveMin: a fine-grained clock buffer
//! polarity assignment combined with buffer sizing"* (Joo & Kim, DAC 2011;
//! journal version TCAD 2014).
//!
//! Clock buffers draw a current spike from VDD at the rising clock edge and
//! dump one into ground at the falling edge; inverters do the opposite.
//! Replacing some *leaf* clock buffers with inverters (and resizing them)
//! spreads the clock tree's switching current across both rails and across
//! time, lowering the peak current and the resulting power/ground noise.
//! WaveMin scores candidate assignments against **sampled current
//! waveforms** (not just four peak numbers), accounts for arrival-time
//! differences between sinks and for the fixed non-leaf buffers' background
//! noise, and supports designs with multiple power modes.
//!
//! ## Algorithms
//!
//! | paper name | here | description |
//! |---|---|---|
//! | ClkWaveMin | [`algo::ClkWaveMin`] | MOSP formulation per zone/interval, Warburton ε-approximation |
//! | ClkWaveMin-f | [`algo::ClkWaveMinFast`] | greedy least-noise-worsening-first |
//! | ClkPeakMin \[27\] | [`algo::ClkPeakMin`] | baseline: balance the two rails' summed peaks |
//! | Nieh et al. \[22\] | [`algo::NiehOppositePhase`] | baseline: invert half the tree |
//! | Samanta et al. \[23\] | [`algo::SamantaBalanced`] | baseline: spatially balanced halves, delay-unaware |
//! | ClkWaveMin-M | [`multimode::ClkWaveMinM`] | interval intersection + ADB/ADI flow for multiple power modes |
//!
//! ## Quickstart
//!
//! ```
//! use wavemin::prelude::*;
//!
//! let design = Design::from_benchmark(&Benchmark::s15850(), 42);
//! let config = WaveMinConfig::default();
//! let outcome = ClkWaveMin::new(config.clone()).run(&design).expect("optimization");
//! // The optimized assignment respects the skew bound (up to the small
//! // sibling-load allowance of Observation 4)...
//! assert!(outcome.skew_after.value() <= config.skew_bound.value() * 1.05 + 1e-6);
//! // ...and never increases the estimated peak current.
//! assert!(outcome.peak_after.value() <= outcome.peak_before.value() + 1e-9);
//! ```

#![warn(missing_docs)]

pub mod algo;
pub mod assignment;
pub mod checkpoint;
pub mod config;
pub mod design;
pub mod error;
pub mod eval;
pub mod fault;
pub mod intervals;
pub mod io;
pub mod montecarlo;
pub mod multimode;
pub mod noise_table;
pub mod observe;
pub(crate) mod parallel;
pub mod report;
pub mod reportgen;
pub mod sampling;
#[cfg(unix)]
pub mod serve;
pub mod session;
pub mod shardrun;
mod store;
pub mod trace;

/// Convenient re-exports of the main types.
pub mod prelude {
    pub use crate::algo::Outcome;
    pub use crate::algo::{
        ClkPeakMin, ClkWaveMin, ClkWaveMinFast, Degradation, DegradationStep, DynamicOutcome,
        DynamicPolarity, ExhaustiveSearch, NiehOppositePhase, NonLeafPolarity, SamantaBalanced,
        YieldAwareWaveMin, YieldOutcome,
    };
    pub use crate::assignment::Assignment;
    pub use crate::checkpoint::{CacheStats, ZoneCache};
    pub use crate::config::{SolverKind, WaveMinConfig};
    pub use crate::design::Design;
    pub use crate::error::WaveMinError;
    pub use crate::eval::{NoiseEvaluator, NoiseReport};
    pub use crate::fault::FaultPlan;
    pub use crate::intervals::{FeasibleInterval, IntervalSet};
    pub use crate::io::{export_sdf, import_sdf, ImportedDesign};
    pub use crate::montecarlo::{MonteCarlo, MonteCarloStats};
    pub use crate::multimode::{AdbPlan, ClkWaveMinM};
    pub use crate::noise_table::{EventWaveforms, NoiseTable};
    pub use crate::observe::{
        Contribution, Instruments, MetricsRegistry, PeakAttribution, Progress, ProgressTracker,
        RunHistogram, RunHistograms, RunReport, Stage,
    };
    pub use crate::sampling::SamplePlan;
    pub use crate::session::{CharacterizedDesign, SolveOptions};
    pub use crate::shardrun::{optimize_sharded, ShardedOutcome};
    pub use crate::trace::{TraceHandle, TraceJournal};
    pub use wavemin_cells::{CellKind, CellLibrary, Characterizer, Polarity};
    pub use wavemin_clocktree::prelude::*;
    pub use wavemin_mosp::{Budget, Exhaustion};
}

pub use prelude::*;
