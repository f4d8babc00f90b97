//! The crate-wide error type.

use std::fmt;
use wavemin_clocktree::prelude::TimingError;
use wavemin_clocktree::tree::TreeError;
use wavemin_mosp::MospError;

/// Errors surfaced by WaveMin optimizations.
#[derive(Debug, Clone, PartialEq)]
pub enum WaveMinError {
    /// Timing analysis of the clock tree failed.
    Timing(TimingError),
    /// The MOSP solver failed.
    Mosp(MospError),
    /// No feasible time interval exists: no assignment can satisfy the
    /// skew bound (single mode), or no feasible interval intersection
    /// exists across modes.
    NoFeasibleInterval,
    /// ADB insertion could not resolve the multi-mode skew violations
    /// within the adjustable delay range.
    AdbInsertionFailed(String),
    /// A required cell (e.g. a same-drive ADB/ADI) is missing from the
    /// library.
    MissingCell(String),
    /// A configuration value is out of range.
    InvalidConfig(&'static str),
    /// Upfront validation found the clock tree structurally broken
    /// (orphan nodes, broken links, disconnected subtrees, unknown cells).
    InvalidTree(TreeError),
    /// Upfront validation found a NaN or infinite numeric input; the
    /// message names the offending field and node.
    NonFiniteInput(String),
    /// Upfront validation found a physically negative quantity (cap,
    /// wirelength, voltage...); the message names the field and node.
    NegativeInput(String),
    /// The design has no sinks to assign.
    EmptySinks,
    /// Two sinks are exact duplicates (same location and load), which the
    /// zone partition and skew analysis cannot distinguish.
    DuplicateSinks(String),
    /// A zone worker panicked (or was fault-injected) and its salvage
    /// retry also failed; the run could not contain the fault.
    ZoneFault {
        /// The zone whose solve faulted.
        zone: usize,
        /// The panic payload (or injected-fault description).
        payload: String,
    },
    /// The checkpoint journal could not be written, read, or validated;
    /// the message names the file and the reason.
    Checkpoint(String),
    /// The minimal working set (process baseline plus two of the
    /// largest zone's vectors) does not fit the configured memory
    /// budget.
    MemoryBudget {
        /// The configured `--memory-budget-mb` value.
        budget_mb: usize,
        /// The smallest budget (MB) this run could start under.
        required_mb: usize,
    },
    /// An SDF file could not be parsed or does not describe a clock tree.
    Sdf(crate::io::sdf::SdfError),
}

impl fmt::Display for WaveMinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaveMinError::Timing(e) => write!(f, "timing analysis failed: {e}"),
            WaveMinError::Mosp(e) => write!(f, "MOSP solve failed: {e}"),
            WaveMinError::NoFeasibleInterval => {
                write!(f, "no feasible time interval satisfies the skew bound")
            }
            WaveMinError::AdbInsertionFailed(why) => {
                write!(f, "ADB insertion failed: {why}")
            }
            WaveMinError::MissingCell(c) => write!(f, "cell '{c}' missing from library"),
            WaveMinError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            WaveMinError::InvalidTree(e) => write!(f, "invalid clock tree: {e}"),
            WaveMinError::NonFiniteInput(what) => {
                write!(f, "non-finite input: {what}")
            }
            WaveMinError::NegativeInput(what) => {
                write!(f, "negative input: {what}")
            }
            WaveMinError::EmptySinks => {
                write!(f, "the design has no sinks: nothing to assign")
            }
            WaveMinError::DuplicateSinks(what) => {
                write!(f, "duplicate sinks: {what}")
            }
            WaveMinError::ZoneFault { zone, payload } => {
                write!(f, "zone {zone} solve faulted and salvage failed: {payload}")
            }
            WaveMinError::Checkpoint(what) => {
                write!(f, "checkpoint journal error: {what}")
            }
            WaveMinError::MemoryBudget {
                budget_mb,
                required_mb,
            } => {
                write!(
                    f,
                    "memory budget {budget_mb} MB is below the minimal working \
                     set (about {required_mb} MB needed)"
                )
            }
            WaveMinError::Sdf(e) => write!(f, "SDF import error: {e}"),
        }
    }
}

impl std::error::Error for WaveMinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WaveMinError::Timing(e) => Some(e),
            WaveMinError::Mosp(e) => Some(e),
            WaveMinError::InvalidTree(e) => Some(e),
            WaveMinError::Sdf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TreeError> for WaveMinError {
    fn from(e: TreeError) -> Self {
        WaveMinError::InvalidTree(e)
    }
}

impl From<TimingError> for WaveMinError {
    fn from(e: TimingError) -> Self {
        WaveMinError::Timing(e)
    }
}

impl From<MospError> for WaveMinError {
    fn from(e: MospError) -> Self {
        WaveMinError::Mosp(e)
    }
}

impl From<crate::io::sdf::SdfError> for WaveMinError {
    fn from(e: crate::io::sdf::SdfError) -> Self {
        WaveMinError::Sdf(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(WaveMinError::NoFeasibleInterval
            .to_string()
            .contains("skew"));
        assert!(WaveMinError::MissingCell("ADB_X8".into())
            .to_string()
            .contains("ADB_X8"));
        let e = WaveMinError::from(MospError::Cyclic);
        assert!(e.to_string().contains("MOSP"));
    }

    #[test]
    fn fault_and_checkpoint_displays_name_the_cause() {
        let e = WaveMinError::ZoneFault {
            zone: 7,
            payload: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("zone 7"));
        assert!(e.to_string().contains("index out of bounds"));
        let c = WaveMinError::Checkpoint("fingerprint mismatch".into());
        assert!(c.to_string().contains("fingerprint mismatch"));
    }

    #[test]
    fn memory_budget_display_names_both_sides() {
        use std::error::Error;
        let e = WaveMinError::MemoryBudget {
            budget_mb: 4,
            required_mb: 128,
        };
        let msg = e.to_string();
        assert!(msg.contains("4 MB"), "{msg}");
        assert!(msg.contains("128 MB"), "{msg}");
        assert!(e.source().is_none());
    }

    #[test]
    fn sources_are_chained() {
        use std::error::Error;
        let e = WaveMinError::from(MospError::NoPath);
        assert!(e.source().is_some());
        assert!(WaveMinError::NoFeasibleInterval.source().is_none());
    }
}
