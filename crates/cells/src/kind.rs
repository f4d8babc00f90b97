//! Cell kinds and signal polarities.

use serde::Serialize;
use std::fmt;

/// The polarity of a clock buffering element's output relative to the clock
/// source.
///
/// A buffering element has **positive** polarity when its output switches in
/// the same direction as the clock source and **negative** polarity when it
/// switches in the opposite direction (footnote 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Polarity {
    /// Output follows the clock source (buffer-like).
    Positive,
    /// Output opposes the clock source (inverter-like).
    Negative,
}

impl Polarity {
    /// Returns the opposite polarity.
    ///
    /// ```
    /// use wavemin_cells::Polarity;
    /// assert_eq!(Polarity::Positive.flipped(), Polarity::Negative);
    /// assert_eq!(Polarity::Negative.flipped().flipped(), Polarity::Negative);
    /// ```
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Polarity::Positive => Polarity::Negative,
            Polarity::Negative => Polarity::Positive,
        }
    }

    /// Combines two polarities along a signal path: a negative stage flips
    /// the running polarity, a positive one preserves it.
    #[must_use]
    pub fn compose(self, stage: Self) -> Self {
        if stage == Polarity::Negative {
            self.flipped()
        } else {
            self
        }
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Polarity::Positive => write!(f, "P"),
            Polarity::Negative => write!(f, "N"),
        }
    }
}

/// The functional kind of a clock buffering element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum CellKind {
    /// A plain clock buffer (two cascaded inverters): positive polarity.
    Buffer,
    /// A plain inverter: negative polarity.
    Inverter,
    /// An adjustable delay buffer (capacitor-bank tuned): positive polarity.
    Adb,
    /// The paper's proposed adjustable delay inverter: negative polarity.
    Adi,
}

impl CellKind {
    /// The polarity this cell kind assigns to its fanout.
    ///
    /// ```
    /// use wavemin_cells::{CellKind, Polarity};
    /// assert_eq!(CellKind::Buffer.polarity(), Polarity::Positive);
    /// assert_eq!(CellKind::Adi.polarity(), Polarity::Negative);
    /// ```
    #[must_use]
    pub fn polarity(self) -> Polarity {
        match self {
            CellKind::Buffer | CellKind::Adb => Polarity::Positive,
            CellKind::Inverter | CellKind::Adi => Polarity::Negative,
        }
    }

    /// `true` for cells whose delay can be tuned after placement (ADB/ADI).
    #[must_use]
    pub fn is_adjustable(self) -> bool {
        matches!(self, CellKind::Adb | CellKind::Adi)
    }

    /// Number of inverting stages in the cell (determines which internal
    /// stage draws from which rail).
    #[must_use]
    pub fn stage_count(self) -> usize {
        match self {
            CellKind::Inverter => 1,
            CellKind::Buffer | CellKind::Adb => 2,
            // The paper's ADI implementation (Fig. 4) uses three inverters.
            CellKind::Adi => 3,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellKind::Buffer => write!(f, "BUF"),
            CellKind::Inverter => write!(f, "INV"),
            CellKind::Adb => write!(f, "ADB"),
            CellKind::Adi => write!(f, "ADI"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarity_flip_is_involution() {
        for p in [Polarity::Positive, Polarity::Negative] {
            assert_eq!(p.flipped().flipped(), p);
            assert_ne!(p.flipped(), p);
        }
    }

    #[test]
    fn polarity_composition() {
        use Polarity::*;
        assert_eq!(Positive.compose(Positive), Positive);
        assert_eq!(Positive.compose(Negative), Negative);
        assert_eq!(Negative.compose(Negative), Positive);
        assert_eq!(Negative.compose(Positive), Negative);
    }

    #[test]
    fn kinds_have_expected_polarities() {
        assert_eq!(CellKind::Buffer.polarity(), Polarity::Positive);
        assert_eq!(CellKind::Adb.polarity(), Polarity::Positive);
        assert_eq!(CellKind::Inverter.polarity(), Polarity::Negative);
        assert_eq!(CellKind::Adi.polarity(), Polarity::Negative);
    }

    #[test]
    fn adjustability() {
        assert!(!CellKind::Buffer.is_adjustable());
        assert!(!CellKind::Inverter.is_adjustable());
        assert!(CellKind::Adb.is_adjustable());
        assert!(CellKind::Adi.is_adjustable());
    }

    #[test]
    fn stage_counts_match_paper() {
        assert_eq!(CellKind::Inverter.stage_count(), 1);
        assert_eq!(CellKind::Buffer.stage_count(), 2);
        assert_eq!(CellKind::Adb.stage_count(), 2);
        // Fig. 4: three inverters inside an ADI.
        assert_eq!(CellKind::Adi.stage_count(), 3);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(CellKind::Buffer.to_string(), "BUF");
        assert_eq!(Polarity::Negative.to_string(), "N");
    }
}
