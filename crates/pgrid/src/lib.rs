//! Power/ground distribution network substrate.
//!
//! The paper measures VDD/Gnd noise by simulating the clock tree against
//! the power-grid model of Zhu, *Power Distribution Network Design for
//! VLSI* (the reference \[36\] grid). This crate provides the equivalent
//! computation: a resistive mesh with supply pads on the die border, the
//! clock buffers' instantaneous currents injected at their placements, and
//! the nodal IR-drop solved by Gauss–Seidel relaxation. The reported noise
//! is the worst voltage deviation anywhere on the grid — the paper's
//! "maximum voltage fluctuation observed in the power and ground grids".
//!
//! # Example
//!
//! ```
//! use wavemin_pgrid::{PowerGrid, GridOptions};
//! use wavemin_cells::units::{Microns, MicroAmps};
//!
//! let grid = PowerGrid::over_die(Microns::new(200.0), GridOptions::default());
//! let noise = grid.ir_drop(&[((100.0, 100.0), MicroAmps::new(5000.0))]);
//! assert!(noise.value() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod mesh;

pub use mesh::{GridError, GridOptions, PadPlacement, PowerGrid};
