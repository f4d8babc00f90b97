//! Resistive power-grid mesh and IR-drop solve.

use serde::Serialize;
use wavemin_cells::units::{MicroAmps, Microns, Millivolts, Ohms};

/// Where the ideal supply connections (pads) sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PadPlacement {
    /// Every border node is a pad (a flip-chip-like ring; the default).
    Ring,
    /// Only the four corner nodes are pads (wire-bond-like; the worst
    /// case for center drops).
    Corners,
}

/// Mesh construction options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GridOptions {
    /// Grid pitch (stripe spacing).
    pub pitch: Microns,
    /// Resistance of one mesh segment between adjacent grid nodes.
    pub segment_r: Ohms,
    /// Gauss–Seidel convergence threshold (volts-equivalent in µV).
    pub tolerance_uv: f64,
    /// Iteration cap for the relaxation solve.
    pub max_iterations: usize,
    /// Supply pad placement.
    pub pads: PadPlacement,
    /// Resolution cap: dies wider than `max_cells * pitch` are meshed at
    /// a coarser effective pitch so the node count stays bounded. The
    /// segment resistance is scaled with the pitch so the sheet
    /// resistance of the modeled grid is unchanged.
    pub max_cells: usize,
}

impl Default for GridOptions {
    fn default() -> Self {
        Self {
            pitch: Microns::new(50.0),
            segment_r: Ohms::new(0.5),
            tolerance_uv: 0.05,
            max_iterations: 20_000,
            pads: PadPlacement::Ring,
            max_cells: 256,
        }
    }
}

/// Errors from power-grid construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum GridError {
    /// The die side was zero, negative, or non-finite.
    BadDieSide,
    /// The grid pitch was zero, negative, or non-finite.
    BadPitch,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::BadDieSide => write!(f, "die side must be positive and finite"),
            GridError::BadPitch => write!(f, "grid pitch must be positive and finite"),
        }
    }
}

impl std::error::Error for GridError {}

/// A rectangular resistive mesh with supply pads along the die border.
///
/// The VDD and ground grids are symmetric, so one mesh serves both rails:
/// inject the rail's instantaneous currents and read the worst drop.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PowerGrid {
    nx: usize,
    ny: usize,
    options: GridOptions,
    /// Effective pitch (µm): equals `options.pitch` until the
    /// [`GridOptions::max_cells`] cap coarsens the mesh for a large die.
    pitch_um: f64,
    /// Effective per-segment resistance (Ω), scaled with the pitch.
    segment_r: f64,
    /// Border pad mask (true = ideal supply connection).
    pads: Vec<bool>,
}

impl PowerGrid {
    /// Builds a mesh covering a square die of the given side, with pads on
    /// every border node (a typical flip-chip-like ring).
    ///
    /// # Panics
    ///
    /// Panics if the die side or pitch is not positive; see
    /// [`PowerGrid::try_over_die`] for the non-panicking form.
    #[must_use]
    pub fn over_die(die_side: Microns, options: GridOptions) -> Self {
        match Self::try_over_die(die_side, options) {
            Ok(grid) => grid,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`PowerGrid::over_die`]: returns a typed error
    /// instead of panicking on a degenerate die or pitch.
    ///
    /// # Errors
    ///
    /// [`GridError::BadDieSide`] or [`GridError::BadPitch`] when the
    /// corresponding dimension is not positive and finite.
    pub fn try_over_die(die_side: Microns, options: GridOptions) -> Result<Self, GridError> {
        if !die_side.value().is_finite() || die_side.value() <= 0.0 {
            return Err(GridError::BadDieSide);
        }
        if !options.pitch.value().is_finite() || options.pitch.value() <= 0.0 {
            return Err(GridError::BadPitch);
        }
        let natural = (die_side.value() / options.pitch.value()).ceil() as usize;
        let cells = natural.clamp(1, options.max_cells.max(1));
        // Coarsening k cells into one puts k physical stripe segments in
        // series across k parallel stripes — the factors cancel, so the
        // per-segment resistance (the mesh's resistance per square) is
        // pitch-invariant.
        let pitch_um = if cells == natural {
            options.pitch.value()
        } else {
            die_side.value() / cells as f64
        };
        let segment_r = options.segment_r.value();
        let nx = cells + 1;
        let ny = cells + 1;
        let mut pads = vec![false; nx * ny];
        match options.pads {
            PadPlacement::Ring => {
                for x in 0..nx {
                    pads[x] = true; // bottom row
                    pads[(ny - 1) * nx + x] = true; // top row
                }
                for y in 0..ny {
                    pads[y * nx] = true; // left column
                    pads[y * nx + nx - 1] = true; // right column
                }
            }
            PadPlacement::Corners => {
                pads[0] = true;
                pads[nx - 1] = true;
                pads[(ny - 1) * nx] = true;
                pads[(ny - 1) * nx + nx - 1] = true;
            }
        }
        Ok(Self {
            nx,
            ny,
            options,
            pitch_um,
            segment_r,
            pads,
        })
    }

    /// Grid dimensions `(nx, ny)`.
    #[must_use]
    pub fn dimensions(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Number of grid nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nx * self.ny
    }

    /// Index of the grid node nearest a die location (µm coordinates).
    #[must_use]
    pub fn nearest_node(&self, x_um: f64, y_um: f64) -> usize {
        let pitch = self.pitch_um;
        let gx = ((x_um / pitch).round().max(0.0) as usize).min(self.nx - 1);
        let gy = ((y_um / pitch).round().max(0.0) as usize).min(self.ny - 1);
        gy * self.nx + gx
    }

    /// Solves the IR drop for point current injections and returns the
    /// worst drop on the grid.
    ///
    /// Each injection is `((x_um, y_um), current)`: the instantaneous
    /// current a buffer draws from this rail at the analyzed time sample.
    /// Negative or non-finite currents are clamped to zero.
    #[must_use]
    pub fn ir_drop(&self, injections: &[((f64, f64), MicroAmps)]) -> Millivolts {
        let drops = self.solve(injections);
        let worst_uv = drops.iter().copied().fold(0.0_f64, f64::max);
        Millivolts::new(worst_uv / 1000.0)
    }

    /// Worst drop for a *series* of injection snapshots (e.g. the sampled
    /// instants of a clock edge): one IR solve per snapshot, returning the
    /// drop waterfall.
    #[must_use]
    pub fn ir_drop_series(&self, snapshots: &[Vec<((f64, f64), MicroAmps)>]) -> Vec<Millivolts> {
        snapshots.iter().map(|s| self.ir_drop(s)).collect()
    }

    /// Full nodal solve: the voltage drop (µV) at every grid node.
    ///
    /// Red-black successive over-relaxation (SOR) on the mesh Laplacian
    /// with Dirichlet (zero-drop) pads:
    /// `d_i ← (1-ω)·d_i + ω·(Σ_neighbors d_j + R · I_i) / degree_i`,
    /// with `R·I` in `Ω · µA = µV` and the Young-optimal relaxation
    /// factor `ω = 2 / (1 + sin(π/n))`. Plain Gauss–Seidel needs O(n²)
    /// sweeps to converge on an n×n mesh (it silently hit the iteration
    /// cap on million-sink dies); optimal SOR needs O(n).
    #[must_use]
    pub fn solve(&self, injections: &[((f64, f64), MicroAmps)]) -> Vec<f64> {
        let n = self.node_count();
        let mut current = vec![0.0_f64; n];
        for &((x, y), i) in injections {
            let v = i.value();
            if v.is_finite() && v > 0.0 {
                current[self.nearest_node(x, y)] += v;
            }
        }
        let r = self.segment_r;
        let omega = 2.0 / (1.0 + (std::f64::consts::PI / self.nx.max(self.ny) as f64).sin());
        let mut drop = vec![0.0_f64; n];
        for _ in 0..self.options.max_iterations {
            let mut delta = 0.0_f64;
            for color in 0..2usize {
                for y in 0..self.ny {
                    let x0 = (color + y) % 2;
                    for x in (x0..self.nx).step_by(2) {
                        let idx = y * self.nx + x;
                        if self.pads[idx] {
                            continue;
                        }
                        let mut sum = 0.0;
                        let mut deg = 0.0;
                        if x > 0 {
                            sum += drop[idx - 1];
                            deg += 1.0;
                        }
                        if x + 1 < self.nx {
                            sum += drop[idx + 1];
                            deg += 1.0;
                        }
                        if y > 0 {
                            sum += drop[idx - self.nx];
                            deg += 1.0;
                        }
                        if y + 1 < self.ny {
                            sum += drop[idx + self.nx];
                            deg += 1.0;
                        }
                        let gs = (sum + r * current[idx]) / deg;
                        let new = drop[idx] + omega * (gs - drop[idx]);
                        delta = delta.max((new - drop[idx]).abs());
                        drop[idx] = new;
                    }
                }
            }
            if delta < self.options.tolerance_uv {
                break;
            }
        }
        drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> PowerGrid {
        PowerGrid::over_die(Microns::new(200.0), GridOptions::default())
    }

    #[test]
    fn construction_covers_die() {
        let g = grid();
        let (nx, ny) = g.dimensions();
        assert_eq!((nx, ny), (5, 5)); // 200/50 = 4 cells -> 5 nodes
        assert_eq!(g.node_count(), 25);
    }

    #[test]
    fn nearest_node_snaps_and_clamps() {
        let g = grid();
        assert_eq!(g.nearest_node(0.0, 0.0), 0);
        assert_eq!(g.nearest_node(49.0, 0.0), 1);
        assert_eq!(g.nearest_node(1e9, 1e9), g.node_count() - 1);
    }

    #[test]
    fn no_current_no_drop() {
        let g = grid();
        assert_eq!(g.ir_drop(&[]).value(), 0.0);
    }

    #[test]
    fn center_injection_produces_positive_drop() {
        let g = grid();
        let noise = g.ir_drop(&[((100.0, 100.0), MicroAmps::new(10_000.0))]);
        assert!(noise.value() > 0.0);
        // 10 mA across a 0.5 Ω mesh: drop should be order-of-mV.
        assert!(noise.value() < 20.0, "drop {noise} implausibly large");
    }

    #[test]
    fn drop_scales_linearly_with_current() {
        let g = grid();
        let one = g.ir_drop(&[((100.0, 100.0), MicroAmps::new(1000.0))]);
        let two = g.ir_drop(&[((100.0, 100.0), MicroAmps::new(2000.0))]);
        assert!((two.value() - 2.0 * one.value()).abs() < 0.02 * two.value());
    }

    #[test]
    fn border_injection_is_absorbed_by_pads() {
        let g = grid();
        let center = g.ir_drop(&[((100.0, 100.0), MicroAmps::new(5000.0))]);
        let border = g.ir_drop(&[((0.0, 100.0), MicroAmps::new(5000.0))]);
        assert!(border.value() < center.value());
    }

    #[test]
    fn superposition_of_separated_injections() {
        let g = PowerGrid::over_die(Microns::new(400.0), GridOptions::default());
        let a = g.solve(&[((100.0, 100.0), MicroAmps::new(3000.0))]);
        let b = g.solve(&[((300.0, 300.0), MicroAmps::new(3000.0))]);
        let both = g.solve(&[
            ((100.0, 100.0), MicroAmps::new(3000.0)),
            ((300.0, 300.0), MicroAmps::new(3000.0)),
        ]);
        // Linear network: solutions superpose.
        for i in 0..g.node_count() {
            assert!((both[i] - (a[i] + b[i])).abs() < 1.0, "node {i}");
        }
    }

    #[test]
    fn negative_and_nan_currents_ignored() {
        let g = grid();
        let clean = g.ir_drop(&[((100.0, 100.0), MicroAmps::new(1000.0))]);
        let dirty = g.ir_drop(&[
            ((100.0, 100.0), MicroAmps::new(1000.0)),
            ((120.0, 100.0), MicroAmps::new(-500.0)),
            ((80.0, 100.0), MicroAmps::new(f64::NAN)),
        ]);
        assert_eq!(clean, dirty);
    }

    #[test]
    fn pad_nodes_stay_at_zero() {
        let g = grid();
        let drops = g.solve(&[((100.0, 100.0), MicroAmps::new(8000.0))]);
        let (nx, ny) = g.dimensions();
        for x in 0..nx {
            assert_eq!(drops[x], 0.0);
            assert_eq!(drops[(ny - 1) * nx + x], 0.0);
        }
    }

    #[test]
    fn corner_pads_are_worse_than_ring() {
        let ring = PowerGrid::over_die(Microns::new(200.0), GridOptions::default());
        let corners = PowerGrid::over_die(
            Microns::new(200.0),
            GridOptions {
                pads: PadPlacement::Corners,
                ..GridOptions::default()
            },
        );
        let inj = [((100.0, 100.0), MicroAmps::new(5000.0))];
        assert!(corners.ir_drop(&inj).value() > ring.ir_drop(&inj).value());
    }

    #[test]
    fn series_matches_per_snapshot_solves() {
        let g = PowerGrid::over_die(Microns::new(200.0), GridOptions::default());
        let snaps = vec![
            vec![((100.0, 100.0), MicroAmps::new(1000.0))],
            vec![((50.0, 50.0), MicroAmps::new(2000.0))],
            vec![],
        ];
        let series = g.ir_drop_series(&snaps);
        assert_eq!(series.len(), 3);
        for (s, snap) in series.iter().zip(&snaps) {
            assert_eq!(*s, g.ir_drop(snap));
        }
        assert_eq!(series[2].value(), 0.0);
    }

    #[test]
    fn huge_die_is_coarsened_to_the_cell_cap() {
        let capped = GridOptions {
            max_cells: 16,
            ..GridOptions::default()
        };
        let g = PowerGrid::over_die(Microns::new(6_000.0), capped);
        assert_eq!(g.dimensions(), (17, 17));
        // The coarse mesh still maps far corners onto distinct nodes.
        assert_eq!(g.nearest_node(0.0, 0.0), 0);
        assert_eq!(g.nearest_node(6_000.0, 6_000.0), g.node_count() - 1);
        // A *distributed* load (the realistic case: buffers spread over
        // the die) must read the same on coarse and fine meshes. A single
        // point injection would not -- its local spreading resistance
        // depends on the pitch -- which is why the cap only kicks in for
        // huge dies where loads are necessarily spread out.
        let inj: Vec<((f64, f64), MicroAmps)> = (0..20)
            .flat_map(|ix| {
                (0..20).map(move |iy| {
                    (
                        (150.0 + 300.0 * ix as f64, 150.0 + 300.0 * iy as f64),
                        MicroAmps::new(1000.0),
                    )
                })
            })
            .collect();
        let coarse = g.ir_drop(&inj).value();
        let fine = PowerGrid::over_die(Microns::new(6_000.0), GridOptions::default())
            .ir_drop(&inj)
            .value();
        assert!(coarse > 0.0 && fine > 0.0);
        assert!(
            (coarse / fine) > 0.5 && (coarse / fine) < 2.0,
            "coarse {coarse} vs fine {fine} \u{b5}V diverge beyond mesh error"
        );
    }

    #[test]
    #[should_panic(expected = "die side must be positive")]
    fn zero_die_rejected() {
        let _ = PowerGrid::over_die(Microns::ZERO, GridOptions::default());
    }

    #[test]
    fn try_over_die_returns_typed_errors() {
        assert_eq!(
            PowerGrid::try_over_die(Microns::ZERO, GridOptions::default()),
            Err(GridError::BadDieSide)
        );
        assert_eq!(
            PowerGrid::try_over_die(Microns::new(f64::NAN), GridOptions::default()),
            Err(GridError::BadDieSide)
        );
        let bad_pitch = GridOptions {
            pitch: Microns::new(-1.0),
            ..GridOptions::default()
        };
        assert_eq!(
            PowerGrid::try_over_die(Microns::new(100.0), bad_pitch),
            Err(GridError::BadPitch)
        );
        assert!(PowerGrid::try_over_die(Microns::new(100.0), GridOptions::default()).is_ok());
    }
}
