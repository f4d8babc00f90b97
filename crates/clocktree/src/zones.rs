//! Square-grid zone partitioning.
//!
//! Power/ground noise is a local effect, so the paper divides the design
//! into square zones (empirically 50 × 50 µm) and optimizes each zone
//! independently, minimizing the maximum per-zone peak current.

use crate::geom::{Point, Rect};
use crate::tree::{ClockTree, NodeId};
use serde::Serialize;
use std::collections::BTreeMap;
use wavemin_cells::units::Microns;

/// One optimization zone: a grid cell and the sinks placed inside it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Zone {
    /// Grid coordinates of the zone.
    pub gx: u32,
    /// Grid coordinates of the zone.
    pub gy: u32,
    /// Leaf buffering elements placed in this zone.
    pub sinks: Vec<NodeId>,
}

impl Zone {
    /// The zone's rectangle given the grid pitch.
    #[must_use]
    pub fn rect(&self, pitch: Microns) -> Rect {
        let x0 = self.gx as f64 * pitch.value();
        let y0 = self.gy as f64 * pitch.value();
        Rect::new(
            Point::new(x0, y0),
            Point::new(x0 + pitch.value(), y0 + pitch.value()),
        )
    }
}

/// A square-grid partition of a tree's sinks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ZoneGrid {
    pitch: Microns,
    zones: Vec<Zone>,
}

impl ZoneGrid {
    /// The paper's empirical zone pitch.
    #[must_use]
    pub fn default_pitch() -> Microns {
        Microns::new(50.0)
    }

    /// Partitions the tree's sinks into square zones of the given pitch.
    /// Zones with no sinks are omitted.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive.
    #[must_use]
    pub fn partition(tree: &ClockTree, pitch: Microns) -> Self {
        assert!(pitch.value() > 0.0, "zone pitch must be positive");
        let mut map: BTreeMap<(u32, u32), Vec<NodeId>> = BTreeMap::new();
        for id in tree.leaves() {
            let p = tree.node(id).location;
            let gx = (p.x.value().max(0.0) / pitch.value()).floor() as u32;
            let gy = (p.y.value().max(0.0) / pitch.value()).floor() as u32;
            map.entry((gx, gy)).or_default().push(id);
        }
        let zones = map
            .into_iter()
            .map(|((gx, gy), sinks)| Zone { gx, gy, sinks })
            .collect();
        Self { pitch, zones }
    }

    /// The grid pitch.
    #[must_use]
    pub fn pitch(&self) -> Microns {
        self.pitch
    }

    /// The non-empty zones, ordered by grid coordinates.
    #[must_use]
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Number of non-empty zones.
    #[must_use]
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// `true` when the tree had no sinks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Mean sinks per non-empty zone (the paper reports 4.3 / 4.9 / 7.1).
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.zones.is_empty() {
            return 0.0;
        }
        let total: usize = self.zones.iter().map(|z| z.sinks.len()).sum();
        total as f64 / self.zones.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use wavemin_cells::units::Femtofarads;

    #[test]
    fn every_sink_lands_in_exactly_one_zone() {
        let tree = Benchmark::s13207().synthesize(11);
        let grid = ZoneGrid::partition(&tree, ZoneGrid::default_pitch());
        let mut seen: Vec<NodeId> = grid
            .zones()
            .iter()
            .flat_map(|z| z.sinks.iter().copied())
            .collect();
        seen.sort();
        let mut leaves = tree.leaves();
        leaves.sort();
        assert_eq!(seen, leaves);
    }

    #[test]
    fn occupancy_is_near_paper_density() {
        let tree = Benchmark::s13207().synthesize(11);
        let grid = ZoneGrid::partition(&tree, ZoneGrid::default_pitch());
        let occ = grid.mean_occupancy();
        assert!((1.5..10.0).contains(&occ), "occupancy {occ}");
    }

    #[test]
    fn zone_rect_contains_its_sinks() {
        let tree = Benchmark::s15850().synthesize(5);
        let grid = ZoneGrid::partition(&tree, ZoneGrid::default_pitch());
        for z in grid.zones() {
            let r = z.rect(grid.pitch());
            for &s in &z.sinks {
                assert!(r.contains(tree.node(s).location));
            }
        }
    }

    #[test]
    fn smaller_pitch_means_more_zones() {
        let tree = Benchmark::s13207().synthesize(11);
        let coarse = ZoneGrid::partition(&tree, Microns::new(100.0));
        let fine = ZoneGrid::partition(&tree, Microns::new(25.0));
        assert!(fine.len() > coarse.len());
    }

    #[test]
    #[should_panic(expected = "pitch must be positive")]
    fn zero_pitch_rejected() {
        let tree = Benchmark::s15850().synthesize(5);
        let _ = ZoneGrid::partition(&tree, Microns::ZERO);
    }

    #[test]
    fn empty_tree_of_sinks() {
        use crate::geom::Point;
        let tree = crate::tree::ClockTree::new(Point::new(0.0, 0.0), "BUF_X32");
        let grid = ZoneGrid::partition(&tree, Microns::new(50.0));
        assert!(grid.is_empty());
        assert_eq!(grid.mean_occupancy(), 0.0);
        let _ = Femtofarads::ZERO;
    }
}
