//! Voltage islands and power modes.
//!
//! A multiple-power-mode design partitions the die into voltage islands
//! (power domains); each power mode assigns a supply to every domain
//! (Fig. 10 of the paper uses two islands at 1.1 V / 0.9 V). Changing mode
//! changes per-island delays and therefore sink arrival times — the clock
//! skew must stay bounded in *every* mode.

use crate::geom::{Point, Rect};
use crate::timing::SupplyAssignment;
use crate::tree::ClockTree;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use wavemin_cells::units::{Microns, Volts};

/// A voltage island: a named region of the die.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PowerDomain {
    /// Domain name (e.g. `"A1"`).
    pub name: String,
    /// Die region covered by the domain.
    pub region: Rect,
}

/// One power mode: a supply voltage per domain.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PowerMode {
    /// Mode name (e.g. `"M1"`).
    pub name: String,
    /// Supply per domain, indexed like [`PowerDesign::domains`].
    pub vdd: Vec<Volts>,
}

/// The power intent of a design: domains plus the modes that drive them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PowerDesign {
    domains: Vec<PowerDomain>,
    modes: Vec<PowerMode>,
    default_vdd: Volts,
}

impl PowerDesign {
    /// A single-mode design where everything runs at `vdd`.
    #[must_use]
    pub fn uniform(vdd: Volts) -> Self {
        Self {
            domains: Vec::new(),
            modes: vec![PowerMode {
                name: "M1".to_owned(),
                vdd: Vec::new(),
            }],
            default_vdd: vdd,
        }
    }

    /// Builds a design from explicit domains and modes.
    ///
    /// # Panics
    ///
    /// Panics if any mode's supply vector length differs from the domain
    /// count, or if no modes are given.
    #[must_use]
    pub fn new(domains: Vec<PowerDomain>, modes: Vec<PowerMode>, default_vdd: Volts) -> Self {
        assert!(!modes.is_empty(), "a design needs at least one power mode");
        for m in &modes {
            assert_eq!(
                m.vdd.len(),
                domains.len(),
                "mode '{}' must assign a supply to every domain",
                m.name
            );
        }
        Self {
            domains,
            modes,
            default_vdd,
        }
    }

    /// A seeded random multi-mode design in the style of Section VII-E:
    /// the die is split into `n_domains` vertical slabs and each of the
    /// `n_modes` modes assigns 0.9 V or 1.1 V per domain (mode 0 is the
    /// all-high reference mode).
    ///
    /// # Panics
    ///
    /// Panics if `n_domains` or `n_modes` is zero.
    #[must_use]
    pub fn random(die_side: Microns, n_domains: usize, n_modes: usize, seed: u64) -> Self {
        Self::random_with_levels(
            die_side,
            n_domains,
            n_modes,
            seed,
            Volts::new(0.9),
            Volts::new(1.1),
        )
    }

    /// [`Self::random`] with explicit low/high supply levels, for studies
    /// needing larger mode-induced arrival spreads.
    ///
    /// # Panics
    ///
    /// Panics if `n_domains` or `n_modes` is zero.
    #[must_use]
    pub fn random_with_levels(
        die_side: Microns,
        n_domains: usize,
        n_modes: usize,
        seed: u64,
        low: Volts,
        high: Volts,
    ) -> Self {
        assert!(n_domains > 0 && n_modes > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let slab = die_side.value() / n_domains as f64;
        let domains: Vec<PowerDomain> = (0..n_domains)
            .map(|i| PowerDomain {
                name: format!("A{}", i + 1),
                region: Rect::new(
                    Point::new(i as f64 * slab, 0.0),
                    Point::new((i + 1) as f64 * slab, die_side.value()),
                ),
            })
            .collect();
        let modes = (0..n_modes)
            .map(|m| PowerMode {
                name: format!("M{}", m + 1),
                vdd: (0..n_domains)
                    .map(|_| {
                        if m == 0 || rng.gen_bool(0.5) {
                            high
                        } else {
                            low
                        }
                    })
                    .collect(),
            })
            .collect();
        Self::new(domains, modes, high)
    }

    /// The voltage islands.
    #[must_use]
    pub fn domains(&self) -> &[PowerDomain] {
        &self.domains
    }

    /// The power modes.
    #[must_use]
    pub fn modes(&self) -> &[PowerMode] {
        &self.modes
    }

    /// Number of power modes.
    #[must_use]
    pub fn mode_count(&self) -> usize {
        self.modes.len()
    }

    /// Supply at a die location in the given mode (first matching domain
    /// wins; the default supply applies outside every domain).
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    #[must_use]
    pub fn vdd_at(&self, location: Point, mode: usize) -> Volts {
        let m = &self.modes[mode];
        self.domains
            .iter()
            .position(|d| d.region.contains(location))
            .map_or(self.default_vdd, |i| m.vdd[i])
    }

    /// The per-node supply assignment of a tree in the given mode.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    #[must_use]
    pub fn supply_for(&self, tree: &ClockTree, mode: usize) -> SupplyAssignment {
        if self.domains.is_empty() {
            return SupplyAssignment::Uniform(self.default_vdd);
        }
        SupplyAssignment::PerNode(
            tree.ids()
                .map(|id| self.vdd_at(tree.node(id).location, mode))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;

    fn two_island_design(die: f64) -> PowerDesign {
        let left = PowerDomain {
            name: "A1".into(),
            region: Rect::new(Point::new(0.0, 0.0), Point::new(die / 2.0, die)),
        };
        let right = PowerDomain {
            name: "A2".into(),
            region: Rect::new(Point::new(die / 2.0, 0.0), Point::new(die, die)),
        };
        PowerDesign::new(
            vec![left, right],
            vec![
                PowerMode {
                    name: "M1".into(),
                    vdd: vec![Volts::new(1.1), Volts::new(1.1)],
                },
                PowerMode {
                    name: "M2".into(),
                    vdd: vec![Volts::new(1.1), Volts::new(0.9)],
                },
            ],
            Volts::new(1.1),
        )
    }

    #[test]
    fn uniform_design_has_one_mode() {
        let d = PowerDesign::uniform(Volts::new(1.1));
        assert_eq!(d.mode_count(), 1);
        assert_eq!(d.vdd_at(Point::new(5.0, 5.0), 0), Volts::new(1.1));
    }

    #[test]
    fn vdd_lookup_respects_islands() {
        let d = two_island_design(100.0);
        assert_eq!(d.vdd_at(Point::new(10.0, 50.0), 1), Volts::new(1.1));
        assert_eq!(d.vdd_at(Point::new(90.0, 50.0), 1), Volts::new(0.9));
        assert_eq!(d.vdd_at(Point::new(90.0, 50.0), 0), Volts::new(1.1));
    }

    #[test]
    fn supply_for_assigns_every_node() {
        let tree = Benchmark::s15850().synthesize(3);
        let d = two_island_design(Benchmark::s15850().die_side_um as f64);
        match d.supply_for(&tree, 1) {
            SupplyAssignment::PerNode(v) => assert_eq!(v.len(), tree.len()),
            SupplyAssignment::Uniform(_) => panic!("expected per-node supplies"),
        }
    }

    #[test]
    fn random_design_mode0_is_all_high() {
        let d = PowerDesign::random(Microns::new(200.0), 6, 4, 9);
        assert_eq!(d.mode_count(), 4);
        assert_eq!(d.domains().len(), 6);
        assert!(d.modes()[0].vdd.iter().all(|&v| v == Volts::new(1.1)));
    }

    #[test]
    fn random_design_is_reproducible() {
        let a = PowerDesign::random(Microns::new(200.0), 5, 4, 1);
        let b = PowerDesign::random(Microns::new(200.0), 5, 4, 1);
        assert_eq!(a, b);
        let c = PowerDesign::random(Microns::new(200.0), 5, 4, 2);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "every domain")]
    fn mismatched_mode_vector_rejected() {
        let d = two_island_design(100.0);
        let _ = PowerDesign::new(
            d.domains().to_vec(),
            vec![PowerMode {
                name: "bad".into(),
                vdd: vec![Volts::new(1.1)],
            }],
            Volts::new(1.1),
        );
    }
}
