//! Synthetic benchmark circuits.
//!
//! The paper evaluates on five ISCAS'89 circuits and two ISPD'09 CTS
//! contest benchmarks, synthesized with a commercial flow. We generate
//! synthetic designs whose **buffering-element counts match Table V
//! exactly** (`n` total nodes, `|L|` leaves) and whose sink density matches
//! the paper's reported zone occupancy (≈4.3 sinks per 50×50 µm zone for
//! ISCAS'89, ≈4.9 for ISPD'09, 7.1 for s35932). Placements are seeded and
//! reproducible.

use crate::geom::Point;
use crate::synthesis::{SynthesisOptions, Synthesizer};
use crate::tree::ClockTree;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use wavemin_cells::units::Femtofarads;
use wavemin_cells::{CellLibrary, Characterizer};

/// A benchmark circuit description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Benchmark {
    /// Circuit name (e.g. `"s35932"`).
    pub name: String,
    /// Total buffering elements, the paper's `n` (leaves + non-leaves).
    pub total_nodes: usize,
    /// Leaf buffering elements, the paper's `|L|`.
    pub leaf_count: usize,
    /// Die side length in microns.
    pub die_side_um: u32,
    /// Clustering arity used during synthesis.
    pub arity: usize,
}

impl Benchmark {
    /// `s13207` — Table V: n = 58, |L| = 50.
    #[must_use]
    pub fn s13207() -> Self {
        Self::iscas("s13207", 58, 50)
    }

    /// `s15850` — Table V: n = 22, |L| = 19.
    #[must_use]
    pub fn s15850() -> Self {
        Self::iscas("s15850", 22, 19)
    }

    /// `s35932` — Table V: n = 323, |L| = 246 (denser: 7.1 sinks/zone).
    #[must_use]
    pub fn s35932() -> Self {
        let die = zone_grid_side(246, 7.1);
        Self::with_counts("s35932", 323, 246, die)
    }

    /// `s38417` — Table V: n = 304, |L| = 228.
    #[must_use]
    pub fn s38417() -> Self {
        Self::iscas("s38417", 304, 228)
    }

    /// `s38584` — Table V: n = 210, |L| = 169.
    #[must_use]
    pub fn s38584() -> Self {
        Self::iscas("s38584", 210, 169)
    }

    /// `ispd09f31` — Table V: n = 328, |L| = 111 (deep repeater chains).
    #[must_use]
    pub fn ispd09f31() -> Self {
        let die = zone_grid_side(111, 4.9);
        Self::with_counts("ispd09f31", 328, 111, die)
    }

    /// `ispd09f34` — Table V: n = 210, |L| = 69.
    #[must_use]
    pub fn ispd09f34() -> Self {
        let die = zone_grid_side(69, 4.9);
        Self::with_counts("ispd09f34", 210, 69, die)
    }

    /// All seven benchmark circuits of Table V, in paper order.
    #[must_use]
    pub fn all() -> Vec<Self> {
        vec![
            Self::s13207(),
            Self::s15850(),
            Self::s35932(),
            Self::s38417(),
            Self::s38584(),
            Self::ispd09f31(),
            Self::ispd09f34(),
        ]
    }

    /// A synthetic scale benchmark: `leaves` sinks at the ISCAS zone
    /// density (≈4.3 sinks per 50 µm zone), clustering arity 8, and a
    /// node budget equal to the cluster tree exactly — no repeater
    /// padding, whose longest-wire scan is O(n) *per repeater* and
    /// would dominate synthesis at 10⁵+ sinks.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero.
    #[must_use]
    pub fn scale(name: impl Into<String>, leaves: usize) -> Self {
        assert!(leaves >= 1, "benchmark needs at least one sink");
        let arity = 8;
        Self {
            name: name.into(),
            total_nodes: leaves + cluster_internal_count(leaves, arity),
            leaf_count: leaves,
            die_side_um: zone_grid_side(leaves, 4.3),
            arity,
        }
    }

    /// A custom benchmark with explicit counts.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_count` is zero or exceeds `total_nodes - 1` (at
    /// least a source must exist).
    #[must_use]
    pub fn with_counts(
        name: impl Into<String>,
        total_nodes: usize,
        leaf_count: usize,
        die_side_um: u32,
    ) -> Self {
        assert!(leaf_count >= 1, "benchmark needs at least one sink");
        assert!(
            total_nodes > leaf_count,
            "total nodes must exceed leaf count (source + internals)"
        );
        let internal = total_nodes - leaf_count;
        // Pick the smallest arity whose cluster tree needs no more
        // internals than the target; repeaters make up any shortfall.
        let mut arity = 2;
        while arity < 16 && cluster_internal_count(leaf_count, arity) > internal {
            arity += 1;
        }
        Self {
            name: name.into(),
            total_nodes,
            leaf_count,
            die_side_um,
            arity,
        }
    }

    fn iscas(name: &str, total: usize, leaves: usize) -> Self {
        Self::with_counts(name, total, leaves, zone_grid_side(leaves, 4.3))
    }

    /// Generates the seeded sink placement: `leaf_count` sinks uniform in
    /// the die with FF loads in 3–9 fF.
    #[must_use]
    pub fn sinks(&self, seed: u64) -> Vec<(Point, Femtofarads)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ hash_name(&self.name));
        let side = self.die_side_um as f64;
        (0..self.leaf_count)
            .map(|_| {
                (
                    Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
                    Femtofarads::new(rng.gen_range(3.0..9.0)),
                )
            })
            .collect()
    }

    /// Synthesizes the benchmark tree with the default library and
    /// characterizer, then pads with chain repeaters until the total node
    /// count matches `n` exactly.
    ///
    /// # Panics
    ///
    /// Panics if synthesis fails (the default library always contains the
    /// configured cells).
    // Convenience wrapper whose panic is the documented contract; the
    // fallible form is `synthesize_with`.
    #[allow(clippy::expect_used)]
    #[must_use]
    pub fn synthesize(&self, seed: u64) -> ClockTree {
        let lib = CellLibrary::nangate45();
        let chr = Characterizer::default();
        self.synthesize_with(&lib, &chr, seed)
            .expect("default library covers all synthesis cells")
    }

    /// Synthesizes with an explicit library and characterizer.
    ///
    /// # Errors
    ///
    /// Returns a timing error if a configured cell is missing from `lib`.
    pub fn synthesize_with(
        &self,
        lib: &CellLibrary,
        chr: &Characterizer,
        seed: u64,
    ) -> Result<ClockTree, crate::timing::TimingError> {
        let options = SynthesisOptions {
            arity: self.arity,
            ..SynthesisOptions::default()
        };
        self.synthesize_with_options(lib, chr, seed, options)
    }

    /// Synthesizes with explicit synthesis options (the options' `arity`
    /// is honored as given — set it to `self.arity` to match the node
    /// budget exactly).
    ///
    /// # Errors
    ///
    /// Returns a timing error if a configured cell is missing from `lib`.
    pub fn synthesize_with_options(
        &self,
        lib: &CellLibrary,
        chr: &Characterizer,
        seed: u64,
        options: SynthesisOptions,
    ) -> Result<ClockTree, crate::timing::TimingError> {
        let synth = Synthesizer::new(lib, chr, options);
        let mut tree = synth.synthesize(&self.sinks(seed))?;

        // Pad with chain repeaters on the longest wires until n matches.
        let had_repeaters = tree.len() < self.total_nodes;
        while tree.len() < self.total_nodes {
            let longest = tree.ids().filter(|&id| id != tree.root()).max_by(|&a, &b| {
                tree.node(a)
                    .wire_to_parent
                    .value()
                    .total_cmp(&tree.node(b).wire_to_parent.value())
            });
            // A root-only tree has no wire to split; stop padding.
            let Some(longest) = longest else { break };
            tree.insert_repeater(longest, "BUF_X16");
        }
        if had_repeaters {
            // Repeaters add delay on their paths: re-equalize.
            synth.equalize_skew(&mut tree)?;
        }
        Ok(tree)
    }
}

/// Die side (µm) giving the requested sinks-per-zone density on a square
/// grid of 50 µm zones.
fn zone_grid_side(leaves: usize, per_zone: f64) -> u32 {
    let zones = (leaves as f64 / per_zone).max(1.0);
    let grid = zones.sqrt().ceil() as u32;
    grid.max(1) * 50
}

/// Internal node count of an `arity`-ary bottom-up cluster tree over
/// `leaves` sinks (including the root/source).
fn cluster_internal_count(leaves: usize, arity: usize) -> usize {
    let mut count = 1; // source
    let mut level = leaves;
    while level > 1 {
        level = level.div_ceil(arity);
        if level > 1 {
            count += level;
        }
    }
    // The last clustering step merges into the source itself.
    count
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_counts_are_exact() {
        for (bench, n, l) in [
            (Benchmark::s13207(), 58, 50),
            (Benchmark::s15850(), 22, 19),
            (Benchmark::s35932(), 323, 246),
            (Benchmark::s38417(), 304, 228),
            (Benchmark::s38584(), 210, 169),
            (Benchmark::ispd09f31(), 328, 111),
            (Benchmark::ispd09f34(), 210, 69),
        ] {
            assert_eq!(bench.total_nodes, n, "{}", bench.name);
            assert_eq!(bench.leaf_count, l, "{}", bench.name);
        }
    }

    #[test]
    fn synthesized_counts_match_spec() {
        // The two smallest plus the repeater-heavy f34 keep this test fast.
        for bench in [
            Benchmark::s15850(),
            Benchmark::s13207(),
            Benchmark::ispd09f34(),
        ] {
            let tree = bench.synthesize(7);
            assert_eq!(tree.len(), bench.total_nodes, "{} n", bench.name);
            assert_eq!(tree.leaves().len(), bench.leaf_count, "{} |L|", bench.name);
            assert_eq!(tree.validate(|_| true), Ok(()));
        }
    }

    #[test]
    fn placement_is_seeded_and_reproducible() {
        let b = Benchmark::s13207();
        assert_eq!(b.sinks(1), b.sinks(1));
        assert_ne!(b.sinks(1), b.sinks(2));
    }

    #[test]
    fn different_circuits_differ_under_same_seed() {
        assert_ne!(
            Benchmark::s13207().sinks(1).len(),
            Benchmark::s15850().sinks(1).len()
        );
        let a = Benchmark::ispd09f31().sinks(1);
        let b =
            Benchmark::with_counts("other", 328, 111, Benchmark::ispd09f31().die_side_um).sinks(1);
        assert_ne!(a, b, "name participates in the seed");
    }

    #[test]
    fn die_sizes_match_zone_density() {
        // s13207: 50 sinks at 4.3 per 50 µm zone -> ~12 zones -> 4x4 grid.
        assert_eq!(Benchmark::s13207().die_side_um, 200);
        // s35932 uses the paper's 7.1 per-zone density.
        assert_eq!(Benchmark::s35932().die_side_um, 300);
    }

    #[test]
    fn all_returns_seven_in_paper_order() {
        let all = Benchmark::all();
        assert_eq!(all.len(), 7);
        assert_eq!(all[0].name, "s13207");
        assert_eq!(all[6].name, "ispd09f34");
    }

    #[test]
    #[should_panic(expected = "at least one sink")]
    fn zero_leaves_rejected() {
        let _ = Benchmark::with_counts("bad", 5, 0, 100);
    }

    #[test]
    #[should_panic(expected = "must exceed leaf count")]
    fn too_few_totals_rejected() {
        let _ = Benchmark::with_counts("bad", 10, 10, 100);
    }

    #[test]
    fn scale_benchmark_needs_no_repeater_padding() {
        let b = Benchmark::scale("scale4k", 4096);
        assert_eq!(b.leaf_count, 4096);
        assert_eq!(b.arity, 8);
        let tree = b.synthesize(42);
        assert_eq!(tree.len(), b.total_nodes, "no padding loop at scale");
        assert_eq!(tree.leaves().len(), 4096);
        assert_eq!(tree.validate(|_| true), Ok(()));
    }

    #[test]
    fn sink_caps_in_range() {
        for (_, cap) in Benchmark::s38584().sinks(3) {
            assert!((3.0..9.0).contains(&cap.value()));
        }
    }
}
