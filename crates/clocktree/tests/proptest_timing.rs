//! Property-based tests for clock tree synthesis and timing analysis.

use proptest::prelude::*;
use wavemin_cells::units::{Femtofarads, Picoseconds, Volts};
use wavemin_cells::{CellLibrary, Characterizer};
use wavemin_clocktree::prelude::*;

fn arb_sinks() -> impl Strategy<Value = Vec<(Point, Femtofarads)>> {
    proptest::collection::vec((0.0..250.0f64, 0.0..250.0f64, 3.0..9.0f64), 2..24).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, c)| (Point::new(x, y), Femtofarads::new(c)))
            .collect()
    })
}

fn context() -> (CellLibrary, Characterizer) {
    (CellLibrary::nangate45(), Characterizer::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synthesis_always_yields_valid_balanced_trees(sinks in arb_sinks()) {
        let (lib, chr) = context();
        let synth = Synthesizer::new(&lib, &chr, SynthesisOptions::default());
        let tree = synth.synthesize(&sinks).unwrap();
        prop_assert_eq!(tree.validate(|c| lib.get(c).is_some()), Ok(()));
        prop_assert_eq!(tree.leaves().len(), sinks.len());
        let skew = synth.measure_skew(&tree).unwrap();
        prop_assert!(skew.value() < 1.0, "skew {} too large", skew);
    }

    #[test]
    fn arrivals_are_monotone_down_every_path(sinks in arb_sinks()) {
        let (lib, chr) = context();
        let synth = Synthesizer::new(&lib, &chr, SynthesisOptions::default());
        let tree = synth.synthesize(&sinks).unwrap();
        let timing = Timing::analyze(
            &tree, &lib, &chr, WireModel::default(),
            &SupplyAssignment::Uniform(Volts::new(1.1)), None,
        ).unwrap();
        for (id, node) in tree.iter() {
            prop_assert!(timing.output_arrival[id.0] >= timing.input_arrival[id.0]);
            if let Some(p) = node.parent() {
                prop_assert!(
                    timing.input_arrival[id.0].value()
                        >= timing.output_arrival[p.0].value() - 1e-9
                );
            }
        }
    }

    #[test]
    fn lower_supply_never_speeds_anything_up(sinks in arb_sinks()) {
        let (lib, chr) = context();
        let synth = Synthesizer::new(&lib, &chr, SynthesisOptions::default());
        let tree = synth.synthesize(&sinks).unwrap();
        let hi = Timing::analyze(
            &tree, &lib, &chr, WireModel::default(),
            &SupplyAssignment::Uniform(Volts::new(1.1)), None,
        ).unwrap();
        let lo = Timing::analyze(
            &tree, &lib, &chr, WireModel::default(),
            &SupplyAssignment::Uniform(Volts::new(0.9)), None,
        ).unwrap();
        for id in tree.ids() {
            prop_assert!(lo.output_arrival[id.0] >= hi.output_arrival[id.0]);
        }
    }

    #[test]
    fn extra_delay_shifts_exactly_one_subtree(sinks in arb_sinks(), extra in 1.0..40.0f64) {
        let (lib, chr) = context();
        let synth = Synthesizer::new(&lib, &chr, SynthesisOptions::default());
        let tree = synth.synthesize(&sinks).unwrap();
        let leaf = tree.leaves()[0];
        let supply = SupplyAssignment::Uniform(Volts::new(1.1));
        let base = Timing::analyze(&tree, &lib, &chr, WireModel::default(), &supply, None).unwrap();
        let mut adj = wavemin_clocktree::timing::TimingAdjust::identity();
        adj.set_extra_delay(leaf, Picoseconds::new(extra));
        let shifted =
            Timing::analyze(&tree, &lib, &chr, WireModel::default(), &supply, Some(&adj)).unwrap();
        for id in tree.leaves() {
            let delta = (shifted.output_arrival[id.0] - base.output_arrival[id.0]).value();
            if id == leaf {
                prop_assert!((delta - extra).abs() < 1e-9);
            } else {
                prop_assert!(delta.abs() < 1e-9);
            }
        }
    }

    #[test]
    fn timing_is_invariant_under_fanout_order(sinks in arb_sinks()) {
        let (lib, chr) = context();
        let synth = Synthesizer::new(&lib, &chr, SynthesisOptions::default());
        let tree = synth.synthesize(&sinks).unwrap();
        let mut canon = tree.clone();
        canon.canonicalize();
        let supply = SupplyAssignment::Uniform(Volts::new(1.1));
        let a = Timing::analyze(&tree, &lib, &chr, WireModel::default(), &supply, None).unwrap();
        let b = Timing::analyze(&canon, &lib, &chr, WireModel::default(), &supply, None).unwrap();
        for id in tree.ids() {
            prop_assert!((a.output_arrival[id.0] - b.output_arrival[id.0]).abs().value() < 1e-9);
            prop_assert!((a.load[id.0] - b.load[id.0]).abs().value() < 1e-9);
        }
    }

    #[test]
    fn tree_io_roundtrip_preserves_timing(sinks in arb_sinks()) {
        let (lib, chr) = context();
        let synth = Synthesizer::new(&lib, &chr, SynthesisOptions::default());
        let tree = synth.synthesize(&sinks).unwrap();
        let text = wavemin_clocktree::io::write_tree(&tree);
        let back = wavemin_clocktree::io::read_tree(&text).unwrap();
        let supply = SupplyAssignment::Uniform(Volts::new(1.1));
        let a = Timing::analyze(&tree, &lib, &chr, WireModel::default(), &supply, None).unwrap();
        let b = Timing::analyze(&back, &lib, &chr, WireModel::default(), &supply, None).unwrap();
        prop_assert!((a.skew(&tree) - b.skew(&back)).abs().value() < 1e-9);
    }

    #[test]
    // Membership and count only; the map is never iterated.
    #[allow(clippy::disallowed_types)]
    fn zone_partition_is_exact_and_disjoint(sinks in arb_sinks(), pitch in 20.0..120.0f64) {
        let (lib, chr) = context();
        let synth = Synthesizer::new(&lib, &chr, SynthesisOptions::default());
        let tree = synth.synthesize(&sinks).unwrap();
        let grid = ZoneGrid::partition(&tree, wavemin_cells::units::Microns::new(pitch));
        let mut seen = std::collections::HashSet::new();
        for z in grid.zones() {
            for &s in &z.sinks {
                prop_assert!(seen.insert(s), "sink in two zones");
                prop_assert!(z.rect(grid.pitch()).contains(tree.node(s).location));
            }
        }
        prop_assert_eq!(seen.len(), tree.leaves().len());
    }

    #[test]
    fn variation_multipliers_shift_skew_boundedly(sinks in arb_sinks(), seed in 0u64..1000) {
        use rand::SeedableRng;
        let (lib, chr) = context();
        let synth = Synthesizer::new(&lib, &chr, SynthesisOptions::default());
        let tree = synth.synthesize(&sinks).unwrap();
        let model = wavemin_clocktree::variation::VariationModel::default();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let v = model.sample(&tree, &mut rng);
        let supply = SupplyAssignment::Uniform(Volts::new(1.1));
        let varied = Timing::analyze(
            &tree, &lib, &chr, WireModel::default(), &supply, Some(&v.timing),
        ).unwrap();
        // 5 % sigma, clamped to ±50 %: skew stays below half the total
        // insertion delay.
        let max_arrival = tree
            .leaves()
            .iter()
            .map(|l| varied.output_arrival[l.0].value())
            .fold(0.0f64, f64::max);
        prop_assert!(varied.skew(&tree).value() <= 0.5 * max_arrival);
    }
}
