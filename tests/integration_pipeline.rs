//! Cross-crate consistency checks: the same physical quantities seen
//! through different layers (characterizer ↔ noise table ↔ evaluator ↔
//! power grid) must agree.

use wavemin::prelude::*;
use wavemin_cells::characterize::{ClockEdge, Rail};
use wavemin_cells::units::{MicroAmps, Microns, Picoseconds};
use wavemin_pgrid::{GridOptions, PowerGrid};

fn design() -> Design {
    Design::from_benchmark(&Benchmark::s15850(), 11)
}

#[test]
fn noise_table_matches_direct_characterization() {
    let d = design();
    let cfg = WaveMinConfig::default();
    let table = NoiseTable::build(&d, &cfg, 0).unwrap();
    let timing = d.timing(0).unwrap();
    for entry in &table.sinks {
        let node = d.tree.node(entry.node);
        assert_eq!(entry.input_arrival, timing.input_arrival[entry.node.0]);
        assert_eq!(entry.load, node.sink_cap);
        // The BUF_X8 option's delay must equal what timing analysis uses
        // for the current BUF_X8 leaf (same characterizer, same inputs).
        let opt = entry
            .options
            .iter()
            .find(|o| o.cell == "BUF_X8")
            .expect("initial cell is a candidate");
        let slew = timing.input_slew[entry.node.0].max(cfg.profiling_slew);
        let (t_d, _) = d.chr.timing(
            d.lib.get("BUF_X8").unwrap(),
            node.sink_cap,
            slew,
            wavemin_cells::units::Volts::new(1.1),
            entry.input_edge,
        );
        assert!((opt.delay - t_d).abs().value() < 1e-9);
    }
}

#[test]
fn evaluator_total_equals_sum_of_node_waveforms() {
    let d = design();
    let eval = NoiseEvaluator::new(&d);
    let (per_node, total) = eval.waveforms(0).unwrap();
    for (rail, event) in wavemin::noise_table::EventWaveforms::SLOTS {
        let t = total.get(rail, event).peak_time();
        let Some(t) = t else { continue };
        let manual: f64 = per_node
            .iter()
            .map(|w| w.get(rail, event).sample(t).value())
            .sum();
        let direct = total.get(rail, event).sample(t).value();
        assert!(
            (manual - direct).abs() < 1e-6,
            "{rail:?}/{event:?}: {manual} vs {direct}"
        );
    }
}

#[test]
fn grid_noise_scales_with_injected_current() {
    // Doubling every node's current must double the IR drop (linearity of
    // the resistive mesh as used by the evaluator).
    let d = design();
    let (per_node, total) = NoiseEvaluator::new(&d).waveforms(0).unwrap();
    let t_star = total.vdd_rise.peak_time().unwrap();
    let grid = PowerGrid::over_die(
        Microns::new(d.tree.iter().fold(50.0_f64, |m, (_, n)| {
            m.max(n.location.x.value()).max(n.location.y.value())
        })),
        GridOptions::default(),
    );
    let base: Vec<((f64, f64), MicroAmps)> = d
        .tree
        .iter()
        .map(|(id, n)| {
            (
                (n.location.x.value(), n.location.y.value()),
                per_node[id.0]
                    .get(Rail::Vdd, ClockEdge::Rise)
                    .sample(t_star),
            )
        })
        .collect();
    let doubled: Vec<((f64, f64), MicroAmps)> = base.iter().map(|&(p, i)| (p, i * 2.0)).collect();
    let v1 = grid.ir_drop(&base).value();
    let v2 = grid.ir_drop(&doubled).value();
    assert!((v2 - 2.0 * v1).abs() < 0.05 * v2.max(1e-9), "{v1} vs {v2}");
}

#[test]
fn charge_conservation_through_the_stack() {
    // Total charge of a leaf's table waveform equals the charge of a fresh
    // characterization with the same operating point.
    let d = design();
    let cfg = WaveMinConfig::default();
    let table = NoiseTable::build(&d, &cfg, 0).unwrap();
    let timing = d.timing(0).unwrap();
    let entry = &table.sinks[0];
    let slew = timing.input_slew[entry.node.0].max(cfg.profiling_slew);
    let profile = d.chr.characterize(
        d.lib.get("INV_X8").unwrap(),
        entry.load,
        slew,
        wavemin_cells::units::Volts::new(1.1),
    );
    let opt = entry.options.iter().find(|o| o.cell == "INV_X8").unwrap();
    // Shifting does not change charge.
    let direct = match entry.input_edge {
        ClockEdge::Rise => profile.idd_rise.charge_fc(),
        ClockEdge::Fall => profile.idd_fall.charge_fc(),
    };
    assert!((opt.waves.vdd_rise.charge_fc() - direct).abs() < 1e-9);
}

#[test]
fn mosp_solution_is_reproducible_from_pieces() {
    // Build a WaveMin-shaped MOSP graph by hand and check the solver picks
    // the same kind of min-max split the optimizer relies on.
    use wavemin_mosp::{solve, MospGraph};
    let mut g = MospGraph::new(4);
    let src = g.add_vertex();
    let a_buf = g.add_vertex();
    let a_inv = g.add_vertex();
    let b_buf = g.add_vertex();
    let b_inv = g.add_vertex();
    let dest = g.add_vertex();
    // slots: [vdd_rise, gnd_rise, vdd_fall, gnd_fall]
    let buf = vec![100.0, 10.0, 10.0, 90.0];
    let inv = vec![10.0, 90.0, 100.0, 10.0];
    g.add_arc(src, a_buf, buf.clone()).unwrap();
    g.add_arc(src, a_inv, inv.clone()).unwrap();
    for u in [a_buf, a_inv] {
        g.add_arc(u, b_buf, buf.clone()).unwrap();
        g.add_arc(u, b_inv, inv.clone()).unwrap();
    }
    for u in [b_buf, b_inv] {
        g.add_arc(u, dest, vec![0.0; 4]).unwrap();
    }
    let set = solve::warburton(&g, src, dest, 0.01, None, &Budget::unlimited(), None).unwrap();
    let best = set.min_max().unwrap();
    // Min-max splits one buffer + one inverter: worst slot 110.
    assert!((best.max_component() - 110.0).abs() < 2.0);
    let used_buf = best.vertices.contains(&a_buf) || best.vertices.contains(&b_buf);
    let used_inv = best.vertices.contains(&a_inv) || best.vertices.contains(&b_inv);
    assert!(used_buf && used_inv);
}

#[test]
fn timing_is_stable_under_identity_adjust() {
    use wavemin_clocktree::timing::TimingAdjust;
    let d = design();
    let supply = d.power.supply_for(&d.tree, 0);
    let plain = Timing::analyze(&d.tree, &d.lib, &d.chr, d.wire, &supply, None).unwrap();
    let adjusted = Timing::analyze(
        &d.tree,
        &d.lib,
        &d.chr,
        d.wire,
        &supply,
        Some(&TimingAdjust::identity()),
    )
    .unwrap();
    assert_eq!(plain, adjusted);
    let _ = Picoseconds::ZERO;
}
