//! Real-design front-end: SDF import/export lowering into [`Design`].
//!
//! [`import_sdf`] recovers the clock-tree topology (driver → load edges
//! from `INTERCONNECT`) and every node's arrival time (accumulating
//! `IOPATH` + net delays from the root) from a signoff SDF file, then
//! lowers it into the workspace's native [`Design`]: zero-length wires, a
//! default sink load, and a per-node `delay_trim` that makes the analytic
//! timing model reproduce the SDF arrival at each sink bit-for-bit.
//! The trim solve uses [`exact_addend`]-style ulp nudging so the imported
//! design's `Timing::analyze` output equals the SDF-declared arrivals
//! exactly, not just to a tolerance — which is what makes the
//! export → import round-trip a usable oracle. A sink the floating-point
//! chain cannot land on keeps the nearest arrival it can reach and is
//! counted in [`ImportedDesign::inexact_sinks`].
//!
//! [`export_sdf`] is the inverse: it renders a design's mode-0 timing as
//! the minimal SDF subset the importer reads, with `IOPATH`/`INTERCONNECT`
//! values chosen so the importer's delay chain reproduces the original
//! arrivals exactly.
//!
//! Known gaps (documented in DESIGN.md): wire parasitics are absorbed
//! into trims rather than reconstructed as RC segments, sink capacitances
//! default to 4 fF (SDF carries no loads), and placement is a synthetic
//! depth×index grid (SDF carries no geometry).

pub mod sdf;

use crate::design::Design;
use crate::error::WaveMinError;
use sdf::{SdfCell, SdfError, SdfFile, SdfInterconnect, SdfIoPath};
use std::collections::{HashMap, VecDeque};
use wavemin_cells::characterize::ClockEdge;
use wavemin_cells::units::{Femtofarads, Microns, Picoseconds, Volts};
use wavemin_cells::{CellLibrary, CellSpec, Polarity};
use wavemin_clocktree::prelude::{ClockTree, NodeId, Point, PowerDesign};

/// A design lowered from an SDF file, with the import-side bookkeeping
/// the CLI and tests report.
#[derive(Debug, Clone)]
pub struct ImportedDesign {
    /// The validated design.
    pub design: Design,
    /// SDF instance name of each node, indexed by arena id.
    pub instances: Vec<String>,
    /// Per-sink `(instance, arrival)` recovered from the SDF delay chain,
    /// in arena order. The lowered design's own timing analysis
    /// reproduces these exactly, except at the [`inexact_sinks`](Self::inexact_sinks).
    pub sink_arrivals: Vec<(String, Picoseconds)>,
    /// Max − min sink arrival: the skew the SDF describes. A useful
    /// sanity anchor for choosing `--kappa`.
    pub recovered_skew: Picoseconds,
    /// Sinks whose lowered arrival still differs from the SDF chain
    /// target after the sink-cap walk (see the trim solve in
    /// [`import_sdf`]). On the seed-42 scale exports each one is off by
    /// a single ulp.
    pub inexact_sinks: usize,
}

/// The next representable f64 toward `+inf` (bit-level; total-order walk
/// over finite values).
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

fn next_down(x: f64) -> f64 {
    -next_up(-x)
}

/// Finds `x` such that the rounded sum `base + x` equals `target`
/// **exactly** (bit-for-bit), when such an `x` exists near the naive
/// difference. Starts from `target - base` and walks outward one ulp at a
/// time (bounded), since the naive difference can be off by a few ulps
/// after rounding. Falls back to the naive difference if no exact addend
/// exists within the walk (possible when `|base| >> |target|`).
fn exact_addend(base: f64, target: f64) -> f64 {
    let start = target - base;
    if !start.is_finite() {
        return start;
    }
    if base + start == target {
        return start;
    }
    let mut up = start;
    let mut down = start;
    for _ in 0..64 {
        up = next_up(up);
        if base + up == target {
            return up;
        }
        down = next_down(down);
        if base + down == target {
            return down;
        }
    }
    start
}

fn flip(edge: ClockEdge) -> ClockEdge {
    match edge {
        ClockEdge::Rise => ClockEdge::Fall,
        ClockEdge::Fall => ClockEdge::Rise,
    }
}

/// Imports an SDF file, lowering it into a validated [`Design`].
///
/// Topology comes from `INTERCONNECT` edges (driver instance → load
/// instance, single driver per load, one undriven root); arrival times
/// accumulate the typ `IOPATH` + net delays down from the root, choosing
/// the rise or fall `IOPATH` slot according to the clock edge each
/// instance sees (negative-polarity cells flip the edge, as in
/// `Timing::analyze`). Every library cell named by a `CELLTYPE` must
/// exist in `lib`.
///
/// # Errors
///
/// [`WaveMinError::Sdf`] for syntax or topology problems,
/// [`WaveMinError::MissingCell`] for unknown `CELLTYPE`s, and any
/// [`Design::validate`] error for lowered designs that are structurally
/// valid SDF but unusable inputs.
pub fn import_sdf(text: &str, lib: CellLibrary) -> Result<ImportedDesign, WaveMinError> {
    let file = sdf::parse(text).map_err(WaveMinError::Sdf)?;
    let cells = &file.cells;

    // Intern every declared instance once, as its index into `cells`.
    // Top-scope entries (empty INSTANCE) contribute nets only.
    let mut index: HashMap<&str, usize> = HashMap::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        if cell.instance.is_empty() {
            continue;
        }
        if cell.celltype.is_empty() {
            return Err(SdfError::EmptyCellType(cell.instance.clone()).into());
        }
        if index.insert(&cell.instance, i).is_some() {
            return Err(SdfError::DuplicateInstance(cell.instance.clone()).into());
        }
    }
    if index.is_empty() {
        return Err(SdfError::NoCells.into());
    }

    // Tree edges, in file order: each load's (driver, net delay) and each
    // driver's loads. One driver per load.
    let mut driver: Vec<Option<(usize, f64)>> = vec![None; cells.len()];
    let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); cells.len()];
    for net in cells.iter().flat_map(|c| &c.interconnects) {
        let lookup = |port: &str| {
            let name = sdf::instance_of(port);
            index
                .get(name)
                .copied()
                .ok_or_else(|| SdfError::UnknownInstance(name.to_owned()))
        };
        let p = lookup(&net.from)?;
        let c = lookup(&net.to)?;
        if driver[c].is_some() {
            return Err(SdfError::MultipleDrivers(cells[c].instance.clone()).into());
        }
        driver[c] = Some((p, net.delay));
        fanout[p].push(c);
    }
    let name_of = |i: &usize| cells[*i].instance.as_str();

    // Exactly one undriven instance: the clock root. Errors name the
    // smallest names, so they do not depend on CELL-entry order.
    let mut undriven: Vec<usize> = index
        .values()
        .copied()
        .filter(|&i| driver[i].is_none())
        .collect();
    undriven.sort_unstable_by_key(name_of);
    let root = match undriven[..] {
        [] => return Err(SdfError::NoRoot.into()),
        [root] => root,
        [a, b, ..] => {
            return Err(SdfError::MultipleRoots(
                cells[a].instance.clone(),
                cells[b].instance.clone(),
            )
            .into())
        }
    };

    // BFS from the root, children sorted by instance name so arena order
    // (and therefore zones, sampling, goldens) is deterministic under
    // CELL-entry reordering. Placement is a synthetic depth × index grid:
    // unique coordinates per node (the duplicate-sink validation keys on
    // location bits), no geometric meaning.
    for kids in &mut fanout {
        kids.sort_unstable_by_key(name_of);
    }
    let polarity_of = |celltype: &str| -> Result<Polarity, WaveMinError> {
        lib.get(celltype)
            .map(CellSpec::polarity)
            .ok_or_else(|| WaveMinError::MissingCell(celltype.to_owned()))
    };

    let mut tree = ClockTree::new(Point::new(0.0, 0.0), cells[root].celltype.clone());
    let mut instances: Vec<String> = vec![cells[root].instance.clone()];
    let mut reached = vec![false; cells.len()];
    reached[root] = true;
    // Per-arena-id arrival targets from the SDF delay chain.
    let mut target_in: Vec<f64> = vec![0.0];
    let mut target_out: Vec<f64> = vec![0.0];
    let mut edge_in: Vec<ClockEdge> = vec![ClockEdge::Rise];

    let mut queue: VecDeque<(usize, NodeId, usize)> = VecDeque::new();
    queue.push_back((root, tree.root(), 0));
    while let Some((inst, id, depth)) = queue.pop_front() {
        let cell = &cells[inst];
        let out_edge = match polarity_of(&cell.celltype)? {
            Polarity::Positive => edge_in[id.0],
            Polarity::Negative => flip(edge_in[id.0]),
        };
        let (rise, fall) = cell
            .iopaths
            .first()
            .map_or((0.0, 0.0), |io| (io.rise, io.fall));
        let iopath = match out_edge {
            ClockEdge::Rise => rise,
            ClockEdge::Fall => fall,
        };
        target_out[id.0] = target_in[id.0] + iopath;

        for &child in &fanout[inst] {
            let celltype = cells[child].celltype.clone();
            let arena = tree.len();
            let location = Point::new((depth + 1) as f64 * 100.0, arena as f64 * 10.0);
            let child_id = if fanout[child].is_empty() {
                tree.add_leaf(id, location, celltype, Microns::ZERO, Femtofarads::new(4.0))
            } else {
                tree.add_internal(id, location, celltype, Microns::ZERO)
            };
            let net_delay = driver[child].map_or(0.0, |(_, d)| d);
            instances.push(cells[child].instance.clone());
            reached[child] = true;
            target_in.push(target_out[id.0] + net_delay);
            target_out.push(0.0);
            edge_in.push(out_edge);
            debug_assert_eq!(child_id.0, arena);
            queue.push_back((child, child_id, depth + 1));
        }
    }

    // Anything not reached from the root means the nets form a cycle or
    // a detached island — not a clock tree.
    if instances.len() != index.len() {
        if let Some(missing) = index
            .values()
            .filter(|&&i| !reached[i])
            .min_by_key(|&i| name_of(i))
        {
            return Err(SdfError::NotATree(cells[*missing].instance.clone()).into());
        }
    }

    let mut design = Design::new(tree, lib, PowerDesign::uniform(Volts::new(1.1)));

    // Trim solve: one zero-trim timing pass gives every node's load, slew
    // and edge (all trim-independent), hence its exact model delay t_d.
    // Each node's input is then pinned to the SDF chain with a delay_trim
    // chosen by ulp-nudging so floating-point addition lands exactly;
    // leaves pin their *output* (the sink arrival) with a two-level solve.
    let timing = design.timing(0)?;
    let supply = design.power.supply_for(&design.tree, 0);
    let n = design.tree.len();
    let mut out_actual = vec![0.0f64; n];
    let mut inexact_sinks = 0usize;
    let order = design.tree.topological_order();
    for id in order {
        let node = design.tree.node(id);
        let cell = design
            .lib
            .get(&node.cell)
            .ok_or_else(|| WaveMinError::MissingCell(node.cell.clone()))?;
        let (t_d, _) = design.chr.timing(
            cell,
            timing.load[id.0],
            timing.input_slew[id.0],
            supply.at(id),
            timing.input_edge[id.0],
        );
        let t_d = t_d.value();
        let Some(parent) = node.parent() else {
            out_actual[id.0] = 0.0 + t_d;
            continue;
        };
        let is_leaf = node.is_leaf();
        if is_leaf {
            // Pin the *output* (the sink arrival) with a two-level solve:
            // first an input that adds with t_d to the target, then a trim
            // that lands on that input. The sink capacitance is this
            // leaf's only load (zero wire, no children), so nudging it by
            // an ulp perturbs t_d without disturbing the parent or any
            // sibling; walk it until the addition chain lands bit-for-bit.
            //
            // Not every sink can land. When the parent output sits at a
            // half-ulp offset in the sink input's binade (the parent is
            // in a lower binade, with a finer ulp) and the trim needs
            // that coarser ulp too, `out_p + trim` is always a
            // round-to-nearest-even tie, so only even inputs can be
            // produced. One cap ulp moves t_d by about a seventh of a t_d
            // ulp, far below an input ulp, so the walk cannot move
            // in_desired either. Such sinks keep the nearest arrival and
            // are counted in `inexact_sinks`.
            let target = target_out[id.0];
            let out_p = out_actual[parent.0];
            let slew = timing.input_slew[id.0];
            let vdd = supply.at(id);
            let edge = timing.input_edge[id.0];
            let mut cap = design.tree.node(id).sink_cap.value();
            let mut t_d = t_d;
            let mut in_desired = exact_addend(t_d, target);
            let mut trim = exact_addend(out_p, in_desired);
            for _ in 0..256 {
                if t_d + in_desired == target && out_p + trim == in_desired {
                    break;
                }
                cap = next_up(cap);
                let (nudged, _) = design
                    .chr
                    .timing(cell, Femtofarads::new(cap), slew, vdd, edge);
                // Most steps leave t_d's bits, hence in_desired and trim
                // (pure functions of them), unchanged.
                if nudged.value().to_bits() == t_d.to_bits() {
                    continue;
                }
                t_d = nudged.value();
                let next_in = exact_addend(t_d, target);
                if next_in.to_bits() != in_desired.to_bits() {
                    in_desired = next_in;
                    trim = exact_addend(out_p, in_desired);
                }
            }
            let node = design.tree.node_mut(id);
            node.sink_cap = Femtofarads::new(cap);
            node.delay_trim = Picoseconds::new(trim);
            out_actual[id.0] = (out_p + trim) + t_d;
            if out_actual[id.0] != target {
                inexact_sinks += 1;
            }
        } else {
            let trim = exact_addend(out_actual[parent.0], target_in[id.0]);
            design.tree.node_mut(id).delay_trim = Picoseconds::new(trim);
            let in_actual = out_actual[parent.0] + trim;
            out_actual[id.0] = in_actual + t_d;
        }
    }

    design.validate()?;

    let sink_arrivals: Vec<(String, Picoseconds)> = design
        .tree
        .leaves()
        .into_iter()
        .map(|id| (instances[id.0].clone(), Picoseconds::new(target_out[id.0])))
        .collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, a) in &sink_arrivals {
        lo = lo.min(a.value());
        hi = hi.max(a.value());
    }
    let recovered_skew = if sink_arrivals.is_empty() {
        Picoseconds::ZERO
    } else {
        Picoseconds::new(hi - lo)
    };

    Ok(ImportedDesign {
        design,
        instances,
        sink_arrivals,
        recovered_skew,
        inexact_sinks,
    })
}

/// Exports a design's mode-0 timing as the minimal SDF subset
/// [`import_sdf`] reads back.
///
/// Instances are named `n{arena_id}`. The `IOPATH` and `INTERCONNECT`
/// values are chosen with [`exact_addend`]-style nudging so the
/// importer's additive delay chain reproduces this design's arrival
/// times **bit-for-bit** — wire delays and trims are folded into the
/// emitted values rather than listed separately.
///
/// # Errors
///
/// Propagates timing-analysis failures.
pub fn export_sdf(design: &Design) -> Result<String, WaveMinError> {
    let timing = design.timing(0)?;
    let mut file = SdfFile {
        design: Some("wavemin".to_owned()),
        timescale: Some("1ps".to_owned()),
        cells: Vec::new(),
    };
    for (id, node) in design.tree.iter() {
        let v = exact_addend(
            timing.input_arrival[id.0].value(),
            timing.output_arrival[id.0].value(),
        );
        file.cells.push(SdfCell {
            celltype: node.cell.clone(),
            instance: format!("n{}", id.0),
            iopaths: vec![SdfIoPath {
                from: "A".to_owned(),
                to: "Z".to_owned(),
                rise: v,
                fall: v,
            }],
            interconnects: Vec::new(),
        });
    }
    let mut top = SdfCell {
        celltype: "wavemin_top".to_owned(),
        ..SdfCell::default()
    };
    for (id, node) in design.tree.iter() {
        if let Some(p) = node.parent() {
            let v = exact_addend(
                timing.output_arrival[p.0].value(),
                timing.input_arrival[id.0].value(),
            );
            top.interconnects.push(SdfInterconnect {
                from: format!("n{}/Z", p.0),
                to: format!("n{}/A", id.0),
                delay: v,
            });
        }
    }
    file.cells.push(top);
    Ok(file.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use std::collections::BTreeMap;
    use wavemin_clocktree::prelude::Benchmark;

    #[test]
    fn exact_addend_hits_targets_bit_for_bit() {
        let cases = [
            (0.0, 123.456),
            (22.25, 47.375),
            (1e3, 1e3 + 1e-7),
            (17.3, 5.0), // negative addend
            (0.1, 0.3),  // classic rounding case
            (1e16, 1e16 + 2.0),
        ];
        for (base, target) in cases {
            let x = exact_addend(base, target);
            assert_eq!(base + x, target, "base={base} target={target}");
        }
    }

    fn tiny_sdf() -> String {
        r#"(DELAYFILE (SDFVERSION "3.0") (DESIGN "tiny") (TIMESCALE 1ps)
  (CELL (CELLTYPE "BUF_X16") (INSTANCE clk_root)
    (DELAY (ABSOLUTE (IOPATH A Z (20.0) (21.0)))))
  (CELL (CELLTYPE "BUF_X8") (INSTANCE u1)
    (DELAY (ABSOLUTE (IOPATH A Z (15.5) (16.0)))))
  (CELL (CELLTYPE "INV_X8") (INSTANCE u2)
    (DELAY (ABSOLUTE (IOPATH A Z (14.0) (13.25)))))
  (CELL (CELLTYPE "tiny") (INSTANCE)
    (DELAY (ABSOLUTE
      (INTERCONNECT clk_root/Z u1/A (5.0))
      (INTERCONNECT clk_root/Z u2/A (6.5))))))
"#
        .to_owned()
    }

    #[test]
    fn import_recovers_topology_and_arrivals() {
        let imp = import_sdf(&tiny_sdf(), CellLibrary::nangate45()).unwrap();
        assert_eq!(imp.instances, vec!["clk_root", "u1", "u2"]);
        assert_eq!(imp.design.tree.leaves().len(), 2);
        // Root rises: out 20. u1 (positive) sees rise: 20+5+15.5 = 40.5.
        // u2 is an inverter, output falls: fall slot 13.25 → 20+6.5+13.25.
        let arr: BTreeMap<&str, f64> = imp
            .sink_arrivals
            .iter()
            .map(|(n, a)| (n.as_str(), a.value()))
            .collect();
        assert_eq!(arr["u1"], 20.0 + 5.0 + 15.5);
        assert_eq!(arr["u2"], 20.0 + 6.5 + 13.25);
        // The lowered design's own timing reproduces these bit-for-bit.
        let timing = imp.design.timing(0).unwrap();
        for (id, node) in imp.design.tree.iter() {
            if node.is_leaf() {
                let want = arr[imp.instances[id.0].as_str()];
                assert_eq!(timing.output_arrival[id.0].value(), want);
            }
        }
        assert_eq!(
            imp.recovered_skew.value(),
            (20.0 + 5.0 + 15.5) - (20.0 + 6.5 + 13.25)
        );
    }

    /// `root → mid → s0..s7`, with sink nets long enough that each sink
    /// input lies two binades above `mid`'s output.
    fn half_ulp_sdf() -> String {
        let mut text = String::from(
            "(DELAYFILE (TIMESCALE 1ps)
  (CELL (CELLTYPE \"BUF_X16\") (INSTANCE root) (DELAY (ABSOLUTE (IOPATH A Z (300.0)))))
  (CELL (CELLTYPE \"BUF_X8\") (INSTANCE mid) (DELAY (ABSOLUTE (IOPATH A Z (25.0)))))\n",
        );
        let mut nets = String::from("    (INTERCONNECT root/Z mid/A (280.0))\n");
        for i in 0..8 {
            text += &format!(
                "  (CELL (CELLTYPE \"BUF_X32\") (INSTANCE s{i}) \
                 (DELAY (ABSOLUTE (IOPATH A Z (20.0)))))\n"
            );
            nets += &format!("    (INTERCONNECT mid/Z s{i}/A (1400.{i}))\n");
        }
        text + "  (CELL (CELLTYPE \"top\") (INSTANCE) (DELAY (ABSOLUTE\n" + &nets + "))))\n"
    }

    #[test]
    fn half_ulp_parent_leaves_some_sinks_inexact_and_counts_them() {
        let imp = import_sdf(&half_ulp_sdf(), CellLibrary::nangate45()).unwrap();
        let timing = imp.design.timing(0).unwrap();
        // mid's output lies in [512, 1024), an odd multiple of its ulp:
        // half an ulp of the sink inputs' binade [1024, 2048), where the
        // trims live too. Every `out_p + trim` is then a tie that rounds
        // to an even input.
        let mid = imp.instances.iter().position(|n| n == "mid").unwrap();
        let out_p = timing.output_arrival[mid].value();
        assert!((512.0..1024.0).contains(&out_p));
        assert_eq!(out_p.to_bits() & 1, 1, "mid output is an odd multiple");
        let mut inexact = Vec::new();
        for ((name, chain), id) in imp.sink_arrivals.iter().zip(imp.design.tree.leaves()) {
            let input = timing.input_arrival[id.0].value();
            assert!((1024.0..2048.0).contains(&input));
            assert_eq!(input.to_bits() & 1, 0, "{name}: only even inputs exist");
            let got = timing.output_arrival[id.0].value();
            if got != chain.value() {
                // The walk used up all 256 cap ulps without landing.
                let cap = imp.design.tree.node(id).sink_cap.value();
                assert_eq!(cap.to_bits() - 4.0f64.to_bits(), 256, "{name}");
                assert_eq!(got.to_bits().abs_diff(chain.value().to_bits()), 1, "{name}");
                inexact.push(name.as_str());
            }
        }
        assert_eq!(inexact, ["s2", "s3", "s7"]);
        assert_eq!(imp.inexact_sinks, inexact.len());
    }

    #[test]
    fn import_rejects_broken_topologies() {
        let lib = || CellLibrary::nangate45;
        let _ = lib;
        let cycle = r#"(DELAYFILE
  (CELL (CELLTYPE "BUF_X8") (INSTANCE a) (DELAY (ABSOLUTE (IOPATH A Z (1.0)))))
  (CELL (CELLTYPE "BUF_X8") (INSTANCE b) (DELAY (ABSOLUTE (IOPATH A Z (1.0)))))
  (CELL (CELLTYPE "t") (INSTANCE) (DELAY (ABSOLUTE
    (INTERCONNECT a/Z b/A (1.0)) (INTERCONNECT b/Z a/A (1.0))))))"#;
        assert!(matches!(
            import_sdf(cycle, CellLibrary::nangate45()),
            Err(WaveMinError::Sdf(SdfError::NoRoot))
        ));
        let forest = r#"(DELAYFILE
  (CELL (CELLTYPE "BUF_X8") (INSTANCE a) (DELAY (ABSOLUTE (IOPATH A Z (1.0)))))
  (CELL (CELLTYPE "BUF_X8") (INSTANCE b) (DELAY (ABSOLUTE (IOPATH A Z (1.0))))))"#;
        assert!(matches!(
            import_sdf(forest, CellLibrary::nangate45()),
            Err(WaveMinError::Sdf(SdfError::MultipleRoots(_, _)))
        ));
        let unknown = r#"(DELAYFILE
  (CELL (CELLTYPE "BUF_X8") (INSTANCE a) (DELAY (ABSOLUTE (IOPATH A Z (1.0)))))
  (CELL (CELLTYPE "t") (INSTANCE) (DELAY (ABSOLUTE (INTERCONNECT a/Z ghost/A (1.0))))))"#;
        assert!(matches!(
            import_sdf(unknown, CellLibrary::nangate45()),
            Err(WaveMinError::Sdf(SdfError::UnknownInstance(_)))
        ));
        let missing_cell = r#"(DELAYFILE
  (CELL (CELLTYPE "NOT_A_CELL") (INSTANCE a) (DELAY (ABSOLUTE (IOPATH A Z (1.0))))))"#;
        assert!(matches!(
            import_sdf(missing_cell, CellLibrary::nangate45()),
            Err(WaveMinError::MissingCell(_))
        ));
    }

    #[test]
    fn export_import_round_trips_a_benchmark_bit_for_bit() {
        let design = Design::from_benchmark(&Benchmark::s15850(), 42);
        let before = design.timing(0).unwrap();
        let text = export_sdf(&design).unwrap();
        let imp = import_sdf(&text, CellLibrary::nangate45()).unwrap();
        assert_eq!(imp.design.tree.len(), design.tree.len());
        // Compare sink arrivals by instance name (arena order may differ
        // after the importer's name-sorted BFS).
        let got: BTreeMap<&str, f64> = imp
            .sink_arrivals
            .iter()
            .map(|(n, a)| (n.as_str(), a.value()))
            .collect();
        let re_timing = imp.design.timing(0).unwrap();
        let re_arr: BTreeMap<&str, f64> = imp
            .design
            .tree
            .iter()
            .filter(|(_, n)| n.is_leaf())
            .map(|(id, _)| {
                (
                    imp.instances[id.0].as_str(),
                    re_timing.output_arrival[id.0].value(),
                )
            })
            .collect();
        let mut checked = 0usize;
        for (id, node) in design.tree.iter() {
            if node.is_leaf() {
                let name = format!("n{}", id.0);
                let want = before.output_arrival[id.0].value();
                assert_eq!(got[name.as_str()], want, "sdf chain for {name}");
                assert_eq!(re_arr[name.as_str()], want, "re-analyzed timing for {name}");
                checked += 1;
            }
        }
        assert_eq!(checked, design.tree.leaves().len());
        assert!(checked >= 19, "s15850 has 19 sinks");
    }
}
