//! Adjustable delay buffer insertion: the stand-in for the optimal
//! embedder of Kim et al. \[17\].
//!
//! When sizing alone cannot satisfy the skew bound in every power mode,
//! some buffers must become ADBs whose delay is retuned per mode. The
//! greedy embedder here repairs *early* sinks (the ones that arrive more
//! than κ before the mode's latest sink): each violating leaf is converted
//! to the same-drive ADB and given per-mode delay codes centering it in
//! the feasible window; when a leaf's deficit exceeds the ADB range, its
//! ancestors are converted too so that the budget accumulates along the
//! path.

use crate::design::Design;
use crate::error::WaveMinError;
use serde::Serialize;
use wavemin_cells::units::Picoseconds;
use wavemin_cells::CellKind;
use wavemin_clocktree::NodeId;

/// The result of ADB insertion.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdbPlan {
    /// Nodes converted to ADBs (leaves and internals).
    pub adb_nodes: Vec<NodeId>,
    /// Repair iterations used.
    pub iterations: usize,
    /// Worst remaining skew over all modes after insertion.
    pub final_skew: Picoseconds,
}

impl AdbPlan {
    /// Number of ADBs inserted.
    #[must_use]
    pub fn count(&self) -> usize {
        self.adb_nodes.len()
    }
}

const MAX_ITERATIONS: usize = 60;

/// Inserts ADBs (and their per-mode delay codes) until every mode's skew
/// is within `kappa`.
///
/// # Errors
///
/// Returns [`WaveMinError::AdbInsertionFailed`] when the violations cannot
/// be repaired within the adjustable range (even using ancestors), and
/// propagates timing failures.
pub fn insert_adbs(design: &mut Design, kappa: Picoseconds) -> Result<AdbPlan, WaveMinError> {
    let mut adb_nodes: Vec<NodeId> = Vec::new();
    for iteration in 0..MAX_ITERATIONS {
        let mut worst_violation = Picoseconds::ZERO;
        let mut fixed_any = false;

        for mode in 0..design.mode_count() {
            let timing = design.timing(mode)?;
            let leaves = design.tree.leaves();
            let latest = leaves
                .iter()
                .map(|l| timing.output_arrival[l.0].value())
                .fold(f64::NEG_INFINITY, f64::max);
            let floor = latest - kappa.value();
            // Overshoot slightly past the window edge to avoid boundary
            // flapping across iterations.
            let margin = (kappa.value() * 0.1).min(5.0);
            let mut deficit: Vec<f64> = vec![0.0; design.tree.len()];
            let mut any = false;
            for &leaf in &leaves {
                let d = floor - timing.output_arrival[leaf.0].value();
                if d > 1e-9 {
                    deficit[leaf.0] = d + margin;
                    worst_violation = worst_violation.max(Picoseconds::new(d));
                    any = true;
                }
            }
            if !any {
                continue;
            }
            // Subtree phase (the [17] insight): one ADB at an internal
            // node repairs its whole subtree. The committed delay is the
            // *largest* common shift that fixes every early descendant
            // without pushing any of them past the current latest sink —
            // so sub-κ arrival spreads inside a subtree do not force
            // per-leaf ADBs, keeping the count minimal and the leaves
            // free for polarity assignment.
            let mut added = vec![0.0_f64; design.tree.len()];
            let order = design.tree.topological_order();
            for &node in &order {
                if node == design.tree.root() || design.tree.node(node).is_leaf() {
                    continue;
                }
                let subtree = leaf_descendants(design, node);
                if subtree.is_empty() {
                    continue;
                }
                let eff = |l: &NodeId| timing.output_arrival[l.0].value() + added[l.0];
                let min_eff = subtree.iter().map(eff).fold(f64::INFINITY, f64::min);
                let max_eff = subtree.iter().map(eff).fold(f64::NEG_INFINITY, f64::max);
                let needed = floor - min_eff + margin;
                if needed <= 1e-9 {
                    continue;
                }
                let headroom = (latest - max_eff).max(0.0);
                let wanted = needed.min(headroom);
                if wanted <= 1e-9 {
                    continue;
                }
                let committed = commit_delay(design, node, mode, wanted, &mut adb_nodes)?;
                if committed > 0.0 {
                    fixed_any = true;
                    for l in &subtree {
                        added[l.0] += committed;
                        deficit[l.0] = (deficit[l.0] - committed).max(0.0);
                    }
                }
            }
            // Leaf phase: individual stragglers the common shifts could
            // not cover.
            for &leaf in &leaves {
                if deficit[leaf.0] > 1e-9 {
                    fixed_any |= repair_path(design, leaf, mode, deficit[leaf.0], &mut adb_nodes)?;
                }
            }
        }

        if worst_violation == Picoseconds::ZERO {
            return Ok(AdbPlan {
                adb_nodes,
                iterations: iteration,
                final_skew: design.max_skew()?,
            });
        }
        if !fixed_any {
            return Err(WaveMinError::AdbInsertionFailed(format!(
                "residual violation of {worst_violation} with all path budgets exhausted"
            )));
        }
    }
    let final_skew = design.max_skew()?;
    if final_skew.value() <= kappa.value() + 1e-6 {
        Ok(AdbPlan {
            adb_nodes,
            iterations: MAX_ITERATIONS,
            final_skew,
        })
    } else {
        Err(WaveMinError::AdbInsertionFailed(format!(
            "did not converge: final skew {final_skew} exceeds bound {kappa}"
        )))
    }
}

/// The leaf descendants of a node.
fn leaf_descendants(design: &Design, node: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        let n = design.tree.node(id);
        if n.is_leaf() {
            out.push(id);
        }
        stack.extend(n.children().iter().copied());
    }
    out
}

/// Converts `node` to an ADB if needed and commits up to `wanted` ps of
/// mode-`mode` delay within its remaining budget. Returns the committed
/// amount (0.0 when the node cannot hold more delay or is an inverter).
fn commit_delay(
    design: &mut Design,
    node: NodeId,
    mode: usize,
    wanted: f64,
    adb_nodes: &mut Vec<NodeId>,
) -> Result<f64, WaveMinError> {
    let cell_name = design.tree.node(node).cell.clone();
    let spec = design
        .lib
        .get(&cell_name)
        .ok_or_else(|| WaveMinError::MissingCell(cell_name.clone()))?;
    let spec = if spec.kind() == CellKind::Buffer {
        let adb_name = nearest_adb_name(design, spec.drive())?;
        design.tree.set_cell(node, &adb_name);
        if !adb_nodes.contains(&node) {
            adb_nodes.push(node);
        }
        design
            .lib
            .get(&adb_name)
            .ok_or(WaveMinError::MissingCell(adb_name))?
    } else if spec.kind() == CellKind::Adb {
        spec
    } else {
        return Ok(0.0);
    };
    let range = spec.delay_range().value();
    let steps = spec.delay_steps().max(1);
    let step = range / steps as f64;
    let current = design.mode_adjust[mode]
        .extra_delay
        .get(node.0)
        .copied()
        .unwrap_or(Picoseconds::ZERO)
        .value();
    let budget = range - current;
    if budget <= 1e-9 {
        return Ok(0.0);
    }
    let add = ((wanted.min(budget) / step).ceil() * step).min(budget);
    if add <= 1e-9 {
        return Ok(0.0);
    }
    design.mode_adjust[mode].set_extra_delay(node, Picoseconds::new(current + add));
    Ok(add)
}

/// Adds `target` ps of mode-`mode` delay along `leaf`'s path, converting
/// cells to ADBs as needed. Returns `true` when any additional delay was
/// committed.
fn repair_path(
    design: &mut Design,
    leaf: NodeId,
    mode: usize,
    target: f64,
    adb_nodes: &mut Vec<NodeId>,
) -> Result<bool, WaveMinError> {
    let mut remaining = target;
    let mut committed = false;
    let mut cursor = Some(leaf);
    while let Some(node) = cursor {
        if remaining <= 1e-9 {
            break;
        }
        if node == design.tree.root() {
            break;
        }
        let cell_name = design.tree.node(node).cell.clone();
        let spec = design
            .lib
            .get(&cell_name)
            .ok_or_else(|| WaveMinError::MissingCell(cell_name.clone()))?;
        // Convert plain buffers to the same-drive ADB; inverters stay (a
        // converted inverter would flip its subtree's polarity).
        let spec = if spec.kind() == CellKind::Buffer {
            let adb_name = nearest_adb_name(design, spec.drive())?;
            design.tree.set_cell(node, &adb_name);
            if !adb_nodes.contains(&node) {
                adb_nodes.push(node);
            }
            design
                .lib
                .get(&adb_name)
                .ok_or(WaveMinError::MissingCell(adb_name))?
        } else if spec.kind() == CellKind::Adb {
            spec
        } else {
            cursor = design.tree.node(node).parent();
            continue;
        };
        let range = spec.delay_range().value();
        let steps = spec.delay_steps().max(1);
        let step = range / steps as f64;
        let current = design.mode_adjust[mode]
            .extra_delay
            .get(node.0)
            .copied()
            .unwrap_or(Picoseconds::ZERO)
            .value();
        let budget = range - current;
        if budget > 1e-9 {
            let add = remaining.min(budget);
            let add = (add / step).ceil() * step;
            let add = add.min(budget);
            if add > 1e-9 {
                design.mode_adjust[mode].set_extra_delay(node, Picoseconds::new(current + add));
                remaining -= add;
                committed = true;
            }
        }
        cursor = design.tree.node(node).parent();
    }
    Ok(committed)
}

/// The smallest available ADB drive ≥ the buffer's drive.
fn nearest_adb_name(design: &Design, drive: u32) -> Result<String, WaveMinError> {
    for candidate in [4u32, 8, 16, 32] {
        if candidate >= drive {
            let name = format!("ADB_X{candidate}");
            if design.lib.get(&name).is_some() {
                return Ok(name);
            }
        }
    }
    Err(WaveMinError::MissingCell(format!(
        "no ADB with drive >= {drive}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use wavemin_cells::units::Volts;

    fn skewed_design() -> Design {
        // 0.9 V islands stretch arrivals to ~30 ps across modes, beyond
        // a 20 ps bound but within the path ADB budget.
        Design::from_benchmark_multimode_levels(
            &Benchmark::s15850(),
            3,
            4,
            4,
            Volts::new(0.9),
            Volts::new(1.1),
        )
    }

    #[test]
    fn insertion_repairs_all_modes() {
        let mut d = skewed_design();
        let kappa = Picoseconds::new(20.0);
        assert!(d.max_skew().unwrap() > kappa, "precondition: violated");
        let plan = insert_adbs(&mut d, kappa).unwrap();
        assert!(plan.count() > 0, "some ADBs must be inserted");
        assert!(
            d.max_skew().unwrap().value() <= kappa.value() + 1e-6,
            "skew {} after insertion",
            d.max_skew().unwrap()
        );
    }

    #[test]
    fn already_feasible_design_needs_no_adbs() {
        let mut d = Design::from_benchmark(&Benchmark::s15850(), 1);
        let plan = insert_adbs(&mut d, Picoseconds::new(20.0)).unwrap();
        assert_eq!(plan.count(), 0);
        assert_eq!(plan.iterations, 0);
    }

    #[test]
    fn adb_cells_are_installed_in_tree() {
        let mut d = skewed_design();
        let plan = insert_adbs(&mut d, Picoseconds::new(20.0)).unwrap();
        for &node in &plan.adb_nodes {
            let cell = &d.tree.node(node).cell;
            assert!(cell.starts_with("ADB_X"), "node holds {cell}");
        }
    }

    #[test]
    fn codes_are_mode_specific_and_quantized() {
        let mut d = skewed_design();
        let plan = insert_adbs(&mut d, Picoseconds::new(20.0)).unwrap();
        assert!(plan.count() > 0);
        // Mode 0 (all-high) needed no repair: its codes stay zero.
        let any_nonzero_other = (1..d.mode_count()).any(|m| {
            d.mode_adjust[m]
                .extra_delay
                .iter()
                .any(|&e| e > Picoseconds::ZERO)
        });
        assert!(any_nonzero_other);
        // Every code lies on the 2.5 ps step grid within [0, 30].
        for m in 0..d.mode_count() {
            for &e in &d.mode_adjust[m].extra_delay {
                let v = e.value();
                assert!((0.0..=30.0 + 1e-9).contains(&v));
                let rem = (v / 2.5).fract();
                assert!(!(1e-6..=1.0 - 1e-6).contains(&rem), "code {v} off-grid");
            }
        }
    }

    #[test]
    fn impossible_bound_fails_cleanly() {
        let mut d = Design::from_benchmark_multimode_levels(
            &Benchmark::s15850(),
            3,
            4,
            4,
            Volts::new(0.6),
            Volts::new(1.1),
        );
        let err = insert_adbs(&mut d, Picoseconds::new(0.5)).unwrap_err();
        assert!(matches!(err, WaveMinError::AdbInsertionFailed(_)));
    }
}
