//! Sharded optimization: independent subtree solves merged at the root.
//!
//! [`optimize_sharded`] splits the clock tree into subtree shards of
//! bounded sink count ([`wavemin_clocktree::shard::shard_by_sinks`]),
//! runs the full ClkWaveMin flow on each shard *independently*, remaps
//! every shard's assignment back to the original node ids, and
//! validates the merged assignment with exact timing on the full tree.
//!
//! Each shard keeps the original trunk chain from the clock root down
//! to its subtree (siblings stubbed with their real cells and wire
//! loads), so arrivals inside a shard are bit-exact against the full
//! tree and every shard optimizes against *absolute* arrival windows.
//! What sharding gives up is the global interval coordination: each
//! shard picks its own feasible window, so the *cross-shard* skew is
//! only checked — not enforced — during the per-shard solves. The
//! merged assignment is re-validated against the exact global skew
//! bound; when it violates the bound the driver falls back to the
//! identity assignment, mirroring the interval framework's own
//! validation ladder. In practice equalized trees anchor every shard
//! on near-identical arrival sets and the merge passes.

use crate::algo::{count_kind, finish_outcome, ClkWaveMin, Outcome};
use crate::assignment::Assignment;
use crate::config::WaveMinConfig;
use crate::design::Design;
use crate::error::WaveMinError;
use crate::observe::Instruments;
use wavemin_cells::units::Picoseconds;
use wavemin_cells::CellKind;
use wavemin_clocktree::shard::{shard_by_sinks, SubtreeShard};
use wavemin_clocktree::timing::TimingAdjust;

/// The merged result of a sharded run, plus per-shard accounting.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// The merged, globally re-validated outcome.
    pub outcome: Outcome,
    /// Number of subtree shards solved.
    pub shard_count: usize,
    /// Sinks per shard, in shard order.
    pub shard_sinks: Vec<usize>,
    /// `true` when the merged assignment violated the exact global skew
    /// bound and the identity fallback was returned instead.
    pub merge_fallback: bool,
}

/// Optimizes a design shard-by-shard: at most `max_sinks_per_shard`
/// sinks are solved per ClkWaveMin invocation, so peak memory scales
/// with the shard size rather than the design size. Every shard solve
/// is observed through `ins`; the merged outcome carries no run report.
///
/// # Errors
///
/// Any error a plain [`ClkWaveMin::run`] can produce (the first failing
/// shard aborts the run), or [`WaveMinError::Timing`] from the final
/// exact validation.
pub fn optimize_sharded(
    design: &Design,
    config: &WaveMinConfig,
    max_sinks_per_shard: usize,
    ins: &Instruments,
) -> Result<ShardedOutcome, WaveMinError> {
    config.validate()?;
    let shards = shard_by_sinks(&design.tree, max_sinks_per_shard);
    let shard_count = shards.len();
    let mut shard_sinks = Vec::with_capacity(shard_count);
    let mut merged = Assignment::new();
    let mut estimated_cost = 0.0_f64;
    let mut intervals_tried = 0;
    let mut runtime = std::time::Duration::ZERO;
    let mut degenerate_zones = 0;
    let solver = ClkWaveMin::new(config.clone());
    for shard in &shards {
        shard_sinks.push(shard.tree.leaves().len());
        let sub = shard_design(design, shard);
        let out = solver.run_instrumented(&sub, None, ins)?;
        intervals_tried += out.intervals_tried;
        runtime += out.runtime;
        degenerate_zones += out.degenerate_zones;
        // A shard that fell back to identity reports a NaN cost; the
        // merged cost only aggregates real zone objectives.
        if out.estimated_cost.is_finite() {
            estimated_cost = estimated_cost.max(out.estimated_cost);
        }
        for (&node, cell) in &out.assignment.cells {
            merged.set(shard.origin(node), cell.clone());
        }
        for (mode, codes) in out.assignment.delay_codes.iter().enumerate() {
            for (&node, &code) in codes {
                merged.set_delay_code(mode, shard.origin(node), code);
            }
        }
    }

    // Exact global validation on the full tree — the authoritative
    // cross-shard skew check.
    let mut candidate = design.clone();
    merged.apply_to(&mut candidate);
    let skew = candidate.max_skew()?;
    let merge_fallback = skew.value() > config.skew_bound.value() + 1e-9;
    let mut outcome = if merge_fallback {
        finish_outcome(
            design,
            design,
            Assignment::new(),
            f64::NAN,
            intervals_tried,
            runtime,
        )?
    } else {
        finish_outcome(
            design,
            &candidate,
            merged,
            estimated_cost,
            intervals_tried,
            runtime,
        )?
    };
    outcome.degenerate_zones = degenerate_zones;
    Ok(ShardedOutcome {
        outcome,
        shard_count,
        shard_sinks,
        merge_fallback,
    })
}

/// Wraps one shard's tree with the parent design's models. Per-mode
/// timing adjustments are remapped onto the shard's node ids so trunk
/// stubs carry any ADB codes already installed on the full design.
fn shard_design(design: &Design, shard: &SubtreeShard) -> Design {
    let mode_adjust = design
        .mode_adjust
        .iter()
        .map(|adj| remap_adjust(adj, &shard.node_map))
        .collect();
    Design {
        tree: shard.tree.clone(),
        lib: design.lib.clone(),
        chr: design.chr,
        wire: design.wire,
        power: design.power.clone(),
        mode_adjust,
    }
}

fn remap_adjust(adj: &TimingAdjust, node_map: &[wavemin_clocktree::NodeId]) -> TimingAdjust {
    let pick_mult = |v: &Vec<f64>| -> Vec<f64> {
        node_map
            .iter()
            .map(|o| v.get(o.0).copied().unwrap_or(1.0))
            .collect()
    };
    TimingAdjust {
        cell_delay_mult: pick_mult(&adj.cell_delay_mult),
        extra_delay: node_map
            .iter()
            .map(|o| {
                adj.extra_delay
                    .get(o.0)
                    .copied()
                    .unwrap_or(Picoseconds::ZERO)
            })
            .collect(),
        wire_r_mult: pick_mult(&adj.wire_r_mult),
        wire_c_mult: pick_mult(&adj.wire_c_mult),
    }
}

/// Shard-count accounting exposed for reports: ADB/ADI cells present
/// after applying `outcome` to `design`.
#[must_use]
pub fn merged_adb_adi(design: &Design, outcome: &Outcome) -> (usize, usize) {
    let mut after = design.clone();
    outcome.assignment.apply_to(&mut after);
    (
        count_kind(&after, CellKind::Adb),
        count_kind(&after, CellKind::Adi),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavemin_clocktree::Benchmark;

    fn scale_design() -> Design {
        Design::from_benchmark(&Benchmark::scale("shardrun_fixture", 220), 5)
    }

    #[test]
    fn one_big_shard_matches_plain_run_bit_for_bit() {
        let design = scale_design();
        let config = WaveMinConfig::default();
        let plain = ClkWaveMin::new(config.clone()).run(&design).expect("plain");
        let sharded = optimize_sharded(&design, &config, usize::MAX, &Instruments::disabled())
            .expect("sharded");
        assert_eq!(sharded.shard_count, 1);
        assert!(!sharded.merge_fallback);
        assert_eq!(sharded.outcome.assignment, plain.assignment);
        assert_eq!(
            sharded.outcome.estimated_cost.to_bits(),
            plain.estimated_cost.to_bits()
        );
        assert_eq!(
            sharded.outcome.skew_after.value().to_bits(),
            plain.skew_after.value().to_bits()
        );
    }

    #[test]
    fn many_shards_cover_all_sinks_and_validate_globally() {
        let design = scale_design();
        let config = WaveMinConfig::default();
        let sharded =
            optimize_sharded(&design, &config, 48, &Instruments::disabled()).expect("sharded");
        assert!(sharded.shard_count > 1, "expected a real split");
        assert_eq!(
            sharded.shard_sinks.iter().sum::<usize>(),
            design.leaves().len(),
            "shards must cover every sink exactly once"
        );
        if sharded.merge_fallback {
            assert!(sharded.outcome.assignment.is_empty());
        } else {
            // The merged assignment passed the exact global bound.
            assert!(
                sharded.outcome.skew_after.value() <= config.skew_bound.value() + 1e-9,
                "skew {} vs bound {}",
                sharded.outcome.skew_after,
                config.skew_bound
            );
            assert!(!sharded.outcome.assignment.is_empty());
        }
    }
}
