//! The batch workloads: every pass optimizes a fixed design set, read
//! from files the parent writes once, in a fresh child process.

use crate::metrics::{Sheet, WorkloadResult};
use crate::pass::{self, DesignOutcome, DesignSpec, Input, PassResult};
use crate::spans::{self, Recorder};
use crate::stats::{self, Rng, Tally};
use crate::{RunOptions, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use wavemin::prelude::*;
use wavemin_clocktree::{io as tree_io, power_io};

/// Placement seed of every synthesized design. Placement alone moves the
/// Table V circuits' solve time by ~17 % (IQR over ten placements) and
/// the 100k-sink SDF import time by 4× (README.md), more than any
/// regression bound, so it is pinned to the seed `results/` reproduces
/// the paper with. `--seed` varies what leaves the work alike: the
/// circuit order here, the ECO edit order on serve.
pub const DESIGN_SEED: u64 = 42;

fn write(path: &Path, text: &str) -> Result<String, String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_string_lossy().into_owned())
}

/// Writes the workload's input files under `dir` and returns the pass
/// spec that reads them.
fn prepare(w: Workload, seed: u64, dir: &Path) -> Result<Vec<DesignSpec>, String> {
    let mut specs = Vec::new();
    match w {
        Workload::Table5 | Workload::Table7Multimode => {
            for bench in Benchmark::all() {
                let multimode = w == Workload::Table7Multimode;
                let design = if multimode {
                    // Table VII setup: 4 power modes over 4–10 domains.
                    let domains = (4 + bench.leaf_count / 60).min(10);
                    Design::from_benchmark_multimode(&bench, DESIGN_SEED, domains, 4)
                } else {
                    Design::from_benchmark(&bench, DESIGN_SEED)
                };
                let path = write(
                    &dir.join(format!("{}.clk", bench.name)),
                    &tree_io::write_tree(&design.tree),
                )?;
                let input = if multimode {
                    Input::ClkMultimode {
                        power: write(
                            &dir.join(format!("{}.pw", bench.name)),
                            &power_io::write_power(&design.power),
                        )?,
                    }
                } else {
                    Input::Clk
                };
                specs.push(DesignSpec {
                    name: bench.name.clone(),
                    path,
                    input,
                    sample_count: WaveMinConfig::default().sample_count,
                    memory_budget_mb: None,
                    edits: Vec::new(),
                });
            }
            Rng::new(seed).shuffle(&mut specs);
        }
        Workload::Scale100kSdf => {
            // The directly synthesized scale tree is exactly equalized and
            // optimizes to the identity assignment; entering through SDF
            // gives the optimizer real freedom (README.md).
            let design =
                Design::from_benchmark(&Benchmark::scale("scale100k", 100_000), DESIGN_SEED);
            let sdf = export_sdf(&design).map_err(|e| e.to_string())?;
            specs.push(DesignSpec {
                name: "scale100k".into(),
                path: write(&dir.join("scale100k.sdf"), &sdf)?,
                input: Input::Sdf,
                sample_count: 16,
                // Turns streaming storage on with room to spare: no spills.
                memory_budget_mb: Some(2048),
                edits: Vec::new(),
            });
        }
        Workload::ServeEco => unreachable!("serve_eco is not a batch workload"),
    }
    Ok(specs)
}

/// The output checks every design result must pass.
pub fn design_ok(d: &DesignOutcome) -> Result<(), String> {
    if let Some(e) = &d.error {
        return Err(format!("error: {e}"));
    }
    // NaN (no result) fails both comparisons below.
    if d.skew_after_ps.is_nan() || d.skew_after_ps > 1.05 * d.kappa_ps + 1e-6 {
        return Err(format!(
            "skew {} ps over the {} ps bound",
            d.skew_after_ps, d.kappa_ps
        ));
    }
    if d.peak_after.is_nan() || d.peak_after > d.peak_before {
        return Err(format!(
            "peak rose from {} to {} mA",
            d.peak_before, d.peak_after
        ));
    }
    if let Some(e) = &d.report_error {
        return Err(format!("invalid RunReport: {e}"));
    }
    Ok(())
}

/// Mean over the pass's designs of the relative peak reduction, in %.
pub fn mean_reduction_pct(designs: &[DesignOutcome]) -> f64 {
    let sum: f64 = designs
        .iter()
        .map(|d| (d.peak_before - d.peak_after) / d.peak_before * 100.0)
        .sum();
    sum / designs.len() as f64
}

/// Checks every design of every pass, and that each design's peak is
/// bit-identical across passes (traced included). One tally entry per
/// design result.
fn check_passes<'a>(passes: impl Iterator<Item = &'a PassResult>, tally: &mut Tally) {
    let mut reference: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, p) in passes.enumerate() {
        for d in &p.designs {
            let mut verdict = design_ok(d);
            let bits = *reference.entry(&d.name).or_insert(d.peak_bits());
            if verdict.is_ok() && bits != d.peak_bits() {
                verdict = Err(format!(
                    "peak {} differs from the first pass's {}",
                    d.peak_after,
                    f64::from_bits(bits)
                ));
            }
            if let Err(e) = &verdict {
                eprintln!("check failed: pass {i} {}: {e}", d.name);
            }
            tally.record(verdict.is_ok());
        }
    }
}

/// Adds the per-layer metrics of a traced pass: the child's layer
/// values, the cache layer this workload bypasses, and the dispatch and
/// tracing overheads seen from here.
pub fn traced_layers(sheet: &mut Sheet, traced: &PassResult, wall_s: f64, untraced_s: f64) {
    for (name, value) in &traced.layers {
        sheet.one(name, *value);
    }
    sheet.one("dispatch.overhead_s", wall_s - traced.pass_s());
    sheet.one(
        "trace.overhead_pct",
        (traced.optimize_s() - untraced_s) / untraced_s * 100.0,
    );
}

/// Self times of the traced pass's spans may not add up to more than its
/// wall time.
pub fn self_times_fit(rec: &Recorder, traced_dispatch: usize) -> bool {
    let all = rec.spans();
    let wall = all[traced_dispatch].dur_ns();
    spans::subtree_self_ns(all, traced_dispatch) <= wall
}

pub fn run(w: Workload, opts: &RunOptions) -> Result<(WorkloadResult, Vec<spans::Span>), String> {
    let dir = opts.inputs_dir(w)?;
    let specs = prepare(w, opts.seed, &dir)?;
    let spec_path = dir.join("spec.json");
    pass::write_spec(&spec_path, &specs)?;

    let mut rec = Recorder::new(0);
    let root = rec.enter(w.name());
    let mut timed: Vec<(PassResult, f64)> = Vec::new();
    let started = Instant::now();
    loop {
        timed.push(pass::spawn(
            &opts.exe,
            &spec_path,
            timed.len() as u64,
            false,
            &mut rec,
        )?);
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let traced = if opts.trace {
        let id = rec.spans().len();
        let (res, wall) = pass::spawn(&opts.exe, &spec_path, timed.len() as u64, true, &mut rec)?;
        Some((res, wall, id))
    } else {
        None
    };
    rec.exit(root);

    let mut tally = Tally::default();
    check_passes(
        timed
            .iter()
            .map(|(p, _)| p)
            .chain(traced.iter().map(|t| &t.0)),
        &mut tally,
    );
    let per_pass = |f: fn(&PassResult) -> f64| timed.iter().map(|(p, _)| f(p)).collect::<Vec<_>>();
    let mut sheet = Sheet::default();
    sheet.median_of("optimize_s", &per_pass(PassResult::optimize_s));
    sheet.median_of("setup_s", &per_pass(PassResult::setup_s));
    sheet.median_of(
        "peak_reduction_pct",
        &per_pass(|p| mean_reduction_pct(&p.designs)),
    );
    sheet.one(
        "peak_rss_mb",
        per_pass(|p| p.rss_hwm_mb).into_iter().fold(0.0, f64::max),
    );
    if let Some((res, wall, id)) = &traced {
        if !self_times_fit(&rec, *id) {
            eprintln!("check failed: traced pass span self times exceed its wall time");
            tally.fail_recorded();
        }
        let untraced = stats::median(&per_pass(PassResult::optimize_s));
        traced_layers(&mut sheet, res, *wall, untraced);
        for name in [
            "cache.reuse_ratio",
            "cache.hits",
            "cache.misses",
            "cache.evictions",
            "cache.bytes",
        ] {
            sheet.one(name, 0.0);
        }
    }
    sheet.one("fail_ratio", tally.fail_ratio());
    let result = WorkloadResult {
        workload: w.name().into(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace,
        tally,
        sheet,
    };
    Ok((result, rec.into_spans()))
}
