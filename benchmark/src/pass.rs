//! One batch pass, run in a child process: read each input design,
//! optimize it, and print one JSON line with the outcomes, the spans
//! recorded around each public call and, on the traced pass, the layer
//! counters from the program's `RunReport`s.

use crate::json::{self, obj};
use crate::spans::{self, Recorder};
use serde::Value;
use std::path::Path;
use wavemin::prelude::*;
use wavemin_cells::units::Picoseconds;
use wavemin_clocktree::{io as tree_io, power_io};

pub const THREADS: usize = 2;

/// How a design enters the program and which flow optimizes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// Native tree file, single power mode, session flow.
    Clk,
    /// Native tree + power-intent files, `ClkWaveMinM` flow.
    ClkMultimode { power: String },
    /// SDF file, session flow.
    Sdf,
}

/// One design of a pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpec {
    pub name: String,
    pub path: String,
    pub input: Input,
    pub sample_count: usize,
    pub memory_budget_mb: Option<usize>,
    /// ECO trims `(node, ps)` applied after reading, as serve's `load`
    /// applies them.
    pub edits: Vec<(usize, f64)>,
}

impl DesignSpec {
    pub fn config(&self) -> WaveMinConfig {
        let mut cfg = WaveMinConfig::default()
            .with_threads(THREADS)
            .with_fault_plan(None)
            .with_sample_count(self.sample_count);
        cfg.memory_budget_mb = self.memory_budget_mb;
        cfg
    }

    fn to_value(&self) -> Value {
        let (kind, power) = match &self.input {
            Input::Clk => ("clk", Value::Null),
            Input::ClkMultimode { power } => ("clk_multimode", Value::Str(power.clone())),
            Input::Sdf => ("sdf", Value::Null),
        };
        obj(vec![
            ("name", Value::Str(self.name.clone())),
            ("path", Value::Str(self.path.clone())),
            ("input", Value::Str(kind.into())),
            ("power", power),
            ("sample_count", Value::UInt(self.sample_count as u64)),
            (
                "memory_budget_mb",
                self.memory_budget_mb
                    .map_or(Value::Null, |m| Value::UInt(m as u64)),
            ),
            (
                "edits",
                Value::Seq(
                    self.edits
                        .iter()
                        .map(|&(n, ps)| Value::Seq(vec![Value::UInt(n as u64), Value::Float(ps)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let input = match json::str_at(v, "input")? {
            "clk" => Input::Clk,
            "clk_multimode" => Input::ClkMultimode {
                power: json::str_at(v, "power")?.to_string(),
            },
            "sdf" => Input::Sdf,
            other => return Err(format!("unknown input kind {other:?}")),
        };
        let edits = json::seq_at(v, "edits")?
            .iter()
            .map(|e| match e {
                Value::Seq(pair) if pair.len() == 2 => Ok((
                    json::as_u64(&pair[0]).ok_or("edit node")? as usize,
                    json::as_f64(&pair[1]).ok_or("edit trim")?,
                )),
                _ => Err("edit must be [node, ps]".to_string()),
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            name: json::str_at(v, "name")?.to_string(),
            path: json::str_at(v, "path")?.to_string(),
            input,
            sample_count: json::u64_at(v, "sample_count")? as usize,
            memory_budget_mb: json::get(v, "memory_budget_mb")
                .and_then(json::as_u64)
                .map(|m| m as usize),
            edits,
        })
    }
}

fn specs_to_json(designs: &[DesignSpec]) -> String {
    json::render(&Value::Seq(
        designs.iter().map(DesignSpec::to_value).collect(),
    ))
}

fn specs_from_json(text: &str) -> Result<Vec<DesignSpec>, String> {
    match json::parse(text)? {
        Value::Seq(items) => items.iter().map(DesignSpec::from_value).collect(),
        _ => Err("spec must be a list of designs".into()),
    }
}

pub fn write_spec(path: &Path, designs: &[DesignSpec]) -> Result<(), String> {
    std::fs::write(path, specs_to_json(designs)).map_err(|e| format!("{}: {e}", path.display()))
}

/// What one design's optimization produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignOutcome {
    pub name: String,
    pub error: Option<String>,
    /// Input read plus characterization (the multi-mode flow
    /// characterizes inside its run, so there it is the read alone).
    pub setup_s: f64,
    /// Input read to validated result.
    pub optimize_s: f64,
    pub peak_before: f64,
    pub peak_after: f64,
    pub skew_after_ps: f64,
    pub kappa_ps: f64,
    /// `RunReport::validate` failure on the traced pass.
    pub report_error: Option<String>,
}

impl DesignOutcome {
    pub fn peak_bits(&self) -> u64 {
        self.peak_after.to_bits()
    }
}

/// Layer totals over a traced pass, from the benchmark's spans and the
/// program's `RunReport`s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    pub import_s: f64,
    pub characterize_s: f64,
    pub solve_s: f64,
    pub zone_solve_busy_s: f64,
    pub validation_s: f64,
    /// Characterization and zoning stages that ran inside the solve call
    /// (the multi-mode flow's), so they are not "other" solve time.
    pub staged_in_solve_s: f64,
    pub intersection_s: f64,
    pub zone_solves: u64,
    pub labels_created: u64,
    pub labels_pruned: u64,
    pub dominance_checks: u64,
    pub dominance_skipped: u64,
    pub zones_spilled: u64,
    pub zone_recomputes: u64,
}

impl Layers {
    fn absorb(&mut self, report: &RunReport, multimode: bool) {
        for st in &report.stages {
            let s = st.total_ns as f64 * 1e-9;
            match st.stage.as_str() {
                "zone_solve" => self.zone_solve_busy_s += s,
                "validation" => self.validation_s += s,
                "intersection" => self.intersection_s += s,
                "characterization" | "zoning" if multimode => {
                    self.characterize_s += s;
                    self.staged_in_solve_s += s;
                }
                _ => {}
            }
        }
        let c = &report.counters;
        self.zone_solves += c.zone_solves;
        self.labels_created += c.labels_created;
        self.labels_pruned += c.labels_pruned;
        self.dominance_checks += c.dominance_checks;
        self.dominance_skipped += c.dominance_skipped;
        self.zones_spilled += c.zones_spilled;
        self.zone_recomputes += c.zone_recomputes;
    }

    /// The per-layer metrics these totals define, by catalogue name.
    pub fn metrics(&self, multimode: bool) -> Vec<(&'static str, f64)> {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let threads = THREADS as f64;
        let busy = self.zone_solve_busy_s;
        let mut out = vec![
            ("io.import_s", self.import_s),
            ("session.characterize_s", self.characterize_s),
            ("session.solve_s", self.solve_s),
            ("mosp.zone_solve_busy_s", busy),
            ("mosp.zone_solves", self.zone_solves as f64),
            ("mosp.labels_created", self.labels_created as f64),
            (
                "mosp.label_prune_ratio",
                ratio(self.labels_pruned, self.labels_created),
            ),
            ("mosp.dominance_checks", self.dominance_checks as f64),
            (
                "mosp.dominance_skip_ratio",
                ratio(
                    self.dominance_skipped,
                    self.dominance_checks + self.dominance_skipped,
                ),
            ),
            (
                "parallel.efficiency",
                busy / (threads * (self.solve_s - self.validation_s)),
            ),
            ("algo.validation_s", self.validation_s),
            (
                "algo.solve_other_s",
                self.solve_s - self.validation_s - self.staged_in_solve_s - busy / threads,
            ),
            ("streaming.zones_spilled", self.zones_spilled as f64),
            ("streaming.zone_recomputes", self.zone_recomputes as f64),
        ];
        if multimode {
            out.push(("multimode.intersection_s", self.intersection_s));
        }
        out
    }
}

/// The decoded result line of a pass child.
#[derive(Debug, Clone)]
pub struct PassResult {
    pub designs: Vec<DesignOutcome>,
    /// Per-layer metrics by catalogue name (traced pass only).
    pub layers: Vec<(String, f64)>,
    pub spans: Vec<spans::Span>,
    pub rss_hwm_mb: f64,
}

impl PassResult {
    pub fn optimize_s(&self) -> f64 {
        self.designs.iter().map(|d| d.optimize_s).sum()
    }

    pub fn setup_s(&self) -> f64 {
        self.designs.iter().map(|d| d.setup_s).sum()
    }

    /// The root span's duration: the child's time from the first read to
    /// the last check.
    pub fn pass_s(&self) -> f64 {
        self.spans.first().map_or(0.0, spans::Span::secs)
    }

    pub fn from_line(line: &str) -> Result<Self, String> {
        let v = json::parse(line)?;
        let designs = json::seq_at(&v, "designs")?
            .iter()
            .map(|d| {
                let opt_str = |k: &str| match json::get(d, k) {
                    Some(Value::Str(s)) => Some(s.clone()),
                    _ => None,
                };
                Ok(DesignOutcome {
                    name: json::str_at(d, "name")?.to_string(),
                    error: opt_str("error"),
                    setup_s: json::f64_at(d, "setup_s")?,
                    optimize_s: json::f64_at(d, "optimize_s")?,
                    peak_before: json::f64_at(d, "peak_before")?,
                    // Carried as bits: the pass-to-pass check is exact.
                    peak_after: f64::from_bits(
                        u64::from_str_radix(json::str_at(d, "peak_after_bits")?, 16)
                            .map_err(|e| e.to_string())?,
                    ),
                    skew_after_ps: json::f64_at(d, "skew_after_ps")?,
                    kappa_ps: json::f64_at(d, "kappa_ps")?,
                    report_error: opt_str("report_error"),
                })
            })
            .collect::<Result<_, String>>()?;
        let layers = match json::get(&v, "layers") {
            Some(Value::Map(entries)) => entries
                .iter()
                .map(|(k, x)| Ok((k.clone(), json::as_f64(x).ok_or("layer value")?)))
                .collect::<Result<_, String>>()?,
            _ => Vec::new(),
        };
        Ok(Self {
            designs,
            layers,
            spans: spans::spans_from_value(json::seq_at(&v, "spans")?)?,
            rss_hwm_mb: json::f64_at(&v, "rss_hwm_mb")?,
        })
    }
}

/// Runs one pass in a fresh child process (this binary, `pass`
/// subcommand) under a `dispatch` span, adopting the child's spans into
/// `rec`. Returns the child's result and the host wall time of the whole
/// child, spawn to exit.
///
/// Every pass gets its own process, the way each `wavemin optimize` call
/// is its own process, because a pass leaves the process changed: the
/// streaming memory budget (`streaming_limit_bytes` in
/// `crates/core/src/algo/mod.rs`) subtracts the *current* process RSS
/// from the budget, so a second in-process pass sees the first pass's
/// freed-but-retained heap as its baseline and fails or spills where a
/// fresh process would not. README.md has the measurements.
pub fn spawn(
    exe: &Path,
    spec: &Path,
    pass_id: u64,
    traced: bool,
    rec: &mut Recorder,
) -> Result<(PassResult, f64), String> {
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("pass")
        .arg("--spec")
        .arg(spec)
        .args(["--pass-id", &pass_id.to_string()]);
    if traced {
        cmd.arg("--traced");
    }
    crate::clean_env(&mut cmd);
    rec.set_pass(pass_id);
    let offset = rec.now_ns();
    let span = rec.enter(if traced {
        "dispatch traced"
    } else {
        "dispatch"
    });
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start pass child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = match stdout.lines().last() {
        Some(line) if output.status.success() => PassResult::from_line(line),
        _ => Err(format!("pass child failed: {}", output.status)),
    };
    if let Ok(result) = &parsed {
        rec.adopt(result.spans.clone(), offset);
    }
    let wall = rec.exit(span);
    parsed.map(|r| (r, wall))
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn rss_hwm_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn read_design(spec: &DesignSpec) -> Result<Design, String> {
    let text = std::fs::read_to_string(&spec.path).map_err(|e| format!("{}: {e}", spec.path))?;
    let lib = CellLibrary::nangate45();
    let mut design = match &spec.input {
        Input::Sdf => import_sdf(&text, lib).map_err(|e| e.to_string())?.design,
        Input::Clk | Input::ClkMultimode { .. } => {
            let tree = tree_io::read_tree(&text).map_err(|e| e.to_string())?;
            let power = match &spec.input {
                Input::ClkMultimode { power } => {
                    let p = std::fs::read_to_string(power).map_err(|e| format!("{power}: {e}"))?;
                    power_io::read_power(&p).map_err(|e| e.to_string())?
                }
                _ => PowerDesign::uniform(wavemin_cells::units::Volts::new(1.1)),
            };
            Design::new(tree, lib, power)
        }
    };
    for &(node, ps) in &spec.edits {
        if node >= design.tree.len() {
            return Err(format!("edit node {node} out of range"));
        }
        design.tree.node_mut(NodeId(node)).delay_trim += Picoseconds::new(ps);
    }
    Ok(design)
}

/// Runs one design under the open span recorder. Errors become the
/// outcome's `error`; the parent counts them.
fn optimize(
    spec: &DesignSpec,
    traced: bool,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> DesignOutcome {
    let cfg = spec.config();
    let kappa_ps = cfg.skew_bound.value();
    let mut out = DesignOutcome {
        name: spec.name.clone(),
        error: None,
        setup_s: 0.0,
        optimize_s: 0.0,
        peak_before: f64::NAN,
        peak_after: f64::NAN,
        skew_after_ps: f64::NAN,
        kappa_ps,
        report_error: None,
    };
    let top = rec.enter(format!("design {}", spec.name));
    let span = rec.enter("io.import");
    let design = read_design(spec);
    let import_s = rec.exit(span);
    let multimode = matches!(spec.input, Input::ClkMultimode { .. });
    let result = design.and_then(|design| {
        if multimode {
            let span = rec.enter("multimode.run");
            let r = ClkWaveMinM::new(cfg.with_metrics(traced)).run(&design);
            let solve_s = rec.exit(span);
            Ok((r.map_err(|e| e.to_string())?, 0.0, solve_s))
        } else {
            let span = rec.enter("session.characterize");
            let chr = CharacterizedDesign::new(design, cfg);
            let characterize_s = rec.exit(span);
            let chr = chr.map_err(|e| e.to_string())?;
            let span = rec.enter("session.solve");
            let r = chr.solve(&SolveOptions {
                collect_metrics: traced,
                ..SolveOptions::default()
            });
            let solve_s = rec.exit(span);
            Ok((r.map_err(|e| e.to_string())?, characterize_s, solve_s))
        }
    });
    out.optimize_s = rec.exit(top);
    out.setup_s = import_s;
    match result {
        Err(e) => out.error = Some(e),
        Ok((outcome, characterize_s, solve_s)) => {
            out.setup_s += characterize_s;
            out.peak_before = outcome.peak_before.value();
            out.peak_after = outcome.peak_after.value();
            out.skew_after_ps = outcome.skew_after.value();
            if traced {
                layers.import_s += import_s;
                layers.characterize_s += characterize_s;
                layers.solve_s += solve_s;
                match outcome.report.as_ref() {
                    Some(report) => {
                        out.report_error = report.validate().err();
                        layers.absorb(report, multimode);
                    }
                    None => out.report_error = Some("no RunReport on the traced pass".into()),
                }
            }
        }
    }
    out
}

/// Entry point of `pass --spec FILE --pass-id N [--traced]`.
pub fn main(spec_path: &str, pass_id: u64, traced: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let specs = specs_from_json(&text)?;
    let multimode = specs
        .iter()
        .any(|s| matches!(s.input, Input::ClkMultimode { .. }));
    let mut rec = Recorder::new(pass_id);
    let mut layers = Layers::default();
    let root = rec.enter("pass");
    let outcomes: Vec<DesignOutcome> = specs
        .iter()
        .map(|s| optimize(s, traced, &mut rec, &mut layers))
        .collect();
    rec.exit(root);
    let designs = outcomes
        .iter()
        .map(|o| {
            let opt_str = |s: &Option<String>| s.clone().map_or(Value::Null, Value::Str);
            obj(vec![
                ("name", Value::Str(o.name.clone())),
                ("error", opt_str(&o.error)),
                ("setup_s", Value::Float(o.setup_s)),
                ("optimize_s", Value::Float(o.optimize_s)),
                ("peak_before", Value::Float(o.peak_before)),
                (
                    "peak_after_bits",
                    Value::Str(format!("{:016x}", o.peak_bits())),
                ),
                ("skew_after_ps", Value::Float(o.skew_after_ps)),
                ("kappa_ps", Value::Float(o.kappa_ps)),
                ("report_error", opt_str(&o.report_error)),
            ])
        })
        .collect();
    let line = obj(vec![
        ("designs", Value::Seq(designs)),
        (
            "layers",
            if traced {
                obj(layers
                    .metrics(multimode)
                    .into_iter()
                    .map(|(k, x)| (k, Value::Float(x)))
                    .collect())
            } else {
                Value::Null
            },
        ),
        ("spans", spans::spans_to_value(rec.spans())),
        (
            "rss_hwm_mb",
            Value::Float(rss_hwm_mb(None).ok_or("cannot read VmHWM")?),
        ),
    ]);
    println!("{}", json::render(&line));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip() {
        let specs = vec![
            DesignSpec {
                name: "a".into(),
                path: "a.clk".into(),
                input: Input::ClkMultimode {
                    power: "a.pw".into(),
                },
                sample_count: 158,
                memory_budget_mb: None,
                edits: vec![],
            },
            DesignSpec {
                name: "b".into(),
                path: "b.sdf".into(),
                input: Input::Sdf,
                sample_count: 16,
                memory_budget_mb: Some(2048),
                edits: vec![(7, 1.25)],
            },
        ];
        let back = specs_from_json(&specs_to_json(&specs)).expect("decode");
        assert_eq!(back, specs);
    }

    #[test]
    fn layer_metrics_derive_ratios_and_leftover_time() {
        let l = Layers {
            solve_s: 3.0,
            validation_s: 1.0,
            zone_solve_busy_s: 2.0,
            labels_created: 10,
            labels_pruned: 4,
            dominance_checks: 3,
            dominance_skipped: 1,
            ..Layers::default()
        };
        let m: std::collections::BTreeMap<_, _> = l.metrics(false).into_iter().collect();
        assert_eq!(m["mosp.label_prune_ratio"], 0.4);
        assert_eq!(m["mosp.dominance_skip_ratio"], 0.25);
        assert_eq!(m["parallel.efficiency"], 0.5);
        assert_eq!(m["algo.solve_other_s"], 1.0);
        assert!(!m.contains_key("multimode.intersection_s"));
        for (name, _) in l.metrics(true) {
            assert!(crate::metrics::def(name).is_some(), "{name} not catalogued");
        }
    }
}
