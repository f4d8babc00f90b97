//! End-to-end benchmark of WaveMin. See README.md.
//!
//! ```text
//! wavemin-e2e-bench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! wavemin-e2e-bench compare DIR_A DIR_B
//! ```

mod batch;
mod compare;
mod json;
mod metrics;
mod pass;
mod serve;
mod spans;
mod stats;

use metrics::{Kind, WorkloadResult};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Measurement time per workload when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table5,
    Table7Multimode,
    Scale100kSdf,
    ServeEco,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table5,
        Workload::Table7Multimode,
        Workload::Scale100kSdf,
        Workload::ServeEco,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table5 => "table5",
            Workload::Table7Multimode => "table7_multimode",
            Workload::Scale100kSdf => "scale100k_sdf",
            Workload::ServeEco => "serve_eco",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

pub struct RunOptions {
    pub seed: u64,
    /// Timed passes (cycles, on serve) start until this much time has
    /// gone by; at least one pass and ten ECO cycles always run.
    pub seconds: f64,
    pub trace: bool,
    /// Where result files and traces go.
    pub out: PathBuf,
    /// Generated inputs and the daemon socket: `out/` of this package,
    /// never committed, whatever `--out` says.
    pub work: PathBuf,
    /// This binary, re-executed for every pass and for the daemon.
    pub exe: PathBuf,
}

impl RunOptions {
    pub fn inputs_dir(&self, w: Workload) -> Result<PathBuf, String> {
        let dir = self.work.join("inputs").join(w.name());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Children get only their generated inputs: no `WAVEMIN_*` variable
/// (fault plans, kernel or precision overrides) leaks into a measurement.
pub fn clean_env(cmd: &mut Command) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("WAVEMIN_") {
            cmd.env_remove(key);
        }
    }
}

/// The benchmark package's directory, where results and history live.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Output of a host command, or "unknown" where it cannot run.
fn command_output(program: &str, args: &[&str]) -> String {
    let repo = package_dir().parent().unwrap_or(package_dir());
    Command::new(program)
        .args(args)
        .current_dir(repo)
        // Never report a repository this checkout merely sits inside.
        .env("GIT_CEILING_DIRECTORIES", repo.parent().unwrap_or(repo))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn host_facts() -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    json::obj(vec![
        ("available_cores", Value::UInt(cores)),
        ("solver_threads", Value::UInt(pass::THREADS as u64)),
        ("rustc", Value::Str(command_output("rustc", &["-V"]))),
        (
            "commit",
            Value::Str(command_output("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: wavemin-e2e-bench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]\n       \
         wavemin-e2e-bench compare DIR_A DIR_B\n\
         workloads: table5, table7_multimode, scale100k_sdf, serve_eco (default: all)"
    );
    ExitCode::from(2)
}

fn print_result(r: &WorkloadResult) {
    println!(
        "== {} (seed {}, {} s, {}; {} of {} operations failed)",
        r.workload,
        r.seed,
        r.seconds,
        if r.traced { "traced" } else { "untraced" },
        r.tally.failed,
        r.tally.attempted
    );
    for m in &r.sheet.metrics {
        println!(
            "  {:<28} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.count
        );
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    let mut opts = RunOptions {
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: true,
        out: package_dir().join("out"),
        work: package_dir().join("out"),
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
    };
    let mut quick = false;
    let mut trace_flag = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads.push(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace_flag = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--quick" => quick = true,
            "--out" => opts.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // A quick run is one untraced pass per batch workload and ten ECO
    // cycles, unless tracing is asked for explicitly.
    if quick {
        opts.seconds = 0.0;
    }
    opts.trace = trace_flag.unwrap_or(!quick);
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let host = host_facts();
    std::fs::write(opts.out.join("host.json"), json::render(&host)).map_err(|e| e.to_string())?;

    let mut results = Vec::new();
    for w in workloads {
        let (result, spans) = match w {
            Workload::ServeEco => serve::run(&opts)?,
            _ => batch::run(w, &opts)?,
        };
        print_result(&result);
        let base = opts.out.join(w.name());
        std::fs::write(
            base.with_extension("json"),
            json::render(&result.to_value(&host)),
        )
        .map_err(|e| e.to_string())?;
        if opts.trace {
            std::fs::write(
                opts.out.join(format!("{}.trace.json", w.name())),
                spans::chrome_trace(&spans, w.name()),
            )
            .map_err(|e| e.to_string())?;
        }
        results.push(result);
    }
    append_history(&opts, &host, &results)?;

    // The last line: one JSON object. For a single workload its metrics
    // are exactly the end-to-end (untraced) or per-layer (traced) ones
    // BENCHMARK.json lists; for several, each name is prefixed with its
    // workload.
    let kind = if opts.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let prefix = results.len() > 1;
    let mut metrics = Vec::new();
    for r in &results {
        for m in r.contract_metrics(kind) {
            let name = if prefix {
                format!("{}/{}", r.workload, m.name)
            } else {
                m.name.clone()
            };
            metrics.push((
                name,
                json::obj(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", Value::Str(m.unit.clone())),
                ]),
            ));
        }
    }
    let correct = results.iter().all(WorkloadResult::correct);
    let line = json::obj(vec![
        ("correct", Value::Bool(correct)),
        (
            "attempted",
            Value::UInt(results.iter().map(|r| r.tally.attempted).sum()),
        ),
        (
            "failed",
            Value::UInt(results.iter().map(|r| r.tally.failed).sum()),
        ),
        ("metrics", Value::Map(metrics)),
    ]);
    println!("{}", json::render(&line));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Appends one summary line per run to `results/history.jsonl`.
fn append_history(
    opts: &RunOptions,
    host: &Value,
    results: &[WorkloadResult],
) -> Result<(), String> {
    use std::io::Write;
    let when = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let per_workload = results
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("attempted".to_string(), Value::UInt(r.tally.attempted)),
                ("failed".to_string(), Value::UInt(r.tally.failed)),
            ];
            fields.extend(
                r.sheet
                    .metrics
                    .iter()
                    .filter(|m| metrics::def(&m.name).is_some_and(|d| d.kind == Kind::EndToEnd))
                    .map(|m| (m.name.clone(), Value::Float(m.value))),
            );
            (r.workload.clone(), Value::Map(fields))
        })
        .collect();
    let line = json::obj(vec![
        ("unix_time", Value::UInt(when)),
        ("host", host.clone()),
        ("seed", Value::UInt(opts.seed)),
        ("seconds", Value::Float(opts.seconds)),
        ("traced", Value::Bool(opts.trace)),
        ("workloads", Value::Map(per_workload)),
    ]);
    let path = package_dir().join("results").join("history.jsonl");
    std::fs::create_dir_all(path.parent().unwrap_or(package_dir())).map_err(|e| e.to_string())?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{}", json::render(&line)).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => {
            compare::main(Path::new(&args[1]), Path::new(&args[2])).map(|()| ExitCode::SUCCESS)
        }
        // The child roles this binary re-executes itself in.
        Some("pass") => match args.get(1..) {
            Some([flag, spec, id_flag, id, rest @ ..])
                if flag == "--spec" && id_flag == "--pass-id" =>
            {
                let traced = rest.iter().any(|a| a == "--traced");
                id.parse()
                    .map_err(|e| format!("--pass-id: {e}"))
                    .and_then(|id| pass::main(spec, id, traced))
                    .map(|()| ExitCode::SUCCESS)
            }
            _ => return usage(),
        },
        Some("daemon") => match args.get(1..) {
            Some([flag, socket]) if flag == "--socket" => {
                serve::daemon_main(socket).map(|()| ExitCode::SUCCESS)
            }
            _ => return usage(),
        },
        _ => return usage(),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
