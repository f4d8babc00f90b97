//! `wavemin` — command-line driver for the WaveMin flow.
//!
//! ```text
//! wavemin synthesize --benchmark s13207 --seed 42 -o tree.clk
//! wavemin import     --sdf design.sdf --lib cells.lib -o tree.clk
//! wavemin optimize   -i tree.clk --algorithm wavemin --kappa 20 -o opt.clk
//! wavemin optimize   --sdf design.sdf --kappa 40 -o opt.clk
//! wavemin validate   -i tree.clk
//! wavemin evaluate   -i opt.clk
//! wavemin svg        -i opt.clk -o opt.svg
//! wavemin liberty    -o nangate45.lib
//! ```
//!
//! Trees use the text format of [`wavemin_clocktree::io`]; libraries use
//! the Liberty subset of [`wavemin_cells::liberty`].
//!
//! Exit codes: `0` success, `1` runtime error, `2` usage error, `3` the
//! input failed validation, `4` no feasible assignment exists, `5` the
//! run degraded under `--strict`.

use std::process::ExitCode;
use wavemin::checkpoint::design_fingerprint;
use wavemin::prelude::*;
use wavemin::report::degradation_summary;
use wavemin_cells::liberty;
use wavemin_cells::units::{Microns, Picoseconds, Volts};
use wavemin_clocktree::io as tree_io;

/// Exit code for unexpected runtime failures (I/O, solver internals).
const EXIT_RUNTIME: u8 = 1;
/// Exit code for malformed command lines.
const EXIT_USAGE: u8 = 2;
/// Exit code for inputs rejected by upfront validation.
const EXIT_INVALID_INPUT: u8 = 3;
/// Exit code when no assignment can satisfy the skew bound.
const EXIT_INFEASIBLE: u8 = 4;
/// Exit code when `--strict` forbids the degradation that occurred.
const EXIT_DEGRADED: u8 = 5;

/// An error carrying the process exit code it maps to.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        Self {
            code: EXIT_USAGE,
            message: message.into(),
        }
    }

    fn invalid(message: impl Into<String>) -> Self {
        Self {
            code: EXIT_INVALID_INPUT,
            message: message.into(),
        }
    }

    fn degraded(message: impl Into<String>) -> Self {
        Self {
            code: EXIT_DEGRADED,
            message: message.into(),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self {
            code: EXIT_RUNTIME,
            message,
        }
    }
}

impl From<&WaveMinError> for CliError {
    fn from(e: &WaveMinError) -> Self {
        let code = match e {
            WaveMinError::InvalidConfig(_)
            | WaveMinError::InvalidTree(_)
            | WaveMinError::NonFiniteInput(_)
            | WaveMinError::NegativeInput(_)
            | WaveMinError::EmptySinks
            | WaveMinError::DuplicateSinks(_)
            | WaveMinError::MissingCell(_)
            | WaveMinError::Sdf(_) => EXIT_INVALID_INPUT,
            WaveMinError::NoFeasibleInterval | WaveMinError::MemoryBudget { .. } => EXIT_INFEASIBLE,
            _ => EXIT_RUNTIME,
        };
        Self {
            code,
            message: e.to_string(),
        }
    }
}

impl From<WaveMinError> for CliError {
    fn from(e: WaveMinError) -> Self {
        Self::from(&e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        print_usage();
        return Err(CliError::usage("no command given"));
    };
    let flags = Flags::parse(&args[1..]);
    match command.as_str() {
        "synthesize" => {
            flags.reject_unknown("synthesize", &["benchmark", "seed", "o"])?;
            synthesize(&flags)
        }
        "import" => {
            flags.reject_unknown("import", &["sdf", "lib", "o"])?;
            import_cmd(&flags)
        }
        "optimize" => {
            flags.reject_unknown(
                "optimize",
                &[
                    "i",
                    "sdf",
                    "algorithm",
                    "kappa",
                    "samples",
                    "lib",
                    "power",
                    "time-budget-ms",
                    "threads",
                    "strict",
                    "metrics-out",
                    "trace",
                    "trace-out",
                    "fault-plan",
                    "checkpoint",
                    "resume",
                    "memory-budget-mb",
                    "shard-sinks",
                    "progress",
                    "o",
                ],
            )?;
            optimize(&flags)
        }
        "report" => {
            flags.reject_unknown(
                "report",
                &[
                    "i",
                    "sdf",
                    "lib",
                    "power",
                    "kappa",
                    "samples",
                    "threads",
                    "time-budget-ms",
                    "html",
                    "title",
                ],
            )?;
            report_cmd(&flags)
        }
        "explain" => {
            flags.reject_unknown(
                "explain",
                &["i", "sdf", "lib", "power", "top", "svg", "json"],
            )?;
            explain(&flags)
        }
        "check-report" => {
            flags.reject_unknown("check-report", &["i"])?;
            check_report(&flags)
        }
        "validate" => {
            flags.reject_unknown(
                "validate",
                &["i", "sdf", "lib", "power", "kappa", "samples"],
            )?;
            validate(&flags)
        }
        "evaluate" => {
            flags.reject_unknown("evaluate", &["i", "sdf", "lib"])?;
            evaluate(&flags)
        }
        "svg" => {
            flags.reject_unknown("svg", &["i", "sdf", "lib", "o"])?;
            svg(&flags)
        }
        "liberty" => {
            flags.reject_unknown("liberty", &["o"])?;
            liberty_dump(&flags)
        }
        "serve" => {
            flags.reject_unknown(
                "serve",
                &["socket", "workers", "cache-bytes", "threads", "log-json"],
            )?;
            serve_cmd(&flags)
        }
        "client" => {
            flags.reject_unknown("client", &["socket", "json"])?;
            client_cmd(&flags)
        }
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => {
            print_usage();
            Err(CliError::usage(format!("unknown command '{other}'")))
        }
    }
}

fn print_usage() {
    eprintln!(
        "wavemin — clock buffer polarity assignment (WaveMin reproduction)

USAGE:
  wavemin synthesize --benchmark <name|all> [--seed N] [-o tree.clk]
  wavemin import     --sdf file.sdf [--lib file.lib] [-o tree.clk]
  wavemin optimize   -i tree.clk | --sdf file.sdf
                     [--algorithm wavemin|fast|peakmin|nieh|samanta|multimode]
                     [--kappa PS] [--samples N] [--lib file.lib]
                     [--power intent.pw] [--time-budget-ms N] [--threads N]
                     [--strict] [--metrics-out report.json] [--trace]
                     [--trace-out trace.json] [--fault-plan seed:rate]
                     [--checkpoint journal.ckpt [--resume]]
                     [--memory-budget-mb N] [--shard-sinks N]
                     [--progress] [-o out.clk]
  wavemin validate   -i tree.clk | --sdf file.sdf [--lib file.lib]
                     [--power intent.pw] [--kappa PS] [--samples N]
  wavemin check-report -i report.json
  wavemin report     -i tree.clk | --sdf file.sdf [--lib file.lib]
                     [--power intent.pw] [--kappa PS] [--samples N]
                     [--threads N] [--time-budget-ms N] [--title T]
                     --html report.html
  wavemin explain    -i tree.clk | --sdf file.sdf [--lib file.lib]
                     [--power intent.pw] [--top N] [--svg waves.svg]
                     [--json attribution.json]
  wavemin evaluate   -i tree.clk | --sdf file.sdf [--lib file.lib]
  wavemin svg        -i tree.clk | --sdf file.sdf [--lib file.lib] [-o out.svg]
  wavemin liberty    [-o out.lib]
  wavemin serve      --socket PATH [--workers N] [--cache-bytes N] [--threads N]
                     [--log-json]
  wavemin client     --socket PATH --json '<request>'

FLAGS:
  --sdf PATH          read the design from a signoff SDF file instead of
                      -i: IOPATH/INTERCONNECT delays recover the topology
                      and per-sink arrivals (uniform 1.1 V supply; not
                      combinable with --power)
  --lib PATH          Liberty-subset cell library (default: built-in
                      nangate45); cell_rise/cell_fall LUTs calibrate the
                      characterizer when wavemin_ attributes are absent
  --time-budget-ms N  wall-clock cap; the solver degrades gracefully and
                      reports what was relaxed instead of running unbounded
  --threads N         worker threads for independent interval/mode solves
                      (default: one per core; results are thread-count
                      independent for unbudgeted runs)
  --strict            fail (exit 5) if the run had to degrade at all
  --metrics-out PATH  write the machine-readable run report (solver
                      metrics, stage timings, per-zone counters) as JSON
  --trace             print stage spans to stderr as they close (also
                      enables metrics collection)
  --trace-out PATH    record the event journal (stage/zone/layer/label-batch
                      spans, ladder, budget and validation instants) and
                      write it as Chrome-trace JSON, viewable in
                      chrome://tracing and ui.perfetto.dev; wavemin, fast,
                      peakmin and multimode runs
  --fault-plan S:R    inject deterministic faults (seed S, per-site rate R
                      in (0,1]) into the zone solvers for chaos testing;
                      also settable via WAVEMIN_FAULTS=seed:rate. Contained
                      faults are salvaged and reported, not fatal
  --checkpoint PATH   append every completed zone's result to a
                      content-hashed journal as it finishes (wavemin
                      and multimode; not with --shard-sinks)
  --resume            with --checkpoint: reuse journal entries whose keys
                      still match and re-solve only missing/dirty zones
  --memory-budget-mb N  cap the whole process at about N MB: the zone
                      store spills least-recently-used zones and
                      rebuilds them on demand (same results); an
                      infeasible budget fails up front (exit 4)
                      instead of thrashing
  --shard-sinks N     wavemin only: split the tree into subtree shards of
                      at most N sinks, solve each independently, merge at
                      the root and re-validate the exact global skew
  --progress          optimize (wavemin, fast, peakmin, multimode;
                      unsharded): print a live stderr ticker (zones
                      done/total, ladder rung, RSS) while solving;
                      observation only — results are bit-identical
  --html PATH         report: write a self-contained interactive HTML run
                      report (summary, histograms, attribution table,
                      waveforms, zone timeline; no external references)
  --title T           report: page title (default: the input name)
  --log-json          serve: one structured JSON line on stderr per job
                      lifecycle event (queued/start/done)
  --top N             explain: contributors to print (default 10)
  --socket PATH       serve/client: unix socket the daemon binds/dials
  --workers N         serve: solve-job worker threads (default 2)
  --cache-bytes N     serve: per-session zone-cache byte budget
                      (default 256 MiB); re-loading a session keeps its
                      cache, so ECO re-solves splice unchanged zones
  --json '<request>'  client: one line-delimited JSON request, e.g.
                      '{{\"cmd\":\"load\",\"session\":\"a\",\"benchmark\":\"s15850\"}}'
                      then '{{\"cmd\":\"solve\",\"session\":\"a\"}}'; exits
                      nonzero when the server answers \"ok\":false

EXIT CODES:
  0 success   1 runtime error   2 usage error
  3 input failed validation   4 infeasible   5 degraded under --strict
  (salvaged fault-contained runs exit 0 unless --strict)

Benchmarks: s13207 s15850 s35932 s38417 s38584 ispd09f31 ispd09f34
            scale<N>[k|m] — synthetic trees of N sinks (scale10k,
            scale100k, scale1m) for budgeted/sharded scale runs"
    );
}

struct Flags {
    entries: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut entries = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
                let value = iter
                    .peek()
                    .filter(|v| !v.starts_with('-'))
                    .map(|v| (*v).clone())
                    .unwrap_or_default();
                if !value.is_empty() {
                    iter.next();
                }
                entries.push((key.to_owned(), value));
            }
        }
        Self { entries }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `true` when a boolean flag like `--strict` was passed.
    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Rejects flags the subcommand does not understand, so a typo like
    /// `--sTrict` fails loudly instead of silently changing semantics.
    fn reject_unknown(&self, command: &str, allowed: &[&str]) -> Result<(), CliError> {
        for (key, _) in &self.entries {
            if !allowed.contains(&key.as_str()) {
                return Err(CliError::usage(format!(
                    "unknown flag '--{key}' for '{command}'"
                )));
            }
        }
        Ok(())
    }

    fn numeric(&self, key: &str) -> Result<Option<f64>, CliError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::usage(format!("--{key} expects a number, got '{v}'"))),
        }
    }
}

fn benchmark_by_name(name: &str) -> Result<Benchmark, CliError> {
    if let Some(leaves) = parse_scale_name(name) {
        return Ok(Benchmark::scale(name, leaves));
    }
    Benchmark::all()
        .into_iter()
        .find(|b| b.name == name)
        .ok_or_else(|| CliError::usage(format!("unknown benchmark '{name}'")))
}

/// Synthetic scale benchmarks: `scale<N>` with an optional `k`/`m`
/// multiplier suffix — `scale10k`, `scale100k`, `scale1m`, `scale500`.
fn parse_scale_name(name: &str) -> Option<usize> {
    let rest = name.strip_prefix("scale")?;
    let (digits, mult) = match rest.as_bytes().last()? {
        b'k' => (&rest[..rest.len() - 1], 1_000),
        b'm' => (&rest[..rest.len() - 1], 1_000_000),
        _ => (rest, 1),
    };
    let n: usize = digits.parse().ok()?;
    (n > 0).then(|| n.saturating_mul(mult))
}

fn load_library(flags: &Flags) -> Result<CellLibrary, CliError> {
    match flags.get("lib") {
        None => Ok(CellLibrary::nangate45()),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            liberty::parse_library(&text).map_err(|e| CliError::invalid(format!("{path}: {e}")))
        }
    }
}

/// Reads and lowers an SDF file with the `--lib` (default nangate45)
/// library, surfacing parser/topology problems on the invalid-input
/// exit path.
fn import_from_flags(flags: &Flags, path: &str) -> Result<wavemin::io::ImportedDesign, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let lib = load_library(flags)?;
    wavemin::io::import_sdf(&text, lib).map_err(|e| {
        let mut c = CliError::from(&e);
        c.message = format!("{path}: {}", c.message);
        c
    })
}

fn load_design(flags: &Flags) -> Result<Design, CliError> {
    if let Some(path) = flags.get("sdf") {
        if flags.has("i") {
            return Err(CliError::usage("-i and --sdf are mutually exclusive"));
        }
        if flags.has("power") {
            return Err(CliError::usage(
                "--power cannot be combined with --sdf (the SDF lowering fixes a uniform 1.1 V supply)",
            ));
        }
        return Ok(import_from_flags(flags, path)?.design);
    }
    let input = flags
        .get("i")
        .ok_or_else(|| CliError::usage("missing -i <tree.clk> (or --sdf <file.sdf>)"))?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let tree = tree_io::read_tree(&text).map_err(|e| CliError::invalid(format!("{input}: {e}")))?;
    let lib = load_library(flags)?;
    tree.validate(|c| lib.get(c).is_some())
        .map_err(|e| CliError::invalid(format!("{input}: {e}")))?;
    let power = match flags.get("power") {
        None => PowerDesign::uniform(Volts::new(1.1)),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            wavemin_clocktree::power_io::read_power(&text)
                .map_err(|e| CliError::invalid(format!("{path}: {e}")))?
        }
    };
    Ok(Design::new(tree, lib, power))
}

fn write_out(flags: &Flags, default_msg: &str, content: &str) -> Result<(), CliError> {
    match flags.get("o") {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        None => {
            eprintln!("{default_msg}");
            print!("{content}");
            Ok(())
        }
    }
}

fn synthesize(flags: &Flags) -> Result<(), CliError> {
    let name = flags
        .get("benchmark")
        .ok_or_else(|| CliError::usage("missing --benchmark"))?;
    let seed = flags.numeric("seed")?.unwrap_or(42.0) as u64;
    let bench = benchmark_by_name(name)?;
    let design = Design::from_benchmark(&bench, seed);
    eprintln!(
        "synthesized {}: {} nodes, {} sinks, skew {:.3}",
        bench.name,
        design.tree.len(),
        design.leaves().len(),
        design.skew(0).map_err(|e| e.to_string())?
    );
    write_out(
        flags,
        "(no -o given, dumping to stdout)",
        &tree_io::write_tree(&design.tree),
    )
}

/// `wavemin import --sdf F [--lib F] [-o tree.clk]` — lower a signoff
/// SDF file into the validated tree format the other subcommands read.
fn import_cmd(flags: &Flags) -> Result<(), CliError> {
    let path = flags
        .get("sdf")
        .ok_or_else(|| CliError::usage("missing --sdf <file.sdf>"))?;
    let imported = import_from_flags(flags, path)?;
    eprintln!(
        "imported {path}: {} instances, {} sinks, recovered skew {:.3} ps (choose --kappa >= the skew you intend to allow)",
        imported.instances.len(),
        imported.sink_arrivals.len(),
        imported.recovered_skew.value()
    );
    eprintln!(
        "inexact sinks: {} of {} (lowered arrival not bit-equal to the SDF chain)",
        imported.inexact_sinks,
        imported.sink_arrivals.len()
    );
    write_out(
        flags,
        "(no -o given, dumping imported tree to stdout)",
        &tree_io::write_tree(&imported.design.tree),
    )
}

fn build_config(flags: &Flags) -> Result<WaveMinConfig, CliError> {
    let mut config = WaveMinConfig::default();
    if let Some(k) = flags.numeric("kappa")? {
        config.skew_bound = Picoseconds::new(k);
    }
    if let Some(s) = flags.numeric("samples")? {
        config.sample_count = s as usize;
    }
    if let Some(ms) = flags.numeric("time-budget-ms")? {
        if ms < 0.0 {
            return Err(CliError::usage(
                "--time-budget-ms expects a nonnegative count",
            ));
        }
        config.time_budget_ms = Some(ms as u64);
    }
    if let Some(t) = flags.numeric("threads")? {
        if t < 1.0 || t.fract() != 0.0 {
            return Err(CliError::usage("--threads expects a positive integer"));
        }
        config.threads = Some(t as usize);
    }
    // Metrics are collected whenever a sink for them exists: a report
    // file (--metrics-out), live span tracing (--trace), or the event
    // journal (--trace-out).
    config.collect_metrics =
        flags.has("metrics-out") || flags.has("trace") || flags.has("trace-out");
    if let Some(spec) = flags.get("fault-plan") {
        let plan =
            FaultPlan::parse(spec).map_err(|e| CliError::usage(format!("--fault-plan: {e}")))?;
        config.fault_plan = Some(plan);
    }
    if let Some(mb) = flags.numeric("memory-budget-mb")? {
        if mb < 1.0 || mb.fract() != 0.0 {
            return Err(CliError::usage(
                "--memory-budget-mb expects a positive integer MB count",
            ));
        }
        config.memory_budget_mb = Some(mb as usize);
    }
    config.validate().map_err(|e| CliError::from(&e))?;
    Ok(config)
}

/// What `optimize` observes through: a registry whenever metrics are
/// collected, stage lines on stderr for `--trace` and an event journal
/// for `--trace-out`.
fn optimize_instruments(flags: &Flags, config: &WaveMinConfig) -> Instruments {
    let mut ins = Instruments {
        trace: flags.has("trace"),
        ..Instruments::from_config(config)
    };
    if flags.has("trace-out") {
        ins.journal = TraceJournal::enabled();
    }
    ins
}

/// The checkpoint journal `optimize` is asked for: its path and whether
/// to resume from it.
fn checkpoint_flags(flags: &Flags) -> Result<Option<(&str, bool)>, CliError> {
    match flags.get("checkpoint") {
        Some("") => Err(CliError::usage("--checkpoint expects a journal path")),
        Some(path) => Ok(Some((path, flags.has("resume")))),
        None if flags.has("resume") => {
            Err(CliError::usage("--resume requires --checkpoint <path>"))
        }
        None => Ok(None),
    }
}

/// A compact rendering of per-shard sink counts: the full list for a few
/// shards, a min..max range summary for many.
fn summarize_shard_sinks(sinks: &[usize]) -> String {
    if sinks.len() <= 8 {
        format!("{sinks:?}")
    } else {
        let lo = sinks.iter().min().copied().unwrap_or(0);
        let hi = sinks.iter().max().copied().unwrap_or(0);
        format!("[{} shards of {lo}..{hi} sinks]", sinks.len())
    }
}

/// Injected chaos panics are contained and salvaged by the solver, but
/// the default panic hook would still print one message (and backtrace)
/// per fault to stderr, drowning the real output. With a plan active,
/// swallow hook output for payloads carrying the injection marker and
/// defer everything else — genuine panics — to the previous hook.
fn quiet_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains(wavemin::fault::INJECTED_MARKER));
        if !injected {
            previous(info);
        }
    }));
}

fn optimize(flags: &Flags) -> Result<(), CliError> {
    let design = load_design(flags)?;
    let config = build_config(flags)?;
    let checkpoint = checkpoint_flags(flags)?;
    if config.fault_plan.is_some() {
        quiet_injected_panics();
    }
    let algorithm = flags.get("algorithm").unwrap_or("wavemin");
    let trace_out = flags.get("trace-out");
    let mut ins = optimize_instruments(flags, &config);
    let shard_sinks = match flags.numeric("shard-sinks")? {
        Some(n) if n < 1.0 || n.fract() != 0.0 => {
            return Err(CliError::usage(
                "--shard-sinks expects a positive integer sink count",
            ));
        }
        Some(n) => Some(n as usize),
        None => None,
    };
    if shard_sinks.is_some() && algorithm != "wavemin" {
        return Err(CliError::usage(
            "--shard-sinks only applies to the 'wavemin' algorithm",
        ));
    }
    if shard_sinks.is_some() && checkpoint.is_some() {
        return Err(CliError::usage(
            "--checkpoint cannot be combined with --shard-sinks (every shard is its own design)",
        ));
    }
    // The MOSP flows take the journal as their zone store. Its keys do
    // not name the solver, so the other algorithms must not write one.
    let journal = match checkpoint {
        Some((path, resume)) if matches!(algorithm, "wavemin" | "multimode") => Some(
            ZoneCache::open(path, design_fingerprint(&design, &config)?, resume)?,
        ),
        Some(_) => {
            eprintln!(
                "note: --checkpoint/--resume: only the 'wavemin' and 'multimode' algorithms journal zone results"
            );
            None
        }
        None => None,
    };
    if flags.has("progress") {
        if matches!(algorithm, "nieh" | "samanta") || shard_sinks.is_some() {
            eprintln!(
                "note: --progress only ticks for unsharded wavemin, fast, peakmin and multimode runs"
            );
        } else {
            ins.progress = stderr_progress_ticker();
        }
    }
    let outcome = match (algorithm, shard_sinks) {
        ("wavemin", Some(max_sinks)) => {
            wavemin::shardrun::optimize_sharded(&design, &config, max_sinks, &ins).map(|sharded| {
                eprintln!(
                    "sharded: {} shard(s), sinks per shard {}{}",
                    sharded.shard_count,
                    summarize_shard_sinks(&sharded.shard_sinks),
                    if sharded.merge_fallback {
                        " — merged assignment violated the global bound; identity fallback"
                    } else {
                        ""
                    }
                );
                sharded.outcome
            })
        }
        _ => match algorithm {
            "wavemin" => ClkWaveMin::new(config).run_instrumented(&design, journal.as_ref(), &ins),
            "fast" => ClkWaveMinFast::new(config).run_instrumented(&design, &ins),
            "peakmin" => ClkPeakMin::new(config).run_instrumented(&design, &ins),
            "nieh" => NiehOppositePhase::new().run(&design),
            "samanta" => SamantaBalanced::new(Microns::new(50.0)).run(&design),
            "multimode" => {
                ClkWaveMinM::new(config).run_instrumented(&design, journal.as_ref(), &ins)
            }
            other => return Err(CliError::usage(format!("unknown algorithm '{other}'"))),
        },
    }
    .map_err(|e| CliError::from(&e))?;

    if !outcome.faulted_zones.is_empty() {
        eprintln!(
            "note: {} zone worker fault(s) contained (zones {:?}); the salvaged outcome is valid",
            outcome.faulted_zones.len(),
            outcome.faulted_zones
        );
    }
    if let Some(d) = &outcome.degradation {
        eprint!("{}", degradation_summary(Some(d)));
    }
    // Salvaged or budget-relaxed runs still exit 0 by default: the outcome
    // is valid, just degraded. `--strict` turns any degradation into
    // exit 5.
    if flags.has("strict") {
        if !outcome.faulted_zones.is_empty() {
            return Err(CliError::degraded(format!(
                "--strict: {} zone solve(s) faulted and were salvaged on the greedy rung",
                outcome.faulted_zones.len()
            )));
        }
        if let Some(d) = &outcome.degradation {
            return Err(CliError::degraded(format!(
                "--strict: the run relaxed {} of {} zone solves to stay within budget",
                d.exhausted_solves, d.total_solves
            )));
        }
    }
    eprintln!(
        "{algorithm}: peak {:.3} -> {:.3} ({:+.2} %), Vdd noise {:.3} -> {:.3}, skew {:.2} -> {:.2}",
        outcome.peak_before,
        outcome.peak_after,
        -outcome.peak_improvement_pct(),
        outcome.vdd_noise_before,
        outcome.vdd_noise_after,
        outcome.skew_before,
        outcome.skew_after,
    );
    let (pos, neg) = outcome.assignment.polarity_counts(&design);
    eprintln!(
        "assignment: {pos} buffers / {neg} inverters over {} sinks",
        pos + neg
    );
    eprintln!("degenerate zones: {}", outcome.degenerate_zones);
    if let Some(report) = &outcome.report {
        eprintln!(
            "metrics: ladder rung {}, {} zone solves, {} labels created, intern hit rate {:.1} %",
            report.ladder_rung,
            report.counters.zone_solves,
            report.counters.labels_created,
            report.counters.intern_hit_rate() * 100.0
        );
        if let Some(path) = flags.get("metrics-out") {
            let json = serde_json::to_string_pretty(report)
                .map_err(|e| format!("cannot serialize report: {e}"))?;
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote metrics report to {path}");
        }
    } else if flags.has("metrics-out") {
        eprintln!("note: --metrics-out: the '{algorithm}' algorithm does not produce a run report");
    }
    if let Some(path) = trace_out {
        if matches!(algorithm, "nieh" | "samanta") {
            eprintln!("note: --trace-out: this '{algorithm}' run emits no solver events");
        }
        let json = ins
            .journal
            .chrome_trace()
            .ok_or_else(|| CliError::from("trace journal was not enabled".to_owned()))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        let dropped = ins.journal.dropped_events();
        if dropped > 0 {
            eprintln!("note: trace journal dropped {dropped} events to its capacity cap");
        }
        eprintln!("wrote Chrome-trace journal to {path}");
    }

    let mut optimized = design.clone();
    outcome.assignment.apply_to(&mut optimized);
    if outcome.adb_count + outcome.adi_count > 0 {
        eprintln!(
            "note: {} ADBs / {} ADIs carry per-mode delay codes that the .clk              format does not persist",
            outcome.adb_count, outcome.adi_count
        );
    }
    write_out(
        flags,
        "(no -o given, dumping optimized tree to stdout)",
        &tree_io::write_tree(&optimized.tree),
    )
}

/// A [`ProgressTracker`] that prints one stderr line per tick:
/// zones done/total, ladder rung, resident set size, and elapsed time.
fn stderr_progress_ticker() -> ProgressTracker {
    ProgressTracker::enabled(std::time::Duration::from_millis(500), |p: &Progress| {
        let rss_mb = p.rss_bytes as f64 / (1 << 20) as f64;
        eprintln!(
            "progress: {}/{} zone solves · rung {} · rss {:.0} MB · {:.1} s{}",
            p.zones_done,
            p.zones_total,
            p.rung,
            rss_mb,
            p.elapsed_ms as f64 / 1e3,
            if p.done { " · done" } else { "" }
        );
    })
}

/// `wavemin report --html PATH` — run the wavemin flow with metrics and
/// tracing enabled, then render one self-contained interactive HTML
/// report: summary cards, latency histograms, the exact peak-attribution
/// table, overlaid waveforms, the optimized tree, and a zone-solve
/// timeline from the event journal.
fn report_cmd(flags: &Flags) -> Result<(), CliError> {
    use wavemin::reportgen::{render_html, ReportInputs};

    let html_path = flags
        .get("html")
        .ok_or_else(|| CliError::usage("missing --html <report.html>"))?;
    let design = load_design(flags)?;
    let mut config = build_config(flags)?;
    config.collect_metrics = true;
    let ins = Instruments {
        journal: TraceJournal::enabled(),
        ..Instruments::from_config(&config)
    };
    let outcome = ClkWaveMin::new(config)
        .run_instrumented(&design, None, &ins)
        .map_err(|e| CliError::from(&e))?;
    let report = outcome
        .report
        .as_ref()
        .ok_or_else(|| CliError::from("run produced no report".to_owned()))?;

    let mut optimized = design.clone();
    outcome.assignment.apply_to(&mut optimized);
    let waveform_svg = report
        .attribution
        .as_ref()
        .map(|attr| attribution_chart(&NoiseEvaluator::new(&optimized), attr))
        .transpose()?;
    let tree_svg = wavemin_clocktree::svg::render(
        &optimized.tree,
        &optimized.lib,
        &wavemin_clocktree::svg::SvgOptions::default(),
    );
    let trace_json = ins.journal.chrome_trace();
    let title = flags
        .get("title")
        .map(str::to_owned)
        .or_else(|| flags.get("i").map(str::to_owned))
        .or_else(|| flags.get("sdf").map(str::to_owned))
        .unwrap_or_else(|| "wavemin run".to_owned());

    let html = render_html(&ReportInputs {
        title: &title,
        report,
        waveform_svg: waveform_svg.as_deref(),
        tree_svg: Some(&tree_svg),
        trace_json: trace_json.as_deref(),
    });
    std::fs::write(html_path, &html).map_err(|e| format!("cannot write {html_path}: {e}"))?;
    eprintln!(
        "report: peak {:.3} -> {:.3}, {} zone solves; wrote {} ({:.0} KiB, self-contained)",
        outcome.peak_before,
        outcome.peak_after,
        report.counters.zone_solves,
        html_path,
        html.len() as f64 / 1024.0
    );
    Ok(())
}

/// Decomposes the worst mode's peak into per-node contributions and
/// prints/exports the attribution (see `NoiseEvaluator::attribution`).
fn explain(flags: &Flags) -> Result<(), CliError> {
    let design = load_design(flags)?;
    let eval = NoiseEvaluator::new(&design);
    let top = flags.numeric("top")?.unwrap_or(10.0).max(1.0) as usize;

    let attr = eval
        .worst_attribution()?
        .ok_or_else(|| CliError::invalid("design has no power modes"))?;

    println!(
        "peak {:.6} mA on the {} rail at the {} edge, t = {:.2} ps (mode {})",
        attr.peak_ma, attr.rail, attr.edge, attr.time_ps, attr.mode
    );
    let mut rows = Vec::new();
    let mut cumulative = 0.0;
    for c in attr.contributions.iter().take(top) {
        cumulative += c.amps_ma;
        let pct = if attr.peak_ma.abs() > 1e-12 {
            cumulative / attr.peak_ma * 100.0
        } else {
            0.0
        };
        rows.push(vec![
            c.node.to_string(),
            c.cell.clone(),
            c.kind.clone(),
            format!("{:.6}", c.amps_ma),
            format!("{pct:.1}"),
        ]);
    }
    print!(
        "{}",
        wavemin::report::render_table(&["node", "cell", "kind", "mA", "cum %"], &rows)
    );
    let hidden = attr.contributions.len().saturating_sub(top);
    if hidden > 0 {
        let rest: f64 = attr.contributions.iter().skip(top).map(|c| c.amps_ma).sum();
        println!("(+ {hidden} more contributors totaling {rest:.6} mA)");
    }
    let sum = attr.contribution_sum();
    println!(
        "contribution sum {:.9} mA (delta vs peak {:.3e})",
        sum,
        (sum - attr.peak_ma).abs()
    );

    if let Some(path) = flags.get("json") {
        let json = serde_json::to_string_pretty(&attr)
            .map_err(|e| format!("cannot serialize attribution: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote attribution to {path}");
    }
    if let Some(path) = flags.get("svg") {
        let svg = attribution_chart(&eval, &attr)?;
        std::fs::write(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote waveform overlay to {path}");
    }
    Ok(())
}

/// The explain SVG: the total rail waveform overlaid with the top
/// contributors' individual waveforms, the argmax instant marked.
fn attribution_chart(eval: &NoiseEvaluator, attr: &PeakAttribution) -> Result<String, CliError> {
    use wavemin_cells::characterize::{ClockEdge, Rail};
    use wavemin_clocktree::svg::{render_waveforms, WaveChartOptions, WaveSeries};

    let rail = if attr.rail == "gnd" {
        Rail::Gnd
    } else {
        Rail::Vdd
    };
    let edge = if attr.edge == "fall" {
        ClockEdge::Fall
    } else {
        ClockEdge::Rise
    };
    let (per_node, total) = eval.waveforms(attr.mode).map_err(|e| CliError::from(&e))?;
    let points = |w: &wavemin_cells::Waveform| -> Vec<(f64, f64)> {
        w.breakpoints()
            .map(|(t, i)| (t.value(), i.to_milliamps().value()))
            .collect()
    };
    let mut series = vec![WaveSeries {
        label: format!("total {} {}", attr.rail, attr.edge),
        color: "#111111".to_owned(),
        points: points(total.get(rail, edge)),
    }];
    for c in attr.contributions.iter().take(4) {
        let Some(waves) = per_node.get(c.node) else {
            continue;
        };
        series.push(WaveSeries {
            label: format!("{} {} ({})", c.kind, c.node, c.cell),
            color: String::new(),
            points: points(waves.get(rail, edge)),
        });
    }
    Ok(render_waveforms(
        &series,
        &WaveChartOptions {
            marker: Some((attr.time_ps, attr.peak_ma)),
            ..WaveChartOptions::default()
        },
    ))
}

fn check_report(flags: &Flags) -> Result<(), CliError> {
    let input = flags
        .get("i")
        .ok_or_else(|| CliError::usage("missing -i <report.json>"))?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let report =
        RunReport::from_json(&text).map_err(|e| CliError::invalid(format!("{input}: {e}")))?;
    report
        .validate()
        .map_err(|e| CliError::invalid(format!("{input}: {e}")))?;
    println!(
        "ok: schema v{}, {} zone solves across {} zones, {} labels created, {} stage spans",
        report.schema_version,
        report.counters.zone_solves,
        report.zones.len(),
        report.counters.labels_created,
        report.stages.len()
    );
    if let Some(attr) = &report.attribution {
        println!(
            "attribution: peak {:.6} mA ({} {}) over {} contributors, sum delta {:.3e}",
            attr.peak_ma,
            attr.rail,
            attr.edge,
            attr.contributions.len(),
            (attr.contribution_sum() - attr.peak_ma).abs()
        );
    }
    Ok(())
}

fn validate(flags: &Flags) -> Result<(), CliError> {
    build_config(flags)?;
    let design = load_design(flags)?;
    design.validate().map_err(|e| CliError::from(&e))?;
    println!(
        "ok: {} nodes, {} sinks, {} power mode(s); configuration and design are valid",
        design.tree.len(),
        design.leaves().len(),
        design.mode_count()
    );
    Ok(())
}

fn evaluate(flags: &Flags) -> Result<(), CliError> {
    let design = load_design(flags)?;
    let report = NoiseEvaluator::new(&design)
        .evaluate(0)
        .map_err(|e| CliError::from(&e))?;
    println!("peak current : {:.3}", report.peak);
    println!(
        "peak rail    : {:?} at {:?} edge, t = {:.2}",
        report.peak_rail, report.peak_event, report.peak_time
    );
    println!("VDD noise    : {:.3}", report.vdd_noise);
    println!("Gnd noise    : {:.3}", report.gnd_noise);
    println!("clock skew   : {:.2}", report.skew);
    Ok(())
}

fn svg(flags: &Flags) -> Result<(), CliError> {
    let design = load_design(flags)?;
    let rendered = wavemin_clocktree::svg::render(
        &design.tree,
        &design.lib,
        &wavemin_clocktree::svg::SvgOptions::default(),
    );
    write_out(flags, "(no -o given, dumping SVG to stdout)", &rendered)
}

#[cfg(unix)]
fn serve_cmd(flags: &Flags) -> Result<(), CliError> {
    let socket = flags
        .get("socket")
        .ok_or_else(|| CliError::usage("missing --socket <path>"))?;
    let workers = match flags.numeric("workers")? {
        None => 2,
        Some(w) if w >= 1.0 && w.fract() == 0.0 => w as usize,
        Some(_) => return Err(CliError::usage("--workers expects a positive integer")),
    };
    let cache_bytes = match flags.numeric("cache-bytes")? {
        None => 256 << 20,
        Some(b) if b >= 0.0 && b.fract() == 0.0 => b as usize,
        Some(_) => return Err(CliError::usage("--cache-bytes expects a byte count")),
    };
    let threads = match flags.numeric("threads")? {
        None => None,
        Some(t) if t >= 1.0 && t.fract() == 0.0 => Some(t as usize),
        Some(_) => return Err(CliError::usage("--threads expects a positive integer")),
    };
    eprintln!(
        "wavemin serve: listening on {socket} ({workers} worker(s), {cache_bytes} cache bytes)"
    );
    wavemin::serve::run(wavemin::serve::ServeOptions {
        socket_path: socket.to_owned(),
        workers,
        cache_bytes,
        threads,
        log_json: flags.has("log-json"),
    })
    .map_err(|e| CliError::from(format!("serve: {e}")))?;
    eprintln!("wavemin serve: drained and stopped");
    Ok(())
}

#[cfg(not(unix))]
fn serve_cmd(_flags: &Flags) -> Result<(), CliError> {
    Err(CliError::usage("'serve' requires a unix platform"))
}

#[cfg(unix)]
fn client_cmd(flags: &Flags) -> Result<(), CliError> {
    let socket = flags
        .get("socket")
        .ok_or_else(|| CliError::usage("missing --socket <path>"))?;
    let line = flags
        .get("json")
        .ok_or_else(|| CliError::usage("missing --json '<request>'"))?;
    let response = wavemin::serve::client_request(socket, line)
        .map_err(|e| CliError::from(format!("client: {e}")))?;
    println!("{response}");
    let ok = serde_json::from_str(&response)
        .ok()
        .and_then(|v| match v {
            serde::Value::Map(entries) => entries
                .into_iter()
                .find_map(|(k, v)| (k == "ok").then_some(matches!(v, serde::Value::Bool(true)))),
            _ => None,
        })
        .unwrap_or(false);
    if ok {
        Ok(())
    } else {
        Err(CliError::from("server returned an error".to_owned()))
    }
}

#[cfg(not(unix))]
fn client_cmd(_flags: &Flags) -> Result<(), CliError> {
    Err(CliError::usage("'client' requires a unix platform"))
}

fn liberty_dump(flags: &Flags) -> Result<(), CliError> {
    let lib = CellLibrary::nangate45();
    write_out(
        flags,
        "(no -o given, dumping library to stdout)",
        &liberty::write_library("nangate45_wavemin", &lib),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    /// A per-process scratch path for a test's files.
    fn tmp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("wavemin-cli-tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        let path = dir.join(format!("{}-{name}", std::process::id()));
        path.to_string_lossy().into_owned()
    }

    fn exit_code(list: &[&str]) -> u8 {
        run(&args(list)).map_or_else(|e| e.code, |()| 0)
    }

    #[test]
    fn a_missing_or_unknown_command_is_a_usage_error() {
        assert_eq!(exit_code(&[]), EXIT_USAGE);
        let err = run(&args(&["optimise"])).expect_err("typo");
        assert_eq!(err.code, EXIT_USAGE);
        assert_eq!(err.message, "unknown command 'optimise'");
        assert_eq!(exit_code(&["help"]), 0);
    }

    #[test]
    fn flags_take_the_next_word_unless_it_is_a_flag() {
        let flags = Flags::parse(&args(&["-i", "t.clk", "--strict", "--kappa", "7", "stray"]));
        assert_eq!(flags.get("i"), Some("t.clk"));
        assert!(flags.has("strict"));
        assert_eq!(flags.get("strict"), Some(""));
        assert_eq!(flags.numeric("kappa").ok().flatten(), Some(7.0));
        assert!(!flags.has("stray"));
        // A negative value reads as a flag, so the option has no value.
        let err = build_config(&Flags::parse(&args(&["--time-budget-ms", "-5"])))
            .expect_err("missing value");
        assert_eq!(err.code, EXIT_USAGE);
        assert!(err.message.contains("got ''"), "{}", err.message);
    }

    #[test]
    fn scale_benchmark_names_take_k_and_m_suffixes() {
        assert_eq!(parse_scale_name("scale500"), Some(500));
        assert_eq!(parse_scale_name("scale10k"), Some(10_000));
        assert_eq!(parse_scale_name("scale1m"), Some(1_000_000));
        for bad in ["scale0", "scalek", "scale", "scale1g", "s15850"] {
            assert_eq!(parse_scale_name(bad), None, "{bad}");
        }
        assert!(benchmark_by_name("s15850").is_ok());
        let err = benchmark_by_name("s99999").expect_err("no such benchmark");
        assert_eq!(err.code, EXIT_USAGE);
    }

    #[test]
    fn run_options_are_checked_before_any_work() {
        let usage = |list: &[&str]| {
            let flags = Flags::parse(&args(list));
            build_config(&flags)
                .and_then(|_| checkpoint_flags(&flags).map(drop))
                .expect_err("rejected")
                .code
        };
        assert_eq!(usage(&["--resume"]), EXIT_USAGE);
        assert_eq!(usage(&["--checkpoint"]), EXIT_USAGE);
        assert_eq!(usage(&["--threads", "0"]), EXIT_USAGE);
        assert_eq!(usage(&["--threads", "1.5"]), EXIT_USAGE);
        for plan in ["nonsense", "3:0", "3:1.5", "x:0.5"] {
            assert_eq!(usage(&["--fault-plan", plan]), EXIT_USAGE, "{plan}");
        }
        let flags = Flags::parse(&args(&[
            "--checkpoint",
            "j.ckpt",
            "--resume",
            "--threads",
            "4",
            "--fault-plan",
            "3:1.0",
            "--time-budget-ms",
            "0",
        ]));
        let config = build_config(&flags).unwrap_or_else(|e| panic!("{}", e.message));
        assert_eq!(
            checkpoint_flags(&flags).ok().flatten(),
            Some(("j.ckpt", true))
        );
        assert_eq!(config.threads, Some(4));
        assert_eq!(config.time_budget_ms, Some(0));
        assert!(!config.collect_metrics);
    }

    #[test]
    fn metrics_are_collected_whenever_they_have_a_sink() {
        for sink in ["--metrics-out", "--trace", "--trace-out"] {
            let flags = Flags::parse(&args(&[sink, "x.json"]));
            let config = build_config(&flags).unwrap_or_else(|e| panic!("{}", e.message));
            assert!(config.collect_metrics, "{sink}");
            let ins = optimize_instruments(&flags, &config);
            assert!(ins.registry.is_enabled(), "{sink}");
            assert_eq!(ins.trace, sink == "--trace", "{sink}");
            assert_eq!(ins.journal.is_enabled(), sink == "--trace-out", "{sink}");
        }
    }

    #[test]
    fn design_sources_are_exclusive_and_required() {
        let err = load_design(&Flags::parse(&args(&["--sdf", "a.sdf", "-i", "t.clk"])))
            .map(drop)
            .expect_err("two sources");
        assert_eq!(err.code, EXIT_USAGE);
        let err = load_design(&Flags::parse(&args(&["--sdf", "a.sdf", "--power", "p.pw"])))
            .map(drop)
            .expect_err("power with sdf");
        assert_eq!(err.code, EXIT_USAGE);
        let err = load_design(&Flags::parse(&args(&[])))
            .map(drop)
            .expect_err("no source");
        assert_eq!(err.code, EXIT_USAGE);
    }

    #[test]
    fn an_unreadable_input_is_a_runtime_error() {
        let missing = tmp_path("does-not-exist.clk");
        assert_eq!(exit_code(&["validate", "-i", &missing]), EXIT_RUNTIME);
        assert_eq!(exit_code(&["check-report", "-i", &missing]), EXIT_RUNTIME);
    }

    #[test]
    fn validate_accepts_a_synthesized_tree_and_rejects_an_unknown_cell() {
        let tree = tmp_path("validate.clk");
        let bad = tmp_path("validate-bad.clk");
        assert_eq!(
            exit_code(&["synthesize", "--benchmark", "scale200", "-o", &tree]),
            0
        );
        assert_eq!(exit_code(&["validate", "-i", &tree]), 0);
        let text = std::fs::read_to_string(&tree).expect("read tree");
        assert!(text.contains("BUF_X"), "synthesized trees use BUF_* cells");
        std::fs::write(&bad, text.replace("BUF_X", "NO_SUCH_CELL_X")).expect("write tree");
        let code = exit_code(&["validate", "-i", &bad]);
        std::fs::remove_file(&tree).ok();
        std::fs::remove_file(&bad).ok();
        assert_eq!(code, EXIT_INVALID_INPUT);
    }

    #[test]
    fn a_malformed_report_is_invalid_input() {
        let path = tmp_path("bad-report.json");
        std::fs::write(&path, "{\"schema_version\":").expect("write report");
        let truncated = exit_code(&["check-report", "-i", &path]);
        std::fs::write(&path, "{\"bogus\":1}").expect("write report");
        let unknown = exit_code(&["check-report", "-i", &path]);
        std::fs::remove_file(&path).ok();
        assert_eq!(truncated, EXIT_INVALID_INPUT);
        assert_eq!(unknown, EXIT_INVALID_INPUT);
    }

    #[test]
    fn shard_sink_counts_are_listed_for_a_few_shards_and_ranged_for_many() {
        assert_eq!(summarize_shard_sinks(&[3, 4]), "[3, 4]");
        assert_eq!(summarize_shard_sinks(&[]), "[]");
        let many: Vec<usize> = (10..20).collect();
        assert_eq!(summarize_shard_sinks(&many), "[10 shards of 10..19 sinks]");
    }

    #[test]
    fn streaming_is_an_unknown_flag() {
        let err = run(&args(&["optimize", "-i", "tree.clk", "--streaming"]))
            .expect_err("--streaming is gone");
        assert_eq!(err.code, EXIT_USAGE);
        assert!(
            err.message.contains("unknown flag '--streaming'"),
            "{}",
            err.message
        );
    }

    #[test]
    fn memory_budget_must_be_a_positive_integer() {
        for bad in ["0", "1.5", "many"] {
            let err = build_config(&Flags::parse(&args(&["--memory-budget-mb", bad])))
                .expect_err("rejected budget");
            assert_eq!(err.code, EXIT_USAGE, "--memory-budget-mb {bad}");
        }
        let config = build_config(&Flags::parse(&args(&["--memory-budget-mb", "256"])))
            .unwrap_or_else(|e| panic!("{}", e.message));
        assert_eq!(config.memory_budget_mb, Some(256));
    }

    /// Synthesizes `benchmark` into a scratch `.clk` file; the caller
    /// removes it.
    fn synthesized(benchmark: &str, name: &str) -> String {
        let tree = tmp_path(name);
        run(&args(&[
            "synthesize",
            "--benchmark",
            benchmark,
            "-o",
            &tree,
        ]))
        .unwrap_or_else(|e| panic!("{}", e.message));
        tree
    }

    #[test]
    fn checkpoint_with_shard_sinks_is_a_usage_error() {
        let tree = synthesized("s15850", "shard-journal.clk");
        let journal = tmp_path("shard-journal.ckpt");
        let err = run(&args(&[
            "optimize",
            "-i",
            &tree,
            "--shard-sinks",
            "8",
            "--checkpoint",
            &journal,
        ]))
        .expect_err("every shard is its own design");
        std::fs::remove_file(&tree).ok();
        assert_eq!(err.code, EXIT_USAGE, "{}", err.message);
        assert!(
            !std::path::Path::new(&journal).exists(),
            "no journal is opened"
        );
    }

    #[test]
    fn only_the_mosp_algorithms_write_a_journal() {
        let tree = synthesized("s15850", "journal-algos.clk");
        let out = tmp_path("journal-algos-out.clk");
        for (algorithm, journals) in [("fast", false), ("peakmin", false), ("wavemin", true)] {
            let journal = tmp_path(&format!("journal-{algorithm}.ckpt"));
            std::fs::remove_file(&journal).ok();
            run(&args(&[
                "optimize",
                "-i",
                &tree,
                "--algorithm",
                algorithm,
                "--samples",
                "8",
                "--checkpoint",
                &journal,
                "-o",
                &out,
            ]))
            .unwrap_or_else(|e| panic!("{algorithm}: {}", e.message));
            let written = std::path::Path::new(&journal).exists();
            std::fs::remove_file(&journal).ok();
            assert_eq!(written, journals, "{algorithm}");
        }
        std::fs::remove_file(&tree).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn an_infeasible_memory_budget_exits_infeasible() {
        let tree = synthesized("scale200", "budget.clk");
        let err = run(&args(&[
            "optimize",
            "-i",
            &tree,
            "--samples",
            "8",
            "--memory-budget-mb",
            "1",
        ]))
        .expect_err("1 MB cannot hold the working set");
        std::fs::remove_file(&tree).ok();
        assert_eq!(err.code, EXIT_INFEASIBLE, "{}", err.message);
    }
}
