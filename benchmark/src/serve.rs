//! The `serve_eco` workload: one daemon child and one closed-loop client
//! on its unix socket. After a cold `load` + `solve`, each ECO cycle
//! re-loads the session with one seeded trim, solves it, and repeats the
//! solve unchanged; the cycle's latency is the edited `load` plus the
//! `solve`.

use crate::batch::{self, DESIGN_SEED};
use crate::json::{self, obj};
use crate::metrics::{Sheet, WorkloadResult};
use crate::pass::{self, DesignSpec, Input, PassResult, THREADS};
use crate::spans::{self, Recorder};
use crate::stats::{self, Rng, Tally};
use crate::{RunOptions, Workload};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command};
use std::time::{Duration, Instant};
use wavemin::prelude::*;
use wavemin::serve::ServeOptions;

const SESSION: &str = "s38584";
/// The daemon's default per-session zone-cache budget.
const CACHE_BYTES: usize = 256 << 20;
const MIN_CYCLES: usize = 10;
/// ECO cycles re-solved in fresh sessions to check the cached replies.
const VERIFY_CYCLES: usize = 5;

/// Entry point of `daemon --socket PATH`: the daemon child.
pub fn daemon_main(socket: &str) -> Result<(), String> {
    wavemin::serve::run(ServeOptions {
        socket_path: socket.to_string(),
        workers: 1,
        cache_bytes: CACHE_BYTES,
        threads: Some(THREADS),
        log_json: false,
    })
    .map_err(|e| format!("serve: {e}"))
}

/// The seeded ECO edit sequence, in rounds: each round trims every leaf
/// once, in a seeded order, by a seeded 0.5–2.25 ps (exact quarter
/// picoseconds, so the daemon parses back the very value the checker
/// applies). An edit's cost depends on where its leaf's zone sits in
/// the solve order, so whole rounds give every seed the same mix of
/// cheap and dear edits.
pub fn eco_edits(seed: u64, leaves: &[usize]) -> impl Iterator<Item = (usize, f64)> + '_ {
    let mut rng = Rng::new(seed.rotate_left(17));
    let mut round = Vec::new();
    std::iter::from_fn(move || {
        if round.is_empty() {
            round = leaves.to_vec();
            rng.shuffle(&mut round);
        }
        let leaf = round.pop()?;
        Some((leaf, 0.5 + 0.25 * rng.below(8) as f64))
    })
}

/// The daemon child; killed and reaped if the workload bails out early.
struct Daemon(Child);

impl Daemon {
    /// Waits for the daemon to drain and exit after a `shutdown`.
    fn stop(mut self) -> Result<(), String> {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(60) {
            match self.0.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(socket: &Path, deadline: Duration) -> Result<Self, String> {
        let start = Instant::now();
        loop {
            match UnixStream::connect(socket) {
                Ok(s) => {
                    let writer = s.try_clone().map_err(|e| e.to_string())?;
                    return Ok(Self {
                        reader: BufReader::new(s),
                        writer,
                    });
                }
                Err(e) if start.elapsed() > deadline => {
                    return Err(format!("daemon did not come up: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// One request/reply round trip under a span.
    fn request(
        &mut self,
        rec: &mut Recorder,
        span: &str,
        line: &str,
    ) -> Result<(Value, f64), String> {
        let id = rec.enter(span);
        let sent = writeln!(self.writer, "{line}").and_then(|()| self.writer.flush());
        let mut reply = String::new();
        let read = sent.and_then(|()| self.reader.read_line(&mut reply));
        let secs = rec.exit(id);
        match read {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok((json::parse(reply.trim_end())?, secs)),
            Err(e) => Err(format!("socket: {e}")),
        }
    }
}

fn ok(reply: &Value) -> bool {
    json::bool_at(reply, "ok") == Ok(true)
}

fn load_reply(reply: &Value) -> Result<(), String> {
    if ok(reply) {
        Ok(())
    } else {
        Err(format!("load failed: {}", json::render(reply)))
    }
}

/// One solve reply, decoded.
#[derive(Debug, Clone)]
struct Solved {
    peak_before: f64,
    peak_after: f64,
    skew_after_ps: f64,
    zones_reused: u64,
    zone_solves: u64,
    runtime_s: f64,
}

impl Solved {
    fn from_reply(reply: &Value) -> Result<Self, String> {
        if !ok(reply) {
            return Err(format!("solve failed: {}", json::render(reply)));
        }
        let bits = u64::from_str_radix(json::str_at(reply, "peak_after_bits")?, 16)
            .map_err(|e| e.to_string())?;
        Ok(Self {
            peak_before: json::f64_at(reply, "peak_before_ma")?,
            peak_after: f64::from_bits(bits),
            skew_after_ps: json::f64_at(reply, "skew_after_ps")?,
            zones_reused: json::u64_at(reply, "zones_reused")?,
            zone_solves: json::u64_at(reply, "zone_solves")?,
            runtime_s: json::u64_at(reply, "runtime_ms")? as f64 / 1000.0,
        })
    }

    /// The batch output checks, on a reply.
    fn check(&self) -> Result<(), String> {
        let kappa = WaveMinConfig::default().skew_bound.value();
        batch::design_ok(&pass::DesignOutcome {
            name: SESSION.into(),
            error: None,
            setup_s: 0.0,
            optimize_s: 0.0,
            peak_before: self.peak_before,
            peak_after: self.peak_after,
            skew_after_ps: self.skew_after_ps,
            kappa_ps: kappa,
            report_error: None,
        })
    }
}

/// Records one operation: fails on an error, an `ok:false` reply, or a
/// failed check.
fn record<T>(tally: &mut Tally, what: &str, r: Result<T, String>) -> Option<T> {
    if let Err(e) = &r {
        eprintln!("check failed: {what}: {e}");
    }
    tally.record(r.is_ok());
    r.ok()
}

/// Zone-solve busy seconds from the `metrics` reply's Prometheus body.
fn scrape_metrics(body: &str) -> Option<f64> {
    body.lines()
        .find_map(|l| l.strip_prefix("wavemin_zone_solve_ns_sum "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|ns| ns * 1e-9)
}

fn load_line(sdf: &str, edit: Option<(usize, f64)>) -> String {
    let edits = edit.map_or_else(Vec::new, |(node, ps)| {
        vec![obj(vec![
            ("node", Value::UInt(node as u64)),
            ("delay_trim_ps", Value::Float(ps)),
        ])]
    });
    json::render(&obj(vec![
        ("cmd", Value::Str("load".into())),
        ("session", Value::Str(SESSION.into())),
        ("sdf", Value::Str(sdf.into())),
        ("edits", Value::Seq(edits)),
    ]))
}

/// A path the socket can bind: relative to the working directory when
/// possible, since unix socket paths are limited to about 100 bytes.
fn socket_path(work: &Path) -> Result<std::path::PathBuf, String> {
    let full = work.join("serve.sock");
    let path = std::env::current_dir()
        .ok()
        .and_then(|cwd| full.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(full);
    if path.as_os_str().len() > 100 {
        return Err(format!("socket path {} is too long", path.display()));
    }
    Ok(path)
}

struct Cycle {
    edit: (usize, f64),
    load_s: f64,
    solve_s: f64,
    solved: Option<Solved>,
}

pub fn run(opts: &RunOptions) -> Result<(WorkloadResult, Vec<spans::Span>), String> {
    let dir = opts.inputs_dir(Workload::ServeEco)?;
    let design = Design::from_benchmark(&Benchmark::s38584(), DESIGN_SEED);
    let sdf_text = export_sdf(&design).map_err(|e| e.to_string())?;
    let sdf_path = dir.join("s38584.sdf");
    std::fs::write(&sdf_path, &sdf_text).map_err(|e| e.to_string())?;
    let sdf = sdf_path.to_string_lossy().into_owned();
    let leaves: Vec<usize> = import_sdf(&sdf_text, CellLibrary::nangate45())
        .map_err(|e| e.to_string())?
        .design
        .leaves()
        .iter()
        .map(|n| n.0)
        .collect();

    let socket = socket_path(&opts.work)?;
    let mut cmd = Command::new(&opts.exe);
    cmd.arg("daemon").arg("--socket").arg(&socket);
    crate::clean_env(&mut cmd);
    let daemon = Daemon(
        cmd.spawn()
            .map_err(|e| format!("cannot start daemon: {e}"))?,
    );
    let mut client = Client::connect(&socket, Duration::from_secs(60))?;

    let mut rec = Recorder::new(0);
    let root = rec.enter(Workload::ServeEco.name());
    let mut tally = Tally::default();
    let (reply, _) = client.request(&mut rec, "serve.load", &load_line(&sdf, None))?;
    record(&mut tally, "cold load", load_reply(&reply));
    let solve = json::render(&obj(vec![
        ("cmd", Value::Str("solve".into())),
        ("session", Value::Str(SESSION.into())),
    ]));
    let (reply, cold_solve_s) = client.request(&mut rec, "serve.solve", &solve)?;
    record(
        &mut tally,
        "cold solve",
        Solved::from_reply(&reply).and_then(|s| s.check()),
    );

    let mut cycles: Vec<Cycle> = Vec::new();
    let mut hot = Vec::new();
    let started = Instant::now();
    for edit in eco_edits(opts.seed, &leaves) {
        // Stop on a round boundary once the time is up; a run shorter
        // than one round stops after MIN_CYCLES.
        let n = cycles.len();
        let boundary = n.is_multiple_of(leaves.len()) || n < leaves.len();
        if n >= MIN_CYCLES && boundary && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        rec.set_pass(cycles.len() as u64 + 1);
        let span = rec.enter("eco_cycle");
        let (reply, load_s) =
            client.request(&mut rec, "serve.load", &load_line(&sdf, Some(edit)))?;
        let loaded = record(&mut tally, "eco load", load_reply(&reply));
        let (reply, solve_s) = client.request(&mut rec, "serve.solve", &solve)?;
        rec.exit(span);
        let solved = record(
            &mut tally,
            "eco solve",
            Solved::from_reply(&reply).and_then(|s| s.check().map(|()| s)),
        );
        let (reply, hot_s) = client.request(&mut rec, "serve.solve_repeat", &solve)?;
        let repeat = Solved::from_reply(&reply).and_then(|r| match &solved {
            Some(s) if s.peak_after.to_bits() == r.peak_after.to_bits() => Ok(()),
            _ => Err("repeat solve disagrees with the ECO solve".into()),
        });
        record(&mut tally, "repeat solve", repeat);
        hot.push(hot_s);
        cycles.push(Cycle {
            edit,
            load_s,
            solve_s,
            solved: loaded.and(solved),
        });
    }
    let (stats_reply, _) = client.request(
        &mut rec,
        "serve.stats",
        &json::render(&obj(vec![
            ("cmd", Value::Str("stats".into())),
            ("session", Value::Str(SESSION.into())),
        ])),
    )?;
    let (metrics_reply, _) = client.request(&mut rec, "serve.metrics", r#"{"cmd":"metrics"}"#)?;
    let rss = pass::rss_hwm_mb(Some(daemon.0.id())).ok_or("cannot read the daemon's VmHWM")?;
    client.request(&mut rec, "serve.shutdown", r#"{"cmd":"shutdown"}"#)?;
    drop(client);
    daemon.stop()?;

    // Fresh sessions of seeded ECO cycles' designs must reproduce the
    // cached replies bit for bit.
    let mut rng = Rng::new(opts.seed);
    let mut picked: Vec<usize> = (0..cycles.len()).collect();
    rng.shuffle(&mut picked);
    picked.truncate(VERIFY_CYCLES);
    picked.sort_unstable();
    let specs: Vec<DesignSpec> = picked
        .iter()
        .map(|&i| DesignSpec {
            name: format!("eco{i}"),
            path: sdf.clone(),
            input: Input::Sdf,
            sample_count: WaveMinConfig::default().sample_count,
            memory_budget_mb: None,
            edits: vec![cycles[i].edit],
        })
        .collect();
    let spec_path = dir.join("verify.json");
    pass::write_spec(&spec_path, &specs)?;
    let check_fresh = |res: &PassResult, tally: &mut Tally| {
        for (d, &i) in res.designs.iter().zip(&picked) {
            let same = batch::design_ok(d).and_then(|()| match &cycles[i].solved {
                Some(s) if s.peak_after.to_bits() == d.peak_bits() => Ok(()),
                _ => Err(format!(
                    "fresh session peak {} differs from the cached reply",
                    d.peak_after
                )),
            });
            record(tally, &format!("fresh session of cycle {i}"), same);
        }
    };
    let (fresh, _) = pass::spawn(
        &opts.exe,
        &spec_path,
        cycles.len() as u64 + 1,
        false,
        &mut rec,
    )?;
    check_fresh(&fresh, &mut tally);
    let traced = if opts.trace {
        let id = rec.spans().len();
        let (res, wall) = pass::spawn(
            &opts.exe,
            &spec_path,
            cycles.len() as u64 + 2,
            true,
            &mut rec,
        )?;
        check_fresh(&res, &mut tally);
        Some((res, wall, id))
    } else {
        None
    };
    rec.exit(root);

    let solved: Vec<&Solved> = cycles.iter().filter_map(|c| c.solved.as_ref()).collect();
    let cycle_s: Vec<f64> = cycles.iter().map(|c| c.load_s + c.solve_s).collect();
    let loads: Vec<f64> = cycles.iter().map(|c| c.load_s).collect();
    let round = leaves.len();
    let mut sheet = Sheet::default();
    sheet.percentile_of("optimize_s", 50.0, &cycle_s, round);
    if stats::reported_percentiles(cycle_s.len()).contains(&90) {
        sheet.percentile_of("eco_s_p90", 90.0, &cycle_s, round);
    }
    sheet.percentile_of("hot_solve_s_p50", 50.0, &hot, round);
    sheet.percentile_of("setup_s", 50.0, &loads, round);
    let reductions: Vec<f64> = solved
        .iter()
        .map(|s| (s.peak_before - s.peak_after) / s.peak_before * 100.0)
        .collect();
    sheet.one(
        "peak_reduction_pct",
        reductions.iter().sum::<f64>() / reductions.len() as f64,
    );
    sheet.one("peak_rss_mb", rss);

    // The daemon's own layers, from its replies and final scrape.
    let (reused, fresh_solves) = solved
        .iter()
        .fold((0, 0), |(r, s), x| (r + x.zones_reused, s + x.zone_solves));
    sheet.one(
        "cache.reuse_ratio",
        reused as f64 / (reused + fresh_solves).max(1) as f64,
    );
    for (metric, key) in [
        ("cache.hits", "hits"),
        ("cache.misses", "misses"),
        ("cache.evictions", "evictions"),
        ("cache.bytes", "bytes"),
    ] {
        sheet.one(metric, json::f64_at(&stats_reply, key)?);
    }
    let server: Vec<f64> = solved.iter().map(|s| s.runtime_s).collect();
    let overhead: Vec<f64> = cycles
        .iter()
        .filter_map(|c| c.solved.as_ref().map(|s| c.solve_s - s.runtime_s))
        .collect();
    sheet.percentile_of("serve.server_solve_s_p50", 50.0, &server, round);
    sheet.percentile_of("dispatch.overhead_s", 50.0, &overhead, round);
    sheet.one("serve.cold_solve_s", cold_solve_s);
    let body = json::str_at(&metrics_reply, "body")?;
    sheet.one(
        "serve.zone_solve_busy_s",
        scrape_metrics(body).ok_or("metrics reply lacks wavemin_zone_solve_ns_sum")?,
    );
    if let Some((res, _, id)) = &traced {
        if !batch::self_times_fit(&rec, *id) {
            eprintln!("check failed: traced pass span self times exceed its wall time");
            tally.fail_recorded();
        }
        for (name, value) in &res.layers {
            sheet.one(name, *value);
        }
        sheet.one(
            "trace.overhead_pct",
            (res.optimize_s() - fresh.optimize_s()) / fresh.optimize_s() * 100.0,
        );
    }
    sheet.one("fail_ratio", tally.fail_ratio());
    let result = WorkloadResult {
        workload: Workload::ServeEco.name().into(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace,
        tally,
        sheet,
    };
    Ok((result, rec.into_spans()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eco_edits_are_seeded_leaf_trims() {
        let design = Design::from_benchmark(&Benchmark::s15850(), DESIGN_SEED);
        let leaves: Vec<usize> = design.leaves().iter().map(|n| n.0).collect();
        let a: Vec<_> = eco_edits(42, &leaves).take(100).collect();
        let b: Vec<_> = eco_edits(42, &leaves).take(100).collect();
        let c: Vec<_> = eco_edits(43, &leaves).take(100).collect();
        assert_eq!(a, b, "same seed, same edits");
        assert_ne!(a, c, "another seed, other edits");
        for (node, ps) in &a {
            assert!(
                design.tree.node(NodeId(*node)).is_leaf(),
                "edit on non-leaf {node}"
            );
            assert!((0.5..=2.25).contains(ps) && (ps * 4.0).fract() == 0.0);
        }
        let mut round: Vec<usize> = eco_edits(7, &leaves)
            .take(leaves.len())
            .map(|(n, _)| n)
            .collect();
        round.sort_unstable();
        let mut all = leaves.clone();
        all.sort_unstable();
        assert_eq!(round, all, "a round trims every leaf once");
    }

    #[test]
    fn scrape_reads_the_zone_solve_histogram_sum() {
        let body = "# TYPE wavemin_zone_solve_ns histogram\n\
                    wavemin_zone_solve_ns_bucket{le=\"+Inf\"} 3\n\
                    wavemin_zone_solve_ns_sum 2500000000\n\
                    wavemin_zone_solve_ns_count 3\n";
        assert_eq!(scrape_metrics(body), Some(2.5));
        assert_eq!(scrape_metrics("wavemin_uptime_seconds 1\n"), None);
    }
}
