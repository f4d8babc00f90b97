//! Serve mode: a long-lived daemon that keeps characterized designs
//! resident and answers solve jobs over a unix socket.
//!
//! `wavemin serve --socket PATH` binds a [`std::os::unix::net::UnixListener`]
//! and speaks the line-delimited JSON protocol of [`protocol`]. Each
//! named session holds a [`CharacterizedDesign`] plus a [`ZoneCache`]
//! shared across that session's lifetime — *including across re-loads*,
//! so an ECO edit (`load` with the same session name and a few `edits`)
//! re-solves only the zones whose content actually changed and splices
//! the rest from cache (`zones_reused` in the solve response).
//!
//! Solve jobs run on a fixed worker pool behind a priority queue (higher
//! `priority` first, FIFO within a priority); connection handlers stay
//! cheap and block only on their own job's completion. Two concurrent
//! jobs on the same session dedup zone solves through the cache's
//! in-flight reservations rather than solving the same zone twice.
//!
//! A `solve` job sent with `"progress":true` streams `{"progress":{...}}`
//! lines on its connection while it runs (zones done/total, current
//! ladder rung, RSS) before the final response line. The daemon keeps a
//! [`MetricsRegistry`] of its own: every finished job's latency
//! histograms are absorbed into it, and the `metrics` command renders
//! the lot — job counters, queue depth, per-session cache stats, and
//! the histograms — as Prometheus text exposition. With
//! [`ServeOptions::log_json`] each job lifecycle event additionally
//! emits one structured JSON line on stderr.
//!
//! `SIGTERM`/`SIGINT` (or a `shutdown` command) stop the accept loop,
//! drain in-flight connections and queued jobs, unlink the socket, and
//! return cleanly.

pub mod protocol;

// Sessions are looked up by name; the metrics listing sorts them.
#[allow(clippy::disallowed_types)]
use std::collections::{BinaryHeap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use crate::checkpoint::ZoneCache;
use crate::config::WaveMinConfig;
use crate::design::Design;
use crate::observe::{
    bucket_upper_bound, Instruments, MetricsRegistry, Progress, ProgressTracker, RunHistogram,
};
use crate::session::{CharacterizedDesign, SolveOptions};
use protocol::{err_response, ok_response, LoadRequest, Request, SolveRequest};
use serde::Value;
use wavemin_cells::Picoseconds;
use wavemin_clocktree::{Benchmark, NodeId};

/// How the daemon is launched.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix socket path to bind (unlinked on clean shutdown).
    pub socket_path: String,
    /// Worker threads executing solve jobs.
    pub workers: usize,
    /// Per-session zone-cache byte budget.
    pub cache_bytes: usize,
    /// Default per-session solver threads (`None` = auto).
    pub threads: Option<usize>,
    /// Emit one structured JSON line on stderr per job lifecycle event
    /// (`job_queued`, `job_start`, `job_done`, `daemon_start`,
    /// `daemon_stop`).
    pub log_json: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            socket_path: String::new(),
            workers: 2,
            cache_bytes: 256 << 20,
            threads: None,
            log_json: false,
        }
    }
}

/// Set by the signal handler; polled by every daemon's accept loop. A
/// signal stops the whole process, so it is process-wide; the `shutdown`
/// command stops only its own daemon ([`ServerState::shutdown`]).
static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn request_shutdown(_signum: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn install_signal_handlers() {
    // SAFETY: `request_shutdown` only touches an atomic, which is
    // async-signal-safe; the previous handler is intentionally replaced.
    unsafe {
        signal(SIGINT, request_shutdown as *const () as usize);
        signal(SIGTERM, request_shutdown as *const () as usize);
    }
}

/// One named session: the resident characterized design (swapped on
/// re-load) and the zone cache that persists across re-loads.
struct SessionEntry {
    chr: RwLock<Arc<CharacterizedDesign>>,
    cache: Arc<ZoneCache>,
}

/// One message from a worker back to the job's connection handler:
/// zero or more progress lines, then exactly one final response.
enum JobMsg {
    /// A `{"progress":{...}}` line to stream before the final response.
    Progress(String),
    /// The final response line; the connection stops reading after it.
    Final(String),
}

/// A queued solve job. Ordered by priority (higher first), then
/// admission order (earlier first).
struct Job {
    priority: i64,
    seq: u64,
    request: SolveRequest,
    reply: mpsc::Sender<JobMsg>,
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Job {}
impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Job {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: higher priority wins, then lower seq.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct JobQueue {
    heap: BinaryHeap<Job>,
    closed: bool,
}

// Sessions are looked up by name; the metrics listing sorts them.
#[allow(clippy::disallowed_types)]
struct ServerState {
    opts: ServeOptions,
    sessions: Mutex<HashMap<String, Arc<SessionEntry>>>,
    queue: Mutex<JobQueue>,
    queue_ready: Condvar,
    next_seq: AtomicU64,
    connections: AtomicUsize,
    /// When the daemon started; uptime in `stats`/`metrics` replies.
    started: Instant,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    /// Daemon-lifetime registry: finished jobs' histograms are absorbed
    /// here, so the `metrics` verb sees latency across all jobs.
    metrics: MetricsRegistry,
    /// Set by this daemon's `shutdown` command; other daemons in the
    /// process keep running.
    shutdown: AtomicBool,
}

impl ServerState {
    // Sessions are looked up by name; the metrics listing sorts them.
    #[allow(clippy::disallowed_types)]
    fn sessions(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<SessionEntry>>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn enqueue(&self, job: Job) -> bool {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if q.closed {
            return false;
        }
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        log_json(
            self,
            "job_queued",
            &[
                ("session", Value::Str(job.request.session.clone())),
                ("seq", Value::UInt(job.seq)),
                ("priority", Value::Int(job.priority)),
            ],
        );
        q.heap.push(job);
        drop(q);
        self.queue_ready.notify_one();
        true
    }

    fn queue_depth(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .heap
            .len()
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained, which is the workers' exit signal.
    fn dequeue(&self) -> Option<Job> {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = q.heap.pop() {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            q = self
                .queue_ready
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close_queue(&self) {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        q.closed = true;
        drop(q);
        self.queue_ready.notify_all();
    }
}

/// Runs the daemon until a shutdown signal or command, then drains and
/// unlinks the socket.
///
/// # Errors
///
/// Socket bind/configuration failures. Per-connection and per-job
/// failures are reported to the client, never escalated here.
// Sessions are looked up by name; the metrics listing sorts them.
#[allow(clippy::disallowed_types)]
pub fn run(opts: ServeOptions) -> Result<(), std::io::Error> {
    let socket_path = opts.socket_path.clone();
    // A stale socket file from an unclean previous exit blocks bind.
    let _ = std::fs::remove_file(&socket_path);
    let listener = UnixListener::bind(&socket_path)?;
    listener.set_nonblocking(true)?;
    install_signal_handlers();

    let workers = opts.workers.max(1);
    let state = Arc::new(ServerState {
        opts,
        sessions: Mutex::new(HashMap::new()),
        queue: Mutex::new(JobQueue {
            heap: BinaryHeap::new(),
            closed: false,
        }),
        queue_ready: Condvar::new(),
        next_seq: AtomicU64::new(0),
        connections: AtomicUsize::new(0),
        started: Instant::now(),
        jobs_submitted: AtomicU64::new(0),
        jobs_completed: AtomicU64::new(0),
        jobs_failed: AtomicU64::new(0),
        metrics: MetricsRegistry::enabled(),
        shutdown: AtomicBool::new(false),
    });
    log_json(
        &state,
        "daemon_start",
        &[
            ("socket", Value::Str(socket_path.clone())),
            ("workers", Value::UInt(workers as u64)),
        ],
    );

    let mut worker_handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let st = Arc::clone(&state);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("wavemin-worker-{i}"))
                .spawn(move || worker_loop(&st))?,
        );
    }

    while !state.shutdown.load(Ordering::SeqCst) && !SIGNALED.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let st = Arc::clone(&state);
                st.connections.fetch_add(1, Ordering::SeqCst);
                let spawned = std::thread::Builder::new()
                    .name("wavemin-conn".to_string())
                    .spawn(move || {
                        serve_connection(&st, stream);
                        st.connections.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    state.connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }

    // Drain: let in-flight connections finish their current exchange.
    let deadline = Instant::now() + Duration::from_secs(10);
    while state.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    state.close_queue();
    for handle in worker_handles {
        let _ = handle.join();
    }
    let _ = std::fs::remove_file(&socket_path);
    log_json(&state, "daemon_stop", &[]);
    Ok(())
}

/// One structured JSON log line on stderr (no-op unless `--log-json`).
fn log_json(state: &ServerState, event: &str, fields: &[(&str, Value)]) {
    if !state.opts.log_json {
        return;
    }
    let mut map = vec![
        ("event".to_string(), Value::Str(event.to_string())),
        (
            "uptime_ms".to_string(),
            Value::UInt(state.started.elapsed().as_millis() as u64),
        ),
    ];
    map.extend(fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
    if let Ok(line) = serde_json::to_string(&Value::Map(map)) {
        eprintln!("{line}");
    }
}

fn worker_loop(state: &ServerState) {
    while let Some(job) = state.dequeue() {
        log_json(
            state,
            "job_start",
            &[
                ("session", Value::Str(job.request.session.clone())),
                ("seq", Value::UInt(job.seq)),
            ],
        );
        let started = Instant::now();
        let (response, ok) = execute_solve(state, &job.request, &job.reply);
        state
            .metrics
            .record_job_wall_ns(started.elapsed().as_nanos() as u64);
        if ok {
            state.jobs_completed.fetch_add(1, Ordering::Relaxed);
        } else {
            state.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
        log_json(
            state,
            "job_done",
            &[
                ("session", Value::Str(job.request.session.clone())),
                ("seq", Value::UInt(job.seq)),
                ("ok", Value::Bool(ok)),
                (
                    "runtime_ms",
                    Value::UInt(started.elapsed().as_millis() as u64),
                ),
            ],
        );
        // A dropped receiver just means the client hung up.
        let _ = job.reply.send(JobMsg::Final(response));
    }
}

/// Serializes one progress tick as a `{"progress":{...}}` line.
fn progress_line(p: &Progress) -> String {
    serde_json::to_string(p)
        .map(|body| format!("{{\"progress\":{body}}}"))
        .unwrap_or_else(|_| "{\"progress\":{}}".to_string())
}

/// Runs one solve job; returns the final response line and whether the
/// solve succeeded. Progress ticks (when requested) stream through
/// `reply` while the job runs; the job's histograms land in the daemon
/// registry afterwards.
fn execute_solve(
    state: &ServerState,
    req: &SolveRequest,
    reply: &mpsc::Sender<JobMsg>,
) -> (String, bool) {
    let entry = match state.sessions().get(&req.session) {
        Some(e) => Arc::clone(e),
        None => {
            return (
                err_response(&format!("no session {:?}", req.session)),
                false,
            )
        }
    };
    let chr = {
        let g = entry.chr.read().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&g)
    };
    let mut ins = Instruments {
        registry: MetricsRegistry::enabled(),
        ..Instruments::default()
    };
    if req.progress {
        // `mpsc::Sender` is `Send` but not `Sync`; the sink closure must
        // be `Sync`, so the clone rides behind a mutex.
        let tx = Mutex::new(reply.clone());
        ins.progress = ProgressTracker::enabled(Duration::from_millis(250), move |p: &Progress| {
            let guard = tx.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = guard.send(JobMsg::Progress(progress_line(p)));
        });
    }
    let opts = SolveOptions {
        time_budget_ms: req.time_budget_ms,
        ..SolveOptions::default()
    };
    match chr.solve_instrumented(Some(&entry.cache), &opts, &ins) {
        Ok(out) => {
            if let Some(report) = out.report.as_ref() {
                state.metrics.absorb_histograms(&report.histograms);
            }
            let (zones_reused, zone_solves, ladder_rung) =
                out.report.as_ref().map_or((0, 0, 0), |r| {
                    (
                        r.counters.zones_reused,
                        r.counters.zone_solves,
                        r.ladder_rung as u64,
                    )
                });
            let response = ok_response(vec![
                ("session".to_string(), Value::Str(req.session.clone())),
                (
                    "peak_before_ma".to_string(),
                    Value::Float(out.peak_before.value()),
                ),
                (
                    "peak_after_ma".to_string(),
                    Value::Float(out.peak_after.value()),
                ),
                (
                    "peak_after_bits".to_string(),
                    Value::Str(format!("{:016x}", out.peak_after.value().to_bits())),
                ),
                (
                    "skew_after_ps".to_string(),
                    Value::Float(out.skew_after.value()),
                ),
                ("zones_reused".to_string(), Value::UInt(zones_reused)),
                ("zone_solves".to_string(), Value::UInt(zone_solves)),
                ("ladder_rung".to_string(), Value::UInt(ladder_rung)),
                (
                    "degraded".to_string(),
                    Value::Bool(out.degradation.is_some()),
                ),
                (
                    "faulted_zones".to_string(),
                    Value::UInt(out.faulted_zones.len() as u64),
                ),
                (
                    "runtime_ms".to_string(),
                    Value::UInt(out.runtime.as_millis() as u64),
                ),
            ]);
            (response, true)
        }
        Err(e) => (err_response(&format!("solve failed: {e}")), false),
    }
}

/// Escapes a Prometheus label value (`\`, `"`, newline).
fn prom_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Appends one histogram in Prometheus exposition format: cumulative
/// `_bucket{le=...}` lines over the sparse stored buckets, then `+Inf`,
/// `_sum`, and `_count`.
fn prom_histogram(out: &mut String, name: &str, h: &RunHistogram) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# TYPE wavemin_{name} histogram");
    let mut cumulative = 0u64;
    for b in &h.buckets {
        cumulative += b.count;
        let _ = writeln!(
            out,
            "wavemin_{name}_bucket{{le=\"{}\"}} {cumulative}",
            bucket_upper_bound(b.index as usize)
        );
    }
    let _ = writeln!(out, "wavemin_{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "wavemin_{name}_sum {}", h.sum);
    let _ = writeln!(out, "wavemin_{name}_count {}", h.count);
}

/// Renders the daemon's counters, gauges, per-session cache stats, and
/// absorbed job histograms as Prometheus text exposition.
fn render_prometheus(state: &ServerState) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# HELP wavemin_uptime_seconds Daemon uptime.");
    let _ = writeln!(out, "# TYPE wavemin_uptime_seconds gauge");
    let _ = writeln!(
        out,
        "wavemin_uptime_seconds {}",
        state.started.elapsed().as_secs_f64()
    );
    for (name, value) in [
        ("jobs_submitted", &state.jobs_submitted),
        ("jobs_completed", &state.jobs_completed),
        ("jobs_failed", &state.jobs_failed),
    ] {
        let _ = writeln!(out, "# TYPE wavemin_{name}_total counter");
        let _ = writeln!(
            out,
            "wavemin_{name}_total {}",
            value.load(Ordering::Relaxed)
        );
    }
    let _ = writeln!(out, "# TYPE wavemin_job_queue_depth gauge");
    let _ = writeln!(out, "wavemin_job_queue_depth {}", state.queue_depth());
    let _ = writeln!(out, "# TYPE wavemin_connections gauge");
    let _ = writeln!(
        out,
        "wavemin_connections {}",
        state.connections.load(Ordering::SeqCst)
    );
    let mut sessions: Vec<(String, crate::checkpoint::CacheStats)> = state
        .sessions()
        .iter()
        .map(|(name, entry)| (name.clone(), entry.cache.stats()))
        .collect();
    sessions.sort_by(|a, b| a.0.cmp(&b.0));
    let _ = writeln!(out, "# TYPE wavemin_sessions gauge");
    let _ = writeln!(out, "wavemin_sessions {}", sessions.len());
    for (metric, kind, pick) in [
        (
            "session_cache_entries",
            "gauge",
            (|s| s.entries as u64) as fn(&crate::checkpoint::CacheStats) -> u64,
        ),
        ("session_cache_bytes", "gauge", |s| s.bytes as u64),
        ("session_cache_hits_total", "counter", |s| s.hits),
        ("session_cache_misses_total", "counter", |s| s.misses),
        ("session_cache_evictions_total", "counter", |s| s.evictions),
    ] {
        let _ = writeln!(out, "# TYPE wavemin_{metric} {kind}");
        for (name, stats) in &sessions {
            let _ = writeln!(
                out,
                "wavemin_{metric}{{session=\"{}\"}} {}",
                prom_label(name),
                pick(stats)
            );
        }
    }
    if let Some(hists) = state.metrics.histograms() {
        for (name, hist) in hists.named() {
            prom_histogram(&mut out, name, hist);
        }
    }
    out
}

/// Builds the session design from the request's source: a synthesized
/// benchmark, or an imported SDF file (with an optional Liberty library)
/// together with its [`ImportedDesign::inexact_sinks`](crate::io::ImportedDesign::inexact_sinks)
/// count. The protocol parser guarantees exactly one source is present.
fn load_request_design(req: &LoadRequest) -> Result<(Design, Option<usize>), String> {
    if let Some(path) = &req.sdf {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let lib = match &req.lib {
            None => wavemin_cells::CellLibrary::nangate45(),
            Some(lib_path) => {
                let lib_text = std::fs::read_to_string(lib_path)
                    .map_err(|e| format!("cannot read {lib_path}: {e}"))?;
                wavemin_cells::liberty::parse_library(&lib_text)
                    .map_err(|e| format!("{lib_path}: {e}"))?
            }
        };
        let imported = crate::io::import_sdf(&text, lib).map_err(|e| format!("{path}: {e}"))?;
        return Ok((imported.design, Some(imported.inexact_sinks)));
    }
    let name = req.benchmark.as_deref().unwrap_or_default();
    let Some(bench) = Benchmark::all().into_iter().find(|b| b.name == name) else {
        return Err(format!("unknown benchmark {name:?}"));
    };
    Ok((Design::from_benchmark(&bench, req.seed), None))
}

fn execute_load(state: &ServerState, req: &LoadRequest) -> String {
    let (mut design, inexact_sinks) = match load_request_design(req) {
        Ok(loaded) => loaded,
        Err(e) => return err_response(&e),
    };
    for edit in &req.edits {
        if edit.node >= design.tree.len() {
            return err_response(&format!(
                "edit node {} out of range (tree has {} nodes)",
                edit.node,
                design.tree.len()
            ));
        }
        design.tree.node_mut(NodeId(edit.node)).delay_trim += Picoseconds::new(edit.delay_trim_ps);
    }
    let mut config = WaveMinConfig::default();
    if let Some(kappa) = req.skew_bound_ps {
        config.skew_bound = Picoseconds::new(kappa);
    }
    if let Some(s) = req.sample_count {
        config.sample_count = s;
    }
    if req.max_intervals.is_some() {
        config.max_intervals = req.max_intervals;
    }
    config.threads = req.threads.or(state.opts.threads);
    let chr = match CharacterizedDesign::new(design, config) {
        Ok(c) => Arc::new(c),
        Err(e) => return err_response(&format!("characterization failed: {e}")),
    };
    let eco_hint = chr
        .eco_probe_sink()
        .map_or(Value::Null, |n| Value::UInt(n.0 as u64));
    let (zones, intervals, sinks) = (chr.zone_count(), chr.interval_count(), chr.sink_count());
    let mut sessions = state.sessions();
    let reloaded = if let Some(entry) = sessions.get(&req.session) {
        // Re-load keeps the zone cache: that is what makes the next
        // solve of an edited design incremental.
        let mut g = entry.chr.write().unwrap_or_else(PoisonError::into_inner);
        *g = chr;
        true
    } else {
        sessions.insert(
            req.session.clone(),
            Arc::new(SessionEntry {
                chr: RwLock::new(chr),
                cache: Arc::new(ZoneCache::new(state.opts.cache_bytes)),
            }),
        );
        false
    };
    drop(sessions);
    ok_response(vec![
        ("session".to_string(), Value::Str(req.session.clone())),
        ("reloaded".to_string(), Value::Bool(reloaded)),
        ("zones".to_string(), Value::UInt(zones as u64)),
        ("intervals".to_string(), Value::UInt(intervals as u64)),
        ("sinks".to_string(), Value::UInt(sinks as u64)),
        (
            "inexact_sinks".to_string(),
            inexact_sinks.map_or(Value::Null, |n| Value::UInt(n as u64)),
        ),
        ("eco_hint".to_string(), eco_hint),
    ])
}

fn execute_stats(state: &ServerState, session: &str) -> String {
    let entry = match state.sessions().get(session) {
        Some(e) => Arc::clone(e),
        None => return err_response(&format!("no session {session:?}")),
    };
    let s = entry.cache.stats();
    ok_response(vec![
        ("session".to_string(), Value::Str(session.to_string())),
        ("entries".to_string(), Value::UInt(s.entries as u64)),
        ("bytes".to_string(), Value::UInt(s.bytes as u64)),
        ("hits".to_string(), Value::UInt(s.hits)),
        ("misses".to_string(), Value::UInt(s.misses)),
        ("evictions".to_string(), Value::UInt(s.evictions)),
        (
            "uptime_ms".to_string(),
            Value::UInt(state.started.elapsed().as_millis() as u64),
        ),
        (
            "queue_depth".to_string(),
            Value::UInt(state.queue_depth() as u64),
        ),
        (
            "jobs_submitted".to_string(),
            Value::UInt(state.jobs_submitted.load(Ordering::Relaxed)),
        ),
        (
            "jobs_completed".to_string(),
            Value::UInt(state.jobs_completed.load(Ordering::Relaxed)),
        ),
        (
            "jobs_failed".to_string(),
            Value::UInt(state.jobs_failed.load(Ordering::Relaxed)),
        ),
    ])
}

fn serve_connection(state: &ServerState, stream: UnixStream) {
    // The listener is nonblocking; accepted streams inherit that and
    // must be switched back for blocking line reads.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = match protocol::parse_request(&line) {
            Err(msg) => err_response(&msg),
            Ok(Request::Ping) => ok_response(vec![("pong".to_string(), Value::Bool(true))]),
            Ok(Request::Load(req)) => execute_load(state, &req),
            Ok(Request::Stats { session }) => execute_stats(state, &session),
            Ok(Request::Metrics) => ok_response(vec![
                ("format".to_string(), Value::Str("prometheus".to_string())),
                ("body".to_string(), Value::Str(render_prometheus(state))),
            ]),
            Ok(Request::Solve(req)) => {
                let (tx, rx) = mpsc::channel();
                let job = Job {
                    priority: req.priority,
                    seq: state.next_seq.fetch_add(1, Ordering::SeqCst),
                    request: req,
                    reply: tx,
                };
                if state.enqueue(job) {
                    loop {
                        match rx.recv() {
                            Ok(JobMsg::Progress(line)) => {
                                // A failed write means the client hung
                                // up; keep draining so the final send
                                // completes and the loop ends.
                                let _ = writeln!(writer, "{line}");
                                let _ = writer.flush();
                            }
                            Ok(JobMsg::Final(response)) => break response,
                            Err(_) => break err_response("server shutting down"),
                        }
                    }
                } else {
                    err_response("server shutting down")
                }
            }
            Ok(Request::Shutdown) => {
                state.shutdown.store(true, Ordering::SeqCst);
                let bye = ok_response(vec![("shutting_down".to_string(), Value::Bool(true))]);
                let _ = writeln!(writer, "{bye}");
                let _ = writer.flush();
                return;
            }
        };
        if writeln!(writer, "{response}").is_err() || writer.flush().is_err() {
            break;
        }
    }
}

/// One-shot client: connect, send `line`, print the response line.
///
/// Returns the raw final response. Interleaved `{"progress":{...}}`
/// lines from a `"progress":true` solve are echoed to stderr as they
/// arrive rather than returned. Used by `wavemin client` so shell
/// scripts (and the CI smoke test) don't need a JSON-speaking socket
/// tool.
///
/// # Errors
///
/// Connection or I/O failures, or a missing response line.
pub fn client_request(socket_path: &str, line: &str) -> Result<String, std::io::Error> {
    let mut stream = UnixStream::connect(socket_path)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    writeln!(stream, "{line}")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    loop {
        let mut response = String::new();
        if reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection without responding",
            ));
        }
        let trimmed = response.trim_end();
        if trimmed.starts_with("{\"progress\":") {
            eprintln!("{trimmed}");
            continue;
        }
        return Ok(trimmed.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn job_queue_orders_by_priority_then_fifo() {
        let (tx, _rx) = mpsc::channel::<JobMsg>();
        let mk = |priority, seq| Job {
            priority,
            seq,
            request: SolveRequest {
                session: "s".to_string(),
                priority,
                time_budget_ms: None,
                progress: false,
            },
            reply: tx.clone(),
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(0, 0));
        heap.push(mk(5, 1));
        heap.push(mk(5, 2));
        heap.push(mk(1, 3));
        let order: Vec<(i64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|j| (j.priority, j.seq))
            .collect();
        assert_eq!(order, vec![(5, 1), (5, 2), (1, 3), (0, 0)]);
    }

    /// Starts a daemon on a fresh socket in the temp dir and waits for it
    /// to bind.
    fn spawn_daemon(tag: &str) -> (String, std::thread::JoinHandle<Result<(), std::io::Error>>) {
        let socket =
            std::env::temp_dir().join(format!("wavemin-serve-{tag}-{}.sock", std::process::id()));
        let socket_path = socket.to_string_lossy().to_string();
        let opts = ServeOptions {
            socket_path: socket_path.clone(),
            workers: 1,
            cache_bytes: 16 << 20,
            threads: Some(1),
            log_json: false,
        };
        let server = std::thread::spawn(move || run(opts));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        (socket_path, server)
    }

    #[test]
    fn daemons_in_one_process_shut_down_independently() {
        let (a, server_a) = spawn_daemon("independent-a");
        let (b, server_b) = spawn_daemon("independent-b");
        let ask = |socket: &str, line: &str| client_request(socket, line).expect("request");

        let bye = ask(&a, r#"{"cmd":"shutdown"}"#);
        assert!(bye.contains("\"shutting_down\":true"), "{bye}");
        server_a
            .join()
            .expect("server a thread")
            .expect("clean shutdown of a");
        assert!(!Path::new(&a).exists(), "a unlinks its socket");

        // b outlives a's shutdown and still serves requests. The pause
        // spans several 25 ms accept polls, so a flag shared with a would
        // have stopped b by now.
        std::thread::sleep(Duration::from_millis(100));
        let pong = ask(&b, r#"{"cmd":"ping"}"#);
        assert!(pong.contains("\"pong\":true"), "{pong}");
        assert!(!server_b.is_finished(), "b must keep running");

        let bye = ask(&b, r#"{"cmd":"shutdown"}"#);
        assert!(bye.contains("\"shutting_down\":true"), "{bye}");
        server_b
            .join()
            .expect("server b thread")
            .expect("clean shutdown of b");
    }

    #[test]
    fn load_from_sdf_over_a_socket() {
        let sdf =
            std::env::temp_dir().join(format!("wavemin-serve-sdf-test-{}.sdf", std::process::id()));
        std::fs::write(
            &sdf,
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
"#,
        )
        .expect("write sdf");
        let (socket_path, server) = spawn_daemon("sdf-test");
        let ask = |line: &str| client_request(&socket_path, line).expect("request");

        let sdf_json = sdf.to_string_lossy().replace('\\', "\\\\");
        let loaded = ask(&format!(
            r#"{{"cmd":"load","session":"sdf","sdf":"{sdf_json}"}}"#
        ));
        assert!(loaded.contains("\"ok\":true"), "{loaded}");
        assert!(loaded.contains("\"sinks\":2"), "{loaded}");
        assert!(loaded.contains("\"inexact_sinks\":0"), "{loaded}");

        let solved = ask(r#"{"cmd":"solve","session":"sdf"}"#);
        assert!(solved.contains("\"ok\":true"), "{solved}");

        // A missing file must come back as a typed error, not a crash.
        let bad = ask(r#"{"cmd":"load","session":"bad","sdf":"/no/such/file.sdf"}"#);
        assert!(bad.contains("\"ok\":false"), "{bad}");
        // Exclusivity is enforced at the protocol layer.
        let both = ask(r#"{"cmd":"load","session":"x","benchmark":"s15850","sdf":"a.sdf"}"#);
        assert!(both.contains("mutually exclusive"), "{both}");

        let bye = ask(r#"{"cmd":"shutdown"}"#);
        assert!(bye.contains("\"shutting_down\":true"), "{bye}");
        server
            .join()
            .expect("server thread")
            .expect("clean shutdown");
        let _ = std::fs::remove_file(&sdf);
    }

    #[test]
    fn end_to_end_over_a_socket_with_eco_reload() {
        let dir = std::env::temp_dir();
        let socket = dir.join(format!("wavemin-serve-test-{}.sock", std::process::id()));
        let socket_path = socket.to_string_lossy().to_string();
        let opts = ServeOptions {
            socket_path: socket_path.clone(),
            workers: 2,
            cache_bytes: 64 << 20,
            threads: Some(1),
            log_json: true,
        };
        let server = std::thread::spawn(move || run(opts));

        // Wait for the socket to appear.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let ask = |line: &str| client_request(&socket_path, line).expect("request");

        let pong = ask(r#"{"cmd":"ping"}"#);
        assert!(pong.contains("\"ok\":true"), "{pong}");

        let loaded = ask(r#"{"cmd":"load","session":"eco","benchmark":"s15850","seed":11}"#);
        assert!(loaded.contains("\"ok\":true"), "{loaded}");
        assert!(loaded.contains("\"reloaded\":false"), "{loaded}");
        let hint = loaded
            .split("\"eco_hint\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .expect("eco_hint field")
            .trim()
            .to_string();
        assert_ne!(hint, "null", "benchmark must offer an ECO probe sink");

        let cold = ask(r#"{"cmd":"solve","session":"eco"}"#);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        assert!(cold.contains("\"zones_reused\":0"), "{cold}");

        // ECO re-load of the SAME session (cache kept), tiny trim on the
        // probe sink, then an incremental re-solve.
        let reload = ask(&format!(
            r#"{{"cmd":"load","session":"eco","benchmark":"s15850","seed":11,"edits":[{{"node":{hint},"delay_trim_ps":2.0}}]}}"#,
        ));
        assert!(reload.contains("\"reloaded\":true"), "{reload}");
        let eco = ask(r#"{"cmd":"solve","session":"eco"}"#);
        assert!(eco.contains("\"ok\":true"), "{eco}");
        let reused: u64 = eco
            .split("\"zones_reused\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.trim().parse().ok())
            .expect("zones_reused field");
        assert!(reused > 0, "ECO re-solve must splice cached zones: {eco}");

        // A progress solve streams `{"progress":...}` lines before the
        // final response; the guard's final tick always arrives with
        // done:true even when the job finishes under one tick interval.
        let mut raw = UnixStream::connect(&socket_path).expect("connect");
        writeln!(raw, r#"{{"cmd":"solve","session":"eco","progress":true}}"#).expect("send");
        raw.flush().expect("flush");
        let mut raw_reader = BufReader::new(raw);
        let mut saw_done_tick = false;
        let streamed_final = loop {
            let mut l = String::new();
            assert!(
                raw_reader.read_line(&mut l).expect("read line") > 0,
                "connection closed before the final response"
            );
            let t = l.trim_end();
            if t.starts_with("{\"progress\":") {
                saw_done_tick |= t.contains("\"done\":true");
                continue;
            }
            break t.to_string();
        };
        assert!(streamed_final.contains("\"ok\":true"), "{streamed_final}");
        assert!(saw_done_tick, "the final progress tick must stream");

        let stats = ask(r#"{"cmd":"stats","session":"eco"}"#);
        assert!(stats.contains("\"hits\":"), "{stats}");
        assert!(stats.contains("\"uptime_ms\":"), "{stats}");
        assert!(stats.contains("\"queue_depth\":0"), "{stats}");
        assert!(stats.contains("\"jobs_submitted\":3"), "{stats}");
        assert!(stats.contains("\"jobs_completed\":3"), "{stats}");
        assert!(stats.contains("\"jobs_failed\":0"), "{stats}");

        // Prometheus exposition reflects the finished jobs and the
        // histograms absorbed from their reports.
        let metrics = ask(r#"{"cmd":"metrics"}"#);
        assert!(metrics.contains("\"format\":\"prometheus\""), "{metrics}");
        assert!(
            metrics.contains("wavemin_jobs_completed_total 3"),
            "{metrics}"
        );
        assert!(metrics.contains("wavemin_job_wall_ns_count 3"), "{metrics}");
        assert!(
            metrics.contains("wavemin_zone_solve_ns_bucket"),
            "{metrics}"
        );
        assert!(
            metrics.contains("session=\\\"eco\\\""),
            "per-session cache stats must be labelled: {metrics}"
        );

        let bye = ask(r#"{"cmd":"shutdown"}"#);
        assert!(bye.contains("\"shutting_down\":true"), "{bye}");
        server
            .join()
            .expect("server thread")
            .expect("clean shutdown");
        assert!(!socket.exists(), "socket must be unlinked on shutdown");
    }
}
