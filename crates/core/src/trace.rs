//! The event journal: lock-free per-worker trace buffers with
//! Chrome-trace/Perfetto export.
//!
//! Where [`crate::observe::MetricsRegistry`] aggregates *counters*, the
//! [`TraceJournal`] keeps *events*: spans at stage / zone / graph-layer /
//! label-batch granularity and instants for ladder rung changes, budget
//! exhaustion, dominance-front evictions and rejected validation
//! candidates. Both ride in one [`crate::observe::Instruments`]. The
//! design goals mirror the registry's:
//!
//! * **disabled path is one branch** — a disabled journal is an
//!   `Option::None`; every recording call short-circuits immediately;
//! * **recording never blocks the solver** — each worker records into a
//!   [`TraceHandle`] it exclusively owns (a plain bounded `Vec` plus a
//!   local drop counter), so the hot path takes no lock and touches no
//!   shared cache line. The journal's mutex is only taken when a handle is
//!   created (to map the thread to a track) and once when it flushes on
//!   drop;
//! * **bounded memory** — each worker track has a fixed event capacity;
//!   once a handle's track budget is full, new events are *dropped and
//!   counted* (keep-oldest overflow policy), never reallocated past the
//!   cap and never blocking;
//! * **monotonic timestamps** — all events are stamped from one shared
//!   [`Instant`] epoch, so the merged journal sorts into a single
//!   consistent timeline.
//!
//! [`TraceJournal::chrome_trace`] exports the merged journal as Chrome
//! trace-event JSON (the `{"traceEvents": [...]}` object format), viewable
//! in `chrome://tracing` and <https://ui.perfetto.dev>: one track (`tid`)
//! per worker thread, `"X"` complete spans with microsecond `ts`/`dur`,
//! `"i"` instants, and [`SolveStats`] counters attached as span args.

use crate::observe::Stage;
use serde::Value;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;
use wavemin_mosp::{Exhaustion, SolveObserver, SolveStats};

/// Default per-track event capacity (events per worker thread).
pub const DEFAULT_TRACK_CAPACITY: usize = 1 << 16;

/// One recorded event: a span (`dur_ns > 0` or a span-kind) or an instant,
/// stamped in nanoseconds since the journal's epoch.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Start time, nanoseconds since the journal epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The event payload variants the journal records.
#[derive(Debug, Clone, Copy)]
pub enum TraceEventKind {
    /// Span: one complete zone × interval MOSP solve, with the solver's
    /// counters attached.
    ZoneSolve {
        /// Zone id in the run's partition.
        zone: usize,
        /// The solve's label/work counters.
        stats: SolveStats,
        /// Whether the solve exhausted its resource budget.
        exhausted: bool,
    },
    /// Span: one graph-layer expansion (all out-arcs of one vertex).
    Layer {
        /// The expanded vertex.
        vertex: usize,
        /// Source labels propagated.
        labels: usize,
    },
    /// Span: one (vertex, arc) label batch.
    LabelBatch {
        /// The expanding vertex.
        vertex: usize,
        /// The arc's target vertex.
        target: usize,
        /// Label-insertion attempts in the batch.
        attempts: u64,
        /// Incumbent labels the batch evicted by dominance.
        pruned: u64,
    },
    /// Span: one pipeline stage on the driving thread.
    Stage {
        /// The stage (exported under [`Stage::name`]).
        stage: Stage,
    },
    /// Instant: the degradation ladder moved to `rung`.
    RungTransition {
        /// The rung descended to (0 = full fidelity).
        rung: usize,
    },
    /// Instant: the shared solve budget ran out.
    BudgetExhausted {
        /// Which resource ran out.
        reason: &'static str,
    },
    /// Instant: the per-vertex label cap evicted labels from a
    /// dominance front.
    CapEvictions {
        /// The capped vertex.
        vertex: usize,
        /// Labels evicted.
        count: u64,
    },
    /// Instant: a zone worker faulted (panic or poisoned input) and the
    /// containment layer caught it.
    ZoneFault {
        /// The faulted zone.
        zone: usize,
    },
    /// Instant: a faulted zone's salvage retry on the greedy rung
    /// succeeded.
    ZoneSalvaged {
        /// The salvaged zone.
        zone: usize,
    },
    /// Instant: the ladder's state mutex was found poisoned and the rung
    /// was restored from the last-known-good shadow.
    LadderRestored {
        /// The restored rung.
        rung: usize,
    },
    /// Instant: a ranked candidate missed the skew bound at exact
    /// validation, so the ranking fell through to the next one.
    CandidateRejected {
        /// The candidate's position in the cost ranking (0 = cheapest).
        rank: usize,
        /// The candidate's min–max cost.
        cost: f64,
        /// Its exact worst-mode skew, picoseconds.
        skew_ps: f64,
    },
}

impl TraceEventKind {
    /// The Chrome-trace event name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::ZoneSolve { .. } => "zone_solve",
            Self::Layer { .. } => "layer",
            Self::LabelBatch { .. } => "label_batch",
            Self::Stage { stage } => stage.name(),
            Self::RungTransition { .. } => "rung_transition",
            Self::BudgetExhausted { .. } => "budget_exhausted",
            Self::CapEvictions { .. } => "cap_evictions",
            Self::ZoneFault { .. } => "zone_fault",
            Self::ZoneSalvaged { .. } => "zone_salvaged",
            Self::LadderRestored { .. } => "ladder_restored",
            Self::CandidateRejected { .. } => "candidate_rejected",
        }
    }

    /// Whether the event renders as a Chrome-trace complete span (`"X"`)
    /// rather than an instant (`"i"`).
    #[must_use]
    pub fn is_span(&self) -> bool {
        matches!(
            self,
            Self::ZoneSolve { .. }
                | Self::Layer { .. }
                | Self::LabelBatch { .. }
                | Self::Stage { .. }
        )
    }
}

/// One worker track's flushed log.
#[derive(Debug, Default)]
struct TrackLog {
    events: Vec<TraceEvent>,
    dropped: u64,
}

#[derive(Debug, Default)]
struct JournalState {
    /// Thread → track index, in registration order. Tracks are never
    /// removed, so an index stays valid for the journal's lifetime.
    threads: Vec<(ThreadId, usize)>,
    tracks: Vec<TrackLog>,
}

#[derive(Debug)]
struct JournalInner {
    epoch: Instant,
    capacity: usize,
    state: Mutex<JournalState>,
}

/// The run-wide event journal. Cheap to clone (`Option<Arc<_>>`); a
/// disabled journal is a `None` and every method short-circuits on the
/// first branch, exactly like [`crate::observe::MetricsRegistry`].
#[derive(Clone, Default)]
pub struct TraceJournal {
    inner: Option<Arc<JournalInner>>,
}

impl std::fmt::Debug for TraceJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceJournal")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TraceJournal {
    /// A journal that records nothing (also the `Default`).
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A collecting journal with the default per-track capacity.
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_TRACK_CAPACITY)
    }

    /// A collecting journal holding at most `capacity` events per worker
    /// track (at least 1); overflowing events are dropped and counted.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(JournalInner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                state: Mutex::new(JournalState::default()),
            })),
        }
    }

    /// `true` when this journal records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a recording handle for the calling thread. The handle owns
    /// its buffer outright — recording through it never locks — and
    /// flushes into the journal when dropped. Handles on the same thread
    /// share one track (and its capacity); handles on distinct threads get
    /// distinct tracks. Disabled journals hand out no-op handles.
    #[must_use]
    pub fn handle(&self) -> TraceHandle {
        let Some(inner) = self.inner.as_ref() else {
            return TraceHandle { inner: None };
        };
        let me = std::thread::current().id();
        let (track, used) = {
            let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            let track = match st.threads.iter().find(|(id, _)| *id == me) {
                Some(&(_, idx)) => idx,
                None => {
                    let idx = st.tracks.len();
                    st.threads.push((me, idx));
                    st.tracks.push(TrackLog::default());
                    idx
                }
            };
            (track, st.tracks[track].events.len())
        };
        TraceHandle {
            inner: Some(HandleInner {
                journal: Arc::clone(inner),
                track,
                room: inner.capacity.saturating_sub(used),
                events: Vec::new(),
                dropped: 0,
            }),
        }
    }

    /// Total events dropped to overflow across all flushed tracks.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        let Some(inner) = self.inner.as_ref() else {
            return 0;
        };
        let st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.tracks.iter().map(|t| t.dropped).sum()
    }

    /// The merged journal: all flushed events across all tracks, sorted by
    /// timestamp (stable, so per-track recording order breaks ties).
    /// `None` when the journal is disabled.
    #[must_use]
    pub fn merged(&self) -> Option<MergedTrace> {
        let inner = self.inner.as_ref()?;
        let st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut events: Vec<(usize, TraceEvent)> = Vec::new();
        let mut tracks = Vec::with_capacity(st.tracks.len());
        for (idx, t) in st.tracks.iter().enumerate() {
            events.extend(t.events.iter().map(|&e| (idx, e)));
            tracks.push(TrackSummary {
                name: format!("worker-{idx}"),
                recorded: t.events.len(),
                dropped: t.dropped,
            });
        }
        events.sort_by_key(|(_, e)| e.ts_ns);
        Some(MergedTrace { events, tracks })
    }

    /// Exports the merged journal as Chrome trace-event JSON (the object
    /// format: `{"traceEvents": [...], ...}`), or `None` when disabled.
    ///
    /// Tracks map to `tid`s under one `pid`, each named by a `"M"`
    /// metadata event; spans are `"X"` complete events with microsecond
    /// `ts`/`dur` and their payload (including [`SolveStats`] for zone
    /// solves) under `args`; instants are `"i"` with thread scope. Events
    /// are emitted in merged timestamp order, so `ts` is monotonic within
    /// every track.
    #[must_use]
    pub fn chrome_trace(&self) -> Option<String> {
        let merged = self.merged()?;
        let mut events: Vec<Value> = Vec::with_capacity(merged.events.len() + merged.tracks.len());
        for (idx, t) in merged.tracks.iter().enumerate() {
            events.push(map(vec![
                ("name", str_value("thread_name")),
                ("ph", str_value("M")),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(idx as u64)),
                ("args", map(vec![("name", Value::Str(t.name.clone()))])),
            ]));
        }
        for &(track, ev) in &merged.events {
            events.push(event_value(track, &ev));
        }
        let dropped = merged.tracks.iter().map(|t| t.dropped).sum::<u64>();
        let root = map(vec![
            ("traceEvents", Value::Seq(events)),
            ("displayTimeUnit", str_value("ms")),
            (
                "otherData",
                map(vec![("dropped_events", Value::UInt(dropped))]),
            ),
        ]);
        serde_json::to_string(&root).ok()
    }
}

/// One track's summary in a [`MergedTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackSummary {
    /// Track display name (`worker-<index>` in registration order).
    pub name: String,
    /// Events the track retained.
    pub recorded: usize,
    /// Events the track dropped to overflow.
    pub dropped: u64,
}

/// The journal's merged, timestamp-sorted view.
#[derive(Debug, Clone)]
pub struct MergedTrace {
    /// `(track index, event)` pairs in ascending `ts_ns` order.
    pub events: Vec<(usize, TraceEvent)>,
    /// Per-track summaries, indexed by track.
    pub tracks: Vec<TrackSummary>,
}

#[derive(Debug)]
struct HandleInner {
    journal: Arc<JournalInner>,
    track: usize,
    /// Events this handle may still retain before its track is full.
    room: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl HandleInner {
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.room {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// A per-worker recording handle (see [`TraceJournal::handle`]). The
/// recording methods write into thread-local storage the handle owns —
/// no locks, no shared atomics — and the buffered events flush into the
/// journal exactly once, when the handle drops (or [`TraceHandle::flush`]
/// is called). Implements [`SolveObserver`] so it can plug straight into
/// the MOSP solver's hook sites.
#[derive(Debug)]
pub struct TraceHandle {
    inner: Option<HandleInner>,
}

impl TraceHandle {
    /// `true` when this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the journal epoch (0 when disabled). Sample this
    /// before a region of interest and pass it to [`TraceHandle::span`].
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(h) => elapsed_ns(h.journal.epoch),
            None => 0,
        }
    }

    /// Records a span from `start_ns` (a prior [`TraceHandle::now_ns`])
    /// to now.
    pub fn span(&mut self, start_ns: u64, kind: TraceEventKind) {
        let Some(h) = &mut self.inner else {
            return;
        };
        let dur_ns = elapsed_ns(h.journal.epoch).saturating_sub(start_ns);
        h.push(TraceEvent {
            ts_ns: start_ns,
            dur_ns,
            kind,
        });
    }

    /// Records a span that started at `started` and lasted `dur_ns`:
    /// the two clock readings the caller already took for its own
    /// accounting, so the journal and the registry share one clock.
    pub fn span_at(&mut self, started: Instant, dur_ns: u64, kind: TraceEventKind) {
        let Some(h) = &mut self.inner else {
            return;
        };
        let ts_ns = u64::try_from(
            started
                .saturating_duration_since(h.journal.epoch)
                .as_nanos(),
        )
        .unwrap_or(u64::MAX);
        h.push(TraceEvent {
            ts_ns,
            dur_ns,
            kind,
        });
    }

    /// Records an instant event stamped now.
    pub fn instant(&mut self, kind: TraceEventKind) {
        let Some(h) = &mut self.inner else {
            return;
        };
        let ts_ns = elapsed_ns(h.journal.epoch);
        h.push(TraceEvent {
            ts_ns,
            dur_ns: 0,
            kind,
        });
    }

    /// Flushes the buffered events into the journal. Idempotent; also runs
    /// on drop. After a flush the handle is disabled.
    pub fn flush(&mut self) {
        let Some(h) = self.inner.take() else {
            return;
        };
        let mut events = h.events;
        let mut st = h
            .journal
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(track) = st.tracks.get_mut(h.track) {
            track.events.append(&mut events);
            track.dropped += h.dropped;
        }
    }
}

impl Drop for TraceHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

impl SolveObserver for TraceHandle {
    fn now_ns(&mut self) -> u64 {
        TraceHandle::now_ns(self)
    }

    fn layer_span(&mut self, start_ns: u64, vertex: usize, labels: usize) {
        self.span(start_ns, TraceEventKind::Layer { vertex, labels });
    }

    fn batch_span(
        &mut self,
        start_ns: u64,
        vertex: usize,
        target: usize,
        attempts: u64,
        pruned: u64,
    ) {
        self.span(
            start_ns,
            TraceEventKind::LabelBatch {
                vertex,
                target,
                attempts,
                pruned,
            },
        );
    }

    fn cap_evictions(&mut self, vertex: usize, count: u64) {
        self.instant(TraceEventKind::CapEvictions { vertex, count });
    }

    fn budget_exhausted(&mut self, reason: Exhaustion) {
        self.instant(TraceEventKind::BudgetExhausted {
            reason: exhaustion_name(reason),
        });
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn exhaustion_name(reason: Exhaustion) -> &'static str {
    match reason {
        Exhaustion::DeadlineExpired => "deadline_expired",
        Exhaustion::WorkCapReached => "work_cap_reached",
    }
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn str_value(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// Microseconds (Chrome-trace's unit) from nanoseconds, order-preserving.
fn us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1000.0)
}

fn event_value(track: usize, ev: &TraceEvent) -> Value {
    let args = match ev.kind {
        TraceEventKind::ZoneSolve {
            zone,
            stats,
            exhausted,
        } => map(vec![
            ("zone", Value::UInt(zone as u64)),
            ("labels_created", Value::UInt(stats.labels_created)),
            ("labels_pruned", Value::UInt(stats.labels_pruned)),
            ("solver_work", Value::UInt(stats.work)),
            ("front_size", Value::UInt(stats.front_size)),
            ("dominance_checks", Value::UInt(stats.dominance_checks)),
            ("dominance_skipped", Value::UInt(stats.dominance_skipped)),
            ("exhausted", Value::Bool(exhausted)),
        ]),
        TraceEventKind::Layer { vertex, labels } => map(vec![
            ("vertex", Value::UInt(vertex as u64)),
            ("labels", Value::UInt(labels as u64)),
        ]),
        TraceEventKind::LabelBatch {
            vertex,
            target,
            attempts,
            pruned,
        } => map(vec![
            ("vertex", Value::UInt(vertex as u64)),
            ("target", Value::UInt(target as u64)),
            ("attempts", Value::UInt(attempts)),
            ("pruned", Value::UInt(pruned)),
        ]),
        TraceEventKind::Stage { .. } => map(Vec::new()),
        TraceEventKind::RungTransition { rung } => map(vec![("rung", Value::UInt(rung as u64))]),
        TraceEventKind::BudgetExhausted { reason } => map(vec![("reason", str_value(reason))]),
        TraceEventKind::CapEvictions { vertex, count } => map(vec![
            ("vertex", Value::UInt(vertex as u64)),
            ("count", Value::UInt(count)),
        ]),
        TraceEventKind::ZoneFault { zone } | TraceEventKind::ZoneSalvaged { zone } => {
            map(vec![("zone", Value::UInt(zone as u64))])
        }
        TraceEventKind::LadderRestored { rung } => map(vec![("rung", Value::UInt(rung as u64))]),
        TraceEventKind::CandidateRejected {
            rank,
            cost,
            skew_ps,
        } => map(vec![
            ("rank", Value::UInt(rank as u64)),
            ("cost", Value::Float(cost)),
            ("skew_ps", Value::Float(skew_ps)),
        ]),
    };
    let mut entries = vec![
        ("name", str_value(ev.kind.name())),
        ("cat", str_value("wavemin")),
        ("pid", Value::UInt(1)),
        ("tid", Value::UInt(track as u64)),
        ("ts", us(ev.ts_ns)),
    ];
    if ev.kind.is_span() {
        entries.push(("ph", str_value("X")));
        entries.push(("dur", us(ev.dur_ns)));
    } else {
        entries.push(("ph", str_value("i")));
        entries.push(("s", str_value("t")));
    }
    entries.push(("args", args));
    map(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_is_a_noop() {
        let j = TraceJournal::disabled();
        assert!(!j.is_enabled());
        let mut h = j.handle();
        assert!(!h.is_enabled());
        assert_eq!(h.now_ns(), 0);
        h.instant(TraceEventKind::RungTransition { rung: 1 });
        h.span(
            0,
            TraceEventKind::ZoneSolve {
                zone: 0,
                stats: SolveStats::default(),
                exhausted: false,
            },
        );
        drop(h);
        assert!(j.merged().is_none());
        assert!(j.chrome_trace().is_none());
        assert_eq!(j.dropped_events(), 0);
    }

    #[test]
    fn events_merge_in_timestamp_order_across_threads() {
        let j = TraceJournal::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let j = j.clone();
                scope.spawn(move || {
                    let mut h = j.handle();
                    for i in 0..32 {
                        h.instant(TraceEventKind::RungTransition { rung: i });
                    }
                });
            }
        });
        let merged = j.merged().expect("enabled");
        assert_eq!(merged.events.len(), 128);
        assert_eq!(merged.tracks.len(), 4);
        let ts: Vec<u64> = merged.events.iter().map(|(_, e)| e.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "merged order");
        assert_eq!(j.dropped_events(), 0);
    }

    #[test]
    fn overflow_drops_newest_and_counts_exactly() {
        let j = TraceJournal::with_capacity(10);
        let mut h = j.handle();
        for i in 0..25 {
            h.instant(TraceEventKind::RungTransition { rung: i });
        }
        drop(h);
        assert_eq!(j.dropped_events(), 15);
        let merged = j.merged().expect("enabled");
        assert_eq!(merged.events.len(), 10);
        // Keep-oldest policy: the retained events are the first ten.
        for (i, (_, e)) in merged.events.iter().enumerate() {
            match e.kind {
                TraceEventKind::RungTransition { rung } => assert_eq!(rung, i),
                _ => panic!("unexpected kind"),
            }
        }
    }

    #[test]
    fn sequential_handles_share_one_track_budget() {
        let j = TraceJournal::with_capacity(10);
        for _ in 0..3 {
            let mut h = j.handle();
            for i in 0..6 {
                h.instant(TraceEventKind::RungTransition { rung: i });
            }
        }
        // 18 pushed, 10 retained (track capacity), 8 dropped.
        let merged = j.merged().expect("enabled");
        assert_eq!(merged.tracks.len(), 1, "same thread, one track");
        assert_eq!(merged.events.len(), 10);
        assert_eq!(j.dropped_events(), 8);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_required_keys() {
        let j = TraceJournal::enabled();
        {
            let mut h = j.handle();
            let t0 = h.now_ns();
            h.span(
                t0,
                TraceEventKind::ZoneSolve {
                    zone: 3,
                    stats: SolveStats {
                        labels_created: 7,
                        ..SolveStats::default()
                    },
                    exhausted: true,
                },
            );
            h.instant(TraceEventKind::RungTransition { rung: 2 });
        }
        let json = j.chrome_trace().expect("enabled");
        let v = serde_json::from_str(&json).expect("valid JSON");
        let Value::Map(entries) = &v else {
            panic!("object root");
        };
        let trace_events = entries
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents");
        let Value::Seq(events) = trace_events else {
            panic!("traceEvents array");
        };
        // 1 metadata + 2 recorded events.
        assert_eq!(events.len(), 3);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"zone_solve\""));
        assert!(json.contains("\"labels_created\""));
        assert!(json.contains("\"rung_transition\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn spans_measure_elapsed_time() {
        let j = TraceJournal::enabled();
        let mut h = j.handle();
        let t0 = h.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        h.span(
            t0,
            TraceEventKind::Stage {
                stage: Stage::Characterization,
            },
        );
        drop(h);
        let merged = j.merged().expect("enabled");
        assert_eq!(merged.events.len(), 1);
        let (_, ev) = merged.events[0];
        assert!(ev.dur_ns >= 2_000_000, "slept 2 ms, got {} ns", ev.dur_ns);
        assert_eq!(ev.ts_ns, t0);
    }
}
