//! Spans the benchmark records around its calls into the program: name,
//! start, end, parent and pass id, kept in memory and written once at the
//! end as Chrome trace-event JSON (the format `wavemin --trace-out`
//! writes, viewable in `chrome://tracing` or Perfetto).

use crate::json::{self, obj};
use serde::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub pass: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn secs(&self) -> f64 {
        self.dur_ns() as f64 * 1e-9
    }

    fn to_value(&self) -> Value {
        obj(vec![
            ("id", Value::UInt(self.id as u64)),
            (
                "parent",
                self.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
            ),
            ("name", Value::Str(self.name.clone())),
            ("pass", Value::UInt(self.pass)),
            ("start_ns", Value::UInt(self.start_ns)),
            ("end_ns", Value::UInt(self.end_ns)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(Self {
            id: json::u64_at(v, "id")? as usize,
            parent: json::get(v, "parent")
                .and_then(json::as_u64)
                .map(|p| p as usize),
            name: json::str_at(v, "name")?.to_string(),
            pass: json::u64_at(v, "pass")?,
            start_ns: json::u64_at(v, "start_ns")?,
            end_ns: json::u64_at(v, "end_ns")?,
        })
    }
}

/// A span recorder for one process: nested `enter`/`exit` pairs on one
/// thread, timed against the recorder's own origin.
pub struct Recorder {
    origin: Instant,
    pass: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(pass: u64) -> Self {
        Self {
            origin: Instant::now(),
            pass,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_pass(&mut self, pass: u64) {
        self.pass = pass;
    }

    /// Nanoseconds since this recorder's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            pass: self.pass,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it); returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id].secs()
    }

    /// Adopts spans recorded by another process (a pass child) under the
    /// open span, shifting them to start at `offset_ns` on this clock.
    pub fn adopt(&mut self, child: Vec<Span>, offset_ns: u64) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for s in child {
            self.spans.push(Span {
                id: base + s.id,
                parent: s.parent.map(|p| base + p).or(parent),
                start_ns: s.start_ns + offset_ns,
                end_ns: s.end_ns + offset_ns,
                ..s
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

pub fn spans_to_value(spans: &[Span]) -> Value {
    Value::Seq(spans.iter().map(Span::to_value).collect())
}

pub fn spans_from_value(items: &[Value]) -> Result<Vec<Span>, String> {
    items.iter().map(Span::from_value).collect()
}

/// Each span's duration minus the part its children cover. Summed over
/// every span of a tree this is the root's duration when children nest
/// inside their parents, and more when they do not, which is what the
/// "self times add up to at most the wall time" check detects.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// The total self time of the spans in the subtree under `root`
/// (inclusive).
pub fn subtree_self_ns(spans: &[Span], root: usize) -> u64 {
    let selfs = self_times_ns(spans);
    let mut inside = vec![false; spans.len()];
    let mut total = 0;
    for (i, s) in spans.iter().enumerate() {
        inside[i] = i == root || s.parent.is_some_and(|p| inside[p]);
        if inside[i] {
            total += selfs[i];
        }
    }
    total
}

/// Renders spans as Chrome trace-event JSON: `"X"` complete events in
/// microseconds on one track, with the span id, parent and pass id under
/// `args`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let us = |ns: u64| Value::Float(ns as f64 / 1000.0);
    let mut events = vec![obj(vec![
        ("name", Value::Str("thread_name".into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::UInt(1)),
        ("tid", Value::UInt(1)),
        ("args", obj(vec![("name", Value::Str(workload.into()))])),
    ])];
    for s in spans {
        events.push(obj(vec![
            ("name", Value::Str(s.name.clone())),
            ("cat", Value::Str("benchmark".into())),
            ("ph", Value::Str("X".into())),
            ("pid", Value::UInt(1)),
            ("tid", Value::UInt(1)),
            ("ts", us(s.start_ns)),
            ("dur", us(s.dur_ns())),
            (
                "args",
                obj(vec![
                    ("id", Value::UInt(s.id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("pass", Value::UInt(s.pass)),
                ]),
            ),
        ]));
    }
    json::render(&obj(vec![
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            pass: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_of_nested_spans_sum_to_the_root() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        assert_eq!(subtree_self_ns(&spans, 0), 100);
        assert_eq!(subtree_self_ns(&spans, 1), 30);
    }

    #[test]
    fn recorder_nests_and_adopts_child_spans() {
        let mut r = Recorder::new(7);
        let root = r.enter("root");
        let inner = r.enter("inner");
        r.exit(inner);
        r.adopt(vec![span(0, None, 5, 9), span(1, Some(0), 6, 8)], 1000);
        r.exit(root);
        let spans = r.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            spans[2].parent,
            Some(0),
            "adopted root hangs under the open span"
        );
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[3].start_ns, spans[3].end_ns), (1006, 1008));
        assert!(spans.iter().take(2).all(|s| s.pass == 7));
        let back = spans_from_value(match &spans_to_value(&spans) {
            Value::Seq(items) => items,
            _ => unreachable!(),
        })
        .expect("round trip");
        assert_eq!(back, spans);
        let trace = json::parse(&chrome_trace(&spans, "w")).expect("valid JSON");
        assert_eq!(json::seq_at(&trace, "traceEvents").map(<[_]>::len), Ok(5));
    }
}
