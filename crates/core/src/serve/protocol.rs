//! The serve-mode wire protocol: line-delimited JSON over a unix socket.
//!
//! Each request is one JSON object on one line; each response is one JSON
//! object on one line with an `"ok"` boolean. Each command's payload is
//! a struct deriving `Deserialize`, the only statement of its schema:
//! unknown and duplicate fields are rejected, so protocol drift fails
//! loudly instead of being silently ignored.
//!
//! Commands:
//!
//! * `{"cmd":"ping"}` — liveness probe.
//! * `{"cmd":"load","session":S,"benchmark":B,"seed":N,...}` — create or
//!   replace session `S` with a characterized benchmark design. Instead
//!   of `benchmark`, `"sdf":PATH` (optionally with `"lib":PATH`) imports
//!   a signoff SDF file — exactly one of the two must be given. Optional
//!   `skew_bound_ps`, `sample_count`, `max_intervals`, `threads`, and
//!   `edits` (a list of `{"node":id,"delay_trim_ps":f}` ECO trims applied
//!   before characterization). Re-loading a session keeps its zone cache,
//!   which is what makes an ECO re-solve incremental.
//! * `{"cmd":"solve","session":S,...}` — enqueue a solve job. Optional
//!   `priority` (higher runs first), `time_budget_ms`, and `progress`
//!   (stream `{"progress":{...}}` lines on the job connection before
//!   the final response).
//! * `{"cmd":"stats","session":S}` — the session's zone-cache counters
//!   plus daemon-level queue depth, uptime, and job counters.
//! * `{"cmd":"metrics"}` — Prometheus text exposition of the daemon's
//!   counters, gauges, and latency histograms.
//! * `{"cmd":"shutdown"}` — stop accepting and drain.

use serde::{Deserialize, Value};

/// An ECO edit: add `delay_trim_ps` to one node's delay trim.
#[derive(Debug, Clone, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct EcoEdit {
    /// Tree node id.
    pub node: usize,
    /// Picoseconds added to the node's `delay_trim`.
    pub delay_trim_ps: f64,
}

/// The `load` command payload.
#[derive(Debug, Clone, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LoadRequest {
    /// Session name (created or replaced).
    pub session: String,
    /// Benchmark name (see `wavemin bench` names). Exactly one of
    /// `benchmark` and `sdf` must be given.
    pub benchmark: Option<String>,
    /// Path to an SDF file to import instead of synthesizing a
    /// benchmark (see `wavemin import`).
    pub sdf: Option<String>,
    /// Liberty-subset library path used with `sdf` (default: the
    /// built-in nangate45 library).
    pub lib: Option<String>,
    /// Tree-synthesis seed (absent or `null`: 1).
    #[serde(default = "default_seed", null_is_default)]
    pub seed: u64,
    /// Skew bound override, picoseconds.
    pub skew_bound_ps: Option<f64>,
    /// Sample-count override.
    pub sample_count: Option<usize>,
    /// Feasible-interval cap override.
    pub max_intervals: Option<usize>,
    /// Per-session worker-thread override.
    pub threads: Option<usize>,
    /// ECO trims applied to the design before characterization.
    #[serde(default)]
    pub edits: Vec<EcoEdit>,
}

fn default_seed() -> u64 {
    1
}

/// The `solve` command payload.
#[derive(Debug, Clone, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SolveRequest {
    /// Session to solve.
    pub session: String,
    /// Queue priority; higher runs first (FIFO within a priority; absent
    /// or `null`: 0).
    #[serde(default, null_is_default)]
    pub priority: i64,
    /// Per-job wall-clock budget, milliseconds.
    pub time_budget_ms: Option<u64>,
    /// Stream progress lines on the job connection while the job runs
    /// (absent or `null`: off).
    #[serde(default, null_is_default)]
    pub progress: bool,
}

/// The `stats` command payload.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct StatsRequest {
    session: String,
}

/// A decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Create or replace a session.
    Load(LoadRequest),
    /// Enqueue a solve job.
    Solve(SolveRequest),
    /// Zone-cache counters of a session.
    Stats {
        /// Session to report on.
        session: String,
    },
    /// Prometheus text exposition of daemon counters and histograms.
    Metrics,
    /// Stop accepting connections and drain in-flight work.
    Shutdown,
}

/// Decodes one request line.
///
/// # Errors
///
/// A human-readable message naming the malformed or unknown part.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = serde_json::from_str(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let Value::Map(mut payload) = v else {
        return Err("request must be a JSON object".to_string());
    };
    // The payload is every key but the first `cmd`; a second `cmd` stays
    // in it and is rejected as an unknown field.
    let Some(at) = payload.iter().position(|(k, _)| k == "cmd") else {
        return Err("missing field `cmd`".to_string());
    };
    let Value::Str(cmd) = payload.remove(at).1 else {
        return Err("cmd must be a string".to_string());
    };
    let bare = |request| match payload.first() {
        Some((key, _)) => Err(format!("unknown field `{key}`")),
        None => Ok(request),
    };
    match cmd.as_str() {
        "ping" => bare(Request::Ping),
        "shutdown" => bare(Request::Shutdown),
        "metrics" => bare(Request::Metrics),
        "stats" => decode(payload).map(|stats: StatsRequest| Request::Stats {
            session: stats.session,
        }),
        "load" => {
            let load: LoadRequest = decode(payload)?;
            match (&load.benchmark, &load.sdf) {
                (None, None) => return Err("load needs either benchmark or sdf".to_string()),
                (Some(_), Some(_)) => {
                    return Err("benchmark and sdf are mutually exclusive".to_string())
                }
                _ => {}
            }
            if load.lib.is_some() && load.sdf.is_none() {
                return Err("lib requires sdf".to_string());
            }
            Ok(Request::Load(load))
        }
        "solve" => decode(payload).map(Request::Solve),
        other => Err(format!("unknown cmd {other:?}")),
    }
}

fn decode<T: Deserialize>(payload: Vec<(String, Value)>) -> Result<T, String> {
    serde::from_value(&Value::Map(payload)).map_err(|e| e.to_string())
}

/// Renders a success response with the given extra fields.
#[must_use]
pub fn ok_response(fields: Vec<(String, Value)>) -> String {
    let mut map = vec![("ok".to_string(), Value::Bool(true))];
    map.extend(fields);
    render(&Value::Map(map))
}

/// Renders a failure response carrying `error`.
#[must_use]
pub fn err_response(error: &str) -> String {
    render(&Value::Map(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(error.to_string())),
    ]))
}

fn render(v: &Value) -> String {
    // Value serialization cannot fail (no non-representable types).
    serde_json::to_string(v).unwrap_or_else(|_| "{\"ok\":false,\"error\":\"render\"}".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_command_set() {
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#), Ok(Request::Ping));
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"stats","session":"a"}"#),
            Ok(Request::Stats {
                session: "a".to_string()
            })
        );
        let load = parse_request(
            r#"{"cmd":"load","session":"a","benchmark":"s15850","seed":7,
                "skew_bound_ps":25.5,"edits":[{"node":12,"delay_trim_ps":2.0}]}"#,
        )
        .expect("load");
        match load {
            Request::Load(l) => {
                assert_eq!(l.session, "a");
                assert_eq!(l.benchmark.as_deref(), Some("s15850"));
                assert_eq!(l.sdf, None);
                assert_eq!(l.seed, 7);
                assert_eq!(l.skew_bound_ps, Some(25.5));
                assert_eq!(
                    l.edits,
                    vec![EcoEdit {
                        node: 12,
                        delay_trim_ps: 2.0
                    }]
                );
                assert_eq!(l.sample_count, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let solve = parse_request(r#"{"cmd":"solve","session":"a","priority":3}"#).expect("solve");
        match solve {
            Request::Solve(s) => {
                assert_eq!(s.priority, 3);
                assert_eq!(s.time_budget_ms, None);
                assert!(!s.progress, "progress defaults off");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let solve = parse_request(r#"{"cmd":"solve","session":"a","progress":true}"#)
            .expect("solve with progress");
        match solve {
            Request::Solve(s) => assert!(s.progress),
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(parse_request(r#"{"cmd":"metrics"}"#), Ok(Request::Metrics));
    }

    #[test]
    fn load_accepts_sdf_and_enforces_exclusivity() {
        let load =
            parse_request(r#"{"cmd":"load","session":"a","sdf":"tree.sdf","lib":"cells.lib"}"#)
                .expect("sdf load");
        match load {
            Request::Load(l) => {
                assert_eq!(l.benchmark, None);
                assert_eq!(l.sdf.as_deref(), Some("tree.sdf"));
                assert_eq!(l.lib.as_deref(), Some("cells.lib"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let err = parse_request(r#"{"cmd":"load","session":"a"}"#).unwrap_err();
        assert!(err.contains("benchmark or sdf"), "{err}");
        let err =
            parse_request(r#"{"cmd":"load","session":"a","benchmark":"s15850","sdf":"x.sdf"}"#)
                .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse_request(r#"{"cmd":"load","session":"a","benchmark":"s15850","lib":"x"}"#)
            .unwrap_err();
        assert!(err.contains("lib requires sdf"), "{err}");
    }

    #[test]
    fn rejects_unknown_fields_and_commands() {
        assert!(parse_request(r#"{"cmd":"ping","extra":1}"#).is_err());
        assert!(parse_request(r#"{"cmd":"metrics","extra":1}"#).is_err());
        assert!(
            parse_request(r#"{"cmd":"solve","session":"a","progress":1}"#).is_err(),
            "progress must be a boolean"
        );
        assert!(parse_request(r#"{"cmd":"fly"}"#).is_err());
        assert!(parse_request("not json").is_err());
        assert!(
            parse_request(r#"{"cmd":"solve"}"#).is_err(),
            "session required"
        );
    }

    #[test]
    fn optional_fields_decode_absent_null_and_present() {
        let bench = LoadRequest {
            session: "a".to_string(),
            benchmark: Some("b".to_string()),
            sdf: None,
            lib: None,
            seed: 1,
            skew_bound_ps: None,
            sample_count: None,
            max_intervals: None,
            threads: None,
            edits: Vec::new(),
        };
        let sdf = LoadRequest {
            benchmark: None,
            sdf: Some("t.sdf".to_string()),
            ..bench.clone()
        };
        let solve = SolveRequest {
            session: "a".to_string(),
            priority: 0,
            time_budget_ms: None,
            progress: false,
        };
        let load = |l: LoadRequest| Some(Request::Load(l));
        let on_bench =
            |extra: &str| format!(r#"{{"cmd":"load","session":"a","benchmark":"b"{extra}}}"#);
        let on_sdf =
            |extra: &str| format!(r#"{{"cmd":"load","session":"a","sdf":"t.sdf"{extra}}}"#);
        let on_solve = |extra: &str| format!(r#"{{"cmd":"solve","session":"a"{extra}}}"#);
        // (line, decoded request or None for a rejected line)
        let table = [
            (on_bench(""), load(bench.clone())),
            (on_bench(r#","seed":null"#), load(bench.clone())),
            (
                on_bench(r#","seed":9"#),
                load(LoadRequest {
                    seed: 9,
                    ..bench.clone()
                }),
            ),
            (on_bench(r#","skew_bound_ps":null"#), load(bench.clone())),
            (
                on_bench(r#","skew_bound_ps":25"#),
                load(LoadRequest {
                    skew_bound_ps: Some(25.0),
                    ..bench.clone()
                }),
            ),
            (on_bench(r#","sample_count":null"#), load(bench.clone())),
            (
                on_bench(r#","sample_count":16"#),
                load(LoadRequest {
                    sample_count: Some(16),
                    ..bench.clone()
                }),
            ),
            (on_bench(r#","max_intervals":null"#), load(bench.clone())),
            (
                on_bench(r#","max_intervals":4"#),
                load(LoadRequest {
                    max_intervals: Some(4),
                    ..bench.clone()
                }),
            ),
            (on_bench(r#","threads":null"#), load(bench.clone())),
            (
                on_bench(r#","threads":2"#),
                load(LoadRequest {
                    threads: Some(2),
                    ..bench.clone()
                }),
            ),
            (on_bench(r#","edits":null"#), None),
            (on_bench(r#","edits":[]"#), load(bench.clone())),
            (
                on_bench(r#","edits":[{"node":1,"delay_trim_ps":-2}]"#),
                load(LoadRequest {
                    edits: vec![EcoEdit {
                        node: 1,
                        delay_trim_ps: -2.0,
                    }],
                    ..bench.clone()
                }),
            ),
            (on_bench(r#","sdf":null"#), load(bench.clone())),
            (on_bench(r#","lib":null"#), load(bench.clone())),
            (on_bench(r#","lib":"x.lib""#), None),
            (on_sdf(""), load(sdf.clone())),
            (on_sdf(r#","benchmark":null"#), load(sdf.clone())),
            (on_sdf(r#","benchmark":"b""#), None),
            (
                on_sdf(r#","lib":"x.lib""#),
                load(LoadRequest {
                    lib: Some("x.lib".to_string()),
                    ..sdf.clone()
                }),
            ),
            (on_solve(""), Some(Request::Solve(solve.clone()))),
            (
                on_solve(r#","priority":null"#),
                Some(Request::Solve(solve.clone())),
            ),
            (
                on_solve(r#","priority":-2"#),
                Some(Request::Solve(SolveRequest {
                    priority: -2,
                    ..solve.clone()
                })),
            ),
            (
                on_solve(r#","time_budget_ms":null"#),
                Some(Request::Solve(solve.clone())),
            ),
            (
                on_solve(r#","time_budget_ms":500"#),
                Some(Request::Solve(SolveRequest {
                    time_budget_ms: Some(500),
                    ..solve.clone()
                })),
            ),
            (
                on_solve(r#","progress":null"#),
                Some(Request::Solve(solve.clone())),
            ),
            (
                on_solve(r#","progress":true"#),
                Some(Request::Solve(SolveRequest {
                    progress: true,
                    ..solve.clone()
                })),
            ),
        ];
        for (line, expected) in table {
            assert_eq!(parse_request(&line).ok(), expected, "{line}");
        }
    }

    #[test]
    fn rejects_duplicate_fields() {
        for line in [
            r#"{"cmd":"solve","session":"a","session":"b"}"#,
            r#"{"cmd":"solve","cmd":"ping","session":"a"}"#,
            r#"{"cmd":"ping","cmd":"ping"}"#,
            r#"{"cmd":"load","session":"a","benchmark":"b","seed":1,"seed":2}"#,
            r#"{"cmd":"load","session":"a","benchmark":"b","edits":[{"node":1,"node":2,"delay_trim_ps":0}]}"#,
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(
                err.contains("duplicate") || err.contains("unknown"),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn malformed_requests_say_what_is_wrong() {
        let err = parse_request("not json").unwrap_err();
        assert!(err.starts_with("malformed JSON: "), "{err}");
        assert_eq!(
            parse_request("[1]").unwrap_err(),
            "request must be a JSON object"
        );
        assert_eq!(
            parse_request(r#"{"session":"a"}"#).unwrap_err(),
            "missing field `cmd`"
        );
        assert_eq!(
            parse_request(r#"{"cmd":3}"#).unwrap_err(),
            "cmd must be a string"
        );
        assert_eq!(
            parse_request(r#"{"cmd":"fly"}"#).unwrap_err(),
            "unknown cmd \"fly\""
        );
    }

    #[test]
    fn solve_takes_negative_priorities_and_null_for_its_defaults() {
        let solve = |line: &str| match parse_request(line) {
            Ok(Request::Solve(s)) => Ok(s),
            Ok(other) => panic!("wrong parse: {other:?}"),
            Err(e) => Err(e),
        };
        let s = solve(r#"{"cmd":"solve","session":"a","priority":-2}"#).expect("solve");
        assert_eq!(s.priority, -2);
        let s = solve(
            r#"{"cmd":"solve","session":"a","priority":null,"progress":null,"time_budget_ms":null}"#,
        )
        .expect("nulls");
        assert_eq!((s.priority, s.progress, s.time_budget_ms), (0, false, None));
        let err = solve(r#"{"cmd":"solve","session":"a","time_budget_ms":-1}"#).unwrap_err();
        assert!(err.starts_with("time_budget_ms: "), "{err}");
    }

    #[test]
    fn a_bad_eco_edit_is_named_by_its_index() {
        let err = parse_request(
            r#"{"cmd":"load","session":"a","benchmark":"b",
                "edits":[{"node":1,"delay_trim_ps":0},{"node":"x","delay_trim_ps":0}]}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            "edits[1].node: expected an unsigned integer, got a string"
        );
        let err =
            parse_request(r#"{"cmd":"load","session":"a","benchmark":"b","edits":[{"node":1}]}"#)
                .unwrap_err();
        assert_eq!(err, "edits[0]: missing field `delay_trim_ps`");
    }

    #[test]
    fn responses_round_trip_through_the_parser_side() {
        let ok = ok_response(vec![("zones".to_string(), Value::UInt(4))]);
        assert!(ok.starts_with('{') && ok.contains("\"ok\":true") && ok.contains("\"zones\":4"));
        let err = err_response("nope");
        assert!(err.contains("\"ok\":false") && err.contains("nope"));
    }
}
