//! Shared infrastructure for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md for the experiment index). Binaries print the table to
//! stdout and optionally persist a machine-readable JSON record next to
//! the repository's `EXPERIMENTS.md` provenance.

#![warn(missing_docs)]

use serde::Serialize;
use std::path::PathBuf;

/// Common CLI arguments shared by the experiment binaries:
/// `[seed] [--json <path>]` plus binary-specific extras read separately.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Placement/MC seed (default 42).
    pub seed: u64,
    /// Where to write the JSON record, if requested.
    pub json: Option<PathBuf>,
    /// Remaining positional arguments.
    pub rest: Vec<String>,
}

impl ExperimentArgs {
    /// Parses `std::env::args()`.
    #[must_use]
    pub fn parse() -> Self {
        let mut seed = 42u64;
        let mut json = None;
        let mut rest = Vec::new();
        let mut args = std::env::args().skip(1);
        let mut first_positional = true;
        while let Some(a) = args.next() {
            if a == "--json" {
                json = args.next().map(PathBuf::from);
            } else if first_positional {
                if let Ok(s) = a.parse() {
                    seed = s;
                } else {
                    rest.push(a);
                }
                first_positional = false;
            } else {
                rest.push(a);
            }
        }
        Self { seed, json, rest }
    }

    /// Writes the record as pretty JSON when `--json` was given.
    ///
    /// # Panics
    ///
    /// Panics on I/O or serialization failure (experiment binaries want
    /// loud failures).
    // The panic is this helper's documented contract: experiment runs must
    // not silently lose their results.
    #[allow(clippy::expect_used)]
    pub fn persist<T: Serialize>(&self, record: &T) {
        if let Some(path) = &self.json {
            let body = serde_json::to_string_pretty(record).expect("serialize record");
            std::fs::write(path, body).expect("write JSON record");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Appends one dated entry to a JSONL history file (one `{"date", "record"}`
/// object per line), creating the file if absent. Unlike a plain `--json`
/// overwrite, the history accumulates across runs so regressions can be
/// diffed over time.
///
/// # Panics
///
/// Panics on I/O or serialization failure, like [`ExperimentArgs::persist`]
/// (experiment runs must not silently lose their results).
#[allow(clippy::expect_used)]
pub fn append_history<T: Serialize>(path: &std::path::Path, record: &T) {
    use std::io::Write;
    let body = serde_json::to_string(record).expect("serialize record");
    let line = format!("{{\"date\":\"{}\",\"record\":{body}}}\n", utc_date_now());
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open history file");
    file.write_all(line.as_bytes())
        .expect("append history line");
    eprintln!("appended to {}", path.display());
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (no external
/// date dependencies: civil-from-days per Howard Hinnant's algorithm).
#[must_use]
pub fn utc_date_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Gregorian (year, month, day) from days since the Unix epoch.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Geometric-mean helper for averaging ratios.
#[must_use]
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 0.0);
    }

    #[test]
    fn geo_mean_handles_zeroes_gracefully() {
        // Zero entries are floored, not panicked on.
        let g = geo_mean(&[0.0, 4.0]);
        assert!(g.is_finite() && g >= 0.0);
    }

    #[test]
    fn persist_writes_json() {
        let dir = std::env::temp_dir().join("wavemin_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.json");
        let args = ExperimentArgs {
            seed: 1,
            json: Some(path.clone()),
            rest: Vec::new(),
        };
        args.persist(&vec![1, 2, 3]);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains('1') && body.contains('3'));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn civil_date_conversion_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(20_454), (2026, 1, 1));
    }

    #[test]
    fn utc_date_is_iso_shaped() {
        let d = utc_date_now();
        assert_eq!(d.len(), 10);
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
    }

    #[test]
    fn history_appends_one_line_per_run() {
        let dir = std::env::temp_dir().join("wavemin_bench_test_history");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        std::fs::remove_file(&path).ok();
        append_history(&path, &vec![1, 2]);
        append_history(&path, &vec![3]);
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with("{\"date\":\""));
            assert!(line.contains("\"record\":"));
        }
        assert!(lines[1].contains("[3]"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persist_without_path_is_a_noop() {
        let args = ExperimentArgs {
            seed: 1,
            json: None,
            rest: Vec::new(),
        };
        args.persist(&42u32); // must not panic or write anywhere
    }
}
