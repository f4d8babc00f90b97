//! The metric catalogue, measured values, and the per-workload result
//! files `run` writes and `compare` reads.

use crate::json::{self, obj};
use crate::stats::{self, Tally};
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What a user of the program sees; carries a regression bound.
    EndToEnd,
    /// One layer's share of the work; from the traced pass only.
    PerLayer,
}

/// One catalogue entry. `all_workloads` metrics are reported by every
/// workload and are the ones `BENCHMARK.json` lists; the others only
/// exist on the workload named in their description (README.md).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Worst allowed change of the median, as a share of the baseline.
    pub bound: Option<f64>,
    pub all_workloads: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
        bound: Some(bound),
        all_workloads: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
        bound: None,
        all_workloads: true,
    }
}

const fn only(def: MetricDef) -> MetricDef {
    MetricDef {
        all_workloads: false,
        ..def
    }
}

use Better::{Higher, Lower};

pub const CATALOGUE: &[MetricDef] = &[
    // Host contention on a shared 2-core machine moves whole runs: the
    // IQR of ten runs' medians is 1.6–6 % in quiet spells and up to 19 %
    // in busy ones (README.md), hence the widest bound for the times.
    e2e("optimize_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_reduction_pct", "%", Higher, 0.001),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    only(e2e("eco_s_p90", "s", Lower, 0.25)),
    only(e2e("hot_solve_s_p50", "s", Lower, 0.25)),
    // Zero on a healthy run, so it cannot be a BENCHMARK.json metric;
    // the result line's `attempted`/`failed` carry it there.
    only(e2e("fail_ratio", "ratio", Lower, 0.0)),
    layer("io.import_s", "s", Lower),
    layer("session.characterize_s", "s", Lower),
    layer("session.solve_s", "s", Lower),
    layer("mosp.zone_solve_busy_s", "s", Lower),
    layer("mosp.zone_solves", "count", Lower),
    layer("mosp.labels_created", "count", Lower),
    layer("mosp.label_prune_ratio", "ratio", Higher),
    layer("mosp.dominance_checks", "count", Lower),
    layer("mosp.dominance_skip_ratio", "ratio", Higher),
    layer("parallel.efficiency", "ratio", Higher),
    layer("algo.validation_s", "s", Lower),
    layer("algo.solve_other_s", "s", Lower),
    layer("streaming.zones_spilled", "count", Lower),
    layer("streaming.zone_recomputes", "count", Lower),
    layer("cache.reuse_ratio", "ratio", Higher),
    layer("cache.hits", "count", Higher),
    layer("cache.misses", "count", Lower),
    layer("cache.evictions", "count", Lower),
    layer("cache.bytes", "bytes", Lower),
    layer("dispatch.overhead_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
    only(layer("multimode.intersection_s", "s", Lower)),
    only(layer("serve.server_solve_s_p50", "s", Lower)),
    only(layer("serve.cold_solve_s", "s", Lower)),
    only(layer("serve.zone_solve_busy_s", "s", Lower)),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    CATALOGUE.iter().find(|d| d.name == name)
}

/// One measured metric: the reported `value` and the repetitions it
/// summarizes (per-pass values for batch workloads; for serve latencies,
/// the statistic over each round of edits), from which `compare` takes
/// quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Raw observations behind `value` (passes, cycles, requests).
    pub count: usize,
    pub samples: Vec<f64>,
}

/// Collects the metrics of one workload run.
#[derive(Debug, Default)]
pub struct Sheet {
    pub metrics: Vec<Measured>,
}

impl Sheet {
    fn push(&mut self, name: &str, value: f64, count: usize, samples: Vec<f64>) {
        let unit = def(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
            .unit;
        self.metrics.push(Measured {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            count,
            samples,
        });
    }

    /// A single-valued metric (a count, a ratio, a maximum).
    pub fn one(&mut self, name: &str, value: f64) {
        self.push(name, value, 1, vec![value]);
    }

    /// The median of per-pass values.
    pub fn median_of(&mut self, name: &str, per_pass: &[f64]) {
        self.push(
            name,
            stats::median(per_pass),
            per_pass.len(),
            per_pass.to_vec(),
        );
    }

    /// Percentile `p` of many observations that come in repetitions of
    /// `per_rep` like-for-like ones (serve's rounds of edits); the samples
    /// are the percentile of each repetition, as a batch pass is one.
    pub fn percentile_of(&mut self, name: &str, p: f64, obs: &[f64], per_rep: usize) {
        let samples = obs
            .chunks(per_rep.max(1))
            .map(|c| stats::percentile(c, p))
            .collect();
        self.push(name, stats::percentile(obs, p), obs.len(), samples);
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tally: Tally,
    pub sheet: Sheet,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The metrics of `kind` defined on every workload: what the final
    /// result line carries.
    pub fn contract_metrics(&self, kind: Kind) -> Vec<&Measured> {
        CATALOGUE
            .iter()
            .filter(|d| d.all_workloads && d.kind == kind)
            .filter_map(|d| self.sheet.get(d.name))
            .collect()
    }

    pub fn to_value(&self, host: &Value) -> Value {
        let metrics = self
            .sheet
            .metrics
            .iter()
            .map(|m| {
                obj(vec![
                    ("name", Value::Str(m.name.clone())),
                    ("unit", Value::Str(m.unit.clone())),
                    ("value", Value::Float(m.value)),
                    ("count", Value::UInt(m.count as u64)),
                    (
                        "samples",
                        Value::Seq(m.samples.iter().map(|&s| Value::Float(s)).collect()),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::UInt(self.seed)),
            ("seconds", Value::Float(self.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.tally.attempted)),
            ("failed", Value::UInt(self.tally.failed)),
            ("host", host.clone()),
            ("metrics", Value::Seq(metrics)),
        ])
    }
}

/// Reads the metrics of a result file written by [`WorkloadResult::to_value`].
pub fn metrics_from_value(v: &Value) -> Result<Vec<Measured>, String> {
    json::seq_at(v, "metrics")?
        .iter()
        .map(|m| {
            Ok(Measured {
                name: json::str_at(m, "name")?.to_string(),
                unit: json::str_at(m, "unit")?.to_string(),
                value: json::f64_at(m, "value")?,
                count: json::u64_at(m, "count")? as usize,
                samples: json::seq_at(m, "samples")?
                    .iter()
                    .map(|s| json::as_f64(s).ok_or("non-numeric sample"))
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_bounded_where_end_to_end() {
        for (i, d) in CATALOGUE.iter().enumerate() {
            assert!(
                CATALOGUE[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
            assert_eq!(d.kind == Kind::EndToEnd, d.bound.is_some(), "{}", d.name);
        }
    }

    /// `BENCHMARK.json` lists exactly the catalogue's every-workload
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let root = json::parse(&text).expect("valid JSON");
        for (key, kind) in [
            ("end_to_end", Kind::EndToEnd),
            ("per_layer", Kind::PerLayer),
        ] {
            let listed = json::seq_at(&root, key).expect(key);
            let expected: Vec<_> = CATALOGUE
                .iter()
                .filter(|d| d.all_workloads && d.kind == kind)
                .collect();
            assert_eq!(listed.len(), expected.len(), "{key}");
            for (entry, d) in listed.iter().zip(expected) {
                assert_eq!(json::str_at(entry, "name"), Ok(d.name));
                assert_eq!(json::str_at(entry, "unit"), Ok(d.unit), "{}", d.name);
                assert_eq!(
                    json::str_at(entry, "better"),
                    Ok(d.better.name()),
                    "{}",
                    d.name
                );
                if let Some(bound) = d.bound {
                    assert_eq!(json::f64_at(entry, "bound"), Ok(bound), "{}", d.name);
                }
            }
        }
    }

    #[test]
    fn percentile_samples_are_per_repetition() {
        let mut sheet = Sheet::default();
        let obs: Vec<f64> = (1..=100).map(f64::from).collect();
        sheet.percentile_of("optimize_s", 50.0, &obs, 20);
        let m = sheet.get("optimize_s").expect("pushed");
        assert_eq!((m.value, m.count), (50.0, 100));
        assert_eq!(m.samples, vec![10.0, 30.0, 50.0, 70.0, 90.0]);
        sheet.percentile_of("hot_solve_s_p50", 50.0, &obs[..4], 20);
        assert_eq!(
            sheet.get("hot_solve_s_p50").expect("pushed").samples,
            vec![2.0]
        );
    }
}
