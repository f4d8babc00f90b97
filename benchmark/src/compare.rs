//! `compare DIR_A DIR_B`: each side's median and quartiles per
//! (workload, metric), and a verdict for the bounded metrics.

use crate::metrics::{self, Better, Measured};
use crate::stats;
use crate::{json, Workload};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    /// A side's quartile spread is wider than the bound: the runs cannot
    /// tell a change that size from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// B against baseline A. `bound` is the share of A's median by which B
/// may move before it counts.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if stats::relative_spread(a) > bound || stats::relative_spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = if ma == mb {
        0.0
    } else if ma == 0.0 {
        f64::INFINITY.copysign(mb - ma)
    } else {
        (mb - ma) / ma.abs()
    };
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(dir: &Path, w: Workload) -> Result<Option<Vec<Measured>>, String> {
    let path = dir.join(format!("{}.json", w.name()));
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    metrics::metrics_from_value(&json::parse(&text)?)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn summary(samples: &[f64]) -> String {
    let [q1, q2, q3] = stats::quartiles(samples);
    format!("{q2:>12.6} [{q1:.6}, {q3:.6}]")
}

pub fn main(a: &Path, b: &Path) -> Result<(), String> {
    println!(
        "{:<18} {:<28} {:<6} {:>40} {:>40} {:>9}  verdict",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    for w in Workload::ALL {
        let (Some(ma), Some(mb)) = (load(a, w)?, load(b, w)?) else {
            continue;
        };
        for def in metrics::CATALOGUE {
            let (Some(x), Some(y)) = (
                ma.iter().find(|m| m.name == def.name),
                mb.iter().find(|m| m.name == def.name),
            ) else {
                continue;
            };
            let (mx, my) = (stats::median(&x.samples), stats::median(&y.samples));
            let change = if mx == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.2}%", (my - mx) / mx.abs() * 100.0)
            };
            let v = def.bound.map_or("-", |bound| {
                verdict(&x.samples, &y.samples, def.better, bound).name()
            });
            println!(
                "{:<18} {:<28} {:<6} {:>40} {:>40} {:>9}  {v}",
                w.name(),
                def.name,
                def.unit,
                summary(&x.samples),
                summary(&y.samples),
                change
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_hand_made_runs() {
        let base = [10.0, 10.1, 9.9, 10.0];
        // 5 % slower: inside a 10 % bound.
        assert_eq!(
            verdict(&base, &[10.5, 10.5, 10.6, 10.4], Better::Lower, 0.10),
            Verdict::Within
        );
        assert_eq!(
            verdict(&base, &[12.0, 12.1, 11.9, 12.0], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &[8.0, 8.1, 7.9, 8.0], Better::Lower, 0.10),
            Verdict::Better
        );
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            verdict(&base, &[8.0, 8.1, 7.9, 8.0], Better::Higher, 0.10),
            Verdict::Worse
        );
        // Noisy side: the spread is wider than the bound.
        assert_eq!(
            verdict(&base, &[5.0, 15.0, 10.0, 12.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Zero bound: any increase is worse, equality is within.
        assert_eq!(verdict(&[0.0], &[0.0], Better::Lower, 0.0), Verdict::Within);
        assert_eq!(verdict(&[0.0], &[0.01], Better::Lower, 0.0), Verdict::Worse);
        assert_eq!(
            verdict(&[52.1], &[52.1], Better::Higher, 0.002),
            Verdict::Within
        );
    }
}
