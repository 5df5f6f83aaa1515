//! `compare a.json b.json`: apply each end-to-end metric's bound from
//! `BENCHMARK.json` to two ledgers, workload by workload.
//!
//! * `ok` — b's median is no worse than a's by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — either ledger's own run-to-run spread (IQR of its
//!   repetitions ÷ their median) exceeds the bound, so the comparison
//!   cannot tell a regression from noise. Not the same as "unchanged".

use std::path::Path;

use crate::bind::{parse_json, JsonValue};
use crate::metrics::END_TO_END;
use crate::stats::{iqr_share, median};

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

pub fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> (Verdict, f64, f64) {
    let change = worsening(median(a), median(b), better);
    let spread = iqr_share(a).max(iqr_share(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, change, spread)
}

fn reps(doc: &JsonValue, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let m = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .ok_or_else(|| format!("{workload}/{metric} missing"))?;
    match m.get("reps") {
        Some(JsonValue::Arr(v)) if !v.is_empty() => v
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| format!("{workload}/{metric}: non-numeric rep"))
            })
            .collect(),
        _ => Err(format!("{workload}/{metric} has no reps")),
    }
}

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints one row per workload × metric. Exit code 1 if any is `worse`.
pub fn run(a: &Path, b: &Path) -> Result<i32, String> {
    let (da, db) = (load(a)?, load(b)?);
    let names: Vec<String> = match da.get("workloads") {
        Some(JsonValue::Obj(ws)) => ws.iter().map(|(k, _)| k.clone()).collect(),
        _ => return Err(format!("{}: no workloads", a.display())),
    };
    println!(
        "{:<15} {:<16} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "spread", "bound"
    );
    let mut worse = 0;
    for w in &names {
        for (d, bound) in &END_TO_END {
            let (ra, rb) = (reps(&da, w, d.name)?, reps(&db, w, d.name)?);
            let (verdict, change, spread) = judge(&ra, &rb, d.better, *bound);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<15} {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.0}%  {}",
                w,
                d.name,
                median(&ra),
                median(&rb),
                change * 100.0,
                spread * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(i32::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // tokens/s fell 20 % against a 10 % bound.
        assert_eq!(
            judge(&[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0], "higher", 0.10).0,
            Verdict::Worse
        );
        // ... and rose: better is never worse.
        assert_eq!(
            judge(
                &[100.0, 101.0, 99.0],
                &[120.0, 121.0, 119.0],
                "higher",
                0.10
            )
            .0,
            Verdict::Ok
        );
        // step time rose 4 % against a 10 % bound.
        assert_eq!(
            judge(&[50.0, 50.5, 49.5], &[52.0, 52.2, 51.8], "lower", 0.10).0,
            Verdict::Ok
        );
        // One side's own repetitions spread wider than the bound.
        assert_eq!(
            judge(&[100.0, 130.0, 90.0], &[80.0, 81.0, 79.0], "higher", 0.10).0,
            Verdict::Unresolved
        );
        // Exact counts: identical is ok, any growth beyond 1 % is worse.
        assert_eq!(
            judge(&[4096.0; 3], &[4096.0; 3], "lower", 0.01).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&[4096.0; 3], &[8192.0; 3], "lower", 0.01).0,
            Verdict::Worse
        );
    }
}
