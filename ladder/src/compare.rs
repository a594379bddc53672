//! `ladder compare A.json B.json`: is B worse than A?
//!
//! One row per (end-to-end metric, workload), judged by the bounds in
//! `BENCHMARK.json`:
//!
//! * `unresolved` — the run-to-run spread (distance between the quartiles
//!   as a share of the median, the larger of the two sides) exceeds the
//!   bound, or a side has fewer than two runs, so the spread is unknown;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `same` — otherwise.
//!
//! Each file is a document written by `ladder run`: one run, or a set of
//! runs under `"runs"`. Only untraced runs carry end-to-end metrics.

use std::collections::BTreeMap;

use fvae_obs::Value;

use crate::catalog::{workload_index, Better, END_TO_END, WORKLOADS};
use crate::stats::{median_f64, quartiles};

/// Verdict on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is small enough to say so.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The spread exceeds the bound, or is unknown.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's bound and direction, as `BENCHMARK.json` states them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Direction of improvement.
    pub better: Better,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Reads the end-to-end bounds out of a parsed `BENCHMARK.json`.
pub fn bounds_from(doc: &Value) -> Result<BTreeMap<String, Bound>, String> {
    let Some(Value::Arr(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let mut out = BTreeMap::new();
    for item in items {
        let name = item
            .get("name")
            .and_then(Value::as_str)
            .ok_or("end_to_end entry without a name")?;
        let bound = item
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name}: no bound"))?;
        let better = match item.get("better").and_then(Value::as_str) {
            Some("higher") => Better::Higher,
            Some("lower") => Better::Lower,
            other => return Err(format!("{name}: better is {other:?}")),
        };
        out.insert(name.to_string(), Bound { better, bound });
    }
    Ok(out)
}

/// `(workload, metric) → values`, one per untraced run in the document.
pub type RunValues = BTreeMap<(String, String), Vec<f64>>;

/// Collects the end-to-end values of every untraced run in `doc`.
pub fn values_from(doc: &Value) -> Result<RunValues, String> {
    let runs: Vec<&Value> = match doc.get("runs") {
        Some(Value::Arr(runs)) => runs.iter().collect(),
        Some(_) => return Err("\"runs\" is not a list".into()),
        None => vec![doc],
    };
    let mut out = RunValues::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without a workload")?;
        let Some(Value::Obj(metrics)) = run.get("end_to_end") else {
            continue; // a traced run
        };
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{workload}/{name}: no value"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(out)
}

/// Quartile distance over the median; `None` with fewer than two values.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let median = median_f64(values).abs();
    Some(if median > 0.0 {
        (q3 - q1) / median
    } else {
        f64::INFINITY
    })
}

/// One judged row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// End-to-end metric.
    pub metric: String,
    /// Workload.
    pub workload: String,
    /// Medians of A and B.
    pub medians: (f64, f64),
    /// Runs on each side.
    pub runs: (usize, usize),
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    /// Larger of the two sides' spreads, when both are known.
    pub spread: Option<f64>,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one pair of value lists.
pub fn judge(a: &[f64], b: &[f64], bound: Bound) -> (f64, Option<f64>, Verdict) {
    let (ma, mb) = (median_f64(a), median_f64(b));
    let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worse_by = match bound.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = spread(a).zip(spread(b)).map(|(x, y)| x.max(y));
    let verdict = match spread {
        Some(s) if s <= bound.bound => {
            if worse_by > bound.bound {
                Verdict::Worse
            } else {
                Verdict::Same
            }
        }
        _ => Verdict::Unresolved,
    };
    (worse_by, spread, verdict)
}

/// Judges every (metric, workload) pair present on either side, in
/// catalogue order.
pub fn compare(a: &RunValues, b: &RunValues, bounds: &BTreeMap<String, Bound>) -> Vec<Row> {
    let mut keys: Vec<&(String, String)> = a.keys().chain(b.keys()).collect();
    keys.sort_by_key(|(w, m)| {
        (
            workload_index(w).unwrap_or(usize::MAX),
            END_TO_END
                .iter()
                .position(|e| e.name == m)
                .unwrap_or(usize::MAX),
        )
    });
    keys.dedup();
    let empty = Vec::new();
    keys.into_iter()
        .filter_map(|key| {
            let bound = *bounds.get(&key.1)?;
            let (va, vb) = (a.get(key).unwrap_or(&empty), b.get(key).unwrap_or(&empty));
            let (worse_by, spread, verdict) = judge(va, vb, bound);
            Some(Row {
                metric: key.1.clone(),
                workload: key.0.clone(),
                medians: (median_f64(va), median_f64(vb)),
                runs: (va.len(), vb.len()),
                worse_by,
                spread,
                bound: bound.bound,
                verdict,
            })
        })
        .collect()
}

/// The table `ladder compare` prints.
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<16} {:<18} {:<20} {:>14} {:>14} {:>9} {:>9} {:>7} {:>5}  verdict",
        "workload",
        "metric",
        "carries",
        "A median",
        "B median",
        "worse by",
        "spread",
        "bound",
        "runs"
    );
    for r in rows {
        let carries = workload_index(&r.workload)
            .and_then(|w| {
                END_TO_END
                    .iter()
                    .find(|e| e.name == r.metric)
                    .map(|e| e.carries[w])
            })
            .unwrap_or("");
        let spread = r
            .spread
            .map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0));
        let _ = writeln!(
            s,
            "{:<16} {:<18} {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>9} {:>6.1}% {:>2}/{:<2}  {}",
            r.workload,
            r.metric,
            carries,
            r.medians.0,
            r.medians.1,
            r.worse_by * 100.0,
            spread,
            r.bound * 100.0,
            r.runs.0,
            r.runs.1,
            r.verdict.as_str()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let _ = writeln!(
        s,
        "{} rows over {} workloads: {} same, {} worse, {} unresolved",
        rows.len(),
        WORKLOADS.len(),
        count(Verdict::Same),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: Bound = Bound {
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&steady, &steady, LOWER).2, Verdict::Same);
        assert_eq!(judge(&steady, &slower, LOWER).2, Verdict::Worse);
        assert_eq!(
            judge(&steady, &faster, LOWER).2,
            Verdict::Same,
            "better is not worse"
        );
        assert_eq!(judge(&steady, &faster, HIGHER).2, Verdict::Worse);
        assert_eq!(judge(&steady, &slower, HIGHER).2, Verdict::Same);
        let (worse_by, spread, _) = judge(&steady, &slower, LOWER);
        assert!((worse_by - 0.2).abs() < 1e-9);
        assert!(spread.expect("five runs a side") < 0.02);

        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            judge(&noisy, &slower, LOWER).2,
            Verdict::Unresolved,
            "spread beyond the bound"
        );
        assert_eq!(
            judge(&[100.0], &[150.0], LOWER).2,
            Verdict::Unresolved,
            "one run has no spread"
        );
        assert_eq!(judge(&steady, &[], LOWER).2, Verdict::Unresolved);
    }

    #[test]
    fn documents_are_read_whether_one_run_or_many() {
        let one = r#"{"ladder":1,"workload":"serve_hot","end_to_end":{"setup_s":{"value":1.5,"unit":"s","samples":3}}}"#;
        let many = format!(
            r#"{{"ladder":1,"runs":[{one},{one},{{"workload":"serve_hot","traced":true,"per_layer":{{}}}}]}}"#
        );
        let key = ("serve_hot".to_string(), "setup_s".to_string());
        assert_eq!(
            values_from(&fvae_obs::parse(one).expect("json")).expect("values")[&key],
            vec![1.5]
        );
        assert_eq!(
            values_from(&fvae_obs::parse(&many).expect("json")).expect("values")[&key],
            vec![1.5, 1.5]
        );
    }

    #[test]
    fn rows_use_the_benchmark_bounds_and_render() {
        let bench = fvae_obs::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
                {"name":"throughput_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .expect("json");
        let bounds = bounds_from(&bench).expect("bounds");
        assert_eq!(
            bounds["throughput_per_s"],
            Bound {
                better: Better::Higher,
                bound: 0.1
            }
        );
        let vals = |setup: f64, tp: f64| {
            let mut v = RunValues::new();
            v.insert(
                ("train_dense".into(), "setup_s".into()),
                vec![setup, setup * 1.01, setup * 0.99],
            );
            v.insert(
                ("train_dense".into(), "throughput_per_s".into()),
                vec![tp, tp * 1.01, tp * 0.99],
            );
            v.insert(
                ("train_dense".into(), "not_in_benchmark".into()),
                vec![1.0, 1.0],
            );
            v
        };
        let rows = compare(&vals(1.0, 1000.0), &vals(1.2, 800.0), &bounds);
        assert_eq!(rows.len(), 2, "metrics without a bound are skipped");
        assert_eq!(
            (rows[0].metric.as_str(), rows[0].verdict),
            ("setup_s", Verdict::Same)
        );
        assert_eq!(
            (rows[1].metric.as_str(), rows[1].verdict),
            ("throughput_per_s", Verdict::Worse)
        );
        let table = render(&rows);
        assert!(
            table.contains("train_users_per_s") && table.contains("1 worse"),
            "{table}"
        );
    }
}
