//! What one run produces and how it is printed and written.
//!
//! A run prints every metric by name with its unit, sample count and the
//! operations attempted and failed, writes one JSON document with
//! provenance, and — for the driver — ends its standard output with one
//! JSON line holding exactly `correct`, `attempted`, `failed`, `metrics`.

use std::collections::BTreeMap;

use fvae_obs::JsonObj;

use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::spans::LayerTime;
use crate::stats::{segmented_quantile, Samples};

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Samples behind the value (`0` marks "not measured on this workload").
    pub samples: u64,
}

impl Metric {
    /// A metric value backed by `samples` samples.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// One correctness check made inside the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// The evidence.
    pub detail: String,
}

impl Check {
    /// A check result.
    pub fn new(name: &'static str, pass: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            pass,
            detail: detail.into(),
        }
    }
}

/// Where and how a number was produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub git_rev: String,
    /// Uncommitted changes (true when git cannot tell).
    pub dirty: bool,
    /// Hardware parallelism.
    pub nproc: usize,
    /// Active SIMD kernel backend.
    pub simd: &'static str,
    /// Effective parallelism of the global compute pool.
    pub pool_parallelism: usize,
}

impl Provenance {
    /// Reads the provenance of this process.
    pub fn capture() -> Self {
        Self {
            git_rev: fvae_obs::provenance::git_rev(),
            dirty: fvae_obs::provenance::git_dirty(),
            nproc: nproc(),
            simd: fvae_tensor::simd::active().name,
            pool_parallelism: fvae_pool::parallelism(),
        }
    }

    /// Writes the provenance fields into `o`.
    pub fn write_json(&self, o: &mut JsonObj) {
        o.str("git_rev", &self.git_rev)
            .bool("dirty", self.dirty)
            .usize("nproc", self.nproc)
            .str("simd_backend", self.simd)
            .usize("pool_parallelism", self.pool_parallelism);
    }
}

/// Hardware parallelism of this box, read once: a later read from a pinned
/// thread would see only the cores it is pinned to.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), `0.0` where
/// `/proc` is not available.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one workload run measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Named user-visible metrics (`train_users_per_s`, `embed_p50_us`, …,
    /// with p99 and max beside them). The end-to-end slots are filled from
    /// these through [`catalog::E2eSpec::carries`].
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Operations attempted (steps, events, requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness checks: a failure means the system's output was wrong.
    pub checks: Vec<Check>,
    /// Validity gates: a failure means the *measurement* is not to be
    /// trusted (the generator fell behind its schedule, a backlog ran out),
    /// usually because something else had the machine.
    pub gates: Vec<Check>,
    /// Per-layer span totals of a traced run.
    pub layer_times: BTreeMap<String, LayerTime>,
}

impl Outcome {
    /// Adds a named metric.
    pub fn name(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.named.push(Metric::new(name, unit, value, samples));
    }

    /// Adds the summary of latencies recorded in nanoseconds, given in the
    /// order they were measured: the exact median as `<prefix>_p50_us`, the
    /// burst-robust [`segmented_quantile`] at 90 % as `_p90_us` (these two
    /// are what the end-to-end slots carry), and beside them the exact
    /// `_p95_us`, `_p99_us`, `_max_us` and the highest percentile with at
    /// least ten samples beyond it as `_tail_us` at `_tail_pct`.
    pub fn latency(&mut self, prefix: &str, in_order_ns: &[u64]) {
        let n = in_order_ns.len() as u64;
        let us = |ns: u64| ns as f64 / 1e3;
        let mut all = Samples::from_values(in_order_ns.to_vec());
        self.name(&format!("{prefix}_p50_us"), "us", us(all.median()), n);
        self.name(
            &format!("{prefix}_p90_us"),
            "us",
            segmented_quantile(in_order_ns, 0.9) / 1e3,
            n,
        );
        self.name(&format!("{prefix}_p95_us"), "us", us(all.quantile(0.95)), n);
        self.name(&format!("{prefix}_p99_us"), "us", us(all.quantile(0.99)), n);
        self.name(&format!("{prefix}_max_us"), "us", us(all.max()), n);
        if let Some((p, v)) = all.tail() {
            self.name(&format!("{prefix}_tail_us"), "us", us(v), n);
            self.name(&format!("{prefix}_tail_pct"), "%", p * 100.0, n);
        }
    }

    /// Adds a per-layer metric; the unit comes from the catalogue.
    pub fn layer(&mut self, name: &str, value: f64, samples: u64) {
        let spec = catalog::layer_spec(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalogue"));
        self.layers
            .push(Metric::new(name, spec.unit, value, samples));
    }

    /// Adds a correctness check.
    pub fn check(&mut self, name: &'static str, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, pass, detail));
    }

    /// Adds a validity gate.
    pub fn gate(&mut self, name: &'static str, pass: bool, detail: impl Into<String>) {
        self.gates.push(Check::new(name, pass, detail));
    }

    /// True when every validity gate held.
    pub fn valid(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    /// Value of a named metric.
    pub fn named_value(&self, name: &str) -> Option<&Metric> {
        self.named.iter().find(|m| m.name == name)
    }

    /// True when every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.pass)
    }

    /// The end-to-end metrics of `workload`, each carrying the named metric
    /// the catalogue assigns to that slot. An error names the first metric
    /// the run failed to measure, with the checks that explain why.
    pub fn end_to_end(&self, workload: &str) -> Result<Vec<Metric>, String> {
        let w = catalog::workload_index(workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?;
        END_TO_END
            .iter()
            .map(|spec| {
                let src = self.named_value(spec.carries[w]).ok_or_else(|| {
                    let failed: Vec<String> = self
                        .checks
                        .iter()
                        .filter(|c| !c.pass)
                        .map(|c| format!("{}: {}", c.name, c.detail))
                        .collect();
                    format!(
                        "{workload} did not measure {} ({})",
                        spec.carries[w],
                        failed.join("; ")
                    )
                })?;
                Ok(Metric::new(spec.name, spec.unit, src.value, src.samples))
            })
            .collect()
    }

    /// Every catalogue per-layer metric, in catalogue order; the ones this
    /// run did not measure are `0` with no samples.
    pub fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|spec| {
                self.layers
                    .iter()
                    .find(|m| m.name == spec.name)
                    .cloned()
                    .unwrap_or_else(|| Metric::new(spec.name, spec.unit, 0.0, 0))
            })
            .collect()
    }
}

/// The identity of one run.
#[derive(Clone, Debug)]
pub struct RunId {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time asked for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub traced: bool,
}

fn metrics_obj(o: &mut JsonObj, key: &str, metrics: &[Metric], with_samples: bool) {
    o.obj(key, |m| {
        for metric in metrics {
            m.obj(&metric.name, |v| {
                v.f64("value", metric.value).str("unit", metric.unit);
                if with_samples {
                    v.u64("samples", metric.samples);
                }
            });
        }
    });
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics` (end-to-end metrics untraced, per-layer metrics traced).
pub fn contract_line(id: &RunId, out: &Outcome) -> Result<String, String> {
    let metrics = if id.traced {
        out.per_layer()
    } else {
        out.end_to_end(&id.workload)?
    };
    let mut o = JsonObj::new();
    o.bool("correct", out.correct())
        .u64("attempted", out.attempted.max(1))
        .u64("failed", out.failed);
    metrics_obj(&mut o, "metrics", &metrics, false);
    Ok(o.finish())
}

/// The JSON document of one run. End-to-end metrics come from untraced
/// runs only; a traced run carries the per-layer metrics instead.
pub fn run_json(id: &RunId, prov: &Provenance, out: &Outcome) -> Result<String, String> {
    let mut o = JsonObj::new();
    o.u64("ladder", 1);
    o.obj("provenance", |p| {
        prov.write_json(p);
        p.u64("seed", id.seed);
    });
    o.str("workload", &id.workload)
        .u64("seed", id.seed)
        .f64("seconds", id.seconds)
        .bool("traced", id.traced);
    o.bool("correct", out.correct()).bool("valid", out.valid());
    o.u64("ops_attempted", out.attempted)
        .u64("ops_failed", out.failed);
    let render = |list: &[Check]| -> Vec<String> {
        list.iter()
            .map(|c| {
                let mut j = JsonObj::new();
                j.str("name", c.name)
                    .bool("pass", c.pass)
                    .str("detail", &c.detail);
                j.finish()
            })
            .collect()
    };
    o.raw_arr("checks", &render(&out.checks));
    o.raw_arr("gates", &render(&out.gates));
    if !id.traced {
        metrics_obj(&mut o, "end_to_end", &out.end_to_end(&id.workload)?, true);
    }
    metrics_obj(&mut o, "named", &out.named, true);
    if id.traced {
        metrics_obj(&mut o, "per_layer", &out.per_layer(), true);
        o.obj("layer_self_time", |l| {
            for (name, t) in &out.layer_times {
                l.obj(name, |v| {
                    v.u64("count", t.count)
                        .u64("total_ns", t.total_ns)
                        .u64("self_ns", t.self_ns);
                });
            }
        });
    }
    Ok(o.finish())
}

/// The table a person reads: every metric by name with unit, sample count
/// and the operations attempted and failed.
pub fn render_table(id: &RunId, prov: &Provenance, out: &Outcome) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "ladder {} seed {} seconds {} {}  rev {}{} nproc {} simd {} pool {}",
        id.workload,
        id.seed,
        id.seconds,
        if id.traced { "traced" } else { "untraced" },
        &prov.git_rev[..prov.git_rev.len().min(12)],
        if prov.dirty { "+dirty" } else { "" },
        prov.nproc,
        prov.simd,
        prov.pool_parallelism
    );
    let _ = writeln!(s, "ops attempted {} failed {}", out.attempted, out.failed);
    let row = |s: &mut String, kind: &str, m: &Metric| {
        let _ = writeln!(
            s,
            "  {kind:<10} {:<44} {:>16.4} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    };
    if !id.traced {
        for m in out.end_to_end(&id.workload).unwrap_or_default() {
            row(&mut s, "end_to_end", &m);
        }
    }
    for m in &out.named {
        row(&mut s, "named", m);
    }
    if id.traced {
        for m in out.per_layer() {
            row(&mut s, "per_layer", &m);
        }
        let _ = writeln!(s, "  layer self time (spans):");
        for (name, t) in &out.layer_times {
            let _ = writeln!(
                s,
                "    {name:<40} n={:<8} total {:>12.3} ms  self {:>12.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for (kind, list, bad) in [
        ("check", &out.checks, "FAIL   "),
        ("gate ", &out.gates, "INVALID"),
    ] {
        for c in list {
            let _ = writeln!(
                s,
                "  {kind} {:<32} {}  {}",
                c.name,
                if c.pass { "ok     " } else { bad },
                c.detail
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for name in [
            "setup_s",
            "peak_rss_mb",
            "closed_qps",
            "embed_p50_us",
            "embed_p90_us",
            "closed_rtt_p50_us",
        ] {
            out.name(name, "x", 1.5, 3);
        }
        out.layer("serve.cache.hit_ratio", 0.99, 100);
        out
    }

    fn id(traced: bool) -> RunId {
        RunId {
            workload: catalog::SERVE_HOT.into(),
            seed: 3,
            seconds: 2.0,
            traced,
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_the_right_metric_set() {
        let out = outcome();
        for traced in [false, true] {
            let line = contract_line(&id(traced), &out).expect("every metric measured");
            let v = fvae_obs::json::parse(&line).expect("json");
            let fvae_obs::Value::Obj(fields) = &v else {
                panic!("object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let fvae_obs::Value::Obj(metrics) = v.get("metrics").expect("metrics") else {
                panic!()
            };
            let want: Vec<&str> = if traced {
                PER_LAYER.iter().map(|l| l.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(
                metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                want
            );
            for (_, m) in metrics {
                assert!(m.get("value").and_then(|x| x.as_f64()).is_some());
                assert!(m.get("unit").and_then(|x| x.as_str()).is_some());
            }
        }
    }

    #[test]
    fn a_failed_op_or_check_makes_the_run_incorrect() {
        let mut out = outcome();
        assert!(out.correct());
        out.check("bit_identical", false, "row 3 differs");
        assert!(!out.correct());
        let mut out = outcome();
        out.failed = 1;
        assert!(!out.correct());
    }

    #[test]
    fn document_and_table_name_every_metric() {
        let out = outcome();
        let prov = Provenance {
            git_rev: "abc".into(),
            dirty: true,
            nproc: 2,
            simd: "scalar",
            pool_parallelism: 2,
        };
        let doc =
            fvae_obs::json::parse(&run_json(&id(true), &prov, &out).expect("doc")).expect("json");
        assert_eq!(
            doc.get("provenance")
                .and_then(|p| p.get("seed"))
                .and_then(|s| s.as_u64()),
            Some(3)
        );
        assert!(doc
            .get("per_layer")
            .and_then(|p| p.get("trace.overhead_share"))
            .is_some());
        assert!(
            doc.get("end_to_end").is_none(),
            "end-to-end metrics come from the untraced run"
        );
        let doc =
            fvae_obs::json::parse(&run_json(&id(false), &prov, &out).expect("doc")).expect("json");
        assert_eq!(
            doc.get("end_to_end")
                .and_then(|e| e.get("throughput_per_s"))
                .and_then(|m| m.get("samples"))
                .and_then(|s| s.as_u64()),
            Some(3)
        );
        let (traced, untraced) = (
            render_table(&id(true), &prov, &out),
            render_table(&id(false), &prov, &out),
        );
        for name in PER_LAYER.iter().map(|l| l.name) {
            assert!(
                traced.contains(name),
                "{name} missing from the traced table"
            );
        }
        for name in END_TO_END.iter().map(|m| m.name) {
            assert!(
                untraced.contains(name),
                "{name} missing from the untraced table"
            );
        }
        let unmeasured = Outcome::default();
        assert!(
            contract_line(&id(false), &unmeasured).is_err(),
            "no result without the metrics"
        );
        assert!(peak_rss_mib() >= 0.0 && nproc() >= 1);
    }
}
