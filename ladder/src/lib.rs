//! # ladder — one benchmark for train, stream and serve
//!
//! `ladder run --workload W --seed S --seconds N --trace 0|1` runs one of
//! five workloads in a fresh process and drives the system only through its
//! public library API (`Fvae::train_single_batch`, `Publisher`,
//! `Server::start`, `Router::start`, `Client`, …), over loopback TCP where
//! there is a server. Load comes from at most `nproc` threads.
//!
//! An untraced run reports the end-to-end metrics; a traced run re-runs the
//! workload under the benchmark's own spans and reports the per-layer
//! metrics, the share of time no layer accounts for and what the tracing
//! cost. [`catalog`] names every workload and metric; `README.md` explains
//! why each was chosen and how they interact.

pub mod affinity;
pub mod catalog;
pub mod compare;
pub mod gen;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod stream;
pub mod train;

use std::path::PathBuf;

use report::{Outcome, RunId};

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Workload, seed, seconds, traced.
    pub id: RunId,
    /// Smoke pass: seconds-long phases, one set-up, small micro budgets.
    pub smoke: bool,
    /// Scratch directory for logs, snapshots and stores; removed afterwards.
    pub work_dir: PathBuf,
    /// How many times the workload is set up; `setup_s` is the median.
    pub setup_reps: usize,
    /// Where a traced run writes its spans, if anywhere.
    pub spans_out: Option<PathBuf>,
}

impl RunCfg {
    /// Writes the traced run's spans out, at most 50 000 per lane.
    pub fn write_spans(&self, lanes: &[&[spans::Span]]) {
        if let Some(path) = &self.spans_out {
            if let Err(e) = spans::write_jsonl(path, lanes, 50_000) {
                eprintln!("ladder: could not write spans to {}: {e}", path.display());
            }
        }
    }
}

/// Runs the workload `cfg.id.workload` and returns what it measured.
/// `peak_rss_mb` is read last, so it covers set-up, run and checks.
pub fn run_workload(cfg: &RunCfg) -> Result<Outcome, String> {
    fvae_pool::set_parallelism(report::nproc());
    let mut out = match cfg.id.workload.as_str() {
        catalog::TRAIN_SPARSE => train::run_sparse(cfg),
        catalog::TRAIN_DENSE => train::run_dense(cfg),
        catalog::STREAM_PUBLISH => stream::run(cfg),
        catalog::SERVE_HOT => serve::run_hot(cfg),
        catalog::FLEET_COLD => serve::run_cold(cfg),
        other => return Err(format!("unknown workload '{other}'")),
    };
    out.name("peak_rss_mb", "MiB", report::peak_rss_mib(), 1);
    Ok(out)
}
