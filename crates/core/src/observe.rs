//! Structured training observability: per-phase timelines, a
//! [`TrainObserver`] hook that replaces the bare epoch callback, and
//! [`TelemetrySink`] — the batteries-included observer that fans a run out
//! to a metric registry, a JSONL run log, and stderr heartbeat lines.
//!
//! The trainer itself only ever pays for a handful of `Instant::now()` calls
//! per step (the [`PhaseNs`] stopwatch); everything heavier — JSON encoding,
//! file writes, ETA math — happens inside whichever observer the caller
//! installed, so `train_epochs` without telemetry is exactly as fast as
//! before.

use std::io::Write as _;
use std::time::Instant;

use fvae_nn::WorkspaceStats;
use fvae_obs::{Counter, Gauge, Histogram, JsonObj, JsonlSink, Registry};

use crate::train::{EpochStats, StepStats};

// ---------------------------------------------------------------------------
// Phase timeline
// ---------------------------------------------------------------------------

/// Nanoseconds spent in each phase of one training step (Algorithm 1's
/// line-by-line cost breakdown).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNs {
    /// Building the sparse batch input (feature gather + dropout masks).
    pub batch_assembly: u64,
    /// Encoder forward: embedding bags → hidden → (μ, log σ²) → z.
    pub encoder_fwd: u64,
    /// Decoder trunk forward.
    pub decoder_fwd: u64,
    /// Per-field batched/sampled softmax: candidate building, head forward,
    /// multinomial loss, and head backward.
    pub sampled_softmax: u64,
    /// KL term and the backward sweep (trunk → encoder → bags) + clipping.
    pub backward: u64,
    /// Adam updates over every parameter group.
    pub optimizer: u64,
}

impl PhaseNs {
    /// Phase names, in execution order (used for metric names and JSON keys).
    pub const NAMES: [&'static str; 6] = [
        "batch_assembly",
        "encoder_fwd",
        "decoder_fwd",
        "sampled_softmax",
        "backward",
        "optimizer",
    ];

    /// The phases as `(name, ns)` pairs, in execution order.
    pub fn entries(&self) -> [(&'static str, u64); 6] {
        [
            ("batch_assembly", self.batch_assembly),
            ("encoder_fwd", self.encoder_fwd),
            ("decoder_fwd", self.decoder_fwd),
            ("sampled_softmax", self.sampled_softmax),
            ("backward", self.backward),
            ("optimizer", self.optimizer),
        ]
    }

    /// Total instrumented nanoseconds of the step.
    pub fn total(&self) -> u64 {
        self.entries().iter().map(|&(_, ns)| ns).sum()
    }

    /// Writes the phases as a nested JSON object field.
    pub fn write_json(&self, parent: &mut JsonObj, key: &str) {
        parent.obj(key, |o| {
            for (name, ns) in self.entries() {
                o.u64(name, ns);
            }
        });
    }
}

/// Everything an observer sees after one optimizer step.
#[derive(Clone, Copy, Debug)]
pub struct StepCtx<'a> {
    /// Epoch index (global across `train_until_checkpointed` bursts).
    pub epoch: usize,
    /// Step index within the epoch.
    pub step: usize,
    /// Steps taken across all epochs of this run.
    pub global_step: u64,
    /// Loss breakdown of the step.
    pub stats: &'a StepStats,
    /// Per-phase wall time.
    pub phases: &'a PhaseNs,
    /// Scratch-arena counters after the step.
    pub scratch: WorkspaceStats,
}

/// Structured training hook: the trainer calls [`TrainObserver::on_step`]
/// after every optimizer step and [`TrainObserver::on_epoch`] after every
/// epoch. Both default to no-ops, so observers implement only what they use.
pub trait TrainObserver {
    /// Called after each optimizer step.
    fn on_step(&mut self, _ctx: &StepCtx) {}
    /// Called after each epoch with the aggregated statistics.
    fn on_epoch(&mut self, _epoch: usize, _stats: &EpochStats) {}
}

/// The do-nothing observer (what plain `train_epochs` uses internally).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl TrainObserver for NullObserver {}

/// Adapts a bare epoch closure to the observer interface, preserving the
/// pre-observability `train_epochs` callback API.
pub struct EpochCallback<F>(pub F);

impl<F: FnMut(usize, &EpochStats)> TrainObserver for EpochCallback<F> {
    fn on_epoch(&mut self, epoch: usize, stats: &EpochStats) {
        (self.0)(epoch, stats);
    }
}

// ---------------------------------------------------------------------------
// TelemetrySink
// ---------------------------------------------------------------------------

/// Pre-resolved registry handles + exporters for a training run.
///
/// Per step it records the phase/step histograms, counters, and scratch
/// gauges (allocation-free, per `fvae-obs`'s contract) and optionally
/// appends one JSONL record; per epoch it appends an epoch record, flushes
/// the log, and prints a heartbeat line to stderr with a users/s figure and
/// an ETA extrapolated from the epochs completed so far.
pub struct TelemetrySink {
    registry: Registry,
    steps_total: Counter,
    users_total: Counter,
    step_ns: Histogram,
    phase_ns: [Histogram; 6],
    epoch_gauge: Gauge,
    beta_gauge: Gauge,
    elbo_gauge: Gauge,
    users_per_sec_gauge: Gauge,
    scratch_allocs_gauge: Gauge,
    scratch_takes_gauge: Gauge,
    scratch_recycles_gauge: Gauge,
    scratch_pooled_gauge: Gauge,
    pool_parallelism_gauge: Gauge,
    pool_parallel_jobs_gauge: Gauge,
    pool_serial_jobs_gauge: Gauge,
    pool_shards_gauge: Gauge,
    jsonl: Option<JsonlSink>,
    heartbeat: bool,
    step_lines: bool,
    total_epochs: usize,
    epochs_done: usize,
    epoch_wall_secs: f64,
    run_start: Instant,
}

impl TelemetrySink {
    /// Creates a sink over a fresh registry. `total_epochs` feeds the
    /// heartbeat's ETA (pass the planned epoch count; 0 disables ETA).
    pub fn new(total_epochs: usize) -> Self {
        Self::with_registry(Registry::new(), total_epochs)
    }

    /// Creates a sink recording into an existing registry.
    pub fn with_registry(registry: Registry, total_epochs: usize) -> Self {
        let phase_ns = PhaseNs::NAMES
            .map(|name| registry.histogram(&format!("fvae_core_phase_{name}_ns")));
        Self {
            steps_total: registry.counter("fvae_core_steps_total"),
            users_total: registry.counter("fvae_core_users_total"),
            step_ns: registry.histogram("fvae_core_step_ns"),
            phase_ns,
            epoch_gauge: registry.gauge("fvae_core_epoch"),
            beta_gauge: registry.gauge("fvae_core_beta"),
            elbo_gauge: registry.gauge("fvae_core_elbo"),
            users_per_sec_gauge: registry.gauge("fvae_core_users_per_sec"),
            scratch_allocs_gauge: registry.gauge("fvae_nn_scratch_allocs"),
            scratch_takes_gauge: registry.gauge("fvae_nn_scratch_takes"),
            scratch_recycles_gauge: registry.gauge("fvae_nn_scratch_recycles"),
            scratch_pooled_gauge: registry.gauge("fvae_nn_scratch_pooled"),
            pool_parallelism_gauge: registry.gauge("fvae_pool_parallelism"),
            pool_parallel_jobs_gauge: registry.gauge("fvae_pool_parallel_jobs_total"),
            pool_serial_jobs_gauge: registry.gauge("fvae_pool_serial_jobs_total"),
            pool_shards_gauge: registry.gauge("fvae_pool_shards_total"),
            registry,
            jsonl: None,
            heartbeat: false,
            step_lines: false,
            total_epochs,
            epochs_done: 0,
            epoch_wall_secs: 0.0,
            run_start: Instant::now(),
        }
    }

    /// Attaches an append-only JSONL run log at `path` (one record per step
    /// and per epoch).
    pub fn with_jsonl(mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        self.jsonl = Some(JsonlSink::create(path)?);
        Ok(self)
    }

    /// Enables per-epoch heartbeat lines on stderr.
    pub fn with_heartbeat(mut self, on: bool) -> Self {
        self.heartbeat = on;
        self
    }

    /// Enables per-step progress lines on stderr (verbose).
    pub fn with_step_lines(mut self, on: bool) -> Self {
        self.step_lines = on;
        self
    }

    /// The registry this sink records into (for rendering a Prometheus
    /// snapshot after the run).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// JSONL records written so far (0 without a log).
    pub fn jsonl_lines(&self) -> u64 {
        self.jsonl.as_ref().map_or(0, JsonlSink::lines)
    }

    /// Flushes the JSONL log (also happens per epoch and on drop).
    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.jsonl {
            let _ = sink.flush();
        }
    }

    fn eta_secs(&self) -> Option<f64> {
        if self.epochs_done == 0 || self.total_epochs <= self.epochs_done {
            return None;
        }
        let per_epoch = self.epoch_wall_secs / self.epochs_done as f64;
        Some(per_epoch * (self.total_epochs - self.epochs_done) as f64)
    }
}

fn format_eta(secs: f64) -> String {
    let s = secs.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

impl TrainObserver for TelemetrySink {
    fn on_step(&mut self, ctx: &StepCtx) {
        self.steps_total.inc();
        self.users_total.add(ctx.stats.batch_size as u64);
        self.step_ns.record(ctx.stats.wall_ns);
        for (hist, (_, ns)) in self.phase_ns.iter().zip(ctx.phases.entries()) {
            hist.record(ns);
        }
        self.beta_gauge.set(ctx.stats.beta as f64);
        self.users_per_sec_gauge.set(ctx.stats.users_per_sec as f64);
        self.scratch_allocs_gauge.set(ctx.scratch.allocs as f64);
        self.scratch_takes_gauge.set(ctx.scratch.takes as f64);
        self.scratch_recycles_gauge.set(ctx.scratch.recycles as f64);
        self.scratch_pooled_gauge.set(ctx.scratch.pooled as f64);
        let pool = fvae_pool::stats();
        self.pool_parallelism_gauge.set(pool.parallelism as f64);
        self.pool_parallel_jobs_gauge.set(pool.parallel_jobs as f64);
        self.pool_serial_jobs_gauge.set(pool.serial_jobs as f64);
        self.pool_shards_gauge.set(pool.shards as f64);
        if let Some(sink) = &mut self.jsonl {
            let mut o = JsonObj::new();
            o.str("type", "step")
                .usize("epoch", ctx.epoch)
                .usize("step", ctx.step)
                .u64("global_step", ctx.global_step);
            ctx.stats.write_json(&mut o);
            ctx.phases.write_json(&mut o, "phase_ns");
            o.u64("scratch_allocs", ctx.scratch.allocs)
                .u64("scratch_takes", ctx.scratch.takes)
                .usize("scratch_pooled", ctx.scratch.pooled)
                .usize("pool_parallelism", pool.parallelism)
                .u64("pool_parallel_jobs", pool.parallel_jobs)
                .u64("pool_serial_jobs", pool.serial_jobs);
            let _ = sink.write_record(&o.finish());
        }
        if self.step_lines {
            eprintln!(
                "[fvae] epoch {} step {:>4}  loss {:>9.4}  recon {:>9.4}  kl {:>7.4}  \
                 beta {:.3}  {:>7.0} users/s",
                ctx.epoch,
                ctx.step,
                ctx.stats.loss(),
                ctx.stats.recon,
                ctx.stats.kl,
                ctx.stats.beta,
                ctx.stats.users_per_sec,
            );
        }
    }

    fn on_epoch(&mut self, epoch: usize, stats: &EpochStats) {
        self.epochs_done += 1;
        self.epoch_wall_secs += stats.wall_secs;
        self.epoch_gauge.set(epoch as f64);
        self.elbo_gauge.set(stats.elbo() as f64);
        if let Some(sink) = &mut self.jsonl {
            let mut o = JsonObj::new();
            o.str("type", "epoch").usize("epoch", epoch);
            stats.write_json(&mut o);
            o.f64("wall_total_secs", self.run_start.elapsed().as_secs_f64());
            let _ = sink.write_record(&o.finish());
            let _ = sink.flush();
        }
        if self.heartbeat {
            let eta = match self.eta_secs() {
                Some(secs) => format!("  eta {}", format_eta(secs)),
                None => String::new(),
            };
            let mut err = std::io::stderr().lock();
            let _ = writeln!(
                err,
                "[fvae] epoch {}/{}  elbo {:.4}  recon {:.4}  kl {:.4}  beta {:.2}  \
                 {:.0} users/s{eta}",
                epoch + 1,
                self.total_epochs.max(epoch + 1),
                stats.elbo(),
                stats.recon,
                stats.kl,
                stats.beta,
                stats.users_per_sec,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_entries_match_names_and_sum() {
        let phases = PhaseNs {
            batch_assembly: 1,
            encoder_fwd: 2,
            decoder_fwd: 3,
            sampled_softmax: 4,
            backward: 5,
            optimizer: 6,
        };
        assert_eq!(phases.total(), 21);
        for ((name, _), expect) in phases.entries().iter().zip(PhaseNs::NAMES) {
            assert_eq!(*name, expect);
        }
        let mut o = JsonObj::new();
        phases.write_json(&mut o, "phase_ns");
        let v = fvae_obs::parse(&o.finish()).expect("valid JSON");
        let p = v.get("phase_ns").expect("nested");
        assert_eq!(p.get("sampled_softmax").and_then(fvae_obs::Value::as_u64), Some(4));
    }

    #[test]
    fn eta_formatting_covers_units() {
        assert_eq!(format_eta(42.4), "42s");
        assert_eq!(format_eta(62.0), "1m02s");
        assert_eq!(format_eta(3723.0), "1h02m");
    }

    #[test]
    fn sink_records_steps_and_epochs_into_registry() {
        let mut sink = TelemetrySink::new(2);
        let stats = StepStats {
            recon: 1.0,
            kl: 0.5,
            beta: 0.2,
            candidates: 10,
            batch_size: 4,
            wall_ns: 1_000,
            users_per_sec: 4_000.0,
        };
        let phases = PhaseNs { optimizer: 300, ..Default::default() };
        sink.on_step(&StepCtx {
            epoch: 0,
            step: 0,
            global_step: 0,
            stats: &stats,
            phases: &phases,
            scratch: fvae_nn::WorkspaceStats { allocs: 7, takes: 9, recycles: 9, pooled: 3 },
        });
        let epoch = EpochStats {
            recon: 1.0,
            kl: 0.5,
            beta: 0.2,
            users: 4,
            mean_candidates: 10.0,
            steps: 1,
            wall_secs: 0.25,
            users_per_sec: 16.0,
        };
        sink.on_epoch(0, &epoch);
        let text = sink.registry().render();
        assert!(text.contains("fvae_core_steps_total 1"));
        assert!(text.contains("fvae_core_users_total 4"));
        assert!(text.contains("fvae_core_step_ns_count 1"));
        assert!(text.contains("fvae_core_phase_optimizer_ns_sum 300"));
        assert!(text.contains("fvae_nn_scratch_allocs 7"));
        assert!(text.contains("fvae_core_beta 0.2"));
        assert!(text.contains("fvae_core_elbo -1.1"));
    }
}
