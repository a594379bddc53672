//! The publisher: tails an event log, trains continuously, and pushes
//! snapshots to a live serving fleet.
//!
//! This is the loop that closes the train→serve gap (ROADMAP item 1): a
//! [`Publisher`] owns a `fvae_core::StreamTrainer` plus a tailing
//! `fvae_data::EventLogReader`, seals log windows into micro-batches, and
//! every `snapshot_every` optimizer steps writes a crash-safe checkpoint and
//! asks each configured server/router to `reload` it. Pushes reuse the
//! existing reload RPCs, so a router fans the snapshot out to its shards
//! all-or-nothing and traffic never sees a torn fleet.
//!
//! Crash safety is inherited from the pieces: the log writer truncates torn
//! tails, snapshots carry the log cursor (`SEC_STREAM`), and a restarted
//! publisher resumes from *(latest snapshot, saved offset)* bit-identically
//! to the uninterrupted run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fvae_core::{Checkpointer, Fvae, SnapshotError, StreamTrainer};
use fvae_data::{Event, EventLogError, EventLogReader, StreamBatcher};

use crate::client::Client;
use crate::net::RELOAD_TIMEOUT_FLOOR;

/// Where the event log lives and how aggressively to snapshot/push.
pub struct PublishConfig {
    /// Event log to tail.
    pub log: PathBuf,
    /// Snapshot directory (shared with the serving fleet).
    pub checkpoint_dir: PathBuf,
    /// Server/router addresses to push reloads to (may be empty: train-only).
    pub push: Vec<String>,
    /// Snapshot + push every this many optimizer steps.
    pub snapshot_every: u64,
    /// Snapshots to retain.
    pub keep_last: usize,
    /// Distinct users per training window.
    pub batch_users: usize,
    /// Sleep between empty polls of the log tail.
    pub poll: Duration,
    /// Exit once the log has been quiet this long (None = tail forever).
    pub idle_exit: Option<Duration>,
    /// Connect timeout per push.
    pub connect_timeout: Duration,
}

impl PublishConfig {
    /// Defaults: snapshot every 50 steps, keep 3, 32-user windows, 10 ms
    /// poll, no idle exit.
    pub fn new(log: impl Into<PathBuf>, checkpoint_dir: impl Into<PathBuf>) -> Self {
        Self {
            log: log.into(),
            checkpoint_dir: checkpoint_dir.into(),
            push: Vec::new(),
            snapshot_every: 50,
            keep_last: 3,
            batch_users: 32,
            poll: Duration::from_millis(10),
            idle_exit: None,
            connect_timeout: Duration::from_secs(2),
        }
    }
}

struct PublishMetrics {
    events: fvae_obs::Counter,
    steps: fvae_obs::Counter,
    snapshots: fvae_obs::Counter,
    pushes: fvae_obs::Counter,
    push_failures: fvae_obs::Counter,
    log_offset: fvae_obs::Gauge,
    push_ns: fvae_obs::Histogram,
}

/// What a publisher run did — the soak harness asserts on these.
#[derive(Debug, Default, Clone)]
pub struct PublishReport {
    /// Optimizer steps taken this run.
    pub steps: u64,
    /// Events consumed into trained windows this run.
    pub events: u64,
    /// Snapshots written this run.
    pub snapshots: u64,
    /// Reload pushes where the target committed a *new* checkpoint
    /// (`ok && changed`).
    pub pushes_committed: u64,
    /// Pushes that failed to connect, errored, or were rejected.
    pub push_failures: u64,
    /// Log offset the trainer's weights stand at.
    pub log_offset: u64,
    /// `ckpt_id`s committed by push targets, in push order (deduplicated
    /// consecutively). The soak asserts served ids follow this order.
    pub pushed_ckpt_ids: Vec<u64>,
}

/// Continuous trainer + fleet pusher. See the module docs.
pub struct Publisher {
    cfg: PublishConfig,
    trainer: StreamTrainer,
    reader: EventLogReader,
    batcher: StreamBatcher,
    cp: Checkpointer,
    metrics: Option<PublishMetrics>,
    report: PublishReport,
    /// Log offset after the event *preceding* the open window's first
    /// event — the resume cursor to stamp into the next sealed window.
    window_start: u64,
    backlog: Vec<(Event, u64)>,
}

/// Publisher construction / run errors.
#[derive(Debug)]
pub enum PublishError {
    /// Event-log I/O or decode failure.
    Log(EventLogError),
    /// Snapshot encode/decode/write failure.
    Snapshot(SnapshotError),
    /// No snapshot to resume and no initial model supplied.
    NoModel,
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Log(e) => write!(f, "event log: {e}"),
            PublishError::Snapshot(e) => write!(f, "snapshot: {e}"),
            PublishError::NoModel => {
                write!(f, "checkpoint dir has no snapshot and no --init-model was given")
            }
        }
    }
}

impl std::error::Error for PublishError {}

impl From<EventLogError> for PublishError {
    fn from(e: EventLogError) -> Self {
        PublishError::Log(e)
    }
}

impl From<SnapshotError> for PublishError {
    fn from(e: SnapshotError) -> Self {
        PublishError::Snapshot(e)
    }
}

impl Publisher {
    /// Opens the log and either resumes from the newest snapshot in
    /// `cfg.checkpoint_dir` (its `SEC_STREAM` cursor decides where to tail
    /// from) or starts fresh from `init_model`. A fresh start writes — and
    /// pushes — an initial snapshot immediately, so servers can boot from
    /// the directory before the first cadenced snapshot lands.
    ///
    /// `field_names` / `field_vocabs` declare the log's schema (one vocab
    /// per field); events outside it are rejected, not admitted.
    pub fn new(
        cfg: PublishConfig,
        field_names: Vec<String>,
        field_vocabs: Vec<usize>,
        init_model: Option<Fvae>,
    ) -> Result<Self, PublishError> {
        let cp = Checkpointer::new(&cfg.checkpoint_dir, cfg.snapshot_every, cfg.keep_last)
            .map_err(|e| PublishError::Snapshot(SnapshotError::Io(e)))?;
        let loaded = Checkpointer::load_latest(&cfg.checkpoint_dir)?;
        let (trainer, fresh) = match loaded {
            Some(loaded) => {
                let stream = loaded.snapshot.stream_progress().unwrap_or_default();
                let mut t = StreamTrainer::resume(loaded.snapshot)?;
                if stream.log_offset == 0 {
                    // Batch-mode snapshot (warm start): stream from the top.
                    t = StreamTrainer::new(t.into_model(), fvae_data::events::LOG_HEADER_LEN);
                }
                (t, false)
            }
            None => {
                let model = init_model.ok_or(PublishError::NoModel)?;
                (StreamTrainer::new(model, fvae_data::events::LOG_HEADER_LEN), true)
            }
        };
        let offset = trainer.stream_progress().log_offset;
        let reader = EventLogReader::open(&cfg.log, offset)?;
        let batcher = StreamBatcher::new(field_names, field_vocabs, cfg.batch_users);
        let mut this = Self {
            cfg,
            trainer,
            reader,
            batcher,
            cp,
            metrics: None,
            report: PublishReport::default(),
            window_start: offset,
            backlog: Vec::new(),
        };
        this.report.log_offset = offset;
        if fresh {
            this.snapshot_and_push()?;
        }
        Ok(this)
    }

    /// Registers the `fvae_publish_*` metric family on `registry`.
    pub fn with_registry(mut self, registry: &fvae_obs::Registry) -> Self {
        self.metrics = Some(PublishMetrics {
            events: registry.counter("fvae_publish_events_total"),
            steps: registry.counter("fvae_publish_steps_total"),
            snapshots: registry.counter("fvae_publish_snapshots_total"),
            pushes: registry.counter("fvae_publish_pushes_total"),
            push_failures: registry.counter("fvae_publish_push_failures_total"),
            log_offset: registry.gauge("fvae_publish_log_offset"),
            push_ns: registry.histogram("fvae_publish_push_ns"),
        });
        self
    }

    /// The model as trained so far.
    pub fn model(&self) -> &Fvae {
        self.trainer.model()
    }

    /// Cumulative run report.
    pub fn report(&self) -> &PublishReport {
        &self.report
    }

    /// Consumes the publisher, returning the trained model.
    pub fn into_model(self) -> Fvae {
        self.trainer.into_model()
    }

    /// Tails the log until `max_steps` optimizer steps have been taken
    /// (None = until idle-exit), training each sealed window and pushing a
    /// snapshot every `snapshot_every` steps. Returns the cumulative report.
    ///
    /// The open (partial) window is deliberately *not* flushed on exit: the
    /// snapshot cursor points before its first event, so those events are
    /// replayed next run — training stays a pure function of the log.
    pub fn run(&mut self, max_steps: Option<u64>) -> Result<PublishReport, PublishError> {
        let mut idle_since = Instant::now();
        loop {
            if max_steps.is_some_and(|m| self.report.steps >= m) {
                break;
            }
            self.backlog.clear();
            let got = {
                let backlog = &mut self.backlog;
                self.reader.poll(256, backlog)?
            };
            if got == 0 {
                if self.cfg.idle_exit.is_some_and(|d| idle_since.elapsed() >= d) {
                    break;
                }
                std::thread::sleep(self.cfg.poll);
                continue;
            }
            idle_since = Instant::now();
            let backlog = std::mem::take(&mut self.backlog);
            for &(ev, after) in &backlog {
                if let Some(m) = &self.metrics {
                    m.events.inc();
                }
                if let Some((window, events)) =
                    self.batcher.push(&ev).map_err(EventLogError::Decode)?
                {
                    // `ev` opens a new window, so the trained prefix ends
                    // right before it: at `self.window_start`'s next value.
                    let next_cursor = self.window_start;
                    self.train_window(&window, next_cursor, events)?;
                    if max_steps.is_some_and(|m| self.report.steps >= m) {
                        // Events already polled past this point are replayed
                        // from the snapshot cursor next run.
                        break;
                    }
                }
                // The cursor for a window starting at the *next* event is
                // the offset after this one.
                self.window_start = after;
            }
            self.backlog = backlog;
        }
        // Leave a snapshot at the exact stop point (window boundary).
        if self.report.steps > 0 {
            self.snapshot_and_push()?;
        }
        Ok(self.report.clone())
    }

    fn train_window(
        &mut self,
        window: &fvae_data::MultiFieldDataset,
        window_start: u64,
        events: u64,
    ) -> Result<(), PublishError> {
        // The cursor saved with this step is the offset *before* the first
        // event of the window that is now open — `window_start` was captured
        // before the sealing event advanced it.
        self.trainer.step_window(window, window_start, events);
        self.report.steps += 1;
        self.report.events += events;
        self.report.log_offset = window_start;
        if let Some(m) = &self.metrics {
            m.steps.inc();
            m.log_offset.set(window_start as f64);
        }
        if self.trainer.checkpoint_due(&self.cp) {
            self.snapshot_and_push()?;
        }
        Ok(())
    }

    fn snapshot_and_push(&mut self) -> Result<(), PublishError> {
        self.trainer.checkpoint(&self.cp)?;
        self.report.snapshots += 1;
        if let Some(m) = &self.metrics {
            m.snapshots.inc();
        }
        for addr in self.cfg.push.clone() {
            let span = self.metrics.as_ref().map(|m| fvae_obs::Span::on(&m.push_ns));
            // Bounded end to end: a target that accepts and never answers
            // is a failed push, not a stalled training loop.
            let committed =
                Client::reload_once(&addr, self.cfg.connect_timeout, RELOAD_TIMEOUT_FLOOR, None)
                    .ok()
                    .filter(|r| r.ok);
            drop(span);
            match committed {
                Some(r) => {
                    self.report.pushes_committed += 1;
                    if let Some(m) = &self.metrics {
                        m.pushes.inc();
                    }
                    if r.changed && self.report.pushed_ckpt_ids.last() != Some(&r.ckpt_id) {
                        self.report.pushed_ckpt_ids.push(r.ckpt_id);
                    }
                }
                None => {
                    self.report.push_failures += 1;
                    if let Some(m) = &self.metrics {
                        m.push_failures.inc();
                    }
                }
            }
        }
        Ok(())
    }
}
