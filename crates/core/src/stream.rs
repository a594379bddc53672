//! Incremental (streaming) training over event-log windows.
//!
//! Batch training walks a frozen matrix for a fixed number of epochs; the
//! paper's dynamic hash table exists because production vocabularies do not
//! hold still. [`StreamTrainer`] is the continuous counterpart: it consumes
//! window datasets sealed by `fvae_data::StreamBatcher` as they arrive,
//! admitting never-seen users and features mid-run through the same
//! dyntable-backed `EmbeddingBag` admission the batch path uses, and
//! periodically emits crash-safe snapshots that carry the event-log byte
//! offset to resume from ([`StreamProgress`], `SEC_STREAM`).
//!
//! Two invariants make kill-and-resume byte-exact:
//!
//! 1. **Batches are a pure function of consumed log bytes.** The batcher
//!    seals windows on distinct-user count alone, so replaying the log from
//!    a recorded offset reproduces the identical window sequence.
//! 2. **Every snapshot sits on a window boundary** and captures the model,
//!    optimizer moments, RNG state, and the offset *before* the first event
//!    of the still-open window. A resumed run re-reads exactly the events
//!    the interrupted run had buffered but not yet trained on.
//!
//! Determinism across thread counts is inherited from `train_batch` (fixed
//! sharding and fixed-tree reductions in `fvae-pool`), so streaming
//! checkpoints are bit-identical at any `FVAE_THREADS`, proven by
//! `tests/stream_parity.rs`.

use std::path::PathBuf;

use fvae_data::MultiFieldDataset;
use rand::rngs::StdRng;

use crate::checkpoint::{Checkpointer, SnapshotError, StreamProgress, TrainProgress, TrainSnapshot};
use crate::train::OptStates;
use crate::{Fvae, StepStats};

/// Continuous trainer: feeds sealed event-log windows through the ordinary
/// optimizer step and tracks where in the log the model's weights stand.
pub struct StreamTrainer {
    model: Fvae,
    opt: OptStates,
    progress: TrainProgress,
    stream: StreamProgress,
}

impl StreamTrainer {
    /// Starts streaming from `model` as-is (fresh or warm-started from a
    /// batch-trained model). The log cursor starts at `log_offset` — pass
    /// the log header length for a new log.
    pub fn new(model: Fvae, log_offset: u64) -> Self {
        let opt = OptStates::new(&model);
        let mut progress = TrainProgress::fresh();
        progress.global_step = model.step;
        Self {
            model,
            opt,
            progress,
            stream: StreamProgress { log_offset, events: 0, batches: 0 },
        }
    }

    /// Resumes from a snapshot written by [`StreamTrainer::checkpoint`]
    /// (or any snapshot: a batch-mode snapshot resumes with a zero stream
    /// cursor, which callers should treat as "start of log").
    pub fn resume(snap: TrainSnapshot) -> Result<Self, SnapshotError> {
        let TrainSnapshot { mut model, opt, rng_state, progress, stream, .. } = snap;
        model.rng = StdRng::from_state(rng_state);
        let mut states = OptStates::new(&model);
        opt.install(&mut states)?;
        Ok(Self { model, opt: states, progress, stream: stream.unwrap_or_default() })
    }

    /// One optimizer step on a sealed window.
    ///
    /// `next_offset` is the log cursor to resume from once this window is
    /// trained on (the byte offset before the first event of the *next*
    /// window), and `events` is how many events the sealed window consumed.
    /// The window dataset is trained whole — row order inside it is the
    /// batcher's deterministic first-seen order, so the step is a pure
    /// function of the log prefix.
    pub fn step_window(
        &mut self,
        window: &MultiFieldDataset,
        next_offset: u64,
        events: u64,
    ) -> StepStats {
        let users: Vec<usize> = (0..window.n_users()).collect();
        let stats = self.model.train_batch(window, &users, &mut self.opt);
        self.progress.global_step += 1;
        self.progress.step_in_epoch += 1;
        self.progress.beta = stats.beta;
        self.progress.recon_sum += stats.recon as f64 * stats.batch_size as f64;
        self.progress.kl_sum += stats.kl as f64 * stats.batch_size as f64;
        self.progress.cand_sum += stats.candidates as f64;
        self.stream.log_offset = next_offset;
        self.stream.events += events;
        self.stream.batches += 1;
        stats
    }

    /// Writes a crash-safe snapshot carrying the stream cursor.
    pub fn checkpoint(&self, cp: &Checkpointer) -> Result<PathBuf, SnapshotError> {
        cp.save(
            &self.model,
            &self.opt,
            self.model.rng.state(),
            &self.progress,
            None,
            Some(self.stream),
        )
    }

    /// Snapshot due per the checkpointer cadence at the current step?
    pub fn checkpoint_due(&self, cp: &Checkpointer) -> bool {
        cp.due(self.progress.global_step)
    }

    /// The model being trained.
    pub fn model(&self) -> &Fvae {
        &self.model
    }

    /// Optimizer steps completed (batch warm-start included).
    pub fn global_step(&self) -> u64 {
        self.progress.global_step
    }

    /// Where in the event log the weights stand.
    pub fn stream_progress(&self) -> StreamProgress {
        self.stream
    }

    /// Consumes the trainer, returning the trained model.
    pub fn into_model(self) -> Fvae {
        self.model
    }
}
