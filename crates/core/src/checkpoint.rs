//! Crash-safe training checkpoints (DESIGN.md §9).
//!
//! A snapshot captures *everything* a resumed run needs to be step-for-step
//! bit-identical to an uninterrupted one:
//!
//! - the model (weights, dynamic hash tables in slot order, the anneal-step
//!   counter) via [`Fvae::to_bytes`],
//! - every Adam moment buffer of [`crate::train`]'s optimizer state,
//! - the exact xoshiro256++ RNG state (not a reseed — mid-stream position),
//! - train progress: epoch, step-in-epoch, global step, the current epoch's
//!   shuffled user order (computed from the RNG *at epoch start*, so it
//!   cannot be re-derived mid-epoch), and the epoch's partial loss sums,
//! - optionally, [`Fvae::train_until`]'s early-stopping state (best snapshot,
//!   strikes, validation history).
//!
//! ## On-disk format
//!
//! ```text
//! [magic u32 "FVCK"][version u16][n_sections u8]
//! [tag u8, len u64] × n_sections        ← section table
//! [section payloads, concatenated]
//! [crc32 u32]                            ← CRC-32/IEEE of all prior bytes
//! ```
//!
//! Unknown section tags are skipped on load (forward compatibility). Every
//! write is atomic: the bytes go to a dot-prefixed temp file that is fsynced,
//! renamed over the final name, and the directory fsynced — a crash mid-write
//! leaves at worst a stale temp file, never a half-written snapshot under the
//! real name. [`Checkpointer::load_latest`] walks snapshots newest-first and
//! falls back across corrupt ones, so a torn or bit-flipped file costs one
//! checkpoint interval, not the run.

use std::fs;
use std::io::{self, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};

use fvae_nn::serialize::{get_adam_state, put_adam_state};
use fvae_nn::AdamState;
use fvae_sparse::serial::{
    crc32, put_bytes, put_f32, put_f64, put_u16, put_u32, put_u64, put_u64_slice, put_u8,
    DecodeError, Reader,
};

use crate::model::Fvae;
use crate::train::{EpochStats, OptStates};

/// Magic prefix of snapshot files ("FVCK").
pub const SNAPSHOT_MAGIC: u32 = 0x4656_434B;
/// Snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;
/// Snapshot file extension (files are named `ckpt-<global step>.fvck`).
pub const SNAPSHOT_EXT: &str = "fvck";

const SEC_MODEL: u8 = 1;
const SEC_OPTIM: u8 = 2;
const SEC_RNG: u8 = 3;
const SEC_PROGRESS: u8 = 4;
const SEC_EARLY_STOP: u8 = 5;
const SEC_STREAM: u8 = 6;

/// Errors of the snapshot write/load paths.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure (create/write/fsync/rename/read/list).
    Io(io::Error),
    /// Structural decode failure (bad magic/version, truncation, invalid
    /// section payload).
    Decode(DecodeError),
    /// The stored checksum does not match the file contents.
    CrcMismatch {
        /// Checksum recorded in the file.
        stored: u32,
        /// Checksum computed over the file contents.
        computed: u32,
    },
    /// A required section is absent from the section table.
    MissingSection(u8),
    /// Every snapshot in the directory failed to load.
    NoUsableSnapshot {
        /// How many snapshot files were tried.
        tried: usize,
        /// The newest snapshot's failure.
        newest: Box<SnapshotError>,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            SnapshotError::Decode(e) => write!(f, "checkpoint decode error: {e}"),
            SnapshotError::CrcMismatch { stored, computed } => write!(
                f,
                "checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            SnapshotError::MissingSection(tag) => {
                write!(f, "checkpoint is missing required section {tag}")
            }
            SnapshotError::NoUsableSnapshot { tried, newest } => {
                write!(f, "all {tried} snapshots failed to load; newest: {newest}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Decode(e) => Some(e),
            SnapshotError::NoUsableSnapshot { newest, .. } => Some(newest),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
    }
}

/// Where a training run stands, as recorded in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainProgress {
    /// Epoch the run is inside (0-based).
    pub epoch: u64,
    /// Optimizer steps already completed within that epoch.
    pub step_in_epoch: u64,
    /// Optimizer steps completed across the whole run.
    pub global_step: u64,
    /// The epoch's shuffled user order. The shuffle consumes RNG at epoch
    /// start, so a mid-epoch resume must replay this order rather than
    /// re-derive it.
    pub epoch_order: Vec<u64>,
    /// Partial sum of per-user reconstruction loss over the epoch so far.
    pub recon_sum: f64,
    /// Partial sum of per-user KL over the epoch so far.
    pub kl_sum: f64,
    /// Partial sum of candidate-set sizes over the epoch so far.
    pub cand_sum: f64,
    /// β at the most recent step.
    pub beta: f32,
}

impl TrainProgress {
    pub(crate) fn fresh() -> Self {
        Self {
            epoch: 0,
            step_in_epoch: 0,
            global_step: 0,
            epoch_order: Vec::new(),
            recon_sum: 0.0,
            kl_sum: 0.0,
            cand_sum: 0.0,
            beta: 0.0,
        }
    }
}

/// Where a *streaming* training run stands in the event log. Snapshots from
/// the streaming trainer carry this in a `SEC_STREAM` section (older readers
/// skip unknown tags); batch-mode snapshots simply omit it.
///
/// `log_offset` is the resume cursor: the byte offset *before* the first
/// event of the window that was open when the snapshot was taken, so a
/// resumed reader replays exactly the events the interrupted run had
/// buffered but not yet trained on. Because batches are a pure function of
/// consumed log bytes, resuming from this offset reproduces the
/// uninterrupted run bit-for-bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamProgress {
    /// Event-log byte offset to resume tailing from.
    pub log_offset: u64,
    /// Events consumed into sealed (trained-on) windows so far.
    pub events: u64,
    /// Windows sealed and trained on so far.
    pub batches: u64,
}

/// Adam moment buffers for every parameter group, detached from the scratch
/// so they can cross the (de)serialization boundary.
#[derive(Clone, Debug, Default)]
pub(crate) struct OptSnapshot {
    pub(crate) bags: Vec<AdamState>,
    pub(crate) enc_bias: AdamState,
    pub(crate) enc_extra: Vec<(AdamState, AdamState)>,
    pub(crate) enc_head: (AdamState, AdamState),
    pub(crate) trunk: Vec<(AdamState, AdamState)>,
    pub(crate) heads_w: Vec<AdamState>,
    pub(crate) heads_b: Vec<AdamState>,
}

impl OptSnapshot {
    /// Installs the captured moments into freshly built optimizer state.
    /// Group counts are structural (they follow the model architecture), so
    /// a mismatch means the snapshot and model disagree.
    pub(crate) fn install(self, opt: &mut OptStates) -> Result<(), DecodeError> {
        if self.bags.len() != opt.bags.len()
            || self.enc_extra.len() != opt.enc_extra.len()
            || self.trunk.len() != opt.trunk.len()
            || self.heads_w.len() != opt.heads_w.len()
            || self.heads_b.len() != opt.heads_b.len()
        {
            return Err(DecodeError::Invalid(
                "optimizer group count does not match the model architecture".into(),
            ));
        }
        opt.bags = self.bags;
        opt.enc_bias = self.enc_bias;
        opt.enc_extra = self.enc_extra;
        opt.enc_head = self.enc_head;
        opt.trunk = self.trunk;
        opt.heads_w = self.heads_w;
        opt.heads_b = self.heads_b;
        Ok(())
    }
}

/// [`Fvae::train_until`]'s early-stopping loop state, checkpointed at
/// validation boundaries.
#[derive(Clone, Debug, Default)]
pub(crate) struct EarlyStopState {
    /// `(validation ELBO, model bytes, epoch)` of the best point so far.
    pub(crate) best: Option<(f32, Vec<u8>, u64)>,
    /// Validations without improvement.
    pub(crate) strikes: u64,
    /// True when patience ran out (a resumed run returns immediately).
    pub(crate) stopped_early: bool,
    /// Per-epoch stats accumulated so far.
    pub(crate) epochs: Vec<EpochStats>,
    /// `(epoch, validation ELBO)` points so far.
    pub(crate) validations: Vec<(u64, f32)>,
}

/// A fully decoded snapshot.
pub struct TrainSnapshot {
    pub(crate) model: Fvae,
    pub(crate) opt: OptSnapshot,
    pub(crate) rng_state: [u64; 4],
    pub(crate) progress: TrainProgress,
    pub(crate) early_stop: Option<EarlyStopState>,
    pub(crate) stream: Option<StreamProgress>,
}

/// Everything a resumed run needs besides the model itself; obtained from
/// [`TrainSnapshot::into_resume`] and consumed by
/// [`Fvae::train_checkpointed`] / [`Fvae::train_until_checkpointed`].
pub struct ResumePoint {
    pub(crate) opt: OptSnapshot,
    pub(crate) rng_state: [u64; 4],
    pub(crate) progress: TrainProgress,
    pub(crate) early_stop: Option<EarlyStopState>,
}

impl TrainSnapshot {
    /// The recorded progress (for logging before resuming).
    pub fn progress(&self) -> &TrainProgress {
        &self.progress
    }

    /// True when the snapshot was written by the early-stopping trainer.
    pub fn is_early_stopping(&self) -> bool {
        self.early_stop.is_some()
    }

    /// Event-log position, when the snapshot came from the streaming
    /// trainer ([`crate::StreamTrainer`]).
    pub fn stream_progress(&self) -> Option<StreamProgress> {
        self.stream
    }

    /// Splits into the restored model and the resume state for the trainer.
    pub fn into_resume(self) -> (Fvae, ResumePoint) {
        (
            self.model,
            ResumePoint {
                opt: self.opt,
                rng_state: self.rng_state,
                progress: self.progress,
                early_stop: self.early_stop,
            },
        )
    }
}

impl ResumePoint {
    /// The recorded progress.
    pub fn progress(&self) -> &TrainProgress {
        &self.progress
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encoded size of an empty Adam state (`t` and two length prefixes): the
/// per-element bound for the optimizer section's group counts.
const ADAM_MIN_BYTES: usize = 8 + 8 + 8;
/// Encoded size of one [`EpochStats`] record.
const EPOCH_STATS_BYTES: usize = 4 * 3 + 8 * 5;

fn put_opt(buf: &mut Vec<u8>, opt: &OptStates) {
    put_u64(buf, opt.bags.len() as u64);
    for s in &opt.bags {
        put_adam_state(buf, s);
    }
    put_adam_state(buf, &opt.enc_bias);
    put_u64(buf, opt.enc_extra.len() as u64);
    for (w, b) in &opt.enc_extra {
        put_adam_state(buf, w);
        put_adam_state(buf, b);
    }
    put_adam_state(buf, &opt.enc_head.0);
    put_adam_state(buf, &opt.enc_head.1);
    put_u64(buf, opt.trunk.len() as u64);
    for (w, b) in &opt.trunk {
        put_adam_state(buf, w);
        put_adam_state(buf, b);
    }
    put_u64(buf, opt.heads_w.len() as u64);
    for s in &opt.heads_w {
        put_adam_state(buf, s);
    }
    for s in &opt.heads_b {
        put_adam_state(buf, s);
    }
}

fn get_opt(r: &mut Reader<'_>) -> Result<OptSnapshot, DecodeError> {
    fn states(r: &mut Reader<'_>, n: usize) -> Result<Vec<AdamState>, DecodeError> {
        (0..n).map(|_| get_adam_state(r)).collect()
    }
    fn pairs(r: &mut Reader<'_>) -> Result<Vec<(AdamState, AdamState)>, DecodeError> {
        let n = r.count(2 * ADAM_MIN_BYTES)?;
        (0..n).map(|_| Ok((get_adam_state(r)?, get_adam_state(r)?))).collect()
    }
    let n_bags = r.count(ADAM_MIN_BYTES)?;
    let bags = states(r, n_bags)?;
    let enc_bias = get_adam_state(r)?;
    let enc_extra = pairs(r)?;
    let enc_head = (get_adam_state(r)?, get_adam_state(r)?);
    let trunk = pairs(r)?;
    let n_heads = r.count(2 * ADAM_MIN_BYTES)?;
    let heads_w = states(r, n_heads)?;
    let heads_b = states(r, n_heads)?;
    Ok(OptSnapshot { bags, enc_bias, enc_extra, enc_head, trunk, heads_w, heads_b })
}

fn put_progress(buf: &mut Vec<u8>, p: &TrainProgress) {
    put_u64(buf, p.epoch);
    put_u64(buf, p.step_in_epoch);
    put_u64(buf, p.global_step);
    put_f64(buf, p.recon_sum);
    put_f64(buf, p.kl_sum);
    put_f64(buf, p.cand_sum);
    put_f32(buf, p.beta);
    put_u64_slice(buf, &p.epoch_order);
}

fn get_progress(r: &mut Reader<'_>) -> Result<TrainProgress, DecodeError> {
    Ok(TrainProgress {
        epoch: r.u64()?,
        step_in_epoch: r.u64()?,
        global_step: r.u64()?,
        recon_sum: r.f64()?,
        kl_sum: r.f64()?,
        cand_sum: r.f64()?,
        beta: r.f32()?,
        epoch_order: r.u64s()?,
    })
}

fn put_epoch_stats(buf: &mut Vec<u8>, s: &EpochStats) {
    put_f32(buf, s.recon);
    put_f32(buf, s.kl);
    put_f32(buf, s.beta);
    put_u64(buf, s.users as u64);
    put_f64(buf, s.mean_candidates);
    put_u64(buf, s.steps as u64);
    put_f64(buf, s.wall_secs);
    put_f64(buf, s.users_per_sec);
}

fn get_epoch_stats(r: &mut Reader<'_>) -> Result<EpochStats, DecodeError> {
    Ok(EpochStats {
        recon: r.f32()?,
        kl: r.f32()?,
        beta: r.f32()?,
        users: r.usize()?,
        mean_candidates: r.f64()?,
        steps: r.usize()?,
        wall_secs: r.f64()?,
        users_per_sec: r.f64()?,
    })
}

fn put_early_stop(buf: &mut Vec<u8>, es: &EarlyStopState) {
    match &es.best {
        Some((elbo, bytes, epoch)) => {
            put_u8(buf, 1);
            put_f32(buf, *elbo);
            put_u64(buf, *epoch);
            put_bytes(buf, bytes);
        }
        None => put_u8(buf, 0),
    }
    put_u64(buf, es.strikes);
    put_u8(buf, es.stopped_early as u8);
    put_u64(buf, es.epochs.len() as u64);
    for s in &es.epochs {
        put_epoch_stats(buf, s);
    }
    put_u64(buf, es.validations.len() as u64);
    for &(epoch, elbo) in &es.validations {
        put_u64(buf, epoch);
        put_f32(buf, elbo);
    }
}

fn get_early_stop(r: &mut Reader<'_>) -> Result<EarlyStopState, DecodeError> {
    let best = if r.u8()? != 0 {
        let elbo = r.f32()?;
        let epoch = r.u64()?;
        Some((elbo, r.bytes()?.to_vec(), epoch))
    } else {
        None
    };
    let strikes = r.u64()?;
    let stopped_early = r.u8()? != 0;
    let n_epochs = r.count(EPOCH_STATS_BYTES)?;
    let epochs = (0..n_epochs).map(|_| get_epoch_stats(r)).collect::<Result<_, _>>()?;
    let n_val = r.count(8 + 4)?;
    let validations = (0..n_val)
        .map(|_| Ok((r.u64()?, r.f32()?)))
        .collect::<Result<_, DecodeError>>()?;
    Ok(EarlyStopState { best, strikes, stopped_early, epochs, validations })
}

fn put_stream(buf: &mut Vec<u8>, sp: &StreamProgress) {
    put_u64(buf, sp.log_offset);
    put_u64(buf, sp.events);
    put_u64(buf, sp.batches);
}

fn get_stream(r: &mut Reader<'_>) -> Result<StreamProgress, DecodeError> {
    Ok(StreamProgress { log_offset: r.u64()?, events: r.u64()?, batches: r.u64()? })
}

/// Encodes a complete snapshot (framing + section table + CRC). `stream`
/// adds the streaming trainer's `SEC_STREAM` section.
pub(crate) fn encode_snapshot(
    model: &Fvae,
    opt: &OptStates,
    rng_state: [u64; 4],
    progress: &TrainProgress,
    early_stop: Option<&EarlyStopState>,
    stream: Option<StreamProgress>,
) -> Vec<u8> {
    let model_bytes = model.to_bytes();
    // Two f32 moments per f32 parameter: twice the model's bytes bounds the
    // optimizer section, so its buffer is sized once too.
    let mut optim = Vec::with_capacity(2 * model_bytes.len());
    put_opt(&mut optim, opt);
    let mut rng_buf = Vec::with_capacity(32);
    for w in rng_state {
        put_u64(&mut rng_buf, w);
    }
    let mut prog = Vec::new();
    put_progress(&mut prog, progress);
    let mut sections: Vec<(u8, &[u8])> = vec![
        (SEC_MODEL, &model_bytes),
        (SEC_OPTIM, &optim),
        (SEC_RNG, &rng_buf),
        (SEC_PROGRESS, &prog),
    ];
    let mut es_buf = Vec::new();
    if let Some(es) = early_stop {
        put_early_stop(&mut es_buf, es);
        sections.push((SEC_EARLY_STOP, &es_buf));
    }
    let mut stream_buf = Vec::new();
    if let Some(sp) = &stream {
        put_stream(&mut stream_buf, sp);
        sections.push((SEC_STREAM, &stream_buf));
    }

    let payload: usize = sections.iter().map(|(_, p)| p.len()).sum();
    let mut buf = Vec::with_capacity(7 + sections.len() * 9 + payload + 4);
    put_u32(&mut buf, SNAPSHOT_MAGIC);
    put_u16(&mut buf, SNAPSHOT_VERSION);
    put_u8(&mut buf, sections.len() as u8);
    for (tag, p) in &sections {
        put_u8(&mut buf, *tag);
        put_u64(&mut buf, p.len() as u64);
    }
    for (_, p) in &sections {
        buf.extend_from_slice(p);
    }
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

/// Verifies a snapshot's framing and checksum and walks its section table:
/// `(tag, payload range within data)` per section, in file order.
///
/// Check order: magic and version first (friendly "this is not a snapshot"
/// errors), then the whole-file CRC (any bit flip past the version field
/// lands here), then the section table.
fn section_table(data: &[u8]) -> Result<Vec<(u8, Range<usize>)>, SnapshotError> {
    // The CRC trailer is not part of the framing: everything below reads
    // `body` only, so no cursor can run into it.
    let (body, stored) = data.split_last_chunk::<4>().ok_or(DecodeError::Truncated)?;
    let mut table = Reader::new(body);
    table.header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
    let n_sections = table.u8()?;
    let stored = u32::from_le_bytes(*stored);
    let computed = crc32(body);
    if stored != computed {
        return Err(SnapshotError::CrcMismatch { stored, computed });
    }
    // `table` reads the `(tag u8, len u64)` entries while `payload`, started
    // just past them, consumes each section in turn.
    let mut payload = table;
    payload.take(usize::from(n_sections) * 9)?;
    let mut sections = Vec::new();
    for _ in 0..n_sections {
        let tag = table.u8()?;
        let len = table.count(1)?;
        let start = body.len() - payload.remaining();
        payload.take(len)?;
        sections.push((tag, start..start + len));
    }
    payload.finish()?;
    Ok(sections)
}

/// Decodes one section, which its decoder must consume to the last byte
/// (re-encoding it, as normalization does, then preserves its length).
fn whole<T>(
    payload: &[u8],
    get: impl FnOnce(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut r = Reader::new(payload);
    let value = get(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Decodes a snapshot, verifying framing and checksum (in
/// [`section_table`]'s order) before any section payload is read.
pub fn decode_snapshot(data: &[u8]) -> Result<TrainSnapshot, SnapshotError> {
    let sections = section_table(data)?;
    let find = |tag: u8| sections.iter().find(|(t, _)| *t == tag).map(|(_, r)| &data[r.clone()]);
    let required = |tag: u8| find(tag).ok_or(SnapshotError::MissingSection(tag));
    let model = Fvae::from_bytes(required(SEC_MODEL)?)?;
    let opt = whole(required(SEC_OPTIM)?, get_opt)?;
    let rng_state = whole(required(SEC_RNG)?, |r| Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?]))?;
    let progress = whole(required(SEC_PROGRESS)?, get_progress)?;
    let early_stop = find(SEC_EARLY_STOP).map(|p| whole(p, get_early_stop)).transpose()?;
    let stream = find(SEC_STREAM).map(|p| whole(p, get_stream)).transpose()?;
    Ok(TrainSnapshot { model, opt, rng_state, progress, early_stop, stream })
}

/// Snapshot bytes with wall-clock telemetry zeroed, for byte comparison of
/// runs that should be numerically identical (e.g. the same seeded run at
/// different thread counts).
///
/// Every section of a snapshot is a pure function of the training
/// computation *except* the per-epoch `wall_secs` / `users_per_sec` stats
/// inside the early-stopping section. Plain checkpointed runs carry no such
/// section and pass through unchanged; early-stopping snapshots get that one
/// section re-encoded with the wall fields zeroed (same length — only f64
/// values change) and the trailing CRC recomputed.
pub fn normalized_snapshot_bytes(data: &[u8]) -> Result<Vec<u8>, SnapshotError> {
    let sections = section_table(data)?; // validates framing + CRC first
    let mut out = data.to_vec();
    let Some((_, range)) = sections.iter().find(|(tag, _)| *tag == SEC_EARLY_STOP) else {
        return Ok(out);
    };
    let mut es = whole(&data[range.clone()], get_early_stop)?;
    for e in &mut es.epochs {
        e.wall_secs = 0.0;
        e.users_per_sec = 0.0;
    }
    let mut buf = Vec::with_capacity(range.len());
    put_early_stop(&mut buf, &es);
    assert_eq!(buf.len(), range.len(), "normalization must not change the section length");
    out[range.clone()].copy_from_slice(&buf);
    let body_end = out.len() - 4;
    let crc = crc32(&out[..body_end]);
    out[body_end..].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

/// Writes `bytes` under `dir/name` atomically: temp file → fsync → rename →
/// directory fsync. A crash at any point leaves either the old state or the
/// complete new file, never a torn one.
/// Atomically writes a standalone snapshot of `model` into `dir`, named by
/// the model's global step like the trainer's own checkpoints — the export
/// path for handing a trained model to the serving side (`fvae-serve`
/// fixtures, hot-reload tests) without running a checkpointed training
/// loop. Optimizer moments are zeroed and the RNG state is re-derived from
/// the config seed and step, so exporting the same model twice produces
/// byte-identical files.
pub fn export_model_snapshot(dir: &Path, model: &Fvae) -> Result<PathBuf, SnapshotError> {
    fs::create_dir_all(dir).map_err(SnapshotError::Io)?;
    let seed = model.cfg.seed ^ model.step.wrapping_mul(0x9e3779b9);
    let rng_state = [seed, seed.rotate_left(17), seed.rotate_left(31), seed.rotate_left(47)];
    let progress = TrainProgress::at_epoch_boundary(0, model.step);
    let bytes = encode_snapshot(model, &fresh_opt(model), rng_state, &progress, None, None);
    let name = format!("ckpt-{:016}.{SNAPSHOT_EXT}", model.step);
    Ok(write_atomic(dir, &name, &bytes)?)
}

fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<PathBuf> {
    let tmp = dir.join(format!(".{name}.tmp"));
    let path = dir.join(name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    // Make the rename durable. Directory fsync is a Unix-ism; where opening
    // a directory fails, the rename is still atomic, just not yet durable.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(path)
}

struct CkptMetrics {
    writes: fvae_obs::Counter,
    bytes: fvae_obs::Counter,
    last_step: fvae_obs::Gauge,
    write_ns: fvae_obs::Histogram,
    load_skipped: fvae_obs::Counter,
}

/// Periodic snapshot writer with retention.
///
/// Files are named `ckpt-<global step, zero-padded>.fvck`, so lexicographic
/// and chronological order coincide and [`Checkpointer::load_latest`] can
/// walk newest-first.
pub struct Checkpointer {
    dir: PathBuf,
    every_steps: u64,
    keep_last: usize,
    metrics: Option<CkptMetrics>,
}

/// Result of [`Checkpointer::load_latest`]: the newest decodable snapshot
/// plus every newer snapshot that was skipped as corrupt.
pub struct LoadedSnapshot {
    /// The decoded snapshot.
    pub snapshot: TrainSnapshot,
    /// Path it was loaded from.
    pub path: PathBuf,
    /// The exact bytes `snapshot` was decoded from, so callers deriving a
    /// checkpoint identity hash the same data that produced the weights
    /// (a re-read could race a concurrent rewrite of the file).
    pub raw: Vec<u8>,
    /// Newer snapshots that failed to load, newest first.
    pub skipped: Vec<(PathBuf, SnapshotError)>,
}

impl Checkpointer {
    /// Creates the checkpoint directory and a writer that snapshots every
    /// `every_steps` optimizer steps (0 = only on explicit stop), keeping
    /// the `keep_last` most recent files.
    pub fn new(dir: impl Into<PathBuf>, every_steps: u64, keep_last: usize) -> io::Result<Self> {
        assert!(keep_last >= 1, "retention must keep at least one snapshot");
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, every_steps, keep_last, metrics: None })
    }

    /// Registers the `fvae_checkpoint_*` metric family on `registry`.
    pub fn with_registry(mut self, registry: &fvae_obs::Registry) -> Self {
        self.metrics = Some(CkptMetrics {
            writes: registry.counter("fvae_checkpoint_writes_total"),
            bytes: registry.counter("fvae_checkpoint_bytes_total"),
            last_step: registry.gauge("fvae_checkpoint_last_step"),
            write_ns: registry.histogram("fvae_checkpoint_write_ns"),
            load_skipped: registry.counter("fvae_checkpoint_load_skipped_total"),
        });
        self
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured step cadence.
    pub fn every_steps(&self) -> u64 {
        self.every_steps
    }

    /// True when a snapshot is due after `global_step` completed steps.
    pub(crate) fn due(&self, global_step: u64) -> bool {
        self.every_steps > 0 && global_step.is_multiple_of(self.every_steps)
    }

    /// Encodes and atomically writes one snapshot; prunes old ones.
    /// `stream` carries the streaming trainer's log cursor.
    pub(crate) fn save(
        &self,
        model: &Fvae,
        opt: &OptStates,
        rng_state: [u64; 4],
        progress: &TrainProgress,
        early_stop: Option<&EarlyStopState>,
        stream: Option<StreamProgress>,
    ) -> Result<PathBuf, SnapshotError> {
        let span = self.metrics.as_ref().map(|m| fvae_obs::Span::on(&m.write_ns));
        let bytes = encode_snapshot(model, opt, rng_state, progress, early_stop, stream);
        let name = format!("ckpt-{:016}.{SNAPSHOT_EXT}", progress.global_step);
        let path = write_atomic(&self.dir, &name, &bytes)?;
        self.prune()?;
        if let Some(m) = &self.metrics {
            m.writes.inc();
            m.bytes.add(bytes.len() as u64);
            m.last_step.set(progress.global_step as f64);
        }
        drop(span);
        Ok(path)
    }

    /// Snapshot files in `dir`, sorted by global step ascending.
    fn list(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(step) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(&format!(".{SNAPSHOT_EXT}")))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            out.push((step, path));
        }
        out.sort_unstable_by_key(|&(step, _)| step);
        Ok(out)
    }

    fn prune(&self) -> Result<(), SnapshotError> {
        let files = Self::list(&self.dir)?;
        if files.len() > self.keep_last {
            for (_, path) in &files[..files.len() - self.keep_last] {
                fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// Loads the newest decodable snapshot in `dir`, walking backwards over
    /// corrupt ones (recording them in [`LoadedSnapshot::skipped`]).
    ///
    /// Returns `Ok(None)` when the directory is absent or holds no
    /// snapshots, and [`SnapshotError::NoUsableSnapshot`] when snapshots
    /// exist but every one fails to decode.
    pub fn load_latest(dir: &Path) -> Result<Option<LoadedSnapshot>, SnapshotError> {
        if !dir.exists() {
            return Ok(None);
        }
        let mut files = Self::list(dir)?;
        files.reverse(); // newest first
        if files.is_empty() {
            return Ok(None);
        }
        let mut skipped = Vec::new();
        for (_, path) in files {
            let result = fs::read(&path)
                .map_err(SnapshotError::from)
                .and_then(|data| decode_snapshot(&data).map(|snapshot| (snapshot, data)));
            match result {
                Ok((snapshot, raw)) => {
                    return Ok(Some(LoadedSnapshot { snapshot, path, raw, skipped }));
                }
                Err(e) => skipped.push((path, e)),
            }
        }
        let tried = skipped.len();
        let newest = Box::new(skipped.swap_remove(0).1);
        Err(SnapshotError::NoUsableSnapshot { tried, newest })
    }

    /// Records snapshots skipped as corrupt during a load (metrics hook for
    /// the CLI's resume path).
    pub fn record_skipped(&self, n: usize) {
        if let Some(m) = &self.metrics {
            m.load_skipped.add(n as u64);
        }
    }

    /// Snapshot files in `dir`, newest (highest global step) first. The
    /// public listing behind targeted reloads: a serving tier that must
    /// roll back to a *specific* checkpoint scans these until it finds the
    /// one whose normalized bytes hash to the requested identity. Returns
    /// an empty list when the directory is absent.
    pub fn list_snapshot_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let mut files = Self::list(dir)?;
        files.reverse();
        Ok(files.into_iter().map(|(_, path)| path).collect())
    }
}

/// Builds fresh (zero-moment) optimizer state for encoding a snapshot at a
/// point where no live optimizer exists (the early-stopping trainer
/// checkpoints at burst boundaries, where each burst builds its own state).
pub(crate) fn fresh_opt(model: &Fvae) -> OptStates {
    OptStates::new(model)
}

impl TrainProgress {
    /// Progress at the start of epoch `epoch` with `global_step` steps done.
    pub(crate) fn at_epoch_boundary(epoch: u64, global_step: u64) -> Self {
        Self { epoch, global_step, ..Self::fresh() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FvaeConfig;
    use fvae_data::{FieldSpec, MultiFieldDataset, TopicModelConfig};

    fn tiny_ds() -> MultiFieldDataset {
        TopicModelConfig {
            n_users: 24,
            n_topics: 2,
            alpha: 0.2,
            fields: vec![FieldSpec::new("ch", 8, 2, 1.0), FieldSpec::new("tag", 16, 3, 1.0)],
            pair_prob: 0.0,
            seed: 11,
        }
        .generate()
    }

    /// A model plus optimizer state that have seen a few real steps, so
    /// every Adam moment buffer and hash-table slot is populated.
    fn trained(ds: &MultiFieldDataset) -> (Fvae, OptStates) {
        let mut cfg = FvaeConfig::for_dataset(ds);
        cfg.latent_dim = 4;
        cfg.enc_hidden = 8;
        cfg.dec_hidden = vec![8];
        cfg.batch_size = 8;
        cfg.anneal_steps = 10;
        let mut model = Fvae::new(cfg);
        let mut opt = OptStates::new(&model);
        let users: Vec<usize> = (0..ds.n_users()).collect();
        for batch in users.chunks(8) {
            model.train_batch(ds, batch, &mut opt);
        }
        (model, opt)
    }

    fn sample_progress() -> TrainProgress {
        TrainProgress {
            epoch: 2,
            step_in_epoch: 3,
            global_step: 13,
            epoch_order: vec![5, 1, 4, 2, 0, 3],
            recon_sum: 123.456,
            kl_sum: 7.875,
            cand_sum: 99.0,
            beta: 0.125,
        }
    }

    fn sample_early_stop() -> EarlyStopState {
        EarlyStopState {
            best: Some((-3.5, vec![1, 2, 3, 4, 5], 4)),
            strikes: 2,
            stopped_early: true,
            epochs: vec![EpochStats { recon: 1.5, kl: 0.25, beta: 0.5, users: 24, mean_candidates: 12.0, steps: 3, wall_secs: 0.5, users_per_sec: 48.0 }],
            validations: vec![(2, -4.0), (4, -3.5)],
        }
    }

    #[test]
    fn progress_codec_roundtrips() {
        let p = sample_progress();
        let mut buf = Vec::new();
        put_progress(&mut buf, &p);
        let got = get_progress(&mut Reader::new(&buf)).expect("decodes");
        assert_eq!(got, p);
    }

    #[test]
    fn early_stop_codec_roundtrips() {
        let es = sample_early_stop();
        let mut buf = Vec::new();
        put_early_stop(&mut buf, &es);
        let got = get_early_stop(&mut Reader::new(&buf)).expect("decodes");
        assert_eq!(got.best, es.best);
        assert_eq!(got.strikes, es.strikes);
        assert_eq!(got.stopped_early, es.stopped_early);
        assert_eq!(got.epochs.len(), es.epochs.len());
        assert_eq!(got.epochs[0].recon.to_bits(), es.epochs[0].recon.to_bits());
        assert_eq!(got.validations, es.validations);
    }

    #[test]
    fn opt_codec_roundtrips_every_moment_buffer() {
        let ds = tiny_ds();
        let (_, opt) = trained(&ds);
        let mut buf = Vec::new();
        put_opt(&mut buf, &opt);
        let got = get_opt(&mut Reader::new(&buf)).expect("decodes");
        let eq = |a: &AdamState, b: &AdamState| {
            let (am, av, at) = a.parts();
            let (bm, bv, bt) = b.parts();
            am == bm && av == bv && at == bt
        };
        assert_eq!(got.bags.len(), opt.bags.len());
        assert!(got.bags.iter().zip(&opt.bags).all(|(a, b)| eq(a, b)));
        assert!(eq(&got.enc_bias, &opt.enc_bias));
        assert!(got
            .enc_extra
            .iter()
            .zip(&opt.enc_extra)
            .all(|(a, b)| eq(&a.0, &b.0) && eq(&a.1, &b.1)));
        assert!(eq(&got.enc_head.0, &opt.enc_head.0) && eq(&got.enc_head.1, &opt.enc_head.1));
        assert!(got
            .trunk
            .iter()
            .zip(&opt.trunk)
            .all(|(a, b)| eq(&a.0, &b.0) && eq(&a.1, &b.1)));
        assert!(got.heads_w.iter().zip(&opt.heads_w).all(|(a, b)| eq(a, b)));
        assert!(got.heads_b.iter().zip(&opt.heads_b).all(|(a, b)| eq(a, b)));
        // Moments are non-trivial after real steps: at least one is non-zero.
        assert!(opt.enc_head.0.parts().2 > 0, "steps must have advanced Adam's t");
    }

    #[test]
    fn snapshot_roundtrips_model_rng_progress_and_early_stop() {
        let ds = tiny_ds();
        let (model, opt) = trained(&ds);
        let rng_state = [1u64, 2, 3, 4];
        let progress = sample_progress();
        let es = sample_early_stop();
        let bytes = encode_snapshot(&model, &opt, rng_state, &progress, Some(&es), None);
        let snap = decode_snapshot(&bytes).expect("decodes");
        assert_eq!(snap.rng_state, rng_state);
        assert_eq!(snap.progress, progress);
        assert!(snap.is_early_stopping());
        let got_es = snap.early_stop.as_ref().expect("present");
        assert_eq!(got_es.best, es.best);
        // The restored model serializes to the same bytes as the original.
        assert_eq!(snap.model.to_bytes(), model.to_bytes(), "model must round-trip bit-identically");
    }

    #[test]
    fn normalization_erases_only_wall_clock_fields() {
        let ds = tiny_ds();
        let (model, opt) = trained(&ds);
        let progress = sample_progress();
        let mut es_a = sample_early_stop();
        let mut es_b = sample_early_stop();
        es_a.epochs[0].wall_secs = 0.5;
        es_a.epochs[0].users_per_sec = 48.0;
        es_b.epochs[0].wall_secs = 7.25;
        es_b.epochs[0].users_per_sec = 3.125;
        let a = encode_snapshot(&model, &opt, [1, 2, 3, 4], &progress, Some(&es_a), None);
        let b = encode_snapshot(&model, &opt, [1, 2, 3, 4], &progress, Some(&es_b), None);
        assert_ne!(a, b, "wall clock must make raw bytes differ");
        let na = normalized_snapshot_bytes(&a).expect("normalizes");
        let nb = normalized_snapshot_bytes(&b).expect("normalizes");
        assert_eq!(na, nb, "runs differing only in wall clock must normalize equal");
        // Normalized bytes are still a valid snapshot, and non-telemetry
        // content survived.
        let snap = decode_snapshot(&na).expect("still decodes");
        assert_eq!(snap.progress, progress);
        assert_eq!(snap.early_stop.as_ref().expect("present").epochs[0].wall_secs, 0.0);
        assert_eq!(
            snap.early_stop.as_ref().expect("present").epochs[0].recon.to_bits(),
            es_a.epochs[0].recon.to_bits()
        );
        // No early-stop section → bytes pass through untouched.
        let plain = encode_snapshot(&model, &opt, [1, 2, 3, 4], &progress, None, None);
        assert_eq!(normalized_snapshot_bytes(&plain).expect("ok"), plain);
    }

    #[test]
    fn snapshot_without_early_stop_section_decodes_to_none() {
        let ds = tiny_ds();
        let (model, opt) = trained(&ds);
        let bytes = encode_snapshot(&model, &opt, [9, 9, 9, 9], &sample_progress(), None, None);
        let snap = decode_snapshot(&bytes).expect("decodes");
        assert!(!snap.is_early_stopping());
    }

    /// Any single flipped byte must make the snapshot unreadable — never a
    /// silently different decode. Flips in the magic/version land as
    /// BadMagic/BadVersion; everything else is caught by the whole-file CRC.
    #[test]
    fn every_single_byte_flip_is_rejected() {
        let ds = tiny_ds();
        let (model, opt) = trained(&ds);
        let bytes = encode_snapshot(&model, &opt, [7, 7, 7, 7], &sample_progress(), None, None);
        let data = bytes;
        // Exhaustive on small snapshots; strided (but still covering the
        // framing, table, CRC, and a spread of payload offsets) on large.
        let stride = (data.len() / 8192).max(1);
        let mut flipped = data.clone();
        let mut tried = 0usize;
        for i in (0..data.len()).step_by(stride).chain(data.len() - 16..data.len()) {
            flipped[i] ^= 0x40;
            assert!(
                decode_snapshot(&flipped).is_err(),
                "flip at byte {i} of {} must be rejected",
                data.len()
            );
            flipped[i] = data[i];
            tried += 1;
        }
        assert!(tried > 100, "fuzz must cover a meaningful sample");
        // Untouched data still decodes.
        assert!(decode_snapshot(&flipped).is_ok());
    }

    #[test]
    fn truncation_at_any_prefix_is_rejected() {
        let ds = tiny_ds();
        let (model, opt) = trained(&ds);
        let bytes = encode_snapshot(&model, &opt, [1, 1, 1, 1], &sample_progress(), None, None);
        let data = &bytes[..];
        for len in [0, 1, 6, 10, data.len() / 2, data.len() - 1] {
            assert!(decode_snapshot(&data[..len]).is_err(), "prefix of {len} bytes must fail");
        }
    }

    #[test]
    fn unknown_sections_are_skipped_for_forward_compat() {
        let ds = tiny_ds();
        let (model, opt) = trained(&ds);
        let bytes = encode_snapshot(&model, &opt, [3, 1, 4, 1], &sample_progress(), None, None);
        let data = &bytes[..];
        // Re-frame with one extra section of an unknown tag appended.
        let n = data[6] as usize;
        let table_end = 7 + n * 9;
        let payload_end = data.len() - 4;
        let extra = b"from-the-future";
        let mut out: Vec<u8> = Vec::new();
        put_u32(&mut out, SNAPSHOT_MAGIC);
        put_u16(&mut out, SNAPSHOT_VERSION);
        put_u8(&mut out, (n + 1) as u8);
        out.extend_from_slice(&data[7..table_end]); // existing table entries
        put_u8(&mut out, 250); // unknown tag
        put_u64(&mut out, extra.len() as u64);
        out.extend_from_slice(&data[table_end..payload_end]);
        out.extend_from_slice(extra);
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        let snap = decode_snapshot(&out).expect("unknown sections must be skipped");
        assert_eq!(snap.rng_state, [3, 1, 4, 1]);
        assert_eq!(snap.model.to_bytes(), model.to_bytes());
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let ds = tiny_ds();
        let (model, opt) = trained(&ds);
        let good = encode_snapshot(&model, &opt, [0, 1, 2, 3], &sample_progress(), None, None);
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_snapshot(&bad_magic),
            Err(SnapshotError::Decode(DecodeError::BadMagic))
        ));
        let mut bad_version = good.clone();
        bad_version[4] = 0xEE;
        assert!(matches!(
            decode_snapshot(&bad_version),
            Err(SnapshotError::Decode(DecodeError::BadVersion(_)))
        ));
        let mut bad_body = good;
        let mid = bad_body.len() / 2;
        bad_body[mid] ^= 0x01;
        assert!(matches!(
            decode_snapshot(&bad_body),
            Err(SnapshotError::CrcMismatch { .. })
        ));
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn retention_keeps_only_the_newest_snapshots() {
        let ds = tiny_ds();
        let (model, opt) = trained(&ds);
        let dir = fresh_dir("fvae_ckpt_retention_test");
        let cp = Checkpointer::new(&dir, 1, 2).expect("create");
        for step in 1..=5u64 {
            let progress = TrainProgress { global_step: step, ..sample_progress() };
            cp.save(&model, &opt, [step, 0, 0, 0], &progress, None, None).expect("save");
        }
        let names: Vec<u64> = Checkpointer::list(&dir)
            .expect("list")
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(names, vec![4, 5], "only the two newest snapshots survive");
        // Atomic writes never leave temp files behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_falls_back_over_corrupt_snapshots() {
        let ds = tiny_ds();
        let (model, opt) = trained(&ds);
        let dir = fresh_dir("fvae_ckpt_fallback_test");
        let cp = Checkpointer::new(&dir, 1, 10).expect("create");
        let mut paths = Vec::new();
        for step in 1..=3u64 {
            let progress = TrainProgress { global_step: step, ..sample_progress() };
            paths.push(cp.save(&model, &opt, [step, 0, 0, 0], &progress, None, None).expect("save"));
        }
        // Corrupt the newest snapshot's payload.
        let newest = paths.last().expect("non-empty");
        let mut data = fs::read(newest).expect("read");
        let mid = data.len() / 2;
        data[mid] ^= 0x10;
        fs::write(newest, &data).expect("write corrupt");

        let loaded = Checkpointer::load_latest(&dir).expect("loads").expect("present");
        assert_eq!(loaded.snapshot.rng_state, [2, 0, 0, 0], "fell back to step 2");
        assert_eq!(loaded.skipped.len(), 1);
        assert!(matches!(loaded.skipped[0].1, SnapshotError::CrcMismatch { .. }));

        // Corrupt the remaining two as well: typed all-corrupt error.
        for p in &paths[..2] {
            let mut data = fs::read(p).expect("read");
            let mid = data.len() / 2;
            data[mid] ^= 0x10;
            fs::write(p, &data).expect("write corrupt");
        }
        match Checkpointer::load_latest(&dir) {
            Err(SnapshotError::NoUsableSnapshot { tried, .. }) => assert_eq!(tried, 3),
            other => panic!("expected NoUsableSnapshot, got {:?}", other.map(|_| ())),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_on_missing_or_empty_dir_is_none() {
        let dir = fresh_dir("fvae_ckpt_missing_test");
        assert!(Checkpointer::load_latest(&dir).expect("ok").is_none());
        fs::create_dir_all(&dir).expect("mkdir");
        assert!(Checkpointer::load_latest(&dir).expect("ok").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn due_follows_the_step_cadence() {
        let dir = fresh_dir("fvae_ckpt_due_test");
        let cp = Checkpointer::new(&dir, 3, 1).expect("create");
        assert!(!cp.due(1) && !cp.due(2) && cp.due(3) && !cp.due(4) && cp.due(6));
        let zero = Checkpointer::new(&dir, 0, 1).expect("create");
        assert!(!zero.due(1) && !zero.due(100));
        let _ = fs::remove_dir_all(&dir);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The progress codec is the identity over arbitrary contents.
            #[test]
            fn progress_roundtrip(
                epoch in 0u64..1000,
                step_in_epoch in 0u64..1000,
                global_step in 0u64..100_000,
                order in proptest::collection::vec(0u64..10_000, 0..200),
                recon in -1e9f64..1e9,
                kl in -1e9f64..1e9,
                cand in 0f64..1e9,
                beta in 0f32..2.0,
            ) {
                let p = TrainProgress {
                    epoch,
                    step_in_epoch,
                    global_step,
                    epoch_order: order,
                    recon_sum: recon,
                    kl_sum: kl,
                    cand_sum: cand,
                    beta,
                };
                let mut buf = Vec::new();
                put_progress(&mut buf, &p);
                let got = get_progress(&mut Reader::new(&buf)).expect("decodes");
                prop_assert_eq!(got, p);
            }

            /// Decoding an arbitrary byte soup never panics and never
            /// succeeds (the magic/CRC gate rejects it).
            #[test]
            fn arbitrary_bytes_never_decode(words in proptest::collection::vec(any::<u32>(), 0..512)) {
                let data: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                prop_assert!(decode_snapshot(&data).is_err());
            }
        }
    }
}
