//! The `fvae-serve` server: micro-batched online embedding inference.
//!
//! ## Architecture
//!
//! The connection core (`crate::net`) runs one **accept thread** and one
//! blocking **connection thread** per client; this module is the shard's
//! `Handler` on it. Embed requests that miss the
//! LRU cache become `Pending` cells on a **bounded queue**; a single
//! **batch thread** sleeps only while that queue is empty: the moment the
//! encoder is free it takes whatever is queued (at most `batch_size`), runs
//! one batched encoder forward on the shared [`fvae_pool`] workers, and
//! fulfils every cell. A lone request on an idle server is encoded at once;
//! under load requests pile up behind the running forward and the next
//! batch grows by itself. When the queue is full the connection thread
//! answers `Overloaded` immediately — the queue never grows without bound
//! and every request gets exactly one reply.
//!
//! All allocation happens on connection threads (parsing, reply frames,
//! pre-sized pending cells). The batch loop itself — drain, build input,
//! forward, fulfil, cache — reuses its buffers and is allocation-free in
//! steady state (verified by the soak test through the [`BatchProbe`]
//! hook).
//!
//! ## Hot reload
//!
//! The serving model lives behind `RwLock<Arc<ModelState>>`. A reload
//! decodes and validates the newest snapshot *off to the side*, on the
//! thread that asked for it while the batch thread keeps encoding, then
//! atomically swaps the `Arc` — in-flight batches keep the snapshot they
//! started with, and no request is ever dropped. Checkpoint identity is the
//! FNV-1a hash of the [`fvae_core::normalized_snapshot_bytes`], so
//! re-exporting an identical model is recognised as a no-op and skipped. A
//! reload that finds no usable snapshot (corrupt files, empty dir), or
//! whose load panics, fails loudly while the old model keeps serving.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU32;
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fvae_core::{
    decode_snapshot, normalized_snapshot_bytes, Checkpointer, Encoder, EncoderScratch, InputRows,
    QuantizedEncoder, QuantizedEncoderScratch, SnapshotError,
};
use fvae_obs::{Counter, Gauge, Histogram, Registry, TraceEvent};
use fvae_tensor::Matrix;

use crate::cache::{fnv64, row_hash, EmbedCache};
use crate::net::{self, Handler, Net, Request};
use crate::protocol::{error_code, FieldRow, Message};

// ---------------------------------------------------------------------------
// Trace stages
// ---------------------------------------------------------------------------

/// The serve pipeline's trace stages, in request order. Every embed request
/// carries one trace id through all six; the same names label the
/// `fvae_serve_stage_ns{stage=...}` histograms.
pub static TRACE_STAGES: &[&str] =
    &["decode", "admission", "queue_wait", "batch_form", "encode", "reply_write"];

// `decode` (0) and `reply_write` (5) are recorded by the connection core.
const ST_ADMISSION: usize = 1;
const ST_QUEUE_WAIT: usize = 2;
const ST_BATCH_FORM: usize = 3;
const ST_ENCODE: usize = 4;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Server configuration. [`ServeConfig::new`] fills in serving defaults;
/// every knob is public for tests and the CLI.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Directory holding `.fvck` snapshots; the newest usable one is
    /// served and re-scanned on reload.
    pub checkpoint_dir: PathBuf,
    /// Listen host (default `127.0.0.1`).
    pub host: String,
    /// Listen port; 0 binds an ephemeral port (see [`Server::addr`]).
    pub port: u16,
    /// Maximum requests coalesced into one encoder forward (at least 1;
    /// [`Server::start`] refuses 0).
    pub batch_size: usize,
    /// Bound on queued (admitted, unserved) requests; beyond it new
    /// requests are answered `Overloaded`.
    pub queue_capacity: usize,
    /// LRU embedding cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// How long a connection thread waits for its batch result before
    /// giving up with a timeout error.
    pub reply_timeout: Duration,
    /// Numeric mode of the serving encoder (`--quant` on the CLI).
    pub quant: QuantMode,
    /// Slots in the trace ring buffer (rounded up to a power of two).
    /// Six events per traced request, newest-wins; 4096 slots ≈ the last
    /// ~680 requests.
    pub trace_capacity: usize,
    /// Optional embedding-store file (the `EmbeddingStore::to_bytes`
    /// format); when set, the server builds an ANN index over it at start
    /// and answers `NearestRequest` frames. Each reload re-reads the file
    /// and swaps in a fresh index iff its bytes changed.
    pub embeddings: Option<PathBuf>,
    /// Test-only fault injector: while non-zero, each accepted connection
    /// decrements it and behaves as if spawning the connection thread
    /// failed (exercising the error-frame + accounting path, which real
    /// spawn failures only hit under fd/thread exhaustion).
    #[doc(hidden)]
    pub fail_conn_spawns: Arc<AtomicU32>,
}

/// Numeric mode the encoder forward runs in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QuantMode {
    /// Full-precision f32 forward (through the dispatched SIMD kernels).
    #[default]
    F32,
    /// Int8 weights + dynamic int8 activations with exact i32 accumulation;
    /// the snapshot's dense trunk is quantized at load (and reload) time.
    Int8,
}

impl std::str::FromStr for QuantMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f32" | "none" | "off" => Ok(QuantMode::F32),
            "int8" | "i8" => Ok(QuantMode::Int8),
            other => Err(format!("unknown quant mode '{other}' (expected f32 or int8)")),
        }
    }
}

impl ServeConfig {
    /// Defaults tuned for tiny models and tests: small batches.
    pub fn new(checkpoint_dir: impl Into<PathBuf>) -> Self {
        Self {
            checkpoint_dir: checkpoint_dir.into(),
            host: "127.0.0.1".to_string(),
            port: 0,
            batch_size: 32,
            queue_capacity: 1024,
            cache_capacity: 4096,
            reply_timeout: Duration::from_secs(30),
            quant: QuantMode::F32,
            trace_capacity: 4096,
            embeddings: None,
            fail_conn_spawns: Arc::new(AtomicU32::new(0)),
        }
    }
}

/// Errors starting or reloading a server.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem failure.
    Io(io::Error),
    /// The checkpoint directory had no usable snapshot (or decoding
    /// failed).
    Snapshot(SnapshotError),
    /// The checkpoint directory exists but holds no snapshot files at all.
    NoCheckpoint(PathBuf),
    /// A reload failed; the previous model keeps serving.
    Reload(String),
    /// `ServeConfig::batch_size` was 0: the batch thread would drain zero
    /// requests per turn and never empty the queue.
    ZeroBatchSize,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ServeError::NoCheckpoint(dir) => {
                write!(f, "no checkpoint files in {}", dir.display())
            }
            ServeError::Reload(msg) => write!(f, "reload failed: {msg}"),
            ServeError::ZeroBatchSize => write!(f, "batch_size must be at least 1"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Handles into the server's metrics [`Registry`] (Prometheus-rendered via
/// `MetricsRequest` or [`Server::metrics_text`]); the core's [`Net`] holds
/// the connection, error and per-stage series.
struct ServeMetrics {
    requests: Counter,
    replies_ok: Counter,
    overloaded: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    batches: Counter,
    batch_size: Histogram,
    latency_us: Histogram,
    queue_depth: Gauge,
    reloads: Counter,
    reload_noops: Counter,
    reload_errors: Counter,
    nearest_requests: Counter,
    nearest_errors: Counter,
    /// Embedding-store index swaps on reload (unchanged bytes don't count).
    nearest_reloads: Counter,
    /// 1 when the int8 quantized encoder is serving, 0 for f32.
    quantized: Gauge,
    /// Wall time of each batch's encoder forward (the compute core of the
    /// serve path, excluding queueing and reply fan-out).
    encode_ns: Histogram,
}

impl ServeMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            requests: registry.counter("fvae_serve_requests"),
            replies_ok: registry.counter("fvae_serve_replies_ok"),
            overloaded: registry.counter("fvae_serve_overloaded"),
            cache_hits: registry.counter("fvae_serve_cache_hits"),
            cache_misses: registry.counter("fvae_serve_cache_misses"),
            batches: registry.counter("fvae_serve_batches"),
            batch_size: registry.histogram("fvae_serve_batch_size"),
            latency_us: registry.histogram("fvae_serve_latency_us"),
            queue_depth: registry.gauge("fvae_serve_queue_depth"),
            reloads: registry.counter("fvae_serve_reloads"),
            reload_noops: registry.counter("fvae_serve_reload_noops"),
            reload_errors: registry.counter("fvae_serve_reload_errors"),
            nearest_requests: registry.counter("fvae_serve_nearest_requests"),
            nearest_errors: registry.counter("fvae_serve_nearest_errors"),
            nearest_reloads: registry.counter("fvae_serve_nearest_reloads"),
            quantized: registry.gauge("fvae_serve_quantized"),
            encode_ns: registry.histogram("fvae_serve_encode_ns"),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

/// The immutable serving snapshot: the encoder forward plus the identity of
/// the checkpoint its weights came from. Swapped atomically on reload.
struct ModelState {
    forward: Forward,
    ckpt_id: u64,
    path: PathBuf,
}

/// The forward a server runs, in its [`QuantMode`].
enum Forward {
    F32(Encoder),
    /// The snapshot's dense trunk quantized at load time, over the f32
    /// encoder's sparse front (the one copy of the bags).
    Int8(QuantizedEncoder),
}

impl Forward {
    fn n_fields(&self) -> usize {
        match self {
            Forward::F32(enc) => enc.n_fields(),
            Forward::Int8(q) => q.n_fields(),
        }
    }

    fn latent_dim(&self) -> usize {
        match self {
            Forward::F32(enc) => enc.latent_dim(),
            Forward::Int8(q) => q.latent_dim(),
        }
    }
}

/// The immutable nearest-neighbour snapshot: an ANN index over the
/// embedding store file, plus the identity of the bytes it was built from.
/// Swapped atomically on reload — a search runs entirely against one
/// `Arc`'d state, so a concurrent swap can never produce a torn top-k.
struct NearestState {
    index: fvae_ann::AnyIndex,
    /// FNV-1a hash of the embedding-store file bytes; stamped into every
    /// `NearestReply` so clients (and the reload-atomicity test) can tell
    /// exactly which index answered.
    index_id: u64,
}

/// Reads the embedding-store file and builds the serving index over it
/// ([`fvae_ann::auto_build`]: flat below threshold, IVF-PQ above) — unless
/// its bytes hash to `current`, the index already serving (`Ok(None)`).
fn load_nearest_state(path: &Path, current: Option<u64>) -> Result<Option<NearestState>, ServeError> {
    let raw = std::fs::read(path)?;
    let index_id = fnv64(&raw);
    if current == Some(index_id) {
        return Ok(None);
    }
    let bad_store =
        |e: &dyn fmt::Display| ServeError::Reload(format!("embedding store {}: {e}", path.display()));
    let file = fvae_ann::io::read_embeddings(raw.as_slice()).map_err(|e| bad_store(&e))?;
    let index =
        fvae_ann::auto_build(file.dim, &file.ids, &file.data).map_err(|e| bad_store(&e))?;
    Ok(Some(NearestState { index, index_id }))
}

/// Re-reads the embedding-store file (when one is configured) and swaps in
/// a freshly built index iff the file bytes changed — the `nearest` half of
/// a reload. The swap is a single `Arc` store: queries in flight finish on
/// the index they started with, and no query ever sees a mix. On error the
/// old index keeps serving.
fn refresh_nearest(shared: &Shared) -> Result<(), ServeError> {
    let Some(path) = &shared.cfg.embeddings else {
        return Ok(());
    };
    let current = shared.nearest().map(|s| s.index_id);
    // `None`: a byte-identical store keeps the built index.
    if let Some(state) = load_nearest_state(path, current)? {
        *shared.nearest.write().expect("serve nearest lock") = Some(Arc::new(state));
        shared.metrics.nearest_reloads.inc();
    }
    Ok(())
}

/// Where one pending request's reply lands.
enum ReplyState {
    Waiting,
    Ready,
}

struct PendingSlot {
    state: ReplyState,
    ckpt_id: u64,
    /// Pre-sized by the connection thread; the batch thread only copies
    /// into it.
    emb: Vec<f32>,
}

/// One admitted embed request parked on the batch queue.
struct Pending {
    row_hash: u64,
    fields: Vec<FieldRow>,
    /// Request identity in the trace ring; the batch thread records the
    /// queue_wait/batch_form/encode spans under it.
    trace_id: u64,
    /// Trace-clock timestamp of admission — the queue_wait span's start.
    enqueued_ns: u64,
    slot: Mutex<PendingSlot>,
    cv: Condvar,
}

/// Phase marker passed to a [`BatchProbe`]: once before the batch forward
/// begins and once after every reply cell is fulfilled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchPhase {
    /// About to build the batch input and run the encoder.
    Start,
    /// All replies for the batch are fulfilled and cached.
    End,
}

/// Test hook running *on the batch thread* around each batch, receiving
/// the batch size. The soak test uses it to bracket the loop with a
/// counting allocator.
pub type BatchProbe = Box<dyn FnMut(BatchPhase, usize) + Send>;

struct Shared {
    cfg: ServeConfig,
    net: Net,
    model: RwLock<Arc<ModelState>>,
    /// `None` when the server was started without `--embeddings`.
    nearest: RwLock<Option<Arc<NearestState>>>,
    queue: Mutex<VecDeque<Arc<Pending>>>,
    work_cv: Condvar,
    cache: Mutex<EmbedCache>,
    metrics: ServeMetrics,
    /// Serializes reloads (concurrent requests would race the swap).
    reload_lock: Mutex<()>,
}

impl Shared {
    /// The serving model right now; a reload swaps it for later reads only.
    fn model(&self) -> RwLockReadGuard<'_, Arc<ModelState>> {
        self.model.read().expect("serve model lock")
    }

    /// The nearest-neighbour index right now, if a store is loaded.
    fn nearest(&self) -> Option<Arc<NearestState>> {
        self.nearest.read().expect("serve nearest lock").clone()
    }
}

/// Outcome of a successful reload.
#[derive(Clone, Debug)]
pub struct ReloadOutcome {
    /// `false` when the newest snapshot was already being served.
    pub changed: bool,
    /// Identity (normalized-bytes hash) of the active checkpoint.
    pub ckpt_id: u64,
    /// File the active checkpoint was loaded from.
    pub path: PathBuf,
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A running serve instance. Dropping it performs a full graceful
/// shutdown: queued requests are drained and answered first.
pub struct Server {
    shared: Arc<Shared>,
    batch: Option<JoinHandle<()>>,
}

impl Server {
    /// Loads the newest checkpoint and starts serving.
    pub fn start(cfg: ServeConfig) -> Result<Self, ServeError> {
        Self::start_with_probe(cfg, None)
    }

    /// [`Server::start`] with a batch-thread probe installed (test hook).
    pub fn start_with_probe(cfg: ServeConfig, probe: Option<BatchProbe>) -> Result<Self, ServeError> {
        if cfg.batch_size == 0 {
            return Err(ServeError::ZeroBatchSize);
        }
        let state = load_model_state(&cfg.checkpoint_dir, cfg.quant, None)?;
        let nearest = match &cfg.embeddings {
            None => None,
            Some(path) => load_nearest_state(path, None)?.map(Arc::new),
        };
        let dim = state.forward.latent_dim();
        let (net, listener) = Net::bind(
            "serve",
            &cfg.host,
            cfg.port,
            TRACE_STAGES,
            cfg.trace_capacity,
            Arc::clone(&cfg.fail_conn_spawns),
            Registry::new(),
        )?;
        let cache_capacity = cfg.cache_capacity;
        let shared = Arc::new(Shared {
            metrics: ServeMetrics::new(&net.registry),
            net,
            model: RwLock::new(Arc::new(state)),
            nearest: RwLock::new(nearest),
            queue: Mutex::new(VecDeque::with_capacity(cfg.queue_capacity)),
            work_cv: Condvar::new(),
            cache: Mutex::new(EmbedCache::new(cache_capacity, dim)),
            reload_lock: Mutex::new(()),
            cfg,
        });
        shared
            .metrics
            .quantized
            .set(if shared.cfg.quant == QuantMode::Int8 { 1.0 } else { 0.0 });

        let batch = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fvae-serve-batch".into())
                .spawn(move || batch_loop(&shared, probe))?
        };
        let server = Self { shared, batch: Some(batch) };
        net::start(&server.shared, listener)?;
        Ok(server)
    }

    /// The bound listen address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.net.addr()
    }

    /// Identity of the checkpoint currently being served.
    pub fn ckpt_id(&self) -> u64 {
        self.shared.model().ckpt_id
    }

    /// Latent dimensionality of served embeddings.
    pub fn latent_dim(&self) -> usize {
        self.shared.model().forward.latent_dim()
    }

    /// Field count requests must supply.
    pub fn n_fields(&self) -> usize {
        self.shared.model().forward.n_fields()
    }

    /// Whether the int8 quantized encoder is serving (the `--quant int8`
    /// mode; reload preserves it).
    pub fn quantized(&self) -> bool {
        matches!(self.shared.model().forward, Forward::Int8(_))
    }

    /// Identity of the embedding-store index currently answering
    /// `NearestRequest` frames (`None` without `--embeddings`).
    pub fn nearest_index_id(&self) -> Option<u64> {
        self.shared.nearest().map(|s| s.index_id)
    }

    /// In-process nearest-neighbour query against the same index the
    /// `NearestRequest` frame is answered from, or `None` when no embedding
    /// store is loaded. The RPC path must be bit-identical to this.
    pub fn nearest(&self, query: &[f32], k: usize) -> Option<Vec<(u64, f32)>> {
        use fvae_ann::AnnIndex as _;
        let state = self.shared.nearest()?;
        Some(state.index.search(query, k).into_iter().map(|n| (n.id, n.score)).collect())
    }

    /// Prometheus text of the server's metrics registry.
    pub fn metrics_text(&self) -> String {
        self.shared.net.registry.render()
    }

    /// Chrome `trace_event` JSON of the most recent request spans
    /// (in-process equivalent of the `TraceRequest` frame).
    pub fn trace_json(&self) -> String {
        self.shared.net.trace.chrome_trace_json()
    }

    /// Snapshot of the resident trace events, sorted by start time.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.shared.net.trace.events()
    }

    /// Reloads the newest checkpoint (in-process equivalent of the
    /// `ReloadRequest` frame).
    pub fn reload(&self) -> Result<ReloadOutcome, ServeError> {
        reload(&self.shared, None)
    }

    /// Activates the snapshot with this exact identity (in-process
    /// equivalent of the `ReloadToRequest` frame); a no-op when already
    /// serving it, an error (old model keeps serving) when no snapshot in
    /// the checkpoint directory matches.
    pub fn reload_to(&self, ckpt_id: u64) -> Result<ReloadOutcome, ServeError> {
        reload(&self.shared, Some(ckpt_id))
    }

    /// Number of connections currently registered: each connection thread
    /// removes its own entry as it exits, so on an idle server this drains
    /// to zero without any new connection arriving (the idle-drain
    /// regression test watches it).
    pub fn live_connections(&self) -> usize {
        self.shared.net.live_connections()
    }

    /// Whether shutdown has been signalled (by [`Server::shutdown`], drop,
    /// or a client `Shutdown` frame).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.net.shutdown_requested()
    }

    /// Blocks until shutdown is signalled — the CLI's serving loop.
    pub fn wait(&self) {
        self.shared.net.wait();
    }

    /// Graceful stop: refuse new work, drain the queue (every admitted
    /// request still gets its reply), then wait out every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        let batch = self.batch.take();
        // Replies are fulfilled before the core wakes connection threads.
        net::shutdown(&*self.shared, || {
            if let Some(h) = batch {
                let _ = h.join();
            }
        });
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Checkpoint loading / reload
// ---------------------------------------------------------------------------

/// Loads the serving snapshot from `dir`: the newest usable one, or the
/// one whose normalized-bytes identity equals `target` — the server half of
/// a router rollback, which must re-activate a *specific* checkpoint.
/// Unreadable or corrupt files are skipped (they can't be the target); a
/// directory with no matching snapshot is an error.
fn load_model_state(
    dir: &Path,
    quant: QuantMode,
    target: Option<u64>,
) -> Result<ModelState, ServeError> {
    let (snapshot, ckpt_id, path) = match target {
        None => {
            let loaded = Checkpointer::load_latest(dir)
                .map_err(ServeError::Snapshot)?
                .ok_or_else(|| ServeError::NoCheckpoint(dir.to_path_buf()))?;
            // Hash the same bytes the snapshot was decoded from — a fresh
            // read of the file could race a rewrite and stamp the weights
            // with a different checkpoint's identity (which keys the
            // embedding cache).
            let normalized = normalized_snapshot_bytes(&loaded.raw).map_err(ServeError::Snapshot)?;
            (loaded.snapshot, fnv64(&normalized), loaded.path)
        }
        Some(target) => {
            let matching = Checkpointer::list_snapshot_files(dir)?.into_iter().find_map(|path| {
                let raw = std::fs::read(&path).ok()?;
                let normalized = normalized_snapshot_bytes(&raw).ok()?;
                (fnv64(&normalized) == target).then_some((path, raw))
            });
            let (path, raw) = matching.ok_or_else(|| {
                ServeError::Reload(format!(
                    "no snapshot in {} has identity {target:#018x}",
                    dir.display()
                ))
            })?;
            (decode_snapshot(&raw).map_err(ServeError::Snapshot)?, target, path)
        }
    };
    let (model, _resume) = snapshot.into_resume();
    let encoder = Encoder::from(model);
    let forward = match quant {
        QuantMode::F32 => Forward::F32(encoder),
        QuantMode::Int8 => Forward::Int8(QuantizedEncoder::from_encoder(&encoder)),
    };
    Ok(ModelState { forward, ckpt_id, path })
}

/// Loads, validates, and swaps in the newest snapshot — or the one with
/// exactly the `target` identity (a no-op when already serving), which is
/// how the router's coordinated reload rolls every shard back when any
/// shard's forward reload fails. The load runs on the calling thread; the
/// swap itself is a single `Arc` store, so in-flight batches finish on the
/// model they started with.
///
/// A load that panics is caught here and answered as a failed reload: the
/// caller gets its one error, `reload_lock` is released normally (never
/// poisoned), and the old model keeps serving.
fn reload(shared: &Shared, target: Option<u64>) -> Result<ReloadOutcome, ServeError> {
    contain_reload(shared, || {
        // The embedding-store half first: it has its own no-op detection,
        // and a failure here (store file unreadable/corrupt) fails the
        // reload while both the old model and the old index keep serving.
        refresh_nearest(shared)?;
        swap_model(shared, target)
    })
}

/// Runs one reload under `reload_lock`, turning a panic into an error and
/// counting every error in `fvae_serve_reload_errors`.
fn contain_reload(
    shared: &Shared,
    load: impl FnOnce() -> Result<ReloadOutcome, ServeError>,
) -> Result<ReloadOutcome, ServeError> {
    let _serialize = shared.reload_lock.lock().expect("reload mutex");
    let outcome = catch_unwind(AssertUnwindSafe(load)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("no message");
        Err(ServeError::Reload(format!("snapshot load panicked: {msg}")))
    });
    if outcome.is_err() {
        shared.metrics.reload_errors.inc();
    }
    outcome
}

/// The model half of [`reload`].
///
/// A snapshot whose architecture (field count or latent dim) differs from
/// the serving setup is rejected: the embedding cache slab, pre-sized
/// reply cells, and admitted requests are all sized for the startup
/// architecture, so swapping one in would panic the batch thread on its
/// next batch and wedge the server. Such a model needs a fresh process.
fn swap_model(shared: &Shared, target: Option<u64>) -> Result<ReloadOutcome, ServeError> {
    let current = Arc::clone(&shared.model());
    if target == Some(current.ckpt_id) {
        // Targeted no-op resolves without touching the filesystem — the
        // identity is already known to match.
        shared.metrics.reload_noops.inc();
        return Ok(ReloadOutcome { changed: false, ckpt_id: current.ckpt_id, path: current.path.clone() });
    }
    // Reload re-quantizes under the startup mode: the serving numeric
    // contract never changes across a hot swap.
    let cfg = &shared.cfg;
    let state = load_model_state(&cfg.checkpoint_dir, cfg.quant, target)?;
    if state.ckpt_id == current.ckpt_id {
        shared.metrics.reload_noops.inc();
        return Ok(ReloadOutcome { changed: false, ckpt_id: current.ckpt_id, path: state.path });
    }
    let (cur_fields, cur_dim) = (current.forward.n_fields(), current.forward.latent_dim());
    let (new_fields, new_dim) = (state.forward.n_fields(), state.forward.latent_dim());
    if new_fields != cur_fields || new_dim != cur_dim {
        return Err(ServeError::Reload(format!(
            "architecture mismatch: serving {cur_fields} fields × {cur_dim} latent, \
             snapshot {} has {new_fields} fields × {new_dim} latent; \
             restart the server to change architectures",
            state.path.display()
        )));
    }
    let out = ReloadOutcome { changed: true, ckpt_id: state.ckpt_id, path: state.path.clone() };
    *shared.model.write().expect("serve model lock") = Arc::new(state);
    shared.metrics.reloads.inc();
    Ok(out)
}

// ---------------------------------------------------------------------------
// The shard's handler on the connection core
// ---------------------------------------------------------------------------

impl Handler for Shared {
    type Conn = ();

    fn net(&self) -> &Net {
        &self.net
    }

    /// Wakes the batch thread to drain the queue and exit. Going through
    /// the queue lock keeps the wake-up from falling between that thread's
    /// flag check and its park; admission checks the flag under the same
    /// lock, so nothing is enqueued once the batch thread has seen the flag
    /// with an empty queue.
    fn shutdown_signalled(&self) {
        let _q = self.queue.lock().expect("serve queue mutex");
        self.work_cv.notify_all();
    }

    fn handle(self: &Arc<Self>, req: Request, decode_start: u64, _conn: &mut ()) -> (Option<u64>, Message) {
        match req {
            Request::Embed { req_id, fields } => {
                // The traced path: one id from decode to reply write.
                let trace_id = self.net.begin_trace(decode_start);
                (Some(trace_id), serve_embed(self, trace_id, req_id, fields))
            }
            Request::Nearest { req_id, k, query } => (None, serve_nearest(self, req_id, k, &query)),
            Request::Info => {
                let model = self.model();
                let reply = Message::InfoReply {
                    n_fields: model.forward.n_fields() as u32,
                    latent_dim: model.forward.latent_dim() as u32,
                    ckpt_id: model.ckpt_id,
                    quantized: matches!(model.forward, Forward::Int8(_)),
                };
                (None, reply)
            }
            Request::Reload(target) => {
                let reply = match reload(self, target) {
                    Ok(out) => Message::ReloadReply {
                        ok: true,
                        changed: out.changed,
                        ckpt_id: out.ckpt_id,
                        detail: out.path.display().to_string(),
                    },
                    Err(e) => Message::ReloadReply {
                        ok: false,
                        changed: false,
                        ckpt_id: self.model().ckpt_id,
                        detail: e.to_string(),
                    },
                };
                (None, reply)
            }
        }
    }
}

/// Answers one nearest-neighbour request from the loaded embedding store.
fn serve_nearest(shared: &Shared, req_id: u64, k: u32, query: &[f32]) -> Message {
    use fvae_ann::AnnIndex as _;
    shared.metrics.nearest_requests.inc();
    // Clone the Arc under the read lock, search outside it: the whole query
    // runs against one index snapshot, and a reload swapping mid-search
    // affects later queries only.
    let (code, msg) = match shared.nearest() {
        None => (
            error_code::UNAVAILABLE,
            "no embedding store loaded (start with --embeddings)".to_string(),
        ),
        Some(state) if query.len() != state.index.dim() => (
            error_code::BAD_REQUEST,
            format!("query dim {} does not match store dim {}", query.len(), state.index.dim()),
        ),
        Some(state) => {
            let neighbors = state.index.search(query, k as usize);
            return Message::NearestReply {
                req_id,
                index_id: state.index_id,
                ids: neighbors.iter().map(|n| n.id).collect(),
                scores: neighbors.iter().map(|n| n.score).collect(),
            };
        }
    };
    shared.metrics.nearest_errors.inc();
    Message::ErrorReply { req_id, code, msg }
}

/// Full request path for one embed request: validate → cache probe →
/// bounded enqueue → wait for the batch thread → reply. Exactly one reply
/// per request, on every path.
///
/// The admission span covers validation, the cache probe, and the bounded
/// enqueue — everything up to the request either parking on the queue or
/// resolving terminally (cache hit, error, overload).
fn serve_embed(shared: &Arc<Shared>, trace_id: u64, req_id: u64, fields: Vec<FieldRow>) -> Message {
    shared.metrics.requests.inc();
    let started = Instant::now();
    let adm_start = shared.net.trace.now_ns();
    let end_admission = || shared.net.end_stage(trace_id, ST_ADMISSION, adm_start);
    let reject = |code: u16, msg: String| {
        end_admission();
        shared.net.error_reply(req_id, code, msg)
    };
    let (n_fields, dim, ckpt_id) = {
        let model = shared.model();
        (model.forward.n_fields(), model.forward.latent_dim(), model.ckpt_id)
    };
    if fields.len() != n_fields {
        let msg = format!("expected {n_fields} fields, got {}", fields.len());
        return reject(error_code::BAD_REQUEST, msg);
    }
    if fields.iter().any(|(ids, vals)| ids.len() != vals.len()) {
        return reject(error_code::BAD_REQUEST, "ids/weights length mismatch".to_string());
    }
    let hash = row_hash(&fields);
    if let Some(hit) = shared.cache.lock().expect("cache mutex").get(ckpt_id, hash) {
        shared.metrics.cache_hits.inc();
        shared.metrics.replies_ok.inc();
        shared.metrics.latency_us.record(started.elapsed().as_micros() as u64);
        end_admission();
        return Message::EmbedReply { req_id, ckpt_id, embedding: hit.to_vec() };
    }
    shared.metrics.cache_misses.inc();

    let pending = Arc::new(Pending {
        row_hash: hash,
        fields,
        trace_id,
        // Queue wait starts here; the few hundred ns of lock acquisition
        // below are queueing delay too.
        enqueued_ns: shared.net.trace.now_ns(),
        slot: Mutex::new(PendingSlot { state: ReplyState::Waiting, ckpt_id: 0, emb: vec![0.0; dim] }),
        cv: Condvar::new(),
    });
    {
        let mut q = shared.queue.lock().expect("serve queue mutex");
        if shared.net.shutdown_requested() {
            return reject(error_code::SHUTTING_DOWN, "server is shutting down".to_string());
        }
        if q.len() >= shared.cfg.queue_capacity {
            shared.metrics.overloaded.inc();
            end_admission();
            return Message::Overloaded { req_id };
        }
        q.push_back(Arc::clone(&pending));
        shared.metrics.queue_depth.inc();
        shared.work_cv.notify_one();
        drop(q);
        end_admission();
    }

    let deadline = Instant::now() + shared.cfg.reply_timeout;
    let mut slot = pending.slot.lock().expect("pending mutex");
    loop {
        match slot.state {
            ReplyState::Ready => break,
            ReplyState::Waiting => {
                let now = Instant::now();
                if now >= deadline {
                    let msg = "timed out waiting for batch".to_string();
                    return shared.net.error_reply(req_id, error_code::TIMEOUT, msg);
                }
                let (guard, _timeout) = pending
                    .cv
                    .wait_timeout(slot, deadline - now)
                    .expect("pending mutex");
                slot = guard;
            }
        }
    }
    shared.metrics.replies_ok.inc();
    shared.metrics.latency_us.record(started.elapsed().as_micros() as u64);
    Message::EmbedReply { req_id, ckpt_id: slot.ckpt_id, embedding: std::mem::take(&mut slot.emb) }
}

// ---------------------------------------------------------------------------
// Batch thread
// ---------------------------------------------------------------------------

fn batch_loop(shared: &Arc<Shared>, mut probe: Option<BatchProbe>) {
    let mut batch: Vec<Arc<Pending>> = Vec::with_capacity(shared.cfg.batch_size);
    let mut input = InputRows::default();
    let mut scratch = EncoderScratch::default();
    let mut qscratch = QuantizedEncoderScratch::default();
    let mut mu = Matrix::default();
    loop {
        // Wait for work (or shutdown with an empty queue, which ends the
        // loop — anything still queued at shutdown is drained first).
        {
            let mut q = shared.queue.lock().expect("serve queue mutex");
            loop {
                if !q.is_empty() {
                    break;
                }
                if shared.net.shutdown_requested() {
                    return;
                }
                q = shared.work_cv.wait(q).expect("serve queue mutex");
            }
            // Work-conserving: the batch is whatever queued up while the
            // previous forward ran — no timed wait for stragglers.
            let n = q.len().min(shared.cfg.batch_size);
            batch.extend(q.drain(..n));
        }
        let n = batch.len();
        shared.metrics.queue_depth.add(-(n as f64));
        // Batch formation starts the moment the drain completes; each
        // member's queue wait ends here too.
        let formed_start = shared.net.trace.now_ns();
        for p in &batch {
            let wait = formed_start.saturating_sub(p.enqueued_ns);
            shared.net.trace.record(p.trace_id, ST_QUEUE_WAIT, p.enqueued_ns, wait);
            shared.net.stage_ns[ST_QUEUE_WAIT].record(wait);
        }

        // Snapshot the model for the whole batch: a concurrent reload
        // swaps the Arc for *later* batches only.
        let model = Arc::clone(&shared.model());

        if let Some(p) = probe.as_mut() {
            p(BatchPhase::Start, n);
        }
        // Reload rejects architecture changes, so every admitted request's
        // field count matches this snapshot and every reply cell is exactly
        // `latent_dim` wide — the indexing and copies below cannot trip.
        input.reset(model.forward.n_fields());
        for p in &batch {
            debug_assert_eq!(p.fields.len(), model.forward.n_fields());
            input.push_row(|k| (p.fields[k].0.as_slice(), p.fields[k].1.as_slice()));
        }
        let encode_start = shared.net.trace.now_ns();
        match &model.forward {
            Forward::F32(enc) => enc.embed_into(&input, &mut scratch, &mut mu),
            Forward::Int8(q) => q.embed_into(&input, &mut qscratch, &mut mu),
        }
        let encode_dur = shared.net.trace.now_ns().saturating_sub(encode_start);
        let form_dur = encode_start.saturating_sub(formed_start);
        // Shared batch stages land in every member's trace lane (each
        // request's timeline stays complete) but in the stage histograms
        // only once per batch — they happened once.
        for p in &batch {
            shared.net.trace.record(p.trace_id, ST_BATCH_FORM, formed_start, form_dur);
            shared.net.trace.record(p.trace_id, ST_ENCODE, encode_start, encode_dur);
        }
        shared.net.stage_ns[ST_BATCH_FORM].record(form_dur);
        shared.net.stage_ns[ST_ENCODE].record(encode_dur);
        shared.metrics.encode_ns.record(encode_dur);
        {
            let mut cache = shared.cache.lock().expect("cache mutex");
            for (i, p) in batch.iter().enumerate() {
                let row = mu.row(i);
                let mut slot = p.slot.lock().expect("pending mutex");
                if slot.emb.len() == row.len() {
                    slot.emb.copy_from_slice(row);
                } else {
                    // Unreachable while reload enforces a fixed latent_dim;
                    // stay panic-free regardless — a dead batch thread
                    // would wedge every future request.
                    debug_assert!(false, "reply cell width mismatch");
                    slot.emb.clear();
                    slot.emb.extend_from_slice(row);
                }
                slot.ckpt_id = model.ckpt_id;
                slot.state = ReplyState::Ready;
                p.cv.notify_all();
                cache.insert(model.ckpt_id, p.row_hash, row);
            }
        }
        if let Some(p) = probe.as_mut() {
            p(BatchPhase::End, n);
        }
        shared.metrics.batches.inc();
        shared.metrics.batch_size.record(n as u64);
        batch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, EmbedOutcome};
    use fvae_core::{export_model_snapshot, Fvae, FvaeConfig};
    use fvae_data::{FieldSpec, TopicModelConfig};

    #[test]
    fn a_panicking_reload_is_one_error_and_the_old_model_keeps_serving() {
        let ds = TopicModelConfig {
            n_users: 20,
            n_topics: 2,
            alpha: 0.2,
            fields: vec![FieldSpec::new("ch", 8, 2, 1.0), FieldSpec::new("tag", 12, 3, 1.0)],
            pair_prob: 0.0,
            seed: 3,
        }
        .generate();
        let mut cfg = FvaeConfig::for_dataset(&ds);
        cfg.latent_dim = 4;
        cfg.enc_hidden = 8;
        cfg.dec_hidden = vec![8];
        let dir = std::env::temp_dir().join(format!("fvae-serve-reload-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        export_model_snapshot(&dir, &Fvae::new(cfg)).expect("export");
        let server = Server::start(ServeConfig::new(&dir)).expect("start");
        let served = server.ckpt_id();

        let err = contain_reload(&server.shared, || panic!("deliberate load failure"))
            .expect_err("a panicking load is a failed reload");
        assert!(err.to_string().contains("deliberate load failure"), "got: {err}");
        assert!(!server.shared.reload_lock.is_poisoned());
        assert!(server.metrics_text().contains("fvae_serve_reload_errors 1"));

        // The old model keeps serving, and the next reload runs normally.
        let mut client = Client::connect(server.addr()).expect("connect");
        match client.embed(&[(vec![1], vec![1.0]), (vec![2], vec![1.0])]).expect("embed") {
            EmbedOutcome::Embedding { ckpt_id, .. } => assert_eq!(ckpt_id, served),
            other => panic!("{other:?}"),
        }
        let report = client.reload().expect("reload rpc");
        assert!(report.ok && !report.changed && report.ckpt_id == served, "{report:?}");
        drop(client);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
