//! `fvae-router`: a stateless routing tier in front of N `fvae-serve`
//! shards.
//!
//! ## Topology
//!
//! The paper serves production traffic from a fleet of embedding servers
//! behind a router (Fig. 10); this module is that router as a real
//! process. It speaks the same length-prefixed protocol on both sides:
//! downstream it looks exactly like a single `fvae-serve` server (so
//! `Client`, `fvae embed-client`, and `fvae loadgen` work unchanged) —
//! it is a second `Handler` on the same connection core (`crate::net`);
//! upstream it holds a persistent connection pool per shard and forwards
//! each embed request to the shard that owns the request's row hash on a
//! consistent hash ring.
//!
//! ## Routing and failover
//!
//! The ring hashes each shard *index* into `replicas` virtual nodes;
//! a request's `row_hash` binary-searches the ring and walks clockwise to
//! produce a preference order over distinct shards. Every shard serves the
//! full model (sharding is for load spreading and cache affinity, not data
//! partitioning), so any shard can answer any request — a failed RPC
//! re-routes to the next shard in ring order. A shard that fails
//! `fail_threshold` consecutive RPCs is marked **unhealthy** and skipped;
//! after `probe_interval` one request is admitted as a **half-open probe**
//! whose outcome re-admits the shard or re-arms the probe timer. Every
//! request gets exactly one reply on every path: an embedding from the
//! first shard that answers, `Overloaded` when the fleet is saturated, or
//! an `UNAVAILABLE` error when no shard is reachable at all.
//!
//! ## Coordinated reload
//!
//! `ReloadRequest` against the router is transactional across the fleet:
//! the router asks every shard to reload, **commits** only when every
//! shard reports success with the *same* new checkpoint identity, and
//! otherwise **rolls back** every shard to the previous identity via
//! `ReloadToRequest` — so the fleet version reported by `InfoRequest`
//! moves atomically and clients never observe a committed mixed-version
//! fleet.

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::AtomicU32;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use fvae_obs::{Counter, Gauge, Histogram, Registry, TraceEvent};

use crate::cache::{fnv64, row_hash};
use crate::client::{Client, ServerInfo};
use crate::net::{self, Framed, Handler, Net, Request, RELOAD_TIMEOUT_FLOOR};
use crate::protocol::{error_code, Message};

// ---------------------------------------------------------------------------
// Trace stages
// ---------------------------------------------------------------------------

/// The router pipeline's trace stages, in request order. `shard_rpc` is
/// recorded once per upstream attempt, so a failover request shows
/// multiple `shard_rpc` spans under one trace id.
pub static ROUTER_TRACE_STAGES: &[&str] = &["decode", "route", "shard_rpc", "reply_write"];

// `decode` (0) and `reply_write` (3) are recorded by the connection core.
const RT_ROUTE: usize = 1;
const RT_SHARD_RPC: usize = 2;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Router configuration. [`RouterConfig::new`] fills in defaults tuned for
/// small fleets and tests; every knob is public for the CLI.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Shard backend addresses (`host:port`), one per shard index. Ring
    /// positions are derived from the *index*, so a shard restarted on a
    /// new port keeps its ring share.
    pub shards: Vec<String>,
    /// Optional file of shard addresses (line `i` = shard `i`), re-read
    /// before each upstream connect — lets an operator repoint a restarted
    /// shard without restarting the router.
    pub shards_file: Option<PathBuf>,
    /// Listen host (default `127.0.0.1`).
    pub host: String,
    /// Listen port; 0 binds an ephemeral port (see [`Router::addr`]).
    pub port: u16,
    /// Virtual nodes per shard on the hash ring.
    pub replicas: usize,
    /// Persistent upstream connections per shard — also the shard's
    /// bounded in-flight window: at most this many requests are in flight
    /// to one shard at once.
    pub pool_size: usize,
    /// Bound on upstream connection establishment.
    pub connect_timeout: Duration,
    /// Bound on one upstream request/reply exchange.
    pub rpc_timeout: Duration,
    /// How long a request waits for a pooled connection before treating
    /// the shard as saturated and failing over.
    pub pool_wait: Duration,
    /// Maximum distinct shards tried per request (first choice + failover).
    pub max_attempts: usize,
    /// Consecutive RPC failures that mark a shard unhealthy.
    pub fail_threshold: u32,
    /// How long an unhealthy shard sits out before a half-open probe.
    pub probe_interval: Duration,
    /// Slots in the router's trace ring (rounded up to a power of two).
    pub trace_capacity: usize,
}

impl RouterConfig {
    /// Defaults for a small local fleet.
    pub fn new(shards: Vec<String>) -> Self {
        Self {
            shards,
            shards_file: None,
            host: "127.0.0.1".to_string(),
            port: 0,
            replicas: 64,
            pool_size: 4,
            connect_timeout: Duration::from_secs(2),
            rpc_timeout: Duration::from_secs(5),
            pool_wait: Duration::from_millis(250),
            max_attempts: 3,
            fail_threshold: 3,
            probe_interval: Duration::from_millis(500),
            trace_capacity: 4096,
        }
    }
}

/// Errors starting the router.
#[derive(Debug)]
pub enum RouterError {
    /// Socket failure (bind, listen).
    Io(io::Error),
    /// The shard fleet failed validation at startup: a shard was
    /// unreachable, or the shards disagree on architecture / checkpoint
    /// (a mixed-version fleet must never start serving).
    Fleet(String),
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::Io(e) => write!(f, "io error: {e}"),
            RouterError::Fleet(msg) => write!(f, "fleet validation failed: {msg}"),
        }
    }
}

impl std::error::Error for RouterError {}

impl From<io::Error> for RouterError {
    fn from(e: io::Error) -> Self {
        RouterError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// The router's own series; the core's [`Net`] holds the rest.
struct RouterMetrics {
    requests: Counter,
    replies_ok: Counter,
    overloaded: Counter,
    /// Upstream attempts beyond a request's first (failover re-routes).
    retries: Counter,
    latency_us: Histogram,
    /// Number of shards currently marked unhealthy.
    unhealthy_shards: Gauge,
    reloads: Counter,
    reload_noops: Counter,
    reload_errors: Counter,
    /// Failed coordinated reloads whose rollback restored every shard.
    reload_rollbacks: Counter,
}

impl RouterMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            requests: registry.counter("fvae_router_requests"),
            replies_ok: registry.counter("fvae_router_replies_ok"),
            overloaded: registry.counter("fvae_router_overloaded"),
            retries: registry.counter("fvae_router_retries"),
            latency_us: registry.histogram("fvae_router_latency_us"),
            unhealthy_shards: registry.gauge("fvae_router_unhealthy_shards"),
            reloads: registry.counter("fvae_router_reloads"),
            reload_noops: registry.counter("fvae_router_reload_noops"),
            reload_errors: registry.counter("fvae_router_reload_errors"),
            reload_rollbacks: registry.counter("fvae_router_reload_rollbacks"),
        }
    }
}

// ---------------------------------------------------------------------------
// Hash ring
// ---------------------------------------------------------------------------

/// splitmix64 finalizer — mixes a shard/vnode pair into a ring point.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Builds the ring: `replicas` points per shard, keyed by shard *index*
/// (not address), sorted by point. Indices keep their ring share across
/// address changes and restarts.
fn build_ring(n_shards: usize, replicas: usize) -> Vec<(u64, u32)> {
    let mut ring = Vec::with_capacity(n_shards * replicas);
    for s in 0..n_shards {
        for v in 0..replicas {
            let point = mix64(((s as u64) << 32) | (v as u64 + 1));
            ring.push((point, s as u32));
        }
    }
    ring.sort_unstable();
    ring
}

/// The request's shard preference order: binary-search the ring for the
/// hash, then walk clockwise collecting distinct shards. Returns every
/// shard exactly once, nearest ring successor first.
fn ring_candidates(ring: &[(u64, u32)], n_shards: usize, hash: u64, out: &mut Vec<u32>) {
    out.clear();
    if ring.is_empty() {
        return;
    }
    let start = ring.partition_point(|&(p, _)| p < hash) % ring.len();
    for i in 0..ring.len() {
        let (_, shard) = ring[(start + i) % ring.len()];
        if !out.contains(&shard) {
            out.push(shard);
            if out.len() == n_shards {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shard state: health + connection pool
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HealthState {
    /// Serving normally.
    Healthy,
    /// Sat out after `fail_threshold` consecutive failures; requests skip
    /// this shard until `probe_interval` elapses.
    Unhealthy,
    /// One request is in flight as a half-open probe; everyone else still
    /// skips the shard until the probe resolves.
    Probing,
}

struct Health {
    state: HealthState,
    /// When the shard entered `Unhealthy` (probe timer origin).
    since: Instant,
    consecutive_failures: u32,
}

/// The pooled upstream connections of one shard. Any RPC error discards
/// the connection it happened on — after a partial exchange the stream may
/// hold a stray reply, and reusing it would desynchronize every later
/// request on that connection.
struct Pool {
    idle: Vec<Framed>,
    /// Checked-out + idle connections; bounded by `pool_size`, making the
    /// pool double as the shard's in-flight window.
    live: usize,
}

enum CheckoutError {
    /// The in-flight window is full and stayed full past `pool_wait`.
    Busy,
    /// Establishing a fresh connection failed.
    Connect(io::Error),
}

struct Shard {
    idx: usize,
    /// Current address; refreshed from `shards_file` before each connect.
    addr: Mutex<String>,
    pool: Mutex<Pool>,
    pool_cv: Condvar,
    health: Mutex<Health>,
    /// 1 while this shard is unhealthy or probing
    /// (`fvae_router_shard_unhealthy{shard="i"}`).
    unhealthy: Gauge,
    /// RPC failures charged to this shard
    /// (`fvae_router_shard_failures{shard="i"}`).
    failures: Counter,
    /// Per-attempt upstream exchange time
    /// (`fvae_router_shard_rpc_ns{shard="i"}`).
    rpc_ns: Histogram,
}

impl Shard {
    fn new(idx: usize, addr: String, registry: &Registry) -> Self {
        let label = idx.to_string();
        Self {
            idx,
            addr: Mutex::new(addr),
            pool: Mutex::new(Pool { idle: Vec::new(), live: 0 }),
            pool_cv: Condvar::new(),
            health: Mutex::new(Health {
                state: HealthState::Healthy,
                since: Instant::now(),
                consecutive_failures: 0,
            }),
            unhealthy: registry.gauge_with("fvae_router_shard_unhealthy", &[("shard", &label)]),
            failures: registry.counter_with("fvae_router_shard_failures", &[("shard", &label)]),
            rpc_ns: registry.histogram_with("fvae_router_shard_rpc_ns", &[("shard", &label)]),
        }
    }

    /// Gate for routing a request to this shard. `Some(false)`: healthy,
    /// go ahead. `Some(true)`: the shard is due a half-open probe and this
    /// request *is* the probe. `None`: skip the shard.
    fn admit(&self, probe_interval: Duration) -> Option<bool> {
        let mut h = self.health.lock().expect("health mutex");
        match h.state {
            HealthState::Healthy => Some(false),
            HealthState::Unhealthy if h.since.elapsed() >= probe_interval => {
                h.state = HealthState::Probing;
                Some(true)
            }
            HealthState::Unhealthy | HealthState::Probing => None,
        }
    }

    /// A successful exchange: reset the failure streak and re-admit the
    /// shard if it was sidelined.
    fn record_ok(&self, metrics: &RouterMetrics) {
        let mut h = self.health.lock().expect("health mutex");
        h.consecutive_failures = 0;
        if h.state != HealthState::Healthy {
            h.state = HealthState::Healthy;
            self.unhealthy.set(0.0);
            metrics.unhealthy_shards.dec();
        }
    }

    /// A failed exchange (connect, transport, or shard-side serving
    /// error): extend the streak and sideline the shard once it crosses
    /// `fail_threshold`. A failed probe re-arms the probe timer without
    /// re-counting the shard in the unhealthy gauge.
    fn record_failure(&self, fail_threshold: u32, metrics: &RouterMetrics) {
        self.failures.inc();
        let mut h = self.health.lock().expect("health mutex");
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        match h.state {
            HealthState::Probing => {
                h.state = HealthState::Unhealthy;
                h.since = Instant::now();
            }
            HealthState::Healthy if h.consecutive_failures >= fail_threshold => {
                h.state = HealthState::Unhealthy;
                h.since = Instant::now();
                self.unhealthy.set(1.0);
                metrics.unhealthy_shards.inc();
            }
            _ => {}
        }
    }

    /// A probe that could not run (pool saturated): return to `Unhealthy`
    /// with a fresh timer so a later request re-probes.
    fn abort_probe(&self) {
        let mut h = self.health.lock().expect("health mutex");
        if h.state == HealthState::Probing {
            h.state = HealthState::Unhealthy;
            h.since = Instant::now();
        }
    }

    /// Re-reads this shard's address from the shards file (line `idx`),
    /// adopting a changed non-empty entry. Lets a restarted shard re-join
    /// on a new port.
    fn refresh_addr(&self, shards_file: Option<&PathBuf>) -> String {
        if let Some(path) = shards_file {
            if let Ok(text) = std::fs::read_to_string(path) {
                if let Some(line) = text.lines().nth(self.idx) {
                    let line = line.trim();
                    if !line.is_empty() {
                        let mut addr = self.addr.lock().expect("addr mutex");
                        if *addr != line {
                            line.clone_into(&mut addr);
                        }
                        return addr.clone();
                    }
                }
            }
        }
        self.addr.lock().expect("addr mutex").clone()
    }

    /// Takes a pooled connection, dialing a fresh one while the window has
    /// room, or waiting up to `pool_wait` for a checkin.
    fn checkout(&self, cfg: &RouterConfig) -> Result<Framed, CheckoutError> {
        let deadline = Instant::now() + cfg.pool_wait;
        let mut pool = self.pool.lock().expect("pool mutex");
        loop {
            if let Some(conn) = pool.idle.pop() {
                return Ok(conn);
            }
            if pool.live < cfg.pool_size {
                pool.live += 1;
                drop(pool);
                return match self.dial(cfg) {
                    Ok(conn) => Ok(conn),
                    Err(e) => {
                        let mut pool = self.pool.lock().expect("pool mutex");
                        pool.live -= 1;
                        self.pool_cv.notify_one();
                        Err(CheckoutError::Connect(e))
                    }
                };
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CheckoutError::Busy);
            }
            let (guard, _) = self
                .pool_cv
                .wait_timeout(pool, deadline - now)
                .expect("pool mutex");
            pool = guard;
        }
    }

    fn dial(&self, cfg: &RouterConfig) -> io::Result<Framed> {
        let addr = self.refresh_addr(cfg.shards_file.as_ref());
        let conn = Framed::connect_timeout(addr.as_str(), cfg.connect_timeout)?;
        conn.stream().set_read_timeout(Some(cfg.rpc_timeout))?;
        conn.stream().set_write_timeout(Some(cfg.rpc_timeout))?;
        Ok(conn)
    }

    fn checkin(&self, conn: Framed) {
        let mut pool = self.pool.lock().expect("pool mutex");
        pool.idle.push(conn);
        self.pool_cv.notify_one();
    }

    fn discard(&self, conn: Framed) {
        drop(conn);
        let mut pool = self.pool.lock().expect("pool mutex");
        pool.live -= 1;
        self.pool_cv.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Shared state + Router handle
// ---------------------------------------------------------------------------

/// The fleet contract every shard agreed to at startup; `ckpt_id` moves
/// only when a coordinated reload commits, so `InfoRequest` never exposes
/// a half-reloaded fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetInfo {
    /// Field count embed requests must supply.
    pub n_fields: usize,
    /// Dimensionality of replied embeddings.
    pub latent_dim: usize,
    /// Committed fleet checkpoint identity.
    pub ckpt_id: u64,
    /// Whether the shards serve the int8 quantized encoder.
    pub quantized: bool,
}

struct RouterShared {
    cfg: RouterConfig,
    net: Net,
    metrics: RouterMetrics,
    shards: Vec<Arc<Shard>>,
    ring: Vec<(u64, u32)>,
    fleet: RwLock<FleetInfo>,
    /// Serializes coordinated reloads (two racing fleet transactions
    /// could interleave commit and rollback).
    reload_lock: Mutex<()>,
}

/// Outcome of a coordinated fleet reload.
#[derive(Clone, Debug)]
pub struct FleetReloadOutcome {
    /// Whether the fleet committed the transaction.
    pub ok: bool,
    /// Whether the committed checkpoint differs from the previous one.
    pub changed: bool,
    /// The fleet checkpoint after the attempt (the *old* one when the
    /// transaction rolled back).
    pub ckpt_id: u64,
    /// Human-readable summary (committed path, or which shards failed).
    pub detail: String,
}

/// A running router instance. Dropping it performs a graceful shutdown.
pub struct Router {
    shared: Arc<RouterShared>,
}

impl Router {
    /// Validates the shard fleet (every shard reachable and serving the
    /// same architecture + checkpoint) and starts routing.
    pub fn start(cfg: RouterConfig) -> Result<Self, RouterError> {
        if cfg.shards.is_empty() {
            return Err(RouterError::Fleet("no shards configured".into()));
        }
        let registry = Registry::new();
        let shards: Vec<Arc<Shard>> = cfg
            .shards
            .iter()
            .enumerate()
            .map(|(i, addr)| Arc::new(Shard::new(i, addr.clone(), &registry)))
            .collect();

        // Fleet validation: collect every shard's serving contract and
        // refuse to start over a mixed or partly unreachable fleet.
        let mut infos: Vec<ServerInfo> = Vec::with_capacity(shards.len());
        for shard in &shards {
            let addr = shard.refresh_addr(cfg.shards_file.as_ref());
            let mut client = Client::connect_with_timeout(addr.as_str(), cfg.connect_timeout)
                .map_err(|e| RouterError::Fleet(format!("shard {} ({addr}): {e}", shard.idx)))?;
            client
                .set_read_timeout(Some(cfg.rpc_timeout))
                .map_err(RouterError::Io)?;
            let info = client
                .info()
                .map_err(|e| RouterError::Fleet(format!("shard {} ({addr}): {e}", shard.idx)))?;
            infos.push(info);
        }
        let first = infos[0];
        for (i, info) in infos.iter().enumerate() {
            if info != &first {
                return Err(RouterError::Fleet(format!(
                    "mixed fleet: shard 0 serves {first:?} but shard {i} serves {info:?}"
                )));
            }
        }
        let fleet = FleetInfo {
            n_fields: first.n_fields,
            latent_dim: first.latent_dim,
            ckpt_id: first.ckpt_id,
            quantized: first.quantized,
        };

        let ring = build_ring(shards.len(), cfg.replicas.max(1));
        let (net, listener) = Net::bind(
            "router",
            &cfg.host,
            cfg.port,
            ROUTER_TRACE_STAGES,
            cfg.trace_capacity,
            Arc::new(AtomicU32::new(0)), // spawn-failure injection is a shard test hook
            registry,
        )?;
        let shared = Arc::new(RouterShared {
            metrics: RouterMetrics::new(&net.registry),
            net,
            shards,
            ring,
            fleet: RwLock::new(fleet),
            reload_lock: Mutex::new(()),
            cfg,
        });
        net::start(&shared, listener)?;
        Ok(Self { shared })
    }

    /// The bound listen address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.net.addr()
    }

    /// The committed fleet contract.
    pub fn fleet_info(&self) -> FleetInfo {
        *self.shared.fleet.read().expect("router fleet lock")
    }

    /// Number of shards currently marked unhealthy (or probing).
    pub fn unhealthy_shards(&self) -> usize {
        self.shared
            .shards
            .iter()
            .filter(|s| {
                s.health.lock().expect("health mutex").state != HealthState::Healthy
            })
            .count()
    }

    /// Prometheus text of the router's metrics registry.
    pub fn metrics_text(&self) -> String {
        self.shared.net.registry.render()
    }

    /// Chrome `trace_event` JSON of the most recent routed request spans.
    pub fn trace_json(&self) -> String {
        self.shared.net.trace.chrome_trace_json()
    }

    /// Snapshot of the resident trace events, sorted by start time.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.shared.net.trace.events()
    }

    /// Runs a coordinated fleet reload (in-process equivalent of a
    /// `ReloadRequest` against the router).
    pub fn reload(&self) -> FleetReloadOutcome {
        coordinated_reload(&self.shared, None)
    }

    /// Coordinated fleet reload pinned to a specific checkpoint identity.
    pub fn reload_to(&self, ckpt_id: u64) -> FleetReloadOutcome {
        coordinated_reload(&self.shared, Some(ckpt_id))
    }

    /// Whether shutdown has been signalled.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.net.shutdown_requested()
    }

    /// Blocks until shutdown is signalled — the CLI's routing loop.
    pub fn wait(&self) {
        self.shared.net.wait();
    }

    /// Graceful stop: refuse new connections, wait out every thread.
    /// Idempotent. Shards are left running — they belong to their own
    /// processes.
    pub fn shutdown(&mut self) {
        net::shutdown(&*self.shared, || {});
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// The router's handler on the connection core
// ---------------------------------------------------------------------------

impl Handler for RouterShared {
    /// The ring preference order of the request in hand.
    type Conn = Vec<u32>;

    fn net(&self) -> &Net {
        &self.net
    }

    fn handle(
        self: &Arc<Self>,
        req: Request,
        decode_start: u64,
        candidates: &mut Vec<u32>,
    ) -> (Option<u64>, Message) {
        match req {
            Request::Embed { req_id, fields } => {
                route(self, decode_start, req_id, candidates, || embed_route(self, req_id, fields))
            }
            Request::Nearest { req_id, k, query } => {
                route(self, decode_start, req_id, candidates, || Ok(nearest_route(req_id, k, query)))
            }
            Request::Info => {
                let fleet = *self.fleet.read().expect("router fleet lock");
                let reply = Message::InfoReply {
                    n_fields: fleet.n_fields as u32,
                    latent_dim: fleet.latent_dim as u32,
                    ckpt_id: fleet.ckpt_id,
                    quantized: fleet.quantized,
                };
                (None, reply)
            }
            Request::Reload(target) => {
                let FleetReloadOutcome { ok, changed, ckpt_id, detail } =
                    coordinated_reload(self, target);
                (None, Message::ReloadReply { ok, changed, ckpt_id, detail })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// True when `reply` is the success kind answering `request` (matching
/// request id) — the one reply kind the router forwards downstream as-is.
fn reply_answers(request: &Message, reply: &Message, req_id: u64) -> bool {
    match (request, reply) {
        (Message::EmbedRequest { .. }, Message::EmbedReply { req_id: r, .. }) => *r == req_id,
        (Message::NearestRequest { .. }, Message::NearestReply { req_id: r, .. }) => *r == req_id,
        _ => false,
    }
}

/// The ring hash of an embed request and the message to forward for it, or
/// why the request is refused outright.
fn embed_route(
    shared: &RouterShared,
    req_id: u64,
    fields: Vec<crate::protocol::FieldRow>,
) -> Result<(u64, Message), String> {
    let n_fields = shared.fleet.read().expect("router fleet lock").n_fields;
    if fields.len() != n_fields {
        return Err(format!("expected {n_fields} fields, got {}", fields.len()));
    }
    Ok((row_hash(&fields), Message::EmbedRequest { req_id, fields }))
}

/// The same for a nearest-neighbour request. Every shard indexes the full
/// embedding store, so the ring hash (over the query bits and `k`) only
/// picks a stable preference order; any shard can answer, and failover
/// walks the same ring as embed requests.
fn nearest_route(req_id: u64, k: u32, query: Vec<f32>) -> (u64, Message) {
    let mut key = Vec::with_capacity(4 + query.len() * 4);
    key.extend_from_slice(&k.to_le_bytes());
    for v in &query {
        key.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    (fnv64(&key), Message::NearestRequest { req_id, k, query })
}

/// Routes one request on the traced path: hash → ring preference order →
/// first healthy shard that answers, failing over on shard errors. `keyed`
/// yields the hash and the upstream message (built once, reused verbatim
/// across failover attempts, carrying the downstream client's request id),
/// or the `BAD_REQUEST` text. Exactly one reply on every path.
fn route(
    shared: &RouterShared,
    decode_start: u64,
    req_id: u64,
    candidates: &mut Vec<u32>,
    keyed: impl FnOnce() -> Result<(u64, Message), String>,
) -> (Option<u64>, Message) {
    let trace_id = shared.net.begin_trace(decode_start);
    shared.metrics.requests.inc();
    let started = Instant::now();
    let route_start = shared.net.trace.now_ns();
    let keyed = keyed();
    if let Ok((hash, _)) = &keyed {
        ring_candidates(&shared.ring, shared.shards.len(), *hash, candidates);
    }
    shared.net.end_stage(trace_id, RT_ROUTE, route_start);
    let reply = match keyed {
        Ok((_, msg)) => forward_with_failover(shared, trace_id, req_id, started, &msg, candidates),
        Err(why) => shared.net.error_reply(req_id, error_code::BAD_REQUEST, why),
    };
    (Some(trace_id), reply)
}

/// The forwarding loop over the ring preference order in `candidates`:
/// the first healthy shard whose reply answers `msg` wins, shard-side
/// errors charge health and fail over.
fn forward_with_failover(
    shared: &RouterShared,
    trace_id: u64,
    req_id: u64,
    started: Instant,
    msg: &Message,
    candidates: &[u32],
) -> Message {
    let cfg = &shared.cfg;
    let mut attempts = 0usize;
    let mut saw_overloaded = false;
    let mut last_error: Option<Message> = None;
    for &shard_idx in candidates {
        if attempts >= cfg.max_attempts.max(1) {
            break;
        }
        let shard = &shared.shards[shard_idx as usize];
        let Some(is_probe) = shard.admit(cfg.probe_interval) else {
            continue;
        };
        attempts += 1;
        if attempts > 1 {
            shared.metrics.retries.inc();
        }
        let mut conn = match shard.checkout(cfg) {
            Ok(conn) => conn,
            Err(CheckoutError::Busy) => {
                // A full in-flight window is congestion, not sickness —
                // don't poison the health state, just fail over.
                if is_probe {
                    shard.abort_probe();
                }
                saw_overloaded = true;
                continue;
            }
            Err(CheckoutError::Connect(e)) => {
                shard.record_failure(cfg.fail_threshold, &shared.metrics);
                last_error = Some(Message::ErrorReply {
                    req_id,
                    code: error_code::UNAVAILABLE,
                    msg: format!("shard {} unreachable: {e}", shard.idx),
                });
                continue;
            }
        };
        let rpc_start = shared.net.trace.now_ns();
        let result = conn.rpc(msg);
        let rpc_dur = shared.net.end_stage(trace_id, RT_SHARD_RPC, rpc_start);
        shard.rpc_ns.record(rpc_dur);
        match result {
            Ok(reply) if reply_answers(msg, &reply, req_id) => {
                shard.checkin(conn);
                shard.record_ok(&shared.metrics);
                shared.metrics.replies_ok.inc();
                shared.metrics.latency_us.record(started.elapsed().as_micros() as u64);
                return reply;
            }
            Ok(Message::Overloaded { req_id: r }) if r == req_id => {
                // The shard is alive and answering — shed, don't sideline.
                shard.checkin(conn);
                shard.record_ok(&shared.metrics);
                saw_overloaded = true;
            }
            Ok(Message::ErrorReply { req_id: r, code, msg: emsg })
                if (r == req_id || r == 0) && code == error_code::BAD_REQUEST =>
            {
                // The request itself is bad; every shard would refuse it.
                shard.checkin(conn);
                shard.record_ok(&shared.metrics);
                return shared.net.error_reply(req_id, code, emsg);
            }
            Ok(Message::ErrorReply { req_id: r, code, msg: emsg }) if r == req_id || r == 0 => {
                // A serving-side failure (shutting down, timed out,
                // unavailable): the stream stayed aligned, but charge the
                // shard's health and fail over.
                shard.checkin(conn);
                shard.record_failure(cfg.fail_threshold, &shared.metrics);
                last_error = Some(Message::ErrorReply { req_id, code, msg: emsg });
            }
            Ok(_) | Err(_) => {
                // A transport failure, or a wrong kind / mismatched id: the
                // stream is desynchronized beyond recovery.
                shard.discard(conn);
                shard.record_failure(cfg.fail_threshold, &shared.metrics);
            }
        }
    }
    if saw_overloaded {
        shared.metrics.overloaded.inc();
        return Message::Overloaded { req_id };
    }
    shared.net.errors.inc();
    last_error.unwrap_or_else(|| Message::ErrorReply {
        req_id,
        code: error_code::UNAVAILABLE,
        msg: "no healthy shard available".to_string(),
    })
}

// ---------------------------------------------------------------------------
// Coordinated reload
// ---------------------------------------------------------------------------

/// One fleet reload transaction: fan the (targeted) reload to every shard,
/// commit the fleet `ckpt_id` only when every shard reports success with
/// one single new identity, and roll every shard back to the previous
/// identity otherwise. Serialized on the router's reload lock.
fn coordinated_reload(shared: &RouterShared, target: Option<u64>) -> FleetReloadOutcome {
    let _serialize = shared.reload_lock.lock().expect("reload mutex");
    let old_id = shared.fleet.read().expect("router fleet lock").ckpt_id;
    let cfg = &shared.cfg;
    // Snapshot decode can outlast a routing RPC; give reloads more room.
    let reload_timeout = cfg.rpc_timeout.max(RELOAD_TIMEOUT_FLOOR);
    // One shard's half of the transaction, forward or rollback.
    let reload_shard = |shard: &Shard, target: Option<u64>| -> Result<u64, String> {
        let addr = shard.refresh_addr(cfg.shards_file.as_ref());
        match Client::reload_once(&addr, cfg.connect_timeout, reload_timeout, target) {
            Ok(report) if report.ok => Ok(report.ckpt_id),
            Ok(report) => Err(format!("shard {} ({addr}): refused: {}", shard.idx, report.detail)),
            Err(e) => Err(format!("shard {} ({addr}): {e}", shard.idx)),
        }
    };

    let reports: Vec<Result<u64, String>> =
        shared.shards.iter().map(|shard| reload_shard(shard, target)).collect();

    let mut new_ids: Vec<u64> = reports.iter().filter_map(|r| r.as_ref().ok().copied()).collect();
    new_ids.dedup();
    let all_ok = reports.iter().all(|r| r.is_ok());

    if all_ok && new_ids.len() == 1 {
        let (new_id, n) = (new_ids[0], shared.shards.len());
        let changed = new_id != old_id;
        let detail = if changed {
            shared.fleet.write().expect("router fleet lock").ckpt_id = new_id;
            shared.metrics.reloads.inc();
            format!("fleet of {n} committed {old_id:#018x} -> {new_id:#018x}")
        } else {
            shared.metrics.reload_noops.inc();
            format!("fleet of {n} already serving {old_id:#018x}")
        };
        return FleetReloadOutcome { ok: true, changed, ckpt_id: new_id, detail };
    }

    // Abort: roll every shard back to the old identity (a no-op for
    // shards that never moved) so the fleet stays single-version.
    shared.metrics.reload_errors.inc();
    let failures: Vec<String> = reports
        .iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    let why = if !failures.is_empty() {
        failures.join("; ")
    } else {
        format!("shards diverged: identities {new_ids:?}")
    };
    let rollback_failed: Vec<String> = shared
        .shards
        .iter()
        .filter_map(|shard| reload_shard(shard, Some(old_id)).err())
        .collect();
    let detail = if rollback_failed.is_empty() {
        shared.metrics.reload_rollbacks.inc();
        format!("reload aborted, fleet rolled back to {old_id:#018x}: {why}")
    } else {
        format!(
            "reload aborted ({why}); ROLLBACK INCOMPLETE — fleet may be mixed-version: {}",
            rollback_failed.join("; ")
        )
    };
    FleetReloadOutcome { ok: false, changed: false, ckpt_id: old_id, detail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_stable_and_covers_all_shards() {
        let ring = build_ring(3, 64);
        assert_eq!(ring.len(), 3 * 64);
        let mut candidates = Vec::new();
        for h in [0u64, 1, u64::MAX, 0xdead_beef, mix64(42)] {
            ring_candidates(&ring, 3, h, &mut candidates);
            let mut sorted = candidates.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "hash {h:#x} must rank every shard once");
        }
        // Same hash, same order — routing is deterministic.
        let mut a = Vec::new();
        let mut b = Vec::new();
        ring_candidates(&ring, 3, 0x1234_5678, &mut a);
        ring_candidates(&ring, 3, 0x1234_5678, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn ring_spreads_keys_across_shards() {
        let ring = build_ring(4, 64);
        let mut counts = [0usize; 4];
        let mut candidates = Vec::new();
        for i in 0..4096u64 {
            ring_candidates(&ring, 4, mix64(i), &mut candidates);
            counts[candidates[0] as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 4096 / 16,
                "shard {i} owns only {c}/4096 keys — ring badly unbalanced: {counts:?}"
            );
        }
    }
}
