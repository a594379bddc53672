//! Seeded inputs and the load generators.
//!
//! Everything the system receives is a pure function of `--seed`: request
//! rows, nearest-neighbour queries, the embed/nearest mix and the event log.
//! The system only ever sees the generated inputs, never the seed.
//!
//! Two generators drive a server. The **open loop** fixes the send schedule
//! up front (tick `i` is due at `i / qps`) and times every request from when
//! it was *due*, so a stall is charged to the requests it delayed; it also
//! reports how late the generator itself ran, which decides whether the run
//! is valid. The **closed loop** has each connection send its next request
//! when the previous reply arrives and reports replies per second.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fvae_data::MultiFieldDataset;
use fvae_serve::{
    decode_message, encode_frame, read_payload, Client, EmbedOutcome, FieldRow, Message,
    NearestOutcome,
};

use crate::spans::Lane;
use crate::stats::Samples;

/// splitmix64: the one deterministic bit source of the benchmark.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An independent sub-seed of `seed` for input stream `stream`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93);
    splitmix64(&mut s)
}

/// Uniform float in `[0, 1)` from 24 random bits.
pub fn unit_f32(state: &mut u64) -> f32 {
    (splitmix64(state) >> 40) as f32 / (1u64 << 24) as f32
}

/// Neighbours asked for by every nearest request.
pub const NEAREST_K: u32 = 10;

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Embed `rows[i]`.
    Embed(usize),
    /// Nearest neighbours of `queries[i]`.
    Nearest(usize),
}

/// The requests a serving workload sends, in order.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Distinct embed request bodies.
    pub rows: Vec<Vec<FieldRow>>,
    /// Distinct nearest-neighbour queries (empty when the mix has none).
    pub queries: Vec<Vec<f32>>,
    /// Every `nearest_every`-th tick is a nearest request; `0` for none.
    pub nearest_every: u64,
}

impl Plan {
    /// The request due at `tick`. Embed ticks walk `rows` in order, so a
    /// plan with more rows than ticks never repeats a row.
    pub fn op(&self, tick: u64) -> Op {
        if self.nearest_every > 0 && tick % self.nearest_every == self.nearest_every - 1 {
            Op::Nearest(((tick / self.nearest_every) % self.queries.len() as u64) as usize)
        } else {
            // Ticks before this one that were nearest requests.
            let nearest_so_far = tick.checked_div(self.nearest_every).unwrap_or(0);
            let embed_tick = tick - nearest_so_far;
            Op::Embed((embed_tick % self.rows.len() as u64) as usize)
        }
    }
}

fn request(plan: &Plan, op: Op, req_id: u64) -> Message {
    match op {
        Op::Embed(i) => Message::EmbedRequest {
            req_id,
            fields: plan.rows[i].clone(),
        },
        Op::Nearest(i) => Message::NearestRequest {
            req_id,
            k: NEAREST_K,
            query: plan.queries[i].clone(),
        },
    }
}

/// One user's raw per-field rows, exactly as a client sends them.
pub fn user_row(ds: &MultiFieldDataset, user: usize) -> Vec<FieldRow> {
    (0..ds.n_fields())
        .map(|k| {
            let (ix, vs) = ds.user_field(user, k);
            (ix.iter().map(|&i| u64::from(i)).collect(), vs.to_vec())
        })
        .collect()
}

/// Request rows for `users` of `ds`.
pub fn dataset_rows(ds: &MultiFieldDataset, users: std::ops::Range<usize>) -> Vec<Vec<FieldRow>> {
    users.map(|u| user_row(ds, u)).collect()
}

/// `n` query vectors near rows of a `dim`-wide store: a stored vector plus
/// a small seeded perturbation, so every query has true neighbours.
pub fn nearest_queries(store: &[f32], dim: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let rows = store.len() / dim;
    let mut state = seed;
    (0..n)
        .map(|_| {
            let r = (splitmix64(&mut state) % rows as u64) as usize;
            store[r * dim..(r + 1) * dim]
                .iter()
                .map(|&v| v + 0.2 * (unit_f32(&mut state) - 0.5))
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// What came back for one request.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// An embedding and the checkpoint that produced it.
    Embedding {
        /// Identity of the serving checkpoint.
        ckpt_id: u64,
        /// The latent mean.
        values: Vec<f32>,
    },
    /// Top-k neighbours, best first.
    Neighbors(Vec<(u64, f32)>),
    /// Shed, rejected, timed out or a transport error: the request failed.
    Failed(String),
}

/// One client connection. The untraced run goes through the public
/// [`Client`]; the traced run makes the same exchange by hand so that
/// encode, write, wait and decode each get their own span.
enum Conn {
    Client(Box<Client>),
    Raw {
        stream: TcpStream,
        rbuf: Vec<u8>,
        wbuf: Vec<u8>,
    },
}

const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

impl Conn {
    fn open(addr: SocketAddr, traced: bool) -> std::io::Result<Self> {
        if traced {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
            Ok(Conn::Raw {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
            })
        } else {
            let client = Client::connect(addr)?;
            client.set_read_timeout(Some(REPLY_TIMEOUT))?;
            Ok(Conn::Client(Box::new(client)))
        }
    }

    fn exchange(&mut self, plan: &Plan, op: Op, req_id: u64, lane: &mut Lane) -> Reply {
        match self {
            Conn::Client(client) => match op {
                Op::Embed(i) => match client.embed(&plan.rows[i]) {
                    Ok(EmbedOutcome::Embedding { ckpt_id, values }) => {
                        Reply::Embedding { ckpt_id, values }
                    }
                    Ok(EmbedOutcome::Overloaded) => Reply::Failed("overloaded".into()),
                    Ok(EmbedOutcome::Error { code, msg }) => {
                        Reply::Failed(format!("error {code}: {msg}"))
                    }
                    Err(e) => Reply::Failed(e.to_string()),
                },
                Op::Nearest(i) => match client.nearest(&plan.queries[i], NEAREST_K) {
                    Ok(NearestOutcome::Neighbors { neighbors, .. }) => Reply::Neighbors(neighbors),
                    Ok(NearestOutcome::Error { code, msg }) => {
                        Reply::Failed(format!("error {code}: {msg}"))
                    }
                    Err(e) => Reply::Failed(e.to_string()),
                },
            },
            Conn::Raw { stream, rbuf, wbuf } => {
                let msg = request(plan, op, req_id);
                let encoded =
                    lane.scope("serve.protocol.encode", req_id, || encode_frame(&msg, wbuf));
                if let Err(e) = encoded {
                    return Reply::Failed(e.to_string());
                }
                if let Err(e) = lane.scope("net.write", req_id, || stream.write_all(wbuf)) {
                    return Reply::Failed(e.to_string());
                }
                let len = match lane.scope("net.wait_reply", req_id, || read_payload(stream, rbuf))
                {
                    Ok(Some(len)) => len,
                    Ok(None) => return Reply::Failed("connection closed".into()),
                    Err(e) => return Reply::Failed(e.to_string()),
                };
                let decoded = lane.scope("serve.protocol.decode", req_id, || {
                    decode_message(&rbuf[..len])
                });
                match decoded {
                    Ok(Message::EmbedReply {
                        req_id: r,
                        ckpt_id,
                        embedding,
                    }) if r == req_id => Reply::Embedding {
                        ckpt_id,
                        values: embedding,
                    },
                    Ok(Message::NearestReply {
                        req_id: r,
                        ids,
                        scores,
                        ..
                    }) if r == req_id => Reply::Neighbors(ids.into_iter().zip(scores).collect()),
                    Ok(Message::Overloaded { .. }) => Reply::Failed("overloaded".into()),
                    Ok(Message::ErrorReply { code, msg, .. }) => {
                        Reply::Failed(format!("error {code}: {msg}"))
                    }
                    Ok(_) => Reply::Failed("unexpected reply".into()),
                    Err(e) => Reply::Failed(e.to_string()),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Load generators
// ---------------------------------------------------------------------------

/// How a generator is to drive the server.
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    /// Server or router address.
    pub addr: SocketAddr,
    /// First tick of the plan this phase sends (phases continue each
    /// other's tick count so distinct rows stay distinct across phases).
    pub first_tick: u64,
    /// How long to generate load.
    pub secs: f64,
    /// Connections, one thread each.
    pub conns: usize,
    /// Keep every `keep_every`-th reply for the correctness check.
    pub keep_every: u64,
    /// Core the generator threads pin themselves to, if any.
    pub cpu: Option<usize>,
}

/// What one generator phase observed.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Embed latencies as `(tick, ns)` (open loop: from the scheduled send;
    /// closed loop: round trip).
    pub embed_ns: Vec<(u64, u64)>,
    /// Nearest latencies, same convention.
    pub nearest_ns: Vec<(u64, u64)>,
    /// Closed loop only: replies per [`SLICE`] of the phase, by slice index.
    pub slice_replies: Vec<u64>,
    /// Open loop only: actual minus scheduled send time, ns.
    pub late_ns: Samples,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed (shed, rejected, timed out, transport error).
    pub failed: u64,
    /// First failure seen, for the report.
    pub first_failure: Option<String>,
    /// Wall time from the first tick to the last reply, seconds.
    pub elapsed_s: f64,
    /// Kept embed replies: `(row index, ckpt_id, values)`.
    pub embeds: Vec<(usize, u64, Vec<f32>)>,
    /// Kept nearest replies: `(query index, neighbours)`.
    pub neighbors: Vec<(usize, Vec<(u64, f32)>)>,
    /// First time each `ckpt_id` answered, in order of appearance.
    pub first_seen: Vec<(u64, Instant)>,
    /// One span lane per connection.
    pub lanes: Vec<Lane>,
}

impl LoadResult {
    /// Ticks consumed, so the next phase can continue the plan.
    pub fn ticks(&self) -> u64 {
        self.attempted
    }

    /// Replies per second of a closed loop: the median over the phase's
    /// full [`SLICE`]s, so that a burst of interference from a neighbour on
    /// the box moves one slice, not the result. Over the whole phase when it
    /// was shorter than two slices.
    pub fn replies_per_s(&self) -> f64 {
        // The last slice is the one the phase ended in: partial.
        let full = &self.slice_replies[..self.slice_replies.len().saturating_sub(1)];
        if full.len() < 2 {
            return (self.attempted - self.failed) as f64 / self.elapsed_s.max(1e-9);
        }
        let rates: Vec<f64> = full
            .iter()
            .map(|&n| n as f64 / SLICE.as_secs_f64())
            .collect();
        crate::stats::median_f64(&rates)
    }

    /// Latencies of `pairs` in tick order.
    pub fn in_order(pairs: &[(u64, u64)]) -> Vec<u64> {
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable_by_key(|&(tick, _)| tick);
        sorted.into_iter().map(|(_, ns)| ns).collect()
    }

    fn merge(&mut self, mut other: LoadResult) {
        self.embed_ns.append(&mut other.embed_ns);
        self.nearest_ns.append(&mut other.nearest_ns);
        self.late_ns.absorb(std::mem::take(&mut other.late_ns));
        if self.slice_replies.len() < other.slice_replies.len() {
            self.slice_replies.resize(other.slice_replies.len(), 0);
        }
        for (mine, theirs) in self.slice_replies.iter_mut().zip(&other.slice_replies) {
            *mine += theirs;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure.take();
        }
        self.embeds.append(&mut other.embeds);
        self.neighbors.append(&mut other.neighbors);
        for (id, at) in other.first_seen {
            match self.first_seen.iter_mut().find(|(i, _)| *i == id) {
                Some(entry) => entry.1 = entry.1.min(at),
                None => self.first_seen.push((id, at)),
            }
        }
        self.lanes.append(&mut other.lanes);
    }

    fn record(
        &mut self,
        op: Op,
        tick: u64,
        keep_every: u64,
        latency_ns: u64,
        reply: Reply,
        at: Instant,
    ) {
        self.attempted += 1;
        let keep = keep_every > 0 && tick.is_multiple_of(keep_every);
        match (op, reply) {
            (Op::Embed(row), Reply::Embedding { ckpt_id, values }) => {
                self.embed_ns.push((tick, latency_ns));
                if !self.first_seen.iter().any(|(id, _)| *id == ckpt_id) {
                    self.first_seen.push((ckpt_id, at));
                }
                if keep {
                    self.embeds.push((row, ckpt_id, values));
                }
            }
            (Op::Nearest(query), Reply::Neighbors(neighbors)) => {
                self.nearest_ns.push((tick, latency_ns));
                // Nearest ticks are sparse; keep them all.
                self.neighbors.push((query, neighbors));
            }
            (_, Reply::Failed(why)) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
            _ => {
                self.failed += 1;
                self.first_failure
                    .get_or_insert_with(|| "reply of the wrong kind".into());
            }
        }
    }
}

/// Length of the slices a closed loop's replies are counted in.
pub const SLICE: Duration = Duration::from_millis(250);

/// Sleeps until `deadline` after `start`, spinning through the last
/// stretch: `thread::sleep` alone overshoots by scheduler quanta and would
/// silently under-offer load.
fn wait_until(start: Instant, deadline: Duration) {
    loop {
        let now = start.elapsed();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(300) {
            thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One connection's generator thread state.
struct Worker {
    spec: LoadSpec,
    plan: Arc<Plan>,
    conn: Conn,
    lane: Lane,
    start: Instant,
    out: LoadResult,
}

impl Worker {
    /// Sends the `i`-th request of the phase, waits for its reply and
    /// records it with its latency counted from `from` (an offset from the
    /// phase's start). Returns when the reply arrived and whether the
    /// request succeeded.
    fn request(&mut self, i: u64, from: Duration) -> (Duration, bool) {
        let tick = self.spec.first_tick + i;
        let op = self.plan.op(tick);
        let root = self.lane.enter("request", tick);
        let reply = self.conn.exchange(&self.plan, op, tick + 1, &mut self.lane);
        self.lane.exit(root);
        let done = self.start.elapsed();
        let latency = done.saturating_sub(from).as_nanos() as u64;
        let failed_before = self.out.failed;
        self.out.record(
            op,
            tick,
            self.spec.keep_every,
            latency,
            reply,
            self.start + done,
        );
        (done, self.out.failed == failed_before)
    }
}

/// Opens `spec.conns` connections, runs `work(t, worker)` on a thread per
/// connection (pinned to `spec.cpu`), and merges what the workers observed.
fn run_phase(
    spec: LoadSpec,
    plan: &Arc<Plan>,
    lane: &Lane,
    work: impl Fn(u64, &mut Worker) + Send + Sync + 'static,
) -> std::io::Result<LoadResult> {
    let conns: Vec<Conn> = (0..spec.conns)
        .map(|_| Conn::open(spec.addr, lane.is_enabled()))
        .collect::<std::io::Result<_>>()?;
    let work = Arc::new(work);
    let start = Instant::now();
    let threads: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(t, conn)| {
            let work = Arc::clone(&work);
            let mut worker = Worker {
                spec,
                plan: Arc::clone(plan),
                conn,
                lane: lane.sibling(),
                start,
                out: LoadResult::default(),
            };
            thread::spawn(move || {
                if let Some(cpu) = spec.cpu {
                    crate::affinity::pin_current_thread(&[cpu]);
                }
                work(t as u64, &mut worker);
                worker.out.lanes.push(worker.lane);
                worker.out
            })
        })
        .collect();
    let mut total = LoadResult::default();
    for t in threads {
        total.merge(t.join().expect("load generator thread panicked"));
    }
    total.elapsed_s = start.elapsed().as_secs_f64();
    Ok(total)
}

/// Open loop at `qps`: tick `i` is due `i / qps` after the start and is sent
/// by connection `i mod conns`. Every latency counts from the due time.
pub fn open_loop(
    spec: LoadSpec,
    qps: f64,
    plan: &Arc<Plan>,
    lane: &Lane,
) -> std::io::Result<LoadResult> {
    open_loop_until(spec, qps, plan, lane, &Arc::new(AtomicBool::new(false)))
}

/// [`open_loop`] that also ends, at the next tick, once `stop` is raised.
pub fn open_loop_until(
    spec: LoadSpec,
    qps: f64,
    plan: &Arc<Plan>,
    lane: &Lane,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<LoadResult> {
    let total_ticks = ((qps * spec.secs).ceil() as u64).max(1);
    let interval_ns = 1e9 / qps;
    let stop = Arc::clone(stop);
    run_phase(spec, plan, lane, move |t, w| {
        let mut i = t;
        while i < total_ticks && !stop.load(Ordering::Acquire) {
            let due = Duration::from_nanos((i as f64 * interval_ns) as u64);
            wait_until(w.start, due);
            let sent = w.start.elapsed();
            w.out
                .late_ns
                .push(sent.saturating_sub(due).as_nanos() as u64);
            w.request(i, due);
            i += spec.conns as u64;
        }
    })
}

/// Closed loop: each connection sends its next request as soon as the
/// previous reply arrives, for `spec.secs` seconds.
pub fn closed_loop(spec: LoadSpec, plan: &Arc<Plan>, lane: &Lane) -> std::io::Result<LoadResult> {
    let budget = Duration::from_secs_f64(spec.secs);
    run_phase(spec, plan, lane, move |t, w| {
        let mut i = t;
        loop {
            let sent = w.start.elapsed();
            if sent >= budget {
                break;
            }
            let (done, ok) = w.request(i, sent);
            let slice = (done.as_nanos() / SLICE.as_nanos()) as usize;
            if w.out.slice_replies.len() <= slice {
                w.out.slice_replies.resize(slice + 1, 0);
            }
            w.out.slice_replies[slice] += u64::from(ok);
            i += spec.conns as u64;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvae_data::{dataset_to_events, Event, FieldSpec, TopicModelConfig};

    fn dataset(seed: u64) -> MultiFieldDataset {
        TopicModelConfig {
            n_users: 40,
            n_topics: 3,
            alpha: 0.2,
            fields: vec![
                FieldSpec::new("a", 16, 3, 1.0),
                FieldSpec::new("b", 64, 5, 1.0),
            ],
            pair_prob: 0.0,
            seed,
        }
        .generate()
    }

    /// The wire bytes of a plan's first `ticks` requests — what "same seed,
    /// same inputs" means for a serving workload.
    fn wire_bytes(plan: &Plan, ticks: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let mut frame = Vec::new();
        for tick in 0..ticks {
            let msg = request(plan, plan.op(tick), tick + 1);
            encode_frame(&msg, &mut frame).expect("request fits a frame");
            out.extend_from_slice(&frame);
        }
        out
    }

    /// The log bytes of `events` (header excluded), as `EventLogWriter`
    /// frames them.
    fn event_bytes(events: &[Event]) -> Vec<u8> {
        let mut buf = Default::default();
        for ev in events {
            fvae_data::events::put_event(&mut buf, ev);
        }
        AsRef::<[u8]>::as_ref(&buf).to_vec()
    }

    fn plan(seed: u64) -> Plan {
        let ds = dataset(sub_seed(seed, 1));
        let store: Vec<f32> = {
            let mut s = sub_seed(seed, 2);
            (0..32 * 4).map(|_| unit_f32(&mut s)).collect()
        };
        Plan {
            rows: dataset_rows(&ds, 0..ds.n_users()),
            queries: nearest_queries(&store, 4, 8, sub_seed(seed, 3)),
            nearest_every: 10,
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_requests_and_event_log() {
        let (a, b, c) = (plan(11), plan(11), plan(12));
        assert_eq!(a, b);
        assert_eq!(wire_bytes(&a, 200), wire_bytes(&b, 200));
        assert_ne!(
            wire_bytes(&a, 200),
            wire_bytes(&c, 200),
            "another seed, other requests"
        );

        let log = |seed| {
            event_bytes(&dataset_to_events(
                &dataset(sub_seed(seed, 1)),
                0,
                2,
                sub_seed(seed, 4),
            ))
        };
        assert_eq!(log(11), log(11));
        assert_ne!(log(11), log(12), "another seed, another log");
        assert!(!log(11).is_empty());
    }

    #[test]
    fn mix_is_one_nearest_in_ten_and_embed_rows_do_not_repeat_early() {
        let p = plan(5);
        let ops: Vec<Op> = (0..40).map(|t| p.op(t)).collect();
        assert_eq!(
            ops.iter().filter(|o| matches!(o, Op::Nearest(_))).count(),
            4
        );
        assert_eq!(ops[9], Op::Nearest(0));
        assert_eq!(ops[19], Op::Nearest(1));
        let rows: Vec<usize> = ops
            .iter()
            .filter_map(|o| if let Op::Embed(r) = o { Some(*r) } else { None })
            .collect();
        assert_eq!(
            rows,
            (0..36).collect::<Vec<_>>(),
            "embed ticks walk the rows in order"
        );
        let embed_only = Plan {
            nearest_every: 0,
            ..p
        };
        assert_eq!(embed_only.op(41), Op::Embed(1));
    }

    #[test]
    fn sub_seeds_differ_by_stream_and_seed() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(9, 3), sub_seed(9, 3));
        let mut s = 7;
        let u = unit_f32(&mut s);
        assert!((0.0..1.0).contains(&u));
    }
}
