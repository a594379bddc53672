//! The connection core: the only listener and the only per-connection loop
//! in this crate. `fvae serve` and `fvae router` are two [`Handler`]s on it
//! (DESIGN.md §11, "Connection core").
//!
//! One **accept thread** per tier hands each connection (`TCP_NODELAY`) to
//! its own **connection thread**, which runs the blocking `read payload →
//! decode → handle → write frame` loop on one [`Framed`] stream. The core
//! answers the frames that mean the same on both tiers itself and hands
//! the rest to the handler as a decoded [`Request`]. Connections register
//! before their thread is spawned and deregister as it exits; [`shutdown`]
//! half-closes what is registered and waits for the registry to empty.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use fvae_obs::{Counter, Histogram, Registry, TraceBuffer};

use crate::protocol::{
    decode_message, error_code, read_frame, read_payload, write_frame, FieldRow, Message,
    ProtoError, RecvError,
};

/// Floor on how long one reload RPC waits for its reply: decoding a
/// snapshot can outlast a routing RPC. The router's coordinated reload and
/// the publisher's push both bound the wait from here, so a peer that
/// accepts and then stays silent fails the exchange, never stalls it.
pub(crate) const RELOAD_TIMEOUT_FLOOR: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// Framed stream
// ---------------------------------------------------------------------------

/// One TCP connection speaking the length-prefixed protocol, with read and
/// write buffers reused across frames: the server side of a connection,
/// [`crate::Client`], and the router's pooled shard connections.
pub(crate) struct Framed {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

impl Framed {
    pub(crate) fn new(stream: TcpStream) -> Self {
        Self { stream, rbuf: Vec::new(), wbuf: Vec::new() }
    }

    /// Dials `addr` with `TCP_NODELAY`.
    pub(crate) fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::new(stream))
    }

    /// [`Framed::connect`], trying each resolved address until one connects
    /// within `timeout`.
    pub(crate) fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let mut last_err = io::Error::new(io::ErrorKind::InvalidInput, "no addresses to connect to");
        for sock_addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock_addr, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(Self::new(stream));
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// The underlying socket, for setting timeouts.
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The next frame's undecoded payload, so the caller can time the
    /// decode apart from the network wait; `None` is a clean end of stream.
    fn recv_payload(&mut self) -> Result<Option<&[u8]>, RecvError> {
        Ok(read_payload(&mut self.stream, &mut self.rbuf)?.map(|len| &self.rbuf[..len]))
    }

    /// The next frame; `None` is a clean end of stream.
    pub(crate) fn recv(&mut self) -> Result<Option<Message>, RecvError> {
        read_frame(&mut self.stream, &mut self.rbuf)
    }

    pub(crate) fn send(&mut self, msg: &Message) -> Result<(), RecvError> {
        write_frame(&mut self.stream, msg, &mut self.wbuf)
    }

    /// One request/reply exchange; a peer that closes instead of replying
    /// is an `UnexpectedEof` transport error.
    pub(crate) fn rpc(&mut self, msg: &Message) -> Result<Message, RecvError> {
        self.send(msg)?;
        self.recv()?.ok_or_else(|| {
            RecvError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-request"))
        })
    }
}

// ---------------------------------------------------------------------------
// The handler seam
// ---------------------------------------------------------------------------

/// A decoded client request the core does not answer itself.
pub(crate) enum Request {
    Embed { req_id: u64, fields: Vec<FieldRow> },
    Nearest { req_id: u64, k: u32, query: Vec<f32> },
    Info,
    /// `ReloadRequest` (`None`: the newest snapshot) or `ReloadToRequest`
    /// (`Some`: exactly that checkpoint identity).
    Reload(Option<u64>),
}

/// What a tier plugs into the core (statically dispatched).
pub(crate) trait Handler: Send + Sync + Sized + 'static {
    /// Scratch a connection thread keeps across its requests.
    type Conn: Default;

    fn net(&self) -> &Net;

    /// Runs once when shutdown is signalled, after the flag is set: wakes
    /// whatever the tier has parked on its own condition variables.
    fn shutdown_signalled(&self) {}

    /// Answers one request with exactly one reply. A handler that traces
    /// the request passes `decode_start` (when its decode began, on the
    /// trace clock) to [`Net::begin_trace`] and returns the trace id, under
    /// which the core then records the `reply_write` stage.
    fn handle(self: &Arc<Self>, req: Request, decode_start: u64, conn: &mut Self::Conn) -> (Option<u64>, Message);
}

// ---------------------------------------------------------------------------
// Core state
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Conns {
    /// The accept thread, until [`shutdown`] joins it.
    accept: Option<JoinHandle<()>>,
    next_id: u64,
    /// A read-half clone per live connection, to pop its thread out of a
    /// blocking read at shutdown (`None` when `try_clone` failed: the
    /// thread still serves, it just cannot be woken early).
    live: HashMap<u64, Option<TcpStream>>,
}

/// The core's state for one tier, held inside the tier's shared state.
pub(crate) struct Net {
    /// `"serve"` or `"router"`: names the threads (`fvae-<tier>-conn`) and
    /// prefixes the metrics (`fvae_<tier>_connections`).
    tier: &'static str,
    addr: SocketAddr,
    /// Request-span ring; also the clock and id source for tracing.
    pub(crate) trace: TraceBuffer,
    pub(crate) registry: Registry,
    /// `fvae_<tier>_stage_ns{stage=...}`, one series per trace stage; the
    /// core records the first (`decode`) and the last (`reply_write`).
    pub(crate) stage_ns: Vec<Histogram>,
    /// Error replies sent, by the core and by the handler.
    pub(crate) errors: Counter,
    /// Connections a thread serves (failed spawns: `accept_errors`).
    connections: Counter,
    accept_errors: Counter,
    /// Test-only fault injector: while non-zero, each accepted connection
    /// decrements it and behaves as if spawning its thread failed (the real
    /// failure needs fd/thread exhaustion).
    fail_spawns: Arc<AtomicU32>,
    shutdown: AtomicBool,
    conns: Mutex<Conns>,
    /// Notified when shutdown is signalled and when the registry empties.
    changed: Condvar,
}

impl Net {
    /// Binds `host:port` and registers on `registry` the tier's connection
    /// metrics and one stage histogram per entry of `stages`. The listener
    /// goes to [`start`] once the handler owning this `Net` exists.
    pub(crate) fn bind(
        tier: &'static str,
        host: &str,
        port: u16,
        stages: &'static [&'static str],
        trace_capacity: usize,
        fail_spawns: Arc<AtomicU32>,
        registry: Registry,
    ) -> io::Result<(Self, TcpListener)> {
        let listener = TcpListener::bind((host, port))?;
        let stage_name = format!("fvae_{tier}_stage_ns");
        let net = Self {
            tier,
            addr: listener.local_addr()?,
            trace: TraceBuffer::new(trace_capacity, stages),
            stage_ns: stages
                .iter()
                .map(|stage| registry.histogram_with(&stage_name, &[("stage", stage)]))
                .collect(),
            errors: registry.counter(&format!("fvae_{tier}_errors")),
            connections: registry.counter(&format!("fvae_{tier}_connections")),
            accept_errors: registry.counter(&format!("fvae_{tier}_accept_errors")),
            registry,
            fail_spawns,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Conns::default()),
            changed: Condvar::new(),
        };
        Ok((net, listener))
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Registered connections: those whose thread has not exited yet.
    pub(crate) fn live_connections(&self) -> usize {
        self.lock_conns().live.len()
    }

    pub(crate) fn wait(&self) {
        let mut conns = self.lock_conns();
        while !self.shutdown_requested() {
            conns = self.changed.wait(conns).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the stage that began at `start` — one span under `trace_id`
    /// in the trace ring, one sample in the stage's histogram — and returns
    /// its duration.
    pub(crate) fn end_stage(&self, trace_id: u64, stage: usize, start: u64) -> u64 {
        let dur = self.trace.now_ns().saturating_sub(start);
        self.trace.record(trace_id, stage, start, dur);
        self.stage_ns[stage].record(dur);
        dur
    }

    /// Puts the request decoded since `decode_start` on the traced path: a
    /// fresh trace id with its `decode` stage closed.
    pub(crate) fn begin_trace(&self, decode_start: u64) -> u64 {
        let trace_id = self.trace.next_trace_id();
        self.end_stage(trace_id, 0, decode_start);
        trace_id
    }

    /// An error reply, counted in `errors` as it is built.
    pub(crate) fn error_reply(&self, req_id: u64, code: u16, msg: String) -> Message {
        self.errors.inc();
        Message::ErrorReply { req_id, code, msg }
    }

    /// Every update leaves the registry valid, so a poisoned lock is
    /// recovered, not propagated: [`Deregister`]'s drop must not panic.
    fn lock_conns(&self) -> MutexGuard<'_, Conns> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(&self, read_half: Option<TcpStream>) -> u64 {
        let mut conns = self.lock_conns();
        conns.next_id += 1;
        let id = conns.next_id;
        conns.live.insert(id, read_half);
        id
    }

    fn deregister(&self, id: u64) -> Option<TcpStream> {
        let mut conns = self.lock_conns();
        let read_half = conns.live.remove(&id).flatten();
        if conns.live.is_empty() {
            self.changed.notify_all();
        }
        read_half
    }

    /// Reports an unparseable frame once; the caller then drops the
    /// connection (framing is lost beyond recovery).
    fn proto_error(&self, framed: &mut Framed, e: &ProtoError) {
        let _ = framed.send(&self.error_reply(0, error_code::PROTOCOL, e.to_string()));
    }
}

/// Removes a connection's registry entry however its thread exits.
struct Deregister<'a> {
    net: &'a Net,
    id: u64,
}

impl Drop for Deregister<'_> {
    fn drop(&mut self) {
        self.net.deregister(self.id);
    }
}

// ---------------------------------------------------------------------------
// Accept + connection threads
// ---------------------------------------------------------------------------

/// Starts the accept thread for `handler` on the socket its [`Net`] bound.
pub(crate) fn start<H: Handler>(handler: &Arc<H>, listener: TcpListener) -> io::Result<()> {
    let net = handler.net();
    let accept_handler = Arc::clone(handler);
    let handle = std::thread::Builder::new()
        .name(format!("fvae-{}-accept", net.tier))
        .spawn(move || accept_loop(&accept_handler, &listener))?;
    net.lock_conns().accept = Some(handle);
    Ok(())
}

fn accept_loop<H: Handler>(handler: &Arc<H>, listener: &TcpListener) {
    let net = handler.net();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if net.shutdown_requested() {
                    return;
                }
                // Back off: persistent accept errors (fd exhaustion,
                // ENOBUFS) would otherwise busy-spin this thread at 100%.
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        if net.shutdown_requested() {
            return; // the shutdown self-dial, or a straggler: refuse
        }
        let _ = stream.set_nodelay(true);
        // Registered before the spawn: the thread's guard must find it.
        let id = net.register(stream.try_clone().ok());
        let inject_fail = net
            .fail_spawns
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok();
        let spawned = if inject_fail {
            Err(io::Error::other("injected connection-thread spawn failure"))
        } else {
            let conn_handler = Arc::clone(handler);
            std::thread::Builder::new().name(format!("fvae-{}-conn", net.tier)).spawn(move || {
                let _deregister = Deregister { net: conn_handler.net(), id };
                // Counted by the thread that serves it, so never for a
                // failed spawn and always before its first reply.
                conn_handler.net().connections.inc();
                connection_loop(&conn_handler, stream);
            })
        };
        // On success the handle is dropped: shutdown waits on the thread's
        // registry entry, not a join.
        if let Err(e) = spawned {
            // The stream went with the failed spawn; tell the client why on
            // the registered clone instead of silently resetting.
            net.accept_errors.inc();
            if let Some(read_half) = net.deregister(id) {
                let reply = Message::ErrorReply {
                    req_id: 0,
                    code: error_code::UNAVAILABLE,
                    msg: format!("fvae-{} cannot service this connection: {e}", net.tier),
                };
                let _ = Framed::new(read_half).send(&reply);
            }
        }
    }
}

fn connection_loop<H: Handler>(handler: &Arc<H>, stream: TcpStream) {
    let net = handler.net();
    let mut framed = Framed::new(stream);
    let mut conn = H::Conn::default();
    loop {
        // The network wait is not a pipeline stage; the decode span starts
        // only once the payload is fully assembled in memory.
        let payload = match framed.recv_payload() {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(RecvError::Io(_)) => return, // hung up, or transport failure
            Err(RecvError::Proto(e)) => return net.proto_error(&mut framed, &e),
        };
        let decode_start = net.trace.now_ns();
        let mut handle = |req| handler.handle(req, decode_start, &mut conn);
        let (trace_id, reply) = match decode_message(payload) {
            Ok(Message::EmbedRequest { req_id, fields }) => handle(Request::Embed { req_id, fields }),
            Ok(Message::NearestRequest { req_id, k, query }) => handle(Request::Nearest { req_id, k, query }),
            Ok(Message::InfoRequest) => handle(Request::Info),
            Ok(Message::ReloadRequest) => handle(Request::Reload(None)),
            Ok(Message::ReloadToRequest { ckpt_id }) => handle(Request::Reload(Some(ckpt_id))),
            Ok(Message::Ping { token }) => (None, Message::Pong { token }),
            Ok(Message::MetricsRequest) => (None, Message::MetricsReply { text: net.registry.render() }),
            Ok(Message::TraceRequest) => (None, Message::TraceReply { json: net.trace.chrome_trace_json() }),
            Ok(Message::Shutdown) => {
                let _ = framed.send(&Message::ShutdownAck);
                return signal_shutdown(&**handler);
            }
            // Server-bound streams should never carry reply kinds.
            Ok(_) => {
                let msg = format!("unexpected message kind for fvae-{}", net.tier);
                (None, net.error_reply(0, error_code::PROTOCOL, msg))
            }
            Err(e) => return net.proto_error(&mut framed, &e),
        };
        let sent = match trace_id {
            Some(trace_id) => {
                let write_start = net.trace.now_ns();
                let sent = framed.send(&reply);
                net.end_stage(trace_id, net.stage_ns.len() - 1, write_start);
                sent
            }
            None => framed.send(&reply),
        };
        if sent.is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------------

/// Flags shutdown, runs the handler's wake-up hook, wakes [`Net::wait`]ers
/// and pops the accept thread out of its blocking `accept()`. Idempotent.
pub(crate) fn signal_shutdown<H: Handler>(handler: &H) {
    let net = handler.net();
    if net.shutdown.swap(true, Ordering::AcqRel) {
        return;
    }
    handler.shutdown_signalled();
    // Pass through the lock before notifying: a waiter that has checked
    // the flag but not parked yet would otherwise miss this wake-up.
    drop(net.lock_conns());
    net.changed.notify_all();
    // The bound address may be a wildcard (`0.0.0.0` / `[::]` for a
    // multi-host fleet), which is not a reliable *connect* target on every
    // platform — dial the matching loopback instead.
    let mut dial = net.addr;
    match dial.ip() {
        ip if !ip.is_unspecified() => {}
        std::net::IpAddr::V4(_) => dial.set_ip(std::net::Ipv4Addr::LOCALHOST.into()),
        std::net::IpAddr::V6(_) => dial.set_ip(std::net::Ipv6Addr::LOCALHOST.into()),
    }
    let _ = TcpStream::connect(dial);
}

/// Graceful stop: refuse new connections, join the accept thread, run
/// `drain` (the tier finishes its admitted work there), then wake every
/// connection thread parked in a blocking read and wait until each has
/// deregistered — so this returns only after every reply is written.
/// Idempotent.
pub(crate) fn shutdown<H: Handler>(handler: &H, drain: impl FnOnce()) {
    let net = handler.net();
    signal_shutdown(handler);
    // The lock is released before the join: the accept thread takes it.
    let accept = net.lock_conns().accept.take();
    if let Some(accept) = accept {
        let _ = accept.join();
    }
    drain();
    let mut conns = net.lock_conns();
    for read_half in conns.live.values().flatten() {
        let _ = read_half.shutdown(SockShutdown::Read);
    }
    while !conns.live.is_empty() {
        conns = net.changed.wait(conns).unwrap_or_else(PoisonError::into_inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, EmbedOutcome};
    use crate::protocol::{encode_frame, MAX_FRAME_LEN};
    use std::io::Write;
    use std::sync::mpsc;
    use std::time::Instant;

    static STAGES: &[&str] = &["decode", "work", "reply_write"];

    /// A toy tier: echoes an embed request's weights back (traced), with
    /// the per-connection request count in `ckpt_id`.
    struct Echo {
        net: Net,
        woken: AtomicU32,
    }

    impl Handler for Echo {
        type Conn = u64;

        fn net(&self) -> &Net {
            &self.net
        }

        fn shutdown_signalled(&self) {
            self.woken.fetch_add(1, Ordering::Relaxed);
        }

        fn handle(self: &Arc<Self>, req: Request, decode_start: u64, seen: &mut u64) -> (Option<u64>, Message) {
            *seen += 1;
            match req {
                Request::Embed { req_id, fields } => {
                    let trace_id = self.net.begin_trace(decode_start);
                    let embedding = fields.into_iter().flat_map(|(_, weights)| weights).collect();
                    (Some(trace_id), Message::EmbedReply { req_id, ckpt_id: *seen, embedding })
                }
                Request::Nearest { req_id, k, .. } => {
                    (None, Message::NearestReply { req_id, index_id: k.into(), ids: vec![], scores: vec![] })
                }
                Request::Info => {
                    (None, Message::InfoReply { n_fields: 1, latent_dim: 2, ckpt_id: *seen, quantized: false })
                }
                Request::Reload(target) => {
                    let ckpt_id = target.unwrap_or(0);
                    (None, Message::ReloadReply { ok: true, changed: target.is_some(), ckpt_id, detail: String::new() })
                }
            }
        }
    }

    fn start_echo(host: &str, fail_spawns: u32) -> Arc<Echo> {
        let (net, listener) = Net::bind(
            "echo",
            host,
            0,
            STAGES,
            64,
            Arc::new(AtomicU32::new(fail_spawns)),
            Registry::new(),
        )
        .expect("bind");
        let echo = Arc::new(Echo { net, woken: AtomicU32::new(0) });
        start(&echo, listener).expect("start");
        echo
    }

    /// Runs `shutdown` off-thread so a hang fails the test instead of the
    /// suite.
    fn shutdown_within(echo: &Arc<Echo>, limit: Duration) {
        let (tx, rx) = mpsc::channel();
        let echo = Arc::clone(echo);
        let stopper = std::thread::spawn(move || {
            shutdown(&*echo, || {});
            tx.send(()).expect("send");
        });
        rx.recv_timeout(limit).expect("shutdown must complete unaided");
        stopper.join().expect("stopper thread clean");
    }

    fn metric(echo: &Echo, name: &str) -> Option<f64> {
        let text = echo.net.registry.render();
        text.lines().find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
    }

    fn raw_conn(echo: &Echo) -> Framed {
        let conn = Framed::connect(echo.net.addr()).expect("tcp connect");
        conn.stream().set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        conn
    }

    /// Reads the single `PROTOCOL` error frame a broken stream is owed,
    /// then the close.
    fn expect_protocol_error_then_close(conn: &mut Framed) {
        match conn.recv().expect("read error frame") {
            Some(Message::ErrorReply { req_id: 0, code, .. }) => assert_eq!(code, error_code::PROTOCOL),
            other => panic!("expected one PROTOCOL frame, got {other:?}"),
        }
        assert!(conn.recv().expect("clean close").is_none(), "connection dropped after the frame");
    }

    #[test]
    fn failed_spawn_is_answered_and_accounted() {
        let echo = start_echo("127.0.0.1", 1);
        // The frame is pushed unprompted (connection-scoped, req_id 0).
        match raw_conn(&echo).recv().expect("read") {
            Some(Message::ErrorReply { req_id: 0, code, .. }) => assert_eq!(code, error_code::UNAVAILABLE),
            other => panic!("expected the spawn-failure frame, got {other:?}"),
        }
        // The next connection is served, and only it counts as one.
        Client::connect(echo.net.addr()).expect("connect").ping(7).expect("ping");
        assert_eq!(metric(&echo, "fvae_echo_accept_errors "), Some(1.0));
        assert_eq!(metric(&echo, "fvae_echo_connections "), Some(1.0));
        assert_eq!(metric(&echo, "fvae_echo_errors "), Some(0.0));
        shutdown_within(&echo, Duration::from_secs(10));
    }

    #[test]
    fn wildcard_bind_shuts_down_unaided_and_idempotently() {
        let echo = start_echo("0.0.0.0", 0);
        assert!(echo.net.addr().ip().is_unspecified(), "fixture really bound a wildcard");
        let mut client = Client::connect(("127.0.0.1", echo.net.addr().port())).expect("connect");
        client.ping(1).expect("ping");
        // The client stays connected: shutdown must also wake its thread.
        shutdown_within(&echo, Duration::from_secs(10));
        assert_eq!(echo.net.live_connections(), 0);
        assert!(client.ping(2).is_err(), "connection closed by shutdown");
        shutdown_within(&echo, Duration::from_secs(10));
        assert_eq!(echo.woken.load(Ordering::Relaxed), 1, "the wake-up hook runs once");
    }

    #[test]
    fn registry_drains_with_no_further_accept() {
        let echo = start_echo("127.0.0.1", 0);
        for token in 0..6 {
            Client::connect(echo.net.addr()).expect("connect").ping(token).expect("ping");
        }
        // Connection threads exit asynchronously after the client drop;
        // nothing but their own guards can remove the entries.
        let deadline = Instant::now() + Duration::from_secs(10);
        while echo.net.live_connections() != 0 {
            assert!(Instant::now() < deadline, "{} entries left", echo.net.live_connections());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(metric(&echo, "fvae_echo_connections "), Some(6.0));
        shutdown_within(&echo, Duration::from_secs(10));
    }

    #[test]
    fn oversized_prefix_gets_one_protocol_frame_then_close() {
        let echo = start_echo("127.0.0.1", 0);
        let mut conn = raw_conn(&echo);
        let prefix = u32::try_from(MAX_FRAME_LEN + 1).expect("fits").to_le_bytes();
        conn.stream().write_all(&prefix).expect("write prefix");
        expect_protocol_error_then_close(&mut conn);
        assert_eq!(metric(&echo, "fvae_echo_errors "), Some(1.0));
        shutdown_within(&echo, Duration::from_secs(10));
    }

    #[test]
    fn half_close_mid_frame_gets_one_protocol_frame_then_close() {
        let echo = start_echo("127.0.0.1", 0);
        let mut conn = raw_conn(&echo);
        let mut frame = Vec::new();
        encode_frame(&Message::Ping { token: 9 }, &mut frame).expect("encode");
        conn.stream().write_all(&frame[..frame.len() - 3]).expect("write partial frame");
        conn.stream().shutdown(SockShutdown::Write).expect("half-close");
        expect_protocol_error_then_close(&mut conn);
        shutdown_within(&echo, Duration::from_secs(10));
    }

    #[test]
    fn request_in_one_byte_chunks_is_served_and_traced() {
        let echo = start_echo("127.0.0.1", 0);
        let mut conn = raw_conn(&echo);
        let request = Message::EmbedRequest { req_id: 5, fields: vec![(vec![1, 2], vec![0.5, -1.0])] };
        let mut frame = Vec::new();
        encode_frame(&request, &mut frame).expect("encode");
        for _ in 0..2 {
            for byte in &frame {
                conn.stream().write_all(std::slice::from_ref(byte)).expect("write one byte");
            }
        }
        for seen in 1..=2 {
            let want = Message::EmbedReply { req_id: 5, ckpt_id: seen, embedding: vec![0.5, -1.0] };
            assert_eq!(conn.recv().expect("read"), Some(want));
        }
        // An untraced request on the same connection: once it is answered,
        // the spans of everything before it are in the ring.
        assert!(matches!(conn.rpc(&Message::InfoRequest), Ok(Message::InfoReply { ckpt_id: 3, .. })));
        // Each embed: one trace id carrying the core's two stages; the
        // untraced request recorded nothing.
        let events = echo.net.trace.events();
        assert_eq!(events.len(), 4, "{events:?}");
        for stage in ["decode", "reply_write"] {
            let mut ids: Vec<u64> = events.iter().filter(|e| e.stage == stage).map(|e| e.trace_id).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![1, 2], "{stage} spans: {events:?}");
        }
        shutdown_within(&echo, Duration::from_secs(10));
    }

    #[test]
    fn core_frames_and_shutdown_frame() {
        let echo = start_echo("127.0.0.1", 0);
        let (tx, rx) = mpsc::channel();
        let waiter = {
            let echo = Arc::clone(&echo);
            std::thread::spawn(move || {
                echo.net.wait();
                tx.send(()).expect("send");
            })
        };
        let mut client = Client::connect(echo.net.addr()).expect("connect");
        assert!(client.metrics().expect("metrics").contains("fvae_echo_stage_ns"));
        assert!(client.trace_json().expect("trace").contains("traceEvents"));
        assert!(matches!(client.embed(&[(vec![3], vec![2.0])]), Ok(EmbedOutcome::Embedding { .. })));
        assert_eq!(client.reload_to(8).expect("reload_to").ckpt_id, 8);
        // A reply kind sent to a server is refused but keeps the stream.
        let mut conn = raw_conn(&echo);
        match conn.rpc(&Message::Pong { token: 1 }).expect("rpc") {
            Message::ErrorReply { req_id: 0, code, .. } => assert_eq!(code, error_code::PROTOCOL),
            other => panic!("{other:?}"),
        }
        assert!(matches!(conn.rpc(&Message::Ping { token: 2 }), Ok(Message::Pong { token: 2 })));
        assert!(rx.try_recv().is_err(), "wait() blocks until shutdown is signalled");
        client.shutdown().expect("shutdown frame acknowledged");
        rx.recv_timeout(Duration::from_secs(10)).expect("wait() returns once signalled");
        waiter.join().expect("waiter clean");
        assert!(echo.net.shutdown_requested());
        shutdown_within(&echo, Duration::from_secs(10));
    }
}
