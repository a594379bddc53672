//! Blocking client for the `fvae-serve` protocol.
//!
//! One [`Client`] owns one TCP connection and issues one request at a
//! time, matching each reply to its request id. It is deliberately simple
//! — the serving-side concurrency comes from many connections, not from
//! pipelining on one.

use std::fmt;
use std::io;
use std::net::ToSocketAddrs;
use std::time::Duration;

use crate::net::Framed;
use crate::protocol::{FieldRow, Message, ProtoError, RecvError};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent bytes that did not decode.
    Proto(ProtoError),
    /// The server closed the connection where a reply was expected.
    Closed,
    /// The server replied with a message that does not answer the request
    /// (wrong kind or mismatched request id).
    UnexpectedReply(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "connection closed mid-request"),
            ClientError::UnexpectedReply(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Io(e) => ClientError::Io(e),
            RecvError::Proto(e) => ClientError::Proto(e),
        }
    }
}

/// How the server answered an embed request. All three are *successful
/// protocol exchanges* — `Overloaded` and `Error` are server decisions,
/// not transport failures, so they are data rather than `Err`.
#[derive(Clone, Debug, PartialEq)]
pub enum EmbedOutcome {
    /// The embedding, with the checkpoint that produced it.
    Embedding {
        /// Identity of the serving checkpoint.
        ckpt_id: u64,
        /// The `latent_dim` values of `μ`.
        values: Vec<f32>,
    },
    /// The batch queue was full; retry later.
    Overloaded,
    /// The server rejected the request.
    Error {
        /// Machine-readable code (see [`crate::protocol::error_code`]).
        code: u16,
        /// Human-readable detail.
        msg: String,
    },
}

/// How the server answered a nearest-neighbour request.
#[derive(Clone, Debug, PartialEq)]
pub enum NearestOutcome {
    /// The top-k neighbours, best first, ties by ascending user id.
    Neighbors {
        /// Identity of the embedding-store index that answered (hash of
        /// the store file bytes).
        index_id: u64,
        /// `(user id, score)` pairs; score is −‖query − embedding‖².
        neighbors: Vec<(u64, f32)>,
    },
    /// The server rejected the request (no store loaded, dim mismatch…).
    Error {
        /// Machine-readable code (see [`crate::protocol::error_code`]).
        code: u16,
        /// Human-readable detail.
        msg: String,
    },
}

/// Outcome of a reload request.
#[derive(Clone, Debug, PartialEq)]
pub struct ReloadReport {
    /// Whether a usable snapshot was found.
    pub ok: bool,
    /// Whether the serving model changed.
    pub changed: bool,
    /// Identity of the active checkpoint after the attempt.
    pub ckpt_id: u64,
    /// Path or error detail.
    pub detail: String,
}

/// The serving contract, as reported by [`Client::info`]. Loadgen uses it
/// to shape valid requests without out-of-band model knowledge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// Field count embed requests must supply.
    pub n_fields: usize,
    /// Dimensionality of replied embeddings.
    pub latent_dim: usize,
    /// Identity of the active checkpoint.
    pub ckpt_id: u64,
    /// Whether the int8 quantized encoder is serving.
    pub quantized: bool,
}

/// A connected serve client.
pub struct Client {
    conn: Framed,
    next_req: u64,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self { conn: Framed::connect(addr)?, next_req: 1 })
    }

    /// [`Client::connect`] with a bound on how long connection
    /// establishment may block — the router's dial path, where a dead
    /// shard must fail fast rather than stall the request. Tries each
    /// resolved address until one connects within `timeout`.
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        Ok(Self { conn: Framed::connect_timeout(addr, timeout)?, next_req: 1 })
    }

    /// Bounds how long any single reply read may block (`None` restores
    /// blocking reads). With a timeout set, a stalled server surfaces as
    /// `ClientError::Io(WouldBlock | TimedOut)` instead of a hang.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.conn.stream().set_read_timeout(timeout)
    }

    /// One bounded reload exchange on a fresh connection: dial within
    /// `connect_timeout`, wait at most `reply_timeout` for the answer, and
    /// ask for the newest snapshot (`None`) or one exact identity.
    pub(crate) fn reload_once(
        addr: &str,
        connect_timeout: Duration,
        reply_timeout: Duration,
        target: Option<u64>,
    ) -> Result<ReloadReport, ClientError> {
        let mut client = Self::connect_with_timeout(addr, connect_timeout)?;
        client.set_read_timeout(Some(reply_timeout))?;
        client.reload_rpc(target)
    }

    fn rpc(&mut self, msg: &Message) -> Result<Message, ClientError> {
        self.conn.send(msg)?;
        self.conn.recv()?.ok_or(ClientError::Closed)
    }

    fn next_req_id(&mut self) -> u64 {
        let req_id = self.next_req;
        self.next_req += 1;
        req_id
    }

    /// Requests the embedding for one user's raw per-field rows (the
    /// server applies the same L2 normalization as offline training).
    pub fn embed(&mut self, fields: &[FieldRow]) -> Result<EmbedOutcome, ClientError> {
        let req_id = self.next_req_id();
        match self.rpc(&Message::EmbedRequest { req_id, fields: fields.to_vec() })? {
            Message::EmbedReply { req_id: r, ckpt_id, embedding } if r == req_id => {
                Ok(EmbedOutcome::Embedding { ckpt_id, values: embedding })
            }
            Message::Overloaded { req_id: r } if r == req_id => Ok(EmbedOutcome::Overloaded),
            Message::ErrorReply { req_id: r, code, msg } if r == req_id || r == 0 => {
                Ok(EmbedOutcome::Error { code, msg })
            }
            _ => Err(ClientError::UnexpectedReply("embed")),
        }
    }

    /// Requests the top-`k` stored users nearest `query` (ANN retrieval
    /// over the server's embedding store).
    pub fn nearest(&mut self, query: &[f32], k: u32) -> Result<NearestOutcome, ClientError> {
        let req_id = self.next_req_id();
        match self.rpc(&Message::NearestRequest { req_id, k, query: query.to_vec() })? {
            Message::NearestReply { req_id: r, index_id, ids, scores } if r == req_id => {
                Ok(NearestOutcome::Neighbors {
                    index_id,
                    neighbors: ids.into_iter().zip(scores).collect(),
                })
            }
            Message::ErrorReply { req_id: r, code, msg } if r == req_id || r == 0 => {
                Ok(NearestOutcome::Error { code, msg })
            }
            _ => Err(ClientError::UnexpectedReply("nearest")),
        }
    }

    /// Round-trips a ping token; verifies stream alignment.
    pub fn ping(&mut self, token: u64) -> Result<(), ClientError> {
        match self.rpc(&Message::Ping { token })? {
            Message::Pong { token: t } if t == token => Ok(()),
            _ => Err(ClientError::UnexpectedReply("ping")),
        }
    }

    /// Fetches the server's Prometheus metrics text.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.rpc(&Message::MetricsRequest)? {
            Message::MetricsReply { text } => Ok(text),
            _ => Err(ClientError::UnexpectedReply("metrics")),
        }
    }

    /// Asks the server to reload the newest checkpoint.
    pub fn reload(&mut self) -> Result<ReloadReport, ClientError> {
        self.reload_rpc(None)
    }

    /// Asks the server to activate the snapshot with this exact identity
    /// (the router's rollback primitive; see `Message::ReloadToRequest`).
    pub fn reload_to(&mut self, ckpt_id: u64) -> Result<ReloadReport, ClientError> {
        self.reload_rpc(Some(ckpt_id))
    }

    fn reload_rpc(&mut self, target: Option<u64>) -> Result<ReloadReport, ClientError> {
        let request = match target {
            None => Message::ReloadRequest,
            Some(ckpt_id) => Message::ReloadToRequest { ckpt_id },
        };
        match self.rpc(&request)? {
            Message::ReloadReply { ok, changed, ckpt_id, detail } => {
                Ok(ReloadReport { ok, changed, ckpt_id, detail })
            }
            _ => Err(ClientError::UnexpectedReply("reload")),
        }
    }

    /// Fetches the server's trace ring as Chrome `trace_event` JSON.
    pub fn trace_json(&mut self) -> Result<String, ClientError> {
        match self.rpc(&Message::TraceRequest)? {
            Message::TraceReply { json } => Ok(json),
            _ => Err(ClientError::UnexpectedReply("trace")),
        }
    }

    /// Fetches the serving contract (field count, latent dim, checkpoint).
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        match self.rpc(&Message::InfoRequest)? {
            Message::InfoReply { n_fields, latent_dim, ckpt_id, quantized } => Ok(ServerInfo {
                n_fields: n_fields as usize,
                latent_dim: latent_dim as usize,
                ckpt_id,
                quantized,
            }),
            _ => Err(ClientError::UnexpectedReply("info")),
        }
    }

    /// Asks the server to shut down; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.rpc(&Message::Shutdown)? {
            Message::ShutdownAck => Ok(()),
            _ => Err(ClientError::UnexpectedReply("shutdown")),
        }
    }
}
