//! # fvae-serve — online embedding inference
//!
//! The serving side of the FVAE reproduction: a std-only TCP server that
//! answers "user rows → latent embedding" requests against the newest
//! `.fvck` checkpoint, built from three throughput mechanisms:
//!
//! 1. **Micro-batching** ([`server`]): whatever queued up while the
//!    previous forward ran (up to `batch_size`) becomes one batched
//!    [`fvae_core::Encoder`] forward on the shared `fvae-pool` workers —
//!    amortizing the GEMM the way the paper's training side batches users,
//!    with no timer: an idle server encodes a lone request at once.
//! 2. **Embedding LRU** ([`cache`]): a fixed-capacity cache keyed by
//!    `(checkpoint id, request row hash)` with a preallocated value slab —
//!    repeat lookups for hot users skip the encoder entirely.
//! 3. **Hot reload** ([`server::Server::reload`]): the newest validated
//!    snapshot is swapped in atomically without dropping in-flight
//!    requests; byte-identical (modulo wall-clock stats) snapshots are
//!    recognized and skipped.
//!
//! The wire format ([`protocol`]) is length-prefixed binary frames over
//! `std::net` — no HTTP stack, no external dependencies — hardened
//! against truncated, oversized, and garbage input. One connection core
//! (`net`: listener, per-connection loop, registry, shutdown, framed
//! stream) carries both the shard [`server`] and the fleet [`router`].
//! Embeddings served over the wire are **bit-identical** to offline
//! [`Fvae::embed_users`](fvae_core::Fvae::embed_users) at any thread
//! count.
//!
//! ```no_run
//! use fvae_serve::{Client, EmbedOutcome, ServeConfig, Server};
//!
//! let mut server = Server::start(ServeConfig::new("ckpts")).expect("start");
//! let mut client = Client::connect(server.addr()).expect("connect");
//! let fields = vec![(vec![3u64, 9], vec![1.0f32, 2.0]), (vec![], vec![])];
//! match client.embed(&fields).expect("embed") {
//!     EmbedOutcome::Embedding { values, .. } => println!("{values:?}"),
//!     EmbedOutcome::Overloaded => println!("retry later"),
//!     EmbedOutcome::Error { code, msg } => println!("rejected ({code}): {msg}"),
//! }
//! server.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod loadgen;
mod net;
pub mod protocol;
pub mod publish;
pub mod router;
pub mod server;

pub use cache::{fnv64, row_hash, EmbedCache};
pub use client::{Client, ClientError, EmbedOutcome, NearestOutcome, ReloadReport, ServerInfo};
pub use loadgen::{run_loadgen, LatencySummary, LoadGenConfig, LoadGenReport};
pub use publish::{PublishConfig, PublishError, PublishReport, Publisher};
pub use protocol::{
    decode_message, encode_frame, read_frame, read_payload, write_frame, FieldRow, Message,
    ProtoError, RecvError, MAX_FIELDS, MAX_FRAME_LEN,
};
pub use router::{
    FleetInfo, FleetReloadOutcome, Router, RouterConfig, RouterError, ROUTER_TRACE_STAGES,
};
pub use server::{
    BatchPhase, BatchProbe, QuantMode, ReloadOutcome, ServeConfig, ServeError, Server, TRACE_STAGES,
};
