//! End-to-end exercises of one live server over real sockets: embed
//! round-trips against the offline path, cache behaviour, error replies,
//! metrics exposition, and client-initiated shutdown.

mod common;

use common::{raw_rows, tiny_dataset, trained_model};
use fvae_core::checkpoint::export_model_snapshot;
use fvae_serve::protocol::error_code;
use fvae_serve::{Client, EmbedOutcome, Message, ServeConfig, Server};

fn test_config(dir: &std::path::Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir);
    cfg.batch_size = 4;
    cfg
}

#[test]
fn served_embeddings_match_offline_bit_for_bit() {
    let ds = tiny_dataset(11);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");

    let offline = model.embed_users(&ds, &(0..10).collect::<Vec<_>>(), None);
    let server = Server::start(test_config(&dir)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    for u in 0..10 {
        let rows = raw_rows(&ds, u, server.n_fields());
        match client.embed(&rows).expect("embed") {
            EmbedOutcome::Embedding { ckpt_id, values } => {
                assert_eq!(ckpt_id, server.ckpt_id());
                assert_eq!(values.len(), server.latent_dim());
                for (a, b) in values.iter().zip(offline.row(u)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "user {u}");
                }
            }
            other => panic!("expected embedding for user {u}, got {other:?}"),
        }
    }
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_hit_returns_identical_bytes_and_counts() {
    let ds = tiny_dataset(12);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");

    let server = Server::start(test_config(&dir)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let rows = raw_rows(&ds, 3, server.n_fields());
    let first = client.embed(&rows).expect("embed");
    let second = client.embed(&rows).expect("embed");
    assert_eq!(first, second, "cache hit must serve identical bytes");
    let text = client.metrics().expect("metrics");
    let hits: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("fvae_serve_cache_hits "))
        .and_then(|v| v.trim().parse().ok())
        .expect("cache hits metric present");
    assert!(hits >= 1, "expected at least one cache hit, metrics:\n{text}");
    assert!(text.contains("fvae_serve_requests"), "requests metric exported");
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_requests_get_typed_errors_and_connection_survives() {
    let ds = tiny_dataset(13);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-serve-err-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");

    let server = Server::start(test_config(&dir)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    // Wrong field count.
    match client.embed(&[(vec![1], vec![1.0])]).expect("embed") {
        EmbedOutcome::Error { code, .. } => assert_eq!(code, error_code::BAD_REQUEST),
        other => panic!("expected BAD_REQUEST, got {other:?}"),
    }
    // The connection stays usable after an application-level error.
    client.ping(99).expect("ping after error");
    // A good request still works.
    let rows = raw_rows(&ds, 0, server.n_fields());
    assert!(matches!(client.embed(&rows), Ok(EmbedOutcome::Embedding { .. })));
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reply_kinds_sent_to_server_are_rejected() {
    let ds = tiny_dataset(14);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-serve-kind-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");

    let server = Server::start(test_config(&dir)).expect("start");
    let addr = server.addr();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut buf = Vec::new();
    let msg = Message::Pong { token: 1 };
    fvae_serve::write_frame(&mut stream, &msg, &mut buf).expect("write");
    let mut scratch = Vec::new();
    match fvae_serve::read_frame(&mut stream, &mut scratch).expect("read") {
        Some(Message::ErrorReply { code, .. }) => assert_eq!(code, error_code::PROTOCOL),
        other => panic!("expected protocol error, got {other:?}"),
    }
    drop(stream);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_shutdown_frame_stops_the_server() {
    let ds = tiny_dataset(15);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-serve-stop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");

    let server = Server::start(test_config(&dir)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.shutdown().expect("shutdown ack");
    server.wait(); // returns because the flag is now set
    assert!(server.shutdown_requested());
    drop(server); // full join; must not hang
    let _ = std::fs::remove_dir_all(&dir);
}
