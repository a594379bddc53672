//! Serve-lifecycle regressions: shutdown completes when the server is
//! bound to a wildcard host (the self-connect wake-up must dial loopback,
//! not the bind address), an idle server reaps finished connection
//! threads without waiting for a new connection to arrive, and a failed
//! connection-thread spawn answers the client with an error frame and
//! correct metric accounting instead of a silent reset.

mod common;

use common::{raw_rows, tiny_dataset, trained_model};
use fvae_core::checkpoint::export_model_snapshot;
use fvae_serve::{protocol::error_code, Client, EmbedOutcome, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Release;
use std::time::{Duration, Instant};

fn test_config(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir);
    cfg.batch_size = 4;
    cfg
}

fn exported_dir(tag: &str, seed: u64) -> PathBuf {
    let ds = tiny_dataset(seed);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-lifecycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");
    dir
}

fn metric_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
}

#[test]
fn shutdown_completes_on_wildcard_bind() {
    let dir = exported_dir("wildcard", 51);
    let mut cfg = test_config(&dir);
    // The multi-host fleet configuration: accept from any interface. The
    // shutdown self-connect used to dial this unspecified address, which
    // is not a reliable connect target — shutdown could hang until some
    // real client happened to connect.
    cfg.host = "0.0.0.0".to_string();
    let mut server = Server::start(cfg).expect("start on wildcard");
    assert!(server.addr().ip().is_unspecified(), "fixture really bound a wildcard");

    // Serve one request through loopback to prove the listener works.
    let ds = tiny_dataset(51);
    let n_fields = server.n_fields();
    let mut client =
        Client::connect(("127.0.0.1", server.addr().port())).expect("connect loopback");
    match client.embed(&raw_rows(&ds, 3, n_fields)).expect("embed") {
        EmbedOutcome::Embedding { .. } => {}
        other => panic!("{other:?}"),
    }
    drop(client);

    // Shutdown must finish on its own — no helping client connection. Run
    // it off-thread so a regression fails the watchdog instead of hanging
    // the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        server.shutdown();
        tx.send(()).expect("send");
        server
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown must complete unaided on a wildcard bind");
    drop(watchdog.join().expect("watchdog thread clean"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_server_sweeps_finished_connections() {
    let dir = exported_dir("idlesweep", 52);
    let server = Server::start(test_config(&dir)).expect("start");

    // A burst of short-lived connections, all gone before the check.
    for token in 0..6u64 {
        let mut client = Client::connect(server.addr()).expect("connect");
        client.ping(token).expect("ping");
        drop(client);
    }
    // Connection threads exit asynchronously after the client drop; with
    // no further accepts, only each thread removing its own registry entry
    // can drain the list. It once stayed full until shutdown.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.live_connections() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "idle server still holds {} finished connection entries",
            server.live_connections()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_conn_spawn_answers_with_error_frame_and_counts() {
    let dir = exported_dir("spawnfail", 53);
    let cfg = test_config(&dir);
    let injector = cfg.fail_conn_spawns.clone();
    let server = Server::start(cfg).expect("start");
    let ds = tiny_dataset(53);
    let n_fields = server.n_fields();

    // Arm the injector: the next accepted connection behaves as if the
    // connection-thread spawn failed.
    injector.store(1, Release);
    // The server pushes the error frame unprompted (req_id 0 =
    // connection-scoped), so read without writing first — a client write
    // against the already-closed server half could trigger an RST that
    // discards the buffered frame.
    let mut failed = std::net::TcpStream::connect(server.addr()).expect("tcp connect succeeds");
    failed.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut scratch = Vec::new();
    match fvae_serve::read_frame(&mut failed, &mut scratch) {
        Ok(Some(fvae_serve::Message::ErrorReply { req_id, code, msg })) => {
            assert_eq!(req_id, 0, "connection-scoped error");
            assert_eq!(code, error_code::UNAVAILABLE, "retryable unavailability: {msg}");
        }
        other => panic!("expected the spawn-failure error frame, got {other:?}"),
    }
    drop(failed);

    // The next connection is served normally, and the books balance:
    // one accept error, and the connections counter only covers
    // connections that actually got a serving thread.
    let mut client = Client::connect(server.addr()).expect("connect");
    match client.embed(&raw_rows(&ds, 2, n_fields)).expect("embed") {
        EmbedOutcome::Embedding { .. } => {}
        other => panic!("{other:?}"),
    }
    let text = client.metrics().expect("metrics");
    assert_eq!(
        metric_value(&text, "fvae_serve_accept_errors "),
        Some(1.0),
        "the injected spawn failure was counted:\n{text}"
    );
    assert_eq!(
        metric_value(&text, "fvae_serve_connections "),
        Some(1.0),
        "the failed connection must not inflate the connection counter:\n{text}"
    );
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
