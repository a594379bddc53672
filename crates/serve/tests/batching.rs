//! Work-conserving micro-batching, pinned by counts alone: the batch
//! thread sleeps only on an empty queue, and a batch is whatever is queued
//! (at most `batch_size`) at the moment the encoder becomes free. There is
//! no coalescing timer, so nothing here reads a clock — the probe hook
//! parks the batch thread at a known point and the tests count what it
//! drains next.

mod common;

use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::{raw_rows, tiny_dataset, trained_model};
use fvae_core::checkpoint::export_model_snapshot;
use fvae_serve::{BatchPhase, Client, EmbedOutcome, ServeConfig, ServeError, Server};

const BATCH_SIZE: usize = 4;

/// Hang bound for the waits below: a regression fails here instead of
/// stalling the suite. Never part of an assertion about speed.
const WATCHDOG: Duration = Duration::from_secs(20);

fn exported_dir(tag: &str, seed: u64) -> PathBuf {
    let ds = tiny_dataset(seed);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-batching-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");
    dir
}

fn test_config(dir: &std::path::Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir);
    cfg.batch_size = BATCH_SIZE;
    cfg.cache_capacity = 0; // every request crosses the batch loop
    cfg
}

fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}"))
}

/// Parks the batch thread inside the first batch's `Start`, admits `k`
/// more requests behind it, releases it, and returns every batch size the
/// probe saw, in order.
fn batch_sizes_with_k_queued_behind_a_parked_batch(k: usize) -> Vec<usize> {
    let dir = exported_dir(&format!("parked{k}"), 71);
    let ds = tiny_dataset(71);

    let sizes = Arc::new(Mutex::new(Vec::new()));
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let probe = {
        let sizes = Arc::clone(&sizes);
        Box::new(move |phase: BatchPhase, n: usize| {
            if phase != BatchPhase::Start {
                return;
            }
            let first = {
                let mut sizes = sizes.lock().expect("sizes mutex");
                sizes.push(n);
                sizes.len() == 1
            };
            if first {
                parked_tx.send(()).expect("test is waiting for the park");
                // A dropped sender (the test failed early) releases too, so
                // the server can still drain and shut down.
                let _ = release_rx.recv();
            }
        })
    };
    let server = Server::start_with_probe(test_config(&dir), Some(probe)).expect("start");
    let (addr, n_fields) = (server.addr(), server.n_fields());

    let embed = |user: usize| {
        let rows = raw_rows(&ds, user, n_fields);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            match client.embed(&rows).expect("one reply per request") {
                EmbedOutcome::Embedding { .. } => {}
                other => panic!("user {user}: expected an embedding, got {other:?}"),
            }
        })
    };

    // An idle server takes the lone request at once: batch 1, size 1.
    let mut clients = vec![embed(0)];
    parked_rx.recv_timeout(WATCHDOG).expect("first batch reaches its Start");

    // The encoder is now "busy". Everything admitted meanwhile queues.
    clients.extend((1..=k).map(embed));
    let deadline = Instant::now() + WATCHDOG;
    while metric(&server.metrics_text(), "fvae_serve_queue_depth ") != k as u64 {
        assert!(Instant::now() < deadline, "{k} requests never all reached the queue");
        std::thread::sleep(Duration::from_millis(2));
    }

    release_tx.send(()).expect("probe is parked on the receiver");
    for c in clients {
        c.join().expect("client got its embedding");
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    let sizes = sizes.lock().expect("sizes mutex").clone();
    sizes
}

#[test]
fn batch_is_what_queued_while_the_encoder_was_busy() {
    // Fewer than a batch queued: the next batch is all of them.
    assert_eq!(batch_sizes_with_k_queued_behind_a_parked_batch(3), [1, 3]);
    // More than a batch: a full one, then the remainder — no waiting to
    // top the second one up.
    assert_eq!(
        batch_sizes_with_k_queued_behind_a_parked_batch(BATCH_SIZE + 2),
        [1, BATCH_SIZE, 2]
    );
}

#[test]
fn idle_server_encodes_each_lone_request_as_its_own_batch() {
    const N: usize = 12;
    let dir = exported_dir("lone", 72);
    let ds = tiny_dataset(72);
    let model = trained_model(&ds, 1);
    let offline = model.embed_users(&ds, &(0..N).collect::<Vec<_>>(), None);

    let mut server = Server::start(test_config(&dir)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    for u in 0..N {
        match client.embed(&raw_rows(&ds, u, server.n_fields())).expect("embed") {
            EmbedOutcome::Embedding { values, .. } => {
                let served: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
                let expect: Vec<u32> = offline.row(u).iter().map(|v| v.to_bits()).collect();
                assert_eq!(served, expect, "user {u} differs from offline embed_users");
            }
            other => panic!("expected embedding for user {u}, got {other:?}"),
        }
    }
    drop(client);
    // The batch thread counts a batch after fulfilling its replies; joining
    // it makes the last count visible.
    server.shutdown();
    let text = server.metrics_text();
    assert_eq!(metric(&text, "fvae_serve_batch_size_count "), N as u64, "one batch per request");
    assert_eq!(metric(&text, "fvae_serve_batch_size_sum "), N as u64, "every batch of size 1");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_batch_size_is_a_typed_start_error() {
    // A batch thread with batch_size 0 drains zero requests per turn
    // forever: the first queued request times out and shutdown never
    // returns. Start refuses the configuration before anything is queued.
    let dir = exported_dir("zero", 73);
    let mut cfg = test_config(&dir);
    cfg.batch_size = 0;
    assert!(
        matches!(Server::start(cfg), Err(ServeError::ZeroBatchSize)),
        "batch_size 0 must be a typed start error"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
