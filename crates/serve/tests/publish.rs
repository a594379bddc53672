//! Publisher→serve parity: after every push, the embeddings a live server
//! returns over the embed RPC are **bit-identical** to running the
//! `Encoder` offline on the snapshot the publisher just published — the
//! PR 5 golden-fixture comparison, applied to a *moving* model.
//!
//! Also pins the witness chain: each reply's `ckpt_id` equals the FNV-1a
//! hash of the published snapshot's normalized bytes, so a served reply
//! can be traced to the exact training step that produced its weights.

mod common;

use std::time::Duration;

use common::{raw_rows, tiny_dataset, trained_model};
use fvae_core::{decode_snapshot, normalized_snapshot_bytes, Checkpointer, export_model_snapshot};
use fvae_data::{dataset_to_events, EventLogWriter};
use fvae_serve::{
    fnv64, Client, EmbedOutcome, PublishConfig, Publisher, ServeConfig, Server,
};

#[test]
fn pushed_snapshots_serve_bit_identical_embeddings() {
    let dir = std::env::temp_dir().join("fvae_publish_parity");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt_dir = dir.join("ckpt");
    let log = dir.join("events.fvlg");

    // Seed data + a warm-start model, and a log holding two passes.
    let ds = tiny_dataset(0x5EED);
    let model = trained_model(&ds, 1);
    export_model_snapshot(&ckpt_dir, &model).expect("warm-start snapshot");
    let mut w = EventLogWriter::create(&log).expect("create log");
    w.append(&dataset_to_events(&ds, 0, 2, 42)).expect("append");
    w.sync().expect("sync");

    // Fleet of one, booted from the warm-start snapshot.
    let mut scfg = ServeConfig::new(&ckpt_dir);
    scfg.cache_capacity = 0; // every request goes through the encoder
    let server = Server::start(scfg).expect("start server");
    let addr = server.addr().to_string();

    let names = ds.field_names().to_vec();
    let vocabs: Vec<usize> = (0..ds.n_fields()).map(|k| ds.field_vocab(k)).collect();
    let mut cfg = PublishConfig::new(&log, &ckpt_dir);
    cfg.push = vec![addr.clone()];
    cfg.snapshot_every = 0; // only the explicit stop-point snapshots push
    cfg.batch_users = 16;
    cfg.idle_exit = Some(Duration::from_millis(100));
    let mut publisher =
        Publisher::new(cfg, names, vocabs, None).expect("resume from warm-start snapshot");

    let users: Vec<usize> = (0..12).collect();
    let mut prev_ckpt_id = None;
    for stop_at in [2u64, 4, 6] {
        let report = publisher.run(Some(stop_at)).expect("publish segment");
        assert_eq!(report.steps, stop_at, "segment trains to the requested step");
        assert_eq!(report.push_failures, 0, "pushes to a live server must land");

        // Offline truth: decode the snapshot that was just pushed.
        let loaded = Checkpointer::load_latest(&ckpt_dir)
            .expect("load")
            .expect("publisher wrote a snapshot");
        let ckpt_id = fnv64(&normalized_snapshot_bytes(&loaded.raw).expect("normalize"));
        assert_ne!(Some(ckpt_id), prev_ckpt_id, "each segment publishes new weights");
        assert_eq!(
            report.pushed_ckpt_ids.last().copied(),
            Some(ckpt_id),
            "report records the committed id"
        );
        prev_ckpt_id = Some(ckpt_id);
        let (offline_model, _) = decode_snapshot(&loaded.raw).expect("decode").into_resume();
        let offline = offline_model.embed_users(&ds, &users, None);

        let mut client = Client::connect(&*addr).expect("connect");
        for (r, &u) in users.iter().enumerate() {
            let fields = raw_rows(&ds, u, offline_model.encoder().n_fields());
            match client.embed(&fields).expect("embed rpc") {
                EmbedOutcome::Embedding { ckpt_id: served_id, values } => {
                    assert_eq!(
                        served_id, ckpt_id,
                        "reply must witness the snapshot that was just pushed"
                    );
                    let want = &offline.as_slice()[r * offline.cols()..(r + 1) * offline.cols()];
                    assert_eq!(values.len(), want.len());
                    for (c, (a, b)) in values.iter().zip(want).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "user {u} col {c}: served {a} vs offline {b} after push at step {stop_at}"
                        );
                    }
                }
                other => panic!("user {u}: unexpected outcome {other:?}"),
            }
        }
    }
    let report = publisher.report();
    assert!(report.pushes_committed >= 3, "one committed push per segment");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A push target that accepts the connection and then never answers used
/// to stall the training loop forever (the reload RPC had no read timeout).
/// The push is bounded now: it is counted as a failure, the run keeps
/// going, and the next snapshot is still written.
#[test]
fn silent_push_target_is_a_counted_failure_not_a_stall() {
    let dir = std::env::temp_dir().join(format!("fvae_publish_silent_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt_dir = dir.join("ckpt");
    let log = dir.join("events.fvlg");

    let ds = tiny_dataset(0xD0D0);
    export_model_snapshot(&ckpt_dir, &trained_model(&ds, 1)).expect("warm-start snapshot");
    let mut w = EventLogWriter::create(&log).expect("create log");
    w.append(&dataset_to_events(&ds, 0, 2, 7)).expect("append");
    w.sync().expect("sync");

    // Accepts both pushes, holds the sockets open, says nothing.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let (release, released) = std::sync::mpsc::channel::<()>();
    let silent = std::thread::spawn(move || {
        let held: Vec<_> = (0..2).map(|_| listener.accept().expect("accept")).collect();
        let _ = released.recv();
        drop(held);
    });

    let names = ds.field_names().to_vec();
    let vocabs: Vec<usize> = (0..ds.n_fields()).map(|k| ds.field_vocab(k)).collect();
    let mut cfg = PublishConfig::new(&log, &ckpt_dir);
    cfg.push = vec![addr];
    cfg.snapshot_every = 0; // only the stop-point snapshots push
    cfg.batch_users = 16;
    cfg.idle_exit = Some(Duration::from_millis(100));
    let registry = fvae_obs::Registry::new();
    let mut publisher = Publisher::new(cfg, names, vocabs, None)
        .expect("resume from warm-start snapshot")
        .with_registry(&registry);

    let newest_id = || {
        let loaded = Checkpointer::load_latest(&ckpt_dir).expect("load").expect("snapshot");
        fnv64(&normalized_snapshot_bytes(&loaded.raw).expect("normalize"))
    };
    let mut prev_id = newest_id();
    for stop_at in [1u64, 2] {
        let started = std::time::Instant::now();
        let report = publisher.run(Some(stop_at)).expect("run survives the silent target");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "push must be bounded, took {:?}",
            started.elapsed()
        );
        assert_eq!(report.steps, stop_at, "training kept going");
        assert_eq!(report.snapshots, stop_at, "the snapshot was still written");
        assert_eq!((report.pushes_committed, report.push_failures), (0, stop_at));
        let id = newest_id();
        assert_ne!(id, prev_id, "a new snapshot is on disk after step {stop_at}");
        prev_id = id;
    }
    let text = registry.render();
    assert!(text.contains("fvae_publish_push_failures_total 2"), "{text}");
    assert!(!text.contains("fvae_publish_pushes_total 1"), "{text}");

    release.send(()).expect("release the silent target");
    silent.join().expect("silent target clean");
    let _ = std::fs::remove_dir_all(&dir);
}
