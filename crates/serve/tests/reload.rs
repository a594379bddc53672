//! Hot checkpoint reload under live traffic: the swap is atomic (every
//! in-flight request is answered from a consistent snapshot — old or new,
//! never a mix), post-swap requests reflect the new weights bit-for-bit,
//! re-loading an identical snapshot is recognized as a no-op, a directory
//! with only corrupt snapshots fails the reload while the old model keeps
//! serving, and a snapshot with a different architecture is rejected (the
//! cache slab and admitted requests are sized for the startup model).

mod common;

use common::{raw_rows, tiny_dataset, trained_model};
use fvae_core::checkpoint::export_model_snapshot;
use fvae_serve::{Client, EmbedOutcome, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

fn test_config(dir: &std::path::Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir);
    cfg.batch_size = 4;
    cfg.cache_capacity = 0; // embeddings must reflect the live model
    cfg
}

#[test]
fn reload_swaps_atomically_under_live_traffic() {
    let ds = tiny_dataset(31);
    let model_a = trained_model(&ds, 1);
    let model_b = trained_model(&ds, 3); // more steps → newer snapshot name
    let dir = std::env::temp_dir().join(format!("fvae-serve-reload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model_a).expect("export A");

    let users: Vec<usize> = (0..20).collect();
    let offline_a = model_a.embed_users(&ds, &users, None);
    let offline_b = model_b.embed_users(&ds, &users, None);
    // The swap must be observable: A and B must actually disagree.
    assert!(
        offline_a
            .as_slice()
            .iter()
            .zip(offline_b.as_slice())
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "fixture models are distinguishable"
    );

    let server = Server::start(test_config(&dir)).expect("start");
    let id_a = server.ckpt_id();
    let addr = server.addr();
    let n_fields = server.n_fields();

    // Background traffic across the swap. Every reply must be *exactly*
    // model A's or model B's output for that user — a torn snapshot would
    // produce a third value.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = Arc::clone(&stop);
        let rows: Vec<_> = users.iter().map(|&u| (u, raw_rows(&ds, u, n_fields))).collect();
        let (exp_a, exp_b) = (offline_a.clone(), offline_b.clone());
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut served = 0u64;
            let mut saw_b = false;
            while !stop.load(Relaxed) || !saw_b {
                for (u, fields) in &rows {
                    match client.embed(fields).expect("reply") {
                        EmbedOutcome::Embedding { values, .. } => {
                            let bits: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
                            let a_bits: Vec<u32> = exp_a.row(*u).iter().map(|v| v.to_bits()).collect();
                            let b_bits: Vec<u32> = exp_b.row(*u).iter().map(|v| v.to_bits()).collect();
                            assert!(
                                bits == a_bits || bits == b_bits,
                                "user {u}: reply is neither model A nor model B"
                            );
                            saw_b |= bits == b_bits;
                            served += 1;
                        }
                        other => panic!("in-flight request dropped: {other:?}"),
                    }
                }
                if served > 50_000 {
                    panic!("reload never became visible to traffic");
                }
            }
            served
        })
    };

    std::thread::sleep(Duration::from_millis(20)); // let A-traffic flow
    export_model_snapshot(&dir, &model_b).expect("export B");
    let outcome = server.reload().expect("reload");
    assert!(outcome.changed, "new snapshot must swap in");
    assert_ne!(outcome.ckpt_id, id_a);
    assert_eq!(server.ckpt_id(), outcome.ckpt_id);

    stop.store(true, Relaxed);
    let served = traffic.join().expect("traffic thread clean");
    assert!(served >= users.len() as u64, "traffic actually flowed");

    // Steady state after the swap: every user now gets exactly B.
    let mut client = Client::connect(addr).expect("connect");
    for &u in &users {
        match client.embed(&raw_rows(&ds, u, n_fields)).expect("embed") {
            EmbedOutcome::Embedding { ckpt_id, values } => {
                assert_eq!(ckpt_id, outcome.ckpt_id);
                for (a, b) in values.iter().zip(offline_b.row(u)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "user {u} must serve model B");
                }
            }
            other => panic!("user {u}: {other:?}"),
        }
    }
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_snapshot_reload_is_a_noop() {
    let ds = tiny_dataset(32);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-serve-noop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");

    let server = Server::start(test_config(&dir)).expect("start");
    let id = server.ckpt_id();

    // Nothing new on disk.
    let outcome = server.reload().expect("reload");
    assert!(!outcome.changed);
    assert_eq!(outcome.ckpt_id, id);

    // Re-export the same model: byte-identical file, same normalized
    // hash — still a no-op even though the mtime changed.
    export_model_snapshot(&dir, &model).expect("re-export");
    let mut client = Client::connect(server.addr()).expect("connect");
    let report = client.reload().expect("reload rpc");
    assert!(report.ok);
    assert!(!report.changed, "byte-identical snapshot must be skipped");
    assert_eq!(report.ckpt_id, id);

    let text = client.metrics().expect("metrics");
    let noops: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("fvae_serve_reload_noops ").and_then(|v| v.trim().parse().ok()))
        .expect("noop metric");
    assert!(noops >= 2, "both reloads recognized as no-ops, metrics:\n{text}");
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshots_reject_reload_and_old_model_keeps_serving() {
    let ds = tiny_dataset(33);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-serve-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");

    let server = Server::start(test_config(&dir)).expect("start");
    let id = server.ckpt_id();
    let n_fields = server.n_fields();
    let mut client = Client::connect(server.addr()).expect("connect");
    let rows = raw_rows(&ds, 5, n_fields);
    let before = match client.embed(&rows).expect("embed") {
        EmbedOutcome::Embedding { values, .. } => values,
        other => panic!("{other:?}"),
    };

    // Corrupt every snapshot on disk (flip a byte mid-file: CRC breaks).
    for entry in std::fs::read_dir(&dir).expect("dir") {
        let path = entry.expect("entry").path();
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write corrupt");
    }

    assert!(server.reload().is_err(), "reload must reject a dir of corrupt snapshots");
    let report = client.reload().expect("reload rpc");
    assert!(!report.ok, "client-visible rejection");
    assert_eq!(report.ckpt_id, id, "old checkpoint still active");

    // The old model still serves, bit-for-bit.
    match client.embed(&rows).expect("embed") {
        EmbedOutcome::Embedding { ckpt_id, values } => {
            assert_eq!(ckpt_id, id);
            for (a, b) in values.iter().zip(&before) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        other => panic!("{other:?}"),
    }
    let text = client.metrics().expect("metrics");
    let errs: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("fvae_serve_reload_errors ").and_then(|v| v.trim().parse().ok()))
        .expect("reload error metric");
    assert!(errs >= 2, "both failed reloads counted, metrics:\n{text}");
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads one counter value out of a Prometheus text dump.
fn metric_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        l.strip_prefix(name).and_then(|v| v.trim().parse::<f64>().ok()).map(|v| v as u64)
    })
}

#[test]
fn concurrent_reload_storm_serializes_with_exact_accounting() {
    let ds = tiny_dataset(36);
    let model_a = trained_model(&ds, 1);
    let model_b = trained_model(&ds, 2);
    let model_c = trained_model(&ds, 3);
    let dir = std::env::temp_dir().join(format!("fvae-serve-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model_a).expect("export A");

    let server = Server::start(test_config(&dir)).expect("start");
    let addr = server.addr();
    let id_a = server.ckpt_id();

    // N concurrent ReloadRequests against one new snapshot: the reload
    // lock must serialize them into exactly one swap; everyone else
    // observes the already-current snapshot as a no-op.
    const STORM: usize = 8;
    let storm = |expect_id_change_from: u64| -> (u64, u64) {
        let workers: Vec<_> = (0..STORM)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let report = client.reload().expect("reload rpc");
                    assert!(report.ok, "storm reload must succeed: {}", report.detail);
                    assert_ne!(
                        report.ckpt_id, expect_id_change_from,
                        "every reply reports the new checkpoint"
                    );
                    (report.changed as u64, report.ckpt_id)
                })
            })
            .collect();
        let results: Vec<(u64, u64)> = workers.into_iter().map(|w| w.join().expect("worker")).collect();
        let changed: u64 = results.iter().map(|(c, _)| c).sum();
        assert!(
            results.windows(2).all(|w| w[0].1 == w[1].1),
            "all replies agree on the active checkpoint"
        );
        (changed, results[0].1)
    };

    export_model_snapshot(&dir, &model_b).expect("export B");
    let (changed, id_b) = storm(id_a);
    assert_eq!(changed, 1, "exactly one storm request performed the swap");
    assert_eq!(server.ckpt_id(), id_b);

    export_model_snapshot(&dir, &model_c).expect("export C");
    let (changed, id_c) = storm(id_b);
    assert_eq!(changed, 1, "second distinct snapshot swaps exactly once");
    assert_eq!(server.ckpt_id(), id_c);

    let mut client = Client::connect(addr).expect("connect");
    let text = client.metrics().expect("metrics");
    assert_eq!(
        metric_value(&text, "fvae_serve_reloads "),
        Some(2),
        "one swap per distinct snapshot:\n{text}"
    );
    assert_eq!(
        metric_value(&text, "fvae_serve_reload_noops "),
        Some(2 * (STORM as u64 - 1)),
        "every other storm request was a no-op:\n{text}"
    );
    assert_eq!(metric_value(&text, "fvae_serve_reload_errors "), Some(0));
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn targeted_reload_rolls_back_to_an_exact_checkpoint() {
    let ds = tiny_dataset(37);
    let model_a = trained_model(&ds, 1);
    let model_b = trained_model(&ds, 2);
    let dir = std::env::temp_dir().join(format!("fvae-serve-target-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model_a).expect("export A");

    let server = Server::start(test_config(&dir)).expect("start");
    let id_a = server.ckpt_id();
    let n_fields = server.n_fields();
    let users: Vec<usize> = (0..10).collect();
    let offline_a = model_a.embed_users(&ds, &users, None);

    // Forward to B the ordinary way, then roll back to A *by identity* —
    // even though A is no longer the newest snapshot on disk.
    export_model_snapshot(&dir, &model_b).expect("export B");
    let forward = server.reload().expect("reload");
    assert!(forward.changed);
    let id_b = forward.ckpt_id;
    assert_ne!(id_b, id_a);

    let mut client = Client::connect(server.addr()).expect("connect");
    let report = client.reload_to(id_a).expect("reload_to rpc");
    assert!(report.ok, "rollback target exists: {}", report.detail);
    assert!(report.changed);
    assert_eq!(report.ckpt_id, id_a);
    assert_eq!(server.ckpt_id(), id_a);

    // The rolled-back model serves bit-for-bit A.
    for &u in &users {
        match client.embed(&raw_rows(&ds, u, n_fields)).expect("embed") {
            EmbedOutcome::Embedding { ckpt_id, values } => {
                assert_eq!(ckpt_id, id_a);
                for (x, y) in values.iter().zip(offline_a.row(u)) {
                    assert_eq!(x.to_bits(), y.to_bits(), "user {u} serves model A again");
                }
            }
            other => panic!("user {u}: {other:?}"),
        }
    }

    // Targeting the active checkpoint is a filesystem-free no-op.
    let report = client.reload_to(id_a).expect("reload_to rpc");
    assert!(report.ok && !report.changed);
    assert_eq!(report.ckpt_id, id_a);

    // Targeting an identity no snapshot has fails loudly; the old model
    // keeps serving.
    let bogus = id_a ^ 0xdead_beef;
    let report = client.reload_to(bogus).expect("reload_to rpc");
    assert!(!report.ok, "unknown identity must be refused");
    assert!(report.detail.contains("no snapshot"), "cause is named: {}", report.detail);
    assert_eq!(report.ckpt_id, id_a, "still serving the pre-request checkpoint");
    assert_eq!(server.ckpt_id(), id_a);
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn architecture_changing_reload_is_rejected() {
    let ds = tiny_dataset(34);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-serve-arch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");

    let server = Server::start(test_config(&dir)).expect("start");
    let id = server.ckpt_id();
    let dim = server.latent_dim();
    let n_fields = server.n_fields();
    let mut client = Client::connect(server.addr()).expect("connect");
    let rows = raw_rows(&ds, 7, n_fields);
    let before = match client.embed(&rows).expect("embed") {
        EmbedOutcome::Embedding { values, .. } => values,
        other => panic!("{other:?}"),
    };

    // A *newer* snapshot (more training steps → later file name) with a
    // different latent_dim. Swapping it in would break the cache slab and
    // every pre-sized reply cell, so reload must refuse it.
    let mut cfg = fvae_core::FvaeConfig::for_dataset(&ds);
    cfg.latent_dim = 4;
    cfg.enc_hidden = 16;
    cfg.batch_size = 16;
    let mut narrow = fvae_core::Fvae::new(cfg);
    let users: Vec<usize> = (0..ds.n_users()).collect();
    narrow.train_epochs(&ds, &users, 3, |_, _| {});
    export_model_snapshot(&dir, &narrow).expect("export narrow");

    let err = server.reload().expect_err("architecture change must be rejected");
    assert!(
        err.to_string().contains("architecture mismatch"),
        "rejection names the cause: {err}"
    );
    let report = client.reload().expect("reload rpc");
    assert!(!report.ok, "client-visible rejection");
    assert_eq!(report.ckpt_id, id, "old checkpoint still active");
    assert_eq!(server.ckpt_id(), id);
    assert_eq!(server.latent_dim(), dim);

    // The old model still serves, bit-for-bit — the batch thread survived.
    match client.embed(&rows).expect("embed") {
        EmbedOutcome::Embedding { ckpt_id, values } => {
            assert_eq!(ckpt_id, id);
            assert_eq!(values.len(), dim);
            for (a, b) in values.iter().zip(&before) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        other => panic!("{other:?}"),
    }
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
