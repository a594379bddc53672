//! Live multi-shard fleet behind `fvae-router`: routed embeddings stay
//! bit-identical to offline inference, every scheduled request gets
//! exactly one reply while a shard dies mid-run (failover preserves the
//! invariant end-to-end), a killed shard trips the unhealthy gauge and a
//! restarted one is re-admitted through the half-open probe, coordinated
//! reload commits all shards or rolls every one back, and a mixed-version
//! fleet is refused at startup.

mod common;

use common::{raw_rows, tiny_dataset, trained_model};
use fvae_core::checkpoint::export_model_snapshot;
use fvae_serve::{
    Client, EmbedOutcome, Router, RouterConfig, RouterError, ServeConfig, Server,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn shard_config(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir);
    cfg.batch_size = 4;
    cfg.cache_capacity = 0; // embeddings must reflect the live model
    cfg
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fvae-router-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts `n` shards over one checkpoint dir plus a router fronting them
/// through a shards file (so tests can repoint a restarted shard).
fn start_fleet(dir: &Path, n: usize, tag: &str) -> (Vec<Server>, PathBuf, Router) {
    let shards: Vec<Server> =
        (0..n).map(|_| Server::start(shard_config(dir)).expect("start shard")).collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let shards_file = std::env::temp_dir().join(format!(
        "fvae-router-shards-{tag}-{}.txt",
        std::process::id()
    ));
    std::fs::write(&shards_file, addrs.join("\n") + "\n").expect("write shards file");
    let mut cfg = RouterConfig::new(addrs);
    cfg.shards_file = Some(shards_file.clone());
    cfg.fail_threshold = 1;
    cfg.probe_interval = Duration::from_millis(200);
    let router = Router::start(cfg).expect("start router");
    (shards, shards_file, router)
}

fn metric_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
}

#[test]
fn routed_embeddings_are_bit_identical_to_offline() {
    let ds = tiny_dataset(41);
    let model = trained_model(&ds, 1);
    let dir = tmp_dir("parity");
    export_model_snapshot(&dir, &model).expect("export");

    let (shards, shards_file, router) = start_fleet(&dir, 3, "parity");
    let n_fields = shards[0].n_fields();
    let users: Vec<usize> = (0..20).collect();
    let offline = model.embed_users(&ds, &users, None);

    let mut client = Client::connect(router.addr()).expect("connect router");
    client.ping(7).expect("ping through router");
    let info = client.info().expect("info through router");
    assert_eq!(info.n_fields, n_fields);
    assert_eq!(info.ckpt_id, shards[0].ckpt_id(), "router reports the fleet checkpoint");

    for &u in &users {
        match client.embed(&raw_rows(&ds, u, n_fields)).expect("embed") {
            EmbedOutcome::Embedding { ckpt_id, values } => {
                assert_eq!(ckpt_id, info.ckpt_id);
                for (a, b) in values.iter().zip(offline.row(u)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "user {u}: routed != offline");
                }
            }
            other => panic!("user {u}: {other:?}"),
        }
    }

    // The router answered from its own metrics registry, and the request
    // volume crossed the shard RPC path (labeled per-shard series exist).
    let text = client.metrics().expect("metrics through router");
    assert!(
        metric_value(&text, "fvae_router_requests ").unwrap_or(0.0) >= users.len() as f64,
        "router counted its requests:\n{text}"
    );
    assert!(
        text.contains("fvae_router_shard_rpc_ns") && text.contains("shard=\""),
        "per-shard rpc series rendered:\n{text}"
    );
    assert_eq!(metric_value(&text, "fvae_router_unhealthy_shards "), Some(0.0));

    // Trace ids flowed through the router's shard_rpc stage.
    let events = router.trace_events();
    assert!(
        events.iter().any(|e| e.stage == "shard_rpc"),
        "routed requests record shard_rpc spans"
    );

    drop(client);
    drop(router);
    drop(shards);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&shards_file);
}

#[test]
fn exactly_one_reply_per_request_while_a_shard_dies_and_recovers() {
    let ds = tiny_dataset(42);
    let model = trained_model(&ds, 1);
    let dir = tmp_dir("failover");
    export_model_snapshot(&dir, &model).expect("export");

    let (mut shards, shards_file, router) = start_fleet(&dir, 3, "failover");
    let n_fields = shards[0].n_fields();
    let users: Vec<usize> = (0..60).collect();
    let offline = model.embed_users(&ds, &users, None);

    // Open-loop-ish schedule: 4 client threads, each sending a fixed list
    // of requests. A shard dies at ~50% of the total schedule; every
    // request must still get exactly one bit-exact embedding (failover,
    // not loss, and zero hangs — reads are bounded by a 30s timeout).
    const THREADS: usize = 4;
    const PER_THREAD: usize = 120;
    let sent = Arc::new(AtomicU64::new(0));
    let addr = router.addr();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let sent = Arc::clone(&sent);
            let rows: Vec<(usize, Vec<fvae_serve::FieldRow>)> =
                users.iter().map(|&u| (u, raw_rows(&ds, u, n_fields))).collect();
            let expected = offline.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
                let mut replies = 0u64;
                for i in 0..PER_THREAD {
                    let (u, fields) = &rows[(t * 17 + i * 7) % rows.len()];
                    match client.embed(fields).expect("every request gets a reply") {
                        EmbedOutcome::Embedding { values, .. } => {
                            for (a, b) in values.iter().zip(expected.row(*u)) {
                                assert_eq!(a.to_bits(), b.to_bits(), "user {u}: wrong bits");
                            }
                            replies += 1;
                        }
                        other => panic!("request for user {u} not served: {other:?}"),
                    }
                    sent.fetch_add(1, Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
                replies
            })
        })
        .collect();

    // Kill shard 1 once half the schedule is in flight.
    let half = (THREADS * PER_THREAD) as u64 / 2;
    while sent.load(Relaxed) < half {
        std::thread::sleep(Duration::from_millis(5));
    }
    let killed = shards.remove(1);
    drop(killed);

    let mut total = 0u64;
    for w in workers {
        total += w.join().expect("worker thread clean");
    }
    assert_eq!(total, (THREADS * PER_THREAD) as u64, "exactly one reply per request");

    // Drive one more pass so the dead shard's ring share records failures,
    // then confirm the unhealthy gauge tripped.
    let mut client = Client::connect(router.addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    for &u in &users {
        match client.embed(&raw_rows(&ds, u, n_fields)).expect("embed") {
            EmbedOutcome::Embedding { .. } => {}
            other => panic!("post-kill request not served: {other:?}"),
        }
    }
    assert!(
        router.unhealthy_shards() >= 1,
        "the killed shard must be marked unhealthy"
    );
    let text = client.metrics().expect("metrics");
    assert!(
        metric_value(&text, "fvae_router_unhealthy_shards ").unwrap_or(0.0) >= 1.0,
        "unhealthy gauge visible over the wire:\n{text}"
    );
    assert!(
        metric_value(&text, "fvae_router_retries ").unwrap_or(0.0) >= 1.0,
        "failovers were counted as retries:\n{text}"
    );

    // Restart the shard on a fresh port, repoint its shards-file line, and
    // keep traffic flowing: the half-open probe must re-admit it.
    let replacement = Server::start(shard_config(&dir)).expect("restart shard");
    let mut addrs: Vec<String> = std::fs::read_to_string(&shards_file)
        .expect("read shards file")
        .lines()
        .map(str::to_string)
        .collect();
    addrs[1] = replacement.addr().to_string();
    std::fs::write(&shards_file, addrs.join("\n") + "\n").expect("rewrite shards file");

    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        for &u in &users {
            match client.embed(&raw_rows(&ds, u, n_fields)).expect("embed") {
                EmbedOutcome::Embedding { .. } => {}
                other => panic!("recovery-phase request not served: {other:?}"),
            }
        }
        if router.unhealthy_shards() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "restarted shard was never re-admitted by the probe"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    drop(client);
    drop(router);
    drop(replacement);
    drop(shards);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&shards_file);
}

#[test]
fn coordinated_reload_commits_all_shards_or_rolls_every_one_back() {
    let ds = tiny_dataset(43);
    let model_a = trained_model(&ds, 1); // step 4  → ckpt-…04
    let model_b = trained_model(&ds, 2); // step 8  → newer
    let model_c = trained_model(&ds, 3); // step 12 → newer still
    let dir_01 = tmp_dir("reload-d1"); // shards 0 and 1
    let dir_2 = tmp_dir("reload-d2"); // shard 2
    export_model_snapshot(&dir_01, &model_a).expect("export A to d1");
    export_model_snapshot(&dir_2, &model_a).expect("export A to d2");

    let shard0 = Server::start(shard_config(&dir_01)).expect("shard 0");
    let shard1 = Server::start(shard_config(&dir_01)).expect("shard 1");
    let shard2 = Server::start(shard_config(&dir_2)).expect("shard 2");
    let id_a = shard0.ckpt_id();
    assert_eq!(shard2.ckpt_id(), id_a, "content-addressed identity is dir-independent");

    let addrs =
        vec![shard0.addr().to_string(), shard1.addr().to_string(), shard2.addr().to_string()];
    let router = Router::start(RouterConfig::new(addrs)).expect("router");
    let mut client = Client::connect(router.addr()).expect("connect");

    // All shards find the same new snapshot → the fleet commits.
    export_model_snapshot(&dir_01, &model_b).expect("export B to d1");
    export_model_snapshot(&dir_2, &model_b).expect("export B to d2");
    let report = client.reload().expect("reload rpc");
    assert!(report.ok, "uniform reload commits: {}", report.detail);
    assert!(report.changed);
    let id_b = report.ckpt_id;
    assert_ne!(id_b, id_a);
    for s in [&shard0, &shard1, &shard2] {
        assert_eq!(s.ckpt_id(), id_b, "every shard serves the committed checkpoint");
    }
    assert_eq!(client.info().expect("info").ckpt_id, id_b);
    assert_eq!(router.fleet_info().ckpt_id, id_b);

    // Shards diverge (a new snapshot landed on only one dir): the fleet
    // must refuse the transaction and roll the moved shards back.
    export_model_snapshot(&dir_01, &model_c).expect("export C to d1 only");
    let report = client.reload().expect("reload rpc");
    assert!(!report.ok, "diverged reload must not commit");
    assert_eq!(report.ckpt_id, id_b, "fleet reports the old checkpoint");
    for s in [&shard0, &shard1, &shard2] {
        assert_eq!(s.ckpt_id(), id_b, "rollback restored every shard");
    }
    assert_eq!(client.info().expect("info").ckpt_id, id_b, "no mixed version observable");

    // One shard refuses outright (architecture change): two shards move
    // forward, the transaction aborts, and both are rolled back.
    let mut cfg = fvae_core::FvaeConfig::for_dataset(&ds);
    cfg.latent_dim = 4;
    cfg.enc_hidden = 16;
    cfg.batch_size = 16;
    let mut narrow = fvae_core::Fvae::new(cfg);
    let users: Vec<usize> = (0..ds.n_users()).collect();
    narrow.train_epochs(&ds, &users, 4, |_, _| {});
    export_model_snapshot(&dir_2, &narrow).expect("export narrow to d2");
    let report = client.reload().expect("reload rpc");
    assert!(!report.ok, "refused reload must not commit");
    assert_eq!(report.ckpt_id, id_b);
    assert!(
        report.detail.contains("shard 2"),
        "the refusing shard is named: {}",
        report.detail
    );
    for s in [&shard0, &shard1, &shard2] {
        assert_eq!(s.ckpt_id(), id_b, "rollback restored the shards that had moved");
    }
    assert_eq!(router.fleet_info().ckpt_id, id_b);

    let text = client.metrics().expect("metrics");
    assert!(metric_value(&text, "fvae_router_reloads ").unwrap_or(0.0) >= 1.0);
    assert!(metric_value(&text, "fvae_router_reload_errors ").unwrap_or(0.0) >= 2.0);
    assert!(
        metric_value(&text, "fvae_router_reload_rollbacks ").unwrap_or(0.0) >= 2.0,
        "both aborts rolled back cleanly:\n{text}"
    );

    drop(client);
    drop(router);
    drop((shard0, shard1, shard2));
    let _ = std::fs::remove_dir_all(&dir_01);
    let _ = std::fs::remove_dir_all(&dir_2);
}

#[test]
fn mixed_version_fleet_is_rejected_at_startup() {
    let ds = tiny_dataset(44);
    let model_a = trained_model(&ds, 1);
    let model_b = trained_model(&ds, 2);
    let dir_a = tmp_dir("mixed-a");
    let dir_b = tmp_dir("mixed-b");
    export_model_snapshot(&dir_a, &model_a).expect("export A");
    export_model_snapshot(&dir_b, &model_b).expect("export B");

    let shard0 = Server::start(shard_config(&dir_a)).expect("shard 0");
    let shard1 = Server::start(shard_config(&dir_b)).expect("shard 1");
    let addrs = vec![shard0.addr().to_string(), shard1.addr().to_string()];
    match Router::start(RouterConfig::new(addrs)) {
        Err(RouterError::Fleet(msg)) => {
            assert!(msg.contains("mixed fleet"), "cause is named: {msg}");
        }
        Ok(_) => panic!("a mixed-version fleet must not start"),
        Err(other) => panic!("wrong error kind: {other}"),
    }

    drop((shard0, shard1));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
