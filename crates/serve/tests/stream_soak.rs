//! The drift-recovery soak: continuous serving while the model retrains on
//! a drifting distribution — the headline proof that the streaming
//! train→serve loop works end to end.
//!
//! Topology: one event log → publisher (tail, train, snapshot, push) → a
//! 2-shard fleet behind `fvae router` (all-or-nothing coordinated reload),
//! with a closed-loop client hammering the router the whole time.
//!
//! At t=half the synthetic distribution *drifts*: a second phase of
//! never-seen users drawn from a re-seeded topic mixture (different
//! token↔topic permutations) is appended to the log. The soak asserts:
//!
//! 1. **Zero dropped replies** — every request sent during every live
//!    reload gets exactly one successful reply.
//! 2. **Monotone checkpoint progression** — the distinct `ckpt_id`
//!    sequence witnessed per-reply is a subsequence of the publisher's
//!    committed push order (ids are hashes, so "monotone" means ordered by
//!    publication, never regressing to an older snapshot).
//! 3. **Drift recovery** — tag-prediction AUC of the pre-drift model on
//!    post-drift data degrades, and the continuously trained model
//!    recovers to ≥ 95 % of the pre-drift AUC.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::raw_rows;
use fvae_core::{export_model_snapshot, EncoderScratch, Fvae, FvaeConfig, InputRows};
use fvae_data::{
    dataset_to_events, tag_prediction_cases, EventLogWriter, FieldSpec, MultiFieldDataset,
    SplitIndices, TopicModelConfig,
};
use fvae_metrics::{auc, Mean};
use fvae_serve::{
    Client, EmbedOutcome, PublishConfig, Publisher, Router, RouterConfig, ServeConfig, Server,
};

const BATCH_USERS: usize = 24;
const PHASE_USERS: usize = 360;
/// Passes over each phase. Recovery must first *unlearn* the pre-drift
/// token-topic associations, so the post-drift window gets more passes —
/// the soak claim is "recovers within the window", not "recovers as fast
/// as it learned from scratch".
const REPEATS_PRE: usize = 6;
const REPEATS_POST: usize = 12;

fn phase(seed: u64) -> MultiFieldDataset {
    TopicModelConfig {
        n_users: PHASE_USERS,
        n_topics: 4,
        alpha: 0.08,
        fields: vec![
            FieldSpec::new("ch", 24, 6, 1.3),
            FieldSpec::new("ch2", 96, 10, 1.3),
            FieldSpec::new("tag", 160, 12, 1.3),
        ],
        pair_prob: 0.0,
        seed,
    }
    .generate()
}

fn config(ds: &MultiFieldDataset) -> FvaeConfig {
    let mut cfg = FvaeConfig::for_dataset(ds);
    cfg.latent_dim = 8;
    cfg.enc_hidden = 16;
    cfg.dec_hidden = vec![16];
    cfg.batch_size = BATCH_USERS;
    // Finish the KL anneal inside the first half so both phases train at
    // the same β — otherwise recovery competes against a harder objective
    // than the pre-drift baseline faced.
    cfg.anneal_steps = 20;
    // Small windows + a short soak: a hotter learning rate stands in for
    // the epochs a production run would have.
    cfg.lr = 6e-3;
    cfg
}

/// Mean tag-prediction AUC of `model` on `ds` — the CLI `evaluate` loop.
fn tag_auc(model: &Fvae, ds: &MultiFieldDataset, seed: u64) -> f64 {
    let tag_field = ds.field_index("tag").expect("tag field");
    let channels: Vec<usize> = (0..ds.n_fields()).filter(|&k| k != tag_field).collect();
    let split = SplitIndices::random(ds.n_users(), 0.0, 0.25, seed);
    let cases = tag_prediction_cases(ds, &split.test, tag_field, seed);
    assert!(!cases.is_empty(), "eval split produced no cases");
    let encoder = model.encoder();
    let mut input = InputRows::default();
    let mut scratch = EncoderScratch::default();
    let mut z = fvae_tensor::Matrix::default();
    let mut mean = Mean::new();
    for case in &cases {
        encoder.embed_users_into(ds, &[case.user], Some(&channels), &mut input, &mut scratch, &mut z);
        let scores = model.field_logits(&z, tag_field, &case.candidates);
        mean.push(auc(scores.row(0), &case.labels));
    }
    mean.mean()
}

struct TrafficReport {
    sent: u64,
    replied: u64,
    /// Distinct consecutive `ckpt_id`s in witness order, per request key.
    /// A key row-hashes to a fixed shard, so its sequence samples that
    /// shard's swap history; a fleet-wide sequence would interleave shards
    /// mid-reload and say nothing about monotonicity.
    id_transitions: Vec<Vec<u64>>,
}

/// True when `observed` appears in order within `published`.
fn is_subsequence(observed: &[u64], published: &[u64]) -> bool {
    let mut it = published.iter();
    observed.iter().all(|o| it.any(|p| p == o))
}

#[test]
fn soak_drift_recovery_with_continuous_serving() {
    let dir = std::env::temp_dir().join("fvae_stream_soak");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt_dir = dir.join("ckpt");
    let log = dir.join("events.fvlg");

    let pre = phase(101);
    let post = phase(909);
    let names = pre.field_names().to_vec();
    let vocabs: Vec<usize> = (0..pre.n_fields()).map(|k| pre.field_vocab(k)).collect();

    // Log starts with the pre-drift phase only; drift is appended mid-soak.
    let mut writer = EventLogWriter::create(&log).expect("create log");
    writer.append(&dataset_to_events(&pre, 0, REPEATS_PRE, 7)).expect("append pre-drift");
    writer.sync().expect("sync");

    // Boot the fleet from an untrained snapshot so serving starts at t=0.
    export_model_snapshot(&ckpt_dir, &Fvae::new(config(&pre))).expect("boot snapshot");
    let serve_cfg = || {
        let mut c = ServeConfig::new(&ckpt_dir);
        c.cache_capacity = 0; // a reply must witness the *live* model
        c
    };
    let shard_a = Server::start(serve_cfg()).expect("shard A");
    let shard_b = Server::start(serve_cfg()).expect("shard B");
    let router =
        Router::start(RouterConfig::new(vec![shard_a.addr().to_string(), shard_b.addr().to_string()]))
            .expect("router");
    let router_addr = router.addr().to_string();

    // Closed-loop traffic for the whole soak. Every embed must yield
    // exactly one successful reply — reloads may never drop or error one.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = Arc::clone(&stop);
        let addr = router_addr.clone();
        let ds = pre.clone();
        std::thread::spawn(move || -> TrafficReport {
            let n_fields = ds.n_fields();
            let mut client = Client::connect(&*addr).expect("traffic connect");
            let mut report =
                TrafficReport { sent: 0, replied: 0, id_transitions: vec![Vec::new(); 64] };
            let mut user = 0usize;
            while !stop.load(Ordering::Acquire) {
                let key = user % 64;
                let fields = raw_rows(&ds, key, n_fields);
                user += 1;
                report.sent += 1;
                match client.embed(&fields) {
                    Ok(EmbedOutcome::Embedding { ckpt_id, .. }) => {
                        report.replied += 1;
                        let seq = &mut report.id_transitions[key];
                        if seq.last() != Some(&ckpt_id) {
                            seq.push(ckpt_id);
                        }
                    }
                    other => panic!("request {} dropped or errored: {other:?}", report.sent),
                }
                std::thread::sleep(Duration::from_micros(300));
            }
            report
        })
    };

    // Publisher: tail, train, push to the router every 10 steps.
    let mut pcfg = PublishConfig::new(&log, &ckpt_dir);
    pcfg.push = vec![router_addr.clone()];
    pcfg.snapshot_every = 10;
    pcfg.keep_last = 4;
    pcfg.batch_users = BATCH_USERS;
    pcfg.poll = Duration::from_millis(2);
    pcfg.idle_exit = Some(Duration::from_millis(150));
    let mut publisher =
        Publisher::new(pcfg, names, vocabs, None).expect("resume from boot snapshot");

    // First half: drain the pre-drift phase.
    publisher.run(None).expect("pre-drift publish run");
    let model_at_drift = publisher.model().clone();
    let pushes_before_drift = publisher.report().pushed_ckpt_ids.len();
    assert!(pushes_before_drift >= 2, "pre-drift half must commit >=2 live reloads");

    // t = half: the distribution drifts (never-seen users, re-seeded
    // mixtures) while serving continues.
    let mut writer = EventLogWriter::open_append(&log).expect("reopen log");
    writer.append(&dataset_to_events(&post, 1_000_000, REPEATS_POST, 8)).expect("append drift");
    writer.sync().expect("sync");

    // Second half: recover.
    publisher.run(None).expect("post-drift publish run");
    let report = publisher.report().clone();
    let model_final = publisher.into_model();

    stop.store(true, Ordering::Release);
    let traffic = traffic.join().expect("traffic thread must not panic (no dropped replies)");

    // 1. Exactly one successful reply per request, across every reload.
    assert_eq!(traffic.sent, traffic.replied, "every request must get exactly one reply");
    assert!(traffic.sent >= 500, "soak must have served real load, got {}", traffic.sent);
    assert_eq!(report.push_failures, 0, "all pushes must land on the live router");

    // 2. Witnessed checkpoint progression follows publish order: for every
    // request key (fixed shard), the reply ids never regress — each key's
    // distinct-id sequence is a subsequence of boot + push order.
    assert!(
        report.pushed_ckpt_ids.len() >= 4,
        "soak must commit >=2 reloads per half, got {:?}",
        report.pushed_ckpt_ids
    );
    let boot_id = traffic
        .id_transitions
        .iter()
        .find_map(|seq| seq.first().copied())
        .expect("traffic saw replies");
    let mut published = vec![boot_id];
    published.extend(&report.pushed_ckpt_ids);
    let mut distinct_witnessed = std::collections::HashSet::new();
    for (key, seq) in traffic.id_transitions.iter().enumerate() {
        assert!(
            is_subsequence(seq, &published),
            "key {key}: served ids must progress monotonically through push order: \
             witnessed {seq:?}, published {published:?}"
        );
        distinct_witnessed.extend(seq.iter().copied());
    }
    assert!(
        distinct_witnessed.len() >= 3,
        "traffic must witness >=2 live reloads, saw ids {distinct_witnessed:?}"
    );

    // 3. AUC degrades under drift, then recovers.
    let auc_pre = tag_auc(&model_at_drift, &pre, 99);
    let auc_stale = tag_auc(&model_at_drift, &post, 99);
    let auc_final = tag_auc(&model_final, &post, 99);
    assert!(auc_pre > 0.62, "pre-drift training must beat chance, got {auc_pre:.4}");
    assert!(
        auc_stale < auc_final,
        "drift must hurt the stale model: stale {auc_stale:.4} vs retrained {auc_final:.4}"
    );
    assert!(
        auc_final >= 0.95 * auc_pre,
        "post-drift AUC must recover to >=95% of pre-drift: {auc_final:.4} vs {auc_pre:.4}"
    );

    drop(router);
    drop((shard_a, shard_b));
    let _ = std::fs::remove_dir_all(&dir);
}
