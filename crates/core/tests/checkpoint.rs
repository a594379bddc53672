//! Crash-safe checkpoint/resume: a run that is killed and resumed from disk
//! must be step-for-step bit-identical to an uninterrupted one — same final
//! weights, same ELBO accounting — and corrupt snapshots must be skipped in
//! favour of the newest good one.

use std::fs;
use std::path::PathBuf;

use fvae_core::{Checkpointer, Fvae, FvaeConfig, NullObserver, SnapshotError, TrainOptions, TrainRun};
use fvae_data::{FieldSpec, MultiFieldDataset, TopicModelConfig};

fn dataset() -> MultiFieldDataset {
    TopicModelConfig {
        n_users: 120,
        n_topics: 3,
        alpha: 0.15,
        fields: vec![
            FieldSpec::new("ch", 12, 3, 1.0),
            FieldSpec::new("tag", 48, 5, 1.0),
        ],
        pair_prob: 0.0,
        seed: 21,
    }
    .generate()
}

/// A config that exercises every RNG consumer on the training path —
/// dropout, reparametrization noise, feature sampling, negative padding —
/// so bit-identical resume proves the full RNG state survives the snapshot.
fn config(ds: &MultiFieldDataset) -> FvaeConfig {
    let mut cfg = FvaeConfig::for_dataset(ds);
    cfg.latent_dim = 8;
    cfg.enc_hidden = 16;
    cfg.dec_hidden = vec![16];
    cfg.batch_size = 24;
    cfg.dropout = 0.1;
    cfg.anneal_steps = 20;
    cfg.sampling.rate = 0.6;
    cfg.sampling.sampled_fields = vec![false, true];
    cfg
}

/// `parity.rs`'s wide shape: batch 64 × width 32 × a 512-feature sampled
/// field with negative padding, so the softmax head's panel GEMMs run
/// sharded (the narrow shape stays under the serial-size shortcut) and the
/// padding draws are part of the RNG state a resume must restore.
fn wide_dataset() -> MultiFieldDataset {
    TopicModelConfig {
        n_users: 256,
        n_topics: 3,
        alpha: 0.15,
        fields: vec![FieldSpec::new("ch", 12, 3, 1.0), FieldSpec::new("tag", 512, 12, 1.0)],
        pair_prob: 0.0,
        seed: 21,
    }
    .generate()
}

fn wide_config(ds: &MultiFieldDataset) -> FvaeConfig {
    let mut cfg = config(ds);
    cfg.enc_hidden = 32;
    cfg.dec_hidden = vec![32];
    cfg.batch_size = 64;
    cfg.sampling.negative_pad = 0.1;
    cfg
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The reference: 3 uninterrupted epochs. Returns the final model bytes and
/// the last epoch's loss accounting.
fn uninterrupted() -> (Vec<u8>, u32, u32) {
    let ds = dataset();
    uninterrupted_on(&ds, config(&ds), 15)
}

fn uninterrupted_on(ds: &MultiFieldDataset, cfg: FvaeConfig, steps: u64) -> (Vec<u8>, u32, u32) {
    let mut model = Fvae::new(cfg);
    let users: Vec<usize> = (0..ds.n_users()).collect();
    let outcome = model
        .train_checkpointed(ds, &users, 3, &mut NullObserver, TrainRun::default())
        .expect("no checkpointer, no I/O");
    assert!(outcome.completed);
    assert_eq!(outcome.global_step, steps, "ceil(users / batch) steps x 3 epochs");
    (
        model.to_bytes().to_vec(),
        outcome.last_epoch.recon.to_bits(),
        outcome.last_epoch.kl.to_bits(),
    )
}

#[test]
fn killed_and_resumed_run_is_bit_identical() {
    // 120 users / batch 24 = 5 steps x 3 epochs; 256 / 64 = 4 x 3.
    let ds = dataset();
    assert_killed_and_resumed_is_bit_identical(&ds, config(&ds), 15, "narrow");
    let ds = wide_dataset();
    assert_killed_and_resumed_is_bit_identical(&ds, wide_config(&ds), 12, "wide");
}

fn assert_killed_and_resumed_is_bit_identical(
    ds: &MultiFieldDataset,
    cfg: FvaeConfig,
    steps: u64,
    tag: &str,
) {
    let (ref_bytes, ref_recon, ref_kl) = uninterrupted_on(ds, cfg.clone(), steps);

    let users: Vec<usize> = (0..ds.n_users()).collect();
    let dir = fresh_dir(&format!("fvae_ckpt_resume_test_{tag}"));
    let cp = Checkpointer::new(&dir, 3, 5).expect("create checkpointer");

    // Phase 1: the "killed" run — stops mid-epoch after 7 steps (epoch 1,
    // step 2 of 5 or 3 of 4) with a final snapshot.
    let mut killed = Fvae::new(cfg);
    let outcome = killed
        .train_checkpointed(
            ds,
            &users,
            3,
            &mut NullObserver,
            TrainRun { checkpointer: Some(&cp), resume: None, stop_after_steps: Some(7) },
        )
        .expect("checkpointed run");
    assert!(!outcome.completed, "stop_after_steps must end the run early");
    assert_eq!(outcome.global_step, 7);
    assert!(outcome.last_checkpoint.is_some(), "the stop writes a final snapshot");

    // Phase 2: resume from disk and run to completion.
    let loaded = Checkpointer::load_latest(&dir).expect("load").expect("snapshot present");
    assert_eq!(loaded.snapshot.progress().global_step, 7);
    assert!(loaded.skipped.is_empty());
    let (mut resumed, rp) = loaded.snapshot.into_resume();
    let outcome = resumed
        .train_checkpointed(
            ds,
            &users,
            3,
            &mut NullObserver,
            TrainRun { checkpointer: Some(&cp), resume: Some(rp), stop_after_steps: None },
        )
        .expect("resumed run");
    assert!(outcome.completed);
    assert_eq!(outcome.global_step, steps);

    assert_eq!(
        resumed.to_bytes().to_vec(),
        ref_bytes,
        "resumed weights, hash tables, and anneal position must be bit-identical"
    );
    assert_eq!(outcome.last_epoch.recon.to_bits(), ref_recon, "epoch loss accounting must match");
    assert_eq!(outcome.last_epoch.kl.to_bits(), ref_kl);
    let _ = fs::remove_dir_all(&dir);
}

/// Checkpointing composed with the thread pool: a 4-thread run that is
/// killed mid-epoch and resumed must be byte-identical to the uninterrupted
/// run AND to a 1-thread run — snapshots taken on one thread count must
/// restore losslessly under another.
#[test]
fn threaded_kill_and_resume_matches_one_thread_byte_for_byte() {
    fvae_pool::set_parallelism(1);
    let (ref_bytes, ref_recon, ref_kl) = uninterrupted();

    let ds = dataset();
    let users: Vec<usize> = (0..ds.n_users()).collect();
    let dir = fresh_dir("fvae_ckpt_threaded_resume_test");
    let cp = Checkpointer::new(&dir, 3, 5).expect("create checkpointer");

    // Kill a 4-thread run after 7 of 15 steps.
    fvae_pool::set_parallelism(4);
    assert_eq!(fvae_pool::parallelism(), 4, "global pool must accept 4 threads");
    let mut killed = Fvae::new(config(&ds));
    let outcome = killed
        .train_checkpointed(
            &ds,
            &users,
            3,
            &mut NullObserver,
            TrainRun { checkpointer: Some(&cp), resume: None, stop_after_steps: Some(7) },
        )
        .expect("checkpointed run");
    assert!(!outcome.completed);

    // Resume on 1 thread: the snapshot must not care who wrote it.
    fvae_pool::set_parallelism(1);
    let loaded = Checkpointer::load_latest(&dir).expect("load").expect("snapshot present");
    assert_eq!(loaded.snapshot.progress().global_step, 7);
    let (mut resumed, rp) = loaded.snapshot.into_resume();
    let outcome = resumed
        .train_checkpointed(
            &ds,
            &users,
            3,
            &mut NullObserver,
            TrainRun { checkpointer: None, resume: Some(rp), stop_after_steps: None },
        )
        .expect("resumed run");
    assert!(outcome.completed);
    assert_eq!(
        resumed.to_bytes().to_vec(),
        ref_bytes,
        "4-thread kill + 1-thread resume must match the uninterrupted reference"
    );
    assert_eq!(outcome.last_epoch.recon.to_bits(), ref_recon);
    assert_eq!(outcome.last_epoch.kl.to_bits(), ref_kl);

    // And the fully-threaded variant: 4-thread resume of the same snapshot.
    fvae_pool::set_parallelism(4);
    let loaded = Checkpointer::load_latest(&dir).expect("load").expect("snapshot present");
    let (mut resumed4, rp) = loaded.snapshot.into_resume();
    let outcome = resumed4
        .train_checkpointed(
            &ds,
            &users,
            3,
            &mut NullObserver,
            TrainRun { checkpointer: None, resume: Some(rp), stop_after_steps: None },
        )
        .expect("resumed run");
    assert!(outcome.completed);
    assert_eq!(
        resumed4.to_bytes().to_vec(),
        ref_bytes,
        "4-thread resume must also match the uninterrupted reference"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_falls_back_over_a_corrupt_snapshot_and_stays_bit_identical() {
    let (ref_bytes, _, _) = uninterrupted();

    let ds = dataset();
    let users: Vec<usize> = (0..ds.n_users()).collect();
    let dir = fresh_dir("fvae_ckpt_corrupt_resume_test");
    let cp = Checkpointer::new(&dir, 3, 5).expect("create checkpointer");

    let mut killed = Fvae::new(config(&ds));
    killed
        .train_checkpointed(
            &ds,
            &users,
            3,
            &mut NullObserver,
            TrainRun { checkpointer: Some(&cp), resume: None, stop_after_steps: Some(7) },
        )
        .expect("checkpointed run");

    // Snapshots exist at steps 3, 6, and 7; corrupt the newest. The loader
    // must fall back to step 6 and the resumed run (replaying steps 7..15)
    // must still match the uninterrupted reference exactly.
    let newest = dir.join("ckpt-0000000000000007.fvck");
    let mut data = fs::read(&newest).expect("read newest snapshot");
    let mid = data.len() / 2;
    data[mid] ^= 0x20;
    fs::write(&newest, &data).expect("write corrupted snapshot");

    let loaded = Checkpointer::load_latest(&dir).expect("load").expect("snapshot present");
    assert_eq!(loaded.snapshot.progress().global_step, 6, "fell back past the corrupt file");
    assert_eq!(loaded.skipped.len(), 1);
    assert!(matches!(loaded.skipped[0].1, SnapshotError::CrcMismatch { .. }));

    let (mut resumed, rp) = loaded.snapshot.into_resume();
    let outcome = resumed
        .train_checkpointed(
            &ds,
            &users,
            3,
            &mut NullObserver,
            TrainRun { checkpointer: None, resume: Some(rp), stop_after_steps: None },
        )
        .expect("resumed run");
    assert!(outcome.completed);
    assert_eq!(outcome.global_step, 15);
    assert_eq!(resumed.to_bytes().to_vec(), ref_bytes, "fallback resume must stay bit-identical");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn early_stopping_run_resumes_bit_identically_across_validations() {
    let ds = dataset();
    let users: Vec<usize> = (0..ds.n_users()).collect();
    let (train, val) = users.split_at(96);
    let patient = TrainOptions { max_epochs: 6, patience: 99, eval_every: 2 };

    // Reference: 6 epochs (3 validation points) in one go.
    let mut reference = Fvae::new(config(&ds));
    let hist_ref = reference
        .train_until_checkpointed(&ds, train, val, patient, &mut NullObserver, None, None)
        .expect("no checkpointer, no I/O");
    assert_eq!(hist_ref.validations.len(), 3);

    // Interrupted: stop after 4 epochs (2 validations) with snapshots, then
    // resume the remaining burst from disk.
    let dir = fresh_dir("fvae_ckpt_until_resume_test");
    let cp = Checkpointer::new(&dir, 0, 5).expect("create checkpointer");
    let mut first = Fvae::new(config(&ds));
    let short = TrainOptions { max_epochs: 4, ..patient };
    first
        .train_until_checkpointed(&ds, train, val, short, &mut NullObserver, Some(&cp), None)
        .expect("first leg");

    let loaded = Checkpointer::load_latest(&dir).expect("load").expect("snapshot present");
    assert!(loaded.snapshot.is_early_stopping(), "train_until snapshots carry early-stop state");
    assert_eq!(loaded.snapshot.progress().epoch, 4);
    let (mut resumed, rp) = loaded.snapshot.into_resume();
    let hist = resumed
        .train_until_checkpointed(&ds, train, val, patient, &mut NullObserver, None, Some(rp))
        .expect("resumed leg");

    assert_eq!(hist.validations.len(), hist_ref.validations.len());
    for (a, b) in hist.validations.iter().zip(&hist_ref.validations) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "validation ELBOs must match bit-for-bit");
    }
    assert_eq!(hist.best_epoch, hist_ref.best_epoch);
    assert_eq!(
        resumed.to_bytes().to_vec(),
        reference.to_bytes().to_vec(),
        "the restored-best model must be bit-identical"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resuming_a_stopped_early_run_returns_without_training() {
    let ds = dataset();
    let users: Vec<usize> = (0..ds.n_users()).collect();
    let (train, val) = users.split_at(96);
    // patience 1: stop at the first non-improving validation.
    let opts = TrainOptions { max_epochs: 40, patience: 1, eval_every: 1 };
    let dir = fresh_dir("fvae_ckpt_stopped_early_test");
    let cp = Checkpointer::new(&dir, 0, 3).expect("create checkpointer");
    let mut model = Fvae::new(config(&ds));
    let hist = model
        .train_until_checkpointed(&ds, train, val, opts, &mut NullObserver, Some(&cp), None)
        .expect("run");
    if hist.stopped_early {
        let loaded = Checkpointer::load_latest(&dir).expect("load").expect("present");
        let (mut resumed, rp) = loaded.snapshot.into_resume();
        let hist2 = resumed
            .train_until_checkpointed(&ds, train, val, opts, &mut NullObserver, None, Some(rp))
            .expect("resume");
        assert!(hist2.stopped_early, "a stopped run must stay stopped");
        assert_eq!(hist2.validations.len(), hist.validations.len(), "no extra training happens");
        assert_eq!(resumed.to_bytes().to_vec(), model.to_bytes().to_vec());
    }
    let _ = fs::remove_dir_all(&dir);
}
