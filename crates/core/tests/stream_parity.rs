//! Determinism contract for *streaming* training.
//!
//! Two properties, both stated as checkpoint-byte equality:
//!
//! 1. **Thread invisibility.** Tailing the same event log — including a
//!    mid-stream phase that introduces never-seen users and feature tokens,
//!    so the dyntable grows EmbeddingBag rows under load — produces
//!    bit-identical snapshots at 1, 2, and 4 threads.
//! 2. **Kill-and-resume.** Stopping a streaming run cold after any
//!    snapshot and resuming from *(snapshot, saved log offset)* converges
//!    to a final checkpoint byte-identical to the uninterrupted run:
//!    batches are a pure function of consumed log bytes, and the snapshot
//!    carries everything else (weights, Adam moments, RNG, progress).
//!
//! Both run at two shapes, as `parity.rs` does: a narrow one whose GEMMs all
//! take the serial-size shortcut, and a wide one (64-user windows × width 32
//! × a 512-feature sampled field) whose head GEMMs dispatch through the pool.

use std::fs;
use std::path::{Path, PathBuf};

use fvae_core::{Checkpointer, Fvae, FvaeConfig, StreamTrainer};
use fvae_data::events::LOG_HEADER_LEN;
use fvae_data::{
    dataset_to_events, EventLogReader, EventLogWriter, FieldSpec, MultiFieldDataset, StreamBatcher,
    TopicModelConfig,
};

const CKPT_EVERY: u64 = 4;

/// Window size, hidden width and the sampled "tag" field of one run.
#[derive(Clone, Copy)]
struct Shape {
    tag: &'static str,
    batch_users: usize,
    phase_users: usize,
    hidden: usize,
    tag_vocab: usize,
    tags_per_user: usize,
    negative_pad: f64,
}

const NARROW: Shape = Shape {
    tag: "narrow",
    batch_users: 24,
    phase_users: 96,
    hidden: 16,
    tag_vocab: 48,
    tags_per_user: 5,
    negative_pad: 0.0,
};

const WIDE: Shape = Shape {
    tag: "wide",
    batch_users: 64,
    phase_users: 256,
    hidden: 32,
    tag_vocab: 512,
    tags_per_user: 12,
    negative_pad: 0.1,
};

impl Shape {
    fn phase(&self, seed: u64) -> MultiFieldDataset {
        TopicModelConfig {
            n_users: self.phase_users,
            n_topics: 3,
            alpha: 0.15,
            fields: vec![
                FieldSpec::new("ch", 12, 3, 1.0),
                FieldSpec::new("tag", self.tag_vocab, self.tags_per_user, 1.0),
            ],
            pair_prob: 0.0,
            seed,
        }
        .generate()
    }

    fn config(&self, ds: &MultiFieldDataset) -> FvaeConfig {
        let mut cfg = FvaeConfig::for_dataset(ds);
        cfg.latent_dim = 8;
        cfg.enc_hidden = self.hidden;
        cfg.dec_hidden = vec![self.hidden];
        cfg.batch_size = self.batch_users;
        cfg.dropout = 0.1;
        cfg.anneal_steps = 20;
        cfg.sampling.rate = 0.6;
        cfg.sampling.sampled_fields = vec![false, true];
        cfg.sampling.negative_pad = self.negative_pad;
        cfg
    }
}

/// Writes the two-phase log: phase A users 0.., then phase B from a
/// different generator seed under a disjoint user-id base — never-seen
/// users (and the tokens their topics favor) arrive mid-stream.
fn write_log(path: &Path, shape: &Shape) -> MultiFieldDataset {
    let a = shape.phase(101);
    let b = shape.phase(909);
    let mut w = EventLogWriter::create(path).expect("create log");
    w.append(&dataset_to_events(&a, 0, 2, 7)).expect("append phase A");
    w.append(&dataset_to_events(&b, 1_000, 2, 8)).expect("append phase B");
    w.sync().expect("sync");
    a
}

fn schema(ds: &MultiFieldDataset) -> (Vec<String>, Vec<usize>) {
    let names = ds.field_names().to_vec();
    let vocabs = (0..ds.n_fields()).map(|k| ds.field_vocab(k)).collect();
    (names, vocabs)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Drains the log into the trainer; stops early after `stop_after` steps
/// when given. Returns steps taken.
fn drain(
    trainer: &mut StreamTrainer,
    reader: &mut EventLogReader,
    batcher: &mut StreamBatcher,
    cp: &Checkpointer,
    stop_after: Option<u64>,
) -> u64 {
    let mut steps = 0u64;
    let mut window_start = trainer.stream_progress().log_offset;
    let mut backlog = Vec::new();
    loop {
        backlog.clear();
        if reader.poll(256, &mut backlog).expect("poll") == 0 {
            break;
        }
        for &(ev, after) in &backlog {
            if let Some((window, events)) = batcher.push(&ev).expect("in-schema event") {
                trainer.step_window(&window, window_start, events);
                steps += 1;
                if trainer.checkpoint_due(cp) {
                    trainer.checkpoint(cp).expect("periodic snapshot");
                }
                if stop_after.is_some_and(|m| steps >= m) {
                    return steps;
                }
            }
            window_start = after;
        }
    }
    steps
}

/// Latest snapshot bytes in `dir`.
fn latest_bytes(dir: &Path) -> (String, Vec<u8>) {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read ckpt dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .filter(|n| n.ends_with(".fvck"))
        .collect();
    names.sort();
    let name = names.pop().expect("at least one snapshot");
    let bytes = fs::read(dir.join(&name)).expect("read snapshot");
    (name, bytes)
}

fn stream_train_at(threads: usize, shape: &Shape) -> (String, Vec<u8>, u64) {
    fvae_pool::set_parallelism(threads);
    assert_eq!(fvae_pool::parallelism(), threads, "pool must accept {threads} threads");
    let dir = fresh_dir(&format!("fvae_stream_parity_{}_t{threads}", shape.tag));
    fs::create_dir_all(&dir).expect("mkdir");
    let log = dir.join("events.fvlg");
    let a = write_log(&log, shape);
    let (names, vocabs) = schema(&a);
    let cp = Checkpointer::new(dir.join("ckpt"), CKPT_EVERY, 64).expect("checkpointer");

    let mut trainer = StreamTrainer::new(Fvae::new(shape.config(&a)), LOG_HEADER_LEN);
    let mut reader = EventLogReader::open(&log, LOG_HEADER_LEN).expect("open log");
    let mut batcher = StreamBatcher::new(names, vocabs, shape.batch_users);
    let steps = drain(&mut trainer, &mut reader, &mut batcher, &cp, None);
    assert!(steps >= 10, "two phases x2 repeats must seal >=10 windows, got {steps}");
    trainer.checkpoint(&cp).expect("final snapshot");

    let (name, bytes) = latest_bytes(cp.dir());
    let _ = fs::remove_dir_all(&dir);
    (name, bytes, steps)
}

#[test]
fn streaming_is_bit_identical_at_1_2_and_4_threads() {
    for shape in [NARROW, WIDE] {
        let (ref_name, ref_bytes, ref_steps) = stream_train_at(1, &shape);
        for threads in [2usize, 4] {
            let (name, bytes, steps) = stream_train_at(threads, &shape);
            assert_eq!(steps, ref_steps, "same window schedule at {threads} threads");
            assert_eq!(name, ref_name, "same final snapshot step at {threads} threads");
            assert_eq!(
                bytes, ref_bytes,
                "streaming checkpoint must be byte-identical at {threads} threads"
            );
        }
    }
}

#[test]
fn kill_and_resume_matches_uninterrupted_run() {
    for shape in [NARROW, WIDE] {
        assert_kill_and_resume(&shape);
    }
}

fn assert_kill_and_resume(shape: &Shape) {
    fvae_pool::set_parallelism(1);
    let dir = fresh_dir(&format!("fvae_stream_resume_{}", shape.tag));
    fs::create_dir_all(&dir).expect("mkdir");
    let log = dir.join("events.fvlg");
    let a = write_log(&log, shape);
    let (names, vocabs) = schema(&a);
    let config = |ds: &MultiFieldDataset| shape.config(ds);
    let batch_users = shape.batch_users;

    // Uninterrupted reference.
    let cp_ref = Checkpointer::new(dir.join("ref"), CKPT_EVERY, 64).expect("checkpointer");
    let mut trainer = StreamTrainer::new(Fvae::new(config(&a)), LOG_HEADER_LEN);
    let mut reader = EventLogReader::open(&log, LOG_HEADER_LEN).expect("open log");
    let mut batcher = StreamBatcher::new(names.clone(), vocabs.clone(), batch_users);
    let total = drain(&mut trainer, &mut reader, &mut batcher, &cp_ref, None);
    trainer.checkpoint(&cp_ref).expect("final snapshot");
    let (ref_name, ref_bytes) = latest_bytes(cp_ref.dir());

    // Interrupted run: stop cold at several points (right at a snapshot
    // boundary, and mid-cadence where progress past the last snapshot is
    // lost and must be re-trained from the replayed log).
    for (i, stop_after) in [CKPT_EVERY, CKPT_EVERY + 2, 2 * CKPT_EVERY + 3].into_iter().enumerate()
    {
        assert!(stop_after < total, "interruption point must be mid-stream");
        let cp = Checkpointer::new(dir.join(format!("cut{i}")), CKPT_EVERY, 64)
            .expect("checkpointer");
        let mut trainer = StreamTrainer::new(Fvae::new(config(&a)), LOG_HEADER_LEN);
        let mut reader = EventLogReader::open(&log, LOG_HEADER_LEN).expect("open log");
        let mut batcher = StreamBatcher::new(names.clone(), vocabs.clone(), batch_users);
        drain(&mut trainer, &mut reader, &mut batcher, &cp, Some(stop_after));
        drop((trainer, reader, batcher)); // the "kill": everything in memory is gone

        let loaded = Checkpointer::load_latest(cp.dir())
            .expect("load")
            .expect("snapshots were written before the cut");
        let stream = loaded.snapshot.stream_progress().expect("streaming snapshot");
        let mut trainer = StreamTrainer::resume(loaded.snapshot).expect("resume");
        let mut reader = EventLogReader::open(&log, stream.log_offset).expect("reopen at cursor");
        let mut batcher = StreamBatcher::new(names.clone(), vocabs.clone(), batch_users);
        drain(&mut trainer, &mut reader, &mut batcher, &cp, None);
        trainer.checkpoint(&cp).expect("final snapshot");

        let (name, bytes) = latest_bytes(cp.dir());
        assert_eq!(name, ref_name, "resumed run must end at the same global step (cut {i})");
        assert_eq!(
            bytes, ref_bytes,
            "resumed final checkpoint must be byte-identical to the uninterrupted run (cut {i})"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
