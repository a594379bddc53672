//! Thread-count invisibility: the same seeded training run must produce
//! **bit-identical** results at 1, 2, and 4 threads — final weights, Adam
//! moments, RNG state, loss accounting, and every checkpoint byte.
//!
//! This holds because the pooled hot path never lets summation order depend
//! on scheduling: output-disjoint kernels (the GEMMs, the embedding-bag and
//! softmax-head gradient panels, sparse Adam) replay the serial operation
//! sequence inside each shard, and the scalar cross-sample reductions
//! (multinomial loss, KL) accumulate into a *fixed* number of shards combined
//! in fixed order ([`fvae_pool::REDUCE_SHARDS`]), no matter how many workers
//! ran them.
//!
//! Three shapes run: the narrow one keeps every GEMM under the tensor crate's
//! serial-size shortcut, the wide one (batch 64 × width 32 × a few hundred
//! candidates) is large enough that the head's panel GEMMs really dispatch
//! through the pool, and the wider one (batch 128 × width 256) reaches the
//! pooled bias + activation epilogue and the blocked dense GEMMs.

use std::fs;
use std::path::PathBuf;

use fvae_core::{
    normalized_snapshot_bytes, Checkpointer, Fvae, FvaeConfig, NullObserver, TrainRun,
};
use fvae_data::{FieldSpec, MultiFieldDataset, TopicModelConfig};
use fvae_tensor::PAR_MIN_FLOPS;

/// One dataset + config to hold parity on.
struct Shape {
    tag: &'static str,
    ds: MultiFieldDataset,
    cfg: FvaeConfig,
    /// Optimizer steps of the 3-epoch run.
    steps: u64,
    /// Lower bound on the mean candidates per step, so a shape that claims
    /// to reach the pooled GEMMs cannot silently shrink below them.
    min_candidates: f64,
}

fn dataset(n_users: usize, tag_vocab: usize, tags_per_user: usize) -> MultiFieldDataset {
    TopicModelConfig {
        n_users,
        n_topics: 3,
        alpha: 0.15,
        fields: vec![
            FieldSpec::new("ch", 12, 3, 1.0),
            FieldSpec::new("tag", tag_vocab, tags_per_user, 1.0),
        ],
        pair_prob: 0.0,
        seed: 33,
    }
    .generate()
}

/// Exercises every RNG consumer on the training path (dropout,
/// reparametrization, feature sampling, negative padding) plus every pooled
/// kernel, so parity here covers the whole hot path.
fn narrow() -> Shape {
    let ds = dataset(120, 48, 5);
    let mut cfg = FvaeConfig::for_dataset(&ds);
    cfg.latent_dim = 8;
    cfg.enc_hidden = 16;
    cfg.dec_hidden = vec![16];
    cfg.batch_size = 24;
    cfg.dropout = 0.1;
    cfg.anneal_steps = 20;
    cfg.sampling.rate = 0.6;
    cfg.sampling.sampled_fields = vec![false, true];
    Shape { tag: "narrow", ds, cfg, steps: 15, min_candidates: 0.0 }
}

/// The narrow shape's head GEMMs are 24 × 16 × ≤ 48 ≈ 18 k multiply-adds,
/// under the 32 k serial shortcut at every thread count. Here the sampled
/// 512-feature field gives 64 × 32 × (> 100 candidates) ≥ 200 k, so `H · Wcᵀ`,
/// `∂logits · Wc` and `∂logitsᵀ · H` all run sharded.
fn wide() -> Shape {
    let ds = dataset(256, 512, 12);
    let mut cfg = FvaeConfig::for_dataset(&ds);
    cfg.latent_dim = 8;
    cfg.enc_hidden = 32;
    cfg.dec_hidden = vec![32];
    cfg.batch_size = 64;
    cfg.dropout = 0.1;
    cfg.anneal_steps = 20;
    cfg.sampling.rate = 0.6;
    cfg.sampling.sampled_fields = vec![false, true];
    cfg.sampling.negative_pad = 0.1;
    Shape { tag: "wide", ds, cfg, steps: 12, min_candidates: 112.0 }
}

/// Batch 128 × width 256: the first encoder layer's bias + tanh epilogue
/// (and the trunk layer's) reaches `PAR_MIN_FLOPS` elements, so it runs on
/// the pool, and the dense backward GEMMs span several of their row groups,
/// column panels and L1 row blocks.
fn wider() -> Shape {
    let ds = dataset(512, 96, 8);
    let mut cfg = FvaeConfig::for_dataset(&ds);
    cfg.latent_dim = 8;
    cfg.enc_hidden = 256;
    cfg.dec_hidden = vec![256];
    cfg.batch_size = 128;
    cfg.dropout = 0.1;
    cfg.anneal_steps = 20;
    cfg.sampling.rate = 0.6;
    cfg.sampling.sampled_fields = vec![false, true];
    assert!(
        cfg.batch_size * cfg.enc_hidden >= PAR_MIN_FLOPS,
        "the wider shape's epilogue must reach the pool threshold"
    );
    Shape { tag: "wider", ds, cfg, steps: 12, min_candidates: 0.0 }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

struct RunArtifacts {
    model_bytes: Vec<u8>,
    recon_bits: u32,
    kl_bits: u32,
    /// `(file name, raw bytes, wall-clock-normalized bytes)` per snapshot.
    snapshots: Vec<(String, Vec<u8>, Vec<u8>)>,
}

fn train_at(threads: usize, shape: &Shape) -> RunArtifacts {
    fvae_pool::set_parallelism(threads);
    // The global pool's capacity floor (MIN_GLOBAL_CAPACITY = 4) guarantees
    // these thread counts are honored even on small CI runners.
    assert_eq!(fvae_pool::parallelism(), threads, "global pool must accept {threads} threads");
    let ds = &shape.ds;
    let users: Vec<usize> = (0..ds.n_users()).collect();
    let dir = fresh_dir(&format!("fvae_parity_{}_t{threads}", shape.tag));
    let cp = Checkpointer::new(&dir, 3, 10).expect("create checkpointer");
    let mut model = Fvae::new(shape.cfg.clone());
    let outcome = model
        .train_checkpointed(
            ds,
            &users,
            3,
            &mut NullObserver,
            TrainRun { checkpointer: Some(&cp), resume: None, stop_after_steps: None },
        )
        .expect("checkpointed run");
    assert!(outcome.completed);
    assert_eq!(outcome.global_step, shape.steps, "ceil(users / batch) steps x 3 epochs");
    assert!(
        outcome.last_epoch.mean_candidates >= shape.min_candidates,
        "{} shape trains on {} candidates a step",
        shape.tag,
        outcome.last_epoch.mean_candidates
    );

    let mut names: Vec<String> = fs::read_dir(&dir)
        .expect("read checkpoint dir")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .filter(|n| n.ends_with(".fvck"))
        .collect();
    names.sort();
    assert!(names.len() >= 4, "periodic snapshots expected, got {names:?}");
    let snapshots = names
        .into_iter()
        .map(|n| {
            let raw = fs::read(dir.join(&n)).expect("read snapshot");
            let norm = normalized_snapshot_bytes(&raw).expect("valid snapshot");
            (n, raw, norm)
        })
        .collect();
    let _ = fs::remove_dir_all(&dir);
    RunArtifacts {
        model_bytes: model.to_bytes().to_vec(),
        recon_bits: outcome.last_epoch.recon.to_bits(),
        kl_bits: outcome.last_epoch.kl.to_bits(),
        snapshots,
    }
}

/// One test for every shape: they share the global pool's parallelism, so
/// they must not run concurrently.
#[test]
fn training_is_bit_identical_at_1_2_and_4_threads() {
    for shape in [narrow(), wide(), wider()] {
        assert_parity(&shape);
    }
}

fn assert_parity(shape: &Shape) {
    let reference = train_at(1, shape);
    for threads in [2usize, 4] {
        let got = train_at(threads, shape);
        assert_eq!(
            got.model_bytes, reference.model_bytes,
            "weights + hash tables + anneal state must be bit-identical at {threads} threads"
        );
        assert_eq!(
            got.recon_bits, reference.recon_bits,
            "epoch recon accounting must match at {threads} threads"
        );
        assert_eq!(got.kl_bits, reference.kl_bits, "epoch KL must match at {threads} threads");
        assert_eq!(
            got.snapshots.len(),
            reference.snapshots.len(),
            "same snapshot schedule at {threads} threads"
        );
        for ((name_a, raw_a, norm_a), (name_b, raw_b, norm_b)) in
            got.snapshots.iter().zip(&reference.snapshots)
        {
            assert_eq!(name_a, name_b, "snapshot file names must match");
            // A snapshot bundles model, Adam moments, RNG state, and
            // progress; plain training writes no wall-clock section, so even
            // the *raw* files must be byte-equal across thread counts.
            assert_eq!(
                raw_a, raw_b,
                "checkpoint {name_a} must be byte-identical at {threads} threads"
            );
            assert_eq!(norm_a, norm_b, "normalized bytes must also agree ({name_a})");
        }
    }
}
