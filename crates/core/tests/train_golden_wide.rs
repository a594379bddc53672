//! Wide training golden: like `train_golden.rs`, a seeded model trained
//! under the scalar backend must reproduce committed constants — the FNV-1a
//! hash of its serialized bytes and of a batch of users' `μ` — but at a
//! shape that reaches the blocked and pooled dense kernels.
//!
//! The batch is odd (129 rows, so the weight-gradient GEMM's single-row
//! tail runs), every layer width is off the 8-lane SIMD width, and the
//! hidden layers span several GEMM blocks. The first encoder layer
//! (129 × 300) and the last trunk layer (129 × 260) cross the bias +
//! activation epilogue's pool threshold, as does the embedding of 120 users
//! (120 × 300), which pins the frozen front too. The constants were
//! captured before the dense kernels were blocked and must hold unedited.
//!
//! This test switches the process-wide backend with `simd::force`, so it
//! lives alone in its own test binary: no other test can dispatch a kernel
//! while the backend is switched.

use fvae_core::{Fvae, FvaeConfig};
use fvae_data::{FieldSpec, MultiFieldDataset, TopicModelConfig};
use fvae_tensor::simd;

const MODEL_FNV: u64 = 16406290393915257489;
const MU_FNV: u64 = 5863871183525133627;

const BATCH: usize = 129;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn dataset() -> MultiFieldDataset {
    TopicModelConfig {
        n_users: 3 * BATCH,
        n_topics: 4,
        alpha: 0.2,
        fields: vec![
            FieldSpec::new("ch", 24, 3, 1.0),
            FieldSpec::new("tag", 60, 5, 1.0),
        ],
        pair_prob: 0.1,
        seed: 23,
    }
    .generate()
}

#[test]
fn wide_seeded_training_reproduces_the_committed_bits() {
    let original = simd::active();
    simd::force(simd::scalar());

    let ds = dataset();
    let mut cfg = FvaeConfig::for_dataset(&ds);
    cfg.latent_dim = 12;
    cfg.enc_hidden = 300;
    cfg.enc_extra_hidden = vec![100];
    cfg.dec_hidden = vec![132, 260];
    cfg.batch_size = BATCH;
    cfg.dropout = 0.1;
    cfg.seed = 9;
    let mut model = Fvae::new(cfg);
    let users: Vec<usize> = (0..ds.n_users()).collect();
    // One epoch of three steps.
    model.train_epochs(&ds, &users, 1, |_, _| {});

    let model_fnv = fnv1a(model.to_bytes());
    let mu = model.embed_users(&ds, &users[..120], None);
    let mu_fnv = fnv1a(mu.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    simd::force(original);

    assert_eq!(
        (model_fnv, mu_fnv),
        (MODEL_FNV, MU_FNV),
        "model bytes or embeddings moved"
    );
}
