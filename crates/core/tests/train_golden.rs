//! Training-and-scoring golden: a seeded tiny model trained under the scalar
//! backend must reproduce three committed constants — the FNV-1a hash of its
//! serialized bytes, the bits of its held-out ELBO, and the hash of its tag
//! logits for a few held-out users. `parity.rs` compares thread counts within
//! one build; this pins the bits across builds, so a refactor of the train
//! step or the frozen decoder that moves any bit fails here.
//!
//! The run samples one field at `rate < 1` and sets `negative_pad > 0` and
//! `field_dropout > 0`, so every branch of the per-field candidate builder
//! runs.
//!
//! This test switches the process-wide backend with `simd::force`, so it
//! lives alone in its own test binary: no other test can dispatch a kernel
//! while the backend is switched.

use fvae_core::{Fvae, FvaeConfig};
use fvae_data::{FieldSpec, MultiFieldDataset, TopicModelConfig};
use fvae_tensor::simd;

const MODEL_FNV: u64 = 7026134745346313309;
const HELD_OUT_ELBO_BITS: u32 = 3244804504;
const TAG_LOGITS_FNV: u64 = 10939827262718805596;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn dataset() -> MultiFieldDataset {
    TopicModelConfig {
        n_users: 160,
        n_topics: 4,
        alpha: 0.2,
        fields: vec![
            FieldSpec::new("ch1", 16, 3, 1.0),
            FieldSpec::new("ch2", 40, 4, 1.0),
            FieldSpec::new("tag", 120, 6, 1.0),
        ],
        pair_prob: 0.1,
        seed: 17,
    }
    .generate()
}

#[test]
fn seeded_training_and_scoring_reproduce_the_committed_bits() {
    let original = simd::active();
    simd::force(simd::scalar());

    let ds = dataset();
    let mut cfg = FvaeConfig::for_dataset(&ds);
    cfg.latent_dim = 8;
    cfg.enc_hidden = 16;
    cfg.dec_hidden = vec![24];
    cfg.batch_size = 32;
    cfg.anneal_steps = 30;
    cfg.dropout = 0.1;
    cfg.field_dropout = 0.3;
    cfg.sampling.rate = 0.5;
    cfg.sampling.sampled_fields = vec![false, false, true];
    cfg.sampling.negative_pad = 0.25;
    cfg.seed = 5;
    let mut model = Fvae::new(cfg);
    let train: Vec<usize> = (0..128).collect();
    let held_out: Vec<usize> = (128..ds.n_users()).collect();
    model.train_epochs(&ds, &train, 4, |_, _| {});

    let model_fnv = fnv1a(model.to_bytes());
    let elbo_bits = model.evaluate_elbo(&ds, &held_out).to_bits();
    let tag = ds.n_fields() - 1;
    let candidates: Vec<u32> = (0..ds.field_vocab(tag) as u32).chain([100_000]).collect();
    let z = model.embed_users(&ds, &held_out[..6], Some(&[0, 1]));
    let logits = model.field_logits(&z, tag, &candidates);
    let logits_fnv = fnv1a(
        logits
            .as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes()),
    );
    simd::force(original);

    assert_eq!(
        (model_fnv, elbo_bits, logits_fnv),
        (MODEL_FNV, HELD_OUT_ELBO_BITS, TAG_LOGITS_FNV),
        "model bytes, held-out ELBO or tag logits moved"
    );
}
