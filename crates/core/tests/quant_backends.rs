//! The int8 encoder is bit-identical under every SIMD backend and at every
//! batch composition.
//!
//! This test switches the process-wide backend with `simd::force`, so it
//! lives alone in its own test binary: no other test can dispatch a kernel
//! while the backend is switched.

use fvae_core::{Encoder, Fvae, FvaeConfig, InputRows, QuantizedEncoder, QuantizedEncoderScratch};
use fvae_data::{FieldSpec, MultiFieldDataset, TopicModelConfig};
use fvae_tensor::Matrix;

fn tiny_ds() -> MultiFieldDataset {
    TopicModelConfig {
        n_users: 50,
        n_topics: 3,
        alpha: 0.2,
        fields: vec![FieldSpec::new("ch", 12, 3, 1.0), FieldSpec::new("tag", 30, 5, 1.0)],
        pair_prob: 0.0,
        seed: 21,
    }
    .generate()
}

fn trained_encoder(ds: &MultiFieldDataset, extra: Vec<usize>) -> Encoder {
    let mut cfg = FvaeConfig::for_dataset(ds);
    cfg.latent_dim = 8;
    cfg.enc_hidden = 16;
    cfg.enc_extra_hidden = extra;
    cfg.dec_hidden = vec![16];
    cfg.batch_size = 16;
    let mut model = Fvae::new(cfg);
    let users: Vec<usize> = (0..40).collect();
    model.train_epochs(ds, &users, 1, |_, _| {});
    model.encoder().clone()
}

#[test]
fn quantized_embed_is_bit_deterministic_across_backends_and_batches() {
    use fvae_tensor::simd;
    let ds = tiny_ds();
    let enc = trained_encoder(&ds, vec![12]);
    let q = QuantizedEncoder::from_encoder(&enc);
    let users: Vec<usize> = (0..10).collect();
    let mut input = InputRows::default();
    input.fill_from_dataset(&ds, &users, None, enc.n_fields());

    let original = simd::active();
    let mut runs: Vec<Vec<u32>> = Vec::new();
    for backend in [simd::scalar(), simd::detected()] {
        simd::force(backend);
        let mut scratch = QuantizedEncoderScratch::default();
        let mut mu = Matrix::default();
        q.embed_into(&input, &mut scratch, &mut mu);
        runs.push(mu.as_slice().iter().map(|v| v.to_bits()).collect());
    }
    simd::force(original);
    assert_eq!(runs[0], runs[1], "quantized path must be backend-exact");

    // Batch-composition invariance: users embedded one at a time must
    // reproduce the batched bits (same property the f32 server leans
    // on, but exact by construction here).
    let mut scratch = QuantizedEncoderScratch::default();
    let mut mu = Matrix::default();
    q.embed_into(&input, &mut scratch, &mut mu);
    for (idx, &u) in users.iter().enumerate() {
        let mut single = InputRows::default();
        single.fill_from_dataset(&ds, &[u], None, enc.n_fields());
        let mut one = Matrix::default();
        q.embed_into(&single, &mut scratch, &mut one);
        for (a, b) in one.as_slice().iter().zip(mu.row(idx)) {
            assert_eq!(a.to_bits(), b.to_bits(), "user {u} batched vs single");
        }
    }
}
