//! Training-and-scoring golden for the dense VAE baselines: each of
//! Mult-DAE, Mult-VAE and RecVAE is trained for 3 epochs under the scalar
//! backend, and the bits of its embeddings and of its scores over one whole
//! field must reproduce committed FNV-1a hashes. A fourth case pins
//! Mult-VAE's external step entry point (the one Table V times) with
//! feature hashing on. A refactor of the shared train step, the priors or
//! the RNG streams that moves any bit fails here.
//!
//! 110 training users at batch 32 leave a partial last batch of 14.
//!
//! This test switches the process-wide backend with `simd::force`, so it
//! lives alone in its own test binary: no other test can dispatch a kernel
//! while the backend is switched.

use fvae_baselines::{DenseVae, RepresentationModel};
use fvae_data::{FieldSpec, MultiFieldDataset, TopicModelConfig};
use fvae_tensor::{simd, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MULTDAE_FNV: u64 = 11460123569128513833;
const MULTVAE_FNV: u64 = 5247039180737534410;
const RECVAE_FNV: u64 = 2296244112006926230;
const MULTVAE_STEPS_FNV: u64 = 17592515123987276435;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn bits(m: &Matrix) -> impl Iterator<Item = u8> + '_ {
    m.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes())
}

fn dataset() -> MultiFieldDataset {
    TopicModelConfig {
        n_users: 130,
        n_topics: 4,
        alpha: 0.2,
        fields: vec![
            FieldSpec::new("ch1", 16, 3, 1.0),
            FieldSpec::new("ch2", 24, 4, 1.0),
            FieldSpec::new("tag", 40, 5, 1.0),
        ],
        pair_prob: 0.1,
        seed: 23,
    }
    .generate()
}

/// Hash of the held-out users' embeddings (from the two channel fields) and
/// of their scores over every tag.
fn scoring_fnv(model: &dyn RepresentationModel, ds: &MultiFieldDataset) -> u64 {
    let held_out: Vec<usize> = (110..ds.n_users()).collect();
    let channels = [0usize, 1];
    let tag = ds.n_fields() - 1;
    let candidates: Vec<u32> = (0..ds.field_vocab(tag) as u32).collect();
    let z = model.embed(ds, &held_out, Some(&channels));
    let scores = model.score_field(ds, &held_out, Some(&channels), tag, &candidates);
    fnv1a(bits(&z).chain(bits(&scores)))
}

fn fitted_fnv(mut model: impl RepresentationModel, ds: &MultiFieldDataset) -> u64 {
    let train: Vec<usize> = (0..110).collect();
    model.fit(ds, &train);
    scoring_fnv(&model, ds)
}

#[test]
fn seeded_dense_vaes_reproduce_the_committed_bits() {
    let original = simd::active();
    simd::force(simd::scalar());
    let ds = dataset();

    let mut dae = DenseVae::mult_dae(8, 16, 11);
    dae.epochs = 3;
    dae.batch_size = 32;
    let mut vae = DenseVae::mult_vae(8, 16, 12);
    vae.epochs = 3;
    vae.batch_size = 32;
    let mut rec = DenseVae::rec_vae(8, 16, 13);
    rec.epochs = 3;
    rec.batch_size = 32;
    let got = [fitted_fnv(dae, &ds), fitted_fnv(vae, &ds), fitted_fnv(rec, &ds)];

    // Table V's entry point: hashed input (32 columns < 80 features, so
    // columns collide), overlapping batches, the caller's RNG.
    let mut stepped = DenseVae::mult_vae(8, 16, 14);
    stepped.hash_bits = Some(5);
    stepped.init_for(&ds);
    let mut rng = StdRng::seed_from_u64(3);
    let mut losses = Vec::new();
    for s in 0..5 {
        let batch: Vec<usize> = (0..24).map(|i| (s * 20 + i) % 110).collect();
        losses.push(stepped.train_batch_timed(&ds, &batch, &mut rng));
    }
    let steps_fnv = fnv1a(
        losses
            .iter()
            .flat_map(|l| l.to_bits().to_le_bytes())
            .chain(scoring_fnv(&stepped, &ds).to_le_bytes()),
    );
    simd::force(original);

    assert_eq!(
        (got, steps_fnv),
        ([MULTDAE_FNV, MULTVAE_FNV, RECVAE_FNV], MULTVAE_STEPS_FNV),
        "Mult-DAE, Mult-VAE or RecVAE bits moved"
    );
}
