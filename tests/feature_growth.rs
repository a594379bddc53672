//! The feature-growth scenario the dynamic hash tables exist for (§IV-C1):
//! "users' features are constantly changing and increasing with new data
//! sources available" — the model must absorb a vocabulary that grows
//! between training sessions, with no rebuild.

use fvae_repro::core::{Fvae, FvaeConfig};
use fvae_repro::data::{FieldSpec, MultiFieldDataset, TopicModelConfig};

fn dataset(vocab_scale: usize, seed: u64) -> MultiFieldDataset {
    TopicModelConfig {
        n_users: 300,
        n_topics: 3,
        alpha: 0.15,
        fields: vec![
            FieldSpec::new("ch1", 12 * vocab_scale, 4, 1.0),
            FieldSpec::new("tag", 48 * vocab_scale, 6, 1.0),
        ],
        pair_prob: 0.2,
        seed,
    }
    .generate()
}

#[test]
fn model_absorbs_a_grown_vocabulary_without_rebuild() {
    // Phase 1: train on the small-vocabulary world.
    let old_world = dataset(1, 5);
    let mut cfg = FvaeConfig::for_dataset(&old_world);
    cfg.latent_dim = 8;
    cfg.enc_hidden = 16;
    cfg.dec_hidden = vec![16];
    cfg.batch_size = 64;
    // The config is built against the old world, but nothing in it encodes
    // vocabulary sizes — that is the point of the dynamic tables.
    let mut model = Fvae::new(cfg);
    let users: Vec<usize> = (0..old_world.n_users()).collect();
    model.train_epochs(&old_world, &users, 3, |_, _| {});
    let vocab_before = model.input_vocab_len();
    assert!(vocab_before > 0);

    // Phase 2: the world grows — same fields, 4× the vocabulary, new users.
    let new_world = dataset(4, 6);
    model.train_epochs(&new_world, &users, 3, |_, s| {
        assert!(s.recon.is_finite(), "training on grown vocab must stay finite");
    });
    let vocab_after = model.input_vocab_len();
    assert!(
        vocab_after > vocab_before,
        "dynamic tables must grow: {vocab_before} → {vocab_after}"
    );

    // Old-world users still embed (their features are still in the tables),
    // and new-world users embed too.
    let old_emb = model.embed_users(&old_world, &users[..10], None);
    let new_emb = model.embed_users(&new_world, &users[..10], None);
    assert!(old_emb.is_finite() && new_emb.is_finite());
}

#[test]
fn serialization_survives_growth_cycles() {
    let old_world = dataset(1, 7);
    let mut cfg = FvaeConfig::for_dataset(&old_world);
    cfg.latent_dim = 8;
    cfg.enc_hidden = 16;
    cfg.dec_hidden = vec![16];
    cfg.batch_size = 64;
    let mut model = Fvae::new(cfg);
    let users: Vec<usize> = (0..old_world.n_users()).collect();
    model.train_epochs(&old_world, &users, 2, |_, _| {});

    // Save, reload, grow, save, reload — embeddings stay consistent.
    let mut reloaded = Fvae::from_bytes(&model.to_bytes()).expect("decode");
    let new_world = dataset(2, 8);
    reloaded.train_epochs(&new_world, &users, 2, |_, _| {});
    let again = Fvae::from_bytes(&reloaded.to_bytes()).expect("decode twice");
    let a = reloaded.embed_users(&new_world, &users[..5], None);
    let b = again.embed_users(&new_world, &users[..5], None);
    assert_eq!(a, b, "reload after growth must be lossless");
}
