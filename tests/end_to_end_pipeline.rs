//! End-to-end integration test: dataset generation → FVAE training → tag
//! prediction → embedding store → look-alike recall. This is the paper's
//! full deployment pipeline (Fig. 2) in one pass.

use fvae_repro::baselines::RepresentationModel;
use fvae_repro::core::{Fvae, FvaeConfig};
use fvae_repro::data::{tag_prediction_cases, FieldSpec, SplitIndices, TopicModelConfig};
use fvae_repro::eval::models::FvaeModel;
use fvae_repro::eval::tagpred::evaluate_tag_prediction;
use fvae_repro::lookalike::{Account, EmbeddingStore, LookalikeSystem};

fn dataset() -> fvae_repro::data::MultiFieldDataset {
    TopicModelConfig {
        n_users: 500,
        n_topics: 4,
        alpha: 0.1,
        fields: vec![
            FieldSpec::new("ch1", 16, 4, 1.0),
            FieldSpec::new("ch2", 48, 6, 1.0),
            FieldSpec::new("tag", 128, 8, 1.0),
        ],
        pair_prob: 0.0,
        seed: 2024,
    }
    .generate()
}

fn small_config(ds: &fvae_repro::data::MultiFieldDataset) -> FvaeConfig {
    let mut cfg = FvaeConfig::for_dataset(ds);
    cfg.latent_dim = 16;
    cfg.enc_hidden = 32;
    cfg.dec_hidden = vec![32];
    cfg.batch_size = 64;
    cfg.epochs = 6;
    cfg.lr = 5e-3;
    cfg
}

#[test]
fn full_pipeline_from_logs_to_lookalike_recall() {
    let ds = dataset();
    let split = SplitIndices::random(ds.n_users(), 0.1, 0.2, 3);

    // Offline: train and infer.
    let mut model = FvaeModel::new(small_config(&ds));
    model.fit(&ds, &split.train);
    let users: Vec<usize> = (0..ds.n_users()).collect();
    let embeddings = model.embed(&ds, &users, None);
    assert!(embeddings.is_finite());

    // Downstream task: tag prediction on held-out users beats chance.
    let tag_field = ds.field_index("tag").expect("tag field");
    let cases = tag_prediction_cases(&ds, &split.test, tag_field, 5);
    assert!(!cases.is_empty());
    let (auc, _) = evaluate_tag_prediction(&model, &ds, &cases, &[0, 1], tag_field);
    assert!(auc > 0.6, "fold-in tag prediction should clearly beat chance, got {auc}");

    // Online: cache embeddings, build accounts, recall.
    let store = EmbeddingStore::new(embeddings.cols());
    for u in 0..embeddings.rows() {
        store.put(u as u64, embeddings.row(u).to_vec());
    }
    assert_eq!(store.len(), ds.n_users());

    // Accounts formed by ground-truth topic: followers of account t are
    // users of topic t.
    let accounts: Vec<Account> = (0..4)
        .map(|topic| Account {
            id: topic as u64,
            followers: users
                .iter()
                .filter(|&&u| ds.user_topics[u] == topic)
                .take(25)
                .map(|&u| u as u64)
                .collect(),
        })
        .collect();
    let system = LookalikeSystem::build(&store, accounts);

    // A user's top-1 recalled account should match its own topic far more
    // often than the 25% chance level.
    let mut hits = 0usize;
    let mut total = 0usize;
    for &u in split.test.iter().take(60) {
        let recalled = system.recall(embeddings.row(u), 1);
        if let Some(&top) = recalled.first() {
            total += 1;
            if system.account(top).id as usize == ds.user_topics[u] {
                hits += 1;
            }
        }
    }
    let accuracy = hits as f64 / total.max(1) as f64;
    assert!(
        accuracy > 0.45,
        "look-alike top-1 topic accuracy {accuracy} (chance = 0.25)"
    );
}

#[test]
fn store_roundtrip_preserves_served_embeddings() {
    let ds = dataset();
    let mut cfg = small_config(&ds);
    cfg.epochs = 1;
    let mut model = Fvae::new(cfg);
    let users: Vec<usize> = (0..100).collect();
    model.train_epochs(&ds, &users, 1, |_, _| {});
    let embeddings = model.embed_users(&ds, &users, None);

    let store = EmbeddingStore::new(embeddings.cols());
    for u in 0..embeddings.rows() {
        store.put(u as u64, embeddings.row(u).to_vec());
    }
    let bytes = store.to_bytes();
    let restored = EmbeddingStore::from_bytes(&bytes).expect("decode");
    assert_eq!(restored.len(), store.len());
    for u in 0..embeddings.rows() as u64 {
        assert_eq!(restored.get(u), store.get(u), "user {u}");
    }
}
