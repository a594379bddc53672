//! Shared fixtures for the serve integration tests: a tiny deterministic
//! dataset, a quickly-trained model, raw wire-format rows, and the committed
//! golden fixture with an int8 server to replay it against.
#![allow(dead_code)]

use fvae_core::{Fvae, FvaeConfig};
use fvae_data::{FieldSpec, MultiFieldDataset, TopicModelConfig};
use fvae_serve::{read_frame, Client, EmbedOutcome, FieldRow, Message, QuantMode, ServeConfig, Server};
use std::path::{Path, PathBuf};

/// Two-field synthetic dataset, fully determined by `seed`.
pub fn tiny_dataset(seed: u64) -> MultiFieldDataset {
    TopicModelConfig {
        n_users: 60,
        n_topics: 3,
        alpha: 0.2,
        fields: vec![
            FieldSpec::new("ch", 12, 3, 1.0),
            FieldSpec::new("tag", 40, 5, 1.0),
        ],
        pair_prob: 0.0,
        seed,
    }
    .generate()
}

/// Small FVAE trained `epochs` epochs on the full dataset.
pub fn trained_model(ds: &MultiFieldDataset, epochs: usize) -> Fvae {
    let mut cfg = FvaeConfig::for_dataset(ds);
    cfg.latent_dim = 8;
    cfg.enc_hidden = 16;
    cfg.enc_extra_hidden = vec![12];
    cfg.dec_hidden = vec![16];
    cfg.batch_size = 16;
    let mut model = Fvae::new(cfg);
    let users: Vec<usize> = (0..ds.n_users()).collect();
    model.train_epochs(ds, &users, epochs, |_, _| {});
    model
}

/// One user's raw per-field rows exactly as a client would send them
/// (unnormalized — the server applies the offline L2 normalization).
pub fn raw_rows(ds: &MultiFieldDataset, user: usize, n_fields: usize) -> Vec<FieldRow> {
    (0..n_fields)
        .map(|k| {
            let (ix, vs) = ds.user_field(user, k);
            (ix.iter().map(|&i| u64::from(i)).collect(), vs.to_vec())
        })
        .collect()
}

/// The committed golden fixture: a tiny seeded checkpoint, the requests it
/// is replayed with, and the embeddings it must serve (`golden.rs`).
pub fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Reads the committed request frames (`requests.bin` is a plain
/// concatenation of `EmbedRequest` frames — the fixture dogfoods the wire
/// codec).
pub fn read_fixture_requests() -> Vec<Vec<FieldRow>> {
    let path = fixtures_dir().join("requests.bin");
    let mut file = std::fs::File::open(&path).expect("fixture requests.bin (run the regenerate test)");
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    while let Some(msg) = read_frame(&mut file, &mut scratch).expect("valid fixture frame") {
        match msg {
            Message::EmbedRequest { fields, .. } => out.push(fields),
            other => panic!("fixture holds non-request frame {other:?}"),
        }
    }
    out
}

/// An `--quant int8` server config over `dir` with the cache off, so every
/// request exercises the quantized encoder.
pub fn int8_config(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir);
    cfg.batch_size = 4;
    cfg.cache_capacity = 0;
    cfg.quant = QuantMode::Int8;
    cfg
}

/// Embeds every request over one connection, in order.
pub fn serve_all(server: &Server, requests: &[Vec<FieldRow>]) -> Vec<Vec<f32>> {
    let mut client = Client::connect(server.addr()).expect("connect");
    requests
        .iter()
        .map(|fields| match client.embed(fields).expect("embed") {
            EmbedOutcome::Embedding { values, .. } => values,
            other => panic!("unexpected outcome {other:?}"),
        })
        .collect()
}
