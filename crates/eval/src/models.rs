//! Model factories and the FVAE adapter to the shared
//! [`RepresentationModel`] interface.

use fvae_baselines::{
    Item2Vec, Job2Vec, Lda, MultDae, MultVae, Pca, RecVae, RepresentationModel,
};
use fvae_core::{EncoderScratch, Fvae, FvaeConfig, InputRows};
use fvae_data::MultiFieldDataset;
use fvae_tensor::Matrix;
use std::cell::RefCell;

/// Reusable inference buffers: the evaluation drivers call
/// [`RepresentationModel::embed`] / [`RepresentationModel::score_field`] once
/// per held-out case, so per-call scratch allocation dominated the sweeps.
#[derive(Default)]
struct EmbedBuffers {
    input: InputRows,
    scratch: EncoderScratch,
    z: Matrix,
}

/// FVAE wrapped as a [`RepresentationModel`].
pub struct FvaeModel {
    /// Display name ("FVAE" or "FVAE(r=…)" in Table IV).
    pub label: &'static str,
    /// Configuration used at fit time.
    pub cfg: FvaeConfig,
    model: Option<Fvae>,
    buffers: RefCell<EmbedBuffers>,
}

impl FvaeModel {
    /// Wraps a configuration.
    pub fn new(cfg: FvaeConfig) -> Self {
        Self::labeled("FVAE", cfg)
    }

    /// Wraps with an explicit label.
    pub fn labeled(label: &'static str, cfg: FvaeConfig) -> Self {
        Self { label, cfg, model: None, buffers: RefCell::default() }
    }

    /// The trained model, if fitted.
    pub fn inner(&self) -> Option<&Fvae> {
        self.model.as_ref()
    }
}

impl RepresentationModel for FvaeModel {
    fn name(&self) -> &'static str {
        self.label
    }

    fn fit(&mut self, ds: &MultiFieldDataset, users: &[usize]) {
        let mut model = Fvae::new(self.cfg.clone());
        model.train(ds, users, |_, _| {});
        self.model = Some(model);
    }

    fn embed(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        input_fields: Option<&[usize]>,
    ) -> Matrix {
        let enc = self.model.as_ref().expect("fitted").encoder();
        let mut buf = self.buffers.borrow_mut();
        let EmbedBuffers { input, scratch, .. } = &mut *buf;
        let mut out = Matrix::default();
        enc.embed_users_into(ds, users, input_fields, input, scratch, &mut out);
        out
    }

    fn score_field(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        input_fields: Option<&[usize]>,
        field: usize,
        candidates: &[u32],
    ) -> Matrix {
        let model = self.model.as_ref().expect("fitted");
        let mut buf = self.buffers.borrow_mut();
        let EmbedBuffers { input, scratch, z } = &mut *buf;
        model.encoder().embed_users_into(ds, users, input_fields, input, scratch, z);
        model.field_logits(z, field, candidates)
    }
}

/// The latent dimensionality shared by every model in the comparisons
/// (§V-A3 fixes one embedding size across methods).
pub const LATENT_DIM: usize = 64;

/// Builds the full Table II/III baseline roster for a million-scale dataset
/// (everything except FVAE itself). Epoch counts scale with `epochs`.
pub fn sc_baselines(epochs: usize) -> Vec<Box<dyn RepresentationModel>> {
    let mut multdae = MultDae::new(LATENT_DIM, 128, 101);
    multdae.epochs = epochs;
    let mut multvae = MultVae::new(LATENT_DIM, 128, 102);
    multvae.epochs = epochs;
    let mut recvae = RecVae::new(LATENT_DIM, 128, 103);
    recvae.epochs = epochs;
    let mut item2vec = Item2Vec::new(LATENT_DIM, 104);
    item2vec.epochs = epochs.max(2);
    let mut job2vec = Job2Vec::new(LATENT_DIM, 105);
    job2vec.epochs = epochs.max(2);
    let mut lda = Lda::new(32, 106);
    lda.iterations = (epochs * 2).max(8);
    vec![
        Box::new(Pca::new(LATENT_DIM, 100)),
        Box::new(lda),
        Box::new(item2vec),
        Box::new(multdae),
        Box::new(multvae),
        Box::new(recvae),
        Box::new(job2vec),
    ]
}

/// The scalable subset used on the billion-scale datasets (Table IV): the
/// paper excludes Mult-DAE/Mult-VAE/RecVAE/Job2Vec there "for their
/// scalability issues".
pub fn large_scale_baselines(epochs: usize) -> Vec<Box<dyn RepresentationModel>> {
    let mut item2vec = Item2Vec::new(LATENT_DIM, 104);
    item2vec.epochs = epochs.max(2);
    let mut lda = Lda::new(32, 106);
    lda.iterations = epochs.max(5);
    vec![Box::new(Pca::new(LATENT_DIM, 100)), Box::new(lda), Box::new(item2vec)]
}

/// Default FVAE configuration for the comparison tables.
pub fn fvae_config(ds: &MultiFieldDataset, epochs: usize) -> FvaeConfig {
    let mut cfg = FvaeConfig::for_dataset(ds);
    cfg.latent_dim = LATENT_DIM;
    cfg.epochs = epochs;
    // At the scaled-down user counts a smaller batch (more optimizer steps
    // per epoch) and a slightly hotter learning rate are needed to reach
    // steady state within a few epochs.
    cfg.batch_size = 128;
    cfg.lr = 5e-3;
    // Denoising-strength dropout (as in Mult-VAE) and the sampled-softmax
    // uniform-negative pad: both matter at scaled-down user counts, where a
    // plain batch-active candidate set leaves tail features uncalibrated.
    cfg.dropout = 0.5;
    cfg.sampling.negative_pad = 1.0;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvae_data::{FieldSpec, TopicModelConfig};

    #[test]
    fn fvae_adapter_fits_and_scores() {
        let ds = TopicModelConfig {
            n_users: 120,
            n_topics: 3,
            alpha: 0.15,
            fields: vec![
                FieldSpec::new("ch1", 12, 3, 1.0),
                FieldSpec::new("tag", 48, 5, 1.0),
            ],
            pair_prob: 0.0,
            seed: 9,
        }
        .generate();
        let mut cfg = fvae_config(&ds, 2);
        cfg.latent_dim = 8;
        cfg.enc_hidden = 16;
        cfg.dec_hidden = vec![16];
        cfg.batch_size = 32;
        let mut model = FvaeModel::new(cfg);
        let users: Vec<usize> = (0..ds.n_users()).collect();
        model.fit(&ds, &users);
        let emb = model.embed(&ds, &users[..4], Some(&[0]));
        assert_eq!(emb.shape(), (4, 8));
        // The adapter routes through the serving-side Encoder; that must be
        // invisible — bit-identical to the model's own embed_users.
        let direct = model.inner().expect("fitted").embed_users(&ds, &users[..4], Some(&[0]));
        for (a, b) in emb.as_slice().iter().zip(direct.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let scores = model.score_field(&ds, &users[..4], Some(&[0]), 1, &[0, 1, 2]);
        assert_eq!(scores.shape(), (4, 3));
        assert!(scores.is_finite());
    }

    #[test]
    fn rosters_have_expected_members() {
        let sc = sc_baselines(2);
        let names: Vec<&str> = sc.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["PCA", "LDA", "Item2Vec", "Mult-DAE", "Mult-VAE", "RecVAE", "Job2Vec"]
        );
        let large = large_scale_baselines(2);
        let names: Vec<&str> = large.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["PCA", "LDA", "Item2Vec"]);
    }
}
