//! Baselines from the FVAE paper's evaluation (§V-A1), all implemented from
//! scratch on the workspace substrates:
//!
//! * [`Pca`] — truncated PCA via randomized SVD on the sparse user matrix,
//! * [`Lda`] — Latent Dirichlet Allocation with batch variational Bayes,
//! * [`Item2Vec`] — skip-gram with negative sampling over co-observed
//!   features; a user is the average of its feature vectors,
//! * [`DenseVae`] — autoencoders with a single multinomial likelihood over
//!   the concatenated feature space: Mult-DAE / Mult-VAE (denoising, and a
//!   Gaussian prior; Liang et al. \[8\]) and RecVAE (Mult-VAE with a composite
//!   prior and user-specific β). The three differ only in the prior term,
//!   so one type with one train step serves them all,
//! * [`Job2Vec`] — a multi-view representation model with per-field views
//!   and cross-view prediction (simplified from the Job2Vec paper; see the
//!   module docs).
//!
//! Every model implements [`RepresentationModel`], the interface the
//! experiment drivers rank (fit → embed → score), so Tables II–IV iterate
//! over `Vec<Box<dyn RepresentationModel>>`.

pub mod dense_vae;
pub mod input;
pub mod item2vec;
pub mod job2vec;
pub mod lda;
pub mod obs;
pub mod pca;

pub use dense_vae::DenseVae;
pub use item2vec::Item2Vec;
pub use obs::FitObs;
pub use job2vec::Job2Vec;
pub use lda::Lda;
pub use pca::Pca;

use fvae_data::MultiFieldDataset;
use fvae_tensor::Matrix;

/// A user-representation learner: fit on training users, embed any user,
/// and score candidate features of a field for downstream tasks.
pub trait RepresentationModel {
    /// Display name used in result tables.
    fn name(&self) -> &'static str;

    /// Fits the model on the given training users.
    fn fit(&mut self, ds: &MultiFieldDataset, users: &[usize]);

    /// Low-dimensional embeddings (`users × dim`) built from `input_fields`
    /// (`None` = all fields; the fold-in protocol passes the channel fields).
    fn embed(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        input_fields: Option<&[usize]>,
    ) -> Matrix;

    /// Scores `candidates` (feature indices of `field`) for each user, using
    /// `input_fields` as the fold-in input. Higher = more likely. Shape:
    /// `users × candidates`.
    fn score_field(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        input_fields: Option<&[usize]>,
        field: usize,
        candidates: &[u32],
    ) -> Matrix;
}
