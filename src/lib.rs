//! # fvae-repro
//!
//! Umbrella crate for the reproduction of *"Field-aware Variational
//! Autoencoders for Billion-scale User Representation Learning"*
//! (ICDE 2022). Re-exports every workspace crate under one root so the
//! examples and downstream users need a single dependency:
//!
//! ```
//! use fvae_repro::core::{Fvae, FvaeConfig};
//! use fvae_repro::data::TopicModelConfig;
//!
//! let mut gen = TopicModelConfig::sc_small();
//! gen.n_users = 64;
//! let dataset = gen.generate();
//! assert_eq!(dataset.n_fields(), 4);
//! let config = FvaeConfig::for_dataset(&dataset);
//! let model = Fvae::new(config);
//! assert_eq!(model.latent_dim(), 64);
//! ```
//!
//! Crate map (bottom-up): [`tensor`] → [`sparse`] → [`nn`]/[`metrics`] →
//! [`data`] → [`core`]/[`baselines`]/[`tsne`] → [`lookalike`] → [`eval`].
//! See DESIGN.md for the full inventory and the per-experiment index, and
//! EXPERIMENTS.md for paper-vs-measured results.

/// Dense f32 matrices, vector kernels, random distributions, small linalg.
pub use fvae_tensor as tensor;

/// Dynamic hash tables, CSR rows, fast hashing, binary serialization.
pub use fvae_sparse as sparse;

/// Manual-backprop NN library: dense layers, embedding bags, batched
/// softmax, Adam/SGD.
pub use fvae_nn as nn;

/// Multi-field datasets, synthetic generators, splits, BA workloads.
pub use fvae_data as data;

/// AUC / mAP / recall@k.
pub use fvae_metrics as metrics;

/// The Field-aware VAE itself.
pub use fvae_core as core;

/// PCA, LDA, Item2Vec, Mult-DAE, Mult-VAE, RecVAE, Job2Vec.
pub use fvae_baselines as baselines;

/// Exact t-SNE for the embedding visualization.
pub use fvae_tsne as tsne;

/// Look-alike system + online A/B test simulator.
pub use fvae_lookalike as lookalike;

/// Experiment drivers regenerating every table and figure.
pub use fvae_eval as eval;
