//! # Field-aware Variational Autoencoder (FVAE)
//!
//! Reproduction of *"Field-aware Variational Autoencoders for Billion-scale
//! User Representation Learning"* (ICDE 2022).
//!
//! The FVAE extends Mult-VAE by modelling **each feature field with an
//! independent multinomial distribution** (Eqs. 1–4): the decoder shares a
//! trunk MLP across fields but ends in one softmax head per field, and the
//! ELBO (Eq. 7) weights per-field reconstruction terms with `α_k` and the KL
//! term with an annealed `β`:
//!
//! ```text
//! L(u_i) = (1/|α|) Σ_k α_k E_q[log p(F_i^k | z_i)] − β · KL(q(z|u) ‖ N(0, I))
//! ```
//!
//! Training (Algorithm 1) applies the paper's three large-scale mechanisms:
//! dynamic hash tables on the input ([`fvae_nn::EmbeddingBag`]), the batched
//! softmax on the output ([`fvae_nn::SampledSoftmaxOutput`]), and
//! [`sampling`] of batch candidate features for sparse fields.
//!
//! Training reports through the [`observe::TrainObserver`] hook — per-step
//! loss breakdowns, per-phase wall times, and scratch-arena counters — with
//! [`observe::TelemetrySink`] as the batteries-included observer (metrics
//! registry + JSONL run log + stderr heartbeat):
//!
//! ```
//! use fvae_core::observe::{StepCtx, TrainObserver};
//! use fvae_core::{EpochStats, Fvae, FvaeConfig};
//! use fvae_data::{FieldSpec, TopicModelConfig};
//!
//! let dataset = TopicModelConfig {
//!     n_users: 60,
//!     n_topics: 3,
//!     alpha: 0.15,
//!     fields: vec![
//!         FieldSpec::new("ch", 12, 3, 1.0),
//!         FieldSpec::new("tag", 48, 5, 1.0),
//!     ],
//!     pair_prob: 0.0,
//!     seed: 7,
//! }
//! .generate();
//! let mut config = FvaeConfig::for_dataset(&dataset);
//! config.latent_dim = 8;
//! config.enc_hidden = 16;
//! config.dec_hidden = vec![16];
//! config.batch_size = 20;
//!
//! /// Counts optimizer steps and prints one line per epoch.
//! struct StepCounter(usize);
//! impl TrainObserver for StepCounter {
//!     fn on_step(&mut self, ctx: &StepCtx) {
//!         self.0 += 1;
//!         assert!(ctx.stats.loss().is_finite());
//!     }
//!     fn on_epoch(&mut self, epoch: usize, stats: &EpochStats) {
//!         println!("epoch {epoch}: elbo {:.3} ({:.0} users/s)", stats.elbo(), stats.users_per_sec);
//!     }
//! }
//!
//! let mut model = Fvae::new(config);
//! let users: Vec<usize> = (0..dataset.n_users()).collect();
//! let mut observer = StepCounter(0);
//! model.train_observed(&dataset, &users, 2, &mut observer);
//! assert_eq!(observer.0, 2 * 60usize.div_ceil(20));
//!
//! let embeddings = model.embed_users(&dataset, &users, None);
//! assert_eq!(embeddings.rows(), dataset.n_users());
//! ```

#![forbid(unsafe_code)]

mod candidates;
pub mod checkpoint;
pub mod config;
pub mod encoder;
pub mod model;
pub mod observe;
pub mod quant;
pub mod sampling;
pub mod serialize;
pub mod stream;
pub mod train;
pub mod validate;

pub use checkpoint::{
    decode_snapshot, export_model_snapshot, normalized_snapshot_bytes, Checkpointer,
    LoadedSnapshot, ResumePoint, SnapshotError, StreamProgress, TrainProgress, TrainSnapshot,
};
pub use config::{FvaeConfig, SamplingConfig};
pub use encoder::{Encoder, EncoderScratch, InputRows};
pub use model::Fvae;
pub use observe::{NullObserver, PhaseNs, StepCtx, TelemetrySink, TrainObserver};
pub use quant::{QuantizedEncoder, QuantizedEncoderScratch};
pub use sampling::SamplingStrategy;
pub use stream::StreamTrainer;
pub use train::{EpochStats, StepStats, TrainOutcome, TrainRun};
pub use validate::{TrainHistory, TrainOptions};
