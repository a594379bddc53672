//! A minimal neural-network library with hand-written reverse-mode
//! differentiation, built for the FVAE reproduction.
//!
//! The paper's three efficiency mechanisms exist here as first-class layers:
//!
//! * [`EmbeddingBag`] — the *dynamic hash table* input layer (§IV-C1): the
//!   sum of embedding rows for the observed feature IDs is mathematically
//!   identical to multiplying the multi-hot input by the first dense weight
//!   matrix, but costs `O(N̄·D)` instead of `O(J·D)`.
//! * [`SampledSoftmaxOutput`] — the *batched softmax* output layer (§IV-C2):
//!   softmax restricted to the candidate features active in the current
//!   batch, `O(N̄_b·D)` instead of `O(J·D)`.
//! * The candidate set fed to the output layer can be *feature-sampled*
//!   (§IV-C3); the samplers live in `fvae-core` since they are part of the
//!   FVAE training loop, not of the layer.
//!
//! Both sparse layers hand their gradients to the optimizer as a [`RowGrads`]
//! row panel — the batch's unique slots plus one contiguous `n × dim` matrix
//! — which [`Adam::step_rows`] applies lazily, touching only those rows.
//!
//! Everything is explicit forward/backward pairs over [`fvae_tensor::Matrix`];
//! correctness is pinned by finite-difference gradient checks in each
//! module's tests.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod activation;
pub mod dense;
pub mod dropout;
pub mod embedding;
pub mod mlp;
pub mod optim;
pub mod quant;
pub mod serialize;
pub mod sharded;
pub mod softmax_out;
pub mod workspace;

pub use activation::Activation;
pub use dense::{Dense, DenseGrads};
pub use dropout::Dropout;
pub use embedding::EmbeddingBag;
pub use mlp::{Mlp, MlpGrads};
pub use optim::{Adam, AdamState, GradClip, Sgd};
pub use quant::{fast_tanh, quantize_symmetric, QuantScratch, QuantizedDense};
pub use sharded::{RowGrads, ShardedRowGrads};
pub use softmax_out::{SampledSoftmaxOutput, SoftmaxBatch};
pub use workspace::{Workspace, WorkspaceStats};
