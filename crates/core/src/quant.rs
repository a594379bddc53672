//! Int8-quantized inference encoder for serving.
//!
//! [`QuantizedEncoder`] mirrors [`Encoder`]'s forward pass with every dense
//! layer replaced by an [`fvae_nn::QuantizedDense`] (per-output-unit
//! symmetric weight scales, dynamic per-row activation scales, exact i32
//! accumulation through the dispatched `dot_i8`/`dot_i8x4` kernels). The
//! sparse front — embedding-bag gathers, first-layer bias, tanh — stays
//! f32: it is a gather-and-add over a handful of rows per user, a
//! negligible slice of encode cost next to the dense trunk, and quantizing
//! it would burn accuracy where there is no traffic to save. The one
//! concession is [`fast_tanh`], a rational approximation whose error
//! vanishes below the int8 quantization step it feeds.
//!
//! Because the i8×i8→i32 accumulation is associative, the quantized forward
//! is **bit-deterministic across SIMD backends and thread counts** — a
//! strictly stronger reproducibility story than the f32 path, whose bits
//! are per-backend. Accuracy versus the f32 encoder is gated by the serving
//! parity tests (embedding cosine ≥ 0.999, identical top-k neighbor sets on
//! the golden fixtures).

use fvae_nn::{fast_tanh, EmbeddingBag, QuantScratch, QuantizedDense};
use fvae_tensor::Matrix;

use crate::encoder::{Encoder, InputRows};

/// Inference-only, int8-quantized counterpart of [`Encoder`].
pub struct QuantizedEncoder {
    n_fields: usize,
    latent_dim: usize,
    enc_hidden: usize,
    bags: Vec<EmbeddingBag>,
    enc_bias: Vec<f32>,
    /// Quantized extra MLP layers, in forward order (empty when the encoder
    /// has no extra trunk).
    enc_extra: Vec<QuantizedDense>,
    enc_head: QuantizedDense,
}

/// Reusable forward buffers for [`QuantizedEncoder::embed_into`].
#[derive(Default)]
pub struct QuantizedEncoderScratch {
    field_out: Matrix,
    x0: Matrix,
    acts: Vec<Matrix>,
    stats: Matrix,
    qs: QuantScratch,
}

impl QuantizedEncoder {
    /// Quantizes a float encoder's dense trunk (the encoder stays usable).
    pub fn from_encoder(enc: &Encoder) -> Self {
        Self {
            n_fields: enc.n_fields,
            latent_dim: enc.latent_dim,
            enc_hidden: enc.enc_hidden,
            bags: enc.bags.clone(),
            enc_bias: enc.enc_bias.clone(),
            enc_extra: enc
                .enc_extra
                .as_ref()
                .map(|mlp| mlp.layers().iter().map(QuantizedDense::from_dense).collect())
                .unwrap_or_default(),
            enc_head: QuantizedDense::from_dense(&enc.enc_head),
        }
    }

    /// Number of input fields expected per request.
    pub fn n_fields(&self) -> usize {
        self.n_fields
    }

    /// Latent dimensionality `D` of the served embedding.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Quantized counterpart of [`Encoder::embed_into`]: the posterior mean
    /// `μ` for a batch, reusing `scratch` across calls.
    pub fn embed_into(
        &self,
        input: &InputRows,
        scratch: &mut QuantizedEncoderScratch,
        mu: &mut Matrix,
    ) {
        assert_eq!(input.n_fields, self.n_fields, "field count mismatch");
        let batch = input.rows;
        scratch.x0.resize_zeroed(batch, self.enc_hidden);
        for (k, bag) in self.bags.iter().enumerate() {
            bag.forward_batch_frozen_into(
                &input.ids[k][..batch],
                &input.vals[k][..batch],
                &mut scratch.field_out,
            );
            scratch.x0.add_assign(&scratch.field_out);
        }
        for r in 0..batch {
            let row = scratch.x0.row_mut(r);
            for (v, &b) in row.iter_mut().zip(self.enc_bias.iter()) {
                *v += b;
            }
        }
        scratch.x0.map_inplace(fast_tanh);
        scratch.acts.resize_with(self.enc_extra.len(), Matrix::default);
        for (i, layer) in self.enc_extra.iter().enumerate() {
            if i == 0 {
                layer.forward_into(&scratch.x0, &mut scratch.qs, &mut scratch.acts[0]);
            } else {
                let (done, rest) = scratch.acts.split_at_mut(i);
                layer.forward_into(&done[i - 1], &mut scratch.qs, &mut rest[0]);
            }
        }
        let h: &Matrix = scratch.acts.last().unwrap_or(&scratch.x0);
        self.enc_head.forward_into(h, &mut scratch.qs, &mut scratch.stats);
        let d = self.latent_dim;
        mu.resize_zeroed(batch, d);
        for r in 0..batch {
            mu.row_mut(r).copy_from_slice(&scratch.stats.row(r)[..d]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FvaeConfig;
    use crate::encoder::EncoderScratch;
    use crate::model::Fvae;
    use fvae_data::{FieldSpec, MultiFieldDataset, TopicModelConfig};
    use fvae_tensor::ops::cosine_similarity;

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
        model.encoder()
    }

    #[test]
    fn quantized_embeddings_stay_cosine_close_to_f32() {
        let ds = tiny_ds();
        for extra in [vec![], vec![12]] {
            let enc = trained_encoder(&ds, extra.clone());
            let q = QuantizedEncoder::from_encoder(&enc);
            assert_eq!(q.latent_dim(), enc.latent_dim());
            assert_eq!(q.n_fields(), enc.n_fields());

            let users: Vec<usize> = (0..30).collect();
            let mut input = InputRows::default();
            let mut fscratch = EncoderScratch::default();
            let mut f32_mu = Matrix::default();
            enc.embed_users_into(&ds, &users, None, &mut input, &mut fscratch, &mut f32_mu);

            let mut qscratch = QuantizedEncoderScratch::default();
            let mut q_mu = Matrix::default();
            q.embed_into(&input, &mut qscratch, &mut q_mu);
            assert_eq!(q_mu.shape(), f32_mu.shape());
            for r in 0..q_mu.rows() {
                let cos = cosine_similarity(q_mu.row(r), f32_mu.row(r));
                assert!(cos >= 0.999, "extra {extra:?} user {r}: cosine {cos}");
            }
        }
    }
}
