//! Int8-quantized inference encoder for serving.
//!
//! [`QuantizedEncoder`] runs [`Encoder`]'s forward with every dense layer
//! replaced by an [`fvae_nn::QuantizedDense`] (per-output-unit symmetric
//! weight scales, dynamic per-row activation scales, exact i32 accumulation
//! through the dispatched `dot_i8`/`dot_i8x4` kernels). The sparse front —
//! embedding-bag gathers, first-layer bias, activation — is the f32
//! encoder's own front, run over the same bags: it is a gather-and-add over
//! a handful of rows per user, a negligible slice of encode cost next to
//! the dense trunk, and quantizing it would burn accuracy where there is no
//! traffic to save. The one concession is [`fast_tanh`] as its activation,
//! a rational approximation whose error vanishes below the int8
//! quantization step it feeds.
//!
//! Because the i8×i8→i32 accumulation is associative, the quantized forward
//! is **bit-deterministic across SIMD backends and thread counts** — a
//! strictly stronger reproducibility story than the f32 path, whose bits
//! are per-backend. Accuracy versus the f32 encoder is gated by the serving
//! parity tests (embedding cosine ≥ 0.999, identical top-k neighbor sets on
//! the golden fixtures).

use fvae_nn::{fast_tanh, QuantScratch, QuantizedDense};
use fvae_tensor::Matrix;

use crate::encoder::{Encoder, InputRows};

/// Inference-only, int8-quantized counterpart of [`Encoder`].
pub struct QuantizedEncoder {
    /// The f32 encoder whose sparse front this one runs.
    front: Encoder,
    /// Quantized extra MLP layers, in forward order (empty when the encoder
    /// has no extra trunk).
    extra: Vec<QuantizedDense>,
    head: QuantizedDense,
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
            front: enc.clone(),
            extra: enc
                .extra
                .as_ref()
                .map(|mlp| mlp.layers().iter().map(QuantizedDense::from_dense).collect())
                .unwrap_or_default(),
            head: QuantizedDense::from_dense(&enc.head),
        }
    }

    /// Number of input fields expected per request.
    pub fn n_fields(&self) -> usize {
        self.front.n_fields()
    }

    /// Latent dimensionality `D` of the served embedding.
    pub fn latent_dim(&self) -> usize {
        self.front.latent_dim()
    }

    /// Quantized counterpart of [`Encoder::embed_into`]: the posterior mean
    /// `μ` for a batch, reusing `scratch` across calls.
    pub fn embed_into(
        &self,
        input: &InputRows,
        scratch: &mut QuantizedEncoderScratch,
        mu: &mut Matrix,
    ) {
        self.front.front_into(input, &mut scratch.field_out, &mut scratch.x0, |x0, b| {
            x0.bias_then(b, fast_tanh)
        });
        scratch.acts.resize_with(self.extra.len(), Matrix::default);
        for (i, layer) in self.extra.iter().enumerate() {
            let (done, rest) = scratch.acts.split_at_mut(i);
            let x = done.last().unwrap_or(&scratch.x0);
            layer.forward_into(x, &mut scratch.qs, &mut rest[0]);
        }
        let h: &Matrix = scratch.acts.last().unwrap_or(&scratch.x0);
        self.head.forward_into(h, &mut scratch.qs, &mut scratch.stats);
        let d = self.latent_dim();
        mu.resize_zeroed(input.rows, d);
        for r in 0..input.rows {
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
        model.encoder().clone()
    }

    #[test]
    fn quantized_embeddings_stay_cosine_close_to_f32() {
        let ds = tiny_ds();
        for extra in [vec![], vec![12], vec![12, 10]] {
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
