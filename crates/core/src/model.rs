//! The FVAE model: structure, forward passes, and inference APIs.
//!
//! Architecture (Fig. 1 of the paper):
//!
//! ```text
//! fields F¹..Fᴷ ──(per-field dynamic-hash EmbeddingBag, summed)──► tanh ─► [extra MLP]
//!     ─► Dense ─► [μ, log σ²] ─► z = μ + ε·σ
//! z ─► shared trunk MLP (tanh) ─► per-field batched-softmax heads π¹..πᴷ
//! ```
//!
//! The encoder consumes the user's L2-normalized multi-hot counts; the
//! decoder trunk is shared across fields ("parameters of the MLP in the
//! decoder are shared across all fields, excluding the output layer") while
//! every field owns its softmax head — the field-aware extension of Eq. 1–3.

use fvae_data::MultiFieldDataset;
use fvae_nn::{Activation, Dense, EmbeddingBag, Mlp, SampledSoftmaxOutput};
use fvae_tensor::dist::Gaussian;
use fvae_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::config::FvaeConfig;
use crate::encoder::{Encoder, EncoderScratch, InputRows};

/// Field-aware Variational Autoencoder.
pub struct Fvae {
    pub(crate) cfg: FvaeConfig,
    /// The `q(z|x)` half: embedding bags, first-layer bias, extra MLP and
    /// the μ / log σ² head.
    pub(crate) enc: Encoder,
    /// Shared decoder trunk.
    pub(crate) trunk: Mlp,
    /// One batched-softmax head per field.
    pub(crate) heads: Vec<SampledSoftmaxOutput>,
    /// Model-owned RNG (reparametrization noise, dropout, sampling, init).
    pub(crate) rng: StdRng,
    /// Global training step (drives KL annealing).
    pub(crate) step: u64,
}

impl Clone for Fvae {
    /// Clones all parameters. `StdRng` is not `Clone` in this `rand`
    /// version, so the replica gets a fresh RNG seeded from the config seed
    /// and the current step — deterministic, and identical across replicas
    /// cloned from the same model state (which the distributed trainer's
    /// identity test relies on).
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg.clone(),
            enc: self.enc.clone(),
            trunk: self.trunk.clone(),
            heads: self.heads.clone(),
            rng: StdRng::seed_from_u64(self.cfg.seed ^ self.step.wrapping_mul(0x9e3779b9)),
            step: self.step,
        }
    }
}

impl Fvae {
    /// Builds a model from a validated configuration.
    pub fn new(cfg: FvaeConfig) -> Self {
        cfg.validate().expect("invalid FVAE configuration");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let bags = (0..cfg.n_fields)
            .map(|_| EmbeddingBag::new(cfg.enc_hidden, cfg.init_std))
            .collect();
        let bias = vec![0.0; cfg.enc_hidden];
        let extra = if cfg.enc_extra_hidden.is_empty() {
            None
        } else {
            let mut dims = vec![cfg.enc_hidden];
            dims.extend_from_slice(&cfg.enc_extra_hidden);
            Some(Mlp::new(&dims, Activation::Tanh, Activation::Tanh, &mut rng))
        };
        let enc_in = *cfg.enc_extra_hidden.last().unwrap_or(&cfg.enc_hidden);
        let head = Dense::new(enc_in, 2 * cfg.latent_dim, Activation::Identity, &mut rng);
        let mut trunk_dims = vec![cfg.latent_dim];
        trunk_dims.extend_from_slice(&cfg.dec_hidden);
        let trunk = Mlp::new(&trunk_dims, Activation::Tanh, Activation::Tanh, &mut rng);
        let head_dim = *cfg.dec_hidden.last().expect("validated non-empty");
        let heads = (0..cfg.n_fields)
            .map(|_| SampledSoftmaxOutput::new(head_dim, cfg.init_std))
            .collect();
        let enc = Encoder { bags, bias, extra, head };
        Self { cfg, enc, trunk, heads, rng, step: 0 }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &FvaeConfig {
        &self.cfg
    }

    /// Latent dimensionality `D`.
    pub fn latent_dim(&self) -> usize {
        self.cfg.latent_dim
    }

    /// Total features currently tracked by the input hash tables.
    pub fn input_vocab_len(&self) -> usize {
        self.enc.input_vocab_len()
    }

    /// Assembles the training batch for `users` into a caller-owned
    /// [`InputRows`] (reshaped in place, so a training loop reuses all of
    /// its capacity across steps): inputs L2-normalized over the fields
    /// this user keeps, with structured field dropout and per-feature input
    /// dropout drawn from the model RNG.
    pub(crate) fn build_input_into(
        &mut self,
        ds: &MultiFieldDataset,
        users: &[usize],
        input: &mut InputRows,
    ) {
        let n_fields = self.cfg.n_fields;
        let p = self.cfg.dropout;
        let keep_scale = if p > 0.0 { 1.0 / (1.0 - p) } else { 1.0 };
        input.reset(n_fields);
        for (r, &u) in users.iter().enumerate() {
            // Structured field dropout: with probability `field_dropout`,
            // hide one random field of this user entirely.
            let masked_field: Option<usize> = if self.cfg.field_dropout > 0.0
                && n_fields > 1
                && self.rng.random::<f32>() < self.cfg.field_dropout
            {
                Some(self.rng.random_range(0..n_fields))
            } else {
                None
            };
            // L2 norm over the *used* fields of this user.
            let mut sq = 0.0f32;
            for k in (0..n_fields).filter(|&k| masked_field != Some(k)) {
                let (_, vs) = ds.user_field(u, k);
                sq += vs.iter().map(|v| v * v).sum::<f32>();
            }
            let inv_norm = if sq > 0.0 { 1.0 / sq.sqrt() } else { 0.0 };
            for k in 0..n_fields {
                let (id_row, val_row) = input.row_mut(k, r);
                if masked_field == Some(k) {
                    continue;
                }
                let (ix, vs) = ds.user_field(u, k);
                for (&i, &v) in ix.iter().zip(vs.iter()) {
                    if p > 0.0 && self.rng.random::<f32>() < p {
                        continue;
                    }
                    id_row.push(u64::from(i));
                    val_row.push(v * inv_norm * keep_scale);
                }
            }
            input.rows += 1;
        }
    }

    /// Reparametrization trick: `z = μ + ε ⊙ exp(½ log σ²)`, writing both
    /// `z` and the noise `ε` (needed by backprop) into caller-owned buffers.
    pub(crate) fn reparametrize_into(
        &mut self,
        mu: &Matrix,
        logvar: &Matrix,
        z: &mut Matrix,
        eps: &mut Matrix,
    ) {
        let mut gauss = Gaussian::standard();
        eps.resize_zeroed(mu.rows(), mu.cols());
        gauss.fill(&mut self.rng, eps.as_mut_slice());
        z.resize_zeroed(mu.rows(), mu.cols());
        z.as_mut_slice().copy_from_slice(mu.as_slice());
        for ((zi, &e), &lv) in z
            .as_mut_slice()
            .iter_mut()
            .zip(eps.as_slice())
            .zip(logvar.as_slice())
        {
            *zi += e * (0.5 * lv).exp();
        }
    }

    /// Encodes users to their latent Gaussians `(μ, log σ²)` without
    /// mutating the model, through [`Encoder::encode_into`]. `fields`
    /// restricts the fold-in input.
    pub fn encode(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        fields: Option<&[usize]>,
    ) -> (Matrix, Matrix) {
        let mut input = InputRows::default();
        input.fill_from_dataset(ds, users, fields, self.cfg.n_fields);
        let (mut mu, mut logvar) = (Matrix::default(), Matrix::default());
        self.enc.encode_into(&input, &mut EncoderScratch::default(), &mut mu, &mut logvar);
        (mu, logvar)
    }

    /// User embeddings: the posterior mean `μ` (the paper serves μ as the
    /// user representation). `fields = None` uses every field.
    pub fn embed_users(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        fields: Option<&[usize]>,
    ) -> Matrix {
        self.encode(ds, users, fields).0
    }

    /// Decoder hidden state for given latents.
    pub fn decode_hidden(&self, z: &Matrix) -> Matrix {
        self.trunk.forward(z)
    }

    /// Log-softmax scores of field `k` over an explicit feature-index list,
    /// for the given latents (reconstruction evaluation, Table II).
    pub fn field_log_probs(&self, z: &Matrix, field: usize, features: &[u32]) -> Matrix {
        let h = self.decode_hidden(z);
        let ids: Vec<u64> = features.iter().map(|&f| f as u64).collect();
        self.heads[field].log_probs_over_ids(&h, &ids)
    }

    /// Raw logits of field `k` for one latent row over candidate features
    /// (tag prediction, Tables III/IV; candidates need not be the full
    /// vocabulary, and ranking only needs logits).
    pub fn field_logits_one(&self, z_row: &[f32], field: usize, features: &[u32]) -> Vec<f32> {
        let z = Matrix::from_vec(1, z_row.len(), z_row.to_vec());
        let h = self.decode_hidden(&z);
        let ids: Vec<u64> = features.iter().map(|&f| f as u64).collect();
        self.heads[field].logits_for_ids(h.row(0), &ids)
    }

    /// Averages this model's parameters with `others` in place — the
    /// synchronization step of local-SGD data-parallel training, where each
    /// replica trains on its own user shard. Dense tensors average
    /// element-wise; the dynamically grown embedding / output tables average
    /// **by feature ID**: an ID present in `m` of the replicas gets the mean
    /// of those `m` rows (replicas that never saw a feature carry no
    /// information about it).
    pub fn average_with(&mut self, others: &[Fvae]) {
        if others.is_empty() {
            return;
        }
        let n = (others.len() + 1) as f32;
        let inv_n = 1.0 / n;

        // Dense groups.
        for (i, b) in self.enc.bias.iter_mut().enumerate() {
            let mut acc = *b;
            for o in others {
                acc += o.enc.bias[i];
            }
            *b = acc * inv_n;
        }
        let avg_dense = |mine: &mut Dense, theirs: Vec<&Dense>| {
            let (w, b) = mine.params_mut();
            for (idx, v) in w.as_mut_slice().iter_mut().enumerate() {
                let mut acc = *v;
                for t in &theirs {
                    acc += t.params().0.as_slice()[idx];
                }
                *v = acc * inv_n;
            }
            for (idx, v) in b.iter_mut().enumerate() {
                let mut acc = *v;
                for t in &theirs {
                    acc += t.params().1[idx];
                }
                *v = acc * inv_n;
            }
        };
        avg_dense(&mut self.enc.head, others.iter().map(|o| &o.enc.head).collect());
        for layer_idx in 0..self.trunk.layers().len() {
            let theirs: Vec<&Dense> =
                others.iter().map(|o| &o.trunk.layers()[layer_idx]).collect();
            avg_dense(&mut self.trunk.layers_mut()[layer_idx], theirs);
        }
        if let Some(depth) = self.enc.extra.as_ref().map(|e| e.layers().len()) {
            for layer_idx in 0..depth {
                let theirs: Vec<&Dense> = others
                    .iter()
                    .map(|o| &o.enc.extra.as_ref().expect("same architecture").layers()[layer_idx])
                    .collect();
                if let Some(extra) = self.enc.extra.as_mut() {
                    avg_dense(&mut extra.layers_mut()[layer_idx], theirs);
                }
            }
        }

        // ID-aligned sparse tables.
        use fvae_sparse::FastHashMap;
        for k in 0..self.cfg.n_fields {
            let dim = self.enc.bags[k].dim();
            let mut acc: FastHashMap<u64, (Vec<f32>, u32)> = FastHashMap::default();
            let mut absorb = |bag: &EmbeddingBag| {
                for (id, slot) in bag.table().iter() {
                    let e = acc.entry(id).or_insert_with(|| (vec![0.0; dim], 0));
                    for (a, &w) in e.0.iter_mut().zip(bag.row(slot)) {
                        *a += w;
                    }
                    e.1 += 1;
                }
            };
            absorb(&self.enc.bags[k]);
            for o in others {
                absorb(&o.enc.bags[k]);
            }
            let mut ids: Vec<u64> = acc.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let (mut row, count) = acc.remove(&id).expect("present");
                let inv = 1.0 / count as f32;
                row.iter_mut().for_each(|v| *v *= inv);
                self.enc.bags[k].set_row(id, &row, &mut self.rng);
            }

            let hdim = self.heads[k].dim();
            let mut hacc: FastHashMap<u64, (Vec<f32>, f32, u32)> = FastHashMap::default();
            let mut absorb_head = |head: &SampledSoftmaxOutput| {
                for (id, slot) in head.table().iter() {
                    let e = hacc.entry(id).or_insert_with(|| (vec![0.0; hdim], 0.0, 0));
                    for (a, &w) in e.0.iter_mut().zip(head.weight_row(slot)) {
                        *a += w;
                    }
                    e.1 += head.bias_of(slot);
                    e.2 += 1;
                }
            };
            absorb_head(&self.heads[k]);
            for o in others {
                absorb_head(&o.heads[k]);
            }
            let mut ids: Vec<u64> = hacc.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let (mut row, bias, count) = hacc.remove(&id).expect("present");
                let inv = 1.0 / count as f32;
                row.iter_mut().for_each(|v| *v *= inv);
                self.heads[k].set_row(id, &row, bias * inv, &mut self.rng);
            }
        }
    }

    /// Total dense parameter count (gradient/weight bytes exchanged by a
    /// synchronous all-reduce each step) — the communication volume of the
    /// Fig. 10 cost model.
    pub fn dense_param_count(&self) -> usize {
        let mut n = self.enc.bias.len() + self.enc.head.param_count() + self.trunk.param_count();
        if let Some(mlp) = &self.enc.extra {
            n += mlp.param_count();
        }
        n
    }

    /// Analytic KL divergence `KL(N(μ, σ²) ‖ N(0, I))` summed over the batch,
    /// plus its gradients w.r.t. μ and log σ².
    pub(crate) fn kl_and_grads(mu: &Matrix, logvar: &Matrix) -> (f32, Matrix, Matrix) {
        let mut dmu = Matrix::zeros(0, 0);
        let mut dlogvar = Matrix::zeros(0, 0);
        let kl = Self::kl_and_grads_into(mu, logvar, &mut dmu, &mut dlogvar);
        (kl, dmu, dlogvar)
    }

    /// [`Fvae::kl_and_grads`] writing into caller-owned buffers.
    ///
    /// The `f64` KL sum crosses the whole batch, so it accumulates into
    /// [`fvae_pool::REDUCE_SHARDS`] **fixed** per-shard partials (serial
    /// element order within each shard) combined in fixed shard order — the
    /// bits depend only on the batch, never on the thread count.
    pub(crate) fn kl_and_grads_into(
        mu: &Matrix,
        logvar: &Matrix,
        dmu: &mut Matrix,
        dlogvar: &mut Matrix,
    ) -> f32 {
        // dKL/dμ = μ.
        dmu.resize_zeroed(mu.rows(), mu.cols());
        dmu.as_mut_slice().copy_from_slice(mu.as_slice());
        dlogvar.resize_zeroed(logvar.rows(), logvar.cols());
        let mus = mu.as_slice();
        let lvs = logvar.as_slice();
        let mut partials = [0.0f64; fvae_pool::REDUCE_SHARDS];
        let dl = dlogvar.as_mut_slice();
        fvae_pool::global().run_rows_reduce(dl, mus.len(), 1, &mut partials, |range, dl, part| {
            for (i, d) in range.zip(dl) {
                let (m, lv) = (mus[i], lvs[i]);
                let var = lv.exp();
                *part += 0.5 * ((m * m + var - 1.0 - lv) as f64);
                *d = 0.5 * (var - 1.0);
            }
        });
        partials.iter().sum::<f64>() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvae_data::TopicModelConfig;

    fn tiny_ds() -> MultiFieldDataset {
        TopicModelConfig {
            n_users: 60,
            n_topics: 3,
            alpha: 0.2,
            fields: vec![
                fvae_data::FieldSpec::new("ch1", 12, 3, 1.0),
                fvae_data::FieldSpec::new("tag", 40, 5, 1.0),
            ],
            pair_prob: 0.0,
            seed: 5,
        }
        .generate()
    }

    fn tiny_model(ds: &MultiFieldDataset) -> Fvae {
        let mut cfg = FvaeConfig::for_dataset(ds);
        cfg.latent_dim = 8;
        cfg.enc_hidden = 16;
        cfg.dec_hidden = vec![16];
        cfg.batch_size = 16;
        Fvae::new(cfg)
    }

    #[test]
    fn encode_shapes_are_batch_by_latent() {
        let ds = tiny_ds();
        let model = tiny_model(&ds);
        let users: Vec<usize> = (0..10).collect();
        let (mu, logvar) = model.encode(&ds, &users, None);
        assert_eq!(mu.shape(), (10, 8));
        assert_eq!(logvar.shape(), (10, 8));
        assert!(mu.is_finite() && logvar.is_finite());
    }

    #[test]
    fn reparametrization_centers_on_mu() {
        let ds = tiny_ds();
        let mut model = tiny_model(&ds);
        let mu = Matrix::full(200, 8, 2.0);
        let logvar = Matrix::full(200, 8, -2.0);
        let (mut z, mut eps) = (Matrix::default(), Matrix::default());
        model.reparametrize_into(&mu, &logvar, &mut z, &mut eps);
        assert_eq!(z.shape(), (200, 8));
        assert_eq!(eps.shape(), (200, 8));
        let mean = fvae_tensor::ops::mean(z.as_slice());
        assert!((mean - 2.0).abs() < 0.05, "z should center on μ, got {mean}");
        // z − μ should have std exp(−1) ≈ 0.368.
        let dev: Vec<f32> = z.as_slice().iter().map(|&v| v - 2.0).collect();
        let std = fvae_tensor::ops::variance(&dev).sqrt();
        assert!((std - (-1.0f32).exp()).abs() < 0.02, "std {std}");
    }

    #[test]
    fn kl_is_zero_at_standard_normal() {
        let mu = Matrix::zeros(3, 4);
        let logvar = Matrix::zeros(3, 4);
        let (kl, dmu, dlogvar) = Fvae::kl_and_grads(&mu, &logvar);
        assert!(kl.abs() < 1e-6);
        assert!(dmu.as_slice().iter().all(|&v| v == 0.0));
        assert!(dlogvar.as_slice().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn kl_gradients_match_finite_differences() {
        let mu = Matrix::from_vec(1, 2, vec![0.7, -0.3]);
        let logvar = Matrix::from_vec(1, 2, vec![0.4, -0.9]);
        let (_, dmu, dlogvar) = Fvae::kl_and_grads(&mu, &logvar);
        let eps = 1e-3;
        for i in 0..2 {
            let mut m2 = mu.clone();
            m2.as_mut_slice()[i] += eps;
            let hi = Fvae::kl_and_grads(&m2, &logvar).0;
            m2.as_mut_slice()[i] -= 2.0 * eps;
            let lo = Fvae::kl_and_grads(&m2, &logvar).0;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!((numeric - dmu.as_slice()[i]).abs() < 1e-2, "dmu[{i}]");

            let mut l2 = logvar.clone();
            l2.as_mut_slice()[i] += eps;
            let hi = Fvae::kl_and_grads(&mu, &l2).0;
            l2.as_mut_slice()[i] -= 2.0 * eps;
            let lo = Fvae::kl_and_grads(&mu, &l2).0;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!((numeric - dlogvar.as_slice()[i]).abs() < 1e-2, "dlogvar[{i}]");
        }
    }

    #[test]
    fn fold_in_fields_restrict_input() {
        let ds = tiny_ds();
        let mut model = tiny_model(&ds);
        // Train a couple of steps so embeddings exist.
        let users: Vec<usize> = (0..30).collect();
        model.train_epochs(&ds, &users, 1, |_, _| {});
        let full = model.embed_users(&ds, &[0, 1], None);
        let fold = model.embed_users(&ds, &[0, 1], Some(&[0]));
        assert_eq!(full.shape(), fold.shape());
        assert_ne!(full.as_slice(), fold.as_slice(), "fold-in must change the embedding");
    }

    #[test]
    fn field_log_probs_are_normalized() {
        let ds = tiny_ds();
        let mut model = tiny_model(&ds);
        let users: Vec<usize> = (0..30).collect();
        model.train_epochs(&ds, &users, 1, |_, _| {});
        let z = model.embed_users(&ds, &[3], None);
        let feats: Vec<u32> = (0..40).collect();
        let lp = model.field_log_probs(&z, 1, &feats);
        let sum: f32 = lp.row(0).iter().map(|&v| v.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-3, "softmax over ids should normalize, got {sum}");
    }

    fn replica_setup() -> (MultiFieldDataset, Fvae) {
        let ds = TopicModelConfig {
            n_users: 80,
            n_topics: 3,
            alpha: 0.2,
            fields: vec![
                fvae_data::FieldSpec::new("ch1", 12, 3, 1.0),
                fvae_data::FieldSpec::new("tag", 40, 5, 1.0),
            ],
            pair_prob: 0.0,
            seed: 11,
        }
        .generate();
        let mut cfg = FvaeConfig::for_dataset(&ds);
        cfg.latent_dim = 8;
        cfg.enc_hidden = 16;
        cfg.dec_hidden = vec![16];
        cfg.batch_size = 20;
        cfg.sampling.rate = 1.0;
        cfg.dropout = 0.0;
        let model = Fvae::new(cfg);
        (ds, model)
    }

    /// One local-SGD round: every replica clones `model`, trains one epoch
    /// on its round-robin shard of `users`, and the replicas average.
    fn averaged_round(
        model: &Fvae,
        ds: &MultiFieldDataset,
        users: &[usize],
        shards: usize,
    ) -> Fvae {
        let mut replicas: Vec<Fvae> = (0..shards)
            .map(|s| {
                let shard: Vec<usize> = users.iter().copied().skip(s).step_by(shards).collect();
                let mut replica = model.clone();
                replica.train_epochs(ds, &shard, 1, |_, _| {});
                replica
            })
            .collect();
        let mut merged = replicas.remove(0);
        merged.average_with(&replicas);
        merged
    }

    #[test]
    fn averaging_identical_replicas_is_the_identity() {
        // Replicas that start equal and train on the same users evolve
        // identically, so their average must equal the solo run.
        let (ds, model) = replica_setup();
        let users: Vec<usize> = (0..40).collect();
        let mut solo = model.clone();
        solo.train_epochs(&ds, &users, 1, |_, _| {});
        let mut a = model.clone();
        a.train_epochs(&ds, &users, 1, |_, _| {});
        let mut b = model.clone();
        b.train_epochs(&ds, &users, 1, |_, _| {});
        a.average_with(&[b]);
        let e1 = solo.embed_users(&ds, &users[..5], None);
        let e2 = a.embed_users(&ds, &users[..5], None);
        for (x, y) in e1.as_slice().iter().zip(e2.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn averaging_disjoint_shards_merges_their_vocabularies() {
        let (ds, model) = replica_setup();
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let merged = averaged_round(&model, &ds, &users, 4);
        assert!(
            merged.input_vocab_len() > model.input_vocab_len(),
            "training must grow the dynamic tables"
        );
        let emb = merged.embed_users(&ds, &users[..8], None);
        assert!(emb.is_finite());
    }

    #[test]
    fn averaged_replicas_still_learn() {
        let (ds, model) = replica_setup();
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let mut current = model;
        for _ in 0..4 {
            current = averaged_round(&current, &ds, &users, 2);
        }
        // Averaged training should separate topics at least weakly.
        let emb = current.embed_users(&ds, &users, None);
        let mut within = (0.0f64, 0usize);
        let mut cross = (0.0f64, 0usize);
        for i in 0..40 {
            for j in (i + 1)..40 {
                let c = fvae_tensor::ops::cosine_similarity(emb.row(i), emb.row(j)) as f64;
                if ds.user_topics[i] == ds.user_topics[j] {
                    within = (within.0 + c, within.1 + 1);
                } else {
                    cross = (cross.0 + c, cross.1 + 1);
                }
            }
        }
        let gap = within.0 / within.1.max(1) as f64 - cross.0 / cross.1.max(1) as f64;
        assert!(gap > 0.0, "topic separation gap {gap}");
    }
}
