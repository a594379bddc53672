//! The encoder: the `q(z|x)` half of the FVAE and its one forward pass.
//!
//! [`Encoder`] holds the parameters of the encoder half: per-field
//! embedding bags, the first-layer bias, the optional extra MLP, and the
//! `(μ, log σ²)` head. [`Fvae`] owns one as its encoder, so training updates
//! these very parameters; [`Fvae::encoder`] clones it and
//! `Encoder::from(Fvae)` moves it out for serving, leaving the decoder
//! trunk, the softmax heads and every optimizer buffer behind.
//!
//! [`Encoder::encode_into`] is the crate's only frozen forward.
//! [`Fvae::encode`] / [`Fvae::embed_users`], the offline store fill, the
//! evaluation drivers and the f32 server all call it, and
//! [`crate::QuantizedEncoder`] runs its sparse front. Offline and served
//! embeddings are therefore one function of the same bytes, bit-identical
//! at any thread count. The forward reuses an [`EncoderScratch`], so a
//! long-running server (or a loop that embeds one user per call) pays zero
//! steady-state allocations.

use fvae_data::MultiFieldDataset;
use fvae_nn::{Dense, EmbeddingBag, Mlp};
use fvae_tensor::Matrix;
use rand::Rng;

use crate::model::Fvae;

/// Bound on the predicted log-variance, keeping `exp` finite.
pub(crate) const LOGVAR_CLAMP: f32 = 8.0;

/// The parameters of the `q(z|x)` half of an [`Fvae`]. Its shape — field
/// count, first-layer width, latent dimensionality — is read off the
/// parameters themselves.
#[derive(Clone)]
pub struct Encoder {
    /// One embedding bag per field — summed, they form the first encoder
    /// layer over the concatenated multi-hot input.
    pub(crate) bags: Vec<EmbeddingBag>,
    /// Bias of the first encoder layer.
    pub(crate) bias: Vec<f32>,
    /// Optional extra encoder hidden layers.
    pub(crate) extra: Option<Mlp>,
    /// μ / log σ² head.
    pub(crate) head: Dense,
}

/// Reusable forward buffers for [`Encoder::encode_into`]. All matrices are
/// reshaped in place, so after one warm-up batch at the largest batch size
/// the forward pass allocates nothing.
#[derive(Default)]
pub struct EncoderScratch {
    field_out: Matrix,
    x0: Matrix,
    acts: Vec<Matrix>,
    stats: Matrix,
    logvar: Matrix,
}

/// Batched sparse encoder input: per field, one `(ids, vals)` row per user,
/// already L2-normalized across fields (and dropout-masked, when training
/// fills it). Nested vectors are reused across batches (reshaped in place).
#[derive(Default)]
pub struct InputRows {
    pub(crate) n_fields: usize,
    pub(crate) rows: usize,
    pub(crate) ids: Vec<Vec<Vec<u64>>>,
    pub(crate) vals: Vec<Vec<Vec<f32>>>,
}

impl InputRows {
    /// Empties the batch (keeping all nested capacity) and fixes the field
    /// count subsequent [`InputRows::push_row`] calls must supply.
    pub fn reset(&mut self, n_fields: usize) {
        self.n_fields = n_fields;
        self.rows = 0;
        self.ids.resize_with(n_fields, Vec::new);
        self.ids.truncate(n_fields);
        self.vals.resize_with(n_fields, Vec::new);
        self.vals.truncate(n_fields);
    }

    /// Number of user rows currently in the batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Field count the batch was reset with.
    pub fn n_fields(&self) -> usize {
        self.n_fields
    }

    /// Field `k`'s `(ids, vals)` rows of the current batch.
    pub(crate) fn field(&self, k: usize) -> (&[Vec<u64>], &[Vec<f32>]) {
        (&self.ids[k][..self.rows], &self.vals[k][..self.rows])
    }

    /// Row `r` of field `k`, emptied. Rows are filled in order, so a batch
    /// longer than any before grows each field by one row at a time.
    pub(crate) fn row_mut(&mut self, k: usize, r: usize) -> (&mut Vec<u64>, &mut Vec<f32>) {
        if self.ids[k].len() <= r {
            self.ids[k].push(Vec::new());
            self.vals[k].push(Vec::new());
        }
        let (ids, vals) = (&mut self.ids[k][r], &mut self.vals[k][r]);
        ids.clear();
        vals.clear();
        (ids, vals)
    }

    /// Appends one user's raw per-field `(ids, weights)` rows, applying the
    /// same L2 normalization over all fields as
    /// [`InputRows::fill_from_dataset`] (fields are visited in index order,
    /// per-field squared sums are added in that order).
    pub fn push_row<'a>(&mut self, mut field: impl FnMut(usize) -> (&'a [u64], &'a [f32])) {
        let r = self.rows;
        let mut sq = 0.0f32;
        for k in 0..self.n_fields {
            let (_, vs) = field(k);
            sq += vs.iter().map(|v| v * v).sum::<f32>();
        }
        let inv_norm = if sq > 0.0 { 1.0 / sq.sqrt() } else { 0.0 };
        for k in 0..self.n_fields {
            let (ids, vals) = field(k);
            let (id_row, val_row) = self.row_mut(k, r);
            id_row.extend_from_slice(ids);
            val_row.extend(vals.iter().map(|&v| v * inv_norm));
        }
        self.rows += 1;
    }

    /// Fills the batch from dataset users, the one inference-time dataset
    /// input builder: the L2 norm runs over `fields` in the order given (all
    /// fields when `None`), unpicked fields contribute empty rows.
    ///
    /// Panics when a picked field is out of range or picked twice (it would
    /// count twice in the norm).
    pub fn fill_from_dataset(
        &mut self,
        ds: &MultiFieldDataset,
        users: &[usize],
        fields: Option<&[usize]>,
        n_fields: usize,
    ) {
        self.reset(n_fields);
        let all: Vec<usize> = (0..n_fields).collect();
        let picks: &[usize] = fields.unwrap_or(&all);
        for (i, &k) in picks.iter().enumerate() {
            assert!(
                k < n_fields,
                "picked field {k} is out of range for {n_fields} fields"
            );
            assert!(!picks[..i].contains(&k), "field {k} is picked twice");
        }
        for &u in users {
            let r = self.rows;
            let mut sq = 0.0f32;
            for &k in picks {
                let (_, vs) = ds.user_field(u, k);
                sq += vs.iter().map(|v| v * v).sum::<f32>();
            }
            let inv_norm = if sq > 0.0 { 1.0 / sq.sqrt() } else { 0.0 };
            for k in 0..n_fields {
                let (id_row, val_row) = self.row_mut(k, r);
                if !picks.contains(&k) {
                    continue;
                }
                let (ix, vs) = ds.user_field(u, k);
                id_row.extend(ix.iter().map(|&i| u64::from(i)));
                val_row.extend(vs.iter().map(|&v| v * inv_norm));
            }
            self.rows += 1;
        }
    }
}

/// Splits the head output into `(μ, clamped log σ²)`.
pub(crate) fn split_stats_into(stats: &Matrix, mu: &mut Matrix, logvar: &mut Matrix) {
    let (batch, d) = (stats.rows(), stats.cols() / 2);
    mu.resize_zeroed(batch, d);
    logvar.resize_zeroed(batch, d);
    for r in 0..batch {
        let row = stats.row(r);
        mu.row_mut(r).copy_from_slice(&row[..d]);
        for (lv, &s) in logvar.row_mut(r).iter_mut().zip(row[d..].iter()) {
            *lv = s.clamp(-LOGVAR_CLAMP, LOGVAR_CLAMP);
        }
    }
}

impl Encoder {
    /// Number of input fields the encoder expects per request.
    pub fn n_fields(&self) -> usize {
        self.bags.len()
    }

    /// Latent dimensionality `D` of the served embedding.
    pub fn latent_dim(&self) -> usize {
        self.head.out_dim() / 2
    }

    /// Total features tracked by the input hash tables.
    pub fn input_vocab_len(&self) -> usize {
        self.bags.iter().map(EmbeddingBag::vocab_len).sum()
    }

    /// The frozen sparse front: every field's bag (unknown IDs skipped)
    /// summed into `x0`, then `epilogue(x0, bias)`, the first layer's bias
    /// and activation: [`Matrix::bias_tanh`] for the f32 forward,
    /// `fast_tanh` through [`Matrix::bias_then`] for the int8 one. Generic,
    /// so neither pays an indirect call. A serve batch (at most 32 × 128
    /// elements) stays under the epilogue's pool threshold and runs it
    /// serially.
    pub(crate) fn front_into(
        &self,
        input: &InputRows,
        field_out: &mut Matrix,
        x0: &mut Matrix,
        epilogue: impl FnOnce(&mut Matrix, &[f32]),
    ) {
        assert_eq!(input.n_fields, self.n_fields(), "field count mismatch");
        x0.resize_zeroed(input.rows, self.bias.len());
        for (k, bag) in self.bags.iter().enumerate() {
            let (ids, vals) = input.field(k);
            bag.forward_batch_frozen_into(ids, vals, field_out);
            x0.add_assign(field_out);
        }
        epilogue(x0, &self.bias);
    }

    /// The training front: like [`Encoder::front_into`] with
    /// [`Matrix::bias_tanh`], but inserting unseen IDs (drawing their
    /// initial rows from `rng`) and recording each field's per-row slot
    /// lists for the backward pass. Every bag accumulates directly into
    /// `x0`, so no per-field output temporary exists.
    pub(crate) fn front_train_into(
        &mut self,
        input: &InputRows,
        rng: &mut impl Rng,
        x0: &mut Matrix,
        slots: &mut Vec<Vec<Vec<u32>>>,
    ) {
        x0.resize_zeroed(input.rows, self.bias.len());
        slots.resize_with(self.bags.len(), Vec::new);
        slots.truncate(self.bags.len());
        let pool = fvae_pool::global();
        for (k, bag) in self.bags.iter_mut().enumerate() {
            // Serial ID insertion (RNG order preserved) + pooled row
            // accumulation — bit-identical to the serial path.
            let (ids, vals) = input.field(k);
            bag.accumulate_batch_sharded(ids, vals, rng, x0, &mut slots[k], pool);
        }
        x0.bias_tanh(&self.bias);
    }

    /// The dense rest of the forward: the extra MLP (its activations land in
    /// `acts`, which stays empty without one), then the head into `stats`.
    pub(crate) fn stats_into(&self, x0: &Matrix, acts: &mut Vec<Matrix>, stats: &mut Matrix) {
        let h = match &self.extra {
            Some(mlp) => {
                mlp.forward_cached_into(x0, acts);
                acts.last().expect("non-empty MLP")
            }
            None => {
                acts.clear();
                x0
            }
        };
        self.head.forward_into(h, stats);
    }

    /// Encodes a batch to `(μ, clamped log σ²)`, reusing `scratch` across
    /// calls.
    pub fn encode_into(
        &self,
        input: &InputRows,
        scratch: &mut EncoderScratch,
        mu: &mut Matrix,
        logvar: &mut Matrix,
    ) {
        self.front_into(input, &mut scratch.field_out, &mut scratch.x0, Matrix::bias_tanh);
        self.stats_into(&scratch.x0, &mut scratch.acts, &mut scratch.stats);
        split_stats_into(&scratch.stats, mu, logvar);
    }

    /// The served representation: the posterior mean `μ` only (log σ² lands
    /// in an internal scratch buffer).
    pub fn embed_into(&self, input: &InputRows, scratch: &mut EncoderScratch, mu: &mut Matrix) {
        let mut logvar = std::mem::take(&mut scratch.logvar);
        self.encode_into(input, scratch, mu, &mut logvar);
        scratch.logvar = logvar;
    }

    /// [`Fvae::embed_users`] with reusable buffers: fills `input` from the
    /// dataset and writes `μ` into `out`.
    pub fn embed_users_into(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        fields: Option<&[usize]>,
        input: &mut InputRows,
        scratch: &mut EncoderScratch,
        out: &mut Matrix,
    ) {
        input.fill_from_dataset(ds, users, fields, self.n_fields());
        self.embed_into(input, scratch, out);
    }
}

/// Moves the encoder half out of a trained model, dropping the decoder and
/// training state — the serving-side constructor.
impl From<Fvae> for Encoder {
    fn from(model: Fvae) -> Self {
        model.enc
    }
}

impl Fvae {
    /// Borrows this model's encoder, the `q(z|x)` half; clone it for an
    /// owned copy, or move it out of the model with `Encoder::from`.
    pub fn encoder(&self) -> &Encoder {
        &self.enc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FvaeConfig;
    use fvae_data::TopicModelConfig;

    fn tiny_ds() -> MultiFieldDataset {
        TopicModelConfig {
            n_users: 50,
            n_topics: 3,
            alpha: 0.2,
            fields: vec![
                fvae_data::FieldSpec::new("ch", 12, 3, 1.0),
                fvae_data::FieldSpec::new("tag", 30, 5, 1.0),
            ],
            pair_prob: 0.0,
            seed: 17,
        }
        .generate()
    }

    fn trained_model(ds: &MultiFieldDataset) -> Fvae {
        trained_model_with(ds, vec![12])
    }

    fn trained_model_with(ds: &MultiFieldDataset, extra: Vec<usize>) -> Fvae {
        let mut cfg = FvaeConfig::for_dataset(ds);
        cfg.latent_dim = 8;
        cfg.enc_hidden = 16;
        cfg.enc_extra_hidden = extra;
        cfg.dec_hidden = vec![16];
        cfg.batch_size = 16;
        let mut model = Fvae::new(cfg);
        let users: Vec<usize> = (0..40).collect();
        model.train_epochs(ds, &users, 1, |_, _| {});
        model
    }

    #[test]
    fn encoder_embeds_bit_identical_to_model() {
        let ds = tiny_ds();
        // Depth 1 and depth 2 extra MLPs: the second chains hidden layers.
        for extra in [vec![12], vec![12, 10]] {
            let model = trained_model_with(&ds, extra.clone());
            let enc = model.encoder();
            let users: Vec<usize> = (0..20).collect();
            for fields in [None, Some(&[0usize][..]), Some(&[1usize, 0][..])] {
                let offline = model.embed_users(&ds, &users, fields);
                let mut input = InputRows::default();
                let mut scratch = EncoderScratch::default();
                let mut mu = Matrix::default();
                enc.embed_users_into(&ds, &users, fields, &mut input, &mut scratch, &mut mu);
                assert_eq!(mu.shape(), offline.shape());
                for (a, b) in mu.as_slice().iter().zip(offline.as_slice()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "extra {extra:?} fields {fields:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn moved_encoder_matches_cloned_encoder() {
        let ds = tiny_ds();
        let model = trained_model(&ds);
        let cloned = model.encoder().clone();
        let users: Vec<usize> = (5..15).collect();
        let offline = model.embed_users(&ds, &users, None);
        let moved: Encoder = model.into();
        for enc in [&cloned, &moved] {
            let mut input = InputRows::default();
            let mut scratch = EncoderScratch::default();
            let mut mu = Matrix::default();
            enc.embed_users_into(&ds, &users, None, &mut input, &mut scratch, &mut mu);
            assert_eq!(mu.as_slice(), offline.as_slice());
        }
    }

    #[test]
    fn push_row_matches_dataset_fill() {
        // Serving receives raw rows over the wire; pushing the same slices
        // one user at a time must reproduce the dataset path bit-for-bit.
        let ds = tiny_ds();
        let model = trained_model(&ds);
        let enc = model.encoder();
        let users: Vec<usize> = (0..12).collect();
        let mut input = InputRows::default();
        let mut scratch = EncoderScratch::default();
        let mut expect = Matrix::default();
        enc.embed_users_into(&ds, &users, None, &mut input, &mut scratch, &mut expect);

        // Raw u64 copies of the same rows, as a client would send them.
        let raw: Vec<Vec<(Vec<u64>, Vec<f32>)>> = users
            .iter()
            .map(|&u| {
                (0..enc.n_fields())
                    .map(|k| {
                        let (ix, vs) = ds.user_field(u, k);
                        (ix.iter().map(|&i| u64::from(i)).collect(), vs.to_vec())
                    })
                    .collect()
            })
            .collect();
        input.reset(enc.n_fields());
        for row in &raw {
            input.push_row(|k| (row[k].0.as_slice(), row[k].1.as_slice()));
        }
        let mut mu = Matrix::default();
        enc.embed_into(&input, &mut scratch, &mut mu);
        for (a, b) in mu.as_slice().iter().zip(expect.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn scratch_reuse_across_varying_batch_sizes_is_stable() {
        let ds = tiny_ds();
        let model = trained_model(&ds);
        let enc = model.encoder();
        let mut input = InputRows::default();
        let mut scratch = EncoderScratch::default();
        let mut mu = Matrix::default();
        // Big batch first (warms capacity), then single rows must still
        // match the offline per-user embedding exactly.
        let all: Vec<usize> = (0..30).collect();
        enc.embed_users_into(&ds, &all, None, &mut input, &mut scratch, &mut mu);
        let offline = model.embed_users(&ds, &all, None);
        for &u in &[3usize, 17, 29] {
            enc.embed_users_into(&ds, &[u], None, &mut input, &mut scratch, &mut mu);
            assert_eq!(mu.shape(), (1, enc.latent_dim()));
            for (a, b) in mu.as_slice().iter().zip(offline.row(u)) {
                assert_eq!(a.to_bits(), b.to_bits(), "user {u} after scratch reuse");
            }
        }
    }

    #[test]
    fn logvar_is_clamped() {
        let stats = Matrix::full(2, 16, 100.0);
        let (mut mu, mut logvar) = (Matrix::default(), Matrix::default());
        split_stats_into(&stats, &mut mu, &mut logvar);
        assert_eq!(mu.shape(), (2, 8));
        assert!(logvar.as_slice().iter().all(|&v| v <= LOGVAR_CLAMP));
    }

    #[test]
    #[should_panic(expected = "field 0 is picked twice")]
    fn a_field_picked_twice_is_refused() {
        // Picked twice, it would count twice in the L2 norm.
        InputRows::default().fill_from_dataset(&tiny_ds(), &[0], Some(&[0, 0]), 2);
    }

    #[test]
    fn empty_rows_encode_like_featureless_users() {
        let ds = tiny_ds();
        let model = trained_model(&ds);
        let enc = model.encoder();
        let mut input = InputRows::default();
        input.reset(enc.n_fields());
        input.push_row(|_| (&[][..], &[][..]));
        let mut scratch = EncoderScratch::default();
        let (mut mu, mut logvar) = (Matrix::default(), Matrix::default());
        enc.encode_into(&input, &mut scratch, &mut mu, &mut logvar);
        assert_eq!(mu.shape(), (1, enc.latent_dim()));
        assert!(mu.is_finite() && logvar.is_finite());
        assert!(logvar.as_slice().iter().all(|&v| v.abs() <= LOGVAR_CLAMP));
    }
}
