//! Batched (sampled) softmax output layer (§IV-C2).
//!
//! The legacy softmax normalizes over every feature of a field — `O(J_k·D)`
//! per batch. The batched softmax instead normalizes only over the
//! *candidate set*: the features observed by at least one user in the batch
//! (optionally thinned further by feature sampling, §IV-C3). With power-law
//! feature popularity the candidate set is tiny relative to the vocabulary
//! (`N̄_b ≪ J`), which is where FVAE's orders-of-magnitude training speedup
//! comes from (Table V).
//!
//! The layer owns one weight row + bias per feature, keyed through the same
//! dynamic hash table as the input embeddings, so the output vocabulary also
//! grows on demand.

use fvae_pool::{ThreadPool, REDUCE_SHARDS};
use fvae_sparse::DynamicHashTable;
use fvae_tensor::dist::Gaussian;
use fvae_tensor::Matrix;
use rand::Rng;

use crate::sharded::RowGrads;

/// From this many candidates on, the logits `H · Wcᵀ` run through the
/// register-tiled [`Matrix::matmul_into`] on a transposed copy of the
/// candidate panel; below it, as per-element dots
/// ([`Matrix::matmul_transb_into`]). The tiled kernel's inner loop runs over
/// output columns and a handful of them cannot fill it: at 256 × 1024 × 7 it
/// takes 480–1050 µs against 90–110 µs as dots, at 256 × 128 × 180 it wins
/// 230 µs to 320–510 µs, and the two cross between 64 and 128 columns. Which
/// kernel runs follows the candidate count alone, never the thread count.
const TILED_MIN_CANDIDATES: usize = 64;

/// Cached state of one batched-softmax forward pass.
#[derive(Clone, Debug, Default)]
pub struct SoftmaxBatch {
    /// Softmax probabilities over the candidate set, `batch × C`.
    pub probs: Matrix,
    /// Weight-table slot of each candidate column.
    pub slots: Vec<u32>,
    /// The candidates' weight rows, gathered once per forward pass: `C × dim`
    /// for the backward GEMMs, and transposed (`dim × C`) for the tiled
    /// logits kernel.
    wc: Matrix,
    wc_t: Matrix,
    /// The candidates' biases, parallel to `slots`.
    bias: Vec<f32>,
}

/// Softmax output head over a dynamically growing feature vocabulary.
#[derive(Clone, Debug)]
pub struct SampledSoftmaxOutput {
    dim: usize,
    init_std: f32,
    table: DynamicHashTable,
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl SampledSoftmaxOutput {
    /// Creates a head consuming `dim`-dimensional hidden states.
    pub fn new(dim: usize, init_std: f32) -> Self {
        assert!(dim > 0, "hidden dimension must be positive");
        Self {
            dim,
            init_std,
            table: DynamicHashTable::new(),
            weights: Vec::new(),
            bias: Vec::new(),
        }
    }

    /// Hidden-state dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of features with materialized output weights.
    pub fn vocab_len(&self) -> usize {
        self.table.len()
    }

    /// Raw weight buffer (`vocab × dim`) for optimizers.
    pub fn weights_mut(&mut self) -> &mut Vec<f32> {
        &mut self.weights
    }

    /// Raw bias buffer for optimizers.
    pub fn bias_mut(&mut self) -> &mut Vec<f32> {
        &mut self.bias
    }

    /// The underlying ID → slot table.
    pub fn table(&self) -> &DynamicHashTable {
        &self.table
    }

    /// Weight row of a slot.
    pub fn weight_row(&self, slot: usize) -> &[f32] {
        &self.weights[slot * self.dim..(slot + 1) * self.dim]
    }

    /// Bias of a slot.
    pub fn bias_of(&self, slot: usize) -> f32 {
        self.bias[slot]
    }

    /// Inserts `id` (if new) and overwrites its weight row and bias — used
    /// by `Fvae::average_with`'s parameter averaging.
    pub fn set_row(&mut self, id: u64, row: &[f32], bias: f32, rng: &mut impl Rng) {
        assert_eq!(row.len(), self.dim, "row width mismatch");
        let slot = self.slot_or_insert(id, rng);
        self.weights[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(row);
        self.bias[slot] = bias;
    }

    fn slot_or_insert(&mut self, id: u64, rng: &mut impl Rng) -> usize {
        let dim = self.dim;
        let init_std = self.init_std;
        let weights = &mut self.weights;
        let bias = &mut self.bias;
        self.table.slot_or_insert(id, |_| {
            let mut gauss = Gaussian::new(0.0, init_std);
            let start = weights.len();
            weights.resize(start + dim, 0.0);
            gauss.fill(rng, &mut weights[start..]);
            bias.push(0.0);
        })
    }

    /// Logit of the feature at `slot` for hidden row `h`.
    #[inline]
    fn logit(&self, h: &[f32], slot: usize) -> f32 {
        let w = &self.weights[slot * self.dim..(slot + 1) * self.dim];
        fvae_tensor::ops::dot(h, w) + self.bias[slot]
    }

    /// Forward pass: softmax over `candidate_ids` for every hidden row.
    /// Unseen candidate IDs get freshly initialized weights.
    pub fn forward(
        &mut self,
        h: &Matrix,
        candidate_ids: &[u64],
        rng: &mut impl Rng,
    ) -> SoftmaxBatch {
        let mut out = SoftmaxBatch::default();
        self.forward_into(h, candidate_ids, rng, &mut out);
        out
    }

    /// [`SampledSoftmaxOutput::forward`] writing into a caller-owned batch
    /// cache whose probability matrix and slot list are reused across steps.
    ///
    /// Candidate insertion stays serial (it consumes the RNG, so its order is
    /// part of the determinism contract). The candidates' weight rows are then
    /// gathered into one contiguous panel kept in `out`, the logits are a
    /// single `H · Wcᵀ` GEMM (see [`TILED_MIN_CANDIDATES`]), and bias +
    /// softmax fan out across the global pool one output row per shard —
    /// bit-identical at every thread count.
    pub fn forward_into(
        &mut self,
        h: &Matrix,
        candidate_ids: &[u64],
        rng: &mut impl Rng,
        out: &mut SoftmaxBatch,
    ) {
        assert_eq!(h.cols(), self.dim, "hidden dim mismatch");
        assert!(!candidate_ids.is_empty(), "candidate set must be non-empty");
        out.slots.clear();
        for &id in candidate_ids {
            let slot = self.slot_or_insert(id, rng) as u32;
            out.slots.push(slot);
        }
        let SoftmaxBatch { probs, slots, wc, wc_t, bias } = out;
        let (rows, c, dim) = (h.rows(), slots.len(), self.dim);
        wc.resize_zeroed(c, dim);
        bias.clear();
        for (j, &slot) in slots.iter().enumerate() {
            wc.row_mut(j).copy_from_slice(self.weight_row(slot as usize));
            bias.push(self.bias[slot as usize]);
        }
        if c < TILED_MIN_CANDIDATES {
            h.matmul_transb_into(wc, probs);
        } else {
            wc.transpose_into(wc_t);
            h.matmul_into(wc_t, probs);
        }
        let bias: &[f32] = bias;
        fvae_pool::global().run_rows(probs.as_mut_slice(), rows, c, 1, |_, chunk| {
            for row in chunk.chunks_exact_mut(c) {
                for (o, &b) in row.iter_mut().zip(bias) {
                    *o += b;
                }
                fvae_tensor::ops::softmax_in_place(row);
            }
        });
    }

    /// Multinomial negative log-likelihood and its logit gradient.
    ///
    /// `targets[r]` lists `(candidate_column, value)` pairs for row `r`; the
    /// value is the multi-hot weight `F_{i,j}^k`. Returns the *summed* loss
    /// `Σ_i −Σ_j v_ij log π_ij` and `∂L/∂logits` (also summed — callers scale
    /// by `1/B` and the field weight `α_k` before [`Self::backward`]).
    pub fn multinomial_loss(
        batch: &SoftmaxBatch,
        targets: &[Vec<(u32, f32)>],
    ) -> (f32, Matrix) {
        let mut dlogits = Matrix::zeros(0, 0);
        let loss = Self::multinomial_loss_into(batch, targets, &mut dlogits);
        (loss, dlogits)
    }

    /// [`SampledSoftmaxOutput::multinomial_loss`] writing the logit gradient
    /// into a caller-owned buffer, reshaped in place. Runs on the global
    /// thread pool.
    pub fn multinomial_loss_into(
        batch: &SoftmaxBatch,
        targets: &[Vec<(u32, f32)>],
        dlogits: &mut Matrix,
    ) -> f32 {
        Self::multinomial_loss_into_with(batch, targets, dlogits, fvae_pool::global())
    }

    /// [`SampledSoftmaxOutput::multinomial_loss_into`] on an explicit pool.
    ///
    /// The batch is cut into [`REDUCE_SHARDS`] **fixed** row shards (the
    /// shard count never follows the thread count). Each shard accumulates
    /// its rows' loss into its own `f64` partial in serial row order, and the
    /// partials combine on the caller in fixed shard order — so the loss bits
    /// depend only on the batch, never on how many threads ran. `dlogits`
    /// rows are written by exactly one shard each.
    pub fn multinomial_loss_into_with(
        batch: &SoftmaxBatch,
        targets: &[Vec<(u32, f32)>],
        dlogits: &mut Matrix,
        pool: &ThreadPool,
    ) -> f32 {
        assert_eq!(batch.probs.rows(), targets.len(), "target batch mismatch");
        let c = batch.probs.cols();
        let rows = targets.len();
        dlogits.resize_zeroed(rows, c);
        let mut partials = [0.0f64; REDUCE_SHARDS];
        pool.run_rows_reduce(dlogits.as_mut_slice(), rows, c, &mut partials, |range, chunk, part| {
            for (r, drow) in range.zip(chunk.chunks_exact_mut(c)) {
                let row_targets = &targets[r];
                let probs = batch.probs.row(r);
                let n_i: f32 = row_targets.iter().map(|&(_, v)| v).sum();
                // d/dlogit_j of −Σ_t v_t log π_t = N_i·π_j − v_j
                for (d, &p) in drow.iter_mut().zip(probs.iter()) {
                    *d = n_i * p;
                }
                for &(col, v) in row_targets {
                    let col = col as usize;
                    debug_assert!(col < c, "target column out of candidate range");
                    *part -= (v as f64) * (probs[col].max(1e-12) as f64).ln();
                    drow[col] -= v;
                }
            }
        });
        // Fixed-order tree: shard partials always combine in slot order.
        partials.iter().sum::<f64>() as f32
    }

    /// Backward pass from logit gradients, as two GEMMs over the candidate
    /// panel `batch` carries from [`Self::forward_into`] and one column sum:
    /// `∂L/∂h = ∂logits · Wc`, `∂L/∂Wc = ∂logitsᵀ · H` written straight into
    /// `dw` (whose slot list is `batch.slots` — candidates are batch-unique),
    /// and `∂L/∂b` = the column sums of `∂logits` (`db_dense`, with its
    /// non-zero entries listed by slot in `db`). Both GEMMs shard output rows
    /// and replay the serial order, so the bits never follow the thread count.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_sharded_into(
        &self,
        h: &Matrix,
        batch: &SoftmaxBatch,
        dlogits: &Matrix,
        dh: &mut Matrix,
        dw: &mut RowGrads,
        db: &mut Vec<(usize, f32)>,
        db_dense: &mut Vec<f32>,
        pool: &ThreadPool,
    ) {
        assert_eq!(dlogits.shape(), batch.probs.shape(), "dlogits shape mismatch");
        assert_eq!(h.shape(), (dlogits.rows(), self.dim), "hidden state shape mismatch");
        assert_eq!(
            batch.wc.shape(),
            (batch.slots.len(), self.dim),
            "batch must come from this head's forward pass"
        );
        dlogits.matmul_into_with(&batch.wc, dh, pool);
        dw.fill_transa_product(&batch.slots, dlogits, h, pool);
        dlogits.col_sums_into(db_dense);
        db.clear();
        db.extend(
            batch
                .slots
                .iter()
                .zip(db_dense.iter())
                .filter(|&(_, &g)| g != 0.0)
                .map(|(&slot, &g)| (slot as usize, g)),
        );
    }

    /// Frozen logits of every hidden row over arbitrary feature IDs
    /// (evaluation / scoring): `rows × ids`, each element its own
    /// `dot(h_row, w) + b`. Each ID resolves to its slot once per call.
    /// Unknown IDs score 0 (an untrained feature is indistinguishable from
    /// an average one under ranking metrics). Rows fan out across the global
    /// pool; every element is computed alone, so the bits never follow the
    /// thread count. Callers wanting log-probabilities run
    /// [`fvae_tensor::ops::log_softmax_in_place`] on each row.
    pub fn frozen_logits(&self, h: &Matrix, ids: impl IntoIterator<Item = u64>) -> Matrix {
        assert_eq!(h.cols(), self.dim, "hidden dim mismatch");
        let slots: Vec<Option<usize>> = ids.into_iter().map(|id| self.table.slot_of(id)).collect();
        let c = slots.len();
        let mut out = Matrix::zeros(h.rows(), c);
        if c == 0 {
            return out;
        }
        fvae_pool::global().run_rows(out.as_mut_slice(), h.rows(), c, 1, |range, chunk| {
            for (r, row) in range.zip(chunk.chunks_exact_mut(c)) {
                for (o, &slot) in row.iter_mut().zip(&slots) {
                    if let Some(slot) = slot {
                        *o = self.logit(h.row(r), slot);
                    }
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::oracle::{assert_close, assert_panel_matches, assert_same_bits, MapGrads};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    type BiasGrads = Vec<(usize, f32)>;

    impl SampledSoftmaxOutput {
        /// The per-(row, candidate) axpy kernel the panel GEMMs replaced,
        /// scattering into a hash map: the differential oracle.
        fn backward(&self, h: &Matrix, batch: &SoftmaxBatch, dlogits: &Matrix) -> (Matrix, MapGrads, BiasGrads) {
            assert_eq!(dlogits.shape(), batch.probs.shape(), "dlogits shape mismatch");
            let mut dh = Matrix::zeros(h.rows(), self.dim);
            let mut dw = MapGrads::default();
            let mut db_dense = vec![0.0f32; batch.slots.len()];
            for r in 0..h.rows() {
                let dh_row = dh.row_mut(r);
                for ((&slot, &d), acc) in
                    batch.slots.iter().zip(dlogits.row(r)).zip(db_dense.iter_mut())
                {
                    if d == 0.0 {
                        continue;
                    }
                    let slot = slot as usize;
                    fvae_tensor::ops::axpy(d, self.weight_row(slot), dh_row);
                    let g = dw.entry(slot).or_insert_with(|| vec![0.0; self.dim]);
                    fvae_tensor::ops::axpy(d, h.row(r), g);
                    *acc += d;
                }
            }
            let db = batch
                .slots
                .iter()
                .zip(&db_dense)
                .filter(|&(_, &g)| g != 0.0)
                .map(|(&slot, &g)| (slot as usize, g))
                .collect();
            (dh, dw, db)
        }

        fn backward_panel(
            &self,
            h: &Matrix,
            batch: &SoftmaxBatch,
            dlogits: &Matrix,
            threads: usize,
        ) -> (Matrix, RowGrads, BiasGrads) {
            let (mut dh, mut dw, mut db, mut db_dense) =
                (Matrix::default(), RowGrads::default(), Vec::new(), Vec::new());
            let pool = ThreadPool::new(threads);
            self.backward_sharded_into(h, batch, dlogits, &mut dh, &mut dw, &mut db, &mut db_dense, &pool);
            (dh, dw, db)
        }
    }

    fn setup() -> (SampledSoftmaxOutput, Matrix, Vec<u64>, StdRng) {
        let mut rng = StdRng::seed_from_u64(11);
        let head = SampledSoftmaxOutput::new(4, 0.3);
        let h = Matrix::glorot_uniform(3, 4, &mut rng);
        let ids = vec![100u64, 200, 300, 400, 500];
        (head, h, ids, rng)
    }

    #[test]
    fn forward_probabilities_sum_to_one() {
        let (mut head, h, ids, mut rng) = setup();
        let batch = head.forward(&h, &ids, &mut rng);
        assert_eq!(batch.probs.shape(), (3, 5));
        for r in 0..3 {
            let s: f32 = batch.probs.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert_eq!(head.vocab_len(), 5);
    }

    #[test]
    fn candidate_restriction_matches_full_softmax_on_subset() {
        // When the candidate set IS the full vocabulary, batched softmax must
        // equal the legacy softmax (they only differ by restriction).
        let (mut head, h, ids, mut rng) = setup();
        head.forward(&h, &ids, &mut rng); // materialize weights
        let batch = head.forward(&h, &ids, &mut rng);
        let mut log_probs = head.frozen_logits(&h, ids.iter().copied());
        for r in 0..3 {
            fvae_tensor::ops::log_softmax_in_place(log_probs.row_mut(r));
        }
        for r in 0..3 {
            for c in 0..5 {
                assert!(
                    (batch.probs.get(r, c).ln() - log_probs.get(r, c)).abs() < 1e-4,
                    "row {r} col {c}"
                );
            }
        }
    }

    #[test]
    fn loss_gradient_matches_finite_differences() {
        let (mut head, h, ids, mut rng) = setup();
        let targets: Vec<Vec<(u32, f32)>> =
            vec![vec![(0, 1.0), (2, 2.0)], vec![(1, 1.0)], vec![(4, 1.0), (3, 1.0)]];
        head.forward(&h, &ids, &mut rng); // materialize weights

        let loss_fn = |head: &SampledSoftmaxOutput, h: &Matrix| -> f32 {
            // Recompute probs frozen, then the multinomial loss.
            let slots: Vec<u32> =
                ids.iter().map(|&id| head.table.slot_of(id).expect("known") as u32).collect();
            let mut probs = Matrix::zeros(h.rows(), slots.len());
            for r in 0..h.rows() {
                let row = probs.row_mut(r);
                for (o, &slot) in row.iter_mut().zip(slots.iter()) {
                    *o = head.logit(h.row(r), slot as usize);
                }
                fvae_tensor::ops::softmax_in_place(row);
            }
            let batch = SoftmaxBatch { probs, slots, ..Default::default() };
            SampledSoftmaxOutput::multinomial_loss(&batch, &targets).0
        };

        let batch = head.forward(&h, &ids, &mut rng);
        let (loss, dlogits) = SampledSoftmaxOutput::multinomial_loss(&batch, &targets);
        assert!(loss > 0.0);
        let (dh, dw, db) = head.backward_panel(&h, &batch, &dlogits, 2);

        let eps = 1e-2;
        // Hidden-state gradient.
        let mut hp = h.clone();
        for idx in [0usize, 5, 11] {
            let orig = hp.as_slice()[idx];
            hp.as_mut_slice()[idx] = orig + eps;
            let hi = loss_fn(&head, &hp);
            hp.as_mut_slice()[idx] = orig - eps;
            let lo = loss_fn(&head, &hp);
            hp.as_mut_slice()[idx] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - dh.as_slice()[idx]).abs() < 5e-2 * numeric.abs().max(1.0),
                "dh[{idx}]: {} vs {numeric}",
                dh.as_slice()[idx]
            );
        }
        // Weight gradient for a touched slot.
        let (slot, grad) = dw.iter().next().expect("some weight gradient");
        for (d, &analytic) in grad.iter().enumerate() {
            let idx = slot * 4 + d;
            let orig = head.weights[idx];
            head.weights[idx] = orig + eps;
            let hi = loss_fn(&head, &h);
            head.weights[idx] = orig - eps;
            let lo = loss_fn(&head, &h);
            head.weights[idx] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 5e-2 * numeric.abs().max(1.0),
                "dw[{slot}][{d}]: {analytic} vs {numeric}"
            );
        }
        // Bias gradient.
        let &(slot, g) = db.first().expect("some bias gradient");
        let orig = head.bias[slot];
        head.bias[slot] = orig + eps;
        let hi = loss_fn(&head, &h);
        head.bias[slot] = orig - eps;
        let lo = loss_fn(&head, &h);
        head.bias[slot] = orig;
        let numeric = (hi - lo) / (2.0 * eps);
        assert!((numeric - g).abs() < 5e-2 * numeric.abs().max(1.0), "db[{slot}]: {g} vs {numeric}");
    }

    #[test]
    fn loss_matches_serial_bits_at_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut head = SampledSoftmaxOutput::new(6, 0.3);
        let h = Matrix::glorot_uniform(9, 6, &mut rng);
        let ids: Vec<u64> = (0..17).map(|i| 1000 + i * 7).collect();
        let batch = head.forward(&h, &ids, &mut rng);
        let targets: Vec<Vec<(u32, f32)>> = (0..9)
            .map(|r| (0..(r % 3 + 1)).map(|j| (((r * 5 + j * 3) % 17) as u32, 1.0 + j as f32)).collect())
            .collect();

        let mut dlogits_ref = Matrix::default();
        let serial_pool = ThreadPool::new(1);
        let loss_ref = SampledSoftmaxOutput::multinomial_loss_into_with(
            &batch, &targets, &mut dlogits_ref, &serial_pool,
        );
        for threads in [2usize, 4, 7] {
            let pool = ThreadPool::new(threads);
            let mut dlogits = Matrix::full(2, 3, 9.0);
            let loss =
                SampledSoftmaxOutput::multinomial_loss_into_with(&batch, &targets, &mut dlogits, &pool);
            assert_eq!(loss.to_bits(), loss_ref.to_bits(), "loss differs at {threads} threads");
            for (a, b) in dlogits.as_slice().iter().zip(dlogits_ref.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "dlogits differ at {threads} threads");
            }
        }
    }

    proptest! {
        /// The panel GEMMs against the per-(row, candidate) oracle over
        /// random shapes — a single candidate, candidate counts on both sides
        /// of `TILED_MIN_CANDIDATES`, widths off the SIMD lane count, odd
        /// batches, rows without a target — and the same bits at every
        /// thread count. Forward probabilities are checked against the
        /// frozen per-element logits on the way.
        #[test]
        fn panel_head_matches_the_map_oracle_at_any_thread_count(
            rows in 1usize..20,
            dim in 1usize..21,
            c in 1usize..100,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut head = SampledSoftmaxOutput::new(dim, 0.3);
            let h = Matrix::from_fn(rows, dim, |_, _| rng.random_range(-1.0f32..1.0));
            let ids: Vec<u64> = (0..c as u64).map(|i| 10 + i * 3).collect();
            head.forward(&h, &ids, &mut rng);
            for b in head.bias_mut() {
                *b = rng.random_range(-0.5f32..0.5);
            }
            let batch = head.forward(&h, &ids, &mut rng);
            let mut frozen = head.frozen_logits(&h, ids.iter().copied());
            for r in 0..rows {
                fvae_tensor::ops::log_softmax_in_place(frozen.row_mut(r));
            }
            for (p, lp) in batch.probs.as_slice().iter().zip(frozen.as_slice()) {
                prop_assert!((p - lp.exp()).abs() <= 1e-5, "prob {p} vs frozen {}", lp.exp());
            }
            let targets: Vec<Vec<(u32, f32)>> = (0..rows)
                .map(|_| {
                    let n = rng.random_range(0..4usize);
                    (0..n).map(|_| (rng.random_range(0..c as u32), rng.random_range(0.5f32..2.0))).collect()
                })
                .collect();
            let (_, dlogits) = SampledSoftmaxOutput::multinomial_loss(&batch, &targets);

            let (dh_ref, dw_ref, db_ref) = head.backward(&h, &batch, &dlogits);
            let (dh, dw, db) = head.backward_panel(&h, &batch, &dlogits, 1);
            assert_close(dh.as_slice(), dh_ref.as_slice(), "dh");
            prop_assert_eq!(dw.slots(), batch.slots.as_slice());
            assert_panel_matches(&dw, &dw_ref);
            prop_assert_eq!(db.len(), db_ref.len());
            for (&(slot, g), &(slot_ref, g_ref)) in db.iter().zip(&db_ref) {
                prop_assert_eq!(slot, slot_ref);
                assert_close(&[g], &[g_ref], "db");
            }
            for threads in [2usize, 4, 7] {
                let (dh_t, dw_t, db_t) = head.backward_panel(&h, &batch, &dlogits, threads);
                prop_assert_eq!(dh_t.as_slice(), dh.as_slice());
                assert_same_bits(&dw, &dw_t, "head backward across thread counts");
                prop_assert_eq!(&db_t, &db);
            }
        }
    }

    #[test]
    fn unknown_ids_score_zero() {
        let (mut head, h, ids, mut rng) = setup();
        head.forward(&h, &ids, &mut rng);
        let scores = head.frozen_logits(&h, [100, 123456]);
        assert_eq!(scores.shape(), (3, 2));
        for r in 0..3 {
            assert_eq!(scores.get(r, 0), head.logit(h.row(r), head.table.slot_of(100).unwrap()));
            assert_eq!(scores.get(r, 1), 0.0);
        }
    }

    #[test]
    fn repeated_forward_does_not_regrow_vocab() {
        let (mut head, h, ids, mut rng) = setup();
        head.forward(&h, &ids, &mut rng);
        let before = head.vocab_len();
        head.forward(&h, &ids, &mut rng);
        assert_eq!(head.vocab_len(), before);
    }
}
