//! Sparse embedding-bag input layer over a dynamic hash table (§IV-C1).
//!
//! For a user whose field holds feature IDs `{id_1, …, id_n}` with weights
//! `{v_1, …, v_n}`, the layer output is `Σ v_j · E[slot(id_j)]` — exactly the
//! product of the multi-hot row with a `J × D` weight matrix, but touching
//! only the `n ≪ J` rows actually present. New feature IDs get a freshly
//! initialized row on first sight ("randomly initialized and pushed into the
//! hash table"), so the model tracks a growing vocabulary without rebuilds.

use fvae_pool::ThreadPool;
use fvae_sparse::DynamicHashTable;
use fvae_tensor::dist::Gaussian;
use fvae_tensor::Matrix;
use rand::Rng;

use crate::sharded::RowGrads;

/// Embedding bag with dynamically growing vocabulary.
#[derive(Clone, Debug)]
pub struct EmbeddingBag {
    dim: usize,
    init_std: f32,
    table: DynamicHashTable,
    weights: Vec<f32>,
}

impl EmbeddingBag {
    /// Creates an empty bag producing `dim`-dimensional outputs. New rows are
    /// initialized `N(0, init_std²)`.
    pub fn new(dim: usize, init_std: f32) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Self { dim, init_std, table: DynamicHashTable::new(), weights: Vec::new() }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of feature IDs seen so far.
    pub fn vocab_len(&self) -> usize {
        self.table.len()
    }

    /// The underlying ID → slot table.
    pub fn table(&self) -> &DynamicHashTable {
        &self.table
    }

    /// Raw weight buffer (`vocab_len × dim`, row-major) for optimizers.
    pub fn weights_mut(&mut self) -> &mut Vec<f32> {
        &mut self.weights
    }

    /// Raw weight buffer.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Returns the slot for `id`, growing the table and weight buffer when
    /// the ID is new.
    pub fn slot_or_insert(&mut self, id: u64, rng: &mut impl Rng) -> usize {
        let dim = self.dim;
        let init_std = self.init_std;
        let weights = &mut self.weights;
        self.table.slot_or_insert(id, |_slot| {
            let mut gauss = Gaussian::new(0.0, init_std);
            let start = weights.len();
            weights.resize(start + dim, 0.0);
            gauss.fill(rng, &mut weights[start..]);
        })
    }

    /// Embedding row for a slot.
    #[inline]
    pub fn row(&self, slot: usize) -> &[f32] {
        &self.weights[slot * self.dim..(slot + 1) * self.dim]
    }

    /// Inserts `id` (if new) and overwrites its embedding row — used by
    /// `Fvae::average_with`'s parameter averaging.
    pub fn set_row(&mut self, id: u64, row: &[f32], rng: &mut impl Rng) {
        assert_eq!(row.len(), self.dim, "row width mismatch");
        let slot = self.slot_or_insert(id, rng);
        self.weights[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(row);
    }

    /// Forward pass over a batch of sparse rows, inserting unseen IDs.
    ///
    /// Returns the pooled `batch × dim` output and, per row, the slot of each
    /// input ID (parallel to the input order) for the backward pass.
    pub fn forward_batch(
        &mut self,
        rows: &[(&[u64], &[f32])],
        rng: &mut impl Rng,
    ) -> (Matrix, Vec<Vec<u32>>) {
        let mut out = Matrix::zeros(rows.len(), self.dim);
        let mut all_slots = Vec::with_capacity(rows.len());
        self.accumulate_batch_into(rows.iter().copied(), rng, &mut out, &mut all_slots);
        (out, all_slots)
    }

    /// Batch forward that *accumulates* into `out` (which must already be
    /// `batch × dim`) instead of overwriting it. Letting callers sum several
    /// fields' bags into one pre-zeroed buffer removes both the per-field
    /// output temporary and the per-row slot-list allocations: `slots_out` is
    /// reshaped in place, reusing its nested `Vec` capacity across steps.
    pub fn accumulate_batch_into<'a>(
        &mut self,
        rows: impl Iterator<Item = (&'a [u64], &'a [f32])>,
        rng: &mut impl Rng,
        out: &mut Matrix,
        slots_out: &mut Vec<Vec<u32>>,
    ) {
        assert_eq!(out.cols(), self.dim, "output width must equal the embedding dimension");
        let mut n = 0;
        for (r, (ids, vals)) in rows.enumerate() {
            assert!(r < out.rows(), "more input rows than output rows");
            assert_eq!(ids.len(), vals.len(), "ids and values must be parallel");
            if slots_out.len() <= r {
                slots_out.push(Vec::new());
            }
            slots_out[r].clear();
            for (&id, &v) in ids.iter().zip(vals.iter()) {
                let slot = self.slot_or_insert(id, rng);
                slots_out[r].push(slot as u32);
                let emb = &self.weights[slot * self.dim..(slot + 1) * self.dim];
                let out_row = out.row_mut(r);
                for (o, &e) in out_row.iter_mut().zip(emb.iter()) {
                    *o += v * e;
                }
            }
            n = r + 1;
        }
        assert_eq!(n, out.rows(), "fewer input rows than output rows");
        slots_out.truncate(n);
    }

    /// Pooled variant of [`EmbeddingBag::accumulate_batch_into`] in two
    /// phases: a **serial** insertion phase walks IDs in row order (the only
    /// RNG-consuming part, so the RNG stream matches the serial path exactly),
    /// then the weighted pooling fans out across `pool`. Each output row is
    /// written by exactly one shard and per-row accumulation order matches
    /// the serial kernel, so the result is bit-identical at every thread
    /// count.
    pub fn accumulate_batch_sharded(
        &mut self,
        ids: &[Vec<u64>],
        vals: &[Vec<f32>],
        rng: &mut impl Rng,
        out: &mut Matrix,
        slots_out: &mut Vec<Vec<u32>>,
        pool: &ThreadPool,
    ) {
        assert_eq!(ids.len(), vals.len(), "ids and values must be parallel");
        assert_eq!(ids.len(), out.rows(), "batch size mismatch");
        assert_eq!(out.cols(), self.dim, "output width must equal the embedding dimension");
        // Phase 1 (serial): grow the table, recording slots in input order.
        for (r, (row_ids, row_vals)) in ids.iter().zip(vals.iter()).enumerate() {
            assert_eq!(row_ids.len(), row_vals.len(), "ids and values must be parallel");
            if slots_out.len() <= r {
                slots_out.push(Vec::new());
            }
            slots_out[r].clear();
            for &id in row_ids {
                let slot = self.slot_or_insert(id, rng);
                slots_out[r].push(slot as u32);
            }
        }
        slots_out.truncate(ids.len());
        // Phase 2 (pooled): the table and weights are frozen for the
        // duration, so shards only read shared state and write disjoint
        // output rows.
        let dim = self.dim;
        let slots: &[Vec<u32>] = slots_out;
        pool.run_rows(out.as_mut_slice(), ids.len(), dim, 1, |range, chunk| {
            for (r, out_row) in range.zip(chunk.chunks_exact_mut(dim)) {
                for (&slot, &v) in slots[r].iter().zip(vals[r].iter()) {
                    let emb = self.row(slot as usize);
                    for (o, &e) in out_row.iter_mut().zip(emb.iter()) {
                        *o += v * e;
                    }
                }
            }
        });
    }

    /// Forward pass that never inserts; unknown IDs contribute nothing —
    /// the paper's offline embedding inference. Writes the `batch × dim`
    /// output into a caller-owned matrix (reshaped in place, zero-filled),
    /// taking the batch as parallel `Vec` slices so a serving loop hands its
    /// reusable nested input buffers straight in: the steady-state forward
    /// allocates nothing.
    ///
    /// Lookup is read-only (`slot_of` takes `&self`), so rows pool across the
    /// global thread pool; each shard writes its own disjoint output rows,
    /// accumulating each row's known IDs in input order, so the output is
    /// bit-identical at every thread count.
    pub fn forward_batch_frozen_into(&self, ids: &[Vec<u64>], vals: &[Vec<f32>], out: &mut Matrix) {
        assert_eq!(ids.len(), vals.len(), "ids and values must be parallel");
        let dim = self.dim;
        out.resize_zeroed(ids.len(), dim);
        fvae_pool::global().run_rows(out.as_mut_slice(), ids.len(), dim, 1, |range, chunk| {
            for (r, out_row) in range.zip(chunk.chunks_exact_mut(dim)) {
                for (&id, &v) in ids[r].iter().zip(vals[r].iter()) {
                    if let Some(slot) = self.table.slot_of(id) {
                        for (o, &e) in out_row.iter_mut().zip(self.row(slot)) {
                            *o += v * e;
                        }
                    }
                }
            }
        });
    }

    /// Backward pass: fills `grads` with `∂L/∂E[slot] = Σ v · ∂L/∂out[r]`
    /// for every slot the batch touched.
    ///
    /// `rows_slots` are the slot lists recorded by the forward pass and
    /// `rows_vals` the input values. Rows from different samples can hit the
    /// same slot; [`RowGrads`] sums them by transposed index, one pool shard
    /// per gradient row in serial batch-row order, so the bits depend only
    /// on the batch, never on how many threads ran.
    pub fn backward_sharded_into(
        &self,
        rows_slots: &[Vec<u32>],
        rows_vals: &[Vec<f32>],
        dy: &Matrix,
        grads: &mut RowGrads,
        pool: &ThreadPool,
    ) {
        assert_eq!(dy.cols(), self.dim, "gradient width mismatch");
        grads.scatter_add(rows_slots, rows_vals, dy, pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::oracle::{assert_panel_matches, assert_same_bits, MapGrads};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    impl EmbeddingBag {
        /// The per-(row, feature) hash-map scatter the panel kernel
        /// replaced: the differential oracle.
        fn backward(&self, rows_slots: &[Vec<u32>], rows_vals: &[Vec<f32>], dy: &Matrix) -> MapGrads {
            assert_eq!(rows_slots.len(), dy.rows(), "batch size mismatch");
            let mut grads = MapGrads::default();
            for (r, (slots, vals)) in rows_slots.iter().zip(rows_vals).enumerate() {
                let dy_row = dy.row(r);
                for (&slot, &v) in slots.iter().zip(vals.iter()) {
                    let g = grads.entry(slot as usize).or_insert_with(|| vec![0.0; self.dim]);
                    for (gi, &d) in g.iter_mut().zip(dy_row.iter()) {
                        *gi += v * d;
                    }
                }
            }
            grads
        }

        fn backward_panel(
            &self,
            rows_slots: &[Vec<u32>],
            rows_vals: &[Vec<f32>],
            dy: &Matrix,
            threads: usize,
        ) -> RowGrads {
            let mut grads = RowGrads::default();
            self.backward_sharded_into(rows_slots, rows_vals, dy, &mut grads, &ThreadPool::new(threads));
            grads
        }
    }

    #[test]
    fn forward_pools_weighted_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bag = EmbeddingBag::new(3, 0.1);
        let ids = [7u64, 9];
        let vals = [2.0f32, 1.0];
        let (out, slots) = bag.forward_batch(&[(&ids, &vals)], &mut rng);
        assert_eq!(bag.vocab_len(), 2);
        assert_eq!(slots, vec![vec![0, 1]]);
        let expect: Vec<f32> = (0..3)
            .map(|d| 2.0 * bag.row(0)[d] + bag.row(1)[d])
            .collect();
        for (o, e) in out.row(0).iter().zip(expect.iter()) {
            assert!((o - e).abs() < 1e-6);
        }
    }

    #[test]
    fn repeated_ids_reuse_slots() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut bag = EmbeddingBag::new(2, 0.1);
        let ids = [5u64, 5];
        let vals = [1.0f32, 1.0];
        let (out, _) = bag.forward_batch(&[(&ids, &vals)], &mut rng);
        assert_eq!(bag.vocab_len(), 1);
        for (o, &w) in out.row(0).iter().zip(bag.row(0).iter()) {
            assert!((o - 2.0 * w).abs() < 1e-6);
        }
    }

    #[test]
    fn frozen_forward_skips_unknown_ids() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut bag = EmbeddingBag::new(2, 0.1);
        let known = [1u64];
        let ones = [1.0f32];
        bag.forward_batch(&[(&known, &ones)], &mut rng);
        let mut out = Matrix::default();
        bag.forward_batch_frozen_into(&[vec![1, 999]], &[vec![1.0, 1.0]], &mut out);
        for (o, &w) in out.row(0).iter().zip(bag.row(0).iter()) {
            assert!((o - w).abs() < 1e-6, "unknown id must contribute nothing");
        }
        assert_eq!(bag.vocab_len(), 1, "frozen forward must not grow the vocab");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut bag = EmbeddingBag::new(3, 0.5);
        let ids_a = [10u64, 20];
        let vals_a = [1.5f32, -0.5];
        let ids_b = [20u64];
        let vals_b = [2.0f32];
        let rows: Vec<(&[u64], &[f32])> = vec![(&ids_a, &vals_a), (&ids_b, &vals_b)];
        let (out, slots) = bag.forward_batch(&rows, &mut rng);
        // Loss = Σ out² → dL/dout = 2·out.
        let dy = out.map(|v| 2.0 * v);
        let ids = vec![ids_a.to_vec(), ids_b.to_vec()];
        let vals = vec![vals_a.to_vec(), vals_b.to_vec()];
        let grads = bag.backward_panel(&slots, &vals, &dy, 2);
        let loss = |bag: &EmbeddingBag| -> f32 {
            let mut out = Matrix::default();
            bag.forward_batch_frozen_into(&ids, &vals, &mut out);
            out.as_slice().iter().map(|v| v * v).sum()
        };
        assert_panel_matches(&grads, &bag.backward(&slots, &vals, &dy));

        let eps = 1e-3;
        for (slot, grad) in grads.iter() {
            for (d, &analytic) in grad.iter().enumerate() {
                let idx = slot * 3 + d;
                let orig = bag.weights[idx];
                bag.weights[idx] = orig + eps;
                let hi = loss(&bag);
                bag.weights[idx] = orig - eps;
                let lo = loss(&bag);
                bag.weights[idx] = orig;
                let numeric = (hi - lo) / (2.0 * eps);
                assert!(
                    (numeric - analytic).abs() < 2e-2 * numeric.abs().max(1.0),
                    "slot {slot} dim {d}: {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn sharded_forward_and_backward_match_serial_bits() {
        let pool = ThreadPool::new(4);
        let batch = 13;
        let dim = 5;
        let ids: Vec<Vec<u64>> =
            (0..batch).map(|r| (0..(r % 4 + 1)).map(|j| (r as u64 * 3 + j as u64) % 9).collect()).collect();
        let vals: Vec<Vec<f32>> =
            ids.iter().enumerate().map(|(r, row)| row.iter().map(|&id| 0.25 * (id as f32) - 0.1 * r as f32).collect()).collect();

        // Serial reference.
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut bag_a = EmbeddingBag::new(dim, 0.3);
        let mut out_a = Matrix::zeros(batch, dim);
        let mut slots_a = Vec::new();
        bag_a.accumulate_batch_into(
            ids.iter().zip(vals.iter()).map(|(i, v)| (i.as_slice(), v.as_slice())),
            &mut rng_a,
            &mut out_a,
            &mut slots_a,
        );

        // Pooled two-phase path.
        let mut rng_b = StdRng::seed_from_u64(11);
        let mut bag_b = EmbeddingBag::new(dim, 0.3);
        let mut out_b = Matrix::zeros(batch, dim);
        let mut slots_b = Vec::new();
        bag_b.accumulate_batch_sharded(&ids, &vals, &mut rng_b, &mut out_b, &mut slots_b, &pool);

        assert_eq!(slots_a, slots_b);
        assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>(), "RNG streams must stay in lockstep");
        for (a, b) in out_a.as_slice().iter().zip(out_b.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // The backward panel carries the same bits at 1 and 4 threads.
        let dy = Matrix::from_fn(batch, dim, |r, c| (r as f32 - 2.0) * 0.5 + c as f32 * 0.125);
        let g1 = bag_a.backward_panel(&slots_a, &vals, &dy, 1);
        let g4 = bag_b.backward_panel(&slots_b, &vals, &dy, 4);
        assert_same_bits(&g1, &g4, "bag backward at 1 vs 4 threads");
    }

    #[test]
    fn gradient_accumulates_across_rows_sharing_a_feature() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut bag = EmbeddingBag::new(1, 0.1);
        let ids = [1u64];
        let ones = [1.0f32];
        let rows: Vec<(&[u64], &[f32])> = vec![(&ids, &ones), (&ids, &ones)];
        let (_, slots) = bag.forward_batch(&rows, &mut rng);
        let dy = Matrix::from_vec(2, 1, vec![1.0, 3.0]);
        let grads = bag.backward_panel(&slots, &[ones.to_vec(), ones.to_vec()], &dy, 1);
        assert_eq!(grads.slots(), &[0]);
        assert!((grads.rows().get(0, 0) - 4.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "output width must equal the embedding dimension")]
    fn accumulate_refuses_an_output_of_the_wrong_width() {
        let (ids, vals) = ([1u64], [1.0f32]);
        let mut out = Matrix::zeros(1, 2);
        EmbeddingBag::new(3, 0.1).accumulate_batch_into(
            std::iter::once((&ids[..], &vals[..])),
            &mut StdRng::seed_from_u64(6),
            &mut out,
            &mut Vec::new(),
        );
    }

    #[test]
    #[should_panic(expected = "output width must equal the embedding dimension")]
    fn sharded_accumulate_refuses_an_output_of_the_wrong_width() {
        let mut out = Matrix::zeros(1, 4);
        EmbeddingBag::new(3, 0.1).accumulate_batch_sharded(
            &[vec![1]],
            &[vec![1.0]],
            &mut StdRng::seed_from_u64(6),
            &mut out,
            &mut Vec::new(),
            &ThreadPool::new(1),
        );
    }

    proptest! {
        /// The panel kernel against the hash-map oracle over random shapes:
        /// widths off the SIMD lane count, odd batches, empty rows, features
        /// repeated inside a row (tiny vocabularies), and a batch that never
        /// mentions the field (`max_per_row == 0`) — and the same bits at
        /// every thread count.
        #[test]
        fn panel_backward_matches_the_map_oracle_at_any_thread_count(
            batch in 1usize..24,
            dim in 1usize..21,
            vocab in 1u64..12,
            max_per_row in 0usize..6,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bag = EmbeddingBag::new(dim, 0.3);
            let ids: Vec<Vec<u64>> = (0..batch)
                .map(|_| {
                    let n = rng.random_range(0..=max_per_row);
                    (0..n).map(|_| rng.random_range(0..vocab)).collect()
                })
                .collect();
            let vals: Vec<Vec<f32>> =
                ids.iter().map(|r| r.iter().map(|_| rng.random_range(-2.0f32..2.0)).collect()).collect();
            let mut out = Matrix::zeros(batch, dim);
            let mut slots = Vec::new();
            bag.accumulate_batch_sharded(&ids, &vals, &mut rng, &mut out, &mut slots, &ThreadPool::new(1));
            let dy = Matrix::from_fn(batch, dim, |_, _| rng.random_range(-1.0f32..1.0));

            let serial = bag.backward_panel(&slots, &vals, &dy, 1);
            assert_panel_matches(&serial, &bag.backward(&slots, &vals, &dy));
            prop_assert_eq!(serial.rows().shape(), (serial.len(), dim));
            for threads in [2usize, 4, 7] {
                let pooled = bag.backward_panel(&slots, &vals, &dy, threads);
                assert_same_bits(&serial, &pooled, "bag backward across thread counts");
            }
        }
    }
}
