//! Row-panel sparse gradients.
//!
//! The gradient of a sparse table (embedding bag, batched-softmax head) for
//! one batch is a **row panel**: the batch's unique slots plus one contiguous
//! `n × dim` matrix whose row `i` is the gradient of slot `slots[i]`.
//! [`RowGrads`] is that panel, and it is the only sparse-gradient
//! representation of the train step: the embedding-bag backward fills it by
//! transposed index ([`RowGrads::scatter_add`]), the softmax head writes its
//! `∂logitsᵀ · H` GEMM straight into it, and [`Adam::step_rows`] consumes it.
//!
//! Thread-count invariance comes from output-disjoint sharding alone: every
//! panel row is produced, and later applied, by exactly one pool shard that
//! replays the serial summation order, so there are no per-shard partials and
//! nothing to merge. The panel keeps each slot **at most once** — the
//! invariant the pooled optimizer step relies on to hand disjoint parameter
//! rows to its shards — and every way of filling it enforces that.
//!
//! Buffers survive across steps; [`RowGrads::allocs`] counts the fills that
//! had to grow one, so a steady-state training loop can assert it stays flat.
//!
//! [`Adam::step_rows`]: crate::Adam::step_rows

use fvae_pool::ThreadPool;
use fvae_tensor::Matrix;

/// Sparse gradient of one table for one batch: unique slots and their
/// gradient rows, row `i` belonging to slot `slots()[i]`.
#[derive(Debug, Default)]
pub struct RowGrads {
    slots: Vec<u32>,
    rows: Matrix,
    /// Slot → panel row + 1 (0 = not in the panel). At most 4 bytes per
    /// table slot; reset by walking `slots`, never by a full sweep.
    stamp: Vec<u32>,
    /// Transposed index of [`Self::scatter_add`]: `entries[ends[i - 1]..ends[i]]`
    /// are the `(batch row, value)` occurrences of panel row `i`.
    ends: Vec<usize>,
    entries: Vec<(u32, f32)>,
    /// Row-major copy of the transposed left operand of
    /// [`Self::fill_transa_product`].
    lhs_t: Matrix,
    grows: u64,
}

/// The name the per-shard gradient maps had; the panel replaced them.
pub type ShardedRowGrads = RowGrads;

impl RowGrads {
    /// Number of slots holding a gradient row.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no gradients are held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The panel's slots, unique, in first-seen order.
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// The `len() × dim` gradient rows, parallel to [`Self::slots`].
    pub fn rows(&self) -> &Matrix {
        &self.rows
    }

    /// Iterates `(slot, gradient row)` pairs in panel order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f32])> {
        self.slots.iter().map(|&s| s as usize).zip(self.rows.rows_iter())
    }

    /// Number of fills that had to grow a buffer. Flat across steps ⇒ the
    /// panel is allocation-free in steady state.
    pub fn allocs(&self) -> u64 {
        self.grows
    }

    /// Appends the gradient row of a slot the panel does not hold yet.
    /// Panics when the slot repeats or the width differs from earlier rows.
    pub fn insert(&mut self, slot: usize, row: Vec<f32>) {
        let slot = u32::try_from(slot).expect("table slots fit in u32");
        assert!(
            self.is_empty() || row.len() == self.rows.cols(),
            "gradient row width differs from the panel's"
        );
        let (i, new) = self.row_or_push(slot);
        assert!(new, "slot {slot} is already in the panel");
        let mut data = std::mem::take(&mut self.rows).into_vec();
        data.extend_from_slice(&row);
        self.rows = Matrix::from_vec(i + 1, row.len(), data);
    }

    /// Refills the panel with `slots` (which must be unique) and the rows of
    /// `aᵀ · b`, one per slot — the batched-softmax weight gradient
    /// `∂logitsᵀ · H`.
    ///
    /// `a` is transposed into a scratch copy first so the product runs
    /// through the register-tiled [`Matrix::matmul_into_with`] kernel, whose
    /// output-row shards replay the serial order: bit-identical at every
    /// thread count.
    pub(crate) fn fill_transa_product(
        &mut self,
        slots: &[u32],
        a: &Matrix,
        b: &Matrix,
        pool: &ThreadPool,
    ) {
        assert_eq!(slots.len(), a.cols(), "one slot per column of the left operand");
        let before = self.footprint();
        self.clear();
        for &slot in slots {
            let (_, new) = self.row_or_push(slot);
            assert!(new, "row panel slots must be unique, slot {slot} repeats");
        }
        a.transpose_into(&mut self.lhs_t);
        self.lhs_t.matmul_into_with(b, &mut self.rows, pool);
        self.note_growth(before);
    }

    /// Refills the panel with `grad[slot] = Σ v · dy[r]` over every
    /// occurrence `(slot, v)` in batch row `r` — the embedding-bag backward.
    ///
    /// A transposed index is built serially (unique slots in first-seen
    /// order, then count → prefix sum → fill of each slot's `(r, v)` list in
    /// ascending batch-row order); the sums then fan out over `pool`, each
    /// panel row owned by one shard and accumulated in exactly the order a
    /// serial row-by-row scatter would use — bit-identical at every thread
    /// count.
    pub(crate) fn scatter_add(
        &mut self,
        rows_slots: &[Vec<u32>],
        rows_vals: &[Vec<f32>],
        dy: &Matrix,
        pool: &ThreadPool,
    ) {
        assert_eq!(rows_slots.len(), dy.rows(), "batch size mismatch");
        assert_eq!(rows_slots.len(), rows_vals.len(), "batch size mismatch");
        let before = self.footprint();
        self.clear();
        self.ends.clear();
        for (slots, vals) in rows_slots.iter().zip(rows_vals) {
            assert_eq!(slots.len(), vals.len(), "slots and values must be parallel");
            for &slot in slots {
                let (i, new) = self.row_or_push(slot);
                if new {
                    self.ends.push(0);
                }
                self.ends[i] += 1;
            }
        }
        // Counts → start offsets; the fill below advances each start to its
        // list's end, which is what the sum pass reads.
        let mut total = 0;
        for e in &mut self.ends {
            total += std::mem::replace(e, total);
        }
        self.entries.clear();
        self.entries.resize(total, (0, 0.0));
        for (r, (slots, vals)) in rows_slots.iter().zip(rows_vals).enumerate() {
            for (&slot, &v) in slots.iter().zip(vals) {
                let at = &mut self.ends[self.stamp[slot as usize] as usize - 1];
                self.entries[*at] = (r as u32, v);
                *at += 1;
            }
        }

        let (n, dim) = (self.slots.len(), dy.cols());
        self.rows.resize_zeroed(n, dim);
        let (ends, entries) = (&self.ends, &self.entries);
        let axpy = fvae_tensor::simd::active().axpy;
        pool.run_rows(self.rows.as_mut_slice(), n, dim, 1, |range, chunk| {
            for (i, out) in range.zip(chunk.chunks_exact_mut(dim)) {
                let start = if i == 0 { 0 } else { ends[i - 1] };
                for &(r, v) in &entries[start..ends[i]] {
                    axpy(v, dy.row(r as usize), out);
                }
            }
        });
        self.note_growth(before);
    }

    /// Empties the panel, returning the stamps of its slots to 0.
    fn clear(&mut self) {
        for &slot in &self.slots {
            self.stamp[slot as usize] = 0;
        }
        self.slots.clear();
    }

    /// Panel row of `slot` and whether this call added it.
    #[inline]
    fn row_or_push(&mut self, slot: u32) -> (usize, bool) {
        let s = slot as usize;
        if s >= self.stamp.len() {
            self.stamp.resize(s + 1, 0);
        }
        match self.stamp[s] {
            0 => {
                self.slots.push(slot);
                self.stamp[s] = u32::try_from(self.slots.len()).expect("panel rows fit in u32");
                (self.slots.len() - 1, true)
            }
            i => (i as usize - 1, false),
        }
    }

    fn footprint(&self) -> usize {
        self.slots.capacity()
            + self.rows.capacity()
            + self.stamp.capacity()
            + self.ends.capacity()
            + self.entries.capacity()
            + self.lhs_t.capacity()
    }

    fn note_growth(&mut self, before: usize) {
        self.grows += u64::from(self.footprint() > before);
    }
}

/// The per-(row, feature) hash-map gradient the panel replaced, kept as the
/// differential oracle of the panel kernels' tests.
#[cfg(test)]
pub(crate) mod oracle {
    use super::RowGrads;
    use fvae_sparse::FastHashMap;

    /// Sparse gradient: dense slot index → gradient row of length `dim`.
    pub(crate) type MapGrads = FastHashMap<usize, Vec<f32>>;

    /// Asserts two slices are equal within `1e-5` relative.
    pub(crate) fn assert_close(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths differ");
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= 1e-5 * x.abs().max(y.abs()).max(1.0), "{what}[{i}]: {x} vs {y}");
        }
    }

    /// Asserts the panel equals the oracle map within `1e-5` relative: every
    /// map slot is in the panel, and a panel slot the map lacks (the map
    /// kernels skip exact-zero contributions) is all zeros.
    pub(crate) fn assert_panel_matches(panel: &RowGrads, map: &MapGrads) {
        let mut seen = 0;
        for (slot, row) in panel.iter() {
            match map.get(&slot) {
                Some(want) => {
                    seen += 1;
                    assert_close(row, want, &format!("slot {slot}"));
                }
                None => assert!(row.iter().all(|&g| g == 0.0), "slot {slot} only in the panel"),
            }
        }
        assert_eq!(seen, map.len(), "an oracle slot is missing from the panel");
    }

    /// Asserts two panels hold the same slots and the same bits.
    pub(crate) fn assert_same_bits(a: &RowGrads, b: &RowGrads, what: &str) {
        assert_eq!(a.slots(), b.slots(), "{what}: slot lists differ");
        assert_eq!(a.rows().shape(), b.rows().shape(), "{what}: shapes differ");
        for (x, y) in a.rows().as_slice().iter().zip(b.rows().as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: bits differ");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scatter(panel: &mut RowGrads, rows: &[&[(u32, f32)]], dy: &Matrix) {
        let slots: Vec<Vec<u32>> = rows.iter().map(|r| r.iter().map(|p| p.0).collect()).collect();
        let vals: Vec<Vec<f32>> = rows.iter().map(|r| r.iter().map(|p| p.1).collect()).collect();
        panel.scatter_add(&slots, &vals, dy, &ThreadPool::new(2));
    }

    #[test]
    fn scatter_add_sums_rows_sharing_a_slot_in_first_seen_order() {
        let dy = Matrix::from_vec(3, 2, vec![1.0, 2.0, 10.0, 20.0, 100.0, 200.0]);
        let mut panel = RowGrads::default();
        scatter(&mut panel, &[&[(5, 1.0), (2, 4.0)], &[], &[(5, 1.0), (5, 0.5)]], &dy);
        assert_eq!(panel.slots(), &[5, 2]);
        assert_eq!(panel.rows().row(0), &[151.0, 302.0]);
        assert_eq!(panel.rows().row(1), &[4.0, 8.0]);
    }

    #[test]
    fn refill_forgets_the_previous_batch() {
        let dy = Matrix::from_vec(1, 1, vec![1.0]);
        let mut panel = RowGrads::default();
        scatter(&mut panel, &[&[(7, 1.0), (3, 1.0)]], &dy);
        scatter(&mut panel, &[&[(3, 2.0)]], &dy);
        assert_eq!(panel.slots(), &[3]);
        assert_eq!(panel.rows().as_slice(), &[2.0]);
        scatter(&mut panel, &[&[]], &dy);
        assert!(panel.is_empty());
        assert_eq!(panel.rows().shape(), (0, 1));
    }

    #[test]
    fn steady_state_refills_do_not_grow() {
        let dy = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let pool = ThreadPool::new(1);
        let mut panel = RowGrads::default();
        let refill = |panel: &mut RowGrads| {
            scatter(panel, &[&[(1, 1.0), (9, 1.0)], &[(9, 2.0), (4, 1.0)]], &dy);
            panel.fill_transa_product(&[4, 1], &dy, &dy, &pool);
        };
        for _ in 0..3 {
            refill(&mut panel);
        }
        let warm = panel.allocs();
        assert!(warm > 0, "the first fills grow every buffer");
        for _ in 0..10 {
            refill(&mut panel);
        }
        assert_eq!(panel.allocs(), warm, "steady-state refills must not allocate");
    }

    #[test]
    fn insert_appends_rows() {
        let mut panel = RowGrads::default();
        panel.insert(4, vec![1.0, 2.0]);
        panel.insert(0, vec![3.0, 4.0]);
        let got: Vec<(usize, Vec<f32>)> = panel.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(got, vec![(4, vec![1.0, 2.0]), (0, vec![3.0, 4.0])]);
    }

    #[test]
    #[should_panic(expected = "already in the panel")]
    fn insert_refuses_a_repeated_slot() {
        let mut panel = RowGrads::default();
        panel.insert(4, vec![1.0]);
        panel.insert(4, vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "must be unique")]
    fn fill_refuses_a_repeated_slot() {
        let a = Matrix::zeros(2, 3);
        RowGrads::default().fill_transa_product(&[1, 2, 1], &a, &a, &ThreadPool::new(1));
    }

    #[test]
    fn transa_product_fills_one_row_per_slot() {
        // a = [[1, 2, 3], [4, 5, 6]], b = [[1, 10], [100, 1000]] → aᵀ·b.
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(2, 2, vec![1.0, 10.0, 100.0, 1000.0]);
        let mut panel = RowGrads::default();
        panel.fill_transa_product(&[9, 0, 4], &a, &b, &ThreadPool::new(2));
        assert_eq!(panel.slots(), &[9, 0, 4]);
        assert_eq!(panel.rows(), &a.transpose().matmul(&b));
        assert_eq!(panel.rows().row(2), &[603.0, 6030.0]);
    }
}
