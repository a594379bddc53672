//! Row-major dense `f32` matrix.
//!
//! The layout choice matters: every model in this workspace processes
//! mini-batches as `batch × dim` matrices, so row-major storage keeps each
//! sample contiguous and lets the GEMM kernels below run down cache lines.

use fvae_pool::ThreadPool;
use rand::{Rng, RngExt};

use crate::dist::Gaussian;

/// Below this many multiply-adds a GEMM runs serially on the calling
/// thread: dispatch overhead would swamp the kernel. Purely a performance
/// threshold — the sharded kernels are bit-identical to the serial ones, so
/// crossing it never changes results.
const PAR_MIN_FLOPS: usize = 32 * 1024;

/// A dense, row-major `f32` matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix — the natural seed for `*_into` output
    /// buffers, which grow on first use and are reused afterwards.
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Wraps an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Glorot/Xavier-uniform initialization, the default for dense layers.
    pub fn glorot_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(rng.random_range(-limit..limit));
        }
        Self { rows, cols, data }
    }

    /// Gaussian initialization with the given standard deviation.
    pub fn gaussian(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Self {
        let mut gauss = Gaussian::new(0.0, std);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(gauss.sample(rng));
        }
        Self { rows, cols, data }
    }

    /// Identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Add `v` to element `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] += v;
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Apply `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Return a new matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise addition. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place element-wise subtraction. Panics on shape mismatch.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "sub_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy_assign(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Element-wise (Hadamard) product in place.
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a *= b;
        }
    }

    /// Transposed copy. Thin allocating wrapper over
    /// [`Matrix::transpose_into`].
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// Transposed copy written into `out` (reshaped in place), eight source
    /// rows at a time so both sides stay within a few cache lines per step.
    pub fn transpose_into(&self, out: &mut Matrix) {
        let (rows, cols) = self.shape();
        out.resize_zeroed(cols, rows);
        for r0 in (0..rows).step_by(8) {
            let r1 = (r0 + 8).min(rows);
            for c in 0..cols {
                for r in r0..r1 {
                    out.data[c * rows + r] = self.data[r * cols + c];
                }
            }
        }
    }

    /// Reshapes in place to `rows × cols`, zero-filling every element.
    ///
    /// Reuses the existing allocation whenever its capacity suffices — this
    /// is the primitive every `_into` kernel and the `fvae-nn` workspace
    /// arena build on to keep the training hot path allocation-free after
    /// warm-up.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Capacity (in elements) of the backing buffer — used by tests to
    /// verify that steady-state training never reallocates.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// `self · other`, shape `(m×k)·(k×n) → m×n`. Thin allocating wrapper
    /// over [`Matrix::matmul_into`].
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self · other` written into `out` (resized to `m × n`; its old
    /// contents are discarded, its allocation reused when large enough).
    ///
    /// Register-tiled ikj kernel: each pass pins a 2-row tile of the output
    /// and streams a 4-row panel of `other`, so every loaded `B` cache line
    /// feeds 8 independent accumulator streams (2 output rows × 4 k-lanes)
    /// before being evicted. The contiguous inner loop over output columns
    /// autovectorizes to packed FMAs. All-zero coefficient tiles are
    /// skipped, which preserves the fast path for sparse multi-hot inputs
    /// (the embedding-bag ablation's densified baseline).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        if self.rows * self.cols * other.cols >= PAR_MIN_FLOPS {
            return self.matmul_into_with(other, out, fvae_pool::global());
        }
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        out.resize_zeroed(self.rows, other.cols);
        self.matmul_range(other, &mut out.data, 0, self.rows);
    }

    /// [`Matrix::matmul_into`] on an explicit pool, always dispatching
    /// through it (no serial-size shortcut). The parity proptests use this
    /// to pin the sharded path against the serial kernel at arbitrary
    /// thread counts.
    ///
    /// Output rows are sharded with boundaries aligned to the 2-row output
    /// tile, so every shard reproduces the serial kernel's tile pairing —
    /// and with it the all-zero-tile skip decisions — exactly: the result
    /// is bit-identical to serial for any shard count.
    pub fn matmul_into_with(&self, other: &Matrix, out: &mut Matrix, pool: &ThreadPool) {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let (m, n) = (self.rows, other.cols);
        out.resize_zeroed(m, n);
        pool.run_rows(&mut out.data, m, n, 2, |r, rows| self.matmul_range(other, rows, r.start, r.end));
    }

    /// Output rows `i0..i1` of `self · other`, written into `out_rows` (the
    /// pre-zeroed slice covering exactly those rows). `i0` must be even (a
    /// tile boundary); only the final range may end off-tile, mirroring the
    /// serial remainder row.
    fn matmul_range(&self, other: &Matrix, out_rows: &mut [f32], i0: usize, i1: usize) {
        let (k, n) = (self.cols, other.cols);
        debug_assert_eq!(out_rows.len(), (i1 - i0) * n);
        debug_assert_eq!(i0 % 2, 0, "shard start must preserve 2-row tile pairing");
        // Hoist the dispatched kernels: one indirect-call target lookup per
        // GEMM range, not per tile.
        let ks = crate::simd::active();
        let mut i = i0;
        // 2-row output tiles: both rows consume the same B panel.
        while i + 2 <= i1 {
            let (out0, out1) = {
                let pair = &mut out_rows[(i - i0) * n..(i + 2 - i0) * n];
                pair.split_at_mut(n)
            };
            let a0 = &self.data[i * self.cols..(i + 1) * self.cols];
            let a1 = &self.data[(i + 1) * self.cols..(i + 2) * self.cols];
            let mut p = 0;
            // 4-wide k panels.
            while p + 4 <= k {
                let c = [a0[p], a0[p + 1], a0[p + 2], a0[p + 3], a1[p], a1[p + 1], a1[p + 2], a1[p + 3]];
                // Zero-skip decisions stay outside the kernels so every
                // backend (and every shard) takes identical fast paths.
                if c == [0.0; 8] {
                    p += 4;
                    continue;
                }
                let b0 = &other.data[p * n..(p + 1) * n];
                let b1 = &other.data[(p + 1) * n..(p + 2) * n];
                let b2 = &other.data[(p + 2) * n..(p + 3) * n];
                let b3 = &other.data[(p + 3) * n..(p + 4) * n];
                (ks.fused2x4)(&c, b0, b1, b2, b3, out0, out1);
                p += 4;
            }
            // k remainder: single B rows against the same output tile.
            while p < k {
                let (c0, c1) = (a0[p], a1[p]);
                if c0 != 0.0 || c1 != 0.0 {
                    let b_row = &other.data[p * n..(p + 1) * n];
                    (ks.fused2x1)(c0, c1, b_row, out0, out1);
                }
                p += 1;
            }
            i += 2;
        }
        // m remainder: one output row, still 4-wide over k.
        if i < i1 {
            let out_row = &mut out_rows[(i - i0) * n..(i + 1 - i0) * n];
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut p = 0;
            while p + 4 <= k {
                let c = [a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]];
                if c == [0.0; 4] {
                    p += 4;
                    continue;
                }
                let b0 = &other.data[p * n..(p + 1) * n];
                let b1 = &other.data[(p + 1) * n..(p + 2) * n];
                let b2 = &other.data[(p + 2) * n..(p + 3) * n];
                let b3 = &other.data[(p + 3) * n..(p + 4) * n];
                (ks.fused1x4)(&c, b0, b1, b2, b3, out_row);
                p += 4;
            }
            while p < k {
                let a = a_row[p];
                if a != 0.0 {
                    let b_row = &other.data[p * n..(p + 1) * n];
                    (ks.axpy)(a, b_row, out_row);
                }
                p += 1;
            }
        }
    }

    /// `self · otherᵀ`, shape `(m×k)·(n×k)ᵀ → m×n`. Thin allocating wrapper
    /// over [`Matrix::matmul_transb_into`].
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transb_into(other, &mut out);
        out
    }

    /// `self · otherᵀ` written into `out` (resized to `m × n`).
    ///
    /// Used in backprop for input gradients (`dX = dY · Wᵀ` with `W: in×out`
    /// stored untransposed). Both operands are traversed row-contiguously,
    /// so each output element is one [`crate::ops::dot`] — which carries the
    /// 8-lane unrolled reduction.
    pub fn matmul_transb_into(&self, other: &Matrix, out: &mut Matrix) {
        if self.rows * self.cols * other.rows >= PAR_MIN_FLOPS {
            return self.matmul_transb_into_with(other, out, fvae_pool::global());
        }
        assert_eq!(self.cols, other.cols, "matmul_transb inner dimension mismatch");
        out.resize_zeroed(self.rows, other.rows);
        self.matmul_transb_range(other, &mut out.data, 0, self.rows);
    }

    /// [`Matrix::matmul_transb_into`] on an explicit pool (no serial-size
    /// shortcut); see [`Matrix::matmul_into_with`]. Output rows are
    /// sharded; every output element is one independent dot product, so
    /// any row partition is bit-identical to serial.
    pub fn matmul_transb_into_with(&self, other: &Matrix, out: &mut Matrix, pool: &ThreadPool) {
        assert_eq!(self.cols, other.cols, "matmul_transb inner dimension mismatch");
        let (m, n) = (self.rows, other.rows);
        out.resize_zeroed(m, n);
        pool.run_rows(&mut out.data, m, n, 1, |r, rows| {
            self.matmul_transb_range(other, rows, r.start, r.end);
        });
    }

    /// Output rows `i0..i1` of `self · otherᵀ` into the slice covering
    /// exactly those rows.
    fn matmul_transb_range(&self, other: &Matrix, out_rows: &mut [f32], i0: usize, i1: usize) {
        let n = other.rows;
        debug_assert_eq!(out_rows.len(), (i1 - i0) * n);
        let dot = crate::simd::active().dot;
        for i in i0..i1 {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out_rows[(i - i0) * n..(i + 1 - i0) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, other.row(j));
            }
        }
    }

    /// `selfᵀ · other`, shape `(k×m)ᵀ·(k×n) → m×n`. Thin allocating wrapper
    /// over [`Matrix::matmul_transa_into`].
    pub fn matmul_transa(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transa_into(other, &mut out);
        out
    }

    /// `selfᵀ · other` written into `out` (resized to `m × n`).
    ///
    /// Used in backprop for weight gradients (`dW = Xᵀ · dY`). Rank-2
    /// accumulation: each pass streams a 2-row panel of batch rows, so
    /// every output row touched gets two fused updates per load of its
    /// cache lines and the `other` panel is read once per pair instead of
    /// once per row. Zero coefficients skip their update, which matters for
    /// post-ReLU/dropout activations.
    pub fn matmul_transa_into(&self, other: &Matrix, out: &mut Matrix) {
        if self.rows * self.cols * other.cols >= PAR_MIN_FLOPS {
            return self.matmul_transa_into_with(other, out, fvae_pool::global());
        }
        assert_eq!(self.rows, other.rows, "matmul_transa inner dimension mismatch");
        out.resize_zeroed(self.cols, other.cols);
        self.matmul_transa_range(other, &mut out.data, 0, self.cols);
    }

    /// [`Matrix::matmul_transa_into`] on an explicit pool (no serial-size
    /// shortcut); see [`Matrix::matmul_into_with`]. Sharded over *output*
    /// rows: every shard streams all batch-row pairs in the same serial
    /// order, so each output element accumulates its rank-2 updates in
    /// exactly the serial sequence — bit-identical for any shard count.
    pub fn matmul_transa_into_with(&self, other: &Matrix, out: &mut Matrix, pool: &ThreadPool) {
        assert_eq!(self.rows, other.rows, "matmul_transa inner dimension mismatch");
        let (m, n) = (self.cols, other.cols);
        out.resize_zeroed(m, n);
        pool.run_rows(&mut out.data, m, n, 1, |r, rows| {
            self.matmul_transa_range(other, rows, r.start, r.end);
        });
    }

    /// Output rows `i0..i1` of `selfᵀ · other` into the slice covering
    /// exactly those rows.
    fn matmul_transa_range(&self, other: &Matrix, out_rows: &mut [f32], i0: usize, i1: usize) {
        let n = other.cols;
        debug_assert_eq!(out_rows.len(), (i1 - i0) * n);
        let ks = crate::simd::active();
        let mut p = 0;
        while p + 2 <= self.rows {
            let a0 = &self.data[p * self.cols..(p + 1) * self.cols];
            let a1 = &self.data[(p + 1) * self.cols..(p + 2) * self.cols];
            let b0 = &other.data[p * n..(p + 1) * n];
            let b1 = &other.data[(p + 1) * n..(p + 2) * n];
            for i in i0..i1 {
                let (c0, c1) = (a0[i], a1[i]);
                if c0 == 0.0 && c1 == 0.0 {
                    continue;
                }
                let out_row = &mut out_rows[(i - i0) * n..(i + 1 - i0) * n];
                (ks.fused1x2)(c0, c1, b0, b1, out_row);
            }
            p += 2;
        }
        if p < self.rows {
            let a_row = &self.data[p * self.cols..(p + 1) * self.cols];
            let b_row = &other.data[p * n..(p + 1) * n];
            for i in i0..i1 {
                let a = a_row[i];
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out_rows[(i - i0) * n..(i + 1 - i0) * n];
                (ks.axpy)(a, b_row, out_row);
            }
        }
    }

    /// Sum over rows, producing a length-`cols` vector. Thin allocating
    /// wrapper over [`Matrix::col_sums_into`].
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.col_sums_into(&mut out);
        out
    }

    /// Sum over rows written into `out` (resized to `cols`).
    pub fn col_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for row in self.rows_iter() {
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
    }

    /// Mean over rows, producing a length-`cols` vector.
    pub fn col_means(&self) -> Vec<f32> {
        let mut s = self.col_sums();
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f32;
            s.iter_mut().for_each(|x| *x *= inv);
        }
        s
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Extract a copy of the given rows (in order).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m(rows: usize, cols: usize, data: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec())
    }

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(1, 1), 11.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_matches_hand_computed_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transb_equals_matmul_with_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::glorot_uniform(4, 5, &mut rng);
        let b = Matrix::glorot_uniform(3, 5, &mut rng);
        let fast = a.matmul_transb(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_transa_equals_matmul_with_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Matrix::glorot_uniform(6, 4, &mut rng);
        let b = Matrix::glorot_uniform(6, 3, &mut rng);
        let fast = a.matmul_transa(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(9);
        // 19 rows: two full 8-row blocks of `transpose_into` and a tail.
        let a = Matrix::glorot_uniform(19, 7, &mut rng);
        let t = a.transpose();
        assert_eq!(t.shape(), (7, 19));
        for r in 0..19 {
            for c in 0..7 {
                assert_eq!(t.get(c, r), a.get(r, c));
            }
        }
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = Matrix::glorot_uniform(4, 4, &mut rng);
        let i = Matrix::identity(4);
        let prod = a.matmul(&i);
        for (x, y) in prod.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn col_sums_and_means() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
        assert_eq!(a.col_means(), vec![2.0, 3.0]);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[1.0, 1.0, 1.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[2.0, 3.0, 4.0]);
        a.sub_assign(&b);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        a.axpy_assign(2.0, &b);
        assert_eq!(a.as_slice(), &[3.0, 4.0, 5.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
        let mut c = m(1, 3, &[2.0, 2.0, 2.0]);
        c.hadamard_assign(&m(1, 3, &[1.0, 2.0, 3.0]));
        assert_eq!(c.as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn select_rows_copies_in_order() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn glorot_uniform_respects_limit() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Matrix::glorot_uniform(10, 20, &mut rng);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(a.as_slice().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn frobenius_norm_of_identity() {
        let i = Matrix::identity(9);
        assert!((i.frobenius_norm() - 3.0).abs() < 1e-6);
    }
}
