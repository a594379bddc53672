//! Row-major dense `f32` matrix.
//!
//! The layout choice matters: every model in this workspace processes
//! mini-batches as `batch × dim` matrices, so row-major storage keeps each
//! sample contiguous and lets the GEMM kernels below run down cache lines.

use std::ops::Range;

use fvae_pool::ThreadPool;
use rand::{Rng, RngExt};

use crate::dist::Gaussian;
use crate::simd::{TILE_M, TILE_N};

/// Below this many multiply-adds a GEMM runs serially on the calling
/// thread: dispatch overhead would swamp the kernel. The same bound, counted
/// in elements, gates the pooled element-wise passes ([`Matrix::bias_then`]
/// and dense Adam in `fvae-nn`). Purely a performance threshold — the
/// sharded kernels are bit-identical to the serial ones, so crossing it
/// never changes results.
pub const PAR_MIN_FLOPS: usize = 32 * 1024;

/// Batch rows of `A` that share each `B` row in the `A · Bᵀ` kernel while
/// that row sits in L1: two `dot3` calls.
const TRANSB_ROW_GROUP: usize = 6;

/// `B` rows per column panel of the `A · Bᵀ` kernel: the panel stays in L2
/// while every row group of the shard streams past it.
const TRANSB_PANEL: usize = 64;

/// Output elements per row block of the `Aᵀ · B` kernel (16 KiB of `f32`):
/// a block stays in L1 while every batch-row pair streams past it.
const TRANSA_BLOCK_ELEMS: usize = 4 * 1024;

/// k steps per packed `B` strip of the register-tiled GEMMs: a
/// `TILE_K × TILE_N` strip is 16 KiB of `f32` on the stack, packed once per
/// k block and column strip and shared by every row tile of a row chunk.
/// A multiple of 4, so k blocks start on the `A · B` panel grid (and on the
/// `Aᵀ · B` pair grid).
const TILE_K: usize = 256;

/// Row tiles per row chunk of the register-tiled GEMMs: their per-k-block
/// register-path choices fit one `u64`.
const TILE_CHUNK: usize = 64;

/// Fewest row tiles a GEMM range sends through the register path: a packed
/// `B` strip that serves a single tile costs more than the tile saves over
/// the 2-row loops, so a range with fewer tiles runs the loops.
const TILE_MIN: usize = 2;

/// Shard alignment of the register-tiled GEMMs, in output rows: `TILE_MIN`
/// whole tiles, so only the last shard can end off the tile grid. It is
/// even, so `A · B` shards keep the serial 2-row pairing.
const TILE_SHARD: usize = TILE_MIN * TILE_M;

/// The two GEMMs the register tile serves, both seen as `C += A · B` over
/// `k = other.rows` with `B = other`: `A · B` reads coefficient `(i, p)`
/// at `self[i][p]`, `Aᵀ · B` at `self[p][i]`.
#[derive(Clone, Copy)]
enum Gemm {
    AB,
    AtB,
}

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
    /// Register-tiled: where the backend has a `fused6x16` tile, 6 output
    /// rows × 16 columns stay in registers against a strip of `other`
    /// packed on the stack. Everything else runs the
    /// 2-row loops: a pass pins 2 output rows and streams a 4-row panel of
    /// `other`, so every loaded `B` cache line feeds 8 accumulator streams
    /// (2 output rows × 4 k-lanes). All-zero coefficient panels are
    /// skipped, which preserves the fast path for sparse multi-hot inputs
    /// (the embedding-bag ablation's densified baseline); a tile with such
    /// a panel runs the loops, so both paths give the loops' bits.
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
    /// Output rows are sharded with boundaries on multiples of two register
    /// tiles (12 rows), so every shard reproduces the serial kernel's 2-row
    /// pairing — and with it the all-zero-panel skip decisions — exactly:
    /// the result is bit-identical to serial for any shard count.
    pub fn matmul_into_with(&self, other: &Matrix, out: &mut Matrix, pool: &ThreadPool) {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let (m, n) = (self.rows, other.cols);
        out.resize_zeroed(m, n);
        pool.run_rows(&mut out.data, m, n, TILE_SHARD, |r, rows| self.matmul_range(other, rows, r.start, r.end));
    }

    /// Output rows `i0..i1` of `self · other`, written into `out_rows` (the
    /// pre-zeroed slice covering exactly those rows). `i0` must be even (a
    /// tile boundary); only the final range may end off-tile, mirroring the
    /// serial remainder row. Register tiles take the rows they can, and the
    /// 2-row loops the rest.
    fn matmul_range(&self, other: &Matrix, out_rows: &mut [f32], i0: usize, i1: usize) {
        debug_assert_eq!(i0 % 2, 0, "shard start must preserve 2-row tile pairing");
        let t1 = self.tiled_range(Gemm::AB, other, out_rows, i0, i1);
        let n = other.cols;
        self.matmul_pairs(other, &mut out_rows[(t1 - i0) * n..], t1..i1, 0..self.cols, 0..n);
    }

    /// The 2-row loops of `self · other` over rows `i0..i1` (`i0` even;
    /// `out_rows` covers exactly those rows at full width), restricted to
    /// the steps `kr` and the columns `cols`. `kr.start` must be a multiple
    /// of 4 and `kr.end` too unless it is `k`, so the panels are the
    /// full-`k` ones: any split into k blocks and column ranges gives every
    /// element the same kernel calls, with the same zero skips, in `k`
    /// order.
    fn matmul_pairs(&self, other: &Matrix, out_rows: &mut [f32], rows: Range<usize>, kr: Range<usize>, cols: Range<usize>) {
        let (i0, i1) = (rows.start, rows.end);
        let (k, n) = (self.cols, other.cols);
        debug_assert_eq!(out_rows.len(), (i1 - i0) * n);
        let b = |p: usize| &other.data[p * n + cols.start..p * n + cols.end];
        // Hoist the dispatched kernels: one indirect-call target lookup per
        // call, not per panel.
        let ks = crate::simd::active();
        let mut i = i0;
        // 2-row output tiles: both rows consume the same B panel.
        while i + 2 <= i1 {
            let (out0, out1) = out_rows[(i - i0) * n..(i + 2 - i0) * n].split_at_mut(n);
            let (out0, out1) = (&mut out0[cols.clone()], &mut out1[cols.clone()]);
            let a0 = &self.data[i * k..(i + 1) * k];
            let a1 = &self.data[(i + 1) * k..(i + 2) * k];
            let mut p = kr.start;
            // 4-wide k panels.
            while p + 4 <= kr.end {
                let c = [a0[p], a0[p + 1], a0[p + 2], a0[p + 3], a1[p], a1[p + 1], a1[p + 2], a1[p + 3]];
                // Zero-skip decisions stay outside the kernels so every
                // backend (and every shard) takes identical fast paths.
                if c != [0.0; 8] {
                    (ks.fused2x4)(&c, b(p), b(p + 1), b(p + 2), b(p + 3), out0, out1);
                }
                p += 4;
            }
            // k remainder: single B rows against the same output tile.
            while p < kr.end {
                let (c0, c1) = (a0[p], a1[p]);
                if c0 != 0.0 || c1 != 0.0 {
                    (ks.fused2x1)(c0, c1, b(p), out0, out1);
                }
                p += 1;
            }
            i += 2;
        }
        // m remainder: one output row, still 4-wide over k.
        if i < i1 {
            let out_row = &mut out_rows[(i - i0) * n..(i + 1 - i0) * n][cols.clone()];
            let a_row = &self.data[i * k..(i + 1) * k];
            let mut p = kr.start;
            while p + 4 <= kr.end {
                let c = [a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]];
                if c != [0.0; 4] {
                    (ks.fused1x4)(&c, b(p), b(p + 1), b(p + 2), b(p + 3), out_row);
                }
                p += 4;
            }
            while p < kr.end {
                let a = a_row[p];
                if a != 0.0 {
                    (ks.axpy)(a, b(p), out_row);
                }
                p += 1;
            }
        }
    }

    /// True when rows `i..i + TILE_M` of `gemm` take no zero skip over the
    /// steps `kr`: its loops would call a kernel for every coefficient,
    /// which is the chain the register tile computes. A skip is bit-neutral
    /// only for finite `B` (`0 · ∞` is NaN), so a tile with any skip runs
    /// the loops. A group of coefficients is all `±0.0` exactly when the OR
    /// of their bits, shifted past the sign, is 0 (a NaN is not zero, as in
    /// the loops' `== 0.0`).
    fn skip_free(&self, gemm: Gemm, i: usize, kr: Range<usize>) -> bool {
        let ld = self.cols;
        let bits = |c: &f32| c.to_bits() << 1;
        match gemm {
            // Per pair of rows: a 4-step panel is skipped when its eight
            // coefficients are zero, a remainder step when its two are.
            Gemm::AB => (i..i + TILE_M).step_by(2).all(|r| {
                let a0 = &self.data[r * ld + kr.start..r * ld + kr.end];
                let a1 = &self.data[(r + 1) * ld + kr.start..(r + 1) * ld + kr.end];
                let (p0, p1) = (a0.chunks_exact(4), a1.chunks_exact(4));
                let tail = p0.remainder().iter().zip(p1.remainder());
                p0.zip(p1).all(|(x, y)| x.iter().chain(y).fold(0, |m, c| m | bits(c)) != 0)
                    && tail.fold(true, |live, (x, y)| live & (bits(x) | bits(y) != 0))
            }),
            // Per output row: a pair of batch rows is skipped when its two
            // coefficients are zero, an odd last batch row when its one is.
            Gemm::AtB => {
                let a = |p: usize| &self.data[p * ld + i..p * ld + i + TILE_M];
                let live = |x: &[f32], y: &[f32]| x.iter().zip(y).fold(true, |l, (x, y)| l & (bits(x) | bits(y) != 0));
                let pairs = (kr.len() / 2) * 2;
                (kr.start..kr.start + pairs).step_by(2).all(|p| live(a(p), a(p + 1)))
                    && (kr.start + pairs..kr.end).all(|p| live(a(p), a(p)))
            }
        }
    }

    /// The loops `gemm` runs where the register tile does not; see
    /// [`Matrix::matmul_pairs`] and [`Matrix::transa_pairs`].
    fn loops(&self, gemm: Gemm, other: &Matrix, out_rows: &mut [f32], rows: Range<usize>, kr: Range<usize>, cols: Range<usize>) {
        match gemm {
            Gemm::AB => self.matmul_pairs(other, out_rows, rows, kr, cols),
            Gemm::AtB => self.transa_pairs(other, out_rows, rows, kr, cols),
        }
    }

    /// Output rows `i0..i1` of `gemm` through the register tile, as far as
    /// whole tiles reach; returns the first row left to the caller.
    ///
    /// Tiles are [`TILE_M`] rows (three 2-row pairs) counted from `i0`, in
    /// chunks of [`TILE_CHUNK`]; a range of fewer than [`TILE_MIN`] tiles
    /// is left whole to the caller. For each k block of [`TILE_K`] steps,
    /// a tile whose loops would take a zero skip runs them, over that
    /// block and the full width. Every other tile of the chunk takes the
    /// `fused6x16` kernel, one [`TILE_N`]-column strip at a time, against
    /// that strip of `B` packed into a stack buffer; its last `n % 16`
    /// columns, which the 8-lane bodies partly finish with a scalar
    /// expression, run the loops on that column range. Each element thus
    /// sees its k blocks in order, and in each block the chain its loops
    /// would apply. No register path (`None`) or fewer than 16 columns
    /// leaves every row to the caller.
    fn tiled_range(&self, gemm: Gemm, other: &Matrix, out_rows: &mut [f32], i0: usize, i1: usize) -> usize {
        let Some(tile) = crate::simd::active().fused6x16 else {
            return i0;
        };
        let (k, n) = (other.rows, other.cols);
        let (n16, tiles) = (n - n % TILE_N, (i1 - i0) / TILE_M);
        if n16 == 0 || tiles < TILE_MIN {
            return i0;
        }
        let t1 = i0 + tiles * TILE_M;
        let mut pack = [0.0f32; TILE_K * TILE_N];
        for c0 in (i0..t1).step_by(TILE_M * TILE_CHUNK) {
            let chunk_tiles = (t1.min(c0 + TILE_M * TILE_CHUNK) - c0) / TILE_M;
            let rows = |t: usize| (c0 + t * TILE_M - i0) * n..(c0 + (t + 1) * TILE_M - i0) * n;
            for kc in (0..k).step_by(TILE_K) {
                let kr = kc..(kc + TILE_K).min(k);
                let mut live = 0u64;
                for t in 0..chunk_tiles {
                    let i = c0 + t * TILE_M;
                    if self.skip_free(gemm, i, kr.clone()) {
                        live |= 1 << t;
                    } else {
                        self.loops(gemm, other, &mut out_rows[rows(t)], i..i + TILE_M, kr.clone(), 0..n);
                    }
                }
                if live == 0 {
                    continue;
                }
                let live_tiles = || (0..chunk_tiles).filter(move |t| live >> t & 1 == 1);
                let strip = &mut pack[..kr.len() * TILE_N];
                for j in (0..n16).step_by(TILE_N) {
                    for (p, dst) in kr.clone().zip(strip.chunks_exact_mut(TILE_N)) {
                        dst.copy_from_slice(&other.data[p * n + j..p * n + j + TILE_N]);
                    }
                    for t in live_tiles() {
                        let i = c0 + t * TILE_M;
                        let (a, rs, cs) = match gemm {
                            Gemm::AB => (&self.data[i * self.cols + kc..], self.cols, 1),
                            Gemm::AtB => (&self.data[kc * self.cols + i..], 1, self.cols),
                        };
                        tile(a, rs, cs, strip, &mut out_rows[rows(t)][j..], n);
                    }
                }
                if n16 < n {
                    for t in live_tiles() {
                        let i = c0 + t * TILE_M;
                        self.loops(gemm, other, &mut out_rows[rows(t)], i..i + TILE_M, kr.clone(), n16..n);
                    }
                }
            }
        }
        t1
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
    /// and each output element is one backend dot product of an `A` row
    /// with a `B` row. The loops are blocked around that dot: a panel of
    /// `B` rows stays in L2 while the shard's `A` rows pass it in small
    /// groups, and each `B` row serves the whole group while it sits in L1,
    /// instead of the whole of `B` streaming through L2 once per `A` row.
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
    /// exactly those rows. The blocking only orders the dot products, and
    /// `dot3` only shares a `B` row's loads between three of them; each
    /// element is still written once, with `dot`'s bits.
    fn matmul_transb_range(&self, other: &Matrix, out_rows: &mut [f32], i0: usize, i1: usize) {
        let n = other.rows;
        debug_assert_eq!(out_rows.len(), (i1 - i0) * n);
        let ks = crate::simd::active();
        for j0 in (0..n).step_by(TRANSB_PANEL) {
            let j1 = (j0 + TRANSB_PANEL).min(n);
            for g0 in (i0..i1).step_by(TRANSB_ROW_GROUP) {
                let g1 = (g0 + TRANSB_ROW_GROUP).min(i1);
                for j in j0..j1 {
                    let b_row = other.row(j);
                    let mut i = g0;
                    while i + 3 <= g1 {
                        let d = (ks.dot3)(self.row(i), self.row(i + 1), self.row(i + 2), b_row);
                        for (r, v) in d.into_iter().enumerate() {
                            out_rows[(i + r - i0) * n + j] = v;
                        }
                        i += 3;
                    }
                    for i in i..g1 {
                        out_rows[(i - i0) * n + j] = (ks.dot)(self.row(i), b_row);
                    }
                }
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
    /// accumulation: each output row receives one fused update per pair of
    /// batch rows, in batch order (a single `axpy` for an odd last row), and
    /// a zero coefficient skips its update, which matters for
    /// post-ReLU/dropout activations. Where the backend has a `fused6x16`
    /// tile, 6 output rows run that chain in registers with the batch rows
    /// as k, unless one of their pairs would skip. The loops walk the
    /// output rows in blocks small enough to stay in L1 while every
    /// batch-row pair streams past them, so the pairs' `other` rows are
    /// re-read from L2 once per block rather than the whole output once
    /// per pair.
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
        pool.run_rows(&mut out.data, m, n, TILE_SHARD, |r, rows| {
            self.matmul_transa_range(other, rows, r.start, r.end);
        });
    }

    /// Output rows `i0..i1` of `selfᵀ · other` into the slice covering
    /// exactly those rows: register tiles where they reach, the rank-2 loops
    /// for the rest.
    fn matmul_transa_range(&self, other: &Matrix, out_rows: &mut [f32], i0: usize, i1: usize) {
        let t1 = self.tiled_range(Gemm::AtB, other, out_rows, i0, i1);
        let n = other.cols;
        self.transa_pairs(other, &mut out_rows[(t1 - i0) * n..], t1..i1, 0..self.rows, 0..n);
    }

    /// The rank-2 loops of `selfᵀ · other` over output rows `i0..i1`
    /// (`out_rows` covers exactly those rows at full width), restricted to
    /// the batch rows `kr` (`kr.start` even) and the columns `cols`.
    /// Blocking the output rows changes only *when* a row is updated: each
    /// row still sees every pair's `fused1x2` (and the tail's `axpy`) in
    /// batch order, with the same zero skips.
    fn transa_pairs(&self, other: &Matrix, out_rows: &mut [f32], rows: Range<usize>, kr: Range<usize>, cols: Range<usize>) {
        let (i0, i1) = (rows.start, rows.end);
        let (m, n) = (self.cols, other.cols);
        debug_assert_eq!(out_rows.len(), (i1 - i0) * n);
        let a = |p: usize| &self.data[p * m..(p + 1) * m];
        let b = |p: usize| &other.data[p * n + cols.start..p * n + cols.end];
        let ks = crate::simd::active();
        let block = (TRANSA_BLOCK_ELEMS / n.max(1)).max(1);
        for r0 in (i0..i1).step_by(block) {
            let r1 = (r0 + block).min(i1);
            let mut p = kr.start;
            while p + 2 <= kr.end {
                let (a0, a1, b0, b1) = (a(p), a(p + 1), b(p), b(p + 1));
                for i in r0..r1 {
                    let (c0, c1) = (a0[i], a1[i]);
                    if c0 == 0.0 && c1 == 0.0 {
                        continue;
                    }
                    let out_row = &mut out_rows[(i - i0) * n..(i + 1 - i0) * n][cols.clone()];
                    (ks.fused1x2)(c0, c1, b0, b1, out_row);
                }
                p += 2;
            }
            if p < kr.end {
                let (a_row, b_row) = (a(p), b(p));
                for i in r0..r1 {
                    let c = a_row[i];
                    if c == 0.0 {
                        continue;
                    }
                    let out_row = &mut out_rows[(i - i0) * n..(i + 1 - i0) * n][cols.clone()];
                    (ks.axpy)(c, b_row, out_row);
                }
            }
        }
    }

    /// Row-wise bias + activation epilogue: every element `v` of column `j`
    /// becomes `act(v + bias[j])` — the bias add, then the activation, the
    /// same two operations per element as a serial bias loop followed by a
    /// map. From [`PAR_MIN_FLOPS`] elements up the rows are sharded over
    /// the global pool (output-disjoint, so the bits are the serial ones).
    /// Panics unless `bias.len() == cols`.
    pub fn bias_then(&mut self, bias: &[f32], act: impl Fn(f32) -> f32 + Sync) {
        assert_eq!(bias.len(), self.cols, "bias length must equal cols");
        let (rows, cols) = self.shape();
        if rows * cols == 0 {
            return;
        }
        let epilogue = |chunk: &mut [f32]| {
            for row in chunk.chunks_exact_mut(cols) {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v = act(*v + b);
                }
            }
        };
        if rows * cols >= PAR_MIN_FLOPS {
            fvae_pool::global().run_rows(&mut self.data, rows, cols, 1, |_, chunk| epilogue(chunk));
        } else {
            epilogue(&mut self.data);
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
