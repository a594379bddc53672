//! Bit-identity of the cache-blocked backward GEMMs and the pooled bias +
//! activation epilogue against per-element references.
//!
//! Blocking may change *when* an output element is computed, never its own
//! chain of operations. Each reference below spells that chain out one
//! element (or one output row) at a time, with the active backend's
//! kernels, and the blocked kernels must match it in `to_bits`:
//!
//! * `A · Bᵀ`: every element is one `dot(a_i, b_j)`;
//! * `Aᵀ · B`: every output row gets one `fused1x2` per pair of batch rows,
//!   in batch order, and an `axpy` for an odd last row, skipping a pair (or
//!   the last row) whose coefficients are all zero;
//! * the epilogue: a serial bias loop, then a serial activation loop.
//!
//! The shapes straddle the kernels' row groups, column panels and row
//! blocks, include odd batches and widths off the 8-lane SIMD width, and
//! one layer of the dense benchmark's size (256 × 1024 × 512).

use fvae_pool::ThreadPool;
use fvae_tensor::{simd, Matrix, PAR_MIN_FLOPS};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// `(batch, in, out)` of a dense layer: `X: batch × in`, `W: in × out`,
/// `dY: batch × out`. Chosen so that `batch`, `in` and `out` straddle the
/// 4-row groups and 64-row panels of `A · Bᵀ` and the L1 row blocks of
/// `Aᵀ · B` (`4096 / out` rows), with odd batches and `out % 8 != 0`.
const SHAPES: [(usize, usize, usize); 8] = [
    (1, 1, 1),
    (3, 5, 7),
    (9, 250, 37),
    (12, 40, 300),
    (13, 133, 65),
    (7, 70, 4100),
    (26, 129, 203),
    (256, 1024, 512),
];

/// An exact `0.0` or `-0.0` (one draw in four), else a value in `[-1, 1)`.
fn value(rng: &mut StdRng) -> f32 {
    match rng.random_range(0..8) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.random_range(-1.0f32..1.0),
    }
}

/// `X`, `W` and `dY` for one layer. `X` has exact `0.0` / `-0.0`
/// coefficients sprinkled through it, plus an all-zero pair of batch rows
/// (2, 3) and, for an odd batch, an all-zero last row. `dY` carries
/// infinities in exactly those rows: a kernel that failed to skip an
/// all-zero pair or row would turn `0 · ∞` into a NaN the reference lacks.
fn operands(batch: usize, n_in: usize, n_out: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let zero_row =
        |r: usize| (batch >= 4 && (r == 2 || r == 3)) || (batch % 2 == 1 && r + 1 == batch);
    let x = Matrix::from_fn(batch, n_in, |r, c| {
        if zero_row(r) {
            if c % 3 == 0 {
                -0.0
            } else {
                0.0
            }
        } else {
            value(&mut rng)
        }
    });
    let w = Matrix::from_fn(n_in, n_out, |_, _| value(&mut rng));
    let dy = Matrix::from_fn(batch, n_out, |r, c| {
        if zero_row(r) && c % 5 == 1 {
            if c % 2 == 0 {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            }
        } else {
            value(&mut rng)
        }
    });
    (x, w, dy)
}

fn transb_reference(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let dot = simd::active().dot;
    let mut out = Vec::with_capacity(a.rows() * b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            out.push(dot(a.row(i), b.row(j)));
        }
    }
    out
}

fn transa_reference(x: &Matrix, dy: &Matrix) -> Vec<f32> {
    let ks = simd::active();
    let (batch, n) = (x.rows(), dy.cols());
    let mut out = vec![0.0f32; x.cols() * n];
    for (i, out_row) in out.chunks_exact_mut(n.max(1)).enumerate() {
        let mut p = 0;
        while p + 2 <= batch {
            let (c0, c1) = (x.get(p, i), x.get(p + 1, i));
            if c0 != 0.0 || c1 != 0.0 {
                (ks.fused1x2)(c0, c1, dy.row(p), dy.row(p + 1), out_row);
            }
            p += 2;
        }
        if p < batch && x.get(p, i) != 0.0 {
            (ks.axpy)(x.get(p, i), dy.row(p), out_row);
        }
    }
    out
}

fn assert_bits(got: &Matrix, want: &[f32], what: &str) {
    assert_eq!(got.as_slice().len(), want.len(), "{what}: length");
    for (e, (g, w)) in got.as_slice().iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {e} is {g}, reference {w}"
        );
    }
}

#[test]
fn blocked_transb_is_one_dot_per_element() {
    let pool = ThreadPool::new(3);
    for (s, &(batch, n_in, n_out)) in SHAPES.iter().enumerate() {
        let (_, w, dy) = operands(batch, n_in, n_out, s as u64);
        let want = transb_reference(&dy, &w);
        let mut out = Matrix::default();
        dy.matmul_transb_into(&w, &mut out);
        assert_bits(&out, &want, &format!("dY·Wᵀ {batch}×{n_out}×{n_in}"));
        dy.matmul_transb_into_with(&w, &mut out, &pool);
        assert_bits(
            &out,
            &want,
            &format!("dY·Wᵀ {batch}×{n_out}×{n_in} on 3 threads"),
        );
    }
}

#[test]
fn blocked_transa_replays_the_serial_row_walk() {
    let pool = ThreadPool::new(3);
    for (s, &(batch, n_in, n_out)) in SHAPES.iter().enumerate() {
        let (x, _, dy) = operands(batch, n_in, n_out, 100 + s as u64);
        let want = transa_reference(&x, &dy);
        let mut out = Matrix::default();
        x.matmul_transa_into(&dy, &mut out);
        assert_bits(&out, &want, &format!("Xᵀ·dY {n_in}×{batch}×{n_out}"));
        x.matmul_transa_into_with(&dy, &mut out, &pool);
        assert_bits(
            &out,
            &want,
            &format!("Xᵀ·dY {n_in}×{batch}×{n_out} on 3 threads"),
        );
    }
}

#[test]
fn epilogue_is_the_serial_bias_loop_then_the_activation() {
    // 151 × 217 = PAR_MIN_FLOPS − 1 runs serially, 128 × 256 on the pool.
    assert_eq!(151 * 217, PAR_MIN_FLOPS - 1);
    assert_eq!(128 * 256, PAR_MIN_FLOPS);
    let acts = [
        ("tanh", f32::tanh as fn(f32) -> f32),
        ("identity", |x| x),
        ("relu", |x| x.max(0.0)),
    ];
    for (s, (rows, cols)) in [(151, 217), (128, 256)].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(200 + s as u64);
        let pre = Matrix::from_fn(rows, cols, |_, _| 3.0 * value(&mut rng));
        let bias: Vec<f32> = (0..cols).map(|_| value(&mut rng)).collect();
        for (name, act) in acts {
            let mut want = pre.clone();
            for r in 0..rows {
                for (v, &b) in want.row_mut(r).iter_mut().zip(&bias) {
                    *v += b;
                }
            }
            want.map_inplace(act);
            let mut got = pre.clone();
            got.bias_then(&bias, act);
            assert_bits(
                &got,
                want.as_slice(),
                &format!("{name} epilogue at {rows}×{cols}"),
            );
        }
    }
}
