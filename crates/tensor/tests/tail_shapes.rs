//! Exhaustive tail-shape sweep for the tiled GEMM kernels.
//!
//! The register-tiled kernels split every dimension into a main loop and a
//! remainder: GEMM walks 2-row × 4-k tiles with per-dimension tails.
//! Off-by-ones in those boundaries
//! only bite at small or awkward shapes, so this sweep runs **every**
//! combination of m ∈ 0..5, k ∈ 0..9, n ∈ {0, 1, 7, 8, 9, 15, 16, 17}
//! against a naive f64 triple-loop reference — each tail interaction
//! (m-tail × k-tail × n straddling the SIMD lane) is hit explicitly rather
//! than sampled. Backend-independent: whatever `simd::active()` resolved
//! to must agree with the f64 reference within rounding.

use fvae_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const MS: [usize; 6] = [0, 1, 2, 3, 4, 5];
const KS: [usize; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 8];
const NS: [usize; 8] = [0, 1, 7, 8, 9, 15, 16, 17];

fn filled(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    // Exact zeros included: the GEMM fast paths skip all-zero coefficient
    // tiles, and those skip decisions are part of the tail logic.
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.random_range(0..5) == 0 { 0.0 } else { rng.random_range(-2.0f32..2.0) }
    })
}

/// Naive f64 reference: `op(a[i][p]) · op(b[p][j])` with index mapping
/// chosen by the caller.
fn naive(m: usize, n: usize, k: usize, a: impl Fn(usize, usize) -> f64, b: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    let mut out = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a(i, p) * b(p, j);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn assert_close(got: &Matrix, want: &[f64], k: usize, label: &str) {
    assert_eq!(got.as_slice().len(), want.len(), "{label}: shape");
    for (i, (&g, &w)) in got.as_slice().iter().zip(want).enumerate() {
        // Rounding budget: k accumulated f32 products of magnitude ≤ 4.
        let tol = 1e-5 * (k as f64 + 1.0) * 4.0 + 1e-6;
        assert!(
            (g as f64 - w).abs() <= tol,
            "{label}: element {i} got {g} want {w} (k={k})"
        );
    }
}

#[test]
fn gemm_variants_match_naive_reference_on_every_tail_shape() {
    let mut rng = StdRng::seed_from_u64(0x7A11);
    for &m in &MS {
        for &k in &KS {
            for &n in &NS {
                // matmul: (m×k)·(k×n)
                let a = filled(m, k, &mut rng);
                let b = filled(k, n, &mut rng);
                let mut out = Matrix::default();
                a.matmul_into(&b, &mut out);
                let want = naive(m, n, k, |i, p| a.row(i)[p] as f64, |p, j| b.row(p)[j] as f64);
                assert_close(&out, &want, k, &format!("matmul {m}x{k}x{n}"));

                // matmul_transb: (m×k)·(n×k)ᵀ
                let bt = filled(n, k, &mut rng);
                a.matmul_transb_into(&bt, &mut out);
                let want = naive(m, n, k, |i, p| a.row(i)[p] as f64, |p, j| bt.row(j)[p] as f64);
                assert_close(&out, &want, k, &format!("matmul_transb {m}x{k}x{n}"));

                // matmul_transa: (k×m)ᵀ·(k×n) — the tiled rank-2 update walk.
                let at = filled(k, m, &mut rng);
                at.matmul_transa_into(&b, &mut out);
                let want = naive(m, n, k, |i, p| at.row(p)[i] as f64, |p, j| b.row(p)[j] as f64);
                assert_close(&out, &want, k, &format!("matmul_transa {m}x{k}x{n}"));
            }
        }
    }
}
