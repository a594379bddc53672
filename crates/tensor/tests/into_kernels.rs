//! Property tests for the `*_into` kernels: the cache-blocked, register-tiled
//! implementations must agree with a naive triple-loop reference (within
//! float-reassociation tolerance) and with their allocating wrappers
//! (exactly), across arbitrary shapes — including empty and 1×N — and when
//! writing into dirty, previously-used output buffers.

use fvae_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0f32..1.0))
}

/// Naive reference: `out[i][j] = Σ_k a[i][k]·b[k][j]`.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn assert_close(
    got: &Matrix,
    want: &Matrix,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape());
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        prop_assert!(
            (g - w).abs() <= 1e-5 * w.abs().max(1.0),
            "kernel {} vs reference {}",
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    /// The tiled GEMM matches the naive triple loop, on shapes from empty
    /// (any dim zero) through 1×N up to past the 2×4 register-tile bounds.
    #[test]
    fn matmul_into_matches_naive(
        m in 0usize..10, k in 0usize..10, n in 0usize..10, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        // Dirty output buffer: wrong shape, stale values.
        let mut out = Matrix::full(3, 7, 42.0);
        a.matmul_into(&b, &mut out);
        assert_close(&out, &naive_matmul(&a, &b))?;
        // The allocating wrapper is a thin shim over the same kernel.
        prop_assert_eq!(&a.matmul(&b), &out);
    }

    /// `Aᵀ·B` via the transposed-A kernel equals materializing `Aᵀ` first.
    #[test]
    fn matmul_transa_into_matches_naive(
        m in 0usize..10, k in 0usize..10, n in 0usize..10, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let a = random_matrix(k, m, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let mut out = Matrix::full(2, 9, -3.0);
        a.matmul_transa_into(&b, &mut out);
        assert_close(&out, &naive_matmul(&a.transpose(), &b))?;
        prop_assert_eq!(&a.matmul_transa(&b), &out);
    }

    /// `A·Bᵀ` via the transposed-B kernel equals materializing `Bᵀ` first.
    #[test]
    fn matmul_transb_into_matches_naive(
        m in 0usize..10, k in 0usize..10, n in 0usize..10, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(n, k, &mut rng);
        let mut out = Matrix::full(1, 1, 7.0);
        a.matmul_transb_into(&b, &mut out);
        assert_close(&out, &naive_matmul(&a, &b.transpose()))?;
        prop_assert_eq!(&a.matmul_transb(&b), &out);
    }

    /// Column sums match a per-column scalar loop.
    #[test]
    fn col_sums_into_matches_naive(
        m in 0usize..12, n in 0usize..12, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(4));
        let a = random_matrix(m, n, &mut rng);
        let mut out = vec![-1.0f32; 3];
        a.col_sums_into(&mut out);
        prop_assert_eq!(out.len(), n);
        for (c, o) in out.iter().enumerate() {
            let want: f32 = (0..m).map(|r| a.get(r, c)).sum();
            prop_assert!((o - want).abs() <= 1e-5 * want.abs().max(1.0));
        }
        prop_assert_eq!(&a.col_sums(), &out);
    }

    /// Reusing one output buffer across two different batch sizes (grow then
    /// shrink) produces exactly the same results as fresh buffers each time.
    #[test]
    fn reused_buffers_match_fresh_across_batch_sizes(
        b1 in 1usize..8, b2 in 1usize..8, k in 1usize..8, n in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(5));
        let x1 = random_matrix(b1, k, &mut rng);
        let x2 = random_matrix(b2, k, &mut rng);
        let w = random_matrix(k, n, &mut rng);
        let mut out = Matrix::zeros(0, 0);
        x1.matmul_into(&w, &mut out);
        prop_assert_eq!(&out, &x1.matmul(&w));
        x2.matmul_into(&w, &mut out);
        prop_assert_eq!(&out, &x2.matmul(&w));
    }
}
