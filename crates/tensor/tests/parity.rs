//! Serial-vs-parallel bit-parity for the sharded `*_into` kernels.
//!
//! The determinism story of the training hot path rests on one property:
//! dispatching a kernel across a thread pool must produce **bit-identical**
//! output to the serial kernel — not merely close. Row shards write disjoint
//! output regions and perform the serial operation sequence within each
//! region (GEMM shards additionally align to the 2-row register tile so the
//! all-zero-tile skip decisions match), so equality must hold exactly, for
//! every thread count, on every shape — including empty and 1-row inputs.

use std::sync::OnceLock;

use fvae_pool::ThreadPool;
use fvae_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Thread counts the issue pins: serial-equivalent, even, pow2, and an odd
/// count that exercises ragged shard boundaries.
const THREADS: [usize; 4] = [1, 2, 4, 7];

fn pools() -> &'static Vec<ThreadPool> {
    static POOLS: OnceLock<Vec<ThreadPool>> = OnceLock::new();
    POOLS.get_or_init(|| THREADS.iter().map(|&t| ThreadPool::new(t)).collect())
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    // A sprinkling of exact zeros exercises the zero-skip fast paths, whose
    // shard-boundary behaviour is the subtle part of GEMM bit-parity.
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.random_range(0..4) == 0 { 0.0 } else { rng.random_range(-1.0f32..1.0) }
    })
}

fn assert_bits_equal(
    got: &Matrix,
    want: &Matrix,
    threads: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape());
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        prop_assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "element {} differs at {} threads: {} vs serial {}",
            i,
            threads,
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    /// `matmul_into` sharded over 2-aligned row blocks equals serial
    /// bit-for-bit. Shapes stay under the parallel-dispatch threshold so the
    /// plain call is the serial reference.
    #[test]
    fn matmul_sharded_is_bit_identical(
        m in 0usize..24, k in 0usize..24, n in 0usize..24, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let mut want = Matrix::full(3, 7, 42.0);
        a.matmul_into(&b, &mut want);
        for (pool, &t) in pools().iter().zip(&THREADS) {
            let mut got = Matrix::full(5, 2, -1.0);
            a.matmul_into_with(&b, &mut got, pool);
            assert_bits_equal(&got, &want, t)?;
        }
    }

    /// `matmul_transb_into` (independent dots) equals serial bit-for-bit.
    #[test]
    fn matmul_transb_sharded_is_bit_identical(
        m in 0usize..24, k in 0usize..24, n in 0usize..24, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(n, k, &mut rng);
        let mut want = Matrix::default();
        a.matmul_transb_into(&b, &mut want);
        for (pool, &t) in pools().iter().zip(&THREADS) {
            let mut got = Matrix::full(1, 9, 7.0);
            a.matmul_transb_into_with(&b, &mut got, pool);
            assert_bits_equal(&got, &want, t)?;
        }
    }

    /// `matmul_transa_into` sharded over output rows equals serial
    /// bit-for-bit: every shard streams all batch-row pairs in serial order.
    #[test]
    fn matmul_transa_sharded_is_bit_identical(
        p in 0usize..24, m in 0usize..24, n in 0usize..24, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(p, m, &mut rng);
        let b = random_matrix(p, n, &mut rng);
        let mut want = Matrix::default();
        a.matmul_transa_into(&b, &mut want);
        for (pool, &t) in pools().iter().zip(&THREADS) {
            let mut got = Matrix::full(2, 2, 0.5);
            a.matmul_transa_into_with(&b, &mut got, pool);
            assert_bits_equal(&got, &want, t)?;
        }
    }

    /// Large shapes cross the dispatch threshold in the *default* entry
    /// points; the result must still match a forced single-thread pool run.
    #[test]
    fn threshold_crossing_does_not_change_bits(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(67, 33, &mut rng);
        let b = random_matrix(33, 41, &mut rng);
        let mut auto = Matrix::default();
        a.matmul_into(&b, &mut auto); // 67·33·41 ≥ threshold → pooled path
        let mut serial = Matrix::default();
        a.matmul_into_with(&b, &mut serial, &pools()[0]);
        for (g, w) in auto.as_slice().iter().zip(serial.as_slice()) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}
