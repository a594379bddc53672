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
//! * the epilogue: a serial bias loop, then a serial activation loop (for
//!   `bias_tanh`, a serial map of the scalar port `simd::tanh`).
//!
//! The shapes straddle the kernels' row groups, column panels and row
//! blocks, include odd batches and widths off the 8-lane SIMD width, and
//! one layer of the dense benchmark's size (256 × 1024 × 512).
//!
//! The register tiles (`fused6x16` for `A · B` and `Aᵀ · B`, `dot3x4` and
//! `dot3` for `A · Bᵀ`) are held to the same references on shapes cut at their edges:
//! `A · B` to its 2-row loops (`fused2x4` over 4-step panels, `fused2x1`
//! for the k remainder, `fused1x4` / `axpy` for an odd last row, with the
//! same zero skips), on pools whose shards start inside a run of tiles.

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

#[test]
fn tanh_epilogue_is_the_serial_bias_loop_then_the_port() {
    // The same two shapes: 151 × 217 serial, 128 × 256 on the pool.
    for (s, (rows, cols)) in [(151, 217), (128, 256)].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(300 + s as u64);
        let pre = Matrix::from_fn(rows, cols, |_, _| 12.0 * value(&mut rng));
        let bias: Vec<f32> = (0..cols).map(|_| value(&mut rng)).collect();
        let mut want = pre.clone();
        for r in 0..rows {
            for (v, &b) in want.row_mut(r).iter_mut().zip(&bias) {
                *v += b;
            }
        }
        want.map_inplace(simd::tanh);
        let mut got = pre.clone();
        got.bias_tanh(&bias);
        assert_bits(&got, want.as_slice(), &format!("tanh epilogue at {rows}×{cols}"));
    }
}

/// `(m, k, n)` cut at the register tiles' edges: `m` around the 6-row
/// tile, `k` off the 4-step panel grid and past one 256-step k block, and
/// `n` with a half strip (`n % 16 == 8`), a scalar tail (`n % 8 != 0`) or
/// no whole strip at all (`n < 16`).
const TILE_SHAPES: [(usize, usize, usize); 10] = [
    (1, 7, 24),
    (5, 13, 5),
    (6, 259, 24),
    (6, 4, 16),
    (7, 517, 53),
    (13, 259, 72),
    (13, 30, 40),
    (20, 300, 37),
    (256, 517, 40),
    (256, 130, 128),
];

/// An exact `0.0` or `-0.0` one draw in 64, else a value in `[-1, 1)`:
/// sparse enough that many 6-row tiles take no zero skip over a whole
/// k block, so both the register path and the loops run.
fn rare_zero(rng: &mut StdRng) -> f32 {
    match rng.random_range(0..128) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.random_range(-1.0f32..1.0),
    }
}

/// `±∞` in every fifth column, sign by row, else [`rare_zero`].
fn infinite_at(c: usize, r: usize, rng: &mut StdRng) -> f32 {
    if c % 5 == 1 {
        [f32::INFINITY, f32::NEG_INFINITY][r % 2]
    } else {
        rare_zero(rng)
    }
}

/// `A · B` operands, `A: m × k`, `B: k × n`. Rows 6 and 7 of `A` (the
/// second tile's first pair) are zero over the panel `4..8`, so that pair
/// skips it, and `B` rows `4..8` carry infinities: a tile that skipped on
/// the register path would turn `0 · ∞` into a NaN the reference lacks.
fn ab_operands(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::from_fn(m, k, |r, c| {
        if (r == 6 || r == 7) && (4..8).contains(&c) {
            [0.0, -0.0][c % 2]
        } else {
            rare_zero(&mut rng)
        }
    });
    let b = Matrix::from_fn(k, n, |r, c| {
        if (4..8).contains(&r) {
            infinite_at(c, r, &mut rng)
        } else {
            rare_zero(&mut rng)
        }
    });
    (a, b)
}

/// `Aᵀ · B` operands, `X: batch × m`, `dY: batch × n`. Batch rows 2 and 3
/// of `X` are zero in columns `6..12` only (the second output tile), and
/// `dY` rows 2 and 3 carry infinities, so that tile skips the pair and the
/// others do not.
fn transa_tile_operands(batch: usize, m: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Matrix::from_fn(batch, m, |r, c| {
        if (r == 2 || r == 3) && (6..12).contains(&c) {
            [0.0, -0.0][c % 2]
        } else {
            rare_zero(&mut rng)
        }
    });
    let dy = Matrix::from_fn(batch, n, |r, c| {
        if r == 2 || r == 3 {
            infinite_at(c, r, &mut rng)
        } else {
            rare_zero(&mut rng)
        }
    });
    (x, dy)
}

/// The 2-row loops of `A · B`, every row pair and panel over the full `k`
/// and width, with their zero skips.
fn ab_reference(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let ks = simd::active();
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    let mut i = 0;
    while i + 2 <= m {
        let (out0, out1) = out[i * n..(i + 2) * n].split_at_mut(n);
        let (a0, a1) = (a.row(i), a.row(i + 1));
        let mut p = 0;
        while p + 4 <= k {
            let c = [a0[p], a0[p + 1], a0[p + 2], a0[p + 3], a1[p], a1[p + 1], a1[p + 2], a1[p + 3]];
            if c != [0.0; 8] {
                (ks.fused2x4)(&c, b.row(p), b.row(p + 1), b.row(p + 2), b.row(p + 3), out0, out1);
            }
            p += 4;
        }
        while p < k {
            if a0[p] != 0.0 || a1[p] != 0.0 {
                (ks.fused2x1)(a0[p], a1[p], b.row(p), out0, out1);
            }
            p += 1;
        }
        i += 2;
    }
    if i < m {
        let out_row = &mut out[i * n..];
        let a_row = a.row(i);
        let mut p = 0;
        while p + 4 <= k {
            let c = [a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]];
            if c != [0.0; 4] {
                (ks.fused1x4)(&c, b.row(p), b.row(p + 1), b.row(p + 2), b.row(p + 3), out_row);
            }
            p += 4;
        }
        while p < k {
            if a_row[p] != 0.0 {
                (ks.axpy)(a_row[p], b.row(p), out_row);
            }
            p += 1;
        }
    }
    out
}

fn pools() -> [(usize, ThreadPool); 3] {
    [1, 2, 3].map(|t| (t, ThreadPool::new(t)))
}

#[test]
fn ab_tiles_replay_the_two_row_loops() {
    let pools = pools();
    for (s, &(m, k, n)) in TILE_SHAPES.iter().enumerate() {
        let (a, b) = ab_operands(m, k, n, 300 + s as u64);
        let want = ab_reference(&a, &b);
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        assert_bits(&out, &want, &format!("A·B {m}×{k}×{n}"));
        for (t, pool) in &pools {
            a.matmul_into_with(&b, &mut out, pool);
            assert_bits(&out, &want, &format!("A·B {m}×{k}×{n} on {t} threads"));
        }
    }
}

#[test]
fn transa_tiles_replay_the_serial_row_walk() {
    let pools = pools();
    // `(m, batch, n)`: the output is `m × n`, and the batch is the tile's k.
    for (s, &(m, batch, n)) in TILE_SHAPES.iter().enumerate() {
        for (v, (x, dy)) in [transa_tile_operands(batch, m, n, 400 + s as u64), {
            let (x, _, dy) = operands(batch, m, n, 500 + s as u64);
            (x, dy)
        }]
        .into_iter()
        .enumerate()
        {
            let want = transa_reference(&x, &dy);
            let mut out = Matrix::default();
            x.matmul_transa_into(&dy, &mut out);
            assert_bits(&out, &want, &format!("Xᵀ·dY {m}×{batch}×{n} ({v})"));
            for (t, pool) in &pools {
                x.matmul_transa_into_with(&dy, &mut out, pool);
                assert_bits(&out, &want, &format!("Xᵀ·dY {m}×{batch}×{n} ({v}) on {t} threads"));
            }
        }
    }
}

#[test]
fn transb_three_dots_are_one_dot_per_element() {
    let pools = pools();
    // `(m, k, n)`: `dY: m × k` against `W: n × k`, three `dY` rows a call.
    for (s, &(m, k, n)) in TILE_SHAPES.iter().enumerate() {
        let (dy, w) = ab_operands(m, k, n, 600 + s as u64);
        let w = w.transpose();
        let want = transb_reference(&dy, &w);
        let mut out = Matrix::default();
        dy.matmul_transb_into(&w, &mut out);
        assert_bits(&out, &want, &format!("dY·Wᵀ {m}×{k}×{n}"));
        for (t, pool) in &pools {
            dy.matmul_transb_into_with(&w, &mut out, pool);
            assert_bits(&out, &want, &format!("dY·Wᵀ {m}×{k}×{n} on {t} threads"));
        }
    }
}
