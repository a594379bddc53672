//! SIMD-vs-scalar parity for the dispatched micro-kernels.
//!
//! The scalar backend is the numeric reference (its loop bodies are the
//! exact pre-SIMD kernels, so `FVAE_SIMD=0` reproduces historical bits).
//! SIMD backends legitimately reassociate — FMA contraction and wider
//! accumulator trees — so f32 parity is **error-bounded**, with the bound
//! scaled by the sum of absolute term magnitudes (the quantity rounding
//! error is actually proportional to). A dropped tail element, a shifted
//! lane, or an off-by-one in remainder handling perturbs the result by the
//! magnitude of a whole term — orders above the bound — so the tolerance
//! still pins indexing bugs hard.
//!
//! `dot_i8` and `dot_i8x4` accumulate in exact i32 arithmetic, which is
//! associative, so their parity is plain equality on every backend. The
//! register tiles add no operation of their own, so they are held to
//! `to_bits` equality with the kernels they replace on the same backend:
//! `dot3` with three `dot` calls, `dot3x4` with twelve, `fused6x16` with
//! one `axpy` per step and row.
//!
//! Shapes deliberately sweep the awkward cases: empty, shorter than one
//! SIMD lane, straddling lane multiples, and slices starting at unaligned
//! offsets (the kernels must not assume 32-byte alignment). On hardware
//! where `detected()` is already the scalar backend, every comparison
//! collapses to exact self-parity — still a valid (if weaker) run.

use fvae_tensor::simd;
use proptest::prelude::*;

/// Lane-boundary lengths every property must cover, padded by random ones.
const EDGE_LENS: [usize; 12] = [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63];

/// Buffer size backing every generated slice: max length + max offset.
const BUF: usize = 204;

fn pick_len(sel: usize, rnd: usize) -> usize {
    if sel < EDGE_LENS.len() { EDGE_LENS[sel] } else { rnd }
}

/// Scale-aware tolerance: `rel` of the total absolute term magnitude.
fn tol(abs_terms: f32) -> f32 {
    1e-5 * abs_terms + 1e-7
}

/// Sprinkles exact zeros (the GEMM callers feed kernels zero coefficients
/// through their skip-path boundaries, so zeros must behave).
fn zero_sprinkle(v: &mut [f32], zbits: u64) {
    for (i, x) in v.iter_mut().enumerate() {
        if (zbits >> (i % 64)) & 1 == 1 && i % 3 == 0 {
            *x = 0.0;
        }
    }
}

fn fvec() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-4.0f32..4.0, BUF..BUF + 1)
}

fn ivec() -> impl Strategy<Value = Vec<i32>> {
    proptest::collection::vec(-128i32..128, BUF..BUF + 1)
}

proptest! {
    #[test]
    fn dot_matches_scalar_within_rounding(
        sel in 0usize..18,
        rnd in 0usize..200,
        off in 0usize..4,
        zbits in any::<u64>(),
        mut a_full in fvec(),
        mut b_full in fvec(),
    ) {
        let len = pick_len(sel, rnd);
        zero_sprinkle(&mut a_full, zbits);
        zero_sprinkle(&mut b_full, zbits.rotate_left(17));
        let a = &a_full[off..off + len];
        let b = &b_full[off..off + len];
        let scalar = (simd::scalar().dot)(a, b);
        let fast = (simd::detected().dot)(a, b);
        let abs: f32 = a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum();
        prop_assert!(
            (fast - scalar).abs() <= tol(abs),
            "len {} off {}: simd {} vs scalar {} (budget {})",
            len, off, fast, scalar, tol(abs)
        );
    }

    #[test]
    fn axpy_matches_scalar_within_rounding(
        sel in 0usize..18,
        rnd in 0usize..200,
        off in 0usize..4,
        alpha in -4.0f32..4.0,
        x_full in fvec(),
        y_full in fvec(),
    ) {
        let len = pick_len(sel, rnd);
        let x = &x_full[off..off + len];
        let mut y_scalar = y_full[off..off + len].to_vec();
        let mut y_fast = y_scalar.clone();
        (simd::scalar().axpy)(alpha, x, &mut y_scalar);
        (simd::detected().axpy)(alpha, x, &mut y_fast);
        for i in 0..len {
            let abs = y_full[off + i].abs() + (alpha * x[i]).abs();
            prop_assert!(
                (y_fast[i] - y_scalar[i]).abs() <= tol(abs),
                "len {} off {} elem {}: simd {} vs scalar {}",
                len, off, i, y_fast[i], y_scalar[i]
            );
        }
    }

    #[test]
    fn fused_gemm_tiles_match_scalar_within_rounding(
        sel in 0usize..18,
        rnd in 0usize..200,
        off in 0usize..4,
        cv in proptest::collection::vec(-4.0f32..4.0, 8..9),
        b0f in fvec(),
        b1f in fvec(),
        b2f in fvec(),
        b3f in fvec(),
        o0f in fvec(),
        o1f in fvec(),
    ) {
        let len = pick_len(sel, rnd);
        let c: [f32; 8] = cv.as_slice().try_into().unwrap();
        let b = [&b0f[off..off + len], &b1f[off..off + len], &b2f[off..off + len], &b3f[off..off + len]];
        // Per-element error budget: every term that touches out[i], both rows.
        let budget: Vec<f32> = (0..len)
            .map(|i| {
                (0..4).map(|j| (c[j] * b[j][i]).abs() + (c[4 + j] * b[j][i]).abs()).sum::<f32>()
                    + o0f[off + i].abs()
                    + o1f[off + i].abs()
            })
            .collect();

        let run2 = |f: simd::Fused2x4Fn| {
            let mut o0 = o0f[off..off + len].to_vec();
            let mut o1 = o1f[off..off + len].to_vec();
            f(&c, b[0], b[1], b[2], b[3], &mut o0, &mut o1);
            (o0, o1)
        };
        let (s0, s1) = run2(simd::scalar().fused2x4);
        let (f0, f1) = run2(simd::detected().fused2x4);
        for i in 0..len {
            prop_assert!((f0[i] - s0[i]).abs() <= tol(budget[i]), "fused2x4 out0 elem {}", i);
            prop_assert!((f1[i] - s1[i]).abs() <= tol(budget[i]), "fused2x4 out1 elem {}", i);
        }

        let run21 = |f: fn(f32, f32, &[f32], &mut [f32], &mut [f32])| {
            let mut o0 = o0f[off..off + len].to_vec();
            let mut o1 = o1f[off..off + len].to_vec();
            f(c[0], c[4], b[0], &mut o0, &mut o1);
            (o0, o1)
        };
        let (s0, s1) = run21(simd::scalar().fused2x1);
        let (f0, f1) = run21(simd::detected().fused2x1);
        for i in 0..len {
            prop_assert!((f0[i] - s0[i]).abs() <= tol(budget[i]), "fused2x1 out0 elem {}", i);
            prop_assert!((f1[i] - s1[i]).abs() <= tol(budget[i]), "fused2x1 out1 elem {}", i);
        }

        let c4 = [c[0], c[1], c[2], c[3]];
        let run14 = |f: simd::Fused1x4Fn| {
            let mut o = o0f[off..off + len].to_vec();
            f(&c4, b[0], b[1], b[2], b[3], &mut o);
            o
        };
        let s = run14(simd::scalar().fused1x4);
        let f = run14(simd::detected().fused1x4);
        for i in 0..len {
            prop_assert!((f[i] - s[i]).abs() <= tol(budget[i]), "fused1x4 elem {}", i);
        }

        let run12 = |f: fn(f32, f32, &[f32], &[f32], &mut [f32])| {
            let mut o = o0f[off..off + len].to_vec();
            f(c[0], c[1], b[0], b[1], &mut o);
            o
        };
        let s = run12(simd::scalar().fused1x2);
        let f = run12(simd::detected().fused1x2);
        for i in 0..len {
            prop_assert!((f[i] - s[i]).abs() <= tol(budget[i]), "fused1x2 elem {}", i);
        }
    }

    #[test]
    fn dot_i8_is_bit_exact_on_every_backend(
        sel in 0usize..18,
        rnd in 0usize..200,
        off in 0usize..4,
        a_raw in ivec(),
        b_raw in ivec(),
    ) {
        let len = pick_len(sel, rnd);
        let a: Vec<i8> = a_raw[off..off + len].iter().map(|&v| v as i8).collect();
        let b: Vec<i8> = b_raw[off..off + len].iter().map(|&v| v as i8).collect();
        prop_assert_eq!(
            (simd::detected().dot_i8)(&a, &b),
            (simd::scalar().dot_i8)(&a, &b),
            "integer accumulation must be exact (len {}, off {})", len, off
        );
    }

    #[test]
    fn dot_i8x4_is_bit_exact_and_matches_four_single_dots(
        sel in 0usize..18,
        rnd in 0usize..200,
        off in 0usize..4,
        x0_raw in ivec(),
        x1_raw in ivec(),
        x2_raw in ivec(),
        x3_raw in ivec(),
        w_raw in ivec(),
    ) {
        let len = pick_len(sel, rnd);
        // x rows arrive pre-widened to i16 (the caller contract); the
        // shared weight row stays i8.
        let widen = |raw: &[i32]| -> Vec<i16> {
            raw[off..off + len].iter().map(|&v| v as i8 as i16).collect()
        };
        let xs = [widen(&x0_raw), widen(&x1_raw), widen(&x2_raw), widen(&x3_raw)];
        let w: Vec<i8> = w_raw[off..off + len].iter().map(|&v| v as i8).collect();
        let fast = (simd::detected().dot_i8x4)(&xs[0], &xs[1], &xs[2], &xs[3], &w);
        let slow = (simd::scalar().dot_i8x4)(&xs[0], &xs[1], &xs[2], &xs[3], &w);
        prop_assert_eq!(fast, slow, "tile accumulation must be exact (len {}, off {})", len, off);
        // And each lane must agree with the single-row i8 dot on the same data.
        for (r, x) in xs.iter().enumerate() {
            let x8: Vec<i8> = x.iter().map(|&v| v as i8).collect();
            prop_assert_eq!(
                slow[r],
                (simd::scalar().dot_i8)(&x8, &w),
                "tile row {} must equal the single-row dot (len {})", r, len
            );
        }
    }

    #[test]
    fn dot3_is_bit_exact_and_matches_three_single_dots(
        sel in 0usize..18,
        rnd in 0usize..200,
        off in 0usize..4,
        zbits in any::<u64>(),
        mut a0_full in fvec(),
        a1_full in fvec(),
        a2_full in fvec(),
        b_full in fvec(),
    ) {
        let len = pick_len(sel, rnd);
        zero_sprinkle(&mut a0_full, zbits);
        let rows = [&a0_full[off..off + len], &a1_full[off..off + len], &a2_full[off..off + len]];
        let b = &b_full[off..off + len];
        for k in [simd::scalar(), simd::detected()] {
            let three = (k.dot3)(rows[0], rows[1], rows[2], b);
            for (r, row) in rows.iter().enumerate() {
                let one = (k.dot)(row, b);
                prop_assert_eq!(
                    three[r].to_bits(), one.to_bits(),
                    "{} dot3 row {} is {}, dot {} (len {}, off {})", k.name, r, three[r], one, len, off
                );
            }
        }
    }

    #[test]
    fn dot3x4_is_twelve_single_dots(
        sel in 0usize..18,
        rnd in 0usize..200,
        off in 0usize..4,
        zbits in any::<u64>(),
        mut a0_full in fvec(),
        a1_full in fvec(),
        a2_full in fvec(),
        b0_full in fvec(),
        b1_full in fvec(),
    ) {
        let len = pick_len(sel, rnd);
        zero_sprinkle(&mut a0_full, zbits);
        let s = |v: &[f32]| v[off..off + len].to_vec();
        let a = [s(&a0_full), s(&a1_full), s(&a2_full)];
        // The third and fourth `b` rows are the first two reversed, so all
        // four differ without two more 204-float draws.
        let rev = |v: &[f32]| v.iter().rev().copied().collect::<Vec<f32>>();
        let b = [s(&b0_full), s(&b1_full), s(&rev(&b0_full)), s(&rev(&b1_full))];
        for k in [simd::scalar(), simd::detected()] {
            let Some(tile) = k.dot3x4 else { continue };
            let twelve = tile([&a[0], &a[1], &a[2]], [&b[0], &b[1], &b[2], &b[3]]);
            for (r, ar) in a.iter().enumerate() {
                for (c, bc) in b.iter().enumerate() {
                    let one = (k.dot)(ar, bc);
                    prop_assert_eq!(
                        twelve[r][c].to_bits(), one.to_bits(),
                        "{} dot3x4 ({}, {}) is {}, dot {} (len {}, off {})", k.name, r, c, twelve[r][c], one, len, off
                    );
                }
            }
        }
    }

    #[test]
    fn fused6x16_is_one_axpy_per_step_and_row(
        kb in 0usize..40,
        rs in 1usize..12,
        cs in 1usize..12,
        zbits in any::<u64>(),
        mut a_full in proptest::collection::vec(-4.0f32..4.0, 600..601),
        b_full in fvec(),
        o_full in fvec(),
    ) {
        zero_sprinkle(&mut a_full, zbits);
        // Coefficient `(r, p)` at `a[r·rs + p·cs]`, with `rs` and `cs`
        // either way round (the `A·B` and `Aᵀ·B` layouts); output rows 19
        // apart, so the tile writes no element it does not own.
        let (rs, cs) = if zbits % 2 == 0 { (rs, cs) } else { (cs, rs) };
        let b: Vec<f32> = (0..kb * 16).map(|i| b_full[i % BUF]).collect();
        let a = &a_full[..5 * rs + kb.max(1) * cs];
        let ld = 19;
        for k in [simd::scalar(), simd::detected()] {
            let Some(tile) = k.fused6x16 else { continue };
            let mut got = o_full[..5 * ld + 16].to_vec();
            let mut want = got.clone();
            tile(a, rs, cs, &b, &mut got, ld);
            for p in 0..kb {
                for r in 0..6 {
                    let row = &mut want[r * ld..r * ld + 16];
                    (k.axpy)(a[r * rs + p * cs], &b[p * 16..(p + 1) * 16], row);
                }
            }
            for (e, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{} tile element {} is {}, axpy chain {} (kb {})", k.name, e, g, w, kb);
            }
        }
    }
}
