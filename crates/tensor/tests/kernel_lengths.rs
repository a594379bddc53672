//! Every entry of every kernel table refuses slices of mismatched lengths
//! with a panic, on every backend alike.
//!
//! The SIMD bodies index raw pointers by one shared length, so before the
//! length check was a real `assert!` a short slice in a release build was
//! read or written out of bounds from safe code. Run this binary in release
//! too: `cargo test --release -p fvae-tensor --test kernel_lengths`.

use fvae_tensor::simd::{self, Kernels};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn backends() -> [&'static Kernels; 2] {
    [simd::scalar(), simd::detected()]
}

fn assert_refused(entry: &str, k: &Kernels, call: impl FnOnce()) {
    let refused = catch_unwind(AssertUnwindSafe(call)).is_err();
    assert!(refused, "{entry} on {} accepted slices of different lengths", k.name);
}

#[test]
fn dot_refuses_mismatched_lengths() {
    let (long, short) = (vec![1.0f32; 16], vec![1.0f32; 4]);
    for k in backends() {
        assert_refused("dot", k, || {
            (k.dot)(&long, &short);
        });
    }
}

#[test]
fn axpy_refuses_mismatched_lengths() {
    let x = vec![1.0f32; 4];
    for k in backends() {
        let mut y = vec![0.0f32; 16];
        assert_refused("axpy", k, || (k.axpy)(1.0, &x, &mut y));
    }
}

#[test]
fn fused2x4_refuses_mismatched_lengths() {
    let b = vec![1.0f32; 16];
    for k in backends() {
        let (mut out0, mut out1) = (vec![0.0f32; 16], vec![0.0f32; 3]);
        assert_refused("fused2x4", k, || (k.fused2x4)(&[1.0; 8], &b, &b, &b, &b, &mut out0, &mut out1));
    }
}

#[test]
fn fused2x1_refuses_mismatched_lengths() {
    let b = vec![1.0f32; 16];
    for k in backends() {
        let (mut out0, mut out1) = (vec![0.0f32; 16], vec![0.0f32; 3]);
        assert_refused("fused2x1", k, || (k.fused2x1)(1.0, 1.0, &b, &mut out0, &mut out1));
    }
}

#[test]
fn fused1x4_refuses_mismatched_lengths() {
    let (b, short) = (vec![1.0f32; 16], vec![1.0f32; 5]);
    for k in backends() {
        let mut out = vec![0.0f32; 16];
        assert_refused("fused1x4", k, || (k.fused1x4)(&[1.0; 4], &b, &b, &b, &short, &mut out));
    }
}

#[test]
fn fused1x2_refuses_mismatched_lengths() {
    let (b, short) = (vec![1.0f32; 16], vec![1.0f32; 2]);
    for k in backends() {
        let mut out = vec![0.0f32; 16];
        assert_refused("fused1x2", k, || (k.fused1x2)(1.0, 1.0, &short, &b, &mut out));
    }
}

#[test]
fn dot_i8_refuses_mismatched_lengths() {
    let (long, short) = (vec![1i8; 48], vec![1i8; 16]);
    for k in backends() {
        assert_refused("dot_i8", k, || {
            (k.dot_i8)(&long, &short);
        });
    }
}

#[test]
fn dot_i8x4_refuses_mismatched_lengths() {
    let (x, short, w) = (vec![1i16; 32], vec![1i16; 8], vec![1i8; 32]);
    for k in backends() {
        assert_refused("dot_i8x4", k, || {
            (k.dot_i8x4)(&x, &x, &short, &x, &w);
        });
    }
}

#[test]
fn dot3_refuses_mismatched_lengths() {
    let (long, short) = (vec![1.0f32; 40], vec![1.0f32; 8]);
    for k in backends() {
        assert_refused("dot3", k, || {
            (k.dot3)(&long, &long, &short, &long);
        });
        assert_refused("dot3", k, || {
            (k.dot3)(&long, &long, &long, &short);
        });
    }
}

#[test]
fn dot3x4_refuses_mismatched_lengths() {
    let (long, short) = (vec![1.0f32; 40], vec![1.0f32; 8]);
    for k in backends() {
        let Some(tile) = k.dot3x4 else { continue };
        tile([&long; 3], [&long; 4]);
        assert_refused("dot3x4 (short a)", k, || {
            tile([&long, &short, &long], [&long; 4]);
        });
        assert_refused("dot3x4 (short b)", k, || {
            tile([&long; 3], [&long, &long, &long, &short]);
        });
    }
}

#[test]
fn bias_tanh_refuses_mismatched_lengths() {
    let (long, short) = (vec![1.0f32; 19], vec![1.0f32; 8]);
    for k in backends() {
        let mut v = long.clone();
        assert_refused("bias_tanh (short bias)", k, || (k.bias_tanh)(&mut v, &short));
        let mut v = short.clone();
        assert_refused("bias_tanh (long bias)", k, || (k.bias_tanh)(&mut v, &long));
    }
}

#[test]
fn fused6x16_refuses_operands_it_would_overrun() {
    // Three 16-wide steps: coefficients at rs 3, cs 1 span 5·3 + 2 + 1 = 18
    // elements, and output rows at ld 16 span 5·16 + 16 = 96.
    let (a, b) = (vec![1.0f32; 18], vec![1.0f32; 48]);
    for k in backends() {
        let Some(tile) = k.fused6x16 else { continue };
        let mut out = vec![0.0f32; 96];
        tile(&a, 3, 1, &b, &mut out, 16);
        assert_refused("fused6x16 (short a)", k, || tile(&a[..17], 3, 1, &b, &mut out, 16));
        assert_refused("fused6x16 (short out)", k, || tile(&a, 3, 1, &b, &mut out[..95], 16));
        assert_refused("fused6x16 (ragged b)", k, || tile(&a, 3, 1, &b[..47], &mut out, 16));
        assert_refused("fused6x16 (huge stride)", k, || tile(&a, usize::MAX / 4, 1, &b, &mut out, 16));
    }
}
