//! The shared `tanh`: `simd::tanh`, a port of fdlibm's `tanhf`, and the
//! dispatched `bias_tanh` row epilogue that runs it on every backend.
//!
//! Every element is computed alone, so the scalar and SIMD row bodies must
//! agree in `to_bits` on every input (NaN compared as NaN): on a strided
//! sweep of bit patterns, at every branch boundary of the port, on the
//! special values, and at every row length and unaligned start that
//! leaves a scalar tail. A pinned table of (input, output) bit pairs,
//! captured from glibc 2.36's `tanhf` on x86_64, keeps the port pinned on
//! a machine whose libm differs. On hardware where `detected()` is the
//! scalar backend the backend comparisons collapse to self-parity.
//!
//! Two exhaustive checks are `#[ignore]`d (each takes about half a minute
//! on two release threads):
//! `cargo test --release -p fvae-tensor --test tanh -- --ignored`.

use fvae_tensor::simd::{self, Kernels};

/// Equal bits, or both NaN.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// `tanh` of every input through one backend's row epilogue. The bias is
/// `-0.0`, which leaves every input as it is (`-0.0 + -0.0 = -0.0`).
fn row_tanh(k: &Kernels, inputs: &[f32]) -> Vec<f32> {
    let mut v = inputs.to_vec();
    (k.bias_tanh)(&mut v, &vec![-0.0; inputs.len()]);
    v
}

/// Asserts that the port and both backends' row epilogues agree on every
/// input.
fn assert_backends_agree(inputs: &[f32], what: &str) {
    let scalar = row_tanh(simd::scalar(), inputs);
    let fast = row_tanh(simd::detected(), inputs);
    for ((&x, &s), &f) in inputs.iter().zip(&scalar).zip(&fast) {
        let port = simd::tanh(x);
        assert!(same(s, port), "{what}: scalar row body {s:e} vs port {port:e} at {:#010x}", x.to_bits());
        assert!(
            same(f, port),
            "{what}: {} row body {f:e} ({:#010x}) vs port {port:e} ({:#010x}) at {:#010x}",
            simd::detected().name,
            f.to_bits(),
            port.to_bits(),
            x.to_bits()
        );
    }
}

/// (input bits, glibc 2.36 `tanhf` output bits), both signs of each input:
/// the `x·(1 + x)` branch (subnormals included), `expm1`'s `|u| < 2⁻²⁵`,
/// `k = 0`, `k = −1` and `k ≤ −2` reductions under `|x| < 1`, the
/// `k < 23`, `23 ≤ k ≤ 56` and `k > 56` reconstructions under
/// `1 ≤ |x| < 22` (`0x40f98872` is the first `k = 23` input), and
/// `|x| ≥ 22` up to `±∞`.
const PINNED: [(u32, u32); 66] = [
    (0x00000001, 0x00000001),
    (0x80000001, 0x80000001),
    (0x00400000, 0x00400000),
    (0x80400000, 0x80400000),
    (0x23ffffff, 0x23ffffff),
    (0xa3ffffff, 0xa3ffffff),
    (0x24000000, 0x24000000),
    (0xa4000000, 0xa4000000),
    (0x32000000, 0x32000000),
    (0xb2000000, 0xb2000000),
    (0x327fffff, 0x327fffff),
    (0xb27fffff, 0xb27fffff),
    (0x32800000, 0x32800000),
    (0xb2800000, 0xb2800000),
    (0x3d000000, 0x3cffeaad),
    (0xbd000000, 0xbcffeaad),
    (0x3e317218, 0x3e2fb0cd),
    (0xbe317218, 0xbe2fb0cd),
    (0x3e800000, 0x3e7acbf5),
    (0xbe800000, 0xbe7acbf5),
    (0x3f000000, 0x3eec9a9f),
    (0xbf000000, 0xbeec9a9f),
    (0x3f051592, 0x3ef486f8),
    (0xbf051592, 0xbef486f8),
    (0x3f600000, 0x3f343328),
    (0xbf600000, 0xbf343328),
    (0x3f400000, 0x3f22991f),
    (0xbf400000, 0xbf22991f),
    (0x3f7fffff, 0x3f42f7d5),
    (0xbf7fffff, 0xbf42f7d5),
    (0x3f800000, 0x3f42f7d6),
    (0xbf800000, 0xbf42f7d6),
    (0x40000000, 0x3f76ca83),
    (0xc0000000, 0xbf76ca83),
    (0x40a00000, 0x3f7ffa0d),
    (0xc0a00000, 0xbf7ffa0d),
    (0x40f98871, 0x3f7ffffa),
    (0xc0f98871, 0xbf7ffffa),
    (0x40f98872, 0x3f7ffffa),
    (0xc0f98872, 0xbf7ffffa),
    (0x41080000, 0x3f7fffff),
    (0xc1080000, 0xbf7fffff),
    (0x41100000, 0x3f7fffff),
    (0xc1100000, 0xbf7fffff),
    (0x41000000, 0x3f7ffffc),
    (0xc1000000, 0xbf7ffffc),
    (0x41800000, 0x3f800000),
    (0xc1800000, 0xbf800000),
    (0x41a00000, 0x3f800000),
    (0xc1a00000, 0xbf800000),
    (0x41afffff, 0x3f800000),
    (0xc1afffff, 0xbf800000),
    (0x41b00000, 0x3f800000),
    (0xc1b00000, 0xbf800000),
    (0x42c80000, 0x3f800000),
    (0xc2c80000, 0xbf800000),
    (0x7f7fffff, 0x3f800000),
    (0xff7fffff, 0xbf800000),
    (0x7f800000, 0x3f800000),
    (0xff800000, 0xbf800000),
    (0x3f4ccccd, 0x3f29fe50),
    (0xbf4ccccd, 0xbf29fe50),
    (0x3ecccccd, 0x3ec288ac),
    (0xbecccccd, 0xbec288ac),
    (0x40400000, 0x3f7ebbe9),
    (0xc0400000, 0xbf7ebbe9),
];

#[test]
fn port_and_backends_reproduce_the_pinned_table() {
    let inputs: Vec<f32> = PINNED.iter().map(|&(x, _)| f32::from_bits(x)).collect();
    for (&(x, want), got) in PINNED.iter().zip(row_tanh(simd::detected(), &inputs)) {
        let port = simd::tanh(f32::from_bits(x)).to_bits();
        assert_eq!(port, want, "port at {x:#010x}: {port:#010x}, pinned {want:#010x}");
        assert_eq!(got.to_bits(), want, "{} row body at {x:#010x}", simd::detected().name);
    }
    assert_backends_agree(&inputs, "pinned inputs");
}

#[test]
fn backends_agree_on_a_strided_sweep_of_bit_patterns() {
    // 4093 is prime, so the sweep walks every exponent and both signs
    // with mantissas that do not repeat.
    let inputs: Vec<f32> = (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect();
    assert!(inputs.len() > 1 << 20);
    assert_backends_agree(&inputs, "strided sweep");
}

#[test]
fn backends_agree_at_every_branch_boundary() {
    // The port's thresholds on |x|, each seen ±2 ulp around, both signs:
    // x·(1 + x) below 2⁻⁵⁵, the |x| ≥ 1 branch, |x| ≥ 22, ±∞/NaN, the
    // first k = 23 and k = 57 inputs of the |x| ≥ 1 branch, and expm1's
    // 0x3eb17218 (ln2 / 2), 0x3f851592 (1.5 ln2) and 0x33000000 (2⁻²⁵)
    // thresholds on u = −2|x|, which one exponent step below are those on x.
    let edges = [
        0x2400_0000u32,
        0x3f80_0000,
        0x41b0_0000,
        0x7f80_0000,
        0x40f9_8872,
        0x419c_a6b9,
        0x3eb1_7218 - 0x0080_0000,
        0x3f85_1592 - 0x0080_0000,
        0x3300_0000 - 0x0080_0000,
    ];
    let mut inputs = Vec::new();
    for edge in edges {
        for bits in edge - 2..=edge + 2 {
            inputs.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
        }
    }
    assert_backends_agree(&inputs, "branch boundaries");
}

#[test]
fn backends_agree_on_zeros_subnormals_infinities_and_nans() {
    let bits = [
        0x0000_0000u32,
        0x0000_0001,
        0x0040_0000,
        0x007f_ffff,
        0x0080_0000,
        0x7f80_0000,
        0x7f80_0001,
        0x7fc0_0000,
        0x7fff_ffff,
    ];
    let inputs: Vec<f32> = bits.iter().flat_map(|&b| [f32::from_bits(b), f32::from_bits(b | 0x8000_0000)]).collect();
    assert_backends_agree(&inputs, "special values");
    assert_eq!(simd::tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(simd::tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(simd::tanh(f32::INFINITY), 1.0);
    assert_eq!(simd::tanh(f32::NEG_INFINITY), -1.0);
    assert!(simd::tanh(f32::NAN).is_nan());
}

#[test]
fn row_bodies_agree_at_every_tail_length_and_unaligned_start() {
    // Values and biases over every branch, plus the special values.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let u = (state >> 40) as f32 / (1u64 << 24) as f32;
        match state % 16 {
            0 => f32::INFINITY,
            1 => -0.0,
            2 => f32::NAN,
            3 => 1e-20 * (u - 0.5),
            _ => 50.0 * (u - 0.5),
        }
    };
    let pre: Vec<f32> = (0..24).map(|_| next()).collect();
    let bias: Vec<f32> = (0..24).map(|_| next() * 0.1).collect();
    for len in 0..20 {
        for start in 0..4 {
            let (v, b) = (&pre[start..start + len], &bias[start..start + len]);
            let want: Vec<f32> = v.iter().zip(b).map(|(&x, &bj)| simd::tanh(x + bj)).collect();
            for k in [simd::scalar(), simd::detected()] {
                let mut got = v.to_vec();
                (k.bias_tanh)(&mut got, b);
                for (j, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert!(same(g, w), "{} at len {len}, start {start}, element {j}: {g:e} vs {w:e}", k.name);
                }
            }
        }
    }
}

/// Runs `check` on every f32 bit pattern, 4096 at a time, on a few
/// threads, and returns the first pattern it rejects.
fn first_failure(check: impl Fn(&[f32]) -> Option<u32> + Sync) -> Option<u32> {
    const BLOCK: u64 = 4096;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(8) as u64;
    let blocks = (1u64 << 32) / BLOCK;
    std::thread::scope(|s| {
        let check = &check;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut buf = vec![0.0f32; BLOCK as usize];
                    for blk in (t * blocks / threads)..((t + 1) * blocks / threads) {
                        for (i, x) in buf.iter_mut().enumerate() {
                            *x = f32::from_bits((blk * BLOCK) as u32 + i as u32);
                        }
                        if let Some(bad) = check(&buf) {
                            return Some(bad);
                        }
                    }
                    None
                })
            })
            .collect();
        handles.into_iter().find_map(|h| h.join().expect("exhaustive worker panicked"))
    })
}

/// The detected backend's row body equals the scalar port on all 2³²
/// inputs. Holds on every machine: both sides are this crate's code.
#[test]
#[ignore = "exhaustive: about half a minute on two release threads"]
fn exhaustive_row_body_equals_the_scalar_port() {
    let bad = first_failure(|xs| {
        let fast = row_tanh(simd::detected(), xs);
        xs.iter().zip(&fast).find(|&(&x, &f)| !same(f, simd::tanh(x))).map(|(x, _)| x.to_bits())
    });
    assert_eq!(bad, None, "{} row body differs from the port", simd::detected().name);
}

/// The port equals the platform's `f32::tanh` on all 2³² inputs. This
/// holds where libm's `tanhf` is fdlibm's, as in glibc 2.36 on x86_64;
/// another libm may round differently, which is why the port exists.
#[test]
#[ignore = "exhaustive, and holds only where libm's tanhf is fdlibm's"]
fn exhaustive_port_equals_libm_tanhf() {
    let bad = first_failure(|xs| xs.iter().find(|&&x| !same(simd::tanh(x), x.tanh())).map(|x| x.to_bits()));
    assert_eq!(bad, None, "the port differs from this platform's tanhf");
}
