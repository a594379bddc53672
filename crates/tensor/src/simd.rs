//! Arch-gated SIMD micro-kernels behind a runtime-dispatched vtable.
//!
//! Every dense hot-path primitive in the workspace — `dot`, `axpy`, the
//! GEMM register tiles, the `tanh` epilogue, and the int8 serving dot —
//! funnels through a [`Kernels`] vtable selected **once per process**:
//!
//! * x86_64 with AVX2+FMA detected at runtime → `AVX2` (8-lane fused
//!   multiply-add, 32-lane accumulator tree for reductions),
//! * everything else (aarch64 included), or `FVAE_SIMD=0` in the
//!   environment → [`SCALAR`], the portable reference.
//!
//! ## Numeric contract
//!
//! [`SCALAR`] is the *reference implementation*: its bodies are the exact
//! loops the workspace shipped with before SIMD dispatch existed, so
//! `FVAE_SIMD=0` reproduces historical checkpoints and golden fixtures
//! bit-for-bit. The AVX2 backend keeps IEEE semantics per operation but
//! **reassociates reductions** (wider accumulator trees, fused multiply-add),
//! so f32 results may differ from scalar by a few ULP. What is guaranteed:
//!
//! * **Within one backend, results are fully deterministic** — the PR-4
//!   thread-count invariance holds unchanged, because pool shards partition
//!   *output elements* and every element is produced by exactly one kernel
//!   call whose internal reduction order is fixed. Training at 1 or 64
//!   threads on the same machine yields bit-identical checkpoints.
//! * The backend (and with it the effective lane width: 32 for AVX2 dot,
//!   8 for the scalar reference) is therefore **part of the numeric
//!   configuration**, exactly like the thread count was before the
//!   PR-4 fix: bit-compare checkpoints only across runs that used the same
//!   backend. `FVAE_SIMD=0` pins the scalar reference when cross-machine
//!   bit-reproducibility matters more than speed.
//! * [`Kernels::dot_i8`] and [`Kernels::dot_i8x4`] are **integer-exact on
//!   every backend**: i32 addition is associative, so the quantized serving
//!   path produces bit-identical embeddings under scalar and AVX2 alike.
//! * [`Kernels::bias_tanh`] is **bit-exact on every backend** too: every
//!   element is the bias add, then [`tanh`], a port of fdlibm's `tanhf`
//!   written in plain f32 operations (no FMA, which Rust never contracts
//!   on its own). Scalar runs the port per element; AVX2 runs the same
//!   operations on 8 lanes, every branch evaluated and blended, with the
//!   `avx2` feature only. No reduction, so no order to keep.
//!
//! The register tiles add speed, never a new chain of operations:
//!
//! * [`Kernels::dot3`] is, per element, one [`Kernels::dot`]: the same
//!   lane tree, reduction and scalar tail, with the loads of the shared
//!   right-hand side done once for three rows. Every backend has it.
//! * [`Kernels::dot3x4`] is twelve [`Kernels::dot`]s, three rows against
//!   four, with the lane tree run one accumulator at a time. AVX2 only;
//!   `None` elsewhere, where `dot3` serves.
//! * [`Kernels::fused6x16`] gives every output element one fused
//!   multiply-add per coefficient, in `p` order, starting from what `out`
//!   holds. AVX2's `fused2x4`, `fused2x1`, `fused1x4`, `fused1x2` and
//!   `axpy` bodies compute exactly that chain on their 8-lane columns, so
//!   a GEMM that sends a skip-free tile through it keeps every bit
//!   (`crates/tensor/tests/blocked_kernels.rs`). The scalar reference
//!   groups each panel's products before one add (`o + (c0·b0 + … )`), so
//!   a tile could not replay both GEMMs' groupings: it is `None` there.
//!
//! ## Dispatch
//!
//! [`active`] resolves the backend on first use (reading `FVAE_SIMD`) and
//! caches it in an atomic; the steady-state cost is one `Acquire` load plus
//! an indirect call, amortized by the callers over full rows/tiles.
//! [`force`] overrides the selection process-wide — a bench/test hook for
//! measuring scalar-vs-SIMD ratios in one process; flipping it mid-training
//! forfeits the determinism contract for that run.

use std::sync::atomic::{AtomicPtr, Ordering};

/// Signature of the [`Kernels::fused2x4`] GEMM register tile.
pub type Fused2x4Fn = fn(&[f32; 8], &[f32], &[f32], &[f32], &[f32], &mut [f32], &mut [f32]);
/// Signature of the [`Kernels::fused1x4`] GEMM m-remainder row.
pub type Fused1x4Fn = fn(&[f32; 4], &[f32], &[f32], &[f32], &[f32], &mut [f32]);
/// Signature of the [`Kernels::fused6x16`] GEMM register tile.
pub type Fused6x16Fn = fn(&[f32], usize, usize, &[f32], &mut [f32], usize);
/// Signature of the [`Kernels::dot3`] shared-RHS dot tile.
pub type Dot3Fn = fn(&[f32], &[f32], &[f32], &[f32]) -> [f32; 3];
/// Signature of the [`Kernels::dot3x4`] dot tile.
pub type Dot3x4Fn = fn([&[f32]; 3], [&[f32]; 4]) -> [[f32; 4]; 3];
/// Signature of the [`Kernels::dot_i8x4`] shared-RHS quantized tile.
pub type DotI8x4Fn = fn(&[i16], &[i16], &[i16], &[i16], &[i8]) -> [i32; 4];

/// Output rows of the [`Kernels::fused6x16`] tile: three 2-row pairs.
pub const TILE_M: usize = 6;
/// Output columns of the [`Kernels::fused6x16`] tile, and the row width of
/// its packed `b` strip: two 8-lane registers.
pub const TILE_N: usize = 16;

/// The dispatched micro-kernel set. All slice arguments of one call must
/// have equal lengths: every backend asserts it and panics alike on a
/// mismatch (the SIMD bodies index raw pointers by that length).
/// Zero-length calls are valid no-ops (dot products return 0).
pub struct Kernels {
    /// Backend name: `"scalar"` or `"avx2"`.
    pub name: &'static str,
    /// Dot product `Σ a[i]·b[i]`.
    pub dot: fn(&[f32], &[f32]) -> f32,
    /// `y[i] += alpha · x[i]`.
    pub axpy: fn(f32, &[f32], &mut [f32]),
    /// GEMM 2×4 register tile: `out0 += c[0]b0 + c[1]b1 + c[2]b2 + c[3]b3`,
    /// `out1 += c[4]b0 + c[5]b1 + c[6]b2 + c[7]b3` (element-wise over rows).
    pub fused2x4: Fused2x4Fn,
    /// GEMM k-remainder on a 2-row tile: `out0 += c0·b`, `out1 += c1·b`.
    pub fused2x1: fn(f32, f32, &[f32], &mut [f32], &mut [f32]),
    /// GEMM m-remainder row: `out += c[0]b0 + c[1]b1 + c[2]b2 + c[3]b3`.
    pub fused1x4: Fused1x4Fn,
    /// Rank-2 row update: `out += c0·b0 + c1·b1` (the `matmul_transa` tile).
    pub fused1x2: fn(f32, f32, &[f32], &[f32], &mut [f32]),
    /// GEMM [`TILE_M`]×[`TILE_N`] register tile `(a, rs, cs, b, out, ld)`
    /// over `kb = b.len() / 16` steps: `b` is a packed `kb × 16` strip,
    /// coefficient `(r, p)` is `a[r·rs + p·cs]`, and output row `r` is
    /// `out[r·ld .. r·ld + 16]`. For every element, step by step in `p`
    /// order, `o = fma(a(r, p), b[p·16 + j], o)`: one fused multiply-add
    /// per coefficient and no zero skip, the chain `fused2x4`, `fused2x1`,
    /// `fused1x4`, `fused1x2` and `axpy` apply to a column of their 8-lane
    /// body. `None` on backends without that chain (see the module doc):
    /// their callers keep the 2-row loops.
    pub fused6x16: Option<Fused6x16Fn>,
    /// Three dots against one shared right-hand side:
    /// `[dot(a0, b), dot(a1, b), dot(a2, b)]`, each bit-equal to
    /// [`Kernels::dot`] on the same backend (the `A·Bᵀ` tile).
    pub dot3: Dot3Fn,
    /// Twelve dots, three `a` rows against four `b` rows:
    /// `out[r][c] = dot(a[r], b[c])`, each bit-equal to [`Kernels::dot`]
    /// on the same backend (the wider `A·Bᵀ` tile). `None` where the
    /// backend has no such tile: its callers keep [`Kernels::dot3`].
    pub dot3x4: Option<Dot3x4Fn>,
    /// Row epilogue `v[j] = tanh(v[j] + b[j])` with [`tanh`]'s bits: the
    /// bias add, then the fdlibm port, on every backend. Each element is
    /// computed alone, so the bits do not depend on the backend, the row
    /// split or the lane an element falls in.
    pub bias_tanh: fn(&mut [f32], &[f32]),
    /// Int8 dot with exact i32 accumulation: `Σ a[i]·b[i]` — the quantized
    /// serving kernel. Callers must keep `len · 127² < i32::MAX`
    /// (len < ~133k, far above any layer width here).
    pub dot_i8: fn(&[i8], &[i8]) -> i32,
    /// Four int8 dots against one shared right-hand side:
    /// `[Σ x0·w, Σ x1·w, Σ x2·w, Σ x3·w]`. The quantized-GEMM tile. The
    /// x rows arrive **pre-widened to i16** (values still in i8 range,
    /// the caller widens each batch row once per layer): sign-extension is
    /// shuffle-port-bound on x86, so hoisting it out of the weight loop —
    /// where it would run 4× per chunk — is what lets the tile beat four
    /// separate dot calls. The weight row stays i8 and is widened once per
    /// chunk. Same `len · 127² < i32::MAX` bound as [`Kernels::dot_i8`].
    pub dot_i8x4: DotI8x4Fn,
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

static ACTIVE: AtomicPtr<Kernels> = AtomicPtr::new(std::ptr::null_mut());

/// The process-wide active kernel set (resolving it on first use).
#[inline]
pub fn active() -> &'static Kernels {
    let p = ACTIVE.load(Ordering::Acquire);
    if p.is_null() {
        init()
    } else {
        // SAFETY: only ever stores `&'static Kernels` values.
        unsafe { &*p }
    }
}

#[cold]
fn init() -> &'static Kernels {
    let k = select();
    ACTIVE.store(k as *const Kernels as *mut Kernels, Ordering::Release);
    k
}

/// First-use selection: `FVAE_SIMD=0|off|scalar` pins the scalar reference;
/// otherwise the best backend the hardware supports wins.
fn select() -> &'static Kernels {
    if let Ok(v) = std::env::var("FVAE_SIMD") {
        let v = v.trim();
        if v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("scalar") {
            return &SCALAR;
        }
    }
    detected()
}

/// The backend runtime detection would pick, ignoring `FVAE_SIMD`.
pub fn detected() -> &'static Kernels {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return &AVX2;
        }
    }
    &SCALAR
}

/// The scalar reference backend (what `FVAE_SIMD=0` selects).
pub fn scalar() -> &'static Kernels {
    &SCALAR
}

/// Overrides the active backend process-wide. Bench/test hook: switching
/// backends mid-run voids the run's bit-determinism (each backend is its
/// own numeric configuration).
pub fn force(k: &'static Kernels) {
    ACTIVE.store(k as *const Kernels as *mut Kernels, Ordering::Release);
}

/// The precondition every kernel asserts before touching memory: all slice
/// arguments of the call have the same length.
#[inline(always)]
fn assert_same_len<const N: usize>(lens: [usize; N]) {
    assert!(lens.iter().all(|&l| l == lens[0]), "kernel slice lengths differ: {lens:?}");
}

/// The [`Kernels::fused6x16`] precondition: `b` is whole 16-wide rows, and
/// the last coefficient and the last output element the tile touches lie
/// inside `a` and `out`. Spans are computed with checked arithmetic, so a
/// huge stride panics instead of wrapping past the check.
#[inline(always)]
fn assert_tile_fits(a: usize, rs: usize, cs: usize, b: usize, out: usize, ld: usize) {
    let span = |rows: usize, stride: usize, steps: usize, step: usize, width: usize| {
        (rows - 1)
            .checked_mul(stride)
            .zip((steps - 1).checked_mul(step))
            .and_then(|(x, y)| x.checked_add(y))
            .and_then(|x| x.checked_add(width))
    };
    let kb = b / TILE_N;
    let a_fits = kb == 0 || span(TILE_M, rs, kb, cs, 1).is_some_and(|end| end <= a);
    let out_fits = span(TILE_M, ld, 1, 0, TILE_N).is_some_and(|end| end <= out);
    assert!(
        b.is_multiple_of(TILE_N) && a_fits && out_fits,
        "tile operands do not fit: a {a} (rs {rs}, cs {cs}), b {b}, out {out} (ld {ld})"
    );
}

// ---------------------------------------------------------------------------
// Scalar reference backend
// ---------------------------------------------------------------------------

/// The scalar reference kernels — the exact pre-SIMD loop bodies.
pub static SCALAR: Kernels = Kernels {
    name: "scalar",
    dot: scalar_dot,
    axpy: scalar_axpy,
    fused2x4: scalar_fused2x4,
    fused2x1: scalar_fused2x1,
    fused1x4: scalar_fused1x4,
    fused1x2: scalar_fused1x2,
    fused6x16: None,
    dot3: scalar_dot3,
    dot3x4: None,
    bias_tanh: scalar_bias_tanh,
    dot_i8: scalar_dot_i8,
    dot_i8x4: scalar_dot_i8x4,
};

/// Eight independent partial sums over `chunks_exact(8)`: a naive
/// `zip().map().sum()` serializes on one accumulator, so the loop-carried
/// add latency (not multiply throughput) bounds it. The scalar tail
/// (`len % 8`) is folded into the first lane, and the final reduction is
/// pairwise so its adds stay independent too. This exact lane structure and
/// reduction order *is* the scalar numeric reference — do not reorder.
pub fn scalar_dot(a: &[f32], b: &[f32]) -> f32 {
    assert_same_len([a.len(), b.len()]);
    let mut acc = [0.0f32; 8];
    let a_chunks = a.chunks_exact(8);
    let b_chunks = b.chunks_exact(8);
    let a_tail = a_chunks.remainder();
    let b_tail = b_chunks.remainder();
    for (ca, cb) in a_chunks.zip(b_chunks) {
        for lane in 0..8 {
            acc[lane] += ca[lane] * cb[lane];
        }
    }
    for (&x, &y) in a_tail.iter().zip(b_tail.iter()) {
        acc[0] += x * y;
    }
    let s01 = acc[0] + acc[1];
    let s23 = acc[2] + acc[3];
    let s45 = acc[4] + acc[5];
    let s67 = acc[6] + acc[7];
    (s01 + s23) + (s45 + s67)
}

/// Plain element-wise loop: no loop-carried dependency, so the compiler
/// already emits packed multiply-adds at the target's default width.
pub fn scalar_axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_same_len([x.len(), y.len()]);
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

fn scalar_fused2x4(
    c: &[f32; 8],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
    out0: &mut [f32],
    out1: &mut [f32],
) {
    assert_same_len([out0.len(), out1.len(), b0.len(), b1.len(), b2.len(), b3.len()]);
    for (((((o0, o1), &v0), &v1), &v2), &v3) in
        out0.iter_mut().zip(out1.iter_mut()).zip(b0).zip(b1).zip(b2).zip(b3)
    {
        *o0 += c[0] * v0 + c[1] * v1 + c[2] * v2 + c[3] * v3;
        *o1 += c[4] * v0 + c[5] * v1 + c[6] * v2 + c[7] * v3;
    }
}

fn scalar_fused2x1(c0: f32, c1: f32, b: &[f32], out0: &mut [f32], out1: &mut [f32]) {
    assert_same_len([out0.len(), out1.len(), b.len()]);
    for ((o0, o1), &v) in out0.iter_mut().zip(out1.iter_mut()).zip(b) {
        *o0 += c0 * v;
        *o1 += c1 * v;
    }
}

fn scalar_fused1x4(c: &[f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32], out: &mut [f32]) {
    assert_same_len([out.len(), b0.len(), b1.len(), b2.len(), b3.len()]);
    for ((((o, &v0), &v1), &v2), &v3) in out.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
        *o += c[0] * v0 + c[1] * v1 + c[2] * v2 + c[3] * v3;
    }
}

fn scalar_fused1x2(c0: f32, c1: f32, b0: &[f32], b1: &[f32], out: &mut [f32]) {
    assert_same_len([out.len(), b0.len(), b1.len()]);
    for ((o, &x0), &x1) in out.iter_mut().zip(b0).zip(b1) {
        *o += c0 * x0 + c1 * x1;
    }
}

fn scalar_dot3(a0: &[f32], a1: &[f32], a2: &[f32], b: &[f32]) -> [f32; 3] {
    assert_same_len([a0.len(), a1.len(), a2.len(), b.len()]);
    [scalar_dot(a0, b), scalar_dot(a1, b), scalar_dot(a2, b)]
}

// fdlibm's `tanhf` / `__expm1f` constants (glibc `sysdeps/ieee754/flt-32`),
// spelled by their bits.
const TANH_TINY: f32 = 1.0e-30;
const EXPM1_HUGE: f32 = 1.0e30;
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// Hyperbolic tangent: a port of fdlibm's `tanhf` (the code glibc runs
/// for `tanhf`), with plain f32 operations, no fused multiply-add and
/// IEEE division, so it gives the same bits on every target. On x86_64
/// with glibc 2.36 it equals `f32::tanh` on every input.
///
/// `|x| < 2⁻⁵⁵` gives `x·(1 + x)`; `1 ≤ |x| < 22` gives `1 − 2/(t + 2)`
/// with `t = expm1(2|x|)`; smaller `|x|` gives `−t/(t + 2)` with
/// `t = expm1(−2|x|)`; `|x| ≥ 22` (±∞ too) gives `±(1 − 10⁻³⁰) = ±1`;
/// NaN gives `x + x`.
pub fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    if ix > 0x7f80_0000 {
        return x + x;
    }
    if ix < 0x2400_0000 {
        return x * (1.0 + x);
    }
    let z = if ix >= 0x41b0_0000 {
        1.0 - TANH_TINY
    } else if ix >= 0x3f80_0000 {
        let t = expm1(2.0 * x.abs());
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1(-2.0 * x.abs());
        -t / (t + 2.0)
    };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}

/// fdlibm's `__expm1f` on the arguments [`tanh`] passes it: `2|x|` in
/// `[2, 44)` or `−2|x|` in `(−2, −2⁻⁵⁴]`. fdlibm's filters for huge and
/// non-finite arguments and its `k = 1` case (`0.35 < x < 1.04`) never
/// run there and are left out. `k` is `invln2·x ± 0.5` truncated toward
/// zero, and `2ᵏ` scales by adding `k` to the exponent bits.
///
/// One case is merged: fdlibm rebuilds `23 ≤ k ≤ 56` as
/// `2ᵏ·((x − (e + 2⁻ᵏ)) + 1)`, and here those `k` take its `k < 23`
/// formula `2ᵏ·((1 − 2⁻ᵏ) − (e − x))`. The two may differ by ulps of the
/// result, but `tanh` only reaches them for `|x| ≥ 7.8`, where it uses
/// them as `t` in `1 − 2/(t + 2)` with `2/(t + 2) < 2⁻²¹`, and no output
/// bit moves. The proof is exhaustive: `crates/tensor/tests/tanh.rs`
/// holds this port to libm's `tanhf` and the AVX2 row body to this port
/// on all 2³² inputs.
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > ln2 / 2: reduce to x − k·ln2, carrying the rounding in `c`.
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // Only −1.5 ln2 < x < −ln2 / 2 arrives here.
            (x + LN2_HI, -LN2_LO, -1)
        } else {
            let half = if x.is_sign_negative() { -0.5 } else { 0.5 };
            let k = (INV_LN2 * x + half) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2⁻²⁵: expm1(x) rounds to x.
        let t = EXPM1_HUGE + x;
        return x - (t - EXPM1_HUGE);
    } else {
        (x, 0.0, 0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    if k <= -2 || k > 56 {
        scale(1.0 - (e - x)) - 1.0
    } else {
        // `1 − 2⁻ᵏ` by its bits; the shifted term is 0 from k = 25 on, and
        // from k = 32 on the shift is out of range (AVX2's `srlv` gives 0).
        let ulps = 0x0100_0000u32.checked_shr(k as u32).unwrap_or(0);
        scale(f32::from_bits(0x3f80_0000 - ulps) - (e - x))
    }
}

/// The per-element `tanh` epilogue: the bias add, then [`tanh`].
fn scalar_bias_tanh(v: &mut [f32], b: &[f32]) {
    assert_same_len([v.len(), b.len()]);
    for (x, &bj) in v.iter_mut().zip(b) {
        *x = tanh(*x + bj);
    }
}

/// i8×i8 dot with exact i32 accumulation (associative — every backend
/// agrees bit-for-bit).
pub fn scalar_dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_same_len([a.len(), b.len()]);
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += i32::from(x) * i32::from(y);
    }
    acc
}

/// Four int8-range dots sharing one right-hand side (x rows pre-widened to
/// i16 by the caller). Exact i32 accumulation, so the loop structure is
/// immaterial to the result — four plain dots suffice as the reference.
pub fn scalar_dot_i8x4(x0: &[i16], x1: &[i16], x2: &[i16], x3: &[i16], w: &[i8]) -> [i32; 4] {
    assert_same_len([w.len(), x0.len(), x1.len(), x2.len(), x3.len()]);
    fn one(x: &[i16], w: &[i8]) -> i32 {
        let mut acc = 0i32;
        for (&a, &b) in x.iter().zip(w.iter()) {
            acc += i32::from(a) * i32::from(b);
        }
        acc
    }
    [one(x0, w), one(x1, w), one(x2, w), one(x3, w)]
}

// ---------------------------------------------------------------------------
// AVX2 backend (x86_64, runtime-detected)
// ---------------------------------------------------------------------------

/// AVX2+FMA kernels: 8-lane fused multiply-add, 4×8-lane accumulator tree
/// for `dot`. Private, and returned by [`detected`] only when
/// `is_x86_feature_detected!` confirms both features, so the
/// `target_feature` contract always holds at the call.
#[cfg(target_arch = "x86_64")]
static AVX2: Kernels = Kernels {
    name: "avx2",
    dot: avx2_dot,
    axpy: avx2_axpy,
    fused2x4: avx2_fused2x4,
    fused2x1: avx2_fused2x1,
    fused1x4: avx2_fused1x4,
    fused1x2: avx2_fused1x2,
    fused6x16: Some(avx2_fused6x16),
    dot3: avx2_dot3,
    dot3x4: Some(avx2_dot3x4),
    bias_tanh: avx2_bias_tanh,
    dot_i8: avx2_dot_i8,
    dot_i8x4: avx2_dot_i8x4,
};

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! `unsafe` inner bodies carrying `#[target_feature]`. Each has the same
    //! two-part contract: the CPU supports AVX2 and FMA, and every slice
    //! argument has the same length (the loops index raw pointers by it) —
    //! for `fused6x16`, the extents `assert_tile_fits` checks instead.
    //! The safe wrappers in the parent module discharge both: they are only
    //! reachable through the private `AVX2` table, which
    //! [`super::detected`] returns strictly after the runtime feature probe
    //! succeeds, and each asserts the lengths before the call.
    use core::arch::x86_64::*;

    /// Horizontal sum of an 8-lane register: cross-lane fold 8→4, then an
    /// in-lane pairwise tree 4→2→1.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn hsum256(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// Four independent 8-lane FMA chains (32-element stride) break the
    /// loop-carried add dependency that bounds the scalar reference; the
    /// remainder runs one 8-lane chain, then scalar.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i + 8)), _mm256_loadu_ps(bp.add(i + 8)), acc1);
            acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i + 16)), _mm256_loadu_ps(bp.add(i + 16)), acc2);
            acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i + 24)), _mm256_loadu_ps(bp.add(i + 24)), acc3);
            i += 32;
        }
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            i += 8;
        }
        let sum = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        let mut total = hsum256(sum);
        while i < n {
            total += a[i] * b[i];
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len();
        let va = _mm256_set1_ps(alpha);
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        let mut i = 0usize;
        while i + 16 <= n {
            let v0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            let v1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(xp.add(i + 8)), _mm256_loadu_ps(yp.add(i + 8)));
            _mm256_storeu_ps(yp.add(i), v0);
            _mm256_storeu_ps(yp.add(i + 8), v1);
            i += 16;
        }
        while i + 8 <= n {
            let v = _mm256_fmadd_ps(va, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            _mm256_storeu_ps(yp.add(i), v);
            i += 8;
        }
        while i < n {
            y[i] += alpha * x[i];
            i += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn fused2x4(
        c: &[f32; 8],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
        out0: &mut [f32],
        out1: &mut [f32],
    ) {
        let n = out0.len();
        let vc: [__m256; 8] = [
            _mm256_set1_ps(c[0]),
            _mm256_set1_ps(c[1]),
            _mm256_set1_ps(c[2]),
            _mm256_set1_ps(c[3]),
            _mm256_set1_ps(c[4]),
            _mm256_set1_ps(c[5]),
            _mm256_set1_ps(c[6]),
            _mm256_set1_ps(c[7]),
        ];
        let (p0, p1, p2, p3) = (b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr());
        let (q0, q1) = (out0.as_mut_ptr(), out1.as_mut_ptr());
        let mut j = 0usize;
        while j + 8 <= n {
            let vb0 = _mm256_loadu_ps(p0.add(j));
            let vb1 = _mm256_loadu_ps(p1.add(j));
            let vb2 = _mm256_loadu_ps(p2.add(j));
            let vb3 = _mm256_loadu_ps(p3.add(j));
            let mut o0 = _mm256_loadu_ps(q0.add(j));
            let mut o1 = _mm256_loadu_ps(q1.add(j));
            o0 = _mm256_fmadd_ps(vc[0], vb0, o0);
            o1 = _mm256_fmadd_ps(vc[4], vb0, o1);
            o0 = _mm256_fmadd_ps(vc[1], vb1, o0);
            o1 = _mm256_fmadd_ps(vc[5], vb1, o1);
            o0 = _mm256_fmadd_ps(vc[2], vb2, o0);
            o1 = _mm256_fmadd_ps(vc[6], vb2, o1);
            o0 = _mm256_fmadd_ps(vc[3], vb3, o0);
            o1 = _mm256_fmadd_ps(vc[7], vb3, o1);
            _mm256_storeu_ps(q0.add(j), o0);
            _mm256_storeu_ps(q1.add(j), o1);
            j += 8;
        }
        while j < n {
            out0[j] += c[0] * b0[j] + c[1] * b1[j] + c[2] * b2[j] + c[3] * b3[j];
            out1[j] += c[4] * b0[j] + c[5] * b1[j] + c[6] * b2[j] + c[7] * b3[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn fused2x1(c0: f32, c1: f32, b: &[f32], out0: &mut [f32], out1: &mut [f32]) {
        let n = out0.len();
        let v0 = _mm256_set1_ps(c0);
        let v1 = _mm256_set1_ps(c1);
        let bp = b.as_ptr();
        let (q0, q1) = (out0.as_mut_ptr(), out1.as_mut_ptr());
        let mut j = 0usize;
        while j + 8 <= n {
            let vb = _mm256_loadu_ps(bp.add(j));
            _mm256_storeu_ps(q0.add(j), _mm256_fmadd_ps(v0, vb, _mm256_loadu_ps(q0.add(j))));
            _mm256_storeu_ps(q1.add(j), _mm256_fmadd_ps(v1, vb, _mm256_loadu_ps(q1.add(j))));
            j += 8;
        }
        while j < n {
            out0[j] += c0 * b[j];
            out1[j] += c1 * b[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn fused1x4(
        c: &[f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
        out: &mut [f32],
    ) {
        let n = out.len();
        let vc0 = _mm256_set1_ps(c[0]);
        let vc1 = _mm256_set1_ps(c[1]);
        let vc2 = _mm256_set1_ps(c[2]);
        let vc3 = _mm256_set1_ps(c[3]);
        let (p0, p1, p2, p3) = (b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr());
        let q = out.as_mut_ptr();
        let mut j = 0usize;
        while j + 8 <= n {
            let mut o = _mm256_loadu_ps(q.add(j));
            o = _mm256_fmadd_ps(vc0, _mm256_loadu_ps(p0.add(j)), o);
            o = _mm256_fmadd_ps(vc1, _mm256_loadu_ps(p1.add(j)), o);
            o = _mm256_fmadd_ps(vc2, _mm256_loadu_ps(p2.add(j)), o);
            o = _mm256_fmadd_ps(vc3, _mm256_loadu_ps(p3.add(j)), o);
            _mm256_storeu_ps(q.add(j), o);
            j += 8;
        }
        while j < n {
            out[j] += c[0] * b0[j] + c[1] * b1[j] + c[2] * b2[j] + c[3] * b3[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn fused1x2(c0: f32, c1: f32, b0: &[f32], b1: &[f32], out: &mut [f32]) {
        let n = out.len();
        let v0 = _mm256_set1_ps(c0);
        let v1 = _mm256_set1_ps(c1);
        let (p0, p1) = (b0.as_ptr(), b1.as_ptr());
        let q = out.as_mut_ptr();
        let mut j = 0usize;
        while j + 8 <= n {
            let mut o = _mm256_loadu_ps(q.add(j));
            o = _mm256_fmadd_ps(v0, _mm256_loadu_ps(p0.add(j)), o);
            o = _mm256_fmadd_ps(v1, _mm256_loadu_ps(p1.add(j)), o);
            _mm256_storeu_ps(q.add(j), o);
            j += 8;
        }
        while j < n {
            out[j] += c0 * b0[j] + c1 * b1[j];
            j += 1;
        }
    }

    /// The 6×16 register tile: twelve accumulators (two 8-lane halves per
    /// row) stay in registers across the `kb` steps, each step loading one
    /// packed 16-wide `b` row and broadcasting six coefficients, one FMA
    /// per (row, half). Loading the accumulators from `out` and storing
    /// them back is exact, so a caller may split `k` into blocks.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn fused6x16(a: &[f32], rs: usize, cs: usize, b: &[f32], out: &mut [f32], ld: usize) {
        let kb = b.len() / super::TILE_N;
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut acc = [[_mm256_setzero_ps(); 2]; super::TILE_M];
        for (r, row) in acc.iter_mut().enumerate() {
            row[0] = _mm256_loadu_ps(op.add(r * ld));
            row[1] = _mm256_loadu_ps(op.add(r * ld + 8));
        }
        for p in 0..kb {
            let vb0 = _mm256_loadu_ps(bp.add(p * super::TILE_N));
            let vb1 = _mm256_loadu_ps(bp.add(p * super::TILE_N + 8));
            let ak = ap.add(p * cs);
            for (r, row) in acc.iter_mut().enumerate() {
                let va = _mm256_set1_ps(*ak.add(r * rs));
                row[0] = _mm256_fmadd_ps(va, vb0, row[0]);
                row[1] = _mm256_fmadd_ps(va, vb1, row[1]);
            }
        }
        for (r, row) in acc.iter().enumerate() {
            _mm256_storeu_ps(op.add(r * ld), row[0]);
            _mm256_storeu_ps(op.add(r * ld + 8), row[1]);
        }
    }

    /// Three [`dot`]s sharing each load of `b`: every row keeps `dot`'s own
    /// four accumulators, its 8-lane remainder into the first, its
    /// reduction tree and its scalar tail.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot3(a0: &[f32], a1: &[f32], a2: &[f32], b: &[f32]) -> [f32; 3] {
        let n = b.len();
        let rows = [a0, a1, a2];
        let ap = [a0.as_ptr(), a1.as_ptr(), a2.as_ptr()];
        let bp = b.as_ptr();
        // `acc[q][r]`: row `r`'s accumulator `q`.
        let mut acc = [[_mm256_setzero_ps(); 3]; 4];
        let mut i = 0usize;
        while i + 32 <= n {
            for (q, accq) in acc.iter_mut().enumerate() {
                let vb = _mm256_loadu_ps(bp.add(i + 8 * q));
                for (o, p) in accq.iter_mut().zip(ap) {
                    *o = _mm256_fmadd_ps(_mm256_loadu_ps(p.add(i + 8 * q)), vb, *o);
                }
            }
            i += 32;
        }
        while i + 8 <= n {
            let vb = _mm256_loadu_ps(bp.add(i));
            for (o, p) in acc[0].iter_mut().zip(ap) {
                *o = _mm256_fmadd_ps(_mm256_loadu_ps(p.add(i)), vb, *o);
            }
            i += 8;
        }
        let mut out = [0.0f32; 3];
        for r in 0..3 {
            let sum = _mm256_add_ps(_mm256_add_ps(acc[0][r], acc[1][r]), _mm256_add_ps(acc[2][r], acc[3][r]));
            let mut total = hsum256(sum);
            for t in i..n {
                total += rows[r][t] * b[t];
            }
            out[r] = total;
        }
        out
    }

    /// Twelve [`dot`]s, three `a` rows by four `b` rows. `dot`'s four
    /// accumulators become four passes over the rows, one accumulator
    /// index per pass, so a pass keeps its twelve accumulators in
    /// registers and loads 7 chunks per 12 FMAs. Pass 0 also takes the
    /// trailing 8-blocks after its 32-blocks, as `dot`'s first
    /// accumulator does; then every dot gets `dot`'s reduction tree and
    /// scalar tail.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot3x4(a: [&[f32]; 3], b: [&[f32]; 4]) -> [[f32; 4]; 3] {
        let n = b[0].len();
        let n32 = n - n % 32;
        let n8 = n - n % 8;
        let ap = a.map(<[f32]>::as_ptr);
        let bp = b.map(<[f32]>::as_ptr);
        // `acc[q][r][c]`: accumulator `q` of the dot of `a[r]` with `b[c]`.
        let mut acc = [[[_mm256_setzero_ps(); 4]; 3]; 4];
        for (q, accq) in acc.iter_mut().enumerate() {
            let mut pass = [[_mm256_setzero_ps(); 4]; 3];
            let mut step = |i: usize| {
                let va = ap.map(|p| _mm256_loadu_ps(p.add(i)));
                for (c, p) in bp.iter().enumerate() {
                    let vb = _mm256_loadu_ps(p.add(i));
                    for (o, &x) in pass.iter_mut().zip(&va) {
                        o[c] = _mm256_fmadd_ps(x, vb, o[c]);
                    }
                }
            };
            (8 * q..n32).step_by(32).for_each(&mut step);
            if q == 0 {
                (n32..n8).step_by(8).for_each(&mut step);
            }
            *accq = pass;
        }
        let mut out = [[0.0f32; 4]; 3];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, o) in row.iter_mut().enumerate() {
                let sum = _mm256_add_ps(
                    _mm256_add_ps(acc[0][r][c], acc[1][r][c]),
                    _mm256_add_ps(acc[2][r][c], acc[3][r][c]),
                );
                let mut total = hsum256(sum);
                for t in n8..n {
                    total += a[r][t] * b[c][t];
                }
                *o = total;
            }
        }
        out
    }

    /// [`super::tanh`] on 8 lanes: every branch of the port (and of its
    /// `expm1`) runs on every lane with the same operations in the same
    /// order, and one blend per branch keeps the result the scalar port
    /// returns. `k` is truncated by `cvttps`, the `1 − 2⁻ᵏ` constant is
    /// built by an integer shift and the `2ᵏ` scale by an integer add to
    /// the exponent bits. Lanes a branch does not own compute garbage that no
    /// blend keeps. No FMA: the `fma` feature is deliberately not enabled.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tanh8(x: __m256) -> __m256 {
        use super::{EXPM1_HUGE, INV_LN2, LN2_HI, LN2_LO, Q1, Q2, Q3, Q4, Q5, TANH_TINY};
        let ps = |v: f32| _mm256_set1_ps(v);
        let pi = |v: i32| _mm256_set1_epi32(v);
        let blend =
            |a: __m256, b: __m256, m: __m256i| _mm256_blendv_ps(a, b, _mm256_castsi256_ps(m));
        let (add, sub, mul) = (
            |a, b| _mm256_add_ps(a, b),
            |a, b| _mm256_sub_ps(a, b),
            |a, b| _mm256_mul_ps(a, b),
        );

        let bits = _mm256_castps_si256(x);
        let ix = _mm256_and_si256(bits, pi(0x7fff_ffff));
        // expm1's argument: 2|x| where |x| ≥ 1, else −2|x|.
        let big = _mm256_cmpgt_epi32(ix, pi(0x3f7f_ffff));
        let u = mul(blend(ps(-2.0), ps(2.0), big), _mm256_castsi256_ps(ix));

        // ---- expm1(u) ----
        let hx = _mm256_and_si256(_mm256_castps_si256(u), pi(0x7fff_ffff));
        // Reduction by −ln2 (−1.5 ln2 < u < −ln2 / 2) or by k·ln2.
        let k_many = _mm256_cvttps_epi32(add(mul(ps(INV_LN2), u), blend(ps(-0.5), ps(0.5), big)));
        let t = _mm256_cvtepi32_ps(k_many);
        let hi_many = sub(u, mul(t, ps(LN2_HI)));
        let lo_many = mul(t, ps(LN2_LO));
        let one_ln2 = _mm256_cmpgt_epi32(pi(0x3f85_1592), hx);
        let hi = blend(hi_many, add(u, ps(LN2_HI)), one_ln2);
        let lo = blend(lo_many, ps(-LN2_LO), one_ln2);
        let reduced = sub(hi, lo);
        let c = sub(sub(hi, reduced), lo);
        let reduce = _mm256_cmpgt_epi32(hx, pi(0x3eb1_7218));
        let k = _mm256_and_si256(_mm256_blendv_epi8(k_many, pi(-1), one_ln2), reduce);
        let xr = blend(u, reduced, reduce);
        let c = _mm256_and_ps(c, _mm256_castsi256_ps(reduce));

        let hfx = mul(ps(0.5), xr);
        let hxs = mul(xr, hfx);
        let poly = add(ps(Q4), mul(hxs, ps(Q5)));
        let poly = add(ps(Q3), mul(hxs, poly));
        let poly = add(ps(Q2), mul(hxs, poly));
        let poly = add(ps(Q1), mul(hxs, poly));
        let r1 = add(ps(1.0), mul(hxs, poly));
        let t = sub(ps(3.0), mul(r1, hfx));
        let e = mul(hxs, _mm256_div_ps(sub(r1, t), sub(ps(6.0), mul(xr, t))));
        let k_zero = sub(xr, sub(mul(xr, e), hxs));
        let e = sub(sub(mul(xr, sub(e, c)), c), hxs);
        let k_minus_one = sub(mul(ps(0.5), sub(xr, e)), ps(0.5));
        let scale = |y: __m256| {
            _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32(k, 23)))
        };
        let e_x = sub(e, xr);
        let k_far = sub(scale(sub(ps(1.0), e_x)), ps(1.0));
        let one_minus = _mm256_sub_epi32(pi(0x3f80_0000), _mm256_srlv_epi32(pi(0x0100_0000), k));
        let k_near = scale(sub(_mm256_castsi256_ps(one_minus), e_x));
        let tiny = sub(u, sub(add(ps(EXPM1_HUGE), u), ps(EXPM1_HUGE)));

        let far = _mm256_or_si256(_mm256_cmpgt_epi32(pi(-1), k), _mm256_cmpgt_epi32(k, pi(56)));
        let em = blend(k_near, k_far, far);
        let em = blend(em, k_minus_one, _mm256_cmpeq_epi32(k, pi(-1)));
        let em = blend(em, k_zero, _mm256_cmpeq_epi32(k, _mm256_setzero_si256()));
        let em = blend(em, tiny, _mm256_cmpgt_epi32(pi(0x3300_0000), hx));

        // ---- tanh from t = expm1(u): one division serves both branches ----
        let neg_em = _mm256_xor_ps(em, ps(-0.0));
        let q = _mm256_div_ps(blend(neg_em, ps(2.0), big), add(em, ps(2.0)));
        let z = blend(q, sub(ps(1.0), q), big);
        let z = blend(z, ps(1.0 - TANH_TINY), _mm256_cmpgt_epi32(ix, pi(0x41af_ffff)));
        let r = _mm256_xor_ps(z, _mm256_castsi256_ps(_mm256_and_si256(bits, pi(i32::MIN))));
        let r = blend(r, mul(x, add(ps(1.0), x)), _mm256_cmpgt_epi32(pi(0x2400_0000), ix));
        blend(r, add(x, x), _mm256_cmpgt_epi32(ix, pi(0x7f80_0000)))
    }

    /// `v[j] = tanh(v[j] + b[j])`: [`tanh8`] over 8-lane chunks, then the
    /// scalar port on the tail.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bias_tanh(v: &mut [f32], b: &[f32]) {
        let n = v.len();
        let (vp, bp) = (v.as_mut_ptr(), b.as_ptr());
        let mut i = 0usize;
        while i + 8 <= n {
            let x = _mm256_add_ps(_mm256_loadu_ps(vp.add(i)), _mm256_loadu_ps(bp.add(i)));
            _mm256_storeu_ps(vp.add(i), tanh8(x));
            i += 8;
        }
        while i < n {
            v[i] = super::tanh(v[i] + b[i]);
            i += 1;
        }
    }

    /// 16 i8 lanes per step: sign-extend to i16, `madd` to 8×i32, add into
    /// two independent i32 accumulators. Integer adds are associative, so
    /// the result is bit-identical to the scalar reference.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_si256();
        let mut acc1 = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 32 <= n {
            let va0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(ap.add(i).cast()));
            let vb0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add(i).cast()));
            let va1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(ap.add(i + 16).cast()));
            let vb1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add(i + 16).cast()));
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(va0, vb0));
            acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(va1, vb1));
            i += 32;
        }
        while i + 16 <= n {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(ap.add(i).cast()));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add(i).cast()));
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(va, vb));
            i += 16;
        }
        let acc = _mm256_add_epi32(acc0, acc1);
        let hi = _mm256_extracti128_si256(acc, 1);
        let lo = _mm256_castsi256_si128(acc);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01));
        let mut total = _mm_cvtsi128_si32(s);
        while i < n {
            total += i32::from(a[i]) * i32::from(b[i]);
            i += 1;
        }
        total
    }

    /// Shared-RHS 4-row int8 dot with pre-widened (i16) x rows: each
    /// 16-lane chunk of `w` is loaded and sign-extended once — the only
    /// shuffle-port op per chunk — then madd'ed against four straight i16
    /// loads. Integer adds are associative, so the result is bit-identical
    /// to the scalar reference.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_i8x4(x0: &[i16], x1: &[i16], x2: &[i16], x3: &[i16], w: &[i8]) -> [i32; 4] {
        let n = w.len();
        let (p0, p1, p2, p3, pw) = (x0.as_ptr(), x1.as_ptr(), x2.as_ptr(), x3.as_ptr(), w.as_ptr());
        let mut acc = [_mm256_setzero_si256(); 4];
        let mut i = 0usize;
        while i + 16 <= n {
            let vw = _mm256_cvtepi8_epi16(_mm_loadu_si128(pw.add(i).cast()));
            for (r, p) in [p0, p1, p2, p3].into_iter().enumerate() {
                let vx = _mm256_loadu_si256(p.add(i).cast());
                acc[r] = _mm256_add_epi32(acc[r], _mm256_madd_epi16(vx, vw));
            }
            i += 16;
        }
        let mut out = [0i32; 4];
        for (r, a) in acc.into_iter().enumerate() {
            let hi = _mm256_extracti128_si256(a, 1);
            let s = _mm_add_epi32(_mm256_castsi256_si128(a), hi);
            let s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
            let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01));
            out[r] = _mm_cvtsi128_si32(s);
        }
        let rows = [x0, x1, x2, x3];
        while i < n {
            for r in 0..4 {
                out[r] += i32::from(rows[r][i]) * i32::from(w[i]);
            }
            i += 1;
        }
        out
    }
}

// Safe wrappers: reachable only through the private `AVX2` table, which
// `detected` returns strictly after the runtime feature probe succeeds. Each
// asserts the length precondition before entering the `unsafe` body.
#[cfg(target_arch = "x86_64")]
fn avx2_dot(a: &[f32], b: &[f32]) -> f32 {
    assert_same_len([a.len(), b.len()]);
    // SAFETY: avx2+fma were probed before `AVX2` was handed out, and the
    // slice lengths were asserted equal just above.
    unsafe { avx2::dot(a, b) }
}
#[cfg(target_arch = "x86_64")]
fn avx2_axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_same_len([x.len(), y.len()]);
    // SAFETY: avx2+fma were probed before `AVX2` was handed out, and the
    // slice lengths were asserted equal just above.
    unsafe { avx2::axpy(alpha, x, y) }
}
#[cfg(target_arch = "x86_64")]
fn avx2_fused2x4(
    c: &[f32; 8],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
    out0: &mut [f32],
    out1: &mut [f32],
) {
    assert_same_len([out0.len(), out1.len(), b0.len(), b1.len(), b2.len(), b3.len()]);
    // SAFETY: avx2+fma were probed before `AVX2` was handed out, and the
    // slice lengths were asserted equal just above.
    unsafe { avx2::fused2x4(c, b0, b1, b2, b3, out0, out1) }
}
#[cfg(target_arch = "x86_64")]
fn avx2_fused2x1(c0: f32, c1: f32, b: &[f32], out0: &mut [f32], out1: &mut [f32]) {
    assert_same_len([out0.len(), out1.len(), b.len()]);
    // SAFETY: avx2+fma were probed before `AVX2` was handed out, and the
    // slice lengths were asserted equal just above.
    unsafe { avx2::fused2x1(c0, c1, b, out0, out1) }
}
#[cfg(target_arch = "x86_64")]
fn avx2_fused1x4(c: &[f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32], out: &mut [f32]) {
    assert_same_len([out.len(), b0.len(), b1.len(), b2.len(), b3.len()]);
    // SAFETY: avx2+fma were probed before `AVX2` was handed out, and the
    // slice lengths were asserted equal just above.
    unsafe { avx2::fused1x4(c, b0, b1, b2, b3, out) }
}
#[cfg(target_arch = "x86_64")]
fn avx2_fused1x2(c0: f32, c1: f32, b0: &[f32], b1: &[f32], out: &mut [f32]) {
    assert_same_len([out.len(), b0.len(), b1.len()]);
    // SAFETY: avx2+fma were probed before `AVX2` was handed out, and the
    // slice lengths were asserted equal just above.
    unsafe { avx2::fused1x2(c0, c1, b0, b1, out) }
}
#[cfg(target_arch = "x86_64")]
fn avx2_fused6x16(a: &[f32], rs: usize, cs: usize, b: &[f32], out: &mut [f32], ld: usize) {
    assert_tile_fits(a.len(), rs, cs, b.len(), out.len(), ld);
    // SAFETY: avx2+fma were probed before `AVX2` was handed out, and the
    // assert above bounds every coefficient, `b` row and output element
    // the tile touches.
    unsafe { avx2::fused6x16(a, rs, cs, b, out, ld) }
}
#[cfg(target_arch = "x86_64")]
fn avx2_dot3(a0: &[f32], a1: &[f32], a2: &[f32], b: &[f32]) -> [f32; 3] {
    assert_same_len([a0.len(), a1.len(), a2.len(), b.len()]);
    // SAFETY: avx2+fma were probed before `AVX2` was handed out, and the
    // slice lengths were asserted equal just above.
    unsafe { avx2::dot3(a0, a1, a2, b) }
}
#[cfg(target_arch = "x86_64")]
fn avx2_dot3x4(a: [&[f32]; 3], b: [&[f32]; 4]) -> [[f32; 4]; 3] {
    assert_same_len([a[0].len(), a[1].len(), a[2].len(), b[0].len(), b[1].len(), b[2].len(), b[3].len()]);
    // SAFETY: avx2+fma were probed before `AVX2` was handed out, and the
    // slice lengths were asserted equal just above.
    unsafe { avx2::dot3x4(a, b) }
}
#[cfg(target_arch = "x86_64")]
fn avx2_bias_tanh(v: &mut [f32], b: &[f32]) {
    assert_same_len([v.len(), b.len()]);
    // SAFETY: avx2 was probed before `AVX2` was handed out, and the slice
    // lengths were asserted equal just above.
    unsafe { avx2::bias_tanh(v, b) }
}
#[cfg(target_arch = "x86_64")]
fn avx2_dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_same_len([a.len(), b.len()]);
    // SAFETY: avx2+fma were probed before `AVX2` was handed out, and the
    // slice lengths were asserted equal just above.
    unsafe { avx2::dot_i8(a, b) }
}
#[cfg(target_arch = "x86_64")]
fn avx2_dot_i8x4(x0: &[i16], x1: &[i16], x2: &[i16], x3: &[i16], w: &[i8]) -> [i32; 4] {
    assert_same_len([w.len(), x0.len(), x1.len(), x2.len(), x3.len()]);
    // SAFETY: avx2+fma were probed before `AVX2` was handed out, and the
    // slice lengths were asserted equal just above.
    unsafe { avx2::dot_i8x4(x0, x1, x2, x3, w) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_backend_is_resolvable_and_stable() {
        let first = active().name;
        assert!(["scalar", "avx2"].contains(&first));
        assert_eq!(active().name, first, "dispatch must be stable across calls");
    }

    #[test]
    fn detection_picks_avx2_exactly_when_avx2_and_fma_are_present() {
        #[cfg(target_arch = "x86_64")]
        let simd = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let simd = false;
        if simd {
            assert_eq!(detected().name, "avx2");
        } else {
            assert!(std::ptr::eq(detected(), scalar()), "got {}", detected().name);
        }
    }

    #[test]
    fn dot_i8_matches_scalar_on_every_backend() {
        // Integer accumulation is associative: the detected backend must
        // agree with the scalar reference bit-for-bit at every length,
        // including lane-boundary straddles.
        let a: Vec<i8> = (0..200).map(|i| ((i * 37 + 11) % 255 - 127) as i8).collect();
        let b: Vec<i8> = (0..200).map(|i| ((i * 91 + 53) % 255 - 127) as i8).collect();
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 200] {
            let want = scalar_dot_i8(&a[..len], &b[..len]);
            let got = (detected().dot_i8)(&a[..len], &b[..len]);
            assert_eq!(got, want, "len {len} on {}", detected().name);
        }
    }

    #[test]
    fn extreme_i8_values_do_not_overflow_lane_arithmetic() {
        // (-127)·(-127)·len stays well inside i32 for any layer width; the
        // i16 madd pairs peak at 2·127² = 32258 < i16::MAX pairwise sum in
        // i32 — exercised here at the worst case.
        let a = vec![-127i8; 4096];
        let b = vec![-127i8; 4096];
        let want = 4096 * 127 * 127;
        assert_eq!(scalar_dot_i8(&a, &b), want);
        assert_eq!((detected().dot_i8)(&a, &b), want);
    }
}
