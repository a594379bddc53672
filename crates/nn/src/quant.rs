//! Int8 post-training quantization for dense layers (serving only).
//!
//! Scheme (per the symmetric-quantization standard for inference):
//!
//! * **Weights** are quantized offline, per *output unit* (one row of the
//!   transposed `out × in` weight matrix): `scale_j = max_i |W[i][j]| / 127`,
//!   `wq[j][i] = round(W[i][j] / scale_j)`. Per-row scales keep a badly
//!   scaled unit from wrecking every other unit's resolution.
//! * **Activations** are quantized dynamically, per batch row, with the same
//!   symmetric rule — encoder activations come out of `tanh` (bounded) or
//!   a trained linear map, so a per-row max is tight and costs one pass.
//! * The accumulation `Σ xq·wq` runs in **exact i32 arithmetic** through
//!   the dispatched [`fvae_tensor::simd`] `dot_i8` kernel, so the quantized
//!   forward is bit-deterministic on every backend and thread count; the
//!   result is rescaled once per output element:
//!   `y = acc · (x_scale · w_scale_j) + b_j`, then the f32 activation.
//!
//! The transposed int8 weights are ¼ the f32 footprint, which is the real
//! serving win: encoder-sized GEMMs are memory-bound on weight traffic, not
//! multiply throughput.

use fvae_tensor::Matrix;

use crate::activation::Activation;
use crate::dense::Dense;

/// Padé(7,6) `tanh` approximation for quantized inference.
///
/// Max absolute error ≈ 2e-4 over ℝ (after the saturation clamp) — an order
/// of magnitude below the int8 activation quantization step every use site
/// feeds (`max|x|/127 ≈ 8e-3` for tanh-bounded rows), so the approximation
/// is invisible through the quantizer while costing a handful of FMAs
/// instead of a libm call per element. Training and the f32 serving path
/// keep exact `tanh`. Pure elementwise f32 arithmetic: deterministic across
/// SIMD backends and thread counts, so the quantized path's
/// bit-reproducibility guarantee survives.
#[inline]
pub fn fast_tanh(x: f32) -> f32 {
    // Beyond |x| ≈ 4.97 the true tanh is within 1e-4 of ±1; clamping first
    // also keeps the rational form well away from overflow.
    let x = x.clamp(-4.97, 4.97);
    let x2 = x * x;
    let p = x * (135135.0 + x2 * (17325.0 + x2 * (378.0 + x2)));
    let q = 135135.0 + x2 * (62370.0 + x2 * (3150.0 + 28.0 * x2));
    (p / q).clamp(-1.0, 1.0)
}

/// Symmetric per-slice i8 quantization: writes `round(src / scale)` into
/// `dst` and returns the dequantization `scale = max|src| / 127`. A zero
/// (or non-finite-free all-zero) slice quantizes to zeros with scale 0.
pub fn quantize_symmetric(src: &[f32], dst: &mut [i8]) -> f32 {
    debug_assert_eq!(src.len(), dst.len());
    let amax = src.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if amax == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let inv = 127.0 / amax;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (s * inv).round().clamp(-127.0, 127.0) as i8;
    }
    amax / 127.0
}

/// Reusable activation-quantization buffers for
/// [`QuantizedDense::forward_into`]; after one warm-up batch at the largest
/// batch size the quantized forward allocates nothing.
#[derive(Default)]
pub struct QuantScratch {
    /// Quantized input batch, `batch × in` row-major.
    xq: Vec<i8>,
    /// The same batch pre-widened to i16 for the shared-RHS tile kernel
    /// (sign-extension is shuffle-bound on x86, so it happens once per
    /// layer here instead of once per weight row inside the kernel).
    xw: Vec<i16>,
    /// Per-batch-row dequantization scales.
    x_scale: Vec<f32>,
}

/// An int8-quantized [`Dense`] layer for inference.
pub struct QuantizedDense {
    in_dim: usize,
    out_dim: usize,
    /// Transposed quantized weights, `out × in` row-major: each output
    /// unit's weights are contiguous, so the i8 dot streams cache lines.
    wq: Vec<i8>,
    /// Per-output-unit dequantization scales.
    w_scale: Vec<f32>,
    b: Vec<f32>,
    act: Activation,
}

impl QuantizedDense {
    /// Quantizes a trained layer (weights transposed to `out × in`,
    /// per-output-unit symmetric scales).
    pub fn from_dense(layer: &Dense) -> Self {
        let (w, b) = layer.params();
        let (in_dim, out_dim) = (w.rows(), w.cols());
        let mut wq = vec![0i8; in_dim * out_dim];
        let mut w_scale = vec![0.0f32; out_dim];
        let mut col = vec![0.0f32; in_dim];
        for j in 0..out_dim {
            for (i, c) in col.iter_mut().enumerate() {
                *c = w.get(i, j);
            }
            w_scale[j] = quantize_symmetric(&col, &mut wq[j * in_dim..(j + 1) * in_dim]);
        }
        Self { in_dim, out_dim, wq, w_scale, b: b.to_vec(), act: layer.activation() }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The layer's (f32) activation, applied after dequantization.
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Quantized forward pass `y = act(dequant(xq · wqᵀ) + b)` over a batch.
    ///
    /// Batch rows are processed four at a time through the shared-RHS
    /// [`fvae_tensor::simd`] `dot_i8x4` kernel: each int8 weight row is
    /// loaded and widened **once** per 4-row tile. The weight matrix is the
    /// layer's dominant memory traffic *and* the widening is the dominant
    /// ALU work, so the tile amortizes both at once; remainder rows fall
    /// back to the single-row dot.
    pub fn forward_into(&self, x: &Matrix, scratch: &mut QuantScratch, out: &mut Matrix) {
        assert_eq!(x.cols(), self.in_dim, "quantized dense forward dim mismatch");
        let batch = x.rows();
        let n_in = self.in_dim;
        scratch.xq.resize(batch * n_in, 0);
        scratch.xw.resize(batch * n_in, 0);
        scratch.x_scale.resize(batch, 0.0);
        for r in 0..batch {
            let span = r * n_in..(r + 1) * n_in;
            scratch.x_scale[r] = quantize_symmetric(x.row(r), &mut scratch.xq[span.clone()]);
            for (w16, &q) in scratch.xw[span.clone()].iter_mut().zip(&scratch.xq[span]) {
                *w16 = i16::from(q);
            }
        }
        out.resize_zeroed(batch, self.out_dim);
        let ks = fvae_tensor::simd::active();
        let oc = self.out_dim;
        let od = out.as_mut_slice();
        let mut r = 0;
        while r + 4 <= batch {
            let (x0, rest) = scratch.xw[r * n_in..(r + 4) * n_in].split_at(n_in);
            let (x1, rest) = rest.split_at(n_in);
            let (x2, x3) = rest.split_at(n_in);
            let s = &scratch.x_scale[r..r + 4];
            for j in 0..oc {
                let w_row = &self.wq[j * n_in..(j + 1) * n_in];
                let ws = self.w_scale[j];
                let acc = (ks.dot_i8x4)(x0, x1, x2, x3, w_row);
                for (t, &a) in acc.iter().enumerate() {
                    od[(r + t) * oc + j] = a as f32 * (s[t] * ws) + self.b[j];
                }
            }
            r += 4;
        }
        while r < batch {
            let x0 = &scratch.xq[r * n_in..(r + 1) * n_in];
            let s0 = scratch.x_scale[r];
            for j in 0..oc {
                let w_row = &self.wq[j * n_in..(j + 1) * n_in];
                od[r * oc + j] = (ks.dot_i8)(x0, w_row) as f32 * (s0 * self.w_scale[j]) + self.b[j];
            }
            r += 1;
        }
        // Hidden-layer tanh feeds the next layer's quantizer, so the cheap
        // approximation is lossless here; other activations are already
        // a few ALU ops and stay exact.
        match self.act {
            Activation::Identity => {}
            Activation::Tanh => out.map_inplace(fast_tanh),
            Activation::Relu => out.map_inplace(|x| x.max(0.0)),
            Activation::Sigmoid => out.map_inplace(fvae_tensor::ops::sigmoid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fast_tanh_error_stays_below_the_quantization_step() {
        // Sweep [-8, 8] densely: the approximation must stay an order of
        // magnitude inside the int8 step (~8e-3) everywhere, including the
        // clamp seam, and must never leave [-1, 1].
        for i in -8000..=8000 {
            let x = i as f32 * 1e-3;
            let got = fast_tanh(x);
            let want = x.tanh();
            assert!((got - want).abs() < 3e-4, "x={x}: {got} vs {want}");
            assert!((-1.0..=1.0).contains(&got), "x={x}: {got} outside [-1,1]");
        }
    }

    #[test]
    fn quantize_round_trip_stays_within_half_step() {
        let src: Vec<f32> = (0..100).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
        let mut q = vec![0i8; src.len()];
        let scale = quantize_symmetric(&src, &mut q);
        let step = scale; // one quantization step in input units
        for (&s, &qi) in src.iter().zip(&q) {
            let back = f32::from(qi) * scale;
            assert!(
                (s - back).abs() <= 0.5 * step + 1e-6,
                "value {s} → {qi} → {back} off by more than half a step ({step})"
            );
        }
    }

    #[test]
    fn zero_slice_quantizes_to_zero_scale() {
        let mut q = vec![7i8; 4];
        assert_eq!(quantize_symmetric(&[0.0; 4], &mut q), 0.0);
        assert_eq!(q, vec![0i8; 4]);
    }

    #[test]
    fn quantized_forward_tracks_f32_dense() {
        let mut rng = StdRng::seed_from_u64(99);
        for act in [Activation::Identity, Activation::Tanh] {
            let layer = Dense::new(64, 32, act, &mut rng);
            let q = QuantizedDense::from_dense(&layer);
            let x = Matrix::glorot_uniform(9, 64, &mut rng); // odd batch → tail row
            let want = layer.forward(&x);
            let mut got = Matrix::default();
            let mut scratch = QuantScratch::default();
            q.forward_into(&x, &mut scratch, &mut got);
            assert_eq!(got.shape(), want.shape());
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                // 8-bit weights and activations: ~1% relative headroom at
                // these dims is ample for a correctness (not parity) check.
                assert!((g - w).abs() <= 0.02 * w.abs().max(0.25), "{act:?}: {g} vs {w}");
            }
        }
    }
}
