//! The int8 dense forward is bit-identical under every SIMD backend.
//!
//! This test switches the process-wide backend with `simd::force`, so it
//! lives alone in its own test binary: no other test can dispatch a kernel
//! while the backend is switched.

use fvae_nn::{Activation, Dense, QuantScratch, QuantizedDense};
use fvae_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn quantized_forward_is_bit_deterministic_across_backends() {
    use fvae_tensor::simd;
    let mut rng = StdRng::seed_from_u64(7);
    let layer = Dense::new(48, 16, Activation::Tanh, &mut rng);
    let q = QuantizedDense::from_dense(&layer);
    let x = Matrix::glorot_uniform(5, 48, &mut rng);
    let mut scratch = QuantScratch::default();
    let original = simd::active();
    let mut runs: Vec<Vec<u32>> = Vec::new();
    for backend in [simd::scalar(), simd::detected()] {
        simd::force(backend);
        let mut out = Matrix::default();
        q.forward_into(&x, &mut scratch, &mut out);
        runs.push(out.as_slice().iter().map(|v| v.to_bits()).collect());
    }
    simd::force(original);
    assert_eq!(runs[0], runs[1], "i8 accumulation must be backend-exact");
}
