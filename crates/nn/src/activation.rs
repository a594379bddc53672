//! Element-wise activations with derivatives expressed in terms of the
//! *output*, so backward passes never need to cache pre-activations.

use fvae_tensor::Matrix;

/// Activation functions used by the dense layers.
///
/// Each variant's derivative can be computed from the forward output `y`
/// alone: `tanh' = 1 − y²`, `σ' = y(1 − y)`, `relu' = 1[y > 0]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// No non-linearity (used by μ/log σ² heads and output logits).
    Identity,
    /// Hyperbolic tangent — the activation the Mult-VAE paper and this paper
    /// use for encoder/decoder hidden layers.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// A dense layer's epilogue over a whole batch: adds `bias` to every
    /// row of `m`, then applies the activation, through
    /// [`Matrix::bias_then`] (pooled from `fvae_tensor::PAR_MIN_FLOPS`
    /// elements, with the serial bits). Each arm hands the epilogue its own
    /// scalar function, so no element pays an indirect call; `tanh` runs
    /// [`Matrix::bias_tanh`], one dispatched call per row of the shared
    /// fdlibm port (`fvae_tensor::simd::tanh`).
    pub fn apply(&self, m: &mut Matrix, bias: &[f32]) {
        match self {
            Activation::Identity => m.bias_then(bias, |x| x),
            Activation::Tanh => m.bias_tanh(bias),
            Activation::Relu => m.bias_then(bias, |x| x.max(0.0)),
            Activation::Sigmoid => m.bias_then(bias, fvae_tensor::ops::sigmoid),
        }
    }

    /// Derivative w.r.t. the pre-activation, computed from the output value.
    #[inline]
    pub fn derivative_from_output(&self, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
        }
    }

    /// Multiplies `dy` in place by the activation derivative evaluated at
    /// the forward output `y` (i.e. converts ∂L/∂y into ∂L/∂pre-activation).
    pub fn chain(&self, y: &Matrix, dy: &mut Matrix) {
        if *self == Activation::Identity {
            return;
        }
        assert_eq!(y.shape(), dy.shape(), "activation chain shape mismatch");
        for (d, &out) in dy.as_mut_slice().iter_mut().zip(y.as_slice().iter()) {
            *d *= self.derivative_from_output(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_derivative(act: Activation, x: f32) -> f32 {
        let eps = 1e-3;
        let f = |x: f32| {
            let mut m = Matrix::from_vec(1, 1, vec![x]);
            act.apply(&mut m, &[0.0]);
            m.get(0, 0)
        };
        (f(x + eps) - f(x - eps)) / (2.0 * eps)
    }

    #[test]
    fn derivatives_match_finite_differences() {
        for act in [Activation::Tanh, Activation::Sigmoid, Activation::Identity] {
            for &x in &[-1.5f32, -0.3, 0.2, 1.0] {
                let mut m = Matrix::from_vec(1, 1, vec![x]);
                act.apply(&mut m, &[0.0]);
                let analytic = act.derivative_from_output(m.get(0, 0));
                let numeric = numeric_derivative(act, x);
                assert!(
                    (analytic - numeric).abs() < 1e-2,
                    "{act:?} at {x}: {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut m = Matrix::from_vec(1, 4, vec![-2.0, -0.1, 0.0, 3.0]);
        Activation::Relu.apply(&mut m, &[0.0; 4]);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 0.0, 3.0]);
        assert_eq!(Activation::Relu.derivative_from_output(3.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
    }

    #[test]
    fn chain_multiplies_by_derivative() {
        let y = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let mut dy = Matrix::from_vec(1, 2, vec![2.0, 2.0]);
        Activation::Tanh.chain(&y, &mut dy);
        assert!((dy.get(0, 0) - 2.0 * 0.75).abs() < 1e-6);
        assert!((dy.get(0, 1) - 2.0 * 0.75).abs() < 1e-6);
    }

    #[test]
    fn identity_chain_is_noop() {
        let y = Matrix::from_vec(1, 2, vec![5.0, -7.0]);
        let mut dy = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        Activation::Identity.chain(&y, &mut dy);
        assert_eq!(dy.as_slice(), &[1.0, 2.0]);
    }
}
