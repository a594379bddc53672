//! Fully connected layer with explicit forward/backward.

use fvae_tensor::Matrix;
use rand::Rng;

use crate::activation::Activation;
use crate::workspace::Workspace;

/// A dense layer `y = act(x · W + b)` with `W: in × out` stored untransposed.
#[derive(Clone, Debug)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    act: Activation,
}

/// Gradients of a dense layer's parameters for one batch.
#[derive(Clone, Debug)]
pub struct DenseGrads {
    /// ∂L/∂W, same shape as the weight matrix.
    pub dw: Matrix,
    /// ∂L/∂b.
    pub db: Vec<f32>,
}

impl DenseGrads {
    /// An empty gradient holder for [`Dense::backward_into`] to fill; its
    /// buffers grow on first use and are reused afterwards.
    pub fn empty() -> Self {
        Self { dw: Matrix::zeros(0, 0), db: Vec::new() }
    }
}

impl Default for DenseGrads {
    fn default() -> Self {
        Self::empty()
    }
}

impl Dense {
    /// Creates a layer with Glorot-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut impl Rng) -> Self {
        Self {
            w: Matrix::glorot_uniform(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            act,
        }
    }

    /// Builds a layer from explicit parameters (tests, deserialization).
    pub fn from_parts(w: Matrix, b: Vec<f32>, act: Activation) -> Self {
        assert_eq!(w.cols(), b.len(), "bias length must equal output dim");
        Self { w, b, act }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Immutable parameter access `(W, b)`.
    pub fn params(&self) -> (&Matrix, &[f32]) {
        (&self.w, &self.b)
    }

    /// Mutable parameter access `(W, b)` for optimizers.
    pub fn params_mut(&mut self) -> (&mut Matrix, &mut [f32]) {
        (&mut self.w, &mut self.b)
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Forward pass over a batch (`x: batch × in`), returning `batch × out`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(0, 0);
        self.forward_into(x, &mut y);
        y
    }

    /// [`Dense::forward`] writing into a caller-owned output buffer, which
    /// is reshaped in place (no allocation once its capacity suffices).
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols(), self.in_dim(), "dense forward dim mismatch");
        x.matmul_into(&self.w, out);
        self.act.apply(out, &self.b);
    }

    /// Backward pass.
    ///
    /// Arguments are the forward input `x`, the forward output `y`, and the
    /// loss gradient `dy = ∂L/∂y`. Returns the parameter gradients and
    /// `∂L/∂x` for the upstream layer.
    pub fn backward(&self, x: &Matrix, y: &Matrix, dy: &Matrix) -> (DenseGrads, Matrix) {
        let mut grads = DenseGrads::empty();
        let mut dx = Matrix::zeros(0, 0);
        self.backward_into(x, y, dy, &mut grads, &mut dx, &mut Workspace::new());
        (grads, dx)
    }

    /// [`Dense::backward`] writing into caller-owned buffers. The
    /// pre-activation gradient temporary comes from `ws`, so a training loop
    /// that recycles its workspace pays zero allocations per step.
    pub fn backward_into(
        &self,
        x: &Matrix,
        y: &Matrix,
        dy: &Matrix,
        grads: &mut DenseGrads,
        dx: &mut Matrix,
        ws: &mut Workspace,
    ) {
        assert_eq!(dy.shape(), y.shape(), "dense backward shape mismatch");
        let mut dpre = ws.take_matrix_copy(dy);
        self.act.chain(y, &mut dpre);
        x.matmul_transa_into(&dpre, &mut grads.dw);
        dpre.col_sums_into(&mut grads.db);
        dpre.matmul_transb_into(&self.w, dx);
        ws.recycle_matrix(dpre);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Scalar loss used by the gradient checks: L = Σ y².
    fn loss(layer: &Dense, x: &Matrix) -> f32 {
        layer.forward(x).as_slice().iter().map(|v| v * v).sum()
    }

    fn analytic_grads(layer: &Dense, x: &Matrix) -> (DenseGrads, Matrix) {
        let y = layer.forward(x);
        let dy = y.map(|v| 2.0 * v);
        layer.backward(x, &y, &dy)
    }

    #[test]
    fn forward_applies_affine_then_activation() {
        let w = Matrix::from_vec(2, 1, vec![1.0, -1.0]);
        let layer = Dense::from_parts(w, vec![0.5], Activation::Identity);
        let x = Matrix::from_vec(1, 2, vec![2.0, 1.0]);
        let y = layer.forward(&x);
        assert!((y.get(0, 0) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(42);
        for act in [Activation::Identity, Activation::Tanh, Activation::Sigmoid] {
            let mut layer = Dense::new(3, 2, act, &mut rng);
            let x = Matrix::glorot_uniform(4, 3, &mut rng);
            let (grads, _) = analytic_grads(&layer, &x);
            let eps = 1e-3;
            for idx in 0..6 {
                let orig = layer.w.as_slice()[idx];
                layer.w.as_mut_slice()[idx] = orig + eps;
                let hi = loss(&layer, &x);
                layer.w.as_mut_slice()[idx] = orig - eps;
                let lo = loss(&layer, &x);
                layer.w.as_mut_slice()[idx] = orig;
                let numeric = (hi - lo) / (2.0 * eps);
                let analytic = grads.dw.as_slice()[idx];
                assert!(
                    (numeric - analytic).abs() < 2e-2 * numeric.abs().max(1.0),
                    "{act:?} w[{idx}]: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn bias_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::glorot_uniform(5, 3, &mut rng);
        let (grads, _) = analytic_grads(&layer, &x);
        let eps = 1e-3;
        for idx in 0..2 {
            let orig = layer.b[idx];
            layer.b[idx] = orig + eps;
            let hi = loss(&layer, &x);
            layer.b[idx] = orig - eps;
            let lo = loss(&layer, &x);
            layer.b[idx] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - grads.db[idx]).abs() < 2e-2 * numeric.abs().max(1.0),
                "b[{idx}]: {} vs {numeric}",
                grads.db[idx]
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(44);
        let layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let mut x = Matrix::glorot_uniform(2, 3, &mut rng);
        let (_, dx) = analytic_grads(&layer, &x);
        let eps = 1e-3;
        for idx in 0..6 {
            let orig = x.as_slice()[idx];
            x.as_mut_slice()[idx] = orig + eps;
            let hi = loss(&layer, &x);
            x.as_mut_slice()[idx] = orig - eps;
            let lo = loss(&layer, &x);
            x.as_mut_slice()[idx] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[idx]).abs() < 2e-2 * numeric.abs().max(1.0),
                "x[{idx}]: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn forward_rejects_wrong_input_width() {
        let mut rng = StdRng::seed_from_u64(45);
        let layer = Dense::new(3, 2, Activation::Identity, &mut rng);
        let x = Matrix::zeros(1, 4);
        let _ = layer.forward(&x);
    }
}
