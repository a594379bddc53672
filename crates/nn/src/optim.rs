//! Optimizers: SGD and Adam, with a lazy row-sparse Adam variant for the
//! embedding and batched-softmax tables.
//!
//! Dense parameters use classic Adam with bias correction. Sparse tables use
//! *lazy* Adam: first/second-moment buffers grow with the vocabulary and only
//! the rows touched by the current batch are updated — the standard
//! parameter-server trick that keeps the update cost proportional to the
//! batch's active feature count rather than the vocabulary size.

use fvae_tensor::{Matrix, PAR_MIN_FLOPS};

use crate::sharded::RowGrads;

/// Equal chunks a pooled dense Adam update is cut into ([`Adam::step_slice`]):
/// enough for a few shards per thread on any pool.
const DENSE_CHUNKS: usize = 64;

/// Plain stochastic gradient descent.
#[derive(Clone, Copy, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }

    /// `param -= lr * grad` for a matrix.
    pub fn step_matrix(&self, param: &mut Matrix, grad: &Matrix) {
        param.axpy_assign(-self.lr, grad);
    }

    /// `param -= lr * grad` for a flat buffer.
    pub fn step_slice(&self, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len(), "sgd length mismatch");
        for (p, &g) in param.iter_mut().zip(grad.iter()) {
            *p -= self.lr * g;
        }
    }
}

/// Adam hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
}

impl Default for Adam {
    fn default() -> Self {
        Self { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }
}

/// Moment buffers for one parameter tensor. Grows on demand so it can track
/// dynamically growing vocabularies.
#[derive(Clone, Debug, Default)]
pub struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl AdamState {
    /// Creates state sized for `len` scalars.
    pub fn new(len: usize) -> Self {
        Self { m: vec![0.0; len], v: vec![0.0; len], t: 0 }
    }

    /// Step counter (for diagnostics).
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Borrows the raw `(m, v, t)` parts for checkpoint serialization.
    pub fn parts(&self) -> (&[f32], &[f32], u64) {
        (&self.m, &self.v, self.t)
    }

    /// Rebuilds state from checkpointed `(m, v, t)` parts.
    ///
    /// `m` and `v` must be the same length (they always are for states this
    /// crate produced); mismatched buffers would silently desynchronize the
    /// moments, so they are rejected here.
    pub fn from_parts(m: Vec<f32>, v: Vec<f32>, t: u64) -> Result<Self, String> {
        if m.len() != v.len() {
            return Err(format!("adam moment length mismatch: m={} v={}", m.len(), v.len()));
        }
        Ok(Self { m, v, t })
    }

    fn ensure_len(&mut self, len: usize) {
        if self.m.len() < len {
            self.m.resize(len, 0.0);
            self.v.resize(len, 0.0);
        }
    }
}

impl Adam {
    /// Creates Adam with the given learning rate and default betas.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, ..Self::default() }
    }

    #[inline]
    fn apply_one(&self, p: &mut f32, g: f32, m: &mut f32, v: &mut f32, corr1: f32, corr2: f32) {
        *m = self.beta1 * *m + (1.0 - self.beta1) * g;
        *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
        let m_hat = *m / corr1;
        let v_hat = *v / corr2;
        *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
    }

    /// Dense update of a flat buffer.
    ///
    /// From [`PAR_MIN_FLOPS`] scalars up, the buffer is cut into
    /// `DENSE_CHUNKS` equal contiguous chunks that fan out across the
    /// global pool, and the last `len % DENSE_CHUNKS` scalars run on the
    /// caller. Every scalar's update reads only its own gradient and
    /// moments, so the bits are the serial ones at any thread count.
    pub fn step_slice(&self, state: &mut AdamState, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len(), "adam length mismatch");
        let len = param.len();
        state.ensure_len(len);
        state.t += 1;
        let corr1 = 1.0 - self.beta1.powi(state.t as i32);
        let corr2 = 1.0 - self.beta2.powi(state.t as i32);
        let update = |p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]| {
            for (((p, &g), m), v) in p.iter_mut().zip(g).zip(m).zip(v) {
                self.apply_one(p, g, m, v, corr1, corr2);
            }
        };
        let (m, v) = (&mut state.m[..len], &mut state.v[..len]);
        if len < PAR_MIN_FLOPS {
            return update(param, grad, m, v);
        }
        let width = len / DENSE_CHUNKS;
        let split = width * DENSE_CHUNKS;
        let (param, p_tail) = param.split_at_mut(split);
        let (m, m_tail) = m.split_at_mut(split);
        let (v, v_tail) = v.split_at_mut(split);
        let chunks: [u32; DENSE_CHUNKS] = std::array::from_fn(|i| i as u32);
        // SAFETY: `chunks` is `0..DENSE_CHUNKS` in order, so no slot repeats.
        unsafe {
            fvae_pool::global().run_slot_rows([param, m, v], width, &chunks, |i, [p, m, v]| {
                update(p, &grad[i * width..(i + 1) * width], m, v);
            });
        }
        update(p_tail, &grad[split..], m_tail, v_tail);
    }

    /// Dense update of a matrix.
    pub fn step_matrix(&self, state: &mut AdamState, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(param.shape(), grad.shape(), "adam shape mismatch");
        self.step_slice(state, param.as_mut_slice(), grad.as_slice());
    }

    /// Lazy sparse update: only rows present in `row_grads` are touched.
    /// `param` is a `vocab × dim` buffer that may have grown since the last
    /// step; moment buffers grow to match.
    ///
    /// The panel's rows fan out across the global pool. Its slots are unique,
    /// so every shard updates parameter and moment rows no other shard
    /// touches, each from its own gradient row alone — bit-identical at any
    /// thread count.
    pub fn step_rows(
        &self,
        state: &mut AdamState,
        param: &mut [f32],
        dim: usize,
        row_grads: &RowGrads,
    ) {
        state.ensure_len(param.len());
        state.t += 1;
        if row_grads.is_empty() {
            return;
        }
        let (slots, grads) = (row_grads.slots(), row_grads.rows());
        assert_eq!(grads.cols(), dim, "gradient panel width mismatch");
        let corr1 = 1.0 - self.beta1.powi(state.t as i32);
        let corr2 = 1.0 - self.beta2.powi(state.t as i32);
        let tables = [param, &mut state.m[..], &mut state.v[..]];
        // SAFETY: `RowGrads` stamps every slot it holds and refuses or
        // merges a repeat in each of its three fills (`insert`,
        // `fill_transa_product`, `scatter_add`), so `slots` are unique.
        unsafe {
            fvae_pool::global().run_slot_rows(tables, dim, slots, |i, [p, m, v]| {
                for (((p, &g), m), v) in p.iter_mut().zip(grads.row(i)).zip(m).zip(v) {
                    self.apply_one(p, g, m, v, corr1, corr2);
                }
            });
        }
    }

    /// Lazy sparse update of scalar-per-slot parameters (output biases).
    pub fn step_scalars(
        &self,
        state: &mut AdamState,
        param: &mut [f32],
        grads: &[(usize, f32)],
    ) {
        state.ensure_len(param.len());
        state.t += 1;
        let corr1 = 1.0 - self.beta1.powi(state.t as i32);
        let corr2 = 1.0 - self.beta2.powi(state.t as i32);
        for &(slot, g) in grads {
            let (m, v) = (&mut state.m[slot], &mut state.v[slot]);
            self.apply_one(&mut param[slot], g, m, v, corr1, corr2);
        }
    }
}

/// Global-norm gradient clipping.
#[derive(Clone, Copy, Debug)]
pub struct GradClip {
    /// Maximum allowed global L2 norm.
    pub max_norm: f32,
}

impl GradClip {
    /// Creates a clipper.
    pub fn new(max_norm: f32) -> Self {
        assert!(max_norm > 0.0, "clip norm must be positive");
        Self { max_norm }
    }

    /// Clips a set of gradient buffers jointly to `max_norm`, returning the
    /// pre-clip global norm.
    pub fn clip(&self, grads: &mut [&mut [f32]]) -> f32 {
        let sq: f32 = grads
            .iter()
            .map(|g| g.iter().map(|x| x * x).sum::<f32>())
            .sum();
        let norm = sq.sqrt();
        if norm > self.max_norm && norm > 0.0 {
            let scale = self.max_norm / norm;
            for g in grads.iter_mut() {
                fvae_tensor::ops::scale(scale, g);
            }
        }
        norm
    }
}

/// Linear KL annealing (the recipe of Liang et al.): the weight at
/// optimizer step `step` rises from 0 to `cap` over `anneal_steps` steps
/// and then stays at `cap`; `anneal_steps == 0` means `cap` from the first
/// step. FVAE and Mult-VAE both schedule their β through here.
pub fn linear_anneal(cap: f32, anneal_steps: u64, step: u64) -> f32 {
    if anneal_steps == 0 {
        return cap;
    }
    cap * ((step as f32 / anneal_steps as f32).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let sgd = Sgd::new(0.1);
        let mut p = vec![1.0f32, -1.0];
        sgd.step_slice(&mut p, &[2.0, -2.0]);
        assert_eq!(p, vec![0.8, -0.8]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the very first Adam step ≈ lr·sign(g).
        let adam = Adam::new(0.01);
        let mut state = AdamState::new(1);
        let mut p = vec![0.0f32];
        adam.step_slice(&mut state, &mut p, &[3.0]);
        assert!((p[0] + 0.01).abs() < 1e-4, "got {}", p[0]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(p) = (p − 5)², gradient 2(p − 5).
        let adam = Adam::new(0.1);
        let mut state = AdamState::new(1);
        let mut p = vec![0.0f32];
        for _ in 0..500 {
            let g = 2.0 * (p[0] - 5.0);
            adam.step_slice(&mut state, &mut p, &[g]);
        }
        assert!((p[0] - 5.0).abs() < 0.05, "got {}", p[0]);
    }

    #[test]
    fn sparse_rows_update_only_touched_slots() {
        let adam = Adam::new(0.5);
        let mut state = AdamState::default();
        let mut table = vec![1.0f32; 6]; // 3 slots × dim 2
        let mut grads = RowGrads::default();
        grads.insert(1, vec![1.0, -1.0]);
        adam.step_rows(&mut state, &mut table, 2, &grads);
        assert_eq!(&table[0..2], &[1.0, 1.0], "slot 0 untouched");
        assert!(table[2] < 1.0 && table[3] > 1.0, "slot 1 moved against gradient");
        assert_eq!(&table[4..6], &[1.0, 1.0], "slot 2 untouched");
    }

    #[test]
    fn sparse_state_grows_with_vocab() {
        let adam = Adam::new(0.1);
        let mut state = AdamState::default();
        let mut table = vec![0.0f32; 2];
        let mut grads = RowGrads::default();
        grads.insert(0, vec![1.0, 1.0]);
        adam.step_rows(&mut state, &mut table, 2, &grads);
        table.extend_from_slice(&[0.0, 0.0]); // vocabulary grew by one slot
        let mut grads2 = RowGrads::default();
        grads2.insert(1, vec![1.0, 1.0]);
        adam.step_rows(&mut state, &mut table, 2, &grads2);
        assert!(table[2] < 0.0 && table[3] < 0.0);
    }

    #[test]
    fn sparse_rows_match_the_dense_step_at_any_thread_count() {
        // Touching every slot through the panel must equal the dense update
        // of the same gradient, whatever the pool's parallelism.
        let (vocab, dim) = (37usize, 5usize);
        let adam = Adam::new(0.05);
        let grad: Vec<f32> = (0..vocab * dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut grads = RowGrads::default();
        for slot in (0..vocab).rev() {
            grads.insert(slot, grad[slot * dim..(slot + 1) * dim].to_vec());
        }
        let mut dense = vec![0.5f32; vocab * dim];
        let mut dense_state = AdamState::default();
        for _ in 0..3 {
            adam.step_slice(&mut dense_state, &mut dense, &grad);
        }
        let pool = fvae_pool::global();
        let before = pool.parallelism();
        for threads in [1usize, 2, 4] {
            pool.set_parallelism(threads);
            let mut table = vec![0.5f32; vocab * dim];
            let mut state = AdamState::default();
            for _ in 0..3 {
                adam.step_rows(&mut state, &mut table, dim, &grads);
            }
            for (a, b) in table.iter().zip(&dense) {
                assert_eq!(a.to_bits(), b.to_bits(), "sparse and dense Adam differ at {threads} threads");
            }
        }
        pool.set_parallelism(before);
    }

    #[test]
    #[should_panic(expected = "slot beyond parameter buffer")]
    fn sparse_rows_refuse_a_slot_outside_the_table() {
        let mut grads = RowGrads::default();
        grads.insert(3, vec![1.0, 1.0]);
        Adam::new(0.1).step_rows(&mut AdamState::default(), &mut [0.0f32; 6], 2, &grads);
    }

    #[test]
    fn scalar_step_updates_biases() {
        let adam = Adam::new(0.1);
        let mut state = AdamState::default();
        let mut bias = vec![0.0f32; 3];
        adam.step_scalars(&mut state, &mut bias, &[(2, 1.0)]);
        assert_eq!(bias[0], 0.0);
        assert!(bias[2] < 0.0);
    }

    #[test]
    fn clip_preserves_direction_and_caps_norm() {
        let clip = GradClip::new(1.0);
        let mut a = vec![3.0f32, 0.0];
        let mut b = vec![0.0f32, 4.0];
        let pre = {
            let mut refs: Vec<&mut [f32]> = vec![&mut a, &mut b];
            clip.clip(&mut refs)
        };
        assert!((pre - 5.0).abs() < 1e-5);
        let post = (a.iter().chain(b.iter()).map(|x| x * x).sum::<f32>()).sqrt();
        assert!((post - 1.0).abs() < 1e-5);
        assert!(a[0] > 0.0 && b[1] > 0.0);
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let clip = GradClip::new(10.0);
        let mut a = vec![1.0f32, 1.0];
        let mut refs: Vec<&mut [f32]> = vec![&mut a];
        clip.clip(&mut refs);
        assert_eq!(a, vec![1.0, 1.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The first Adam step always moves each coordinate opposite to its
        /// gradient, with magnitude ≈ lr (bias correction makes m̂/√v̂ ≈ ±1).
        #[test]
        fn first_adam_step_opposes_gradient(
            grads in proptest::collection::vec(-100.0f32..100.0, 1..20),
            lr in 0.0001f32..0.1,
        ) {
            prop_assume!(grads.iter().all(|g| g.abs() > 1e-3));
            let adam = Adam::new(lr);
            let mut state = AdamState::new(grads.len());
            let mut params = vec![0.0f32; grads.len()];
            adam.step_slice(&mut state, &mut params, &grads);
            for (p, g) in params.iter().zip(grads.iter()) {
                prop_assert!(p * g < 0.0, "param {p} should oppose gradient {g}");
                prop_assert!((p.abs() - lr).abs() < lr * 0.01);
            }
        }

        /// SGD is linear: stepping with g then h equals stepping with g + h.
        #[test]
        fn sgd_steps_compose_additively(
            g in proptest::collection::vec(-10.0f32..10.0, 1..20),
            lr in 0.001f32..1.0,
        ) {
            let sgd = Sgd::new(lr);
            let h: Vec<f32> = g.iter().map(|x| x * 0.5 - 1.0).collect();
            let mut separate = vec![0.0f32; g.len()];
            sgd.step_slice(&mut separate, &g);
            sgd.step_slice(&mut separate, &h);
            let combined_grad: Vec<f32> = g.iter().zip(&h).map(|(a, b)| a + b).collect();
            let mut combined = vec![0.0f32; g.len()];
            sgd.step_slice(&mut combined, &combined_grad);
            for (a, b) in separate.iter().zip(combined.iter()) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }

        /// Clipping never increases the global norm and never flips a sign.
        #[test]
        fn clip_is_contractive_and_sign_preserving(
            mut g in proptest::collection::vec(-100.0f32..100.0, 1..30),
            max_norm in 0.1f32..50.0,
        ) {
            let original = g.clone();
            let clip = GradClip::new(max_norm);
            let pre = {
                let mut refs: Vec<&mut [f32]> = vec![&mut g];
                clip.clip(&mut refs)
            };
            let post = g.iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!(post <= pre.max(max_norm) + 1e-3);
            prop_assert!(post <= max_norm * 1.001 || pre <= max_norm);
            for (before, after) in original.iter().zip(g.iter()) {
                prop_assert!(before * after >= 0.0, "sign flipped: {before} → {after}");
            }
        }
    }
}
