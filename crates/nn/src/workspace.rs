//! Reusable scratch buffers for the zero-allocation training hot path.
//!
//! The dense layers' `*_into` backward passes need short-lived matrix
//! temporaries (the pre-activation gradient of a dense layer). Allocating
//! them per step dominated small-batch training cost; a [`Workspace`] keeps
//! them on a free list instead, so after the first step every `take` is a
//! pop + `resize` inside existing capacity. (Sparse gradients need no arena:
//! a [`crate::RowGrads`] panel owns its one contiguous buffer.)
//!
//! The arena also doubles as the *allocation-counting hook*: [`Workspace::allocs`]
//! increments only when a `take` could not be served from pooled capacity,
//! so a steady-state training loop can assert the counter stays flat.

use fvae_tensor::Matrix;

/// Free-list arena of matrix scratch buffers.
#[derive(Debug, Default)]
pub struct Workspace {
    mats: Vec<Matrix>,
    allocs: u64,
    takes: u64,
    recycles: u64,
}

/// Point-in-time arena counters, exported as telemetry gauges by observers
/// (`fvae_nn_scratch_*`): a flat `allocs` across steps is the zero-allocation
/// guarantee; `takes`/`recycles` show churn through the pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// `take_*` calls that had to grow heap capacity.
    pub allocs: u64,
    /// Total `take_*` calls.
    pub takes: u64,
    /// Total `recycle_*` calls.
    pub recycles: u64,
    /// Buffers currently parked on the free lists.
    pub pooled: usize,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of `take_*` calls that had to grow heap capacity (pool empty
    /// or no pooled buffer large enough). Flat across steady-state steps.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Buffers currently parked on the free lists.
    pub fn pooled(&self) -> usize {
        self.mats.len()
    }

    /// Snapshot of all arena counters.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            allocs: self.allocs,
            takes: self.takes,
            recycles: self.recycles,
            pooled: self.pooled(),
        }
    }

    /// Takes a zeroed `rows × cols` matrix, reusing the pooled buffer whose
    /// capacity fits best (smallest sufficient; otherwise the largest, grown).
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        self.takes += 1;
        let needed = rows * cols;
        let mut fit: Option<usize> = None;
        let mut largest: Option<usize> = None;
        for (i, m) in self.mats.iter().enumerate() {
            let cap = m.capacity();
            if cap >= needed && fit.is_none_or(|j| cap < self.mats[j].capacity()) {
                fit = Some(i);
            }
            if largest.is_none_or(|j| cap > self.mats[j].capacity()) {
                largest = Some(i);
            }
        }
        let mut m = match fit.or(largest) {
            Some(i) => self.mats.swap_remove(i),
            None => Matrix::zeros(0, 0),
        };
        if m.capacity() < needed {
            self.allocs += 1;
        }
        m.resize_zeroed(rows, cols);
        m
    }

    /// Takes a matrix shaped and filled like `src`.
    pub fn take_matrix_copy(&mut self, src: &Matrix) -> Matrix {
        let mut m = self.take_matrix(src.rows(), src.cols());
        m.as_mut_slice().copy_from_slice(src.as_slice());
        m
    }

    /// Returns a matrix to the pool for reuse.
    pub fn recycle_matrix(&mut self, m: Matrix) {
        self.recycles += 1;
        self.mats.push(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffers_of_requested_shape() {
        let mut ws = Workspace::new();
        let m = ws.take_matrix(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn steady_state_reuse_allocates_once() {
        let mut ws = Workspace::new();
        for _ in 0..5 {
            let mut m = ws.take_matrix(8, 8);
            m.fill(1.0);
            ws.recycle_matrix(m);
        }
        assert_eq!(ws.allocs(), 1, "one matrix allocation total");
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn recycled_buffers_come_back_zeroed_on_take() {
        let mut ws = Workspace::new();
        let mut m = ws.take_matrix(2, 2);
        m.fill(9.0);
        ws.recycle_matrix(m);
        let m = ws.take_matrix(2, 2);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        ws.recycle_matrix(Matrix::zeros(10, 10)); // cap 100
        ws.recycle_matrix(Matrix::zeros(2, 3)); // cap 6
        let m = ws.take_matrix(2, 2); // needs 4 → the cap-6 buffer
        assert_eq!(ws.allocs(), 0);
        assert!(m.capacity() < 100, "picked {} — should be the small buffer", m.capacity());
    }

    #[test]
    fn growing_past_pooled_capacity_counts_as_alloc() {
        let mut ws = Workspace::new();
        ws.recycle_matrix(Matrix::zeros(2, 2));
        let m = ws.take_matrix(10, 10);
        assert_eq!(m.shape(), (10, 10));
        assert_eq!(ws.allocs(), 1);
    }

    #[test]
    fn stats_track_takes_recycles_and_pool() {
        let mut ws = Workspace::new();
        let a = ws.take_matrix(2, 2);
        let b = ws.take_matrix(1, 3);
        ws.recycle_matrix(a);
        ws.recycle_matrix(b);
        let _ = ws.take_matrix(2, 2);
        assert_eq!(
            ws.stats(),
            WorkspaceStats { allocs: 2, takes: 3, recycles: 2, pooled: 1 }
        );
    }

    #[test]
    fn copy_take_matches_source() {
        let mut ws = Workspace::new();
        let src = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let m = ws.take_matrix_copy(&src);
        assert_eq!(m, src);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::activation::Activation;
    use crate::dense::{Dense, DenseGrads};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    proptest! {
        /// A workspace reused across two different batch sizes (so every
        /// pooled buffer is taken back dirty and at the wrong shape) produces
        /// bit-identical gradients to fresh buffers each time.
        #[test]
        fn workspace_reuse_across_batch_sizes_matches_fresh(
            b1 in 1usize..7, b2 in 1usize..7, seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let layer = Dense::new(5, 4, Activation::Tanh, &mut rng);
            let mut shared = Workspace::new();
            for &b in &[b1, b2, b1] {
                let x = Matrix::from_fn(b, 5, |_, _| rng.random_range(-1.0f32..1.0));
                let mut y = Matrix::zeros(0, 0);
                layer.forward_into(&x, &mut y);
                let dy = y.map(|v| 2.0 * v);

                let run = |ws: &mut Workspace| {
                    let mut grads = DenseGrads::empty();
                    let mut dx = Matrix::zeros(0, 0);
                    layer.backward_into(&x, &y, &dy, &mut grads, &mut dx, ws);
                    (grads, dx)
                };
                let (g_shared, dx_shared) = run(&mut shared);
                let (g_fresh, dx_fresh) = run(&mut Workspace::new());
                prop_assert_eq!(&g_shared.dw, &g_fresh.dw);
                prop_assert_eq!(&g_shared.db, &g_fresh.db);
                prop_assert_eq!(&dx_shared, &dx_fresh);
            }
        }
    }
}
