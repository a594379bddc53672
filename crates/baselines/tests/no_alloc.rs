//! Heap-allocation audit of the dense VAE train step, with a counting
//! wrapper around the system allocator as `crates/core/tests/no_alloc.rs`
//! has: once a step of each prior has run at a batch shape, the next steps
//! at that shape must not touch the heap.
//!
//! This file holds exactly one test. The counter counts every thread while
//! it is armed — the step's pooled GEMMs run on worker threads — so the
//! warm-up first makes every pool worker run a shard: a worker that only
//! starts later would be charged its thread start-up allocations. The test
//! harness itself sits blocked on the test's result meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use fvae_baselines::{DenseVae, RepresentationModel};
use fvae_data::{FieldSpec, TopicModelConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

fn count_if_measuring() {
    if COUNTING.load(Relaxed) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One repeated batch per prior. Batch 64 × hidden 64 × 200 input columns
/// puts the first encoder layer and the decoder's output layer above
/// `PAR_MIN_FLOPS`, so the pooled GEMM paths are audited too.
#[test]
fn warmed_dense_vae_steps_allocate_nothing() {
    let ds = TopicModelConfig {
        n_users: 96,
        n_topics: 3,
        alpha: 0.15,
        fields: vec![FieldSpec::new("ch1", 40, 3, 1.0), FieldSpec::new("tag", 160, 5, 1.0)],
        pair_prob: 0.0,
        seed: 9,
    }
    .generate();
    let users: Vec<usize> = (0..64).collect();
    // Every seat of the pool takes one shard and waits for the others, so
    // all workers are up and running before anything is counted.
    let pool = fvae_pool::global();
    let seats = pool.capacity();
    pool.set_parallelism(seats);
    let all_seated = std::sync::Barrier::new(seats);
    pool.run(seats, |_| {
        all_seated.wait();
    });

    for mut model in
        [DenseVae::mult_dae(8, 64, 1), DenseVae::mult_vae(8, 64, 2), DenseVae::rec_vae(8, 64, 3)]
    {
        model.init_for(&ds);
        let mut rng = StdRng::seed_from_u64(4);
        // Warm-up: grows every buffer to its steady-state capacity (and
        // takes RecVAE's encoder snapshot).
        for _ in 0..2 {
            model.train_batch_timed(&ds, &users, &mut rng);
        }
        ALLOCATIONS.store(0, Relaxed);
        COUNTING.store(true, Relaxed);
        for _ in 0..5 {
            model.train_batch_timed(&ds, &users, &mut rng);
        }
        COUNTING.store(false, Relaxed);
        assert_eq!(
            ALLOCATIONS.load(Relaxed),
            0,
            "a warmed {} step must not touch the heap",
            model.name()
        );
    }
}
