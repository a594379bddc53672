//! Heap-allocation audit of the train step, with a counting wrapper around
//! the system allocator as `crates/obs/tests/no_alloc.rs` has:
//! `FvaeOptHandle::scratch_allocs` only sees the buffers that report to it,
//! this sees every allocation of the process.
//!
//! This file holds exactly one test. The counter counts every thread while
//! it is armed — the step's pooled shards run on worker threads — so the
//! warm-up first makes every pool worker run a shard: a worker that only
//! starts later would be charged its thread start-up allocations. The test
//! harness itself sits blocked on the test's result meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use fvae_core::{Fvae, FvaeConfig};
use fvae_data::{FieldSpec, TopicModelConfig};

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

/// The fixed-shape scenario of `steady_state_steps_do_not_allocate_scratch`:
/// rate 1.0 and no dropout, so one repeated batch sees the same candidate
/// sets and every buffer keeps its shape.
#[test]
fn warmed_train_steps_allocate_nothing() {
    let ds = TopicModelConfig {
        n_users: 120,
        n_topics: 3,
        alpha: 0.15,
        fields: vec![FieldSpec::new("ch1", 12, 3, 1.0), FieldSpec::new("tag", 48, 5, 1.0)],
        pair_prob: 0.0,
        seed: 9,
    }
    .generate();
    let mut cfg = FvaeConfig::for_dataset(&ds);
    cfg.latent_dim = 8;
    cfg.enc_hidden = 16;
    cfg.dec_hidden = vec![16];
    cfg.batch_size = 24;
    cfg.anneal_steps = 20;
    cfg.sampling.rate = 1.0;
    cfg.dropout = 0.0;
    cfg.field_dropout = 0.0;
    let mut model = Fvae::new(cfg);
    let mut opt = model.make_opt_states();
    let users: Vec<usize> = (0..24).collect();
    // Every seat of the pool takes one shard and waits for the others, so
    // all workers are up and running before anything is counted.
    let pool = fvae_pool::global();
    let seats = pool.capacity();
    pool.set_parallelism(seats);
    let all_seated = std::sync::Barrier::new(seats);
    pool.run(seats, |_| {
        all_seated.wait();
    });
    // Warm-up: grows every buffer to its steady-state capacity and inserts
    // the batch's IDs into the tables.
    for _ in 0..3 {
        model.train_single_batch(&ds, &users, &mut opt);
    }

    COUNTING.store(true, Relaxed);
    for _ in 0..10 {
        model.train_single_batch(&ds, &users, &mut opt);
    }
    COUNTING.store(false, Relaxed);
    assert_eq!(ALLOCATIONS.load(Relaxed), 0, "a warmed train step must not touch the heap");
}
