//! Concurrency audit: metrics recorded from scoped threads lose
//! nothing. Property-tested — for any split of work across threads, the sum
//! of per-thread increments equals the final counter value — plus a stress
//! test where writers hammer the registry *while* a reader renders the
//! Prometheus snapshot, with a counting allocator proving the writers'
//! record calls stay allocation-free even under contention.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use fvae_obs::Registry;
use proptest::prelude::*;

/// Same opt-in counting-allocator pattern as `no_alloc.rs`: only threads
/// that set `COUNTING` contribute, so harness threads and the rendering
/// reader (which allocates its `String` by design) stay out of the count.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measuring() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

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

/// N writers hammer a counter, a gauge, and a histogram while a reader
/// renders the Prometheus text exposition in a loop. Afterwards: no
/// increment was lost, every render was a consistent snapshot (non-empty,
/// parseable layout), and the writers allocated nothing.
#[test]
fn render_under_write_storm_loses_nothing_and_writers_do_not_allocate() {
    const WRITERS: usize = 4;
    const ITERS: u64 = 50_000;

    let registry = Registry::new();
    let counter = registry.counter("fvae_stress_steps_total");
    let gauge = registry.gauge("fvae_stress_beta");
    let hist = registry.histogram("fvae_stress_step_ns");
    // Warm up (first record may lazily size bucket storage).
    counter.inc();
    gauge.set(0.0);
    hist.record(1);

    let stop = AtomicBool::new(false);
    let renders = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (c, g, h) = (counter.clone(), gauge.clone(), hist.clone());
            scope.spawn(move || {
                COUNTING.with(|f| f.set(true));
                for i in 0..ITERS {
                    c.inc();
                    g.set((w as u64 * ITERS + i) as f64);
                    h.record(i * 977);
                }
                COUNTING.with(|f| f.set(false));
            });
        }
        let (reg, stop_ref, renders_ref) = (&registry, &stop, &renders);
        scope.spawn(move || {
            // The reader races the writers by design; it must never see a
            // torn registry, only some prefix of the increments.
            while !stop_ref.load(Relaxed) {
                let text = reg.render();
                assert!(text.contains("fvae_stress_steps_total"), "render lost a metric");
                assert!(text.contains("fvae_stress_step_ns_bucket"), "render lost the histogram");
                renders_ref.fetch_add(1, Relaxed);
            }
        });
        // Writers finish on their own; then release the reader. Scoped
        // spawn order means writer handles resolve before the scope ends.
        std::thread::sleep(std::time::Duration::from_millis(1));
        while counter.get() < WRITERS as u64 * ITERS + 1 {
            std::thread::yield_now();
        }
        stop.store(true, Relaxed);
    });

    assert_eq!(counter.get(), WRITERS as u64 * ITERS + 1, "no counter increment may be lost");
    assert_eq!(hist.count(), WRITERS as u64 * ITERS + 1, "no histogram sample may be lost");
    let (_, cum) = *hist.cumulative_buckets().last().expect("buckets exist");
    assert_eq!(cum, WRITERS as u64 * ITERS + 1, "cumulative buckets must cover every sample");
    assert!(renders.load(Relaxed) > 0, "the reader must have rendered at least once");
    assert_eq!(
        ALLOCATIONS.load(Relaxed),
        0,
        "metric recording must stay allocation-free under contention"
    );
}

proptest! {
    /// Σ per-thread increments == final counter value.
    #[test]
    fn concurrent_counter_increments_sum_exactly(
        per_thread in proptest::collection::vec(0u64..2_000, 1..8),
    ) {
        let registry = Registry::new();
        let counter = registry.counter("fvae_test_concurrent_total");
        std::thread::scope(|scope| {
            for &n in &per_thread {
                let c = counter.clone();
                scope.spawn(move || {
                    for _ in 0..n {
                        c.inc();
                    }
                });
            }
        });
        prop_assert_eq!(counter.get(), per_thread.iter().sum::<u64>());
    }

    /// Histograms drop no samples under concurrent recording, and the
    /// cumulative bucket counts stay consistent with the total.
    #[test]
    fn concurrent_histogram_records_every_sample(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..200), 1..6),
    ) {
        let registry = Registry::new();
        let hist = registry.histogram("fvae_test_concurrent_ns");
        std::thread::scope(|scope| {
            for samples in &per_thread {
                let h = hist.clone();
                scope.spawn(move || {
                    for &v in samples {
                        h.record(v);
                    }
                });
            }
        });
        let total: u64 = per_thread.iter().map(|s| s.len() as u64).sum();
        prop_assert_eq!(hist.count(), total);
        if let Some(&(_, cum)) = hist.cumulative_buckets().last() {
            prop_assert_eq!(cum, total);
        } else {
            prop_assert_eq!(total, 0);
        }
    }
}
