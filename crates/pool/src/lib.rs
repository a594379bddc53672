//! Persistent thread pool for deterministic intra-step parallelism.
//!
//! The FVAE training step (Algorithm 1) is dominated by dense GEMMs and
//! per-sample sampled-softmax work that shards trivially across cores. This
//! crate supplies the execution substrate: a std-only pool of workers that
//! park between jobs, a work-stealing shard counter, and the only ways the
//! workspace writes one buffer from several shards — so the only `unsafe`
//! that splits a buffer across threads lives here, next to its proof.
//!
//! # Determinism contract
//!
//! The pool itself never promises anything about *which* worker runs a
//! shard — shards are claimed dynamically from an atomic counter so a slow
//! core cannot stall the step. Bit-determinism is instead a property of how
//! the work is shaped, and each rule has one entry point:
//!
//! * **Output-disjoint sharding** (GEMM row blocks, per-sample rows): every
//!   shard writes its own region and performs the same float operations in
//!   the same order as the serial kernel, so the result is bit-identical to
//!   serial no matter how many workers participate.
//!   [`ThreadPool::run_rows`] hands each shard a contiguous chunk of rows
//!   (aligned, so a kernel that pairs rows never sees a pair split);
//!   [`ThreadPool::run_slot_rows`] hands each shard the rows named by a
//!   list of unique slots, in one or more parallel tables.
//! * **Fixed-shard reduction** (loss/KL sums): the shard *count* is the
//!   constant [`REDUCE_SHARDS`], independent of the thread count, each shard
//!   accumulates serially in-order into its own partial, and the partials
//!   are combined on the caller thread in fixed shard order. Thread count
//!   then only decides how many shards run concurrently — never the
//!   summation order, so never the bits. [`ThreadPool::run_rows_reduce`]
//!   hands shard `s` its rows and `&mut partials[s]`.
//!
//! # Sizing and control
//!
//! The [`global`] pool is created on first use with enough capacity for the
//! machine (and always at least [`MIN_GLOBAL_CAPACITY`], so parity tests can
//! exercise multi-way sharding even on small CI runners). The *effective*
//! parallelism is a runtime clamp: `FVAE_THREADS` seeds it, and
//! [`set_parallelism`] (the CLI's `--threads`) adjusts it at any time.
//! Excess workers simply stay parked.
//!
//! [`ThreadPool::run`] performs no heap allocation: the job descriptor lives
//! on the caller's stack and shard ranges are computed arithmetically, so
//! pooled kernels preserve the workspace crates' zero-steady-state-allocation
//! invariant.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// The global pool is always built with at least this much capacity, so the
/// 1/2/4-thread parity harness is meaningful even on a single-core runner.
pub const MIN_GLOBAL_CAPACITY: usize = 4;

/// Hard cap on global pool capacity (a 256-core box does not need 256
/// workers for batch-sized shard counts).
const MAX_GLOBAL_CAPACITY: usize = 64;

/// Number of fixed reduction shards used by deterministic accumulations
/// (loss sums, KL; see [`ThreadPool::run_rows_reduce`]). Constant by
/// design: the reduction tree must not depend on the thread count. 8
/// saturates the useful parallelism of batch-sized reductions while keeping
/// the serial merge negligible.
pub const REDUCE_SHARDS: usize = 8;

thread_local! {
    // True while this thread is executing a pooled shard (worker or caller).
    // Nested `run` calls fall back to inline execution instead of
    // deadlocking on their own pool.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// The base pointer of a buffer the entry points below split into disjoint
/// pieces, one per shard. Private: every dereference is one of the
/// documented `SAFETY` blocks in this file.
struct SendPtr<T>(*mut T);

// SAFETY: a `SendPtr` is only dereferenced inside `ThreadPool::run` shards,
// each of which touches elements no other shard touches, while the buffer's
// `&mut` borrow is held by the blocked caller. Handing `&mut T` to another
// thread needs exactly `T: Send`.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shards share the pointer value only, never the pointee; see above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn new(ptr: *mut T) -> Self {
        Self(ptr)
    }

    // A method, not field access: a closure calling it captures the whole
    // (`Sync`) wrapper rather than the bare pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Contiguous, exhaustive, aligned shard boundaries.
///
/// Splits `0..n` into `n_shards` ranges whose starts are multiples of
/// `align` (the last range absorbs the remainder). Alignment lets callers
/// preserve register-tile pairing: a kernel that processes rows in pairs
/// stays bit-identical to serial only if no shard boundary splits a pair.
fn shard_range(n: usize, n_shards: usize, shard: usize, align: usize) -> std::ops::Range<usize> {
    debug_assert!(shard < n_shards.max(1));
    let align = align.max(1);
    let blocks = n.div_ceil(align);
    let per = blocks / n_shards.max(1);
    let rem = blocks % n_shards.max(1);
    let b0 = shard * per + shard.min(rem);
    let b1 = b0 + per + usize::from(shard < rem);
    (b0 * align).min(n)..(b1 * align).min(n)
}

/// Shard count for dynamically balanced, output-disjoint work: a few shards
/// per active thread so a slow core sheds load, capped by the number of
/// work units. Any value is bit-equivalent for disjoint writes; this only
/// tunes balance.
fn balanced_shards(units: usize, parallelism: usize) -> usize {
    (parallelism * 4).min(units).max(1)
}

/// Aggregate counters of a pool since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads the pool was built with (including the caller seat).
    pub capacity: usize,
    /// Current effective parallelism (the runtime clamp).
    pub parallelism: usize,
    /// Jobs dispatched to workers.
    pub parallel_jobs: u64,
    /// Jobs executed inline (parallelism 1, single shard, or nested call).
    pub serial_jobs: u64,
    /// Total shards executed across all jobs.
    pub shards: u64,
}

// The published-job slot. Workers adopt the current job under this mutex,
// which is what makes the stack-borrowed job pointer sound: the caller
// clears the slot (under the same mutex) and then waits for every adopted
// worker to leave before its stack frame — and the job with it — goes away.
struct Slot {
    job: Option<JobRef>,
    /// Worker seats remaining for the current job.
    seats: usize,
    shutdown: bool,
}

#[derive(Clone, Copy)]
struct JobRef(*const Job<'static>);

// SAFETY: the pointer is only dereferenced while the caller blocks in `run`,
// which outlives every adoption (see the protocol on `Slot`), and `Job` is
// shared only through `&` — its `func` is `Sync`, its counters atomic.
unsafe impl Send for JobRef {}

struct Job<'a> {
    func: &'a (dyn Fn(usize) + Sync),
    n_shards: usize,
    /// Next unclaimed shard.
    next: AtomicUsize,
    /// Shards fully executed.
    completed: AtomicUsize,
    /// Workers currently inside the job (adopted, not yet exited).
    active: AtomicUsize,
    panicked: AtomicBool,
}

impl Job<'_> {
    /// Claims and executes shards until the counter runs dry. Runs on the
    /// caller *and* every adopted worker.
    fn execute_shards(&self) {
        loop {
            let s = self.next.fetch_add(1, Ordering::Relaxed);
            if s >= self.n_shards {
                break;
            }
            // A panicking shard must still count as completed or the caller
            // would wait forever; the panic is re-raised on the caller.
            if catch_unwind(AssertUnwindSafe(|| (self.func)(s))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            self.completed.fetch_add(1, Ordering::Release);
        }
    }
}

struct Shared {
    slot: Mutex<Slot>,
    work_cv: Condvar,
    // Completion handshake: workers notify under this lock after leaving a
    // job; the caller waits here for `completed == n_shards && active == 0`.
    done: Mutex<()>,
    done_cv: Condvar,
    parallel_jobs: AtomicU64,
    serial_jobs: AtomicU64,
    shards: AtomicU64,
}

/// A persistent pool of parked worker threads. See the crate docs for the
/// determinism contract.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    capacity: usize,
    clamp: AtomicUsize,
}

impl ThreadPool {
    /// Builds a pool with `capacity` total execution seats (the caller
    /// thread plus `capacity - 1` spawned workers). Effective parallelism
    /// starts at `capacity` and can be lowered with
    /// [`ThreadPool::set_parallelism`].
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot { job: None, seats: 0, shutdown: false }),
            work_cv: Condvar::new(),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            parallel_jobs: AtomicU64::new(0),
            serial_jobs: AtomicU64::new(0),
            shards: AtomicU64::new(0),
        });
        let workers = (1..capacity)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fvae-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers, capacity, clamp: AtomicUsize::new(capacity) }
    }

    /// Total execution seats (caller + workers).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current effective parallelism.
    pub fn parallelism(&self) -> usize {
        self.clamp.load(Ordering::Relaxed)
    }

    /// Sets the effective parallelism, clamped to `1..=capacity`. Changing
    /// it never changes computed bits — only how many shards run at once.
    pub fn set_parallelism(&self, n: usize) {
        self.clamp.store(n.clamp(1, self.capacity), Ordering::Relaxed);
    }

    /// Counters since construction.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            capacity: self.capacity,
            parallelism: self.parallelism(),
            parallel_jobs: self.shared.parallel_jobs.load(Ordering::Relaxed),
            serial_jobs: self.shared.serial_jobs.load(Ordering::Relaxed),
            shards: self.shared.shards.load(Ordering::Relaxed),
        }
    }

    /// Executes `f(shard)` for every shard in `0..n_shards`, spreading the
    /// shards across the caller and up to `parallelism() - 1` workers.
    ///
    /// Blocks until every shard has finished. Performs no heap allocation.
    /// Falls back to an inline serial loop (identical call sequence) when
    /// parallelism is 1, there is a single shard, or the calling thread is
    /// itself executing a pooled shard. Panics from shards are re-raised
    /// here after all shards complete.
    pub fn run<F: Fn(usize) + Sync>(&self, n_shards: usize, f: F) {
        self.run_dyn(n_shards, &f);
    }

    fn run_dyn(&self, n_shards: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_shards == 0 {
            return;
        }
        self.shared.shards.fetch_add(n_shards as u64, Ordering::Relaxed);
        let par = self.parallelism().min(n_shards);
        if par <= 1 || self.workers.is_empty() || IN_POOL_JOB.with(Cell::get) {
            self.shared.serial_jobs.fetch_add(1, Ordering::Relaxed);
            for s in 0..n_shards {
                f(s);
            }
            return;
        }
        self.shared.parallel_jobs.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            // SAFETY: erases the borrow lifetime only. `run` does not
            // return until the slot is cleared and every adopted worker has
            // exited, so no worker can observe the job after this frame
            // unwinds.
            func: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
            },
            n_shards,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        };
        {
            let mut slot = self.shared.slot.lock().expect("pool mutex");
            slot.job = Some(JobRef(std::ptr::from_ref(&job).cast::<Job<'static>>()));
            slot.seats = (par - 1).min(n_shards - 1);
            self.shared.work_cv.notify_all();
        }
        // The caller is a full participant; mark it in-job so the kernels it
        // calls inside its shards do not try to re-enter the pool.
        IN_POOL_JOB.with(|c| c.set(true));
        job.execute_shards();
        IN_POOL_JOB.with(|c| c.set(false));
        {
            // Close the slot: late-waking workers must not adopt a job whose
            // caller is about to leave.
            let mut slot = self.shared.slot.lock().expect("pool mutex");
            slot.job = None;
            slot.seats = 0;
        }
        {
            let mut g = self.shared.done.lock().expect("pool done mutex");
            while job.completed.load(Ordering::Acquire) != n_shards
                || job.active.load(Ordering::Acquire) != 0
            {
                g = self.shared.done_cv.wait(g).expect("pool done mutex");
            }
        }
        if job.panicked.load(Ordering::Relaxed) {
            panic!("fvae-pool: a shard panicked inside a pooled job");
        }
    }

    /// Output-disjoint rows (DESIGN §10, rule 1): `out` is a
    /// `rows × width` row-major buffer, and `f(range, chunk)` runs once per
    /// non-empty shard with `chunk` the rows `range` of `out`.
    ///
    /// The shards are a few per active thread ([`ThreadPool::parallelism`]),
    /// capped by the `rows.div_ceil(align)` row blocks, with every boundary
    /// a multiple of `align` rows, so a kernel that walks rows in tiles of
    /// `align` keeps its serial tile pairing. A shard that replays the
    /// serial kernel on its chunk then yields bits independent of the
    /// thread count. Panics, before any shard runs, unless
    /// `out.len() == rows * width`.
    pub fn run_rows<T, F>(&self, out: &mut [T], rows: usize, width: usize, align: usize, f: F)
    where
        T: Send,
        F: Fn(std::ops::Range<usize>, &mut [T]) + Sync,
    {
        let n_shards = balanced_shards(rows.div_ceil(align.max(1)), self.parallelism());
        self.run_chunks(out, rows, width, align, n_shards, |_, range, chunk| f(range, chunk));
    }

    /// Fixed-shard reduction (DESIGN §10, rule 2): [`ThreadPool::run_rows`]
    /// over exactly [`REDUCE_SHARDS`] unaligned shards, whatever the thread
    /// count, where shard `s` also receives `&mut partials[s]`. Accumulate
    /// in row order into the partial, then fold `partials` on the caller in
    /// index order: the summation tree, and with it the bits, never follows
    /// the thread count. An empty shard leaves its partial untouched.
    pub fn run_rows_reduce<T, P, F>(
        &self,
        out: &mut [T],
        rows: usize,
        width: usize,
        partials: &mut [P; REDUCE_SHARDS],
        f: F,
    ) where
        T: Send,
        P: Send,
        F: Fn(std::ops::Range<usize>, &mut [T], &mut P) + Sync,
    {
        let parts = SendPtr::new(partials.as_mut_ptr());
        self.run_chunks(out, rows, width, 1, REDUCE_SHARDS, |s, range, chunk| {
            // SAFETY: `s < REDUCE_SHARDS == partials.len()`, and `run`
            // executes each shard index exactly once, so this is the only
            // reference to `partials[s]` while the caller is blocked.
            f(range, chunk, unsafe { &mut *parts.get().add(s) });
        });
    }

    /// Output-disjoint rows scattered by slot (DESIGN §10, rule 1): `tables`
    /// are `N` parallel row-major tables of row width `width`, and
    /// `f(i, rows)` runs once per entry `i` of `slots`, with `rows[k]` the
    /// row `slots[i]` of `tables[k]`. Entries are split into balanced
    /// contiguous shards, as in [`ThreadPool::run_rows`]. Panics, before any
    /// shard runs, if a slot lies beyond any table.
    ///
    /// # Safety
    ///
    /// No slot may appear twice in `slots`. Two entries naming one slot
    /// would hand two shards `&mut` to the same rows.
    pub unsafe fn run_slot_rows<T, const N: usize, F>(
        &self,
        tables: [&mut [T]; N],
        width: usize,
        slots: &[u32],
        f: F,
    ) where
        T: Send,
        F: Fn(usize, [&mut [T]; N]) + Sync,
    {
        let len = tables.iter().map(|t| t.len()).min().unwrap_or(usize::MAX);
        let table_rows = len.checked_div(width).unwrap_or(usize::MAX);
        for &slot in slots {
            assert!(
                (slot as usize) < table_rows,
                "slot beyond parameter buffer: slot {slot}, tables of {table_rows} rows"
            );
        }
        let bases = tables.map(|t| SendPtr::new(t.as_mut_ptr()));
        let n = slots.len();
        let n_shards = balanced_shards(n, self.parallelism());
        self.run(n_shards, |s| {
            for i in shard_range(n, n_shards, s, 1) {
                let start = slots[i] as usize * width;
                let rows = std::array::from_fn(|k| {
                    // SAFETY: `start + width <= tables[k].len()` (asserted
                    // above). Shard ranges partition the entries and the
                    // caller guarantees slots are unique, so no other entry,
                    // on this shard or another, reaches this row.
                    unsafe { std::slice::from_raw_parts_mut(bases[k].get().add(start), width) }
                });
                f(i, rows);
            }
        });
    }

    /// The one contiguous-chunk split behind [`ThreadPool::run_rows`] and
    /// [`ThreadPool::run_rows_reduce`]: `f(shard, range, chunk)` per
    /// non-empty `shard_range(rows, n_shards, shard, align)`.
    fn run_chunks<T, F>(
        &self,
        out: &mut [T],
        rows: usize,
        width: usize,
        align: usize,
        n_shards: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, std::ops::Range<usize>, &mut [T]) + Sync,
    {
        assert_eq!(rows.checked_mul(width), Some(out.len()), "row buffer must be rows × width");
        let base = SendPtr::new(out.as_mut_ptr());
        self.run(n_shards, |s| {
            let range = shard_range(rows, n_shards, s, align);
            if range.is_empty() {
                return;
            }
            // SAFETY: `shard_range` partitions `0..rows` into disjoint
            // ranges and `run` executes each shard index exactly once, so
            // this chunk, inside `out` (`rows * width` long, asserted
            // above), overlaps no other shard's.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(base.get().add(range.start * width), range.len() * width)
            };
            f(s, range, chunk);
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().expect("pool mutex");
            slot.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let jr = {
            let mut slot = shared.slot.lock().expect("pool mutex");
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.seats > 0 {
                    if let Some(jr) = slot.job {
                        slot.seats -= 1;
                        // SAFETY: a published job is alive until its caller
                        // clears the slot under this mutex. Adopting under
                        // it means the caller cannot observe `active == 0`
                        // and free the job between our check and this
                        // increment.
                        unsafe { &*jr.0 }.active.fetch_add(1, Ordering::Relaxed);
                        break jr;
                    }
                }
                slot = shared.work_cv.wait(slot).expect("pool mutex");
            }
        };
        // SAFETY: this worker counts in `active`, and the caller keeps the
        // job alive until `active` drops back to 0.
        let job = unsafe { &*jr.0 };
        IN_POOL_JOB.with(|c| c.set(true));
        job.execute_shards();
        IN_POOL_JOB.with(|c| c.set(false));
        job.active.fetch_sub(1, Ordering::Release);
        // Lock-then-notify so the caller cannot miss the wakeup between its
        // predicate check and its wait.
        let _g = shared.done.lock().expect("pool done mutex");
        shared.done_cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Global pool
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

fn env_threads() -> Option<usize> {
    std::env::var("FVAE_THREADS").ok()?.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// The process-wide pool used by the default `*_into` kernel entry points.
///
/// Built on first use. Capacity is `max(hardware, FVAE_THREADS,`
/// [`MIN_GLOBAL_CAPACITY`]`)` (capped at 64); the initial *effective*
/// parallelism is `FVAE_THREADS` when set, else the hardware parallelism.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let initial = env_threads().unwrap_or(hw);
        let capacity = initial.max(hw).clamp(MIN_GLOBAL_CAPACITY, MAX_GLOBAL_CAPACITY);
        let pool = ThreadPool::new(capacity);
        pool.set_parallelism(initial);
        pool
    })
}

/// Effective parallelism of the [`global`] pool.
pub fn parallelism() -> usize {
    global().parallelism()
}

/// Sets the [`global`] pool's effective parallelism (the CLI's `--threads`).
pub fn set_parallelism(n: usize) {
    global().set_parallelism(n);
}

/// Counters of the [`global`] pool.
pub fn stats() -> PoolStats {
    global().stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shard_runs_exactly_once() {
        let pool = ThreadPool::new(4);
        for n_shards in [1usize, 2, 3, 7, 16, 61] {
            let hits: Vec<AtomicU64> = (0..n_shards).map(|_| AtomicU64::new(0)).collect();
            pool.run(n_shards, |s| {
                hits[s].fetch_add(1, Ordering::Relaxed);
            });
            for (s, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "shard {s} of {n_shards}");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..200 {
            pool.run(5, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1000);
        let stats = pool.stats();
        assert_eq!(stats.shards, 1000);
        assert_eq!(stats.parallel_jobs + stats.serial_jobs, 200);
    }

    #[test]
    fn parallelism_clamp_controls_dispatch() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.parallelism(), 4);
        pool.set_parallelism(1);
        let before = pool.stats().serial_jobs;
        pool.run(8, |_| {});
        assert_eq!(pool.stats().serial_jobs, before + 1, "parallelism 1 must run inline");
        pool.set_parallelism(99);
        assert_eq!(pool.parallelism(), 4, "clamped to capacity");
        pool.set_parallelism(0);
        assert_eq!(pool.parallelism(), 1, "clamped to at least 1");
    }

    #[test]
    fn nested_run_falls_back_to_serial() {
        let pool = ThreadPool::new(4);
        let inner_serial = AtomicU64::new(0);
        let before = pool.stats().serial_jobs;
        pool.run(4, |_| {
            pool.run(3, |_| {
                inner_serial.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_serial.load(Ordering::Relaxed), 12);
        assert_eq!(
            pool.stats().serial_jobs,
            before + 4,
            "each nested call must execute inline on its shard's thread"
        );
    }

    const CAPACITIES: [usize; 4] = [1, 2, 4, 7];

    #[test]
    fn run_rows_writes_every_element_exactly_once() {
        for capacity in CAPACITIES {
            let pool = ThreadPool::new(capacity);
            for rows in [0usize, 1, 2, 3, 7, 16, 61] {
                for width in [0usize, 1, 3] {
                    for align in [1usize, 2, 4] {
                        let mut out = vec![0u32; rows * width];
                        pool.run_rows(&mut out, rows, width, align, |range, chunk| {
                            assert_eq!(chunk.len(), range.len() * width);
                            for (j, x) in chunk.iter_mut().enumerate() {
                                *x += (range.start * width + j) as u32 + 1;
                            }
                        });
                        let want: Vec<u32> = (1..=(rows * width) as u32).collect();
                        let case = format!("capacity {capacity} rows {rows} width {width} align {align}");
                        assert_eq!(out, want, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn run_rows_never_splits_an_aligned_row_pair() {
        for capacity in CAPACITIES {
            let pool = ThreadPool::new(capacity);
            for parallelism in 1..=capacity {
                pool.set_parallelism(parallelism);
                for rows in [1usize, 2, 5, 8, 33] {
                    let starts = Mutex::new(Vec::new());
                    pool.run_rows(&mut vec![0u8; rows], rows, 1, 2, |range, _| {
                        starts.lock().unwrap().push(range.start);
                    });
                    for start in starts.into_inner().unwrap() {
                        assert_eq!(start % 2, 0, "rows {rows} at parallelism {parallelism}");
                    }
                }
            }
        }
    }

    #[test]
    fn run_rows_refuses_a_length_mismatch_before_any_shard_runs() {
        let pool = ThreadPool::new(4);
        let ran = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_rows(&mut [0.0f32; 11], 4, 3, 1, |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "11 elements are not 4 rows × 3");
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn run_rows_reduce_partials_are_identical_at_every_thread_count() {
        // Float sums whose value depends on the order they are taken in:
        // the partials must still agree bit for bit.
        let rows = 101;
        let run = |pool: &ThreadPool| {
            let mut out = vec![0.0f32; rows * 2];
            let mut partials = [0.0f32; REDUCE_SHARDS];
            pool.run_rows_reduce(&mut out, rows, 2, &mut partials, |range, chunk, part| {
                for (r, row) in range.zip(chunk.chunks_exact_mut(2)) {
                    let v = 1.0 / (r as f32 + 0.3);
                    *part += v;
                    row.fill(v);
                }
            });
            (out, partials.map(f32::to_bits))
        };
        let want = run(&ThreadPool::new(1));
        for capacity in CAPACITIES {
            assert_eq!(run(&ThreadPool::new(capacity)), want, "capacity {capacity}");
        }
    }

    #[test]
    fn run_slot_rows_hands_each_listed_row_to_one_shard() {
        for capacity in CAPACITIES {
            let pool = ThreadPool::new(capacity);
            let (width, slots) = (3usize, [9u32, 0, 4, 7, 2]);
            let mut a = vec![0u32; 10 * width];
            let mut b = vec![0u32; 12 * width];
            // SAFETY: the slots are distinct.
            unsafe {
                pool.run_slot_rows([&mut a[..], &mut b[..]], width, &slots, |i, [ra, rb]| {
                    ra.fill(i as u32 + 1);
                    rb.fill(slots[i] + 100);
                });
            }
            for slot in 0..10u32 {
                let at = slot as usize * width..(slot as usize + 1) * width;
                let i = slots.iter().position(|&s| s == slot);
                let (wa, wb) = i.map_or((0, 0), |i| (i as u32 + 1, slot + 100));
                assert!(a[at.clone()].iter().all(|&x| x == wa), "capacity {capacity} slot {slot}");
                assert!(b[at].iter().all(|&x| x == wb), "capacity {capacity} slot {slot}");
            }
        }
    }

    #[test]
    fn run_slot_rows_refuses_a_slot_beyond_any_table_before_any_shard_runs() {
        let pool = ThreadPool::new(4);
        let ran = AtomicU64::new(0);
        let (mut long, mut short) = (vec![0.0f32; 8], vec![0.0f32; 6]);
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the slots are distinct.
            unsafe {
                pool.run_slot_rows([&mut long[..], &mut short[..]], 2, &[0, 3], |_, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        }));
        assert!(result.is_err(), "slot 3 is past the 3-row table");
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn worker_panic_propagates_after_all_shards_complete() {
        let pool = ThreadPool::new(4);
        let ran = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |s| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(s != 3, "deliberate shard failure");
            });
        }));
        assert!(result.is_err(), "the shard panic must surface on the caller");
        assert_eq!(ran.load(Ordering::Relaxed), 8, "remaining shards still run");
        // The pool survives the panic and keeps working.
        let after = AtomicU64::new(0);
        pool.run(4, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn shard_range_is_exhaustive_disjoint_and_aligned() {
        for n in [0usize, 1, 2, 3, 5, 8, 17, 64, 101] {
            for n_shards in [1usize, 2, 3, 4, 7, 8] {
                for align in [1usize, 2, 4] {
                    let mut covered = 0;
                    for s in 0..n_shards {
                        let r = shard_range(n, n_shards, s, align);
                        assert_eq!(r.start, covered, "contiguous: n={n} shards={n_shards}");
                        assert!(
                            r.start.is_multiple_of(align) || r.start == n,
                            "aligned start: n={n} shards={n_shards} align={align}"
                        );
                        covered = r.end;
                    }
                    assert_eq!(covered, n, "exhaustive: n={n} shards={n_shards} align={align}");
                }
            }
        }
    }

    #[test]
    fn global_pool_reads_env_and_clamps() {
        // Can't control the env var from inside the test process reliably
        // (the pool may already be initialized); just exercise the API.
        let p = global();
        assert!(p.capacity() >= MIN_GLOBAL_CAPACITY);
        let before = parallelism();
        set_parallelism(2);
        assert_eq!(parallelism(), 2);
        set_parallelism(before);
    }
}
