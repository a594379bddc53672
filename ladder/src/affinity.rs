//! CPU placement of the benchmark's threads.
//!
//! On a two-core box the latency of a cached reply is mostly the cost of
//! waking the thread that answers it, and that cost has two values: small
//! when the waker and the woken share a core, several times larger when the
//! woken thread's core sits halted. Which of the two a run gets is decided
//! by where the scheduler happened to put four threads, and it stays that
//! way for the whole run — so unpinned runs of one commit differ by a factor
//! of four. The serving workloads therefore fix the placement: the servers
//! start (and so spawn every thread they own) while the starting thread is
//! pinned to the last core, and the load generators pin themselves to the
//! first. Threads inherit the mask of the thread that spawns them.

/// The core load-generator threads pin themselves to.
pub const GENERATOR_CPU: usize = 0;

/// Runs `start` — which must start a server or router — with the calling
/// thread pinned to the last core, so that every thread the server spawns,
/// now or per connection later, stays on that core.
pub fn on_server_core<T>(start: impl FnOnce() -> T) -> T {
    pin_current_thread(&[crate::report::nproc() - 1]);
    let out = start();
    unpin_current_thread();
    out
}

/// Restricts the calling thread to `cpus` (indices below 1024). Returns
/// whether the kernel accepted; elsewhere than Linux it does nothing.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        for &cpu in cpus.iter().filter(|&&c| c < 1024) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // SAFETY: `mask` is a live, properly aligned buffer of exactly the
        // `cpusetsize` bytes passed, the kernel only reads it, and pid 0
        // names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpus;
        false
    }
}

/// Restricts the calling thread to every core again.
pub fn unpin_current_thread() -> bool {
    let all: Vec<usize> = (0..crate::report::nproc().max(1)).collect();
    pin_current_thread(&all)
}
