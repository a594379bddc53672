//! Soak + backpressure: concurrent clients push well past the queue
//! capacity, and the contract under pressure is exact — every admitted or
//! rejected request gets **exactly one** reply (`Ok` or `Overloaded`),
//! nothing panics, and the batch loop performs **zero steady-state heap
//! allocations** (counted by a thread-opt-in allocator bracketed around
//! each batch via the server's probe hook). Tracing is always on — the
//! batch thread records batch_form/encode span events into the trace ring
//! and the per-stage histograms *inside* the measured window — so this is
//! also the proof that tracing adds no allocations to the hot path.
//!
//! This file holds one test: the global allocator hook and the global
//! thread-pool warm-up make co-resident tests interfere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

mod common;

use common::{tiny_dataset, trained_model};
use fvae_core::checkpoint::export_model_snapshot;
use fvae_serve::{BatchPhase, Client, EmbedOutcome, FieldRow, ServeConfig, Server};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-init + no Drop: safe to read from inside the allocator.
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

/// Distinct synthetic request `i`: fixed-length rows (so warmed buffers
/// never regrow) with per-request ids/weights (so nothing cache-collides
/// even if caching were on).
fn synth_rows(i: u64, n_fields: usize) -> Vec<FieldRow> {
    (0..n_fields as u64)
        .map(|k| {
            let ids: Vec<u64> = (0..6).map(|j| (i * 31 + k * 7 + j) % 40).collect();
            let vals: Vec<f32> = (0..6).map(|j| 0.25 + ((i + j) % 5) as f32).collect();
            (ids, vals)
        })
        .collect()
}

#[test]
fn soak_overload_exact_replies_and_zero_batch_allocs() {
    const CLIENTS: usize = 12;
    const PER_CLIENT: usize = 20;
    const N: usize = CLIENTS * PER_CLIENT; // 240 ≫ queue capacity 4

    let ds = tiny_dataset(21);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");

    // ARMED flips after the warm-up round; the probe then turns the
    // counting allocator on for exactly the Start..End window of every
    // batch — the region the zero-allocation contract covers. Before that
    // it gives the batch an explicit 1 ms service time (the tiny model
    // encodes in microseconds): at most 4 replies leave per millisecond, so
    // 12 closed-loop clients against 4 in the batch + 4 queued must shed,
    // and the warm-up round is certain to see full batches.
    static ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    let probe = Box::new(|phase: BatchPhase, _n: usize| match phase {
        BatchPhase::Start => {
            std::thread::sleep(Duration::from_millis(1));
            if ARMED.load(Relaxed) {
                COUNTING.with(|f| f.set(true));
            }
        }
        BatchPhase::End => COUNTING.with(|f| f.set(false)),
    });

    let mut cfg = ServeConfig::new(&dir);
    cfg.batch_size = 4;
    cfg.queue_capacity = 4; // K = 4 ≪ N = 240: overload is guaranteed
    cfg.cache_capacity = 0; // every request must cross the batch loop
    cfg.reply_timeout = Duration::from_secs(20);
    let server = Server::start_with_probe(cfg, Some(probe)).expect("start");
    let addr = server.addr();

    let ok = Arc::new(AtomicU64::new(0));
    let overloaded = Arc::new(AtomicU64::new(0));

    let run_round = |round: u64| {
        let mut workers = Vec::new();
        for c in 0..CLIENTS {
            let ok = Arc::clone(&ok);
            let overloaded = Arc::clone(&overloaded);
            workers.push(std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..PER_CLIENT {
                    let req = round * 100_000 + (c * PER_CLIENT + i) as u64;
                    match client.embed(&synth_rows(req, 2)).expect("one reply per request") {
                        EmbedOutcome::Embedding { values, .. } => {
                            assert_eq!(values.len(), 8);
                            assert!(values.iter().all(|v| v.is_finite()));
                            ok.fetch_add(1, Relaxed);
                        }
                        EmbedOutcome::Overloaded => {
                            overloaded.fetch_add(1, Relaxed);
                        }
                        EmbedOutcome::Error { code, msg } => {
                            panic!("unexpected error reply ({code}): {msg}");
                        }
                    }
                }
                // One reply per request means the stream is perfectly
                // aligned; a stray or missing frame would break this ping.
                client.ping(0xA11C + round).expect("stream aligned after soak");
            }));
        }
        for w in workers {
            w.join().expect("no client panics");
        }
    };

    // Round 1 (unmeasured): warms every buffer in the batch loop — the
    // drain vector, InputRows nests, encoder scratch, pool shard state.
    run_round(1);
    let (warm_ok, warm_over) = (ok.load(Relaxed), overloaded.load(Relaxed));
    assert_eq!(warm_ok + warm_over, N as u64, "exactly one reply per warm-up request");

    // Round 2 (measured): identical shape, so a single allocation between
    // any Start/End pair is a real hot-path regression.
    ARMED.store(true, Relaxed);
    run_round(2);
    let allocs = ALLOCATIONS.load(Relaxed);

    let total_ok = ok.load(Relaxed);
    let total_over = overloaded.load(Relaxed);
    assert_eq!(total_ok + total_over, 2 * N as u64, "exactly one reply per request");
    assert!(total_ok > 0, "some requests must be served");
    assert!(total_over > 0, "queue capacity 4 with 12 clients must shed load");
    assert_eq!(allocs, 0, "batch loop allocated {allocs} times in steady state");

    // Cross-check the accounting server-side.
    let mut client = Client::connect(addr).expect("connect");
    let text = client.metrics().expect("metrics");
    let metric = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.trim().parse().ok()))
            .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}"))
    };
    assert_eq!(metric("fvae_serve_requests "), 2 * N as u64);
    assert_eq!(metric("fvae_serve_replies_ok "), total_ok);
    assert_eq!(metric("fvae_serve_overloaded "), total_over);
    assert_eq!(metric("fvae_serve_errors "), 0);
    // The always-on tracing the alloc audit just covered actually traced.
    assert!(!server.trace_events().is_empty(), "trace ring recorded the soak");
    assert!(
        text.contains("fvae_serve_stage_ns_bucket{stage=\"encode\""),
        "per-stage histograms rendered"
    );

    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
