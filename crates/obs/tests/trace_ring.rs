//! Ring-buffer semantics under pressure: wraparound keeps the newest
//! events (overwriting oldest-first), and a drain racing concurrent
//! writers never returns a torn span — every event read back must be one
//! that some writer actually recorded, field-for-field.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread;

use fvae_obs::TraceBuffer;

static STAGES: &[&str] = &["decode", "queue_wait", "encode"];

#[test]
fn wraparound_overwrites_oldest_first() {
    let t = TraceBuffer::new(8, STAGES);
    // 20 events into 8 slots: only the newest 8 (ids 13..=20) survive.
    for i in 1..=20u64 {
        t.record(i, (i % 3) as usize, i * 100, i);
    }
    assert_eq!(t.recorded(), 20);
    let ev = t.events();
    assert_eq!(ev.len(), 8, "ring holds exactly its capacity");
    let ids: Vec<u64> = ev.iter().map(|e| e.trace_id).collect();
    assert_eq!(ids, (13..=20).collect::<Vec<u64>>(), "oldest evicted first");
    for e in &ev {
        assert_eq!(e.start_ns, e.trace_id * 100, "payload matches its id");
        assert_eq!(e.dur_ns, e.trace_id);
        assert_eq!(e.stage, STAGES[(e.trace_id % 3) as usize]);
    }
}

#[test]
fn wraparound_at_exactly_capacity_keeps_everything() {
    let t = TraceBuffer::new(4, STAGES);
    for i in 1..=4u64 {
        t.record(i, 0, i, 1);
    }
    assert_eq!(t.events().len(), 4);
}

/// Hammers a small ring from several writer threads while a reader drains
/// in a loop. Writers encode a checksum relation across the payload
/// fields (`start_ns = trace_id * 7`, `dur_ns = trace_id ^ STAMP`); any
/// torn read — fields stitched from two different writes — breaks the
/// relation and fails the test. The ring being tiny (16 slots) versus the
/// write volume (~40k events) maximizes writer/reader and writer/writer
/// overlap on the same slots. Writers pause at their midpoint until the
/// reader has finished one drain that saw events, so the reader overlaps
/// live traffic by construction, however the threads are scheduled.
#[test]
fn concurrent_drain_never_tears_a_span() {
    const STAMP: u64 = 0x5eed_beef_cafe_f00d;
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 10_000;

    let t = TraceBuffer::new(16, STAGES);
    let stop = Arc::new(AtomicBool::new(false));
    let reader_live = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let t = t.clone();
            let reader_live = reader_live.clone();
            thread::spawn(move || {
                for i in 0..PER_WRITER {
                    if i == PER_WRITER / 2 {
                        while !reader_live.load(Relaxed) {
                            thread::yield_now();
                        }
                    }
                    let id = (w as u64) * PER_WRITER + i + 1;
                    t.record(id, (id % 3) as usize, id.wrapping_mul(7), id ^ STAMP);
                }
            })
        })
        .collect();

    let reader = {
        let t = t.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let mut drains = 0u64;
            let mut seen = 0u64;
            while !stop.load(Relaxed) {
                let events = t.events();
                for e in &events {
                    assert_eq!(
                        e.start_ns,
                        e.trace_id.wrapping_mul(7),
                        "torn span: start_ns from a different write than trace_id"
                    );
                    assert_eq!(
                        e.dur_ns,
                        e.trace_id ^ STAMP,
                        "torn span: dur_ns from a different write than trace_id"
                    );
                    assert_eq!(e.stage, STAGES[(e.trace_id % 3) as usize]);
                    seen += 1;
                }
                drains += 1;
                if !events.is_empty() {
                    reader_live.store(true, Relaxed);
                }
            }
            (drains, seen)
        })
    };

    for w in writers {
        w.join().expect("writer");
    }
    stop.store(true, Relaxed);
    let (drains, seen) = reader.join().expect("reader");
    assert!(drains > 0 && seen > 0, "reader must have observed live traffic");

    // Quiescent state: full ring, all events intact, newest 16 ids present.
    let final_events = t.events();
    assert_eq!(final_events.len(), 16);
    assert_eq!(t.recorded(), WRITERS as u64 * PER_WRITER);
    for e in final_events {
        assert_eq!(e.start_ns, e.trace_id.wrapping_mul(7));
        assert_eq!(e.dur_ns, e.trace_id ^ STAMP);
    }
}

#[test]
fn recording_into_the_ring_is_allocation_free_after_setup() {
    // `events()` allocates (it builds a Vec) — only `record` is hot-path.
    // The counting-allocator proof lives in tests/no_alloc.rs; here we pin
    // the cheaper structural property that record touches no slot storage
    // beyond the ring built at construction.
    let t = TraceBuffer::new(4, STAGES);
    let cap = t.capacity();
    for i in 0..1_000u64 {
        t.record(i, 0, i, 1);
    }
    assert_eq!(t.capacity(), cap, "ring never grows");
}
