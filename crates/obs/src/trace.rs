//! Structured request tracing: a fixed-capacity lock-free ring buffer of
//! span events with a Chrome `trace_event` exporter.
//!
//! The serving path needs to answer "where did this request's time go" —
//! queueing vs. batching vs. encoding — without perturbing the thing it
//! measures. The design constraints mirror the rest of this crate:
//!
//! * **Alloc-free hot path.** [`TraceBuffer::record`] touches only
//!   pre-allocated atomics: one ticket `fetch_add`, one compare-and-swap
//!   that claims the slot, and four relaxed payload stores closed by a
//!   sequence store. No locks, no spinning, no heap.
//! * **Bounded memory.** The buffer is a power-of-two ring; when full,
//!   new events overwrite the oldest ones. A trace is a sliding window
//!   over the most recent activity, never an unbounded log.
//! * **One writer per slot.** Two writers whose tickets are a ring length
//!   apart map to the same slot. A writer claims its slot by swapping the
//!   slot's sequence from a finished write of an *older* ticket to its own
//!   odd in-progress value; if the slot is mid-write or already holds a
//!   newer event, the writer drops its event instead. So payloads of two
//!   writes never interleave, and a late writer never overwrites a newer
//!   event.
//! * **Tear-free drain.** Each slot carries a per-write sequence number
//!   (seqlock protocol): a reader that races a writer observes a sequence
//!   mismatch and skips the slot rather than stitching two different
//!   events together. With one writer per slot, [`TraceBuffer::events`]
//!   therefore never returns a torn span — at worst it misses the handful
//!   of slots being rewritten at that instant.
//!
//! Stage names are a `&'static` table fixed at construction, so an event
//! is four integers: trace id, stage index, start offset, duration. Times
//! are nanoseconds relative to the buffer's epoch (its creation instant),
//! which keeps them small, monotonic, and directly convertible to the
//! microsecond timestamps Chrome's `chrome://tracing` / Perfetto expect.
//!
//! ```
//! use fvae_obs::TraceBuffer;
//!
//! static STAGES: &[&str] = &["decode", "encode"];
//! let trace = TraceBuffer::new(64, STAGES);
//! let id = trace.next_trace_id();
//! let start = trace.now_ns();
//! // ... do the work ...
//! trace.record(id, 1, start, 1_500);
//! let events = trace.events();
//! assert_eq!(events[0].stage, "encode");
//! assert!(trace.chrome_trace_json().contains("\"traceEvents\""));
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One drained span event: `stage` ran for `dur_ns` starting `start_ns`
/// nanoseconds after the buffer's epoch, on behalf of request `trace_id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Request identity (from [`TraceBuffer::next_trace_id`]).
    pub trace_id: u64,
    /// Stage name (an entry of the table passed to [`TraceBuffer::new`]).
    pub stage: &'static str,
    /// Start offset from the buffer epoch, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
}

/// One ring slot. The seqlock protocol: a writer claims the slot by
/// swapping an older even sequence for its odd one, writes the payload,
/// then stores the (unique, even) final sequence; a reader re-checks the
/// sequence after reading the payload and discards the slot on any
/// mismatch.
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    stage: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

struct TraceInner {
    epoch: Instant,
    next_id: AtomicU64,
    /// Monotonic write ticket; `ticket & mask` is the slot index,
    /// `2*ticket + 1` the slot's in-progress and `2*ticket + 2` its final
    /// sequence, so every write of every slot has a globally unique even
    /// sequence value, and a larger one than every older ticket's.
    cursor: AtomicU64,
    mask: u64,
    slots: Box<[Slot]>,
    stages: &'static [&'static str],
}

/// A shared, fixed-capacity, lock-free ring of span events. Cheap to
/// clone; clones record into the same ring.
#[derive(Clone)]
pub struct TraceBuffer {
    inner: Arc<TraceInner>,
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl TraceBuffer {
    /// Creates a ring holding `capacity` events (rounded up to a power of
    /// two, minimum 2) over the given stage-name table.
    ///
    /// Panics if `stages` is empty.
    pub fn new(capacity: usize, stages: &'static [&'static str]) -> Self {
        assert!(!stages.is_empty(), "trace buffer needs at least one stage");
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<Slot> = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                trace_id: AtomicU64::new(0),
                stage: AtomicU64::new(0),
                start_ns: AtomicU64::new(0),
                dur_ns: AtomicU64::new(0),
            })
            .collect();
        Self {
            inner: Arc::new(TraceInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                cursor: AtomicU64::new(0),
                mask: cap as u64 - 1,
                slots: slots.into_boxed_slice(),
                stages,
            }),
        }
    }

    /// Slot count of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// The stage-name table events index into.
    pub fn stages(&self) -> &'static [&'static str] {
        self.inner.stages
    }

    /// Total [`TraceBuffer::record`] calls, events dropped to a lapping
    /// writer included (≥ the number still resident).
    pub fn recorded(&self) -> u64 {
        self.inner.cursor.load(Ordering::Relaxed)
    }

    /// A fresh request trace id (monotonic, never 0).
    #[inline]
    pub fn next_trace_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds elapsed since the buffer's epoch — the time base of
    /// every recorded event.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one span event (allocation-free; overwrites the oldest
    /// event once the ring is full). `stage` indexes the table given to
    /// [`TraceBuffer::new`]; out-of-range stages are clamped to the last
    /// entry rather than panicking a hot loop. The event is dropped if its
    /// slot is mid-write or already holds a newer event, which happens only
    /// when writers a whole ring length apart race for one slot.
    #[inline]
    pub fn record(&self, trace_id: u64, stage: usize, start_ns: u64, dur_ns: u64) {
        let inner = &*self.inner;
        let stage = stage.min(inner.stages.len() - 1) as u64;
        let ticket = inner.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &inner.slots[(ticket & inner.mask) as usize];
        let claim = 2 * ticket + 1;
        // Claim the slot: only a finished (even) write of an older ticket
        // may be replaced, and only by one writer. Acquire orders the
        // payload stores below after the replaced write's.
        let seen = slot.seq.load(Ordering::Relaxed);
        if seen % 2 == 1
            || seen > claim
            || slot.seq.compare_exchange(seen, claim, Ordering::Acquire, Ordering::Relaxed).is_err()
        {
            return;
        }
        // Seqlock write: odd marks in-progress; the paired fence orders
        // the odd store before the payload stores.
        fence(Ordering::Release);
        slot.trace_id.store(trace_id, Ordering::Relaxed);
        slot.stage.store(stage, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        // Release: payload stores above cannot sink below this publish.
        slot.seq.store(claim + 1, Ordering::Release);
    }

    /// Snapshot of the resident events, sorted by start time. Slots being
    /// rewritten at the instant of the read are skipped (never torn); the
    /// ring itself is left untouched, so a later drain sees a superset.
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = &*self.inner;
        let mut out = Vec::with_capacity(inner.slots.len());
        for slot in inner.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or mid-write
            }
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            let stage = slot.stage.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 {
                continue; // a writer raced us: discard, don't tear
            }
            out.push(TraceEvent {
                trace_id,
                stage: inner.stages[(stage as usize).min(inner.stages.len() - 1)],
                start_ns,
                dur_ns,
            });
        }
        out.sort_by_key(|e| (e.start_ns, e.trace_id));
        out
    }

    /// Renders the resident events as Chrome `trace_event` JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in
    /// `chrome://tracing` and Perfetto. Each event is a complete (`"X"`)
    /// slice with microsecond timestamps; the track (`tid`) is the trace
    /// id, so one request reads as one lane of decode → … → reply.
    pub fn chrome_trace_json(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Stage names are static identifiers and need no escaping.
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"serve\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"trace_id\":{}}}}}",
                e.stage,
                e.trace_id,
                e.start_ns / 1_000,
                e.start_ns % 1_000,
                e.dur_ns / 1_000,
                e.dur_ns % 1_000,
                e.trace_id,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static STAGES: &[&str] = &["alpha", "beta", "gamma"];

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(TraceBuffer::new(0, STAGES).capacity(), 2);
        assert_eq!(TraceBuffer::new(5, STAGES).capacity(), 8);
        assert_eq!(TraceBuffer::new(8, STAGES).capacity(), 8);
    }

    #[test]
    fn events_come_back_sorted_with_stage_names() {
        let t = TraceBuffer::new(8, STAGES);
        t.record(2, 1, 500, 10);
        t.record(1, 0, 100, 20);
        t.record(3, 2, 900, 30);
        let ev = t.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0], TraceEvent { trace_id: 1, stage: "alpha", start_ns: 100, dur_ns: 20 });
        assert_eq!(ev[1].stage, "beta");
        assert_eq!(ev[2].stage, "gamma");
        assert_eq!(t.recorded(), 3);
    }

    #[test]
    fn out_of_range_stage_clamps() {
        let t = TraceBuffer::new(4, STAGES);
        t.record(1, 99, 0, 1);
        assert_eq!(t.events()[0].stage, "gamma");
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let t = TraceBuffer::new(4, STAGES);
        let a = t.next_trace_id();
        let b = t.next_trace_id();
        assert!(a != 0 && b != 0 && a != b);
    }

    #[test]
    fn chrome_export_is_parseable_json_with_complete_events() {
        let t = TraceBuffer::new(8, STAGES);
        t.record(7, 0, 1_234, 5_678);
        t.record(7, 1, 7_000, 250);
        let json = t.chrome_trace_json();
        let doc = crate::json::parse(&json).expect("valid JSON");
        let events = match doc.get("traceEvents") {
            Some(crate::json::Value::Arr(v)) => v,
            other => panic!("traceEvents missing/not an array: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
            assert_eq!(e.get("tid").and_then(|v| v.as_u64()), Some(7));
            assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
            assert!(e.get("dur").and_then(|v| v.as_f64()).is_some());
        }
        // Microsecond conversion keeps nanosecond precision: 1234 ns = 1.234 us.
        assert_eq!(events[0].get("ts").and_then(|v| v.as_f64()), Some(1.234));
        assert_eq!(events[0].get("dur").and_then(|v| v.as_f64()), Some(5.678));
    }

    #[test]
    fn empty_buffer_exports_an_empty_trace() {
        let t = TraceBuffer::new(4, STAGES);
        assert!(t.events().is_empty());
        let doc = crate::json::parse(&t.chrome_trace_json()).expect("valid JSON");
        assert_eq!(doc.get("traceEvents"), Some(&crate::json::Value::Arr(Vec::new())));
    }
}
