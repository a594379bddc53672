//! The benchmark's own in-memory spans.
//!
//! A traced run wraps every call the benchmark makes into a layer of the
//! system in a span: name, start, end, the span that caused it, and the
//! identifier of the request (or step) it belongs to. Spans stay in memory
//! until the run ends and are then written out. A layer's *self time* is its
//! span's duration minus the part its child spans cover; what is left of a
//! root span after every layer's self time is subtracted is the run's
//! unaccounted time.
//!
//! Each thread records into its own [`Lane`], so recording takes no lock;
//! an untraced run uses a disabled lane whose calls return at once.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, `crate.module[.call]`.
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index (within the same lane) of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request or step identifier shared by the spans of one operation.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Lane::enter`], consumed by [`Lane::exit`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

/// One thread's span recorder.
#[derive(Debug)]
pub struct Lane {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Lane {
    /// A recording lane whose times count from `epoch`.
    pub fn recording(epoch: Instant) -> Self {
        Self {
            epoch,
            enabled: true,
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
        }
    }

    /// A lane that records nothing — what the untraced run uses.
    pub fn disabled() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A lane of the same kind and epoch, for another thread.
    pub fn sibling(&self) -> Self {
        if self.enabled {
            Self::recording(self.epoch)
        } else {
            Self::disabled()
        }
    }

    /// Whether this lane records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    /// Closes `id` (and, defensively, anything still open inside it).
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Aggregate of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus child durations).
    pub self_ns: u64,
    /// How many of the spans were roots.
    pub roots: u64,
}

/// Span names that are waits, not layers: their self time is nobody's work
/// and counts as unaccounted. The reply wait of a request is the one case —
/// what the servers' own stage timers explain of it is imported beside it
/// with [`Accounting::import`].
const WAITS: [&str; 1] = ["net.wait_reply"];

/// Per-name totals over any number of lanes, and the accounting derived
/// from them.
#[derive(Clone, Debug, Default)]
pub struct Accounting {
    /// Totals by span name.
    pub layers: BTreeMap<String, LayerTime>,
}

impl Accounting {
    /// Folds one lane's spans in. Parent indices are lane-local, which is
    /// why lanes are folded one at a time.
    pub fn add_lane(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        for (s, &children) in spans.iter().zip(&child_ns) {
            if !self.layers.contains_key(s.name) {
                self.layers.insert(s.name.to_string(), LayerTime::default());
            }
            let e = self.layers.get_mut(s.name).expect("just inserted");
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(children);
            e.roots += u64::from(s.parent == NO_PARENT);
        }
    }

    /// Sum of root-span durations: the time the layers have to account for.
    pub fn enclosing_ns(&self) -> u64 {
        // A name is used either for roots or for children, never both.
        self.layers
            .values()
            .filter(|l| l.roots > 0)
            .map(|l| l.total_ns)
            .sum()
    }

    /// Adds time measured by the system's own stage timers (a readout, not
    /// a span of ours) as a layer's self time.
    pub fn import(&mut self, name: String, count: u64, total_ns: u64, self_ns: u64) {
        self.layers.insert(
            name,
            LayerTime {
                count,
                total_ns,
                self_ns,
                roots: 0,
            },
        );
    }

    /// Sum of the self times of every span that is neither a root nor a
    /// wait.
    pub fn layer_self_ns(&self) -> u64 {
        self.layers
            .iter()
            .filter(|(name, l)| l.roots == 0 && !WAITS.contains(&name.as_str()))
            .map(|(_, l)| l.self_ns)
            .sum()
    }

    /// `1 − Σ layer self time / Σ enclosing span`; `0.0` with no roots.
    pub fn unaccounted_share(&self) -> f64 {
        let enclosing = self.enclosing_ns();
        if enclosing == 0 {
            return 0.0;
        }
        (1.0 - self.layer_self_ns() as f64 / enclosing as f64).max(0.0)
    }
}

/// Writes lanes out as JSON lines, one span per line, at most `limit` spans
/// per lane (a closed loop records hundreds of thousands).
pub fn write_jsonl(path: &Path, lanes: &[&[Span]], limit: usize) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (lane, spans) in lanes.iter().enumerate() {
        for (i, s) in spans.iter().take(limit).enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{{\"lane\":{lane},\"idx\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100 { a 10..40 { b 20..30 }, a 50..70 }
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 20, 30, 1),
            span("a", 50, 70, 0),
        ];
        let mut acc = Accounting::default();
        acc.add_lane(&spans);
        assert_eq!(
            acc.layers["root"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 50,
                roots: 1
            }
        );
        assert_eq!(
            acc.layers["a"],
            LayerTime {
                count: 2,
                total_ns: 50,
                self_ns: 40,
                roots: 0
            }
        );
        assert_eq!(
            acc.layers["b"],
            LayerTime {
                count: 1,
                total_ns: 10,
                self_ns: 10,
                roots: 0
            }
        );
        assert_eq!(acc.enclosing_ns(), 100);
        assert_eq!(acc.layer_self_ns(), 50);
        assert!((acc.unaccounted_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_wait_is_unaccounted_until_stage_timers_explain_it() {
        // request 0..100 { encode 0..10, wait 10..90, decode 90..100 }
        let spans = [
            span("request", 0, 100, NO_PARENT),
            span("serve.protocol.encode", 0, 10, 0),
            span("net.wait_reply", 10, 90, 0),
            span("serve.protocol.decode", 90, 100, 0),
        ];
        let mut acc = Accounting::default();
        acc.add_lane(&spans);
        assert!((acc.unaccounted_share() - 0.8).abs() < 1e-12);
        acc.import("serve.server.stage_encode".into(), 1, 60, 60);
        assert!((acc.unaccounted_share() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn lanes_fold_independently() {
        let lane = [span("root", 0, 10, NO_PARENT), span("a", 0, 10, 0)];
        let mut acc = Accounting::default();
        acc.add_lane(&lane);
        acc.add_lane(&lane);
        assert_eq!(acc.layers["a"].count, 2);
        assert_eq!(acc.unaccounted_share(), 0.0);
        assert_eq!(Accounting::default().unaccounted_share(), 0.0);
    }

    #[test]
    fn lane_nests_by_call_order_and_disabled_lane_records_nothing() {
        let mut lane = Lane::recording(Instant::now());
        let root = lane.enter("root", 7);
        let a = lane.enter("a", 7);
        lane.scope("b", 7, || ());
        lane.exit(a);
        lane.exit(root);
        let s = lane.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("root", NO_PARENT));
        assert_eq!((s[1].name, s[1].parent), ("a", 0));
        assert_eq!((s[2].name, s[2].parent), ("b", 1));
        assert!(s.iter().all(|x| x.req == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[1].end_ns);

        let mut off = Lane::disabled();
        let id = off.enter("root", 1);
        off.scope("a", 1, || ());
        off.exit(id);
        assert!(off.spans().is_empty() && !off.sibling().is_enabled());
    }

    #[test]
    fn spans_are_written_one_per_line() {
        let dir = std::env::temp_dir().join(format!("ladder-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("spans.jsonl");
        let lane = [
            span("root", 0, 10, NO_PARENT),
            span("a", 1, 9, 0),
            span("a", 2, 3, 0),
        ];
        write_jsonl(&path, &[&lane, &lane], 2).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            let v = fvae_obs::json::parse(line).expect("valid json");
            assert!(v.get("name").is_some() && v.get("parent").is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
