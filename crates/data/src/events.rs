//! Append-only event-log ingest (the streaming half of ROADMAP item 1).
//!
//! Billion-scale profile stores do not hand the trainer frozen matrices —
//! they hand it a log: `(user, field, feature, weight, timestamp)` tuples
//! appended as users act. This module defines that log, in the same header
//! style as [`fvae_sparse::serial`]:
//!
//! ```text
//! [magic u32 "FVLG"][version u16]                      ← file header
//! [len u32][user u64][field u16][feature u32]
//!          [weight f32][ts u64]                        ← one record, repeated
//! ```
//!
//! Every record is length-prefixed so a reader can skip fields appended by
//! future versions, and every length is bounds-checked *before* any
//! allocation or wait (`MAX_EVENT_LEN`), mirroring the hostile-input
//! hardening of the serve codec. A torn tail — the half-record a crashed
//! writer leaves behind — is not an error: readers stop at the last whole
//! record and resume when more bytes arrive; an appending writer truncates
//! the torn bytes before continuing.
//!
//! Three layers build on the codec:
//!
//! * [`EventLogWriter`] — create/append with durable (`fsync`) flushes.
//! * [`EventLogReader`] — a tailing reader that turns *any byte offset*
//!   into a resumable event stream; the offset after the last complete
//!   record is the crash-safe resume cursor checkpointed by `fvae-core`'s
//!   streaming trainer.
//! * [`StreamBatcher`] — groups a window of events into a
//!   [`MultiFieldDataset`] micro-batch. Batch contents are a pure function
//!   of the consumed log bytes, which is what makes streaming training
//!   replayable: *(snapshot, log offset)* fully determines the future.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use fvae_sparse::serial::{put_f32, put_u16, put_u32, put_u64, DecodeError, Reader};
use fvae_sparse::{CsrBuilder, FastHashMap};

use crate::dataset::MultiFieldDataset;

/// Magic bytes prefixed to every event log ("FVLG").
pub const LOG_MAGIC: u32 = 0x4656_4C47;
/// Current log format version.
pub const LOG_VERSION: u16 = 1;
/// Bytes of the file header (`magic u32 + version u16`).
pub const LOG_HEADER_LEN: u64 = 6;

/// Payload bytes of a v1 record (after its `len u32` prefix).
pub const EVENT_PAYLOAD_LEN: u32 = 8 + 2 + 4 + 4 + 8;
/// Upper bound on any record's declared length. A record claiming more is
/// hostile or corrupt and is rejected *before* the reader waits for (or
/// allocates) the claimed bytes — count-before-alloc, like the serve codec.
pub const MAX_EVENT_LEN: u32 = 64;

/// One observed interaction: user `user` produced feature `feature` in
/// field `field` with weight `weight` at time `ts`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Stable user identity (row-hash in production; any u64 here).
    pub user: u64,
    /// Field index the feature belongs to.
    pub field: u16,
    /// Raw feature token within the field's vocabulary.
    pub feature: u32,
    /// Observation weight (counts, dwell time, …).
    pub weight: f32,
    /// Event timestamp (opaque to training; monotone per writer).
    pub ts: u64,
}

/// Failures of the log I/O layer: transport or format.
#[derive(Debug)]
pub enum EventLogError {
    /// Filesystem failure.
    Io(io::Error),
    /// The log bytes did not decode.
    Decode(DecodeError),
}

impl std::fmt::Display for EventLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventLogError::Io(e) => write!(f, "event log io error: {e}"),
            EventLogError::Decode(e) => write!(f, "event log decode error: {e}"),
        }
    }
}

impl std::error::Error for EventLogError {}

impl From<io::Error> for EventLogError {
    fn from(e: io::Error) -> Self {
        EventLogError::Io(e)
    }
}

impl From<DecodeError> for EventLogError {
    fn from(e: DecodeError) -> Self {
        EventLogError::Decode(e)
    }
}

/// Appends one encoded record (length prefix + payload) to `buf`.
pub fn put_event(buf: &mut Vec<u8>, ev: &Event) {
    put_u32(buf, EVENT_PAYLOAD_LEN);
    put_u64(buf, ev.user);
    put_u16(buf, ev.field);
    put_u32(buf, ev.feature);
    put_f32(buf, ev.weight);
    put_u64(buf, ev.ts);
}

/// Writes the log file header.
pub fn put_log_header(buf: &mut Vec<u8>) {
    put_u32(buf, LOG_MAGIC);
    put_u16(buf, LOG_VERSION);
}

/// Checks a log file header (exactly [`LOG_HEADER_LEN`] bytes).
pub fn check_log_header(head: &[u8]) -> Result<(), DecodeError> {
    Reader::new(head).header(LOG_MAGIC, LOG_VERSION)
}

/// Incremental record parser: feed arbitrary byte chunks (down to one byte
/// at a time — the reassembly contract proven by the proptests), pop whole
/// events. Bytes of incomplete records stay buffered; [`EventDecoder::consumed`]
/// counts only the bytes of *complete* records, so it is always a valid
/// record boundary to resume from.
#[derive(Debug, Default)]
pub struct EventDecoder {
    buf: Vec<u8>,
    pos: usize,
    consumed: u64,
}

impl EventDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw log bytes (record stream only — no file header).
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim drained prefix before growing; keeps the buffer at
        // O(one chunk), not O(log).
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet part of a decoded record.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Total bytes of complete records decoded so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Pops the next complete event. `Ok(None)` means "need more bytes";
    /// a malformed length is a typed [`DecodeError`], detected from the
    /// 4-byte prefix alone — never after buffering the claimed payload.
    pub fn next_event(&mut self) -> Result<Option<Event>, DecodeError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().expect("4 bytes"));
        if !(EVENT_PAYLOAD_LEN..=MAX_EVENT_LEN).contains(&len) {
            return Err(DecodeError::Invalid(format!(
                "event record length {len} outside [{EVENT_PAYLOAD_LEN}, {MAX_EVENT_LEN}]"
            )));
        }
        if avail.len() < 4 + len as usize {
            return Ok(None);
        }
        let p = &avail[4..4 + EVENT_PAYLOAD_LEN as usize];
        let ev = Event {
            user: u64::from_le_bytes(p[0..8].try_into().expect("8")),
            field: u16::from_le_bytes(p[8..10].try_into().expect("2")),
            feature: u32::from_le_bytes(p[10..14].try_into().expect("4")),
            weight: f32::from_le_bytes(p[14..18].try_into().expect("4")),
            ts: u64::from_le_bytes(p[18..26].try_into().expect("8")),
        };
        // Bytes between EVENT_PAYLOAD_LEN and len are fields a future
        // version appended; the length prefix lets v1 skip them.
        self.pos += 4 + len as usize;
        self.consumed += 4 + len as u64;
        Ok(Some(ev))
    }
}

/// Appending writer with durable flushes.
pub struct EventLogWriter {
    file: File,
    offset: u64,
}

impl EventLogWriter {
    /// Creates (truncating) a new log at `path` and writes the header.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, EventLogError> {
        let mut file = File::create(path)?;
        let mut buf = Vec::with_capacity(LOG_HEADER_LEN as usize);
        put_log_header(&mut buf);
        file.write_all(&buf)?;
        Ok(Self { file, offset: LOG_HEADER_LEN })
    }

    /// Opens `path` for appending (creating it when absent). The header is
    /// validated and any torn tail — a partial record left by a crashed
    /// writer — is truncated away so new records always start at a record
    /// boundary.
    pub fn open_append(path: impl AsRef<Path>) -> Result<Self, EventLogError> {
        let path = path.as_ref();
        if !path.exists() {
            return Self::create(path);
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut head = [0u8; LOG_HEADER_LEN as usize];
        let n = read_up_to(&mut file, &mut head)?;
        if n == 0 {
            // Empty file (e.g. `touch`ed): adopt it by writing the header.
            let mut buf = Vec::with_capacity(LOG_HEADER_LEN as usize);
            put_log_header(&mut buf);
            file.write_all(&buf)?;
            return Ok(Self { file, offset: LOG_HEADER_LEN });
        }
        check_log_header(&head[..n])?;
        // Walk the records to the last complete boundary.
        let mut dec = EventDecoder::new();
        let mut chunk = vec![0u8; 64 * 1024];
        loop {
            let n = read_up_to(&mut file, &mut chunk)?;
            if n == 0 {
                break;
            }
            dec.feed(&chunk[..n]);
            while dec.next_event()?.is_some() {}
        }
        let end = LOG_HEADER_LEN + dec.consumed();
        file.set_len(end)?;
        file.seek(SeekFrom::Start(end))?;
        Ok(Self { file, offset: end })
    }

    /// Appends `events` and returns the offset after them. Buffered in one
    /// write; call [`EventLogWriter::sync`] to make it durable.
    pub fn append(&mut self, events: &[Event]) -> Result<u64, EventLogError> {
        let mut buf = Vec::with_capacity(events.len() * (4 + EVENT_PAYLOAD_LEN as usize));
        for ev in events {
            put_event(&mut buf, ev);
        }
        self.file.write_all(&buf)?;
        self.offset += buf.len() as u64;
        Ok(self.offset)
    }

    /// Fsyncs appended records to disk.
    pub fn sync(&mut self) -> Result<(), EventLogError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Byte offset after the last appended record.
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

fn read_up_to(file: &mut File, buf: &mut [u8]) -> io::Result<usize> {
    let mut total = 0;
    while total < buf.len() {
        match file.read(&mut buf[total..]) {
            Ok(0) => break,
            Ok(n) => total += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// Tailing reader: opens a log at an arbitrary byte offset and yields
/// events as they become available. EOF is not an error — a later
/// [`EventLogReader::poll`] picks up records appended in the meantime, and
/// a partial record at the tail stays buffered until its remaining bytes
/// arrive.
pub struct EventLogReader {
    file: File,
    dec: EventDecoder,
    start: u64,
    chunk: Vec<u8>,
}

impl EventLogReader {
    /// Opens `path` positioned at `offset` (clamped to just past the
    /// header). The header is always validated, whatever the offset.
    pub fn open(path: impl AsRef<Path>, offset: u64) -> Result<Self, EventLogError> {
        let mut file = File::open(path)?;
        let mut head = [0u8; LOG_HEADER_LEN as usize];
        let n = read_up_to(&mut file, &mut head)?;
        check_log_header(&head[..n])?;
        let start = offset.max(LOG_HEADER_LEN);
        file.seek(SeekFrom::Start(start))?;
        Ok(Self { file, dec: EventDecoder::new(), start, chunk: vec![0u8; 64 * 1024] })
    }

    /// Reads up to `max` events into `out`, each paired with the log offset
    /// *after* its record — the value to persist as that event's resume
    /// cursor. Returns the number appended; 0 means "caught up for now".
    pub fn poll(
        &mut self,
        max: usize,
        out: &mut Vec<(Event, u64)>,
    ) -> Result<usize, EventLogError> {
        let mut added = 0;
        while added < max {
            match self.dec.next_event()? {
                Some(ev) => {
                    out.push((ev, self.start + self.dec.consumed()));
                    added += 1;
                }
                None => {
                    let n = read_up_to(&mut self.file, &mut self.chunk)?;
                    if n == 0 {
                        break;
                    }
                    self.dec.feed(&self.chunk[..n]);
                }
            }
        }
        Ok(added)
    }

    /// Offset after the last complete record returned by `poll` — the
    /// crash-safe resume cursor.
    pub fn offset(&self) -> u64 {
        self.start + self.dec.consumed()
    }
}

/// Groups streamed events into training micro-batches.
///
/// The batcher accumulates per-user profiles inside a *window* of the log.
/// When an event arrives for a `batch_users + 1`-th distinct user, the
/// current window is sealed into a [`MultiFieldDataset`] (users in
/// first-seen order, per-field weights accumulated) and a new window starts
/// with the arriving event. Because the rule consults nothing but the event
/// sequence, batch contents are a pure function of the consumed log bytes —
/// resuming from *(snapshot, offset)* replays identical batches, which the
/// kill-and-resume byte-parity test pins down.
pub struct StreamBatcher {
    field_names: Vec<String>,
    field_vocabs: Vec<usize>,
    batch_users: usize,
    order: Vec<u64>,
    profiles: FastHashMap<u64, Vec<FastHashMap<u32, f32>>>,
    window_events: u64,
}

impl StreamBatcher {
    /// A batcher for the declared schema, emitting one batch per
    /// `batch_users` users.
    pub fn new(field_names: Vec<String>, field_vocabs: Vec<usize>, batch_users: usize) -> Self {
        assert_eq!(field_names.len(), field_vocabs.len(), "one vocab per field");
        assert!(batch_users > 0, "batch must hold at least one user");
        Self {
            field_names,
            field_vocabs,
            batch_users,
            order: Vec::new(),
            profiles: FastHashMap::default(),
            window_events: 0,
        }
    }

    /// Distinct users in the open window.
    pub fn window_users(&self) -> usize {
        self.order.len()
    }

    /// Events accumulated in the open window.
    pub fn window_events(&self) -> u64 {
        self.window_events
    }

    /// Feeds one event. Returns the sealed batch (with its event count)
    /// when this event opened a window past `batch_users` users; the event
    /// itself always lands in the *new* window.
    ///
    /// Events referencing fields or features outside the declared schema
    /// are rejected — a log is external input, and an out-of-range feature
    /// would otherwise corrupt the CSR batch.
    pub fn push(&mut self, ev: &Event) -> Result<Option<(MultiFieldDataset, u64)>, DecodeError> {
        let k = ev.field as usize;
        if k >= self.field_vocabs.len() {
            return Err(DecodeError::Invalid(format!(
                "event field {k} outside schema of {} fields",
                self.field_vocabs.len()
            )));
        }
        if ev.feature as usize >= self.field_vocabs[k] {
            return Err(DecodeError::Invalid(format!(
                "event feature {} outside field {k} vocabulary {}",
                ev.feature, self.field_vocabs[k]
            )));
        }
        let mut sealed = None;
        if !self.profiles.contains_key(&ev.user) && self.order.len() == self.batch_users {
            sealed = Some(self.seal());
        }
        let profile = self.profiles.entry(ev.user).or_insert_with(|| {
            self.order.push(ev.user);
            vec![FastHashMap::default(); self.field_vocabs.len()]
        });
        *profile[k].entry(ev.feature).or_insert(0.0) += ev.weight;
        self.window_events += 1;
        Ok(sealed)
    }

    /// Seals whatever the open window holds (end-of-stream drain). `None`
    /// when the window is empty.
    pub fn flush(&mut self) -> Option<(MultiFieldDataset, u64)> {
        if self.order.is_empty() {
            None
        } else {
            Some(self.seal())
        }
    }

    fn seal(&mut self) -> (MultiFieldDataset, u64) {
        let mut builders: Vec<CsrBuilder> =
            self.field_vocabs.iter().map(|&v| CsrBuilder::new(v)).collect();
        let mut ix: Vec<u32> = Vec::new();
        let mut vs: Vec<f32> = Vec::new();
        for user in &self.order {
            let profile = self.profiles.remove(user).expect("ordered user has a profile");
            for (k, field) in profile.iter().enumerate() {
                ix.clear();
                ix.extend(field.keys().copied());
                ix.sort_unstable();
                vs.clear();
                vs.extend(ix.iter().map(|i| field[i]));
                builders[k].push_row(&ix, &vs);
            }
        }
        self.order.clear();
        let events = self.window_events;
        self.window_events = 0;
        let fields = builders.into_iter().map(CsrBuilder::build).collect();
        (MultiFieldDataset::new(self.field_names.clone(), fields), events)
    }
}

/// Converts a frozen dataset into a per-user event session stream — the
/// bridge between the synthetic generators and the log. Each user's
/// features become contiguous events (sessions), the layout the batcher's
/// window rule expects; `repeats` passes emit the stream that many times
/// with a deterministically re-shuffled user order per pass (streaming's
/// stand-in for epochs). `user_base` offsets user identities so a second
/// phase can introduce never-seen users.
pub fn dataset_to_events(
    ds: &MultiFieldDataset,
    user_base: u64,
    repeats: usize,
    seed: u64,
) -> Vec<Event> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut out = Vec::new();
    let mut ts = 0u64;
    for r in 0..repeats {
        let mut order: Vec<usize> = (0..ds.n_users()).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Fisher–Yates, as in `split::shuffled_batches`.
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for &u in &order {
            for k in 0..ds.n_fields() {
                let (ix, vs) = ds.user_field(u, k);
                for (&feature, &weight) in ix.iter().zip(vs.iter()) {
                    out.push(Event {
                        user: user_base + u as u64,
                        field: k as u16,
                        feature,
                        weight,
                        ts,
                    });
                    ts += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fvae_events_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(format!("{}-{}", name, std::process::id()))
    }

    fn sample_events(n: usize) -> Vec<Event> {
        (0..n)
            .map(|i| Event {
                user: (i / 3) as u64,
                field: (i % 2) as u16,
                feature: (i % 7) as u32,
                weight: 1.0 + (i % 4) as f32,
                ts: i as u64,
            })
            .collect()
    }

    #[test]
    fn write_then_read_roundtrips() {
        let path = tmp("roundtrip.log");
        let events = sample_events(50);
        let mut w = EventLogWriter::create(&path).expect("create");
        let end = w.append(&events).expect("append");
        w.sync().expect("sync");
        assert_eq!(end, LOG_HEADER_LEN + 50 * (4 + EVENT_PAYLOAD_LEN as u64));

        let mut r = EventLogReader::open(&path, 0).expect("open");
        let mut got = Vec::new();
        let n = r.poll(usize::MAX, &mut got).expect("poll");
        assert_eq!(n, 50);
        assert_eq!(got.iter().map(|(e, _)| *e).collect::<Vec<_>>(), events);
        assert_eq!(r.offset(), end);
        // Per-event offsets are strictly increasing record boundaries.
        for (i, (_, off)) in got.iter().enumerate() {
            assert_eq!(*off, LOG_HEADER_LEN + (i as u64 + 1) * (4 + EVENT_PAYLOAD_LEN as u64));
        }
    }

    #[test]
    fn tailing_reader_resumes_across_appends_and_offsets() {
        let path = tmp("tail.log");
        let events = sample_events(20);
        let mut w = EventLogWriter::create(&path).expect("create");
        w.append(&events[..8]).expect("append");
        w.sync().expect("sync");

        let mut r = EventLogReader::open(&path, 0).expect("open");
        let mut got = Vec::new();
        assert_eq!(r.poll(usize::MAX, &mut got).expect("poll"), 8);
        assert_eq!(r.poll(usize::MAX, &mut got).expect("poll at eof"), 0);

        w.append(&events[8..]).expect("append more");
        w.sync().expect("sync");
        assert_eq!(r.poll(usize::MAX, &mut got).expect("poll after append"), 12);
        assert_eq!(got.iter().map(|(e, _)| *e).collect::<Vec<_>>(), events);

        // A fresh reader from a mid-log offset sees exactly the suffix.
        let resume_at = got[7].1;
        let mut r2 = EventLogReader::open(&path, resume_at).expect("reopen");
        let mut rest = Vec::new();
        assert_eq!(r2.poll(usize::MAX, &mut rest).expect("poll"), 12);
        assert_eq!(rest.iter().map(|(e, _)| *e).collect::<Vec<_>>(), events[8..]);
    }

    #[test]
    fn torn_tail_is_buffered_then_completed() {
        let path = tmp("torn.log");
        let events = sample_events(3);
        let mut w = EventLogWriter::create(&path).expect("create");
        w.append(&events).expect("append");
        w.sync().expect("sync");
        let full = std::fs::read(&path).expect("read");
        // Chop the last record in half.
        let cut = full.len() - 13;
        std::fs::write(&path, &full[..cut]).expect("write torn");

        let mut r = EventLogReader::open(&path, 0).expect("open");
        let mut got = Vec::new();
        assert_eq!(r.poll(usize::MAX, &mut got).expect("poll"), 2);
        let boundary = got[1].1;
        assert_eq!(r.offset(), boundary, "offset stops at the last whole record");

        // The writer's append path truncates the torn tail and re-appends.
        let mut w = EventLogWriter::open_append(&path).expect("reopen");
        assert_eq!(w.offset(), boundary);
        w.append(&events[2..]).expect("append");
        w.sync().expect("sync");
        assert_eq!(r.poll(usize::MAX, &mut got).expect("poll"), 1);
        assert_eq!(got.iter().map(|(e, _)| *e).collect::<Vec<_>>(), events);
    }

    #[test]
    fn hostile_length_is_rejected_before_buffering() {
        let mut dec = EventDecoder::new();
        dec.feed(&u32::MAX.to_le_bytes());
        assert!(matches!(dec.next_event(), Err(DecodeError::Invalid(_))));

        let mut dec = EventDecoder::new();
        dec.feed(&1u32.to_le_bytes()); // shorter than any valid record
        assert!(matches!(dec.next_event(), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn garbage_header_is_rejected() {
        let path = tmp("garbage.log");
        std::fs::write(&path, b"not an event log at all").expect("write");
        assert!(matches!(
            EventLogReader::open(&path, 0),
            Err(EventLogError::Decode(DecodeError::BadMagic))
        ));
        assert!(matches!(
            EventLogWriter::open_append(&path),
            Err(EventLogError::Decode(DecodeError::BadMagic))
        ));
    }

    #[test]
    fn future_version_is_rejected_and_longer_records_are_skipped() {
        let path = tmp("version.log");
        let mut buf = Vec::new();
        put_u32(&mut buf, LOG_MAGIC);
        put_u16(&mut buf, 9);
        std::fs::write(&path, &buf).expect("write");
        assert!(matches!(
            EventLogReader::open(&path, 0),
            Err(EventLogError::Decode(DecodeError::BadVersion(9)))
        ));

        // A v1 reader skips trailing bytes a future minor revision appended
        // to a record, thanks to the length prefix.
        let ev = Event { user: 1, field: 0, feature: 2, weight: 1.0, ts: 3 };
        let mut buf = Vec::new();
        put_u32(&mut buf, EVENT_PAYLOAD_LEN + 4);
        put_u64(&mut buf, ev.user);
        put_u16(&mut buf, ev.field);
        put_u32(&mut buf, ev.feature);
        put_f32(&mut buf, ev.weight);
        put_u64(&mut buf, ev.ts);
        put_u32(&mut buf, 0xdead_beef); // the future field
        let mut dec = EventDecoder::new();
        dec.feed(&buf);
        assert_eq!(dec.next_event().expect("decode"), Some(ev));
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn batcher_seals_on_the_overflow_user_and_replays_identically() {
        let names = vec!["ch".to_string(), "tag".to_string()];
        let vocabs = vec![8usize, 16];
        let events: Vec<Event> = (0..10)
            .flat_map(|u| {
                (0..3).map(move |j| Event {
                    user: u,
                    field: (j % 2) as u16,
                    feature: (u as u32 + j) % 8,
                    weight: 1.0,
                    ts: u * 3 + j as u64,
                })
            })
            .collect();

        let mut b = StreamBatcher::new(names.clone(), vocabs.clone(), 4);
        let mut batches = Vec::new();
        for ev in &events {
            if let Some((ds, n)) = b.push(ev).expect("push") {
                assert_eq!(ds.n_users(), 4);
                batches.push((ds, n));
            }
        }
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].1, 12, "four users × three events");
        assert_eq!(b.window_users(), 2);
        let tail = b.flush().expect("drain");
        assert_eq!(tail.0.n_users(), 2);
        assert!(b.flush().is_none());

        // Replaying the same events yields byte-equal batch contents.
        let mut b2 = StreamBatcher::new(names, vocabs, 4);
        let mut batches2 = Vec::new();
        for ev in &events {
            if let Some((ds, _)) = b2.push(ev).expect("push") {
                batches2.push(ds);
            }
        }
        for (a, c) in batches.iter().map(|(d, _)| d).zip(&batches2) {
            assert_eq!(a.n_users(), c.n_users());
            for u in 0..a.n_users() {
                for k in 0..a.n_fields() {
                    assert_eq!(a.user_field(u, k), c.user_field(u, k));
                }
            }
        }
    }

    #[test]
    fn batcher_accumulates_repeat_features_and_rejects_out_of_schema() {
        let mut b = StreamBatcher::new(vec!["f".into()], vec![4], 1);
        let ev = Event { user: 7, field: 0, feature: 2, weight: 1.5, ts: 0 };
        assert!(b.push(&ev).expect("push").is_none());
        assert!(b.push(&ev).expect("push").is_none());
        let (ds, n) = b.flush().expect("flush");
        assert_eq!(n, 2);
        assert_eq!(ds.user_field(0, 0), (&[2u32][..], &[3.0f32][..]));

        let bad_field = Event { field: 3, ..ev };
        assert!(b.push(&bad_field).is_err());
        let bad_feature = Event { feature: 99, ..ev };
        assert!(b.push(&bad_feature).is_err());
    }

    #[test]
    fn dataset_events_cover_every_user_per_repeat() {
        let ds = crate::synth::TopicModelConfig {
            n_users: 12,
            n_topics: 2,
            alpha: 0.2,
            fields: vec![
                crate::synth::FieldSpec::new("ch", 8, 2, 1.0),
                crate::synth::FieldSpec::new("tag", 16, 3, 1.0),
            ],
            pair_prob: 0.0,
            seed: 5,
        }
        .generate();
        let events = dataset_to_events(&ds, 100, 2, 9);
        let users: std::collections::HashSet<u64> = events.iter().map(|e| e.user).collect();
        assert_eq!(users.len(), 12);
        assert!(users.iter().all(|&u| (100..112).contains(&u)));
        // Deterministic: same seed, same stream.
        assert_eq!(events, dataset_to_events(&ds, 100, 2, 9));
        // Timestamps are strictly monotone.
        assert!(events.windows(2).all(|w| w[0].ts < w[1].ts));
    }
}
