//! Property tests for the event-log codec, mirroring the serve codec
//! battery: roundtrip, truncation, garbage, hostile counts, and 1-byte
//! chunk reassembly.

use fvae_data::events::{
    check_log_header, put_event, Event, EventDecoder, EVENT_PAYLOAD_LEN, LOG_MAGIC, LOG_VERSION,
    MAX_EVENT_LEN,
};
use fvae_sparse::serial::{put_u32, DecodeError};
use proptest::prelude::*;

fn arb_event() -> impl Strategy<Value = Event> {
    (any::<u64>(), 0u32..65536, any::<u32>(), any::<f32>(), any::<u64>()).prop_map(
        |(user, field, feature, weight, ts)| Event { user, field: field as u16, feature, weight, ts },
    )
}

/// A byte vector (the vendored proptest has no `u8` Arbitrary).
fn arb_bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u32..256, len)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

fn encode_all(events: &[Event]) -> Vec<u8> {
    let mut buf = Vec::new();
    for ev in events {
        put_event(&mut buf, ev);
    }
    buf
}

fn decode_all(bytes: &[u8]) -> Result<Vec<Event>, DecodeError> {
    let mut dec = EventDecoder::new();
    dec.feed(bytes);
    let mut out = Vec::new();
    while let Some(ev) = dec.next_event()? {
        out.push(ev);
    }
    Ok(out)
}

/// Event equality by encoding, so `NaN` weights compare equal to their
/// roundtripped selves (bit pattern, not `PartialEq`).
fn bits(ev: &Event) -> (u64, u16, u32, u32, u64) {
    (ev.user, ev.field, ev.feature, ev.weight.to_bits(), ev.ts)
}

proptest! {
    /// Any event sequence decodes back bit-exactly.
    #[test]
    fn roundtrip(events in proptest::collection::vec(arb_event(), 0..60)) {
        let bytes = encode_all(&events);
        let back = decode_all(&bytes).expect("valid stream decodes");
        prop_assert_eq!(
            events.iter().map(bits).collect::<Vec<_>>(),
            back.iter().map(bits).collect::<Vec<_>>()
        );
    }

    /// Truncating a valid stream anywhere never panics and never invents an
    /// event: exactly the whole records before the cut decode, and the
    /// decoder reports "need more bytes" for the rest (no error — a torn
    /// tail must stay resumable).
    #[test]
    fn truncation_yields_only_whole_records(
        events in proptest::collection::vec(arb_event(), 1..40),
        cut_frac in 0.0f64..1.0
    ) {
        let bytes = encode_all(&events);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let record = 4 + EVENT_PAYLOAD_LEN as usize;
        let mut dec = EventDecoder::new();
        dec.feed(&bytes[..cut]);
        let mut n = 0usize;
        while let Some(ev) = dec.next_event().expect("truncated stream is not an error") {
            prop_assert_eq!(bits(&ev), bits(&events[n]));
            n += 1;
        }
        prop_assert_eq!(n, cut / record);
        prop_assert_eq!(dec.consumed() as usize, n * record);
    }

    /// Feeding the same stream one byte at a time yields the identical
    /// event sequence — reassembly does not depend on chunk boundaries.
    #[test]
    fn one_byte_chunk_reassembly(events in proptest::collection::vec(arb_event(), 1..30)) {
        let bytes = encode_all(&events);
        let whole = decode_all(&bytes).expect("whole decode");
        let mut dec = EventDecoder::new();
        let mut trickled = Vec::new();
        for &b in &bytes {
            dec.feed(std::slice::from_ref(&b));
            while let Some(ev) = dec.next_event().expect("byte-wise decode") {
                trickled.push(ev);
            }
        }
        prop_assert_eq!(
            whole.iter().map(bits).collect::<Vec<_>>(),
            trickled.iter().map(bits).collect::<Vec<_>>()
        );
    }

    /// A hostile length prefix — below the v1 payload size or above
    /// `MAX_EVENT_LEN` — is rejected from the 4 prefix bytes alone, before
    /// the decoder ever waits for (or allocates) the claimed payload.
    #[test]
    fn hostile_length_is_rejected_immediately(
        good in proptest::collection::vec(arb_event(), 0..10),
        raw in any::<u32>()
    ) {
        // Half the draws undershoot the v1 payload size, half overshoot
        // MAX_EVENT_LEN (the vendored proptest has no `prop_oneof!`).
        let bad_len = if raw % 2 == 0 {
            raw % EVENT_PAYLOAD_LEN
        } else {
            MAX_EVENT_LEN + 1 + raw % 100_000
        };
        let mut buf = Vec::new();
        for ev in &good {
            put_event(&mut buf, ev);
        }
        put_u32(&mut buf, bad_len);
        let mut dec = EventDecoder::new();
        dec.feed(&buf);
        let mut n = 0usize;
        let err = loop {
            match dec.next_event() {
                Ok(Some(_)) => n += 1,
                Ok(None) => prop_assert!(false, "hostile length must error, not wait"),
                Err(e) => break e,
            }
        };
        prop_assert_eq!(n, good.len());
        prop_assert!(matches!(err, DecodeError::Invalid(_)));
    }

    /// Uniformly random garbage never panics the decoder: it either decodes
    /// some events, waits for more bytes, or fails with a typed error.
    #[test]
    fn garbage_never_panics(bytes in arb_bytes(0..400)) {
        let mut dec = EventDecoder::new();
        dec.feed(&bytes);
        loop {
            match dec.next_event() {
                Ok(Some(_)) => {}
                Ok(None) | Err(DecodeError::Invalid(_)) => break,
                Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
            }
        }
    }

    /// Garbage headers are rejected with the right typed error.
    #[test]
    fn header_check_classifies_garbage(head in arb_bytes(0..12)) {
        match check_log_header(&head) {
            Ok(()) => {
                prop_assert_eq!(
                    u32::from_le_bytes(head[0..4].try_into().unwrap()),
                    LOG_MAGIC
                );
                prop_assert_eq!(
                    u16::from_le_bytes(head[4..6].try_into().unwrap()),
                    LOG_VERSION
                );
            }
            Err(DecodeError::Truncated) => prop_assert!(head.len() < 6),
            Err(DecodeError::BadMagic) => prop_assert_ne!(
                u32::from_le_bytes(head[0..4].try_into().unwrap()),
                LOG_MAGIC
            ),
            Err(DecodeError::BadVersion(v)) => prop_assert_ne!(v, LOG_VERSION),
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }
}
