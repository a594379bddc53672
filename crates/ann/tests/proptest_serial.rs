//! Property tests for the ANN index serialization: every built index
//! roundtrips to identical bytes, and *no* byte string — truncated, garbage,
//! bit-flipped, or adversarially structured — can make the decoder panic or
//! allocate from an unchecked count. Mirrors the serve codec proptests.

use fvae_ann::io::{read_embeddings, write_embeddings};
use fvae_ann::serial::{AnyIndex, KIND_FLAT, KIND_IVF};
use fvae_ann::{decode_index, encode_index, synth_clustered, FlatIndex, IvfConfig, IvfIndex};
use fvae_sparse::serial::DecodeError;
use proptest::prelude::*;

/// A small deterministic corpus from drawn raw material.
fn corpus(n: usize, dim_sel: usize, seed: u64) -> (usize, Vec<u64>, Vec<f32>) {
    let dim = [4usize, 8, 16][dim_sel % 3];
    let (ids, data) = synth_clustered(n.max(2), dim, 1 + seed as usize % 5, seed);
    (dim, ids, data)
}

fn build_any(kind: usize, n: usize, dim_sel: usize, seed: u64) -> AnyIndex {
    let (dim, ids, data) = corpus(n, dim_sel, seed);
    if kind.is_multiple_of(2) {
        AnyIndex::Flat(FlatIndex::build(dim, &ids, &data).expect("flat"))
    } else {
        let config = IvfConfig {
            nlist: 1 + (seed as usize % 12),
            pq_m: if dim % 4 == 0 { 4 } else { 2 },
            pq_ks: 8,
            rerank: 16,
            train_iters: 3,
            ..IvfConfig::default()
        };
        AnyIndex::Ivf(IvfIndex::build(dim, &ids, &data, config).expect("ivf"))
    }
}

proptest! {
    /// encode → decode is the identity, byte-for-byte on re-encode.
    #[test]
    fn roundtrip_both_kinds(
        kind in 0usize..2,
        n in 2usize..60,
        dim_sel in 0usize..3,
        seed in 0u64..500,
    ) {
        let index = build_any(kind, n, dim_sel, seed);
        let bytes = encode_index(&index);
        let back = decode_index(&bytes).expect("decode");
        prop_assert_eq!(&back, &index);
        prop_assert_eq!(encode_index(&back).to_vec(), bytes.to_vec());
    }

    /// Any strict prefix of a valid artifact is a typed error — never a
    /// panic, never a success.
    #[test]
    fn truncation_never_panics_never_succeeds(
        kind in 0usize..2,
        n in 2usize..40,
        seed in 0u64..200,
        cut_frac in 0.0f64..1.0,
    ) {
        let index = build_any(kind, n, 1, seed);
        let bytes = encode_index(&index);
        let cut = ((bytes.len() as f64) * cut_frac) as usize; // < bytes.len()
        prop_assert!(
            decode_index(&bytes[..cut]).is_err(),
            "strict prefix of {} bytes decoded", cut
        );
    }

    /// A single flipped byte is either rejected (typed) or yields an index
    /// that still upholds its structural invariants — never a panic.
    #[test]
    fn single_byte_corruption_never_panics(
        kind in 0usize..2,
        n in 2usize..40,
        seed in 0u64..200,
        pos_frac in 0.0f64..1.0,
        flip in 1u64..256,
    ) {
        let index = build_any(kind, n, 1, seed);
        let mut bytes = encode_index(&index).to_vec();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= flip as u8;
        if let Ok(decoded) = decode_index(&bytes[..]) {
            // Accepted corruption must still be structurally sound enough
            // to search without panicking.
            use fvae_ann::AnnIndex;
            let dim = decoded.dim();
            prop_assert!(dim > 0 && dim <= 1 << 16);
            let query = vec![0.25f32; dim];
            let got = decoded.search(&query, 5);
            prop_assert!(got.len() <= 5);
        }
    }

    /// Garbage bytes under a well-formed header: decode must fail with a
    /// typed error, never panic or over-allocate.
    #[test]
    fn garbage_payloads_never_panic(
        kind_byte in 0u64..256,
        junk in proptest::collection::vec(0u64..256, 0..120),
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&fvae_sparse::serial::MAGIC.to_le_bytes());
        bytes.extend_from_slice(&fvae_sparse::serial::VERSION.to_le_bytes());
        bytes.push(kind_byte as u8);
        bytes.extend(junk.iter().map(|&b| b as u8));
        let _ = decode_index(&bytes[..]);
    }

    /// Hostile counts (absurd id/list lengths) are rejected by the
    /// remaining-bytes check before any allocation sized by them.
    #[test]
    fn hostile_counts_rejected_before_allocating(
        kind in 0usize..2,
        count in (1u64 << 40)..(1u64 << 62),
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&fvae_sparse::serial::MAGIC.to_le_bytes());
        bytes.extend_from_slice(&fvae_sparse::serial::VERSION.to_le_bytes());
        bytes.push(if kind == 0 { KIND_FLAT } else { KIND_IVF });
        if kind == 0 {
            bytes.extend_from_slice(&8u64.to_le_bytes()); // dim
            bytes.extend_from_slice(&count.to_le_bytes()); // id count: absurd
        } else {
            // dim, nlist, ks, config{nlist, pq_m, pq_ks, rerank, nprobe,
            // iters, seed}, then an absurd centroid count.
            for v in [8u64, 4, 8, 4, 4, 8, 16, 2, 3, 1] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            bytes.extend_from_slice(&count.to_le_bytes());
        }
        prop_assert_eq!(decode_index(&bytes[..]), Err(DecodeError::Truncated));
    }

    /// The embedding-file reader under the same hostility: truncation and
    /// oversized counts are typed errors, arbitrary tails never panic.
    #[test]
    fn embedding_file_reader_is_hostile_safe(
        n in 0usize..40,
        dim_sel in 0usize..3,
        seed in 0u64..200,
        cut_frac in 0.0f64..1.0,
    ) {
        let dim = [2usize, 4, 8][dim_sel % 3];
        let ids: Vec<u64> = (0..n as u64).map(|i| i * 2 + 1).collect();
        let data: Vec<f32> = (0..n * dim).map(|i| (seed as f32) + i as f32 * 0.5).collect();
        let bytes = write_embeddings(dim, &ids, &data);
        let back = read_embeddings(&bytes).expect("roundtrip");
        prop_assert_eq!(back.ids, ids);
        prop_assert_eq!(back.data, data);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(read_embeddings(&bytes[..cut]).is_err());
    }
}
