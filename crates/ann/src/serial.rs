//! Binary save/load for ANN indexes, in the workspace artifact format
//! (`fvae_sparse::serial` header: `[magic u32][version u16]`, little-endian
//! throughout), followed by a one-byte index kind and the payload.
//!
//! The decoder is hostile-input safe in the same sense as the serve codec:
//! every length is checked against the remaining buffer *before* any
//! allocation sized by it, every structural invariant (sorted unique ids,
//! codes within the codebook, cross-array length agreement) is re-validated,
//! and failures surface as typed [`DecodeError`]s — never panics.

use fvae_sparse::serial::{
    expect_len, put_bytes, put_f32_slice, put_header, put_u64, put_u64_slice, put_u8, DecodeError,
    Reader, MAGIC, VERSION,
};

use crate::flat::FlatIndex;
use crate::ivf::{IvfConfig, IvfIndex};
use crate::{AnnIndex, Neighbor, SearchStats};

/// Index-kind tag for [`FlatIndex`].
pub const KIND_FLAT: u8 = 1;
/// Index-kind tag for [`IvfIndex`].
pub const KIND_IVF: u8 = 2;

/// Either index kind, as loaded from disk; delegates [`AnnIndex`] to the
/// payload so call sites stay agnostic to what was serialized.
#[derive(Clone, Debug, PartialEq)]
pub enum AnyIndex {
    /// Exhaustive reference index.
    Flat(FlatIndex),
    /// IVF-PQ index.
    Ivf(IvfIndex),
}

impl AnnIndex for AnyIndex {
    fn dim(&self) -> usize {
        match self {
            AnyIndex::Flat(i) => i.dim(),
            AnyIndex::Ivf(i) => i.dim(),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyIndex::Flat(i) => i.len(),
            AnyIndex::Ivf(i) => i.len(),
        }
    }

    fn search_with_stats(&self, query: &[f32], k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        match self {
            AnyIndex::Flat(i) => i.search_with_stats(query, k, stats),
            AnyIndex::Ivf(i) => i.search_with_stats(query, k, stats),
        }
    }
}

fn invalid(msg: impl Into<String>) -> DecodeError {
    DecodeError::Invalid(msg.into())
}

/// Serializes an index (header + kind + payload) into a standalone buffer.
pub fn encode_index(index: &AnyIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    put_header(&mut buf);
    match index {
        AnyIndex::Flat(flat) => {
            put_u8(&mut buf, KIND_FLAT);
            put_u64(&mut buf, flat.dim() as u64);
            put_u64_slice(&mut buf, flat.ids());
            put_f32_slice(&mut buf, flat.vectors());
        }
        AnyIndex::Ivf(ivf) => {
            put_u8(&mut buf, KIND_IVF);
            encode_ivf_payload(&mut buf, ivf);
        }
    }
    buf
}

fn encode_ivf_payload(buf: &mut Vec<u8>, ivf: &IvfIndex) {
    let cfg = ivf.config();
    put_u64(buf, ivf.dim as u64);
    put_u64(buf, ivf.nlist as u64);
    put_u64(buf, ivf.ks as u64);
    put_u64(buf, cfg.nlist as u64);
    put_u64(buf, cfg.pq_m as u64);
    put_u64(buf, cfg.pq_ks as u64);
    put_u64(buf, cfg.rerank as u64);
    put_u64(buf, cfg.default_nprobe as u64);
    put_u64(buf, cfg.train_iters as u64);
    put_u64(buf, cfg.seed);
    put_f32_slice(buf, &ivf.centroids);
    put_f32_slice(buf, &ivf.codebooks);
    for list in &ivf.lists {
        put_u64_slice(buf, &list.ids);
        put_bytes(buf, &list.codes);
        put_f32_slice(buf, &list.vectors);
    }
}

/// Deserializes an index written by [`encode_index`], re-validating every
/// structural invariant of the in-memory form.
pub fn decode_index(buf: &[u8]) -> Result<AnyIndex, DecodeError> {
    let mut r = Reader::new(buf);
    r.header(MAGIC, VERSION)?;
    let index = match r.u8()? {
        KIND_FLAT => AnyIndex::Flat(decode_flat_payload(&mut r)?),
        KIND_IVF => AnyIndex::Ivf(decode_ivf_payload(&mut r)?),
        other => return Err(invalid(format!("unknown index kind {other}"))),
    };
    r.finish()?;
    Ok(index)
}

fn decode_flat_payload(r: &mut Reader<'_>) -> Result<FlatIndex, DecodeError> {
    let dim = r.usize()?;
    let ids = r.u64s()?;
    let data = r.f32s()?;
    FlatIndex::from_canonical_parts(dim, ids, data).map_err(invalid)
}

fn decode_ivf_payload(r: &mut Reader<'_>) -> Result<IvfIndex, DecodeError> {
    let dim = r.usize()?;
    let nlist = r.usize()?;
    let ks = r.usize()?;
    let config = IvfConfig {
        nlist: r.usize()?,
        pq_m: r.usize()?,
        pq_ks: r.usize()?,
        rerank: r.usize()?,
        default_nprobe: r.usize()?,
        train_iters: r.usize()?,
        seed: r.u64()?,
    };
    if dim == 0 {
        return Err(invalid("zero dim"));
    }
    if config.pq_m == 0 || !dim.is_multiple_of(config.pq_m) {
        return Err(invalid(format!("pq_m {} does not divide dim {dim}", config.pq_m)));
    }
    if ks == 0 || ks > 256 || ks > config.pq_ks.max(1) {
        return Err(invalid(format!("effective ks {ks} out of range")));
    }
    if nlist == 0 || nlist > config.nlist {
        return Err(invalid(format!("effective nlist {nlist} out of range")));
    }
    let sub = dim / config.pq_m;
    let centroids = r.f32s()?;
    expect_len(centroids.len(), &[nlist, dim], "centroid length is not nlist x dim")?;
    let codebooks = r.f32s()?;
    expect_len(
        codebooks.len(),
        &[config.pq_m, ks, sub],
        "codebook length is not pq_m x ks x subdim",
    )?;
    let mut lists = Vec::new();
    let mut n = 0usize;
    for _ in 0..nlist {
        let ids = r.u64s()?;
        let codes = r.bytes()?.to_vec();
        let vectors = r.f32s()?;
        expect_len(codes.len(), &[ids.len(), config.pq_m], "code row count disagrees with list ids")?;
        expect_len(vectors.len(), &[ids.len(), dim], "vector row count disagrees with list ids")?;
        if codes.iter().any(|&c| c as usize >= ks) {
            return Err(invalid("PQ code outside the codebook"));
        }
        for w in ids.windows(2) {
            if w[0] >= w[1] {
                return Err(invalid("list ids not strictly increasing"));
            }
        }
        n += ids.len();
        lists.push(crate::ivf::InvertedList { ids, codes, vectors });
    }
    // Ids must be unique across lists too, or search could return the same
    // id twice.
    let mut all_ids: Vec<u64> = lists.iter().flat_map(|l| l.ids.iter().copied()).collect();
    all_ids.sort_unstable();
    if all_ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(invalid("duplicate id across inverted lists"));
    }
    if n == 0 {
        return Err(invalid("empty index"));
    }
    Ok(IvfIndex { dim, config, nlist, centroids, codebooks, ks, lists, n })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::synth_clustered;

    fn sample_ivf() -> IvfIndex {
        let (ids, data) = synth_clustered(200, 8, 4, 13);
        IvfIndex::build(
            8,
            &ids,
            &data,
            IvfConfig { nlist: 8, rerank: 32, ..IvfConfig::default() },
        )
        .expect("build")
    }

    #[test]
    fn ivf_roundtrip_is_identity() {
        let ivf = sample_ivf();
        let bytes = encode_index(&AnyIndex::Ivf(ivf.clone()));
        let back = decode_index(&bytes).expect("decode");
        assert_eq!(back, AnyIndex::Ivf(ivf));
    }

    #[test]
    fn flat_roundtrip_is_identity() {
        let (ids, data) = synth_clustered(50, 4, 2, 1);
        let flat = FlatIndex::build(4, &ids, &data).expect("build");
        let bytes = encode_index(&AnyIndex::Flat(flat.clone()));
        let back = decode_index(&bytes).expect("decode");
        assert_eq!(back, AnyIndex::Flat(flat));
    }

    #[test]
    fn truncation_anywhere_is_rejected_without_panicking() {
        let bytes = encode_index(&AnyIndex::Ivf(sample_ivf()));
        // Every strict prefix must fail with a typed error (stride keeps the
        // test fast; hostile fuzzing lives in the proptest suite).
        for cut in (0..bytes.len()).step_by(97) {
            assert!(decode_index(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let bytes = encode_index(&AnyIndex::Ivf(sample_ivf()));
        let mut extended = bytes;
        extended.push(0);
        assert!(matches!(
            decode_index(&extended),
            Err(DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut buf = Vec::new();
        put_header(&mut buf);
        put_u8(&mut buf, 99);
        assert!(matches!(decode_index(&buf), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn code_outside_codebook_is_rejected() {
        let ivf = sample_ivf();
        let bytes = encode_index(&AnyIndex::Ivf(ivf.clone()));
        // Corrupt one PQ code to 255 (>= ks, since ks defaults to 16). Codes
        // live in the per-list byte blocks; flipping any one of them must be
        // caught either by the code-range check or by id-order checks —
        // decode must fail or return a *valid* index, never panic. Target
        // the first list's code block deterministically via re-encode.
        let mut tampered = bytes.clone();
        // Find the first code block: search for the exact code bytes of
        // list 0 is brittle; instead corrupt every byte position and require
        // "no panic, and not silently equal-but-invalid".
        let mut rejected = 0;
        for pos in (6 + 1 + 80..bytes.len()).step_by(211) {
            tampered.copy_from_slice(&bytes);
            tampered[pos] = 0xFF;
            match decode_index(&tampered) {
                Ok(ok) => {
                    // Accepted mutations must still be structurally valid.
                    let AnyIndex::Ivf(ok) = ok else { panic!("kind flip") };
                    assert!(ok.len() > 0);
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(rejected > 0, "no corruption was ever rejected");
    }

    #[test]
    fn hostile_list_count_rejected_before_allocating() {
        // A header that declares 2^60 ids must fail on the length check, not
        // attempt the allocation.
        let mut buf = Vec::new();
        put_header(&mut buf);
        put_u8(&mut buf, KIND_FLAT);
        put_u64(&mut buf, 4); // dim
        put_u64(&mut buf, 1u64 << 60); // id count: absurd
        put_u64(&mut buf, 0);
        assert_eq!(decode_index(&buf), Err(DecodeError::Truncated));
    }
}
