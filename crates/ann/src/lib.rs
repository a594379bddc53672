//! Approximate nearest-neighbour retrieval over f32 embeddings.
//!
//! Exhaustive retrieval — look-alike account recall scoring every candidate
//! by −‖q−x‖² — is linear in the corpus and a non-starter at the paper's
//! billion-scale regime. This crate supplies the sublinear substitute called
//! for by ROADMAP item 1, following the inverted multi-index design of *Fast
//! Variational AutoEncoder with Inverted Multi-Index for Collaborative
//! Filtering* (PAPERS.md):
//!
//! * [`FlatIndex`] — the exhaustive reference. Exact by construction; every
//!   approximate result in the test suite is judged against it.
//! * [`IvfIndex`] — an IVF-PQ index: a seeded k-means coarse quantizer
//!   partitions the corpus into `nlist` inverted lists; within each list,
//!   residuals are product-quantized to `m` one-byte codes for cheap
//!   asymmetric-distance scoring; the top approximate candidates are then
//!   re-ranked with exact distances. Queries touch `nprobe` lists instead of
//!   the whole corpus.
//!
//! Both implement the [`AnnIndex`] trait so call sites (look-alike recall,
//! the `nearest` RPC in `fvae-serve`) stay agnostic.
//!
//! # Determinism contract
//!
//! Index **builds are bit-deterministic**: the same `(ids, vectors, config)`
//! input yields byte-identical serialized indexes at any worker-thread count
//! and on any SIMD backend. This holds because
//!
//! * all float math goes through the scalar `fvae_tensor::ops` kernels (no
//!   runtime-dispatched SIMD — index build is offline, serving reads it),
//! * the k-means assignment step is output-disjoint per point (each point's
//!   nearest centroid is a pure function of the point), so pool sharding
//!   cannot reorder any float operation, and
//! * every reduction (centroid update, empty-list repair, candidate
//!   selection) runs serially in fixed order with ties broken by the lowest
//!   index or id.
//!
//! Search results order ties by ascending id, so top-k lists are stable too.
//!
//! # Scoring convention
//!
//! [`Neighbor::score`] is **−‖q−x‖²** (higher is closer), matching the
//! convention of `LookalikeSystem::recall` and `EmbeddingMatcher`. Results
//! are sorted best-first.

#![forbid(unsafe_code)]

pub mod flat;
pub mod harness;
pub mod io;
pub mod ivf;
pub mod kmeans;
pub mod serial;

pub use flat::FlatIndex;
pub use harness::{recall_parity, synth_clustered, ParityPoint};
pub use ivf::{IvfConfig, IvfIndex};
pub use serial::{decode_index, encode_index, AnyIndex};

/// Corpora below this size index exhaustively in [`auto_build`]: recall
/// stays exact where exactness is cheap, and the IVF machinery engages only
/// at the scale that motivates it.
pub const FLAT_THRESHOLD: usize = 4096;

/// IVF shape for an `n`-point, `dim`-wide corpus: ~√n lists probed at ~1/8,
/// the widest PQ split that divides `dim`, and a re-rank pool deep enough
/// that the parity-harness operating point (recall@10 ≥ 0.95 under 20 % of
/// flat cost) transfers.
pub fn adaptive_ivf_config(n: usize, dim: usize) -> IvfConfig {
    let nlist = ((n as f64).sqrt().ceil() as usize).clamp(16, 1024);
    let pq_m = [8usize, 4, 2, 1].into_iter().find(|m| dim.is_multiple_of(*m)).unwrap_or(1);
    IvfConfig {
        nlist,
        pq_m,
        rerank: 256,
        default_nprobe: (nlist / 8).max(8),
        ..IvfConfig::default()
    }
}

/// Builds the right index for the corpus size: exhaustive [`FlatIndex`]
/// below [`FLAT_THRESHOLD`] points, [`IvfIndex`] under
/// [`adaptive_ivf_config`] at or above it. This is the one policy every
/// call site (look-alike recall, the serve-side `nearest` RPC) shares.
pub fn auto_build(dim: usize, ids: &[u64], data: &[f32]) -> Result<AnyIndex, String> {
    if ids.len() < FLAT_THRESHOLD {
        Ok(AnyIndex::Flat(FlatIndex::build(dim, ids, data)?))
    } else {
        let config = adaptive_ivf_config(ids.len(), dim);
        Ok(AnyIndex::Ivf(IvfIndex::build(dim, ids, data, config)?))
    }
}

/// One retrieval result: a corpus id and its score (−‖q−x‖², higher is
/// closer). Exactness depends on the index: [`FlatIndex`] scores are exact;
/// [`IvfIndex`] scores are exact for re-ranked candidates (which is all it
/// returns).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Corpus id of the neighbour.
    pub id: u64,
    /// −‖query − vector‖²; higher is closer.
    pub score: f32,
}

/// Work accounting for one search, the currency of the recall/cost
/// trade-off: the parity harness proves recall@k targets *at a distance
/// budget*, not in the abstract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Full `dim`-wide squared-distance evaluations (coarse-quantizer scan
    /// plus exact re-ranks). A flat scan costs `len()` of these.
    pub distance_evals: usize,
    /// Cheap per-point PQ code scorings (table lookups + adds) plus LUT
    /// entries built. Zero for flat search.
    pub code_evals: usize,
    /// Inverted lists visited. Zero for flat search.
    pub lists_probed: usize,
}

/// A retrieval index over f32 embeddings.
pub trait AnnIndex: Send + Sync {
    /// Embedding dimensionality.
    fn dim(&self) -> usize;
    /// Number of indexed vectors.
    fn len(&self) -> usize;
    /// True when nothing is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Top-`k` neighbours of `query`, best-first, ties by ascending id;
    /// accumulates work accounting into `stats`.
    fn search_with_stats(&self, query: &[f32], k: usize, stats: &mut SearchStats) -> Vec<Neighbor>;
    /// Top-`k` neighbours of `query`, best-first, ties by ascending id.
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let mut stats = SearchStats::default();
        self.search_with_stats(query, k, &mut stats)
    }
}

/// Sorts `(dist asc, id asc)` candidate pairs and truncates to `k`: the
/// shared final-ordering rule of every index, so flat and IVF agree on tie
/// handling bit-for-bit.
pub(crate) fn finish_top_k(candidates: &mut Vec<(f32, u64)>, k: usize) -> Vec<Neighbor> {
    if candidates.len() > k {
        candidates.select_nth_unstable_by(k, |a, b| cmp_dist_id(*a, *b));
        candidates.truncate(k);
    }
    candidates.sort_unstable_by(|a, b| cmp_dist_id(*a, *b));
    candidates.iter().map(|&(d, id)| Neighbor { id, score: -d }).collect()
}

/// Total order on `(distance, id)`: nearer first, NaN distances last (so a
/// poisoned vector can never shadow real neighbours), ties by ascending id.
#[inline]
pub(crate) fn cmp_dist_id(a: (f32, u64), b: (f32, u64)) -> std::cmp::Ordering {
    let by_dist = match (a.0.is_nan(), b.0.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.0.total_cmp(&b.0),
    };
    by_dist.then(a.1.cmp(&b.1))
}

/// Validates parallel `(ids, data)` slices and returns id-sorted copies —
/// the canonical build input, so permuting the caller's insertion order can
/// never change the serialized index.
pub(crate) fn canonicalize(
    dim: usize,
    ids: &[u64],
    data: &[f32],
) -> Result<(Vec<u64>, Vec<f32>), String> {
    if dim == 0 {
        return Err("embedding dim must be positive".into());
    }
    if ids.len().checked_mul(dim) != Some(data.len()) {
        return Err(format!(
            "data length {} is not ids ({}) x dim ({})",
            data.len(),
            ids.len(),
            dim
        ));
    }
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_unstable_by_key(|&i| ids[i]);
    for w in order.windows(2) {
        if ids[w[0]] == ids[w[1]] {
            return Err(format!("duplicate id {}", ids[w[0]]));
        }
    }
    let sorted_ids: Vec<u64> = order.iter().map(|&i| ids[i]).collect();
    let mut sorted_data = Vec::with_capacity(data.len());
    for &i in &order {
        sorted_data.extend_from_slice(&data[i * dim..(i + 1) * dim]);
    }
    Ok((sorted_ids, sorted_data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_sorts_and_rejects() {
        let (ids, data) = canonicalize(2, &[5, 1], &[5.0, 5.5, 1.0, 1.5]).expect("ok");
        assert_eq!(ids, vec![1, 5]);
        assert_eq!(data, vec![1.0, 1.5, 5.0, 5.5]);
        assert!(canonicalize(2, &[1, 1], &[0.0; 4]).is_err());
        assert!(canonicalize(0, &[1], &[]).is_err());
        assert!(canonicalize(2, &[1], &[0.0; 3]).is_err());
    }

    #[test]
    fn finish_top_k_orders_ties_by_id() {
        let mut c = vec![(1.0, 9), (0.5, 4), (1.0, 2), (0.5, 3)];
        let out = finish_top_k(&mut c, 3);
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 4, 2]);
        assert_eq!(out[0].score, -0.5);
    }

    #[test]
    fn auto_build_picks_by_scale() {
        let ids: Vec<u64> = (0..10).collect();
        let data: Vec<f32> = (0..20).map(|v| v as f32).collect();
        assert!(matches!(auto_build(2, &ids, &data), Ok(AnyIndex::Flat(_))));
        let (ids, data) = synth_clustered(FLAT_THRESHOLD + 10, 4, 8, 1);
        match auto_build(4, &ids, &data) {
            Ok(AnyIndex::Ivf(ivf)) => assert_eq!(ivf.len(), FLAT_THRESHOLD + 10),
            other => panic!("wanted IVF at scale, got {:?}", other.map(|i| i.len())),
        }
    }

    #[test]
    fn nan_distance_sorts_last() {
        let mut c = vec![(f32::NAN, 1), (2.0, 2)];
        let out = finish_top_k(&mut c, 2);
        assert_eq!(out[0].id, 2);
    }
}
