//! Recall@k parity harness: the proof that approximate retrieval is
//! *measurably* close to exact retrieval at a *measured* fraction of the
//! cost.
//!
//! Because this crate's archetype is correctness-first, the harness is part
//! of the library, not a test helper: the `fvae ann` CLI command (and its
//! `--json` report) and the CI smoke gate both run exactly this code over
//! the committed fixture. [`recall_parity`] sweeps `nprobe` and reports
//! per-point recall@k against [`FlatIndex`], mean distance evaluations per
//! query (as an absolute count and as a fraction of the corpus, the number
//! the ≤ 20 % acceptance budget is written against), and p50/p99 query
//! latency.
//!
//! [`synth_clustered`] generates the deterministic Gaussian-mixture corpora
//! the fixtures are built from. It avoids transcendental functions (whose
//! bit patterns vary across libm builds): jitter is Irwin–Hall approximate
//! normal — sums of uniforms, pure IEEE add/mul — so committed fixture bytes
//! reproduce on any platform.

use std::time::Instant;

use crate::kmeans::splitmix64;
use crate::{AnnIndex, FlatIndex, IvfIndex, SearchStats};

/// One point of the recall/cost trade-off curve, at a fixed `nprobe`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParityPoint {
    /// Lists probed per query.
    pub nprobe: usize,
    /// Mean |approx top-k ∩ exact top-k| / k over the query set.
    pub recall_at_k: f64,
    /// Mean full distance evaluations per query (coarse scan + re-rank).
    pub mean_distance_evals: f64,
    /// `mean_distance_evals / corpus size`: the cost relative to a flat
    /// scan. The acceptance gate is recall ≥ 0.95 with this ≤ 0.20.
    pub distance_frac: f64,
    /// Mean PQ code operations per query (LUT builds + candidate scoring).
    pub mean_code_evals: f64,
    /// Median query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: f64,
}

/// Latency summary for one index over one query set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Median query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: f64,
    /// Mean full distance evaluations per query.
    pub mean_distance_evals: f64,
}

/// Empirical quantile by nearest-rank on a sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Times `index` over `queries` (row-major, `dim`-wide rows) at top-`k`.
pub fn measure_latency(index: &dyn AnnIndex, queries: &[f32], k: usize) -> LatencySummary {
    let dim = index.dim();
    assert_eq!(queries.len() % dim.max(1), 0, "query buffer is not row-aligned");
    let n_q = queries.len() / dim;
    let mut lat_us: Vec<f64> = Vec::with_capacity(n_q);
    let mut stats = SearchStats::default();
    for q in 0..n_q {
        let query = &queries[q * dim..(q + 1) * dim];
        let t0 = Instant::now();
        let got = index.search_with_stats(query, k, &mut stats);
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(got);
    }
    lat_us.sort_by(|a, b| a.total_cmp(b));
    LatencySummary {
        p50_us: quantile(&lat_us, 0.50),
        p99_us: quantile(&lat_us, 0.99),
        mean_distance_evals: stats.distance_evals as f64 / n_q.max(1) as f64,
    }
}

/// Sweeps `nprobe` over `nprobes`, judging `ivf` against `flat` (the ground
/// truth) on recall@`k`, distance budget, and latency. `queries` is
/// row-major with `flat.dim()`-wide rows.
///
/// Both indexes must cover the same corpus; recall compares *id sets*, so a
/// tie at the k-th distance counts as recalled if the approximate side
/// returned any of the tied ids the exact side chose.
pub fn recall_parity(
    flat: &FlatIndex,
    ivf: &IvfIndex,
    queries: &[f32],
    k: usize,
    nprobes: &[usize],
) -> Vec<ParityPoint> {
    let dim = flat.dim();
    assert_eq!(dim, ivf.dim(), "index dim mismatch");
    assert_eq!(flat.len(), ivf.len(), "corpus size mismatch");
    assert_eq!(queries.len() % dim, 0, "query buffer is not row-aligned");
    let n_q = queries.len() / dim;
    assert!(n_q > 0 && k > 0, "need at least one query and k > 0");

    // Ground truth once per query.
    let truth: Vec<Vec<u64>> = (0..n_q)
        .map(|q| {
            flat.search(&queries[q * dim..(q + 1) * dim], k).iter().map(|n| n.id).collect()
        })
        .collect();

    let corpus = flat.len() as f64;
    let mut curve = Vec::with_capacity(nprobes.len());
    for &nprobe in nprobes {
        let mut hit = 0usize;
        let mut want = 0usize;
        let mut stats = SearchStats::default();
        let mut lat_us: Vec<f64> = Vec::with_capacity(n_q);
        for q in 0..n_q {
            let query = &queries[q * dim..(q + 1) * dim];
            let t0 = Instant::now();
            let approx = ivf.search_nprobe(query, k, nprobe, &mut stats);
            lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let got: Vec<u64> = approx.iter().map(|n| n.id).collect();
            want += truth[q].len();
            hit += truth[q].iter().filter(|id| got.contains(id)).count();
        }
        lat_us.sort_by(|a, b| a.total_cmp(b));
        let mean_distance_evals = stats.distance_evals as f64 / n_q as f64;
        curve.push(ParityPoint {
            nprobe,
            recall_at_k: hit as f64 / want.max(1) as f64,
            mean_distance_evals,
            distance_frac: mean_distance_evals / corpus,
            mean_code_evals: stats.code_evals as f64 / n_q as f64,
            p50_us: quantile(&lat_us, 0.50),
            p99_us: quantile(&lat_us, 0.99),
        });
    }
    curve
}

/// Deterministic Gaussian-mixture corpus: `n` points of `dim` floats around
/// `n_clusters` uniformly placed centers, with non-contiguous ids
/// (`10 + 3·i`) so an id/row-index confusion anywhere in an index breaks
/// loudly. Pure integer + IEEE float arithmetic — no libm — so the bytes
/// are identical on every platform, which lets fixtures be committed and
/// regenerated in tests.
pub fn synth_clustered(n: usize, dim: usize, n_clusters: usize, seed: u64) -> (Vec<u64>, Vec<f32>) {
    assert!(dim > 0 && n_clusters > 0);
    let mut rng = seed ^ 0xF1D0_5EED;
    let unit = |rng: &mut u64| (splitmix64(rng) >> 40) as f32 / (1u64 << 24) as f32; // [0,1)
    let centers: Vec<f32> =
        (0..n_clusters * dim).map(|_| unit(&mut rng) * 16.0 - 8.0).collect();
    let mut ids = Vec::with_capacity(n);
    let mut data = Vec::with_capacity(n * dim);
    for i in 0..n {
        ids.push(10 + 3 * i as u64);
        let c = (splitmix64(&mut rng) % n_clusters as u64) as usize;
        for d in 0..dim {
            // Irwin–Hall(4) centered: approx N(0, 1/3) from pure adds.
            let g = unit(&mut rng) + unit(&mut rng) + unit(&mut rng) + unit(&mut rng) - 2.0;
            data.push(centers[c * dim + d] + 0.8 * g);
        }
    }
    (ids, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IvfConfig;

    #[test]
    fn synth_is_deterministic_and_shaped() {
        let (ids_a, data_a) = synth_clustered(100, 4, 3, 9);
        let (ids_b, data_b) = synth_clustered(100, 4, 3, 9);
        assert_eq!(ids_a, ids_b);
        assert_eq!(data_a.len(), 400);
        assert_eq!(data_a, data_b);
        let (_, data_c) = synth_clustered(100, 4, 3, 10);
        assert_ne!(data_a, data_c, "different seed, same corpus");
        assert!(ids_a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn full_probe_reaches_recall_one() {
        let (ids, data) = synth_clustered(400, 8, 8, 21);
        let flat = FlatIndex::build(8, &ids, &data).expect("flat");
        let ivf = IvfIndex::build(
            8,
            &ids,
            &data,
            IvfConfig { nlist: 16, rerank: 400, ..IvfConfig::default() },
        )
        .expect("ivf");
        let queries = &data[..40 * 8];
        let curve = recall_parity(&flat, &ivf, queries, 10, &[16]);
        assert_eq!(curve.len(), 1);
        assert_eq!(curve[0].recall_at_k, 1.0, "{curve:?}");
    }

    #[test]
    fn recall_is_monotone_in_nprobe_on_average() {
        let (ids, data) = synth_clustered(600, 8, 12, 4);
        let flat = FlatIndex::build(8, &ids, &data).expect("flat");
        let ivf = IvfIndex::build(
            8,
            &ids,
            &data,
            IvfConfig { nlist: 24, rerank: 64, ..IvfConfig::default() },
        )
        .expect("ivf");
        let queries = &data[..50 * 8];
        let curve = recall_parity(&flat, &ivf, queries, 10, &[1, 24]);
        assert!(
            curve[1].recall_at_k >= curve[0].recall_at_k,
            "probing all lists recalled less than probing one: {curve:?}"
        );
        assert!(curve[1].mean_distance_evals >= curve[0].mean_distance_evals);
        assert!(curve[0].distance_frac < 1.0);
    }

    #[test]
    fn quantiles_are_sane() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&xs, 0.50), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
    }

    #[test]
    fn measure_latency_counts_flat_scans() {
        let (ids, data) = synth_clustered(50, 4, 2, 8);
        let flat = FlatIndex::build(4, &ids, &data).expect("flat");
        let s = measure_latency(&flat, &data[..10 * 4], 5);
        assert_eq!(s.mean_distance_evals, 50.0);
        assert!(s.p99_us >= s.p50_us);
    }
}
