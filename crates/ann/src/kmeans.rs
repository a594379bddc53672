//! Seeded, bit-deterministic Lloyd k-means.
//!
//! This is the training core of both quantizers in [`crate::IvfIndex`]: the
//! coarse quantizer clusters full vectors, the product quantizer clusters
//! residual sub-vectors. Everything about it is pinned:
//!
//! * **Seeding** — a splitmix64 stream drives k-means++ initialization, so
//!   the same `(data, k, seed)` always picks the same starting centroids.
//! * **Assignment** — pool-parallel but output-disjoint: each point's
//!   nearest centroid is a pure function of that point and the centroids
//!   (scalar math, ties to the lowest centroid index), so the shard layout —
//!   and therefore the worker-thread count — cannot change a single bit.
//! * **Update** — serial accumulation in point order, division in centroid
//!   order; empty clusters are repaired deterministically by stealing the
//!   point farthest from its centroid (lowest index on ties).
//!
//! The result: `IvfIndex` builds are byte-identical at `--threads 1/2/4`
//! and under `FVAE_SIMD=0`, which the determinism suite asserts.

/// Splitmix64 step: the workspace-standard cheap deterministic stream.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A trained quantizer: `k` centroids of `dim` floats plus the final
/// assignment of every training point.
#[derive(Clone, Debug, PartialEq)]
pub struct Kmeans {
    /// Centroid count (may be below the requested `k` when `n < k`).
    pub k: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Row-major centroids, `k * dim` floats.
    pub centroids: Vec<f32>,
    /// Nearest-centroid index per training point.
    pub assignments: Vec<u32>,
}

/// Runs seeded Lloyd k-means over `n` row-major points.
///
/// `k` is clamped to `n`. Panics if `dim == 0` or `data.len() != n * dim`.
pub fn kmeans(data: &[f32], n: usize, dim: usize, k: usize, iters: usize, seed: u64) -> Kmeans {
    assert!(dim > 0, "kmeans: dim must be positive");
    assert_eq!(data.len(), n * dim, "kmeans: data length mismatch");
    let k = k.clamp(1, n.max(1));
    if n == 0 {
        return Kmeans { k: 0, dim, centroids: Vec::new(), assignments: Vec::new() };
    }
    let mut centroids = init_plus_plus(data, n, dim, k, seed);
    let mut assignments = vec![0u32; n];
    for _ in 0..iters.max(1) {
        assign(data, n, dim, &centroids, &mut assignments);
        update(data, n, dim, k, &assignments, &mut centroids);
    }
    // Final assignment against the last update, so callers see a consistent
    // (centroids, assignments) pair.
    assign(data, n, dim, &centroids, &mut assignments);
    Kmeans { k, dim, centroids, assignments }
}

/// k-means++ seeding: first centroid sampled uniformly, each next centroid
/// sampled proportional to squared distance from the chosen set. Runs
/// serially — initialization is O(n·k·dim) and happens once per build.
fn init_plus_plus(data: &[f32], n: usize, dim: usize, k: usize, seed: u64) -> Vec<f32> {
    let mut rng = seed;
    let mut centroids = Vec::with_capacity(k * dim);
    let first = (splitmix64(&mut rng) % n as u64) as usize;
    centroids.extend_from_slice(&data[first * dim..(first + 1) * dim]);
    // Squared distance from each point to its nearest chosen centroid.
    let mut d2: Vec<f32> = (0..n)
        .map(|i| {
            fvae_tensor::ops::squared_distance(&data[i * dim..(i + 1) * dim], &centroids[..dim])
        })
        .collect();
    while centroids.len() < k * dim {
        let total: f64 = d2.iter().map(|&d| d as f64).sum();
        let next = if total > 0.0 {
            // Draw u ∈ [0, total) from 53 uniform bits; walk the prefix sum.
            let u = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64 * total;
            let mut acc = 0.0f64;
            let mut chosen = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                acc += d as f64;
                if u < acc {
                    chosen = i;
                    break;
                }
            }
            chosen
        } else {
            // All points coincide with chosen centroids; any point works.
            (splitmix64(&mut rng) % n as u64) as usize
        };
        let row = &data[next * dim..(next + 1) * dim];
        centroids.extend_from_slice(row);
        let c = &centroids[centroids.len() - dim..];
        for (i, d) in d2.iter_mut().enumerate() {
            let nd = fvae_tensor::ops::squared_distance(&data[i * dim..(i + 1) * dim], c);
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

/// Nearest centroid per point, ties to the lowest centroid index.
/// Pool-parallel with one disjoint output slot per point: bit-identical at
/// any thread count because no float crosses a shard boundary.
fn assign(data: &[f32], n: usize, dim: usize, centroids: &[f32], assignments: &mut [u32]) {
    let k = centroids.len() / dim;
    fvae_pool::global().run_rows(assignments, n, 1, 1, |range, out| {
        for (i, slot) in range.zip(out) {
            let point = &data[i * dim..(i + 1) * dim];
            let mut best = 0u32;
            let mut best_d = f32::INFINITY;
            for c in 0..k {
                let d =
                    fvae_tensor::ops::squared_distance(point, &centroids[c * dim..(c + 1) * dim]);
                // Strict `<` keeps the lowest index on ties.
                if d < best_d {
                    best_d = d;
                    best = c as u32;
                }
            }
            *slot = best;
        }
    });
}

/// Recomputes centroids as assignment means: serial accumulation in point
/// order, so the float summation order is fixed. Empty clusters steal the
/// globally farthest-from-its-centroid point (lowest index on ties).
fn update(data: &[f32], n: usize, dim: usize, k: usize, assignments: &[u32], centroids: &mut [f32]) {
    let mut counts = vec![0u32; k];
    centroids.fill(0.0);
    for i in 0..n {
        let c = assignments[i] as usize;
        counts[c] += 1;
        fvae_tensor::ops::axpy(1.0, &data[i * dim..(i + 1) * dim], &mut centroids[c * dim..(c + 1) * dim]);
    }
    for c in 0..k {
        if counts[c] > 0 {
            fvae_tensor::ops::scale(1.0 / counts[c] as f32, &mut centroids[c * dim..(c + 1) * dim]);
        }
    }
    let mut stolen = vec![false; n];
    for c in 0..k {
        if counts[c] > 0 {
            continue;
        }
        // Deterministic repair: move this centroid onto the point that is
        // farthest from its current centroid among clusters that can spare
        // one (count > 1), preferring the lowest point index on ties. Each
        // point can be stolen at most once per repair pass.
        let mut far_i = usize::MAX;
        let mut far_d = -1.0f32;
        for i in 0..n {
            let a = assignments[i] as usize;
            if stolen[i] || counts[a] <= 1 {
                continue;
            }
            let d = fvae_tensor::ops::squared_distance(
                &data[i * dim..(i + 1) * dim],
                &centroids[a * dim..(a + 1) * dim],
            );
            if d > far_d {
                far_d = d;
                far_i = i;
            }
        }
        if far_i != usize::MAX {
            let row = data[far_i * dim..(far_i + 1) * dim].to_vec();
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&row);
            // The donor cluster keeps its mean; the stolen point will fall
            // into the new cluster on the next assignment pass.
            counts[assignments[far_i] as usize] -= 1;
            stolen[far_i] = true;
            counts[c] = 1;
        } else {
            // Every cluster is a singleton or empty (n <= k after clamping
            // this cannot happen, but stay safe): duplicate point 0.
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&data[..dim]);
            counts[c] = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs on a line.
    fn blobs() -> (Vec<f32>, usize) {
        let mut data = Vec::new();
        let mut rng = 7u64;
        for center in [0.0f32, 100.0, 200.0] {
            for _ in 0..50 {
                let jitter = (splitmix64(&mut rng) % 1000) as f32 / 1000.0;
                data.push(center + jitter);
                data.push(center - jitter);
            }
        }
        (data, 150)
    }

    #[test]
    fn recovers_separated_clusters() {
        let (data, n) = blobs();
        let km = kmeans(&data, n, 2, 3, 10, 42);
        assert_eq!(km.k, 3);
        // Each blob of 50 points must land in one cluster.
        for blob in 0..3 {
            let a = km.assignments[blob * 50];
            for i in 0..50 {
                assert_eq!(km.assignments[blob * 50 + i], a, "blob {blob} split");
            }
        }
        // Centroid x-coordinates must approximate the blob centers.
        let mut xs: Vec<f32> = (0..3).map(|c| km.centroids[c * 2]).collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        for (x, want) in xs.iter().zip([0.0f32, 100.0, 200.0]) {
            assert!((x - want).abs() < 2.0, "centroid at {x}, wanted ~{want}");
        }
    }

    #[test]
    fn same_seed_same_bits_across_thread_counts() {
        let (data, n) = blobs();
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4] {
            fvae_pool::set_parallelism(threads);
            runs.push(kmeans(&data, n, 2, 5, 8, 9));
        }
        fvae_pool::set_parallelism(1);
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn different_seeds_may_differ_but_are_valid() {
        let (data, n) = blobs();
        for seed in 0..4u64 {
            let km = kmeans(&data, n, 2, 4, 5, seed);
            assert_eq!(km.centroids.len(), 4 * 2);
            assert_eq!(km.assignments.len(), n);
            assert!(km.assignments.iter().all(|&a| (a as usize) < 4));
        }
    }

    #[test]
    fn k_clamped_to_n() {
        let km = kmeans(&[1.0, 2.0, 3.0], 3, 1, 10, 4, 0);
        assert_eq!(km.k, 3);
        // No cluster may stay empty after repair + reassignment.
        let mut seen = [false; 3];
        for &a in &km.assignments {
            seen[a as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "empty cluster survived: {:?}", km.assignments);
    }

    #[test]
    fn degenerate_identical_points() {
        let data = vec![5.0f32; 8];
        let km = kmeans(&data, 8, 1, 3, 4, 1);
        assert_eq!(km.k, 3);
        for c in 0..3 {
            assert_eq!(km.centroids[c], 5.0);
        }
    }
}
