//! Raw-sample statistics.
//!
//! Latencies are kept as raw `u64` samples and summarised exactly: the
//! median, and the highest percentile that still has at least ten samples
//! beyond it. `fvae_obs::Histogram` is deliberately not used here — its
//! log-linear buckets round a 703 µs and a 767 µs latency into the same
//! bucket edge, which is too coarse to gate a 5 % regression on.

/// Percentiles a tail may be reported at, in ascending order.
const TAIL_CANDIDATES: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A bag of raw samples (nanoseconds, microseconds, counts — the caller's
/// unit) with exact order statistics.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// A bag holding `values`.
    pub fn from_values(values: Vec<u64>) -> Self {
        Self {
            values,
            sorted: false,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Moves every sample of `other` into this bag.
    pub fn absorb(&mut self, other: Samples) {
        self.values.extend(other.values);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// The nearest-rank `p`-quantile (`0 < p <= 1`): the smallest sample
    /// with at least `p·n` samples at or below it. `0` when empty.
    pub fn quantile(&mut self, p: f64) -> u64 {
        self.sort();
        nearest_rank(&self.values, p)
    }

    /// The exact median (nearest rank).
    pub fn median(&mut self) -> u64 {
        self.quantile(0.5)
    }

    /// Largest sample, `0` when empty.
    pub fn max(&mut self) -> u64 {
        self.sort();
        self.values.last().copied().unwrap_or(0)
    }

    /// How many samples lie strictly beyond the `p`-quantile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.values.len();
        n - rank(n, p).min(n)
    }

    /// The highest candidate percentile with at least [`MIN_BEYOND`]
    /// samples beyond it, as `(p, value)`; `None` when even the median has
    /// fewer than that.
    pub fn tail(&mut self) -> Option<(f64, u64)> {
        let p = TAIL_CANDIDATES
            .iter()
            .rev()
            .copied()
            .find(|&p| self.beyond(p) >= MIN_BEYOND)?;
        Some((p, self.quantile(p)))
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.values.iter().sum()
    }
}

/// The `p`-quantile of a run of samples given in the order they were taken,
/// made robust to bursts of interference: the run is cut into consecutive
/// segments of at least [`MIN_SEGMENT`] samples (at most [`MAX_SEGMENTS`]),
/// each segment's exact nearest-rank quantile is taken, and the median of
/// those is returned. A neighbour on the box that slows one second of the run
/// moves one segment's tail, not the result. With fewer than two segments'
/// worth of samples this is the plain quantile.
pub fn segmented_quantile(in_order: &[u64], p: f64) -> f64 {
    let segments = (in_order.len() / MIN_SEGMENT).clamp(1, MAX_SEGMENTS);
    let per = in_order.len().div_ceil(segments).max(1);
    let quantiles: Vec<f64> = in_order
        .chunks(per)
        .map(|chunk| {
            let mut sorted = chunk.to_vec();
            sorted.sort_unstable();
            nearest_rank(&sorted, p) as f64
        })
        .collect();
    median_f64(&quantiles)
}

/// Fewest samples a segment of [`segmented_quantile`] holds.
pub const MIN_SEGMENT: usize = 300;
/// Most segments [`segmented_quantile`] cuts a run into.
pub const MAX_SEGMENTS: usize = 8;

/// One-based nearest rank of the `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of floats (mean of the two middle values for an even count);
/// `0.0` when empty. Used for per-slice throughputs and repeated set-ups.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the values Python's
/// `statistics.quantiles(values, n=4)` returns as its first and last cut
/// point. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Position i·(n+1)/4 on a one-based axis, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let mut s = bag((1..=100).rev());
        assert_eq!(s.median(), 50);
        assert_eq!(s.quantile(0.95), 95);
        assert_eq!(s.quantile(0.99), 99);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.max(), 100);
        assert_eq!(s.count(), 100);
        let mut odd = bag([7, 1, 3]);
        assert_eq!(odd.median(), 3);
        assert_eq!(Samples::default().median(), 0);
    }

    #[test]
    fn distinct_latencies_are_not_bucketed_together() {
        // The two values a log-linear histogram reports as one edge.
        let mut s = bag(std::iter::repeat_n(703, 60).chain(std::iter::repeat_n(767, 40)));
        assert_eq!(s.median(), 703);
        assert_eq!(s.quantile(0.9), 767);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: p90 has exactly 10 beyond, p95 only 5.
        let mut s = bag(1..=100);
        assert_eq!(s.beyond(0.90), 10);
        assert_eq!(s.beyond(0.95), 5);
        assert_eq!(s.tail(), Some((0.90, 90)));
        // 1000 samples reach p99; 10_000 reach p99.9.
        assert_eq!(bag(1..=1000).tail(), Some((0.99, 990)));
        assert_eq!(bag(1..=10_000).tail(), Some((0.999, 9990)));
        // 19 samples: even the median has only 9 beyond.
        assert_eq!(bag(1..=19).tail(), None);
        assert_eq!(bag(1..=20).tail(), Some((0.50, 10)));
    }

    #[test]
    fn segmented_quantile_ignores_one_bad_stretch() {
        // 2400 samples of 100 with one stretch of 300 at 10_000: the plain
        // p90 lands in the stretch, the segmented one does not.
        let mut v = vec![100u64; 2400];
        v[600..900].fill(10_000);
        assert_eq!(Samples::from_values(v.clone()).quantile(0.9), 10_000);
        assert_eq!(segmented_quantile(&v, 0.9), 100.0);
        // Too few samples for two segments: the plain quantile.
        let few: Vec<u64> = (1..=100).collect();
        assert_eq!(segmented_quantile(&few, 0.9), 90.0);
        assert_eq!(segmented_quantile(&[], 0.9), 0.0);
        // Never more than eight segments.
        let many: Vec<u64> = (0..80_000).map(|i| i % 10).collect();
        assert_eq!(segmented_quantile(&many, 0.5), 4.0);
    }

    #[test]
    fn absorb_merges_and_resorts() {
        let mut a = bag([5, 1]);
        assert_eq!(a.median(), 1);
        a.absorb(bag([9, 7, 3]));
        assert_eq!(a.count(), 5);
        assert_eq!(a.median(), 5);
        assert_eq!(a.sum(), 25);
    }

    #[test]
    fn float_median_and_python_quartiles() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).expect("ten values");
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).expect("two values");
        assert!(
            (q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        assert_eq!(quartiles(&[1.0]), None);
    }
}
