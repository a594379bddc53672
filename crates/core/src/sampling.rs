//! Feature-sampling strategies (§IV-C3 and §V-D1).
//!
//! After the batched softmax restricts a field's candidate set to the
//! features observed by at least one user in the batch, super-sparse fields
//! are thinned again: keep `⌈r·n⌉` of the `n` batch-unique features. The
//! paper compares three distributions for this draw (Fig. 5) and finds the
//! *uniform* one best — frequency-proportional draws bias training toward
//! head features, starving the tail that power-law data already
//! under-represents.

use rand::{Rng, RngExt};

/// Distribution used to choose which batch-unique features to keep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Every batch-unique feature is equally likely (the paper's proposal).
    Uniform,
    /// Features kept with probability proportional to their frequency in the
    /// current batch.
    Frequency,
    /// Features ranked by decreasing batch frequency and kept with
    /// approximately Zipfian rank probabilities (the log-uniform sampler of
    /// \[16\]).
    Zipfian,
}

impl SamplingStrategy {
    /// All strategies, for sweep drivers.
    pub fn all() -> [SamplingStrategy; 3] {
        [SamplingStrategy::Uniform, SamplingStrategy::Frequency, SamplingStrategy::Zipfian]
    }

    /// Human-readable name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            SamplingStrategy::Uniform => "Uniform",
            SamplingStrategy::Frequency => "Frequency",
            SamplingStrategy::Zipfian => "Zipfian",
        }
    }
}

/// Samples from the batch-unique set at the given rate. `batch_freqs[i]` is
/// the in-batch frequency of `features[i]` (used by the Frequency and
/// Zipfian strategies). `rate = 1` returns the input unchanged; the result
/// preserves no particular order.
///
/// Uniform draws exactly `⌈rate·n⌉` distinct features (the paper's
/// proposal). Frequency/Zipfian make `⌈rate·n⌉` draws *with replacement*
/// from their weighted distributions and deduplicate, as the samplers of
/// \[16\] do — so their distinct output can be smaller when the weights are
/// skewed.
///
/// Thin allocating wrapper over [`sample_candidates_into`].
pub fn sample_candidates(
    features: &[u32],
    batch_freqs: &[f32],
    rate: f64,
    strategy: SamplingStrategy,
    rng: &mut impl Rng,
) -> Vec<u32> {
    let mut out = Vec::new();
    sample_candidates_into(features, batch_freqs, rate, strategy, rng, &mut out);
    out
}

/// [`sample_candidates`] writing the sample into a caller-owned buffer
/// (cleared first), with the same RNG draws. Under the Uniform strategy —
/// the training default — a buffer with capacity for `features` makes the
/// call allocation-free; the weighted strategies still build their alias
/// table per call.
pub fn sample_candidates_into(
    features: &[u32],
    batch_freqs: &[f32],
    rate: f64,
    strategy: SamplingStrategy,
    rng: &mut impl Rng,
    out: &mut Vec<u32>,
) {
    assert_eq!(features.len(), batch_freqs.len(), "parallel slices required");
    assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
    let n = features.len();
    out.clear();
    if rate >= 1.0 || n <= 1 {
        out.extend_from_slice(features);
        return;
    }
    let keep = ((rate * n as f64).ceil() as usize).clamp(1, n);

    match strategy {
        SamplingStrategy::Uniform => {
            // Partial Fisher–Yates: the first `keep` positions of a uniform
            // shuffle are a uniform sample without replacement.
            out.extend_from_slice(features);
            for i in 0..keep {
                let j = rng.random_range(i..n);
                out.swap(i, j);
            }
            out.truncate(keep);
        }
        SamplingStrategy::Frequency => {
            weighted_with_replacement_dedup(features, batch_freqs, keep, rng, out)
        }
        SamplingStrategy::Zipfian => {
            // Rank by decreasing batch frequency, then weight rank `r` with
            // the log-uniform mass log((r+2)/(r+1)) ∝ approximately 1/(r+1).
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by(|&a, &b| {
                batch_freqs[b]
                    .partial_cmp(&batch_freqs[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let ranked: Vec<u32> = order.iter().map(|&i| features[i]).collect();
            let weights: Vec<f32> = (0..n)
                .map(|r| (((r + 2) as f32) / ((r + 1) as f32)).ln())
                .collect();
            weighted_with_replacement_dedup(&ranked, &weights, keep, rng, out)
        }
    }
}

/// Weighted sampling the way the candidate samplers of [16] (TensorFlow's
/// `fixed_unigram`/`log_uniform` samplers) do it: `k` draws **with
/// replacement** from the weighted distribution, then deduplication. With
/// skewed weights many draws collide on head items, so the distinct
/// candidate set shrinks below `k` and tail items are starved — precisely
/// the failure mode of Frequency/Zipfian sampling that the paper's uniform
/// strategy avoids (§V-D1).
fn weighted_with_replacement_dedup(
    items: &[u32],
    weights: &[f32],
    k: usize,
    rng: &mut impl Rng,
    out: &mut Vec<u32>,
) {
    let table = fvae_tensor::dist::AliasTable::new(weights);
    let mut seen = fvae_sparse::FastHashSet::default();
    for _ in 0..k {
        let item = items[table.sample(rng)];
        if seen.insert(item) {
            out.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn features(n: usize) -> (Vec<u32>, Vec<f32>) {
        let f: Vec<u32> = (0..n as u32).collect();
        // Heavy-tailed batch frequencies: feature i has frequency n − i.
        let w: Vec<f32> = (0..n).map(|i| (n - i) as f32).collect();
        (f, w)
    }

    #[test]
    fn rate_one_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let (f, w) = features(20);
        for s in SamplingStrategy::all() {
            assert_eq!(sample_candidates(&f, &w, 1.0, s, &mut rng), f);
        }
    }

    #[test]
    fn sample_size_is_ceil_of_rate_times_n() {
        let mut rng = StdRng::seed_from_u64(2);
        let (f, w) = features(10);
        // Uniform: exact ⌈r·n⌉. Frequency/Zipfian: with-replacement draws
        // deduplicate, so the distinct output is in [1, ⌈r·n⌉].
        assert_eq!(
            sample_candidates(&f, &w, 0.25, SamplingStrategy::Uniform, &mut rng).len(),
            3
        );
        assert_eq!(
            sample_candidates(&f, &w, 0.05, SamplingStrategy::Uniform, &mut rng).len(),
            1
        );
        for s in [SamplingStrategy::Frequency, SamplingStrategy::Zipfian] {
            let n = sample_candidates(&f, &w, 0.25, s, &mut rng).len();
            assert!((1..=3).contains(&n), "{s:?} size {n}");
        }
    }

    #[test]
    fn skewed_weights_shrink_weighted_samples() {
        // One overwhelming head item: most with-replacement draws collide on
        // it, so Frequency yields far fewer distinct candidates than Uniform.
        let mut rng = StdRng::seed_from_u64(17);
        let f: Vec<u32> = (0..100).collect();
        let mut w = vec![0.01f32; 100];
        w[0] = 1000.0;
        let mut freq_total = 0usize;
        let mut uni_total = 0usize;
        for _ in 0..200 {
            freq_total +=
                sample_candidates(&f, &w, 0.5, SamplingStrategy::Frequency, &mut rng).len();
            uni_total +=
                sample_candidates(&f, &w, 0.5, SamplingStrategy::Uniform, &mut rng).len();
        }
        assert!(
            freq_total * 2 < uni_total,
            "head-collapsed frequency sampling: {freq_total} vs uniform {uni_total}"
        );
    }

    #[test]
    fn samples_are_distinct_subsets() {
        let mut rng = StdRng::seed_from_u64(3);
        let (f, w) = features(50);
        for s in SamplingStrategy::all() {
            for _ in 0..20 {
                let sample = sample_candidates(&f, &w, 0.3, s, &mut rng);
                let set: std::collections::HashSet<u32> = sample.iter().copied().collect();
                assert_eq!(set.len(), sample.len(), "{s:?} produced duplicates");
                assert!(sample.iter().all(|x| (*x as usize) < 50));
            }
        }
    }

    #[test]
    fn uniform_is_unbiased_across_features() {
        let mut rng = StdRng::seed_from_u64(4);
        let (f, w) = features(10);
        let mut counts = [0usize; 10];
        let trials = 20_000;
        for _ in 0..trials {
            for x in sample_candidates(&f, &w, 0.3, SamplingStrategy::Uniform, &mut rng) {
                counts[x as usize] += 1;
            }
        }
        let expected = trials as f64 * 0.3;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 0.05 * expected,
                "feature {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn frequency_prefers_frequent_features() {
        let mut rng = StdRng::seed_from_u64(5);
        let (f, w) = features(20);
        let mut head = 0usize;
        let mut tail = 0usize;
        for _ in 0..2_000 {
            for x in sample_candidates(&f, &w, 0.2, SamplingStrategy::Frequency, &mut rng) {
                if (x as usize) < 5 {
                    head += 1;
                } else if (x as usize) >= 15 {
                    tail += 1;
                }
            }
        }
        assert!(head > 2 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn zipfian_prefers_high_frequency_ranks() {
        let mut rng = StdRng::seed_from_u64(6);
        // Frequencies are decreasing in the feature id, so rank == id.
        let (f, w) = features(20);
        let mut first = 0usize;
        let mut last = 0usize;
        for _ in 0..2_000 {
            for x in sample_candidates(&f, &w, 0.2, SamplingStrategy::Zipfian, &mut rng) {
                if x == 0 {
                    first += 1;
                }
                if x == 19 {
                    last += 1;
                }
            }
        }
        assert!(first > 2 * last, "rank0 {first} vs rank19 {last}");
    }

    #[test]
    fn singleton_input_is_returned_whole() {
        let mut rng = StdRng::seed_from_u64(7);
        let out = sample_candidates(&[42], &[1.0], 0.01, SamplingStrategy::Uniform, &mut rng);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn into_reuses_a_sufficient_buffer_and_draws_the_same_sample() {
        let (f, w) = features(200);
        for s in SamplingStrategy::all() {
            let mut out: Vec<u32> = Vec::with_capacity(f.len());
            out.push(7); // stale content must be discarded
            let (ptr, cap) = (out.as_ptr(), out.capacity());
            for seed in 0..5 {
                let expect = sample_candidates(&f, &w, 0.1, s, &mut StdRng::seed_from_u64(seed));
                sample_candidates_into(&f, &w, 0.1, s, &mut StdRng::seed_from_u64(seed), &mut out);
                assert_eq!(out, expect, "{s:?} seed {seed}");
                assert_eq!((out.as_ptr(), out.capacity()), (ptr, cap), "{s:?} reallocated the buffer");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arb_input() -> impl Strategy<Value = (Vec<u32>, Vec<f32>)> {
        proptest::collection::vec((0u32..10_000, 0.1f32..50.0), 1..200).prop_map(|pairs| {
            let mut seen = std::collections::HashSet::new();
            let mut f = Vec::new();
            let mut w = Vec::new();
            for (feat, weight) in pairs {
                if seen.insert(feat) {
                    f.push(feat);
                    w.push(weight);
                }
            }
            (f, w)
        })
    }

    proptest! {
        /// For every strategy, rate, and input: the output is a non-empty,
        /// duplicate-free subset; Uniform hits exactly ⌈r·n⌉, the weighted
        /// samplers at most that (with-replacement dedup).
        #[test]
        fn sample_is_exact_size_subset(
            (features, freqs) in arb_input(),
            rate in 0.01f64..1.0,
            strategy_idx in 0usize..3,
            seed in any::<u64>(),
        ) {
            let strategy = SamplingStrategy::all()[strategy_idx];
            let mut rng = StdRng::seed_from_u64(seed);
            let sample = sample_candidates(&features, &freqs, rate, strategy, &mut rng);
            let cap = if features.len() <= 1 {
                features.len()
            } else {
                ((rate * features.len() as f64).ceil() as usize).clamp(1, features.len())
            };
            if strategy == SamplingStrategy::Uniform {
                prop_assert_eq!(sample.len(), cap);
            } else {
                prop_assert!(!sample.is_empty() && sample.len() <= cap);
            }
            let input: std::collections::HashSet<u32> = features.iter().copied().collect();
            let output: std::collections::HashSet<u32> = sample.iter().copied().collect();
            prop_assert_eq!(output.len(), sample.len(), "duplicates in sample");
            prop_assert!(output.is_subset(&input));
        }
    }
}
