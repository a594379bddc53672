//! Cross-crate equivalence tests for the paper's efficiency mechanisms:
//! each fast path must compute exactly what the naive path computes.

use fvae_repro::baselines::input::{densify, ConcatLayout};
use fvae_repro::data::{FieldSpec, TopicModelConfig};
use fvae_repro::nn::EmbeddingBag;
use fvae_repro::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> fvae_repro::data::MultiFieldDataset {
    TopicModelConfig {
        n_users: 60,
        n_topics: 3,
        alpha: 0.2,
        fields: vec![
            FieldSpec::new("ch1", 10, 3, 1.0),
            FieldSpec::new("tag", 30, 5, 1.0),
        ],
        pair_prob: 0.0,
        seed: 7,
    }
    .generate()
}

/// §IV-C1: the embedding-bag output must equal the dense product of the
/// multi-hot input with the (gathered) weight matrix — "equivalent to the
/// original output of the first layer".
#[test]
fn embedding_bag_equals_dense_first_layer() {
    let ds = dataset();
    let layout = ConcatLayout::of(&ds);
    let dim = 8;
    let mut bag = EmbeddingBag::new(dim, 0.2);
    let mut rng = StdRng::seed_from_u64(1);

    let users: Vec<usize> = (0..20).collect();
    // Sparse rows in the concatenated ID space (normalized like the encoder
    // input).
    let rows_data: Vec<(Vec<u64>, Vec<f32>)> = users
        .iter()
        .map(|&u| {
            let (ids, vals) =
                fvae_repro::baselines::input::concat_row(&ds, &layout, u, None);
            (ids.iter().map(|&i| i as u64).collect(), vals)
        })
        .collect();
    let rows: Vec<(&[u64], &[f32])> = rows_data
        .iter()
        .map(|(i, v)| (i.as_slice(), v.as_slice()))
        .collect();
    let (bag_out, _) = bag.forward_batch(&rows, &mut rng);

    // Gather the bag's weights into a dense J × dim matrix.
    let mut w = Matrix::zeros(layout.total, dim);
    for (id, slot) in bag.table().iter() {
        w.row_mut(id as usize).copy_from_slice(bag.row(slot));
    }
    let x = densify(&ds, &layout, &users, None);
    let dense_out = x.matmul(&w);

    for (a, b) in bag_out.as_slice().iter().zip(dense_out.as_slice()) {
        assert!((a - b).abs() < 1e-4, "bag {a} vs dense {b}");
    }
}

/// §IV-C2: restricting the softmax to candidates then renormalizing over
/// the same candidates must agree with the full softmax restricted to them.
#[test]
fn batched_softmax_is_exact_on_its_candidate_set() {
    use fvae_repro::nn::SampledSoftmaxOutput;
    let mut rng = StdRng::seed_from_u64(2);
    let dim = 8;
    let mut head = SampledSoftmaxOutput::new(dim, 0.3);
    let h = Matrix::gaussian(5, dim, 0.7, &mut rng);
    let all: Vec<u64> = (0..50).collect();
    head.forward(&h, &all, &mut rng); // materialize everything
    let subset: Vec<u64> = vec![3, 11, 19, 42];
    let batch = head.forward(&h, &subset, &mut rng);
    // Reference: softmax over the subset's raw logits.
    let mut logits = head.frozen_logits(&h, subset.iter().copied());
    for r in 0..5 {
        let row = logits.row_mut(r);
        fvae_repro::tensor::ops::softmax_in_place(row);
        for (c, &p) in row.iter().enumerate() {
            assert!((batch.probs.get(r, c) - p).abs() < 1e-5);
        }
    }
}

/// §IV-C3: feature sampling must never invent features and must hit the
/// requested size, for every strategy — across the real batch distribution
/// of a generated dataset, not synthetic toy weights.
#[test]
fn feature_sampling_respects_batch_support() {
    use fvae_repro::core::{sampling::sample_candidates, SamplingStrategy};
    let ds = dataset();
    // Batch-unique tag features with real frequencies.
    let mut freq = std::collections::BTreeMap::new();
    for u in 0..ds.n_users() {
        let (ix, vs) = ds.user_field(u, 1);
        for (&i, &v) in ix.iter().zip(vs.iter()) {
            *freq.entry(i).or_insert(0.0f32) += v;
        }
    }
    let features: Vec<u32> = freq.keys().copied().collect();
    let freqs: Vec<f32> = freq.values().copied().collect();
    let support: std::collections::HashSet<u32> = features.iter().copied().collect();
    let mut rng = StdRng::seed_from_u64(3);
    for strategy in SamplingStrategy::all() {
        for rate in [0.1f64, 0.5] {
            let sample = sample_candidates(&features, &freqs, rate, strategy, &mut rng);
            let cap = ((rate * features.len() as f64).ceil() as usize).max(1);
            if strategy == SamplingStrategy::Uniform {
                // The paper's uniform strategy draws exactly ⌈r·n⌉ distinct
                // features.
                assert_eq!(sample.len(), cap, "{strategy:?} r={rate}");
            } else {
                // [16]-style weighted samplers draw with replacement and
                // deduplicate — head collisions shrink the distinct set.
                assert!(
                    !sample.is_empty() && sample.len() <= cap,
                    "{strategy:?} r={rate}: {}",
                    sample.len()
                );
            }
            assert!(sample.iter().all(|f| support.contains(f)));
        }
    }
}
