//! Ablation benchmarks for the paper's three efficiency mechanisms
//! (DESIGN.md §6): dynamic hash table vs dense first layer, batched softmax
//! vs full softmax, and the feature-sampling rate sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fvae_core::SamplingStrategy;
use fvae_nn::{EmbeddingBag, SampledSoftmaxOutput};
use fvae_sparse::DynamicHashTable;
use fvae_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

/// Sparse batch: 256 rows of 64 random feature IDs out of `vocab`.
fn sparse_batch(vocab: u64, rng: &mut StdRng) -> (Vec<Vec<u64>>, Vec<Vec<f32>>) {
    let ids: Vec<Vec<u64>> = (0..256)
        .map(|_| (0..64).map(|_| rng.random_range(0..vocab)).collect())
        .collect();
    let vals: Vec<Vec<f32>> = ids.iter().map(|row| vec![0.125; row.len()]).collect();
    (ids, vals)
}

fn bench_dynamic_hash_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_hash_table");
    group.bench_function("insert_1k_new_ids", |b| {
        b.iter(|| {
            let mut t = DynamicHashTable::new();
            for id in 0..1000u64 {
                black_box(t.slot_or_insert(id, |_| {}));
            }
            t.len()
        })
    });
    group.bench_function("lookup_1k_hot_ids", |b| {
        let mut t = DynamicHashTable::new();
        for id in 0..1000u64 {
            t.slot_or_insert(id, |_| {});
        }
        b.iter(|| {
            let mut acc = 0usize;
            for id in 0..1000u64 {
                acc += t.slot_of(black_box(id)).expect("present");
            }
            acc
        })
    });
    group.finish();
}

/// The §IV-C1 ablation: the embedding-bag (hash-table) first layer vs the
/// equivalent dense multi-hot × weight-matrix product, at growing vocab J.
fn bench_first_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("first_layer_ablation");
    group.sample_size(10);
    let dim = 128;
    for vocab in [4_096u64, 16_384, 65_536] {
        let mut rng = StdRng::seed_from_u64(1);
        let (ids, vals) = sparse_batch(vocab, &mut rng);
        group.bench_with_input(BenchmarkId::new("embedding_bag", vocab), &vocab, |b, _| {
            let mut bag = EmbeddingBag::new(dim, 0.05);
            let rows: Vec<(&[u64], &[f32])> = ids
                .iter()
                .zip(vals.iter())
                .map(|(i, v)| (i.as_slice(), v.as_slice()))
                .collect();
            let mut rng = StdRng::seed_from_u64(2);
            bag.forward_batch(&rows, &mut rng); // materialize
            let mut out = Matrix::default();
            b.iter(|| {
                bag.forward_batch_frozen_into(&ids, &vals, &mut out);
                black_box(out.as_slice());
            })
        });
        group.bench_with_input(BenchmarkId::new("dense_matmul", vocab), &vocab, |b, _| {
            let mut rng = StdRng::seed_from_u64(3);
            let w = Matrix::gaussian(vocab as usize, dim, 0.05, &mut rng);
            // Densified multi-hot input.
            let mut x = Matrix::zeros(256, vocab as usize);
            for (r, row_ids) in ids.iter().enumerate() {
                for &id in row_ids {
                    x.add_at(r, id as usize, 0.125);
                }
            }
            b.iter(|| black_box(x.matmul(&w)))
        });
    }
    group.finish();
}

/// The §IV-C2 ablation: softmax restricted to batch candidates vs the full
/// field vocabulary.
fn bench_batched_softmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_softmax_ablation");
    group.sample_size(10);
    let dim = 128;
    let mut rng = StdRng::seed_from_u64(4);
    let h = Matrix::gaussian(256, dim, 0.5, &mut rng);
    for vocab in [4_096u64, 32_768] {
        let mut head = SampledSoftmaxOutput::new(dim, 0.05);
        let all_ids: Vec<u64> = (0..vocab).collect();
        head.forward(&h, &all_ids, &mut rng); // materialize all weights
        // Batch-active candidates: ~1.5k unique of the vocabulary.
        let candidates: Vec<u64> = {
            let mut set = std::collections::BTreeSet::new();
            while set.len() < 1_500 {
                set.insert(rng.random_range(0..vocab));
            }
            set.into_iter().collect()
        };
        group.bench_with_input(BenchmarkId::new("batched", vocab), &vocab, |b, _| {
            let mut rng = StdRng::seed_from_u64(5);
            b.iter(|| black_box(head.forward(&h, &candidates, &mut rng)))
        });
        group.bench_with_input(BenchmarkId::new("full_vocab", vocab), &vocab, |b, _| {
            let mut rng = StdRng::seed_from_u64(6);
            b.iter(|| black_box(head.forward(&h, &all_ids, &mut rng)))
        });
    }
    group.finish();
}

/// The §IV-C3 ablation: candidate-sampling cost per strategy and rate.
fn bench_feature_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("feature_sampling");
    let features: Vec<u32> = (0..20_000).collect();
    let freqs: Vec<f32> = (0..20_000).map(|i| 1.0 / (i + 1) as f32).collect();
    for strategy in SamplingStrategy::all() {
        for rate in [0.05f64, 0.2] {
            let label = format!("{}_r{rate}", strategy.name());
            group.bench_function(&label, |b| {
                let mut rng = StdRng::seed_from_u64(7);
                b.iter(|| {
                    black_box(fvae_core::sampling::sample_candidates(
                        &features, &freqs, rate, strategy, &mut rng,
                    ))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dynamic_hash_table,
    bench_first_layer,
    bench_batched_softmax,
    bench_feature_sampling
);
criterion_main!(benches);
