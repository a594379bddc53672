//! Job2Vec-style multi-view representation learning (Zhang et al. \[57\]).
//!
//! The original Job2Vec benchmarks job titles by fusing several *views*
//! (title text, graph context, …). The FVAE paper uses it "for reference
//! with our proposed multi-field user profiles", i.e. as the multi-view
//! point of comparison. The faithful part of this adaptation is the
//! structure: one embedding table per field (view), per-view average
//! pooling, fusion by mean, and a *cross-view* prediction objective — the
//! fused embedding built from the other fields must score a user's observed
//! features above sampled negatives (SGNS loss). The simplification vs. the
//! original is the fusion operator (mean instead of the paper's deep fusion
//! net), which at this scale does not change its relative standing.

use fvae_data::MultiFieldDataset;
use fvae_tensor::dist::AliasTable;
use fvae_tensor::ops::{dot, sigmoid};
use fvae_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::input::ConcatLayout;
use crate::RepresentationModel;

/// Multi-view (per-field) representation model.
pub struct Job2Vec {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Negative samples per positive.
    pub negatives: usize,
    /// SGD learning rate.
    pub lr: f32,
    seed: u64,
    layout: Option<ConcatLayout>,
    /// Per-field view tables, `J_k × dim`.
    views: Vec<Matrix>,
    /// Output table over the concatenated space.
    out_vecs: Option<Matrix>,
}

impl Job2Vec {
    /// Creates a Job2Vec model.
    pub fn new(dim: usize, seed: u64) -> Self {
        Self {
            dim,
            epochs: 3,
            negatives: 5,
            lr: 0.05,
            seed,
            layout: None,
            views: Vec::new(),
            out_vecs: None,
        }
    }

    /// Per-view average-pooled embedding of one user; `None` for an empty view.
    fn view_vector(&self, ds: &MultiFieldDataset, user: usize, field: usize) -> Option<Vec<f32>> {
        let (ix, _) = ds.user_field(user, field);
        if ix.is_empty() {
            return None;
        }
        let table = &self.views[field];
        let mut v = vec![0.0f32; self.dim];
        for &i in ix {
            fvae_tensor::ops::axpy(1.0, table.row(i as usize), &mut v);
        }
        fvae_tensor::ops::scale(1.0 / ix.len() as f32, &mut v);
        Some(v)
    }

    /// Fused embedding = mean of the available views among `fields`.
    fn fused(&self, ds: &MultiFieldDataset, user: usize, fields: &[usize]) -> Vec<f32> {
        let mut fused = vec![0.0f32; self.dim];
        let mut n = 0usize;
        for &k in fields {
            if let Some(v) = self.view_vector(ds, user, k) {
                fvae_tensor::ops::axpy(1.0, &v, &mut fused);
                n += 1;
            }
        }
        if n > 0 {
            fvae_tensor::ops::scale(1.0 / n as f32, &mut fused);
        }
        fused
    }
}

impl RepresentationModel for Job2Vec {
    fn name(&self) -> &'static str {
        "Job2Vec"
    }

    fn fit(&mut self, ds: &MultiFieldDataset, users: &[usize]) {
        let layout = ConcatLayout::of(ds);
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.views = (0..ds.n_fields())
            .map(|k| {
                Matrix::from_fn(ds.field_vocab(k), self.dim, |_, _| {
                    rng.random_range(-0.5..0.5) / self.dim as f32
                })
            })
            .collect();
        let mut out_vecs = Matrix::from_fn(layout.total, self.dim, |_, _| {
            rng.random_range(-0.5..0.5) / self.dim as f32
        });

        // Per-field unigram^0.75 negative tables.
        let neg_tables: Vec<AliasTable> = (0..ds.n_fields())
            .map(|k| {
                let mut freq = ds.field(k).column_frequencies();
                freq.iter_mut().for_each(|f| *f = (*f).powf(0.75).max(1e-6));
                AliasTable::new(&freq)
            })
            .collect();

        let all_fields: Vec<usize> = (0..ds.n_fields()).collect();
        for _ in 0..self.epochs {
            for &u in users {
                for (k, neg_table) in neg_tables.iter().enumerate() {
                    // Context: the fused embedding of the OTHER views.
                    let others: Vec<usize> =
                        all_fields.iter().copied().filter(|&f| f != k).collect();
                    let ctx = self.fused(ds, u, &others);
                    if ctx.iter().all(|&v| v == 0.0) {
                        continue;
                    }
                    let (ix, _) = ds.user_field(u, k);
                    let mut ctx_grad = vec![0.0f32; self.dim];
                    for &f in ix {
                        let pos_col = layout.column(k, f);
                        let score = dot(&ctx, out_vecs.row(pos_col));
                        let g = (sigmoid(score) - 1.0) * self.lr;
                        for d in 0..self.dim {
                            ctx_grad[d] += g * out_vecs.get(pos_col, d);
                            let upd = g * ctx[d];
                            out_vecs.add_at(pos_col, d, -upd);
                        }
                        for _ in 0..self.negatives {
                            let neg = neg_table.sample(&mut rng);
                            if neg == f as usize {
                                continue;
                            }
                            let neg_col = layout.column(k, neg as u32);
                            let score = dot(&ctx, out_vecs.row(neg_col));
                            let g = sigmoid(score) * self.lr;
                            for d in 0..self.dim {
                                ctx_grad[d] += g * out_vecs.get(neg_col, d);
                                let upd = g * ctx[d];
                                out_vecs.add_at(neg_col, d, -upd);
                            }
                        }
                    }
                    // Distribute the context gradient back to the views that
                    // produced it (mean pooling → uniform split).
                    let mut contributing = Vec::new();
                    for &ok in &others {
                        if !ds.user_field(u, ok).0.is_empty() {
                            contributing.push(ok);
                        }
                    }
                    if contributing.is_empty() {
                        continue;
                    }
                    let share = 1.0 / contributing.len() as f32;
                    for &ok in &contributing {
                        let (oix, _) = ds.user_field(u, ok);
                        let per_item = share / oix.len() as f32;
                        for &oi in oix {
                            for (d, &g) in ctx_grad.iter().enumerate() {
                                self.views[ok].add_at(oi as usize, d, -g * per_item);
                            }
                        }
                    }
                }
            }
        }
        self.layout = Some(layout);
        self.out_vecs = Some(out_vecs);
    }

    fn embed(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        input_fields: Option<&[usize]>,
    ) -> Matrix {
        let all: Vec<usize> = (0..ds.n_fields()).collect();
        let picks: Vec<usize> = input_fields.unwrap_or(&all).to_vec();
        let mut out = Matrix::zeros(users.len(), self.dim);
        for (r, &u) in users.iter().enumerate() {
            let v = self.fused(ds, u, &picks);
            out.row_mut(r).copy_from_slice(&v);
        }
        out
    }

    fn score_field(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        input_fields: Option<&[usize]>,
        field: usize,
        candidates: &[u32],
    ) -> Matrix {
        let layout = self.layout.as_ref().expect("fitted");
        let out_vecs = self.out_vecs.as_ref().expect("fitted");
        let emb = self.embed(ds, users, input_fields);
        let mut out = Matrix::zeros(users.len(), candidates.len());
        for r in 0..users.len() {
            let row = out.row_mut(r);
            for (o, &cand) in row.iter_mut().zip(candidates.iter()) {
                let col = layout.column(field, cand);
                *o = dot(emb.row(r), out_vecs.row(col));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvae_data::{FieldSpec, TopicModelConfig};

    fn tiny() -> MultiFieldDataset {
        TopicModelConfig {
            n_users: 150,
            n_topics: 3,
            alpha: 0.08,
            fields: vec![
                FieldSpec::new("ch1", 10, 3, 1.0),
                FieldSpec::new("ch2", 24, 4, 1.0),
                FieldSpec::new("tag", 48, 6, 1.0),
            ],
            pair_prob: 0.0,
            seed: 70,
        }
        .generate()
    }

    #[test]
    fn views_have_per_field_vocabulary() {
        let ds = tiny();
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let mut model = Job2Vec::new(8, 1);
        model.epochs = 1;
        model.fit(&ds, &users);
        assert_eq!(model.views.len(), 3);
        assert_eq!(model.views[0].rows(), 10);
        assert_eq!(model.views[2].rows(), 48);
    }

    #[test]
    fn cross_view_prediction_learns_tags_from_channels() {
        let ds = tiny();
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let mut model = Job2Vec::new(12, 1);
        model.epochs = 12;
        model.fit(&ds, &users);
        let candidates: Vec<u32> = (0..48).collect();
        let scores = model.score_field(&ds, &users[..50], Some(&[0, 1]), 2, &candidates);
        let mut mean = fvae_metrics::Mean::new();
        for (r, &u) in users[..50].iter().enumerate() {
            let observed: std::collections::HashSet<u32> =
                ds.user_field(u, 2).0.iter().copied().collect();
            let labels: Vec<bool> = candidates.iter().map(|c| observed.contains(c)).collect();
            mean.push(fvae_metrics::auc(scores.row(r), &labels));
        }
        assert!(mean.mean() > 0.55, "Job2Vec fold-in AUC {}", mean.mean());
    }

    #[test]
    fn fused_embedding_is_mean_of_views() {
        let ds = tiny();
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let mut model = Job2Vec::new(8, 1);
        model.epochs = 1;
        model.fit(&ds, &users);
        let v0 = model.view_vector(&ds, 0, 0).expect("non-empty");
        let v1 = model.view_vector(&ds, 0, 1).expect("non-empty");
        let v2 = model.view_vector(&ds, 0, 2).expect("non-empty");
        let fused = model.embed(&ds, &[0], None);
        for d in 0..8 {
            let expect = (v0[d] + v1[d] + v2[d]) / 3.0;
            assert!((fused.get(0, d) - expect).abs() < 1e-5);
        }
    }
}
