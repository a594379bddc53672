//! Figures 5–8: hyper-parameter sensitivity sweeps on the SC dataset.
//!
//! All sweeps share one harness: train an FVAE variant on the (small) SC
//! preset, evaluate tag prediction on the held-out split, report AUC/mAP.

use std::time::Instant;

use fvae_baselines::RepresentationModel;
use fvae_core::{Fvae, FvaeConfig, SamplingStrategy};
use fvae_data::{tag_prediction_cases, MultiFieldDataset, SplitIndices, TagEvalCase};
use fvae_metrics::{auc, Mean};

use crate::context::{fmt_metric, render_table, EvalContext, Scale};
use crate::models::FvaeModel;
use crate::tagpred::evaluate_tag_prediction;

/// Shared sweep environment: dataset, split, eval cases.
pub struct SweepEnv {
    /// The dataset.
    pub ds: MultiFieldDataset,
    /// User split.
    pub split: SplitIndices,
    /// Tag-prediction cases over the test users.
    pub cases: Vec<TagEvalCase>,
    /// Channel (fold-in) fields.
    pub channel_fields: Vec<usize>,
    /// Tag field index.
    pub tag_field: usize,
    /// Epochs per sweep point.
    pub epochs: usize,
}

impl SweepEnv {
    /// Builds the sweep environment at the context's scale.
    pub fn new(ctx: &EvalContext) -> Self {
        let mut cfg = fvae_data::TopicModelConfig::sc_small();
        // Sweep points must be past the noisy early-training regime for
        // between-point differences to mean anything.
        cfg.n_users = ctx.scale.users(cfg.n_users).max(1_500);
        let ds = cfg.generate();
        let split = SplitIndices::random(ds.n_users(), 0.1, 0.15, 7);
        let tag_field = ds.field_index("tag").expect("tag field");
        let channel_fields: Vec<usize> =
            (0..ds.n_fields()).filter(|&k| k != tag_field).collect();
        let cases = tag_prediction_cases(&ds, &split.test, tag_field, 99);
        let epochs = match ctx.scale {
            Scale::Full => 14,
            Scale::Quick => 10,
        };
        Self { ds, split, cases, channel_fields, tag_field, epochs }
    }

    /// Smaller-than-default network so each sweep point trains in seconds.
    pub fn base_config(&self) -> FvaeConfig {
        let mut cfg = FvaeConfig::for_dataset(&self.ds);
        cfg.latent_dim = 32;
        cfg.enc_hidden = 64;
        cfg.dec_hidden = vec![64];
        cfg.epochs = self.epochs;
        cfg.batch_size = 128;
        cfg.lr = 5e-3;
        cfg.dropout = 0.5;
        cfg
    }

    /// Trains `cfg` and returns tag-prediction `(AUC, mAP)`.
    pub fn evaluate(&self, cfg: FvaeConfig) -> (f64, f64) {
        let mut model = FvaeModel::new(cfg);
        model.fit(&self.ds, &self.split.train);
        evaluate_tag_prediction(&model, &self.ds, &self.cases, &self.channel_fields, self.tag_field)
    }

    /// Like [`SweepEnv::evaluate`] but averaged over `seeds` training runs —
    /// sweep figures compare nearby operating points, so run-to-run noise
    /// must be averaged out.
    pub fn evaluate_seeds(&self, cfg: &FvaeConfig, seeds: &[u64]) -> (f64, f64) {
        let mut auc_acc = 0.0;
        let mut map_acc = 0.0;
        for &seed in seeds {
            let mut c = cfg.clone();
            c.seed = seed;
            let (a, m) = self.evaluate(c);
            auc_acc += a;
            map_acc += m;
        }
        (auc_acc / seeds.len() as f64, map_acc / seeds.len() as f64)
    }

    /// Evaluates an already-trained raw [`Fvae`] (for the timed Fig. 6 curve).
    pub fn evaluate_raw(&self, model: &Fvae) -> f64 {
        // Reusable buffers for the whole case loop, instead of re-allocating
        // forward scratch inside every per-case embed call.
        let enc = model.encoder();
        let mut input = fvae_core::InputRows::default();
        let mut scratch = fvae_core::EncoderScratch::default();
        let mut z = fvae_tensor::Matrix::default();
        let mut auc_mean = Mean::new();
        for case in &self.cases {
            enc.embed_users_into(
                &self.ds,
                &[case.user],
                Some(&self.channel_fields),
                &mut input,
                &mut scratch,
                &mut z,
            );
            let scores = model.field_logits(&z, self.tag_field, &case.candidates);
            auc_mean.push(auc(scores.row(0), &case.labels));
        }
        auc_mean.mean()
    }
}

/// Fig. 5: sampling strategies (Uniform / Frequency / Zipfian) × r ∈
/// {0.2, 0.4, 0.6, 0.8}. Writes `fig5_sampling.csv`.
pub fn fig5(ctx: &EvalContext) -> std::io::Result<String> {
    let env = SweepEnv::new(ctx);
    let mut rows = Vec::new();
    for strategy in SamplingStrategy::all() {
        for rate in [0.2, 0.4, 0.6, 0.8] {
            eprintln!("[fig5] {} r={rate}", strategy.name());
            let mut cfg = env.base_config();
            cfg.sampling.strategy = strategy;
            cfg.sampling.rate = rate;
            let (a, m) = env.evaluate_seeds(&cfg, &[11, 22, 33]);
            rows.push(vec![
                strategy.name().to_string(),
                format!("{rate}"),
                fmt_metric(a),
                fmt_metric(m),
            ]);
        }
    }
    let header = ["Strategy", "r", "AUC", "mAP"];
    ctx.write_csv("fig5_sampling.csv", &header, &rows)?;
    Ok(render_table("Fig. 5: effect of sampling strategy and rate", &header, &rows))
}

/// Fig. 6: validation AUC vs wall-clock training time for r ∈
/// {0.01, 0.1, 0.2}. Writes `fig6_auc_vs_time.csv`.
pub fn fig6(ctx: &EvalContext) -> std::io::Result<String> {
    let env = SweepEnv::new(ctx);
    let epochs = env.epochs * 3;
    let mut rows = Vec::new();
    for rate in [0.01, 0.1, 0.2] {
        eprintln!("[fig6] r={rate}");
        let mut cfg = env.base_config();
        cfg.sampling.rate = rate;
        let mut model = Fvae::new(cfg);
        let mut elapsed = 0.0f64;
        for epoch in 0..epochs {
            let t0 = Instant::now();
            model.train_epochs(&env.ds, &env.split.train, 1, |_, _| {});
            elapsed += t0.elapsed().as_secs_f64();
            let a = env.evaluate_raw(&model);
            rows.push(vec![
                format!("{rate}"),
                (epoch + 1).to_string(),
                format!("{elapsed:.3}"),
                fmt_metric(a),
            ]);
        }
    }
    let header = ["r", "epoch", "train_seconds", "val_AUC"];
    ctx.write_csv("fig6_auc_vs_time.csv", &header, &rows)?;
    Ok(render_table("Fig. 6: validation AUC vs training time per sampling rate", &header, &rows))
}

/// Fig. 7: α sensitivity — sweep one field's α over
/// {0.001, 0.01, 0.1, 1, 10} with the others pinned at 1. Writes
/// `fig7_alpha.csv`.
pub fn fig7(ctx: &EvalContext) -> std::io::Result<String> {
    let env = SweepEnv::new(ctx);
    let mut rows = Vec::new();
    for field in 0..env.ds.n_fields() {
        let fname = env.ds.field_names()[field].clone();
        for alpha in [0.001f32, 0.01, 0.1, 1.0, 10.0] {
            eprintln!("[fig7] alpha_{fname}={alpha}");
            let mut cfg = env.base_config();
            cfg.alpha = vec![1.0; env.ds.n_fields()];
            cfg.alpha[field] = alpha;
            let (a, m) = env.evaluate(cfg);
            rows.push(vec![fname.clone(), format!("{alpha}"), fmt_metric(a), fmt_metric(m)]);
        }
    }
    let header = ["field", "alpha", "AUC", "mAP"];
    ctx.write_csv("fig7_alpha.csv", &header, &rows)?;
    Ok(render_table("Fig. 7: AUC and mAP vs per-field alpha (others fixed at 1)", &header, &rows))
}

/// Fig. 8: β sensitivity over {0, 0.1, 0.3, 0.5, 0.7, 0.9, 1}. Writes
/// `fig8_beta.csv`.
pub fn fig8(ctx: &EvalContext) -> std::io::Result<String> {
    let env = SweepEnv::new(ctx);
    let mut rows = Vec::new();
    for beta in [0.0f32, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
        eprintln!("[fig8] beta={beta}");
        let mut cfg = env.base_config();
        cfg.beta_cap = beta;
        // β is swept at light input dropout: KL regularization and heavy
        // denoising dropout are substitute regularizers, and the paper's
        // Mult-VAE-style annealing study isolates the former.
        cfg.dropout = 0.1;
        cfg.epochs = env.epochs * 2;
        let (a, m) = env.evaluate_seeds(&cfg, &[11, 22]);
        rows.push(vec![format!("{beta}"), fmt_metric(a), fmt_metric(m)]);
    }
    let header = ["beta", "AUC", "mAP"];
    ctx.write_csv("fig8_beta.csv", &header, &rows)?;
    Ok(render_table("Fig. 8: AUC and mAP vs the KL annealing cap beta", &header, &rows))
}
