//! FVAE hyper-parameters (§IV and §V-A3).

use fvae_data::MultiFieldDataset;

use crate::sampling::SamplingStrategy;

/// Feature-sampling configuration (§IV-C3).
#[derive(Clone, Debug)]
pub struct SamplingConfig {
    /// Sampling distribution over the batch-unique feature set.
    pub strategy: SamplingStrategy,
    /// Keep rate `r`; 1.0 disables sampling.
    pub rate: f64,
    /// Which fields are "super sparse" and should be sampled. Fields outside
    /// this list always use their full batch-unique candidate set.
    pub sampled_fields: Vec<bool>,
    /// Fraction of the candidate count added as uniform-random vocabulary
    /// features per step (0 disables). The paper frames the batched softmax
    /// as "a special case in sampled softmax" [54]; this pad is the classic
    /// sampled-softmax uniform-negative component — it calibrates features
    /// that rarely enter a batch, which matters at scaled-down user counts.
    pub negative_pad: f64,
}

impl SamplingConfig {
    /// Disables feature sampling.
    pub fn off(n_fields: usize) -> Self {
        Self {
            strategy: SamplingStrategy::Uniform,
            rate: 1.0,
            sampled_fields: vec![false; n_fields],
            negative_pad: 0.0,
        }
    }

    /// Uniform sampling at rate `r` on the given fields.
    pub fn uniform(rate: f64, sampled_fields: Vec<bool>) -> Self {
        Self {
            strategy: SamplingStrategy::Uniform,
            rate,
            sampled_fields,
            negative_pad: 0.0,
        }
    }
}

/// Full model + training configuration.
#[derive(Clone, Debug)]
pub struct FvaeConfig {
    /// Number of feature fields `K`.
    pub n_fields: usize,
    /// Latent dimensionality `D`.
    pub latent_dim: usize,
    /// Width of the embedding-bag first layer (`D_{L_e}`).
    pub enc_hidden: usize,
    /// Extra encoder hidden widths between the bag layer and the μ/σ head.
    pub enc_extra_hidden: Vec<usize>,
    /// Decoder trunk widths (last entry is `D_{L_d}`, the width feeding the
    /// per-field softmax heads).
    pub dec_hidden: Vec<usize>,
    /// Per-field reconstruction weights `α`.
    pub alpha: Vec<f32>,
    /// Annealing cap for the KL weight `β`.
    pub beta_cap: f32,
    /// User-specific KL scaling borrowed from RecVAE [23]: when positive,
    /// user `i`'s KL weight becomes `β(step) · γ · N_i` with `N_i` the
    /// user's total feature count — heavier profiles get stronger
    /// regularization. 0 disables (the paper's plain annealed β).
    pub user_beta_gamma: f32,
    /// Number of steps over which `β` anneals linearly from 0 to `beta_cap`.
    pub anneal_steps: u64,
    /// Input dropout probability.
    pub dropout: f32,
    /// Structured field-level dropout: probability of masking a user's
    /// *entire* field during training (at most one field per user per
    /// batch). Trains the encoder for the fold-in serving condition, where
    /// whole fields (e.g. tags) are absent. Extension over the paper; 0
    /// disables.
    pub field_dropout: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Feature sampling.
    pub sampling: SamplingConfig,
    /// Initialization std for embedding and head weight rows.
    pub init_std: f32,
    /// Global gradient-clip norm (0 disables).
    pub clip_norm: f32,
    /// RNG seed.
    pub seed: u64,
}

impl FvaeConfig {
    /// Sensible defaults for a dataset: `α = 1` for every field, `β`
    /// annealed to 0.2 (the paper reports any moderate positive β works,
    /// Fig. 8), uniform feature sampling at `r = 0.1` on the two sparsest
    /// fields — the paper's default operating point.
    pub fn for_dataset(ds: &MultiFieldDataset) -> Self {
        let k = ds.n_fields();
        // Mark the larger half of the fields (by vocabulary) as sampled.
        let mut vocabs: Vec<usize> = (0..k).map(|f| ds.field_vocab(f)).collect();
        vocabs.sort_unstable();
        let median = vocabs[k / 2];
        let sampled_fields: Vec<bool> =
            (0..k).map(|f| ds.field_vocab(f) >= median).collect();
        Self {
            n_fields: k,
            latent_dim: 64,
            enc_hidden: 128,
            enc_extra_hidden: Vec::new(),
            dec_hidden: vec![128],
            alpha: vec![1.0; k],
            beta_cap: 0.2,
            user_beta_gamma: 0.0,
            anneal_steps: 2_000,
            dropout: 0.2,
            field_dropout: 0.0,
            lr: 2e-3,
            batch_size: 256,
            epochs: 8,
            sampling: SamplingConfig {
                strategy: SamplingStrategy::Uniform,
                rate: 0.1,
                sampled_fields,
                negative_pad: 0.0,
            },
            init_std: 0.05,
            clip_norm: 5.0,
            seed: 17,
        }
    }

    /// `|α| = Σ_k |α_k|`, the normalizer of Eq. 7.
    pub fn alpha_norm(&self) -> f32 {
        self.alpha.iter().map(|a| a.abs()).sum()
    }

    /// The KL weight at a training step (linear annealing capped at
    /// `beta_cap`, following [8]'s annealing recipe).
    pub fn beta_at(&self, step: u64) -> f32 {
        if self.anneal_steps == 0 {
            return self.beta_cap;
        }
        self.beta_cap * ((step as f32 / self.anneal_steps as f32).min(1.0))
    }

    /// Validates internal consistency; called by [`crate::Fvae::new`].
    pub fn validate(&self) -> Result<(), String> {
        if self.n_fields == 0 {
            return Err("n_fields must be positive".into());
        }
        if self.alpha.len() != self.n_fields {
            return Err("alpha must have one weight per field".into());
        }
        if self.sampling.sampled_fields.len() != self.n_fields {
            return Err("sampled_fields must have one flag per field".into());
        }
        if self.alpha_norm() == 0.0 {
            return Err("at least one alpha must be non-zero".into());
        }
        if !(0.0..=1.0).contains(&self.sampling.rate) || self.sampling.rate == 0.0 {
            return Err("sampling rate must be in (0, 1]".into());
        }
        if self.latent_dim == 0 || self.enc_hidden == 0 || self.dec_hidden.is_empty() {
            return Err("layer widths must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch size must be positive".into());
        }
        // Row initialisation builds a Gaussian from it, which asserts this.
        if self.init_std.is_nan() || self.init_std < 0.0 {
            return Err("init_std must be non-negative".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvae_data::TopicModelConfig;

    #[test]
    fn defaults_validate() {
        let ds = TopicModelConfig {
            n_users: 50,
            ..TopicModelConfig::sc_small()
        }
        .generate();
        let cfg = FvaeConfig::for_dataset(&ds);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.alpha.len(), 4);
        // The two large fields (ch3, tag) are sampled; ch1/ch2 are not.
        assert_eq!(cfg.sampling.sampled_fields, vec![false, false, true, true]);
    }

    #[test]
    fn beta_anneals_linearly_then_caps() {
        let ds = TopicModelConfig { n_users: 20, ..TopicModelConfig::sc_small() }.generate();
        let mut cfg = FvaeConfig::for_dataset(&ds);
        cfg.beta_cap = 1.0;
        cfg.anneal_steps = 100;
        assert_eq!(cfg.beta_at(0), 0.0);
        assert!((cfg.beta_at(50) - 0.5).abs() < 1e-6);
        assert_eq!(cfg.beta_at(100), 1.0);
        assert_eq!(cfg.beta_at(10_000), 1.0);
    }

    #[test]
    fn zero_anneal_steps_means_constant_beta() {
        let ds = TopicModelConfig { n_users: 20, ..TopicModelConfig::sc_small() }.generate();
        let mut cfg = FvaeConfig::for_dataset(&ds);
        cfg.anneal_steps = 0;
        cfg.beta_cap = 0.7;
        assert_eq!(cfg.beta_at(0), 0.7);
    }

    #[test]
    fn validation_catches_mismatched_alpha() {
        let ds = TopicModelConfig { n_users: 20, ..TopicModelConfig::sc_small() }.generate();
        let mut cfg = FvaeConfig::for_dataset(&ds);
        cfg.alpha = vec![1.0; 2];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_rate() {
        let ds = TopicModelConfig { n_users: 20, ..TopicModelConfig::sc_small() }.generate();
        let mut cfg = FvaeConfig::for_dataset(&ds);
        cfg.sampling.rate = 0.0;
        assert!(cfg.validate().is_err());
    }
}
