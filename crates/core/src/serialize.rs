//! Model save/load: the hand-off between the offline training module and
//! the online serving module in the paper's deployment diagram (Fig. 2).
//!
//! Format: the workspace-wide header (`fvae-sparse::serial`), the full
//! configuration, then every parameter group. Loading restores a model that
//! produces bit-identical embeddings and can resume training (dynamic
//! tables keep growing; optimizer moments restart).

use fvae_nn::serialize::{
    get_dense, get_embedding_bag, get_mlp, get_softmax_head, put_dense, put_embedding_bag,
    put_mlp, put_softmax_head,
};
use fvae_sparse::serial::{
    expect_len, put_f32, put_f32_slice, put_f64, put_header, put_u64, put_u8, DecodeError, Reader,
    MAGIC, VERSION,
};
use fvae_nn::{Dense, Mlp};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{FvaeConfig, SamplingConfig};
use crate::encoder::Encoder;
use crate::model::Fvae;
use crate::sampling::SamplingStrategy;

fn strategy_tag(s: SamplingStrategy) -> u8 {
    match s {
        SamplingStrategy::Uniform => 0,
        SamplingStrategy::Frequency => 1,
        SamplingStrategy::Zipfian => 2,
    }
}

fn strategy_from_tag(tag: u8) -> Result<SamplingStrategy, DecodeError> {
    Ok(match tag {
        0 => SamplingStrategy::Uniform,
        1 => SamplingStrategy::Frequency,
        2 => SamplingStrategy::Zipfian,
        other => {
            return Err(DecodeError::Invalid(format!("unknown sampling strategy {other}")))
        }
    })
}

fn put_config(buf: &mut Vec<u8>, cfg: &FvaeConfig) {
    put_u64(buf, cfg.n_fields as u64);
    put_u64(buf, cfg.latent_dim as u64);
    put_u64(buf, cfg.enc_hidden as u64);
    put_u64(buf, cfg.enc_extra_hidden.len() as u64);
    for &d in &cfg.enc_extra_hidden {
        put_u64(buf, d as u64);
    }
    put_u64(buf, cfg.dec_hidden.len() as u64);
    for &d in &cfg.dec_hidden {
        put_u64(buf, d as u64);
    }
    put_f32_slice(buf, &cfg.alpha);
    put_f32(buf, cfg.beta_cap);
    put_f32(buf, cfg.user_beta_gamma);
    put_u64(buf, cfg.anneal_steps);
    put_f32(buf, cfg.dropout);
    put_f32(buf, cfg.field_dropout);
    put_f32(buf, cfg.lr);
    put_u64(buf, cfg.batch_size as u64);
    put_u64(buf, cfg.epochs as u64);
    put_u8(buf, strategy_tag(cfg.sampling.strategy));
    put_f64(buf, cfg.sampling.rate);
    put_f64(buf, cfg.sampling.negative_pad);
    put_u64(buf, cfg.sampling.sampled_fields.len() as u64);
    for &flag in &cfg.sampling.sampled_fields {
        put_u8(buf, flag as u8);
    }
    put_f32(buf, cfg.init_std);
    put_f32(buf, cfg.clip_norm);
    put_u64(buf, cfg.seed);
}

fn get_config(r: &mut Reader<'_>) -> Result<FvaeConfig, DecodeError> {
    let n_fields = r.usize()?;
    let latent_dim = r.usize()?;
    let enc_hidden = r.usize()?;
    let enc_extra_hidden = r.usizes()?;
    let dec_hidden = r.usizes()?;
    let alpha = r.f32s()?;
    let beta_cap = r.f32()?;
    let user_beta_gamma = r.f32()?;
    let anneal_steps = r.u64()?;
    let dropout = r.f32()?;
    let field_dropout = r.f32()?;
    let lr = r.f32()?;
    let batch_size = r.usize()?;
    let epochs = r.usize()?;
    let strategy = strategy_from_tag(r.u8()?)?;
    let rate = r.f64()?;
    let negative_pad = r.f64()?;
    let sampled_fields: Vec<bool> = r.bytes()?.iter().map(|&flag| flag != 0).collect();
    let init_std = r.f32()?;
    let clip_norm = r.f32()?;
    let seed = r.u64()?;
    let cfg = FvaeConfig {
        n_fields,
        latent_dim,
        enc_hidden,
        enc_extra_hidden,
        dec_hidden,
        alpha,
        beta_cap,
        user_beta_gamma,
        anneal_steps,
        dropout,
        field_dropout,
        lr,
        batch_size,
        epochs,
        sampling: SamplingConfig { strategy, rate, sampled_fields, negative_pad },
        init_std,
        clip_norm,
        seed,
    };
    cfg.validate().map_err(DecodeError::Invalid)?;
    Ok(cfg)
}

impl Fvae {
    /// Exact length of [`Fvae::to_bytes`]'s output, so the buffer is sized
    /// once (`to_bytes` asserts the two agree in debug builds).
    fn encoded_len(&self) -> usize {
        // Each constant is the fixed part of one `put_*`: scalar fields plus
        // an 8-byte prefix per length-prefixed array.
        let dense = |d: &Dense| {
            let (w, b) = d.params();
            33 + 4 * (w.as_slice().len() + b.len())
        };
        let mlp = |m: &Mlp| 8 + m.layers().iter().map(dense).sum::<usize>();
        let cfg = &self.cfg;
        let config = 133
            + 8 * (cfg.enc_extra_hidden.len() + cfg.dec_hidden.len())
            + 4 * cfg.alpha.len()
            + cfg.sampling.sampled_fields.len();
        let enc = &self.enc;
        let bags = enc.bags.iter().map(|b| 24 + 8 * b.vocab_len() + 4 * b.weights().len());
        let heads = self.heads.iter().map(|h| 32 + h.vocab_len() * (12 + 4 * h.dim()));
        6 + config
            + 8
            + bags.sum::<usize>()
            + (8 + 4 * enc.bias.len())
            + 1
            + enc.extra.as_ref().map_or(0, mlp)
            + dense(&enc.head)
            + mlp(&self.trunk)
            + heads.sum::<usize>()
    }

    /// Serializes the model (configuration + all parameters + step count).
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let mut buf = Vec::with_capacity(len);
        put_header(&mut buf);
        put_config(&mut buf, &self.cfg);
        put_u64(&mut buf, self.step);
        let enc = &self.enc;
        for bag in &enc.bags {
            put_embedding_bag(&mut buf, bag);
        }
        put_f32_slice(&mut buf, &enc.bias);
        put_u8(&mut buf, enc.extra.is_some() as u8);
        if let Some(mlp) = &enc.extra {
            put_mlp(&mut buf, mlp);
        }
        put_dense(&mut buf, &enc.head);
        put_mlp(&mut buf, &self.trunk);
        for head in &self.heads {
            put_softmax_head(&mut buf, head);
        }
        debug_assert_eq!(buf.len(), len, "encoded_len must mirror the format");
        buf
    }

    /// Deserializes a model written by [`Fvae::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        r.header(MAGIC, VERSION)?;
        let cfg = get_config(&mut r)?;
        let step = r.u64()?;
        let bags = (0..cfg.n_fields)
            .map(|_| get_embedding_bag(&mut r, cfg.init_std))
            .collect::<Result<Vec<_>, _>>()?;
        let bias = r.f32s()?;
        expect_len(bias.len(), &[cfg.enc_hidden], "encoder bias width mismatch")?;
        let extra = if r.u8()? != 0 { Some(get_mlp(&mut r)?) } else { None };
        let head = get_dense(&mut r)?;
        let trunk = get_mlp(&mut r)?;
        let heads = (0..cfg.n_fields)
            .map(|_| get_softmax_head(&mut r, cfg.init_std))
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        let rng = StdRng::seed_from_u64(cfg.seed ^ step.wrapping_mul(0x9e37_79b9));
        let enc = Encoder { bags, bias, extra, head };
        Ok(Self { cfg, enc, trunk, heads, rng, step })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvae_data::{FieldSpec, TopicModelConfig};

    fn trained_model() -> (fvae_data::MultiFieldDataset, Fvae) {
        let ds = TopicModelConfig {
            n_users: 120,
            n_topics: 3,
            alpha: 0.15,
            fields: vec![
                FieldSpec::new("ch1", 12, 3, 1.0),
                FieldSpec::new("tag", 48, 5, 1.0),
            ],
            pair_prob: 0.2,
            seed: 9,
        }
        .generate();
        let mut cfg = FvaeConfig::for_dataset(&ds);
        cfg.latent_dim = 8;
        cfg.enc_hidden = 16;
        cfg.dec_hidden = vec![16];
        cfg.batch_size = 32;
        let mut model = Fvae::new(cfg);
        let users: Vec<usize> = (0..ds.n_users()).collect();
        model.train_epochs(&ds, &users, 2, |_, _| {});
        (ds, model)
    }

    #[test]
    fn roundtrip_preserves_embeddings_exactly() {
        let (ds, model) = trained_model();
        let bytes = model.to_bytes();
        let restored = Fvae::from_bytes(&bytes).expect("decode");
        let users: Vec<usize> = (0..20).collect();
        let before = model.embed_users(&ds, &users, None);
        let after = restored.embed_users(&ds, &users, None);
        assert_eq!(before, after, "embeddings must be bit-identical after reload");
    }

    #[test]
    fn roundtrip_preserves_field_scores() {
        let (ds, model) = trained_model();
        let restored = Fvae::from_bytes(&model.to_bytes()).expect("decode");
        let z = model.embed_users(&ds, &[3, 4], None);
        let cands: Vec<u32> = (0..48).collect();
        assert_eq!(model.field_logits(&z, 1, &cands), restored.field_logits(&z, 1, &cands));
    }

    #[test]
    fn restored_model_can_resume_training() {
        let (ds, model) = trained_model();
        let mut restored = Fvae::from_bytes(&model.to_bytes()).expect("decode");
        let users: Vec<usize> = (0..ds.n_users()).collect();
        restored.train_epochs(&ds, &users, 1, |_, s| {
            assert!(s.recon.is_finite());
        });
        let emb = restored.embed_users(&ds, &users[..5], None);
        assert!(emb.is_finite());
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let (_, model) = trained_model();
        let bytes = model.to_bytes();
        assert!(Fvae::from_bytes(&bytes[..bytes.len() - 7]).is_err());
        assert!(Fvae::from_bytes(&bytes[..10]).is_err());
    }
}
