//! Validation-driven training: held-out ELBO evaluation and early stopping.
//!
//! The paper tunes β "by the early stopping" (§V-D3) and Fig. 6 tracks
//! validation AUC against training time; this module provides the
//! infrastructure both rely on: a deterministic held-out ELBO
//! ([`Fvae::evaluate_elbo`]) and [`Fvae::train_until_checkpointed`], which
//! stops when the validation ELBO stalls and restores the best snapshot (via
//! the model's binary serialization).

use fvae_data::MultiFieldDataset;
use rand::rngs::StdRng;

use crate::candidates::CandidateSet;
use crate::checkpoint::{self, Checkpointer, EarlyStopState, ResumePoint, SnapshotError, TrainProgress};
use crate::model::Fvae;
use crate::observe::{StepCtx, TrainObserver};
use crate::train::EpochStats;

/// Early-stopping options.
#[derive(Clone, Copy, Debug)]
pub struct TrainOptions {
    /// Hard epoch cap.
    pub max_epochs: usize,
    /// Stop after this many validations without improvement.
    pub patience: usize,
    /// Epochs between validations.
    pub eval_every: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self { max_epochs: 50, patience: 3, eval_every: 1 }
    }
}

/// Record of a [`Fvae::train_until_checkpointed`] run.
#[derive(Clone, Debug, Default)]
pub struct TrainHistory {
    /// Training statistics per epoch.
    pub epochs: Vec<EpochStats>,
    /// `(epoch, validation ELBO)` at each validation point.
    pub validations: Vec<(usize, f32)>,
    /// Whether patience ran out before `max_epochs`.
    pub stopped_early: bool,
    /// Epoch of the best validation ELBO (the restored snapshot).
    pub best_epoch: usize,
}

impl Fvae {
    /// Deterministic validation ELBO (higher is better): encodes without
    /// dropout, uses `z = μ`, and scores each field's multinomial
    /// log-likelihood over the validation cohort's active feature set (the
    /// same restriction training uses, so train/val numbers are comparable).
    pub fn evaluate_elbo(&self, ds: &MultiFieldDataset, users: &[usize]) -> f32 {
        assert!(!users.is_empty(), "validation cohort must be non-empty");
        let (mu, logvar) = self.encode(ds, users, None);
        let inv_n = 1.0 / users.len() as f32;
        let alpha_norm = self.cfg.alpha_norm();
        let mut recon = 0.0f64;
        let mut active = CandidateSet::default();
        for k in 0..self.cfg.n_fields {
            active.gather(ds, users, k);
            if active.columns().is_empty() {
                continue;
            }
            let mut log_probs = self.field_logits(&mu, k, active.columns());
            for r in 0..users.len() {
                fvae_tensor::ops::log_softmax_in_place(log_probs.row_mut(r));
            }
            let scale = (self.cfg.alpha[k] / alpha_norm) as f64;
            for (r, &u) in users.iter().enumerate() {
                let (ix, vs) = ds.user_field(u, k);
                for (&i, &v) in ix.iter().zip(vs.iter()) {
                    let c = active.column(i).expect("every cohort feature is active") as usize;
                    recon += scale * v as f64 * log_probs.get(r, c) as f64;
                }
            }
        }
        let (kl_sum, _, _) = Fvae::kl_and_grads(&mu, &logvar);
        (recon as f32) * inv_n - self.cfg.beta_cap * kl_sum * inv_n
    }

    /// Trains with early stopping on a validation cohort. On return, the
    /// model holds the parameters of the best validation point. Every
    /// optimizer step and epoch is forwarded to `observer` with epoch
    /// indices rebased to be global across the early-stopping bursts.
    ///
    /// With a `checkpointer`, a snapshot is written after every validation
    /// point (the early-stopping loop's atomic unit — each burst rebuilds
    /// optimizer state, so burst boundaries are exactly resumable), carrying
    /// the best-so-far model bytes, strike count, and validation history.
    /// Resuming from such a snapshot continues the run bit-identically.
    #[allow(clippy::too_many_arguments)]
    pub fn train_until_checkpointed(
        &mut self,
        ds: &MultiFieldDataset,
        train_users: &[usize],
        val_users: &[usize],
        options: TrainOptions,
        observer: &mut dyn TrainObserver,
        checkpointer: Option<&Checkpointer>,
        resume: Option<ResumePoint>,
    ) -> Result<TrainHistory, SnapshotError> {
        assert!(options.max_epochs > 0 && options.eval_every > 0);
        let mut history = TrainHistory::default();
        let mut global_step = 0u64;
        let mut best: Option<(f32, Vec<u8>, usize)> = None;
        let mut strikes = 0usize;
        let mut epoch = 0usize;
        let mut already_stopped = false;
        if let Some(rp) = resume {
            self.rng = StdRng::from_state(rp.rng_state);
            global_step = rp.progress.global_step;
            epoch = rp.progress.epoch as usize;
            let es = rp.early_stop.unwrap_or_default();
            history.epochs = es.epochs;
            history.validations =
                es.validations.iter().map(|&(e, v)| (e as usize, v)).collect();
            history.stopped_early = es.stopped_early;
            best = es.best.map(|(elbo, bytes, ep)| (elbo, bytes, ep as usize));
            strikes = es.strikes as usize;
            already_stopped = es.stopped_early;
        }
        while epoch < options.max_epochs && !already_stopped {
            let burst = options.eval_every.min(options.max_epochs - epoch);
            let mut burst_obs = BurstObserver {
                inner: observer,
                base: epoch,
                epochs: &mut history.epochs,
                steps: &mut global_step,
            };
            self.train_observed(ds, train_users, burst, &mut burst_obs);
            epoch += burst;
            let elbo = self.evaluate_elbo(ds, val_users);
            history.validations.push((epoch, elbo));
            let improved = best.as_ref().is_none_or(|&(b, _, _)| elbo > b);
            if improved {
                best = Some((elbo, self.to_bytes(), epoch));
                strikes = 0;
            } else {
                strikes += 1;
                if strikes >= options.patience {
                    history.stopped_early = true;
                }
            }
            if let Some(cp) = checkpointer {
                let es = EarlyStopState {
                    best: best
                        .as_ref()
                        .map(|(e, bytes, ep)| (*e, bytes.clone(), *ep as u64)),
                    strikes: strikes as u64,
                    stopped_early: history.stopped_early,
                    epochs: history.epochs.clone(),
                    validations: history
                        .validations
                        .iter()
                        .map(|&(e, v)| (e as u64, v))
                        .collect(),
                };
                let opt = checkpoint::fresh_opt(self);
                let progress = TrainProgress::at_epoch_boundary(epoch as u64, global_step);
                cp.save(self, &opt, self.rng.state(), &progress, Some(&es), None)?;
            }
            if history.stopped_early {
                break;
            }
        }
        if let Some((_, snapshot, best_epoch)) = best {
            *self = Fvae::from_bytes(&snapshot).expect("own snapshot decodes");
            history.best_epoch = best_epoch;
        }
        Ok(history)
    }
}

/// Collects per-epoch history and forwards to the caller's observer with
/// epoch indices rebased from burst-local (each `train_observed` burst starts
/// at 0) to run-global.
struct BurstObserver<'a> {
    inner: &'a mut dyn TrainObserver,
    base: usize,
    epochs: &'a mut Vec<EpochStats>,
    /// Run-global optimizer step counter (each burst restarts its own at 0);
    /// checkpoints at burst boundaries record the cumulative count.
    steps: &'a mut u64,
}

impl TrainObserver for BurstObserver<'_> {
    fn on_step(&mut self, ctx: &StepCtx) {
        let rebased = StepCtx { epoch: self.base + ctx.epoch, ..*ctx };
        *self.steps += 1;
        self.inner.on_step(&rebased);
    }

    fn on_epoch(&mut self, epoch: usize, stats: &EpochStats) {
        self.epochs.push(*stats);
        self.inner.on_epoch(self.base + epoch, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FvaeConfig;
    use crate::observe::NullObserver;
    use fvae_data::{FieldSpec, SplitIndices, TopicModelConfig};

    fn setup() -> (MultiFieldDataset, Fvae, SplitIndices) {
        let ds = TopicModelConfig {
            n_users: 300,
            n_topics: 3,
            alpha: 0.15,
            fields: vec![
                FieldSpec::new("ch1", 16, 4, 1.0),
                FieldSpec::new("tag", 64, 6, 1.0),
            ],
            pair_prob: 0.2,
            seed: 77,
        }
        .generate();
        let mut cfg = FvaeConfig::for_dataset(&ds);
        cfg.latent_dim = 8;
        cfg.enc_hidden = 16;
        cfg.dec_hidden = vec![16];
        cfg.batch_size = 48;
        cfg.lr = 5e-3;
        let model = Fvae::new(cfg);
        let split = SplitIndices::random(ds.n_users(), 0.2, 0.0, 5);
        (ds, model, split)
    }

    #[test]
    fn validation_elbo_improves_with_training() {
        let (ds, mut model, split) = setup();
        let before = model.evaluate_elbo(&ds, &split.val);
        model.train_epochs(&ds, &split.train, 10, |_, _| {});
        let after = model.evaluate_elbo(&ds, &split.val);
        assert!(after > before, "val ELBO should improve: {before} → {after}");
    }

    #[test]
    fn early_stopping_restores_best_snapshot() {
        let (ds, mut model, split) = setup();
        let history = model
            .train_until_checkpointed(
                &ds,
                &split.train,
                &split.val,
                TrainOptions { max_epochs: 12, patience: 2, eval_every: 2 },
                &mut NullObserver,
                None,
                None,
            )
            .expect("training without a checkpointer performs no I/O");
        assert!(!history.validations.is_empty());
        let best_recorded = history
            .validations
            .iter()
            .map(|&(_, e)| e)
            .fold(f32::NEG_INFINITY, f32::max);
        let restored = model.evaluate_elbo(&ds, &split.val);
        assert!(
            (restored - best_recorded).abs() < 1e-3,
            "restored model ({restored}) must match the best validation point ({best_recorded})"
        );
        assert_eq!(
            history
                .validations
                .iter()
                .find(|&&(_, e)| (e - best_recorded).abs() < 1e-6)
                .expect("recorded")
                .0,
            history.best_epoch
        );
    }

    #[test]
    fn patience_limits_training_length() {
        let (ds, mut model, split) = setup();
        // Zero-capacity patience: stop at the first non-improvement.
        let history = model
            .train_until_checkpointed(
                &ds,
                &split.train,
                &split.val,
                TrainOptions { max_epochs: 40, patience: 1, eval_every: 1 },
                &mut NullObserver,
                None,
                None,
            )
            .expect("training without a checkpointer performs no I/O");
        assert!(
            history.epochs.len() < 40 || !history.stopped_early,
            "either stopped early or ran the full budget"
        );
    }
}
