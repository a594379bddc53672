//! Algorithm 1: mini-batch training of the FVAE with batched softmax and
//! feature sampling.

use fvae_data::{split::shuffled_batches, MultiFieldDataset};
use fvae_nn::{
    Activation, Adam, AdamState, DenseGrads, GradClip, MlpGrads, RowGrads, SampledSoftmaxOutput,
    SoftmaxBatch, Workspace,
};
use fvae_tensor::Matrix;

use crate::candidates::CandidateSet;
use crate::checkpoint::{Checkpointer, ResumePoint, SnapshotError, TrainProgress};
use crate::encoder::{split_stats_into, InputRows};
use crate::model::Fvae;
use crate::observe::{PhaseNs, StepCtx, TrainObserver};
use crate::sampling::sample_candidates_into;

/// Options for a crash-safe [`Fvae::train_checkpointed`] run.
#[derive(Default)]
pub struct TrainRun<'a> {
    /// Periodic snapshot writer. `None` = plain training.
    pub checkpointer: Option<&'a Checkpointer>,
    /// State decoded from a snapshot to continue from (see
    /// [`crate::checkpoint::TrainSnapshot::into_resume`]).
    pub resume: Option<ResumePoint>,
    /// Stop (with a final snapshot, when a checkpointer is set) once this
    /// many global optimizer steps have completed — the deterministic "kill"
    /// used by the fault-injection tests and the CI kill/resume smoke.
    pub stop_after_steps: Option<u64>,
}

/// What a [`Fvae::train_checkpointed`] run produced.
#[derive(Debug)]
pub struct TrainOutcome {
    /// Stats of the last *completed* epoch.
    pub last_epoch: EpochStats,
    /// False when `stop_after_steps` ended the run before `epochs` epochs.
    pub completed: bool,
    /// Global optimizer steps completed (cumulative across resumes).
    pub global_step: u64,
    /// Path of the most recent snapshot written during this call.
    pub last_checkpoint: Option<std::path::PathBuf>,
}

/// Loss breakdown of one training step (all values are per-user means).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Weighted multinomial reconstruction loss `(1/|α|)Σ α_k L_k / B`.
    pub recon: f32,
    /// Unweighted KL divergence per user.
    pub kl: f32,
    /// The β used at this step.
    pub beta: f32,
    /// Total candidate features across fields after batching + sampling.
    pub candidates: usize,
    /// Users in the batch.
    pub batch_size: usize,
    /// Wall time of the step in nanoseconds (populated by the trainer).
    pub wall_ns: u64,
    /// Training throughput of the step (populated by the trainer).
    pub users_per_sec: f32,
}

impl StepStats {
    /// Negative ELBO of the step (what training minimizes).
    pub fn loss(&self) -> f32 {
        self.recon + self.beta * self.kl
    }

    /// Writes the step's fields into a JSON object (the JSONL exporter's
    /// per-step payload).
    pub fn write_json(&self, o: &mut fvae_obs::JsonObj) {
        o.f32("recon", self.recon)
            .f32("kl", self.kl)
            .f32("beta", self.beta)
            .f32("loss", self.loss())
            .usize("candidates", self.candidates)
            .usize("batch_size", self.batch_size)
            .u64("wall_ns", self.wall_ns)
            .f32("users_per_sec", self.users_per_sec);
    }
}

/// Aggregated epoch statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochStats {
    /// Mean per-user reconstruction loss.
    pub recon: f32,
    /// Mean per-user KL.
    pub kl: f32,
    /// β at the end of the epoch.
    pub beta: f32,
    /// Users processed.
    pub users: usize,
    /// Mean candidate-set size per step.
    pub mean_candidates: f64,
    /// Optimizer steps taken in the epoch (populated by the trainer).
    pub steps: usize,
    /// Wall time of the epoch in seconds (populated by the trainer).
    pub wall_secs: f64,
    /// Training throughput of the epoch (populated by the trainer).
    pub users_per_sec: f64,
}

impl EpochStats {
    /// The (negative) ELBO estimate for the epoch.
    pub fn elbo(&self) -> f32 {
        -(self.recon + self.beta * self.kl)
    }

    /// Writes the epoch's fields into a JSON object (the JSONL exporter's
    /// per-epoch payload).
    pub fn write_json(&self, o: &mut fvae_obs::JsonObj) {
        o.f32("recon", self.recon)
            .f32("kl", self.kl)
            .f32("beta", self.beta)
            .f32("elbo", self.elbo())
            .usize("users", self.users)
            .usize("steps", self.steps)
            .f64("mean_candidates", self.mean_candidates)
            .f64("wall_secs", self.wall_secs)
            .f64("users_per_sec", self.users_per_sec);
    }
}

/// Saturating `Duration → u64` nanoseconds.
#[inline]
fn dur_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-step scratch for [`Fvae::train_batch`]. Owned by the optimizer state
/// so every buffer of the hot path — activations, gradients, candidate sets,
/// the sparse-gradient row panels, and the [`Workspace`] arena behind the
/// layers' `*_into` calls — survives across steps. After a warm-up step at
/// each batch shape, a steady-state step performs no heap allocation.
#[derive(Default)]
pub(crate) struct TrainScratch {
    ws: Workspace,
    input: InputRows,
    x0: Matrix,
    slots: Vec<Vec<Vec<u32>>>,
    extra_acts: Vec<Matrix>,
    stats: Matrix,
    mu: Matrix,
    logvar: Matrix,
    z: Matrix,
    eps: Matrix,
    trunk_acts: Vec<Matrix>,
    dh_dec: Matrix,
    // Per-field batched-softmax state.
    cands: CandidateSet,
    freqs: Vec<f32>,
    sampled: Vec<u32>,
    cand_ids: Vec<u64>,
    sm: SoftmaxBatch,
    targets: Vec<Vec<(u32, f32)>>,
    dlogits: Matrix,
    dh_k: Matrix,
    db_dense: Vec<f32>,
    head_dw: Vec<RowGrads>,
    head_db: Vec<Vec<(usize, f32)>>,
    head_active: Vec<bool>,
    // KL / latent backward.
    row_beta: Vec<f32>,
    dmu_unit: Matrix,
    dlv_unit: Matrix,
    trunk_grads: MlpGrads,
    dz: Matrix,
    dmu: Matrix,
    dlogvar: Matrix,
    dstats: Matrix,
    head_g: DenseGrads,
    dh_enc: Matrix,
    extra_grads: MlpGrads,
    dx0: Matrix,
    bias_grad: Vec<f32>,
    bag_grads: Vec<RowGrads>,
    /// Per-phase wall time of the most recent step (observability timeline).
    phases: PhaseNs,
}

/// Visits every dense gradient buffer of the current step in a fixed order.
/// Global-norm clipping walks them twice (sum of squares, then scaling)
/// instead of collecting `&mut` references into a per-step vector.
fn for_each_dense_grad(sc: &mut TrainScratch, f: &mut impl FnMut(&mut [f32])) {
    f(sc.head_g.dw.as_mut_slice());
    f(&mut sc.head_g.db);
    for g in sc.trunk_grads.iter_mut() {
        f(g.dw.as_mut_slice());
        f(&mut g.db);
    }
    for g in sc.extra_grads.iter_mut() {
        f(g.dw.as_mut_slice());
        f(&mut g.db);
    }
    f(&mut sc.bias_grad);
}

/// Adam moment state for every parameter group of the model, plus the
/// reusable training scratch. Fields are crate-visible so the checkpoint
/// module can capture and reinstall the moment buffers.
pub(crate) struct OptStates {
    adam: Adam,
    clip: Option<GradClip>,
    pub(crate) bags: Vec<AdamState>,
    pub(crate) enc_bias: AdamState,
    pub(crate) enc_extra: Vec<(AdamState, AdamState)>,
    pub(crate) enc_head: (AdamState, AdamState),
    pub(crate) trunk: Vec<(AdamState, AdamState)>,
    pub(crate) heads_w: Vec<AdamState>,
    pub(crate) heads_b: Vec<AdamState>,
    scratch: TrainScratch,
}

impl OptStates {
    pub(crate) fn new(model: &Fvae) -> Self {
        let cfg = &model.cfg;
        Self {
            adam: Adam::new(cfg.lr),
            clip: if cfg.clip_norm > 0.0 { Some(GradClip::new(cfg.clip_norm)) } else { None },
            bags: (0..cfg.n_fields).map(|_| AdamState::default()).collect(),
            enc_bias: AdamState::default(),
            enc_extra: model
                .enc
                .extra
                .as_ref()
                .map(|m| m.layers().iter().map(|_| Default::default()).collect())
                .unwrap_or_default(),
            enc_head: Default::default(),
            trunk: model.trunk.layers().iter().map(|_| Default::default()).collect(),
            heads_w: (0..cfg.n_fields).map(|_| AdamState::default()).collect(),
            heads_b: (0..cfg.n_fields).map(|_| AdamState::default()).collect(),
            scratch: TrainScratch::default(),
        }
    }
}

impl Fvae {
    /// Trains for `config.epochs` epochs over `users`, invoking `callback`
    /// after each epoch.
    pub fn train(
        &mut self,
        ds: &MultiFieldDataset,
        users: &[usize],
        callback: impl FnMut(usize, &EpochStats),
    ) {
        let epochs = self.cfg.epochs;
        self.train_epochs(ds, users, epochs, callback);
    }

    /// Trains for an explicit number of epochs, reporting each epoch to a
    /// bare closure (kept for compatibility; [`Fvae::train_observed`] is the
    /// structured interface).
    pub fn train_epochs(
        &mut self,
        ds: &MultiFieldDataset,
        users: &[usize],
        epochs: usize,
        callback: impl FnMut(usize, &EpochStats),
    ) {
        self.train_observed(ds, users, epochs, &mut crate::observe::EpochCallback(callback));
    }

    /// Trains for `epochs` epochs, reporting every optimizer step and epoch
    /// to `observer` (see [`crate::observe`]). Returns the last epoch's
    /// statistics.
    pub fn train_observed(
        &mut self,
        ds: &MultiFieldDataset,
        users: &[usize],
        epochs: usize,
        observer: &mut dyn TrainObserver,
    ) -> EpochStats {
        self.train_checkpointed(ds, users, epochs, observer, TrainRun::default())
            .expect("training without a checkpointer performs no I/O")
            .last_epoch
    }

    /// [`Fvae::train_observed`] with crash-safety: periodic snapshots via a
    /// [`Checkpointer`], resume from a [`crate::checkpoint::TrainSnapshot`],
    /// and a deterministic stop point for kill/resume testing.
    ///
    /// A resumed run is step-for-step **bit-identical** to an uninterrupted
    /// one with the same seed: snapshots carry the weights and dynamic hash
    /// tables, every Adam moment, the exact RNG state, the current epoch's
    /// shuffled batch order, and the epoch's partial loss sums. Only
    /// wall-clock fields (`wall_ns`, `wall_secs`, throughput) differ.
    pub fn train_checkpointed(
        &mut self,
        ds: &MultiFieldDataset,
        users: &[usize],
        epochs: usize,
        observer: &mut dyn TrainObserver,
        mut run: TrainRun<'_>,
    ) -> Result<TrainOutcome, SnapshotError> {
        let mut opt = OptStates::new(self);
        let (mut global_step, start_epoch, mut mid_epoch) = match run.resume.take() {
            Some(rp) => {
                rp.opt.install(&mut opt).map_err(SnapshotError::Decode)?;
                self.rng = rand::rngs::StdRng::from_state(rp.rng_state);
                let start_epoch = rp.progress.epoch as usize;
                let resumes_mid = !rp.progress.epoch_order.is_empty();
                (
                    rp.progress.global_step,
                    start_epoch,
                    if resumes_mid { Some(rp.progress) } else { None },
                )
            }
            None => (0, 0, None),
        };
        let mut outcome = TrainOutcome {
            last_epoch: EpochStats::default(),
            completed: true,
            global_step,
            last_checkpoint: None,
        };
        for epoch in start_epoch..epochs {
            let (stats, epoch_complete) = self.train_one_epoch_run(
                ds,
                users,
                &mut opt,
                epoch,
                &mut global_step,
                observer,
                mid_epoch.take(),
                &run,
                &mut outcome.last_checkpoint,
            )?;
            outcome.global_step = global_step;
            if !epoch_complete {
                outcome.completed = false;
                return Ok(outcome);
            }
            observer.on_epoch(epoch, &stats);
            outcome.last_epoch = stats;
            let stop_hit = run.stop_after_steps.is_some_and(|m| global_step >= m);
            if stop_hit && epoch + 1 < epochs {
                outcome.completed = false;
                return Ok(outcome);
            }
        }
        Ok(outcome)
    }

    /// One epoch of the resumable trainer. `mid_epoch` carries a snapshot's
    /// in-epoch position (batch order, partial sums) when resuming inside
    /// this epoch. Returns the epoch stats and whether the epoch ran to its
    /// last batch (false = stopped by `stop_after_steps`).
    #[allow(clippy::too_many_arguments)]
    fn train_one_epoch_run(
        &mut self,
        ds: &MultiFieldDataset,
        users: &[usize],
        opt: &mut OptStates,
        epoch: usize,
        global_step: &mut u64,
        observer: &mut dyn TrainObserver,
        mid_epoch: Option<TrainProgress>,
        run: &TrainRun<'_>,
        last_checkpoint: &mut Option<std::path::PathBuf>,
    ) -> Result<(EpochStats, bool), SnapshotError> {
        let epoch_start = std::time::Instant::now();
        let batch_size = self.cfg.batch_size;
        // The shuffle consumes RNG at epoch start, so a mid-epoch resume
        // replays the recorded order instead of re-deriving it (the RNG has
        // already advanced past the shuffle in the snapshot's state).
        let (order, start_step, mut recon, mut kl, mut beta, mut cand) = match mid_epoch {
            Some(p) => (
                p.epoch_order.iter().map(|&u| u as usize).collect::<Vec<usize>>(),
                p.step_in_epoch as usize,
                p.recon_sum,
                p.kl_sum,
                p.beta,
                p.cand_sum,
            ),
            None => {
                let batches = shuffled_batches(users, batch_size, &mut self.rng);
                let order: Vec<usize> = batches.into_iter().flatten().collect();
                (order, 0, 0.0f64, 0.0f64, 0.0f32, 0.0f64)
            }
        };
        let n_batches = order.len().div_ceil(batch_size);
        let mut epoch_complete = true;
        for (i, batch) in order.chunks(batch_size).enumerate().skip(start_step) {
            let s = self.train_batch(ds, batch, opt);
            recon += s.recon as f64 * s.batch_size as f64;
            kl += s.kl as f64 * s.batch_size as f64;
            beta = s.beta;
            cand += s.candidates as f64;
            let phases = opt.scratch.phases;
            observer.on_step(&StepCtx {
                epoch,
                step: i,
                global_step: *global_step,
                stats: &s,
                phases: &phases,
                scratch: opt.scratch.ws.stats(),
            });
            *global_step += 1;
            let stop_now = run.stop_after_steps.is_some_and(|m| *global_step >= m);
            if let Some(cp) = run.checkpointer {
                if cp.due(*global_step) || stop_now {
                    let progress = TrainProgress {
                        epoch: epoch as u64,
                        step_in_epoch: (i + 1) as u64,
                        global_step: *global_step,
                        epoch_order: order.iter().map(|&u| u as u64).collect(),
                        recon_sum: recon,
                        kl_sum: kl,
                        cand_sum: cand,
                        beta,
                    };
                    let path = cp.save(self, opt, self.rng.state(), &progress, None, None)?;
                    *last_checkpoint = Some(path);
                }
            }
            if stop_now && i + 1 < n_batches {
                epoch_complete = false;
                break;
            }
        }
        let n = users.len().max(1) as f64;
        let wall_secs = epoch_start.elapsed().as_secs_f64();
        let stats = EpochStats {
            recon: (recon / n) as f32,
            kl: (kl / n) as f32,
            beta,
            users: users.len(),
            mean_candidates: if n_batches == 0 { 0.0 } else { cand / n_batches as f64 },
            steps: n_batches,
            wall_secs,
            users_per_sec: if wall_secs > 0.0 { users.len() as f64 / wall_secs } else { 0.0 },
        };
        Ok((stats, epoch_complete))
    }

    /// One optimizer step on one mini-batch (the body of Algorithm 1).
    ///
    /// All intermediate buffers live in `opt.scratch`; after one warm-up
    /// step at a given batch shape the hot path allocates nothing.
    pub(crate) fn train_batch(
        &mut self,
        ds: &MultiFieldDataset,
        batch_users: &[usize],
        opt: &mut OptStates,
    ) -> StepStats {
        let step_start = std::time::Instant::now();
        let b = batch_users.len();
        assert!(b > 0, "empty batch");
        let inv_b = 1.0 / b as f32;
        let alpha_norm = self.cfg.alpha_norm();
        let beta = self.cfg.beta_at(self.step);
        self.step += 1;
        let n_fields = self.cfg.n_fields;
        let sc = &mut opt.scratch;

        // ---- Forward: encoder -------------------------------------------
        self.build_input_into(ds, batch_users, &mut sc.input);
        let t_assembled = std::time::Instant::now();
        self.enc.front_train_into(&sc.input, &mut self.rng, &mut sc.x0, &mut sc.slots);
        self.enc.stats_into(&sc.x0, &mut sc.extra_acts, &mut sc.stats);
        split_stats_into(&sc.stats, &mut sc.mu, &mut sc.logvar);
        self.reparametrize_into(&sc.mu, &sc.logvar, &mut sc.z, &mut sc.eps);
        let t_encoded = std::time::Instant::now();

        // ---- Forward: decoder trunk --------------------------------------
        self.trunk.forward_cached_into(&sc.z, &mut sc.trunk_acts);
        let t_decoded = std::time::Instant::now();

        // ---- Per-field batched softmax + multinomial loss ----------------
        sc.dh_dec.resize_zeroed(b, self.trunk.out_dim());
        let mut recon = 0.0f32;
        let mut total_candidates = 0usize;
        sc.head_active.clear();
        sc.head_active.resize(n_fields, false);
        sc.head_dw.resize_with(n_fields, RowGrads::default);
        sc.head_db.resize_with(n_fields, Vec::new);
        for k in 0..n_fields {
            // Batch-unique features sorted by id (the batched softmax of
            // §IV-C2); built from the *target* rows so the loss always has
            // support.
            sc.cands.gather(ds, batch_users, k);
            if sc.cands.columns().is_empty() {
                continue;
            }

            // Feature sampling (§IV-C3) on the configured sparse fields, over
            // the features' in-batch frequencies (summed in batch-user order).
            if self.cfg.sampling.sampled_fields[k] && self.cfg.sampling.rate < 1.0 {
                sc.freqs.clear();
                sc.freqs.resize(sc.cands.columns().len(), 0.0);
                for &u in batch_users {
                    let (ix, vs) = ds.user_field(u, k);
                    for (&i, &v) in ix.iter().zip(vs) {
                        sc.freqs[sc.cands.column(i).expect("gathered") as usize] += v;
                    }
                }
                sample_candidates_into(
                    sc.cands.columns(),
                    &sc.freqs,
                    self.cfg.sampling.rate,
                    self.cfg.sampling.strategy,
                    &mut self.rng,
                    &mut sc.sampled,
                );
                sc.cands.reset(ds.field_vocab(k));
                for &f in &sc.sampled {
                    sc.cands.insert(f);
                }
            }
            // Sampled-softmax uniform-negative pad: a few random vocabulary
            // features join the candidates so that rarely-batch-active
            // features still receive calibrating (downward) gradient.
            if self.cfg.sampling.negative_pad > 0.0 {
                use rand::RngExt as _;
                let vocab = ds.field_vocab(k) as u32;
                let pad = (sc.cands.columns().len() as f64 * self.cfg.sampling.negative_pad).ceil()
                    as usize;
                let (mut added, mut guard) = (0, 0);
                while added < pad && guard < pad * 20 {
                    guard += 1;
                    if sc.cands.insert(self.rng.random_range(0..vocab)) {
                        added += 1;
                    }
                }
            }
            total_candidates += sc.cands.columns().len();
            sc.cand_ids.clear();
            sc.cand_ids.extend(sc.cands.columns().iter().map(|&f| u64::from(f)));
            self.heads[k].forward_into(
                sc.trunk_acts.last().expect("non-empty"),
                &sc.cand_ids,
                &mut self.rng,
                &mut sc.sm,
            );

            // Targets: the user's observed features that survived into the
            // candidate set, with their original multi-hot counts.
            sc.targets.resize_with(b, Vec::new);
            for (row, &u) in sc.targets.iter_mut().zip(batch_users.iter()) {
                row.clear();
                let (ix, vs) = ds.user_field(u, k);
                row.extend(
                    ix.iter()
                        .zip(vs.iter())
                        .filter_map(|(&i, &v)| sc.cands.column(i).map(|c| (c, v))),
                );
            }

            let loss_k = SampledSoftmaxOutput::multinomial_loss_into(
                &sc.sm,
                &sc.targets[..b],
                &mut sc.dlogits,
            );
            let scale = self.cfg.alpha[k] / alpha_norm;
            recon += scale * loss_k * inv_b;
            sc.dlogits.scale(scale * inv_b);
            self.heads[k].backward_sharded_into(
                sc.trunk_acts.last().expect("non-empty"),
                &sc.sm,
                &sc.dlogits,
                &mut sc.dh_k,
                &mut sc.head_dw[k],
                &mut sc.head_db[k],
                &mut sc.db_dense,
                fvae_pool::global(),
            );
            sc.dh_dec.add_assign(&sc.dh_k);
            sc.head_active[k] = true;
        }
        let t_softmaxed = std::time::Instant::now();

        // ---- KL term ------------------------------------------------------
        let kl_sum = Fvae::kl_and_grads_into(&sc.mu, &sc.logvar, &mut sc.dmu_unit, &mut sc.dlv_unit);
        let kl_mean = kl_sum * inv_b;
        // Per-user KL weight: plain annealed β, or RecVAE-style β_i = β·γ·N_i.
        sc.row_beta.clear();
        if self.cfg.user_beta_gamma > 0.0 {
            sc.row_beta.extend(batch_users.iter().map(|&u| {
                let n_i: f32 = (0..n_fields)
                    .map(|k| ds.user_field(u, k).1.iter().sum::<f32>())
                    .sum();
                beta * self.cfg.user_beta_gamma * n_i
            }));
        } else {
            sc.row_beta.resize(b, beta);
        }

        // ---- Backward: trunk → z ------------------------------------------
        self.trunk.backward_into(
            &sc.z,
            &sc.trunk_acts,
            &sc.dh_dec,
            &mut sc.trunk_grads,
            &mut sc.dz,
            &mut sc.ws,
        );

        // dμ = dz + β_i/B·μ ; dlogσ² = dz ⊙ ½ε·σ + β_i/B·½(σ²−1)
        let d = self.cfg.latent_dim;
        sc.dmu.resize_zeroed(b, d);
        sc.dmu.as_mut_slice().copy_from_slice(sc.dz.as_slice());
        for r in 0..b {
            let scale = sc.row_beta[r] * inv_b;
            fvae_tensor::ops::axpy(scale, sc.dmu_unit.row(r), sc.dmu.row_mut(r));
        }
        sc.dlogvar.resize_zeroed(b, d);
        for r in 0..b {
            let scale = sc.row_beta[r] * inv_b;
            let lv_row = sc.logvar.row(r);
            let dz_row = sc.dz.row(r);
            let eps_row = sc.eps.row(r);
            let unit_row = sc.dlv_unit.row(r);
            let out = sc.dlogvar.row_mut(r);
            for i in 0..d {
                let sigma = (0.5 * lv_row[i]).exp();
                out[i] = dz_row[i] * 0.5 * eps_row[i] * sigma + scale * unit_row[i];
            }
        }

        // ---- Backward: encoder head → layer 0 -----------------------------
        sc.dstats.resize_zeroed(b, 2 * d);
        for r in 0..b {
            let row = sc.dstats.row_mut(r);
            row[..d].copy_from_slice(sc.dmu.row(r));
            row[d..].copy_from_slice(sc.dlogvar.row(r));
        }
        // The head's input: the extra MLP's output, or `x0` without one.
        let h_enc = sc.extra_acts.last().unwrap_or(&sc.x0);
        self.enc.head.backward_into(
            h_enc,
            &sc.stats,
            &sc.dstats,
            &mut sc.head_g,
            &mut sc.dh_enc,
            &mut sc.ws,
        );
        match &self.enc.extra {
            Some(mlp) => mlp.backward_into(
                &sc.x0,
                &sc.extra_acts,
                &sc.dh_enc,
                &mut sc.extra_grads,
                &mut sc.dx0,
                &mut sc.ws,
            ),
            None => {
                sc.extra_grads.clear();
                std::mem::swap(&mut sc.dx0, &mut sc.dh_enc);
            }
        }
        Activation::Tanh.chain(&sc.x0, &mut sc.dx0);
        sc.dx0.col_sums_into(&mut sc.bias_grad);
        sc.bag_grads.resize_with(n_fields, RowGrads::default);
        for k in 0..n_fields {
            self.enc.bags[k].backward_sharded_into(
                &sc.slots[k],
                sc.input.field(k).1,
                &sc.dx0,
                &mut sc.bag_grads[k],
                fvae_pool::global(),
            );
        }

        // ---- Gradient clipping (dense groups) -----------------------------
        if let Some(clip) = opt.clip {
            let mut sq = 0.0f32;
            for_each_dense_grad(sc, &mut |g| sq += g.iter().map(|x| x * x).sum::<f32>());
            let norm = sq.sqrt();
            if norm > clip.max_norm && norm > 0.0 {
                let s = clip.max_norm / norm;
                for_each_dense_grad(sc, &mut |g| fvae_tensor::ops::scale(s, g));
            }
        }
        let t_backward = std::time::Instant::now();
        let mut stats = self.apply_updates(opt, recon, kl_mean, beta, total_candidates, b);
        let t_end = std::time::Instant::now();
        opt.scratch.phases = PhaseNs {
            batch_assembly: dur_ns(t_assembled - step_start),
            encoder_fwd: dur_ns(t_encoded - t_assembled),
            decoder_fwd: dur_ns(t_decoded - t_encoded),
            sampled_softmax: dur_ns(t_softmaxed - t_decoded),
            backward: dur_ns(t_backward - t_softmaxed),
            optimizer: dur_ns(t_end - t_backward),
        };
        stats.wall_ns = dur_ns(t_end - step_start);
        let wall_secs = (t_end - step_start).as_secs_f64();
        stats.users_per_sec =
            if wall_secs > 0.0 { (b as f64 / wall_secs) as f32 } else { 0.0 };
        stats
    }

    fn apply_updates(
        &mut self,
        opt: &mut OptStates,
        recon: f32,
        kl_mean: f32,
        beta: f32,
        candidates: usize,
        batch_size: usize,
    ) -> StepStats {
        // Split borrow: every optimizer-state group and the scratch holding
        // the gradients are distinct fields of `opt`.
        let OptStates {
            adam,
            bags: opt_bags,
            enc_bias: opt_enc_bias,
            enc_extra: opt_enc_extra,
            enc_head: opt_enc_head,
            trunk: opt_trunk,
            heads_w,
            heads_b,
            scratch: sc,
            ..
        } = opt;
        let adam = *adam;
        for (k, grads) in sc.bag_grads.iter().enumerate() {
            let dim = self.enc.bags[k].dim();
            adam.step_rows(&mut opt_bags[k], self.enc.bags[k].weights_mut(), dim, grads);
        }
        adam.step_slice(opt_enc_bias, &mut self.enc.bias, &sc.bias_grad);
        if let Some(mlp) = self.enc.extra.as_mut() {
            for ((layer, g), (sw, sb)) in
                mlp.layers_mut().iter_mut().zip(sc.extra_grads.iter()).zip(opt_enc_extra.iter_mut())
            {
                let (w, bias) = layer.params_mut();
                adam.step_matrix(sw, w, &g.dw);
                adam.step_slice(sb, bias, &g.db);
            }
        }
        {
            let (w, bias) = self.enc.head.params_mut();
            adam.step_matrix(&mut opt_enc_head.0, w, &sc.head_g.dw);
            adam.step_slice(&mut opt_enc_head.1, bias, &sc.head_g.db);
        }
        for ((layer, g), (sw, sb)) in self
            .trunk
            .layers_mut()
            .iter_mut()
            .zip(sc.trunk_grads.iter())
            .zip(opt_trunk.iter_mut())
        {
            let (w, bias) = layer.params_mut();
            adam.step_matrix(sw, w, &g.dw);
            adam.step_slice(sb, bias, &g.db);
        }
        for k in 0..self.cfg.n_fields {
            if sc.head_active[k] {
                let dim = self.heads[k].dim();
                adam.step_rows(&mut heads_w[k], self.heads[k].weights_mut(), dim, &sc.head_dw[k]);
                adam.step_scalars(&mut heads_b[k], self.heads[k].bias_mut(), &sc.head_db[k]);
            }
        }
        // wall_ns / users_per_sec are stamped by `train_batch` once the
        // optimizer phase is timed.
        StepStats { recon, kl: kl_mean, beta, candidates, batch_size, wall_ns: 0, users_per_sec: 0.0 }
    }

    /// Public single-batch step for benchmarking (Table V measures training
    /// throughput per batch); creates fresh optimizer state on first use via
    /// [`Fvae::make_opt_states`].
    pub fn train_single_batch(
        &mut self,
        ds: &MultiFieldDataset,
        batch_users: &[usize],
        opt: &mut FvaeOptHandle,
    ) -> StepStats {
        self.train_batch(ds, batch_users, &mut opt.0)
    }

    /// Creates an optimizer-state handle for [`Fvae::train_single_batch`].
    pub fn make_opt_states(&self) -> FvaeOptHandle {
        FvaeOptHandle(OptStates::new(self))
    }
}

/// Opaque optimizer state handle for external training loops (benchmarks,
/// the distributed trainer).
pub struct FvaeOptHandle(pub(crate) OptStates);

impl FvaeOptHandle {
    /// Cumulative count of scratch-arena requests that could not be served
    /// from pooled capacity, plus sparse-gradient panel fills that had to
    /// grow a buffer. Flat across steps ⇒ the hot path is allocation-free in
    /// steady state.
    pub fn scratch_allocs(&self) -> u64 {
        let sc = &self.0.scratch;
        sc.ws.allocs()
            + sc.head_dw.iter().map(RowGrads::allocs).sum::<u64>()
            + sc.bag_grads.iter().map(RowGrads::allocs).sum::<u64>()
    }

    /// Per-phase wall time of the most recent step.
    pub fn last_phases(&self) -> PhaseNs {
        self.0.scratch.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FvaeConfig;
    use fvae_data::{FieldSpec, TopicModelConfig};

    fn tiny_ds() -> MultiFieldDataset {
        TopicModelConfig {
            n_users: 120,
            n_topics: 3,
            alpha: 0.15,
            fields: vec![
                FieldSpec::new("ch1", 12, 3, 1.0),
                FieldSpec::new("tag", 48, 5, 1.0),
            ],
            pair_prob: 0.0,
            seed: 9,
        }
        .generate()
    }

    fn tiny_cfg(ds: &MultiFieldDataset) -> FvaeConfig {
        let mut cfg = FvaeConfig::for_dataset(ds);
        cfg.latent_dim = 8;
        cfg.enc_hidden = 16;
        cfg.dec_hidden = vec![16];
        cfg.batch_size = 24;
        cfg.dropout = 0.1;
        cfg.anneal_steps = 20;
        cfg
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg(&ds);
        // Isolate the reconstruction path: no KL pressure, no candidate
        // sampling (sampling changes the loss's support set step to step).
        cfg.beta_cap = 0.0;
        cfg.sampling.rate = 1.0;
        cfg.dropout = 0.0;
        cfg.lr = 5e-3;
        let mut model = Fvae::new(cfg);
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let mut history = Vec::new();
        model.train_epochs(&ds, &users, 40, |_, s| history.push(s.recon));
        let first = history[0];
        let last = *history.last().expect("non-empty");
        assert!(
            last < first * 0.9,
            "reconstruction loss should fall: {first} → {last}"
        );
        assert!(history.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn beta_anneals_during_training() {
        let ds = tiny_ds();
        let mut model = Fvae::new(tiny_cfg(&ds));
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let mut betas = Vec::new();
        model.train_epochs(&ds, &users, 6, |_, s| betas.push(s.beta));
        assert!(betas[0] < betas[betas.len() - 1] || betas[0] >= model.cfg.beta_cap * 0.99);
        assert!(betas.iter().all(|&b| b <= model.cfg.beta_cap + 1e-6));
    }

    #[test]
    fn sampling_shrinks_candidate_sets() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg(&ds);
        cfg.sampling.rate = 1.0;
        let mut full = Fvae::new(cfg.clone());
        cfg.sampling.rate = 0.2;
        cfg.sampling.sampled_fields = vec![true, true];
        let mut sampled = Fvae::new(cfg);
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let mut full_c = 0.0;
        full.train_epochs(&ds, &users, 1, |_, s| full_c = s.mean_candidates);
        let mut samp_c = 0.0;
        sampled.train_epochs(&ds, &users, 1, |_, s| samp_c = s.mean_candidates);
        assert!(
            samp_c < full_c * 0.5,
            "sampling at r=0.2 should shrink candidates: {samp_c} vs {full_c}"
        );
    }

    #[test]
    fn user_specific_beta_scales_regularization() {
        let ds = tiny_ds();
        // With γ > 0, KL pressure is proportional to profile size; the model
        // still trains to finite parameters and differs from the plain-β run.
        let mut cfg_plain = tiny_cfg(&ds);
        cfg_plain.beta_cap = 0.2;
        let mut cfg_user = cfg_plain.clone();
        cfg_user.user_beta_gamma = 0.05;
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let mut plain = Fvae::new(cfg_plain);
        plain.train_epochs(&ds, &users, 4, |_, s| assert!(s.recon.is_finite()));
        let mut user_beta = Fvae::new(cfg_user);
        user_beta.train_epochs(&ds, &users, 4, |_, s| assert!(s.recon.is_finite()));
        let a = plain.embed_users(&ds, &users[..8], None);
        let b = user_beta.embed_users(&ds, &users[..8], None);
        assert!(a.is_finite() && b.is_finite());
        assert_ne!(a.as_slice(), b.as_slice(), "γ must change the optimization");
    }

    #[test]
    fn parameters_stay_finite_through_training() {
        let ds = tiny_ds();
        let mut model = Fvae::new(tiny_cfg(&ds));
        let users: Vec<usize> = (0..ds.n_users()).collect();
        model.train_epochs(&ds, &users, 3, |_, _| {});
        assert!(model.enc.head.params().0.is_finite());
        assert!(model.enc.bags.iter().all(|b| b.weights().iter().all(|v| v.is_finite())));
        let (mu, logvar) = model.encode(&ds, &users[..5], None);
        assert!(mu.is_finite() && logvar.is_finite());
    }

    #[test]
    fn steady_state_steps_do_not_allocate_scratch() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg(&ds);
        // Fix the candidate-set support: rate 1.0 means every step sees the
        // same batch-unique feature set, so buffer shapes are stable.
        cfg.sampling.rate = 1.0;
        cfg.dropout = 0.0;
        cfg.field_dropout = 0.0;
        let mut model = Fvae::new(cfg);
        let mut opt = model.make_opt_states();
        let users: Vec<usize> = (0..24).collect();
        // Warm-up: the first steps grow every pooled buffer to its
        // steady-state capacity (and insert unseen IDs into the bags).
        for _ in 0..3 {
            model.train_single_batch(&ds, &users, &mut opt);
        }
        let warm = opt.scratch_allocs();
        for _ in 0..10 {
            model.train_single_batch(&ds, &users, &mut opt);
        }
        assert_eq!(
            opt.scratch_allocs(),
            warm,
            "workspace must serve all steady-state requests from pooled capacity"
        );
    }

    #[test]
    fn trained_embeddings_separate_topics_better_than_random() {
        let ds = tiny_ds();
        let mut model = Fvae::new(tiny_cfg(&ds));
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let sep = |m: &Fvae| {
            let emb = m.embed_users(&ds, &users, None);
            // Mean within-topic vs cross-topic cosine similarity.
            let mut within = (0.0f64, 0usize);
            let mut cross = (0.0f64, 0usize);
            for i in 0..60 {
                for j in (i + 1)..60 {
                    let c = fvae_tensor::ops::cosine_similarity(emb.row(i), emb.row(j)) as f64;
                    if ds.user_topics[i] == ds.user_topics[j] {
                        within = (within.0 + c, within.1 + 1);
                    } else {
                        cross = (cross.0 + c, cross.1 + 1);
                    }
                }
            }
            within.0 / within.1.max(1) as f64 - cross.0 / cross.1.max(1) as f64
        };
        model.train_epochs(&ds, &users, 10, |_, _| {});
        let after = sep(&model);
        assert!(after > 0.02, "topic separation after training: {after}");
    }
}
