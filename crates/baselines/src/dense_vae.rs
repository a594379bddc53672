//! Mult-DAE, Mult-VAE (Liang et al. \[8\]) and RecVAE (Shenbin et al. \[23\]):
//! autoencoders with a *single* multinomial likelihood over the
//! concatenated feature space — the direct ancestors FVAE extends with
//! field awareness. The three differ only in the prior term, so one
//! [`DenseVae`] trains all of them through one step, parameterised by its
//! `Prior`:
//!
//! * **Mult-DAE** ([`DenseVae::mult_dae`]) — no prior: the encoder emits a
//!   `latent_dim`-wide tanh code, and the model is a denoising autoencoder
//!   (no sampling, no KL).
//! * **Mult-VAE** ([`DenseVae::mult_vae`]) — a standard Gaussian prior whose
//!   KL weight anneals linearly ([`fvae_nn::linear_anneal`], the schedule
//!   FVAE uses).
//! * **RecVAE** ([`DenseVae::rec_vae`]) — a *composite prior* and a
//!   *user-specific β*. The prior mixes a standard normal, the previous
//!   epoch's posterior (an encoder snapshot), and a wide normal:
//!   `p(z|x) = ω₁·N(0,I) + ω₂·N(μ_old(x), σ²_old(x)) + ω₃·N(0, 10·I)`.
//!   Its KL term has no closed form, so the Monte-Carlo estimate
//!   `log q(z|x) − log p(z)` at the sampled `z` is used; the gradient
//!   identities are derived in the code comments. β is rescaled per user as
//!   `β_i = γ·N_i` (the paper's "user-specific β" with `γ` a global knob).
//!   Simplification vs. the original: encoder and decoder are updated
//!   jointly each step instead of RecVAE's alternating schedule — at this
//!   data scale the alternation changes nothing measurable and the
//!   composite prior/user-β are the ingredients the FVAE paper compares
//!   against.
//!
//! All three materialize the dense `J`-wide input/output layers, which is
//! exactly why they cannot scale (Table V): every batch costs `O(J·D)`. For
//! the large presets the paper's footnote applies — "all features are mapped
//! to a 20-bit space by feature hashing since the original billion-scale
//! size is too large for Mult-VAE" — reproduced here via the optional
//! `hash_bits` (collisions and all).

use std::hash::BuildHasher;

use fvae_data::MultiFieldDataset;
use fvae_nn::{Activation, Adam, AdamState, Dropout, Mlp, MlpGrads, Workspace};
use fvae_sparse::hasher::FastBuildHasher;
use fvae_tensor::dist::Gaussian;
use fvae_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::input::{concat_row_into, ConcatLayout};
use crate::obs::FitObs;
use crate::RepresentationModel;
use fvae_obs::{Registry, Span};

/// Adam states for every layer of an MLP.
struct MlpAdam {
    states: Vec<(AdamState, AdamState)>,
}

impl MlpAdam {
    fn new(mlp: &Mlp) -> Self {
        Self { states: mlp.layers().iter().map(|_| Default::default()).collect() }
    }

    fn step(&mut self, adam: &Adam, mlp: &mut Mlp, grads: &[fvae_nn::DenseGrads]) {
        for ((layer, g), (sw, sb)) in
            mlp.layers_mut().iter_mut().zip(grads).zip(self.states.iter_mut())
        {
            let (w, b) = layer.params_mut();
            adam.step_matrix(sw, w, &g.dw);
            adam.step_slice(sb, b, &g.db);
        }
    }
}

/// Dense input plumbing: the concatenated layout and the optional hashing.
struct DenseInput {
    layout: ConcatLayout,
    hash_bits: Option<u32>,
    input_dim: usize,
    hasher: FastBuildHasher,
}

impl DenseInput {
    fn new(ds: &MultiFieldDataset, hash_bits: Option<u32>) -> Self {
        let layout = ConcatLayout::of(ds);
        let input_dim = match hash_bits {
            Some(bits) => 1usize << bits,
            None => layout.total,
        };
        Self { layout, hash_bits, input_dim, hasher: FastBuildHasher::default() }
    }

    /// Maps a concatenated column to the (possibly hashed) model column.
    #[inline]
    fn col(&self, concat_col: usize) -> usize {
        match self.hash_bits {
            Some(bits) => {
                let mut h = self.hasher.hash_one(concat_col);
                h ^= h >> 33;
                (h as usize) & ((1usize << bits) - 1)
            }
            None => concat_col,
        }
    }

    /// The batch's dense, L2-normalized input rows built from
    /// `input_fields`, written into `x` (reshaped in place); `ids` and
    /// `vals` are reusable row buffers.
    fn input_into(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        input_fields: Option<&[usize]>,
        x: &mut Matrix,
        ids: &mut Vec<u32>,
        vals: &mut Vec<f32>,
    ) {
        x.resize_zeroed(users.len(), self.input_dim);
        for (r, &u) in users.iter().enumerate() {
            concat_row_into(ds, &self.layout, u, input_fields, ids, vals);
            let x_row = x.row_mut(r);
            for (&i, &v) in ids.iter().zip(vals.iter()) {
                x_row[self.col(i as usize)] += v;
            }
        }
    }

    /// The batch's raw-count targets over every field, written into `t`.
    fn targets_into(&self, ds: &MultiFieldDataset, users: &[usize], t: &mut Matrix) {
        t.resize_zeroed(users.len(), self.input_dim);
        for (r, &u) in users.iter().enumerate() {
            let t_row = t.row_mut(r);
            for k in 0..ds.n_fields() {
                let (ix, vs) = ds.user_field(u, k);
                for (&i, &v) in ix.iter().zip(vs.iter()) {
                    t_row[self.col(self.layout.column(k, i))] += v;
                }
            }
        }
    }
}

/// Multinomial log-likelihood over full logits: returns the summed loss and
/// writes `∂L/∂logits` (already divided by the batch size) into `dlogits`;
/// `probs_row` is a reusable softmax scratch row.
fn multinomial_dense_loss_into(
    logits: &Matrix,
    targets: &Matrix,
    dlogits: &mut Matrix,
    probs_row: &mut Vec<f32>,
) -> f32 {
    assert_eq!(logits.shape(), targets.shape());
    let b = logits.rows();
    let inv_b = 1.0 / b as f32;
    let mut loss = 0.0f64;
    dlogits.resize_zeroed(b, logits.cols());
    probs_row.clear();
    probs_row.resize(logits.cols(), 0.0);
    for r in 0..b {
        probs_row.copy_from_slice(logits.row(r));
        fvae_tensor::ops::softmax_in_place(probs_row);
        let t_row = targets.row(r);
        let n_i: f32 = t_row.iter().sum();
        let d_row = dlogits.row_mut(r);
        for ((d, &p), &t) in d_row.iter_mut().zip(probs_row.iter()).zip(t_row.iter()) {
            if t > 0.0 {
                loss -= (t as f64) * (p.max(1e-12) as f64).ln();
            }
            *d = (n_i * p - t) * inv_b;
        }
    }
    loss as f32
}

/// Splits encoder stats `[μ | logσ²]` into `mu` and a clamped `logvar`.
fn clamp_split_into(stats: &Matrix, d: usize, mu: &mut Matrix, logvar: &mut Matrix) {
    let b = stats.rows();
    mu.resize_zeroed(b, d);
    logvar.resize_zeroed(b, d);
    for r in 0..b {
        let row = stats.row(r);
        mu.row_mut(r).copy_from_slice(&row[..d]);
        for (lv, &s) in logvar.row_mut(r).iter_mut().zip(row[d..].iter()) {
            *lv = s.clamp(-8.0, 8.0);
        }
    }
}

/// `dstats = [dμ | dlogσ²]` for a code sampled as `z = μ + ε·σ`: the
/// reconstruction gradient `dz` routed through the reparameterization, plus
/// the prior's own `(dμ, dlogσ²)` term, which `prior(r, i, ε, σ)` returns
/// for row `r`, latent `i`.
fn reparam_backward_into(
    dz: &Matrix,
    eps: &Matrix,
    logvar: &Matrix,
    dstats: &mut Matrix,
    prior: impl Fn(usize, usize, f32, f32) -> (f32, f32),
) {
    let (b, d) = dz.shape();
    dstats.resize_zeroed(b, 2 * d);
    for r in 0..b {
        let (dz_row, eps_row, lv_row) = (dz.row(r), eps.row(r), logvar.row(r));
        let row = dstats.row_mut(r);
        for i in 0..d {
            let sigma = (0.5 * lv_row[i]).exp();
            let (prior_mu, prior_lv) = prior(r, i, eps_row[i], sigma);
            row[i] = dz_row[i] + prior_mu;
            row[d + i] = dz_row[i] * 0.5 * eps_row[i] * sigma + prior_lv;
        }
    }
}

/// `−∇_z log p(z)` for RecVAE's composite prior with mixture `weights`,
/// evaluated row-wise into `out`. `mu_old`/`logvar_old` come from the
/// snapshot encoder on the same input. Responsibilities use log-sum-exp for
/// stability.
fn composite_neg_dlogp_dz_into(
    weights: &[f32; 3],
    z: &Matrix,
    mu_old: &Matrix,
    logvar_old: &Matrix,
    out: &mut Matrix,
) {
    let d = z.cols();
    let wide_logvar = 10.0f32.ln();
    out.resize_zeroed(z.rows(), d);
    for r in 0..z.rows() {
        let zr = z.row(r);
        let mo = mu_old.row(r);
        let lo = logvar_old.row(r);
        // Joint log-densities of the three components.
        let mut logd = [0.0f64; 3];
        for i in 0..d {
            let zi = zr[i] as f64;
            logd[0] += -0.5 * (zi * zi);
            let var_old = (lo[i] as f64).exp();
            let diff = zi - mo[i] as f64;
            logd[1] += -0.5 * (lo[i] as f64 + diff * diff / var_old);
            logd[2] += -0.5 * (wide_logvar as f64 + zi * zi / 10.0);
        }
        let mut logw = [0.0f64; 3];
        for (lw, (&w, &ld)) in logw.iter_mut().zip(weights.iter().zip(logd.iter())) {
            *lw = (w.max(1e-12) as f64).ln() + ld;
        }
        let max = logw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut resp = [0.0f64; 3];
        for (re, &lw) in resp.iter_mut().zip(logw.iter()) {
            *re = (lw - max).exp();
        }
        let total: f64 = resp.iter().sum();
        let row = out.row_mut(r);
        for i in 0..d {
            let g0 = zr[i] as f64; // (z−0)/1
            let var_old = (lo[i] as f64).exp();
            let g1 = (zr[i] as f64 - mo[i] as f64) / var_old;
            let g2 = zr[i] as f64 / 10.0;
            row[i] = ((resp[0] * g0 + resp[1] * g1 + resp[2] * g2) / total) as f32;
        }
    }
}

/// The prior term: the one thing that differs between Mult-DAE, Mult-VAE
/// and RecVAE.
enum Prior {
    /// Mult-DAE: the encoder emits the code itself; no sampling, no KL.
    None,
    /// Mult-VAE: `N(0, I)`, its KL weight annealed linearly to `beta_cap`
    /// over `anneal_steps` optimizer steps.
    Gaussian { beta_cap: f32, anneal_steps: u64 },
    /// RecVAE: the composite prior with mixture `weights` (standard, old
    /// posterior, wide) and the per-user KL weight `β_i = gamma · N_i`.
    /// `old_enc` is the encoder as it stood at the epoch's first step.
    Composite { gamma: f32, weights: [f32; 3], old_enc: Option<Mlp> },
}

impl Prior {
    /// Display name and metric-name infix.
    fn names(&self) -> (&'static str, &'static str) {
        match self {
            Prior::None => ("Mult-DAE", "multdae"),
            Prior::Gaussian { .. } => ("Mult-VAE", "multvae"),
            Prior::Composite { .. } => ("RecVAE", "recvae"),
        }
    }

    /// Drops the composite prior's encoder snapshot, so the next step takes
    /// a fresh one.
    fn forget_snapshot(&mut self) {
        if let Prior::Composite { old_enc, .. } = self {
            *old_enc = None;
        }
    }
}

/// Reusable step buffers. Matrices, activation caches and row buffers are
/// reshaped in place each step, so at a stable batch shape the training
/// loop stops allocating after the first step.
#[derive(Default)]
struct VaeScratch {
    ws: Workspace,
    ids: Vec<u32>,
    vals: Vec<f32>,
    x: Matrix,
    t: Matrix,
    mask: Matrix,
    enc_acts: Vec<Matrix>,
    mu: Matrix,
    logvar: Matrix,
    eps: Matrix,
    z: Matrix,
    dec_acts: Vec<Matrix>,
    dlogits: Matrix,
    probs_row: Vec<f32>,
    dec_grads: MlpGrads,
    dz: Matrix,
    dstats: Matrix,
    enc_grads: MlpGrads,
    dx: Matrix,
    // The composite prior's terms.
    old_acts: Vec<Matrix>,
    mu_old: Matrix,
    logvar_old: Matrix,
    glogp: Matrix,
    beta_scale: Vec<f32>,
}

/// What [`DenseVae::init_for`] builds: the input plumbing, both networks,
/// their optimizer state and the reparameterization noise source.
struct Net {
    input: DenseInput,
    enc: Mlp,
    dec: Mlp,
    adam: Adam,
    enc_opt: MlpAdam,
    dec_opt: MlpAdam,
    gauss: Gaussian,
}

/// A dense autoencoder with a multinomial likelihood over the concatenated
/// feature space: Mult-DAE, Mult-VAE or RecVAE, by its constructor.
pub struct DenseVae {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Optional feature hashing (the paper's 20-bit footnote).
    pub hash_bits: Option<u32>,
    latent_dim: usize,
    hidden: usize,
    /// Input dropout (for Mult-DAE, the denoising corruption).
    dropout: f32,
    prior: Prior,
    seed: u64,
    net: Option<Net>,
    step: u64,
    scratch: VaeScratch,
    obs: Option<FitObs>,
}

impl DenseVae {
    fn new(latent_dim: usize, hidden: usize, seed: u64, dropout: f32, prior: Prior) -> Self {
        Self {
            epochs: 8,
            batch_size: 256,
            lr: 1e-3,
            hash_bits: None,
            latent_dim,
            hidden,
            dropout,
            prior,
            seed,
            net: None,
            step: 0,
            scratch: VaeScratch::default(),
            obs: None,
        }
    }

    /// Mult-DAE: the denoising (non-variational) sibling.
    pub fn mult_dae(latent_dim: usize, hidden: usize, seed: u64) -> Self {
        Self::new(latent_dim, hidden, seed, 0.5, Prior::None)
    }

    /// Mult-VAE: variational autoencoder with a multinomial likelihood.
    pub fn mult_vae(latent_dim: usize, hidden: usize, seed: u64) -> Self {
        let prior = Prior::Gaussian { beta_cap: 0.2, anneal_steps: 2_000 };
        Self::new(latent_dim, hidden, seed, 0.2, prior)
    }

    /// RecVAE: Mult-VAE plus the composite prior and user-specific β.
    pub fn rec_vae(latent_dim: usize, hidden: usize, seed: u64) -> Self {
        let prior = Prior::Composite { gamma: 0.005, weights: [0.15, 0.75, 0.1], old_enc: None };
        Self::new(latent_dim, hidden, seed, 0.2, prior)
    }

    /// Records fit-loop step/epoch timings into `registry`
    /// (`fvae_baselines_{multdae,multvae,recvae}_*`, by the prior).
    pub fn observe(&mut self, registry: &Registry) {
        self.obs = Some(FitObs::new(registry, self.prior.names().1));
    }

    /// Initializes the networks and their optimizer state for a dataset
    /// (used by [`RepresentationModel::fit`] and by the throughput
    /// benchmark, which times steps without a full fit).
    pub fn init_for(&mut self, ds: &MultiFieldDataset) {
        self.init_with(ds, &mut StdRng::seed_from_u64(self.seed));
    }

    fn init_with(&mut self, ds: &MultiFieldDataset, rng: &mut StdRng) {
        let input = DenseInput::new(ds, self.hash_bits);
        let d = self.latent_dim;
        // Mult-DAE's encoder ends in the tanh code; the others emit `[μ | logσ²]`.
        let (stats_dim, stats_act) = match self.prior {
            Prior::None => (d, Activation::Tanh),
            _ => (2 * d, Activation::Identity),
        };
        let enc =
            Mlp::new(&[input.input_dim, self.hidden, stats_dim], Activation::Tanh, stats_act, rng);
        let dec = Mlp::new(
            &[d, self.hidden, input.input_dim],
            Activation::Tanh,
            Activation::Identity,
            rng,
        );
        self.net = Some(Net {
            input,
            adam: Adam::new(self.lr),
            enc_opt: MlpAdam::new(&enc),
            dec_opt: MlpAdam::new(&dec),
            enc,
            dec,
            gauss: Gaussian::standard(),
        });
        self.step = 0;
        self.prior.forget_snapshot();
    }

    /// One training step on a user batch, drawing the dropout mask and the
    /// reparameterization noise from `rng`; the fit loop's step and the
    /// Table V throughput benchmark's timed unit. Returns the mean
    /// multinomial loss. RecVAE's encoder snapshot is taken at the first
    /// step after [`Self::init_for`]; `fit` retakes it every epoch.
    pub fn train_batch_timed(
        &mut self,
        ds: &MultiFieldDataset,
        users: &[usize],
        rng: &mut StdRng,
    ) -> f32 {
        let step = self.step;
        self.step += 1;
        let b = users.len();
        let inv_b = 1.0 / b as f32;
        let d = self.latent_dim;
        // Split borrow: the scratch, the networks and the prior are
        // distinct fields, so the whole step runs on `&mut self.scratch`.
        let sc = &mut self.scratch;
        let net = self.net.as_mut().expect("fitted or initialized");
        net.input.input_into(ds, users, None, &mut sc.x, &mut sc.ids, &mut sc.vals);
        net.input.targets_into(ds, users, &mut sc.t);
        if let Prior::Composite { old_enc, .. } = &mut self.prior {
            // The snapshot's posterior on the clean input: the composite
            // prior's middle component.
            let old_enc = old_enc.get_or_insert_with(|| net.enc.clone());
            old_enc.forward_cached_into(&sc.x, &mut sc.old_acts);
            let old_stats = sc.old_acts.last().expect("non-empty");
            clamp_split_into(old_stats, d, &mut sc.mu_old, &mut sc.logvar_old);
        }
        Dropout::new(self.dropout).forward_train_into(&mut sc.x, &mut sc.mask, rng);

        net.enc.forward_cached_into(&sc.x, &mut sc.enc_acts);
        let stats = sc.enc_acts.last().expect("non-empty");
        let z = if let Prior::None = self.prior {
            // The code is the last encoder activation; the decoder consumes
            // it straight from the cache.
            stats
        } else {
            clamp_split_into(stats, d, &mut sc.mu, &mut sc.logvar);
            sc.eps.resize_zeroed(b, d);
            net.gauss.fill(rng, sc.eps.as_mut_slice());
            sc.z.resize_zeroed(b, d);
            sc.z.as_mut_slice().copy_from_slice(sc.mu.as_slice());
            for ((zi, &e), &lv) in
                sc.z.as_mut_slice().iter_mut().zip(sc.eps.as_slice()).zip(sc.logvar.as_slice())
            {
                *zi += e * (0.5 * lv).exp();
            }
            &sc.z
        };
        net.dec.forward_cached_into(z, &mut sc.dec_acts);
        let loss = multinomial_dense_loss_into(
            sc.dec_acts.last().expect("non-empty"),
            &sc.t,
            &mut sc.dlogits,
            &mut sc.probs_row,
        );
        let dec_grads = &mut sc.dec_grads;
        net.dec.backward_into(z, &sc.dec_acts, &sc.dlogits, dec_grads, &mut sc.dz, &mut sc.ws);

        let dstats = match &self.prior {
            Prior::None => &sc.dz,
            Prior::Gaussian { beta_cap, anneal_steps } => {
                // Closed-form KL gradients:
                //   dμ += β/B·μ ; dlogσ² += β/B·½(σ²−1)
                let beta = fvae_nn::linear_anneal(*beta_cap, *anneal_steps, step);
                let (mu, logvar) = (&sc.mu, &sc.logvar);
                reparam_backward_into(&sc.dz, &sc.eps, logvar, &mut sc.dstats, |r, i, _, _| {
                    let lv = logvar.get(r, i);
                    (beta * inv_b * mu.get(r, i), beta * inv_b * 0.5 * (lv.exp() - 1.0))
                });
                &sc.dstats
            }
            Prior::Composite { gamma, weights, .. } => {
                // Composite-prior KL gradients (Monte-Carlo):
                //   dμ  += β_i/B · (−∇_z log p)          (entropy dμ cancels)
                //   dlv += β_i/B · ((−∇_z log p)·½εσ − ½) (entropy gives −½)
                let (mu_old, logvar_old) = (&sc.mu_old, &sc.logvar_old);
                composite_neg_dlogp_dz_into(weights, &sc.z, mu_old, logvar_old, &mut sc.glogp);
                sc.beta_scale.clear();
                sc.beta_scale.extend(users.iter().map(|&u| {
                    let n_i: f32 =
                        (0..ds.n_fields()).map(|k| ds.user_field(u, k).1.iter().sum::<f32>()).sum();
                    gamma * n_i * inv_b
                }));
                let (glogp, beta_scale) = (&sc.glogp, &sc.beta_scale);
                reparam_backward_into(&sc.dz, &sc.eps, &sc.logvar, &mut sc.dstats, |r, i, e, s| {
                    let g = glogp.get(r, i);
                    (beta_scale[r] * g, beta_scale[r] * (g * 0.5 * e * s - 0.5))
                });
                &sc.dstats
            }
        };
        let enc_grads = &mut sc.enc_grads;
        net.enc.backward_into(&sc.x, &sc.enc_acts, dstats, enc_grads, &mut sc.dx, &mut sc.ws);
        net.enc_opt.step(&net.adam, &mut net.enc, &sc.enc_grads);
        net.dec_opt.step(&net.adam, &mut net.dec, &sc.dec_grads);
        loss * inv_b
    }
}

impl RepresentationModel for DenseVae {
    fn name(&self) -> &'static str {
        self.prior.names().0
    }

    fn fit(&mut self, ds: &MultiFieldDataset, users: &[usize]) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.init_with(ds, &mut rng);
        // Mult-VAE trains on a second stream; Mult-DAE and RecVAE keep
        // drawing from the one that initialized them (the streams each model
        // has always drawn; `tests/train_golden.rs` pins them).
        if let Prior::Gaussian { .. } = self.prior {
            rng = StdRng::seed_from_u64(self.seed.wrapping_add(1));
        }
        // Cloned handles (Arc bumps) so the spans don't borrow `self` across
        // the `&mut self` step call.
        let obs = self.obs.clone();
        for _ in 0..self.epochs {
            let _epoch_span = obs.as_ref().map(|o| Span::on(&o.epoch_ns));
            // RecVAE's prior snapshots the encoder afresh each epoch.
            self.prior.forget_snapshot();
            let batches = fvae_data::split::shuffled_batches(users, self.batch_size, &mut rng);
            for batch in &batches {
                let _step_span = obs.as_ref().map(|o| {
                    o.steps.inc();
                    Span::on(&o.step_ns)
                });
                self.train_batch_timed(ds, batch, &mut rng);
            }
        }
        // No encoder copy outlives the fit.
        self.prior.forget_snapshot();
    }

    fn embed(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        input_fields: Option<&[usize]>,
    ) -> Matrix {
        let net = self.net.as_ref().expect("fitted");
        let mut x = Matrix::zeros(0, 0);
        net.input.input_into(ds, users, input_fields, &mut x, &mut Vec::new(), &mut Vec::new());
        // μ: the first `latent_dim` stats columns (all of Mult-DAE's code).
        let stats = net.enc.forward(&x);
        Matrix::from_fn(stats.rows(), self.latent_dim, |r, c| stats.get(r, c))
    }

    fn score_field(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        input_fields: Option<&[usize]>,
        field: usize,
        candidates: &[u32],
    ) -> Matrix {
        let net = self.net.as_ref().expect("fitted");
        let z = self.embed(ds, users, input_fields);
        let logits = net.dec.forward(&z);
        let mut out = Matrix::zeros(users.len(), candidates.len());
        for r in 0..users.len() {
            let row = out.row_mut(r);
            for (o, &cand) in row.iter_mut().zip(candidates.iter()) {
                let col = net.input.col(net.input.layout.column(field, cand));
                *o = logits.get(r, col);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvae_data::{FieldSpec, TopicModelConfig};

    fn tiny(seed: u64) -> MultiFieldDataset {
        TopicModelConfig {
            n_users: 150,
            n_topics: 3,
            alpha: 0.08,
            fields: vec![FieldSpec::new("ch1", 10, 3, 1.0), FieldSpec::new("tag", 48, 6, 1.0)],
            pair_prob: 0.0,
            seed,
        }
        .generate()
    }

    /// Mean tag-reconstruction AUC of the first 60 users after 25 or 20
    /// epochs on the whole tiny dataset.
    fn recon_auc(mut model: DenseVae, data_seed: u64, epochs: usize) -> f64 {
        let ds = tiny(data_seed);
        let users: Vec<usize> = (0..ds.n_users()).collect();
        model.epochs = epochs;
        model.lr = 5e-3;
        model.batch_size = 50;
        model.fit(&ds, &users);
        let users = &users[..60];
        let candidates: Vec<u32> = (0..48).collect();
        let scores = model.score_field(&ds, users, None, 1, &candidates);
        let mut mean = fvae_metrics::Mean::new();
        for (r, &u) in users.iter().enumerate() {
            let observed: std::collections::HashSet<u32> =
                ds.user_field(u, 1).0.iter().copied().collect();
            let labels: Vec<bool> = candidates.iter().map(|c| observed.contains(c)).collect();
            mean.push(fvae_metrics::auc(scores.row(r), &labels));
        }
        mean.mean()
    }

    #[test]
    fn multvae_learns_to_reconstruct() {
        let auc = recon_auc(DenseVae::mult_vae(8, 32, 3), 60, 25);
        assert!(auc > 0.7, "Mult-VAE reconstruction AUC {auc}");
    }

    #[test]
    fn multdae_learns_to_reconstruct() {
        let auc = recon_auc(DenseVae::mult_dae(8, 32, 3), 60, 25);
        assert!(auc > 0.7, "Mult-DAE reconstruction AUC {auc}");
    }

    #[test]
    fn recvae_learns_to_reconstruct() {
        let auc = recon_auc(DenseVae::rec_vae(8, 32, 4), 61, 20);
        assert!(auc > 0.7, "RecVAE reconstruction AUC {auc}");
    }

    #[test]
    fn hashing_reduces_input_dim_and_still_works() {
        let ds = tiny(60);
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let mut model = DenseVae::mult_vae(8, 32, 3);
        model.hash_bits = Some(5); // 32 columns < 58 features → collisions
        model.epochs = 10;
        model.fit(&ds, &users);
        assert_eq!(model.net.as_ref().expect("fitted").input.input_dim, 32);
        let emb = model.embed(&ds, &users[..5], None);
        assert!(emb.is_finite());
    }

    #[test]
    fn multinomial_dense_loss_gradient_is_softmax_minus_target() {
        let logits = Matrix::from_vec(1, 3, vec![0.0, 0.0, 0.0]);
        let targets = Matrix::from_vec(1, 3, vec![2.0, 0.0, 0.0]);
        let mut d = Matrix::zeros(0, 0);
        let loss = multinomial_dense_loss_into(&logits, &targets, &mut d, &mut Vec::new());
        // Uniform probs = 1/3, N = 2 → d = (2/3 − 2, 2/3, 2/3).
        assert!((loss - 2.0 * (3.0f32).ln()).abs() < 1e-5);
        assert!((d.get(0, 0) - (2.0 / 3.0 - 2.0)).abs() < 1e-5);
        assert!((d.get(0, 1) - 2.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn embeddings_have_latent_dim() {
        let ds = tiny(60);
        let users: Vec<usize> = (0..40).collect();
        let (dae, vae, rec) = (DenseVae::mult_dae, DenseVae::mult_vae, DenseVae::rec_vae);
        for mut model in [dae(6, 16, 3), vae(6, 16, 3), rec(6, 16, 4)] {
            model.epochs = 1;
            model.fit(&ds, &users);
            assert_eq!(model.embed(&ds, &users[..4], None).shape(), (4, 6), "{}", model.name());
        }
    }

    #[test]
    fn composite_prior_gradient_matches_finite_differences() {
        // Check −∇_z log p numerically for a 2-D case.
        let weights = [0.15f32, 0.75, 0.1];
        let z = Matrix::from_vec(1, 2, vec![0.3, -0.8]);
        let mu_old = Matrix::from_vec(1, 2, vec![0.5, 0.1]);
        let logvar_old = Matrix::from_vec(1, 2, vec![-0.3, 0.2]);
        let neg_logp = |z: &Matrix| -> f64 {
            let wide_logvar = 10.0f64.ln();
            let d = 2;
            let mut logd = [0.0f64; 3];
            for i in 0..d {
                let zi = z.get(0, i) as f64;
                logd[0] += -0.5 * zi * zi;
                let vo = (logvar_old.get(0, i) as f64).exp();
                let diff = zi - mu_old.get(0, i) as f64;
                logd[1] += -0.5 * (logvar_old.get(0, i) as f64 + diff * diff / vo);
                logd[2] += -0.5 * (wide_logvar + zi * zi / 10.0);
            }
            let terms: Vec<f64> =
                weights.iter().zip(logd.iter()).map(|(&w, &ld)| (w as f64).ln() + ld).collect();
            let max = terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            -(max + terms.iter().map(|&t| (t - max).exp()).sum::<f64>().ln())
        };
        let mut grad = Matrix::zeros(0, 0);
        composite_neg_dlogp_dz_into(&weights, &z, &mu_old, &logvar_old, &mut grad);
        let eps = 1e-3;
        for i in 0..2 {
            let mut zp = z.clone();
            zp.as_mut_slice()[i] += eps;
            let hi = neg_logp(&zp);
            zp.as_mut_slice()[i] -= 2.0 * eps;
            let lo = neg_logp(&zp);
            let numeric = ((hi - lo) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - grad.get(0, i)).abs() < 1e-2,
                "dim {i}: {} vs {numeric}",
                grad.get(0, i)
            );
        }
    }
}
