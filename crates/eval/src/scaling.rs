//! Figures 9 & 10: scalability and distributed speedup.
//!
//! Fig. 10 is measured, not simulated end to end: the paper's 3–12 server
//! cluster cannot be reproduced by threads on one machine with a handful of
//! cores, so [`fig10`] *measures* per-shard compute (real training steps at
//! the per-server batch size) and adds a standard ring all-reduce
//! communication model. What the figure demonstrates — the workload shards
//! evenly and communication stays sublinear, so speedup grows almost
//! linearly with servers — is exactly what this measures. That averaging
//! the replicas of local-SGD training is sound (identical shards average to
//! the solo run; disjoint shards merge their vocabularies) is proved by the
//! tests of `fvae_core::Fvae::average_with`.

use std::time::Instant;

use fvae_core::Fvae;
use fvae_data::ba::{generate_ba, BaConfig};
use fvae_data::MultiFieldDataset;

use crate::context::{render_table, EvalContext, Scale};
use crate::models::fvae_config;

/// Seconds per epoch of FVAE training on a BA dataset (measured over a
/// bounded number of batches and extrapolated linearly, matching how the
/// paper reports per-epoch running time).
pub fn epoch_seconds(cfg: &BaConfig, batch_size: usize, max_batches: usize) -> f64 {
    let ds = generate_ba(cfg);
    let mut model_cfg = fvae_config(&ds, 1);
    model_cfg.batch_size = batch_size;
    let mut model = Fvae::new(model_cfg);
    let mut opt = model.make_opt_states();
    let users: Vec<usize> = (0..ds.n_users()).collect();
    let n_batches = users.len().div_ceil(batch_size);
    let timed = n_batches.min(max_batches);
    // Warm-up populates the dynamic tables.
    let warm: Vec<usize> = users.iter().copied().take(batch_size).collect();
    model.train_single_batch(&ds, &warm, &mut opt);
    let t0 = Instant::now();
    for b in 0..timed {
        let batch: Vec<usize> = users
            .iter()
            .copied()
            .skip(b * batch_size)
            .take(batch_size)
            .collect();
        if batch.is_empty() {
            break;
        }
        model.train_single_batch(&ds, &batch, &mut opt);
    }
    t0.elapsed().as_secs_f64() / timed as f64 * n_batches as f64
}

/// Fig. 9: per-epoch running time vs average feature size (max fixed) and
/// vs max feature size (average fixed). Writes `fig9_scalability.csv`.
pub fn fig9(ctx: &EvalContext) -> std::io::Result<String> {
    let (n_users, max_batches) = match ctx.scale {
        Scale::Full => (2_000, 8),
        Scale::Quick => (600, 4),
    };
    let batch = 128;
    let mut rows = Vec::new();
    // Sweep A: average feature size, max fixed at 1e5 (paper's setting).
    for avg in [50usize, 100, 200, 400] {
        eprintln!("[fig9] avg_features={avg}");
        let cfg = BaConfig {
            n_users,
            avg_features: avg,
            max_features: 100_000,
            ..Default::default()
        };
        let secs = epoch_seconds(&cfg, batch, max_batches);
        rows.push(vec!["avg_sweep".into(), avg.to_string(), "100000".into(), format!("{secs:.3}")]);
    }
    // Sweep B: max feature size, average fixed at 200 (paper's setting).
    for max in [10_000usize, 100_000, 1_000_000] {
        eprintln!("[fig9] max_features={max}");
        let cfg = BaConfig {
            n_users,
            avg_features: 200,
            max_features: max,
            ..Default::default()
        };
        let secs = epoch_seconds(&cfg, batch, max_batches);
        rows.push(vec!["max_sweep".into(), "200".into(), max.to_string(), format!("{secs:.3}")]);
    }
    let header = ["sweep", "avg_features", "max_features", "epoch_seconds"];
    ctx.write_csv("fig9_scalability.csv", &header, &rows)?;
    Ok(render_table(
        "Fig. 9: FVAE per-epoch time vs average / max feature size (BA workloads)",
        &header,
        &rows,
    ))
}

/// Cost-model parameters for the synchronous all-reduce.
#[derive(Clone, Copy, Debug)]
struct CommModel {
    /// Link bandwidth in bytes/second (10 Gb/s ≈ 1.25e9 B/s by default).
    bandwidth: f64,
    /// Per-step latency in seconds (switch + software overhead).
    latency: f64,
}

impl Default for CommModel {
    fn default() -> Self {
        Self { bandwidth: 1.25e9, latency: 1e-3 }
    }
}

impl CommModel {
    /// Ring all-reduce time for `bytes` across `workers` per step:
    /// `2·(W−1)/W · bytes / bandwidth + latency·log₂(W)`.
    fn allreduce_seconds(&self, workers: usize, bytes: usize) -> f64 {
        if workers <= 1 {
            return 0.0;
        }
        let w = workers as f64;
        2.0 * (w - 1.0) / w * bytes as f64 / self.bandwidth
            + self.latency * (w.log2().max(1.0))
    }
}

/// One point of the Fig. 10 curve.
#[derive(Clone, Copy, Debug)]
struct SpeedupPoint {
    /// Number of servers.
    workers: usize,
    /// Simulated epoch time in seconds.
    epoch_seconds: f64,
    /// Speedup relative to one worker.
    speedup: f64,
}

/// Measures the Fig. 10 speedup curve.
///
/// Weak scaling, matching the paper's cluster setup (each server runs the
/// same per-server batch; adding servers divides the epoch's steps): the
/// per-step compute time is measured with *real* training steps at
/// `batch_per_worker`, every step pays a dense-gradient ring all-reduce
/// from the [`CommModel`], and `W` workers advance `W` batches per step.
/// Speedup is epoch time at `W = 1` over epoch time at `W`; it is bounded
/// by `W` and bends away from linear exactly as the all-reduce grows.
///
/// (Strong scaling — splitting one fixed global batch — is *superlinear*
/// for FVAE because smaller shards have smaller batch-active candidate
/// sets; that cost model is a property of the batched softmax, not of the
/// cluster, so the figure uses weak scaling.)
fn speedup_curve(
    model: &mut Fvae,
    ds: &MultiFieldDataset,
    users: &[usize],
    worker_counts: &[usize],
    batch_per_worker: usize,
    comm: &CommModel,
) -> Vec<SpeedupPoint> {
    assert!(!worker_counts.is_empty());
    let grad_bytes = model.dense_param_count() * 4;
    let total_steps = users.len().div_ceil(batch_per_worker);

    // Warm up so hash tables are populated and timings are steady-state.
    let warm: Vec<usize> =
        users.iter().copied().take(batch_per_worker.min(users.len())).collect();
    let mut opt = model.make_opt_states();
    model.train_single_batch(ds, &warm, &mut opt);

    // Measured per-step compute at the per-worker batch size.
    let step_compute = {
        let reps = 4usize;
        let mut total = 0.0f64;
        for r in 0..reps {
            let start = (r * batch_per_worker * 7) % users.len();
            let batch: Vec<usize> = users
                .iter()
                .copied()
                .cycle()
                .skip(start)
                .take(batch_per_worker.max(1))
                .collect();
            let t0 = Instant::now();
            model.train_single_batch(ds, &batch, &mut opt);
            total += t0.elapsed().as_secs_f64();
        }
        total / reps as f64
    };

    let base_epoch = total_steps as f64 * step_compute;
    worker_counts
        .iter()
        .map(|&w| {
            assert!(w > 0, "worker counts must be positive");
            // Fractional steps: integer rounding at small scaled-down step
            // counts would swamp the trend the figure measures.
            let steps = total_steps as f64 / w as f64;
            let step_time = step_compute + comm.allreduce_seconds(w, grad_bytes);
            let epoch_seconds = steps * step_time;
            SpeedupPoint { workers: w, epoch_seconds, speedup: base_epoch / epoch_seconds }
        })
        .collect()
}

/// Fig. 10: distributed speedup vs number of servers on the KD preset.
/// Writes `fig10_speedup.csv`.
pub fn fig10(ctx: &EvalContext) -> std::io::Result<String> {
    let mut ds_cfg = fvae_data::TopicModelConfig::kd();
    ds_cfg.n_users = ctx.scale.users(ds_cfg.n_users).min(10_000);
    let ds = ds_cfg.generate();
    let users: Vec<usize> = (0..ds.n_users()).collect();
    let mut model = Fvae::new(fvae_config(&ds, 1));
    let workers = [1usize, 3, 6, 9, 12];
    eprintln!("[fig10] measuring shard compute at {} worker counts", workers.len());
    let points = speedup_curve(&mut model, &ds, &users, &workers, 512, &CommModel::default());
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                format!("{:.3}", p.epoch_seconds),
                format!("{:.2}", p.speedup),
            ]
        })
        .collect();
    let header = ["servers", "epoch_seconds", "speedup"];
    ctx.write_csv("fig10_speedup.csv", &header, &rows)?;
    Ok(render_table(
        "Fig. 10: speedup via distributed computing (measured shards + ring all-reduce model)",
        &header,
        &rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvae_core::FvaeConfig;
    use fvae_data::{FieldSpec, TopicModelConfig};

    #[test]
    fn allreduce_model_is_monotone_in_workers_and_bytes() {
        let comm = CommModel::default();
        assert_eq!(comm.allreduce_seconds(1, 1_000_000), 0.0);
        let t2 = comm.allreduce_seconds(2, 1_000_000);
        let t8 = comm.allreduce_seconds(8, 1_000_000);
        assert!(t2 > 0.0 && t8 > t2);
        let big = comm.allreduce_seconds(4, 10_000_000);
        let small = comm.allreduce_seconds(4, 1_000_000);
        assert!(big > small);
    }

    #[test]
    fn speedup_curve_grows_with_workers() {
        // Large enough that per-step compute is dominated by per-user work
        // (it must shrink with the shard size for the measurement to mean
        // anything) and an idealized network so the test isn't about the
        // comm constants.
        let ds = TopicModelConfig {
            n_users: 1200,
            n_topics: 4,
            alpha: 0.15,
            fields: vec![
                FieldSpec::new("ch1", 32, 6, 1.0),
                FieldSpec::new("tag", 256, 12, 1.0),
            ],
            pair_prob: 0.0,
            seed: 12,
        }
        .generate();
        let mut cfg = FvaeConfig::for_dataset(&ds);
        cfg.latent_dim = 16;
        cfg.enc_hidden = 32;
        cfg.dec_hidden = vec![32];
        cfg.sampling.rate = 1.0;
        let mut model = Fvae::new(cfg);
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let comm = CommModel { bandwidth: 1e12, latency: 1e-8 };
        let points = speedup_curve(&mut model, &ds, &users, &[1, 2, 8], 400, &comm);
        assert_eq!(points.len(), 3);
        assert!((points[0].speedup - 1.0).abs() < 0.35, "baseline ≈ 1, got {}", points[0].speedup);
        assert!(
            points[2].speedup > points[1].speedup,
            "8 workers should beat 2: {points:?}"
        );
        assert!(points[2].speedup > 2.0, "8 idealized workers well above 2×: {points:?}");
    }
}
