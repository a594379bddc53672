//! Table V: training throughput of Mult-VAE vs FVAE.
//!
//! Both models are timed on identical batches; throughput is users/second
//! over several steady-state steps. Mult-VAE on the large presets uses the
//! paper's footnote workaround — feature hashing (14 bits here vs. the
//! paper's 20, matching the ~40× dataset down-scale) — because the dense
//! `J`-wide layers are otherwise unbuildable. The speedup column is the
//! paper's headline efficiency claim: it grows with the feature-space size
//! because FVAE's cost is `O(N̄·D + N̄_b·D)` while Mult-VAE's is `O(J·D)`.

use std::time::Instant;

use fvae_baselines::DenseVae;
use fvae_core::Fvae;
use fvae_data::{MultiFieldDataset, TopicModelConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::context::{render_table, EvalContext};
use crate::models::{fvae_config, LATENT_DIM};

/// Users/second of `steps` timed training steps of `batch_size` users,
/// after one untimed warm-up step. Both Table V columns go through here, so
/// both pay their cold first step (dynamic-table growth, first-touch
/// allocations) outside the timer over the same batch schedule: step `s`
/// takes the `batch_size` users from `s·batch_size` on, wrapping around
/// `n_users`, and the warm-up takes step 0's batch.
fn timed_users_per_s(
    n_users: usize,
    batch_size: usize,
    steps: usize,
    mut step: impl FnMut(&[usize]),
) -> f64 {
    let batch_at = |s: usize| -> Vec<usize> {
        let start = (s * batch_size) % n_users;
        (0..batch_size).map(|i| (start + i) % n_users).collect()
    };
    step(&batch_at(0));
    let t0 = Instant::now();
    for s in 0..steps {
        step(&batch_at(s));
    }
    (steps * batch_size) as f64 / t0.elapsed().as_secs_f64()
}

/// Users/second of FVAE training steps at the given batch size.
pub fn fvae_throughput(ds: &MultiFieldDataset, batch_size: usize, steps: usize) -> f64 {
    let mut cfg = fvae_config(ds, 1);
    cfg.batch_size = batch_size;
    let mut model = Fvae::new(cfg);
    let mut opt = model.make_opt_states();
    timed_users_per_s(ds.n_users(), batch_size, steps, |batch| {
        model.train_single_batch(ds, batch, &mut opt);
    })
}

/// Users/second of Mult-VAE training steps.
pub fn multvae_throughput(
    ds: &MultiFieldDataset,
    batch_size: usize,
    steps: usize,
    hash_bits: Option<u32>,
) -> f64 {
    let mut model = DenseVae::mult_vae(LATENT_DIM, 128, 1);
    model.batch_size = batch_size;
    model.hash_bits = hash_bits;
    model.init_for(ds);
    let mut rng = StdRng::seed_from_u64(3);
    timed_users_per_s(ds.n_users(), batch_size, steps, |batch| {
        model.train_batch_timed(ds, batch, &mut rng);
    })
}

/// Regenerates Table V. Writes `table5.csv`.
pub fn table5(ctx: &EvalContext) -> std::io::Result<String> {
    // Paper settings: batch 512, sampling r = 0.1 (our fvae_config default).
    let batch = 512;
    // Quick times as many Mult-VAE steps as FVAE steps: with 2, its column
    // moved by a fifth run to run and hid any change smaller than that.
    let (fvae_steps, mv_steps) = match ctx.scale {
        crate::context::Scale::Full => (12, 4),
        crate::context::Scale::Quick => (6, 6),
    };
    let mut rows = Vec::new();
    for (name, mut cfg, hash_bits) in [
        ("SC", TopicModelConfig::sc(), None),
        ("KD", TopicModelConfig::kd(), Some(14u32)),
        ("QB", TopicModelConfig::qb(), Some(14u32)),
    ] {
        cfg.n_users = ctx.scale.users(cfg.n_users).max(2 * batch);
        let ds = cfg.generate();
        eprintln!("[table5] timing {name} (J = {})", ds.total_features());
        let fv = fvae_throughput(&ds, batch, fvae_steps);
        let mv = multvae_throughput(&ds, batch, mv_steps, hash_bits);
        rows.push(vec![
            name.to_string(),
            format!("{mv:.0}"),
            format!("{fv:.0}"),
            format!("{:.1}x", fv / mv),
        ]);
    }
    let header = ["Dataset", "Mult-VAE users/s", "FVAE users/s", "Speedup"];
    ctx.write_csv("table5.csv", &header, &rows)?;
    Ok(render_table(
        "Table V: training throughput (batch 512, r = 0.1; Mult-VAE hashed to 14 bits on KD/QB)",
        &header,
        &rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvae_data::FieldSpec;

    #[test]
    fn the_warm_up_step_is_not_timed() {
        // A 200 ms first step counted into 3 one-user steps would cap the
        // rate at 3 users / 0.2 s = 15/s.
        let mut calls = 0;
        let rate = timed_users_per_s(10, 1, 3, |_| {
            if calls == 0 {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            calls += 1;
        });
        assert_eq!(calls, 4, "one warm-up step plus three timed steps");
        assert!(rate > 1_000.0, "warm-up leaked into the timed window: {rate:.1} users/s");
    }

    #[test]
    fn fvae_is_faster_than_multvae_on_a_wide_vocabulary() {
        // Even at toy scale the asymmetry shows once the vocabulary is a few
        // thousand features wide.
        let ds = TopicModelConfig {
            n_users: 600,
            n_topics: 3,
            alpha: 0.1,
            fields: vec![
                FieldSpec::new("ch1", 64, 4, 1.0),
                FieldSpec::new("tag", 4096, 8, 1.0),
            ],
            pair_prob: 0.0,
            seed: 15,
        }
        .generate();
        let fv = fvae_throughput(&ds, 128, 3);
        let mv = multvae_throughput(&ds, 128, 2, None);
        assert!(
            fv > mv,
            "FVAE should outpace dense Mult-VAE: {fv:.0} vs {mv:.0} users/s"
        );
    }
}
