//! Fit-loop telemetry for the baseline models.
//!
//! The dense VAE family (`DenseVae`: Mult-VAE, Mult-DAE, RecVAE) can attach
//! a shared [`Registry`] before `fit`; the loop then times every optimizer
//! step and epoch with RAII [`Span`](fvae_obs::Span)s, so baseline and FVAE
//! timings land in one registry and one Prometheus snapshot for Table
//! V-style comparisons. Detached models pay nothing — the handles are `None`
//! and the loops skip the spans entirely.

use fvae_obs::{Counter, Histogram, Registry};

/// Pre-resolved metric handles for one baseline's fit loop
/// (`fvae_baselines_<model>_steps_total`, `..._step_ns`, `..._epoch_ns`).
#[derive(Clone, Debug)]
pub struct FitObs {
    pub(crate) steps: Counter,
    pub(crate) step_ns: Histogram,
    pub(crate) epoch_ns: Histogram,
}

impl FitObs {
    /// Resolves the model's metric handles in `registry`, creating the
    /// metrics on first use. `model` becomes the metric-name infix, so it
    /// must be a valid Prometheus name fragment (e.g. `"multvae"`).
    pub fn new(registry: &Registry, model: &str) -> Self {
        Self {
            steps: registry.counter(&format!("fvae_baselines_{model}_steps_total")),
            step_ns: registry.histogram(&format!("fvae_baselines_{model}_step_ns")),
            epoch_ns: registry.histogram(&format!("fvae_baselines_{model}_epoch_ns")),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{DenseVae, RepresentationModel};
    use fvae_data::{FieldSpec, TopicModelConfig};
    use fvae_obs::Registry;

    #[test]
    fn attached_registry_records_fit_spans_for_all_three_vaes() {
        let ds = TopicModelConfig {
            n_users: 60,
            n_topics: 2,
            alpha: 0.1,
            fields: vec![FieldSpec::new("ch", 8, 2, 1.0), FieldSpec::new("tag", 24, 3, 1.0)],
            pair_prob: 0.0,
            seed: 3,
        }
        .generate();
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let registry = Registry::new();

        let mut mv = DenseVae::mult_vae(4, 8, 1);
        mv.epochs = 2;
        mv.batch_size = 30;
        mv.observe(&registry);
        mv.fit(&ds, &users);

        let mut md = DenseVae::mult_dae(4, 8, 1);
        md.epochs = 1;
        md.batch_size = 30;
        md.observe(&registry);
        md.fit(&ds, &users);

        let mut rv = DenseVae::rec_vae(4, 8, 1);
        rv.epochs = 1;
        rv.batch_size = 30;
        rv.observe(&registry);
        rv.fit(&ds, &users);

        let text = registry.render();
        // 2 epochs × ceil(60/30) = 4 Mult-VAE steps; 2 each for the others.
        assert!(text.contains("fvae_baselines_multvae_steps_total 4"), "{text}");
        assert!(text.contains("fvae_baselines_multdae_steps_total 2"), "{text}");
        assert!(text.contains("fvae_baselines_recvae_steps_total 2"), "{text}");
        assert!(text.contains("fvae_baselines_multvae_epoch_ns_count 2"), "{text}");
        assert!(text.contains("fvae_baselines_recvae_step_ns_count 2"), "{text}");
    }
}
