//! Tag prediction — the matching-stage task of §V-B2.
//!
//! Held-out users fold in only their channel fields; the model must rank
//! their real tags above sampled negatives. Compares FVAE against PCA and
//! Mult-VAE on the spot.
//!
//! ```sh
//! cargo run --release --example tag_prediction
//! ```

use fvae_repro::baselines::{DenseVae, Pca, RepresentationModel};
use fvae_repro::data::{tag_prediction_cases, SplitIndices, TopicModelConfig};
use fvae_repro::eval::models::{fvae_config, FvaeModel};
use fvae_repro::eval::tagpred::evaluate_tag_prediction;

fn main() {
    let mut gen = TopicModelConfig::sc_small();
    gen.n_users = 2_000;
    let dataset = gen.generate();
    let split = SplitIndices::random(dataset.n_users(), 0.1, 0.15, 7);
    let tag_field = dataset.field_index("tag").expect("tag field");
    let channels: Vec<usize> = (0..dataset.n_fields()).filter(|&k| k != tag_field).collect();
    let cases = tag_prediction_cases(&dataset, &split.test, tag_field, 42);
    println!("{} evaluation cases (observed tags vs 1:1 sampled negatives)\n", cases.len());

    // The table-driver operating point (see fvae_eval::models::fvae_config +
    // DESIGN.md §5a): enough optimizer steps for the batched softmax to
    // cover the tag catalogue at this scaled-down data size.
    let mut fvae_cfg = fvae_config(&dataset, 14);
    fvae_cfg.sampling.rate = 0.2;
    let mut multvae = DenseVae::mult_vae(64, 128, 2);
    multvae.epochs = 8;
    let mut models: Vec<Box<dyn RepresentationModel>> = vec![
        Box::new(Pca::new(64, 1)),
        Box::new(multvae),
        Box::new(FvaeModel::new(fvae_cfg)),
    ];

    println!("{:<10} {:>8} {:>8}", "model", "AUC", "mAP");
    for model in models.iter_mut() {
        model.fit(&dataset, &split.train);
        let (auc, map) =
            evaluate_tag_prediction(model.as_ref(), &dataset, &cases, &channels, tag_field);
        println!("{:<10} {:>8.4} {:>8.4}", model.name(), auc, map);
    }
}
