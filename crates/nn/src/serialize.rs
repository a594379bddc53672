//! Binary (de)serialization of layers, built on `fvae-sparse`'s format
//! helpers. Used by the FVAE's model save/load (offline training writes a
//! model artifact; the serving side reloads it — the HDFS hand-off of
//! Fig. 2's deployment diagram).

use fvae_sparse::serial::{
    expect_len, put_f32, put_f32_slice, put_u64, put_u64_slice, put_u8, DecodeError, Reader,
};
use fvae_tensor::Matrix;

use crate::activation::Activation;
use crate::dense::Dense;
use crate::embedding::EmbeddingBag;
use crate::mlp::Mlp;
use crate::softmax_out::SampledSoftmaxOutput;

fn act_tag(act: Activation) -> u8 {
    match act {
        Activation::Identity => 0,
        Activation::Tanh => 1,
        Activation::Relu => 2,
        Activation::Sigmoid => 3,
    }
}

fn act_from_tag(tag: u8) -> Result<Activation, DecodeError> {
    Ok(match tag {
        0 => Activation::Identity,
        1 => Activation::Tanh,
        2 => Activation::Relu,
        3 => Activation::Sigmoid,
        other => return Err(DecodeError::Invalid(format!("unknown activation tag {other}"))),
    })
}

/// Encoded size of an empty dense layer (two dims, the activation tag, two
/// length prefixes): the per-element bound for an MLP's layer count.
const DENSE_MIN_BYTES: usize = 8 + 8 + 1 + 8 + 8;

/// Serializes a dense layer.
pub fn put_dense(buf: &mut Vec<u8>, layer: &Dense) {
    let (w, b) = layer.params();
    put_u64(buf, w.rows() as u64);
    put_u64(buf, w.cols() as u64);
    put_u8(buf, act_tag(layer.activation()));
    put_f32_slice(buf, w.as_slice());
    put_f32_slice(buf, b);
}

/// Deserializes a dense layer.
pub fn get_dense(r: &mut Reader<'_>) -> Result<Dense, DecodeError> {
    let rows = r.usize()?;
    let cols = r.usize()?;
    let act = act_from_tag(r.u8()?)?;
    let w = r.f32s()?;
    let b = r.f32s()?;
    expect_len(w.len(), &[rows, cols], "dense layer shape mismatch")?;
    expect_len(b.len(), &[cols], "dense layer shape mismatch")?;
    Ok(Dense::from_parts(Matrix::from_vec(rows, cols, w), b, act))
}

/// Serializes an MLP.
pub fn put_mlp(buf: &mut Vec<u8>, mlp: &Mlp) {
    put_u64(buf, mlp.layers().len() as u64);
    for layer in mlp.layers() {
        put_dense(buf, layer);
    }
}

/// Deserializes an MLP.
pub fn get_mlp(r: &mut Reader<'_>) -> Result<Mlp, DecodeError> {
    let depth = r.count(DENSE_MIN_BYTES)?;
    if depth == 0 {
        return Err(DecodeError::Invalid("empty MLP".into()));
    }
    let mut layers = Vec::with_capacity(depth);
    for _ in 0..depth {
        layers.push(get_dense(r)?);
    }
    // `Mlp::from_layers` asserts this; a forged file must be an error.
    if layers.windows(2).any(|pair| pair[0].out_dim() != pair[1].in_dim()) {
        return Err(DecodeError::Invalid("consecutive MLP layer dims do not chain".into()));
    }
    Ok(Mlp::from_layers(layers))
}

/// Serializes an embedding bag (IDs in slot order + weight buffer).
pub fn put_embedding_bag(buf: &mut Vec<u8>, bag: &EmbeddingBag) {
    put_u64(buf, bag.dim() as u64);
    put_u64_slice(buf, bag.table().ids());
    put_f32_slice(buf, bag.weights());
}

/// Deserializes an embedding bag. `init_std` seeds rows for IDs first seen
/// *after* loading.
pub fn get_embedding_bag(
    r: &mut Reader<'_>,
    init_std: f32,
) -> Result<EmbeddingBag, DecodeError> {
    let dim = r.usize()?;
    let ids = r.u64s()?;
    let weights = r.f32s()?;
    if dim == 0 {
        return Err(DecodeError::Invalid("zero embedding dim".into()));
    }
    expect_len(weights.len(), &[ids.len(), dim], "embedding bag size mismatch")?;
    let mut bag = EmbeddingBag::new(dim, init_std);
    for (&id, row) in ids.iter().zip(weights.chunks_exact(dim)) {
        bag.set_row(id, row, &mut NoRng);
    }
    // A repeated id would land on its first slot and shift every later one.
    if bag.vocab_len() != ids.len() {
        return Err(DecodeError::Invalid("duplicate id in embedding bag".into()));
    }
    Ok(bag)
}

/// Serializes a batched-softmax head.
pub fn put_softmax_head(buf: &mut Vec<u8>, head: &SampledSoftmaxOutput) {
    put_u64(buf, head.dim() as u64);
    put_u64_slice(buf, head.table().ids());
    // The head hands out its tables per slot: write the two length prefixes
    // by hand and stream the rows, rather than gathering temporaries first.
    let vocab = head.vocab_len();
    buf.reserve(16 + vocab * (head.dim() + 1) * 4);
    put_u64(buf, (vocab * head.dim()) as u64);
    for slot in 0..vocab {
        for &w in head.weight_row(slot) {
            put_f32(buf, w);
        }
    }
    put_u64(buf, vocab as u64);
    for slot in 0..vocab {
        put_f32(buf, head.bias_of(slot));
    }
}

/// Deserializes a batched-softmax head.
pub fn get_softmax_head(
    r: &mut Reader<'_>,
    init_std: f32,
) -> Result<SampledSoftmaxOutput, DecodeError> {
    let dim = r.usize()?;
    let ids = r.u64s()?;
    let weights = r.f32s()?;
    let bias = r.f32s()?;
    if dim == 0 {
        return Err(DecodeError::Invalid("zero head dim".into()));
    }
    expect_len(weights.len(), &[ids.len(), dim], "softmax head size mismatch")?;
    expect_len(bias.len(), &[ids.len()], "softmax head size mismatch")?;
    let mut head = SampledSoftmaxOutput::new(dim, init_std);
    for ((&id, row), &b) in ids.iter().zip(weights.chunks_exact(dim)).zip(&bias) {
        head.set_row(id, row, b, &mut NoRng);
    }
    if head.vocab_len() != ids.len() {
        return Err(DecodeError::Invalid("duplicate id in softmax head".into()));
    }
    Ok(head)
}

/// Serializes Adam moment buffers (checkpoints carry optimizer state so a
/// resumed run continues with identical update dynamics).
pub fn put_adam_state(buf: &mut Vec<u8>, state: &crate::optim::AdamState) {
    let (m, v, t) = state.parts();
    put_u64(buf, t);
    put_f32_slice(buf, m);
    put_f32_slice(buf, v);
}

/// Deserializes Adam moment buffers written by [`put_adam_state`].
pub fn get_adam_state(r: &mut Reader<'_>) -> Result<crate::optim::AdamState, DecodeError> {
    let t = r.u64()?;
    let m = r.f32s()?;
    let v = r.f32s()?;
    crate::optim::AdamState::from_parts(m, v, t).map_err(DecodeError::Invalid)
}

/// A deterministic "RNG" for deserialization paths where every row is
/// overwritten immediately after insertion, so random init must never run.
struct NoRng;

impl rand::TryRng for NoRng {
    type Error = std::convert::Infallible;

    fn try_next_u32(&mut self) -> Result<u32, Self::Error> {
        Ok(0)
    }
    fn try_next_u64(&mut self) -> Result<u64, Self::Error> {
        Ok(0)
    }
    fn try_fill_bytes(&mut self, dst: &mut [u8]) -> Result<(), Self::Error> {
        dst.fill(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(5, 3, Activation::Tanh, &mut rng);
        let mut buf = Vec::new();
        put_dense(&mut buf, &layer);
        let back = get_dense(&mut Reader::new(&buf)).expect("decode");
        assert_eq!(back.params().0, layer.params().0);
        assert_eq!(back.params().1, layer.params().1);
        assert_eq!(back.activation(), layer.activation());
    }

    #[test]
    fn mlp_roundtrip_preserves_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&[4, 6, 2], Activation::Tanh, Activation::Identity, &mut rng);
        let x = Matrix::glorot_uniform(3, 4, &mut rng);
        let before = mlp.forward(&x);
        let mut buf = Vec::new();
        put_mlp(&mut buf, &mlp);
        let back = get_mlp(&mut Reader::new(&buf)).expect("decode");
        let after = back.forward(&x);
        assert_eq!(before, after);
    }

    #[test]
    fn embedding_bag_roundtrip_preserves_lookups() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut bag = EmbeddingBag::new(4, 0.3);
        let ids = [11u64, 99, 5];
        let vals = [1.0f32, 0.5, 2.0];
        bag.forward_batch(&[(&ids, &vals)], &mut rng);
        let mut buf = Vec::new();
        put_embedding_bag(&mut buf, &bag);
        let back = get_embedding_bag(&mut Reader::new(&buf), 0.3).expect("decode");
        assert_eq!(back.vocab_len(), bag.vocab_len());
        let (ids, vals) = ([ids.to_vec()], [vals.to_vec()]);
        let (mut before, mut after) = (Matrix::default(), Matrix::default());
        bag.forward_batch_frozen_into(&ids, &vals, &mut before);
        back.forward_batch_frozen_into(&ids, &vals, &mut after);
        assert_eq!(before, after);
    }

    #[test]
    fn softmax_head_roundtrip_preserves_scores() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut head = SampledSoftmaxOutput::new(4, 0.3);
        let h = Matrix::glorot_uniform(2, 4, &mut rng);
        let cand = [7u64, 3, 123];
        head.forward(&h, &cand, &mut rng);
        let mut buf = Vec::new();
        put_softmax_head(&mut buf, &head);
        let back = get_softmax_head(&mut Reader::new(&buf), 0.3).expect("decode");
        assert_eq!(back.vocab_len(), head.vocab_len());
        assert_eq!(back.frozen_logits(&h, cand), head.frozen_logits(&h, cand));
    }

    #[test]
    fn mlp_with_unchained_layers_is_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        put_dense(&mut buf, &Dense::new(4, 3, Activation::Tanh, &mut rng));
        put_dense(&mut buf, &Dense::new(5, 2, Activation::Tanh, &mut rng));
        assert!(matches!(get_mlp(&mut Reader::new(&buf)), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn adam_state_roundtrip() {
        let adam = crate::optim::Adam::new(0.05);
        let mut state = crate::optim::AdamState::new(3);
        let mut p = vec![0.5f32, -0.5, 2.0];
        for i in 0..7 {
            adam.step_slice(&mut state, &mut p, &[0.1 * i as f32, -0.2, 0.3]);
        }
        let mut buf = Vec::new();
        put_adam_state(&mut buf, &state);
        let back = get_adam_state(&mut Reader::new(&buf)).expect("decode");
        assert_eq!(back.parts(), state.parts());
    }

    #[test]
    fn adam_state_moment_mismatch_is_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 3);
        put_f32_slice(&mut buf, &[1.0, 2.0]);
        put_f32_slice(&mut buf, &[1.0]);
        assert!(matches!(get_adam_state(&mut Reader::new(&buf)), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn corrupted_buffers_are_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Dense::new(3, 2, Activation::Relu, &mut rng);
        let mut buf = Vec::new();
        put_dense(&mut buf, &layer);
        assert!(get_dense(&mut Reader::new(&buf[..buf.len() / 2])).is_err());
        // Bad activation tag.
        let mut bad = Vec::new();
        put_u64(&mut bad, 1);
        put_u64(&mut bad, 1);
        put_u8(&mut bad, 9);
        put_f32_slice(&mut bad, &[1.0]);
        put_f32_slice(&mut bad, &[0.0]);
        assert!(matches!(get_dense(&mut Reader::new(&bad)), Err(DecodeError::Invalid(_))));
    }
}
