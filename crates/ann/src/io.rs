//! Reader/writer for the embedding-store artifact: the one codec for it.
//!
//! `fvae embed` snapshots an `EmbeddingStore` (crates/lookalike) to disk:
//! `[header][dim u64][n u64]` then `n` entries of `(user u64, dim × f32)` in
//! ascending-user order. The `nearest` RPC and the `fvae ann` harness index
//! those files without wanting the store's lock shards, so the format lives
//! here over flat slices and `EmbeddingStore::{to_bytes, from_bytes}`
//! delegate to it.

use fvae_sparse::serial::{put_f32, put_header, put_u64, DecodeError, Reader, MAGIC, VERSION};

/// A decoded embedding file: ascending unique user ids and their vectors in
/// one row-major buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbeddingFile {
    /// Embedding dimensionality (positive).
    pub dim: usize,
    /// User ids, strictly increasing.
    pub ids: Vec<u64>,
    /// Row-major vectors, `ids.len() * dim` floats, in id order.
    pub data: Vec<f32>,
}

/// Serializes embeddings in the embedding-file layout. Panics if the
/// invariants of [`EmbeddingFile`] are violated (this is a programmer error
/// on the write path, not hostile input).
pub fn write_embeddings(dim: usize, ids: &[u64], data: &[f32]) -> Vec<u8> {
    assert!(dim > 0, "embedding dim must be positive");
    assert_eq!(data.len(), ids.len() * dim, "data length is not ids x dim");
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be strictly increasing");
    let mut buf = Vec::with_capacity(22 + ids.len() * (8 + dim * 4));
    put_header(&mut buf);
    put_u64(&mut buf, dim as u64);
    put_u64(&mut buf, ids.len() as u64);
    for (&user, row) in ids.iter().zip(data.chunks_exact(dim)) {
        put_u64(&mut buf, user);
        for &v in row {
            put_f32(&mut buf, v);
        }
    }
    buf
}

/// Parses an embedding file, enforcing the writer's invariants: positive
/// dim (checked before anything else), strictly increasing user ids, exact
/// entry count. The entry count is bounded by the ids alone, and each row
/// is bounds-checked as it is read, so no allocation is sized by unchecked
/// input.
pub fn read_embeddings(buf: &[u8]) -> Result<EmbeddingFile, DecodeError> {
    let mut r = Reader::new(buf);
    r.header(MAGIC, VERSION)?;
    let dim = r.usize()?;
    if dim == 0 {
        return Err(DecodeError::Invalid("zero embedding dim".into()));
    }
    let n = r.count(8)?;
    let mut ids = Vec::with_capacity(n);
    let mut data = Vec::new();
    for _ in 0..n {
        let user = r.u64()?;
        if ids.last().is_some_and(|&prev| user <= prev) {
            return Err(DecodeError::Invalid(format!(
                "user ids not strictly increasing at {user}"
            )));
        }
        ids.push(user);
        data.extend(r.f32_row(dim)?);
    }
    r.finish()?;
    Ok(EmbeddingFile { dim, ids, data })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let bytes = write_embeddings(2, &[3, 9], &[1.0, 2.0, 3.0, 4.0]);
        let file = read_embeddings(&bytes).expect("decode");
        assert_eq!(file.dim, 2);
        assert_eq!(file.ids, vec![3, 9]);
        assert_eq!(file.data, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn zero_dim_rejected_before_entries() {
        let mut buf = Vec::new();
        put_header(&mut buf);
        put_u64(&mut buf, 0);
        put_u64(&mut buf, 0);
        assert!(matches!(read_embeddings(&buf), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn unsorted_and_duplicate_ids_rejected() {
        let mut sorted = Vec::new();
        put_header(&mut sorted);
        put_u64(&mut sorted, 1);
        put_u64(&mut sorted, 2);
        for user in [7u64, 7] {
            put_u64(&mut sorted, user);
            put_f32(&mut sorted, 0.0);
        }
        assert!(matches!(read_embeddings(&sorted), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn truncation_and_oversized_count_rejected() {
        let bytes = write_embeddings(4, &[1, 2], &[0.5; 8]);
        assert!(matches!(
            read_embeddings(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated)
        ));
        let mut hostile = Vec::new();
        put_header(&mut hostile);
        put_u64(&mut hostile, 4);
        put_u64(&mut hostile, u64::MAX); // count far beyond the buffer
        assert!(matches!(read_embeddings(&hostile), Err(DecodeError::Truncated)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = write_embeddings(1, &[5], &[1.0]);
        bytes.push(9);
        assert!(matches!(read_embeddings(&bytes), Err(DecodeError::Invalid(_))));
    }
}
