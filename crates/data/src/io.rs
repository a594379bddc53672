//! Dataset (de)serialization: lets the data-construction step (the paper's
//! log-projection module) run once and hand a binary artifact to training,
//! and lets the CLI pass datasets between subcommands.

use fvae_sparse::serial::{
    decode_csr_payload, encode_csr_payload, expect_len, put_f32_slice, put_header, put_string,
    put_u64, put_u64_slice, DecodeError, Reader, MAGIC, VERSION,
};

use crate::dataset::MultiFieldDataset;

/// Smallest encoded field (name prefix plus an empty CSR payload's dims and
/// three length prefixes): the per-element bound for the field count.
const FIELD_MIN_BYTES: usize = 8 + 8 + 3 * 8;

impl MultiFieldDataset {
    /// Serializes the dataset (field names, per-field CSR, topic labels).
    pub fn to_bytes(&self) -> Vec<u8> {
        let nnz: usize = (0..self.n_fields()).map(|k| self.field(k).nnz()).sum();
        let mut buf = Vec::with_capacity(64 + nnz * 8);
        put_header(&mut buf);
        put_u64(&mut buf, self.n_fields() as u64);
        for k in 0..self.n_fields() {
            put_string(&mut buf, &self.field_names()[k]);
            encode_csr_payload(&mut buf, self.field(k));
        }
        let topics: Vec<u64> = self.user_topics.iter().map(|&t| t as u64).collect();
        put_u64_slice(&mut buf, &topics);
        put_u64(&mut buf, self.n_topics as u64);
        put_f32_slice(&mut buf, &self.user_mixtures);
        buf
    }

    /// Deserializes a dataset written by [`MultiFieldDataset::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        r.header(MAGIC, VERSION)?;
        let n_fields = r.count(FIELD_MIN_BYTES)?;
        if n_fields == 0 {
            return Err(DecodeError::Invalid("dataset needs at least one field".into()));
        }
        let mut names = Vec::with_capacity(n_fields);
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            names.push(r.string()?);
            fields.push(decode_csr_payload(&mut r)?);
        }
        let rows = fields[0].n_rows();
        if fields.iter().any(|f| f.n_rows() != rows) {
            return Err(DecodeError::Invalid("fields cover different user counts".into()));
        }
        let topics = r.usizes()?;
        if !topics.is_empty() && topics.len() != rows {
            return Err(DecodeError::Invalid("topic labels must cover every user".into()));
        }
        let mut ds = MultiFieldDataset::new(names, fields);
        ds.user_topics = topics;
        // Files written before the mixture block existed end here.
        if r.remaining() > 0 {
            let n_topics = r.usize()?;
            let mixtures = r.f32s()?;
            if n_topics > 0 {
                expect_len(mixtures.len(), &[rows, n_topics], "mixture block size mismatch")?;
            }
            ds.n_topics = n_topics;
            ds.user_mixtures = mixtures;
        }
        r.finish()?;
        Ok(ds)
    }

    /// Writes the dataset to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a dataset from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Self::from_bytes(&std::fs::read(path)?)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{FieldSpec, TopicModelConfig};

    fn tiny() -> MultiFieldDataset {
        TopicModelConfig {
            n_users: 80,
            n_topics: 3,
            alpha: 0.2,
            fields: vec![
                FieldSpec::new("ch1", 8, 2, 1.0),
                FieldSpec::new("tag", 32, 4, 1.0),
            ],
            pair_prob: 0.3,
            seed: 12,
        }
        .generate()
    }

    #[test]
    fn roundtrip_is_identity() {
        let ds = tiny();
        let back = MultiFieldDataset::from_bytes(&ds.to_bytes()).expect("decode");
        assert_eq!(back.n_users(), ds.n_users());
        assert_eq!(back.field_names(), ds.field_names());
        assert_eq!(back.user_topics, ds.user_topics);
        for k in 0..ds.n_fields() {
            assert_eq!(back.field(k), ds.field(k), "field {k}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let ds = tiny();
        let path = std::env::temp_dir().join("fvae_ds_io_test.bin");
        ds.save(&path).expect("save");
        let back = MultiFieldDataset::load(&path).expect("load");
        assert_eq!(back.field(1), ds.field(1));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncated_is_rejected() {
        let ds = tiny();
        let bytes = ds.to_bytes();
        assert!(MultiFieldDataset::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }
}
