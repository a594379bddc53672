//! One hostile-input battery over every file format the pipeline hands
//! between stages: CSR, dataset, model, snapshot, flat and IVF index,
//! embedding file and `EmbeddingStore`.
//!
//! Per format: (a) decode → re-encode is the identity on bytes, (b) every
//! strict prefix is an error, (c) overwriting any 8 bytes with a hostile
//! length never panics and never decodes to something of a different size.
//! Debug and release disagree on how an unchecked length dies (debug traps
//! the multiply, release wraps it and dies in the allocator), so CI runs
//! this file in both.

use std::path::PathBuf;
use std::sync::OnceLock;

use fvae_ann::io::{read_embeddings, write_embeddings};
use fvae_ann::{decode_index, encode_index, synth_clustered, AnyIndex, FlatIndex, IvfConfig, IvfIndex};
use fvae_core::{
    decode_snapshot, normalized_snapshot_bytes, Checkpointer, Fvae, FvaeConfig, NullObserver,
    TrainOptions,
};
use fvae_data::{FieldSpec, MultiFieldDataset, TopicModelConfig};
use fvae_lookalike::EmbeddingStore;
use fvae_sparse::serial::{crc32, decode_csr, encode_csr, put_header, put_u64, DecodeError};

struct Format {
    name: &'static str,
    valid: Vec<u8>,
    /// Decode, then re-encode; `None` when decoding fails.
    roundtrip: fn(&[u8]) -> Option<Vec<u8>>,
    /// The file ends in a CRC-32 of everything before it: recompute it
    /// after a mutation so the mutation reaches the section decoders
    /// instead of stopping at `CrcMismatch`.
    crc_trailer: bool,
    /// The one strict prefix that is itself a well-formed (older) file.
    legacy_prefix: Option<usize>,
}

fn dataset() -> MultiFieldDataset {
    TopicModelConfig {
        n_users: 12,
        n_topics: 2,
        alpha: 0.2,
        fields: vec![FieldSpec::new("ch", 6, 2, 1.0), FieldSpec::new("tag", 8, 2, 1.0)],
        pair_prob: 0.0,
        seed: 5,
    }
    .generate()
}

/// The smallest model that has every optional part (an extra encoder MLP).
fn config(ds: &MultiFieldDataset) -> FvaeConfig {
    let mut cfg = FvaeConfig::for_dataset(ds);
    cfg.latent_dim = 2;
    cfg.enc_hidden = 4;
    cfg.enc_extra_hidden = vec![3];
    cfg.dec_hidden = vec![4];
    cfg.batch_size = 6;
    cfg
}

fn model_bytes() -> Vec<u8> {
    let ds = dataset();
    let mut model = Fvae::new(config(&ds));
    let users: Vec<usize> = (0..ds.n_users()).collect();
    model.train_epochs(&ds, &users, 1, |_, _| {});
    model.to_bytes()
}

/// An early-stopping snapshot — the kind with all of model, optimizer, RNG,
/// progress and early-stop sections — normalized, so that normalizing it
/// again (which re-encodes the early-stop section) is the identity.
fn snapshot_bytes() -> Vec<u8> {
    let dir: PathBuf = std::env::temp_dir().join(format!("fvae_hostile_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = dataset();
    let mut model = Fvae::new(config(&ds));
    let users: Vec<usize> = (0..ds.n_users()).collect();
    let cp = Checkpointer::new(&dir, 0, 1).expect("checkpoint dir");
    let options = TrainOptions { max_epochs: 2, patience: 2, eval_every: 1 };
    model
        .train_until_checkpointed(&ds, &users[..8], &users[8..], options, &mut NullObserver, Some(&cp), None)
        .expect("train");
    let newest = Checkpointer::list_snapshot_files(&dir).expect("list").remove(0);
    let raw = std::fs::read(newest).expect("read snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(decode_snapshot(&raw).expect("decodes").is_early_stopping());
    normalized_snapshot_bytes(&raw).expect("normalizes")
}

/// Built once: the tests run on parallel threads and the snapshot fixture
/// goes through a directory on disk.
fn formats() -> &'static [Format] {
    static FORMATS: OnceLock<Vec<Format>> = OnceLock::new();
    FORMATS.get_or_init(build_formats)
}

fn build_formats() -> Vec<Format> {
    let ds = dataset();
    let ds_bytes = ds.to_bytes();
    let mixture_block = 8 + 8 + 4 * ds.user_mixtures.len();
    let (ids, data) = synth_clustered(48, 4, 3, 9);
    let flat = FlatIndex::build(4, &ids, &data).expect("flat");
    let ivf_cfg = IvfConfig { nlist: 3, pq_m: 2, pq_ks: 4, ..IvfConfig::default() };
    let ivf = IvfIndex::build(4, &ids, &data, ivf_cfg).expect("ivf");
    let embeddings = write_embeddings(4, &ids, &data);
    let plain = |name, valid, roundtrip| Format {
        name,
        valid,
        roundtrip,
        crc_trailer: false,
        legacy_prefix: None,
    };
    let index: fn(&[u8]) -> Option<Vec<u8>> = |b| decode_index(b).ok().map(|i| encode_index(&i));
    vec![
        plain("csr", encode_csr(ds.field(1)), |b| decode_csr(b).ok().map(|m| encode_csr(&m))),
        Format {
            legacy_prefix: Some(ds_bytes.len() - mixture_block),
            ..plain("dataset", ds_bytes, |b| {
                MultiFieldDataset::from_bytes(b).ok().map(|d| d.to_bytes())
            })
        },
        plain("model", model_bytes(), |b| Fvae::from_bytes(b).ok().map(|m| m.to_bytes())),
        Format {
            crc_trailer: true,
            // Normalizing re-encodes only the early-stop section, so decode
            // the rest as well.
            ..plain("snapshot", snapshot_bytes(), |b| {
                decode_snapshot(b).ok().and_then(|_| normalized_snapshot_bytes(b).ok())
            })
        },
        plain("flat index", encode_index(&AnyIndex::Flat(flat)), index),
        plain("ivf index", encode_index(&AnyIndex::Ivf(ivf)), index),
        plain("embedding file", embeddings.clone(), |b| {
            read_embeddings(b).ok().map(|f| write_embeddings(f.dim, &f.ids, &f.data))
        }),
        plain("embedding store", embeddings, |b| {
            EmbeddingStore::from_bytes(b).ok().map(|s| s.to_bytes())
        }),
    ]
}

#[test]
fn roundtrip_reencodes_to_identical_bytes() {
    for f in formats() {
        assert_eq!((f.roundtrip)(&f.valid).as_ref(), Some(&f.valid), "{}", f.name);
    }
}

#[test]
fn every_strict_prefix_is_an_error() {
    for f in formats() {
        for cut in 0..f.valid.len() {
            let decoded = (f.roundtrip)(&f.valid[..cut]);
            if f.legacy_prefix == Some(cut) {
                assert!(decoded.is_some(), "{}: legacy layout must still decode", f.name);
            } else {
                assert!(decoded.is_none(), "{}: prefix of {cut} bytes accepted", f.name);
            }
        }
    }
}

#[test]
fn hostile_lengths_anywhere_never_panic_or_change_the_size() {
    for f in formats() {
        let len = f.valid.len();
        let body_end = if f.crc_trailer { len - 4 } else { len };
        let mut bytes = f.valid.clone();
        // Length fields sit at every alignment (6-byte headers, one-byte
        // tags), so every offset is tried, not only multiples of eight.
        for at in 0..body_end - 8 {
            let remaining = (body_end - at - 8) as u64;
            for hostile in [u64::MAX, 1 << 63, 1 << 62, 1 << 61, remaining + 1] {
                bytes[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
                if f.crc_trailer {
                    let crc = crc32(&bytes[..body_end]);
                    bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
                }
                if let Some(again) = (f.roundtrip)(&bytes) {
                    assert_eq!(again.len(), len, "{}: {hostile:#x} at {at} changed the size", f.name);
                }
            }
            bytes[at..at + 8].copy_from_slice(&f.valid[at..at + 8]);
        }
    }
}

/// `[header][fields…]`: the shortest inputs that reach each length that
/// used to be trusted.
fn forged(fields: &[u64]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_header(&mut buf);
    for &v in fields {
        put_u64(&mut buf, v);
    }
    buf
}

#[test]
fn embedding_file_with_wrapping_row_size_is_truncated_not_a_panic() {
    // dim = 2^62 wraps `8 + dim * 4` to 8, so one declared entry "fits" in
    // the 8 bytes behind it: multiply overflow in debug, capacity overflow
    // in release. Reachable from `fvae serve --embeddings` and every reload.
    let bytes = forged(&[1 << 62, 1, 0]);
    assert_eq!(read_embeddings(&bytes), Err(DecodeError::Truncated));
    assert!(matches!(EmbeddingStore::from_bytes(&bytes), Err(DecodeError::Truncated)));
}

#[test]
fn dataset_with_absurd_field_count_is_truncated_not_an_allocation() {
    let bytes = forged(&[u64::MAX]);
    assert!(matches!(MultiFieldDataset::from_bytes(&bytes), Err(DecodeError::Truncated)));
}

#[test]
fn model_config_with_absurd_list_lengths_is_truncated() {
    // n_fields, latent_dim, enc_hidden, then the enc_extra_hidden count.
    for n_extra in [u64::MAX, 1 << 61, (1 << 61) + 1] {
        let bytes = forged(&[2, 2, 4, n_extra, 0, 0]);
        assert!(matches!(Fvae::from_bytes(&bytes), Err(DecodeError::Truncated)), "{n_extra:#x}");
    }
    // …and the dec_hidden count behind an empty enc_extra_hidden.
    let bytes = forged(&[2, 2, 4, 0, 1 << 61, 0]);
    assert!(matches!(Fvae::from_bytes(&bytes), Err(DecodeError::Truncated)));
}
