//! Golden-embedding fixture: a tiny seeded checkpoint plus the exact
//! embedding bytes it must serve, committed under `tests/fixtures/`.
//!
//! The fixtures were captured under the **scalar** kernel backend, so the
//! comparison is dual-mode: when the active `fvae_tensor::simd` backend is
//! scalar (`FVAE_SIMD=0`, or hardware without SIMD) the served embedding
//! must match the golden bytes **bit-identically**; under a SIMD backend
//! (whose FMA reassociation legitimately shifts f32 bits by a few ULP) it
//! must match within a tight relative tolerance instead. In *both* modes
//! the served bytes must be bit-identical across pool parallelism 1, 2,
//! and 4 — the PR-4 determinism contract holds per backend.
//!
//! Regenerate (only after an *intentional* numeric change, under
//! `FVAE_SIMD=0`) with:
//! `cargo test -p fvae-serve --test golden -- --ignored regenerate`

mod common;

use common::{raw_rows, tiny_dataset, trained_model};
use fvae_core::checkpoint::export_model_snapshot;
use fvae_serve::{read_frame, write_frame, Client, EmbedOutcome, FieldRow, Message, ServeConfig, Server};
use std::io::Read;
use std::path::PathBuf;

const FIXTURE_SEED: u64 = 0xF5AE;
const FIXTURE_USERS: usize = 16;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Reads the committed request frames (`requests.bin` is a plain
/// concatenation of `EmbedRequest` frames — the fixture dogfoods the wire
/// codec).
fn read_fixture_requests() -> Vec<Vec<FieldRow>> {
    let path = fixtures_dir().join("requests.bin");
    let mut file = std::fs::File::open(&path).expect("fixture requests.bin (run the regenerate test)");
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    while let Some(msg) = read_frame(&mut file, &mut scratch).expect("valid fixture frame") {
        match msg {
            Message::EmbedRequest { fields, .. } => out.push(fields),
            other => panic!("fixture holds non-request frame {other:?}"),
        }
    }
    out
}

/// Reads the committed expected embeddings: `[u32 rows][u32 dim]` then
/// row-major little-endian `f32`s.
fn read_fixture_expected() -> (usize, usize, Vec<f32>) {
    let bytes = std::fs::read(fixtures_dir().join("expected.f32le")).expect("fixture expected.f32le");
    let rows = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let dim = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let mut vals = Vec::with_capacity(rows * dim);
    for c in bytes[8..].chunks_exact(4) {
        vals.push(f32::from_le_bytes(c.try_into().unwrap()));
    }
    assert_eq!(vals.len(), rows * dim, "fixture length consistent");
    (rows, dim, vals)
}

/// One-time fixture generation (committed output; ignored in normal runs).
#[test]
#[ignore = "regenerates the committed golden fixtures"]
fn regenerate() {
    let dir = fixtures_dir();
    std::fs::create_dir_all(&dir).expect("fixtures dir");
    for entry in std::fs::read_dir(&dir).expect("read fixtures dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "fvck") {
            std::fs::remove_file(path).expect("clear stale checkpoint");
        }
    }
    let ds = tiny_dataset(FIXTURE_SEED);
    let model = trained_model(&ds, 2);
    export_model_snapshot(&dir, &model).expect("export fixture checkpoint");

    let users: Vec<usize> = (0..FIXTURE_USERS).collect();
    let offline = model.embed_users(&ds, &users, None);

    let mut frames = Vec::new();
    let mut scratch = Vec::new();
    for &u in &users {
        let fields = raw_rows(&ds, u, model.encoder().n_fields());
        let msg = Message::EmbedRequest { req_id: u as u64 + 1, fields };
        write_frame(&mut frames, &msg, &mut scratch).expect("encode fixture request");
    }
    std::fs::write(dir.join("requests.bin"), &frames).expect("write requests.bin");

    let mut expected = Vec::new();
    expected.extend_from_slice(&(offline.rows() as u32).to_le_bytes());
    expected.extend_from_slice(&(offline.cols() as u32).to_le_bytes());
    for v in offline.as_slice() {
        expected.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(dir.join("expected.f32le"), &expected).expect("write expected.f32le");
}

#[test]
fn served_embeddings_match_golden_bytes_at_1_2_4_threads() {
    let requests = read_fixture_requests();
    let (rows, dim, expected) = read_fixture_expected();
    assert_eq!(requests.len(), rows, "one request per expected row");
    // The goldens are scalar-backend captures: bit-exact under scalar
    // dispatch, ULP-tolerant under a reassociating SIMD backend.
    let scalar_active = fvae_tensor::simd::active().name == "scalar";

    // Served values at parallelism 1 become the bit-reference the higher
    // thread counts must reproduce exactly (per-backend determinism).
    let mut reference: Vec<Vec<f32>> = Vec::new();
    for threads in [1usize, 2, 4] {
        fvae_pool::set_parallelism(threads);
        let mut cfg = ServeConfig::new(fixtures_dir());
        cfg.batch_size = 4;
        cfg.cache_capacity = 0; // force every request through the encoder
        let server = Server::start(cfg).expect("start on fixture checkpoint");
        assert_eq!(server.latent_dim(), dim);
        let mut client = Client::connect(server.addr()).expect("connect");
        for (r, fields) in requests.iter().enumerate() {
            match client.embed(fields).expect("embed") {
                EmbedOutcome::Embedding { values, .. } => {
                    assert_eq!(values.len(), dim);
                    for (c, (a, b)) in values.iter().zip(&expected[r * dim..(r + 1) * dim]).enumerate() {
                        if scalar_active {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "row {r} col {c} at {threads} threads: served {a} vs golden {b}"
                            );
                        } else {
                            let tol = 1e-4f32.max(b.abs() * 1e-4);
                            assert!(
                                (a - b).abs() <= tol,
                                "row {r} col {c} at {threads} threads: served {a} vs golden {b} \
                                 exceeds SIMD tolerance {tol}"
                            );
                        }
                    }
                    if threads == 1 {
                        reference.push(values);
                    } else {
                        for (c, (a, b)) in values.iter().zip(&reference[r]).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "row {r} col {c}: {threads}-thread serve differs from 1-thread \
                                 on backend {}",
                                fvae_tensor::simd::active().name
                            );
                        }
                    }
                }
                other => panic!("row {r} at {threads} threads: {other:?}"),
            }
        }
        drop(client);
        drop(server);
    }
}

#[test]
fn fixture_checkpoint_is_crc_clean() {
    // Cheap guard that the committed snapshot was not corrupted in transit:
    // the loader validates framing + CRC on every byte of the file.
    let dir = fixtures_dir();
    let mut found = false;
    for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "fvck") {
            let mut bytes = Vec::new();
            std::fs::File::open(&path).expect("open").read_to_end(&mut bytes).expect("read");
            fvae_core::checkpoint::decode_snapshot(&bytes).expect("fixture snapshot decodes");
            found = true;
        }
    }
    assert!(found, "no .fvck fixture committed (run the regenerate test)");
}
