//! Int8 serving parity against the committed golden fixtures.
//!
//! The accuracy gate for `--quant int8` (ISSUE 6): on the golden fixture
//! checkpoint, every int8-served embedding must stay within cosine ≥ 0.999
//! of the committed f32 golden, and the top-k neighbor sets computed from
//! int8 embeddings must match the ones computed from the f32 goldens —
//! except where the f32 ranking itself is a statistical tie (golden cosines
//! within the quantization noise band), where either neighbor is correct.
//! Both sides are deterministic — the fixtures are committed bytes and the
//! i8×i8→i32 forward is exact integer arithmetic — so this is a stable
//! gate, not a flaky threshold.
//!
//! The int8 path also carries a *stronger* reproducibility contract than
//! f32 serving: served bytes are bit-identical across pool parallelism
//! **and** across SIMD backends (integer accumulation is associative), which
//! `quant_backends.rs` pins by forcing scalar vs detected dispatch.

mod common;

use common::{
    fixtures_dir, int8_config, raw_rows, read_fixture_requests, serve_all, tiny_dataset, trained_model,
};
use fvae_core::checkpoint::export_model_snapshot;
use fvae_serve::{Client, EmbedOutcome, Server};

fn read_fixture_expected() -> (usize, usize, Vec<f32>) {
    let bytes = std::fs::read(fixtures_dir().join("expected.f32le")).expect("fixture expected.f32le");
    let rows = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let dim = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let vals: Vec<f32> =
        bytes[8..].chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
    assert_eq!(vals.len(), rows * dim);
    (rows, dim, vals)
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    dot / (na * nb).max(f32::MIN_POSITIVE)
}

/// Top-k neighbor indices of `row` among `all` by cosine similarity
/// (excluding itself), returned as a sorted set.
fn top_k(all: &[Vec<f32>], row: usize, k: usize) -> Vec<usize> {
    let mut scored: Vec<(usize, f32)> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != row)
        .map(|(i, e)| (i, cosine(e, &all[row])))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut ids: Vec<usize> = scored.into_iter().take(k).map(|(i, _)| i).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn int8_serve_matches_f32_goldens_and_preserves_topk_neighbors() {
    let requests = read_fixture_requests();
    let (rows, dim, expected) = read_fixture_expected();
    assert_eq!(requests.len(), rows);

    let server = Server::start(int8_config(&fixtures_dir())).expect("start int8 server");
    assert!(server.quantized(), "--quant int8 must install the quantized encoder");
    assert_eq!(server.latent_dim(), dim);
    let served = serve_all(&server, &requests);
    drop(server);

    let golden: Vec<Vec<f32>> = (0..rows).map(|r| expected[r * dim..(r + 1) * dim].to_vec()).collect();
    for (r, (got, want)) in served.iter().zip(&golden).enumerate() {
        let cos = cosine(got, want);
        assert!(cos >= 0.999, "row {r}: int8 vs golden cosine {cos} below parity gate");
    }

    // Retrieval parity: the int8 top-k neighbor sets must match the f32
    // goldens', except where the golden ranking itself is a tie — any
    // neighbor the int8 set swaps in must score within `tie_eps` of the
    // neighbor it displaced *under the golden metric*. 1e-3 is the noise
    // band the cosine ≥ 0.999 gate already concedes to quantization.
    let k = 5;
    let tie_eps = 1e-3f32;
    for r in 0..rows {
        let want = top_k(&golden, r, k);
        let got = top_k(&served, r, k);
        if got == want {
            continue;
        }
        let gcos = |i: usize| cosine(&golden[i], &golden[r]);
        let kth_best = want.iter().map(|&i| gcos(i)).fold(f32::INFINITY, f32::min);
        for &i in got.iter().filter(|i| !want.contains(i)) {
            assert!(
                gcos(i) >= kth_best - tie_eps,
                "row {r}: int8 top-{k} admits neighbor {i} (golden cos {}) which is not a \
                 tie with the golden cut-off {kth_best} — retrieval quality regressed",
                gcos(i)
            );
        }
    }
}

#[test]
fn reload_keeps_the_quantized_encoder_installed() {
    let ds = tiny_dataset(47);
    let model_a = trained_model(&ds, 1);
    let model_b = trained_model(&ds, 3); // more steps → newer snapshot name
    let dir = std::env::temp_dir().join(format!("fvae-serve-quant-reload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model_a).expect("export A");

    let server = Server::start(int8_config(&dir)).expect("start int8 server");
    assert!(server.quantized());
    let n_fields = server.n_fields();
    let fields = raw_rows(&ds, 0, n_fields);
    let mut client = Client::connect(server.addr()).expect("connect");
    let before = match client.embed(&fields).expect("embed before reload") {
        EmbedOutcome::Embedding { values, .. } => values,
        other => panic!("{other:?}"),
    };

    export_model_snapshot(&dir, &model_b).expect("export B");
    let report = client.reload().expect("reload");
    assert!(report.ok && report.changed, "newer snapshot must be picked up: {report:?}");
    assert!(server.quantized(), "reload must re-quantize under the startup mode");

    let after = match client.embed(&fields).expect("embed after reload") {
        EmbedOutcome::Embedding { values, .. } => values,
        other => panic!("{other:?}"),
    };
    assert_ne!(
        before.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        after.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "reloaded weights must actually change the served embedding"
    );
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

