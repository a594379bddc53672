//! Build determinism: the serialized index is a pure function of
//! `(points, config)` — worker-thread count must not move a single bit.
//!
//! Style follows `crates/core/tests/parity.rs`: the same seeded build runs
//! at parallelism 1, 2, and 4 (the global pool always has capacity ≥ 4, so
//! the clamp is honored even on a single-core runner) and the artifacts are
//! byte-compared. The `FVAE_SIMD=0` half of the guarantee needs no separate
//! build here: index construction calls only the *scalar* `fvae_tensor::ops`
//! kernels — never the dispatched SIMD vtable — and CI additionally runs
//! this whole suite under `FVAE_SIMD=0`, which would catch any dispatched
//! kernel sneaking onto the build path.

use fvae_ann::serial::AnyIndex;
use fvae_ann::{encode_index, synth_clustered, AnnIndex, FlatIndex, IvfConfig, IvfIndex};

fn corpus() -> (Vec<u64>, Vec<f32>) {
    synth_clustered(800, 16, 12, 77)
}

fn config() -> IvfConfig {
    IvfConfig { nlist: 24, rerank: 64, default_nprobe: 6, ..IvfConfig::default() }
}

#[test]
fn serialized_ivf_is_byte_identical_at_1_2_4_threads() {
    let (ids, data) = corpus();
    let mut artifacts: Vec<(usize, Vec<u8>)> = Vec::new();
    for threads in [1usize, 2, 4] {
        fvae_pool::set_parallelism(threads);
        assert_eq!(fvae_pool::parallelism(), threads, "pool clamp not honored");
        let ivf = IvfIndex::build(16, &ids, &data, config()).expect("build");
        artifacts.push((threads, encode_index(&AnyIndex::Ivf(ivf)).to_vec()));
    }
    fvae_pool::set_parallelism(1);
    let (_, reference) = &artifacts[0];
    for (threads, bytes) in &artifacts[1..] {
        assert_eq!(
            bytes, reference,
            "index bytes diverged between 1 and {threads} worker threads"
        );
    }
}

#[test]
fn top_k_is_identical_at_1_2_4_threads_with_ties_by_id() {
    let (ids, data) = corpus();
    // Duplicate a vector under two different ids so the tie-break rule is
    // actually exercised, not just stated.
    let mut ids = ids;
    let mut data = data;
    ids.push(1_000_003);
    let dup: Vec<f32> = data[5 * 16..6 * 16].to_vec();
    data.extend_from_slice(&dup);

    let mut all_results: Vec<Vec<(u64, f32)>> = Vec::new();
    for threads in [1usize, 2, 4] {
        fvae_pool::set_parallelism(threads);
        let ivf = IvfIndex::build(16, &ids, &data, config()).expect("build");
        let mut per_query = Vec::new();
        for q in 0..50 {
            let query = &data[q * 16..(q + 1) * 16];
            per_query.extend(ivf.search(query, 10).iter().map(|n| (n.id, n.score)));
        }
        all_results.push(per_query);
    }
    fvae_pool::set_parallelism(1);
    assert_eq!(all_results[0], all_results[1]);
    assert_eq!(all_results[1], all_results[2]);

    // The duplicated vector ties with its source; the lower id must win the
    // earlier rank. Query the shared vector directly.
    fvae_pool::set_parallelism(1);
    let ivf = IvfIndex::build(16, &ids, &data, config()).expect("build");
    let query = &data[5 * 16..6 * 16];
    let got = ivf.search_nprobe(query, 10, ivf.nlist(), &mut Default::default());
    let tied: Vec<u64> = got.iter().filter(|n| n.score == 0.0).map(|n| n.id).collect();
    assert_eq!(tied, vec![ids[5], 1_000_003], "tie not broken by ascending id");
}

#[test]
fn flat_index_is_thread_invariant_too() {
    // FlatIndex never touches the pool, but the guarantee is stated for the
    // whole crate; pin it so a future pooled scan cannot silently regress.
    let (ids, data) = corpus();
    let mut artifacts = Vec::new();
    for threads in [1usize, 4] {
        fvae_pool::set_parallelism(threads);
        let flat = FlatIndex::build(16, &ids, &data).expect("build");
        artifacts.push(encode_index(&AnyIndex::Flat(flat)).to_vec());
    }
    fvae_pool::set_parallelism(1);
    assert_eq!(artifacts[0], artifacts[1]);
}

#[test]
fn rebuild_from_decoded_bytes_searches_identically() {
    // load(save(index)) must not only compare equal but *behave* equal.
    let (ids, data) = corpus();
    let ivf = IvfIndex::build(16, &ids, &data, config()).expect("build");
    let bytes = encode_index(&AnyIndex::Ivf(ivf.clone()));
    let loaded = fvae_ann::decode_index(&bytes).expect("decode");
    for q in [0usize, 17, 399] {
        let query = &data[q * 16..(q + 1) * 16];
        assert_eq!(ivf.search(query, 10), loaded.search(query, 10), "query {q}");
    }
}
