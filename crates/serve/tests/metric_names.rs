//! Exported names are a contract: `ladder`, the CI greps and the verify
//! skill read metrics and trace stages *by name*. A shard and a router each
//! take an embed, a nearest, a ping and a reload; every metric family a tier
//! rendered before the connection-core refactor must still be rendered, and
//! the trace-stage tables must be unchanged.

mod common;

use common::{raw_rows, tiny_dataset, trained_model};
use fvae_core::checkpoint::export_model_snapshot;
use fvae_serve::{
    Client, EmbedOutcome, NearestOutcome, Router, RouterConfig, ServeConfig, Server,
    ROUTER_TRACE_STAGES, TRACE_STAGES,
};
use std::collections::BTreeSet;

/// Every family `fvae serve` rendered at the parent of the refactor.
const SHARD_FAMILIES: &[&str] = &[
    "fvae_serve_accept_errors",
    "fvae_serve_batch_size",
    "fvae_serve_batches",
    "fvae_serve_cache_hits",
    "fvae_serve_cache_misses",
    "fvae_serve_connections",
    "fvae_serve_encode_ns",
    "fvae_serve_errors",
    "fvae_serve_latency_us",
    "fvae_serve_nearest_errors",
    "fvae_serve_nearest_reloads",
    "fvae_serve_nearest_requests",
    "fvae_serve_overloaded",
    "fvae_serve_quantized",
    "fvae_serve_queue_depth",
    "fvae_serve_reload_errors",
    "fvae_serve_reload_noops",
    "fvae_serve_reloads",
    "fvae_serve_replies_ok",
    "fvae_serve_requests",
    "fvae_serve_stage_ns",
];

/// Every family `fvae router` rendered at the parent of the refactor.
const ROUTER_FAMILIES: &[&str] = &[
    "fvae_router_connections",
    "fvae_router_errors",
    "fvae_router_latency_us",
    "fvae_router_overloaded",
    "fvae_router_reload_errors",
    "fvae_router_reload_noops",
    "fvae_router_reload_rollbacks",
    "fvae_router_reloads",
    "fvae_router_replies_ok",
    "fvae_router_requests",
    "fvae_router_retries",
    "fvae_router_shard_failures",
    "fvae_router_shard_rpc_ns",
    "fvae_router_shard_unhealthy",
    "fvae_router_stage_ns",
    "fvae_router_unhealthy_shards",
];

/// The series the ladder, the CI greps and the verify skill parse out of
/// the rendered text, spelled as they read them.
const SERIES_READ_BY_NAME: &[&str] = &[
    "fvae_serve_stage_ns_sum{stage=\"decode\"}",
    "fvae_serve_stage_ns_count{stage=\"reply_write\"}",
    "fvae_serve_batch_size_sum ",
    "fvae_serve_batch_size_count ",
    "fvae_serve_cache_hits ",
    "fvae_serve_cache_misses ",
    "fvae_serve_requests ",
    "fvae_serve_quantized ",
    "fvae_router_retries ",
    "fvae_router_unhealthy_shards ",
];

fn families(text: &str) -> BTreeSet<&str> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .collect()
}

/// One of each request the tiers share, through `addr`.
fn drive(addr: std::net::SocketAddr, rows: &[fvae_serve::FieldRow], query: &[f32]) -> String {
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(client.embed(rows).expect("embed"), EmbedOutcome::Embedding { .. }));
    assert!(matches!(client.nearest(query, 3).expect("nearest"), NearestOutcome::Neighbors { .. }));
    client.ping(1).expect("ping");
    assert!(client.reload().expect("reload").ok);
    client.metrics().expect("metrics")
}

#[test]
fn exported_metric_and_stage_names_are_a_superset_of_the_parents() {
    assert_eq!(
        TRACE_STAGES,
        ["decode", "admission", "queue_wait", "batch_form", "encode", "reply_write"]
    );
    assert_eq!(ROUTER_TRACE_STAGES, ["decode", "route", "shard_rpc", "reply_write"]);

    let dir = std::env::temp_dir().join(format!("fvae-metric-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = tiny_dataset(61);
    export_model_snapshot(&dir, &trained_model(&ds, 1)).expect("export");
    let (ids, data) = fvae_ann::synth_clustered(64, 8, 4, 5);
    let store = dir.join("embeddings.bin");
    std::fs::write(&store, fvae_ann::io::write_embeddings(8, &ids, &data)).expect("write store");
    let mut cfg = ServeConfig::new(&dir);
    cfg.embeddings = Some(store);

    let shard = Server::start(cfg).expect("start shard");
    let router =
        Router::start(RouterConfig::new(vec![shard.addr().to_string()])).expect("start router");
    let rows = raw_rows(&ds, 0, shard.n_fields());

    let shard_text = drive(shard.addr(), &rows, &data[..8]);
    let router_text = drive(router.addr(), &rows, &data[..8]);

    for (tier, text, parents) in
        [("shard", &shard_text, SHARD_FAMILIES), ("router", &router_text, ROUTER_FAMILIES)]
    {
        let rendered = families(text);
        let missing: Vec<&&str> = parents.iter().filter(|f| !rendered.contains(**f)).collect();
        assert!(missing.is_empty(), "{tier} no longer exports {missing:?}:\n{text}");
    }
    let both = format!("{shard_text}{router_text}");
    for series in SERIES_READ_BY_NAME {
        assert!(
            both.lines().any(|l| l.starts_with(series)),
            "series `{series}` is read by name downstream:\n{both}"
        );
    }
    // The router accounts for connections on the shard's rule.
    assert!(families(&router_text).contains("fvae_router_accept_errors"));

    drop(router);
    drop(shard);
    let _ = std::fs::remove_dir_all(&dir);
}
