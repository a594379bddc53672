//! End-to-end tracing through the serve path: a request that crosses the
//! batch queue leaves a complete decode → admission → queue_wait →
//! batch_form → encode → reply_write lane in the trace ring, the Chrome
//! export is valid `trace_event` JSON, the per-stage histograms populate,
//! and the `TraceRequest`/`InfoRequest` frames serve both over the wire.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

mod common;

use common::{tiny_dataset, trained_model};
use fvae_core::checkpoint::export_model_snapshot;
use fvae_serve::{Client, EmbedOutcome, FieldRow, ServeConfig, Server, TRACE_STAGES};

fn rows(i: u64, n_fields: usize) -> Vec<FieldRow> {
    (0..n_fields as u64)
        .map(|k| {
            let ids: Vec<u64> = (0..4).map(|j| (i * 13 + k * 5 + j) % 40).collect();
            let vals: Vec<f32> = (0..4).map(|j| 1.0 + (j as f32) * 0.5).collect();
            (ids, vals)
        })
        .collect()
}

#[test]
fn traced_requests_leave_complete_stage_lanes() {
    let ds = tiny_dataset(33);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-serve-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");

    let mut cfg = ServeConfig::new(&dir);
    cfg.cache_capacity = 0; // every request must cross the full pipeline
    cfg.trace_capacity = 256;
    let server = Server::start(cfg).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    const N: u64 = 10;
    for i in 0..N {
        match client.embed(&rows(i, server.n_fields())).expect("embed") {
            EmbedOutcome::Embedding { values, .. } => assert_eq!(values.len(), server.latent_dim()),
            other => panic!("expected embedding, got {other:?}"),
        }
    }

    // --- Ring contents: each traced request has all six stages. -----------
    // The connection thread records `reply_write` only after the write
    // returns, i.e. possibly after the client has the reply in hand. A ping
    // on the same connection is answered by the same thread, in order, so
    // once it returns the last embed's span is in the ring.
    client.ping(0).expect("ping");
    let events = server.trace_events();
    let mut lanes: BTreeMap<u64, BTreeSet<&'static str>> = BTreeMap::new();
    for e in &events {
        lanes.entry(e.trace_id).or_default().insert(e.stage);
    }
    let complete = lanes
        .values()
        .filter(|stages| TRACE_STAGES.iter().all(|s| stages.contains(s)))
        .count();
    assert!(
        complete as u64 >= N,
        "expected ≥{N} complete lanes, got {complete} (lanes: {lanes:?})"
    );
    // Stages are causally ordered within a lane: decode before admission
    // before queue_wait start, and the encode span begins after batch_form
    // begins.
    for (id, _) in lanes.iter().take(3) {
        let lane: BTreeMap<&str, (u64, u64)> = events
            .iter()
            .filter(|e| e.trace_id == *id)
            .map(|e| (e.stage, (e.start_ns, e.dur_ns)))
            .collect();
        if lane.len() < TRACE_STAGES.len() {
            continue;
        }
        assert!(lane["decode"].0 <= lane["admission"].0, "decode starts first");
        assert!(lane["admission"].0 <= lane["queue_wait"].0, "admission precedes queueing");
        assert!(lane["batch_form"].0 <= lane["encode"].0, "forming precedes encoding");
        assert!(
            lane["encode"].0 + lane["encode"].1 <= lane["reply_write"].0 + lane["reply_write"].1,
            "reply write finishes last"
        );
    }

    // --- Chrome export: valid JSON, one slice per event, tid = trace id. --
    let json = client.trace_json().expect("trace over the wire");
    assert_eq!(json, server.trace_json(), "wire export matches in-process export");
    let doc = fvae_obs::parse(&json).expect("valid trace JSON");
    let slices = match doc.get("traceEvents") {
        Some(fvae_obs::Value::Arr(v)) => v,
        other => panic!("traceEvents missing: {other:?}"),
    };
    assert_eq!(slices.len(), events.len());
    for s in slices {
        assert_eq!(s.get("ph").and_then(|v| v.as_str()), Some("X"));
        let name = s.get("name").and_then(|v| v.as_str()).expect("slice name");
        assert!(TRACE_STAGES.contains(&name), "unknown stage {name}");
        assert!(s.get("tid").and_then(|v| v.as_u64()).is_some());
        assert!(s.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(s.get("dur").and_then(|v| v.as_f64()).is_some());
    }

    // --- Per-stage histograms in the Prometheus render. -------------------
    let metrics = client.metrics().expect("metrics");
    for stage in TRACE_STAGES {
        let needle = format!("fvae_serve_stage_ns_count{{stage=\"{stage}\"}}");
        let count: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix(needle.as_str()).and_then(|r| r.trim().parse().ok()))
            .unwrap_or_else(|| panic!("missing {needle} in:\n{metrics}"));
        assert!(count > 0, "stage {stage} recorded nothing");
    }
    assert!(metrics.contains("fvae_serve_queue_depth"), "queue depth gauge rendered");

    // --- Info frame describes the serving contract. -----------------------
    let info = client.info().expect("info");
    assert_eq!(info.n_fields, server.n_fields());
    assert_eq!(info.latent_dim, server.latent_dim());
    assert_eq!(info.ckpt_id, server.ckpt_id());
    assert!(!info.quantized);

    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
