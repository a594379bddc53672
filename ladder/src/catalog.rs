//! The names the benchmark is made of: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the workloads each
//! is expected to matter on. `BENCHMARK.json` at the repository root lists
//! the same names; a test keeps the two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Training on the SC preset: sparse step, Table V's regime.
pub const TRAIN_SPARSE: &str = "train_sparse";
/// Training on tiny vocabularies with wide layers: GEMM-bound.
pub const TRAIN_DENSE: &str = "train_dense";
/// Event log → publisher → live shard, with a probe connection.
pub const STREAM_PUBLISH: &str = "stream_publish";
/// One shard, every request a cache hit.
pub const SERVE_HOT: &str = "serve_hot";
/// Router + two shards, every request a cache miss, one in ten a nearest.
pub const FLEET_COLD: &str = "fleet_cold";

/// A workload and the reason it exists.
pub struct WorkloadSpec {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line on why it was chosen.
    pub why: &'static str,
}

/// The five workloads, in the order a full run executes them.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: TRAIN_SPARSE,
        why: "SC preset, batch 256: large Zipf vocabularies, so sampled softmax, embedding-bag and sparse Adam dominate the step (the paper's Table V regime)",
    },
    WorkloadSpec {
        name: TRAIN_DENSE,
        why: "4 fields x vocab 64 with 1024/512-wide layers: candidate sets are tiny, the step is GEMM-bound and bypasses the softmax/embedding path",
    },
    WorkloadSpec {
        name: STREAM_PUBLISH,
        why: "event log -> Publisher (32-user windows, snapshot every 25 steps) -> one live shard under a 100 qps probe: small windows, checkpoint writes, reloads beside reads",
    },
    WorkloadSpec {
        name: SERVE_HOT,
        why: "one shard, 64 distinct rows in a 4096-entry cache, 2 connections: every request hits the cache, so protocol, connections and admission do the work and the encoder is idle",
    },
    WorkloadSpec {
        name: FLEET_COLD,
        why: "router + 2 shards, 65536 distinct rows (all cache misses), 90% embed / 10% nearest over a 20k x 64 IVF store: encoder, micro-batching, router hop and ANN do the work",
    },
];

/// True when `name` is one of [`WORKLOADS`].
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// An end-to-end metric: every workload reports every one of them.
pub struct E2eSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What the value is on each workload, in [`WORKLOADS`] order: the
    /// named metric it carries.
    pub carries: [&'static str; 5],
}

/// The end-to-end metrics. `throughput_per_s`, `latency_*` and `aux_p50_us`
/// are slots every workload fills with its own user-visible quantity (see
/// `carries`), because the driver wants every metric from every workload.
///
/// The bounds are wide. On the shared two-core box the benchmark was defined
/// on, ten runs of one commit in a calm stretch spread (quartile distance
/// over median) by 2–10 % on the timing metrics, and a neighbour's load can
/// slow every workload by a quarter for minutes; a bound must clear the
/// spread to mean anything, and 25 % is the most the contract allows.
pub const END_TO_END: [E2eSpec; 6] = [
    E2eSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        carries: ["setup_s"; 5],
    },
    E2eSpec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        carries: ["peak_rss_mb"; 5],
    },
    E2eSpec {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        carries: [
            "train_users_per_s",
            "train_users_per_s",
            "stream_events_per_s",
            "closed_qps",
            "closed_qps",
        ],
    },
    E2eSpec {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        carries: [
            "step_p50_us",
            "step_p50_us",
            "freshness_p50_us",
            "embed_p50_us",
            "embed_p50_us",
        ],
    },
    E2eSpec {
        name: "latency_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        carries: [
            "step_p90_us",
            "step_p90_us",
            "freshness_p90_us",
            "embed_p90_us",
            "embed_p90_us",
        ],
    },
    E2eSpec {
        name: "aux_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        carries: [
            "embed_batch_p50_us",
            "embed_batch_p50_us",
            "embed_p50_us",
            "closed_rtt_p50_us",
            "nearest_p50_us",
        ],
    },
];

/// A per-layer metric, measured only in a traced run.
pub struct LayerSpec {
    /// Metric name, `crate.module.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Workloads on which it is expected to move an end-to-end metric.
    /// A metric is always emitted on these; elsewhere it is emitted when
    /// it is a micro-measurement (those run in every traced run) and
    /// reported as `0` with no samples when it is a readout of a layer the
    /// workload does not run.
    pub on: &'static [&'static str],
    /// Measured by the layer micro-suite (true) or read out of the running
    /// workload (false).
    pub micro: bool,
}

const fn micro(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        on,
        micro: true,
    }
}

const fn readout(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        on,
        micro: false,
    }
}

const TRAIN_BOTH: &[&str] = &[TRAIN_SPARSE, TRAIN_DENSE];
const SERVING: &[&str] = &[SERVE_HOT, FLEET_COLD, STREAM_PUBLISH];
const ALL: &[&str] = &[
    TRAIN_SPARSE,
    TRAIN_DENSE,
    STREAM_PUBLISH,
    SERVE_HOT,
    FLEET_COLD,
];
use Better::{Higher, Lower};

/// Every per-layer metric.
pub const PER_LAYER: &[LayerSpec] = &[
    micro("tensor.gemm_gflops", "GFLOP/s", Higher, &[TRAIN_DENSE]),
    micro(
        "tensor.gemm_transa_gflops",
        "GFLOP/s",
        Higher,
        &[TRAIN_DENSE],
    ),
    micro(
        "tensor.gemm_transb_gflops",
        "GFLOP/s",
        Higher,
        &[TRAIN_DENSE],
    ),
    micro(
        "tensor.gemm_pooled_speedup",
        "ratio",
        Higher,
        &[TRAIN_DENSE],
    ),
    micro(
        "tensor.dot_f32_gflops",
        "GFLOP/s",
        Higher,
        &[TRAIN_SPARSE, FLEET_COLD],
    ),
    micro(
        "tensor.axpy_gbps",
        "GB/s",
        Higher,
        &[TRAIN_SPARSE, FLEET_COLD],
    ),
    micro("tensor.dot_i8_gops", "Gop/s", Higher, &[]),
    micro("core.quant.embed_rows_per_s", "rows/s", Higher, &[]),
    micro("core.quant.min_cosine", "ratio", Higher, &[]),
    micro(
        "pool.dispatch_ns",
        "ns",
        Lower,
        &[TRAIN_SPARSE, STREAM_PUBLISH],
    ),
    readout(
        "pool.jobs_per_step",
        "count",
        Lower,
        &[TRAIN_SPARSE, TRAIN_DENSE, STREAM_PUBLISH],
    ),
    micro("sparse.dyntable.lookup_ns", "ns", Lower, &[STREAM_PUBLISH]),
    micro("sparse.dyntable.insert_ns", "ns", Lower, &[STREAM_PUBLISH]),
    micro(
        "nn.embedding_bag.fwd_ns_per_row",
        "ns/row",
        Lower,
        &[TRAIN_SPARSE],
    ),
    micro(
        "nn.embedding_bag.bwd_ns_per_row",
        "ns/row",
        Lower,
        &[TRAIN_SPARSE],
    ),
    micro(
        "nn.sampled_softmax.fwd_ns_per_row",
        "ns/row",
        Lower,
        &[TRAIN_SPARSE],
    ),
    micro(
        "nn.sampled_softmax.bwd_ns_per_row",
        "ns/row",
        Lower,
        &[TRAIN_SPARSE],
    ),
    readout(
        "nn.sampled_softmax.mean_candidates",
        "count",
        Lower,
        TRAIN_BOTH,
    ),
    micro(
        "nn.adam.step_rows_ns_per_row",
        "ns/row",
        Lower,
        &[TRAIN_SPARSE],
    ),
    micro("nn.mlp.fwd_ns_per_row", "ns/row", Lower, &[TRAIN_DENSE]),
    micro("nn.mlp.bwd_ns_per_row", "ns/row", Lower, &[TRAIN_DENSE]),
    readout(
        "core.train.phase_batch_assembly_share",
        "share",
        Lower,
        TRAIN_BOTH,
    ),
    readout(
        "core.train.phase_encoder_fwd_share",
        "share",
        Lower,
        TRAIN_BOTH,
    ),
    readout(
        "core.train.phase_decoder_fwd_share",
        "share",
        Lower,
        TRAIN_BOTH,
    ),
    readout(
        "core.train.phase_sampled_softmax_share",
        "share",
        Lower,
        TRAIN_BOTH,
    ),
    readout(
        "core.train.phase_backward_share",
        "share",
        Lower,
        TRAIN_BOTH,
    ),
    readout(
        "core.train.phase_optimizer_share",
        "share",
        Lower,
        TRAIN_BOTH,
    ),
    readout("core.train.step_p50_ms", "ms", Lower, TRAIN_BOTH),
    micro(
        "core.encoder.embed_rows_per_s_b1",
        "rows/s",
        Higher,
        &[FLEET_COLD],
    ),
    micro(
        "core.encoder.embed_rows_per_s_b32",
        "rows/s",
        Higher,
        &[FLEET_COLD],
    ),
    micro(
        "core.encoder.input_fill_ns_per_row",
        "ns/row",
        Lower,
        &[FLEET_COLD],
    ),
    micro("core.checkpoint.encode_ms", "ms", Lower, &[STREAM_PUBLISH]),
    micro("core.checkpoint.decode_ms", "ms", Lower, &[STREAM_PUBLISH]),
    micro("core.checkpoint.write_ms", "ms", Lower, &[STREAM_PUBLISH]),
    micro("core.checkpoint.bytes", "B", Lower, &[STREAM_PUBLISH]),
    readout("core.stream.step_window_ms", "ms", Lower, &[STREAM_PUBLISH]),
    micro(
        "data.events.decode_events_per_s",
        "events/s",
        Higher,
        &[STREAM_PUBLISH],
    ),
    micro(
        "data.events.append_events_per_s",
        "events/s",
        Higher,
        &[STREAM_PUBLISH],
    ),
    micro(
        "data.events.batcher_events_per_s",
        "events/s",
        Higher,
        &[STREAM_PUBLISH],
    ),
    micro("ann.ivf.search_p50_us", "us", Lower, &[FLEET_COLD]),
    micro("ann.ivf.distance_frac", "share", Lower, &[FLEET_COLD]),
    micro("ann.ivf.recall_at_10", "ratio", Higher, &[FLEET_COLD]),
    micro("ann.build_ms", "ms", Lower, &[FLEET_COLD]),
    micro("serve.protocol.embed_encode_ns", "ns", Lower, &[SERVE_HOT]),
    micro("serve.protocol.embed_decode_ns", "ns", Lower, &[SERVE_HOT]),
    micro(
        "serve.protocol.nearest_encode_ns",
        "ns",
        Lower,
        &[SERVE_HOT],
    ),
    micro(
        "serve.protocol.nearest_decode_ns",
        "ns",
        Lower,
        &[SERVE_HOT],
    ),
    micro("serve.cache.get_hit_ns", "ns", Lower, &[SERVE_HOT]),
    micro("serve.cache.insert_ns", "ns", Lower, &[SERVE_HOT]),
    readout(
        "serve.cache.hit_ratio",
        "ratio",
        Higher,
        &[SERVE_HOT, FLEET_COLD],
    ),
    readout("serve.server.stage_decode_p50_ns", "ns", Lower, SERVING),
    readout("serve.server.stage_admission_p50_ns", "ns", Lower, SERVING),
    readout("serve.server.stage_queue_wait_p50_ns", "ns", Lower, SERVING),
    readout("serve.server.stage_batch_form_p50_ns", "ns", Lower, SERVING),
    readout("serve.server.stage_encode_p50_ns", "ns", Lower, SERVING),
    readout(
        "serve.server.stage_reply_write_p50_ns",
        "ns",
        Lower,
        SERVING,
    ),
    readout("serve.server.batch_size_mean", "count", Higher, SERVING),
    readout("serve.server.reload_ms", "ms", Lower, &[STREAM_PUBLISH]),
    readout(
        "serve.router.stage_decode_p50_ns",
        "ns",
        Lower,
        &[FLEET_COLD],
    ),
    readout(
        "serve.router.stage_route_p50_ns",
        "ns",
        Lower,
        &[FLEET_COLD],
    ),
    readout(
        "serve.router.stage_shard_rpc_p50_ns",
        "ns",
        Lower,
        &[FLEET_COLD],
    ),
    readout(
        "serve.router.stage_reply_write_p50_ns",
        "ns",
        Lower,
        &[FLEET_COLD],
    ),
    readout("serve.router.retries", "count", Lower, &[FLEET_COLD]),
    readout(
        "serve.publish.overhead_share",
        "share",
        Lower,
        &[STREAM_PUBLISH],
    ),
    readout("client.gen_late_p95_us", "us", Lower, SERVING),
    readout("client.achieved_qps", "1/s", Higher, SERVING),
    readout("trace.unaccounted_share", "share", Lower, ALL),
    readout("trace.overhead_share", "share", Lower, ALL),
];

/// Looks a per-layer metric up by name.
pub fn layer_spec(name: &str) -> Option<&'static LayerSpec> {
    PER_LAYER.iter().find(|l| l.name == name)
}

/// Index of `workload` in [`WORKLOADS`].
pub fn workload_index(workload: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| w.name == workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(
                valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for l in PER_LAYER {
            assert!(valid_name(l.name) && valid_unit(l.unit), "{}", l.name);
            assert!(seen.insert(l.name), "{} used twice", l.name);
            assert!(l.on.iter().all(|w| is_workload(w)), "{}", l.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` and this catalogue name the same things.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = fvae_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(fvae_obs::Value::Arr(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let field =
            |v: &fvae_obs::Value, k: &str| v.get(k).and_then(|s| s.as_str()).map(str::to_owned);

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(field(got, "why").as_deref(), Some(want.why));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(field(got, "unit").as_deref(), Some(want.unit));
            assert_eq!(field(got, "better").as_deref(), Some(want.better.as_str()));
            assert_eq!(got.get("bound").and_then(|b| b.as_f64()), Some(want.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(field(got, "unit").as_deref(), Some(want.unit));
            assert_eq!(field(got, "better").as_deref(), Some(want.better.as_str()));
        }
    }
}
