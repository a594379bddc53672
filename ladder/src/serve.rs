//! The two serving workloads, over loopback TCP.
//!
//! Both run an open loop (fixed rate, latency from the scheduled send) and
//! then a closed loop (two clients, replies per second) from two
//! connections — this box has two cores, and the generator must not be the
//! thing that saturates. Server threads are pinned to the last core and the
//! generators to the first (see [`crate::affinity`] for why).
//!
//! * `serve_hot`: one f32 shard, 64 distinct rows against the default
//!   4096-entry cache. After the first 64 requests everything is a cache
//!   hit: protocol, connection handling and admission do the work, the
//!   encoder is idle.
//! * `fleet_cold`: a router in front of two shards that both hold a
//!   20 000 × 64 embedding store (large enough for the IVF index), 65 536
//!   distinct rows so no request ever hits the cache, and every tenth
//!   request a nearest-neighbour query. Encoder, micro-batching, the router
//!   hop and the ANN search do the work.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fvae_ann::{AnnIndex as _, FlatIndex};
use fvae_core::{
    export_model_snapshot, normalized_snapshot_bytes, Checkpointer, Encoder, EncoderScratch, Fvae,
    FvaeConfig, InputRows,
};
use fvae_data::{MultiFieldDataset, TopicModelConfig};
use fvae_obs::TraceEvent;
use fvae_serve::{
    fnv64, Client, EmbedOutcome, Router, RouterConfig, ServeConfig, Server, ROUTER_TRACE_STAGES,
    TRACE_STAGES,
};
use fvae_tensor::Matrix;

use crate::affinity::{on_server_core, GENERATOR_CPU};
use crate::gen::{self, sub_seed, LoadResult, LoadSpec, Plan, NEAREST_K};
use crate::report::Outcome;
use crate::spans::{Accounting, Lane};
use crate::stats::{median_f64, Samples};
use crate::{layers, RunCfg};

/// Connections (and generator threads) of every serving phase.
pub const CONNS: usize = 2;
const HOT_QPS: f64 = 400.0;
const HOT_ROWS: usize = 64;
const COLD_QPS: f64 = 300.0;
const COLD_ROWS: usize = 65_536;
const STORE_ROWS: usize = 20_000;
const STORE_DIM: usize = 64;
const STORE_CLUSTERS: usize = 64;
const NEAREST_QUERIES: usize = 512;
/// Users the serving model is trained on before it is exported, so that its
/// embedding rows exist and embeddings are not all zero.
const TRAIN_USERS: usize = 2048;
/// Slots of the servers' own trace rings in a traced run: room for every
/// stage event of the traced phases (six per request).
const TRACED_RING: usize = 1 << 18;

/// SC-preset dataset with `users` users.
pub fn serving_dataset(users: usize, seed: u64) -> MultiFieldDataset {
    TopicModelConfig {
        n_users: users,
        seed: sub_seed(seed, 1),
        ..TopicModelConfig::sc()
    }
    .generate()
}

/// A default-configuration model trained for one pass over the first
/// [`TRAIN_USERS`] users of `ds`.
pub fn serving_model(ds: &MultiFieldDataset, seed: u64) -> Fvae {
    let mut cfg = FvaeConfig::for_dataset(ds);
    cfg.seed = sub_seed(seed, 2);
    let mut model = Fvae::new(cfg);
    let mut opt = model.make_opt_states();
    let n = TRAIN_USERS.min(ds.n_users());
    for start in (0..n).step_by(256) {
        let batch: Vec<usize> = (start..(start + 256).min(n)).collect();
        model.train_single_batch(ds, &batch, &mut opt);
    }
    model
}

/// The newest snapshot in `dir` as the server identifies and loads it: its
/// `ckpt_id` and an offline encoder over exactly those weights.
pub fn offline_encoder(dir: &Path) -> Result<(u64, Encoder), String> {
    let loaded = Checkpointer::load_latest(dir)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no snapshot in {}", dir.display()))?;
    let id = fnv64(&normalized_snapshot_bytes(&loaded.raw).map_err(|e| e.to_string())?);
    let (model, _) = loaded.snapshot.into_resume();
    Ok((id, Encoder::from(model)))
}

/// Checks kept embed replies against the offline encoder, bit for bit.
/// Replies from other checkpoints than `ckpt_id` are counted, not compared.
pub fn verify_embeddings(
    plan: &Plan,
    ckpt_id: u64,
    encoder: &Encoder,
    kept: &[(usize, u64, Vec<f32>)],
) -> (usize, usize, usize) {
    let (mut input, mut scratch, mut mu) = (
        InputRows::default(),
        EncoderScratch::default(),
        Matrix::default(),
    );
    let (mut compared, mut mismatched, mut other_ckpt) = (0, 0, 0);
    let on_ckpt: Vec<&(usize, u64, Vec<f32>)> = kept.iter().filter(|k| k.1 == ckpt_id).collect();
    other_ckpt += kept.len() - on_ckpt.len();
    for chunk in on_ckpt.chunks(256) {
        input.reset(encoder.n_fields());
        for (row, _, _) in chunk {
            let fields = &plan.rows[*row];
            input.push_row(|k| (fields[k].0.as_slice(), fields[k].1.as_slice()));
        }
        encoder.embed_into(&input, &mut scratch, &mut mu);
        for (i, (_, _, served)) in chunk.iter().enumerate() {
            compared += 1;
            let same = served.len() == mu.cols()
                && served
                    .iter()
                    .zip(mu.row(i))
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            mismatched += usize::from(!same);
        }
    }
    (compared, mismatched, other_ckpt)
}

/// A started fleet: shards, optionally a router, and what the checks need.
struct Fleet {
    shards: Vec<Server>,
    router: Option<Router>,
    plan: Arc<Plan>,
    ckpt_dir: PathBuf,
    /// Store `(ids, vectors)` when the shards answer nearest requests.
    store: Option<(Vec<u64>, Vec<f32>)>,
}

impl Fleet {
    fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.shards[0].addr(), |r| r.addr())
    }
}

fn start_fleet(cold: bool, cfg: &RunCfg, rep: usize) -> Result<Fleet, String> {
    let seed = cfg.id.seed;
    let dir = cfg.work_dir.join(format!("fleet-{rep}"));
    let ckpt_dir = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| e.to_string())?;
    let rows = if cold { COLD_ROWS } else { HOT_ROWS };
    let ds = serving_dataset(rows.max(TRAIN_USERS), seed);
    let model = serving_model(&ds, seed);
    export_model_snapshot(&ckpt_dir, &model).map_err(|e| e.to_string())?;

    let mut serve_cfg = ServeConfig::new(&ckpt_dir);
    if cfg.id.traced {
        serve_cfg.trace_capacity = TRACED_RING;
    }
    let (mut store, mut queries) = (None, Vec::new());
    if cold {
        let (ids, data) =
            fvae_ann::synth_clustered(STORE_ROWS, STORE_DIM, STORE_CLUSTERS, sub_seed(seed, 3));
        let path = dir.join("store.bin");
        std::fs::write(
            &path,
            fvae_ann::io::write_embeddings(STORE_DIM, &ids, &data),
        )
        .map_err(|e| e.to_string())?;
        serve_cfg.embeddings = Some(path);
        queries = gen::nearest_queries(&data, STORE_DIM, NEAREST_QUERIES, sub_seed(seed, 4));
        store = Some((ids, data));
    }
    let n_shards = if cold { 2 } else { 1 };
    let shards: Vec<Server> = (0..n_shards)
        .map(|_| on_server_core(|| Server::start(serve_cfg.clone())).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let router = if cold {
        let mut rcfg = RouterConfig::new(shards.iter().map(|s| s.addr().to_string()).collect());
        if cfg.id.traced {
            rcfg.trace_capacity = TRACED_RING;
        }
        Some(on_server_core(|| Router::start(rcfg)).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let plan = Plan {
        rows: gen::dataset_rows(&ds, 0..rows),
        queries,
        nearest_every: if cold { 10 } else { 0 },
    };
    Ok(Fleet {
        shards,
        router,
        plan: Arc::new(plan),
        ckpt_dir,
        store,
    })
}

/// The open-loop then closed-loop phases against one fleet.
struct Phases {
    open: LoadResult,
    closed: LoadResult,
    target_qps: f64,
}

/// Open loop for 62 % of `secs`, then closed loop for `closed_s`.
fn run_phases(
    fleet: &Fleet,
    cold: bool,
    secs: f64,
    closed_s: f64,
    lane: &Lane,
) -> Result<Phases, String> {
    let qps = if cold { COLD_QPS } else { HOT_QPS };
    let addr = fleet.addr();
    if !cold {
        // Fill the cache: the workload is "every request hits", so the 64
        // first-time misses are not load.
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        for row in &fleet.plan.rows {
            match client.embed(row) {
                Ok(EmbedOutcome::Embedding { .. }) => {}
                other => return Err(format!("cache fill failed: {other:?}")),
            }
        }
    }
    let spec = LoadSpec {
        addr,
        first_tick: 0,
        secs: secs * 0.62,
        conns: CONNS,
        keep_every: 8,
        cpu: Some(GENERATOR_CPU),
    };
    let open = gen::open_loop(spec, qps, &fleet.plan, lane).map_err(|e| e.to_string())?;
    let spec = LoadSpec {
        first_tick: open.ticks(),
        secs: closed_s,
        keep_every: 64,
        ..spec
    };
    let closed = gen::closed_loop(spec, &fleet.plan, lane).map_err(|e| e.to_string())?;
    Ok(Phases {
        open,
        closed,
        target_qps: qps,
    })
}

/// Value of the first sample line of `name` (optionally with a label
/// block) in Prometheus text.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = if rest.starts_with('{') {
            &rest[rest.find('}')? + 1..]
        } else {
            rest
        };
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// Exact per-stage medians and totals from a trace ring's events.
fn stage_stats(events: &[TraceEvent], stages: &[&'static str]) -> Vec<(&'static str, Samples)> {
    stages
        .iter()
        .map(|&stage| {
            let mut s = Samples::default();
            events
                .iter()
                .filter(|e| e.stage == stage)
                .for_each(|e| s.push(e.dur_ns));
            (stage, s)
        })
        .collect()
}

/// Readouts of the shards after their phases ran: cache and batch counters,
/// exact per-stage medians from the servers' own trace rings. The stage
/// totals are imported into `acc` as the layers' self time; the return
/// value is their sum.
pub fn server_readouts(shards: &[Server], out: &mut Outcome, acc: &mut Accounting) -> u64 {
    let mut events = Vec::new();
    let (mut hits, mut misses, mut batch_sum, mut batches) = (0.0, 0.0, 0.0, 0.0);
    for shard in shards {
        events.extend(shard.trace_events());
        let text = shard.metrics_text();
        hits += prom_value(&text, "fvae_serve_cache_hits").unwrap_or(0.0);
        misses += prom_value(&text, "fvae_serve_cache_misses").unwrap_or(0.0);
        batch_sum += prom_value(&text, "fvae_serve_batch_size_sum").unwrap_or(0.0);
        batches += prom_value(&text, "fvae_serve_batch_size_count").unwrap_or(0.0);
    }
    out.layer(
        "serve.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as u64,
    );
    out.layer(
        "serve.server.batch_size_mean",
        batch_sum / batches.max(1.0),
        batches as u64,
    );
    // batch_form and encode land once in every member's lane; with two
    // connections a batch of one is the rule, so per-event sums stand.
    let mut server_total = 0;
    for (stage, mut s) in stage_stats(&events, TRACE_STAGES) {
        let (n, total) = (s.count() as u64, s.sum());
        out.layer(
            &format!("serve.server.stage_{stage}_p50_ns"),
            s.median() as f64,
            n,
        );
        acc.import(format!("serve.server.stage_{stage}"), n, total, total);
        server_total += total;
    }
    server_total
}

/// [`server_readouts`] plus the router's stages and retries. The shard RPC
/// encloses the shards' own stages, so only the rest of it is the router's.
fn fleet_readouts(fleet: &Fleet, out: &mut Outcome, acc: &mut Accounting) {
    let server_total = server_readouts(&fleet.shards, out, acc);
    if let Some(router) = &fleet.router {
        let text = router.metrics_text();
        out.layer(
            "serve.router.retries",
            prom_value(&text, "fvae_router_retries").unwrap_or(0.0),
            1,
        );
        for (stage, mut s) in stage_stats(&router.trace_events(), ROUTER_TRACE_STAGES) {
            let (n, total) = (s.count() as u64, s.sum());
            out.layer(
                &format!("serve.router.stage_{stage}_p50_ns"),
                s.median() as f64,
                n,
            );
            let enclosed = if stage == "shard_rpc" {
                server_total
            } else {
                0
            };
            acc.import(
                format!("serve.router.stage_{stage}"),
                n,
                total,
                total.saturating_sub(enclosed),
            );
        }
    }
}

fn check_replies(fleet: &Fleet, results: &[&LoadResult], out: &mut Outcome) {
    match offline_encoder(&fleet.ckpt_dir) {
        Ok((ckpt_id, encoder)) => {
            let (mut compared, mut mismatched, mut other) = (0, 0, 0);
            for r in results {
                let (c, m, o) = verify_embeddings(&fleet.plan, ckpt_id, &encoder, &r.embeds);
                compared += c;
                mismatched += m;
                other += o;
            }
            out.check(
                "served_embeddings_bit_identical",
                compared > 0 && mismatched == 0 && other == 0,
                format!("{compared} replies compared with the offline encoder on ckpt {ckpt_id:#018x}, {mismatched} differ, {other} from another ckpt"),
            );
        }
        Err(e) => out.check("served_embeddings_bit_identical", false, e),
    }
    if let Some((ids, data)) = &fleet.store {
        let flat = FlatIndex::build(STORE_DIM, ids, data).expect("store builds a flat index");
        let (mut found, mut wanted, mut queries) = (0usize, 0usize, 0usize);
        for r in results {
            for (q, served) in &r.neighbors {
                let truth = flat.search(&fleet.plan.queries[*q], NEAREST_K as usize);
                found += truth
                    .iter()
                    .filter(|t| served.iter().any(|(id, _)| *id == t.id))
                    .count();
                wanted += truth.len();
                queries += 1;
            }
        }
        let recall = found as f64 / wanted.max(1) as f64;
        out.check(
            "nearest_recall_at_10",
            queries > 0 && recall >= 0.95,
            format!("recall@10 {recall:.4} against FlatIndex over {queries} served queries"),
        );
    }
}

fn run(cold: bool, cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure(cold, cfg, &mut out) {
        out.check("workload_ran", false, e);
    }
    out
}

fn measure(cold: bool, cfg: &RunCfg, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut fleet = None;
    for rep in 0..cfg.setup_reps {
        drop(fleet.take());
        let t0 = Instant::now();
        fleet = Some(start_fleet(cold, cfg, rep)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    out.name("setup_s", "s", median_f64(&setups), setups.len() as u64);
    let fleet = fleet.ok_or("no set-up was asked for")?;

    // A traced run makes both passes (untraced, traced) short, and its
    // closed loops shorter still: a hot closed loop answers tens of thousands
    // of requests a second, and every one of them leaves five spans.
    let secs = cfg.id.seconds * if cfg.id.traced { 0.35 } else { 1.0 };
    let closed_s = if cfg.id.traced {
        (secs * 0.38).min(0.6)
    } else {
        secs * 0.38
    };
    let mut untraced = run_phases(&fleet, cold, secs, closed_s, &Lane::disabled())?;
    report_phases(&mut untraced, cold, cfg, out);
    check_replies(&fleet, &[&untraced.open, &untraced.closed], out);
    if !cfg.id.traced {
        return Ok(());
    }

    // A fresh fleet, so the servers' trace rings hold the traced phases and
    // nothing else.
    drop(fleet);
    let fleet = start_fleet(cold, cfg, cfg.setup_reps)?;
    let mut traced = run_phases(
        &fleet,
        cold,
        secs,
        closed_s,
        &Lane::recording(Instant::now()),
    )?;
    out.attempted += traced.open.attempted + traced.closed.attempted;
    out.failed += traced.open.failed + traced.closed.failed;
    let mut acc = Accounting::default();
    let lanes: Vec<Lane> = traced
        .open
        .lanes
        .drain(..)
        .chain(traced.closed.lanes.drain(..))
        .collect();
    for l in &lanes {
        acc.add_lane(l.spans());
    }
    cfg.write_spans(&lanes.iter().map(Lane::spans).collect::<Vec<_>>());
    fleet_readouts(&fleet, out, &mut acc);
    let requests = acc.layers.get("request").map_or(0, |l| l.count);
    out.layer("trace.unaccounted_share", acc.unaccounted_share(), requests);
    out.layer(
        "trace.overhead_share",
        1.0 - traced.closed.replies_per_s() / untraced.closed.replies_per_s(),
        traced.closed.attempted,
    );
    out.layer(
        "client.gen_late_p95_us",
        traced.open.late_ns.quantile(0.95) as f64 / 1e3,
        traced.open.attempted,
    );
    out.layer(
        "client.achieved_qps",
        traced.open.attempted as f64 / traced.open.elapsed_s,
        traced.open.attempted,
    );
    out.layer_times = acc.layers;
    drop(fleet);
    layers::micro_suite(cfg, out);
    Ok(())
}

fn report_phases(p: &mut Phases, cold: bool, cfg: &RunCfg, out: &mut Outcome) {
    out.attempted += p.open.attempted + p.closed.attempted;
    out.failed += p.open.failed + p.closed.failed;
    if let Some(why) = p
        .open
        .first_failure
        .as_ref()
        .or(p.closed.first_failure.as_ref())
    {
        out.check("no_failed_requests", false, why.clone());
    }
    out.latency("embed", &LoadResult::in_order(&p.open.embed_ns));
    if cold {
        out.latency("nearest", &LoadResult::in_order(&p.open.nearest_ns));
    }
    out.latency("closed_rtt", &LoadResult::in_order(&p.closed.embed_ns));
    out.name(
        "closed_qps",
        "1/s",
        p.closed.replies_per_s(),
        p.closed.attempted - p.closed.failed,
    );

    // Validity of the open loop: the generator kept its schedule.
    let late_p95 = p.open.late_ns.quantile(0.95) as f64 / 1e3;
    let achieved = p.open.attempted as f64 / p.open.elapsed_s;
    out.name("gen_late_p95_us", "us", late_p95, p.open.attempted);
    out.name("achieved_qps", "1/s", achieved, p.open.attempted);
    // A smoke pass is too short for the gate to mean anything.
    out.gate(
        "open_loop_valid",
        cfg.smoke || (late_p95 <= 1000.0 && achieved >= 0.99 * p.target_qps),
        format!(
            "generator late p95 {late_p95:.1} us (limit 1000), achieved {achieved:.2} of {} qps",
            p.target_qps
        ),
    );
}

/// The `serve_hot` workload.
pub fn run_hot(cfg: &RunCfg) -> Outcome {
    run(false, cfg)
}

/// The `fleet_cold` workload.
pub fn run_cold(cfg: &RunCfg) -> Outcome {
    run(true, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_value_reads_plain_and_labelled_series() {
        let text = "# TYPE a counter\nfvae_serve_cache_hits 41\nfvae_serve_cache_hits_total 7\n\
                    fvae_serve_stage_ns_sum{stage=\"decode\"} 9.5\n";
        assert_eq!(prom_value(text, "fvae_serve_cache_hits"), Some(41.0));
        assert_eq!(prom_value(text, "fvae_serve_stage_ns_sum"), Some(9.5));
        assert_eq!(prom_value(text, "fvae_serve_cache_misses"), None);
    }
}
