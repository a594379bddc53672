//! The `fvae` subcommands: the full offline → online pipeline of Fig. 2 as
//! file-to-file steps.

use fvae_core::{
    normalized_snapshot_bytes, Checkpointer, EncoderScratch, EpochStats, Fvae, FvaeConfig,
    InputRows, StepCtx, TelemetrySink, TrainObserver, TrainOptions, TrainRun,
};
use fvae_data::{tag_prediction_cases, MultiFieldDataset, SplitIndices, TopicModelConfig};
use fvae_lookalike::EmbeddingStore;
use fvae_metrics::{auc, average_precision, ndcg_at_k, Mean};

use crate::args::Args;

/// Runs a parsed command, returning its stdout text.
pub fn run(args: &Args) -> Result<String, String> {
    match args.command.as_str() {
        "generate" => generate(args),
        "stats" => stats(args),
        "train" => train(args),
        "embed" => embed(args),
        "evaluate" => evaluate(args),
        "similar" => similar(args),
        "stream-gen" => stream_gen(args),
        "publish" => publish(args),
        "ann" => ann(args),
        "serve" => serve(args),
        "router" => router(args),
        "embed-client" => embed_client(args),
        "loadgen" => loadgen(args),
        "ckpt-diff" => ckpt_diff(args),
        "help" | "" => Ok(usage()),
        other => Err(format!("unknown command '{other}'\n\n{}", usage())),
    }
}

/// The help text.
pub fn usage() -> String {
    "fvae — Field-aware Variational Autoencoder toolkit\n\
     \n\
     USAGE: fvae <command> [--flag value ...]\n\
     \n\
     commands:\n\
     \x20 generate  --preset sc|sc-small|kd|qb --out DS [--users N] [--seed S]\n\
     \x20 stats     --data DS\n\
     \x20 train     --data DS --out MODEL [--epochs N] [--rate R] [--latent D]\n\
     \x20           [--batch B] [--lr LR] [--threads T] [--early-stop true]\n\
     \x20           [--checkpoint-dir DIR] [--checkpoint-every STEPS] [--keep N]\n\
     \x20           [--resume true] [--stop-after STEPS]\n\
     \x20           [--obs-jsonl RUN.jsonl] [--obs-stderr true] [--quiet true]\n\
     \x20 embed     --data DS --model MODEL --out STORE [--fields 0,1,2]\n\
     \x20 evaluate  --data DS --model MODEL [--seed S]\n\
     \x20 similar   --store STORE --user ID [--k K]\n\
     \x20 stream-gen --preset sc|sc-small|kd|qb --out LOG [--users N] [--seed S]\n\
     \x20           [--repeats R] [--user-base B] [--append true] [--data-out DS]\n\
     \x20           (writes a synthetic event log; --append continues an\n\
     \x20           existing log — e.g. a drifted phase with a new --seed and\n\
     \x20           a disjoint --user-base; --data-out saves the matching\n\
     \x20           dataset for schema + evaluation)\n\
     \x20 publish   --log LOG --dir CKPT_DIR --data DS [--init-model MODEL]\n\
     \x20           [--push A:P1,A:P2,...] [--every STEPS] [--keep N] [--batch B]\n\
     \x20           [--max-steps N] [--poll-ms MS] [--idle-exit-ms MS]\n\
     \x20           [--out-model MODEL] [--threads T]\n\
     \x20           (tails LOG, trains continuously, snapshots every STEPS\n\
     \x20           optimizer steps into CKPT_DIR, and pushes reloads to each\n\
     \x20           serve/router address; resumes from the newest snapshot's\n\
     \x20           saved log offset)\n\
     \x20 ann       --store STORE | --synth N [--dim D] [--clusters C] [--seed S]\n\
     \x20           [--k K] [--queries Q] [--nprobes 1,2,4,...] [--out-index IDX]\n\
     \x20           [--json FILE]\n\
     \x20           (recall@k parity harness: sweeps nprobe, judging the IVF-PQ\n\
     \x20           index against the exhaustive flat scan on the same corpus)\n\
     \x20 serve     --checkpoint-dir DIR [--port P] [--host H] [--threads T]\n\
     \x20           [--batch-size N] [--queue-capacity Q] [--cache-capacity C]\n\
     \x20           [--port-file F] [--quant f32|int8]\n\
     \x20           [--embeddings STORE]  (also serve nearest-neighbour RPCs\n\
     \x20           over this embedding store; reload re-reads the file)\n\
     \x20 router    --shards A:P1,B:P2,... | --shards-file F [--port P] [--host H]\n\
     \x20           [--port-file F] [--replicas R] [--pool N] [--max-attempts N]\n\
     \x20           [--fail-threshold N] [--probe-interval-ms MS]\n\
     \x20           [--rpc-timeout-ms MS] [--connect-timeout-ms MS] [--pool-wait-ms MS]\n\
     \x20           (consistent-hash routing over a shard fleet; reload through\n\
     \x20           the router commits all shards or rolls every one back)\n\
     \x20 embed-client --addr HOST:PORT [--rows SPEC] [--ping true]\n\
     \x20           [--metrics true] [--reload true] [--shutdown true]\n\
     \x20           [--info true] [--trace TRACE.json]\n\
     \x20           [--nearest V1,V2,...] [--k K]  (top-k users nearest the\n\
     \x20           given query vector, from the server's embedding store)\n\
     \x20           (SPEC: fields split by '|', entries by ',', each ID:WEIGHT)\n\
     \x20 loadgen   --addr HOST:PORT [--qps Q] [--duration-ms MS] [--connections C]\n\
     \x20           [--distinct-rows R] [--ids-per-field N] [--id-space S]\n\
     \x20           [--seed SEED] [--json FILE]\n\
     \x20           [--bench NAME] [--shards N]\n\
     \x20           (open-loop: latency is charged from the send *schedule*,\n\
     \x20           so a stalled server cannot hide its own backlog)\n\
     \x20 ckpt-diff --a SNAP.fvck --b SNAP.fvck\n\
     \n\
     --threads (or FVAE_THREADS) sets the worker pool size; results are\n\
     bit-identical at any thread count.\n"
        .to_string()
}

fn load_dataset(path: &str) -> Result<MultiFieldDataset, String> {
    MultiFieldDataset::load(path).map_err(|e| format!("cannot load dataset {path}: {e}"))
}

fn load_model(path: &str) -> Result<Fvae, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read model {path}: {e}"))?;
    Fvae::from_bytes(&bytes).map_err(|e| format!("cannot decode model {path}: {e}"))
}

fn generate(args: &Args) -> Result<String, String> {
    args.expect_only(&["preset", "out", "users", "seed"])?;
    let preset = args.optional("preset").unwrap_or("sc-small");
    let mut cfg = match preset {
        "sc" => TopicModelConfig::sc(),
        "sc-small" => TopicModelConfig::sc_small(),
        "kd" => TopicModelConfig::kd(),
        "qb" => TopicModelConfig::qb(),
        other => return Err(format!("unknown preset '{other}' (sc|sc-small|kd|qb)")),
    };
    cfg.n_users = args.get_or("users", cfg.n_users)?;
    cfg.seed = args.get_or("seed", cfg.seed)?;
    let out = args.required("out")?;
    let ds = cfg.generate();
    ds.save(out).map_err(|e| format!("cannot write {out}: {e}"))?;
    let s = ds.stats();
    Ok(format!(
        "wrote {out}: {} users, {} fields, {:.1} features/user, J = {}\n",
        s.n_users, s.n_fields, s.mean_features_per_user, s.total_features
    ))
}

fn stats(args: &Args) -> Result<String, String> {
    args.expect_only(&["data"])?;
    let ds = load_dataset(args.required("data")?)?;
    let s = ds.stats();
    let mut out = format!(
        "users: {}\nfields: {}\nmean features/user: {:.2}\ntotal features J: {}\n",
        s.n_users, s.n_fields, s.mean_features_per_user, s.total_features
    );
    for k in 0..ds.n_fields() {
        out.push_str(&format!(
            "  field {k} ({}): vocab {}, {:.1} items/user\n",
            ds.field_names()[k],
            ds.field_vocab(k),
            ds.field(k).mean_row_nnz()
        ));
    }
    Ok(out)
}

/// Fans training telemetry out to the [`TelemetrySink`] (metrics, JSONL,
/// stderr heartbeat) while keeping the per-epoch lines on stdout that the
/// CLI has always printed.
struct CliObserver<'a> {
    sink: TelemetrySink,
    log: &'a mut String,
}

impl TrainObserver for CliObserver<'_> {
    fn on_step(&mut self, ctx: &StepCtx) {
        self.sink.on_step(ctx);
    }

    fn on_epoch(&mut self, epoch: usize, stats: &EpochStats) {
        self.sink.on_epoch(epoch, stats);
        self.log.push_str(&format!(
            "epoch {epoch}: recon {:.4} kl {:.4} beta {:.2}\n",
            stats.recon, stats.kl, stats.beta
        ));
    }
}

fn train(args: &Args) -> Result<String, String> {
    args.expect_only(&[
        "data", "out", "epochs", "rate", "latent", "batch", "lr", "threads", "early-stop",
        "seed", "checkpoint-dir", "checkpoint-every", "keep", "resume", "stop-after",
        "obs-jsonl", "obs-stderr", "quiet",
    ])?;
    if let Some(raw) = args.optional("threads") {
        let threads: usize = raw
            .parse()
            .ok()
            .filter(|&t| t >= 1)
            .ok_or_else(|| format!("flag --threads: expected a positive count, got '{raw}'"))?;
        fvae_pool::set_parallelism(threads);
    }
    let early_stop: bool = args.get_or("early-stop", false)?;
    let quiet: bool = args.get_or("quiet", false)?;
    let step_lines: bool = args.get_or("obs-stderr", false)?;

    let ckpt_dir = args.optional("checkpoint-dir");
    let ckpt_every: u64 = args.get_or("checkpoint-every", 0u64)?;
    let keep: usize = args.get_or("keep", 3usize)?;
    let resume: bool = args.get_or("resume", false)?;
    let stop_after: Option<u64> =
        args.optional("stop-after").map(|_| args.get_or("stop-after", 0u64)).transpose()?;
    if ckpt_dir.is_none() && (ckpt_every > 0 || resume || stop_after.is_some()) {
        return Err(
            "--checkpoint-every/--resume/--stop-after require --checkpoint-dir".to_string()
        );
    }
    if early_stop && stop_after.is_some() {
        return Err("--stop-after applies to plain training, not --early-stop".to_string());
    }

    let ds = load_dataset(args.required("data")?)?;
    let out = args.required("out")?;
    let mut cfg = FvaeConfig::for_dataset(&ds);
    cfg.epochs = args.get_or("epochs", 8usize)?;
    cfg.sampling.rate = args.get_or("rate", cfg.sampling.rate)?;
    cfg.latent_dim = args.get_or("latent", cfg.latent_dim)?;
    cfg.batch_size = args.get_or("batch", cfg.batch_size)?;
    cfg.lr = args.get_or("lr", cfg.lr)?;
    cfg.seed = args.get_or("seed", cfg.seed)?;
    let mut model = Fvae::new(cfg);
    let epochs = model.config().epochs;
    let mut sink = TelemetrySink::new(epochs)
        .with_heartbeat(!quiet)
        .with_step_lines(step_lines);
    if let Some(path) = args.optional("obs-jsonl") {
        sink = sink
            .with_jsonl(path)
            .map_err(|e| format!("cannot open run log {path}: {e}"))?;
    }
    let mut log = String::new();

    let checkpointer = match ckpt_dir {
        Some(dir) => Some(
            Checkpointer::new(dir, ckpt_every, keep.max(1))
                .map_err(|e| format!("cannot create checkpoint dir {dir}: {e}"))?
                .with_registry(sink.registry()),
        ),
        None => None,
    };
    // On --resume, the snapshot's model (with its own config, weights, and
    // RNG position) replaces the fresh one; only --epochs still applies.
    let mut resume_point = None;
    if resume {
        let dir = std::path::Path::new(ckpt_dir.expect("validated above"));
        match Checkpointer::load_latest(dir) {
            Ok(Some(loaded)) => {
                if !loaded.skipped.is_empty() {
                    if let Some(cp) = &checkpointer {
                        cp.record_skipped(loaded.skipped.len());
                    }
                    for (path, err) in &loaded.skipped {
                        log.push_str(&format!(
                            "skipped corrupt snapshot {}: {err}\n",
                            path.display()
                        ));
                    }
                }
                log.push_str(&format!(
                    "resuming from {} (epoch {}, step {})\n",
                    loaded.path.display(),
                    loaded.snapshot.progress().epoch,
                    loaded.snapshot.progress().global_step
                ));
                let (m, rp) = loaded.snapshot.into_resume();
                model = m;
                resume_point = Some(rp);
            }
            Ok(None) => log.push_str("no snapshot to resume from; starting fresh\n"),
            Err(e) => return Err(format!("cannot resume from {}: {e}", dir.display())),
        }
    }

    let mut observer = CliObserver { sink, log: &mut log };
    let mut stopped_at = None;
    let history = if early_stop {
        let split = SplitIndices::random(ds.n_users(), 0.1, 0.0, 13);
        let history = model
            .train_until_checkpointed(
                &ds,
                &split.train,
                &split.val,
                TrainOptions { max_epochs: epochs, ..Default::default() },
                &mut observer,
                checkpointer.as_ref(),
                resume_point,
            )
            .map_err(|e| format!("checkpoint failure: {e}"))?;
        Some(history)
    } else {
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let outcome = model
            .train_checkpointed(
                &ds,
                &users,
                epochs,
                &mut observer,
                TrainRun {
                    checkpointer: checkpointer.as_ref(),
                    resume: resume_point,
                    stop_after_steps: stop_after,
                },
            )
            .map_err(|e| format!("checkpoint failure: {e}"))?;
        if !outcome.completed {
            stopped_at = Some(outcome.global_step);
        }
        None
    };
    let mut sink = observer.sink;
    sink.flush();
    if let Some(step) = stopped_at {
        log.push_str(&format!(
            "stopped after {step} steps (snapshot on disk; continue with --resume true)\n"
        ));
    }
    if let Some(history) = history {
        log.push_str(&format!(
            "trained {} epochs (early stop: {}), best epoch {}\n",
            history.epochs.len(),
            history.stopped_early,
            history.best_epoch
        ));
    }
    if let Some(path) = args.optional("obs-jsonl") {
        log.push_str(&format!("run log: {path} ({} records)\n", sink.jsonl_lines()));
    }
    std::fs::write(out, model.to_bytes()).map_err(|e| format!("cannot write {out}: {e}"))?;
    log.push_str(&format!(
        "wrote {out} ({} input features tracked)\n",
        model.input_vocab_len()
    ));
    Ok(log)
}

fn embed(args: &Args) -> Result<String, String> {
    args.expect_only(&["data", "model", "out", "fields"])?;
    let ds = load_dataset(args.required("data")?)?;
    let model = load_model(args.required("model")?)?;
    let out = args.required("out")?;
    let fields = args.get_usize_list("fields")?;
    let users: Vec<usize> = (0..ds.n_users()).collect();
    // The store fill goes through the serving-side `Encoder` — the same
    // frozen forward `fvae serve` runs — so offline artifacts and online
    // replies come from one code path.
    let encoder = model.encoder();
    if let Some(picks) = &fields {
        let n_fields = encoder.n_fields();
        for (i, &k) in picks.iter().enumerate() {
            if k >= n_fields {
                return Err(format!("flag --fields: field {k} is out of range ({n_fields} fields)"));
            }
            if picks[..i].contains(&k) {
                return Err(format!("flag --fields: field {k} is listed twice"));
            }
        }
    }
    let mut input = InputRows::default();
    let mut scratch = EncoderScratch::default();
    let mut embeddings = fvae_tensor::Matrix::default();
    encoder.embed_users_into(&ds, &users, fields.as_deref(), &mut input, &mut scratch, &mut embeddings);
    let store = EmbeddingStore::new(embeddings.cols());
    for u in 0..embeddings.rows() {
        store.put(u as u64, embeddings.row(u).to_vec());
    }
    std::fs::write(out, store.to_bytes()).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!("wrote {out}: {} embeddings of dim {}\n", store.len(), store.dim()))
}

fn evaluate(args: &Args) -> Result<String, String> {
    args.expect_only(&["data", "model", "seed"])?;
    let ds = load_dataset(args.required("data")?)?;
    let model = load_model(args.required("model")?)?;
    let seed: u64 = args.get_or("seed", 99u64)?;
    let tag_field = ds
        .field_index("tag")
        .ok_or_else(|| "dataset has no 'tag' field to evaluate".to_string())?;
    let channels: Vec<usize> = (0..ds.n_fields()).filter(|&k| k != tag_field).collect();
    let split = SplitIndices::random(ds.n_users(), 0.0, 0.1, seed);
    let cases = tag_prediction_cases(&ds, &split.test, tag_field, seed);
    let mut auc_mean = Mean::new();
    let mut map_mean = Mean::new();
    let mut ndcg_mean = Mean::new();
    // One encoder + reusable forward buffers across the whole case loop.
    let encoder = model.encoder();
    let mut input = InputRows::default();
    let mut scratch = EncoderScratch::default();
    let mut z = fvae_tensor::Matrix::default();
    for case in &cases {
        encoder.embed_users_into(&ds, &[case.user], Some(&channels), &mut input, &mut scratch, &mut z);
        let scores = model.field_logits_one(z.row(0), tag_field, &case.candidates);
        auc_mean.push(auc(&scores, &case.labels));
        map_mean.push(average_precision(&scores, &case.labels));
        ndcg_mean.push(ndcg_at_k(&scores, &case.labels, 10));
    }
    Ok(format!(
        "tag prediction over {} held-out users:\n  AUC     {:.4}\n  mAP     {:.4}\n  NDCG@10 {:.4}\n",
        cases.len(),
        auc_mean.mean(),
        map_mean.mean(),
        ndcg_mean.mean()
    ))
}


/// Writes (or extends) a synthetic event log: the look-alike generator's
/// users flattened into per-user event sessions, `--repeats` passes with a
/// reshuffled user order per pass. A second invocation with `--append
/// true`, a new `--seed`, and a disjoint `--user-base` is the drift phase
/// of the soak scenario.
fn stream_gen(args: &Args) -> Result<String, String> {
    args.expect_only(&["preset", "out", "users", "seed", "repeats", "user-base", "append", "data-out"])?;
    let preset = args.optional("preset").unwrap_or("sc-small");
    let mut cfg = match preset {
        "sc" => TopicModelConfig::sc(),
        "sc-small" => TopicModelConfig::sc_small(),
        "kd" => TopicModelConfig::kd(),
        "qb" => TopicModelConfig::qb(),
        other => return Err(format!("unknown preset '{other}' (sc|sc-small|kd|qb)")),
    };
    cfg.n_users = args.get_or("users", cfg.n_users)?;
    cfg.seed = args.get_or("seed", cfg.seed)?;
    let out = args.required("out")?;
    let repeats: usize = args.get_or("repeats", 1usize)?;
    let user_base: u64 = args.get_or("user-base", 0u64)?;
    let append: bool = args.get_or("append", false)?;
    let ds = cfg.generate();
    if let Some(path) = args.optional("data-out") {
        ds.save(path).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let events = fvae_data::dataset_to_events(&ds, user_base, repeats, cfg.seed ^ 0x5eed);
    let mut writer = if append {
        fvae_data::EventLogWriter::open_append(out)
    } else {
        fvae_data::EventLogWriter::create(out)
    }
    .map_err(|e| format!("cannot open log {out}: {e}"))?;
    writer.append(&events).map_err(|e| format!("cannot append to {out}: {e}"))?;
    writer.sync().map_err(|e| format!("cannot sync {out}: {e}"))?;
    Ok(format!(
        "wrote {} events ({} users x {repeats} passes, user base {user_base}) to {out} (offset {})\n",
        events.len(),
        ds.n_users(),
        writer.offset()
    ))
}

/// The continuous train→serve loop: tails an event log, trains on sealed
/// windows, snapshots every `--every` steps, and pushes reloads to a live
/// fleet. Restarting the command resumes from the newest snapshot's saved
/// log offset, bit-identically to never having stopped.
fn publish(args: &Args) -> Result<String, String> {
    args.expect_only(&[
        "log", "dir", "data", "init-model", "push", "every", "keep", "batch", "max-steps",
        "poll-ms", "idle-exit-ms", "out-model", "threads",
    ])?;
    if let Some(raw) = args.optional("threads") {
        let threads: usize = raw
            .parse()
            .ok()
            .filter(|&t| t >= 1)
            .ok_or_else(|| format!("flag --threads: expected a positive count, got '{raw}'"))?;
        fvae_pool::set_parallelism(threads);
    }
    let ds = load_dataset(args.required("data")?)?;
    let names = ds.field_names().to_vec();
    let vocabs: Vec<usize> = (0..ds.n_fields()).map(|k| ds.field_vocab(k)).collect();
    let init_model = match args.optional("init-model") {
        Some(path) => load_model(path)?,
        None => Fvae::new(FvaeConfig::for_dataset(&ds)),
    };
    let mut cfg = fvae_serve::PublishConfig::new(args.required("log")?, args.required("dir")?);
    if let Some(raw) = args.optional("push") {
        cfg.push = raw.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
    }
    cfg.snapshot_every = args.get_or("every", cfg.snapshot_every)?;
    cfg.keep_last = args.get_or("keep", cfg.keep_last)?;
    cfg.batch_users = args.get_or("batch", cfg.batch_users)?;
    cfg.poll = std::time::Duration::from_millis(args.get_or("poll-ms", 10u64)?);
    if let Some(raw) = args.optional("idle-exit-ms") {
        let ms: u64 = raw.parse().map_err(|_| format!("flag --idle-exit-ms: bad value '{raw}'"))?;
        cfg.idle_exit = Some(std::time::Duration::from_millis(ms));
    }
    let max_steps = match args.optional("max-steps") {
        Some(raw) => {
            Some(raw.parse::<u64>().map_err(|_| format!("flag --max-steps: bad value '{raw}'"))?)
        }
        None => None,
    };
    let registry = fvae_obs::Registry::new();
    let mut publisher =
        fvae_serve::Publisher::new(cfg, names, vocabs, Some(init_model))
            .map_err(|e| format!("cannot start publisher: {e}"))?
            .with_registry(&registry);
    let report = publisher.run(max_steps).map_err(|e| format!("publish failed: {e}"))?;
    if let Some(path) = args.optional("out-model") {
        let model = publisher.into_model();
        std::fs::write(path, model.to_bytes())
            .map_err(|e| format!("cannot write model {path}: {e}"))?;
    }
    Ok(format!(
        "published: {} steps over {} events, {} snapshots, {} pushes committed \
         ({} failures), log offset {}\n",
        report.steps,
        report.events,
        report.snapshots,
        report.pushes_committed,
        report.push_failures,
        report.log_offset
    ))
}

fn similar(args: &Args) -> Result<String, String> {
    args.expect_only(&["store", "user", "k"])?;
    let path = args.required("store")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read store {path}: {e}"))?;
    let store = EmbeddingStore::from_bytes(&bytes)
        .map_err(|e| format!("cannot decode store {path}: {e}"))?;
    let user: u64 = args.get_or("user", 0u64)?;
    let k: usize = args.get_or("k", 10usize)?;
    let query = store
        .get(user)
        .ok_or_else(|| format!("user {user} not in the store"))?;
    // Brute-force nearest users by L2 (the recall primitive of §V-F applied
    // user-to-user).
    let mut scored: Vec<(f32, u64)> = Vec::with_capacity(store.len());
    for candidate in 0..store.len() as u64 {
        if candidate == user {
            continue;
        }
        if let Some(e) = store.get(candidate) {
            scored.push((-fvae_tensor::ops::squared_distance(&query, &e), candidate));
        }
    }
    scored.sort_by(|a, b| fvae_tensor::ops::nan_last_desc(a.0, b.0));
    let mut out = format!("top-{k} look-alike users for user {user}:\n");
    for (score, candidate) in scored.into_iter().take(k) {
        out.push_str(&format!("  user {candidate:<8} distance² {:.4}\n", -score));
    }
    Ok(out)
}

/// What a parity sweep ran over: the corpus, its shape, and the sweep's
/// query plan — the identifying half of an `fvae ann --json` report.
struct AnnRun<'a> {
    source: &'a str,
    dim: usize,
    n: usize,
    k: usize,
    n_queries: usize,
}

/// Serializes a parity sweep as the `fvae ann --json` report: the recall/
/// cost curve plus the provenance needed to compare runs across commits.
fn ann_report_json(
    run: &AnnRun,
    config: &fvae_ann::IvfConfig,
    flat: &fvae_ann::harness::LatencySummary,
    curve: &[fvae_ann::ParityPoint],
) -> String {
    let points: Vec<String> = curve
        .iter()
        .map(|p| {
            let mut o = fvae_obs::JsonObj::new();
            o.usize("nprobe", p.nprobe)
                .f64("recall_at_k", p.recall_at_k)
                .f64("mean_distance_evals", p.mean_distance_evals)
                .f64("distance_frac", p.distance_frac)
                .f64("mean_code_evals", p.mean_code_evals)
                .f64("p50_us", p.p50_us)
                .f64("p99_us", p.p99_us);
            o.finish()
        })
        .collect();
    let mut obj = fvae_obs::JsonObj::new();
    obj.str("bench", "ann_recall")
        .str("git_rev", &fvae_obs::provenance::git_rev())
        .bool("dirty", fvae_obs::provenance::git_dirty())
        .str("source", run.source)
        .usize("n", run.n)
        .usize("dim", run.dim)
        .usize("k", run.k)
        .usize("queries", run.n_queries)
        .usize("nlist", config.nlist)
        .usize("pq_m", config.pq_m)
        .usize("rerank", config.rerank)
        .usize("default_nprobe", config.default_nprobe)
        .obj("flat", |o| {
            o.f64("p50_us", flat.p50_us)
                .f64("p99_us", flat.p99_us)
                .f64("mean_distance_evals", flat.mean_distance_evals);
        })
        .raw_arr("curve", &points);
    let mut json = obj.finish();
    json.push('\n');
    json
}

/// Recall@k parity harness (`fvae_ann::recall_parity` as a command): builds
/// the exhaustive flat reference and the adaptive IVF-PQ index over the
/// same corpus, sweeps `nprobe`, and reports recall@k against the exact
/// ground truth next to the distance budget each point spent. The IVF index
/// is always built here — even below the `auto_build` flat threshold —
/// because measuring it against the flat scan is the command's whole point.
fn ann(args: &Args) -> Result<String, String> {
    args.expect_only(&[
        "store", "synth", "dim", "clusters", "seed", "k", "queries", "nprobes", "out-index",
        "json",
    ])?;
    let (source, dim, ids, data) = match (args.optional("store"), args.optional("synth")) {
        (Some(path), None) => {
            let raw = std::fs::read(path).map_err(|e| format!("cannot read store {path}: {e}"))?;
            let file = fvae_ann::io::read_embeddings(&raw[..])
                .map_err(|e| format!("cannot decode store {path}: {e}"))?;
            (path.to_string(), file.dim, file.ids, file.data)
        }
        (None, Some(_)) => {
            let n: usize = args.get_or("synth", 0usize)?;
            let dim: usize = args.get_or("dim", 16usize)?;
            let clusters: usize = args.get_or("clusters", 32usize)?;
            let seed: u64 = args.get_or("seed", 42u64)?;
            if n == 0 || dim == 0 || clusters == 0 {
                return Err("--synth/--dim/--clusters must be positive".to_string());
            }
            let (ids, data) = fvae_ann::synth_clustered(n, dim, clusters, seed);
            let source = format!("synth(n={n}, dim={dim}, clusters={clusters}, seed={seed})");
            (source, dim, ids, data)
        }
        _ => return Err("pass exactly one of --store STORE or --synth N".to_string()),
    };
    let n = ids.len();
    let k: usize = args.get_or("k", 10usize)?;
    if k == 0 || k > n {
        return Err(format!("--k must be in 1..={n} for this corpus"));
    }
    let n_queries: usize = args.get_or("queries", 100usize)?.min(n);
    if n_queries == 0 {
        return Err("--queries must be positive".to_string());
    }
    let queries = &data[..n_queries * dim];

    let flat = fvae_ann::FlatIndex::build(dim, &ids, &data).map_err(|e| format!("flat build: {e}"))?;
    let config = fvae_ann::adaptive_ivf_config(n, dim);
    let ivf = fvae_ann::IvfIndex::build(dim, &ids, &data, config)
        .map_err(|e| format!("ivf build: {e}"))?;

    let nprobes = match args.get_usize_list("nprobes")? {
        Some(list) => {
            let mut list = list;
            list.retain(|&p| p >= 1 && p <= config.nlist);
            if list.is_empty() {
                return Err(format!("--nprobes has no entry in 1..={}", config.nlist));
            }
            list
        }
        None => {
            let mut list =
                vec![1, 2, 4, config.default_nprobe, config.nlist / 2, config.nlist];
            list.retain(|&p| p >= 1 && p <= config.nlist);
            list.sort_unstable();
            list.dedup();
            list
        }
    };

    let flat_lat = fvae_ann::harness::measure_latency(&flat, queries, k);
    let curve = fvae_ann::recall_parity(&flat, &ivf, queries, k, &nprobes);

    let mut out = format!(
        "ann parity over {source}\n\
         corpus: {n} vectors of dim {dim}; {n_queries} queries, k = {k}\n\
         ivf: nlist {} pq_m {} rerank {} (default nprobe {})\n\
         flat scan: p50 {:.1}us p99 {:.1}us ({:.0} distance evals/query)\n\
         nprobe  recall@{k:<3} dist-evals  frac    p50us    p99us\n",
        config.nlist,
        config.pq_m,
        config.rerank,
        config.default_nprobe,
        flat_lat.p50_us,
        flat_lat.p99_us,
        flat_lat.mean_distance_evals,
    );
    for p in &curve {
        out.push_str(&format!(
            "{:>6}  {:<10.4} {:<11.1} {:<7.3} {:<8.1} {:<8.1}\n",
            p.nprobe, p.recall_at_k, p.mean_distance_evals, p.distance_frac, p.p50_us, p.p99_us
        ));
    }
    if let Some(path) = args.optional("json") {
        let run = AnnRun { source: &source, dim, n, k, n_queries };
        let json = ann_report_json(&run, &config, &flat_lat, &curve);
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!("report: {path}\n"));
    }
    if let Some(path) = args.optional("out-index") {
        let encoded = fvae_ann::encode_index(&fvae_ann::AnyIndex::Ivf(ivf));
        std::fs::write(path, &encoded).map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!("index: {path} ({} bytes)\n", encoded.len()));
    }
    Ok(out)
}

/// Serves online embeddings from the newest checkpoint in a directory,
/// blocking until a client sends a `Shutdown` frame.
fn serve(args: &Args) -> Result<String, String> {
    args.expect_only(&[
        "checkpoint-dir", "host", "port", "threads", "batch-size", "queue-capacity",
        "cache-capacity", "port-file", "quant", "embeddings",
    ])?;
    if let Some(raw) = args.optional("threads") {
        let threads: usize = raw
            .parse()
            .ok()
            .filter(|&t| t >= 1)
            .ok_or_else(|| format!("flag --threads: expected a positive count, got '{raw}'"))?;
        fvae_pool::set_parallelism(threads);
    }
    let mut cfg = fvae_serve::ServeConfig::new(args.required("checkpoint-dir")?);
    cfg.host = args.optional("host").unwrap_or("127.0.0.1").to_string();
    cfg.port = args.get_or("port", 0u16)?;
    cfg.batch_size = args.get_or("batch-size", cfg.batch_size)?;
    cfg.queue_capacity = args.get_or("queue-capacity", cfg.queue_capacity)?;
    cfg.cache_capacity = args.get_or("cache-capacity", cfg.cache_capacity)?;
    if let Some(raw) = args.optional("quant") {
        cfg.quant = raw
            .parse()
            .map_err(|e| format!("flag --quant: {e}"))?;
    }
    cfg.embeddings = args.optional("embeddings").map(Into::into);
    let mut server = fvae_serve::Server::start(cfg).map_err(|e| match e {
        fvae_serve::ServeError::ZeroBatchSize => {
            "flag --batch-size: expected a positive count, got '0'".to_string()
        }
        e => format!("cannot serve: {e}"),
    })?;
    let addr = server.addr();
    let mode = if server.quantized() { "int8" } else { "f32" };
    eprintln!(
        "fvae-serve listening on {addr} (checkpoint {:#018x}, {mode} encoder)",
        server.ckpt_id()
    );
    // The ephemeral-port handshake for scripts and CI: the actual address
    // lands in a file the caller can poll.
    if let Some(path) = args.optional("port-file") {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    server.wait();
    server.shutdown();
    let metrics = server.metrics_text();
    let served = metrics
        .lines()
        .find_map(|l| l.strip_prefix("fvae_serve_requests ").map(str::trim))
        .unwrap_or("0")
        .to_string();
    Ok(format!("shut down after {served} embed requests on {addr}\n"))
}

/// Routing tier over a fleet of `fvae serve` shards: consistent-hash
/// request distribution, health-gated failover, and coordinated (all-or-
/// nothing) fleet reloads. Speaks the same protocol as `serve`, so
/// `embed-client` and `loadgen` target it unchanged.
fn router(args: &Args) -> Result<String, String> {
    args.expect_only(&[
        "shards", "shards-file", "host", "port", "port-file", "replicas", "pool",
        "max-attempts", "fail-threshold", "probe-interval-ms", "rpc-timeout-ms",
        "connect-timeout-ms", "pool-wait-ms",
    ])?;
    let shards: Vec<String> = if let Some(list) = args.optional("shards") {
        list.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect()
    } else if let Some(path) = args.optional("shards-file") {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))?
            .lines()
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty())
            .collect()
    } else {
        return Err("pass --shards HOST:PORT,... or --shards-file F".to_string());
    };
    if shards.is_empty() {
        return Err("no shard addresses given".to_string());
    }
    let mut cfg = fvae_serve::RouterConfig::new(shards);
    // With a shards file the addresses stay live: line i is re-read before
    // each upstream connect, so a restarted shard can re-join on a new port.
    cfg.shards_file = args.optional("shards-file").map(Into::into);
    cfg.host = args.optional("host").unwrap_or("127.0.0.1").to_string();
    cfg.port = args.get_or("port", 0u16)?;
    cfg.replicas = args.get_or("replicas", cfg.replicas)?;
    cfg.pool_size = args.get_or("pool", cfg.pool_size)?;
    cfg.max_attempts = args.get_or("max-attempts", cfg.max_attempts)?;
    cfg.fail_threshold = args.get_or("fail-threshold", cfg.fail_threshold)?;
    cfg.probe_interval =
        std::time::Duration::from_millis(args.get_or("probe-interval-ms", 500u64)?);
    cfg.rpc_timeout = std::time::Duration::from_millis(args.get_or("rpc-timeout-ms", 5000u64)?);
    cfg.connect_timeout =
        std::time::Duration::from_millis(args.get_or("connect-timeout-ms", 2000u64)?);
    cfg.pool_wait = std::time::Duration::from_millis(args.get_or("pool-wait-ms", 250u64)?);
    let n_shards = cfg.shards.len();
    let mut router = fvae_serve::Router::start(cfg).map_err(|e| format!("cannot route: {e}"))?;
    let addr = router.addr();
    let fleet = router.fleet_info();
    eprintln!(
        "fvae-router listening on {addr} ({n_shards} shards, fleet checkpoint {:#018x})",
        fleet.ckpt_id
    );
    if let Some(path) = args.optional("port-file") {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    router.wait();
    router.shutdown();
    let metrics = router.metrics_text();
    let routed = metrics
        .lines()
        .find_map(|l| l.strip_prefix("fvae_router_requests ").map(str::trim))
        .unwrap_or("0")
        .to_string();
    Ok(format!("shut down after {routed} routed requests on {addr}\n"))
}

/// Parses an embed-client row spec: fields split by `|`, entries by `,`,
/// each entry `ID:WEIGHT`. An empty field segment is an empty row.
fn parse_rows(spec: &str) -> Result<Vec<fvae_serve::FieldRow>, String> {
    spec.split('|')
        .map(|field| {
            let mut ids = Vec::new();
            let mut vals = Vec::new();
            for entry in field.split(',').map(str::trim).filter(|e| !e.is_empty()) {
                let (id, val) = entry
                    .split_once(':')
                    .ok_or_else(|| format!("row entry '{entry}' is not ID:WEIGHT"))?;
                ids.push(id.trim().parse::<u64>().map_err(|_| format!("bad id '{id}'"))?);
                vals.push(val.trim().parse::<f32>().map_err(|_| format!("bad weight '{val}'"))?);
            }
            Ok((ids, vals))
        })
        .collect()
}

/// One-shot client for a running `fvae serve` instance: embed a row spec,
/// ping, fetch metrics/info, dump the trace ring, trigger a reload, or
/// request shutdown.
fn embed_client(args: &Args) -> Result<String, String> {
    args.expect_only(&[
        "addr", "rows", "ping", "metrics", "reload", "shutdown", "info", "trace", "nearest", "k",
    ])?;
    let addr = args.required("addr")?;
    let rows = args.optional("rows").map(parse_rows).transpose()?;
    let nearest_query: Option<Vec<f32>> = args
        .optional("nearest")
        .map(|spec| {
            spec.split(',')
                .map(|tok| {
                    tok.trim()
                        .parse::<f32>()
                        .map_err(|_| format!("--nearest: bad component '{tok}'"))
                })
                .collect()
        })
        .transpose()?;
    let mut client = fvae_serve::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut out = String::new();
    if args.get_or("ping", false)? {
        client.ping(1).map_err(|e| format!("ping failed: {e}"))?;
        out.push_str("pong\n");
    }
    if let Some(fields) = rows {
        match client.embed(&fields).map_err(|e| format!("embed failed: {e}"))? {
            fvae_serve::EmbedOutcome::Embedding { ckpt_id, values } => {
                out.push_str(&format!("checkpoint {ckpt_id:#018x}\n"));
                let rendered: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
                out.push_str(&rendered.join(" "));
                out.push('\n');
            }
            fvae_serve::EmbedOutcome::Overloaded => out.push_str("overloaded (retry)\n"),
            fvae_serve::EmbedOutcome::Error { code, msg } => {
                return Err(format!("server rejected the request ({code}): {msg}"))
            }
        }
    }
    if let Some(query) = nearest_query {
        let k: u32 = args.get_or("k", 10u32)?;
        match client.nearest(&query, k).map_err(|e| format!("nearest failed: {e}"))? {
            fvae_serve::NearestOutcome::Neighbors { index_id, neighbors } => {
                out.push_str(&format!("index {index_id:#018x}\n"));
                for (id, score) in neighbors {
                    out.push_str(&format!("  user {id:<8} distance² {:.4}\n", -score));
                }
            }
            fvae_serve::NearestOutcome::Error { code, msg } => {
                return Err(format!("server rejected the request ({code}): {msg}"))
            }
        }
    }
    if args.get_or("reload", false)? {
        let report = client.reload().map_err(|e| format!("reload failed: {e}"))?;
        if !report.ok {
            return Err(format!("reload rejected: {}", report.detail));
        }
        out.push_str(&format!(
            "reload {} (checkpoint {:#018x}: {})\n",
            if report.changed { "swapped" } else { "no-op" },
            report.ckpt_id,
            report.detail
        ));
    }
    if args.get_or("metrics", false)? {
        out.push_str(&client.metrics().map_err(|e| format!("metrics failed: {e}"))?);
    }
    if args.get_or("info", false)? {
        let info = client.info().map_err(|e| format!("info failed: {e}"))?;
        out.push_str(&format!(
            "serving: {} fields -> {} dims (checkpoint {:#018x}, {} encoder)\n",
            info.n_fields,
            info.latent_dim,
            info.ckpt_id,
            if info.quantized { "int8" } else { "f32" }
        ));
    }
    if let Some(path) = args.optional("trace") {
        // Chrome `trace_event` JSON — open in chrome://tracing or Perfetto.
        let json = client.trace_json().map_err(|e| format!("trace failed: {e}"))?;
        std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!("trace: {path}\n"));
    }
    if args.get_or("shutdown", false)? {
        client.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
        out.push_str("server shutting down\n");
    }
    if out.is_empty() {
        return Err(
            "nothing to do: pass --rows/--nearest/--ping/--metrics/--info/--trace/--reload/--shutdown"
                .to_string(),
        );
    }
    Ok(out)
}

/// Serializes a loadgen report as the `fvae loadgen --json` report:
/// quantiles plus the provenance needed to compare runs across commits.
/// `bench` names the scenario (`serve_latency`, `router_latency`, ...);
/// `shards` records the fleet size when the target was a router.
fn latency_report_json(
    report: &fvae_serve::LoadGenReport,
    bench: &str,
    shards: Option<usize>,
) -> String {
    let summary = |o: &mut fvae_obs::JsonObj, s: &fvae_serve::LatencySummary| {
        o.u64("count", s.count)
            .u64("p50", s.p50)
            .u64("p90", s.p90)
            .u64("p99", s.p99)
            .u64("p999", s.p999)
            .u64("max", s.max)
            .u64("mean", s.mean);
    };
    let mut obj = fvae_obs::JsonObj::new();
    obj.str("bench", bench)
        .str("git_rev", &fvae_obs::provenance::git_rev())
        .bool("dirty", fvae_obs::provenance::git_dirty());
    if let Some(n) = shards {
        obj.usize("shards", n);
    }
    obj.f64("target_qps", report.target_qps)
        .f64("achieved_qps", report.achieved_qps)
        .f64("duration_s", report.elapsed.as_secs_f64())
        .usize("connections", report.connections)
        .u64("sent", report.sent)
        .u64("ok", report.ok)
        .u64("overloaded", report.overloaded)
        .u64("errors", report.errors)
        .obj("e2e_us", |o| summary(o, &report.e2e_us))
        .obj("service_us", |o| summary(o, &report.service_us));
    let mut json = obj.finish();
    json.push('\n');
    json
}

/// Open-loop tail-latency harness against a running `fvae serve` (see
/// `fvae_serve::loadgen` for why open-loop and what the two latency
/// columns mean).
fn loadgen(args: &Args) -> Result<String, String> {
    args.expect_only(&[
        "addr", "qps", "duration-ms", "connections", "distinct-rows", "ids-per-field",
        "id-space", "seed", "json", "bench", "shards",
    ])?;
    let raw_addr = args.required("addr")?;
    let addr: std::net::SocketAddr = raw_addr
        .parse()
        .map_err(|_| format!("--addr '{raw_addr}' is not HOST:PORT"))?;
    let mut cfg = fvae_serve::LoadGenConfig::new(addr);
    cfg.target_qps = args.get_or("qps", cfg.target_qps)?;
    if !(cfg.target_qps.is_finite() && cfg.target_qps > 0.0) {
        return Err(format!("--qps must be a positive rate, got {}", cfg.target_qps));
    }
    cfg.duration = std::time::Duration::from_millis(args.get_or("duration-ms", 2000u64)?);
    cfg.connections = args.get_or("connections", cfg.connections)?;
    if cfg.connections == 0 {
        return Err("--connections must be at least 1".to_string());
    }
    cfg.distinct_rows = args.get_or("distinct-rows", cfg.distinct_rows)?;
    cfg.ids_per_field = args.get_or("ids-per-field", cfg.ids_per_field)?;
    cfg.id_space = args.get_or("id-space", cfg.id_space)?;
    cfg.seed = args.get_or("seed", cfg.seed)?;
    let bench = args.optional("bench").unwrap_or("serve_latency").to_string();
    let shards = args
        .optional("shards")
        .map(|raw| {
            raw.parse::<usize>()
                .map_err(|_| format!("flag --shards: expected a count, got '{raw}'"))
        })
        .transpose()?;
    let report = fvae_serve::run_loadgen(&cfg).map_err(|e| format!("loadgen failed: {e}"))?;
    let mut out = report.render();
    out.push('\n');
    if let Some(path) = args.optional("json") {
        std::fs::write(path, latency_report_json(&report, &bench, shards))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!("report: {path}\n"));
    }
    Ok(out)
}

/// Compares two checkpoint snapshots after erasing wall-clock fields (the
/// only bytes legitimately allowed to differ between otherwise identical
/// runs). Used by CI to prove 1-thread and N-thread training agree.
fn ckpt_diff(args: &Args) -> Result<String, String> {
    args.expect_only(&["a", "b"])?;
    let path_a = args.required("a")?;
    let path_b = args.required("b")?;
    let read_normalized = |path: &str| -> Result<Vec<u8>, String> {
        let raw = std::fs::read(path).map_err(|e| format!("cannot read snapshot {path}: {e}"))?;
        normalized_snapshot_bytes(&raw).map_err(|e| format!("cannot decode snapshot {path}: {e}"))
    };
    let a = read_normalized(path_a)?;
    let b = read_normalized(path_b)?;
    if a == b {
        return Ok(format!("identical: {path_a} == {path_b} ({} bytes, wall-clock erased)\n", a.len()));
    }
    let first = a.iter().zip(&b).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
    Err(format!(
        "snapshots differ: {path_a} ({} bytes) vs {path_b} ({} bytes), first divergence at byte {first}",
        a.len(),
        b.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        let toks: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Args::parse(&toks).expect("parse")
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("fvae_cli_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn full_pipeline_through_files() {
        let ds_path = tmp("pipeline_ds.bin");
        let model_path = tmp("pipeline_model.bin");
        let store_path = tmp("pipeline_store.bin");

        let out = run(&args(&format!(
            "generate --preset sc-small --users 300 --seed 4 --out {ds_path}"
        )))
        .expect("generate");
        assert!(out.contains("300 users"));

        let out = run(&args(&format!("stats --data {ds_path}"))).expect("stats");
        assert!(out.contains("fields: 4"));

        let out = run(&args(&format!(
            "train --data {ds_path} --out {model_path} --epochs 2 --latent 16 --batch 64"
        )))
        .expect("train");
        assert!(out.contains("wrote"));

        let out = run(&args(&format!(
            "embed --data {ds_path} --model {model_path} --out {store_path}"
        )))
        .expect("embed");
        assert!(out.contains("300 embeddings"));

        let out = run(&args(&format!(
            "evaluate --data {ds_path} --model {model_path}"
        )))
        .expect("evaluate");
        assert!(out.contains("AUC"));

        let out = run(&args(&format!("similar --store {store_path} --user 5 --k 3")))
            .expect("similar");
        assert_eq!(out.lines().count(), 4);
    }

    /// Runs `fvae embed --fields {fields}` on a fresh sc-small dataset and
    /// 1-epoch model; returns the error and whether a store was written.
    fn embed_with_fields(name: &str, fields: &str) -> (String, bool) {
        let ds = tmp(&format!("{name}_ds.bin"));
        let model = tmp(&format!("{name}_model.bin"));
        let store = tmp(&format!("{name}_store.bin"));
        let _ = std::fs::remove_file(&store);
        run(&args(&format!("generate --preset sc-small --users 64 --seed 13 --out {ds}")))
            .expect("generate");
        run(&args(&format!(
            "train --data {ds} --out {model} --epochs 1 --latent 8 --batch 32 --quiet true"
        )))
        .expect("train");
        let err = run(&args(&format!(
            "embed --data {ds} --model {model} --out {store} --fields {fields}"
        )))
        .expect_err("a bad field list must be refused");
        (err, std::path::Path::new(&store).exists())
    }

    #[test]
    fn embed_refuses_a_field_out_of_range() {
        let (err, written) = embed_with_fields("fields_range", "0,9"); // sc-small has 4 fields
        assert!(err.starts_with("flag --fields:") && err.contains("field 9"), "got: {err}");
        assert!(!written, "no store may be written");
    }

    #[test]
    fn embed_refuses_a_field_listed_twice() {
        // Listed twice, field 0 would count twice in the L2 norm.
        let (err, written) = embed_with_fields("fields_twice", "0,0");
        assert!(err.starts_with("flag --fields:") && err.contains("field 0"), "got: {err}");
        assert!(!written, "no store may be written");
    }

    #[test]
    fn early_stop_training_works() {
        let ds_path = tmp("es_ds.bin");
        let model_path = tmp("es_model.bin");
        run(&args(&format!(
            "generate --preset sc-small --users 250 --seed 5 --out {ds_path}"
        )))
        .expect("generate");
        let out = run(&args(&format!(
            "train --data {ds_path} --out {model_path} --epochs 4 --early-stop true --latent 8"
        )))
        .expect("train");
        assert!(out.contains("early stop"));
    }

    #[test]
    fn telemetry_jsonl_records_every_step_with_flat_scratch_allocs() {
        use fvae_obs::Value;
        let ds_path = tmp("obs_ds.bin");
        let model_path = tmp("obs_model.bin");
        let jsonl_path = tmp("obs_run.jsonl");
        run(&args(&format!(
            "generate --preset sc-small --users 512 --seed 6 --out {ds_path}"
        )))
        .expect("generate");
        // rate 1.0 keeps candidate sets deterministic; everything else is
        // seeded, so the run (and its allocation profile) is reproducible.
        let out = run(&args(&format!(
            "train --data {ds_path} --out {model_path} --epochs 2 --batch 64 --rate 1.0 \
             --latent 8 --quiet true --obs-jsonl {jsonl_path}"
        )))
        .expect("train");
        assert!(out.contains("run log:"));

        let text = std::fs::read_to_string(&jsonl_path).expect("run log exists");
        let records: Vec<Value> = text
            .lines()
            .map(|line| fvae_obs::parse(line).expect("every line parses as JSON"))
            .collect();
        let steps: Vec<&Value> = records
            .iter()
            .filter(|r| r.get("type").and_then(Value::as_str) == Some("step"))
            .collect();
        let steps_per_epoch = 512usize.div_ceil(64);
        assert_eq!(steps.len(), 2 * steps_per_epoch, "one record per optimizer step");

        let epoch = records
            .iter()
            .find(|r| r.get("type").and_then(Value::as_str) == Some("epoch"))
            .expect("epoch record present");
        assert_eq!(epoch.get("epoch").and_then(Value::as_u64), Some(0));
        let elbo = epoch.get("elbo").and_then(Value::as_f64).expect("elbo field");
        assert!(elbo.is_finite(), "elbo must be finite: {elbo}");
        assert!(epoch.get("users_per_sec").and_then(Value::as_f64).expect("ups") > 0.0);

        // The zero-allocation contract, observed from the outside: the alloc
        // gauge is a high-water mark of the scratch arena, so it may creep
        // while warm-up batches discover the largest candidate sets, but a
        // warmed epoch must be completely flat.
        let allocs: Vec<u64> = steps
            .iter()
            .map(|s| s.get("scratch_allocs").and_then(Value::as_u64).expect("gauge"))
            .collect();
        assert!(allocs.windows(2).all(|w| w[0] <= w[1]), "monotone gauge: {allocs:?}");
        let warmed = &allocs[steps_per_epoch..];
        assert!(
            warmed.windows(2).all(|w| w[0] == w[1]),
            "scratch allocs must stay flat across the warmed epoch: {allocs:?}"
        );
        // Per-phase timelines cover the whole step.
        for s in &steps {
            let phases = s.get("phase_ns").expect("phase timeline");
            let total: u64 = ["batch_assembly", "encoder_fwd", "decoder_fwd",
                "sampled_softmax", "backward", "optimizer"]
                .iter()
                .map(|p| phases.get(p).and_then(Value::as_u64).expect("phase"))
                .sum();
            let wall = s.get("wall_ns").and_then(Value::as_u64).expect("wall_ns");
            assert!(total <= wall, "phases ({total}) cannot exceed the step ({wall})");
            assert!(total > 0, "phase timeline must be populated");
        }
    }

    #[test]
    fn checkpointed_kill_and_resume_writes_an_identical_model() {
        let ds_path = tmp("ckpt_ds.bin");
        let ref_model = tmp("ckpt_model_ref.bin");
        let resumed_model = tmp("ckpt_model_resumed.bin");
        let ckpt_dir = tmp("ckpt_dir");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        run(&args(&format!(
            "generate --preset sc-small --users 256 --seed 8 --out {ds_path}"
        )))
        .expect("generate");

        // Reference: 2 uninterrupted epochs (256 users / batch 64 = 8 steps).
        run(&args(&format!(
            "train --data {ds_path} --out {ref_model} --epochs 2 --batch 64 --latent 8 \
             --quiet true"
        )))
        .expect("reference train");

        // Kill after 5 of 8 steps, then resume to completion.
        let out = run(&args(&format!(
            "train --data {ds_path} --out {resumed_model} --epochs 2 --batch 64 --latent 8 \
             --quiet true --checkpoint-dir {ckpt_dir} --checkpoint-every 2 --stop-after 5"
        )))
        .expect("interrupted train");
        assert!(out.contains("stopped after 5 steps"), "got: {out}");

        let out = run(&args(&format!(
            "train --data {ds_path} --out {resumed_model} --epochs 2 --batch 64 --latent 8 \
             --quiet true --checkpoint-dir {ckpt_dir} --resume true"
        )))
        .expect("resumed train");
        assert!(out.contains("resuming from"), "got: {out}");

        let reference = std::fs::read(&ref_model).expect("reference model");
        let resumed = std::fs::read(&resumed_model).expect("resumed model");
        assert_eq!(reference, resumed, "resumed model file must be bit-identical");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn checkpoint_flags_require_a_directory() {
        let err = run(&args("train --data x --out y --resume true")).expect_err("rejected");
        assert!(err.contains("--checkpoint-dir"), "got: {err}");
        let err =
            run(&args("train --data x --out y --stop-after 3")).expect_err("rejected");
        assert!(err.contains("--checkpoint-dir"), "got: {err}");
    }

    #[test]
    fn serve_reports_zero_batch_size_as_a_flag_error() {
        // This cannot start serving (and so block the test): the directory
        // holds no checkpoint, and the flag must be refused before that is
        // even looked at.
        let dir = tmp("serve_flags_no_ckpts");
        let err = run(&args(&format!("serve --checkpoint-dir {dir} --batch-size 0")))
            .expect_err("batch size 0 would livelock the batch thread");
        assert!(err.starts_with("flag --batch-size:"), "got: {err}");
    }

    #[test]
    fn threads_flag_trains_identically_and_ckpt_diff_agrees() {
        let ds_path = tmp("thr_ds.bin");
        let model_1 = tmp("thr_model_1.bin");
        let model_4 = tmp("thr_model_4.bin");
        let dir_1 = tmp("thr_ckpt_1");
        let dir_4 = tmp("thr_ckpt_4");
        let _ = std::fs::remove_dir_all(&dir_1);
        let _ = std::fs::remove_dir_all(&dir_4);
        run(&args(&format!(
            "generate --preset sc-small --users 256 --seed 9 --out {ds_path}"
        )))
        .expect("generate");

        for (threads, model, dir) in [(1, &model_1, &dir_1), (4, &model_4, &dir_4)] {
            run(&args(&format!(
                "train --data {ds_path} --out {model} --epochs 2 --batch 64 --latent 8 \
                 --quiet true --threads {threads} --checkpoint-dir {dir} --checkpoint-every 4"
            )))
            .expect("train");
        }
        let m1 = std::fs::read(&model_1).expect("model at 1 thread");
        let m4 = std::fs::read(&model_4).expect("model at 4 threads");
        assert_eq!(m1, m4, "--threads must not change a single output bit");

        // The snapshots agree too, which is exactly what CI's parity smoke
        // checks through this subcommand.
        let pick = |dir: &str| {
            let mut names: Vec<_> = std::fs::read_dir(dir)
                .expect("ckpt dir")
                .map(|e| e.expect("entry").path())
                .filter(|p| p.extension().is_some_and(|x| x == "fvck"))
                .collect();
            names.sort();
            names.last().expect("snapshot written").to_string_lossy().into_owned()
        };
        let (snap_1, snap_4) = (pick(&dir_1), pick(&dir_4));
        let out = run(&args(&format!("ckpt-diff --a {snap_1} --b {snap_4}")))
            .expect("snapshots must normalize to identical bytes");
        assert!(out.contains("identical"), "got: {out}");

        // Different snapshots (other step counts) must be flagged.
        let earlier = {
            let mut names: Vec<_> = std::fs::read_dir(&dir_1)
                .expect("ckpt dir")
                .map(|e| e.expect("entry").path())
                .filter(|p| p.extension().is_some_and(|x| x == "fvck"))
                .collect();
            names.sort();
            names.first().expect("snapshot").to_string_lossy().into_owned()
        };
        let err = run(&args(&format!("ckpt-diff --a {snap_1} --b {earlier}")))
            .expect_err("different steps must differ");
        assert!(err.contains("snapshots differ"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir_1);
        let _ = std::fs::remove_dir_all(&dir_4);
    }

    #[test]
    fn store_fill_through_encoder_preserves_topk_neighbors() {
        let ds_path = tmp("topk_ds.bin");
        let model_path = tmp("topk_model.bin");
        let store_path = tmp("topk_store.bin");
        run(&args(&format!(
            "generate --preset sc-small --users 200 --seed 12 --out {ds_path}"
        )))
        .expect("generate");
        run(&args(&format!(
            "train --data {ds_path} --out {model_path} --epochs 2 --latent 8 --batch 64 \
             --quiet true"
        )))
        .expect("train");
        run(&args(&format!(
            "embed --data {ds_path} --model {model_path} --out {store_path}"
        )))
        .expect("embed");

        // The store is now filled via the serving-side Encoder; it must hold
        // bit-identical embeddings to the model's own embed_users.
        let ds = load_dataset(&ds_path).expect("ds");
        let model = load_model(&model_path).expect("model");
        let users: Vec<usize> = (0..ds.n_users()).collect();
        let offline = model.embed_users(&ds, &users, None);
        let bytes = std::fs::read(&store_path).expect("store bytes");
        let store = EmbeddingStore::from_bytes(&bytes).expect("store");
        for &u in &users {
            let e = store.get(u as u64).expect("user present");
            for (a, b) in e.iter().zip(offline.row(u)) {
                assert_eq!(a.to_bits(), b.to_bits(), "user {u} embedding drifted");
            }
        }

        // Therefore the store's top-k look-alike neighbors are unchanged:
        // brute-force them from the offline matrix and compare.
        let out =
            run(&args(&format!("similar --store {store_path} --user 7 --k 5"))).expect("similar");
        let got: Vec<u64> = out
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().nth(1).expect("user column").parse().expect("id"))
            .collect();
        let q = offline.row(7);
        let mut scored: Vec<(f32, u64)> = users
            .iter()
            .filter(|&&u| u != 7)
            .map(|&u| (-fvae_tensor::ops::squared_distance(q, offline.row(u)), u as u64))
            .collect();
        scored.sort_by(|a, b| fvae_tensor::ops::nan_last_desc(a.0, b.0));
        let want: Vec<u64> = scored.iter().take(5).map(|&(_, u)| u).collect();
        assert_eq!(got, want, "top-k neighbors changed by the encoder routing");
    }

    #[test]
    fn ann_harness_sweeps_and_emits_report() {
        use fvae_ann::AnnIndex as _;
        use fvae_obs::Value;
        let json_path = tmp("ann_bench.json");
        let index_path = tmp("ann_index.bin");

        // Synthetic corpus: deterministic, no training required.
        let out = run(&args(&format!(
            "ann --synth 1500 --dim 16 --clusters 12 --seed 3 --k 10 --queries 60 \
             --json {json_path} --out-index {index_path}"
        )))
        .expect("ann");
        assert!(out.contains("1500 vectors of dim 16"), "got: {out}");
        assert!(out.contains("recall@10"), "got: {out}");

        let text = std::fs::read_to_string(&json_path).expect("report written");
        let doc = fvae_obs::parse(&text).expect("report is valid JSON");
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("ann_recall"));
        assert!(doc.get("git_rev").and_then(Value::as_str).is_some());
        assert_eq!(doc.get("n").and_then(Value::as_u64), Some(1500));
        let curve = match doc.get("curve") {
            Some(Value::Arr(points)) if !points.is_empty() => points,
            other => panic!("curve missing: {other:?}"),
        };
        // The last (widest) sweep point probes every list: recall must be
        // exact there, and every point must undercut the flat scan.
        let last = curve.last().expect("points");
        assert_eq!(last.get("recall_at_k").and_then(Value::as_f64), Some(1.0));
        for p in curve {
            let frac = p.get("distance_frac").and_then(Value::as_f64).expect("frac");
            assert!(frac < 1.0, "a sweep point cost as much as the flat scan");
        }

        // The emitted index decodes and answers (exact at full probe width).
        let raw = std::fs::read(&index_path).expect("index written");
        let index = fvae_ann::decode_index(&raw[..]).expect("index decodes");
        assert_eq!(index.len(), 1500);

        // A store file from `fvae embed`'s format works as input too.
        let store_path = tmp("ann_store.bin");
        let (ids, data) = fvae_ann::synth_clustered(500, 8, 6, 7);
        std::fs::write(&store_path, fvae_ann::io::write_embeddings(8, &ids, &data))
            .expect("store");
        let out = run(&args(&format!("ann --store {store_path} --k 5 --queries 20")))
            .expect("ann over store");
        assert!(out.contains("500 vectors of dim 8"), "got: {out}");

        let err = run(&args("ann --k 10")).expect_err("no corpus");
        assert!(err.contains("--store") && err.contains("--synth"), "got: {err}");
        let err = run(&args("ann --synth 100 --k 101")).expect_err("k too big");
        assert!(err.contains("--k"), "got: {err}");
        let err = run(&args("ann --synth 100 --nprobes 0")).expect_err("bad nprobes");
        assert!(err.contains("--nprobes"), "got: {err}");
    }

    #[test]
    fn serve_with_embeddings_answers_nearest_over_tcp() {
        use std::time::{Duration, Instant};
        let ds_path = tmp("nn_ds.bin");
        let model_path = tmp("nn_model.bin");
        let ckpt_dir = tmp("nn_ckpt");
        let store_path = tmp("nn_store.bin");
        let port_file = tmp("nn_port");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let _ = std::fs::remove_file(&port_file);
        run(&args(&format!(
            "generate --preset sc-small --users 128 --seed 31 --out {ds_path}"
        )))
        .expect("generate");
        run(&args(&format!(
            "train --data {ds_path} --out {model_path} --epochs 1 --batch 64 --latent 8 \
             --quiet true --checkpoint-dir {ckpt_dir} --checkpoint-every 2"
        )))
        .expect("train");
        // The store `serve --embeddings` loads is the one `embed` writes.
        run(&args(&format!(
            "embed --data {ds_path} --model {model_path} --out {store_path}"
        )))
        .expect("embed");

        let server = {
            let line = format!(
                "serve --checkpoint-dir {ckpt_dir} --port 0 --port-file {port_file} \
                 --batch-size 4 --embeddings {store_path}"
            );
            std::thread::spawn(move || run(&args(&line)))
        };
        let addr = {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if let Ok(text) = std::fs::read_to_string(&port_file) {
                    if text.trim().contains(':') {
                        break text.trim().to_string();
                    }
                }
                assert!(Instant::now() < deadline, "server never published its port");
                std::thread::sleep(Duration::from_millis(10));
            }
        };

        // Query with user 3's own embedding: its nearest neighbour is itself
        // at distance 0.
        let bytes = std::fs::read(&store_path).expect("store bytes");
        let store = EmbeddingStore::from_bytes(&bytes).expect("store");
        let query: Vec<String> =
            store.get(3).expect("user 3").iter().map(|v| format!("{v}")).collect();
        let out = run(&args(&format!(
            "embed-client --addr {addr} --nearest {} --k 5",
            query.join(",")
        )))
        .expect("nearest");
        assert!(out.contains("index 0x"), "got: {out}");
        let first = out.lines().nth(1).expect("first neighbour");
        assert!(first.contains("user 3"), "self not nearest: {out}");
        assert!(first.contains("distance² 0.0000"), "got: {out}");
        assert_eq!(out.lines().count(), 6, "k=5 neighbours plus header: {out}");

        let err = run(&args(&format!("embed-client --addr {addr} --nearest 1.0 --k 5")))
            .expect_err("dim mismatch");
        assert!(err.contains("does not match store dim"), "got: {err}");
        let err = run(&args(&format!("embed-client --addr {addr} --nearest 1.0,x")))
            .expect_err("bad spec");
        assert!(err.contains("bad component"), "got: {err}");

        run(&args(&format!("embed-client --addr {addr} --shutdown true"))).expect("shutdown");
        server.join().expect("server thread").expect("serve result");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn serve_round_trip_over_tcp() {
        use std::time::{Duration, Instant};
        let ds_path = tmp("serve_ds.bin");
        let model_path = tmp("serve_model.bin");
        let ckpt_dir = tmp("serve_ckpt");
        let port_file = tmp("serve_port");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let _ = std::fs::remove_file(&port_file);
        run(&args(&format!(
            "generate --preset sc-small --users 128 --seed 11 --out {ds_path}"
        )))
        .expect("generate");
        run(&args(&format!(
            "train --data {ds_path} --out {model_path} --epochs 1 --batch 64 --latent 8 \
             --quiet true --checkpoint-dir {ckpt_dir} --checkpoint-every 2"
        )))
        .expect("train");

        // The server blocks inside run() until a client asks it to stop, so
        // it gets its own thread; the ephemeral port comes back via file.
        let server = {
            let line = format!(
                "serve --checkpoint-dir {ckpt_dir} --port 0 --port-file {port_file} \
                 --batch-size 4"
            );
            std::thread::spawn(move || run(&args(&line)))
        };
        let addr = {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if let Ok(text) = std::fs::read_to_string(&port_file) {
                    if text.trim().contains(':') {
                        break text.trim().to_string();
                    }
                }
                assert!(Instant::now() < deadline, "server never published its port");
                std::thread::sleep(Duration::from_millis(10));
            }
        };

        let out = run(&args(&format!("embed-client --addr {addr} --ping true"))).expect("ping");
        assert!(out.contains("pong"));

        let spec = "1:1.0,2:0.5|3:1.0|4:2.0|5:1.5"; // 4 fields, like sc-small
        let out = run(&args(&format!("embed-client --addr {addr} --rows {spec}")))
            .expect("embed");
        assert!(out.contains("checkpoint 0x"), "got: {out}");
        assert_eq!(out.lines().nth(1).expect("values").split_whitespace().count(), 8);

        // The same spec again must serve identical bytes (cache or not).
        let again = run(&args(&format!("embed-client --addr {addr} --rows {spec}")))
            .expect("embed again");
        assert_eq!(out, again, "repeat request must serve identical bytes");

        let out = run(&args(&format!("embed-client --addr {addr} --metrics true")))
            .expect("metrics");
        assert!(out.contains("fvae_serve_requests"), "got: {out}");

        let out = run(&args(&format!("embed-client --addr {addr} --reload true")))
            .expect("reload");
        assert!(out.contains("no-op"), "nothing new on disk: {out}");

        let out = run(&args(&format!("embed-client --addr {addr} --shutdown true")))
            .expect("shutdown");
        assert!(out.contains("shutting down"));
        let out = server.join().expect("server thread").expect("serve result");
        assert!(out.contains("shut down after"), "got: {out}");

        let err = run(&args("embed-client --addr 127.0.0.1:1")).expect_err("no action");
        assert!(err.contains("cannot connect") || err.contains("nothing to do"));
        let err = run(&args("serve --checkpoint-dir /definitely/missing")).expect_err("bad dir");
        assert!(err.contains("cannot serve"), "got: {err}");
        let err = run(&args("embed-client --addr x --rows 1:1.0|oops")).expect_err("bad spec");
        assert!(err.contains("ID:WEIGHT"), "got: {err}");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn loadgen_against_live_server_reports_and_emits_json() {
        use fvae_obs::Value;
        use std::time::{Duration, Instant};
        let ds_path = tmp("lg_ds.bin");
        let model_path = tmp("lg_model.bin");
        let ckpt_dir = tmp("lg_ckpt");
        let port_file = tmp("lg_port");
        let json_path = tmp("lg_latency.json");
        let trace_path = tmp("lg_trace.json");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let _ = std::fs::remove_file(&port_file);
        run(&args(&format!(
            "generate --preset sc-small --users 128 --seed 17 --out {ds_path}"
        )))
        .expect("generate");
        run(&args(&format!(
            "train --data {ds_path} --out {model_path} --epochs 1 --batch 64 --latent 8 \
             --quiet true --checkpoint-dir {ckpt_dir} --checkpoint-every 2"
        )))
        .expect("train");

        let server = {
            let line = format!(
                "serve --checkpoint-dir {ckpt_dir} --port 0 --port-file {port_file} \
                 --batch-size 8 --cache-capacity 0"
            );
            std::thread::spawn(move || run(&args(&line)))
        };
        let addr = {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if let Ok(text) = std::fs::read_to_string(&port_file) {
                    if text.trim().contains(':') {
                        break text.trim().to_string();
                    }
                }
                assert!(Instant::now() < deadline, "server never published its port");
                std::thread::sleep(Duration::from_millis(10));
            }
        };

        // `--info` is how loadgen shapes rows; check the human rendering.
        let out = run(&args(&format!("embed-client --addr {addr} --info true")))
            .expect("info");
        assert!(out.contains("4 fields -> 8 dims"), "got: {out}");

        let out = run(&args(&format!(
            "loadgen --addr {addr} --qps 150 --duration-ms 600 --connections 2 \
             --distinct-rows 16 --json {json_path}"
        )))
        .expect("loadgen");
        assert!(out.contains("target 150 qps"), "got: {out}");
        assert!(out.contains("e2e"), "got: {out}");
        assert!(out.contains(&format!("report: {json_path}")), "got: {out}");

        // The emitted report parses and carries outcomes + provenance.
        let text = std::fs::read_to_string(&json_path).expect("report written");
        let doc = fvae_obs::parse(&text).expect("report is valid JSON");
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("serve_latency"));
        assert!(doc.get("git_rev").and_then(Value::as_str).is_some());
        assert!(matches!(doc.get("dirty"), Some(Value::Bool(_))));
        let sent = doc.get("sent").and_then(Value::as_u64).expect("sent");
        assert_eq!(sent, 90, "150 qps x 0.6 s schedules 90 ticks");
        let ok = doc.get("ok").and_then(Value::as_u64).expect("ok");
        assert!(ok > 0, "server must serve some of the gentle load");
        assert_eq!(doc.get("errors").and_then(Value::as_u64), Some(0));
        let p50 = doc.get("e2e_us").and_then(|s| s.get("p50")).and_then(Value::as_u64);
        assert!(p50.expect("e2e p50") > 0, "latency histogram populated");

        // The loadgen traffic left a readable Chrome trace behind.
        let out = run(&args(&format!("embed-client --addr {addr} --trace {trace_path}")))
            .expect("trace");
        assert!(out.contains("trace:"), "got: {out}");
        let trace = std::fs::read_to_string(&trace_path).expect("trace written");
        let doc = fvae_obs::parse(&trace).expect("trace is valid JSON");
        match doc.get("traceEvents") {
            Some(Value::Arr(events)) => assert!(!events.is_empty(), "trace recorded"),
            other => panic!("traceEvents missing: {other:?}"),
        }

        run(&args(&format!("embed-client --addr {addr} --shutdown true"))).expect("shutdown");
        server.join().expect("server thread").expect("serve result");

        let err = run(&args("loadgen --addr not-an-addr")).expect_err("bad addr");
        assert!(err.contains("HOST:PORT"), "got: {err}");
        let err = run(&args(&format!("loadgen --addr {addr} --qps -3"))).expect_err("bad qps");
        assert!(err.contains("--qps"), "got: {err}");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn router_round_trip_over_a_live_two_shard_fleet() {
        use std::time::{Duration, Instant};
        let ds_path = tmp("rt_ds.bin");
        let model_path = tmp("rt_model.bin");
        let ckpt_dir = tmp("rt_ckpt");
        let shards_file = tmp("rt_shards");
        let router_port_file = tmp("rt_router_port");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let _ = std::fs::remove_file(&router_port_file);
        run(&args(&format!(
            "generate --preset sc-small --users 128 --seed 23 --out {ds_path}"
        )))
        .expect("generate");
        run(&args(&format!(
            "train --data {ds_path} --out {model_path} --epochs 1 --batch 64 --latent 8 \
             --quiet true --checkpoint-dir {ckpt_dir} --checkpoint-every 2"
        )))
        .expect("train");

        let wait_for_addr = |port_file: &str| {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if let Ok(text) = std::fs::read_to_string(port_file) {
                    if text.trim().contains(':') {
                        break text.trim().to_string();
                    }
                }
                assert!(Instant::now() < deadline, "no address in {port_file}");
                std::thread::sleep(Duration::from_millis(10));
            }
        };

        // Two shards over the same checkpoint dir, then the router on top.
        let mut shards = Vec::new();
        let mut shard_addrs = Vec::new();
        for i in 0..2 {
            let port_file = tmp(&format!("rt_shard_port{i}"));
            let _ = std::fs::remove_file(&port_file);
            let line = format!(
                "serve --checkpoint-dir {ckpt_dir} --port 0 --port-file {port_file} \
                 --batch-size 4 --cache-capacity 0"
            );
            shards.push(std::thread::spawn(move || run(&args(&line))));
            shard_addrs.push(wait_for_addr(&port_file));
        }
        std::fs::write(&shards_file, format!("{}\n", shard_addrs.join("\n")))
            .expect("shards file");
        let router = {
            let line = format!(
                "router --shards-file {shards_file} --port 0 --port-file {router_port_file}"
            );
            std::thread::spawn(move || run(&args(&line)))
        };
        let addr = wait_for_addr(&router_port_file);

        // The router speaks the serve protocol, so embed-client works as-is.
        let out = run(&args(&format!("embed-client --addr {addr} --ping true"))).expect("ping");
        assert!(out.contains("pong"));
        let spec = "1:1.0,2:0.5|3:1.0|4:2.0|5:1.5"; // 4 fields, like sc-small
        let out = run(&args(&format!("embed-client --addr {addr} --rows {spec}")))
            .expect("embed via router");
        assert!(out.contains("checkpoint 0x"), "got: {out}");
        let again = run(&args(&format!("embed-client --addr {addr} --rows {spec}")))
            .expect("embed again");
        assert_eq!(out, again, "routing must not change the served bytes");
        let out = run(&args(&format!("embed-client --addr {addr} --info true"))).expect("info");
        assert!(out.contains("4 fields -> 8 dims"), "got: {out}");
        let out = run(&args(&format!("embed-client --addr {addr} --metrics true")))
            .expect("metrics");
        assert!(out.contains("fvae_router_requests"), "got: {out}");
        assert!(out.contains("fvae_router_unhealthy_shards 0"), "got: {out}");

        // A coordinated reload with nothing new on disk is a fleet-wide no-op.
        let out = run(&args(&format!("embed-client --addr {addr} --reload true")))
            .expect("reload");
        assert!(out.contains("no-op"), "got: {out}");

        let out = run(&args(&format!("embed-client --addr {addr} --shutdown true")))
            .expect("shutdown");
        assert!(out.contains("shutting down"));
        let out = router.join().expect("router thread").expect("router result");
        assert!(out.contains("routed requests"), "got: {out}");
        for (shard, addr) in shards.into_iter().zip(&shard_addrs) {
            run(&args(&format!("embed-client --addr {addr} --shutdown true")))
                .expect("shard shutdown");
            shard.join().expect("shard thread").expect("serve result");
        }

        let err = run(&args("router --port 0")).expect_err("no shards");
        assert!(err.contains("--shards"), "got: {err}");
        let err = run(&args("router --shards 127.0.0.1:1")).expect_err("dead shard");
        assert!(err.contains("cannot route"), "got: {err}");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&args("nonsense")).is_err());
        assert!(run(&args("generate --preset bogus --out x")).is_err());
        assert!(run(&args("stats --data /definitely/missing")).is_err());
        let err = run(&args("train --data x")).expect_err("missing out");
        assert!(err.contains("--out") || err.contains("cannot load"));
        assert!(run(&args("help")).expect("help").contains("USAGE"));
    }
}
