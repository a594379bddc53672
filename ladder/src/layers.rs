//! The layer micro-suite of a traced run.
//!
//! Each layer of the system is timed through its public functions, at the
//! shapes of the workload the catalogue lists the metric for (the dense
//! GEMMs at `train_dense`'s 256 × 1024 × 512, the sparse layers at
//! `train_sparse`'s batch 256 and width 128, the encoder at `fleet_cold`'s
//! batch sizes, …). The suite is the same in every traced run, so a layer's
//! number can be read beside any workload's end-to-end result.
//!
//! Every value is the median over repeated calls inside a small time
//! budget; nothing here is gated.

use std::time::{Duration, Instant};

use fvae_ann::{AnnIndex as _, FlatIndex, SearchStats};
use fvae_core::{
    decode_snapshot, export_model_snapshot, EncoderScratch, InputRows, QuantizedEncoder,
    QuantizedEncoderScratch,
};
use fvae_data::{dataset_to_events, EventLogReader, EventLogWriter, StreamBatcher};
use fvae_nn::{
    Activation, Adam, AdamState, EmbeddingBag, Mlp, MlpGrads, RowGrads, SampledSoftmaxOutput,
    ShardedRowGrads, SoftmaxBatch, Workspace,
};
use fvae_pool::ThreadPool;
use fvae_serve::{decode_message, encode_frame, EmbedCache, Message};
use fvae_sparse::DynamicHashTable;
use fvae_tensor::{ops, simd, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{self, splitmix64, sub_seed, unit_f32};
use crate::report::{nproc, Outcome};
use crate::serve::{serving_dataset, serving_model};
use crate::stats::Samples;
use crate::train::BATCH;
use crate::RunCfg;

/// Calls `f` until `budget` is spent (at least three times, after one
/// untimed call) and returns the median call time in ns and the call count.
fn median_ns(budget: Duration, mut f: impl FnMut()) -> (f64, u64) {
    f();
    let mut samples = Samples::default();
    let start = Instant::now();
    while samples.count() < 3 || start.elapsed() < budget {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    (samples.median() as f64, samples.count() as u64)
}

fn random_matrix(rows: usize, cols: usize, state: &mut u64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| unit_f32(state) - 0.5)
}

fn tensor(out: &mut Outcome, budget: Duration, seed: u64) {
    let mut s = sub_seed(seed, 20);
    let (m, k, n) = (BATCH, 1024, 512);
    let flops = 2.0 * (m * k * n) as f64;
    let a = random_matrix(m, k, &mut s);
    let b = random_matrix(k, n, &mut s);
    let mut c = Matrix::default();
    let (ns, calls) = median_ns(budget, || a.matmul_into(&b, &mut c));
    out.layer("tensor.gemm_gflops", flops / ns, calls);

    // aᵀ·g: the weight gradient of the same layer.
    let g = random_matrix(m, n, &mut s);
    let (ns, calls) = median_ns(budget, || a.matmul_transa_into(&g, &mut c));
    out.layer("tensor.gemm_transa_gflops", flops / ns, calls);
    // g·bᵀ: the input gradient.
    let (ns, calls) = median_ns(budget, || g.matmul_transb_into(&b, &mut c));
    out.layer("tensor.gemm_transb_gflops", flops / ns, calls);

    let pool = ThreadPool::new(nproc());
    pool.set_parallelism(1);
    let (serial, _) = median_ns(budget, || a.matmul_into_with(&b, &mut c, &pool));
    pool.set_parallelism(nproc());
    let (pooled, calls) = median_ns(budget, || a.matmul_into_with(&b, &mut c, &pool));
    out.layer("tensor.gemm_pooled_speedup", serial / pooled, calls);

    // The sparse layers' inner loops: width-128 dots and axpys.
    let (dim, pairs) = (128, 4096);
    let x: Vec<f32> = (0..dim * pairs).map(|_| unit_f32(&mut s) - 0.5).collect();
    let mut y: Vec<f32> = (0..dim * pairs).map(|_| unit_f32(&mut s) - 0.5).collect();
    let (ns, calls) = median_ns(budget, || {
        let mut acc = 0.0;
        for (xr, yr) in x.chunks_exact(dim).zip(y.chunks_exact(dim)) {
            acc += ops::dot(xr, yr);
        }
        std::hint::black_box(acc);
    });
    out.layer(
        "tensor.dot_f32_gflops",
        2.0 * (dim * pairs) as f64 / ns,
        calls,
    );
    let (ns, calls) = median_ns(budget, || {
        for (xr, yr) in x.chunks_exact(dim).zip(y.chunks_exact_mut(dim)) {
            ops::axpy(1e-6, xr, yr);
        }
    });
    // Two reads and a write of four bytes per element.
    out.layer("tensor.axpy_gbps", 12.0 * (dim * pairs) as f64 / ns, calls);

    let len = 1024;
    let qa: Vec<i8> = (0..len * 256)
        .map(|_| (splitmix64(&mut s) % 255) as i8)
        .collect();
    let qb: Vec<i8> = (0..len * 256)
        .map(|_| (splitmix64(&mut s) % 255) as i8)
        .collect();
    let dot_i8 = simd::active().dot_i8;
    let (ns, calls) = median_ns(budget, || {
        let mut acc = 0i64;
        for (ar, br) in qa.chunks_exact(len).zip(qb.chunks_exact(len)) {
            acc += i64::from(dot_i8(ar, br));
        }
        std::hint::black_box(acc);
    });
    out.layer("tensor.dot_i8_gops", 2.0 * (len * 256) as f64 / ns, calls);
}

fn pool_and_table(out: &mut Outcome, budget: Duration, seed: u64) {
    let pool = fvae_pool::global();
    let shards = nproc();
    let (ns, calls) = median_ns(budget, || {
        for _ in 0..64 {
            pool.run(shards, |s| {
                std::hint::black_box(s);
            });
        }
    });
    out.layer("pool.dispatch_ns", ns / 64.0, calls * 64);

    let mut s = sub_seed(seed, 21);
    let n = 50_000;
    let ids: Vec<u64> = (0..n).map(|_| splitmix64(&mut s)).collect();
    let mut filled = DynamicHashTable::new();
    let (ns, calls) = median_ns(budget, || {
        let mut table = DynamicHashTable::new();
        for &id in &ids {
            table.slot_or_insert(id, |_| ());
        }
        filled = table;
    });
    out.layer("sparse.dyntable.insert_ns", ns / n as f64, calls * n as u64);
    let (ns, calls) = median_ns(budget, || {
        let mut hits = 0usize;
        for &id in &ids {
            hits += usize::from(filled.slot_of(id).is_some());
        }
        std::hint::black_box(hits);
    });
    out.layer("sparse.dyntable.lookup_ns", ns / n as f64, calls * n as u64);
}

fn nn(out: &mut Outcome, budget: Duration, seed: u64) {
    let mut s = sub_seed(seed, 22);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 23));
    let pool = fvae_pool::global();
    let (rows, dim) = (BATCH, 128);
    let per_row = rows as f64;

    // Embedding bag: 256 users × 14 features from a 4096-feature field.
    let ids: Vec<Vec<u64>> = (0..rows)
        .map(|_| (0..14).map(|_| splitmix64(&mut s) % 4096).collect())
        .collect();
    let vals: Vec<Vec<f32>> = ids
        .iter()
        .map(|r| r.iter().map(|_| unit_f32(&mut s) + 0.1).collect())
        .collect();
    let mut bag = EmbeddingBag::new(dim, 0.05);
    let mut pooled = Matrix::zeros(rows, dim);
    let mut slots = Vec::new();
    let (ns, calls) = median_ns(budget, || {
        pooled.fill(0.0);
        bag.accumulate_batch_sharded(&ids, &vals, &mut rng, &mut pooled, &mut slots, pool);
    });
    out.layer("nn.embedding_bag.fwd_ns_per_row", ns / per_row, calls);
    let dy = random_matrix(rows, dim, &mut s);
    let mut grads = ShardedRowGrads::default();
    let (ns, calls) = median_ns(budget, || {
        bag.backward_sharded_into(&slots, &vals, &dy, &mut grads, pool)
    });
    out.layer("nn.embedding_bag.bwd_ns_per_row", ns / per_row, calls);

    // Sampled softmax: 512 candidates, ten targets per user.
    let candidates: Vec<u64> = (0..512).collect();
    let targets: Vec<Vec<(u32, f32)>> = (0..rows)
        .map(|_| {
            (0..10)
                .map(|_| ((splitmix64(&mut s) % 512) as u32, 1.0))
                .collect()
        })
        .collect();
    let h = random_matrix(rows, dim, &mut s);
    let mut head = SampledSoftmaxOutput::new(dim, 0.05);
    let mut batch = SoftmaxBatch::default();
    let mut dlogits = Matrix::default();
    let (ns, calls) = median_ns(budget, || {
        head.forward_into(&h, &candidates, &mut rng, &mut batch);
        std::hint::black_box(SampledSoftmaxOutput::multinomial_loss_into(
            &batch,
            &targets,
            &mut dlogits,
        ));
    });
    out.layer("nn.sampled_softmax.fwd_ns_per_row", ns / per_row, calls);
    let (mut dh, mut dw, mut db, mut db_dense) = (
        Matrix::default(),
        ShardedRowGrads::default(),
        Vec::new(),
        Vec::new(),
    );
    let (ns, calls) = median_ns(budget, || {
        head.backward_sharded_into(
            &h,
            &batch,
            &dlogits,
            &mut dh,
            &mut dw,
            &mut db,
            &mut db_dense,
            pool,
        );
    });
    out.layer("nn.sampled_softmax.bwd_ns_per_row", ns / per_row, calls);

    // Sparse Adam: 1024 touched rows of a 4096 × 128 table.
    let touched = 1024;
    let mut row_grads = RowGrads::default();
    for slot in 0..touched {
        row_grads.insert(slot * 4, (0..dim).map(|_| unit_f32(&mut s) - 0.5).collect());
    }
    let mut param = vec![0.01f32; 4096 * dim];
    let mut state = AdamState::new(param.len());
    let adam = Adam::new(2e-3);
    let (ns, calls) = median_ns(budget, || {
        adam.step_rows(&mut state, &mut param, dim, &row_grads)
    });
    out.layer("nn.adam.step_rows_ns_per_row", ns / touched as f64, calls);

    // Dense trunk of train_dense's decoder: 64 → 512 → 1024.
    let mlp = Mlp::new(
        &[64, 512, 1024],
        Activation::Tanh,
        Activation::Tanh,
        &mut rng,
    );
    let x = random_matrix(rows, 64, &mut s);
    let mut acts = Vec::new();
    let (ns, calls) = median_ns(budget, || mlp.forward_cached_into(&x, &mut acts));
    out.layer("nn.mlp.fwd_ns_per_row", ns / per_row, calls);
    let dout = random_matrix(rows, 1024, &mut s);
    let (mut mgrads, mut dx, mut ws) = (MlpGrads::new(), Matrix::default(), Workspace::new());
    let (ns, calls) = median_ns(budget, || {
        mlp.backward_into(&x, &acts, &dout, &mut mgrads, &mut dx, &mut ws)
    });
    out.layer("nn.mlp.bwd_ns_per_row", ns / per_row, calls);
}

/// Encoder, quantized encoder, checkpoint and event-log layers, all on the
/// serving model the serving workloads use.
fn model_layers(out: &mut Outcome, budget: Duration, cfg: &RunCfg) -> Result<(), String> {
    let seed = cfg.id.seed;
    let ds = serving_dataset(2048, seed);
    let model = serving_model(&ds, seed);
    let encoder = model.encoder();
    let rows = gen::dataset_rows(&ds, 0..32);

    let mut input = InputRows::default();
    let fill = |input: &mut InputRows, n: usize| {
        input.reset(encoder.n_fields());
        for fields in &rows[..n] {
            input.push_row(|k| (fields[k].0.as_slice(), fields[k].1.as_slice()));
        }
    };
    let (ns, calls) = median_ns(budget, || fill(&mut input, 32));
    out.layer("core.encoder.input_fill_ns_per_row", ns / 32.0, calls);
    let (mut scratch, mut mu) = (EncoderScratch::default(), Matrix::default());
    for (name, n) in [
        ("core.encoder.embed_rows_per_s_b1", 1),
        ("core.encoder.embed_rows_per_s_b32", 32),
    ] {
        fill(&mut input, n);
        let (ns, calls) = median_ns(budget, || encoder.embed_into(&input, &mut scratch, &mut mu));
        out.layer(name, n as f64 * 1e9 / ns, calls);
    }
    let f32_mu = mu.clone();
    let quantized = QuantizedEncoder::from_encoder(&encoder);
    let (mut qscratch, mut qmu) = (QuantizedEncoderScratch::default(), Matrix::default());
    let (ns, calls) = median_ns(budget, || {
        quantized.embed_into(&input, &mut qscratch, &mut qmu)
    });
    out.layer("core.quant.embed_rows_per_s", 32.0 * 1e9 / ns, calls);
    let min_cos = (0..32)
        .map(|r| f64::from(ops::cosine_similarity(f32_mu.row(r), qmu.row(r))))
        .fold(f64::INFINITY, f64::min);
    out.layer("core.quant.min_cosine", min_cos, 32);

    // Checkpoint: encode the model section, write a whole snapshot
    // (encode + temp file + fsync + rename), decode it back.
    let dir = cfg.work_dir.join("micro");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let few = budget / 2;
    let (ns, calls) = median_ns(few, || {
        std::hint::black_box(model.to_bytes());
    });
    out.layer("core.checkpoint.encode_ms", ns / 1e6, calls);
    let mut path = None;
    let (ns, calls) = median_ns(few, || path = export_model_snapshot(&dir, &model).ok());
    out.layer("core.checkpoint.write_ms", ns / 1e6, calls);
    let raw = std::fs::read(path.ok_or("snapshot export failed")?).map_err(|e| e.to_string())?;
    out.layer("core.checkpoint.bytes", raw.len() as f64, 1);
    let (ns, calls) = median_ns(few, || {
        std::hint::black_box(decode_snapshot(&raw).is_ok());
    });
    out.layer("core.checkpoint.decode_ms", ns / 1e6, calls);

    // Event log: append, decode, batch.
    let events = dataset_to_events(&ds, 0, 1, sub_seed(seed, 5));
    let n = events.len() as f64;
    let log = dir.join("events.fvlg");
    let (ns, calls) = median_ns(few, || {
        let mut w = EventLogWriter::create(&log).expect("create log");
        for chunk in events.chunks(256) {
            w.append(chunk).expect("append");
        }
    });
    out.layer("data.events.append_events_per_s", n * 1e9 / ns, calls);
    let mut polled = Vec::with_capacity(events.len());
    let (ns, calls) = median_ns(few, || {
        polled.clear();
        let mut r = EventLogReader::open(&log, 0).expect("open log");
        while r.poll(256, &mut polled).expect("poll") > 0 {}
    });
    out.layer("data.events.decode_events_per_s", n * 1e9 / ns, calls);
    let names = ds.field_names().to_vec();
    let vocabs: Vec<usize> = (0..ds.n_fields()).map(|k| ds.field_vocab(k)).collect();
    let (ns, calls) = median_ns(few, || {
        let mut batcher = StreamBatcher::new(names.clone(), vocabs.clone(), 32);
        let mut windows = 0usize;
        for ev in &events {
            windows += usize::from(batcher.push(ev).expect("in-schema event").is_some());
        }
        std::hint::black_box(windows);
    });
    out.layer("data.events.batcher_events_per_s", n * 1e9 / ns, calls);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn ann(out: &mut Outcome, seed: u64, smoke: bool) -> Result<(), String> {
    // fleet_cold's store; a smoke pass keeps the IVF path at a fifth of it.
    let n = if smoke { 4096 } else { 20_000 };
    let dim = 64;
    let (ids, data) = fvae_ann::synth_clustered(n, dim, 64, sub_seed(seed, 3));
    let t0 = Instant::now();
    let index = fvae_ann::auto_build(dim, &ids, &data)?;
    out.layer("ann.build_ms", t0.elapsed().as_secs_f64() * 1e3, 1);
    let flat = FlatIndex::build(dim, &ids, &data)?;
    let queries = gen::nearest_queries(&data, dim, 200, sub_seed(seed, 4));
    let mut lat = Samples::default();
    let mut stats = SearchStats::default();
    let (mut found, mut wanted) = (0usize, 0usize);
    for q in &queries {
        let t0 = Instant::now();
        let got = index.search_with_stats(q, 10, &mut stats);
        lat.push(t0.elapsed().as_nanos() as u64);
        let truth = flat.search(q, 10);
        found += truth
            .iter()
            .filter(|t| got.iter().any(|g| g.id == t.id))
            .count();
        wanted += truth.len();
    }
    let nq = queries.len() as u64;
    out.layer("ann.ivf.search_p50_us", lat.median() as f64 / 1e3, nq);
    out.layer(
        "ann.ivf.distance_frac",
        stats.distance_evals as f64 / (nq as usize * n) as f64,
        nq,
    );
    out.layer(
        "ann.ivf.recall_at_10",
        found as f64 / wanted.max(1) as f64,
        nq,
    );
    Ok(())
}

fn protocol_and_cache(out: &mut Outcome, budget: Duration, seed: u64) {
    let ds = serving_dataset(64, seed);
    let mut s = sub_seed(seed, 24);
    let embed = Message::EmbedRequest {
        req_id: 1,
        fields: gen::user_row(&ds, 0),
    };
    let nearest = Message::NearestRequest {
        req_id: 1,
        k: 10,
        query: (0..64).map(|_| unit_f32(&mut s)).collect(),
    };
    let reps = 256;
    for (kind, msg) in [("embed", &embed), ("nearest", &nearest)] {
        let mut frame = Vec::new();
        let (ns, calls) = median_ns(budget, || {
            for _ in 0..reps {
                encode_frame(msg, &mut frame).expect("fits a frame");
            }
        });
        out.layer(
            &format!("serve.protocol.{kind}_encode_ns"),
            ns / reps as f64,
            calls * reps,
        );
        let (ns, calls) = median_ns(budget, || {
            for _ in 0..reps {
                std::hint::black_box(decode_message(&frame[4..]).is_ok());
            }
        });
        out.layer(
            &format!("serve.protocol.{kind}_decode_ns"),
            ns / reps as f64,
            calls * reps,
        );
    }

    let (cap, dim) = (4096, 64);
    let emb: Vec<f32> = (0..dim).map(|_| unit_f32(&mut s)).collect();
    let keys: Vec<u64> = (0..cap as u64).map(|_| splitmix64(&mut s)).collect();
    let mut cache = EmbedCache::new(cap, dim);
    let (ns, calls) = median_ns(budget, || {
        for &k in &keys {
            cache.insert(1, k, &emb);
        }
    });
    out.layer("serve.cache.insert_ns", ns / cap as f64, calls * cap as u64);
    let (ns, calls) = median_ns(budget, || {
        let mut hits = 0usize;
        for &k in &keys {
            hits += usize::from(cache.get(1, k).is_some());
        }
        std::hint::black_box(hits);
    });
    out.layer(
        "serve.cache.get_hit_ns",
        ns / cap as f64,
        calls * cap as u64,
    );
}

/// Runs every micro-measurement and adds the results to `out`.
pub fn micro_suite(cfg: &RunCfg, out: &mut Outcome) {
    let budget = Duration::from_millis(if cfg.smoke { 4 } else { 60 });
    let seed = cfg.id.seed;
    tensor(out, budget, seed);
    pool_and_table(out, budget, seed);
    nn(out, budget, seed);
    if let Err(e) = model_layers(out, budget, cfg) {
        out.check("micro_suite_model_layers", false, e);
    }
    if let Err(e) = ann(out, seed, cfg.smoke) {
        out.check("micro_suite_ann", false, e);
    }
    protocol_and_cache(out, budget, seed);
}
