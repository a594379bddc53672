//! The two training workloads.
//!
//! Both drive `Fvae::train_single_batch` over a seeded synthetic dataset at
//! batch 256 and report users per second, the step-time distribution and —
//! because a trained model's first job is to embed the whole user base —
//! the latency of offline `Encoder::embed_users_into` batches. Steps and
//! embedding batches alternate in short rounds over the whole run (see
//! `measure`).
//!
//! * `train_sparse` is the SC preset: four fields with Zipf vocabularies up
//!   to 4096, default FVAE configuration. Candidate sampling, the sampled
//!   softmax, the embedding bags and sparse Adam carry the step.
//! * `train_dense` has four fields of 64 features and 1024/512-wide layers:
//!   candidate sets are tiny, the step is dense GEMMs. A sampler change must
//!   not move it; a kernel change must.

use std::time::{Duration, Instant};

use fvae_core::train::FvaeOptHandle;
use fvae_core::{EncoderScratch, Fvae, FvaeConfig, InputRows, PhaseNs};
use fvae_data::{FieldSpec, MultiFieldDataset, TopicModelConfig};
use fvae_tensor::Matrix;

use crate::gen::sub_seed;
use crate::report::Outcome;
use crate::spans::{Accounting, Lane};
use crate::stats::{median_f64, Samples};
use crate::{layers, RunCfg};

/// Users per optimizer step.
pub const BATCH: usize = 256;
/// Users in the dataset.
const USERS: usize = 8192;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sparse,
    Dense,
}

fn dataset(kind: Kind, seed: u64) -> MultiFieldDataset {
    match kind {
        Kind::Sparse => TopicModelConfig {
            n_users: USERS,
            seed: sub_seed(seed, 1),
            ..TopicModelConfig::sc()
        }
        .generate(),
        Kind::Dense => TopicModelConfig {
            n_users: USERS,
            n_topics: 8,
            alpha: 0.1,
            fields: (0..4)
                .map(|i| FieldSpec::new(&format!("f{i}"), 64, 8, 1.0))
                .collect(),
            pair_prob: 0.0,
            seed: sub_seed(seed, 1),
        }
        .generate(),
    }
}

fn config(kind: Kind, ds: &MultiFieldDataset, seed: u64) -> FvaeConfig {
    let mut cfg = FvaeConfig::for_dataset(ds);
    cfg.batch_size = BATCH;
    cfg.seed = sub_seed(seed, 2);
    if kind == Kind::Dense {
        cfg.enc_hidden = 1024;
        cfg.enc_extra_hidden = vec![512];
        cfg.dec_hidden = vec![512, 1024];
    }
    cfg
}

struct State {
    ds: MultiFieldDataset,
    model: Fvae,
    opt: FvaeOptHandle,
    /// First user of the next batch.
    cursor: usize,
    batch: Vec<usize>,
}

impl State {
    fn new(kind: Kind, seed: u64) -> Self {
        let ds = dataset(kind, seed);
        let model = Fvae::new(config(kind, &ds, seed));
        let opt = model.make_opt_states();
        Self {
            ds,
            model,
            opt,
            cursor: 0,
            batch: Vec::with_capacity(BATCH),
        }
    }

    fn next_batch(&mut self) {
        let n = self.ds.n_users();
        self.batch.clear();
        self.batch.extend((0..BATCH).map(|i| (self.cursor + i) % n));
        self.cursor = (self.cursor + BATCH) % n;
    }

    fn step(&mut self) -> fvae_core::StepStats {
        self.next_batch();
        self.model
            .train_single_batch(&self.ds, &self.batch, &mut self.opt)
    }
}

/// Builds the dataset and model and warms the step up: one pass over the
/// users for the sparse model, so every feature a timed step meets already
/// has its embedding row and its Adam moments; a few steps for the dense
/// one, whose vocabulary is complete after the first.
fn setup(kind: Kind, seed: u64) -> State {
    let mut st = State::new(kind, seed);
    let warm = match kind {
        Kind::Sparse => USERS / BATCH,
        Kind::Dense => 6,
    };
    for _ in 0..warm {
        st.step();
    }
    st
}

/// Two fresh runs of one seed must produce the same finite losses, bit for
/// bit: the determinism the repository promises at a fixed thread count.
fn determinism_check(kind: Kind, seed: u64, out: &mut Outcome) {
    let losses = |_| {
        let mut st = State::new(kind, seed);
        (0..3)
            .map(|_| st.step())
            .map(|s| (s.recon.to_bits(), s.kl.to_bits(), s.loss()))
            .collect::<Vec<_>>()
    };
    let (a, b) = (losses(0), losses(1));
    let finite = a.iter().all(|&(_, _, loss)| loss.is_finite());
    out.check(
        "train_loss_finite",
        finite,
        format!("losses {:?}", a.iter().map(|x| x.2).collect::<Vec<_>>()),
    );
    out.check(
        "train_loss_repeats_for_seed",
        a == b,
        format!("{} steps compared bit for bit", a.len()),
    );
}

struct Measured {
    steps: u64,
    users_per_s: f64,
    rounds: usize,
    step_ns: Vec<u64>,
    /// Wall time of each offline embedding batch, in the order taken.
    embed_ns: Vec<u64>,
    /// Per-phase time summed over the steps, in `PhaseNs::NAMES` order.
    phase_sum: [u64; 6],
    candidates: f64,
    pool_jobs: u64,
    all_finite: bool,
}

/// How one round of [`measure`] divides its time.
#[derive(Clone, Copy)]
struct Round {
    /// Seconds of optimizer steps.
    train_s: f64,
    /// Seconds of offline embedding batches after them; `0.0` for none.
    embed_s: f64,
}

/// Buffers `Encoder::embed_users_into` reuses from batch to batch.
#[derive(Default)]
struct EmbedBufs {
    input: InputRows,
    scratch: EncoderScratch,
    z: Matrix,
    users: Vec<usize>,
    cursor: usize,
}

/// Trains and embeds for `secs` seconds, in rounds: `round.train_s` seconds
/// of optimizer steps, then `round.embed_s` seconds of offline embedding
/// through a snapshot of the encoder as it then stands. Both kinds of work
/// are spread over the whole run, so a neighbour that has the box for a few
/// seconds disturbs a few rounds of each and not the whole of one; throughput
/// is the median over the rounds' train segments, the latencies are medians
/// over every sample of the run.
fn measure(st: &mut State, secs: f64, round: Round, lane: &mut Lane) -> Measured {
    let mut m = Measured {
        steps: 0,
        users_per_s: 0.0,
        rounds: 0,
        step_ns: Vec::with_capacity(4096),
        embed_ns: Vec::with_capacity(4096),
        phase_sum: [0; 6],
        candidates: 0.0,
        pool_jobs: 0,
        all_finite: true,
    };
    let mut rates = Vec::new();
    let mut bufs = EmbedBufs::default();
    let jobs_before = pool_jobs();
    let root = lane.enter("workload", 0);
    // Whole rounds, stretched to fill `secs`; each segment ends at its place
    // on the run's clock, so a step that overruns one does not lengthen the run.
    let n_rounds = (secs / (round.train_s + round.embed_s)).round().max(1.0);
    let round_s = secs / n_rounds;
    let train_s = round_s * round.train_s / (round.train_s + round.embed_s);
    let start = Instant::now();
    for i in 0..n_rounds as usize {
        let train_end = i as f64 * round_s + train_s;
        let (seg_start, mut seg_steps) = (Instant::now(), 0u64);
        while seg_steps == 0 || start.elapsed().as_secs_f64() < train_end {
            let req = m.steps + 1;
            lane.scope("ladder.batch_ids", req, || st.next_batch());
            let t0 = Instant::now();
            let stats = lane.scope("core.train.step", req, || {
                st.model.train_single_batch(&st.ds, &st.batch, &mut st.opt)
            });
            m.step_ns.push(t0.elapsed().as_nanos() as u64);
            m.steps += 1;
            seg_steps += 1;
            m.all_finite &= stats.loss().is_finite();
            m.candidates += stats.candidates as f64;
            for (sum, (_, ns)) in m.phase_sum.iter_mut().zip(st.opt.last_phases().entries()) {
                *sum += ns;
            }
        }
        let seg_s = seg_start.elapsed().as_secs_f64();
        rates.push((seg_steps as usize * BATCH) as f64 / seg_s);
        m.rounds += 1;
        if round.embed_s > 0.0 {
            let until = start + Duration::from_secs_f64((i + 1) as f64 * round_s);
            embed_segment(st, until, &mut bufs, &mut m.embed_ns);
        }
    }
    lane.exit(root);
    m.users_per_s = median_f64(&rates);
    m.pool_jobs = pool_jobs() - jobs_before;
    m
}

/// Embeds users in batches of [`BATCH`] through a snapshot of the encoder
/// until the clock reads `until` and appends the per-batch wall times to
/// `samples`. The first batch is not timed: it sizes the buffers and refills
/// the caches the optimizer steps emptied.
fn embed_segment(st: &State, until: Instant, bufs: &mut EmbedBufs, samples: &mut Vec<u64>) {
    let encoder = st.model.encoder();
    let n = st.ds.n_users();
    // The untimed batch, then at least one timed one.
    let mut taken = 0;
    while taken < 2 || Instant::now() < until {
        bufs.users.clear();
        bufs.users.extend((0..BATCH).map(|i| (bufs.cursor + i) % n));
        bufs.cursor = (bufs.cursor + BATCH) % n;
        let t0 = Instant::now();
        encoder.embed_users_into(
            &st.ds,
            &bufs.users,
            None,
            &mut bufs.input,
            &mut bufs.scratch,
            &mut bufs.z,
        );
        std::hint::black_box(bufs.z.as_slice());
        if taken > 0 {
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        taken += 1;
    }
}

/// Jobs the global compute pool has run so far, parallel and serial.
pub fn pool_jobs() -> u64 {
    let s = fvae_pool::stats();
    s.parallel_jobs + s.serial_jobs
}

fn run(kind: Kind, cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let seed = cfg.id.seed;
    determinism_check(kind, seed, &mut out);

    let mut setups = Vec::new();
    let mut st = None;
    for _ in 0..cfg.setup_reps {
        let t0 = Instant::now();
        st = Some(setup(kind, seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut st = st.expect("at least one set-up");
    out.name("setup_s", "s", median_f64(&setups), setups.len() as u64);

    // A second of steps, then a third of a second of embedding, over and over.
    let scale = if cfg.smoke { 0.25 } else { 1.0 };
    let round = Round {
        train_s: 1.0 * scale,
        embed_s: 0.3 * scale,
    };
    let secs = cfg.id.seconds;
    // A traced run trains twice, without spans and with them, and then runs
    // the micro-suite.
    let share = if cfg.id.traced { 0.43 } else { 1.0 };
    let m = measure(&mut st, secs * share, round, &mut Lane::disabled());
    out.attempted += m.steps;
    out.check(
        "train_loss_finite_while_timed",
        m.all_finite,
        format!("{} timed steps", m.steps),
    );
    out.name(
        "train_users_per_s",
        "users/s",
        m.users_per_s,
        m.rounds as u64,
    );
    out.latency("step", &m.step_ns);
    out.attempted += m.embed_ns.len() as u64;
    out.latency("embed_batch", &m.embed_ns);

    if cfg.id.traced {
        let mut lane = Lane::recording(Instant::now());
        let train_only = Round {
            embed_s: 0.0,
            ..round
        };
        let t = measure(&mut st, secs * 0.35, train_only, &mut lane);
        out.attempted += t.steps;
        let mut acc = Accounting::default();
        acc.add_lane(lane.spans());
        cfg.write_spans(&[lane.spans()]);
        out.layer("trace.unaccounted_share", acc.unaccounted_share(), t.steps);
        out.layer(
            "trace.overhead_share",
            1.0 - t.users_per_s / m.users_per_s,
            t.rounds as u64,
        );
        out.layer_times = acc.layers;
        let total = t.phase_sum.iter().sum::<u64>().max(1);
        for (name, ns) in PhaseNs::NAMES.iter().zip(t.phase_sum) {
            out.layer(
                &format!("core.train.phase_{name}_share"),
                ns as f64 / total as f64,
                t.steps,
            );
        }
        out.layer(
            "core.train.step_p50_ms",
            Samples::from_values(t.step_ns).median() as f64 / 1e6,
            t.steps,
        );
        out.layer(
            "nn.sampled_softmax.mean_candidates",
            t.candidates / t.steps.max(1) as f64,
            t.steps,
        );
        out.layer(
            "pool.jobs_per_step",
            t.pool_jobs as f64 / t.steps.max(1) as f64,
            t.steps,
        );
        layers::micro_suite(cfg, &mut out);
    }
    out
}

/// The `train_sparse` workload.
pub fn run_sparse(cfg: &RunCfg) -> Outcome {
    run(Kind::Sparse, cfg)
}

/// The `train_dense` workload.
pub fn run_dense(cfg: &RunCfg) -> Outcome {
    run(Kind::Dense, cfg)
}
