//! Overload behaviour under open-loop load: when the offered rate exceeds
//! what the server can absorb, the server must degrade by **shedding**
//! (`Overloaded` replies) — never by letting the queue (and therefore
//! served latency) grow without bound. The tiny test model encodes in
//! microseconds, so a probe gives every batch an explicit service time:
//! capacity is then `batch_size` per service time whatever the box, and
//! overload is arithmetic rather than thread-scheduling luck. The proof
//! is two loadgen runs:
//!
//! 1. **Baseline** — a gentle open-loop run records the unloaded service
//!    p99.
//! 2. **Overload** — 2× capacity, striped over more connections than the
//!    server can hold at once. Every scheduled tick must still get an
//!    answer, some of them must be sheds, and the service p99 of the
//!    requests that *were* served must stay within 3× of the unloaded
//!    p99 — bounded queueing is the entire point of admission control.

use std::time::Duration;

mod common;

use common::{tiny_dataset, trained_model};
use fvae_core::checkpoint::export_model_snapshot;
use fvae_serve::{run_loadgen, BatchPhase, Client, LoadGenConfig, ServeConfig, Server};

/// What one encoder forward costs here, slept by the probe at each batch's
/// `Start`: at most `batch_size` replies leave per `SERVICE_TIME`.
const SERVICE_TIME: Duration = Duration::from_millis(5);

/// Length of the overload run. A stall of the whole box delays all 16
/// requests in flight at once; at some 1 500 served per second this keeps a few
/// such stalls well under 1 % of the served samples, so the p99 describes
/// the queue and not the stall.
const OVERLOAD_RUN: Duration = Duration::from_secs(5);

#[test]
fn overload_sheds_instead_of_queueing_unboundedly() {
    let ds = tiny_dataset(55);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-serve-overload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");

    // A deliberately small admission window: queue_capacity bounds how
    // much latency a served request can ever absorb, and makes shedding
    // reachable by a test-sized burst of concurrent connections.
    let mut cfg = ServeConfig::new(&dir);
    cfg.batch_size = 8;
    cfg.queue_capacity = 8;
    cfg.cache_capacity = 0; // every request pays the full pipeline
    cfg.reply_timeout = Duration::from_secs(20);
    let capacity_qps = cfg.batch_size as f64 / SERVICE_TIME.as_secs_f64();
    let probe = Box::new(|phase: BatchPhase, _n: usize| {
        if phase == BatchPhase::Start {
            std::thread::sleep(SERVICE_TIME);
        }
    });
    let server = Server::start_with_probe(cfg, Some(probe)).expect("start");
    let addr = server.addr();

    // --- 1. Baseline: unloaded open-loop service p99. ---------------------
    let mut base_cfg = LoadGenConfig::new(addr);
    base_cfg.target_qps = 100.0;
    base_cfg.duration = Duration::from_millis(800);
    base_cfg.connections = 2;
    let baseline = run_loadgen(&base_cfg).expect("baseline run");
    assert_eq!(baseline.errors, 0, "unloaded run must not error");
    assert!(baseline.ok > 0, "unloaded run must serve");
    let unloaded_p99 = baseline.service_us.p99.max(1);

    // --- 2. Overload: 2× capacity. ----------------------------------------
    let mut over_cfg = LoadGenConfig::new(addr);
    over_cfg.target_qps = 2.0 * capacity_qps;
    over_cfg.duration = OVERLOAD_RUN;
    // More connections than the server can hold at once (8 in the running
    // batch + 8 queued): whenever all of them are offering, some are shed.
    over_cfg.connections = 24;
    over_cfg.seed ^= 0xff;
    let over = run_loadgen(&over_cfg).expect("overload run");

    let expected_ticks = (over_cfg.target_qps * over_cfg.duration.as_secs_f64()).ceil() as u64;
    assert_eq!(over.sent, expected_ticks, "every scheduled tick is sent");
    assert_eq!(
        over.ok + over.overloaded + over.errors,
        over.sent,
        "every request gets exactly one answer"
    );
    assert_eq!(over.errors, 0, "overload degrades by shedding, not by erroring");
    assert!(over.ok > 0, "the server keeps serving under overload");
    assert!(
        over.overloaded > 0,
        "2x capacity ({:.0} qps offered) must shed; report:\n{}",
        over_cfg.target_qps,
        over.render()
    );

    // Bounded-queue latency contract: the requests that were admitted were
    // served promptly — queue_capacity caps their wait, so overload must
    // not inflate served latency past 3× the unloaded p99.
    assert!(
        over.service_us.p99 <= 3 * unloaded_p99,
        "served p99 under overload ({} us) exceeds 3x unloaded p99 ({} us)\nbaseline:\n{}\noverload:\n{}",
        over.service_us.p99,
        unloaded_p99,
        baseline.render(),
        over.render()
    );

    // The queue never grew past its bound (the gauge tracks live depth and
    // is monotonically sampled by the render; capacity is the hard cap).
    let mut client = Client::connect(addr).expect("connect");
    let text = client.metrics().expect("metrics");
    let depth: i64 = text
        .lines()
        .find_map(|l| l.strip_prefix("fvae_serve_queue_depth ").and_then(|r| r.trim().parse().ok()))
        .expect("queue depth gauge rendered");
    assert!(
        (0..=8).contains(&depth),
        "queue depth {depth} escaped its capacity bound"
    );
    let sheds: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("fvae_serve_overloaded ").and_then(|r| r.trim().parse().ok()))
        .expect("overloaded counter rendered");
    assert_eq!(sheds, over.overloaded, "server-side shed count matches the client view");

    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
