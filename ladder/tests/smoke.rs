//! A smoke pass of every workload, untraced and traced, through the real
//! binary: about two seconds of measuring each. It checks the contract the
//! driver relies on (exit code, last line, exact metric sets, no zero among
//! the end-to-end metrics) and that a traced run emits every per-layer
//! metric on every workload the catalogue lists it for.

use std::process::Command;

use fvae_ladder::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use fvae_obs::Value;

fn run(workload: &str, traced: bool, dir: &std::path::Path) -> (Value, Value) {
    let doc_path = dir.join(format!("{workload}-{}.json", u8::from(traced)));
    let out = Command::new(env!("CARGO_BIN_EXE_ladder"))
        .args([
            "run",
            "--workload",
            workload,
            "--smoke",
            "--allow-dirty",
            "--seed",
            "7",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&doc_path)
        .output()
        .expect("ladder starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} traced={traced} exited with {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let line =
        fvae_obs::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    let doc = fvae_obs::parse(&std::fs::read_to_string(&doc_path).expect("document written"))
        .expect("document parses");
    (line, doc)
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn every_workload_emits_every_metric_it_is_listed_for() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("ladder-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    // One after the other: the serving workloads pin threads to cores and
    // would measure each other.
    for w in &WORKLOADS {
        let (line, doc) = run(w.name, false, &dir);
        assert_eq!(
            keys(&line),
            ["correct", "attempted", "failed", "metrics"],
            "{}",
            w.name
        );
        assert_eq!(
            line.get("correct"),
            Some(&Value::Bool(true)),
            "{}: {:?}",
            w.name,
            doc.get("checks")
        );
        assert_eq!(
            line.get("failed").and_then(Value::as_u64),
            Some(0),
            "{}",
            w.name
        );
        assert!(
            line.get("attempted")
                .and_then(Value::as_u64)
                .is_some_and(|n| n >= 1),
            "{}",
            w.name
        );
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(
            keys(metrics),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{}",
            w.name
        );
        for m in &END_TO_END {
            let got = metrics.get(m.name).expect("listed");
            assert_eq!(
                got.get("unit").and_then(Value::as_str),
                Some(m.unit),
                "{} {}",
                w.name,
                m.name
            );
            let value = got.get("value").and_then(Value::as_f64).expect("a number");
            assert!(
                value > 0.0 && value.is_finite(),
                "{} {} = {value}",
                w.name,
                m.name
            );
        }
        let prov = doc.get("provenance").expect("provenance");
        for key in [
            "git_rev",
            "dirty",
            "nproc",
            "simd_backend",
            "pool_parallelism",
            "seed",
        ] {
            assert!(
                prov.get(key).is_some(),
                "{}: provenance lacks {key}",
                w.name
            );
        }

        let (line, doc) = run(w.name, true, &dir);
        assert_eq!(
            keys(&line),
            ["correct", "attempted", "failed", "metrics"],
            "{}",
            w.name
        );
        assert_eq!(
            line.get("correct"),
            Some(&Value::Bool(true)),
            "{}: {:?}",
            w.name,
            doc.get("checks")
        );
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(
            keys(metrics),
            PER_LAYER.iter().map(|l| l.name).collect::<Vec<_>>(),
            "{}",
            w.name
        );
        let measured = doc
            .get("per_layer")
            .expect("per_layer in a traced document");
        for l in PER_LAYER {
            let m = measured.get(l.name).expect("listed");
            let value = m.get("value").and_then(Value::as_f64).expect("a number");
            let samples = m.get("samples").and_then(Value::as_u64).expect("a count");
            assert!(value.is_finite(), "{} {}", w.name, l.name);
            if l.micro || l.on.contains(&w.name) {
                assert!(samples > 0, "{} did not measure {}", w.name, l.name);
            }
        }
        assert!(
            doc.get("layer_self_time")
                .is_some_and(|t| !keys(t).is_empty()),
            "{}: no span totals",
            w.name
        );
        assert!(
            doc.get("end_to_end").is_none(),
            "{}: end-to-end metrics come from the untraced run",
            w.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dirty_tree_is_refused_without_the_flag_and_bad_flags_are_errors() {
    let ladder = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_ladder"))
            .args(args)
            .output()
            .expect("ladder starts")
    };
    // The test tree is either dirty (new files) or, in a source archive, not
    // a git checkout at all; both count as dirty. A clean checkout cannot be
    // told apart from here, so only the refusal's wording is pinned when it
    // happens.
    let out = ladder(&["run", "--workload", "serve_hot", "--smoke"]);
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--allow-dirty"), "{err}");
        assert!(out.stdout.is_empty(), "a refused run prints no result");
    }
    for bad in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["compare", "a.json"],
        &["frobnicate"],
    ] {
        let out = ladder(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty());
    }
    let spec = ladder(&["spec"]);
    assert!(spec.status.success());
    let doc = fvae_obs::parse(&String::from_utf8_lossy(&spec.stdout)).expect("spec is JSON");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}
