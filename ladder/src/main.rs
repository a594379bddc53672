//! The `ladder` command. See the crate documentation and `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use fvae_ladder::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use fvae_ladder::report::{self, Provenance, RunId};
use fvae_ladder::{compare, run_workload, RunCfg};
use fvae_obs::JsonObj;

const USAGE: &str = "\
usage:
  ladder run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--traced]
             [--reps R] [--smoke] [--allow-dirty] [--out FILE]
      With --workload: run that workload in this process and end standard
      output with one JSON line (end-to-end metrics, or per-layer metrics
      with --trace 1). Without: run every workload, each in a fresh process,
      R times with seeds S, S+1, …; --traced adds a traced run of each. One
      JSON document goes to FILE (default: ladder-out/ beside the binary).
      A dirty or unknown git tree is refused unless --allow-dirty.
  ladder compare A.json B.json [--bench BENCHMARK.json]
      One row per (metric, workload): same / worse / unresolved. Exit 1 if
      any row is worse.
  ladder spec
      Print BENCHMARK.json as the catalogue defines it.
workloads: train_sparse train_dense stream_publish serve_hot fleet_cold";

/// Seconds one run measures unless told otherwise; `BENCHMARK.json` says
/// the same.
const RUN_SECONDS: u64 = 18;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    reps: u64,
    smoke: bool,
    allow_dirty: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        reps: 1,
        smoke: false,
        allow_dirty: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !catalog::is_workload(w) {
                    return Err(format!("unknown workload '{w}'"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => a.traced = true,
            "--reps" => a.reps = value()?.parse().map_err(|e| format!("--reps: {e}"))?,
            "--smoke" => a.smoke = true,
            "--allow-dirty" => a.allow_dirty = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if a.smoke && !seconds_given {
        a.seconds = 2.0;
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be within (0, 60]".into());
    }
    Ok(a)
}

/// The directory the binary sits in: inside the cargo target directory, so
/// everything written beside it is inside the checkout and ignored by git.
fn exe_dir() -> Result<PathBuf, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the ladder binary: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "the ladder binary has no directory".into())
}

fn default_out(name: &str) -> Result<PathBuf, String> {
    let dir = exe_dir()?.join("ladder-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(name))
}

/// One workload in this process. Has a result (and exit code 0) whenever
/// every metric was measured; whether the run was *correct* is a field of
/// that result.
fn run_one(a: &RunArgs, workload: &str, prov: &Provenance) -> Result<(), String> {
    let id = RunId {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
    };
    let tag = format!(
        "{workload}-{}{}",
        a.seed,
        if a.traced { "-traced" } else { "" }
    );
    let work_dir = exe_dir()?
        .join("ladder-work")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let out_path = match &a.out {
        Some(p) => p.clone(),
        None => default_out(&format!("{tag}.json"))?,
    };
    let cfg = RunCfg {
        id: id.clone(),
        smoke: a.smoke,
        work_dir: work_dir.clone(),
        setup_reps: if a.smoke { 1 } else { 3 },
        spans_out: a.traced.then(|| out_path.with_extension("spans.jsonl")),
    };
    let result = run_workload(&cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    let out = result?;
    print!("{}", report::render_table(&id, prov, &out));
    // A run that could not measure an end-to-end metric has no result.
    let line = report::contract_line(&id, &out)?;
    let doc = report::run_json(&id, prov, &out)?;
    std::fs::write(&out_path, doc + "\n").map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("document: {}", out_path.display());
    println!("{line}");
    Ok(())
}

/// Every workload, each in a fresh process of this binary, `reps` times;
/// one merged document.
fn run_all(a: &RunArgs, prov: &Provenance) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut docs = Vec::new();
    let mut all_correct = true;
    for rep in 0..a.reps {
        let seed = a.seed + rep;
        for w in &WORKLOADS {
            for traced in [false, true] {
                if traced && !a.traced {
                    continue;
                }
                // A traced part leaves its spans beside it; those stay.
                let part = default_out(&format!(
                    "{}-{seed}{}.part.json",
                    w.name,
                    if traced { "-traced" } else { "" }
                ))?;
                let mut cmd = Command::new(&exe);
                cmd.args(["run", "--workload", w.name, "--allow-dirty"])
                    .args([
                        "--seed",
                        &seed.to_string(),
                        "--seconds",
                        &a.seconds.to_string(),
                    ])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&part);
                if a.smoke {
                    cmd.arg("--smoke");
                }
                let status = cmd
                    .status()
                    .map_err(|e| format!("cannot start {}: {e}", w.name))?;
                if !status.success() {
                    return Err(format!("{} (seed {seed}) ended with {status}", w.name));
                }
                let doc = std::fs::read_to_string(&part)
                    .map_err(|e| format!("{}: {e}", part.display()))?;
                all_correct &= fvae_obs::parse(&doc)
                    .map_err(|e| format!("{}: {e}", part.display()))?
                    .get("correct")
                    == Some(&fvae_obs::Value::Bool(true));
                docs.push(doc.trim().to_string());
                let _ = std::fs::remove_file(&part);
            }
        }
    }
    let mut o = JsonObj::new();
    o.u64("ladder", 1);
    o.obj("provenance", |p| {
        prov.write_json(p);
        p.u64("seed", a.seed)
            .u64("reps", a.reps)
            .f64("seconds", a.seconds);
    });
    o.raw_arr("runs", &docs);
    let out_path = match &a.out {
        Some(p) => p.clone(),
        None => default_out(&format!("ladder-{}.json", a.seed))?,
    };
    std::fs::write(&out_path, o.finish() + "\n")
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("document: {} ({} runs)", out_path.display(), docs.len());
    Ok(all_correct)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let prov = Provenance::capture();
    if prov.dirty && !a.allow_dirty {
        return Err(format!(
            "the working tree is dirty or not a git checkout (rev {}); commit first, or pass --allow-dirty to stamp the numbers as dirty",
            prov.git_rev
        ));
    }
    match &a.workload {
        Some(w) => run_one(&a, w, &prov)?,
        // A full run is for people and CI: fail it when any run was wrong.
        None if !run_all(&a, &prov)? => return Ok(ExitCode::from(3)),
        None => {}
    }
    Ok(ExitCode::SUCCESS)
}

fn read_json(path: &str) -> Result<fvae_obs::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    fvae_obs::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench" {
            bench = it.next().ok_or("--bench needs a value")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare takes exactly two documents".into());
    };
    let bounds = compare::bounds_from(&read_json(&bench)?)?;
    let rows = compare::compare(
        &compare::values_from(&read_json(a)?)?,
        &compare::values_from(&read_json(b)?)?,
        &bounds,
    );
    print!("{}", compare::render(&rows));
    let worse = rows.iter().any(|r| r.verdict == compare::Verdict::Worse);
    Ok(if worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// `BENCHMARK.json`, from the catalogue.
fn spec() -> String {
    let obj = |f: &dyn Fn(&mut JsonObj)| {
        let mut o = JsonObj::new();
        f(&mut o);
        o.finish()
    };
    let command: Vec<String> = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "ladder/Cargo.toml",
        "--",
        "run",
        "--allow-dirty",
    ]
    .iter()
    .map(|s| format!("\"{s}\""))
    .collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            obj(&|o| {
                o.str("name", w.name).str("why", w.why);
            })
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            obj(&|o| {
                o.str("name", m.name)
                    .str("unit", m.unit)
                    .str("better", m.better.as_str())
                    .f64("bound", m.bound);
            })
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|l| {
            obj(&|o| {
                o.str("name", l.name)
                    .str("unit", l.unit)
                    .str("better", l.better.as_str());
            })
        })
        .collect();
    let list = |items: &[String]| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"ladder\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(&workloads),
        list(&e2e),
        list(&layers)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("spec") => {
            print!("{}", spec());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ladder: {e}");
        ExitCode::from(2)
    })
}
