//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --bin-dir DIR --workload mine|read|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it drives the shipped `analyze_log` / `serve_areas`
//! binaries from `--bin-dir` with the workload's seeded inputs, checks
//! every answer against oracles computed in-process, and prints the
//! end-to-end metrics. With `--trace 1` it replays the same seed's inputs
//! through each layer's public functions in-process, records spans, and
//! prints the per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` whose metric names
//! must be exactly those `BENCHMARK.json` declares for the mode. Run it
//! from the repository root through `perfbench/run.sh`, which builds
//! everything first.

#![forbid(unsafe_code)]

mod ingest;
mod inputs;
mod mine;
mod oracle;
mod program;
mod read;
mod stats;
mod trace;

use aa_util::Json;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where a run finds the binaries and keeps its scratch files.
pub struct Ctx {
    pub bin_dir: PathBuf,
    pub runs: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
}

/// What one run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    /// Operations whose answer was wrong or missing.
    pub failed: u64,
    /// False when a whole-run property (not a single answer) is violated.
    pub correct: bool,
    pub metrics: stats::Metrics,
}

struct Args {
    ctx: Ctx,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bin_dir = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds expects a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !["mine", "read", "ingest"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (mine, read, ingest)"));
    }
    Ok(Args {
        ctx: Ctx {
            bin_dir: bin_dir.ok_or("--bin-dir is required")?,
            runs: PathBuf::from("perfbench/runs"),
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
        },
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metric names and units `BENCHMARK.json` declares for one mode.
fn declared(trace: bool) -> Result<BTreeSet<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let unit = m.get("unit").and_then(Json::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("malformed {key} entry in BENCHMARK.json")),
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let want = match declared(args.trace) {
        Ok(w) => w,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = &args.ctx;
    let result = if args.trace {
        trace::run(ctx)
    } else {
        match ctx.workload.as_str() {
            "mine" => mine::run(ctx),
            "read" => read::run(ctx),
            _ => ingest::run(ctx),
        }
    };
    let outcome = match result {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("perfbench: {} failed: {msg}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    let got: BTreeSet<(String, String)> = outcome
        .metrics
        .0
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect();
    if got != want || got.len() != outcome.metrics.0.len() {
        eprintln!("perfbench: printed metrics {got:?} differ from BENCHMARK.json {want:?}");
        return ExitCode::FAILURE;
    }
    let line = Json::obj([
        ("correct".to_string(), Json::Bool(outcome.correct)),
        ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("metrics".to_string(), outcome.metrics.to_json()),
    ]);
    println!("{}", line.to_string_compact());
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
