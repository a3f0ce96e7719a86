//! `mine`: `analyze_log` over a seeded SkyServer-shaped log file, the
//! paper's offline pipeline end to end (extract, `access(a)` ranges,
//! DBSCAN, hotspots). No socket, WAL or router is involved.

use crate::inputs::{self, MINE_LOGS};
use crate::oracle::offline_model;
use crate::program::{peak_rss_mb, Program, RunDir};
use crate::stats::{median, Latency, Metrics};
use crate::{Ctx, Outcome};
use aa_core::AccessArea;
use aa_skyserver::LogEntry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a correct analysis of the log prints, computed in-process.
struct Expected {
    entries: usize,
    pathological: usize,
    extracted: usize,
    /// Cluster id -> member count, from the kernel-path clustering.
    clusters: BTreeMap<usize, usize>,
    noise: usize,
}

fn expected(log: &[LogEntry]) -> Expected {
    let areas: Vec<AccessArea> = log.iter().filter_map(|e| inputs::extract(&e.sql)).collect();
    let extracted = areas.len();
    let model = offline_model(areas);
    let mut clusters = BTreeMap::new();
    for c in model.labels.iter().flatten() {
        *clusters.entry(*c).or_insert(0) += 1;
    }
    Expected {
        entries: log.len(),
        pathological: log.iter().filter(|e| inputs::is_pathological(e)).count(),
        extracted,
        clusters,
        noise: model.noise_count(),
    }
}

/// The figures one `analyze_log` report states.
#[derive(Default)]
struct Report {
    extracted: usize,
    total: usize,
    clusters: usize,
    noise: usize,
    members: BTreeMap<usize, usize>,
}

fn parse_report(first: &str, rest: &str) -> Option<Report> {
    let mut r = Report::default();
    let counts = first
        .strip_prefix("extracted ")?
        .split_whitespace()
        .next()?;
    let (x, y) = counts.split_once('/')?;
    r.extracted = x.parse().ok()?;
    r.total = y.parse().ok()?;
    let mut saw_summary = false;
    for line in rest.lines() {
        if let Some(s) = line.strip_prefix("DBSCAN: ") {
            let mut words = s.split_whitespace();
            r.clusters = words.next()?.parse().ok()?;
            r.noise = words.nth(1)?.parse().ok()?;
            saw_summary = true;
        } else if let Some(s) = line.strip_prefix("cluster ") {
            let (id, tail) = s.split_once(':')?;
            let size = tail.split_whitespace().next()?;
            r.members
                .insert(id.trim().parse().ok()?, size.parse().ok()?);
        }
    }
    saw_summary.then_some(r)
}

/// Every disagreement between a report and the expectation.
fn check(report: &Report, want: &Expected) -> Vec<String> {
    let mut wrong = Vec::new();
    if report.total != want.entries {
        wrong.push(format!(
            "read {} entries, log has {}",
            report.total, want.entries
        ));
    }
    if report.total - report.extracted.min(report.total) != want.pathological {
        wrong.push(format!(
            "{} failed, ground truth has {} pathological",
            report.total.saturating_sub(report.extracted),
            want.pathological
        ));
    }
    if report.extracted != want.extracted {
        wrong.push(format!(
            "extracted {}, expected {}",
            report.extracted, want.extracted
        ));
    }
    let members: usize = report.members.values().sum();
    if members + report.noise != report.extracted || report.members.len() != report.clusters {
        wrong.push("clusters and noise do not partition the extracted statements".to_string());
    }
    if report.clusters != want.clusters.len() || report.noise != want.noise {
        wrong.push(format!(
            "{} clusters / {} noise, kernel path gives {} / {}",
            report.clusters,
            report.noise,
            want.clusters.len(),
            want.noise
        ));
    }
    if report.members != want.clusters {
        wrong.push("cluster sizes differ from the kernel-path clustering".to_string());
    }
    wrong
}

/// Writes log `j` of a run to `dir` and returns it with its path.
fn write_log(dir: &RunDir, seed: u64, j: usize) -> Result<(Vec<LogEntry>, String), String> {
    let log = inputs::mine_log(inputs::derive(seed, 100 + j as u64));
    let mut text = String::new();
    for entry in &log {
        if entry.sql.contains('\n') {
            return Err("generated statement spans lines".to_string());
        }
        text.push_str(&entry.sql);
        text.push('\n');
    }
    let path = dir.path(&format!("mine-{j}.log"));
    std::fs::write(&path, text).map_err(|e| format!("write log: {e}"))?;
    Ok((log, path.display().to_string()))
}

/// One analysis: which log, the report it printed and what it cost.
struct Analysis {
    log: usize,
    report: Option<Report>,
    extracted_s: f64,
    wall_ms: f64,
    rss_mb: f64,
}

/// Runs `analyze_log` on one file, polling its memory high-water mark
/// until it exits.
fn analyze(
    bin: &Path,
    log_path: String,
    stderr: &Path,
) -> Result<(Option<Report>, f64, f64, f64), String> {
    let mut program = Program::spawn(bin, &[log_path], stderr)?;
    let pid = program.pid();
    let done = AtomicBool::new(false);
    let high = Mutex::new(0.0f64);
    let (first, extracted_at, finished) = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                if let Some(mb) = peak_rss_mb(pid) {
                    let mut h = high.lock().expect("rss poller");
                    *h = h.max(mb);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let first = program.read_until("extracted ");
        let extracted_at = program.spawned.elapsed();
        let finished = program.finish();
        done.store(true, Ordering::Relaxed);
        (first, extracted_at, finished)
    });
    let finished = finished?;
    let report = match (first, finished.success) {
        (Some(f), true) => parse_report(&f, &finished.rest),
        _ => None,
    };
    let rss = *high.lock().map_err(|_| "rss poller panicked")?;
    Ok((
        report,
        extracted_at.as_secs_f64(),
        finished.exited.as_secs_f64() * 1e3,
        rss,
    ))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = RunDir::create(
        &ctx.runs,
        &format!("mine-{}-{}", ctx.seed, std::process::id()),
    )?;
    let bin = ctx.bin_dir.join("analyze_log");
    let stderr = dir.path("analyze_log.stderr");

    // A fixed set of seeded logs, so a heavy statement mix in one of them
    // weighs little. The run analyses the whole set in cycles until the
    // measured time has passed: a faster program repeats the same logs.
    let logs = (0..MINE_LOGS)
        .map(|j| write_log(&dir, ctx.seed, j))
        .collect::<Result<Vec<_>, _>>()?;
    let mut runs: Vec<Analysis> = Vec::new();
    let started = Instant::now();
    while runs.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
        for (j, (_, path)) in logs.iter().enumerate() {
            let (report, extracted_s, wall_ms, rss_mb) = analyze(&bin, path.clone(), &stderr)?;
            runs.push(Analysis {
                log: j,
                report,
                extracted_s,
                wall_ms,
                rss_mb,
            });
        }
    }

    let want: Vec<Expected> = logs.iter().map(|(log, _)| expected(log)).collect();
    let mut failed = 0;
    for run in &runs {
        let wrong = match &run.report {
            Some(r) => check(r, &want[run.log]),
            None => vec!["analyze_log failed or printed no report".to_string()],
        };
        if !wrong.is_empty() {
            failed += 1;
            eprintln!(
                "mine: log {}: wrong analysis: {}",
                run.log,
                wrong.join("; ")
            );
        }
    }
    let wall_ms: Vec<f64> = runs.iter().map(|r| r.wall_ms).collect();
    let setup_s: Vec<f64> = runs.iter().map(|r| r.extracted_s).collect();
    let rss: Vec<f64> = runs.iter().map(|r| r.rss_mb).collect();
    let statements: usize = runs.iter().map(|r| want[r.log].entries).sum();
    let per_s = statements as f64 / (wall_ms.iter().sum::<f64>() / 1e3);
    let latency = Latency::of(&wall_ms);
    println!(
        "mine: {MINE_LOGS} logs of {} entries each ({} pathological in all), {} cycles",
        inputs::MINE_STATEMENTS,
        want.iter().map(|w| w.pathological).sum::<usize>(),
        runs.len() / MINE_LOGS
    );
    println!("mine: {}", latency.describe("analysis wall time"));
    println!(
        "mine: attempted {} analyses, failed {failed}; mine_stmts_per_s={per_s:.1}; spawn to extraction report median {:.4} s",
        runs.len(),
        median(&setup_s)
    );
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_s), "s");
    metrics.put("ops_per_s", per_s, "1/s");
    metrics.put("p50_ms", latency.p50_ms, "ms");
    metrics.put("tail_ms", latency.tail_ms, "ms");
    metrics.put("peak_rss_mb", median(&rss), "MiB");
    Ok(Outcome {
        attempted: runs.len() as u64,
        failed,
        correct: true,
        metrics,
    })
}
