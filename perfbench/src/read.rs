//! `read`: classify and neighbors through `serve_areas --fleet 3` (a
//! router plus three shards on loopback), closed loop on two connections:
//! each caller waits for its reply. Half the requests repeat a statement
//! warmed into the extraction caches during set-up; the other half are
//! fresh and never repeat within a run. These shares are assumptions (see
//! the README), not taken from a record of real callers.

use crate::inputs::{ReadTraffic, CACHE, SETUPS};
use crate::oracle::{answer_of, model, scan, Answer};
use crate::program::{model_args, peak_rss_mb, read_line, Conn, Program, RunDir};
use crate::stats::{median, Latency, Metrics};
use crate::{Ctx, Outcome};
use aa_util::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

struct Sample {
    index: usize,
    started: Instant,
    ms: f64,
    response: Result<Json, String>,
}

/// Closed loop on one connection: take the next request ordinal, send it,
/// wait for the answer, until the measured time is up.
fn client(
    conn: &mut Conn,
    traffic: &ReadTraffic,
    next: &AtomicUsize,
    until: Instant,
    limit: usize,
) -> Vec<Sample> {
    let mut out = Vec::new();
    while Instant::now() < until {
        let index = next.fetch_add(1, Ordering::SeqCst);
        if index >= limit {
            break;
        }
        let ((sql, _), k) = traffic.request(index);
        let line = read_line(sql, k);
        let started = Instant::now();
        let response = conn.request_json(&line);
        out.push(Sample {
            index,
            started,
            ms: started.elapsed().as_secs_f64() * 1e3,
            response,
        });
    }
    out
}

/// A fleet ready to measure: spawned, listening, and with every hot
/// statement classified once through the router, which warms all three
/// shards' extraction caches.
struct Fleet {
    program: Program,
    conns: [Conn; 2],
    setup_s: f64,
}

fn set_up(ctx: &Ctx, dir: &RunDir, traffic: &ReadTraffic, i: usize) -> Result<Fleet, String> {
    let mut args = model_args(ctx.seed);
    for extra in [
        "--fleet",
        "3",
        "--cache",
        &CACHE.to_string(),
        "--tenant-refill",
        "1",
    ] {
        args.push(extra.to_string());
    }
    let mut program = Program::spawn(
        &ctx.bin_dir.join("serve_areas"),
        &args,
        &dir.path(&format!("serve-{i}.stderr")),
    )?;
    let addr = program.wait_listening()?;
    let mut conns = [Conn::open(&addr)?, Conn::open(&addr)?];
    let warm: Vec<Result<Json, String>> = {
        let [a, b] = &mut conns;
        let hot = &traffic.hot;
        std::thread::scope(|s| {
            let half = s.spawn(|| {
                hot.iter()
                    .skip(1)
                    .step_by(2)
                    .map(|(sql, _)| b.request_json(&read_line(sql, 0)))
                    .collect::<Vec<_>>()
            });
            let mut out: Vec<_> = hot
                .iter()
                .step_by(2)
                .map(|(sql, _)| a.request_json(&read_line(sql, 0)))
                .collect();
            half.join().map(|rest| {
                out.extend(rest);
                out
            })
        })
        .map_err(|_| "warm-up client panicked")?
    };
    if warm.len() != traffic.hot.len()
        || warm.iter().any(|r| {
            r.as_ref()
                .map_or(true, |j| j.get("ok") != Some(&Json::Bool(true)))
        })
    {
        return Err("cache warm-up request failed".to_string());
    }
    let setup_s = program.spawned.elapsed().as_secs_f64();
    Ok(Fleet {
        program,
        conns,
        setup_s,
    })
}

impl Fleet {
    fn shut_down(self) -> Result<(), String> {
        let [mut a, b] = self.conns;
        a.request("{\"op\":\"shutdown\"}")?;
        drop((a, b));
        if !self.program.finish()?.success {
            return Err("serve_areas exited with an error".to_string());
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = RunDir::create(
        &ctx.runs,
        &format!("read-{}-{}", ctx.seed, std::process::id()),
    )?;
    let traffic = ReadTraffic::new(ctx.seed);
    // Set up several times and report the median; measure on the last.
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS - 1 {
        let fleet = set_up(ctx, &dir, &traffic, i)?;
        setups.push(fleet.setup_s);
        fleet.shut_down()?;
    }
    let mut fleet = set_up(ctx, &dir, &traffic, SETUPS - 1)?;
    setups.push(fleet.setup_s);
    let setup_s = median(&setups);

    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let until = start + std::time::Duration::from_secs_f64(ctx.seconds);
    let limit = traffic.capacity();
    let mut samples = {
        let [a, b] = &mut fleet.conns;
        let (traffic, next) = (&traffic, &next);
        std::thread::scope(|s| {
            let other = s.spawn(move || client(b, traffic, next, until, limit));
            let mut mine = client(a, traffic, next, until, limit);
            other.join().map(|rest| {
                mine.extend(rest);
                mine
            })
        })
        .map_err(|_| "read client panicked")?
    };
    let rss = peak_rss_mb(fleet.program.pid()).ok_or("cannot read serve_areas memory")?;
    let stopped = samples
        .iter()
        .map(|s| s.started + std::time::Duration::from_secs_f64(s.ms / 1e3))
        .max()
        .ok_or("no request completed")?;
    let span_s = stopped.duration_since(start).as_secs_f64();
    fleet.shut_down()?;

    // Check every answer against the oracle, one scan per distinct statement.
    samples.sort_by_key(|s| s.index);
    let model = model(ctx.seed);
    let mut expected: BTreeMap<(u8, usize, usize), Answer> = BTreeMap::new();
    let mut failed = 0u64;
    for s in &samples {
        let ((_, area), k) = traffic.request(s.index);
        let key = match s.index % 2 {
            0 => (0, s.index / 2 % traffic.hot.len(), k),
            _ => (1, s.index / 2, k),
        };
        let want = expected.entry(key).or_insert_with(|| scan(&model, area, k));
        let got = s.response.as_ref().ok().and_then(|j| answer_of(j, k));
        if got.as_ref() != Some(want) {
            failed += 1;
            if failed <= 3 {
                eprintln!(
                    "read: request {} answered {:?}, oracle {:?}",
                    s.index, s.response, want
                );
            }
        }
    }

    let ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let latency = Latency::of(&ms);
    let per_s = samples.len() as f64 / span_s;
    println!(
        "read: model {} areas; {} hot + {} fresh statements available; cache {} per shard",
        model.areas.len(),
        traffic.hot.len(),
        traffic.fresh.len(),
        CACHE
    );
    println!("read: {}", latency.describe("routed read"));
    println!(
        "read: attempted {}, failed {failed}; read_per_s={per_s:.2} over {span_s:.3} s; setup median {setup_s:.3} s of {setups:.3?}; peak rss {rss:.1} MiB",
        samples.len()
    );
    if samples.len() >= limit {
        println!("read: the fresh-statement pool ran out; the run stopped early");
    }
    let mut metrics = Metrics::default();
    metrics.put("setup_s", setup_s, "s");
    metrics.put("ops_per_s", per_s, "1/s");
    metrics.put("p50_ms", latency.p50_ms, "ms");
    metrics.put("tail_ms", latency.tail_ms, "ms");
    metrics.put("peak_rss_mb", rss, "MiB");
    Ok(Outcome {
        attempted: samples.len() as u64,
        failed,
        correct: true,
        metrics,
    })
}
