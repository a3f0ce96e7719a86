//! `ingest`: durable ingest into one `serve_areas --window --compact-every
//! --wal-dir --store` server. One connection sends a fixed count of keyed
//! ingests in a closed loop and a `reload` after every compaction, so each
//! run does the same compactions, publishes and reloads; a second
//! connection sends a read beside every few ingests, each timed from when
//! it was due, so read latency shows what ingest and compaction take from
//! them. The reads are checked and printed but not scored: their tail
//! ranged from 0.7 to 4.9 ms between runs of one build, too wide for any
//! bound.

use crate::inputs::{
    IngestTraffic, COMPACT_EVERY, INGESTS, INGEST_READS, INGEST_READ_EVERY, SETUPS, WINDOW,
};
use crate::oracle::{answer_of, offline_model};
use crate::program::{ingest_line, model_args, peak_rss_mb, read_line, Conn, Program, RunDir};
use crate::stats::{median, Latency, Metrics};
use crate::{Ctx, Outcome};
use aa_util::Json;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver};
use std::time::Instant;

fn flag(j: &Json, key: &str) -> bool {
    j.get(key) == Some(&Json::Bool(true))
}

fn number(j: &Json, key: &str) -> Option<u64> {
    j.get(key).and_then(Json::as_f64).map(|v| v as u64)
}

/// Ingest acknowledgements and the reloads that follow compactions.
#[derive(Default)]
struct Feed {
    ms: Vec<f64>,
    compact_ms: Vec<f64>,
    reload_ms: Vec<f64>,
    /// Ingests not acknowledged as absorbed exactly once, and reloads that
    /// did not install the generation just published.
    wrong: u64,
    compactions: u64,
    /// Compactions off their expected position or generation.
    misplaced: u64,
}

impl Feed {
    /// Sends ingest `ordinal` (0-based over set-up and measured ingests)
    /// and the reload its compaction calls for.
    fn send(&mut self, conn: &mut Conn, sql: &str, ordinal: usize) -> Result<(), String> {
        let started = Instant::now();
        let ack = conn.request_json(&ingest_line(sql, &format!("k{ordinal}")))?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.ms.push(ms);
        if !flag(&ack, "ok") || !flag(&ack, "absorbed") || ack.get("duplicate").is_some() {
            self.wrong += 1;
            eprintln!(
                "ingest: {ordinal} not absorbed once: {}",
                ack.to_string_compact()
            );
        }
        let due = (ordinal + 1).is_multiple_of(COMPACT_EVERY);
        if !flag(&ack, "compacted") {
            self.misplaced += u64::from(due);
            return Ok(());
        }
        self.compactions += 1;
        self.compact_ms.push(ms);
        // The store holds the seeding model as generation 1.
        let generation = number(&ack, "generation");
        if !due || generation != Some(1 + self.compactions) {
            self.misplaced += 1;
        }
        let started = Instant::now();
        let reload = conn.request_json("{\"op\":\"reload\"}")?;
        self.reload_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if !flag(&reload, "ok") || number(&reload, "generation") != generation {
            self.wrong += 1;
            eprintln!(
                "ingest: reload after {ordinal}: {}",
                reload.to_string_compact()
            );
        }
        Ok(())
    }
}

/// Open loop: a read is due whenever the feed sends another
/// `INGEST_READ_EVERY` ingests; its latency runs from that moment. Returns
/// (latency ms, answered, sent late ms) per read.
fn reader(
    conn: &mut Conn,
    reads: &[(String, usize)],
    due: Receiver<Instant>,
) -> Vec<(f64, bool, f64)> {
    let mut out = Vec::with_capacity(reads.len());
    for (sql, k) in reads {
        let Ok(due) = due.recv() else { break };
        let late = due.elapsed().as_secs_f64() * 1e3;
        let response = conn.request_json(&read_line(sql, *k));
        let ms = due.elapsed().as_secs_f64() * 1e3;
        let ok = response.ok().and_then(|j| answer_of(&j, *k)).is_some();
        out.push((ms, ok, late));
    }
    out
}

/// A server ready to measure: spawned with fresh store and WAL
/// directories, then brought by one compaction's worth of ingests from the
/// seeding model down to its steady window, and reloaded.
struct Server {
    program: Program,
    feed: Conn,
    read: Conn,
    store: PathBuf,
    setup_s: f64,
}

fn set_up(ctx: &Ctx, dir: &RunDir, traffic: &IngestTraffic, i: usize) -> Result<Server, String> {
    let store = dir.path(&format!("store-{i}"));
    let mut args = model_args(ctx.seed);
    for extra in [
        "--store",
        &store.display().to_string(),
        "--wal-dir",
        &dir.path(&format!("wal-{i}")).display().to_string(),
        "--window",
        &WINDOW.to_string(),
        "--compact-every",
        &COMPACT_EVERY.to_string(),
        // Far above the offered load: the default 60 a minute per
        // connection would shed the feed.
        "--rate",
        "1000000000",
    ] {
        args.push(extra.to_string());
    }
    let mut program = Program::spawn(
        &ctx.bin_dir.join("serve_areas"),
        &args,
        &dir.path(&format!("serve-{i}.stderr")),
    )?;
    let addr = program.wait_listening()?;
    let mut feed = Conn::open(&addr)?;
    let read = Conn::open(&addr)?;
    let mut setup = Feed::default();
    for (ordinal, (sql, _)) in traffic.ingests[..COMPACT_EVERY].iter().enumerate() {
        setup.send(&mut feed, sql, ordinal)?;
    }
    if setup.wrong > 0 || setup.misplaced > 0 || setup.compactions != 1 {
        return Err("set-up compaction did not happen as expected".to_string());
    }
    let setup_s = program.spawned.elapsed().as_secs_f64();
    Ok(Server {
        program,
        feed,
        read,
        store,
        setup_s,
    })
}

impl Server {
    fn shut_down(mut self) -> Result<(), String> {
        self.feed.request("{\"op\":\"shutdown\"}")?;
        drop((self.feed, self.read));
        if !self.program.finish()?.success {
            return Err("serve_areas exited with an error".to_string());
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = RunDir::create(
        &ctx.runs,
        &format!("ingest-{}-{}", ctx.seed, std::process::id()),
    )?;
    let traffic = IngestTraffic::new(ctx.seed);
    if traffic.ingests.len() < COMPACT_EVERY + INGESTS || traffic.reads.len() < INGEST_READS {
        return Err("not enough ingest statements".to_string());
    }
    // Set up several times and report the median; measure on the last.
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS - 1 {
        let server = set_up(ctx, &dir, &traffic, i)?;
        setups.push(server.setup_s);
        server.shut_down()?;
    }
    let mut server = set_up(ctx, &dir, &traffic, SETUPS - 1)?;
    setups.push(server.setup_s);
    let setup_s = median(&setups);

    let (feed, reads) = {
        let (feed_conn, read_conn) = (&mut server.feed, &mut server.read);
        let reads = &traffic.reads;
        let (due, due_rx) = channel();
        std::thread::scope(|s| {
            let reader = s.spawn(move || reader(read_conn, reads, due_rx));
            // The set-up's one compaction is already counted.
            let mut feed = Feed {
                compactions: 1,
                ..Feed::default()
            };
            let mut result = Ok(());
            for (j, (sql, _)) in traffic.ingests[COMPACT_EVERY..].iter().enumerate() {
                if j.is_multiple_of(INGEST_READ_EVERY) {
                    let _ = due.send(Instant::now());
                }
                result = feed.send(feed_conn, sql, COMPACT_EVERY + j);
                if result.is_err() {
                    break;
                }
            }
            drop(due);
            let reads = reader.join().map_err(|_| "reader panicked".to_string());
            (result.map(|()| feed), reads)
        })
    };
    let feed = feed?;
    let reads = reads?;
    let rss = peak_rss_mb(server.program.pid()).ok_or("cannot read serve_areas memory")?;
    let store = server.store.clone();
    server.shut_down()?;

    // Whole-run properties: the compaction count, and the newest published
    // generation equals clustering the last `WINDOW` ingested areas offline.
    let measured_compactions = feed.compactions - 1;
    let mut correct =
        measured_compactions == (INGESTS / COMPACT_EVERY) as u64 && feed.misplaced == 0;
    if !correct {
        eprintln!(
            "ingest: {measured_compactions} compactions, {} misplaced",
            feed.misplaced
        );
    }
    let window = &traffic.ingests[traffic.ingests.len() - WINDOW..];
    let offline = offline_model(window.iter().map(|(_, a)| a.clone()).collect());
    let newest = aa_serve::ModelStore::open(&store)
        .and_then(|s| s.recover())
        .map_err(|e| e.to_string())?
        .loaded;
    match newest {
        Some((g, model))
            if g == 1 + feed.compactions && model.content_hash() == offline.content_hash() => {}
        other => {
            correct = false;
            eprintln!(
                "ingest: newest generation {:?} does not equal the offline clustering of the last {WINDOW} areas",
                other.map(|(g, m)| (g, m.content_hash()))
            );
        }
    }

    let read_ms: Vec<f64> = reads.iter().map(|r| r.0).collect();
    let read_failed =
        (INGEST_READS - reads.len()) as u64 + reads.iter().filter(|r| !r.1).count() as u64;
    let late = reads.iter().map(|r| r.2).fold(0.0, f64::max);
    let ingest = Latency::of(&feed.ms);
    let reads_lat = Latency::of(&read_ms);
    // Throughput to the acknowledgement: the reloads the feed sends after
    // compactions are timed apart (printed below, and part of `setup_s`).
    let ack_s = feed.ms.iter().sum::<f64>() / 1e3;
    let per_s = INGESTS as f64 / ack_s;
    println!(
        "ingest: window {WINDOW}, compact every {COMPACT_EVERY} ({:.2}% of ingests compact), {INGESTS} measured ingests, a read beside every {INGEST_READ_EVERY}th ({} reads)",
        100.0 / COMPACT_EVERY as f64,
        reads.len()
    );
    println!("ingest: {}", ingest.describe("ingest to ack"));
    println!(
        "ingest: compactions {measured_compactions}: {}; reloads: {}",
        Latency::of(&feed.compact_ms).describe("compacting ingest"),
        Latency::of(&feed.reload_ms).describe("reload")
    );
    println!(
        "ingest: {}; the generator ran at most {late:.3} ms late",
        reads_lat.describe("read beside ingest (from due time)")
    );
    println!(
        "ingest: attempted {} ingests + {} reloads + {} reads, failed {}; ingest_per_s={per_s:.2} over {ack_s:.3} s of acknowledgements; setup median {setup_s:.3} s of {setups:.3?}; peak rss {rss:.1} MiB",
        feed.ms.len(),
        feed.reload_ms.len(),
        reads.len(),
        feed.wrong + read_failed
    );
    let mut metrics = Metrics::default();
    metrics.put("setup_s", setup_s, "s");
    metrics.put("ops_per_s", per_s, "1/s");
    metrics.put("p50_ms", ingest.p50_ms, "ms");
    metrics.put("tail_ms", ingest.tail_ms, "ms");
    metrics.put("peak_rss_mb", rss, "MiB");
    Ok(Outcome {
        attempted: (feed.ms.len() + feed.reload_ms.len() + INGEST_READS) as u64,
        failed: feed.wrong + read_failed,
        correct,
        metrics,
    })
}
