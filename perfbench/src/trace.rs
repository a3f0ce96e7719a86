//! The traced run: the seed's inputs of all three workloads replayed
//! through each layer's public functions in-process, with spans kept in
//! memory and written out when the run ends. Every traced run prints the
//! whole per-layer set, whichever workload it is named for; `README.md`
//! maps each metric to the end-to-end metric and workload it should move.

use crate::inputs::{
    self, IngestTraffic, ReadTraffic, CACHE, COMPACT_EVERY, EPS, INGESTS, MINE_LOGS,
    MINE_STATEMENTS, MIN_PTS, MODE, WINDOW,
};
use crate::oracle::{answer_of, model, scan};
use crate::program::{read_line, Conn, RunDir};
use crate::stats::{median, Metrics};
use crate::{Ctx, Outcome};
use aa_core::{
    AccessArea, AccessRanges, ClusteredModel, DistanceKernel, Extractor, NoSchema, QueryDistance,
};
use aa_dbscan::{dbscan, DbscanParams};
use aa_evolve::{EvolveCheckpoint, EvolveConfig, IncrementalDbscan};
use aa_serve::{
    ModelState, ModelStore, RetryingClient, RouterConfig, RouterEngine, SegmentWal, ServeEngine,
    ServerConfig, ShardSpec, TenantPolicy,
};
use aa_util::{Json, ToJson};
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Routed requests replayed over the sockets (each pays the shard links'
/// waits, so a few dozen give a steady median).
const NET_REQUESTS: usize = 24;
/// Requests replayed against the in-process shard engines.
const ENGINE_REQUESTS: usize = 256;
/// Query batches timed for the per-call distance figures.
const DISTANCE_BATCHES: usize = 64;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    rid: u64,
}

/// In-memory span recorder. `span` nests: spans opened inside the closure
/// record the enclosing one as their parent.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn span<T>(&mut self, name: &'static str, rid: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            rid,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Duration of the most recently closed span, in nanoseconds.
    fn last_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64)
    }

    /// Median duration of every span named `name`, in nanoseconds.
    fn median_ns(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?,
        );
        for s in &self.spans {
            let line = Json::obj([
                ("name".to_string(), Json::Str(s.name.to_string())),
                ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("rid".to_string(), Json::Num(s.rid as f64)),
            ]);
            writeln!(out, "{}", line.to_string_compact()).map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }
}

/// Times `distance(i, j)` over every `j` for a few `i`, one span per batch,
/// and returns the median nanoseconds per call.
fn per_call_ns(
    t: &mut Tracer,
    name: &'static str,
    n: usize,
    distance: impl Fn(usize, usize) -> f64,
) -> f64 {
    let mut per_call = Vec::new();
    for i in (0..n)
        .step_by((n / DISTANCE_BATCHES).max(1))
        .take(DISTANCE_BATCHES)
    {
        t.span(name, i as u64, |_| {
            for j in 0..n {
                black_box(distance(black_box(i), j));
            }
        });
        per_call.push(t.last_ns(name) / n as f64);
    }
    median(&per_call)
}

/// The `mine` layers over each of the run's logs, called the way
/// `analyze_log` calls them. Figures are medians over the logs, like the
/// end-to-end `p50_ms`.
fn mine(t: &mut Tracer, m: &mut Metrics, seed: u64) {
    let extractor = Extractor::new(&NoSchema);
    let (mut distance_ns, mut calls_per_log) = (Vec::new(), Vec::new());
    for j in 0..MINE_LOGS {
        let log = inputs::mine_log(inputs::derive(seed, 100 + j as u64));
        let mut areas: Vec<AccessArea> = Vec::new();
        for (i, entry) in log.iter().enumerate() {
            let rid = (j * MINE_STATEMENTS + i) as u64;
            let area = t.span("pipeline.extract", rid, |t| {
                let select = t
                    .span("sql.parse", rid, |_| aa_sql::parse_select(&entry.sql))
                    .ok()?;
                let lowered = t
                    .span("core.lower", rid, |_| extractor.lower(&select))
                    .ok()?;
                let (converted, _) = t.span("core.cnf", rid, |_| extractor.convert(lowered));
                Some(t.span("core.consolidate", rid, |_| {
                    extractor.consolidate(converted)
                }))
            });
            areas.extend(area);
        }
        let mut ranges = AccessRanges::new();
        ranges.observe_all(areas.iter());
        ranges.apply_doubling();
        let metric = QueryDistance::with_mode(&ranges, MODE);
        distance_ns.push(per_call_ns(t, "core.distance", areas.len(), |i, k| {
            metric.distance(&areas[i], &areas[k])
        }));
        let calls = AtomicU64::new(0);
        let params = DbscanParams {
            eps: EPS,
            min_pts: MIN_PTS,
        };
        let rid = j as u64;
        let result = t.span("dbscan.cluster", rid, |_| {
            dbscan(&areas, &params, |a, b| {
                calls.fetch_add(1, Ordering::Relaxed);
                metric.distance(a, b)
            })
        });
        calls_per_log.push(calls.load(Ordering::Relaxed) as f64);
        t.span("hotspot.aggregate", rid, |_| {
            for (cid, members) in result.clusters().into_iter().enumerate() {
                let member_areas: Vec<&AccessArea> = members.iter().map(|&i| &areas[i]).collect();
                let agg = aa_bench::aggregate_cluster(cid, &member_areas);
                black_box(aa_bench::density_contrast(&agg, &areas, &ranges, 3.0));
            }
        });
    }
    m.put("sql.parse_us", t.median_ns("sql.parse") / 1e3, "us");
    m.put("core.lower_us", t.median_ns("core.lower") / 1e3, "us");
    m.put("core.cnf_us", t.median_ns("core.cnf") / 1e3, "us");
    m.put(
        "core.consolidate_us",
        t.median_ns("core.consolidate") / 1e3,
        "us",
    );
    m.put("core.distance_ns", median(&distance_ns), "ns");
    m.put("dbscan.cluster_s", t.median_ns("dbscan.cluster") / 1e9, "s");
    m.put("dbscan.distance_calls", median(&calls_per_log), "count");
    m.put(
        "hotspot.aggregate_ms",
        t.median_ns("hotspot.aggregate") / 1e6,
        "ms",
    );
}

/// Model set-up, shared by `read` and `ingest`.
fn setup(t: &mut Tracer, m: &mut Metrics, seed: u64) -> ClusteredModel {
    let model = t.span("model.build", 0, |_| model(seed));
    m.put("model.build_s", t.last_ns("model.build") / 1e9, "s");
    let kernel = t.span("kernel.build", 0, |_| {
        DistanceKernel::build(&model.areas, &model.ranges, model.mode)
    });
    m.put("kernel.build_ms", t.last_ns("kernel.build") / 1e6, "ms");
    let ns = per_call_ns(t, "kernel.distance", model.areas.len(), |i, j| {
        kernel.distance(i, j)
    });
    m.put("kernel.distance_ns", ns, "ns");
    let state = t.span("engine.state_build", 0, |_| {
        ModelState::build(model.clone(), 0)
    });
    black_box(&state);
    m.put(
        "engine.state_build_ms",
        t.last_ns("engine.state_build") / 1e6,
        "ms",
    );
    model
}

fn shard_engine(model: &ClusteredModel, shard: usize) -> ServeEngine {
    ServeEngine::new_sharded(
        model.clone(),
        CACHE,
        Some(10_000_000),
        Some(ShardSpec { shard, of: 3 }),
    )
}

/// The `read` layers: the shard engines in-process, then the same
/// engines behind live sockets with the router in front.
fn read(t: &mut Tracer, m: &mut Metrics, seed: u64, model: &ClusteredModel) -> Result<u64, String> {
    let traffic = ReadTraffic::new(seed);
    let engines: Vec<ServeEngine> = (0..3).map(|s| shard_engine(model, s)).collect();
    for (sql, _) in &traffic.hot {
        for e in &engines {
            black_box(e.classify(sql));
        }
    }
    let before: Vec<_> = engines.iter().map(ServeEngine::cache_stats).collect();
    let (mut hit, mut miss, mut neighbors) = (Vec::new(), Vec::new(), Vec::new());
    let (mut evaluated, mut pruned, mut knn_calls) = (0u64, 0u64, 0u64);
    for i in 0..ENGINE_REQUESTS.min(traffic.capacity()) {
        let ((sql, area), k) = traffic.request(i);
        let rid = i as u64;
        t.span("sql.fingerprint", rid, |_| {
            black_box(aa_sql::fingerprint(sql))
        });
        for e in &engines {
            let (name, response) = if k == 0 {
                (
                    "engine.classify",
                    t.span("engine.classify", rid, |_| e.classify(sql)),
                )
            } else {
                (
                    "engine.neighbors",
                    t.span("engine.neighbors", rid, |_| e.neighbors(sql, k)),
                )
            };
            let us = t.last_ns(name) / 1e3;
            let was_hit = response.get("cache").and_then(Json::as_str) == Some("hit");
            match (k, was_hit) {
                (0, true) => hit.push(us),
                (0, false) => miss.push(us),
                (_, true) => neighbors.push(us),
                _ => {}
            }
            // The engine's own flatten and knn calls are private; these
            // repeat them with the same arguments on the same state.
            let state = e.current();
            let flat = t.span("kernel.flatten", rid, |_| state.kernel.flatten(area));
            let (_, evals) = t.span("index.knn", rid, |_| {
                state.index.knn(
                    k.max(1),
                    |l| state.kernel.d_tables_to(&flat, state.owned[l]),
                    |l| state.kernel.distance_to(&flat, state.owned[l]),
                )
            });
            evaluated += evals as u64;
            pruned += (state.owned.len() - evals) as u64;
            knn_calls += 1;
        }
    }
    let after: Vec<_> = engines.iter().map(ServeEngine::cache_stats).collect();
    let hits: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.hits - b.hits)
        .sum();
    let misses: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.misses - b.misses)
        .sum();
    m.put("engine.classify_hit_us", median(&hit), "us");
    m.put("engine.classify_miss_us", median(&miss), "us");
    m.put("engine.neighbors_us", median(&neighbors), "us");
    m.put(
        "sql.fingerprint_us",
        t.median_ns("sql.fingerprint") / 1e3,
        "us",
    );
    m.put(
        "kernel.flatten_us",
        t.median_ns("kernel.flatten") / 1e3,
        "us",
    );
    m.put("index.knn_us", t.median_ns("index.knn") / 1e3, "us");
    m.put(
        "index.evaluated",
        evaluated as f64 / knn_calls as f64,
        "count",
    );
    m.put("index.pruned", pruned as f64 / knn_calls as f64, "count");
    m.put("cache.hits", hits as f64, "count");
    m.put("cache.misses", misses as f64, "count");
    net(t, m, &traffic, engines, model)
}

/// Sockets: one whole-line request to one shard, the shared retrying
/// client to one shard, and the router's fan-out over all three.
fn net(
    t: &mut Tracer,
    m: &mut Metrics,
    traffic: &ReadTraffic,
    engines: Vec<ServeEngine>,
    model: &ClusteredModel,
) -> Result<u64, String> {
    let mut handles = Vec::new();
    for engine in engines {
        let config = ServerConfig {
            cache_capacity: CACHE,
            fuel: Some(10_000_000),
            per_minute: 1_000_000,
            ..ServerConfig::default()
        };
        handles.push(aa_serve::spawn(engine, config).map_err(|e| format!("spawn shard: {e}"))?);
    }
    let addrs: Vec<String> = handles.iter().map(|h| h.local_addr().to_string()).collect();
    let router = RouterEngine::new(RouterConfig {
        backends: addrs.clone(),
        tenant: Some(TenantPolicy {
            refill_per_request: 1.0,
            ..TenantPolicy::default()
        }),
        ..RouterConfig::default()
    });
    let mut conns = addrs
        .iter()
        .map(|a| Conn::open(a))
        .collect::<Result<Vec<_>, _>>()?;
    let mut retrying = RetryingClient::new(addrs[0].clone(), 0, 0, 0).with_quiet(true);
    let mut wrong = 0;
    for i in 0..NET_REQUESTS.min(traffic.capacity()) {
        let ((sql, area), k) = traffic.request(i);
        let line = read_line(sql, k);
        let rid = i as u64;
        let (routed, _) = t.span("router.request", rid, |_| router.handle_line(&line));
        if answer_of(&routed, k) != Some(scan(model, area, k)) {
            wrong += 1;
        }
        t.span("client.exchange", rid, |_| retrying.request(&line))?;
        let mut parts = Vec::new();
        for (s, conn) in conns.iter_mut().enumerate() {
            let name = if s == 0 {
                "server.roundtrip"
            } else {
                "server.roundtrip.other"
            };
            parts.push(t.span(name, rid, |_| conn.request_json(&line))?);
        }
        t.span("router.merge", rid, |_| {
            if k == 0 {
                let candidates: Vec<(usize, f64, Json)> = parts
                    .iter()
                    .filter_map(|j| {
                        Some((
                            j.get("nearest")?.as_f64()? as usize,
                            j.get("distance")?.as_f64()?,
                            j.get("cluster").cloned().unwrap_or(Json::Null),
                        ))
                    })
                    .collect();
                black_box(aa_serve::router::classify_fields(&candidates));
            } else {
                let lists = parts
                    .iter()
                    .filter_map(|j| {
                        j.get("neighbors")
                            .and_then(Json::as_arr)
                            .map(<[Json]>::to_vec)
                    })
                    .collect();
                black_box(aa_serve::router::neighbors_fields(lists, k));
            }
        });
    }
    m.put(
        "router.request_ms",
        t.median_ns("router.request") / 1e6,
        "ms",
    );
    m.put(
        "client.exchange_ms",
        t.median_ns("client.exchange") / 1e6,
        "ms",
    );
    m.put(
        "server.roundtrip_ms",
        t.median_ns("server.roundtrip") / 1e6,
        "ms",
    );
    m.put("router.merge_us", t.median_ns("router.merge") / 1e3, "us");
    drop(conns);
    drop(retrying);
    router.shutdown_backends();
    for h in handles {
        h.shutdown();
    }
    Ok(wrong)
}

/// The checkpoint a serving engine writes into the segment it rotates to
/// after publishing generation `generation`, field for field, for a
/// single-shard engine that has absorbed `absorbed` ingests without a
/// failed publish or a duplicate.
fn checkpoint(generation: u64, absorbed: u64, ecp: &EvolveCheckpoint) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let stats = &ecp.stats;
    Json::obj([
        ("generation".to_string(), num(generation)),
        ("published".to_string(), num(generation)),
        ("publish_failed".to_string(), num(0)),
        ("absorbed".to_string(), num(absorbed)),
        ("not_owned".to_string(), num(0)),
        ("deduped".to_string(), num(0)),
        ("now".to_string(), num(ecp.now)),
        (
            "stats".to_string(),
            Json::obj([
                ("ingested".to_string(), num(stats.ingested)),
                ("births".to_string(), num(stats.births)),
                ("deaths".to_string(), num(stats.deaths)),
                ("merges".to_string(), num(stats.merges)),
                ("turnover".to_string(), num(stats.turnover)),
                ("compactions".to_string(), num(stats.compactions)),
                ("index_rebuilds".to_string(), num(stats.index_rebuilds)),
                (
                    "neighborhood_queries".to_string(),
                    num(stats.neighborhood_queries),
                ),
                (
                    "distance_evaluated".to_string(),
                    num(stats.distance_evaluated),
                ),
            ]),
        ),
        (
            "ticks".to_string(),
            Json::Arr(ecp.ticks.iter().map(|&t| num(t)).collect()),
        ),
    ])
}

fn file_len(path: &std::path::Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// The `ingest` layers: the engine's ingest and reload, then the
/// maintainer, the model store and the WAL on their own.
fn ingest(
    t: &mut Tracer,
    m: &mut Metrics,
    seed: u64,
    model: &ClusteredModel,
    dir: &RunDir,
) -> Result<u64, String> {
    let traffic = IngestTraffic::new(seed);
    let config = EvolveConfig {
        window: WINDOW,
        compact_every: COMPACT_EVERY,
        ..EvolveConfig::default()
    };
    let store = ModelStore::open(dir.path("engine-store")).map_err(|e| e.to_string())?;
    let generation = store.publish(model).map_err(|e| e.to_string())?;
    let (engine, _) = ServeEngine::new(model.clone(), CACHE, Some(10_000_000))
        .with_store(store, generation)
        .with_evolve(config.clone())
        .attach_wal(dir.path("engine-wal"), 1024)?;
    let mut wrong = 0;
    for (i, (sql, _)) in traffic.ingests.iter().enumerate() {
        let rid = i as u64;
        let ack = t.span("engine.ingest", rid, |_| {
            engine.ingest(sql, "anon", &format!("k{i}"))
        });
        if ack.get("absorbed") != Some(&Json::Bool(true)) {
            wrong += 1;
        }
        if ack.get("compacted") == Some(&Json::Bool(true)) {
            let reload = t.span("engine.reload", rid, |_| engine.reload());
            if reload.get("ok") != Some(&Json::Bool(true)) {
                wrong += 1;
            }
        }
    }
    m.put("engine.ingest_us", t.median_ns("engine.ingest") / 1e3, "us");
    m.put("engine.reload_ms", t.median_ns("engine.reload") / 1e6, "ms");
    // The store read a reload starts with: find, verify and parse the
    // newest generation.
    let engine_store = ModelStore::open(dir.path("engine-store")).map_err(|e| e.to_string())?;
    for rid in 0..3 {
        t.span("store.load", rid, |_| engine_store.recover())
            .map_err(|e| e.to_string())?;
    }
    m.put("store.load_ms", t.median_ns("store.load") / 1e6, "ms");

    let store = ModelStore::open(dir.path("store")).map_err(|e| e.to_string())?;
    let mut wal = SegmentWal::open(dir.path("wal")).map_err(|e| e.to_string())?;
    wal.rotate(&Json::Null).map_err(|e| e.to_string())?;
    let mut maintainer = t.span("evolve.seed", 0, |_| IncrementalDbscan::new(model, config));
    let before = maintainer.stats();
    let (mut wal_bytes, mut store_bytes) = (0.0, Vec::new());
    for (i, (_, area)) in traffic.ingests.iter().enumerate() {
        let rid = i as u64;
        let payload = area.to_json().to_string_compact();
        let segment = wal.path_for(wal.active_segment().unwrap_or(0));
        let len = file_len(&segment);
        t.span("wal.append", rid, |_| {
            wal.append("anon", &format!("k{i}"), &payload)
        })
        .map_err(|e| e.to_string())?;
        wal_bytes += file_len(&segment) - len;
        t.span("evolve.ingest", rid, |_| maintainer.ingest(area.clone()));
        if maintainer.due_for_compaction() {
            let report = t.span("evolve.compact", rid, |_| maintainer.compact());
            let g = t
                .span("store.publish", rid, |_| store.publish(&report.model))
                .map_err(|e| e.to_string())?;
            store_bytes.push(file_len(&store.path_for(g)));
            let cp = checkpoint(g, i as u64 + 1, &maintainer.checkpoint());
            t.span("wal.rotate", rid, |_| {
                wal.rotate(&cp).and_then(|_| wal.collect())
            })
            .map_err(|e| e.to_string())?;
        }
    }
    let after = maintainer.stats();
    let n = traffic.ingests.len() as f64;
    m.put("evolve.ingest_us", t.median_ns("evolve.ingest") / 1e3, "us");
    m.put(
        "evolve.neighborhood_queries",
        (after.neighborhood_queries - before.neighborhood_queries) as f64 / n,
        "count",
    );
    m.put(
        "evolve.distance_evaluated",
        (after.distance_evaluated - before.distance_evaluated) as f64 / n,
        "count",
    );
    m.put(
        "evolve.compact_ms",
        t.median_ns("evolve.compact") / 1e6,
        "ms",
    );
    m.put("wal.append_us", t.median_ns("wal.append") / 1e3, "us");
    m.put("wal.bytes_per_ingest", wal_bytes / n, "bytes");
    m.put("wal.rotate_ms", t.median_ns("wal.rotate") / 1e6, "ms");
    m.put("store.publish_ms", t.median_ns("store.publish") / 1e6, "ms");
    m.put("store.bytes_per_generation", median(&store_bytes), "bytes");
    Ok(wrong)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = RunDir::create(
        &ctx.runs,
        &format!("trace-{}-{}", ctx.seed, std::process::id()),
    )?;
    let mut t = Tracer::new();
    let mut m = Metrics::default();
    let started = Instant::now();
    mine(&mut t, &mut m, ctx.seed);
    let model = setup(&mut t, &mut m, ctx.seed);
    let read_wrong = read(&mut t, &mut m, ctx.seed, &model)?;
    let ingest_wrong = ingest(&mut t, &mut m, ctx.seed, &model, &dir)?;
    let spans = ctx
        .runs
        .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    t.write(&spans)?;
    for (name, value, unit) in &m.0 {
        println!("trace: {name} = {value:.4} {unit}");
    }
    println!(
        "trace: {} spans written to {} in {:.1} s",
        t.spans.len(),
        spans.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(Outcome {
        attempted: (NET_REQUESTS + COMPACT_EVERY + INGESTS) as u64,
        failed: read_wrong + ingest_wrong,
        correct: true,
        metrics: m,
    })
}
