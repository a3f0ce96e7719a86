//! Seeded inputs. Every statement a workload sends is a function of the
//! seed alone, so two runs with one seed send the same statements in the
//! same order.

use aa_core::{AccessArea, DistanceMode, NoSchema, Pipeline};
use aa_skyserver::{generate_log, GroundTruth, LogConfig, LogEntry};
use std::collections::HashSet;

/// Clustering parameters handed to both programs (their defaults, spelt
/// out so the in-process oracles stay in step if a default changes).
pub const EPS: f64 = 0.06;
pub const MIN_PTS: usize = 8;
pub const MODE: DistanceMode = DistanceMode::Dissimilarity;

/// Entries in each log `mine` analyses.
pub const MINE_STATEMENTS: usize = 1_000;
/// `mine`: the fixed set of logs a run analyses, in whole cycles, so a
/// faster program repeats the same logs instead of reaching new ones.
pub const MINE_LOGS: usize = 10;
/// Entries of the synthetic log the served model is built from.
pub const MODEL_STATEMENTS: usize = 2_000;

/// How many times `read` and `ingest` set the program up in one run; the
/// median is reported, the last set-up is measured.
pub const SETUPS: usize = 3;

/// `read`: repeated statements, warmed into the extraction cache first.
/// This, the one-in-two repeat share and the 75/25 classify/neighbors mix
/// are assumptions: the repository holds no record of real callers.
pub const HOT: usize = 32;
/// `read`: extraction-cache capacity per shard. Between two sends of one
/// hot statement at most `2 * HOT` distinct statements pass, far below
/// it, so every repeat hits whatever the request rate.
pub const CACHE: usize = 1_024;
/// `read`: size of the statement pool fresh statements are drawn from;
/// a run stops early rather than repeat one.
pub const READ_POOL: usize = 12_000;
/// `read` and `ingest`: neighbors requests ask for this many.
pub const K: usize = 5;

/// `ingest`: window the server keeps, compaction period, measured ingests.
pub const WINDOW: usize = 512;
pub const COMPACT_EVERY: usize = 64;
pub const INGESTS: usize = 1_024;
/// `ingest`: a read is due beside every `INGEST_READ_EVERY`-th ingest
/// sent, so the reads follow the feed's progress, not the clock.
pub const INGEST_READ_EVERY: usize = 4;
pub const INGEST_READS: usize = INGESTS / INGEST_READ_EVERY;

/// Sub-seed for one input stream of a workload.
pub fn derive(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Extracts one statement the way the programs do (no schema, no
/// analyzer); `None` when extraction fails.
pub fn extract(sql: &str) -> Option<AccessArea> {
    Pipeline::new(&NoSchema)
        .process(0, sql)
        .ok()
        .map(|q| q.area)
}

/// A log `mine` writes out and analyses.
pub fn mine_log(seed: u64) -> Vec<LogEntry> {
    generate_log(&LogConfig {
        total: MINE_STATEMENTS,
        seed,
        ..LogConfig::default()
    })
}

pub fn is_pathological(entry: &LogEntry) -> bool {
    matches!(entry.truth, GroundTruth::Pathological(_))
}

/// A stream of SkyServer-shaped statements that extract, with their areas.
/// With `distinct`, statements with equal fingerprints are dropped, so no
/// two can share an extraction-cache entry.
pub fn statements(seed: u64, total: usize, distinct: bool) -> Vec<(String, AccessArea)> {
    let mut seen = HashSet::new();
    generate_log(&LogConfig {
        total,
        seed,
        ..LogConfig::default()
    })
    .into_iter()
    .filter(|e| !is_pathological(e))
    .filter(|e| !distinct || seen.insert(aa_sql::fingerprint(&e.sql)))
    .filter_map(|e| extract(&e.sql).map(|area| (e.sql, area)))
    .collect()
}

/// `read` traffic: request `i` alternates a hot statement (even `i`) with a
/// fresh one (odd `i`); every fourth pair is a neighbors request, the rest
/// classify. The cache-hit share is therefore one half at any request
/// count.
pub struct ReadTraffic {
    pub hot: Vec<(String, AccessArea)>,
    pub fresh: Vec<(String, AccessArea)>,
}

impl ReadTraffic {
    pub fn new(seed: u64) -> ReadTraffic {
        let mut pool = statements(derive(seed, 1), READ_POOL, true);
        let fresh = pool.split_off(HOT.min(pool.len()));
        ReadTraffic { hot: pool, fresh }
    }

    /// Requests the pool can serve before a fresh statement would repeat.
    pub fn capacity(&self) -> usize {
        2 * self.fresh.len()
    }

    /// (statement, k) of request `i`; `k == 0` is a classify.
    pub fn request(&self, i: usize) -> (&(String, AccessArea), usize) {
        let k = if (i / 2) % 4 == 3 { K } else { 0 };
        let stmt = if i.is_multiple_of(2) {
            &self.hot[(i / 2) % self.hot.len()]
        } else {
            &self.fresh[i / 2]
        };
        (stmt, k)
    }
}

/// `ingest` traffic: the statements absorbed during set-up (one
/// compaction's worth) followed by the measured ones, and the reads sent
/// beside them.
pub struct IngestTraffic {
    pub ingests: Vec<(String, AccessArea)>,
    pub reads: Vec<(String, usize)>,
}

impl IngestTraffic {
    pub fn new(seed: u64) -> IngestTraffic {
        let need = COMPACT_EVERY + INGESTS;
        let mut ingests = statements(derive(seed, 2), need + need / 8, false);
        ingests.truncate(need);
        let reads = statements(derive(seed, 3), INGEST_READS + INGEST_READS / 4, true)
            .into_iter()
            .take(INGEST_READS)
            .enumerate()
            .map(|(i, (sql, _))| (sql, if i % 4 == 3 { K } else { 0 }))
            .collect();
        IngestTraffic { ingests, reads }
    }
}
