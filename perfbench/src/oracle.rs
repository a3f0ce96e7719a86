//! Answers computed apart from the program, outside the timed phase.

use crate::inputs::{EPS, MIN_PTS, MODE, MODEL_STATEMENTS};
use aa_core::{AccessArea, AccessRanges, ClusteredModel, DistanceKernel, QueryDistance};
use aa_dbscan::{dbscan, DbscanParams, Label};
use aa_util::Json;

/// The model `serve_areas --gen` builds from the seeded log, rebuilt
/// in-process with the same arguments.
pub fn model(seed: u64) -> ClusteredModel {
    aa_serve::build_model(MODEL_STATEMENTS, seed, EPS, MIN_PTS, MODE)
}

/// Clusters `areas` from scratch on the kernel path: fresh ranges with the
/// doubling rule, the bitset kernel, DBSCAN. A compaction's published
/// model must equal this, and `analyze_log`'s scalar path must agree
/// with it.
pub fn offline_model(areas: Vec<AccessArea>) -> ClusteredModel {
    let mut ranges = AccessRanges::new();
    ranges.observe_all(areas.iter());
    ranges.apply_doubling();
    let kernel = DistanceKernel::build(&areas, &ranges, MODE);
    let positions: Vec<usize> = (0..areas.len()).collect();
    let params = DbscanParams {
        eps: EPS,
        min_pts: MIN_PTS,
    };
    let result = dbscan(&positions, &params, |a, b| kernel.distance(*a, *b));
    ClusteredModel {
        labels: result.labels.iter().map(Label::cluster).collect(),
        cluster_count: result.cluster_count,
        areas,
        ranges,
        eps: EPS,
        min_pts: MIN_PTS,
        mode: MODE,
    }
}

/// The answer a brute-force scalar scan gives, in wire terms.
#[derive(Debug, PartialEq)]
pub enum Answer {
    /// (nearest index, distance bits, cluster)
    Classify(usize, u64, Option<usize>),
    /// (index, distance bits, cluster) in (distance, index) order.
    Neighbors(Vec<(usize, u64, Option<usize>)>),
}

/// Brute force over every model area with the scalar `QueryDistance`:
/// the reference the kernel, the pivot index, the shards and the router
/// merge must all reproduce bit for bit.
pub fn scan(model: &ClusteredModel, area: &AccessArea, k: usize) -> Answer {
    let metric = QueryDistance::with_mode(&model.ranges, model.mode);
    let mut all: Vec<(f64, usize)> = model
        .areas
        .iter()
        .enumerate()
        .map(|(i, a)| (metric.distance(area, a), i))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    if k == 0 {
        let (d, i) = all[0];
        let cluster = if d <= model.eps {
            model.labels[i]
        } else {
            None
        };
        Answer::Classify(i, d.to_bits(), cluster)
    } else {
        Answer::Neighbors(
            all.iter()
                .take(k)
                .map(|&(d, i)| (i, d.to_bits(), model.labels[i]))
                .collect(),
        )
    }
}

fn cluster_of(j: &Json) -> Option<Option<usize>> {
    match j.get("cluster")? {
        Json::Null => Some(None),
        v => v.as_f64().map(|c| Some(c as usize)),
    }
}

fn entry(j: &Json, index_key: &str) -> Option<(usize, u64, Option<usize>)> {
    Some((
        j.get(index_key)?.as_f64()? as usize,
        j.get("distance")?.as_f64()?.to_bits(),
        cluster_of(j)?,
    ))
}

/// Reads a response in wire terms; `None` for an error, a partial answer
/// or a malformed one.
pub fn answer_of(response: &Json, k: usize) -> Option<Answer> {
    if response.get("ok") != Some(&Json::Bool(true)) || response.get("partial").is_some() {
        return None;
    }
    if k == 0 {
        let (i, d, c) = entry(response, "nearest")?;
        Some(Answer::Classify(i, d, c))
    } else {
        let list = response.get("neighbors")?.as_arr()?;
        list.iter()
            .map(|n| entry(n, "index"))
            .collect::<Option<Vec<_>>>()
            .map(Answer::Neighbors)
    }
}
