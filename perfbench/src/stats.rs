//! Order statistics and the metric list a run prints.

use aa_util::Json;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The tail of a latency sample: the highest ladder percentile with at
/// least ten samples beyond it. Below forty samples no percentile has a
/// tail worth the name, so the median stands in. Returns the percentile
/// used and its value.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    for p in TAIL_LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n >= 40 && n - rank >= 10 {
            return (p, percentile(&s, p));
        }
    }
    (50.0, percentile(&s, 50.0))
}

/// A latency population summarised the way every workload reports it.
pub struct Latency {
    pub samples: usize,
    pub p50_ms: f64,
    pub tail_pct: f64,
    pub tail_ms: f64,
}

impl Latency {
    pub fn of(ms: &[f64]) -> Latency {
        let (tail_pct, tail_ms) = tail(ms);
        Latency {
            samples: ms.len(),
            p50_ms: median(ms),
            tail_pct,
            tail_ms,
        }
    }

    pub fn describe(&self, what: &str) -> String {
        format!(
            "{what}: n={} p50={:.3} ms p{}={:.3} ms",
            self.samples, self.p50_ms, self.tail_pct, self.tail_ms
        )
    }
}

/// Named metrics in the order they were recorded.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value".to_string(), Json::Num(*value)),
                            ("unit".to_string(), Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1024).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 1014.0));
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 135.0));
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 20.0));
    }
}
