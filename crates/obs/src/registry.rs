//! Metric registration and snapshotting — the cold side of `metrics.rs`.
//!
//! Handles are resolved **once** (at wiring time, under a mutex) and
//! cached by the instrumented component; after that the hot path never
//! touches the registry. Snapshots are point-in-time copies.

use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Registry of named metric cells. Registration is idempotent: asking
/// for an existing name returns a handle to the same cell, so two
/// components may safely share a metric. Lookup is map-backed
/// (O(log n)) so registration cost stays flat as the per-app and
/// per-ghost dynamic names multiply.
#[derive(Default)]
pub struct MetricRegistry {
    inner: Mutex<Inner>,
}

impl MetricRegistry {
    pub fn new() -> MetricRegistry {
        MetricRegistry::default()
    }

    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.inner.lock().unwrap();
        g.counters.entry(name.to_string()).or_default().clone()
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = self.inner.lock().unwrap();
        g.gauges.entry(name.to_string()).or_default().clone()
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        let mut g = self.inner.lock().unwrap();
        g.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Point-in-time copy of every registered cell.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: g.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            gauges: g.gauges.iter().map(|(n, v)| (n.clone(), v.get())).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(n, h)| {
                    (
                        n.clone(),
                        HistogramSnapshot {
                            count: h.count(),
                            sum: h.sum(),
                            buckets: h.load_buckets(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Copied state of one histogram at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    fn accumulate(&mut self, d: &HistogramSnapshot) {
        self.count += d.count;
        self.sum += d.sum;
        if self.buckets.len() < d.buckets.len() {
            self.buckets.resize(d.buckets.len(), 0);
        }
        for (i, b) in d.buckets.iter().enumerate() {
            self.buckets[i] += b;
        }
    }

    /// Coarse quantile estimate from the log2 buckets: the upper edge
    /// (`2^i − 1`) of the bucket holding the order statistic at rank
    /// `round(q · (count − 1))`. Power-of-two resolution — use the
    /// `quantile` sketch when 1/16 relative error matters. Returns 0
    /// on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum > rank {
                // Bucket i holds values with bit length i: 0 for i=0,
                // [2^(i-1), 2^i - 1] otherwise.
                return if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }
}

/// Point-in-time metric values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Fold another snapshot into an accumulator — how
    /// [`ClusterObs::rollup`](crate::ClusterObs::rollup) merges nodes.
    /// Counters and histograms sum; gauges are levels, so the last
    /// folded value wins.
    pub fn accumulate(&mut self, d: &MetricsSnapshot) {
        for (n, v) in &d.counters {
            *self.counters.entry(n.clone()).or_insert(0) += v;
        }
        for (n, v) in &d.gauges {
            self.gauges.insert(n.clone(), *v);
        }
        for (n, h) in &d.histograms {
            self.histograms.entry(n.clone()).or_default().accumulate(h);
        }
    }

    /// JSON object (hand-rolled — this crate is dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        push_map(&mut out, self.counters.iter().map(|(n, v)| (n.as_str(), v.to_string())));
        out.push_str("},\"gauges\":{");
        push_map(&mut out, self.gauges.iter().map(|(n, v)| (n.as_str(), v.to_string())));
        out.push_str("},\"histograms\":{");
        push_map(
            &mut out,
            self.histograms.iter().map(|(n, h)| {
                let buckets = h.buckets.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(",");
                (
                    n.as_str(),
                    format!(
                        "{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                        h.count, h.sum, buckets
                    ),
                )
            }),
        );
        out.push_str("}}");
        out
    }
}

fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, String)>) {
    let mut first = true;
    for (name, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(&crate::trace::escape_json(name));
        out.push_str("\":");
        out.push_str(&value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = MetricRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counters["x"], 2);
        let g1 = r.gauge("g");
        r.gauge("g").set(7);
        assert_eq!(g1.get(), 7);
        let h = r.histogram("h");
        r.histogram("h").record(12);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_json_is_well_formed_enough() {
        let r = MetricRegistry::new();
        r.counter("a").inc();
        r.histogram("h").record(2);
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\":1"));
        assert!(json.contains("\"count\":1"));
    }
}
