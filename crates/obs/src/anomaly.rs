//! Anomaly flight recorder: an epoch-mark rule engine.
//!
//! The epoch-delta log ([`ObsHub::epoch_deltas`]) already slices every
//! metric into per-epoch activity windows; the rule engine replays
//! those windows looking for the two failure signatures the cache stack
//! can actually produce:
//!
//! * **hit-ratio collapse** — the per-epoch hit ratio drops sharply
//!   between consecutive windows (working-set blowout, partition
//!   thrash, or an eviction-policy regression);
//! * **trace-ring overflow burst** — `obs.trace_dropped` jumps inside
//!   one window (the ring is sized below the event rate, so the trace
//!   evidence for *this* incident is incomplete).
//!
//! When any rule fires, the harness dumps a flight record: the firings,
//! a full metrics snapshot, and the tail of the (bounded) trace ring —
//! the black box to read after the crash, not a live alerting path.

use crate::registry::MetricsSnapshot;
use crate::trace::{chrome_trace_json, TraceEvent};

/// Thresholds for the epoch-mark rules; serde-free mirror of the
/// cluster config's `[telemetry.anomaly]` table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyRules {
    /// Absolute drop in hit ratio between consecutive epochs that
    /// counts as a collapse (0.3 = thirty percentage points).
    pub hit_ratio_drop: f64,
    /// Ignore epochs with fewer accesses than this when judging hit
    /// ratio — tiny windows make noisy ratios.
    pub min_epoch_accesses: u64,
    /// `obs.trace_dropped` delta in one epoch that counts as an
    /// overflow burst.
    pub trace_drops_per_epoch: u64,
}

impl Default for AnomalyRules {
    fn default() -> AnomalyRules {
        AnomalyRules { hit_ratio_drop: 0.3, min_epoch_accesses: 64, trace_drops_per_epoch: 1024 }
    }
}

/// One rule firing in one node's epoch window.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyFiring {
    /// Node label (`node3`, or `cluster` for a shared hub).
    pub node: String,
    /// Index into that hub's epoch-delta log.
    pub epoch: usize,
    /// Stable rule name: `hit_ratio_collapse` or `trace_overflow_burst`.
    pub rule: &'static str,
    /// Human-readable evidence (values that tripped the threshold).
    pub detail: String,
}

fn prefixed_sum(snap: &MetricsSnapshot, prefix: &str) -> u64 {
    snap.counters.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, v)| v).sum()
}

/// Replay one hub's epoch-delta log against the rules.
pub fn evaluate(
    node: &str,
    deltas: &[MetricsSnapshot],
    rules: &AnomalyRules,
) -> Vec<AnomalyFiring> {
    let mut out = Vec::new();
    let mut prev_ratio: Option<f64> = None;
    for (epoch, d) in deltas.iter().enumerate() {
        let hits = prefixed_sum(d, "cache.hits.");
        let misses = prefixed_sum(d, "cache.misses.");
        let accesses = hits + misses;
        if accesses >= rules.min_epoch_accesses {
            let ratio = hits as f64 / accesses as f64;
            if let Some(p) = prev_ratio {
                if p - ratio >= rules.hit_ratio_drop {
                    out.push(AnomalyFiring {
                        node: node.to_string(),
                        epoch,
                        rule: "hit_ratio_collapse",
                        detail: format!(
                            "hit ratio {:.3} -> {:.3} ({} accesses)",
                            p, ratio, accesses
                        ),
                    });
                }
            }
            prev_ratio = Some(ratio);
        }
        let drops = d.counters.get("obs.trace_dropped").copied().unwrap_or(0);
        if drops >= rules.trace_drops_per_epoch {
            out.push(AnomalyFiring {
                node: node.to_string(),
                epoch,
                rule: "trace_overflow_burst",
                detail: format!("{drops} trace events dropped in one epoch"),
            });
        }
    }
    out
}

/// Render the flight record. Always a valid JSON object — `fired`
/// tells the reader whether anything tripped; `recent_events` is the
/// tail (`max_events`) of the drained trace in Chrome-trace form.
pub fn flight_json(
    firings: &[AnomalyFiring],
    snapshot: &MetricsSnapshot,
    events: &[TraceEvent],
    max_events: usize,
) -> String {
    let tail = &events[events.len().saturating_sub(max_events)..];
    let mut out = String::from("{\n  \"fired\": ");
    out.push_str(if firings.is_empty() { "false" } else { "true" });
    out.push_str(",\n  \"firings\": [");
    for (i, f) in firings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"node\":\"{}\",\"epoch\":{},\"rule\":\"{}\",\"detail\":\"{}\"}}",
            crate::trace::escape_json(&f.node),
            f.epoch,
            f.rule,
            crate::trace::escape_json(&f.detail)
        ));
    }
    out.push_str("\n  ],\n  \"snapshot\": ");
    out.push_str(&snapshot.to_json());
    out.push_str(",\n  \"recent_events\": ");
    out.push_str(chrome_trace_json(tail).trim_end());
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsHub;

    fn delta(pairs: &[(&str, u64)]) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for (n, v) in pairs {
            s.counters.insert(n.to_string(), *v);
        }
        s
    }

    #[test]
    fn hit_ratio_collapse_fires_once_and_respects_floor() {
        let rules = AnomalyRules::default();
        let deltas = vec![
            delta(&[("cache.hits.lru", 90), ("cache.misses.lru", 10)]),
            // Tiny window: skipped, does not poison the baseline.
            delta(&[("cache.hits.lru", 1), ("cache.misses.lru", 1)]),
            delta(&[("cache.hits.lru", 30), ("cache.misses.lru", 70)]),
            delta(&[("cache.hits.lru", 30), ("cache.misses.lru", 70)]),
        ];
        let f = evaluate("node0", &deltas, &rules);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hit_ratio_collapse");
        assert_eq!(f[0].epoch, 2);
        assert_eq!(f[0].node, "node0");
    }

    #[test]
    fn overflow_rule_fires_on_threshold() {
        let rules = AnomalyRules { trace_drops_per_epoch: 5, ..Default::default() };
        let deltas = vec![delta(&[("obs.trace_dropped", 4)]), delta(&[("obs.trace_dropped", 5)])];
        let f = evaluate("n", &deltas, &rules);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].epoch), ("trace_overflow_burst", 1));
    }

    #[test]
    fn quiet_log_fires_nothing() {
        let rules = AnomalyRules::default();
        let deltas = vec![delta(&[("cache.hits.lru", 80), ("cache.misses.lru", 20)]); 5];
        assert!(evaluate("n", &deltas, &rules).is_empty());
    }

    #[test]
    fn flight_json_bounds_events_and_reports_fired() {
        let hub = ObsHub::new(16);
        let id = hub.intern("e", None, None);
        for i in 0..8 {
            hub.set_now(i * 100);
            hub.instant(id, 0, 0, 0, 0);
        }
        let events = hub.drain_trace();
        let firings = vec![AnomalyFiring {
            node: "node0".into(),
            epoch: 3,
            rule: "trace_overflow_burst",
            detail: "3000 dropped".into(),
        }];
        let json = flight_json(&firings, &hub.snapshot(), &events, 4);
        assert!(json.contains("\"fired\": true"));
        assert!(json.contains("trace_overflow_burst"));
        // Only the 4-event tail is kept: ts 400..700 survive, 0..300 don't.
        assert!(json.contains("\"ts\":0.400"));
        assert!(!json.contains("\"ts\":0.100"));
        let empty = flight_json(&[], &hub.snapshot(), &[], 4);
        assert!(empty.contains("\"fired\": false"));
    }
}
