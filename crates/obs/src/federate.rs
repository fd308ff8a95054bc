//! Federation of per-node hubs into one cluster telemetry plane.
//!
//! Each node writes into its own [`ObsHub`]: metrics and trace ring are
//! isolated per node (the node id also rides in every trace event's
//! `pid`). [`ClusterObs`] is the read side: it merges per-node
//! [`MetricsSnapshot`]s into a cluster rollup, drains every ring into
//! one time-ordered trace, and renders both with per-node breakdown.
//!
//! Rollup semantics follow [`MetricsSnapshot::accumulate`]: counters
//! and histograms **sum** across nodes; gauges are levels, so the
//! rollup keeps the last node's value — read gauge levels from the
//! per-node breakdown, not the rollup.

use crate::registry::MetricsSnapshot;
use crate::trace::{chrome_trace_json, TraceEvent};
use crate::{ObsHub, DEFAULT_TRACE_CAPACITY};
use std::sync::Arc;

/// Read-side aggregator over every node's [`ObsHub`].
pub struct ClusterObs {
    nodes: Vec<(String, Arc<ObsHub>)>,
}

impl ClusterObs {
    /// One private hub per node, labeled `node0..nodeN-1`, each with a
    /// [`DEFAULT_TRACE_CAPACITY`]-slot trace ring.
    pub fn per_node(n_nodes: usize) -> Arc<ClusterObs> {
        Arc::new(ClusterObs {
            nodes: (0..n_nodes)
                .map(|i| (format!("node{i}"), ObsHub::new(DEFAULT_TRACE_CAPACITY)))
                .collect(),
        })
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The hub node `node` writes into. Panics past the last node.
    pub fn hub_for(&self, node: usize) -> Arc<ObsHub> {
        self.nodes[node].1.clone()
    }

    /// Per-node `(label, hub)` pairs, node order.
    pub fn hubs(&self) -> impl Iterator<Item = (&str, &Arc<ObsHub>)> {
        self.nodes.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Cluster rollup: counters/histograms summed across nodes, gauges
    /// last-write (see module docs).
    pub fn rollup(&self) -> MetricsSnapshot {
        let mut acc = MetricsSnapshot::default();
        for (_, hub) in &self.nodes {
            acc.accumulate(&hub.snapshot());
        }
        acc
    }

    /// Trace events dropped across every node's ring.
    pub fn trace_dropped(&self) -> u64 {
        self.nodes.iter().map(|(_, h)| h.trace_dropped()).sum()
    }

    /// Drain every node's trace ring into one timestamp-ordered event
    /// list (destructive, like [`ObsHub::drain_trace`]).
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for (_, hub) in &self.nodes {
            all.extend(hub.drain_trace());
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Drain all rings into one Chrome-trace JSON document — per-node
    /// events land in their own `pid` lane.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.drain_trace())
    }

    /// Cluster rollup + per-node breakdown as one JSON document.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{\n  \"cluster\": ");
        out.push_str(&self.rollup().to_json());
        out.push_str(&format!(",\n  \"trace_dropped\": {},", self.trace_dropped()));
        out.push_str("\n  \"nodes\": {");
        for (i, (name, hub)) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"trace_dropped\":{},\"snapshot\":{}}}",
                crate::trace::escape_json(name),
                hub.trace_dropped(),
                hub.snapshot().to_json()
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

impl std::fmt::Debug for ClusterObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterObs").field("nodes", &self.nodes.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_sums_counters_and_histograms_across_nodes() {
        let cluster = ClusterObs::per_node(3);
        for i in 0..3 {
            let hub = cluster.hub_for(i);
            hub.registry().counter("cache.hits").add((i as u64 + 1) * 10);
            hub.registry().histogram("fetch.ns").record(100 * (i as u64 + 1));
            hub.registry().gauge("level").set(i as u64);
        }
        let roll = cluster.rollup();
        assert_eq!(roll.counters["cache.hits"], 60);
        assert_eq!(roll.histograms["fetch.ns"].count, 3);
        assert_eq!(roll.histograms["fetch.ns"].sum, 600);
        let nodes: Vec<_> = cluster.hubs().map(|(n, h)| (n, h.snapshot())).collect();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].0, "node0");
        assert_eq!(nodes[2].1.counters["cache.hits"], 30);
        assert_eq!(nodes[1].1.gauges["level"], 1);
        let json = cluster.metrics_json();
        assert!(json.contains("\"cluster\""));
        assert!(json.contains("\"node1\""));
    }

    #[test]
    fn drain_merges_rings_in_timestamp_order() {
        let cluster = ClusterObs::per_node(2);
        let h0 = cluster.hub_for(0);
        let h1 = cluster.hub_for(1);
        let e0 = h0.intern("a", None, None);
        let e1 = h1.intern("b", None, None);
        h0.set_now(300);
        h0.instant(e0, 0, 0, 0, 0);
        h1.set_now(100);
        h1.instant(e1, 1, 0, 0, 0);
        h0.set_now(200);
        h0.instant(e0, 0, 0, 0, 0);
        let ev = cluster.drain_trace();
        assert_eq!(ev.iter().map(|e| e.ts_ns).collect::<Vec<_>>(), vec![100, 200, 300]);
        assert!(cluster.drain_trace().is_empty(), "drain is destructive");
    }
}
