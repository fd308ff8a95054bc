//! # kcache-obs — always-on observability for the cache stack
//!
//! Dependency-free metrics + tracing substrate shared by every layer:
//!
//! * [`metrics`] — lock-free cells (counters, gauges, log-scale
//!   histograms). One relaxed atomic add per hot-path increment; the
//!   file contains no locks and CI greps to keep it that way.
//! * [`registry`] — named registration with typed handles (resolved
//!   once at wiring time) and point-in-time [`MetricsSnapshot`]s.
//! * [`trace`] — a bounded Vyukov MPMC [`TraceRing`] of structured
//!   spans/instants with interned names, exported as Chrome-trace JSON
//!   (`chrome://tracing` / Perfetto).
//!
//! [`ObsHub`] ties the three together for one simulated node: a
//! registry, a trace ring and the sim-clock "now" (stored by whichever
//! actor is currently executing). [`ClusterObs`] holds one hub per node
//! and is the read side: rollup, merged trace, exports.
//!
//! Instrumented components hold an `Option<...>` of pre-resolved
//! handles; with observability off (the default) the hot path pays one
//! never-taken branch.

pub mod federate;
pub mod metrics;
pub mod quantile;
pub mod registry;
pub mod ring;
pub mod trace;

pub use federate::ClusterObs;
pub use metrics::{stripe_index, Counter, Gauge, Histogram, COUNTER_STRIPES, HIST_BUCKETS};
pub use quantile::{QuantileSketch, QuantileSnapshot};
pub use registry::{HistogramSnapshot, MetricRegistry, MetricsSnapshot};
pub use ring::{CacheLine, SlotRing};
pub use trace::{chrome_trace_json, EventId, Phase, TraceEvent, TraceRing};

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Default trace-ring capacity (slots; rounded up to a power of two).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One node's observability plumbing, shared by `Arc` across that
/// node's buffer manager, cache module, and the harness. Federate
/// per-node hubs with [`ClusterObs`].
pub struct ObsHub {
    registry: MetricRegistry,
    trace: TraceRing,
    now_ns: AtomicU64,
}

impl ObsHub {
    pub fn new(trace_capacity: usize) -> Arc<ObsHub> {
        Arc::new(ObsHub {
            registry: MetricRegistry::new(),
            trace: TraceRing::new(trace_capacity),
            now_ns: AtomicU64::new(0),
        })
    }

    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Advance the hub's sim clock — called by an actor when it starts
    /// handling an event, so instruments timestamp with simulated time.
    #[inline]
    pub fn set_now(&self, ns: u64) {
        self.now_ns.store(ns, Relaxed);
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.now_ns.load(Relaxed)
    }

    /// Intern a trace-event name (cold path; idempotent).
    pub fn intern(&self, name: &str, arg0: Option<&str>, arg1: Option<&str>) -> EventId {
        self.trace.intern(name, arg0, arg1)
    }

    /// Record an instant event at the hub's current sim time.
    #[inline]
    pub fn instant(&self, id: EventId, pid: u32, tid: u32, arg0: u64, arg1: u64) {
        self.trace.record(id, Phase::Instant, self.now(), 0, pid, tid, arg0, arg1);
    }

    /// Record a complete span from `start_ns` to `start_ns + dur_ns`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        id: EventId,
        pid: u32,
        tid: u32,
        start_ns: u64,
        dur_ns: u64,
        a0: u64,
        a1: u64,
    ) {
        self.trace.record(id, Phase::Span, start_ns, dur_ns, pid, tid, a0, a1);
    }

    /// Trace events dropped on ring overflow.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// Cumulative point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Drain the trace ring (destructive, FIFO).
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        self.trace.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_end_to_end() {
        let hub = ObsHub::new(64);
        let hits = hub.registry().counter("cache.hits");
        let lat = hub.registry().histogram("fetch.ns");
        let ev = hub.intern("miss_fill", Some("blocks"), None);
        hub.set_now(1_000);
        hits.inc();
        lat.record(250);
        hub.instant(ev, 0, 0, 4, 0);
        hub.span(ev, 0, 1, 500, 500, 2, 0);
        hits.inc();
        assert_eq!(hub.snapshot().counters["cache.hits"], 2);
        assert_eq!(hub.snapshot().histograms["fetch.ns"].count, 1);
        let trace = chrome_trace_json(&hub.drain_trace());
        assert!(trace.contains("miss_fill"));
        assert!(trace.contains("\"blocks\":4"));
        assert!(hub.drain_trace().is_empty(), "drain is destructive");
    }
}
