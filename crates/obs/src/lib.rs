//! # kcache-obs — always-on observability for the cache stack
//!
//! Dependency-free metrics + tracing substrate shared by every layer:
//!
//! * [`metrics`] — lock-free cells (counters, gauges, log-scale
//!   histograms). One relaxed atomic add per hot-path increment; the
//!   file contains no locks and CI greps to keep it that way.
//! * [`registry`] — named registration with typed handles (resolved
//!   once at wiring time) and point-in-time [`MetricsSnapshot`]s whose
//!   [`MetricsSnapshot::delta`] powers epoch-aligned reporting.
//! * [`trace`] — a bounded Vyukov MPMC [`TraceRing`] of structured
//!   spans/instants with interned names, exported as Chrome-trace JSON
//!   (`chrome://tracing` / Perfetto).
//!
//! [`ObsHub`] ties the three together for one simulated cluster: a
//! shared registry, a shared trace ring, the sim-clock "now" (stored by
//! whichever actor is currently executing), and the epoch-aligned delta
//! log driven by the buffer manager's epoch boundary.
//!
//! Instrumented components hold an `Option<...>` of pre-resolved
//! handles; with observability off (the default) the hot path pays one
//! never-taken branch.

pub mod anomaly;
pub mod federate;
pub mod metrics;
pub mod quantile;
pub mod registry;
pub mod ring;
pub mod trace;

pub use anomaly::{evaluate, flight_json, AnomalyFiring, AnomalyRules};
pub use federate::ClusterObs;
pub use metrics::{stripe_index, Counter, Gauge, Histogram, COUNTER_STRIPES, HIST_BUCKETS};
pub use quantile::{QuantileSketch, QuantileSnapshot, SloTargets};
pub use registry::{HistogramSnapshot, MetricRegistry, MetricsSnapshot};
pub use ring::{CacheLine, SlotRing};
pub use trace::{chrome_trace_json, EventId, Phase, TraceEvent, TraceRing};

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Epoch deltas kept before the oldest is discarded (a delta per ~512
/// accesses: 4096 windows cover any run the harness performs while
/// bounding a pathological one).
pub const MAX_EPOCH_DELTAS: usize = 4096;

/// Default trace-ring capacity (slots; rounded up to a power of two).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

struct EpochState {
    last: MetricsSnapshot,
    deltas: Vec<MetricsSnapshot>,
    discarded: u64,
    /// Ring-drop total already folded into `obs.trace_dropped`, so
    /// each epoch's delta of that counter is the drops in that window.
    drops_marked: u64,
}

/// One node's observability plumbing, shared by `Arc` across that
/// node's buffer manager, cache module, and the harness. Federate
/// per-node hubs with [`ClusterObs`].
pub struct ObsHub {
    registry: MetricRegistry,
    trace: TraceRing,
    now_ns: AtomicU64,
    epochs: Mutex<EpochState>,
    trace_drop_counter: Counter,
}

impl ObsHub {
    pub fn new(trace_capacity: usize) -> Arc<ObsHub> {
        let registry = MetricRegistry::new();
        // Mirrored from the ring at every epoch mark so the anomaly
        // rules see per-epoch drop bursts, not just a lifetime total.
        let trace_drop_counter = registry.counter("obs.trace_dropped");
        Arc::new(ObsHub {
            registry,
            trace: TraceRing::new(trace_capacity),
            now_ns: AtomicU64::new(0),
            epochs: Mutex::new(EpochState {
                last: MetricsSnapshot::default(),
                deltas: Vec::new(),
                discarded: 0,
                drops_marked: 0,
            }),
            trace_drop_counter,
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

    /// Close the current epoch window: snapshot all metrics, log the
    /// delta against the previous epoch boundary. Driven by the buffer
    /// manager's epoch boundary.
    pub fn mark_epoch(&self) {
        let mut e = self.epochs.lock().unwrap();
        // Fold new ring drops into the mirror counter under the lock,
        // *before* snapshotting, so the delta attributes them to the
        // closing window.
        let drops = self.trace.dropped();
        self.trace_drop_counter.add(drops - e.drops_marked);
        e.drops_marked = drops;
        let snap = self.registry.snapshot();
        let delta = snap.delta(&e.last);
        e.last = snap;
        if e.deltas.len() >= MAX_EPOCH_DELTAS {
            e.deltas.remove(0);
            e.discarded += 1;
        }
        e.deltas.push(delta);
    }

    /// The logged epoch deltas (oldest first).
    pub fn epoch_deltas(&self) -> Vec<MetricsSnapshot> {
        self.epochs.lock().unwrap().deltas.clone()
    }

    /// Epoch windows logged / discarded to the cap.
    pub fn epoch_counts(&self) -> (usize, u64) {
        let e = self.epochs.lock().unwrap();
        (e.deltas.len(), e.discarded)
    }

    /// Cumulative point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Drain the trace ring (destructive, FIFO).
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        self.trace.drain()
    }

    /// Drain the trace ring into a Chrome-trace JSON document.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.drain_trace())
    }

    /// Cumulative snapshot + per-epoch deltas as one JSON document.
    pub fn metrics_json(&self) -> String {
        let snap = self.snapshot();
        let deltas = self.epoch_deltas();
        let mut out = String::from("{\n  \"snapshot\": ");
        out.push_str(&snap.to_json());
        out.push_str(",\n  \"epoch_deltas\": [");
        for (i, d) in deltas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&d.to_json());
        }
        let (epochs, discarded) = self.epoch_counts();
        out.push_str(&format!(
            "\n  ],\n  \"trace_dropped\": {},\n  \"epochs_logged\": {},\n  \"epochs_discarded\": {}\n}}\n",
            self.trace_dropped(),
            epochs,
            discarded
        ));
        out
    }

    /// Plain-text summary of the cumulative snapshot.
    pub fn summary_text(&self) -> String {
        self.snapshot().summary_text()
    }
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (epochs, discarded) = self.epoch_counts();
        f.debug_struct("ObsHub")
            .field("now_ns", &self.now())
            .field("trace_capacity", &self.trace.capacity())
            .field("trace_dropped", &self.trace_dropped())
            .field("epochs", &epochs)
            .field("epochs_discarded", &discarded)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        hub.mark_epoch();
        hits.inc();
        let (epochs, discarded) = hub.epoch_counts();
        assert_eq!((epochs, discarded), (1, 0));
        assert_eq!(hub.epoch_deltas()[0].counters["cache.hits"], 1);
        assert_eq!(hub.snapshot().counters["cache.hits"], 2);
        let trace = hub.chrome_trace_json();
        assert!(trace.contains("miss_fill"));
        assert!(trace.contains("\"blocks\":4"));
        let metrics = hub.metrics_json();
        assert!(metrics.contains("\"epoch_deltas\""));
        assert!(hub.summary_text().contains("cache.hits"));
    }

    #[test]
    fn epoch_marks_mirror_ring_drops_into_a_counter() {
        let hub = ObsHub::new(2);
        let id = hub.intern("e", None, None);
        for _ in 0..5 {
            hub.instant(id, 0, 0, 0, 0);
        }
        hub.mark_epoch();
        assert_eq!(hub.epoch_deltas()[0].counters["obs.trace_dropped"], 3);
        for _ in 0..2 {
            hub.instant(id, 0, 0, 0, 0);
        }
        hub.mark_epoch();
        assert_eq!(hub.epoch_deltas()[1].counters["obs.trace_dropped"], 2);
        assert_eq!(hub.snapshot().counters["obs.trace_dropped"], 5);
        let json = hub.metrics_json();
        assert!(json.contains("\"epochs_logged\": 2"));
        assert!(json.contains("\"epochs_discarded\": 0"));
        assert!(json.contains("\"trace_dropped\": 5"));
    }

    #[test]
    fn epoch_delta_log_is_bounded() {
        let hub = ObsHub::new(4);
        let c = hub.registry().counter("c");
        for _ in 0..(MAX_EPOCH_DELTAS + 10) {
            c.inc();
            hub.mark_epoch();
        }
        let (epochs, discarded) = hub.epoch_counts();
        assert_eq!(epochs, MAX_EPOCH_DELTAS);
        assert_eq!(discarded, 10);
    }

    proptest! {
        // The epoch-aligned export invariant: over any interleaving of
        // metric activity and epoch boundaries, the per-epoch deltas sum
        // back to the cumulative totals.
        #[test]
        fn epoch_deltas_sum_to_cumulative_totals(
            ops in collection::vec((0u8..4, 0u64..1_000), 1..300),
        ) {
            let hub = ObsHub::new(16);
            let c = hub.registry().counter("c");
            let g = hub.registry().gauge("g");
            let h = hub.registry().histogram("h");
            for (kind, v) in ops {
                match kind {
                    0 => c.add(v),
                    1 => g.set(v),
                    2 => h.record(v),
                    _ => hub.mark_epoch(),
                }
            }
            // Close the final window so every increment is in some delta.
            hub.mark_epoch();
            let mut acc = MetricsSnapshot::default();
            for d in hub.epoch_deltas() {
                acc.accumulate(&d);
            }
            let total = hub.snapshot();
            prop_assert_eq!(&acc.counters, &total.counters);
            prop_assert_eq!(&acc.histograms, &total.histograms);
            // Gauges are levels: the accumulated value is the last set.
            prop_assert_eq!(&acc.gauges, &total.gauges);
        }
    }
}
