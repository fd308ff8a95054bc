//! Bounded structured trace ring + Chrome-trace export.
//!
//! Events are six words in the shared [`SlotRing`] (the same ring the
//! core crate's `EventRing` encodes into): producers claim a slot with
//! one CAS on the enqueue cursor, and a full ring **drops the event and
//! counts it** — tracing is lossy by design (unlike the accounting
//! ring, where the producer becomes the drainer, a trace event carries
//! no correctness weight).
//!
//! Event names are interned once at wiring time (a mutex, cold path
//! only); the hot-path record is a handful of relaxed stores. Sim-clock
//! timestamps are nanoseconds; the exporter emits Chrome's microsecond
//! `ts`/`dur` with fractional precision, so `chrome://tracing` (or
//! Perfetto) opens the file directly.

use crate::ring::SlotRing;
use std::sync::Mutex;

/// Interned trace-event name (index into the hub's name table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId(pub(crate) u32);

/// Chrome-trace phase of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `ph: "i"` — a point in time.
    Instant,
    /// `ph: "X"` — a complete span with a duration.
    Span,
}

impl Phase {
    fn encode(self) -> u32 {
        match self {
            Phase::Instant => 0,
            Phase::Span => 1,
        }
    }

    fn decode(raw: u32) -> Phase {
        match raw {
            1 => Phase::Span,
            _ => Phase::Instant,
        }
    }
}

/// One drained trace event, names resolved.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: String,
    pub phase: Phase,
    pub ts_ns: u64,
    pub dur_ns: u64,
    /// Process lane in the trace viewer — we use the node id.
    pub pid: u32,
    /// Thread lane — we use a per-component lane id.
    pub tid: u32,
    /// Up to two named arguments (label from the interner, value raw).
    pub args: Vec<(String, u64)>,
}

struct NameEntry {
    name: String,
    arg_names: [Option<String>; 2],
}

/// Bounded MPMC trace ring with an interner for event names. A slot is
/// `[name | phase << 32, ts, dur, pid | tid << 32, arg0, arg1]`.
pub struct TraceRing {
    ring: SlotRing<6>,
    names: Mutex<Vec<NameEntry>>,
}

impl TraceRing {
    /// `capacity` is rounded up to a power of two.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing { ring: SlotRing::new(capacity), names: Mutex::new(Vec::new()) }
    }

    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.refused()
    }

    /// Intern an event name with up to two argument labels (idempotent
    /// on the name). Cold path — called at wiring time, or at epoch
    /// frequency for dynamic names.
    pub fn intern(&self, name: &str, arg0: Option<&str>, arg1: Option<&str>) -> EventId {
        let mut names = self.names.lock().unwrap();
        if let Some(i) = names.iter().position(|e| e.name == name) {
            return EventId(i as u32);
        }
        names.push(NameEntry {
            name: name.to_string(),
            arg_names: [arg0.map(str::to_string), arg1.map(str::to_string)],
        });
        EventId((names.len() - 1) as u32)
    }

    /// Record one event; on a full ring the event is dropped and
    /// counted. Hot path: one CAS + relaxed stores.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: EventId,
        phase: Phase,
        ts_ns: u64,
        dur_ns: u64,
        pid: u32,
        tid: u32,
        arg0: u64,
        arg1: u64,
    ) -> bool {
        let pack = |lo: u32, hi: u32| lo as u64 | (hi as u64) << 32;
        self.ring.push([pack(id.0, phase.encode()), ts_ns, dur_ns, pack(pid, tid), arg0, arg1])
    }

    /// Drain every buffered event (FIFO), resolving names and argument
    /// labels. Destructive: a second drain returns only newer events.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let names = self.names.lock().unwrap();
        let mut out = Vec::new();
        while let Some([name_phase, ts, dur, pid_tid, a0, a1]) = self.ring.pop() {
            let (name, pid, tid) = (name_phase as u32, pid_tid as u32, (pid_tid >> 32) as u32);
            let entry = names.get(name as usize);
            let phase = Phase::decode((name_phase >> 32) as u32);
            let mut args = Vec::new();
            if let Some(e) = entry {
                if let Some(l) = &e.arg_names[0] {
                    args.push((l.clone(), a0));
                }
                if let Some(l) = &e.arg_names[1] {
                    args.push((l.clone(), a1));
                }
            }
            out.push(TraceEvent {
                name: entry.map(|e| e.name.clone()).unwrap_or_else(|| format!("event-{name}")),
                phase,
                ts_ns: ts,
                dur_ns: dur,
                pid,
                tid,
                args,
            });
        }
        out
    }
}

/// Render drained events as a Chrome-trace (`chrome://tracing`) JSON
/// array. Timestamps convert from sim nanoseconds to the format's
/// microseconds, keeping nanosecond precision as fractions.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"name\":\"{}\",", escape_json(&e.name)));
        match e.phase {
            Phase::Span => {
                out.push_str(&format!(
                    "\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},",
                    e.ts_ns as f64 / 1000.0,
                    e.dur_ns as f64 / 1000.0
                ));
            }
            Phase::Instant => {
                out.push_str(&format!(
                    "\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},",
                    e.ts_ns as f64 / 1000.0
                ));
            }
        }
        out.push_str(&format!("\"pid\":{},\"tid\":{},\"args\":{{", e.pid, e.tid));
        for (j, (label, value)) in e.args.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape_json(label), value));
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

/// Minimal JSON string escaping for names we intern ourselves.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_drain_fifo() {
        let r = TraceRing::new(8);
        let a = r.intern("alpha", Some("x"), None);
        let b = r.intern("beta", Some("x"), Some("y"));
        assert_eq!(r.intern("alpha", None, None), a, "interning is idempotent");
        r.record(a, Phase::Instant, 100, 0, 1, 0, 7, 0);
        r.record(b, Phase::Span, 200, 50, 2, 1, 8, 9);
        let ev = r.drain();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "alpha");
        assert_eq!(ev[0].args, vec![("x".to_string(), 7)]);
        assert_eq!(ev[1].phase, Phase::Span);
        assert_eq!(ev[1].dur_ns, 50);
        assert_eq!(ev[1].args, vec![("x".to_string(), 8), ("y".to_string(), 9)]);
        assert!(r.drain().is_empty(), "drain is destructive");
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let r = TraceRing::new(4);
        let id = r.intern("e", None, None);
        for i in 0..4 {
            assert!(r.record(id, Phase::Instant, i, 0, 0, 0, 0, 0));
        }
        assert!(!r.record(id, Phase::Instant, 99, 0, 0, 0, 0, 0));
        assert!(!r.record(id, Phase::Instant, 99, 0, 0, 0, 0, 0));
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.drain().len(), 4, "buffered events survive the overflow");
        // Capacity freed: recording works again.
        assert!(r.record(id, Phase::Instant, 100, 0, 0, 0, 0, 0));
    }

    #[test]
    fn chrome_export_shapes() {
        let r = TraceRing::new(8);
        let s = r.intern("fetch", Some("blocks"), None);
        let i = r.intern("tick \"q\"", None, None);
        r.record(s, Phase::Span, 1_500, 2_000, 3, 1, 12, 0);
        r.record(i, Phase::Instant, 4_000, 0, 3, 2, 0, 0);
        let json = chrome_trace_json(&r.drain());
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"X\",\"ts\":1.500,\"dur\":2.000"));
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\",\"ts\":4.000"));
        assert!(json.contains("\"blocks\":12"));
        assert!(json.contains("tick \\\"q\\\""), "names are escaped");
    }

    #[test]
    fn concurrent_producers_lose_only_counted_events() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let r = TraceRing::new(64);
        let id = r.intern("e", None, None);
        let pushed = AtomicU64::new(0);
        std::thread::scope(|sc| {
            for t in 0..4u32 {
                let r = &r;
                let pushed = &pushed;
                sc.spawn(move || {
                    for i in 0..10_000u64 {
                        if r.record(id, Phase::Instant, i, 0, t, 0, 0, 0) {
                            pushed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let drained = r.drain().len() as u64;
        assert_eq!(drained, pushed.load(Ordering::Relaxed));
        assert_eq!(r.dropped() + pushed.load(Ordering::Relaxed), 40_000);
    }
}
