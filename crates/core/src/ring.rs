//! The bounded lock-free access-event ring — the side-buffer between the
//! buffer manager's lock-free hit fast path (producers: every thread
//! recording a hit, miss, probe or recency touch) and the replacement
//! policy (consumer: whoever next takes the policy lock drains the ring
//! in FIFO order via [`RankedTable::drain`]).
//!
//! The queue itself is `kcache-obs`'s [`SlotRing`] (the bounded Vyukov
//! MPMC ring the trace ring also uses); this file is only the
//! [`AccessEvent`] ⇄ three-word encoding and the overflow policy.
//!
//! When the ring fills (a long pure-hit run with nothing draining it),
//! the *producer becomes the drainer*: the manager takes the policy lock,
//! drains, and applies its own event inline. Nothing is ever dropped —
//! that is what keeps drained accounting observation-equivalent to the
//! eager path — and memory stays bounded at `CAPACITY` events.
//!
//! [`RankedTable::drain`]: kcache_policy::RankedTable::drain

use kcache_obs::SlotRing;
use kcache_policy::{AccessEvent, AccessKind, AppId};

/// Events the ring holds before a producer is forced to drain inline.
/// 1024 events ≈ one drain per thousand pure hits worst-case — the
/// amortized lock traffic the fast path is allowed to keep. Also the
/// per-call pop budget of the manager's `drain_locked`: a drainer that
/// kept popping while producers kept publishing could hold the policy
/// lock (and grow its batch) without bound.
pub(crate) const CAPACITY: usize = 1024;

fn encode_kind(kind: AccessKind) -> u64 {
    match kind {
        AccessKind::Hit => 0,
        AccessKind::ProbeHit => 1,
        AccessKind::Miss => 2,
        AccessKind::Touch => 3,
    }
}

fn decode_kind(raw: u64) -> AccessKind {
    match raw {
        0 => AccessKind::Hit,
        1 => AccessKind::ProbeHit,
        2 => AccessKind::Miss,
        _ => AccessKind::Touch,
    }
}

/// A slot is `[key, frame << 32 | app, kind]`.
pub(crate) struct EventRing(SlotRing<3>);

impl EventRing {
    pub(crate) fn new() -> EventRing {
        EventRing(SlotRing::new(CAPACITY))
    }

    /// How many pushes were refused because the ring was full (the
    /// producer-becomes-drainer event). Nothing is lost — the refused
    /// event is applied inline — but each occurrence is a recency window
    /// where hits convoyed on the policy lock; observability wants them
    /// countable.
    pub(crate) fn overflows(&self) -> u64 {
        self.0.refused()
    }

    /// Enqueue `ev`; `false` means the ring is full and the caller must
    /// drain (producer-becomes-drainer, see module docs).
    pub(crate) fn push(&self, ev: AccessEvent) -> bool {
        self.0.push([ev.key, ((ev.frame as u64) << 32) | ev.app.0 as u64, encode_kind(ev.kind)])
    }

    /// Dequeue the oldest event, `None` when empty. The manager only pops
    /// while holding the policy lock, so batches apply in order.
    pub(crate) fn pop(&self) -> Option<AccessEvent> {
        self.0.pop().map(|[key, fa, kind]| AccessEvent {
            kind: decode_kind(kind),
            frame: (fa >> 32) as u32,
            key,
            app: AppId(fa as u32),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_round_trip() {
        let r = EventRing::new();
        assert!(r.pop().is_none());
        assert!(r.push(AccessEvent::hit(7, 1234, AppId(3))));
        assert!(r.push(AccessEvent::miss(AppId(1))));
        assert!(r.push(AccessEvent::touch(9, 88, AppId::UNKNOWN)));
        assert!(r.push(AccessEvent::probe_hit(AppId(2))));
        assert_eq!(r.pop(), Some(AccessEvent::hit(7, 1234, AppId(3))));
        assert_eq!(r.pop(), Some(AccessEvent::miss(AppId(1))));
        assert_eq!(r.pop(), Some(AccessEvent::touch(9, 88, AppId::UNKNOWN)));
        assert_eq!(r.pop(), Some(AccessEvent::probe_hit(AppId(2))));
        assert!(r.pop().is_none());
    }

    #[test]
    fn fills_and_recovers() {
        let r = EventRing::new();
        for i in 0..CAPACITY {
            assert!(r.push(AccessEvent::hit(i as u32, i as u64, AppId(0))), "push {i}");
        }
        assert!(!r.push(AccessEvent::miss(AppId(0))), "full ring must refuse");
        assert_eq!(r.overflows(), 1, "the refusal is counted");
        // Drain half, refill: the ring wraps cleanly.
        for i in 0..CAPACITY / 2 {
            assert_eq!(r.pop().unwrap().frame, i as u32);
        }
        for i in 0..CAPACITY / 2 {
            assert!(r.push(AccessEvent::touch(i as u32, 0, AppId(1))));
        }
        assert!(!r.push(AccessEvent::miss(AppId(0))));
        assert_eq!(r.overflows(), 2);
        let mut n = 0;
        while r.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, CAPACITY);
    }

    #[test]
    fn concurrent_producers_and_consumer_lose_nothing() {
        use std::sync::atomic::{AtomicU64 as Counter, Ordering};
        let r = EventRing::new();
        let produced = Counter::new(0);
        let consumed = Counter::new(0);
        let refused = Counter::new(0);
        let per_thread = 20_000u64;
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let (r, produced, refused) = (&r, &produced, &refused);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let ev = AccessEvent::hit(t, i, AppId(t));
                        loop {
                            if r.push(ev) {
                                produced.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            refused.fetch_add(1, Ordering::Relaxed);
                            // Full: in the manager the producer would
                            // drain; here the consumer thread catches up.
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let (r, consumed, produced) = (&r, &consumed, &produced);
            s.spawn(move || loop {
                match r.pop() {
                    Some(_) => {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        if produced.load(Ordering::Relaxed) == 4 * per_thread
                            && consumed.load(Ordering::Relaxed) == 4 * per_thread
                        {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        });
        assert_eq!(consumed.load(Ordering::Relaxed), 4 * per_thread);
        // Every refused push — and only those — hit the overflow counter.
        assert_eq!(r.overflows(), refused.load(Ordering::Relaxed));
    }
}
