//! The bounded lock-free access-event rings — the side-buffer between the
//! buffer manager's lock-free hit fast path (producers: every thread
//! recording a hit, miss, probe or recency touch) and the replacement
//! policy (consumer: whoever next takes the policy lock drains the rings
//! via [`RankedTable::drain`]).
//!
//! **Who uses it.** Every shard ranked by exact-LRU, LFU, 2Q, ARC or
//! sharing-aware (their `on_access` replay and per-app ledger come from
//! it), and every adaptive shard whatever its live policy (the ghosts feed
//! from it). A static clock shard ranks from the ref words alone and
//! counts its hits and misses per app off the ring; only an app id past
//! that count table's bound still pushes here.
//!
//! Each queue is `kcache-obs`'s [`SlotRing`] (the bounded Vyukov MPMC ring
//! the trace ring also uses); this file is only the [`AccessEvent`] ⇄
//! three-word encoding, the striping and the overflow policy.
//!
//! **Striped per producer.** One ring would make every attributed hit of
//! every thread CAS the same cursor; instead a producer pushes into the
//! stripe its thread's [`kcache_obs::stripe_index`] selects (the index the
//! striped metric counters already keep), and a drain pops stripe by
//! stripe. Order is therefore **FIFO per producer** — all two racing
//! threads ever had — and *the* FIFO under a single thread, which fills
//! one stripe only (the simulator; every differential test).
//!
//! When a producer's stripe fills (a long pure-hit run with nothing
//! draining it), the *producer becomes the drainer*: the manager takes the
//! policy lock, drains, and applies its own event inline. Nothing is ever
//! dropped — that is what keeps drained accounting observation-equivalent
//! to applying each event as it happens — and memory stays bounded at
//! `STRIPES × CAPACITY` events.
//!
//! [`RankedTable::drain`]: kcache_policy::RankedTable::drain

use kcache_obs::{stripe_index, SlotRing};
use kcache_policy::{AccessEvent, AccessKind, AppId};

/// Events a stripe holds before its producer is forced to drain inline.
/// 1024 events ≈ one drain per thousand pure hits worst-case — the
/// amortized lock traffic the fast path is allowed to keep. Also the
/// per-stripe pop budget of one [`EventRing::drain_into`]: a drainer that
/// kept popping while producers kept publishing could hold the policy
/// lock (and grow its batch) without bound.
const CAPACITY: usize = 1024;

/// Stripes per ring (a power of two dividing the stripe-index range):
/// enough for the client threads of a node plus its flusher and harvester
/// to push without sharing a cursor; more threads share stripes, which
/// degrades toward the single ring, never past it.
const STRIPES: usize = 4;

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

/// A slot is `[key, frame << 32 | app, kind]`. Each [`SlotRing`] is
/// cache-line aligned (its cursors are), so stripes share no line.
pub(crate) struct EventRing([SlotRing<3>; STRIPES]);

impl EventRing {
    pub(crate) fn new() -> EventRing {
        EventRing(std::array::from_fn(|_| SlotRing::new(CAPACITY)))
    }

    /// How many pushes were refused because the producer's stripe was
    /// full (the producer-becomes-drainer event). Nothing is lost — the
    /// refused event is applied inline — but each occurrence is a recency
    /// window where hits convoyed on the policy lock; observability wants
    /// them countable.
    pub(crate) fn overflows(&self) -> u64 {
        self.0.iter().map(SlotRing::refused).sum()
    }

    /// Enqueue `ev` on the calling thread's stripe; `false` means the
    /// stripe is full and the caller must drain (producer-becomes-drainer,
    /// see module docs).
    pub(crate) fn push(&self, ev: AccessEvent) -> bool {
        self.0[stripe_index() % STRIPES].push([
            ev.key,
            ((ev.frame as u64) << 32) | ev.app.0 as u64,
            encode_kind(ev.kind),
        ])
    }

    /// Append the queued events to `out`, oldest first within each stripe,
    /// at most [`CAPACITY`] per stripe. The calling thread's own stripe
    /// goes first: a producer draining because its stripe refused a push
    /// empties that stripe, so the refused event it then applies inline
    /// stays behind everything it pushed earlier. The manager only drains
    /// while holding the policy lock, so batches apply in order.
    pub(crate) fn drain_into(&self, out: &mut Vec<AccessEvent>) {
        let own = stripe_index();
        for i in 0..STRIPES {
            let stripe = &self.0[(own + i) % STRIPES];
            for _ in 0..CAPACITY {
                let Some([key, fa, kind]) = stripe.pop() else { break };
                out.push(AccessEvent {
                    kind: decode_kind(kind),
                    frame: (fa >> 32) as u32,
                    key,
                    app: AppId(fa as u32),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(r: &EventRing) -> Vec<AccessEvent> {
        let mut out = Vec::new();
        r.drain_into(&mut out);
        out
    }

    #[test]
    fn fifo_round_trip() {
        let r = EventRing::new();
        assert!(drained(&r).is_empty());
        let events = [
            AccessEvent::hit(7, 1234, AppId(3)),
            AccessEvent::miss(AppId(1)),
            AccessEvent::touch(9, 88, AppId::UNKNOWN),
            AccessEvent::probe_hit(AppId(2)),
        ];
        for ev in events {
            assert!(r.push(ev));
        }
        assert_eq!(drained(&r), events);
        assert!(drained(&r).is_empty());
    }

    /// One producer fills one stripe: exactly the single ring's behaviour
    /// (`CAPACITY` accepted, the next refused, one drain empties it), which
    /// is what keeps a single-threaded run overflowing at the same events.
    #[test]
    fn fills_and_recovers() {
        let r = EventRing::new();
        for lap in 1..=2u64 {
            for i in 0..CAPACITY {
                assert!(r.push(AccessEvent::hit(i as u32, lap, AppId(0))), "lap {lap} push {i}");
            }
            assert!(!r.push(AccessEvent::miss(AppId(0))), "a full stripe must refuse");
            assert_eq!(r.overflows(), lap, "the refusal is counted");
            // The second lap wraps the slot array.
            let got = drained(&r);
            assert_eq!(got.len(), CAPACITY, "one drain empties the stripe");
            assert!(got.iter().enumerate().all(|(i, ev)| (ev.frame, ev.key) == (i as u32, lap)));
        }
    }

    /// Four producers (sharing stripes or not — the thread-to-stripe map
    /// is the process's) and one drainer: every producer's events come out
    /// in the order it pushed them, none is lost, and every refused push —
    /// and only those — is counted.
    #[test]
    fn concurrent_producers_and_consumer_lose_nothing() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        const PRODUCERS: u32 = 4;
        const PER_PRODUCER: u64 = 20_000;
        let r = EventRing::new();
        let refused = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let mut seen = Vec::new();
        std::thread::scope(|s| {
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|t| {
                    let (r, refused) = (&r, &refused);
                    s.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            // Full: in the manager the producer would
                            // drain; here the drainer thread catches up.
                            while !r.push(AccessEvent::hit(t, i, AppId(t))) {
                                refused.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            let drainer = s.spawn(|| {
                let mut seen = Vec::new();
                while !done.load(Ordering::Acquire) {
                    r.drain_into(&mut seen);
                    std::thread::yield_now();
                }
                r.drain_into(&mut seen);
                seen
            });
            for p in producers {
                p.join().expect("producer panicked");
            }
            done.store(true, Ordering::Release);
            seen = drainer.join().expect("drainer panicked");
        });
        assert_eq!(seen.len() as u64, PRODUCERS as u64 * PER_PRODUCER, "events lost or doubled");
        for t in 0..PRODUCERS {
            let keys = seen.iter().filter(|ev| ev.frame == t).map(|ev| ev.key);
            assert!(keys.eq(0..PER_PRODUCER), "producer {t}'s events left out of push order");
        }
        assert_eq!(r.overflows(), refused.load(Ordering::Relaxed));
    }
}
