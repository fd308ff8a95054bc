//! The workspace's one bounded lock-free slot ring.
//!
//! The classic bounded MPMC sequence-number queue (Vyukov): each slot
//! carries a sequence word that encodes whether the slot is writable
//! (seq == pos), readable (seq == pos + 1), or lapped. Producers claim a
//! slot with one CAS and publish with one release store; a consumer
//! claims with one CAS and releases the slot for the next lap. The
//! payload is `W` plain atomic words rather than an `UnsafeCell` — the
//! protocol already orders the accesses, and it keeps the implementation
//! `forbid(unsafe_code)`-clean.
//!
//! A full ring **refuses** the push and counts the refusal; what a
//! refusal means is the caller's business. The trace ring drops the
//! event (tracing is lossy by design).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// `T` on a cache line of its own, so a thread writing it never
/// invalidates the line a neighbouring field is being read from.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct CacheLine<T>(pub T);

impl<T> std::ops::Deref for CacheLine<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

struct Slot<const W: usize> {
    /// Vyukov sequence word (see module docs).
    seq: AtomicUsize,
    words: [AtomicU64; W],
}

/// Bounded MPMC ring of `[u64; W]` payloads.
pub struct SlotRing<const W: usize> {
    slots: Vec<Slot<W>>,
    // A line each: producers write `enqueue`, the consumer `dequeue`, and
    // only an overflowing producer `refused`.
    enqueue: CacheLine<AtomicUsize>,
    dequeue: CacheLine<AtomicUsize>,
    refused: CacheLine<AtomicU64>,
}

impl<const W: usize> SlotRing<W> {
    /// `capacity` is rounded up to a power of two (sequence arithmetic
    /// requires it).
    pub fn new(capacity: usize) -> SlotRing<W> {
        let cap = capacity.max(2).next_power_of_two();
        SlotRing {
            slots: (0..cap)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            enqueue: CacheLine(AtomicUsize::new(0)),
            dequeue: CacheLine(AtomicUsize::new(0)),
            refused: CacheLine(AtomicU64::new(0)),
        }
    }

    /// Pushes refused because the ring was full.
    pub fn refused(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }

    /// Enqueue one payload: one CAS + relaxed stores. `false` means the
    /// ring was full; the refusal is counted and nothing was stored.
    pub fn push(&self, words: [u64; W]) -> bool {
        let mask = self.slots.len() - 1;
        let mut pos = self.enqueue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        for (cell, w) in slot.words.iter().zip(words) {
                            cell.store(w, Ordering::Relaxed);
                        }
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // A full lap behind: the ring is full.
                self.refused.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.enqueue.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeue the oldest payload, `None` when empty (or while the
    /// publishing store of the oldest push is still in flight). FIFO per
    /// producer and globally consistent with the sequence protocol.
    pub fn pop(&self) -> Option<[u64; W]> {
        let mask = self.slots.len() - 1;
        let mut pos = self.dequeue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                match self.dequeue.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
                        slot.seq.store(pos.wrapping_add(self.slots.len()), Ordering::Release);
                        return Some(words);
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue.load(Ordering::Relaxed);
            }
        }
    }
}
