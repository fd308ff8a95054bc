//! Hot-path metric cells: counters, gauges, and fixed-bucket log-scale
//! histograms.
//!
//! Everything in this file is a plain relaxed atomic — **no mutex, no
//! spin, no fallback slow path** — because these cells sit on the cache
//! hit path, where the budget is one relaxed RMW per increment
//! (mirroring the `RefWords` discipline from the lock-free hit fast
//! path). CI greps this file to keep it that way; registration,
//! snapshotting, and export (which may take locks) live in
//! `registry.rs`.

use crate::ring::CacheLine;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Stripes per counter. Concurrent writers on a single shared cell would
/// serialize on its cache line — a measurable tax on a multi-threaded
/// hit storm even with relaxed ordering — so each thread increments its
/// own stripe, a [`CacheLine`] each (stripes sharing lines would buy
/// nothing), and readers sum. Power of two so stripe selection is a mask.
pub const COUNTER_STRIPES: usize = 8;

/// Round-robin stripe assignment, one slot per thread, fixed at the
/// thread's first increment. A thread-local read per `inc` is the whole
/// lookup cost; threads created later reuse slots (mod the stripe
/// count), which only degrades back toward sharing, never past it.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's stripe, in `0..COUNTER_STRIPES` (8) — the workspace's one
/// per-thread stripe index.
#[inline]
pub fn stripe_index() -> usize {
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_STRIPE.fetch_add(1, Relaxed) & (COUNTER_STRIPES - 1);
            s.set(v);
            v
        }
    })
}

/// Monotonic event counter, striped across padded per-thread cells.
/// Cloning shares the cells. `get` sums the stripes; each stripe is
/// monotonic under relaxed loads, so `get` is monotonic too, though a
/// sum taken during concurrent increments is a valid-but-racy point
/// between the stripes' individual timelines (fine for metrics).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<[CacheLine<AtomicU64>; COUNTER_STRIPES]>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0[stripe_index()].0.fetch_add(n, Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.iter().map(|c| c.0.load(Relaxed)).sum()
    }
}

/// Last-write-wins level gauge (e.g. directory size, resident frames).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Bucket count of the log-scale histogram: bucket `i` holds values
/// whose bit length is `i` (i.e. `v == 0` → bucket 0, otherwise
/// `v ∈ [2^(i-1), 2^i)` → bucket `i`), so 64-bit nanosecond latencies
/// always fit and `record` is a `leading_zeros` plus one relaxed add.
pub const HIST_BUCKETS: usize = 65;

#[derive(Debug)]
pub(crate) struct HistCells {
    pub(crate) buckets: [AtomicU64; HIST_BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
}

/// Fixed-bucket log2 latency/depth histogram. Cloning shares the cells.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistCells>);

impl Histogram {
    pub fn new() -> Histogram {
        Histogram(Arc::new(HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Which bucket a value lands in: its bit length.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[Self::bucket_of(v)].fetch_add(1, Relaxed);
        self.0.count.fetch_add(1, Relaxed);
        self.0.sum.fetch_add(v, Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Relaxed)
    }

    pub(crate) fn load_buckets(&self) -> Vec<u64> {
        self.0.buckets.iter().map(|b| b.load(Relaxed)).collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(9);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_bucketing() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        let h = Histogram::new();
        h.record(0);
        h.record(3);
        h.record(3);
        h.record(1 << 40);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 6 + (1 << 40));
        let b = h.load_buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[2], 2);
        assert_eq!(b[41], 1);
    }
}
