//! Per-layer host-time micro-loops ("H" metrics): one thread, batches of
//! at least 1 024 units, median of 5 batches (1 in a smoke run). They put
//! a host-clock price on one unit of each layer's work, so that a layer's
//! share of a workload's wall time can be estimated from its sim-clock
//! counters.

use crate::adapter::manager::{Manager, ManagerKind, BLOCK_SIZE};
use crate::adapter::substrate::{
    disk_batch, engine_ping_pong, fabric_transfer, split_ranges_batch, ObsLoad,
};
use crate::report::POLICIES;
use crate::stats::median;
use crate::workloads::{Size, MT_CAPACITY};
use std::hint::black_box;
use std::time::Instant;

/// Manager accesses per batch.
const OPS: u64 = 4096;
/// Blocks dirtied between two flusher turns in the write loop.
const WRITE_ROUND: u64 = 128;

/// Nanoseconds per unit of every micro-loop.
#[derive(Debug, Clone)]
pub struct Micro {
    pub engine_ns_per_event: f64,
    pub fabric_ns_per_frame: f64,
    pub disk_ns_per_request: f64,
    pub split_ranges_ns: f64,
    pub hit_ns: f64,
    pub probe_ns: f64,
    pub miss_insert_ns: f64,
    pub write_absorb_ns: f64,
    pub flush_cycle_ns: f64,
    /// In [`POLICIES`] order.
    pub policy_hit_ns: Vec<f64>,
    pub policy_insert_evict_ns: Vec<f64>,
    pub adaptive_hit_ns: f64,
    pub adaptive_insert_evict_ns: f64,
    pub counter_add_ns: f64,
    pub histogram_record_ns: f64,
    pub trace_push_ns: f64,
}

/// Median over `batches` batches of ns per unit; `batch` returns
/// `(seconds, units)` of one timed batch (set-up excluded).
fn ns_per_unit(batches: usize, mut batch: impl FnMut() -> (f64, u64)) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let (secs, units) = batch();
            assert!(units >= 1024, "micro-loop batch of {units} units");
            secs * 1e9 / units as f64
        })
        .collect();
    median(&samples)
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// A manager with every frame holding a clean block `0..capacity`.
fn filled(kind: ManagerKind, block: &[u8]) -> Manager {
    let m = Manager::build(MT_CAPACITY, kind);
    for blk in 0..MT_CAPACITY as u64 {
        m.insert_clean(blk, 0, block);
    }
    m
}

/// `access` (a read or a probe that must hit) over a resident set.
fn resident_ns(
    batches: usize,
    kind: ManagerKind,
    block: &[u8],
    access: impl Fn(&Manager, u64, &mut [u8]) -> bool,
) -> f64 {
    let m = filled(kind, block);
    let mut out = vec![0u8; BLOCK_SIZE];
    let mut i = 0u64;
    ns_per_unit(batches, || {
        let (secs, ()) = timed(|| {
            for _ in 0..OPS {
                i = (i + 7) % MT_CAPACITY as u64;
                assert!(access(&m, black_box(i), &mut out));
            }
        });
        (secs, OPS)
    })
}

fn hit_ns(batches: usize, kind: ManagerKind, block: &[u8]) -> f64 {
    resident_ns(batches, kind, block, |m, blk, out| m.read_hit(blk, 0, out))
}

/// Installs of never-seen blocks into a full manager: each one evicts.
fn insert_evict_ns(batches: usize, kind: ManagerKind, block: &[u8]) -> f64 {
    let m = filled(kind, block);
    let mut next = MT_CAPACITY as u64;
    ns_per_unit(batches, || {
        let (secs, ()) = timed(|| {
            for _ in 0..OPS {
                next += 1;
                black_box(m.insert_clean(black_box(next), 0, block));
            }
        });
        (secs, OPS)
    })
}

pub fn run(size: Size) -> Micro {
    let batches = match size {
        Size::Full => 5,
        Size::Smoke => 1,
    };
    let block = vec![0xABu8; BLOCK_SIZE];
    let pattern = |_blk: u64| &block[..];

    let engine_ns_per_event = ns_per_unit(batches, || {
        let load = engine_ping_pong(100_000);
        let (secs, events) = timed(|| load.run());
        (secs, events)
    });
    let fabric_ns_per_frame = ns_per_unit(batches, || {
        let load = fabric_transfer(2 << 20);
        let (secs, frames) = timed(|| load.run());
        (secs, frames)
    });
    let disk_ns_per_request = ns_per_unit(batches, || {
        let load = disk_batch(1024);
        let (secs, requests) = timed(|| load.run());
        (secs, requests)
    });
    let split_ranges_ns = ns_per_unit(batches, || {
        let (secs, produced) = timed(|| split_ranges_batch(1024));
        black_box(produced);
        (secs, 1024)
    });

    let probe_ns =
        resident_ns(batches, ManagerKind::Default, &block, |m, blk, _| m.probe_hit(blk, 0));
    // The miss path of a read: the failed lookup plus the install (and
    // eviction) that follows when the fetch returns.
    let miss_insert_ns = {
        let m = filled(ManagerKind::Default, &block);
        let mut out = vec![0u8; BLOCK_SIZE];
        let mut next = MT_CAPACITY as u64;
        ns_per_unit(batches, || {
            let (secs, ()) = timed(|| {
                for _ in 0..OPS {
                    next += 1;
                    black_box(m.read_or_fill(black_box(next), 0, &mut out, pattern));
                }
            });
            (secs, OPS)
        })
    };
    // Write-behind: dirty a round of blocks, then one flusher turn takes
    // and completes them; the two halves are timed apart.
    let (mut write_samples, mut flush_samples) = (Vec::new(), Vec::new());
    for _ in 0..batches {
        let m = Manager::build(MT_CAPACITY, ManagerKind::Default);
        let (mut write_s, mut flush_s, mut flushed) = (0.0, 0.0, 0);
        let rounds = 1024 / WRITE_ROUND;
        for _ in 0..rounds {
            let (secs, ()) = timed(|| {
                for blk in 0..WRITE_ROUND {
                    assert!(m.write_absorbed(black_box(blk), 0, &block));
                }
            });
            write_s += secs;
            let (secs, (blocks, bad)) = timed(|| m.flush_turn(WRITE_ROUND as usize, pattern));
            assert_eq!(bad, 0);
            flush_s += secs;
            flushed += blocks;
        }
        assert_eq!(flushed, rounds * WRITE_ROUND);
        write_samples.push(write_s * 1e9 / flushed as f64);
        flush_samples.push(flush_s * 1e9 / flushed as f64);
    }

    let obs = ObsLoad::new();
    let counter_add_ns = ns_per_unit(batches, || (timed(|| obs.counter_adds(OPS as u32)).0, OPS));
    let histogram_record_ns =
        ns_per_unit(batches, || (timed(|| obs.histogram_records(OPS as u32)).0, OPS));
    let trace_push_ns = ns_per_unit(batches, || {
        obs.drain_trace();
        (timed(|| obs.trace_pushes(OPS as u32)).0, OPS)
    });

    let kinds = (0..POLICIES.len()).map(ManagerKind::Policy);
    Micro {
        engine_ns_per_event,
        fabric_ns_per_frame,
        disk_ns_per_request,
        split_ranges_ns,
        hit_ns: hit_ns(batches, ManagerKind::Default, &block),
        probe_ns,
        miss_insert_ns,
        write_absorb_ns: median(&write_samples),
        flush_cycle_ns: median(&flush_samples),
        policy_hit_ns: kinds.clone().map(|k| hit_ns(batches, k, &block)).collect(),
        policy_insert_evict_ns: kinds.map(|k| insert_evict_ns(batches, k, &block)).collect(),
        adaptive_hit_ns: hit_ns(batches, ManagerKind::Adaptive, &block),
        adaptive_insert_evict_ns: insert_evict_ns(batches, ManagerKind::Adaptive, &block),
        counter_add_ns,
        histogram_record_ns,
        trace_push_ns,
    }
}
