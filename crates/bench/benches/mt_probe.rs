//! What two client threads share in the buffer manager — the probe behind
//! DESIGN.md "Hit-path concurrency: what two threads share". Not a gate and
//! not a trajectory file: it prints, on this machine, now.
//!
//! ```sh
//! cargo bench -p bench --bench mt_probe
//! ```
//!
//! Three questions, each answered as the range over `REPS` repetitions:
//!
//! 1. **Pure hits** on a full 300-frame pool, whole-block reads: one thread,
//!    attributed and not, then two threads on the same 200 hot keys and on
//!    disjoint halves of them. The default clock manager takes no policy
//!    lock either way; its hits only bump per-app counters.
//! 2. **The `manager_mt` streams** (perfbench's generator, seed 42: Zipf-0.9
//!    over 1 200 keys, 1/16 writes, thread 0 on flusher and harvester duty)
//!    on an obs-wired manager: contended acquisitions per miss and mean wait
//!    of each leaf lock, from `cache.lock_contended.*` / `cache.lock_wait_ns.*`.
//! 3. **The ceiling**: the same streams on one thread, on two threads sharing
//!    the manager, and on two threads with a private manager each — nothing
//!    shared, so what this machine gives two threads at best.

use kcache::{Access, AccessKind, AppId, BlockKey, BufferManager, ObsHub, Span, CACHE_BLOCK_SIZE};
use pvfs::Fid;
use sim_core::{DetRng, Zipf};
use sim_net::NodeId;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const REPS: usize = 3;
const CAPACITY: usize = 300;
const HOT_KEYS: u64 = 200;
const HITS_PER_THREAD: u64 = 1 << 20;
const STREAM_LEN: usize = 1 << 20;
const BATCH: usize = 256;

fn key(blk: u64) -> BlockKey {
    BlockKey::new(Fid(1), blk)
}

fn install(m: &BufferManager, blk: u64, app: AppId, bytes: &[u8]) {
    let kind = AccessKind::InsertClean { home: NodeId(0), span: Span::FULL, bytes };
    m.access(key(blk), Access { app, kind });
}

/// `threads` threads released together; returns the wall time from the
/// release to the last join.
fn timed<F: Fn(usize) + Sync>(threads: usize, body: F) -> f64 {
    let gate = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (gate, body) = (&gate, &body);
                s.spawn(move || {
                    gate.wait();
                    body(t);
                })
            })
            .collect();
        gate.wait();
        let start = Instant::now();
        for w in workers {
            w.join().expect("probe thread panicked");
        }
        start.elapsed().as_secs_f64()
    })
}

fn range(label: &str, unit: &str, mut sample: impl FnMut() -> f64) {
    let xs: Vec<f64> = (0..REPS).map(|_| sample()).collect();
    let (lo, hi) = xs.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    println!("{label:<58} {lo:>8.2} – {hi:<8.2} {unit}");
}

/// M hits/s of `threads` threads reading whole resident blocks; thread `t`
/// walks `HOT_KEYS / split` keys starting at `t % split` of that many.
fn pure_hits(threads: usize, split: u64, attributed: bool) -> f64 {
    let m = BufferManager::builder(CAPACITY).build();
    let bytes = vec![7u8; CACHE_BLOCK_SIZE];
    for blk in 0..HOT_KEYS {
        install(&m, blk, AppId::UNKNOWN, &bytes);
    }
    let span = HOT_KEYS / split;
    let wall = timed(threads, |t| {
        let app = if attributed { AppId(t as u32) } else { AppId::UNKNOWN };
        let base = (t as u64 % split) * span;
        let mut out = vec![0u8; CACHE_BLOCK_SIZE];
        for i in 0..HITS_PER_THREAD {
            let read = AccessKind::Read { span: Span::FULL, out: &mut out };
            assert!(m.access(key(base + (i * 7) % span), Access { app, kind: read }).is_hit());
        }
    });
    (threads as u64 * HITS_PER_THREAD) as f64 / wall / 1e6
}

/// perfbench's `op_stream`: `(block, is_write)`.
fn op_stream(seed: u64, thread: usize) -> Vec<(u64, bool)> {
    let mut rng = DetRng::stream(seed, 0x4D54_0000 + thread as u64);
    let zipf = Zipf::new(1200, 0.9);
    (0..STREAM_LEN)
        .map(|_| {
            let rank = zipf.sample(&mut rng) as u64;
            (rank * 7919 % 1200, rng.below(16) == 0)
        })
        .collect()
}

/// Replay one batch as application `app`; thread 0's background duty is
/// the caller's.
fn replay(m: &BufferManager, ops: &[(u64, bool)], app: AppId, out: &mut [u8], bytes: &[u8]) {
    for &(blk, write) in ops {
        if write {
            let kind = AccessKind::Write { home: NodeId(0), span: Span::FULL, bytes };
            m.access(key(blk), Access { app, kind });
        } else {
            let read = AccessKind::Read { span: Span::FULL, out };
            if !m.access(key(blk), Access { app, kind: read }).is_hit() {
                install(m, blk, app, bytes);
            }
        }
    }
}

fn background_turn(m: &BufferManager) {
    let mut items = m.take_dirty(64);
    if m.needs_harvest() {
        items.extend(m.harvest());
    }
    for it in items {
        m.flush_complete(it.key, it.span);
    }
}

/// M ops/s of both streams: on one thread (alternating batches, as the
/// benchmark's reference replay does), or on two — sharing `managers[0]`
/// or with one each.
fn streams(streams: &[Vec<(u64, bool)>; 2], threads: usize, managers: &[BufferManager]) -> f64 {
    let bytes = vec![7u8; CACHE_BLOCK_SIZE];
    let wall = timed(threads, |t| {
        let m = &managers[t % managers.len()];
        let mut out = vec![0u8; CACHE_BLOCK_SIZE];
        for b in 0..STREAM_LEN / BATCH {
            let mine = if threads == 1 { 0..2 } else { t..t + 1 };
            for s in mine {
                replay(m, &streams[s][b * BATCH..][..BATCH], AppId(s as u32), &mut out, &bytes);
                if s == 0 || managers.len() > 1 {
                    background_turn(m);
                }
            }
        }
    });
    (2 * STREAM_LEN) as f64 / wall / 1e6
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available_parallelism = {cores}; ranges over {REPS} repetitions\n");

    println!("pure hits, whole-block reads, {HOT_KEYS} resident hot keys:");
    range("  1 thread, attributed", "M hits/s", || pure_hits(1, 1, true));
    range("  1 thread, unattributed", "M hits/s", || pure_hits(1, 1, false));
    range("  2 threads, shared keys, attributed", "M hits/s", || pure_hits(2, 1, true));
    range("  2 threads, disjoint keys, attributed", "M hits/s", || pure_hits(2, 2, true));

    let inputs = [op_stream(42, 0), op_stream(42, 1)];
    let fresh = |n: usize| -> Vec<BufferManager> {
        (0..n).map(|_| BufferManager::builder(CAPACITY).build()).collect()
    };
    println!("\nmanager_mt streams (seed 42), {CAPACITY} frames:");
    range("  1 thread, both streams", "M ops/s", || streams(&inputs, 1, &fresh(1)));
    range("  2 threads, one shared manager", "M ops/s", || streams(&inputs, 2, &fresh(1)));
    range("  2 threads, a private manager each (ceiling)", "M ops/s", || {
        streams(&inputs, 2, &fresh(2))
    });

    println!("\nleaf locks, 2 threads on one obs-wired manager, per repetition:");
    for _ in 0..REPS {
        let hub = ObsHub::new(1024);
        let m = [BufferManager::builder(CAPACITY).obs(Some(Arc::clone(&hub)), 0).build()];
        let mops = streams(&inputs, 2, &m);
        let misses = m[0].stats().misses as f64;
        print!("  {mops:.2} M ops/s;");
        for lock in ["policy", "free", "dirty", "charges"] {
            let contended = hub.registry().counter(&format!("cache.lock_contended.{lock}")).get();
            let wait = hub.registry().histogram(&format!("cache.lock_wait_ns.{lock}"));
            print!(
                " {lock}: {:.3}/miss, {:.0} ns;",
                contended as f64 / misses,
                wait.sum() as f64 / contended.max(1) as f64
            );
        }
        println!();
    }
}
