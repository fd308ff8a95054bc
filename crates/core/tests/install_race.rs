//! Installs racing for the same keys, for the order the manager now keeps
//! on every install: the incoming block is **filed with the policy before
//! it is visible** in its bucket, the evicted tenant's policy-side
//! bookkeeping travels to that same hold, and a thread that loses the race
//! for the bucket un-files and recycles its frame.
//!
//! Mutation check (recorded in CHANGES.md): with `Shard::unfile` no longer
//! taking the block back out of the policy (`push_free` + `uncharge`
//! only), `racing_installs_keep_policy_table_and_buckets_in_step` fails on
//! every policy with "frames the policy table files under AppId(n) and its
//! blocks: 6 != 5" (or the resident counts disagreeing) — the recycled
//! frame keeps the loser's table entry through its next tenancy.

use kcache::{
    Access, AccessKind, AppId, BlockKey, BufferManager, EvictPolicy, ObsHub, PolicyKind, Span,
    CACHE_BLOCK_SIZE,
};
use pvfs::Fid;
use sim_net::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

const CAPACITY: usize = 16;
/// Half again the pool, and every thread walks all of it: most misses are
/// on a key another thread is about to install, or just did.
const KEYS: u64 = 24;

fn key(block: u64) -> BlockKey {
    BlockKey::new(Fid(3), block)
}

/// What block `b` holds, whoever installed or wrote it.
fn fill(block: u64) -> u8 {
    (block * 29 + 3) as u8
}

/// The application a block is accessed as: a property of the block, not
/// of the thread, so that who owns a resident block is known from its key
/// — the ground truth the policy table's owner records are checked against.
fn app_of(block: u64) -> AppId {
    AppId((block % 3) as u32)
}

const PHASES: u64 = 100;
const OPS_PER_PHASE: u64 = 200;

/// `threads` clients over the same `KEYS` blocks: read, install on a miss,
/// one op in eight a write-behind absorb; thread 0 also runs the flusher
/// and the harvester. After every phase the threads meet at a barrier and
/// thread 0 checks the whole state while nothing moves. A broken invariant
/// is reported once every thread has left the barriers (a panic between
/// them would leave the others waiting for ever).
fn drive(m: &BufferManager, threads: u32, label: &str) {
    let meet = Barrier::new(threads as usize);
    let lookups = AtomicU64::new(0);
    let broken: Mutex<Option<String>> = Mutex::new(None);
    let report = |what: String| {
        broken.lock().unwrap().get_or_insert(what);
    };
    std::thread::scope(|s| {
        for t in 0..threads {
            let (meet, lookups, broken, report) = (&meet, &lookups, &broken, &report);
            s.spawn(move || {
                let mut out = vec![0u8; CACHE_BLOCK_SIZE];
                for i in 0..PHASES * OPS_PER_PHASE {
                    let block = (i * 7 + t as u64 * 5) % KEYS;
                    let app = app_of(block);
                    let bytes = vec![fill(block); CACHE_BLOCK_SIZE];
                    if i % 8 == 3 {
                        let kind =
                            AccessKind::Write { home: NodeId(0), span: Span::FULL, bytes: &bytes };
                        m.access(key(block), Access { app, kind });
                    } else {
                        lookups.fetch_add(1, Ordering::Relaxed);
                        let read = AccessKind::Read { span: Span::FULL, out: &mut out };
                        if m.access(key(block), Access { app, kind: read }).is_hit() {
                            if out.iter().any(|&b| b != fill(block)) {
                                report(format!("a hit on block {block} returned foreign bytes"));
                            }
                        } else {
                            let kind = AccessKind::InsertClean {
                                home: NodeId(0),
                                span: Span::FULL,
                                bytes: &bytes,
                            };
                            m.access(key(block), Access { app, kind });
                        }
                    }
                    if t == 0 && i % 32 == 31 {
                        let mut flushed = m.take_dirty(8);
                        if m.needs_harvest() {
                            flushed.extend(m.harvest());
                        }
                        for item in flushed {
                            if item.data.iter().any(|&b| b != fill(item.key.blk)) {
                                report(format!("block {} flushed foreign bytes", item.key.blk));
                            }
                            m.flush_complete(item.key, item.span);
                        }
                    }
                    if (i + 1) % OPS_PER_PHASE == 0 {
                        meet.wait();
                        if t == 0 {
                            if let Err(what) = check(m, lookups.load(Ordering::Relaxed)) {
                                report(format!("after {} ops per thread: {what}", i + 1));
                            }
                        }
                        meet.wait();
                        if broken.lock().unwrap().is_some() {
                            return;
                        }
                    }
                }
            });
        }
    });
    if let Some(what) = broken.into_inner().unwrap() {
        panic!("{label}: {what}");
    }
}

/// Everything that must agree while no thread is inside the manager.
fn check(m: &BufferManager, lookups: u64) -> Result<(), String> {
    let agree = |what: &str, left: u64, right: u64| {
        (left == right).then_some(()).ok_or(format!("{what}: {left} != {right}"))
    };
    let keys = m.resident_keys();
    let mut unique = keys.clone();
    unique.dedup();
    let resident = keys.len() as u64;
    agree(
        "a key is resident twice (bucket entries, distinct keys)",
        resident,
        unique.len() as u64,
    )?;
    agree("resident + free == capacity", resident + m.free_frames() as u64, CAPACITY as u64)?;
    agree("resident() and the bucket entries", m.resident() as u64, resident)?;
    // `inserts` and `removes` count residency changes of the policy's
    // frame table, so their difference is its resident count.
    let ps = m.policy_stats();
    agree("the policy table's resident count and the buckets'", ps.inserts - ps.removes, resident)?;
    let stats = m.stats();
    agree("hits + misses == lookups", stats.hits + stats.misses, lookups)?;
    agree("policy hits and manager hits", ps.hits, stats.hits)?;
    agree("policy misses and manager misses", ps.misses, stats.misses)?;
    // Every access was attributed, so the per-app ledgers sum to the
    // totals, and each app owns exactly the resident blocks that are its.
    let usage = m.app_usage();
    let sum = |f: fn(&kcache::AppUsage) -> u64| usage.iter().map(|(_, u)| f(u)).sum::<u64>();
    agree("per-app hits and total", sum(|u| u.hits), stats.hits)?;
    agree("per-app misses and total", sum(|u| u.misses), stats.misses)?;
    let evictions = stats.evictions_clean + stats.evictions_dirty;
    agree("per-app evictions and total", sum(|u| u.evictions), evictions)?;
    for (app, u) in usage {
        let owned = keys.iter().filter(|k| app_of(k.blk) == app).count() as u64;
        agree(
            &format!("frames the policy table files under {app:?} and its blocks"),
            u.resident,
            owned,
        )?;
    }
    Ok(())
}

#[test]
fn racing_installs_keep_policy_table_and_buckets_in_step() {
    let threads = 4;
    for kind in [PolicyKind::Clock, PolicyKind::Lfu, PolicyKind::Arc] {
        let m = BufferManager::builder(CAPACITY).policy(EvictPolicy::of(kind)).build();
        drive(&m, threads, kind.name());
        let stats = m.stats();
        assert!(stats.hits > 0 && stats.misses > 0, "{kind}: one-sided run: {stats:?}");
    }
}

/// The lock-wait counters: exactly zero when one thread runs (an
/// uncontended acquisition is never counted, and never reads a clock), and
/// every contended acquisition two threads make is timed. How many they
/// make is the scheduler's business — two threads that never run at the
/// same moment never contend — so the non-zero side is forced, not hoped
/// for, in `manager::shard::tests::a_held_leaf_lock_is_counted_and_its_wait_timed`;
/// this one prints what it saw (`-- --nocapture`).
#[test]
fn lock_wait_counters_are_zero_alone_and_time_every_contended_acquisition() {
    for threads in [1u32, 2] {
        let hub = ObsHub::new(1024);
        let m = BufferManager::builder(CAPACITY).obs(Some(Arc::clone(&hub)), 0).build();
        drive(&m, threads, &format!("obs-wired, {threads} thread(s)"));
        let reg = hub.registry();
        let misses = m.stats().misses;
        for lock in ["policy", "free", "dirty", "charges"] {
            let contended = reg.counter(&format!("cache.lock_contended.{lock}")).get();
            let wait = reg.histogram(&format!("cache.lock_wait_ns.{lock}"));
            assert_eq!(wait.count(), contended, "{lock}: every contended acquisition is timed");
            println!(
                "threads={threads} lock={lock}: {contended} contended acquisitions \
                 ({:.3} per miss, {misses} misses), mean wait {:.0} ns",
                contended as f64 / misses as f64,
                wait.sum() as f64 / contended.max(1) as f64,
            );
            if threads == 1 {
                assert_eq!(contended, 0, "{lock}: one thread cannot contend with itself");
            }
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!("threads={threads}: available_parallelism = {cores}");
    }
}
