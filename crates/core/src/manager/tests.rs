//! The manager's in-crate tests: the public API end to end, plus the few
//! that reach a shard or the epoch clock directly. (`shard::tests` has the
//! one that holds a shard's lock; `tests/model.rs` checks the manager
//! against an independent sequential model; `tests/quota_sum.rs` stresses
//! the quota tuner under four threads.)

use super::*;
use crate::block::CACHE_BLOCK_SIZE;
use crate::config::PartitionMode;
use kcache_adaptive::AdaptiveConfig;
use kcache_policy::QuotaMoveRecord;
use pvfs::Fid;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn key(b: u64) -> BlockKey {
    BlockKey::new(Fid(1), b)
}

fn full_block(fill: u8) -> Vec<u8> {
    vec![fill; CACHE_BLOCK_SIZE]
}

fn mgr(cap: usize) -> BufferManager {
    BufferManager::builder(cap).build()
}

/// Test-local shorthand over [`BufferManager::access`], the one entry
/// point, so a test reads as the sequence of operations it drives.
trait Ops {
    fn run(&self, key: BlockKey, app: AppId, kind: AccessKind<'_>) -> AccessOutcome;

    fn try_read_by(&self, key: BlockKey, span: Span, out: &mut [u8], app: AppId) -> bool {
        self.run(key, app, AccessKind::Read { span, out }).is_hit()
    }
    fn try_read(&self, key: BlockKey, span: Span, out: &mut [u8]) -> bool {
        self.try_read_by(key, span, out, AppId::UNKNOWN)
    }
    fn probe_by(&self, key: BlockKey, span: Span, app: AppId) -> bool {
        self.run(key, app, AccessKind::Probe { span }).is_hit()
    }
    fn insert_clean_by(
        &self,
        key: BlockKey,
        home: NodeId,
        span: Span,
        bytes: &[u8],
        app: AppId,
    ) -> Option<FlushItem> {
        match self.run(key, app, AccessKind::InsertClean { home, span, bytes }) {
            AccessOutcome::Inserted(fl) => fl,
            other => panic!("InsertClean yielded {other:?}"),
        }
    }
    fn insert_clean(
        &self,
        key: BlockKey,
        home: NodeId,
        span: Span,
        bytes: &[u8],
    ) -> Option<FlushItem> {
        self.insert_clean_by(key, home, span, bytes, AppId::UNKNOWN)
    }
    fn write_by(
        &self,
        key: BlockKey,
        home: NodeId,
        span: Span,
        bytes: &[u8],
        app: AppId,
    ) -> WriteOutcome {
        match self.run(key, app, AccessKind::Write { home, span, bytes }) {
            AccessOutcome::Write(out) => out,
            other => panic!("Write yielded {other:?}"),
        }
    }
    fn write(&self, key: BlockKey, home: NodeId, span: Span, bytes: &[u8]) -> WriteOutcome {
        self.write_by(key, home, span, bytes, AppId::UNKNOWN)
    }
    fn touch(&self, key: BlockKey, app: AppId) -> bool {
        self.run(key, app, AccessKind::Touch).is_hit()
    }
}

impl Ops for BufferManager {
    fn run(&self, key: BlockKey, app: AppId, kind: AccessKind<'_>) -> AccessOutcome {
        self.access(key, Access { app, kind })
    }
}

#[test]
fn read_miss_then_insert_then_hit() {
    let m = mgr(4);
    let mut buf = vec![0u8; 4096];
    assert!(!m.try_read(key(0), Span::FULL, &mut buf));
    assert!(m.insert_clean(key(0), NodeId(2), Span::FULL, &full_block(7)).is_none());
    assert!(m.try_read(key(0), Span::FULL, &mut buf));
    assert!(buf.iter().all(|&b| b == 7));
    let s = m.stats();
    assert_eq!(s.hits, 1);
    assert_eq!(s.misses, 1);
    assert_eq!(s.insertions, 1);
    // The policy's own ledger tracks the same events.
    let ps = m.policy_stats();
    assert_eq!((ps.hits, ps.misses, ps.inserts), (1, 1, 1));
}

#[test]
fn partial_span_reads() {
    let m = mgr(4);
    m.insert_clean(key(0), NodeId(0), Span::FULL, &full_block(9));
    let mut buf = vec![0u8; 100];
    assert!(m.try_read(key(0), Span::new(500, 600), &mut buf));
    assert!(buf.iter().all(|&b| b == 9));
}

#[test]
fn partially_valid_block_serves_only_valid_span() {
    let m = mgr(4);
    // Absorb a sub-block write: bytes 1000..2000 valid.
    let out = m.write(key(3), NodeId(0), Span::new(1000, 2000), &vec![5u8; 1000]);
    assert_eq!(out, WriteOutcome::Absorbed);
    let mut buf = vec![0u8; 500];
    assert!(m.try_read(key(3), Span::new(1200, 1700), &mut buf));
    assert!(buf.iter().all(|&b| b == 5));
    let mut buf2 = vec![0u8; 100];
    assert!(!m.try_read(key(3), Span::new(0, 100), &mut buf2), "invalid span must miss");
}

#[test]
fn eviction_prefers_clean_blocks() {
    let m = mgr(3);
    m.insert_clean(key(0), NodeId(0), Span::FULL, &full_block(0));
    assert_eq!(m.write(key(1), NodeId(0), Span::FULL, &full_block(1)), WriteOutcome::Absorbed);
    m.insert_clean(key(2), NodeId(0), Span::FULL, &full_block(2));
    // Cache full: 0 and 2 clean, 1 dirty. Inserting 3 must evict a clean
    // block, never the dirty one.
    let fl = m.insert_clean(key(3), NodeId(0), Span::FULL, &full_block(3));
    assert!(fl.is_none(), "clean eviction expected, got flush {:?}", fl);
    assert!(m.contains(key(1)), "dirty block must survive");
    assert_eq!(m.stats().evictions_clean, 1);
    assert_eq!(m.stats().evictions_dirty, 0);
    assert_eq!(m.policy_stats().evictions_clean, 1);
}

#[test]
fn insert_evicts_dirty_as_last_resort_and_returns_flush() {
    let m = mgr(2);
    assert_eq!(m.write(key(0), NodeId(4), Span::FULL, &full_block(1)), WriteOutcome::Absorbed);
    assert_eq!(m.write(key(1), NodeId(4), Span::FULL, &full_block(2)), WriteOutcome::Absorbed);
    let fl = m.insert_clean(key(2), NodeId(0), Span::FULL, &full_block(3));
    let fl = fl.expect("dirty eviction must hand back a flush item");
    assert_eq!(fl.home, NodeId(4));
    assert_eq!(fl.span, Span::FULL);
    assert_eq!(fl.data.len(), CACHE_BLOCK_SIZE);
    assert_eq!(m.stats().evictions_dirty, 1);
    assert_eq!(m.policy_stats().evictions_dirty, 1);
}

#[test]
fn writes_pass_through_when_cache_all_dirty() {
    let m = mgr(2);
    assert_eq!(m.write(key(0), NodeId(0), Span::FULL, &full_block(1)), WriteOutcome::Absorbed);
    assert_eq!(m.write(key(1), NodeId(0), Span::FULL, &full_block(2)), WriteOutcome::Absorbed);
    assert_eq!(
        m.write(key(2), NodeId(0), Span::FULL, &full_block(3)),
        WriteOutcome::PassThrough,
        "no clean frame to take: write must block/pass through"
    );
    assert_eq!(m.stats().writes_passthrough, 1);
    // A flush snapshot alone does not free space: the frames are in
    // flight until acknowledged.
    let flushed = m.take_dirty(10);
    assert_eq!(flushed.len(), 2);
    assert_eq!(
        m.write(key(2), NodeId(0), Span::FULL, &full_block(3)),
        WriteOutcome::PassThrough,
        "in-flight frames are not evictable"
    );
    for it in &flushed {
        m.flush_complete(it.key, it.span);
    }
    assert_eq!(m.write(key(2), NodeId(0), Span::FULL, &full_block(3)), WriteOutcome::Absorbed);
}

#[test]
fn disjoint_subblock_write_passes_through() {
    let m = mgr(4);
    assert_eq!(m.write(key(0), NodeId(0), Span::new(0, 100), &[1u8; 100]), WriteOutcome::Absorbed);
    // Gap between 100 and 2000: absorbing would leave unknowable bytes
    // inside the flush hull.
    assert_eq!(
        m.write(key(0), NodeId(0), Span::new(2000, 2100), &[2u8; 100]),
        WriteOutcome::PassThrough
    );
    // Contiguous extension is fine.
    assert_eq!(
        m.write(key(0), NodeId(0), Span::new(100, 200), &[3u8; 100]),
        WriteOutcome::Absorbed
    );
}

#[test]
fn take_dirty_snapshots_and_cleans() {
    let m = mgr(4);
    m.write(key(0), NodeId(1), Span::new(0, 1000), &vec![7u8; 1000]);
    m.write(key(1), NodeId(2), Span::FULL, &full_block(8));
    let items = m.take_dirty(10);
    assert_eq!(items.len(), 2);
    assert_eq!(items[0].key, key(0), "FIFO: oldest dirty first");
    assert_eq!(items[0].span, Span::new(0, 1000));
    assert!(items[0].data.iter().all(|&b| b == 7));
    assert_eq!(items[1].home, NodeId(2));
    assert!(m.take_dirty(10).is_empty(), "both flights outstanding");
    assert_eq!(m.dirty_queue_len(), 0);
    for it in &items {
        m.flush_complete(it.key, it.span);
    }
    assert!(m.take_dirty(10).is_empty(), "clean after acknowledgment");
}

#[test]
fn redirty_after_flush_requeues() {
    let m = mgr(4);
    m.write(key(0), NodeId(0), Span::FULL, &full_block(1));
    let first = m.take_dirty(10);
    assert_eq!(first.len(), 1);
    // Re-dirty during the flight: queued, but not re-taken until the
    // outstanding flush is acknowledged.
    m.write(key(0), NodeId(0), Span::new(0, 10), &[2u8; 10]);
    assert!(m.take_dirty(10).is_empty(), "flight still outstanding");
    m.flush_complete(first[0].key, first[0].span);
    let items = m.take_dirty(10);
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].span, Span::FULL, "merged dirty span (flight span ∪ new write) re-flushes");
    m.flush_complete(items[0].key, items[0].span);
    assert!(m.take_dirty(10).is_empty());
}

#[test]
fn invalidate_drops_blocks_even_dirty() {
    let m = mgr(4);
    m.insert_clean(key(0), NodeId(0), Span::FULL, &full_block(1));
    m.write(key(1), NodeId(0), Span::FULL, &full_block(2));
    let (dropped, dropped_dirty) = m.invalidate(vec![key(0), key(1), key(9)]);
    assert_eq!(dropped, 2);
    assert_eq!(dropped_dirty, 1);
    assert!(!m.contains(key(0)));
    assert!(!m.contains(key(1)));
    assert_eq!(m.free_frames(), 4);
    // The stale dirty-queue entry must not produce a flush.
    assert!(m.take_dirty(10).is_empty());
    assert_eq!(m.policy_stats().removes, 2);
}

#[test]
fn clock_approximates_lru() {
    let m = mgr(4);
    for i in 0..4 {
        m.insert_clean(key(i), NodeId(0), Span::FULL, &full_block(i as u8));
    }
    // Touch 0..3 except 2; then insert: victim should be an untouched
    // block (2) after ref bits are consumed.
    let mut buf = vec![0u8; 4096];
    for i in [0u64, 1, 3] {
        assert!(m.try_read(key(i), Span::FULL, &mut buf));
    }
    m.insert_clean(key(10), NodeId(0), Span::FULL, &full_block(9));
    assert!(!m.contains(key(2)), "unreferenced block should be the clock victim");
}

#[test]
fn exact_lru_evicts_strictly_oldest() {
    let m = BufferManager::builder(3).policy(EvictPolicy::of(PolicyKind::ExactLru)).build();
    for i in 0..3 {
        m.insert_clean(key(i), NodeId(0), Span::FULL, &full_block(i as u8));
    }
    let mut buf = vec![0u8; 4096];
    assert!(m.try_read(key(0), Span::FULL, &mut buf)); // 1 is now LRU
    m.insert_clean(key(3), NodeId(0), Span::FULL, &full_block(3));
    assert!(!m.contains(key(1)));
    assert!(m.contains(key(0)) && m.contains(key(2)) && m.contains(key(3)));
}

#[test]
fn lfu_protects_frequent_blocks() {
    let m = BufferManager::builder(3).policy(EvictPolicy::of(PolicyKind::Lfu)).build();
    for i in 0..3 {
        m.insert_clean(key(i), NodeId(0), Span::FULL, &full_block(i as u8));
    }
    let mut buf = vec![0u8; 4096];
    for _ in 0..5 {
        assert!(m.try_read(key(0), Span::FULL, &mut buf));
        assert!(m.try_read(key(2), Span::FULL, &mut buf));
    }
    assert!(m.try_read(key(1), Span::FULL, &mut buf)); // once: coldest
    m.insert_clean(key(3), NodeId(0), Span::FULL, &full_block(3));
    assert!(!m.contains(key(1)), "the least-frequently-used block is the LFU victim");
    assert!(m.contains(key(0)) && m.contains(key(2)));
}

#[test]
fn sharing_aware_protects_multi_app_blocks() {
    let m = BufferManager::builder(3).policy(EvictPolicy::of(PolicyKind::SharingAware)).build();
    let (a, b) = (AppId(0), AppId(1));
    let mut buf = vec![0u8; 4096];
    m.insert_clean_by(key(0), NodeId(0), Span::FULL, &full_block(0), a);
    m.insert_clean_by(key(1), NodeId(0), Span::FULL, &full_block(1), a);
    m.insert_clean_by(key(2), NodeId(0), Span::FULL, &full_block(2), a);
    // Block 0 is referenced by both applications; 1 and 2 stay private
    // and are both touched *after* 0.
    assert!(m.try_read_by(key(0), Span::FULL, &mut buf, b));
    assert!(m.try_read_by(key(1), Span::FULL, &mut buf, a));
    assert!(m.try_read_by(key(2), Span::FULL, &mut buf, a));
    m.insert_clean_by(key(3), NodeId(0), Span::FULL, &full_block(3), b);
    assert!(m.contains(key(0)), "the shared block must be protected");
    assert!(!m.contains(key(1)), "the oldest private block is the victim");
}

#[test]
fn all_policies_run_the_full_lifecycle() {
    for kind in PolicyKind::ALL {
        let m = BufferManager::builder(4).policy(EvictPolicy::of(kind)).build();
        let mut buf = vec![0u8; 4096];
        for i in 0..16 {
            if i % 3 == 0 {
                assert_eq!(
                    m.write(key(i), NodeId(0), Span::FULL, &full_block(i as u8)),
                    WriteOutcome::Absorbed,
                    "{kind}: write {i}"
                );
            } else {
                m.insert_clean(key(i), NodeId(0), Span::FULL, &full_block(i as u8));
            }
            let _ = m.try_read(key(i), Span::FULL, &mut buf);
            if i % 5 == 4 {
                for it in m.take_dirty(4) {
                    m.flush_complete(it.key, it.span);
                }
            }
        }
        let _ = m.invalidate(m.resident_keys());
        assert_eq!(m.free_frames(), 4, "{kind}: frames leaked");
        let ps = m.policy_stats();
        assert_eq!(ps.inserts, ps.removes, "{kind}: policy residency ledger unbalanced");
    }
}

/// A pure-hit storm five times longer than any buffer of deferred
/// accesses ever was (the event ring held 4 × 1024), on every policy but
/// static clock and on the adaptive manager: each hit reaches the policy
/// as it happens, so nothing overflows and the ledger counts every hit,
/// per app too.
#[test]
fn a_pure_hit_storm_reaches_every_policy_as_it_happens() {
    const HITS: u64 = 5 * 4 * 1024;
    let build = |kind| BufferManager::builder(16).policy(EvictPolicy::of(kind));
    let mut managers: Vec<_> = PolicyKind::ALL
        .into_iter()
        .filter(|&kind| kind != PolicyKind::Clock)
        .map(|kind| (kind.name().to_string(), build(kind).build()))
        .collect();
    let adaptive = AdaptiveConfig::new([PolicyKind::Clock, PolicyKind::Lfu]);
    managers.push(("adaptive".into(), build(PolicyKind::Clock).adaptive(Some(adaptive)).build()));
    for (name, m) in managers {
        for b in 0..8 {
            m.insert_clean(key(b), NodeId(0), Span::FULL, &full_block(b as u8));
        }
        let mut out = full_block(0);
        for i in 0..HITS {
            let app = AppId((i % 2) as u32);
            assert!(m.try_read_by(key(i % 8), Span::FULL, &mut out, app), "{name}");
        }
        assert_eq!(m.event_ring_overflows(), 0, "{name}");
        assert_eq!((m.policy_stats().hits, m.stats().hits), (HITS, HITS), "{name}");
        let hits: Vec<_> = m.app_usage().iter().map(|(app, u)| (*app, u.hits)).collect();
        assert_eq!(hits, [(AppId(0), HITS / 2), (AppId(1), HITS / 2)], "{name}");
    }
}

#[test]
fn harvest_reaches_high_watermark() {
    let m = BufferManager::builder(10).watermarks(2, 5).build();
    for i in 0..10 {
        m.insert_clean(key(i), NodeId(0), Span::FULL, &full_block(0));
    }
    assert_eq!(m.free_frames(), 0);
    assert!(m.needs_harvest());
    let flush = m.harvest();
    assert!(flush.is_empty(), "all clean: nothing to flush");
    assert!(m.free_frames() >= 5, "free {} below high watermark", m.free_frames());
    assert!(!m.needs_harvest());
}

#[test]
fn harvest_flushes_dirty_when_no_clean_left() {
    let m = BufferManager::builder(4).watermarks(2, 3).build();
    for i in 0..4 {
        m.write(key(i), NodeId(0), Span::FULL, &full_block(i as u8));
    }
    let flush = m.harvest();
    assert!(!flush.is_empty(), "harvester must push dirty blocks to the flusher");
    // Blocks stay resident and in flight; once the flush is
    // acknowledged a second harvest can free them.
    for it in &flush {
        m.flush_complete(it.key, it.span);
    }
    let flush2 = m.harvest();
    assert!(flush2.is_empty());
    assert!(m.free_frames() >= 3);
}

/// `harvest` on an all-dirty pool while another thread frees frames
/// under it: the dirty arm's `high_watermark - free` used to read the
/// free count a second time, so frames invalidated since the loop's
/// test made it underflow — a panic in debug builds, "flush everything"
/// in release. One thread sweeps without pause; the other keeps
/// dropping more blocks than the high watermark and writing them back.
#[test]
fn harvest_survives_frames_freed_under_it() {
    let (capacity, high, dropped) = (16u64, 4, 6);
    let m = BufferManager::builder(capacity as usize).watermarks(2, high).build();
    for b in 0..capacity {
        m.write(key(b), NodeId(0), Span::FULL, &full_block(b as u8));
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sweeper = s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let urgent = m.harvest().len();
                assert!(urgent <= high, "{urgent} urgent flushes to free {high} frames");
            }
        });
        for cycle in 0..4000 {
            let keys = (0..dropped).map(|i| key((cycle + i) % capacity));
            m.invalidate(keys.clone());
            for k in keys {
                m.write(k, NodeId(0), Span::FULL, &full_block(k.blk as u8));
            }
        }
        done.store(true, Ordering::Release);
        sweeper.join().expect("harvest panicked");
    });
    assert_eq!(m.resident_keys().len() + m.free_frames(), capacity as usize);
}

#[test]
fn resident_keys_lists_contents() {
    let m = mgr(4);
    m.insert_clean(key(5), NodeId(0), Span::FULL, &full_block(0));
    m.insert_clean(key(3), NodeId(0), Span::FULL, &full_block(0));
    assert_eq!(m.resident_keys(), vec![key(3), key(5)]);
}

fn strict_mgr(cap: usize, quotas: &[(u32, usize)]) -> BufferManager {
    BufferManager::builder(cap)
        .watermarks(0, cap)
        .partitioning(crate::config::PartitionConfig::strict(quotas.iter().copied()))
        .build()
}

#[test]
fn strict_quota_caps_residency() {
    let m = strict_mgr(8, &[(0, 3)]);
    let a = AppId(0);
    for i in 0..6 {
        m.insert_clean_by(key(i), NodeId(0), Span::FULL, &full_block(i as u8), a);
        assert!(m.resident_of(a) <= 3, "app 0 exceeded its quota at insert {i}");
    }
    assert_eq!(m.resident_of(a), 3);
    // The app's newest inserts displaced its own oldest blocks; the
    // rest of the pool stayed free.
    assert_eq!(m.free_frames(), 5, "strict quota must not touch the rest of the pool");
    let evictions = m.app_usage().iter().find(|(id, _)| *id == a).unwrap().1.evictions;
    assert_eq!(evictions, 3, "over-quota inserts evict the app's own frames");
}

#[test]
fn strict_quota_protects_other_apps_frames() {
    let (a, b) = (AppId(0), AppId(1));
    let m = strict_mgr(6, &[(0, 2), (1, 4)]);
    for i in 0..4 {
        m.insert_clean_by(key(100 + i), NodeId(0), Span::FULL, &full_block(1), b);
    }
    // The pool is now 4/6 used by b. a churns through many blocks: it
    // may never hold more than 2 frames and must never evict b.
    for i in 0..10 {
        m.insert_clean_by(key(i), NodeId(0), Span::FULL, &full_block(0), a);
        assert!(m.resident_of(a) <= 2);
    }
    assert_eq!(m.resident_of(b), 4, "the victim's frames must all survive");
    for i in 0..4 {
        assert!(m.contains(key(100 + i)), "victim block {i} was evicted");
    }
}

#[test]
fn strict_quota_denies_insert_when_own_frames_unevictable() {
    let m = strict_mgr(8, &[(0, 2)]);
    let a = AppId(0);
    // Fill the quota with dirty blocks, then freeze them in flight.
    assert_eq!(
        m.write_by(key(0), NodeId(0), Span::FULL, &full_block(1), a),
        WriteOutcome::Absorbed
    );
    assert_eq!(
        m.write_by(key(1), NodeId(0), Span::FULL, &full_block(2), a),
        WriteOutcome::Absorbed
    );
    let items = m.take_dirty(2);
    assert_eq!(items.len(), 2);
    // Clean insert: both owned frames are pinned, quota full → denied.
    assert!(m.insert_clean_by(key(2), NodeId(0), Span::FULL, &full_block(3), a).is_none());
    assert!(!m.contains(key(2)), "denied insert must not be cached");
    assert_eq!(m.resident_of(a), 2);
    // A write is denied the same way (pass-through).
    assert_eq!(
        m.write_by(key(3), NodeId(0), Span::FULL, &full_block(4), a),
        WriteOutcome::PassThrough
    );
    for it in &items {
        m.flush_complete(it.key, it.span);
    }
    // Unpinned again: the app can churn within its quota.
    assert!(m.insert_clean_by(key(2), NodeId(0), Span::FULL, &full_block(3), a).is_none());
    assert!(m.contains(key(2)));
    assert_eq!(m.resident_of(a), 2);
}

#[test]
fn soft_quota_borrows_free_frames_and_gives_them_back() {
    let (a, b) = (AppId(0), AppId(1));
    let m = BufferManager::builder(6)
        .watermarks(0, 6)
        .partitioning(crate::config::PartitionConfig::soft([(0, 2), (1, 4)]))
        .build();
    // a grows past its quota of 2 by borrowing idle (free) frames.
    for i in 0..5 {
        m.insert_clean_by(key(i), NodeId(0), Span::FULL, &full_block(0), a);
    }
    assert_eq!(m.resident_of(a), 5, "soft mode borrows idle capacity");
    // b now claims its quota: the borrowed frames are reclaimed from a
    // (the most over-quota app), not from b itself.
    for i in 0..4 {
        m.insert_clean_by(key(100 + i), NodeId(0), Span::FULL, &full_block(1), b);
        assert!(m.resident_of(b) == i as usize + 1, "b's insert must not be blocked");
    }
    assert_eq!(m.resident_of(b), 4);
    assert_eq!(m.resident_of(a), 2, "a shrank back to its quota as b reclaimed");
}

#[test]
fn unknown_and_unlisted_apps_are_unconstrained() {
    let m = strict_mgr(4, &[(0, 1)]);
    for i in 0..4 {
        m.insert_clean(key(i), NodeId(0), Span::FULL, &full_block(0));
    }
    assert_eq!(m.resident(), 4, "unattributed inserts fill the whole pool");
    // A quota'd app can still claim a frame (victim-agnostic fallback
    // evicts unowned frames).
    m.insert_clean_by(key(10), NodeId(0), Span::FULL, &full_block(1), AppId(0));
    assert!(m.contains(key(10)));
    assert_eq!(m.resident_of(AppId(0)), 1);
}

#[test]
fn quota_equal_to_capacity_matches_shared_pool_exactly() {
    // The partitioning differential: a single app whose quota is the
    // whole pool must behave byte-for-byte like the unpartitioned
    // manager for every policy.
    for kind in PolicyKind::ALL {
        let strict = BufferManager::builder(8)
            .policy(EvictPolicy::of(kind))
            .watermarks(0, 2)
            .partitioning(crate::config::PartitionConfig::strict([(0, 8)]))
            .build();
        let shared2 =
            BufferManager::builder(8).policy(EvictPolicy::of(kind)).watermarks(0, 2).build();
        let a = AppId(0);
        let mut buf = vec![0u8; 4096];
        for step in 0..400u64 {
            let k = key((step * 7919) % 23);
            match step % 5 {
                0 | 3 => {
                    for m in [&shared2, &strict] {
                        m.insert_clean_by(k, NodeId(0), Span::FULL, &full_block(step as u8), a);
                    }
                }
                1 => {
                    for m in [&shared2, &strict] {
                        let _ = m.write_by(k, NodeId(0), Span::FULL, &full_block(step as u8), a);
                    }
                }
                2 => {
                    for m in [&shared2, &strict] {
                        let _ = m.try_read_by(k, Span::FULL, &mut buf, a);
                    }
                }
                _ => {
                    let xs = shared2.take_dirty(3);
                    let ys = strict.take_dirty(3);
                    assert_eq!(xs.len(), ys.len(), "{kind}: flush divergence");
                    for it in xs {
                        shared2.flush_complete(it.key, it.span);
                    }
                    for it in ys {
                        strict.flush_complete(it.key, it.span);
                    }
                }
            }
            assert_eq!(
                shared2.resident_keys(),
                strict.resident_keys(),
                "{kind}: resident set diverged at step {step}"
            );
        }
        let (s, t) = (shared2.stats(), strict.stats());
        assert_eq!(
            (s.hits, s.misses, s.evictions_clean, s.evictions_dirty),
            (t.hits, t.misses, t.evictions_clean, t.evictions_dirty),
            "{kind}: stats diverged"
        );
        assert_eq!(shared2.policy_stats(), strict.policy_stats(), "{kind}: policy ledger diverged");
    }
}

#[test]
fn harvest_drains_over_quota_owners_before_idle_tenants() {
    // An idle victim sits at its quota; an active scanner borrowed
    // past its own. The harvester must reclaim the scanner's borrowed
    // frames, not drain the victim below quota (the pre-PR-4 sweep
    // was victim-agnostic and would).
    let (victim, scanner) = (AppId(0), AppId(1));
    let m = BufferManager::builder(8)
        .watermarks(0, 2)
        .partitioning(crate::config::PartitionConfig::soft([(0, 4), (1, 2)]))
        .build();
    for i in 0..4 {
        m.insert_clean_by(key(i), NodeId(0), Span::FULL, &full_block(0), victim);
    }
    for i in 0..4 {
        m.insert_clean_by(key(100 + i), NodeId(0), Span::FULL, &full_block(1), scanner);
    }
    assert_eq!(m.free_frames(), 0);
    assert_eq!(m.resident_of(scanner), 4, "scanner borrowed past its quota of 2");
    let flush = m.harvest();
    assert!(flush.is_empty(), "all clean");
    assert!(m.free_frames() >= 2);
    assert_eq!(m.resident_of(victim), 4, "idle victim must not be drained below quota");
    assert_eq!(m.resident_of(scanner), 2, "the over-quota borrower pays for the sweep");
    for i in 0..4 {
        assert!(m.contains(key(i)), "victim block {i} was harvested");
    }
}

#[test]
fn adaptive_with_one_candidate_matches_static_byte_for_byte() {
    // The meta-policy differential: ghosts observe, the controller has
    // nothing to switch to, so every observable of the manager must
    // match the static policy exactly — epoch ticks included.
    for kind in PolicyKind::ALL {
        let mk = || {
            BufferManager::builder(8)
                .policy(EvictPolicy::of(kind))
                .watermarks(0, 2)
                .epoch_accesses(64)
        };
        let adaptive = mk().adaptive(Some(AdaptiveConfig::new([kind]))).build();
        let stat = mk().build();
        let mut buf = vec![0u8; 4096];
        for step in 0..500u64 {
            let k = key((step * 7919) % 23);
            let app = AppId((step % 3) as u32);
            match step % 5 {
                0 | 3 => {
                    for m in [&stat, &adaptive] {
                        m.insert_clean_by(k, NodeId(0), Span::FULL, &full_block(step as u8), app);
                    }
                }
                1 => {
                    for m in [&stat, &adaptive] {
                        let _ = m.write_by(k, NodeId(0), Span::FULL, &full_block(step as u8), app);
                    }
                }
                2 => {
                    for m in [&stat, &adaptive] {
                        let _ = m.try_read_by(k, Span::FULL, &mut buf, app);
                    }
                }
                _ => {
                    let xs = stat.take_dirty(3);
                    let ys = adaptive.take_dirty(3);
                    assert_eq!(xs.len(), ys.len(), "{kind}: flush divergence");
                    for it in xs {
                        stat.flush_complete(it.key, it.span);
                    }
                    for it in ys {
                        adaptive.flush_complete(it.key, it.span);
                    }
                }
            }
            assert_eq!(
                stat.resident_keys(),
                adaptive.resident_keys(),
                "{kind}: resident set diverged at step {step}"
            );
        }
        assert_eq!(stat.policy_stats(), adaptive.policy_stats(), "{kind}: ledger diverged");
        let (s, a) = (stat.stats(), adaptive.stats());
        assert_eq!(
            (s.hits, s.misses, s.evictions_clean, s.evictions_dirty),
            (a.hits, a.misses, a.evictions_clean, a.evictions_dirty),
            "{kind}: stats diverged"
        );
        let ast = adaptive.adaptive_stats().expect("adaptive manager reports stats");
        assert_eq!(ast.switches, 0, "{kind}: single candidate must never switch");
        assert!(ast.epochs > 0, "{kind}: epochs must have ticked");
        assert!(stat.adaptive_stats().is_none(), "static manager has no adaptive stats");
    }
}

#[test]
fn epoch_tuner_grows_the_refaulting_apps_quota() {
    // Strict halves; app 0 re-references a working set one frame
    // bigger than its quota (constant refaults), app 1 streams fresh
    // blocks it never revisits. The tuner must shift quota 0 ← 1, and
    // enforcement must follow the *tuned* quotas.
    let (hot, cold) = (AppId(0), AppId(1));
    let m = BufferManager::builder(8)
        .policy(EvictPolicy::of(PolicyKind::ExactLru))
        .watermarks(0, 2)
        .partitioning(crate::config::PartitionConfig::strict([(0, 4), (1, 4)]))
        .adaptive(Some(AdaptiveConfig {
            quota_step: 1,
            ..AdaptiveConfig::new([PolicyKind::ExactLru])
        }))
        .epoch_accesses(32)
        .build();
    let mut buf = vec![0u8; 4096];
    let mut fresh = 1000u64;
    for round in 0..400u64 {
        let k = key(round % 5); // working set of 5 > quota of 4
        if !m.try_read_by(k, Span::FULL, &mut buf, hot) {
            m.insert_clean_by(k, NodeId(0), Span::FULL, &full_block(1), hot);
        }
        if round % 2 == 0 {
            m.insert_clean_by(key(fresh), NodeId(0), Span::FULL, &full_block(2), cold);
            fresh += 1;
        }
    }
    let hq = m.quota_of(hot).unwrap();
    let cq = m.quota_of(cold).unwrap();
    assert!(hq > 4, "hot app's tuned quota must grow past 4, got {hq}");
    assert!(cq < 4, "cold app's tuned quota must shrink below 4, got {cq}");
    let stats = m.adaptive_stats().unwrap();
    assert!(stats.quota_moves > 0);
    assert!(stats.quota_log.iter().all(|q| q.to == hot && q.from == cold));
    // Tuned quotas are enforced going forward: the hot app's residency
    // tracks its grown quota (strict mode never let it past the cap at
    // any intermediate step either).
    assert!(m.resident_of(hot) <= hq);
    // And the cold app, now over its shrunk quota, is the harvester's
    // preferred reclaim source.
    let before = m.resident_of(cold);
    let _ = m.harvest();
    assert!(
        m.resident_of(cold) <= before.min(cq.max(1)) || m.resident_of(cold) < before,
        "harvest must reclaim from the over-quota cold app first"
    );
}

#[test]
fn probe_accounting_is_symmetric_and_recency_neutral() {
    // The pre-PR-5 bug: probe's hit branch bumped the global+policy
    // hit counters but skipped the epoch clock and the per-app
    // ledger, while its miss branch counted both. Both branches now
    // run full symmetric accounting — and neither refreshes recency
    // (matching the seed).
    let m = BufferManager::builder(4)
        .policy(EvictPolicy::of(PolicyKind::ExactLru))
        .watermarks(0, 4)
        .adaptive(Some(AdaptiveConfig::new([PolicyKind::ExactLru])))
        .epoch_accesses(8)
        .build();
    let a = AppId(0);
    m.insert_clean_by(key(0), NodeId(0), Span::FULL, &full_block(1), a);
    m.insert_clean_by(key(1), NodeId(0), Span::FULL, &full_block(1), a);
    for _ in 0..6 {
        assert!(m.probe_by(key(0), Span::FULL, a));
    }
    for _ in 0..2 {
        assert!(!m.probe_by(key(9), Span::FULL, a));
    }
    let s = m.stats();
    assert_eq!((s.hits, s.misses), (6, 2));
    let ps = m.policy_stats();
    assert_eq!((ps.hits, ps.misses), (6, 2), "policy ledger must match the atomic counters");
    let usage = m.app_usage();
    let au = usage.iter().find(|(id, _)| *id == a).unwrap().1;
    assert_eq!((au.hits, au.misses), (6, 2), "probes must reach the per-app ledger");
    // 8 probe accesses with epoch_accesses = 8: exactly one epoch.
    assert_eq!(m.adaptive_stats().unwrap().epochs, 1, "probes must advance the epoch clock");
    // Recency stays un-refreshed: key(0), probed 6 times but never
    // read, is still the exact-LRU victim.
    m.insert_clean_by(key(2), NodeId(0), Span::FULL, &full_block(2), a);
    m.insert_clean_by(key(3), NodeId(0), Span::FULL, &full_block(3), a);
    m.insert_clean_by(key(4), NodeId(0), Span::FULL, &full_block(4), a);
    assert!(!m.contains(key(0)), "a probe must not rescue the LRU block");
    assert!(m.contains(key(1)));
}

#[test]
fn recency_touches_advance_the_epoch_clock() {
    // A sync-write refresh (update_if_present → note_touch) is a real
    // access: before PR 5 it never aged the policies.
    let m = BufferManager::builder(4)
        .watermarks(0, 4)
        .adaptive(Some(AdaptiveConfig::new([PolicyKind::Clock])))
        .epoch_accesses(4)
        .build();
    m.insert_clean(key(0), NodeId(0), Span::FULL, &full_block(1));
    assert_eq!(m.adaptive_stats().unwrap().epochs, 0, "an insert is not an access");
    for _ in 0..4 {
        assert!(m.update_if_present(key(0), Span::FULL, &full_block(2)));
    }
    assert_eq!(m.adaptive_stats().unwrap().epochs, 1, "touches must advance the epoch clock");
    // A touch (secondary-waiter attribution) participates too — and
    // is neither a hit nor a miss, resident or not.
    for _ in 0..4 {
        assert!(m.touch(key(0), AppId(1)));
    }
    assert_eq!(m.adaptive_stats().unwrap().epochs, 2);
    assert!(!m.touch(key(9), AppId(1)), "absent block: nothing to touch");
    let s = m.stats();
    assert_eq!((s.hits, s.misses), (0, 0), "touches stay out of the hit/miss ledger");
}

/// The observability differential: wiring an `ObsHub` must change no
/// cache decision — identical resident sets after every step,
/// identical ledgers and counters at the end — for every static
/// policy and for the adaptive meta-policy with tuner and switching
/// live. Instrumentation observes; it never participates.
#[test]
fn obs_wiring_changes_no_cache_decision() {
    let mut setups: Vec<(EvictPolicy, Option<AdaptiveConfig>)> =
        PolicyKind::ALL.map(|k| (EvictPolicy::of(k), None)).to_vec();
    setups.push((
        EvictPolicy::of(PolicyKind::Clock),
        Some(AdaptiveConfig {
            hysteresis: 0.0,
            quota_step: 1,
            ..AdaptiveConfig::new([PolicyKind::Clock, PolicyKind::ExactLru, PolicyKind::Lfu])
        }),
    ));
    for (policy, adaptive) in setups {
        let mk = || {
            BufferManager::builder(8)
                .policy(policy)
                .watermarks(0, 2)
                .partitioning(crate::config::PartitionConfig::strict([(0, 3), (1, 3)]))
                .adaptive(adaptive.clone())
                .epoch_accesses(32)
        };
        let label = adaptive.as_ref().map_or(policy.kind.name(), |_| "adaptive");
        let hub = kcache_obs::ObsHub::new(1024);
        let plain = mk().build();
        let obsd = mk().obs(Some(hub.clone()), 0).build();
        let mut buf = vec![0u8; 4096];
        for step in 0..600u64 {
            let k = key((step * 7919) % 23);
            let app = AppId((step % 3) as u32);
            match step % 7 {
                0 | 4 => {
                    for m in [&plain, &obsd] {
                        m.insert_clean_by(k, NodeId(0), Span::FULL, &full_block(step as u8), app);
                    }
                }
                1 => {
                    for m in [&plain, &obsd] {
                        let _ = m.write_by(k, NodeId(0), Span::FULL, &full_block(step as u8), app);
                    }
                }
                2 | 5 => {
                    for m in [&plain, &obsd] {
                        let _ = m.try_read_by(k, Span::FULL, &mut buf, app);
                    }
                }
                3 => {
                    for m in [&plain, &obsd] {
                        let _ = m.probe_by(k, Span::FULL, app);
                        let _ = m.update_if_present(k, Span::FULL, &full_block(9));
                        m.touch(k, AppId(2));
                    }
                }
                _ => {
                    if step % 35 == 6 {
                        for m in [&plain, &obsd] {
                            let _ = m.invalidate([k]);
                            let _ = m.harvest();
                        }
                    } else {
                        let xs = plain.take_dirty(3);
                        let ys = obsd.take_dirty(3);
                        assert_eq!(xs.len(), ys.len(), "{label}: flush divergence");
                        for it in xs {
                            plain.flush_complete(it.key, it.span);
                        }
                        for it in ys {
                            obsd.flush_complete(it.key, it.span);
                        }
                    }
                }
            }
            assert_eq!(
                plain.resident_keys(),
                obsd.resident_keys(),
                "{label}: obs wiring changed the resident set at step {step}"
            );
        }
        assert_eq!(plain.policy_stats(), obsd.policy_stats(), "{label}: ledger diverged");
        assert_eq!(plain.app_usage(), obsd.app_usage(), "{label}: app ledger diverged");
        let (p, o) = (plain.stats(), obsd.stats());
        assert_eq!(
            (p.hits, p.misses, p.evictions_clean, p.evictions_dirty, p.insertions),
            (o.hits, o.misses, o.evictions_clean, o.evictions_dirty, o.insertions),
            "{label}: stats diverged"
        );
        assert_eq!(plain.adaptive_stats(), obsd.adaptive_stats(), "{label}: adaptive");
        assert_eq!(
            (plain.quota_of(AppId(0)), plain.quota_of(AppId(1))),
            (obsd.quota_of(AppId(0)), obsd.quota_of(AppId(1))),
            "{label}: tuned quotas diverged"
        );
        // And the obs side actually observed the traffic it mirrors.
        // Hit/miss/eviction metric counters are deferred (folded in from
        // the manager ledger at sync points), so flush before reading —
        // after which the mirror must be *exact*, not a lower bound.
        obsd.obs_flush();
        let snap = hub.snapshot();
        let s = obsd.stats();
        let hits: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("cache.hits."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(hits, s.hits, "{label}: obs hit mirror diverged from the ledger");
        let misses: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("cache.misses."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(misses, s.misses, "{label}: obs miss mirror diverged from the ledger");
        let evictions =
            ["cache.evictions_clean", "cache.evictions_dirty"].map(|k| snap.counters[k]);
        let want = [s.evictions_clean, s.evictions_dirty];
        assert_eq!(evictions, want, "{label}: obs eviction mirrors diverged from the ledger");
    }
}

/// Exact LRU: one policy hold per scan pass, plus one per candidate the
/// frame itself turns down (the ask-again after `try_evict_idx` said no),
/// plus the one that files the install. A clean partition is one pass and
/// nothing turned down; an all-dirty one spends the clean-first pass being
/// offered, and turning down, each of app 0's 32 frames before the second
/// pass takes the first. Static clock: none at all — its scans sweep the
/// atomic hand, and filing and settling store the frame words and counts.
#[test]
fn an_evicting_install_holds_the_policy_lock_once_per_pass_and_once_to_file() {
    for kind in [PolicyKind::Clock, PolicyKind::ExactLru] {
        for (dirty, want_passes, turned_down) in [(false, 1, 0), (true, 2, 32)] {
            let m = BufferManager::builder(64)
                .policy(EvictPolicy::of(kind))
                .partitioning(crate::config::PartitionConfig::strict([(0, 32), (1, 32)]))
                .build();
            for i in 0..32 {
                if dirty {
                    m.write_by(key(i), NodeId(0), Span::FULL, &full_block(0), AppId(0));
                } else {
                    m.insert_clean_by(key(i), NodeId(0), Span::FULL, &full_block(0), AppId(0));
                }
            }
            m.insert_clean_by(key(100), NodeId(0), Span::FULL, &full_block(1), AppId(1));
            let scans = m.policy_stats().scans;
            let holds = super::shard::POLICY_HOLDS.with(|n| n.get());
            let flush = m.insert_clean_by(key(50), NodeId(0), Span::FULL, &full_block(2), AppId(0));
            let holds = super::shard::POLICY_HOLDS.with(|n| n.get()) - holds;
            let passes = m.policy_stats().scans - scans;
            assert_eq!((passes, flush.is_some()), (want_passes, dirty), "{kind}");
            let want = if kind == PolicyKind::Clock { 0 } else { passes + turned_down + 1 };
            assert_eq!(holds, want, "{kind}, dirty: {dirty}");
            assert_eq!((m.resident_of(AppId(0)), m.contains(key(100))), (32, true), "{kind}");
        }
    }
}

// The multi-threaded and multi-shard tests: one module, two files.
include!("tests_sharded.rs");
