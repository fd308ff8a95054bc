//! Eviction scans under real concurrency, for the two rankers whose scans
//! used to sort a snapshot of the pool and now walk a live index that the
//! other thread's hooks relink between two candidates.

use kcache::{
    Access, AccessKind, AppId, BlockKey, BufferManager, EvictPolicy, PartitionConfig, PolicyKind,
    Span, CACHE_BLOCK_SIZE,
};
use pvfs::Fid;
use sim_net::NodeId;
use std::sync::Barrier;

const CAPACITY: usize = 16;
const QUOTA: usize = CAPACITY / 2;
const THREADS: u32 = 2;

fn key(block: u64) -> BlockKey {
    BlockKey::new(Fid(7), block)
}

/// What block `b` holds, whoever installed it.
fn fill(block: u64) -> u8 {
    (block * 31 + 5) as u8
}

/// Two threads, one tenant each, over a key space five times the pool
/// (a private half each, a shared range both read): nearly every read
/// misses and installs, so both sit at their strict quota evicting from
/// their own partition while the other thread's hits, inserts and removes
/// run between two of their `next_candidate` calls.
///
/// The quotas add up to the pool, so an under-quota tenant always finds a
/// free frame and never evicts across the partition line — which is what
/// makes the strict bound exact here, not "quota plus a raced frame".
#[test]
fn two_tenants_scanning_at_their_quotas_keep_every_invariant() {
    for kind in [PolicyKind::Lfu, PolicyKind::SharingAware] {
        let m = BufferManager::builder(CAPACITY)
            .policy(EvictPolicy::of(kind))
            .partitioning(PartitionConfig::strict((0..THREADS).map(|t| (t, QUOTA))))
            .build();
        let start = Barrier::new(THREADS as usize);
        let lookups: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (m, start) = (&m, &start);
                    s.spawn(move || {
                        let app = AppId(t);
                        let mut out = vec![0u8; CACHE_BLOCK_SIZE];
                        let mut lookups = 0u64;
                        start.wait();
                        for i in 0..20_000u64 {
                            // Two in five go to the range both tenants read.
                            let block = match i % 5 {
                                0 | 1 => (i * 7) % 24,
                                _ => 100 * (t as u64 + 1) + (i * 13) % 28,
                            };
                            let read = AccessKind::Read { span: Span::FULL, out: &mut out };
                            lookups += 1;
                            if m.access(key(block), Access { app, kind: read }).is_hit() {
                                assert!(
                                    out.iter().all(|&b| b == fill(block)),
                                    "{kind}: a hit on block {block} returned another block's bytes"
                                );
                            } else {
                                let bytes = vec![fill(block); CACHE_BLOCK_SIZE];
                                let kind = AccessKind::InsertClean {
                                    home: NodeId(0),
                                    span: Span::FULL,
                                    bytes: &bytes,
                                };
                                m.access(key(block), Access { app, kind });
                            }
                            assert!(
                                m.resident_of(app) <= QUOTA,
                                "{kind}: tenant {t} holds {} frames over a quota of {QUOTA}",
                                m.resident_of(app)
                            );
                        }
                        lookups
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker panicked")).sum()
        });
        assert_eq!(m.resident() + m.free_frames(), CAPACITY, "{kind}: frames leaked");
        assert_eq!(m.resident_keys().len(), m.resident(), "{kind}: a frame no bucket reaches");
        let stats = m.stats();
        assert_eq!(stats.hits + stats.misses, lookups, "{kind}: a lookup counted twice or never");
        assert!(stats.hits > 0 && stats.misses > stats.hits, "{kind}: not miss-heavy: {stats:?}");
        assert!(m.policy_stats().scans > lookups / 2, "{kind}: the tenants barely scanned");
    }
}
