//! Property-based tests (proptest) on the core data structures and
//! cross-crate invariants.

use kcache::{
    blocks_of_range, span_in_block, Access, AccessKind, AccessOutcome, AppId, BlockKey,
    BufferManager, PartitionConfig, Span, WriteOutcome,
};
use proptest::prelude::*;
use pvfs::{
    pattern_byte, pattern_bytes, pattern_matches, split_ranges, tiles_exactly, ByteRange,
    Directory, Fid, StripeSpec,
};
use sim_disk::{BlockFs, PageCache};
use sim_net::NodeId;

/// Whole-block shorthands over `BufferManager::access`, the one entry point.
fn read(m: &BufferManager, key: BlockKey, out: &mut [u8], app: AppId) -> bool {
    m.access(key, Access { app, kind: AccessKind::Read { span: Span::FULL, out } }).is_hit()
}

fn install(m: &BufferManager, key: BlockKey, bytes: &[u8], app: AppId) {
    let kind = AccessKind::InsertClean { home: NodeId(0), span: Span::FULL, bytes };
    m.access(key, Access { app, kind });
}

fn write(m: &BufferManager, key: BlockKey, bytes: &[u8], app: AppId) -> bool {
    let kind = AccessKind::Write { home: NodeId(0), span: Span::FULL, bytes };
    m.access(key, Access { app, kind }) == AccessOutcome::Write(WriteOutcome::Absorbed)
}

proptest! {
    /// The pattern kernel (windowed fill, in-place check) is byte for byte
    /// the scalar `pattern_byte`, at the lengths around a 251-byte window,
    /// at unaligned offsets, and across both u64 wraps (of the offset and
    /// of `fid * 151 + offset`); any flipped byte is caught.
    #[test]
    fn pattern_kernel_matches_scalar_definition(
        fid in any::<u64>(),
        free_offset in any::<u64>(),
        placement in 0u8..3,
        back in 0u64..600,
        len_class in 0usize..9,
        free_len in 0usize..10_000,
        flip in any::<usize>(),
    ) {
        let fid = Fid(fid);
        let offset = match placement {
            0 => free_offset,
            1 => u64::MAX - back,
            _ => 0u64.wrapping_sub(fid.0.wrapping_mul(151)).wrapping_sub(back),
        };
        let len = [0, 1, 250, 251, 252, 4096].get(len_class).copied().unwrap_or(free_len);
        let want: Vec<u8> =
            (0..len as u64).map(|i| pattern_byte(fid, offset.wrapping_add(i))).collect();
        prop_assert_eq!(pattern_bytes(fid, offset, len), want.clone());
        prop_assert!(pattern_matches(fid, offset, &want));
        if len > 0 {
            for i in [0, len - 1, flip % len] {
                let mut bad = want.clone();
                bad[i] ^= 0x80;
                prop_assert!(!pattern_matches(fid, offset, &bad), "flip at {} of {}", i, len);
            }
        }
    }

    /// Striping: any byte range splits into per-iod lists that tile the
    /// range exactly, with every piece on its owning iod.
    #[test]
    fn striping_tiles_exactly(
        unit_pow in 12u32..18, // 4 KB .. 128 KB stripe units
        n_iods in 1u32..9,
        offset in 0u64..(1 << 30),
        len in 1u32..(4 << 20),
    ) {
        let spec = StripeSpec { unit: 1 << unit_pow, n_iods, base: 0 };
        let r = ByteRange::new(offset, len);
        let split = split_ranges(&spec, r);
        prop_assert!(tiles_exactly(&spec, r, &split));
        // Each piece stays within one stripe unit.
        for rs in &split {
            for p in rs {
                prop_assert!(p.len as u64 <= spec.unit as u64);
            }
        }
    }

    /// Block arithmetic: the per-block spans of a range reassemble to
    /// exactly the range's length.
    #[test]
    fn block_spans_cover_range(offset in 0u64..(1 << 24), len in 1u32..(1 << 20)) {
        let total: u64 = blocks_of_range(offset, len)
            .map(|b| span_in_block(b, offset, len).len() as u64)
            .sum();
        prop_assert_eq!(total, len as u64);
        // First span starts at the in-block offset; last ends at the
        // in-block end.
        let first = blocks_of_range(offset, len).next().unwrap();
        prop_assert_eq!(span_in_block(first, offset, len).start as u64, offset % 4096);
    }

    /// Buffer manager conservation: after any operation sequence, frames
    /// are exactly partitioned between the free list and the hash table,
    /// and resident keys are unique.
    #[test]
    fn buffer_manager_conserves_frames(ops in proptest::collection::vec((0u8..5, 0u64..64), 1..300)) {
        let m = BufferManager::builder(16).build();
        let buf = vec![7u8; 4096];
        let mut out = vec![0u8; 4096];
        let mut inflight: Vec<kcache::FlushItem> = Vec::new();
        for (op, blk) in ops {
            let key = BlockKey::new(Fid(1), blk);
            match op {
                0 => { read(&m, key, &mut out, AppId::UNKNOWN); }
                1 => install(&m, key, &buf, AppId::UNKNOWN),
                2 => { write(&m, key, &buf, AppId::UNKNOWN); }
                3 => { inflight.extend(m.take_dirty(4)); }
                _ => {
                    // Complete any outstanding flushes, then invalidate.
                    for it in inflight.drain(..) {
                        m.flush_complete(it.key, it.span);
                    }
                    let _ = m.invalidate([key]);
                }
            }
            let keys = m.resident_keys();
            let mut uniq = keys.clone();
            uniq.dedup();
            prop_assert_eq!(keys.len(), uniq.len(), "duplicate resident keys");
            prop_assert_eq!(keys.len() + m.free_frames(), 16, "frames not conserved");
        }
    }

    /// Strict partitioning invariants: under any operation sequence by a
    /// mix of quota'd, unquota'd, and unknown applications, no quota'd
    /// app's resident-frame count ever exceeds its quota, total residency
    /// never exceeds the pool, and frames stay conserved.
    #[test]
    fn strict_quotas_never_exceeded(
        ops in proptest::collection::vec((0u8..6, 0u64..48, 0u32..4), 1..300),
    ) {
        const CAP: usize = 16;
        let quotas = [(0u32, 5usize), (1, 7)];
        let m = BufferManager::builder(CAP)
            .watermarks(0, CAP)
            .partitioning(PartitionConfig::strict(quotas))
            .build();
        let buf = vec![3u8; 4096];
        let mut out = vec![0u8; 4096];
        let mut inflight: Vec<kcache::FlushItem> = Vec::new();
        for (op, blk, who) in ops {
            // App 0 and 1 are quota'd, 2 is unlisted, 3 maps to UNKNOWN.
            let app = if who == 3 { AppId::UNKNOWN } else { AppId(who) };
            let key = BlockKey::new(Fid(1), blk);
            match op {
                0 => { read(&m, key, &mut out, app); }
                1 | 2 => install(&m, key, &buf, app),
                3 => { write(&m, key, &buf, app); }
                4 => { inflight.extend(m.take_dirty(4)); }
                _ => {
                    for it in inflight.drain(..) {
                        m.flush_complete(it.key, it.span);
                    }
                    let _ = m.invalidate([key]);
                }
            }
            for (id, q) in quotas {
                prop_assert!(
                    m.resident_of(AppId(id)) <= q,
                    "app {} holds {} frames over its strict quota {}",
                    id, m.resident_of(AppId(id)), q
                );
            }
            let keys = m.resident_keys();
            prop_assert!(keys.len() <= CAP, "total residency exceeds the pool");
            prop_assert_eq!(keys.len() + m.free_frames(), CAP, "frames not conserved");
        }
    }

    /// Directory coherence: three caches process a random operation
    /// interleaving while one iod's [`pvfs::Directory`] is fed exactly what
    /// their modules send it: registrations from caching reads and
    /// flushes, and sync-writes from another node that take every listed
    /// sharer. After every step the directory lists every block each node
    /// holds, but for blocks a local write brought in and no flush has
    /// reported yet: the directory may be stale, never short — so a
    /// sync-write invalidates every copy.
    #[test]
    fn directory_view_tracks_resident_union(
        ops in proptest::collection::vec((0u8..6, 0usize..3, 0u64..48), 1..250),
    ) {
        use std::collections::HashSet;
        const CAP: usize = 8;
        let nodes: Vec<BufferManager> =
            (0..3).map(|_| BufferManager::builder(CAP).watermarks(0, CAP).build()).collect();
        let mut iod = Directory::default();
        // Per node: blocks resident since a write absorbed them, not yet
        // flushed (nothing has told the iod about them).
        let mut unreported: Vec<HashSet<u64>> = vec![HashSet::new(); 3];
        let buf = vec![3u8; 4096];
        let mut out = vec![0u8; 4096];
        let mut inflight: Vec<Vec<kcache::FlushItem>> = vec![Vec::new(); 3];
        for (op, node, blk) in ops {
            let m = &nodes[node];
            let me = NodeId(node as u16);
            let key = BlockKey::new(Fid(1), blk);
            match op {
                0 => { read(m, key, &mut out, AppId::UNKNOWN); }
                // A miss: the read goes to the iod, then the data installs.
                1 | 2 => if !m.contains(key) {
                    iod.register(Fid(1), [blk], me);
                    install(m, key, &buf, AppId::UNKNOWN);
                },
                3 => {
                    let was = m.contains(key);
                    if write(m, key, &buf, AppId::UNKNOWN) && !was {
                        unreported[node].insert(blk);
                    }
                }
                4 => {
                    let taken = m.take_dirty(4);
                    iod.register(Fid(1), taken.iter().map(|it| it.key.blk), me);
                    for it in &taken {
                        unreported[node].remove(&it.key.blk);
                    }
                    inflight[node].extend(taken);
                }
                // Another node sync-writes the block: the iod invalidates
                // every node it lists.
                _ => {
                    for n in iod.take_others(Fid(1), blk, NodeId(9)) {
                        let n = n.index();
                        for it in inflight[n].drain(..) {
                            nodes[n].flush_complete(it.key, it.span);
                        }
                        let _ = nodes[n].invalidate([key]);
                        prop_assert!(!nodes[n].contains(key), "node {} kept block {}", n, blk);
                    }
                }
            }
            for (n, mgr) in nodes.iter().enumerate() {
                // An evicted block is no longer the node's to report.
                unreported[n].retain(|&b| mgr.contains(BlockKey::new(Fid(1), b)));
                for k in mgr.resident_keys() {
                    prop_assert!(
                        unreported[n].contains(&k.blk)
                            || iod.sharers(Fid(1), k.blk).contains(&NodeId(n as u16)),
                        "node {} holds block {} the directory does not list", n, k.blk
                    );
                }
            }
        }
    }

    /// Reads through the buffer manager always return the bytes most
    /// recently written for the covered span.
    #[test]
    fn buffer_manager_read_your_writes(
        writes in proptest::collection::vec((0u64..8, 0u32..5), 1..40),
    ) {
        let m = BufferManager::builder(32).build();
        // Model: per block, the last written fill value.
        let mut model: std::collections::HashMap<u64, u8> = Default::default();
        for (i, (blk, _)) in writes.iter().enumerate() {
            let fill = (i % 251) as u8;
            let data = vec![fill; 4096];
            if write(&m, BlockKey::new(Fid(1), *blk), &data, AppId::UNKNOWN) {
                model.insert(*blk, fill);
            }
            // Verify all modelled blocks still read back correctly.
            for (b, f) in &model {
                let mut out = vec![0u8; 4096];
                if read(&m, BlockKey::new(Fid(1), *b), &mut out, AppId::UNKNOWN) {
                    prop_assert!(out.iter().all(|x| x == f), "stale bytes for block {}", b);
                }
            }
        }
    }

    /// File system: random writes followed by reads return exactly the
    /// written bytes (sparse holes read as zeros).
    #[test]
    fn blockfs_write_read_round_trip(
        writes in proptest::collection::vec((0u64..(1 << 16), 1usize..5000, 0u8..255), 1..20),
    ) {
        let mut fs = BlockFs::new(4096, |_, _, out| out.fill(0));
        let ino = fs.create("f").unwrap();
        let mut model = vec![None::<u8>; 1 << 17];
        for (off, len, fill) in writes {
            let data = vec![fill; len];
            fs.write(ino, off, &data).unwrap();
            for i in 0..len {
                model[off as usize + i] = Some(fill);
            }
        }
        let size = fs.size(ino).unwrap() as usize;
        let mut out = vec![0xAAu8; size];
        let r = fs.read(ino, 0, &mut out).unwrap();
        prop_assert_eq!(r.bytes, size);
        for i in 0..size {
            let expect = model[i].unwrap_or(0);
            prop_assert_eq!(out[i], expect, "byte {} mismatch", i);
        }
    }

    /// Page cache never exceeds capacity and eviction reports are exact.
    #[test]
    fn pagecache_capacity_invariant(ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..500)) {
        let mut pc = PageCache::new(8);
        for (pblk, dirty) in ops {
            if !pc.lookup(pblk) {
                pc.insert(pblk, dirty);
            }
            prop_assert!(pc.len() <= 8);
        }
        let s = pc.stats();
        prop_assert_eq!(
            s.insertions,
            (s.clean_evictions + s.dirty_evictions) + pc.len() as u64
        );
    }

    /// Span algebra: merge of mergeable spans covers both inputs.
    #[test]
    fn span_merge_covers_inputs(a in 0u32..4096, b in 0u32..4096, c in 0u32..4096, d in 0u32..4096) {
        let s1 = Span::new(a.min(b), a.max(b));
        let s2 = Span::new(c.min(d), c.max(d));
        if s1.mergeable(s2) {
            let m = s1.merge(s2);
            prop_assert!(m.covers(s1) && m.covers(s2));
            prop_assert!(m.len() <= s1.len() + s2.len() + 4096, "merge is bounded");
        }
    }
}
