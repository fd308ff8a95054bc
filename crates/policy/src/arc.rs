//! ARC (Megiddo & Modha, FAST '03) — adaptive replacement cache. Balances
//! a recency list (T1) against a frequency list (T2), steering the split
//! with ghost-list hits so the policy adapts to the workload instead of
//! being tuned for it.

use crate::index::{GhostLists, RankIndex};
use crate::table::{FrameTable, ScanFilter};
use crate::{AppId, ReplacementPolicy};

// T1 and T2 as class keys of `lists`, B1 and B2 as queues of `ghosts`.
const T1: u64 = 0;
const T2: u64 = 1;

/// T1 holds frames seen once recently, T2 frames seen at least twice; B1
/// and B2 remember fingerprints recently evicted from each. A B1 hit at
/// insert time means "recency is being starved" and grows the T1 target
/// `p`; a B2 hit shrinks it. Eviction takes T1's LRU end while T1 exceeds
/// its target, T2's otherwise.
pub struct Arc {
    /// Both resident lists in recency order.
    lists: RankIndex,
    /// B1 (queue `T1`) and B2 (queue `T2`), a pool's worth of keys each.
    ghosts: GhostLists,
    /// Target size of T1, adapted on ghost hits. `0 ..= capacity`.
    p: usize,
}

impl Arc {
    pub fn new(capacity: usize) -> Arc {
        Arc { lists: RankIndex::new(capacity), ghosts: GhostLists::new(2, capacity), p: 0 }
    }

    /// Current T1 target (diagnostics/tests).
    pub fn target_t1(&self) -> usize {
        self.p
    }

    /// REPLACE(): evict from T1 while it exceeds its target, else T2; the
    /// other list follows as fallback so a scan never starves.
    fn drains_first(&self) -> u64 {
        if self.lists.len_of(T1) > self.p {
            T1
        } else {
            T2
        }
    }
}

impl ReplacementPolicy for Arc {
    fn on_access(&mut self, _table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        // Any resident hit proves frequency: promote to T2's MRU end.
        self.lists.touch(frame, T2);
    }

    fn on_insert(&mut self, table: &FrameTable, frame: u32, key: u64, _app: AppId) {
        let ghosts = &mut self.ghosts;
        let list = match ghosts.forget(key) {
            // Recency ghost hit: T1 was evicted too aggressively.
            Some(T1) => {
                let delta = (ghosts.len(T2) / ghosts.len(T1).max(1)).max(1);
                self.p = (self.p + delta).min(table.capacity());
                T2
            }
            // Frequency ghost hit: give T2 more room.
            Some(_) => {
                let delta = (ghosts.len(T1) / ghosts.len(T2).max(1)).max(1);
                self.p = self.p.saturating_sub(delta);
                T2
            }
            None => T1,
        };
        self.lists.touch(frame, list);
    }

    fn on_remove(&mut self, _table: &FrameTable, frame: u32, key: u64) {
        if let Some(list) = self.lists.key_of(frame) {
            self.ghosts.remember(key, list);
        }
        self.lists.unlink(frame);
    }

    fn begin_scan(&mut self, _table: &FrameTable) {
        self.lists.begin(self.drains_first());
    }

    fn next_candidate(&mut self, table: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
        self.lists.next(table, filter)
    }

    fn recency_ranking(&self, _table: &FrameTable) -> Option<Vec<u32>> {
        // Same composition begin_scan would pick right now (REPLACE()'s
        // rule): the list being drained ranks least protected.
        Some(self.lists.order(self.drains_first()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;

    #[test]
    fn once_seen_frames_drain_before_hot_ones() {
        let mut a = PolicyKind::Arc.build(4);
        for f in 0..4 {
            a.insert(f, f as u64, AppId::UNKNOWN);
        }
        a.access(2, 2, AppId::UNKNOWN); // 2 → T2
        a.begin_scan();
        assert_eq!(a.next_candidate(&mut ScanFilter::default()), Some(0), "T1 LRU end goes first");
        let mut seen = Vec::new();
        while let Some(f) = a.next_candidate(&mut ScanFilter::default()) {
            seen.push(f);
        }
        assert_eq!(seen, vec![1, 3, 2], "T2 member offered last");
    }

    // `target_t1` lives on the concrete ranker, which a `RankedTable` boxes
    // away: these two drive the bare hooks (ARC reads only the table's
    // capacity in them) with a table borrowed from a built pool.

    #[test]
    fn recency_ghost_hit_grows_t1_target() {
        let pool = PolicyKind::Arc.build(4);
        let (t, mut a) = (pool.table(), Arc::new(4));
        a.on_insert(t, 0, 42, AppId::UNKNOWN);
        a.on_remove(t, 0, 42); // 42 → B1
        assert_eq!(a.target_t1(), 0);
        a.on_insert(t, 1, 42, AppId::UNKNOWN); // B1 hit
        assert!(a.target_t1() > 0, "p must grow on a B1 hit");
        // The same sequence through the pool: the re-admitted block went
        // to T2, and with T1 empty the scan falls back to it.
        let mut a = pool;
        a.insert(0, 42, AppId::UNKNOWN);
        a.remove(0, 42);
        a.insert(1, 42, AppId::UNKNOWN);
        a.begin_scan();
        assert_eq!(a.next_candidate(&mut ScanFilter::default()), Some(1));
    }

    #[test]
    fn frequency_ghost_hit_shrinks_t1_target() {
        let pool = PolicyKind::Arc.build(4);
        let (t, mut a) = (pool.table(), Arc::new(4));
        a.on_insert(t, 0, 7, AppId::UNKNOWN);
        a.on_access(t, 0, 7, AppId::UNKNOWN); // → T2
        a.on_remove(t, 0, 7); // 7 → B2
        a.on_insert(t, 1, 99, AppId::UNKNOWN);
        a.on_remove(t, 1, 99); // 99 → B1
        a.on_insert(t, 2, 99, AppId::UNKNOWN); // grow p
        let grown = a.target_t1();
        a.on_insert(t, 3, 7, AppId::UNKNOWN); // B2 hit: shrink p
        assert!(a.target_t1() < grown);
    }
}
