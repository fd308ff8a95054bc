//! ARC (Megiddo & Modha, FAST '03) — adaptive replacement cache. Balances
//! a recency list (T1) against a frequency list (T2), steering the split
//! with ghost-list hits so the policy adapts to the workload instead of
//! being tuned for it.

use crate::table::FrameTable;
use crate::{AppId, ReplacementPolicy};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    None,
    T1,
    T2,
}

/// T1 holds frames seen once recently, T2 frames seen at least twice; B1
/// and B2 remember fingerprints recently evicted from each. A B1 hit at
/// insert time means "recency is being starved" and grows the T1 target
/// `p`; a B2 hit shrinks it. Eviction takes T1's LRU end while T1 exceeds
/// its target, T2's otherwise.
pub struct Arc {
    loc: Vec<Loc>,
    /// Front = LRU, back = MRU.
    t1: VecDeque<u32>,
    t2: VecDeque<u32>,
    b1: VecDeque<u64>,
    b2: VecDeque<u64>,
    /// Target size of T1, adapted on ghost hits. `0 ..= capacity`.
    p: usize,
    scan: Vec<u32>,
    scan_pos: usize,
}

impl Arc {
    pub fn new(capacity: usize) -> Arc {
        Arc {
            loc: vec![Loc::None; capacity],
            t1: VecDeque::new(),
            t2: VecDeque::new(),
            b1: VecDeque::new(),
            b2: VecDeque::new(),
            p: 0,
            scan: Vec::new(),
            scan_pos: 0,
        }
    }

    /// Current T1 target (diagnostics/tests).
    pub fn target_t1(&self) -> usize {
        self.p
    }

    fn detach(&mut self, frame: u32) {
        match self.loc[frame as usize] {
            Loc::T1 => self.t1.retain(|&f| f != frame),
            Loc::T2 => self.t2.retain(|&f| f != frame),
            Loc::None => {}
        }
        self.loc[frame as usize] = Loc::None;
    }

    fn trim_ghost(ghost: &mut VecDeque<u64>, cap: usize) {
        while ghost.len() > cap {
            ghost.pop_front();
        }
    }
}

impl ReplacementPolicy for Arc {
    fn on_access(&mut self, _table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        // Any resident hit proves frequency: promote to T2's MRU end.
        self.detach(frame);
        self.t2.push_back(frame);
        self.loc[frame as usize] = Loc::T2;
    }

    fn on_insert(&mut self, table: &FrameTable, frame: u32, key: u64, _app: AppId) {
        self.detach(frame);
        if let Some(pos) = self.b1.iter().position(|&k| k == key) {
            // Recency ghost hit: T1 was evicted too aggressively.
            self.b1.remove(pos);
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
            self.p = (self.p + delta).min(table.capacity());
            self.t2.push_back(frame);
            self.loc[frame as usize] = Loc::T2;
        } else if let Some(pos) = self.b2.iter().position(|&k| k == key) {
            // Frequency ghost hit: give T2 more room.
            self.b2.remove(pos);
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
            self.p = self.p.saturating_sub(delta);
            self.t2.push_back(frame);
            self.loc[frame as usize] = Loc::T2;
        } else {
            self.t1.push_back(frame);
            self.loc[frame as usize] = Loc::T1;
        }
    }

    fn on_remove(&mut self, table: &FrameTable, frame: u32, key: u64) {
        let cap = table.capacity();
        match self.loc[frame as usize] {
            Loc::T1 => {
                self.b1.push_back(key);
                Self::trim_ghost(&mut self.b1, cap);
            }
            Loc::T2 => {
                self.b2.push_back(key);
                Self::trim_ghost(&mut self.b2, cap);
            }
            Loc::None => {}
        }
        self.detach(frame);
    }

    fn begin_scan(&mut self, _table: &FrameTable) {
        self.scan.clear();
        // REPLACE(): evict from T1 while it exceeds its target, else T2;
        // the other list follows as fallback so a scan never starves.
        if !self.t1.is_empty() && self.t1.len() > self.p {
            self.scan.extend(self.t1.iter());
            self.scan.extend(self.t2.iter());
        } else {
            self.scan.extend(self.t2.iter());
            self.scan.extend(self.t1.iter());
        }
        self.scan_pos = 0;
    }

    fn next_candidate(&mut self, table: &FrameTable, filter: Option<AppId>) -> Option<u32> {
        while self.scan_pos < self.scan.len() {
            let idx = self.scan[self.scan_pos];
            self.scan_pos += 1;
            if table.evictable_for(idx, filter) {
                return Some(idx);
            }
        }
        None
    }

    fn recency_ranking(&self, _table: &FrameTable) -> Option<Vec<u32>> {
        // Same composition begin_scan would pick right now (REPLACE()'s
        // rule): the list being drained ranks least protected.
        let mut order = Vec::with_capacity(self.t1.len() + self.t2.len());
        if !self.t1.is_empty() && self.t1.len() > self.p {
            order.extend(self.t1.iter());
            order.extend(self.t2.iter());
        } else {
            order.extend(self.t2.iter());
            order.extend(self.t1.iter());
        }
        Some(order)
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
        assert_eq!(a.next_candidate(None), Some(0), "T1 LRU end goes first");
        let mut seen = Vec::new();
        while let Some(f) = a.next_candidate(None) {
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
        assert_eq!(a.next_candidate(None), Some(1));
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
