//! 2Q (Johnson & Shasha, VLDB '94) — a FIFO admission queue in front of
//! the main LRU, with a ghost list promoting genuinely re-referenced
//! blocks. Scan-resistant: a one-pass sweep drains through A1in without
//! displacing the hot set in Am.

use crate::table::FrameTable;
use crate::{AppId, ReplacementPolicy};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    None,
    A1In,
    Am,
}

/// Full 2Q: `A1in` (FIFO over newly admitted frames), `A1out` (ghost FIFO
/// of fingerprints recently evicted from A1in), `Am` (LRU of proven-hot
/// frames). A block whose fingerprint is found in A1out at insert time is
/// admitted straight into Am. Eviction prefers A1in's front while A1in
/// holds at least `kin` frames, then Am's LRU end.
pub struct TwoQ {
    loc: Vec<Loc>,
    a1in: VecDeque<u32>,
    /// Front = LRU, back = MRU.
    am: VecDeque<u32>,
    a1out: VecDeque<u64>,
    kin: usize,
    kout: usize,
    scan: Vec<u32>,
    scan_pos: usize,
}

impl TwoQ {
    pub fn new(capacity: usize) -> TwoQ {
        TwoQ {
            loc: vec![Loc::None; capacity],
            a1in: VecDeque::new(),
            am: VecDeque::new(),
            a1out: VecDeque::new(),
            // The 2Q paper's rules of thumb: Kin ≈ 25%, Kout ≈ 50%.
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
            scan: Vec::new(),
            scan_pos: 0,
        }
    }

    fn detach(&mut self, frame: u32) {
        match self.loc[frame as usize] {
            Loc::A1In => self.a1in.retain(|&f| f != frame),
            Loc::Am => self.am.retain(|&f| f != frame),
            Loc::None => {}
        }
        self.loc[frame as usize] = Loc::None;
    }

    fn remember_ghost(&mut self, key: u64) {
        self.a1out.retain(|&k| k != key);
        self.a1out.push_back(key);
        while self.a1out.len() > self.kout {
            self.a1out.pop_front();
        }
    }
}

impl ReplacementPolicy for TwoQ {
    fn on_access(&mut self, _table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        match self.loc[frame as usize] {
            // 2Q: hits inside the admission FIFO do not reorder it.
            Loc::A1In => {}
            Loc::Am => {
                self.am.retain(|&f| f != frame);
                self.am.push_back(frame);
            }
            Loc::None => {}
        }
    }

    fn on_insert(&mut self, _table: &FrameTable, frame: u32, key: u64, _app: AppId) {
        self.detach(frame);
        if let Some(pos) = self.a1out.iter().position(|&k| k == key) {
            // Seen recently and re-requested: proven hot, straight to Am.
            self.a1out.remove(pos);
            self.am.push_back(frame);
            self.loc[frame as usize] = Loc::Am;
        } else {
            self.a1in.push_back(frame);
            self.loc[frame as usize] = Loc::A1In;
        }
    }

    fn on_remove(&mut self, _table: &FrameTable, frame: u32, key: u64) {
        if self.loc[frame as usize] == Loc::A1In {
            // Only A1in departures enter the ghost list (Am blocks had
            // their chance to prove heat; 2Q forgets them).
            self.remember_ghost(key);
        }
        self.detach(frame);
    }

    fn begin_scan(&mut self, _table: &FrameTable) {
        self.scan.clear();
        if self.a1in.len() >= self.kin {
            self.scan.extend(self.a1in.iter());
            self.scan.extend(self.am.iter());
        } else {
            self.scan.extend(self.am.iter());
            self.scan.extend(self.a1in.iter());
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
        // Same composition begin_scan would pick right now: the queue
        // that drains first ranks as least protected.
        let mut order = Vec::with_capacity(self.a1in.len() + self.am.len());
        if self.a1in.len() >= self.kin {
            order.extend(self.a1in.iter());
            order.extend(self.am.iter());
        } else {
            order.extend(self.am.iter());
            order.extend(self.a1in.iter());
        }
        Some(order)
    }
}

#[cfg(test)]
mod tests {
    use crate::{AppId, PolicyKind};

    #[test]
    fn admission_fifo_drains_first() {
        let mut q = PolicyKind::TwoQ.build(4);
        for f in 0..4 {
            q.insert(f, 100 + f as u64, AppId::UNKNOWN);
        }
        // All four sit in A1in (>= kin = 1): FIFO order, oldest first.
        q.begin_scan();
        assert_eq!(q.next_candidate(None), Some(0));
    }

    #[test]
    fn ghost_hit_promotes_to_am() {
        let mut q = PolicyKind::TwoQ.build(2);
        q.insert(0, 100, AppId::UNKNOWN);
        q.remove(0, 100); // 100 now ghosted in A1out
        q.insert(0, 100, AppId::UNKNOWN); // re-admitted: goes to Am
        q.insert(1, 200, AppId::UNKNOWN); // fresh: A1in
        q.begin_scan();
        assert_eq!(q.next_candidate(None), Some(1), "A1in drains before the proven-hot Am block");
    }

    #[test]
    fn am_is_lru_ordered() {
        let mut q = PolicyKind::TwoQ.build(3);
        for (f, k) in [(0u32, 10u64), (1, 11)] {
            q.insert(f, k, AppId::UNKNOWN);
            q.remove(f, k);
            q.insert(f, k, AppId::UNKNOWN); // both promoted to Am
        }
        q.access(0, 10, AppId::UNKNOWN); // 1 is now Am's LRU
        q.begin_scan();
        assert_eq!(q.next_candidate(None), Some(1));
    }
}
