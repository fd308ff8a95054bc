//! LFU — least frequently used, LRU tie-break. Differentiates from
//! clock/LRU only under skewed popularity (the workload's `hotspot` knob).

use crate::table::FrameTable;
use crate::{AppId, ReplacementPolicy};

/// Per-frame access frequency plus a logical access clock for the
/// tie-break. Candidates are offered coldest-first; among equally cold
/// frames, least recently touched first.
pub struct Lfu {
    freq: Vec<u64>,
    last: Vec<u64>,
    tick: u64,
    scan: Vec<u32>,
    scan_pos: usize,
}

impl Lfu {
    pub fn new(capacity: usize) -> Lfu {
        Lfu {
            freq: vec![0; capacity],
            last: vec![0; capacity],
            tick: 0,
            scan: Vec::new(),
            scan_pos: 0,
        }
    }

    fn stamp(&mut self, frame: u32) {
        self.tick += 1;
        self.last[frame as usize] = self.tick;
    }
}

impl ReplacementPolicy for Lfu {
    fn on_access(&mut self, _table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        self.freq[frame as usize] = self.freq[frame as usize].saturating_add(1);
        self.stamp(frame);
    }

    fn on_insert(&mut self, _table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        self.freq[frame as usize] = 1;
        self.stamp(frame);
    }

    fn on_remove(&mut self, _table: &FrameTable, frame: u32, _key: u64) {
        self.freq[frame as usize] = 0;
    }

    fn begin_scan(&mut self, table: &FrameTable) {
        self.scan = table.resident_frames();
        let (freq, last) = (&self.freq, &self.last);
        self.scan.sort_by_key(|&f| (freq[f as usize], last[f as usize]));
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

    fn recency_ranking(&self, table: &FrameTable) -> Option<Vec<u32>> {
        let mut order = table.resident_frames();
        order.sort_by_key(|&f| (self.freq[f as usize], self.last[f as usize]));
        Some(order)
    }
}

#[cfg(test)]
mod tests {
    use crate::{AppId, PolicyKind};

    #[test]
    fn cold_frame_goes_first() {
        let mut l = PolicyKind::Lfu.build(3);
        for f in 0..3 {
            l.insert(f, f as u64, AppId::UNKNOWN);
        }
        for _ in 0..5 {
            l.access(0, 0, AppId::UNKNOWN);
            l.access(2, 2, AppId::UNKNOWN);
        }
        l.access(1, 1, AppId::UNKNOWN);
        l.begin_scan();
        assert_eq!(l.next_candidate(None), Some(1), "frame 1 is the coldest");
    }

    #[test]
    fn lru_breaks_frequency_ties() {
        let mut l = PolicyKind::Lfu.build(2);
        l.insert(0, 0, AppId::UNKNOWN);
        l.insert(1, 1, AppId::UNKNOWN);
        l.access(0, 0, AppId::UNKNOWN);
        l.access(1, 1, AppId::UNKNOWN); // equal freq; 0 touched earlier
        l.begin_scan();
        assert_eq!(l.next_candidate(None), Some(0));
    }

    #[test]
    fn reinsert_resets_frequency() {
        let mut l = PolicyKind::Lfu.build(2);
        l.insert(0, 0, AppId::UNKNOWN);
        for _ in 0..9 {
            l.access(0, 0, AppId::UNKNOWN);
        }
        l.remove(0, 0);
        l.insert(0, 7, AppId::UNKNOWN);
        l.insert(1, 8, AppId::UNKNOWN);
        l.access(1, 8, AppId::UNKNOWN);
        l.begin_scan();
        assert_eq!(l.next_candidate(None), Some(0), "old frequency must not leak to the new block");
    }
}
