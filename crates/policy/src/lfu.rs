//! LFU — least frequently used, LRU tie-break. Differentiates from
//! clock/LRU only under skewed popularity (the workload's `hotspot` knob).

use crate::index::RankIndex;
use crate::table::{FrameTable, ScanFilter};
use crate::{AppId, ReplacementPolicy};

/// Frames filed by access frequency, least recently touched first within
/// one frequency: candidates are offered coldest-first; among equally cold
/// frames, least recently touched first. A hit moves a frame to the next
/// frequency's MRU end.
pub struct Lfu {
    order: RankIndex,
}

impl Lfu {
    pub fn new(capacity: usize) -> Lfu {
        Lfu { order: RankIndex::new(capacity) }
    }
}

impl ReplacementPolicy for Lfu {
    fn on_access(&mut self, _table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        let freq = self.order.key_of(frame).unwrap_or(0);
        self.order.touch(frame, freq.saturating_add(1));
    }

    fn on_insert(&mut self, _table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        self.order.touch(frame, 1);
    }

    fn on_remove(&mut self, _table: &FrameTable, frame: u32, _key: u64) {
        self.order.unlink(frame);
    }

    fn begin_scan(&mut self, _table: &FrameTable) {
        self.order.begin(0);
    }

    fn next_candidate(&mut self, table: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
        self.order.next(table, filter)
    }

    fn recency_ranking(&self, table: &FrameTable) -> Option<Vec<u32>> {
        // A hit replayed after its frame was vacated leaves it filed here
        // until the next insert; scans skip it, and so does the export.
        Some(self.order.order(0).filter(|&f| table.is_resident(f)).collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::{AppId, PolicyKind, ScanFilter};

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
        assert_eq!(l.next_candidate(&mut ScanFilter::default()), Some(1), "frame 1 is the coldest");
    }

    #[test]
    fn lru_breaks_frequency_ties() {
        let mut l = PolicyKind::Lfu.build(2);
        l.insert(0, 0, AppId::UNKNOWN);
        l.insert(1, 1, AppId::UNKNOWN);
        l.access(0, 0, AppId::UNKNOWN);
        l.access(1, 1, AppId::UNKNOWN); // equal freq; 0 touched earlier
        l.begin_scan();
        assert_eq!(l.next_candidate(&mut ScanFilter::default()), Some(0));
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
        assert_eq!(
            l.next_candidate(&mut ScanFilter::default()),
            Some(0),
            "old frequency must not leak to the new block"
        );
    }
}
