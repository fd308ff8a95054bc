//! Exact LRU — the ablation the paper argues against ("exact LRU can
//! result in a significant overhead at each read/write invocation"),
//! extracted from the seed buffer manager's intrusive list.

use crate::index::RankIndex;
use crate::table::{FrameTable, ScanFilter};
use crate::{AppId, ReplacementPolicy};

/// One recency list over frame indices: every access relinks the frame to
/// the MRU end, an eviction scan walks from the LRU end, exactly like the
/// seed's `lru_order`.
pub struct ExactLru {
    order: RankIndex,
}

impl ExactLru {
    pub fn new(capacity: usize) -> ExactLru {
        ExactLru { order: RankIndex::new(capacity) }
    }
}

impl ReplacementPolicy for ExactLru {
    fn on_access(&mut self, _table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        self.order.touch(frame, 0);
    }

    fn on_insert(&mut self, _table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        self.order.touch(frame, 0);
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

    fn recency_ranking(&self, _table: &FrameTable) -> Option<Vec<u32>> {
        Some(self.order.order(0).collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::{AppId, PolicyKind, ScanFilter};

    #[test]
    fn evicts_strictly_oldest() {
        let mut l = PolicyKind::ExactLru.build(3);
        for f in 0..3 {
            l.insert(f, f as u64, AppId::UNKNOWN);
        }
        l.access(0, 0, AppId::UNKNOWN); // 1 is now LRU
        l.begin_scan();
        assert_eq!(l.next_candidate(&mut ScanFilter::default()), Some(1));
        assert_eq!(l.next_candidate(&mut ScanFilter::default()), Some(2));
        assert_eq!(l.next_candidate(&mut ScanFilter::default()), Some(0));
        assert_eq!(l.next_candidate(&mut ScanFilter::default()), None);
    }

    #[test]
    fn remove_unlinks() {
        let mut l = PolicyKind::ExactLru.build(3);
        for f in 0..3 {
            l.insert(f, f as u64, AppId::UNKNOWN);
        }
        l.remove(0, 0);
        l.begin_scan();
        assert_eq!(l.next_candidate(&mut ScanFilter::default()), Some(1));
        assert_eq!(l.next_candidate(&mut ScanFilter::default()), Some(2));
        assert_eq!(l.next_candidate(&mut ScanFilter::default()), None);
    }
}
