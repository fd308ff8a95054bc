//! 2Q (Johnson & Shasha, VLDB '94) — a FIFO admission queue in front of
//! the main LRU, with a ghost list promoting genuinely re-referenced
//! blocks. Scan-resistant: a one-pass sweep drains through A1in without
//! displacing the hot set in Am.

use crate::index::{GhostLists, RankIndex};
use crate::table::{FrameTable, ScanFilter};
use crate::{AppId, ReplacementPolicy};

// The two resident queues, as class keys of `queues`.
const A1IN: u64 = 0;
const AM: u64 = 1;

/// Full 2Q: `A1in` (FIFO over newly admitted frames), `A1out` (ghost FIFO
/// of fingerprints recently evicted from A1in), `Am` (LRU of proven-hot
/// frames). A block whose fingerprint is found in A1out at insert time is
/// admitted straight into Am. Eviction prefers A1in's front while A1in
/// holds at least `kin` frames, then Am's LRU end.
pub struct TwoQ {
    /// A1in in admission order, Am in recency order.
    queues: RankIndex,
    a1out: GhostLists,
    kin: usize,
}

impl TwoQ {
    pub fn new(capacity: usize) -> TwoQ {
        TwoQ {
            queues: RankIndex::new(capacity),
            // The 2Q paper's rules of thumb: Kin ≈ 25%, Kout ≈ 50%.
            a1out: GhostLists::new(1, (capacity / 2).max(1)),
            kin: (capacity / 4).max(1),
        }
    }

    /// The queue a scan started now drains first; the other follows.
    fn drains_first(&self) -> u64 {
        if self.queues.len_of(A1IN) >= self.kin {
            A1IN
        } else {
            AM
        }
    }
}

impl ReplacementPolicy for TwoQ {
    fn on_access(&mut self, _table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        // 2Q: hits inside the admission FIFO do not reorder it.
        if self.queues.key_of(frame) == Some(AM) {
            self.queues.touch(frame, AM);
        }
    }

    fn on_insert(&mut self, _table: &FrameTable, frame: u32, key: u64, _app: AppId) {
        // Seen recently and re-requested: proven hot, straight to Am.
        let queue = if self.a1out.forget(key).is_some() { AM } else { A1IN };
        self.queues.touch(frame, queue);
    }

    fn on_remove(&mut self, _table: &FrameTable, frame: u32, key: u64) {
        if self.queues.key_of(frame) == Some(A1IN) {
            // Only A1in departures enter the ghost list (Am blocks had
            // their chance to prove heat; 2Q forgets them).
            self.a1out.remember(key, 0);
        }
        self.queues.unlink(frame);
    }

    fn begin_scan(&mut self, _table: &FrameTable) {
        self.queues.begin(self.drains_first());
    }

    fn next_candidate(&mut self, table: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
        self.queues.next(table, filter)
    }

    fn recency_ranking(&self, _table: &FrameTable) -> Option<Vec<u32>> {
        // Same composition begin_scan would pick right now: the queue
        // that drains first ranks as least protected.
        Some(self.queues.order(self.drains_first()).collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::{AppId, PolicyKind, ScanFilter};

    #[test]
    fn admission_fifo_drains_first() {
        let mut q = PolicyKind::TwoQ.build(4);
        for f in 0..4 {
            q.insert(f, 100 + f as u64, AppId::UNKNOWN);
        }
        // All four sit in A1in (>= kin = 1): FIFO order, oldest first.
        q.begin_scan();
        assert_eq!(q.next_candidate(&mut ScanFilter::default()), Some(0));
    }

    #[test]
    fn ghost_hit_promotes_to_am() {
        let mut q = PolicyKind::TwoQ.build(2);
        q.insert(0, 100, AppId::UNKNOWN);
        q.remove(0, 100); // 100 now ghosted in A1out
        q.insert(0, 100, AppId::UNKNOWN); // re-admitted: goes to Am
        q.insert(1, 200, AppId::UNKNOWN); // fresh: A1in
        q.begin_scan();
        assert_eq!(
            q.next_candidate(&mut ScanFilter::default()),
            Some(1),
            "A1in drains before the proven-hot Am block"
        );
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
        assert_eq!(q.next_candidate(&mut ScanFilter::default()), Some(1));
    }
}
