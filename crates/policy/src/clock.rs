//! Clock / second-chance — the paper's approximate LRU, extracted from the
//! seed buffer manager without behavioral change.

use crate::table::{FrameTable, ScanFilter};
use crate::{AppId, ReplacementPolicy};

/// Reference-bit clock. The reference bits live in the table's atomic
/// [`RefWords`](crate::RefWords): hits set the frame's word (one relaxed
/// `fetch_or` — on the buffer manager's fast path this happens **without
/// the policy lock**, which is the seed's store-only hit cost); inserts
/// clear it (a block earns its second chance by being *re*-read). An
/// eviction scan sweeps the hand over at most `2 * capacity` frames: the
/// first encounter of a referenced frame consumes its bit, the first
/// unreferenced evictable frame becomes the candidate. The hand persists
/// across scans, exactly like the seed manager's `clock_hand`.
#[derive(Default)]
pub struct Clock {
    hand: usize,
    /// Remaining steps in the current scan (armed by `begin_scan`).
    budget: usize,
}

impl ReplacementPolicy for Clock {
    fn on_access(&mut self, table: &FrameTable, frame: u32, _key: u64, app: AppId) {
        table.ref_words().touch(frame, app);
    }

    fn on_insert(&mut self, table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        table.ref_words().clear(frame);
    }

    fn on_remove(&mut self, _table: &FrameTable, _frame: u32, _key: u64) {}

    fn ranks_from_ref_words(&self) -> bool {
        true
    }

    fn begin_scan(&mut self, table: &FrameTable) {
        self.budget = 2 * table.capacity();
    }

    fn next_candidate(&mut self, table: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
        while self.budget > 0 {
            self.budget -= 1;
            let idx = self.hand as u32;
            self.hand = (self.hand + 1) % table.capacity();
            // A partition-local scan must not strip other tenants'
            // second-chance protection: skip foreign frames before
            // touching their reference bit.
            if filter.owner.is_some_and(|owner| table.owner_of(idx) != owner) {
                continue;
            }
            // Consume the reference bit first (second chance), matching the
            // seed's `swap(false)`-then-skip order.
            if table.ref_words().take(idx) {
                continue;
            }
            if table.evictable_for(idx, filter) {
                return Some(idx);
            }
        }
        None
    }

    /// Hand order approximates recency: the next frames the hand would
    /// visit are offered first, with currently-referenced frames — the
    /// ones a sweep would grant a second chance — ranked after every
    /// unreferenced frame. Reads the atomic words without consuming them,
    /// so exporting the ranking never strips protection.
    fn recency_ranking(&self, table: &FrameTable) -> Option<Vec<u32>> {
        let cap = table.capacity();
        let sweep = |referenced: bool| {
            (0..cap).map(move |i| ((self.hand + i) % cap) as u32).filter(move |&f| {
                table.is_resident(f) && table.ref_words().is_referenced(f) == referenced
            })
        };
        Some(sweep(false).chain(sweep(true)).collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::{AccessEvent, AppId, PolicyKind, ScanFilter};

    #[test]
    fn unreferenced_frame_is_victim() {
        let mut c = PolicyKind::Clock.build(4);
        for f in 0..4 {
            c.insert(f, f as u64, AppId::UNKNOWN);
        }
        for f in [0u32, 1, 3] {
            c.access(f, f as u64, AppId::UNKNOWN);
        }
        c.begin_scan();
        assert_eq!(
            c.next_candidate(&mut ScanFilter::default()),
            Some(2),
            "only frame 2 kept no reference bit"
        );
    }

    #[test]
    fn pinned_frames_are_skipped() {
        let mut c = PolicyKind::Clock.build(3);
        for f in 0..3 {
            c.insert(f, f as u64, AppId::UNKNOWN);
        }
        c.table_mut().set_pinned(0, true);
        c.begin_scan();
        assert_eq!(c.next_candidate(&mut ScanFilter::default()), Some(1));
    }

    #[test]
    fn scan_terminates_on_empty_pool() {
        let mut c = PolicyKind::Clock.build(8);
        c.begin_scan();
        assert_eq!(c.next_candidate(&mut ScanFilter::default()), None);
    }

    #[test]
    fn lock_free_ref_word_grants_second_chance() {
        // The fast path: a producer touches the atomic word directly (no
        // on_access call) and the scan honors it exactly like a hit.
        let mut c = PolicyKind::Clock.build(2);
        c.insert(0, 10, AppId::UNKNOWN);
        c.insert(1, 11, AppId::UNKNOWN);
        c.table().ref_words().touch(0, AppId(3));
        c.begin_scan();
        assert_eq!(
            c.next_candidate(&mut ScanFilter::default()),
            Some(1),
            "frame 0's atomic bit protects it"
        );
    }

    #[test]
    fn drain_updates_ledgers_without_touching_recency() {
        let mut c = PolicyKind::Clock.build(2);
        c.insert(0, 10, AppId(1));
        // The producer stored the recency word at access time...
        c.table().ref_words().touch(0, AppId(1));
        // ...and an eviction scan consumed it before the drain arrived.
        c.begin_scan();
        assert_eq!(c.next_candidate(&mut ScanFilter::default()), Some(0));
        c.drain(&[AccessEvent::hit(0, 10, AppId(1)), AccessEvent::miss(AppId(1))]);
        assert_eq!((c.table().stats.hits, c.table().stats.misses), (1, 1));
        assert!(
            !c.table().ref_words().is_referenced(0),
            "drain must not resurrect a consumed reference bit"
        );
    }

    #[test]
    fn filtered_scan_preserves_foreign_second_chances() {
        let mut c = PolicyKind::Clock.build(4);
        // Frames 0,1 belong to app 0; 2,3 to app 1; everyone referenced.
        for f in 0..4u32 {
            c.insert(f, f as u64, AppId(f / 2));
            c.access(f, f as u64, AppId(f / 2));
        }
        // App 1's partition-local scan consumes only its *own* reference
        // bits (2, 3) on the way to its victim.
        c.begin_scan();
        assert_eq!(c.next_candidate(&mut ScanFilter::owned_by(AppId(1))), Some(2));
        // App 0's frames kept their bits: the next unfiltered scan still
        // grants them a second chance, so app 1's spent frames (3, then 2)
        // are offered first.
        c.begin_scan();
        assert_eq!(c.next_candidate(&mut ScanFilter::default()), Some(3));
        assert_eq!(c.next_candidate(&mut ScanFilter::default()), Some(2));
    }
}
