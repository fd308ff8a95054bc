//! Clock / second-chance — the paper's approximate LRU, extracted from the
//! seed buffer manager without behavioral change.

use crate::table::{FrameTable, FrameWords, RefWords, ScanFilter};
use crate::{AppId, ReplacementPolicy};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The clock hand, and the one sweep every clock scan runs over it. The
/// hand is an atomic step count shared by `Arc`; each step of a sweep
/// takes the next frame with one `fetch_add(1)`, so two sweeps running at
/// once take turns at the frames, never the same step. The [`Clock`]
/// ranker sweeps it in whatever hold its table is in (an adaptive
/// shard's policy lock, a ghost cache); a static clock shard of the
/// buffer manager clones the handle out once and sweeps it with no lock
/// at all (PostgreSQL's `ClockSweepTick` is the same idea).
#[derive(Debug, Clone, Default)]
pub struct ClockHand(Arc<AtomicUsize>);

impl ClockHand {
    /// Steps one scan may take over `capacity` frames: two laps, so a
    /// frame whose reference bit the first lap consumed is offered on the
    /// second. Each scan keeps its own budget.
    pub fn budget(capacity: usize) -> usize {
        2 * capacity
    }

    /// The frame the hand visits next.
    pub fn position(&self, capacity: usize) -> usize {
        self.0.load(Ordering::Relaxed) % capacity
    }

    /// Sweep the hand on to the scan's next candidate, spending one of
    /// `budget`'s steps per frame passed: a frame `filter` names another
    /// owner for is skipped before its reference bit is touched (a
    /// partition-local scan must not strip other tenants' second
    /// chances); a referenced frame has its bit consumed and is passed
    /// (its second chance, the seed's `swap(false)`-then-skip order); the
    /// first unreferenced evictable frame is the candidate. `None` once
    /// the budget is spent.
    pub fn sweep(
        &self,
        words: &FrameWords,
        refs: &RefWords,
        budget: &mut usize,
        filter: &mut ScanFilter,
    ) -> Option<u32> {
        let capacity = words.capacity();
        while *budget > 0 {
            *budget -= 1;
            let idx = (self.0.fetch_add(1, Ordering::Relaxed) % capacity) as u32;
            if filter.owner.is_some_and(|owner| words.owner_of(idx) != owner) {
                continue;
            }
            if refs.take(idx) {
                continue;
            }
            if words.evictable_for(idx, filter) {
                return Some(idx);
            }
        }
        None
    }
}

/// Reference-bit clock. The reference bits live in the table's atomic
/// [`RefWords`]: hits set the frame's word (one relaxed `fetch_or` — on
/// the buffer manager's fast path this happens **without the policy
/// lock**, which is the seed's store-only hit cost); inserts clear it (a
/// block earns its second chance by being *re*-read). An eviction scan
/// is a [`ClockHand::sweep`] over at most `2 * capacity` frames. The hand
/// persists across scans, exactly like the seed manager's `clock_hand`.
#[derive(Default)]
pub struct Clock {
    hand: ClockHand,
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

    fn clock_hand(&self) -> Option<&ClockHand> {
        Some(&self.hand)
    }

    fn begin_scan(&mut self, table: &FrameTable) {
        self.budget = ClockHand::budget(table.capacity());
    }

    fn next_candidate(&mut self, table: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
        self.hand.sweep(table.frame_words(), table.ref_words(), &mut self.budget, filter)
    }

    /// Hand order approximates recency: the next frames the hand would
    /// visit are offered first, with currently-referenced frames — the
    /// ones a sweep would grant a second chance — ranked after every
    /// unreferenced frame. Reads the atomic words without consuming them,
    /// so exporting the ranking never strips protection.
    fn recency_ranking(&self, table: &FrameTable) -> Option<Vec<u32>> {
        let cap = table.capacity();
        let hand = self.hand.position(cap);
        let sweep = |referenced: bool| {
            (0..cap).map(move |i| ((hand + i) % cap) as u32).filter(move |&f| {
                table.is_resident(f) && table.ref_words().is_referenced(f) == referenced
            })
        };
        Some(sweep(false).chain(sweep(true)).collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::{AppId, PolicyKind, ScanFilter};

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
        c.table().set_pinned(0, true);
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
    fn a_touch_never_resurrects_a_consumed_reference_bit() {
        let mut c = PolicyKind::Clock.build(2);
        c.insert(0, 10, AppId(1));
        // The caller stored the recency word at access time...
        c.table().ref_words().touch(0, AppId(1));
        // ...and another thread's sweep consumed it before the caller
        // took the lock to apply the access.
        c.begin_scan();
        assert_eq!(c.next_candidate(&mut ScanFilter::default()), Some(0));
        c.touch(0, 10, AppId(1));
        assert!(
            !c.table().ref_words().is_referenced(0),
            "a touch must not resurrect a consumed reference bit"
        );
    }

    /// Two threads sweeping one hand at once take turns at the frames:
    /// each step belongs to exactly one sweep. Every frame here is
    /// resident and unreferenced, so every step offers one, and over two
    /// budgets of `LAPS` laps each frame is offered exactly `2 × LAPS`
    /// times, whichever thread took it. A hand two sweeps could read
    /// before either stored it back would offer some frames twice at a
    /// step and skip others.
    #[test]
    fn concurrent_sweeps_never_take_the_same_step() {
        const CAP: usize = 8;
        const LAPS: usize = 20_000;
        let mut c = PolicyKind::Clock.build(CAP);
        for f in 0..CAP as u32 {
            c.insert(f, f as u64, AppId::UNKNOWN);
        }
        let hand = c.ranker().clock_hand().expect("clock sweeps a hand");
        let (words, refs) = (c.table().frame_words(), c.table().ref_words());
        let sweep = || {
            let (mut budget, mut offered) = (LAPS * CAP, [0usize; CAP]);
            let filter = &mut ScanFilter::default();
            while let Some(f) = hand.sweep(words, refs, &mut budget, filter) {
                offered[f as usize] += 1;
            }
            offered
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(sweep), s.spawn(sweep));
            (a.join().expect("sweep"), b.join().expect("sweep"))
        });
        assert_eq!(std::array::from_fn(|f| a[f] + b[f]), [2 * LAPS; CAP]);
        assert_eq!(hand.position(CAP), 0, "whole laps in all");
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
