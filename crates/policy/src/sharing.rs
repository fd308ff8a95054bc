//! Sharing-aware eviction — the paper's inter-application insight turned
//! into an eviction preference. The whole point of the kernel-level cache
//! is that one application's fetch serves another application's future
//! read (§2); a block that has demonstrably been referenced by multiple
//! applications is worth more than a private one, so it is evicted last.

use crate::index::RankIndex;
use crate::table::{FrameTable, ScanFilter};
use crate::{AppId, ReplacementPolicy};

/// Per-frame referent set (a 64-bit app bitmask) plus a logical access
/// clock. Eviction ranks frames by **referent count** ascending (fewer
/// distinct applications ⇒ evicted earlier), LRU within each count class —
/// so the policy degrades to exact LRU when no sharing exists and
/// protection scales with how widely a block is actually shared, not the
/// old binary shared/private split (a 3-app block now outlives a 2-app
/// one).
///
/// Referent evidence arrives on two paths: `on_access`, which the buffer
/// manager calls for every hit and touch as it happens, and the table's
/// lock-free [`RefWords`](crate::RefWords) app-touch mask, which the
/// manager stores into just before. `begin_scan` unions the mask into the
/// live generation. Most of it is already there; what is not is the
/// touches since the mask was last consumed that `on_access` never saw
/// in this generation — those before an epoch tick, and those made
/// while another candidate ranked an adaptive shard before it switched
/// here. Dropping the fold changes the adaptive ablation's hit ratios.
///
/// Sharing observed long ago is not sharing now: the referent mask is
/// **aged on every epoch tick** (driven by the buffer manager when epochs
/// are enabled) with a two-generation scheme — the current-epoch mask
/// rolls into an aged generation and a fresh one starts; a referent that
/// does not re-touch the block within two epochs stops protecting it.
pub struct SharingAware {
    /// Bit `app % 63` per distinct known referent observed in the current
    /// epoch. Unknown origins contribute no bit at all: an unattributed
    /// touch (direct manager API use, sync-write refreshes) must never
    /// make a block look shared.
    apps: Vec<u64>,
    /// Referents from the previous epoch (union'd with `apps` for
    /// ranking; dropped at the next tick unless refreshed).
    aged: Vec<u64>,
    /// Frames filed by referent count, least recently touched first.
    order: RankIndex,
}

// Same bit layout as the RefWords app-touch mask (bits 0..=62, `app %
// 63`), so the two mask spaces union directly at scan time.
fn app_bit(app: AppId) -> u64 {
    if app == AppId::UNKNOWN {
        0
    } else {
        1 << (app.0 % 63)
    }
}

impl SharingAware {
    pub fn new(capacity: usize) -> SharingAware {
        SharingAware {
            apps: vec![0; capacity],
            aged: vec![0; capacity],
            order: RankIndex::new(capacity),
        }
    }

    /// Number of distinct *known* applications currently protecting
    /// `frame` — the union of the live and aged generations (unattributed
    /// accesses count zero).
    pub fn referents(&self, frame: u32) -> u32 {
        (self.apps[frame as usize] | self.aged[frame as usize]).count_ones()
    }
}

impl ReplacementPolicy for SharingAware {
    fn consumes_app_mask(&self) -> bool {
        true
    }

    fn on_access(&mut self, _table: &FrameTable, frame: u32, _key: u64, app: AppId) {
        self.apps[frame as usize] |= app_bit(app);
        self.order.touch(frame, self.referents(frame) as u64);
    }

    fn on_insert(&mut self, _table: &FrameTable, frame: u32, _key: u64, app: AppId) {
        self.apps[frame as usize] = app_bit(app);
        self.aged[frame as usize] = 0;
        self.order.touch(frame, self.referents(frame) as u64);
    }

    fn on_remove(&mut self, _table: &FrameTable, frame: u32, _key: u64) {
        self.apps[frame as usize] = 0;
        self.aged[frame as usize] = 0;
        self.order.unlink(frame);
    }

    fn begin_scan(&mut self, table: &FrameTable) {
        // Fold in the app-touch masks (see the type docs for what they
        // add beyond `on_access`). The fold *consumes* the mask (the ref
        // bit stays in place for clock-style ranking) so each touch
        // enters the generational bookkeeping at most once more — a
        // re-read at the next scan must not resurrect evidence the epoch
        // aging already retired.
        //
        // One relaxed load per frame finds the touched ones (a ghost
        // table has none); only those pay the consuming RMW, and only a
        // frame whose referent count grew is re-filed, its stamp kept.
        let words = table.ref_words();
        for frame in words.touched().filter(|&f| table.is_resident(f)) {
            self.apps[frame as usize] |= words.take_app_mask(frame);
            let referents = self.referents(frame) as u64;
            if self.order.key_of(frame) != Some(referents) {
                self.order.rekey(frame, referents);
            }
        }
        // Fewest referents first, oldest before newest within each class.
        self.order.begin(0);
    }

    fn next_candidate(&mut self, table: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
        self.order.next(table, filter)
    }

    fn recency_ranking(&self, table: &FrameTable) -> Option<Vec<u32>> {
        // Scan order without the scan's side effects: the app-touch masks
        // are *read* (`app_mask`), not consumed — exporting a ranking for
        // migration must not retire sharing evidence the next scan folds.
        let mut order = table.resident_frames();
        order.sort_by_key(|&f| {
            let mask =
                self.apps[f as usize] | self.aged[f as usize] | table.ref_words().app_mask(f);
            (mask.count_ones(), self.order.stamp_of(f))
        });
        Some(order)
    }

    fn epoch_tick(&mut self) {
        // Age the referent masks: the live generation becomes the aged one
        // and a fresh epoch starts. A referent seen two epochs ago is
        // forgotten entirely.
        for f in 0..self.apps.len() {
            self.aged[f] = std::mem::take(&mut self.apps[f]);
        }
        let aged = &self.aged;
        self.order.rekey_all(|f| aged[f as usize].count_ones() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;

    #[test]
    fn shared_frames_outlive_private_ones() {
        let mut s = PolicyKind::SharingAware.build(3);
        for f in 0..3 {
            s.insert(f, f as u64, AppId(0));
        }
        s.access(1, 1, AppId(1)); // frame 1 now shared by apps 0 and 1
        s.access(0, 0, AppId(0)); // refresh 0: still private
        s.begin_scan();
        assert_eq!(
            s.next_candidate(&mut ScanFilter::default()),
            Some(2),
            "oldest private frame first"
        );
        assert_eq!(s.next_candidate(&mut ScanFilter::default()), Some(0));
        assert_eq!(
            s.next_candidate(&mut ScanFilter::default()),
            Some(1),
            "the shared frame goes last"
        );
    }

    // `referents` lives on the concrete ranker, which a `RankedTable` boxes
    // away: the referent-count tests drive the bare hooks (which ignore
    // the table outside scans) with a table borrowed from a built pool.

    #[test]
    fn unknown_accessors_never_fake_sharing() {
        let pool = PolicyKind::SharingAware.build(2);
        let (t, mut s) = (pool.table(), SharingAware::new(2));
        s.on_insert(t, 0, 0, AppId::UNKNOWN);
        s.on_access(t, 0, 0, AppId::UNKNOWN);
        s.on_access(t, 0, 0, AppId::UNKNOWN);
        assert_eq!(s.referents(0), 0, "unknown accesses contribute no referent");
        // A privately-owned block refreshed by an unattributed touch (e.g.
        // a sync-write propagation) must stay classified as private.
        s.on_insert(t, 1, 1, AppId(0));
        s.on_access(t, 1, 1, AppId::UNKNOWN);
        assert_eq!(s.referents(1), 1, "unknown touch must not fake sharing on an owned block");
    }

    #[test]
    fn more_referents_outlive_fewer() {
        let mut s = PolicyKind::SharingAware.build(3);
        for f in 0..3 {
            s.insert(f, f as u64, AppId(0));
        }
        // Frame 1: 3 referents; frame 2: 2 referents; frame 0: private,
        // touched last (most recent) — count dominates recency.
        s.access(1, 1, AppId(1));
        s.access(1, 1, AppId(2));
        s.access(2, 2, AppId(1));
        s.access(0, 0, AppId(0));
        s.begin_scan();
        assert_eq!(
            s.next_candidate(&mut ScanFilter::default()),
            Some(0),
            "private frame first despite recency"
        );
        assert_eq!(s.next_candidate(&mut ScanFilter::default()), Some(2), "2-referent frame next");
        assert_eq!(
            s.next_candidate(&mut ScanFilter::default()),
            Some(1),
            "3-referent frame survives longest"
        );
    }

    #[test]
    fn epoch_tick_decays_stale_sharing() {
        let pool = PolicyKind::SharingAware.build(2);
        let (t, mut s) = (pool.table(), SharingAware::new(2));
        s.on_insert(t, 0, 0, AppId(0));
        s.on_access(t, 0, 0, AppId(1));
        assert_eq!(s.referents(0), 2);
        // One tick: the observation ages but still protects.
        s.epoch_tick();
        assert_eq!(s.referents(0), 2, "aged generation still counts");
        // A second tick with no re-reference forgets it entirely.
        s.epoch_tick();
        assert_eq!(s.referents(0), 0, "sharing observed two epochs ago is gone");
        // Re-referenced blocks keep their protection across ticks.
        s.on_insert(t, 1, 1, AppId(0));
        s.on_access(t, 1, 1, AppId(1));
        s.epoch_tick();
        s.on_access(t, 1, 1, AppId(1));
        assert_eq!(s.referents(1), 2, "refresh during the epoch survives the tick");
    }

    #[test]
    fn undrained_ref_word_touches_protect_at_scan_time() {
        let mut pool = PolicyKind::SharingAware.build(3);
        let mut s = SharingAware::new(3);
        for f in 0..3 {
            // Residency through the pool (its own ranker idles), ranking
            // metadata in the bare ranker.
            pool.insert(f, f as u64, AppId(0));
            s.on_insert(pool.table(), f, f as u64, AppId(0));
        }
        let t = pool.table();
        // A second app's hit lands only in the lock-free ref word —
        // `on_access` never saw it (another candidate was ranking, say).
        // The scan must still see it.
        t.ref_words().touch(1, AppId(1));
        s.begin_scan(t);
        assert_eq!(
            s.next_candidate(t, &mut ScanFilter::default()),
            Some(0),
            "private frames drain first"
        );
        assert_eq!(s.next_candidate(t, &mut ScanFilter::default()), Some(2));
        assert_eq!(
            s.next_candidate(t, &mut ScanFilter::default()),
            Some(1),
            "undrained touch protects the shared frame"
        );
        assert_eq!(s.referents(1), 2, "mask folded into the live generation");
        // An `on_access` of the same touch is idempotent.
        s.on_access(t, 1, 1, AppId(1));
        assert_eq!(s.referents(1), 2);
    }

    #[test]
    fn reinsert_resets_referents() {
        let pool = PolicyKind::SharingAware.build(2);
        let (t, mut s) = (pool.table(), SharingAware::new(2));
        s.on_insert(t, 0, 1, AppId(0));
        s.on_access(t, 0, 1, AppId(1));
        s.on_remove(t, 0, 1);
        s.on_insert(t, 0, 2, AppId(3));
        assert_eq!(s.referents(0), 1, "new block must not inherit the old referent set");
    }
}
