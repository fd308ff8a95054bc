//! The residency/pin/ownership words every policy ranks over (owned by a
//! [`RankedTable`](crate::RankedTable), lent to the hooks).

use crate::AppId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-frame atomic ref/recency words — the lock-free half of the hit
/// fast path. Each frame owns one `AtomicU64`: bit 63 is the **reference
/// bit** (set by every hit or recency touch, consumed by clock-style
/// scans), bits 0..=62 are the **app-touch mask** (bit `app % 63` per
/// distinct known accessor since the word was last consumed —
/// [`SharingAware`](crate::SharingAware) folds it into its referent sets
/// at scan time).
///
/// The words are shared by `Arc`: the buffer manager clones the handle
/// out of its shard's [`FrameTable`] once at construction and then
/// updates recency with a single relaxed `fetch_or` per hit — no policy
/// lock — which is exactly the seed clock's store-only hit cost. Live
/// policy migration swaps the ranker over the same table, so the handle
/// never goes stale and reference bits survive an adaptive switch.
#[derive(Debug, Clone)]
pub struct RefWords(Arc<Vec<AtomicU64>>);

impl RefWords {
    /// The reference bit (bit 63); bits 0..=62 form the app-touch mask.
    pub const REF: u64 = 1 << 63;

    pub fn new(capacity: usize) -> RefWords {
        RefWords(Arc::new((0..capacity).map(|_| AtomicU64::new(0)).collect()))
    }

    pub fn capacity(&self) -> usize {
        self.0.len()
    }

    fn bit(app: AppId) -> u64 {
        if app == AppId::UNKNOWN {
            0
        } else {
            1 << (app.0 % 63)
        }
    }

    /// Record a hit / recency touch by `app`: one relaxed load, and one
    /// relaxed `fetch_or` only when a bit is missing — eight frames share
    /// a cache line and a hot frame's bits are already set, so re-touching
    /// it leaves the line shared instead of pulling it exclusive.
    pub fn touch(&self, frame: u32, app: AppId) {
        if let Some(w) = self.0.get(frame as usize) {
            let bits = Self::REF | Self::bit(app);
            if w.load(Ordering::Relaxed) & bits != bits {
                w.fetch_or(bits, Ordering::Relaxed);
            }
        }
    }

    /// Consume the word (second chance): returns whether the frame was
    /// referenced since the last consume/clear, zeroing the whole word —
    /// ref bit and app mask — like the seed clock's `swap(false)`. A word
    /// already zero is only read: a sweep passing unreferenced frames
    /// leaves their lines shared.
    pub fn take(&self, frame: u32) -> bool {
        self.0.get(frame as usize).is_some_and(|w| {
            w.load(Ordering::Relaxed) != 0 && w.swap(0, Ordering::Relaxed) & Self::REF != 0
        })
    }

    /// Non-consuming read of the reference bit.
    pub fn is_referenced(&self, frame: u32) -> bool {
        self.0.get(frame as usize).is_some_and(|w| w.load(Ordering::Relaxed) & Self::REF != 0)
    }

    /// Non-consuming read of the app-touch mask (bits 0..=62).
    pub fn app_mask(&self, frame: u32) -> u64 {
        self.0.get(frame as usize).map_or(0, |w| w.load(Ordering::Relaxed) & !Self::REF)
    }

    /// Frames whose app-touch mask is non-empty: one relaxed load each,
    /// nothing consumed.
    pub fn touched(&self) -> impl Iterator<Item = u32> + '_ {
        let touched = |w: &AtomicU64| w.load(Ordering::Relaxed) & !Self::REF != 0;
        self.0.iter().enumerate().filter(move |(_, w)| touched(w)).map(|(f, _)| f as u32)
    }

    /// Consume the app-touch mask (bits 0..=62), leaving the ref bit in
    /// place: each touch is handed to the caller exactly once, to fold
    /// into its own (generational) bookkeeping, without disturbing
    /// clock-style ref-bit ranking.
    pub fn take_app_mask(&self, frame: u32) -> u64 {
        self.0
            .get(frame as usize)
            .map_or(0, |w| w.fetch_and(Self::REF, Ordering::Relaxed) & !Self::REF)
    }

    /// Reset the word (fresh insert: a block earns its second chance by
    /// being *re*-accessed).
    pub fn clear(&self, frame: u32) {
        if let Some(w) = self.0.get(frame as usize) {
            w.store(0, Ordering::Relaxed);
        }
    }
}

/// What one eviction scan may be offered: passed by the caller on every
/// `next_candidate` call of the scan, applied by
/// [`FrameWords::evictable_for`] wherever the ranker runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanFilter {
    /// Only frames this application installed (the partition-local scan).
    pub owner: Option<AppId>,
    /// Out: evictable frames of `owner` the scan has examined so far.
    pub examined: u64,
}

impl ScanFilter {
    /// The partition-local scan over `app`'s frames.
    pub fn owned_by(app: AppId) -> ScanFilter {
        ScanFilter { owner: Some(app), ..ScanFilter::default() }
    }
}

/// One frame's residency word and the fingerprint of its block.
#[derive(Debug)]
struct FrameSlot {
    word: AtomicU64,
    key: AtomicU64,
}

/// Per-frame residency words — the lock-free half of the [`FrameTable`].
/// Each frame owns one `AtomicU64`: bit 63 says the frame is **resident**,
/// bit 62 that it is **pinned** (a flush of it is in flight: no scan may
/// offer it), bits 0..32 name its **owner**, the [`AppId`] that installed
/// the block ([`AppId::UNKNOWN`] when vacant). The block's key fingerprint
/// sits beside it (0 when vacant).
///
/// Shared by `Arc`, as [`RefWords`] is: a static clock shard of the buffer
/// manager stores a frame's word on install, eviction, invalidation, pin
/// and unpin without any policy lock, each store made by the one thread
/// that holds the frame at that moment (its lock, or the frame itself
/// while it is out of every bucket). Rankers read the same words under
/// whatever hold they run in; a word read outside the frame's lock is a
/// hint the manager re-checks under it.
#[derive(Debug, Clone)]
pub struct FrameWords(Arc<[FrameSlot]>);

impl FrameWords {
    const RESIDENT: u64 = 1 << 63;
    const PINNED: u64 = 1 << 62;
    /// A vacant frame: not resident, not pinned, no owner.
    const VACANT: u64 = AppId::UNKNOWN.0 as u64;

    pub fn new(capacity: usize) -> FrameWords {
        let slot = |_| FrameSlot { word: AtomicU64::new(Self::VACANT), key: AtomicU64::new(0) };
        FrameWords((0..capacity).map(slot).collect())
    }

    pub fn capacity(&self) -> usize {
        self.0.len()
    }

    /// The frame's word (a vacant one for out-of-pool frames).
    #[inline]
    fn word(&self, frame: u32) -> u64 {
        self.0.get(frame as usize).map_or(Self::VACANT, |s| s.word.load(Ordering::Relaxed))
    }

    pub fn is_resident(&self, frame: u32) -> bool {
        self.word(frame) & Self::RESIDENT != 0
    }

    pub fn is_pinned(&self, frame: u32) -> bool {
        self.word(frame) & Self::PINNED != 0
    }

    /// Application that installed the block currently in `frame`
    /// ([`AppId::UNKNOWN`] for vacant frames and unattributed inserts).
    pub fn owner_of(&self, frame: u32) -> AppId {
        AppId(self.word(frame) as u32)
    }

    /// Fingerprint of the block resident in `frame` (0 for vacant frames).
    pub fn key_of(&self, frame: u32) -> u64 {
        self.0.get(frame as usize).map_or(0, |s| s.key.load(Ordering::Relaxed))
    }

    /// A frame the policy may legitimately offer for eviction: resident
    /// and unpinned.
    pub fn evictable(&self, frame: u32) -> bool {
        self.word(frame) & (Self::RESIDENT | Self::PINNED) == Self::RESIDENT
    }

    /// [`evictable`](Self::evictable) under a scan's filter, from one read
    /// of the word: with an owner, only frames installed by it qualify
    /// (the partition-local candidate check); a frame that qualifies is
    /// counted in [`ScanFilter::examined`].
    #[inline]
    pub fn evictable_for(&self, frame: u32, filter: &mut ScanFilter) -> bool {
        let w = self.word(frame);
        let ok = w & (Self::RESIDENT | Self::PINNED) == Self::RESIDENT
            && filter.owner.is_none_or(|o| AppId(w as u32) == o);
        filter.examined += u64::from(ok);
        ok
    }

    /// Make `frame` resident, holding block `key`, owned by `app`, unpinned.
    /// Panics on out-of-pool frames — an out-of-range index is a manager
    /// bug, not a policy decision.
    pub fn install(&self, frame: u32, key: u64, app: AppId) {
        let s = &self.0[frame as usize];
        s.key.store(key, Ordering::Relaxed);
        s.word.store(Self::RESIDENT | u64::from(app.0), Ordering::Relaxed);
    }

    /// Make `frame` vacant: not resident, unpinned, no owner, no key.
    pub fn vacate(&self, frame: u32) {
        let s = &self.0[frame as usize];
        s.word.store(Self::VACANT, Ordering::Relaxed);
        s.key.store(0, Ordering::Relaxed);
    }

    /// Set or clear the pin, leaving residency and owner as they are.
    pub fn set_pinned(&self, frame: u32, pinned: bool) {
        let w = &self.0[frame as usize].word;
        if pinned {
            w.fetch_or(Self::PINNED, Ordering::Relaxed);
        } else {
            w.fetch_and(!Self::PINNED, Ordering::Relaxed);
        }
    }
}

/// The per-frame [`FrameWords`] — residency, pin, **owner**, key — and
/// [`RefWords`], and nothing else: the hit/miss/per-app ledger is the
/// buffer manager's, which counts each access once, beside the table.
/// Policies layer their own metadata (reference bits, queues,
/// frequencies, app sets) on top; the words are the single source of truth
/// for "may this frame be offered as a candidate at all".
///
/// The owner of a frame is the application that *installed* the resident
/// block (quota charging follows the inserter, not later referents — a
/// block another app merely read stays on its installer's bill). An
/// **owner filter** ([`FrameTable::evictable_for`]) narrows candidate
/// eligibility to one owner, which is how the buffer manager draws
/// eviction candidates from a single partition without any policy having
/// to know about quotas. The filter is a *parameter of the scan*, passed
/// by the caller on every `next_candidate` call — deliberately not stored
/// here, so concurrent scans can never clobber each other's filter.
#[derive(Debug)]
pub struct FrameTable {
    /// Residency, pins, owners and keys (shared with the buffer manager;
    /// see [`FrameWords`]).
    words: FrameWords,
    /// The lock-free recency words (shared with the buffer manager; see
    /// [`RefWords`]).
    ref_words: RefWords,
}

impl FrameTable {
    pub(crate) fn new(capacity: usize) -> FrameTable {
        FrameTable { words: FrameWords::new(capacity), ref_words: RefWords::new(capacity) }
    }

    /// The table's atomic residency words (shared handle).
    pub fn frame_words(&self) -> &FrameWords {
        &self.words
    }

    /// The table's atomic ref/recency words (shared handle).
    pub fn ref_words(&self) -> &RefWords {
        &self.ref_words
    }

    pub fn capacity(&self) -> usize {
        self.words.capacity()
    }

    pub fn is_resident(&self, frame: u32) -> bool {
        self.words.is_resident(frame)
    }

    pub fn is_pinned(&self, frame: u32) -> bool {
        self.words.is_pinned(frame)
    }

    /// See [`FrameWords::owner_of`].
    pub fn owner_of(&self, frame: u32) -> AppId {
        self.words.owner_of(frame)
    }

    /// See [`FrameWords::evictable`].
    pub fn evictable(&self, frame: u32) -> bool {
        self.words.evictable(frame)
    }

    /// See [`FrameWords::evictable_for`].
    pub fn evictable_for(&self, frame: u32, filter: &mut ScanFilter) -> bool {
        self.words.evictable_for(frame, filter)
    }

    /// Mark `frame` resident, holding block `key`, owned by `app`
    /// (idempotent; keeps the first owner on re-inserts). Panics on
    /// out-of-pool frames.
    pub(crate) fn insert(&mut self, frame: u32, key: u64, app: AppId) {
        if !self.words.is_resident(frame) {
            self.words.install(frame, key, app);
        }
    }

    /// Fingerprint of the block resident in `frame` (0 for vacant frames).
    pub fn key_of(&self, frame: u32) -> u64 {
        self.words.key_of(frame)
    }

    /// Mark `frame` vacated; clears any pin (an invalidation may remove a
    /// frame whose flush is still in flight), the ownership record and
    /// the key.
    pub(crate) fn remove(&mut self, frame: u32) {
        self.words.vacate(frame);
    }

    pub fn set_pinned(&self, frame: u32, pinned: bool) {
        self.words.set_pinned(frame, pinned);
    }

    /// Frames currently resident, ascending (diagnostics/tests).
    pub fn resident_frames(&self) -> Vec<u32> {
        (0..self.capacity() as u32).filter(|&f| self.words.is_resident(f)).collect()
    }

    /// `(frame, key, owner)` for every resident frame, ascending by frame —
    /// the export half of live policy migration: replaying these through a
    /// fresh policy's `on_insert` rebuilds its ranking metadata with the
    /// same residency.
    pub fn resident_entries(&self) -> Vec<(u32, u64, AppId)> {
        (0..self.capacity() as u32)
            .filter(|&f| self.words.is_resident(f))
            .map(|f| (f, self.words.key_of(f), self.words.owner_of(f)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_counts() {
        let mut t = FrameTable::new(4);
        t.insert(1, 101, AppId(0));
        t.insert(1, 999, AppId(1)); // idempotent; owner and key stay with the installer
        t.insert(3, 103, AppId(1));
        assert_eq!(t.resident_frames(), vec![1, 3]);
        assert_eq!((t.owner_of(1), t.key_of(1)), (AppId(0), 101));
        assert!(t.evictable(1) && !t.evictable(0));
        t.set_pinned(1, true);
        assert!(!t.evictable(1));
        t.remove(1);
        assert!(!t.is_resident(1) && !t.is_pinned(1), "remove clears the pin");
        assert_eq!(t.owner_of(1), AppId::UNKNOWN, "remove clears the owner");
        t.remove(1); // idempotent
        assert_eq!(t.resident_frames(), vec![3]);
    }

    #[test]
    fn ref_words_set_consume_and_mask() {
        let t = FrameTable::new(4);
        let w = t.ref_words();
        assert!(!w.is_referenced(1));
        w.touch(1, AppId(2));
        w.touch(1, AppId(5));
        w.touch(1, AppId::UNKNOWN); // unknown sets REF but no app bit
        assert!(w.is_referenced(1));
        assert_eq!(w.app_mask(1), (1 << 2) | (1 << 5));
        assert!(w.take(1), "consume returns the referenced flag");
        assert!(!w.is_referenced(1), "consume zeroes the word");
        assert_eq!(w.app_mask(1), 0);
        assert!(!w.take(1), "second consume sees nothing");
        w.touch(2, AppId(0));
        w.clear(2);
        assert!(!w.is_referenced(2));
        // Out-of-pool frames are ignored, not a panic.
        w.touch(99, AppId(0));
        assert!(!w.take(99));
        // A cloned handle (the manager's) shares the same physical words.
        let handle = t.ref_words().clone();
        handle.touch(3, AppId(1));
        assert!(t.ref_words().is_referenced(3));
    }

    #[test]
    fn owner_filter_narrows_evictability() {
        let mut t = FrameTable::new(4);
        t.insert(0, 100, AppId(0));
        t.insert(1, 101, AppId(1));
        t.insert(2, 102, AppId::UNKNOWN);
        assert!(t.evictable(0) && t.evictable(1) && t.evictable(2));
        let f = &mut ScanFilter::owned_by(AppId(1));
        assert!(!t.evictable_for(0, f), "other app's frame filtered out");
        assert!(t.evictable_for(1, f), "owned frame stays evictable");
        assert!(!t.evictable_for(2, f), "unattributed frames belong to no partition");
        assert_eq!(f.examined, 1, "only its own evictable frame counts as examined");
        let any = &mut ScanFilter::default();
        assert!(t.evictable_for(0, any) && t.evictable_for(2, any));
    }
}
