//! The policy side of a frame changing tenants — the scan that picks a
//! victim, settling its eviction, filing the incoming block, un-filing a
//! lost install race, forgetting an invalidated block.
//!
//! A static clock shard does all of it without the policy lock: its scans
//! sweep the shared [`ClockHand`], and the frame table's residency lives in
//! the shared [`FrameWords`](kcache_policy::FrameWords). Every other shard
//! — exact LRU, LFU, 2Q, ARC, sharing-aware, adaptive (clock live or not)
//! — takes the policy lock for each of these steps, and its ranker runs
//! under it. Every shard counts each step in its one ledger
//! ([`AppCounts`](super::counts::AppCounts)), the same way and with no
//! policy lock held.

use super::counts::Col;
use super::shard::{Shard, Victim};
use crate::block::BlockKey;
use kcache_policy::{AppId, ClockHand, ScanFilter};

impl Shard {
    /// Start an eviction scan and take its first candidate, counting the
    /// scan. A static clock shard arms `budget` with two laps of the hand;
    /// any other shard takes one hold that begins the scan and walks to
    /// its first admissible frame.
    pub(super) fn first_candidate(
        &self,
        budget: &mut usize,
        filter: &mut ScanFilter,
    ) -> Option<u32> {
        self.counts.count(AppId::UNKNOWN, &[Col::Scans]);
        let Some(hand) = &self.hand else {
            let mut p = self.lock_policy();
            p.ranked.begin_scan();
            return p.ranked.next_candidate(filter);
        };
        *budget = ClockHand::budget(self.capacity);
        hand.sweep(&self.words, &self.ref_words, budget, filter)
    }

    /// The scan's next candidate: the hand swept on, or the ranker asked
    /// again under the lock — a leaf lock, held only while asking and
    /// dropped before bucket/frame.
    pub(super) fn next_candidate(
        &self,
        budget: &mut usize,
        filter: &mut ScanFilter,
    ) -> Option<u32> {
        match &self.hand {
            Some(hand) => hand.sweep(&self.words, &self.ref_words, budget, filter),
            None => self.lock_policy().ranked.next_candidate(filter),
        }
    }

    /// A static clock shard's removal: the frame's word vacated, its owner
    /// returned.
    fn vacate_words(&self, idx: u32) -> AppId {
        let owner = self.words.owner_of(idx);
        self.words.vacate(idx);
        owner
    }

    /// Count the eviction of `victim`, which `owner` installed.
    fn count_eviction(&self, owner: AppId, victim: &Victim) {
        let evicted =
            if victim.flush.is_some() { Col::EvictionsDirty } else { Col::EvictionsClean };
        self.counts.count(owner, &[evicted, Col::Removes]);
    }

    /// The policy-side half of evicting `victim` from frame `idx`, which
    /// `try_evict_idx` emptied: nobody else stores the frame's word until
    /// it is filed again or freed. Returns the block's owner, for the
    /// caller to uncharge.
    pub(super) fn settle_eviction(&self, idx: u32, victim: &Victim) -> AppId {
        let owner = match &self.hand {
            Some(_) => self.vacate_words(idx),
            None => self.lock_policy().settle_eviction(idx, victim),
        };
        self.count_eviction(owner, victim);
        owner
    }

    /// File the block about to be installed into frame `idx` with the
    /// policy **before the block is visible** in its bucket: the evicted
    /// tenant's bookkeeping ([`Victim`]), the ghosts' view of the
    /// reference, the insert (clock inserts with the reference bit clear —
    /// a block earns its second chance by being read; LRU-style policies
    /// link at the MRU end; ghost-list policies consult their history of
    /// `key`). So no concurrent scan is ever offered a frame whose words
    /// describe the previous tenant; a caller that then loses the install
    /// race un-files ([`unfile`](Self::unfile)).
    ///
    /// A static clock shard stores the words, with no lock. Any other
    /// files in one hold. The counts and the old owner's uncharge come
    /// after: over-counted until then, strict quotas err toward denying,
    /// never toward over-admitting.
    pub(super) fn file_insert(&self, idx: u32, key: BlockKey, app: AppId, victim: Option<&Victim>) {
        let evicted_owner = match &self.hand {
            Some(_) => {
                let evicted_owner = victim.map(|_| self.vacate_words(idx));
                // What `Clock::on_insert` does.
                self.ref_words.clear(idx);
                self.words.install(idx, key.hash(), app);
                evicted_owner
            }
            None => {
                let mut p = self.lock_policy();
                let evicted_owner = victim.map(|v| p.settle_eviction(idx, v));
                if let Some(a) = &mut p.adaptive {
                    // An insert is the tail of a miss in the live stream:
                    // the ghosts see the same reference.
                    a.observe(key.hash(), app);
                }
                p.ranked.insert(idx, key.hash(), app);
                evicted_owner
            }
        };
        if let Some((v, owner)) = victim.zip(evicted_owner) {
            self.count_eviction(owner, v);
            self.ledger.uncharge(owner);
        }
        self.counts.count(app, &[Col::Inserts]);
    }

    /// A lost install race (`key` went resident in another frame first):
    /// take the filed, never visible block back out of the policy — ghost
    /// lists hear of it as of any removal — and recycle frame and charge.
    pub(super) fn unfile(&self, idx: u32, key: BlockKey, app: AppId) {
        match &self.hand {
            Some(_) => self.words.vacate(idx),
            None => self.lock_policy().ranked.remove(idx, key.hash()),
        }
        self.counts.count(app, &[Col::Removes]);
        self.push_free(idx);
        self.ledger.uncharge(app);
    }

    /// The policy-side half of invalidating `key`, which just left frame
    /// `idx` (a coherence drop, not capacity pressure: the adaptive
    /// tuner's refault memory never hears of it). Returns the block's
    /// owner, for the caller to uncharge.
    pub(super) fn forget(&self, idx: u32, key: BlockKey) -> AppId {
        let owner = match &self.hand {
            Some(_) => self.vacate_words(idx),
            None => {
                let mut p = self.lock_policy();
                let owner = p.ranked.table().owner_of(idx);
                p.ranked.remove(idx, key.hash());
                owner
            }
        };
        self.counts.count(owner, &[Col::Removes]);
        owner
    }
}

#[cfg(test)]
mod tests {
    use super::super::shard::BETWEEN_LOOKS;
    use super::super::{Access, AccessKind, BufferManager, EvictPolicy};
    use crate::block::{BlockKey, Span, CACHE_BLOCK_SIZE};
    use kcache_policy::PolicyKind;
    use pvfs::Fid;
    use sim_net::NodeId;
    use std::sync::Arc;

    fn key(b: u64) -> BlockKey {
        BlockKey::new(Fid(1), b)
    }

    fn insert(m: &BufferManager, b: u64) {
        let bytes = vec![b as u8; CACHE_BLOCK_SIZE];
        let kind = AccessKind::InsertClean { home: NodeId(0), span: Span::FULL, bytes: &bytes };
        m.access(key(b), Access::unattributed(kind));
    }

    fn reads_back(m: &BufferManager, b: u64) -> bool {
        let mut out = vec![0u8; CACHE_BLOCK_SIZE];
        let read = AccessKind::Read { span: Span::FULL, out: &mut out };
        m.access(key(b), Access::unattributed(read)).is_hit() && out.iter().all(|&x| x == b as u8)
    }

    /// A two-frame static clock cache: block 0 in frame 0, unreferenced;
    /// block 1 in frame 1, referenced. The hand points at frame 0.
    fn two_frames() -> Arc<BufferManager> {
        let m = BufferManager::builder(2).policy(EvictPolicy::of(PolicyKind::Clock)).build();
        insert(&m, 0);
        insert(&m, 1);
        assert!(reads_back(&m, 1));
        Arc::new(m)
    }

    /// Frames are conserved: every frame is resident or free, and the
    /// ledger's residency is the buckets'.
    fn assert_conserved(m: &BufferManager) {
        let ps = m.policy_stats();
        assert_eq!(m.resident() + m.free_frames(), m.capacity());
        assert_eq!((ps.inserts - ps.removes) as usize, m.resident());
        assert_eq!(m.resident_keys().len(), m.resident());
    }

    /// Two sweeps offered the same victim. This thread's scan is offered
    /// frame 0 and takes its first look; between its looks another thread
    /// installs block 7: its sweep passes frame 1 (spending the reference
    /// bit) and is offered frame 0 too, claims it, evicts block 0 and
    /// files block 7 there. This thread then retakes frame 0, finds block
    /// 0 gone, and moves on to frame 1. Block 0 is evicted once, by the
    /// other thread; nothing else is lost.
    #[test]
    fn two_sweeps_offered_one_victim_evict_it_once() {
        let m = two_frames();
        let other = Arc::clone(&m);
        BETWEEN_LOOKS.with(|hook| {
            *hook.borrow_mut() = Some(Box::new(move || {
                std::thread::spawn(move || insert(&other, 7)).join().expect("other thread");
            }));
        });
        insert(&m, 9);
        assert!(BETWEEN_LOOKS.with(|hook| hook.borrow().is_none()), "the hook ran");
        assert_eq!(m.resident_keys(), vec![key(7), key(9)], "block 1 went for block 9");
        assert!(reads_back(&m, 7) && reads_back(&m, 9));
        let (ps, s) = (m.policy_stats(), m.stats());
        assert_eq!((ps.evictions_clean, s.evictions_clean, ps.scans), (2, 2, 2));
        assert_conserved(&m);
    }

    /// A candidate whose frame another thread holds is skipped, not waited
    /// for: with frame 0 held here, an install on another thread evicts
    /// block 1 from frame 1 and returns while the lock is still held.
    #[test]
    fn a_sweep_skips_a_frame_another_thread_holds() {
        let m = two_frames();
        let other = Arc::clone(&m);
        let held = m.shards[0].frame(0);
        let (done, finished) = std::sync::mpsc::channel();
        let installer = std::thread::spawn(move || {
            insert(&other, 9);
            done.send(()).expect("test thread waits");
        });
        let skipped = finished.recv_timeout(std::time::Duration::from_secs(10)).is_ok();
        drop(held);
        installer.join().expect("installer");
        assert!(skipped, "the install waited for the held frame");
        assert_eq!(m.resident_keys(), vec![key(0), key(9)]);
        assert!(reads_back(&m, 0) && reads_back(&m, 9));
        assert_conserved(&m);
    }
}
