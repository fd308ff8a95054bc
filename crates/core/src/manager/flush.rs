//! The dirty queue and what drains or bypasses it: the flusher's
//! `take_dirty` / `flush_complete`, sync-write `invalidate`, and the
//! harvester sweep.

use super::shard::{lock_leaf, LockWaits, Shard};
use super::FlushItem;
use crate::block::{BlockKey, Span};
use kcache_obs::CacheLine;
use kcache_policy::AppId;
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;

/// Frames in the order they were first dirtied, under the `dirty` leaf
/// lock. Entries are hints: the frame's own `in_dirty_list` / `dirty` /
/// `flushing` fields (under its lock) are the truth, and `take_dirty`
/// skips entries they no longer back.
pub(super) struct DirtyQueue {
    queue: CacheLine<Mutex<VecDeque<u32>>>,
    waits: Option<LockWaits>,
}

impl DirtyQueue {
    pub(super) fn new(waits: Option<LockWaits>) -> DirtyQueue {
        DirtyQueue { queue: CacheLine(Mutex::new(VecDeque::new())), waits }
    }

    #[inline]
    pub(super) fn lock(&self) -> MutexGuard<'_, VecDeque<u32>> {
        lock_leaf(&self.queue, &self.waits)
    }
}

impl Shard {
    pub(super) fn dirty_queue_len(&self) -> usize {
        self.dirty.lock().len()
    }

    /// Collect up to `max` dirty blocks (oldest-dirtied first) and mark
    /// them *in flight*: the frames stay dirty and unevictable until the
    /// caller reports the write-back acknowledged via
    /// [`flush_complete`](Self::flush_complete). Writes landing during the
    /// flight merge into the frame and re-queue it for a follow-up flush.
    pub(super) fn take_dirty(&self, max: usize) -> Vec<FlushItem> {
        let mut out = Vec::new();
        let mut requeue: Vec<u32> = Vec::new();
        while out.len() < max {
            let Some(idx) = self.dirty.lock().pop_front() else { break };
            let mut f = self.frame(idx);
            if f.key().is_none() || !f.in_dirty_list || !f.is_dirty() {
                f.in_dirty_list = false;
                continue; // stale queue entry
            }
            if f.flushing {
                // Re-dirtied while a flush is already in flight: leave it
                // queued for the next round.
                requeue.push(idx);
                continue;
            }
            out.push(f.flush_item());
            f.flushing = true;
            f.in_dirty_list = false;
            // Pin the in-flight frame so no policy offers it as a
            // candidate: its word, stored under its lock.
            self.words.set_pinned(idx, true);
        }
        if !requeue.is_empty() {
            let mut d = self.dirty.lock();
            for idx in requeue.into_iter().rev() {
                d.push_front(idx);
            }
        }
        self.stats.flush_blocks.add(out.len() as u64);
        out
    }

    /// The iod acknowledged the write-back of `key`'s `span`: the frame
    /// becomes clean (and evictable) unless new writes re-dirtied it during
    /// the flight, in which case the merged span stays queued for the next
    /// flush round.
    pub(super) fn flush_complete(&self, key: BlockKey, span: Span) {
        let cleaned = {
            let b = self.bucket(&key);
            let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) else {
                return; // invalidated or evicted during the flight
            };
            let mut f = self.frame(idx);
            if f.key() != Some(key) {
                return;
            }
            f.flushing = false;
            // No writes landed during the flight: clean. Otherwise the
            // (merged) dirty span is already queued for re-flush.
            let cleaned = !f.in_dirty_list && f.dirty == span;
            if cleaned {
                f.dirty = Span::EMPTY;
            }
            // Unpinned while the frame is still held: once it is let go,
            // the frame may be evicted and refilled, and a later unpin
            // would clear its next tenant's pin.
            self.words.set_pinned(idx, false);
            cleaned
        };
        if cleaned {
            self.shed_over_quota();
        }
    }

    /// Drop cached copies of the listed blocks (sync-write coherence).
    /// Dirty copies are discarded — the sync-writer's data supersedes them.
    pub(super) fn invalidate<I: IntoIterator<Item = BlockKey>>(&self, keys: I) -> (u64, u64) {
        let mut dropped = 0;
        let mut dropped_dirty = 0;
        for key in keys {
            let idx = {
                let mut b = self.bucket(&key);
                let Some(pos) = b.iter().position(|(k, _)| *k == key) else {
                    continue;
                };
                let (_, idx) = b.remove(pos);
                let mut f = self.frame(idx);
                debug_assert_eq!(f.key(), Some(key));
                if f.is_dirty() {
                    dropped_dirty += 1;
                }
                f.vacate();
                f.flushing = false;
                idx
            };
            let owner = self.forget(idx, key);
            self.ledger.uncharge(owner);
            self.push_free(idx);
            dropped += 1;
        }
        self.stats.invalidated.add(dropped);
        self.stats.invalidated_dirty.add(dropped_dirty);
        (dropped, dropped_dirty)
    }

    /// Has the free list fallen below the low watermark? (the harvester's
    /// wake-up condition).
    #[inline]
    pub(super) fn needs_harvest(&self) -> bool {
        self.free_frames() < self.low_watermark
    }

    /// Harvester sweep: free clean blocks until the high watermark is
    /// reached; dirty blocks encountered are snapshot for urgent flushing
    /// (they become clean and harvestable next sweep).
    ///
    /// The sweep is **quota-aware**: while any application holds more
    /// frames than its quota, candidates are drawn from the most
    /// over-quota owner first via the policy's owner-filtered scan — an
    /// idle tenant is no longer drained below its quota just because a
    /// busy neighbor filled the pool. Only when no over-quota owner has an
    /// evictable frame does the sweep fall back to the victim-agnostic
    /// scan.
    pub(super) fn harvest(&self) -> Vec<FlushItem> {
        let mut flush = Vec::new();
        for _ in 0..2 * self.capacity {
            // One read per turn: other threads free frames too, and a
            // second read for the dirty arm's subtraction could exceed the
            // watermark this one was tested against.
            let free = self.free_frames();
            if free >= self.high_watermark {
                break;
            }
            let borrower = self.ledger.most_over_quota();
            if !(borrower.is_some_and(|b| self.reclaim(Some(b))) || self.reclaim(None)) {
                // Only dirty frames left: flush a batch and stop; the
                // flusher acknowledgments make them evictable later.
                flush.extend(self.take_dirty(self.high_watermark - free));
                break;
            }
        }
        flush
    }

    /// Evict one clean frame — `owner`'s, or anyone's — to the free list;
    /// with no install to carry the eviction to, it is settled at once.
    /// Returns whether a frame was freed.
    pub(super) fn reclaim(&self, owner: Option<AppId>) -> bool {
        let Some((idx, victim)) = self.evict_one_owned(false, owner) else { return false };
        debug_assert!(victim.flush.is_none());
        let owner = self.settle_eviction(idx, &victim);
        self.ledger.uncharge(owner);
        self.push_free(idx);
        true
    }
}
