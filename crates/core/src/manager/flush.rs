//! The dirty queue and what drains or bypasses it: the flusher's
//! `take_dirty` / `flush_complete`, sync-write `invalidate`, and the
//! harvester sweep.

use super::shard::{lock_leaf, LockWaits, Shard};
use super::FlushItem;
use crate::block::{BlockKey, Span};
use kcache_obs::CacheLine;
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
        let mut taken: Vec<u32> = Vec::new();
        let mut requeue: Vec<u32> = Vec::new();
        while out.len() < max {
            let Some(idx) = self.dirty.lock().pop_front() else { break };
            let mut f = self.frame(idx);
            let key = match f.key {
                Some(key) if f.in_dirty_list && f.is_dirty() => key,
                _ => {
                    f.in_dirty_list = false;
                    continue; // stale queue entry
                }
            };
            if f.flushing {
                // Re-dirtied while a flush is already in flight: leave it
                // queued for the next round.
                requeue.push(idx);
                continue;
            }
            out.push(f.flush_item(key));
            f.flushing = true;
            f.in_dirty_list = false;
            taken.push(idx);
        }
        if !requeue.is_empty() {
            let mut d = self.dirty.lock();
            for idx in requeue.into_iter().rev() {
                d.push_front(idx);
            }
        }
        if !taken.is_empty() {
            // Pin in-flight frames so no policy offers them as candidates.
            let mut p = self.lock_policy();
            for idx in taken {
                p.ranked.table_mut().set_pinned(idx, true);
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
        let idx = {
            let b = self.bucket(&key);
            let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) else {
                return; // invalidated or evicted during the flight
            };
            let mut f = self.frame(idx);
            if f.key != Some(key) {
                return;
            }
            f.flushing = false;
            if !f.in_dirty_list && f.dirty == span {
                // No writes landed during the flight: clean.
                f.dirty = Span::EMPTY;
            }
            // Otherwise the (merged) dirty span is already queued for
            // re-flush.
            idx
        };
        self.lock_policy().ranked.table_mut().set_pinned(idx, false);
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
                debug_assert_eq!(f.key, Some(key));
                if f.is_dirty() {
                    dropped_dirty += 1;
                }
                f.vacate();
                f.flushing = false;
                idx
            };
            // Pending accesses to this block must land before its removal.
            let owner = self.with_drained_policy(|p| {
                let owner = p.ranked.table().owner_of(idx);
                // Coherence drop, not capacity pressure: the adaptive
                // tuner's refault memory never hears of it.
                p.ranked.remove(idx, key.hash());
                owner
            });
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
    /// frames than its quota slice, candidates are drawn from the most
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
            let evicted = (self.ledger.most_over_quota())
                .and_then(|borrower| self.evict_one_owned(false, Some(borrower)))
                .or_else(|| self.evict_one_owned(false, None));
            match evicted {
                Some((idx, victim)) => {
                    debug_assert!(victim.flush.is_none());
                    // No install, so no filing hold to carry it to.
                    let owner = self.lock_policy().settle_eviction(idx, &victim);
                    self.ledger.uncharge(owner);
                    self.push_free(idx);
                }
                None => {
                    // Only dirty frames left: flush a batch and stop; the
                    // flusher acknowledgments make them evictable later.
                    flush.extend(self.take_dirty(self.high_watermark - free));
                    break;
                }
            }
        }
        flush
    }
}
