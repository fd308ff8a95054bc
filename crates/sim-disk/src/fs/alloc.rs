//! Free-run block allocator for the local file system.
//!
//! First-fit with a per-call placement hint so a growing file stays mostly
//! contiguous on disk — which is what gives the iod its sequential-transfer
//! performance on streaming workloads.
//!
//! The free space is a sorted map of free runs, so the allocator's memory
//! follows how fragmented the volume is, not its size, and a search costs
//! O(runs). The disk's seek model reads the blocks it hands out, so where
//! they land is part of every result: the first run of `n` free blocks in
//! `[hint, capacity)`, else in `[0, hint)` — a free run that straddles the
//! hint is searched as those two halves, never whole — and failing both,
//! free blocks in ascending order from the hint, wrapping around.

use crate::fs::Extent;
use std::collections::BTreeMap;

/// Allocates physical 4 KB blocks out of a fixed-size volume.
pub struct BlockAllocator {
    /// Free runs, first block → length; two runs never touch.
    free: BTreeMap<u64, u64>,
    capacity: u64,
    free_count: u64,
}

impl BlockAllocator {
    pub fn new(capacity_blocks: u64) -> BlockAllocator {
        assert!(capacity_blocks > 0);
        BlockAllocator {
            free: BTreeMap::from([(0, capacity_blocks)]),
            capacity: capacity_blocks,
            free_count: capacity_blocks,
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn free_blocks(&self) -> u64 {
        self.free_count
    }

    /// The free run holding block `b`, as (first block, length).
    fn run_holding(&self, b: u64) -> Option<(u64, u64)> {
        let (&start, &len) = self.free.range(..=b).next_back()?;
        (b < start + len).then_some((start, len))
    }

    pub fn is_allocated(&self, b: u64) -> bool {
        b < self.capacity && self.run_holding(b).is_none()
    }

    /// The free runs within `[lo, hi)` in ascending order, each cut to that
    /// range, as (first block, length).
    fn runs_within(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let from = self.run_holding(lo).map_or(lo, |(start, _)| start);
        self.free.range(from..hi).map(move |(&start, &len)| {
            let first = start.max(lo);
            (first, (start + len).min(hi) - first)
        })
    }

    /// Allocate `n` blocks, preferring a contiguous run starting at or after
    /// `hint`. Returns the extents actually allocated (possibly fragmented),
    /// or `None` if the volume lacks `n` free blocks.
    pub fn allocate(&mut self, n: u64, hint: u64) -> Option<Vec<Extent>> {
        if n == 0 {
            return Some(Vec::new());
        }
        if self.free_count < n {
            return None;
        }
        let start = hint.min(self.capacity - 1);
        // Free blocks from the hint to the end, then from 0 to the hint.
        let runs = || self.runs_within(start, self.capacity).chain(self.runs_within(0, start));
        let picks = match runs().find(|&(_, len)| len >= n) {
            Some((first, _)) => vec![Extent { pblk: first, blocks: n as u32 }],
            // Fragmented fallback: free blocks in that order until `n`.
            // No pick starts where the one before it ends, so none merge:
            // runs never touch, and the run holding the hint comes first
            // from the hint up and last below it.
            None => {
                let mut remaining = n;
                let mut picks = Vec::new();
                for (first, len) in runs() {
                    let take = len.min(remaining);
                    picks.push(Extent { pblk: first, blocks: take as u32 });
                    remaining -= take;
                    if remaining == 0 {
                        break;
                    }
                }
                debug_assert_eq!(remaining, 0, "free_count said enough blocks existed");
                picks
            }
        };
        for e in &picks {
            self.take(*e);
        }
        Some(picks)
    }

    /// Mark the free blocks of `e`, all in one run, allocated.
    fn take(&mut self, e: Extent) {
        let (start, len) = self.run_holding(e.pblk).expect("allocating a free run");
        let (end, e_end) = (start + len, e.pblk + e.blocks as u64);
        debug_assert!(e_end <= end, "double allocation in {e:?}");
        self.free.remove(&start);
        if start < e.pblk {
            self.free.insert(start, e.pblk - start);
        }
        if e_end < end {
            self.free.insert(e_end, end - e_end);
        }
        self.free_count -= e.blocks as u64;
    }

    /// Free a previously allocated extent.
    pub fn free(&mut self, e: Extent) {
        let (mut start, mut end) = (e.pblk, e.pblk + e.blocks as u64);
        debug_assert!(
            end <= self.capacity && self.runs_within(start, end).next().is_none(),
            "freeing unallocated blocks in {e:?}"
        );
        if let Some((before, len)) = self.free.range(..start).next_back().map(|(&s, &l)| (s, l)) {
            if before + len == start {
                self.free.remove(&before);
                start = before;
            }
        }
        if let Some(len) = self.free.remove(&end) {
            end += len;
        }
        self.free.insert(start, end - start);
        self.free_count += e.blocks as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_contiguously_from_hint() {
        let mut a = BlockAllocator::new(1000);
        let e = a.allocate(10, 100).unwrap();
        assert_eq!(e, vec![Extent { pblk: 100, blocks: 10 }]);
        assert_eq!(a.free_blocks(), 990);
        let e2 = a.allocate(5, 100).unwrap();
        assert_eq!(e2, vec![Extent { pblk: 110, blocks: 5 }]);
    }

    #[test]
    fn wraps_to_low_blocks_when_tail_full() {
        let mut a = BlockAllocator::new(100);
        a.allocate(50, 50).unwrap(); // fill the tail
        let e = a.allocate(20, 90).unwrap();
        assert_eq!(e, vec![Extent { pblk: 0, blocks: 20 }]);
    }

    #[test]
    fn fragments_when_no_contiguous_run() {
        let mut a = BlockAllocator::new(64);
        // Occupy every even block.
        for b in (0..64).step_by(2) {
            let got = a.allocate(1, b).unwrap();
            assert_eq!(got[0].pblk, b);
        }
        let e = a.allocate(4, 0).unwrap();
        let total: u32 = e.iter().map(|x| x.blocks).sum();
        assert_eq!(total, 4);
        assert!(e.len() == 4, "all odd singleton blocks: {:?}", e);
        assert!(e.iter().all(|x| x.pblk % 2 == 1));
    }

    #[test]
    fn exhaustion_returns_none_and_keeps_state() {
        let mut a = BlockAllocator::new(10);
        a.allocate(8, 0).unwrap();
        assert!(a.allocate(3, 0).is_none());
        assert_eq!(a.free_blocks(), 2);
        assert!(a.allocate(2, 0).is_some());
        assert_eq!(a.free_blocks(), 0);
    }

    #[test]
    fn free_returns_blocks() {
        let mut a = BlockAllocator::new(100);
        let e = a.allocate(30, 0).unwrap();
        assert_eq!(a.free_blocks(), 70);
        a.free(e[0]);
        assert_eq!(a.free_blocks(), 100);
        // Reallocation finds the same spot.
        let e2 = a.allocate(30, 0).unwrap();
        assert_eq!(e2[0].pblk, 0);
    }

    #[test]
    fn zero_allocation_is_empty() {
        let mut a = BlockAllocator::new(10);
        assert_eq!(a.allocate(0, 0).unwrap(), vec![]);
        assert_eq!(a.free_blocks(), 10);
    }

    /// A volume of `capacity` blocks, all allocated but `free`.
    fn volume_with_free(capacity: u64, free: &[Extent]) -> BlockAllocator {
        let mut a = BlockAllocator::new(capacity);
        a.allocate(capacity, 0).unwrap();
        for &e in free {
            a.free(e);
        }
        a
    }

    #[test]
    fn a_free_run_straddling_the_hint_is_never_found_whole() {
        // One free run, [20, 60): 40 blocks, enough for 30, but the search
        // looks at [40, 100) and then [0, 40), each too short.
        let mut a = volume_with_free(100, &[Extent { pblk: 20, blocks: 40 }]);
        let e = a.allocate(30, 40).unwrap();
        assert_eq!(e, vec![Extent { pblk: 40, blocks: 20 }, Extent { pblk: 20, blocks: 10 }]);
        assert_eq!(a.free_blocks(), 10);
        // Its part below the hint is found when it alone is long enough.
        let mut a = volume_with_free(100, &[Extent { pblk: 30, blocks: 40 }]);
        assert_eq!(a.allocate(25, 60).unwrap(), vec![Extent { pblk: 30, blocks: 25 }]);
    }

    #[test]
    fn the_search_wraps_to_the_first_fit_below_the_hint() {
        let free = [
            Extent { pblk: 5, blocks: 4 },
            Extent { pblk: 10, blocks: 20 },
            Extent { pblk: 50, blocks: 5 },
            Extent { pblk: 90, blocks: 8 },
        ];
        let mut a = volume_with_free(100, &free);
        // Nothing in [50, 100) holds 10: the first fit in [0, 50) does.
        assert_eq!(a.allocate(10, 50).unwrap(), vec![Extent { pblk: 10, blocks: 10 }]);
        // At or after the hint first, even when an earlier run fits.
        assert_eq!(a.allocate(3, 12).unwrap(), vec![Extent { pblk: 20, blocks: 3 }]);
        // A hint past the end searches from the last block, then wraps.
        assert_eq!(a.allocate(4, 1_000).unwrap(), vec![Extent { pblk: 5, blocks: 4 }]);
        assert_eq!(a.allocate(8, 99).unwrap(), vec![Extent { pblk: 90, blocks: 8 }]);
    }

    #[test]
    fn a_nearly_full_volume_fragments_upward_from_the_hint_then_wraps() {
        let free = [
            Extent { pblk: 3, blocks: 1 },
            Extent { pblk: 10, blocks: 2 },
            Extent { pblk: 40, blocks: 1 },
            Extent { pblk: 62, blocks: 2 },
        ];
        let mut a = volume_with_free(64, &free);
        let e = a.allocate(5, 41).unwrap();
        assert_eq!(
            e,
            vec![
                Extent { pblk: 62, blocks: 2 },
                Extent { pblk: 3, blocks: 1 },
                Extent { pblk: 10, blocks: 2 },
            ]
        );
        assert_eq!(a.free_blocks(), 1);
        assert!(!a.is_allocated(40) && a.is_allocated(3) && a.is_allocated(63));
        // A hint inside a free run starts there; the blocks before it come
        // last, after the wrap.
        let mut a = volume_with_free(64, &free);
        let e = a.allocate(6, 11).unwrap();
        assert_eq!(
            e,
            vec![
                Extent { pblk: 11, blocks: 1 },
                Extent { pblk: 40, blocks: 1 },
                Extent { pblk: 62, blocks: 2 },
                Extent { pblk: 3, blocks: 1 },
                Extent { pblk: 10, blocks: 1 },
            ]
        );
        assert_eq!(a.free_blocks(), 0);
        assert!(a.allocate(1, 0).is_none());
    }

    #[test]
    fn fragmented_picks_coalesce() {
        let mut a = BlockAllocator::new(16);
        a.allocate(1, 0).unwrap(); // block 0
        a.allocate(1, 5).unwrap(); // block 5
                                   // Ask for more than any run from hint 0: runs are [1..5] (4) and
                                   // [6..16) (10); 12 needs fragmentation into two extents.
        let e = a.allocate(12, 0).unwrap();
        assert_eq!(e.len(), 2, "{:?}", e);
        assert_eq!(e[0], Extent { pblk: 1, blocks: 4 });
        assert_eq!(e[1], Extent { pblk: 6, blocks: 8 });
    }
}
