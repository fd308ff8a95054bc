//! Server-side OS page cache.
//!
//! The paper's no-caching baseline still ran on Linux iod nodes whose kernel
//! cached file data. Modelling that cache keeps the baseline honest: reads
//! that hit server memory skip the disk, and writes are absorbed and flushed
//! in the background (kupdate-style).
//!
//! Exact LRU over physical 4 KB blocks, O(1) per operation via an intrusive
//! doubly-linked list on a slab. The slab grows with the pages resident, up
//! to the capacity, so a cache that never fills never pays for its bound. A
//! page is found through a table indexed by physical block: an iod's fs
//! allocates first-fit from block 0, so the blocks it caches are dense.

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry {
    pblk: u64,
    /// Token of the platter read filling the page, 0 when it holds its data.
    filling: u64,
    dirty: bool,
    prev: u32,
    next: u32,
}

/// What fell out of the cache when a new page came in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    pub pblk: u64,
    /// Dirty victims must be written to disk by the caller.
    pub dirty: bool,
}

/// What a [`PageCache::lookup`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    Miss,
    /// Resident, with its data.
    Ready,
    /// Resident, but the platter read with this token is still filling it
    /// (Linux keeps such a page locked): a read waits for that read.
    Filling(u64),
}

#[derive(Debug, Default, Clone)]
pub struct PageCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub clean_evictions: u64,
    pub dirty_evictions: u64,
}

/// Fixed-capacity exact-LRU page cache.
pub struct PageCache {
    capacity: usize,
    /// Physical block → slab slot, `NIL` when not resident; grown to the
    /// highest block inserted.
    index: Vec<u32>,
    /// Every slot holds a resident page: a victim's slot takes the page
    /// that displaced it. Grown by doubling, never past `capacity`.
    slab: Vec<Entry>,
    head: u32, // MRU
    tail: u32, // LRU
    dirty_count: usize,
    stats: PageCacheStats,
}

impl PageCache {
    pub fn new(capacity_pages: usize) -> PageCache {
        assert!(capacity_pages > 0, "page cache needs at least one page");
        assert!(capacity_pages < NIL as usize, "page cache slots are u32");
        PageCache {
            capacity: capacity_pages,
            index: Vec::new(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            dirty_count: 0,
            stats: PageCacheStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.slab.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn dirty_pages(&self) -> usize {
        self.dirty_count
    }

    pub fn stats(&self) -> &PageCacheStats {
        &self.stats
    }

    fn slot(&self, pblk: u64) -> Option<usize> {
        match self.index.get(pblk as usize) {
            Some(&i) if i != NIL => Some(i as usize),
            _ => None,
        }
    }

    pub fn contains(&self, pblk: u64) -> bool {
        self.slot(pblk).is_some()
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = idx as u32;
        }
        self.head = idx as u32;
        if self.tail == NIL {
            self.tail = idx as u32;
        }
    }

    /// Reference a page for reading; a resident one (a hit) is promoted to
    /// MRU.
    pub fn lookup(&mut self, pblk: u64) -> Lookup {
        match self.slot(pblk) {
            Some(idx) => {
                self.stats.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                match self.slab[idx].filling {
                    0 => Lookup::Ready,
                    token => Lookup::Filling(token),
                }
            }
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Insert (or re-reference) a page, optionally dirty. Returns the evicted
    /// victim if the cache was full.
    pub fn insert(&mut self, pblk: u64, dirty: bool) -> Option<Eviction> {
        if let Some(idx) = self.slot(pblk) {
            if dirty && !self.slab[idx].dirty {
                self.slab[idx].dirty = true;
                self.dirty_count += 1;
            }
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        self.stats.insertions += 1;
        let entry = Entry { pblk, filling: 0, dirty, prev: NIL, next: NIL };
        let (idx, victim) = if self.slab.len() >= self.capacity {
            let idx = self.tail as usize;
            let victim = self.evict(idx);
            self.slab[idx] = entry;
            (idx, Some(victim))
        } else {
            if self.slab.len() == self.slab.capacity() {
                let room = self.capacity - self.slab.len();
                self.slab.reserve_exact(self.slab.len().max(16).min(room));
            }
            self.slab.push(entry);
            (self.slab.len() - 1, None)
        };
        if dirty {
            self.dirty_count += 1;
        }
        if self.index.len() <= pblk as usize {
            self.index.resize(pblk as usize + 1, NIL);
        }
        self.index[pblk as usize] = idx as u32;
        self.push_front(idx);
        victim
    }

    /// Unlink the page in slot `idx` and drop it from the index; the slot
    /// is the caller's to refill.
    fn evict(&mut self, idx: usize) -> Eviction {
        let e = self.slab[idx];
        self.unlink(idx);
        self.index[e.pblk as usize] = NIL;
        if e.dirty {
            self.dirty_count -= 1;
            self.stats.dirty_evictions += 1;
        } else {
            self.stats.clean_evictions += 1;
        }
        Eviction { pblk: e.pblk, dirty: e.dirty }
    }

    /// Mark a resident page dirty; returns `false` if it is not resident.
    pub fn mark_dirty(&mut self, pblk: u64) -> bool {
        match self.slot(pblk) {
            Some(idx) => {
                if !self.slab[idx].dirty {
                    self.slab[idx].dirty = true;
                    self.dirty_count += 1;
                }
                true
            }
            None => false,
        }
    }

    /// Record that the platter read `token` (nonzero) fills resident page
    /// `pblk`; lookups report it until [`filled`](Self::filled). A page
    /// not resident is left alone.
    pub fn start_fill(&mut self, pblk: u64, token: u64) {
        debug_assert_ne!(token, 0, "token 0 means filled");
        if let Some(idx) = self.slot(pblk) {
            self.slab[idx].filling = token;
        }
    }

    /// The platter read `token` has brought `pblk` in. A page evicted and
    /// read again meanwhile belongs to the newer read and stays filling.
    pub fn filled(&mut self, pblk: u64, token: u64) {
        if let Some(idx) = self.slot(pblk) {
            if self.slab[idx].filling == token {
                self.slab[idx].filling = 0;
            }
        }
    }

    /// Resident pages whose platter read is still in flight.
    pub fn filling_pages(&self) -> usize {
        self.slab.iter().filter(|e| e.filling != 0).count()
    }

    /// Collect up to `limit` dirty pages (oldest first) and mark them clean;
    /// the caller is responsible for issuing the disk writes.
    pub fn drain_dirty(&mut self, limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut idx = self.tail;
        while idx != NIL && out.len() < limit {
            let e = &mut self.slab[idx as usize];
            if e.dirty {
                e.dirty = false;
                self.dirty_count -= 1;
                out.push(e.pblk);
            }
            idx = e.prev;
        }
        out
    }

    /// LRU-order iterator (oldest first), for tests and diagnostics.
    pub fn lru_order(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.slab.len());
        let mut idx = self.tail;
        while idx != NIL {
            out.push(self.slab[idx as usize].pblk);
            idx = self.slab[idx as usize].prev;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut pc = PageCache::new(4);
        assert_eq!(pc.lookup(1), Lookup::Miss);
        pc.insert(1, false);
        assert_eq!(pc.lookup(1), Lookup::Ready);
        assert_eq!(pc.stats().hits, 1);
        assert_eq!(pc.stats().misses, 1);
    }

    #[test]
    fn evicts_lru_when_full() {
        let mut pc = PageCache::new(3);
        pc.insert(1, false);
        pc.insert(2, false);
        pc.insert(3, false);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(pc.lookup(1), Lookup::Ready);
        let ev = pc.insert(4, false).expect("must evict");
        assert_eq!(ev, Eviction { pblk: 2, dirty: false });
        assert!(pc.contains(1) && pc.contains(3) && pc.contains(4));
        assert_eq!(pc.len(), 3);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut pc = PageCache::new(2);
        pc.insert(1, true);
        pc.insert(2, false);
        let ev = pc.insert(3, false).unwrap();
        assert_eq!(ev, Eviction { pblk: 1, dirty: true });
        assert_eq!(pc.stats().dirty_evictions, 1);
        assert_eq!(pc.dirty_pages(), 0);
    }

    #[test]
    fn reinsert_promotes_and_merges_dirty() {
        let mut pc = PageCache::new(2);
        pc.insert(1, false);
        pc.insert(2, false);
        assert!(pc.insert(1, true).is_none(), "re-insert must not evict");
        assert_eq!(pc.dirty_pages(), 1);
        // 2 is now LRU.
        assert_eq!(pc.lru_order(), vec![2, 1]);
    }

    #[test]
    fn mark_dirty_only_resident() {
        let mut pc = PageCache::new(2);
        pc.insert(7, false);
        assert!(pc.mark_dirty(7));
        assert!(pc.mark_dirty(7), "idempotent");
        assert_eq!(pc.dirty_pages(), 1);
        assert!(!pc.mark_dirty(8));
    }

    #[test]
    fn drain_dirty_oldest_first_and_cleans() {
        let mut pc = PageCache::new(4);
        pc.insert(1, true);
        pc.insert(2, false);
        pc.insert(3, true);
        pc.insert(4, true);
        let drained = pc.drain_dirty(2);
        assert_eq!(drained, vec![1, 3], "oldest dirty first");
        assert_eq!(pc.dirty_pages(), 1);
        let rest = pc.drain_dirty(10);
        assert_eq!(rest, vec![4]);
        assert_eq!(pc.dirty_pages(), 0);
    }

    #[test]
    fn lru_order_tracks_access_pattern() {
        let mut pc = PageCache::new(3);
        pc.insert(1, false);
        pc.insert(2, false);
        pc.insert(3, false);
        pc.lookup(2);
        pc.lookup(1);
        assert_eq!(pc.lru_order(), vec![3, 2, 1]);
    }

    #[test]
    fn the_slab_grows_with_resident_pages_up_to_the_capacity() {
        let mut pc = PageCache::new(100);
        assert_eq!(pc.slab.capacity(), 0, "an empty cache reserves nothing");
        pc.insert(0, false);
        assert_eq!(pc.slab.capacity(), 16);
        for p in 1..1000 {
            pc.insert(p, false);
            assert!(pc.slab.capacity() <= 100 && pc.slab.capacity() < 2 * pc.len().max(16));
        }
        assert_eq!(pc.slab.capacity(), 100);
    }

    #[test]
    fn slab_slots_recycled() {
        let mut pc = PageCache::new(2);
        for i in 0..100 {
            pc.insert(i, i % 2 == 0);
        }
        assert_eq!(pc.len(), 2);
        assert!(pc.contains(98) && pc.contains(99));
        assert_eq!(pc.stats().insertions, 100);
        assert_eq!(
            pc.stats().clean_evictions + pc.stats().dirty_evictions,
            98,
            "every displaced page reported exactly once"
        );
    }

    #[test]
    fn stress_against_reference_model() {
        use std::collections::VecDeque;
        let mut pc = PageCache::new(8);
        let mut model: VecDeque<u64> = VecDeque::new(); // front = MRU
        let mut x: u64 = 0x12345;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pblk = (x >> 33) % 24;
            let hit = pc.lookup(pblk) != Lookup::Miss;
            let model_hit = model.contains(&pblk);
            assert_eq!(hit, model_hit, "hit status diverged for {}", pblk);
            if model_hit {
                let pos = model.iter().position(|&p| p == pblk).unwrap();
                model.remove(pos);
                model.push_front(pblk);
            } else {
                pc.insert(pblk, false);
                if model.len() == 8 {
                    model.pop_back();
                }
                model.push_front(pblk);
            }
            assert_eq!(pc.lru_order().last(), model.front(), "MRU diverged");
        }
    }
}
