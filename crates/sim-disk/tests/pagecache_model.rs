//! `PageCache` against an independent model: a plain `VecDeque` in
//! exact-LRU order (front = most recent) of `(pblk, dirty, filling token)`.
//! Random sequences of lookups, inserts, `mark_dirty`, `drain_dirty` and
//! platter-read fills over a few sparse physical blocks drawn from
//! 0..2^20 must agree with the model on every hit, victim and dirty flag,
//! and on `lru_order`, `len`, `dirty_pages` and `filling_pages` after
//! every step.

use proptest::prelude::*;
use sim_disk::{Eviction, Lookup, PageCache};
use std::collections::VecDeque;

#[derive(Clone, Copy)]
struct Page {
    pblk: u64,
    dirty: bool,
    filling: u64,
}

struct Model {
    capacity: usize,
    pages: VecDeque<Page>,
}

impl Model {
    fn position(&self, pblk: u64) -> Option<usize> {
        self.pages.iter().position(|p| p.pblk == pblk)
    }

    /// Move the page at `i` to the front and return it.
    fn promote(&mut self, i: usize) -> &mut Page {
        let page = self.pages.remove(i).unwrap();
        self.pages.push_front(page);
        &mut self.pages[0]
    }

    fn lookup(&mut self, pblk: u64) -> Lookup {
        match self.position(pblk) {
            None => Lookup::Miss,
            Some(i) => match self.promote(i).filling {
                0 => Lookup::Ready,
                token => Lookup::Filling(token),
            },
        }
    }

    fn insert(&mut self, pblk: u64, dirty: bool) -> Option<Eviction> {
        if let Some(i) = self.position(pblk) {
            self.promote(i).dirty |= dirty;
            return None;
        }
        let victim = if self.pages.len() == self.capacity {
            self.pages.pop_back().map(|v| Eviction { pblk: v.pblk, dirty: v.dirty })
        } else {
            None
        };
        self.pages.push_front(Page { pblk, dirty, filling: 0 });
        victim
    }

    fn page_mut(&mut self, pblk: u64) -> Option<&mut Page> {
        self.pages.iter_mut().find(|p| p.pblk == pblk)
    }

    fn drain_dirty(&mut self, limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        for p in self.pages.iter_mut().rev() {
            if out.len() == limit {
                break;
            }
            if p.dirty {
                p.dirty = false;
                out.push(p.pblk);
            }
        }
        out
    }
}

fn run(capacity: usize, pool: &[u64], ops: &[(u8, usize, bool, u64)]) {
    let mut pc = PageCache::new(capacity);
    let mut model = Model { capacity, pages: VecDeque::new() };
    let (mut hits, mut misses) = (0u64, 0u64);
    for (step, &(kind, at, dirty, arg)) in ops.iter().enumerate() {
        let pblk = pool[at % pool.len()];
        let token = arg % 3 + 1;
        match kind {
            0 | 1 => {
                let got = pc.lookup(pblk);
                assert_eq!(got, model.lookup(pblk), "step {step}: lookup {pblk}");
                if got != Lookup::Miss {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            2 | 3 => {
                assert_eq!(
                    pc.insert(pblk, dirty),
                    model.insert(pblk, dirty),
                    "step {step}: insert"
                );
            }
            4 => {
                let want = model.page_mut(pblk).map(|p| p.dirty = true).is_some();
                assert_eq!(pc.mark_dirty(pblk), want, "step {step}: mark_dirty {pblk}");
            }
            5 => {
                let limit = arg as usize % 4;
                assert_eq!(pc.drain_dirty(limit), model.drain_dirty(limit), "step {step}: drain");
            }
            6 => {
                pc.start_fill(pblk, token);
                if let Some(p) = model.page_mut(pblk) {
                    p.filling = token;
                }
            }
            _ => {
                pc.filled(pblk, token);
                if let Some(p) = model.page_mut(pblk).filter(|p| p.filling == token) {
                    p.filling = 0;
                }
            }
        }
        let order: Vec<u64> = model.pages.iter().rev().map(|p| p.pblk).collect();
        assert_eq!(pc.lru_order(), order, "step {step}: LRU order");
        assert_eq!(pc.len(), model.pages.len(), "step {step}: len");
        let dirty = model.pages.iter().filter(|p| p.dirty).count();
        assert_eq!(pc.dirty_pages(), dirty, "step {step}: dirty pages");
        let filling = model.pages.iter().filter(|p| p.filling != 0).count();
        assert_eq!(pc.filling_pages(), filling, "step {step}: filling pages");
        for &p in pool {
            assert_eq!(pc.contains(p), model.position(p).is_some(), "step {step}: contains {p}");
        }
    }
    assert_eq!((pc.stats().hits, pc.stats().misses), (hits, misses));
}

proptest! {
    #[test]
    fn pagecache_matches_vecdeque_lru_model(
        capacity in 1usize..10,
        pool in proptest::collection::vec(0u64..1 << 20, 2..16),
        ops in proptest::collection::vec((0u8..8, 0usize..16, any::<bool>(), 0u64..12), 1..200),
    ) {
        run(capacity, &pool, &ops);
    }
}

/// A victim's slot takes the page that displaced it: the victim must read
/// as a miss afterwards, the newcomer as a hit, whatever their distance.
#[test]
fn an_evicted_block_is_gone_from_the_index() {
    let far = (1 << 20) - 1;
    let ops: Vec<(u8, usize, bool, u64)> = vec![
        (2, 0, true, 0),  // insert far, dirty
        (6, 0, false, 1), // its platter read (token 2) in flight
        (2, 1, false, 0), // insert 3: evicts far
        (0, 0, false, 0), // far: miss
        (0, 1, false, 0), // 3: hit, nothing filling
        (2, 0, false, 0), // far again: evicts 3, arrives filled
        (0, 0, false, 0),
        (0, 1, false, 0),
    ];
    run(1, &[far, 3], &ops);
}
