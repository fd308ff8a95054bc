//! Exact LRU — the ablation the paper argues against ("exact LRU can
//! result in a significant overhead at each read/write invocation"),
//! extracted from the seed buffer manager's intrusive list.

use crate::table::FrameTable;
use crate::{AppId, ReplacementPolicy};

const NIL: u32 = u32::MAX;

/// Intrusive doubly-linked list over frame indices, MRU at the head.
/// Every access relinks the frame to the head; an eviction scan snapshots
/// the list tail-first (LRU → MRU), exactly like the seed's `lru_order`.
pub struct ExactLru {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    linked: Vec<bool>,
    scan: Vec<u32>,
    scan_pos: usize,
}

impl ExactLru {
    pub fn new(capacity: usize) -> ExactLru {
        ExactLru {
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            head: NIL,
            tail: NIL,
            linked: vec![false; capacity],
            scan: Vec::new(),
            scan_pos: 0,
        }
    }

    fn unlink(&mut self, i: u32) {
        if !self.linked[i as usize] {
            return;
        }
        let (p, n) = (self.prev[i as usize], self.next[i as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
        self.linked[i as usize] = false;
    }

    /// Move to the MRU position.
    fn touch(&mut self, i: u32) {
        self.unlink(i);
        self.prev[i as usize] = NIL;
        self.next[i as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
        self.linked[i as usize] = true;
    }

    /// Frames from LRU to MRU.
    fn lru_order(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut i = self.tail;
        while i != NIL {
            out.push(i);
            i = self.prev[i as usize];
        }
        out
    }
}

impl ReplacementPolicy for ExactLru {
    fn on_access(&mut self, _table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        self.touch(frame);
    }

    fn on_insert(&mut self, _table: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        self.touch(frame);
    }

    fn on_remove(&mut self, _table: &FrameTable, frame: u32, _key: u64) {
        self.unlink(frame);
    }

    fn begin_scan(&mut self, _table: &FrameTable) {
        self.scan = self.lru_order();
        self.scan_pos = 0;
    }

    fn next_candidate(&mut self, table: &FrameTable, filter: Option<AppId>) -> Option<u32> {
        while self.scan_pos < self.scan.len() {
            let idx = self.scan[self.scan_pos];
            self.scan_pos += 1;
            if table.evictable_for(idx, filter) {
                return Some(idx);
            }
        }
        None
    }

    fn recency_ranking(&self, _table: &FrameTable) -> Option<Vec<u32>> {
        Some(self.lru_order())
    }
}

#[cfg(test)]
mod tests {
    use crate::{AppId, PolicyKind};

    #[test]
    fn evicts_strictly_oldest() {
        let mut l = PolicyKind::ExactLru.build(3);
        for f in 0..3 {
            l.insert(f, f as u64, AppId::UNKNOWN);
        }
        l.access(0, 0, AppId::UNKNOWN); // 1 is now LRU
        l.begin_scan();
        assert_eq!(l.next_candidate(None), Some(1));
        assert_eq!(l.next_candidate(None), Some(2));
        assert_eq!(l.next_candidate(None), Some(0));
        assert_eq!(l.next_candidate(None), None);
    }

    #[test]
    fn remove_unlinks() {
        let mut l = PolicyKind::ExactLru.build(3);
        for f in 0..3 {
            l.insert(f, f as u64, AppId::UNKNOWN);
        }
        l.remove(0, 0);
        l.begin_scan();
        assert_eq!(l.next_candidate(None), Some(1));
        assert_eq!(l.next_candidate(None), Some(2));
        assert_eq!(l.next_candidate(None), None);
    }
}
