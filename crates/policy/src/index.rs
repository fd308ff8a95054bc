//! The ordered index the list-keeping rankers hold their eviction order in,
//! and the one scan cursor over it.
//!
//! A slot (a frame, or a ghost-list entry) carries a **rank**: a `u64`
//! class key the ranker chooses (a queue, a frequency, a referent count)
//! and a touch stamp from one logical clock. Slots of one key ring through
//! their class node in stamp order, class nodes through a root in key
//! order, so every update is a relink: nothing here allocates after
//! construction, and only [`rekey_all`](RankIndex::rekey_all) and
//! [`order`](RankIndex::order) walk the whole index.
//!
//! The scan cursor is a **position in rank space**, not a pointer into a
//! list: the manager drops the policy lock between two `next_candidate`
//! calls, so any hook may relink any slot mid-scan. While the slot last
//! visited stays put, the cursor is that slot and the next one is its ring
//! successor; the relink that moves it leaves its rank behind, and the
//! scan re-seeks past that rank, which costs at most the slots it already
//! passed. Every slot ranked after the cursor is still offered, a slot
//! re-ranked ahead of it is offered again (at most once per hook call),
//! and a scan always ends.

use crate::hash::KeyMap;
use crate::table::{FrameTable, ScanFilter};

const NIL: u32 = u32::MAX;

/// Where a scan stands. Ranks are [`RankIndex::scan_rank`]s.
#[derive(Clone, Copy, PartialEq)]
enum Cursor {
    /// Nothing visited yet.
    Start,
    /// On the slot last visited, still where the scan found it.
    On(u32),
    /// Past this rank: the slot last visited has been relinked since.
    Past((bool, u64, u64)),
}

pub(crate) struct RankIndex {
    /// Node ids: the slots `0..slots`, then `slots + 1` class nodes (a
    /// relink finds its target class before it releases the emptied one),
    /// then the root. Arrays are indexed by node id; the per-slot ones
    /// stop at `slots`.
    slots: u32,
    /// A class node closes the ring of its slots, oldest stamp next to it.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Class nodes in use ring through the root, lowest key above it.
    down: Vec<u32>,
    up: Vec<u32>,
    spare: Vec<u32>,
    /// A class node's key and slot count.
    key: Vec<u64>,
    len: Vec<u32>,
    /// A slot's class node (`NIL` while unlinked) and stamp.
    class: Vec<u32>,
    stamp: Vec<u64>,
    tick: u64,
    /// Class key the current scan started from (see [`begin`](Self::begin)).
    start: u64,
    cursor: Cursor,
}

impl RankIndex {
    pub fn new(slots: usize) -> RankIndex {
        let nodes = 2 * slots as u32 + 2;
        let root = nodes - 1;
        // Every ring starts closed on itself.
        let rings = || (0..nodes).collect::<Vec<u32>>();
        RankIndex {
            slots: slots as u32,
            prev: rings(),
            next: rings(),
            down: rings(),
            up: rings(),
            spare: (slots as u32..root).collect(),
            key: vec![0; nodes as usize],
            len: vec![0; nodes as usize],
            class: vec![NIL; slots],
            stamp: vec![0; slots],
            tick: 0,
            start: 0,
            cursor: Cursor::Start,
        }
    }

    fn root(&self) -> u32 {
        2 * self.slots + 1
    }

    /// Class key `slot` is filed under (`None` while unlinked).
    pub fn key_of(&self, slot: u32) -> Option<u64> {
        let c = self.class[slot as usize];
        (c != NIL).then(|| self.key[c as usize])
    }

    pub fn stamp_of(&self, slot: u32) -> u64 {
        self.stamp[slot as usize]
    }

    /// The first class keyed `>= key` (the root if none), found from the
    /// low end of the chain: for callers with a handful of classes
    /// (queues), not per-frequency ones.
    fn class_from(&self, key: u64) -> u32 {
        let mut c = self.up[self.root() as usize];
        while c != self.root() && self.key[c as usize] < key {
            c = self.up[c as usize];
        }
        c
    }

    fn class_keyed(&self, key: u64) -> Option<usize> {
        let c = self.class_from(key);
        (c != self.root() && self.key[c as usize] == key).then_some(c as usize)
    }

    /// Slots filed under `key` (cost: see [`class_from`](Self::class_from)).
    pub fn len_of(&self, key: u64) -> usize {
        self.class_keyed(key).map_or(0, |c| self.len[c] as usize)
    }

    /// Oldest-stamped slot filed under `key`.
    pub fn oldest(&self, key: u64) -> Option<u32> {
        self.class_keyed(key).map(|c| self.next[c])
    }

    fn detach(&mut self, slot: u32) -> u32 {
        let c = self.class[slot as usize];
        if c != NIL {
            // The scan's slot is leaving its place: the cursor keeps the rank.
            if self.cursor == Cursor::On(slot) {
                self.cursor = Cursor::Past(self.scan_rank(slot, self.start));
            }
            let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
            self.next[p as usize] = n;
            self.prev[n as usize] = p;
            self.len[c as usize] -= 1;
            self.class[slot as usize] = NIL;
        }
        c
    }

    /// Unchain class `c` if `detach` emptied it.
    fn release(&mut self, c: u32) {
        if c != NIL && self.len[c as usize] == 0 {
            let (d, u) = (self.down[c as usize], self.up[c as usize]);
            self.up[d as usize] = u;
            self.down[u as usize] = d;
            self.spare.push(c);
        }
    }

    /// The class keyed `key`, chained in if new. The search starts at
    /// `hint` (else the lowest class): every ranker's hooks move a slot to
    /// its own, an adjacent or the lowest class, so it is a step or two.
    fn class_for(&mut self, key: u64, hint: u32) -> u32 {
        let root = self.root();
        // `below`: the highest class keyed <= `key`, the root if none.
        let mut below = if hint != NIL { hint } else { self.up[root as usize] };
        while below != root && self.key[below as usize] > key {
            below = self.down[below as usize];
        }
        let mut above = self.up[below as usize];
        while above != root && self.key[above as usize] <= key {
            (below, above) = (above, self.up[above as usize]);
        }
        if below != root && self.key[below as usize] == key {
            return below;
        }
        // A spare node's ring is closed on itself: its last slot left.
        let c = self.spare.pop().expect("a class node per slot, plus one");
        self.key[c as usize] = key;
        (self.down[c as usize], self.up[c as usize]) = (below, above);
        self.up[below as usize] = c;
        self.down[above as usize] = c;
        c
    }

    /// Link a detached `slot` under `key` where its stamp sorts (the tail,
    /// for a fresh stamp). Returns the class, the next call's `hint`.
    fn place(&mut self, slot: u32, key: u64, hint: u32) -> u32 {
        let c = self.class_for(key, hint);
        let mut after = self.prev[c as usize];
        while after != c && self.stamp[after as usize] > self.stamp[slot as usize] {
            after = self.prev[after as usize];
        }
        let before = std::mem::replace(&mut self.next[after as usize], slot);
        self.prev[before as usize] = slot;
        (self.prev[slot as usize], self.next[slot as usize]) = (after, before);
        self.len[c as usize] += 1;
        self.class[slot as usize] = c;
        c
    }

    /// Stamp `slot` newest and file it under `key` (linking it if need be).
    pub fn touch(&mut self, slot: u32, key: u64) {
        let from = self.detach(slot);
        self.tick += 1;
        self.stamp[slot as usize] = self.tick;
        self.attach(slot, key, from);
    }

    /// File `slot` under `key`, its stamp kept: it lands among that
    /// class's older and newer slots (one step per newer one).
    pub fn rekey(&mut self, slot: u32, key: u64) {
        let from = self.detach(slot);
        self.attach(slot, key, from);
    }

    fn attach(&mut self, slot: u32, key: u64, from: u32) {
        let to = self.place(slot, key, from);
        if from != to {
            self.release(from);
        }
    }

    pub fn unlink(&mut self, slot: u32) {
        let c = self.detach(slot);
        self.release(c);
    }

    /// Re-file every linked slot under `key(slot)`, stamps kept: one sort,
    /// for aging at an epoch boundary.
    pub fn rekey_all(&mut self, key: impl Fn(u32) -> u64) {
        let mut ranks: Vec<(u64, u64, u32)> = (0..self.slots)
            .filter(|&s| self.class[s as usize] != NIL)
            .map(|s| (key(s), self.stamp[s as usize], s))
            .collect();
        ranks.sort_unstable();
        ranks.iter().for_each(|&(_, _, s)| self.unlink(s));
        let mut hint = NIL;
        for (k, _, s) in ranks {
            hint = self.place(s, k, hint);
        }
    }

    // Scan order: class keys ascending from `start`, then wrapping to the
    // keys below it (2Q/ARC drain either queue first; everyone else starts
    // at 0 and never wraps); stamps ascending within a class.

    /// `c`, or the lowest class if `c` is the root (the root if none).
    fn past_root(&self, c: u32) -> u32 {
        if c == self.root() {
            self.up[c as usize]
        } else {
            c
        }
    }

    fn first_slot(&self, start: u64) -> Option<u32> {
        let c = self.past_root(self.class_from(start));
        (c != self.root()).then(|| self.next[c as usize])
    }

    fn succ(&self, slot: u32, start: u64) -> Option<u32> {
        let c = self.next[slot as usize];
        if c < self.slots {
            return Some(c);
        }
        // `slot` was its class's newest: on to the next class, around the
        // root, unless that arrives back where the scan started.
        let u = self.past_root(self.up[c as usize]);
        let (from, to) = (self.key[c as usize], self.key[u as usize]);
        ((to < start, to) > (from < start, from)).then(|| self.next[u as usize])
    }

    /// Every linked slot in the order a scan started at `start` offers.
    pub fn order(&self, start: u64) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(self.first_slot(start), move |&s| self.succ(s, start))
    }

    /// Start a scan at the class keyed `start` (or the next one above).
    pub fn begin(&mut self, start: u64) {
        self.start = start;
        self.cursor = Cursor::Start;
    }

    /// `slot`'s rank as a scan started at `start` orders it.
    fn scan_rank(&self, slot: u32, start: u64) -> (bool, u64, u64) {
        let key = self.key[self.class[slot as usize] as usize];
        (key < start, key, self.stamp[slot as usize])
    }

    /// Next slot of the scan the table lets go (`evictable_for`); `None`
    /// once nothing ranked after the cursor is.
    pub fn next(&mut self, table: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
        let start = self.start;
        let mut slot = match self.cursor {
            Cursor::Start => self.first_slot(start),
            Cursor::On(slot) => self.succ(slot, start),
            Cursor::Past(rank) => self.order(start).find(|&s| self.scan_rank(s, start) > rank),
        };
        while let Some(s) = slot {
            self.cursor = Cursor::On(s);
            if table.evictable_for(s, filter) {
                break;
            }
            slot = self.succ(s, start);
        }
        slot
    }
}

/// Bounded FIFO queues of departed blocks' fingerprints (2Q's A1out, ARC's
/// B1 and B2, the quota tuner's per-application refault memory) over one
/// key → slot map: membership, removal from the middle and trimming are
/// O(1), where a `VecDeque` searched on every insert.
pub struct GhostLists {
    slot_of: KeyMap<u64, u32>,
    key_of: Vec<u64>,
    /// One class per queue; stamps give the FIFO order.
    queue: RankIndex,
    free: Vec<u32>,
    cap: usize,
}

impl GhostLists {
    /// `lists` queues (numbered from 0) of at most `cap` keys each.
    pub fn new(lists: usize, cap: usize) -> GhostLists {
        // One spare: `remember` links the newcomer before it trims.
        let slots = lists * cap + 1;
        GhostLists {
            slot_of: KeyMap::with_capacity_and_hasher(slots, Default::default()),
            key_of: vec![0; slots],
            queue: RankIndex::new(slots),
            free: (0..slots as u32).collect(),
            cap,
        }
    }

    /// Keys `list` remembers.
    pub fn len(&self, list: u64) -> usize {
        self.queue.len_of(list)
    }

    /// `key` becomes `list`'s newest member; the oldest beyond `cap` drops.
    pub fn remember(&mut self, key: u64, list: u64) {
        let slot = *self.slot_of.entry(key).or_insert_with(|| {
            let slot = self.free.pop().expect("a slot per remembered key, plus the spare");
            self.key_of[slot as usize] = key;
            slot
        });
        self.queue.touch(slot, list);
        if self.queue.len_of(list) > self.cap {
            let oldest = self.queue.oldest(list).expect("an over-full list has a head");
            self.forget(self.key_of[oldest as usize]);
        }
    }

    /// Drop `key` if remembered, returning the list that held it.
    pub fn forget(&mut self, key: u64) -> Option<u64> {
        let slot = self.slot_of.remove(&key)?;
        let list = self.queue.key_of(slot);
        self.queue.unlink(slot);
        self.free.push(slot);
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppId, PolicyKind};

    /// Slots 0..n resident in a table, filed under `key(slot)` in slot order.
    fn filed(n: u32, key: impl Fn(u32) -> u64) -> (crate::RankedTable, RankIndex) {
        let mut pool = PolicyKind::Clock.build(n as usize);
        let mut index = RankIndex::new(n as usize);
        for s in 0..n {
            pool.insert(s, s as u64, AppId::UNKNOWN);
            index.touch(s, key(s));
        }
        (pool, index)
    }

    #[test]
    fn classes_chain_in_key_order_and_vanish_when_empty() {
        let (_, mut index) = filed(6, |s| [5, 1, 3, 1, 5, 0][s as usize]);
        assert_eq!(index.order(0).collect::<Vec<_>>(), [5, 1, 3, 2, 0, 4]);
        assert_eq!((index.len_of(1), index.len_of(2), index.oldest(5)), (2, 0, Some(0)));
        index.unlink(2);
        index.touch(1, 9);
        assert_eq!(index.order(0).collect::<Vec<_>>(), [5, 3, 0, 4, 1]);
        assert_eq!((index.key_of(2), index.key_of(1)), (None, Some(9)));
        // A scan started at key 5 wraps to the classes below it.
        assert_eq!(index.order(5).collect::<Vec<_>>(), [0, 4, 1, 5, 3]);
        assert_eq!(index.order(10).collect::<Vec<_>>(), [5, 3, 0, 4, 1], "nothing at or above");
    }

    #[test]
    fn rekey_keeps_stamp_order_within_the_new_class() {
        let (_, mut index) = filed(4, |s| s as u64 % 2);
        assert_eq!(index.order(0).collect::<Vec<_>>(), [0, 2, 1, 3]);
        index.rekey(1, 0); // stamped between 0 and 2
        assert_eq!(index.order(0).collect::<Vec<_>>(), [0, 1, 2, 3]);
        index.rekey_all(|s| (s < 2) as u64);
        assert_eq!(index.order(0).collect::<Vec<_>>(), [2, 3, 0, 1]);
    }

    #[test]
    fn a_hook_on_the_cursor_slot_costs_no_other_slot_its_turn() {
        let (pool, mut index) = filed(4, |_| 0);
        let t = pool.table();
        index.begin(0);
        assert_eq!(index.next(t, &mut ScanFilter::default()), Some(0));
        index.touch(0, 0); // the slot the cursor sits on moves to the far end
        assert_eq!(index.next(t, &mut ScanFilter::default()), Some(1));
        index.unlink(1); // and this one leaves altogether
        index.touch(2, 7); // its successor jumps a class ahead
        let rest: Vec<u32> =
            std::iter::from_fn(|| index.next(t, &mut ScanFilter::default())).collect();
        assert_eq!(rest, [3, 0, 2], "everything ranked after the cursor, re-ranked slots again");
        assert_eq!(
            index.next(t, &mut ScanFilter::default()),
            None,
            "an exhausted scan stays exhausted"
        );
    }

    #[test]
    fn ghost_lists_trim_per_list_and_forget_from_the_middle() {
        let mut g = GhostLists::new(2, 2);
        g.remember(10, 0);
        g.remember(11, 0);
        g.remember(20, 1);
        g.remember(12, 0); // list 0 is over: 10 drops
        assert_eq!((g.len(0), g.len(1)), (2, 1));
        assert_eq!(g.forget(10), None);
        assert_eq!(g.forget(11), Some(0));
        g.remember(13, 0);
        g.remember(12, 0); // already there: moves to the back, nothing drops
        g.remember(14, 0); // so 13 is the one that goes
        assert_eq!((g.forget(13), g.forget(12), g.forget(20)), (None, Some(0), Some(1)));
        assert_eq!((g.len(0), g.len(1)), (1, 0));
    }
}
