//! Property tests over every policy — the six built-ins and a test-local
//! seventh written against the required hooks only — plus differential
//! tests pinning the extracted Clock/ExactLru implementations to the seed
//! buffer manager's behavior.

use kcache_policy::{AppId, FrameTable, PolicyKind, RankedTable, ReplacementPolicy, ScanFilter};
use proptest::prelude::*;
use std::collections::VecDeque;

const CAP: usize = 8;

/// The seventh policy: plain FIFO, out of crate, required hooks only — it
/// never touches the table beyond the eligibility check, and the provided
/// hooks keep their defaults.
#[derive(Default)]
struct Fifo {
    queue: VecDeque<u32>,
    scan: Vec<u32>,
}

impl ReplacementPolicy for Fifo {
    fn on_insert(&mut self, _: &FrameTable, frame: u32, _key: u64, _app: AppId) {
        self.queue.retain(|&f| f != frame);
        self.queue.push_back(frame);
    }
    fn on_access(&mut self, _: &FrameTable, _frame: u32, _key: u64, _app: AppId) {}
    fn on_remove(&mut self, _: &FrameTable, frame: u32, _key: u64) {
        self.queue.retain(|&f| f != frame);
    }
    fn begin_scan(&mut self, _: &FrameTable) {
        self.scan = self.queue.iter().rev().copied().collect();
    }
    fn next_candidate(&mut self, table: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
        while let Some(f) = self.scan.pop() {
            if table.evictable_for(f, filter) {
                return Some(f);
            }
        }
        None
    }
}

fn fifo() -> RankedTable {
    RankedTable::with_ranker(CAP, Box::new(Fifo::default()))
}

/// Model of the manager's view: which frames are resident/pinned, which
/// application installed them, plus a per-frame fingerprint so ghost-list
/// policies see realistic keys.
struct Model {
    resident: [bool; CAP],
    pinned: [bool; CAP],
    key_of: [u64; CAP],
    owner_of: [AppId; CAP],
}

impl Model {
    fn new() -> Model {
        Model {
            resident: [false; CAP],
            pinned: [false; CAP],
            key_of: [0; CAP],
            owner_of: [AppId::UNKNOWN; CAP],
        }
    }

    fn vacate(&mut self, frame: u32) {
        self.resident[frame as usize] = false;
        self.pinned[frame as usize] = false;
        self.owner_of[frame as usize] = AppId::UNKNOWN;
    }

    fn resident_count(&self) -> usize {
        self.resident.iter().filter(|&&r| r).count()
    }

    fn any_evictable(&self) -> bool {
        (0..CAP).any(|f| self.resident[f] && !self.pinned[f])
    }

    fn any_evictable_owned(&self, owner: AppId) -> bool {
        (0..CAP).any(|f| self.resident[f] && !self.pinned[f] && self.owner_of[f] == owner)
    }
}

/// Drive one policy through an op sequence, checking the candidate
/// invariants at every eviction. Ops honor the manager's calling contract
/// (access/remove only resident frames, insert only vacant ones).
fn drive(kind: &str, make: impl Fn() -> RankedTable, ops: &[(u8, u64)]) {
    let mut policy = make();
    let mut m = Model::new();
    for &(op, arg) in ops {
        let frame = (arg % CAP as u64) as u32;
        let app = AppId((arg % 3) as u32);
        match op {
            0 => {
                // Access (hit) if resident, else treat as an insert.
                if m.resident[frame as usize] {
                    policy.access(frame, m.key_of[frame as usize], app);
                } else {
                    m.resident[frame as usize] = true;
                    m.key_of[frame as usize] = arg;
                    m.owner_of[frame as usize] = app;
                    policy.insert(frame, arg, app);
                }
            }
            1 => {
                // Invalidate.
                if m.resident[frame as usize] {
                    m.vacate(frame);
                    policy.remove(frame, m.key_of[frame as usize]);
                }
            }
            2 => {
                // Pin toggle (flush in flight / acknowledged).
                if m.resident[frame as usize] {
                    let p = !m.pinned[frame as usize];
                    m.pinned[frame as usize] = p;
                    policy.table().set_pinned(frame, p);
                }
            }
            3 => {
                // Owner-filtered eviction scan (the partition-local path the
                // quota-enforcing manager runs): every candidate must be
                // owned by the filtered app on top of the usual rules, and
                // the scan must find a victim iff the app owns one.
                let filter = &mut ScanFilter::owned_by(app);
                policy.begin_scan();
                let got = policy.next_candidate(filter);
                if let Some(c) = got {
                    prop_assert!((c as usize) < CAP, "{kind}: filtered candidate {c} out of pool");
                    prop_assert!(m.resident[c as usize], "{kind}: filtered candidate not resident");
                    prop_assert!(!m.pinned[c as usize], "{kind}: filtered candidate is pinned");
                    prop_assert_eq!(
                        m.owner_of[c as usize],
                        app,
                        "{}: candidate {} not owned by the filtered app",
                        kind,
                        c
                    );
                    m.vacate(c);
                    policy.remove(c, m.key_of[c as usize]);
                }
                prop_assert!(
                    got.is_some() || !m.any_evictable_owned(app),
                    "{kind}: filtered scan missed an evictable frame owned by app {app:?}"
                );
                let mut offered = 0usize;
                while let Some(c) = policy.next_candidate(filter) {
                    offered += 1;
                    prop_assert!(offered <= 4 * CAP, "{kind}: filtered scan did not terminate");
                    prop_assert!(
                        (c as usize) < CAP
                            && m.resident[c as usize]
                            && !m.pinned[c as usize]
                            && m.owner_of[c as usize] == app,
                        "{kind}: late filtered candidate {c} violates invariants"
                    );
                }
                prop_assert!(filter.examined >= offered as u64, "{kind}: offered, so examined");
            }
            _ => {
                // Eviction scan: every candidate must be in-pool, resident,
                // and unpinned; the scan must terminate; and when an
                // evictable frame exists the policy must find one.
                policy.begin_scan();
                let mut victim = None;
                let any = &mut ScanFilter::default();
                if let Some(c) = policy.next_candidate(any) {
                    prop_assert!((c as usize) < CAP, "{kind}: candidate {c} out of pool");
                    prop_assert!(m.resident[c as usize], "{kind}: candidate {c} not resident");
                    prop_assert!(!m.pinned[c as usize], "{kind}: candidate {c} is pinned");
                    victim = Some(c); // manager accepts the first workable candidate
                }
                prop_assert_eq!(
                    victim.is_some(),
                    m.any_evictable(),
                    "{}: policy must find a victim iff one exists",
                    kind
                );
                if let Some(v) = victim {
                    m.vacate(v);
                    policy.remove(v, m.key_of[v as usize]);
                }
                // Exhausting the rest of the scan must terminate and keep
                // honoring the same candidate rules.
                let mut offered = 0usize;
                while let Some(c) = policy.next_candidate(any) {
                    offered += 1;
                    prop_assert!(offered <= 4 * CAP, "{kind}: scan did not terminate");
                    prop_assert!(
                        (c as usize) < CAP && m.resident[c as usize] && !m.pinned[c as usize],
                        "{kind}: late candidate {c} violates invariants"
                    );
                }
            }
        }
        prop_assert!(m.resident_count() <= CAP, "model residency overflow (test harness bug)");
    }
}

proptest! {
    #[test]
    fn all_policies_uphold_candidate_invariants(
        ops in collection::vec((0u8..5, 0u64..1024), 1..300),
    ) {
        for kind in PolicyKind::ALL {
            drive(kind.name(), || kind.build(CAP), &ops);
        }
        drive("test-fifo", fifo, &ops);
    }
}

// ---------------------------------------------------------------------
// Differential: extracted Clock vs the seed manager's clock algorithm.
// ---------------------------------------------------------------------

/// The seed manager's eviction scan, verbatim: persistent hand, 2n-step
/// budget, swap-then-skip reference bits, first evictable frame wins.
struct SeedClock {
    bits: [bool; CAP],
    resident: [bool; CAP],
    hand: usize,
}

impl SeedClock {
    fn evict(&mut self) -> Option<u32> {
        for _ in 0..2 * CAP {
            let idx = self.hand;
            self.hand = (self.hand + 1) % CAP;
            if std::mem::take(&mut self.bits[idx]) {
                continue;
            }
            if self.resident[idx] {
                self.resident[idx] = false;
                return Some(idx as u32);
            }
        }
        None
    }
}

proptest! {
    #[test]
    fn clock_matches_seed_manager(ops in collection::vec((0u8..3, 0u64..64), 1..300)) {
        let mut seed = SeedClock { bits: [false; CAP], resident: [false; CAP], hand: 0 };
        let mut p = PolicyKind::Clock.build(CAP);
        for (op, arg) in ops {
            let f = (arg % CAP as u64) as usize;
            match op {
                0 => {
                    if seed.resident[f] {
                        seed.bits[f] = true;
                        p.access(f as u32, arg, AppId::UNKNOWN);
                    } else {
                        seed.resident[f] = true;
                        seed.bits[f] = false;
                        p.insert(f as u32, arg, AppId::UNKNOWN);
                    }
                }
                1 => {
                    if seed.resident[f] {
                        seed.resident[f] = false;
                        p.remove(f as u32, arg);
                    }
                }
                _ => {
                    let want = seed.evict();
                    p.begin_scan();
                    let got = p.next_candidate(&mut ScanFilter::default());
                    prop_assert_eq!(got, want, "clock diverged from the seed algorithm");
                    if let Some(v) = got {
                        p.remove(v, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn exact_lru_matches_seed_manager(ops in collection::vec((0u8..3, 0u64..64), 1..300)) {
        // Seed reference: a simple MRU-front vector, relinked on every
        // access/insert — the observable contract of the seed's LruList.
        let mut order: Vec<u32> = Vec::new(); // index 0 = MRU, last = LRU
        let mut p = PolicyKind::ExactLru.build(CAP);
        for (op, arg) in ops {
            let f = (arg % CAP as u64) as u32;
            match op {
                0 => {
                    let resident = order.contains(&f);
                    order.retain(|&x| x != f);
                    order.insert(0, f);
                    if resident {
                        p.access(f, arg, AppId::UNKNOWN);
                    } else {
                        p.insert(f, arg, AppId::UNKNOWN);
                    }
                }
                1 => {
                    if order.contains(&f) {
                        order.retain(|&x| x != f);
                        p.remove(f, arg);
                    }
                }
                _ => {
                    let want = order.pop();
                    p.begin_scan();
                    let got = p.next_candidate(&mut ScanFilter::default());
                    prop_assert_eq!(got, want, "exact LRU diverged from the seed list");
                    if let Some(v) = got {
                        p.remove(v, 0);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Differential: the index-backed rankers vs snapshot-and-sort oracles.
// ---------------------------------------------------------------------

/// The five list-keeping rankers as they were before they kept an ordered
/// index: every `begin_scan` snapshots (LRU, 2Q, ARC) or sorts (LFU,
/// sharing-aware) the whole pool into a `Vec` and `next_candidate` walks
/// it. Slow and obviously right — the reference the incremental index must
/// match candidate for candidate.
mod oracle {
    use kcache_policy::{
        AppId, FrameTable, PolicyKind, RankedTable, ReplacementPolicy, ScanFilter,
    };
    use std::collections::VecDeque;

    /// A `scan` snapshot and the walk all five share.
    #[derive(Default)]
    struct Snapshot {
        scan: Vec<u32>,
        pos: usize,
    }

    impl Snapshot {
        fn reset(&mut self, order: Vec<u32>) {
            *self = Snapshot { scan: order, pos: 0 };
        }

        fn next(&mut self, table: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
            while self.pos < self.scan.len() {
                let f = self.scan[self.pos];
                self.pos += 1;
                if table.evictable_for(f, filter) {
                    return Some(f);
                }
            }
            None
        }
    }

    /// Touch order, least recent first (frames vacated since their last
    /// touch included, as the seed list had them; scans reject those).
    #[derive(Default)]
    struct Lru {
        order: Vec<u32>,
        snap: Snapshot,
    }

    impl Lru {
        fn touch(&mut self, frame: u32) {
            self.order.retain(|&f| f != frame);
            self.order.push(frame);
        }
    }

    impl ReplacementPolicy for Lru {
        fn on_insert(&mut self, _: &FrameTable, frame: u32, _: u64, _: AppId) {
            self.touch(frame);
        }
        fn on_access(&mut self, _: &FrameTable, frame: u32, _: u64, _: AppId) {
            self.touch(frame);
        }
        fn on_remove(&mut self, _: &FrameTable, frame: u32, _: u64) {
            self.order.retain(|&f| f != frame);
        }
        fn begin_scan(&mut self, _: &FrameTable) {
            self.snap.reset(self.order.clone());
        }
        fn next_candidate(&mut self, t: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
            self.snap.next(t, filter)
        }
        fn recency_ranking(&self, _: &FrameTable) -> Option<Vec<u32>> {
            Some(self.order.clone())
        }
    }

    struct Lfu {
        freq: Vec<u64>,
        last: Vec<u64>,
        tick: u64,
        snap: Snapshot,
    }

    impl Lfu {
        fn stamp(&mut self, frame: u32) {
            self.tick += 1;
            self.last[frame as usize] = self.tick;
        }

        fn sorted(&self, table: &FrameTable) -> Vec<u32> {
            let mut order = table.resident_frames();
            order.sort_by_key(|&f| (self.freq[f as usize], self.last[f as usize]));
            order
        }
    }

    impl ReplacementPolicy for Lfu {
        fn on_insert(&mut self, _: &FrameTable, frame: u32, _: u64, _: AppId) {
            self.freq[frame as usize] = 1;
            self.stamp(frame);
        }
        fn on_access(&mut self, _: &FrameTable, frame: u32, _: u64, _: AppId) {
            self.freq[frame as usize] = self.freq[frame as usize].saturating_add(1);
            self.stamp(frame);
        }
        fn on_remove(&mut self, _: &FrameTable, frame: u32, _: u64) {
            self.freq[frame as usize] = 0;
        }
        fn begin_scan(&mut self, t: &FrameTable) {
            self.snap.reset(self.sorted(t));
        }
        fn next_candidate(&mut self, t: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
            self.snap.next(t, filter)
        }
        fn recency_ranking(&self, t: &FrameTable) -> Option<Vec<u32>> {
            Some(self.sorted(t))
        }
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Loc {
        None,
        /// 2Q's A1in, ARC's T1.
        Once,
        /// 2Q's Am, ARC's T2.
        Hot,
    }

    struct TwoQ {
        loc: Vec<Loc>,
        a1in: VecDeque<u32>,
        am: VecDeque<u32>,
        a1out: VecDeque<u64>,
        kin: usize,
        kout: usize,
        snap: Snapshot,
    }

    impl TwoQ {
        fn detach(&mut self, frame: u32) {
            match self.loc[frame as usize] {
                Loc::Once => self.a1in.retain(|&f| f != frame),
                Loc::Hot => self.am.retain(|&f| f != frame),
                Loc::None => {}
            }
            self.loc[frame as usize] = Loc::None;
        }

        fn composed(&self) -> Vec<u32> {
            let (first, second) = if self.a1in.len() >= self.kin {
                (&self.a1in, &self.am)
            } else {
                (&self.am, &self.a1in)
            };
            first.iter().chain(second).copied().collect()
        }
    }

    impl ReplacementPolicy for TwoQ {
        fn on_access(&mut self, _: &FrameTable, frame: u32, _: u64, _: AppId) {
            if self.loc[frame as usize] == Loc::Hot {
                self.am.retain(|&f| f != frame);
                self.am.push_back(frame);
            }
        }
        fn on_insert(&mut self, _: &FrameTable, frame: u32, key: u64, _: AppId) {
            self.detach(frame);
            if let Some(pos) = self.a1out.iter().position(|&k| k == key) {
                self.a1out.remove(pos);
                self.am.push_back(frame);
                self.loc[frame as usize] = Loc::Hot;
            } else {
                self.a1in.push_back(frame);
                self.loc[frame as usize] = Loc::Once;
            }
        }
        fn on_remove(&mut self, _: &FrameTable, frame: u32, key: u64) {
            if self.loc[frame as usize] == Loc::Once {
                self.a1out.retain(|&k| k != key);
                self.a1out.push_back(key);
                while self.a1out.len() > self.kout {
                    self.a1out.pop_front();
                }
            }
            self.detach(frame);
        }
        fn begin_scan(&mut self, _: &FrameTable) {
            self.snap.reset(self.composed());
        }
        fn next_candidate(&mut self, t: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
            self.snap.next(t, filter)
        }
        fn recency_ranking(&self, _: &FrameTable) -> Option<Vec<u32>> {
            Some(self.composed())
        }
    }

    struct Arc {
        loc: Vec<Loc>,
        t1: VecDeque<u32>,
        t2: VecDeque<u32>,
        b1: VecDeque<u64>,
        b2: VecDeque<u64>,
        p: usize,
        snap: Snapshot,
    }

    impl Arc {
        fn detach(&mut self, frame: u32) {
            match self.loc[frame as usize] {
                Loc::Once => self.t1.retain(|&f| f != frame),
                Loc::Hot => self.t2.retain(|&f| f != frame),
                Loc::None => {}
            }
            self.loc[frame as usize] = Loc::None;
        }

        fn composed(&self) -> Vec<u32> {
            let (first, second) = if !self.t1.is_empty() && self.t1.len() > self.p {
                (&self.t1, &self.t2)
            } else {
                (&self.t2, &self.t1)
            };
            first.iter().chain(second).copied().collect()
        }
    }

    impl ReplacementPolicy for Arc {
        fn on_access(&mut self, _: &FrameTable, frame: u32, _: u64, _: AppId) {
            self.detach(frame);
            self.t2.push_back(frame);
            self.loc[frame as usize] = Loc::Hot;
        }
        fn on_insert(&mut self, table: &FrameTable, frame: u32, key: u64, _: AppId) {
            self.detach(frame);
            if let Some(pos) = self.b1.iter().position(|&k| k == key) {
                self.b1.remove(pos);
                let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
                self.p = (self.p + delta).min(table.capacity());
                self.t2.push_back(frame);
                self.loc[frame as usize] = Loc::Hot;
            } else if let Some(pos) = self.b2.iter().position(|&k| k == key) {
                self.b2.remove(pos);
                let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
                self.p = self.p.saturating_sub(delta);
                self.t2.push_back(frame);
                self.loc[frame as usize] = Loc::Hot;
            } else {
                self.t1.push_back(frame);
                self.loc[frame as usize] = Loc::Once;
            }
        }
        fn on_remove(&mut self, table: &FrameTable, frame: u32, key: u64) {
            let ghost = match self.loc[frame as usize] {
                Loc::Once => Some(&mut self.b1),
                Loc::Hot => Some(&mut self.b2),
                Loc::None => None,
            };
            if let Some(ghost) = ghost {
                ghost.push_back(key);
                while ghost.len() > table.capacity() {
                    ghost.pop_front();
                }
            }
            self.detach(frame);
        }
        fn begin_scan(&mut self, _: &FrameTable) {
            self.snap.reset(self.composed());
        }
        fn next_candidate(&mut self, t: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
            self.snap.next(t, filter)
        }
        fn recency_ranking(&self, _: &FrameTable) -> Option<Vec<u32>> {
            Some(self.composed())
        }
    }

    struct Sharing {
        apps: Vec<u64>,
        aged: Vec<u64>,
        last: Vec<u64>,
        tick: u64,
        snap: Snapshot,
    }

    fn app_bit(app: AppId) -> u64 {
        if app == AppId::UNKNOWN {
            0
        } else {
            1 << (app.0 % 63)
        }
    }

    impl Sharing {
        fn stamp(&mut self, frame: u32) {
            self.tick += 1;
            self.last[frame as usize] = self.tick;
        }
    }

    impl ReplacementPolicy for Sharing {
        fn consumes_app_mask(&self) -> bool {
            true
        }
        fn on_access(&mut self, _: &FrameTable, frame: u32, _: u64, app: AppId) {
            self.apps[frame as usize] |= app_bit(app);
            self.stamp(frame);
        }
        fn on_insert(&mut self, _: &FrameTable, frame: u32, _: u64, app: AppId) {
            self.apps[frame as usize] = app_bit(app);
            self.aged[frame as usize] = 0;
            self.stamp(frame);
        }
        fn on_remove(&mut self, _: &FrameTable, frame: u32, _: u64) {
            self.apps[frame as usize] = 0;
            self.aged[frame as usize] = 0;
        }
        fn begin_scan(&mut self, table: &FrameTable) {
            let mut order = table.resident_frames();
            for &f in &order {
                self.apps[f as usize] |= table.ref_words().take_app_mask(f);
            }
            order.sort_by_key(|&f| {
                (
                    (self.apps[f as usize] | self.aged[f as usize]).count_ones(),
                    self.last[f as usize],
                )
            });
            self.snap.reset(order);
        }
        fn next_candidate(&mut self, t: &FrameTable, filter: &mut ScanFilter) -> Option<u32> {
            self.snap.next(t, filter)
        }
        fn recency_ranking(&self, table: &FrameTable) -> Option<Vec<u32>> {
            let mut order = table.resident_frames();
            order.sort_by_key(|&f| {
                let mask =
                    self.apps[f as usize] | self.aged[f as usize] | table.ref_words().app_mask(f);
                (mask.count_ones(), self.last[f as usize])
            });
            Some(order)
        }
        fn epoch_tick(&mut self) {
            for f in 0..self.apps.len() {
                self.aged[f] = std::mem::take(&mut self.apps[f]);
            }
        }
    }

    /// A pool of `cap` frames ranked by `kind`'s oracle.
    pub fn build(kind: PolicyKind, cap: usize) -> RankedTable {
        let snap = Snapshot::default;
        let ranker: Box<dyn ReplacementPolicy> = match kind {
            PolicyKind::Clock => unreachable!("clock keeps no list; its oracle is SeedClock"),
            PolicyKind::ExactLru => Box::new(Lru::default()),
            PolicyKind::Lfu => {
                Box::new(Lfu { freq: vec![0; cap], last: vec![0; cap], tick: 0, snap: snap() })
            }
            PolicyKind::TwoQ => Box::new(TwoQ {
                loc: vec![Loc::None; cap],
                a1in: VecDeque::new(),
                am: VecDeque::new(),
                a1out: VecDeque::new(),
                kin: (cap / 4).max(1),
                kout: (cap / 2).max(1),
                snap: snap(),
            }),
            PolicyKind::Arc => Box::new(Arc {
                loc: vec![Loc::None; cap],
                t1: VecDeque::new(),
                t2: VecDeque::new(),
                b1: VecDeque::new(),
                b2: VecDeque::new(),
                p: 0,
                snap: snap(),
            }),
            PolicyKind::SharingAware => Box::new(Sharing {
                apps: vec![0; cap],
                aged: vec![0; cap],
                last: vec![0; cap],
                tick: 0,
                snap: snap(),
            }),
        };
        RankedTable::with_ranker(cap, ranker)
    }
}

/// `RankedTable::migrate(kind)` on the oracle side, which has no
/// `PolicyKind` to rebuild from: a fresh oracle pool fed the residency in
/// the outgoing ranking's order, pins and app-touch masks carried over.
fn migrate_oracle(old: &RankedTable, kind: PolicyKind) -> RankedTable {
    let t = old.table();
    let mut fresh = oracle::build(kind, t.capacity());
    for f in old.recency_ranking().expect("every oracle exports a ranking") {
        if t.is_resident(f) {
            fresh.insert(f, t.key_of(f), t.owner_of(f));
            fresh.table().set_pinned(f, t.is_pinned(f));
        }
    }
    // The ref words belong to the table, vacated frames' included.
    for f in 0..t.capacity() as u32 {
        for bit in (0..63).filter(|b| t.ref_words().app_mask(f) >> b & 1 == 1) {
            fresh.table().ref_words().touch(f, AppId(bit));
        }
    }
    fresh
}

/// One full scan of both pools: identical candidate sequences, and (on the
/// way) identical non-consuming rankings that agree with the scan.
fn scan_both(
    kind: PolicyKind,
    new: &mut RankedTable,
    old: &mut RankedTable,
    filter: ScanFilter,
) -> Vec<u32> {
    let ranking = new.recency_ranking().expect("every built-in exports a ranking");
    prop_assert_eq!(&ranking, &old.recency_ranking().unwrap(), "{} ranking diverged", kind);
    new.begin_scan();
    old.begin_scan();
    let mut offered = Vec::new();
    let (mut new_filter, mut old_filter) = (filter, filter);
    loop {
        let (a, b) = (new.next_candidate(&mut new_filter), old.next_candidate(&mut old_filter));
        prop_assert_eq!(a, b, "{} candidate order diverged after {:?}", kind, offered);
        prop_assert_eq!(new_filter, old_filter, "{} examined another number of frames", kind);
        let Some(f) = a else { break };
        offered.push(f);
        prop_assert!(offered.len() <= new.table().capacity(), "{kind}: scan did not terminate");
    }
    let mut walk = filter;
    let from_ranking: Vec<u32> =
        ranking.into_iter().filter(|&f| new.table().evictable_for(f, &mut walk)).collect();
    prop_assert_eq!(&offered, &from_ranking, "{} ranking is not what the scan offers", kind);
    prop_assert_eq!(walk, new_filter, "{} a full scan examines every frame the filter would", kind);
    offered
}

/// Drive the index-backed `kind` and its oracle through one op sequence.
/// Every key lives in one frame only (`frame = key % cap`), as under the
/// manager; accesses may hit vacated frames (the replay race).
fn drive_order(kind: PolicyKind, cap: usize, ops: &[(u8, u64)]) {
    let mut new = kind.build(cap);
    let mut old = oracle::build(kind, cap);
    for &(op, arg) in ops {
        let frame = (arg % cap as u64) as u32;
        let app = if arg % 5 == 4 { AppId::UNKNOWN } else { AppId((arg % 3) as u32) };
        let resident = new.table().is_resident(frame);
        let key = new.table().key_of(frame);
        match op {
            0..=2 if resident => {
                new.access(frame, key, app);
                old.access(frame, key, app);
            }
            0..=2 => {
                new.insert(frame, arg, app);
                old.insert(frame, arg, app);
            }
            3 if resident => {
                new.remove(frame, key);
                old.remove(frame, key);
            }
            // A hit replayed after its frame was vacated.
            3 => {
                new.access(frame, arg, app);
                old.access(frame, arg, app);
            }
            4 if resident => {
                let pinned = !new.table().is_pinned(frame);
                new.table().set_pinned(frame, pinned);
                old.table().set_pinned(frame, pinned);
            }
            // The manager's lock-free half of a hit.
            4 | 5 => {
                new.table().ref_words().touch(frame, app);
                old.table().ref_words().touch(frame, app);
            }
            6 if arg % 4 == 0 => {
                new.epoch_tick();
                old.epoch_tick();
            }
            6 if arg % 4 == 1 => {
                new.migrate(kind);
                old = migrate_oracle(&old, kind);
            }
            _ => {
                let filter = ScanFilter { owner: (op == 7).then_some(app), examined: 0 };
                let offered = scan_both(kind, &mut new, &mut old, filter);
                // The manager takes the first workable candidate.
                if let Some(&victim) = offered.first() {
                    let key = new.table().key_of(victim);
                    new.remove(victim, key);
                    old.remove(victim, key);
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn index_backed_rankers_offer_the_oracles_order(
        ops in collection::vec((0u8..9, 0u64..4096), 1..400),
    ) {
        for kind in PolicyKind::ALL.into_iter().filter(|&k| k != PolicyKind::Clock) {
            for cap in [8, 64] {
                drive_order(kind, cap, &ops);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Scans under mutation: hooks between two `next_candidate` calls.
// ---------------------------------------------------------------------

/// One scan with arbitrary hooks interleaved between its `next_candidate`
/// calls — what the manager's drop-the-lock-between-candidates discipline
/// allows. The scan never offers a frame the table would not let go at
/// that moment, ends within `2 × capacity + ops` calls, and a hook on one
/// frame never costs another its turn: every frame no hook touched since
/// the scan began is offered (exactly once, unless a clock hand laps it).
fn drive_mid_scan(kind: &str, mut p: RankedTable, ops: &[(u8, u64)]) {
    let cap = p.table().capacity();
    for f in 0..cap as u32 {
        p.insert(f, f as u64, AppId(f % 3));
    }
    let owner = ops.first().and_then(|&(_, arg)| (arg % 2 == 0).then_some(AppId((arg % 3) as u32)));
    let filter = || ScanFilter { owner, ..ScanFilter::default() };
    let mut calls = 0usize;
    // Per frame: offers since the scan began, `None` once a hook touched it.
    let mut offers = vec![Some(0u32); cap];
    let mut ask = |p: &mut RankedTable, offers: &mut Vec<Option<u32>>| {
        calls += 1;
        prop_assert!(calls <= 2 * cap + ops.len(), "{kind}: scan did not end in {calls} calls");
        let got = p.next_candidate(&mut filter());
        if let Some(f) = got {
            prop_assert!(
                p.table().evictable_for(f, &mut filter()),
                "{kind}: offered unevictable {f}"
            );
            offers[f as usize] = offers[f as usize].map(|n| n + 1);
        }
        got
    };
    p.begin_scan();
    for &(op, arg) in ops {
        let frame = (arg % cap as u64) as u32;
        let app = AppId((arg % 3) as u32);
        let resident = p.table().is_resident(frame);
        let key = p.table().key_of(frame);
        match op {
            0 if resident => p.access(frame, key, app),
            0 => p.insert(frame, arg, app),
            1 if resident => p.remove(frame, key),
            1 => p.access(frame, arg, app),
            2 => {
                let pinned = resident && !p.table().is_pinned(frame);
                p.table().set_pinned(frame, pinned);
            }
            // Aging re-ranks every frame; another thread's scan starting
            // over the shared cursor restarts this one.
            3 if arg % 8 < 2 => {
                if arg % 8 == 0 {
                    p.epoch_tick();
                    offers.fill(None);
                } else {
                    p.begin_scan();
                    offers.fill(Some(0));
                }
                continue;
            }
            _ => {
                ask(&mut p, &mut offers);
                continue;
            }
        }
        offers[frame as usize] = None;
    }
    while ask(&mut p, &mut offers).is_some() {}
    for (f, n) in
        offers.iter().enumerate().filter(|(f, _)| p.table().evictable_for(*f as u32, &mut filter()))
    {
        let lapped = kind == "clock" && *n == Some(2);
        prop_assert!(
            matches!(n, None | Some(1)) || lapped,
            "{kind}: frame {f} offered {n:?} times"
        );
    }
}

proptest! {
    #[test]
    fn scans_survive_hooks_between_candidates(
        ops in collection::vec((0u8..6, 0u64..1024), 1..200),
    ) {
        for cap in [CAP, 64] {
            for kind in PolicyKind::ALL {
                drive_mid_scan(kind.name(), kind.build(cap), &ops);
            }
            drive_mid_scan("test-fifo", RankedTable::with_ranker(cap, Box::new(Fifo::default())), &ops);
        }
    }
}
