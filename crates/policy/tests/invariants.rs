//! Property tests over every policy — the six built-ins and a test-local
//! seventh written against the required hooks only — plus differential
//! tests pinning the extracted Clock/ExactLru implementations to the seed
//! buffer manager's behavior.

use kcache_policy::{AccessEvent, AppId, FrameTable, PolicyKind, RankedTable, ReplacementPolicy};
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
    fn next_candidate(&mut self, table: &FrameTable, filter: Option<AppId>) -> Option<u32> {
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
                    m.resident[frame as usize] = false;
                    m.pinned[frame as usize] = false;
                    m.owner_of[frame as usize] = AppId::UNKNOWN;
                    policy.remove(frame, m.key_of[frame as usize]);
                }
            }
            2 => {
                // Pin toggle (flush in flight / acknowledged).
                if m.resident[frame as usize] {
                    let p = !m.pinned[frame as usize];
                    m.pinned[frame as usize] = p;
                    policy.table_mut().set_pinned(frame, p);
                }
            }
            3 => {
                // Owner-filtered eviction scan (the partition-local path the
                // quota-enforcing manager runs): every candidate must be
                // owned by the filtered app on top of the usual rules, and
                // the scan must find a victim iff the app owns one.
                policy.begin_scan();
                let got = policy.next_candidate(Some(app));
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
                    m.resident[c as usize] = false;
                    m.owner_of[c as usize] = AppId::UNKNOWN;
                    policy.remove(c, m.key_of[c as usize]);
                }
                prop_assert!(
                    got.is_some() || !m.any_evictable_owned(app),
                    "{kind}: filtered scan missed an evictable frame owned by app {app:?}"
                );
                let mut offered = 0usize;
                while let Some(c) = policy.next_candidate(Some(app)) {
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
            }
            _ => {
                // Eviction scan: every candidate must be in-pool, resident,
                // and unpinned; the scan must terminate; and when an
                // evictable frame exists the policy must find one.
                policy.begin_scan();
                let mut victim = None;
                if let Some(c) = policy.next_candidate(None) {
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
                    m.resident[v as usize] = false;
                    policy.remove(v, m.key_of[v as usize]);
                }
                // Exhausting the rest of the scan must terminate and keep
                // honoring the same candidate rules.
                let mut offered = 0usize;
                while let Some(c) = policy.next_candidate(None) {
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

/// Drive two instances of one policy through the same access stream — one
/// applying every event eagerly at access time (a drain batch of one,
/// exactly the manager's eager mode), one buffering events and draining
/// them only at decision points (scans) and checkpoints — and require
/// identical stats, per-app ledgers, and candidate sequences. This is the
/// policy-level half of the drained-equals-eager contract; the producer
/// obligation (store the ref word at event time) is honored for both.
fn drive_drain(kind: &str, make: impl Fn() -> RankedTable, ops: &[(u8, u64)]) {
    let mut eager = make();
    let mut drained = make();
    let mut pending: Vec<AccessEvent> = Vec::new();
    let mut resident = [false; CAP];
    let mut key_of = [0u64; CAP];
    for &(op, arg) in ops {
        let frame = (arg % CAP as u64) as u32;
        let app = AppId((arg % 3) as u32);
        let emit = |eager: &mut RankedTable, pending: &mut Vec<AccessEvent>, ev: AccessEvent| {
            // The producer contract: ref words stored at access time on
            // BOTH sides (the manager does this lock-free in either mode).
            if matches!(ev.kind, kcache_policy::AccessKind::Hit | kcache_policy::AccessKind::Touch)
            {
                eager.table().ref_words().touch(ev.frame, ev.app);
                drained.table().ref_words().touch(ev.frame, ev.app);
            }
            eager.drain(std::slice::from_ref(&ev));
            pending.push(ev);
        };
        match op {
            0 => {
                if resident[frame as usize] {
                    emit(
                        &mut eager,
                        &mut pending,
                        AccessEvent::hit(frame, key_of[frame as usize], app),
                    );
                } else {
                    resident[frame as usize] = true;
                    key_of[frame as usize] = arg;
                    // Inserts are eager on both sides, after a drain —
                    // the manager's note_insert discipline.
                    drained.drain(&pending);
                    pending.clear();
                    eager.insert(frame, arg, app);
                    drained.insert(frame, arg, app);
                }
            }
            // A hit/touch may target a frame that was vacated since the
            // access (the manager's benign race class) — policies must
            // treat it identically on both paths.
            1 => {
                emit(&mut eager, &mut pending, AccessEvent::hit(frame, key_of[frame as usize], app))
            }
            2 => emit(
                &mut eager,
                &mut pending,
                AccessEvent::touch(frame, key_of[frame as usize], app),
            ),
            3 => emit(&mut eager, &mut pending, AccessEvent::miss(app)),
            4 => emit(&mut eager, &mut pending, AccessEvent::probe_hit(app)),
            _ => {
                // Decision point: drain, then both sides run one eviction
                // scan and must offer the same full candidate sequence.
                drained.drain(&pending);
                pending.clear();
                eager.begin_scan();
                drained.begin_scan();
                let mut first = true;
                loop {
                    let (a, b) = (eager.next_candidate(None), drained.next_candidate(None));
                    prop_assert_eq!(a, b, "{} candidate order diverged", kind);
                    let Some(v) = a else { break };
                    if first {
                        // The manager takes the first workable candidate.
                        first = false;
                        resident[v as usize] = false;
                        eager.remove(v, key_of[v as usize]);
                        drained.remove(v, key_of[v as usize]);
                    }
                }
            }
        }
    }
    drained.drain(&pending);
    prop_assert_eq!(eager.table().stats, drained.table().stats, "{} stats diverged", kind);
    prop_assert_eq!(
        eager.table().app_usage(),
        drained.table().app_usage(),
        "{} app ledger diverged",
        kind
    );
    prop_assert_eq!(
        eager.table().resident_frames(),
        drained.table().resident_frames(),
        "{} residency diverged",
        kind
    );
}

proptest! {
    #[test]
    fn drained_batches_match_eager_application(
        ops in collection::vec((0u8..6, 0u64..1024), 1..250),
    ) {
        for kind in PolicyKind::ALL {
            drive_drain(kind.name(), || kind.build(CAP), &ops);
        }
        drive_drain("test-fifo", fifo, &ops);
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
                    let got = p.next_candidate(None);
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
                    let got = p.next_candidate(None);
                    prop_assert_eq!(got, want, "exact LRU diverged from the seed list");
                    if let Some(v) = got {
                        p.remove(v, 0);
                    }
                }
            }
        }
    }
}
