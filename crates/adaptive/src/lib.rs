//! # kcache-adaptive — the online meta-policy subsystem
//!
//! The `kcache-policy` crate makes eviction pluggable; this crate makes
//! the *choice* of policy a runtime decision. An [`AdaptivePolicy`] is the
//! evidence state of a feedback loop over a set of candidate
//! [`PolicyKind`]s — it sits beside the live
//! [`RankedTable`](kcache_policy::RankedTable), never in front of it:
//!
//! * **ghost caches** ([`GhostCache`]) — every candidate is simulated,
//!   metadata-only, against the same access stream the live policy
//!   serves; each ghost's hit/miss ledger says what that candidate's hit
//!   rate would have been. From 128 frames up the ghosts are hash-sampled
//!   (SHARDS): all of them replay the same 1/R of the keys in 1/R of the
//!   frames ([`ghost::sample_shift`]), so their ledgers count sampled
//!   accesses only, and compare like for like,
//! * an **epoch controller** — every epoch boundary (driven by the buffer
//!   manager off its access counter) the controller compares ghost hit
//!   rates and, when another candidate beats the live one by more than a
//!   hysteresis margin, switches the live policy — a fresh ranker is
//!   built over the same `FrameTable`
//!   ([`RankedTable::migrate`](kcache_policy::RankedTable::migrate)), so
//!   not a single block is dropped by the switch,
//! * a **quota tuner** — per-application ghost lists remember each app's
//!   recently evicted keys; a re-reference to a remembered key is a
//!   *refault*: a hit the app's partition was too small to keep. Refault
//!   counts are marginal-utility estimates, and each epoch the tuner
//!   recommends moving a few frames of quota from the app that would lose
//!   the least to the app that would gain the most. The buffer manager —
//!   owner of the charge ledger — applies the move.
//!
//! An epoch boundary is one call, [`AdaptivePolicy::end_epoch`], which the
//! buffer manager makes once per boundary under the policy lock of its one
//! shard: the pure rules [`decide_switch`] and [`decide_quota_move`]
//! decide over the closing epoch's ledgers, a switch migrates the live
//! table, and each decision is logged and returned as one record.
//!
//! With a single candidate the live cache behaves exactly like the static
//! policy: the ghosts observe but never influence, the controller has
//! nothing to switch to, and the tuner only acts on quota'd apps — pinned
//! byte-for-byte by differential tests.

pub mod ghost;

pub use ghost::GhostCache;

use kcache_policy::{
    AdaptiveStats, AppId, GhostLists, GhostRate, PolicyKind, QuotaMoveRecord, RankedTable,
    SwitchRecord,
};
use std::collections::BTreeMap;

/// The epoch controller's switch rule over per-candidate epoch ghost
/// ledgers `(kind, hits, accesses)`: the best-rated candidate wins a
/// switch when it is not the live one and beats the live rate by more
/// than `hysteresis`. Returns the switch, as epoch `epoch` logs it, when
/// one is warranted. Candidates with no traffic this epoch have no rate
/// and cannot win (or be compared against); ties keep the earliest
/// candidate in ledger order.
pub fn decide_switch(
    epoch: u64,
    ledgers: &[(PolicyKind, u64, u64)],
    live: PolicyKind,
    hysteresis: f64,
) -> Option<SwitchRecord> {
    let rate = |h: u64, a: u64| if a == 0 { None } else { Some(h as f64 / a as f64) };
    let live_rate =
        ledgers.iter().find(|&&(k, _, _)| k == live).and_then(|&(_, h, a)| rate(h, a))?;
    let mut best: Option<(PolicyKind, f64)> = None;
    for &(k, h, a) in ledgers {
        if let Some(r) = rate(h, a) {
            if best.is_none_or(|(_, br)| r > br) {
                best = Some((k, r));
            }
        }
    }
    let (to, to_rate) = best?;
    (to != live && to_rate > live_rate + hysteresis).then_some(SwitchRecord {
        epoch,
        from: live,
        to,
        from_rate: live_rate,
        to_rate,
    })
}

/// The quota tuner's transfer rule: move up to `quota_step` frames of
/// quota from the app with the fewest epoch refaults to the app with the
/// most, clamped so the loser keeps one frame and the winner never
/// exceeds `capacity` — in full or not at all. `quotas` is the
/// current effective quota per app (ascending app id, as the manager
/// reports it); `refaults` the per-app epoch refault evidence (missing
/// apps count zero). The move is returned as epoch `epoch` logs it.
pub fn decide_quota_move(
    epoch: u64,
    quotas: &[(AppId, usize)],
    refaults: &[(AppId, u64)],
    capacity: usize,
    quota_step: usize,
) -> Option<QuotaMoveRecord> {
    if quotas.len() < 2 {
        return None;
    }
    let rf = |app: AppId| refaults.iter().find(|&&(a, _)| a == app).map_or(0, |&(_, n)| n);
    // Winner: most refaults, smaller quota on ties (the squeezed app
    // gains first). Loser: fewest refaults, larger quota on ties (a
    // drained app is not squeezed further). Both deterministic over the
    // ascending-app-id slice.
    let &(winner, wq) = quotas.iter().max_by_key(|&&(a, q)| (rf(a), std::cmp::Reverse(q)))?;
    let &(loser, lq) = quotas
        .iter()
        .filter(|&&(a, _)| a != winner)
        .min_by_key(|&&(a, q)| (rf(a), std::cmp::Reverse(q)))?;
    if rf(winner) <= rf(loser) {
        return None;
    }
    // Clamp to what both sides can honor: the loser keeps at least one
    // frame and the winner never exceeds the pool — a transfer must be
    // applicable in full or not proposed at all (a half-applied pair
    // would leak quota).
    let frames = quota_step.min(lq.saturating_sub(1)).min(capacity.saturating_sub(wq));
    (frames > 0).then_some(QuotaMoveRecord {
        epoch,
        from: loser,
        to: winner,
        frames,
        from_refaults: rf(loser),
        to_refaults: rf(winner),
    })
}

/// Tunables of the meta-policy (the `adaptive` section of experiment
/// configs lowers to this).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Candidate policies; the first is the initial live policy.
    pub candidates: Vec<PolicyKind>,
    /// Minimum ghost hit-rate advantage (absolute, e.g. 0.02 = 2 points)
    /// a challenger needs over the live candidate to trigger a switch —
    /// the hysteresis that stops rate noise from thrashing the policy.
    pub hysteresis: f64,
    /// Frames of quota moved per epoch by the marginal-utility quota
    /// tuner (which runs only when the manager has per-app quotas).
    pub quota_step: usize,
}

impl AdaptiveConfig {
    /// Candidates with the default controller settings (2-point
    /// hysteresis, 8-frame steps).
    pub fn new(candidates: impl IntoIterator<Item = PolicyKind>) -> AdaptiveConfig {
        AdaptiveConfig {
            candidates: candidates.into_iter().collect(),
            hysteresis: 0.02,
            quota_step: 8,
        }
    }

    /// All six built-in policies as candidates.
    pub fn all_candidates() -> AdaptiveConfig {
        AdaptiveConfig::new(PolicyKind::ALL)
    }
}

/// The meta-policy's evidence state. See the crate docs for the control
/// loop. It ranks nothing and owns no frames: the buffer manager keeps it
/// beside the live [`RankedTable`](kcache_policy::RankedTable) under the
/// same policy lock, shows it the access stream
/// ([`observe`](Self::observe)) and the capacity evictions
/// ([`remember_eviction`](Self::remember_eviction)), and at each epoch
/// boundary hands it the live table and the quotas
/// ([`end_epoch`](Self::end_epoch)).
pub struct AdaptivePolicy {
    cfg: AdaptiveConfig,
    /// Index (into `cfg.candidates` / `ghosts`) of the live policy.
    live_idx: usize,
    ghosts: Vec<GhostCache>,
    /// Per application, one FIFO of the keys it most recently lost to
    /// eviction, at most `ghost_cap` of them: the quota tuner's memory.
    app_ghosts: BTreeMap<u32, GhostLists>,
    /// Per application, re-references this epoch to a key its FIFO
    /// remembers — the hits a bigger quota would have kept. Apps with
    /// none are missing.
    refaults: Vec<(AppId, u64)>,
    /// Per-application ghost-list capacity in keys: the cache capacity —
    /// remember about one partition's worth of evictions.
    ghost_cap: usize,
    /// The owner has per-app quotas, so the tuner's refault evidence is
    /// worth keeping (a shared pool gives the tuner nothing to move).
    tune_quotas: bool,
    stats: AdaptiveStats,
}

impl AdaptivePolicy {
    /// Evidence for `cfg.candidates` over a pool of `capacity` frames;
    /// `tune_quotas` says whether the pool has per-app quotas for the
    /// tuner to move (without them no refault evidence is kept).
    /// Duplicate candidates are dropped (first occurrence wins — a
    /// duplicate would simulate the same kind twice and double-count its
    /// ghost ledger). Panics on an empty candidate list — an adaptive
    /// policy with nothing to adapt between is a config bug.
    pub fn new(capacity: usize, mut cfg: AdaptiveConfig, tune_quotas: bool) -> AdaptivePolicy {
        assert!(!cfg.candidates.is_empty(), "adaptive policy with no candidates");
        assert!(capacity > 0, "adaptive policy over empty frame pool");
        let mut seen = Vec::new();
        cfg.candidates.retain(|k| {
            let fresh = !seen.contains(k);
            if fresh {
                seen.push(*k);
            }
            fresh
        });
        let ghosts = cfg.candidates.iter().map(|&k| GhostCache::sampled(k, capacity)).collect();
        AdaptivePolicy {
            cfg,
            live_idx: 0,
            ghosts,
            app_ghosts: BTreeMap::new(),
            refaults: Vec::new(),
            ghost_cap: capacity,
            tune_quotas,
            stats: AdaptiveStats::default(),
        }
    }

    /// The candidate list (config echo).
    pub fn candidates(&self) -> &[PolicyKind] {
        &self.cfg.candidates
    }

    /// The candidate that should be ranking the live cache right now (the
    /// first one until an [`end_epoch`](Self::end_epoch) switches).
    pub fn live(&self) -> PolicyKind {
        self.cfg.candidates[self.live_idx]
    }

    /// Feed one access of the live stream — a hit, a recency touch, or
    /// the install that ends a miss — to every ghost (which replays it
    /// when the key is in the sample) and the tuner (which sees every
    /// key). Probe hits and bare misses are lookups, not uses: they reach
    /// no ghost.
    pub fn observe(&mut self, key: u64, app: AppId) {
        for g in &mut self.ghosts {
            g.access(key, app);
        }
        if self.tune_quotas && app != AppId::UNKNOWN {
            let remembered = self.app_ghosts.get_mut(&app.0).and_then(|g| g.forget(key));
            if remembered.is_some() {
                match self.refaults.iter_mut().find(|(a, _)| *a == app) {
                    Some((_, n)) => *n += 1,
                    None => self.refaults.push((app, 1)),
                }
            }
        }
    }

    /// `owner` lost block `key` to **capacity pressure**: a later
    /// re-reference by the same app is a refault. Only the eviction path
    /// calls this — a coherence invalidation says nothing about partition
    /// sizing, so it never enters the refault memory.
    pub fn remember_eviction(&mut self, owner: AppId, key: u64) {
        if self.tune_quotas && owner != AppId::UNKNOWN {
            let cap = self.ghost_cap;
            let list = self.app_ghosts.entry(owner.0).or_insert_with(|| GhostLists::new(1, cap));
            list.remember(key, 0);
        }
    }

    /// Close the epoch: the switch rule over the candidates' epoch ghost
    /// ledgers, the quota rule over `quotas` (every quota'd app's current
    /// quota, ascending by app id; empty for a shared pool) and the epoch's
    /// refaults, a switch migrating `live` — the live table this evidence
    /// sits beside, whose capacity is the pool the quotas divide. Each
    /// decision is logged and returned as one record; a quota move is the
    /// caller's to apply to its charge ledger. The caller ages `live`
    /// first, so a switch lands on consistently aged metadata.
    pub fn end_epoch(
        &mut self,
        live: &mut RankedTable,
        quotas: &[(AppId, usize)],
    ) -> (Option<SwitchRecord>, Option<QuotaMoveRecord>) {
        self.stats.epochs += 1;
        let epoch = self.stats.epochs;
        let ledgers: Vec<_> = self
            .ghosts
            .iter()
            .map(|g| {
                let (hits, accesses) = g.epoch_counts();
                (g.kind(), hits, accesses)
            })
            .collect();
        let switch = decide_switch(epoch, &ledgers, self.live(), self.cfg.hysteresis);
        let capacity = live.table().capacity();
        let quota_move =
            decide_quota_move(epoch, quotas, &self.refaults, capacity, self.cfg.quota_step);
        if let Some(s) = switch {
            self.live_idx =
                self.cfg.candidates.iter().position(|&k| k == s.to).expect("a ghost's kind");
            live.migrate(s.to);
            self.stats.switches += 1;
            self.stats.switch_log.push(s);
        }
        if let Some(mv) = quota_move {
            self.stats.quota_moves += 1;
            self.stats.quota_log.push(mv);
        }
        // Rate ledgers and refault evidence both restart (lifetime
        // counters keep accumulating).
        for g in &mut self.ghosts {
            g.end_epoch();
        }
        for (_, n) in &mut self.refaults {
            *n = 0;
        }
        (switch, quota_move)
    }

    /// Lifetime ghost ledgers, one per candidate (candidate order), over
    /// the sampled keys.
    pub fn ghost_rates(&self) -> Vec<GhostRate> {
        self.ghosts
            .iter()
            .map(|g| {
                let (hits, misses) = g.lifetime();
                GhostRate { kind: g.kind(), hits, misses }
            })
            .collect()
    }

    /// The observability ledger: epoch/switch counts and logs, lifetime
    /// ghost rates, the quota-move log.
    pub fn stats(&self) -> AdaptiveStats {
        AdaptiveStats { ghost_rates: self.ghost_rates(), ..self.stats.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcache_policy::ScanFilter;

    /// The live table and its evidence, composed the way a buffer-manager
    /// shard composes them.
    struct Sim {
        live: RankedTable,
        ad: AdaptivePolicy,
    }

    impl Sim {
        fn new(capacity: usize, cfg: AdaptiveConfig) -> Sim {
            let ad = AdaptivePolicy::new(capacity, cfg, true);
            Sim { live: ad.live().build(capacity), ad }
        }

        /// Miss-insert unknown keys into the next frame a scan would
        /// free, hit known ones.
        fn feed(&mut self, keys: &[u64], app: AppId) {
            for &k in keys {
                let t = self.live.table();
                let resident = t.resident_entries();
                if let Some(&(f, _, _)) = resident.iter().find(|&&(_, rk, _)| rk == k) {
                    self.ad.observe(k, app);
                    self.live.access(f, k, app);
                    continue;
                }
                let frame = if resident.len() < t.capacity() {
                    (0..t.capacity() as u32).find(|&f| !t.is_resident(f)).unwrap()
                } else {
                    self.live.begin_scan();
                    let v = self.live.next_candidate(&mut ScanFilter::default()).unwrap();
                    let (owner, old) = (self.live.table().owner_of(v), self.live.table().key_of(v));
                    self.ad.remember_eviction(owner, old);
                    self.live.remove(v, old);
                    v
                };
                self.ad.observe(k, app);
                self.live.insert(frame, k, app);
            }
        }

        /// One epoch boundary as the buffer manager runs it: age the live
        /// table, then close the epoch. Returns the quota transfer.
        fn run_epoch(&mut self, quotas: &[(AppId, usize)]) -> Option<QuotaMoveRecord> {
            self.live.epoch_tick();
            self.ad.end_epoch(&mut self.live, quotas).1
        }
    }

    #[test]
    fn switches_to_the_better_candidate() {
        // LFU keeps a hot set under heavy skew that clock churns through.
        let mut p = Sim::new(4, AdaptiveConfig::new([PolicyKind::Clock, PolicyKind::ExactLru]));
        assert_eq!(p.live.kind(), Some(PolicyKind::Clock));
        // A strict-LRU-friendly cyclic pattern over 5 keys with
        // re-references: exact LRU's ghost should outscore clock's
        // eventually on a reuse-heavy stream.
        let mut stream = Vec::new();
        for i in 0..200u64 {
            stream.push(i % 3); // tight hot set: both do well
            stream.push(3 + (i % 7)); // churn
        }
        p.feed(&stream, AppId(0));
        p.run_epoch(&[]);
        let stats = p.ad.stats();
        assert_eq!(stats.epochs, 1);
        // Whatever the verdict, the ledger must be consistent.
        assert_eq!(stats.ghost_rates.len(), 2);
        for g in &stats.ghost_rates {
            assert_eq!(g.hits + g.misses, stream.len() as u64, "{:?}", g.kind);
        }
        assert_eq!(p.live.kind(), Some(p.ad.live()), "the live table follows the verdict");
    }

    #[test]
    fn single_candidate_never_switches() {
        let mut p = Sim::new(8, AdaptiveConfig::new([PolicyKind::Arc]));
        p.feed(&(0..100u64).map(|i| i % 13).collect::<Vec<_>>(), AppId(0));
        for _ in 0..10 {
            assert!(p.run_epoch(&[]).is_none());
        }
        assert_eq!(p.ad.stats().switches, 0);
        assert_eq!(p.live.kind(), Some(PolicyKind::Arc));
    }

    #[test]
    fn switch_preserves_residency() {
        let mut p = Sim::new(
            4,
            AdaptiveConfig {
                hysteresis: 0.0,
                ..AdaptiveConfig::new([PolicyKind::Clock, PolicyKind::ExactLru, PolicyKind::Lfu])
            },
        );
        p.feed(&[1, 2, 3, 4, 1, 2, 1, 2, 5, 6, 1, 2, 7, 8, 1, 2], AppId(0));
        let before = p.live.table().resident_entries();
        p.run_epoch(&[]);
        assert_eq!(p.live.table().resident_entries(), before, "switch must not move blocks");
    }

    #[test]
    fn tuner_moves_quota_toward_the_refaulting_app() {
        let mut p = Sim::new(4, AdaptiveConfig::new([PolicyKind::ExactLru]));
        let (victim, scanner) = (AppId(0), AppId(1));
        // The victim's hot keys keep getting evicted and re-referenced
        // (refaults); the scanner streams fresh keys it never revisits.
        let mut scan_key = 1000u64;
        for round in 0..50u64 {
            p.feed(&[round % 2], victim);
            p.feed(&[scan_key, scan_key + 1, scan_key + 2], scanner);
            scan_key += 3;
        }
        let mv = p.run_epoch(&[(victim, 2), (scanner, 2)]).expect("tuner must move quota");
        assert_eq!((mv.to, mv.from), (victim, scanner));
        assert_eq!(mv.frames, 1, "scanner quota must shrink, never below one frame");
        let stats = p.ad.stats();
        assert_eq!(stats.quota_moves, 1);
        assert_eq!(stats.quota_log, [mv], "the move returned is the move logged");
    }

    #[test]
    fn duplicate_candidates_are_dropped() {
        let p = AdaptivePolicy::new(
            4,
            AdaptiveConfig::new([PolicyKind::Clock, PolicyKind::Clock, PolicyKind::Lfu]),
            false,
        );
        assert_eq!(p.candidates(), &[PolicyKind::Clock, PolicyKind::Lfu]);
        assert_eq!(p.stats().ghost_rates.len(), 2, "one ghost per kind");
    }

    #[test]
    fn tuner_never_pushes_a_quota_past_the_pool() {
        // The winner already holds (nearly) the whole pool: the step is
        // clamped to what the pool can honor, and when that is zero no
        // transfer is proposed at all (a half-applicable pair would leak
        // quota).
        let mut p = Sim::new(4, AdaptiveConfig::new([PolicyKind::ExactLru]));
        let (hot, cold) = (AppId(0), AppId(1));
        for round in 0..30u64 {
            p.feed(&[round % 5], hot); // 5-key set over 4 frames: refaults
            p.feed(&[100 + round], cold);
        }
        let mv = p.run_epoch(&[(hot, 4), (cold, 3)]);
        assert!(mv.is_none(), "winner at capacity: no transfer, got {mv:?}");
        assert_eq!(p.ad.stats().quota_moves, 0);
        // One frame of headroom: the step clamps to exactly that.
        for round in 0..30u64 {
            p.feed(&[round % 5], hot);
        }
        let mv = p.run_epoch(&[(hot, 3), (cold, 3)]).expect("one frame of headroom");
        assert_eq!((mv.to, 3 + mv.frames), (hot, 4), "clamped to the pool");
        assert_eq!((mv.from, 3 - mv.frames), (cold, 2), "loser gives what the winner can take");
    }

    #[test]
    fn invalidations_do_not_count_as_refaults() {
        let mut p = Sim::new(4, AdaptiveConfig::new([PolicyKind::ExactLru]));
        let app = AppId(0);
        // Install a block, drop it via coherence invalidation (a removal
        // nobody remembers), re-read it: no refault — the partition was
        // not too small, the block was superseded.
        for round in 0..10u64 {
            p.feed(&[round], app);
            let (frame, key, _) =
                *p.live.table().resident_entries().iter().find(|&&(_, k, _)| k == round).unwrap();
            p.live.remove(frame, key);
            p.feed(&[round], app);
        }
        let mv = p.run_epoch(&[(app, 2), (AppId(1), 2)]);
        assert!(mv.is_none(), "invalidation churn must not look like quota pressure");
        assert_eq!(p.ad.stats().quota_moves, 0);
    }

    #[test]
    fn tuner_never_drains_a_quota_below_one() {
        let mut p = Sim::new(4, AdaptiveConfig::new([PolicyKind::ExactLru]));
        let (a, b) = (AppId(0), AppId(1));
        for round in 0..20u64 {
            p.feed(&[round % 2], a);
            p.feed(&[100 + round], b);
        }
        let mv = p.run_epoch(&[(a, 3), (b, 1)]);
        assert!(mv.is_none(), "a 1-frame quota has nothing left to give: {mv:?}");
    }

    /// A refault takes its key out of the list altogether: the list used to
    /// keep the key's place in a deque and gained one stale entry per
    /// refault, without bound while the app stayed below `cap` keys.
    #[test]
    fn refaults_leave_nothing_behind_in_the_eviction_memory() {
        let mut p = AdaptivePolicy::new(4, AdaptiveConfig::new([PolicyKind::Clock]), true);
        let app = AppId(0);
        for round in 0..100u64 {
            p.remember_eviction(app, round % 3);
            p.observe(round % 3, app);
            let len = p.app_ghosts[&0].len(0);
            assert!(len <= 4, "{len} entries for a cap of 4");
        }
        assert_eq!((p.refaults.as_slice(), p.app_ghosts[&0].len(0)), (&[(app, 100)][..], 0));
    }

    /// Only the oldest remembered key is trimmed: the stale place of a key
    /// that refaulted and was evicted again used to take the live entry
    /// with it when the trim reached it.
    #[test]
    fn a_key_remembered_again_survives_the_trim_of_its_first_place() {
        let mut p = AdaptivePolicy::new(3, AdaptiveConfig::new([PolicyKind::Clock]), true);
        let app = AppId(0);
        p.remember_eviction(app, 1);
        p.observe(1, app);
        for key in [2, 3, 1, 4] {
            p.remember_eviction(app, key); // 4 is one over: 2, the oldest, goes
        }
        p.observe(2, app);
        assert_eq!(p.refaults, [(app, 1)], "2 was trimmed");
        p.observe(1, app);
        assert_eq!(p.refaults, [(app, 2)], "1, remembered after 2 and 3, was not");
    }
}
