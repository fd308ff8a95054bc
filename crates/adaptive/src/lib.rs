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
//!   owner of the charge ledger — validates and applies the
//!   recommendation.
//!
//! The evidence state only *observes* and *applies*; the decision in
//! between is the free function [`decide_epoch`], which the buffer manager
//! calls once per epoch boundary over the observation of its one shard.
//!
//! With a single candidate the live cache behaves exactly like the static
//! policy: the ghosts observe but never influence, the controller has
//! nothing to switch to, and the tuner only acts on quota'd apps — pinned
//! byte-for-byte by differential tests.

pub mod ghost;

pub use ghost::GhostCache;

use kcache_policy::{
    AdaptiveStats, AppId, EpochDirective, EpochObservation, GhostLists, GhostRate, PolicyKind,
    QuotaMoveRecord, SwitchRecord,
};
use std::collections::BTreeMap;

/// The epoch controller's switch rule over per-candidate epoch ghost
/// ledgers `(kind, hits, accesses)`: the best-rated candidate wins a
/// switch when it is not the live one and beats the live rate by more
/// than `hysteresis`. Returns `Some((to, live_rate, best_rate))` when a
/// switch is warranted. Candidates with no traffic this epoch have no
/// rate and cannot win (or be compared against); ties keep the earliest
/// candidate in ledger order.
pub fn decide_switch(
    ledgers: &[(PolicyKind, u64, u64)],
    live: PolicyKind,
    hysteresis: f64,
) -> Option<(PolicyKind, f64, f64)> {
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
    let (best_kind, best_rate) = best?;
    (best_kind != live && best_rate > live_rate + hysteresis)
        .then_some((best_kind, live_rate, best_rate))
}

/// One quota transfer proposed by the marginal-utility rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaMove {
    pub winner: AppId,
    pub loser: AppId,
    /// Frames moved (`loser` shrinks by this, `winner` grows by this).
    pub frames: usize,
    pub winner_quota: usize,
    pub loser_quota: usize,
    pub winner_refaults: u64,
    pub loser_refaults: u64,
}

/// The quota tuner's transfer rule: move up to `quota_step` frames of
/// quota from the app with the fewest epoch refaults to the app with the
/// most, clamped so the loser keeps one frame and the winner never
/// exceeds `capacity` — in full or not at all. `quotas` is the
/// current effective quota per app (ascending app id, as the manager
/// reports it); `refaults` the per-app epoch refault evidence (missing
/// apps count zero).
pub fn decide_quota_move(
    quotas: &[(AppId, usize)],
    refaults: &[(AppId, u64)],
    capacity: usize,
    quota_step: usize,
) -> Option<QuotaMove> {
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
    (frames > 0).then_some(QuotaMove {
        winner,
        loser,
        frames,
        winner_quota: wq + frames,
        loser_quota: lq - frames,
        winner_refaults: rf(winner),
        loser_refaults: rf(loser),
    })
}

/// One epoch's decision, composed here and nowhere else: the switch rule
/// over the ghost ledgers and the quota transfer rule over the refault
/// evidence, both read from `obs`, the policy's observation. `quotas` is
/// the current effective quota of every partitioned app over a pool of
/// `capacity` frames (empty for a shared pool: nothing to tune). The
/// directive goes back into the observed policy through
/// [`AdaptivePolicy::epoch_apply`]; the [`QuotaMove`], when one is
/// proposed, is for the caller's charge ledger to validate and apply (and
/// to strip from the directive if it refuses).
pub fn decide_epoch(
    obs: &EpochObservation,
    cfg: &AdaptiveConfig,
    quotas: &[(AppId, usize)],
    capacity: usize,
) -> (EpochDirective, Option<QuotaMove>) {
    let switch_to = decide_switch(&obs.ghost_epoch, obs.live, cfg.hysteresis);
    let mv = decide_quota_move(quotas, &obs.refaults, capacity, cfg.quota_step);
    let quota_move =
        mv.map(|mv| (mv.loser, mv.winner, mv.frames, mv.loser_refaults, mv.winner_refaults));
    (EpochDirective { switch_to, quota_move }, mv)
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

/// Per-application eviction memory for the quota tuner.
struct AppGhostList {
    /// One FIFO of the keys this app most recently lost to eviction.
    recent: GhostLists,
    /// Re-references to remembered (evicted) keys this epoch — the hits a
    /// bigger quota would have kept.
    epoch_refaults: u64,
}

impl AppGhostList {
    fn new(cap: usize) -> AppGhostList {
        AppGhostList { recent: GhostLists::new(1, cap.max(1)), epoch_refaults: 0 }
    }

    fn remember(&mut self, key: u64) {
        self.recent.remember(key, 0);
    }

    fn note_access(&mut self, key: u64) {
        if self.recent.forget(key).is_some() {
            self.epoch_refaults += 1;
        }
    }
}

/// The meta-policy's evidence state. See the crate docs for the control
/// loop. It ranks nothing and owns no frames: the buffer manager keeps it
/// beside the live [`RankedTable`](kcache_policy::RankedTable) under the
/// same policy lock, shows it the access stream
/// ([`observe`](Self::observe)) and the capacity evictions
/// ([`remember_eviction`](Self::remember_eviction)), and at each epoch
/// boundary reads its [`epoch_observe`](Self::epoch_observe) and hands it
/// the verdict ([`epoch_apply`](Self::epoch_apply)), migrating the live
/// table itself when that returns a switch.
pub struct AdaptivePolicy {
    cfg: AdaptiveConfig,
    /// Index (into `cfg.candidates` / `ghosts`) of the live policy.
    live_idx: usize,
    ghosts: Vec<GhostCache>,
    app_ghosts: BTreeMap<u32, AppGhostList>,
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
    /// first one until an [`epoch_apply`](Self::epoch_apply) says
    /// otherwise).
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
            if let Some(gl) = self.app_ghosts.get_mut(&app.0) {
                gl.note_access(key);
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
            self.app_ghosts.entry(owner.0).or_insert_with(|| AppGhostList::new(cap)).remember(key);
        }
    }

    /// Export what was observed over the closing epoch *without* taking
    /// any decision: ghost hit/access counts per candidate and the
    /// per-application refault evidence. The manager decides over it
    /// ([`decide_epoch`]) and pushes the verdict back through
    /// [`epoch_apply`](Self::epoch_apply).
    pub fn epoch_observe(&self) -> EpochObservation {
        EpochObservation {
            live: self.live(),
            ghost_epoch: self
                .ghosts
                .iter()
                .map(|g| {
                    let (hits, accesses) = g.epoch_counts();
                    (g.kind(), hits, accesses)
                })
                .collect(),
            refaults: self
                .app_ghosts
                .iter()
                .map(|(&id, gl)| (AppId(id), gl.epoch_refaults))
                .collect(),
        }
    }

    /// Apply a globally-decided epoch verdict: advance the epoch clock,
    /// age the ghosts, log the decisions, and close out the ledgers the
    /// observation was taken from. Returns the candidate the caller must
    /// now migrate its live table to, when the directive switches away
    /// from the current one. (The caller ages its live policy itself,
    /// *before* migrating, so a switch lands on consistently aged
    /// metadata.)
    pub fn epoch_apply(&mut self, directive: &EpochDirective) -> Option<PolicyKind> {
        self.stats.epochs += 1;
        for g in &mut self.ghosts {
            g.epoch_tick();
        }
        let mut switched = None;
        if let Some((to, from_rate, to_rate)) = directive.switch_to {
            if let Some(idx) = self.cfg.candidates.iter().position(|&k| k == to) {
                if idx != self.live_idx {
                    let from = self.live();
                    self.live_idx = idx;
                    self.stats.switches += 1;
                    self.stats.switch_log.push(SwitchRecord {
                        epoch: self.stats.epochs,
                        from,
                        to,
                        from_rate,
                        to_rate,
                    });
                    switched = Some(to);
                }
            }
        }
        if let Some((from, to, frames, from_refaults, to_refaults)) = directive.quota_move {
            self.stats.quota_moves += 1;
            self.stats.quota_log.push(QuotaMoveRecord {
                epoch: self.stats.epochs,
                from,
                to,
                frames,
                from_refaults,
                to_refaults,
            });
        }
        // Close the epoch: rate ledgers and refault evidence both reset
        // (lifetime counters keep accumulating).
        for g in &mut self.ghosts {
            g.end_epoch();
        }
        for gl in self.app_ghosts.values_mut() {
            gl.epoch_refaults = 0;
        }
        switched
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
    use kcache_policy::{RankedTable, ScanFilter};

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

        /// One epoch boundary as the buffer manager runs it: observe,
        /// decide over that observation, age, apply, migrate. Returns the
        /// proposed quota transfer.
        fn run_epoch(&mut self, quotas: &[(AppId, usize)]) -> Option<QuotaMove> {
            let obs = self.ad.epoch_observe();
            let capacity = self.live.table().capacity();
            let (directive, mv) = decide_epoch(&obs, &self.ad.cfg, quotas, capacity);
            self.live.epoch_tick();
            if let Some(to) = self.ad.epoch_apply(&directive) {
                self.live.migrate(to);
            }
            mv
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
        assert_eq!((mv.winner, mv.loser), (victim, scanner));
        assert!(mv.winner_quota > 2, "victim quota must grow, got {}", mv.winner_quota);
        assert_eq!(mv.loser_quota, 1, "scanner quota must shrink, never below one frame");
        let stats = p.ad.stats();
        assert_eq!(stats.quota_moves, 1);
        assert_eq!(stats.quota_log[0].to, victim);
        assert_eq!(stats.quota_log[0].from, scanner);
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
        assert_eq!((mv.winner, mv.winner_quota), (hot, 4), "clamped to the pool");
        assert_eq!((mv.loser, mv.loser_quota), (cold, 2), "loser gives what the winner can take");
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
        let mut gl = AppGhostList::new(4);
        for round in 0..100u64 {
            gl.remember(round % 3);
            gl.note_access(round % 3);
            assert!(gl.recent.len(0) <= 4, "{} entries for a cap of 4", gl.recent.len(0));
        }
        assert_eq!((gl.epoch_refaults, gl.recent.len(0)), (100, 0));
    }

    /// Only the oldest remembered key is trimmed: the stale place of a key
    /// that refaulted and was evicted again used to take the live entry
    /// with it when the trim reached it.
    #[test]
    fn a_key_remembered_again_survives_the_trim_of_its_first_place() {
        let mut gl = AppGhostList::new(3);
        gl.remember(1);
        gl.note_access(1);
        for key in [2, 3, 1, 4] {
            gl.remember(key); // 4 is one over: 2, the oldest, goes
        }
        gl.note_access(2);
        assert_eq!(gl.epoch_refaults, 1, "2 was trimmed");
        gl.note_access(1);
        assert_eq!(gl.epoch_refaults, 2, "1, remembered after 2 and 3, was not");
    }
}
