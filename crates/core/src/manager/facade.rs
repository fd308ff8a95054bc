//! [`BufferManager`] and its builder: routing, the aggregate readers and
//! delegation to the shards. Nothing here takes, holds or names a lock —
//! CI greps this file for the type names — so no access path can
//! serialize two shards' traffic on manager-global state.

use super::admission::GlobalQuotas;
use super::epoch::EpochClock;
use super::shard::Shard;
use super::{Access, AccessKind, AccessOutcome, CacheStats, EvictPolicy, FlushItem};
use crate::block::{BlockKey, Span};
use crate::config::PartitionConfig;
use kcache_adaptive::AdaptiveConfig;
use kcache_obs::ObsHub;
use kcache_policy::{AdaptiveStats, AppId, AppUsage, GhostRate, PolicyKind, PolicyStats};
use std::collections::BTreeMap;
use std::sync::Arc as StdArc;

/// The shared, finely-locked block cache — a facade over `N` independent
/// shards (see [`BufferManagerBuilder::shards`]; the default of 1 is the
/// paper's single pool).
///
/// The facade itself holds **no locks**: routing is a pure hash, the
/// aggregate counters are sums over shard-local atomics, and the only
/// facade-owned mutable state is atomics — the epoch clock/gate pair and
/// each partitioned app's global quota. Shards coordinate in exactly two
/// places, both described in the [module docs](crate::manager): the epoch
/// boundary (one merged decision, applied to every shard) and the
/// strict-quota spill (one quota unit, never a frame, moved between two
/// shards' ledgers).
pub struct BufferManager {
    pub(super) shards: Box<[Shard]>,
    pub(super) capacity: usize,
    policy_cfg: EvictPolicy,
    /// The *global* partition config, as configured.
    pub(super) partitioning: PartitionConfig,
    /// Each partitioned app's current global quota (the tuner moves it;
    /// the shards' ledgers hold its split).
    pub(super) quotas: GlobalQuotas,
    pub(super) adaptive_cfg: Option<AdaptiveConfig>,
    /// Minimum quota the adaptive tuner may shrink any app to — the
    /// backstop behind the tuner's own clamp (see `quota_move_valid`).
    pub(super) quota_floor: usize,
    pub(super) epoch: EpochClock,
}

/// Builder for [`BufferManager`] — the canonical construction surface.
///
/// Every knob defaults to the paper's behavior: clock + clean-first
/// replacement, watermarks at capacity/10 and capacity/4, a shared
/// (unpartitioned) pool, no adaptive meta-policy, no epochs.
///
/// ```
/// # use kcache::{BufferManager, EvictPolicy};
/// # use kcache::policy::PolicyKind;
/// let m = BufferManager::builder(300)
///     .policy(EvictPolicy::of(PolicyKind::ExactLru))
///     .watermarks(30, 75)
///     .build();
/// # assert_eq!(m.capacity(), 300);
/// ```
#[derive(Clone)]
pub struct BufferManagerBuilder {
    pub(super) capacity: usize,
    pub(super) policy: EvictPolicy,
    pub(super) low_watermark: usize,
    pub(super) high_watermark: usize,
    pub(super) partitioning: PartitionConfig,
    pub(super) adaptive: Option<AdaptiveConfig>,
    epoch_accesses: usize,
    pub(super) obs: Option<(StdArc<ObsHub>, u32)>,
    pub(super) shards: usize,
}

impl BufferManagerBuilder {
    fn new(capacity: usize) -> BufferManagerBuilder {
        BufferManagerBuilder {
            capacity,
            policy: EvictPolicy::default(),
            low_watermark: capacity / 10,
            high_watermark: capacity / 4,
            partitioning: PartitionConfig::shared(),
            adaptive: None,
            epoch_accesses: 0,
            obs: None,
            shards: 1,
        }
    }

    /// Replacement policy (ranking kind + clean-first preference).
    pub fn policy(mut self, policy: EvictPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Harvester thresholds: wake below `low` free frames, sweep until
    /// `high` are free.
    pub fn watermarks(mut self, low: usize, high: usize) -> Self {
        self.low_watermark = low;
        self.high_watermark = high;
        self
    }

    /// Per-application frame quotas.
    pub fn partitioning(mut self, partitioning: PartitionConfig) -> Self {
        self.partitioning = partitioning;
        self
    }

    /// `Some` wraps the candidates in the `kcache-adaptive` meta-policy
    /// (ghost caches, epoch switching, quota tuning).
    pub fn adaptive(mut self, adaptive: Option<AdaptiveConfig>) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Accesses per policy epoch (`0` disables epochs).
    pub fn epoch_accesses(mut self, n: usize) -> Self {
        self.epoch_accesses = n;
        self
    }

    /// Wire an [`ObsHub`]: metric handles are resolved and trace-event
    /// names interned once here, so the hit path pays exactly one
    /// relaxed atomic add per counted event. `node` labels this
    /// manager's trace events (the Chrome-trace `pid`). `None` (the
    /// default) keeps every hot path at one never-taken branch.
    pub fn obs(mut self, hub: Option<StdArc<ObsHub>>, node: u32) -> Self {
        self.obs = hub.map(|h| (h, node));
        self
    }

    /// Number of independent shards the frame pool is split into
    /// (default 1, the paper's single pool). Each shard owns
    /// `capacity / n` frames (the remainder spread over the low-index
    /// shards), its own replacement policy instance, free/dirty lists
    /// and quota ledger; blocks route
    /// to shards by the *high* bits of the key hash (the in-shard bucket
    /// index consumes the low bits). Quotas and watermarks are split the
    /// same way, sums preserved; epochs are coordinated by the facade so
    /// adaptive decisions stay global (see [`BufferManager`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    pub fn build(self) -> BufferManager {
        let capacity = self.capacity;
        assert!(capacity > 0);
        assert!(self.shards >= 1, "at least one shard");
        assert!(self.shards <= capacity, "more shards than frames");
        assert!(self.low_watermark <= self.high_watermark && self.high_watermark <= capacity);
        self.partitioning.validate(capacity).unwrap_or_else(|e| panic!("bad partitioning: {e}"));
        let epoch = EpochClock::new(self.epoch_accesses);
        let shards = (0..self.shards).map(|i| Shard::build(&self, i, epoch.ticker.clone()));
        BufferManager {
            shards: shards.collect(),
            capacity,
            policy_cfg: self.policy,
            quotas: GlobalQuotas::new(&self.partitioning),
            partitioning: self.partitioning,
            quota_floor: self.adaptive.as_ref().map_or(1, |a| a.quota_floor.max(1)),
            adaptive_cfg: self.adaptive,
            epoch,
        }
    }
}

/// Split `total` units over `n` shards: `total / n` each, the remainder
/// distributed one-per-shard from index 0. Monotone in `total` (so split
/// watermarks never exceed split capacities) and sum-preserving.
pub(super) fn split_units(total: usize, n: usize) -> Vec<usize> {
    let (base, rem) = (total / n, total % n);
    (0..n).map(|i| base + usize::from(i < rem)).collect()
}

impl BufferManager {
    /// Start building a manager over `capacity` cache-block frames.
    pub fn builder(capacity: usize) -> BufferManagerBuilder {
        BufferManagerBuilder::new(capacity)
    }

    /// Total frames across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured replacement policy (for the adaptive meta-policy
    /// see [`live_policy_kind`](Self::live_policy_kind)).
    pub fn policy(&self) -> EvictPolicy {
        self.policy_cfg
    }

    /// The *global* partition configuration as configured (each shard
    /// enforces its slice; [`quota_of`](Self::quota_of) follows the
    /// tuner).
    pub fn partitioning(&self) -> &PartitionConfig {
        &self.partitioning
    }

    /// Number of independent shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    pub(super) fn shard_idx_of(&self, key: &BlockKey) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            // High hash bits: the in-shard bucket index consumes the low
            // bits, so shard routing and bucket placement stay
            // independent (a shard's buckets fill evenly).
            (key.hash() >> 32) as usize % self.shards.len()
        }
    }

    #[inline]
    fn shard_of(&self, key: &BlockKey) -> &Shard {
        &self.shards[self.shard_idx_of(key)]
    }

    pub fn free_frames(&self) -> usize {
        self.shards.iter().map(|s| s.free_frames()).sum()
    }

    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.resident()).sum()
    }

    pub fn dirty_queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.dirty_queue_len()).sum()
    }

    /// Frames currently resident in each shard (index = shard id) — the
    /// balance view behind the `shard.<i>.occupancy` gauges.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.resident()).collect()
    }

    /// Lifetime evictions (clean + dirty) per shard.
    pub fn shard_evictions(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| {
                let st = s.stats();
                st.evictions_clean + st.evictions_dirty
            })
            .collect()
    }

    /// The replacement policy's own event ledger, summed across shards.
    /// Drains deferred events first, so a snapshot never under-reports
    /// traffic that already happened.
    pub fn policy_stats(&self) -> PolicyStats {
        let mut acc = self.shards[0].policy_stats();
        for s in &self.shards[1..] {
            acc.merge(&s.policy_stats());
        }
        acc
    }

    /// The adaptive meta-policy's observability ledger; `None` when a
    /// static policy runs. Coordinated decisions are recorded identically
    /// in every shard, so shard 0's switch/quota logs already *are* the
    /// global logs — only the per-shard ghost traffic ledgers need
    /// summing (naively merging whole stats would multiply every log
    /// entry by the shard count).
    pub fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        let mut base = self.shards[0].adaptive_stats()?;
        base.ghost_rates = self.ghost_rates()?;
        Some(base)
    }

    /// Lifetime ghost ledgers per candidate, summed across shards.
    pub(super) fn ghost_rates(&self) -> Option<Vec<GhostRate>> {
        let mut acc = self.shards[0].ghost_rates()?;
        for s in &self.shards[1..] {
            for g in s.ghost_rates().into_iter().flatten() {
                match acc.iter_mut().find(|b| b.kind == g.kind) {
                    Some(b) => {
                        b.hits += g.hits;
                        b.misses += g.misses;
                    }
                    None => acc.push(g),
                }
            }
        }
        Some(acc)
    }

    /// The [`PolicyKind`] currently ranking candidates — for a static
    /// policy the configured kind, for the adaptive meta-policy whichever
    /// candidate is live right now (all shards switch in lockstep, so
    /// shard 0 speaks for everyone).
    pub fn live_policy_kind(&self) -> PolicyKind {
        self.shards[0].live_policy_kind()
    }

    /// Per-application occupancy and attributed traffic, merged across
    /// shards (ascending by app id; apps appear once they have touched
    /// the cache anywhere).
    pub fn app_usage(&self) -> Vec<(AppId, AppUsage)> {
        let mut merged: BTreeMap<u32, AppUsage> = BTreeMap::new();
        for s in self.shards.iter() {
            for (app, u) in s.app_usage() {
                let e = merged.entry(app.0).or_default();
                e.resident += u.resident;
                e.hits += u.hits;
                e.misses += u.misses;
                e.evictions += u.evictions;
            }
        }
        merged.into_iter().map(|(id, u)| (AppId(id), u)).collect()
    }

    /// Frames currently owned (installed) by `app`, across all shards.
    pub fn resident_of(&self, app: AppId) -> usize {
        self.shards.iter().map(|s| s.resident_of(app)).sum()
    }

    /// Snapshot of the manager's counters, summed across shards.
    pub fn stats(&self) -> CacheStats {
        let mut acc = CacheStats::default();
        for s in self.shards.iter() {
            let st = s.stats();
            acc.hits += st.hits;
            acc.misses += st.misses;
            acc.insertions += st.insertions;
            acc.writes_absorbed += st.writes_absorbed;
            acc.writes_passthrough += st.writes_passthrough;
            acc.evictions_clean += st.evictions_clean;
            acc.evictions_dirty += st.evictions_dirty;
            acc.flush_blocks += st.flush_blocks;
            acc.invalidated += st.invalidated;
            acc.invalidated_dirty += st.invalidated_dirty;
        }
        acc
    }

    /// Times any shard's access-event ring refused a push (see the shard
    /// docs: nothing is lost, each is a convoy window).
    pub fn event_ring_overflows(&self) -> u64 {
        self.shards.iter().map(|s| s.event_ring_overflows()).sum()
    }

    /// `app`'s *global* effective quota — the adaptive tuner's once it
    /// has moved any, the configured one until then — or `None` when
    /// unconstrained. This, not `partitioning().quota_of`, is what
    /// admission, reclaim and reporting measure against once online
    /// tuning is running.
    pub fn quota_of(&self, app: AppId) -> Option<usize> {
        self.quotas.get(app)
    }

    /// `app`'s quota slice on each shard (index = shard id; empty when
    /// unconstrained) — diagnostics/tests: at any quiescent point the
    /// slices sum to [`quota_of`](Self::quota_of).
    pub fn shard_quotas(&self, app: AppId) -> Vec<usize> {
        self.shards.iter().filter_map(|s| s.ledger.slice_of(app)).collect()
    }

    /// Bring the hub's deferred metric counters up to date and refresh
    /// the per-shard `shard.<i>.occupancy` / `shard.<i>.evictions`
    /// balance gauges. No-op without a wired hub.
    pub fn obs_flush(&self) {
        for s in self.shards.iter() {
            s.obs_flush();
        }
        self.publish_shard_gauges();
    }

    pub(super) fn publish_shard_gauges(&self) {
        for (i, s) in self.shards.iter().enumerate() {
            if let Some(o) = &s.obs {
                let reg = o.hub.registry();
                reg.gauge(&format!("shard.{i}.occupancy")).set(s.resident() as u64);
                let st = s.stats();
                reg.gauge(&format!("shard.{i}.evictions"))
                    .set(st.evictions_clean + st.evictions_dirty);
            }
        }
    }

    /// The one access entry point: an attributed request ([`Access`])
    /// covering reads, probes, write-behind absorbs, clean installs and
    /// touches — every hit and miss the cache counts comes through here.
    /// Routes to the owning shard, runs the strict-quota spill protocol
    /// if the install would be denied, delegates, then gives a due epoch
    /// boundary a chance to run.
    pub fn access(&self, key: BlockKey, req: Access<'_>) -> AccessOutcome {
        let shard = self.shard_of(&key);
        if self.shards.len() > 1
            && matches!(req.kind, AccessKind::Write { .. } | AccessKind::InsertClean { .. })
        {
            self.pre_admit_spill(shard, &key, req.app);
        }
        let out = shard.access(key, req);
        self.maybe_epoch();
        out
    }

    /// Look up `key` in the hash table (no data copy, no stats). Mostly
    /// for tests and diagnostics.
    pub fn contains(&self, key: BlockKey) -> bool {
        self.shard_of(&key).contains(key)
    }

    /// Overwrite `span` of `key` in place if resident (sync-write
    /// propagation); see the shard implementation for semantics.
    pub fn update_if_present(&self, key: BlockKey, span: Span, bytes: &[u8]) -> bool {
        let updated = self.shard_of(&key).update_if_present(key, span, bytes);
        self.maybe_epoch();
        updated
    }

    /// Snapshot up to `max` dirty blocks for write-back. Each shard's
    /// queue preserves its own FIFO dirtying order; shards are drained in
    /// index order, so global ordering across shards is approximate —
    /// staleness bounds still hold per shard.
    pub fn take_dirty(&self, max: usize) -> Vec<FlushItem> {
        let mut out = Vec::new();
        for s in self.shards.iter() {
            if out.len() >= max {
                break;
            }
            out.extend(s.take_dirty(max - out.len()));
        }
        out
    }

    /// The iod acknowledged the write-back of `key`'s `span`; see the
    /// shard implementation for re-dirty semantics.
    pub fn flush_complete(&self, key: BlockKey, span: Span) {
        self.shard_of(&key).flush_complete(key, span);
    }

    /// Drop cached copies of the listed blocks (sync-write coherence).
    /// Dirty copies are discarded — the sync-writer's data supersedes
    /// them. Returns `(dropped, dropped_dirty)` totals.
    pub fn invalidate<I: IntoIterator<Item = BlockKey>>(&self, keys: I) -> (u64, u64) {
        let mut dropped = 0;
        let mut dropped_dirty = 0;
        for key in keys {
            let (d, dd) = self.shard_of(&key).invalidate([key]);
            dropped += d;
            dropped_dirty += dd;
        }
        (dropped, dropped_dirty)
    }

    /// Has any shard's free list fallen below its low watermark? (the
    /// harvester's wake-up condition — per-shard, because one full shard
    /// stalls *its* installs no matter how empty its siblings are).
    pub fn needs_harvest(&self) -> bool {
        self.shards.iter().any(|s| s.needs_harvest())
    }

    /// Harvester sweep over every shard (each sweeps itself to its own
    /// high watermark; see the shard implementation for the quota-aware
    /// candidate order).
    pub fn harvest(&self) -> Vec<FlushItem> {
        self.shards.iter().flat_map(|s| s.harvest()).collect()
    }

    /// Keys currently resident (diagnostics/tests; O(capacity)).
    pub fn resident_keys(&self) -> Vec<BlockKey> {
        let mut out: Vec<BlockKey> = self.shards.iter().flat_map(|s| s.resident_keys()).collect();
        out.sort_unstable();
        out
    }
}
