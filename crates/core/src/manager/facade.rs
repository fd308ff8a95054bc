//! [`BufferManager`] and its builder: routing, the aggregate readers and
//! delegation to the shards. Nothing here takes, holds or names a lock —
//! CI greps this file for the type names — so no access path can
//! serialize two shards' traffic on manager-global state.

use super::epoch::EpochClock;
use super::frame::OwnContent;
use super::shard::Shard;
use super::{Access, AccessOutcome, CacheStats, EvictPolicy, FlushItem};
use crate::block::{BlockKey, Span};
use crate::config::PartitionConfig;
use kcache_adaptive::AdaptiveConfig;
use kcache_obs::ObsHub;
use kcache_policy::{AdaptiveStats, AppId, AppUsage, PolicyKind, PolicyStats};
use std::collections::BTreeMap;
use std::sync::Arc as StdArc;

/// The shared, finely-locked block cache — a facade over `N` independent
/// shards (see [`BufferManagerBuilder::shards`]; the default of 1 is the
/// paper's single pool).
///
/// The facade itself holds **no locks**: routing is a pure hash, the
/// aggregate counters are sums over shard-local atomics, and the only
/// facade-owned mutable state is the epoch clock/gate pair. Shards never
/// coordinate: quotas and the adaptive meta-policy run only on a one-shard
/// manager (see the [module docs](crate::manager)), and a sharded one is
/// a shared pool under a static policy, each shard ageing its own at the
/// epoch boundary.
pub struct BufferManager {
    pub(super) shards: Box<[Shard]>,
    pub(super) capacity: usize,
    policy_cfg: EvictPolicy,
    /// The partition config, as configured.
    partitioning: PartitionConfig,
    /// Shard 0 runs the adaptive meta-policy, whose tuner the epoch
    /// boundary hands the quotas.
    pub(super) adaptive: bool,
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
    /// shards), its own replacement policy instance and free/dirty lists;
    /// blocks route to shards by the *high* bits of the key hash (the
    /// in-shard bucket index consumes the low bits). Watermarks are split
    /// the same way, sums preserved. More than one shard is a plain pool:
    /// [`build`](Self::build) panics on per-app quotas or an adaptive
    /// policy with it.
    ///
    /// This is the one place the shard count is decided: no config key,
    /// cache module or report carries it, so the simulator builds one
    /// shard per node. The knob, the routing and `split_units` stay
    /// only for the multi-thread benches and `tests_sharded.rs`, until
    /// perfbench stops sweeping shards (ROADMAP E).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    pub fn build(self) -> BufferManager {
        let capacity = self.capacity;
        assert!(capacity > 0);
        assert!(self.shards >= 1, "at least one shard");
        assert!(self.shards <= capacity, "more shards than frames");
        let sharded = self.shards > 1;
        assert!(!(sharded && self.partitioning.is_partitioned()), "quotas need one shard");
        assert!(!(sharded && self.adaptive.is_some()), "the adaptive policy needs one shard");
        assert!(self.low_watermark <= self.high_watermark && self.high_watermark <= capacity);
        self.partitioning.validate(capacity).unwrap_or_else(|e| panic!("bad partitioning: {e}"));
        let epoch = EpochClock::new(self.epoch_accesses);
        let shards = (0..self.shards).map(|i| Shard::build(&self, i, epoch.ticker.clone()));
        BufferManager {
            shards: shards.collect(),
            capacity,
            policy_cfg: self.policy,
            partitioning: self.partitioning,
            adaptive: self.adaptive.is_some(),
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

    /// The partition configuration as configured
    /// ([`quota_of`](Self::quota_of) follows the tuner).
    pub fn partitioning(&self) -> &PartitionConfig {
        &self.partitioning
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

    /// The cache's event ledger (hits, misses, inserts, removes,
    /// evictions, scans), summed across shards: each shard's one set of
    /// per-app counts, read without the policy lock.
    pub fn policy_stats(&self) -> PolicyStats {
        let mut acc = self.shards[0].policy_stats();
        for s in &self.shards[1..] {
            acc.merge(&s.policy_stats());
        }
        acc
    }

    /// The adaptive meta-policy's observability ledger; `None` when a
    /// static policy runs (the meta-policy runs only on a one-shard
    /// manager).
    pub fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        self.shards[0].adaptive_stats()
    }

    /// The [`PolicyKind`] currently ranking candidates — for a static
    /// policy the configured kind (the same on every shard), for the
    /// adaptive meta-policy whichever candidate is live right now.
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
            acc.merge(&s.stats());
        }
        acc
    }

    /// Always 0: every access is applied to its shard's policy when it
    /// happens, so there is no access-event ring left to overflow. Kept
    /// for readers that still report the count.
    pub fn event_ring_overflows(&self) -> u64 {
        0
    }

    /// `app`'s effective quota — the adaptive tuner's once it has moved
    /// any, the configured one until then — or `None` when unconstrained.
    /// This, not `partitioning().quota_of`, is what admission, reclaim and
    /// reporting measure against once online tuning is running.
    pub fn quota_of(&self, app: AppId) -> Option<usize> {
        self.shards[0].ledger.quota_of(app)
    }

    /// Bring the hub's deferred metric counters up to date. No-op without
    /// a wired hub.
    pub fn obs_flush(&self) {
        for s in self.shards.iter() {
            s.obs_flush();
        }
    }

    /// The one access entry point: an attributed request ([`Access`])
    /// covering reads, probes, write-behind absorbs, clean installs and
    /// touches — every hit and miss the cache counts comes through here.
    /// Routes to the owning shard, delegates, then gives a due epoch
    /// boundary a chance to run.
    pub fn access(&self, key: BlockKey, req: Access<'_>) -> AccessOutcome {
        let out = self.shard_of(&key).access(key, req);
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

    /// [`update_if_present`](Self::update_if_present) with the block's own
    /// content over `span`: the caller recognised a descriptor naming
    /// exactly this block and span, so a described frame stays described.
    pub fn update_if_present_described(&self, key: BlockKey, span: Span) -> bool {
        let updated = self.shard_of(&key).update_if_present(key, span, OwnContent);
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
