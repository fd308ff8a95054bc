//! The buffer manager — the paper's "full-fledged buffer manager of
//! blocks, requiring the implementation of hash tables, free list and
//! dirty list" (§3.2).
//!
//! * fixed pool of 4 KB frames (default 300 ≙ the paper's 1.2 MB cache),
//! * open-hashing hash table with **per-bucket locks**,
//! * a free list and a dirty list,
//! * replacement: delegated to a pluggable
//!   [`ReplacementPolicy`](kcache_policy::ReplacementPolicy)
//!   (`kcache-policy`) — clock with reference bits (the paper's
//!   approximate LRU) by default, exact LRU as the ablation the paper
//!   argues against, plus LFU/2Q/ARC/sharing-aware alternatives — always
//!   combined with the manager-owned **preference for clean blocks over
//!   dirty ones**,
//! * per-application **frame quotas** ([`PartitionConfig`]): strict caps
//!   or soft caps with borrowing, enforced at acquire time — an over-quota
//!   app draws eviction candidates from its own resident frames first via
//!   the policy's owner-filtered scan, so a noisy neighbor cannot flush a
//!   well-behaved tenant out of the shared pool,
//! * fine-grained locking throughout: the structure is `Send + Sync` and is
//!   exercised by real multi-threaded stress tests, not only by the
//!   single-threaded simulation.
//!
//! ## Sharding
//!
//! [`BufferManager`] is a lock-free facade over N independent shards
//! (builder knob [`BufferManagerBuilder::shards`], default 1 — the
//! paper's single pool). A block's home shard is fixed by the *high*
//! bits of its key hash (bucket selection within a shard uses the low
//! bits, so the two choices stay independent); capacity,
//! watermarks, and per-app quotas split across shards with the remainder
//! to low indexes. Every lock in the structure lives *inside* a shard —
//! the facade owns only the shard array and three atomics (epoch clock,
//! boundary mark, CAS gate), so no code path can serialize two shards'
//! traffic on a manager-global lock (CI greps the facade struct for
//! `Mutex`/`RwLock`). Cross-shard state — adaptive ghost evidence,
//! switch decisions, tuned-quota overlays — reconciles only at epoch
//! boundaries; strict-quota headroom moves between shards as *quota
//! units* (never frames) on the pre-admission spill path.
//!
//! Lock ordering discipline, per shard: bucket → frame. The free list,
//! dirty list and the policy state are leaf locks — never held while
//! acquiring a bucket or frame lock; the charge ledger may nest its
//! tuned-quota overlay (charges → tuned_quotas) and nothing else. No
//! lock is ever held across a shard boundary. Evictions ask the policy
//! for a candidate (policy lock only), release, then take bucket → frame
//! and revalidate; the policy may thus offer a candidate that has since
//! changed hands, and the manager simply asks for the next one.
//!
//! An evicting miss takes the policy lock **twice** when its first
//! candidate is accepted: one hold drains, begins the scan and takes that
//! candidate; one files the incoming block — the victim's removal and
//! ledger entries travel with the frame to it — **before the block is
//! visible in its bucket**, so the table never describes a previous tenant
//! of a frame a scan can evict (a lost install race un-files). The policy
//! stays a leaf throughout. Harvester and invalidation removals are eager.
//!
//! ## Hit-path concurrency (eager vs drained accounting)
//!
//! The **hit fast path takes no policy lock**. A hit (or recency touch)
//! does three lock-free things: bump the manager's atomic counters, store
//! the frame's atomic ref/recency word ([`RefWords`] — ref bit plus
//! app-touch mask, one relaxed `fetch_or` unless the bits are already set,
//! the seed clock's store-only cost), and enqueue an [`AccessEvent`] into
//! the calling thread's stripe of a bounded lock-free ring. The deferred
//! events — policy hit/miss counters, the per-app ledger, `on_access`
//! recency for non-clock policies, and the adaptive meta-policy's ghost
//! feeds — are applied in batches, **FIFO per producer**
//! ([`RankedTable::drain`]), only when the policy lock is taken
//! anyway: before an eviction scan ranks, before an insert links, before
//! an epoch tick decides, before a stats read reports, and inline by the
//! producer itself when its stripe fills (so nothing is ever dropped and
//! memory stays bounded). Under a single thread every drain point
//! precedes the next policy *decision*, which makes drained accounting
//! observation-equivalent to the eager path — pinned by a differential
//! test, with [`BufferManagerBuilder::eager_accounting`] keeping the
//! old apply-under-the-lock path alive as the reference (and as the
//! bench baseline).
//!
//! **Epoch participation** is explicit and uniform: every access event —
//! hit, miss, probe hit, and recency touch — advances the facade's epoch
//! clock (when epochs are enabled at all; with `epoch_accesses == 0` an
//! access does no epoch work), and the facade runs the boundary — observe
//! each shard, merge, decide once, apply to each shard — whatever the
//! shard count. Touches (sync-write refreshes, secondary-waiter
//! attribution, merges into a resident block) are real accesses: they
//! refresh recency and feed the adaptive ghosts, so they must also age
//! the policies and drive the controller, or probe-/write-heavy workloads
//! would skew epoch length relative to observed traffic (the pre-PR-5
//! bug). Inserts do *not* tick the clock: an install is the tail of a
//! miss that was already counted at lookup time.

use crate::block::{BlockKey, Span, CACHE_BLOCK_SIZE};
use crate::config::{CooperativeConfig, PartitionConfig, PartitionMode};
use crate::ring::EventRing;
use kcache_adaptive::{decide_epoch, AdaptiveConfig, AdaptivePolicy, QuotaMove};
use kcache_obs::{CacheLine, Counter, EventId, Histogram, ObsHub};
use kcache_policy::{
    AccessEvent, AdaptiveStats, AppId, AppUsage, EpochDirective, EpochObservation, GhostRate,
    PolicyKind, PolicyStats, RankedTable, RefWords,
};
use parking_lot::{Mutex, MutexGuard};
use sim_net::NodeId;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc as StdArc;

/// Replacement configuration (§3.2 design choices, now a policy *choice*
/// plus the clean-first preference the manager enforces itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictPolicy {
    /// Which candidate-ranking policy runs inside the manager.
    pub kind: PolicyKind,
    /// Prefer evicting clean blocks over dirty ones (the paper's choice).
    pub clean_first: bool,
}

impl EvictPolicy {
    /// The named policy with the paper's clean-first preference.
    pub fn of(kind: PolicyKind) -> EvictPolicy {
        EvictPolicy { kind, clean_first: true }
    }
}

impl Default for EvictPolicy {
    fn default() -> Self {
        EvictPolicy { kind: PolicyKind::Clock, clean_first: true }
    }
}

/// A dirty snapshot handed to the caller for write-back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushItem {
    pub key: BlockKey,
    /// iod node owning this block (learned at intercept time).
    pub home: NodeId,
    /// Dirty span within the block.
    pub span: Span,
    /// The dirty bytes (`span.len()` of them).
    pub data: Vec<u8>,
}

/// Outcome of a write-behind attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Bytes absorbed into the cache; the caller may ack immediately.
    Absorbed,
    /// The cache cannot take the bytes without evicting dirty data (or the
    /// write pattern is non-contiguous within a partially valid block);
    /// the caller must send the write through to the iod. This is the
    /// paper's "writes may need to block for availability of cache space".
    PassThrough,
}

/// What one [`BufferManager::access`] call should do to the block.
///
/// One variant per access flavor the cache module needs; a new flavor
/// (the peer-fetch tier, say) extends this enum, never the method list.
pub enum AccessKind<'a> {
    /// Serve `span` into `out` (`out.len() == span.len()`). Counts a hit
    /// (refreshing recency) or a miss.
    Read { span: Span, out: &'a mut [u8] },
    /// [`Read`](Self::Read) that, on a hit, hands the `span.len()` bytes
    /// to `sink` (not called on a miss) instead of copying them into a
    /// buffer the caller had to initialize — a multi-block reply is
    /// appended block by block to a `Vec::with_capacity`.
    ReadWith { span: Span, sink: &'a mut dyn FnMut(&[u8]) },
    /// Hit check without copying (request-split planning). Counts the
    /// same hit/miss accounting as a read but does not refresh recency —
    /// planning a split is not a use of the block.
    Probe { span: Span },
    /// Write-behind absorb: on [`WriteOutcome::Absorbed`] the block is
    /// dirty in cache and the write can be acknowledged locally.
    Write { home: NodeId, span: Span, bytes: &'a [u8] },
    /// Install fetched (clean) bytes — the tail of a miss, so no hit/miss
    /// is counted. May evict; a sacrificed dirty frame comes back as a
    /// flush snapshot.
    InsertClean { home: NodeId, span: Span, bytes: &'a [u8] },
    /// Attribute a use of the block to the accessor without copying data
    /// — the cache module's secondary waiters, when one fetch satisfies
    /// several applications, so sharing-aware policies see every
    /// referent. Resident: recency refreshed, `Hit`; absent: `Miss`.
    /// Neither is counted as a hit or a miss.
    Touch,
}

/// One attributed cache access: which application, doing what.
pub struct Access<'a> {
    pub app: AppId,
    pub kind: AccessKind<'a>,
}

impl<'a> Access<'a> {
    /// An unattributed access (no per-app accounting).
    pub fn unattributed(kind: AccessKind<'a>) -> Access<'a> {
        Access { app: AppId::UNKNOWN, kind }
    }
}

/// What an [`BufferManager::access`] call produced, by request kind:
/// `Read`/`ReadWith`/`Probe`/`Touch` yield `Hit`/`Miss`, `Write` yields
/// `Write(..)`, `InsertClean` yields `Inserted(..)`.
#[derive(Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    Hit,
    Miss,
    Write(WriteOutcome),
    Inserted(Option<FlushItem>),
}

impl AccessOutcome {
    /// Did a read/probe hit?
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

#[derive(Debug)]
struct Frame {
    key: Option<BlockKey>,
    data: Box<[u8; CACHE_BLOCK_SIZE]>,
    valid: Span,
    dirty: Span,
    home: NodeId,
    in_dirty_list: bool,
    /// A snapshot of this frame is in flight to its iod; the frame cannot
    /// be evicted (and is not re-taken by the flusher) until the flush is
    /// acknowledged. This is what makes write-behind *block* when the
    /// network cannot drain dirty data fast enough (§4.2.1).
    flushing: bool,
}

impl Frame {
    fn empty() -> Frame {
        Frame {
            key: None,
            data: Box::new([0u8; CACHE_BLOCK_SIZE]),
            valid: Span::EMPTY,
            dirty: Span::EMPTY,
            home: NodeId(0),
            in_dirty_list: false,
            flushing: false,
        }
    }

    fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }
}

/// Snapshot of the manager's counters.
#[derive(Debug, Default, Clone)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub writes_absorbed: u64,
    pub writes_passthrough: u64,
    pub evictions_clean: u64,
    pub evictions_dirty: u64,
    pub flush_blocks: u64,
    pub invalidated: u64,
    pub invalidated_dirty: u64,
}

/// Striped [`Counter`]s: `hits` and `misses` are bumped by every op of
/// every thread, so each thread writes cache lines of its own.
#[derive(Default)]
struct AtomicStats {
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    writes_absorbed: Counter,
    writes_passthrough: Counter,
    evictions_clean: Counter,
    evictions_dirty: Counter,
    flush_blocks: Counter,
    invalidated: Counter,
    invalidated_dirty: Counter,
}

/// Outcome of the quota gate for one frame acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// No quota applies (shared pool, unknown app, unlisted app).
    Unlimited,
    /// Under quota; one frame has been charged to the app.
    Granted,
    /// At/over quota; nothing charged — the caller must make room inside
    /// the app's own partition (or borrow, in soft mode).
    OverQuota,
}

/// Pre-resolved observability handles (`kcache-obs`), present only when
/// an [`ObsHub`] was wired at build time. Handle resolution (name lookup,
/// event-name interning) happens once, here; hot paths then pay one
/// never-taken branch when observability is off and **nothing extra**
/// when it is on: hit/miss metric counters are not incremented per
/// access (one additional atomic RMW would cost ~10% of the lean hit
/// path) but folded in from the manager's existing [`AtomicStats`]
/// ledger at sync points — epoch boundaries and
/// [`BufferManager::obs_flush`] — and from the policy's at ring drains.
/// Counters are therefore exact at every epoch mark and export. Trace events and gauge refreshes live on cold
/// paths only (eviction scans, ring overflows, epoch boundaries).
/// Instrumentation is strictly read-only over cache state — a
/// differential test pins that obs-on and obs-off managers make
/// byte-for-byte identical decisions.
struct ManagerObs {
    hub: StdArc<ObsHub>,
    /// Trace `pid`: the node this manager serves (0 standalone).
    node: u32,
    hits: Counter,
    misses: Counter,
    /// High-water marks of `stats.hits`/`stats.misses` already folded
    /// into the metric counters (CAS-advanced, so concurrent sync points
    /// never double-count a delta).
    hits_seen: AtomicU64,
    misses_seen: AtomicU64,
    evictions_clean: Counter,
    evictions_dirty: Counter,
    /// Times the event ring refused a push (producer-became-drainer —
    /// each is a lost-recency/convoy window; see [`EventRing`]).
    ring_overflows: Counter,
    /// Events applied per non-empty `drain_locked` batch.
    drain_batch: Histogram,
    /// Candidates visited per successful eviction scan.
    scan_visits: Histogram,
    /// Per measured leaf lock (indexed by [`Leaf`]): acquisitions that
    /// found it held, and how long each of those then waited.
    lock_contended: [Counter; 4],
    lock_wait_ns: [Histogram; 4],
    ev_eviction_scan: EventId,
    ev_epoch_tick: EventId,
    ev_ring_overflow: EventId,
}

/// The shard's four measured leaf locks (`cache.lock_contended.<name>`,
/// `cache.lock_wait_ns.<name>`; see [`Shard::lock_leaf`]).
#[derive(Clone, Copy)]
enum Leaf {
    Policy,
    Free,
    Dirty,
    Charges,
}

const LEAF_NAMES: [&str; 4] = ["policy", "free", "dirty", "charges"];

/// What the policy leaf lock guards: the shard's frame table with the
/// live ranker over it and, under an adaptive configuration, the
/// meta-policy's evidence state beside it — fed from the same stream,
/// never in front of the table.
struct PolicyState {
    ranked: RankedTable,
    adaptive: Option<AdaptivePolicy>,
    /// `drain_locked`'s batch buffer, kept so that a drain allocates
    /// nothing while it holds the lock another thread is waiting for.
    batch: Vec<AccessEvent>,
}

impl PolicyState {
    /// Apply a batch of access events, oldest first: ghost feeds, then
    /// the live table's ledger and recency replay.
    fn drain(&mut self, events: &[AccessEvent]) {
        if let Some(a) = &mut self.adaptive {
            a.observe_batch(events);
        }
        self.ranked.drain(events);
    }

    /// The policy-side half of evicting `victim` from frame `idx`. Returns
    /// the block's owner: the caller uncharges it once the lock is dropped.
    fn settle_eviction(&mut self, idx: u32, victim: &Victim) -> AppId {
        let table = self.ranked.table_mut();
        if victim.flush.is_some() {
            table.stats.evictions_dirty += 1;
        } else {
            table.stats.evictions_clean += 1;
        }
        let owner = table.owner_of(idx);
        table.note_app_eviction(owner);
        if let Some(a) = &mut self.adaptive {
            // Capacity pressure: a later re-read by the same app is a
            // refault. (Invalidations never get here, which keeps them
            // out of the tuner's evidence.)
            a.remember_eviction(owner, victim.key.hash());
        }
        self.ranked.remove(idx, victim.key.hash());
        owner
    }
}

/// The previous tenant of a frame an eviction scan just emptied: gone from
/// bucket and frame, its [`PolicyState::settle_eviction`] still owed. An
/// install carries it with the frame to the hold that files the incoming
/// block ([`Shard::file_insert`]); the harvester settles it at once.
struct Victim {
    key: BlockKey,
    /// The dirty snapshot, when a dirty frame had to be sacrificed.
    flush: Option<FlushItem>,
}

/// The free list and a mirror of its length, on one line: the mirror is
/// stored under the list's lock and read without it (`needs_harvest` runs
/// after every fill and write, `harvest` every turn of its loop).
struct FreeList {
    frames: Mutex<Vec<u32>>,
    len: AtomicUsize,
}

/// One shard of the cache: a fully self-contained slice of the frame
/// pool with its own hash buckets, free list, dirty queue, replacement
/// policy, event ring and charge ledger — every lock below this line is
/// shard-local. The public [`BufferManager`] facade routes each
/// [`BlockKey`] to exactly one shard (high hash bits, disjoint from the
/// low bits the in-shard bucket index consumes), so two threads touching
/// blocks on different shards share **no** lock at all. Cross-shard
/// state — global quota balances, adaptive switch decisions, tuned-quota
/// overlays — is reconciled only at epoch boundaries by the facade, which
/// also owns the epoch clock: a shard never runs a boundary itself.
struct Shard {
    capacity: usize,
    policy_cfg: EvictPolicy,
    partitioning: PartitionConfig,
    low_watermark: usize,
    high_watermark: usize,
    frames: Vec<Mutex<Frame>>,
    buckets: Vec<Mutex<Vec<(BlockKey, u32)>>>,
    // Every leaf lock and written atomic below sits on a [`CacheLine`] of
    // its own, away from the read-mostly fields every hit loads.
    free: CacheLine<FreeList>,
    dirty: CacheLine<Mutex<VecDeque<u32>>>,
    /// Leaf lock (see module docs): the frame table (residency, pins,
    /// owners, the per-app ledger), candidate ranking and recency state.
    policy: CacheLine<Mutex<PolicyState>>,
    /// Leaf lock: frames charged per app — resident frames plus
    /// acquisitions in flight (charged before install, uncharged on evict
    /// or abort), so the strict-quota admission check is race-free. The
    /// quota is exact in the single-threaded simulation; under concurrent
    /// direct-API use, a candidate that changes hands between the
    /// owner-filtered `next_candidate` and its revalidation can offset an
    /// app's count by one transiently (the same benign-race class as the
    /// pre-existing candidate/pin revalidation).
    charges: CacheLine<Mutex<HashMap<u32, usize>>>,
    /// Leaf lock: quota overrides installed by the adaptive tuner's
    /// epoch recommendations. Consulted before the static
    /// `partitioning.quotas`; only ever holds apps that were quota'd in
    /// config (the tuner redistributes, it never invents partitions).
    tuned_quotas: CacheLine<Mutex<HashMap<u32, usize>>>,
    /// Accesses (hits + misses + probes + touches) per policy epoch; 0
    /// disables epochs.
    epoch_accesses: usize,
    /// The facade's epoch clock: accesses across all shards since
    /// construction. Bumped only when epochs are enabled — with
    /// `epoch_accesses == 0` nobody reads it.
    epoch_clock: StdArc<AtomicU64>,
    /// Shared handle to the frame table's per-frame atomic ref/recency
    /// words — the lock-free half of the hit fast path. Cloned out of the
    /// table once at construction; live policy migration keeps the table,
    /// so the handle never goes stale.
    ref_words: RefWords,
    /// Bounded lock-free side-buffer of deferred [`AccessEvent`]s (see
    /// the module docs); drained into the policy under its leaf lock.
    ring: EventRing,
    /// The policy ranks from the atomic ref words (static clock): a
    /// touch event has no deferred effect at all (the word was stored at
    /// access time), and an *unattributed* hit/miss nothing beyond a
    /// counter bump, so both collapse out of the ring — the cheapest
    /// possible fast path for the paper's default configuration.
    count_only_unattributed: bool,
    /// Store the ref word on hits/touches at all: true when the policy
    /// ranks from it (clock), consumes the app-touch mask at scan time
    /// (sharing-aware), or could migrate to either (any adaptive
    /// configuration). A static LRU/LFU/2Q/ARC manager never consumes the
    /// words, so it skips the per-hit `fetch_or`.
    touch_words: bool,
    pending_hits: CacheLine<AtomicU64>,
    pending_misses: CacheLine<AtomicU64>,
    /// Apply events under the policy lock at access time instead of
    /// through the ring — the pre-fast-path reference behavior, kept for
    /// differential tests and as the bench baseline.
    eager: bool,
    /// Leaf lock, cooperative authoritative mode only: keys evicted or
    /// invalidated since the last [`BufferManager::take_evicted`] drain.
    /// The cache module turns the drained batch into directory-removal
    /// updates to the mgr. `None` keeps the hot path untouched.
    evicted_log: CacheLine<Option<Mutex<Vec<BlockKey>>>>,
    /// Leaf lock, singleton-preserving mode only: blocks believed to be
    /// duplicated in a peer's cache (learned from peer transfers). The
    /// eviction scan prefers these — a duplicate is cheap to lose, the
    /// last cluster-wide copy is not. Advisory: a peer may have evicted
    /// its copy since, which costs one disk fetch, never correctness.
    duplicate_hints: CacheLine<Option<Mutex<std::collections::HashSet<BlockKey>>>>,
    /// Observability handles (`None` keeps every hot path at one
    /// never-taken branch).
    obs: Option<ManagerObs>,
    stats: AtomicStats,
}

/// The shared, finely-locked block cache — a facade over `N` independent
/// [`Shard`]s (see [`BufferManagerBuilder::shards`]; the default of 1 is
/// the paper's single pool).
///
/// The facade itself holds **no locks**: routing is a pure hash, the
/// aggregate counters are sums over shard-local atomics, and the only
/// facade-owned mutable state is the lock-free epoch clock/gate pair
/// below. Cross-shard coordination happens in exactly two places:
///
/// * **Epoch boundaries**: shards feed one shared access clock; when it
///   crosses `epoch_accesses` the thread that trips the gate collects
///   each shard's [`EpochObservation`], merges the ghost and refault
///   ledgers, makes ONE switch/quota decision over the merged evidence
///   (`kcache_adaptive::decide_epoch`), and applies the resulting
///   [`EpochDirective`] to every shard — so an adaptive switch migrates
///   all shards atomically with respect to epochs and no shard can
///   disagree about the live policy. Static policies have nothing to
///   observe; each shard's policy just ages.
/// * **Strict-quota spill**: per-shard strict quotas are the global
///   quota split across shards. When an app's traffic hashes unevenly
///   its home shard may fill while a sibling's slice idles; before a
///   write/insert is denied the facade moves one *quota unit* (never a
///   frame) from an under-used sibling to the home shard —
///   decrement-before-increment, so the global sum never exceeds the
///   configured quota at any instant.
pub struct BufferManager {
    shards: Box<[Shard]>,
    capacity: usize,
    policy_cfg: EvictPolicy,
    /// The *global* partition config (shards hold their split slices).
    partitioning: PartitionConfig,
    adaptive_cfg: Option<AdaptiveConfig>,
    epoch_accesses: usize,
    /// Minimum quota the adaptive tuner may shrink any app to — the
    /// backstop behind the tuner's own clamp (see
    /// [`quota_move_valid`](Self::quota_move_valid)).
    quota_floor: usize,
    /// Accesses across all shards since construction (the shards bump
    /// it; see [`Shard::epoch_clock`]). Stays 0 when epochs are off.
    epoch_clock: StdArc<AtomicU64>,
    /// Coordinated epoch boundaries already run.
    epoch_marks: AtomicU64,
    /// CAS gate: exactly one thread runs a due boundary.
    epoch_gate: AtomicBool,
}

/// Builder for [`BufferManager`] — the canonical construction surface.
///
/// Every knob defaults to the paper's behavior: clock + clean-first
/// replacement, watermarks at capacity/10 and capacity/4, a shared
/// (unpartitioned) pool, no adaptive meta-policy, no epochs, drained
/// accounting, node-local (non-cooperative) caching.
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
    capacity: usize,
    policy: EvictPolicy,
    low_watermark: usize,
    high_watermark: usize,
    partitioning: PartitionConfig,
    adaptive: Option<AdaptiveConfig>,
    epoch_accesses: usize,
    eager: bool,
    cooperative: Option<CooperativeConfig>,
    obs: Option<(StdArc<ObsHub>, u32)>,
    shards: usize,
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
            eager: false,
            cooperative: None,
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

    /// **Eager accounting**: apply every access event to the policy under
    /// its leaf lock at access time, exactly the pre-fast-path behavior.
    /// This is the reference the differential tests compare the drained
    /// path against, and the baseline the `buffer_manager` bench
    /// arbitrates with; production callers want the default (drained).
    pub fn eager_accounting(mut self, eager: bool) -> Self {
        self.eager = eager;
        self
    }

    /// Cooperative cluster-wide caching. [`DirectoryMode::Authoritative`]
    /// enables the evicted-key log (the module pushes removals to the
    /// mgr's directory); `singleton_preserving` enables the duplicate
    /// eviction preference. `None` keeps every hot path untouched.
    pub fn cooperative(mut self, cooperative: Option<CooperativeConfig>) -> Self {
        self.cooperative = cooperative;
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
    /// and charge ledger; blocks route
    /// to shards by the *high* bits of the key hash (the in-shard bucket
    /// index consumes the low bits). Quotas and watermarks are split the
    /// same way, sums preserved; epochs are coordinated by the facade so
    /// adaptive decisions stay global (see [`BufferManager`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    pub fn build(self) -> BufferManager {
        let BufferManagerBuilder {
            capacity,
            policy,
            low_watermark,
            high_watermark,
            partitioning,
            adaptive,
            epoch_accesses,
            eager,
            cooperative,
            obs,
            shards: n_shards,
        } = self;
        assert!(capacity > 0);
        assert!(n_shards >= 1, "at least one shard");
        assert!(n_shards <= capacity, "more shards than frames");
        assert!(low_watermark <= high_watermark && high_watermark <= capacity);
        partitioning.validate(capacity).unwrap_or_else(|e| panic!("bad partitioning: {e}"));
        let quota_floor = adaptive.as_ref().map_or(1, |a| a.quota_floor.max(1));
        let epoch_clock = StdArc::new(AtomicU64::new(0));
        let caps = split_units(capacity, n_shards);
        let lows = split_units(low_watermark, n_shards);
        let highs = split_units(high_watermark, n_shards);
        let shards: Vec<Shard> = (0..n_shards)
            .map(|i| {
                // Per-shard slice of the partition plan: each quota is
                // split like the capacity (remainder to low shards), so
                // the per-shard quotas of any app sum exactly to its
                // global quota. A slice may legitimately be 0 for small
                // quotas — strict admission then denies on that shard
                // until the facade lends it a unit from a sibling.
                let part = PartitionConfig {
                    mode: partitioning.mode,
                    quotas: partitioning
                        .quotas
                        .iter()
                        .map(|(&id, &q)| (id, split_units(q, n_shards)[i]))
                        .collect(),
                };
                Shard::build(ShardParams {
                    capacity: caps[i],
                    policy,
                    low_watermark: lows[i],
                    high_watermark: highs[i],
                    partitioning: part,
                    adaptive: adaptive.clone(),
                    epoch_accesses,
                    eager,
                    cooperative,
                    obs: obs.clone(),
                    epoch_clock: epoch_clock.clone(),
                })
            })
            .collect();
        BufferManager {
            shards: shards.into_boxed_slice(),
            capacity,
            policy_cfg: policy,
            partitioning,
            adaptive_cfg: adaptive,
            epoch_accesses,
            quota_floor,
            epoch_clock,
            epoch_marks: AtomicU64::new(0),
            epoch_gate: AtomicBool::new(false),
        }
    }
}

/// Split `total` units over `n` shards: `total / n` each, the remainder
/// distributed one-per-shard from index 0. Monotone in `total` (so split
/// watermarks never exceed split capacities) and sum-preserving.
fn split_units(total: usize, n: usize) -> Vec<usize> {
    let (base, rem) = (total / n, total % n);
    (0..n).map(|i| base + usize::from(i < rem)).collect()
}

/// Construction parameters for one [`Shard`] (the facade's split of the
/// builder knobs).
struct ShardParams {
    capacity: usize,
    policy: EvictPolicy,
    low_watermark: usize,
    high_watermark: usize,
    partitioning: PartitionConfig,
    adaptive: Option<AdaptiveConfig>,
    epoch_accesses: usize,
    eager: bool,
    cooperative: Option<CooperativeConfig>,
    obs: Option<(StdArc<ObsHub>, u32)>,
    epoch_clock: StdArc<AtomicU64>,
}

impl Shard {
    fn build(params: ShardParams) -> Shard {
        let ShardParams {
            capacity,
            policy,
            low_watermark,
            high_watermark,
            partitioning,
            adaptive,
            epoch_accesses,
            eager,
            cooperative,
            obs,
            epoch_clock,
        } = params;
        debug_assert!(capacity > 0);
        debug_assert!(low_watermark <= high_watermark && high_watermark <= capacity);
        let n_buckets = (capacity / 4).next_power_of_two().max(16);
        let adaptive = adaptive.map(|cfg| AdaptivePolicy::new(capacity, cfg));
        let is_adaptive = adaptive.is_some();
        let ranked = adaptive.as_ref().map_or(policy.kind, |a| a.live()).build(capacity);
        let ref_words = ranked.table().ref_words().clone();
        // Ghost simulators feed from the event stream, so an adaptive
        // shard keeps every event in the ring even while clock is live.
        let count_only_unattributed = !is_adaptive && ranked.ranker().ranks_from_ref_words();
        let touch_words =
            count_only_unattributed || is_adaptive || ranked.ranker().consumes_app_mask();
        let track_evictions =
            cooperative.is_some_and(|c| c.directory == crate::config::DirectoryMode::Authoritative);
        let singleton = cooperative.is_some_and(|c| c.singleton_preserving);
        let policy_label = if is_adaptive { "adaptive" } else { policy.kind.name() };
        let obs = obs.map(|(hub, node)| {
            let reg = hub.registry();
            ManagerObs {
                hits: reg.counter(&format!("cache.hits.{policy_label}")),
                misses: reg.counter(&format!("cache.misses.{policy_label}")),
                evictions_clean: reg.counter("cache.evictions_clean"),
                evictions_dirty: reg.counter("cache.evictions_dirty"),
                ring_overflows: reg.counter("cache.ring_overflows"),
                drain_batch: reg.histogram("cache.drain_batch"),
                scan_visits: reg.histogram("cache.scan_visits"),
                lock_contended: LEAF_NAMES
                    .map(|l| reg.counter(&format!("cache.lock_contended.{l}"))),
                lock_wait_ns: LEAF_NAMES.map(|l| reg.histogram(&format!("cache.lock_wait_ns.{l}"))),
                ev_eviction_scan: hub.intern("eviction_scan", Some("visited"), Some("dirty")),
                ev_epoch_tick: hub.intern("epoch_tick", Some("epoch"), Some("accesses")),
                ev_ring_overflow: hub.intern("ring_overflow", Some("overflows"), None),
                hits_seen: AtomicU64::new(0),
                misses_seen: AtomicU64::new(0),
                hub,
                node,
            }
        });
        Shard {
            capacity,
            policy_cfg: policy,
            partitioning,
            low_watermark,
            high_watermark,
            frames: (0..capacity).map(|_| Mutex::new(Frame::empty())).collect(),
            buckets: (0..n_buckets).map(|_| Mutex::new(Vec::new())).collect(),
            free: CacheLine(FreeList {
                frames: Mutex::new((0..capacity as u32).rev().collect()),
                len: AtomicUsize::new(capacity),
            }),
            dirty: CacheLine(Mutex::new(VecDeque::new())),
            policy: CacheLine(Mutex::new(PolicyState { ranked, adaptive, batch: Vec::new() })),
            charges: CacheLine(Mutex::new(HashMap::new())),
            tuned_quotas: CacheLine(Mutex::new(HashMap::new())),
            epoch_accesses,
            epoch_clock,
            ref_words,
            ring: EventRing::new(),
            count_only_unattributed,
            touch_words,
            pending_hits: CacheLine(AtomicU64::new(0)),
            pending_misses: CacheLine(AtomicU64::new(0)),
            eager,
            evicted_log: CacheLine(track_evictions.then(|| Mutex::new(Vec::new()))),
            duplicate_hints: CacheLine(
                singleton.then(|| Mutex::new(std::collections::HashSet::new())),
            ),
            obs,
            stats: AtomicStats::default(),
        }
    }

    /// Take one of the four measured leaf locks. An obs-wired manager
    /// tries first: only a failed try — the lock is held — is counted and
    /// its wait timed, so an uncontended acquisition reads no clock (the
    /// single-threaded simulator never does). Without a hub: `lock()`.
    fn lock_leaf<'a, T>(&'a self, leaf: Leaf, lock: &'a Mutex<T>) -> MutexGuard<'a, T> {
        let Some(o) = &self.obs else { return lock.lock() };
        if let Some(guard) = lock.try_lock() {
            return guard;
        }
        o.lock_contended[leaf as usize].inc();
        let waited = std::time::Instant::now();
        let guard = lock.lock();
        o.lock_wait_ns[leaf as usize].record(waited.elapsed().as_nanos() as u64);
        guard
    }

    fn lock_policy(&self) -> MutexGuard<'_, PolicyState> {
        self.lock_leaf(Leaf::Policy, &self.policy)
    }

    fn free_frames(&self) -> usize {
        self.free.len.load(Ordering::Relaxed)
    }

    fn resident(&self) -> usize {
        self.capacity - self.free_frames()
    }

    fn dirty_queue_len(&self) -> usize {
        self.lock_leaf(Leaf::Dirty, &self.dirty).len()
    }

    /// The replacement policy's own event ledger (hits/misses/evictions as
    /// the policy subsystem saw them). Drains deferred events first, so a
    /// snapshot never under-reports traffic that already happened.
    pub fn policy_stats(&self) -> PolicyStats {
        let mut p = self.lock_policy();
        self.drain_locked(&mut p);
        p.ranked.table().stats
    }

    /// The adaptive meta-policy's observability ledger (switch log, ghost
    /// hit rates, quota moves); `None` when a static policy runs. Drains
    /// deferred events first (ghost feeds ride the same ring).
    pub fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        let mut p = self.lock_policy();
        self.drain_locked(&mut p);
        p.adaptive.as_ref().map(AdaptivePolicy::stats)
    }

    /// Lifetime ghost ledgers per candidate (`None`: static policy) —
    /// the slice of [`adaptive_stats`](Self::adaptive_stats) that differs
    /// per shard, without cloning the decision logs.
    fn ghost_rates(&self) -> Option<Vec<GhostRate>> {
        let mut p = self.lock_policy();
        self.drain_locked(&mut p);
        p.adaptive.as_ref().map(AdaptivePolicy::ghost_rates)
    }

    /// The [`PolicyKind`] currently ranking candidates — for a static
    /// policy the configured kind, for the adaptive meta-policy whichever
    /// candidate is live right now.
    pub fn live_policy_kind(&self) -> PolicyKind {
        self.lock_policy().ranked.kind().expect("shards rank with built-in policies")
    }

    /// Per-application occupancy and attributed traffic (ascending by app
    /// id; apps appear once they have touched the cache). Drains deferred
    /// events first, so the ledger reflects every access that happened.
    pub fn app_usage(&self) -> Vec<(AppId, AppUsage)> {
        let mut p = self.lock_policy();
        self.drain_locked(&mut p);
        p.ranked.table().app_usage()
    }

    /// Frames currently owned (installed) by `app`.
    pub fn resident_of(&self, app: AppId) -> usize {
        self.lock_policy().ranked.table().resident_of(app)
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.get(),
            misses: self.stats.misses.get(),
            insertions: self.stats.insertions.get(),
            writes_absorbed: self.stats.writes_absorbed.get(),
            writes_passthrough: self.stats.writes_passthrough.get(),
            evictions_clean: self.stats.evictions_clean.get(),
            evictions_dirty: self.stats.evictions_dirty.get(),
            flush_blocks: self.stats.flush_blocks.get(),
            invalidated: self.stats.invalidated.get(),
            invalidated_dirty: self.stats.invalidated_dirty.get(),
        }
    }

    /// Times the access-event ring refused a push because it was full —
    /// the producer-becomes-drainer event. Nothing is lost (the refused
    /// event is applied inline under the policy lock), but each
    /// occurrence is a window where the lock-free hit path convoyed on
    /// the lock; sustained growth means drain points are too sparse for
    /// the traffic.
    pub fn event_ring_overflows(&self) -> u64 {
        self.ring.overflows()
    }

    #[inline]
    fn bucket_of(&self, key: &BlockKey) -> usize {
        (key.hash() as usize) & (self.buckets.len() - 1)
    }

    /// Pop the queued events (FIFO per producer) and apply them. Must be
    /// called with the policy lock held (`p` is the locked state); the
    /// manager drains at every point where the policy is about to rank,
    /// decide, or report, so deferred events are always applied before
    /// they could be observed missing.
    fn drain_locked(&self, p: &mut PolicyState) {
        // Collapsed count-only events (see `count_only_unattributed`):
        // counters commute, and these carry no recency or per-app
        // information by construction, so their order relative to the
        // ring's batches is irrelevant.
        // Load first: an attributed workload never writes these, and a
        // swap would pull the line exclusive all the same.
        let take = |pending: &AtomicU64| match pending.load(Ordering::Relaxed) {
            0 => 0,
            _ => pending.swap(0, Ordering::Relaxed),
        };
        let stats = &mut p.ranked.table_mut().stats;
        stats.hits += take(&self.pending_hits);
        stats.misses += take(&self.pending_misses);
        // At most one ring's worth per stripe and call: sustained
        // lock-free producers must not pin the drainer under the policy
        // lock (or grow the batch) indefinitely. Anything newer lands at
        // the next drain point; single-threaded one stripe fills, never
        // past its capacity, so equivalence is unaffected.
        let mut batch = std::mem::take(&mut p.batch);
        self.ring.drain_into(&mut batch);
        if !batch.is_empty() {
            if let Some(o) = &self.obs {
                o.drain_batch.record(batch.len() as u64);
            }
            p.drain(&batch);
            batch.clear();
        }
        p.batch = batch;
        if let Some(o) = &self.obs {
            // The ledger just drained into is the cheap total here (one
            // line, under the lock held anyway; summing the striped
            // counters reads sixteen): it trails them only by events still
            // queued, which the next sync point claims.
            let stats = &p.ranked.table().stats;
            Self::obs_sync_counts(o, stats.hits, stats.misses);
        }
    }

    /// Fold the growth of the hit/miss totals since the last sync point
    /// into the hub's metric counters (see [`ManagerObs`]: the hit path
    /// never touches the metric cells itself). Each high-water mark
    /// advances by CAS, so a delta is claimed by exactly one caller —
    /// concurrent sync points may split the growth but never count it
    /// twice, and a total that trails the mark claims nothing.
    fn obs_sync_counts(o: &ManagerObs, hits: u64, misses: u64) {
        fn claim(seen: &AtomicU64, now: u64) -> u64 {
            let mut old = seen.load(Ordering::Relaxed);
            loop {
                if now <= old {
                    return 0;
                }
                match seen.compare_exchange_weak(old, now, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => return now - old,
                    Err(v) => old = v,
                }
            }
        }
        let d = claim(&o.hits_seen, hits);
        if d > 0 {
            o.hits.add(d);
        }
        let d = claim(&o.misses_seen, misses);
        if d > 0 {
            o.misses.add(d);
        }
    }

    /// Bring the hub's deferred metric counters (hit/miss mirrors) up to
    /// date. Call before exporting or asserting on hub metrics outside
    /// an epoch boundary — epoch marks and ring drains sync implicitly,
    /// but a pure-hit tail between the last drain and an export would
    /// otherwise be missing. No-op without a wired hub.
    pub fn obs_flush(&self) {
        if let Some(o) = &self.obs {
            Self::obs_sync_counts(o, self.stats.hits.get(), self.stats.misses.get());
        }
    }

    /// Route one access event to the policy: inline under the lock in
    /// eager mode, through the lock-free ring otherwise. Unattributed
    /// events under a ref-word-ranking policy collapse into plain counter
    /// bumps — no ring traffic (see `count_only_unattributed`). A full
    /// ring makes the producer the drainer (bounded memory, nothing
    /// dropped).
    fn push_event(&self, ev: AccessEvent) {
        if self.eager {
            self.lock_policy().drain(std::slice::from_ref(&ev));
            return;
        }
        if self.count_only_unattributed {
            match ev.kind {
                // The ref word was already stored at access time; under a
                // ref-word-ranking policy a touch (any app) defers
                // nothing — no ledger, no replay — so it never needs
                // the ring.
                kcache_policy::AccessKind::Touch => return,
                kcache_policy::AccessKind::Hit | kcache_policy::AccessKind::ProbeHit
                    if ev.app == AppId::UNKNOWN =>
                {
                    self.pending_hits.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                kcache_policy::AccessKind::Miss if ev.app == AppId::UNKNOWN => {
                    self.pending_misses.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                _ => {}
            }
        }
        if !self.ring.push(ev) {
            if let Some(o) = &self.obs {
                o.ring_overflows.inc();
                o.hub.instant(o.ev_ring_overflow, o.node, 0, self.ring.overflows(), 0);
            }
            let mut p = self.lock_policy();
            self.drain_locked(&mut p);
            p.drain(std::slice::from_ref(&ev));
        }
    }

    /// Hit accounting + recency refresh — the lock-free fast path: atomic
    /// counters, one relaxed store into the frame's ref/recency word, one
    /// ring enqueue. No policy lock.
    fn record_hit(&self, idx: u32, key: BlockKey, app: AppId) {
        self.stats.hits.inc();
        if self.touch_words {
            self.ref_words.touch(idx, app);
        }
        self.push_event(AccessEvent::hit(idx, key.hash(), app));
        self.note_epoch_access();
    }

    fn record_miss(&self, app: AppId) {
        self.stats.misses.inc();
        self.push_event(AccessEvent::miss(app));
        self.note_epoch_access();
    }

    /// Feed the facade's epoch clock: every access event (hit, miss,
    /// probe hit, recency touch — see the module docs for the
    /// participation rule) counts once, as the last effect of its
    /// operation, so the facade's boundary check right after the call
    /// sees the state the access left. Epochs off: no work at all.
    fn note_epoch_access(&self) {
        if self.epoch_accesses != 0 {
            self.epoch_clock.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Epoch boundary, step 1: drain this shard's deferred events (so the
    /// decision sees every access that preceded the boundary) and export
    /// its epoch observation — the live policy, each candidate ghost's
    /// per-epoch ledger, each app's refault count. `None` for static
    /// policies.
    fn epoch_observe(&self) -> Option<EpochObservation> {
        let mut p = self.lock_policy();
        self.drain_locked(&mut p);
        p.adaptive.as_ref().map(AdaptivePolicy::epoch_observe)
    }

    /// Epoch boundary, step 2: drain, let the live policy age
    /// (`SharingAware` referent decay), and — adaptive shards — apply
    /// the merged cross-shard decision. Every shard receives the same
    /// directive, so a policy switch migrates all shards within one
    /// boundary; static shards (`None`) age independently, there is no
    /// shared decision to coordinate.
    fn epoch_apply(&self, directive: Option<&EpochDirective>) {
        let mut p = self.lock_policy();
        self.drain_locked(&mut p);
        let PolicyState { ranked, adaptive, .. } = &mut *p;
        ranked.epoch_tick();
        if let (Some(a), Some(directive)) = (adaptive, directive) {
            if let Some(to) = a.epoch_apply(directive) {
                ranked.migrate(to);
            }
        }
    }

    /// Epoch-boundary observability (cold path, obs-wired managers only):
    /// close the hub's metric window, refresh the per-app occupancy and
    /// ghost-rate gauges, and emit the boundary's adaptive decisions as
    /// trace events. `decision` is what the facade just decided and
    /// applied — the candidate that was live going in, and the directive
    /// (its quota move already validated) — so `kcache-adaptive` itself
    /// stays free of any obs dependency. Each decision event carries its
    /// *reason* as args: the deciding ghost hit rates for a policy
    /// switch, the losing/winning refault counts for a quota move.
    ///
    /// Usage, quota gauges and ghost rates come in as arguments so the
    /// facade can pass *merged* cross-shard views — a shard
    /// publishing only its own slice would clobber the global gauges with
    /// a partial picture.
    fn obs_epoch_mark(
        &self,
        access_n: u64,
        usage: &[(AppId, AppUsage)],
        quota_gauges: &[(AppId, usize)],
        ghost_rates: &[GhostRate],
        decision: Option<(PolicyKind, &EpochDirective)>,
    ) {
        let Some(o) = &self.obs else { return };
        // Sync the deferred hit/miss mirrors *before* closing the metric
        // window, so each epoch delta carries exactly its own accesses.
        Self::obs_sync_counts(o, self.stats.hits.get(), self.stats.misses.get());
        o.hub.mark_epoch();
        let epoch = access_n / self.epoch_accesses as u64;
        o.hub.instant(o.ev_epoch_tick, o.node, 0, epoch, access_n);
        let reg = o.hub.registry();
        for (app, u) in usage {
            reg.gauge(&format!("app.{}.resident", app.0)).set(u.resident);
            reg.gauge(&format!("app.{}.hits", app.0)).set(u.hits);
            reg.gauge(&format!("app.{}.misses", app.0)).set(u.misses);
        }
        for (app, q) in quota_gauges {
            reg.gauge(&format!("app.{}.quota", app.0)).set(*q as u64);
        }
        for g in ghost_rates {
            // Basis points: gauges are integers, rates are 0.0..=1.0.
            reg.gauge(&format!("ghost.{}.rate_bp", g.kind.name()))
                .set((g.rate() * 10_000.0) as u64);
        }
        let Some((from, directive)) = decision else { return };
        if let Some((to, from_rate, to_rate)) = directive.switch_to {
            let id = o.hub.intern(
                &format!("policy_switch {}->{}", from.name(), to.name()),
                Some("from_rate_bp"),
                Some("to_rate_bp"),
            );
            let bp = |rate: f64| (rate * 10_000.0) as u64;
            o.hub.instant(id, o.node, 0, bp(from_rate), bp(to_rate));
        }
        if let Some((from, to, frames, from_refaults, to_refaults)) = directive.quota_move {
            let id = o.hub.intern(
                &format!("quota_move app{}->app{} x{}", from.0, to.0, frames),
                Some("from_refaults"),
                Some("to_refaults"),
            );
            o.hub.instant(id, o.node, 0, from_refaults, to_refaults);
        }
    }

    /// Recency-only refresh (no hit/miss ledger): sync-write refreshes,
    /// secondary-waiter attribution, merges into a resident block. A
    /// touch is a real access, so it **does** advance the epoch clock
    /// (the explicit participation rule in the module docs — before PR 5
    /// touches silently never aged the policies).
    fn note_touch(&self, idx: u32, key: BlockKey, app: AppId) {
        if self.touch_words {
            self.ref_words.touch(idx, app);
        }
        self.push_event(AccessEvent::touch(idx, key.hash(), app));
        self.note_epoch_access();
    }

    /// File the block about to be installed into frame `idx` with the
    /// policy, in **one hold, before the block is visible** in its bucket:
    /// the evicted tenant's bookkeeping ([`Victim`]), the ghosts' view of
    /// the reference, the insert (clock inserts with the reference bit
    /// clear — a block earns its second chance by being read; LRU-style
    /// policies link at the MRU end; ghost-list policies consult their
    /// history of `key`). So no concurrent scan is ever offered a frame
    /// whose table entry describes the previous tenant; a caller that then
    /// loses the install race un-files ([`unfile`](Self::unfile)).
    ///
    /// The ring is drained first, so accesses that preceded the install
    /// keep their order — unless a scan found `victim`: it drained a moment
    /// ago and this thread has queued nothing since. The old owner's
    /// uncharge follows the hold: over-counted until then, strict quotas
    /// err toward denying, never toward over-admitting.
    fn file_insert(&self, idx: u32, key: BlockKey, app: AppId, victim: Option<&Victim>) {
        let mut p = self.lock_policy();
        let evicted_owner = match victim {
            Some(victim) => Some(p.settle_eviction(idx, victim)),
            None => {
                self.drain_locked(&mut p);
                None
            }
        };
        if let Some(a) = &mut p.adaptive {
            // An insert is the tail of a miss in the live stream: the
            // ghosts see the same reference.
            a.observe(key.hash(), app);
        }
        p.ranked.insert(idx, key.hash(), app);
        drop(p);
        if let Some(owner) = evicted_owner {
            self.uncharge(owner);
        }
    }

    /// A lost install race (`key` went resident in another frame first):
    /// take the filed, never visible block back out of the policy — ghost
    /// lists hear of it as of any removal — and recycle frame and charge.
    fn unfile(&self, idx: u32, key: BlockKey, app: AppId) {
        self.lock_policy().ranked.remove(idx, key.hash());
        self.push_free(idx);
        self.uncharge(app);
    }

    /// [`AccessKind::Touch`]: a recency touch of `key` if it is resident.
    fn touch_impl(&self, key: BlockKey, app: AppId) -> AccessOutcome {
        let idx = {
            let b = self.buckets[self.bucket_of(&key)].lock();
            match b.iter().find(|(k, _)| *k == key) {
                Some(&(_, idx)) => idx,
                None => return AccessOutcome::Miss,
            }
        };
        self.note_touch(idx, key, app);
        AccessOutcome::Hit
    }

    /// Look up `key` in the hash table (no data copy, no stats). Mostly for
    /// tests and diagnostics.
    pub fn contains(&self, key: BlockKey) -> bool {
        let b = self.buckets[self.bucket_of(&key)].lock();
        b.iter().any(|(k, _)| *k == key)
    }

    /// Append `span` of `key` to `out` if it is resident and valid,
    /// **without** touching any accounting: no hit/miss counters, no
    /// recency refresh, no per-app ledger, no epoch tick. This is the
    /// read the cooperative tier serves *peer* fetches with — remote
    /// traffic must not distort this node's local hit ratio or promote
    /// blocks its own applications are not using.
    pub fn read_resident(&self, key: BlockKey, span: Span, out: &mut Vec<u8>) -> bool {
        let b = self.buckets[self.bucket_of(&key)].lock();
        let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) else {
            return false;
        };
        let f = self.frames[idx as usize].lock();
        if f.key == Some(key) && f.valid.covers(span) {
            out.extend_from_slice(&f.data[span.start as usize..span.end as usize]);
            true
        } else {
            false
        }
    }

    /// One attributed request ([`Access`]) against this shard: reads,
    /// probes, write-behind absorbs, clean installs, touches.
    pub fn access(&self, key: BlockKey, req: Access<'_>) -> AccessOutcome {
        let app = req.app;
        match req.kind {
            AccessKind::Read { span, out } => {
                debug_assert_eq!(out.len(), span.len() as usize);
                self.read_impl(key, span, app, |src| out.copy_from_slice(src))
            }
            AccessKind::ReadWith { span, sink } => self.read_impl(key, span, app, sink),
            AccessKind::Probe { span } => {
                if self.probe_impl(key, span, app) {
                    AccessOutcome::Hit
                } else {
                    AccessOutcome::Miss
                }
            }
            AccessKind::Write { home, span, bytes } => {
                AccessOutcome::Write(self.write_impl(key, home, span, bytes, app))
            }
            AccessKind::InsertClean { home, span, bytes } => {
                AccessOutcome::Inserted(self.insert_clean_impl(key, home, span, bytes, app))
            }
            AccessKind::Touch => self.touch_impl(key, app),
        }
    }

    /// Hand `span` of `key` to `sink` and count a hit, or count a miss.
    fn read_impl(
        &self,
        key: BlockKey,
        span: Span,
        app: AppId,
        sink: impl FnOnce(&[u8]),
    ) -> AccessOutcome {
        let b = self.buckets[self.bucket_of(&key)].lock();
        if let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) {
            let f = self.frames[idx as usize].lock();
            // Frame in hand (bucket → frame), the bucket has done its job:
            // the copy runs under the frame lock alone.
            drop(b);
            if f.key == Some(key) && f.valid.covers(span) {
                sink(&f.data[span.start as usize..span.end as usize]);
                drop(f);
                self.record_hit(idx, key, app);
                return AccessOutcome::Hit;
            }
        } else {
            drop(b);
        }
        self.record_miss(app);
        AccessOutcome::Miss
    }

    fn probe_impl(&self, key: BlockKey, span: Span, app: AppId) -> bool {
        let b = self.buckets[self.bucket_of(&key)].lock();
        let hit = b.iter().any(|(k, idx)| {
            *k == key && {
                let f = self.frames[*idx as usize].lock();
                f.key == Some(key) && f.valid.covers(span)
            }
        });
        drop(b);
        if hit {
            self.stats.hits.inc();
            self.push_event(AccessEvent::probe_hit(app));
            self.note_epoch_access();
        } else {
            self.record_miss(app);
        }
        hit
    }

    fn push_free(&self, idx: u32) {
        let mut frames = self.lock_leaf(Leaf::Free, &self.free.frames);
        frames.push(idx);
        self.free.len.store(frames.len(), Ordering::Relaxed);
    }

    /// A free frame, if there is one. An empty list — the steady state of
    /// a full cache — is seen from the length mirror, without the lock.
    fn pop_free(&self) -> Option<u32> {
        if self.free_frames() == 0 {
            return None;
        }
        let mut frames = self.lock_leaf(Leaf::Free, &self.free.frames);
        let idx = frames.pop();
        self.free.len.store(frames.len(), Ordering::Relaxed);
        idx
    }

    // -----------------------------------------------------------------
    // Quota charging (per-app frame accounting)
    // -----------------------------------------------------------------

    /// Effective frame quota of `app`: the adaptive tuner's override when
    /// one has been applied, the static [`PartitionConfig`] quota
    /// otherwise, `None` when unconstrained. This — not
    /// `partitioning().quota_of` — is what admission, reclaim and
    /// reporting measure against once online tuning is running.
    pub fn quota_of(&self, app: AppId) -> Option<usize> {
        if self.partitioning.mode == PartitionMode::Shared || app == AppId::UNKNOWN {
            return None;
        }
        if let Some(&q) = self.tuned_quotas.lock().get(&app.0) {
            return Some(q);
        }
        self.partitioning.quotas.get(&app.0).copied()
    }

    /// Does quota accounting apply to `app` at all (is `quota_of` `Some`)?
    /// Read off the static configuration, lock-free: the tuned overlay only
    /// holds apps quota'd in config. A shared pool, where this never holds,
    /// thus takes neither quota lock on any path.
    fn quota_applies(&self, app: AppId) -> bool {
        self.partitioning.mode != PartitionMode::Shared
            && app != AppId::UNKNOWN
            && self.partitioning.quotas.contains_key(&app.0)
    }

    /// Quota gate: charge one frame to `app` if it is under quota.
    ///
    /// The effective quota is resolved **while holding the charges
    /// lock** (charges → tuned_quotas is the one sanctioned leaf-lock
    /// nesting; nothing takes them in the other order). This serializes
    /// admission against the facade's cross-shard quota lending, which
    /// also inspects the charge under the charges lock before moving a
    /// quota unit away — without it a grant racing a lend could leave a
    /// shard one frame over its (just-shrunk) slice.
    fn admit(&self, app: AppId) -> Admission {
        if !self.quota_applies(app) {
            return Admission::Unlimited;
        }
        let mut c = self.lock_leaf(Leaf::Charges, &self.charges);
        let Some(quota) = self.quota_of(app) else {
            return Admission::Unlimited;
        };
        let n = c.entry(app.0).or_insert(0);
        if *n < quota {
            *n += 1;
            Admission::Granted
        } else {
            Admission::OverQuota
        }
    }

    /// Is `app` at (or over) its quota slice on this shard? Used by the
    /// facade to decide whether a write/insert is about to be denied and
    /// a quota unit should be borrowed from a sibling shard first.
    fn at_quota(&self, app: AppId) -> bool {
        if !self.quota_applies(app) {
            return false;
        }
        let c = self.lock_leaf(Leaf::Charges, &self.charges);
        match self.quota_of(app) {
            Some(q) => c.get(&app.0).copied().unwrap_or(0) >= q,
            None => false,
        }
    }

    /// Give up one unused quota unit of `app`'s slice on this shard
    /// (facade spill, strict mode): succeeds only while the app's charge
    /// is strictly below its slice, so the unit being moved is provably
    /// idle here. Runs under the charges lock — see [`Shard::admit`].
    fn lend_quota_unit(&self, app: AppId) -> bool {
        let c = self.lock_leaf(Leaf::Charges, &self.charges);
        let Some(q) = self.quota_of(app) else {
            return false;
        };
        if q == 0 || c.get(&app.0).copied().unwrap_or(0) >= q {
            return false;
        }
        self.tuned_quotas.lock().insert(app.0, q - 1);
        true
    }

    /// Grow `app`'s quota slice on this shard by the unit a sibling just
    /// lent (the decrement happened first, so the global sum never
    /// exceeds the configured quota).
    fn receive_quota_unit(&self, app: AppId) {
        let c = self.lock_leaf(Leaf::Charges, &self.charges);
        if let Some(q) = self.quota_of(app) {
            self.tuned_quotas.lock().insert(app.0, q + 1);
        }
        drop(c);
    }

    /// Overwrite `app`'s tuned-quota slice (facade epoch reconciliation:
    /// the merged tuner decision re-split across shards).
    fn set_tuned_quota(&self, app: AppId, quota: usize) {
        self.tuned_quotas.lock().insert(app.0, quota);
    }

    /// Charge one frame to `app` bypassing the quota check (soft-mode
    /// borrowing, and rebalancing after a self-eviction uncharged one).
    fn charge_unchecked(&self, app: AppId) {
        if self.quota_applies(app) {
            *self.lock_leaf(Leaf::Charges, &self.charges).entry(app.0).or_insert(0) += 1;
        }
    }

    /// Return one charged frame (aborted acquisition, eviction or
    /// invalidation of an owned frame).
    fn uncharge(&self, app: AppId) {
        if self.quota_applies(app) {
            if let Some(n) = self.lock_leaf(Leaf::Charges, &self.charges).get_mut(&app.0) {
                *n = n.saturating_sub(1);
            }
        }
    }

    /// The quota'd app currently holding the most frames beyond its quota
    /// (soft mode only — strict never lets anyone past it). Ties break
    /// toward the higher app id.
    fn most_over_quota(&self) -> Option<AppId> {
        if self.partitioning.mode != PartitionMode::Soft {
            return None;
        }
        self.most_over_quota_any_mode()
    }

    /// [`BufferManager::most_over_quota`] without the soft-mode gate —
    /// the harvester's victim preference. Measured against *effective*
    /// (tuned) quotas; after a quota transfer the app whose quota just
    /// shrank is over it and becomes the preferred reclaim source, which
    /// is exactly how tuner decisions take physical effect.
    fn most_over_quota_any_mode(&self) -> Option<AppId> {
        if self.partitioning.mode == PartitionMode::Shared {
            return None;
        }
        // Resolve every effective quota under one tuned-lock acquisition
        // (this runs once per harvest-loop iteration — per-app `quota_of`
        // calls would take the lock k times).
        let quotas: Vec<(u32, usize)> = {
            let tuned = self.tuned_quotas.lock();
            self.partitioning
                .quotas
                .iter()
                .map(|(&id, &q)| (id, tuned.get(&id).copied().unwrap_or(q)))
                .collect()
        };
        let c = self.lock_leaf(Leaf::Charges, &self.charges);
        quotas
            .into_iter()
            .filter_map(|(id, q)| {
                let n = c.get(&id).copied().unwrap_or(0);
                (n > q).then(|| (n - q, id))
            })
            .max()
            .map(|(_, id)| AppId(id))
    }

    /// Take a frame from the free list or evict one, on behalf of `app`
    /// and subject to its quota. Returns the frame index and, when a block
    /// had to be evicted for it, the [`Victim`] the install still has to
    /// settle (with its flush snapshot, when a dirty frame was
    /// sacrificed).
    ///
    /// Enforcement order (the partitioning subsystem's core rule): an
    /// over-quota app makes room **inside its own partition first** —
    /// candidates are drawn from its own resident frames via the policy's
    /// owner-filtered scan — and only soft mode may then fall back to
    /// borrowing (free frames, then the victim-agnostic scan). An
    /// under-quota app with a full pool reclaims from the most over-quota
    /// borrower before disturbing anyone else.
    fn acquire_frame_for(
        &self,
        app: AppId,
        allow_dirty_eviction: bool,
    ) -> Option<(u32, Option<Victim>)> {
        let evicted = |(idx, victim)| (idx, Some(victim));
        match self.admit(app) {
            admission @ (Admission::Unlimited | Admission::Granted) => {
                if let Some(idx) = self.pop_free() {
                    return Some((idx, None));
                }
                // Soft mode: pull borrowed frames back before the
                // victim-agnostic scan touches well-behaved tenants.
                if let Some(borrower) = self.most_over_quota() {
                    if let Some(got) = self.evict_one_owned(allow_dirty_eviction, Some(borrower)) {
                        return Some(evicted(got));
                    }
                }
                match self.evict_one_owned(allow_dirty_eviction, None) {
                    Some(got) => Some(evicted(got)),
                    None => {
                        if admission == Admission::Granted {
                            self.uncharge(app);
                        }
                        None
                    }
                }
            }
            Admission::OverQuota => {
                if self.partitioning.mode == PartitionMode::Soft {
                    // Borrow idle capacity before cannibalizing our own
                    // partition.
                    if let Some(idx) = self.pop_free() {
                        self.charge_unchecked(app);
                        return Some((idx, None));
                    }
                }
                // Feed on our own partition: owner-filtered candidates.
                if let Some(got) = self.evict_one_owned(allow_dirty_eviction, Some(app)) {
                    // Settling the self-eviction will uncharge one frame:
                    // charge the incoming block (net residency unchanged).
                    self.charge_unchecked(app);
                    return Some(evicted(got));
                }
                if self.partitioning.mode == PartitionMode::Strict {
                    return None; // hard cap: the insert is denied
                }
                self.charge_unchecked(app);
                match self.evict_one_owned(allow_dirty_eviction, None) {
                    Some(got) => Some(evicted(got)),
                    None => {
                        self.uncharge(app);
                        None
                    }
                }
            }
        }
    }

    /// Evict one block and return its (now unlinked) frame, optionally
    /// restricted to frames owned by one application (the partition-local
    /// scan). Candidate *ranking* comes from the policy; candidate
    /// *admissibility* (clean pass, dirty allowance, in-flight flushes,
    /// the owner filter) stays with the manager and the shared table. The
    /// owner filter travels as an argument on every `next_candidate` call
    /// — never stored in the policy — so a concurrent scan can interleave
    /// with this one (that was always true of the shared scan cursor) but
    /// can never widen or redirect this scan's partition boundary.
    fn evict_one_owned(&self, allow_dirty: bool, owner: Option<AppId>) -> Option<(u32, Victim)> {
        // Pass 0: clean victims only (if clean_first). Pass 1: anything
        // (subject to allow_dirty). With the singleton-preserving
        // preference live (and any duplicates known), each cleanliness
        // tier first scans for cluster-duplicated blocks only — a
        // duplicate is cheap to lose, the last cluster-wide copy is not —
        // then falls back to the unrestricted scan. The preference is a
        // manager-side admissibility filter over the policy's own
        // candidate order, so all six policies and the adaptive wrapper
        // compose with it unchanged.
        let clean_passes: &[bool] =
            if self.policy_cfg.clean_first { &[true, false] } else { &[false] };
        let have_dups = self.duplicate_hints.as_ref().is_some_and(|h| !h.lock().is_empty());
        let dup_passes: &[bool] = if have_dups { &[true, false] } else { &[false] };
        for &clean_only in clean_passes {
            for &dup_only in dup_passes {
                // One hold ranks over up-to-date metadata — every deferred
                // access applied before the scan decides a victim order —
                // and takes the scan's first candidate.
                let mut candidate = {
                    let mut p = self.lock_policy();
                    self.drain_locked(&mut p);
                    p.ranked.begin_scan();
                    p.ranked.next_candidate(owner)
                };
                let mut visited = 0u64;
                while let Some(idx) = candidate {
                    visited += 1;
                    if let Some(victim) = self.try_evict_idx(idx, clean_only, allow_dirty, dup_only)
                    {
                        if let Some(o) = &self.obs {
                            o.scan_visits.record(visited);
                            let dirty = victim.flush.is_some() as u64;
                            o.hub.instant(o.ev_eviction_scan, o.node, 0, visited, dirty);
                        }
                        return Some((idx, victim));
                    }
                    // Leaf lock only while asking; dropped before
                    // bucket/frame.
                    candidate = self.lock_policy().ranked.next_candidate(owner);
                }
            }
        }
        None
    }

    /// Unlink the block in frame `idx` from bucket and frame if it is an
    /// admissible victim. The policy-side half is the caller's to settle
    /// ([`Victim`]); until then the table still describes the old tenant,
    /// and a concurrent scan offered this frame finds it keyless, moves on.
    fn try_evict_idx(
        &self,
        idx: u32,
        clean_only: bool,
        allow_dirty: bool,
        dup_only: bool,
    ) -> Option<Victim> {
        // Read the key briefly, then retake in bucket → frame order.
        let key = {
            let f = self.frames[idx as usize].lock();
            match f.key {
                Some(k) => {
                    if f.flushing {
                        return None; // in flight to the iod: untouchable
                    }
                    if clean_only && f.is_dirty() {
                        return None;
                    }
                    if !allow_dirty && f.is_dirty() {
                        return None;
                    }
                    k
                }
                None => return None, // free or being reassigned
            }
        };
        if dup_only && !self.is_duplicate_hint(key) {
            return None; // this pass only sacrifices cluster-duplicated blocks
        }
        let mut bucket = self.buckets[self.bucket_of(&key)].lock();
        let mut f = self.frames[idx as usize].lock();
        if f.key != Some(key) {
            return None; // changed hands meanwhile
        }
        if f.flushing {
            return None;
        }
        if clean_only && f.is_dirty() {
            return None;
        }
        if !allow_dirty && f.is_dirty() {
            return None;
        }
        let flush = if f.is_dirty() {
            self.stats.evictions_dirty.inc();
            if let Some(o) = &self.obs {
                o.evictions_dirty.inc();
            }
            let span = f.dirty;
            Some(FlushItem {
                key,
                home: f.home,
                span,
                data: f.data[span.start as usize..span.end as usize].to_vec(),
            })
        } else {
            self.stats.evictions_clean.inc();
            if let Some(o) = &self.obs {
                o.evictions_clean.inc();
            }
            None
        };
        bucket.retain(|(k, _)| *k != key);
        f.key = None;
        f.valid = Span::EMPTY;
        f.dirty = Span::EMPTY;
        f.in_dirty_list = false;
        drop(f);
        drop(bucket);
        self.note_departure(key);
        Some(Victim { key, flush })
    }

    /// Cooperative bookkeeping for a block leaving this cache (eviction
    /// or invalidation): log it for the module's directory-removal push
    /// and forget any duplicate hint — both advisory, both `None`-gated.
    fn note_departure(&self, key: BlockKey) {
        if let Some(log) = &*self.evicted_log {
            log.lock().push(key);
        }
        if let Some(hints) = &*self.duplicate_hints {
            hints.lock().remove(&key);
        }
    }

    fn is_duplicate_hint(&self, key: BlockKey) -> bool {
        self.duplicate_hints.as_ref().is_some_and(|h| h.lock().contains(&key))
    }

    /// Cooperative mode: a peer transfer revealed that `key` now lives in
    /// (at least) one other node's cache. Duplicated blocks are preferred
    /// eviction victims under the singleton-preserving preference. No-op
    /// unless singleton preservation is configured.
    pub fn note_duplicate(&self, key: BlockKey) {
        if let Some(hints) = &*self.duplicate_hints {
            hints.lock().insert(key);
        }
    }

    /// Blocks currently hinted as cluster-duplicated (diagnostics/tests).
    pub fn duplicate_hint_count(&self) -> usize {
        self.duplicate_hints.as_ref().map_or(0, |h| h.lock().len())
    }

    /// Drain the evicted-key log (cooperative authoritative mode): every
    /// key evicted or invalidated since the last drain, for the module to
    /// turn into directory-removal updates. Empty unless eviction
    /// tracking is configured.
    pub fn take_evicted(&self) -> Vec<BlockKey> {
        match &*self.evicted_log {
            Some(log) => std::mem::take(&mut *log.lock()),
            None => Vec::new(),
        }
    }

    fn insert_clean_impl(
        &self,
        key: BlockKey,
        home: NodeId,
        span: Span,
        bytes: &[u8],
        app: AppId,
    ) -> Option<FlushItem> {
        debug_assert_eq!(bytes.len(), span.len() as usize);
        loop {
            {
                let b = self.buckets[self.bucket_of(&key)].lock();
                if let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) {
                    let mut f = self.frames[idx as usize].lock();
                    if f.key == Some(key) {
                        if f.valid.mergeable(span) {
                            f.data[span.start as usize..span.end as usize].copy_from_slice(bytes);
                            f.valid = f.valid.merge(span);
                            f.home = home;
                        }
                        drop(f);
                        drop(b);
                        self.note_touch(idx, key, app);
                        return None;
                    }
                }
            }
            let Some((idx, victim)) = self.acquire_frame_for(app, true) else {
                // Cache wedged (all frames contended) or the app's strict
                // quota denied the install; the fetched bytes are simply
                // not cached.
                return None;
            };
            self.file_insert(idx, key, app, victim.as_ref());
            let flush = victim.and_then(|v| v.flush);
            {
                let mut b = self.buckets[self.bucket_of(&key)].lock();
                if b.iter().any(|(k, _)| *k == key) {
                    // Someone beat us to it; recycle our frame and merge via
                    // the fast path above.
                    drop(b);
                    self.unfile(idx, key, app);
                    if let Some(fl) = flush {
                        return Some(fl);
                    }
                    continue;
                }
                let mut f = self.frames[idx as usize].lock();
                debug_assert!(f.key.is_none());
                f.key = Some(key);
                f.home = home;
                f.valid = span;
                f.dirty = Span::EMPTY;
                f.data[span.start as usize..span.end as usize].copy_from_slice(bytes);
                f.in_dirty_list = false;
                b.push((key, idx));
            }
            self.stats.insertions.inc();
            return flush;
        }
    }

    fn write_impl(
        &self,
        key: BlockKey,
        home: NodeId,
        span: Span,
        bytes: &[u8],
        app: AppId,
    ) -> WriteOutcome {
        debug_assert_eq!(bytes.len(), span.len() as usize);
        loop {
            {
                let b = self.buckets[self.bucket_of(&key)].lock();
                if let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) {
                    let mut f = self.frames[idx as usize].lock();
                    if f.key == Some(key) {
                        if !f.valid.mergeable(span) {
                            // Disjoint sub-block writes would leave an
                            // unknown gap; refuse rather than flush garbage.
                            self.stats.writes_passthrough.inc();
                            return WriteOutcome::PassThrough;
                        }
                        f.data[span.start as usize..span.end as usize].copy_from_slice(bytes);
                        f.valid = f.valid.merge(span);
                        // Dirty spans may be disjoint (e.g. two sub-block
                        // writes into a fully-fetched block); the hull is
                        // safe because every gap byte is valid.
                        debug_assert!(f.valid.covers(f.dirty.hull(span)));
                        f.dirty = f.dirty.hull(span);
                        f.home = home;
                        let need_dirty_link = !f.in_dirty_list;
                        f.in_dirty_list = true;
                        drop(f);
                        drop(b);
                        if need_dirty_link {
                            self.lock_leaf(Leaf::Dirty, &self.dirty).push_back(idx);
                        }
                        self.note_touch(idx, key, app);
                        self.stats.writes_absorbed.inc();
                        return WriteOutcome::Absorbed;
                    }
                }
            }
            // Need a frame, but never sacrifice dirty data for new writes
            // (the paper's write-blocking point) — and never let a write
            // push its app over a strict quota.
            let Some((idx, victim)) = self.acquire_frame_for(app, false) else {
                self.stats.writes_passthrough.inc();
                return WriteOutcome::PassThrough;
            };
            debug_assert!(
                victim.as_ref().is_none_or(|v| v.flush.is_none()),
                "clean eviction cannot yield a flush"
            );
            self.file_insert(idx, key, app, victim.as_ref());
            {
                let mut b = self.buckets[self.bucket_of(&key)].lock();
                if b.iter().any(|(k, _)| *k == key) {
                    drop(b);
                    self.unfile(idx, key, app);
                    continue;
                }
                let mut f = self.frames[idx as usize].lock();
                debug_assert!(f.key.is_none());
                f.key = Some(key);
                f.home = home;
                f.valid = span;
                f.dirty = span;
                f.data[span.start as usize..span.end as usize].copy_from_slice(bytes);
                f.in_dirty_list = true;
                b.push((key, idx));
            }
            self.lock_leaf(Leaf::Dirty, &self.dirty).push_back(idx);
            self.stats.insertions.inc();
            self.stats.writes_absorbed.inc();
            return WriteOutcome::Absorbed;
        }
    }

    /// Overwrite `span` of `key` *only if resident and mergeable* — no
    /// allocation. Used by sync-writes: the cached copy is refreshed with
    /// the propagated data and, since the server now holds these bytes, any
    /// dirty state covered by the span is cleared. Returns whether the
    /// block was updated.
    pub fn update_if_present(&self, key: BlockKey, span: Span, bytes: &[u8]) -> bool {
        debug_assert_eq!(bytes.len(), span.len() as usize);
        let idx = {
            let b = self.buckets[self.bucket_of(&key)].lock();
            let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) else {
                return false;
            };
            let mut f = self.frames[idx as usize].lock();
            if f.key != Some(key) || !f.valid.mergeable(span) {
                return false;
            }
            f.data[span.start as usize..span.end as usize].copy_from_slice(bytes);
            f.valid = f.valid.merge(span);
            if span.covers(f.dirty) {
                f.dirty = Span::EMPTY;
                f.in_dirty_list = false;
            }
            idx
        };
        self.note_touch(idx, key, AppId::UNKNOWN);
        true
    }

    /// Collect up to `max` dirty blocks (oldest-dirtied first) and mark
    /// them *in flight*: the frames stay dirty and unevictable until the
    /// caller reports the write-back acknowledged via
    /// [`BufferManager::flush_complete`]. Writes landing during the flight
    /// merge into the frame and re-queue it for a follow-up flush.
    pub fn take_dirty(&self, max: usize) -> Vec<FlushItem> {
        let mut out = Vec::new();
        let mut taken: Vec<u32> = Vec::new();
        let mut requeue: Vec<u32> = Vec::new();
        while out.len() < max {
            let idx = {
                let mut d = self.lock_leaf(Leaf::Dirty, &self.dirty);
                match d.pop_front() {
                    Some(i) => i,
                    None => break,
                }
            };
            let mut f = self.frames[idx as usize].lock();
            if !f.in_dirty_list || f.key.is_none() || !f.is_dirty() {
                f.in_dirty_list = false;
                continue; // stale queue entry
            }
            if f.flushing {
                // Re-dirtied while a flush is already in flight: leave it
                // queued for the next round.
                requeue.push(idx);
                continue;
            }
            let span = f.dirty;
            out.push(FlushItem {
                key: f.key.unwrap(),
                home: f.home,
                span,
                data: f.data[span.start as usize..span.end as usize].to_vec(),
            });
            f.flushing = true;
            f.in_dirty_list = false;
            taken.push(idx);
        }
        if !requeue.is_empty() {
            let mut d = self.lock_leaf(Leaf::Dirty, &self.dirty);
            for idx in requeue.into_iter().rev() {
                d.push_front(idx);
            }
        }
        if !taken.is_empty() {
            // Pin in-flight frames so no policy offers them as candidates.
            let mut p = self.lock_policy();
            for idx in taken {
                p.ranked.table_mut().set_pinned(idx, true);
            }
        }
        self.stats.flush_blocks.add(out.len() as u64);
        out
    }

    /// The iod acknowledged the write-back of `key`'s `span`: the frame
    /// becomes clean (and evictable) unless new writes re-dirtied it during
    /// the flight, in which case the merged span stays queued for the next
    /// flush round.
    pub fn flush_complete(&self, key: BlockKey, span: Span) {
        let idx = {
            let b = self.buckets[self.bucket_of(&key)].lock();
            let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) else {
                return; // invalidated or evicted during the flight
            };
            let mut f = self.frames[idx as usize].lock();
            if f.key != Some(key) {
                return;
            }
            f.flushing = false;
            if !f.in_dirty_list && f.dirty == span {
                // No writes landed during the flight: clean.
                f.dirty = Span::EMPTY;
            }
            // Otherwise the (merged) dirty span is already queued for
            // re-flush.
            idx
        };
        self.lock_policy().ranked.table_mut().set_pinned(idx, false);
    }

    /// Drop cached copies of the listed blocks (sync-write coherence).
    /// Dirty copies are discarded — the sync-writer's data supersedes them.
    pub fn invalidate<I: IntoIterator<Item = BlockKey>>(&self, keys: I) -> (u64, u64) {
        let mut dropped = 0;
        let mut dropped_dirty = 0;
        for key in keys {
            let idx = {
                let mut b = self.buckets[self.bucket_of(&key)].lock();
                let Some(pos) = b.iter().position(|(k, _)| *k == key) else {
                    continue;
                };
                let (_, idx) = b.remove(pos);
                let mut f = self.frames[idx as usize].lock();
                debug_assert_eq!(f.key, Some(key));
                if f.is_dirty() {
                    dropped_dirty += 1;
                }
                f.key = None;
                f.valid = Span::EMPTY;
                f.dirty = Span::EMPTY;
                f.in_dirty_list = false;
                f.flushing = false;
                idx
            };
            let owner = {
                let mut p = self.lock_policy();
                // Pending accesses to this block must land before its
                // removal (the eager path applied them at access time).
                self.drain_locked(&mut p);
                let owner = p.ranked.table().owner_of(idx);
                // Coherence drop, not capacity pressure: the adaptive
                // tuner's refault memory never hears of it.
                p.ranked.remove(idx, key.hash());
                owner
            };
            self.uncharge(owner);
            self.push_free(idx);
            self.note_departure(key);
            dropped += 1;
        }
        self.stats.invalidated.add(dropped);
        self.stats.invalidated_dirty.add(dropped_dirty);
        (dropped, dropped_dirty)
    }

    /// Has the free list fallen below the low watermark? (the harvester's
    /// wake-up condition).
    pub fn needs_harvest(&self) -> bool {
        self.free_frames() < self.low_watermark
    }

    /// Harvester sweep: free clean blocks until the high watermark is
    /// reached; dirty blocks encountered are snapshot for urgent flushing
    /// (they become clean and harvestable next sweep).
    ///
    /// The sweep is **quota-aware**: while any application holds more
    /// frames than its (effective) quota, candidates are drawn from the
    /// most over-quota owner first via the policy's owner-filtered scan —
    /// an idle tenant is no longer drained below its quota just because a
    /// busy neighbor filled the pool. Only when no over-quota owner has an
    /// evictable frame does the sweep fall back to the victim-agnostic
    /// scan.
    pub fn harvest(&self) -> Vec<FlushItem> {
        let mut flush = Vec::new();
        for _ in 0..2 * self.capacity {
            // One read per turn: other threads free frames too, and a
            // second read for the dirty arm's subtraction could exceed the
            // watermark this one was tested against.
            let free = self.free_frames();
            if free >= self.high_watermark {
                break;
            }
            let evicted = self
                .most_over_quota_any_mode()
                .and_then(|borrower| self.evict_one_owned(false, Some(borrower)))
                .or_else(|| self.evict_one_owned(false, None));
            match evicted {
                Some((idx, victim)) => {
                    debug_assert!(victim.flush.is_none());
                    // No install, so no filing hold to carry it to.
                    let owner = self.lock_policy().settle_eviction(idx, &victim);
                    self.uncharge(owner);
                    self.push_free(idx);
                }
                None => {
                    // Only dirty frames left: flush a batch and stop; the
                    // flusher acknowledgments make them evictable later.
                    flush.extend(self.take_dirty(self.high_watermark - free));
                    break;
                }
            }
        }
        flush
    }

    /// Keys currently resident (diagnostics/tests; O(capacity)).
    fn resident_keys(&self) -> Vec<BlockKey> {
        let mut out = Vec::new();
        for b in &self.buckets {
            for (k, _) in b.lock().iter() {
                out.push(*k);
            }
        }
        out.sort_unstable();
        out
    }
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

    /// The *global* partition configuration (each shard enforces its
    /// per-shard split of these quotas).
    pub fn partitioning(&self) -> &PartitionConfig {
        &self.partitioning
    }

    /// Number of independent shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_idx_of(&self, key: &BlockKey) -> usize {
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
    fn ghost_rates(&self) -> Option<Vec<GhostRate>> {
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
    /// docs: nothing is lost, each is a lock-convoy window).
    pub fn event_ring_overflows(&self) -> u64 {
        self.shards.iter().map(|s| s.event_ring_overflows()).sum()
    }

    /// `app`'s *global* effective quota — the sum of its per-shard
    /// slices (tuned overlays included) — or `None` when unpartitioned.
    pub fn quota_of(&self, app: AppId) -> Option<usize> {
        let mut total = None;
        for s in self.shards.iter() {
            if let Some(q) = s.quota_of(app) {
                *total.get_or_insert(0) += q;
            }
        }
        total
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

    fn publish_shard_gauges(&self) {
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

    /// Strict-quota spill: an app at its per-shard quota here may
    /// have idle quota on a sibling shard (hash skew); move one *quota
    /// unit* — never a frame — from an under-used sibling to this shard
    /// so the install admits. Decrement-before-increment keeps the global
    /// sum of per-shard quotas ≤ the configured quota at every instant,
    /// so the strict bound is never violated, only redistributed.
    fn pre_admit_spill(&self, home: &Shard, key: &BlockKey, app: AppId) {
        if self.partitioning.mode != PartitionMode::Strict
            || app == AppId::UNKNOWN
            || !self.partitioning.quotas.contains_key(&app.0)
        {
            return;
        }
        // A resident key merges in place (no new frame, no charge); only
        // a genuinely new install can be quota-denied.
        if home.contains(*key) || !home.at_quota(app) {
            return;
        }
        for s in self.shards.iter() {
            if std::ptr::eq(s, home) {
                continue;
            }
            if s.lend_quota_unit(app) {
                home.receive_quota_unit(app);
                return;
            }
        }
    }

    /// Look up `key` in the hash table (no data copy, no stats). Mostly
    /// for tests and diagnostics.
    pub fn contains(&self, key: BlockKey) -> bool {
        self.shard_of(&key).contains(key)
    }

    /// Append `span` of `key` to `out` if it is resident and valid,
    /// **without** touching any accounting: no hit/miss counters, no
    /// recency refresh, no per-app ledger, no epoch tick. This is the
    /// read the cooperative tier serves *peer* fetches with — remote
    /// traffic must not distort this node's local hit ratio or promote
    /// blocks its own applications are not using.
    pub fn read_resident(&self, key: BlockKey, span: Span, out: &mut Vec<u8>) -> bool {
        self.shard_of(&key).read_resident(key, span, out)
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

    /// Record that `key` is believed duplicated in a peer's cache
    /// (singleton-preserving cooperative mode; no-op otherwise).
    pub fn note_duplicate(&self, key: BlockKey) {
        self.shard_of(&key).note_duplicate(key);
    }

    /// Blocks currently hinted as duplicated cluster-wide.
    pub fn duplicate_hint_count(&self) -> usize {
        self.shards.iter().map(|s| s.duplicate_hint_count()).sum()
    }

    /// Drain the evicted/invalidated key log (cooperative authoritative
    /// mode; empty otherwise).
    pub fn take_evicted(&self) -> Vec<BlockKey> {
        self.shards.iter().flat_map(|s| s.take_evicted()).collect()
    }

    /// Run any due epoch boundary. The CAS gate admits exactly one
    /// thread per boundary; latecomers return immediately — the boundary
    /// they observed due is already being handled.
    fn maybe_epoch(&self) {
        if self.epoch_accesses == 0 {
            return;
        }
        let ea = self.epoch_accesses as u64;
        loop {
            let marks = self.epoch_marks.load(Ordering::Acquire);
            if self.epoch_clock.load(Ordering::Relaxed) < (marks + 1) * ea {
                return;
            }
            if self
                .epoch_gate
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                return;
            }
            // Re-check under the gate: the previous holder may have run
            // the boundary we saw due.
            let marks = self.epoch_marks.load(Ordering::Relaxed);
            if self.epoch_clock.load(Ordering::Relaxed) >= (marks + 1) * ea {
                self.run_epoch_boundary(marks + 1);
                self.epoch_marks.store(marks + 1, Ordering::Release);
            }
            self.epoch_gate.store(false, Ordering::Release);
        }
    }

    /// One epoch boundary, the same for every shard count.
    ///
    /// Collect each shard's [`EpochObservation`] and merge the ghost and
    /// refault ledgers. If there is one (an adaptive meta-policy runs),
    /// make ONE switch/quota decision over the merged evidence
    /// (`kcache_adaptive::decide_epoch`) and push the identical
    /// [`EpochDirective`] into every shard — a switch therefore migrates
    /// all shards within one boundary and no shard can disagree about
    /// the live policy; a quota transfer is validated globally
    /// ([`quota_move_valid`](Self::quota_move_valid)) and re-split across
    /// shards. If there is none, the policies are static and each shard's
    /// just ages (`SharingAware` referent decay) — the same
    /// [`Shard::epoch_apply`], with no directive.
    fn run_epoch_boundary(&self, epoch_n: u64) {
        let merged = self.shards.iter().filter_map(|s| s.epoch_observe()).reduce(|mut m, o| {
            m.merge(&o);
            m
        });
        // `(the candidate live going in, the directive every shard
        // applies)`; `None` for static policies.
        let decision = merged.map(|merged| {
            let cfg = self.adaptive_cfg.as_ref().expect("only the adaptive policy observes");
            let quotas: Vec<(AppId, usize)> = self
                .partitioning
                .quotas
                .keys()
                .filter_map(|&id| self.quota_of(AppId(id)).map(|q| (AppId(id), q)))
                .collect();
            let (mut directive, mv) = decide_epoch(&merged, cfg, &quotas, self.capacity);
            let mv = mv.filter(|mv| self.quota_move_valid(mv));
            if mv.is_none() {
                directive.quota_move = None;
            }
            (merged.live, directive, mv)
        });
        for s in self.shards.iter() {
            s.epoch_apply(decision.as_ref().map(|d| &d.1));
        }
        if let Some((_, _, Some(mv))) = &decision {
            for (app, q) in [(mv.winner, mv.winner_quota), (mv.loser, mv.loser_quota)] {
                let split = split_units(q, self.shards.len());
                for (s, &slice) in self.shards.iter().zip(&split) {
                    s.set_tuned_quota(app, slice);
                }
            }
        }
        // Observability: one mark with *merged* cross-shard views (shard
        // 0's hub handles speak for the node), plus the per-shard balance
        // gauges.
        if self.shards[0].obs.is_some() {
            let usage = self.app_usage();
            let quota_gauges: Vec<(AppId, usize)> =
                usage.iter().filter_map(|&(a, _)| self.quota_of(a).map(|q| (a, q))).collect();
            self.shards[0].obs_epoch_mark(
                epoch_n * self.epoch_accesses as u64,
                &usage,
                &quota_gauges,
                &self.ghost_rates().unwrap_or_default(),
                decision.as_ref().map(|(live, directive, _)| (*live, directive)),
            );
            self.publish_shard_gauges();
        }
    }

    /// The backstop behind the tuner's own clamps, and the one place a
    /// quota move is validated. The tuner redistributes existing
    /// partitions: it may never invent a quota (unknown or unpartitioned
    /// app), empty one, exceed the pool, or shrink one below the fairness
    /// floor — and a transfer applies in full or not at all (applying
    /// only one side of a grow/shrink pair would leak total quota). The
    /// floor bounds how far a quota may be *shrunk*: an app whose
    /// configured quota starts below it may still grow toward it (a veto
    /// there would kill the whole pair and leave the tuner permanently
    /// dead for such configs).
    fn quota_move_valid(&self, mv: &QuotaMove) -> bool {
        [(mv.winner, mv.winner_quota), (mv.loser, mv.loser_quota)].into_iter().all(|(app, q)| {
            q >= 1
                && q <= self.capacity
                && self.quota_of(app).is_some_and(|cur| q >= self.quota_floor || q >= cur)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs::Fid;

    fn key(b: u64) -> BlockKey {
        BlockKey::new(Fid(1), b)
    }

    fn full_block(fill: u8) -> Vec<u8> {
        vec![fill; CACHE_BLOCK_SIZE]
    }

    fn mgr(cap: usize) -> BufferManager {
        BufferManager::builder(cap).build()
    }

    /// Test-local shorthand over [`BufferManager::access`], the one entry
    /// point, so a test reads as the sequence of operations it drives.
    trait Ops {
        fn run(&self, key: BlockKey, app: AppId, kind: AccessKind<'_>) -> AccessOutcome;

        fn try_read_by(&self, key: BlockKey, span: Span, out: &mut [u8], app: AppId) -> bool {
            self.run(key, app, AccessKind::Read { span, out }).is_hit()
        }
        fn try_read(&self, key: BlockKey, span: Span, out: &mut [u8]) -> bool {
            self.try_read_by(key, span, out, AppId::UNKNOWN)
        }
        fn probe_by(&self, key: BlockKey, span: Span, app: AppId) -> bool {
            self.run(key, app, AccessKind::Probe { span }).is_hit()
        }
        fn insert_clean_by(
            &self,
            key: BlockKey,
            home: NodeId,
            span: Span,
            bytes: &[u8],
            app: AppId,
        ) -> Option<FlushItem> {
            match self.run(key, app, AccessKind::InsertClean { home, span, bytes }) {
                AccessOutcome::Inserted(fl) => fl,
                other => panic!("InsertClean yielded {other:?}"),
            }
        }
        fn insert_clean(
            &self,
            key: BlockKey,
            home: NodeId,
            span: Span,
            bytes: &[u8],
        ) -> Option<FlushItem> {
            self.insert_clean_by(key, home, span, bytes, AppId::UNKNOWN)
        }
        fn write_by(
            &self,
            key: BlockKey,
            home: NodeId,
            span: Span,
            bytes: &[u8],
            app: AppId,
        ) -> WriteOutcome {
            match self.run(key, app, AccessKind::Write { home, span, bytes }) {
                AccessOutcome::Write(out) => out,
                other => panic!("Write yielded {other:?}"),
            }
        }
        fn write(&self, key: BlockKey, home: NodeId, span: Span, bytes: &[u8]) -> WriteOutcome {
            self.write_by(key, home, span, bytes, AppId::UNKNOWN)
        }
        fn touch(&self, key: BlockKey, app: AppId) -> bool {
            self.run(key, app, AccessKind::Touch).is_hit()
        }
    }

    impl Ops for BufferManager {
        fn run(&self, key: BlockKey, app: AppId, kind: AccessKind<'_>) -> AccessOutcome {
            self.access(key, Access { app, kind })
        }
    }

    #[test]
    fn read_miss_then_insert_then_hit() {
        let m = mgr(4);
        let mut buf = vec![0u8; 4096];
        assert!(!m.try_read(key(0), Span::FULL, &mut buf));
        assert!(m.insert_clean(key(0), NodeId(2), Span::FULL, &full_block(7)).is_none());
        assert!(m.try_read(key(0), Span::FULL, &mut buf));
        assert!(buf.iter().all(|&b| b == 7));
        let s = m.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.insertions, 1);
        // The policy's own ledger tracks the same events.
        let ps = m.policy_stats();
        assert_eq!((ps.hits, ps.misses, ps.inserts), (1, 1, 1));
    }

    #[test]
    fn partial_span_reads() {
        let m = mgr(4);
        m.insert_clean(key(0), NodeId(0), Span::FULL, &full_block(9));
        let mut buf = vec![0u8; 100];
        assert!(m.try_read(key(0), Span::new(500, 600), &mut buf));
        assert!(buf.iter().all(|&b| b == 9));
    }

    #[test]
    fn partially_valid_block_serves_only_valid_span() {
        let m = mgr(4);
        // Absorb a sub-block write: bytes 1000..2000 valid.
        let out = m.write(key(3), NodeId(0), Span::new(1000, 2000), &vec![5u8; 1000]);
        assert_eq!(out, WriteOutcome::Absorbed);
        let mut buf = vec![0u8; 500];
        assert!(m.try_read(key(3), Span::new(1200, 1700), &mut buf));
        assert!(buf.iter().all(|&b| b == 5));
        let mut buf2 = vec![0u8; 100];
        assert!(!m.try_read(key(3), Span::new(0, 100), &mut buf2), "invalid span must miss");
    }

    #[test]
    fn eviction_prefers_clean_blocks() {
        let m = mgr(3);
        m.insert_clean(key(0), NodeId(0), Span::FULL, &full_block(0));
        assert_eq!(m.write(key(1), NodeId(0), Span::FULL, &full_block(1)), WriteOutcome::Absorbed);
        m.insert_clean(key(2), NodeId(0), Span::FULL, &full_block(2));
        // Cache full: 0 and 2 clean, 1 dirty. Inserting 3 must evict a clean
        // block, never the dirty one.
        let fl = m.insert_clean(key(3), NodeId(0), Span::FULL, &full_block(3));
        assert!(fl.is_none(), "clean eviction expected, got flush {:?}", fl);
        assert!(m.contains(key(1)), "dirty block must survive");
        assert_eq!(m.stats().evictions_clean, 1);
        assert_eq!(m.stats().evictions_dirty, 0);
        assert_eq!(m.policy_stats().evictions_clean, 1);
    }

    #[test]
    fn insert_evicts_dirty_as_last_resort_and_returns_flush() {
        let m = mgr(2);
        assert_eq!(m.write(key(0), NodeId(4), Span::FULL, &full_block(1)), WriteOutcome::Absorbed);
        assert_eq!(m.write(key(1), NodeId(4), Span::FULL, &full_block(2)), WriteOutcome::Absorbed);
        let fl = m.insert_clean(key(2), NodeId(0), Span::FULL, &full_block(3));
        let fl = fl.expect("dirty eviction must hand back a flush item");
        assert_eq!(fl.home, NodeId(4));
        assert_eq!(fl.span, Span::FULL);
        assert_eq!(fl.data.len(), CACHE_BLOCK_SIZE);
        assert_eq!(m.stats().evictions_dirty, 1);
        assert_eq!(m.policy_stats().evictions_dirty, 1);
    }

    #[test]
    fn writes_pass_through_when_cache_all_dirty() {
        let m = mgr(2);
        assert_eq!(m.write(key(0), NodeId(0), Span::FULL, &full_block(1)), WriteOutcome::Absorbed);
        assert_eq!(m.write(key(1), NodeId(0), Span::FULL, &full_block(2)), WriteOutcome::Absorbed);
        assert_eq!(
            m.write(key(2), NodeId(0), Span::FULL, &full_block(3)),
            WriteOutcome::PassThrough,
            "no clean frame to take: write must block/pass through"
        );
        assert_eq!(m.stats().writes_passthrough, 1);
        // A flush snapshot alone does not free space: the frames are in
        // flight until acknowledged.
        let flushed = m.take_dirty(10);
        assert_eq!(flushed.len(), 2);
        assert_eq!(
            m.write(key(2), NodeId(0), Span::FULL, &full_block(3)),
            WriteOutcome::PassThrough,
            "in-flight frames are not evictable"
        );
        for it in &flushed {
            m.flush_complete(it.key, it.span);
        }
        assert_eq!(m.write(key(2), NodeId(0), Span::FULL, &full_block(3)), WriteOutcome::Absorbed);
    }

    #[test]
    fn disjoint_subblock_write_passes_through() {
        let m = mgr(4);
        assert_eq!(
            m.write(key(0), NodeId(0), Span::new(0, 100), &[1u8; 100]),
            WriteOutcome::Absorbed
        );
        // Gap between 100 and 2000: absorbing would leave unknowable bytes
        // inside the flush hull.
        assert_eq!(
            m.write(key(0), NodeId(0), Span::new(2000, 2100), &[2u8; 100]),
            WriteOutcome::PassThrough
        );
        // Contiguous extension is fine.
        assert_eq!(
            m.write(key(0), NodeId(0), Span::new(100, 200), &[3u8; 100]),
            WriteOutcome::Absorbed
        );
    }

    #[test]
    fn take_dirty_snapshots_and_cleans() {
        let m = mgr(4);
        m.write(key(0), NodeId(1), Span::new(0, 1000), &vec![7u8; 1000]);
        m.write(key(1), NodeId(2), Span::FULL, &full_block(8));
        let items = m.take_dirty(10);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].key, key(0), "FIFO: oldest dirty first");
        assert_eq!(items[0].span, Span::new(0, 1000));
        assert!(items[0].data.iter().all(|&b| b == 7));
        assert_eq!(items[1].home, NodeId(2));
        assert!(m.take_dirty(10).is_empty(), "both flights outstanding");
        assert_eq!(m.dirty_queue_len(), 0);
        for it in &items {
            m.flush_complete(it.key, it.span);
        }
        assert!(m.take_dirty(10).is_empty(), "clean after acknowledgment");
    }

    #[test]
    fn redirty_after_flush_requeues() {
        let m = mgr(4);
        m.write(key(0), NodeId(0), Span::FULL, &full_block(1));
        let first = m.take_dirty(10);
        assert_eq!(first.len(), 1);
        // Re-dirty during the flight: queued, but not re-taken until the
        // outstanding flush is acknowledged.
        m.write(key(0), NodeId(0), Span::new(0, 10), &[2u8; 10]);
        assert!(m.take_dirty(10).is_empty(), "flight still outstanding");
        m.flush_complete(first[0].key, first[0].span);
        let items = m.take_dirty(10);
        assert_eq!(items.len(), 1);
        assert_eq!(
            items[0].span,
            Span::FULL,
            "merged dirty span (flight span ∪ new write) re-flushes"
        );
        m.flush_complete(items[0].key, items[0].span);
        assert!(m.take_dirty(10).is_empty());
    }

    #[test]
    fn invalidate_drops_blocks_even_dirty() {
        let m = mgr(4);
        m.insert_clean(key(0), NodeId(0), Span::FULL, &full_block(1));
        m.write(key(1), NodeId(0), Span::FULL, &full_block(2));
        let (dropped, dropped_dirty) = m.invalidate(vec![key(0), key(1), key(9)]);
        assert_eq!(dropped, 2);
        assert_eq!(dropped_dirty, 1);
        assert!(!m.contains(key(0)));
        assert!(!m.contains(key(1)));
        assert_eq!(m.free_frames(), 4);
        // The stale dirty-queue entry must not produce a flush.
        assert!(m.take_dirty(10).is_empty());
        assert_eq!(m.policy_stats().removes, 2);
    }

    #[test]
    fn clock_approximates_lru() {
        let m = mgr(4);
        for i in 0..4 {
            m.insert_clean(key(i), NodeId(0), Span::FULL, &full_block(i as u8));
        }
        // Touch 0..3 except 2; then insert: victim should be an untouched
        // block (2) after ref bits are consumed.
        let mut buf = vec![0u8; 4096];
        for i in [0u64, 1, 3] {
            assert!(m.try_read(key(i), Span::FULL, &mut buf));
        }
        m.insert_clean(key(10), NodeId(0), Span::FULL, &full_block(9));
        assert!(!m.contains(key(2)), "unreferenced block should be the clock victim");
    }

    #[test]
    fn exact_lru_evicts_strictly_oldest() {
        let m = BufferManager::builder(3).policy(EvictPolicy::of(PolicyKind::ExactLru)).build();
        for i in 0..3 {
            m.insert_clean(key(i), NodeId(0), Span::FULL, &full_block(i as u8));
        }
        let mut buf = vec![0u8; 4096];
        assert!(m.try_read(key(0), Span::FULL, &mut buf)); // 1 is now LRU
        m.insert_clean(key(3), NodeId(0), Span::FULL, &full_block(3));
        assert!(!m.contains(key(1)));
        assert!(m.contains(key(0)) && m.contains(key(2)) && m.contains(key(3)));
    }

    #[test]
    fn lfu_protects_frequent_blocks() {
        let m = BufferManager::builder(3).policy(EvictPolicy::of(PolicyKind::Lfu)).build();
        for i in 0..3 {
            m.insert_clean(key(i), NodeId(0), Span::FULL, &full_block(i as u8));
        }
        let mut buf = vec![0u8; 4096];
        for _ in 0..5 {
            assert!(m.try_read(key(0), Span::FULL, &mut buf));
            assert!(m.try_read(key(2), Span::FULL, &mut buf));
        }
        assert!(m.try_read(key(1), Span::FULL, &mut buf)); // once: coldest
        m.insert_clean(key(3), NodeId(0), Span::FULL, &full_block(3));
        assert!(!m.contains(key(1)), "the least-frequently-used block is the LFU victim");
        assert!(m.contains(key(0)) && m.contains(key(2)));
    }

    #[test]
    fn sharing_aware_protects_multi_app_blocks() {
        let m = BufferManager::builder(3).policy(EvictPolicy::of(PolicyKind::SharingAware)).build();
        let (a, b) = (AppId(0), AppId(1));
        let mut buf = vec![0u8; 4096];
        m.insert_clean_by(key(0), NodeId(0), Span::FULL, &full_block(0), a);
        m.insert_clean_by(key(1), NodeId(0), Span::FULL, &full_block(1), a);
        m.insert_clean_by(key(2), NodeId(0), Span::FULL, &full_block(2), a);
        // Block 0 is referenced by both applications; 1 and 2 stay private
        // and are both touched *after* 0.
        assert!(m.try_read_by(key(0), Span::FULL, &mut buf, b));
        assert!(m.try_read_by(key(1), Span::FULL, &mut buf, a));
        assert!(m.try_read_by(key(2), Span::FULL, &mut buf, a));
        m.insert_clean_by(key(3), NodeId(0), Span::FULL, &full_block(3), b);
        assert!(m.contains(key(0)), "the shared block must be protected");
        assert!(!m.contains(key(1)), "the oldest private block is the victim");
    }

    #[test]
    fn all_policies_run_the_full_lifecycle() {
        for kind in PolicyKind::ALL {
            let m = BufferManager::builder(4).policy(EvictPolicy::of(kind)).build();
            let mut buf = vec![0u8; 4096];
            for i in 0..16 {
                if i % 3 == 0 {
                    assert_eq!(
                        m.write(key(i), NodeId(0), Span::FULL, &full_block(i as u8)),
                        WriteOutcome::Absorbed,
                        "{kind}: write {i}"
                    );
                } else {
                    m.insert_clean(key(i), NodeId(0), Span::FULL, &full_block(i as u8));
                }
                let _ = m.try_read(key(i), Span::FULL, &mut buf);
                if i % 5 == 4 {
                    for it in m.take_dirty(4) {
                        m.flush_complete(it.key, it.span);
                    }
                }
            }
            let _ = m.invalidate(m.resident_keys());
            assert_eq!(m.free_frames(), 4, "{kind}: frames leaked");
            let ps = m.policy_stats();
            assert_eq!(ps.inserts, ps.removes, "{kind}: policy residency ledger unbalanced");
        }
    }

    #[test]
    fn harvest_reaches_high_watermark() {
        let m = BufferManager::builder(10).watermarks(2, 5).build();
        for i in 0..10 {
            m.insert_clean(key(i), NodeId(0), Span::FULL, &full_block(0));
        }
        assert_eq!(m.free_frames(), 0);
        assert!(m.needs_harvest());
        let flush = m.harvest();
        assert!(flush.is_empty(), "all clean: nothing to flush");
        assert!(m.free_frames() >= 5, "free {} below high watermark", m.free_frames());
        assert!(!m.needs_harvest());
    }

    #[test]
    fn harvest_flushes_dirty_when_no_clean_left() {
        let m = BufferManager::builder(4).watermarks(2, 3).build();
        for i in 0..4 {
            m.write(key(i), NodeId(0), Span::FULL, &full_block(i as u8));
        }
        let flush = m.harvest();
        assert!(!flush.is_empty(), "harvester must push dirty blocks to the flusher");
        // Blocks stay resident and in flight; once the flush is
        // acknowledged a second harvest can free them.
        for it in &flush {
            m.flush_complete(it.key, it.span);
        }
        let flush2 = m.harvest();
        assert!(flush2.is_empty());
        assert!(m.free_frames() >= 3);
    }

    /// `harvest` on an all-dirty pool while another thread frees frames
    /// under it: the dirty arm's `high_watermark - free` used to read the
    /// free count a second time, so frames invalidated since the loop's
    /// test made it underflow — a panic in debug builds, "flush everything"
    /// in release. One thread sweeps without pause; the other keeps
    /// dropping more blocks than the high watermark and writing them back.
    #[test]
    fn harvest_survives_frames_freed_under_it() {
        let (capacity, high, dropped) = (16u64, 4, 6);
        let m = BufferManager::builder(capacity as usize).watermarks(2, high).build();
        for b in 0..capacity {
            m.write(key(b), NodeId(0), Span::FULL, &full_block(b as u8));
        }
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let sweeper = s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let urgent = m.harvest().len();
                    assert!(urgent <= high, "{urgent} urgent flushes to free {high} frames");
                }
            });
            for cycle in 0..4000 {
                let keys = (0..dropped).map(|i| key((cycle + i) % capacity));
                m.invalidate(keys.clone());
                for k in keys {
                    m.write(k, NodeId(0), Span::FULL, &full_block(k.blk as u8));
                }
            }
            done.store(true, Ordering::Release);
            sweeper.join().expect("harvest panicked");
        });
        assert_eq!(m.resident_keys().len() + m.free_frames(), capacity as usize);
    }

    #[test]
    fn resident_keys_lists_contents() {
        let m = mgr(4);
        m.insert_clean(key(5), NodeId(0), Span::FULL, &full_block(0));
        m.insert_clean(key(3), NodeId(0), Span::FULL, &full_block(0));
        assert_eq!(m.resident_keys(), vec![key(3), key(5)]);
    }

    fn strict_mgr(cap: usize, quotas: &[(u32, usize)]) -> BufferManager {
        BufferManager::builder(cap)
            .watermarks(0, cap)
            .partitioning(crate::config::PartitionConfig::strict(quotas.iter().copied()))
            .build()
    }

    #[test]
    fn strict_quota_caps_residency() {
        let m = strict_mgr(8, &[(0, 3)]);
        let a = AppId(0);
        for i in 0..6 {
            m.insert_clean_by(key(i), NodeId(0), Span::FULL, &full_block(i as u8), a);
            assert!(m.resident_of(a) <= 3, "app 0 exceeded its quota at insert {i}");
        }
        assert_eq!(m.resident_of(a), 3);
        // The app's newest inserts displaced its own oldest blocks; the
        // rest of the pool stayed free.
        assert_eq!(m.free_frames(), 5, "strict quota must not touch the rest of the pool");
        let evictions = m.app_usage().iter().find(|(id, _)| *id == a).unwrap().1.evictions;
        assert_eq!(evictions, 3, "over-quota inserts evict the app's own frames");
    }

    #[test]
    fn strict_quota_protects_other_apps_frames() {
        let (a, b) = (AppId(0), AppId(1));
        let m = strict_mgr(6, &[(0, 2), (1, 4)]);
        for i in 0..4 {
            m.insert_clean_by(key(100 + i), NodeId(0), Span::FULL, &full_block(1), b);
        }
        // The pool is now 4/6 used by b. a churns through many blocks: it
        // may never hold more than 2 frames and must never evict b.
        for i in 0..10 {
            m.insert_clean_by(key(i), NodeId(0), Span::FULL, &full_block(0), a);
            assert!(m.resident_of(a) <= 2);
        }
        assert_eq!(m.resident_of(b), 4, "the victim's frames must all survive");
        for i in 0..4 {
            assert!(m.contains(key(100 + i)), "victim block {i} was evicted");
        }
    }

    #[test]
    fn strict_quota_denies_insert_when_own_frames_unevictable() {
        let m = strict_mgr(8, &[(0, 2)]);
        let a = AppId(0);
        // Fill the quota with dirty blocks, then freeze them in flight.
        assert_eq!(
            m.write_by(key(0), NodeId(0), Span::FULL, &full_block(1), a),
            WriteOutcome::Absorbed
        );
        assert_eq!(
            m.write_by(key(1), NodeId(0), Span::FULL, &full_block(2), a),
            WriteOutcome::Absorbed
        );
        let items = m.take_dirty(2);
        assert_eq!(items.len(), 2);
        // Clean insert: both owned frames are pinned, quota full → denied.
        assert!(m.insert_clean_by(key(2), NodeId(0), Span::FULL, &full_block(3), a).is_none());
        assert!(!m.contains(key(2)), "denied insert must not be cached");
        assert_eq!(m.resident_of(a), 2);
        // A write is denied the same way (pass-through).
        assert_eq!(
            m.write_by(key(3), NodeId(0), Span::FULL, &full_block(4), a),
            WriteOutcome::PassThrough
        );
        for it in &items {
            m.flush_complete(it.key, it.span);
        }
        // Unpinned again: the app can churn within its quota.
        assert!(m.insert_clean_by(key(2), NodeId(0), Span::FULL, &full_block(3), a).is_none());
        assert!(m.contains(key(2)));
        assert_eq!(m.resident_of(a), 2);
    }

    #[test]
    fn soft_quota_borrows_free_frames_and_gives_them_back() {
        let (a, b) = (AppId(0), AppId(1));
        let m = BufferManager::builder(6)
            .watermarks(0, 6)
            .partitioning(crate::config::PartitionConfig::soft([(0, 2), (1, 4)]))
            .build();
        // a grows past its quota of 2 by borrowing idle (free) frames.
        for i in 0..5 {
            m.insert_clean_by(key(i), NodeId(0), Span::FULL, &full_block(0), a);
        }
        assert_eq!(m.resident_of(a), 5, "soft mode borrows idle capacity");
        // b now claims its quota: the borrowed frames are reclaimed from a
        // (the most over-quota app), not from b itself.
        for i in 0..4 {
            m.insert_clean_by(key(100 + i), NodeId(0), Span::FULL, &full_block(1), b);
            assert!(m.resident_of(b) == i as usize + 1, "b's insert must not be blocked");
        }
        assert_eq!(m.resident_of(b), 4);
        assert_eq!(m.resident_of(a), 2, "a shrank back to its quota as b reclaimed");
    }

    #[test]
    fn unknown_and_unlisted_apps_are_unconstrained() {
        let m = strict_mgr(4, &[(0, 1)]);
        for i in 0..4 {
            m.insert_clean(key(i), NodeId(0), Span::FULL, &full_block(0));
        }
        assert_eq!(m.resident(), 4, "unattributed inserts fill the whole pool");
        // A quota'd app can still claim a frame (victim-agnostic fallback
        // evicts unowned frames).
        m.insert_clean_by(key(10), NodeId(0), Span::FULL, &full_block(1), AppId(0));
        assert!(m.contains(key(10)));
        assert_eq!(m.resident_of(AppId(0)), 1);
    }

    #[test]
    fn quota_equal_to_capacity_matches_shared_pool_exactly() {
        // The partitioning differential: a single app whose quota is the
        // whole pool must behave byte-for-byte like the unpartitioned
        // manager for every policy.
        for kind in PolicyKind::ALL {
            let strict = BufferManager::builder(8)
                .policy(EvictPolicy::of(kind))
                .watermarks(0, 2)
                .partitioning(crate::config::PartitionConfig::strict([(0, 8)]))
                .build();
            let shared2 =
                BufferManager::builder(8).policy(EvictPolicy::of(kind)).watermarks(0, 2).build();
            let a = AppId(0);
            let mut buf = vec![0u8; 4096];
            for step in 0..400u64 {
                let k = key((step * 7919) % 23);
                match step % 5 {
                    0 | 3 => {
                        for m in [&shared2, &strict] {
                            m.insert_clean_by(k, NodeId(0), Span::FULL, &full_block(step as u8), a);
                        }
                    }
                    1 => {
                        for m in [&shared2, &strict] {
                            let _ =
                                m.write_by(k, NodeId(0), Span::FULL, &full_block(step as u8), a);
                        }
                    }
                    2 => {
                        for m in [&shared2, &strict] {
                            let _ = m.try_read_by(k, Span::FULL, &mut buf, a);
                        }
                    }
                    _ => {
                        let xs = shared2.take_dirty(3);
                        let ys = strict.take_dirty(3);
                        assert_eq!(xs.len(), ys.len(), "{kind}: flush divergence");
                        for it in xs {
                            shared2.flush_complete(it.key, it.span);
                        }
                        for it in ys {
                            strict.flush_complete(it.key, it.span);
                        }
                    }
                }
                assert_eq!(
                    shared2.resident_keys(),
                    strict.resident_keys(),
                    "{kind}: resident set diverged at step {step}"
                );
            }
            let (s, t) = (shared2.stats(), strict.stats());
            assert_eq!(
                (s.hits, s.misses, s.evictions_clean, s.evictions_dirty),
                (t.hits, t.misses, t.evictions_clean, t.evictions_dirty),
                "{kind}: stats diverged"
            );
            assert_eq!(
                shared2.policy_stats(),
                strict.policy_stats(),
                "{kind}: policy ledger diverged"
            );
        }
    }

    #[test]
    fn harvest_drains_over_quota_owners_before_idle_tenants() {
        // An idle victim sits at its quota; an active scanner borrowed
        // past its own. The harvester must reclaim the scanner's borrowed
        // frames, not drain the victim below quota (the pre-PR-4 sweep
        // was victim-agnostic and would).
        let (victim, scanner) = (AppId(0), AppId(1));
        let m = BufferManager::builder(8)
            .watermarks(0, 2)
            .partitioning(crate::config::PartitionConfig::soft([(0, 4), (1, 2)]))
            .build();
        for i in 0..4 {
            m.insert_clean_by(key(i), NodeId(0), Span::FULL, &full_block(0), victim);
        }
        for i in 0..4 {
            m.insert_clean_by(key(100 + i), NodeId(0), Span::FULL, &full_block(1), scanner);
        }
        assert_eq!(m.free_frames(), 0);
        assert_eq!(m.resident_of(scanner), 4, "scanner borrowed past its quota of 2");
        let flush = m.harvest();
        assert!(flush.is_empty(), "all clean");
        assert!(m.free_frames() >= 2);
        assert_eq!(m.resident_of(victim), 4, "idle victim must not be drained below quota");
        assert_eq!(m.resident_of(scanner), 2, "the over-quota borrower pays for the sweep");
        for i in 0..4 {
            assert!(m.contains(key(i)), "victim block {i} was harvested");
        }
    }

    #[test]
    fn adaptive_with_one_candidate_matches_static_byte_for_byte() {
        // The meta-policy differential: ghosts observe, the controller has
        // nothing to switch to, so every observable of the manager must
        // match the static policy exactly — epoch ticks included.
        for (kind, shards) in PolicyKind::ALL.into_iter().flat_map(|k| [(k, 1), (k, 2)]) {
            let mk = || {
                BufferManager::builder(8)
                    .shards(shards)
                    .policy(EvictPolicy::of(kind))
                    .watermarks(0, 2)
                    .epoch_accesses(64)
            };
            let adaptive = mk().adaptive(Some(AdaptiveConfig::new([kind]))).build();
            let stat = mk().build();
            let mut buf = vec![0u8; 4096];
            for step in 0..500u64 {
                let k = key((step * 7919) % 23);
                let app = AppId((step % 3) as u32);
                match step % 5 {
                    0 | 3 => {
                        for m in [&stat, &adaptive] {
                            m.insert_clean_by(
                                k,
                                NodeId(0),
                                Span::FULL,
                                &full_block(step as u8),
                                app,
                            );
                        }
                    }
                    1 => {
                        for m in [&stat, &adaptive] {
                            let _ =
                                m.write_by(k, NodeId(0), Span::FULL, &full_block(step as u8), app);
                        }
                    }
                    2 => {
                        for m in [&stat, &adaptive] {
                            let _ = m.try_read_by(k, Span::FULL, &mut buf, app);
                        }
                    }
                    _ => {
                        let xs = stat.take_dirty(3);
                        let ys = adaptive.take_dirty(3);
                        assert_eq!(xs.len(), ys.len(), "{kind}: flush divergence");
                        for it in xs {
                            stat.flush_complete(it.key, it.span);
                        }
                        for it in ys {
                            adaptive.flush_complete(it.key, it.span);
                        }
                    }
                }
                assert_eq!(
                    stat.resident_keys(),
                    adaptive.resident_keys(),
                    "{kind}: resident set diverged at step {step}"
                );
            }
            assert_eq!(stat.policy_stats(), adaptive.policy_stats(), "{kind}: ledger diverged");
            let (s, a) = (stat.stats(), adaptive.stats());
            assert_eq!(
                (s.hits, s.misses, s.evictions_clean, s.evictions_dirty),
                (a.hits, a.misses, a.evictions_clean, a.evictions_dirty),
                "{kind}: stats diverged"
            );
            let ast = adaptive.adaptive_stats().expect("adaptive manager reports stats");
            assert_eq!(ast.switches, 0, "{kind}: single candidate must never switch");
            assert!(ast.epochs > 0, "{kind}: epochs must have ticked");
            assert!(stat.adaptive_stats().is_none(), "static manager has no adaptive stats");
        }
    }

    #[test]
    fn epoch_tuner_grows_the_refaulting_apps_quota() {
        for shards in [1, 2] {
            // Strict halves; app 0 re-references a working set one frame
            // bigger than its quota (constant refaults), app 1 streams fresh
            // blocks it never revisits. The tuner must shift quota 0 ← 1, and
            // enforcement must follow the *tuned* quotas.
            let (hot, cold) = (AppId(0), AppId(1));
            let m = BufferManager::builder(8)
                .shards(shards)
                .policy(EvictPolicy::of(PolicyKind::ExactLru))
                .watermarks(0, 2)
                .partitioning(crate::config::PartitionConfig::strict([(0, 4), (1, 4)]))
                .adaptive(Some(AdaptiveConfig {
                    quota_step: 1,
                    ..AdaptiveConfig::new([PolicyKind::ExactLru])
                }))
                .epoch_accesses(32)
                .build();
            let mut buf = vec![0u8; 4096];
            let mut fresh = 1000u64;
            for round in 0..400u64 {
                let k = key(round % 5); // working set of 5 > quota of 4
                if !m.try_read_by(k, Span::FULL, &mut buf, hot) {
                    m.insert_clean_by(k, NodeId(0), Span::FULL, &full_block(1), hot);
                }
                if round % 2 == 0 {
                    m.insert_clean_by(key(fresh), NodeId(0), Span::FULL, &full_block(2), cold);
                    fresh += 1;
                }
            }
            let hq = m.quota_of(hot).unwrap();
            let cq = m.quota_of(cold).unwrap();
            assert!(hq > 4, "hot app's tuned quota must grow past 4, got {hq}");
            assert!(cq < 4, "cold app's tuned quota must shrink below 4, got {cq}");
            let stats = m.adaptive_stats().unwrap();
            assert!(stats.quota_moves > 0);
            assert!(stats.quota_log.iter().all(|q| q.to == hot && q.from == cold));
            // Tuned quotas are enforced going forward: the hot app's residency
            // tracks its grown quota (strict mode never let it past the cap at
            // any intermediate step either).
            assert!(m.resident_of(hot) <= hq);
            // And the cold app, now over its shrunk quota, is the harvester's
            // preferred reclaim source.
            let before = m.resident_of(cold);
            let _ = m.harvest();
            assert!(
                m.resident_of(cold) <= before.min(cq.max(1)) || m.resident_of(cold) < before,
                "harvest must reclaim from the over-quota cold app first"
            );
        }
    }

    #[test]
    fn probe_accounting_is_symmetric_and_recency_neutral() {
        // The pre-PR-5 bug: probe's hit branch bumped the global+policy
        // hit counters but skipped the epoch clock and the per-app
        // ledger, while its miss branch counted both. Both branches now
        // run full symmetric accounting — and neither refreshes recency
        // (matching the seed).
        let m = BufferManager::builder(4)
            .policy(EvictPolicy::of(PolicyKind::ExactLru))
            .watermarks(0, 4)
            .adaptive(Some(AdaptiveConfig::new([PolicyKind::ExactLru])))
            .epoch_accesses(8)
            .build();
        let a = AppId(0);
        m.insert_clean_by(key(0), NodeId(0), Span::FULL, &full_block(1), a);
        m.insert_clean_by(key(1), NodeId(0), Span::FULL, &full_block(1), a);
        for _ in 0..6 {
            assert!(m.probe_by(key(0), Span::FULL, a));
        }
        for _ in 0..2 {
            assert!(!m.probe_by(key(9), Span::FULL, a));
        }
        let s = m.stats();
        assert_eq!((s.hits, s.misses), (6, 2));
        let ps = m.policy_stats();
        assert_eq!((ps.hits, ps.misses), (6, 2), "policy ledger must match the atomic counters");
        let usage = m.app_usage();
        let au = usage.iter().find(|(id, _)| *id == a).unwrap().1;
        assert_eq!((au.hits, au.misses), (6, 2), "probes must reach the per-app ledger");
        // 8 probe accesses with epoch_accesses = 8: exactly one epoch.
        assert_eq!(m.adaptive_stats().unwrap().epochs, 1, "probes must advance the epoch clock");
        // Recency stays un-refreshed: key(0), probed 6 times but never
        // read, is still the exact-LRU victim.
        m.insert_clean_by(key(2), NodeId(0), Span::FULL, &full_block(2), a);
        m.insert_clean_by(key(3), NodeId(0), Span::FULL, &full_block(3), a);
        m.insert_clean_by(key(4), NodeId(0), Span::FULL, &full_block(4), a);
        assert!(!m.contains(key(0)), "a probe must not rescue the LRU block");
        assert!(m.contains(key(1)));
    }

    #[test]
    fn recency_touches_advance_the_epoch_clock() {
        for shards in [1, 2] {
            // A sync-write refresh (update_if_present → note_touch) is a real
            // access: before PR 5 it never aged the policies.
            let m = BufferManager::builder(4)
                .shards(shards)
                .watermarks(0, 4)
                .adaptive(Some(AdaptiveConfig::new([PolicyKind::Clock])))
                .epoch_accesses(4)
                .build();
            m.insert_clean(key(0), NodeId(0), Span::FULL, &full_block(1));
            assert_eq!(m.adaptive_stats().unwrap().epochs, 0, "an insert is not an access");
            for _ in 0..4 {
                assert!(m.update_if_present(key(0), Span::FULL, &full_block(2)));
            }
            assert_eq!(
                m.adaptive_stats().unwrap().epochs,
                1,
                "touches must advance the epoch clock"
            );
            // A touch (secondary-waiter attribution) participates too — and
            // is neither a hit nor a miss, resident or not.
            for _ in 0..4 {
                assert!(m.touch(key(0), AppId(1)));
            }
            assert_eq!(m.adaptive_stats().unwrap().epochs, 2);
            assert!(!m.touch(key(9), AppId(1)), "absent block: nothing to touch");
            let s = m.stats();
            assert_eq!((s.hits, s.misses), (0, 0), "touches stay out of the hit/miss ledger");
        }
    }

    /// The tentpole differential: the drained side-buffer path must be
    /// observation-equivalent to the eager apply-under-the-lock path
    /// under a single thread — identical resident sets after every step
    /// (which pins the eviction sequences), identical `PolicyStats`,
    /// `AppUsage` and manager counters at the end — for every static
    /// policy and for the adaptive meta-policy with tuner and switching
    /// live.
    #[test]
    fn drained_accounting_matches_eager_path_exactly() {
        let mut setups: Vec<(EvictPolicy, Option<AdaptiveConfig>)> =
            PolicyKind::ALL.map(|k| (EvictPolicy::of(k), None)).to_vec();
        setups.push((
            EvictPolicy::of(PolicyKind::Clock),
            Some(AdaptiveConfig {
                hysteresis: 0.0,
                quota_step: 1,
                ..AdaptiveConfig::new([PolicyKind::Clock, PolicyKind::ExactLru, PolicyKind::Lfu])
            }),
        ));
        for (policy, adaptive) in setups {
            let mk = || {
                BufferManager::builder(8)
                    .policy(policy)
                    .watermarks(0, 2)
                    .partitioning(crate::config::PartitionConfig::strict([(0, 3), (1, 3)]))
                    .adaptive(adaptive.clone())
                    .epoch_accesses(32)
            };
            let label = adaptive.as_ref().map_or(policy.kind.name(), |_| "adaptive");
            let eager = mk().eager_accounting(true).build();
            let drained = mk().build();
            let mut buf = vec![0u8; 4096];
            for step in 0..600u64 {
                let k = key((step * 7919) % 23);
                let app = AppId((step % 3) as u32);
                match step % 7 {
                    0 | 4 => {
                        for m in [&eager, &drained] {
                            m.insert_clean_by(
                                k,
                                NodeId(0),
                                Span::FULL,
                                &full_block(step as u8),
                                app,
                            );
                        }
                    }
                    1 => {
                        for m in [&eager, &drained] {
                            let _ =
                                m.write_by(k, NodeId(0), Span::FULL, &full_block(step as u8), app);
                        }
                    }
                    2 | 5 => {
                        for m in [&eager, &drained] {
                            let _ = m.try_read_by(k, Span::FULL, &mut buf, app);
                        }
                    }
                    3 => {
                        for m in [&eager, &drained] {
                            let _ = m.probe_by(k, Span::FULL, app);
                            let _ = m.update_if_present(k, Span::FULL, &full_block(9));
                            m.touch(k, AppId(2));
                        }
                    }
                    _ => {
                        if step % 35 == 6 {
                            for m in [&eager, &drained] {
                                let _ = m.invalidate([k]);
                                let _ = m.harvest();
                            }
                        } else {
                            let xs = eager.take_dirty(3);
                            let ys = drained.take_dirty(3);
                            assert_eq!(xs.len(), ys.len(), "{label}: flush divergence");
                            for it in xs {
                                eager.flush_complete(it.key, it.span);
                            }
                            for it in ys {
                                drained.flush_complete(it.key, it.span);
                            }
                        }
                    }
                }
                assert_eq!(
                    eager.resident_keys(),
                    drained.resident_keys(),
                    "{label}: resident set diverged at step {step}"
                );
            }
            assert_eq!(eager.policy_stats(), drained.policy_stats(), "{label}: ledger diverged");
            assert_eq!(eager.app_usage(), drained.app_usage(), "{label}: app ledger diverged");
            let (e, d) = (eager.stats(), drained.stats());
            assert_eq!(
                (e.hits, e.misses, e.evictions_clean, e.evictions_dirty, e.insertions),
                (d.hits, d.misses, d.evictions_clean, d.evictions_dirty, d.insertions),
                "{label}: stats diverged"
            );
            assert_eq!(eager.adaptive_stats(), drained.adaptive_stats(), "{label}: adaptive");
            assert_eq!(
                (eager.quota_of(AppId(0)), eager.quota_of(AppId(1))),
                (drained.quota_of(AppId(0)), drained.quota_of(AppId(1))),
                "{label}: tuned quotas diverged"
            );
        }
    }

    /// The observability differential: wiring an `ObsHub` must change no
    /// cache decision — identical resident sets after every step,
    /// identical ledgers and counters at the end — for every static
    /// policy and for the adaptive meta-policy with tuner and switching
    /// live. Instrumentation observes; it never participates.
    #[test]
    fn obs_wiring_changes_no_cache_decision() {
        let mut setups: Vec<(EvictPolicy, Option<AdaptiveConfig>)> =
            PolicyKind::ALL.map(|k| (EvictPolicy::of(k), None)).to_vec();
        setups.push((
            EvictPolicy::of(PolicyKind::Clock),
            Some(AdaptiveConfig {
                hysteresis: 0.0,
                quota_step: 1,
                ..AdaptiveConfig::new([PolicyKind::Clock, PolicyKind::ExactLru, PolicyKind::Lfu])
            }),
        ));
        for (policy, adaptive) in setups {
            let mk = || {
                BufferManager::builder(8)
                    .policy(policy)
                    .watermarks(0, 2)
                    .partitioning(crate::config::PartitionConfig::strict([(0, 3), (1, 3)]))
                    .adaptive(adaptive.clone())
                    .epoch_accesses(32)
            };
            let label = adaptive.as_ref().map_or(policy.kind.name(), |_| "adaptive");
            let hub = kcache_obs::ObsHub::new(1024);
            let plain = mk().build();
            let obsd = mk().obs(Some(hub.clone()), 0).build();
            let mut buf = vec![0u8; 4096];
            for step in 0..600u64 {
                let k = key((step * 7919) % 23);
                let app = AppId((step % 3) as u32);
                match step % 7 {
                    0 | 4 => {
                        for m in [&plain, &obsd] {
                            m.insert_clean_by(
                                k,
                                NodeId(0),
                                Span::FULL,
                                &full_block(step as u8),
                                app,
                            );
                        }
                    }
                    1 => {
                        for m in [&plain, &obsd] {
                            let _ =
                                m.write_by(k, NodeId(0), Span::FULL, &full_block(step as u8), app);
                        }
                    }
                    2 | 5 => {
                        for m in [&plain, &obsd] {
                            let _ = m.try_read_by(k, Span::FULL, &mut buf, app);
                        }
                    }
                    3 => {
                        for m in [&plain, &obsd] {
                            let _ = m.probe_by(k, Span::FULL, app);
                            let _ = m.update_if_present(k, Span::FULL, &full_block(9));
                            m.touch(k, AppId(2));
                        }
                    }
                    _ => {
                        if step % 35 == 6 {
                            for m in [&plain, &obsd] {
                                let _ = m.invalidate([k]);
                                let _ = m.harvest();
                            }
                        } else {
                            let xs = plain.take_dirty(3);
                            let ys = obsd.take_dirty(3);
                            assert_eq!(xs.len(), ys.len(), "{label}: flush divergence");
                            for it in xs {
                                plain.flush_complete(it.key, it.span);
                            }
                            for it in ys {
                                obsd.flush_complete(it.key, it.span);
                            }
                        }
                    }
                }
                assert_eq!(
                    plain.resident_keys(),
                    obsd.resident_keys(),
                    "{label}: obs wiring changed the resident set at step {step}"
                );
            }
            assert_eq!(plain.policy_stats(), obsd.policy_stats(), "{label}: ledger diverged");
            assert_eq!(plain.app_usage(), obsd.app_usage(), "{label}: app ledger diverged");
            let (p, o) = (plain.stats(), obsd.stats());
            assert_eq!(
                (p.hits, p.misses, p.evictions_clean, p.evictions_dirty, p.insertions),
                (o.hits, o.misses, o.evictions_clean, o.evictions_dirty, o.insertions),
                "{label}: stats diverged"
            );
            assert_eq!(plain.adaptive_stats(), obsd.adaptive_stats(), "{label}: adaptive");
            assert_eq!(
                (plain.quota_of(AppId(0)), plain.quota_of(AppId(1))),
                (obsd.quota_of(AppId(0)), obsd.quota_of(AppId(1))),
                "{label}: tuned quotas diverged"
            );
            // And the obs side actually observed the traffic it mirrors.
            // Hit/miss metric counters are deferred (folded in from the
            // manager ledger at sync points), so flush before reading —
            // after which the mirror must be *exact*, not a lower bound.
            obsd.obs_flush();
            let snap = hub.snapshot();
            let s = obsd.stats();
            let hits: u64 = snap
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("cache.hits."))
                .map(|(_, v)| v)
                .sum();
            assert_eq!(hits, s.hits, "{label}: obs hit mirror diverged from the ledger");
            let misses: u64 = snap
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("cache.misses."))
                .map(|(_, v)| v)
                .sum();
            assert_eq!(misses, s.misses, "{label}: obs miss mirror diverged from the ledger");
        }
    }

    /// The lock-wait instruments count an acquisition exactly when the
    /// lock was held — forced here: the main thread holds the policy lock
    /// until the reader's failed try shows in the counter.
    #[test]
    fn a_held_leaf_lock_is_counted_and_its_wait_timed() {
        let hub = kcache_obs::ObsHub::new(64);
        let m = BufferManager::builder(4).obs(Some(hub.clone()), 0).build();
        m.insert_clean(key(0), NodeId(0), Span::FULL, &full_block(1));
        let contended =
            |lock: &str| hub.registry().counter(&format!("cache.lock_contended.{lock}"));
        assert_eq!(contended("policy").get(), 0, "nothing was held so far");
        std::thread::scope(|s| {
            let held = m.shards[0].policy.lock();
            let reader = s.spawn(|| m.policy_stats());
            while contended("policy").get() == 0 {
                std::thread::yield_now();
            }
            drop(held);
            assert_eq!(reader.join().expect("reader panicked").inserts, 1);
        });
        assert_eq!(contended("policy").get(), 1);
        assert_eq!(hub.registry().histogram("cache.lock_wait_ns.policy").count(), 1);
        for lock in ["free", "dirty", "charges"] {
            assert_eq!(contended(lock).get(), 0, "{lock} was never held");
        }
    }

    #[test]
    fn quota_floor_bounds_the_tuner_end_to_end() {
        for shards in [1, 2] {
            // The starved-tenant regression: same workload as
            // `epoch_tuner_grows_the_refaulting_apps_quota`, but with a
            // 3-frame fairness floor the idle tenant can never be squeezed
            // below — validated by the manager before any update is applied.
            let (hot, cold) = (AppId(0), AppId(1));
            let m = BufferManager::builder(8)
                .shards(shards)
                .policy(EvictPolicy::of(PolicyKind::ExactLru))
                .watermarks(0, 2)
                .partitioning(crate::config::PartitionConfig::strict([(0, 4), (1, 4)]))
                .adaptive(Some(AdaptiveConfig {
                    quota_step: 1,
                    quota_floor: 3,
                    ..AdaptiveConfig::new([PolicyKind::ExactLru])
                }))
                .epoch_accesses(32)
                .build();
            let mut buf = vec![0u8; 4096];
            let mut fresh = 1000u64;
            for round in 0..400u64 {
                let k = key(round % 5); // working set of 5 > quota of 4
                if !m.try_read_by(k, Span::FULL, &mut buf, hot) {
                    m.insert_clean_by(k, NodeId(0), Span::FULL, &full_block(1), hot);
                }
                if round % 2 == 0 {
                    m.insert_clean_by(key(fresh), NodeId(0), Span::FULL, &full_block(2), cold);
                    fresh += 1;
                }
                let cq = m.quota_of(cold).unwrap();
                assert!(cq >= 3, "cold app squeezed below the floor: {cq} at round {round}");
            }
            let stats = m.adaptive_stats().unwrap();
            assert!(stats.quota_moves > 0, "the tuner must still act above the floor");
            assert_eq!(m.quota_of(cold), Some(3), "shrink stops exactly at the floor");
            assert_eq!(m.quota_of(hot), Some(5), "the freed frame went to the refaulting app");
        }
    }

    #[test]
    fn quota_floor_never_vetoes_growth_toward_the_floor() {
        for shards in [1, 2] {
            // An app whose configured quota starts BELOW the floor must
            // still be allowed to grow: the floor bounds shrinking, not
            // growing — a veto on the grow side would kill the whole
            // transfer pair and leave the tuner permanently dead for such
            // configs.
            let (hot, cold) = (AppId(0), AppId(1));
            let m = BufferManager::builder(8)
                .shards(shards)
                .policy(EvictPolicy::of(PolicyKind::ExactLru))
                .watermarks(0, 2)
                .partitioning(crate::config::PartitionConfig::strict([(0, 2), (1, 6)]))
                .adaptive(Some(AdaptiveConfig {
                    quota_step: 1,
                    quota_floor: 4,
                    ..AdaptiveConfig::new([PolicyKind::ExactLru])
                }))
                .epoch_accesses(32)
                .build();
            let mut buf = vec![0u8; 4096];
            let mut fresh = 1000u64;
            for round in 0..400u64 {
                let k = key(round % 3); // working set of 3 > quota of 2
                if !m.try_read_by(k, Span::FULL, &mut buf, hot) {
                    m.insert_clean_by(k, NodeId(0), Span::FULL, &full_block(1), hot);
                }
                if round % 2 == 0 {
                    m.insert_clean_by(key(fresh), NodeId(0), Span::FULL, &full_block(2), cold);
                    fresh += 1;
                }
            }
            assert!(m.adaptive_stats().unwrap().quota_moves > 0, "the tuner must act");
            assert_eq!(m.quota_of(hot), Some(4), "growth from below the floor must be applied");
            assert_eq!(m.quota_of(cold), Some(4), "the donor shrinks only to the floor");
        }
    }

    #[test]
    fn concurrent_stress_accounting_and_quotas_hold() {
        // 8 threads × mixed read/write/probe over a shared working set,
        // across shared/strict/soft partitioning and static/adaptive
        // ranking. After the dust settles (final drain via the stats
        // readers): no frame leaked, every lookup is counted exactly
        // once, and quotas held.
        use std::sync::Arc;
        let quota = 20usize;
        let partitions = [
            crate::config::PartitionConfig::shared(),
            crate::config::PartitionConfig::strict([(0, quota), (1, quota)]),
            crate::config::PartitionConfig::soft([(0, quota), (1, quota)]),
        ];
        for part in partitions {
            for adaptive in [
                None,
                Some(AdaptiveConfig {
                    quota_tuning: false,
                    ..AdaptiveConfig::new([PolicyKind::Clock, PolicyKind::ExactLru])
                }),
            ] {
                let m = Arc::new(
                    BufferManager::builder(64)
                        .watermarks(4, 16)
                        .partitioning(part.clone())
                        .adaptive(adaptive.clone())
                        .epoch_accesses(256)
                        .build(),
                );
                let threads = 8u64;
                let lookups = AtomicU64::new(0);
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let m = Arc::clone(&m);
                        let lookups = &lookups;
                        s.spawn(move || {
                            let mut buf = vec![0u8; 4096];
                            for i in 0..3000u64 {
                                let k = key((i * 13 + t * 97) % 150);
                                let app = AppId((t % 2) as u32);
                                match i % 8 {
                                    0 | 1 | 5 => {
                                        let _ = m.try_read_by(k, Span::FULL, &mut buf, app);
                                        lookups.fetch_add(1, Ordering::Relaxed);
                                    }
                                    2 => {
                                        let _ = m.probe_by(k, Span::FULL, app);
                                        lookups.fetch_add(1, Ordering::Relaxed);
                                    }
                                    3 | 6 => {
                                        let _ =
                                            m.insert_clean_by(k, NodeId(0), Span::FULL, &buf, app);
                                    }
                                    4 => {
                                        let _ = m.write_by(k, NodeId(0), Span::FULL, &buf, app);
                                    }
                                    _ => {
                                        if i % 64 == 7 {
                                            for it in m.take_dirty(8) {
                                                m.flush_complete(it.key, it.span);
                                            }
                                        } else if i % 160 == 15 {
                                            let _ = m.harvest();
                                        } else {
                                            let _ = m.try_read_by(k, Span::FULL, &mut buf, app);
                                            lookups.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                }
                            }
                        });
                    }
                });
                let label = format!(
                    "{}/{}",
                    part.mode,
                    if adaptive.is_some() { "adaptive" } else { "static" }
                );
                // Frames conserved, resident set unique, residency bounded.
                let keys = m.resident_keys();
                assert_eq!(keys.len() + m.free_frames(), 64, "{label}: frames leaked");
                let mut dedup = keys.clone();
                dedup.dedup();
                assert_eq!(keys.len(), dedup.len(), "{label}: duplicate resident keys");
                assert!(m.resident() <= 64, "{label}: residency over capacity");
                // Every lookup counted exactly once, in the atomic
                // counters and — after the final drain the stats read
                // performs — in the policy's own ledger.
                let s = m.stats();
                let n = lookups.load(Ordering::Relaxed);
                assert_eq!(s.hits + s.misses, n, "{label}: manager hit+miss != lookups");
                let ps = m.policy_stats();
                assert_eq!(ps.hits + ps.misses, n, "{label}: policy hit+miss != lookups");
                // Strict quotas: enforcement is exact single-threaded; under
                // concurrency a candidate that changes hands between the
                // owner-filtered scan and revalidation can offset one
                // acquisition transiently (pre-existing, documented), so
                // the bound carries a per-thread slack.
                if part.mode == PartitionMode::Strict {
                    for app in [AppId(0), AppId(1)] {
                        let r = m.resident_of(app);
                        assert!(
                            r <= quota + threads as usize,
                            "{label}: app {app:?} resident {r} way over quota {quota}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_stress_no_lost_frames() {
        use std::sync::Arc;
        for kind in PolicyKind::ALL {
            let m = Arc::new(BufferManager::builder(64).policy(EvictPolicy::of(kind)).build());
            let threads = 8;
            std::thread::scope(|s| {
                for t in 0..threads {
                    let m = Arc::clone(&m);
                    s.spawn(move || {
                        let mut buf = vec![0u8; 4096];
                        for i in 0..2000u64 {
                            let k = BlockKey::new(Fid(t % 3), (i * 7 + t) % 200);
                            let app = AppId((t % 2) as u32);
                            match i % 4 {
                                0 => {
                                    let _ = m.try_read_by(k, Span::FULL, &mut buf, app);
                                }
                                1 => {
                                    let _ = m.insert_clean_by(k, NodeId(0), Span::FULL, &buf, app);
                                }
                                2 => {
                                    let _ = m.write_by(k, NodeId(0), Span::FULL, &buf, app);
                                }
                                _ => {
                                    if i % 64 == 3 {
                                        m.take_dirty(8);
                                    } else {
                                        let _ = m.invalidate([k]);
                                    }
                                }
                            }
                        }
                    });
                }
            });
            // Conservation: every frame is either free or reachable via a
            // bucket.
            let resident = m.resident_keys().len();
            assert_eq!(resident + m.free_frames(), 64, "{kind}: frames leaked or duplicated");
            // And all resident keys are unique.
            let keys = m.resident_keys();
            let mut dedup = keys.clone();
            dedup.dedup();
            assert_eq!(keys.len(), dedup.len(), "{kind}: duplicate resident keys");
        }
    }

    /// Single-threaded multi-shard roundtrip: routing is stable (a key
    /// lives in exactly the shard the facade routes it to), and every
    /// facade aggregate is the sum of its shard parts.
    #[test]
    fn multi_shard_routing_and_aggregation_roundtrip() {
        let m = BufferManager::builder(64).shards(4).watermarks(0, 4).build();
        assert_eq!(m.n_shards(), 4);
        assert_eq!(m.capacity(), 64);
        let mut buf = vec![0u8; 4096];
        for b in 0..40u64 {
            m.insert_clean(key(b), NodeId(0), Span::FULL, &full_block(b as u8));
        }
        for b in 0..40u64 {
            assert!(m.try_read(key(b), Span::FULL, &mut buf), "block {b} lost");
            assert_eq!(buf[0], b as u8);
            // The key is resident in exactly the shard the facade routes
            // it to — and in no other.
            let home = m.shard_idx_of(&key(b));
            for (i, s) in m.shards.iter().enumerate() {
                assert_eq!(s.contains(key(b)), i == home, "block {b} misplaced");
            }
        }
        // Blocks actually spread (40 keys over 4 shards: every shard got
        // traffic unless the hash is catastrophically skewed).
        let occ = m.shard_occupancy();
        assert_eq!(occ.len(), 4);
        assert_eq!(occ.iter().sum::<usize>(), m.resident());
        assert!(
            occ.iter().filter(|&&n| n > 0).count() >= 2,
            "all keys routed to one shard: {occ:?}"
        );
        // Aggregates = sum of parts.
        assert_eq!(m.resident(), m.resident_keys().len());
        assert_eq!(m.resident() + m.free_frames(), 64);
        let s = m.stats();
        assert_eq!(s.hits, 40);
        assert_eq!(s.insertions, 40);
        assert_eq!(m.shard_evictions().iter().sum::<u64>(), s.evictions_clean + s.evictions_dirty);
        // Dirty queues and invalidation route per key.
        m.write(key(3), NodeId(0), Span::FULL, &buf);
        m.write(key(17), NodeId(0), Span::FULL, &buf);
        assert_eq!(m.dirty_queue_len(), 2);
        let flushed = m.take_dirty(8);
        assert_eq!(flushed.len(), 2);
        for it in flushed {
            m.flush_complete(it.key, it.span);
        }
        let (dropped, _) = m.invalidate((0..10u64).map(key));
        assert_eq!(dropped, 10);
        assert_eq!(m.resident(), 30);
        assert_eq!(m.resident() + m.free_frames(), 64);
    }

    /// Strict-quota spill: when an app's keys hash entirely onto one
    /// shard, its per-shard quota slice there (global/4) would deny most
    /// of its configured allowance — the facade must move quota *units*
    /// from idle sibling slices so the app reaches its full global quota,
    /// while the global sum of per-shard slices never grows.
    #[test]
    fn strict_quota_spills_to_neighbor_shards() {
        let quota = 4usize;
        let m = BufferManager::builder(16)
            .shards(4)
            .watermarks(0, 1)
            .partitioning(crate::config::PartitionConfig::strict([(0, quota)]))
            .build();
        let app = AppId(0);
        // Collect `quota` keys that all route to the same shard.
        let home = m.shard_idx_of(&key(0));
        let skewed: Vec<BlockKey> =
            (0..10_000u64).map(key).filter(|k| m.shard_idx_of(k) == home).take(quota).collect();
        assert_eq!(skewed.len(), quota, "not enough same-shard keys in probe range");
        for (i, &k) in skewed.iter().enumerate() {
            m.insert_clean_by(k, NodeId(0), Span::FULL, &full_block(i as u8), app);
        }
        // Without spill the home shard's slice (4/4 = 1) would cap the
        // app at one frame; lending must let every install land.
        for &k in &skewed {
            assert!(m.contains(k), "strict slice denied an install the global quota allows");
        }
        assert_eq!(m.resident_of(app), quota);
        // The global allowance was redistributed, never grown: per-shard
        // slices still sum to the configured quota, and once every unit
        // has spilled home a further install self-evicts (strict quotas
        // cap residency, not installs) instead of growing residency.
        assert_eq!(m.quota_of(app), Some(quota));
        let extra: BlockKey = (10_000..20_000u64)
            .map(key)
            .find(|k| m.shard_idx_of(k) == home)
            .expect("probe range exhausted");
        m.insert_clean_by(extra, NodeId(0), Span::FULL, &full_block(0xEE), app);
        assert!(m.contains(extra), "strict install should self-evict, not deny");
        assert_eq!(m.resident_of(app), quota, "spill grew the app's residency past its quota");
        let survivors = skewed.iter().filter(|&&k| m.contains(k)).count();
        assert_eq!(survivors, quota - 1, "the extra install must displace exactly one block");
    }

    /// Coordinated epochs (adaptive): shards feed one shared
    /// clock, the facade makes one merged decision per boundary, and
    /// every shard applies it — so epoch counts advance in lockstep and
    /// no shard can disagree about the live policy.
    #[test]
    fn coordinated_epochs_switch_all_shards_in_lockstep() {
        for shards in [1, 2] {
            let m = BufferManager::builder(32)
                .shards(shards)
                .watermarks(0, 2)
                .adaptive(Some(AdaptiveConfig {
                    quota_tuning: false,
                    hysteresis: 0.0,
                    ..AdaptiveConfig::new([PolicyKind::Clock, PolicyKind::ExactLru])
                }))
                .epoch_accesses(64)
                .build();
            let mut buf = vec![0u8; 4096];
            for step in 0..1500u64 {
                let k = key(step % 48);
                if !m.try_read(k, Span::FULL, &mut buf) {
                    m.insert_clean(k, NodeId(0), Span::FULL, &full_block(step as u8));
                }
            }
            let ast = m.adaptive_stats().expect("adaptive manager reports stats");
            assert!(ast.epochs > 0, "no coordinated boundary ran");
            // Lockstep: every shard saw exactly the same number of epochs and
            // runs the same live candidate.
            let live = m.live_policy_kind();
            for s in m.shards.iter() {
                let st = s.adaptive_stats().unwrap();
                assert_eq!(st.epochs, ast.epochs, "shards disagree on epoch count");
                assert_eq!(s.live_policy_kind(), live, "shards disagree on the live policy");
                assert_eq!(st.switches, ast.switches, "shards disagree on switch count");
            }
            // The merged ghost ledgers saw the union of shard traffic.
            assert!(
                ast.ghost_rates.iter().any(|g| g.hits + g.misses > 0),
                "merged ghost ledgers empty despite traffic"
            );
        }
    }

    /// With epochs off (the paper default) an access does no epoch work:
    /// nobody would ever read the clock, so nobody bumps it — on a
    /// sharded manager that bump was a contended RMW per operation.
    #[test]
    fn epochs_off_leaves_the_epoch_clock_untouched() {
        for shards in [1, 2, 4] {
            let m = BufferManager::builder(16).shards(shards).build();
            let mut buf = vec![0u8; 4096];
            for b in 0..40u64 {
                if !m.try_read(key(b % 8), Span::FULL, &mut buf) {
                    m.insert_clean(key(b % 8), NodeId(0), Span::FULL, &full_block(b as u8));
                }
                m.write(key(b % 8), NodeId(0), Span::new(0, 8), &[1u8; 8]);
                m.touch(key(b % 8), AppId(1));
                m.update_if_present(key(b % 8), Span::new(0, 8), &[2u8; 8]);
            }
            assert!(m.stats().hits > 0 && m.stats().misses > 0);
            assert_eq!(m.epoch_clock.load(Ordering::Relaxed), 0, "shards={shards}");
            assert_eq!(m.epoch_marks.load(Ordering::Relaxed), 0, "shards={shards}");
        }
    }

    /// The one quota-move validator: every reject arm, and the accept
    /// that lets a quota configured below the floor grow toward it.
    #[test]
    fn quota_move_validator_rejects_every_bad_arm() {
        let m = BufferManager::builder(16)
            .partitioning(crate::config::PartitionConfig::strict([(0, 2), (1, 8)]))
            .adaptive(Some(AdaptiveConfig {
                quota_floor: 4,
                ..AdaptiveConfig::new([PolicyKind::Clock])
            }))
            .build();
        let mv = |winner: AppId, winner_quota: usize, loser: AppId, loser_quota: usize| QuotaMove {
            winner,
            loser,
            frames: 1,
            winner_quota,
            loser_quota,
            winner_refaults: 1,
            loser_refaults: 0,
        };
        let (a, b) = (AppId(0), AppId(1));
        assert!(m.quota_move_valid(&mv(a, 3, b, 7)), "growth toward the floor, shrink above it");
        assert!(m.quota_move_valid(&mv(b, 9, a, 2)), "staying put below the floor is no shrink");
        assert!(!m.quota_move_valid(&mv(AppId::UNKNOWN, 3, b, 7)), "unknown app");
        assert!(!m.quota_move_valid(&mv(AppId(7), 3, b, 7)), "unpartitioned app");
        assert!(!m.quota_move_valid(&mv(a, 3, b, 0)), "an emptied quota");
        assert!(!m.quota_move_valid(&mv(a, 17, b, 7)), "more than the pool");
        assert!(!m.quota_move_valid(&mv(a, 3, b, 3)), "shrink below the floor");
        assert!(!m.quota_move_valid(&mv(b, 9, a, 1)), "shrink of a quota already below it");
        // A shared pool has no partitions to move quota between.
        let shared = BufferManager::builder(16).build();
        assert!(!shared.quota_move_valid(&mv(a, 3, b, 7)), "shared pool");
    }

    /// 8-thread stress over a 4-shard manager with strict quotas: frames
    /// and charges conserved, every lookup counted exactly once, the
    /// strict bound holds (modulo the documented per-thread revalidation
    /// slack), and per-shard quota slices always sum to the global quota.
    #[test]
    fn concurrent_multi_shard_stress_conserves_frames_and_quotas() {
        use std::sync::Arc;
        let quota = 20usize;
        let m = Arc::new(
            BufferManager::builder(64)
                .shards(4)
                .watermarks(4, 16)
                .partitioning(crate::config::PartitionConfig::strict([(0, quota), (1, quota)]))
                .epoch_accesses(256)
                .build(),
        );
        let threads = 8u64;
        let lookups = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let m = Arc::clone(&m);
                let lookups = &lookups;
                s.spawn(move || {
                    let mut buf = vec![0u8; 4096];
                    for i in 0..3000u64 {
                        let k = key((i * 13 + t * 97) % 150);
                        let app = AppId((t % 2) as u32);
                        match i % 8 {
                            0 | 1 | 5 => {
                                let _ = m.try_read_by(k, Span::FULL, &mut buf, app);
                                lookups.fetch_add(1, Ordering::Relaxed);
                            }
                            2 => {
                                let _ = m.probe_by(k, Span::FULL, app);
                                lookups.fetch_add(1, Ordering::Relaxed);
                            }
                            3 | 6 => {
                                let _ = m.insert_clean_by(k, NodeId(0), Span::FULL, &buf, app);
                            }
                            4 => {
                                let _ = m.write_by(k, NodeId(0), Span::FULL, &buf, app);
                            }
                            _ => {
                                if i % 64 == 7 {
                                    for it in m.take_dirty(8) {
                                        m.flush_complete(it.key, it.span);
                                    }
                                } else if i % 160 == 15 {
                                    let _ = m.harvest();
                                } else {
                                    let _ = m.try_read_by(k, Span::FULL, &mut buf, app);
                                    lookups.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                });
            }
        });
        // Frame conservation, globally and per shard.
        let keys = m.resident_keys();
        assert_eq!(keys.len() + m.free_frames(), 64, "frames leaked");
        for s in m.shards.iter() {
            assert_eq!(s.resident_keys().len() + s.free_frames(), s.capacity, "shard leaked");
        }
        let mut dedup = keys.clone();
        dedup.dedup();
        assert_eq!(keys.len(), dedup.len(), "duplicate resident keys");
        // Every lookup counted exactly once across the shard sums.
        let s = m.stats();
        let n = lookups.load(Ordering::Relaxed);
        assert_eq!(s.hits + s.misses, n, "manager hit+miss != lookups");
        let ps = m.policy_stats();
        assert_eq!(ps.hits + ps.misses, n, "policy hit+miss != lookups");
        // Strict quotas hold globally (documented per-thread slack), and
        // spill only ever *redistributed* the allowance.
        for app in [AppId(0), AppId(1)] {
            let r = m.resident_of(app);
            assert!(r <= quota + threads as usize, "app {app:?} resident {r} over quota {quota}");
            assert_eq!(m.quota_of(app), Some(quota), "spill changed the global quota");
        }
    }
}
