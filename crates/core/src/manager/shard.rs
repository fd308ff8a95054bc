//! One shard of the cache: frames, hash buckets, the free list, the policy
//! leaf and the event ring, with the hit / miss / install / evict paths
//! over them. Every `Mutex` field here is private; `admission`, `flush`
//! and `epoch` reach frames, buckets and the policy through the accessors
//! below, and own the locks of their own state.

use super::admission::QuotaLedger;
use super::epoch::EpochTicker;
use super::facade::{split_units, BufferManagerBuilder};
use super::flush::DirtyQueue;
use super::{Access, AccessKind, AccessOutcome, CacheStats, EvictPolicy, FlushItem, WriteOutcome};
use crate::block::{BlockKey, Span, CACHE_BLOCK_SIZE};
use crate::ring::EventRing;
use kcache_adaptive::AdaptivePolicy;
use kcache_obs::{CacheLine, Counter, EventId, Histogram, ObsHub};
use kcache_policy::{
    AccessEvent, AdaptiveStats, AppId, AppUsage, GhostRate, PolicyKind, PolicyStats, RankedTable,
    RefWords, ScanFilter,
};
use parking_lot::{Mutex, MutexGuard};
use sim_net::NodeId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc as StdArc;

#[derive(Debug)]
pub(super) struct Frame {
    pub(super) key: Option<BlockKey>,
    pub(super) data: Box<[u8; CACHE_BLOCK_SIZE]>,
    pub(super) valid: Span,
    pub(super) dirty: Span,
    pub(super) home: NodeId,
    pub(super) in_dirty_list: bool,
    /// A snapshot of this frame is in flight to its iod; the frame cannot
    /// be evicted (and is not re-taken by the flusher) until the flush is
    /// acknowledged. This is what makes write-behind *block* when the
    /// network cannot drain dirty data fast enough (§4.2.1).
    pub(super) flushing: bool,
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

    pub(super) fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Forget the block (eviction, invalidation): the frame is keyless
    /// until an install fills it again.
    pub(super) fn vacate(&mut self) {
        self.key = None;
        self.valid = Span::EMPTY;
        self.dirty = Span::EMPTY;
        self.in_dirty_list = false;
    }

    /// The dirty span's bytes, snapshot for write-back.
    pub(super) fn flush_item(&self, key: BlockKey) -> FlushItem {
        let span = self.dirty;
        FlushItem {
            key,
            home: self.home,
            span,
            data: self.data[span.start as usize..span.end as usize].to_vec(),
        }
    }
}

/// Striped [`Counter`]s: `hits` and `misses` are bumped by every op of
/// every thread, so each thread writes cache lines of its own.
#[derive(Default)]
pub(super) struct AtomicStats {
    pub(super) hits: Counter,
    pub(super) misses: Counter,
    pub(super) insertions: Counter,
    pub(super) writes_absorbed: Counter,
    pub(super) writes_passthrough: Counter,
    pub(super) evictions_clean: Counter,
    pub(super) evictions_dirty: Counter,
    pub(super) flush_blocks: Counter,
    pub(super) invalidated: Counter,
    pub(super) invalidated_dirty: Counter,
}

/// Pre-resolved observability handles (`kcache-obs`), present only when
/// an [`ObsHub`] was wired at build time. Handle resolution (name lookup,
/// event-name interning) happens once, here; hot paths then pay one
/// never-taken branch when observability is off and **nothing extra**
/// when it is on: hit/miss metric counters are not incremented per
/// access (one additional atomic RMW would cost ~10% of the lean hit
/// path) but folded in from the manager's existing [`AtomicStats`]
/// ledger at sync points — epoch boundaries and
/// [`BufferManager::obs_flush`](super::BufferManager::obs_flush) — and
/// from the policy's at ring drains. Counters are therefore exact at every
/// epoch mark and export. Trace events and gauge refreshes live on cold
/// paths only (eviction scans, ring overflows, epoch boundaries).
/// Instrumentation is strictly read-only over cache state — a
/// differential test pins that obs-on and obs-off managers make
/// byte-for-byte identical decisions.
pub(super) struct ManagerObs {
    pub(super) hub: StdArc<ObsHub>,
    /// Trace `pid`: the node this manager serves (0 standalone).
    pub(super) node: u32,
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
    ev_eviction_scan: EventId,
    pub(super) ev_epoch_tick: EventId,
    ev_ring_overflow: EventId,
}

/// The wait instruments of one measured leaf lock (`policy`, `free`,
/// `dirty`, `charges`), held by the lock's owner beside it; `None` without
/// a wired hub.
pub(super) struct LockWaits {
    /// `cache.lock_contended.<name>`: acquisitions that found it held.
    contended: Counter,
    /// `cache.lock_wait_ns.<name>`: how long each of those then waited.
    wait_ns: Histogram,
}

impl LockWaits {
    pub(super) fn resolve(obs: Option<&(StdArc<ObsHub>, u32)>, name: &str) -> Option<LockWaits> {
        let reg = obs?.0.registry();
        Some(LockWaits {
            contended: reg.counter(&format!("cache.lock_contended.{name}")),
            wait_ns: reg.histogram(&format!("cache.lock_wait_ns.{name}")),
        })
    }
}

/// Take a measured leaf lock. An obs-wired manager tries first: only a
/// failed try — the lock is held — is counted and its wait timed, so an
/// uncontended acquisition reads no clock (the single-threaded simulator
/// never does). Without a hub: `lock()`.
pub(super) fn lock_leaf<'a, T>(lock: &'a Mutex<T>, waits: &Option<LockWaits>) -> MutexGuard<'a, T> {
    let Some(w) = waits else { return lock.lock() };
    if let Some(guard) = lock.try_lock() {
        return guard;
    }
    w.contended.inc();
    let waited = std::time::Instant::now();
    let guard = lock.lock();
    w.wait_ns.record(waited.elapsed().as_nanos() as u64);
    guard
}

/// What the policy leaf lock guards: the shard's frame table with the
/// live ranker over it and, under an adaptive configuration, the
/// meta-policy's evidence state beside it — fed from the same stream,
/// never in front of the table.
pub(super) struct PolicyState {
    pub(super) ranked: RankedTable,
    pub(super) adaptive: Option<AdaptivePolicy>,
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
    pub(super) fn settle_eviction(&mut self, idx: u32, victim: &Victim) -> AppId {
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
pub(super) struct Victim {
    key: BlockKey,
    /// The dirty snapshot, when a dirty frame had to be sacrificed.
    pub(super) flush: Option<FlushItem>,
}

/// The free list and a mirror of its length, on one line: the mirror is
/// stored under the list's lock and read without it (`needs_harvest` runs
/// after every fill and write, `harvest` every turn of its loop).
struct FreeList {
    frames: Mutex<Vec<u32>>,
    len: AtomicUsize,
}

#[cfg(test)]
thread_local! {
    /// Policy-lock acquisitions by this thread: tests count the holds an
    /// operation takes.
    pub(super) static POLICY_HOLDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Run once by this thread's next `try_evict_idx`, between its look at
    /// the frame's key and its retake in bucket → frame order: a test plays
    /// the other thread there.
    static BETWEEN_LOOKS: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::RefCell::new(None) };
}

/// One shard of the cache: a fully self-contained slice of the frame
/// pool with its own hash buckets, free list, dirty queue, replacement
/// policy, event ring and quota ledger — every lock below this line is
/// shard-local. The public [`BufferManager`](super::BufferManager) facade
/// routes each [`BlockKey`] to exactly one shard (high hash bits, disjoint
/// from the low bits the in-shard bucket index consumes), so two threads
/// touching blocks on different shards share **no** lock at all.
/// Cross-shard state — global quotas, adaptive switch decisions — is
/// reconciled only at epoch boundaries by the facade, which also owns the
/// epoch clock: a shard never runs a boundary itself.
pub(super) struct Shard {
    pub(super) capacity: usize,
    policy_cfg: EvictPolicy,
    pub(super) low_watermark: usize,
    pub(super) high_watermark: usize,
    frames: Vec<Mutex<Frame>>,
    buckets: Vec<Mutex<Vec<(BlockKey, u32)>>>,
    // Every leaf lock and written atomic below sits on a [`CacheLine`] of
    // its own, away from the read-mostly fields every hit loads.
    free: CacheLine<FreeList>,
    free_waits: Option<LockWaits>,
    pub(super) dirty: DirtyQueue,
    /// Leaf lock (see module docs): the frame table (residency, pins,
    /// owners, the per-app ledger), candidate ranking and recency state.
    policy: CacheLine<Mutex<PolicyState>>,
    policy_waits: Option<LockWaits>,
    pub(super) ledger: QuotaLedger,
    /// This shard's handle on the facade's epoch clock.
    pub(super) epoch: EpochTicker,
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
    /// Observability handles (`None` keeps every hot path at one
    /// never-taken branch).
    pub(super) obs: Option<ManagerObs>,
    pub(super) stats: AtomicStats,
}

impl Shard {
    /// Shard `i` of the manager `cfg` describes: its share of the
    /// capacity, the watermarks and every quota (`split_units`: the
    /// remainder to low shards, so the shares sum exactly to the whole).
    pub(super) fn build(cfg: &BufferManagerBuilder, i: usize, epoch: EpochTicker) -> Shard {
        let share = |total| split_units(total, cfg.shards)[i];
        let (capacity, policy) = (share(cfg.capacity), cfg.policy);
        let (low_watermark, high_watermark) = (share(cfg.low_watermark), share(cfg.high_watermark));
        debug_assert!(capacity > 0);
        debug_assert!(low_watermark <= high_watermark && high_watermark <= capacity);
        let n_buckets = (capacity / 4).next_power_of_two().max(16);
        let adaptive = cfg.adaptive.clone().map(|a| AdaptivePolicy::new(capacity, a));
        let is_adaptive = adaptive.is_some();
        let ranked = adaptive.as_ref().map_or(policy.kind, |a| a.live()).build(capacity);
        let ref_words = ranked.table().ref_words().clone();
        // Ghost simulators feed from the event stream, so an adaptive
        // shard keeps every event in the ring even while clock is live.
        let count_only_unattributed = !is_adaptive && ranked.ranker().ranks_from_ref_words();
        let touch_words =
            count_only_unattributed || is_adaptive || ranked.ranker().consumes_app_mask();
        let policy_label = if is_adaptive { "adaptive" } else { policy.kind.name() };
        let waits = |name| LockWaits::resolve(cfg.obs.as_ref(), name);
        Shard {
            capacity,
            policy_cfg: policy,
            low_watermark,
            high_watermark,
            frames: (0..capacity).map(|_| Mutex::new(Frame::empty())).collect(),
            buckets: (0..n_buckets).map(|_| Mutex::new(Vec::new())).collect(),
            free: CacheLine(FreeList {
                frames: Mutex::new((0..capacity as u32).rev().collect()),
                len: AtomicUsize::new(capacity),
            }),
            free_waits: waits("free"),
            dirty: DirtyQueue::new(waits("dirty")),
            policy: CacheLine(Mutex::new(PolicyState { ranked, adaptive, batch: Vec::new() })),
            policy_waits: waits("policy"),
            ledger: QuotaLedger::new(&cfg.partitioning, share, waits("charges")),
            epoch,
            ref_words,
            ring: EventRing::new(),
            count_only_unattributed,
            touch_words,
            pending_hits: CacheLine(AtomicU64::new(0)),
            pending_misses: CacheLine(AtomicU64::new(0)),
            obs: cfg.obs.clone().map(|(hub, node)| {
                let reg = hub.registry();
                ManagerObs {
                    hits: reg.counter(&format!("cache.hits.{policy_label}")),
                    misses: reg.counter(&format!("cache.misses.{policy_label}")),
                    evictions_clean: reg.counter("cache.evictions_clean"),
                    evictions_dirty: reg.counter("cache.evictions_dirty"),
                    ring_overflows: reg.counter("cache.ring_overflows"),
                    drain_batch: reg.histogram("cache.drain_batch"),
                    scan_visits: reg.histogram("cache.scan_visits"),
                    ev_eviction_scan: hub.intern("eviction_scan", Some("visited"), Some("dirty")),
                    ev_epoch_tick: hub.intern("epoch_tick", Some("epoch"), Some("accesses")),
                    ev_ring_overflow: hub.intern("ring_overflow", Some("overflows"), None),
                    hits_seen: AtomicU64::new(0),
                    misses_seen: AtomicU64::new(0),
                    hub,
                    node,
                }
            }),
            stats: AtomicStats::default(),
        }
    }

    #[inline]
    pub(super) fn frame(&self, idx: u32) -> MutexGuard<'_, Frame> {
        self.frames[idx as usize].lock()
    }

    /// The hash bucket `key` belongs to (lock order: bucket → frame).
    #[inline]
    pub(super) fn bucket(&self, key: &BlockKey) -> MutexGuard<'_, Vec<(BlockKey, u32)>> {
        self.buckets[(key.hash() as usize) & (self.buckets.len() - 1)].lock()
    }

    #[inline]
    pub(super) fn lock_policy(&self) -> MutexGuard<'_, PolicyState> {
        #[cfg(test)]
        POLICY_HOLDS.with(|n| n.set(n.get() + 1));
        lock_leaf(&self.policy, &self.policy_waits)
    }

    /// Run `f` on the policy state under its lock, with every deferred
    /// event applied first: whatever the policy is about to rank, decide
    /// or report, it never does so with accesses that already happened
    /// still queued.
    pub(super) fn with_drained_policy<R>(&self, f: impl FnOnce(&mut PolicyState) -> R) -> R {
        let mut p = self.lock_policy();
        self.drain_locked(&mut p);
        f(&mut p)
    }

    #[inline]
    pub(super) fn free_frames(&self) -> usize {
        self.free.len.load(Ordering::Relaxed)
    }

    pub(super) fn resident(&self) -> usize {
        self.capacity - self.free_frames()
    }

    #[inline]
    pub(super) fn push_free(&self, idx: u32) {
        let mut frames = lock_leaf(&self.free.frames, &self.free_waits);
        frames.push(idx);
        self.free.len.store(frames.len(), Ordering::Relaxed);
    }

    /// A free frame, if there is one. An empty list — the steady state of
    /// a full cache — is seen from the length mirror, without the lock.
    #[inline]
    pub(super) fn pop_free(&self) -> Option<u32> {
        if self.free_frames() == 0 {
            return None;
        }
        let mut frames = lock_leaf(&self.free.frames, &self.free_waits);
        let idx = frames.pop();
        self.free.len.store(frames.len(), Ordering::Relaxed);
        idx
    }

    // The shard halves of the facade's readers, documented there.
    pub(super) fn policy_stats(&self) -> PolicyStats {
        self.with_drained_policy(|p| p.ranked.table().stats)
    }

    pub(super) fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        self.with_drained_policy(|p| p.adaptive.as_ref().map(AdaptivePolicy::stats))
    }

    /// Lifetime ghost ledgers per candidate (`None`: static policy) —
    /// the slice of [`adaptive_stats`](Self::adaptive_stats) that differs
    /// per shard, without cloning the decision logs.
    pub(super) fn ghost_rates(&self) -> Option<Vec<GhostRate>> {
        self.with_drained_policy(|p| p.adaptive.as_ref().map(AdaptivePolicy::ghost_rates))
    }

    pub(super) fn live_policy_kind(&self) -> PolicyKind {
        self.lock_policy().ranked.kind().expect("shards rank with built-in policies")
    }

    pub(super) fn app_usage(&self) -> Vec<(AppId, AppUsage)> {
        self.with_drained_policy(|p| p.ranked.table().app_usage())
    }

    pub(super) fn resident_of(&self, app: AppId) -> usize {
        self.lock_policy().ranked.table().resident_of(app)
    }

    pub(super) fn stats(&self) -> CacheStats {
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

    pub(super) fn event_ring_overflows(&self) -> u64 {
        self.ring.overflows()
    }

    pub(super) fn resident_keys(&self) -> Vec<BlockKey> {
        let mut out = Vec::new();
        for b in &self.buckets {
            out.extend(b.lock().iter().map(|(k, _)| *k));
        }
        out.sort_unstable();
        out
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

    /// Sync the hub's hit/miss mirrors with the manager's own counters.
    pub(super) fn obs_flush(&self) {
        if let Some(o) = &self.obs {
            Self::obs_sync_counts(o, self.stats.hits.get(), self.stats.misses.get());
        }
    }

    /// Route one access event to the policy through the lock-free ring.
    /// Unattributed events under a ref-word-ranking policy collapse into
    /// plain counter bumps — no ring traffic (see
    /// `count_only_unattributed`). A full ring makes the producer the
    /// drainer (bounded memory, nothing dropped).
    fn push_event(&self, ev: AccessEvent) {
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
            self.with_drained_policy(|p| p.drain(std::slice::from_ref(&ev)));
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
        self.epoch.tick();
    }

    fn record_miss(&self, app: AppId) {
        self.stats.misses.inc();
        self.push_event(AccessEvent::miss(app));
        self.epoch.tick();
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
        self.epoch.tick();
    }

    /// [`AccessKind::Touch`]: a recency touch of `key` if it is resident.
    fn touch_impl(&self, key: BlockKey, app: AppId) -> AccessOutcome {
        let idx = match self.bucket(&key).iter().find(|(k, _)| *k == key) {
            Some(&(_, idx)) => idx,
            None => return AccessOutcome::Miss,
        };
        self.note_touch(idx, key, app);
        AccessOutcome::Hit
    }

    pub(super) fn contains(&self, key: BlockKey) -> bool {
        self.bucket(&key).iter().any(|(k, _)| *k == key)
    }

    /// One attributed request ([`Access`]) against this shard: reads,
    /// probes, write-behind absorbs, clean installs, touches.
    pub(super) fn access(&self, key: BlockKey, req: Access<'_>) -> AccessOutcome {
        let app = req.app;
        match req.kind {
            AccessKind::Read { span, out } => {
                debug_assert_eq!(out.len(), span.len() as usize);
                self.read_impl(key, span, app, |src| out.copy_from_slice(src))
            }
            AccessKind::ReadWith { span, sink } => self.read_impl(key, span, app, sink),
            AccessKind::Probe { span } => self.probe_impl(key, span, app),
            // Never sacrifice dirty data for new writes (the paper's
            // write-blocking point) — and never let a write push its app
            // over a strict quota.
            AccessKind::Write { home, span, bytes } => {
                AccessOutcome::Write(match self.install(key, home, span, bytes, app, true) {
                    Some(flush) => {
                        debug_assert!(flush.is_none(), "clean eviction cannot yield a flush");
                        self.stats.writes_absorbed.inc();
                        WriteOutcome::Absorbed
                    }
                    None => {
                        self.stats.writes_passthrough.inc();
                        WriteOutcome::PassThrough
                    }
                })
            }
            // Refused: cache wedged (all frames contended) or the app's
            // strict quota denied the install; the fetched bytes are
            // simply not cached.
            AccessKind::InsertClean { home, span, bytes } => {
                AccessOutcome::Inserted(self.install(key, home, span, bytes, app, false).flatten())
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
        let b = self.bucket(&key);
        if let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) {
            let f = self.frame(idx);
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

    fn probe_impl(&self, key: BlockKey, span: Span, app: AppId) -> AccessOutcome {
        let b = self.bucket(&key);
        let hit = b.iter().any(|(k, idx)| {
            *k == key && {
                let f = self.frame(*idx);
                f.key == Some(key) && f.valid.covers(span)
            }
        });
        drop(b);
        if !hit {
            self.record_miss(app);
            return AccessOutcome::Miss;
        }
        self.stats.hits.inc();
        self.push_event(AccessEvent::probe_hit(app));
        self.epoch.tick();
        AccessOutcome::Hit
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
            self.ledger.uncharge(owner);
        }
    }

    /// A lost install race (`key` went resident in another frame first):
    /// take the filed, never visible block back out of the policy — ghost
    /// lists hear of it as of any removal — and recycle frame and charge.
    fn unfile(&self, idx: u32, key: BlockKey, app: AppId) {
        self.lock_policy().ranked.remove(idx, key.hash());
        self.push_free(idx);
        self.ledger.uncharge(app);
    }

    /// Put `span` of `key` into the cache — `dirty`: a write-behind absorb,
    /// else fetched clean bytes. Merges in place when the block is
    /// resident (a recency touch); otherwise acquires a frame (a write
    /// never evicts dirty data for it), files the block, and fills the
    /// frame and links the bucket unless another thread installed `key`
    /// meanwhile (un-file, retry). `None`: refused — no frame to be had,
    /// or a write that would leave an unknown gap in a resident block.
    /// `Some(flush)`: done, `flush` the snapshot of a dirty frame a clean
    /// install had to sacrifice.
    fn install(
        &self,
        key: BlockKey,
        home: NodeId,
        span: Span,
        bytes: &[u8],
        app: AppId,
        dirty: bool,
    ) -> Option<Option<FlushItem>> {
        debug_assert_eq!(bytes.len(), span.len() as usize);
        loop {
            {
                let b = self.bucket(&key);
                if let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) {
                    let mut f = self.frame(idx);
                    if f.key == Some(key) {
                        let mergeable = f.valid.mergeable(span);
                        if dirty && !mergeable {
                            // Disjoint sub-block writes would leave an
                            // unknown gap; refuse rather than flush garbage.
                            return None;
                        }
                        let mut link_dirty = false;
                        if mergeable {
                            f.data[span.start as usize..span.end as usize].copy_from_slice(bytes);
                            f.valid = f.valid.merge(span);
                            f.home = home;
                        }
                        if dirty {
                            // Dirty spans may be disjoint (e.g. two sub-block
                            // writes into a fully-fetched block); the hull is
                            // safe because every gap byte is valid.
                            debug_assert!(f.valid.covers(f.dirty.hull(span)));
                            f.dirty = f.dirty.hull(span);
                            link_dirty = !f.in_dirty_list;
                            f.in_dirty_list = true;
                        }
                        drop(f);
                        drop(b);
                        if link_dirty {
                            self.dirty.lock().push_back(idx);
                        }
                        self.note_touch(idx, key, app);
                        return Some(None);
                    }
                }
            }
            let (idx, victim) = self.acquire_frame_for(app, !dirty)?;
            self.file_insert(idx, key, app, victim.as_ref());
            let flush = victim.and_then(|v| v.flush);
            {
                let mut b = self.bucket(&key);
                if b.iter().any(|(k, _)| *k == key) {
                    // Someone beat us to it; recycle our frame and merge via
                    // the fast path above.
                    drop(b);
                    self.unfile(idx, key, app);
                    if flush.is_some() {
                        return Some(flush);
                    }
                    continue;
                }
                let mut f = self.frame(idx);
                debug_assert!(f.key.is_none());
                f.key = Some(key);
                f.home = home;
                f.valid = span;
                f.dirty = if dirty { span } else { Span::EMPTY };
                f.data[span.start as usize..span.end as usize].copy_from_slice(bytes);
                f.in_dirty_list = dirty;
                b.push((key, idx));
            }
            if dirty {
                self.dirty.lock().push_back(idx);
            }
            self.stats.insertions.inc();
            return Some(flush);
        }
    }

    /// Overwrite `span` of `key` *only if resident and mergeable* — no
    /// allocation. Used by sync-writes: the cached copy is refreshed with
    /// the propagated data and, since the server now holds these bytes, any
    /// dirty state covered by the span is cleared. Returns whether the
    /// block was updated.
    pub(super) fn update_if_present(&self, key: BlockKey, span: Span, bytes: &[u8]) -> bool {
        debug_assert_eq!(bytes.len(), span.len() as usize);
        let idx = {
            let b = self.bucket(&key);
            let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) else {
                return false;
            };
            let mut f = self.frame(idx);
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

    /// Evict one block and return its (now unlinked) frame, optionally
    /// restricted to frames owned by one application (the partition-local
    /// scan). Candidate *ranking* comes from the policy; what the shared
    /// table knows of *admissibility* — residency, pins, the owner —
    /// travels as a [`ScanFilter`] on every `next_candidate` call (never
    /// stored in the policy, so a concurrent scan can interleave with this
    /// one but never widen or redirect its boundary) and is applied inside
    /// the ranker's own hold; what only the frame knows (dirty, in flight)
    /// stays with [`try_evict_idx`](Self::try_evict_idx).
    pub(super) fn evict_one_owned(
        &self,
        allow_dirty: bool,
        owner: Option<AppId>,
    ) -> Option<(u32, Victim)> {
        // Pass 0: clean victims only (if clean_first). Pass 1: anything
        // (subject to allow_dirty). Every pass is a scan of its own, an
        // empty-handed one included: a clock scan spends reference bits
        // and moves the hand, so its history counts.
        let clean_passes: &[bool] =
            if self.policy_cfg.clean_first { &[true, false] } else { &[false] };
        for &clean_only in clean_passes {
            // One hold ranks over up-to-date metadata — every deferred
            // access applied before the scan decides a victim order —
            // and walks to the scan's first admissible frame.
            let mut filter = ScanFilter { owner, examined: 0 };
            let mut candidate = self.with_drained_policy(|p| {
                p.ranked.begin_scan();
                p.ranked.next_candidate(&mut filter)
            });
            while let Some(idx) = candidate {
                if let Some(victim) = self.try_evict_idx(idx, clean_only, allow_dirty) {
                    if let Some(o) = &self.obs {
                        o.scan_visits.record(filter.examined);
                        let dirty = victim.flush.is_some() as u64;
                        o.hub.instant(o.ev_eviction_scan, o.node, 0, filter.examined, dirty);
                    }
                    return Some((idx, victim));
                }
                // Leaf lock only while asking; dropped before
                // bucket/frame.
                candidate = self.lock_policy().ranked.next_candidate(&mut filter);
            }
        }
        None
    }

    /// Unlink the block in frame `idx` from bucket and frame if the frame
    /// itself agrees it is an admissible victim. The policy-side half is
    /// the caller's to settle ([`Victim`]); until then the table still
    /// describes the old tenant, and a concurrent scan offered this frame
    /// finds it keyless, moves on.
    fn try_evict_idx(&self, idx: u32, clean_only: bool, allow_dirty: bool) -> Option<Victim> {
        // In flight to the iod: untouchable. Dirty: only a pass that
        // allows it.
        let admissible = |f: &Frame| !f.flushing && !(f.is_dirty() && (clean_only || !allow_dirty));
        // Read the key briefly, then retake in bucket → frame order.
        let key = {
            let f = self.frame(idx);
            let key = f.key?; // free or being reassigned
            if !admissible(&f) {
                return None;
            }
            key
        };
        #[cfg(test)]
        if let Some(other_thread) = BETWEEN_LOOKS.with(|hook| hook.borrow_mut().take()) {
            other_thread();
        }
        let mut bucket = self.bucket(&key);
        let mut f = self.frame(idx);
        // Changed hands, or changed state, meanwhile?
        if f.key != Some(key) || !admissible(&f) {
            return None;
        }
        let flush = if f.is_dirty() {
            self.stats.evictions_dirty.inc();
            if let Some(o) = &self.obs {
                o.evictions_dirty.inc();
            }
            Some(f.flush_item(key))
        } else {
            self.stats.evictions_clean.inc();
            if let Some(o) = &self.obs {
                o.evictions_clean.inc();
            }
            None
        };
        bucket.retain(|(k, _)| *k != key);
        f.vacate();
        Some(Victim { key, flush })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Access, AccessKind, BufferManager, EvictPolicy};
    use crate::block::{BlockKey, Span, CACHE_BLOCK_SIZE};
    use kcache_policy::PolicyKind;
    use pvfs::Fid;
    use sim_net::NodeId;

    /// `try_evict_idx` reads a candidate's key, lets the frame go and
    /// retakes bucket → frame: whoever takes the frame over in between must
    /// find its block untouched. Forced here: the "other thread" drops the
    /// candidate's block and installs another into the freed frame exactly
    /// between the two looks. Without the `f.key != Some(key)` re-check the
    /// evictor vacates the newcomer's frame under its bucket entry, and
    /// three keys end up linked in a two-frame cache.
    #[test]
    fn a_frame_that_changed_hands_under_the_evictor_is_left_alone() {
        fn key(b: u64) -> BlockKey {
            BlockKey::new(Fid(1), b)
        }
        fn insert(m: &BufferManager, b: u64) {
            let bytes = vec![b as u8; CACHE_BLOCK_SIZE];
            let kind = AccessKind::InsertClean { home: NodeId(0), span: Span::FULL, bytes: &bytes };
            m.access(key(b), Access::unattributed(kind));
        }
        let policy = EvictPolicy::of(PolicyKind::ExactLru);
        let m = std::sync::Arc::new(BufferManager::builder(2).policy(policy).build());
        insert(&m, 0);
        insert(&m, 1);
        let other = std::sync::Arc::clone(&m);
        super::BETWEEN_LOOKS.with(|hook| {
            *hook.borrow_mut() = Some(Box::new(move || {
                other.invalidate([key(0)]);
                insert(&other, 7); // into the frame block 0 just left
            }));
        });
        insert(&m, 9); // offered block 0's frame first, the least recently used
        assert_eq!(m.resident_keys(), vec![key(7), key(9)], "block 1 was the one to go");
        let mut out = vec![0u8; CACHE_BLOCK_SIZE];
        let read = AccessKind::Read { span: Span::FULL, out: &mut out };
        assert!(m.access(key(7), Access::unattributed(read)).is_hit());
        assert!(out.iter().all(|&b| b == 7));
        let ps = m.policy_stats();
        assert_eq!((ps.inserts - ps.removes, m.resident()), (2, 2));
    }

    /// The lock-wait instruments count an acquisition exactly when the
    /// lock was held — forced here: the main thread holds the policy lock
    /// until the reader's failed try shows in the counter.
    #[test]
    fn a_held_leaf_lock_is_counted_and_its_wait_timed() {
        let hub = kcache_obs::ObsHub::new(64);
        let m = BufferManager::builder(4).obs(Some(hub.clone()), 0).build();
        let bytes = vec![1u8; CACHE_BLOCK_SIZE];
        let kind = AccessKind::InsertClean { home: NodeId(0), span: Span::FULL, bytes: &bytes };
        m.access(BlockKey::new(Fid(1), 0), Access::unattributed(kind));
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
}
