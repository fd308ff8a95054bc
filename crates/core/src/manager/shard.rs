//! One shard of the cache: frames, hash buckets, the free list and the
//! policy leaf, with the hit / miss / install / evict paths over them.
//! Every `Mutex` field here is private; `admission`, `flush`, `sweep` and
//! `epoch` reach frames, buckets and the policy through the accessors
//! below, and own the locks of their own state.

use super::admission::QuotaLedger;
use super::counts::{AppCounts, Col};
use super::epoch::EpochTicker;
use super::facade::{split_units, BufferManagerBuilder};
use super::flush::DirtyQueue;
use super::frame::{BlockBytes, Frame, Incoming, OwnContent};
use super::{Access, AccessKind, AccessOutcome, CacheStats, EvictPolicy, FlushItem, WriteOutcome};
use crate::block::{BlockKey, Span};
use kcache_adaptive::AdaptivePolicy;
use kcache_obs::{CacheLine, Counter, EventId, Histogram, ObsHub};
use kcache_policy::{
    AdaptiveStats, AppId, AppUsage, ClockHand, FrameWords, GhostRate, PolicyKind, PolicyStats,
    RankedTable, RefWords, ScanFilter,
};
use parking_lot::{Mutex, MutexGuard};
use sim_net::NodeId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc as StdArc;

/// The manager's counters that are not the ledger's ([`AppCounts`]):
/// striped [`Counter`]s, so each thread writes cache lines of its own.
/// `insertions` counts installs linked into a bucket, not filings.
#[derive(Default)]
pub(super) struct AtomicStats {
    pub(super) insertions: Counter,
    pub(super) writes_absorbed: Counter,
    pub(super) writes_passthrough: Counter,
    pub(super) flush_blocks: Counter,
    pub(super) invalidated: Counter,
    pub(super) invalidated_dirty: Counter,
}

/// Pre-resolved observability handles (`kcache-obs`), present only when
/// an [`ObsHub`] was wired at build time. Handle resolution (name lookup,
/// event-name interning) happens once, here; hot paths then pay one
/// never-taken branch when observability is off and **nothing extra**
/// when it is on: the hit/miss/eviction metric counters are not
/// incremented per event (one additional atomic RMW would cost ~10% of
/// the lean hit path) but mirror the shard's ledger ([`AppCounts`]),
/// folded in by [`BufferManager::obs_flush`](super::BufferManager::obs_flush)
/// before export, so counters are exact at every export. Trace events
/// and gauge refreshes live on cold paths only (eviction scans, epoch
/// boundaries).
/// Instrumentation is strictly read-only over cache state — a
/// differential test pins that obs-on and obs-off managers make
/// byte-for-byte identical decisions.
pub(super) struct ManagerObs {
    pub(super) hub: StdArc<ObsHub>,
    /// Trace `pid`: the node this manager serves (0 standalone).
    pub(super) node: u32,
    /// The mirrors of the ledger's hits, misses, clean and dirty
    /// evictions, each beside the high-water mark of the ledger count
    /// already folded into it (CAS-advanced, so concurrent sync points
    /// never double-count a delta).
    mirrors: [(Counter, AtomicU64); 4],
    /// Candidates visited per successful eviction scan.
    scan_visits: Histogram,
    ev_eviction_scan: EventId,
    pub(super) ev_epoch_tick: EventId,
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
/// meta-policy's evidence state beside it — fed from the same accesses,
/// never in front of the table.
pub(super) struct PolicyState {
    pub(super) ranked: RankedTable,
    pub(super) adaptive: Option<AdaptivePolicy>,
}

impl PolicyState {
    /// A use of resident frame `idx` (a read hit or a bare touch): the
    /// ghosts' feed, then the live ranker's recency refresh.
    fn touch(&mut self, idx: u32, key: BlockKey, app: AppId) {
        if let Some(a) = &mut self.adaptive {
            a.observe(key.hash(), app);
        }
        self.ranked.touch(idx, key.hash(), app);
    }

    /// The policy-side half of evicting `victim` from frame `idx` under
    /// the lock ([`Shard::settle_eviction`] has the lock-free one). Returns
    /// the block's owner: the caller counts the eviction and uncharges it
    /// once the lock is dropped.
    pub(super) fn settle_eviction(&mut self, idx: u32, victim: &Victim) -> AppId {
        let owner = self.ranked.table().owner_of(idx);
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
/// bucket and frame, its [`Shard::settle_eviction`] still owed. An install
/// carries it with the frame to where it files the incoming block
/// ([`Shard::file_insert`]); the harvester settles it at once.
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
    pub(super) static BETWEEN_LOOKS: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::RefCell::new(None) };
}

/// One shard of the cache: a fully self-contained slice of the frame
/// pool with its own hash buckets, free list, dirty queue, replacement
/// policy and quota ledger — every lock below this line is
/// shard-local. The public [`BufferManager`](super::BufferManager) facade
/// routes each [`BlockKey`] to exactly one shard (high hash bits, disjoint
/// from the low bits the in-shard bucket index consumes), so two threads
/// touching blocks on different shards share **no** lock at all. Quotas
/// and the adaptive meta-policy run only on a one-shard manager, so no
/// state is shared between shards; the facade owns the epoch clock, and a
/// shard never runs a boundary itself.
pub(super) struct Shard {
    pub(super) capacity: usize,
    policy_cfg: EvictPolicy,
    pub(super) low_watermark: usize,
    pub(super) high_watermark: usize,
    frames: Vec<Mutex<Frame>>,
    /// Shared handle to the frame table's per-frame residency words
    /// (resident, pinned, owner, key): pins and unpins store them under
    /// the frame lock on every shard, and a static clock shard's whole
    /// eviction path stores them without the policy lock (`sweep.rs`).
    pub(super) words: FrameWords,
    buckets: Vec<Mutex<Vec<(BlockKey, u32)>>>,
    // Every leaf lock and written atomic below sits on a [`CacheLine`] of
    // its own, away from the read-mostly fields every hit loads.
    free: CacheLine<FreeList>,
    free_waits: Option<LockWaits>,
    pub(super) dirty: DirtyQueue,
    /// Leaf lock (see module docs): candidate ranking and recency state;
    /// on every shard but a static clock one, also every store to the
    /// residency words but a pin.
    policy: CacheLine<Mutex<PolicyState>>,
    policy_waits: Option<LockWaits>,
    pub(super) ledger: QuotaLedger,
    /// This shard's handle on the facade's epoch clock.
    pub(super) epoch: EpochTicker,
    /// Shared handle to the frame table's per-frame atomic ref/recency
    /// words — the lock-free half of the hit fast path. Cloned out of the
    /// table once at construction; live policy migration keeps the table,
    /// so the handle never goes stale.
    pub(super) ref_words: RefWords,
    /// `Some` on a static clock shard, the hand of its
    /// [`Clock`](kcache_policy::Clock) ranker (which never runs): the
    /// policy ranks from the atomic words alone and nothing else reads the
    /// accesses, so its scans sweep the hand without the policy lock
    /// (`sweep.rs`), and a hit or touch has no effect on the policy beyond
    /// the word stored at access time. Every other shard — an adaptive one
    /// even while clock is live, its ghosts feed on every use — takes the
    /// policy lock for each use of a block and applies it there and then.
    pub(super) hand: Option<ClockHand>,
    /// Store the ref word on hits/touches at all: true when the policy
    /// ranks from it (clock, see `hand`), consumes the app-touch mask at
    /// scan time (sharing-aware), or could migrate to either (any
    /// adaptive configuration). A static LRU/LFU/2Q/ARC manager never
    /// reads the words — its `on_access` keeps the recency — so it skips
    /// the per-hit `fetch_or`.
    touch_words: bool,
    /// Observability handles (`None` keeps every hot path at one
    /// never-taken branch).
    pub(super) obs: Option<ManagerObs>,
    /// The ledger: every hit, miss, insert, remove, eviction and scan,
    /// once, per app, with no policy lock.
    pub(super) counts: AppCounts,
    pub(super) stats: AtomicStats,
}

impl Shard {
    /// Shard `i` of the manager `cfg` describes: its share of the
    /// capacity and the watermarks (`split_units`: the remainder to low
    /// shards, so the shares sum exactly to the whole), and the quotas,
    /// which only a one-shard manager has.
    pub(super) fn build(cfg: &BufferManagerBuilder, i: usize, epoch: EpochTicker) -> Shard {
        let share = |total| split_units(total, cfg.shards)[i];
        let (capacity, policy) = (share(cfg.capacity), cfg.policy);
        let (low_watermark, high_watermark) = (share(cfg.low_watermark), share(cfg.high_watermark));
        debug_assert!(capacity > 0);
        debug_assert!(low_watermark <= high_watermark && high_watermark <= capacity);
        let n_buckets = (capacity / 4).next_power_of_two().max(16);
        let tune_quotas = cfg.partitioning.is_partitioned();
        let adaptive = cfg.adaptive.clone().map(|a| AdaptivePolicy::new(capacity, a, tune_quotas));
        let is_adaptive = adaptive.is_some();
        let ranked = adaptive.as_ref().map_or(policy.kind, |a| a.live()).build(capacity);
        let ref_words = ranked.table().ref_words().clone();
        let words = ranked.table().frame_words().clone();
        let hand = ranked.ranker().clock_hand().filter(|_| !is_adaptive).cloned();
        let touch_words = hand.is_some() || is_adaptive || ranked.ranker().consumes_app_mask();
        let policy_label = if is_adaptive { "adaptive" } else { policy.kind.name() };
        let waits = |name| LockWaits::resolve(cfg.obs.as_ref(), name);
        Shard {
            capacity,
            policy_cfg: policy,
            low_watermark,
            high_watermark,
            frames: (0..capacity).map(|_| Mutex::new(Frame::empty())).collect(),
            words,
            buckets: (0..n_buckets).map(|_| Mutex::new(Vec::new())).collect(),
            free: CacheLine(FreeList {
                frames: Mutex::new((0..capacity as u32).rev().collect()),
                len: AtomicUsize::new(capacity),
            }),
            free_waits: waits("free"),
            dirty: DirtyQueue::new(waits("dirty")),
            policy: CacheLine(Mutex::new(PolicyState { ranked, adaptive })),
            policy_waits: waits("policy"),
            ledger: QuotaLedger::new(&cfg.partitioning, waits("charges")),
            epoch,
            ref_words,
            hand,
            touch_words,
            obs: cfg.obs.clone().map(|(hub, node)| {
                let reg = hub.registry();
                let mirror = |name: &str| (reg.counter(name), AtomicU64::new(0));
                ManagerObs {
                    mirrors: [
                        mirror(&format!("cache.hits.{policy_label}")),
                        mirror(&format!("cache.misses.{policy_label}")),
                        mirror("cache.evictions_clean"),
                        mirror("cache.evictions_dirty"),
                    ],
                    scan_visits: reg.histogram("cache.scan_visits"),
                    ev_eviction_scan: hub.intern("eviction_scan", Some("visited"), Some("dirty")),
                    ev_epoch_tick: hub.intern("epoch_tick", Some("epoch"), Some("accesses")),
                    hub,
                    node,
                }
            }),
            counts: AppCounts::new(),
            stats: AtomicStats::default(),
        }
    }

    #[inline]
    pub(super) fn frame(&self, idx: u32) -> MutexGuard<'_, Frame> {
        self.frames[idx as usize].lock()
    }

    /// The frame, unless another thread holds it.
    #[inline]
    fn try_frame(&self, idx: u32) -> Option<MutexGuard<'_, Frame>> {
        self.frames[idx as usize].try_lock()
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
        self.counts.total()
    }

    pub(super) fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        self.lock_policy().adaptive.as_ref().map(AdaptivePolicy::stats)
    }

    /// Lifetime ghost ledgers per candidate (`None`: static policy) —
    /// [`adaptive_stats`](Self::adaptive_stats) without cloning the
    /// decision logs.
    pub(super) fn ghost_rates(&self) -> Option<Vec<GhostRate>> {
        self.lock_policy().adaptive.as_ref().map(AdaptivePolicy::ghost_rates)
    }

    pub(super) fn live_policy_kind(&self) -> PolicyKind {
        self.lock_policy().ranked.kind().expect("shards rank with built-in policies")
    }

    pub(super) fn app_usage(&self) -> Vec<(AppId, AppUsage)> {
        self.counts.app_usage()
    }

    pub(super) fn resident_of(&self, app: AppId) -> usize {
        self.counts.resident_of(app)
    }

    pub(super) fn stats(&self) -> CacheStats {
        let PolicyStats { hits, misses, evictions_clean, evictions_dirty, .. } =
            self.counts.total();
        CacheStats {
            hits,
            misses,
            insertions: self.stats.insertions.get(),
            writes_absorbed: self.stats.writes_absorbed.get(),
            writes_passthrough: self.stats.writes_passthrough.get(),
            evictions_clean,
            evictions_dirty,
            flush_blocks: self.stats.flush_blocks.get(),
            invalidated: self.stats.invalidated.get(),
            invalidated_dirty: self.stats.invalidated_dirty.get(),
        }
    }

    pub(super) fn resident_keys(&self) -> Vec<BlockKey> {
        let mut out = Vec::new();
        for b in &self.buckets {
            out.extend(b.lock().iter().map(|(k, _)| *k));
        }
        out.sort_unstable();
        out
    }

    /// Fold the growth of the ledger's hits, misses and evictions since
    /// the last sync point into the hub's mirrors (see [`ManagerObs`]: no
    /// access touches the metric cells itself). Each high-water mark
    /// advances by CAS, so a delta is claimed by exactly one caller —
    /// concurrent sync points may split the growth but never count it
    /// twice, and a total that trails the mark claims nothing.
    pub(super) fn obs_flush(&self) {
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
        let Some(o) = &self.obs else { return };
        let t = self.counts.total();
        for ((mirror, seen), now) in
            o.mirrors.iter().zip([t.hits, t.misses, t.evictions_clean, t.evictions_dirty])
        {
            let d = claim(seen, now);
            if d > 0 {
                mirror.add(d);
            }
        }
    }

    /// Count one hit or miss by `app` in the ledger, then tick the epoch
    /// clock: a lookup needs nothing of the policy (a probe is not a use
    /// of the block, and a miss's install arrives as a filing).
    fn record(&self, app: AppId, col: Col) {
        self.counts.count(app, &[col]);
        self.epoch.tick();
    }

    /// A read hit: counted in the ledger, then a use of the block.
    fn record_hit(&self, idx: u32, key: BlockKey, app: AppId) {
        self.counts.count(app, &[Col::Hits]);
        self.note_touch(idx, key, app);
    }

    /// A use of a resident block (no hit/miss ledger on its own: read
    /// hits, sync-write refreshes, secondary-waiter attribution, merges
    /// into a resident block): one relaxed store into the frame's
    /// ref/recency word, then, on any shard but a static clock one, one
    /// policy hold that applies it. A touch is a real access, so it
    /// **does** advance the epoch clock (the explicit participation rule
    /// in the module docs). On a static clock shard the word stored here
    /// is the whole of it.
    fn note_touch(&self, idx: u32, key: BlockKey, app: AppId) {
        if self.touch_words {
            self.ref_words.touch(idx, app);
        }
        if self.hand.is_none() {
            self.lock_policy().touch(idx, key, app);
        }
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
                self.read_impl(key, span, app, |src| src.copy_to(out))
            }
            AccessKind::ReadWith { span, sink } => self.read_impl(key, span, app, sink),
            AccessKind::Probe { span } => self.probe_impl(key, span, app),
            AccessKind::Write { home, span, bytes } => self.write_impl(key, home, span, bytes, app),
            AccessKind::WriteDescribed { home, span } => {
                self.write_impl(key, home, span, OwnContent, app)
            }
            // Refused: cache wedged (all frames contended) or the app's
            // strict quota denied the install; the fetched bytes are
            // simply not cached.
            AccessKind::InsertClean { home, span, bytes } => {
                AccessOutcome::Inserted(self.install(key, home, span, bytes, app, false).flatten())
            }
            AccessKind::InsertDescribed { home, span } => AccessOutcome::Inserted(
                self.install(key, home, span, OwnContent, app, false).flatten(),
            ),
            AccessKind::Touch => self.touch_impl(key, app),
        }
    }

    /// A write-behind absorb. Never sacrifices dirty data for new writes
    /// (the paper's write-blocking point) — and never lets a write push
    /// its app over a strict quota.
    fn write_impl(
        &self,
        key: BlockKey,
        home: NodeId,
        span: Span,
        content: impl Incoming,
        app: AppId,
    ) -> AccessOutcome {
        AccessOutcome::Write(match self.install(key, home, span, content, app, true) {
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

    /// Hand `span` of `key` to `sink` and count a hit, or count a miss.
    fn read_impl(
        &self,
        key: BlockKey,
        span: Span,
        app: AppId,
        sink: impl FnOnce(BlockBytes<'_>),
    ) -> AccessOutcome {
        let b = self.bucket(&key);
        if let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) {
            let f = self.frame(idx);
            // Frame in hand (bucket → frame), the bucket has done its job:
            // the bytes go out under the frame lock alone.
            drop(b);
            if f.key() == Some(key) && f.valid.covers(span) {
                sink(f.bytes(span));
                drop(f);
                self.record_hit(idx, key, app);
                return AccessOutcome::Hit;
            }
        } else {
            drop(b);
        }
        self.record(app, Col::Misses);
        AccessOutcome::Miss
    }

    fn probe_impl(&self, key: BlockKey, span: Span, app: AppId) -> AccessOutcome {
        let b = self.bucket(&key);
        let hit = b.iter().any(|(k, idx)| {
            *k == key && {
                let f = self.frame(*idx);
                f.key() == Some(key) && f.valid.covers(span)
            }
        });
        drop(b);
        // A lookup, not a use: the ledger only, no recency refresh.
        if !hit {
            self.record(app, Col::Misses);
            return AccessOutcome::Miss;
        }
        self.record(app, Col::Hits);
        AccessOutcome::Hit
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
        content: impl Incoming,
        app: AppId,
        dirty: bool,
    ) -> Option<Option<FlushItem>> {
        loop {
            {
                let b = self.bucket(&key);
                if let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) {
                    let mut f = self.frame(idx);
                    if f.key() == Some(key) {
                        let mergeable = f.valid.mergeable(span);
                        if dirty && !mergeable {
                            // Disjoint sub-block writes would leave an
                            // unknown gap; refuse rather than flush garbage.
                            return None;
                        }
                        let mut link_dirty = false;
                        if mergeable {
                            content.merge(&mut f, span);
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
                f.home = home;
                content.take_in(&mut f, key, span);
                f.dirty = if dirty { span } else { Span::EMPTY };
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
    pub(super) fn update_if_present(
        &self,
        key: BlockKey,
        span: Span,
        content: impl Incoming,
    ) -> bool {
        let (idx, cleaned) = {
            let b = self.bucket(&key);
            let Some(&(_, idx)) = b.iter().find(|(k, _)| *k == key) else {
                return false;
            };
            let mut f = self.frame(idx);
            if f.key() != Some(key) || !f.valid.mergeable(span) {
                return false;
            }
            content.merge(&mut f, span);
            let cleaned = f.is_dirty() && span.covers(f.dirty);
            if span.covers(f.dirty) {
                f.dirty = Span::EMPTY;
                f.in_dirty_list = false;
            }
            (idx, cleaned)
        };
        self.note_touch(idx, key, AppId::UNKNOWN);
        if cleaned {
            self.shed_over_quota();
        }
        true
    }

    /// Evict one block and return its (now unlinked) frame, optionally
    /// restricted to frames owned by one application (the partition-local
    /// scan). Candidate *ranking* comes from the policy — the clock sweep,
    /// or the ranker under its lock ([`first_candidate`](Self::first_candidate));
    /// what the residency words say of *admissibility* — residency, pins,
    /// the owner — travels as a [`ScanFilter`] on every step (never stored
    /// in the policy, so a concurrent scan can interleave with this one
    /// but never widen or redirect its boundary); what only the frame
    /// knows (dirty, in flight) stays with
    /// [`try_evict_idx`](Self::try_evict_idx).
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
            let (mut filter, mut budget) = (ScanFilter { owner, examined: 0 }, 0);
            let mut candidate = self.first_candidate(&mut budget, &mut filter);
            while let Some(idx) = candidate {
                if let Some(victim) = self.try_evict_idx(idx, clean_only, allow_dirty, owner) {
                    if let Some(o) = &self.obs {
                        o.scan_visits.record(filter.examined);
                        let dirty = victim.flush.is_some() as u64;
                        o.hub.instant(o.ev_eviction_scan, o.node, 0, filter.examined, dirty);
                    }
                    return Some((idx, victim));
                }
                candidate = self.next_candidate(&mut budget, &mut filter);
            }
        }
        None
    }

    /// Claim frame `idx` for eviction: unlink its block from bucket and
    /// frame if the frame itself agrees it is an admissible victim. The
    /// policy-side half is the caller's to settle ([`Victim`]); until then
    /// the residency words still describe the old tenant, and a concurrent
    /// scan offered this frame finds it keyless, moves on. Two scans offered
    /// the same frame both look; the first to retake it in bucket → frame
    /// order evicts, the other finds the key gone and asks for its next
    /// candidate.
    fn try_evict_idx(
        &self,
        idx: u32,
        clean_only: bool,
        allow_dirty: bool,
        owner: Option<AppId>,
    ) -> Option<Victim> {
        // In flight to the iod: untouchable. Dirty: only a pass that
        // allows it.
        let admissible = |f: &Frame| !f.flushing && !(f.is_dirty() && (clean_only || !allow_dirty));
        // Read the key briefly, then retake in bucket → frame order. A
        // frame another thread holds is in use (a copy, a merge, another
        // evictor's look): the scan moves on rather than wait for it.
        let key = {
            let f = self.try_frame(idx)?;
            let key = f.key()?; // free or being reassigned
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
        // Changed hands, or changed state, meanwhile? The owner is read
        // again too, now that the frame is held: a partition-local scan
        // read its word before a tenant it did not pick could move in.
        let foreign = owner.is_some_and(|o| self.words.owner_of(idx) != o);
        if f.key() != Some(key) || !admissible(&f) || foreign {
            return None;
        }
        let flush = f.is_dirty().then(|| f.flush_item());
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
    /// between the two looks. Without the `f.key() != Some(key)` re-check the
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

    /// Every policy, and the adaptive manager, counts each access once in
    /// its shard's ledger, per app — a slotted one (0, 15), one past the
    /// slots (40) and the unattributed accessor — and no lookup takes the
    /// policy lock: misses and probe hits need nothing of the policy. A
    /// read hit or touch is a use of the block, one hold each, except on a
    /// static clock shard, which takes none for any access. App 40 is
    /// strict at one frame, so its second install evicts its own first:
    /// one scan, one eviction on its row, whatever the policy.
    #[test]
    fn every_policy_counts_each_access_once_off_the_policy_lock() {
        use kcache_adaptive::AdaptiveConfig;
        use kcache_policy::{AppId, AppUsage};
        let (a, b, far, unknown) = (AppId(0), AppId(15), AppId(40), AppId::UNKNOWN);
        let apps = [a, b, far, unknown];
        let statics = PolicyKind::ALL.map(|k| (k.name(), EvictPolicy::of(k), None));
        let adaptive = ("adaptive", EvictPolicy::default(), Some(AdaptiveConfig::all_candidates()));
        for (name, policy, adaptive) in statics.into_iter().chain([adaptive]) {
            let static_clock = policy.kind == PolicyKind::Clock && adaptive.is_none();
            let m = BufferManager::builder(4)
                .policy(policy)
                .adaptive(adaptive)
                .partitioning(crate::config::PartitionConfig::strict([(40, 1)]))
                .build();
            let bytes = vec![1u8; CACHE_BLOCK_SIZE];
            let key = |i: usize| BlockKey::new(Fid(1), i as u64);
            let insert = |i, app| {
                let kind =
                    AccessKind::InsertClean { home: NodeId(0), span: Span::FULL, bytes: &bytes };
                m.access(key(i), Access { app, kind });
            };
            let read = |i, app| {
                let mut out = vec![0u8; CACHE_BLOCK_SIZE];
                let kind = AccessKind::Read { span: Span::FULL, out: &mut out };
                m.access(key(i), Access { app, kind }).is_hit()
            };
            let probe = |i, app, kind| m.access(key(i), Access { app, kind }).is_hit();
            let probe = |i, app| probe(i, app, AccessKind::Probe { span: Span::FULL });
            let holds = || super::POLICY_HOLDS.with(std::cell::Cell::get);
            // App i's block is block i; block 9 is never resident.
            for (i, &app) in apps.iter().enumerate() {
                insert(i, app);
            }
            let before = holds();
            for (i, &app) in apps.iter().enumerate() {
                assert!(!read(9, app) && !probe(9, app) && probe(i, app), "{name}");
            }
            assert_eq!(holds(), before, "{name}: misses and probe hits take no policy lock");
            let before = holds();
            for (i, &app) in apps.iter().enumerate() {
                for _ in 0..=i {
                    assert!(read(i, app), "{name}");
                }
                assert!(m.access(key(i), Access { app, kind: AccessKind::Touch }).is_hit());
            }
            let uses = if static_clock { 0 } else { 1 + 2 + 3 + 4 + apps.len() as u64 };
            assert_eq!(holds() - before, uses, "{name}: one hold per use of a block");
            insert(4, far);
            assert_eq!(m.resident_keys(), [0, 1, 3, 4].map(key), "{name}: app 40 evicted its own");
            for _ in 0..2 {
                let usage = |hits, evictions| AppUsage { resident: 1, hits, misses: 2, evictions };
                let want = [(a, usage(2, 0)), (b, usage(3, 0)), (far, usage(4, 1))];
                assert_eq!(m.app_usage(), want, "{name}: per-app ledger");
                assert_eq!(apps.map(|app| m.resident_of(app)), [1, 1, 1, 0], "{name}");
                let ps = m.policy_stats();
                assert_eq!((ps.hits, ps.misses, ps.inserts, ps.removes), (14, 8, 5, 1), "{name}");
                assert_eq!((ps.evictions_clean, ps.evictions_dirty, ps.scans), (1, 0, 1), "{name}");
                let s = m.stats();
                let ledger = (ps.hits, ps.misses, ps.evictions_clean, ps.evictions_dirty);
                assert_eq!((s.hits, s.misses, s.evictions_clean, s.evictions_dirty), ledger);
            }
        }
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
            let reader = s.spawn(|| m.live_policy_kind());
            while contended("policy").get() == 0 {
                std::thread::yield_now();
            }
            drop(held);
            assert_eq!(reader.join().expect("reader panicked"), PolicyKind::Clock);
        });
        assert_eq!(contended("policy").get(), 1);
        assert_eq!(hub.registry().histogram("cache.lock_wait_ns.policy").count(), 1);
        for lock in ["free", "dirty", "charges"] {
            assert_eq!(contended(lock).get(), 0, "{lock} was never held");
        }
    }
}
