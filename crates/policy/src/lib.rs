//! # kcache-policy — pluggable cache-replacement policies
//!
//! The buffer manager's eviction decision, promoted from two hardcoded
//! booleans into a real subsystem. A [`ReplacementPolicy`] keeps ranking
//! metadata and, when the manager needs room, produces eviction candidates
//! in preference order. The manager keeps authority over *whether* a
//! candidate may actually be evicted (dirty state, in-flight flushes,
//! clean-first passes are its business); the policy only ranks.
//!
//! Policies operate on **frame indices** (`u32`, dense `0..capacity`) and
//! opaque **key fingerprints** (`u64`, the block key's hash) so the crate
//! stays independent of the buffer manager's block types. The accessing
//! application is identified by an [`AppId`] — this is what lets the
//! [`SharingAware`] policy implement the paper's inter-application insight
//! as an eviction preference: blocks referenced by more than one
//! application are protected over single-owner blocks.
//!
//! Implementations:
//!
//! * [`Clock`] — second-chance / approximate LRU (the paper's default,
//!   extracted verbatim from the seed manager),
//! * [`ExactLru`] — exact LRU list updated on every access (the ablation
//!   the paper argues against),
//! * [`Lfu`] — least-frequently-used with LRU tie-break,
//! * [`TwoQ`] — 2Q (A1in FIFO + A1out ghost + Am LRU),
//! * [`Arc`] — adaptive replacement cache (T1/T2 with B1/B2 ghosts),
//! * [`SharingAware`] — evict single-application blocks before blocks
//!   shared across applications, LRU within each class.
//!
//! All but clock keep their eviction order in one shared structure, an
//! intrusive rank-ordered index with a rank-space scan cursor (`index.rs`):
//! no hook and no scan step sorts, snapshots or allocates.
//!
//! No policy owns residency. A [`RankedTable`] pairs one [`FrameTable`] —
//! the residency / pin / **ownership** words — with the boxed policy
//! ranking it, and lends the table to every hook. Neither keeps a ledger:
//! the buffer manager counts each access once, beside the table, and
//! reports it as [`PolicyStats`] and [`AppUsage`]. Ownership (which
//! application installed each frame) powers the **filtered scan
//! protocol**: the manager passes a
//! [`ScanFilter`] to every [`next_candidate`](RankedTable::next_candidate)
//! call, and the table rejects every candidate not owned by the filtered
//! application. This is what makes per-application cache partitioning work
//! *inside* any policy: the policy keeps ranking exactly as before, the
//! filter narrows which ranked frames may leave the cache, under the hold
//! the scan already runs in.
//!
//! Concurrency contract: policy state is a **leaf lock** in the manager's
//! lock order (bucket → frame → policy). The trait is `Send` (not `Sync`);
//! the manager wraps the [`RankedTable`] in a `Mutex` and never holds that
//! lock while acquiring a bucket or frame lock. What a frame's residency,
//! pin and owner are lives in atomic [`FrameWords`] shared by handle, and
//! clock's hand is an atomic [`ClockHand`]: a static clock shard of the
//! manager stores the words and sweeps the hand without that lock at all,
//! and every ranker reads the same words under it.
//!
//! Every hit and recency touch stores into the table's per-frame atomic
//! [`RefWords`] (ref bit + app-touch mask) without that lock, and the
//! manager then applies the use to the ranker as it happens
//! ([`RankedTable::touch`]), under the lock. [`Clock`] needs no
//! `on_access` at all: it ranks directly from the atomic ref bits, so a
//! static clock shard of the manager takes no lock for an access, which
//! recovers the seed's store-only per-hit cost.

pub mod arc;
pub mod clock;
pub mod hash;
mod index;
pub mod lfu;
pub mod lru;
pub mod sharing;
pub mod table;
pub mod twoq;

pub use arc::Arc;
pub use clock::{Clock, ClockHand};
pub use index::GhostLists;
pub use lfu::Lfu;
pub use lru::ExactLru;
pub use sharing::SharingAware;
pub use table::{FrameTable, FrameWords, RefWords, ScanFilter};
pub use twoq::TwoQ;

/// Identity of the application instance performing an access.
///
/// The cache module learns it at client-registration time and threads it
/// through every hit/insert so sharing-aware policies can count distinct
/// referents per frame. Accesses whose origin is unknown (direct manager
/// API use, tests) carry [`AppId::UNKNOWN`] and never count as sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppId(pub u32);

impl AppId {
    pub const UNKNOWN: AppId = AppId(u32::MAX);
}

/// Per-application slice of the cache's ledger: how many frames the
/// application currently owns and the hit/miss/eviction traffic attributed
/// to it. A report type: the buffer manager counts it and fills it in;
/// this is what per-app cache partitioning reports (occupancy, per-app
/// hit ratio) and what quota enforcement audits against.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AppUsage {
    /// Frames currently owned (installed) by this application.
    pub resident: u64,
    /// Cache hits attributed to this application.
    pub hits: u64,
    /// Cache misses attributed to this application.
    pub misses: u64,
    /// Evictions of frames this application owned.
    pub evictions: u64,
}

impl AppUsage {
    /// Hits over total attributed accesses (`None` before any traffic).
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// The cache's event counts, as a report type: hits and misses per
/// lookup, inserts and removes per residency begun and ended, evictions
/// per capacity eviction, `scans` per eviction scan started. The buffer
/// manager counts each event once, in its one ledger, and its
/// `CacheStats` hit/miss/eviction counts are the same numbers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PolicyStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub removes: u64,
    pub evictions_clean: u64,
    pub evictions_dirty: u64,
    pub scans: u64,
}

impl PolicyStats {
    /// Field-wise accumulation — kept next to the struct so adding a
    /// counter cannot silently drop it from aggregated ledgers.
    pub fn merge(&mut self, other: &PolicyStats) {
        let PolicyStats { hits, misses, inserts, removes, evictions_clean, evictions_dirty, scans } =
            *other;
        self.hits += hits;
        self.misses += misses;
        self.inserts += inserts;
        self.removes += removes;
        self.evictions_clean += evictions_clean;
        self.evictions_dirty += evictions_dirty;
        self.scans += scans;
    }
}

/// One live policy switch performed by a meta-policy at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchRecord {
    /// Epoch index (1-based; the tick that decided the switch).
    pub epoch: u64,
    pub from: PolicyKind,
    pub to: PolicyKind,
    /// The outgoing policy's ghost hit rate over the deciding epoch.
    pub from_rate: f64,
    /// The incoming policy's ghost hit rate over the deciding epoch.
    pub to_rate: f64,
}

/// One quota transfer decided by a meta-policy's marginal-utility tuner:
/// the one form a move takes from the rule that picks it to the move log,
/// the charge ledger that applies it and the trace event that reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaMoveRecord {
    /// Epoch index (1-based; the tick that decided the move).
    pub epoch: u64,
    /// The app whose quota shrank (lowest marginal utility).
    pub from: AppId,
    /// The app whose quota grew (highest marginal utility).
    pub to: AppId,
    pub frames: usize,
    /// The loser's epoch refault count — the marginal-utility evidence
    /// that it would lose the least by shrinking.
    pub from_refaults: u64,
    /// The winner's epoch refault count — the evidence that it would
    /// gain the most by growing. Always `> from_refaults` (the tuner
    /// only moves quota on a strict utility gap).
    pub to_refaults: u64,
}

/// Lifetime hit/miss ledger of one candidate's ghost cache. The counts are
/// over the ghost's key sample: from 128 frames up, a ghost
/// replays only 1/R of the keys (R = 2 … 16, `kcache_adaptive::ghost`), so
/// `hits + misses` is about 1/R of the live accesses; below, every access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhostRate {
    pub kind: PolicyKind,
    pub hits: u64,
    pub misses: u64,
}

impl GhostRate {
    /// Hits over total simulated accesses (0.0 before any traffic).
    pub fn rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Observability ledger of an adaptive meta-policy: epoch/switch counts,
/// the per-epoch switch log, lifetime ghost hit rates per candidate, and
/// the quota-tuner move log. Defined here (next to [`PolicyStats`]) so
/// consumers can report it without depending on the meta-policy crate.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct AdaptiveStats {
    /// Epoch ticks observed.
    pub epochs: u64,
    /// Live policy switches performed.
    pub switches: u64,
    pub switch_log: Vec<SwitchRecord>,
    /// Lifetime ghost ledgers, one per candidate (candidate order).
    pub ghost_rates: Vec<GhostRate>,
    /// Quota transfers performed by the tuner.
    pub quota_moves: u64,
    pub quota_log: Vec<QuotaMoveRecord>,
}

impl AdaptiveStats {
    /// Field-wise accumulation across cache modules (ghost ledgers merge
    /// by kind so per-node candidate lists may differ).
    pub fn merge(&mut self, other: &AdaptiveStats) {
        self.epochs += other.epochs;
        self.switches += other.switches;
        self.switch_log.extend(other.switch_log.iter().copied());
        for g in &other.ghost_rates {
            match self.ghost_rates.iter_mut().find(|m| m.kind == g.kind) {
                Some(m) => {
                    m.hits += g.hits;
                    m.misses += g.misses;
                }
                None => self.ghost_rates.push(*g),
            }
        }
        self.quota_moves += other.quota_moves;
        self.quota_log.extend(other.quota_log.iter().copied());
    }
}

/// A replacement policy: **ranking hooks only**. The residency / pin /
/// ownership state lives in the [`RankedTable`] that owns the ranker, the
/// hit/miss/per-app ledger with the buffer manager; every hook borrows
/// that table's [`FrameTable`] read-only for eligibility checks and the
/// atomic ref words, and keeps nothing but its own ranking metadata
/// (queues, frequencies, referent sets, a clock hand). Five required
/// hooks, four provided — a new policy is one file implementing the five.
///
/// Invariants every implementation must uphold (property-tested in
/// `tests/invariants.rs`, a test-local seventh policy included):
///
/// * [`next_candidate`](ReplacementPolicy::next_candidate) only returns
///   frames that are resident, unpinned, `< capacity`, and let through by
///   the [`ScanFilter`] passed — owned by the filtered application
///   ([`FrameTable::evictable_for`] is that check);
/// * a scan terminates (`next_candidate` eventually returns `None`),
///   filtered or not.
///
/// The filter is a **per-call parameter**, not policy state: the
/// caller passes it on every `next_candidate`, so two interleaved scans
/// (possible under the manager's drop-the-lock-between-candidates
/// discipline) can disturb each other's *ordering* — harmless, a raced
/// candidate is simply rejected and asked again — but never each other's
/// partition boundary.
///
/// **A scan lives across lock drops.** The manager releases the policy
/// lock between two `next_candidate` calls, so any hook — and another
/// thread's `begin_scan` — may run mid-scan. A scan position must
/// therefore stay meaningful under any of them: both invariants above
/// hold at every call whatever ran in between, a frame no hook touched
/// since `begin_scan` keeps its turn, and a scan ends within `2 ×
/// capacity` calls plus one per hook that ran. The built-in list rankers
/// keep a position in *rank space* (the rank last offered), clock a hand
/// and a step budget; a snapshot taken at `begin_scan` also qualifies.
///
/// **Cost.** The insert/access/evict path of every built-in is O(1) in
/// the pool's capacity and allocates nothing: `on_insert`, `on_access`,
/// `on_remove` relink one frame in an intrusive index (2Q/ARC add a
/// hash-map lookup of the block's fingerprint in their ghost lists),
/// `begin_scan` resets a cursor, and one `next_candidate` costs one step
/// per frame it passes over. The exceptions are named where they occur: [`SharingAware`]'s
/// `begin_scan` does one relaxed load per frame of the pool, and
/// `recency_ranking`, `epoch_tick` and [`RankedTable::migrate`] — called
/// at switches and epoch boundaries, never per access — may walk or sort
/// the pool.
pub trait ReplacementPolicy: Send {
    /// A new block (fingerprint `key`) was installed into `frame`; the
    /// table already records it (residency, key, owner).
    fn on_insert(&mut self, table: &FrameTable, frame: u32, key: u64, app: AppId);

    /// A resident frame was hit by `app`; `key` is the block's fingerprint.
    ///
    /// The buffer manager reaches this through [`RankedTable::touch`]
    /// once it has let go of the frame, so an implementation must
    /// tolerate `frame` having been vacated or re-assigned since the
    /// access (the manager's drop-the-lock-between-steps discipline
    /// always allowed that race): stale recency on a non-resident frame
    /// is reset by the next `on_insert`.
    fn on_access(&mut self, table: &FrameTable, frame: u32, key: u64, app: AppId);

    /// `frame` is being vacated (eviction or invalidation); `key`
    /// identifies the departing block so ghost-list policies can remember
    /// it. The table still shows the frame resident during the call and
    /// forgets it right after.
    fn on_remove(&mut self, table: &FrameTable, frame: u32, key: u64);

    /// Start a fresh eviction scan, abandoning any scan in progress.
    /// Candidate order is whatever the ranking is when each candidate is
    /// asked for (a scan nobody disturbs offers the order at this call);
    /// candidate *eligibility* (residency, pins, the owner filter) is the
    /// table's business.
    fn begin_scan(&mut self, table: &FrameTable);

    /// Next eviction candidate in preference order, or `None` when the
    /// scan is exhausted. With an owner in `filter` only frames owned by
    /// that application are offered — the partition-local scan quota
    /// enforcement runs — and other owners' ranking state must be left
    /// untouched (skipped, not consumed). The caller may reject a candidate
    /// (dirty during a clean-only pass, raced away, …) and simply ask
    /// again; hooks may have run since the previous call (see the trait
    /// docs).
    fn next_candidate(&mut self, table: &FrameTable, filter: &mut ScanFilter) -> Option<u32>;

    /// The resident frames in this policy's *eviction-preference order* —
    /// soonest-to-evict first, most-protected last — without consuming any
    /// ranking state (a read-only view of what a scan *would* offer).
    /// [`RankedTable::migrate`] replays residency through the incoming
    /// policy in this order, so the outgoing policy's recency/utility
    /// ranking survives a live switch instead of degrading to frame-index
    /// order. `None` means the policy has no meaningful ordering to export
    /// and the caller falls back to frame order.
    fn recency_ranking(&self, table: &FrameTable) -> Option<Vec<u32>> {
        let _ = table;
        None
    }

    /// Time-based aging at an epoch boundary ([`SharingAware`]'s referent
    /// decay); the default is a no-op. A policy never decides anything for
    /// its host here.
    fn epoch_tick(&mut self) {}

    /// The [`ClockHand`] this policy's scans sweep, if it is clock: such a
    /// policy ranks eviction candidates from the table's atomic
    /// [`RefWords`] and [`FrameWords`] alone, and [`RankedTable::touch`]
    /// skips its `on_access`: the caller already stored the recency word
    /// at access time, so an access needs nothing else of the policy. A
    /// static shard of the buffer manager therefore takes no policy lock
    /// for such a policy's accesses at all, clones the handle, and runs
    /// the same sweep without the policy lock.
    fn clock_hand(&self) -> Option<&ClockHand> {
        None
    }

    /// Does this policy consume the [`RefWords`] app-touch mask at scan
    /// time ([`RefWords::take_app_mask`])? The manager stores app bits
    /// on every hit/touch when this is `true`, even though the policy
    /// does not *rank* from the words — sharing-aware folds into its
    /// referent sets the touches its `on_access` did not see in the live
    /// generation (see [`SharingAware`]).
    fn consumes_app_mask(&self) -> bool {
        false
    }
}

/// A [`FrameTable`] and the [`ReplacementPolicy`] ranking it — residency
/// kept beside each hook, and live migration to another policy over the
/// *same* table. It counts nothing: hits, misses, scans and the per-app
/// ledger are the buffer manager's to count. The buffer
/// manager holds one per shard behind its policy leaf lock; each adaptive
/// ghost cache holds one per candidate.
pub struct RankedTable {
    table: FrameTable,
    ranker: Box<dyn ReplacementPolicy>,
    /// The [`PolicyKind`] that built the ranker; `None` for a ranker
    /// handed to [`with_ranker`](Self::with_ranker) (the enum is closed,
    /// so an out-of-crate policy has no kind to name).
    kind: Option<PolicyKind>,
}

impl RankedTable {
    /// Rank a fresh pool of `capacity` frames with a caller-built policy.
    pub fn with_ranker(capacity: usize, ranker: Box<dyn ReplacementPolicy>) -> RankedTable {
        assert!(capacity > 0, "policy over empty frame pool");
        RankedTable { table: FrameTable::new(capacity), ranker, kind: None }
    }

    /// Which built-in policy ranks right now (`None`: a caller-built one).
    pub fn kind(&self) -> Option<PolicyKind> {
        self.kind
    }

    /// Residency, pins, owners, ref words. Residency only changes
    /// through [`insert`](Self::insert) / [`remove`](Self::remove), which
    /// keep the ranker in step; pins are atomic
    /// ([`FrameTable::set_pinned`]).
    pub fn table(&self) -> &FrameTable {
        &self.table
    }

    /// The ranker's static traits (`clock_hand`, `consumes_app_mask`).
    pub fn ranker(&self) -> &dyn ReplacementPolicy {
        self.ranker.as_ref()
    }

    /// A new block (fingerprint `key`) was installed into `frame` by `app`.
    pub fn insert(&mut self, frame: u32, key: u64, app: AppId) {
        self.table.insert(frame, key, app);
        self.ranker.on_insert(&self.table, frame, key, app);
    }

    /// `frame` was vacated (eviction or invalidation).
    pub fn remove(&mut self, frame: u32, key: u64) {
        self.ranker.on_remove(&self.table, frame, key);
        self.table.remove(frame);
    }

    /// One recency refresh through `on_access`, whatever the ranker
    /// (ghost caches, tests); the manager's go through
    /// [`touch`](Self::touch).
    pub fn access(&mut self, frame: u32, key: u64, app: AppId) {
        self.ranker.on_access(&self.table, frame, key, app);
    }

    /// A use of resident `frame` by `app` (a read hit, a sync-write
    /// refresh, a merge): the ranker's `on_access`, skipped for one that
    /// [ranks from the ref words](ReplacementPolicy::clock_hand) — the
    /// caller stored the word at access time, which is all such a ranker
    /// keeps.
    pub fn touch(&mut self, frame: u32, key: u64, app: AppId) {
        if self.ranker.clock_hand().is_none() {
            self.ranker.on_access(&self.table, frame, key, app);
        }
    }

    /// Start a fresh eviction scan.
    pub fn begin_scan(&mut self) {
        self.ranker.begin_scan(&self.table);
    }

    /// Next eviction candidate of the current scan; see
    /// [`ReplacementPolicy::next_candidate`].
    pub fn next_candidate(&mut self, filter: &mut ScanFilter) -> Option<u32> {
        self.ranker.next_candidate(&self.table, filter)
    }

    /// See [`ReplacementPolicy::recency_ranking`].
    pub fn recency_ranking(&self) -> Option<Vec<u32>> {
        self.ranker.recency_ranking(&self.table)
    }

    /// Epoch-boundary aging; see [`ReplacementPolicy::epoch_tick`].
    pub fn epoch_tick(&mut self) {
        self.ranker.epoch_tick();
    }

    /// Live-migrate to a fresh policy of `to`'s kind over the **same**
    /// table: every resident frame is replayed through the new ranker's
    /// `on_insert` in the outgoing policy's
    /// [`recency_ranking`](ReplacementPolicy::recency_ranking) order
    /// (soonest-to-evict first, so the incoming policy ends up protecting
    /// what the outgoing one protected; frame order is the fallback when
    /// the outgoing policy exports no ranking). The table never moves, so
    /// pins, ownership and the atomic [`RefWords`] all survive the switch
    /// untouched. A policy that ranks from those words has nothing to
    /// rebuild and is not replayed into: its `on_insert` resets a frame's
    /// word, which would strip the reference bits that must keep
    /// protecting their frames.
    pub fn migrate(&mut self, to: PolicyKind) {
        let mut ranker = to.ranker(self.table.capacity());
        if ranker.clock_hand().is_none() {
            let order = self.recency_ranking().unwrap_or_else(|| self.table.resident_frames());
            for frame in order {
                if self.table.is_resident(frame) {
                    let (key, owner) = (self.table.key_of(frame), self.table.owner_of(frame));
                    ranker.on_insert(&self.table, frame, key, owner);
                }
            }
        }
        self.ranker = ranker;
        self.kind = Some(to);
    }
}

/// Selector for the built-in policies — what configs, JSON experiment
/// specs, and ablations name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Second chance / approximate LRU (the paper's §3.2 choice).
    Clock,
    /// Exact LRU list updated on every access (the paper's ablation).
    ExactLru,
    /// Least frequently used, LRU tie-break.
    Lfu,
    /// 2Q: FIFO admission queue + ghost list + main LRU.
    TwoQ,
    /// Adaptive replacement cache.
    Arc,
    /// Protect blocks referenced by multiple applications.
    SharingAware,
}

impl PolicyKind {
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Clock,
        PolicyKind::ExactLru,
        PolicyKind::Lfu,
        PolicyKind::TwoQ,
        PolicyKind::Arc,
        PolicyKind::SharingAware,
    ];

    /// Stable textual name (JSON configs, figure series labels).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Clock => "clock",
            PolicyKind::ExactLru => "exact-lru",
            PolicyKind::Lfu => "lfu",
            PolicyKind::TwoQ => "2q",
            PolicyKind::Arc => "arc",
            PolicyKind::SharingAware => "sharing-aware",
        }
    }

    /// Inverse of [`name`](PolicyKind::name).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// A pool of `capacity` frames ranked by this policy.
    pub fn build(self, capacity: usize) -> RankedTable {
        RankedTable {
            kind: Some(self),
            ..RankedTable::with_ranker(capacity, self.ranker(capacity))
        }
    }

    fn ranker(self, capacity: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Clock => Box::new(Clock::default()),
            PolicyKind::ExactLru => Box::new(ExactLru::new(capacity)),
            PolicyKind::Lfu => Box::new(Lfu::new(capacity)),
            PolicyKind::TwoQ => Box::new(TwoQ::new(capacity)),
            PolicyKind::Arc => Box::new(Arc::new(capacity)),
            PolicyKind::SharingAware => Box::new(SharingAware::new(capacity)),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind), "{kind}");
        }
        assert_eq!(PolicyKind::parse("lru"), None, "one spelling per policy");
        assert_eq!(PolicyKind::parse("nope"), None);
    }

    #[test]
    fn build_produces_matching_kind() {
        for kind in PolicyKind::ALL {
            let p = kind.build(8);
            assert_eq!(p.kind(), Some(kind));
            assert_eq!(p.table().capacity(), 8);
            assert!(p.table().resident_frames().is_empty());
        }
    }

    #[test]
    fn owner_filtered_scans_respect_partitions_in_every_policy() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build(8);
            // Frames 0..4 belong to app 0, frames 4..8 to app 1.
            for f in 0..8u32 {
                p.insert(f, 100 + f as u64, AppId(f / 4));
            }
            assert_eq!(p.table().owner_of(2), AppId(0), "{kind}");
            assert_eq!(p.table().owner_of(6), AppId(1), "{kind}");
            p.begin_scan();
            let mut offered = Vec::new();
            while let Some(c) = p.next_candidate(&mut ScanFilter::owned_by(AppId(1))) {
                offered.push(c);
                assert!(offered.len() <= 32, "{kind}: filtered scan did not terminate");
            }
            assert!(!offered.is_empty(), "{kind}: filtered scan found no candidate");
            assert!(
                offered.iter().all(|&f| (4..8).contains(&f)),
                "{kind}: filtered scan leaked another app's frames: {offered:?}"
            );
            // Without the filter the whole pool is eligible again.
            p.begin_scan();
            let mut all = std::collections::BTreeSet::new();
            while let Some(c) = p.next_candidate(&mut ScanFilter::default()) {
                all.insert(c);
                assert!(all.len() <= 8, "{kind}: unfiltered scan did not terminate");
            }
            assert!(!all.is_empty(), "{kind}: unfiltered scan found no candidate");
        }
    }

    #[test]
    fn migrate_preserves_residency_pins_ledger_and_ref_words() {
        for from in PolicyKind::ALL {
            for to in PolicyKind::ALL {
                let mut p = from.build(8);
                for f in 0..6u32 {
                    p.insert(f, 500 + f as u64, AppId(f % 2));
                }
                p.access(1, 501, AppId(1));
                p.table().set_pinned(2, true);
                p.remove(5, 505);
                // The manager's lock-free half of a hit: it must keep
                // protecting frame 3 whichever policy comes in — clock
                // included, whose `on_insert` would clear it.
                p.table().ref_words().touch(3, AppId(0));
                let entries = p.table().resident_entries();
                p.migrate(to);
                assert_eq!(p.kind(), Some(to), "{from}->{to}");
                assert_eq!(p.table().resident_entries(), entries, "{from}->{to}: residency");
                assert!(p.table().is_pinned(2), "{from}->{to}: pin lost");
                assert!(p.table().ref_words().is_referenced(3), "{from}->{to}: ref word cleared");
                // The migrated policy must still run a working scan.
                p.begin_scan();
                let c = p
                    .next_candidate(&mut ScanFilter::default())
                    .expect("migrated policy must find a victim");
                assert!(p.table().evictable(c), "{from}->{to}: bad candidate {c}");
            }
        }
    }

    #[test]
    fn recency_ranking_covers_residency_without_consuming_state() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build(8);
            for f in 0..6u32 {
                p.insert(f, 100 + f as u64, AppId(f % 2));
            }
            p.access(1, 101, AppId(1));
            p.table().ref_words().touch(2, AppId(0));
            let Some(order) = p.recency_ranking() else {
                panic!("{kind}: every built-in policy exports a ranking");
            };
            let set: std::collections::BTreeSet<u32> = order.iter().copied().collect();
            assert_eq!(
                set,
                p.table().resident_frames().into_iter().collect(),
                "{kind}: ranking must cover exactly the resident set"
            );
            assert_eq!(order.len(), 6, "{kind}: ranking has duplicates");
            assert_eq!(
                p.recency_ranking().unwrap(),
                order,
                "{kind}: exporting the ranking must not consume ranking state"
            );
            assert!(
                p.table().ref_words().is_referenced(2),
                "{kind}: ranking export consumed a reference bit"
            );
        }
    }

    #[test]
    fn migrate_preserves_recency_order() {
        let mut p = PolicyKind::ExactLru.build(8);
        for f in 0..6u32 {
            p.insert(f, 500 + f as u64, AppId::UNKNOWN);
        }
        // Touch in an order that diverges from frame-index order.
        p.access(0, 500, AppId::UNKNOWN);
        p.access(3, 503, AppId::UNKNOWN);
        let want = p.recency_ranking().unwrap();
        assert_eq!(want, vec![1, 2, 4, 5, 0, 3]);
        p.migrate(PolicyKind::ExactLru);
        assert_eq!(p.recency_ranking().unwrap(), want, "LRU order must survive the switch");
        p.begin_scan();
        assert_eq!(
            p.next_candidate(&mut ScanFilter::default()),
            Some(1),
            "victim choice carries over"
        );
    }

    #[test]
    fn app_usage_hit_ratio() {
        let u = AppUsage { resident: 3, hits: 3, misses: 1, evictions: 0 };
        assert_eq!(u.hit_ratio(), Some(0.75));
        assert_eq!(AppUsage::default().hit_ratio(), None);
    }
}
