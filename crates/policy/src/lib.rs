//! # kcache-policy — pluggable cache-replacement policies
//!
//! The buffer manager's eviction decision, promoted from two hardcoded
//! booleans into a real subsystem. A [`ReplacementPolicy`] tracks frame
//! residency/recency metadata and, when the manager needs room, produces
//! eviction candidates in preference order. The manager keeps authority
//! over *whether* a candidate may actually be evicted (dirty state,
//! in-flight flushes, clean-first passes are its business); the policy only
//! ranks.
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
//! Every policy embeds a [`FrameTable`] — the shared residency / pin /
//! **ownership** bookkeeping. Ownership (which application installed each
//! frame) powers the **owner-filtered scan protocol**: the manager passes
//! an owner filter to every
//! [`next_candidate`](ReplacementPolicy::next_candidate) call, and the
//! table rejects every candidate not owned by the filtered application.
//! This is what makes per-application cache partitioning work *inside*
//! any policy: the policy keeps ranking exactly as before, the filter
//! narrows which ranked frames may leave the cache.
//!
//! Concurrency contract: policy state is a **leaf lock** in the manager's
//! lock order (bucket → frame → policy). The trait is `Send` (not `Sync`);
//! the manager wraps the boxed policy in a `Mutex` and never holds that
//! lock while acquiring a bucket or frame lock.
//!
//! The **hit fast path does not take that lock at all**: hits and recency
//! touches store into the table's per-frame atomic [`RefWords`] (ref bit +
//! app-touch mask) and enqueue an [`AccessEvent`] into the manager's
//! bounded side-buffer. The policy sees the deferred events in batches via
//! [`ReplacementPolicy::drain`] — applied before anything that ranks or
//! reports (eviction scans, inserts, epoch ticks, stats reads), so under a
//! single thread the drained path is observation-equivalent to calling the
//! eager hooks at access time (pinned by differential tests). [`Clock`]
//! never needs the replayed `on_access` at all: it ranks directly from the
//! atomic ref bits, recovering the seed's store-only per-hit cost.

pub mod arc;
pub mod clock;
pub mod lfu;
pub mod lru;
pub mod sharing;
pub mod table;
pub mod twoq;

pub use arc::Arc;
pub use clock::Clock;
pub use lfu::Lfu;
pub use lru::ExactLru;
pub use sharing::SharingAware;
pub use table::{FrameTable, RefWords};
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

/// Per-application slice of the policy ledger: how many frames the
/// application currently owns and the hit/miss/eviction traffic attributed
/// to it. Maintained by the [`FrameTable`]; this is what per-app cache
/// partitioning reports (occupancy, per-app hit ratio) and what quota
/// enforcement audits against.
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

/// Per-policy event counters (the subsystem's own ledger, independent of
/// the buffer manager's atomic counters). Hits/misses/evictions are fed by
/// the manager; inserts/removes are maintained by the policy's
/// [`FrameTable`]; `scans` counts eviction scans started.
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

/// What kind of access a deferred [`AccessEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A data-serving hit: hit ledgers + recency refresh.
    Hit,
    /// A lookup-only hit (`probe`): hit ledgers, **no** recency refresh —
    /// planning a request split is not a use of the block.
    ProbeHit,
    /// A miss: miss ledgers only (the eventual install arrives as an
    /// eager `on_insert`).
    Miss,
    /// A recency-only touch (sync-write refresh, secondary-waiter
    /// attribution, merge into a resident block): recency refresh, no
    /// hit/miss ledger.
    Touch,
}

/// One deferred access, produced lock-free on the buffer manager's hit
/// fast path and applied to the policy in batches via
/// [`ReplacementPolicy::drain`]. `frame`/`key` are meaningless for
/// [`AccessKind::ProbeHit`]/[`AccessKind::Miss`] (no frame is involved).
///
/// Producer contract: for `Hit` and `Touch` events the producer has
/// already updated the table's [`RefWords`] at access time — that *is*
/// the lock-free recency store. `drain` applies everything that was
/// deferred: the [`PolicyStats`] hit/miss counters, the per-app
/// [`AppUsage`] ledger, and (for policies that do not rank from the
/// atomic words) the `on_access` recency replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    pub kind: AccessKind,
    pub frame: u32,
    pub key: u64,
    pub app: AppId,
}

impl AccessEvent {
    pub fn hit(frame: u32, key: u64, app: AppId) -> AccessEvent {
        AccessEvent { kind: AccessKind::Hit, frame, key, app }
    }

    pub fn probe_hit(app: AppId) -> AccessEvent {
        AccessEvent { kind: AccessKind::ProbeHit, frame: u32::MAX, key: 0, app }
    }

    pub fn miss(app: AppId) -> AccessEvent {
        AccessEvent { kind: AccessKind::Miss, frame: u32::MAX, key: 0, app }
    }

    pub fn touch(frame: u32, key: u64, app: AppId) -> AccessEvent {
        AccessEvent { kind: AccessKind::Touch, frame, key, app }
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

/// One quota transfer performed by a meta-policy's marginal-utility tuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaMoveRecord {
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

/// Lifetime hit/miss ledger of one candidate's ghost cache.
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
/// the quota-tuner move log. Defined here (next to [`PolicyStats`]) so the
/// `ReplacementPolicy` trait can expose it without depending on any
/// particular meta-policy implementation.
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

/// A replacement policy: residency/recency bookkeeping plus ranked
/// eviction candidates.
///
/// Invariants every implementation must uphold (property-tested in
/// `tests/invariants.rs`):
///
/// * [`next_candidate`](ReplacementPolicy::next_candidate) only returns
///   frames that are resident, unpinned, `< capacity`, and — when an
///   owner filter is passed — owned by the filtered application;
/// * the set of resident frames never exceeds `capacity`;
/// * a scan terminates (`next_candidate` eventually returns `None`),
///   filtered or not.
///
/// The owner filter is a **per-call parameter**, not policy state: the
/// caller passes it on every `next_candidate`, so two interleaved scans
/// (possible under the manager's drop-the-lock-between-candidates
/// discipline) can disturb each other's *ordering* — harmless, a raced
/// candidate is simply rejected and asked again — but never each other's
/// partition boundary.
///
/// The residency / pin / ownership state lives in the embedded
/// [`FrameTable`]; the provided methods (pinning, the per-application
/// ledger, stats access) are table-backed so individual policies only
/// implement ranking.
pub trait ReplacementPolicy: Send {
    /// Which [`PolicyKind`] built this policy.
    fn kind(&self) -> PolicyKind;

    /// The shared residency/pin/ownership bookkeeping this policy embeds.
    fn table(&self) -> &FrameTable;
    fn table_mut(&mut self) -> &mut FrameTable;

    /// A resident frame was hit by `app`; `key` is the block's fingerprint.
    ///
    /// Callers that defer hit bookkeeping (the buffer manager's lock-free
    /// fast path) do not call this directly — they enqueue an
    /// [`AccessEvent`] and the default [`drain`](Self::drain) replays it
    /// here. Either way, an implementation must tolerate `frame` having
    /// been vacated or re-assigned since the access (the manager's
    /// drop-the-lock-between-steps discipline always allowed that race):
    /// stale recency on a non-resident frame is reset by the next
    /// `on_insert`.
    fn on_access(&mut self, frame: u32, key: u64, app: AppId);

    /// Does this policy rank eviction candidates directly from the
    /// table's atomic [`RefWords`] (clock), never needing the deferred
    /// `on_access` replay? Producers use this to collapse *unattributed*
    /// hit/miss/touch events — whose only other deferred effect is a
    /// counter bump, since [`AppId::UNKNOWN`] never enters the per-app
    /// ledger — into plain atomic counters instead of ring traffic.
    /// Meta-policies that feed ghost simulators from the event stream
    /// must leave this `false` even when their live candidate is clock.
    fn ranks_from_ref_words(&self) -> bool {
        false
    }

    /// Does this policy consume the [`RefWords`] app-touch mask at scan
    /// time ([`RefWords::take_app_mask`])? The manager stores app bits
    /// on every hit/touch when this is `true`, even though the policy
    /// does not *rank* from the words — sharing-aware folds undrained
    /// touches into its referent sets so protection is current at scan
    /// time, not as of the last drain.
    fn consumes_app_mask(&self) -> bool {
        false
    }

    /// Credit `hits`/`misses` collapsed count-only events (see
    /// [`ranks_from_ref_words`](Self::ranks_from_ref_words)) into the
    /// stats ledger. Order relative to drained batches is irrelevant:
    /// counters commute, and count-only events carry no recency or
    /// per-app information by construction.
    fn credit_counts(&mut self, hits: u64, misses: u64) {
        self.stats_mut().hits += hits;
        self.stats_mut().misses += misses;
    }

    /// Apply a batch of deferred access events, oldest first. The
    /// provided default replays each event through the eager hooks —
    /// hit/miss counters, the per-app ledger, `on_access` for recency —
    /// so a policy that implements only the eager surface is drain-ready.
    /// Policies that rank from the table's atomic [`RefWords`] (clock)
    /// override this to skip the `on_access` replay: the producer already
    /// stored the recency word at access time, and replaying it later
    /// could resurrect a reference bit an eviction scan legitimately
    /// consumed in between.
    fn drain(&mut self, events: &[AccessEvent]) {
        for ev in events {
            match ev.kind {
                AccessKind::Hit => {
                    self.stats_mut().hits += 1;
                    self.note_app_hit(ev.app);
                    self.on_access(ev.frame, ev.key, ev.app);
                }
                AccessKind::ProbeHit => {
                    self.stats_mut().hits += 1;
                    self.note_app_hit(ev.app);
                }
                AccessKind::Miss => {
                    self.stats_mut().misses += 1;
                    self.note_app_miss(ev.app);
                }
                AccessKind::Touch => self.on_access(ev.frame, ev.key, ev.app),
            }
        }
    }

    /// A new block (fingerprint `key`) was installed into `frame`.
    fn on_insert(&mut self, frame: u32, key: u64, app: AppId);

    /// `frame` was vacated (eviction or invalidation); `key` identifies the
    /// departing block so ghost-list policies can remember it.
    fn on_remove(&mut self, frame: u32, key: u64);

    /// `frame` was dropped by **coherence invalidation** rather than
    /// capacity pressure. Defaults to [`on_remove`](Self::on_remove);
    /// meta-policies override it to keep invalidations out of the
    /// refault memory their quota tuner reads (an invalidated block
    /// re-read later says nothing about partition sizing).
    fn on_remove_invalidated(&mut self, frame: u32, key: u64) {
        self.on_remove(frame, key);
    }

    /// Start a fresh eviction scan. Candidate order is decided here (or
    /// lazily in [`next_candidate`](ReplacementPolicy::next_candidate));
    /// candidate *eligibility* (residency, pins, the owner filter) is the
    /// table's business.
    fn begin_scan(&mut self);

    /// Next eviction candidate in preference order, or `None` when the
    /// scan is exhausted. With `filter: Some(app)` only frames owned by
    /// `app` are offered — the partition-local scan quota enforcement
    /// runs — and other owners' ranking state must be left untouched
    /// (skipped, not consumed). The caller may reject a candidate (dirty
    /// during a clean-only pass, raced away, …) and simply ask again.
    fn next_candidate(&mut self, filter: Option<AppId>) -> Option<u32>;

    /// The resident frames in this policy's *eviction-preference order* —
    /// soonest-to-evict first, most-protected last — without consuming any
    /// ranking state (a read-only view of what a scan *would* offer).
    /// [`migrate`] replays residency through the incoming policy in this
    /// order, so the outgoing policy's recency/utility ranking survives a
    /// live switch instead of degrading to frame-index order. `None`
    /// means the policy has no meaningful ordering to export and the
    /// caller falls back to frame order.
    fn recency_ranking(&self) -> Option<Vec<u32>> {
        None
    }

    // ------------------------------------------------------------------
    // Provided, table-backed surface.
    // ------------------------------------------------------------------

    /// `frame` is (un)pinned: pinned frames (e.g. dirty data in flight to
    /// an iod) must not be offered as candidates.
    fn set_pinned(&mut self, frame: u32, pinned: bool) {
        self.table_mut().set_pinned(frame, pinned);
    }

    /// Application that installed the block in `frame`.
    fn owner_of(&self, frame: u32) -> AppId {
        self.table().owner_of(frame)
    }

    /// Frames currently owned by `app`.
    fn resident_of(&self, app: AppId) -> usize {
        self.table().resident_of(app)
    }

    /// Per-application usage ledger (occupancy + attributed traffic).
    fn app_usage(&self) -> Vec<(AppId, AppUsage)> {
        self.table().app_usage()
    }

    /// Attribute one hit / miss / eviction to an application.
    fn note_app_hit(&mut self, app: AppId) {
        self.table_mut().note_app_hit(app);
    }
    fn note_app_miss(&mut self, app: AppId) {
        self.table_mut().note_app_miss(app);
    }
    fn note_app_eviction(&mut self, app: AppId) {
        self.table_mut().note_app_eviction(app);
    }

    /// The policy's event counters.
    fn stats(&self) -> &PolicyStats {
        &self.table().stats
    }
    fn stats_mut(&mut self) -> &mut PolicyStats {
        &mut self.table_mut().stats
    }

    // ------------------------------------------------------------------
    // Epoch protocol (driven by the buffer manager's epoch boundary).
    // ------------------------------------------------------------------

    /// Time-based aging at an epoch boundary ([`SharingAware`]'s referent
    /// decay); the default is a no-op. The manager calls this on policies
    /// that report no [`epoch_observe`](Self::epoch_observe); a
    /// meta-policy ages its live candidate and ghosts from
    /// [`epoch_apply`](Self::epoch_apply) instead. A policy never decides
    /// anything for its host here.
    fn epoch_tick(&mut self) {}

    /// The meta-policy observability ledger (`None` for static policies).
    fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        None
    }

    /// Export what this policy observed over the closing epoch *without*
    /// taking any decision: ghost hit/access counts per candidate and the
    /// per-application refault evidence. The manager collects one
    /// observation per shard, merges the ledgers, decides once globally,
    /// and pushes the verdict back through
    /// [`epoch_apply`](Self::epoch_apply) — so every shard switches (or
    /// stays) in lockstep. Static policies have nothing to report
    /// (`None`); the caller then just runs their
    /// [`epoch_tick`](Self::epoch_tick).
    fn epoch_observe(&self) -> Option<EpochObservation> {
        None
    }

    /// Apply a globally-decided epoch verdict: advance the epoch clock,
    /// perform the directed live switch (if any), and close out the ghost
    /// ledgers the observation was taken from. Only meaningful for
    /// policies that returned `Some` from
    /// [`epoch_observe`](Self::epoch_observe); the default ignores the
    /// directive.
    fn epoch_apply(&mut self, directive: &EpochDirective) {
        let _ = directive;
    }
}

/// What an adaptive meta-policy saw over one epoch, exported *before* any
/// switch/tuning decision so the manager can merge per-shard ledgers and
/// decide once for the whole pool.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochObservation {
    /// The currently live candidate's kind.
    pub live: Option<PolicyKind>,
    /// Per-candidate ghost traffic this epoch: `(kind, hits, accesses)`.
    pub ghost_epoch: Vec<(PolicyKind, u64, u64)>,
    /// Per-application refaults this epoch (ghost-list re-reads of blocks
    /// the app recently lost to eviction) — the quota tuner's evidence.
    pub refaults: Vec<(AppId, u64)>,
}

impl EpochObservation {
    /// Merge another shard's observation into this one (ledgers sum by
    /// kind / app; `live` must agree — shards switch in lockstep).
    pub fn merge(&mut self, other: &EpochObservation) {
        if self.live.is_none() {
            self.live = other.live;
        }
        for &(kind, hits, accesses) in &other.ghost_epoch {
            match self.ghost_epoch.iter_mut().find(|(k, _, _)| *k == kind) {
                Some(slot) => {
                    slot.1 += hits;
                    slot.2 += accesses;
                }
                None => self.ghost_epoch.push((kind, hits, accesses)),
            }
        }
        for &(app, n) in &other.refaults {
            match self.refaults.iter_mut().find(|(a, _)| *a == app) {
                Some(slot) => slot.1 += n,
                None => self.refaults.push((app, n)),
            }
        }
    }
}

/// A globally-decided epoch verdict pushed back into each shard's policy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochDirective {
    /// `Some((to, from_rate, to_rate))` directs a live switch to `to`
    /// (rates are the merged ghost rates that justified it, recorded in
    /// the switch log). `None` keeps the live policy.
    pub switch_to: Option<(PolicyKind, f64, f64)>,
    /// A globally-decided quota transfer to enter into the move log:
    /// `(from, to, frames, from_refaults, to_refaults)`. The transfer
    /// itself is applied by the manager's charge ledger; this field only
    /// carries the bookkeeping so the decision shows up in
    /// [`AdaptiveStats::quota_log`].
    pub quota_move: Option<(AppId, AppId, usize, u64, u64)>,
}

/// Live-migrate a policy's frame state into a fresh policy of `to`'s kind:
/// every resident frame is replayed through the new policy's `on_insert`
/// in the outgoing policy's [`recency_ranking`] order (soonest-to-evict
/// first, so the incoming policy ends up protecting what the outgoing one
/// protected; frame order is the fallback when the outgoing policy exports
/// no ranking), then the shared [`FrameTable`] is carried over verbatim so
/// pins, ownership, the per-application ledger and the [`PolicyStats`]
/// counters all survive the switch unchanged. The table carries its atomic
/// [`RefWords`] with it (shared `Arc`), so reference bits set before the
/// switch keep protecting their frames when the incoming policy is clock.
///
/// [`recency_ranking`]: ReplacementPolicy::recency_ranking
pub fn migrate(old: &dyn ReplacementPolicy, to: PolicyKind) -> Box<dyn ReplacementPolicy> {
    let table = old.table();
    let mut new = to.build(table.capacity());
    let order = old
        .recency_ranking()
        .unwrap_or_else(|| table.resident_entries().iter().map(|&(f, _, _)| f).collect());
    for frame in order {
        if table.is_resident(frame) {
            new.on_insert(frame, table.key_of(frame), table.owner_of(frame));
        }
    }
    *new.table_mut() = table.clone();
    new
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

    /// Inverse of [`name`](PolicyKind::name), tolerant of common aliases.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "clock" | "second-chance" => Some(PolicyKind::Clock),
            "exact-lru" | "lru" => Some(PolicyKind::ExactLru),
            "lfu" => Some(PolicyKind::Lfu),
            "2q" | "twoq" => Some(PolicyKind::TwoQ),
            "arc" => Some(PolicyKind::Arc),
            "sharing-aware" | "sharing" => Some(PolicyKind::SharingAware),
            _ => None,
        }
    }

    /// Instantiate the policy for a pool of `capacity` frames.
    pub fn build(self, capacity: usize) -> Box<dyn ReplacementPolicy> {
        assert!(capacity > 0, "policy over empty frame pool");
        match self {
            PolicyKind::Clock => Box::new(Clock::new(capacity)),
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
        assert_eq!(PolicyKind::parse("lru"), Some(PolicyKind::ExactLru));
        assert_eq!(PolicyKind::parse("nope"), None);
    }

    #[test]
    fn build_produces_matching_kind() {
        for kind in PolicyKind::ALL {
            let p = kind.build(8);
            assert_eq!(p.kind(), kind);
            assert_eq!(*p.stats(), PolicyStats::default());
        }
    }

    #[test]
    fn owner_filtered_scans_respect_partitions_in_every_policy() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build(8);
            // Frames 0..4 belong to app 0, frames 4..8 to app 1.
            for f in 0..8u32 {
                p.on_insert(f, 100 + f as u64, AppId(f / 4));
            }
            assert_eq!(p.resident_of(AppId(0)), 4, "{kind}");
            assert_eq!(p.owner_of(6), AppId(1), "{kind}");
            p.begin_scan();
            let mut offered = Vec::new();
            while let Some(c) = p.next_candidate(Some(AppId(1))) {
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
            while let Some(c) = p.next_candidate(None) {
                all.insert(c);
                assert!(all.len() <= 8, "{kind}: unfiltered scan did not terminate");
            }
            assert!(!all.is_empty(), "{kind}: unfiltered scan found no candidate");
        }
    }

    #[test]
    fn migrate_preserves_residency_pins_and_ledger() {
        for from in PolicyKind::ALL {
            for to in PolicyKind::ALL {
                let mut p = from.build(8);
                for f in 0..6u32 {
                    p.on_insert(f, 500 + f as u64, AppId(f % 2));
                }
                p.on_access(1, 501, AppId(1));
                p.note_app_hit(AppId(1));
                p.note_app_miss(AppId(0));
                p.set_pinned(2, true);
                p.on_remove(5, 505);
                let new = migrate(p.as_ref(), to);
                assert_eq!(new.kind(), to, "{from}->{to}");
                assert_eq!(
                    new.table().resident_frames(),
                    p.table().resident_frames(),
                    "{from}->{to}: residency changed"
                );
                assert_eq!(
                    new.table().resident_entries(),
                    p.table().resident_entries(),
                    "{from}->{to}: keys/owners changed"
                );
                assert!(new.table().is_pinned(2), "{from}->{to}: pin lost");
                assert_eq!(new.app_usage(), p.app_usage(), "{from}->{to}: app ledger changed");
                assert_eq!(new.stats(), p.stats(), "{from}->{to}: stats changed");
                // The migrated policy must still run a working scan.
                let mut new = new;
                new.begin_scan();
                let c = new.next_candidate(None).expect("migrated policy must find a victim");
                assert!(new.table().evictable(c), "{from}->{to}: bad candidate {c}");
            }
        }
    }

    #[test]
    fn recency_ranking_covers_residency_without_consuming_state() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build(8);
            for f in 0..6u32 {
                p.on_insert(f, 100 + f as u64, AppId(f % 2));
            }
            p.on_access(1, 101, AppId(1));
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
            p.on_insert(f, 500 + f as u64, AppId::UNKNOWN);
        }
        // Touch in an order that diverges from frame-index order.
        p.on_access(0, 500, AppId::UNKNOWN);
        p.on_access(3, 503, AppId::UNKNOWN);
        let want = p.recency_ranking().unwrap();
        assert_eq!(want, vec![1, 2, 4, 5, 0, 3]);
        let mut new = migrate(p.as_ref(), PolicyKind::ExactLru);
        assert_eq!(new.recency_ranking().unwrap(), want, "LRU order must survive the switch");
        new.begin_scan();
        assert_eq!(new.next_candidate(None), Some(1), "victim choice carries over");
    }

    #[test]
    fn epoch_observation_merges_by_kind_and_app() {
        let mut a = EpochObservation {
            live: Some(PolicyKind::Clock),
            ghost_epoch: vec![(PolicyKind::Clock, 3, 10), (PolicyKind::Arc, 5, 10)],
            refaults: vec![(AppId(0), 2)],
        };
        let b = EpochObservation {
            live: Some(PolicyKind::Clock),
            ghost_epoch: vec![(PolicyKind::Arc, 1, 4), (PolicyKind::Lfu, 2, 4)],
            refaults: vec![(AppId(0), 1), (AppId(1), 7)],
        };
        a.merge(&b);
        assert_eq!(
            a.ghost_epoch,
            vec![(PolicyKind::Clock, 3, 10), (PolicyKind::Arc, 6, 14), (PolicyKind::Lfu, 2, 4)]
        );
        assert_eq!(a.refaults, vec![(AppId(0), 3), (AppId(1), 7)]);
    }

    #[test]
    fn app_usage_hit_ratio() {
        let u = AppUsage { resident: 3, hits: 3, misses: 1, evictions: 0 };
        assert_eq!(u.hit_ratio(), Some(0.75));
        assert_eq!(AppUsage::default().hit_ratio(), None);
    }
}
