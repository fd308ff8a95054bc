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
//! * per-application **frame quotas**
//!   ([`PartitionConfig`](crate::config::PartitionConfig)): strict caps
//!   or soft caps with borrowing, enforced at acquire time — an over-quota
//!   app draws eviction candidates from its own resident frames first via
//!   the policy's owner-filtered scan, so a noisy neighbor cannot flush a
//!   well-behaved tenant out of the shared pool,
//! * fine-grained locking throughout: the structure is `Send + Sync` and is
//!   exercised by real multi-threaded stress tests, not only by the
//!   single-threaded simulation.
//!
//! ## Layout: eight modules that own their locks
//!
//! * `shard` — one self-contained slice of the pool: frames, hash
//!   buckets, the free list, the policy leaf (frame table, ranker,
//!   adaptive evidence), and the hit / miss / install / evict paths.
//!   Every `Mutex` field is private to it; the other modules reach
//!   frames, buckets and the policy through its accessors.
//! * `frame` — what a frame holds, and the one place its bytes are read
//!   or written: stored bytes, or described as the file's own content
//!   they were verified against, generated on every hit and flush.
//! * `counts` — the shard's one event ledger: hits, misses, inserts,
//!   removes, evictions and scans, per app, striped, with no policy lock;
//!   every report of them reads it.
//! * `admission` — the quota ledger and frame acquisition under a quota.
//! * `sweep` — the policy side of a frame changing tenants: the eviction
//!   scan's candidates, settling a victim, filing an install, un-filing,
//!   forgetting an invalidated block.
//! * `flush` — the dirty queue and what drains or bypasses it:
//!   `take_dirty`, `flush_complete`, `invalidate`, the harvester sweep.
//! * `epoch` — the epoch clock and CAS gate, the boundary (every shard
//!   ages, the adaptive one closes its epoch in the same policy-lock hold)
//!   and applying the quota move that returns.
//! * `facade` — [`BufferManager`] and its builder: routing, aggregate
//!   readers, delegation. It names no lock type at all (CI greps the file).
//!
//! [`BufferManager`] is a lock-free facade over N independent shards.
//! The shard count is known to the builder alone
//! ([`BufferManagerBuilder::shards`], default 1 — the paper's single
//! pool): no config, module or report names it, so the simulator always
//! runs one shard per node. Only the multi-thread benches and
//! `tests_sharded.rs` build more, until perfbench stops sweeping shards
//! (ROADMAP E) and the routing goes too. A block's home shard is fixed by the *high*
//! bits of its key hash (bucket selection within a shard uses the low
//! bits, so the two choices stay independent); capacity and watermarks
//! split across shards with the remainder to low indexes. Every lock
//! lives *inside* a shard, so no code path can serialize two shards'
//! traffic on a manager-global lock. A manager with more than one shard
//! is a plain pool — shared partitioning, a static policy — so no state
//! crosses shards at all: the builder refuses per-app quotas or the
//! adaptive meta-policy with it.
//!
//! **Lock order**, per shard: bucket → frame. `policy`, `free`, `dirty`,
//! `charges` and the ledger's overflow map (apps past its 16 slots) are
//! leaf locks — never held while acquiring a bucket or frame lock, and
//! **never nested** in one another. No lock is ever held
//! across a shard boundary. Evictions ask the policy for a candidate
//! (policy lock only, or none at all on a static clock shard), release,
//! then claim the frame: `try_lock` it (a frame another thread holds is
//! skipped), read its key, retake bucket → frame and revalidate. The
//! policy may thus offer a candidate that has since changed hands, or
//! that another scan is claiming too; the first to retake it evicts, the
//! other simply asks for the next one.
//!
//! An evicting install on any shard but a static clock one takes the
//! policy lock **twice** when its first candidate is accepted (the lookup
//! that missed took none): one hold begins the scan and takes that
//! candidate; one files the incoming block — the victim's removal travels
//! with the frame to it — **before the block is visible in its bucket**,
//! so the residency words never describe a previous tenant of a frame a
//! scan can evict (a lost install race un-files). Harvester and
//! invalidation removals settle at once. A static clock shard — the
//! paper's configuration — takes it **not at all**: its scans sweep an
//! atomic clock hand, and filing, settling, un-filing, pins and unpins
//! store the per-frame residency words
//! ([`FrameWords`](kcache_policy::FrameWords)) in the same order and under
//! the same frame locks. Every shard counts the scan, the eviction, the
//! removal and the insert in its ledger, with no policy lock held.
//!
//! ## Quotas: one ledger
//!
//! Quotas run on a one-shard manager, so each app has one quota, held in
//! the shard's ledger beside the frames charged to it, under its one
//! `charges` lock. It is seeded from the configuration and moved only by
//! the tuner, at the epoch boundary: one hold lowers the loser's quota and
//! raises the winner's, so no reader ever sees the quotas sum to anything
//! but the configured total — pinned under four threads by
//! `tests/quota_sum.rs`. [`BufferManager::quota_of`], admission and the
//! tuner's decision all read that ledger, and its `move_quota` is the one
//! check of a move.
//!
//! ## Hit-path concurrency
//!
//! Every access is counted once, in the shard's one ledger (`counts`):
//! a striped per-app counter bumped with no lock, on every policy. No
//! decision reads it; `stats`, `policy_stats`, `app_usage`, `resident_of`
//! and the hub's hit/miss/eviction mirrors all report from it. A miss or
//! a probe hit needs nothing else: no policy lock, on any shard.
//!
//! A read hit (or recency touch) is a use of the block. It stores the
//! frame's atomic ref/recency word
//! ([`RefWords`](kcache_policy::RefWords) — ref bit plus app-touch mask,
//! one relaxed `fetch_or` unless the bits are already set, the seed
//! clock's store-only cost). Then, with the bucket and frame already let
//! go, it is applied to the policy **as it happens**: any shard but a
//! static clock one takes the policy lock once and applies `on_access`
//! recency for non-clock rankers and the adaptive meta-policy's ghost
//! feeds ([`touch`](kcache_policy::RankedTable::touch)). Whatever the
//! policy ranks or decides, every access that preceded it is already in —
//! the shape of the independent sequential model the manager is pinned
//! against (`tests/model.rs`). A static clock shard — the paper's policy
//! ranks from the ref words alone — takes no lock at all: a use needs
//! nothing beyond the word.
//!
//! **Epoch participation** is explicit and uniform: every access event —
//! hit, miss, probe hit, and recency touch — advances the facade's epoch
//! clock (when epochs are enabled at all; with `epoch_accesses == 0` an
//! access does no epoch work), and the facade runs the boundary whatever
//! the shard count: the adaptive shard decides there, every static one
//! ages. Touches (sync-write refreshes, secondary-waiter
//! attribution, merges into a resident block) are real accesses: they
//! refresh recency and feed the adaptive ghosts, so they must also age
//! the policies and drive the controller, or probe-/write-heavy workloads
//! would skew epoch length relative to observed traffic (the pre-PR-5
//! bug). Inserts do *not* tick the clock: an install is the tail of a
//! miss that was already counted at lookup time.

mod admission;
mod counts;
mod epoch;
mod facade;
mod flush;
mod frame;
mod shard;
mod sweep;
#[cfg(test)]
mod tests;

pub use facade::{BufferManager, BufferManagerBuilder};
pub use frame::BlockBytes;

use crate::block::{BlockKey, Span};
use kcache_policy::{AppId, PolicyKind};
use sim_net::NodeId;

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
/// extends this enum, never the method list.
pub enum AccessKind<'a> {
    /// Serve `span` into `out` (`out.len() == span.len()`). Counts a hit
    /// (refreshing recency) or a miss.
    Read { span: Span, out: &'a mut [u8] },
    /// [`Read`](Self::Read) that, on a hit, hands the `span.len()` bytes
    /// to `sink` (not called on a miss) instead of writing them into a
    /// buffer the caller had to initialize — a reply takes them block by
    /// block as payload segments, a described frame's as its descriptor.
    ReadWith { span: Span, sink: &'a mut dyn FnMut(BlockBytes<'_>) },
    /// Hit check without copying (request-split planning). Counts the
    /// same hit/miss accounting as a read but does not refresh recency —
    /// planning a split is not a use of the block.
    Probe { span: Span },
    /// Write-behind absorb: on [`WriteOutcome::Absorbed`] the block is
    /// dirty in cache and the write can be acknowledged locally.
    Write { home: NodeId, span: Span, bytes: &'a [u8] },
    /// [`Write`](Self::Write) of the block's own content over `span`: the
    /// caller recognised a descriptor naming exactly this block and span
    /// (its file, and the offset of `span`). Absorbed as a described
    /// frame, no byte compared or copied.
    WriteDescribed { home: NodeId, span: Span },
    /// Install fetched (clean) bytes — the tail of a miss, so no hit/miss
    /// is counted. May evict; a sacrificed dirty frame comes back as a
    /// flush snapshot.
    InsertClean { home: NodeId, span: Span, bytes: &'a [u8] },
    /// [`InsertClean`](Self::InsertClean) of the block's own content over
    /// `span`, recognised as for [`WriteDescribed`](Self::WriteDescribed):
    /// installed as a described frame, no byte compared or copied.
    InsertDescribed { home: NodeId, span: Span },
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
/// `Read`/`ReadWith`/`Probe`/`Touch` yield `Hit`/`Miss`, `Write` and
/// `WriteDescribed` yield `Write(..)`, `InsertClean` and `InsertDescribed`
/// yield `Inserted(..)`.
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

impl CacheStats {
    /// Field-wise sum, kept next to the struct so a new counter cannot be left
    /// out of a total (shards into a manager, managers into a run).
    pub fn merge(&mut self, other: &CacheStats) {
        let CacheStats {
            hits,
            misses,
            insertions,
            writes_absorbed,
            writes_passthrough,
            evictions_clean,
            evictions_dirty,
            flush_blocks,
            invalidated,
            invalidated_dirty,
        } = *other;
        self.hits += hits;
        self.misses += misses;
        self.insertions += insertions;
        self.writes_absorbed += writes_absorbed;
        self.writes_passthrough += writes_passthrough;
        self.evictions_clean += evictions_clean;
        self.evictions_dirty += evictions_dirty;
        self.flush_blocks += flush_blocks;
        self.invalidated += invalidated;
        self.invalidated_dirty += invalidated_dirty;
    }
}
