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
//! ## Layout: five modules that own their locks
//!
//! * `shard` — one self-contained slice of the pool: frames, hash
//!   buckets, the free list, the policy leaf (frame table, ranker,
//!   adaptive evidence), the event ring, and the hit / miss / install /
//!   evict paths. Every `Mutex` field is private to it; the other modules
//!   reach frames, buckets and the policy through its accessors.
//! * `admission` — the quota ledger (one per shard), the facade's global
//!   quotas, frame acquisition under a quota, the strict-quota spill.
//! * `flush` — the dirty queue and what drains or bypasses it:
//!   `take_dirty`, `flush_complete`, `invalidate`, the harvester sweep.
//! * `epoch` — the epoch clock and CAS gate, the boundary (observe each
//!   shard, merge, decide once, apply to each shard) and the one place a
//!   quota move is validated and applied.
//! * `facade` — [`BufferManager`] and its builder: routing, aggregate
//!   readers, delegation. It names no lock type at all (CI greps the file).
//!
//! [`BufferManager`] is a lock-free facade over N independent shards
//! (builder knob [`BufferManagerBuilder::shards`], default 1 — the
//! paper's single pool). A block's home shard is fixed by the *high*
//! bits of its key hash (bucket selection within a shard uses the low
//! bits, so the two choices stay independent); capacity, watermarks and
//! per-app quotas split across shards with the remainder to low indexes.
//! Every lock lives *inside* a shard, so no code path can serialize two
//! shards' traffic on a manager-global lock; cross-shard state — adaptive
//! ghost evidence, switch decisions, quota moves — reconciles only at
//! epoch boundaries.
//!
//! **Lock order**, per shard: bucket → frame. `policy`, `free`, `dirty`
//! and `charges` are leaf locks — never held while acquiring a bucket or
//! frame lock, and **never nested** in one another. No lock is ever held
//! across a shard boundary. Evictions ask the policy for a candidate
//! (policy lock only), release, then take bucket → frame and revalidate;
//! the policy may thus offer a candidate that has since changed hands, and
//! the manager simply asks for the next one.
//!
//! An evicting miss takes the policy lock **twice** when its first
//! candidate is accepted: one hold drains, begins the scan and takes that
//! candidate; one files the incoming block — the victim's removal and
//! ledger entries travel with the frame to it — **before the block is
//! visible in its bucket**, so the table never describes a previous tenant
//! of a frame a scan can evict (a lost install race un-files). Harvester
//! and invalidation removals settle at once.
//!
//! ## Quotas: one ledger per shard, one global quota per app
//!
//! An app's **global quota** lives in an atomic at the facade, seeded from
//! the configuration and written only under the epoch gate: it is what
//! [`BufferManager::quota_of`], the tuner's decision and the quota-move
//! validator read. Each shard's ledger holds, under its one `charges`
//! lock, that app's **slice** of it beside the frames charged there. Two
//! things move slices, both as **deltas**, so they commute: the
//! strict-quota spill (an install about to be denied moves one *unit* —
//! never a frame — from a sibling's idle slice, lender decremented before
//! borrower incremented) and a tuner move (the loser's decrements on every
//! shard before the winner's increments, a slice never driven below zero,
//! what a shard cannot give carried to the next). Hence `Σ slices ==
//! global` for every app at every quiescent point and `≤` at every instant
//! — pinned under four threads by `tests/quota_sum.rs`.
//!
//! ## Hit-path concurrency
//!
//! The **hit fast path takes no policy lock**. A hit (or recency touch)
//! does three lock-free things: bump the manager's atomic counters, store
//! the frame's atomic ref/recency word
//! ([`RefWords`](kcache_policy::RefWords) — ref bit plus app-touch mask,
//! one relaxed `fetch_or` unless the bits are already set, the seed
//! clock's store-only cost), and enqueue an
//! [`AccessEvent`](kcache_policy::AccessEvent) into the calling thread's
//! stripe of a bounded lock-free ring. The deferred events — policy
//! hit/miss counters, the per-app ledger, `on_access` recency for
//! non-clock policies, and the adaptive meta-policy's ghost feeds — are
//! applied in batches, **FIFO per producer**
//! ([`RankedTable::drain`](kcache_policy::RankedTable::drain)), only when
//! the policy lock is taken anyway: before an eviction scan ranks, before
//! an insert links, before an epoch tick decides, before a stats read
//! reports, and inline by the producer itself when its stripe fills (so
//! nothing is ever dropped and memory stays bounded). Under a single
//! thread every drain point precedes the next policy *decision*, which
//! makes drained accounting observation-equivalent to applying every event
//! at access time — pinned against an independent sequential model of the
//! manager (`tests/model.rs`).
//!
//! **Epoch participation** is explicit and uniform: every access event —
//! hit, miss, probe hit, and recency touch — advances the facade's epoch
//! clock (when epochs are enabled at all; with `epoch_accesses == 0` an
//! access does no epoch work), and the facade runs the boundary whatever
//! the shard count. Touches (sync-write refreshes, secondary-waiter
//! attribution, merges into a resident block) are real accesses: they
//! refresh recency and feed the adaptive ghosts, so they must also age
//! the policies and drive the controller, or probe-/write-heavy workloads
//! would skew epoch length relative to observed traffic (the pre-PR-5
//! bug). Inserts do *not* tick the clock: an install is the tail of a
//! miss that was already counted at lookup time.

mod admission;
mod epoch;
mod facade;
mod flush;
mod shard;
#[cfg(test)]
mod tests;

pub use facade::{BufferManager, BufferManagerBuilder};

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
