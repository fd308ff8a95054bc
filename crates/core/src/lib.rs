//! # kcache — the paper's kernel-level shared I/O cache
//!
//! Reproduction of the contribution of *"Kernel-Level Caching for
//! Optimizing I/O by Exploiting Inter-Application Data Sharing"*
//! (Vilayannur, Kandemir, Sivasubramaniam — CLUSTER 2002): a per-node block
//! cache, shared by **all application processes on the node**, inserted
//! transparently underneath the PVFS client library by intercepting its
//! socket traffic.
//!
//! * [`block`] — block identity and in-block spans (4 KB blocks, §3.2).
//! * [`manager`] — the buffer manager: open-hash table with per-bucket
//!   locks, free list, dirty list, pluggable replacement (the
//!   `kcache-policy` crate: clock by default, exact LRU, LFU, 2Q, ARC,
//!   sharing-aware) with clean-first eviction, write-behind with
//!   saturation pass-through, invalidation. `Send + Sync`, exercised by
//!   real threads in tests and benches.
//! * [`module`] — the cache module actor: per-socket interception FSM
//!   (request discounting, request splitting, fake acks, data assembly),
//!   the flusher and harvester background threads, and the sync-write
//!   coherence client.
//! * [`config`] — the paper's 1.2 MB configuration and tuning knobs.

pub mod block;
pub mod config;
pub mod manager;
pub mod module;

pub use block::{blocks_of_range, span_in_block, BlockKey, Span, CACHE_BLOCK_SIZE};
pub use config::{CacheConfig, PartitionConfig, PartitionMode};
pub use manager::{
    Access, AccessKind, AccessOutcome, BlockBytes, BufferManager, BufferManagerBuilder, CacheStats,
    EvictPolicy, FlushItem, WriteOutcome,
};
pub use module::{CacheModule, ModuleStats};

/// The replacement-policy subsystem, re-exported for consumers that select
/// or inspect policies (configs, ablations, experiment binaries).
pub use kcache_policy as policy;
pub use kcache_policy::{
    AdaptiveStats, AppId, AppUsage, GhostRate, PolicyKind, PolicyStats, QuotaMoveRecord,
    ReplacementPolicy, SwitchRecord,
};

/// The adaptive meta-policy subsystem (ghost caches, epoch switching,
/// quota tuning), re-exported for configuration downstream.
pub use kcache_adaptive as adaptive;
pub use kcache_adaptive::{AdaptiveConfig, AdaptivePolicy};

/// The observability subsystem (lock-free metrics, the structured trace
/// ring, per-node snapshots), re-exported so downstream consumers (the
/// cluster harness, experiment binaries) hand each [`CacheModule`] its
/// node's [`obs::ObsHub`] without a direct `kcache-obs` dependency.
pub use kcache_obs as obs;
pub use kcache_obs::ObsHub;
