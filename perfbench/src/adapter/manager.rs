//! The buffer manager, driven directly: `BufferManager::builder(..)…
//! build()`, `access(key, Access{..})`, `take_dirty`, `flush_complete`,
//! `needs_harvest`, `harvest`, `stats`, `policy_stats`,
//! `event_ring_overflows` and the frame-count readers.

use super::sim::Frames;
pub use kcache::CacheStats;
use kcache::{
    Access, AccessKind, AccessOutcome, AdaptiveConfig, AppId, BlockKey, BufferManager, EvictPolicy,
    FlushItem, PolicyKind, Span, WriteOutcome, CACHE_BLOCK_SIZE,
};
use pvfs::{CostModel, Fid};
use sim_net::NodeId;

pub const BLOCK_SIZE: usize = CACHE_BLOCK_SIZE;

/// The calibrated per-block CPU charges of the paper's platform, in ns —
/// what `CacheModule` bills a node's CPU for each block it looks up,
/// copies to or from user space, and installs.
#[derive(Debug, Clone, Copy)]
pub struct CacheCostsNs {
    pub lookup: f64,
    pub copy: f64,
    pub insert: f64,
}

pub fn paper_cache_costs() -> CacheCostsNs {
    let c = CostModel::pentium3_800();
    CacheCostsNs {
        lookup: c.cache_lookup_per_block.as_nanos() as f64,
        copy: c.cache_copy_per_block.as_nanos() as f64,
        insert: c.cache_insert_per_block.as_nanos() as f64,
    }
}

/// Which manager the builder is asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerKind {
    /// `BufferManager::builder(capacity).build()` — what `manager_mt`
    /// measures.
    Default,
    /// `.shards(n)`.
    Shards(usize),
    /// `.policy(EvictPolicy::of(kind))`, by index into [`policy_names`].
    Policy(usize),
    /// `.adaptive(Some(all six candidates))` with the default epoch.
    Adaptive,
}

/// Names of the six static policies, in `PolicyKind::ALL` order.
pub fn policy_names() -> Vec<&'static str> {
    PolicyKind::ALL.iter().map(|k| k.name()).collect()
}

/// All blocks of the manager workloads live in one file on one home iod.
const FID: Fid = Fid(1);
const HOME: NodeId = NodeId(0);

/// Counters read back from a manager after a rep.
#[derive(Debug, Clone)]
pub struct ManagerCounters {
    pub stats: CacheStats,
    pub policy_scans: u64,
    pub ring_overflows: u64,
    pub frames: Frames,
    pub dirty_left: u64,
}

/// What one read access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    Hit,
    /// Missed; the block was then installed clean. `bad_writeback` when
    /// the install sacrificed a dirty frame whose bytes were not the
    /// block's pattern.
    MissFilled {
        bad_writeback: bool,
    },
}

/// A `BufferManager` behind the handful of calls the benchmark makes.
/// Every access moves a whole block; `pattern(blk)` is the block's one
/// true content, which both fills and writes store.
pub struct Manager(BufferManager);

impl Manager {
    pub fn build(capacity: usize, kind: ManagerKind) -> Manager {
        let b = BufferManager::builder(capacity);
        Manager(match kind {
            ManagerKind::Default => b.build(),
            ManagerKind::Shards(n) => b.shards(n).build(),
            ManagerKind::Policy(i) => b.policy(EvictPolicy::of(PolicyKind::ALL[i])).build(),
            ManagerKind::Adaptive => b
                .adaptive(Some(AdaptiveConfig::all_candidates()))
                .epoch_accesses(cluster_harness::config::DEFAULT_EPOCH_ACCESSES)
                .build(),
        })
    }

    #[inline]
    fn access(&self, blk: u64, app: u32, kind: AccessKind<'_>) -> AccessOutcome {
        self.0.access(BlockKey::new(FID, blk), Access { app: AppId(app), kind })
    }

    /// `access(Read)` into `out`.
    #[inline]
    pub fn read_hit(&self, blk: u64, app: u32, out: &mut [u8]) -> bool {
        self.access(blk, app, AccessKind::Read { span: Span::FULL, out }).is_hit()
    }

    /// `access(Probe)`.
    #[inline]
    pub fn probe_hit(&self, blk: u64, app: u32) -> bool {
        self.access(blk, app, AccessKind::Probe { span: Span::FULL }).is_hit()
    }

    /// `access(InsertClean)`; returns the dirty frame the install
    /// sacrificed, if any.
    #[inline]
    pub fn insert_clean(&self, blk: u64, app: u32, bytes: &[u8]) -> Option<FlushItem> {
        let kind = AccessKind::InsertClean { home: HOME, span: Span::FULL, bytes };
        match self.access(blk, app, kind) {
            AccessOutcome::Inserted(sacrificed) => sacrificed,
            other => panic!("InsertClean returned {other:?}"),
        }
    }

    /// The read op of `manager_mt`: read; on a miss install the block's
    /// bytes, as the cache module does when the fetch returns.
    #[inline]
    pub fn read_or_fill<'a>(
        &self,
        blk: u64,
        app: u32,
        out: &mut [u8],
        pattern: impl Fn(u64) -> &'a [u8],
    ) -> ReadOutcome {
        if self.read_hit(blk, app, out) {
            return ReadOutcome::Hit;
        }
        let sacrificed = self.insert_clean(blk, app, pattern(blk));
        let bad_writeback = sacrificed.is_some_and(|item| !flush_item_matches(&item, &pattern));
        ReadOutcome::MissFilled { bad_writeback }
    }

    /// `access(Write)`; `true` when absorbed, `false` on pass-through.
    #[inline]
    pub fn write_absorbed(&self, blk: u64, app: u32, bytes: &[u8]) -> bool {
        let kind = AccessKind::Write { home: HOME, span: Span::FULL, bytes };
        match self.access(blk, app, kind) {
            AccessOutcome::Write(w) => w == WriteOutcome::Absorbed,
            other => panic!("Write returned {other:?}"),
        }
    }

    /// One flusher turn: `take_dirty(max)`, then `flush_complete` for each
    /// block as if the iod acknowledged at once. Returns `(blocks,
    /// blocks whose dirty bytes were not the block's pattern)`.
    pub fn flush_turn<'a>(&self, max: usize, pattern: impl Fn(u64) -> &'a [u8]) -> (u64, u64) {
        self.complete(self.0.take_dirty(max), pattern)
    }

    /// One harvester turn: `harvest()` when `needs_harvest()`, completing
    /// the urgent flushes it hands back. Same return as `flush_turn`.
    pub fn harvest_turn<'a>(&self, pattern: impl Fn(u64) -> &'a [u8]) -> (u64, u64) {
        if !self.0.needs_harvest() {
            return (0, 0);
        }
        self.complete(self.0.harvest(), pattern)
    }

    fn complete<'a>(&self, items: Vec<FlushItem>, pattern: impl Fn(u64) -> &'a [u8]) -> (u64, u64) {
        let mut bad = 0;
        for it in &items {
            if !flush_item_matches(it, &pattern) {
                bad += 1;
            }
            self.0.flush_complete(it.key, it.span);
        }
        (items.len() as u64, bad)
    }

    pub fn counters(&self) -> ManagerCounters {
        let m = &self.0;
        ManagerCounters {
            stats: m.stats(),
            policy_scans: m.policy_stats().scans,
            ring_overflows: m.event_ring_overflows(),
            frames: Frames {
                capacity: m.capacity() as u64,
                resident: m.resident() as u64,
                free: m.free_frames() as u64,
            },
            dirty_left: m.dirty_queue_len() as u64,
        }
    }
}

fn flush_item_matches<'a>(item: &FlushItem, pattern: &impl Fn(u64) -> &'a [u8]) -> bool {
    let want = &pattern(item.key.blk)[item.span.start as usize..item.span.end as usize];
    item.data == want
}
