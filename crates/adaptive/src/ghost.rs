//! Metadata-only ghost caches: a candidate policy simulated against the
//! live access stream without holding a single data frame.
//!
//! A [`GhostCache`] holds one candidate's `RankedTable` and plays the
//! buffer manager's role for it: each access of the real cache's stream
//! that falls in the ghost's key sample is replayed as a fingerprint-only
//! lookup — a hit refreshes the candidate's recency metadata, a miss
//! "installs" the key into a simulated frame, evicting by the candidate's
//! own ranking when the simulated pool is full. The resulting hit/miss
//! ledger is what the candidate's hit rate *would have been* had it been
//! live, which is exactly the signal the epoch controller compares.
//!
//! **Spatial sampling** (SHARDS): a [`sampled`](GhostCache::sampled) ghost
//! over `capacity` frames keeps only the keys whose fingerprint has its top
//! log2(R) bits zero, 1/R of the key space, in `capacity / R` frames. A
//! sampled key sees every one of its accesses, and the sample's reuse
//! distances shrink by R along with the pool, so the sampled hit rate
//! estimates the full one at 1/R of the work and memory. R is the largest
//! power of two up to [`MAX_SAMPLE_RATE`] that leaves the ghost at least
//! [`MIN_SAMPLED_FRAMES`] frames, so a pool under twice that is simulated
//! exactly. The sample is taken on the **top** bits: `BlockKey::hash()` is a
//! multiply, whose low bits follow the block number's, so a low-bit sample
//! would keep every R-th block of a file.
//!
//! Ghosts never pin frames, never see dirty state, and never hold data —
//! only the policy's ranking metadata and a `key → frame` map exist
//! (property-tested in `tests/invariants.rs`).

use kcache_policy::hash::KeyMap;
use kcache_policy::{AppId, PolicyKind, RankedTable, ScanFilter};

/// The largest key-sampling rate a ghost uses.
pub const MAX_SAMPLE_RATE: usize = 16;
/// The fewest frames a sampled ghost is left with: below twice this a pool
/// is simulated exactly.
pub const MIN_SAMPLED_FRAMES: usize = 64;

/// log2 of the sampling rate R for a pool of `capacity` frames: the largest
/// power of two R ≤ [`MAX_SAMPLE_RATE`] with `capacity / R` ≥
/// [`MIN_SAMPLED_FRAMES`] (0, i.e. R = 1, below `2 × MIN_SAMPLED_FRAMES`).
pub fn sample_shift(capacity: usize) -> u32 {
    let max_shift = MAX_SAMPLE_RATE.trailing_zeros();
    (0..=max_shift).rev().find(|&s| capacity >> s >= MIN_SAMPLED_FRAMES).unwrap_or(0)
}

/// One candidate's simulated cache.
pub struct GhostCache {
    kind: PolicyKind,
    policy: RankedTable,
    /// The fingerprint bits a sampled key has zero: the top log2(R) bits
    /// (0 for an exact ghost, which samples every key).
    sample_mask: u64,
    /// Key fingerprint → simulated frame index.
    map: KeyMap<u64, u32>,
    free: Vec<u32>,
    /// Hits/misses within the current epoch (reset at its end).
    epoch_hits: u64,
    epoch_misses: u64,
    /// Lifetime ledger.
    hits: u64,
    misses: u64,
}

impl GhostCache {
    /// Simulate `kind` exactly over a pool of `capacity` frames (the live
    /// cache's capacity, so ghost hit rates are comparable to the live
    /// one's): every access is replayed.
    pub fn new(kind: PolicyKind, capacity: usize) -> GhostCache {
        GhostCache::with_shift(kind, capacity, 0)
    }

    /// Simulate `kind` over a pool of `capacity` frames on the key sample
    /// [`sample_shift`] picks for it, in `capacity / R` frames (see the
    /// module docs). Exactly [`new`](Self::new) below `2 ×
    /// MIN_SAMPLED_FRAMES` frames.
    pub fn sampled(kind: PolicyKind, capacity: usize) -> GhostCache {
        GhostCache::with_shift(kind, capacity, sample_shift(capacity))
    }

    fn with_shift(kind: PolicyKind, capacity: usize, shift: u32) -> GhostCache {
        let frames = capacity >> shift;
        GhostCache {
            kind,
            policy: kind.build(frames),
            sample_mask: !(u64::MAX >> shift),
            map: KeyMap::with_capacity_and_hasher(frames, Default::default()),
            free: (0..frames as u32).rev().collect(),
            epoch_hits: 0,
            epoch_misses: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Replay one access from the live stream; a key outside the sample
    /// is ignored. A miss fills the simulated cache, evicting by the
    /// candidate's own ranking when full.
    #[inline]
    pub fn access(&mut self, key: u64, app: AppId) {
        if key & self.sample_mask == 0 {
            self.replay(key, app);
        }
    }

    fn replay(&mut self, key: u64, app: AppId) {
        if let Some(&frame) = self.map.get(&key) {
            self.hits += 1;
            self.epoch_hits += 1;
            self.policy.access(frame, key, app);
            return;
        }
        self.misses += 1;
        self.epoch_misses += 1;
        let frame = match self.free.pop() {
            Some(f) => f,
            None => {
                self.policy.begin_scan();
                let Some(victim) = self.policy.next_candidate(&mut ScanFilter::default()) else {
                    // Cannot happen while the pool is full and nothing is
                    // pinned (ghosts never pin); drop the fill rather than
                    // panic if a candidate policy misbehaves.
                    return;
                };
                let old_key = self.policy.table().key_of(victim);
                self.map.remove(&old_key);
                self.policy.remove(victim, old_key);
                victim
            }
        };
        self.map.insert(key, frame);
        self.policy.insert(frame, key, app);
    }

    /// Raw `(hits, accesses)` over the current epoch: what the switch rule
    /// rates the candidate by (`accesses == 0`, no rate, before any
    /// traffic this epoch — a silent candidate must not look infinitely
    /// bad or good).
    pub fn epoch_counts(&self) -> (u64, u64) {
        (self.epoch_hits, self.epoch_hits + self.epoch_misses)
    }

    /// Close the epoch: forward the tick to the simulated policy
    /// (time-based aging, e.g. `SharingAware` referent decay, must happen
    /// in the ghost too or its prediction drifts from what the candidate
    /// would really do) and reset the per-epoch ledger (lifetime counters
    /// keep accumulating).
    pub fn end_epoch(&mut self) {
        self.policy.epoch_tick();
        self.epoch_hits = 0;
        self.epoch_misses = 0;
    }

    /// Lifetime (hits, misses). Like every ledger here, it counts the
    /// accesses to sampled keys only.
    pub fn lifetime(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The simulated policy's table (tests: pin/residency invariants).
    pub fn table(&self) -> &kcache_policy::FrameTable {
        self.policy.table()
    }

    /// Simulated keys currently resident (tests).
    pub fn resident_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghost_simulates_hits_and_evictions() {
        let mut g = GhostCache::new(PolicyKind::ExactLru, 2);
        g.access(1, AppId(0));
        g.access(2, AppId(0));
        g.access(1, AppId(0)); // hit; 2 becomes LRU
        g.access(3, AppId(0)); // evicts 2
        assert_eq!(g.lifetime(), (1, 3));
        assert_eq!(g.resident_keys(), vec![1, 3]);
        g.access(2, AppId(0)); // 2 was evicted: miss again
        assert_eq!(g.lifetime(), (1, 4));
    }

    #[test]
    fn epoch_ledger_resets_lifetime_accumulates() {
        let mut g = GhostCache::new(PolicyKind::Clock, 4);
        g.access(1, AppId(0));
        g.access(1, AppId(0));
        assert_eq!(g.epoch_counts(), (1, 2));
        g.end_epoch();
        assert_eq!(g.epoch_counts(), (0, 0), "fresh epoch has no traffic yet");
        assert_eq!(g.lifetime(), (1, 1));
    }

    #[test]
    fn the_sample_rate_leaves_every_ghost_64_frames_up_to_16() {
        for (capacity, shift) in
            [(1, 0), (64, 0), (127, 0), (128, 1), (255, 1), (256, 2), (300, 2), (1023, 3)]
        {
            assert_eq!(sample_shift(capacity), shift, "capacity {capacity}");
        }
        assert_eq!(sample_shift(1 << 20), 4, "R never passes 16");
        let g = GhostCache::sampled(PolicyKind::Clock, 300);
        assert_eq!(g.table().capacity(), 75, "300 frames at R = 4");
    }

    #[test]
    fn a_sampled_ghost_replays_only_keys_with_the_top_bits_zero() {
        let mut g = GhostCache::sampled(PolicyKind::ExactLru, 256);
        for key in [1u64 << 62, 1 << 63, u64::MAX] {
            g.access(key, AppId(0));
        }
        assert_eq!(g.lifetime(), (0, 0), "top bits set: outside the sample");
        g.access(u64::MAX >> 2, AppId(0));
        g.access(u64::MAX >> 2, AppId(0));
        assert_eq!(g.lifetime(), (1, 1));
    }

    #[test]
    fn ghost_never_exceeds_capacity() {
        let mut g = GhostCache::new(PolicyKind::Arc, 8);
        for k in 0..1000u64 {
            g.access(k % 37, AppId((k % 3) as u32));
            assert!(g.table().resident_frames().len() <= 8);
            assert_eq!(g.resident_keys().len(), g.table().resident_frames().len());
        }
    }
}
