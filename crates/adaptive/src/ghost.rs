//! Metadata-only ghost caches: a candidate policy simulated against the
//! live access stream without holding a single data frame.
//!
//! A [`GhostCache`] holds one candidate's `RankedTable` and plays the
//! buffer manager's role for it: every access the real cache sees is
//! replayed as a fingerprint-only lookup — a hit refreshes the candidate's
//! recency metadata, a miss "installs" the key into a simulated frame,
//! evicting by the candidate's own ranking when the simulated pool is
//! full. The resulting hit/miss ledger is what the candidate's hit rate
//! *would have been* had it been live, which is exactly the signal the
//! epoch controller compares.
//!
//! Ghosts never pin frames, never see dirty state, and never hold data —
//! only the policy's ranking metadata and a `key → frame` map exist
//! (property-tested in `tests/invariants.rs`).

use kcache_policy::hash::KeyMap;
use kcache_policy::{AppId, PolicyKind, RankedTable, ScanFilter};

/// One candidate's simulated cache.
pub struct GhostCache {
    kind: PolicyKind,
    policy: RankedTable,
    /// Key fingerprint → simulated frame index.
    map: KeyMap<u64, u32>,
    free: Vec<u32>,
    /// Hits/misses within the current epoch (reset by the controller).
    epoch_hits: u64,
    epoch_misses: u64,
    /// Lifetime ledger.
    hits: u64,
    misses: u64,
}

impl GhostCache {
    /// Simulate `kind` over a pool of `capacity` frames (the live cache's
    /// capacity, so ghost hit rates are comparable to the live one's).
    pub fn new(kind: PolicyKind, capacity: usize) -> GhostCache {
        GhostCache {
            kind,
            policy: kind.build(capacity),
            map: KeyMap::with_capacity_and_hasher(capacity, Default::default()),
            free: (0..capacity as u32).rev().collect(),
            epoch_hits: 0,
            epoch_misses: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Replay one access from the live stream. A miss fills the simulated
    /// cache, evicting by the candidate's own ranking when full.
    pub fn access(&mut self, key: u64, app: AppId) {
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

    /// Forward an epoch tick to the simulated policy (time-based aging,
    /// e.g. `SharingAware` referent decay, must happen in the ghost too or
    /// its prediction drifts from what the candidate would really do).
    pub fn epoch_tick(&mut self) {
        self.policy.epoch_tick();
    }

    /// Hit rate over the current epoch (`None` before any traffic this
    /// epoch — a silent candidate must not look infinitely bad or good).
    pub fn epoch_rate(&self) -> Option<f64> {
        let total = self.epoch_hits + self.epoch_misses;
        if total == 0 {
            None
        } else {
            Some(self.epoch_hits as f64 / total as f64)
        }
    }

    /// Raw `(hits, accesses)` over the current epoch — the mergeable form
    /// of [`epoch_rate`](Self::epoch_rate): the manager sums these across
    /// its shards before comparing candidates, so a busy shard's evidence
    /// outweighs an idle one's instead of averaging away.
    pub fn epoch_counts(&self) -> (u64, u64) {
        (self.epoch_hits, self.epoch_hits + self.epoch_misses)
    }

    /// Reset the per-epoch ledger (lifetime counters keep accumulating).
    pub fn end_epoch(&mut self) {
        self.epoch_hits = 0;
        self.epoch_misses = 0;
    }

    /// Lifetime (hits, misses).
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
        assert_eq!(g.epoch_rate(), Some(0.5));
        g.end_epoch();
        assert_eq!(g.epoch_rate(), None, "fresh epoch has no rate yet");
        assert_eq!(g.lifetime(), (1, 1));
    }

    #[test]
    fn ghost_never_exceeds_capacity() {
        let mut g = GhostCache::new(PolicyKind::Arc, 8);
        for k in 0..1000u64 {
            g.access(k % 37, AppId((k % 3) as u32));
            assert!(g.table().resident_count() <= 8);
            assert_eq!(g.resident_keys().len(), g.table().resident_count());
        }
    }
}
