//! Cache module configuration.

use crate::manager::EvictPolicy;
use kcache_adaptive::AdaptiveConfig;
use kcache_policy::AppId;
use std::collections::BTreeMap;

/// How the frame pool is divided among applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMode {
    /// One pool for everyone — the paper's design and the default. Quotas,
    /// if any are configured, are ignored.
    #[default]
    Shared,
    /// Hard caps: an application at its quota must evict one of its own
    /// frames to insert a new one, and is denied the insert when it cannot
    /// (all of its frames pinned or dirty during a clean-only pass). No
    /// application's residency exceeds its quota: when the quota tuner
    /// shrinks one, the app's clean frames are evicted down to it with
    /// the move, and a frame dirty or in flight then is evicted as soon as
    /// it is clean again (write-back acknowledged, or overwritten by a
    /// sync-write).
    Strict,
    /// Caps with borrowing: an application at its quota may still grow by
    /// taking *free* frames (idle capacity, e.g. an inactive co-tenant's
    /// harvested frames). When the pool is full, over-quota applications
    /// feed on their own partition first and borrowed frames are reclaimed
    /// from the most over-quota borrower before anyone else is disturbed.
    Soft,
}

impl PartitionMode {
    /// Stable textual name (JSON configs, figure series labels).
    pub fn name(self) -> &'static str {
        match self {
            PartitionMode::Shared => "shared",
            PartitionMode::Strict => "strict",
            PartitionMode::Soft => "soft",
        }
    }

    /// Inverse of [`name`](PartitionMode::name).
    pub fn parse(s: &str) -> Option<PartitionMode> {
        match s {
            "shared" => Some(PartitionMode::Shared),
            "strict" => Some(PartitionMode::Strict),
            "soft" => Some(PartitionMode::Soft),
            _ => None,
        }
    }
}

impl std::fmt::Display for PartitionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-application frame quotas for the buffer manager.
///
/// Applications appear by [`AppId`]; an application with no entry (and all
/// traffic from [`AppId::UNKNOWN`]) is unconstrained, so an empty quota map
/// behaves exactly like [`PartitionMode::Shared`] regardless of mode. A
/// quota equal to the pool capacity is also behaviorally identical to the
/// shared pool — the app can never be pushed over it — which is what the
/// partitioning differential tests pin down.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionConfig {
    pub mode: PartitionMode,
    /// `AppId.0` → frame quota. Quotas need not sum to the capacity:
    /// under-committed pools leave slack for unquota'd traffic, and
    /// over-committed pools simply mean not everyone can be at quota at
    /// once.
    pub quotas: BTreeMap<u32, usize>,
}

impl PartitionConfig {
    /// The shared pool (no partitioning) — the paper's behavior.
    pub fn shared() -> PartitionConfig {
        PartitionConfig::default()
    }

    /// Strict partitions from `(app id, quota)` pairs.
    pub fn strict(quotas: impl IntoIterator<Item = (u32, usize)>) -> PartitionConfig {
        PartitionConfig { mode: PartitionMode::Strict, quotas: quotas.into_iter().collect() }
    }

    /// Soft (borrowing) partitions from `(app id, quota)` pairs.
    pub fn soft(quotas: impl IntoIterator<Item = (u32, usize)>) -> PartitionConfig {
        PartitionConfig { mode: PartitionMode::Soft, quotas: quotas.into_iter().collect() }
    }

    /// An even split of `capacity` frames over applications `0..n_apps`
    /// (the first `capacity % n_apps` apps get the remainder frames).
    pub fn even(mode: PartitionMode, n_apps: u32, capacity: usize) -> PartitionConfig {
        assert!(n_apps > 0, "even split over zero applications");
        let base = capacity / n_apps as usize;
        let rem = capacity % n_apps as usize;
        PartitionConfig {
            mode,
            quotas: (0..n_apps).map(|i| (i, base + usize::from((i as usize) < rem))).collect(),
        }
    }

    /// Quota of `app`, `None` when unconstrained.
    pub fn quota_of(&self, app: AppId) -> Option<usize> {
        if self.mode == PartitionMode::Shared || app == AppId::UNKNOWN {
            return None;
        }
        self.quotas.get(&app.0).copied()
    }

    /// Does this configuration actually constrain anyone?
    pub fn is_partitioned(&self) -> bool {
        self.mode != PartitionMode::Shared && !self.quotas.is_empty()
    }

    /// Sanity-check against a pool of `capacity` frames: every quota must
    /// be in `1..=capacity` (a zero quota would deny an app the cache
    /// entirely while still letting it run uncached — configure no cache
    /// instead) and no quota may name [`AppId::UNKNOWN`].
    pub fn validate(&self, capacity: usize) -> Result<(), String> {
        for (&app, &q) in &self.quotas {
            if app == AppId::UNKNOWN.0 {
                return Err("quota for AppId::UNKNOWN is meaningless".into());
            }
            if q == 0 || q > capacity {
                return Err(format!("quota {q} for app {app} out of range (1..={capacity})"));
            }
        }
        Ok(())
    }
}

/// Tunables of the per-node kernel cache module.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Cache capacity in 4 KB blocks. The paper uses 300 (1.2 MB),
    /// deliberately small relative to the data sets.
    pub capacity_blocks: usize,
    /// Replacement policy: which `kcache-policy` ranking runs (clock, exact
    /// LRU, LFU, 2Q, ARC, sharing-aware) plus the clean-first preference.
    /// Approximate LRU (clock) + clean-first by default, as in the paper.
    pub policy: EvictPolicy,
    /// Per-application frame quotas (shared pool — no quotas — by
    /// default, as in the paper).
    pub partitioning: PartitionConfig,
    /// `Some` replaces the static `policy.kind` with the
    /// `kcache-adaptive` meta-policy over the listed candidates: ghost
    /// caches per candidate, epoch-based live switching, marginal-utility
    /// quota tuning. `None` (the default) keeps the static policy.
    pub adaptive: Option<AdaptiveConfig>,
    /// Cache accesses per epoch: every `epoch_accesses` hits, misses and
    /// touches the buffer manager runs one epoch boundary (the adaptive
    /// controller's decision, or `SharingAware`'s referent decay).
    /// `0` (the default, the paper's behavior) disables epochs entirely.
    pub epoch_accesses: usize,
    /// Harvester wake-up threshold: free list below this many frames.
    pub low_watermark: usize,
    /// Harvester target: free frames after a sweep.
    pub high_watermark: usize,
    /// Write-behind on (the paper's design) or off (write-through
    /// ablation: every write forwards to the iod synchronously).
    pub write_behind: bool,
}

impl CacheConfig {
    /// The paper's configuration: 1.2 MB cache of 4 KB blocks.
    pub fn paper() -> CacheConfig {
        CacheConfig {
            capacity_blocks: 300,
            policy: EvictPolicy::default(),
            partitioning: PartitionConfig::shared(),
            adaptive: None,
            epoch_accesses: 0,
            low_watermark: 30,
            high_watermark: 75,
            write_behind: true,
        }
    }

    /// The policy name this configuration runs — the static kind's name,
    /// or `"adaptive"` when the meta-policy wraps the candidates (what
    /// reports and figure series are labeled with).
    pub fn policy_label(&self) -> &'static str {
        if self.adaptive.is_some() {
            "adaptive"
        } else {
            self.policy.kind.name()
        }
    }

    pub fn capacity_bytes(&self) -> usize {
        self.capacity_blocks * crate::block::CACHE_BLOCK_SIZE
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_1_2_mb() {
        let c = CacheConfig::paper();
        assert_eq!(c.capacity_bytes(), 1_228_800);
        assert!(c.low_watermark < c.high_watermark);
        assert!(c.high_watermark < c.capacity_blocks);
        assert!(c.write_behind);
        assert!(!c.partitioning.is_partitioned(), "the paper runs a shared pool");
    }

    #[test]
    fn partition_mode_names_round_trip() {
        for mode in [PartitionMode::Shared, PartitionMode::Strict, PartitionMode::Soft] {
            assert_eq!(PartitionMode::parse(mode.name()), Some(mode), "{mode}");
        }
        assert_eq!(PartitionMode::parse("soft-borrowing"), None, "one spelling per mode");
        assert_eq!(PartitionMode::parse("nope"), None);
    }

    #[test]
    fn even_split_covers_capacity() {
        let p = PartitionConfig::even(PartitionMode::Strict, 3, 10);
        assert_eq!(p.quotas.values().sum::<usize>(), 10);
        assert_eq!(p.quota_of(AppId(0)), Some(4));
        assert_eq!(p.quota_of(AppId(2)), Some(3));
        assert_eq!(p.quota_of(AppId(9)), None, "unlisted apps are unconstrained");
        assert_eq!(p.quota_of(AppId::UNKNOWN), None);
        assert!(p.validate(10).is_ok());
    }

    #[test]
    fn shared_mode_ignores_quotas() {
        let mut p = PartitionConfig::strict([(0, 5)]);
        assert_eq!(p.quota_of(AppId(0)), Some(5));
        assert!(p.is_partitioned());
        p.mode = PartitionMode::Shared;
        assert_eq!(p.quota_of(AppId(0)), None);
        assert!(!p.is_partitioned());
    }

    #[test]
    fn validation_catches_bad_quotas() {
        assert!(PartitionConfig::strict([(0, 0)]).validate(8).is_err(), "zero quota");
        assert!(PartitionConfig::strict([(0, 9)]).validate(8).is_err(), "over capacity");
        assert!(
            PartitionConfig::strict([(u32::MAX, 4)]).validate(8).is_err(),
            "UNKNOWN is not an app"
        );
        assert!(PartitionConfig::soft([(0, 8), (1, 8)]).validate(8).is_ok(), "overcommit is legal");
    }
}
