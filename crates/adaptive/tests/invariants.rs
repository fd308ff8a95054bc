//! Property tests for the meta-policy subsystem: ghost caches are truly
//! metadata-only, epoch switches preserve residency and the ledger, and a
//! single-candidate adaptive cache is byte-for-byte the static policy.

use kcache_adaptive::{decide_epoch, AdaptiveConfig, AdaptivePolicy, GhostCache, QuotaMove};
use kcache_policy::{AppId, PolicyKind, RankedTable, ScanFilter};
use proptest::prelude::*;

const CAP: usize = 8;

/// The live table and its evidence, composed the way a buffer-manager
/// shard composes them: the evidence sees every use and every capacity
/// eviction, the table everything.
struct Sim {
    live: RankedTable,
    ad: AdaptivePolicy,
    cfg: AdaptiveConfig,
}

impl Sim {
    fn new(cfg: AdaptiveConfig) -> Sim {
        let ad = AdaptivePolicy::new(CAP, cfg.clone());
        Sim { live: ad.live().build(CAP), ad, cfg }
    }

    fn access(&mut self, frame: u32, key: u64, app: AppId) {
        self.ad.observe(key, app);
        self.live.access(frame, key, app);
    }

    fn insert(&mut self, frame: u32, key: u64, app: AppId) {
        self.ad.observe(key, app);
        self.live.insert(frame, key, app);
    }

    fn evict(&mut self, frame: u32, key: u64) {
        self.ad.remember_eviction(self.live.table().owner_of(frame), key);
        self.live.remove(frame, key);
    }

    /// One epoch boundary over an unpartitioned pool, as the buffer
    /// manager runs it: observe, decide, age, apply, migrate.
    fn run_epoch(&mut self) -> Option<QuotaMove> {
        let (directive, mv) = decide_epoch(&self.ad.epoch_observe(), &self.cfg, &[], CAP);
        self.live.epoch_tick();
        if let Some(to) = self.ad.epoch_apply(&directive) {
            self.live.migrate(to);
        }
        mv
    }
}

proptest! {
    /// Ghost ledgers never pin and never hold more frames than the pool:
    /// whatever stream a ghost replays, its simulated table stays within
    /// capacity, nothing is ever pinned, and its key map and table agree.
    #[test]
    fn ghosts_never_pin_or_overfill(
        keys in collection::vec((0u64..64, 0u32..3), 1..400),
    ) {
        for kind in PolicyKind::ALL {
            let mut g = GhostCache::new(kind, CAP);
            for &(key, app) in &keys {
                g.access(key, AppId(app));
                prop_assert!(
                    g.table().resident_count() <= CAP,
                    "{kind}: ghost grew past the pool"
                );
                for f in 0..CAP as u32 {
                    prop_assert!(!g.table().is_pinned(f), "{kind}: ghost pinned frame {f}");
                }
                prop_assert_eq!(
                    g.resident_keys().len(),
                    g.table().resident_count(),
                    "{}: ghost key map and table disagree", kind
                );
            }
            let (hits, misses) = g.lifetime();
            prop_assert_eq!(hits + misses, keys.len() as u64, "{}: accesses lost", kind);
        }
    }

    /// Epoch switches (forced with zero hysteresis over all six
    /// candidates) preserve the resident set, per-frame owners/keys, pins,
    /// the ref words, and the stats/per-app ledgers — residency and charge
    /// totals cannot drift because the policy under the manager changed.
    #[test]
    fn epoch_switches_preserve_residency_and_ledger(
        ops in collection::vec((0u8..4, 0u64..256), 1..200),
    ) {
        let mut cfg = AdaptiveConfig::all_candidates();
        cfg.hysteresis = 0.0;
        let mut p = Sim::new(cfg);
        for (i, &(op, arg)) in ops.iter().enumerate() {
            let frame = (arg % CAP as u64) as u32;
            let app = AppId((arg % 3) as u32);
            let t = p.live.table();
            let (resident, key) = (t.is_resident(frame), t.key_of(frame));
            match op {
                0 if resident => {
                    // The manager's lock-free half of a hit, then the replay.
                    t.ref_words().touch(frame, app);
                    p.access(frame, key, app);
                }
                0 => p.insert(frame, arg, app),
                1 if resident => p.evict(frame, key),
                2 if resident => {
                    let pinned = !t.is_pinned(frame);
                    p.live.table_mut().set_pinned(frame, pinned);
                }
                3 => {
                    let snapshot = |t: &kcache_policy::FrameTable| {
                        let per_frame: Vec<(bool, bool)> = (0..CAP as u32)
                            .map(|f| (t.is_pinned(f), t.ref_words().is_referenced(f)))
                            .collect();
                        (t.resident_entries(), per_frame, t.stats, t.app_usage())
                    };
                    let before = snapshot(t);
                    prop_assert!(p.run_epoch().is_none(), "no quotas: no move");
                    prop_assert_eq!(snapshot(p.live.table()), before, "op {}: switch drifted", i);
                    prop_assert_eq!(p.live.kind(), Some(p.ad.live()), "op {}", i);
                }
                _ => {}
            }
        }
    }

    /// With a single candidate the adaptive composition is transparent:
    /// every observable — candidate sequences, table state, stats —
    /// matches the bare static policy exactly, epoch ticks included.
    #[test]
    fn single_candidate_is_byte_for_byte_static(
        ops in collection::vec((0u8..5, 0u64..256), 1..250),
    ) {
        for kind in PolicyKind::ALL {
            let mut adaptive = Sim::new(AdaptiveConfig::new([kind]));
            let mut stat = kind.build(CAP);
            for &(op, arg) in &ops {
                let frame = (arg % CAP as u64) as u32;
                let app = AppId((arg % 3) as u32);
                let (resident, key) = (stat.table().is_resident(frame), stat.table().key_of(frame));
                match op {
                    0 if resident => {
                        adaptive.access(frame, key, app);
                        stat.access(frame, key, app);
                    }
                    0 => {
                        adaptive.insert(frame, arg, app);
                        stat.insert(frame, arg, app);
                    }
                    1 if resident => {
                        adaptive.evict(frame, key);
                        stat.remove(frame, key);
                    }
                    2 if resident => {
                        let pinned = !stat.table().is_pinned(frame);
                        adaptive.live.table_mut().set_pinned(frame, pinned);
                        stat.table_mut().set_pinned(frame, pinned);
                    }
                    3 => {
                        adaptive.run_epoch();
                        stat.epoch_tick();
                    }
                    4 => {
                        adaptive.live.begin_scan();
                        stat.begin_scan();
                        let a = adaptive.live.next_candidate(&mut ScanFilter::default());
                        let s = stat.next_candidate(&mut ScanFilter::default());
                        prop_assert_eq!(a, s, "{}: scan diverged", kind);
                        if let Some(v) = s {
                            // The manager takes the first workable victim.
                            let key = stat.table().key_of(v);
                            adaptive.evict(v, key);
                            stat.remove(v, key);
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(adaptive.live.kind(), Some(kind));
                prop_assert_eq!(
                    adaptive.live.table().resident_entries(),
                    stat.table().resident_entries(),
                    "{}: table diverged", kind
                );
                prop_assert_eq!(
                    adaptive.live.table().stats, stat.table().stats, "{}: stats diverged", kind
                );
            }
        }
    }
}
