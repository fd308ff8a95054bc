//! Property tests for the meta-policy subsystem: ghost caches are truly
//! metadata-only, epoch switches preserve residency and the ledger, and a
//! single-candidate adaptive policy is byte-for-byte the static policy.

use kcache_adaptive::{decide_epoch, AdaptiveConfig, AdaptivePolicy, GhostCache, QuotaMove};
use kcache_policy::{AppId, PolicyKind, ReplacementPolicy};
use proptest::prelude::*;

const CAP: usize = 8;

/// One epoch boundary over an unpartitioned pool, as the buffer manager
/// runs it: observe, decide over that observation, apply.
fn run_epoch(p: &mut AdaptivePolicy, cfg: &AdaptiveConfig) -> Option<QuotaMove> {
    let obs = p.epoch_observe().expect("adaptive policies always observe");
    let (directive, mv) = decide_epoch(&obs, cfg, &[], CAP);
    p.epoch_apply(&directive);
    mv
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
    /// and the stats/per-app ledgers — residency and charge totals cannot
    /// drift because the policy under the manager changed.
    #[test]
    fn epoch_switches_preserve_residency_and_ledger(
        ops in collection::vec((0u8..4, 0u64..256), 1..200),
    ) {
        let mut cfg = AdaptiveConfig::all_candidates();
        cfg.hysteresis = 0.0;
        let mut p = AdaptivePolicy::new(CAP, cfg.clone());
        for (i, &(op, arg)) in ops.iter().enumerate() {
            let frame = (arg % CAP as u64) as u32;
            let app = AppId((arg % 3) as u32);
            match op {
                0 => {
                    if p.table().is_resident(frame) {
                        let key = p.table().key_of(frame);
                        p.on_access(frame, key, app);
                    } else {
                        p.on_insert(frame, arg, app);
                    }
                }
                1 => {
                    if p.table().is_resident(frame) {
                        let key = p.table().key_of(frame);
                        p.on_remove(frame, key);
                    }
                }
                2 => {
                    if p.table().is_resident(frame) {
                        let pinned = !p.table().is_pinned(frame);
                        p.set_pinned(frame, pinned);
                    }
                }
                _ => {
                    let entries = p.table().resident_entries();
                    let pins: Vec<bool> =
                        (0..CAP as u32).map(|f| p.table().is_pinned(f)).collect();
                    let stats = *p.stats();
                    let usage = p.app_usage();
                    prop_assert!(run_epoch(&mut p, &cfg).is_none(), "no quotas: no move");
                    prop_assert_eq!(
                        p.table().resident_entries(),
                        entries,
                        "op {}: switch moved blocks", i
                    );
                    let pins_after: Vec<bool> =
                        (0..CAP as u32).map(|f| p.table().is_pinned(f)).collect();
                    prop_assert_eq!(pins_after, pins, "op {}: switch changed pins", i);
                    prop_assert_eq!(*p.stats(), stats, "op {}: switch reset stats", i);
                    prop_assert_eq!(p.app_usage(), usage, "op {}: switch reset app ledger", i);
                }
            }
        }
    }

    /// With a single candidate the adaptive wrapper is transparent: every
    /// observable — candidate sequences, table state, stats — matches the
    /// bare static policy exactly, epoch ticks included.
    #[test]
    fn single_candidate_is_byte_for_byte_static(
        ops in collection::vec((0u8..5, 0u64..256), 1..250),
    ) {
        for kind in PolicyKind::ALL {
            let cfg = AdaptiveConfig::new([kind]);
            let mut adaptive = AdaptivePolicy::new(CAP, cfg.clone());
            let mut stat = kind.build(CAP);
            for &(op, arg) in &ops {
                let frame = (arg % CAP as u64) as u32;
                let app = AppId((arg % 3) as u32);
                match op {
                    0 => {
                        if stat.table().is_resident(frame) {
                            let key = stat.table().key_of(frame);
                            adaptive.on_access(frame, key, app);
                            stat.on_access(frame, key, app);
                        } else {
                            adaptive.on_insert(frame, arg, app);
                            stat.on_insert(frame, arg, app);
                        }
                    }
                    1 => {
                        if stat.table().is_resident(frame) {
                            let key = stat.table().key_of(frame);
                            adaptive.on_remove(frame, key);
                            stat.on_remove(frame, key);
                        }
                    }
                    2 => {
                        if stat.table().is_resident(frame) {
                            let pinned = !stat.table().is_pinned(frame);
                            adaptive.set_pinned(frame, pinned);
                            stat.set_pinned(frame, pinned);
                        }
                    }
                    3 => {
                        run_epoch(&mut adaptive, &cfg);
                        stat.epoch_tick();
                    }
                    _ => {
                        adaptive.begin_scan();
                        stat.begin_scan();
                        let a = adaptive.next_candidate(None);
                        let s = stat.next_candidate(None);
                        prop_assert_eq!(a, s, "{}: scan diverged", kind);
                        if let Some(v) = s {
                            // The manager takes the first workable victim.
                            let key = stat.table().key_of(v);
                            adaptive.on_remove(v, key);
                            stat.on_remove(v, key);
                        }
                    }
                }
                prop_assert_eq!(adaptive.kind(), kind);
                prop_assert_eq!(
                    adaptive.table().resident_entries(),
                    stat.table().resident_entries(),
                    "{}: table diverged", kind
                );
                prop_assert_eq!(*adaptive.stats(), *stat.stats(), "{}: stats diverged", kind);
            }
        }
    }
}
