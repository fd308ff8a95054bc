//! Property tests for the meta-policy subsystem: ghost caches are truly
//! metadata-only, epoch switches preserve residency and owners, a
//! single-candidate adaptive cache is byte-for-byte the static policy, and
//! hash-sampled ghosts estimate the exact ones (and are the exact ones
//! below 128 frames).

use kcache_adaptive::ghost::sample_shift;
use kcache_adaptive::{AdaptiveConfig, AdaptivePolicy, GhostCache};
use kcache_policy::QuotaMoveRecord;
use kcache_policy::{AppId, PolicyKind, RankedTable, ScanFilter};
use proptest::prelude::*;

const CAP: usize = 8;

/// What `BlockKey::hash()` computes (kcache is above this crate).
fn fingerprint(fid: u64, blk: u64) -> u64 {
    (fid.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ blk).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// `n` fingerprints drawn from a Zipf(`skew`) popularity over `universe`
/// blocks of four files, by inverse CDF.
fn zipf_stream(universe: usize, skew: f64, n: usize, seed: u64) -> Vec<u64> {
    let mut cdf: Vec<f64> = (1..=universe).map(|r| (r as f64).powf(-skew)).collect();
    for i in 1..universe {
        cdf[i] += cdf[i - 1];
    }
    let total = cdf[universe - 1];
    let mut rng = TestRng::seeded(seed);
    (0..n)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
            let rank = cdf.partition_point(|&c| c < u).min(universe - 1) as u64;
            fingerprint(1 + rank % 4, rank / 4)
        })
        .collect()
}

/// The fraction of `keys` a sampled ghost over `capacity` frames replays.
fn sampled_fraction(capacity: usize, keys: impl Iterator<Item = u64>) -> f64 {
    let mut g = GhostCache::sampled(PolicyKind::Clock, capacity);
    let mut n = 0;
    for key in keys {
        g.access(key, AppId(0));
        n += 1;
    }
    let (hits, misses) = g.lifetime();
    (hits + misses) as f64 / n as f64
}

/// The live table and its evidence, composed the way a buffer-manager
/// shard composes them: the evidence sees every use and every capacity
/// eviction, the table everything.
struct Sim {
    live: RankedTable,
    ad: AdaptivePolicy,
}

impl Sim {
    fn new(cfg: AdaptiveConfig) -> Sim {
        let ad = AdaptivePolicy::new(CAP, cfg, false);
        Sim { live: ad.live().build(CAP), ad }
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
    /// manager runs it: age the live table, then close the epoch.
    fn run_epoch(&mut self) -> Option<QuotaMoveRecord> {
        self.live.epoch_tick();
        self.ad.end_epoch(&mut self.live, &[]).1
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
                    g.table().resident_frames().len() <= CAP,
                    "{kind}: ghost grew past the pool"
                );
                for f in 0..CAP as u32 {
                    prop_assert!(!g.table().is_pinned(f), "{kind}: ghost pinned frame {f}");
                }
                prop_assert_eq!(
                    g.resident_keys().len(),
                    g.table().resident_frames().len(),
                    "{}: ghost key map and table disagree", kind
                );
            }
            let (hits, misses) = g.lifetime();
            prop_assert_eq!(hits + misses, keys.len() as u64, "{}: accesses lost", kind);
        }
    }

    /// Epoch switches (forced with zero hysteresis over all six
    /// candidates) preserve the resident set, per-frame owners/keys, pins
    /// and the ref words — residency and the owners quota charges follow
    /// cannot drift because the policy under the manager changed.
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
                    p.live.table().set_pinned(frame, pinned);
                }
                3 => {
                    let snapshot = |t: &kcache_policy::FrameTable| {
                        let per_frame: Vec<(bool, bool)> = (0..CAP as u32)
                            .map(|f| (t.is_pinned(f), t.ref_words().is_referenced(f)))
                            .collect();
                        (t.resident_entries(), per_frame)
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
                        adaptive.live.table().set_pinned(frame, pinned);
                        stat.table().set_pinned(frame, pinned);
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
            }
        }
    }

    /// On Zipf streams over pools of 256 frames and more (R = 4 … 16), the
    /// sampled exact-LRU ghost's hit rate is within 0.08 of the exact
    /// ghost's. (Over these 64 cases the error is 0.025 on average and
    /// 0.074 at most: the sample's 64–75 frames hold few of the hottest
    /// keys, and whether those fall in it moves the estimate.)
    #[test]
    fn a_sampled_ghost_estimates_the_exact_hit_rate(
        capacity in 256usize..1200,
        universe_per_frame in 2usize..8,
        skew in 0.6f64..1.1,
        seed in any::<u64>(),
    ) {
        let stream = zipf_stream(capacity * universe_per_frame, skew, 60_000, seed);
        let mut exact = GhostCache::new(PolicyKind::ExactLru, capacity);
        let mut sampled = GhostCache::sampled(PolicyKind::ExactLru, capacity);
        for &key in &stream {
            exact.access(key, AppId(0));
            sampled.access(key, AppId(0));
        }
        let rate = |(h, m): (u64, u64)| h as f64 / (h + m) as f64;
        let (e, s) = (rate(exact.lifetime()), rate(sampled.lifetime()));
        prop_assert!(
            (s - e).abs() <= 0.08,
            "capacity {}, {} blocks, skew {:.2}: sampled {:.4} vs exact {:.4}",
            capacity, capacity * universe_per_frame, skew, s, e
        );
    }

    /// The sample is 1/R of a file's blocks, whether they are read one
    /// after another or every s-th: within ±25 % of 1/R over 4 096 blocks.
    /// (A sample on the fingerprint's low bits keeps exactly every R-th
    /// block of a file, so it takes all or none of a stride-R read.)
    #[test]
    fn a_file_s_blocks_are_sampled_at_one_in_r(
        fid in 1u64..1_000_000,
        first in 0u64..1 << 20,
        stride_log2 in 0u32..5,
        capacity in 128usize..2048,
    ) {
        let r = (1u64 << sample_shift(capacity)) as f64;
        let stride = 1u64 << stride_log2;
        let blocks = (0..4096u64).map(|i| fingerprint(fid, first + i * stride));
        let fraction = sampled_fraction(capacity, blocks);
        prop_assert!(
            (fraction * r - 1.0).abs() <= 0.25,
            "fid {}, blocks {}.. every {}: sampled {:.4} of them at R = {}",
            fid, first, stride, fraction, r
        );
    }

    /// Below 128 frames the ghosts are not sampled: the adaptive policy's
    /// ledgers equal those of exact ghosts fed the same stream, at every
    /// epoch boundary (so epoch by epoch) and over their lifetime.
    #[test]
    fn below_128_frames_the_ghost_ledgers_are_exact(
        capacity in 1usize..128,
        ops in collection::vec((0u64..400, 0u32..3, 0u8..40), 1..600),
    ) {
        let cfg = AdaptiveConfig { hysteresis: 0.0, ..AdaptiveConfig::all_candidates() };
        let mut ad = AdaptivePolicy::new(capacity, cfg, false);
        let mut live = ad.live().build(capacity);
        let mut exact: Vec<GhostCache> =
            PolicyKind::ALL.iter().map(|&k| GhostCache::new(k, capacity)).collect();
        let lifetime = |exact: &[GhostCache]| -> Vec<_> {
            exact
                .iter()
                .map(|g| {
                    let (hits, misses) = g.lifetime();
                    (g.kind(), hits, misses)
                })
                .collect()
        };
        let rates = |ad: &AdaptivePolicy| -> Vec<_> {
            ad.ghost_rates().iter().map(|g| (g.kind, g.hits, g.misses)).collect()
        };
        for &(blk, app, tick) in &ops {
            let key = fingerprint(1 + blk % 3, blk);
            ad.observe(key, AppId(app));
            for g in &mut exact {
                g.access(key, AppId(app));
            }
            if tick == 0 {
                prop_assert_eq!(rates(&ad), lifetime(&exact), "capacity {}", capacity);
                live.epoch_tick();
                ad.end_epoch(&mut live, &[]);
                for g in &mut exact {
                    g.end_epoch();
                }
            }
        }
        prop_assert_eq!(rates(&ad), lifetime(&exact), "capacity {}", capacity);
    }
}
