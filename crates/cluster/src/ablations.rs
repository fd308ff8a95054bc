//! Ablations of the paper's design decisions (§3.2), each regenerable as a
//! figure-style table. Each is a [`Figure`] declaration run on the one
//! harness in [`crate::figures`].

use crate::experiment::ExperimentResult;
use crate::figures::{by_cache, pair, run_figures, series, Figure, Grid, Measure, Point};
use crate::report::FigureData;
use kcache::{
    AdaptiveConfig, CacheConfig, EvictPolicy, PartitionConfig, PartitionMode, PolicyKind,
};
use sim_net::NetConfig;
use workload::{AppSpec, Mode, PhaseSpec};

/// Write-behind vs write-through vs no cache (the flusher's justification).
pub fn ablation_write_policy(grid: &Grid) -> FigureData {
    let apps = |d: f64| vec![grid.instance("app0", d as u32, 4, Mode::Write, 0.0, 0.0)];
    let wt = CacheConfig { write_behind: false, ..CacheConfig::paper() };
    let caches = [
        ("write-behind", Some(CacheConfig::paper())),
        ("write-through", Some(wt)),
        ("no caching", None),
    ];
    let title = "write-behind vs write-through (writes, p=4, l=0)";
    Figure::makespan_vs_d(grid, "ablation_write_policy", title, by_cache(apps, caches)).run(grid)
}

/// Approximate (clock) vs exact LRU: end-to-end effect on a localized read
/// workload. (The paper's argument — per-access CPU overhead of exact LRU —
/// is quantified by the `buffer_manager` Criterion bench.)
pub fn ablation_lru(grid: &Grid) -> FigureData {
    let apps = |d: f64| vec![grid.instance("app0", d as u32, 4, Mode::Read, 0.8, 0.0)];
    let with = |kind| Some(CacheConfig { policy: EvictPolicy::of(kind), ..CacheConfig::paper() });
    let caches = [
        ("clock (approximate)", with(PolicyKind::Clock)),
        ("exact LRU", with(PolicyKind::ExactLru)),
    ];
    let title = "approximate (clock) vs exact LRU (reads, p=4, l=0.8)";
    Figure::makespan_vs_d(grid, "ablation_lru", title, by_cache(apps, caches)).run(grid)
}

/// Clean-first eviction preference on a mixed read+write co-schedule.
pub fn ablation_clean_first(grid: &Grid) -> FigureData {
    let apps = |d: f64| {
        let d = d as u32;
        vec![
            grid.instance("appA", d, 4, Mode::Read, 0.5, 0.5),
            grid.instance("appB", d, 4, Mode::Write, 0.5, 0.5),
        ]
    };
    let with = |clean_first| {
        let policy = EvictPolicy { kind: PolicyKind::Clock, clean_first };
        Some(CacheConfig { policy, ..CacheConfig::paper() })
    };
    let caches = [("clean-first", with(true)), ("oblivious", with(false))];
    let title = "clean-first vs oblivious eviction (read+write instances, p=4)";
    Figure::makespan_vs_d(grid, "ablation_clean_first", title, by_cache(apps, caches)).run(grid)
}

/// Shared hub (the paper's platform) vs a store-and-forward switch.
pub fn ablation_fabric(grid: &Grid) -> FigureData {
    let lines = [
        ("hub + caching", NetConfig::hub_100mbps(), Some(CacheConfig::paper())),
        ("hub, no caching", NetConfig::hub_100mbps(), None),
        ("switch + caching", NetConfig::switch_100mbps(), Some(CacheConfig::paper())),
        ("switch, no caching", NetConfig::switch_100mbps(), None),
    ]
    .map(|(name, net, cache)| {
        series(name, move |d| Point {
            cache: cache.clone(),
            net: Some(net.clone()),
            apps: pair(grid.instance("appA", d as u32, 4, Mode::Read, 0.5, 0.5)),
        })
    });
    let title = "hub vs switch (two read instances, p=4, l=0.5, s=50%)";
    Figure::makespan_vs_d(grid, "ablation_fabric", title, lines.into()).run(grid)
}

/// Coherent sync-writes vs plain write-behind under full sharing.
pub fn ablation_sync_write(grid: &Grid) -> FigureData {
    let lines =
        [("write-behind", Mode::Write), ("sync-write", Mode::SyncWrite)].map(|(name, mode)| {
            let apps = move |d: f64| pair(grid.instance("appA", d as u32, 2, mode, 0.5, 1.0));
            series(name, move |d| Point::new(Some(CacheConfig::paper()), apps(d)))
        });
    let title = "write-behind vs coherent sync-write (two instances, s=100%)";
    Figure::makespan_vs_d(grid, "ablation_sync_write", title, lines.into()).run(grid)
}

/// Harvester watermark sensitivity on a write-heavy workload.
pub fn ablation_harvester(grid: &Grid) -> FigureData {
    let apps = |d: f64| vec![grid.instance("app0", d as u32, 4, Mode::Write, 0.3, 0.0)];
    let caches = [
        ("low=1/high=4", 1, 4),
        ("low=30/high=75 (paper)", 30, 75),
        ("low=120/high=200", 120, 200),
    ]
    .map(|(name, lo, hi)| {
        (name, Some(CacheConfig { low_watermark: lo, high_watermark: hi, ..CacheConfig::paper() }))
    });
    let title = "harvester watermarks (writes, p=4, l=0.3)";
    Figure::makespan_vs_d(grid, "ablation_harvester", title, by_cache(apps, caches)).run(grid)
}

/// The paper's cache resized to `cap` blocks, its watermarks scaled with it.
fn sized(cap: usize) -> CacheConfig {
    CacheConfig {
        capacity_blocks: cap,
        low_watermark: cap / 10,
        high_watermark: cap / 4,
        ..CacheConfig::paper()
    }
}

/// Extension: cache-size sensitivity (the paper fixes 1.2 MB; §5 motivates
/// exploring more).
pub fn ablation_cache_size(grid: &Grid) -> FigureData {
    let d = grid.ablation_d();
    let apps = pair(grid.instance("appA", d, 4, Mode::Read, 0.5, 0.5));
    let at = move |cap: f64| Point::new(Some(sized(cap as usize)), apps.clone());
    Figure {
        x_label: "cache capacity (blocks)",
        xs: vec![75.0, 150.0, 300.0, 600.0, 1200.0],
        ..Figure::makespan_vs_d(
            grid,
            "ablation_cache_size",
            format!("cache size sweep (two read instances, d={d}, l=0.5, s=50%)"),
            vec![series("caching", at)],
        )
    }
    .run(grid)
}

fn hit_ratio(r: &ExperimentResult) -> f64 {
    r.hit_ratio().unwrap_or(0.0)
}

/// Every replacement policy's hit ratio against the sharing degree (x, in
/// percent), two Zipf-skewed (`hotspot`) read instances at `l = 0.2` on
/// `cache` with its policy replaced.
fn policy_vs_sharing<'a>(
    grid: &'a Grid,
    id: String,
    title: String,
    cache: CacheConfig,
    hotspot: f64,
    sharings: &[f64],
) -> Figure<'a> {
    let d = grid.ablation_d();
    let lines = PolicyKind::ALL.map(|kind| {
        let cache = CacheConfig { policy: EvictPolicy::of(kind), ..cache.clone() };
        series(kind.name(), move |x| {
            // Enough requests that steady-state behavior dominates the
            // cold-start misses even on the smoke grid.
            let a = grid.instance("appA", d, 4, Mode::Read, 0.2, x / 100.0);
            Point::new(Some(cache.clone()), pair(AppSpec { hotspot, min_requests: 64, ..a }))
        })
    });
    Figure {
        x_label: "sharing degree s (%)",
        y_label: "cache hit ratio",
        xs: sharings.iter().map(|s| s * 100.0).collect(),
        measure: Measure::Each(hit_ratio),
        ..Figure::makespan_vs_d(grid, id, title, lines.into())
    }
}

/// New-subsystem ablation: every replacement policy across sharing
/// degrees, under a Zipf-skewed two-instance read co-schedule. Reported
/// metric is the **cache hit ratio** — the policies' actual lever — rather
/// than makespan, so the figure isolates eviction quality from everything
/// downstream.
pub fn ablation_policy_comparison(grid: &Grid) -> FigureData {
    let d = grid.ablation_d();
    let title = format!(
        "replacement policies vs sharing degree (two read instances, d={d}, l=0.2, zipf 0.9)"
    );
    let sharings = [0.0, 0.25, 0.5, 0.75, 1.0];
    policy_vs_sharing(grid, "ablation_policy".into(), title, CacheConfig::paper(), 0.9, &sharings)
        .run(grid)
}

/// The full-grid policy-comparison study: every policy across **capacity ×
/// hotspot × sharing** (the DESIGN.md table). One figure per (capacity,
/// hotspot) pair, sharing on the x axis — `figures --fig policy-grid
/// --full` regenerates the published table.
pub fn ablation_policy_grid(grid: &Grid) -> Vec<FigureData> {
    let d = grid.ablation_d();
    let mut figs = Vec::new();
    for cap in [150usize, 300, 600] {
        for h in [0.6, 0.9, 1.2] {
            let id = format!("ablation_policy_grid_c{cap}_h{}", (h * 10.0) as u32);
            let title =
                format!("policies vs sharing (capacity={cap} blocks, zipf {h}, d={d}, l=0.2)");
            figs.push(policy_vs_sharing(grid, id, title, sized(cap), h, &[0.0, 0.5, 1.0]));
        }
    }
    run_figures(grid, figs)
}

/// A reuse-heavy **victim** (Zipf hot set) and a sequential **scanner**
/// that streams fresh blocks, both on node 0.
fn victim_and_scanner(grid: &Grid) -> Vec<AppSpec> {
    let d = grid.ablation_d();
    vec![
        AppSpec {
            hotspot: 1.1,
            min_requests: 96,
            ..grid.instance("victim", d, 1, Mode::Read, 0.2, 0.0)
        },
        AppSpec { min_requests: 160, ..grid.instance("scanner", d, 1, Mode::Read, 0.0, 0.0) },
    ]
}

/// New-subsystem ablation: per-application frame quotas under an
/// adversarial co-schedule. A reuse-heavy **victim** (Zipf hot set over
/// its private partition) shares node 0's cache with a sequential
/// **scanner** that streams fresh blocks and would, in a shared pool,
/// flush the victim's hot set. The x axis sweeps the victim's quota
/// share; series compare the shared pool against strict quotas and soft
/// quotas with borrowing. Reported metric is the **victim's own hit
/// ratio** (per-app attribution from the partitioning subsystem) — the
/// isolation the quotas are supposed to buy.
pub fn ablation_partitioning(grid: &Grid) -> FigureData {
    let capacity = CacheConfig::paper().capacity_blocks;
    let lines = [PartitionMode::Shared, PartitionMode::Strict, PartitionMode::Soft].map(|mode| {
        series(mode.name(), move |vq| {
            let vq = vq as usize;
            let quotas = [(0u32, vq), (1u32, capacity - vq)].into_iter().collect();
            let partitioning = PartitionConfig { mode, quotas };
            Point::new(
                Some(CacheConfig { partitioning, ..CacheConfig::paper() }),
                victim_and_scanner(grid),
            )
        })
    });
    Figure {
        x_label: "victim quota (frames)",
        y_label: "victim hit ratio",
        xs: [capacity / 5, capacity / 2, capacity * 4 / 5].map(|q| q as f64).into(),
        measure: Measure::Each(|r| r.app_hit_ratio(0).unwrap_or(0.0)),
        ..Figure::makespan_vs_d(
            grid,
            "ablation_partitioning",
            format!(
                "per-app quotas vs shared pool (victim zipf 1.1 + scanner, d={})",
                grid.ablation_d()
            ),
            lines.into(),
        )
    }
    .run(grid)
}

/// The adaptive subsystem's candidate set for the ablation: one
/// recency-style policy, one frequency-style policy, and the paper's
/// sharing signal — three regimes a phase schedule can alternate between.
const ADAPTIVE_CANDIDATES: [PolicyKind; 3] =
    [PolicyKind::Clock, PolicyKind::Lfu, PolicyKind::SharingAware];

/// A phase-shifting two-instance co-schedule on one cache node. `offset`
/// rotates instance B's schedule so the "mixed" scenario runs the two
/// instances in *anti-phase* — at any moment the node sees two different
/// regimes at once and no static policy is right for long.
fn phase_apps(grid: &Grid, d: u32, offset: bool) -> Vec<AppSpec> {
    // Phases sized so several epochs fit inside each phase.
    let zipf = PhaseSpec { requests: 48, locality: 0.2, sharing: 0.0, hotspot: 1.2 };
    let scan = PhaseSpec { requests: 48, locality: 0.0, sharing: 0.0, hotspot: 0.0 };
    let shared = PhaseSpec { requests: 48, locality: 0.2, sharing: 1.0, hotspot: 0.9 };
    let app = |name, phases| AppSpec {
        min_requests: 288,
        phases,
        ..grid.instance(name, d, 1, Mode::Read, 0.2, 0.0)
    };
    let b = if offset { vec![scan, shared, zipf] } else { vec![zipf, scan, shared] };
    vec![app("appA", vec![zipf, scan, shared]), app("appB", b)]
}

fn adaptive_cache(epoch: usize) -> CacheConfig {
    CacheConfig {
        policy: EvictPolicy::of(ADAPTIVE_CANDIDATES[0]),
        adaptive: Some(AdaptiveConfig {
            hysteresis: 0.01,
            ..AdaptiveConfig::new(ADAPTIVE_CANDIDATES)
        }),
        epoch_accesses: epoch,
        ..CacheConfig::paper()
    }
}

/// New-subsystem ablation (kcache-adaptive): the meta-policy against every
/// static candidate on phase-shifting workloads. Row `x = 0` runs both
/// instances through the same zipf → scan → shared cycle; row `x = 1`
/// runs them in anti-phase (the "mixed schedule" — the node never sees a
/// single regime). Metric is the cache hit ratio. The acceptance bar:
/// adaptive tracks the best static policy within 3 points and strictly
/// beats the worst on both rows.
pub fn ablation_adaptive_switching(grid: &Grid) -> FigureData {
    let d = grid.ablation_d();
    let epoch = 256;
    // Statics run with the same epoch clock (SharingAware decay ticks
    // equally) so only the meta-control differs.
    let statics = ADAPTIVE_CANDIDATES.map(|kind| {
        let cache = CacheConfig {
            policy: EvictPolicy::of(kind),
            epoch_accesses: epoch,
            ..CacheConfig::paper()
        };
        (kind.name(), Some(cache))
    });
    let caches = [("adaptive", Some(adaptive_cache(epoch)))].into_iter().chain(statics);
    Figure {
        x_label: "scenario (0 = in-phase cycle, 1 = anti-phase mix)",
        y_label: "cache hit ratio",
        xs: vec![0.0, 1.0],
        measure: Measure::Each(hit_ratio),
        ..Figure::makespan_vs_d(
            grid,
            "ablation_adaptive",
            format!(
                "adaptive meta-policy vs static candidates on phase-shifting workloads (d={d})"
            ),
            by_cache(move |x| phase_apps(grid, d, x == 1.0), caches),
        )
    }
    .run(grid)
}

/// New-subsystem ablation (kcache-adaptive): online quota tuning. A
/// misconfigured strict partition starves a zipf victim (60 frames)
/// while a sequential scanner idles on 240; the tuner, fed by per-app
/// ghost-list refaults, must walk quota back to the victim. Series
/// compare the fixed misconfiguration against the tuned run (same
/// replacement policy — a single-candidate adaptive wrapper — so the
/// tuner is the *only* difference). Rows: 0 = aggregate hit ratio, 1 =
/// victim hit ratio, 2 = victim final quota share, 3 = scanner final
/// quota share.
pub fn ablation_adaptive_quota(grid: &Grid) -> FigureData {
    let capacity = CacheConfig::paper().capacity_blocks;
    let quotas: PartitionConfig =
        PartitionConfig::strict([(0u32, capacity / 5), (1u32, capacity * 4 / 5)]);
    let fixed = CacheConfig { partitioning: quotas.clone(), ..CacheConfig::paper() };
    let tuned = CacheConfig {
        partitioning: quotas,
        adaptive: Some(AdaptiveConfig {
            quota_step: 16,
            ..AdaptiveConfig::new([PolicyKind::Clock])
        }),
        epoch_accesses: 128,
        ..CacheConfig::paper()
    };
    let measure = |r: &ExperimentResult| {
        let usage = r.app_usage.as_deref().unwrap_or_default();
        let quota_share = |app: u32| {
            usage.iter().find(|u| u.app == app).map(|u| u.quota as f64).unwrap_or(0.0)
                / CacheConfig::paper().capacity_blocks as f64
        };
        vec![hit_ratio(r), r.app_hit_ratio(0).unwrap_or(0.0), quota_share(0), quota_share(1)]
    };
    let title = format!(
        "online quota tuning vs fixed misconfigured quotas (victim zipf 1.1 + scanner, d={})",
        grid.ablation_d()
    );
    let caches = [("fixed", Some(fixed)), ("tuned", Some(tuned))];
    let lines = by_cache(|_| victim_and_scanner(grid), caches);
    Figure {
        x_label: "metric (0 = aggregate hit ratio, 1 = victim hit ratio, \
                  2 = victim quota share, 3 = scanner quota share)",
        y_label: "value",
        xs: vec![0.0, 1.0, 2.0, 3.0],
        measure: Measure::Column(measure),
        ..Figure::makespan_vs_d(grid, "ablation_adaptive_quota", title, lines)
    }
    .run(grid)
}

/// Both adaptive figures (the `--fig adaptive` bundle).
pub fn ablation_adaptive(grid: &Grid) -> Vec<FigureData> {
    vec![ablation_adaptive_switching(grid), ablation_adaptive_quota(grid)]
}

/// All ablations.
pub fn all_ablations(grid: &Grid) -> Vec<FigureData> {
    vec![
        ablation_write_policy(grid),
        ablation_lru(grid),
        ablation_clean_first(grid),
        ablation_fabric(grid),
        ablation_sync_write(grid),
        ablation_harvester(grid),
        ablation_cache_size(grid),
        ablation_policy_comparison(grid),
        ablation_partitioning(grid),
    ]
    .into_iter()
    .chain(ablation_adaptive(grid))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for the adaptive subsystem, part (a): on
    /// phase-shifting workloads the meta-policy tracks the best static
    /// candidate within 3 points and strictly beats the worst; on the
    /// anti-phase mixed schedule — where no static policy is right for
    /// long — it beats *every* static candidate outright.
    #[test]
    fn adaptive_tracks_best_static_and_beats_worst() {
        let fig = ablation_adaptive_switching(&Grid::smoke());
        let adaptive = fig.column("adaptive").unwrap();
        let statics: Vec<Vec<f64>> =
            ADAPTIVE_CANDIDATES.iter().map(|k| fig.column(k.name()).unwrap()).collect();
        for (row, &a) in adaptive.iter().enumerate() {
            let best = statics.iter().map(|c| c[row]).fold(f64::MIN, f64::max);
            let worst = statics.iter().map(|c| c[row]).fold(f64::MAX, f64::min);
            assert!(
                a >= best - 0.03,
                "row {row}: adaptive {a} not within 3 points of best static {best}"
            );
            assert!(a > worst, "row {row}: adaptive {a} does not beat worst static {worst}");
        }
        // Row 1 is the mixed (anti-phase) schedule: adaptive must win.
        let best_mixed = statics.iter().map(|c| c[1]).fold(f64::MIN, f64::max);
        assert!(
            adaptive[1] > best_mixed,
            "mixed schedule: adaptive {} must beat every static (best {})",
            adaptive[1],
            best_mixed
        );
    }

    /// Acceptance part (c): the quota tuner converges — the zipf victim's
    /// tuned quota ends higher than the scanner's, and aggregate hit rate
    /// is at least the fixed-quota run's.
    #[test]
    fn adaptive_quota_tuner_converges() {
        let fig = ablation_adaptive_quota(&Grid::smoke());
        let fixed = fig.column("fixed").unwrap();
        let tuned = fig.column("tuned").unwrap();
        // Row 0: aggregate hit ratio; rows 2/3: final quota shares.
        assert!(
            tuned[0] >= fixed[0],
            "tuned aggregate hit ratio {} fell below the fixed run {}",
            tuned[0],
            fixed[0]
        );
        assert!(
            tuned[2] > tuned[3],
            "victim tuned quota share {} must exceed the scanner's {}",
            tuned[2],
            tuned[3]
        );
        assert!(
            tuned[1] > fixed[1],
            "tuning must lift the starved victim's hit ratio ({} vs {})",
            tuned[1],
            fixed[1]
        );
        // The fixed run's shares echo the misconfiguration.
        assert!((fixed[2] - 0.2).abs() < 1e-9 && (fixed[3] - 0.8).abs() < 1e-9);
    }

    /// The acceptance bar for the policy subsystem: under skewed workloads
    /// with real inter-application sharing (`s ≥ 0.5`), protecting shared
    /// blocks must beat the paper's clock on hit rate.
    #[test]
    fn sharing_aware_beats_clock_on_shared_skewed_workloads() {
        let fig = ablation_policy_comparison(&Grid::smoke());
        let clock = fig.column("clock").unwrap();
        let sharing = fig.column("sharing-aware").unwrap();
        for (i, row) in fig.rows.iter().enumerate() {
            let s = row.x / 100.0;
            if (0.5..1.0).contains(&s) {
                assert!(
                    sharing[i] > clock[i],
                    "s={s}: sharing-aware hit ratio {} must beat clock {}",
                    sharing[i],
                    clock[i]
                );
            } else if s >= 1.0 {
                // At s = 1 every resident block is shared by both
                // applications, so the sharing signal carries no
                // information and parity is the expected outcome.
                assert!(
                    sharing[i] >= clock[i],
                    "s=1: sharing-aware hit ratio {} fell below clock {}",
                    sharing[i],
                    clock[i]
                );
            }
        }
        // Sanity: every policy produced a real hit ratio.
        for row in &fig.rows {
            for (k, &v) in row.y.iter().enumerate() {
                assert!(
                    v > 0.0 && v < 1.0,
                    "policy {} at s={} produced degenerate hit ratio {v}",
                    fig.series[k],
                    row.x
                );
            }
        }
    }
}
