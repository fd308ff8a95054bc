//! Ablations of the paper's design decisions (§3.2), each regenerable as a
//! figure-style table.

use crate::builder::ClusterSpec;
use crate::experiment::run_experiment;
use crate::figures::Grid;
use crate::report::FigureData;
use crate::sweep::parallel_map;
use kcache::{
    AdaptiveConfig, CacheConfig, EvictPolicy, PartitionConfig, PartitionMode, PolicyKind,
};
use sim_core::Dur;
use sim_net::{NetConfig, NodeId};
use workload::{AppSpec, Mode, PhaseSpec};

fn app(grid: &Grid, d: u32, p: u32, mode: Mode, l: f64, s: f64, name: &str) -> AppSpec {
    AppSpec {
        name: name.into(),
        nodes: (0..p as u16).map(NodeId).collect(),
        total_bytes: grid.total_bytes,
        request_size: d,
        mode,
        locality: l,
        sharing: s,
        hotspot: 0.0,
        shared_file: "shared".into(),
        file_size: grid.file_size,
        start_delay: Dur::ZERO,
        min_requests: 1,
        phases: Vec::new(),
    }
}

fn makespans(
    grid: &Grid,
    configs: Vec<(Option<CacheConfig>, Vec<AppSpec>, Option<NetConfig>)>,
) -> Vec<f64> {
    parallel_map(configs, |(cache, apps, net)| {
        let mut spec = ClusterSpec::paper(cache.clone());
        if let Some(net) = net {
            spec.net = net.clone();
        }
        spec.seed = grid.seed;
        let r = run_experiment(&spec, apps);
        assert!(r.completed && r.total_verify_failures() == 0);
        r.mean_makespan_s()
    })
}

/// Write-behind vs write-through vs no cache (the flusher's justification).
pub fn ablation_write_policy(grid: &Grid) -> FigureData {
    let mut configs = Vec::new();
    for &d in &grid.d_values {
        let apps = vec![app(grid, d, 4, Mode::Write, 0.0, 0.0, "app0")];
        configs.push((Some(CacheConfig::paper()), apps.clone(), None));
        let wt = CacheConfig { write_behind: false, ..CacheConfig::paper() };
        configs.push((Some(wt), apps.clone(), None));
        configs.push((None, apps, None));
    }
    let vals = makespans(grid, configs);
    let mut fig = FigureData::new(
        "ablation_write_policy",
        "write-behind vs write-through (writes, p=4, l=0)",
        "request size d (bytes)",
        "total time (s)",
        vec!["write-behind".into(), "write-through".into(), "no caching".into()],
    );
    for (i, &d) in grid.d_values.iter().enumerate() {
        fig.push(d as f64, vec![vals[3 * i], vals[3 * i + 1], vals[3 * i + 2]]);
    }
    fig
}

/// Approximate (clock) vs exact LRU: end-to-end effect on a localized read
/// workload. (The paper's argument — per-access CPU overhead of exact LRU —
/// is quantified by the `buffer_manager` Criterion bench.)
pub fn ablation_lru(grid: &Grid) -> FigureData {
    let mut configs = Vec::new();
    for &d in &grid.d_values {
        let apps = vec![app(grid, d, 4, Mode::Read, 0.8, 0.0, "app0")];
        let clock =
            CacheConfig { policy: EvictPolicy::of(PolicyKind::Clock), ..CacheConfig::paper() };
        let exact =
            CacheConfig { policy: EvictPolicy::of(PolicyKind::ExactLru), ..CacheConfig::paper() };
        configs.push((Some(clock), apps.clone(), None));
        configs.push((Some(exact), apps, None));
    }
    let vals = makespans(grid, configs);
    let mut fig = FigureData::new(
        "ablation_lru",
        "approximate (clock) vs exact LRU (reads, p=4, l=0.8)",
        "request size d (bytes)",
        "total time (s)",
        vec!["clock (approximate)".into(), "exact LRU".into()],
    );
    for (i, &d) in grid.d_values.iter().enumerate() {
        fig.push(d as f64, vec![vals[2 * i], vals[2 * i + 1]]);
    }
    fig
}

/// Clean-first eviction preference on a mixed read+write co-schedule.
pub fn ablation_clean_first(grid: &Grid) -> FigureData {
    let mut configs = Vec::new();
    for &d in &grid.d_values {
        let apps = vec![
            app(grid, d, 4, Mode::Read, 0.5, 0.5, "appA"),
            app(grid, d, 4, Mode::Write, 0.5, 0.5, "appB"),
        ];
        let clean = CacheConfig {
            policy: EvictPolicy { kind: PolicyKind::Clock, clean_first: true },
            ..CacheConfig::paper()
        };
        let oblivious = CacheConfig {
            policy: EvictPolicy { kind: PolicyKind::Clock, clean_first: false },
            ..CacheConfig::paper()
        };
        configs.push((Some(clean), apps.clone(), None));
        configs.push((Some(oblivious), apps, None));
    }
    let vals = makespans(grid, configs);
    let mut fig = FigureData::new(
        "ablation_clean_first",
        "clean-first vs oblivious eviction (read+write instances, p=4)",
        "request size d (bytes)",
        "total time (s)",
        vec!["clean-first".into(), "oblivious".into()],
    );
    for (i, &d) in grid.d_values.iter().enumerate() {
        fig.push(d as f64, vec![vals[2 * i], vals[2 * i + 1]]);
    }
    fig
}

/// Shared hub (the paper's platform) vs a store-and-forward switch.
pub fn ablation_fabric(grid: &Grid) -> FigureData {
    let mut configs = Vec::new();
    for &d in &grid.d_values {
        let apps = vec![
            app(grid, d, 4, Mode::Read, 0.5, 0.5, "appA"),
            app(grid, d, 4, Mode::Read, 0.5, 0.5, "appB"),
        ];
        for net in [NetConfig::hub_100mbps(), NetConfig::switch_100mbps()] {
            for cache in [Some(CacheConfig::paper()), None] {
                configs.push((cache, apps.clone(), Some(net.clone())));
            }
        }
    }
    let vals = makespans(grid, configs);
    let mut fig = FigureData::new(
        "ablation_fabric",
        "hub vs switch (two read instances, p=4, l=0.5, s=50%)",
        "request size d (bytes)",
        "total time (s)",
        vec![
            "hub + caching".into(),
            "hub, no caching".into(),
            "switch + caching".into(),
            "switch, no caching".into(),
        ],
    );
    for (i, &d) in grid.d_values.iter().enumerate() {
        fig.push(d as f64, (0..4).map(|k| vals[4 * i + k]).collect());
    }
    fig
}

/// Coherent sync-writes vs plain write-behind under full sharing.
pub fn ablation_sync_write(grid: &Grid) -> FigureData {
    let mut configs = Vec::new();
    for &d in &grid.d_values {
        for mode in [Mode::Write, Mode::SyncWrite] {
            let apps = vec![
                app(grid, d, 2, mode, 0.5, 1.0, "appA"),
                app(grid, d, 2, mode, 0.5, 1.0, "appB"),
            ];
            configs.push((Some(CacheConfig::paper()), apps, None));
        }
    }
    let vals = makespans(grid, configs);
    let mut fig = FigureData::new(
        "ablation_sync_write",
        "write-behind vs coherent sync-write (two instances, s=100%)",
        "request size d (bytes)",
        "total time (s)",
        vec!["write-behind".into(), "sync-write".into()],
    );
    for (i, &d) in grid.d_values.iter().enumerate() {
        fig.push(d as f64, vec![vals[2 * i], vals[2 * i + 1]]);
    }
    fig
}

/// Harvester watermark sensitivity on a write-heavy workload.
pub fn ablation_harvester(grid: &Grid) -> FigureData {
    let marks = [(1usize, 4usize), (30, 75), (120, 200)];
    let mut configs = Vec::new();
    for &d in &grid.d_values {
        let apps = vec![app(grid, d, 4, Mode::Write, 0.3, 0.0, "app0")];
        for (lo, hi) in marks {
            let cfg = CacheConfig { low_watermark: lo, high_watermark: hi, ..CacheConfig::paper() };
            configs.push((Some(cfg), apps.clone(), None));
        }
    }
    let vals = makespans(grid, configs);
    let mut fig = FigureData::new(
        "ablation_harvester",
        "harvester watermarks (writes, p=4, l=0.3)",
        "request size d (bytes)",
        "total time (s)",
        vec!["low=1/high=4".into(), "low=30/high=75 (paper)".into(), "low=120/high=200".into()],
    );
    for (i, &d) in grid.d_values.iter().enumerate() {
        fig.push(d as f64, (0..3).map(|k| vals[3 * i + k]).collect());
    }
    fig
}

/// Extension: cache-size sensitivity (the paper fixes 1.2 MB; §5 motivates
/// exploring more).
pub fn ablation_cache_size(grid: &Grid) -> FigureData {
    let sizes = [75usize, 150, 300, 600, 1200];
    let d = *grid.d_values.iter().find(|&&d| d >= 64 << 10).unwrap_or(&grid.d_values[0]);
    let mut configs = Vec::new();
    for &cap in &sizes {
        let apps = vec![
            app(grid, d, 4, Mode::Read, 0.5, 0.5, "appA"),
            app(grid, d, 4, Mode::Read, 0.5, 0.5, "appB"),
        ];
        let cfg = CacheConfig {
            capacity_blocks: cap,
            low_watermark: cap / 10,
            high_watermark: cap / 4,
            ..CacheConfig::paper()
        };
        configs.push((Some(cfg), apps, None));
    }
    let vals = makespans(grid, configs);
    let mut fig = FigureData::new(
        "ablation_cache_size",
        format!("cache size sweep (two read instances, d={d}, l=0.5, s=50%)"),
        "cache capacity (blocks)",
        "total time (s)",
        vec!["caching".into()],
    );
    for (i, &cap) in sizes.iter().enumerate() {
        fig.push(cap as f64, vec![vals[i]]);
    }
    fig
}

/// New-subsystem ablation: every replacement policy across sharing
/// degrees, under a Zipf-skewed two-instance read co-schedule. Reported
/// metric is the **cache hit ratio** — the policies' actual lever — rather
/// than makespan, so the figure isolates eviction quality from everything
/// downstream.
pub fn ablation_policy_comparison(grid: &Grid) -> FigureData {
    let sharings = [0.0, 0.25, 0.5, 0.75, 1.0];
    let d = *grid.d_values.iter().find(|&&d| d >= 64 << 10).unwrap_or(&grid.d_values[0]);
    let mut configs = Vec::new();
    for &s in &sharings {
        for kind in PolicyKind::ALL {
            let mut a = app(grid, d, 4, Mode::Read, 0.2, s, "appA");
            let mut b = app(grid, d, 4, Mode::Read, 0.2, s, "appB");
            a.hotspot = 0.9;
            b.hotspot = 0.9;
            // Enough requests that steady-state behavior dominates the
            // cold-start misses even on the smoke grid.
            a.min_requests = 64;
            b.min_requests = 64;
            let cfg = CacheConfig { policy: EvictPolicy::of(kind), ..CacheConfig::paper() };
            configs.push((cfg, vec![a, b]));
        }
    }
    let vals = parallel_map(configs, |(cache, apps)| {
        let mut spec = ClusterSpec::paper(Some(cache.clone()));
        spec.seed = grid.seed;
        let r = run_experiment(&spec, apps);
        assert!(r.completed && r.total_verify_failures() == 0);
        r.hit_ratio().unwrap_or(0.0)
    });
    let mut fig = FigureData::new(
        "ablation_policy",
        format!(
            "replacement policies vs sharing degree (two read instances, d={d}, l=0.2, zipf 0.9)"
        ),
        "sharing degree s (%)",
        "cache hit ratio",
        PolicyKind::ALL.iter().map(|k| k.name().to_string()).collect(),
    );
    let n = PolicyKind::ALL.len();
    for (i, &s) in sharings.iter().enumerate() {
        fig.push(s * 100.0, (0..n).map(|k| vals[n * i + k]).collect());
    }
    fig
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
    let d = *grid.d_values.iter().find(|&&d| d >= 64 << 10).unwrap_or(&grid.d_values[0]);
    let capacity = CacheConfig::paper().capacity_blocks;
    let victim_quotas = [capacity / 5, capacity / 2, capacity * 4 / 5];
    let modes = [PartitionMode::Shared, PartitionMode::Strict, PartitionMode::Soft];
    let mut configs = Vec::new();
    for &vq in &victim_quotas {
        for mode in modes {
            let mut victim = app(grid, d, 1, Mode::Read, 0.2, 0.0, "victim");
            victim.hotspot = 1.1;
            victim.min_requests = 96;
            let mut scanner = app(grid, d, 1, Mode::Read, 0.0, 0.0, "scanner");
            scanner.min_requests = 160;
            let cfg = CacheConfig {
                partitioning: PartitionConfig {
                    mode,
                    quotas: [(0u32, vq), (1u32, capacity - vq)].into_iter().collect(),
                },
                ..CacheConfig::paper()
            };
            configs.push((cfg, vec![victim, scanner]));
        }
    }
    let vals = parallel_map(configs, |(cache, apps)| {
        let mut spec = ClusterSpec::paper(Some(cache.clone()));
        spec.seed = grid.seed;
        let r = run_experiment(&spec, apps);
        assert!(r.completed && r.total_verify_failures() == 0);
        r.app_hit_ratio(0).unwrap_or(0.0)
    });
    let mut fig = FigureData::new(
        "ablation_partitioning",
        format!("per-app quotas vs shared pool (victim zipf 1.1 + scanner, d={d})"),
        "victim quota (frames)",
        "victim hit ratio",
        modes.iter().map(|m| m.name().to_string()).collect(),
    );
    for (i, &vq) in victim_quotas.iter().enumerate() {
        fig.push(vq as f64, (0..modes.len()).map(|k| vals[modes.len() * i + k]).collect());
    }
    fig
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
    let mut a = app(grid, d, 1, Mode::Read, 0.2, 0.0, "appA");
    let mut b = app(grid, d, 1, Mode::Read, 0.2, 0.0, "appB");
    a.min_requests = 288;
    b.min_requests = 288;
    a.phases = vec![zipf, scan, shared];
    b.phases = if offset { vec![scan, shared, zipf] } else { vec![zipf, scan, shared] };
    vec![a, b]
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
    let d = *grid.d_values.iter().find(|&&d| d >= 64 << 10).unwrap_or(&grid.d_values[0]);
    let epoch = 256;
    let mut configs = Vec::new();
    for &offset in &[false, true] {
        let apps = phase_apps(grid, d, offset);
        configs.push((adaptive_cache(epoch), apps.clone()));
        for kind in ADAPTIVE_CANDIDATES {
            // Statics run with the same epoch clock (SharingAware decay
            // ticks equally) so only the meta-control differs.
            let cfg = CacheConfig {
                policy: EvictPolicy::of(kind),
                epoch_accesses: epoch,
                ..CacheConfig::paper()
            };
            configs.push((cfg, apps.clone()));
        }
    }
    let vals = parallel_map(configs, |(cache, apps)| {
        let mut spec = ClusterSpec::paper(Some(cache.clone()));
        spec.seed = grid.seed;
        let r = run_experiment(&spec, apps);
        assert!(r.completed && r.total_verify_failures() == 0);
        r.hit_ratio().unwrap_or(0.0)
    });
    let mut series = vec!["adaptive".to_string()];
    series.extend(ADAPTIVE_CANDIDATES.iter().map(|k| k.name().to_string()));
    let n = series.len();
    let mut fig = FigureData::new(
        "ablation_adaptive",
        format!("adaptive meta-policy vs static candidates on phase-shifting workloads (d={d})"),
        "scenario (0 = in-phase cycle, 1 = anti-phase mix)",
        "cache hit ratio",
        series,
    );
    for (i, _) in [false, true].iter().enumerate() {
        fig.push(i as f64, (0..n).map(|k| vals[n * i + k]).collect());
    }
    fig
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
    let d = *grid.d_values.iter().find(|&&d| d >= 64 << 10).unwrap_or(&grid.d_values[0]);
    let capacity = CacheConfig::paper().capacity_blocks;
    let quotas: PartitionConfig =
        PartitionConfig::strict([(0u32, capacity / 5), (1u32, capacity * 4 / 5)]);
    let mk_apps = || {
        let mut victim = app(grid, d, 1, Mode::Read, 0.2, 0.0, "victim");
        victim.hotspot = 1.1;
        victim.min_requests = 96;
        let mut scanner = app(grid, d, 1, Mode::Read, 0.0, 0.0, "scanner");
        scanner.min_requests = 160;
        vec![victim, scanner]
    };
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
    let configs = vec![(fixed, mk_apps()), (tuned, mk_apps())];
    let vals = parallel_map(configs, |(cache, apps)| {
        let mut spec = ClusterSpec::paper(Some(cache.clone()));
        spec.seed = grid.seed;
        let r = run_experiment(&spec, apps);
        assert!(r.completed && r.total_verify_failures() == 0);
        let usage = r.app_usage.as_deref().unwrap_or_default();
        let quota_share = |app: u32| {
            usage.iter().find(|u| u.app == app).map(|u| u.quota as f64).unwrap_or(0.0)
                / CacheConfig::paper().capacity_blocks as f64
        };
        vec![
            r.hit_ratio().unwrap_or(0.0),
            r.app_hit_ratio(0).unwrap_or(0.0),
            quota_share(0),
            quota_share(1),
        ]
    });
    let mut fig = FigureData::new(
        "ablation_adaptive_quota",
        format!("online quota tuning vs fixed misconfigured quotas (victim zipf 1.1 + scanner, d={d})"),
        "metric (0 = aggregate hit ratio, 1 = victim hit ratio, 2 = victim quota share, 3 = scanner quota share)",
        "value",
        vec!["fixed".into(), "tuned".into()],
    );
    for (metric, (f, t)) in vals[0].iter().zip(&vals[1]).enumerate() {
        fig.push(metric as f64, vec![*f, *t]);
    }
    fig
}

/// Both adaptive figures (the `--fig adaptive` bundle).
pub fn ablation_adaptive(grid: &Grid) -> Vec<FigureData> {
    vec![ablation_adaptive_switching(grid), ablation_adaptive_quota(grid)]
}

/// The full-grid policy-comparison study: every policy across **capacity ×
/// hotspot × sharing** (the DESIGN.md table). One figure per (capacity,
/// hotspot) pair, sharing on the x axis — `figures --fig policy-grid
/// --full` regenerates the published table.
pub fn ablation_policy_grid(grid: &Grid) -> Vec<FigureData> {
    let capacities = [150usize, 300, 600];
    let hotspots = [0.6, 0.9, 1.2];
    let sharings = [0.0, 0.5, 1.0];
    let d = *grid.d_values.iter().find(|&&d| d >= 64 << 10).unwrap_or(&grid.d_values[0]);
    let mut figs = Vec::new();
    for &cap in &capacities {
        for &h in &hotspots {
            let mut configs = Vec::new();
            for &s in &sharings {
                for kind in PolicyKind::ALL {
                    let mut a = app(grid, d, 4, Mode::Read, 0.2, s, "appA");
                    let mut b = app(grid, d, 4, Mode::Read, 0.2, s, "appB");
                    a.hotspot = h;
                    b.hotspot = h;
                    a.min_requests = 64;
                    b.min_requests = 64;
                    let cfg = CacheConfig {
                        capacity_blocks: cap,
                        low_watermark: cap / 10,
                        high_watermark: cap / 4,
                        policy: EvictPolicy::of(kind),
                        ..CacheConfig::paper()
                    };
                    configs.push((cfg, vec![a, b]));
                }
            }
            let vals = parallel_map(configs, |(cache, apps)| {
                let mut spec = ClusterSpec::paper(Some(cache.clone()));
                spec.seed = grid.seed;
                let r = run_experiment(&spec, apps);
                assert!(r.completed && r.total_verify_failures() == 0);
                r.hit_ratio().unwrap_or(0.0)
            });
            let mut fig = FigureData::new(
                format!("ablation_policy_grid_c{cap}_h{}", (h * 10.0) as u32),
                format!("policies vs sharing (capacity={cap} blocks, zipf {h}, d={d}, l=0.2)"),
                "sharing degree s (%)",
                "cache hit ratio",
                PolicyKind::ALL.iter().map(|k| k.name().to_string()).collect(),
            );
            let n = PolicyKind::ALL.len();
            for (i, &s) in sharings.iter().enumerate() {
                fig.push(s * 100.0, (0..n).map(|k| vals[n * i + k]).collect());
            }
            figs.push(fig);
        }
    }
    figs
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
