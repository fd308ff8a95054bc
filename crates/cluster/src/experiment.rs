//! Experiment execution and result extraction.

use crate::builder::{build, Cluster, ClusterSpec};
use kcache::obs::{ClusterObs, QuantileSnapshot};
use kcache::{AdaptiveStats, AppUsage, CacheModule, CacheStats, ModuleStats, PolicyStats};
use pvfs::{Iod, IodStats};
use serde::Serialize;
use sim_core::{ActorProfile, Dur, SimTime, StopReason};
use sim_net::{Fabric, FabricStats};
use std::collections::BTreeMap;
use workload::{AppSpec, Coordinator};

/// Aggregated outcome of one instance of the micro-benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct InstanceResult {
    pub name: String,
    /// First process start to last process finish, seconds.
    pub makespan_s: f64,
    /// Mean per-process request latency, seconds.
    pub read_latency_s: f64,
    pub write_latency_s: f64,
    pub requests: u64,
    pub bytes: u64,
    pub verify_failures: u64,
}

/// Per-application cache usage aggregated over all cache modules: frames
/// owned, aggregate quota, and the hit/miss/eviction traffic attributed
/// to the application. Experiment JSON writes it as is (the `apps` array
/// of the cache summary).
#[derive(Debug, Clone, Serialize)]
pub struct AppCacheUsage {
    /// Application instance (index into the experiment's app list).
    pub app: u32,
    /// Aggregate frame quota: the per-module quota summed over every
    /// module whose ledger the app appears in (quotas are enforced per
    /// module, so this is the cap `resident` is measured against).
    /// 0 when unconstrained.
    pub quota: u64,
    pub resident: u64,
    /// Hits over attributed accesses (0 with none).
    pub hit_ratio: f64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// Fetch-latency SLO summary, merged over every cache module's quantile
/// sketch (telemetry-enabled runs only). Experiment JSON writes it as is
/// (the telemetry summary's `slo` array).
#[derive(Debug, Clone, Serialize)]
pub struct SloClassSummary {
    /// Traffic tier: always `"default"` (iod fetches).
    pub class: String,
    /// Block fetches recorded into the sketch.
    pub samples: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// The p99 target, nanoseconds.
    pub target_p99_ns: u64,
    /// Fetches that exceeded the target (the SLO burn counter).
    pub burned: u64,
    /// Fraction of fetches that burned the SLO (0 before any traffic).
    pub burn_ratio: f64,
}

/// `part / whole`, 0 when `whole` is 0.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub instances: Vec<InstanceResult>,
    pub cache: Option<CacheStats>,
    /// Name of the replacement policy in effect (caching runs only).
    pub policy: Option<String>,
    /// Frame-quota mode in effect (caching runs only).
    pub partitioning: Option<String>,
    /// The cache's event ledger, summed over all modules.
    pub policy_stats: Option<PolicyStats>,
    /// The adaptive meta-policy's ledger (epoch/switch/ghost/quota-move
    /// counters merged over all modules; adaptive caching runs only).
    pub adaptive: Option<AdaptiveStats>,
    /// Per-application occupancy and attributed traffic, summed over all
    /// modules (caching runs only; ascending by app id).
    pub app_usage: Option<Vec<AppCacheUsage>>,
    pub module: Option<ModuleStats>,
    pub iod: IodStats,
    pub fabric: FabricStats,
    pub medium_utilization: f64,
    pub events: u64,
    pub sim_end: SimTime,
    pub completed: bool,
    /// The cluster's telemetry plane (telemetry-enabled runs only):
    /// per-node hubs with their registries and trace rings, plus the
    /// cluster rollup — ready for the caller to export. Shared with the
    /// spec — reusing one spec across runs accumulates into the same
    /// hubs.
    pub obs: Option<std::sync::Arc<ClusterObs>>,
    /// Fetch-latency percentiles and SLO burn, merged over all cache
    /// modules (telemetry-enabled caching runs only).
    pub slo: Option<Vec<SloClassSummary>>,
}

impl ExperimentResult {
    /// Mean makespan across instances, seconds.
    pub fn mean_makespan_s(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        self.instances.iter().map(|i| i.makespan_s).sum::<f64>() / self.instances.len() as f64
    }

    /// Mean per-request read latency across instances, seconds.
    pub fn mean_read_latency_s(&self) -> f64 {
        let xs: Vec<f64> =
            self.instances.iter().map(|i| i.read_latency_s).filter(|x| *x > 0.0).collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// Mean per-request write latency across instances, seconds.
    pub fn mean_write_latency_s(&self) -> f64 {
        let xs: Vec<f64> =
            self.instances.iter().map(|i| i.write_latency_s).filter(|x| *x > 0.0).collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// Overall cache hit ratio (caching runs only).
    pub fn hit_ratio(&self) -> Option<f64> {
        let c = self.cache.as_ref()?;
        let total = c.hits + c.misses;
        if total == 0 {
            None
        } else {
            Some(c.hits as f64 / total as f64)
        }
    }

    pub fn total_verify_failures(&self) -> u64 {
        self.instances.iter().map(|i| i.verify_failures).sum()
    }

    /// Cache hit ratio attributed to one application instance (caching
    /// runs in which some module counted that app only).
    pub fn app_hit_ratio(&self, app: u32) -> Option<f64> {
        Some(self.app_usage.as_ref()?.iter().find(|u| u.app == app)?.hit_ratio)
    }
}

/// Default wall-clock guard for a single run.
pub fn default_horizon() -> Dur {
    Dur::secs(3600)
}

/// Build and run one experiment to completion.
pub fn run_experiment(spec: &ClusterSpec, apps: &[AppSpec]) -> ExperimentResult {
    run_built(&mut build(spec, apps), spec, apps)
}

/// [`run_experiment`] with the engine's self-profile on: also returns
/// where the simulator's own host time went, per actor type. The
/// simulated result is the one `run_experiment` returns.
pub fn run_experiment_profiled(
    spec: &ClusterSpec,
    apps: &[AppSpec],
) -> (ExperimentResult, Vec<ActorProfile>) {
    let mut cluster = build(spec, apps);
    cluster.engine.enable_profile();
    let result = run_built(&mut cluster, spec, apps);
    (result, cluster.engine.profile())
}

fn run_built(cluster: &mut Cluster, spec: &ClusterSpec, apps: &[AppSpec]) -> ExperimentResult {
    let horizon = SimTime::ZERO + default_horizon();
    let report = cluster.engine.run_until(horizon);
    // A run still going at the horizon is reported, not a panic: its
    // result says `completed: false`, and the callers decide.
    let completed = report.stop == StopReason::Stopped;

    let coord =
        cluster.engine.actor_as::<Coordinator>(cluster.coordinator).expect("coordinator downcast");
    let mut instances = Vec::new();
    for (i, a) in apps.iter().enumerate() {
        let procs: Vec<_> = coord.results().iter().filter(|r| r.instance == i as u32).collect();
        let makespan =
            coord.instance_makespan(i as u32).map(|(s, e)| e.since(s).as_secs_f64()).unwrap_or(0.0);
        let mut read = sim_core::Tally::new();
        let mut write = sim_core::Tally::new();
        let mut requests = 0;
        let mut bytes = 0;
        let mut verify_failures = 0;
        for p in &procs {
            read.merge(&p.read_latency);
            write.merge(&p.write_latency);
            requests += p.requests;
            bytes += p.bytes;
            verify_failures += p.verify_failures;
        }
        instances.push(InstanceResult {
            name: a.name.clone(),
            makespan_s: makespan,
            read_latency_s: read.mean() / 1e9,
            write_latency_s: write.mean() / 1e9,
            requests,
            bytes,
            verify_failures,
        });
    }

    // Aggregate subsystem statistics.
    let mut cache_total: Option<CacheStats> = None;
    let mut module_total: Option<ModuleStats> = None;
    let mut policy_total: Option<PolicyStats> = None;
    let mut adaptive_total: Option<AdaptiveStats> = None;
    // Per app: (aggregate quota, usage summed over the modules).
    let mut app_total: BTreeMap<u32, (u64, AppUsage)> = BTreeMap::new();
    // Fetch-latency sketches merged across modules: (merged snapshot,
    // target, burned).
    let mut slo_acc: Option<(QuantileSnapshot, u64, u64)> = None;
    for m in cluster.modules.iter().flatten() {
        let module = cluster.engine.actor_as::<CacheModule>(*m).expect("module downcast");
        // Bring the hub's deferred hit/miss mirrors up to date before any
        // export reads them (no-op without telemetry).
        module.cache().obs_flush();
        for (_, snap, target, burned) in module.fetch_latency_sketches().into_iter().flatten() {
            match &mut slo_acc {
                Some((acc, _, b)) => {
                    acc.merge(&snap);
                    *b += burned;
                }
                None => slo_acc = Some((snap, target, burned)),
            }
        }
        cache_total.get_or_insert_with(CacheStats::default).merge(&module.cache().stats());
        module_total.get_or_insert_with(ModuleStats::default).merge(module.stats());
        policy_total.get_or_insert_with(PolicyStats::default).merge(&module.cache().policy_stats());
        if let Some(ast) = module.cache().adaptive_stats() {
            adaptive_total.get_or_insert_with(AdaptiveStats::default).merge(&ast);
        }
        for (id, u) in module.cache().app_usage() {
            // Effective (possibly tuner-adjusted) quota, not the static
            // config value — what residency is actually measured against.
            let quota = module.cache().quota_of(id).map(|q| q as u64).unwrap_or(0);
            let (acc_quota, acc) = app_total.entry(id.0).or_default();
            *acc_quota += quota;
            acc.resident += u.resident;
            acc.hits += u.hits;
            acc.misses += u.misses;
            acc.evictions += u.evictions;
        }
    }

    let mut iod_total = IodStats::default();
    for &i in &cluster.iods {
        let iod = cluster.engine.actor_as::<Iod>(i).expect("iod downcast");
        iod_total.merge(iod.stats());
    }

    let fabric = cluster.engine.actor_as::<Fabric>(cluster.fabric).expect("fabric downcast");
    let fabric_stats: FabricStats = fabric.stats().clone();
    let medium_utilization = fabric.medium_utilization(cluster.engine.now());

    let slo = slo_acc.map(|(snap, target, burned)| {
        vec![SloClassSummary {
            class: "default".into(),
            samples: snap.count(),
            p50_ns: snap.quantile(0.50),
            p95_ns: snap.quantile(0.95),
            p99_ns: snap.quantile(0.99),
            target_p99_ns: target,
            burned,
            burn_ratio: ratio(burned, snap.count()),
        }]
    });

    ExperimentResult {
        instances,
        cache: cache_total,
        policy: spec.cache.as_ref().map(|c| c.policy_label().to_string()),
        partitioning: spec.cache.as_ref().map(|c| c.partitioning.mode.name().to_string()),
        policy_stats: policy_total,
        adaptive: adaptive_total,
        app_usage: spec.cache.is_some().then(|| {
            let usage = app_total.into_iter().map(|(app, (quota, u))| AppCacheUsage {
                app,
                quota,
                resident: u.resident,
                hit_ratio: ratio(u.hits, u.hits + u.misses),
                hits: u.hits,
                misses: u.misses,
                evictions: u.evictions,
            });
            usage.collect()
        }),
        module: module_total,
        iod: iod_total,
        fabric: fabric_stats,
        medium_utilization,
        events: report.events,
        sim_end: report.end_time,
        completed,
        obs: spec.obs.clone(),
        slo,
    }
}
