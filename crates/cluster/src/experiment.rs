//! Experiment execution and result extraction.

use crate::builder::{build, Cluster, ClusterSpec};
use kcache::obs::{ClusterObs, QuantileSnapshot};
use kcache::{AdaptiveStats, CacheModule, CacheStats, ModuleStats, PolicyStats};
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
/// to the application.
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
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl AppCacheUsage {
    /// Hits over attributed accesses (`None` before any traffic).
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// Fetch-latency SLO summary, merged over every cache module's quantile
/// sketch (telemetry-enabled runs only).
#[derive(Debug, Clone, Serialize)]
pub struct SloClassSummary {
    /// Traffic tier: always `"default"` (iod fetches).
    pub class: String,
    /// Block fetches recorded into the sketch.
    pub samples: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// Configured p99 target, nanoseconds.
    pub target_p99_ns: u64,
    /// Fetches that exceeded the target (the SLO burn counter).
    pub burned: u64,
}

impl SloClassSummary {
    /// Fraction of fetches that burned the SLO (0 before any traffic).
    pub fn burn_ratio(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.burned as f64 / self.samples as f64
        }
    }
}

/// Everything measured in one run.
/// One buffer-manager shard's share of the cluster's cache state,
/// summed over every module (shards are per node; index `i` here is the
/// union of every node's shard `i`). A skewed `occupancy` spread is hash
/// imbalance; a skewed `evictions` spread is pressure imbalance.
#[derive(Debug, Clone, Serialize)]
pub struct ShardUsage {
    pub shard: usize,
    /// Frames resident at the end of the run.
    pub occupancy: u64,
    /// Lifetime evictions (clean + dirty).
    pub evictions: u64,
}

#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub instances: Vec<InstanceResult>,
    pub cache: Option<CacheStats>,
    /// Name of the replacement policy in effect (caching runs only).
    pub policy: Option<String>,
    /// Frame-quota mode in effect (caching runs only).
    pub partitioning: Option<String>,
    /// The policy subsystem's own event ledger, summed over all modules.
    pub policy_stats: Option<PolicyStats>,
    /// The adaptive meta-policy's ledger (epoch/switch/ghost/quota-move
    /// counters merged over all modules; adaptive caching runs only).
    pub adaptive: Option<AdaptiveStats>,
    /// Per-application occupancy and attributed traffic, summed over all
    /// modules (caching runs only; ascending by app id).
    pub app_usage: Option<Vec<AppCacheUsage>>,
    /// Per-shard occupancy/eviction breakdown, summed over all modules
    /// (caching runs only; a single entry when `shards = 1`).
    pub shard_usage: Option<Vec<ShardUsage>>,
    pub module: Option<ModuleStats>,
    pub iod: IodStats,
    pub fabric: FabricStats,
    pub medium_utilization: f64,
    pub events: u64,
    pub sim_end: SimTime,
    pub completed: bool,
    /// The cluster's federated telemetry plane (telemetry-enabled runs
    /// only): per-node hubs with their registries, epoch deltas, and
    /// trace rings, plus the cluster rollup — ready for the caller to
    /// export. A bare shared hub in `cache.obs` (the quickstart shape)
    /// is wrapped as a single-entry `ClusterObs`. Shared with the spec —
    /// reusing one spec across runs accumulates into the same hubs.
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
    /// runs with traffic from that app only).
    pub fn app_hit_ratio(&self, app: u32) -> Option<f64> {
        self.app_usage.as_ref()?.iter().find(|u| u.app == app)?.hit_ratio()
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
    let completed = report.stop == StopReason::Stopped;
    debug_assert!(completed, "experiment did not complete before horizon: {:?}", report.stop);

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
    let mut app_total: BTreeMap<u32, AppCacheUsage> = BTreeMap::new();
    let mut shard_total: Option<Vec<ShardUsage>> = None;
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
        let cs = module.cache().stats();
        let ps = module.cache().policy_stats();
        let ms = module.stats().clone();
        policy_total.get_or_insert_with(PolicyStats::default).merge(&ps);
        if let Some(ast) = module.cache().adaptive_stats() {
            adaptive_total.get_or_insert_with(AdaptiveStats::default).merge(&ast);
        }
        for (id, u) in module.cache().app_usage() {
            // Effective (possibly tuner-adjusted) quota, not the static
            // config value — what residency is actually measured against.
            let quota = module.cache().quota_of(id).map(|q| q as u64).unwrap_or(0);
            let acc = app_total.entry(id.0).or_insert_with(|| AppCacheUsage {
                app: id.0,
                quota: 0,
                resident: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            });
            acc.quota += quota;
            acc.resident += u.resident;
            acc.hits += u.hits;
            acc.misses += u.misses;
            acc.evictions += u.evictions;
        }
        let acc = cache_total.get_or_insert_with(CacheStats::default);
        acc.hits += cs.hits;
        acc.misses += cs.misses;
        acc.insertions += cs.insertions;
        acc.writes_absorbed += cs.writes_absorbed;
        acc.writes_passthrough += cs.writes_passthrough;
        acc.evictions_clean += cs.evictions_clean;
        acc.evictions_dirty += cs.evictions_dirty;
        acc.flush_blocks += cs.flush_blocks;
        acc.invalidated += cs.invalidated;
        acc.invalidated_dirty += cs.invalidated_dirty;
        let macc = module_total.get_or_insert_with(ModuleStats::default);
        macc.reads_intercepted += ms.reads_intercepted;
        macc.writes_intercepted += ms.writes_intercepted;
        macc.full_hits += ms.full_hits;
        macc.partial_hits += ms.partial_hits;
        macc.full_misses += ms.full_misses;
        macc.request_splits += ms.request_splits;
        macc.fake_read_acks += ms.fake_read_acks;
        macc.fake_write_acks += ms.fake_write_acks;
        macc.blocks_served += ms.blocks_served;
        macc.blocks_fetched += ms.blocks_fetched;
        macc.dedup_blocks += ms.dedup_blocks;
        macc.bytes_served += ms.bytes_served;
        macc.bytes_fetched += ms.bytes_fetched;
        macc.bytes_absorbed += ms.bytes_absorbed;
        macc.bytes_passthrough += ms.bytes_passthrough;
        macc.sync_writes += ms.sync_writes;
        macc.invalidate_msgs += ms.invalidate_msgs;
        macc.flush_msgs += ms.flush_msgs;
        macc.urgent_flush_blocks += ms.urgent_flush_blocks;
        macc.harvest_runs += ms.harvest_runs;
        macc.disk_fetch_blocks += ms.disk_fetch_blocks;
        macc.disk_fetch_ns += ms.disk_fetch_ns;
        let occ = module.cache().shard_occupancy();
        let ev = module.cache().shard_evictions();
        let shards = shard_total.get_or_insert_with(|| {
            (0..occ.len()).map(|i| ShardUsage { shard: i, occupancy: 0, evictions: 0 }).collect()
        });
        for (acc, (o, e)) in shards.iter_mut().zip(occ.iter().zip(&ev)) {
            acc.occupancy += *o as u64;
            acc.evictions += *e;
        }
    }

    let mut iod_total = IodStats::default();
    for &i in &cluster.iods {
        let iod = cluster.engine.actor_as::<Iod>(i).expect("iod downcast");
        let s = iod.stats();
        iod_total.read_reqs += s.read_reqs;
        iod_total.write_reqs += s.write_reqs;
        iod_total.flush_reqs += s.flush_reqs;
        iod_total.sync_writes += s.sync_writes;
        iod_total.bytes_read += s.bytes_read;
        iod_total.bytes_written += s.bytes_written;
        iod_total.disk_reads += s.disk_reads;
        iod_total.disk_writes += s.disk_writes;
        iod_total.invalidations_sent += s.invalidations_sent;
        iod_total.directory_entries += s.directory_entries;
    }

    let fabric = cluster.engine.actor_as::<Fabric>(cluster.fabric).expect("fabric downcast");
    let fabric_stats: FabricStats = fabric.stats().clone();
    let medium_utilization = fabric.medium_utilization(cluster.engine.now());

    // The run's telemetry plane: the spec's federated per-node hubs, or
    // a bare shared hub from `cache.obs` wrapped as a one-entry cluster
    // (the quickstart shape keeps working).
    let obs = spec
        .obs
        .clone()
        .or_else(|| spec.cache.as_ref().and_then(|c| c.obs.clone()).map(ClusterObs::shared));
    let slo = slo_acc.map(|(snap, target, burned)| {
        vec![SloClassSummary {
            class: "default".into(),
            samples: snap.count(),
            p50_ns: snap.quantile(0.50),
            p95_ns: snap.quantile(0.95),
            p99_ns: snap.quantile(0.99),
            target_p99_ns: target,
            burned,
        }]
    });

    ExperimentResult {
        instances,
        cache: cache_total,
        policy: spec.cache.as_ref().map(|c| c.policy_label().to_string()),
        partitioning: spec.cache.as_ref().map(|c| c.partitioning.mode.name().to_string()),
        policy_stats: policy_total,
        adaptive: adaptive_total,
        app_usage: spec
            .cache
            .is_some()
            .then(|| app_total.into_values().collect::<Vec<AppCacheUsage>>()),
        shard_usage: shard_total,
        module: module_total,
        iod: iod_total,
        fabric: fabric_stats,
        medium_utilization,
        events: report.events,
        sim_end: report.end_time,
        completed,
        obs,
        slo,
    }
}
