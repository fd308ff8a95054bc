//! Cluster telemetry plane, end to end: the per-node hubs' rollup must
//! agree with the run's own ledgers on every total, and the telemetry
//! report must surface per-node breakdowns plus SLO percentiles.

use cluster_harness::{build, run_experiment, ClusterSpec, TelemetryReport};
use kcache::obs::ClusterObs;
use kcache::CacheConfig;
use sim_core::Dur;
use sim_net::NodeId;
use workload::{AppSpec, Mode};

fn app(name: &str, nodes: &[u16], total: u64, mode: Mode, l: f64, s: f64) -> AppSpec {
    AppSpec {
        name: name.into(),
        nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
        total_bytes: total,
        request_size: 64 << 10,
        mode,
        locality: l,
        sharing: s,
        hotspot: 0.9,
        shared_file: "shared".into(),
        file_size: 8 << 20,
        start_delay: Dur::ZERO,
        min_requests: 1,
        phases: Vec::new(),
    }
}

/// A small cache config: tiny enough to churn.
fn small_cache() -> CacheConfig {
    CacheConfig {
        capacity_blocks: 64,
        low_watermark: 6,
        high_watermark: 16,
        ..CacheConfig::paper()
    }
}

/// The paper's platform, seed 7, with cold disks behind an iod page cache
/// (16 pages) too small for any file, so fetches pay the platter.
fn cold_spec(cache: CacheConfig) -> ClusterSpec {
    let mut spec = ClusterSpec { seed: 7, preload_warm: false, ..ClusterSpec::paper(Some(cache)) };
    spec.pvfs.iod_page_cache_pages = 16;
    spec
}

/// Two instances striping the shared file in opposite node orders, so
/// partition `k` is cached on two different nodes; Zipf-skewed, so both
/// re-read the same hot blocks.
fn shared_apps() -> Vec<AppSpec> {
    vec![
        app("a", &[0, 1, 2, 3], 1 << 20, Mode::Read, 0.2, 1.0),
        app("b", &[3, 2, 1, 0], 1 << 20, Mode::Read, 0.2, 1.0),
    ]
}

/// `cold_spec` with one hub per node.
fn observed_spec() -> ClusterSpec {
    let mut spec = cold_spec(small_cache());
    spec.obs = Some(ClusterObs::per_node(spec.n_nodes as usize));
    spec
}

#[test]
fn telemetry_rollup_matches_the_run_ledgers() {
    // The hit/miss/eviction counters are mirrors of the buffer managers'
    // ledgers and the SLO sketch records every disk fetch: the rollup
    // over the per-node hubs has to reproduce the run's own `CacheStats`
    // and `ModuleStats` exactly, not merely approximately.
    let r = run_experiment(&observed_spec(), &shared_apps());
    assert!(r.completed);
    let rollup = r.obs.as_ref().expect("the spec carries its ClusterObs").rollup();
    let sum = |prefix: &str| -> u64 {
        rollup.counters.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, v)| v).sum()
    };
    let cache = r.cache.as_ref().expect("caching run");
    assert!(cache.hits > 0 && cache.misses > 0, "the run must both hit and miss: {cache:?}");
    assert_eq!(sum("cache.hits."), cache.hits);
    assert_eq!(sum("cache.misses."), cache.misses);
    assert_eq!(rollup.counters["cache.evictions_clean"], cache.evictions_clean);
    assert_eq!(rollup.counters["cache.evictions_dirty"], cache.evictions_dirty);

    let fetched = r.module.as_ref().expect("caching run").disk_fetch_blocks;
    let [line] = r.slo.as_deref().expect("telemetry run reports an SLO line") else {
        panic!("one SLO line expected: {:?}", r.slo);
    };
    assert!(fetched > 0, "cold disks: fetches must happen");
    assert_eq!(line.samples, fetched, "the sketch must record every disk fetch");
}

#[test]
#[should_panic(expected = "the telemetry plane has 3 hubs for 6 nodes")]
fn build_rejects_fewer_hubs_than_nodes() {
    let mut spec = cold_spec(small_cache());
    assert_eq!(spec.n_nodes, 6);
    spec.obs = Some(ClusterObs::per_node(3));
    build(&spec, &shared_apps());
}

#[test]
fn telemetry_report_breaks_out_nodes_and_slo_percentiles() {
    let spec = observed_spec();
    let r = run_experiment(&spec, &shared_apps());
    assert!(r.completed);

    let report = TelemetryReport::from_run(&r).expect("telemetry run yields a report");
    assert_eq!(report.nodes.len(), spec.n_nodes as usize);
    // Rollup counters are the sum of the per-node breakdown.
    for (name, total) in &report.counters {
        let sum: u64 = report.nodes.iter().filter_map(|n| n.counters.get(name)).sum();
        assert_eq!(*total, sum, "rollup counter {name} != sum over nodes");
    }
    // One fetch-latency line, its percentiles ordered and targeted.
    let [line] = report.slo.as_slice() else {
        panic!("caching traffic must produce one SLO line: {:?}", report.slo);
    };
    assert_eq!(line.class, "default");
    assert!(line.samples > 0, "SLO line reported without samples");
    assert!(line.p50_ns <= line.p95_ns && line.p95_ns <= line.p99_ns);
    assert!(line.target_p99_ns > 0);
    assert!((0.0..=1.0).contains(&line.burn_ratio));
    // Histogram digests expose ordered percentiles too.
    let (name, h) = report
        .histograms
        .iter()
        .find(|(_, h)| h.count > 0)
        .expect("at least one populated histogram");
    assert!(h.p50 <= h.p95 && h.p95 <= h.p99, "{name} percentiles out of order");
}
