//! Cluster telemetry plane, end to end: federated per-node hubs must
//! agree with a single shared hub on every total, cooperative fetches
//! must export as cross-node Chrome-trace flows, and the telemetry
//! report must surface per-node breakdowns plus SLO percentiles.

use cluster_harness::{run_experiment, ClusterSpec, TelemetryReport};
use kcache::obs::{ClusterObs, Phase, DEFAULT_TRACE_CAPACITY};
use kcache::{CacheConfig, ObsHub};
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

/// A small cooperative cache config: tiny enough to churn (peer + disk
/// traffic on both tiers).
fn coop_cache() -> CacheConfig {
    CacheConfig {
        capacity_blocks: 64,
        low_watermark: 6,
        high_watermark: 16,
        cooperative: true,
        ..CacheConfig::paper()
    }
}

/// The paper's platform, seed 7, with cold disks behind an iod page cache
/// (16 pages) too small for any file: only a read bound for the platter
/// is ever forwarded to a peer.
fn cold_spec(cache: CacheConfig) -> ClusterSpec {
    let mut spec = ClusterSpec { seed: 7, preload_warm: false, ..ClusterSpec::paper(Some(cache)) };
    spec.pvfs.iod_page_cache_pages = 16;
    spec
}

/// Two instances striping the shared file in opposite node orders, so
/// partition `k` is cached on two different nodes and the peer tier
/// sees real traffic; Zipf-skewed, so both re-read the same hot blocks.
fn coop_apps() -> Vec<AppSpec> {
    vec![
        app("a", &[0, 1, 2, 3], 1 << 20, Mode::Read, 0.2, 1.0),
        app("b", &[3, 2, 1, 0], 1 << 20, Mode::Read, 0.2, 1.0),
    ]
}

#[test]
fn federated_per_node_totals_match_shared_hub_totals() {
    // The same deterministic workload, observed two ways: one hub shared
    // by every module vs one hub per node federated by ClusterObs. The
    // topology must not change what is counted — rollup counters and
    // histogram totals have to agree exactly. (Gauges legitimately
    // differ: concurrent modules clobber one shared gauge cell, which is
    // exactly the artifact federation removes.)
    let shared_spec =
        cold_spec(CacheConfig { obs: Some(ObsHub::new(DEFAULT_TRACE_CAPACITY)), ..coop_cache() });
    let shared_run = run_experiment(&shared_spec, &coop_apps());
    assert!(shared_run.completed);
    let shared = shared_run.obs.as_ref().expect("shared hub wraps into a ClusterObs");
    assert!(shared.is_shared());
    let shared_rollup = shared.rollup();

    let mut fed_spec = cold_spec(coop_cache());
    fed_spec.obs = Some(ClusterObs::per_node(fed_spec.n_nodes as usize, DEFAULT_TRACE_CAPACITY));
    let fed_run = run_experiment(&fed_spec, &coop_apps());
    assert!(fed_run.completed);
    let fed = fed_run.obs.as_ref().expect("federated spec carries its ClusterObs");
    assert!(!fed.is_shared());
    let fed_rollup = fed.rollup();

    assert_eq!(
        shared_rollup.counters, fed_rollup.counters,
        "per-node counter totals must match the shared hub"
    );
    assert_eq!(
        shared_rollup.histograms.keys().collect::<Vec<_>>(),
        fed_rollup.histograms.keys().collect::<Vec<_>>()
    );
    for (name, s) in &shared_rollup.histograms {
        let f = &fed_rollup.histograms[name];
        assert_eq!((s.count, s.sum), (f.count, f.sum), "histogram {name} diverged");
        assert_eq!(s.buckets, f.buckets, "histogram {name} bucket shape diverged");
    }
    // Same workload, same SLO sketches.
    let s_slo = shared_run.slo.as_ref().expect("telemetry run reports SLO lines");
    let f_slo = fed_run.slo.as_ref().unwrap();
    assert_eq!(s_slo.len(), f_slo.len());
    for (a, b) in s_slo.iter().zip(f_slo) {
        assert_eq!(
            (a.class.as_str(), a.samples, a.p99_ns),
            (b.class.as_str(), b.samples, b.p99_ns)
        );
    }
}

#[test]
fn cooperative_run_exports_cross_node_flows_that_pair_start_to_finish() {
    let mut spec = cold_spec(coop_cache());
    spec.obs = Some(ClusterObs::per_node(spec.n_nodes as usize, DEFAULT_TRACE_CAPACITY));
    let r = run_experiment(&spec, &coop_apps());
    assert!(r.completed);
    assert!(r.module.as_ref().unwrap().remote_hit_blocks > 0, "peer tier never engaged");

    let cluster = r.obs.as_ref().unwrap();
    assert_eq!(cluster.trace_dropped(), 0, "rings must keep up for pairing to be checkable");
    let events = cluster.drain_trace();
    assert!(!events.is_empty());

    let mut starts: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
    let mut steps: std::collections::BTreeMap<u64, Vec<u32>> = std::collections::BTreeMap::new();
    let mut ends: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for e in &events {
        match e.phase {
            Phase::FlowStart => {
                starts.insert(e.flow_id, e.pid);
            }
            Phase::FlowStep => steps.entry(e.flow_id).or_default().push(e.pid),
            Phase::FlowEnd => {
                ends.insert(e.flow_id);
            }
            _ => {}
        }
    }
    assert!(!starts.is_empty(), "cooperative fetches must open flows");
    // A forward ends at the requester's install or at the sharer's
    // bounce, so each flow start has a matching finish.
    for id in starts.keys() {
        assert!(ends.contains(id), "flow {id:#x} started but never finished");
    }
    // At least one flow must stitch across machines: the iod's forward
    // (its node's pid) and the peer-serve step on a different node's pid.
    let cross =
        starts.iter().any(|(id, pid)| steps.get(id).is_some_and(|s| s.iter().any(|p| p != pid)));
    assert!(cross, "no flow crossed nodes: starts={}, stepped={}", starts.len(), steps.len());

    // The requester records each peer install as a `peer_fetch` span on
    // its own node's fetch lane: the node where a flow ends at the install
    // (lane 1; a bounce ends it at the sharer, lane 2).
    let requesters: std::collections::BTreeSet<u32> =
        events.iter().filter(|e| e.phase == Phase::FlowEnd && e.tid == 1).map(|e| e.pid).collect();
    let peer_fetch: Vec<_> = events.iter().filter(|e| e.name == "peer_fetch").collect();
    assert!(!peer_fetch.is_empty(), "no peer_fetch span in the trace");
    for e in &peer_fetch {
        assert_eq!((e.phase, e.tid), (Phase::Span, 1), "peer_fetch is a span on the fetch lane");
        assert!(requesters.contains(&e.pid), "peer_fetch on node {}, which installed none", e.pid);
    }

    // The Chrome export carries the flow phases with ids, and the spans.
    let json = kcache::obs::chrome_trace_json(&events);
    assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
    assert!(json.contains("\"cat\":\"flow\""));
    assert!(json.contains("\"name\":\"peer_fetch\""));
}

#[test]
fn telemetry_report_breaks_out_nodes_and_slo_percentiles() {
    let mut spec = cold_spec(coop_cache());
    spec.obs = Some(ClusterObs::per_node(spec.n_nodes as usize, DEFAULT_TRACE_CAPACITY));
    let r = run_experiment(&spec, &coop_apps());
    assert!(r.completed);

    let report = TelemetryReport::from_run(&r).expect("telemetry run yields a report");
    assert_eq!(report.nodes.len(), spec.n_nodes as usize);
    // Rollup counters are the sum of the per-node breakdown.
    for (name, total) in &report.counters {
        let sum: u64 = report.nodes.iter().filter_map(|n| n.counters.get(name)).sum();
        assert_eq!(*total, sum, "rollup counter {name} != sum over nodes");
    }
    // Fetch-latency percentiles per traffic tier, ordered and targeted.
    assert!(!report.slo.is_empty(), "caching traffic must produce SLO lines");
    for line in &report.slo {
        assert!(line.samples > 0, "class {} reported without samples", line.class);
        assert!(line.p50_ns <= line.p95_ns && line.p95_ns <= line.p99_ns);
        assert!(line.target_p99_ns > 0);
        assert!((0.0..=1.0).contains(&line.burn_ratio));
    }
    assert!(
        report.slo.iter().any(|l| l.class == "peer"),
        "cooperative traffic must surface the peer tier"
    );
    // Histogram digests expose ordered percentiles too.
    let (name, h) = report
        .histograms
        .iter()
        .find(|(_, h)| h.count > 0)
        .expect("at least one populated histogram");
    assert!(h.p50 <= h.p95 && h.p95 <= h.p99, "{name} percentiles out of order");
}
