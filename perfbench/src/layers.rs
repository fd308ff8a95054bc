//! From counters and timings to the per-layer metric list, in the order
//! and with exactly the names of `report::per_layer()`.

use crate::adapter::manager::{paper_cache_costs, CacheStats, ManagerCounters, BLOCK_SIZE};
use crate::adapter::sim::SimCounters;
use crate::micro::Micro;
use crate::report::{per_layer, POLICIES};
use std::collections::BTreeMap;

pub type Values = BTreeMap<String, f64>;

/// `a / b`, or 0 when there is nothing to divide by (a layer that did no
/// work on this workload).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn put(v: &mut Values, name: &str, x: f64) {
    let fresh = v.insert(name.to_string(), x).is_none();
    assert!(fresh, "metric {name} computed twice");
}

/// Host-clock timings of the traced reps of a simulated workload.
pub struct SimTiming {
    pub build_s: f64,
    pub run_until_s: f64,
    pub extract_s: f64,
    /// Untraced ÷ traced `host_ops_per_s`.
    pub overhead_ratio: f64,
    pub trace_events: u64,
    pub trace_dropped: u64,
}

/// Multi-thread figures of the traced `manager_mt` run.
pub struct MtTiming {
    pub t1_ops_per_s: f64,
    pub t2_ops_per_s: f64,
    pub t2_shards2_ops_per_s: f64,
    pub t2_shards4_ops_per_s: f64,
    pub batch_p50_us: f64,
    pub batch_p99_us: f64,
    pub overhead_ratio: f64,
    /// Worst ring-overflow count of any 2-thread rep.
    pub ring_overflows: u64,
    pub ops_per_rep: u64,
}

/// The H metrics every traced run measures, whatever the workload.
fn micro_values(v: &mut Values, m: &Micro) {
    let costs = paper_cache_costs();
    put(v, "sim-core.engine_ns_per_event", m.engine_ns_per_event);
    put(v, "sim-net.fabric_ns_per_frame", m.fabric_ns_per_frame);
    put(v, "sim-disk.disk_ns_per_request", m.disk_ns_per_request);
    put(v, "pvfs.split_ranges_ns", m.split_ranges_ns);
    put(v, "kcache.manager.hit_ns", m.hit_ns);
    put(v, "kcache.manager.probe_ns", m.probe_ns);
    put(v, "kcache.manager.miss_insert_ns", m.miss_insert_ns);
    put(v, "kcache.manager.write_absorb_ns", m.write_absorb_ns);
    put(v, "kcache.manager.flush_cycle_ns", m.flush_cycle_ns);
    put(v, "kcache.cost_ratio.lookup", ratio(costs.lookup, m.probe_ns));
    put(v, "kcache.cost_ratio.copy", ratio(costs.copy, m.hit_ns));
    put(v, "kcache.cost_ratio.insert", ratio(costs.insert, m.miss_insert_ns));
    for (i, p) in POLICIES.iter().enumerate() {
        put(v, &format!("kcache-policy.hit_ns.{p}"), m.policy_hit_ns[i]);
        put(v, &format!("kcache-policy.insert_evict_ns.{p}"), m.policy_insert_evict_ns[i]);
    }
    put(v, "kcache-adaptive.hit_ns", m.adaptive_hit_ns);
    put(v, "kcache-adaptive.insert_evict_ns", m.adaptive_insert_evict_ns);
    put(v, "kcache-adaptive.hit_cost_vs_clock", ratio(m.adaptive_hit_ns, m.policy_hit_ns[0]));
    put(v, "kcache-obs.counter_add_ns", m.counter_add_ns);
    put(v, "kcache-obs.histogram_record_ns", m.histogram_record_ns);
    put(v, "kcache-obs.trace_push_ns", m.trace_push_ns);
}

/// The manager's own counters, shared by both kinds of workload.
fn manager_values(
    v: &mut Values,
    s: &CacheStats,
    policy_scans: u64,
    ring_overflows: u64,
    remote_hit_blocks: u64,
) {
    let lookups = (s.hits + s.misses) as f64;
    put(v, "kcache.manager.hit_ratio", ratio(s.hits as f64, lookups));
    put(
        v,
        "kcache.manager.aggregate_hit_ratio",
        ratio((s.hits + remote_hit_blocks) as f64, lookups),
    );
    put(v, "kcache.manager.evictions_clean", s.evictions_clean as f64);
    put(v, "kcache.manager.evictions_dirty", s.evictions_dirty as f64);
    put(v, "kcache.manager.flush_blocks", s.flush_blocks as f64);
    put(v, "kcache.manager.writes_passthrough", s.writes_passthrough as f64);
    put(v, "kcache.manager.ring_overflows", ring_overflows as f64);
    put(v, "kcache-policy.scans", policy_scans as f64);
    let evictions = (s.evictions_clean + s.evictions_dirty) as f64;
    put(v, "kcache-policy.scans_per_eviction", ratio(policy_scans as f64, evictions));
}

/// Every per-layer metric of a simulated workload.
pub fn sim_values(c: &SimCounters, t: &SimTiming, m: &Micro) -> Values {
    let mut v = Values::new();
    micro_values(&mut v, m);
    manager_values(&mut v, &c.cache, c.policy.scans, c.ring_overflows, c.module.remote_hit_blocks);
    let run_until_ns = t.run_until_s * 1e9;
    let app_bytes = c.bytes as f64;
    let ms = |ns: f64| ns / 1e6;

    put(&mut v, "cluster-harness.build_s", t.build_s);
    put(&mut v, "cluster-harness.extract_s", t.extract_s);

    put(&mut v, "sim-core.events", c.events as f64);
    put(&mut v, "sim-core.events_per_request", ratio(c.events as f64, c.seen.requests_done as f64));
    put(&mut v, "sim-core.run_until_s", t.run_until_s);
    put(&mut v, "sim-core.host_ns_per_event", ratio(run_until_ns, c.events as f64));
    put(
        &mut v,
        "sim-core.engine_share_est",
        ratio(c.events as f64 * m.engine_ns_per_event, run_until_ns),
    );

    let f = &c.fabric;
    put(&mut v, "sim-net.messages", f.messages as f64);
    put(&mut v, "sim-net.frames", f.frames as f64);
    put(&mut v, "sim-net.wire_bytes_per_app_byte", ratio(f.wire_bytes as f64, app_bytes));
    put(&mut v, "sim-net.medium_utilization", c.medium_utilization);
    put(
        &mut v,
        "sim-net.peer_payload_share",
        ratio(f.peer_payload_bytes as f64, f.payload_bytes as f64),
    );

    let page_lookups = (c.pagecache_hits + c.pagecache_misses) as f64;
    put(&mut v, "sim-disk.pagecache_hit_ratio", ratio(c.pagecache_hits as f64, page_lookups));
    put(&mut v, "sim-disk.platter_reads", c.disk_blocks_read as f64);
    put(&mut v, "sim-disk.platter_writes", c.disk_blocks_written as f64);
    put(&mut v, "sim-disk.disk_utilization_max", c.disk_utilization_max);
    put(&mut v, "sim-disk.disk_latency_p99_ms", ms(c.disk_latency_p99_ns as f64));

    put(&mut v, "pvfs.iod_read_reqs", c.iod.read_reqs as f64);
    put(&mut v, "pvfs.iod_write_reqs", c.iod.write_reqs as f64);
    put(&mut v, "pvfs.iod_flush_reqs", c.iod.flush_reqs as f64);
    put(&mut v, "pvfs.iod_bytes_read_per_app_byte", ratio(c.iod.bytes_read as f64, app_bytes));
    put(&mut v, "pvfs.invalidations_sent", c.iod.invalidations_sent as f64);
    put(&mut v, "pvfs.mgr_dir_queries", c.mgr.dir_queries as f64);
    put(&mut v, "pvfs.mgr_dir_updates", c.mgr.dir_updates as f64);
    let dir_answers = (c.mgr.dir_located + c.mgr.dir_unknown) as f64;
    put(&mut v, "pvfs.mgr_dir_located_ratio", ratio(c.mgr.dir_located as f64, dir_answers));

    let md = &c.module;
    put(
        &mut v,
        "kcache.module.full_hit_ratio",
        ratio(md.full_hits as f64, md.reads_intercepted as f64),
    );
    put(&mut v, "kcache.module.request_splits", md.request_splits as f64);
    put(&mut v, "kcache.module.dedup_blocks", md.dedup_blocks as f64);
    put(&mut v, "kcache.module.remote_hit_blocks", md.remote_hit_blocks as f64);
    put(&mut v, "kcache.module.remote_stale_blocks", md.remote_stale_blocks as f64);
    put(
        &mut v,
        "kcache.module.disk_fetch_mean_ms",
        ms(ratio(md.disk_fetch_ns as f64, md.disk_fetch_blocks as f64)),
    );
    put(
        &mut v,
        "kcache.module.remote_fetch_mean_ms",
        ms(ratio(md.remote_fetch_ns as f64, md.remote_hit_blocks as f64)),
    );
    put(&mut v, "kcache.module.flush_msgs", md.flush_msgs as f64);
    put(&mut v, "kcache.module.harvest_runs", md.harvest_runs as f64);
    put(&mut v, "kcache.module.urgent_flush_blocks", md.urgent_flush_blocks as f64);
    put(&mut v, "kcache.module.bytes_passthrough", md.bytes_passthrough as f64);
    put(&mut v, "kcache.module.fetch_default_p99_ms", ms(c.fetch_default_p99_ns as f64));
    put(&mut v, "kcache.module.fetch_peer_p99_ms", ms(c.fetch_peer_p99_ns as f64));

    // Σ counted manager work × its measured unit price, as a share of the
    // simulator's wall time: the most a manager-only speed-up can buy here.
    let s = &c.cache;
    let manager_ns = s.hits as f64 * m.hit_ns
        + s.misses as f64 * m.miss_insert_ns
        + s.writes_absorbed as f64 * m.write_absorb_ns
        + s.flush_blocks as f64 * m.flush_cycle_ns;
    put(&mut v, "kcache.manager.host_share_est", ratio(manager_ns, run_until_ns));

    put(&mut v, "kcache-adaptive.epochs", c.adaptive_epochs as f64);
    put(&mut v, "kcache-adaptive.switches", c.adaptive_switches as f64);
    put(&mut v, "kcache-adaptive.quota_moves", c.adaptive_quota_moves as f64);

    put(&mut v, "kcache-obs.overhead_ratio", t.overhead_ratio);
    put(&mut v, "kcache-obs.trace_events", t.trace_events as f64);
    put(&mut v, "kcache-obs.trace_dropped", t.trace_dropped as f64);

    let (r, w) = (&c.read_latency, &c.write_latency);
    let or0 = |n: u64, x: f64| if n == 0 { 0.0 } else { x };
    put(&mut v, "workload.requests", c.seen.requests_done as f64);
    put(&mut v, "workload.bytes", app_bytes);
    put(&mut v, "workload.read_latency_mean_ms", or0(r.count(), ms(r.mean())));
    put(&mut v, "workload.write_latency_mean_ms", or0(w.count(), ms(w.mean())));
    put(&mut v, "workload.read_latency_max_ms", or0(r.count(), ms(r.max())));
    put(&mut v, "workload.write_latency_max_ms", or0(w.count(), ms(w.max())));
    put(&mut v, "workload.read_latency_cv", or0(r.count(), ratio(r.std_dev(), r.mean())));
    v
}

/// Every per-layer metric `manager_mt` has a value for (the simulated
/// layers do no work there; `finish` reports them as 0).
pub fn mt_values(reference: &ManagerCounters, t: &MtTiming, m: &Micro) -> Values {
    let mut v = Values::new();
    micro_values(&mut v, m);
    manager_values(&mut v, &reference.stats, reference.policy_scans, t.ring_overflows, 0);
    put(&mut v, "kcache.manager.mt_ops_per_s.t1", t.t1_ops_per_s);
    put(&mut v, "kcache.manager.mt_ops_per_s.t2_shards2", t.t2_shards2_ops_per_s);
    put(&mut v, "kcache.manager.mt_ops_per_s.t2_shards4", t.t2_shards4_ops_per_s);
    put(&mut v, "kcache.manager.mt_scaling", ratio(t.t2_ops_per_s, t.t1_ops_per_s));
    put(&mut v, "kcache.manager.mt_batch_p50_us", t.batch_p50_us);
    put(&mut v, "kcache.manager.mt_batch_p99_us", t.batch_p99_us);
    put(&mut v, "kcache-obs.overhead_ratio", t.overhead_ratio);
    put(&mut v, "workload.requests", t.ops_per_rep as f64);
    put(&mut v, "workload.bytes", (t.ops_per_rep * BLOCK_SIZE as u64) as f64);
    v
}

/// Metrics that exist on one kind of workload only and read 0 on the
/// other: the multi-thread sweep is `manager_mt`'s, everything below the
/// manager is the simulated workloads'.
fn not_applicable(name: &str, simulated: bool) -> bool {
    let mt_only = name.starts_with("kcache.manager.mt_");
    if simulated {
        mt_only
    } else {
        !mt_only
    }
}

/// Order `values` as the tables do. A metric the caller did not compute
/// is reported as 0 only where it is not applicable to this kind of
/// workload; anything else missing, or anything extra, is a bug here.
pub fn finish(mut values: Values, simulated: bool) -> Vec<(String, f64)> {
    let out = per_layer()
        .into_iter()
        .map(|(name, _, _)| {
            let x = values.remove(&name).unwrap_or_else(|| {
                assert!(not_applicable(&name, simulated), "metric {name} was not computed");
                0.0
            });
            (name, x)
        })
        .collect();
    assert!(values.is_empty(), "metrics outside the tables: {:?}", values.keys());
    out
}
