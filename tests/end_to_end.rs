//! End-to-end integration tests across the whole stack: workload →
//! libpvfs → cache module → fabric → iod → page cache → disk, and back.

use cluster_harness::{build, run_experiment, ClusterSpec};
use kcache::CacheConfig;
use pvfs::Iod;
use sim_core::{Dur, SimTime, StopReason};
use sim_net::NodeId;
use workload::{AppSpec, Mode};

fn app(name: &str, nodes: &[u16], total: u64, d: u32, mode: Mode, l: f64, s: f64) -> AppSpec {
    AppSpec {
        name: name.into(),
        nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
        total_bytes: total,
        request_size: d,
        mode,
        locality: l,
        sharing: s,
        hotspot: 0.0,
        shared_file: "shared".into(),
        file_size: 8 << 20,
        start_delay: Dur::ZERO,
        min_requests: 1,
        phases: Vec::new(),
    }
}

#[test]
fn single_instance_reads_complete_with_verified_data() {
    for caching in [false, true] {
        let spec = ClusterSpec::paper(caching.then(CacheConfig::paper));
        let apps = vec![app("a", &[0, 1, 2, 3], 1 << 20, 64 << 10, Mode::Read, 0.5, 0.0)];
        let r = run_experiment(&spec, &apps);
        assert!(r.completed, "caching={caching} did not finish");
        assert_eq!(r.total_verify_failures(), 0, "caching={caching} corrupted data");
        assert_eq!(r.instances[0].requests, 16 * 4, "16 app requests x 4 processes");
        assert!(r.instances[0].makespan_s > 0.0);
    }
}

/// The iods keep preloaded data as content descriptors: a read-only run of
/// the paper's sharing point (two instances, `l = s = 0.5`, 64 KB requests)
/// ends with no block held as bytes at any iod, and its reads verify.
#[test]
fn read_only_run_stores_no_block_at_any_iod() {
    let spec = ClusterSpec::paper(Some(CacheConfig::paper()));
    let apps = vec![
        app("A", &[0, 1, 2, 3], 1 << 20, 64 << 10, Mode::Read, 0.5, 0.5),
        app("B", &[2, 3, 4, 5], 1 << 20, 64 << 10, Mode::Read, 0.5, 0.5),
    ];
    let mut cluster = build(&spec, &apps);
    let report = cluster.engine.run_until(SimTime::ZERO + Dur::secs(3600));
    assert_eq!(report.stop, StopReason::Stopped, "run did not finish");
    for (i, &id) in cluster.iods.iter().enumerate() {
        let iod = cluster.engine.actor_as::<Iod>(id).expect("iod downcast");
        assert!(iod.stats().read_reqs > 0, "iod {i} served no read");
        assert_eq!(iod.stored_blocks(), 0, "iod {i} stores preloaded blocks as bytes");
    }
    assert_eq!(run_experiment(&spec, &apps).total_verify_failures(), 0);
}

#[test]
fn caching_version_hits_with_locality() {
    let spec = ClusterSpec::paper(Some(CacheConfig::paper()));
    let apps = vec![app("a", &[0, 1], 1 << 20, 32 << 10, Mode::Read, 1.0, 0.0)];
    let r = run_experiment(&spec, &apps);
    assert!(r.completed);
    let hit = r.hit_ratio().expect("caching run must report hit ratio");
    assert!(hit > 0.8, "l=1 should be nearly all hits, got {hit}");
    let m = r.module.as_ref().unwrap();
    assert!(m.fake_read_acks > 0, "full hits must fake acknowledgments");
}

#[test]
fn zero_locality_misses() {
    let spec = ClusterSpec::paper(Some(CacheConfig::paper()));
    // Partitions far larger than the cache: fresh blocks never revisit.
    let apps = vec![app("a", &[0, 1], 2 << 20, 64 << 10, Mode::Read, 0.0, 0.0)];
    let r = run_experiment(&spec, &apps);
    let hit = r.hit_ratio().unwrap_or(0.0);
    assert!(hit < 0.1, "l=0 single instance should mostly miss, got {hit}");
}

#[test]
fn inter_application_sharing_produces_cross_hits() {
    let spec = ClusterSpec::paper(Some(CacheConfig::paper()));
    let apps = vec![
        app("a", &[0, 1], 1 << 20, 64 << 10, Mode::Read, 0.0, 1.0),
        app("b", &[0, 1], 1 << 20, 64 << 10, Mode::Read, 0.0, 1.0),
    ];
    let r = run_experiment(&spec, &apps);
    assert!(r.completed);
    assert_eq!(r.total_verify_failures(), 0);
    let m = r.module.as_ref().unwrap();
    // With two synchronized instances over one shared file, roughly half
    // the blocks should be served by the other instance's fetches (hits or
    // pending-block waits).
    let cross = r.cache.as_ref().unwrap().hits + m.dedup_blocks;
    assert!(
        cross as f64 >= 0.25 * m.blocks_fetched as f64,
        "expected substantial cross-application reuse: hits+dedup={cross}, fetched={}",
        m.blocks_fetched
    );
}

#[test]
fn write_behind_then_read_back_round_trips() {
    // Writes go through the cache (write-behind + flusher); a second
    // instance then reads the same file and must see pattern bytes.
    let spec = ClusterSpec::paper(Some(CacheConfig::paper()));
    let apps = vec![
        app("w", &[0, 1], 512 << 10, 64 << 10, Mode::Write, 0.0, 1.0),
        AppSpec {
            start_delay: Dur::secs(3), // after the writer and its flusher
            ..app("r", &[2, 3], 512 << 10, 64 << 10, Mode::Read, 0.0, 1.0)
        },
    ];
    let r = run_experiment(&spec, &apps);
    assert!(r.completed);
    assert_eq!(r.total_verify_failures(), 0, "reader saw non-pattern bytes");
    let m = r.module.as_ref().unwrap();
    assert!(m.flush_msgs > 0, "writer's flusher must have pushed dirty blocks");
}

#[test]
fn sync_writes_complete_under_full_sharing() {
    let spec = ClusterSpec::paper(Some(CacheConfig::paper()));
    let apps = vec![
        app("a", &[0, 1], 256 << 10, 32 << 10, Mode::SyncWrite, 0.3, 1.0),
        app("b", &[2, 3], 256 << 10, 32 << 10, Mode::SyncWrite, 0.3, 1.0),
    ];
    let r = run_experiment(&spec, &apps);
    assert!(r.completed);
    let m = r.module.as_ref().unwrap();
    assert!(m.sync_writes > 0);
    assert!(r.iod.sync_writes > 0, "sync writes must reach the iods");
}

#[test]
fn multiprogramming_two_instances_per_node() {
    // Two instances time-sharing the same nodes: both must finish, and the
    // cache stats must reflect both.
    let spec = ClusterSpec::paper(Some(CacheConfig::paper()));
    let apps = vec![
        app("a", &[0, 1, 2], 1 << 20, 128 << 10, Mode::Read, 0.5, 0.5),
        app("b", &[0, 1, 2], 1 << 20, 128 << 10, Mode::Read, 0.5, 0.5),
    ];
    let r = run_experiment(&spec, &apps);
    assert!(r.completed);
    assert_eq!(r.instances.len(), 2);
    for i in &r.instances {
        assert!(i.makespan_s > 0.0);
        assert_eq!(i.verify_failures, 0);
    }
}

/// Everything a run reports on the sim clock, with floats as bit patterns:
/// two runs of one seed must agree on all of it.
fn fingerprint(r: &cluster_harness::ExperimentResult) -> String {
    let lat: Vec<_> = r
        .instances
        .iter()
        .map(|i| (i.makespan_s.to_bits(), i.read_latency_s.to_bits(), i.write_latency_s.to_bits()))
        .collect();
    format!("events={} sim_end={:?} lat={lat:?} module={:?}", r.events, r.sim_end, r.module)
}

#[test]
fn deterministic_across_runs() {
    let on_file = |file: &str, a: AppSpec| AppSpec { shared_file: file.into(), ..a };
    type Config = (&'static str, ClusterSpec, Vec<AppSpec>);
    let configs: Vec<Config> = vec![
        (
            "one shared file, read + write-behind",
            ClusterSpec::paper(Some(CacheConfig::paper())),
            vec![
                app("a", &[0, 1, 2, 3], 1 << 20, 64 << 10, Mode::Read, 0.5, 0.5),
                app("b", &[0, 1, 2, 3], 1 << 20, 64 << 10, Mode::Write, 0.5, 0.5),
            ],
        ),
        (
            // Several files dirty on one node: every flush batch fans out
            // into several (iod, file) messages, and the sync-writer's
            // invalidations into several per-node ones.
            "multi-file write-behind + sync-write",
            ClusterSpec::paper(Some(CacheConfig::paper())),
            vec![
                on_file("f1", app("w1", &[0, 1, 2, 3], 4 << 20, 16 << 10, Mode::Write, 0.5, 0.0)),
                on_file("f2", app("w2", &[0, 1, 2, 3], 4 << 20, 16 << 10, Mode::Write, 0.5, 0.0)),
                on_file(
                    "f3",
                    app("r", &[0, 1, 2, 3, 4, 5], 2 << 20, 16 << 10, Mode::Read, 0.5, 1.0),
                ),
                on_file("f3", app("s", &[4, 5], 1 << 20, 16 << 10, Mode::SyncWrite, 0.5, 1.0)),
            ],
        ),
        (
            // A small churning cache over platter-bound iods: evictions,
            // reads and writes span files, the disks do real work.
            "small cache, platter-bound iods",
            platter_bound(ClusterSpec::paper(Some(CacheConfig {
                capacity_blocks: 64,
                low_watermark: 6,
                high_watermark: 16,
                ..CacheConfig::paper()
            }))),
            vec![
                on_file("f1", app("a", &[0, 1, 2, 3], 1 << 20, 64 << 10, Mode::Read, 0.2, 1.0)),
                on_file("f1", app("b", &[3, 2, 1, 0], 1 << 20, 64 << 10, Mode::Read, 0.2, 1.0)),
                on_file("f2", app("c", &[0, 1, 2, 3], 1 << 20, 48 << 10, Mode::Read, 0.2, 1.0)),
                on_file("f2", app("d", &[2, 3, 0, 1], 1 << 20, 48 << 10, Mode::Write, 0.2, 1.0)),
            ],
        ),
    ];
    for (what, spec, apps) in &configs {
        let r1 = run_experiment(spec, apps);
        let r2 = run_experiment(spec, apps);
        assert!(r1.completed, "{what}: did not finish");
        assert_eq!(r1.total_verify_failures(), 0, "{what}: corrupted data");
        assert_eq!(fingerprint(&r1), fingerprint(&r2), "{what}: identical runs differ");
    }
}

#[test]
fn different_seeds_differ() {
    let mk = |seed| {
        let mut spec = ClusterSpec::paper(Some(CacheConfig::paper()));
        spec.seed = seed;
        let apps = vec![app("a", &[0, 1], 1 << 20, 64 << 10, Mode::Read, 0.5, 0.5)];
        run_experiment(&spec, &apps)
    };
    let r1 = mk(1);
    let r2 = mk(2);
    assert!(
        r1.sim_end != r2.sim_end || r1.events != r2.events,
        "different seeds should perturb the run"
    );
}

#[test]
fn no_caching_run_reports_no_cache_stats() {
    let spec = ClusterSpec::paper(None);
    let apps = vec![app("a", &[0, 1], 256 << 10, 64 << 10, Mode::Read, 0.0, 0.0)];
    let r = run_experiment(&spec, &apps);
    assert!(r.completed);
    assert!(r.cache.is_none());
    assert!(r.module.is_none());
    assert!(r.hit_ratio().is_none());
}

#[test]
fn network_traffic_shrinks_with_caching_at_high_locality() {
    let run = |cache| {
        let spec = ClusterSpec::paper(cache);
        let apps = vec![app("a", &[0, 1], 2 << 20, 64 << 10, Mode::Read, 1.0, 0.0)];
        run_experiment(&spec, &apps)
    };
    let cached = run(Some(CacheConfig::paper()));
    let plain = run(None);
    assert!(
        cached.fabric.payload_bytes < plain.fabric.payload_bytes / 2,
        "l=1 caching should cut network bytes by far more than half: {} vs {}",
        cached.fabric.payload_bytes,
        plain.fabric.payload_bytes
    );
}

#[test]
fn single_process_single_node_works() {
    let spec = ClusterSpec::paper(Some(CacheConfig::paper()));
    let apps = vec![app("solo", &[5], 256 << 10, 16 << 10, Mode::Read, 0.5, 0.0)];
    let r = run_experiment(&spec, &apps);
    assert!(r.completed);
    assert_eq!(r.instances[0].requests, 16);
}

#[test]
fn tiny_and_unaligned_request_sizes() {
    // Sub-block and non-power-of-two request sizes must round-trip
    // correctly through block-granular caching.
    for d in [1000u32, 3000, 5000, 12_345] {
        let spec = ClusterSpec::paper(Some(CacheConfig::paper()));
        let apps = vec![app("a", &[0, 1], 128 << 10, d, Mode::Read, 0.5, 0.0)];
        let r = run_experiment(&spec, &apps);
        assert!(r.completed, "d={d} stalled");
        assert_eq!(r.total_verify_failures(), 0, "d={d} corrupted data");
    }
}

/// Cold disks behind an iod page cache (16 pages) too small for any
/// file: re-reads are platter-bound.
fn platter_bound(spec: ClusterSpec) -> ClusterSpec {
    let mut spec = ClusterSpec { preload_warm: false, ..spec };
    spec.pvfs.iod_page_cache_pages = 16;
    spec
}

#[test]
fn stale_hints_degrade_to_disk_never_wrong_data() {
    // A deliberately tiny, churning cache over platter-bound iods, with
    // two instances striping the shared file across the client nodes in
    // opposite orders, Zipf-skewed so both re-read the same hot blocks.
    // There is no peer tier and so no hint to go stale: every block the
    // cache lost is read again through its iod from the platter, and
    // wrong data or a lost request never comes of the churn.
    let mut spec = platter_bound(ClusterSpec::paper(Some(CacheConfig {
        capacity_blocks: 64,
        low_watermark: 6,
        high_watermark: 16,
        ..CacheConfig::paper()
    })));
    spec.seed = 7;
    let skewed = |name: &str, nodes: &[u16]| AppSpec {
        hotspot: 0.9,
        ..app(name, nodes, 1 << 20, 64 << 10, Mode::Read, 0.2, 1.0)
    };
    let apps = vec![skewed("a", &[0, 1, 2, 3]), skewed("b", &[3, 2, 1, 0])];
    let r = run_experiment(&spec, &apps);
    assert!(r.completed, "a re-read of an evicted block was never served");
    assert_eq!(r.total_verify_failures(), 0, "churn must never corrupt data");
    let m = r.module.as_ref().unwrap();
    assert!(m.disk_fetch_blocks > 0, "evicted blocks must be read from disk again");
    assert_eq!(m.remote_hit_blocks + m.remote_stale_blocks, 0, "no block comes from a peer");
}

#[test]
fn write_workload_flushes_all_dirty_eventually() {
    // Write more than the cache can hold so the flusher/harvester must run
    // *during* the workload (a small write burst can finish before the
    // first flusher tick).
    let spec = ClusterSpec::paper(Some(CacheConfig::paper()));
    let apps = vec![app("w", &[0, 1], 4 << 20, 64 << 10, Mode::Write, 0.0, 0.0)];
    let r = run_experiment(&spec, &apps);
    assert!(r.completed);
    let m = r.module.as_ref().unwrap();
    assert!(m.fake_write_acks > 0, "write-behind must fake some acks");
    assert!(r.iod.flush_reqs > 0, "flusher must reach the iods");
    let c = r.cache.as_ref().unwrap();
    assert!(c.flush_blocks > 0, "dirty blocks must have been taken for flushing");
}
