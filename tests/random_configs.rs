//! Randomized-configuration robustness: many small experiments with
//! arbitrary (but deterministic) knob combinations must all complete
//! without stalls, protocol violations, or data corruption.

use cluster_harness::config::{AdaptiveCfg, AppCfg, ClusterCfg, ExperimentConfig, PhaseCfg};
use cluster_harness::{run_experiment, ClusterSpec};
use kcache::{
    AdaptiveConfig, CacheConfig, EvictPolicy, PartitionConfig, PartitionMode, PolicyKind,
};
use sim_core::{DetRng, Dur};
use sim_net::{NetConfig, NodeId};
use workload::{AppSpec, Mode};

fn random_app(rng: &mut DetRng, idx: u32, n_nodes: u16) -> AppSpec {
    let p = rng.range_inclusive(1, 4) as u16;
    let base = rng.range_inclusive(0, (n_nodes - p) as u64) as u16;
    let modes = [Mode::Read, Mode::Write, Mode::SyncWrite];
    let d_choices = [1000u32, 4096, 10_000, 65_536, 262_144];
    AppSpec {
        name: format!("app{idx}"),
        nodes: (base..base + p).map(NodeId).collect(),
        total_bytes: 256 << 10,
        request_size: d_choices[rng.below(d_choices.len() as u64) as usize],
        mode: modes[rng.below(3) as usize],
        locality: rng.f64(),
        sharing: rng.f64(),
        // Half the apps run skewed so every policy's hot-set logic is
        // exercised under arbitrary knob combinations.
        hotspot: if rng.chance(0.5) { rng.f64() } else { 0.0 },
        shared_file: "shared".into(),
        file_size: 8 << 20,
        start_delay: Dur::millis(rng.below(50)),
        min_requests: 1,
        phases: Vec::new(),
    }
}

/// A random partitioning config over `n_apps` instances: any mode, each
/// app independently quota'd (or not) with an arbitrary in-range quota.
fn random_partitioning(rng: &mut DetRng, n_apps: u32, capacity: usize) -> PartitionConfig {
    let mode =
        [PartitionMode::Shared, PartitionMode::Strict, PartitionMode::Soft][rng.below(3) as usize];
    let mut quotas = std::collections::BTreeMap::new();
    for i in 0..n_apps {
        if rng.chance(0.7) {
            quotas.insert(i, rng.range_inclusive(1, capacity as u64) as usize);
        }
    }
    PartitionConfig { mode, quotas }
}

#[test]
fn randomized_configurations_all_complete_cleanly() {
    for seed in 0..12u64 {
        let mut rng = DetRng::stream(0xF00D, seed);
        let n_apps = rng.range_inclusive(1, 3) as u32;
        let apps: Vec<AppSpec> = (0..n_apps).map(|i| random_app(&mut rng, i, 6)).collect();

        let caching = rng.chance(0.7);
        let mut spec = ClusterSpec::paper(caching.then(|| {
            let capacity_blocks = [75, 300, 600][rng.below(3) as usize];
            CacheConfig {
                capacity_blocks,
                low_watermark: 8,
                high_watermark: 16,
                policy: EvictPolicy {
                    kind: PolicyKind::ALL[rng.below(PolicyKind::ALL.len() as u64) as usize],
                    clean_first: rng.chance(0.8),
                },
                partitioning: random_partitioning(&mut rng, n_apps, capacity_blocks),
                write_behind: rng.chance(0.8),
                // A third of the caching runs wrap the policy in the
                // adaptive meta-policy with a random candidate subset.
                adaptive: rng.chance(0.33).then(|| {
                    let n = rng.range_inclusive(1, 4) as usize;
                    let mut cfg =
                        AdaptiveConfig::new((0..n).map(|_| PolicyKind::ALL[rng.below(6) as usize]));
                    cfg.hysteresis = rng.f64() * 0.1;
                    cfg.quota_step = rng.range_inclusive(1, 16) as usize;
                    cfg
                }),
                epoch_accesses: [0, 32, 128, 512][rng.below(4) as usize],
            }
        }));
        if rng.chance(0.3) {
            spec.net = NetConfig::switch_100mbps();
        }
        spec.seed = seed;

        let r = run_experiment(&spec, &apps);
        assert!(
            r.completed,
            "seed {seed}: experiment stalled (apps: {:?})",
            apps.iter().map(|a| (&a.name, a.request_size, a.mode)).collect::<Vec<_>>()
        );
        // Read verification only applies where reads happen; writers write
        // pattern bytes so mixed runs stay verifiable too.
        assert_eq!(r.total_verify_failures(), 0, "seed {seed}: data corruption");
        for i in &r.instances {
            assert!(i.requests > 0, "seed {seed}: instance {} did no work", i.name);
        }
    }
}

#[test]
fn degenerate_cache_sizes_survive() {
    // One-block and two-block caches exercise the eviction/throttle edge
    // paths on every single request.
    for cap in [1usize, 2, 3] {
        let spec = {
            let mut s = ClusterSpec::paper(Some(CacheConfig {
                capacity_blocks: cap,
                low_watermark: 0,
                high_watermark: cap.min(1),
                ..CacheConfig::paper()
            }));
            s.seed = cap as u64;
            s
        };
        let apps = vec![AppSpec {
            name: "tiny".into(),
            nodes: vec![NodeId(0), NodeId(1)],
            total_bytes: 128 << 10,
            request_size: 16 << 10,
            mode: Mode::Read,
            locality: 0.5,
            sharing: 0.0,
            hotspot: 0.0,
            shared_file: "shared".into(),
            file_size: 4 << 20,
            start_delay: Dur::ZERO,
            min_requests: 1,
            phases: Vec::new(),
        }];
        let r = run_experiment(&spec, &apps);
        assert!(r.completed, "cap={cap} stalled");
        assert_eq!(r.total_verify_failures(), 0, "cap={cap} corrupted data");
    }
}

#[test]
fn write_saturation_under_tiny_cache_throttles_not_stalls() {
    let spec = {
        let mut s = ClusterSpec::paper(Some(CacheConfig {
            capacity_blocks: 8,
            low_watermark: 1,
            high_watermark: 2,
            ..CacheConfig::paper()
        }));
        s.seed = 99;
        s
    };
    let apps = vec![AppSpec {
        name: "burst".into(),
        nodes: vec![NodeId(0)],
        total_bytes: 1 << 20,
        request_size: 64 << 10,
        mode: Mode::Write,
        locality: 0.0,
        sharing: 0.0,
        hotspot: 0.0,
        shared_file: "shared".into(),
        file_size: 4 << 20,
        start_delay: Dur::ZERO,
        min_requests: 1,
        phases: Vec::new(),
    }];
    let r = run_experiment(&spec, &apps);
    assert!(r.completed);
    let c = r.cache.as_ref().unwrap();
    assert!(
        c.writes_passthrough > 0,
        "a 32 KB cache under a 1 MB write burst must throttle to pass-through"
    );
}

/// Random partitioning (and, since PR 4, adaptive-policy) JSON configs
/// round-trip through serde and lower to the configuration they describe;
/// pre-PR-3 configs (no partitioning fields anywhere) keep parsing to the
/// shared pool.
#[test]
fn partitioning_configs_round_trip_through_json() {
    for seed in 0..20u64 {
        let mut rng = DetRng::stream(0xCAFE, seed);
        let n_apps = rng.range_inclusive(1, 3) as u32;
        let mode = ["shared", "strict", "soft"][rng.below(3) as usize];
        // A third of the configs run the adaptive meta-policy with a
        // random candidate list and epoch/tuner knobs.
        let adaptive = rng.chance(0.33);
        let policy: String = if adaptive {
            "adaptive".into()
        } else {
            PolicyKind::ALL[rng.below(6) as usize].name().into()
        };
        let adaptive_cfg = if adaptive {
            // Drawn with replacement, then de-duplicated: a kind named
            // twice is a config error (see the invalid-config rows below).
            let mut candidates: Vec<String> = Vec::new();
            for _ in 0..rng.range_inclusive(0, 3) {
                let name = PolicyKind::ALL[rng.below(6) as usize].name().to_string();
                if !candidates.contains(&name) {
                    candidates.push(name);
                }
            }
            AdaptiveCfg {
                candidates,
                epoch_accesses: [0, 64, 256][rng.below(3) as usize],
                hysteresis: rng.f64() * 0.1,
                quota_step: rng.range_inclusive(1, 16) as usize,
            }
        } else {
            AdaptiveCfg::default()
        };
        let cfg = ExperimentConfig {
            cluster: ClusterCfg {
                nodes: 4,
                seed,
                cache_blocks: 300,
                policy,
                partitioning: mode.into(),
                adaptive: adaptive_cfg,
                ..ClusterCfg::default()
            },
            apps: (0..n_apps)
                .map(|i| AppCfg {
                    name: format!("app{i}"),
                    nodes: vec![0],
                    total_mb: 1,
                    request_kb: 64,
                    mode: "read".into(),
                    locality: rng.f64(),
                    sharing: 0.0,
                    hotspot: 0.0,
                    start_delay_ms: 0,
                    quota_blocks: if rng.chance(0.6) {
                        rng.range_inclusive(1, 300) as usize
                    } else {
                        0
                    },
                    // Some apps carry a phase schedule through JSON too.
                    phases: if rng.chance(0.3) {
                        vec![
                            PhaseCfg {
                                requests: rng.range_inclusive(4, 32),
                                locality: rng.f64(),
                                sharing: 0.0,
                                hotspot: rng.f64(),
                            },
                            PhaseCfg {
                                requests: rng.range_inclusive(4, 32),
                                locality: 0.0,
                                sharing: rng.f64(),
                                hotspot: 0.0,
                            },
                        ]
                    } else {
                        Vec::new()
                    },
                })
                .collect(),
        };
        let json = serde_json::to_string_pretty(&cfg).expect("serialize config");
        let back = ExperimentConfig::from_json(&json).expect("re-parse config");
        assert_eq!(back, cfg, "seed {seed}: JSON round-trip changed the config");
        let part = back.partitioning().expect("lower partitioning");
        assert_eq!(part.mode, PartitionMode::parse(mode).unwrap());
        for (i, a) in cfg.apps.iter().enumerate() {
            assert_eq!(
                part.quotas.get(&(i as u32)).copied(),
                (a.quota_blocks > 0).then_some(a.quota_blocks),
                "seed {seed}: quota for app {i} lost in lowering"
            );
        }
        // The lowered spec must actually build and run.
        let (spec, apps) = back.to_spec().expect("lower spec");
        let r = run_experiment(&spec, &apps);
        assert!(r.completed, "seed {seed}: lowered config stalled");
        assert_eq!(r.total_verify_failures(), 0, "seed {seed}: data corruption");
    }
}

/// A config written before partitioning existed — no `partitioning`, no
/// `quota_blocks`, not even a `policy` — parses to the exact defaults
/// (shared pool, clock) and still runs.
#[test]
fn pre_partitioning_json_still_parses_and_runs() {
    let cfg = ExperimentConfig::from_json(
        r#"{
            "cluster": { "nodes": 4, "caching": true, "seed": 7 },
            "apps": [
                { "name": "legacy", "nodes": [0, 1], "total_mb": 1,
                  "request_kb": 64, "mode": "read", "locality": 0.5 }
            ]
        }"#,
    )
    .expect("legacy config must parse");
    assert_eq!(cfg.cluster.partitioning, "shared");
    assert_eq!(cfg.cluster.policy, "clock");
    assert!(cfg.apps.iter().all(|a| a.quota_blocks == 0));
    let (spec, apps) = cfg.to_spec().unwrap();
    assert!(!spec.cache.as_ref().unwrap().partitioning.is_partitioned());
    let r = run_experiment(&spec, &apps);
    assert!(r.completed && r.total_verify_failures() == 0);
}

/// `cooperative.singleton_preserving` and `cooperative.directory` are
/// retired keys, as is the `cooperative` section that holds them: configs
/// written while they existed keep parsing, and lower to exactly what a
/// config without the section lowers to, whatever values they hold.
#[test]
fn the_retired_singleton_preserving_key_is_ignored() {
    let lowered = |cooperative: &str| {
        let cfg = ExperimentConfig::from_json(&format!(
            r#"{{ "cluster": {{ "nodes": 3 {cooperative} }},
                 "apps": [ {{ "name": "a", "nodes": [0, 1], "total_mb": 1,
                             "request_kb": 64, "mode": "read", "sharing": 1.0 }} ] }}"#
        ))
        .expect("an old config must keep parsing");
        let spec = cfg.to_spec().expect("lower spec");
        (format!("{spec:?}"), cfg)
    };
    let without = lowered("");
    for keys in [
        r#""enabled": true, "singleton_preserving": true"#,
        r#""enabled": true, "singleton_preserving": false"#,
        r#""enabled": false, "directory": "hint""#,
        r#""directory": "authoritative", "singleton_preserving": true"#,
    ] {
        assert_eq!(lowered(&format!(r#", "cooperative": {{ {keys} }}"#)), without, "{keys}");
    }
}

/// Keys retired with the mechanisms they configured, or with the values
/// no config varied: the whole `cooperative` section (here the exact one
/// the benchmark generates), `telemetry.trace_capacity`, the whole
/// `telemetry.slo` section (`fetch_p99_ms_default`, `fetch_p99_ms_peer`),
/// the whole `telemetry.anomaly` section (`stale_hints_per_epoch`,
/// `hit_ratio_drop`, `min_epoch_accesses`, `trace_drops_per_epoch`),
/// `adaptive.quota_tuning` and `adaptive.quota_floor`. A config carrying
/// them, each away from its old default, parses, lowers to what the
/// config without them lowers to, and runs the same simulation to the
/// bit. The run is adaptive over strict quotas, where the old tuner
/// switch and floor used to act.
#[test]
fn retired_keys_parse_and_change_nothing() {
    let with = |cooperative: &str, adaptive: &str, telemetry: &str| {
        let cfg = ExperimentConfig::from_json(&format!(
            r#"{{ "cluster": {{ "nodes": 3, "policy": "adaptive", "partitioning": "strict"
                              {cooperative},
                              "adaptive": {{ "epoch_accesses": 64 {adaptive} }},
                              "telemetry": {{ "enabled": true {telemetry} }} }},
                 "apps": [ {{ "name": "a", "nodes": [0, 1], "total_mb": 1, "request_kb": 64,
                             "mode": "read", "sharing": 1.0, "quota_blocks": 40 }},
                           {{ "name": "b", "nodes": [1, 2], "total_mb": 1, "request_kb": 64,
                             "mode": "read", "hotspot": 1.1, "quota_blocks": 20 }} ] }}"#
        ))
        .expect("an old config must keep parsing");
        let (spec, apps) = cfg.to_spec().expect("lower spec");
        (cfg, spec, apps)
    };
    let (cfg, spec, apps) = with("", "", "");
    let (old_cfg, old_spec, old_apps) = with(
        r#", "cooperative":{"enabled":true,"directory":"authoritative","singleton_preserving":true}"#,
        r#", "quota_floor": 16, "quota_tuning": false"#,
        r#", "trace_capacity": 128,
            "slo": { "fetch_p99_ms_default": 2.5, "fetch_p99_ms_peer": 2.5 },
            "anomaly": { "stale_hints_per_epoch": 9, "hit_ratio_drop": 0.05,
                         "min_epoch_accesses": 1, "trace_drops_per_epoch": 1 }"#,
    );
    assert_eq!(old_cfg, cfg);
    assert_eq!(format!("{old_spec:?}"), format!("{spec:?}"));
    assert_eq!(format!("{old_apps:?}"), format!("{apps:?}"));
    let fingerprint = |spec: &ClusterSpec, apps: &[AppSpec]| {
        let r = run_experiment(spec, apps);
        assert!(r.completed);
        let c = r.cache.clone().unwrap();
        format!(
            "{} {:?} {} {} {:?} {:?} {:?}",
            r.events, r.sim_end, c.hits, c.misses, r.instances, r.app_usage, r.slo
        )
    };
    assert_eq!(fingerprint(&old_spec, &old_apps), fingerprint(&spec, &apps));
}

/// Configs that used to lower and then panic in `build` or
/// `Coordinator::new`: each is an `Err` from `to_spec` now.
#[test]
fn configs_the_builders_would_panic_on_are_errors() {
    let sized = |cluster: &str, nodes: &str, total_mb: u64, request_kb: u32, app: &str| {
        format!(
            r#"{{ "cluster": {{ {cluster} }},
                 "apps": [ {{ "name": "a", "nodes": {nodes}, "total_mb": {total_mb},
                             "request_kb": {request_kb}, "mode": "read" {app} }} ] }}"#
        )
    };
    let config = |cluster: &str, nodes: &str, request_kb: u32, app: &str| {
        sized(cluster, nodes, 1, request_kb, app)
    };
    for (json, what) in [
        (config("", "[0]", 0, ""), "request size"),
        (config("", "[0]", 64, r#", "sharing": 2.0"#), "sharing"),
        (config("", "[0]", 64, r#", "hotspot": -1.0"#), "hotspot"),
        (config("", "[]", 64, ""), "no nodes"),
        (config(r#""file_mb": 0"#, "[0]", 64, ""), "file"),
        (r#"{ "apps": [] }"#.to_string(), "apps"),
        // Sizes whose byte counts used to wrap silently: 2^22 + 1 KB is
        // 1 KB in a u32, 2^44 + 1 MB is 1 MB in a u64.
        (config("", "[0]", (1 << 22) + 1, ""), "request_kb"),
        (sized("", "[0]", (1 << 44) + 1, 64, ""), "total_mb"),
        (config(r#""file_mb": 17592186044417"#, "[0]", 64, ""), "file_mb"),
    ] {
        let cfg = ExperimentConfig::from_json(&json).expect("well-formed JSON");
        let err = cfg.to_spec().map(|_| ()).expect_err(&format!("{what}: must not lower"));
        assert!(err.contains(what), "error must name {what}: {err}");
    }
    assert!(ExperimentConfig::from_json(&config("", "[0]", 64, "")).unwrap().to_spec().is_ok());
}

/// Bad configuration is an `Err` naming the field, never a panic further
/// down in the cluster or buffer-manager builders.
#[test]
fn invalid_json_configs_are_errors_not_panics() {
    let with = |cluster: &str, app_nodes: &str, app: &str| {
        ExperimentConfig::from_json(&format!(
            r#"{{
                "cluster": {{ "nodes": 4, "caching": true {cluster} }},
                "apps": [ {{ "name": "a", "nodes": {app_nodes}, "total_mb": 1,
                            "request_kb": 64, "mode": "read" {app} }} ]
            }}"#
        ))
        .expect("well-formed JSON")
        .to_spec()
        .map(|_| ())
    };
    assert_eq!(with("", "[0, 3]", ""), Ok(()));
    // `cluster.shards` is retired; the value perfbench's platform sends
    // (and 0) still lowers.
    assert_eq!(with(r#", "cache_blocks": 300, "fabric": "hub", "shards": 1"#, "[0]", ""), Ok(()));
    assert_eq!(with(r#", "shards": 0"#, "[0]", ""), Ok(()));
    assert_eq!(with(r#", "partitioning": "strict""#, "[0]", r#", "quota_blocks": 300"#), Ok(()));
    assert_eq!(
        with(r#", "policy": "adaptive", "adaptive": { "hysteresis": 1.0 }"#, "[0]", ""),
        Ok(())
    );
    for (cluster, app_nodes, app, field) in [
        (r#", "cache_blocks": 0"#, "[0]", "", "cache_blocks"),
        (r#", "cache_blocks": 1"#, "[0]", "", "cache_blocks"),
        // A retired key asking for a split pool the simulator no longer builds.
        (r#", "shards": 2"#, "[0]", "", "cluster.shards"),
        (r#", "shards": 9"#, "[0]", "", "cluster.shards"),
        ("", "[0, 4]", "", "nodes"),
        // Over the default 300-block cache: used to panic in the builder.
        (r#", "partitioning": "strict""#, "[0]", r#", "quota_blocks": 500"#, "quota_blocks"),
        // Flips the live policy on any noise / can never switch at all.
        (r#", "policy": "adaptive", "adaptive": { "hysteresis": -0.01 }"#, "[0]", "", "hysteresis"),
        (r#", "policy": "adaptive", "adaptive": { "hysteresis": 1.5 }"#, "[0]", "", "hysteresis"),
        // A kind named twice: used to be deduplicated silently.
        (
            r#", "policy": "adaptive", "adaptive": { "candidates": ["lfu", "arc", "lfu"] }"#,
            "[0]",
            "",
            "candidates",
        ),
    ] {
        let err = with(cluster, app_nodes, app).expect_err("invalid config must not lower");
        assert!(err.contains(field), "error must name {field}: {err}");
    }
}
