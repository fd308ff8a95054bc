//! Acceptance tests for the `kcache-adaptive` subsystem at the full
//! experiment level: the single-candidate differential (an adaptive
//! wrapper with one candidate is byte-for-byte the static policy), an
//! end-to-end phase-shifting run exercising real switches, and quota
//! preservation under the meta-policy.

use cluster_harness::{run_experiment, ClusterSpec};
use kcache::{AdaptiveConfig, CacheConfig, EvictPolicy, PartitionConfig, PolicyKind};
use sim_core::Dur;
use sim_net::NodeId;
use workload::{AppSpec, Mode, PhaseSpec};

fn reader(name: &str, sharing: f64, hotspot: f64) -> AppSpec {
    AppSpec {
        name: name.into(),
        nodes: vec![NodeId(0)],
        total_bytes: 512 << 10,
        request_size: 64 << 10,
        mode: Mode::Read,
        locality: 0.3,
        sharing,
        hotspot,
        shared_file: "shared".into(),
        file_size: 4 << 20,
        start_delay: Dur::ZERO,
        min_requests: 64,
        phases: Vec::new(),
    }
}

fn spec_with(cache: CacheConfig, seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::paper(Some(cache));
    spec.seed = seed;
    spec
}

/// Acceptance part (b): `adaptive` with a single candidate is
/// byte-for-byte identical to that static policy — same cache stats, same
/// policy ledger, same hit ratio — for every built-in policy, epochs on.
#[test]
fn adaptive_single_candidate_matches_static_experiment() {
    for kind in PolicyKind::ALL {
        let apps = vec![reader("a", 0.4, 0.9), reader("b", 0.4, 0.9)];
        let stat = CacheConfig {
            policy: EvictPolicy::of(kind),
            epoch_accesses: 256,
            ..CacheConfig::paper()
        };
        let adap = CacheConfig {
            policy: EvictPolicy::of(kind),
            adaptive: Some(AdaptiveConfig::new([kind])),
            epoch_accesses: 256,
            ..CacheConfig::paper()
        };
        let rs = run_experiment(&spec_with(stat, 7), &apps);
        let ra = run_experiment(&spec_with(adap, 7), &apps);
        assert!(rs.completed && ra.completed);
        assert_eq!(rs.total_verify_failures() + ra.total_verify_failures(), 0);
        let (cs, ca) = (rs.cache.as_ref().unwrap(), ra.cache.as_ref().unwrap());
        assert_eq!(
            (cs.hits, cs.misses, cs.insertions, cs.evictions_clean, cs.evictions_dirty),
            (ca.hits, ca.misses, ca.insertions, ca.evictions_clean, ca.evictions_dirty),
            "{kind}: cache stats diverged"
        );
        assert_eq!(rs.policy_stats, ra.policy_stats, "{kind}: policy ledger diverged");
        assert_eq!(rs.hit_ratio(), ra.hit_ratio(), "{kind}: hit ratio diverged");
        assert_eq!(rs.mean_makespan_s(), ra.mean_makespan_s(), "{kind}: timing diverged");
        // Labels tell the runs apart even though behavior is identical.
        assert_eq!(rs.policy.as_deref(), Some(kind.name()));
        assert_eq!(ra.policy.as_deref(), Some("adaptive"));
        let stats = ra.adaptive.as_ref().expect("adaptive run must report adaptive stats");
        assert_eq!(stats.switches, 0, "{kind}: single candidate must never switch");
        assert!(stats.epochs > 0, "{kind}: epochs must tick");
        assert!(rs.adaptive.is_none(), "{kind}: static run must not report adaptive stats");
    }
}

/// End-to-end: a phase-shifting co-schedule under the full candidate set
/// completes cleanly, ticks epochs on every module, keeps the ghost
/// ledgers consistent, and records any switches coherently.
#[test]
fn adaptive_phase_shifting_run_is_coherent() {
    let phases = vec![
        PhaseSpec { requests: 32, locality: 0.2, sharing: 0.0, hotspot: 1.2 },
        PhaseSpec { requests: 32, locality: 0.0, sharing: 0.0, hotspot: 0.0 },
        PhaseSpec { requests: 32, locality: 0.2, sharing: 1.0, hotspot: 0.9 },
    ];
    let mut a = reader("a", 0.0, 0.0);
    let mut b = reader("b", 0.0, 0.0);
    a.phases = phases.clone();
    b.phases = phases.into_iter().rev().collect();
    a.min_requests = 192;
    b.min_requests = 192;
    let cache = CacheConfig {
        policy: EvictPolicy::of(PolicyKind::Clock),
        adaptive: Some(AdaptiveConfig {
            hysteresis: 0.01,
            ..AdaptiveConfig::new([PolicyKind::Clock, PolicyKind::Lfu, PolicyKind::SharingAware])
        }),
        epoch_accesses: 128,
        ..CacheConfig::paper()
    };
    let r = run_experiment(&spec_with(cache, 11), &[a, b]);
    assert!(r.completed);
    assert_eq!(r.total_verify_failures(), 0);
    assert_eq!(r.policy.as_deref(), Some("adaptive"));
    let stats = r.adaptive.as_ref().expect("adaptive stats");
    assert!(stats.epochs > 0, "no epochs ticked");
    assert_eq!(stats.switches as usize, stats.switch_log.len(), "switch log out of sync");
    for s in &stats.switch_log {
        assert_ne!(s.from, s.to, "switch to the same policy");
        assert!(s.to_rate >= s.from_rate, "switch against the ghost evidence");
    }
    assert_eq!(stats.ghost_rates.len(), 3, "one ghost ledger per candidate");
    let total = r.cache.as_ref().unwrap().hits + r.cache.as_ref().unwrap().misses;
    for g in &stats.ghost_rates {
        assert!(g.hits + g.misses > 0, "{}: ghost saw no traffic", g.kind);
        assert!(
            g.hits + g.misses <= total,
            "{}: ghost saw more accesses than the live cache",
            g.kind
        );
    }
}

/// Strict quotas stay enforced under the meta-policy: across switches and
/// the tuner's quota moves, no app is resident past the quota it ends
/// with (a shrink evicts the loser's clean frames at once; these readers
/// dirty none).
#[test]
fn adaptive_switching_preserves_strict_quotas() {
    let mut a = reader("a", 0.0, 1.1);
    let mut b = reader("b", 0.0, 0.0);
    a.min_requests = 96;
    b.min_requests = 96;
    let cache = CacheConfig {
        policy: EvictPolicy::of(PolicyKind::Clock),
        partitioning: PartitionConfig::strict([(0u32, 180), (1u32, 120)]),
        adaptive: Some(AdaptiveConfig {
            hysteresis: 0.0,
            ..AdaptiveConfig::new([PolicyKind::Clock, PolicyKind::ExactLru, PolicyKind::Lfu])
        }),
        epoch_accesses: 64,
        ..CacheConfig::paper()
    };
    let r = run_experiment(&spec_with(cache, 13), &[a, b]);
    assert!(r.completed && r.total_verify_failures() == 0);
    let usage = r.app_usage.as_deref().unwrap();
    let stats = r.adaptive.as_ref().expect("adaptive run");
    let moves = &stats.quota_log;
    assert!(!moves.is_empty(), "the tuner runs under strict quotas");
    assert_eq!(stats.quota_moves as usize, moves.len(), "quota log out of sync");
    assert_eq!(stats.switches as usize, stats.switch_log.len(), "switch log out of sync");
    // The log replays to the ledger: both readers run on node 0, so its
    // module's ledger holds each app's whole quota, and every move it
    // applied is logged once.
    for (app, configured) in [(0u32, 180i64), (1, 120)] {
        let net: i64 = moves
            .iter()
            .map(|m| m.frames as i64 * (i64::from(m.to.0 == app) - i64::from(m.from.0 == app)))
            .sum();
        let quota = usage.iter().find(|u| u.app == app).expect("app usage").quota;
        assert_eq!(configured + net, quota as i64, "app {app}: quota log and ledger disagree");
    }
    for u in usage {
        assert!(u.quota > 0, "app {} lost its quota", u.app);
        assert!(
            u.resident <= u.quota,
            "app {}: residency {} exceeds strict quota {} under switching",
            u.app,
            u.resident,
            u.quota
        );
    }
}
