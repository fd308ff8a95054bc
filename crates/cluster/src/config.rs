//! JSON experiment configuration — the serde face of [`ClusterSpec`] +
//! [`AppSpec`] used by the `experiment` binary and round-tripped by the
//! configuration robustness tests.
//!
//! Every field beyond `apps` is optional with a backward-compatible
//! default, so configs written for earlier revisions (no `policy`, no
//! `partitioning`, no per-app `quota_blocks`) parse unchanged.
//!
//! ```json
//! {
//!   "cluster": { "nodes": 6, "caching": true, "seed": 42,
//!                "cache_blocks": 300, "fabric": "hub",
//!                "policy": "clock", "clean_first": true,
//!                "partitioning": "strict" },
//!   "apps": [
//!     { "name": "a", "nodes": [0,1], "total_mb": 6, "request_kb": 64,
//!       "mode": "read", "locality": 0.5, "sharing": 0.5,
//!       "hotspot": 0.0, "quota_blocks": 200 }
//!   ]
//! }
//! ```
//!
//! `partitioning` selects the frame-quota mode (`shared` — the default —,
//! `strict`, or `soft`); each app's `quota_blocks` is its frame quota
//! (`0`, the default, leaves the app unconstrained). Quotas bind by app
//! *index*: the `i`-th entry of `apps` is application instance `AppId(i)`.
//!
//! What is settable is exactly the fields below: in `cluster`, `nodes`,
//! `caching`, `seed`, `cache_blocks`, `fabric`, `file_mb`, `policy`,
//! `clean_first`, `partitioning`, `shards`, `adaptive.{candidates,
//! epoch_accesses, hysteresis, quota_step}` and `telemetry.enabled`; per
//! app, the fields of [`AppCfg`] and [`PhaseCfg`]. The kernel threads'
//! timings, the stripe unit, the trace-ring capacity and the 15 ms fetch
//! SLO target are constants of the crates that use them; the quota tuner
//! runs exactly when the apps have quotas and never shrinks a quota below
//! one frame.
//!
//! Unknown keys are ignored, so retired keys still parse and mean
//! nothing: the whole `cluster.cooperative` section and the whole
//! `telemetry.anomaly` section (retired with the mechanisms they
//! configured), and `telemetry.trace_capacity`, the whole `telemetry.slo`
//! section, `adaptive.quota_tuning` and `adaptive.quota_floor` (retired
//! when they became constants or derived values).

use crate::builder::ClusterSpec;
use kcache::{
    AdaptiveConfig, CacheConfig, EvictPolicy, PartitionConfig, PartitionMode, PolicyKind,
};
use serde::{Deserialize, Serialize};
use sim_core::Dur;
use sim_net::{NetConfig, NodeId};
use workload::{AppSpec, Mode, PhaseSpec};

/// Top-level JSON config: cluster knobs + application instances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    #[serde(default)]
    pub cluster: ClusterCfg,
    pub apps: Vec<AppCfg>,
}

/// Cluster-level knobs (all defaulted — `{}` is a valid cluster section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ClusterCfg {
    pub nodes: u16,
    pub caching: bool,
    pub seed: u64,
    pub cache_blocks: usize,
    /// "hub" (the paper's platform) or "switch".
    pub fabric: String,
    pub file_mb: u64,
    /// Replacement policy name (see `kcache::PolicyKind::parse`), or
    /// `"adaptive"` for the `kcache-adaptive` meta-policy configured by
    /// the `adaptive` section.
    pub policy: String,
    /// Prefer clean victims over dirty ones (the paper's choice).
    pub clean_first: bool,
    /// Frame-quota mode: "shared" (default), "strict", or "soft".
    pub partitioning: String,
    /// Buffer-manager shards per node (1 = the paper's single pool;
    /// defaulted so pre-sharding configs parse unchanged). Capacity and
    /// watermarks split across shards; blocks route by hash. More than one
    /// is a plain pool: quotas or `policy = "adaptive"` with it are an
    /// error.
    pub shards: usize,
    /// Meta-policy knobs (only consulted when `policy` is `"adaptive"`,
    /// except `epoch_accesses`, which also drives `SharingAware` referent
    /// decay under static policies). All defaulted: pre-adaptive configs
    /// parse unchanged.
    pub adaptive: AdaptiveCfg,
    /// Observability (the `kcache-obs` hub: metrics + trace ring).
    /// Defaulted off: pre-telemetry configs parse unchanged, and the
    /// cache hot paths keep their one never-taken branch.
    pub telemetry: TelemetryCfg,
}

/// The `telemetry` section of the cluster config. The derived default
/// is the off state, so pre-telemetry configs parse unchanged.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct TelemetryCfg {
    /// Wire a per-node [`kcache::ObsHub`] through every cache module,
    /// held by a [`kcache::obs::ClusterObs`].
    pub enabled: bool,
}

/// The `adaptive` section of the cluster config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct AdaptiveCfg {
    /// Candidate policy names; empty (the default) means all six built-in
    /// policies. The first candidate starts live.
    pub candidates: Vec<String>,
    /// Cache accesses per epoch; 0 picks the default (512) under
    /// `policy = "adaptive"` and disables epochs otherwise.
    pub epoch_accesses: usize,
    /// Ghost hit-rate advantage a challenger needs to trigger a switch.
    pub hysteresis: f64,
    /// Frames of quota moved per epoch by the tuner (which runs when the
    /// apps have quotas).
    pub quota_step: usize,
}

impl Default for AdaptiveCfg {
    fn default() -> Self {
        AdaptiveCfg { candidates: Vec::new(), epoch_accesses: 0, hysteresis: 0.02, quota_step: 8 }
    }
}

/// Default epoch length under `policy = "adaptive"` when the config does
/// not set one.
pub const DEFAULT_EPOCH_ACCESSES: usize = 512;

impl Default for ClusterCfg {
    fn default() -> Self {
        ClusterCfg {
            nodes: 6,
            caching: true,
            seed: 42,
            cache_blocks: 300,
            fabric: "hub".into(),
            file_mb: 16,
            policy: "clock".into(),
            clean_first: true,
            partitioning: "shared".into(),
            shards: 1,
            adaptive: AdaptiveCfg::default(),
            telemetry: TelemetryCfg::default(),
        }
    }
}

/// One application instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppCfg {
    pub name: String,
    pub nodes: Vec<u16>,
    pub total_mb: u64,
    pub request_kb: u32,
    /// "read" | "write" | "sync-write"
    pub mode: String,
    #[serde(default)]
    pub locality: f64,
    #[serde(default)]
    pub sharing: f64,
    /// Zipf skew of fresh accesses (0 = the paper's sequential walk).
    #[serde(default)]
    pub hotspot: f64,
    #[serde(default)]
    pub start_delay_ms: u64,
    /// Frame quota for this app under strict/soft partitioning
    /// (0 = unconstrained, the default — pre-partitioning configs parse
    /// unchanged).
    #[serde(default)]
    pub quota_blocks: usize,
    /// Phase schedule (empty, the default, keeps the instance-level
    /// locality/sharing/hotspot for the whole run).
    #[serde(default)]
    pub phases: Vec<PhaseCfg>,
}

/// One phase of a phase-shifting app (`workload::PhaseSpec` in JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseCfg {
    /// Per-process requests before the next phase starts.
    pub requests: u64,
    #[serde(default)]
    pub locality: f64,
    #[serde(default)]
    pub sharing: f64,
    #[serde(default)]
    pub hotspot: f64,
}

impl ExperimentConfig {
    /// Parse a JSON document.
    pub fn from_json(text: &str) -> Result<ExperimentConfig, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// The [`PartitionConfig`] this config describes: the cluster-level
    /// mode plus one quota per app that sets `quota_blocks` (bound by app
    /// index).
    pub fn partitioning(&self) -> Result<PartitionConfig, String> {
        let mode = PartitionMode::parse(&self.cluster.partitioning).ok_or_else(|| {
            format!(
                "unknown partitioning {:?} (use \"shared\", \"strict\" or \"soft\")",
                self.cluster.partitioning
            )
        })?;
        let quotas = self
            .apps
            .iter()
            .enumerate()
            .filter(|(_, a)| a.quota_blocks > 0)
            .map(|(i, a)| (i as u32, a.quota_blocks))
            .collect();
        Ok(PartitionConfig { mode, quotas })
    }

    /// The meta-policy configuration this config describes: `Some` under
    /// `policy = "adaptive"` (candidates parsed, defaulting to all six),
    /// `None` for a static policy.
    pub fn adaptive(&self) -> Result<Option<AdaptiveConfig>, String> {
        if self.cluster.policy != "adaptive" {
            return Ok(None);
        }
        let a = &self.cluster.adaptive;
        let candidates = if a.candidates.is_empty() {
            PolicyKind::ALL.to_vec()
        } else {
            a.candidates
                .iter()
                .map(|name| {
                    PolicyKind::parse(name)
                        .ok_or_else(|| format!("unknown adaptive candidate {name:?}"))
                })
                .collect::<Result<Vec<_>, String>>()?
        };
        if let Some((i, kind)) =
            candidates.iter().enumerate().find(|&(i, k)| candidates[..i].contains(k))
        {
            return Err(format!(
                "cluster.adaptive.candidates names {kind} twice (entry {i}): one ghost cache \
                 per policy"
            ));
        }
        // A rate advantage: below 0 any noise flips the live policy, above
        // 1 no challenger can ever win (and NaN compares false both ways).
        if !(0.0..=1.0).contains(&a.hysteresis) {
            return Err(format!(
                "cluster.adaptive.hysteresis is {}: a hit-rate advantage lies in 0..=1",
                a.hysteresis
            ));
        }
        Ok(Some(AdaptiveConfig { candidates, hysteresis: a.hysteresis, quota_step: a.quota_step }))
    }

    /// Lower the config into a runnable `(ClusterSpec, Vec<AppSpec>)`.
    /// Every config it accepts builds and runs: each app passes
    /// [`AppSpec::validate`], there is at least one, and each node's share
    /// of the files fits its disk.
    pub fn to_spec(&self) -> Result<(ClusterSpec, Vec<AppSpec>), String> {
        if self.apps.is_empty() {
            return Err("apps is empty: an experiment needs at least one app".into());
        }
        let adaptive = self.adaptive()?;
        let kind = match &adaptive {
            // The first candidate starts live; `EvictPolicy.kind` echoes it.
            Some(a) => a.candidates[0],
            None => PolicyKind::parse(&self.cluster.policy).ok_or_else(|| {
                format!(
                    "unknown policy {:?} (use \"adaptive\" or one of: {})",
                    self.cluster.policy,
                    PolicyKind::ALL.map(|k| k.name()).join(", ")
                )
            })?,
        };
        let epoch_accesses = match (&adaptive, self.cluster.adaptive.epoch_accesses) {
            (Some(_), 0) => DEFAULT_EPOCH_ACCESSES,
            (_, n) => n,
        };
        let partitioning = self.partitioning()?;
        let blocks = self.cluster.cache_blocks;
        let shards = self.cluster.shards.max(1);
        if self.cluster.caching {
            // Below two blocks the harvester's high watermark cannot fit.
            if blocks < 2 {
                return Err(format!("cluster.cache_blocks is {blocks}: a cache needs at least 2"));
            }
            if shards > blocks {
                return Err(format!(
                    "cluster.shards is {shards}, more than cluster.cache_blocks ({blocks})"
                ));
            }
            // More than one shard is a plain pool: no quotas, a static policy.
            if shards > 1 && partitioning.is_partitioned() {
                return Err(format!(
                    "cluster.shards is {shards}: cluster.partitioning {:?} with quotas needs one \
                     shard",
                    self.cluster.partitioning
                ));
            }
            if shards > 1 && adaptive.is_some() {
                return Err(format!(
                    "cluster.shards is {shards}: cluster.policy \"adaptive\" needs one shard"
                ));
            }
            partitioning.validate(blocks).map_err(|e| format!("apps[].quota_blocks: {e}"))?;
        }
        for a in &self.apps {
            if let Some(n) = a.nodes.iter().find(|&&n| n >= self.cluster.nodes) {
                return Err(format!(
                    "app {:?}: nodes names node {n}, but cluster.nodes is {}",
                    a.name, self.cluster.nodes
                ));
            }
        }
        // One hub per node: the builder hands each cache module its own
        // hub so trace pids separate by node and registries stay
        // contention-free; `ClusterObs` merges them back into a cluster
        // rollup at report time.
        let obs = self
            .cluster
            .telemetry
            .enabled
            .then(|| kcache::obs::ClusterObs::per_node(self.cluster.nodes as usize));
        let mut spec = ClusterSpec::paper(self.cluster.caching.then(|| CacheConfig {
            capacity_blocks: blocks,
            low_watermark: (blocks / 10).max(1),
            high_watermark: (blocks / 4).max(2),
            policy: EvictPolicy { kind, clean_first: self.cluster.clean_first },
            partitioning,
            adaptive: adaptive.clone(),
            epoch_accesses,
            shards,
            ..CacheConfig::paper()
        }));
        spec.obs = obs;
        spec.n_nodes = self.cluster.nodes;
        spec.seed = self.cluster.seed;
        spec.net = match self.cluster.fabric.as_str() {
            "hub" => NetConfig::hub_100mbps(),
            "switch" => NetConfig::switch_100mbps(),
            other => return Err(format!("unknown fabric {other:?} (use \"hub\" or \"switch\")")),
        };

        // A size whose byte count does not fit its type is an error, not
        // a silently wrapped size.
        let too_large = |field: String, n: u64| format!("{field} is {n}: too large in bytes");
        let file_mb = self.cluster.file_mb;
        let file_size = (file_mb.checked_mul(1 << 20))
            .ok_or_else(|| too_large("cluster.file_mb".into(), file_mb))?;
        let apps = self
            .apps
            .iter()
            .map(|a| {
                let field = |name| format!("app {:?}: {name}", a.name);
                let total_bytes = (a.total_mb.checked_mul(1 << 20))
                    .ok_or_else(|| too_large(field("total_mb"), a.total_mb))?;
                let request_size = (a.request_kb.checked_mul(1 << 10))
                    .ok_or_else(|| too_large(field("request_kb"), a.request_kb.into()))?;
                let app = AppSpec {
                    name: a.name.clone(),
                    nodes: a.nodes.iter().map(|&n| NodeId(n)).collect(),
                    total_bytes,
                    request_size,
                    mode: match a.mode.as_str() {
                        "read" => Mode::Read,
                        "write" => Mode::Write,
                        "sync-write" => Mode::SyncWrite,
                        other => return Err(format!("unknown mode {other:?}")),
                    },
                    locality: a.locality,
                    sharing: a.sharing,
                    hotspot: a.hotspot,
                    shared_file: "shared".into(),
                    file_size,
                    start_delay: Dur::millis(a.start_delay_ms),
                    min_requests: 1,
                    phases: a
                        .phases
                        .iter()
                        .map(|p| PhaseSpec {
                            requests: p.requests,
                            locality: p.locality,
                            sharing: p.sharing,
                            hotspot: p.hotspot,
                        })
                        .collect(),
                };
                app.validate().map_err(|e| format!("app {:?}: {e}", a.name))?;
                Ok(app)
            })
            .collect::<Result<Vec<_>, String>>()?;
        // Every file is preloaded whole, so the files must fit the disks.
        if let Some((node, blocks)) = crate::builder::preload_overflow(&spec, &apps) {
            return Err(format!(
                "cluster.file_mb is {file_mb}: node {node}'s share of the apps' files needs at \
                 least {blocks} blocks, more than its disk's {}",
                spec.disk.capacity_blocks
            ));
        }
        Ok((spec, apps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pre_partitioning_config_parses_unchanged() {
        // A PR-2-era config: no partitioning anywhere.
        let cfg = ExperimentConfig::from_json(
            r#"{
                "cluster": { "nodes": 4, "caching": true, "seed": 7, "policy": "arc" },
                "apps": [
                    { "name": "a", "nodes": [0, 1], "total_mb": 2,
                      "request_kb": 64, "mode": "read", "locality": 0.5 }
                ]
            }"#,
        )
        .expect("old config must parse");
        assert_eq!(cfg.cluster.partitioning, "shared");
        assert_eq!(cfg.apps[0].quota_blocks, 0);
        let p = cfg.partitioning().unwrap();
        assert!(!p.is_partitioned(), "defaults reproduce the shared pool");
        let (spec, apps) = cfg.to_spec().unwrap();
        assert_eq!(spec.n_nodes, 4);
        assert!(!spec.cache.as_ref().unwrap().partitioning.is_partitioned());
        assert_eq!(apps.len(), 1);
    }

    #[test]
    fn quota_config_lowers_to_partitioning() {
        let cfg = ExperimentConfig::from_json(
            r#"{
                "cluster": { "partitioning": "strict", "cache_blocks": 100 },
                "apps": [
                    { "name": "victim", "nodes": [0], "total_mb": 1, "request_kb": 64,
                      "mode": "read", "quota_blocks": 80 },
                    { "name": "scanner", "nodes": [0], "total_mb": 1, "request_kb": 64,
                      "mode": "read", "quota_blocks": 20 }
                ]
            }"#,
        )
        .unwrap();
        let p = cfg.partitioning().unwrap();
        assert_eq!(p.mode, PartitionMode::Strict);
        assert_eq!(p.quotas.get(&0), Some(&80));
        assert_eq!(p.quotas.get(&1), Some(&20));
        let (spec, _) = cfg.to_spec().unwrap();
        assert_eq!(spec.cache.as_ref().unwrap().partitioning, p);
    }

    #[test]
    fn bad_partitioning_mode_is_rejected() {
        let cfg = ExperimentConfig::from_json(
            r#"{ "cluster": { "partitioning": "nope" },
                 "apps": [ { "name": "a", "nodes": [0], "total_mb": 1,
                             "request_kb": 64, "mode": "read" } ] }"#,
        )
        .unwrap();
        assert!(cfg.partitioning().is_err());
        assert!(cfg.to_spec().is_err());
    }

    #[test]
    fn adaptive_config_lowers_and_defaults() {
        let cfg = ExperimentConfig::from_json(
            r#"{
                "cluster": { "policy": "adaptive",
                             "adaptive": { "candidates": ["clock", "lfu", "sharing-aware"],
                                           "epoch_accesses": 256, "hysteresis": 0.05,
                                           "quota_step": 4 } },
                "apps": [ { "name": "a", "nodes": [0], "total_mb": 1,
                            "request_kb": 64, "mode": "read",
                            "phases": [ { "requests": 32, "hotspot": 1.2 },
                                        { "requests": 32, "sharing": 1.0 } ] } ]
            }"#,
        )
        .unwrap();
        let a = cfg.adaptive().unwrap().expect("adaptive config");
        assert_eq!(
            a.candidates,
            vec![PolicyKind::Clock, PolicyKind::Lfu, PolicyKind::SharingAware]
        );
        assert_eq!(a.hysteresis, 0.05);
        assert_eq!(a.quota_step, 4);
        let (spec, apps) = cfg.to_spec().unwrap();
        let cache = spec.cache.as_ref().unwrap();
        assert_eq!(cache.epoch_accesses, 256);
        assert_eq!(cache.policy.kind, PolicyKind::Clock, "first candidate starts live");
        assert_eq!(cache.policy_label(), "adaptive");
        assert_eq!(apps[0].phases.len(), 2);
        assert_eq!(apps[0].phases[0].hotspot, 1.2);
        assert_eq!(apps[0].phases[1].sharing, 1.0);

        // Bare "adaptive" defaults: all six candidates, default epoch.
        let bare = ExperimentConfig::from_json(
            r#"{ "cluster": { "policy": "adaptive" },
                 "apps": [ { "name": "a", "nodes": [0], "total_mb": 1,
                             "request_kb": 64, "mode": "read" } ] }"#,
        )
        .unwrap();
        let a = bare.adaptive().unwrap().unwrap();
        assert_eq!(a.candidates, PolicyKind::ALL.to_vec());
        let (spec, _) = bare.to_spec().unwrap();
        assert_eq!(spec.cache.as_ref().unwrap().epoch_accesses, DEFAULT_EPOCH_ACCESSES);

        // A static-policy config ignores the adaptive section entirely.
        let stat = ExperimentConfig::from_json(
            r#"{ "cluster": { "policy": "arc" },
                 "apps": [ { "name": "a", "nodes": [0], "total_mb": 1,
                             "request_kb": 64, "mode": "read" } ] }"#,
        )
        .unwrap();
        assert!(stat.adaptive().unwrap().is_none());
        assert!(stat.to_spec().unwrap().0.cache.as_ref().unwrap().adaptive.is_none());

        // Unknown candidates are rejected.
        let bad = ExperimentConfig::from_json(
            r#"{ "cluster": { "policy": "adaptive",
                              "adaptive": { "candidates": ["nope"] } },
                 "apps": [ { "name": "a", "nodes": [0], "total_mb": 1,
                             "request_kb": 64, "mode": "read" } ] }"#,
        )
        .unwrap();
        assert!(bad.adaptive().is_err());
        assert!(bad.to_spec().is_err());
    }

    #[test]
    fn cooperative_config_lowers_and_round_trips() {
        // The cooperative tier is retired: its section still parses, to
        // the same config as one without it, whatever it holds.
        let plain = ExperimentConfig::from_json(
            r#"{ "apps": [ { "name": "a", "nodes": [0, 1], "total_mb": 1,
                             "request_kb": 64, "mode": "read", "sharing": 1.0 } ] }"#,
        )
        .unwrap();
        for section in [
            r#"{ "enabled": true }"#,
            r#"{ "enabled": false }"#,
            r#"{ "enabled": true, "directory": "hint" }"#,
            r#"{ "enabled": true, "directory": "authoritative" }"#,
            r#"{ "enabled": true, "directory": "psychic" }"#,
        ] {
            let old = ExperimentConfig::from_json(&format!(
                r#"{{ "cluster": {{ "cooperative": {section} }},
                     "apps": [ {{ "name": "a", "nodes": [0, 1], "total_mb": 1,
                                 "request_kb": 64, "mode": "read", "sharing": 1.0 }} ] }}"#
            ))
            .unwrap();
            assert_eq!(old, plain, "cooperative {section}");
            let (spec, apps) = old.to_spec().unwrap();
            let (plain_spec, plain_apps) = plain.to_spec().unwrap();
            assert_eq!(format!("{spec:?}"), format!("{plain_spec:?}"), "cooperative {section}");
            assert_eq!(format!("{apps:?}"), format!("{plain_apps:?}"), "cooperative {section}");
        }

        // serialize → parse is the identity, and the section is not written back.
        let json = serde_json::to_string_pretty(&plain).unwrap();
        assert!(!json.contains("cooperative"), "{json}");
        assert_eq!(ExperimentConfig::from_json(&json).unwrap(), plain);
    }

    #[test]
    fn telemetry_config_defaults_off_and_lowers_to_a_hub() {
        // Pre-telemetry configs parse unchanged and carry no hubs.
        let old = ExperimentConfig::from_json(
            r#"{ "apps": [ { "name": "a", "nodes": [0], "total_mb": 1,
                             "request_kb": 64, "mode": "read" } ] }"#,
        )
        .unwrap();
        assert!(!old.cluster.telemetry.enabled);
        let (old_spec, _) = old.to_spec().unwrap();
        assert!(old_spec.obs.is_none());

        let cfg = ExperimentConfig::from_json(
            r#"{ "cluster": { "nodes": 3, "telemetry": { "enabled": true } },
                 "apps": [ { "name": "a", "nodes": [0], "total_mb": 1,
                             "request_kb": 64, "mode": "read" } ] }"#,
        )
        .unwrap();
        let (spec, _) = cfg.to_spec().unwrap();
        let cluster = spec.obs.as_ref().expect("telemetry lowers to per-node hubs");
        assert_eq!(cluster.node_count(), 3);
        assert_eq!(cluster.trace_dropped(), 0);

        // serialize → parse is the identity.
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        assert_eq!(ExperimentConfig::from_json(&json).unwrap(), cfg);
    }

    #[test]
    fn json_round_trip_preserves_quotas() {
        let mut cfg = ExperimentConfig {
            cluster: ClusterCfg { partitioning: "soft".into(), ..ClusterCfg::default() },
            apps: vec![AppCfg {
                name: "a".into(),
                nodes: vec![0, 1],
                total_mb: 2,
                request_kb: 64,
                mode: "read".into(),
                locality: 0.25,
                sharing: 0.5,
                hotspot: 0.9,
                start_delay_ms: 3,
                quota_blocks: 123,
                phases: Vec::new(),
            }],
        };
        cfg.cluster.seed = 99;
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back = ExperimentConfig::from_json(&json).unwrap();
        assert_eq!(back, cfg, "serialize → parse must be the identity");
    }

    #[test]
    fn files_larger_than_a_disk_are_an_error_naming_file_mb() {
        // 8 GiB files on two nodes: over 4 GiB, but each node's share fits.
        let big = r#"{"cluster":{"nodes":2,"caching":false,"seed":1,"file_mb":8192},
            "apps":[{"name":"a","nodes":[0,1],"total_mb":4,"request_kb":64,"mode":"read",
                     "locality":0.0}]}"#;
        assert!(ExperimentConfig::from_json(big).unwrap().to_spec().is_ok());
        // Five apps' files and the shared one on one node's 20 GB disk.
        let apps = (0..5)
            .map(|i| {
                format!(
                    r#"{{"name":"a{i}","nodes":[0],"total_mb":1,"request_kb":64,"mode":"read"}}"#
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let full = format!(r#"{{"cluster":{{"nodes":1,"file_mb":4095}},"apps":[{apps}]}}"#);
        let err = ExperimentConfig::from_json(&full).unwrap().to_spec().unwrap_err();
        assert!(err.starts_with("cluster.file_mb is 4095: node 0"), "{err}");
    }
}
