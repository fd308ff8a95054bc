//! The simulated side: `ExperimentConfig::from_json` → `to_spec` →
//! (`run_experiment` | `build` → `Engine::run_until` → downcast reads of
//! `Coordinator`, `CacheModule`, `Iod`, `Disk`, `Fabric`, `Mgr`).

use crate::workloads::SimInput;
use cluster_harness::{build, run_experiment, Cluster, ClusterSpec, ExperimentConfig};
use kcache::obs::{ClusterObs, QuantileSnapshot};
use kcache::{CacheModule, CacheStats, ModuleStats, PolicyStats};
use pvfs::{Iod, IodStats, Mgr, MgrStats};
use sim_core::{Dur, SimTime, StopReason, Tally};
use sim_disk::Disk;
use sim_net::{Fabric, FabricStats, TrafficClass};
use std::sync::Arc;
use workload::{AppSpec, Coordinator, Mode};

/// A parsed and lowered experiment config, ready to run any number of
/// times.
pub struct Lowered {
    spec: ClusterSpec,
    apps: Vec<AppSpec>,
}

/// `ExperimentConfig::from_json` → `to_spec()`, plus the one knob the
/// JSON surface does not carry (`preload_warm`).
pub fn lower(input: &SimInput) -> Result<Lowered, String> {
    let cfg = ExperimentConfig::from_json(&input.config_json)?;
    let (mut spec, apps) = cfg.to_spec()?;
    if input.cold {
        spec.preload_warm = false;
    }
    Ok(Lowered { spec, apps })
}

/// The numbers every rep of one seed should reproduce bit for bit. Built
/// the same way from a whole `run_experiment` call and from the sliced
/// drive, so the two paths check each other too.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fingerprint(Vec<u64>);

/// What the user of the simulated system sees of one run, on the
/// simulated clock.
#[derive(Debug, Clone, Copy)]
pub struct SimSeen {
    /// Application requests completed.
    pub requests_done: u64,
    pub verify_failures: u64,
    pub completed: bool,
    /// Σ instance bytes ÷ simulated time until the last process finished,
    /// in 10⁶ bytes per simulated second.
    pub bandwidth_mbps: f64,
    /// Request-weighted mean latency over every instance, simulated ms.
    pub request_latency_mean_ms: f64,
}

/// What a timed (untraced) rep returns.
pub struct WholeRun {
    pub fingerprint: Fingerprint,
    pub seen: SimSeen,
}

fn bandwidth_mbps(bytes: u64, sim_end_ns: u64) -> f64 {
    bytes as f64 / 1e6 / (sim_end_ns as f64 / 1e9)
}

impl Lowered {
    /// Application requests one rep plans to issue (Σ `n_requests × p`).
    pub fn planned_requests(&self) -> u64 {
        self.apps.iter().map(|a| a.n_requests() * a.p() as u64).sum()
    }

    /// One timed op of a simulated workload: the whole `run_experiment`
    /// call (build + run + extraction) — what one figure point costs.
    pub fn run_whole(&self) -> WholeRun {
        let r = run_experiment(&self.spec, &self.apps);
        let cache = r.cache.clone().unwrap_or_default();
        let mut fp = vec![r.events, r.sim_end.nanos(), cache.hits, cache.misses, cache.insertions];
        let (mut requests, mut bytes, mut latency_sum_s) = (0, 0, 0.0);
        for (i, app) in r.instances.iter().zip(&self.apps) {
            fp.extend([
                i.requests,
                i.bytes,
                i.verify_failures,
                i.read_latency_s.to_bits(),
                i.write_latency_s.to_bits(),
                i.makespan_s.to_bits(),
            ]);
            requests += i.requests;
            bytes += i.bytes;
            let mean_s = match app.mode {
                Mode::Read => i.read_latency_s,
                Mode::Write | Mode::SyncWrite => i.write_latency_s,
            };
            latency_sum_s += mean_s * i.requests as f64;
        }
        WholeRun {
            fingerprint: Fingerprint(fp),
            seen: SimSeen {
                requests_done: requests,
                verify_failures: r.total_verify_failures(),
                completed: r.completed,
                bandwidth_mbps: bandwidth_mbps(bytes, r.sim_end.nanos()),
                request_latency_mean_ms: latency_sum_s / requests.max(1) as f64 * 1e3,
            },
        }
    }

    /// `build()`: wire the cluster, ready for [`Built::run_slice`].
    pub fn build(&self) -> Built {
        Built { cluster: build(&self.spec, &self.apps), horizon: SimTime::ZERO }
    }

    /// Drain the program's own sim-clock trace rings (the telemetry plane
    /// `to_spec()` created; `None` for untraced configs).
    pub fn drain_trace(&self, render_chrome_json: bool) -> Option<TraceDump> {
        let obs: &Arc<ClusterObs> = self.spec.obs.as_ref()?;
        let events = obs.drain_trace();
        Some(TraceDump {
            events: events.len() as u64,
            dropped: obs.trace_dropped(),
            chrome_json: render_chrome_json.then(|| kcache::obs::chrome_trace_json(&events)),
        })
    }
}

/// What the program's telemetry plane recorded during one traced rep.
pub struct TraceDump {
    pub events: u64,
    pub dropped: u64,
    pub chrome_json: Option<String>,
}

/// A built cluster, driven in slices of simulated time.
pub struct Built {
    cluster: Cluster,
    horizon: SimTime,
}

/// Frame accounting of one buffer manager, for the conservation check.
#[derive(Debug, Clone, Copy)]
pub struct Frames {
    pub capacity: u64,
    pub resident: u64,
    pub free: u64,
}

/// Everything the benchmark reads out of a finished cluster, layer by
/// layer. Plain counters only; the metric arithmetic lives in `simrun`.
pub struct SimCounters {
    pub fingerprint: Fingerprint,
    pub seen: SimSeen,
    // sim-core
    pub events: u64,
    // workload
    pub bytes: u64,
    /// Per-request latency in ns, merged over every process.
    pub read_latency: Tally,
    pub write_latency: Tally,
    // kcache (manager), summed over modules
    pub cache: CacheStats,
    pub policy: PolicyStats,
    pub frames: Vec<Frames>,
    pub ring_overflows: u64,
    // kcache-adaptive
    pub adaptive_epochs: u64,
    pub adaptive_switches: u64,
    pub adaptive_quota_moves: u64,
    // kcache (module), summed over modules
    pub module: ModuleStats,
    /// p99 block-fetch latency per wire tier from the program's own
    /// quantile sketches, simulated ns (0 without telemetry or traffic).
    pub fetch_default_p99_ns: u64,
    pub fetch_peer_p99_ns: u64,
    // pvfs
    pub iod: IodStats,
    pub mgr: MgrStats,
    // sim-disk
    pub pagecache_hits: u64,
    pub pagecache_misses: u64,
    pub disk_blocks_read: u64,
    pub disk_blocks_written: u64,
    pub disk_utilization_max: f64,
    pub disk_latency_p99_ns: u64,
    // sim-net
    pub fabric: FabricStats,
    pub medium_utilization: f64,
}

impl Built {
    /// Advance the simulation by one slice (1 s of simulated time);
    /// `true` once the run has ended (all processes done, or nothing left
    /// to do).
    pub fn run_slice(&mut self) -> bool {
        self.horizon += Dur::secs(1);
        self.cluster.engine.run_until(self.horizon).stop != StopReason::Horizon
    }

    /// Read every layer's public counters out of the finished cluster.
    pub fn extract(&self, lowered: &Lowered) -> SimCounters {
        let c = &self.cluster;
        let eng = &c.engine;
        let coord = eng.actor_as::<Coordinator>(c.coordinator).expect("coordinator downcast");

        let mut fp_instances = Vec::new();
        let (mut read_all, mut write_all) = (Tally::new(), Tally::new());
        let (mut requests_done, mut bytes, mut verify_failures) = (0, 0, 0);
        for i in 0..lowered.apps.len() as u32 {
            // Same merge order as `run_experiment`, so the means agree to
            // the last bit.
            let (mut read, mut write) = (Tally::new(), Tally::new());
            let (mut req, mut by, mut vf) = (0, 0, 0);
            for p in coord.results().iter().filter(|r| r.instance == i) {
                read.merge(&p.read_latency);
                write.merge(&p.write_latency);
                req += p.requests;
                by += p.bytes;
                vf += p.verify_failures;
            }
            let makespan_s =
                coord.instance_makespan(i).map_or(0.0, |(s, e)| e.since(s).as_secs_f64());
            fp_instances.extend([
                req,
                by,
                vf,
                (read.mean() / 1e9).to_bits(),
                (write.mean() / 1e9).to_bits(),
                makespan_s.to_bits(),
            ]);
            read_all.merge(&read);
            write_all.merge(&write);
            requests_done += req;
            bytes += by;
            verify_failures += vf;
        }

        let mut cache = CacheStats::default();
        let mut policy = PolicyStats::default();
        let mut module = ModuleStats::default();
        let mut frames = Vec::new();
        let mut ring_overflows = 0;
        let (mut epochs, mut switches, mut quota_moves) = (0, 0, 0);
        let (mut fetch_default, mut fetch_peer) =
            (None::<QuantileSnapshot>, None::<QuantileSnapshot>);
        for &m in c.modules.iter().flatten() {
            let md = eng.actor_as::<CacheModule>(m).expect("module downcast");
            let mgr = md.cache();
            mgr.obs_flush();
            add_cache_stats(&mut cache, &mgr.stats());
            policy.merge(&mgr.policy_stats());
            add_module_stats(&mut module, md.stats());
            frames.push(Frames {
                capacity: mgr.capacity() as u64,
                resident: mgr.resident() as u64,
                free: mgr.free_frames() as u64,
            });
            ring_overflows += mgr.event_ring_overflows();
            if let Some(a) = mgr.adaptive_stats() {
                epochs += a.epochs;
                switches += a.switches;
                quota_moves += a.quota_moves;
            }
            for (class, snap, _target, _burned) in md.fetch_latency_sketches().unwrap_or_default() {
                let acc = match class {
                    TrafficClass::Peer => &mut fetch_peer,
                    _ => &mut fetch_default,
                };
                match acc {
                    Some(a) => a.merge(&snap),
                    None => *acc = Some(snap),
                }
            }
        }

        let mut iod = IodStats::default();
        let (mut pagecache_hits, mut pagecache_misses) = (0, 0);
        for &i in &c.iods {
            let d = eng.actor_as::<Iod>(i).expect("iod downcast");
            add_iod_stats(&mut iod, d.stats());
            pagecache_hits += d.page_cache().stats().hits;
            pagecache_misses += d.page_cache().stats().misses;
        }

        // `Cluster` does not list its disks; the builder adds them before
        // the coordinator, so scan that id range for `Disk` actors.
        let now = eng.now();
        let (mut disk_blocks_read, mut disk_blocks_written) = (0, 0);
        let (mut disk_utilization_max, mut disk_latency_p99_ns) = (0.0f64, 0);
        for id in 0..=c.coordinator {
            if let Some(d) = eng.actor_as::<Disk>(id) {
                disk_blocks_read += d.stats().blocks_read;
                disk_blocks_written += d.stats().blocks_written;
                disk_utilization_max = disk_utilization_max.max(d.utilization(now));
                if d.latency_histogram().count() > 0 {
                    let p99 = d.latency_histogram().quantile_upper_bound(0.99).as_nanos();
                    disk_latency_p99_ns = disk_latency_p99_ns.max(p99);
                }
            }
        }

        let fabric = eng.actor_as::<Fabric>(c.fabric).expect("fabric downcast");
        let mgr = eng.actor_as::<Mgr>(c.mgr).expect("mgr downcast");
        let events = eng.events_dispatched();

        let mut fp = vec![events, now.nanos(), cache.hits, cache.misses, cache.insertions];
        fp.extend(fp_instances);
        let latency_sum_ns = read_all.sum() + write_all.sum();
        SimCounters {
            fingerprint: Fingerprint(fp),
            seen: SimSeen {
                requests_done,
                verify_failures,
                completed: coord.is_complete(),
                bandwidth_mbps: bandwidth_mbps(bytes, now.nanos()),
                request_latency_mean_ms: latency_sum_ns / requests_done.max(1) as f64 / 1e6,
            },
            events,
            bytes,
            read_latency: read_all,
            write_latency: write_all,
            cache,
            policy,
            frames,
            ring_overflows,
            adaptive_epochs: epochs,
            adaptive_switches: switches,
            adaptive_quota_moves: quota_moves,
            module,
            fetch_default_p99_ns: fetch_default.map_or(0, |s| s.quantile(0.99)),
            fetch_peer_p99_ns: fetch_peer.map_or(0, |s| s.quantile(0.99)),
            iod,
            mgr: mgr.stats().clone(),
            pagecache_hits,
            pagecache_misses,
            disk_blocks_read,
            disk_blocks_written,
            disk_utilization_max,
            disk_latency_p99_ns,
            fabric: fabric.stats().clone(),
            medium_utilization: fabric.medium_utilization(now),
        }
    }
}

fn add_cache_stats(acc: &mut CacheStats, s: &CacheStats) {
    acc.hits += s.hits;
    acc.misses += s.misses;
    acc.insertions += s.insertions;
    acc.writes_absorbed += s.writes_absorbed;
    acc.writes_passthrough += s.writes_passthrough;
    acc.evictions_clean += s.evictions_clean;
    acc.evictions_dirty += s.evictions_dirty;
    acc.flush_blocks += s.flush_blocks;
    acc.invalidated += s.invalidated;
    acc.invalidated_dirty += s.invalidated_dirty;
}

/// Only the `ModuleStats` fields a metric reads.
fn add_module_stats(acc: &mut ModuleStats, s: &ModuleStats) {
    acc.reads_intercepted += s.reads_intercepted;
    acc.full_hits += s.full_hits;
    acc.request_splits += s.request_splits;
    acc.dedup_blocks += s.dedup_blocks;
    acc.bytes_passthrough += s.bytes_passthrough;
    acc.flush_msgs += s.flush_msgs;
    acc.urgent_flush_blocks += s.urgent_flush_blocks;
    acc.harvest_runs += s.harvest_runs;
    acc.remote_hit_blocks += s.remote_hit_blocks;
    acc.remote_stale_blocks += s.remote_stale_blocks;
    acc.disk_fetch_blocks += s.disk_fetch_blocks;
    acc.disk_fetch_ns += s.disk_fetch_ns;
    acc.remote_fetch_ns += s.remote_fetch_ns;
}

/// Only the `IodStats` fields a metric reads.
fn add_iod_stats(acc: &mut IodStats, s: &IodStats) {
    acc.read_reqs += s.read_reqs;
    acc.write_reqs += s.write_reqs;
    acc.flush_reqs += s.flush_reqs;
    acc.bytes_read += s.bytes_read;
    acc.invalidations_sent += s.invalidations_sent;
}
