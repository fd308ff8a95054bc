//! Cluster assembly: wires engine, fabric, node network stacks, disks,
//! iods, the mgr, optional cache modules, and application processes into a
//! runnable simulation — the model of the paper's 6-node Linux cluster.

use kcache::obs::ClusterObs;
use kcache::{CacheConfig, CacheModule};
use pvfs::{
    ByteRange, ClientConfig, CostModel, FileHandle, Iod, Mgr, PvfsClient, PvfsConfig, StripePolicy,
    CACHE_PORT, CLIENT_PORT_BASE, IOD_FLUSH_PORT, IOD_PORT, MGR_PORT,
};
use sim_core::{ActorId, DetRng, Dur, Engine, FifoResource, SharedResource};
use sim_disk::{DiskGeometry, DiskSched};
use sim_net::{Fabric, NetConfig, NodeId, NodeNet, Port};
use workload::{partition_of, AppProcess, AppSpec, Coordinator, Kickoff, ProcPlan};

/// Whole-cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of nodes; every node runs an iod, node 0 also runs the mgr.
    pub n_nodes: u16,
    pub net: NetConfig,
    pub costs: CostModel,
    pub pvfs: PvfsConfig,
    /// `Some` = the paper's caching version; `None` = original PVFS.
    pub cache: Option<CacheConfig>,
    pub disk: DiskGeometry,
    pub disk_sched: DiskSched,
    pub seed: u64,
    /// Federated telemetry: one [`kcache::ObsHub`] per node, so trace
    /// pids separate by node and registries stay contention-free. When
    /// set, the builder hands each cache module (and each iod) its
    /// node's hub, overriding `cache.obs`; when `None`, any single hub
    /// already in `cache.obs` is shared by every module and iod (the
    /// pre-federation quickstart shape).
    pub obs: Option<std::sync::Arc<ClusterObs>>,
    /// Verify every read against the deterministic file pattern.
    pub verify_reads: bool,
    /// Preload file contents into the iods' page caches (memory-resident
    /// files, the platform state the paper measures against).
    pub preload_warm: bool,
}

impl ClusterSpec {
    /// The paper's platform: 6 nodes, 100 Mbps hub, P-III costs.
    pub fn paper(cache: Option<CacheConfig>) -> ClusterSpec {
        ClusterSpec {
            n_nodes: 6,
            net: NetConfig::hub_100mbps(),
            costs: CostModel::pentium3_800(),
            pvfs: PvfsConfig::default(),
            cache,
            disk: DiskGeometry::maxtor_20gb(),
            disk_sched: DiskSched::CLook,
            seed: 42,
            obs: None,
            verify_reads: true,
            preload_warm: true,
        }
    }
}

/// A built cluster, ready to run.
pub struct Cluster {
    pub engine: Engine,
    pub fabric: ActorId,
    pub mgr: ActorId,
    pub iods: Vec<ActorId>,
    pub modules: Vec<Option<ActorId>>,
    pub processes: Vec<ActorId>,
    pub coordinator: ActorId,
    pub cpus: Vec<SharedResource>,
}

/// Compute the locality-window size for a process: a fixed share of the
/// paper's cache capacity divided among the processes sharing a node, so
/// `l = 1` workloads stay cache-resident. Identical for caching and
/// no-caching runs (the *stream* must not depend on the system under test).
fn window_bytes(apps: &[AppSpec], d_proc: u32) -> u64 {
    let mut per_node = std::collections::HashMap::new();
    for a in apps {
        for n in &a.nodes {
            *per_node.entry(*n).or_insert(0u64) += 1;
        }
    }
    let max_procs = per_node.values().copied().max().unwrap_or(1).max(1);
    let cap = CacheConfig::paper().capacity_bytes() as u64;
    (cap / (5 * max_procs)).max(d_proc as u64)
}

/// Build a cluster and instantiate the given application instances on it.
pub fn build(spec: &ClusterSpec, apps: &[AppSpec]) -> Cluster {
    for a in apps {
        a.validate().unwrap_or_else(|e| panic!("bad app spec {}: {}", a.name, e));
        for n in &a.nodes {
            assert!(n.0 < spec.n_nodes, "app {} placed on missing node {:?}", a.name, n);
        }
    }
    // Frame quotas bind by application instance index (the AppId handed to
    // each cache module at registration); a quota naming a nonexistent
    // instance is a config bug, not an idle entry.
    if let Some(cache) = &spec.cache {
        cache
            .partitioning
            .validate(cache.capacity_blocks)
            .unwrap_or_else(|e| panic!("bad partitioning config: {e}"));
        for &id in cache.partitioning.quotas.keys() {
            assert!(
                (id as usize) < apps.len(),
                "quota for app instance {id}, but only {} instances are scheduled",
                apps.len()
            );
        }
    }
    let mut eng = Engine::new(spec.seed);
    let n = spec.n_nodes as usize;

    // Reserve the fabric and per-node dispatchers first (everyone needs
    // their ids).
    let fabric_id = eng.reserve_actor();
    let net_ids: Vec<ActorId> = (0..n).map(|_| eng.reserve_actor()).collect();
    eng.install(fabric_id, Box::new(Fabric::new(spec.net.clone(), net_ids.clone())));

    // Per-node CPUs and disks.
    let cpus: Vec<SharedResource> =
        (0..n).map(|i| FifoResource::shared(format!("cpu-{i}"))).collect();
    let disks: Vec<ActorId> = (0..n)
        .map(|_| eng.add_actor(Box::new(sim_disk::Disk::new(spec.disk.clone(), spec.disk_sched))))
        .collect();

    // iods on every node.
    let iods: Vec<ActorId> = (0..n)
        .map(|i| {
            eng.add_actor(Box::new(Iod::new(
                NodeId(i as u16),
                fabric_id,
                disks[i],
                cpus[i].clone(),
                spec.costs.clone(),
                spec.pvfs.clone(),
                spec.disk.capacity_blocks,
            )))
        })
        .collect();

    // mgr on node 0.
    let mgr_id = eng.add_actor(Box::new(Mgr::new(
        NodeId(0),
        fabric_id,
        cpus[0].clone(),
        spec.costs.clone(),
        StripePolicy {
            unit: spec.pvfs.stripe_unit,
            n_iods: spec.n_nodes as u32,
            total_iods: spec.n_nodes as u32,
        },
    )));

    // Cache modules on the nodes that run application processes (the
    // paper's modules live on client nodes).
    let client_nodes: std::collections::BTreeSet<u16> =
        apps.iter().flat_map(|a| a.nodes.iter().map(|n| n.0)).collect();
    let mut modules: Vec<Option<ActorId>> = vec![None; n];
    if let Some(cache_cfg) = &spec.cache {
        for &node in &client_nodes {
            let mut cfg = cache_cfg.clone();
            if let Some(cluster_obs) = &spec.obs {
                // Per-node hubs: each module records into its own ring
                // and registry, keyed by node in the trace pid.
                cfg.obs = Some(cluster_obs.hub_for(node as usize));
            }
            let module = CacheModule::new(
                NodeId(node),
                fabric_id,
                cpus[node as usize].clone(),
                spec.costs.clone(),
                cfg,
            );
            let m = eng.add_actor(Box::new(module));
            modules[node as usize] = Some(m);
        }
    }

    // Pre-create the benchmark's files at the mgr and preload their bytes
    // at the iods (setup happens outside measured time).
    let iod_nodes: Vec<NodeId> = (0..spec.n_nodes).map(NodeId).collect();
    let mut handles: Vec<FileHandle> = Vec::new();
    {
        let mut names: Vec<(String, u64)> = Vec::new();
        for a in apps {
            if !names.iter().any(|(x, _)| *x == a.shared_file) {
                names.push((a.shared_file.clone(), a.file_size));
            }
            names.push((a.private_file(), a.file_size));
        }
        let mgr = eng.actor_as_mut::<Mgr>(mgr_id).expect("mgr downcast");
        for (name, size) in &names {
            handles.push(mgr.install_file(name, *size));
        }
    }
    for h in &handles {
        let whole = ByteRange::new(0, h.size.min(u32::MAX as u64) as u32);
        let per_iod = pvfs::split_ranges(&h.stripe, whole);
        for (slot, ranges) in per_iod.iter().enumerate() {
            if ranges.is_empty() {
                continue;
            }
            let node = h.stripe.global_iod(slot as u32, spec.n_nodes as u32) as usize;
            let iod = eng.actor_as_mut::<Iod>(iods[node]).expect("iod downcast");
            iod.preload(h.fid, ranges, spec.preload_warm);
        }
    }

    // Application processes.
    let total_procs: usize = apps.iter().map(|a| a.nodes.len()).sum();
    let coordinator = eng.add_actor(Box::new(Coordinator::new(total_procs)));
    let mut processes = Vec::new();
    let mut port_counter: u16 = 0;
    for (inst, a) in apps.iter().enumerate() {
        for (k, &node) in a.nodes.iter().enumerate() {
            let port = Port(CLIENT_PORT_BASE + port_counter);
            port_counter += 1;
            let sock_target = modules[node.index()].unwrap_or(fabric_id);
            let client = PvfsClient::new(ClientConfig {
                node,
                port,
                mgr_node: NodeId(0),
                iod_nodes: iod_nodes.clone(),
                sock_target,
                fabric: fabric_id,
                cpu: cpus[node.index()].clone(),
                costs: spec.costs.clone(),
                caching: modules[node.index()].is_some(),
                verify_reads: spec.verify_reads,
            });
            let plan = ProcPlan {
                instance: inst as u32,
                proc_index: k as u32,
                shared_file: a.shared_file.clone(),
                private_file: a.private_file(),
                n_requests: a.n_requests(),
                d_proc: a.d_proc(),
                mode: a.mode,
                locality: a.locality,
                sharing: a.sharing,
                hotspot: a.hotspot,
                partition: partition_of(a.file_size, k as u32, a.p()),
                window_bytes: window_bytes(apps, a.d_proc()),
                start_delay: a.start_delay,
                phases: a.phases.clone(),
            };
            let rng = DetRng::stream(spec.seed, (inst as u64) << 16 | k as u64);
            let proc_id = eng.add_actor(Box::new(AppProcess::new(client, plan, rng, coordinator)));
            processes.push(proc_id);
        }
    }

    // Wire the node dispatchers: well-known service ports plus client reply
    // ports (bound to the cache module when one is installed — the paper's
    // transparent interception).
    {
        let mut port_counter: u16 = 0;
        let mut bindings: Vec<(usize, Port, ActorId)> = Vec::new();
        bindings.push((0, MGR_PORT, mgr_id));
        for (i, &iod) in iods.iter().enumerate() {
            bindings.push((i, IOD_PORT, iod));
            bindings.push((i, IOD_FLUSH_PORT, iod));
        }
        for (i, m) in modules.iter().enumerate() {
            if let Some(m) = *m {
                bindings.push((i, CACHE_PORT, m));
            }
        }
        for (inst, a) in apps.iter().enumerate() {
            for (k, &node) in a.nodes.iter().enumerate() {
                let port = Port(CLIENT_PORT_BASE + port_counter);
                let proc_id =
                    processes[apps[..inst].iter().map(|x| x.nodes.len()).sum::<usize>() + k];
                port_counter += 1;
                match modules[node.index()] {
                    Some(m) => {
                        bindings.push((node.index(), port, m));
                    }
                    None => bindings.push((node.index(), port, proc_id)),
                }
            }
        }
        for (i, &net_id) in net_ids.iter().enumerate() {
            let mut nn = NodeNet::new(NodeId(i as u16));
            for (_, port, target) in bindings.iter().filter(|(b, _, _)| *b == i) {
                nn.bind(*port, *target);
            }
            eng.install(net_id, Box::new(nn));
        }
    }

    // Register client processes with their node's cache module, tagged
    // with their application instance so the policy subsystem can tell
    // applications apart (the sharing-aware eviction signal).
    {
        let mut port_counter: u16 = 0;
        for (inst, a) in apps.iter().enumerate() {
            for &node in a.nodes.iter() {
                let port = Port(CLIENT_PORT_BASE + port_counter);
                let proc_id = processes[port_counter as usize];
                port_counter += 1;
                if let Some(m) = modules[node.index()] {
                    let module = eng.actor_as_mut::<CacheModule>(m).expect("module downcast");
                    module.register_client(port, proc_id, kcache::AppId(inst as u32));
                }
            }
        }
    }

    // Kick everything off.
    let mut jitter = DetRng::stream(spec.seed, 0xAD0FF);
    for (i, &p) in processes.iter().enumerate() {
        let _ = i;
        let mut delay = Dur::nanos(jitter.exp_nanos(50_000));
        // Respect per-instance start offsets.
        let inst = {
            let mut acc = 0usize;
            let mut found = 0usize;
            for (j, a) in apps.iter().enumerate() {
                if i < acc + a.nodes.len() {
                    found = j;
                    break;
                }
                acc += a.nodes.len();
            }
            found
        };
        delay += apps[inst].start_delay;
        eng.post(delay, p, Kickoff);
    }

    Cluster {
        engine: eng,
        fabric: fabric_id,
        mgr: mgr_id,
        iods,
        modules,
        processes,
        coordinator,
        cpus,
    }
}
