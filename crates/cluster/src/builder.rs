//! Cluster assembly: wires engine, fabric, disks, iods, the mgr, optional
//! cache modules, and application processes into a runnable simulation —
//! the model of the paper's 6-node Linux cluster.
//!
//! The fabric routes every message by destination port. Each node's iod is
//! its endpoint (it serves `IOD_PORT` and `IOD_FLUSH_PORT`); `MGR_PORT`,
//! `CACHE_PORT` and every client's reply port are bound. A client's port
//! is bound to its node's cache module when one is installed: the paper's
//! transparent interception.

use kcache::obs::ClusterObs;
use kcache::{CacheConfig, CacheModule};
use pvfs::{
    ByteRange, ClientConfig, CostModel, FileHandle, Iod, Mgr, PvfsClient, PvfsConfig, StripePolicy,
    CACHE_PORT, CLIENT_PORT_BASE, MGR_PORT,
};
use sim_core::{ActorId, DetRng, Dur, Engine, FifoResource, SharedResource};
use sim_disk::{DiskGeometry, DiskSched, BLOCK_SIZE};
use sim_net::{Fabric, NetConfig, NodeId, Port};
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
    pub seed: u64,
    /// Telemetry: one [`kcache::ObsHub`] per node (exactly `n_nodes`),
    /// so trace pids separate by node and registries stay
    /// contention-free. The builder hands each cache module its node's
    /// hub; `None` observes nothing.
    pub obs: Option<std::sync::Arc<ClusterObs>>,
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
            seed: 42,
            obs: None,
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

/// The stripe unit in bytes (PVFS's default).
const STRIPE_UNIT: u32 = 64 * 1024;

/// Files are striped across every node.
fn stripe_policy(spec: &ClusterSpec) -> StripePolicy {
    StripePolicy { unit: STRIPE_UNIT, n_iods: spec.n_nodes as u32, total_iods: spec.n_nodes as u32 }
}

/// Register the benchmark's files at `mgr`: the shared file once, then each
/// app's private one, in the order that numbers them.
fn install_files(mgr: &mut Mgr, apps: &[AppSpec]) -> Vec<FileHandle> {
    let mut names: Vec<(String, u64)> = Vec::new();
    for a in apps {
        if !names.iter().any(|(x, _)| *x == a.shared_file) {
            names.push((a.shared_file.clone(), a.file_size));
        }
        names.push((a.private_file(), a.file_size));
    }
    names.iter().map(|(name, size)| mgr.install_file(name, *size)).collect()
}

/// A file is preloaded in pieces of this size: a multiple of every block
/// and stripe unit, so no block is split between two and every block
/// stays a descriptor, and short enough for a `ByteRange`.
const PRELOAD_CHUNK: u64 = 1 << 30;

/// The whole of `h`'s bytes as the nodes hold them: for each chunk of the
/// file, each node's ranges of it, in file order.
fn preload_pieces(
    h: &FileHandle,
    n_nodes: u16,
) -> impl Iterator<Item = (usize, Vec<ByteRange>)> + '_ {
    (0..h.size).step_by(PRELOAD_CHUNK as usize).flat_map(move |at| {
        let chunk = ByteRange::new(at, (h.size - at).min(PRELOAD_CHUNK) as u32);
        let per_iod = pvfs::split_ranges(&h.stripe, chunk).into_iter().enumerate();
        per_iod.filter(|(_, ranges)| !ranges.is_empty()).map(move |(slot, ranges)| {
            (h.stripe.global_iod(slot as u32, n_nodes as u32) as usize, ranges)
        })
    })
}

/// The first node whose share of `apps`' files, split as [`build`]
/// preloads them, needs more blocks than its disk holds: the node, and
/// the blocks it needs up to the piece that overflows it.
pub fn preload_overflow(spec: &ClusterSpec, apps: &[AppSpec]) -> Option<(usize, u64)> {
    let mut mgr = Mgr::new(
        NodeId(0),
        0,
        FifoResource::shared("plan"),
        spec.costs.clone(),
        stripe_policy(spec),
    );
    let (bs, mut blocks) = (BLOCK_SIZE as u64, vec![0u64; spec.n_nodes as usize]);
    for h in install_files(&mut mgr, apps) {
        // Ranges of one file on one node come in file order; a block two of
        // them share is allocated once.
        let mut last = vec![None; blocks.len()];
        for (node, ranges) in preload_pieces(&h, spec.n_nodes) {
            for r in &ranges {
                let first = r.offset / bs;
                blocks[node] += r.end().div_ceil(bs) - first - (last[node] == Some(first)) as u64;
                last[node] = Some((r.end() - 1) / bs);
            }
            if blocks[node] > spec.disk.capacity_blocks {
                return Some((node, blocks[node]));
            }
        }
    }
    None
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
    if let Some(obs) = &spec.obs {
        assert_eq!(
            obs.node_count(),
            spec.n_nodes as usize,
            "the telemetry plane has {} hubs for {} nodes",
            obs.node_count(),
            spec.n_nodes
        );
    }
    let mut eng = Engine::new(spec.seed);
    let n = spec.n_nodes as usize;

    // Reserve the fabric first (everyone needs its id); it is installed
    // once every port it routes has a handler.
    let fabric_id = eng.reserve_actor();

    // Per-node CPUs and disks.
    let cpus: Vec<SharedResource> =
        (0..n).map(|i| FifoResource::shared(format!("cpu-{i}"))).collect();
    let disks: Vec<ActorId> = (0..n)
        .map(|_| eng.add_actor(Box::new(sim_disk::Disk::new(spec.disk.clone(), DiskSched::CLook))))
        .collect();

    // iods on every node; each is its node's endpoint, receiving the
    // traffic of every port nothing is bound to.
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
    let mut fabric = Fabric::new(spec.net.clone(), iods.clone());

    // mgr on node 0.
    let mgr_id = eng.add_actor(Box::new(Mgr::new(
        NodeId(0),
        fabric_id,
        cpus[0].clone(),
        spec.costs.clone(),
        stripe_policy(spec),
    )));
    fabric.bind(NodeId(0), MGR_PORT, mgr_id);

    // Cache modules on the nodes that run application processes (the
    // paper's modules live on client nodes).
    let client_nodes: std::collections::BTreeSet<u16> =
        apps.iter().flat_map(|a| a.nodes.iter().map(|n| n.0)).collect();
    let mut modules: Vec<Option<ActorId>> = vec![None; n];
    if let Some(cache_cfg) = &spec.cache {
        for &node in &client_nodes {
            let module = CacheModule::new(
                NodeId(node),
                fabric_id,
                cpus[node as usize].clone(),
                spec.costs.clone(),
                cache_cfg.clone(),
                spec.obs.as_ref().map(|o| o.hub_for(node as usize)),
            );
            let m = eng.add_actor(Box::new(module));
            fabric.bind(NodeId(node), CACHE_PORT, m);
            modules[node as usize] = Some(m);
        }
    }

    // Pre-create the benchmark's files at the mgr and preload their bytes
    // at the iods (setup happens outside measured time).
    let iod_nodes: Vec<NodeId> = (0..spec.n_nodes).map(NodeId).collect();
    let mgr = eng.actor_as_mut::<Mgr>(mgr_id).expect("mgr downcast");
    let handles = install_files(mgr, apps);
    for h in &handles {
        for (node, ranges) in preload_pieces(h, spec.n_nodes) {
            let iod = eng.actor_as_mut::<Iod>(iods[node]).expect("iod downcast");
            iod.preload(h.fid, &ranges, spec.preload_warm);
        }
    }

    // Application processes, each with its own reply port, kicked off
    // after a short jitter plus its instance's start offset. A cache
    // module on the process's node takes the port over and learns the
    // process's application instance (the sharing-aware eviction signal).
    let total_procs: usize = apps.iter().map(|a| a.nodes.len()).sum();
    let coordinator = eng.add_actor(Box::new(Coordinator::new(total_procs)));
    let mut processes = Vec::new();
    let mut next_port = CLIENT_PORT_BASE;
    let mut jitter = DetRng::stream(spec.seed, 0xAD0FF);
    for (inst, a) in apps.iter().enumerate() {
        for (k, &node) in a.nodes.iter().enumerate() {
            let port = Port(next_port);
            next_port += 1;
            let module = modules[node.index()];
            let client = PvfsClient::new(ClientConfig {
                node,
                port,
                mgr_node: NodeId(0),
                iod_nodes: iod_nodes.clone(),
                sock_target: module.unwrap_or(fabric_id),
                fabric: fabric_id,
                cpu: cpus[node.index()].clone(),
                costs: spec.costs.clone(),
                caching: module.is_some(),
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
            match module {
                Some(m) => {
                    fabric.bind(node, port, m);
                    let module = eng.actor_as_mut::<CacheModule>(m).expect("module downcast");
                    module.register_client(port, proc_id, kcache::AppId(inst as u32));
                }
                None => fabric.bind(node, port, proc_id),
            }
            let delay = Dur::nanos(jitter.exp_nanos(50_000)) + a.start_delay;
            eng.post(delay, proc_id, Kickoff);
        }
    }
    eng.install(fabric_id, Box::new(fabric));

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;

    /// A file past 4 GiB is preloaded whole: its last block, beyond
    /// `u32::MAX`, reads back as the file's content.
    #[test]
    fn a_file_over_4_gib_is_preloaded_to_its_last_block() {
        let size_mb = 4096 + 64;
        let cfg = ExperimentConfig::from_json(&format!(
            r#"{{"cluster":{{"nodes":1,"caching":false,"file_mb":{size_mb}}},
                "apps":[{{"name":"a","nodes":[0],"total_mb":1,"request_kb":64,"mode":"read"}}]}}"#
        ))
        .unwrap();
        let (mut spec, apps) = cfg.to_spec().unwrap();
        spec.preload_warm = false;
        let cluster = build(&spec, &apps);
        let iod = cluster.engine.actor_as::<Iod>(cluster.iods[0]).expect("iod downcast");
        let mgr = cluster.engine.actor_as::<Mgr>(cluster.mgr).expect("mgr downcast");
        let fid = mgr.lookup("shared").expect("the shared file").fid;
        let last = (size_mb << 20) - BLOCK_SIZE as u64;
        assert!(iod.holds_content(fid, ByteRange::new(last, BLOCK_SIZE as u32)));
        assert!(iod.holds_content(fid, ByteRange::new((1 << 30) - 100, 200)), "a chunk edge");
        assert_eq!(iod.stored_blocks(), 0, "every block a descriptor");
    }
}
