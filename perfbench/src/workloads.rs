//! The four workloads: their definitions, sizes and generated inputs.
//!
//! Everything here is a pure function of `(workload, seed, size)`: the
//! program under test only ever sees the generated JSON config (simulated
//! workloads) or op streams (`manager_mt`). Sizes and rep shapes are
//! constants, identical on every commit — a benchmark that resized itself
//! to the machine could not compare two commits.

use sim_core::{DetRng, Zipf};

/// Workload names, in report order.
pub const WORKLOADS: [&str; 4] =
    ["paper_shared_read", "hot_rw", "coop_adaptive_cold", "manager_mt"];

/// The one workload that runs no simulator.
pub const MANAGER_MT: &str = "manager_mt";

/// `Full` is what `BENCHMARK.json` measures; `Smoke` (≈1 MB per instance
/// over 2 MB files, 16 Ki ops per thread, one micro-loop batch) exists so
/// the tests can run every code path of the benchmark in a debug build in
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One application instance of a simulated workload (the `apps[]` entry).
struct App {
    name: &'static str,
    nodes: &'static [u16],
    total_mb: u64,
    request_kb: u32,
    mode: &'static str,
    locality: f64,
    sharing: f64,
    hotspot: f64,
    quota_blocks: usize,
}

impl App {
    const fn new(
        name: &'static str,
        nodes: &'static [u16],
        total_mb: u64,
        request_kb: u32,
        mode: &'static str,
        (locality, sharing): (f64, f64),
    ) -> App {
        App {
            name,
            nodes,
            total_mb,
            request_kb,
            mode,
            locality,
            sharing,
            hotspot: 0.0,
            quota_blocks: 0,
        }
    }

    const fn zipf(mut self, theta: f64) -> App {
        self.hotspot = theta;
        self
    }

    const fn quota(mut self, blocks: usize) -> App {
        self.quota_blocks = blocks;
        self
    }

    fn json(&self, size: Size) -> String {
        let total_mb = match size {
            Size::Full => self.total_mb,
            Size::Smoke => 1,
        };
        format!(
            r#"{{"name":"{}","nodes":{:?},"total_mb":{},"request_kb":{},"mode":"{}","locality":{},"sharing":{},"hotspot":{},"quota_blocks":{}}}"#,
            self.name,
            self.nodes,
            total_mb,
            self.request_kb,
            self.mode,
            self.locality,
            self.sharing,
            self.hotspot,
            self.quota_blocks
        )
    }
}

/// The paper's platform in every simulated workload: 6 nodes, 100 Mb/s
/// hub, 300-block cache per client node, one shard.
const PLATFORM: &str = r#""nodes":6,"caching":true,"cache_blocks":300,"fabric":"hub","shards":1"#;

struct SimDef {
    cluster: &'static str,
    apps: &'static [App],
    /// Start with cold iod page caches (platter reads happen).
    cold: bool,
}

const PAPER_SHARED_READ: SimDef = SimDef {
    cluster: r#""policy":"clock""#,
    apps: &[
        App::new("A", &[0, 1, 2, 3], 256, 64, "read", (0.5, 0.5)),
        App::new("B", &[2, 3, 4, 5], 256, 64, "read", (0.5, 0.5)),
    ],
    cold: false,
};

const HOT_RW: SimDef = SimDef {
    cluster: r#""policy":"clock""#,
    apps: &[
        App::new("R", &[0, 1, 2, 3], 256, 16, "read", (1.0, 0.5)),
        App::new("W", &[0, 1, 2, 3], 256, 16, "write", (0.5, 0.0)),
        App::new("S", &[4, 5], 16, 16, "sync-write", (0.5, 0.5)),
    ],
    cold: false,
};

const COOP_ADAPTIVE_COLD: SimDef = SimDef {
    cluster: r#""policy":"adaptive","partitioning":"strict","cooperative":{"enabled":true,"directory":"authoritative","singleton_preserving":true}"#,
    apps: &[
        App::new("Z", &[0, 1, 2], 72, 16, "read", (0.2, 0.5)).zipf(0.9).quota(180),
        App::new("Y", &[3, 4, 5], 72, 16, "read", (0.2, 0.5)).zipf(0.9).quota(180),
        App::new("X", &[0, 1, 2, 3, 4, 5], 72, 48, "read", (0.0, 0.25)).quota(120),
    ],
    cold: true,
};

fn sim_def(name: &str) -> Option<&'static SimDef> {
    match name {
        "paper_shared_read" => Some(&PAPER_SHARED_READ),
        "hot_rw" => Some(&HOT_RW),
        "coop_adaptive_cold" => Some(&COOP_ADAPTIVE_COLD),
        _ => None,
    }
}

/// A simulated workload's generated input: the JSON experiment config the
/// program parses, and whether iod page caches start cold.
#[derive(Debug, Clone)]
pub struct SimInput {
    pub config_json: String,
    pub cold: bool,
}

/// Generate the input of simulated workload `name` (`None` for
/// `manager_mt` and unknown names). `telemetry` wires the program's
/// per-node observability hubs (traced reps only).
pub fn sim_input(name: &str, seed: u64, size: Size, telemetry: bool) -> Option<SimInput> {
    let def = sim_def(name)?;
    let apps: Vec<String> = def.apps.iter().map(|a| a.json(size)).collect();
    let file_mb = match size {
        Size::Full => 16,
        Size::Smoke => 2,
    };
    let config_json = format!(
        r#"{{"cluster":{{{PLATFORM},"file_mb":{file_mb},"seed":{seed},{},"telemetry":{{"enabled":{telemetry}}}}},"apps":[{}]}}"#,
        def.cluster,
        apps.join(",")
    );
    Some(SimInput { config_json, cold: def.cold })
}

// ---------------------------------------------------------------------
// manager_mt: the op streams
// ---------------------------------------------------------------------

/// Frames in the manager under test (the paper's 1.2 MB cache).
pub const MT_CAPACITY: usize = 300;
/// Client threads — never more than the container's 2 CPUs.
pub const MT_THREADS: usize = 2;
/// Distinct block keys the streams draw from (4× the capacity).
pub const MT_KEYS: usize = 1200;
/// Zipf skew of the key popularity.
pub const MT_ZIPF_THETA: f64 = 0.9;
/// One op in this many is a write.
pub const MT_WRITE_ONE_IN: u64 = 16;
/// Ops between latency samples, and between flusher turns of thread 0.
pub const MT_BATCH: usize = 256;
/// Dirty blocks the flusher takes per turn.
pub const MT_FLUSH_TAKE: usize = 64;

/// Ops per thread per rep.
pub fn mt_ops_per_thread(size: Size) -> usize {
    match size {
        Size::Full => 1 << 20,
        Size::Smoke => 1 << 14,
    }
}

/// One block access of a `manager_mt` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Block number, `< MT_KEYS`.
    pub blk: u32,
    pub write: bool,
}

/// The op stream of `thread`: Zipf(θ)-popular keys, 1/16 writes. A pure
/// function of `(seed, thread, len)`.
pub fn op_stream(seed: u64, thread: usize, len: usize) -> Vec<Op> {
    let mut rng = DetRng::stream(seed, 0x4D54_0000 + thread as u64);
    let zipf = Zipf::new(MT_KEYS, MT_ZIPF_THETA);
    (0..len)
        .map(|_| {
            // Rank → key through a fixed odd multiplier, so the hot keys
            // are spread over the key space (and over shards) instead of
            // being the numerically smallest blocks.
            let rank = zipf.sample(&mut rng) as u64;
            let blk = (rank * 7919 % MT_KEYS as u64) as u32;
            Op { blk, write: rng.below(MT_WRITE_ONE_IN) == 0 }
        })
        .collect()
}
