//! Minimal sanity check: one cached vs uncached run, human-readable line
//! each. Useful as a first "is everything wired" probe. Exits non-zero when
//! any read returned wrong bytes.
//!
//! ```text
//! cargo run --release -p cluster-harness --bin smoke
//! ```

use cluster_harness::{run_experiment, ClusterSpec};
use kcache::CacheConfig;
use sim_core::Dur;
use sim_net::NodeId;
use workload::{AppSpec, Mode};

fn main() {
    let mut failures = 0;
    for caching in [false, true] {
        let spec = ClusterSpec::paper(caching.then(CacheConfig::paper));
        let apps = vec![AppSpec {
            name: "smoke".into(),
            nodes: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            total_bytes: 1 << 20,
            request_size: 64 << 10,
            mode: Mode::Read,
            locality: 0.5,
            sharing: 0.0,
            hotspot: 0.0,
            shared_file: "shared".into(),
            file_size: 8 << 20,
            start_delay: Dur::ZERO,
            min_requests: 1,
            phases: Vec::new(),
        }];
        let r = run_experiment(&spec, &apps);
        println!(
            "caching={:<5} completed={} makespan={:.4}s read_latency={:.3}ms events={} verify_failures={} hit_ratio={}",
            caching,
            r.completed,
            r.mean_makespan_s(),
            r.mean_read_latency_s() * 1e3,
            r.events,
            r.total_verify_failures(),
            r.hit_ratio().map(|h| format!("{:.1}%", h * 100.0)).unwrap_or_else(|| "-".into()),
        );
        failures += r.total_verify_failures();
    }
    if failures > 0 {
        eprintln!("smoke: {failures} reads returned wrong bytes");
        std::process::exit(1);
    }
}
