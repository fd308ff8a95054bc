//! Quickstart: build the paper's 6-node cluster, run one I/O-intensive
//! application with and without the kernel cache module, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- \
//!     --trace-out trace.json --metrics-out metrics.json
//! ```
//!
//! The optional flags enable federated `kcache-obs` telemetry for the
//! cached run — one hub per node, merged by `ClusterObs` — and export
//! the Chrome-trace (`chrome://tracing` / Perfetto; `pid` lanes are
//! nodes) and metrics JSON (cluster rollup + per-node breakdown).
//! Telemetry changes no cache decision — the comparison stands.

use clusterio::cluster::{run_experiment, ClusterSpec};
use clusterio::kcache::obs::ClusterObs;
use clusterio::kcache::CacheConfig;
use clusterio::sim_core::Dur;
use clusterio::sim_net::NodeId;
use clusterio::workload::{AppSpec, Mode};

fn main() {
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-out" => trace_out = args.next(),
            "--metrics-out" => metrics_out = args.next(),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: quickstart [--trace-out FILE] [--metrics-out FILE]");
                std::process::exit(2);
            }
        }
    }
    let telemetry = trace_out.is_some() || metrics_out.is_some();
    let app = AppSpec {
        name: "quickstart".into(),
        // p = 4 processes, one per node.
        nodes: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        total_bytes: 4 << 20,
        request_size: 64 << 10,
        mode: Mode::Read,
        locality: 0.8, // most requests re-reference recently-read data
        sharing: 0.0,
        hotspot: 0.0,
        shared_file: "shared".into(),
        file_size: 16 << 20,
        start_delay: Dur::ZERO,
        min_requests: 1,
        phases: Vec::new(),
    };

    println!(
        "workload: {} MB in {} KB requests, p=4, locality=0.8\n",
        app.total_bytes >> 20,
        app.request_size >> 10
    );

    let mut obs = None;
    for (label, cache) in [
        ("original PVFS (no caching)", None),
        ("with kernel cache module", Some(CacheConfig::paper())),
    ] {
        let cached = cache.is_some();
        let mut spec = ClusterSpec::paper(cache);
        if cached && telemetry {
            // One hub per node, federated: trace pids separate by node
            // and the metrics export carries a per-node breakdown.
            let cluster = ClusterObs::per_node(spec.n_nodes as usize);
            spec.obs = Some(cluster.clone());
            obs = Some(cluster);
        }
        let r = run_experiment(&spec, std::slice::from_ref(&app));
        assert!(r.completed, "run did not complete");
        assert_eq!(r.total_verify_failures(), 0, "data corruption detected");
        println!("{label}:");
        println!("  completion time      : {:.4} s", r.mean_makespan_s());
        println!("  per-request latency  : {:.3} ms", r.mean_read_latency_s() * 1e3);
        println!("  network payload bytes: {}", r.fabric.payload_bytes);
        if let Some(hit) = r.hit_ratio() {
            println!("  cache hit ratio      : {:.1}%", hit * 100.0);
        }
        println!();
    }

    if let Some(cluster) = &obs {
        if let Some(p) = &metrics_out {
            std::fs::write(p, cluster.metrics_json()).expect("write metrics");
            println!("metrics written to {p}");
        }
        if let Some(p) = &trace_out {
            std::fs::write(p, cluster.chrome_trace_json()).expect("write trace");
            println!("trace written to {p}");
        }
    }
}
