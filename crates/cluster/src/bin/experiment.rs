//! Run a custom experiment described by a JSON config.
//!
//! ```text
//! cargo run --release -p cluster-harness --bin experiment -- config.json \
//!     [--trace-out trace.json] [--metrics-out metrics.json] \
//!     [--flight-out flight.json] [--profile]
//! ```
//!
//! The config shape (all cluster fields optional, partitioning included)
//! is documented on [`cluster_harness::config::ExperimentConfig`].
//! `policy` selects the replacement policy: `clock` (default),
//! `exact-lru`, `lfu`, `2q`, `arc`, or `sharing-aware`; `partitioning`
//! selects per-app frame quotas: `shared` (default), `strict`, or `soft`,
//! with per-app `quota_blocks`. All new fields default so pre-existing
//! configs parse unchanged.
//!
//! `--trace-out` writes the run's Chrome-trace JSON (open it in
//! `chrome://tracing` or Perfetto) with every node's ring merged in
//! timestamp order; `--metrics-out` writes the federated metric export
//! (cluster rollup + per-node snapshots and epoch bookkeeping);
//! `--flight-out` evaluates the config's anomaly rules against each
//! node's per-epoch deltas and writes the flight record — rule firings,
//! the metrics snapshot, and a bounded tail of recent trace events. Any
//! of the three flags forces the `telemetry` section of the config on.
//!
//! `--profile` turns on the simulator's self-profile and prints, on
//! stderr, where the run's *host* time went: events and host
//! nanoseconds per actor type (`kcache`, `iod`, `app`, `fabric`, ...)
//! plus the engine's own queue/dispatch share. It changes no result.
//!
//! A config that does not parse or cannot run prints `bad config …` on
//! stderr and exits with status 2. The exit status is 1 when any read
//! returned wrong bytes (`verify_failures` > 0), after the summary and
//! exports are written.

use cluster_harness::config::ExperimentConfig;
use cluster_harness::{run_experiment, run_experiment_profiled, CacheEfficiency, TelemetryReport};
use sim_core::ActorProfile;

/// How many trailing trace events the flight record keeps.
const FLIGHT_TAIL_EVENTS: usize = 256;

fn usage() -> ! {
    eprintln!(
        "usage: experiment <config.json> [--trace-out FILE] [--metrics-out FILE] \
         [--flight-out FILE] [--profile]"
    );
    std::process::exit(2);
}

fn bad_config(path: &str, e: String) -> ! {
    eprintln!("bad config {path}: {e}");
    std::process::exit(2);
}

/// The simulator's self-profile as a table on stderr (stdout stays the
/// run's JSON).
fn print_profile(rows: &[ActorProfile]) {
    let total_ns: u64 = rows.iter().map(|r| r.host_ns).sum();
    eprintln!("simulator self-profile (host clock), {:.3} s in run_until", total_ns as f64 / 1e9);
    eprintln!(
        "{:<12} {:>6} {:>10} {:>11} {:>7} {:>9}",
        "actor type", "actors", "events", "host ms", "share", "ns/event"
    );
    for r in rows {
        eprintln!(
            "{:<12} {:>6} {:>10} {:>11.2} {:>6.1}% {:>9.0}",
            r.kind,
            r.actors,
            r.events,
            r.host_ns as f64 / 1e6,
            100.0 * r.host_ns as f64 / total_ns.max(1) as f64,
            r.host_ns as f64 / r.events.max(1) as f64,
        );
    }
}

fn main() {
    let mut config_path: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut flight_out: Option<String> = None;
    let mut profile = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-out" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-out" => metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "--flight-out" => flight_out = Some(args.next().unwrap_or_else(|| usage())),
            "--profile" => profile = true,
            _ if config_path.is_none() => config_path = Some(a),
            _ => usage(),
        }
    }
    let Some(path) = config_path else { usage() };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let mut cfg = ExperimentConfig::from_json(&text).unwrap_or_else(|e| bad_config(&path, e));
    if trace_out.is_some() || metrics_out.is_some() || flight_out.is_some() {
        cfg.cluster.telemetry.enabled = true;
    }
    let (spec, apps) = cfg.to_spec().unwrap_or_else(|e| bad_config(&path, e));

    let r = if profile {
        let (r, rows) = run_experiment_profiled(&spec, &apps);
        print_profile(&rows);
        r
    } else {
        run_experiment(&spec, &apps)
    };
    assert!(r.completed, "experiment hit the horizon");
    println!("{{");
    println!("  \"completed\": {},", r.completed);
    println!("  \"simulated_seconds\": {:.6},", r.sim_end.as_secs_f64());
    println!("  \"events\": {},", r.events);
    println!("  \"verify_failures\": {},", r.total_verify_failures());
    if let Some(h) = r.hit_ratio() {
        println!("  \"cache_hit_ratio\": {:.4},", h);
    }
    if let Some(eff) = CacheEfficiency::from_run(&r) {
        println!(
            "  \"cache\": {},",
            serde_json::to_string_pretty(&eff).expect("serialize cache efficiency")
        );
    }
    if let Some(report) = TelemetryReport::from_run(&r) {
        println!(
            "  \"telemetry\": {},",
            serde_json::to_string_pretty(&report).expect("serialize telemetry")
        );
    }
    println!("  \"network_payload_bytes\": {},", r.fabric.payload_bytes);
    println!("  \"medium_utilization\": {:.4},", r.medium_utilization);
    println!(
        "  \"instances\": {}",
        serde_json::to_string_pretty(&r.instances).expect("serialize instances")
    );
    println!("}}");

    // File exports happen after the summary: metrics first (snapshot +
    // epoch deltas, non-destructive), then the trace. Draining the rings
    // is destructive and both the flight tail and `--trace-out` want the
    // events, so drain once and share.
    if let Some(cluster) = &r.obs {
        if let Some(p) = &metrics_out {
            std::fs::write(p, cluster.metrics_json())
                .unwrap_or_else(|e| panic!("cannot write {p}: {e}"));
        }
        if flight_out.is_some() || trace_out.is_some() {
            let events = cluster.drain_trace();
            if let Some(p) = &flight_out {
                // Evaluate the config's anomaly rules against each node's
                // own epoch history; the flight record is always valid JSON,
                // with `"fired": false` on a healthy run.
                let rules = cfg.cluster.telemetry.anomaly_rules();
                let mut firings = Vec::new();
                for (name, hub) in cluster.hubs() {
                    firings.extend(kcache::obs::evaluate(name, &hub.epoch_deltas(), &rules));
                }
                let json = kcache::obs::flight_json(
                    &firings,
                    &cluster.rollup(),
                    &events,
                    FLIGHT_TAIL_EVENTS,
                );
                std::fs::write(p, json).unwrap_or_else(|e| panic!("cannot write {p}: {e}"));
            }
            if let Some(p) = &trace_out {
                std::fs::write(p, kcache::obs::chrome_trace_json(&events))
                    .unwrap_or_else(|e| panic!("cannot write {p}: {e}"));
            }
        }
    }

    // Byte integrity gates the exit status: a wrong byte served anywhere
    // fails the run, after its summary and exports are written.
    let failures = r.total_verify_failures();
    if failures > 0 {
        eprintln!("experiment: {failures} reads returned wrong bytes");
        std::process::exit(1);
    }
}
