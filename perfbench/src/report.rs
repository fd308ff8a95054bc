//! Metric tables, the run report and its JSON, and the three tools that
//! read reports back: `manifest` (BENCHMARK.json), `check`, `compare`.

use crate::adapter::sim::Frames;
use crate::stats::{median, quartiles, spread};
use crate::workloads::{Size, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Metric tables — the single source BENCHMARK.json is generated from
// ---------------------------------------------------------------------

/// `(name, unit, better, bound)`: what a user of the system sees.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("host_ops_per_s", "ops/s", "higher", 0.25),
    ("host_peak_rss_mb", "MB", "lower", 0.10),
    ("sim_bandwidth_mbps", "MB/s", "higher", 0.04),
    ("sim_request_latency_mean_ms", "ms", "lower", 0.04),
];

/// The six static replacement policies, by their `PolicyKind` names.
pub const POLICIES: [&str; 6] = ["clock", "exact-lru", "lfu", "2q", "arc", "sharing-aware"];

/// `(name, unit, better)` of every per-layer metric that is not one per
/// policy; layers are crates.
const PER_LAYER_FIXED: [(&str, &str, &str); 85] = [
    ("cluster-harness.build_s", "s", "lower"),
    ("cluster-harness.extract_s", "s", "lower"),
    ("sim-core.events", "count", "lower"),
    ("sim-core.events_per_request", "ratio", "lower"),
    ("sim-core.run_until_s", "s", "lower"),
    ("sim-core.host_ns_per_event", "ns", "lower"),
    ("sim-core.engine_ns_per_event", "ns", "lower"),
    ("sim-core.engine_share_est", "ratio", "lower"),
    ("sim-net.messages", "count", "lower"),
    ("sim-net.frames", "count", "lower"),
    ("sim-net.wire_bytes_per_app_byte", "ratio", "lower"),
    ("sim-net.medium_utilization", "ratio", "lower"),
    ("sim-net.peer_payload_share", "ratio", "lower"),
    ("sim-net.fabric_ns_per_frame", "ns", "lower"),
    ("sim-disk.pagecache_hit_ratio", "ratio", "higher"),
    ("sim-disk.platter_reads", "count", "lower"),
    ("sim-disk.platter_writes", "count", "lower"),
    ("sim-disk.disk_utilization_max", "ratio", "lower"),
    ("sim-disk.disk_latency_p99_ms", "ms", "lower"),
    ("sim-disk.disk_ns_per_request", "ns", "lower"),
    ("pvfs.iod_read_reqs", "count", "lower"),
    ("pvfs.iod_write_reqs", "count", "lower"),
    ("pvfs.iod_flush_reqs", "count", "lower"),
    ("pvfs.iod_bytes_read_per_app_byte", "ratio", "lower"),
    ("pvfs.invalidations_sent", "count", "lower"),
    ("pvfs.mgr_dir_queries", "count", "lower"),
    ("pvfs.mgr_dir_updates", "count", "lower"),
    ("pvfs.mgr_dir_located_ratio", "ratio", "higher"),
    ("pvfs.split_ranges_ns", "ns", "lower"),
    ("kcache.module.full_hit_ratio", "ratio", "higher"),
    ("kcache.module.request_splits", "count", "lower"),
    ("kcache.module.dedup_blocks", "count", "higher"),
    ("kcache.module.remote_hit_blocks", "count", "higher"),
    ("kcache.module.remote_stale_blocks", "count", "lower"),
    ("kcache.module.disk_fetch_mean_ms", "ms", "lower"),
    ("kcache.module.remote_fetch_mean_ms", "ms", "lower"),
    ("kcache.module.flush_msgs", "count", "lower"),
    ("kcache.module.harvest_runs", "count", "lower"),
    ("kcache.module.urgent_flush_blocks", "count", "lower"),
    ("kcache.module.bytes_passthrough", "B", "lower"),
    ("kcache.module.fetch_default_p99_ms", "ms", "lower"),
    ("kcache.module.fetch_peer_p99_ms", "ms", "lower"),
    ("kcache.manager.hit_ratio", "ratio", "higher"),
    ("kcache.manager.aggregate_hit_ratio", "ratio", "higher"),
    ("kcache.manager.evictions_clean", "count", "lower"),
    ("kcache.manager.evictions_dirty", "count", "lower"),
    ("kcache.manager.flush_blocks", "count", "lower"),
    ("kcache.manager.writes_passthrough", "count", "lower"),
    ("kcache.manager.ring_overflows", "count", "lower"),
    ("kcache.manager.hit_ns", "ns", "lower"),
    ("kcache.manager.probe_ns", "ns", "lower"),
    ("kcache.manager.miss_insert_ns", "ns", "lower"),
    ("kcache.manager.write_absorb_ns", "ns", "lower"),
    ("kcache.manager.flush_cycle_ns", "ns", "lower"),
    ("kcache.manager.host_share_est", "ratio", "lower"),
    ("kcache.manager.mt_ops_per_s.t1", "ops/s", "higher"),
    ("kcache.manager.mt_ops_per_s.t2_shards2", "ops/s", "higher"),
    ("kcache.manager.mt_ops_per_s.t2_shards4", "ops/s", "higher"),
    ("kcache.manager.mt_scaling", "ratio", "higher"),
    ("kcache.manager.mt_batch_p50_us", "us", "lower"),
    ("kcache.manager.mt_batch_p99_us", "us", "lower"),
    ("kcache.cost_ratio.lookup", "ratio", "higher"),
    ("kcache.cost_ratio.copy", "ratio", "higher"),
    ("kcache.cost_ratio.insert", "ratio", "higher"),
    ("kcache-policy.scans", "count", "lower"),
    ("kcache-policy.scans_per_eviction", "ratio", "lower"),
    ("kcache-adaptive.epochs", "count", "lower"),
    ("kcache-adaptive.switches", "count", "lower"),
    ("kcache-adaptive.quota_moves", "count", "lower"),
    ("kcache-adaptive.hit_ns", "ns", "lower"),
    ("kcache-adaptive.insert_evict_ns", "ns", "lower"),
    ("kcache-adaptive.hit_cost_vs_clock", "ratio", "lower"),
    ("kcache-obs.overhead_ratio", "ratio", "lower"),
    ("kcache-obs.counter_add_ns", "ns", "lower"),
    ("kcache-obs.histogram_record_ns", "ns", "lower"),
    ("kcache-obs.trace_push_ns", "ns", "lower"),
    ("kcache-obs.trace_events", "count", "lower"),
    ("kcache-obs.trace_dropped", "count", "lower"),
    ("workload.requests", "count", "higher"),
    ("workload.bytes", "B", "higher"),
    ("workload.read_latency_mean_ms", "ms", "lower"),
    ("workload.write_latency_mean_ms", "ms", "lower"),
    ("workload.read_latency_max_ms", "ms", "lower"),
    ("workload.write_latency_max_ms", "ms", "lower"),
    ("workload.read_latency_cv", "ratio", "lower"),
];

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    for (name, unit, better) in PER_LAYER_FIXED {
        out.push((name.to_string(), unit, better));
        if name == "kcache-policy.scans_per_eviction" {
            for stem in ["kcache-policy.hit_ns", "kcache-policy.insert_evict_ns"] {
                out.extend(POLICIES.iter().map(|p| (format!("{stem}.{p}"), "ns", "lower")));
            }
        }
    }
    out
}

const WHY: [&str; 4] = [
    "The paper's headline sharing point (d=64KB, l=0.5, s=0.5): fabric, iods and the DES engine do the work, the cache hits ~49%; the reference row, bit-reproducible on the sim clock",
    "Reads hit locally ~100% and writes are absorbed: kcache's hit, write-behind, flusher, harvester and sync-write invalidation paths do the work; fabric ~0.2 utilised, no platter reads",
    "The one row for the extensions: mgr block directory, peer fetches, adaptive policy switching, strict quotas and cold platters all work here and nowhere else",
    "The buffer manager under 2 real threads, which the single-threaded simulator never exercises; bypasses every simulated layer, so a simulator-only change must not move it",
];

/// Seconds one run measures for (`run_seconds` of BENCHMARK.json).
pub const RUN_SECONDS: u64 = 15;

/// The text of BENCHMARK.json, generated from the tables above.
pub fn manifest() -> String {
    let s = |x: &str| Value::Str(x.to_string());
    let strs = |xs: &[&str]| Value::Array(xs.iter().map(|x| s(x)).collect());
    let workloads = WORKLOADS
        .iter()
        .zip(WHY)
        .map(|(name, why)| obj([("name", s(name)), ("why", s(why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| {
            obj([
                ("name", s(name)),
                ("unit", s(unit)),
                ("better", s(better)),
                ("bound", Value::F64(bound)),
            ])
        })
        .collect();
    let per_layer = per_layer()
        .iter()
        .map(|(name, unit, better)| {
            obj([("name", s(name)), ("unit", s(unit)), ("better", s(better))])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
        "run",
    ];
    let doc = obj([
        ("command", strs(&command)),
        ("paths", strs(&["perfbench"])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        ("workloads", Value::Array(workloads)),
        ("end_to_end", Value::Array(end_to_end)),
        ("per_layer", Value::Array(per_layer)),
    ]);
    serde_json::to_string_pretty(&doc).expect("render manifest") + "\n"
}

pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

// ---------------------------------------------------------------------
// The run report
// ---------------------------------------------------------------------

/// Raw facts the correctness check needs, beside the op counts.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Every rep ran to completion.
    pub completed: bool,
    pub verify_failures: u64,
    /// Reads (or write-backs) that returned bytes other than the block's
    /// pattern (`manager_mt`).
    pub bad_bytes: u64,
    /// Lookups issued vs. the two outcomes counted, from the reference
    /// rep: the manager's `hits + misses` must equal the policy ledger's
    /// (simulated) or the reads the benchmark issued (`manager_mt`).
    pub lookups: u64,
    pub hits: u64,
    pub misses: u64,
    /// Frame accounting of every buffer manager after the reference rep.
    pub frames: Vec<Frames>,
    /// Dirty blocks left after the final flush (`manager_mt` only).
    pub dirty_after_final_flush: Option<u64>,
    /// Distinct result fingerprints among reps that should be identical.
    pub distinct_fingerprints: u64,
    /// Whether the program is deterministic on this workload today (see
    /// README "Determinism"); only then is a second fingerprint a failure.
    pub determinism_expected: bool,
    /// Reps that broke an invariant (all their ops count as failed).
    pub broken_reps: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct RepCounts {
    pub setup: u64,
    pub timed: u64,
    pub traced: u64,
}

/// Everything one `run` produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub threads: usize,
    pub reps: RepCounts,
    pub ops_per_rep: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub checks: Checks,
    /// Metric values in report order (units come from the tables).
    pub metrics: Vec<(String, f64)>,
    /// Per-rep samples behind the end-to-end medians.
    pub samples: BTreeMap<String, Vec<f64>>,
}

/// The machine and toolchain a report was produced on.
pub fn env_json(threads: usize) -> Value {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("nproc", Value::U64(nproc as u64)),
        ("cpu_model", Value::Str(cpu_model)),
        ("rustc", Value::Str(run("rustc", &["-V"]))),
        ("git_commit", Value::Str(run("git", &["rev-parse", "HEAD"]))),
        ("threads", Value::U64(threads as u64)),
        ("model_validation", Value::Str("unvalidated".to_string())),
    ])
}

impl RunReport {
    pub fn to_json(&self) -> Value {
        let c = &self.checks;
        let frames = c
            .frames
            .iter()
            .map(|f| {
                obj([
                    ("capacity", Value::U64(f.capacity)),
                    ("resident", Value::U64(f.resident)),
                    ("free", Value::U64(f.free)),
                ])
            })
            .collect();
        let checks = obj([
            ("completed", Value::Bool(c.completed)),
            ("verify_failures", Value::U64(c.verify_failures)),
            ("bad_bytes", Value::U64(c.bad_bytes)),
            ("lookups", Value::U64(c.lookups)),
            ("hits", Value::U64(c.hits)),
            ("misses", Value::U64(c.misses)),
            ("frames", Value::Array(frames)),
            ("dirty_after_final_flush", c.dirty_after_final_flush.map_or(Value::Null, Value::U64)),
            ("distinct_fingerprints", Value::U64(c.distinct_fingerprints)),
            ("determinism_expected", Value::Bool(c.determinism_expected)),
            ("broken_reps", Value::U64(c.broken_reps)),
        ]);
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| (k.clone(), Value::Array(v.iter().map(|x| Value::F64(*x)).collect())))
            .collect();
        obj([
            ("schema", Value::Str("perfbench-run/1".to_string())),
            ("env", env_json(self.threads)),
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::U64(self.seed)),
            ("seconds", Value::F64(self.seconds)),
            ("trace", Value::Bool(self.trace)),
            ("size", Value::Str(format!("{:?}", self.size).to_lowercase())),
            (
                "reps",
                obj([
                    ("setup", Value::U64(self.reps.setup)),
                    ("timed", Value::U64(self.reps.timed)),
                    ("traced", Value::U64(self.reps.traced)),
                ]),
            ),
            ("ops_per_rep", Value::U64(self.ops_per_rep)),
            ("ops_attempted", Value::U64(self.ops_attempted)),
            ("ops_failed", Value::U64(self.ops_failed)),
            ("checks", checks),
            ("metrics", metrics_json(&self.metrics)),
            ("samples", Value::Object(samples)),
        ])
    }

    /// The line the benchmark contract wants last on stdout.
    pub fn contract_line(&self, correct: bool) -> String {
        let line = obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::U64(self.ops_attempted)),
            ("failed", Value::U64(self.ops_failed)),
            ("metrics", metrics_json(&self.metrics)),
        ]);
        serde_json::to_string(&line).expect("render contract line")
    }
}

fn metrics_json(metrics: &[(String, f64)]) -> Value {
    let layer_units = per_layer();
    let unit_of = |name: &str| {
        let end_to_end = END_TO_END.iter().find(|m| m.0 == name).map(|m| m.1);
        end_to_end.or_else(|| layer_units.iter().find(|m| m.0 == name).map(|m| m.1)).unwrap_or("?")
    };
    Value::Object(
        metrics
            .iter()
            .map(|(name, value)| {
                let unit = Value::Str(unit_of(name).to_string());
                (name.clone(), obj([("value", Value::F64(*value)), ("unit", unit)]))
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------
// check
// ---------------------------------------------------------------------

fn u64_at(v: &Value, path: &[&str]) -> Option<u64> {
    match path.iter().try_fold(v, |v, k| v.get(k))? {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        Value::F64(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
        _ => None,
    }
}

fn f64_of(v: &Value) -> Option<f64> {
    match v {
        Value::F64(n) => Some(*n),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn bool_at(v: &Value, path: &[&str]) -> Option<bool> {
    match path.iter().try_fold(v, |v, k| v.get(k))? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// The runs in a report file: the file itself, or each entry of an `all`
/// file's `runs`.
fn runs_of(doc: &Value) -> Vec<&Value> {
    match doc.get("runs") {
        Some(Value::Array(runs)) => runs.iter().collect(),
        _ => vec![doc],
    }
}

/// Every way one run's output is not correct (empty = correct). The one
/// place output correctness is asserted: `run` and `all` call it on what
/// they are about to print, `check FILE` on what was written.
pub fn check_run(run: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let mut need = |ok: Option<bool>, what: &str| match ok {
        Some(true) => {}
        Some(false) => problems.push(what.to_string()),
        None => problems.push(format!("{what} (field missing or mistyped)")),
    };
    let n = |path: &[&str]| u64_at(run, path);

    need(bool_at(run, &["checks", "completed"]), "a rep did not run to completion");
    need(n(&["checks", "verify_failures"]).map(|x| x == 0), "verify_failures != 0");
    need(
        n(&["checks", "bad_bytes"]).map(|x| x == 0),
        "bytes other than the block's pattern were served",
    );
    need(
        n(&["checks", "hits"])
            .zip(n(&["checks", "misses"]))
            .zip(n(&["checks", "lookups"]))
            .map(|((h, m), l)| h + m == l),
        "hits + misses != lookups",
    );
    match run.get("checks").and_then(|c| c.get("frames")) {
        Some(Value::Array(frames)) if !frames.is_empty() => {
            for (i, f) in frames.iter().enumerate() {
                let sum = u64_at(f, &["resident"]).zip(u64_at(f, &["free"])).map(|(r, fr)| r + fr);
                need(
                    sum.zip(u64_at(f, &["capacity"])).map(|(s, c)| s == c),
                    &format!("manager {i}: resident + free != capacity"),
                );
            }
        }
        _ => need(None, "no frame accounting"),
    }
    match run.get("checks").and_then(|c| c.get("dirty_after_final_flush")) {
        Some(Value::Null) => {}
        Some(v) => need(f64_of(v).map(|d| d == 0.0), "dirty blocks left after the final flush"),
        None => need(None, "dirty_after_final_flush"),
    }
    if bool_at(run, &["checks", "determinism_expected"]) != Some(false) {
        need(
            n(&["checks", "distinct_fingerprints"]).map(|d| d == 1),
            "reps of one seed returned different simulated results",
        );
    }
    need(n(&["checks", "broken_reps"]).map(|x| x == 0), "a rep broke an invariant");
    need(
        n(&["ops_failed"]).zip(n(&["ops_attempted"])).map(|(f, a)| f <= a && a >= 1),
        "ops_failed > ops_attempted, or nothing attempted",
    );
    need(n(&["ops_failed"]).map(|f| f == 0), "ops_failed != 0");

    // The metric set: exactly the end-to-end names untraced, exactly the
    // per-layer names traced; every value a finite number, and no
    // end-to-end value 0.
    let traced = bool_at(run, &["trace"]).unwrap_or(false);
    let expected: Vec<String> = if traced {
        per_layer().into_iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0.to_string()).collect()
    };
    match run.get("metrics").and_then(Value::as_object) {
        Some(fields) => {
            let got: Vec<&String> = fields.iter().map(|(k, _)| k).collect();
            if got.iter().map(|s| s.as_str()).ne(expected.iter().map(|s| s.as_str())) {
                problems.push("metric names differ from the benchmark's tables".to_string());
            }
            for (name, m) in fields {
                match m.get("value").and_then(f64_of) {
                    Some(x) if !x.is_finite() => problems.push(format!("{name} is not finite")),
                    Some(x) if !traced && x == 0.0 => problems.push(format!("{name} is 0")),
                    Some(_) => {}
                    None => problems.push(format!("{name} has no numeric value")),
                }
            }
        }
        None => problems.push("no metrics object".to_string()),
    }
    problems
}

/// `check FILE`: problems of every run in a report file, prefixed with
/// the run they belong to.
pub fn check_doc(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    for run in runs_of(doc) {
        let label = format!(
            "{}{}",
            run.get("workload").map_or("?".to_string(), |w| match w {
                Value::Str(s) => s.clone(),
                _ => "?".to_string(),
            }),
            if bool_at(run, &["trace"]) == Some(true) { " (traced)" } else { "" }
        );
        problems.extend(check_run(run).into_iter().map(|p| format!("{label}: {p}")));
    }
    problems
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Either side's run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A for one metric: `worse`/`better` when the medians
/// differ by more than `bound` in that direction, `unresolved` when
/// either side's interquartile spread is wider than the bound. Sides
/// with fewer than 4 samples (`setup_s` has 3, peak RSS 1) have no
/// quartiles worth the name and are judged on their medians alone.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let too_wide = |s: &[f64]| s.len() >= 4 && spread(s) > bound;
    if too_wide(a) || too_wide(b) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let gain = if higher_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Per-rep samples of an end-to-end metric in a run (the single value
/// when no samples were kept).
fn samples_of(run: &Value, metric: &str) -> Option<Vec<f64>> {
    if let Some(Value::Array(xs)) = run.get("samples").and_then(|s| s.get(metric)) {
        let v: Vec<f64> = xs.iter().filter_map(f64_of).collect();
        if !v.is_empty() {
            return Some(v);
        }
    }
    run.get("metrics")?.get(metric)?.get("value").and_then(f64_of).map(|x| vec![x])
}

/// `compare A B`: one line per (end-to-end metric, workload) pair, and
/// the worst verdict seen.
pub fn compare(a: &Value, b: &Value) -> (Vec<String>, Verdict) {
    let untraced = |doc: &'_ Value, w: &str| -> Option<Value> {
        runs_of(doc)
            .into_iter()
            .find(|r| {
                bool_at(r, &["trace"]) == Some(false)
                    && matches!(r.get("workload"), Some(Value::Str(s)) if s == w)
            })
            .cloned()
    };
    let mut lines = Vec::new();
    let mut worst = Verdict::Same;
    for w in WORKLOADS {
        let (Some(ra), Some(rb)) = (untraced(a, w), untraced(b, w)) else { continue };
        for (name, unit, better, bound) in END_TO_END {
            let (Some(sa), Some(sb)) = (samples_of(&ra, name), samples_of(&rb, name)) else {
                lines.push(format!("{w:<20} {name:<28} missing on one side"));
                worst = Verdict::Unresolved;
                continue;
            };
            let v = judge(&sa, &sb, better == "higher", bound);
            let q = |s: &[f64]| {
                let (q1, q2, q3) = quartiles(s);
                format!("{q2:.6} [{q1:.6}, {q3:.6}] n={}", s.len())
            };
            lines.push(format!(
                "{w:<20} {name:<28} {:<10} A {}  B {}  {unit}  bound {:.1}%",
                v.name(),
                q(&sa),
                q(&sb),
                bound * 100.0
            ));
            worst = match (worst, v) {
                (Verdict::Worse, _) | (_, Verdict::Worse) => Verdict::Worse,
                (Verdict::Unresolved, _) | (_, Verdict::Unresolved) => Verdict::Unresolved,
                _ => Verdict::Same,
            };
        }
    }
    if lines.is_empty() {
        lines.push("no workload has an untraced run in both files".to_string());
        worst = Verdict::Unresolved;
    }
    (lines, worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_and_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&a, &a, true, 0.10), Verdict::Same);
        assert_eq!(judge(&a, &up, true, 0.10), Verdict::Better);
        assert_eq!(judge(&a, &up, false, 0.10), Verdict::Worse);
        assert_eq!(judge(&up, &a, true, 0.10), Verdict::Worse);
        let wide = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&a, &wide, true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let names: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate per-layer metric name");
        assert!(names.len() <= 128);
        for n in names.iter().map(String::as_str).chain(END_TO_END.iter().map(|m| m.0)) {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
