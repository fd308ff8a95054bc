//! The benchmark's own tests: its inputs are pure functions of the seed,
//! its workload configs parse and lower, BENCHMARK.json is what the
//! metric tables generate, and a `--smoke`-sized run of every workload
//! emits exactly the metric names BENCHMARK.json lists and passes
//! `check`. Run with `cargo test --offline --manifest-path
//! perfbench/Cargo.toml` (debug build, about ten seconds).

use perfbench::adapter::manager::policy_names;
use perfbench::adapter::sim::lower;
use perfbench::report::{check_run, compare, manifest, obj, Verdict, END_TO_END, POLICIES};
use perfbench::workloads::{
    mt_ops_per_thread, op_stream, sim_input, Size, MANAGER_MT, MT_KEYS, MT_WRITE_ONE_IN, WORKLOADS,
};
use perfbench::{run_plan, Plan};
use serde_json::Value;
use std::time::Instant;

fn smoke(workload: &str, trace: bool) -> Value {
    let plan = Plan {
        workload: workload.to_string(),
        seed: 42,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        out: None,
    };
    let (report, traces) = run_plan(&plan, Instant::now()).expect("smoke run");
    assert_eq!(traces.is_some(), trace, "trace documents come with traced runs only");
    report.to_json()
}

fn names_in(doc: &Value, list: &str) -> Vec<String> {
    let Some(Value::Array(items)) = doc.get(list) else { panic!("BENCHMARK.json has no {list}") };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(Value::Str(s)) => s.clone(),
            _ => panic!("{list} entry without a name"),
        })
        .collect()
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

#[test]
fn op_stream_is_a_pure_function_of_the_seed() {
    let len = mt_ops_per_thread(Size::Smoke);
    let a = op_stream(42, 0, len);
    assert_eq!(a, op_stream(42, 0, len), "same seed, same stream");
    assert_ne!(a, op_stream(43, 0, len), "the seed matters");
    assert_ne!(a, op_stream(42, 1, len), "threads get their own streams");
    assert_eq!(&op_stream(42, 0, len / 2)[..], &a[..len / 2], "a prefix is a prefix");
    assert!(a.iter().all(|op| (op.blk as usize) < MT_KEYS));
    let writes = a.iter().filter(|op| op.write).count() as f64;
    let expected = len as f64 / MT_WRITE_ONE_IN as f64;
    assert!((writes - expected).abs() < expected * 0.2, "{writes} writes, expected ≈{expected}");
}

#[test]
fn simulated_configs_parse_and_lower() {
    // Request counts per rep, as ISSUE.md derives them.
    let planned =
        [("paper_shared_read", 32_768), ("hot_rw", 133_120), ("coop_adaptive_cold", 36_864)];
    for (name, requests) in planned {
        for telemetry in [false, true] {
            let input = sim_input(name, 7, Size::Full, telemetry).expect("simulated workload");
            let lowered = lower(&input).unwrap_or_else(|e| panic!("{name} does not lower: {e}"));
            assert_eq!(lowered.planned_requests(), requests, "{name}");
            assert_eq!(
                lowered.drain_trace(false).is_some(),
                telemetry,
                "{name}: hubs iff telemetry"
            );
        }
        let a = sim_input(name, 7, Size::Full, false).unwrap().config_json;
        assert_eq!(a, sim_input(name, 7, Size::Full, false).unwrap().config_json);
        assert_ne!(
            a,
            sim_input(name, 8, Size::Full, false).unwrap().config_json,
            "seed reaches the config"
        );
    }
    assert!(sim_input(MANAGER_MT, 7, Size::Full, false).is_none());
}

#[test]
fn policy_table_matches_the_program() {
    assert_eq!(policy_names(), POLICIES);
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(on_disk, manifest(), "regenerate with `perf manifest > BENCHMARK.json`");
    let doc = benchmark_json();
    assert_eq!(names_in(&doc, "workloads"), WORKLOADS);
    assert!(names_in(&doc, "end_to_end").contains(&"setup_s".to_string()));
}

#[test]
fn smoke_runs_emit_exactly_the_listed_metrics_and_pass_check() {
    let doc = benchmark_json();
    for workload in WORKLOADS {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let run = smoke(workload, trace);
            let emitted: Vec<String> = run
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(emitted, names_in(&doc, list), "{workload} trace={trace}");
            for name in &emitted {
                assert!(
                    !name.is_empty()
                        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {name:?}"
                );
            }
            assert_eq!(check_run(&run), Vec::<String>::new(), "{workload} trace={trace}");
        }
    }
}

#[test]
fn check_rejects_a_doctored_report() {
    let good = smoke("paper_shared_read", false);
    assert!(check_run(&good).is_empty());
    // Replace one top-level or `checks` field and expect a complaint.
    let with = |path: &[&str], v: Value| {
        fn set(node: &Value, path: &[&str], v: &Value) -> Value {
            let Value::Object(fields) = node else { panic!("not an object") };
            Value::Object(
                fields
                    .iter()
                    .map(|(k, old)| match path {
                        [last] if k == last => (k.clone(), v.clone()),
                        [head, rest @ ..] if k == head && !rest.is_empty() => {
                            (k.clone(), set(old, rest, v))
                        }
                        _ => (k.clone(), old.clone()),
                    })
                    .collect(),
            )
        }
        set(&good, path, &v)
    };
    let doctored = [
        with(&["checks", "completed"], Value::Bool(false)),
        with(&["checks", "verify_failures"], Value::U64(1)),
        with(&["checks", "lookups"], Value::U64(1)),
        with(&["checks", "distinct_fingerprints"], Value::U64(2)),
        with(
            &["checks", "frames"],
            Value::Array(vec![obj([
                ("capacity", Value::U64(300)),
                ("resident", Value::U64(10)),
                ("free", Value::U64(10)),
            ])]),
        ),
        with(&["checks", "dirty_after_final_flush"], Value::U64(3)),
        with(&["ops_failed"], Value::U64(1)),
        with(&["ops_failed"], Value::U64(u64::MAX)),
        with(&["metrics"], obj([])),
    ];
    for (i, bad) in doctored.iter().enumerate() {
        assert!(!check_run(bad).is_empty(), "doctored report {i} passed check");
    }
}

#[test]
fn compare_of_a_report_with_itself_is_same() {
    let run = smoke(MANAGER_MT, false);
    let (lines, worst) = compare(&run, &run);
    assert_eq!(lines.len(), END_TO_END.len());
    // A smoke rep is microseconds long, so its host spread may exceed a
    // bound; what must never happen is a verdict of better or worse.
    assert!(matches!(worst, Verdict::Same | Verdict::Unresolved), "{lines:?}");
    assert!(lines.iter().all(|l| !l.contains(" worse ") && !l.contains(" better ")));
}
