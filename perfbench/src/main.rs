//! `perf` — the benchmark's command line.
//!
//! ```text
//! perf run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! perf all [--seed N] [--seconds S] [--out FILE]
//! perf check FILE
//! perf compare A.json B.json
//! perf manifest
//! ```

use perfbench::report::{self, check_doc, check_run, compare, obj, Verdict, RUN_SECONDS};
use perfbench::workloads::{Size, WORKLOADS};
use perfbench::{run_plan, Plan};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  perf run --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out FILE]
  perf all [--seed <u64>] [--seconds <s>] [--out FILE]
  perf check FILE
  perf compare A.json B.json
  perf manifest
workloads: paper_shared_read hot_rw coop_adaptive_cold manager_mt";

/// `--key value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Result<Option<&str>, String> {
        match self.0.iter().position(|a| a == key) {
            None => Ok(None),
            Some(i) => {
                self.0.get(i + 1).map(|v| Some(v.as_str())).ok_or(format!("{key} needs a value"))
            }
        }
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {key}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_metrics(run: &Value) {
    for (name, m) in run.get("metrics").and_then(Value::as_object).unwrap_or_default() {
        let value = match m.get("value") {
            Some(Value::F64(x)) => *x,
            Some(Value::U64(x)) => *x as f64,
            _ => f64::NAN,
        };
        let unit = match m.get("unit") {
            Some(Value::Str(u)) => u.as_str(),
            _ => "?",
        };
        println!("{name} {value} {unit}");
    }
}

fn cmd_run(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let workload = args.value("--workload")?.ok_or("run needs --workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let plan = Plan {
        workload,
        seed: args.parsed("--seed", 42)?,
        seconds: args.parsed("--seconds", RUN_SECONDS as f64)?,
        trace: match args.value("--trace")? {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        size: if args.flag("--smoke") { Size::Smoke } else { Size::Full },
        out: args.value("--out")?.map(PathBuf::from),
    };
    let (report, traces) = run_plan(&plan, started)?;
    let json = report.to_json();
    let problems = check_run(&json);

    println!(
        "# {} seed {} — sim_* on the simulated clock (model unvalidated), host_* on this machine",
        plan.workload, plan.seed
    );
    print_metrics(&json);
    for p in &problems {
        eprintln!("check: {p}");
    }
    if let Some(out) = &plan.out {
        write_file(out, &(serde_json::to_string_pretty(&json).map_err(|e| e.to_string())? + "\n"))?;
        if let Some(t) = traces {
            write_file(&out.with_extension("host-trace.json"), &t.host)?;
            if let Some(sim) = t.sim {
                write_file(&out.with_extension("sim-trace.json"), &sim)?;
            }
        }
    }
    // The contract's result line goes last.
    println!("{}", report.contract_line(problems.is_empty()));
    Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Every workload, untraced then traced, each in a fresh child process so
/// that peak RSS and first-touch costs are per run.
fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", 42)?;
    let seconds: f64 = args.parsed("--seconds", RUN_SECONDS as f64)?;
    let out = PathBuf::from(args.value("--out")?.unwrap_or("perfbench/out/all.json"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut failed = false;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let file = out.with_extension(format!("{workload}.trace{trace}.json"));
            let status = std::process::Command::new(&exe)
                .args(["run", "--workload", workload, "--trace", trace])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .arg("--out")
                .arg(&file)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("spawning {workload}: {e}"))?;
            failed |= !status.success();
            let run = read_json(&file.to_string_lossy())?;
            println!("# {workload}{}", if trace == "1" { " (traced)" } else { "" });
            print_metrics(&run);
            runs.push(run);
        }
    }
    let doc = obj([
        ("schema", Value::Str("perfbench-all/1".to_string())),
        ("env", report::env_json(0)),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("runs", Value::Array(runs)),
    ]);
    let problems = check_doc(&doc);
    for p in &problems {
        eprintln!("check: {p}");
    }
    write_file(&out, &(serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())? + "\n"))?;
    println!("# wrote {}", out.display());
    Ok(if failed || !problems.is_empty() { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let rest = Args(argv.collect());
    let outcome = match cmd.as_str() {
        "run" => cmd_run(&rest, started),
        "all" => cmd_all(&rest),
        "check" => match rest.0.as_slice() {
            [file] => read_json(file).map(|doc| {
                let problems = check_doc(&doc);
                for p in &problems {
                    println!("{p}");
                }
                if problems.is_empty() {
                    println!("ok");
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err("check takes one FILE".to_string()),
        },
        "compare" => match rest.0.as_slice() {
            [a, b] => read_json(a).and_then(|a| Ok((a, read_json(b)?))).map(|(a, b)| {
                let (lines, worst) = compare(&a, &b);
                for l in lines {
                    println!("{l}");
                }
                println!("# B against A: {}", worst.name());
                if worst == Verdict::Same || worst == Verdict::Better {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err("compare takes A.json B.json".to_string()),
        },
        "manifest" => {
            print!("{}", report::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}
