//! perfbench — the repo's two-clock benchmark: four named workloads, five
//! end-to-end metrics, a per-layer ledger. README.md has the definitions;
//! `BENCHMARK.json` at the repo root is generated by `perf manifest`.

pub mod adapter;
pub mod layers;
pub mod micro;
pub mod mtrun;
pub mod report;
pub mod simrun;
pub mod spans;
pub mod stats;
pub mod workloads;

use report::RunReport;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Size, MANAGER_MT};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// One `run` invocation.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    /// How long the measured phase lasts (it always finishes the rep it
    /// is in, and runs at least 3 reps).
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where to write the run's JSON (and, traced, its two Chrome traces
    /// beside it). `None` writes nothing.
    pub out: Option<PathBuf>,
}

/// The Chrome-trace documents of a traced run.
pub struct TraceFiles {
    /// Host-clock spans recorded by the benchmark.
    pub host: String,
    /// The program's own sim-clock trace of the last traced rep (only
    /// rendered when the run writes files).
    pub sim: Option<String>,
}

/// Run one workload as planned. `started` is when the process started,
/// so that set-up time includes start-up.
pub fn run_plan(plan: &Plan, started: Instant) -> Result<(RunReport, Option<TraceFiles>), String> {
    if plan.workload == MANAGER_MT {
        mtrun::run(plan, started)
    } else {
        simrun::run(plan, started)
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}
