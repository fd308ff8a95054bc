//! Host cost per request, counted exactly: a gate that a noisy host cannot
//! fool (ROADMAP T, program half).
//!
//! This test binary installs a counting global allocator. Its counters are
//! thread-local, so tests running in parallel do not mix: each run is
//! built and driven on one thread, and only that thread's allocations are
//! counted. The three benchmark rows' golden configs
//! (`tests/golden/configs/{paper_shared_read,hot_rw,coop_adaptive_cold}.json`)
//! run in process, and each gives one line of `tests/golden/host_cost.txt`:
//! its requests, its allocations (and per request), the bytes allocated per
//! request, the live heap right after `build`, and the peak live heap over
//! build, run and drop.
//!
//! The toolchain is pinned (`rust-toolchain.toml`) and every run is
//! deterministic per seed, so the counts are exact: they are identical
//! across runs, across `--test-threads` and between the debug and release
//! builds. One-time costs are paid before
//! counting: every row runs once in the process, and each counted run
//! follows an uncounted run of the same config on the same thread (first
//! use of a thread-local, a lazily built table).
//!
//! A change that moves a count rewrites the table in the same diff,
//! `GOLDEN_BLESS=1 cargo test -p cluster-harness --test host_cost`, and
//! says why.

use cluster_harness::config::ExperimentConfig;
use cluster_harness::{build, run_experiment, ClusterSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Once;
use workload::AppSpec;

const ROWS: [&str; 3] = ["paper_shared_read", "hot_rw", "coop_adaptive_cold"];
const HEADER: &str = "# config requests allocs allocs_per_request bytes_per_request \
                      live_after_build_bytes peak_live_bytes";

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation of `new` bytes that replaces `old` live ones. A
/// thread being torn down has no counters left; it is not counted.
fn note(new: usize, old: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + new as u64));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + new as i64 - old as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn note_free(size: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - size as i64));
}

// SAFETY: every method forwards its caller's arguments unchanged to
// `System`, so `System`'s contract is the caller's. The counting only
// touches thread-local `Cell`s with const initialisers, which neither
// allocate nor register a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// This thread's counts since the last [`reset`].
struct Counts {
    allocs: u64,
    bytes: u64,
    live: i64,
    peak: i64,
}

fn reset() {
    for c in [&ALLOCS, &BYTES] {
        c.with(|c| c.set(0));
    }
    LIVE.with(|c| c.set(0));
    PEAK.with(|c| c.set(0));
}

fn counts() -> Counts {
    Counts {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        live: LIVE.with(Cell::get),
        peak: PEAK.with(Cell::get),
    }
}

fn config_text(name: &str) -> String {
    let path = golden_dir().join("configs").join(format!("{name}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn lower(config: &str) -> (ClusterSpec, Vec<AppSpec>) {
    let cfg = ExperimentConfig::from_json(config).expect("a golden config parses");
    cfg.to_spec().expect("a golden config lowers")
}

/// Build, run and drop one experiment; returns its requests.
fn run(config: &str) -> u64 {
    let (spec, apps) = lower(config);
    let r = run_experiment(&spec, &apps);
    assert!(r.completed && r.total_verify_failures() == 0, "a golden row runs clean");
    r.instances.iter().map(|i| i.requests).sum()
}

/// One row's counted run, as a line of the table.
fn measure(name: &str) -> String {
    static EVERY_ROW_ONCE: Once = Once::new();
    EVERY_ROW_ONCE.call_once(|| {
        for row in ROWS {
            run(&config_text(row));
        }
    });
    let config = config_text(name);
    run(&config);
    let (spec, apps) = lower(&config);
    reset();
    let live_after_build = {
        let _built = build(&spec, &apps);
        counts().live
    };
    reset();
    let requests = run(&config);
    let c = counts();
    format!(
        "{name} {requests} {} {:.2} {} {live_after_build} {}",
        c.allocs,
        c.allocs as f64 / requests as f64,
        c.bytes / requests,
        c.peak,
    )
}

#[test]
fn host_cost_matches_the_blessed_table() {
    let mut lines = vec![HEADER.to_owned()];
    lines.extend(ROWS.iter().map(|row| measure(row)));
    let got = lines.join("\n") + "\n";
    let golden = golden_dir().join("host_cost.txt");
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&golden, &got).expect("write the blessed table");
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    assert!(
        want == got,
        "host_cost.txt: counts moved\nblessed:\n{want}now:\n{got}\
         A change that moves a count re-blesses with GOLDEN_BLESS=1 and says why."
    );
}

#[test]
fn a_second_run_counts_the_same() {
    assert_eq!(measure("paper_shared_read"), measure("paper_shared_read"));
}
