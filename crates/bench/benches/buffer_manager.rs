//! Component benches for the buffer manager — including the paper's
//! central implementation argument: approximate (clock) LRU keeps the
//! per-access cost low, where exact LRU "can result in a significant
//! overhead at each read/write invocation".
//!
//! Beyond the criterion groups, this target owns the observability guard
//! (`BENCH_obs.json`): a clock hit storm with and without a wired
//! `kcache-obs` hub, proving telemetry costs no more than measurement
//! noise on the path the paper optimizes. Run with `--quick` for the CI
//! smoke variant; each JSON is parsed back after writing, so a run doubles
//! as the format check. (The eager-vs-drained hit-path arbitration that
//! lived here went with the eager path in PR 22; perfbench's
//! `kcache.manager.hit_ns` / `mt_ops_per_s.*` time the surviving one.)
//!
//! Finally, the shard sweep (`BENCH_shard.json`): hit- and miss-path
//! throughput across `.shards(n)` for n = 1/2/4/8. Miss-path throughput
//! must not *decrease* as shards are added — on a single-CPU container
//! the curve is flat (threads serialize regardless of lock granularity),
//! which the report records as acceptable parity via the `cpus` field.

use criterion::{criterion_group, BatchSize, Criterion, Throughput};
use kcache::{Access, AccessKind, AppId, BlockKey, BufferManager, EvictPolicy, PolicyKind, Span};
use pvfs::Fid;
use serde::{Deserialize, Serialize};
use sim_net::NodeId;
use std::sync::Arc;
use std::time::Instant;

fn key(b: u64) -> BlockKey {
    BlockKey::new(Fid(1), b)
}

/// Serve `span` of `key` into `out`, unattributed; did it hit?
fn read(m: &BufferManager, key: BlockKey, span: Span, out: &mut [u8]) -> bool {
    m.access(key, Access::unattributed(AccessKind::Read { span, out })).is_hit()
}

/// Install a whole clean block on behalf of `app`.
fn install(m: &BufferManager, key: BlockKey, bytes: &[u8], app: AppId) {
    let kind = AccessKind::InsertClean { home: NodeId(0), span: Span::FULL, bytes };
    m.access(key, Access { app, kind });
}

fn filled_manager(policy: EvictPolicy, cap: usize) -> BufferManager {
    let m = BufferManager::builder(cap).policy(policy).build();
    let buf = vec![0xABu8; 4096];
    for b in 0..cap as u64 {
        install(&m, key(b), &buf, AppId::UNKNOWN);
    }
    m
}

/// Hit path: the per-access bookkeeping cost the paper worries about,
/// now measured across the whole policy family — this is the number that
/// justifies clock over exact LRU, and prices LFU/2Q/ARC/sharing-aware.
fn bench_hit_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("hit_path");
    g.throughput(Throughput::Elements(1));
    for kind in PolicyKind::ALL {
        let name = kind.name();
        let m = filled_manager(EvictPolicy::of(kind), 300);
        let mut out = vec![0u8; 4096];
        let mut i = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 7) % 300;
                assert!(read(&m, key(i), Span::FULL, &mut out));
            })
        });
    }
    g.finish();
}

/// Miss + insert + eviction churn.
fn bench_insert_evict(c: &mut Criterion) {
    let mut g = c.benchmark_group("insert_evict");
    g.throughput(Throughput::Elements(1));
    for kind in PolicyKind::ALL {
        let name = kind.name();
        let m = filled_manager(EvictPolicy::of(kind), 300);
        let buf = vec![0xCDu8; 4096];
        let mut next = 300u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                next += 1;
                install(&m, key(next), &buf, AppId::UNKNOWN);
            })
        });
    }
    g.finish();
}

/// Write-behind absorb path (copy + dirty-list linkage).
fn bench_write_absorb(c: &mut Criterion) {
    let mut g = c.benchmark_group("write_absorb");
    g.throughput(Throughput::Bytes(4096));
    let buf = vec![0xEFu8; 4096];
    g.bench_function("absorb_then_flush_cycle", |b| {
        b.iter_batched(
            || BufferManager::builder(300).build(),
            |m| {
                for blk in 0..128u64 {
                    let kind = AccessKind::Write { home: NodeId(0), span: Span::FULL, bytes: &buf };
                    m.access(key(blk), Access::unattributed(kind));
                }
                let items = m.take_dirty(128);
                for it in &items {
                    m.flush_complete(it.key, it.span);
                }
                items.len()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Multi-threaded contention: the fine-grained-locking claim (§3.2).
fn bench_concurrent(c: &mut Criterion) {
    let mut g = c.benchmark_group("concurrent_access");
    g.sample_size(10);
    for threads in [1usize, 4] {
        g.bench_function(format!("{}_threads", threads), |b| {
            b.iter_batched(
                || Arc::new(filled_manager(EvictPolicy::default(), 1024)),
                |m| {
                    std::thread::scope(|s| {
                        for t in 0..threads {
                            let m = Arc::clone(&m);
                            s.spawn(move || {
                                let mut out = vec![0u8; 4096];
                                for i in 0..2000u64 {
                                    let k = key((i * 13 + t as u64 * 97) % 1024);
                                    read(&m, k, Span::FULL, &mut out);
                                }
                            });
                        }
                    });
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_hit_path, bench_insert_evict, bench_write_absorb, bench_concurrent
}

// ---------------------------------------------------------------------
// Observability guard: obs-on vs obs-off hit path (`BENCH_obs.json`).
// ---------------------------------------------------------------------

const HITPATH_CAPACITY: usize = 1024;
const READ_SET: u64 = HITPATH_CAPACITY as u64;

#[derive(Debug, Serialize, Deserialize)]
struct HitPathResult {
    /// "obs_off" or "obs_on".
    mode: String,
    policy: String,
    threads: usize,
    total_ops: u64,
    secs: f64,
    mops_per_sec: f64,
}

/// Hit storm: `threads` reader threads serve resident 64 B-span reads
/// (small spans, so the per-access *bookkeeping* cost under measurement
/// is not drowned by a 4 KB memcpy per read).
fn measure_hits(m: &BufferManager, threads: usize, per_thread: u64) -> (u64, f64) {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut out = vec![0u8; 64];
                let span = Span::new(128, 192);
                let mut b = (t as u64 * 131) % READ_SET;
                for _ in 0..per_thread {
                    b = (b + 7) % READ_SET;
                    assert!(read(m, key(b), span, &mut out));
                }
            });
        }
    });
    (threads as u64 * per_thread, start.elapsed().as_secs_f64())
}

#[derive(Debug, Serialize, Deserialize)]
struct ObsOverhead {
    policy: String,
    threads: usize,
    /// (obs_off - obs_on) / obs_off, in percent; negative means obs-on
    /// measured faster (noise floor).
    overhead_pct: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct ObsReport {
    bench: String,
    capacity: usize,
    quick: bool,
    results: Vec<HitPathResult>,
    overheads: Vec<ObsOverhead>,
}

fn obs_manager(obs_on: bool) -> BufferManager {
    let obs = obs_on.then(|| kcache::ObsHub::new(kcache::obs::DEFAULT_TRACE_CAPACITY));
    let m = BufferManager::builder(HITPATH_CAPACITY)
        .watermarks(0, HITPATH_CAPACITY / 4)
        .epoch_accesses(0)
        .obs(obs, 0)
        .build();
    let buf = vec![0xABu8; 4096];
    for b in 0..READ_SET {
        install(&m, key(b), &buf, AppId::UNKNOWN);
    }
    m
}

/// The telemetry price on the number this crate exists to defend: the
/// clock hit path, with and without a wired [`kcache::ObsHub`].
/// An obs-on hit runs the *same* instructions as an obs-off hit — the
/// hub's hit/miss counters are deferred mirrors folded in at sync
/// points, never touched per access — so the two rates must stay within
/// the measurement noise of each other (the budget is 3 %). A hit
/// storm with no churner: the quantity under test is the per-hit
/// telemetry cost, and adding an insert/evict thread would measure lock
/// arbitration and scheduler behavior instead.
///
/// Protocol: samples alternate obs-off/obs-on (machine drift lands on
/// both sides equally) and each side reports its best of five — the
/// sample least disturbed by the scheduler — because the quantity under
/// test is a code-path cost, not run-to-run variance.
fn obs_report(quick: bool, json_path: &str) {
    // Long windows: a 3% gate needs samples long enough to average over
    // timer interrupts and scheduler ticks.
    let per_thread: u64 = if quick { 30_000 } else { 1_000_000 };
    let mut results = Vec::new();
    let mut overheads = Vec::new();
    for &threads in &[1usize, 2, 4] {
        let managers = [obs_manager(false), obs_manager(true)];
        for m in &managers {
            measure_hits(m, threads, per_thread / 4); // warm-up
        }
        let mut best: [Option<(u64, f64)>; 2] = [None, None];
        for _ in 0..5 {
            for (i, m) in managers.iter().enumerate() {
                let (ops, secs) = measure_hits(m, threads, per_thread);
                if best[i].is_none_or(|(_, b)| secs < b) {
                    best[i] = Some((ops, secs));
                }
            }
        }
        let mut rates = [0.0f64; 2];
        for (i, mode) in ["obs_off", "obs_on"].iter().enumerate() {
            let (ops, secs) = best[i].expect("sampled");
            let rate = ops as f64 / secs;
            rates[i] = rate;
            println!("obs/{mode}/{threads}t: {:.2} Mops/s", rate / 1e6);
            results.push(HitPathResult {
                mode: mode.to_string(),
                policy: "clock".into(),
                threads,
                total_ops: ops,
                secs,
                mops_per_sec: rate / 1e6,
            });
        }
        let overhead_pct = (rates[0] - rates[1]) / rates[0] * 100.0;
        println!("obs overhead {threads}t: {overhead_pct:.2}%");
        overheads.push(ObsOverhead { policy: "clock".into(), threads, overhead_pct });
    }
    let report = ObsReport {
        bench: "buffer_manager/obs_hitpath".into(),
        capacity: HITPATH_CAPACITY,
        quick,
        results,
        overheads,
    };
    let text = serde_json::to_string_pretty(&report).expect("serialize obs report");
    std::fs::write(json_path, &text).expect("write BENCH_obs.json");
    let parsed: ObsReport = serde_json::from_str(&text).expect("re-parse obs report");
    assert_eq!(parsed.results.len(), report.results.len());
    println!("obs report written to {json_path} ({} results, parse OK)", report.results.len());
}

// ---------------------------------------------------------------------
// Shard sweep: per-shard leaf locks across shard counts
// (`BENCH_shard.json`).
// ---------------------------------------------------------------------

/// Working set for the shard hit storm: half the capacity, so hash-skew
/// across per-shard slices never forces evictions of the read set.
const SHARD_READ_SET: u64 = (HITPATH_CAPACITY / 2) as u64;

#[derive(Debug, Serialize, Deserialize)]
struct ShardResult {
    /// "hit" (resident reads) or "miss" (insert + eviction churn).
    path: String,
    shards: usize,
    threads: usize,
    total_ops: u64,
    secs: f64,
    mops_per_sec: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct ShardReport {
    bench: String,
    capacity: usize,
    quick: bool,
    /// Host parallelism at measurement time. With `cpus == 1` the
    /// miss-path curve is expected to be flat: threads serialize on the
    /// scheduler regardless of lock granularity, so flat parity (not
    /// scaling) is the acceptance bar recorded here.
    cpus: usize,
    notes: String,
    results: Vec<ShardResult>,
}

fn shard_manager(shards: usize) -> BufferManager {
    let m = BufferManager::builder(HITPATH_CAPACITY)
        .watermarks(0, HITPATH_CAPACITY / 4)
        .epoch_accesses(0)
        .shards(shards)
        .build();
    let buf = vec![0xABu8; 4096];
    for blk in 0..SHARD_READ_SET {
        install(&m, key(blk), &buf, AppId::UNKNOWN);
    }
    m
}

/// Pure-hit storm over the shard working set. No success assertion:
/// hash routing splits capacity unevenly across shards, so a rare
/// straggler miss must not abort the measurement (it still prices a
/// full lookup, which is the quantity under test).
fn measure_shard_hits(m: &BufferManager, threads: usize, per_thread: u64) -> (u64, f64) {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut out = vec![0u8; 64];
                let span = Span::new(128, 192);
                let mut b = (t as u64 * 131) % SHARD_READ_SET;
                for _ in 0..per_thread {
                    b = (b + 7) % SHARD_READ_SET;
                    read(m, key(b), span, &mut out);
                }
            });
        }
    });
    (threads as u64 * per_thread, start.elapsed().as_secs_f64())
}

/// Miss-path storm: every insert is a miss plus (once warm) an eviction
/// scan under the owning shard's policy lock — the contention sharding
/// divides. Thread-disjoint key ranges spread across shards by hash.
fn measure_shard_misses(m: &BufferManager, threads: usize, per_thread: u64) -> (u64, f64) {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let buf = vec![0xCDu8; 4096];
                let mut next = 2_000_000_000u64 + t as u64 * 1_000_000_000;
                for _ in 0..per_thread {
                    next += 1;
                    install(m, key(next), &buf, AppId::UNKNOWN);
                }
            });
        }
    });
    (threads as u64 * per_thread, start.elapsed().as_secs_f64())
}

fn shard_report(quick: bool, json_path: &str) {
    let hit_per_thread: u64 = if quick { 30_000 } else { 300_000 };
    let miss_per_thread: u64 = if quick { 5_000 } else { 50_000 };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut results = Vec::new();
    let configs = [1usize, 2, 4, 8];
    for &threads in &[1usize, 4, 8] {
        for (path, per_thread, measure) in [
            (
                "hit",
                hit_per_thread,
                measure_shard_hits as fn(&BufferManager, usize, u64) -> (u64, f64),
            ),
            ("miss", miss_per_thread, measure_shard_misses),
        ] {
            let managers: Vec<BufferManager> =
                configs.iter().map(|&shards| shard_manager(shards)).collect();
            for m in &managers {
                measure(m, threads, per_thread / 4); // warm-up
            }
            // Same protocol as the obs guard: samples alternate across
            // all configs each round (machine drift lands on every
            // config equally) and each config reports its best of five
            // — the quantity under test is a code-path cost, not
            // run-to-run scheduler variance.
            let mut best: Vec<Option<(u64, f64)>> = vec![None; configs.len()];
            for _ in 0..5 {
                for (i, m) in managers.iter().enumerate() {
                    let (ops, secs) = measure(m, threads, per_thread);
                    if best[i].is_none_or(|(_, b)| secs < b) {
                        best[i] = Some((ops, secs));
                    }
                }
            }
            for (i, &n) in configs.iter().enumerate() {
                let (ops, secs) = best[i].expect("sampled");
                let rate = ops as f64 / secs;
                println!("shard/{path}/{n}s/{threads}t: {:.2} Mops/s", rate / 1e6);
                results.push(ShardResult {
                    path: path.to_string(),
                    shards: n,
                    threads,
                    total_ops: ops,
                    secs,
                    mops_per_sec: rate / 1e6,
                });
            }
        }
    }
    let report = ShardReport {
        bench: "buffer_manager/shard_sweep".into(),
        capacity: HITPATH_CAPACITY,
        quick,
        cpus,
        notes: "Acceptance: miss-path throughput non-decreasing with shard count \
                at 4/8 threads on multi-core hosts. With cpus=1 a flat miss-path \
                curve is expected and acceptable: threads serialize on the \
                scheduler, so lock granularity cannot change throughput."
            .into(),
        results,
    };
    let text = serde_json::to_string_pretty(&report).expect("serialize shard report");
    std::fs::write(json_path, &text).expect("write BENCH_shard.json");
    let parsed: ShardReport = serde_json::from_str(&text).expect("re-parse shard report");
    assert_eq!(parsed.results.len(), report.results.len());
    println!("shard report written to {json_path} ({} results, parse OK)", report.results.len());
}

fn arg_path(args: &[String], flag: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| default.into())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // Cargo runs bench binaries with cwd = the package root, so the
    // defaults must anchor at the workspace root or the committed
    // trajectory entries would never be the ones regenerated.
    let obs_path =
        arg_path(&args, "--obs-json", concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json"));
    let shard_path = arg_path(
        &args,
        "--shard-json",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json"),
    );
    if !quick {
        benches();
    }
    obs_report(quick, &obs_path);
    shard_report(quick, &shard_path);
}
