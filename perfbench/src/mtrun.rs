//! Running `manager_mt`: the buffer manager under two real client
//! threads replaying pre-generated op streams. No simulator.

use crate::adapter::manager::{
    paper_cache_costs, Manager, ManagerCounters, ManagerKind, ReadOutcome, BLOCK_SIZE,
};
use crate::layers::{finish, mt_values, ratio, MtTiming};
use crate::report::{Checks, RepCounts, RunReport};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::workloads::{
    mt_ops_per_thread, op_stream, Op, Size, MT_BATCH, MT_CAPACITY, MT_FLUSH_TAKE, MT_KEYS,
    MT_THREADS,
};
use crate::{micro, peak_rss_mb, Plan, TraceFiles, SETUP_REPS};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Barrier;
use std::time::Instant;

/// Every `FULL_CHECK_EVERY`-th op of a stream compares the whole block it
/// read; the others compare its first `HEAD_CHECK` bytes.
const FULL_CHECK_EVERY: usize = 16;
const HEAD_CHECK: usize = 16;

/// The generated inputs: one op stream per thread, and the one true
/// content of every block (fills and writes both store it, so a read may
/// be checked whatever the interleaving).
struct Inputs {
    streams: Vec<Vec<Op>>,
    blocks: Vec<u8>,
}

impl Inputs {
    fn generate(seed: u64, size: Size) -> Inputs {
        let len = mt_ops_per_thread(size);
        let streams = (0..MT_THREADS).map(|t| op_stream(seed, t, len)).collect();
        let mut blocks = vec![0u8; MT_KEYS * BLOCK_SIZE];
        for (blk, block) in blocks.chunks_exact_mut(BLOCK_SIZE).enumerate() {
            // The block number up front, so no two blocks share a head.
            block[..8].copy_from_slice(&(blk as u64).to_le_bytes());
            for (i, b) in block.iter_mut().enumerate().skip(8) {
                *b = (blk * 131 + i * 7) as u8;
            }
        }
        Inputs { streams, blocks }
    }

    fn block(&self, blk: u64) -> &[u8] {
        &self.blocks[blk as usize * BLOCK_SIZE..][..BLOCK_SIZE]
    }

    fn ops_per_rep(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }
}

/// What the benchmark itself counted while replaying.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Tally {
    read_hits: u64,
    read_misses: u64,
    writes_absorbed: u64,
    writes_passthrough: u64,
    bad_bytes: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.read_hits += o.read_hits;
        self.read_misses += o.read_misses;
        self.writes_absorbed += o.writes_absorbed;
        self.writes_passthrough += o.writes_passthrough;
        self.bad_bytes += o.bad_bytes;
    }

    fn reads(&self) -> u64 {
        self.read_hits + self.read_misses
    }
}

/// Replay `ops` (starting at stream position `base`) as application `app`.
fn replay(
    m: &Manager,
    inp: &Inputs,
    ops: &[Op],
    base: usize,
    app: u32,
    out: &mut [u8],
    t: &mut Tally,
) {
    for (i, op) in ops.iter().enumerate() {
        let blk = op.blk as u64;
        if op.write {
            if m.write_absorbed(blk, app, inp.block(blk)) {
                t.writes_absorbed += 1;
            } else {
                t.writes_passthrough += 1;
            }
            continue;
        }
        match m.read_or_fill(blk, app, out, |b| inp.block(b)) {
            ReadOutcome::Hit => {
                t.read_hits += 1;
                let full = (base + i).is_multiple_of(FULL_CHECK_EVERY);
                let n = if full { BLOCK_SIZE } else { HEAD_CHECK };
                if out[..n] != inp.block(blk)[..n] {
                    t.bad_bytes += 1;
                }
            }
            ReadOutcome::MissFilled { bad_writeback } => {
                t.read_misses += 1;
                t.bad_bytes += bad_writeback as u64;
            }
        }
    }
}

/// Thread 0's background duty between batches: one flusher turn, and a
/// harvester turn when the free list is low.
fn background_turn(m: &Manager, inp: &Inputs, t: &mut Tally) {
    let (_, bad) = m.flush_turn(MT_FLUSH_TAKE, |b| inp.block(b));
    let (_, bad_urgent) = m.harvest_turn(|b| inp.block(b));
    t.bad_bytes += bad + bad_urgent;
}

/// Flush until nothing is dirty, so the rep leaves no data behind.
fn final_flush(m: &Manager, inp: &Inputs, t: &mut Tally) {
    loop {
        let (blocks, bad) = m.flush_turn(MT_FLUSH_TAKE, |b| inp.block(b));
        t.bad_bytes += bad;
        if blocks == 0 {
            break;
        }
    }
}

/// One finished rep.
struct Rep {
    wall_s: f64,
    tally: Tally,
    counters: ManagerCounters,
    /// Wall time of every `MT_BATCH`-op batch, µs (traced reps only).
    batch_us: Vec<f64>,
}

impl Rep {
    /// The invariants a rep must leave behind: the manager counted every
    /// read the benchmark issued exactly once, conserved its frames, kept
    /// no dirty block, and never served foreign bytes.
    fn broken(&self) -> bool {
        let (s, f) = (&self.counters.stats, &self.counters.frames);
        s.hits + s.misses != self.tally.reads()
            || f.resident + f.free != f.capacity
            || self.counters.dirty_left != 0
            || self.tally.bad_bytes != 0
    }
}

/// The reference replay: one thread plays both streams, alternating
/// batch by batch, with the same background duty. Deterministic, so it is
/// where the counters and the sim-clock figures come from; it is also the
/// one-thread side of the scaling ratio.
fn reference_rep(inp: &Inputs) -> Rep {
    let m = Manager::build(MT_CAPACITY, ManagerKind::Default);
    let mut out = vec![0u8; BLOCK_SIZE];
    let mut tally = Tally::default();
    let t = Instant::now();
    let batches = inp.streams[0].len().div_ceil(MT_BATCH);
    for b in 0..batches {
        for (thread, stream) in inp.streams.iter().enumerate() {
            let base = b * MT_BATCH;
            let ops = &stream[base..(base + MT_BATCH).min(stream.len())];
            replay(&m, inp, ops, base, thread as u32, &mut out, &mut tally);
            if thread == 0 {
                background_turn(&m, inp, &mut tally);
            }
        }
    }
    final_flush(&m, inp, &mut tally);
    Rep { wall_s: t.elapsed().as_secs_f64(), tally, counters: m.counters(), batch_us: Vec::new() }
}

/// One measured rep: `MT_THREADS` threads, one stream each, released
/// together; thread 0 also does the background duty. Wall time runs from
/// the release to the end of the final flush.
fn threaded_rep(inp: &Inputs, kind: ManagerKind, time_batches: bool) -> Rep {
    let m = Manager::build(MT_CAPACITY, kind);
    let gate = Barrier::new(MT_THREADS + 1);
    let mut tally = Tally::default();
    let mut batch_us = Vec::new();
    let wall_s = std::thread::scope(|s| {
        let handles: Vec<_> = inp
            .streams
            .iter()
            .enumerate()
            .map(|(thread, stream)| {
                let (m, gate) = (&m, &gate);
                s.spawn(move || {
                    let mut out = vec![0u8; BLOCK_SIZE];
                    let mut tally = Tally::default();
                    let mut batch_us = Vec::new();
                    gate.wait();
                    for (b, ops) in stream.chunks(MT_BATCH).enumerate() {
                        let t = time_batches.then(Instant::now);
                        replay(m, inp, ops, b * MT_BATCH, thread as u32, &mut out, &mut tally);
                        if thread == 0 {
                            background_turn(m, inp, &mut tally);
                        }
                        if let Some(t) = t {
                            batch_us.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                    }
                    (tally, batch_us)
                })
            })
            .collect();
        gate.wait();
        let t = Instant::now();
        for h in handles {
            let (thread_tally, thread_batches) = h.join().expect("client thread panicked");
            tally.add(&thread_tally);
            batch_us.extend(thread_batches);
        }
        final_flush(&m, inp, &mut tally);
        t.elapsed().as_secs_f64()
    });
    Rep { wall_s, tally, counters: m.counters(), batch_us }
}

/// `manager_mt` has no simulator, so its sim-clock figures are the CPU
/// time the paper's cost model bills for the cache work of the reference
/// replay — lookup per access, copy per hit and per absorbed write, insert
/// per miss fill, the charges `CacheModule` makes — on one node CPU. They
/// move only when the manager's hit / miss / absorb decisions move.
fn modelled_sim(t: &Tally) -> (f64, f64) {
    let c = paper_cache_costs();
    let ops = t.reads() + t.writes_absorbed + t.writes_passthrough;
    let charged_ns = ops as f64 * c.lookup
        + (t.read_hits + t.writes_absorbed) as f64 * c.copy
        + t.read_misses as f64 * c.insert;
    let bandwidth_mbps = (ops * BLOCK_SIZE as u64) as f64 / 1e6 / (charged_ns / 1e9);
    let request_latency_mean_ms = charged_ns / ops as f64 / 1e6;
    (bandwidth_mbps, request_latency_mean_ms)
}

pub fn run(plan: &Plan, started: Instant) -> Result<(RunReport, Option<TraceFiles>), String> {
    // Set-up: generate the inputs and run the reference replay, several
    // times; the first sample starts at process start.
    let mut setup_samples = Vec::new();
    let mut reference_results = BTreeSet::new();
    let mut t1_ops_per_s = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPS {
        let t = if i == 0 { started } else { Instant::now() };
        let inp = Inputs::generate(plan.seed, plan.size);
        let rep = reference_rep(&inp);
        setup_samples.push(t.elapsed().as_secs_f64());
        t1_ops_per_s.push(inp.ops_per_rep() as f64 / rep.wall_s);
        reference_results.insert(rep.tally);
        last = Some((inp, rep));
    }
    let (inp, reference) = last.expect("at least one set-up rep");
    let ops_per_rep = inp.ops_per_rep();

    let mut reps = RepCounts { setup: SETUP_REPS as u64, ..RepCounts::default() };
    let mut broken_reps = reference.broken() as u64;
    let mut bad_bytes = reference.tally.bad_bytes;
    let mut dirty_left = reference.counters.dirty_left;
    let mut ring_overflows = 0;
    let mut measured = |kind: ManagerKind, time_batches: bool| {
        let rep = threaded_rep(&inp, kind, time_batches);
        broken_reps += rep.broken() as u64;
        bad_bytes += rep.tally.bad_bytes;
        dirty_left = dirty_left.max(rep.counters.dirty_left);
        ring_overflows = ring_overflows.max(rep.counters.ring_overflows);
        (ops_per_rep as f64 / rep.wall_s, rep.batch_us)
    };

    let min_reps = if plan.size == Size::Smoke { 1 } else { 3 };
    let phase = Instant::now();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut t2_ops_per_s = Vec::new();

    let (metrics, trace_files) = if !plan.trace {
        while (reps.timed as usize) < min_reps || phase.elapsed().as_secs_f64() < plan.seconds {
            t2_ops_per_s.push(measured(ManagerKind::Default, false).0);
            reps.timed += 1;
        }
        let (bandwidth_mbps, request_latency_mean_ms) = modelled_sim(&reference.tally);
        let metrics = vec![
            ("setup_s".to_string(), median(&setup_samples)),
            ("host_ops_per_s".to_string(), median(&t2_ops_per_s)),
            ("host_peak_rss_mb".to_string(), peak_rss_mb()),
            ("sim_bandwidth_mbps".to_string(), bandwidth_mbps),
            ("sim_request_latency_mean_ms".to_string(), request_latency_mean_ms),
        ];
        samples.insert("setup_s".to_string(), setup_samples);
        samples.insert("host_ops_per_s".to_string(), t2_ops_per_s);
        (metrics, None)
    } else {
        // Traced: every batch of every thread timed; an untraced rep
        // before each traced one prices the timing. Then the shard sweep.
        let mut rec = Recorder::new();
        let (mut traced_ops_per_s, mut batch_us) = (Vec::new(), Vec::new());
        // The sweep's six reps need their share of the run.
        let pair_budget_s = plan.seconds / 2.0;
        while (reps.traced as usize) < min_reps || phase.elapsed().as_secs_f64() < pair_budget_s {
            let rep = reps.traced as u32;
            let ((ops_per_s, _), _) =
                rec.within("rep.untraced", rep, || measured(ManagerKind::Default, false));
            t2_ops_per_s.push(ops_per_s);
            reps.timed += 1;
            let ((ops_per_s, batches), _) =
                rec.within("rep.traced", rep, || measured(ManagerKind::Default, true));
            traced_ops_per_s.push(ops_per_s);
            batch_us.extend(batches);
            reps.traced += 1;
        }
        let mut sweep = |shards: usize, name: &'static str| {
            let runs: Vec<f64> = (0..min_reps)
                .map(|i| {
                    rec.within(name, i as u32, || measured(ManagerKind::Shards(shards), false)).0 .0
                })
                .collect();
            reps.timed += runs.len() as u64;
            median(&runs)
        };
        let timing = MtTiming {
            t2_shards2_ops_per_s: sweep(2, "rep.shards2"),
            t2_shards4_ops_per_s: sweep(4, "rep.shards4"),
            t1_ops_per_s: median(&t1_ops_per_s),
            t2_ops_per_s: median(&t2_ops_per_s),
            batch_p50_us: percentile(&batch_us, 50.0),
            batch_p99_us: percentile(&batch_us, 99.0),
            overhead_ratio: ratio(median(&t2_ops_per_s), median(&traced_ops_per_s)),
            ring_overflows,
            ops_per_rep,
        };
        let values = mt_values(&reference.counters, &timing, &micro::run(plan.size));
        (finish(values, false), Some(TraceFiles { host: rec.chrome_trace_json(), sim: None }))
    };

    let all_reps = reps.setup + reps.timed + reps.traced;
    let s = &reference.counters.stats;
    let checks = Checks {
        completed: true,
        verify_failures: 0,
        bad_bytes,
        lookups: reference.tally.reads(),
        hits: s.hits,
        misses: s.misses,
        frames: vec![reference.counters.frames],
        dirty_after_final_flush: Some(dirty_left),
        distinct_fingerprints: reference_results.len() as u64,
        determinism_expected: true,
        broken_reps,
    };
    Ok((
        RunReport {
            workload: plan.workload.clone(),
            seed: plan.seed,
            seconds: plan.seconds,
            trace: plan.trace,
            size: plan.size,
            threads: MT_THREADS,
            reps,
            ops_per_rep,
            ops_attempted: all_reps * ops_per_rep,
            ops_failed: broken_reps * ops_per_rep,
            checks,
            metrics,
            samples,
        },
        trace_files,
    ))
}
