//! Running a simulated workload: set-up reference reps, then either timed
//! whole-experiment reps (untraced) or alternating untraced / traced reps
//! with spans and per-layer counters (traced).

use crate::adapter::sim::{lower, Fingerprint, Lowered, SimCounters, SimSeen};
use crate::layers::{finish, ratio, sim_values, SimTiming};
use crate::report::{Checks, RepCounts, RunReport};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{sim_input, Size};
use crate::{micro, peak_rss_mb, Plan, TraceFiles, SETUP_REPS};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The simulator iterates `HashMap`s in `CacheModule::send_flush` (per
/// `(iod, file)` flush batches), in the cooperative fetch fan-out and in
/// the iod's invalidation fan-out, so with write-behind or cooperative
/// traffic two runs of one seed differ (≈0.1–0.5 % on the sim metrics).
/// Until that is fixed in the program, only the pure-read row can be
/// held to "same seed, same numbers"; the others report how many
/// distinct results their reps produced instead of failing on it.
fn determinism_expected(workload: &str) -> bool {
    workload == "paper_shared_read"
}

/// Op accounting and result fingerprints over every rep of a run.
#[derive(Default)]
struct Ledger {
    /// Requests one rep plans to issue.
    planned: u64,
    attempted: u64,
    failed: u64,
    /// Some rep stopped short of its planned requests.
    incomplete: bool,
    verify_failures: u64,
    fingerprints: BTreeSet<Fingerprint>,
}

impl Ledger {
    fn note(&mut self, seen: &SimSeen, fingerprint: Fingerprint) {
        self.attempted += self.planned;
        self.failed += self.planned.saturating_sub(seen.requests_done) + seen.verify_failures;
        self.incomplete |= !seen.completed || seen.requests_done != self.planned;
        self.verify_failures += seen.verify_failures;
        self.fingerprints.insert(fingerprint);
    }
}

/// One reference rep, driven in slices: `build` → `run_until` × n →
/// `extract`, each recorded as a span of rep `rep`.
fn sliced_rep(lowered: &Lowered, rec: &mut Recorder, rep: u32) -> SimCounters {
    let (mut built, _) = rec.within("build", rep, || lowered.build());
    rec.enter("run_until", rep);
    loop {
        let (done, _) = rec.within("slice", rep, || built.run_slice());
        if done {
            break;
        }
    }
    rec.exit();
    rec.within("extract", rep, || built.extract(lowered)).0
}

pub fn run(plan: &Plan, started: Instant) -> Result<(RunReport, Option<TraceFiles>), String> {
    let input = sim_input(&plan.workload, plan.seed, plan.size, false)
        .ok_or_else(|| format!("unknown workload {:?}", plan.workload))?;

    // Set-up: lower the config and run one reference rep, several times.
    // The first sample starts at process start, so it carries start-up
    // and first-touch costs; the median is the reported `setup_s`.
    let mut setup_samples = Vec::new();
    let mut scratch = Recorder::new();
    let mut reference = None;
    let mut ledger = Ledger::default();
    for i in 0..SETUP_REPS {
        let t = if i == 0 { started } else { Instant::now() };
        let lowered = lower(&input)?;
        let counters = sliced_rep(&lowered, &mut scratch, i as u32);
        setup_samples.push(t.elapsed().as_secs_f64());
        ledger.planned = lowered.planned_requests();
        ledger.note(&counters.seen, counters.fingerprint.clone());
        reference = Some((lowered, counters));
    }
    let (lowered, reference) = reference.expect("at least one set-up rep");
    let planned = ledger.planned;

    let min_reps = if plan.size == Size::Smoke { 1 } else { 3 };
    let phase = Instant::now();
    let more = |reps: usize| reps < min_reps || phase.elapsed().as_secs_f64() < plan.seconds;

    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut reps = RepCounts { setup: SETUP_REPS as u64, ..RepCounts::default() };
    let mut untraced_ops_per_s = Vec::new();
    let mut timed_rep = |ledger: &mut Ledger| {
        let t = Instant::now();
        let whole = lowered.run_whole();
        untraced_ops_per_s.push(planned as f64 / t.elapsed().as_secs_f64());
        ledger.note(&whole.seen, whole.fingerprint);
        whole.seen
    };

    let (metrics, trace_files) = if !plan.trace {
        let (mut bandwidth, mut latency) = (Vec::new(), Vec::new());
        while more(reps.timed as usize) {
            let seen = timed_rep(&mut ledger);
            bandwidth.push(seen.bandwidth_mbps);
            latency.push(seen.request_latency_mean_ms);
            reps.timed += 1;
        }
        let metrics = vec![
            ("setup_s".to_string(), median(&setup_samples)),
            ("host_ops_per_s".to_string(), median(&untraced_ops_per_s)),
            ("host_peak_rss_mb".to_string(), peak_rss_mb()),
            ("sim_bandwidth_mbps".to_string(), median(&bandwidth)),
            ("sim_request_latency_mean_ms".to_string(), median(&latency)),
        ];
        samples.insert("setup_s".to_string(), setup_samples);
        samples.insert("host_ops_per_s".to_string(), untraced_ops_per_s);
        samples.insert("sim_bandwidth_mbps".to_string(), bandwidth);
        samples.insert("sim_request_latency_mean_ms".to_string(), latency);
        (metrics, None)
    } else {
        // Traced: telemetry on, the rep driven in slices under spans; an
        // untraced rep before each traced one prices the difference.
        let traced_input =
            sim_input(&plan.workload, plan.seed, plan.size, true).expect("known workload");
        let mut rec = Recorder::new();
        let mut traced_ops_per_s = Vec::new();
        let mut last = None;
        let mut sim_trace = None;
        while more(reps.traced as usize) {
            timed_rep(&mut ledger);
            reps.timed += 1;
            let rep = reps.traced as u32;
            rec.enter("rep", rep);
            // Lowered afresh each rep: the spec owns the telemetry hubs,
            // and reusing one would accumulate across reps.
            let traced = rec.within("to_spec", rep, || lower(&traced_input)).0?;
            let counters = sliced_rep(&traced, &mut rec, rep);
            traced_ops_per_s.push(planned as f64 / rec.exit());
            ledger.note(&counters.seen, counters.fingerprint.clone());
            let dump = traced.drain_trace(plan.out.is_some()).expect("traced config has hubs");
            sim_trace = dump.chrome_json;
            last = Some((counters, dump.events, dump.dropped));
            reps.traced += 1;
        }
        let (counters, trace_events, trace_dropped) = last.expect("at least one traced rep");
        let timing = SimTiming {
            build_s: median(&rec.durations("build")),
            run_until_s: median(&rec.durations("run_until")),
            extract_s: median(&rec.durations("extract")),
            overhead_ratio: ratio(median(&untraced_ops_per_s), median(&traced_ops_per_s)),
            trace_events,
            trace_dropped,
        };
        let values = sim_values(&counters, &timing, &micro::run(plan.size));
        (finish(values, true), Some(TraceFiles { host: rec.chrome_trace_json(), sim: sim_trace }))
    };

    // Invariants, from the last set-up rep's own extraction: two ledgers
    // of the same lookups agree, and every manager conserves its frames.
    let c = &reference;
    let checks = Checks {
        completed: !ledger.incomplete,
        verify_failures: ledger.verify_failures,
        bad_bytes: 0,
        lookups: c.policy.hits + c.policy.misses,
        hits: c.cache.hits,
        misses: c.cache.misses,
        frames: c.frames.clone(),
        dirty_after_final_flush: None,
        distinct_fingerprints: ledger.fingerprints.len() as u64,
        determinism_expected: determinism_expected(&plan.workload),
        broken_reps: 0,
    };
    Ok((
        RunReport {
            workload: plan.workload.clone(),
            seed: plan.seed,
            seconds: plan.seconds,
            trace: plan.trace,
            size: plan.size,
            threads: 1,
            reps,
            ops_per_rep: planned,
            ops_attempted: ledger.attempted,
            ops_failed: ledger.failed,
            checks,
            metrics,
            samples,
        },
        trace_files,
    ))
}
