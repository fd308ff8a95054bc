//! `DueQueue` against an independent oracle: a binary heap keyed on
//! `(time, push sequence)`, the order the engine promised before it had a
//! `DueQueue`. Seeded random interleavings of pushes and pops, with times
//! drawn from narrow windows so that most pushes tie with queued entries.

use sim_core::{DetRng, DueQueue, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One random script: `ops` steps, each a push (with chance `push_p`) or
/// a pop, checked step by step against the oracle, then drained.
fn differential(seed: u64, ops: usize, span: u64, push_p: f64, follow_clock: bool) {
    let mut rng = DetRng::stream(seed, 0);
    let mut queue = DueQueue::new();
    let mut oracle: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now = SimTime::ZERO;
    for step in 0..ops {
        if rng.chance(push_p) {
            // Like an engine, push no earlier than the last pop; or anywhere.
            let base = if follow_clock { now.nanos() } else { 0 };
            let at = SimTime(base + rng.below(span));
            let id = step as u32;
            queue.push(at, id);
            oracle.push(Reverse((at, seq, id)));
            seq += 1;
        } else {
            let want = oracle.pop().map(|Reverse((at, _, id))| (at, id));
            assert_eq!(queue.pop(), want, "seed {seed} step {step}: pop");
            if let Some((at, _)) = want {
                now = at;
            }
        }
        let want = oracle.peek().map(|Reverse((at, _, id))| (*at, id));
        assert_eq!(queue.peek(), want, "seed {seed} step {step}: peek");
    }
    while let Some(Reverse((at, _, id))) = oracle.pop() {
        assert_eq!(queue.pop(), Some((at, id)), "seed {seed}: drain");
    }
    assert!(queue.pop().is_none(), "seed {seed}: drained");
}

#[test]
fn matches_a_heap_on_time_then_push_order() {
    for seed in 0..300 {
        let mut knobs = DetRng::stream(seed, 1);
        let span = [1, 2, 3, 8, 50, 1_000][knobs.below(6) as usize];
        let push_p = [0.5, 0.6, 0.8][knobs.below(3) as usize];
        differential(seed, 400, span, push_p, knobs.chance(0.5));
    }
}

#[test]
fn a_burst_of_one_instant_comes_out_in_push_order() {
    let mut queue = DueQueue::new();
    queue.push(SimTime(7), u32::MAX);
    for id in 0..100 {
        queue.push(SimTime(5), id);
    }
    let order: Vec<u32> = std::iter::from_fn(|| queue.pop().map(|(_, id)| id)).collect();
    assert_eq!(order, (0..100).chain([u32::MAX]).collect::<Vec<_>>());
}
