//! `Directory` against an independent model: a plain
//! `(fid, blk) → BTreeSet<NodeId>` map. Random `register` runs and
//! `take_others` calls over two files, blocks up to 10^5 and node ids up
//! to 70 (a valid `cluster.nodes`, past a 64-bit mask) must agree with the
//! model on every new entry count, every invalidation list and its order
//! (ascending node id), and on `sharers`, including blocks past the end of
//! what was ever registered.

use pvfs::{Directory, Fid};
use sim_net::NodeId;
use std::collections::{BTreeMap, BTreeSet};

const FIDS: [Fid; 2] = [Fid(3), Fid(8)];
const MAX_BLOCK: u64 = 100_000;
const NODES: u64 = 70;

/// A 64-bit LCG; the high bits are the draw.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

#[derive(Default)]
struct Model {
    entries: BTreeMap<(Fid, u64), BTreeSet<NodeId>>,
}

impl Model {
    fn register(&mut self, fid: Fid, blocks: &[u64], node: NodeId) -> u64 {
        let mut added = 0;
        for &b in blocks {
            added += self.entries.entry((fid, b)).or_default().insert(node) as u64;
        }
        added
    }

    fn take_others(&mut self, fid: Fid, blk: u64, writer: NodeId) -> Vec<NodeId> {
        let Some(entry) = self.entries.get_mut(&(fid, blk)) else {
            return Vec::new();
        };
        let others = entry.iter().copied().filter(|&n| n != writer).collect();
        entry.retain(|&n| n == writer);
        others
    }

    fn sharers(&self, fid: Fid, blk: u64) -> Vec<NodeId> {
        self.entries.get(&(fid, blk)).map_or_else(Vec::new, |e| e.iter().copied().collect())
    }
}

/// A block: most from a small hot set, so lists grow and get taken, the
/// rest anywhere up to `MAX_BLOCK`.
fn block(rng: &mut Rng) -> u64 {
    if rng.below(4) == 0 {
        rng.below(MAX_BLOCK)
    } else {
        rng.below(64) * 97
    }
}

fn run(seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut dir = Directory::default();
    let mut model = Model::default();
    let mut highest = [0u64; 2];
    for step in 0..steps {
        let f = rng.below(2) as usize;
        let fid = FIDS[f];
        let node = NodeId(rng.below(NODES) as u16);
        if rng.below(3) == 0 {
            let blk = block(&mut rng);
            let got = dir.take_others(fid, blk, node);
            assert_eq!(got, model.take_others(fid, blk, node), "step {step}: take_others");
        } else {
            // A request's run of consecutive blocks, as the iod registers.
            let first = block(&mut rng);
            let blocks: Vec<u64> = (first..first + 1 + rng.below(16)).collect();
            highest[f] = highest[f].max(*blocks.last().unwrap());
            let got = dir.register(fid, blocks.iter().copied(), node);
            assert_eq!(got, model.register(fid, &blocks, node), "step {step}: register");
        }
        let blk = block(&mut rng);
        assert_eq!(dir.sharers(fid, blk), model.sharers(fid, blk), "step {step}: sharers");
    }
    for (f, fid) in FIDS.into_iter().enumerate() {
        for blk in (0..MAX_BLOCK + 100).step_by(97) {
            assert_eq!(dir.sharers(fid, blk), model.sharers(fid, blk), "{fid:?} blk {blk}");
        }
        for past in [highest[f] + 1, highest[f] + 1000, 1 << 40, u64::MAX] {
            assert!(dir.sharers(fid, past).is_empty(), "{fid:?} blk {past} past the table");
            assert!(dir.take_others(fid, past, NodeId(0)).is_empty());
        }
    }
    assert!(dir.sharers(Fid(99), 0).is_empty(), "a file never registered");
}

#[test]
fn directory_matches_flat_map_model() {
    for seed in 1..=20 {
        run(seed, 3000);
    }
}
