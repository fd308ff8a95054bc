//! `BlockAllocator` against an independent model: a bitmap, one `bool` per
//! block, searched block by block. The disk's seek model reads every block
//! the allocator hands out, so placement must match exactly, not just in
//! count: the first run of `n` free blocks in `[hint, capacity)`, else in
//! `[0, hint)` (a free run straddling the hint is two runs to the search),
//! else every free block upward from the hint, wrapping, with consecutive
//! picks merged into one extent.
//!
//! Random sequences of allocations (sizes from one block to most of the
//! volume; hints anywhere, past the end, or inside a free run so that runs
//! straddle them) and frees (whole extents, or any part of one, as the fs
//! frees a removed file's blocks one by one) over small volumes, some
//! driven nearly full, must return the model's extents, or `None` when it
//! does, and agree on free blocks and on which blocks are allocated.

use sim_disk::fs::alloc::BlockAllocator;
use sim_disk::Extent;

/// A 64-bit LCG; the high bits are the draw.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

struct Model {
    used: Vec<bool>,
}

impl Model {
    fn capacity(&self) -> u64 {
        self.used.len() as u64
    }

    fn free_blocks(&self) -> u64 {
        self.used.iter().filter(|&&u| !u).count() as u64
    }

    /// Start of the first `n` consecutive free blocks within `[lo, hi)`.
    fn first_fit(&self, lo: u64, hi: u64, n: u64) -> Option<u64> {
        let mut run = 0;
        for b in lo..hi {
            run = if self.used[b as usize] { 0 } else { run + 1 };
            if run == n {
                return Some(b + 1 - n);
            }
        }
        None
    }

    fn allocate(&mut self, n: u64, hint: u64) -> Option<Vec<Extent>> {
        if n == 0 {
            return Some(Vec::new());
        }
        if self.free_blocks() < n {
            return None;
        }
        let cap = self.capacity();
        let start = hint.min(cap - 1);
        let picks: Vec<u64> =
            match self.first_fit(start, cap, n).or_else(|| self.first_fit(0, start, n)) {
                Some(first) => (first..first + n).collect(),
                None => (start..cap)
                    .chain(0..start)
                    .filter(|&b| !self.used[b as usize])
                    .take(n as usize)
                    .collect(),
            };
        let mut out: Vec<Extent> = Vec::new();
        for b in picks {
            self.used[b as usize] = true;
            match out.last_mut() {
                Some(e) if e.pblk + e.blocks as u64 == b => e.blocks += 1,
                _ => out.push(Extent { pblk: b, blocks: 1 }),
            }
        }
        Some(out)
    }

    fn free(&mut self, e: Extent) {
        for b in e.pblk..e.pblk + e.blocks as u64 {
            assert!(self.used[b as usize], "the test frees only what it holds");
            self.used[b as usize] = false;
        }
    }
}

/// A hint: anywhere, past the end, or a free block (so the run holding
/// it straddles it).
fn hint(rng: &mut Rng, model: &Model) -> u64 {
    let cap = model.capacity();
    match rng.below(4) {
        0 => cap + rng.below(10),
        1 => {
            let free: Vec<u64> = (0..cap).filter(|&b| !model.used[b as usize]).collect();
            free.get(rng.below(free.len().max(1) as u64) as usize).copied().unwrap_or(0)
        }
        _ => rng.below(cap),
    }
}

fn run(seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let cap = 1 + rng.below(300);
    let mut alloc = BlockAllocator::new(cap);
    let mut model = Model { used: vec![false; cap as usize] };
    // Extents handed out and not yet freed.
    let mut held: Vec<Extent> = Vec::new();
    // Some volumes are driven nearly full: frees get rarer.
    let free_odds = if seed.is_multiple_of(3) { 5 } else { 2 };
    for step in 0..steps {
        if !held.is_empty() && rng.below(free_odds) == 0 {
            // Free one held extent whole, or any part of it.
            let e = held.swap_remove(rng.below(held.len() as u64) as usize);
            let lo = rng.below(e.blocks as u64);
            let len = 1 + rng.below(e.blocks as u64 - lo);
            let part = Extent { pblk: e.pblk + lo, blocks: len as u32 };
            alloc.free(part);
            model.free(part);
            let end = e.pblk + e.blocks as u64;
            held.extend([
                Extent { pblk: e.pblk, blocks: lo as u32 },
                Extent { pblk: part.pblk + len, blocks: (end - part.pblk - len) as u32 },
            ]);
            held.retain(|e| e.blocks > 0);
        } else {
            let n = match rng.below(8) {
                0 => rng.below(cap + 2),
                1..=3 => 1,
                _ => 1 + rng.below(16),
            };
            let h = hint(&mut rng, &model);
            let got = alloc.allocate(n, h);
            assert_eq!(got, model.allocate(n, h), "seed {seed} step {step}: allocate({n}, {h})");
            held.extend(got.into_iter().flatten());
        }
        assert_eq!(alloc.free_blocks(), model.free_blocks(), "seed {seed} step {step}");
        let b = rng.below(cap + 4);
        let want = b < cap && model.used[b as usize];
        assert_eq!(alloc.is_allocated(b), want, "seed {seed} step {step}: block {b}");
    }
    for b in 0..cap {
        assert_eq!(alloc.is_allocated(b), model.used[b as usize], "seed {seed}: block {b}");
    }
}

#[test]
fn allocator_matches_bitmap_model() {
    for seed in 1..=300 {
        run(seed, 400);
    }
}
