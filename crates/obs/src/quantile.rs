//! Fixed-memory quantile sketch for SLO percentiles.
//!
//! The log2 histograms in `metrics.rs` are perfect for shape but too
//! coarse for a p99: one power-of-two bucket can span the whole tail.
//! This sketch refines each power-of-two major bucket with 16 linear
//! sub-buckets (HdrHistogram's log-linear layout), which bounds the
//! relative error of any quantile estimate at 1/16 (6.25%) while
//! keeping memory fixed: 1024 atomic cells, ~8 KiB per sketch.
//!
//! Same hot-path discipline as the metric cells: `record` is one
//! relaxed `fetch_add` per cell — no locks, no allocation, wait-free.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Sub-bucket resolution: 2^4 = 16 linear cells per power of two,
/// bounding quantile estimates to ≤ 1/16 relative error.
pub const SKETCH_SUB_BITS: u32 = 4;
const SUB: usize = 1 << SKETCH_SUB_BITS;
const CELLS: usize = SUB * 64;

/// Index of the cell holding `v`. Values below 16 get exact cells;
/// larger values index by (bit length, top 4 bits below the leading
/// one). The mapping is monotonic, so walking cells in index order
/// walks values in sorted order.
fn cell_of(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let m = (63 - v.leading_zeros()) as usize;
        let sub = ((v >> (m as u32 - SKETCH_SUB_BITS)) as usize) & (SUB - 1);
        m * SUB + sub
    }
}

/// Largest value mapping to cell `idx` — the estimate a quantile query
/// returns, so estimates always upper-bound the exact order statistic.
fn cell_upper(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let m = (idx / SUB) as u32;
        let sub = (idx % SUB) as u64;
        // The very top cell's exclusive bound is 2^64; wrapping turns
        // it into the correct inclusive u64::MAX.
        (SUB as u64 + sub + 1).wrapping_shl(m - SKETCH_SUB_BITS).wrapping_sub(1)
    }
}

/// Concurrent log-linear quantile sketch (fixed 1024 cells).
pub struct QuantileSketch {
    cells: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            cells: (0..CELLS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation. Hot path: three relaxed adds.
    #[inline]
    pub fn record(&self, v: u64) {
        self.cells[cell_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Point-in-time copy, the mergeable/query-able form.
    pub fn snapshot(&self) -> QuantileSnapshot {
        QuantileSnapshot {
            cells: self.cells.iter().map(|c| c.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
        }
    }
}

/// Copied sketch state: mergeable across nodes, query-able for
/// quantiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSnapshot {
    cells: Vec<u64>,
    count: u64,
    sum: u64,
}

impl QuantileSnapshot {
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold another node's sketch into this one (cell-wise add).
    pub fn merge(&mut self, other: &QuantileSnapshot) {
        if self.cells.len() < other.cells.len() {
            self.cells.resize(other.cells.len(), 0);
        }
        for (i, c) in other.cells.iter().enumerate() {
            self.cells[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Estimate the `q`-quantile (0.0 ≤ q ≤ 1.0): the upper edge of
    /// the cell containing the order statistic at rank
    /// `round(q · (count − 1))`. Guaranteed `exact ≤ estimate ≤
    /// exact + exact/16`. Returns 0 on an empty sketch.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for (i, c) in self.cells.iter().enumerate() {
            cum += c;
            if cum > rank {
                return cell_upper(i);
            }
        }
        cell_upper(CELLS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mapping_is_monotonic_and_upper_bounds() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let c = cell_of(v);
            assert!(c >= prev, "monotonic at {v}");
            assert!(cell_upper(c) >= v, "upper bound at {v}");
            prev = c;
        }
        for s in 10..64u32 {
            let v = 1u64 << s;
            assert!(cell_upper(cell_of(v)) >= v);
            assert!(cell_of(v) > cell_of(v - 1), "power boundary at {v}");
        }
        assert_eq!(cell_of(u64::MAX), CELLS - 1);
        assert_eq!(cell_upper(cell_of(u64::MAX)), u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let s = QuantileSketch::new();
        for v in 0..16u64 {
            s.record(v);
        }
        let snap = s.snapshot();
        assert_eq!(snap.quantile(0.0), 0);
        assert_eq!(snap.quantile(1.0), 15);
    }

    #[test]
    fn merge_equals_single_sketch() {
        let a = QuantileSketch::new();
        let b = QuantileSketch::new();
        let whole = QuantileSketch::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 37)
            } else {
                b.record(v * 37)
            }
            whole.record(v * 37);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    proptest! {
        // The satellite property: every estimated quantile brackets the
        // exact sorted-order statistic from above within 1/16 relative
        // error.
        #[test]
        fn estimates_bracket_exact_sorted_quantiles(
            mut values in collection::vec(0u64..(u64::MAX >> 8), 1..500),
        ) {
            let s = QuantileSketch::new();
            for &v in &values {
                s.record(v);
            }
            let snap = s.snapshot();
            values.sort_unstable();
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let rank = (q * (values.len() - 1) as f64).round() as usize;
                let exact = values[rank];
                let est = snap.quantile(q);
                prop_assert!(est >= exact, "q={q}: est {est} < exact {exact}");
                prop_assert!(
                    est <= exact + exact / 16,
                    "q={q}: est {est} > exact {exact} + 1/16"
                );
            }
        }
    }
}
