//! Measurement primitives used across the simulator.
//!
//! All statistics are plain accumulators — they never allocate per sample —
//! so they can sit on hot paths (per-request, per-block) without distorting
//! what they measure.

use crate::time::Dur;

/// Streaming mean/variance/min/max via Welford's algorithm.
#[derive(Debug, Clone)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Tally {
    fn default() -> Self {
        Tally::new()
    }
}

impl Tally {
    pub fn new() -> Tally {
        Tally { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn record_dur(&mut self, d: Dur) {
        self.record(d.as_nanos() as f64);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Power-of-two-bucketed histogram of durations; bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds. Fixed 64 buckets, no allocation on record.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_nanos: u128,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { buckets: [0; 64], count: 0, sum_nanos: 0 }
    }
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    pub fn record(&mut self, d: Dur) {
        let n = d.as_nanos();
        let idx = if n == 0 { 0 } else { 63 - n.leading_zeros() as usize };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_nanos += n as u128;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> Dur {
        if self.count == 0 {
            Dur::ZERO
        } else {
            Dur((self.sum_nanos / self.count as u128) as u64)
        }
    }

    /// Upper bound (exclusive) of the bucket containing the q-quantile.
    /// Coarse by construction (factor-of-two resolution) but allocation-free.
    pub fn quantile_upper_bound(&self, q: f64) -> Dur {
        if self.count == 0 {
            return Dur::ZERO;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Dur(1u64.checked_shl(i as u32 + 1).unwrap_or(u64::MAX));
            }
        }
        Dur(u64::MAX)
    }

    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_mean_and_variance() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-9);
        // Sample variance of this classic dataset is 32/7.
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(t.min(), 2.0);
        assert_eq!(t.max(), 9.0);
        assert!((t.sum() - 40.0).abs() < 1e-9);
    }

    /// A default tally is a new one: its first sample is its min and max.
    #[test]
    fn default_tally_is_a_new_one() {
        let mut t = Tally::default();
        t.record(5.0);
        assert_eq!((t.min(), t.max(), t.mean()), (5.0, 5.0, 5.0));
        let mut t = Tally::default();
        t.record(-2.0);
        assert_eq!((t.min(), t.max()), (-2.0, -2.0));
    }

    #[test]
    fn tally_empty_is_zero() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), 0.0);
        assert_eq!(t.max(), 0.0);
    }

    #[test]
    fn tally_merge_matches_combined() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 37 % 11) as f64).collect();
        let mut whole = Tally::new();
        let mut a = Tally::new();
        let mut b = Tally::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.record(x);
            if i < 33 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = LogHistogram::new();
        h.record(Dur::nanos(1));
        h.record(Dur::nanos(3));
        h.record(Dur::nanos(1000));
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), Dur::nanos((1 + 3 + 1000) / 3));
    }

    #[test]
    fn histogram_quantile_bounds() {
        let mut h = LogHistogram::new();
        for _ in 0..99 {
            h.record(Dur::micros(1)); // bucket ~2^10
        }
        h.record(Dur::millis(10)); // far bucket
        let p50 = h.quantile_upper_bound(0.5);
        assert!(p50 <= Dur::micros(3), "p50 {} too high", p50);
        let p100 = h.quantile_upper_bound(1.0);
        assert!(p100 >= Dur::millis(10));
    }
}
