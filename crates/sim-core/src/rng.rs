//! Deterministic random-number streams.
//!
//! Every source of randomness in a simulation is a [`DetRng`] stream derived
//! from `(master_seed, stream_id)`. Two runs with the same master seed are
//! bit-identical regardless of how many streams exist or in what order they
//! are created, because each stream's state depends only on its id — never on
//! global draw order.
//!
//! The generator is SplitMix64: tiny, fast, passes BigCrush for this use, and
//! trivially seedable from a hash of the stream id.

use rand::RngCore;

/// A deterministic, seekable pseudo-random stream.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create the stream identified by `stream_id` under `master_seed`.
    pub fn stream(master_seed: u64, stream_id: u64) -> DetRng {
        // Mix the two so that adjacent ids do not produce correlated streams.
        let mut s = master_seed ^ 0x6A09_E667_F3BC_C909;
        let a = splitmix64(&mut s);
        let mut s2 = stream_id.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(a);
        let b = splitmix64(&mut s2);
        DetRng { state: b }
    }

    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits give a uniform double in [0,1).
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire's multiply-shift rejection method (bias-free).
        let mut x = self.next_u64_raw();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64_raw();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed duration with the given mean (in
    /// nanoseconds, returned as nanoseconds). Used for think times and
    /// arrival jitter.
    pub fn exp_nanos(&mut self, mean_nanos: u64) -> u64 {
        if mean_nanos == 0 {
            return 0;
        }
        let u = 1.0 - self.f64(); // (0, 1]
        (-(u.ln()) * mean_nanos as f64).round() as u64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// A Zipf(θ) sampler over `{0, .., n-1}` using the classical inverse-CDF
/// harmonic construction. θ = 0 is uniform; larger θ skews toward low ranks.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf over empty domain");
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        // Guard against floating-point shortfall at the top.
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf: weights }
    }

    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::stream(42, 7);
        let mut b = DetRng::stream(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = DetRng::stream(42, 1);
        let mut b = DetRng::stream(42, 2);
        let same = (0..64).filter(|_| a.next_u64_raw() == b.next_u64_raw()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::stream(1, 1);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = DetRng::stream(3, 3);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.below(5) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {} out of range", c);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::stream(4, 4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn exp_mean_roughly_right() {
        let mut r = DetRng::stream(5, 5);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.exp_nanos(1_000)).sum();
        let mean = sum as f64 / n as f64;
        assert!((900.0..1_100.0).contains(&mean), "mean {} not ~1000", mean);
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let z = Zipf::new(10, 0.0);
        let mut r = DetRng::stream(6, 6);
        let mut counts = [0u32; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((4_000..6_000).contains(&c));
        }
    }

    #[test]
    fn zipf_skews_with_theta() {
        let z = Zipf::new(100, 1.2);
        let mut r = DetRng::stream(7, 7);
        let mut head = 0u32;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut r) < 10 {
                head += 1;
            }
        }
        assert!(head as f64 / n as f64 > 0.5, "rank<10 mass {} too small", head);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::stream(8, 8);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut r = DetRng::stream(9, 9);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
