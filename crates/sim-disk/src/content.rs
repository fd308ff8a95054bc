//! The file content every layer checks end to end, and its one descriptor.
//!
//! Every file holds a deterministic pattern at every offset until a write
//! changes it: byte `(fid * 151 + offset) mod 251`, the sum wrapping at
//! 2^64. Workload setup preloads files with it, every simulated write
//! writes it, and clients verify every byte that travels through cache,
//! network, page cache and disk against it.
//!
//! A [`Content`] names that content from one place on — "file `fid`'s own
//! bytes from `offset`" — and is the only code that generates or compares
//! it. A `BlockFs` descriptor block, a payload segment on the wire and a
//! described cache frame all hold one, so two of them name the same bytes
//! exactly when they are `==` (a whole pattern period apart is the same
//! bytes, but not the same descriptor).

/// PVFS file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fid(pub u64);

/// File `fid`'s own bytes from `offset` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Content {
    pub fid: Fid,
    pub offset: u64,
}

/// The pattern repeats every `PERIOD` offsets.
const PERIOD: usize = 251;

/// Two periods of `i % 251`: any run of up to one period of pattern bytes
/// is the window `[phase, phase + n)` of this table.
static TABLE: [u8; 2 * PERIOD] = {
    let mut t = [0u8; 2 * PERIOD];
    let mut i = 0;
    while i < t.len() {
        t[i] = (i % PERIOD) as u8;
        i += 1;
    }
    t
};

impl Content {
    pub const fn new(fid: Fid, offset: u64) -> Content {
        Content { fid, offset }
    }

    /// The same file's bytes from `delta` further on (the offset wraps,
    /// so a negative delta is `delta.wrapping_neg()`).
    pub fn at(self, delta: u64) -> Content {
        Content { offset: self.offset.wrapping_add(delta), ..self }
    }

    /// The first `len` bytes as two runs `(phase, n)`, the second one
    /// empty unless `fid * 151 + offset` wraps the u64 inside them: the
    /// phase jumps to 0 there, as 2^64 is not a multiple of the period. A
    /// slice is shorter than 2^63, so it wraps at most once.
    fn runs(self, len: usize) -> [(usize, usize); 2] {
        let pos = self.fid.0.wrapping_mul(151).wrapping_add(self.offset);
        let before_wrap = (u64::MAX - pos).saturating_add(1);
        let n = (len as u64).min(before_wrap) as usize;
        [((pos % PERIOD as u64) as usize, n), (0, len - n)]
    }

    /// The first `len` bytes.
    pub fn generate(self, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        self.append(len, &mut v);
        v
    }

    /// Append the first `len` bytes to `out`: what [`fill`](Self::fill)
    /// writes, with no zero-fill of `out` first.
    pub fn append(self, len: usize, out: &mut Vec<u8>) {
        for (phase, n) in self.runs(len) {
            let start = out.len();
            out.extend_from_slice(&TABLE[phase..phase + n.min(PERIOD)]);
            // Whole periods, doubling: the run so far repeats from its start.
            while out.len() - start < n {
                let k = (out.len() - start).min(n - (out.len() - start));
                out.extend_from_within(start..start + k);
            }
        }
    }

    /// Write the first `out.len()` bytes into `out`.
    pub fn fill(self, out: &mut [u8]) {
        let [(phase, n), _] = self.runs(out.len());
        let (run, wrapped) = out.split_at_mut(n);
        fill_run(phase, run);
        fill_run(0, wrapped);
    }

    /// Whether `data` is exactly these bytes — every byte compared,
    /// nothing generated.
    pub fn matches(self, data: &[u8]) -> bool {
        let [(phase, n), _] = self.runs(data.len());
        let (run, wrapped) = data.split_at(n);
        run_matches(phase, run) && run_matches(0, wrapped)
    }
}

/// The first period from the table, then whole periods doubling over the
/// ones already written.
fn fill_run(phase: usize, out: &mut [u8]) {
    let first = out.len().min(PERIOD);
    out[..first].copy_from_slice(&TABLE[phase..phase + first]);
    let mut filled = first;
    while filled < out.len() {
        let k = filled.min(out.len() - filled);
        out.copy_within(..k, filled);
        filled += k;
    }
}

/// The first period against the table, every later byte against the one a
/// period before it: together, every byte against the pattern.
fn run_matches(phase: usize, data: &[u8]) -> bool {
    let first = data.len().min(PERIOD);
    data[..first] == TABLE[phase..phase + first] && data[first..] == data[..data.len() - first]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The content's definition, one byte at a time: the oracle every
    /// kernel must reproduce.
    fn scalar_byte(fid: Fid, offset: u64) -> u8 {
        (fid.0.wrapping_mul(151).wrapping_add(offset) % 251) as u8
    }

    fn scalar(c: Content, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| scalar_byte(c.fid, c.offset.wrapping_add(i))).collect()
    }

    #[test]
    fn pattern_bytes_equals_scalar_definition_at_window_edges() {
        let lens = [0usize, 1, 2, 250, 251, 252, 501, 502, 503, 4096, 65536];
        let offsets = [0u64, 1, 100, 250, 251, 252, 4095, (1 << 40) + 17];
        for fid in [Fid(0), Fid(1), Fid(7), Fid(u64::MAX)] {
            for offset in offsets {
                let c = Content::new(fid, offset);
                for len in lens {
                    let want = scalar(c, len);
                    assert_eq!(c.generate(len), want, "{c:?}+{len}");
                    let mut appended = vec![0xA5];
                    c.append(len, &mut appended);
                    assert_eq!(appended[1..], want, "{c:?}+{len}");
                    let mut filled = vec![0u8; len];
                    c.fill(&mut filled);
                    assert_eq!(filled, want, "{c:?}+{len}");
                    assert!(c.matches(&want), "{c:?}+{len}");
                }
            }
        }
    }

    #[test]
    fn pattern_follows_the_u64_wrap() {
        // Both where the offset itself wraps and where `fid * 151 + offset`
        // does (2^64 is not a multiple of 251, so the phase jumps there).
        for fid in [Fid(0), Fid(3), Fid(u64::MAX / 151 + 5)] {
            let to_sum_wrap = 0u64.wrapping_sub(fid.0.wrapping_mul(151));
            for base in [u64::MAX, to_sum_wrap] {
                for back in [0u64, 1, 100, 250, 251, 252, 600] {
                    let c = Content::new(fid, base.wrapping_sub(back));
                    let mut want = scalar(c, 1000);
                    assert_eq!(c.generate(1000), want, "{c:?}");
                    let mut filled = vec![0u8; 1000];
                    c.fill(&mut filled);
                    assert_eq!(filled, want, "{c:?}");
                    assert!(c.matches(&want), "{c:?}");
                    // Each run is checked against itself a period back:
                    // a flip on either side of the wrap is still caught.
                    for i in 0..want.len() {
                        want[i] ^= 1;
                        assert!(!c.matches(&want), "{c:?} flip {i}");
                        want[i] ^= 1;
                    }
                }
            }
        }
    }

    #[test]
    fn pattern_matches_rejects_any_single_flipped_byte() {
        let c = Content::new(Fid(9), 12_345);
        // Every position of a buffer spanning three periods ...
        let mut data = c.generate(700);
        for i in 0..data.len() {
            data[i] ^= 1;
            assert!(!c.matches(&data), "flip at {i} went unnoticed");
            data[i] ^= 1;
        }
        assert!(c.matches(&data));
        // ... and first, last and both sides of every period edge of a
        // request-sized one.
        let mut data = c.generate(65536);
        let edges = (1..=65536 / PERIOD).flat_map(|k| [k * PERIOD - 1, k * PERIOD]);
        for i in [0, 65535].into_iter().chain(edges) {
            data[i] = data[i].wrapping_add(1);
            assert!(!c.matches(&data), "flip at {i} went unnoticed");
            data[i] = data[i].wrapping_sub(1);
        }
    }

    #[test]
    fn pattern_matches_rejects_shifted_offset_and_other_file() {
        let c = Content::new(Fid(9), 5000);
        let data = c.generate(4096);
        assert!(c.matches(&data));
        assert!(!c.at(1).matches(&data));
        assert!(!c.at(1u64.wrapping_neg()).matches(&data));
        assert!(!Content { fid: Fid(10), ..c }.matches(&data));
        // One whole period off is the same bytes: the pattern's blind spot,
        // unchanged from the scalar definition.
        assert!(c.at(PERIOD as u64).matches(&data));
        assert!(Content::new(Fid(9), 0).matches(&[]));
    }

    #[test]
    fn at_moves_the_offset_and_wraps() {
        let c = Content::new(Fid(4), 100);
        assert_eq!(c.at(4096), Content::new(Fid(4), 4196));
        assert_eq!(c.at(100u64.wrapping_neg()), Content::new(Fid(4), 0));
        assert_eq!(Content::new(Fid(4), u64::MAX).at(2), Content::new(Fid(4), 1));
        assert_eq!(c.at(7).generate(10), c.generate(17)[7..]);
    }
}
