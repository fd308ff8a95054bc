//! The one hasher behind `kcache`'s per-access maps: add a word, multiply,
//! and rotate once at the end (the construction of rustc-hash 2) — no key,
//! no state beyond one `u64`. The keys are the simulator's own — block fingerprints, block
//! keys, request ids — never input from outside the program, so the
//! standard hasher's flooding resistance buys nothing here and costs a
//! SipHash per lookup. No decision reads a map's iteration order (fan-outs
//! go through `BTreeMap`), and with no per-process key the order is the
//! same in every run anyway.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`KeyHasher`]; build one with `KeyMap::default()`.
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;
/// A `HashSet` hashed by [`KeyHasher`].
pub type KeySet<K> = HashSet<K, BuildHasherDefault<KeyHasher>>;

/// See the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

/// An odd multiplier with no short-period structure (rustc-hash's).
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for KeyHasher {
    /// Adding keeps a run of consecutive words consecutive, so the multiply
    /// spreads it evenly whatever came before it (an xor would not).
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Ports and request-id halves; other widths go through `write`.
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n as u64);
    }

    /// A multiply mixes upward only: a key that is a multiple of 2^k leaves
    /// the low k bits zero, and the table indexes by the low bits (and tags
    /// by the top seven). The rotate hands it the well-mixed top end for
    /// both.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<KeyHasher>::default().hash_one(key)
    }

    /// The standard table indexes by the low bits of the hash and tags
    /// entries by its top seven: over 4 096 keys of each family the maps
    /// hold, both take every value, none more than four times its share.
    #[test]
    fn every_key_family_spreads_over_index_and_tag_bits() {
        // What `BlockKey::hash()` computes (kcache is above this crate).
        let fingerprint = |fid: u64, blk: u64| {
            (fid.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ blk).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        };
        let families: [(&str, Vec<u64>); 4] = [
            (
                "blocks of one file (fid, blk)",
                (0..4096).map(|b| hash_of((7u64, b as u64))).collect(),
            ),
            ("multiples of 4096", (0..4096u64).map(|i| hash_of(i * 4096)).collect()),
            ("(u16, u64) request ids", (0..4096u64).map(|i| hash_of((3u16, 1000 + i))).collect()),
            ("raw fingerprints", (0..4096).map(|b| hash_of(fingerprint(7, b))).collect()),
        ];
        for (family, hashes) in &families {
            for (what, bits, shift) in [("low 10", 10, 0), ("top 7", 7, 57)] {
                let mut seen = vec![0usize; 1 << bits];
                for h in hashes {
                    seen[((h >> shift) & ((1 << bits) - 1)) as usize] += 1;
                }
                let fair = hashes.len() >> bits;
                let (min, max) = (seen.iter().min().unwrap(), seen.iter().max().unwrap());
                assert!(*min > 0, "{family}: a {what}-bit value is never taken");
                assert!(*max <= 4 * fair, "{family}: one {what}-bit value taken {max} times");
            }
        }
    }

    #[test]
    fn the_same_history_iterates_the_same_way() {
        let build = || {
            let mut m: KeyMap<u64, u32> = KeyMap::default();
            for i in 0..2000u64 {
                m.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i as u32);
                if i % 3 == 0 {
                    m.remove(&(i / 2).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
            }
            m
        };
        let (a, b) = (build(), build());
        assert!(a.iter().eq(b.iter()), "no per-process key: iteration order repeats");
    }
}
