//! `BlockFs` against an independent model: each file is one flat `Vec<u8>`
//! (filled byte by byte at a described write, zeros in holes) plus the
//! lblk → pblk map the fs reported when the block was first allocated.
//! Random sequences of described writes (a preload is one), aligned and
//! unaligned byte writes (into descriptor blocks, holes and past EOF),
//! reads (each appended to what the caller's buffer already held) and
//! extent queries must agree with the model at every step. A file may be removed and created again empty, so the next
//! allocations reuse its freed physical blocks: the new file must read
//! zeros in its holes and its own bytes elsewhere, never the old file's. A
//! twin fs that receives each described write as a plain `write` of the
//! same bytes must allocate the same physical blocks and read back the
//! same bytes, and a described write stores no block it covers whole.

use proptest::prelude::*;
use sim_disk::{BlockFs, Content, Extent, Fid, Ino, BLOCK_SIZE};

const FILES: usize = 3;
/// Offsets stay within this many blocks (plus a write's length past it).
const SPAN_BLOCKS: u64 = 24;

/// One byte of file `seed`'s content, by definition: what every path
/// that generates a descriptor's bytes must reproduce.
fn content_byte(seed: u64, offset: u64) -> u8 {
    (seed.wrapping_mul(151).wrapping_add(offset) % 251) as u8
}

fn content(seed: u64, offset: u64, len: usize) -> Vec<u8> {
    (0..len as u64).map(|i| content_byte(seed, offset + i)).collect()
}

#[derive(Default)]
struct ModelFile {
    bytes: Vec<u8>,
    /// lblk → pblk, recorded when the block was first allocated.
    pblks: Vec<Option<u64>>,
}

struct Harness {
    fs: BlockFs,
    twin: BlockFs,
    inos: Vec<Ino>,
    model: Vec<ModelFile>,
}

impl Harness {
    fn new() -> Harness {
        let mut fs = BlockFs::new(4096);
        let mut twin = BlockFs::new(4096);
        let inos = (0..FILES)
            .map(|f| {
                let name = format!("f{f}");
                twin.create(&name).unwrap();
                fs.create(&name).unwrap()
            })
            .collect();
        Harness { fs, twin, inos, model: (0..FILES).map(|_| ModelFile::default()).collect() }
    }

    /// Lay `data` into the model at `offset`, growing the file.
    fn model_write(&mut self, f: usize, offset: u64, data: &[u8]) {
        let m = &mut self.model[f];
        let end = offset as usize + data.len();
        if m.bytes.len() < end {
            m.bytes.resize(end, 0);
        }
        m.bytes[offset as usize..end].copy_from_slice(data);
    }

    /// The model's expected bytes for a read of `len` at `offset`.
    fn model_read(&self, f: usize, offset: u64, len: usize) -> &[u8] {
        let bytes = &self.model[f].bytes;
        let start = (offset as usize).min(bytes.len());
        &bytes[start..(start + len).min(bytes.len())]
    }

    /// The extents the model's recorded mapping predicts for a range.
    fn model_extents(&self, f: usize, offset: u64, len: usize) -> Vec<Extent> {
        let size = self.model[f].bytes.len() as u64;
        if len == 0 || offset >= size {
            return vec![];
        }
        let end = (offset + len as u64).min(size);
        let (first, last) = (offset / BLOCK_SIZE as u64, (end - 1) / BLOCK_SIZE as u64);
        let mut pblks: Vec<u64> = (first..=last)
            .filter_map(|l| self.model[f].pblks.get(l as usize).copied().flatten())
            .collect();
        pblks.sort_unstable();
        let mut out: Vec<Extent> = Vec::new();
        for p in pblks {
            match out.last_mut() {
                Some(e) if e.pblk + e.blocks as u64 == p => e.blocks += 1,
                _ => out.push(Extent { pblk: p, blocks: 1 }),
            }
        }
        out
    }

    /// Record the mapping of newly allocated blocks; assert that mapped
    /// blocks never move and that no two blocks share a pblk.
    fn check_mapping(&mut self) {
        let mut seen = std::collections::BTreeSet::new();
        for f in 0..FILES {
            let ino = self.inos[f];
            let blocks = self.model[f].bytes.len().div_ceil(BLOCK_SIZE);
            self.model[f].pblks.resize(blocks, None);
            for l in 0..blocks {
                let got = self.fs.pblk_of(ino, l as u64);
                assert_eq!(
                    got,
                    self.twin.pblk_of(ino, l as u64),
                    "f{f} lblk {l}: described ≠ bytes"
                );
                let slot = &mut self.model[f].pblks[l];
                match (*slot, got) {
                    (Some(want), _) => assert_eq!(got, Some(want), "f{f} lblk {l} moved"),
                    (None, Some(p)) => *slot = Some(p),
                    (None, None) => {}
                }
                if let Some(p) = got {
                    assert!(seen.insert(p), "pblk {p} mapped twice");
                }
            }
            assert_eq!(self.fs.size(ino).unwrap(), self.model[f].bytes.len() as u64, "f{f} size");
        }
    }

    fn step(&mut self, kind: u8, f: usize, offset: u64, len: usize, seed: u64) {
        let ino = self.inos[f];
        match kind {
            // A described write; the twin writes the same bytes. Only a
            // block it covers in part may become stored.
            0 => {
                let data = content(seed, offset, len);
                let stored = self.fs.stored_blocks();
                let p = self.fs.write_described(ino, Content::new(Fid(seed), offset), len).unwrap();
                let w = self.twin.write(ino, offset, &data).unwrap();
                assert_eq!(p, w, "a described write reports what the byte write does");
                let (bs, end) = (BLOCK_SIZE as u64, offset + len as u64);
                let touched = end.div_ceil(bs) - offset / bs;
                let whole = (end / bs).saturating_sub(offset.div_ceil(bs));
                let partial = (touched - whole) as usize;
                assert!(
                    self.fs.stored_blocks() <= stored + partial,
                    "{offset}+{len}: {stored} stored blocks became {}",
                    self.fs.stored_blocks()
                );
                self.model_write(f, offset, &data);
            }
            // Aligned / unaligned write of bytes no content produces here;
            // of the content a described write of `seed` leaves (a write a
            // descriptor block absorbs when `seed` is its own); or of that
            // content with one byte flipped (one it must not).
            1..=4 => {
                let offset =
                    if kind == 1 { offset / BLOCK_SIZE as u64 * BLOCK_SIZE as u64 } else { offset };
                let data: Vec<u8> = match kind {
                    3 => content(seed, offset, len),
                    4 => {
                        let mut d = content(seed, offset, len);
                        d[(offset as usize * 7 + 3) % len] ^= 0x80;
                        d
                    }
                    _ => (0..len).map(|i| 251u8.wrapping_add((i as u8) % 5)).collect(),
                };
                let a = self.fs.write(ino, offset, &data).unwrap();
                let b = self.twin.write(ino, offset, &data).unwrap();
                assert_eq!(a, b);
                self.model_write(f, offset, &data);
                self.check_mapping();
                assert_eq!(a.extents, self.model_extents(f, offset, len), "write extents");
                return;
            }
            // Remove the file and create it again, empty; the model forgets
            // its bytes and mapping.
            8 => {
                let name = format!("f{f}");
                self.fs.remove(&name).unwrap();
                self.twin.remove(&name).unwrap();
                let ino = self.fs.create(&name).unwrap();
                assert_eq!(self.twin.create(&name).unwrap(), ino);
                self.inos[f] = ino;
                self.model[f] = ModelFile::default();
            }
            // A read, into an empty buffer or after what one held; the
            // twin reads the same.
            5 | 6 => {
                let held = if kind == 5 { 0 } else { 7 };
                let mut out = vec![0x5A; held];
                let r = self.fs.read_append(ino, offset, len, &mut out).unwrap();
                assert_eq!(&out[..held], &vec![0x5A; held][..], "existing contents kept");
                assert_eq!(
                    &out[held..],
                    self.model_read(f, offset, len),
                    "read f{f} {offset}+{len}"
                );
                assert_eq!(r.bytes, out.len() - held);
                assert_eq!(r.extents, self.model_extents(f, offset, len), "read extents");
                let mut twin = vec![0x3C; held];
                assert_eq!(
                    self.twin.read_append(ino, offset, len, &mut twin).unwrap(),
                    r,
                    "twin read"
                );
                assert_eq!(twin[held..], out[held..], "twin bytes f{f} {offset}+{len}");
            }
            _ => {
                let e = self.fs.extents_of(ino, offset, len).unwrap();
                assert_eq!(e, self.model_extents(f, offset, len), "extents_of f{f} {offset}+{len}");
            }
        }
        self.check_mapping();
    }

    /// Every file, whole, reads as the model says, in the fs and its twin.
    fn check_all(&self) {
        for f in 0..FILES {
            for fs in [&self.fs, &self.twin] {
                let mut out = Vec::new();
                fs.read_append(self.inos[f], 0, 1 << 20, &mut out).unwrap();
                assert_eq!(out, self.model[f].bytes, "f{f} contents");
            }
        }
    }
}

proptest! {
    #[test]
    fn blockfs_matches_flat_file_model(
        ops in proptest::collection::vec(
            (0u8..9, 0usize..FILES, 0u64..SPAN_BLOCKS * BLOCK_SIZE as u64, 1usize..3 * BLOCK_SIZE, 0u64..4),
            1..60,
        ),
    ) {
        let mut h = Harness::new();
        for (kind, f, offset, len, seed) in ops {
            // Half the offsets block-aligned, so whole-block descriptors form.
            let offset = if offset % 2 == 0 { offset / BLOCK_SIZE as u64 * BLOCK_SIZE as u64 } else { offset };
            h.step(kind, f, offset, len, seed);
        }
        h.check_all();
    }
}

#[test]
fn partial_write_into_descriptor_block_keeps_the_rest() {
    let mut h = Harness::new();
    h.step(0, 0, 0, 4 * BLOCK_SIZE, 1);
    assert_eq!(h.fs.stored_blocks(), 0);
    h.step(2, 0, 5000, 100, 0);
    h.step(2, 0, 3 * BLOCK_SIZE as u64 + 10, 2 * BLOCK_SIZE, 0); // past EOF
    h.step(2, 0, 8 * BLOCK_SIZE as u64 + 1, 10, 0); // beyond a hole
    h.check_all();
    assert_eq!(h.fs.stored_blocks(), 5, "blocks 1, 3, 4, 5 and 8");
}

#[test]
fn a_write_of_a_blocks_own_content_keeps_its_descriptor() {
    let mut h = Harness::new();
    h.step(0, 0, 0, 4 * BLOCK_SIZE, 1);
    h.step(3, 0, 100, 2 * BLOCK_SIZE, 1);
    assert_eq!(h.fs.stored_blocks(), 0, "equal bytes leave descriptors");
    h.step(3, 0, 100, 2 * BLOCK_SIZE, 2); // another content
    assert_eq!(h.fs.stored_blocks(), 3);
    h.step(4, 0, 3 * BLOCK_SIZE as u64, BLOCK_SIZE, 1); // one byte differs
    assert_eq!(h.fs.stored_blocks(), 4);
    h.check_all();
}

#[test]
fn a_file_on_freed_blocks_reads_its_own_bytes_and_zeros() {
    let mut h = Harness::new();
    h.step(0, 0, 0, 4 * BLOCK_SIZE, 1); // descriptors at pblks 0..4
    h.step(2, 0, 4 * BLOCK_SIZE as u64, 2 * BLOCK_SIZE, 0); // stored at 4..6
    let freed: Vec<u64> = (0..6).map(|l| h.fs.pblk_of(h.inos[0], l).unwrap()).collect();
    h.step(8, 0, 0, 0, 0);
    // Unaligned writes and a described one into the freed blocks, leaving holes
    // and partly written blocks around them.
    h.step(2, 1, 100, 10, 0);
    h.step(2, 1, 2 * BLOCK_SIZE as u64 + 4000, 200, 0);
    h.step(0, 2, 5 * BLOCK_SIZE as u64 + 7, BLOCK_SIZE, 3);
    let (fs, inos) = (&h.fs, &h.inos);
    let reused = (1..FILES)
        .flat_map(|f| (0..8).filter_map(move |l| fs.pblk_of(inos[f], l)))
        .filter(|p| freed.contains(p))
        .count();
    assert!(reused >= 4, "the other files took {reused} of the freed blocks");
    h.check_all();
}

#[test]
fn a_whole_block_described_write_stores_nothing() {
    let mut h = Harness::new();
    h.step(2, 0, 0, 3 * BLOCK_SIZE, 0); // three stored blocks
    assert_eq!(h.fs.stored_blocks(), 3);
    h.step(0, 0, BLOCK_SIZE as u64, BLOCK_SIZE, 1); // the middle one, whole
    assert_eq!(h.fs.stored_blocks(), 2, "a whole described block replaces stored bytes");
    h.step(0, 0, 0, 100, 1); // part of a stored block: written as bytes
    h.step(0, 0, BLOCK_SIZE as u64 + 10, 100, 1); // part of its own descriptor
    h.step(0, 0, 4 * BLOCK_SIZE as u64, 2 * BLOCK_SIZE, 2); // growth, whole
    assert_eq!(h.fs.stored_blocks(), 2);
    h.step(0, 0, BLOCK_SIZE as u64 + 10, 100, 3); // another content
    assert_eq!(h.fs.stored_blocks(), 3);
    h.check_all();
}
