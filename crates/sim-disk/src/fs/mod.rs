//! A small local block file system for iod nodes.
//!
//! Each physical block holds either stored bytes or a content descriptor
//! (so end-to-end data-integrity tests work through the whole stack), and
//! every operation reports the *physical extents* it touches, so the caller
//! can charge page-cache and disk time. Supports sparse files — PVFS stripes
//! mean each iod sees its own slice of a logical file at scattered local
//! offsets.
//!
//! A descriptor block is one a [`write_described`](BlockFs::write_described)
//! (a preload, or a write whose data arrived described) filled whole and
//! no write has changed since: its bytes are generated on read by the
//! [`Fill`] the fs was built with, so it costs 16 bytes a block rather
//! than 4 KB. The first byte write to such a block that changes its bytes
//! stores it as bytes; one that writes the bytes it already holds leaves it
//! a descriptor.
//!
//! Block contents live in a table indexed by physical block, grown to the
//! highest block allocated: the allocator is first-fit from a hint, so the
//! blocks in use stay dense from 0.

pub mod alloc;

use crate::geometry::BLOCK_SIZE;
use alloc::BlockAllocator;
use std::collections::BTreeMap;
use std::fmt;

/// A run of contiguous physical blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    pub pblk: u64,
    pub blocks: u32,
}

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ino(pub u32);

/// File system errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    NoSpace,
    NoSuchFile,
    AlreadyExists,
    BadInode,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NoSpace => write!(f, "out of disk blocks"),
            FsError::NoSuchFile => write!(f, "no such file"),
            FsError::AlreadyExists => write!(f, "file exists"),
            FsError::BadInode => write!(f, "bad inode"),
        }
    }
}

impl std::error::Error for FsError {}

/// Content function: writes the bytes of content `seed` at file offsets
/// `offset .. offset + out.len()` into `out`.
pub type Fill = fn(seed: u64, offset: u64, out: &mut [u8]);

#[derive(Debug, Default)]
struct Inode {
    size: u64,
    /// Logical block index → physical block; `None` is a hole.
    blocks: Vec<Option<u64>>,
}

/// What an allocated physical block holds.
enum Block {
    /// Bytes written to it.
    Stored(Box<[u8; BLOCK_SIZE]>),
    /// Written whole as content `seed` and not changed by a write since:
    /// its bytes are `fill(seed, offset, ..)`, `offset` being the block's
    /// own file offset.
    Described { seed: u64, offset: u64 },
}

/// Result of a write: which physical extents were touched (for page-cache /
/// disk accounting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoExtents {
    pub extents: Vec<Extent>,
    pub bytes: usize,
}

/// The file system.
pub struct BlockFs {
    alloc: BlockAllocator,
    inodes: Vec<Option<Inode>>,
    root: BTreeMap<String, Ino>,
    /// Physical block → what it holds; `None` for a free block.
    data: Vec<Option<Block>>,
    fill: Fill,
}

fn coalesce(mut pblks: Vec<u64>) -> Vec<Extent> {
    pblks.sort_unstable();
    pblks.dedup();
    let mut out: Vec<Extent> = Vec::new();
    for p in pblks {
        match out.last_mut() {
            Some(e) if e.pblk + e.blocks as u64 == p => e.blocks += 1,
            _ => out.push(Extent { pblk: p, blocks: 1 }),
        }
    }
    out
}

impl BlockFs {
    /// An empty volume of `capacity_blocks` blocks whose described blocks
    /// read as `fill` generates them.
    pub fn new(capacity_blocks: u64, fill: Fill) -> BlockFs {
        BlockFs {
            alloc: BlockAllocator::new(capacity_blocks),
            inodes: Vec::new(),
            root: BTreeMap::new(),
            data: Vec::new(),
            fill,
        }
    }

    pub fn create(&mut self, name: &str) -> Result<Ino, FsError> {
        if self.root.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = Ino(self.inodes.len() as u32);
        self.inodes.push(Some(Inode::default()));
        self.root.insert(name.to_string(), ino);
        Ok(ino)
    }

    pub fn open(&self, name: &str) -> Option<Ino> {
        self.root.get(name).copied()
    }

    /// Open the file, creating it if absent.
    pub fn open_or_create(&mut self, name: &str) -> Result<Ino, FsError> {
        match self.open(name) {
            Some(ino) => Ok(ino),
            None => self.create(name),
        }
    }

    pub fn remove(&mut self, name: &str) -> Result<(), FsError> {
        let ino = self.root.remove(name).ok_or(FsError::NoSuchFile)?;
        let inode = self.inodes[ino.0 as usize].take().ok_or(FsError::BadInode)?;
        for p in inode.blocks.into_iter().flatten() {
            self.alloc.free(Extent { pblk: p, blocks: 1 });
            self.data[p as usize] = None;
        }
        Ok(())
    }

    pub fn size(&self, ino: Ino) -> Result<u64, FsError> {
        Ok(self.inode(ino)?.size)
    }

    pub fn files(&self) -> impl Iterator<Item = (&str, Ino)> {
        self.root.iter().map(|(n, i)| (n.as_str(), *i))
    }

    pub fn free_blocks(&self) -> u64 {
        self.alloc.free_blocks()
    }

    /// Blocks held as bytes rather than as descriptors: the ones written
    /// with other bytes since, and partly covered described writes.
    pub fn stored_blocks(&self) -> usize {
        self.data.iter().filter(|b| matches!(b, Some(Block::Stored(_)))).count()
    }

    fn inode(&self, ino: Ino) -> Result<&Inode, FsError> {
        self.inodes.get(ino.0 as usize).and_then(|o| o.as_ref()).ok_or(FsError::BadInode)
    }

    fn inode_mut(&mut self, ino: Ino) -> Result<&mut Inode, FsError> {
        self.inodes.get_mut(ino.0 as usize).and_then(|o| o.as_mut()).ok_or(FsError::BadInode)
    }

    /// Physical blocks backing `[offset, offset + len)` (`len > 0`), one per
    /// logical block, allocating any missing ones (holes and growth) in one
    /// allocator call for contiguity, and growing the file to cover it.
    fn map_range(&mut self, ino: Ino, offset: u64, len: u64) -> Result<Vec<u64>, FsError> {
        let first_lblk = offset / BLOCK_SIZE as u64;
        let last_lblk = (offset + len - 1) / BLOCK_SIZE as u64;
        let (needed, hint) = {
            let inode = self.inode(ino)?;
            let needed = (first_lblk..=last_lblk)
                .filter(|&l| inode.blocks.get(l as usize).is_none_or(|slot| slot.is_none()))
                .count() as u64;
            let hint = inode.blocks.iter().rev().flatten().next().map(|p| p + 1).unwrap_or(0);
            (needed, hint)
        };
        let mut fresh: Vec<u64> = Vec::new();
        if needed > 0 {
            let extents = self.alloc.allocate(needed, hint).ok_or(FsError::NoSpace)?;
            for e in extents {
                fresh.extend(e.pblk..e.pblk + e.blocks as u64);
            }
            let end = *fresh.iter().max().expect("needed > 0") as usize + 1;
            if self.data.len() < end {
                self.data.resize_with(end, || None);
            }
        }
        let mut fresh_iter = fresh.into_iter();
        let inode = self.inode_mut(ino)?;
        if inode.blocks.len() <= last_lblk as usize {
            inode.blocks.resize(last_lblk as usize + 1, None);
        }
        let touched = (first_lblk..=last_lblk)
            .map(|l| {
                *inode.blocks[l as usize]
                    .get_or_insert_with(|| fresh_iter.next().expect("allocated count mismatch"))
            })
            .collect();
        inode.size = inode.size.max(offset + len);
        Ok(touched)
    }

    /// Write `buf` at `offset`, allocating blocks (including for any hole
    /// being filled). Returns the physical extents touched.
    pub fn write(&mut self, ino: Ino, offset: u64, buf: &[u8]) -> Result<IoExtents, FsError> {
        if buf.is_empty() {
            return Ok(IoExtents { extents: vec![], bytes: 0 });
        }
        let touched = self.map_range(ino, offset, buf.len() as u64)?;
        let mut written = 0usize;
        for &p in &touched {
            let in_block = ((offset + written as u64) % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_block).min(buf.len() - written);
            self.overlay(p, in_block, &buf[written..written + n]);
            written += n;
        }
        debug_assert_eq!(written, buf.len());
        Ok(IoExtents { extents: coalesce(touched), bytes: written })
    }

    /// Write `len` bytes of content `seed` — the bytes
    /// `fill(seed, offset, ..)` — at `offset` as descriptors, allocating
    /// exactly as a [`write`] of those bytes would; preloading a file is
    /// one. A block the range covers fully becomes a descriptor and stores
    /// nothing, whatever it held. A partly covered one that already
    /// describes `seed` at its own offset holds those bytes and is left as
    /// it is; any other is written as bytes.
    ///
    /// [`write`]: Self::write
    pub fn write_described(
        &mut self,
        ino: Ino,
        offset: u64,
        len: usize,
        seed: u64,
    ) -> Result<IoExtents, FsError> {
        if len == 0 {
            return Ok(IoExtents { extents: vec![], bytes: 0 });
        }
        let touched = self.map_range(ino, offset, len as u64)?;
        let end = offset + len as u64;
        let mut pos = offset;
        for &p in &touched {
            let in_block = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_block).min((end - pos) as usize);
            let start = pos - in_block as u64;
            let slot = &mut self.data[p as usize];
            if n == BLOCK_SIZE {
                *slot = Some(Block::Described { seed, offset: start });
            } else if !matches!(slot, Some(Block::Described { seed: s, offset: o })
                if *s == seed && *o == start)
            {
                let mut part = [0u8; BLOCK_SIZE];
                (self.fill)(seed, pos, &mut part[..n]);
                self.overlay(p, in_block, &part[..n]);
            }
            pos += n as u64;
        }
        Ok(IoExtents { extents: coalesce(touched), bytes: len })
    }

    /// Whether every byte of `[offset, offset + len)` (`len > 0`, within
    /// the file) is content `seed` held as descriptors at their own
    /// offsets — what a reader may be told as a descriptor, not as bytes.
    pub fn is_described(&self, ino: Ino, offset: u64, len: usize, seed: u64) -> bool {
        let Ok(inode) = self.inode(ino) else { return false };
        if len == 0 || offset + len as u64 > inode.size {
            return false;
        }
        let first = offset / BLOCK_SIZE as u64;
        let last = (offset + len as u64 - 1) / BLOCK_SIZE as u64;
        (first..=last).all(|l| {
            let block = inode.blocks.get(l as usize).copied().flatten();
            matches!(block.and_then(|p| self.data[p as usize].as_ref()),
                Some(Block::Described { seed: s, offset: o })
                    if *s == seed && *o == l * BLOCK_SIZE as u64)
        })
    }

    /// Write `src` at `in_block` of physical block `p`. A fresh block is
    /// zeros around it; a descriptor block is generated whole first, so
    /// the bytes around the write keep its content, and stays a descriptor
    /// when `src` is what it already holds there.
    fn overlay(&mut self, p: u64, in_block: usize, src: &[u8]) {
        let fill = self.fill;
        let block =
            self.data[p as usize].get_or_insert_with(|| Block::Stored(Box::new([0; BLOCK_SIZE])));
        if let Block::Described { seed, offset } = *block {
            let mut bytes = [0u8; BLOCK_SIZE];
            fill(seed, offset, &mut bytes);
            if bytes[in_block..in_block + src.len()] == *src {
                return;
            }
            *block = Block::Stored(Box::new(bytes));
        }
        let Block::Stored(bytes) = block else { unreachable!("stored just above") };
        bytes[in_block..in_block + src.len()].copy_from_slice(src);
    }

    /// Copy the bytes at `in_block..` of `block` into `dst`.
    fn copy_out(&self, block: &Block, in_block: usize, dst: &mut [u8]) {
        match block {
            Block::Stored(b) => dst.copy_from_slice(&b[in_block..in_block + dst.len()]),
            Block::Described { seed, offset } => (self.fill)(*seed, offset + in_block as u64, dst),
        }
    }

    /// Read up to `buf.len()` bytes at `offset`. Holes read as zeros (and
    /// cost no physical extents). Returns bytes read and extents touched.
    pub fn read(&self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<IoExtents, FsError> {
        let len = buf.len();
        let mut rest = buf;
        self.read_chunks(ino, offset, len, |n, block, in_block| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(n);
            match block {
                Some(b) => self.copy_out(b, in_block, head),
                None => head.fill(0),
            }
            rest = tail;
        })
    }

    /// [`read`](Self::read) that appends the bytes to `out` instead of
    /// overwriting a caller-initialized buffer: up to `len` bytes (fewer
    /// at EOF), holes as zeros.
    pub fn read_append(
        &self,
        ino: Ino,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<IoExtents, FsError> {
        self.read_chunks(ino, offset, len, |n, block, in_block| match block {
            Some(Block::Stored(b)) => out.extend_from_slice(&b[in_block..in_block + n]),
            Some(b) => {
                let at = out.len();
                out.resize(at + n, 0);
                self.copy_out(b, in_block, &mut out[at..]);
            }
            None => out.resize(out.len() + n, 0),
        })
    }

    /// Walk `[offset, offset + len)` (clamped to EOF) block by block,
    /// handing `sink` each piece's length, its block (`None` for a hole)
    /// and where in the block it starts.
    fn read_chunks(
        &self,
        ino: Ino,
        offset: u64,
        len: usize,
        mut sink: impl FnMut(usize, Option<&Block>, usize),
    ) -> Result<IoExtents, FsError> {
        let inode = self.inode(ino)?;
        if offset >= inode.size || len == 0 {
            return Ok(IoExtents { extents: vec![], bytes: 0 });
        }
        let len = len.min((inode.size - offset) as usize);
        let first_lblk = offset / BLOCK_SIZE as u64;
        let last_lblk = (offset + len as u64 - 1) / BLOCK_SIZE as u64;
        let mut touched: Vec<u64> = Vec::new();
        let mut read = 0usize;
        let mut pos = offset;
        for l in first_lblk..=last_lblk {
            let in_block = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_block).min(len - read);
            let pblk = inode.blocks.get(l as usize).copied().flatten();
            if let Some(p) = pblk {
                touched.push(p);
            }
            sink(n, pblk.and_then(|p| self.data[p as usize].as_ref()), in_block);
            read += n;
            pos += n as u64;
        }
        debug_assert_eq!(read, len);
        Ok(IoExtents { extents: coalesce(touched), bytes: read })
    }

    /// Physical extents backing a byte range (what a read *would* touch),
    /// without copying data. Used by the iod to plan disk I/O.
    pub fn extents_of(&self, ino: Ino, offset: u64, len: usize) -> Result<Vec<Extent>, FsError> {
        let inode = self.inode(ino)?;
        if len == 0 || offset >= inode.size {
            return Ok(vec![]);
        }
        let len = len.min((inode.size - offset) as usize);
        let first = offset / BLOCK_SIZE as u64;
        let last = (offset + len as u64 - 1) / BLOCK_SIZE as u64;
        let touched: Vec<u64> = (first..=last)
            .filter_map(|l| inode.blocks.get(l as usize).copied().flatten())
            .collect();
        Ok(coalesce(touched))
    }

    /// Physical block backing logical block `lblk` of a file (`None` for
    /// a hole, past EOF, or a missing file).
    pub fn pblk_of(&self, ino: Ino, lblk: u64) -> Option<u64> {
        self.inode(ino).ok()?.blocks.get(lblk as usize).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Content `seed` is byte `(seed * 31 + offset) % 253` at each offset.
    fn fill(seed: u64, offset: u64, out: &mut [u8]) {
        for (i, b) in out.iter_mut().enumerate() {
            *b = (seed.wrapping_mul(31).wrapping_add(offset + i as u64) % 253) as u8;
        }
    }

    fn fs() -> BlockFs {
        BlockFs::new(4096, fill)
    }

    #[test]
    fn create_open_remove() {
        let mut f = fs();
        let ino = f.create("a").unwrap();
        assert_eq!(f.open("a"), Some(ino));
        assert_eq!(f.create("a"), Err(FsError::AlreadyExists));
        assert_eq!(f.open_or_create("a").unwrap(), ino);
        f.remove("a").unwrap();
        assert_eq!(f.open("a"), None);
        assert_eq!(f.remove("a"), Err(FsError::NoSuchFile));
    }

    #[test]
    fn write_read_round_trip() {
        let mut f = fs();
        let ino = f.create("x").unwrap();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let w = f.write(ino, 0, &data).unwrap();
        assert_eq!(w.bytes, 10_000);
        assert_eq!(f.size(ino).unwrap(), 10_000);
        let mut out = vec![0u8; 10_000];
        let r = f.read(ino, 0, &mut out).unwrap();
        assert_eq!(r.bytes, 10_000);
        assert_eq!(out, data);
    }

    #[test]
    fn unaligned_overwrite_preserves_neighbors() {
        let mut f = fs();
        let ino = f.create("x").unwrap();
        f.write(ino, 0, &[1u8; 8192]).unwrap();
        f.write(ino, 1000, &[2u8; 100]).unwrap();
        let mut out = vec![0u8; 8192];
        f.read(ino, 0, &mut out).unwrap();
        assert!(out[..1000].iter().all(|&b| b == 1));
        assert!(out[1000..1100].iter().all(|&b| b == 2));
        assert!(out[1100..].iter().all(|&b| b == 1));
    }

    #[test]
    fn sparse_holes_read_zero_and_cost_nothing() {
        let mut f = fs();
        let ino = f.create("x").unwrap();
        // Write one block at 1 MB; everything before is a hole.
        f.write(ino, 1 << 20, &[7u8; 4096]).unwrap();
        assert_eq!(f.size(ino).unwrap(), (1 << 20) + 4096);
        let mut out = vec![0xFFu8; 4096];
        let r = f.read(ino, 0, &mut out).unwrap();
        assert_eq!(r.bytes, 4096);
        assert!(out.iter().all(|&b| b == 0));
        assert!(r.extents.is_empty(), "hole read touches no physical blocks");
        let ext = f.extents_of(ino, 1 << 20, 4096).unwrap();
        assert_eq!(ext.iter().map(|e| e.blocks).sum::<u32>(), 1);
    }

    #[test]
    fn sequential_growth_is_contiguous() {
        let mut f = fs();
        let ino = f.create("x").unwrap();
        for i in 0..16u64 {
            f.write(ino, i * 4096, &[i as u8; 4096]).unwrap();
        }
        let ext = f.extents_of(ino, 0, 16 * 4096).unwrap();
        assert_eq!(ext.len(), 1, "sequential file fragmented: {:?}", ext);
        assert_eq!(ext[0].blocks, 16);
    }

    #[test]
    fn read_past_eof_truncates() {
        let mut f = fs();
        let ino = f.create("x").unwrap();
        f.write(ino, 0, &[5u8; 1000]).unwrap();
        let mut out = vec![0u8; 4096];
        let r = f.read(ino, 500, &mut out).unwrap();
        assert_eq!(r.bytes, 500);
        assert!(out[..500].iter().all(|&b| b == 5));
        let r2 = f.read(ino, 5000, &mut out).unwrap();
        assert_eq!(r2.bytes, 0);
    }

    #[test]
    fn read_append_matches_read() {
        let mut f = fs();
        let ino = f.create("x").unwrap();
        // A hole, then data, then EOF mid-block.
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8 + 1).collect();
        f.write(ino, 3 * 4096 + 100, &data).unwrap();
        for (offset, len) in
            [(0u64, 20_000usize), (4000, 9000), (3 * 4096 + 100, 6000), (1 << 20, 10)]
        {
            let mut want = vec![0xEEu8; len];
            let r = f.read(ino, offset, &mut want).unwrap();
            let mut got = vec![0xAAu8; 3];
            let a = f.read_append(ino, offset, len, &mut got).unwrap();
            assert_eq!(a, r, "same extents and byte count at {offset}+{len}");
            assert_eq!(&got[..3], &[0xAA; 3], "existing contents kept");
            assert_eq!(&got[3..], &want[..r.bytes], "appends exactly the bytes read");
        }
    }

    #[test]
    fn extents_reported_match_write() {
        let mut f = fs();
        let ino = f.create("x").unwrap();
        let w = f.write(ino, 0, &[1u8; 4096 * 3]).unwrap();
        assert_eq!(w.extents.iter().map(|e| e.blocks).sum::<u32>(), 3);
        // Overwrite touches the same extents, allocates nothing.
        let free_before = f.free_blocks();
        let w2 = f.write(ino, 0, &[2u8; 4096 * 3]).unwrap();
        assert_eq!(w2.extents, w.extents);
        assert_eq!(f.free_blocks(), free_before);
    }

    #[test]
    fn out_of_space_is_reported() {
        let mut f = BlockFs::new(4, fill);
        let ino = f.create("x").unwrap();
        assert!(f.write(ino, 0, &[0u8; 4096 * 4]).is_ok());
        let err = f.write(ino, 4096 * 4, &[0u8; 4096]).unwrap_err();
        assert_eq!(err, FsError::NoSpace);
    }

    #[test]
    fn remove_frees_space() {
        let mut f = BlockFs::new(8, fill);
        let ino = f.create("x").unwrap();
        f.write(ino, 0, &[1u8; 4096 * 8]).unwrap();
        assert_eq!(f.free_blocks(), 0);
        f.remove("x").unwrap();
        assert_eq!(f.free_blocks(), 8);
        assert_eq!(f.files().count(), 0);
    }

    #[test]
    fn bad_inode_rejected() {
        let f = fs();
        assert_eq!(f.size(Ino(99)), Err(FsError::BadInode));
        let mut buf = [0u8; 10];
        assert!(f.read(Ino(99), 0, &mut buf).is_err());
    }

    fn content(seed: u64, offset: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        fill(seed, offset, &mut v);
        v
    }

    #[test]
    fn preload_stores_nothing_and_reads_back_its_content() {
        let mut f = BlockFs::new(8192, fill);
        let ino = f.create("x").unwrap();
        let len = 16 << 20;
        let p = f.write_described(ino, 0, len, 3).unwrap();
        assert_eq!(p.bytes, len);
        assert_eq!(p.extents, vec![Extent { pblk: 0, blocks: 4096 }]);
        assert_eq!(f.stored_blocks(), 0, "a 16 MB preload stores no block");
        let mut out = Vec::new();
        f.read_append(ino, 5000, 3 * 4096, &mut out).unwrap();
        assert_eq!(out, content(3, 5000, 3 * 4096));
        assert_eq!(f.stored_blocks(), 0, "reads store nothing");
    }

    #[test]
    fn write_stores_exactly_the_blocks_it_touches() {
        let mut f = fs();
        let ino = f.create("x").unwrap();
        f.write_described(ino, 0, 64 * 4096, 1).unwrap();
        // 6 KB from 3000: the tail of block 0, all of block 1, head of 2.
        let w = f.write(ino, 3000, &[0xEE; 6144]).unwrap();
        assert_eq!(w.extents, vec![Extent { pblk: 0, blocks: 3 }]);
        assert_eq!(f.stored_blocks(), 3);
        let mut out = vec![0u8; 3 * 4096];
        f.read(ino, 0, &mut out).unwrap();
        assert_eq!(&out[..3000], &content(1, 0, 3000)[..], "block 0 keeps its head");
        assert!(out[3000..9144].iter().all(|&b| b == 0xEE));
        assert_eq!(&out[9144..], &content(1, 9144, 3 * 4096 - 9144)[..], "block 2 keeps its tail");
    }

    #[test]
    fn preload_allocates_as_a_write_of_its_bytes() {
        let mut by_preload = fs();
        let mut by_write = fs();
        for f in [&mut by_preload, &mut by_write] {
            let a = f.create("a").unwrap();
            f.write(a, 4096, &[9u8; 100]).unwrap();
        }
        // Unaligned both ends, over a hole, a written block and growth.
        let (offset, len) = (100u64, 5 * 4096 + 7);
        let a = by_preload.open("a").unwrap();
        let p = by_preload.write_described(a, offset, len, 2).unwrap();
        let w = by_write.write(a, offset, &content(2, offset, len)).unwrap();
        assert_eq!(p, w);
        for l in 0..8 {
            assert_eq!(by_preload.pblk_of(a, l), by_write.pblk_of(a, l), "lblk {l}");
        }
        assert_eq!(by_preload.size(a), by_write.size(a));
        let (mut x, mut y) = (Vec::new(), Vec::new());
        by_preload.read_append(a, 0, 1 << 20, &mut x).unwrap();
        by_write.read_append(a, 0, 1 << 20, &mut y).unwrap();
        assert_eq!(x, y);
        assert_eq!(by_preload.stored_blocks(), 2, "only the two partly covered blocks");
    }
}
