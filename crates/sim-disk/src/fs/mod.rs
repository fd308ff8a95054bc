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
//! no write has changed since: it holds the [`Content`] at its own offset
//! and its bytes are generated on read, so it costs 16 bytes a block
//! rather than 4 KB. The first byte write to such a block that changes its
//! bytes stores it as bytes; one that writes the bytes it already holds
//! leaves it a descriptor.
//!
//! Block contents live in a table indexed by physical block, grown to the
//! highest block allocated: the allocator is first-fit from a hint, so the
//! blocks in use stay dense from 0.

pub mod alloc;

use crate::content::Content;
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

#[derive(Debug, Default)]
struct Inode {
    size: u64,
    /// Logical block index → physical block; `None` is a hole.
    blocks: Vec<Option<u64>>,
}

impl Inode {
    /// Physical block backing logical block `l`; `None` for a hole.
    fn pblk(&self, l: u64) -> Option<u64> {
        self.blocks.get(l as usize).copied().flatten()
    }
}

/// What an allocated physical block holds.
enum Block {
    /// Bytes written to it.
    Stored(Box<[u8; BLOCK_SIZE]>),
    /// Written whole as this content, whose offset is the block's own,
    /// and not changed by a write since.
    Described(Content),
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
}

/// `[offset, offset + len)` block by block: each piece's logical block,
/// where in the block it starts, and its length.
fn pieces(offset: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize)> {
    let (bs, end) = (BLOCK_SIZE as u64, offset + len as u64);
    (offset / bs..end.div_ceil(bs)).map(move |l| {
        let (lo, hi) = (offset.max(l * bs), end.min((l + 1) * bs));
        (l, (lo - l * bs) as usize, (hi - lo) as usize)
    })
}

/// `pblks` sorted, deduplicated and merged into runs of contiguous blocks.
pub fn coalesce(mut pblks: Vec<u64>) -> Vec<Extent> {
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
    /// An empty volume of `capacity_blocks` blocks.
    pub fn new(capacity_blocks: u64) -> BlockFs {
        BlockFs {
            alloc: BlockAllocator::new(capacity_blocks),
            inodes: Vec::new(),
            root: BTreeMap::new(),
            data: Vec::new(),
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
        for (&p, (_, in_block, n)) in touched.iter().zip(pieces(offset, buf.len())) {
            self.overlay(p, in_block, &buf[written..written + n]);
            written += n;
        }
        Ok(IoExtents { extents: coalesce(touched), bytes: written })
    }

    /// Write the first `len` bytes of `content` at its own offset as
    /// descriptors, allocating exactly as a [`write`] of those bytes would;
    /// preloading a file is one. A block the range covers fully becomes a
    /// descriptor and stores nothing, whatever it held. A partly covered
    /// one that already describes that content holds those bytes and is
    /// left as it is; any other is written as bytes.
    ///
    /// [`write`]: Self::write
    pub fn write_described(
        &mut self,
        ino: Ino,
        content: Content,
        len: usize,
    ) -> Result<IoExtents, FsError> {
        if len == 0 {
            return Ok(IoExtents { extents: vec![], bytes: 0 });
        }
        let touched = self.map_range(ino, content.offset, len as u64)?;
        for (&p, (l, in_block, n)) in touched.iter().zip(pieces(content.offset, len)) {
            let whole = Content { offset: l * BLOCK_SIZE as u64, ..content };
            let slot = &mut self.data[p as usize];
            if n == BLOCK_SIZE {
                *slot = Some(Block::Described(whole));
            } else if !matches!(slot, Some(Block::Described(c)) if *c == whole) {
                let mut part = [0u8; BLOCK_SIZE];
                whole.at(in_block as u64).fill(&mut part[..n]);
                self.overlay(p, in_block, &part[..n]);
            }
        }
        Ok(IoExtents { extents: coalesce(touched), bytes: len })
    }

    /// Whether the first `len` bytes of `content` (`len > 0`, within the
    /// file) are held at its own offset as descriptors of it — what a
    /// reader may be told as a descriptor, not as bytes.
    pub fn is_described(&self, ino: Ino, content: Content, len: usize) -> bool {
        let Ok(inode) = self.inode(ino) else { return false };
        if len == 0 || content.offset + len as u64 > inode.size {
            return false;
        }
        pieces(content.offset, len).all(|(l, _, _)| {
            let own = Content { offset: l * BLOCK_SIZE as u64, ..content };
            matches!(inode.pblk(l).and_then(|p| self.data[p as usize].as_ref()),
                Some(Block::Described(c)) if *c == own)
        })
    }

    /// Write `src` at `in_block` of physical block `p`. A fresh block is
    /// zeros around it; a descriptor block is generated whole first, so
    /// the bytes around the write keep its content, and stays a descriptor
    /// when `src` is what it already holds there.
    fn overlay(&mut self, p: u64, in_block: usize, src: &[u8]) {
        let block =
            self.data[p as usize].get_or_insert_with(|| Block::Stored(Box::new([0; BLOCK_SIZE])));
        if let Block::Described(content) = *block {
            let mut bytes = [0u8; BLOCK_SIZE];
            content.fill(&mut bytes);
            if bytes[in_block..in_block + src.len()] == *src {
                return;
            }
            *block = Block::Stored(Box::new(bytes));
        }
        let Block::Stored(bytes) = block else { unreachable!("stored just above") };
        bytes[in_block..in_block + src.len()].copy_from_slice(src);
    }

    /// Append up to `len` bytes at `offset` to `out` (fewer at EOF,
    /// none past it). Holes read as zeros and cost no physical extents.
    /// Returns bytes read and extents touched.
    pub fn read_append(
        &self,
        ino: Ino,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<IoExtents, FsError> {
        let inode = self.inode(ino)?;
        if offset >= inode.size || len == 0 {
            return Ok(IoExtents { extents: vec![], bytes: 0 });
        }
        let len = len.min((inode.size - offset) as usize);
        let mut touched: Vec<u64> = Vec::new();
        for (l, in_block, n) in pieces(offset, len) {
            let pblk = inode.pblk(l);
            touched.extend(pblk);
            match pblk.and_then(|p| self.data[p as usize].as_ref()) {
                Some(Block::Stored(b)) => out.extend_from_slice(&b[in_block..in_block + n]),
                Some(Block::Described(c)) => c.at(in_block as u64).append(n, out),
                None => out.resize(out.len() + n, 0),
            }
        }
        Ok(IoExtents { extents: coalesce(touched), bytes: len })
    }

    /// Physical extents backing a byte range (what a read *would* touch),
    /// without copying data. Used by the iod to plan disk I/O.
    pub fn extents_of(&self, ino: Ino, offset: u64, len: usize) -> Result<Vec<Extent>, FsError> {
        let inode = self.inode(ino)?;
        if len == 0 || offset >= inode.size {
            return Ok(vec![]);
        }
        let len = len.min((inode.size - offset) as usize);
        Ok(coalesce(pieces(offset, len).filter_map(|(l, _, _)| inode.pblk(l)).collect()))
    }

    /// Physical block backing logical block `lblk` of a file (`None` for
    /// a hole, past EOF, or a missing file).
    pub fn pblk_of(&self, ino: Ino, lblk: u64) -> Option<u64> {
        self.inode(ino).ok()?.pblk(lblk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::Fid;

    fn fs() -> BlockFs {
        BlockFs::new(4096)
    }

    /// What `read_append` appends for `offset + len` of `ino`.
    fn read(f: &BlockFs, ino: Ino, offset: u64, len: usize) -> (Vec<u8>, IoExtents) {
        let mut out = Vec::new();
        let r = f.read_append(ino, offset, len, &mut out).unwrap();
        assert_eq!(out.len(), r.bytes);
        (out, r)
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
        let (out, r) = read(&f, ino, 0, 10_000);
        assert_eq!(r.bytes, 10_000);
        assert_eq!(out, data);
    }

    #[test]
    fn unaligned_overwrite_preserves_neighbors() {
        let mut f = fs();
        let ino = f.create("x").unwrap();
        f.write(ino, 0, &[1u8; 8192]).unwrap();
        f.write(ino, 1000, &[2u8; 100]).unwrap();
        let (out, _) = read(&f, ino, 0, 8192);
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
        let (out, r) = read(&f, ino, 0, 4096);
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
        let (out, r) = read(&f, ino, 500, 4096);
        assert_eq!(r.bytes, 500);
        assert!(out.iter().all(|&b| b == 5));
        let (out, r2) = read(&f, ino, 5000, 4096);
        assert_eq!(r2.bytes, 0);
        assert!(out.is_empty() && r2.extents.is_empty());
    }

    /// `read_append` keeps what `out` held and appends exactly what a read
    /// of the file returns: zeros in a hole, the bytes written, nothing
    /// past EOF (mid-block here), with the extents of the blocks it read.
    #[test]
    fn read_append_matches_read() {
        let mut f = fs();
        let ino = f.create("x").unwrap();
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8 + 1).collect();
        let at = 3 * 4096 + 100;
        f.write(ino, at, &data).unwrap();
        let mut file = vec![0u8; at as usize];
        file.extend_from_slice(&data);
        for (offset, len) in
            [(0u64, 20_000usize), (4000, 9000), (3 * 4096 + 100, 6000), (1 << 20, 10)]
        {
            let mut got = vec![0xAAu8; 3];
            let r = f.read_append(ino, offset, len, &mut got).unwrap();
            let start = (offset as usize).min(file.len());
            let want = &file[start..(start + len).min(file.len())];
            assert_eq!(r.bytes, want.len(), "{offset}+{len}");
            assert_eq!(&got[..3], &[0xAA; 3], "existing contents kept");
            assert_eq!(&got[3..], want, "appends exactly the bytes read at {offset}+{len}");
            assert_eq!(r.extents, f.extents_of(ino, offset, len).unwrap(), "{offset}+{len}");
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
        let mut f = BlockFs::new(4);
        let ino = f.create("x").unwrap();
        assert!(f.write(ino, 0, &[0u8; 4096 * 4]).is_ok());
        let err = f.write(ino, 4096 * 4, &[0u8; 4096]).unwrap_err();
        assert_eq!(err, FsError::NoSpace);
    }

    #[test]
    fn remove_frees_space() {
        let mut f = BlockFs::new(8);
        let ino = f.create("x").unwrap();
        f.write(ino, 0, &[1u8; 4096 * 8]).unwrap();
        assert_eq!(f.free_blocks(), 0);
        f.remove("x").unwrap();
        assert_eq!(f.free_blocks(), 8);
        assert_eq!(f.open("x"), None);
    }

    #[test]
    fn bad_inode_rejected() {
        let f = fs();
        assert_eq!(f.size(Ino(99)), Err(FsError::BadInode));
        let mut out = Vec::new();
        assert!(f.read_append(Ino(99), 0, 10, &mut out).is_err());
    }

    fn content(fid: u64, offset: u64) -> Content {
        Content::new(Fid(fid), offset)
    }

    #[test]
    fn preload_stores_nothing_and_reads_back_its_content() {
        let mut f = BlockFs::new(8192);
        let ino = f.create("x").unwrap();
        let len = 16 << 20;
        let p = f.write_described(ino, content(3, 0), len).unwrap();
        assert_eq!(p.bytes, len);
        assert_eq!(p.extents, vec![Extent { pblk: 0, blocks: 4096 }]);
        assert_eq!(f.stored_blocks(), 0, "a 16 MB preload stores no block");
        let (out, _) = read(&f, ino, 5000, 3 * 4096);
        assert_eq!(out, content(3, 5000).generate(3 * 4096));
        assert_eq!(f.stored_blocks(), 0, "reads store nothing");
        assert!(f.is_described(ino, content(3, 4096), 8192));
        assert!(!f.is_described(ino, content(4, 4096), 8192), "another file's content");
        assert!(!f.is_described(ino, content(3, len as u64 - 100), 200), "past EOF");
    }

    #[test]
    fn write_stores_exactly_the_blocks_it_touches() {
        let mut f = fs();
        let ino = f.create("x").unwrap();
        f.write_described(ino, content(1, 0), 64 * 4096).unwrap();
        // 6 KB from 3000: the tail of block 0, all of block 1, head of 2.
        let w = f.write(ino, 3000, &[0xEE; 6144]).unwrap();
        assert_eq!(w.extents, vec![Extent { pblk: 0, blocks: 3 }]);
        assert_eq!(f.stored_blocks(), 3);
        let (out, _) = read(&f, ino, 0, 3 * 4096);
        assert_eq!(out[..3000], content(1, 0).generate(3000), "block 0 keeps its head");
        assert!(out[3000..9144].iter().all(|&b| b == 0xEE));
        assert_eq!(
            out[9144..],
            content(1, 9144).generate(3 * 4096 - 9144),
            "block 2 keeps its tail"
        );
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
        let (c, len) = (content(2, 100), 5 * 4096 + 7);
        let a = by_preload.open("a").unwrap();
        let p = by_preload.write_described(a, c, len).unwrap();
        let w = by_write.write(a, c.offset, &c.generate(len)).unwrap();
        assert_eq!(p, w);
        for l in 0..8 {
            assert_eq!(by_preload.pblk_of(a, l), by_write.pblk_of(a, l), "lblk {l}");
        }
        assert_eq!(by_preload.size(a), by_write.size(a));
        assert_eq!(read(&by_preload, a, 0, 1 << 20).0, read(&by_write, a, 0, 1 << 20).0);
        assert_eq!(by_preload.stored_blocks(), 2, "only the two partly covered blocks");
    }
}
