//! Cache block identity and in-block byte ranges.

use pvfs::{Content, Fid};
use std::fmt;

/// Cache block size: 4 KB, "to make it equal to page size" (§3.2).
pub const CACHE_BLOCK_SIZE: usize = 4096;

/// Identity of a cached block: a 4 KB-aligned slice of a logical file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey {
    pub fid: Fid,
    /// Logical block number (`offset / 4096`).
    pub blk: u64,
}

impl BlockKey {
    #[inline]
    pub fn new(fid: Fid, blk: u64) -> BlockKey {
        BlockKey { fid, blk }
    }

    /// First byte of this block in the file.
    #[inline]
    pub fn offset(&self) -> u64 {
        self.blk * CACHE_BLOCK_SIZE as u64
    }

    /// The block's own bytes: its file's content from its first byte.
    #[inline]
    pub fn content(&self) -> Content {
        Content::new(self.fid, self.offset())
    }

    /// Cheap, well-mixed hash for the open-hash table (fibonacci hashing on
    /// the combined words; we only rely on high-bit diffusion).
    #[inline]
    pub fn hash(&self) -> u64 {
        let x = self.fid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.blk;
        x.wrapping_mul(0xBF58_476D_1CE4_E5B9)
    }
}

impl fmt::Debug for BlockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.fid.0, self.blk)
    }
}

/// A byte span *within* one cache block: `start..end`, `end <= 4096`.
/// Frames track which part of the block holds valid bytes and which part is
/// dirty — sub-block writes must not flush stale neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: u32,
    pub end: u32,
}

impl Span {
    pub const EMPTY: Span = Span { start: 0, end: 0 };
    pub const FULL: Span = Span { start: 0, end: CACHE_BLOCK_SIZE as u32 };

    pub fn new(start: u32, end: u32) -> Span {
        debug_assert!(start <= end && end <= CACHE_BLOCK_SIZE as u32);
        Span { start, end }
    }

    #[inline]
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Does `other` lie entirely within this span?
    pub fn covers(&self, other: Span) -> bool {
        other.is_empty() || (self.start <= other.start && other.end <= self.end)
    }

    /// Can the two spans merge into one contiguous span (overlap or touch)?
    pub fn mergeable(&self, other: Span) -> bool {
        self.is_empty() || other.is_empty() || (self.start <= other.end && other.start <= self.end)
    }

    /// Union of two mergeable spans.
    pub fn merge(&self, other: Span) -> Span {
        debug_assert!(self.mergeable(other));
        self.hull(other)
    }

    /// Smallest span containing both inputs, even when they are disjoint.
    /// Safe for *dirty* accumulation only when the gap bytes are known
    /// valid (flushing them re-writes bytes that already match the file).
    pub fn hull(&self, other: Span) -> Span {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return *self;
        }
        Span::new(self.start.min(other.start), self.end.max(other.end))
    }
}

/// Block numbers covered by a file byte range.
#[inline]
pub fn blocks_of_range(offset: u64, len: u32) -> std::ops::RangeInclusive<u64> {
    if len == 0 {
        #[allow(clippy::reversed_empty_ranges)]
        return 1..=0; // empty
    }
    let first = offset / CACHE_BLOCK_SIZE as u64;
    let last = (offset + len as u64 - 1) / CACHE_BLOCK_SIZE as u64;
    first..=last
}

/// The portion of `block` covered by the file byte range, as an in-block
/// span.
#[inline]
pub fn span_in_block(block: u64, offset: u64, len: u32) -> Span {
    let bs = CACHE_BLOCK_SIZE as u64;
    let blk_start = block * bs;
    let blk_end = blk_start + bs;
    let r_start = offset.max(blk_start);
    let r_end = (offset + len as u64).min(blk_end);
    if r_start >= r_end {
        Span::EMPTY
    } else {
        Span::new((r_start - blk_start) as u32, (r_end - blk_start) as u32)
    }
}

/// One block's share of a file byte range: the block, the span of it
/// the range covers, and where that span starts in the range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockPiece {
    pub(crate) blk: u64,
    pub(crate) span: Span,
    pub(crate) at: u32,
}

impl BlockPiece {
    /// The piece of `blk` that the file byte range covers; `blk` must be
    /// one of the range's blocks.
    #[inline]
    pub(crate) fn of(blk: u64, offset: u64, len: u32) -> BlockPiece {
        let span = span_in_block(blk, offset, len);
        let at = (blk * CACHE_BLOCK_SIZE as u64 + span.start as u64 - offset) as u32;
        BlockPiece { blk, span, at }
    }
}

/// The pieces of a file byte range, one per block, in offset order.
#[inline]
pub(crate) fn pieces_of_range(offset: u64, len: u32) -> impl Iterator<Item = BlockPiece> {
    blocks_of_range(offset, len).map(move |blk| BlockPiece::of(blk, offset, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_offset_and_hash() {
        let k = BlockKey::new(Fid(3), 7);
        assert_eq!(k.offset(), 7 * 4096);
        let k2 = BlockKey::new(Fid(3), 8);
        assert_ne!(k.hash(), k2.hash());
        assert_eq!(k.hash(), BlockKey::new(Fid(3), 7).hash());
    }

    #[test]
    fn span_merge_rules() {
        let a = Span::new(0, 100);
        let b = Span::new(100, 200);
        assert!(a.mergeable(b), "touching spans merge");
        assert_eq!(a.merge(b), Span::new(0, 200));
        let c = Span::new(300, 400);
        assert!(!a.mergeable(c), "disjoint with gap does not merge");
        assert!(a.mergeable(Span::EMPTY));
        assert_eq!(a.merge(Span::EMPTY), a);
        assert_eq!(Span::EMPTY.merge(a), a);
    }

    #[test]
    fn span_hull_spans_gaps() {
        let a = Span::new(0, 100);
        let c = Span::new(300, 400);
        assert!(!a.mergeable(c));
        assert_eq!(a.hull(c), Span::new(0, 400));
        assert_eq!(c.hull(a), Span::new(0, 400));
        assert_eq!(a.hull(Span::EMPTY), a);
        assert_eq!(Span::EMPTY.hull(c), c);
        assert!(a.hull(c).covers(a) && a.hull(c).covers(c));
    }

    #[test]
    fn span_covers() {
        let v = Span::new(100, 1000);
        assert!(v.covers(Span::new(100, 1000)));
        assert!(v.covers(Span::new(500, 600)));
        assert!(!v.covers(Span::new(0, 200)));
        assert!(v.covers(Span::EMPTY));
        assert!(Span::FULL.covers(v));
    }

    #[test]
    fn blocks_of_range_boundaries() {
        assert_eq!(blocks_of_range(0, 4096).collect::<Vec<_>>(), vec![0]);
        assert_eq!(blocks_of_range(0, 4097).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(blocks_of_range(4095, 2).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(blocks_of_range(8192, 100).collect::<Vec<_>>(), vec![2]);
        assert!(blocks_of_range(123, 0).collect::<Vec<_>>().is_empty());
    }

    #[test]
    fn span_in_block_clips() {
        // Range [1000, 9000) across blocks 0..2.
        assert_eq!(span_in_block(0, 1000, 8000), Span::new(1000, 4096));
        assert_eq!(span_in_block(1, 1000, 8000), Span::FULL);
        assert_eq!(span_in_block(2, 1000, 8000), Span::new(0, 9000 - 8192));
        assert_eq!(span_in_block(5, 1000, 8000), Span::EMPTY);
    }

    #[test]
    fn pieces_tile_the_range() {
        // Range [1000, 9000): each piece starts where the last one ended.
        let pieces: Vec<BlockPiece> = pieces_of_range(1000, 8000).collect();
        assert_eq!(pieces.iter().map(|p| p.blk).collect::<Vec<_>>(), vec![0, 1, 2]);
        let windows: Vec<(u32, u32)> = pieces.iter().map(|p| (p.at, p.span.len())).collect();
        assert_eq!(windows, vec![(0, 3096), (3096, 4096), (7192, 808)]);
        assert_eq!(pieces[2].span, span_in_block(2, 1000, 8000));
        assert_eq!(BlockPiece::of(1, 1000, 8000), pieces[1]);
        assert_eq!(pieces_of_range(123, 0).count(), 0);
    }
}
