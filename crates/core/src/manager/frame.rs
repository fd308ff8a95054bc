//! A cache frame, and the one place its bytes are read or written.
//!
//! A frame's valid span holds either **stored** bytes, in a 4 KB buffer the
//! frame allocates the first time it stores any and keeps across tenants,
//! or is **described**: every byte it took in is the file's own content at
//! the resident block's offsets — the representation `BlockFs` gives the
//! iod's blocks. The rule is the same on every path that brings data in (an
//! install, a write-behind absorb, a sync-write refresh): bytes are
//! compared once (`Content::matches`), and those the file's content
//! reproduces are recorded as described and copied nowhere; any other
//! bytes are stored. Data that arrived as a descriptor the caller
//! recognised as naming this very block and span ([`OwnContent`]) is
//! recorded as described with no compare. A merge that does not match a
//! described frame first generates the frame's valid span into the buffer,
//! then overlays the new bytes. A hit or a flush snapshot of a described
//! frame is made from the frame's own key (the block its content was
//! recognised as), so bytes that failed the check stay stored, and every
//! later reader sees them.

use super::FlushItem;
use crate::block::{BlockKey, Span, CACHE_BLOCK_SIZE};
use bytes::Bytes;
use pvfs::{Content, Segment};
use sim_net::NodeId;

/// What an install, a write-behind absorb or a sync-write refresh brings
/// into a frame's span: bytes (`&[u8]`, compared once), or [`OwnContent`].
/// Install paths are generic over it, so each variant is matched once, at
/// the top, and the bytes path takes no per-block branch for the other.
pub(super) trait Incoming: Copy {
    /// A new tenant: `span` of `key` becomes the frame's valid span.
    fn take_in(self, f: &mut Frame, key: BlockKey, span: Span);
    /// Merge `span` (mergeable with the valid span) into the frame.
    fn merge(self, f: &mut Frame, span: Span);
}

impl Incoming for &[u8] {
    fn take_in(self, f: &mut Frame, key: BlockKey, span: Span) {
        debug_assert_eq!(self.len(), span.len() as usize);
        f.take_in(key, span, self)
    }

    fn merge(self, f: &mut Frame, span: Span) {
        debug_assert_eq!(self.len(), span.len() as usize);
        f.merge(span, self)
    }
}

/// The resident block's own content over the span: a descriptor the
/// caller recognised as naming exactly this block and span.
#[derive(Clone, Copy)]
pub(super) struct OwnContent;

impl Incoming for OwnContent {
    fn take_in(self, f: &mut Frame, key: BlockKey, span: Span) {
        debug_assert!(f.key.is_none());
        f.key = Some(key);
        f.valid = span;
        f.described = true;
    }

    /// A described frame stays described; a stored one has the content
    /// generated into its buffer.
    fn merge(self, f: &mut Frame, span: Span) {
        debug_assert!(f.valid.mergeable(span));
        if !f.described {
            let own = f.origin().at(span.start as u64);
            own.fill(&mut f.buffer()[span.start as usize..span.end as usize]);
        }
        f.valid = f.valid.merge(span);
    }
}

#[derive(Debug)]
pub(super) struct Frame {
    /// The resident block; a described frame's bytes are this block's.
    key: Option<BlockKey>,
    /// The valid span is the resident block's content, not `data`.
    described: bool,
    /// Allocated when the frame first stores bytes, kept across tenants;
    /// read only while the frame is not described.
    data: Option<Box<[u8; CACHE_BLOCK_SIZE]>>,
    pub(super) valid: Span,
    pub(super) dirty: Span,
    pub(super) home: NodeId,
    pub(super) in_dirty_list: bool,
    /// A snapshot of this frame is in flight to its iod; the frame cannot
    /// be evicted (and is not re-taken by the flusher) until the flush is
    /// acknowledged. This is what makes write-behind *block* when the
    /// network cannot drain dirty data fast enough (§4.2.1).
    pub(super) flushing: bool,
}

impl Frame {
    pub(super) fn empty() -> Frame {
        Frame {
            key: None,
            described: false,
            data: None,
            valid: Span::EMPTY,
            dirty: Span::EMPTY,
            home: NodeId(0),
            in_dirty_list: false,
            flushing: false,
        }
    }

    pub(super) fn key(&self) -> Option<BlockKey> {
        self.key
    }

    pub(super) fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Forget the block (eviction, invalidation): the frame is keyless
    /// until an install fills it again.
    pub(super) fn vacate(&mut self) {
        self.key = None;
        self.valid = Span::EMPTY;
        self.dirty = Span::EMPTY;
        self.in_dirty_list = false;
    }

    /// The frame's buffer, allocated on first use.
    fn buffer(&mut self) -> &mut [u8; CACHE_BLOCK_SIZE] {
        self.data.get_or_insert_with(|| Box::new([0; CACHE_BLOCK_SIZE]))
    }

    /// A new tenant: `span` of block `key` becomes the valid span,
    /// described when the file's content reproduces every byte, else stored.
    fn take_in(&mut self, key: BlockKey, span: Span, bytes: &[u8]) {
        debug_assert!(self.key.is_none());
        self.key = Some(key);
        self.valid = span;
        self.described = key.content().at(span.start as u64).matches(bytes);
        if !self.described {
            self.buffer()[span.start as usize..span.end as usize].copy_from_slice(bytes);
        }
    }

    /// Merge `span` (mergeable with the valid span) into the resident
    /// block. A described frame stays described when the block's content
    /// reproduces the bytes; otherwise its valid span is generated into the
    /// buffer first, and the bytes overlaid.
    fn merge(&mut self, span: Span, bytes: &[u8]) {
        debug_assert!(self.valid.mergeable(span));
        if self.described {
            let origin = self.origin();
            if origin.at(span.start as u64).matches(bytes) {
                self.valid = self.valid.merge(span);
                return;
            }
            let valid = self.valid;
            origin
                .at(valid.start as u64)
                .fill(&mut self.buffer()[valid.start as usize..valid.end as usize]);
            self.described = false;
        }
        self.buffer()[span.start as usize..span.end as usize].copy_from_slice(bytes);
        self.valid = self.valid.merge(span);
    }

    /// The resident block's own content: a described frame's bytes are
    /// generated from here.
    fn origin(&self) -> Content {
        self.key.expect("the frame holds a block").content()
    }

    /// The bytes the frame holds over `span` (within the valid span).
    pub(super) fn bytes(&self, span: Span) -> BlockBytes<'_> {
        debug_assert!(self.valid.covers(span));
        BlockBytes(if self.described {
            Src::Described(self.origin().at(span.start as u64), span.len() as usize)
        } else {
            let data = self.data.as_deref().expect("a stored frame has its buffer");
            Src::Stored(&data[span.start as usize..span.end as usize])
        })
    }

    /// The dirty span's bytes, snapshot for write-back.
    pub(super) fn flush_item(&self) -> FlushItem {
        let key = self.key.expect("a dirty frame holds a block");
        let span = self.dirty;
        FlushItem { key, home: self.home, span, data: self.bytes(span).to_vec() }
    }
}

/// The bytes a resident block holds over one span, as a read hit hands
/// them to its caller: a window of the frame's stored bytes, or the file's
/// content there — handed on as a descriptor ([`segment`](Self::segment))
/// or generated into the caller's buffer.
pub struct BlockBytes<'a>(Src<'a>);

enum Src<'a> {
    Stored(&'a [u8]),
    Described(Content, usize),
}

impl BlockBytes<'_> {
    pub fn len(&self) -> usize {
        match self.0 {
            Src::Stored(b) => b.len(),
            Src::Described(_, len) => len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write the bytes into `dst` (`dst.len() == self.len()`).
    pub fn copy_to(&self, dst: &mut [u8]) {
        match self.0 {
            Src::Stored(b) => dst.copy_from_slice(b),
            Src::Described(c, _) => c.fill(dst),
        }
    }

    /// The bytes as one payload segment: a described frame's as the
    /// descriptor of its block's content, a stored frame's copied.
    pub fn segment(&self) -> Segment {
        match self.0 {
            Src::Stored(b) => Segment::Bytes(Bytes::copy_from_slice(b)),
            Src::Described(c, len) => Segment::Described(c, len as u32),
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        match self.0 {
            Src::Stored(b) => b.to_vec(),
            Src::Described(c, len) => c.generate(len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Describing a frame costs it no room: a frame lock and its frame
    /// stay one cache line, as when every frame stored its bytes.
    #[test]
    fn a_locked_frame_fits_one_cache_line() {
        assert!(std::mem::size_of::<parking_lot::Mutex<Frame>>() <= 64);
    }
}
