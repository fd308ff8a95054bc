//! The data a read reply or a write part carries: a short list of
//! segments, each either a descriptor of the file's own bytes or bytes.
//!
//! Every file holds its deterministic pattern until a write changes it,
//! and every simulated write writes the pattern. So most data on the wire
//! is the file's own content at its own offsets, and saying so —
//! `Described(content, len)` — carries the same claim as the bytes would,
//! checkable by `==` on its [`Content`]. Only content that no descriptor names
//! travels as [`Segment::Bytes`]. Costs and the fabric charge by a
//! message's range, never by how its payload is held.
//!
//! A descriptor is made only from one received, or from bytes compared
//! once (an iod's `BlockFs` block, a cache frame). A receiver recognises a
//! descriptor by `==` on its content; it never trusts one that names
//! another place.

use bytes::Bytes;
use sim_disk::Content;
use std::borrow::Cow;
use std::fmt;

/// One run of a payload.
#[derive(Debug, Clone)]
pub enum Segment {
    /// The first `len` bytes of the content, not carried.
    Described(Content, u32),
    /// Bytes carried as they are.
    Bytes(Bytes),
}

impl Segment {
    pub fn len(&self) -> usize {
        match self {
            Segment::Described(_, len) => *len as usize,
            Segment::Bytes(b) => b.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The window `[lo, hi)` of this segment.
    fn window(&self, lo: usize, hi: usize) -> Segment {
        match self {
            Segment::Described(c, _) => Segment::Described(c.at(lo as u64), (hi - lo) as u32),
            Segment::Bytes(b) => Segment::Bytes(b.slice(lo..hi)),
        }
    }

    /// The segment's bytes: borrowed, or generated for a described one.
    pub fn bytes(&self) -> Cow<'_, [u8]> {
        match self {
            Segment::Bytes(b) => Cow::Borrowed(b),
            Segment::Described(c, len) => Cow::Owned(c.generate(*len as usize)),
        }
    }

    /// Append the segment's bytes to `out`, generating a described one.
    fn append_to(&self, out: &mut Vec<u8>) {
        match self {
            Segment::Described(c, len) => c.append(*len as usize, out),
            Segment::Bytes(b) => out.extend_from_slice(b),
        }
    }
}

/// A message's data: segments in order, adjacent described ones merged.
/// The first segment is held inline, so a one-segment payload — the usual
/// one — allocates nothing of its own.
///
/// Equality is by content: two payloads are equal when they carry the same
/// bytes, however segmented.
#[derive(Clone, Default)]
pub struct Payload {
    first: Option<Segment>,
    rest: Vec<Segment>,
}

impl Payload {
    pub fn new() -> Payload {
        Payload::default()
    }

    /// The first `len` bytes of `content`.
    pub fn described(content: Content, len: u32) -> Payload {
        let mut p = Payload::new();
        p.push(Segment::Described(content, len));
        p
    }

    /// Append `seg`; an empty one is dropped, and a described one that
    /// continues the content of a described last segment extends it.
    pub fn push(&mut self, seg: Segment) {
        if seg.is_empty() {
            return;
        }
        let last = match self.rest.last_mut() {
            Some(last) => last,
            None => match &mut self.first {
                Some(first) => first,
                None => return self.first = Some(seg),
            },
        };
        if let (Segment::Described(c, len), Segment::Described(next, more)) = (&mut *last, &seg) {
            if c.at(*len as u64) == *next {
                if let Some(sum) = len.checked_add(*more) {
                    *len = sum;
                    return;
                }
            }
        }
        self.rest.push(seg);
    }

    /// Append every segment of `other`.
    pub fn extend(&mut self, other: Payload) {
        for seg in other.into_segments() {
            self.push(seg);
        }
    }

    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.first.iter().chain(&self.rest)
    }

    fn into_segments(self) -> impl Iterator<Item = Segment> {
        self.first.into_iter().chain(self.rest)
    }

    /// Each segment with its position in the payload.
    fn positioned(&self) -> impl Iterator<Item = (usize, &Segment)> {
        self.segments().scan(0usize, |pos, seg| {
            let at = *pos;
            *pos += seg.len();
            Some((at, seg))
        })
    }

    /// Total bytes carried or described.
    pub fn len(&self) -> usize {
        self.segments().map(Segment::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The window `[lo, hi)`: windows of the segments it overlaps, no byte
    /// copied.
    pub fn slice(&self, lo: usize, hi: usize) -> Payload {
        debug_assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} of {}", self.len());
        let mut out = Payload::new();
        for (at, seg) in self.positioned() {
            let end = at + seg.len();
            if end <= lo {
                continue;
            }
            if at >= hi {
                break;
            }
            out.push(seg.window(lo.max(at) - at, hi.min(end) - at));
        }
        out
    }

    /// The segment `[lo, hi)` lies wholly inside (`lo < hi`), and where in
    /// it the window starts.
    fn containing(&self, lo: usize, hi: usize) -> Option<(usize, &Segment)> {
        self.positioned()
            .find(|(at, seg)| at + seg.len() > lo)
            .filter(|(at, seg)| hi <= at + seg.len())
            .map(|(at, seg)| (lo - at, seg))
    }

    /// When `[lo, hi)` lies inside one described segment: the content it
    /// names from byte `lo`.
    pub fn described_at(&self, lo: usize, hi: usize) -> Option<Content> {
        match self.containing(lo, hi)? {
            (skip, Segment::Described(c, _)) => Some(c.at(skip as u64)),
            (_, Segment::Bytes(_)) => None,
        }
    }

    /// The bytes of `[lo, hi)`: borrowed when they lie inside one byte
    /// segment, else generated and copied.
    pub fn bytes_at(&self, lo: usize, hi: usize) -> Cow<'_, [u8]> {
        if let Some((skip, Segment::Bytes(b))) = self.containing(lo, hi) {
            return Cow::Borrowed(&b[skip..skip + (hi - lo)]);
        }
        let mut out = Vec::with_capacity(hi - lo);
        for seg in self.slice(lo, hi).segments() {
            seg.append_to(&mut out);
        }
        Cow::Owned(out)
    }

    /// Every byte, generated where described.
    pub fn to_vec(&self) -> Vec<u8> {
        self.bytes_at(0, self.len()).into_owned()
    }

    /// Whether the payload is `content`: each described segment names it
    /// at its own position, and each byte segment matches it there, every
    /// byte compared.
    pub fn is_content_of(&self, content: Content) -> bool {
        self.positioned().all(|(at, seg)| {
            let here = content.at(at as u64);
            match seg {
                Segment::Described(c, _) => *c == here,
                Segment::Bytes(b) => here.matches(b),
            }
        })
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Payload {
        let mut p = Payload::new();
        p.push(Segment::Bytes(b));
        p
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::from(Bytes::from(v))
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.segments()).finish()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.len() == other.len() && self.to_vec() == other.to_vec()
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.len() == other.len() && self.bytes_at(0, other.len()) == other
    }
}

impl PartialEq<Bytes> for Payload {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_ref()
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Fid;

    fn content(fid: u64, offset: u64) -> Content {
        Content::new(Fid(fid), offset)
    }

    fn bytes(c: Content, len: usize) -> Segment {
        Segment::Bytes(c.generate(len).into())
    }

    #[test]
    fn adjacent_descriptors_merge_and_one_segment_is_inline() {
        let mut p = Payload::described(content(3, 4096), 4096);
        p.push(Segment::Described(content(3, 8192), 4096));
        p.push(Segment::Described(content(3, 8192), 0));
        assert_eq!(p.segments().count(), 1);
        assert_eq!(p.rest.capacity(), 0, "one segment allocates nothing");
        assert_eq!(p.len(), 8192);
        // Another file, or a gap, starts a segment of its own.
        p.push(Segment::Described(content(4, 12288), 10));
        p.push(Segment::Described(content(4, 12299), 10));
        assert_eq!(p.segments().count(), 3);
        assert_eq!(p, pattern_mix());
    }

    /// What `adjacent_descriptors_merge_and_one_segment_is_inline` builds,
    /// as bytes.
    fn pattern_mix() -> Vec<u8> {
        let mut v = content(3, 4096).generate(8192);
        content(4, 12288).append(10, &mut v);
        content(4, 12299).append(10, &mut v);
        v
    }

    #[test]
    fn windows_and_bytes_follow_the_segments() {
        let c = content(7, 0);
        let mut p = Payload::new();
        p.push(bytes(c, 100));
        p.push(Segment::Described(c.at(100), 8000));
        p.push(bytes(c.at(8100), 50));
        let flat = c.generate(8150);
        assert_eq!(p, flat);
        assert!(p.is_content_of(c));
        for (lo, hi) in [(0, 8150), (0, 100), (50, 150), (100, 8100), (200, 300), (8099, 8101)] {
            assert_eq!(p.slice(lo, hi), flat[lo..hi], "{lo}..{hi}");
            assert_eq!(*p.bytes_at(lo, hi), flat[lo..hi], "{lo}..{hi}");
        }
        assert_eq!(p.described_at(200, 4296), Some(c.at(200)));
        assert_eq!(p.described_at(50, 150), None, "straddles a byte segment");
        assert!(matches!(p.bytes_at(10, 90), Cow::Borrowed(_)));
        assert!(matches!(p.bytes_at(200, 300), Cow::Owned(_)));
        assert_eq!(p.slice(100, 8100).segments().count(), 1);
    }

    #[test]
    fn content_check_reads_descriptors_by_their_fields() {
        let c = content(9, 4096);
        assert!(Payload::described(c, 4096).is_content_of(c));
        assert!(!Payload::described(c, 4096).is_content_of(content(9, 0)));
        assert!(!Payload::described(content(8, 4096), 4096).is_content_of(c));
        // A whole pattern period off is the same bytes, but not the same
        // descriptor.
        assert!(Payload::from(content(9, 251).generate(100)).is_content_of(content(9, 0)));
        assert!(!Payload::described(content(9, 251), 100).is_content_of(content(9, 0)));
        let mut flipped = c.generate(4096);
        flipped[17] ^= 1;
        let mut p = Payload::described(content(9, 0), 4096);
        p.push(Segment::Bytes(flipped.into()));
        assert!(!p.is_content_of(content(9, 0)));
    }
}
