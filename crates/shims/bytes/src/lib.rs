//! Offline shim for the `bytes` crate.
//!
//! Provides [`Bytes`]: an immutable, reference-counted byte buffer that
//! clones in O(1). Backed by `Arc<Vec<u8>>` plus a (start, len) window so
//! `slice` is also O(1), matching the real crate's semantics for the
//! operations this workspace uses (construction from `Vec<u8>`/slices,
//! deref to `[u8]`, cheap clone, sub-slicing).
//!
//! Like the real crate, `From<Vec<u8>>` and `From<Box<[u8]>>` **take
//! ownership** of the allocation: no byte is copied (`Arc<[u8]>::from(Vec)`
//! would copy them all, which is why the backing is an `Arc<Vec<u8>>`).

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) sub-slice sharing the same backing allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(lo <= hi && hi <= self.len, "slice {lo}..{hi} out of bounds for {}", self.len);
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, len: hi - lo }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.start + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes over `v`'s allocation; no byte is copied.
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { start: 0, len: v.len(), data: Arc::new(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<Box<[u8]>> for Bytes {
    /// Takes over `v`'s allocation; no byte is copied.
    fn from(v: Box<[u8]>) -> Bytes {
        Bytes::from(v.into_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_slice() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        assert_eq!(&b[..], &[1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(..2);
        assert_eq!(&s2[..], &[2, 3]);
        let c = s2.clone();
        assert_eq!(c, s2);
    }

    #[test]
    fn from_owned_buffers_keeps_the_allocation() {
        let v = vec![7u8; 4096];
        let p = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), p, "From<Vec<u8>> must not copy");
        assert_eq!(b.clone().as_ptr(), p);
        assert_eq!(b.slice(100..200).as_ptr(), p.wrapping_add(100));
        let boxed: Box<[u8]> = vec![9u8; 64].into_boxed_slice();
        let p = boxed.as_ptr();
        assert_eq!(Bytes::from(boxed).as_ptr(), p, "From<Box<[u8]>> must not copy");
    }

    #[test]
    fn nested_slices_window_the_original() {
        let b = Bytes::from((0u8..100).collect::<Vec<u8>>());
        let s = b.slice(10..90);
        let s2 = s.slice(5..=14);
        assert_eq!(&s2[..], &(15u8..25).collect::<Vec<u8>>()[..]);
        let s3 = s2.slice(3..);
        assert_eq!(&s3[..], &(18u8..25).collect::<Vec<u8>>()[..]);
        assert_eq!(s3.slice(..0).len(), 0);
        assert_eq!(s3.to_vec(), (18u8..25).collect::<Vec<u8>>());
        // The parent is untouched by its children.
        assert_eq!(b.len(), 100);
        assert_eq!(b[99], 99);
    }

    #[test]
    fn empty() {
        let b = Bytes::new();
        assert!(b.is_empty());
        assert_eq!(&b[..], &[] as &[u8]);
    }
}
