//! The PVFS wire protocol, as exercised by the paper.
//!
//! libpvfs speaks three conversations over sockets:
//! * client ↔ mgr — metadata (create/open/stat); never cached (§3.2),
//! * client ↔ iod — striped reads and writes (request, ack, data),
//! * flusher ↔ iod — background write-back of dirty cache blocks to a
//!   *separate* listener port on the iod (§3.2, "server version of this
//!   flusher thread").
//!
//! All messages carry explicit byte ranges in *logical file* coordinates;
//! each iod owns a deterministic subset of any file's bytes (see
//! [`crate::striping`]) and maps them to its local store. The cache module
//! rewrites the range lists in flight — that is precisely the paper's
//! "discount these [cached blocks] in the request(s)" mechanism.

use bytes::Bytes;
use sim_net::{NodeId, Port};

/// Well-known ports.
pub const MGR_PORT: Port = Port(3000);
pub const IOD_PORT: Port = Port(7000);
/// The iod's separate flush listener socket.
pub const IOD_FLUSH_PORT: Port = Port(7001);
/// The per-node cache module's control port (invalidations arrive here).
pub const CACHE_PORT: Port = Port(7100);
/// Client processes get `CLIENT_PORT_BASE + k` reply ports.
pub const CLIENT_PORT_BASE: u16 = 9000;

/// Fixed per-message protocol header cost (request ids, fid, counts, TCP
/// framing the real implementation pays per send).
pub const MSG_HEADER_BYTES: u32 = 64;
/// Wire cost of one encoded byte range.
pub const RANGE_ENCODING_BYTES: u32 = 12;

/// PVFS file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fid(pub u64);

/// A contiguous byte range of a logical file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteRange {
    pub offset: u64,
    pub len: u32,
}

impl ByteRange {
    pub fn new(offset: u64, len: u32) -> ByteRange {
        ByteRange { offset, len }
    }

    pub fn end(&self) -> u64 {
        self.offset + self.len as u64
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Total bytes covered by a range list.
pub fn ranges_bytes(ranges: &[ByteRange]) -> u64 {
    ranges.iter().map(|r| r.len as u64).sum()
}

/// Wire size of a range list encoding.
pub fn ranges_encoding_bytes(ranges: &[ByteRange]) -> u32 {
    ranges.len() as u32 * RANGE_ENCODING_BYTES
}

// ---------------------------------------------------------------------------
// Metadata conversation (client <-> mgr)
// ---------------------------------------------------------------------------

/// Striping descriptor handed out by the mgr at open time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeSpec {
    /// Stripe unit in bytes (PVFS default 64 KB).
    pub unit: u32,
    /// Number of iods the file is striped across.
    pub n_iods: u32,
    /// Index of the iod holding stripe 0.
    pub base: u32,
}

#[derive(Debug, Clone)]
pub enum MgrRequest {
    /// Create a file with the given logical size (the micro-benchmark
    /// pre-sizes its files) striped per the mgr's policy.
    Create {
        name: String,
        size: u64,
    },
    Open {
        name: String,
    },
}

#[derive(Debug, Clone)]
pub struct FileHandle {
    pub fid: Fid,
    pub size: u64,
    pub stripe: StripeSpec,
}

#[derive(Debug, Clone)]
pub enum MgrReply {
    Ok { req_id: u64, handle: FileHandle },
    Err { req_id: u64, reason: String },
}

/// Envelope for mgr requests (carries the reply address).
#[derive(Debug, Clone)]
pub struct MgrCall {
    pub req_id: u64,
    pub reply_to: (NodeId, Port),
    pub req: MgrRequest,
}

// ---------------------------------------------------------------------------
// Data conversation (client <-> iod)
// ---------------------------------------------------------------------------

/// Read request to one iod: the listed logical ranges (all owned by that
/// iod under the file's striping).
#[derive(Debug, Clone)]
pub struct ReadReq {
    pub req_id: u64,
    pub fid: Fid,
    pub ranges: Vec<ByteRange>,
    pub reply_to: (NodeId, Port),
    /// Set when the sending node runs a cache module; the iod then tracks
    /// this node in the block directory for sync-write invalidations.
    pub caching: bool,
}

impl ReadReq {
    pub fn wire_bytes(&self) -> u32 {
        MSG_HEADER_BYTES + ranges_encoding_bytes(&self.ranges)
    }
}

/// The iod's acknowledgment that a read request was accepted. libpvfs
/// blocks on this before collecting data messages; the cache module fakes
/// it locally for fully-cached requests.
#[derive(Debug, Clone, Copy)]
pub struct ReadAck {
    pub req_id: u64,
    /// Bytes the iod will send for this request.
    pub bytes: u64,
}

impl ReadAck {
    pub fn wire_bytes(&self) -> u32 {
        MSG_HEADER_BYTES
    }
}

/// One data message, covering a contiguous logical range.
#[derive(Debug, Clone)]
pub struct ReadData {
    pub req_id: u64,
    pub fid: Fid,
    pub range: ByteRange,
    pub data: Bytes,
}

impl ReadData {
    pub fn wire_bytes(&self) -> u32 {
        MSG_HEADER_BYTES + self.range.len
    }
}

/// One contiguous piece of a write (range + its bytes).
#[derive(Debug, Clone)]
pub struct WritePart {
    pub range: ByteRange,
    pub data: Bytes,
}

/// Write request to one iod. Like reads, writes are aggregated: one request
/// carries every piece of the application write owned by this iod (data
/// travels with the request).
#[derive(Debug, Clone)]
pub struct WriteReq {
    pub req_id: u64,
    pub fid: Fid,
    pub parts: Vec<WritePart>,
    pub reply_to: (NodeId, Port),
    pub caching: bool,
    /// Sync-writes propagate through to the iod and trigger invalidation of
    /// every other node's cached copies (§3.2 coherence).
    pub sync: bool,
}

impl WriteReq {
    pub fn total_bytes(&self) -> u64 {
        self.parts.iter().map(|p| p.range.len as u64).sum()
    }

    pub fn wire_bytes(&self) -> u32 {
        MSG_HEADER_BYTES
            + self.parts.iter().map(|p| RANGE_ENCODING_BYTES + p.range.len).sum::<u32>()
    }
}

/// Write completion from the iod.
#[derive(Debug, Clone, Copy)]
pub struct WriteAck {
    pub req_id: u64,
    pub bytes: u64,
}

impl WriteAck {
    pub fn wire_bytes(&self) -> u32 {
        MSG_HEADER_BYTES
    }
}

// ---------------------------------------------------------------------------
// Flush conversation (cache-module flusher <-> iod flush listener)
// ---------------------------------------------------------------------------

/// One dirty span pushed by a flusher: `data` lands at
/// `blk * 4096 + offset`. Sub-block spans matter: flushing a whole block
/// around a 1 KB write would clobber bytes the client never wrote.
#[derive(Debug, Clone)]
pub struct FlushEntry {
    pub blk: u64,
    pub offset: u32,
    pub data: Bytes,
}

/// A batch of dirty block spans pushed by a node's flusher thread.
#[derive(Debug, Clone)]
pub struct FlushBlocks {
    pub req_id: u64,
    pub fid: Fid,
    pub blocks: Vec<FlushEntry>,
    pub reply_to: (NodeId, Port),
}

impl FlushBlocks {
    pub fn total_bytes(&self) -> u64 {
        self.blocks.iter().map(|e| e.data.len() as u64).sum()
    }

    pub fn wire_bytes(&self) -> u32 {
        MSG_HEADER_BYTES + self.blocks.iter().map(|e| 12 + e.data.len() as u32).sum::<u32>()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct FlushAck {
    pub req_id: u64,
}

impl FlushAck {
    pub fn wire_bytes(&self) -> u32 {
        MSG_HEADER_BYTES
    }
}

// ---------------------------------------------------------------------------
// Coherence conversation (iod <-> cache modules)
// ---------------------------------------------------------------------------

/// Invalidate cached copies of the listed logical blocks (sent by an iod
/// while processing a sync-write).
#[derive(Debug, Clone)]
pub struct Invalidate {
    pub req_id: u64,
    pub fid: Fid,
    pub blocks: Vec<u64>,
    pub reply_to: (NodeId, Port),
}

impl Invalidate {
    pub fn wire_bytes(&self) -> u32 {
        MSG_HEADER_BYTES + self.blocks.len() as u32 * 8
    }
}

#[derive(Debug, Clone, Copy)]
pub struct InvalidateAck {
    pub req_id: u64,
}

impl InvalidateAck {
    pub fn wire_bytes(&self) -> u32 {
        MSG_HEADER_BYTES
    }
}

// ---------------------------------------------------------------------------
// Deterministic file content
// ---------------------------------------------------------------------------

/// The byte every file holds at every offset, by construction. Workload
/// setup preloads files with this pattern and clients can verify every byte
/// that travels through cache, network and disk.
#[inline]
pub fn pattern_byte(fid: Fid, offset: u64) -> u8 {
    (fid.0.wrapping_mul(151).wrapping_add(offset) % 251) as u8
}

/// The pattern repeats every `PATTERN_PERIOD` offsets.
const PATTERN_PERIOD: usize = 251;

/// Two periods of `i % 251`: any run of up to one period of pattern bytes
/// is the window `[phase, phase + n)` of this table.
static PATTERN_TABLE: [u8; 2 * PATTERN_PERIOD] = {
    let mut t = [0u8; 2 * PATTERN_PERIOD];
    let mut i = 0;
    while i < t.len() {
        t[i] = (i % PATTERN_PERIOD) as u8;
        i += 1;
    }
    t
};

/// The pattern of `fid` over `len` bytes from `offset`, as consecutive
/// windows of [`PATTERN_TABLE`] of at most one period each. Byte for byte
/// [`pattern_byte`] at `offset`, `offset + 1`, ... (wrapping): a window never
/// spans the u64 wrap of `fid * 151 + offset`, where the phase jumps.
fn pattern_windows(fid: Fid, offset: u64, len: usize) -> impl Iterator<Item = &'static [u8]> {
    let mut pos = fid.0.wrapping_mul(151).wrapping_add(offset);
    let mut left = len;
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let before_wrap = (u64::MAX - pos).saturating_add(1);
        let n = (left.min(PATTERN_PERIOD) as u64).min(before_wrap) as usize;
        let phase = (pos % PATTERN_PERIOD as u64) as usize;
        pos = pos.wrapping_add(n as u64);
        left -= n;
        Some(&PATTERN_TABLE[phase..phase + n])
    })
}

/// Materialize `len` pattern bytes of `fid` starting at `offset`.
pub fn pattern_bytes(fid: Fid, offset: u64, len: usize) -> Bytes {
    let mut v = Vec::with_capacity(len);
    for w in pattern_windows(fid, offset, len) {
        v.extend_from_slice(w);
    }
    Bytes::from(v)
}

/// Write the pattern of `fid` from `offset` into `out`: what
/// [`pattern_bytes`] materializes, into a caller's buffer.
pub fn pattern_fill(fid: Fid, offset: u64, out: &mut [u8]) {
    let mut rest = out;
    for w in pattern_windows(fid, offset, rest.len()) {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(w.len());
        head.copy_from_slice(w);
        rest = tail;
    }
}

/// Whether `data` is exactly the pattern of `fid` from `offset` — every
/// byte compared, nothing materialized.
pub fn pattern_matches(fid: Fid, offset: u64, data: &[u8]) -> bool {
    let mut rest = data;
    pattern_windows(fid, offset, data.len()).all(|w| {
        let (head, tail) = rest.split_at(w.len());
        rest = tail;
        head == w
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_range_accessors() {
        let r = ByteRange::new(100, 50);
        assert_eq!(r.end(), 150);
        assert!(!r.is_empty());
        assert!(ByteRange::new(0, 0).is_empty());
    }

    #[test]
    fn range_list_sizes() {
        let rs = vec![ByteRange::new(0, 10), ByteRange::new(20, 30)];
        assert_eq!(ranges_bytes(&rs), 40);
        assert_eq!(ranges_encoding_bytes(&rs), 24);
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let rr = ReadReq {
            req_id: 1,
            fid: Fid(1),
            ranges: vec![ByteRange::new(0, 4096)],
            reply_to: (NodeId(0), Port(9000)),
            caching: false,
        };
        assert_eq!(rr.wire_bytes(), 64 + 12);
        let rd = ReadData {
            req_id: 1,
            fid: Fid(1),
            range: ByteRange::new(0, 4096),
            data: Bytes::from(vec![0u8; 4096]),
        };
        assert_eq!(rd.wire_bytes(), 64 + 4096);
        let wr = WriteReq {
            req_id: 1,
            fid: Fid(1),
            parts: vec![
                WritePart { range: ByteRange::new(0, 100), data: Bytes::from(vec![0u8; 100]) },
                WritePart { range: ByteRange::new(500, 20), data: Bytes::from(vec![0u8; 20]) },
            ],
            reply_to: (NodeId(0), Port(9000)),
            caching: false,
            sync: false,
        };
        assert_eq!(wr.wire_bytes(), 64 + 12 + 100 + 12 + 20);
        assert_eq!(wr.total_bytes(), 120);
        let fl = FlushBlocks {
            req_id: 1,
            fid: Fid(1),
            blocks: vec![
                FlushEntry { blk: 0, offset: 0, data: Bytes::from(vec![0u8; 4096]) },
                FlushEntry { blk: 7, offset: 100, data: Bytes::from(vec![1u8; 500]) },
            ],
            reply_to: (NodeId(0), Port(7100)),
        };
        assert_eq!(fl.wire_bytes(), 64 + (12 + 4096) + (12 + 500));
        assert_eq!(fl.total_bytes(), 4596);
        let inv = Invalidate {
            req_id: 1,
            fid: Fid(1),
            blocks: vec![1, 2, 3],
            reply_to: (NodeId(1), Port(7000)),
        };
        assert_eq!(inv.wire_bytes(), 64 + 24);
    }

    fn scalar_pattern(fid: Fid, offset: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| pattern_byte(fid, offset.wrapping_add(i))).collect()
    }

    #[test]
    fn pattern_bytes_equals_scalar_definition_at_window_edges() {
        let lens = [0usize, 1, 2, 250, 251, 252, 501, 502, 503, 4096, 65536];
        let offsets = [0u64, 1, 100, 250, 251, 252, 4095, (1 << 40) + 17];
        for fid in [Fid(0), Fid(1), Fid(7), Fid(u64::MAX)] {
            for offset in offsets {
                for len in lens {
                    let want = scalar_pattern(fid, offset, len);
                    assert_eq!(pattern_bytes(fid, offset, len), want, "{fid:?} {offset}+{len}");
                    let mut filled = vec![0u8; len];
                    pattern_fill(fid, offset, &mut filled);
                    assert_eq!(filled, want, "{fid:?} {offset}+{len}");
                    assert!(pattern_matches(fid, offset, &want), "{fid:?} {offset}+{len}");
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
                    let offset = base.wrapping_sub(back);
                    let want = scalar_pattern(fid, offset, 1000);
                    assert_eq!(pattern_bytes(fid, offset, 1000), want, "{fid:?} {offset}");
                    assert!(pattern_matches(fid, offset, &want), "{fid:?} {offset}");
                }
            }
        }
    }

    #[test]
    fn pattern_matches_rejects_any_single_flipped_byte() {
        let (fid, offset) = (Fid(9), 12_345u64);
        // Every position of a buffer spanning three windows ...
        let mut data = pattern_bytes(fid, offset, 700).to_vec();
        for i in 0..data.len() {
            data[i] ^= 1;
            assert!(!pattern_matches(fid, offset, &data), "flip at {i} went unnoticed");
            data[i] ^= 1;
        }
        assert!(pattern_matches(fid, offset, &data));
        // ... and first, last and both sides of every window edge of a
        // request-sized one.
        let mut data = pattern_bytes(fid, offset, 65536).to_vec();
        let edges =
            (1..=65536 / PATTERN_PERIOD).flat_map(|k| [k * PATTERN_PERIOD - 1, k * PATTERN_PERIOD]);
        for i in [0, 65535].into_iter().chain(edges) {
            data[i] = data[i].wrapping_add(1);
            assert!(!pattern_matches(fid, offset, &data), "flip at {i} went unnoticed");
            data[i] = data[i].wrapping_sub(1);
        }
    }

    #[test]
    fn pattern_matches_rejects_shifted_offset_and_other_file() {
        let data = pattern_bytes(Fid(9), 5000, 4096);
        assert!(pattern_matches(Fid(9), 5000, &data));
        assert!(!pattern_matches(Fid(9), 5001, &data));
        assert!(!pattern_matches(Fid(9), 4999, &data));
        assert!(!pattern_matches(Fid(10), 5000, &data));
        // One whole period off is the same bytes: the pattern's blind spot,
        // unchanged from the scalar definition.
        assert!(pattern_matches(Fid(9), 5000 + PATTERN_PERIOD as u64, &data));
        assert!(pattern_matches(Fid(9), 0, &[]));
    }
}
