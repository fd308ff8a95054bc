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

use crate::payload::Payload;
use bytes::Bytes;
pub use sim_disk::Fid;
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
    /// `range.len` bytes, described where they are the file's own.
    pub data: Payload,
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
    /// `range.len` bytes, described where they are the file's own.
    pub data: Payload,
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

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::Content;

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
            data: Payload::described(Content::new(Fid(1), 0), 4096),
        };
        assert_eq!(rd.wire_bytes(), 64 + 4096);
        let wr = WriteReq {
            req_id: 1,
            fid: Fid(1),
            parts: vec![
                WritePart { range: ByteRange::new(0, 100), data: vec![0u8; 100].into() },
                WritePart {
                    range: ByteRange::new(500, 20),
                    data: Payload::described(Content::new(Fid(1), 500), 20),
                },
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
}
