//! # sim-disk — storage substrate
//!
//! Everything below the iod daemon in the paper's stack:
//!
//! * [`geometry`] — mechanical disk timing (seek curve, rotation, media
//!   rate), preset to a Maxtor-class 20 GB IDE drive like the platform's.
//! * [`disk`] — the disk actor: request queue with FIFO or C-LOOK elevator
//!   scheduling, one request in service at a time.
//! * [`pagecache`] — the iod node's OS page cache (exact LRU, write-back),
//!   which keeps the paper's no-caching baseline honest.
//! * [`fs`] — a small sparse block file system whose blocks hold stored
//!   bytes or a content descriptor, reporting physical extents for timing.
//! * [`content`] — the deterministic file content and its one descriptor,
//!   [`Content`]: the only code that generates or compares the file's own
//!   bytes, for every layer above.

pub mod content;
pub mod disk;
pub mod fs;
pub mod geometry;
pub mod pagecache;

pub use content::{Content, Fid};
pub use disk::{Disk, DiskOp, DiskReply, DiskRequest, DiskSched, DiskStats};
pub use fs::{coalesce, BlockFs, Extent, FsError, Ino, IoExtents};
pub use geometry::{DiskGeometry, BLOCK_SIZE};
pub use pagecache::{Eviction, Lookup, PageCache, PageCacheStats};
