//! # pvfs — the parallel file system substrate
//!
//! A faithful model of the PVFS deployment the paper builds on:
//!
//! * [`mgr`] — the single metadata server (namespace, fids, striping).
//! * [`iod`] — the per-node data server: local file system + OS page
//!   cache + disk, a separate flush listener for cache-module
//!   write-back, and the per-block [`directory`] of caching nodes that
//!   sync-writes invalidate.
//! * [`client`] — libpvfs: the in-process client library (striping,
//!   per-iod request aggregation, the request/ack/data protocol), which
//!   addresses an opaque socket layer so a cache module can interpose
//!   transparently.
//! * [`protocol`] / [`payload`] / [`striping`] / [`config`] — wire
//!   messages and the segments their data travels as (the file's own
//!   bytes as a descriptor, anything else as bytes), stripe arithmetic,
//!   and the calibrated cost model.
//!
//! Files hold deterministic pattern bytes, named by one descriptor,
//! [`Content`] (defined in `sim_disk::content`, re-exported here with
//! [`Fid`]), so every byte that moves through cache, network, page cache
//! and disk can be verified end to end.

pub mod client;
pub mod config;
pub mod directory;
pub mod iod;
pub mod mgr;
pub mod payload;
pub mod protocol;
pub mod striping;

pub use client::{ClientConfig, ClientStats, Completion, PvfsClient};
pub use config::{CostModel, PvfsConfig};
pub use directory::Directory;
pub use iod::{Iod, IodStats};
pub use mgr::{Mgr, MgrStats, StripePolicy};
pub use payload::{Payload, Segment};
pub use protocol::{
    ByteRange, Fid, FileHandle, FlushAck, FlushBlocks, FlushEntry, Invalidate, InvalidateAck,
    MgrCall, MgrReply, MgrRequest, ReadAck, ReadData, ReadReq, StripeSpec, WriteAck, WritePart,
    WriteReq, CACHE_PORT, CLIENT_PORT_BASE, IOD_FLUSH_PORT, IOD_PORT, MGR_PORT, MSG_HEADER_BYTES,
};
pub use sim_disk::Content;
pub use striping::{split_ranges, tiles_exactly};
