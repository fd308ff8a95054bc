//! The PVFS data server daemon (`iod`).
//!
//! One per storage node. Serves striped reads/writes from its local file
//! system through the node's OS page cache and disk, listens on a separate
//! port for cache-module flushes (the paper's server-side flusher), and —
//! for the coherence extension — keeps a **per-block [`Directory`]** of
//! which client nodes cache each block, so a sync-write can invalidate them
//! (§3.2: "requires a directory entry per block (at the IOD)").

use crate::config::{CostModel, PvfsConfig};
use crate::directory::Directory;
use crate::payload::{Payload, Segment};
use crate::protocol::{
    ByteRange, Fid, FlushAck, FlushBlocks, Invalidate, InvalidateAck, ReadAck, ReadData, ReadReq,
    WriteAck, WriteReq, CACHE_PORT, IOD_FLUSH_PORT, IOD_PORT,
};
use sim_core::{resource, Actor, ActorId, Ctx, Dur, Msg, SharedResource, SimTime};
use sim_disk::{
    coalesce, BlockFs, Content, DiskOp, DiskReply, DiskRequest, Extent, Ino, Lookup, PageCache,
    BLOCK_SIZE,
};
use sim_net::{Deliver, NetMessage, NodeId, Port, Xmit};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};

/// iod statistics.
#[derive(Debug, Default, Clone)]
pub struct IodStats {
    pub read_reqs: u64,
    pub write_reqs: u64,
    pub flush_reqs: u64,
    pub sync_writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub invalidations_sent: u64,
    pub directory_entries: u64,
}

impl IodStats {
    /// Field-wise sum across iods, kept next to the struct so a new counter
    /// cannot be left out of a run's total.
    pub fn merge(&mut self, other: &IodStats) {
        let IodStats {
            read_reqs,
            write_reqs,
            flush_reqs,
            sync_writes,
            bytes_read,
            bytes_written,
            disk_reads,
            disk_writes,
            invalidations_sent,
            directory_entries,
        } = *other;
        self.read_reqs += read_reqs;
        self.write_reqs += write_reqs;
        self.flush_reqs += flush_reqs;
        self.sync_writes += sync_writes;
        self.bytes_read += bytes_read;
        self.bytes_written += bytes_written;
        self.disk_reads += disk_reads;
        self.disk_writes += disk_writes;
        self.invalidations_sent += invalidations_sent;
        self.directory_entries += directory_entries;
    }
}

struct PendingRead {
    req: ReadReq,
    disk_remaining: usize,
}

struct PendingSync {
    req_id: u64,
    reply_to: (NodeId, Port),
    acks_remaining: usize,
    bytes: u64,
}

/// Periodic dirty-page write-back tick (Linux kupdate analogue).
struct KupdateTick;

/// kupdate's dirty write-back period.
const KUPDATE_INTERVAL: Dur = Dur::secs(5);
/// Most dirty pages written back per kupdate tick.
const KUPDATE_BATCH: usize = 2048;

/// The data server actor.
pub struct Iod {
    node: NodeId,
    fabric: ActorId,
    disk: ActorId,
    cpu: SharedResource,
    costs: CostModel,
    fs: BlockFs,
    /// Looked up on every read and write: an ordered map of a few fids,
    /// with no SipHash per lookup.
    files: BTreeMap<Fid, Ino>,
    pcache: PageCache,
    directory: Directory,
    pending_reads: HashMap<u64, PendingRead>,
    /// Platter read in flight, by disk token → the pending reads waiting
    /// for it, in arrival order. The pages it fills carry the token in the
    /// page cache, so a read that finds one waits for it too.
    token_waiters: HashMap<u64, Vec<u64>>,
    pending_syncs: HashMap<u64, PendingSync>,
    next_pending: u64,
    next_token: u64,
    next_inv_req: u64,
    /// Messages sent so far.
    tag: u64,
    stats: IodStats,
    started: bool,
}

impl Iod {
    pub fn new(
        node: NodeId,
        fabric: ActorId,
        disk: ActorId,
        cpu: SharedResource,
        costs: CostModel,
        cfg: PvfsConfig,
        fs_capacity_blocks: u64,
    ) -> Iod {
        Iod {
            node,
            fabric,
            disk,
            cpu,
            costs,
            fs: BlockFs::new(fs_capacity_blocks),
            files: BTreeMap::new(),
            pcache: PageCache::new(cfg.iod_page_cache_pages),
            directory: Directory::default(),
            pending_reads: HashMap::new(),
            token_waiters: HashMap::new(),
            pending_syncs: HashMap::new(),
            next_pending: 1,
            next_token: 1,
            next_inv_req: 1,
            tag: 0,
            stats: IodStats::default(),
            started: false,
        }
    }

    pub fn stats(&self) -> &IodStats {
        &self.stats
    }

    pub fn page_cache(&self) -> &PageCache {
        &self.pcache
    }

    /// Local fs blocks held as bytes: those written with other bytes than
    /// the pattern (preloaded blocks are descriptors).
    pub fn stored_blocks(&self) -> usize {
        self.fs.stored_blocks()
    }

    /// Nodes registered for a block in the directory, ascending.
    pub fn directory_sharers(&self, fid: Fid, block: u64) -> Vec<NodeId> {
        self.directory.sharers(fid, block)
    }

    /// First physical block backing a fid's local file, if any (test probe).
    pub fn fs_extent_probe(&self, fid: Fid) -> Option<u64> {
        let ino = *self.files.get(&fid)?;
        self.fs.extents_of(ino, 0, BLOCK_SIZE).ok().and_then(|e| e.first().map(|x| x.pblk))
    }

    /// Whether `range` of `fid`'s local file reads back as the file's own
    /// content (test probe).
    pub fn holds_content(&self, fid: Fid, range: ByteRange) -> bool {
        let Some(&ino) = self.files.get(&fid) else { return false };
        let mut out = Vec::new();
        self.fs.read_append(ino, range.offset, range.len as usize, &mut out).is_ok()
            && out.len() == range.len as usize
            && Content::new(fid, range.offset).matches(&out)
    }

    /// Pre-populate this iod's share of a file with deterministic pattern
    /// bytes, outside simulated time (experiment setup). The fs keeps each
    /// fully covered block as a descriptor and generates its bytes when
    /// read, so preloaded data costs no 4 KB buffers. With `warm` the
    /// pages are also brought into the server page cache, modelling a file
    /// written recently enough to still be memory-resident — the state the
    /// paper's measurements run against.
    pub fn preload(&mut self, fid: Fid, ranges: &[ByteRange], warm: bool) {
        let ino = self.file_for(fid);
        for r in ranges {
            let out = self
                .fs
                .write_described(ino, Content::new(fid, r.offset), r.len as usize)
                .expect("preload write failed");
            if warm {
                for e in &out.extents {
                    for p in e.pblk..e.pblk + e.blocks as u64 {
                        self.pcache.insert(p, false);
                    }
                }
            }
        }
    }

    fn file_for(&mut self, fid: Fid) -> Ino {
        match self.files.get(&fid) {
            Some(&ino) => ino,
            None => {
                let ino =
                    self.fs.open_or_create(&format!("fid{}", fid.0)).expect("iod namespace full");
                self.files.insert(fid, ino);
                ino
            }
        }
    }

    fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        at: SimTime,
        src_port: Port,
        dst: (NodeId, Port),
        wire: u32,
        payload: impl Any,
    ) {
        self.tag += 1;
        let m = NetMessage::new((self.node, src_port), dst, wire, self.tag, payload);
        ctx.schedule_in(at.since(ctx.now()), self.fabric, Xmit(m));
    }

    fn register_reader(&mut self, fid: Fid, blocks: impl IntoIterator<Item = u64>, node: NodeId) {
        self.stats.directory_entries += self.directory.register(fid, blocks, node);
    }

    fn blocks_of(range: &ByteRange) -> impl Iterator<Item = u64> {
        let first = range.offset / BLOCK_SIZE as u64;
        let last = (range.end().saturating_sub(1)) / BLOCK_SIZE as u64;
        first..=last
    }

    /// Bring every page backing `range` into the page cache; returns the
    /// physical extents that must be read from disk, and handles dirty
    /// evictions by issuing background disk writes. A page found in the
    /// page cache whose platter read is still in flight adds that read's
    /// token to `fills`.
    fn stage_range(
        &mut self,
        ctx: &mut Ctx<'_>,
        ino: Ino,
        range: &ByteRange,
        fills: &mut Vec<u64>,
    ) -> Vec<Extent> {
        let mut miss_pblks: Vec<u64> = Vec::new();
        let exts = self.fs.extents_of(ino, range.offset, range.len as usize).unwrap_or_default();
        for e in exts {
            for p in e.pblk..e.pblk + e.blocks as u64 {
                match self.pcache.lookup(p) {
                    Lookup::Ready => {}
                    Lookup::Filling(token) => fills.push(token),
                    Lookup::Miss => {
                        miss_pblks.push(p);
                        if let Some(ev) = self.pcache.insert(p, false) {
                            if ev.dirty {
                                self.issue_disk(ctx, DiskOp::Write, ev.pblk, 1, 0);
                            }
                        }
                    }
                }
            }
        }
        // Coalesce into contiguous disk requests.
        coalesce(miss_pblks)
    }

    fn issue_disk(&mut self, ctx: &mut Ctx<'_>, op: DiskOp, pblk: u64, blocks: u32, token: u64) {
        match op {
            DiskOp::Read => self.stats.disk_reads += 1,
            DiskOp::Write => self.stats.disk_writes += 1,
        }
        ctx.schedule_in(
            Dur::ZERO,
            self.disk,
            DiskRequest { op, pblk, blocks, reply_to: ctx.self_id(), token },
        );
    }

    fn handle_read(&mut self, ctx: &mut Ctx<'_>, req: ReadReq) {
        self.stats.read_reqs += 1;
        let now = ctx.now();
        let total: u64 = req.ranges.iter().map(|r| r.len as u64).sum();
        let t1 = resource::reserve(
            &self.cpu,
            now,
            self.costs.recv_overhead + self.costs.iod_request_overhead + self.costs.send_overhead,
        );
        // Acknowledge acceptance (libpvfs blocks on this).
        self.send(
            ctx,
            t1,
            IOD_PORT,
            req.reply_to,
            ReadAck { req_id: req.req_id, bytes: total }.wire_bytes(),
            ReadAck { req_id: req.req_id, bytes: total },
        );
        if req.caching {
            self.register_reader(
                req.fid,
                req.ranges.iter().flat_map(Self::blocks_of),
                req.reply_to.0,
            );
        }
        let ino = self.file_for(req.fid);
        self.read_from_store(ctx, ino, req);
    }

    /// Serve `req`'s ranges from the local store: stage the pages, read
    /// the page-cache misses from disk, and send the data once all are in
    /// — including pages another read is still bringing in.
    fn read_from_store(&mut self, ctx: &mut Ctx<'_>, ino: Ino, req: ReadReq) {
        self.stats.bytes_read += req.ranges.iter().map(|r| r.len as u64).sum::<u64>();
        // Stage pages; issue disk reads for the misses.
        let mut waits: Vec<u64> = Vec::new();
        for r in &req.ranges {
            for Extent { pblk, blocks } in self.stage_range(ctx, ino, r, &mut waits) {
                let token = self.next_token;
                self.next_token += 1;
                for p in pblk..pblk + blocks as u64 {
                    self.pcache.start_fill(p, token);
                }
                self.issue_disk(ctx, DiskOp::Read, pblk, blocks, token);
                waits.push(token);
            }
        }
        if waits.is_empty() {
            return self.finish_read(ctx, req);
        }
        waits.sort_unstable();
        waits.dedup();
        let pending_id = self.next_pending;
        self.next_pending += 1;
        for &token in &waits {
            self.token_waiters.entry(token).or_default().push(pending_id);
        }
        self.pending_reads.insert(pending_id, PendingRead { req, disk_remaining: waits.len() });
    }

    fn finish_read(&mut self, ctx: &mut Ctx<'_>, req: ReadReq) {
        let now = ctx.now();
        let ino = self.file_for(req.fid);
        // Copy cost: per 4 KB block moved from page cache to the socket,
        // plus one send per data message.
        let total_blocks: u64 = req.ranges.iter().map(|r| Self::blocks_of(r).count() as u64).sum();
        let cpu = self.costs.iod_copy_per_block * total_blocks
            + self.costs.send_overhead * req.ranges.len().max(1) as u64;
        let t = resource::reserve(&self.cpu, now, cpu);
        for r in &req.ranges {
            // A range whose every block is a descriptor of this file at
            // its own offset goes out as that descriptor; any other is
            // read out as bytes.
            let own = Content::new(req.fid, r.offset);
            let data = if self.fs.is_described(ino, own, r.len as usize) {
                Payload::described(own, r.len)
            } else {
                let mut buf = Vec::with_capacity(r.len as usize);
                self.fs
                    .read_append(ino, r.offset, r.len as usize, &mut buf)
                    .expect("file_for returned a live inode");
                // Bytes past EOF are zero: the logical file is pre-sized by
                // the mgr, unwritten regions read as holes.
                buf.resize(r.len as usize, 0);
                Payload::from(buf)
            };
            let rd = ReadData { req_id: req.req_id, fid: req.fid, range: *r, data };
            let wire = rd.wire_bytes();
            self.send(ctx, t, IOD_PORT, req.reply_to, wire, rd);
        }
    }

    /// Store `data` at `range`: a segment describing this file at its own
    /// offset as descriptors (no byte generated or compared), any other as
    /// its bytes. Every page it touches is dirtied in the page cache.
    fn apply_write(&mut self, ctx: &mut Ctx<'_>, fid: Fid, range: &ByteRange, data: &Payload) {
        let ino = self.file_for(fid);
        debug_assert_eq!(data.len(), range.len as usize);
        let mut pblks: Vec<u64> = Vec::new();
        let mut pos = range.offset;
        for seg in data.segments() {
            let out = match *seg {
                Segment::Described(c, len) if c == Content::new(fid, pos) => {
                    self.fs.write_described(ino, c, len as usize)
                }
                _ => self.fs.write(ino, pos, &seg.bytes()),
            }
            .expect("iod disk full");
            pblks.extend(out.extents.iter().flat_map(|e| e.pblk..e.pblk + e.blocks as u64));
            pos += seg.len() as u64;
        }
        // Sorted and once each, as one write of the whole range touches them.
        pblks.sort_unstable();
        pblks.dedup();
        for p in pblks {
            if let Some(ev) = self.pcache.insert(p, true) {
                if ev.dirty {
                    self.issue_disk(ctx, DiskOp::Write, ev.pblk, 1, 0);
                }
            }
        }
    }

    fn handle_write(&mut self, ctx: &mut Ctx<'_>, req: WriteReq) {
        self.stats.write_reqs += 1;
        let now = ctx.now();
        let total = req.total_bytes();
        let blocks: u64 = req.parts.iter().map(|p| Self::blocks_of(&p.range).count() as u64).sum();
        self.stats.bytes_written += total;
        let cpu = self.costs.recv_overhead
            + self.costs.iod_request_overhead
            + self.costs.iod_copy_per_block * blocks
            + self.costs.send_overhead;
        let t = resource::reserve(&self.cpu, now, cpu);
        for part in &req.parts {
            self.apply_write(ctx, req.fid, &part.range, &part.data);
        }
        if req.caching {
            let blocks = req.parts.iter().flat_map(|p| Self::blocks_of(&p.range));
            self.register_reader(req.fid, blocks, req.reply_to.0);
        }
        if req.sync {
            self.stats.sync_writes += 1;
            self.start_invalidation(ctx, t, req);
        } else {
            let ack = WriteAck { req_id: req.req_id, bytes: total };
            self.send(ctx, t, IOD_PORT, req.reply_to, ack.wire_bytes(), ack);
        }
    }

    /// Sync-write coherence: invalidate every *other* node caching one of
    /// the written blocks, ack the writer once all invalidations complete.
    fn start_invalidation(&mut self, ctx: &mut Ctx<'_>, t: SimTime, req: WriteReq) {
        let writer = req.reply_to.0;
        // Ordered: iteration order is invalidation send order.
        let mut per_node: BTreeMap<NodeId, Vec<u64>> = BTreeMap::new();
        for b in req.parts.iter().flat_map(|p| Self::blocks_of(&p.range)) {
            for n in self.directory.take_others(req.fid, b, writer) {
                per_node.entry(n).or_default().push(b);
            }
        }
        if per_node.is_empty() {
            let ack = WriteAck { req_id: req.req_id, bytes: req.total_bytes() };
            self.send(ctx, t, IOD_PORT, req.reply_to, ack.wire_bytes(), ack);
            return;
        }
        let inv_req = self.next_inv_req;
        self.next_inv_req += 1;
        self.pending_syncs.insert(
            inv_req,
            PendingSync {
                req_id: req.req_id,
                reply_to: req.reply_to,
                acks_remaining: per_node.len(),
                bytes: req.total_bytes(),
            },
        );
        for (node, blocks) in per_node {
            self.stats.invalidations_sent += 1;
            let inv = Invalidate {
                req_id: inv_req,
                fid: req.fid,
                blocks,
                reply_to: (self.node, IOD_PORT),
            };
            let wire = inv.wire_bytes();
            let t_send = resource::reserve(&self.cpu, t, self.costs.send_overhead);
            self.send(ctx, t_send, IOD_PORT, (node, CACHE_PORT), wire, inv);
        }
    }

    fn handle_flush(&mut self, ctx: &mut Ctx<'_>, f: FlushBlocks) {
        self.stats.flush_reqs += 1;
        let now = ctx.now();
        let nblocks = f.blocks.len() as u64;
        self.stats.bytes_written += f.total_bytes();
        let cpu = self.costs.recv_overhead
            + self.costs.iod_request_overhead
            + self.costs.iod_copy_per_block * nblocks
            + self.costs.send_overhead;
        let t = resource::reserve(&self.cpu, now, cpu);
        for e in &f.blocks {
            let range =
                ByteRange::new(e.blk * BLOCK_SIZE as u64 + e.offset as u64, e.data.len() as u32);
            self.apply_write(ctx, f.fid, &range, &Payload::from(e.data.clone()));
        }
        // The flushing node keeps the blocks cached (now clean): track it.
        self.register_reader(f.fid, f.blocks.iter().map(|e| e.blk), f.reply_to.0);
        let ack = FlushAck { req_id: f.req_id };
        self.send(ctx, t, IOD_FLUSH_PORT, f.reply_to, ack.wire_bytes(), ack);
    }

    fn handle_disk_reply(&mut self, ctx: &mut Ctx<'_>, r: DiskReply) {
        if r.token == 0 {
            return; // background write-back completion
        }
        let Some(waiters) = self.token_waiters.remove(&r.token) else {
            return;
        };
        for p in r.pblk..r.pblk + r.blocks as u64 {
            self.pcache.filled(p, r.token);
        }
        for pending_id in waiters {
            let done = {
                let p = self.pending_reads.get_mut(&pending_id).expect("orphan disk token");
                p.disk_remaining -= 1;
                p.disk_remaining == 0
            };
            if done {
                let p = self.pending_reads.remove(&pending_id).unwrap();
                self.finish_read(ctx, p.req);
            }
        }
    }

    fn kupdate(&mut self, ctx: &mut Ctx<'_>) {
        // Contiguous dirty pages go to the platter as one write each.
        for e in coalesce(self.pcache.drain_dirty(KUPDATE_BATCH)) {
            self.issue_disk(ctx, DiskOp::Write, e.pblk, e.blocks, 0);
        }
        ctx.schedule_self(KUPDATE_INTERVAL, KupdateTick);
    }
}

impl Actor for Iod {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if !self.started {
            self.started = true;
            ctx.schedule_self(KUPDATE_INTERVAL, KupdateTick);
        }
        let msg = match msg.cast::<Deliver>() {
            Ok(d) => {
                let net = d.0;
                let net = match net.cast::<ReadReq>() {
                    Ok((_, r)) => return self.handle_read(ctx, *r),
                    Err(n) => n,
                };
                let net = match net.cast::<WriteReq>() {
                    Ok((_, w)) => return self.handle_write(ctx, *w),
                    Err(n) => n,
                };
                let net = match net.cast::<FlushBlocks>() {
                    Ok((_, f)) => return self.handle_flush(ctx, *f),
                    Err(n) => n,
                };
                match net.cast::<InvalidateAck>() {
                    Ok((_, ack)) => {
                        let done = {
                            let Some(p) = self.pending_syncs.get_mut(&ack.req_id) else {
                                return;
                            };
                            p.acks_remaining -= 1;
                            p.acks_remaining == 0
                        };
                        if done {
                            let p = self.pending_syncs.remove(&ack.req_id).unwrap();
                            let t = resource::reserve(
                                &self.cpu,
                                ctx.now(),
                                self.costs.recv_overhead + self.costs.send_overhead,
                            );
                            let wack = WriteAck { req_id: p.req_id, bytes: p.bytes };
                            self.send(ctx, t, IOD_PORT, p.reply_to, wack.wire_bytes(), wack);
                        }
                        return;
                    }
                    Err(n) => panic!("iod received unknown network payload: {:?}", n),
                }
            }
            Err(m) => m,
        };
        let msg = match msg.cast::<DiskReply>() {
            Ok(r) => return self.handle_disk_reply(ctx, *r),
            Err(m) => m,
        };
        if msg.is::<KupdateTick>() {
            self.kupdate(ctx);
        } else {
            panic!("iod received unexpected message");
        }
    }

    fn name(&self) -> String {
        format!("iod-{}", self.node)
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests;
