//! libpvfs — the client library linked into every application process.
//!
//! `PvfsClient` is *not* an actor: it is a state machine embedded in the
//! owning application actor, exactly as the real libpvfs lives inside the
//! application process. The owner feeds it network deliveries and receives
//! [`Completion`]s.
//!
//! Crucially, the library addresses all iod traffic to an opaque
//! `sock_target` — the node's socket layer. On a plain node that is the
//! fabric; on a caching node it is the cache module, which the library
//! cannot distinguish (the paper's transparency requirement).

use crate::config::CostModel;
use crate::protocol::{
    pattern_bytes, pattern_matches, ByteRange, Fid, FileHandle, MgrCall, MgrReply, MgrRequest,
    ReadAck, ReadData, ReadReq, WriteAck, WritePart, WriteReq, MGR_PORT,
};
use crate::striping::split_ranges;
use sim_core::{resource, ActorId, Ctx, Dur, SharedResource, SimTime, Tally};
use sim_disk::BLOCK_SIZE;
use sim_net::{NetMessage, NodeId, Port, Xmit};
use std::collections::HashMap;

/// Static wiring of a client instance.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Node this process runs on.
    pub node: NodeId,
    /// This process's unique reply port.
    pub port: Port,
    /// Node hosting the mgr.
    pub mgr_node: NodeId,
    /// Global iod index → node running that iod.
    pub iod_nodes: Vec<NodeId>,
    /// Outbound socket layer for iod traffic: the fabric, or the node's
    /// cache module when one is installed.
    pub sock_target: ActorId,
    /// The fabric (mgr traffic is never intercepted / cached).
    pub fabric: ActorId,
    /// This node's CPU.
    pub cpu: SharedResource,
    pub costs: CostModel,
    /// Whether this node runs a cache module (propagated in requests so
    /// iods maintain the coherence directory).
    pub caching: bool,
    /// Verify all read data against the deterministic file pattern.
    pub verify_reads: bool,
}

/// What the application gets back when an operation finishes.
#[derive(Debug, Clone)]
pub enum Completion {
    Meta { req_id: u64, handle: FileHandle, at: SimTime },
    MetaErr { req_id: u64, reason: String, at: SimTime },
    Read { req_id: u64, bytes: u64, latency: Dur, at: SimTime },
    Write { req_id: u64, bytes: u64, latency: Dur, at: SimTime },
}

impl Completion {
    /// The instant the operation's CPU work finished; the application
    /// resumes at this time.
    pub fn at(&self) -> SimTime {
        match self {
            Completion::Meta { at, .. }
            | Completion::MetaErr { at, .. }
            | Completion::Read { at, .. }
            | Completion::Write { at, .. } => *at,
        }
    }
}

enum Pending {
    Mgr,
    Read {
        issued: SimTime,
        bytes_remaining: u64,
        acks_remaining: u32,
        total_bytes: u64,
        ready_at: SimTime,
    },
    Write {
        issued: SimTime,
        acks_remaining: u32,
        total_bytes: u64,
        ready_at: SimTime,
    },
}

/// Client-side counters.
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub read_latency: Tally,
    pub write_latency: Tally,
    pub verify_failures: u64,
}

/// The libpvfs client state machine.
pub struct PvfsClient {
    cfg: ClientConfig,
    next_req: u64,
    tag: u64,
    handles: HashMap<Fid, FileHandle>,
    pending: HashMap<u64, Pending>,
    stats: ClientStats,
}

impl PvfsClient {
    pub fn new(cfg: ClientConfig) -> PvfsClient {
        PvfsClient {
            cfg,
            next_req: 1,
            tag: 0,
            handles: HashMap::new(),
            pending: HashMap::new(),
            stats: ClientStats::default(),
        }
    }

    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    pub fn handle_of(&self, fid: Fid) -> Option<&FileHandle> {
        self.handles.get(&fid)
    }

    fn fresh_req(&mut self) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    fn xmit(&mut self, ctx: &mut Ctx<'_>, at: SimTime, target: ActorId, m: NetMessage) {
        ctx.schedule_in(at.since(ctx.now()), target, Xmit(m));
    }

    fn mgr_call(&mut self, ctx: &mut Ctx<'_>, req: MgrRequest) -> u64 {
        let req_id = self.fresh_req();
        let now = ctx.now();
        let t = resource::reserve(
            &self.cfg.cpu,
            now,
            self.cfg.costs.client_request_overhead + self.cfg.costs.send_overhead,
        );
        self.tag += 1;
        let call = MgrCall { req_id, reply_to: (self.cfg.node, self.cfg.port), req };
        let m = NetMessage::new(
            (self.cfg.node, self.cfg.port),
            (self.cfg.mgr_node, MGR_PORT),
            crate::protocol::MSG_HEADER_BYTES + 64,
            self.tag,
            call,
        );
        let fabric = self.cfg.fabric;
        self.xmit(ctx, t, fabric, m);
        self.pending.insert(req_id, Pending::Mgr);
        req_id
    }

    /// Create a file of `size` logical bytes.
    pub fn create(&mut self, ctx: &mut Ctx<'_>, name: &str, size: u64) -> u64 {
        self.mgr_call(ctx, MgrRequest::Create { name: name.to_string(), size })
    }

    /// Open an existing file.
    pub fn open(&mut self, ctx: &mut Ctx<'_>, name: &str) -> u64 {
        self.mgr_call(ctx, MgrRequest::Open { name: name.to_string() })
    }

    /// Issue a striped read of `[offset, offset+len)`. One request per iod
    /// holding part of the range, all put on the wire together (libpvfs
    /// aggregation), then completion when every ack and every byte arrived.
    pub fn read(&mut self, ctx: &mut Ctx<'_>, fid: Fid, offset: u64, len: u32) -> u64 {
        let req_id = self.fresh_req();
        let now = ctx.now();
        let handle = self.handles.get(&fid).expect("read on unopened fid").clone();
        let split = split_ranges(&handle.stripe, ByteRange::new(offset, len));
        let involved: Vec<(u32, Vec<ByteRange>)> = split
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(slot, v)| (slot as u32, v))
            .collect();
        let cpu = self.cfg.costs.client_request_overhead
            + Dur::nanos(
                (self.cfg.costs.client_per_iod_overhead + self.cfg.costs.send_overhead).as_nanos()
                    * involved.len() as u64,
            );
        let t = resource::reserve(&self.cfg.cpu, now, cpu);
        let n_iods = involved.len() as u32;
        for (slot, ranges) in involved {
            let iod_node = self.cfg.iod_nodes
                [handle.stripe.global_iod(slot, self.cfg.iod_nodes.len() as u32) as usize];
            let rr = ReadReq {
                req_id,
                fid,
                ranges,
                reply_to: (self.cfg.node, self.cfg.port),
                caching: self.cfg.caching,
            };
            self.tag += 1;
            let wire = rr.wire_bytes();
            let m = NetMessage::new(
                (self.cfg.node, self.cfg.port),
                (iod_node, crate::protocol::IOD_PORT),
                wire,
                self.tag,
                rr,
            );
            let target = self.cfg.sock_target;
            self.xmit(ctx, t, target, m);
        }
        self.stats.reads += 1;
        self.stats.bytes_read += len as u64;
        self.pending.insert(
            req_id,
            Pending::Read {
                issued: now,
                bytes_remaining: len as u64,
                acks_remaining: n_iods,
                total_bytes: len as u64,
                ready_at: t,
            },
        );
        req_id
    }

    /// Issue a striped write of deterministic pattern bytes over
    /// `[offset, offset+len)`. `sync` requests the paper's coherent
    /// sync-write.
    pub fn write(&mut self, ctx: &mut Ctx<'_>, fid: Fid, offset: u64, len: u32, sync: bool) -> u64 {
        let req_id = self.fresh_req();
        let now = ctx.now();
        let handle = self.handles.get(&fid).expect("write on unopened fid").clone();
        let split = split_ranges(&handle.stripe, ByteRange::new(offset, len));
        let involved: Vec<(u32, Vec<ByteRange>)> = split
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(slot, v)| (slot as u32, v))
            .collect();
        // Copy cost: the user buffer crosses into the socket layer once.
        let blocks = (len as u64).div_ceil(BLOCK_SIZE as u64);
        let cpu = self.cfg.costs.client_request_overhead
            + Dur::nanos(self.cfg.costs.client_copy_per_block.as_nanos() * blocks)
            + Dur::nanos(
                (self.cfg.costs.client_per_iod_overhead + self.cfg.costs.send_overhead).as_nanos()
                    * involved.len() as u64,
            );
        let t = resource::reserve(&self.cfg.cpu, now, cpu);
        let n_iods = involved.len() as u32;
        for (slot, ranges) in involved {
            let iod_node = self.cfg.iod_nodes
                [handle.stripe.global_iod(slot, self.cfg.iod_nodes.len() as u32) as usize];
            let parts: Vec<WritePart> = ranges
                .into_iter()
                .map(|r| WritePart { range: r, data: pattern_bytes(fid, r.offset, r.len as usize) })
                .collect();
            let wr = WriteReq {
                req_id,
                fid,
                parts,
                reply_to: (self.cfg.node, self.cfg.port),
                caching: self.cfg.caching,
                sync,
            };
            self.tag += 1;
            let wire = wr.wire_bytes();
            let m = NetMessage::new(
                (self.cfg.node, self.cfg.port),
                (iod_node, crate::protocol::IOD_PORT),
                wire,
                self.tag,
                wr,
            );
            let target = self.cfg.sock_target;
            self.xmit(ctx, t, target, m);
        }
        self.stats.writes += 1;
        self.stats.bytes_written += len as u64;
        self.pending.insert(
            req_id,
            Pending::Write {
                issued: now,
                acks_remaining: n_iods,
                total_bytes: len as u64,
                ready_at: t,
            },
        );
        req_id
    }

    /// Feed one delivered network message to the library. Returns a
    /// completion when an outstanding operation finishes.
    pub fn on_deliver(&mut self, ctx: &mut Ctx<'_>, msg: NetMessage) -> Option<Completion> {
        let msg = match msg.cast::<MgrReply>() {
            Ok((_, reply)) => {
                return match *reply {
                    MgrReply::Ok { req_id, handle } => {
                        self.pending.remove(&req_id);
                        self.handles.insert(handle.fid, handle.clone());
                        let t = resource::reserve(
                            &self.cfg.cpu,
                            ctx.now(),
                            self.cfg.costs.recv_overhead,
                        );
                        Some(Completion::Meta { req_id, handle, at: t })
                    }
                    MgrReply::Err { req_id, reason } => {
                        self.pending.remove(&req_id);
                        Some(Completion::MetaErr { req_id, reason, at: ctx.now() })
                    }
                };
            }
            Err(m) => m,
        };
        let msg = match msg.cast::<ReadAck>() {
            Ok((_, ack)) => {
                let t = resource::reserve(&self.cfg.cpu, ctx.now(), self.cfg.costs.recv_overhead);
                return self.note_read_progress(ack.req_id, 0, t);
            }
            Err(m) => m,
        };
        let msg = match msg.cast::<ReadData>() {
            Ok((_, rd)) => {
                let blocks = (rd.range.len as u64).div_ceil(BLOCK_SIZE as u64);
                let cpu = self.cfg.costs.recv_overhead
                    + Dur::nanos(self.cfg.costs.client_copy_per_block.as_nanos() * blocks);
                let t = resource::reserve(&self.cfg.cpu, ctx.now(), cpu);
                if self.cfg.verify_reads
                    && !(rd.data.len() == rd.range.len as usize
                        && pattern_matches(rd.fid, rd.range.offset, &rd.data))
                {
                    self.stats.verify_failures += 1;
                }
                return self.note_read_progress(rd.req_id, rd.range.len as u64, t);
            }
            Err(m) => m,
        };
        match msg.cast::<WriteAck>() {
            Ok((_, ack)) => {
                let t = resource::reserve(&self.cfg.cpu, ctx.now(), self.cfg.costs.recv_overhead);
                let done = {
                    let Some(Pending::Write { acks_remaining, ready_at, .. }) =
                        self.pending.get_mut(&ack.req_id)
                    else {
                        return None;
                    };
                    *acks_remaining -= 1;
                    *ready_at = (*ready_at).max(t);
                    *acks_remaining == 0
                };
                if done {
                    let Some(Pending::Write { issued, total_bytes, ready_at, .. }) =
                        self.pending.remove(&ack.req_id)
                    else {
                        unreachable!()
                    };
                    let latency = ready_at.since(issued);
                    self.stats.write_latency.record_dur(latency);
                    return Some(Completion::Write {
                        req_id: ack.req_id,
                        bytes: total_bytes,
                        latency,
                        at: ready_at,
                    });
                }
                None
            }
            Err(m) => panic!("libpvfs received unknown payload: {:?}", m),
        }
    }

    fn note_read_progress(&mut self, req_id: u64, bytes: u64, t: SimTime) -> Option<Completion> {
        let done = {
            let Some(Pending::Read { bytes_remaining, acks_remaining, ready_at, .. }) =
                self.pending.get_mut(&req_id)
            else {
                return None;
            };
            if bytes == 0 {
                debug_assert!(*acks_remaining > 0, "duplicate ack for {}", req_id);
                *acks_remaining -= 1;
            } else {
                debug_assert!(*bytes_remaining >= bytes, "over-delivery on {}", req_id);
                *bytes_remaining -= bytes;
            }
            *ready_at = (*ready_at).max(t);
            *bytes_remaining == 0 && *acks_remaining == 0
        };
        if done {
            let Some(Pending::Read { issued, total_bytes, ready_at, .. }) =
                self.pending.remove(&req_id)
            else {
                unreachable!()
            };
            let latency = ready_at.since(issued);
            self.stats.read_latency.record_dur(latency);
            return Some(Completion::Read { req_id, bytes: total_bytes, latency, at: ready_at });
        }
        None
    }
}
