//! The kernel cache module actor — the paper's contribution.
//!
//! Installed on a client node, it impersonates the socket layer in both
//! directions (§3.2):
//!
//! * **outbound**: libpvfs's `sock_target` points here instead of at the
//!   fabric, so every iod request is intercepted. Reads are *discounted* by
//!   the cached blocks (possibly splitting contiguous ranges around cached
//!   holes); fully-cached requests never reach the network — the module
//!   **fakes the acknowledgment** and serves the data locally. Writes are
//!   absorbed into the cache (write-behind) and acked immediately, unless
//!   the cache is saturated with dirty data or the write is a sync-write.
//! * **inbound**: the node's `NodeNet` binds the client reply ports to the
//!   module, so iod replies flow through it: arriving data is copied into
//!   the cache, pending partial requests are completed, and a per-request
//!   finite state machine reconciles what the client library expects to
//!   receive with what actually crossed the wire.
//!
//! Two background activities complete the picture: the **flusher** (ships
//! dirty blocks to the iods' flush listeners periodically) and the
//! **harvester** (replenishes the free list to the high watermark when it
//! drops below the low watermark).

use crate::block::{blocks_of_range, span_in_block, BlockKey, Span, CACHE_BLOCK_SIZE};
use crate::config::CacheConfig;
use crate::manager::{Access, AccessKind, AccessOutcome, BufferManager, FlushItem, WriteOutcome};
use bytes::Bytes;
use kcache_obs::{
    Counter, EventId, Histogram, ObsHub, QuantileSketch, QuantileSnapshot, SloTargets,
};
use kcache_policy::hash::KeyMap;
use kcache_policy::AppId;
use pvfs::{
    ByteRange, CostModel, Fid, FlushAck, FlushBlocks, FlushEntry, Invalidate, InvalidateAck,
    ReadAck, ReadData, ReadReq, WriteAck, WritePart, WriteReq, CACHE_PORT, IOD_FLUSH_PORT,
};
use sim_core::{resource, Actor, ActorId, Ctx, Dur, Msg, SharedResource, SimTime};
use sim_net::{Deliver, NetMessage, NodeId, Port, TrafficClass, Xmit};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Module statistics (beyond the buffer manager's own counters).
#[derive(Debug, Default, Clone)]
pub struct ModuleStats {
    pub reads_intercepted: u64,
    pub writes_intercepted: u64,
    pub full_hits: u64,
    pub partial_hits: u64,
    pub full_misses: u64,
    pub request_splits: u64,
    pub fake_read_acks: u64,
    pub fake_write_acks: u64,
    pub blocks_served: u64,
    pub blocks_fetched: u64,
    /// Blocks a request wanted that were already in flight for another
    /// process — the inter-application "pending request" hit (§3.2).
    pub dedup_blocks: u64,
    pub bytes_served: u64,
    pub bytes_fetched: u64,
    pub bytes_absorbed: u64,
    pub bytes_passthrough: u64,
    pub sync_writes: u64,
    pub invalidate_msgs: u64,
    pub flush_msgs: u64,
    pub urgent_flush_blocks: u64,
    pub harvest_runs: u64,
    /// Latency accounting at block granularity, from the moment a fetch
    /// was initiated to the moment the block's bytes were installed.
    pub disk_fetch_blocks: u64,
    pub disk_fetch_ns: u64,
    /// Always 0; perfbench reads it until ROADMAP E.
    pub remote_hit_blocks: u64,
    /// Always 0; perfbench reads it until ROADMAP E.
    pub remote_stale_blocks: u64,
    /// Always 0; perfbench reads it until ROADMAP E.
    pub remote_fetch_ns: u64,
}

/// A client range still waiting for fetched blocks.
struct WaitingRange {
    range: ByteRange,
    missing: Vec<u64>,
    /// The reply under assembly: `range.len` bytes once any byte has
    /// landed, empty until then — a range nothing of which was cached is
    /// usually covered by one arriving `ReadData` and forwarded as a slice
    /// of it, never copied.
    buf: Vec<u8>,
}

/// Per (client, request) fetch state.
struct PendingFetch {
    fid: Fid,
    client_port: Port,
    waiting: Vec<WaitingRange>,
}

struct FlushTick;
struct HarvestNow;

/// Pre-resolved observability handles for the module's fetches.
/// Mirrors the buffer manager's `ManagerObs`: resolved once at
/// construction, `None` when the config carries no hub, so the data
/// paths pay one never-taken branch.
struct ModuleObs {
    hub: Arc<ObsHub>,
    /// Trace `pid` lane — one per simulated node.
    node: u32,
    /// Block fetch latency, from fetch initiation to byte installation.
    fetch_ns_default: Histogram,
    /// Fine-grained (≤1/16 relative error) fetch-latency sketch — the
    /// log2 histogram is too coarse for a p99.
    fetch_q_default: QuantileSketch,
    /// SLO target and burn count: a fetch slower than the target burns
    /// error budget.
    slo: SloTargets,
    burn_default: Counter,
    ev_miss_fill: EventId,
    ev_iod_read: EventId,
}

impl ModuleObs {
    fn new(hub: Arc<ObsHub>, node: NodeId, slo: SloTargets) -> ModuleObs {
        let r = hub.registry();
        ModuleObs {
            fetch_ns_default: r.histogram("fetch.ns.default"),
            fetch_q_default: QuantileSketch::new(),
            slo,
            burn_default: r.counter("slo.fetch.burn.default"),
            ev_miss_fill: hub.intern("miss_fill", Some("blocks"), None),
            ev_iod_read: hub.intern("iod_read", Some("blocks"), Some("bytes")),
            node: node.0 as u32,
            hub,
        }
    }

    /// Record one fetch latency against the histogram, the sketch and
    /// the SLO budget.
    fn record_fetch(&self, ns: u64) {
        self.fetch_ns_default.record(ns);
        self.fetch_q_default.record(ns);
        if ns > self.slo.fetch_p99_ns_default {
            self.burn_default.inc();
        }
    }
}

/// The cache module actor.
pub struct CacheModule {
    node: NodeId,
    fabric: ActorId,
    cpu: SharedResource,
    costs: CostModel,
    cfg: CacheConfig,
    cache: Arc<BufferManager>,
    /// Client reply port → client actor (the processes on this node).
    clients: KeyMap<u16, ActorId>,
    /// Client reply port → owning application instance; lets the buffer
    /// manager's policy attribute every access to an application, which is
    /// what the sharing-aware policy ranks by.
    client_apps: KeyMap<u16, AppId>,
    pending: KeyMap<(u16, u64), PendingFetch>,
    /// Blocks currently being fetched from an iod (the FSM's "transfers
    /// pending" state); requests for these blocks wait instead of
    /// re-fetching. The value is the fetch start time, which prices the
    /// fetch when the bytes arrive.
    fetching: KeyMap<BlockKey, SimTime>,
    /// Which pending requests wait on each in-flight block.
    block_waiters: KeyMap<BlockKey, Vec<(u16, u64)>>,
    /// Resident blocks in flight per flush request (completed on FlushAck).
    inflight_flushes: KeyMap<u64, Vec<(BlockKey, Span)>>,
    flush_seq: u64,
    harvest_scheduled: bool,
    started: bool,
    tag: u64,
    stats: ModuleStats,
    obs: Option<ModuleObs>,
}

impl CacheModule {
    pub fn new(
        node: NodeId,
        fabric: ActorId,
        cpu: SharedResource,
        costs: CostModel,
        cfg: CacheConfig,
    ) -> CacheModule {
        let cache = Arc::new(
            BufferManager::builder(cfg.capacity_blocks)
                .policy(cfg.policy)
                .watermarks(cfg.low_watermark, cfg.high_watermark)
                .partitioning(cfg.partitioning.clone())
                .adaptive(cfg.adaptive.clone())
                .epoch_accesses(cfg.epoch_accesses)
                .obs(cfg.obs.clone(), node.0 as u32)
                .shards(cfg.shards)
                .build(),
        );
        let obs = cfg.obs.clone().map(|hub| ModuleObs::new(hub, node, cfg.slo));
        CacheModule {
            node,
            fabric,
            cpu,
            costs,
            cfg,
            cache,
            clients: KeyMap::default(),
            client_apps: KeyMap::default(),
            pending: KeyMap::default(),
            fetching: KeyMap::default(),
            block_waiters: KeyMap::default(),
            inflight_flushes: KeyMap::default(),
            flush_seq: 1,
            harvest_scheduled: false,
            started: false,
            tag: 0,
            stats: ModuleStats::default(),
            obs,
        }
    }

    /// Register a client process living on this node (its reply port must
    /// also be bound to this module in the node's `NodeNet`), together with
    /// the application instance it belongs to.
    pub fn register_client(&mut self, port: Port, actor: ActorId, app: AppId) {
        self.clients.insert(port.0, actor);
        self.client_apps.insert(port.0, app);
    }

    /// Application owning a client reply port ([`AppId::UNKNOWN`] for
    /// traffic from unregistered ports).
    fn app_of(&self, port: Port) -> AppId {
        self.client_apps.get(&port.0).copied().unwrap_or(AppId::UNKNOWN)
    }

    pub fn stats(&self) -> &ModuleStats {
        &self.stats
    }

    pub fn cache(&self) -> &Arc<BufferManager> {
        &self.cache
    }

    /// The fetch-latency sketch snapshot, with its SLO target and burn
    /// count, as the one [`TrafficClass::Default`] entry — `None` when
    /// observability is off. The experiment harness merges these across
    /// nodes for the cluster SLO report.
    pub fn fetch_latency_sketches(
        &self,
    ) -> Option<Vec<(TrafficClass, QuantileSnapshot, u64, u64)>> {
        self.obs.as_ref().map(|o| {
            vec![(
                TrafficClass::Default,
                o.fetch_q_default.snapshot(),
                o.slo.fetch_p99_ns_default,
                o.burn_default.get(),
            )]
        })
    }

    fn charge(&self, now: SimTime, d: Dur) -> SimTime {
        resource::reserve(&self.cpu, now, d)
    }

    /// Deliver a synthesized message to a local client process.
    fn send_to_client(&mut self, ctx: &mut Ctx<'_>, at: SimTime, port: Port, payload: impl Any) {
        let Some(&client) = self.clients.get(&port.0) else {
            debug_assert!(false, "no client registered on {:?}", port);
            return;
        };
        self.tag += 1;
        let m = NetMessage::new((self.node, CACHE_PORT), (self.node, port), 0, self.tag, payload);
        ctx.schedule_in(at.since(ctx.now()), client, Deliver(m));
    }

    /// Put a (possibly rewritten) message on the wire.
    fn send_to_net(&mut self, ctx: &mut Ctx<'_>, at: SimTime, m: NetMessage) {
        ctx.schedule_in(at.since(ctx.now()), self.fabric, Xmit(m));
    }

    fn maybe_schedule_harvest(&mut self, ctx: &mut Ctx<'_>) {
        if !self.harvest_scheduled && self.cache.needs_harvest() {
            self.harvest_scheduled = true;
            ctx.schedule_self(self.cfg.harvester_wakeup, HarvestNow);
        }
    }

    /// Ship flush items to their home iods (grouped per iod+fid).
    /// `resident` items stay in the cache until their FlushAck arrives;
    /// eviction victims are gone from the cache already.
    fn send_flushes(
        &mut self,
        ctx: &mut Ctx<'_>,
        at: SimTime,
        items: Vec<FlushItem>,
        urgent: bool,
        resident: bool,
    ) {
        if items.is_empty() {
            return;
        }
        if urgent {
            self.stats.urgent_flush_blocks += items.len() as u64;
        }
        // Per (iod, fid) batch: the wire entry plus the cache coordinates
        // needed to mark the flush complete when the ack returns. Ordered
        // map: iteration order is send order, which must repeat per seed.
        type FlushBatch = Vec<(FlushEntry, BlockKey, Span)>;
        let mut groups: BTreeMap<(NodeId, Fid), FlushBatch> = BTreeMap::new();
        for it in items {
            groups.entry((it.home, it.key.fid)).or_default().push((
                FlushEntry { blk: it.key.blk, offset: it.span.start, data: Bytes::from(it.data) },
                it.key,
                it.span,
            ));
        }
        let mut at = at;
        for ((home, fid), entries) in groups {
            let nblocks = entries.len() as u64;
            let cpu = self.costs.send_overhead
                + Dur::nanos(self.costs.cache_copy_per_block.as_nanos() * nblocks / 4);
            at = self.charge(at, cpu);
            self.flush_seq += 1;
            if resident {
                self.inflight_flushes
                    .insert(self.flush_seq, entries.iter().map(|(_, k, sp)| (*k, *sp)).collect());
            }
            let f = FlushBlocks {
                req_id: self.flush_seq,
                fid,
                blocks: entries.into_iter().map(|(e, _, _)| e).collect(),
                reply_to: (self.node, CACHE_PORT),
            };
            self.tag += 1;
            let wire = f.wire_bytes();
            let m =
                NetMessage::new((self.node, CACHE_PORT), (home, IOD_FLUSH_PORT), wire, self.tag, f);
            self.send_to_net(ctx, at, m);
            self.stats.flush_msgs += 1;
        }
    }

    // -----------------------------------------------------------------
    // Outbound interception (libpvfs → net)
    // -----------------------------------------------------------------

    fn intercept_read(&mut self, ctx: &mut Ctx<'_>, mut net: NetMessage, rr: ReadReq) {
        self.stats.reads_intercepted += 1;
        let now = ctx.now();
        let client_port = rr.reply_to.1;
        let app = self.app_of(client_port);
        let total_blocks: u64 =
            rr.ranges.iter().map(|r| blocks_of_range(r.offset, r.len).count() as u64).sum();
        // FSM + hash lookups for every block of the request.
        let mut t = self.charge(
            now,
            self.costs.cache_call_overhead
                + Dur::nanos(self.costs.cache_lookup_per_block.as_nanos() * total_blocks),
        );

        let mut served: Vec<(ByteRange, Bytes)> = Vec::new();
        let mut waiting: Vec<WaitingRange> = Vec::new();
        let mut fetch_ranges: Vec<ByteRange> = Vec::new();
        let mut hit_blocks = 0u64;
        let mut waited_keys: Vec<BlockKey> = Vec::new();

        for r in &rr.ranges {
            // Blocks come in offset order, so hits append straight from
            // their frames. A missing block's bytes land at arrival; the
            // gap it leaves is zero-filled only once a later hit needs its
            // place, so a range with no cached block allocates nothing.
            let mut buf: Vec<u8> = Vec::new();
            let mut gap = 0usize;
            let mut missing: Vec<u64> = Vec::new();
            for blk in blocks_of_range(r.offset, r.len) {
                let span = span_in_block(blk, r.offset, r.len);
                let mut append = |src: &[u8]| {
                    if buf.is_empty() {
                        buf.reserve_exact(r.len as usize);
                    }
                    buf.resize(buf.len() + gap, 0);
                    buf.extend_from_slice(src);
                };
                let kind = AccessKind::ReadWith { span, sink: &mut append };
                if self.cache.access(BlockKey::new(rr.fid, blk), Access { app, kind }).is_hit() {
                    hit_blocks += 1;
                    gap = 0;
                } else {
                    gap += span.len() as usize;
                    missing.push(blk);
                }
            }
            if missing.is_empty() {
                served.push((*r, Bytes::from(buf)));
            } else {
                if !buf.is_empty() {
                    buf.resize(r.len as usize, 0);
                }
                // Fetch only blocks not already in flight (the FSM's
                // pending-block state): a concurrent fetch — possibly for a
                // *different application's* process — will satisfy ours too.
                let to_fetch: Vec<u64> = missing
                    .iter()
                    .copied()
                    .filter(|blk| !self.fetching.contains_key(&BlockKey::new(rr.fid, *blk)))
                    .collect();
                self.stats.dedup_blocks += (missing.len() - to_fetch.len()) as u64;
                for blk in &missing {
                    waited_keys.push(BlockKey::new(rr.fid, *blk));
                }
                // Block-aligned fetch ranges over the to-fetch blocks,
                // coalescing adjacent blocks. A cached block in the middle
                // of the range splits the external request (§3.2).
                let mut runs = 0;
                let mut i = 0;
                while i < to_fetch.len() {
                    let start = to_fetch[i];
                    let mut n = 1u64;
                    while i + (n as usize) < to_fetch.len() && to_fetch[i + n as usize] == start + n
                    {
                        n += 1;
                    }
                    fetch_ranges.push(ByteRange::new(
                        start * CACHE_BLOCK_SIZE as u64,
                        (n * CACHE_BLOCK_SIZE as u64) as u32,
                    ));
                    for b in start..start + n {
                        self.fetching.insert(BlockKey::new(rr.fid, b), now);
                    }
                    runs += 1;
                    i += n as usize;
                }
                if runs > 1
                    || missing.len() as u64 != blocks_of_range(r.offset, r.len).count() as u64
                {
                    self.stats.request_splits += 1;
                }
                waiting.push(WaitingRange { range: *r, missing, buf });
            }
        }

        // Copy cost for blocks served from cache.
        if hit_blocks > 0 {
            t = self.charge(t, Dur::nanos(self.costs.cache_copy_per_block.as_nanos() * hit_blocks));
            self.stats.blocks_served += hit_blocks;
        }

        if waiting.is_empty() {
            // Full hit: fake the ack, serve everything locally, and never
            // touch the network.
            self.stats.full_hits += 1;
            self.stats.fake_read_acks += 1;
            let total: u64 = rr.ranges.iter().map(|r| r.len as u64).sum();
            self.stats.bytes_served += total;
            self.send_to_client(ctx, t, client_port, ReadAck { req_id: rr.req_id, bytes: total });
            for (range, data) in served {
                self.send_to_client(
                    ctx,
                    t,
                    client_port,
                    ReadData { req_id: rr.req_id, fid: rr.fid, range, data },
                );
            }
            return;
        }
        if hit_blocks > 0 {
            self.stats.partial_hits += 1;
        } else {
            self.stats.full_misses += 1;
        }
        // Serve the fully-cached ranges now.
        for (range, data) in served {
            self.stats.bytes_served += range.len as u64;
            self.send_to_client(
                ctx,
                t,
                client_port,
                ReadData { req_id: rr.req_id, fid: rr.fid, range, data },
            );
        }
        // Register this request as a waiter on every missing block.
        for key in waited_keys {
            let entry = self.block_waiters.entry(key).or_default();
            if !entry.contains(&(client_port.0, rr.req_id)) {
                entry.push((client_port.0, rr.req_id));
            }
        }
        match self.pending.entry((client_port.0, rr.req_id)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().waiting.extend(waiting);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                debug_assert!(
                    self.clients.contains_key(&client_port.0),
                    "intercepted request from unregistered client"
                );
                e.insert(PendingFetch { fid: rr.fid, client_port, waiting });
            }
        }
        if fetch_ranges.is_empty() {
            // Everything missing is already in flight for someone else:
            // nothing to send, but the client still expects this iod's ack.
            self.stats.fake_read_acks += 1;
            let total: u64 = rr.ranges.iter().map(|r| r.len as u64).sum();
            self.send_to_client(ctx, t, client_port, ReadAck { req_id: rr.req_id, bytes: total });
            return;
        }
        let reduced = ReadReq {
            req_id: rr.req_id,
            fid: rr.fid,
            ranges: fetch_ranges,
            reply_to: rr.reply_to,
            caching: true,
        };
        let wire = reduced.wire_bytes();
        // The client already paid the socket-call cost; the in-kernel
        // module only rewrites and passes the buffer onward.
        t = self.charge(t, self.costs.cache_call_overhead);
        net.wire_bytes = wire;
        net.payload = Box::new(reduced);
        self.send_to_net(ctx, t, net);
    }

    fn intercept_write(&mut self, ctx: &mut Ctx<'_>, mut net: NetMessage, wr: WriteReq) {
        self.stats.writes_intercepted += 1;
        let now = ctx.now();
        let iod_node = net.dst;
        let client_port = wr.reply_to.1;
        let app = self.app_of(client_port);
        let total_bytes = wr.total_bytes();

        if !self.cfg.write_behind || wr.sync {
            // Write-through ablation, or coherent sync-write: update any
            // resident blocks in place, then forward the full request.
            if wr.sync {
                self.stats.sync_writes += 1;
            }
            let mut blocks = 0u64;
            for part in &wr.parts {
                for blk in blocks_of_range(part.range.offset, part.range.len) {
                    blocks += 1;
                    let span = span_in_block(blk, part.range.offset, part.range.len);
                    let lo = (blk * CACHE_BLOCK_SIZE as u64 + span.start as u64 - part.range.offset)
                        as usize;
                    let hi = lo + span.len() as usize;
                    self.cache.update_if_present(
                        BlockKey::new(wr.fid, blk),
                        span,
                        &part.data[lo..hi],
                    );
                }
            }
            let t = self.charge(
                now,
                self.costs.cache_call_overhead
                    + Dur::nanos(self.costs.cache_lookup_per_block.as_nanos() * blocks),
            );
            self.stats.bytes_passthrough += total_bytes;
            net.payload = Box::new(wr);
            self.send_to_net(ctx, t, net);
            return;
        }

        let nblocks: u64 = wr
            .parts
            .iter()
            .map(|p| blocks_of_range(p.range.offset, p.range.len).count() as u64)
            .sum();
        let mut t = self.charge(
            now,
            self.costs.cache_call_overhead
                + Dur::nanos(self.costs.cache_lookup_per_block.as_nanos() * nblocks),
        );

        let mut passthrough: Vec<WritePart> = Vec::new();
        let mut absorbed_blocks = 0u64;
        let mut absorbed_bytes = 0u64;
        for part in &wr.parts {
            // Try to absorb block by block; contiguous failures re-form
            // pass-through parts.
            let mut fail_start: Option<u64> = None; // byte offset
            let mut fail_end: u64 = 0;
            for blk in blocks_of_range(part.range.offset, part.range.len) {
                let span = span_in_block(blk, part.range.offset, part.range.len);
                let abs_start = blk * CACHE_BLOCK_SIZE as u64 + span.start as u64;
                let lo = (abs_start - part.range.offset) as usize;
                let hi = lo + span.len() as usize;
                let kind = AccessKind::Write { home: iod_node, span, bytes: &part.data[lo..hi] };
                match self.cache.access(BlockKey::new(wr.fid, blk), Access { app, kind }) {
                    AccessOutcome::Write(WriteOutcome::Absorbed) => {
                        absorbed_blocks += 1;
                        absorbed_bytes += span.len() as u64;
                        self.maybe_schedule_harvest(ctx);
                    }
                    // Not absorbed: these bytes go through to the iod.
                    _ => match fail_start {
                        Some(_) if fail_end == abs_start => fail_end += span.len() as u64,
                        Some(s) => {
                            passthrough.push(Self::slice_part(part, s, fail_end));
                            fail_start = Some(abs_start);
                            fail_end = abs_start + span.len() as u64;
                        }
                        None => {
                            fail_start = Some(abs_start);
                            fail_end = abs_start + span.len() as u64;
                        }
                    },
                }
            }
            if let Some(s) = fail_start {
                passthrough.push(Self::slice_part(part, s, fail_end));
            }
        }
        if absorbed_blocks > 0 {
            t = self.charge(
                t,
                Dur::nanos(self.costs.cache_copy_per_block.as_nanos() * absorbed_blocks),
            );
        }
        self.stats.bytes_absorbed += absorbed_bytes;
        if passthrough.is_empty() {
            // Fully absorbed: fake the write ack (write-behind).
            self.stats.fake_write_acks += 1;
            self.send_to_client(
                ctx,
                t,
                client_port,
                WriteAck { req_id: wr.req_id, bytes: total_bytes },
            );
        } else {
            let pass_bytes: u64 = passthrough.iter().map(|p| p.range.len as u64).sum();
            self.stats.bytes_passthrough += pass_bytes;
            let reduced = WriteReq {
                req_id: wr.req_id,
                fid: wr.fid,
                parts: passthrough,
                reply_to: wr.reply_to,
                caching: true,
                sync: false,
            };
            t = self.charge(t, self.costs.cache_call_overhead);
            net.wire_bytes = reduced.wire_bytes();
            net.payload = Box::new(reduced);
            self.send_to_net(ctx, t, net);
        }
    }

    fn slice_part(part: &WritePart, abs_start: u64, abs_end: u64) -> WritePart {
        let lo = (abs_start - part.range.offset) as usize;
        let hi = (abs_end - part.range.offset) as usize;
        WritePart {
            range: ByteRange::new(abs_start, (abs_end - abs_start) as u32),
            data: part.data.slice(lo..hi),
        }
    }

    // -----------------------------------------------------------------
    // Inbound interception (net → libpvfs)
    // -----------------------------------------------------------------

    /// Install block data arriving from its iod `home` and complete every
    /// waiting request.
    fn inbound_read_data(&mut self, ctx: &mut Ctx<'_>, home: NodeId, rd: ReadData) {
        let now = ctx.now();
        let nblocks = blocks_of_range(rd.range.offset, rd.range.len).count() as u64;
        self.stats.blocks_fetched += nblocks;
        self.stats.bytes_fetched += rd.range.len as u64;
        let t = self.charge(
            now,
            self.costs.cache_call_overhead
                + Dur::nanos(self.costs.cache_insert_per_block.as_nanos() * nblocks),
        );
        // Install the fetched blocks and wake every waiter — including
        // waiters belonging to *other processes* whose fetches were
        // suppressed by the pending-block state.
        let mut urgent: Vec<FlushItem> = Vec::new();
        let mut completed: Vec<(Port, u64, Fid, ByteRange, Bytes)> = Vec::new();
        // Earliest fetch-initiation time among the blocks this message
        // resolves — the start of the miss-fill span.
        let mut fetch_t0: Option<SimTime> = None;
        for blk in blocks_of_range(rd.range.offset, rd.range.len) {
            let key = BlockKey::new(rd.fid, blk);
            let span = span_in_block(blk, rd.range.offset, rd.range.len);
            let lo = (blk * CACHE_BLOCK_SIZE as u64 + span.start as u64 - rd.range.offset) as usize;
            let hi = lo + span.len() as usize;
            // Attribute the install to the first waiting application; every
            // further application waiting on the same fetch is recorded as
            // an extra referent — the inter-application sharing signal the
            // sharing-aware policy ranks by.
            let mut waiter_apps: Vec<AppId> = Vec::new();
            if let Some(ws) = self.block_waiters.get(&key) {
                for &(port, _) in ws {
                    let a = self.app_of(Port(port));
                    if !waiter_apps.contains(&a) {
                        waiter_apps.push(a);
                    }
                }
            }
            let first_app = waiter_apps.first().copied().unwrap_or(AppId::UNKNOWN);
            let kind = AccessKind::InsertClean { home, span, bytes: &rd.data[lo..hi] };
            if let AccessOutcome::Inserted(Some(fl)) =
                self.cache.access(key, Access { app: first_app, kind })
            {
                urgent.push(fl);
            }
            for &a in waiter_apps.iter().skip(1) {
                self.cache.access(key, Access { app: a, kind: AccessKind::Touch });
            }
            self.maybe_schedule_harvest(ctx);
            if let Some(t0) = self.fetching.remove(&key) {
                let ns = now.since(t0).as_nanos();
                self.stats.disk_fetch_blocks += 1;
                self.stats.disk_fetch_ns += ns;
                if let Some(o) = &self.obs {
                    o.record_fetch(ns);
                }
                fetch_t0 = Some(fetch_t0.map_or(t0, |p| p.min(t0)));
            }
            let Some(waiters) = self.block_waiters.remove(&key) else {
                continue;
            };
            for (port, req_id) in waiters {
                let Some(pf) = self.pending.get_mut(&(port, req_id)) else {
                    continue;
                };
                let fid = pf.fid;
                let client_port = pf.client_port;
                for w in &mut pf.waiting {
                    let Some(pos) = w.missing.iter().position(|b| *b == blk) else {
                        continue;
                    };
                    let wspan = span_in_block(blk, w.range.offset, w.range.len);
                    debug_assert!(span.covers(wspan), "fetch did not cover the waiter span");
                    // A range that holds no byte yet and lies wholly inside
                    // this message is forwarded as a window of it once its
                    // last block is ticked off; anything else is assembled
                    // by copying.
                    let whole = w.buf.is_empty()
                        && rd.range.offset <= w.range.offset
                        && w.range.end() <= rd.range.end();
                    if !whole {
                        let abs = blk * CACHE_BLOCK_SIZE as u64;
                        let src_lo = (abs + wspan.start as u64 - rd.range.offset) as usize;
                        let dst_lo = (abs + wspan.start as u64 - w.range.offset) as usize;
                        let n = wspan.len() as usize;
                        if w.buf.is_empty() {
                            w.buf = vec![0u8; w.range.len as usize];
                        }
                        w.buf[dst_lo..dst_lo + n].copy_from_slice(&rd.data[src_lo..src_lo + n]);
                    }
                    w.missing.remove(pos);
                    if w.missing.is_empty() {
                        let data = if whole {
                            let lo = (w.range.offset - rd.range.offset) as usize;
                            rd.data.slice(lo..lo + w.range.len as usize)
                        } else {
                            Bytes::from(std::mem::take(&mut w.buf))
                        };
                        completed.push((client_port, req_id, fid, w.range, data));
                    }
                }
                pf.waiting.retain(|w| !w.missing.is_empty());
                if pf.waiting.is_empty() {
                    self.pending.remove(&(port, req_id));
                }
            }
        }
        if let Some(o) = &self.obs {
            // One iod-read span per arriving data message: the wire +
            // service time from fetch initiation to installation, plus a
            // miss-fill instant for the cache-population step itself.
            if let Some(t0) = fetch_t0 {
                let dur = now.since(t0).as_nanos();
                o.hub.span(o.ev_iod_read, o.node, 0, t0.nanos(), dur, nblocks, rd.range.len as u64);
            }
            o.hub.instant(o.ev_miss_fill, o.node, 0, nblocks, 0);
        }
        if !urgent.is_empty() {
            self.send_flushes(ctx, t, urgent, true, false);
        }
        if !completed.is_empty() {
            for (client_port, req_id, fid, range, data) in completed {
                self.send_to_client(ctx, t, client_port, ReadData { req_id, fid, range, data });
            }
        }
    }

    fn inbound(&mut self, ctx: &mut Ctx<'_>, net: NetMessage) {
        // Coherence traffic addressed to the module itself.
        if net.dst_port == CACHE_PORT {
            let net = match net.cast::<Invalidate>() {
                Ok((meta, inv)) => {
                    self.stats.invalidate_msgs += 1;
                    let t = self.charge(
                        ctx.now(),
                        self.costs.cache_call_overhead
                            + Dur::nanos(
                                self.costs.cache_lookup_per_block.as_nanos()
                                    * inv.blocks.len() as u64,
                            )
                            + self.costs.send_overhead,
                    );
                    self.cache.invalidate(inv.blocks.iter().map(|b| BlockKey::new(inv.fid, *b)));
                    self.tag += 1;
                    let ack = InvalidateAck { req_id: inv.req_id };
                    let m = NetMessage::new(
                        (self.node, CACHE_PORT),
                        inv.reply_to,
                        ack.wire_bytes(),
                        self.tag,
                        ack,
                    );
                    let _ = meta;
                    self.send_to_net(ctx, t, m);
                    return;
                }
                Err(n) => n,
            };
            let net = match net.cast::<FlushAck>() {
                Ok((_, ack)) => {
                    if let Some(done) = self.inflight_flushes.remove(&ack.req_id) {
                        for (key, span) in done {
                            self.cache.flush_complete(key, span);
                        }
                    }
                    // Keep the drain pipeline full while a backlog remains.
                    if self.cache.dirty_queue_len() > 0 {
                        let items = self.cache.take_dirty(self.cfg.flush_batch);
                        let now = ctx.now();
                        self.send_flushes(ctx, now, items, false, true);
                    }
                    return;
                }
                Err(n) => n,
            };
            debug_assert!(false, "unexpected message on cache port: {net:?}");
            return;
        }
        // iod replies on client ports.
        let net = match net.cast::<ReadAck>() {
            Ok((meta, ack)) => {
                // Forward the (real) ack to the client (FSM transition).
                let t = self.charge(ctx.now(), self.costs.cache_call_overhead);
                self.send_to_client(ctx, t, meta.dst_port, *ack);
                return;
            }
            Err(n) => n,
        };
        let net = match net.cast::<WriteAck>() {
            Ok((meta, ack)) => {
                let t = self.charge(ctx.now(), self.costs.cache_call_overhead);
                self.send_to_client(ctx, t, meta.dst_port, *ack);
                return;
            }
            Err(n) => n,
        };
        let net = match net.cast::<ReadData>() {
            Ok((meta, rd)) => return self.inbound_read_data(ctx, meta.src, *rd),
            Err(n) => n,
        };
        // Anything else on a client port (mgr replies, etc.) is not iod
        // data traffic: hand it to the client process untouched.
        let Some(&client) = self.clients.get(&net.dst_port.0) else {
            panic!("cache module: unexpected inbound payload {:?}", net);
        };
        ctx.schedule_in(Dur::ZERO, client, Deliver(net));
    }

    fn flush_tick(&mut self, ctx: &mut Ctx<'_>) {
        let items = self.cache.take_dirty(self.cfg.flush_batch);
        let now = ctx.now();
        self.send_flushes(ctx, now, items, false, true);
        ctx.schedule_self(self.cfg.flush_interval, FlushTick);
    }

    fn harvest_now(&mut self, ctx: &mut Ctx<'_>) {
        self.harvest_scheduled = false;
        self.stats.harvest_runs += 1;
        let items = self.cache.harvest();
        let now = ctx.now();
        let t = self.charge(now, Dur::nanos(self.costs.cache_lookup_per_block.as_nanos() * 8));
        self.send_flushes(ctx, t, items, true, true);
        // If still below the watermark (everything dirty and in flight),
        // try again after the next wakeup.
        self.maybe_schedule_harvest(ctx);
    }
}

impl Actor for CacheModule {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if let Some(o) = &self.obs {
            // Publish the sim clock so every instrument — including the
            // buffer manager's, which has no clock of its own — stamps
            // trace events with simulated time.
            o.hub.set_now(ctx.now().nanos());
        }
        if !self.started {
            self.started = true;
            ctx.schedule_self(self.cfg.flush_interval, FlushTick);
        }
        // Outbound: libpvfs socket sends.
        let msg = match msg.cast::<Xmit>() {
            Ok(x) => {
                let net = x.0;
                let net = match net.cast::<ReadReq>() {
                    Ok((meta, rr)) => {
                        let net2 = NetMessage::new(
                            (meta.src, meta.src_port),
                            (meta.dst, meta.dst_port),
                            meta.wire_bytes,
                            meta.tag,
                            (),
                        );
                        return self.intercept_read(ctx, net2, *rr);
                    }
                    Err(n) => n,
                };
                let net = match net.cast::<WriteReq>() {
                    Ok((meta, wr)) => {
                        let net2 = NetMessage::new(
                            (meta.src, meta.src_port),
                            (meta.dst, meta.dst_port),
                            meta.wire_bytes,
                            meta.tag,
                            (),
                        );
                        return self.intercept_write(ctx, net2, *wr);
                    }
                    Err(n) => n,
                };
                // Anything else (mgr traffic routed here by mistake, etc.)
                // passes through untouched.
                let now = ctx.now();
                self.send_to_net(ctx, now, net);
                return;
            }
            Err(m) => m,
        };
        // Inbound: deliveries re-routed to the module by NodeNet.
        let msg = match msg.cast::<Deliver>() {
            Ok(d) => return self.inbound(ctx, d.0),
            Err(m) => m,
        };
        let msg = match msg.cast::<FlushTick>() {
            Ok(_) => return self.flush_tick(ctx),
            Err(m) => m,
        };
        if msg.is::<HarvestNow>() {
            self.harvest_now(ctx);
        } else {
            panic!("cache module received unexpected message");
        }
    }

    fn name(&self) -> String {
        format!("kcache-{}", self.node)
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}
