//! The read path: a request discounted by the cached blocks, the fetches
//! it sends and the ones it joins, the data that arrives for them, and
//! the invalidations that overtake them. Owns `pending` and `in_flight`.

use super::{Arrived, CacheModule};
use crate::block::{blocks_of_range, pieces_of_range, BlockKey, BlockPiece, CACHE_BLOCK_SIZE};
use crate::manager::{Access, AccessKind, AccessOutcome, BlockBytes, FlushItem};
use kcache_policy::AppId;
use pvfs::{ByteRange, Fid, Invalidate, InvalidateAck, Payload, ReadAck, ReadData, ReadReq};
use sim_core::{Ctx, SimTime};
use sim_net::{MessageMeta, NodeId, Port};
use std::collections::hash_map::Entry;

/// A client range still waiting for fetched blocks.
struct WaitingRange {
    range: ByteRange,
    missing: Vec<u64>,
    /// The reply under assembly: each piece that has landed (cached blocks
    /// at interception, fetched ones as they arrive), at its offset in the
    /// range. Joined in offset order once the last block lands; a range
    /// nothing of which was cached is usually covered by one arriving
    /// `ReadData` and forwarded as a window of it instead.
    pieces: Vec<(u32, Payload)>,
}

/// Per (client, request) fetch state.
pub(super) struct PendingFetch {
    fid: Fid,
    client_port: Port,
    waiting: Vec<WaitingRange>,
}

/// One block in flight from its iod.
pub(super) struct InFlight {
    /// When the fetch was sent: prices it when the bytes arrive.
    since: SimTime,
    /// The requests, `(client port, request id)`, waiting on the block,
    /// in the order they asked: the first inline, as a block mostly has
    /// one.
    first: (u16, u64),
    rest: Vec<(u16, u64)>,
    /// An `Invalidate` named the block while it was in flight: the iod no
    /// longer lists this node for it, so its arrival serves the waiters
    /// and is not installed.
    invalidated: bool,
}

impl InFlight {
    fn waiters(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }
}

/// The reply a waiting range's pieces make, in offset order.
fn join(mut pieces: Vec<(u32, Payload)>) -> Payload {
    pieces.sort_unstable_by_key(|&(at, _)| at);
    pieces.into_iter().fold(Payload::new(), |mut out, (_, piece)| {
        out.extend(piece);
        out
    })
}

impl CacheModule {
    pub(super) fn intercept_read(&mut self, ctx: &mut Ctx<'_>, meta: MessageMeta, rr: ReadReq) {
        self.stats.reads_intercepted += 1;
        let now = ctx.now();
        let client_port = rr.reply_to.1;
        let app = self.app_of(client_port);
        let total_blocks: u64 =
            rr.ranges.iter().map(|r| blocks_of_range(r.offset, r.len).count() as u64).sum();
        // FSM + hash lookups for every block of the request.
        let mut t = self.charge(
            now,
            self.costs.cache_call_overhead + self.costs.cache_lookup_per_block * total_blocks,
        );

        let mut served: Vec<(ByteRange, Payload)> = Vec::new();
        let mut waiting: Vec<WaitingRange> = Vec::new();
        let mut fetch_ranges: Vec<ByteRange> = Vec::new();
        let mut hit_blocks = 0u64;

        for r in &rr.ranges {
            // Blocks come in offset order, so a run of hits appends
            // straight from the frames to one payload: a described frame
            // as its descriptor, adjacent ones merged. A missing block
            // closes the run as a piece at its offset in the range.
            let hits_before = hit_blocks;
            let mut run = Payload::new();
            let mut run_at = 0u32;
            let mut pieces: Vec<(u32, Payload)> = Vec::new();
            let mut missing: Vec<u64> = Vec::new();
            for p in pieces_of_range(r.offset, r.len) {
                let mut append = |src: BlockBytes<'_>| {
                    if run.is_empty() {
                        run_at = p.at;
                    }
                    run.push(src.segment());
                };
                let kind = AccessKind::ReadWith { span: p.span, sink: &mut append };
                if self.cache.access(BlockKey::new(rr.fid, p.blk), Access { app, kind }).is_hit() {
                    hit_blocks += 1;
                } else {
                    if !run.is_empty() {
                        pieces.push((run_at, std::mem::take(&mut run)));
                    }
                    missing.push(p.blk);
                }
            }
            if missing.is_empty() {
                served.push((*r, run));
                continue;
            }
            if !run.is_empty() {
                pieces.push((run_at, run));
            }
            // Wait on every missing block, but fetch only those not
            // already in flight (the FSM's pending-block state): a
            // concurrent fetch — possibly for a *different application's*
            // process — will satisfy ours too. The fetch ranges are
            // block-aligned, adjacent blocks coalesced: a cached block in
            // the middle of the range splits the external request (§3.2).
            let waiter = (client_port.0, rr.req_id);
            let mut runs = 0;
            for &blk in &missing {
                let key = BlockKey::new(rr.fid, blk);
                match self.in_flight.entry(key) {
                    Entry::Occupied(e) => {
                        let f = e.into_mut();
                        if !f.waiters().any(|x| x == waiter) {
                            f.rest.push(waiter);
                        }
                        self.stats.dedup_blocks += 1;
                        continue;
                    }
                    Entry::Vacant(e) => {
                        e.insert(InFlight {
                            since: now,
                            first: waiter,
                            rest: Vec::new(),
                            invalidated: false,
                        });
                    }
                }
                let at = key.offset();
                match fetch_ranges.last_mut() {
                    // This range's last fetch run ends here: extend it.
                    Some(last) if runs > 0 && last.end() == at => {
                        last.len += CACHE_BLOCK_SIZE as u32
                    }
                    _ => {
                        fetch_ranges.push(ByteRange::new(at, CACHE_BLOCK_SIZE as u32));
                        runs += 1;
                    }
                }
            }
            if runs > 1 || hit_blocks > hits_before {
                self.stats.request_splits += 1;
            }
            waiting.push(WaitingRange { range: *r, missing, pieces });
        }

        // Copy cost for blocks served from cache.
        if hit_blocks > 0 {
            t = self.charge(t, self.costs.cache_copy_per_block * hit_blocks);
            self.stats.blocks_served += hit_blocks;
        }
        let total: u64 = rr.ranges.iter().map(|r| r.len as u64).sum();
        let full_hit = waiting.is_empty();
        if full_hit {
            // Full hit: fake the ack, serve everything locally, and never
            // touch the network.
            self.stats.full_hits += 1;
            self.stats.fake_read_acks += 1;
            self.send_to_client(ctx, t, client_port, ReadAck { req_id: rr.req_id, bytes: total });
        } else if hit_blocks > 0 {
            self.stats.partial_hits += 1;
        } else {
            self.stats.full_misses += 1;
        }
        // Serve the fully-cached ranges now.
        for (range, data) in served {
            self.stats.bytes_served += range.len as u64;
            let rd = ReadData { req_id: rr.req_id, fid: rr.fid, range, data };
            self.send_to_client(ctx, t, client_port, rd);
        }
        if full_hit {
            return;
        }
        match self.pending.entry((client_port.0, rr.req_id)) {
            Entry::Occupied(mut e) => {
                e.get_mut().waiting.extend(waiting);
            }
            Entry::Vacant(e) => {
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
        // The client already paid the socket-call cost; the in-kernel
        // module only rewrites and passes the buffer onward.
        t = self.charge(t, self.costs.cache_call_overhead);
        self.forward(ctx, t, meta, reduced.wire_bytes(), reduced);
    }

    /// Install block data arriving from its iod `home` and complete every
    /// waiting request.
    pub(super) fn inbound_read_data(&mut self, ctx: &mut Ctx<'_>, home: NodeId, rd: ReadData) {
        let now = ctx.now();
        let nblocks = blocks_of_range(rd.range.offset, rd.range.len).count() as u64;
        self.stats.blocks_fetched += nblocks;
        self.stats.bytes_fetched += rd.range.len as u64;
        let t = self.charge(
            now,
            self.costs.cache_call_overhead + self.costs.cache_insert_per_block * nblocks,
        );
        // Install the fetched blocks and wake every waiter — including
        // waiters belonging to *other processes* whose fetches were
        // suppressed by the pending-block state.
        let mut urgent: Vec<FlushItem> = Vec::new();
        let mut completed: Vec<(Port, ReadData)> = Vec::new();
        // Earliest fetch-initiation time among the blocks this message
        // resolves — the start of the miss-fill span.
        let mut fetch_t0: Option<SimTime> = None;
        for p in pieces_of_range(rd.range.offset, rd.range.len) {
            let key = BlockKey::new(rd.fid, p.blk);
            let fetch = self.in_flight.remove(&key);
            // Attribute the install to the first waiting application; every
            // further application waiting on the same fetch is recorded as
            // an extra referent, once, in waiting order — the
            // inter-application sharing signal the sharing-aware policy
            // ranks by. A block invalidated in flight is neither.
            let first_app = fetch.as_ref().map_or(AppId::UNKNOWN, |f| self.app_of(Port(f.first.0)));
            if !fetch.as_ref().is_some_and(|f| f.invalidated) {
                let arrived = Arrived::of(&rd.data, key, p);
                let kind = match &arrived {
                    Arrived::Own => AccessKind::InsertDescribed { home, span: p.span },
                    Arrived::Bytes(b) => AccessKind::InsertClean { home, span: p.span, bytes: b },
                };
                if let AccessOutcome::Inserted(Some(fl)) =
                    self.cache.access(key, Access { app: first_app, kind })
                {
                    urgent.push(fl);
                }
                if let Some(f) = fetch.as_ref().filter(|f| !f.rest.is_empty()) {
                    let mut seen = vec![first_app];
                    for &(port, _) in &f.rest {
                        let a = self.app_of(Port(port));
                        if !seen.contains(&a) {
                            seen.push(a);
                            self.cache.access(key, Access { app: a, kind: AccessKind::Touch });
                        }
                    }
                }
            }
            self.maybe_schedule_harvest(ctx);
            let Some(fetch) = fetch else {
                continue;
            };
            let ns = now.since(fetch.since).as_nanos();
            self.stats.disk_fetch_blocks += 1;
            self.stats.disk_fetch_ns += ns;
            if let Some(o) = &self.obs {
                o.record_fetch(ns);
            }
            fetch_t0 = Some(fetch_t0.map_or(fetch.since, |t0| t0.min(fetch.since)));
            for (port, req_id) in fetch.waiters() {
                let Some(pf) = self.pending.get_mut(&(port, req_id)) else {
                    continue;
                };
                for w in &mut pf.waiting {
                    let Some(pos) = w.missing.iter().position(|b| *b == p.blk) else {
                        continue;
                    };
                    let wp = BlockPiece::of(p.blk, w.range.offset, w.range.len);
                    debug_assert!(p.span.covers(wp.span), "fetch did not cover the waiter span");
                    // A range that holds no piece yet and lies wholly inside
                    // this message is forwarded as a window of it once its
                    // last block is ticked off; anything else is joined
                    // from pieces.
                    let whole = w.pieces.is_empty()
                        && rd.range.offset <= w.range.offset
                        && w.range.end() <= rd.range.end();
                    if !whole {
                        let src_lo = (w.range.offset + wp.at as u64 - rd.range.offset) as usize;
                        let n = wp.span.len() as usize;
                        w.pieces.push((wp.at, rd.data.slice(src_lo, src_lo + n)));
                    }
                    w.missing.remove(pos);
                    if w.missing.is_empty() {
                        let data = if whole {
                            let lo = (w.range.offset - rd.range.offset) as usize;
                            rd.data.slice(lo, lo + w.range.len as usize)
                        } else {
                            join(std::mem::take(&mut w.pieces))
                        };
                        let rd = ReadData { req_id, fid: pf.fid, range: w.range, data };
                        completed.push((pf.client_port, rd));
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
        self.send_flushes(ctx, t, urgent, true, false);
        for (client_port, rd) in completed {
            self.send_to_client(ctx, t, client_port, rd);
        }
    }

    /// An iod's sync-write invalidation (§3.2): drop the named blocks,
    /// mark those still in flight so their arrival is not installed, and
    /// ack.
    pub(super) fn invalidate(&mut self, ctx: &mut Ctx<'_>, inv: Invalidate) {
        self.stats.invalidate_msgs += 1;
        let t = self.charge(
            ctx.now(),
            self.costs.cache_call_overhead
                + self.costs.cache_lookup_per_block * inv.blocks.len() as u64
                + self.costs.send_overhead,
        );
        let keys = inv.blocks.iter().map(|b| BlockKey::new(inv.fid, *b));
        self.cache.invalidate(keys.clone());
        for key in keys {
            self.in_flight.entry(key).and_modify(|f| f.invalidated = true);
        }
        let ack = InvalidateAck { req_id: inv.req_id };
        self.send_to_net(ctx, t, inv.reply_to, ack.wire_bytes(), ack);
    }
}
