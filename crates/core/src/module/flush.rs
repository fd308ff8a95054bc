//! The flusher and the harvester: dirty blocks shipped to their iods'
//! flush listeners, on a tick, on each ack while a backlog remains, and
//! when the free list runs low. Owns `inflight_flushes`, `flush_seq` and
//! `harvest_scheduled`.

use super::CacheModule;
use crate::block::{BlockKey, Span};
use crate::manager::FlushItem;
use bytes::Bytes;
use pvfs::{Fid, FlushAck, FlushBlocks, FlushEntry, CACHE_PORT, IOD_FLUSH_PORT};
use sim_core::{Ctx, SimTime};
use sim_net::NodeId;
use std::collections::BTreeMap;

pub(super) struct FlushTick;
pub(super) struct HarvestNow;

impl CacheModule {
    #[inline]
    pub(super) fn maybe_schedule_harvest(&mut self, ctx: &mut Ctx<'_>) {
        if !self.harvest_scheduled && self.cache.needs_harvest() {
            self.harvest_scheduled = true;
            ctx.schedule_self(self.cfg.harvester_wakeup, HarvestNow);
        }
    }

    /// Ship flush items to their home iods (grouped per iod+fid).
    /// `resident` items stay in the cache until their FlushAck arrives;
    /// eviction victims are gone from the cache already.
    pub(super) fn send_flushes(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut at: SimTime,
        items: Vec<FlushItem>,
        urgent: bool,
        resident: bool,
    ) {
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
        for ((home, fid), entries) in groups {
            let nblocks = entries.len() as u64;
            let cpu = self.costs.send_overhead + self.costs.cache_copy_per_block * nblocks / 4;
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
            let wire = f.wire_bytes();
            self.send_to_net(ctx, at, (home, IOD_FLUSH_PORT), wire, f);
            self.stats.flush_msgs += 1;
        }
    }

    /// Ship up to a batch of dirty blocks to their iods, kept resident
    /// until acked.
    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        let items = self.cache.take_dirty(self.cfg.flush_batch);
        let now = ctx.now();
        self.send_flushes(ctx, now, items, false, true);
    }

    pub(super) fn flush_acked(&mut self, ctx: &mut Ctx<'_>, ack: FlushAck) {
        if let Some(done) = self.inflight_flushes.remove(&ack.req_id) {
            for (key, span) in done {
                self.cache.flush_complete(key, span);
            }
        }
        // Keep the drain pipeline full while a backlog remains.
        self.drain(ctx);
    }

    pub(super) fn flush_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.drain(ctx);
        ctx.schedule_self(self.cfg.flush_interval, FlushTick);
    }

    pub(super) fn harvest_now(&mut self, ctx: &mut Ctx<'_>) {
        self.harvest_scheduled = false;
        self.stats.harvest_runs += 1;
        let items = self.cache.harvest();
        let t = self.charge(ctx.now(), self.costs.cache_lookup_per_block * 8);
        self.send_flushes(ctx, t, items, true, true);
        // If still below the watermark (everything dirty and in flight),
        // try again after the next wakeup.
        self.maybe_schedule_harvest(ctx);
    }
}
