//! The module's half of the cooperative remote-hit tier.
//!
//! There is no lookup on the miss path: a miss goes to its iod exactly as
//! with the tier off. Only a block the iod would read from its platter,
//! and that the iod's directory lists another node as caching, is
//! forwarded to that node ([`PeerReadReq`]). This file is both ends of
//! that forward:
//!
//! * **serving** ([`CacheModule::serve_peer_read`]): the sharer sends the
//!   blocks it holds straight to the requester's cache port, and bounces
//!   the rest to the iod ([`PeerBounce`]), which reads them from the
//!   platter — a stale entry costs one forward, never wrong bytes;
//! * **installing** ([`CacheModule::install_peer_reply`]): the requester
//!   takes the unsolicited reply through the ordinary data-arrival path,
//!   so waiters complete exactly as for iod data.
//!
//! It also keeps the iods' directories honest. Every message this module
//! sends an iod carries its message count, which stamps what the message
//! registers; every block the buffer manager drops is logged, stamped
//! with the count at the time, as an eviction notice ([`Dropped`]) for
//! its home iod. The notices ride the next bounce to that iod: a stale
//! entry costs one forward and clears the sharer's others there, and a
//! tier that never forwards sends none — not one byte more on the wire
//! than node-local caching. Each home keeps only the newest notices, as
//! many as the cache holds blocks, so a tier that never forwards does not
//! hoard one per block it ever dropped: a forgotten notice leaves its
//! entry to cost one forward, whose bounce then clears it.

use super::CacheModule;
use crate::block::{BlockKey, Span, CACHE_BLOCK_SIZE};
use bytes::Bytes;
use kcache_obs::Phase;
use kcache_policy::hash::KeyMap;
use pvfs::{
    ByteRange, Dropped, Fid, PeerBounce, PeerReadReply, PeerReadReq, ReadData, CACHE_PORT, IOD_PORT,
};
use sim_core::{Ctx, Dur, SimTime};
use sim_net::{NetMessage, NodeId, Port, TrafficClass};
use std::any::Any;
use std::collections::VecDeque;

/// Eviction notices waiting for a bounce to their home iod.
pub(super) struct Notices {
    /// Per home iod, oldest first, at most `cap` each. A block dropped
    /// twice is listed twice; the iod applies both, and the later one
    /// does all the earlier one did.
    pending: KeyMap<NodeId, VecDeque<Dropped>>,
    /// The cache's capacity in blocks.
    cap: usize,
    /// Messages sent to iods so far.
    sent: u64,
}

impl Notices {
    pub(super) fn new(cap: usize) -> Notices {
        Notices { pending: KeyMap::default(), cap, sent: 0 }
    }

    fn log(&mut self, home: NodeId, fid: Fid, blk: u64) {
        let q = self.pending.entry(home).or_default();
        q.push_back(Dropped { fid, blk, seq: self.sent });
        if q.len() > self.cap {
            q.pop_front();
        }
    }
}

impl CacheModule {
    /// Stamp for a message about to go to an iod (`None` with the tier
    /// off): the buffer manager's drops so far are logged against the
    /// previous count first.
    pub(super) fn next_seq(&mut self) -> Option<u64> {
        self.log_drops();
        let notices = self.coop.as_mut()?;
        notices.sent += 1;
        Some(notices.sent)
    }

    fn log_drops(&mut self) {
        let Some(notices) = self.coop.as_mut() else {
            return;
        };
        for (key, home) in self.cache.take_evicted() {
            notices.log(home, key.fid, key.blk);
        }
    }

    /// Serve a read `home` forwarded to us out of our cache. Reads bypass
    /// all local accounting ([`crate::BufferManager::read_resident`]):
    /// remote traffic must not distort this node's hit ratio or recency.
    pub(super) fn serve_peer_read(&mut self, ctx: &mut Ctx<'_>, home: NodeId, pr: PeerReadReq) {
        self.stats.peer_reqs_served += 1;
        let now = ctx.now();
        let mut t = self.charge(
            now,
            self.costs.cache_call_overhead
                + Dur::nanos(self.costs.cache_lookup_per_block.as_nanos() * pr.blocks.len() as u64),
        );
        let mut hits: Vec<(u64, Bytes)> = Vec::new();
        let mut misses: Vec<u64> = Vec::new();
        for &blk in &pr.blocks {
            let mut buf = Vec::with_capacity(CACHE_BLOCK_SIZE);
            if self.cache.read_resident(BlockKey::new(pr.fid, blk), Span::FULL, &mut buf) {
                hits.push((blk, Bytes::from(buf)));
            } else {
                misses.push(blk);
            }
        }
        if !hits.is_empty() {
            t = self.charge(
                t,
                Dur::nanos(self.costs.cache_copy_per_block.as_nanos() * hits.len() as u64),
            );
        }
        self.stats.peer_blocks_served += hits.len() as u64;
        self.stats.peer_bytes_served += hits.len() as u64 * CACHE_BLOCK_SIZE as u64;
        self.stats.remote_stale_blocks += misses.len() as u64;
        if let Some(o) = &self.obs {
            // Peer-serve span on our lane, and the iod's flow: it steps
            // through us on to the requester, or ends here when nothing
            // is left to send it.
            o.hub.span(
                o.ev_peer_serve,
                o.node,
                2,
                now.nanos(),
                t.since(now).as_nanos(),
                pr.blocks.len() as u64,
                hits.len() as u64,
            );
            o.stale_hints.add(misses.len() as u64);
            let phase = if hits.is_empty() { Phase::FlowEnd } else { Phase::FlowStep };
            o.hub.flow(o.ev_flow, phase, now.nanos(), o.node, 2, pr.flow);
        }
        if !hits.is_empty() {
            t = self.charge(t, self.costs.send_overhead);
            let reply = PeerReadReply { fid: pr.fid, home, hits, flow: pr.flow };
            self.send_peer(ctx, t, (pr.reply_to.0, CACHE_PORT), reply.wire_bytes(), reply);
        }
        if !misses.is_empty() {
            t = self.charge(t, self.costs.send_overhead);
            let dropped = self.bounce_notices(home, pr.fid, &misses);
            let bounce = PeerBounce {
                req_id: pr.req_id,
                fid: pr.fid,
                blocks: misses,
                reply_to: pr.reply_to,
                dropped,
            };
            self.send_peer(ctx, t, (home, IOD_PORT), bounce.wire_bytes(), bounce);
        }
    }

    /// The eviction notices a bounce of `misses` to `home` carries: the
    /// drops still logged for `home`, and the bounced blocks themselves —
    /// but not one we are fetching ourselves: that registration is fresh.
    fn bounce_notices(&mut self, home: NodeId, fid: Fid, misses: &[u64]) -> Vec<Dropped> {
        self.log_drops();
        let Some(notices) = self.coop.as_mut() else {
            return Vec::new();
        };
        for &b in misses {
            if !self.fetching.contains_key(&BlockKey::new(fid, b)) {
                notices.log(home, fid, b);
            }
        }
        notices.pending.remove(&home).map(Vec::from).unwrap_or_default()
    }

    /// A sharer's reply to a read our iod forwarded: install the blocks
    /// through the normal data-arrival path (waiters — including other
    /// processes' — complete exactly as for an iod reply).
    pub(super) fn install_peer_reply(&mut self, ctx: &mut Ctx<'_>, reply: PeerReadReply) {
        if let Some(o) = &self.obs {
            o.hub.flow(o.ev_flow, Phase::FlowEnd, ctx.now().nanos(), o.node, 1, reply.flow);
        }
        for (blk, data) in reply.hits {
            let range = ByteRange::new(blk * CACHE_BLOCK_SIZE as u64, CACHE_BLOCK_SIZE as u32);
            // req_id unused: waiters are keyed by block.
            let rd = ReadData { req_id: 0, fid: reply.fid, range, data };
            self.inbound_read_data(ctx, reply.home, rd, true);
        }
    }

    fn send_peer(
        &mut self,
        ctx: &mut Ctx<'_>,
        at: SimTime,
        dst: (NodeId, Port),
        wire: u32,
        payload: impl Any,
    ) {
        self.tag += 1;
        let m = NetMessage::new((self.node, CACHE_PORT), dst, wire, self.tag, payload)
            .with_class(TrafficClass::Peer);
        self.send_to_net(ctx, at, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_home_keeps_only_its_newest_notices() {
        let mut n = Notices::new(2);
        for blk in 0..5 {
            n.sent = blk;
            n.log(NodeId(1), Fid(1), blk);
        }
        n.log(NodeId(2), Fid(1), 9);
        let kept: Vec<(u64, u64)> = n.pending[&NodeId(1)].iter().map(|d| (d.blk, d.seq)).collect();
        assert_eq!(kept, [(3, 3), (4, 4)], "the oldest are forgotten");
        assert_eq!(n.pending[&NodeId(2)].len(), 1, "each home has its own");
    }
}
