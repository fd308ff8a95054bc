//! Direct tests of the cache module's interception FSM against a scripted
//! iod: fake acknowledgments, request discounting and splitting, pending-
//! block dedup, write absorption and pass-through, flush protocol, and
//! invalidation handling — the mechanisms of §3.2, tested in isolation
//! from the full cluster.

use kcache::{CacheConfig, CacheModule};
use pvfs::{
    pattern_bytes, ByteRange, CostModel, Fid, FlushAck, FlushBlocks, Invalidate, InvalidateAck,
    ReadAck, ReadData, ReadReq, WriteAck, WritePart, WriteReq, CACHE_PORT, CLIENT_PORT_BASE,
    IOD_FLUSH_PORT, IOD_PORT,
};
use sim_core::{Actor, ActorId, Ctx, Dur, Engine, FifoResource, Msg, SimTime};
use sim_net::{Deliver, NetMessage, NodeId, Port, Xmit};
use std::any::Any;

const CLIENT: u16 = 0; // node 0 runs the module + client; node 1 the iod
const IOD: u16 = 1;

/// Scripted iod: answers read requests with pattern data after a fixed
/// delay; records everything it sees.
struct ScriptedIod {
    fabric: ActorId,
    reads: Vec<ReadReq>,
    writes: Vec<WriteReq>,
    flushes: Vec<FlushBlocks>,
    delay: Dur,
    tag: u64,
}

impl ScriptedIod {
    fn reply(&mut self, ctx: &mut Ctx<'_>, dst: (NodeId, Port), wire: u32, payload: impl Any) {
        self.tag += 1;
        let m = NetMessage::new((NodeId(IOD), IOD_PORT), dst, wire, self.tag, payload);
        ctx.schedule_in(self.delay, self.fabric, Xmit(m));
    }
}

impl Actor for ScriptedIod {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let d = match msg.cast::<Deliver>() {
            Ok(d) => d.0,
            Err(_) => return,
        };
        let d = match d.cast::<ReadReq>() {
            Ok((_, rr)) => {
                let total: u64 = rr.ranges.iter().map(|r| r.len as u64).sum();
                self.reply(ctx, rr.reply_to, 64, ReadAck { req_id: rr.req_id, bytes: total });
                for r in &rr.ranges {
                    let rd = ReadData {
                        req_id: rr.req_id,
                        fid: rr.fid,
                        range: *r,
                        data: pattern_bytes(rr.fid, r.offset, r.len as usize),
                    };
                    let wire = rd.wire_bytes();
                    self.reply(ctx, rr.reply_to, wire, rd);
                }
                self.reads.push(*rr);
                return;
            }
            Err(d) => d,
        };
        let d = match d.cast::<WriteReq>() {
            Ok((_, wr)) => {
                let ack = WriteAck { req_id: wr.req_id, bytes: wr.total_bytes() };
                self.reply(ctx, wr.reply_to, 64, ack);
                self.writes.push(*wr);
                return;
            }
            Err(d) => d,
        };
        if let Ok((_, f)) = d.cast::<FlushBlocks>() {
            let ack = FlushAck { req_id: f.req_id };
            self.tag += 1;
            let m = NetMessage::new((NodeId(IOD), IOD_FLUSH_PORT), f.reply_to, 64, self.tag, ack);
            ctx.schedule_in(self.delay, self.fabric, Xmit(m));
            self.flushes.push(*f);
        }
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

/// Records what the client process receives.
struct ClientProbe {
    acks: Vec<(ReadAck, SimTime)>,
    data: Vec<ReadData>,
    wacks: Vec<WriteAck>,
}
impl Actor for ClientProbe {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let d = match msg.cast::<Deliver>() {
            Ok(d) => d.0,
            Err(_) => return,
        };
        let d = match d.cast::<ReadAck>() {
            Ok((_, a)) => return self.acks.push((*a, ctx.now())),
            Err(d) => d,
        };
        let d = match d.cast::<ReadData>() {
            Ok((_, r)) => return self.data.push(*r),
            Err(d) => d,
        };
        if let Ok((_, a)) = d.cast::<WriteAck>() {
            self.wacks.push(*a);
        }
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

struct Rig {
    eng: Engine,
    module: ActorId,
    iod: ActorId,
    client: ActorId,
}

fn rig_with(cfg: CacheConfig) -> Rig {
    let mut eng = Engine::new(3);
    let fabric_slot = eng.reserve_actor();
    let net0 = eng.reserve_actor();
    let net1 = eng.reserve_actor();
    eng.install(
        fabric_slot,
        Box::new(sim_net::Fabric::new(sim_net::NetConfig::hub_100mbps(), vec![net0, net1])),
    );
    let iod = eng.add_actor(Box::new(ScriptedIod {
        fabric: fabric_slot,
        reads: vec![],
        writes: vec![],
        flushes: vec![],
        delay: Dur::micros(500),
        tag: 0,
    }));
    let client = eng.add_actor(Box::new(ClientProbe { acks: vec![], data: vec![], wacks: vec![] }));
    let mut module = CacheModule::new(
        NodeId(CLIENT),
        fabric_slot,
        FifoResource::shared("cpu0"),
        CostModel::default(),
        cfg,
    );
    let client_port = Port(CLIENT_PORT_BASE);
    module.register_client(client_port, client, kcache::AppId(0));
    let module = eng.add_actor(Box::new(module));
    // Node 0: client port + cache port → module. Node 1: iod ports.
    let mut n0 = sim_net::NodeNet::new(NodeId(CLIENT));
    n0.bind(client_port, module);
    n0.bind(CACHE_PORT, module);
    eng.install(net0, Box::new(n0));
    let mut n1 = sim_net::NodeNet::new(NodeId(IOD));
    n1.bind(IOD_PORT, iod);
    n1.bind(IOD_FLUSH_PORT, iod);
    eng.install(net1, Box::new(n1));
    Rig { eng, module, iod, client }
}

fn rig() -> Rig {
    rig_with(CacheConfig::paper())
}

/// The client's outbound request, as libpvfs would send it.
fn read_req(req_id: u64, ranges: Vec<ByteRange>) -> Xmit {
    let rr = ReadReq {
        req_id,
        fid: Fid(1),
        ranges,
        reply_to: (NodeId(CLIENT), Port(CLIENT_PORT_BASE)),
        caching: true,
    };
    let wire = rr.wire_bytes();
    Xmit(NetMessage::new(
        (NodeId(CLIENT), Port(CLIENT_PORT_BASE)),
        (NodeId(IOD), IOD_PORT),
        wire,
        0,
        rr,
    ))
}

fn write_req(req_id: u64, range: ByteRange, sync: bool) -> Xmit {
    let wr = WriteReq {
        req_id,
        fid: Fid(1),
        parts: vec![WritePart {
            range,
            data: pattern_bytes(Fid(1), range.offset, range.len as usize),
        }],
        reply_to: (NodeId(CLIENT), Port(CLIENT_PORT_BASE)),
        caching: true,
        sync,
    };
    let wire = wr.wire_bytes();
    Xmit(NetMessage::new(
        (NodeId(CLIENT), Port(CLIENT_PORT_BASE)),
        (NodeId(IOD), IOD_PORT),
        wire,
        0,
        wr,
    ))
}

#[test]
fn cold_read_forwards_block_aligned_then_repeat_is_faked_locally() {
    let mut r = rig();
    // 6000 bytes at offset 1000: blocks 0 and 1.
    r.eng.post(Dur::ZERO, r.module, read_req(1, vec![ByteRange::new(1000, 6000)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(100));
    {
        let iod = r.eng.actor_as::<ScriptedIod>(r.iod).unwrap();
        assert_eq!(iod.reads.len(), 1, "miss must forward");
        // Fetch is rounded to whole blocks.
        assert_eq!(iod.reads[0].ranges, vec![ByteRange::new(0, 8192)]);
        let c = r.eng.actor_as::<ClientProbe>(r.client).unwrap();
        assert_eq!(c.acks.len(), 1, "iod ack forwarded");
        assert_eq!(c.data.len(), 1);
        assert_eq!(c.data[0].range, ByteRange::new(1000, 6000), "client sees its own range");
        let expect = pattern_bytes(Fid(1), 1000, 6000);
        assert_eq!(c.data[0].data, expect, "assembled bytes match the file pattern");
    }
    // Same read again: served from cache, nothing new on the wire, ack faked.
    r.eng.post(Dur::ZERO, r.module, read_req(2, vec![ByteRange::new(1000, 6000)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(200));
    let iod = r.eng.actor_as::<ScriptedIod>(r.iod).unwrap();
    assert_eq!(iod.reads.len(), 1, "hit must not reach the iod");
    let c = r.eng.actor_as::<ClientProbe>(r.client).unwrap();
    assert_eq!(c.acks.len(), 2);
    assert_eq!(c.data.len(), 2);
    assert_eq!(c.data[1].data, pattern_bytes(Fid(1), 1000, 6000));
    let m = r.eng.actor_as::<CacheModule>(r.module).unwrap();
    assert_eq!(m.stats().full_hits, 1);
    assert_eq!(m.stats().fake_read_acks, 1);
}

#[test]
fn cached_block_in_the_middle_splits_the_request() {
    let mut r = rig();
    // Warm block 1 (bytes 4096..8192).
    r.eng.post(Dur::ZERO, r.module, read_req(1, vec![ByteRange::new(4096, 4096)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(100));
    // Request blocks 0..2: block 1 is cached, so the outgoing request must
    // carry two ranges around it (the paper's request splitting).
    r.eng.post(Dur::ZERO, r.module, read_req(2, vec![ByteRange::new(0, 3 * 4096)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(200));
    let iod = r.eng.actor_as::<ScriptedIod>(r.iod).unwrap();
    assert_eq!(iod.reads.len(), 2);
    assert_eq!(
        iod.reads[1].ranges,
        vec![ByteRange::new(0, 4096), ByteRange::new(8192, 4096)],
        "cached middle block must be discounted"
    );
    let m = r.eng.actor_as::<CacheModule>(r.module).unwrap();
    assert!(m.stats().request_splits >= 1);
    // Client still receives its single contiguous range, correct bytes.
    let c = r.eng.actor_as::<ClientProbe>(r.client).unwrap();
    let last = c.data.last().unwrap();
    assert_eq!(last.range, ByteRange::new(0, 3 * 4096));
    assert_eq!(last.data, pattern_bytes(Fid(1), 0, 3 * 4096));
}

#[test]
fn concurrent_requests_for_same_block_fetch_once() {
    let mut r = rig();
    // Two different "processes" (same port here, distinct req ids) ask for
    // the same cold block back to back, before the fetch returns.
    r.eng.post(Dur::ZERO, r.module, read_req(1, vec![ByteRange::new(0, 4096)]));
    r.eng.post(Dur::micros(10), r.module, read_req(2, vec![ByteRange::new(0, 4096)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(100));
    let iod = r.eng.actor_as::<ScriptedIod>(r.iod).unwrap();
    assert_eq!(iod.reads.len(), 1, "second fetch must be deduplicated");
    let c = r.eng.actor_as::<ClientProbe>(r.client).unwrap();
    assert_eq!(c.acks.len(), 2, "both requests acknowledged (one real, one faked)");
    assert_eq!(c.data.len(), 2, "both requests served data");
    assert_eq!(c.data[0].data, c.data[1].data);
    let m = r.eng.actor_as::<CacheModule>(r.module).unwrap();
    assert_eq!(m.stats().dedup_blocks, 1);
}

#[test]
fn write_is_absorbed_acked_locally_then_flushed() {
    let mut r = rig();
    r.eng.post(Dur::ZERO, r.module, write_req(1, ByteRange::new(0, 8192), false));
    // Run shortly: ack must be faked before any flush round-trip.
    r.eng.run_until(SimTime::ZERO + Dur::millis(2));
    {
        let c = r.eng.actor_as::<ClientProbe>(r.client).unwrap();
        assert_eq!(c.wacks.len(), 1, "write-behind must ack locally");
        let iod = r.eng.actor_as::<ScriptedIod>(r.iod).unwrap();
        assert!(iod.writes.is_empty(), "no synchronous write to the iod");
        assert!(iod.flushes.is_empty(), "flusher has not ticked yet");
    }
    // After a flush interval the dirty blocks reach the iod's flush port.
    r.eng.run_until(SimTime::ZERO + Dur::secs(2));
    let iod = r.eng.actor_as::<ScriptedIod>(r.iod).unwrap();
    assert_eq!(iod.flushes.len(), 1);
    let f = &iod.flushes[0];
    assert_eq!(f.blocks.len(), 2);
    assert_eq!(f.blocks[0].data, pattern_bytes(Fid(1), 0, 4096));
    let m = r.eng.actor_as::<CacheModule>(r.module).unwrap();
    assert_eq!(m.stats().fake_write_acks, 1);
    assert_eq!(m.stats().flush_msgs, 1);
}

#[test]
fn write_through_ablation_forwards_everything() {
    let cfg = CacheConfig { write_behind: false, ..CacheConfig::paper() };
    let mut r = rig_with(cfg);
    r.eng.post(Dur::ZERO, r.module, write_req(1, ByteRange::new(0, 4096), false));
    r.eng.run_until(SimTime::ZERO + Dur::millis(100));
    let iod = r.eng.actor_as::<ScriptedIod>(r.iod).unwrap();
    assert_eq!(iod.writes.len(), 1, "write-through must reach the iod");
    let c = r.eng.actor_as::<ClientProbe>(r.client).unwrap();
    assert_eq!(c.wacks.len(), 1, "ack comes from the iod");
    let m = r.eng.actor_as::<CacheModule>(r.module).unwrap();
    assert_eq!(m.stats().fake_write_acks, 0);
}

#[test]
fn sync_write_passes_through_and_updates_cached_copy() {
    let mut r = rig();
    // Cache block 0 via a read.
    r.eng.post(Dur::ZERO, r.module, read_req(1, vec![ByteRange::new(0, 4096)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(50));
    // Sync-write the same block.
    r.eng.post(Dur::ZERO, r.module, write_req(2, ByteRange::new(0, 4096), true));
    r.eng.run_until(SimTime::ZERO + Dur::millis(150));
    let iod = r.eng.actor_as::<ScriptedIod>(r.iod).unwrap();
    assert_eq!(iod.writes.len(), 1, "sync write must reach the iod");
    assert!(iod.writes[0].sync);
    let m = r.eng.actor_as::<CacheModule>(r.module).unwrap();
    assert_eq!(m.stats().sync_writes, 1);
    // A subsequent read hits the (updated) local copy.
    r.eng.post(Dur::ZERO, r.module, read_req(3, vec![ByteRange::new(0, 4096)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(250));
    let iod = r.eng.actor_as::<ScriptedIod>(r.iod).unwrap();
    assert_eq!(iod.reads.len(), 1, "read after sync-write still hits locally");
}

#[test]
fn invalidation_drops_blocks_and_acks_the_iod() {
    let mut r = rig();
    // Cache blocks 0-1.
    r.eng.post(Dur::ZERO, r.module, read_req(1, vec![ByteRange::new(0, 8192)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(50));
    // The iod (conceptually, on behalf of another node's sync write) sends
    // an invalidation to the module's cache port.
    let inv = Invalidate {
        req_id: 77,
        fid: Fid(1),
        blocks: vec![0, 1],
        reply_to: (NodeId(IOD), IOD_PORT),
    };
    let wire = inv.wire_bytes();
    let m = NetMessage::new((NodeId(IOD), IOD_PORT), (NodeId(CLIENT), CACHE_PORT), wire, 0, inv);
    // Deliver through the fabric like real traffic.
    let fabric = {
        // fabric is actor 0 (first reserved); simplest: send via module's rig
        // knowledge — post directly to the module as a Deliver.
        m
    };
    r.eng.post(Dur::ZERO, r.module, Deliver(fabric));
    r.eng.run_until(SimTime::ZERO + Dur::millis(100));
    let module = r.eng.actor_as::<CacheModule>(r.module).unwrap();
    assert_eq!(module.stats().invalidate_msgs, 1);
    assert_eq!(module.cache().stats().invalidated, 2);
    // Next read misses and refetches.
    r.eng.post(Dur::ZERO, r.module, read_req(2, vec![ByteRange::new(0, 8192)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(200));
    let iod = r.eng.actor_as::<ScriptedIod>(r.iod).unwrap();
    assert_eq!(iod.reads.len(), 2, "invalidated blocks must be refetched");
}

#[test]
fn invalidate_ack_reaches_the_iod_port() {
    // Ensure the InvalidateAck is actually emitted onto the wire toward the
    // iod (the sync-writer's ack depends on it).
    struct AckCatcher {
        acks: u64,
    }
    impl Actor for AckCatcher {
        fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
            if let Ok(d) = msg.cast::<Deliver>() {
                if d.0.peek::<InvalidateAck>().is_some() {
                    self.acks += 1;
                }
            }
        }
        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
            Some(self)
        }
    }
    let mut eng = Engine::new(5);
    let fabric_slot = eng.reserve_actor();
    let net0 = eng.reserve_actor();
    let net1 = eng.reserve_actor();
    eng.install(
        fabric_slot,
        Box::new(sim_net::Fabric::new(sim_net::NetConfig::hub_100mbps(), vec![net0, net1])),
    );
    let catcher = eng.add_actor(Box::new(AckCatcher { acks: 0 }));
    let module = eng.add_actor(Box::new(CacheModule::new(
        NodeId(0),
        fabric_slot,
        FifoResource::shared("cpu"),
        CostModel::default(),
        CacheConfig::paper(),
    )));
    let mut n0 = sim_net::NodeNet::new(NodeId(0));
    n0.bind(CACHE_PORT, module);
    eng.install(net0, Box::new(n0));
    let mut n1 = sim_net::NodeNet::new(NodeId(1));
    n1.bind(IOD_PORT, catcher);
    eng.install(net1, Box::new(n1));
    let inv =
        Invalidate { req_id: 9, fid: Fid(4), blocks: vec![3], reply_to: (NodeId(1), IOD_PORT) };
    let wire = inv.wire_bytes();
    eng.post(
        Dur::ZERO,
        module,
        Deliver(NetMessage::new((NodeId(1), IOD_PORT), (NodeId(0), CACHE_PORT), wire, 0, inv)),
    );
    eng.run_until(SimTime::ZERO + Dur::millis(50));
    assert_eq!(eng.actor_as::<AckCatcher>(catcher).unwrap().acks, 1);
}

#[test]
fn bytes_of_pattern_survive_partial_hit_assembly() {
    let mut r = rig();
    // Warm blocks 2 and 5 individually.
    r.eng.post(Dur::ZERO, r.module, read_req(1, vec![ByteRange::new(2 * 4096, 4096)]));
    r.eng.post(Dur::millis(5), r.module, read_req(2, vec![ByteRange::new(5 * 4096, 4096)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(50));
    // Read blocks 0..8 with an unaligned tail: mixture of hits and misses.
    r.eng.post(Dur::ZERO, r.module, read_req(3, vec![ByteRange::new(100, 8 * 4096)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(200));
    let c = r.eng.actor_as::<ClientProbe>(r.client).unwrap();
    let last = c.data.last().unwrap();
    assert_eq!(last.range, ByteRange::new(100, 8 * 4096));
    assert_eq!(
        last.data,
        pattern_bytes(Fid(1), 100, 8 * 4096),
        "partial-hit assembly corrupted data"
    );
}

#[test]
fn covered_cold_ranges_are_forwarded_as_windows_of_the_arriving_data() {
    let mut r = rig();
    // Nothing cached. Request 1 fetches blocks 0..1; request 2 wants a few
    // bytes of block 1 while that fetch is in flight. The one arriving
    // ReadData covers both ranges, so both replies are views of it.
    r.eng.post(Dur::ZERO, r.module, read_req(1, vec![ByteRange::new(1000, 6000)]));
    r.eng.post(Dur::micros(10), r.module, read_req(2, vec![ByteRange::new(4106, 100)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(100));
    let iod = r.eng.actor_as::<ScriptedIod>(r.iod).unwrap();
    assert_eq!(iod.reads.len(), 1);
    let c = r.eng.actor_as::<ClientProbe>(r.client).unwrap();
    let of = |id| c.data.iter().find(|d| d.req_id == id).unwrap();
    assert_eq!(of(1).data, pattern_bytes(Fid(1), 1000, 6000));
    assert_eq!(of(2).data, pattern_bytes(Fid(1), 4106, 100));
    assert_eq!(
        of(2).data.as_ptr(),
        of(1).data.as_ptr().wrapping_add(4106 - 1000),
        "both replies window the one fetched buffer"
    );
}

#[test]
fn cold_range_arriving_in_pieces_is_assembled_by_copy() {
    let mut r = rig();
    // Block 1 is in flight for request 1 when request 2 asks for blocks
    // 0..2: it fetches 0 and 2 as two ranges and waits on 1, so its one
    // range fills from three messages, none of which covers it.
    r.eng.post(Dur::ZERO, r.module, read_req(1, vec![ByteRange::new(4096, 4096)]));
    r.eng.post(Dur::micros(10), r.module, read_req(2, vec![ByteRange::new(50, 3 * 4096 - 100)]));
    r.eng.run_until(SimTime::ZERO + Dur::millis(100));
    let iod = r.eng.actor_as::<ScriptedIod>(r.iod).unwrap();
    assert_eq!(iod.reads[1].ranges, vec![ByteRange::new(0, 4096), ByteRange::new(8192, 4096)]);
    let c = r.eng.actor_as::<ClientProbe>(r.client).unwrap();
    let d = c.data.iter().find(|d| d.req_id == 2).unwrap();
    assert_eq!(d.range, ByteRange::new(50, 3 * 4096 - 100));
    assert_eq!(d.data, pattern_bytes(Fid(1), 50, 3 * 4096 - 100));
}
