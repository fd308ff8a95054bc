use super::*;
use crate::protocol::{pattern_byte, pattern_bytes, FlushEntry, WritePart};
use sim_core::{Engine, FifoResource};
use sim_disk::{DiskGeometry, DiskSched};
use sim_net::{Fabric, NetConfig};

/// Endpoint that records every delivered protocol message.
struct Client {
    acks: Vec<ReadAck>,
    data: Vec<ReadData>,
    /// When each of `data` arrived.
    data_at: Vec<SimTime>,
    wacks: Vec<WriteAck>,
    facks: Vec<FlushAck>,
    invs: Vec<(Invalidate, SimTime)>,
    auto_ack_invalidate: bool,
    fabric: ActorId,
    node: NodeId,
}

impl Actor for Client {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let d = match msg.cast::<Deliver>() {
            Ok(d) => d.0,
            Err(_) => return,
        };
        let d = match d.cast::<ReadAck>() {
            Ok((_, a)) => return self.acks.push(*a),
            Err(d) => d,
        };
        let d = match d.cast::<ReadData>() {
            Ok((_, r)) => {
                self.data_at.push(ctx.now());
                return self.data.push(*r);
            }
            Err(d) => d,
        };
        let d = match d.cast::<WriteAck>() {
            Ok((_, a)) => return self.wacks.push(*a),
            Err(d) => d,
        };
        let d = match d.cast::<FlushAck>() {
            Ok((_, a)) => return self.facks.push(*a),
            Err(d) => d,
        };
        if let Ok((_, inv)) = d.cast::<Invalidate>() {
            if self.auto_ack_invalidate {
                let ack = InvalidateAck { req_id: inv.req_id };
                let m = NetMessage::new(
                    (self.node, CACHE_PORT),
                    inv.reply_to,
                    ack.wire_bytes(),
                    0,
                    ack,
                );
                ctx.schedule_in(Dur::ZERO, self.fabric, Xmit(m));
            }
            self.invs.push((*inv, ctx.now()));
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
    iod: ActorId,
    clients: Vec<ActorId>,
    fabric: ActorId,
}

/// Node 0 runs the iod; nodes 1.. are client endpoints.
fn rig(n_clients: usize) -> Rig {
    let mut eng = Engine::new(7);
    let fabric_slot = eng.reserve_actor();
    let disk =
        eng.add_actor(Box::new(sim_disk::Disk::new(DiskGeometry::maxtor_20gb(), DiskSched::CLook)));
    let iod = eng.add_actor(Box::new(Iod::new(
        NodeId(0),
        fabric_slot,
        disk,
        FifoResource::shared("iod-cpu"),
        CostModel::default(),
        PvfsConfig::default(),
        1 << 20,
    )));
    let mut endpoints = vec![iod];
    let mut clients = Vec::new();
    for i in 0..n_clients {
        let c = eng.add_actor(Box::new(Client {
            acks: vec![],
            data: vec![],
            data_at: vec![],
            wacks: vec![],
            facks: vec![],
            invs: vec![],
            auto_ack_invalidate: true,
            fabric: fabric_slot,
            node: NodeId(i as u16 + 1),
        }));
        endpoints.push(c);
        clients.push(c);
    }
    eng.install(fabric_slot, Box::new(Fabric::new(NetConfig::hub_100mbps(), endpoints)));
    Rig { eng, iod, clients, fabric: fabric_slot }
}

fn send_to_iod(rig: &mut Rig, from: u16, port: Port, wire: u32, payload: impl Any) {
    send_to_iod_in(rig, Dur::ZERO, from, port, wire, payload);
}

fn send_to_iod_in(rig: &mut Rig, d: Dur, from: u16, port: Port, wire: u32, payload: impl Any) {
    let m = NetMessage::new((NodeId(from), Port(9000)), (NodeId(0), port), wire, 0, payload);
    rig.eng.post(d, rig.fabric, Xmit(m));
}

#[test]
fn preloaded_warm_read_serves_without_disk() {
    let mut r = rig(1);
    {
        let iod = r.eng.actor_as_mut::<Iod>(r.iod).unwrap();
        iod.preload(Fid(1), &[ByteRange::new(0, 65536)], true);
    }
    let req = ReadReq {
        req_id: 42,
        fid: Fid(1),
        ranges: vec![ByteRange::new(0, 8192)],
        reply_to: (NodeId(1), Port(9000)),
        caching: false,
    };
    let wire = req.wire_bytes();
    send_to_iod(&mut r, 1, IOD_PORT, wire, req);
    r.eng.run_until(SimTime::ZERO + Dur::secs(1));
    let c = r.eng.actor_as::<Client>(r.clients[0]).unwrap();
    assert_eq!(c.acks.len(), 1);
    assert_eq!(c.acks[0].bytes, 8192);
    assert_eq!(c.data.len(), 1);
    assert_eq!(c.data[0].data.len(), 8192);
    // Data integrity: pattern bytes round-trip.
    for (i, b) in c.data[0].data.iter().enumerate() {
        assert_eq!(*b, pattern_byte(Fid(1), i as u64), "byte {} corrupted", i);
    }
    let iod = r.eng.actor_as::<Iod>(r.iod).unwrap();
    assert_eq!(iod.stats().disk_reads, 0, "warm pages must not touch disk");
}

#[test]
fn cold_read_goes_to_disk() {
    let mut r = rig(1);
    {
        let iod = r.eng.actor_as_mut::<Iod>(r.iod).unwrap();
        iod.preload(Fid(1), &[ByteRange::new(0, 65536)], false);
    }
    let req = ReadReq {
        req_id: 1,
        fid: Fid(1),
        ranges: vec![ByteRange::new(0, 16384)],
        reply_to: (NodeId(1), Port(9000)),
        caching: false,
    };
    let wire = req.wire_bytes();
    send_to_iod(&mut r, 1, IOD_PORT, wire, req);
    r.eng.run_until(SimTime::ZERO + Dur::secs(1));
    let c = r.eng.actor_as::<Client>(r.clients[0]).unwrap();
    assert_eq!(c.data.len(), 1);
    let iod = r.eng.actor_as::<Iod>(r.iod).unwrap();
    assert!(iod.stats().disk_reads >= 1, "cold read must hit the disk");
    // Second identical read is now warm.
    assert!(iod.page_cache().contains(iod.fs_extent_probe(Fid(1)).expect("file exists")));
}

#[test]
fn write_then_read_round_trips() {
    let mut r = rig(1);
    let payload = pattern_bytes(Fid(9), 4096, 8192);
    let req = WriteReq {
        req_id: 5,
        fid: Fid(9),
        parts: vec![WritePart { range: ByteRange::new(4096, 8192), data: payload }],
        reply_to: (NodeId(1), Port(9000)),
        caching: false,
        sync: false,
    };
    let wire = req.wire_bytes();
    send_to_iod(&mut r, 1, IOD_PORT, wire, req);
    r.eng.run_until(SimTime::ZERO + Dur::millis(100));
    assert_eq!(r.eng.actor_as::<Client>(r.clients[0]).unwrap().wacks.len(), 1);
    let rreq = ReadReq {
        req_id: 6,
        fid: Fid(9),
        ranges: vec![ByteRange::new(4096, 8192)],
        reply_to: (NodeId(1), Port(9000)),
        caching: false,
    };
    let wire = rreq.wire_bytes();
    send_to_iod(&mut r, 1, IOD_PORT, wire, rreq);
    r.eng.run_until(SimTime::ZERO + Dur::secs(1));
    let c = r.eng.actor_as::<Client>(r.clients[0]).unwrap();
    assert_eq!(c.data.len(), 1);
    for (i, b) in c.data[0].data.iter().enumerate() {
        assert_eq!(*b, pattern_byte(Fid(9), 4096 + i as u64));
    }
}

#[test]
fn flush_applies_blocks_and_acks_on_flush_port() {
    let mut r = rig(1);
    let blocks = vec![
        FlushEntry { blk: 3, offset: 0, data: pattern_bytes(Fid(2), 3 * 4096, 4096) },
        FlushEntry { blk: 4, offset: 0, data: pattern_bytes(Fid(2), 4 * 4096, 4096) },
    ];
    let f = FlushBlocks { req_id: 11, fid: Fid(2), blocks, reply_to: (NodeId(1), Port(9000)) };
    let wire = f.wire_bytes();
    send_to_iod(&mut r, 1, IOD_FLUSH_PORT, wire, f);
    r.eng.run_until(SimTime::ZERO + Dur::secs(1));
    let c = r.eng.actor_as::<Client>(r.clients[0]).unwrap();
    assert_eq!(c.facks.len(), 1);
    let iod = r.eng.actor_as::<Iod>(r.iod).unwrap();
    assert_eq!(iod.stats().flush_reqs, 1);
    // The flusher node is now a registered sharer.
    assert_eq!(iod.directory_sharers(Fid(2), 3), vec![NodeId(1)]);
    assert_eq!(iod.directory_sharers(Fid(2), 4), vec![NodeId(1)]);
}

#[test]
fn caching_reads_register_in_directory() {
    let mut r = rig(2);
    for (i, node) in [1u16, 2u16].iter().enumerate() {
        let req = ReadReq {
            req_id: i as u64,
            fid: Fid(3),
            ranges: vec![ByteRange::new(0, 4096)],
            reply_to: (NodeId(*node), Port(9000)),
            caching: true,
        };
        let wire = req.wire_bytes();
        send_to_iod(&mut r, *node, IOD_PORT, wire, req);
    }
    r.eng.run_until(SimTime::ZERO + Dur::secs(1));
    let iod = r.eng.actor_as::<Iod>(r.iod).unwrap();
    assert_eq!(iod.directory_sharers(Fid(3), 0), vec![NodeId(1), NodeId(2)]);
    // Non-caching reads do not register.
    assert!(iod.directory_sharers(Fid(3), 1).is_empty());
}

#[test]
fn sync_write_invalidates_other_sharers() {
    let mut r = rig(2);
    // Node 1 and node 2 cache block 0 of fid 4.
    for node in [1u16, 2u16] {
        let req = ReadReq {
            req_id: node as u64,
            fid: Fid(4),
            ranges: vec![ByteRange::new(0, 4096)],
            reply_to: (NodeId(node), Port(9000)),
            caching: true,
        };
        let wire = req.wire_bytes();
        send_to_iod(&mut r, node, IOD_PORT, wire, req);
    }
    r.eng.run_until(SimTime::ZERO + Dur::secs(1));
    // Node 1 sync-writes block 0: node 2 must be invalidated, node 1 not.
    let w = WriteReq {
        req_id: 99,
        fid: Fid(4),
        parts: vec![WritePart {
            range: ByteRange::new(0, 4096),
            data: pattern_bytes(Fid(4), 0, 4096),
        }],
        reply_to: (NodeId(1), Port(9000)),
        caching: true,
        sync: true,
    };
    let wire = w.wire_bytes();
    send_to_iod(&mut r, 1, IOD_PORT, wire, w);
    r.eng.run_until(SimTime::ZERO + Dur::secs(2));
    let c1 = r.eng.actor_as::<Client>(r.clients[0]).unwrap();
    let c2 = r.eng.actor_as::<Client>(r.clients[1]).unwrap();
    assert_eq!(c1.invs.len(), 0, "writer must not be invalidated");
    assert_eq!(c2.invs.len(), 1);
    assert_eq!(c2.invs[0].0.blocks, vec![0]);
    // Writer got its ack only after the invalidation round.
    assert_eq!(c1.wacks.len(), 1);
    let iod = r.eng.actor_as::<Iod>(r.iod).unwrap();
    assert_eq!(iod.stats().sync_writes, 1);
    assert_eq!(iod.stats().invalidations_sent, 1);
    assert_eq!(iod.directory_sharers(Fid(4), 0), vec![NodeId(1)], "only the writer remains");
}

#[test]
fn sync_write_with_no_sharers_acks_immediately() {
    let mut r = rig(1);
    let w = WriteReq {
        req_id: 1,
        fid: Fid(5),
        parts: vec![WritePart {
            range: ByteRange::new(0, 4096),
            data: pattern_bytes(Fid(5), 0, 4096),
        }],
        reply_to: (NodeId(1), Port(9000)),
        caching: false,
        sync: true,
    };
    let wire = w.wire_bytes();
    send_to_iod(&mut r, 1, IOD_PORT, wire, w);
    r.eng.run_until(SimTime::ZERO + Dur::secs(1));
    let c = r.eng.actor_as::<Client>(r.clients[0]).unwrap();
    assert_eq!(c.wacks.len(), 1);
    let iod = r.eng.actor_as::<Iod>(r.iod).unwrap();
    assert_eq!(iod.stats().invalidations_sent, 0);
}

#[test]
fn kupdate_writes_dirty_pages_to_disk() {
    let mut r = rig(1);
    let w = WriteReq {
        req_id: 1,
        fid: Fid(6),
        parts: vec![WritePart {
            range: ByteRange::new(0, 65536),
            data: pattern_bytes(Fid(6), 0, 65536),
        }],
        reply_to: (NodeId(1), Port(9000)),
        caching: false,
        sync: false,
    };
    let wire = w.wire_bytes();
    send_to_iod(&mut r, 1, IOD_PORT, wire, w);
    // Run past one kupdate interval.
    r.eng.run_until(SimTime::ZERO + Dur::secs(11));
    let iod = r.eng.actor_as::<Iod>(r.iod).unwrap();
    assert!(iod.stats().disk_writes >= 1, "kupdate must flush dirty pages");
    assert_eq!(iod.page_cache().dirty_pages(), 0);
}

/// A page whose platter read is in flight is in the page cache but
/// holds no data yet: a second read of it waits for that disk reply
/// (one platter read for both) instead of leaving as a hit at once.
#[test]
fn a_read_of_a_page_in_flight_waits_for_its_disk_reply() {
    let mut r = rig(1);
    r.eng.actor_as_mut::<Iod>(r.iod).unwrap().preload(Fid(1), &[ByteRange::new(0, 65536)], false);
    for (req_id, at) in [(1, Dur::ZERO), (2, Dur::micros(10))] {
        let req = ReadReq {
            req_id,
            fid: Fid(1),
            ranges: vec![ByteRange::new(0, 4096)],
            reply_to: (NodeId(1), Port(9000)),
            caching: false,
        };
        send_to_iod_in(&mut r, at, 1, IOD_PORT, req.wire_bytes(), req);
    }
    r.eng.run_until(SimTime::ZERO + Dur::secs(1));
    let c = r.eng.actor_as::<Client>(r.clients[0]).unwrap();
    assert_eq!(c.data.iter().map(|d| d.req_id).collect::<Vec<_>>(), vec![1, 2]);
    assert!(c.data.iter().all(|d| crate::protocol::pattern_matches(Fid(1), 0, &d.data)));
    // The platter read takes milliseconds; the first reply leaves when
    // it completes, and the second may not leave before it.
    assert!(c.data_at[0] >= SimTime::ZERO + Dur::millis(1), "first reply at {:?}", c.data_at[0]);
    assert!(
        c.data_at[1] >= c.data_at[0],
        "second read answered at {:?}, before the disk reply ({:?})",
        c.data_at[1],
        c.data_at[0]
    );
    let iod = r.eng.actor_as::<Iod>(r.iod).unwrap();
    assert_eq!(iod.stats().disk_reads, 1, "one platter read serves both");
    assert!(iod.page_fills.is_empty() && iod.token_waiters.is_empty(), "nothing left in flight");
}

#[test]
fn multi_range_read_sends_one_data_message_per_range() {
    let mut r = rig(1);
    {
        let iod = r.eng.actor_as_mut::<Iod>(r.iod).unwrap();
        iod.preload(Fid(7), &[ByteRange::new(0, 262144)], true);
    }
    let req = ReadReq {
        req_id: 1,
        fid: Fid(7),
        ranges: vec![ByteRange::new(0, 4096), ByteRange::new(65536, 4096)],
        reply_to: (NodeId(1), Port(9000)),
        caching: false,
    };
    let wire = req.wire_bytes();
    send_to_iod(&mut r, 1, IOD_PORT, wire, req);
    r.eng.run_until(SimTime::ZERO + Dur::secs(1));
    let c = r.eng.actor_as::<Client>(r.clients[0]).unwrap();
    assert_eq!(c.data.len(), 2);
    assert_eq!(c.acks[0].bytes, 8192);
}
