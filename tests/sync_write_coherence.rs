//! Sync-write coherence through the iod's directory between real actors —
//! a cache module, an iod, its disk and the fabric — with the client
//! processes scripted, so each step of a coherence race happens exactly
//! when the test says.

use kcache::{AppId, BlockKey, CacheConfig, CacheModule};
use pvfs::{
    ByteRange, CostModel, Fid, Iod, Payload, PvfsConfig, ReadReq, WritePart, WriteReq, CACHE_PORT,
    CLIENT_PORT_BASE, IOD_FLUSH_PORT, IOD_PORT,
};
use sim_core::{Actor, ActorId, Ctx, Dur, Engine, FifoResource, Msg};
use sim_disk::{Content, Disk, DiskGeometry, DiskSched};
use sim_net::{Deliver, Fabric, NetConfig, NetMessage, NodeId, Port, Xmit};
use std::any::Any;

const IOD: u16 = 0;
/// Runs a cache module.
const A: u16 = 1;
/// Runs a bare client: the sync-writer.
const B: u16 = 2;
const FID: Fid = Fid(1);
const PORT: Port = Port(CLIENT_PORT_BASE);

/// A scripted client process: counts what it is sent.
#[derive(Default)]
struct Probe {
    delivered: usize,
}

impl Actor for Probe {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Deliver>() {
            self.delivered += 1;
        }
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

/// Every node's endpoint: the rig binds each port it expects traffic on,
/// so a message for any other port is a misaddressed message.
struct Unbound;

impl Actor for Unbound {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        if let Ok(d) = msg.cast::<Deliver>() {
            panic!("message for an unbound port: {:?}", d.0);
        }
    }
}

struct Rig {
    eng: Engine,
    fabric: ActorId,
    module: ActorId,
    iod: ActorId,
    probe_a: ActorId,
    probe_b: ActorId,
}

impl Rig {
    /// Node A's module with a four-block cache; the iod's file is in its
    /// page cache when `warm`, else every first read goes to the platter.
    fn new(warm: bool) -> Rig {
        let mut eng = Engine::new(5);
        let fabric = eng.reserve_actor();
        let disk =
            eng.add_actor(Box::new(Disk::new(DiskGeometry::maxtor_20gb(), DiskSched::CLook)));
        let mut iod = Iod::new(
            NodeId(IOD),
            fabric,
            disk,
            FifoResource::shared("cpu0"),
            CostModel::default(),
            PvfsConfig::default(),
            1 << 20,
        );
        iod.preload(FID, &[ByteRange::new(0, 65536)], warm);
        let iod = eng.add_actor(Box::new(iod));
        let probe_a = eng.add_actor(Box::new(Probe::default()));
        let probe_b = eng.add_actor(Box::new(Probe::default()));
        let cfg = CacheConfig {
            capacity_blocks: 4,
            low_watermark: 0,
            high_watermark: 1,
            ..CacheConfig::paper()
        };
        let mut module = CacheModule::new(
            NodeId(A),
            fabric,
            FifoResource::shared("cpu1"),
            CostModel::default(),
            cfg,
            None,
        );
        module.register_client(PORT, probe_a, AppId(0));
        let module = eng.add_actor(Box::new(module));
        // Only bound ports take traffic: the iod's two, A's client port
        // (taken over by the module) and cache port, and B's client port.
        let unbound = eng.add_actor(Box::new(Unbound));
        let mut net = Fabric::new(NetConfig::hub_100mbps(), vec![unbound; 3]);
        net.bind(NodeId(IOD), IOD_PORT, iod);
        net.bind(NodeId(IOD), IOD_FLUSH_PORT, iod);
        net.bind(NodeId(A), PORT, module);
        net.bind(NodeId(A), CACHE_PORT, module);
        net.bind(NodeId(B), PORT, probe_b);
        eng.install(fabric, Box::new(net));
        Rig { eng, fabric, module, iod, probe_a, probe_b }
    }

    fn run(&mut self) {
        let until = self.eng.now() + Dur::secs(1);
        self.eng.run_until(until);
    }

    /// A's client reads block `blk` through A's module, and the rig runs
    /// for a simulated second.
    fn read_at_a(&mut self, req_id: u64, blk: u64) {
        self.post_read_at_a(req_id, blk);
        self.run();
    }

    fn post_read_at_a(&mut self, req_id: u64, blk: u64) {
        let rr = ReadReq {
            req_id,
            fid: FID,
            ranges: vec![ByteRange::new(blk * 4096, 4096)],
            reply_to: (NodeId(A), PORT),
            caching: true,
        };
        let m = NetMessage::new((NodeId(A), PORT), (NodeId(IOD), IOD_PORT), rr.wire_bytes(), 0, rr);
        self.eng.post(Dur::ZERO, self.module, Xmit(m));
    }

    /// B sync-writes block `blk`, and the rig runs for a simulated second.
    fn sync_write_at_b(&mut self, req_id: u64, blk: u64) {
        let range = ByteRange::new(blk * 4096, 4096);
        let wr = WriteReq {
            req_id,
            fid: FID,
            parts: vec![WritePart {
                range,
                data: Payload::described(Content::new(FID, range.offset), 4096),
            }],
            reply_to: (NodeId(B), PORT),
            caching: false,
            sync: true,
        };
        let m = NetMessage::new((NodeId(B), PORT), (NodeId(IOD), IOD_PORT), wr.wire_bytes(), 0, wr);
        self.eng.post(Dur::ZERO, self.fabric, Xmit(m));
        self.run();
    }

    fn a(&self) -> &CacheModule {
        self.eng.actor_as::<CacheModule>(self.module).unwrap()
    }

    fn a_holds(&self, blk: u64) -> bool {
        self.a().cache().contains(BlockKey::new(FID, blk))
    }

    fn listed_at_a(&self, blk: u64) -> bool {
        self.eng.actor_as::<Iod>(self.iod).unwrap().directory_sharers(FID, blk).contains(&NodeId(A))
    }
}

/// Node A reads block 0, evicts it and re-reads it. Node B then
/// sync-writes block 0: A must be invalidated, and B's write acked once
/// A has acknowledged.
#[test]
fn an_evicted_then_reread_block_still_gets_invalidated() {
    let mut r = Rig::new(true);
    r.read_at_a(1, 0);
    for blk in 1..=5 {
        r.read_at_a(1 + blk, blk);
    }
    assert!(!r.a_holds(0), "five more blocks through a four-block cache evict block 0");
    let evicted: Vec<u64> = (1..=5).filter(|&b| !r.a_holds(b)).collect();
    assert!(!evicted.is_empty());
    r.read_at_a(10, 0);
    assert!(r.a_holds(0) && r.listed_at_a(0));

    r.sync_write_at_b(2, 0);
    assert_eq!(r.a().stats().invalidate_msgs, 1, "A's copy of block 0 was not invalidated");
    assert!(!r.a_holds(0));
    assert!(!r.listed_at_a(0), "the sync-write takes A off the block's entry");
    assert_eq!(r.eng.actor_as::<Probe>(r.probe_b).unwrap().delivered, 1, "B's write was acked");
}

/// An `Invalidate` that overtakes a fetch in flight. The iod lists A as a
/// reader of block 0 when A's read arrives, but sends the data only after
/// its platter read. B's sync-write in that window takes A off the entry
/// and invalidates A, which holds nothing yet. The data that arrives
/// afterwards must not be installed as a copy the iod no longer lists: a
/// second sync-write by B would never reach it.
#[test]
fn an_invalidate_overtaking_a_fetch_leaves_no_unlisted_copy() {
    let mut r = Rig::new(false);
    r.post_read_at_a(1, 0);
    let until = r.eng.now() + Dur::micros(500);
    r.eng.run_until(until);
    assert!(r.listed_at_a(0), "the iod has A's read and listed A");
    assert!(!r.a_holds(0), "the platter read is still pending");

    r.sync_write_at_b(2, 0);
    assert_eq!(r.a().stats().invalidate_msgs, 1, "B's write invalidated A mid-fetch");
    assert_eq!(r.a().stats().blocks_fetched, 1, "A's fetch completed after the invalidation");
    assert_eq!(r.eng.actor_as::<Probe>(r.probe_a).unwrap().delivered, 2, "A's read served");
    assert!(!r.a_holds(0) || r.listed_at_a(0), "A holds block 0 but the iod does not list A");

    r.sync_write_at_b(3, 0);
    assert!(!r.a_holds(0), "a second sync-write left a copy at A");
    assert_eq!(r.eng.actor_as::<Probe>(r.probe_b).unwrap().delivered, 2, "both writes acked");
}
