//! Sync-write coherence through the iod's directory between real actors —
//! a cache module, an iod, its disk and the fabric — with the client
//! processes scripted, so each step of a coherence race happens exactly
//! when the test says.

use kcache::{AppId, BlockKey, CacheConfig, CacheModule};
use pvfs::{
    pattern_bytes, ByteRange, CostModel, Fid, Iod, PvfsConfig, ReadReq, WritePart, WriteReq,
    CACHE_PORT, CLIENT_PORT_BASE, IOD_FLUSH_PORT, IOD_PORT,
};
use sim_core::{Actor, ActorId, Ctx, Dur, Engine, FifoResource, Msg};
use sim_disk::{Disk, DiskGeometry, DiskSched};
use sim_net::{Deliver, Fabric, NetConfig, NetMessage, NodeId, NodeNet, Port, Xmit};
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

struct Rig {
    eng: Engine,
    fabric: ActorId,
    module: ActorId,
    iod: ActorId,
    probe_b: ActorId,
}

impl Rig {
    /// Node A's module with a four-block cache; the iod's file is warm.
    fn new() -> Rig {
        let mut eng = Engine::new(5);
        let fabric = eng.reserve_actor();
        let nets: Vec<ActorId> = (0..3).map(|_| eng.reserve_actor()).collect();
        eng.install(fabric, Box::new(Fabric::new(NetConfig::hub_100mbps(), nets.clone())));
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
        iod.preload(FID, &[ByteRange::new(0, 65536)], true);
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
        );
        module.register_client(PORT, probe_a, AppId(0));
        let module = eng.add_actor(Box::new(module));
        let bindings: [&[(Port, ActorId)]; 3] = [
            &[(IOD_PORT, iod), (IOD_FLUSH_PORT, iod)],
            &[(PORT, module), (CACHE_PORT, module)],
            &[(PORT, probe_b)],
        ];
        for (node, ports) in bindings.iter().enumerate() {
            let mut nn = NodeNet::new(NodeId(node as u16));
            for &(port, actor) in *ports {
                nn.bind(port, actor);
            }
            eng.install(nets[node], Box::new(nn));
        }
        Rig { eng, fabric, module, iod, probe_b }
    }

    fn run(&mut self) {
        let until = self.eng.now() + Dur::secs(1);
        self.eng.run_until(until);
    }

    /// A's client reads block `blk` through A's module.
    fn read_at_a(&mut self, req_id: u64, blk: u64) {
        let rr = ReadReq {
            req_id,
            fid: FID,
            ranges: vec![ByteRange::new(blk * 4096, 4096)],
            reply_to: (NodeId(A), PORT),
            caching: true,
        };
        let m = NetMessage::new((NodeId(A), PORT), (NodeId(IOD), IOD_PORT), rr.wire_bytes(), 0, rr);
        self.eng.post(Dur::ZERO, self.module, Xmit(m));
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
    let mut r = Rig::new();
    r.read_at_a(1, 0);
    for blk in 1..=5 {
        r.read_at_a(1 + blk, blk);
    }
    assert!(!r.a_holds(0), "five more blocks through a four-block cache evict block 0");
    let evicted: Vec<u64> = (1..=5).filter(|&b| !r.a_holds(b)).collect();
    assert!(!evicted.is_empty());
    r.read_at_a(10, 0);
    assert!(r.a_holds(0) && r.listed_at_a(0));

    let wr = WriteReq {
        req_id: 2,
        fid: FID,
        parts: vec![WritePart {
            range: ByteRange::new(0, 4096),
            data: pattern_bytes(FID, 0, 4096),
        }],
        reply_to: (NodeId(B), PORT),
        caching: false,
        sync: true,
    };
    let m = NetMessage::new((NodeId(B), PORT), (NodeId(IOD), IOD_PORT), wr.wire_bytes(), 0, wr);
    r.eng.post(Dur::ZERO, r.fabric, Xmit(m));
    r.run();
    assert_eq!(r.a().stats().invalidate_msgs, 1, "A's copy of block 0 was not invalidated");
    assert!(!r.a_holds(0));
    assert!(!r.listed_at_a(0), "the sync-write takes A off the block's entry");
    assert_eq!(r.eng.actor_as::<Probe>(r.probe_b).unwrap().delivered, 1, "B's write was acked");
}
