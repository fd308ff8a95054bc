//! The substrates, each driven alone the way `benches/substrates.rs`
//! drives them: the DES engine (`Engine`, `Actor`, `Ctx`), the fabric
//! (`Fabric`, `NetMessage`, `Xmit`), the disk model (`Disk`,
//! `DiskRequest`), striping (`split_ranges`) and the observability
//! primitives (`ObsHub`, `Counter`, `Histogram`).

use kcache::obs::{Counter, EventId, Histogram, ObsHub};
use pvfs::{split_ranges, ByteRange, StripeSpec};
use sim_core::{Actor, Ctx, Dur, Engine, Msg};
use sim_disk::{Disk, DiskGeometry, DiskOp, DiskRequest, DiskSched};
use sim_net::{Deliver, Fabric, NetConfig, NetMessage, NodeId, Port, Xmit};
use std::hint::black_box;
use std::sync::Arc;

/// A prepared engine plus how to count the units of work it did; `run`
/// is the part a micro-loop times.
pub struct SimLoad {
    engine: Engine,
    units: fn(&Engine) -> u64,
}

impl SimLoad {
    /// Run to quiescence; returns the units of work done.
    pub fn run(mut self) -> u64 {
        self.engine.run();
        (self.units)(&self.engine)
    }
}

struct PingPong {
    peer: usize,
    left: u32,
}
struct Ball;

impl Actor for PingPong {
    fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        if self.left > 0 {
            self.left -= 1;
            ctx.schedule_in(Dur::micros(1), self.peer, Ball);
        }
    }
}

/// Two actors bouncing one message `events` times: the engine's own cost
/// per event (heap push/pop + dispatch), with no model work. Unit: event.
pub fn engine_ping_pong(events: u32) -> SimLoad {
    let mut engine = Engine::new(0);
    let a = engine.reserve_actor();
    let b = engine.add_actor(Box::new(PingPong { peer: a, left: events / 2 }));
    engine.install(a, Box::new(PingPong { peer: b, left: events / 2 }));
    engine.post(Dur::ZERO, a, Ball);
    SimLoad { engine, units: |e| e.events_dispatched() }
}

struct Sink;

impl Actor for Sink {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        black_box(msg.is::<Deliver>());
    }
}

/// Fabric actor id in [`fabric_transfer`]'s engine (added after 2 sinks).
const FABRIC_ID: usize = 2;

/// One `bytes`-long message across the paper's hub between two nodes.
/// Unit: Ethernet frame.
pub fn fabric_transfer(bytes: u32) -> SimLoad {
    let mut engine = Engine::new(0);
    let sinks: Vec<_> = (0..2).map(|_| engine.add_actor(Box::new(Sink))).collect();
    let fabric = engine.add_actor(Box::new(Fabric::new(NetConfig::hub_100mbps(), sinks)));
    assert_eq!(fabric, FABRIC_ID);
    let m = NetMessage::new((NodeId(0), Port(1)), (NodeId(1), Port(2)), bytes, 0, ());
    engine.post(Dur::ZERO, fabric, Xmit(m));
    SimLoad {
        engine,
        units: |e| e.actor_as::<Fabric>(FABRIC_ID).expect("fabric downcast").stats().frames,
    }
}

/// Disk actor id in [`disk_batch`]'s engine (added after the sink).
const DISK_ID: usize = 1;

/// `requests` random 8-block reads queued at once on the paper's disk
/// under C-LOOK. Unit: disk request.
pub fn disk_batch(requests: u32) -> SimLoad {
    let mut engine = Engine::new(0);
    let sink = engine.add_actor(Box::new(Sink));
    let disk = engine.add_actor(Box::new(Disk::new(DiskGeometry::maxtor_20gb(), DiskSched::CLook)));
    assert_eq!(disk, DISK_ID);
    let mut x = 0x9E37_79B9u64;
    for token in 0..requests as u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let req =
            DiskRequest { op: DiskOp::Read, pblk: x % 5_000_000, blocks: 8, reply_to: sink, token };
        engine.post(Dur::ZERO, disk, req);
    }
    SimLoad {
        engine,
        units: |e| e.actor_as::<Disk>(DISK_ID).expect("disk downcast").stats().requests,
    }
}

/// `calls` striping splits of 64 KB..1 MB ranges over six iods. Returns
/// the number of per-iod ranges produced (so the work cannot be elided).
pub fn split_ranges_batch(calls: u32) -> u64 {
    let spec = StripeSpec { unit: 65536, n_iods: 6, base: 2 };
    let mut produced = 0;
    for i in 0..calls as u64 {
        let range = ByteRange::new(i * 12_345, (((i % 16) + 1) * 65536) as u32);
        let per_iod = split_ranges(&spec, black_box(range));
        produced += per_iod.iter().map(Vec::len).sum::<usize>() as u64;
    }
    produced
}

/// One telemetry hub with a resolved counter, histogram and trace event:
/// the three primitives every instrumented path pays for.
pub struct ObsLoad {
    hub: Arc<ObsHub>,
    counter: Counter,
    histogram: Histogram,
    event: EventId,
}

impl ObsLoad {
    pub fn new() -> ObsLoad {
        let hub = ObsHub::new(kcache::obs::DEFAULT_TRACE_CAPACITY);
        ObsLoad {
            counter: hub.registry().counter("perf.counter"),
            histogram: hub.registry().histogram("perf.histogram"),
            event: hub.intern("perf.event", Some("i"), None),
            hub,
        }
    }

    pub fn counter_adds(&self, n: u32) {
        for _ in 0..n {
            black_box(&self.counter).add(1);
        }
    }

    pub fn histogram_records(&self, n: u32) {
        for i in 0..n as u64 {
            black_box(&self.histogram).record(i * 37 + 1);
        }
    }

    /// Empty the trace ring, so the next pushes take the slot-free path.
    pub fn drain_trace(&self) {
        self.hub.drain_trace();
    }

    /// `n` instants into the trace ring (`n` ≤ its capacity).
    pub fn trace_pushes(&self, n: u32) {
        assert!(n as usize <= kcache::obs::DEFAULT_TRACE_CAPACITY);
        for i in 0..n as u64 {
            self.hub.instant(self.event, 0, 0, i, 0);
        }
    }
}

impl Default for ObsLoad {
    fn default() -> Self {
        ObsLoad::new()
    }
}
