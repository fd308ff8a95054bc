//! The cluster interconnect actor.
//!
//! Models a frame-granular network: each NIC transmits one Ethernet frame at
//! a time, contending for the shared medium (hub mode) or for its uplink and
//! the destination's downlink (switch mode). Frame-level arbitration is what
//! makes concurrent streams share bandwidth fairly — a 1 MB transfer does
//! not lock out a competing 4 KB request for its whole duration, exactly as
//! on the paper's real Ethernet.
//!
//! Messages are delivered whole (store-and-forward at the receiver, which is
//! what a TCP receive buffer gives user code) once their last frame arrives,
//! straight to the actor bound to the destination port (see [`Fabric::bind`]).

use crate::config::{FabricKind, NetConfig};
use crate::message::{Deliver, NetMessage, NodeId, Port, TrafficClass, Xmit};
use sim_core::{Actor, ActorId, Ctx, Dur, FifoResource, Msg, SimTime};
use std::any::Any;
use std::collections::VecDeque;

/// Counters the fabric maintains; snapshot them after a run with
/// [`Fabric::stats`].
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    pub messages: u64,
    pub loopback_messages: u64,
    pub frames: u64,
    pub payload_bytes: u64,
    pub wire_bytes: u64,
    /// Cooperative-caching traffic ([`TrafficClass::Peer`]): forwards,
    /// peer block transfers and bounces, on either fabric model.
    pub peer_messages: u64,
    pub peer_payload_bytes: u64,
}

struct Outbound {
    msg: NetMessage,
    /// Payload bytes not yet put on the wire. Control messages with zero
    /// payload are normalized to one byte so they still cost one frame.
    remaining: u32,
    /// Bytes carried by the frame currently on the wire.
    in_flight: u32,
    /// When the most recent frame fully arrives at the destination.
    last_arrival: SimTime,
}

/// Fabric-internal event, one per frame: a NIC finished putting a frame on
/// the wire and may start the next one. It names no NIC — the fabric knows
/// which one is due ([`Fabric::due_nic`]) — so it carries no data and its
/// event allocates nothing.
struct FrameDone;

/// The interconnect. One instance per simulated cluster.
pub struct Fabric {
    cfg: NetConfig,
    /// Wire time of a frame carrying `cfg.frame_payload` bytes: every frame
    /// of a message but its last.
    full_frame_time: Dur,
    /// Hub mode: the single shared medium.
    medium: FifoResource,
    /// Switch mode: per-node transmit links.
    uplinks: Vec<FifoResource>,
    /// Switch mode: per-node receive links.
    downlinks: Vec<FifoResource>,
    /// Per-node outbound queues (NIC transmit rings).
    nics: Vec<VecDeque<Outbound>>,
    /// Per-node default receivers: a message for a port nothing is bound
    /// to on its node goes to that node's endpoint.
    endpoints: Vec<ActorId>,
    /// Per-node port bindings, a handful per node, scanned in order.
    bindings: Vec<Vec<(u16, ActorId)>>,
    /// Per node, the frame on the wire: when its [`FrameDone`] falls due,
    /// and the order the events were scheduled in (`frames_started`).
    frame_due: Vec<Option<(SimTime, u64)>>,
    frames_started: u64,
    stats: FabricStats,
}

impl Fabric {
    /// Build a fabric for `endpoints.len()` nodes; `endpoints[i]` receives
    /// [`Deliver`] events for node `i`'s ports that nothing is bound to.
    pub fn new(cfg: NetConfig, endpoints: Vec<ActorId>) -> Fabric {
        let n = endpoints.len();
        Fabric {
            medium: FifoResource::new("hub-medium"),
            uplinks: (0..n).map(|i| FifoResource::new(format!("uplink-{i}"))).collect(),
            downlinks: (0..n).map(|i| FifoResource::new(format!("downlink-{i}"))).collect(),
            nics: (0..n).map(|_| VecDeque::new()).collect(),
            bindings: vec![Vec::new(); n],
            frame_due: vec![None; n],
            frames_started: 0,
            endpoints,
            full_frame_time: cfg.frame_time(cfg.frame_payload),
            cfg,
            stats: FabricStats::default(),
        }
    }

    /// Deliver `node`'s traffic for `port` to `handler`. Binding a bound
    /// port replaces its handler: that is how a cache module intercepts
    /// the client library's reply port (§3.2 of the paper), invisibly to
    /// the client.
    pub fn bind(&mut self, node: NodeId, port: Port, handler: ActorId) {
        let ports = &mut self.bindings[node.index()];
        match ports.iter_mut().find(|(p, _)| *p == port.0) {
            Some(bound) => bound.1 = handler,
            None => ports.push((port.0, handler)),
        }
    }

    /// The actor `msg` is delivered to: its port's handler, or else its
    /// node's endpoint.
    fn receiver(&self, msg: &NetMessage) -> ActorId {
        let node = msg.dst.index();
        self.bindings[node]
            .iter()
            .find(|(p, _)| *p == msg.dst_port.0)
            .map_or(self.endpoints[node], |&(_, handler)| handler)
    }

    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Utilization of the shared medium over `[0, now]` (hub mode).
    pub fn medium_utilization(&self, now: SimTime) -> f64 {
        self.medium.utilization(now)
    }

    fn start_frame(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        let now = ctx.now();
        let ob = self.nics[node].front_mut().expect("start_frame on empty NIC queue");
        let data = ob.remaining.min(self.cfg.frame_payload);
        ob.in_flight = data;
        let ft = if data == self.cfg.frame_payload {
            self.full_frame_time
        } else {
            self.cfg.frame_time(data)
        };
        self.stats.frames += 1;
        self.stats.wire_bytes += (data + self.cfg.frame_overhead) as u64;

        let (nic_free, arrival) = match self.cfg.kind {
            FabricKind::Hub => {
                // Half-duplex shared medium: the frame owns the hub for its
                // whole wire time; sender and receiver finish together.
                let done = self.medium.reserve(now, ft);
                (done, done)
            }
            FabricKind::Switch => {
                // Full-duplex: transmit on the uplink, then store-and-forward
                // across the switch onto the destination downlink.
                let up = self.uplinks[node].reserve(now, ft);
                let dn_start = up + self.cfg.switch_latency;
                let arrival = self.downlinks[ob.msg.dst.index()].reserve(dn_start, ft);
                (up, arrival)
            }
        };
        ob.last_arrival = arrival;
        self.frame_due[node] = Some((nic_free, self.frames_started));
        self.frames_started += 1;
        ctx.schedule_self(nic_free.since(now), FrameDone);
    }

    /// The NIC a [`FrameDone`] dispatched now is for. The engine runs
    /// events by time, then in the order they were scheduled, and each NIC
    /// has at most one frame on the wire: the earliest due is this one.
    fn due_nic(&mut self, now: SimTime) -> usize {
        let (node, due) = (self.frame_due.iter().enumerate())
            .filter_map(|(node, due)| due.map(|due| (node, due)))
            .min_by_key(|&(_, due)| due)
            .expect("FrameDone with no frame on the wire");
        debug_assert_eq!(due.0, now, "FrameDone for a frame not due");
        self.frame_due[node] = None;
        node
    }

    fn frame_done(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        let now = ctx.now();
        let finished = {
            let ob = self.nics[node].front_mut().expect("FrameDone with empty NIC queue");
            ob.remaining -= ob.in_flight;
            ob.in_flight = 0;
            ob.remaining == 0
        };
        if finished {
            let ob = self.nics[node].pop_front().expect("queue changed under us");
            let deliver_at = ob.last_arrival + self.cfg.prop_delay;
            let target = self.receiver(&ob.msg);
            ctx.schedule_in(deliver_at.since(now), target, Deliver(ob.msg));
        }
        if !self.nics[node].is_empty() {
            self.start_frame(ctx, node);
        }
    }
}

impl Actor for Fabric {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.cast::<Xmit>() {
            Ok(x) => {
                let m = x.0;
                self.stats.messages += 1;
                self.stats.payload_bytes += m.wire_bytes as u64;
                if m.class == TrafficClass::Peer {
                    self.stats.peer_messages += 1;
                    self.stats.peer_payload_bytes += m.wire_bytes as u64;
                }
                if m.src == m.dst {
                    // Node-local traffic short-circuits the wire entirely.
                    self.stats.loopback_messages += 1;
                    let delay = self.cfg.loopback_time(m.wire_bytes);
                    let target = self.receiver(&m);
                    ctx.schedule_in(delay, target, Deliver(m));
                    return;
                }
                let node = m.src.index();
                self.nics[node].push_back(Outbound {
                    remaining: m.wire_bytes.max(1),
                    in_flight: 0,
                    last_arrival: SimTime::ZERO,
                    msg: m,
                });
                if self.nics[node].len() == 1 {
                    self.start_frame(ctx, node);
                }
                return;
            }
            Err(m) => m,
        };
        if msg.is::<FrameDone>() {
            let node = self.due_nic(ctx.now());
            self.frame_done(ctx, node);
        } else {
            panic!("fabric received unexpected message: {:?}", msg);
        }
    }

    fn name(&self) -> String {
        "fabric".into()
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

/// Convenience: total one-way latency of an uncontended `bytes`-byte message
/// (used by tests and analytic sanity checks).
pub fn uncontended_latency(cfg: &NetConfig, bytes: u32) -> Dur {
    // The fabric sends an empty control message as one byte.
    let bytes = bytes.max(1);
    cfg.message_wire_time(bytes)
        + cfg.prop_delay
        + match cfg.kind {
            FabricKind::Hub => Dur::ZERO,
            // Store-and-forward: the downlink starts one switch hop after
            // the first frame has left the uplink, then carries the frames
            // back to back, so the first frame's wire time is paid twice.
            FabricKind::Switch => cfg.switch_latency + cfg.frame_time(bytes.min(cfg.frame_payload)),
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Engine;

    /// Collects deliveries with their arrival times.
    struct Sink {
        got: Vec<(u64, SimTime)>,
    }

    impl Actor for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if let Ok(d) = msg.cast::<Deliver>() {
                self.got.push((d.0.tag, ctx.now()));
            }
        }
        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
            Some(self)
        }
    }

    fn build(cfg: NetConfig, nodes: usize) -> (Engine, ActorId, Vec<ActorId>) {
        let mut eng = Engine::new(1);
        let sinks: Vec<ActorId> =
            (0..nodes).map(|_| eng.add_actor(Box::new(Sink { got: vec![] }))).collect();
        let fabric = eng.add_actor(Box::new(Fabric::new(cfg, sinks.clone())));
        (eng, fabric, sinks)
    }

    fn msg(src: u16, dst: u16, bytes: u32, tag: u64) -> NetMessage {
        NetMessage::new((NodeId(src), Port(1)), (NodeId(dst), Port(2)), bytes, tag, ())
    }

    #[test]
    fn a_full_frame_costs_what_the_config_says() {
        for cfg in [NetConfig::hub_100mbps(), NetConfig::switch_100mbps()] {
            let fabric = Fabric::new(cfg.clone(), vec![]);
            assert_eq!(fabric.full_frame_time, cfg.frame_time(cfg.frame_payload));
        }
    }

    #[test]
    fn single_message_latency_matches_analytic() {
        let cfg = NetConfig::hub_100mbps();
        let expect = uncontended_latency(&cfg, 4096);
        let (mut eng, fabric, sinks) = build(cfg, 2);
        eng.post(Dur::ZERO, fabric, Xmit(msg(0, 1, 4096, 1)));
        eng.run();
        let sink = eng.actor_as::<Sink>(sinks[1]).unwrap();
        assert_eq!(sink.got.len(), 1);
        assert_eq!(sink.got[0].1, SimTime::ZERO + expect);
    }

    /// The analytic latency is what the fabric delivers, on both fabrics,
    /// for a control message (sent as one byte), part of a frame, exactly
    /// one and two full frames, and a full frame plus a tail.
    #[test]
    fn uncontended_latency_matches_the_fabric() {
        for cfg in [NetConfig::hub_100mbps(), NetConfig::switch_100mbps()] {
            for bytes in [0, 1, 1000, 1460, 2920, 4096] {
                let expect = uncontended_latency(&cfg, bytes);
                let (mut eng, fabric, sinks) = build(cfg.clone(), 2);
                eng.post(Dur::ZERO, fabric, Xmit(msg(0, 1, bytes, 1)));
                eng.run();
                let sink = eng.actor_as::<Sink>(sinks[1]).unwrap();
                assert_eq!(sink.got, [(1, SimTime::ZERO + expect)], "{:?}, {bytes} B", cfg.kind);
            }
        }
    }

    #[test]
    fn hub_serializes_concurrent_senders() {
        let cfg = NetConfig::hub_100mbps();
        let wire_each = cfg.message_wire_time(14600); // 10 frames
        let (mut eng, fabric, sinks) = build(cfg, 3);
        eng.post(Dur::ZERO, fabric, Xmit(msg(0, 2, 14600, 1)));
        eng.post(Dur::ZERO, fabric, Xmit(msg(1, 2, 14600, 2)));
        eng.run();
        let sink = eng.actor_as::<Sink>(sinks[2]).unwrap();
        assert_eq!(sink.got.len(), 2);
        let last = sink.got.iter().map(|g| g.1).max().unwrap();
        // Both streams share one medium: total completion ~ sum of wire
        // times (within a propagation delay).
        let lower = SimTime::ZERO + wire_each * 2;
        assert!(last >= lower, "last {:?} earlier than serialized bound {:?}", last, lower);
    }

    #[test]
    fn switch_parallelizes_disjoint_pairs() {
        let cfg = NetConfig::switch_100mbps();
        let wire_each = cfg.message_wire_time(14600);
        let (mut eng, fabric, sinks) = build(cfg, 4);
        eng.post(Dur::ZERO, fabric, Xmit(msg(0, 2, 14600, 1)));
        eng.post(Dur::ZERO, fabric, Xmit(msg(1, 3, 14600, 2)));
        eng.run();
        let t2 = eng.actor_as::<Sink>(sinks[2]).unwrap().got[0].1;
        let t3 = eng.actor_as::<Sink>(sinks[3]).unwrap().got[0].1;
        // Disjoint src/dst pairs must not serialize: both finish in about
        // one message wire time, far less than two.
        let upper = SimTime::ZERO + wire_each + wire_each / 2;
        assert!(t2 < upper, "t2 {:?} vs upper {:?}", t2, upper);
        assert!(t3 < upper, "t3 {:?} vs upper {:?}", t3, upper);
    }

    #[test]
    fn frames_interleave_between_active_senders() {
        // A long message and a short message start together on a hub; the
        // short one must finish long before the long one completes.
        let cfg = NetConfig::hub_100mbps();
        let long_wire = cfg.message_wire_time(1 << 20);
        let (mut eng, fabric, sinks) = build(cfg, 3);
        eng.post(Dur::ZERO, fabric, Xmit(msg(0, 2, 1 << 20, 1)));
        eng.post(Dur::ZERO, fabric, Xmit(msg(1, 2, 4096, 2)));
        eng.run();
        let sink = eng.actor_as::<Sink>(sinks[2]).unwrap();
        let short_done = sink.got.iter().find(|g| g.0 == 2).unwrap().1;
        assert!(
            short_done.since(SimTime::ZERO) < long_wire / 10,
            "short message starved: {:?} vs long wire {:?}",
            short_done,
            long_wire
        );
    }

    #[test]
    fn loopback_bypasses_the_medium() {
        let cfg = NetConfig::hub_100mbps();
        let lb = cfg.loopback_time(1 << 20);
        let (mut eng, fabric, sinks) = build(cfg, 2);
        eng.post(Dur::ZERO, fabric, Xmit(msg(0, 0, 1 << 20, 1)));
        eng.run();
        let sink = eng.actor_as::<Sink>(sinks[0]).unwrap();
        assert_eq!(sink.got[0].1, SimTime::ZERO + lb);
        let f = eng.actor_as::<Fabric>(fabric).unwrap();
        assert_eq!(f.stats().loopback_messages, 1);
        assert_eq!(f.stats().frames, 0, "loopback must not consume wire frames");
    }

    #[test]
    fn fifo_order_preserved_per_pair() {
        let cfg = NetConfig::hub_100mbps();
        let (mut eng, fabric, sinks) = build(cfg, 2);
        for tag in 0..20 {
            eng.post(Dur::ZERO, fabric, Xmit(msg(0, 1, 1000, tag)));
        }
        eng.run();
        let sink = eng.actor_as::<Sink>(sinks[1]).unwrap();
        let tags: Vec<u64> = sink.got.iter().map(|g| g.0).collect();
        assert_eq!(tags, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let cfg = NetConfig::hub_100mbps();
        let (mut eng, fabric, _sinks) = build(cfg, 2);
        eng.post(Dur::ZERO, fabric, Xmit(msg(0, 1, 3000, 1)));
        eng.post(Dur::ZERO, fabric, Xmit(msg(1, 0, 0, 2)));
        eng.run();
        let f = eng.actor_as::<Fabric>(fabric).unwrap();
        assert_eq!(f.stats().messages, 2);
        assert_eq!(f.stats().payload_bytes, 3000);
        assert_eq!(f.stats().frames, 3 + 1, "3 frames for 3000B, 1 for control");
        assert!(f.medium_utilization(eng.now()) > 0.0);
    }

    #[test]
    fn peer_class_counted_on_both_fabrics_and_loopback() {
        for cfg in [NetConfig::hub_100mbps(), NetConfig::switch_100mbps()] {
            let (mut eng, fabric, _sinks) = build(cfg, 3);
            eng.post(Dur::ZERO, fabric, Xmit(msg(0, 1, 5000, 1).with_class(TrafficClass::Peer)));
            eng.post(Dur::ZERO, fabric, Xmit(msg(1, 2, 7000, 2)));
            // Peer loopback (module talking to a same-node service) still
            // counts as peer traffic.
            eng.post(Dur::ZERO, fabric, Xmit(msg(2, 2, 100, 3).with_class(TrafficClass::Peer)));
            eng.run();
            let f = eng.actor_as::<Fabric>(fabric).unwrap();
            assert_eq!(f.stats().messages, 3);
            assert_eq!(f.stats().peer_messages, 2);
            assert_eq!(f.stats().peer_payload_bytes, 5100);
            assert_eq!(f.stats().payload_bytes, 12100);
        }
    }

    fn to_port(src: u16, dst: u16, port: u16, tag: u64) -> Xmit {
        Xmit(NetMessage::new((NodeId(src), Port(1)), (NodeId(dst), Port(port)), 8, tag, ()))
    }

    fn bind(eng: &mut Engine, fabric: ActorId, node: u16, port: u16, handler: ActorId) {
        eng.actor_as_mut::<Fabric>(fabric).unwrap().bind(NodeId(node), Port(port), handler);
    }

    fn tags(eng: &Engine, sink: ActorId) -> Vec<u64> {
        eng.actor_as::<Sink>(sink).unwrap().got.iter().map(|g| g.0).collect()
    }

    #[test]
    fn routes_by_destination_port() {
        let (mut eng, fabric, sinks) = build(NetConfig::hub_100mbps(), 2);
        let a = eng.add_actor(Box::new(Sink { got: vec![] }));
        let b = eng.add_actor(Box::new(Sink { got: vec![] }));
        bind(&mut eng, fabric, 1, 10, a);
        bind(&mut eng, fabric, 1, 20, b);
        eng.post(Dur::ZERO, fabric, to_port(0, 1, 10, 1));
        eng.post(Dur::ZERO, fabric, to_port(0, 1, 20, 2));
        eng.post(Dur::ZERO, fabric, to_port(0, 1, 10, 3));
        eng.run();
        assert_eq!(tags(&eng, a), [1, 3]);
        assert_eq!(tags(&eng, b), [2]);
        assert!(tags(&eng, sinks[1]).is_empty());
    }

    #[test]
    fn rebinding_a_port_intercepts_traffic() {
        let (mut eng, fabric, _sinks) = build(NetConfig::hub_100mbps(), 2);
        let original = eng.add_actor(Box::new(Sink { got: vec![] }));
        let interceptor = eng.add_actor(Box::new(Sink { got: vec![] }));
        bind(&mut eng, fabric, 1, 10, original);
        bind(&mut eng, fabric, 1, 10, interceptor); // a cache module takes over the port
        eng.post(Dur::ZERO, fabric, to_port(0, 1, 10, 1));
        eng.run();
        assert!(tags(&eng, original).is_empty());
        assert_eq!(tags(&eng, interceptor), [1]);
    }

    #[test]
    fn an_unbound_port_reaches_the_nodes_endpoint() {
        let (mut eng, fabric, sinks) = build(NetConfig::hub_100mbps(), 2);
        let bound = eng.add_actor(Box::new(Sink { got: vec![] }));
        bind(&mut eng, fabric, 1, 10, bound);
        // Port 10 is bound on node 1 only: node 0's port 10 is its endpoint's.
        eng.post(Dur::ZERO, fabric, to_port(0, 1, 99, 1));
        eng.post(Dur::ZERO, fabric, to_port(1, 0, 10, 2));
        eng.run();
        assert!(tags(&eng, bound).is_empty());
        assert_eq!(tags(&eng, sinks[1]), [1]);
        assert_eq!(tags(&eng, sinks[0]), [2]);
    }

    #[test]
    fn loopback_delivers_to_a_rebound_port() {
        let (mut eng, fabric, sinks) = build(NetConfig::hub_100mbps(), 2);
        let original = eng.add_actor(Box::new(Sink { got: vec![] }));
        let interceptor = eng.add_actor(Box::new(Sink { got: vec![] }));
        bind(&mut eng, fabric, 0, 10, original);
        bind(&mut eng, fabric, 0, 10, interceptor);
        eng.post(Dur::ZERO, fabric, to_port(0, 0, 10, 1));
        eng.run();
        assert_eq!(eng.actor_as::<Fabric>(fabric).unwrap().stats().loopback_messages, 1);
        assert_eq!(tags(&eng, interceptor), [1]);
        assert!(tags(&eng, original).is_empty());
        assert!(tags(&eng, sinks[0]).is_empty());
    }

    #[test]
    fn zero_byte_control_message_still_delivered() {
        let cfg = NetConfig::hub_100mbps();
        let (mut eng, fabric, sinks) = build(cfg, 2);
        eng.post(Dur::ZERO, fabric, Xmit(msg(0, 1, 0, 9)));
        eng.run();
        assert_eq!(eng.actor_as::<Sink>(sinks[1]).unwrap().got.len(), 1);
    }
}
