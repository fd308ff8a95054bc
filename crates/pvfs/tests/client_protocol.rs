//! Protocol-level tests of the libpvfs client state machine against a
//! scripted fake network: ack/data ordering, striping fan-out, completion
//! conditions, and latency accounting.

use pvfs::{
    ByteRange, ClientConfig, Completion, Content, CostModel, Fid, FileHandle, MgrReply, Payload,
    PvfsClient, ReadAck, ReadData, ReadReq, Segment, StripeSpec, WriteAck, WriteReq,
    CLIENT_PORT_BASE,
};
use sim_core::{Actor, ActorId, Ctx, Dur, Engine, FifoResource, Msg};
use sim_net::{Deliver, NetMessage, NodeId, Port, Xmit};
use std::any::Any;

/// The first `len` bytes of file `fid` from `offset`.
fn pattern(fid: Fid, offset: u64, len: usize) -> Vec<u8> {
    Content::new(fid, offset).generate(len)
}

/// Captures what the client puts on the wire.
struct WireTap {
    sent: Vec<NetMessage>,
}
impl Actor for WireTap {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        if let Ok(x) = msg.cast::<Xmit>() {
            self.sent.push(x.0);
        }
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

/// Returns the moved-out client to the host after a `with_client` turn.
struct GiveBack(PvfsClient);

/// Harness actor embedding the client, recording completions.
struct Host {
    client: PvfsClient,
    completions: Vec<Completion>,
}
impl Actor for Host {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.cast::<Deliver>() {
            Ok(d) => {
                if let Some(c) = self.client.on_deliver(ctx, d.0) {
                    self.completions.push(c);
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(g) = msg.cast::<GiveBack>() {
            self.client = g.0;
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
    tap: ActorId,
    host: ActorId,
}

fn rig() -> Rig {
    let mut eng = Engine::new(0);
    let tap = eng.add_actor(Box::new(WireTap { sent: vec![] }));
    let cfg = ClientConfig {
        node: NodeId(1),
        port: Port(CLIENT_PORT_BASE),
        mgr_node: NodeId(0),
        iod_nodes: (0..4).map(NodeId).collect(),
        sock_target: tap,
        fabric: tap,
        cpu: FifoResource::shared("cpu"),
        costs: CostModel::default(),
        caching: false,
    };
    let host = eng.add_actor(Box::new(Host { client: PvfsClient::new(cfg), completions: vec![] }));
    Rig { eng, tap, host }
}

fn handle(fid: u64, size: u64, n_iods: u32) -> FileHandle {
    FileHandle { fid: Fid(fid), size, stripe: StripeSpec { unit: 65536, n_iods, base: 0 } }
}

/// Inject a handle as if the mgr replied to an open.
fn install_handle(rig: &mut Rig, h: FileHandle) {
    let reply = MgrReply::Ok { req_id: 0, handle: h };
    let m =
        NetMessage::new((NodeId(0), Port(3000)), (NodeId(1), Port(CLIENT_PORT_BASE)), 64, 0, reply);
    rig.eng.post(Dur::ZERO, rig.host, Deliver(m));
    rig.eng.run();
}

/// Drive `f` with mutable access to the embedded client inside an engine
/// turn (so a real `Ctx` is available): the client is moved into a shim
/// actor for one turn and handed back to the host afterwards.
fn with_client(rig: &mut Rig, f: impl FnOnce(&mut PvfsClient, &mut Ctx<'_>) + 'static) {
    type ClientClosure = Box<dyn FnOnce(&mut PvfsClient, &mut Ctx<'_>)>;
    struct Shim {
        f: Option<ClientClosure>,
        client: Option<PvfsClient>,
        host: ActorId,
    }
    struct Go;
    impl Actor for Shim {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Go>() {
                let mut client = self.client.take().expect("client present");
                (self.f.take().expect("closure present"))(&mut client, ctx);
                ctx.send(self.host, GiveBack(client));
            }
        }
    }
    let placeholder = PvfsClient::new(ClientConfig {
        node: NodeId(9),
        port: Port(60000),
        mgr_node: NodeId(0),
        iod_nodes: vec![NodeId(0)],
        sock_target: rig.tap,
        fabric: rig.tap,
        cpu: FifoResource::shared("tmp"),
        costs: CostModel::default(),
        caching: false,
    });
    let client = {
        let h = rig.eng.actor_as_mut::<Host>(rig.host).expect("host");
        std::mem::replace(&mut h.client, placeholder)
    };
    let host = rig.host;
    let shim =
        rig.eng.add_actor(Box::new(Shim { f: Some(Box::new(f)), client: Some(client), host }));
    rig.eng.post(Dur::ZERO, shim, Go);
    rig.eng.run();
}

#[test]
fn open_completion_registers_handle() {
    let mut rig = rig();
    install_handle(&mut rig, handle(5, 1 << 20, 2));
    let h = rig.eng.actor_as::<Host>(rig.host).unwrap();
    assert_eq!(h.completions.len(), 1);
    assert!(matches!(h.completions[0], Completion::Meta { .. }));
    assert!(h.client.handle_of(Fid(5)).is_some());
}

#[test]
fn mgr_error_reported() {
    let mut rig = rig();
    let reply = MgrReply::Err { req_id: 1, reason: "no such file".into() };
    let m =
        NetMessage::new((NodeId(0), Port(3000)), (NodeId(1), Port(CLIENT_PORT_BASE)), 64, 0, reply);
    rig.eng.post(Dur::ZERO, rig.host, Deliver(m));
    rig.eng.run();
    let h = rig.eng.actor_as::<Host>(rig.host).unwrap();
    assert!(
        matches!(&h.completions[0], Completion::MetaErr { reason, .. } if reason.contains("no such"))
    );
}

#[test]
fn read_fans_out_one_request_per_involved_iod() {
    let mut rig = rig();
    install_handle(&mut rig, handle(5, 16 << 20, 4));
    with_client(&mut rig, |client, ctx| {
        // 256 KB spans 4 stripe units => all 4 iods involved.
        client.read(ctx, Fid(5), 0, 256 << 10);
    });
    let tap = rig.eng.actor_as::<WireTap>(rig.tap).unwrap();
    let reads: Vec<&NetMessage> =
        tap.sent.iter().filter(|m| m.peek::<ReadReq>().is_some()).collect();
    assert_eq!(reads.len(), 4, "one aggregated request per iod");
    let dsts: std::collections::BTreeSet<u16> = reads.iter().map(|m| m.dst.0).collect();
    assert_eq!(dsts.len(), 4, "requests target distinct iods");
    let total: u64 = reads
        .iter()
        .map(|m| {
            let rr = m.peek::<ReadReq>().unwrap();
            rr.ranges.iter().map(|r| r.len as u64).sum::<u64>()
        })
        .sum();
    assert_eq!(total, 256 << 10, "ranges tile the request");
}

#[test]
fn small_read_contacts_single_iod() {
    let mut rig = rig();
    install_handle(&mut rig, handle(5, 16 << 20, 4));
    with_client(&mut rig, |client, ctx| {
        client.read(ctx, Fid(5), 1000, 4096);
    });
    let tap = rig.eng.actor_as::<WireTap>(rig.tap).unwrap();
    let reads: Vec<_> = tap.sent.iter().filter(|m| m.peek::<ReadReq>().is_some()).collect();
    assert_eq!(reads.len(), 1);
}

#[test]
fn read_completes_only_after_all_acks_and_all_bytes() {
    let mut rig = rig();
    install_handle(&mut rig, handle(5, 16 << 20, 2));
    with_client(&mut rig, |client, ctx| {
        // 128 KB = 2 stripe units on 2 iods.
        client.read(ctx, Fid(5), 0, 128 << 10);
    });
    // Find the two requests and reply iod by iod.
    let reqs: Vec<(u64, NodeId, Vec<ByteRange>)> = {
        let tap = rig.eng.actor_as::<WireTap>(rig.tap).unwrap();
        tap.sent
            .iter()
            .filter_map(|m| m.peek::<ReadReq>().map(|rr| (rr.req_id, m.dst, rr.ranges.clone())))
            .collect()
    };
    assert_eq!(reqs.len(), 2);
    let to_client = (NodeId(1), Port(CLIENT_PORT_BASE));
    // First iod: ack + data. Client must NOT complete yet.
    let (req_id, iod, ranges) = reqs[0].clone();
    let ack = ReadAck { req_id, bytes: ranges.iter().map(|r| r.len as u64).sum() };
    rig.eng.post(
        Dur::ZERO,
        rig.host,
        Deliver(NetMessage::new((iod, Port(7000)), to_client, 64, 0, ack)),
    );
    for r in &ranges {
        let rd = ReadData {
            req_id,
            fid: Fid(5),
            range: *r,
            data: Payload::described(Content::new(Fid(5), r.offset), r.len),
        };
        rig.eng.post(
            Dur::ZERO,
            rig.host,
            Deliver(NetMessage::new((iod, Port(7000)), to_client, 64 + r.len, 0, rd)),
        );
    }
    rig.eng.run();
    assert!(
        rig.eng.actor_as::<Host>(rig.host).unwrap().completions.len() <= 1,
        "read must not complete with an iod outstanding"
    );
    let before = rig.eng.actor_as::<Host>(rig.host).unwrap().completions.len();
    // Second iod.
    let (req_id, iod, ranges) = reqs[1].clone();
    let ack = ReadAck { req_id, bytes: ranges.iter().map(|r| r.len as u64).sum() };
    rig.eng.post(
        Dur::ZERO,
        rig.host,
        Deliver(NetMessage::new((iod, Port(7000)), to_client, 64, 0, ack)),
    );
    for r in &ranges {
        let rd = ReadData {
            req_id,
            fid: Fid(5),
            range: *r,
            data: Payload::described(Content::new(Fid(5), r.offset), r.len),
        };
        rig.eng.post(
            Dur::ZERO,
            rig.host,
            Deliver(NetMessage::new((iod, Port(7000)), to_client, 64 + r.len, 0, rd)),
        );
    }
    rig.eng.run();
    let h = rig.eng.actor_as::<Host>(rig.host).unwrap();
    assert_eq!(h.completions.len(), before + 1, "read completes after the last iod");
    let c = h.completions.last().unwrap();
    match c {
        Completion::Read { bytes, latency, .. } => {
            assert_eq!(*bytes, 128 << 10);
            assert!(*latency > Dur::ZERO);
        }
        other => panic!("expected read completion, got {:?}", other),
    }
}

#[test]
fn write_completes_on_all_acks_and_carries_pattern_data() {
    let mut rig = rig();
    install_handle(&mut rig, handle(5, 16 << 20, 2));
    with_client(&mut rig, |client, ctx| {
        client.write(ctx, Fid(5), 65536, 65536, false);
    });
    let reqs: Vec<(u64, NodeId)> = {
        let tap = rig.eng.actor_as::<WireTap>(rig.tap).unwrap();
        tap.sent
            .iter()
            .filter_map(|m| {
                m.peek::<WriteReq>().map(|wr| {
                    // Data must be the deterministic pattern, described.
                    for part in &wr.parts {
                        let expect = pattern(Fid(5), part.range.offset, part.range.len as usize);
                        assert_eq!(part.data, expect, "write payload must be pattern bytes");
                        let len = part.range.len as usize;
                        assert_eq!(
                            part.data.described_at(0, len),
                            Some(Content::new(Fid(5), part.range.offset))
                        );
                    }
                    (wr.req_id, m.dst)
                })
            })
            .collect()
    };
    assert_eq!(reqs.len(), 1, "64 KB at offset 64 KB sits in one stripe unit");
    let (req_id, iod) = reqs[0];
    let to_client = (NodeId(1), Port(CLIENT_PORT_BASE));
    let ack = WriteAck { req_id, bytes: 65536 };
    rig.eng.post(
        Dur::ZERO,
        rig.host,
        Deliver(NetMessage::new((iod, Port(7000)), to_client, 64, 0, ack)),
    );
    rig.eng.run();
    let h = rig.eng.actor_as::<Host>(rig.host).unwrap();
    assert!(matches!(h.completions.last(), Some(Completion::Write { bytes: 65536, .. })));
    assert_eq!(h.client.stats().writes, 1);
}

#[test]
fn corrupted_read_data_counts_one_verify_failure() {
    // The client's read check: every delivered byte is compared with the
    // file pattern. One flipped byte anywhere in a data message is one
    // failure; a clean message, and a clean one after it, are none.
    let mut rig = rig();
    install_handle(&mut rig, handle(5, 16 << 20, 1));
    with_client(&mut rig, |client, ctx| {
        client.read(ctx, Fid(5), 1000, 3 * 8192);
    });
    let (req_id, iod) = {
        let tap = rig.eng.actor_as::<WireTap>(rig.tap).unwrap();
        let m = tap.sent.iter().find(|m| m.peek::<ReadReq>().is_some()).unwrap();
        (m.peek::<ReadReq>().unwrap().req_id, m.dst)
    };
    let to_client = (NodeId(1), Port(CLIENT_PORT_BASE));
    let deliver = |rig: &mut Rig, range: ByteRange, corrupt_at: Option<usize>| {
        let mut bytes = pattern(Fid(5), range.offset, range.len as usize);
        if let Some(i) = corrupt_at {
            bytes[i] ^= 0x40;
        }
        let rd = ReadData { req_id, fid: Fid(5), range, data: bytes.into() };
        rig.eng.post(
            Dur::ZERO,
            rig.host,
            Deliver(NetMessage::new((iod, Port(7000)), to_client, 64 + range.len, 0, rd)),
        );
        rig.eng.run();
        rig.eng.actor_as::<Host>(rig.host).unwrap().client.stats().verify_failures
    };
    assert_eq!(deliver(&mut rig, ByteRange::new(1000, 8192), None), 0);
    assert_eq!(deliver(&mut rig, ByteRange::new(1000 + 8192, 8192), Some(5000)), 1);
    assert_eq!(deliver(&mut rig, ByteRange::new(1000 + 2 * 8192, 8192), None), 1);
}

#[test]
fn described_read_data_is_checked_by_its_fields() {
    // A described segment is checked by what it names: the file and the
    // offset of the position it fills. A byte segment beside it is still
    // compared byte by byte, and the segments must cover the whole range.
    let mut rig = rig();
    install_handle(&mut rig, handle(5, 16 << 20, 1));
    with_client(&mut rig, |client, ctx| {
        client.read(ctx, Fid(5), 1000, 5 * 8192);
    });
    let (req_id, iod) = {
        let tap = rig.eng.actor_as::<WireTap>(rig.tap).unwrap();
        let m = tap.sent.iter().find(|m| m.peek::<ReadReq>().is_some()).unwrap();
        (m.peek::<ReadReq>().unwrap().req_id, m.dst)
    };
    let to_client = (NodeId(1), Port(CLIENT_PORT_BASE));
    let deliver = |rig: &mut Rig, range: ByteRange, data: Payload| {
        let rd = ReadData { req_id, fid: Fid(5), range, data };
        rig.eng.post(
            Dur::ZERO,
            rig.host,
            Deliver(NetMessage::new((iod, Port(7000)), to_client, 64 + range.len, 0, rd)),
        );
        rig.eng.run();
        rig.eng.actor_as::<Host>(rig.host).unwrap().client.stats().verify_failures
    };
    let range = |k: u64| ByteRange::new(1000 + k * 8192, 8192);
    let own = |k: u64| Payload::described(Content::new(Fid(5), range(k).offset), 8192);
    assert_eq!(deliver(&mut rig, range(0), own(0)), 0, "the right descriptor");
    let shifted = Payload::described(Content::new(Fid(5), range(1).offset + 4096), 8192);
    assert_eq!(deliver(&mut rig, range(1), shifted), 1, "shifted by 4096");
    let other_file = Payload::described(Content::new(Fid(6), range(2).offset), 8192);
    assert_eq!(deliver(&mut rig, range(2), other_file), 2, "another file");
    let mut mixed = Payload::from(pattern(Fid(5), range(3).offset, 100));
    let mut flipped = pattern(Fid(5), range(3).offset + 100, 4000);
    flipped[3999] ^= 0x10;
    mixed.push(Segment::Bytes(flipped.into()));
    mixed.push(Segment::Described(Content::new(Fid(5), range(3).offset + 4100), 4092));
    assert_eq!(mixed.len(), 8192);
    assert_eq!(deliver(&mut rig, range(3), mixed), 3, "bytes + described, one byte flipped");
    let short = Payload::described(Content::new(Fid(5), range(4).offset), 8192 - 4096);
    assert_eq!(deliver(&mut rig, range(4), short), 4, "lengths sum short of the range");
}

#[test]
fn short_read_data_is_a_verify_failure() {
    // A message carrying fewer bytes than its range claims cannot pass as
    // "every byte it has matches".
    let mut rig = rig();
    install_handle(&mut rig, handle(5, 16 << 20, 1));
    with_client(&mut rig, |client, ctx| {
        client.read(ctx, Fid(5), 0, 4096);
    });
    let rd = ReadData {
        req_id: 1,
        fid: Fid(5),
        range: ByteRange::new(0, 4096),
        data: pattern(Fid(5), 0, 4000).into(),
    };
    let to_client = (NodeId(1), Port(CLIENT_PORT_BASE));
    rig.eng.post(
        Dur::ZERO,
        rig.host,
        Deliver(NetMessage::new((NodeId(0), Port(7000)), to_client, 64 + 4096, 0, rd)),
    );
    rig.eng.run();
    assert_eq!(rig.eng.actor_as::<Host>(rig.host).unwrap().client.stats().verify_failures, 1);
}
