//! The PVFS metadata server (`mgr`).
//!
//! One instance per cluster. Owns the namespace: file names, fids, sizes,
//! and striping descriptors. The paper's cache module never caches metadata
//! ("they necessarily go to the meta-data server"), so every open/create is
//! a real network round trip to this actor.

use crate::config::CostModel;
use crate::protocol::{Fid, FileHandle, MgrCall, MgrReply, MgrRequest, StripeSpec, MGR_PORT};
use sim_core::{resource, Actor, ActorId, Ctx, Msg, SharedResource};
use sim_net::{Deliver, NetMessage, NodeId, Xmit};
use std::any::Any;
use std::collections::HashMap;

/// Striping policy applied to newly created files.
#[derive(Debug, Clone)]
pub struct StripePolicy {
    pub unit: u32,
    /// Stripe across this many iods (usually all of them).
    pub n_iods: u32,
    /// Total iods in the cluster (for round-robin base assignment).
    pub total_iods: u32,
}

/// Metadata server statistics.
#[derive(Debug, Default, Clone)]
pub struct MgrStats {
    pub creates: u64,
    pub opens: u64,
    pub errors: u64,
    /// Always 0; perfbench reads it until ROADMAP E.
    pub dir_updates: u64,
    /// Always 0; perfbench reads it until ROADMAP E.
    pub dir_queries: u64,
    /// Always 0; perfbench reads it until ROADMAP E.
    pub dir_located: u64,
    /// Always 0; perfbench reads it until ROADMAP E.
    pub dir_unknown: u64,
}

/// The metadata server actor.
pub struct Mgr {
    node: NodeId,
    fabric: ActorId,
    cpu: SharedResource,
    costs: CostModel,
    policy: StripePolicy,
    files: HashMap<String, FileHandle>,
    next_fid: u64,
    tag: u64,
    stats: MgrStats,
}

impl Mgr {
    pub fn new(
        node: NodeId,
        fabric: ActorId,
        cpu: SharedResource,
        costs: CostModel,
        policy: StripePolicy,
    ) -> Mgr {
        assert!(policy.n_iods >= 1 && policy.n_iods <= policy.total_iods);
        Mgr {
            node,
            fabric,
            cpu,
            costs,
            policy,
            files: HashMap::new(),
            next_fid: 1,
            tag: 0,
            stats: MgrStats::default(),
        }
    }

    pub fn stats(&self) -> &MgrStats {
        &self.stats
    }

    /// Namespace lookup for tests/diagnostics.
    pub fn lookup(&self, name: &str) -> Option<&FileHandle> {
        self.files.get(name)
    }

    /// Experiment-setup backdoor: register a file outside simulated time
    /// (the benchmark's files exist before measurement starts). Follows the
    /// same fid/striping policy as a protocol-level create.
    pub fn install_file(&mut self, name: &str, size: u64) -> FileHandle {
        match self.files.get(name) {
            Some(h) => h.clone(),
            None => self.create(name.to_string(), size),
        }
    }

    /// A new file under the next fid. Its base iod is round-robin across
    /// files, so simultaneous single-file workloads do not all hammer iod
    /// 0 first.
    fn create(&mut self, name: String, size: u64) -> FileHandle {
        let fid = Fid(self.next_fid);
        self.next_fid += 1;
        let stripe = StripeSpec {
            unit: self.policy.unit,
            n_iods: self.policy.n_iods,
            base: (fid.0 % self.policy.total_iods as u64) as u32,
        };
        let handle = FileHandle { fid, size, stripe };
        self.files.insert(name, handle.clone());
        handle
    }

    fn serve(&mut self, call: MgrCall) -> MgrReply {
        match call.req {
            MgrRequest::Create { name, size } => {
                if self.files.contains_key(&name) {
                    self.stats.errors += 1;
                    return MgrReply::Err { req_id: call.req_id, reason: "exists".into() };
                }
                self.stats.creates += 1;
                MgrReply::Ok { req_id: call.req_id, handle: self.create(name, size) }
            }
            MgrRequest::Open { name } => match self.files.get(&name) {
                Some(handle) => {
                    self.stats.opens += 1;
                    MgrReply::Ok { req_id: call.req_id, handle: handle.clone() }
                }
                None => {
                    self.stats.errors += 1;
                    MgrReply::Err { req_id: call.req_id, reason: "no such file".into() }
                }
            },
        }
    }
}

impl Actor for Mgr {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let d = match msg.cast::<Deliver>() {
            Ok(d) => d.0,
            Err(other) => panic!("mgr received unexpected message: {:?}", other),
        };
        let (_, call) = d.cast::<MgrCall>().unwrap_or_else(|m| {
            panic!("mgr received unexpected payload: {:?}", m);
        });
        let reply_to = call.reply_to;
        let reply = self.serve(*call);
        // Charge receive + service + send on the mgr node's CPU, then put
        // the reply on the wire.
        let service =
            self.costs.recv_overhead + self.costs.mgr_request_overhead + self.costs.send_overhead;
        let done = resource::reserve(&self.cpu, ctx.now(), service);
        self.tag += 1;
        let out = NetMessage::new(
            (self.node, MGR_PORT),
            reply_to,
            crate::protocol::MSG_HEADER_BYTES + 64, // handle encoding
            self.tag,
            reply,
        );
        ctx.schedule_in(done.since(ctx.now()), self.fabric, Xmit(out));
    }

    fn name(&self) -> String {
        "mgr".into()
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{Dur, Engine, FifoResource};
    use sim_net::Port;

    struct Capture {
        replies: Vec<MgrReply>,
    }
    impl Actor for Capture {
        fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
            // In this unit test we short-circuit the fabric: Xmit arrives here.
            if let Ok(x) = msg.cast::<Xmit>() {
                let (_, r) = x.0.cast::<MgrReply>().expect("mgr reply type");
                self.replies.push(*r);
            }
        }
        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
            Some(self)
        }
    }

    fn call(req_id: u64, req: MgrRequest) -> Deliver {
        Deliver(NetMessage::new(
            (NodeId(1), Port(9000)),
            (NodeId(0), MGR_PORT),
            64,
            0,
            MgrCall { req_id, reply_to: (NodeId(1), Port(9000)), req },
        ))
    }

    fn setup() -> (Engine, ActorId, ActorId) {
        let mut eng = Engine::new(0);
        let cap = eng.add_actor(Box::new(Capture { replies: vec![] }));
        let mgr = eng.add_actor(Box::new(Mgr::new(
            NodeId(0),
            cap,
            FifoResource::shared("mgr-cpu"),
            CostModel::default(),
            StripePolicy { unit: 65536, n_iods: 4, total_iods: 6 },
        )));
        (eng, mgr, cap)
    }

    #[test]
    fn create_then_open_returns_same_handle() {
        let (mut eng, mgr, cap) = setup();
        eng.post(Dur::ZERO, mgr, call(1, MgrRequest::Create { name: "f".into(), size: 1 << 20 }));
        eng.post(Dur::micros(1), mgr, call(2, MgrRequest::Open { name: "f".into() }));
        eng.run();
        let replies = &eng.actor_as::<Capture>(cap).unwrap().replies;
        assert_eq!(replies.len(), 2);
        let (h1, h2) = match (&replies[0], &replies[1]) {
            (MgrReply::Ok { handle: a, .. }, MgrReply::Ok { handle: b, .. }) => (a, b),
            other => panic!("unexpected replies: {:?}", other),
        };
        assert_eq!(h1.fid, h2.fid);
        assert_eq!(h1.size, 1 << 20);
        assert_eq!(h1.stripe.n_iods, 4);
    }

    #[test]
    fn duplicate_create_and_missing_open_error() {
        let (mut eng, mgr, cap) = setup();
        eng.post(Dur::ZERO, mgr, call(1, MgrRequest::Create { name: "f".into(), size: 10 }));
        eng.post(Dur::micros(1), mgr, call(2, MgrRequest::Create { name: "f".into(), size: 10 }));
        eng.post(Dur::micros(2), mgr, call(3, MgrRequest::Open { name: "nope".into() }));
        eng.run();
        let replies = &eng.actor_as::<Capture>(cap).unwrap().replies;
        assert!(matches!(replies[0], MgrReply::Ok { .. }));
        assert!(matches!(replies[1], MgrReply::Err { .. }));
        assert!(matches!(replies[2], MgrReply::Err { .. }));
        let m = eng.actor_as::<Mgr>(mgr).unwrap();
        assert_eq!(m.stats().creates, 1);
        assert_eq!(m.stats().errors, 2);
    }

    #[test]
    fn base_iod_round_robins_across_files() {
        let (mut eng, mgr, cap) = setup();
        for i in 0..6 {
            eng.post(
                Dur::micros(i),
                mgr,
                call(i, MgrRequest::Create { name: format!("f{i}"), size: 1 }),
            );
        }
        eng.run();
        let replies = &eng.actor_as::<Capture>(cap).unwrap().replies;
        let bases: Vec<u32> = replies
            .iter()
            .map(|r| match r {
                MgrReply::Ok { handle, .. } => handle.stripe.base,
                _ => panic!(),
            })
            .collect();
        let distinct: std::collections::HashSet<u32> = bases.iter().copied().collect();
        assert!(distinct.len() >= 5, "bases should spread: {:?}", bases);
    }

    #[test]
    fn service_takes_cpu_time() {
        let (mut eng, mgr, _cap) = setup();
        eng.post(Dur::ZERO, mgr, call(1, MgrRequest::Open { name: "x".into() }));
        let report = eng.run();
        let c = CostModel::default();
        let expect = c.recv_overhead + c.mgr_request_overhead + c.send_overhead;
        assert_eq!(report.end_time.since(sim_core::SimTime::ZERO), expect);
    }
}
