//! The disk actor: a request queue in front of the mechanical model.
//!
//! Requests are (physical block, count) extents. The queue can be served
//! FIFO or with a C-LOOK elevator (ascending sweeps), the policy Linux-era
//! IDE drivers effectively gave the paper's iod nodes. One request is in
//! service at a time; completion posts a [`DiskReply`] to the requester.

use crate::geometry::DiskGeometry;
use sim_core::{Actor, ActorId, Ctx, Dur, LogHistogram, Msg, SimTime};
use std::any::Any;
use std::collections::VecDeque;

/// Queue scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskSched {
    Fifo,
    /// C-LOOK elevator: serve ascending block numbers, wrap to the lowest
    /// pending request when the sweep passes the end.
    CLook,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    Read,
    Write,
}

/// A request for the disk actor.
#[derive(Debug)]
pub struct DiskRequest {
    pub op: DiskOp,
    /// First physical 4 KB block.
    pub pblk: u64,
    /// Number of contiguous blocks.
    pub blocks: u32,
    /// Actor to notify on completion.
    pub reply_to: ActorId,
    /// Opaque token echoed in the reply.
    pub token: u64,
}

/// Completion notice.
#[derive(Debug, Clone, Copy)]
pub struct DiskReply {
    pub op: DiskOp,
    pub pblk: u64,
    pub blocks: u32,
    pub token: u64,
    /// Total time the request spent at the disk (queue + service).
    pub latency: Dur,
}

struct Pending {
    req: DiskRequest,
    arrived: SimTime,
}

/// Internal completion event.
struct ServiceDone;

/// Per-disk statistics.
#[derive(Debug, Default, Clone)]
pub struct DiskStats {
    pub requests: u64,
    pub blocks_read: u64,
    pub blocks_written: u64,
    pub sequential_hits: u64,
    pub busy: Dur,
}

/// The disk actor.
pub struct Disk {
    geom: DiskGeometry,
    sched: DiskSched,
    queue: VecDeque<Pending>,
    in_service: Option<Pending>,
    head_cylinder: u32,
    /// Block immediately after the last serviced extent (sequential
    /// detection).
    next_seq_pblk: u64,
    stats: DiskStats,
    latency: LogHistogram,
}

impl Disk {
    pub fn new(geom: DiskGeometry, sched: DiskSched) -> Disk {
        Disk {
            geom,
            sched,
            queue: VecDeque::new(),
            in_service: None,
            head_cylinder: 0,
            next_seq_pblk: u64::MAX,
            stats: DiskStats::default(),
            latency: LogHistogram::new(),
        }
    }

    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    pub fn latency_histogram(&self) -> &LogHistogram {
        &self.latency
    }

    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.nanos() == 0 {
            0.0
        } else {
            self.stats.busy.as_nanos() as f64 / now.nanos() as f64
        }
    }

    fn pick_next(&mut self) -> Option<Pending> {
        match self.sched {
            DiskSched::Fifo => self.queue.pop_front(),
            DiskSched::CLook => {
                if self.queue.is_empty() {
                    return None;
                }
                // Next request at or above the head position; wrap to the
                // lowest if the sweep is exhausted.
                let here = self.next_seq_pblk;
                let mut best: Option<(usize, u64)> = None;
                let mut lowest: (usize, u64) = (0, u64::MAX);
                for (i, p) in self.queue.iter().enumerate() {
                    if p.req.pblk < lowest.1 {
                        lowest = (i, p.req.pblk);
                    }
                    if here != u64::MAX && p.req.pblk >= here {
                        match best {
                            Some((_, b)) if p.req.pblk >= b => {}
                            _ => best = Some((i, p.req.pblk)),
                        }
                    }
                }
                let idx = best.map(|(i, _)| i).unwrap_or(lowest.0);
                self.queue.remove(idx)
            }
        }
    }

    fn start_service(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert!(self.in_service.is_none());
        let Some(p) = self.pick_next() else { return };
        let sequential = p.req.pblk == self.next_seq_pblk;
        if sequential {
            self.stats.sequential_hits += 1;
        }
        let t = self.geom.service_time(self.head_cylinder, p.req.pblk, p.req.blocks, sequential);
        self.stats.busy += t;
        self.head_cylinder = self.geom.cylinder_of(p.req.pblk + p.req.blocks as u64 - 1);
        self.next_seq_pblk = p.req.pblk + p.req.blocks as u64;
        self.in_service = Some(p);
        ctx.schedule_self(t, ServiceDone);
    }
}

impl Actor for Disk {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.cast::<DiskRequest>() {
            Ok(req) => {
                debug_assert!(req.blocks > 0, "zero-length disk request");
                self.stats.requests += 1;
                self.queue.push_back(Pending { req: *req, arrived: ctx.now() });
                if self.in_service.is_none() {
                    self.start_service(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        if msg.is::<ServiceDone>() {
            let p = self.in_service.take().expect("ServiceDone with nothing in service");
            let latency = ctx.now().since(p.arrived);
            self.latency.record(latency);
            match p.req.op {
                DiskOp::Read => self.stats.blocks_read += p.req.blocks as u64,
                DiskOp::Write => self.stats.blocks_written += p.req.blocks as u64,
            }
            ctx.schedule_in(
                Dur::ZERO,
                p.req.reply_to,
                DiskReply {
                    op: p.req.op,
                    pblk: p.req.pblk,
                    blocks: p.req.blocks,
                    token: p.req.token,
                    latency,
                },
            );
            self.start_service(ctx);
        } else {
            panic!("disk received unexpected message");
        }
    }

    fn name(&self) -> String {
        "disk".into()
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
    use sim_core::Engine;

    struct Collector {
        replies: Vec<(u64, SimTime)>,
    }
    impl Actor for Collector {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if let Ok(r) = msg.cast::<DiskReply>() {
                self.replies.push((r.token, ctx.now()));
            }
        }
        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
            Some(self)
        }
    }

    fn setup(sched: DiskSched) -> (Engine, ActorId, ActorId) {
        let mut eng = Engine::new(0);
        let col = eng.add_actor(Box::new(Collector { replies: vec![] }));
        let disk = eng.add_actor(Box::new(Disk::new(DiskGeometry::maxtor_20gb(), sched)));
        (eng, disk, col)
    }

    fn req(pblk: u64, blocks: u32, reply_to: ActorId, token: u64) -> DiskRequest {
        DiskRequest { op: DiskOp::Read, pblk, blocks, reply_to, token }
    }

    #[test]
    fn single_request_takes_positioning_plus_transfer() {
        let (mut eng, disk, col) = setup(DiskSched::Fifo);
        eng.post(Dur::ZERO, disk, req(1_000_000, 8, col, 1));
        eng.run();
        let g = DiskGeometry::maxtor_20gb();
        let expect = g.service_time(0, 1_000_000, 8, false);
        let got = eng.actor_as::<Collector>(col).unwrap().replies[0].1;
        assert_eq!(got, SimTime::ZERO + expect);
    }

    #[test]
    fn sequential_follow_up_is_fast() {
        let (mut eng, disk, col) = setup(DiskSched::Fifo);
        eng.post(Dur::ZERO, disk, req(500, 8, col, 1));
        eng.post(Dur::ZERO, disk, req(508, 8, col, 2));
        eng.run();
        let d = eng.actor_as::<Disk>(disk).unwrap();
        assert_eq!(d.stats().sequential_hits, 1);
        let replies = &eng.actor_as::<Collector>(col).unwrap().replies;
        let gap = replies[1].1.since(replies[0].1);
        let g = DiskGeometry::maxtor_20gb();
        assert_eq!(gap, g.controller_overhead + g.transfer_time(8));
    }

    #[test]
    fn fifo_preserves_submission_order() {
        let (mut eng, disk, col) = setup(DiskSched::Fifo);
        for (i, p) in [900_000u64, 100, 500_000].iter().enumerate() {
            eng.post(Dur::ZERO, disk, req(*p, 1, col, i as u64));
        }
        eng.run();
        let tokens: Vec<u64> =
            eng.actor_as::<Collector>(col).unwrap().replies.iter().map(|r| r.0).collect();
        assert_eq!(tokens, vec![0, 1, 2]);
    }

    #[test]
    fn clook_sweeps_ascending() {
        let (mut eng, disk, col) = setup(DiskSched::CLook);
        // First request seeds service; the remaining three queue up and are
        // served in ascending block order regardless of arrival order.
        eng.post(Dur::ZERO, disk, req(10, 1, col, 0));
        eng.post(Dur::ZERO, disk, req(900_000, 1, col, 1));
        eng.post(Dur::ZERO, disk, req(50_000, 1, col, 2));
        eng.post(Dur::ZERO, disk, req(400_000, 1, col, 3));
        eng.run();
        let tokens: Vec<u64> =
            eng.actor_as::<Collector>(col).unwrap().replies.iter().map(|r| r.0).collect();
        assert_eq!(tokens, vec![0, 2, 3, 1]);
    }

    #[test]
    fn clook_wraps_to_lowest() {
        let (mut eng, disk, col) = setup(DiskSched::CLook);
        eng.post(Dur::ZERO, disk, req(800_000, 1, col, 0));
        // Queued while the head sweeps past them: must wrap around.
        eng.post(Dur::ZERO, disk, req(100, 1, col, 1));
        eng.post(Dur::ZERO, disk, req(200, 1, col, 2));
        eng.run();
        let tokens: Vec<u64> =
            eng.actor_as::<Collector>(col).unwrap().replies.iter().map(|r| r.0).collect();
        assert_eq!(tokens, vec![0, 1, 2]);
    }

    #[test]
    fn stats_account_reads_and_writes() {
        let (mut eng, disk, col) = setup(DiskSched::Fifo);
        eng.post(Dur::ZERO, disk, req(0, 4, col, 0));
        eng.post(
            Dur::ZERO,
            disk,
            DiskRequest { op: DiskOp::Write, pblk: 100, blocks: 2, reply_to: col, token: 1 },
        );
        eng.run();
        let d = eng.actor_as::<Disk>(disk).unwrap();
        assert_eq!(d.stats().requests, 2);
        assert_eq!(d.stats().blocks_read, 4);
        assert_eq!(d.stats().blocks_written, 2);
        assert!(d.utilization(eng.now()) > 0.9, "disk was the only activity");
        assert!(d.latency_histogram().count() == 2);
    }

    #[test]
    fn queueing_latency_visible_under_load() {
        let (mut eng, disk, col) = setup(DiskSched::Fifo);
        for i in 0..10 {
            eng.post(Dur::ZERO, disk, req(i * 1000, 1, col, i));
        }
        eng.run();
        let replies = &eng.actor_as::<Collector>(col).unwrap().replies;
        let first = replies.first().unwrap().1;
        let last = replies.last().unwrap().1;
        assert!(last.since(first) > Dur::millis(5), "later requests must queue");
    }
}
