//! The discrete-event engine: a totally-ordered event queue dispatching to
//! registered [`Actor`]s.
//!
//! Design notes:
//! * Events wait in one [`DueQueue`], ordered by time. A new event is
//!   placed behind every event due no later than it, so same-instant
//!   events dispatch in the order they were scheduled, by position alone
//!   — runs are bit-reproducible.
//! * Actors interact **only** through events (possibly zero-delay). During
//!   dispatch the target actor is moved out of its slot, so an actor may
//!   freely schedule events for any actor, including itself.
//! * Payloads are `Box<dyn Any>`; each protocol crate defines its own typed
//!   messages and downcasts on receipt. [`Msg::cast`] keeps that ergonomic.

use crate::queue::DueQueue;
use crate::time::{Dur, SimTime};
use std::any::Any;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of an actor registered with an [`Engine`].
pub type ActorId = usize;

/// Sentinel used as `from` for events not sent by any actor (timers,
/// bootstrap events).
pub const NO_ACTOR: ActorId = usize::MAX;

/// A message delivered to an actor.
pub struct Msg {
    /// Who scheduled this event (or [`NO_ACTOR`]).
    pub from: ActorId,
    /// Typed payload; downcast with [`Msg::cast`] or [`Msg::is`].
    pub payload: Box<dyn Any>,
}

impl Msg {
    pub fn new<T: Any>(from: ActorId, payload: T) -> Msg {
        Msg { from, payload: Box::new(payload) }
    }

    /// True if the payload is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.payload.is::<T>()
    }

    /// Downcast the payload, returning the original message on mismatch so
    /// callers can chain attempts.
    pub fn cast<T: Any>(self) -> Result<Box<T>, Msg> {
        let Msg { from, payload } = self;
        payload.downcast::<T>().map_err(|payload| Msg { from, payload })
    }

    /// Borrow the payload as `T` if it is one.
    pub fn peek<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Msg{{from: {}}}", self.from)
    }
}

/// A simulation participant. Actors own their state and react to messages.
pub trait Actor {
    /// Handle one message at the current simulation time.
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg);

    /// Human-readable name for diagnostics.
    fn name(&self) -> String {
        "actor".to_string()
    }

    /// Opt-in downcast support so harness code can inspect actor state
    /// between runs (e.g. to read results out of a finished workload).
    /// Implementations that want this return `Some(self)`.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }

    /// Mutable counterpart of [`Actor::as_any`].
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

/// The engine's pending events: each one's target and message.
type EventQueue = DueQueue<(ActorId, Msg)>;

/// Outcome of [`Engine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Number of events dispatched.
    pub events: u64,
    /// Simulation clock when the run ended.
    pub end_time: SimTime,
    /// Why the run ended.
    pub stop: StopReason,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained.
    QueueEmpty,
    /// An actor called [`Ctx::stop`].
    Stopped,
    /// The configured horizon was reached.
    Horizon,
    /// The event budget was exhausted (likely a zero-delay livelock).
    EventBudget,
}

/// Host time one kind of actor consumed in a profiled run — see
/// [`Engine::enable_profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorProfile {
    /// Actor type: the alphabetic stem of [`Actor::name`] (`kcache-3` and
    /// `kcache-0` are both `kcache`). The queue and dispatch loop itself
    /// is the row [`ENGINE_PROFILE_KIND`].
    pub kind: String,
    /// Actors of this type that handled at least one event.
    pub actors: usize,
    /// Events they handled.
    pub events: u64,
    /// Host nanoseconds spent inside their [`Actor::handle`].
    pub host_ns: u64,
}

/// [`ActorProfile::kind`] of the engine's own row: `run_until` wall time
/// not spent inside any handler (queue push/pop, dispatch, and the
/// profiler's own clock reads).
pub const ENGINE_PROFILE_KIND: &str = "(engine)";

/// Self-profile state; exists only once [`Engine::enable_profile`] ran.
#[derive(Default)]
struct Profile {
    /// Per [`ActorId`]: (events handled, host ns in `handle`).
    per_actor: Vec<(u64, u64)>,
    /// Host ns inside `run_until`, handlers included.
    wall_ns: u64,
}

/// Scheduling context handed to an actor during dispatch.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: ActorId,
    queue: &'a mut EventQueue,
    stop: &'a mut bool,
}

impl<'a> Ctx<'a> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor being dispatched.
    #[inline]
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Deliver `payload` to `target` after `delay` (zero-delay allowed;
    /// FIFO among same-instant events).
    pub fn schedule_in<T: Any>(&mut self, delay: Dur, target: ActorId, payload: T) {
        self.schedule_msg(delay, target, Msg::new(self.self_id, payload));
    }

    /// Deliver an already-built [`Msg`] after `delay`, preserving its `from`.
    pub fn schedule_msg(&mut self, delay: Dur, target: ActorId, msg: Msg) {
        self.queue.push(self.now + delay, (target, msg));
    }

    /// Deliver immediately (still via the queue, after events already due).
    pub fn send<T: Any>(&mut self, target: ActorId, payload: T) {
        self.schedule_in(Dur::ZERO, target, payload);
    }

    /// Schedule a message to this actor itself.
    pub fn schedule_self<T: Any>(&mut self, delay: Dur, payload: T) {
        let id = self.self_id;
        self.schedule_in(delay, id, payload);
    }

    /// Halt the simulation after the current dispatch completes.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// The simulation engine.
pub struct Engine {
    now: SimTime,
    queue: EventQueue,
    actors: Vec<Option<Box<dyn Actor>>>,
    stop: bool,
    events_dispatched: u64,
    profile: Option<Profile>,
    /// Hard cap on dispatched events; guards against zero-delay livelock.
    pub event_budget: u64,
    /// Master seed, recorded for reproducibility reporting.
    pub seed: u64,
}

impl Engine {
    pub fn new(seed: u64) -> Engine {
        Engine {
            now: SimTime::ZERO,
            queue: DueQueue::new(),
            actors: Vec::new(),
            stop: false,
            events_dispatched: 0,
            profile: None,
            event_budget: u64::MAX,
            seed,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Turn on the self-profile: from now on every dispatch is timed on
    /// the host clock and charged to its target actor. Observability
    /// only — no simulated result depends on it. Off (the default) costs
    /// one never-taken branch per event and no clock read.
    pub fn enable_profile(&mut self) {
        self.profile.get_or_insert_default();
    }

    /// The self-profile so far, one row per actor type plus the engine's
    /// own ([`ENGINE_PROFILE_KIND`]), most host time first. Empty unless
    /// [`enable_profile`](Self::enable_profile) was called.
    pub fn profile(&self) -> Vec<ActorProfile> {
        let Some(p) = &self.profile else {
            return Vec::new();
        };
        let mut by_kind: BTreeMap<String, ActorProfile> = BTreeMap::new();
        for (id, &(events, host_ns)) in p.per_actor.iter().enumerate() {
            if events == 0 {
                continue;
            }
            let name = self.actor(id).name();
            let stem: String = name.chars().take_while(|c| c.is_ascii_alphabetic()).collect();
            let kind = if stem.is_empty() { name } else { stem };
            let row = by_kind.entry(kind.clone()).or_insert(ActorProfile {
                kind,
                actors: 0,
                events: 0,
                host_ns: 0,
            });
            row.actors += 1;
            row.events += events;
            row.host_ns += host_ns;
        }
        let mut rows: Vec<ActorProfile> = by_kind.into_values().collect();
        let handled: u64 = rows.iter().map(|r| r.host_ns).sum();
        rows.push(ActorProfile {
            kind: ENGINE_PROFILE_KIND.to_string(),
            actors: 1,
            events: rows.iter().map(|r| r.events).sum(),
            host_ns: p.wall_ns.saturating_sub(handled),
        });
        rows.sort_by(|a, b| b.host_ns.cmp(&a.host_ns).then_with(|| a.kind.cmp(&b.kind)));
        rows
    }

    /// Register an actor, returning its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        self.actors.push(Some(actor));
        self.actors.len() - 1
    }

    /// Reserve an id to break construction cycles; fill it with
    /// [`Engine::install`] before any event targets it.
    pub fn reserve_actor(&mut self) -> ActorId {
        self.actors.push(None);
        self.actors.len() - 1
    }

    /// Install an actor into a reserved slot.
    pub fn install(&mut self, id: ActorId, actor: Box<dyn Actor>) {
        assert!(self.actors[id].is_none(), "actor slot {} already occupied", id);
        self.actors[id] = Some(actor);
    }

    /// Schedule a bootstrap message from outside any actor.
    pub fn post<T: Any>(&mut self, delay: Dur, target: ActorId, payload: T) {
        self.queue.push(self.now + delay, (target, Msg::new(NO_ACTOR, payload)));
    }

    /// Run until the queue drains, an actor stops the run, `horizon` is
    /// passed, or the event budget is exhausted.
    pub fn run_until(&mut self, horizon: SimTime) -> RunReport {
        let run_started = self.profile.is_some().then(Instant::now);
        let mut stop_reason = StopReason::QueueEmpty;
        while let Some((at, _)) = self.queue.peek() {
            if at > horizon {
                self.now = horizon;
                stop_reason = StopReason::Horizon;
                break;
            }
            if self.events_dispatched >= self.event_budget {
                stop_reason = StopReason::EventBudget;
                break;
            }
            let (at, (target, msg)) = self.queue.pop().expect("peeked event vanished");
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_dispatched += 1;

            let mut actor = self.actors[target]
                .take()
                .unwrap_or_else(|| panic!("event targets missing/in-flight actor {}", target));
            {
                let mut ctx = Ctx {
                    now: self.now,
                    self_id: target,
                    queue: &mut self.queue,
                    stop: &mut self.stop,
                };
                match &mut self.profile {
                    None => actor.handle(&mut ctx, msg),
                    Some(p) => {
                        let t0 = Instant::now();
                        actor.handle(&mut ctx, msg);
                        let ns = t0.elapsed().as_nanos() as u64;
                        if p.per_actor.len() <= target {
                            p.per_actor.resize(target + 1, (0, 0));
                        }
                        let cell = &mut p.per_actor[target];
                        cell.0 += 1;
                        cell.1 += ns;
                    }
                }
            }
            self.actors[target] = Some(actor);

            if self.stop {
                stop_reason = StopReason::Stopped;
                break;
            }
        }
        if let (Some(p), Some(t0)) = (&mut self.profile, run_started) {
            p.wall_ns += t0.elapsed().as_nanos() as u64;
        }
        RunReport { events: self.events_dispatched, end_time: self.now, stop: stop_reason }
    }

    /// Run to quiescence (or stop/budget).
    pub fn run(&mut self) -> RunReport {
        self.run_until(SimTime(u64::MAX))
    }

    /// Immutable access to an actor between runs (e.g. to pull results).
    /// Panics if the id was never installed.
    pub fn actor(&self, id: ActorId) -> &dyn Actor {
        self.actors[id].as_deref().expect("actor not installed")
    }

    /// Mutable access to an actor between runs.
    pub fn actor_mut(&mut self, id: ActorId) -> &mut dyn Actor {
        self.actors[id].as_deref_mut().expect("actor not installed")
    }

    /// Downcast an actor to a concrete type (requires the actor to opt in
    /// via [`Actor::as_any`]).
    pub fn actor_as<T: Any>(&self, id: ActorId) -> Option<&T> {
        self.actor(id).as_any()?.downcast_ref::<T>()
    }

    /// Mutable counterpart of [`Engine::actor_as`].
    pub fn actor_as_mut<T: Any>(&mut self, id: ActorId) -> Option<&mut T> {
        self.actor_mut(id).as_any_mut()?.downcast_mut::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo actor: replies `Pong` to every `Ping` after a fixed delay.
    struct Ping(u32);
    struct Pong(#[allow(dead_code)] u32);

    struct Echo {
        delay: Dur,
        seen: Vec<u32>,
    }

    impl Actor for Echo {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if let Ok(p) = msg.cast::<Ping>() {
                self.seen.push(p.0);
                ctx.schedule_in(self.delay, ctx.self_id(), Pong(p.0));
            }
        }
        fn name(&self) -> String {
            "echo".into()
        }
    }

    /// Records the `Ping`s it is handed, in dispatch order, with when.
    struct Recorder {
        order: Vec<(u32, SimTime)>,
    }

    impl Actor for Recorder {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if let Ok(p) = msg.cast::<Ping>() {
                self.order.push((p.0, ctx.now()));
            }
        }
        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }
    }

    fn recorded(eng: &Engine, rec: ActorId) -> Vec<(u32, SimTime)> {
        eng.actor_as::<Recorder>(rec).expect("a recorder").order.clone()
    }

    #[test]
    fn events_dispatch_in_time_order() {
        let mut eng = Engine::new(0);
        let rec = eng.add_actor(Box::new(Recorder { order: vec![] }));
        eng.post(Dur::millis(3), rec, Ping(3));
        eng.post(Dur::millis(1), rec, Ping(1));
        eng.post(Dur::millis(2), rec, Ping(2));
        let report = eng.run();
        assert_eq!(report.events, 3);
        assert_eq!(report.stop, StopReason::QueueEmpty);
        assert_eq!(report.end_time, SimTime::ZERO + Dur::millis(3));
        let at = |ms| SimTime::ZERO + Dur::millis(ms);
        assert_eq!(recorded(&eng, rec), [(1, at(1)), (2, at(2)), (3, at(3))]);
    }

    #[test]
    fn same_instant_events_fifo() {
        /// Forwards `Ping(n)` as `Ping(n)` and `Ping(n + 1)`, and on
        /// `Ping(20)` also schedules itself `Ping(50)` 5 us on.
        struct Fanout {
            rec: ActorId,
        }
        impl Actor for Fanout {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                let p = msg.cast::<Ping>().expect("a ping");
                ctx.send(self.rec, Ping(p.0));
                ctx.send(self.rec, Ping(p.0 + 1));
                if p.0 == 20 {
                    ctx.schedule_self(Dur::micros(5), Ping(50));
                }
            }
        }
        let mut eng = Engine::new(0);
        let rec = eng.add_actor(Box::new(Recorder { order: vec![] }));
        let fan = eng.add_actor(Box::new(Fanout { rec }));
        eng.post(Dur::ZERO, fan, Ping(20));
        for i in 0..10 {
            eng.post(Dur::ZERO, rec, Ping(i));
        }
        eng.post(Dur::micros(5), fan, Ping(30));
        eng.post(Dur::micros(5), rec, Ping(40));
        let report = eng.run();
        // Same-instant events run in the order they were scheduled, those
        // scheduled during a dispatch behind every event already due then.
        let at5 = SimTime::ZERO + Dur::micros(5);
        let mut want: Vec<(u32, SimTime)> = (0..10).map(|i| (i, SimTime::ZERO)).collect();
        want.extend([(20, SimTime::ZERO), (21, SimTime::ZERO)]);
        want.extend([40, 30, 31, 50, 51].map(|i| (i, at5)));
        assert_eq!(recorded(&eng, rec), want);
        assert_eq!(report.events, 20);
    }

    #[test]
    fn zero_delay_chains_advance_seq_not_time() {
        struct Chain {
            hops: u32,
        }
        struct Hop(u32);
        impl Actor for Chain {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                if let Ok(h) = msg.cast::<Hop>() {
                    if h.0 > 0 {
                        self.hops += 1;
                        ctx.schedule_self(Dur::ZERO, Hop(h.0 - 1));
                    }
                }
            }
        }
        let mut eng = Engine::new(0);
        let a = eng.add_actor(Box::new(Chain { hops: 0 }));
        eng.post(Dur::ZERO, a, Hop(100));
        let report = eng.run();
        assert_eq!(report.end_time, SimTime::ZERO, "zero-delay must not advance time");
        assert_eq!(report.events, 101);
    }

    #[test]
    fn event_budget_breaks_livelock() {
        struct Livelock;
        struct Tick;
        impl Actor for Livelock {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
                ctx.schedule_self(Dur::ZERO, Tick);
            }
        }
        let mut eng = Engine::new(0);
        let a = eng.add_actor(Box::new(Livelock));
        eng.event_budget = 1000;
        eng.post(Dur::ZERO, a, Tick);
        let report = eng.run();
        assert_eq!(report.stop, StopReason::EventBudget);
        assert_eq!(report.events, 1000);
    }

    #[test]
    fn stop_halts_run() {
        struct Stopper;
        struct Go;
        impl Actor for Stopper {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
                ctx.stop();
            }
        }
        let mut eng = Engine::new(0);
        let a = eng.add_actor(Box::new(Stopper));
        eng.post(Dur::ZERO, a, Go);
        eng.post(Dur::millis(1), a, Go); // never dispatched
        let report = eng.run();
        assert_eq!(report.stop, StopReason::Stopped);
        assert_eq!(report.events, 1);
    }

    #[test]
    fn horizon_stops_before_future_events() {
        struct Sink;
        struct Tick;
        impl Actor for Sink {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
        }
        let mut eng = Engine::new(0);
        let a = eng.add_actor(Box::new(Sink));
        eng.post(Dur::secs(10), a, Tick);
        let report = eng.run_until(SimTime::ZERO + Dur::secs(1));
        assert_eq!(report.stop, StopReason::Horizon);
        assert_eq!(report.events, 0);
        assert_eq!(report.end_time, SimTime::ZERO + Dur::secs(1));
        // The future event is still queued; a longer run dispatches it.
        let report2 = eng.run();
        assert_eq!(report2.events, 1);
    }

    #[test]
    fn reserve_and_install_break_cycles() {
        struct Fwd {
            peer: ActorId,
            got: bool,
        }
        struct Token;
        impl Actor for Fwd {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                if msg.is::<Token>() && !self.got {
                    self.got = true;
                    ctx.send(self.peer, Token);
                }
            }
        }
        let mut eng = Engine::new(0);
        let a = eng.reserve_actor();
        let b = eng.add_actor(Box::new(Fwd { peer: a, got: false }));
        eng.install(a, Box::new(Fwd { peer: b, got: false }));
        eng.post(Dur::ZERO, a, Token);
        let report = eng.run();
        assert_eq!(report.events, 3, "a -> b -> a(drop)");
    }

    #[test]
    fn msg_cast_roundtrip_preserves_on_error() {
        let m = Msg::new(3, Ping(9));
        assert!(m.is::<Ping>());
        assert!(m.peek::<Ping>().is_some());
        let m = match m.cast::<Pong>() {
            Ok(_) => panic!("wrong cast succeeded"),
            Err(m) => m,
        };
        let p = m.cast::<Ping>().expect("original type still castable");
        assert_eq!(p.0, 9);
    }

    #[test]
    fn profile_is_off_by_default_and_aggregates_by_actor_type() {
        struct Named(&'static str);
        struct Tick;
        impl Actor for Named {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {
                std::hint::black_box((0..200u64).sum::<u64>());
            }
            fn name(&self) -> String {
                self.0.into()
            }
        }
        let build = || {
            let mut eng = Engine::new(0);
            let ids: Vec<ActorId> = ["iod-0", "iod-1", "app0-p3", "mgr"]
                .into_iter()
                .map(|n| eng.add_actor(Box::new(Named(n))))
                .collect();
            eng.add_actor(Box::new(Named("idle-9")));
            for (i, &id) in ids.iter().enumerate() {
                for k in 0..=i as u64 {
                    eng.post(Dur::micros(k), id, Tick);
                }
            }
            eng
        };
        let mut plain = build();
        let plain_report = plain.run();
        assert!(plain.profile().is_empty(), "nothing is recorded unless asked for");

        let mut eng = build();
        eng.enable_profile();
        assert_eq!(eng.run(), plain_report, "profiling changes no simulated outcome");
        let rows = eng.profile();
        let row = |kind: &str| rows.iter().find(|r| r.kind == kind).unwrap();
        assert_eq!((row("iod").actors, row("iod").events), (2, 3));
        assert_eq!((row("app").actors, row("app").events), (1, 3));
        assert_eq!((row("mgr").actors, row("mgr").events), (1, 4));
        assert!(rows.iter().all(|r| r.kind != "idle"), "actors without events are left out");
        assert_eq!(row(ENGINE_PROFILE_KIND).events, 10);
        assert_eq!(rows.len(), 4);
        assert!(rows.windows(2).all(|w| w[0].host_ns >= w[1].host_ns), "most host time first");
    }

    #[test]
    fn echo_round_trip_takes_delay() {
        let mut eng = Engine::new(0);
        let e = eng.add_actor(Box::new(Echo { delay: Dur::micros(250), seen: vec![] }));
        eng.post(Dur::ZERO, e, Ping(1));
        let report = eng.run();
        assert_eq!(report.end_time, SimTime::ZERO + Dur::micros(250));
        assert_eq!(report.events, 2);
    }
}
