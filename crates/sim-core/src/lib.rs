//! # sim-core — deterministic discrete-event simulation engine
//!
//! The foundation of the CLUSTER 2002 reproduction: a small, exact,
//! bit-reproducible discrete-event kernel.
//!
//! * [`time`] — integer-nanosecond simulation clock ([`SimTime`], [`Dur`]).
//! * [`engine`] — the event queue and [`Actor`] dispatch loop.
//! * [`resource`] — FIFO reservation resources for CPUs, disks, links.
//! * [`rng`] — per-stream deterministic PRNGs ([`DetRng`], [`Zipf`]).
//! * [`stats`] — allocation-free accumulators (tally, log-histogram).
//!
//! Determinism contract: given the same master seed and the same sequence of
//! API calls, every run dispatches the identical event sequence. All
//! same-instant events are FIFO-ordered by a global sequence number, and all
//! randomness flows through [`DetRng`] streams keyed by stable ids.

pub mod engine;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{
    Actor, ActorId, ActorProfile, Ctx, Engine, Msg, RunReport, StopReason, ENGINE_PROFILE_KIND,
    NO_ACTOR,
};
pub use resource::{FifoResource, SharedResource};
pub use rng::{DetRng, Zipf};
pub use stats::{LogHistogram, Tally};
pub use time::{Dur, SimTime};
