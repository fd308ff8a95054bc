//! Serially-shared resources (CPU, disk arm, shared network medium).
//!
//! The simulator models contention with the *reservation* pattern: a caller
//! that knows its service time asks the resource when that work will
//! complete; the resource appends the job to its FIFO timeline and returns
//! the completion instant, which the caller uses to schedule its completion
//! event. This is exact for non-preemptive FIFO service and keeps the event
//! count at one event per job rather than one per queue operation.

use crate::time::{Dur, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// A non-preemptive FIFO resource with a single server. It keeps what
/// its readers read: when it next falls idle, and its busy time for
/// [`utilization`](Self::utilization).
#[derive(Debug)]
pub struct FifoResource {
    name: String,
    busy_until: SimTime,
    busy_time: Dur,
}

impl FifoResource {
    pub fn new(name: impl Into<String>) -> FifoResource {
        FifoResource { name: name.into(), busy_until: SimTime::ZERO, busy_time: Dur::ZERO }
    }

    /// Convenience constructor for the common shared-ownership case.
    pub fn shared(name: impl Into<String>) -> SharedResource {
        Rc::new(RefCell::new(FifoResource::new(name)))
    }

    /// Reserve `service` units of this resource starting no earlier than
    /// `now`; returns the instant the job completes.
    pub fn reserve(&mut self, now: SimTime, service: Dur) -> SimTime {
        let done = now.max(self.busy_until) + service;
        self.busy_time += service;
        self.busy_until = done;
        done
    }

    /// Instant at which the resource next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Would a job submitted at `now` start immediately?
    pub fn idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Fraction of `[0, now]` the resource spent serving.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.nanos() == 0 {
            return 0.0;
        }
        // busy_time counts reserved service even if it extends past `now`;
        // clamp to the horizon for a sane ratio.
        let served =
            self.busy_time.as_nanos().saturating_sub(self.busy_until.since(now).as_nanos());
        served as f64 / now.nanos() as f64
    }

    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Shared handle to a resource. Simulations are single-threaded per run, so
/// `Rc<RefCell<..>>` is the right ownership model here.
pub type SharedResource = Rc<RefCell<FifoResource>>;

/// Reserve on a shared resource (helper to keep call sites terse).
pub fn reserve(res: &SharedResource, now: SimTime, service: Dur) -> SimTime {
    res.borrow_mut().reserve(now, service)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = FifoResource::new("cpu");
        let done = r.reserve(SimTime(1000), Dur::nanos(500));
        assert_eq!(done, SimTime(1500), "no wait: done one service time after `now`");
        assert_eq!(r.busy_until(), SimTime(1500));
        let u = r.utilization(SimTime(2000));
        assert!((u - 0.25).abs() < 1e-9, "500 of 2000 ns busy, not {u}");
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = FifoResource::new("disk");
        let d1 = r.reserve(SimTime(0), Dur::nanos(100));
        let d2 = r.reserve(SimTime(0), Dur::nanos(100));
        let d3 = r.reserve(SimTime(50), Dur::nanos(100));
        assert_eq!(d1, SimTime(100));
        assert_eq!(d2, SimTime(200), "second job waits for first");
        assert_eq!(d3, SimTime(300), "third waits for both");
        // Back to back from 0: busy the whole time, waits and all.
        assert!((r.utilization(SimTime(300)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn resource_drains_then_idles() {
        let mut r = FifoResource::new("link");
        r.reserve(SimTime(0), Dur::nanos(10));
        assert!(!r.idle_at(SimTime(5)));
        assert!(r.idle_at(SimTime(10)));
        let done = r.reserve(SimTime(1000), Dur::nanos(10));
        assert_eq!(done, SimTime(1010), "gap does not carry over");
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut r = FifoResource::new("cpu");
        r.reserve(SimTime(0), Dur::nanos(500));
        let u = r.utilization(SimTime(1000));
        assert!((u - 0.5).abs() < 1e-9, "utilization {} should be 0.5", u);
    }

    #[test]
    fn utilization_clamps_future_reservations() {
        let mut r = FifoResource::new("cpu");
        r.reserve(SimTime(0), Dur::nanos(10_000));
        let u = r.utilization(SimTime(1000));
        assert!(u <= 1.0 + 1e-9, "utilization {} cannot exceed 1", u);
    }

    #[test]
    fn shared_helper_round_trips() {
        let r = FifoResource::shared("bus");
        let d1 = reserve(&r, SimTime(0), Dur::nanos(100));
        let d2 = reserve(&r, SimTime(0), Dur::nanos(50));
        assert_eq!(d1, SimTime(100));
        assert_eq!(d2, SimTime(150));
        assert_eq!(r.borrow().name(), "bus");
        assert_eq!(r.borrow().busy_until(), SimTime(150));
        let u = r.borrow().utilization(SimTime(300));
        assert!((u - 0.5).abs() < 1e-9, "150 of 300 ns busy through the handle, not {u}");
    }
}
