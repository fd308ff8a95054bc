//! The epoch clock, its CAS gate, and the boundary: every shard ages, the
//! adaptive one closes its epoch in the same hold of its policy lock, and
//! the quota move that returns is applied to the ledger.

use super::facade::BufferManager;
use super::shard::{PolicyState, Shard};
use kcache_policy::{AppId, AppUsage, GhostRate, QuotaMoveRecord, SwitchRecord};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc as StdArc;

/// A shard's handle on the facade's epoch clock: accesses across all
/// shards since construction. Every access event (hit, miss, probe hit,
/// recency touch — see the module docs for the participation rule) ticks
/// once, as the last effect of its operation, so the facade's boundary
/// check right after the call sees the state the access left.
#[derive(Clone)]
pub(super) struct EpochTicker {
    /// Accesses per policy epoch; 0 disables epochs — then nobody reads
    /// the clock, so nobody bumps it.
    pub(super) per_epoch: usize,
    pub(super) accesses: StdArc<AtomicU64>,
}

impl EpochTicker {
    #[inline]
    pub(super) fn tick(&self) {
        if self.per_epoch != 0 {
            self.accesses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The facade's half: the clock, the boundaries already run, and the CAS
/// gate that admits exactly one thread per due boundary.
pub(super) struct EpochClock {
    pub(super) ticker: EpochTicker,
    pub(super) marks: AtomicU64,
    gate: AtomicBool,
}

impl EpochClock {
    pub(super) fn new(per_epoch: usize) -> EpochClock {
        EpochClock {
            ticker: EpochTicker { per_epoch, accesses: StdArc::default() },
            marks: AtomicU64::new(0),
            gate: AtomicBool::new(false),
        }
    }
}

impl Shard {
    /// This shard's half of the boundary, in one hold of the policy lock:
    /// the live policy ages (`SharingAware` referent decay) and, on the
    /// adaptive shard, the meta-policy closes its epoch over `quotas`
    /// ([`AdaptivePolicy::end_epoch`](kcache_adaptive::AdaptivePolicy::end_epoch)).
    /// Returns the epoch's decisions; none on a static shard.
    fn end_epoch(
        &self,
        quotas: &[(AppId, usize)],
    ) -> (Option<SwitchRecord>, Option<QuotaMoveRecord>) {
        let mut p = self.lock_policy();
        let PolicyState { ranked, adaptive } = &mut *p;
        ranked.epoch_tick();
        adaptive.as_mut().map_or((None, None), |a| a.end_epoch(ranked, quotas))
    }

    /// Epoch-boundary observability (cold path, obs-wired managers only):
    /// mark the boundary in the trace, refresh the per-app occupancy and
    /// ghost-rate gauges, and emit the boundary's adaptive decisions as
    /// trace events. `switch` and `quota_move` are what the boundary just
    /// decided and applied, so `kcache-adaptive` itself stays free of any
    /// obs dependency. Each decision event carries its *reason* as args:
    /// the deciding ghost hit rates for a policy switch, the
    /// losing/winning refault counts for a quota move.
    ///
    /// Usage and quota gauges come in as arguments so the facade can pass
    /// views summed over every shard.
    fn obs_epoch_mark(
        &self,
        access_n: u64,
        usage: &[(AppId, AppUsage)],
        quota_gauges: &[(AppId, usize)],
        ghost_rates: &[GhostRate],
        (switch, quota_move): (Option<SwitchRecord>, Option<QuotaMoveRecord>),
    ) {
        let Some(o) = &self.obs else { return };
        let epoch = access_n / self.epoch.per_epoch as u64;
        o.hub.instant(o.ev_epoch_tick, o.node, 0, epoch, access_n);
        let reg = o.hub.registry();
        for (app, u) in usage {
            reg.gauge(&format!("app.{}.resident", app.0)).set(u.resident);
            reg.gauge(&format!("app.{}.hits", app.0)).set(u.hits);
            reg.gauge(&format!("app.{}.misses", app.0)).set(u.misses);
        }
        for (app, q) in quota_gauges {
            reg.gauge(&format!("app.{}.quota", app.0)).set(*q as u64);
        }
        for g in ghost_rates {
            // Basis points: gauges are integers, rates are 0.0..=1.0.
            reg.gauge(&format!("ghost.{}.rate_bp", g.kind.name()))
                .set((g.rate() * 10_000.0) as u64);
        }
        if let Some(s) = switch {
            let id = o.hub.intern(
                &format!("policy_switch {}->{}", s.from.name(), s.to.name()),
                Some("from_rate_bp"),
                Some("to_rate_bp"),
            );
            let bp = |rate: f64| (rate * 10_000.0) as u64;
            o.hub.instant(id, o.node, 0, bp(s.from_rate), bp(s.to_rate));
        }
        if let Some(mv) = quota_move {
            let id = o.hub.intern(
                &format!("quota_move app{}->app{} x{}", mv.from.0, mv.to.0, mv.frames),
                Some("from_refaults"),
                Some("to_refaults"),
            );
            o.hub.instant(id, o.node, 0, mv.from_refaults, mv.to_refaults);
        }
    }
}

impl BufferManager {
    /// Run any due epoch boundary. The CAS gate admits exactly one
    /// thread per boundary; latecomers return immediately — the boundary
    /// they observed due is already being handled.
    #[inline]
    pub(super) fn maybe_epoch(&self) {
        let EpochClock { ticker, marks, gate } = &self.epoch;
        if ticker.per_epoch == 0 {
            return;
        }
        let ea = ticker.per_epoch as u64;
        let due = |marks: u64| ticker.accesses.load(Ordering::Relaxed) >= (marks + 1) * ea;
        loop {
            if !due(marks.load(Ordering::Acquire)) {
                return;
            }
            if gate.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_err() {
                return;
            }
            // Re-check under the gate: the previous holder may have run
            // the boundary we saw due.
            let done = marks.load(Ordering::Relaxed);
            if due(done) {
                self.run_epoch_boundary(done + 1);
                marks.store(done + 1, Ordering::Release);
            }
            gate.store(false, Ordering::Release);
        }
    }

    /// One epoch boundary, the same for every shard count: read the
    /// quotas from the ledger, let every shard close its epoch
    /// ([`Shard::end_epoch`]: each ages; the adaptive one — shard 0, the
    /// only shard a manager with one has — decides), apply the returned
    /// quota move once that policy lock is released (leaf locks never
    /// nest), and report the decisions.
    fn run_epoch_boundary(&self, epoch_n: u64) {
        let shard0 = &self.shards[0];
        let quotas = if self.adaptive { shard0.ledger.quotas() } else { Vec::new() };
        let decided = shard0.end_epoch(&quotas);
        // Any other shard is static (a sharded manager is a plain pool).
        for s in &self.shards[1..] {
            s.end_epoch(&[]);
        }
        if let Some(mv) = &decided.1 {
            self.apply_quota_move(mv);
        }
        // Observability: one mark with views summed over the shards
        // (shard 0's hub handles speak for the node).
        if shard0.obs.is_some() {
            let usage = self.app_usage();
            let quota_gauges: Vec<(AppId, usize)> =
                usage.iter().filter_map(|&(a, _)| self.quota_of(a).map(|q| (a, q))).collect();
            shard0.obs_epoch_mark(
                epoch_n * self.epoch.ticker.per_epoch as u64,
                &usage,
                &quota_gauges,
                &shard0.ghost_rates().unwrap_or_default(),
                decided,
            );
        }
    }

    /// Move `mv.frames` of quota from `mv.from` to `mv.to`, in one hold of
    /// the ledger lock: no reader sees the quotas sum to anything but the
    /// configured total. Under strict quotas the loser's clean frames are
    /// then evicted down to its new quota ([`Shard::shed_over_quota`]).
    pub(super) fn apply_quota_move(&self, mv: &QuotaMoveRecord) {
        let shard = &self.shards[0];
        shard.ledger.move_quota(mv);
        shard.shed_over_quota();
    }
}
