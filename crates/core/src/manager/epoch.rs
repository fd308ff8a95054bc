//! The epoch clock, its CAS gate, and the boundary: observe the adaptive
//! shard, decide, let every shard age — and the one place a quota move is
//! validated and applied.

use super::facade::BufferManager;
use super::shard::{PolicyState, Shard};
use kcache_adaptive::{decide_epoch, AdaptivePolicy, QuotaMove};
use kcache_policy::{AppId, AppUsage, EpochDirective, EpochObservation, GhostRate, PolicyKind};
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
    /// Epoch boundary, step 1: export this shard's epoch observation —
    /// the live policy, each candidate ghost's per-epoch ledger, each
    /// app's refault count. `None` for static policies.
    fn epoch_observe(&self) -> Option<EpochObservation> {
        self.lock_policy().adaptive.as_ref().map(AdaptivePolicy::epoch_observe)
    }

    /// Epoch boundary, step 2: let the live policy age
    /// (`SharingAware` referent decay), and — the adaptive shard — apply
    /// the decision. Static shards (`None`) only age.
    fn epoch_apply(&self, directive: Option<&EpochDirective>) {
        let mut p = self.lock_policy();
        let PolicyState { ranked, adaptive, .. } = &mut *p;
        ranked.epoch_tick();
        if let (Some(a), Some(directive)) = (adaptive, directive) {
            if let Some(to) = a.epoch_apply(directive) {
                ranked.migrate(to);
            }
        }
    }

    /// Epoch-boundary observability (cold path, obs-wired managers only):
    /// mark the boundary in the trace, refresh the per-app occupancy and
    /// ghost-rate gauges, and emit the boundary's adaptive decisions as
    /// trace events. `decision` is what the facade just decided and
    /// applied — the candidate that was live going in, and the directive
    /// (its quota move already validated) — so `kcache-adaptive` itself
    /// stays free of any obs dependency. Each decision event carries its
    /// *reason* as args: the deciding ghost hit rates for a policy
    /// switch, the losing/winning refault counts for a quota move.
    ///
    /// Usage and quota gauges come in as arguments so the facade can pass
    /// views summed over every shard.
    fn obs_epoch_mark(
        &self,
        access_n: u64,
        usage: &[(AppId, AppUsage)],
        quota_gauges: &[(AppId, usize)],
        ghost_rates: &[GhostRate],
        decision: Option<(PolicyKind, &EpochDirective)>,
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
        let Some((from, directive)) = decision else { return };
        if let Some((to, from_rate, to_rate)) = directive.switch_to {
            let id = o.hub.intern(
                &format!("policy_switch {}->{}", from.name(), to.name()),
                Some("from_rate_bp"),
                Some("to_rate_bp"),
            );
            let bp = |rate: f64| (rate * 10_000.0) as u64;
            o.hub.instant(id, o.node, 0, bp(from_rate), bp(to_rate));
        }
        if let Some((from, to, frames, from_refaults, to_refaults)) = directive.quota_move {
            let id = o.hub.intern(
                &format!("quota_move app{}->app{} x{}", from.0, to.0, frames),
                Some("from_refaults"),
                Some("to_refaults"),
            );
            o.hub.instant(id, o.node, 0, from_refaults, to_refaults);
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

    /// One epoch boundary, the same for every shard count.
    ///
    /// If an adaptive meta-policy runs — on shard 0, the only shard a
    /// manager with one has — take its [`EpochObservation`], make the
    /// switch/quota decision over it and the current quotas
    /// (`kcache_adaptive::decide_epoch`), validate the quota transfer
    /// ([`quota_move_valid`](Self::quota_move_valid)) and apply both. Every
    /// other shard runs a static policy and just ages (`SharingAware`
    /// referent decay) — the same [`Shard::epoch_apply`], with no
    /// directive.
    fn run_epoch_boundary(&self, epoch_n: u64) {
        let shard0 = &self.shards[0];
        // `(the candidate live going in, the directive it applies)`;
        // `None` for static policies.
        let decision = shard0.epoch_observe().map(|obs| {
            let cfg = self.adaptive_cfg.as_ref().expect("only the adaptive policy observes");
            let quotas = shard0.ledger.quotas();
            let (mut directive, mv) = decide_epoch(&obs, cfg, &quotas, self.capacity);
            let mv = mv.filter(|mv| self.quota_move_valid(mv));
            if mv.is_none() {
                directive.quota_move = None;
            }
            (obs.live, directive, mv)
        });
        for s in self.shards.iter() {
            s.epoch_apply(decision.as_ref().map(|d| &d.1));
        }
        if let Some((_, _, Some(mv))) = &decision {
            self.apply_quota_move(mv);
        }
        // Observability: one mark with views summed over the shards
        // (shard 0's hub handles speak for the node), plus the per-shard
        // balance gauges.
        if shard0.obs.is_some() {
            let usage = self.app_usage();
            let quota_gauges: Vec<(AppId, usize)> =
                usage.iter().filter_map(|&(a, _)| self.quota_of(a).map(|q| (a, q))).collect();
            shard0.obs_epoch_mark(
                epoch_n * self.epoch.ticker.per_epoch as u64,
                &usage,
                &quota_gauges,
                &shard0.ghost_rates().unwrap_or_default(),
                decision.as_ref().map(|(live, directive, _)| (*live, directive)),
            );
            self.publish_shard_gauges();
        }
    }

    /// Move `mv.frames` of quota from the loser to the winner, in one
    /// hold of the ledger lock: no reader sees the quotas sum to anything
    /// but the configured total. Under strict quotas the loser's clean
    /// frames are then evicted down to its new quota
    /// ([`Shard::shed_over_quota`]).
    pub(super) fn apply_quota_move(&self, mv: &QuotaMove) {
        let shard = &self.shards[0];
        shard.ledger.move_quota(mv.loser, mv.winner, mv.frames);
        shard.shed_over_quota();
    }

    /// The backstop behind the tuner's own clamps, and the one place a
    /// quota move is validated. The tuner redistributes existing
    /// partitions: it may never invent a quota (unknown or unpartitioned
    /// app), empty one or exceed the pool — and a transfer applies in
    /// full or not at all (applying only one side of a grow/shrink pair
    /// would leak total quota).
    pub(super) fn quota_move_valid(&self, mv: &QuotaMove) -> bool {
        [(mv.winner, mv.winner_quota), (mv.loser, mv.loser_quota)]
            .into_iter()
            .all(|(app, q)| (1..=self.capacity).contains(&q) && self.quota_of(app).is_some())
    }
}
