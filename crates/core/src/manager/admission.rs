//! Quota accounting and admission: the per-shard [`QuotaLedger`], the
//! facade's [`GlobalQuotas`], frame acquisition under a quota, and the
//! strict-quota spill between shards.

use super::facade::BufferManager;
use super::shard::{lock_leaf, LockWaits, Shard, Victim};
use crate::block::BlockKey;
use crate::config::{PartitionConfig, PartitionMode};
use kcache_obs::CacheLine;
use kcache_policy::AppId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Outcome of the quota gate for one frame acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// No quota applies (shared pool, unknown app, unlisted app).
    Unlimited,
    /// Under quota; one frame has been charged to the app.
    Granted,
    /// At/over quota; nothing charged — the caller must make room inside
    /// the app's own partition (or borrow, in soft mode).
    OverQuota,
}

/// The `(app, quota)` pairs `plan` enforces, ascending by app: none in a
/// shared pool, whatever it lists.
fn enforced(plan: &PartitionConfig) -> impl Iterator<Item = (u32, usize)> + '_ {
    let partitioned = plan.mode != PartitionMode::Shared;
    plan.quotas.iter().filter(move |_| partitioned).map(|(&id, &q)| (id, q))
}

/// One configured app's standing on one shard.
#[derive(Clone, Copy)]
struct Account {
    /// This shard's share of the app's global quota.
    slice: usize,
    /// Frames charged: resident frames plus acquisitions in flight
    /// (charged before install, uncharged on evict or abort).
    charged: usize,
}

/// One shard's quota state: every configured app's `{slice, charged}`
/// under the one `charges` leaf lock, seeded from the configuration. Every
/// check-then-update below is one hold, so a grant can never race a lend
/// or a tuner move into leaving the shard over a just-shrunk slice. The
/// quota is exact in the single-threaded simulation; under concurrent
/// direct-API use, a candidate that changes hands between the
/// owner-filtered `next_candidate` and its revalidation can offset an
/// app's count by one transiently (the same benign-race class as the
/// candidate/pin revalidation).
pub(super) struct QuotaLedger {
    mode: PartitionMode,
    /// The configured apps, ascending; fixed at build, so whether quota
    /// accounting applies to an app at all is answered without the lock —
    /// a shared pool, where it never does, takes it on no path.
    apps: Box<[u32]>,
    /// `accounts[i]` is `apps[i]`'s.
    accounts: CacheLine<Mutex<Box<[Account]>>>,
    waits: Option<LockWaits>,
}

impl QuotaLedger {
    /// The ledger of one shard: of each quota in `plan`, this shard's
    /// `share`. A slice may legitimately be 0 for small quotas — strict
    /// admission then denies on this shard until the spill lends it a unit.
    pub(super) fn new(
        plan: &PartitionConfig,
        share: impl Fn(usize) -> usize,
        waits: Option<LockWaits>,
    ) -> QuotaLedger {
        QuotaLedger {
            mode: plan.mode,
            apps: enforced(plan).map(|(id, _)| id).collect(),
            accounts: CacheLine(Mutex::new(
                enforced(plan).map(|(_, q)| Account { slice: share(q), charged: 0 }).collect(),
            )),
            waits,
        }
    }

    /// Run `f` on `app`'s account under the lock; `None` (lock not taken)
    /// when no quota applies to it.
    #[inline]
    fn with<R>(&self, app: AppId, f: impl FnOnce(&mut Account) -> R) -> Option<R> {
        let i = self.apps.iter().position(|&id| id == app.0)?;
        Some(f(&mut lock_leaf(&self.accounts, &self.waits)[i]))
    }

    /// Quota gate: charge one frame to `app` if it is under its slice.
    #[inline]
    fn admit(&self, app: AppId) -> Admission {
        self.with(app, |a| {
            if a.charged < a.slice {
                a.charged += 1;
                Admission::Granted
            } else {
                Admission::OverQuota
            }
        })
        .unwrap_or(Admission::Unlimited)
    }

    /// Is `app` at (or over) its slice here — is an install about to be
    /// denied, so that the spill should borrow a unit from a sibling first?
    fn at_quota(&self, app: AppId) -> bool {
        self.with(app, |a| a.charged >= a.slice).unwrap_or(false)
    }

    /// Give up one unused unit of `app`'s slice (the spill's lender side):
    /// succeeds only while the charge is strictly below the slice, so the
    /// unit being moved is provably idle here.
    fn lend_unit(&self, app: AppId) -> bool {
        self.with(app, |a| {
            let idle = a.charged < a.slice;
            a.slice -= usize::from(idle);
            idle
        })
        .unwrap_or(false)
    }

    /// Shrink `app`'s slice by up to `frames`, never below zero; returns
    /// what was taken.
    pub(super) fn take(&self, app: AppId, frames: usize) -> usize {
        self.with(app, |a| {
            let taken = frames.min(a.slice);
            a.slice -= taken;
            taken
        })
        .unwrap_or(0)
    }

    /// Grow `app`'s slice by `frames` that were taken elsewhere first.
    pub(super) fn give(&self, app: AppId, frames: usize) {
        self.with(app, |a| a.slice += frames);
    }

    /// `app`'s slice on this shard (`None`: no quota applies).
    pub(super) fn slice_of(&self, app: AppId) -> Option<usize> {
        self.with(app, |a| a.slice)
    }

    /// Charge one frame to `app` bypassing the quota check (soft-mode
    /// borrowing, and rebalancing after a self-eviction uncharged one).
    #[inline]
    fn charge_unchecked(&self, app: AppId) {
        self.with(app, |a| a.charged += 1);
    }

    /// Return one charged frame (aborted acquisition, eviction or
    /// invalidation of an owned frame).
    #[inline]
    pub(super) fn uncharge(&self, app: AppId) {
        self.with(app, |a| a.charged = a.charged.saturating_sub(1));
    }

    /// Does `app` hold more frames here than its slice?
    fn over_slice(&self, app: AppId) -> bool {
        self.with(app, |a| a.charged > a.slice).unwrap_or(false)
    }

    /// The apps holding more frames here than their slice, ascending by id.
    fn over_quota(&self) -> Vec<AppId> {
        let accounts = lock_leaf(&self.accounts, &self.waits);
        (self.apps.iter().zip(accounts.iter()))
            .filter(|(_, a)| a.charged > a.slice)
            .map(|(&id, _)| AppId(id))
            .collect()
    }

    /// The app holding the most frames beyond its slice; ties break toward
    /// the higher app id. The harvester's victim preference in any mode: a
    /// soft-mode borrower, or a strict app still holding frames that were
    /// dirty when a quota move shrank its slice.
    pub(super) fn most_over_quota(&self) -> Option<AppId> {
        if self.apps.is_empty() {
            return None;
        }
        let accounts = lock_leaf(&self.accounts, &self.waits);
        (self.apps.iter().zip(accounts.iter()))
            .filter(|(_, a)| a.charged > a.slice)
            .map(|(&id, a)| (a.charged - a.slice, id))
            .max()
            .map(|(_, id)| AppId(id))
    }
}

/// Every partitioned app's **global** quota, at the facade: seeded from
/// the configuration, written only by the epoch boundary (under its gate),
/// read lock-free. This — not a sum of slices, which a spill or a move in
/// progress may have in flight — is what `quota_of`, the tuner's decision
/// and the quota-move validator measure against.
pub(super) struct GlobalQuotas(Box<[(u32, AtomicUsize)]>);

impl GlobalQuotas {
    pub(super) fn new(plan: &PartitionConfig) -> GlobalQuotas {
        GlobalQuotas(enforced(plan).map(|(id, q)| (id, AtomicUsize::new(q))).collect())
    }

    pub(super) fn get(&self, app: AppId) -> Option<usize> {
        let (_, q) = self.0.iter().find(|(id, _)| *id == app.0)?;
        Some(q.load(Ordering::Relaxed))
    }

    /// Every app's quota, ascending by app id.
    pub(super) fn all(&self) -> Vec<(AppId, usize)> {
        self.0.iter().map(|(id, q)| (AppId(*id), q.load(Ordering::Relaxed))).collect()
    }

    /// Epoch boundary only. A quota publishes no other data: `Relaxed`.
    pub(super) fn set(&self, app: AppId, quota: usize) {
        if let Some((_, q)) = self.0.iter().find(|(id, _)| *id == app.0) {
            q.store(quota, Ordering::Relaxed);
        }
    }
}

impl Shard {
    /// Take a frame from the free list or evict one, on behalf of `app`
    /// and subject to its quota. Returns the frame index and, when a block
    /// had to be evicted for it, the [`Victim`] the install still has to
    /// settle (with its flush snapshot, when a dirty frame was
    /// sacrificed).
    ///
    /// Enforcement order (the partitioning subsystem's core rule): an
    /// over-quota app makes room **inside its own partition first** —
    /// candidates are drawn from its own resident frames via the policy's
    /// owner-filtered scan — and only soft mode may then fall back to
    /// borrowing (free frames, then the victim-agnostic scan). An
    /// under-quota app with a full pool reclaims from the most over-quota
    /// borrower before disturbing anyone else.
    pub(super) fn acquire_frame_for(
        &self,
        app: AppId,
        allow_dirty_eviction: bool,
    ) -> Option<(u32, Option<Victim>)> {
        let ledger = &self.ledger;
        let soft = ledger.mode == PartitionMode::Soft;
        let evicted = |(idx, victim)| (idx, Some(victim));
        match ledger.admit(app) {
            admission @ (Admission::Unlimited | Admission::Granted) => {
                if let Some(idx) = self.pop_free() {
                    return Some((idx, None));
                }
                // Soft mode (strict never lets anyone past a quota): pull
                // borrowed frames back before the victim-agnostic scan
                // touches well-behaved tenants.
                if let Some(borrower) = soft.then(|| ledger.most_over_quota()).flatten() {
                    if let Some(got) = self.evict_one_owned(allow_dirty_eviction, Some(borrower)) {
                        return Some(evicted(got));
                    }
                }
                match self.evict_one_owned(allow_dirty_eviction, None) {
                    Some(got) => Some(evicted(got)),
                    None => {
                        if admission == Admission::Granted {
                            ledger.uncharge(app);
                        }
                        None
                    }
                }
            }
            Admission::OverQuota => {
                if soft {
                    // Borrow idle capacity before cannibalizing our own
                    // partition.
                    if let Some(idx) = self.pop_free() {
                        ledger.charge_unchecked(app);
                        return Some((idx, None));
                    }
                }
                // Feed on our own partition: owner-filtered candidates.
                if let Some(got) = self.evict_one_owned(allow_dirty_eviction, Some(app)) {
                    // Settling the self-eviction will uncharge one frame:
                    // charge the incoming block (net residency unchanged).
                    ledger.charge_unchecked(app);
                    return Some(evicted(got));
                }
                if !soft {
                    return None; // hard cap: the insert is denied
                }
                ledger.charge_unchecked(app);
                match self.evict_one_owned(allow_dirty_eviction, None) {
                    Some(got) => Some(evicted(got)),
                    None => {
                        ledger.uncharge(app);
                        None
                    }
                }
            }
        }
    }

    /// Strict quotas: evict the clean frames of every app over its slice
    /// here until it is back within it. Run after a quota move shrinks a
    /// slice and whenever a frame turns clean (write-back acknowledged,
    /// dirty span overwritten by a sync-write): the only frames an app can
    /// hold beyond a strict quota are ones that were dirty or in flight
    /// when its quota shrank, and each leaves as soon as it can be dropped.
    pub(super) fn shed_over_quota(&self) {
        if self.ledger.mode != PartitionMode::Strict {
            return;
        }
        for app in self.ledger.over_quota() {
            while self.ledger.over_slice(app) && self.reclaim(Some(app)) {}
        }
    }
}

impl BufferManager {
    /// Strict-quota spill: an app at its per-shard slice here may have
    /// idle quota on a sibling shard (hash skew); move one *quota unit* —
    /// never a frame — from an under-used sibling to this shard so the
    /// install admits. Decrement-before-increment keeps the sum of the
    /// app's slices ≤ its global quota at every instant, so the strict
    /// bound is never violated, only redistributed.
    pub(super) fn pre_admit_spill(&self, home: &Shard, key: &BlockKey, app: AppId) {
        if self.partitioning.mode != PartitionMode::Strict || self.quotas.get(app).is_none() {
            return;
        }
        // A resident key merges in place (no new frame, no charge); only
        // a genuinely new install can be quota-denied.
        if home.contains(*key) || !home.ledger.at_quota(app) {
            return;
        }
        for s in self.shards.iter() {
            if !std::ptr::eq(s, home) && s.ledger.lend_unit(app) {
                home.ledger.give(app, 1);
                return;
            }
        }
    }
}
