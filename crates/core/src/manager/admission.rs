//! Quota accounting and admission: the [`QuotaLedger`] and frame
//! acquisition under a quota.

use super::shard::{lock_leaf, LockWaits, Shard, Victim};
use crate::config::{PartitionConfig, PartitionMode};
use kcache_obs::CacheLine;
use kcache_policy::{AppId, QuotaMoveRecord};
use parking_lot::Mutex;

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

/// One configured app's standing.
#[derive(Clone, Copy)]
struct Account {
    /// The app's quota: the configured one until the tuner moves it.
    quota: usize,
    /// Frames charged: resident frames plus acquisitions in flight
    /// (charged before install, uncharged on evict or abort).
    charged: usize,
}

/// The quota state: every configured app's `{quota, charged}` under the
/// one `charges` leaf lock, seeded from the configuration. Every
/// check-then-update below is one hold, so a grant can never race a tuner
/// move into leaving the app over a just-shrunk quota. The quota is exact
/// in the single-threaded simulation; under concurrent direct-API use, a
/// candidate that changes hands between the owner-filtered
/// `next_candidate` and its revalidation can offset an app's count by one
/// transiently (the same benign-race class as the candidate/pin
/// revalidation).
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
    /// The ledger of the quotas `plan` enforces: none in a shared pool,
    /// whatever it lists.
    pub(super) fn new(plan: &PartitionConfig, waits: Option<LockWaits>) -> QuotaLedger {
        let enforced = plan.quotas.iter().filter(|_| plan.mode != PartitionMode::Shared);
        QuotaLedger {
            mode: plan.mode,
            apps: enforced.clone().map(|(&id, _)| id).collect(),
            accounts: CacheLine(Mutex::new(
                enforced.map(|(_, &quota)| Account { quota, charged: 0 }).collect(),
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

    /// Quota gate: charge one frame to `app` if it is under its quota.
    #[inline]
    fn admit(&self, app: AppId) -> Admission {
        self.with(app, |a| {
            if a.charged < a.quota {
                a.charged += 1;
                Admission::Granted
            } else {
                Admission::OverQuota
            }
        })
        .unwrap_or(Admission::Unlimited)
    }

    /// `app`'s quota (`None`: no quota applies).
    pub(super) fn quota_of(&self, app: AppId) -> Option<usize> {
        self.with(app, |a| a.quota)
    }

    /// Every app's quota, ascending by app id.
    pub(super) fn quotas(&self) -> Vec<(AppId, usize)> {
        let accounts = lock_leaf(&self.accounts, &self.waits);
        (self.apps.iter().zip(accounts.iter())).map(|(&id, a)| (AppId(id), a.quota)).collect()
    }

    /// Move `mv.frames` of quota from `mv.from` to `mv.to` in one hold, so
    /// no reader sees the quotas sum to anything but what was configured.
    /// This is the one check of a move, and a tuner bug if it fails: the
    /// tuner picks both apps from [`quotas`](Self::quotas) and clamps the
    /// move so the loser keeps a frame and the winner stays within the
    /// pool.
    pub(super) fn move_quota(&self, mv: &QuotaMoveRecord) {
        let position = |app: AppId| self.apps.iter().position(|&id| id == app.0);
        let (l, w) = (position(mv.from), position(mv.to));
        let mut accounts = lock_leaf(&self.accounts, &self.waits);
        match (l, w) {
            (Some(l), Some(w)) if l != w && accounts[l].quota > mv.frames => {
                accounts[l].quota -= mv.frames;
                accounts[w].quota += mv.frames;
            }
            _ => panic!(
                "a quota move must name two quota'd apps and leave the loser a frame: {mv:?}"
            ),
        }
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

    /// Does `app` hold more frames than its quota?
    fn holds_over_quota(&self, app: AppId) -> bool {
        self.with(app, |a| a.charged > a.quota).unwrap_or(false)
    }

    /// The apps holding more frames than their quota, ascending by id.
    fn over_quota(&self) -> Vec<AppId> {
        let accounts = lock_leaf(&self.accounts, &self.waits);
        (self.apps.iter().zip(accounts.iter()))
            .filter(|(_, a)| a.charged > a.quota)
            .map(|(&id, _)| AppId(id))
            .collect()
    }

    /// The app holding the most frames beyond its quota; ties break toward
    /// the higher app id. The harvester's victim preference in any mode: a
    /// soft-mode borrower, or a strict app still holding frames that were
    /// dirty when a quota move shrank its quota.
    pub(super) fn most_over_quota(&self) -> Option<AppId> {
        if self.apps.is_empty() {
            return None;
        }
        let accounts = lock_leaf(&self.accounts, &self.waits);
        (self.apps.iter().zip(accounts.iter()))
            .filter(|(_, a)| a.charged > a.quota)
            .map(|(&id, a)| (a.charged - a.quota, id))
            .max()
            .map(|(_, id)| AppId(id))
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

    /// Strict quotas: evict the clean frames of every app over its quota
    /// until it is back within it. Run after a quota move shrinks a
    /// quota and whenever a frame turns clean (write-back acknowledged,
    /// dirty span overwritten by a sync-write): the only frames an app can
    /// hold beyond a strict quota are ones that were dirty or in flight
    /// when its quota shrank, and each leaves as soon as it can be dropped.
    pub(super) fn shed_over_quota(&self) {
        if self.ledger.mode != PartitionMode::Strict {
            return;
        }
        for app in self.ledger.over_quota() {
            while self.ledger.holds_over_quota(app) && self.reclaim(Some(app)) {}
        }
    }
}
