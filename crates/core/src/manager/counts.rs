//! A shard's one ledger: every hit, miss, insert, remove, eviction and
//! scan, counted once, per app, without the policy lock. `CacheStats`'
//! hit/miss/eviction counts, `policy_stats()`, `app_usage()`,
//! `resident_of()` and the hub's hit/miss/eviction mirrors are all read
//! from it; no decision reads it.

use kcache_obs::{stripe_index, CacheLine, COUNTER_STRIPES};
use kcache_policy::{AppId, AppUsage, PolicyStats};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// App ids below this have a slot of their own in [`AppCounts`]; a higher
/// one's events go to its overflow map.
pub(super) const COUNTED_APPS: usize = 16;

/// A column of an [`AppCounts`] row: one [`PolicyStats`] field, in the
/// struct's order.
#[derive(Clone, Copy)]
pub(super) enum Col {
    Hits,
    Misses,
    Inserts,
    Removes,
    EvictionsClean,
    EvictionsDirty,
    Scans,
}

/// Columns per [`AppCounts`] row.
const COLS: usize = 7;

/// Rows per stripe: one per counted app, and [`AppId::UNKNOWN`]'s.
const SLOTS: usize = COUNTED_APPS + 1;

/// One thread stripe of every slot's row, on cache lines of its own.
type Stripe = CacheLine<[[AtomicU64; COLS]; SLOTS]>;

/// The ledger, per app. Slot `i < COUNTED_APPS` is `AppId(i)`'s, the last
/// [`AppId::UNKNOWN`]'s. A hit or miss counts in the accessor's row; an
/// insert, remove or eviction in the row of the frame's owner, so that
/// `inserts - removes` is the owner's residency; a scan in
/// [`AppId::UNKNOWN`]'s. Every thread counts in its own stripe
/// ([`stripe_index`]), so two threads counting write no common line, and
/// readers sum the stripes. An app past the bound is counted, exactly, in
/// the overflow map behind a leaf lock of its own — never the policy lock.
pub(super) struct AppCounts {
    stripes: Box<[Stripe]>,
    overflow: Mutex<BTreeMap<u32, [u64; COLS]>>,
}

impl AppCounts {
    pub(super) fn new() -> AppCounts {
        AppCounts {
            stripes: (0..COUNTER_STRIPES).map(|_| Stripe::default()).collect(),
            overflow: Mutex::default(),
        }
    }

    /// Count one event of each of `cols` against `app`.
    #[inline]
    pub(super) fn count(&self, app: AppId, cols: &[Col]) {
        let slot = match app {
            AppId::UNKNOWN => Some(COUNTED_APPS),
            AppId(id) => Some(id as usize).filter(|&i| i < COUNTED_APPS),
        };
        match slot {
            Some(i) => {
                let row = &self.stripes[stripe_index()][i];
                for &c in cols {
                    row[c as usize].fetch_add(1, Relaxed);
                }
            }
            None => {
                let mut overflow = self.overflow.lock();
                let row = overflow.entry(app.0).or_default();
                cols.iter().for_each(|&c| row[c as usize] += 1);
            }
        }
    }

    /// Every row, ascending by app id, [`AppId::UNKNOWN`]'s last. Each
    /// slot is read last column first, so removes are read before
    /// inserts: a residency read while other threads count trails what
    /// is in flight rather than dipping below it.
    fn rows(&self) -> Vec<(AppId, PolicyStats)> {
        let slot = |i: usize| {
            let mut now = [0; COLS];
            for c in (0..COLS).rev() {
                now[c] = self.stripes.iter().map(|s| s[i][c].load(Relaxed)).sum();
            }
            as_stats(now)
        };
        let mut rows: Vec<_> = (0..COUNTED_APPS).map(|i| (AppId(i as u32), slot(i))).collect();
        rows.extend(self.overflow.lock().iter().map(|(&id, &row)| (AppId(id), as_stats(row))));
        rows.push((AppId::UNKNOWN, slot(COUNTED_APPS)));
        rows
    }

    /// The totals over every app.
    pub(super) fn total(&self) -> PolicyStats {
        let mut total = PolicyStats::default();
        self.rows().iter().for_each(|(_, row)| total.merge(row));
        total
    }

    /// Each known app that has counted anything, ascending by id.
    pub(super) fn app_usage(&self) -> Vec<(AppId, AppUsage)> {
        let usage = |r: PolicyStats| AppUsage {
            resident: r.inserts.saturating_sub(r.removes),
            hits: r.hits,
            misses: r.misses,
            evictions: r.evictions_clean + r.evictions_dirty,
        };
        let rows = self
            .rows()
            .into_iter()
            .filter(|&(app, row)| app != AppId::UNKNOWN && row != PolicyStats::default());
        rows.map(|(app, row)| (app, usage(row))).collect()
    }

    /// Frames `app` owns (0 for [`AppId::UNKNOWN`], whose frames belong to
    /// no app).
    pub(super) fn resident_of(&self, app: AppId) -> usize {
        self.app_usage().iter().find(|(a, _)| *a == app).map_or(0, |(_, u)| u.resident as usize)
    }
}

/// One row's counts as the [`PolicyStats`] they are.
fn as_stats(d: [u64; COLS]) -> PolicyStats {
    let [hits, misses, inserts, removes, evictions_clean, evictions_dirty, scans] = d;
    PolicyStats { hits, misses, inserts, removes, evictions_clean, evictions_dirty, scans }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_app_ledger_tracks_residency_and_events() {
        let c = AppCounts::new();
        c.count(AppId(7), &[Col::Inserts]);
        c.count(AppId(7), &[Col::Inserts]);
        c.count(AppId(3), &[Col::Inserts]);
        c.count(AppId(40), &[Col::Inserts]);
        assert_eq!(c.resident_of(AppId(7)), 2);
        assert_eq!((c.resident_of(AppId(3)), c.resident_of(AppId(40))), (1, 1));
        c.count(AppId(7), &[Col::Hits]);
        c.count(AppId(3), &[Col::Misses]);
        c.count(AppId(7), &[Col::EvictionsClean, Col::Removes]);
        c.count(AppId::UNKNOWN, &[Col::Inserts, Col::Hits, Col::Scans]);
        assert_eq!(c.resident_of(AppId(7)), 1);
        assert_eq!(c.resident_of(AppId::UNKNOWN), 0, "unattributed frames are no app's");
        let usage = c.app_usage();
        let apps: Vec<_> = usage.iter().map(|(app, _)| *app).collect();
        assert_eq!(apps, [AppId(3), AppId(7), AppId(40)], "known apps by id, the overflow too");
        assert_eq!(usage[1].1, AppUsage { resident: 1, hits: 1, misses: 0, evictions: 1 });
        let t = c.total();
        assert_eq!((t.hits, t.misses, t.inserts, t.removes, t.scans), (2, 1, 5, 1, 1));
        assert_eq!((t.evictions_clean, t.evictions_dirty), (1, 0));
    }
}
