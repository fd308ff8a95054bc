//! An independent oracle for the buffer manager: a single-threaded,
//! lock-free, obviously-sequential model — one `HashMap` of block states, a
//! free stack, a dirty queue, one plain per-app `{quota, charged}` map, a
//! plain ledger (totals and one row per app, bumped where each op is
//! applied), a [`RankedTable`] to *rank* (the rankers have their own
//! oracles in `kcache-policy`; this one is for the manager) and, under an
//! adaptive configuration, [`AdaptivePolicy`] for evidence and the
//! decision. Every access is applied **at access time**,
//! in one place. It shares no code with `src/manager/` beyond the public
//! types it drives.
//!
//! At `shards = 1` the real manager must agree with it exactly — op
//! outcomes and resident sets after every step; `stats()`,
//! `policy_stats()`, `app_usage()`, `quota_of` and `adaptive_stats()` at
//! the end. A shared pool under a static policy — the only configuration
//! with more than one shard — also runs at `shards ∈ {2, 4}`, where
//! per-shard eviction order legitimately differs, so the same scripts
//! check the conservation invariants instead.
//!
//! Mutation checks (recorded in CHANGES.md), each against the real manager:
//! * a bare recency touch (`note_touch`) applies `on_access` but skips the
//!   adaptive ghosts' `observe`: `random_ops_match_the_model` fails
//!   ("adaptive/strict/clean_first=true/shards=1: adaptive stats": the
//!   ghosts count fewer hits) and so does
//!   `tuner_moves_and_policy_switches_match_the_model` ("adaptive/tuned/
//!   shards=1: resident set diverged at step 181").
//! * `invalidate` skips `ledger.uncharge(owner)`:
//!   `random_ops_match_the_model` fails ("2q/strict/clean_first=true/
//!   shards=1: resident set diverged at step 270") — the tenant keeps paying
//!   for a frame it no longer holds.
//! * a strict quota move skips `shed_over_quota`: both
//!   `tuner_moves_and_policy_switches_match_the_model` ("adaptive/tuned/
//!   shards=1: resident set diverged at step 211") and
//!   `random_ops_match_the_model` fail — the loser keeps the frames the
//!   move took from it.
//! * `file_insert` counts an eviction against the installing app instead
//!   of the evicted block's owner: all three tests fail, the scripted one
//!   with "clock/strict/shards=1: app usage".
//!
//! The fixed script inherited from the eager-vs-drained differential
//! survives both; the random sequences are what catch them.

use kcache::adaptive::{AdaptiveConfig, AdaptivePolicy};
use kcache::policy::{AppUsage, PolicyStats, RankedTable, ScanFilter};
use kcache::{
    Access, AccessKind, AccessOutcome, AppId, BlockKey, BufferManager, CacheStats, EvictPolicy,
    PartitionConfig, PartitionMode, PolicyKind, Span, WriteOutcome, CACHE_BLOCK_SIZE,
};
use proptest::prelude::*;
use pvfs::Fid;
use sim_net::NodeId;
use std::collections::{BTreeMap, HashMap, VecDeque};

// ---------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------

struct Block {
    frame: u32,
    valid: Span,
    dirty: Span,
    /// Has an entry in the dirty queue that still stands for it.
    queued: bool,
    /// A snapshot is in flight: unevictable, not re-taken.
    flushing: bool,
}

/// What an op produced; a flush snapshot is reduced to whose it was.
#[derive(Debug, PartialEq)]
enum Outcome {
    Hit,
    Miss,
    Absorbed,
    PassThrough,
    Inserted(Option<(BlockKey, Span)>),
}

/// The model's ledger: what `policy_stats()` and `app_usage()` must say.
/// An unattributed event counts in the totals only.
#[derive(Default)]
struct Ledger {
    totals: PolicyStats,
    apps: BTreeMap<u32, AppUsage>,
}

impl Ledger {
    fn row(&mut self, app: AppId) -> Option<&mut AppUsage> {
        (app != AppId::UNKNOWN).then(|| self.apps.entry(app.0).or_default())
    }

    fn hit(&mut self, app: AppId) {
        self.totals.hits += 1;
        if let Some(r) = self.row(app) {
            r.hits += 1;
        }
    }

    fn miss(&mut self, app: AppId) {
        self.totals.misses += 1;
        if let Some(r) = self.row(app) {
            r.misses += 1;
        }
    }

    /// A residency begins, on its installer's row.
    fn insert(&mut self, app: AppId) {
        self.totals.inserts += 1;
        if let Some(r) = self.row(app) {
            r.resident += 1;
        }
    }

    /// A residency ends, on its owner's row.
    fn remove(&mut self, owner: AppId) {
        self.totals.removes += 1;
        if let Some(r) = self.row(owner) {
            r.resident -= 1;
        }
    }

    fn evict(&mut self, owner: AppId, dirty: bool) {
        if dirty {
            self.totals.evictions_dirty += 1;
        } else {
            self.totals.evictions_clean += 1;
        }
        if let Some(r) = self.row(owner) {
            r.evictions += 1;
        }
    }

    fn app_usage(&self) -> Vec<(AppId, AppUsage)> {
        self.apps.iter().map(|(&id, &u)| (AppId(id), u)).collect()
    }
}

struct Config {
    capacity: usize,
    policy: EvictPolicy,
    watermarks: (usize, usize),
    partitioning: PartitionConfig,
    adaptive: Option<AdaptiveConfig>,
    epoch_accesses: u64,
}

impl Config {
    fn real(&self, shards: usize) -> BufferManager {
        BufferManager::builder(self.capacity)
            .shards(shards)
            .policy(self.policy)
            .watermarks(self.watermarks.0, self.watermarks.1)
            .partitioning(self.partitioning.clone())
            .adaptive(self.adaptive.clone())
            .epoch_accesses(self.epoch_accesses as usize)
            .build()
    }
}

struct Model {
    cfg: Config,
    blocks: HashMap<BlockKey, Block>,
    /// Which block each frame holds.
    tenant: Vec<Option<BlockKey>>,
    free: Vec<u32>,
    dirty: VecDeque<u32>,
    ranked: RankedTable,
    adaptive: Option<AdaptivePolicy>,
    /// Quota'd apps: `(quota, frames charged)`.
    apps: BTreeMap<u32, (usize, usize)>,
    ledger: Ledger,
    /// The counters that are not the ledger's.
    stats: CacheStats,
    accesses: u64,
    epochs: u64,
}

impl Model {
    fn new(cfg: Config) -> Model {
        let tune_quotas = cfg.partitioning.is_partitioned();
        let adaptive =
            cfg.adaptive.clone().map(|a| AdaptivePolicy::new(cfg.capacity, a, tune_quotas));
        let kind = adaptive.as_ref().map_or(cfg.policy.kind, |a| a.live());
        let apps = match cfg.partitioning.mode {
            PartitionMode::Shared => BTreeMap::new(),
            _ => cfg.partitioning.quotas.iter().map(|(&id, &q)| (id, (q, 0))).collect(),
        };
        Model {
            blocks: HashMap::new(),
            tenant: vec![None; cfg.capacity],
            free: (0..cfg.capacity as u32).rev().collect(),
            dirty: VecDeque::new(),
            ranked: kind.build(cfg.capacity),
            adaptive,
            apps,
            ledger: Ledger::default(),
            stats: CacheStats::default(),
            accesses: 0,
            epochs: 0,
            cfg,
        }
    }

    // -- accounting, all of it at access time -------------------------

    fn hit(&mut self, key: BlockKey, app: AppId) -> Outcome {
        self.ledger.hit(app);
        self.touch(key, app);
        Outcome::Hit
    }

    fn miss(&mut self, app: AppId) -> Outcome {
        self.ledger.miss(app);
        self.accesses += 1;
        Outcome::Miss
    }

    /// A use of resident `key`: its ref word, the ghosts, the ranker.
    fn touch(&mut self, key: BlockKey, app: AppId) {
        let frame = self.blocks[&key].frame;
        self.ranked.table().ref_words().touch(frame, app);
        if let Some(a) = &mut self.adaptive {
            a.observe(key.hash(), app);
        }
        self.ranked.touch(frame, key.hash(), app);
        self.accesses += 1;
    }

    fn serves(&self, key: BlockKey, span: Span) -> bool {
        self.blocks.get(&key).is_some_and(|b| b.valid.covers(span))
    }

    fn charge(&mut self, app: AppId) {
        if let Some((_, charged)) = self.apps.get_mut(&app.0) {
            *charged += 1;
        }
    }

    fn uncharge(&mut self, app: AppId) {
        if let Some((_, charged)) = self.apps.get_mut(&app.0) {
            *charged = charged.saturating_sub(1);
        }
    }

    /// The app furthest over its quota (ties: the higher id).
    fn most_over_quota(&self) -> Option<AppId> {
        let over = self.apps.iter().filter(|(_, &(q, c))| c > q);
        over.map(|(&id, &(q, c))| (c - q, id)).max().map(|(_, id)| AppId(id))
    }

    // -- the ops -------------------------------------------------------

    fn access(&mut self, key: BlockKey, app: AppId, kind: &AccessKind<'_>) -> Outcome {
        let out = match *kind {
            AccessKind::Read { span, .. } | AccessKind::ReadWith { span, .. } => {
                if self.serves(key, span) {
                    self.hit(key, app)
                } else {
                    self.miss(app)
                }
            }
            AccessKind::Probe { span } if self.serves(key, span) => {
                self.ledger.hit(app);
                self.accesses += 1;
                Outcome::Hit
            }
            AccessKind::Probe { .. } => self.miss(app),
            AccessKind::Touch if self.blocks.contains_key(&key) => {
                self.touch(key, app);
                Outcome::Hit
            }
            AccessKind::Touch => Outcome::Miss,
            AccessKind::Write { span, .. } | AccessKind::WriteDescribed { span, .. } => {
                match self.install(key, span, app, true) {
                    Some(_) => {
                        self.stats.writes_absorbed += 1;
                        Outcome::Absorbed
                    }
                    None => {
                        self.stats.writes_passthrough += 1;
                        Outcome::PassThrough
                    }
                }
            }
            AccessKind::InsertClean { span, .. } | AccessKind::InsertDescribed { span, .. } => {
                Outcome::Inserted(self.install(key, span, app, false).flatten())
            }
        };
        self.run_due_epochs();
        out
    }

    /// `None`: refused. `Some(flush)`: cached, `flush` the dirty block a
    /// clean install sacrificed.
    fn install(
        &mut self,
        key: BlockKey,
        span: Span,
        app: AppId,
        dirty: bool,
    ) -> Option<Option<(BlockKey, Span)>> {
        if let Some(b) = self.blocks.get_mut(&key) {
            let mergeable = b.valid.mergeable(span);
            if dirty && !mergeable {
                return None;
            }
            if mergeable {
                b.valid = b.valid.merge(span);
            }
            if dirty {
                b.dirty = b.dirty.hull(span);
                if !b.queued {
                    b.queued = true;
                    self.dirty.push_back(b.frame);
                }
            }
            self.touch(key, app);
            return Some(None);
        }
        let (frame, flush) = self.acquire(app, !dirty)?;
        if let Some(a) = &mut self.adaptive {
            a.observe(key.hash(), app);
        }
        self.ranked.insert(frame, key.hash(), app);
        self.ledger.insert(app);
        self.tenant[frame as usize] = Some(key);
        let dirty_span = if dirty { span } else { Span::EMPTY };
        let block = Block { frame, valid: span, dirty: dirty_span, queued: dirty, flushing: false };
        self.blocks.insert(key, block);
        if dirty {
            self.dirty.push_back(frame);
        }
        self.stats.insertions += 1;
        Some(flush)
    }

    /// A frame for `app`, under its quota: over quota it feeds on its own
    /// partition first; only soft mode borrows.
    fn acquire(
        &mut self,
        app: AppId,
        allow_dirty: bool,
    ) -> Option<(u32, Option<(BlockKey, Span)>)> {
        let soft = self.cfg.partitioning.mode == PartitionMode::Soft;
        let under_quota = match self.apps.get_mut(&app.0) {
            None => None,
            Some((quota, charged)) if *charged < *quota => {
                *charged += 1;
                Some(true)
            }
            Some(_) => Some(false),
        };
        if under_quota != Some(false) {
            if let Some(frame) = self.free.pop() {
                return Some((frame, None));
            }
            let borrower = if soft { self.most_over_quota() } else { None };
            let got = borrower
                .and_then(|b| self.evict(allow_dirty, Some(b)))
                .or_else(|| self.evict(allow_dirty, None));
            if got.is_none() && under_quota == Some(true) {
                self.uncharge(app);
            }
            return got;
        }
        if soft {
            if let Some(frame) = self.free.pop() {
                self.charge(app);
                return Some((frame, None));
            }
        }
        if let Some(got) = self.evict(allow_dirty, Some(app)) {
            self.charge(app); // the eviction uncharged one: residency unchanged
            return Some(got);
        }
        if !soft {
            return None;
        }
        let got = self.evict(allow_dirty, None);
        if got.is_some() {
            self.charge(app);
        }
        got
    }

    /// Evict the first admissible block in the ranker's order: clean ones
    /// first (if configured).
    fn evict(
        &mut self,
        allow_dirty: bool,
        owner: Option<AppId>,
    ) -> Option<(u32, Option<(BlockKey, Span)>)> {
        let clean_tiers: &[bool] =
            if self.cfg.policy.clean_first { &[true, false] } else { &[false] };
        for &clean_only in clean_tiers {
            let filter = &mut ScanFilter { owner, ..ScanFilter::default() };
            self.ranked.begin_scan();
            self.ledger.totals.scans += 1;
            while let Some(frame) = self.ranked.next_candidate(filter) {
                let key = self.tenant[frame as usize].expect("the ranker offers resident frames");
                let b = &self.blocks[&key];
                let is_dirty = !b.dirty.is_empty();
                if b.flushing || (is_dirty && (clean_only || !allow_dirty)) {
                    continue;
                }
                let flush = is_dirty.then_some((key, b.dirty));
                let owner = self.ranked.table().owner_of(frame);
                self.ledger.evict(owner, is_dirty);
                if let Some(a) = &mut self.adaptive {
                    a.remember_eviction(owner, key.hash());
                }
                self.vacate(key, owner);
                return Some((frame, flush));
            }
        }
        None
    }

    /// `key` leaves the cache (eviction or invalidation); its frame is the
    /// caller's to reuse or free.
    fn vacate(&mut self, key: BlockKey, owner: AppId) {
        let frame = self.blocks.remove(&key).expect("resident").frame;
        self.ranked.remove(frame, key.hash());
        self.ledger.remove(owner);
        self.tenant[frame as usize] = None;
        self.uncharge(owner);
    }

    fn update_if_present(&mut self, key: BlockKey, span: Span) -> bool {
        let Some(b) = self.blocks.get_mut(&key).filter(|b| b.valid.mergeable(span)) else {
            return false;
        };
        b.valid = b.valid.merge(span);
        let cleaned = !b.dirty.is_empty() && span.covers(b.dirty);
        if span.covers(b.dirty) {
            b.dirty = Span::EMPTY;
            b.queued = false;
        }
        self.touch(key, AppId::UNKNOWN);
        if cleaned {
            self.shed();
        }
        self.run_due_epochs();
        true
    }

    fn take_dirty(&mut self, max: usize) -> Vec<(BlockKey, Span)> {
        let (mut out, mut requeue) = (Vec::new(), Vec::new());
        while out.len() < max {
            let Some(frame) = self.dirty.pop_front() else { break };
            let key = self.tenant[frame as usize];
            let Some(b) = key.and_then(|k| self.blocks.get_mut(&k)) else { continue };
            if !b.queued || b.dirty.is_empty() {
                b.queued = false; // an entry left behind by an earlier tenancy or flush
            } else if b.flushing {
                requeue.push(frame);
            } else {
                b.flushing = true;
                b.queued = false;
                out.push((key.unwrap(), b.dirty));
                self.ranked.table().set_pinned(frame, true);
            }
        }
        for frame in requeue.into_iter().rev() {
            self.dirty.push_front(frame);
        }
        self.stats.flush_blocks += out.len() as u64;
        out
    }

    fn flush_complete(&mut self, key: BlockKey, span: Span) {
        let Some(b) = self.blocks.get_mut(&key) else { return };
        b.flushing = false;
        let cleaned = !b.queued && b.dirty == span;
        if cleaned {
            b.dirty = Span::EMPTY;
        }
        self.ranked.table().set_pinned(b.frame, false);
        if cleaned {
            self.shed();
        }
    }

    fn invalidate(&mut self, key: BlockKey) {
        let Some(b) = self.blocks.get(&key) else { return };
        self.stats.invalidated += 1;
        self.stats.invalidated_dirty += u64::from(!b.dirty.is_empty());
        let frame = b.frame;
        let owner = self.ranked.table().owner_of(frame);
        self.vacate(key, owner);
        self.free.push(frame);
    }

    fn harvest(&mut self) -> Vec<(BlockKey, Span)> {
        let high = self.cfg.watermarks.1;
        for _ in 0..2 * self.cfg.capacity {
            if self.free.len() >= high {
                break;
            }
            let evicted = (self.most_over_quota())
                .and_then(|b| self.evict(false, Some(b)))
                .or_else(|| self.evict(false, None));
            match evicted {
                Some((frame, _)) => self.free.push(frame),
                None => return self.take_dirty(high - self.free.len()),
            }
        }
        Vec::new()
    }

    /// Strict quotas: each app over its quota, ascending, drops clean
    /// frames until it is within it.
    fn shed(&mut self) {
        if self.cfg.partitioning.mode != PartitionMode::Strict {
            return;
        }
        let over: Vec<u32> =
            self.apps.iter().filter(|(_, &(q, c))| c > q).map(|(&id, _)| id).collect();
        for id in over {
            while self.apps[&id].1 > self.apps[&id].0 {
                let Some((frame, _)) = self.evict(false, Some(AppId(id))) else { break };
                self.free.push(frame);
            }
        }
    }

    // -- epochs --------------------------------------------------------

    fn run_due_epochs(&mut self) {
        let per_epoch = self.cfg.epoch_accesses;
        while per_epoch != 0 && self.accesses >= (self.epochs + 1) * per_epoch {
            self.epochs += 1;
            self.ranked.epoch_tick();
            let Some(a) = &mut self.adaptive else { continue };
            let quotas: Vec<(AppId, usize)> =
                self.apps.iter().map(|(&id, &(q, _))| (AppId(id), q)).collect();
            if let (_, Some(mv)) = a.end_epoch(&mut self.ranked, &quotas) {
                self.apps.get_mut(&mv.from.0).unwrap().0 -= mv.frames;
                self.apps.get_mut(&mv.to.0).unwrap().0 += mv.frames;
                self.shed();
            }
        }
    }

    fn resident_keys(&self) -> Vec<BlockKey> {
        let mut keys: Vec<BlockKey> = self.blocks.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}

// ---------------------------------------------------------------------
// Driving both with one op stream
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64, Span, u32),
    ReadWith(u64, Span, u32),
    Probe(u64, Span, u32),
    Touch(u64, u32),
    InsertClean(u64, Span, u32),
    Write(u64, Span, u32),
    Update(u64, Span),
    /// `take_dirty(n)`, every snapshot acknowledged at once.
    Flush(usize),
    /// `take_dirty(n)` with the acknowledgments left outstanding…
    TakeDirty(usize),
    /// …until this.
    CompleteAll,
    Invalidate(u64),
    Harvest,
}

fn key(block: u64) -> BlockKey {
    BlockKey::new(Fid(1), block)
}

/// 3 is the unattributed accessor, 4 an app past the bound of a shard's
/// per-app counts (16 ids), whose events are counted in the ledger's
/// overflow map.
fn app(id: u32) -> AppId {
    match id {
        3 => AppId::UNKNOWN,
        4 => AppId(40),
        _ => AppId(id),
    }
}

fn whose(items: Vec<kcache::FlushItem>) -> Vec<(BlockKey, Span)> {
    items.into_iter().map(|it| (it.key, it.span)).collect()
}

fn outcome(real: AccessOutcome) -> Outcome {
    match real {
        AccessOutcome::Hit => Outcome::Hit,
        AccessOutcome::Miss => Outcome::Miss,
        AccessOutcome::Write(WriteOutcome::Absorbed) => Outcome::Absorbed,
        AccessOutcome::Write(WriteOutcome::PassThrough) => Outcome::PassThrough,
        AccessOutcome::Inserted(flush) => Outcome::Inserted(flush.map(|it| (it.key, it.span))),
    }
}

/// The real manager (and, at `shards = 1`, the model beside it) under one
/// op stream.
struct Pair {
    real: BufferManager,
    model: Option<Model>,
    label: String,
    /// Snapshots taken and not yet acknowledged.
    in_flight: Vec<(BlockKey, Span)>,
}

impl Pair {
    fn new(cfg: Config, shards: usize, label: String) -> Pair {
        let real = cfg.real(shards);
        let model = (shards == 1).then(|| Model::new(cfg));
        Pair { real, model, label, in_flight: Vec::new() }
    }

    fn access(&mut self, step: usize, block: u64, id: u32, kind: AccessKind<'_>) {
        let expected = self.model.as_mut().map(|m| m.access(key(block), app(id), &kind));
        let got = outcome(self.real.access(key(block), Access { app: app(id), kind }));
        if let Some(expected) = expected {
            assert_eq!(got, expected, "{}: outcome diverged at step {step}", self.label);
        }
    }

    fn take_dirty(&mut self, step: usize, max: usize) -> Vec<(BlockKey, Span)> {
        let got = whose(self.real.take_dirty(max));
        if let Some(m) = &mut self.model {
            assert_eq!(got, m.take_dirty(max), "{}: flush diverged at step {step}", self.label);
        }
        got
    }

    fn complete(&mut self, items: Vec<(BlockKey, Span)>) {
        for (key, span) in items {
            self.real.flush_complete(key, span);
            if let Some(m) = &mut self.model {
                m.flush_complete(key, span);
            }
        }
    }

    fn apply(&mut self, step: usize, op: Op) {
        let bytes = [step as u8; CACHE_BLOCK_SIZE];
        let mut buf = [0u8; CACHE_BLOCK_SIZE];
        let of = |span: Span| span.len() as usize;
        match op {
            Op::Read(b, span, a) => {
                self.access(step, b, a, AccessKind::Read { span, out: &mut buf[..of(span)] })
            }
            Op::ReadWith(b, span, a) => {
                let mut got = 0;
                let kind = AccessKind::ReadWith { span, sink: &mut |bytes| got = bytes.len() };
                self.access(step, b, a, kind);
                assert!(got == 0 || got == of(span), "{}: sink got {got} bytes", self.label);
            }
            Op::Probe(b, span, a) => self.access(step, b, a, AccessKind::Probe { span }),
            Op::Touch(b, a) => self.access(step, b, a, AccessKind::Touch),
            Op::InsertClean(b, span, a) => {
                let kind =
                    AccessKind::InsertClean { home: NodeId(0), span, bytes: &bytes[..of(span)] };
                self.access(step, b, a, kind)
            }
            Op::Write(b, span, a) => {
                let kind = AccessKind::Write { home: NodeId(0), span, bytes: &bytes[..of(span)] };
                self.access(step, b, a, kind)
            }
            Op::Update(b, span) => {
                let got = self.real.update_if_present(key(b), span, &bytes[..of(span)]);
                if let Some(m) = &mut self.model {
                    assert_eq!(
                        got,
                        m.update_if_present(key(b), span),
                        "{}: step {step}",
                        self.label
                    );
                }
            }
            Op::Flush(n) => {
                let items = self.take_dirty(step, n);
                self.complete(items);
            }
            Op::TakeDirty(n) => {
                let items = self.take_dirty(step, n);
                self.in_flight.extend(items);
            }
            Op::CompleteAll => {
                let items = std::mem::take(&mut self.in_flight);
                self.complete(items);
            }
            Op::Invalidate(b) => {
                self.real.invalidate([key(b)]);
                if let Some(m) = &mut self.model {
                    m.invalidate(key(b));
                }
            }
            Op::Harvest => {
                let urgent = whose(self.real.harvest());
                if let Some(m) = &mut self.model {
                    assert_eq!(urgent, m.harvest(), "{}: harvest at step {step}", self.label);
                }
                self.in_flight.extend(urgent);
            }
        }
        self.check_step(step);
    }

    /// After every step: frames conserved, and the model's resident set.
    fn check_step(&mut self, step: usize) {
        let (real, label) = (&self.real, &self.label);
        let resident = real.resident_keys();
        assert_eq!(resident.len() + real.free_frames(), real.capacity(), "{label}: step {step}");
        assert_eq!(real.resident(), resident.len(), "{label}: step {step}");
        if let Some(m) = &self.model {
            assert_eq!(
                resident,
                m.resident_keys(),
                "{label}: resident set diverged at step {step}"
            );
        }
    }

    /// At the end: every reader agrees with the model; sharded, every
    /// lookup was counted once and the ledgers balance.
    fn check_end(&self) {
        let (real, label) = (&self.real, &self.label);
        let (s, ps) = (real.stats(), real.policy_stats());
        assert_eq!((s.hits, s.misses), (ps.hits, ps.misses), "{label}: lookups");
        let evictions = (s.evictions_clean, s.evictions_dirty);
        assert_eq!(evictions, (ps.evictions_clean, ps.evictions_dirty), "{label}");
        assert_eq!(ps.inserts - ps.removes, real.resident() as u64, "{label}: residency ledger");
        let Some(m) = &self.model else { return };
        let t = &m.ledger.totals;
        let (hits, misses, evictions_clean, evictions_dirty) =
            (t.hits, t.misses, t.evictions_clean, t.evictions_dirty);
        let want = CacheStats { hits, misses, evictions_clean, evictions_dirty, ..m.stats.clone() };
        let all = |s: &CacheStats| {
            [
                s.hits,
                s.misses,
                s.insertions,
                s.writes_absorbed,
                s.writes_passthrough,
                s.evictions_clean,
                s.evictions_dirty,
                s.flush_blocks,
                s.invalidated,
                s.invalidated_dirty,
            ]
        };
        assert_eq!(all(&s), all(&want), "{label}: stats");
        assert_eq!(ps, m.ledger.totals, "{label}: policy stats");
        assert_eq!(real.app_usage(), m.ledger.app_usage(), "{label}: app usage");
        assert_eq!(real.dirty_queue_len(), m.dirty.len(), "{label}: dirty queue");
        for id in 0..5 {
            let quota = m.apps.get(&app(id).0).map(|&(q, _)| q);
            assert_eq!(real.quota_of(app(id)), quota, "{label}: quota of app {id}");
        }
        let adaptive = m.adaptive.as_ref().map(AdaptivePolicy::stats);
        assert_eq!(real.adaptive_stats(), adaptive, "{label}: adaptive stats");
        assert_eq!(real.live_policy_kind(), m.ranked.kind().unwrap(), "{label}: live policy");
    }
}

/// Runs `ops` at one shard beside the model and, for a shared pool under
/// a static policy, at 2 and 4 shards too; returns the model.
fn run(cfg: impl Fn() -> Config, label: &str, ops: &[Op]) -> Model {
    let plain = {
        let cfg = cfg();
        !cfg.partitioning.is_partitioned() && cfg.adaptive.is_none()
    };
    let shard_counts: &[usize] = if plain { &[1, 2, 4] } else { &[1] };
    let mut model = None;
    for &shards in shard_counts {
        let mut pair = Pair::new(cfg(), shards, format!("{label}/shards={shards}"));
        for (step, &op) in ops.iter().enumerate() {
            pair.apply(step, op);
        }
        pair.check_end();
        model = model.or(pair.model);
    }
    model.expect("one shard runs beside the model")
}

/// The six static policies, then the adaptive manager: three candidates,
/// no hysteresis (it does switch), one-frame tuner steps.
fn setups() -> Vec<(EvictPolicy, Option<AdaptiveConfig>, String)> {
    let mut setups: Vec<_> =
        PolicyKind::ALL.map(|k| (EvictPolicy::of(k), None, k.name().to_string())).to_vec();
    let candidates = [PolicyKind::Clock, PolicyKind::ExactLru, PolicyKind::Lfu];
    let adaptive =
        AdaptiveConfig { hysteresis: 0.0, quota_step: 1, ..AdaptiveConfig::new(candidates) };
    setups.push((EvictPolicy::of(PolicyKind::Clock), Some(adaptive), "adaptive".into()));
    setups
}

fn partitioning(mode: PartitionMode) -> PartitionConfig {
    PartitionConfig { mode, quotas: [(0, 3), (1, 3)].into() }
}

/// The script `drained_accounting_matches_eager_path_exactly` ran against
/// the manager's own eager path until PR 22, now against the model: reads,
/// probes, touches, sync-write refreshes, installs, writes, flushes,
/// invalidations and harvests over 23 keys and 3 apps in an 8-frame pool
/// with strict 3 / 3 quotas, 32-access epochs, the tuner and the switching
/// controller live.
#[test]
fn scripted_ops_match_the_model() {
    let ops: Vec<Op> = (0..600u64)
        .flat_map(|step| {
            let block = (step * 7919) % 23;
            let a = (step % 3) as u32;
            match step % 7 {
                0 | 4 => vec![Op::InsertClean(block, Span::FULL, a)],
                1 => vec![Op::Write(block, Span::FULL, a)],
                2 | 5 => vec![Op::Read(block, Span::FULL, a)],
                3 => vec![
                    Op::Probe(block, Span::FULL, a),
                    Op::Update(block, Span::FULL),
                    Op::Touch(block, 2),
                ],
                _ if step % 35 == 6 => vec![Op::Invalidate(block), Op::Harvest],
                _ => vec![Op::Flush(3)],
            }
        })
        .collect();
    for (policy, adaptive, name) in setups() {
        let cfg = || Config {
            capacity: 8,
            policy,
            watermarks: (0, 2),
            partitioning: partitioning(PartitionMode::Strict),
            adaptive: adaptive.clone(),
            epoch_accesses: 32,
        };
        run(cfg, &format!("{name}/strict"), &ops);
    }
}

/// The epoch path on purpose: app 0 cycles a working set one frame over
/// its strict quota (every miss a refault) and app 1 streams blocks it
/// never revisits, so the tuner must move quota 1 → 0; the unattributed
/// accessor cycles more blocks than the pool holds — nothing for a recency
/// ranker, something for LFU — so the controller must switch. In the
/// model too, or the comparison covered nothing.
#[test]
fn tuner_moves_and_policy_switches_match_the_model() {
    let ops: Vec<Op> = (0..500u64)
        .flat_map(|round| {
            let (looped, cycled) = (round % 5, 100 + round % 12);
            let mut ops = vec![
                Op::Read(looped, Span::FULL, 0),
                Op::InsertClean(looped, Span::FULL, 0),
                Op::Read(cycled, Span::FULL, 3),
                Op::InsertClean(cycled, Span::FULL, 3),
            ];
            if round % 2 == 0 {
                ops.push(Op::InsertClean(1000 + round, Span::FULL, 1));
            }
            if round % 16 == 15 {
                ops.extend([Op::Write(cycled, Span::new(0, 512), 2), Op::Flush(4)]);
            }
            ops
        })
        .collect();
    let (policy, adaptive, _) = setups().pop().unwrap();
    let cfg = || Config {
        capacity: 10,
        policy,
        watermarks: (0, 2),
        partitioning: PartitionConfig::strict([(0, 4), (1, 4)]),
        adaptive: adaptive.clone(),
        epoch_accesses: 32,
    };
    let model = run(cfg, "adaptive/tuned", &ops);
    let seen = model.adaptive.as_ref().unwrap().stats();
    assert!(seen.quota_moves > 0 && seen.switches > 0, "nothing to compare: {seen:?}");
    assert!(model.apps[&0].0 > 4 && model.apps[&1].0 < 4, "quota must move 1 -> 0");
}

fn span_of(code: u64) -> Span {
    [Span::FULL, Span::new(0, 1024), Span::new(1024, 2048), Span::new(3000, 4096)]
        [code as usize % 4]
}

proptest! {
    /// Random op sequences over every `Access` kind, flushes with and
    /// without outstanding acknowledgments, invalidations and harvests × 3
    /// apps, the unattributed accessor and an app past the ledger's
    /// counted ids (so both of its counting paths, the per-app slots and
    /// the overflow map, are compared) × {shared, strict, soft} × the six
    /// policies and the adaptive manager × `clean_first`.
    #[test]
    fn random_ops_match_the_model(
        setup in 0usize..10,
        mode in 0usize..3,
        clean_first in any::<bool>(),
        raw in collection::vec((0u8..31, 0u64..14, 0u32..5, 0u64..4), 1..400),
    ) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(code, block, a, s)| match code {
                0..=5 => Op::Read(block, span_of(s), a),
                6 | 7 => Op::ReadWith(block, span_of(s), a),
                8..=12 => Op::InsertClean(block, span_of(s), a),
                13..=17 => Op::Write(block, span_of(s), a),
                18 | 19 => Op::Probe(block, span_of(s), a),
                20 | 21 => Op::Touch(block, a),
                22 => Op::Update(block, span_of(s)),
                23 | 24 => Op::Flush(1 + s as usize),
                25 => Op::TakeDirty(1 + s as usize),
                26 | 27 => Op::CompleteAll,
                28 => Op::Invalidate(block),
                _ => Op::Harvest,
            })
            .collect();
        // Four draws in ten run the adaptive manager.
        let (policy, adaptive, name) = setups().swap_remove(setup.min(6));
        let mode = [PartitionMode::Shared, PartitionMode::Strict, PartitionMode::Soft][mode];
        let cfg = || Config {
            capacity: 8,
            policy: EvictPolicy { clean_first, ..policy },
            watermarks: (1, 3),
            partitioning: partitioning(mode),
            adaptive: adaptive.clone(),
            epoch_accesses: 16,
        };
        run(cfg, &format!("{name}/{mode}/clean_first={clean_first}"), &ops);
    }
}
