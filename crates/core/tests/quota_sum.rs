//! The quota tuner moves quota between two apps at epoch boundaries while
//! four threads install, read and harvest under those quotas. Whatever
//! interleaves, quota is only ever *moved*: the two quotas sum to what was
//! configured after every round, and no app holds more frames than the
//! most its quota has been, give or take one acquisition per thread.

use kcache::{
    Access, AccessKind, AdaptiveConfig, AppId, BlockKey, BufferManager, PartitionConfig,
    PolicyKind, Span, CACHE_BLOCK_SIZE,
};
use pvfs::Fid;
use sim_net::NodeId;

const CAPACITY: usize = 64;
const QUOTA: usize = 24;
const THREADS: u64 = 4;
const ROUNDS: u64 = 40;
/// Per thread and round; a debug build runs a tenth (tier-1 stays quick,
/// CI's release pass of this crate runs it in full).
const OPS: u64 = if cfg!(debug_assertions) { 2_000 } else { 20_000 };

fn install(m: &BufferManager, key: BlockKey, bytes: &[u8], app: AppId) {
    let kind = AccessKind::InsertClean { home: NodeId(0), span: Span::FULL, bytes };
    m.access(key, Access { app, kind });
}

#[test]
fn the_tuner_only_ever_moves_quota() {
    let m = BufferManager::builder(CAPACITY)
        .partitioning(PartitionConfig::strict([(0, QUOTA), (1, QUOTA)]))
        .adaptive(Some(AdaptiveConfig {
            quota_step: 2,
            ..AdaptiveConfig::new([PolicyKind::Clock])
        }))
        .epoch_accesses(32)
        .build();
    let bytes = vec![7u8; CACHE_BLOCK_SIZE];
    let mut peak = [QUOTA; 2];
    for round in 0..ROUNDS {
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (m, bytes) = (&m, &bytes);
                s.spawn(move || {
                    let app = AppId((t % 2) as u32);
                    // The apps swap roles every round, so quota keeps
                    // flowing one way, then back.
                    let loops = (round + t) % 2 == 0;
                    let mut buf = vec![0u8; CACHE_BLOCK_SIZE];
                    for i in 0..OPS {
                        if loops {
                            // Loops over 40 blocks: more than its quota, so
                            // it refaults and the tuner grows it.
                            let key = BlockKey::new(Fid(1 + t), (i * 7) % 40);
                            let kind = AccessKind::Read { span: Span::FULL, out: &mut buf };
                            if !m.access(key, Access { app, kind }).is_hit() {
                                install(m, key, bytes, app);
                            }
                        } else {
                            // Streams: never a refault, the tuner's donor.
                            let fresh = (round * THREADS + t) * OPS + i;
                            install(m, BlockKey::new(Fid(9), fresh), bytes, app);
                        }
                        if t == 0 && i % 64 == 63 && m.needs_harvest() {
                            m.harvest();
                        }
                    }
                });
            }
        });
        let quotas = [0, 1].map(|id| m.quota_of(AppId(id)).expect("partitioned"));
        assert_eq!(quotas[0] + quotas[1], 2 * QUOTA, "round {round}: quota leaked: {quotas:?}");
        for (id, quota) in quotas.into_iter().enumerate() {
            let app = AppId(id as u32);
            // Strict: never more frames than quota, give or take one
            // acquisition in flight per thread — measured against the most
            // the quota has been, because a move leaves its loser over the
            // shrunk quota until evictions (its own, the harvester's) bring
            // it down: that is how a tuner decision takes physical effect.
            peak[id] = peak[id].max(quota);
            let held = m.resident_of(app);
            assert!(
                held <= peak[id] + THREADS as usize,
                "round {round}: app {id} holds {held} frames, quota {quota}, at most {}",
                peak[id]
            );
        }
        assert_eq!(m.resident() + m.free_frames(), CAPACITY, "round {round}: frames leaked");
    }
    let stats = m.adaptive_stats().expect("adaptive");
    assert!(stats.quota_moves > 0, "the tuner never moved: nothing was tested");
    assert_eq!(stats.quota_moves as usize, stats.quota_log.len(), "quota log out of sync");
    assert_eq!(stats.switches as usize, stats.switch_log.len(), "switch log out of sync");
    // The log replays to the ledger: every move applied was logged, and
    // every move logged was applied.
    for id in [0, 1] {
        let app = AppId(id);
        let net: i64 = stats
            .quota_log
            .iter()
            .map(|m| m.frames as i64 * (i64::from(m.to == app) - i64::from(m.from == app)))
            .sum();
        let quota = m.quota_of(app).expect("partitioned") as i64;
        assert_eq!(QUOTA as i64 + net, quota, "app {id}: quota log and ledger disagree");
    }
}
