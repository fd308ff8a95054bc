//! The iod's per-block directory of caching nodes (§3.2: "requires a
//! directory entry per block (at the IOD)").
//!
//! A sync-write invalidates the nodes it lists; with cooperative caching
//! on, a read bound for the platter is forwarded to one of them instead.
//! It is the cluster's only block directory, and it is sharded by
//! striping: each iod lists the blocks it stores. Registrations come from
//! the messages nodes send anyway (caching reads, flushes, writes);
//! removals from sync-writes and from cooperative modules' eviction
//! notices ([`Dropped`]).

use crate::protocol::{Dropped, Fid};
use sim_net::NodeId;
use std::collections::HashMap;

/// (fid, logical 4 KB block) → the nodes caching it, each with the
/// sequence number of the newest message that listed it (0 for a message
/// that carries none).
#[derive(Debug, Default)]
pub struct Directory {
    entries: HashMap<(Fid, u64), Vec<(NodeId, u64)>>,
}

impl Directory {
    /// List `node` for every block of `blocks`, as registered by its
    /// message `seq`. Returns how many entries are new.
    pub fn register(
        &mut self,
        fid: Fid,
        blocks: impl IntoIterator<Item = u64>,
        node: NodeId,
        seq: u64,
    ) -> u64 {
        let mut added = 0;
        for b in blocks {
            let entry = self.entries.entry((fid, b)).or_default();
            match entry.iter_mut().find(|(n, _)| *n == node) {
                Some((_, s)) => *s = (*s).max(seq),
                None => {
                    entry.push((node, seq));
                    added += 1;
                }
            }
        }
        added
    }

    /// Apply `node`'s eviction notices: each drops the node from its
    /// block's entry, unless a message the node sent after the drop has
    /// listed it there again.
    pub fn apply(&mut self, node: NodeId, dropped: &[Dropped]) {
        for d in dropped {
            let key = (d.fid, d.blk);
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.retain(|&(n, s)| n != node || s > d.seq);
                if entry.is_empty() {
                    self.entries.remove(&key);
                }
            }
        }
    }

    /// The node a read of `(fid, blk)` by `requester` goes to instead of
    /// the platter: the newest-listed other node, if any.
    pub fn peer_for(&self, fid: Fid, blk: u64, requester: NodeId) -> Option<NodeId> {
        let entry = self.entries.get(&(fid, blk))?;
        entry.iter().rev().map(|&(n, _)| n).find(|&n| n != requester)
    }

    /// Drop every node but `writer` from `(fid, blk)` and return them: the
    /// nodes a sync-write of the block must invalidate.
    pub fn take_others(&mut self, fid: Fid, blk: u64, writer: NodeId) -> Vec<NodeId> {
        let Some(entry) = self.entries.get_mut(&(fid, blk)) else {
            return Vec::new();
        };
        let others = entry.iter().map(|&(n, _)| n).filter(|&n| n != writer).collect();
        entry.retain(|&(n, _)| n == writer);
        others
    }

    /// The nodes listed for `(fid, blk)`, oldest-listed first.
    pub fn sharers(&self, fid: Fid, blk: u64) -> Vec<NodeId> {
        self.entries.get(&(fid, blk)).map_or_else(Vec::new, |e| e.iter().map(|&(n, _)| n).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: Fid = Fid(1);

    fn dropped(seq: u64, blocks: &[u64]) -> Vec<Dropped> {
        blocks.iter().map(|&blk| Dropped { fid: F, blk, seq }).collect()
    }

    #[test]
    fn a_forward_never_points_the_requester_at_itself() {
        let mut d = Directory::default();
        assert_eq!(d.register(F, [10], NodeId(1), 0), 1);
        assert_eq!(d.register(F, [10], NodeId(2), 0), 1);
        assert_eq!(d.register(F, [10], NodeId(1), 0), 0, "already listed");
        assert_eq!(d.peer_for(F, 10, NodeId(1)), Some(NodeId(2)));
        assert_eq!(d.peer_for(F, 10, NodeId(2)), Some(NodeId(1)));
        assert_eq!(d.peer_for(F, 10, NodeId(3)), Some(NodeId(2)), "the newest-listed sharer");
        assert_eq!(d.peer_for(F, 11, NodeId(3)), None);
        d.register(F, [12], NodeId(1), 0);
        assert_eq!(d.peer_for(F, 12, NodeId(1)), None, "only the requester caches it");
    }

    #[test]
    fn a_drop_cancels_only_registrations_sent_before_it() {
        let mut d = Directory::default();
        d.register(F, [1, 2], NodeId(1), 5);
        d.register(F, [1], NodeId(2), 5);
        // Node 1 re-reads block 2 with its message 7 after dropping both
        // blocks past message 6; the notice arrives last all the same.
        d.register(F, [2], NodeId(1), 7);
        d.apply(NodeId(1), &dropped(6, &[1, 2]));
        assert_eq!(d.sharers(F, 1), vec![NodeId(2)], "other nodes are untouched");
        assert_eq!(d.sharers(F, 2), vec![NodeId(1)], "the re-read stays listed");
        // A drop after message 7 cancels it.
        d.apply(NodeId(1), &dropped(7, &[2]));
        assert!(d.sharers(F, 2).is_empty());
        assert_eq!(d.peer_for(F, 2, NodeId(3)), None);
    }

    #[test]
    fn a_sync_write_takes_every_other_sharer() {
        let mut d = Directory::default();
        d.register(F, [4], NodeId(1), 0);
        d.register(F, [4], NodeId(2), 0);
        d.register(F, [4], NodeId(3), 0);
        assert_eq!(d.take_others(F, 4, NodeId(2)), vec![NodeId(1), NodeId(3)]);
        assert_eq!(d.sharers(F, 4), vec![NodeId(2)], "only the writer remains");
        assert!(d.take_others(F, 5, NodeId(2)).is_empty());
    }
}
