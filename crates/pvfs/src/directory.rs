//! The iod's per-block directory of caching nodes (§3.2: "requires a
//! directory entry per block (at the IOD)").
//!
//! A sync-write invalidates the nodes it lists. Each iod lists the blocks
//! it stores. Registrations come from the messages caching nodes send
//! anyway (caching reads, flushes, writes); removals from sync-writes.

use crate::protocol::Fid;
use sim_net::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Nodes below this id are a bit of a block's mask; the rest spill.
const MASK_NODES: u16 = u64::BITS as u16;

/// Per file, logical 4 KB block → the set of nodes caching it. Sets come
/// out in ascending node id. The fid is looked up once per call.
#[derive(Debug, Default)]
pub struct Directory {
    files: BTreeMap<Fid, Listing>,
}

/// One file's sets: a node-id bit mask per block, in a table indexed by
/// block and grown to the highest one registered, so listing a block
/// allocates nothing; nodes from [`MASK_NODES`] up, which only clusters
/// that large have, in an ordered side set.
#[derive(Debug, Default)]
struct Listing {
    masks: Vec<u64>,
    /// `(block, node)` for nodes at or above [`MASK_NODES`].
    spill: BTreeSet<(u64, u16)>,
}

/// The nodes of `mask`, ascending.
fn nodes_of(mut mask: u64) -> impl Iterator<Item = NodeId> {
    std::iter::from_fn(move || {
        let n = mask.trailing_zeros();
        mask &= mask.checked_sub(1)?;
        Some(NodeId(n as u16))
    })
}

impl Listing {
    /// The block's spilled nodes, ascending.
    fn spilled(&self, blk: u64) -> impl Iterator<Item = u16> + '_ {
        self.spill.range((blk, MASK_NODES)..=(blk, u16::MAX)).map(|&(_, n)| n)
    }
}

impl Directory {
    /// List `node` for every block of `blocks`. Returns how many entries
    /// are new.
    pub fn register(
        &mut self,
        fid: Fid,
        blocks: impl IntoIterator<Item = u64>,
        node: NodeId,
    ) -> u64 {
        let listing = self.files.entry(fid).or_default();
        let mut added = 0;
        for b in blocks {
            let new = if node.0 < MASK_NODES {
                if listing.masks.len() <= b as usize {
                    listing.masks.resize(b as usize + 1, 0);
                }
                let mask = &mut listing.masks[b as usize];
                let bit = 1 << node.0;
                let new = *mask & bit == 0;
                *mask |= bit;
                new
            } else {
                listing.spill.insert((b, node.0))
            };
            added += new as u64;
        }
        added
    }

    /// Drop every node but `writer` from `(fid, blk)` and return them,
    /// ascending: the nodes a sync-write of the block must invalidate.
    pub fn take_others(&mut self, fid: Fid, blk: u64, writer: NodeId) -> Vec<NodeId> {
        let Some(listing) = self.files.get_mut(&fid) else {
            return Vec::new();
        };
        let mut others = Vec::new();
        if let Some(mask) = listing.masks.get_mut(blk as usize) {
            let keep = if writer.0 < MASK_NODES { *mask & (1 << writer.0) } else { 0 };
            others.extend(nodes_of(*mask & !keep));
            *mask = keep;
        }
        let spilled: Vec<u16> = listing.spilled(blk).filter(|&n| n != writer.0).collect();
        for n in spilled {
            listing.spill.remove(&(blk, n));
            others.push(NodeId(n));
        }
        others
    }

    /// The nodes listed for `(fid, blk)`, ascending.
    pub fn sharers(&self, fid: Fid, blk: u64) -> Vec<NodeId> {
        let Some(listing) = self.files.get(&fid) else {
            return Vec::new();
        };
        let mask = listing.masks.get(blk as usize).copied().unwrap_or(0);
        nodes_of(mask).chain(listing.spilled(blk).map(NodeId)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: Fid = Fid(1);

    #[test]
    fn a_node_is_listed_once_per_block_and_sets_come_out_ascending() {
        let mut d = Directory::default();
        assert_eq!(d.register(F, [10], NodeId(2)), 1);
        assert_eq!(d.register(F, [10, 11], NodeId(1)), 2);
        assert_eq!(d.register(F, [10], NodeId(2)), 0, "already listed");
        assert_eq!(d.sharers(F, 10), vec![NodeId(1), NodeId(2)]);
        assert_eq!(d.sharers(F, 11), vec![NodeId(1)]);
        assert!(d.sharers(F, 12).is_empty());
    }

    #[test]
    fn a_sync_write_takes_every_other_sharer() {
        let mut d = Directory::default();
        d.register(F, [4], NodeId(3));
        d.register(F, [4], NodeId(2));
        d.register(F, [4], NodeId(1));
        assert_eq!(d.take_others(F, 4, NodeId(2)), vec![NodeId(1), NodeId(3)]);
        assert_eq!(d.sharers(F, 4), vec![NodeId(2)], "only the writer remains");
        assert!(d.take_others(F, 5, NodeId(2)).is_empty());
    }

    #[test]
    fn nodes_past_the_mask_spill_and_sort_after_it() {
        let mut d = Directory::default();
        for n in [70, 63, 64, 0] {
            assert_eq!(d.register(F, [7, 8], NodeId(n)), 2);
        }
        assert_eq!(d.register(F, [7], NodeId(64)), 0, "already listed");
        let all = [0, 63, 64, 70].map(NodeId).to_vec();
        assert_eq!(d.sharers(F, 7), all);
        assert_eq!(d.take_others(F, 7, NodeId(64)), [0, 63, 70].map(NodeId).to_vec());
        assert_eq!(d.sharers(F, 7), vec![NodeId(64)]);
        assert_eq!(d.take_others(F, 8, NodeId(5)), all, "a writer not listed keeps none");
        assert!(d.sharers(F, 8).is_empty());
    }
}
