//! The iod's per-block directory of caching nodes (§3.2: "requires a
//! directory entry per block (at the IOD)").
//!
//! A sync-write invalidates the nodes it lists. Each iod lists the blocks
//! it stores. Registrations come from the messages caching nodes send
//! anyway (caching reads, flushes, writes); removals from sync-writes.

use crate::protocol::Fid;
use sim_net::NodeId;
use std::collections::BTreeMap;

/// Per file, logical 4 KB block → the nodes caching it, oldest-listed
/// first. A file's table is indexed by block and grown to the highest one
/// registered; the fid is looked up once per call.
#[derive(Debug, Default)]
pub struct Directory {
    files: BTreeMap<Fid, Vec<Vec<NodeId>>>,
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
        let table = self.files.entry(fid).or_default();
        let mut added = 0;
        for b in blocks {
            if table.len() <= b as usize {
                table.resize_with(b as usize + 1, Vec::new);
            }
            let entry = &mut table[b as usize];
            if !entry.contains(&node) {
                entry.push(node);
                added += 1;
            }
        }
        added
    }

    /// Drop every node but `writer` from `(fid, blk)` and return them: the
    /// nodes a sync-write of the block must invalidate.
    pub fn take_others(&mut self, fid: Fid, blk: u64, writer: NodeId) -> Vec<NodeId> {
        let Some(entry) = self.files.get_mut(&fid).and_then(|t| t.get_mut(blk as usize)) else {
            return Vec::new();
        };
        let others = entry.iter().copied().filter(|&n| n != writer).collect();
        entry.retain(|&n| n == writer);
        others
    }

    /// The nodes listed for `(fid, blk)`, oldest-listed first.
    pub fn sharers(&self, fid: Fid, blk: u64) -> Vec<NodeId> {
        self.files.get(&fid).and_then(|table| table.get(blk as usize)).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: Fid = Fid(1);

    #[test]
    fn a_node_is_listed_once_per_block_in_arrival_order() {
        let mut d = Directory::default();
        assert_eq!(d.register(F, [10], NodeId(2)), 1);
        assert_eq!(d.register(F, [10, 11], NodeId(1)), 2);
        assert_eq!(d.register(F, [10], NodeId(2)), 0, "already listed");
        assert_eq!(d.sharers(F, 10), vec![NodeId(2), NodeId(1)]);
        assert_eq!(d.sharers(F, 11), vec![NodeId(1)]);
        assert!(d.sharers(F, 12).is_empty());
    }

    #[test]
    fn a_sync_write_takes_every_other_sharer() {
        let mut d = Directory::default();
        d.register(F, [4], NodeId(1));
        d.register(F, [4], NodeId(2));
        d.register(F, [4], NodeId(3));
        assert_eq!(d.take_others(F, 4, NodeId(2)), vec![NodeId(1), NodeId(3)]);
        assert_eq!(d.sharers(F, 4), vec![NodeId(2)], "only the writer remains");
        assert!(d.take_others(F, 5, NodeId(2)).is_empty());
    }
}
