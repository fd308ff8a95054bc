//! Cross-node flow correlation ids.
//!
//! A cooperative fetch is one logical operation executed by three
//! actors on (up to) three nodes: the iod that forwards a platter-bound
//! read, the peer cache that serves it, and the requesting cache module
//! that installs the bytes (or, when the peer no longer holds them, the
//! peer's bounce back to the iod). Each actor traces into its **own**
//! per-node hub, so the only way to stitch the story back together in a
//! trace viewer is a shared correlation id carried on the wire messages
//! (`PeerReadReq` / `PeerReadReply`): the flow starts at the forward,
//! steps at the peer, and ends at the install or at the bounce.
//!
//! A [`FlowId`] packs the forwarding node's id with its per-node
//! forward sequence number, which makes ids unique cluster-wide without
//! any coordination: two nodes can never mint the same id, and one node
//! never reuses a sequence number. Zero is reserved as "no flow" so
//! protocol messages can default to untraced.

/// Cluster-unique correlation id for one cross-node conversation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowId(pub u64);

impl FlowId {
    /// The reserved "not part of a flow" id.
    pub const NONE: FlowId = FlowId(0);

    const SEQ_BITS: u32 = 48;
    const SEQ_MASK: u64 = (1 << FlowId::SEQ_BITS) - 1;

    /// Mint the id for cooperative forward `seq` started by `node`.
    /// `node + 1` occupies the top 16 bits so node 0's flows are still
    /// distinguishable from [`FlowId::NONE`].
    pub fn coop(node: u16, seq: u64) -> FlowId {
        FlowId(((node as u64 + 1) << FlowId::SEQ_BITS) | (seq & FlowId::SEQ_MASK))
    }

    /// The node that minted this id (inverse of [`FlowId::coop`]).
    pub fn node(self) -> u16 {
        ((self.0 >> FlowId::SEQ_BITS) as u16).wrapping_sub(1)
    }

    /// The minting node's conversation sequence number.
    pub fn seq(self) -> u64 {
        self.0 & FlowId::SEQ_MASK
    }

    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_node_and_seq_without_collisions() {
        let a = FlowId::coop(0, 1);
        let b = FlowId::coop(1, 1);
        let c = FlowId::coop(0, 2);
        assert!(!a.is_none() && a != b && a != c);
        assert_eq!((a.node(), a.seq()), (0, 1));
        assert_eq!((b.node(), b.seq()), (1, 1));
        assert!(FlowId::NONE.is_none());
        assert_eq!(FlowId::default(), FlowId::NONE);
    }
}
