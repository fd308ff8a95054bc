//! Network message envelope and addressing.

use std::any::Any;
use std::fmt;

/// Identity of a cluster node (0-based, dense).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A service port on a node. Well-known ports are defined by the protocol
/// crates (iod request port, iod flush port, mgr port, per-client reply
/// ports).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(pub u16);

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":{}", self.0)
    }
}

/// Accounting class of a message: the fabric keeps separate counters for
/// cooperative-caching peer traffic so experiments can report how many
/// bytes the remote-hit tier moved over each fabric model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrafficClass {
    #[default]
    Default,
    /// Cooperative-caching traffic: an iod's forwards to a peer cache,
    /// the peer's block transfers, and its bounces back to the iod.
    Peer,
}

/// A message in flight between two node/port endpoints.
///
/// `wire_bytes` is the protocol-level size (headers + data) used for timing;
/// `payload` carries the typed content for the receiving actor.
pub struct NetMessage {
    pub src: NodeId,
    pub src_port: Port,
    pub dst: NodeId,
    pub dst_port: Port,
    pub wire_bytes: u32,
    /// Monotone per-sender tag, for tracing and test assertions.
    pub tag: u64,
    pub class: TrafficClass,
    pub payload: Box<dyn Any>,
}

impl NetMessage {
    pub fn new<T: Any>(
        src: (NodeId, Port),
        dst: (NodeId, Port),
        wire_bytes: u32,
        tag: u64,
        payload: T,
    ) -> NetMessage {
        NetMessage {
            src: src.0,
            src_port: src.1,
            dst: dst.0,
            dst_port: dst.1,
            wire_bytes,
            tag,
            class: TrafficClass::Default,
            payload: Box::new(payload),
        }
    }

    /// Tag the message with an accounting class (builder style).
    pub fn with_class(mut self, class: TrafficClass) -> NetMessage {
        self.class = class;
        self
    }

    /// Downcast the payload, preserving the message on mismatch.
    pub fn cast<T: Any>(self) -> Result<(MessageMeta, Box<T>), NetMessage> {
        let meta = self.meta();
        let NetMessage { src, src_port, dst, dst_port, wire_bytes, tag, class, payload } = self;
        match payload.downcast::<T>() {
            Ok(p) => Ok((meta, p)),
            Err(payload) => {
                Err(NetMessage { src, src_port, dst, dst_port, wire_bytes, tag, class, payload })
            }
        }
    }

    pub fn peek<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    pub fn meta(&self) -> MessageMeta {
        MessageMeta {
            src: self.src,
            src_port: self.src_port,
            dst: self.dst,
            dst_port: self.dst_port,
            wire_bytes: self.wire_bytes,
            tag: self.tag,
        }
    }
}

impl fmt::Debug for NetMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NetMessage({:?}{:?} -> {:?}{:?}, {}B, tag {})",
            self.src, self.src_port, self.dst, self.dst_port, self.wire_bytes, self.tag
        )
    }
}

/// Copyable header of a [`NetMessage`].
#[derive(Debug, Clone, Copy)]
pub struct MessageMeta {
    pub src: NodeId,
    pub src_port: Port,
    pub dst: NodeId,
    pub dst_port: Port,
    pub wire_bytes: u32,
    pub tag: u64,
}

/// Event payload: hand a message to the fabric for transmission.
pub struct Xmit(pub NetMessage);

/// Event payload: a fully received message, delivered to the actor bound
/// to its destination port (or to its node's endpoint).
pub struct Deliver(pub NetMessage);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_preserves_message_on_mismatch() {
        struct A(u32);
        struct B;
        let m = NetMessage::new((NodeId(1), Port(10)), (NodeId(2), Port(20)), 64, 7, A(5));
        let m = match m.cast::<B>() {
            Ok(_) => panic!("wrong downcast succeeded"),
            Err(m) => m,
        };
        assert_eq!(m.wire_bytes, 64);
        let (meta, a) = m.cast::<A>().expect("original type");
        assert_eq!(a.0, 5);
        assert_eq!(meta.tag, 7);
        assert_eq!(meta.src, NodeId(1));
        assert_eq!(meta.dst_port, Port(20));
    }

    #[test]
    fn peek_does_not_consume() {
        struct A(u32);
        let m = NetMessage::new((NodeId(0), Port(1)), (NodeId(1), Port(2)), 10, 0, A(9));
        assert_eq!(m.peek::<A>().map(|a| a.0), Some(9));
        assert!(m.peek::<u64>().is_none());
        assert_eq!(m.meta().wire_bytes, 10);
    }

    #[test]
    fn ids_format_compactly() {
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
        assert_eq!(format!("{:?}", Port(4)), ":4");
    }
}
