//! # sim-net — cluster interconnect model
//!
//! Recreates the paper's network substrate: 100 Mbps Ethernet NICs attached
//! to a shared 16-port hub (with a switched mode as an ablation) and a
//! frame-granular transmission model (MTU 1500). Port bindings in the
//! [`Fabric`] are the *socket interception point* the paper's kernel module
//! relies on: the module rebinds the client library's reply port to itself
//! ([`Fabric::bind`]).
//!
//! Timing model per message: the sender's NIC puts the message on the wire
//! one frame at a time, contending with other NICs at frame granularity; the
//! message is delivered when its last frame (plus propagation delay)
//! arrives, to the actor bound to the destination port or else to the
//! destination node's endpoint. Node-local messages short-circuit through a
//! fast loopback path and are routed the same way.

pub mod config;
pub mod fabric;
pub mod message;

pub use config::{FabricKind, NetConfig};
pub use fabric::{uncontended_latency, Fabric, FabricStats};
pub use message::{Deliver, MessageMeta, NetMessage, NodeId, Port, TrafficClass, Xmit};
