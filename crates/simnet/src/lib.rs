#![warn(missing_docs)]

//! # acn-simnet — in-process message-passing network substrate
//!
//! The QR-ACN reproduction runs an entire distributed transactional memory
//! (clients + quorum servers) inside one process. This crate provides the
//! message-passing layer that stands in for the paper's 1 Gbps switched
//! network: every logical node owns an inbox, senders address nodes by
//! [`NodeId`], and a pluggable [`LatencyModel`] delays each message so that
//! remote operations keep their paper-relevant cost structure (a remote
//! object fetch is orders of magnitude more expensive than a local
//! computation).
//!
//! Design goals, in order:
//!
//! 1. **Faithful cost model** — per-message latency sampled from a model,
//!    messages delivered in `deliver_at` order (a later-sent message with a
//!    shorter latency can overtake an earlier one, as on a real network).
//! 2. **Fault injection** — nodes can be failed and recovered at run time;
//!    messages to failed nodes are dropped, which is what lets the tree
//!    quorum protocol's fault tolerance be exercised end-to-end.
//! 3. **Determinism where it matters** — with [`LatencyModel::Zero`] and a
//!    single client the delivery order is FIFO, which keeps unit tests
//!    exact; the benchmark harness uses jittered latencies.
//!
//! ```
//! use acn_simnet::{Network, LatencyModel};
//! use std::time::Duration;
//!
//! let net: Network<&'static str> = Network::new(2, LatencyModel::Zero);
//! let a = net.endpoint(acn_simnet::NodeId(0));
//! let b = net.endpoint(acn_simnet::NodeId(1));
//! a.send(acn_simnet::NodeId(1), "ping");
//! let (src, msg) = b.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!(src, acn_simnet::NodeId(0));
//! assert_eq!(msg, "ping");
//! ```

mod chaos;
mod envelope;
mod fault;
mod inbox;
mod latency;
mod network;
mod node;
mod stats;

pub use chaos::{
    ChaosDecision, ChaosProfile, ChaosRule, FaultAction, FaultPlan, MsgKind, TimedFault, ANY_KIND,
};
pub use envelope::{Envelope, Payload};
pub use fault::FaultTable;
pub use inbox::RecvError;
pub use latency::LatencyModel;
pub use network::{Endpoint, Network, RecvMeta};
pub use node::NodeId;
pub use stats::{NamedCounter, NetStats, NetStatsSnapshot};
