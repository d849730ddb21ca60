#![warn(missing_docs)]

//! # acn-quorum — tree quorum protocol
//!
//! QR-DTM (and thus QR-CN / QR-ACN) manages replicated transactional
//! meta-data with quorums built over a **logical ternary tree** of server
//! nodes, following Agrawal & El Abbadi's tree quorum protocol (VLDB '90).
//! The paper describes the variant actually deployed:
//!
//! > "A read quorum is the majority of children at a level of the tree,
//! >  while a write quorum is the majority of children at every level."
//!
//! This crate implements that **level-majority** variant
//! ([`LevelQuorums`]). The crucial safety property — every read quorum
//! intersects every write quorum, and any two write quorums intersect — is
//! unit- and property-tested.
//!
//! Quorum members are plain `usize` server ranks `0..n`; the DTM layer maps
//! ranks to network node ids.
//!
//! ```
//! use acn_quorum::{DaryTree, LevelQuorums};
//!
//! // The paper's test-bed: 10 servers in a ternary tree.
//! let sys = LevelQuorums::new(DaryTree::ternary(10));
//! let alive = |_rank: usize| true;
//! let read = sys.read_quorum(0, &alive).unwrap();
//! let write = sys.write_quorum(0, &alive).unwrap();
//! assert!(read.iter().any(|r| write.contains(r)), "quorums intersect");
//! ```

mod level;
mod tree;

pub use level::{LevelQuorums, ReadLevelPolicy};
pub use tree::DaryTree;

/// Verify that two quorums intersect (share at least one member).
pub fn intersects(a: &[usize], b: &[usize]) -> bool {
    a.iter().any(|x| b.contains(x))
}
