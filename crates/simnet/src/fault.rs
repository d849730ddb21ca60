//! Node and link failure injection.

use crate::node::NodeId;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};

/// Shared record of which nodes and directed links are currently failed.
///
/// A failed node neither receives new messages (they are dropped at the
/// sender, as on a real network where the host is unreachable) nor should it
/// keep servicing requests — server loops consult [`FaultTable::is_failed`]
/// between messages. Recovery makes the node reachable again. A node goes
/// down one of two ways:
///
/// * **crash-resume** ([`FaultTable::fail`]): a pause. The node comes back
///   with whatever (possibly stale) state it held; version numbers
///   reconcile reads, so the DTM layer needs no extra machinery.
/// * **crash** ([`FaultTable::crash`]): the process died and took its
///   memory with it — and, with `disk_lost`, its durable log too
///   (crash-with-amnesia; without, crash-restart). The table keeps one
///   crash record per node, a pair of epochs counting each flavour; the
///   node's own service loop polls [`FaultTable::crash_epochs`] and, when
///   either moved, recovers from whatever survived before serving again —
///   the layer above decides what "recover" means.
///
/// Link faults are *directed*: failing `a → b` silently drops messages from
/// `a` to `b` while `b → a` keeps working, which models asymmetric routing
/// failures. [`FaultTable::partition`] fails both directions of every
/// cross-group link, which is how quorum-splitting network partitions are
/// injected. Both sides keep running — unlike a crash, nothing is drained —
/// so partitioned nodes can still time out, retry, and release state.
#[derive(Default)]
pub struct FaultTable {
    failed: RwLock<HashSet<NodeId>>,
    links: RwLock<HashSet<(NodeId, NodeId)>>,
    /// Per node, `(crashes that lost the disk, crashes that kept it)`.
    crashes: RwLock<HashMap<NodeId, (u64, u64)>>,
}

impl FaultTable {
    /// An empty table (all nodes alive).
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark `node` as failed. Returns `true` if it was previously alive.
    pub fn fail(&self, node: NodeId) -> bool {
        self.failed.write().insert(node)
    }

    /// Mark `node` as recovered. Returns `true` if it was previously failed.
    pub fn recover(&self, node: NodeId) -> bool {
        self.failed.write().remove(&node)
    }

    /// Is `node` currently failed?
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed.read().contains(&node)
    }

    /// Number of currently failed nodes.
    pub fn failed_count(&self) -> usize {
        self.failed.read().len()
    }

    /// Snapshot of the failed set, for quorum construction.
    pub fn failed_set(&self) -> HashSet<NodeId> {
        self.failed.read().clone()
    }

    /// Crash `node`: fail it and advance the epoch of the crash's flavour
    /// in its crash record — amnesia if the disk went too, restart if the
    /// durable log survived. The first crash of a flavour is epoch 1.
    pub fn crash(&self, node: NodeId, disk_lost: bool) {
        self.fail(node);
        let mut crashes = self.crashes.write();
        let (amnesia, restart) = crashes.entry(node).or_default();
        *(if disk_lost { amnesia } else { restart }) += 1;
    }

    /// `node`'s crash record, `(amnesia epoch, restart epoch)`; 0 = never
    /// crashed that way.
    pub fn crash_epochs(&self, node: NodeId) -> (u64, u64) {
        self.crashes.read().get(&node).copied().unwrap_or_default()
    }

    /// Fail the directed link `src → dst`. Returns `true` if it was
    /// previously healthy.
    pub fn fail_link(&self, src: NodeId, dst: NodeId) -> bool {
        self.links.write().insert((src, dst))
    }

    /// Heal the directed link `src → dst`. Returns `true` if it was
    /// previously failed.
    pub fn heal_link(&self, src: NodeId, dst: NodeId) -> bool {
        self.links.write().remove(&(src, dst))
    }

    /// Is the directed link `src → dst` currently failed?
    pub fn is_link_failed(&self, src: NodeId, dst: NodeId) -> bool {
        let links = self.links.read();
        !links.is_empty() && links.contains(&(src, dst))
    }

    /// Number of currently failed directed links.
    pub fn failed_link_count(&self) -> usize {
        self.links.read().len()
    }

    /// Partition the listed groups from each other: both directions of
    /// every cross-group link fail. Nodes absent from every group are not
    /// touched and keep full connectivity to everyone.
    pub fn partition(&self, groups: &[Vec<NodeId>]) {
        let mut links = self.links.write();
        for (i, ga) in groups.iter().enumerate() {
            for gb in groups.iter().skip(i + 1) {
                for &a in ga {
                    for &b in gb {
                        links.insert((a, b));
                        links.insert((b, a));
                    }
                }
            }
        }
    }

    /// Heal every failed link (partitions included). Node faults are
    /// unaffected.
    pub fn heal_all_links(&self) {
        self.links.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_and_recover_round_trip() {
        let t = FaultTable::new();
        assert!(!t.is_failed(NodeId(3)));
        assert!(t.fail(NodeId(3)));
        assert!(t.is_failed(NodeId(3)));
        assert!(!t.fail(NodeId(3)), "double-fail reports already failed");
        assert_eq!(t.failed_count(), 1);
        assert!(t.recover(NodeId(3)));
        assert!(!t.is_failed(NodeId(3)));
        assert!(!t.recover(NodeId(3)), "double-recover reports not failed");
    }

    #[test]
    fn crash_epochs_count_up_per_node_and_flavour() {
        let t = FaultTable::new();
        assert_eq!(t.crash_epochs(NodeId(2)), (0, 0), "never crashed");
        t.crash(NodeId(2), true);
        t.crash(NodeId(2), true);
        assert_eq!(t.crash_epochs(NodeId(2)), (2, 0));
        assert_eq!(t.crash_epochs(NodeId(3)), (0, 0), "records are per-node");
        t.crash(NodeId(2), false);
        assert_eq!(
            t.crash_epochs(NodeId(2)),
            (2, 1),
            "a restart leaves the amnesia epoch be"
        );
        assert!(
            t.is_failed(NodeId(2)),
            "a crash of either flavour fails the node"
        );
        assert!(!t.is_failed(NodeId(3)));
    }

    #[test]
    fn snapshot_is_independent() {
        let t = FaultTable::new();
        t.fail(NodeId(1));
        let snap = t.failed_set();
        t.fail(NodeId(2));
        assert!(snap.contains(&NodeId(1)));
        assert!(!snap.contains(&NodeId(2)));
    }

    #[test]
    fn link_faults_are_directed() {
        let t = FaultTable::new();
        assert!(t.fail_link(NodeId(0), NodeId(1)));
        assert!(t.is_link_failed(NodeId(0), NodeId(1)));
        assert!(
            !t.is_link_failed(NodeId(1), NodeId(0)),
            "reverse direction stays up"
        );
        assert!(!t.is_failed(NodeId(0)), "link faults are not node faults");
        assert!(t.heal_link(NodeId(0), NodeId(1)));
        assert!(!t.is_link_failed(NodeId(0), NodeId(1)));
        assert!(
            !t.heal_link(NodeId(0), NodeId(1)),
            "double-heal reports not failed"
        );
    }

    #[test]
    fn partition_fails_cross_group_links_both_ways() {
        let t = FaultTable::new();
        t.partition(&[vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]);
        for &a in &[NodeId(0), NodeId(1)] {
            assert!(t.is_link_failed(a, NodeId(2)));
            assert!(t.is_link_failed(NodeId(2), a));
        }
        assert!(
            !t.is_link_failed(NodeId(0), NodeId(1)),
            "intra-group links stay up"
        );
        // Node 3 is in no group: untouched.
        assert!(!t.is_link_failed(NodeId(3), NodeId(2)));
        assert_eq!(t.failed_link_count(), 4);
        t.heal_all_links();
        assert_eq!(t.failed_link_count(), 0);
        assert!(!t.is_link_failed(NodeId(0), NodeId(2)));
    }
}
