//! Node and link failure injection: a table of per-node atomics that every
//! send reads without a lock and only fault injection writes. Nothing polls
//! it for changes; the network delivers each change to the node as a call.

use crate::node::NodeId;
use parking_lot::RwLock;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// One node's fault state.
#[derive(Default)]
struct NodeFaults {
    failed: AtomicBool,
    /// Crashes that lost the disk.
    amnesia: AtomicU64,
    /// Crashes that kept it.
    restart: AtomicU64,
}

/// Shared record of which nodes and directed links are currently failed.
///
/// A failed node neither receives new messages (they are dropped at the
/// sender, as on a real network where the host is unreachable) nor should it
/// keep servicing requests. Recovery makes the node reachable again. A node
/// goes down one of two ways:
///
/// * **crash-resume** ([`FaultTable::fail`]): a pause. The node comes back
///   with whatever (possibly stale) state it held; version numbers
///   reconcile reads, so the DTM layer needs no extra machinery.
/// * **crash** ([`FaultTable::crash`]): the process died and took its
///   memory with it — and, with `disk_lost`, its durable log too
///   (crash-with-amnesia; without, crash-restart). The table keeps one
///   crash record per node, a pair of epochs counting each flavour.
///
/// Nothing polls the table for a change. The network delivers each fault
/// change as a call: it updates the table, counts the change for the node
/// and calls the node's runner on the injector's thread, which reads
/// [`FaultTable::crash_epochs`] and, when either moved, recovers from
/// whatever survived before serving again — the layer above decides what
/// "recover" means.
///
/// Every send reads the table, so the node state is per-node atomics: a
/// failed flag and the two epochs, read without a lock. A crash stores
/// the flag before it advances an epoch, so a reader that sees the epoch
/// move also sees the node failed. Only fault injection writes.
///
/// Link faults are *directed*: failing `a → b` silently drops messages from
/// `a` to `b` while `b → a` keeps working, which models asymmetric routing
/// failures. [`FaultTable::partition`] fails both directions of every
/// cross-group link, which is how quorum-splitting network partitions are
/// injected. Both sides keep running — unlike a crash, nothing is drained —
/// so partitioned nodes can still time out, retry, and release state. The
/// failed links sit in a locked set beside an atomic count, which a healthy
/// network's sends read instead of the lock.
pub struct FaultTable {
    nodes: Vec<NodeFaults>,
    links: RwLock<HashSet<(NodeId, NodeId)>>,
    /// `links.len()`, kept under the `links` write lock.
    link_count: AtomicUsize,
}

impl FaultTable {
    /// A table for nodes `0..nodes`, all alive. A node out of that range
    /// reads as alive and never crashed.
    pub fn new(nodes: usize) -> Self {
        FaultTable {
            nodes: (0..nodes).map(|_| NodeFaults::default()).collect(),
            links: RwLock::new(HashSet::new()),
            link_count: AtomicUsize::new(0),
        }
    }

    fn node(&self, node: NodeId) -> &NodeFaults {
        &self.nodes[node.index()]
    }

    /// Mark `node` as failed. Returns `true` if it was previously alive.
    pub fn fail(&self, node: NodeId) -> bool {
        !self.node(node).failed.swap(true, Ordering::SeqCst)
    }

    /// Mark `node` as recovered. Returns `true` if it was previously failed.
    pub fn recover(&self, node: NodeId) -> bool {
        self.node(node).failed.swap(false, Ordering::SeqCst)
    }

    /// Is `node` currently failed?
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.nodes
            .get(node.index())
            .is_some_and(|n| n.failed.load(Ordering::SeqCst))
    }

    /// Number of currently failed nodes.
    pub fn failed_count(&self) -> usize {
        self.failed_nodes().count()
    }

    /// Snapshot of the failed set.
    pub fn failed_set(&self) -> HashSet<NodeId> {
        self.failed_nodes().collect()
    }

    fn failed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len())
            .map(NodeId::from)
            .filter(|&n| self.is_failed(n))
    }

    /// Crash `node`: fail it and advance the epoch of the crash's flavour
    /// in its crash record — amnesia if the disk went too, restart if the
    /// durable log survived. The first crash of a flavour is epoch 1.
    pub fn crash(&self, node: NodeId, disk_lost: bool) {
        self.fail(node);
        let n = self.node(node);
        let epoch = if disk_lost { &n.amnesia } else { &n.restart };
        epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// `node`'s crash record, `(amnesia epoch, restart epoch)`; 0 = never
    /// crashed that way.
    pub fn crash_epochs(&self, node: NodeId) -> (u64, u64) {
        self.nodes.get(node.index()).map_or((0, 0), |n| {
            (
                n.amnesia.load(Ordering::SeqCst),
                n.restart.load(Ordering::SeqCst),
            )
        })
    }

    /// Change the failed-link set under its lock and republish its size.
    fn edit_links<R>(&self, edit: impl FnOnce(&mut HashSet<(NodeId, NodeId)>) -> R) -> R {
        let mut links = self.links.write();
        let out = edit(&mut links);
        self.link_count.store(links.len(), Ordering::SeqCst);
        out
    }

    /// Fail the directed link `src → dst`. Returns `true` if it was
    /// previously healthy.
    pub fn fail_link(&self, src: NodeId, dst: NodeId) -> bool {
        self.edit_links(|links| links.insert((src, dst)))
    }

    /// Heal the directed link `src → dst`. Returns `true` if it was
    /// previously failed.
    pub fn heal_link(&self, src: NodeId, dst: NodeId) -> bool {
        self.edit_links(|links| links.remove(&(src, dst)))
    }

    /// Is the directed link `src → dst` currently failed?
    pub fn is_link_failed(&self, src: NodeId, dst: NodeId) -> bool {
        self.link_count.load(Ordering::SeqCst) != 0 && self.links.read().contains(&(src, dst))
    }

    /// Number of currently failed directed links.
    pub fn failed_link_count(&self) -> usize {
        self.link_count.load(Ordering::SeqCst)
    }

    /// Partition the listed groups from each other: both directions of
    /// every cross-group link fail. Nodes absent from every group are not
    /// touched and keep full connectivity to everyone.
    pub fn partition(&self, groups: &[Vec<NodeId>]) {
        self.edit_links(|links| {
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
        });
    }

    /// Heal every failed link (partitions included). Node faults are
    /// unaffected.
    pub fn heal_all_links(&self) {
        self.edit_links(|links| links.clear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_and_recover_round_trip() {
        let t = FaultTable::new(4);
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
        let t = FaultTable::new(4);
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
        let t = FaultTable::new(4);
        t.fail(NodeId(1));
        let snap = t.failed_set();
        t.fail(NodeId(2));
        assert!(snap.contains(&NodeId(1)));
        assert!(!snap.contains(&NodeId(2)));
    }

    #[test]
    fn link_faults_are_directed() {
        let t = FaultTable::new(4);
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
        let t = FaultTable::new(4);
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

    #[test]
    fn an_out_of_range_node_reads_alive_and_never_crashed() {
        let t = FaultTable::new(2);
        t.crash(NodeId(1), true);
        assert!(!t.is_failed(NodeId(2)));
        assert_eq!(t.crash_epochs(NodeId(2)), (0, 0));
        assert!(!t.is_failed(NodeId(u32::MAX)));
        assert_eq!(t.failed_set(), HashSet::from([NodeId(1)]));
    }

    #[test]
    fn link_checks_follow_the_count_fast_path() {
        let t = FaultTable::new(3);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        assert!(
            !t.is_link_failed(a, b),
            "no failed link: the lock is not taken"
        );
        t.fail_link(a, b);
        assert!(t.is_link_failed(a, b));
        assert!(!t.is_link_failed(b, a));
        t.heal_link(a, b);
        assert_eq!(t.failed_link_count(), 0);
        assert!(!t.is_link_failed(a, b), "the count fell back to 0");
        t.partition(&[vec![a], vec![b, c]]);
        assert_eq!(t.failed_link_count(), 4);
        assert!(t.is_link_failed(c, a) && t.is_link_failed(a, c));
        assert!(!t.is_link_failed(b, c));
        t.heal_all_links();
        assert_eq!(t.failed_link_count(), 0);
        assert!(!t.is_link_failed(c, a));
    }

    /// A crash stores the failed flag before it advances an epoch, so a
    /// reader that sees an epoch move sees the node failed, and epochs
    /// read without a lock never go backwards.
    #[test]
    fn a_concurrent_reader_never_sees_a_crash_epoch_without_the_failure() {
        const CRASHES: u64 = 20_000;
        let t = FaultTable::new(2);
        let node = NodeId(1);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..CRASHES {
                    t.crash(node, i % 2 == 0);
                }
                done.store(true, Ordering::SeqCst);
            });
            let mut last = (0, 0);
            loop {
                let finished = done.load(Ordering::SeqCst);
                let epochs = t.crash_epochs(node);
                let failed = t.is_failed(node);
                assert!(
                    epochs.0 >= last.0 && epochs.1 >= last.1,
                    "{epochs:?} after {last:?}"
                );
                assert!(epochs == (0, 0) || failed, "{epochs:?} on a live node");
                last = epochs;
                if finished {
                    break;
                }
            }
        });
        let (amnesia, restart) = t.crash_epochs(node);
        assert_eq!(amnesia + restart, CRASHES);
    }
}
