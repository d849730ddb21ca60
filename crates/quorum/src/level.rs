//! Level-majority quorums — the variant QR-DTM deploys.
//!
//! A **read quorum** is a majority of the live nodes at *one* level of the
//! tree; a **write quorum** is a majority at *every* level. Because a write
//! quorum holds a majority at the read quorum's level, the two always
//! intersect, and any two write quorums intersect at every level.

use crate::tree::{majority, DaryTree};

/// Which level a client's designated read quorum is drawn from.
///
/// The paper says each node "is designated a read quorum and a write
/// quorum"; the policy plus the client seed make that designation
/// deterministic per client while spreading load across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadLevelPolicy {
    /// Always quorum over the deepest level (most members ⇒ most load
    /// spreading; matches a leaf-majority read).
    #[default]
    Deepest,
}

/// Quorum construction over a [`DaryTree`] using level majorities.
#[derive(Debug, Clone)]
pub struct LevelQuorums {
    tree: DaryTree,
    levels: Vec<Vec<usize>>,
}

impl LevelQuorums {
    /// Build with the default read-level policy.
    pub fn new(tree: DaryTree) -> Self {
        Self::with_policy(tree, ReadLevelPolicy::default())
    }

    /// Build with an explicit read-level policy. The parameter pattern is
    /// the whole dispatch: a second policy stops compiling here.
    pub fn with_policy(tree: DaryTree, ReadLevelPolicy::Deepest: ReadLevelPolicy) -> Self {
        let levels = tree.levels();
        LevelQuorums { tree, levels }
    }

    /// The underlying logical tree.
    pub fn tree(&self) -> &DaryTree {
        &self.tree
    }

    /// Select `need` live members from `group`, starting at a seed-dependent
    /// rotation so different clients hit different replicas.
    fn pick_rotated(
        group: &[usize],
        need: usize,
        seed: u64,
        alive: &dyn Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        let k = group.len();
        let start = (seed as usize) % k;
        let mut out = Vec::with_capacity(need);
        for i in 0..k {
            let rank = group[(start + i) % k];
            if alive(rank) {
                out.push(rank);
                if out.len() == need {
                    out.sort_unstable();
                    return Some(out);
                }
            }
        }
        None
    }

    /// The read quorum designated for a client with `seed`: a majority of
    /// the deepest level's members, skipping failed nodes. Falls back to
    /// shallower levels (deepest first) if that level cannot muster a
    /// majority of *its total* size — majorities are always computed over
    /// the level's full membership, never the live subset, or intersection
    /// with concurrent writers that still see those nodes would break.
    ///
    /// Returns `None` when no level has a live majority.
    pub fn read_quorum(&self, seed: u64, alive: &dyn Fn(usize) -> bool) -> Option<Vec<usize>> {
        self.levels
            .iter()
            .rev()
            .find_map(|group| Self::pick_rotated(group, majority(group.len()), seed, alive))
    }

    /// The write quorum for a client with `seed`: a majority of every
    /// level's full membership, all members live. Returns `None` when any
    /// level cannot muster a live majority (writes are then unavailable —
    /// the availability/consistency trade-off of tree quorums).
    pub fn write_quorum(&self, seed: u64, alive: &dyn Fn(usize) -> bool) -> Option<Vec<usize>> {
        let mut out = Vec::new();
        for group in &self.levels {
            let need = majority(group.len());
            let q = Self::pick_rotated(group, need, seed, alive)?;
            out.extend(q);
        }
        out.sort_unstable();
        Some(out)
    }

    /// Size of the write quorum when all nodes are alive.
    pub fn write_quorum_size(&self) -> usize {
        self.levels.iter().map(|g| majority(g.len())).sum()
    }

    /// Size of the read quorum when all nodes are alive.
    pub fn read_quorum_size(&self) -> usize {
        let deepest = self.levels.last().expect("a tree has at least one level");
        majority(deepest.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersects;

    fn all_alive(_: usize) -> bool {
        true
    }

    #[test]
    fn paper_testbed_sizes() {
        // 10 servers, ternary: levels of size 1/3/6 ⇒ write = 1+2+4 = 7,
        // deepest-level read = 4.
        let q = LevelQuorums::new(DaryTree::ternary(10));
        assert_eq!(q.write_quorum_size(), 7);
        assert_eq!(q.read_quorum_size(), 4);
        assert_eq!(q.write_quorum(0, &all_alive).unwrap().len(), 7);
        assert_eq!(q.read_quorum(0, &all_alive).unwrap().len(), 4);
    }

    #[test]
    fn read_and_write_intersect_all_seeds() {
        let q = LevelQuorums::new(DaryTree::ternary(13));
        for rs in 0..20u64 {
            for ws in 0..20u64 {
                let r = q.read_quorum(rs, &all_alive).unwrap();
                let w = q.write_quorum(ws, &all_alive).unwrap();
                assert!(intersects(&r, &w), "rs={rs} ws={ws} r={r:?} w={w:?}");
            }
        }
    }

    #[test]
    fn two_writes_intersect_all_seeds() {
        let q = LevelQuorums::new(DaryTree::ternary(10));
        for a in 0..15u64 {
            for b in 0..15u64 {
                let wa = q.write_quorum(a, &all_alive).unwrap();
                let wb = q.write_quorum(b, &all_alive).unwrap();
                assert!(intersects(&wa, &wb));
            }
        }
    }

    #[test]
    fn rotation_spreads_read_load() {
        let q = LevelQuorums::new(DaryTree::ternary(10));
        let mut seen = std::collections::HashSet::new();
        for seed in 0..6u64 {
            for r in q.read_quorum(seed, &all_alive).unwrap() {
                seen.insert(r);
            }
        }
        // All six leaves should appear across rotations.
        assert_eq!(seen, (4..10).collect());
    }

    #[test]
    fn read_survives_leaf_failures() {
        let q = LevelQuorums::new(DaryTree::ternary(10));
        // Fail 2 of the 6 leaves: majority of 6 is 4, still available.
        let alive = |r: usize| r != 4 && r != 9;
        let rq = q.read_quorum(0, &alive).unwrap();
        assert_eq!(rq.len(), 4);
        assert!(rq.iter().all(|&r| alive(r)));
    }

    #[test]
    fn read_falls_back_to_another_level() {
        let q = LevelQuorums::new(DaryTree::ternary(10));
        // Fail 3 of 6 leaves: leaf level can't make 4, but level 1 can.
        let alive = |r: usize| !(4..7).contains(&r);
        let rq = q.read_quorum(0, &alive).unwrap();
        assert!(rq.iter().all(|&r| alive(r)));
        // And it must still intersect every write quorum that could have
        // committed *before* the failures.
        let w = q.write_quorum(0, &all_alive).unwrap();
        assert!(intersects(&rq, &w));
        // No level with a live majority ⇒ no read quorum. Live set {1,4,5}
        // leaves every level (sizes 1/3/6) short of its full majority.
        let sparse = |r: usize| matches!(r, 1 | 4 | 5);
        assert!(q.read_quorum(0, &sparse).is_none());
    }

    #[test]
    fn root_failure_blocks_writes_but_not_reads() {
        let q = LevelQuorums::new(DaryTree::ternary(10));
        let alive = |r: usize| r != 0;
        assert!(q.write_quorum(0, &alive).is_none());
        assert!(q.read_quorum(0, &alive).is_some());
    }

    #[test]
    fn write_unavailable_when_level_majority_dead() {
        let q = LevelQuorums::new(DaryTree::ternary(10));
        // Kill 2 of the 3 mid-level nodes ⇒ no majority of 3.
        let alive = |r: usize| r != 1 && r != 2;
        assert!(q.write_quorum(0, &alive).is_none());
    }

    #[test]
    fn single_node_tree_quorums_are_the_node() {
        let q = LevelQuorums::new(DaryTree::ternary(1));
        assert_eq!(q.read_quorum(7, &all_alive).unwrap(), vec![0]);
        assert_eq!(q.write_quorum(7, &all_alive).unwrap(), vec![0]);
    }

    #[test]
    fn quorums_are_sorted_and_unique() {
        let q = LevelQuorums::new(DaryTree::ternary(22));
        for seed in 0..10u64 {
            let w = q.write_quorum(seed, &all_alive).unwrap();
            let mut sorted = w.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(w, sorted);
        }
    }
}
