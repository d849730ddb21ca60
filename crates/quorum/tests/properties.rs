//! Property tests for the quorum intersection invariants.
//!
//! These are the safety properties 1-copy serializability rests on:
//! * every read quorum intersects every write quorum, and
//! * any two write quorums intersect,
//!
//! over arbitrary tree sizes, arities, seeds and failure sets.

use acn_quorum::{intersects, DaryTree, LevelQuorums};
use proptest::prelude::*;
use std::collections::HashSet;

fn failure_set(n: usize) -> impl Strategy<Value = HashSet<usize>> {
    prop::collection::hash_set(0..n, 0..=n.min(5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Level-majority: R ∩ W ≠ ∅ for all seeds, sizes and failure sets
    /// (whenever both quorums are available).
    #[test]
    fn level_read_write_intersect(
        n in 1usize..60,
        arity in 2usize..5,
        rseed in any::<u64>(),
        wseed in any::<u64>(),
        failed in failure_set(60),
    ) {
        let q = LevelQuorums::new(DaryTree::new(n, arity));
        let alive = |r: usize| !failed.contains(&r);
        if let (Some(r), Some(w)) = (q.read_quorum(rseed, &alive), q.write_quorum(wseed, &alive)) {
            prop_assert!(intersects(&r, &w), "r={r:?} w={w:?}");
        }
    }

    /// Level-majority: any two write quorums intersect even when taken
    /// under *different* failure views (the invariant that serialises
    /// committed writes across time).
    #[test]
    fn level_two_writes_intersect(
        n in 1usize..60,
        arity in 2usize..5,
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        f1 in failure_set(60),
        f2 in failure_set(60),
    ) {
        let q = LevelQuorums::new(DaryTree::new(n, arity));
        let a1 = |r: usize| !f1.contains(&r);
        let a2 = |r: usize| !f2.contains(&r);
        if let (Some(w1), Some(w2)) = (q.write_quorum(s1, &a1), q.write_quorum(s2, &a2)) {
            prop_assert!(intersects(&w1, &w2), "w1={w1:?} w2={w2:?}");
        }
    }

    /// Level-majority read/write intersection across different failure
    /// views: a read after new failures still meets any previously
    /// committed write.
    #[test]
    fn level_read_meets_older_write(
        n in 1usize..60,
        arity in 2usize..5,
        rseed in any::<u64>(),
        wseed in any::<u64>(),
        later_failures in failure_set(60),
    ) {
        let q = LevelQuorums::new(DaryTree::new(n, arity));
        let all = |_: usize| true;
        let later = |r: usize| !later_failures.contains(&r);
        if let (Some(w), Some(r)) = (q.write_quorum(wseed, &all), q.read_quorum(rseed, &later)) {
            prop_assert!(intersects(&r, &w), "r={r:?} w={w:?}");
        }
    }

    /// Quorum members are always alive and within range.
    #[test]
    fn level_members_valid(
        n in 1usize..60,
        arity in 2usize..5,
        seed in any::<u64>(),
        failed in failure_set(60),
    ) {
        let q = LevelQuorums::new(DaryTree::new(n, arity));
        let alive = |r: usize| !failed.contains(&r);
        if let Some(r) = q.read_quorum(seed, &alive) {
            prop_assert!(r.iter().all(|&x| x < n && alive(x)));
        }
        if let Some(w) = q.write_quorum(seed, &alive) {
            prop_assert!(w.iter().all(|&x| x < n && alive(x)));
        }
    }
}

/// Seed rotation spreads read load across replicas: over many client
/// seeds, no single leaf serves wildly more read quorums than another —
/// the "designated quorum per node" mechanism must not re-create a hot
/// replica while eliminating hot objects.
#[test]
fn read_rotation_balances_leaf_load() {
    let q = LevelQuorums::new(DaryTree::ternary(13)); // leaves 4..13
    let mut hits = std::collections::HashMap::new();
    for seed in 0..900u64 {
        for r in q.read_quorum(seed, &|_| true).unwrap() {
            *hits.entry(r).or_insert(0u64) += 1;
        }
    }
    let counts: Vec<u64> = (4..13)
        .map(|r| hits.get(&r).copied().unwrap_or(0))
        .collect();
    let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
    assert!(min > 0, "every leaf serves some quorums: {counts:?}");
    assert!(
        max <= min * 2,
        "load skew exceeds 2× across leaves: {counts:?}"
    );
}
