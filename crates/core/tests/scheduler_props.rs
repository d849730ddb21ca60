//! Property tests for the conflict-graph wave scheduler.
//!
//! The batch driver dispatches a transaction the moment its conflict
//! indegree drains to zero, so the safety of speculative batch execution
//! reduces to one graph property: **every conflicting pair is connected by
//! exactly one directed edge** (the planner orients by conflict-graph
//! color, so the direction need not follow arrival order). These tests pin
//! that down, plus the DAG invariants the dispatcher relies on, and drive
//! a randomized dispatch simulation asserting that two transactions with
//! intersecting write sets (or a write/read intersection) are never in
//! flight together.

use acn_core::{conflicts, plan_wave};
use acn_txir::{ObjClass, ObjectId, ResolvedAccess};
use proptest::prelude::*;

const CLASSES: [ObjClass; 3] = [
    ObjClass::new(0, "c0"),
    ObjClass::new(1, "c1"),
    ObjClass::new(2, "c2"),
];

/// Build one access set over a small object space (3 classes × 8 indices)
/// so waves actually collide. `exact = false` drops the object sets to the
/// class level, exercising the pessimistic fallback.
fn access(reads: Vec<(u8, u8)>, writes: Vec<(u8, u8)>, exact: bool) -> ResolvedAccess {
    let obj = |&(c, i): &(u8, u8)| ObjectId::new(CLASSES[(c % 3) as usize], (i % 8) as u64);
    let mut w: Vec<ObjectId> = writes.iter().map(obj).collect();
    w.sort_unstable();
    w.dedup();
    let mut r: Vec<ObjectId> = reads.iter().map(obj).collect();
    r.extend(w.iter().copied());
    r.sort_unstable();
    r.dedup();
    let mut rc: Vec<u16> = r.iter().map(|o| o.class.id).collect();
    rc.sort_unstable();
    rc.dedup();
    let mut wc: Vec<u16> = w.iter().map(|o| o.class.id).collect();
    wc.sort_unstable();
    wc.dedup();
    ResolvedAccess {
        reads: if exact { r } else { Vec::new() },
        writes: if exact { w } else { Vec::new() },
        read_classes: rc,
        write_classes: wc,
        exact,
        predicted: Vec::new(),
    }
}

fn wave_strategy() -> impl Strategy<Value = Vec<ResolvedAccess>> {
    let one = (
        prop::collection::vec((0u8..3, 0u8..8), 0..4),
        prop::collection::vec((0u8..3, 0u8..8), 0..4),
        0u32..100,
    )
        .prop_map(|(r, w, x)| access(r, w, x < 85));
    prop::collection::vec(one, 0..24)
}

/// The ground-truth conflict test, written independently of the scheduler:
/// intersecting write sets or a write/read intersection. For an inexact
/// participant the only sound object information is its class sets, so the
/// test degrades the same way the scheduler must.
fn must_not_coschedule(a: &ResolvedAccess, b: &ResolvedAccess) -> bool {
    if a.exact && b.exact {
        let hit = |xs: &[ObjectId], ys: &[ObjectId]| xs.iter().any(|x| ys.contains(x));
        hit(&a.writes, &b.writes) || hit(&a.writes, &b.reads) || hit(&b.writes, &a.reads)
    } else {
        let touch = |w: &[u16], r: &[u16]| w.iter().any(|c| r.contains(c));
        touch(&a.write_classes, &b.read_classes) || touch(&b.write_classes, &a.read_classes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Edge completeness: the plan has exactly one directed edge for each
    /// conflicting pair (in either direction) and none for the rest.
    #[test]
    fn edges_cover_exactly_the_conflicting_pairs(wave in wave_strategy()) {
        let plan = plan_wave(&wave);
        prop_assert_eq!(plan.n, wave.len());
        for j in 0..wave.len() {
            for i in 0..j {
                let fwd = plan.succs[i].contains(&j);
                let bwd = plan.succs[j].contains(&i);
                prop_assert_eq!(
                    fwd || bwd,
                    must_not_coschedule(&wave[i], &wave[j]),
                    "pair ({}, {}) mis-classified", i, j
                );
                prop_assert!(!(fwd && bwd), "double edge between {} and {}", i, j);
            }
        }
    }

    /// DAG bookkeeping the dispatcher trusts: indegrees count incoming
    /// edges, sources have indegree zero, layers strictly increase along
    /// every edge (which also proves acyclicity), and the scheduler's own
    /// conflict test matches the ground truth.
    #[test]
    fn plan_invariants_hold(wave in wave_strategy()) {
        let plan = plan_wave(&wave);
        let mut indeg = vec![0usize; plan.n];
        for (i, ss) in plan.succs.iter().enumerate() {
            for &j in ss {
                indeg[j] += 1;
                prop_assert!(
                    plan.layer[j] > plan.layer[i],
                    "layer must increase along {}→{}", i, j
                );
            }
        }
        prop_assert_eq!(&indeg, &plan.indegree);
        for &s in &plan.sources() {
            prop_assert_eq!(plan.indegree[s], 0);
        }
        for j in 0..wave.len() {
            for i in 0..j {
                prop_assert_eq!(
                    conflicts(&wave[i], &wave[j]),
                    must_not_coschedule(&wave[i], &wave[j])
                );
            }
        }
    }

    /// Dispatch simulation: start any transaction whose conflict indegree
    /// has drained, complete in-flight ones in generator-chosen order, and
    /// assert that no two transactions with intersecting write sets (or a
    /// write/read intersection) are ever in flight together.
    #[test]
    fn dispatch_never_coschedules_conflicts(
        wave in wave_strategy(),
        choices in prop::collection::vec(any::<u32>(), 0..96),
    ) {
        let plan = plan_wave(&wave);
        let mut indeg = plan.indegree.clone();
        let mut started = vec![false; plan.n];
        let mut running: Vec<usize> = Vec::new();
        let mut done = 0usize;
        let mut pick = choices.into_iter().cycle();
        while done < plan.n {
            let ready: Vec<usize> =
                (0..plan.n).filter(|&i| !started[i] && indeg[i] == 0).collect();
            let c = pick.next().unwrap_or(0) as usize;
            // Alternate pseudo-randomly between starting ready work and
            // retiring running work; always make progress.
            if !ready.is_empty() && (running.is_empty() || c.is_multiple_of(2)) {
                let i = ready[c % ready.len()];
                for &r in &running {
                    prop_assert!(
                        !must_not_coschedule(&wave[r], &wave[i]),
                        "co-scheduled conflicting {} and {}", r, i
                    );
                }
                started[i] = true;
                running.push(i);
            } else {
                let pos = c % running.len();
                let i = running.swap_remove(pos);
                for &j in &plan.succs[i] {
                    indeg[j] -= 1;
                }
                done += 1;
            }
        }
        prop_assert!(running.is_empty());
    }
}
