//! Conflict-graph wave scheduler for speculative batch execution.
//!
//! Block-STM executes a batch of transactions optimistically in parallel
//! and re-executes from scratch on conflict. QR-ACN can do better on both
//! ends: the Static Module already exports per-template access sets
//! ([`ResolvedAccess`]), so most conflicts are *known before execution* and
//! turned into ordering edges instead of aborts; and when a conflict the
//! static sets missed does surface at run time, the closed-nesting executor
//! recovers with a partial rollback from the offending Block instead of a
//! full re-execution.
//!
//! This module is the static half: given one wave of transaction instances
//! (in arrival order) with their resolved access sets, build the conflict
//! DAG — an edge between two instances whenever they may conflict — and
//! expose it in dispatch-ready form (successor lists + indegrees) plus a
//! topological layering for reporting.
//!
//! **Edge orientation is a free choice.** Any acyclic orientation of the
//! conflict graph yields a sound schedule (the DTM validates every read
//! and commit regardless; edges only avoid wasted work), but orientations
//! differ wildly in critical-path length: orienting by arrival order makes
//! the expected longest path grow like `e·p·n` for conflict density `p`,
//! which serializes hot waves. Instead the planner greedily **colors** the
//! conflict graph (Welsh–Powell: highest degree first) and orients every
//! edge from the lower color to the higher, so the critical path is the
//! chromatic number of the wave — within each color class the whole layer
//! dispatches in parallel. Nothing in the wave has started when the plan
//! is built, so the planner is free to reorder; only *cross-wave* edges
//! (added by the dispatcher when waves overlap) are forced into arrival
//! orientation, because the earlier transaction may already be running.
//!
//! Conflict rule:
//! * both instances **exact** → object-level test: some object written by
//!   one is read or written by the other;
//! * either instance **inexact** (a data-dependent open the static analysis
//!   could not resolve) → pessimistic class-level test: some class written
//!   by one may be touched by the other.

use acn_txir::ResolvedAccess;

/// The scheduled form of one wave: a conflict DAG over `n` transactions in
/// arrival order, plus the statistics the driver reports per wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WavePlan {
    /// Number of transactions in the wave.
    pub n: usize,
    /// Successor lists: `succs[i]` are the transactions that must wait for
    /// `i` to finish. Edges are oriented by conflict-graph color, not by
    /// arrival order, so a successor index may be smaller than `i`.
    pub succs: Vec<Vec<usize>>,
    /// Conflict indegree per transaction; indegree 0 = dispatchable now.
    pub indegree: Vec<usize>,
    /// Topological layer per transaction (`layer[j] = 1 + max` over its
    /// predecessors' layers, sources at 0). Layer count approximates the
    /// wave's critical path; layer width its parallelism.
    pub layer: Vec<usize>,
    /// Total conflict edges.
    pub edges: u64,
    /// Edges added by the class-level fallback only — they would not exist
    /// under the object-level test. An inexact endpoint's object sets are a
    /// lower bound (the [`acn_txir::AccessSummary`] rows that evaluate from
    /// the parameters alone: static and counter-free `Var`-chain indices),
    /// and this statistic is their only reader.
    pub pessimistic_edges: u64,
    /// Transactions whose access sets were inexact (fallback candidates).
    pub inexact: u64,
    /// Transactions whose access sets are *predicted-exact*: exact modulo
    /// a non-empty [`ResolvedAccess::predicted`] counter-read list that the
    /// executor validates at run time.
    pub predicted: u64,
}

/// What to do with a pair the static sets cannot fully resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InexactPolicy {
    /// Pessimistic: fall back to the class-level test, ordering any pair
    /// that *may* conflict. Never mis-speculates; serializes templates
    /// whose data-dependent opens share a class.
    #[default]
    Order,
    /// Speculative: add no edge for an inexact pair — dispatch both and
    /// let the DTM's validation catch a real collision at run time, where
    /// the closed-nesting executor repairs it by partial rollback. Only
    /// sound because the substrate still validates every read and commit;
    /// the scheduler's edges are a performance device, not the safety net.
    Speculate,
}

/// May two instances conflict? Object-level when both access sets are
/// exact, class-level otherwise.
pub fn conflicts(a: &ResolvedAccess, b: &ResolvedAccess) -> bool {
    conflicts_with(a, b, InexactPolicy::Order)
}

/// [`conflicts`] under an explicit [`InexactPolicy`].
pub fn conflicts_with(a: &ResolvedAccess, b: &ResolvedAccess, policy: InexactPolicy) -> bool {
    if a.exact && b.exact {
        object_conflict(a, b)
    } else {
        match policy {
            InexactPolicy::Order => class_conflict(a, b),
            InexactPolicy::Speculate => false,
        }
    }
}

/// Object-level test on the (sorted) resolved sets.
fn object_conflict(a: &ResolvedAccess, b: &ResolvedAccess) -> bool {
    intersects(&a.writes, &b.reads)
        || intersects(&a.writes, &b.writes)
        || intersects(&b.writes, &a.reads)
}

/// Class-level fallback: a class one side may write, the other may touch.
fn class_conflict(a: &ResolvedAccess, b: &ResolvedAccess) -> bool {
    a.write_classes.iter().any(|c| b.read_classes.contains(c))
        || b.write_classes.iter().any(|c| a.read_classes.contains(c))
}

/// Two-pointer intersection test over sorted slices.
fn intersects<T: Ord>(a: &[T], b: &[T]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Build the conflict DAG for one wave under the default pessimistic
/// policy. `accesses` is in arrival order; the pairwise test is O(n²) in
/// the wave size, which stays trivial at the tens-of-transactions waves
/// the driver uses.
pub fn plan_wave(accesses: &[ResolvedAccess]) -> WavePlan {
    plan_wave_with(accesses, InexactPolicy::Order)
}

/// [`plan_wave`] under an explicit [`InexactPolicy`].
pub fn plan_wave_with(accesses: &[ResolvedAccess], policy: InexactPolicy) -> WavePlan {
    let n = accesses.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut edges = 0u64;
    let mut pessimistic_edges = 0u64;
    for j in 1..n {
        for i in 0..j {
            if !conflicts_with(&accesses[i], &accesses[j], policy) {
                continue;
            }
            adj[i].push(j);
            adj[j].push(i);
            edges += 1;
            let both_exact = accesses[i].exact && accesses[j].exact;
            if !both_exact && !object_conflict(&accesses[i], &accesses[j]) {
                pessimistic_edges += 1;
            }
        }
    }
    // Welsh–Powell greedy coloring: highest conflict degree first (arrival
    // index breaks ties, keeping the plan deterministic), each vertex
    // taking the smallest color absent from its colored neighbors.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(adj[v].len()), v));
    let mut color = vec![usize::MAX; n];
    for &v in &order {
        let mut used: Vec<usize> = adj[v]
            .iter()
            .filter(|&&u| color[u] != usize::MAX)
            .map(|&u| color[u])
            .collect();
        used.sort_unstable();
        used.dedup();
        let mut c = 0;
        for u in used {
            if u == c {
                c += 1;
            } else if u > c {
                break;
            }
        }
        color[v] = c;
    }
    // Orient every conflict edge from the lower color to the higher — a
    // proper coloring guarantees the endpoints differ, so the result is
    // acyclic and its critical path is bounded by the color count.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    for v in 0..n {
        for &u in &adj[v] {
            if color[v] < color[u] {
                succs[v].push(u);
                indegree[u] += 1;
            }
        }
    }
    // Exact longest-path layering: color order is a topological order, so
    // one relaxation pass settles every vertex.
    let mut layer = vec![0usize; n];
    let mut topo: Vec<usize> = (0..n).collect();
    topo.sort_by_key(|&v| (color[v], v));
    for &v in &topo {
        for &u in &succs[v] {
            layer[u] = layer[u].max(layer[v] + 1);
        }
    }
    WavePlan {
        n,
        succs,
        indegree,
        layer,
        edges,
        pessimistic_edges,
        inexact: accesses.iter().filter(|a| !a.exact).count() as u64,
        predicted: accesses
            .iter()
            .filter(|a| a.exact && !a.predicted.is_empty())
            .count() as u64,
    }
}

impl WavePlan {
    /// Number of topological layers (0 for an empty wave). This is the
    /// length of the wave's conflict critical path.
    pub fn layers(&self) -> usize {
        self.layer.iter().map(|&l| l + 1).max().unwrap_or(0)
    }

    /// Size of the widest layer — the wave's peak schedulable parallelism.
    pub fn width(&self) -> usize {
        let layers = self.layers();
        let mut count = vec![0usize; layers];
        for &l in &self.layer {
            count[l] += 1;
        }
        count.into_iter().max().unwrap_or(0)
    }

    /// The initially dispatchable transactions (conflict indegree 0), in
    /// arrival order.
    pub fn sources(&self) -> Vec<usize> {
        (0..self.n).filter(|&i| self.indegree[i] == 0).collect()
    }
}

/// Per-run aggregate over every scheduled wave, reported by the driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Waves scheduled.
    pub waves: u64,
    /// Transactions scheduled across all waves.
    pub txns: u64,
    /// Conflict edges across all waves.
    pub edges: u64,
    /// Class-level fallback edges across all waves.
    pub pessimistic_edges: u64,
    /// Inexact (fallback-candidate) transactions across all waves.
    pub inexact_txns: u64,
    /// Sum of per-wave layer counts (divide by `waves` for the mean
    /// conflict critical path).
    pub layers: u64,
    /// Widest layer seen in any wave.
    pub max_width: u64,
    /// Cross-wave conflict edges: edges from a still-unfinished earlier
    /// transaction to a newly admitted one, added by the dispatcher when
    /// waves overlap. Not part of any [`WavePlan`].
    pub cross_edges: u64,
    /// Predicted-exact transactions across all waves (exact access sets
    /// conditional on hot-counter predictions).
    pub predicted_txns: u64,
    /// Counter predictions that failed validation at run time and were
    /// repaired by the executor. Accumulated by the dispatcher from
    /// [`crate::PredictionOutcome`] feedback, not from any [`WavePlan`].
    pub mispredicts: u64,
}

impl WaveStats {
    /// Every aggregate under the key of its row in a run's exported
    /// description (the report's `meta` rows), in declaration order.
    pub const META: &'static [acn_obs::Getter<WaveStats>] = &[
        ("batch_waves", |b| b.waves),
        ("batch_txns", |b| b.txns),
        ("batch_edges", |b| b.edges),
        ("batch_pessimistic_edges", |b| b.pessimistic_edges),
        ("batch_inexact_txns", |b| b.inexact_txns),
        ("batch_layers", |b| b.layers),
        ("batch_max_width", |b| b.max_width),
        ("batch_cross_edges", |b| b.cross_edges),
        ("batch_predicted_txns", |b| b.predicted_txns),
        ("batch_mispredicts", |b| b.mispredicts),
    ];

    /// Fold one wave's plan into the running totals.
    pub fn absorb(&mut self, plan: &WavePlan) {
        self.waves += 1;
        self.txns += plan.n as u64;
        self.edges += plan.edges;
        self.pessimistic_edges += plan.pessimistic_edges;
        self.inexact_txns += plan.inexact;
        self.predicted_txns += plan.predicted;
        self.layers += plan.layers() as u64;
        self.max_width = self.max_width.max(plan.width() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_txir::{ObjClass, ObjectId};

    const A: ObjClass = ObjClass::new(0, "A");

    fn exact(reads: &[u64], writes: &[u64]) -> ResolvedAccess {
        let mut r: Vec<ObjectId> = reads.iter().map(|&i| ObjectId::new(A, i)).collect();
        let w: Vec<ObjectId> = writes.iter().map(|&i| ObjectId::new(A, i)).collect();
        r.extend(w.iter().copied());
        r.sort_unstable();
        r.dedup();
        ResolvedAccess {
            reads: r,
            writes: w,
            read_classes: vec![0],
            write_classes: if writes.is_empty() { vec![] } else { vec![0] },
            exact: true,
            predicted: Vec::new(),
        }
    }

    fn inexact_on(read_classes: &[u16], write_classes: &[u16]) -> ResolvedAccess {
        ResolvedAccess {
            reads: Vec::new(),
            writes: Vec::new(),
            read_classes: read_classes.to_vec(),
            write_classes: write_classes.to_vec(),
            exact: false,
            predicted: Vec::new(),
        }
    }

    #[test]
    fn disjoint_writers_are_parallel() {
        let plan = plan_wave(&[exact(&[], &[1]), exact(&[], &[2]), exact(&[], &[3])]);
        assert_eq!(plan.edges, 0);
        assert_eq!(plan.layers(), 1);
        assert_eq!(plan.width(), 3);
        assert_eq!(plan.sources(), vec![0, 1, 2]);
    }

    #[test]
    fn write_write_and_read_write_conflicts_are_ordered() {
        // 0 writes {1}; 1 reads {1}; 2 writes {9} (independent).
        let plan = plan_wave(&[exact(&[], &[1]), exact(&[1], &[]), exact(&[], &[9])]);
        assert_eq!(plan.edges, 1);
        assert_eq!(plan.succs[0], vec![1]);
        assert_eq!(plan.indegree, vec![0, 1, 0]);
        assert_eq!(plan.layer, vec![0, 1, 0]);
        assert_eq!(plan.layers(), 2);
        assert_eq!(plan.sources(), vec![0, 2]);
    }

    #[test]
    fn read_read_overlap_is_not_a_conflict() {
        let plan = plan_wave(&[exact(&[5], &[]), exact(&[5], &[])]);
        assert_eq!(plan.edges, 0);
    }

    #[test]
    fn chain_layers_accumulate() {
        // 0→1→2 via the same written object.
        let w = |i| exact(&[], &[i]);
        let plan = plan_wave(&[w(7), w(7), w(7)]);
        assert_eq!(plan.edges, 3, "transitive pairs conflict too");
        assert_eq!(plan.layer, vec![0, 1, 2]);
        assert_eq!(plan.layers(), 3);
        assert_eq!(plan.width(), 1);
    }

    #[test]
    fn coloring_shortens_arrival_chains() {
        // Path graph 0–1–2–3 via shared written objects. Arrival-order
        // orientation would chain it into 4 layers; coloring 2-colors the
        // path, so both odd (or even) vertices dispatch together.
        let plan = plan_wave(&[
            exact(&[], &[1]),
            exact(&[], &[1, 2]),
            exact(&[], &[2, 3]),
            exact(&[], &[3, 4]),
        ]);
        assert_eq!(plan.edges, 3);
        assert_eq!(plan.layers(), 2, "a path is 2-colorable");
        assert_eq!(plan.width(), 2);
        // Every conflicting pair still has exactly one directed edge.
        for (i, j) in [(0, 1), (1, 2), (2, 3)] {
            assert!(
                plan.succs[i].contains(&j) ^ plan.succs[j].contains(&i),
                "pair ({i},{j}) must be ordered exactly once"
            );
        }
    }

    #[test]
    fn inexact_txn_falls_back_to_class_edges() {
        // Writer on class 0 objects; inexact reader that may touch class 0.
        let a = exact(&[], &[1]);
        let b = inexact_on(&[0], &[]);
        assert!(conflicts(&a, &b));
        let plan = plan_wave(&[a, b]);
        assert_eq!(plan.edges, 1);
        assert_eq!(plan.pessimistic_edges, 1, "object sets alone were disjoint");
        assert_eq!(plan.inexact, 1);
    }

    #[test]
    fn inexact_pair_on_disjoint_classes_stays_parallel() {
        let a = inexact_on(&[0], &[0]);
        let b = inexact_on(&[1], &[1]);
        assert!(!conflicts(&a, &b));
        let plan = plan_wave(&[a, b]);
        assert_eq!(plan.edges, 0);
    }

    #[test]
    fn empty_wave_is_empty_plan() {
        let plan = plan_wave(&[]);
        assert_eq!(plan.n, 0);
        assert_eq!(plan.layers(), 0);
        assert_eq!(plan.width(), 0);
        assert!(plan.sources().is_empty());
    }

    #[test]
    fn wave_stats_aggregate() {
        let mut ws = WaveStats::default();
        ws.absorb(&plan_wave(&[exact(&[], &[1]), exact(&[1], &[])]));
        ws.absorb(&plan_wave(&[exact(&[], &[2]), exact(&[], &[3])]));
        assert_eq!(ws.waves, 2);
        assert_eq!(ws.txns, 4);
        assert_eq!(ws.edges, 1);
        assert_eq!(ws.layers, 2 + 1);
        assert_eq!(ws.max_width, 2);
    }
}
