//! The dependency model handed to the run-time Algorithm Module.
//!
//! Produced once per transaction template by the Static Module, it packages
//! the UnitGraph, the UnitBlocks with their default statement assignment,
//! and — for every local statement — the set of UnitBlocks that may host it
//! (Step 1 of the algorithm re-attaches each local operation to the most
//! contended *eligible* host). Graph utilities for lifting statement edges
//! to block edges and for dependency-preserving sorts live here too.

use crate::access::AccessSummary;
use crate::analysis::{extract_unit_blocks, UnitBlock, UnitBlockId};
use crate::ir::{Program, StmtIdx};
use crate::unitgraph::UnitGraph;
use crate::validate::{validate, ValidateError};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A statement→UnitBlock assignment (one entry per top-level statement).
pub type StmtAssignment = Vec<UnitBlockId>;

/// Everything the Algorithm Module needs to recompose a transaction.
#[derive(Debug, Clone)]
pub struct DependencyModel {
    /// The analyzed template.
    pub program: Program,
    /// Statement-level dependency graph.
    pub graph: UnitGraph,
    /// UnitBlocks in program (anchor) order.
    pub units: Vec<UnitBlock>,
    /// The static default assignment from [`extract_unit_blocks`].
    pub default_assignment: StmtAssignment,
    /// For every statement, the UnitBlocks allowed to host it. Anchors and
    /// floaters are pinned to their default block; a local operation is
    /// eligible for any block whose open feeds it.
    pub eligible_hosts: Vec<Vec<UnitBlockId>>,
    /// The one table of the template's opens, computed once here: the batch
    /// scheduler resolves an instance's access sets from it, and every Block
    /// sequence built from this model carries it to the executor, which
    /// reads its fetch list off the same rows.
    pub access: Arc<AccessSummary>,
}

impl DependencyModel {
    /// Run the full static pipeline: validate, build the UnitGraph, extract
    /// UnitBlocks and eligibility sets.
    pub fn analyze(program: Program) -> Result<Self, ValidateError> {
        validate(&program)?;
        let graph = UnitGraph::build(&program);
        let (units, default_assignment) = extract_unit_blocks(&program, &graph);
        let block_of_anchor: HashMap<StmtIdx, UnitBlockId> =
            units.iter().map(|u| (u.anchor, u.id)).collect();
        let src_opens = graph.source_opens(&program);

        let eligible_hosts: Vec<Vec<UnitBlockId>> = (0..program.stmts.len())
            .map(|i| {
                let info = &graph.stmts[i];
                if info.is_open() {
                    return vec![default_assignment[i]];
                }
                let mut managed: BTreeSet<StmtIdx> = BTreeSet::new();
                for u in &info.uses {
                    if let Some(os) = src_opens.get(u) {
                        managed.extend(os.iter().copied());
                    }
                }
                if managed.is_empty() {
                    vec![default_assignment[i]]
                } else {
                    let mut hosts: Vec<UnitBlockId> = managed
                        .into_iter()
                        .filter_map(|a| block_of_anchor.get(&a).copied())
                        .collect();
                    // The default host can sit past every managed open when
                    // a dependency forced a bump (see extract_unit_blocks);
                    // it is always a legal host, so keep it eligible.
                    if !hosts.contains(&default_assignment[i]) {
                        hosts.push(default_assignment[i]);
                        hosts.sort_unstable();
                    }
                    hosts
                }
            })
            .collect();

        let access = Arc::new(AccessSummary::of(&program));
        Ok(DependencyModel {
            program,
            graph,
            units,
            default_assignment,
            eligible_hosts,
            access,
        })
    }

    /// Number of UnitBlocks in the template.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Block-level edges under the default assignment.
    pub fn default_unit_edges(&self) -> BTreeSet<(UnitBlockId, UnitBlockId)> {
        lift_edges(&self.graph, &self.default_assignment)
    }

    /// Annotated listing of the template: one line per statement with the
    /// UnitBlock hosting it and its eligible hosts — the quickest way to
    /// see what the static analysis decided.
    ///
    /// ```text
    /// program bank/transfer (4 units)
    ///   u0* [0]     Open { var: v0, class: Branch, … }
    ///   u0  [0]     GetField { … }
    /// ```
    /// (`*` marks the block's anchor; `[…]` lists eligible hosts.)
    pub fn pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "program {} ({} units)",
            self.program.name,
            self.unit_count()
        );
        let anchors: std::collections::HashSet<StmtIdx> =
            self.units.iter().map(|u| u.anchor).collect();
        for (i, stmt) in self.program.stmts.iter().enumerate() {
            let unit = self.default_assignment[i];
            let mark = if anchors.contains(&i) { '*' } else { ' ' };
            let hosts: Vec<String> = self.eligible_hosts[i]
                .iter()
                .map(|h| h.to_string())
                .collect();
            let _ = writeln!(out, "  u{unit}{mark} [{}]	{stmt:?}", hosts.join(","));
        }
        out
    }
}

/// Lift statement-level dependency edges to UnitBlock-level edges under a
/// given assignment. Self-edges are dropped: ordering *within* a block is
/// the executor's job (it runs the block's statements in program order).
pub fn lift_edges(
    graph: &UnitGraph,
    assignment: &StmtAssignment,
) -> BTreeSet<(UnitBlockId, UnitBlockId)> {
    let mut out = BTreeSet::new();
    for &(a, b) in &graph.edges {
        let (ua, ub) = (assignment[a], assignment[b]);
        if ua != ub {
            out.insert((ua, ub));
        }
    }
    out
}

/// Is the block-level graph acyclic? Used by Step 1 to reject a host
/// re-attachment that would deadlock the ordering.
pub fn is_acyclic(n_units: usize, edges: &BTreeSet<(UnitBlockId, UnitBlockId)>) -> bool {
    topo_order_preserving(n_units, edges, |u| u as f64).is_some()
}

/// Dependency-preserving sort: emit blocks so that every edge `(u, v)` has
/// `u` before `v`, choosing among currently-available blocks the one with
/// the smallest `key` (ties broken by block id for determinism).
///
/// With `key = contention level` this is exactly Step 3: "starting from the
/// lowest contention level, each Block is shifted such that all the Blocks
/// executing before it have lower contention levels, while preserving the
/// data dependency" — hot blocks end up as close to the commit phase as the
/// dependencies allow. Returns `None` if the edges contain a cycle.
pub fn topo_order_preserving(
    n_units: usize,
    edges: &BTreeSet<(UnitBlockId, UnitBlockId)>,
    key: impl Fn(UnitBlockId) -> f64,
) -> Option<Vec<UnitBlockId>> {
    let mut indegree = vec![0usize; n_units];
    let mut succs: Vec<Vec<UnitBlockId>> = vec![Vec::new(); n_units];
    for &(a, b) in edges {
        debug_assert!(a < n_units && b < n_units);
        indegree[b] += 1;
        succs[a].push(b);
    }
    let mut avail: Vec<UnitBlockId> = (0..n_units).filter(|&u| indegree[u] == 0).collect();
    let mut out = Vec::with_capacity(n_units);
    while !avail.is_empty() {
        // Pick the available block with the smallest key.
        let (pos, _) = avail
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| {
                key(a)
                    .partial_cmp(&key(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            })
            .expect("non-empty");
        let u = avail.swap_remove(pos);
        out.push(u);
        for &v in &succs[u] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                avail.push(v);
            }
        }
    }
    if out.len() == n_units {
        Some(out)
    } else {
        None // cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::object::{FieldId, ObjClass, ObjectId};

    const A: ObjClass = ObjClass::new(0, "A");
    const B: ObjClass = ObjClass::new(1, "B");
    const F: FieldId = FieldId(0);

    /// T = {Read(OA), Read(OB), var = OA + OB}: static analysis yields two
    /// blocks with BL1 → BL2 (the paper's end-of-§V-C1 example).
    fn two_block_model() -> DependencyModel {
        let mut b = ProgramBuilder::new("t", 0);
        let oa = b.open_read(A, 0i64);
        let ob = b.open_read(B, 0i64);
        let va = b.get(oa, F);
        let vb = b.get(ob, F);
        let _c = b.add(va, vb);
        DependencyModel::analyze(b.finish()).unwrap()
    }

    #[test]
    fn default_edges_capture_cross_block_flow() {
        let m = two_block_model();
        assert_eq!(m.unit_count(), 2);
        // var = OA + OB sits in block 1 and reads block 0's GetField.
        assert_eq!(m.default_unit_edges(), BTreeSet::from([(0, 1)]));
    }

    #[test]
    fn eligibility_allows_reattachment() {
        let m = two_block_model();
        // stmt 4 (var = OA+OB) is eligible for both blocks — that is what
        // lets Step 1 move it into BL1 so BL2 can be shifted before BL1.
        assert_eq!(m.eligible_hosts[4], vec![0, 1]);
        // Anchors are pinned.
        assert_eq!(m.eligible_hosts[0], vec![0]);
        assert_eq!(m.eligible_hosts[1], vec![1]);
        // GetFields are single-source.
        assert_eq!(m.eligible_hosts[2], vec![0]);
        assert_eq!(m.eligible_hosts[3], vec![1]);
    }

    #[test]
    fn reattaching_changes_lifted_edges() {
        let m = two_block_model();
        // Move stmt 4 into block 0: now block 0 depends on block 1.
        let mut asg = m.default_assignment.clone();
        asg[4] = 0;
        let edges = lift_edges(&m.graph, &asg);
        assert_eq!(edges, BTreeSet::from([(1, 0)]));
        assert!(is_acyclic(2, &edges));
    }

    #[test]
    fn topo_sort_respects_edges_and_keys() {
        // 4 blocks, edges 0→1; keys favour 3, 2, 1, 0.
        let edges = BTreeSet::from([(0, 1)]);
        let order = topo_order_preserving(4, &edges, |u| -(u as f64)).expect("acyclic");
        // 3 and 2 have the smallest keys and no constraints; 0 must precede 1.
        assert_eq!(order, vec![3, 2, 0, 1]);
    }

    #[test]
    fn topo_sort_detects_cycles() {
        let edges = BTreeSet::from([(0, 1), (1, 0)]);
        assert!(topo_order_preserving(2, &edges, |u| u as f64).is_none());
        assert!(!is_acyclic(2, &edges));
    }

    #[test]
    fn topo_sort_stable_on_ties() {
        let edges = BTreeSet::new();
        let order = topo_order_preserving(3, &edges, |_| 1.0).unwrap();
        assert_eq!(order, vec![0, 1, 2], "ties broken by id");
    }

    #[test]
    fn empty_graph_sorts_empty() {
        let edges = BTreeSet::new();
        assert_eq!(topo_order_preserving(0, &edges, |u| u as f64), Some(vec![]));
    }

    #[test]
    fn analyze_records_the_access_table() {
        let m = two_block_model();
        // Both opens use Const indices and read their handle → both are
        // fetched at transaction entry.
        assert_eq!(
            m.access.fetch_list(&[], &[]),
            vec![ObjectId::new(A, 0), ObjectId::new(B, 0)]
        );
        assert!(m.access.rows.iter().all(|r| !r.absent));
    }

    #[test]
    fn analyze_rejects_invalid_programs() {
        use crate::ir::{ComputeOp, Operand, Stmt, VarId};
        let p = Program {
            name: "bad".into(),
            params: 0,
            vars: 1,
            stmts: vec![Stmt::Compute {
                out: VarId(0),
                op: ComputeOp::Id,
                ins: vec![Operand::Var(VarId(0))],
            }],
        };
        assert!(DependencyModel::analyze(p).is_err());
    }

    #[test]
    fn pretty_lists_every_statement_with_hosts() {
        let m = two_block_model();
        let p = m.pretty();
        assert!(p.starts_with("program t (2 units)"));
        assert_eq!(p.lines().count(), 1 + m.program.stmts.len());
        assert!(p.contains("u0*"), "anchor marked: {p}");
        assert!(p.contains("[0,1]"), "multi-host eligibility shown: {p}");
    }

    #[test]
    fn lifted_edges_have_no_self_loops() {
        let m = two_block_model();
        for &(a, b) in &m.default_unit_edges() {
            assert_ne!(a, b);
        }
    }
}
