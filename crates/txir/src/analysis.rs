//! UnitBlock extraction — the paper's §V-C1 assignment rules.
//!
//! A **UnitBlock** is "the smallest logical unit of code in QR-ACN, and it
//! comprises of exactly one remote object invocation". Every local
//! operation is enclosed in the *latest* UnitBlock that contains the access
//! to one of the shared objects it manages; a purely-local operation
//! follows its dependency chain to the UnitBlock of the operation it
//! depends on.

use crate::ir::{Program, StmtIdx};
use crate::object::ObjClass;
use crate::unitgraph::UnitGraph;
use std::collections::{BTreeSet, HashMap};

/// Index of a UnitBlock within a program's dependency model.
pub type UnitBlockId = usize;

/// One UnitBlock: the anchoring remote open plus the local statements
/// assigned to it by the default (static) rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitBlock {
    /// Position in the program's UnitBlock list (anchor order).
    pub id: UnitBlockId,
    /// The statement performing the remote invocation (a composite `Cond`
    /// may carry several opens; it still forms exactly one UnitBlock).
    pub anchor: StmtIdx,
    /// All statements assigned to this block, in program order.
    pub stmts: Vec<StmtIdx>,
    /// Classes opened by the anchor — the objects whose contention level is
    /// the block's contention level.
    pub classes: Vec<ObjClass>,
}

/// Extract UnitBlocks and the default statement→block assignment.
///
/// Returns the blocks in program (anchor) order and, for every statement,
/// the id of the block hosting it. Programs without any remote open
/// degenerate to a single block anchored at statement 0.
pub fn extract_unit_blocks(
    program: &Program,
    graph: &UnitGraph,
) -> (Vec<UnitBlock>, Vec<UnitBlockId>) {
    let n = graph.stmts.len();
    assert_eq!(n, program.stmts.len(), "graph does not match program");

    // Anchors: one block per opening statement, in program order.
    let anchors: Vec<StmtIdx> = (0..n).filter(|&i| graph.stmts[i].is_open()).collect();
    if anchors.is_empty() {
        let block = UnitBlock {
            id: 0,
            anchor: 0,
            stmts: (0..n).collect(),
            classes: Vec::new(),
        };
        return (vec![block], vec![0; n]);
    }
    let block_of_anchor: HashMap<StmtIdx, UnitBlockId> =
        anchors.iter().enumerate().map(|(id, &a)| (a, id)).collect();

    let src_opens = graph.source_opens(program);

    // Dependency predecessors per statement (all precede it in program
    // order by construction of the UnitGraph edges).
    let mut preds: HashMap<StmtIdx, Vec<StmtIdx>> = HashMap::new();
    for &(a, b) in &graph.edges {
        debug_assert!(a < b, "UnitGraph edges point forward in program order");
        preds.entry(b).or_default().push(a);
    }

    // First pass (forward): anchors and locals with managed objects. The
    // host is the latest UnitBlock that opened one of the statement's
    // managed objects (§V-C1) — bumped, if necessary, to the latest host
    // among the statement's dependencies, so that lifted block edges can
    // only point forward and the default composition is always acyclic
    // (a buffered write hosted "away" from its object's block would
    // otherwise let a later read of that object create a cycle).
    let mut assignment: Vec<Option<UnitBlockId>> = vec![None; n];
    for i in 0..n {
        let info = &graph.stmts[i];
        if info.is_open() {
            assignment[i] = Some(block_of_anchor[&i]);
            continue;
        }
        // The shared objects this statement manages: the opens feeding any
        // register it uses (handles map to their own open).
        let mut managed: BTreeSet<StmtIdx> = BTreeSet::new();
        for u in &info.uses {
            if let Some(os) = src_opens.get(u) {
                managed.extend(os.iter().copied());
            }
        }
        if let Some(&latest) = managed.iter().max() {
            let mut host = block_of_anchor[&latest];
            for p in preds.get(&i).into_iter().flatten() {
                if let Some(ph) = assignment[*p] {
                    host = host.max(ph);
                }
            }
            assignment[i] = Some(host);
        }
    }

    // Second pass (backward): floaters — statements with no managed shared
    // object (pure parameter/constant computation). Each joins the
    // earliest block among its consumers' hosts; with SSA, consumers
    // appear later in program order, so a reverse sweep resolves chains of
    // floaters, and taking the minimum host keeps every consumer edge
    // pointing forward.
    let mut consumers: HashMap<StmtIdx, Vec<StmtIdx>> = HashMap::new();
    for (i, info) in graph.stmts.iter().enumerate() {
        for u in &info.uses {
            if let Some(&d) = graph.def_site.get(u) {
                consumers.entry(d).or_default().push(i);
            }
        }
    }
    for i in (0..n).rev() {
        if assignment[i].is_some() {
            continue;
        }
        let host = consumers
            .get(&i)
            .into_iter()
            .flatten()
            .filter_map(|&c| assignment[c])
            .min();
        // Dead floaters (no consumer) default to the first block.
        assignment[i] = Some(host.unwrap_or(0));
    }

    let assignment: Vec<UnitBlockId> = assignment
        .into_iter()
        .map(|a| a.expect("every statement assigned"))
        .collect();

    let mut blocks: Vec<UnitBlock> = anchors
        .iter()
        .enumerate()
        .map(|(id, &a)| UnitBlock {
            id,
            anchor: a,
            stmts: Vec::new(),
            classes: graph.stmts[a].opens.iter().map(|&(_, c)| c).collect(),
        })
        .collect();
    for (i, &b) in assignment.iter().enumerate() {
        blocks[b].stmts.push(i);
    }
    (blocks, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::object::{FieldId, ObjClass};

    const A: ObjClass = ObjClass::new(0, "A");
    const B: ObjClass = ObjClass::new(1, "B");
    const C: ObjClass = ObjClass::new(2, "C");
    const D: ObjClass = ObjClass::new(3, "D");
    const E: ObjClass = ObjClass::new(4, "E");
    const F: FieldId = FieldId(0);

    fn analyze(p: &Program) -> (Vec<UnitBlock>, Vec<UnitBlockId>) {
        let g = UnitGraph::build(p);
        extract_unit_blocks(p, &g)
    }

    /// Paper §I-A, Tp1 = {Read(OA), Read(OB), C = OA+OB, D = C+φ}:
    /// "the operation D = C + φ is always wrapped in the same
    /// sub-transaction of C = OA + OB" — i.e. both live with Read(OB).
    #[test]
    fn paper_example_tp1() {
        let mut b = ProgramBuilder::new("tp1", 0);
        let oa = b.open_read(A, 0i64);
        let ob = b.open_read(B, 0i64);
        let va = b.get(oa, F);
        let vb = b.get(ob, F);
        let c = b.add(va, vb);
        let _d = b.add(c, 42i64);
        let p = b.finish();
        let (blocks, asg) = analyze(&p);
        assert_eq!(blocks.len(), 2);
        // Open(OA)=0 and its GetField belong to block 0 … wait: GetField(OA)
        // manages only OA, so it lives with the OA block.
        assert_eq!(asg[0], 0);
        assert_eq!(asg[2], 0);
        // Open(OB), GetField(OB), C and D all live in block 1.
        assert_eq!(asg[1], 1);
        assert_eq!(asg[3], 1);
        assert_eq!(asg[4], 1, "C = OA+OB joins the latest managing block");
        assert_eq!(asg[5], 1, "D = C+φ follows C");
    }

    /// Paper §I-A, Tp2 = {Read(OA), Read(OB), C = OA+OB, Read(OD), E = OD+C}:
    /// E = OD + C "can be enclosed in a separate sub-transaction" — the one
    /// anchored at Read(OD).
    #[test]
    fn paper_example_tp2() {
        let mut b = ProgramBuilder::new("tp2", 0);
        let oa = b.open_read(A, 0i64);
        let ob = b.open_read(B, 0i64);
        let va = b.get(oa, F);
        let vb = b.get(ob, F);
        let c = b.add(va, vb); // stmt 4
        let od = b.open_read(D, 0i64); // stmt 5 → block 2
        let vd = b.get(od, F); // stmt 6
        let _e = b.add(vd, c); // stmt 7
        let p = b.finish();
        let (blocks, asg) = analyze(&p);
        assert_eq!(blocks.len(), 3);
        assert_eq!(asg[5], 2);
        assert_eq!(asg[6], 2);
        assert_eq!(asg[7], 2, "E = OD + C joins the OD block");
        assert_eq!(asg[4], 1, "C stays with Read(OB)");
    }

    /// Paper §V-C1 worked example:
    /// T = {Read(A), Read(B), Read(C), Read(D), var = A+B, var = var/2,
    ///      Read(E), var2 = E+B}.
    /// var=A+B and var=var/2 join Read(B)'s UnitBlock; var2=E+B joins
    /// Read(E)'s.
    #[test]
    fn paper_example_section_vc1() {
        let mut b = ProgramBuilder::new("t", 0);
        let oa = b.open_read(A, 0i64); // 0
        let ob = b.open_read(B, 0i64); // 1
        let oc = b.open_read(C, 0i64); // 2
        let od = b.open_read(D, 0i64); // 3
        let va = b.get(oa, F); // 4
        let vb = b.get(ob, F); // 5
        let _vc = b.get(oc, F); // 6
        let _vd = b.get(od, F); // 7
        let var = b.add(va, vb); // 8  var = A + B
        let _var_half = b.compute(crate::ir::ComputeOp::Div, [var.into(), 2i64.into()]); // 9
        let oe = b.open_read(E, 0i64); // 10
        let ve = b.get(oe, F); // 11
        let _var2 = b.add(ve, vb); // 12 var2 = E + B
        let p = b.finish();
        let (blocks, asg) = analyze(&p);
        assert_eq!(blocks.len(), 5);
        // Read(B) anchors block 1.
        assert_eq!(asg[8], 1, "var = A+B joins Read(B)'s block");
        assert_eq!(asg[9], 1, "var = var/2 follows var = A+B");
        // Read(E) anchors block 4.
        assert_eq!(asg[12], 4, "var2 = E+B joins Read(E)'s block");
    }

    #[test]
    fn floaters_join_their_earliest_consumer() {
        let mut b = ProgramBuilder::new("t", 1);
        // Pure parameter computation before any open.
        let amt = b.compute(crate::ir::ComputeOp::Add, [b.param(0).into(), 1i64.into()]); // 0
        let doubled = b.add(amt, amt); // 1 — also a floater
        let oa = b.open_update(A, 0i64); // 2 → block 0
        let va = b.get(oa, F); // 3
        let nv = b.add(va, doubled); // 4 → block 0
        b.set(oa, F, nv); // 5
        let p = b.finish();
        let (blocks, asg) = analyze(&p);
        assert_eq!(blocks.len(), 1);
        assert_eq!(asg[0], 0);
        assert_eq!(asg[1], 0);
        assert_eq!(blocks[0].stmts, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn dead_floater_defaults_to_first_block() {
        let mut b = ProgramBuilder::new("t", 1);
        let _unused = b.constant(9i64); // 0 — no consumer
        let _oa = b.open_read(A, 0i64); // 1
        let p = b.finish();
        let (_, asg) = analyze(&p);
        assert_eq!(asg[0], 0);
    }

    #[test]
    fn openless_program_is_one_block() {
        let mut b = ProgramBuilder::new("t", 1);
        let x = b.constant(1i64);
        let _y = b.add(x, 2i64);
        let p = b.finish();
        let (blocks, asg) = analyze(&p);
        assert_eq!(blocks.len(), 1);
        assert!(blocks[0].classes.is_empty());
        assert_eq!(asg, vec![0, 0]);
    }

    #[test]
    fn blocks_partition_statements() {
        let mut b = ProgramBuilder::new("t", 2);
        let o1 = b.open_update(A, b.param(0));
        let o2 = b.open_update(B, b.param(1));
        let v1 = b.get(o1, F);
        let v2 = b.get(o2, F);
        let s = b.add(v1, v2);
        b.set(o1, F, s);
        let p = b.finish();
        let (blocks, asg) = analyze(&p);
        let total: usize = blocks.iter().map(|bl| bl.stmts.len()).sum();
        assert_eq!(total, p.stmts.len());
        for bl in &blocks {
            for &s in &bl.stmts {
                assert_eq!(asg[s], bl.id);
            }
            // Stmts are in program order.
            assert!(bl.stmts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn setfield_on_earlier_object_joins_latest_managing_block() {
        // account1.withdraw hosted where the amount comes from a later open:
        // set(o1, f, v2) manages both o1 and o2 → joins the later block.
        let mut b = ProgramBuilder::new("t", 0);
        let o1 = b.open_update(A, 0i64); // block 0
        let o2 = b.open_read(B, 0i64); // block 1
        let v2 = b.get(o2, F); // block 1
        b.set(o1, F, v2); // manages A (handle) and B (value) → block 1
        let p = b.finish();
        let (_, asg) = analyze(&p);
        assert_eq!(asg[3], 1);
    }

    /// Regression (found by proptest): a buffered write hosted in a later
    /// block than its object, followed by a read of that object, used to
    /// create a cyclic default unit graph. The host of a statement is now
    /// bumped past all of its dependencies' hosts, keeping default block
    /// edges strictly forward.
    #[test]
    fn foreign_hosted_write_then_read_stays_acyclic() {
        let mut b = ProgramBuilder::new("t", 0);
        let oa = b.open_update(A, 0i64); // unit 0
        let ob = b.open_read(B, 0i64); // unit 1
        let vb = b.get(ob, F); // unit 1
        b.set(oa, F, vb); // manages A and B → latest is unit 1 (stmt 3)
        let _va = b.get(oa, F); // reads A after that write (stmt 4)
        let p = b.finish();
        let g = UnitGraph::build(&p);
        let (_, asg) = extract_unit_blocks(&p, &g);
        assert_eq!(asg[3], 1, "write hosted with Read(B)");
        assert_eq!(
            asg[4], 1,
            "dependent read must be bumped to the write's block"
        );
        // The lifted default graph is acyclic (only 0→1 edges remain).
        let edges = crate::depmodel::lift_edges(&g, &asg);
        assert!(crate::depmodel::is_acyclic(2, &edges), "edges: {edges:?}");
    }

    #[test]
    fn composite_cond_anchor_forms_single_block() {
        let mut b = ProgramBuilder::new("t", 0);
        let flag = b.constant(true); // 0
        b.cond(
            flag,
            |b| {
                let o = b.open_update(A, 1i64);
                b.set(o, F, 5i64);
            },
            |_| {},
        ); // 1 — composite open
        let o2 = b.open_read(B, 0i64); // 2
        let _v = b.get(o2, F); // 3
        let p = b.finish();
        let (blocks, asg) = analyze(&p);
        assert_eq!(blocks.len(), 2);
        assert_eq!(asg[1], 0);
        assert_eq!(blocks[0].classes, vec![A]);
        assert_eq!(asg[0], 0, "pred floater joins its consumer's block");
    }
}
