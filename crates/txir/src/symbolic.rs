//! Symbolic index resolution: the analysis behind [`AccessSummary`].
//!
//! A `Const`/`Param`-indexed open names its object from the parameter
//! vector alone; a register-indexed one usually does too. TPC-C NewOrder's
//! ORDER / NEW_ORDER / ORDER_LINE indices are *pure arithmetic* over
//! parameters and one hot-counter read (`D_NEXT_OID`), not pointer chases.
//!
//! [`summarize`] walks the SSA def chain behind each top-level open's index
//! and writes it down as a [`SymExpr`]: a closed form over `Const`/`Param`
//! leaves, plus [`SymExpr::Counter`] leaves for reads of *hot counters* —
//! a field of a statically indexed top-level open that the template reads
//! once and advances by a constant (or leaves untouched). Only counters
//! some index actually reads are kept. An index the walker cannot prove
//! (a pointer chase) yields no row and leaves the summary incomplete, as
//! does any `Cond`-nested open.

use crate::access::{AccessSummary, OpenRow};
use crate::ir::{AccessMode, ComputeOp, Operand, ParamId, Program, Stmt, StmtIdx, VarId};
use crate::object::{FieldId, ObjClass};
use crate::value::Value;
use std::collections::{BTreeSet, HashMap, HashSet};

/// A symbolic expression over template parameters and hot-counter reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymExpr {
    /// An immediate baked into the template.
    Const(Value),
    /// A per-instance parameter.
    Param(ParamId),
    /// The value produced by counter read site `i` of the owning
    /// [`AccessSummary::counters`] list.
    Counter(usize),
    /// A pure computation over resolved operands.
    Op(ComputeOp, Vec<SymExpr>),
}

impl SymExpr {
    /// Does any leaf reference a counter read?
    pub fn reads_counter(&self) -> bool {
        match self {
            SymExpr::Counter(_) => true,
            SymExpr::Op(_, ins) => ins.iter().any(SymExpr::reads_counter),
            _ => false,
        }
    }

    /// Evaluate under a parameter vector and the counter values known so
    /// far (`None` = not read or predicted yet). `None` on an unknown
    /// counter, a missing/mistyped param or an arithmetic error — callers
    /// degrade to inexact, they never panic.
    pub fn eval(&self, params: &[Value], counters: &[Option<i64>]) -> Option<Value> {
        match self {
            SymExpr::Const(v) => Some(v.clone()),
            SymExpr::Param(p) => params.get(p.0 as usize).cloned(),
            SymExpr::Counter(c) => counters.get(*c).copied().flatten().map(Value::Int),
            SymExpr::Op(op, ins) => {
                let args: Option<Vec<Value>> =
                    ins.iter().map(|e| e.eval(params, counters)).collect();
                op.eval(&args?).ok()
            }
        }
    }
}

/// A hot-counter read site some open's index reads through: the template
/// opens the host row top-level with a static index, reads `field` exactly
/// once before any write to it, and advances it by `delta` (0 = read-only)
/// — TPC-C's `D_NEXT_OID` pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRef {
    /// The [`AccessSummary::rows`] entry of the counter's host open (its
    /// index has no counter leaves).
    pub host: usize,
    /// The counter field.
    pub field: FieldId,
    /// How much one instance advances the counter (`value + delta` is
    /// written back; 0 when the template never writes the field).
    pub delta: i64,
    /// The register the counter's one `GetField` lands in: executing that
    /// statement is the moment the counter's real value is known.
    pub reg: VarId,
}

/// Per-(handle, field) usage sites, used for counter detection.
#[derive(Default)]
struct FieldUse {
    /// Top-level `GetField`s: (stmt index, destination register).
    gets: Vec<(StmtIdx, VarId)>,
    /// Top-level `SetField`s: (stmt index, value operand).
    sets: Vec<(StmtIdx, Operand)>,
    /// Writes nested inside a `Cond` — they disqualify the counter, since
    /// whether the advance happens is a run-time fact.
    nested_sets: usize,
}

/// What one recursive pass over the template collects.
#[derive(Default)]
struct Census {
    uses: HashMap<(VarId, FieldId), FieldUse>,
    /// Every handle some `GetField` reads through, `Cond` branches
    /// included — an update handle outside it is *value-blind*.
    read_handles: HashSet<VarId>,
    /// Every class the template may open / open for update, `Cond`
    /// branches included.
    read_classes: BTreeSet<ObjClass>,
    write_classes: BTreeSet<ObjClass>,
    /// A `Cond` branch opens something: it may or may not run.
    nested_opens: bool,
}

impl Census {
    fn walk(&mut self, stmts: &[Stmt], nested: bool) {
        for (i, s) in stmts.iter().enumerate() {
            match s {
                Stmt::Open { class, mode, .. } => {
                    self.nested_opens |= nested;
                    self.read_classes.insert(*class);
                    if *mode == AccessMode::Update {
                        self.write_classes.insert(*class);
                    }
                }
                Stmt::GetField { var, obj, field } => {
                    self.read_handles.insert(*obj);
                    if !nested {
                        let u = self.uses.entry((*obj, *field)).or_default();
                        u.gets.push((i, *var));
                    }
                }
                Stmt::SetField { obj, field, value } => {
                    let u = self.uses.entry((*obj, *field)).or_default();
                    if nested {
                        u.nested_sets += 1;
                    } else {
                        u.sets.push((i, value.clone()));
                    }
                }
                Stmt::Cond {
                    then_br, else_br, ..
                } => {
                    self.walk(then_br, true);
                    self.walk(else_br, true);
                }
                Stmt::Compute { .. } => {}
            }
        }
    }
}

/// The symbolic walk over one template: def sites, counter candidates and
/// the table under construction.
#[derive(Default)]
struct Walker<'p> {
    /// Def site of every top-level register. Registers defined inside
    /// `Cond` branches are branch-local and stay unresolvable.
    defs: HashMap<VarId, &'p Stmt>,
    /// Counter candidates by the register their one read lands in:
    /// `(host handle, field, delta)`.
    candidates: HashMap<VarId, (VarId, FieldId, i64)>,
    rows: Vec<OpenRow>,
    row_of: Vec<Option<usize>>,
    counters: Vec<CounterRef>,
    memo: HashMap<VarId, Option<SymExpr>>,
}

/// Analyze a template. Never fails: unprovable indices just leave
/// `complete == false`.
pub(crate) fn summarize(program: &Program) -> AccessSummary {
    let mut census = Census::default();
    census.walk(&program.stmts, false);

    let mut w = Walker {
        row_of: vec![None; program.vars as usize],
        ..Walker::default()
    };
    for s in &program.stmts {
        match s {
            Stmt::Open { var, .. }
            | Stmt::GetField { var, .. }
            | Stmt::Compute { out: var, .. } => {
                w.defs.insert(*var, s);
            }
            _ => {}
        }
    }
    // Counter candidates: one top-level read of a statically-opened
    // object's field, preceding every (≤1, top-level, affine) write.
    for (&(obj, field), u) in &census.uses {
        let static_host = matches!(
            w.defs.get(&obj),
            Some(Stmt::Open { index, .. }) if !matches!(index, Operand::Var(_))
        );
        if !static_host || u.gets.len() != 1 || u.nested_sets > 0 || u.sets.len() > 1 {
            continue;
        }
        let (get_at, reg) = u.gets[0];
        if u.sets.iter().any(|&(at, _)| at < get_at) {
            continue;
        }
        let delta = match u.sets.first() {
            None => Some(0),
            // `None`: a non-affine advance is unpredictable.
            Some((_, value)) => affine_delta(value, reg, &w.defs),
        };
        if let Some(delta) = delta {
            w.candidates.insert(reg, (obj, field, delta));
        }
    }

    // One row per top-level open whose index resolves.
    let mut complete = !census.nested_opens;
    for s in &program.stmts {
        let Stmt::Open {
            var,
            class,
            index,
            mode,
        } = s
        else {
            continue;
        };
        let Some(index) = w.resolve_operand(index) else {
            complete = false;
            continue;
        };
        // Value-blindness alone does not make an insert: a set-only update
        // of a row a parameter or a constant names (Delivery's ORDER /
        // NEW_ORDER rows) usually exists, so it is fetched with the rest.
        let write = *mode == AccessMode::Update;
        let absent = write && !census.read_handles.contains(var) && index.reads_counter();
        w.row_of[var.0 as usize] = Some(w.rows.len());
        w.rows.push(OpenRow {
            handle: *var,
            class: *class,
            index,
            write,
            absent,
        });
    }
    AccessSummary {
        fetch_derives: w.rows.iter().any(|r| !r.absent && r.index.reads_counter()),
        rows: w.rows,
        row_of: w.row_of,
        counters: w.counters,
        read_classes: census.read_classes.into_iter().collect(),
        write_classes: census.write_classes.into_iter().collect(),
        complete,
    }
}

/// Resolve `value = counter + delta` where `counter` is the register
/// produced by the counter's read. Only constant offsets through
/// `Add`/`Sub`/`Id` chains qualify; anything else (parameter-dependent
/// advances, multiplication, reads of other objects) returns `None`.
fn affine_delta(value: &Operand, counter: VarId, defs: &HashMap<VarId, &Stmt>) -> Option<i64> {
    fn const_int(op: &Operand, defs: &HashMap<VarId, &Stmt>) -> Option<i64> {
        match op {
            Operand::Const(Value::Int(i)) => Some(*i),
            Operand::Var(v) => match defs.get(v) {
                Some(Stmt::Compute {
                    op: ComputeOp::Id,
                    ins,
                    ..
                }) => const_int(ins.first()?, defs),
                _ => None,
            },
            _ => None,
        }
    }
    match value {
        Operand::Var(v) if *v == counter => Some(0),
        Operand::Var(v) => match defs.get(v)? {
            Stmt::Compute {
                op: ComputeOp::Add,
                ins,
                ..
            } => match ins.as_slice() {
                [a, b] => match (
                    affine_delta(a, counter, defs),
                    affine_delta(b, counter, defs),
                ) {
                    (Some(d), None) => Some(d.wrapping_add(const_int(b, defs)?)),
                    (None, Some(d)) => Some(d.wrapping_add(const_int(a, defs)?)),
                    _ => None,
                },
                _ => None,
            },
            Stmt::Compute {
                op: ComputeOp::Sub,
                ins,
                ..
            } => match ins.as_slice() {
                [a, b] => Some(affine_delta(a, counter, defs)?.wrapping_sub(const_int(b, defs)?)),
                _ => None,
            },
            Stmt::Compute {
                op: ComputeOp::Id,
                ins,
                ..
            } => affine_delta(ins.first()?, counter, defs),
            _ => None,
        },
        _ => None,
    }
}

impl Walker<'_> {
    fn resolve_operand(&mut self, op: &Operand) -> Option<SymExpr> {
        match op {
            Operand::Const(v) => Some(SymExpr::Const(v.clone())),
            Operand::Param(p) => Some(SymExpr::Param(*p)),
            Operand::Var(v) => self.resolve_var(*v),
        }
    }

    fn resolve_var(&mut self, v: VarId) -> Option<SymExpr> {
        if let Some(cached) = self.memo.get(&v) {
            return cached.clone();
        }
        // SSA guarantees def chains are acyclic, so plain recursion terminates.
        let resolved = match self.defs.get(&v).copied() {
            Some(Stmt::Compute { op, ins, .. }) => ins
                .iter()
                .map(|i| self.resolve_operand(i))
                .collect::<Option<Vec<_>>>()
                .map(|ins| SymExpr::Op(*op, ins)),
            Some(Stmt::GetField { .. }) => self.counter(v).map(SymExpr::Counter),
            // Open handles are not integers; Cond-local registers are absent
            // from `defs` entirely.
            _ => None,
        };
        self.memo.insert(v, resolved.clone());
        resolved
    }

    /// The counter id of the read landing in `reg`, numbered by first use
    /// (`resolve_var` memoizes it). The host open precedes its field read,
    /// so its row already exists.
    fn counter(&mut self, reg: VarId) -> Option<usize> {
        let &(host, field, delta) = self.candidates.get(&reg)?;
        self.counters.push(CounterRef {
            host: self.row_of[host.0 as usize]?,
            field,
            delta,
            reg,
        });
        Some(self.counters.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::object::ObjectId;

    const D: ObjClass = ObjClass::new(0, "District");
    const O: ObjClass = ObjClass::new(1, "Order");
    const A: ObjClass = ObjClass::new(2, "A");
    const NEXT: FieldId = FieldId(2);
    const F: FieldId = FieldId(0);

    /// The NewOrder shape: `oidx = param(1)*1_000_000 + D_NEXT_OID`.
    fn neworder_like() -> Program {
        let mut b = ProgramBuilder::new("t", 2);
        let d = b.open_update(D, b.param(0));
        let oid = b.get(d, NEXT);
        let next = b.add(oid, 1i64);
        b.set(d, NEXT, next);
        let obase = b.compute(ComputeOp::Mul, [b.param(1).into(), 1_000_000i64.into()]);
        let oidx = b.add(obase, oid);
        let ord = b.open_update(O, oidx);
        b.set(ord, F, 7i64);
        b.finish()
    }

    #[test]
    fn counter_chain_resolves_completely() {
        let sum = summarize(&neworder_like());
        assert!(sum.complete);
        assert_eq!(sum.counters.len(), 1);
        let c = &sum.counters[0];
        assert_eq!(c.field, NEXT);
        assert_eq!(c.delta, 1);
        assert_eq!(c.host, 0);
        assert_eq!(sum.rows[c.host].class, D);
        assert_eq!(sum.rows[c.host].index, SymExpr::Param(ParamId(0)));
        assert_eq!(sum.rows.len(), 2);
        assert!(sum.rows[1].index.reads_counter());
        // params = [d=3, w=2], counter predicted at 41 → order 2_000_041.
        let params = [Value::Int(3), Value::Int(2)];
        assert_eq!(
            sum.rows[1].object(&params, &[Some(41)]),
            Some(ObjectId::new(O, 2_000_041))
        );
        assert_eq!(sum.rows[1].object(&params, &[None]), None);
    }

    #[test]
    fn pure_param_chain_resolves_without_counters() {
        let mut b = ProgramBuilder::new("t", 2);
        let x = b.compute(ComputeOp::Mul, [b.param(0).into(), 10i64.into()]);
        let y = b.add(x, b.param(1));
        let _o = b.open_read(A, y);
        let sum = summarize(&b.finish());
        assert!(sum.complete);
        assert!(sum.counters.is_empty());
        assert_eq!(
            sum.rows[0].object(&[Value::Int(4), Value::Int(2)], &[]),
            Some(ObjectId::new(A, 42))
        );
    }

    #[test]
    fn pointer_chase_stays_incomplete() {
        // Index flows out of a non-counter field read (two reads of the
        // same field → not a counter).
        let mut b = ProgramBuilder::new("t", 1);
        let a = b.open_read(A, b.param(0));
        let v1 = b.get(a, F);
        let _v2 = b.get(a, F);
        let _o = b.open_read(O, v1);
        let sum = summarize(&b.finish());
        assert!(!sum.complete);
        assert!(sum.counters.is_empty());
        assert_eq!(sum.rows.len(), 1, "the static A open still resolves");
    }

    #[test]
    fn non_affine_advance_disqualifies_the_counter() {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_update(D, b.param(0));
        let oid = b.get(d, NEXT);
        let doubled = b.compute(ComputeOp::Mul, [oid.into(), 2i64.into()]);
        b.set(d, NEXT, doubled);
        let _o = b.open_read(O, oid);
        let sum = summarize(&b.finish());
        assert!(!sum.complete);
        assert!(sum.counters.is_empty());
    }

    #[test]
    fn write_before_read_disqualifies() {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_update(D, b.param(0));
        b.set(d, NEXT, 9i64);
        let oid = b.get(d, NEXT);
        let _o = b.open_read(O, oid);
        let sum = summarize(&b.finish());
        assert!(!sum.complete, "read after reset is not the stored value");
    }

    #[test]
    fn cond_nested_advance_disqualifies() {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_update(D, b.param(0));
        let oid = b.get(d, NEXT);
        let next = b.add(oid, 1i64);
        let flag = b.compute(ComputeOp::Gt, [oid.into(), 5i64.into()]);
        b.cond(flag, |b| b.set(d, NEXT, next), |_| {});
        let _o = b.open_read(O, oid);
        let sum = summarize(&b.finish());
        assert!(
            sum.counters.is_empty(),
            "conditional advance is unpredictable"
        );
        assert!(!sum.complete);
    }

    #[test]
    fn nested_open_keeps_summary_incomplete() {
        let mut b = ProgramBuilder::new("t", 1);
        let flag = b.constant(true);
        b.cond(
            flag,
            |b| {
                let o = b.open_update(A, 1i64);
                b.set(o, F, 5i64);
            },
            |_| {},
        );
        let _o = b.open_read(A, b.param(0));
        let sum = summarize(&b.finish());
        assert!(!sum.complete, "a conditional open may or may not run");
        assert_eq!(sum.rows.len(), 1);
    }

    #[test]
    fn read_only_counter_has_delta_zero() {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_read(D, b.param(0));
        let oid = b.get(d, NEXT);
        let _o = b.open_read(O, oid);
        let sum = summarize(&b.finish());
        assert!(sum.complete);
        assert_eq!(sum.counters.len(), 1);
        assert_eq!(sum.counters[0].delta, 0);
    }

    #[test]
    fn sub_advance_yields_negative_delta() {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_update(D, b.param(0));
        let oid = b.get(d, NEXT);
        let next = b.sub(oid, 3i64);
        b.set(d, NEXT, next);
        let _o = b.open_read(O, oid);
        let sum = summarize(&b.finish());
        assert_eq!(sum.counters.len(), 1);
        assert_eq!(sum.counters[0].delta, -3);
    }

    #[test]
    fn counters_are_numbered_by_first_use_in_statement_order() {
        let mut b = ProgramBuilder::new("t", 2);
        let d1 = b.open_read(D, b.param(0));
        let d2 = b.open_read(D, b.param(1));
        let c1 = b.get(d1, NEXT);
        let c2 = b.get(d2, NEXT);
        let _o2 = b.open_read(O, c2);
        let _o1 = b.open_read(A, c1);
        let both = b.add(c1, c2);
        let _o3 = b.open_read(A, both);
        let sum = summarize(&b.finish());
        assert!(sum.complete);
        let regs: Vec<VarId> = sum.counters.iter().map(|c| c.reg).collect();
        assert_eq!(regs, vec![c2, c1]);
        assert_eq!(sum.rows[2].index, SymExpr::Counter(0));
        assert_eq!(sum.rows[3].index, SymExpr::Counter(1));
        assert_eq!(
            sum.rows[4].object(&[], &[Some(5), Some(7)]),
            Some(ObjectId::new(A, 12))
        );
    }

    #[test]
    fn eval_failure_is_none_not_panic() {
        let e = SymExpr::Op(
            ComputeOp::Div,
            vec![SymExpr::Param(ParamId(0)), SymExpr::Const(Value::Int(0))],
        );
        assert_eq!(e.eval(&[Value::Int(1)], &[]), None);
        assert_eq!(SymExpr::Param(ParamId(5)).eval(&[], &[]), None);
        assert_eq!(SymExpr::Counter(2).eval(&[], &[]), None);
        assert_eq!(SymExpr::Counter(0).eval(&[], &[None]), None);
    }
}
