//! Symbolic index resolution for `Var`-indexed opens.
//!
//! [`crate::access::AccessSummary`] resolves only `Const`/`Param`-indexed
//! opens; anything register-indexed clears `exact` and forces the batch
//! scheduler into pessimistic class-level edges. That serializes TPC-C
//! NewOrder: its ORDER/NEW_ORDER/ORDER_LINE indices are *pure arithmetic*
//! over parameters and one hot-counter read (`D_NEXT_OID`), not arbitrary
//! pointer chases.
//!
//! This module walks the SSA def chain behind each `Operand::Var` index and
//! classifies it as a [`SymExpr`]: a closed form over `Const`/`Param`
//! leaves, plus [`SymExpr::Counter`] leaves for reads of *designated hot
//! counters* — a field of a statically indexed top-level open that the
//! template reads once and advances by a constant (or leaves untouched).
//! Indices that resolve without counter leaves evaluate from the parameter
//! vector alone; counter-dependent ones evaluate against a
//! [`crate::access::CounterOracle`] prediction that the executor validates
//! at the real read. Anything the walker cannot prove stays unresolved and
//! the summary soundly remains inexact.

use crate::ir::{AccessMode, ComputeOp, Operand, ParamId, Program, Stmt, StmtIdx, VarId};
use crate::object::{FieldId, ObjClass, ObjectId};
use crate::value::Value;
use std::collections::HashMap;

/// A symbolic expression over template parameters and hot-counter reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymExpr {
    /// An immediate baked into the template.
    Const(Value),
    /// A per-instance parameter.
    Param(ParamId),
    /// The value produced by counter read site `i` of the owning
    /// [`SymbolicSummary::counters`] list.
    Counter(usize),
    /// A pure computation over resolved operands.
    Op(ComputeOp, Vec<SymExpr>),
}

impl SymExpr {
    /// Does any leaf reference a counter read?
    pub fn uses_counter(&self, id: usize) -> bool {
        match self {
            SymExpr::Counter(c) => *c == id,
            SymExpr::Op(_, ins) => ins.iter().any(|e| e.uses_counter(id)),
            _ => false,
        }
    }

    /// Evaluate under a parameter vector and per-counter predicted values.
    /// `None` on missing/mistyped params or arithmetic errors — callers
    /// degrade to inexact, they never panic.
    pub fn eval(&self, params: &[Value], counters: &[i64]) -> Option<Value> {
        match self {
            SymExpr::Const(v) => Some(v.clone()),
            SymExpr::Param(p) => params.get(p.0 as usize).cloned(),
            SymExpr::Counter(c) => counters.get(*c).copied().map(Value::Int),
            SymExpr::Op(op, ins) => {
                let args: Option<Vec<Value>> =
                    ins.iter().map(|e| e.eval(params, counters)).collect();
                op.eval(&args?).ok()
            }
        }
    }
}

/// A designated hot-counter read site: the template opens
/// `class[index(params)]` top-level with a static index, reads `field`
/// exactly once before any write to it, and advances it by `delta`
/// (0 = read-only) — TPC-C's `D_NEXT_OID` pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRef {
    /// Class of the counter's host object.
    pub class: ObjClass,
    /// Static index of the host object (no counter leaves).
    pub index: SymExpr,
    /// The counter field.
    pub field: FieldId,
    /// How much one instance advances the counter (`value + delta` is
    /// written back; 0 when the template never writes the field).
    pub delta: i64,
    /// The register the counter's one `GetField` lands in: executing that
    /// statement is the moment the counter's real value is known.
    pub reg: VarId,
}

/// One top-level open whose index resolved symbolically.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicAccess {
    /// The handle register the open defines.
    pub handle: VarId,
    /// Class of the object the open targets.
    pub class: ObjClass,
    /// Resolved index expression (may contain counter leaves).
    pub index: SymExpr,
    /// `true` for `Update` opens.
    pub write: bool,
    /// `true` for *value-blind* `Update` opens: the template never reads a
    /// field of this handle, so execution needs neither the object's
    /// current value nor (speculatively) its version — the paper's
    /// insert-only rows when the index is a fresh key. See [`OpenPlan::blind`].
    pub blind: bool,
}

/// Symbolic access summary of a template: every top-level open's index as
/// a [`SymExpr`] where provable, plus the counter sites those expressions
/// read through.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicSummary {
    /// Symbolically resolved top-level opens, in statement order.
    pub accesses: Vec<SymbolicAccess>,
    /// Detected hot-counter read sites, referenced by
    /// [`SymExpr::Counter`] index.
    pub counters: Vec<CounterRef>,
    /// `true` iff *every* open in the template is a top-level open whose
    /// index resolved — i.e. evaluating `accesses` (with counter
    /// predictions) yields the complete read/write sets of an instance.
    pub complete: bool,
}

/// How each top-level open of a template gets its copy at run time — the
/// statement-level facts the executor's one speculative read path runs on,
/// derived once per template from the [`SymbolicSummary`].
///
/// Every symbolically resolved open is either *fetched* (its copy is read
/// ahead of the `Open`, as early as its index is known) or *presumed
/// absent* (opened with no fetch at all). Only an insert is presumed: a
/// value-blind `Update` — no field of the handle is ever read — whose
/// index derives from a counter site, i.e. a key this instance has just
/// drawn. A set-only update of a row named by a parameter or a constant
/// (Delivery's ORDER / NEW_ORDER rows) usually exists, so it is fetched
/// with the rest of the initial round, which costs no extra round.
/// `Cond`-nested opens and pointer chases are in neither set and keep
/// their single remote read at the statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenPlan {
    /// `(class, index)` of every fetched open, in statement order. Indices
    /// without counter leaves resolve at transaction entry; the rest once
    /// the counters they read are known.
    pub fetched: Vec<(ObjClass, SymExpr)>,
    /// Per handle register: is its open presumed absent?
    pub blind: Vec<bool>,
    /// The counter sites a fetched index reads through (the
    /// [`SymExpr::Counter`] numbering); empty when none does, so a
    /// template whose derived opens are all inserts never re-resolves.
    pub counters: Vec<CounterRef>,
}

impl OpenPlan {
    /// Split a template's resolved opens into fetched and presumed absent.
    pub fn of(program: &Program, sym: &SymbolicSummary) -> Self {
        let derived = |e: &SymExpr| (0..sym.counters.len()).any(|c| e.uses_counter(c));
        let mut blind = vec![false; program.vars as usize];
        let mut fetched = Vec::new();
        for a in &sym.accesses {
            if a.blind && derived(&a.index) {
                blind[a.handle.0 as usize] = true;
            } else {
                fetched.push((a.class, a.index.clone()));
            }
        }
        let derives = fetched.iter().any(|(_, e)| derived(e));
        OpenPlan {
            fetched,
            blind,
            counters: if derives {
                sym.counters.clone()
            } else {
                Vec::new()
            },
        }
    }

    /// The host object of counter site `c` under `params`.
    pub fn counter_host(&self, c: usize, params: &[Value]) -> Option<ObjectId> {
        let site = &self.counters[c];
        let idx = site.index.eval(params, &[])?.as_int().ok()?;
        Some(ObjectId::new(site.class, idx as u64))
    }

    /// The fetched opens resolvable now: every index whose counter leaves
    /// all have a known value in `counters` (`None` = not read yet),
    /// evaluated under `params`. An index that fails to evaluate is
    /// skipped — the `Open` itself surfaces the error when it executes.
    pub fn resolve(&self, params: &[Value], counters: &[Option<i64>]) -> Vec<ObjectId> {
        let vals: Vec<i64> = counters.iter().map(|c| c.unwrap_or(0)).collect();
        let mut out: Vec<ObjectId> = Vec::with_capacity(self.fetched.len());
        for (class, index) in &self.fetched {
            let known = counters
                .iter()
                .enumerate()
                .all(|(c, v)| v.is_some() || !index.uses_counter(c));
            if !known {
                continue;
            }
            if let Some(Ok(i)) = index.eval(params, &vals).map(|v| v.as_int()) {
                let obj = ObjectId::new(*class, i as u64);
                if !out.contains(&obj) {
                    out.push(obj);
                }
            }
        }
        out
    }
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

impl SymbolicSummary {
    /// Analyze a template. Never fails: unprovable indices just leave
    /// `complete == false`.
    pub fn of(program: &Program) -> Self {
        // Def site of every top-level register. Registers defined inside
        // `Cond` branches are branch-local and stay unresolvable.
        let mut defs: HashMap<VarId, &Stmt> = HashMap::new();
        for s in &program.stmts {
            match s {
                Stmt::Open { var, .. }
                | Stmt::GetField { var, .. }
                | Stmt::Compute { out: var, .. } => {
                    defs.insert(*var, s);
                }
                _ => {}
            }
        }

        // Top-level opens with a static (Const/Param) index — the only
        // objects that can host a predictable counter.
        let mut static_opens: HashMap<VarId, (ObjClass, Operand)> = HashMap::new();
        let mut nested_opens = false;
        for s in &program.stmts {
            match s {
                Stmt::Open {
                    var, class, index, ..
                } if !matches!(index, Operand::Var(_)) => {
                    static_opens.insert(*var, (*class, index.clone()));
                }
                Stmt::Cond { .. } if open_in(s) => nested_opens = true,
                _ => {}
            }
        }

        // Field-use census per (handle, field).
        let mut uses: HashMap<(VarId, FieldId), FieldUse> = HashMap::new();
        for (i, s) in program.iter() {
            match s {
                Stmt::GetField { var, obj, field } => {
                    uses.entry((*obj, *field)).or_default().gets.push((i, *var));
                }
                Stmt::SetField { obj, field, value } => uses
                    .entry((*obj, *field))
                    .or_default()
                    .sets
                    .push((i, value.clone())),
                Stmt::Cond {
                    then_br, else_br, ..
                } => {
                    for br in [then_br, else_br] {
                        count_nested_sets(br, &mut uses);
                    }
                }
                _ => {}
            }
        }

        // Counter detection: one top-level read of a statically-opened
        // object's field, preceding every (≤1, top-level, affine) write.
        let mut counters: Vec<CounterRef> = Vec::new();
        let mut counter_of: HashMap<VarId, usize> = HashMap::new();
        let mut sites: Vec<(VarId, FieldId)> = uses.keys().copied().collect();
        sites.sort(); // deterministic counter numbering
        for (obj, field) in sites {
            let u = &uses[&(obj, field)];
            let Some((class, index)) = static_opens.get(&obj) else {
                continue;
            };
            if u.gets.len() != 1 || u.nested_sets > 0 || u.sets.len() > 1 {
                continue;
            }
            let (get_at, get_var) = u.gets[0];
            if u.sets.iter().any(|&(at, _)| at < get_at) {
                continue;
            }
            let delta = match u.sets.first() {
                None => 0,
                Some((_, value)) => match affine_delta(value, get_var, &defs) {
                    Some(d) => d,
                    None => continue, // non-affine advance: unpredictable
                },
            };
            let index = match index {
                Operand::Const(v) => SymExpr::Const(v.clone()),
                Operand::Param(p) => SymExpr::Param(*p),
                Operand::Var(_) => unreachable!("static opens never use registers"),
            };
            counter_of.insert(get_var, counters.len());
            counters.push(CounterRef {
                class: *class,
                index,
                field,
                delta,
                reg: get_var,
            });
        }

        // Resolve every top-level open's index.
        let read_handles = handles_read(&program.stmts);
        let mut memo: HashMap<VarId, Option<SymExpr>> = HashMap::new();
        let mut accesses = Vec::new();
        let mut complete = !nested_opens;
        for s in &program.stmts {
            if let Stmt::Open {
                var,
                class,
                index,
                mode,
            } = s
            {
                match resolve_operand(index, &defs, &counter_of, &mut memo) {
                    Some(expr) => accesses.push(SymbolicAccess {
                        handle: *var,
                        class: *class,
                        index: expr,
                        write: *mode == AccessMode::Update,
                        blind: *mode == AccessMode::Update && !read_handles.contains(var),
                    }),
                    None => complete = false,
                }
            }
        }
        SymbolicSummary {
            accesses,
            counters,
            complete,
        }
    }
}

/// Every handle register some `GetField` reads through, `Cond` branches
/// included — the complement (update handles never read) is the
/// *value-blind* open population.
fn handles_read(stmts: &[Stmt]) -> std::collections::HashSet<VarId> {
    fn walk(stmts: &[Stmt], out: &mut std::collections::HashSet<VarId>) {
        for s in stmts {
            match s {
                Stmt::GetField { obj, .. } => {
                    out.insert(*obj);
                }
                Stmt::Cond {
                    then_br, else_br, ..
                } => {
                    walk(then_br, out);
                    walk(else_br, out);
                }
                _ => {}
            }
        }
    }
    let mut out = std::collections::HashSet::new();
    walk(stmts, &mut out);
    out
}

/// Does this statement (transitively) contain an `Open`?
fn open_in(s: &Stmt) -> bool {
    match s {
        Stmt::Open { .. } => true,
        Stmt::Cond {
            then_br, else_br, ..
        } => then_br.iter().any(open_in) || else_br.iter().any(open_in),
        _ => false,
    }
}

fn count_nested_sets(stmts: &[Stmt], uses: &mut HashMap<(VarId, FieldId), FieldUse>) {
    for s in stmts {
        match s {
            Stmt::SetField { obj, field, .. } => {
                uses.entry((*obj, *field)).or_default().nested_sets += 1;
            }
            Stmt::Cond {
                then_br, else_br, ..
            } => {
                count_nested_sets(then_br, uses);
                count_nested_sets(else_br, uses);
            }
            _ => {}
        }
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

fn resolve_operand(
    op: &Operand,
    defs: &HashMap<VarId, &Stmt>,
    counter_of: &HashMap<VarId, usize>,
    memo: &mut HashMap<VarId, Option<SymExpr>>,
) -> Option<SymExpr> {
    match op {
        Operand::Const(v) => Some(SymExpr::Const(v.clone())),
        Operand::Param(p) => Some(SymExpr::Param(*p)),
        Operand::Var(v) => resolve_var(*v, defs, counter_of, memo),
    }
}

fn resolve_var(
    v: VarId,
    defs: &HashMap<VarId, &Stmt>,
    counter_of: &HashMap<VarId, usize>,
    memo: &mut HashMap<VarId, Option<SymExpr>>,
) -> Option<SymExpr> {
    if let Some(cached) = memo.get(&v) {
        return cached.clone();
    }
    // SSA guarantees def chains are acyclic, so plain recursion terminates.
    let resolved = match defs.get(&v) {
        Some(Stmt::Compute { op, ins, .. }) => ins
            .iter()
            .map(|i| resolve_operand(i, defs, counter_of, memo))
            .collect::<Option<Vec<_>>>()
            .map(|ins| SymExpr::Op(*op, ins)),
        Some(Stmt::GetField { .. }) => counter_of.get(&v).map(|&id| SymExpr::Counter(id)),
        // Open handles are not integers; Cond-local registers are absent
        // from `defs` entirely.
        _ => None,
    };
    memo.insert(v, resolved.clone());
    resolved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

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
        let sym = SymbolicSummary::of(&neworder_like());
        assert!(sym.complete);
        assert_eq!(sym.counters.len(), 1);
        let c = &sym.counters[0];
        assert_eq!(c.class, D);
        assert_eq!(c.field, NEXT);
        assert_eq!(c.delta, 1);
        assert_eq!(c.index, SymExpr::Param(ParamId(0)));
        assert_eq!(sym.accesses.len(), 2);
        assert!(sym.accesses[1].index.uses_counter(0));
        // params = [d=3, w=2], counter predicted at 41 → order 2_000_041.
        let idx = sym.accesses[1]
            .index
            .eval(&[Value::Int(3), Value::Int(2)], &[41])
            .unwrap();
        assert_eq!(idx, Value::Int(2_000_041));
        let host = ObjectId::new(c.class, 3);
        assert_eq!(host.class.id, D.id);
    }

    #[test]
    fn pure_param_chain_resolves_without_counters() {
        let mut b = ProgramBuilder::new("t", 2);
        let x = b.compute(ComputeOp::Mul, [b.param(0).into(), 10i64.into()]);
        let y = b.add(x, b.param(1));
        let _o = b.open_read(A, y);
        let sym = SymbolicSummary::of(&b.finish());
        assert!(sym.complete);
        assert!(sym.counters.is_empty());
        assert_eq!(
            sym.accesses[0]
                .index
                .eval(&[Value::Int(4), Value::Int(2)], &[]),
            Some(Value::Int(42))
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
        let sym = SymbolicSummary::of(&b.finish());
        assert!(!sym.complete);
        assert!(sym.counters.is_empty());
        assert_eq!(sym.accesses.len(), 1, "the static A open still resolves");
    }

    #[test]
    fn non_affine_advance_disqualifies_the_counter() {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_update(D, b.param(0));
        let oid = b.get(d, NEXT);
        let doubled = b.compute(ComputeOp::Mul, [oid.into(), 2i64.into()]);
        b.set(d, NEXT, doubled);
        let _o = b.open_read(O, oid);
        let sym = SymbolicSummary::of(&b.finish());
        assert!(!sym.complete);
        assert!(sym.counters.is_empty());
    }

    #[test]
    fn write_before_read_disqualifies() {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_update(D, b.param(0));
        b.set(d, NEXT, 9i64);
        let oid = b.get(d, NEXT);
        let _o = b.open_read(O, oid);
        let sym = SymbolicSummary::of(&b.finish());
        assert!(!sym.complete, "read after reset is not the stored value");
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
        let sym = SymbolicSummary::of(&b.finish());
        assert!(
            sym.counters.is_empty(),
            "conditional advance is unpredictable"
        );
        assert!(!sym.complete);
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
        let sym = SymbolicSummary::of(&b.finish());
        assert!(!sym.complete, "a conditional open may or may not run");
        assert_eq!(sym.accesses.len(), 1);
    }

    #[test]
    fn read_only_counter_has_delta_zero() {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_read(D, b.param(0));
        let oid = b.get(d, NEXT);
        let _o = b.open_read(O, oid);
        let sym = SymbolicSummary::of(&b.finish());
        assert!(sym.complete);
        assert_eq!(sym.counters.len(), 1);
        assert_eq!(sym.counters[0].delta, 0);
    }

    #[test]
    fn sub_advance_yields_negative_delta() {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_update(D, b.param(0));
        let oid = b.get(d, NEXT);
        let next = b.sub(oid, 3i64);
        b.set(d, NEXT, next);
        let _o = b.open_read(O, oid);
        let sym = SymbolicSummary::of(&b.finish());
        assert_eq!(sym.counters.len(), 1);
        assert_eq!(sym.counters[0].delta, -3);
    }

    #[test]
    fn open_plan_presumes_only_counter_derived_inserts_absent() {
        // NewOrder's shape: the counter host is read and resolvable at
        // entry, the counter-derived insert is presumed absent — so no
        // fetched index is derived and the plan carries no counter sites.
        let p = neworder_like();
        let plan = OpenPlan::of(&p, &SymbolicSummary::of(&p));
        assert_eq!(plan.fetched.len(), 1);
        assert_eq!(plan.blind.iter().filter(|b| **b).count(), 1);
        assert!(plan.counters.is_empty(), "no fetched index reads a counter");
        assert_eq!(
            plan.resolve(&[Value::Int(3), Value::Int(2)], &[]),
            vec![ObjectId::new(D, 3)]
        );
        // A mistyped parameter is skipped, not a panic.
        assert!(plan
            .resolve(&[Value::str("x"), Value::Int(2)], &[])
            .is_empty());
    }

    #[test]
    fn open_plan_fetches_set_only_updates_of_named_rows() {
        // Delivery's shape: a set-only update of a row a parameter (or a
        // constant) names is value-blind, but the row usually exists, so it
        // joins the initial fetch instead of being presumed absent.
        let mut b = ProgramBuilder::new("t", 1);
        let o = b.open_update(O, b.param(0));
        b.set(o, F, 1i64);
        let a = b.open_update(A, 4i64);
        b.set(a, F, 2i64);
        let p = b.finish();
        let sym = SymbolicSummary::of(&p);
        assert!(sym.accesses.iter().all(|a| a.blind), "both are value-blind");
        let plan = OpenPlan::of(&p, &sym);
        assert!(plan.blind.iter().all(|b| !b));
        assert_eq!(
            plan.resolve(&[Value::Int(9)], &[]),
            vec![ObjectId::new(O, 9), ObjectId::new(A, 4)]
        );
    }

    #[test]
    fn open_plan_resolves_derived_valued_opens_once_the_counter_is_known() {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_update(D, b.param(0));
        let oid = b.get(d, NEXT);
        let next = b.add(oid, 1i64);
        b.set(d, NEXT, next);
        let o = b.open_read(O, oid);
        let _v = b.get(o, F);
        let flag = b.constant(true);
        b.cond(
            flag,
            |b| {
                let _ = b.open_read(A, 1i64);
            },
            |_| {},
        );
        let p = b.finish();
        let plan = OpenPlan::of(&p, &SymbolicSummary::of(&p));
        assert_eq!(plan.counters.len(), 1);
        assert_eq!(plan.counters[0].reg, oid);
        assert_eq!(
            plan.counter_host(0, &[Value::Int(3)]),
            Some(ObjectId::new(D, 3))
        );
        let params = [Value::Int(3)];
        assert_eq!(
            plan.resolve(&params, &[None]),
            vec![ObjectId::new(D, 3)],
            "the derived open waits for its counter; the Cond-nested one never resolves"
        );
        assert_eq!(
            plan.resolve(&params, &[Some(41)]),
            vec![ObjectId::new(D, 3), ObjectId::new(O, 41)]
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
    }
}
