//! Static access-set export for the batch scheduler.
//!
//! The conflict-graph scheduler needs, per transaction template, the set of
//! objects an instance will read and write — *before* the instance runs.
//! Top-level opens whose index operand is a `Const` or `Param` resolve
//! statically: their concrete [`ObjectId`] is computable from the parameter
//! vector alone. Register
//! -indexed opens (pointer chases) and `Cond`-nested opens are not — for
//! those the summary only records the *classes* that may be touched and
//! clears the [`AccessSummary::exact`] flag, telling the scheduler to fall
//! back to pessimistic class-level conflict edges.

use crate::ir::{AccessMode, Operand, Program, Stmt};
use crate::object::{FieldId, ObjClass, ObjectId};
use crate::symbolic::SymbolicSummary;
use crate::value::Value;

/// One top-level open whose target object is statically resolvable.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticAccess {
    /// Class of the object the open targets.
    pub class: ObjClass,
    /// The statically known index operand (`Const` or `Param`).
    pub index: Operand,
    /// `true` for `Update` opens (write intent), `false` for reads.
    pub write: bool,
}

/// Per-template access summary: the statically resolvable opens plus a
/// class-level over-approximation of everything else.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessSummary {
    /// Statically resolvable top-level opens, in statement order.
    pub accesses: Vec<StaticAccess>,
    /// Every class the template may read (including `Cond`-nested and
    /// register-indexed opens), in id order. Updates count as reads too.
    pub read_classes: Vec<ObjClass>,
    /// Every class the template may write, in id order.
    pub write_classes: Vec<ObjClass>,
    /// `true` iff every open in the template is a top-level `Const`/`Param`
    /// -indexed open — i.e. [`AccessSummary::resolve`] yields the *complete*
    /// read/write sets of any instance. When `false` the resolved sets are
    /// a lower bound and the class sets are the sound upper bound.
    pub exact: bool,
    /// Symbolic view of the same opens, covering `Var`-indexed ones whose
    /// index is a pure `Compute` chain over params and hot-counter reads —
    /// the input to [`AccessSummary::resolve_with`].
    pub symbolic: SymbolicSummary,
}

/// A hot-counter read an instance is about to perform, as presented to a
/// [`CounterOracle`] for prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSite {
    /// The counter's host object (index already resolved under the
    /// instance's parameters).
    pub obj: ObjectId,
    /// The counter field.
    pub field: FieldId,
    /// How much this instance will advance the counter (0 = read-only).
    pub delta: i64,
}

/// Predicts the value a hot-counter read will observe. A `Some(v)` answer
/// must also advance the oracle's own cursor by `site.delta`, so that the
/// next instance of the same wave predicts `v + delta`. Returning `None`
/// soundly degrades the instance to inexact.
pub trait CounterOracle {
    /// Predict the value `site` will read, advancing the internal cursor.
    fn predict(&mut self, site: &CounterSite) -> Option<i64>;
}

/// One counter read whose value was predicted rather than known: the
/// executor validates `obj.field == value` at the real read and repairs
/// the transaction (partial rollback + re-read) on mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictedRead {
    /// The counter's host object.
    pub obj: ObjectId,
    /// The counter field.
    pub field: FieldId,
    /// The value the scheduler assumed this instance reads.
    pub value: i64,
    /// The advance the instance applies — feedback uses `observed + delta`
    /// to re-seed the predictor after a mispredict.
    pub delta: i64,
}

/// Concrete read/write object sets of one transaction instance, plus the
/// class-level fallback information the scheduler needs when the static
/// sets are incomplete.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedAccess {
    /// Objects the instance reads (updates included), sorted and deduped.
    pub reads: Vec<ObjectId>,
    /// Objects the instance writes, sorted and deduped.
    pub writes: Vec<ObjectId>,
    /// Class ids the instance may read (template-level upper bound).
    pub read_classes: Vec<u16>,
    /// Class ids the instance may write (template-level upper bound).
    pub write_classes: Vec<u16>,
    /// Copied from [`AccessSummary::exact`]: when `false`, `reads`/`writes`
    /// under-approximate and conflict detection must use the class sets.
    /// [`AccessSummary::resolve_with`] also sets it for *predicted-exact*
    /// instances, whose `predicted` list is then non-empty.
    pub exact: bool,
    /// Counter reads whose values the sets above assume. Empty for truly
    /// static instances; non-empty means the sets are exact *iff* every
    /// prediction validates at execution time.
    pub predicted: Vec<PredictedRead>,
}

impl AccessSummary {
    /// Summarize a template: only top-level non-`Var`-indexed opens resolve
    /// statically; everything else degrades the summary to class level.
    pub fn of(program: &Program) -> Self {
        let mut accesses = Vec::new();
        let mut read_classes: Vec<ObjClass> = Vec::new();
        let mut write_classes: Vec<ObjClass> = Vec::new();
        let mut exact = true;
        fn touch(set: &mut Vec<ObjClass>, class: ObjClass) {
            if !set.iter().any(|c| c.id == class.id) {
                set.push(class);
            }
        }
        fn walk(
            stmts: &[Stmt],
            nested: bool,
            accesses: &mut Vec<StaticAccess>,
            read_classes: &mut Vec<ObjClass>,
            write_classes: &mut Vec<ObjClass>,
            exact: &mut bool,
        ) {
            for s in stmts {
                match s {
                    Stmt::Open {
                        class, index, mode, ..
                    } => {
                        let write = *mode == AccessMode::Update;
                        touch(read_classes, *class);
                        if write {
                            touch(write_classes, *class);
                        }
                        if nested || matches!(index, Operand::Var(_)) {
                            // Data-dependent target: unresolvable before
                            // execution → class-level pessimism.
                            *exact = false;
                        } else {
                            accesses.push(StaticAccess {
                                class: *class,
                                index: index.clone(),
                                write,
                            });
                        }
                    }
                    Stmt::Cond {
                        then_br, else_br, ..
                    } => {
                        walk(then_br, true, accesses, read_classes, write_classes, exact);
                        walk(else_br, true, accesses, read_classes, write_classes, exact);
                    }
                    _ => {}
                }
            }
        }
        walk(
            &program.stmts,
            false,
            &mut accesses,
            &mut read_classes,
            &mut write_classes,
            &mut exact,
        );
        read_classes.sort_by_key(|c| c.id);
        write_classes.sort_by_key(|c| c.id);
        AccessSummary {
            accesses,
            read_classes,
            write_classes,
            exact,
            symbolic: SymbolicSummary::of(program),
        }
    }

    /// Resolve the static accesses of one instance under `params`. An
    /// operand that fails to evaluate (mistyped parameter) is skipped —
    /// the `Open` itself surfaces the error at execution time, and the
    /// summary soundly degrades to inexact for this instance.
    pub fn resolve(&self, params: &[Value]) -> ResolvedAccess {
        let mut reads = Vec::with_capacity(self.accesses.len());
        let mut writes = Vec::new();
        let mut exact = self.exact;
        for a in &self.accesses {
            let idx = match &a.index {
                Operand::Const(v) => v.as_int(),
                Operand::Param(p) => match params.get(p.0 as usize) {
                    Some(v) => v.as_int(),
                    None => {
                        exact = false;
                        continue;
                    }
                },
                Operand::Var(_) => unreachable!("static accesses never use registers"),
            };
            match idx {
                Ok(i) => {
                    let obj = ObjectId::new(a.class, i as u64);
                    reads.push(obj);
                    if a.write {
                        writes.push(obj);
                    }
                }
                Err(_) => exact = false,
            }
        }
        reads.sort_unstable();
        reads.dedup();
        writes.sort_unstable();
        writes.dedup();
        ResolvedAccess {
            reads,
            writes,
            read_classes: self.read_classes.iter().map(|c| c.id).collect(),
            write_classes: self.write_classes.iter().map(|c| c.id).collect(),
            exact,
            predicted: Vec::new(),
        }
    }

    /// Resolve one instance's access sets, upgrading `Var`-indexed opens
    /// through the symbolic summary: pure `Compute` chains over params
    /// evaluate directly, counter-dependent chains evaluate against the
    /// oracle's predictions. On success the instance is *predicted-exact*
    /// (`exact == true`, `predicted` lists the assumptions to validate);
    /// any unresolvable piece falls back to [`AccessSummary::resolve`]'s
    /// sound inexact result.
    pub fn resolve_with(&self, params: &[Value], oracle: &mut dyn CounterOracle) -> ResolvedAccess {
        let base = self.resolve(params);
        if base.exact || !self.symbolic.complete {
            return base;
        }
        // Predict every counter site up front — expressions may share them.
        let mut counter_vals = Vec::with_capacity(self.symbolic.counters.len());
        let mut predicted = Vec::new();
        for (id, c) in self.symbolic.counters.iter().enumerate() {
            let idx = match c.index.eval(params, &[]).map(|v| v.as_int()) {
                Some(Ok(i)) => i,
                _ => return base,
            };
            let site = CounterSite {
                obj: ObjectId::new(c.class, idx as u64),
                field: c.field,
                delta: c.delta,
            };
            let Some(value) = oracle.predict(&site) else {
                return base;
            };
            counter_vals.push(value);
            // Only counters an index actually depends on need run-time
            // validation; unused ones cannot skew the schedule.
            if self
                .symbolic
                .accesses
                .iter()
                .any(|a| a.index.uses_counter(id))
            {
                predicted.push(PredictedRead {
                    obj: site.obj,
                    field: site.field,
                    value,
                    delta: site.delta,
                });
            }
        }
        let mut reads = Vec::with_capacity(self.symbolic.accesses.len());
        let mut writes = Vec::new();
        for a in &self.symbolic.accesses {
            let idx = match a.index.eval(params, &counter_vals).map(|v| v.as_int()) {
                Some(Ok(i)) => i,
                _ => return base,
            };
            let obj = ObjectId::new(a.class, idx as u64);
            reads.push(obj);
            if a.write {
                writes.push(obj);
            }
        }
        reads.sort_unstable();
        reads.dedup();
        writes.sort_unstable();
        writes.dedup();
        ResolvedAccess {
            reads,
            writes,
            read_classes: self.read_classes.iter().map(|c| c.id).collect(),
            write_classes: self.write_classes.iter().map(|c| c.id).collect(),
            exact: true,
            predicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::object::FieldId;

    const A: ObjClass = ObjClass::new(0, "A");
    const B: ObjClass = ObjClass::new(1, "B");
    const C: ObjClass = ObjClass::new(2, "C");
    const F: FieldId = FieldId(0);

    #[test]
    fn fully_static_template_is_exact() {
        let mut b = ProgramBuilder::new("t", 2);
        let oa = b.open_update(A, b.param(0));
        let ob = b.open_read(B, b.param(1));
        let va = b.get(oa, F);
        let vb = b.get(ob, F);
        let s = b.add(va, vb);
        b.set(oa, F, s);
        let sum = AccessSummary::of(&b.finish());
        assert!(sum.exact);
        assert_eq!(sum.accesses.len(), 2);
        assert_eq!(sum.read_classes, vec![A, B]);
        assert_eq!(sum.write_classes, vec![A]);

        let r = sum.resolve(&[Value::Int(7), Value::Int(9)]);
        assert!(r.exact);
        assert_eq!(r.reads, vec![ObjectId::new(A, 7), ObjectId::new(B, 9)]);
        assert_eq!(r.writes, vec![ObjectId::new(A, 7)]);
        assert_eq!(r.read_classes, vec![0, 1]);
        assert_eq!(r.write_classes, vec![0]);
    }

    #[test]
    fn var_indexed_open_degrades_to_class_level() {
        let mut b = ProgramBuilder::new("t", 1);
        let oa = b.open_read(A, b.param(0));
        let va = b.get(oa, F);
        let oc = b.open_update(C, va); // pointer chase
        b.set(oc, F, 1i64);
        let sum = AccessSummary::of(&b.finish());
        assert!(!sum.exact, "register-indexed open is data-dependent");
        // The static part still carries the resolvable A open.
        assert_eq!(sum.accesses.len(), 1);
        assert_eq!(sum.accesses[0].class, A);
        assert_eq!(sum.read_classes, vec![A, C]);
        assert_eq!(sum.write_classes, vec![C]);
        let r = sum.resolve(&[Value::Int(3)]);
        assert!(!r.exact);
        assert_eq!(r.reads, vec![ObjectId::new(A, 3)]);
        assert!(r.writes.is_empty());
    }

    #[test]
    fn cond_nested_open_degrades_but_records_classes() {
        let mut b = ProgramBuilder::new("t", 0);
        let flag = b.constant(true);
        b.cond(
            flag,
            |b| {
                let o = b.open_update(B, 1i64);
                b.set(o, F, 5i64);
            },
            |_| {},
        );
        let _oa = b.open_read(A, 2i64);
        let sum = AccessSummary::of(&b.finish());
        assert!(!sum.exact, "conditional open may or may not run");
        assert_eq!(sum.accesses.len(), 1, "only the top-level open resolves");
        assert_eq!(sum.read_classes, vec![A, B]);
        assert_eq!(sum.write_classes, vec![B]);
    }

    #[test]
    fn duplicate_targets_dedup() {
        let mut b = ProgramBuilder::new("t", 1);
        let o1 = b.open_update(A, b.param(0));
        let o2 = b.open_read(A, b.param(0));
        let v = b.get(o2, F);
        b.set(o1, F, v);
        let sum = AccessSummary::of(&b.finish());
        let r = sum.resolve(&[Value::Int(4)]);
        assert_eq!(r.reads, vec![ObjectId::new(A, 4)]);
        assert_eq!(r.writes, vec![ObjectId::new(A, 4)]);
    }

    /// A counting oracle with the store's `get_or_zero` default: unseen
    /// counters start at 0 and advance by `delta` per prediction.
    #[derive(Default)]
    struct MapOracle(std::collections::HashMap<(u16, u64, u16), i64>);

    impl CounterOracle for MapOracle {
        fn predict(&mut self, site: &CounterSite) -> Option<i64> {
            let e = self
                .0
                .entry((site.obj.class.id, site.obj.index, site.field.0))
                .or_insert(0);
            let v = *e;
            *e += site.delta;
            Some(v)
        }
    }

    /// NewOrder's shape: `order = district_param*1000 + next_oid`.
    fn counter_template() -> AccessSummary {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_update(A, b.param(0));
        let oid = b.get(d, F);
        let next = b.add(oid, 1i64);
        b.set(d, F, next);
        let base = b.compute(
            crate::ir::ComputeOp::Mul,
            [b.param(0).into(), 1000i64.into()],
        );
        let oidx = b.add(base, oid);
        let o = b.open_update(B, oidx);
        b.set(o, F, 7i64);
        AccessSummary::of(&b.finish())
    }

    #[test]
    fn counter_indexed_open_resolves_predicted_exact() {
        let sum = counter_template();
        assert!(!sum.exact, "statically the Var index is unresolvable");
        assert!(sum.symbolic.complete);
        let mut oracle = MapOracle::default();
        let p = [Value::Int(3)];
        let r1 = sum.resolve_with(&p, &mut oracle);
        assert!(r1.exact);
        assert_eq!(r1.predicted.len(), 1);
        assert_eq!(r1.predicted[0].obj, ObjectId::new(A, 3));
        assert_eq!(r1.predicted[0].value, 0, "store default for unseeded");
        assert_eq!(r1.predicted[0].delta, 1);
        assert_eq!(r1.reads, vec![ObjectId::new(A, 3), ObjectId::new(B, 3000)]);
        assert_eq!(r1.writes, r1.reads);
        // Same district again: the cursor advanced.
        let r2 = sum.resolve_with(&p, &mut oracle);
        assert_eq!(r2.predicted[0].value, 1);
        assert_eq!(r2.reads[1], ObjectId::new(B, 3001));
        // A different district has its own counter.
        let r3 = sum.resolve_with(&[Value::Int(4)], &mut oracle);
        assert_eq!(r3.predicted[0].value, 0);
        assert_eq!(r3.reads[1], ObjectId::new(B, 4000));
    }

    #[test]
    fn pure_var_chain_upgrades_without_predictions() {
        let mut b = ProgramBuilder::new("t", 2);
        let x = b.compute(crate::ir::ComputeOp::Mul, [b.param(0).into(), 10i64.into()]);
        let y = b.add(x, b.param(1));
        let _o = b.open_update(C, y);
        let sum = AccessSummary::of(&b.finish());
        assert!(!sum.exact);
        let mut oracle = MapOracle::default();
        let r = sum.resolve_with(&[Value::Int(4), Value::Int(2)], &mut oracle);
        assert!(r.exact);
        assert!(r.predicted.is_empty(), "no counter involved");
        assert_eq!(r.writes, vec![ObjectId::new(C, 42)]);
        assert!(oracle.0.is_empty());
    }

    #[test]
    fn refusing_oracle_degrades_soundly() {
        struct Refuse;
        impl CounterOracle for Refuse {
            fn predict(&mut self, _: &CounterSite) -> Option<i64> {
                None
            }
        }
        let sum = counter_template();
        let r = sum.resolve_with(&[Value::Int(3)], &mut Refuse);
        assert!(!r.exact);
        assert!(r.predicted.is_empty());
        assert_eq!(r.reads, vec![ObjectId::new(A, 3)], "static part survives");
    }

    #[test]
    fn incomplete_symbolic_summary_stays_inexact_under_oracle() {
        // A pointer chase: two reads of the same field → no counter.
        let mut b = ProgramBuilder::new("t", 1);
        let a = b.open_read(A, b.param(0));
        let v = b.get(a, F);
        let _v2 = b.get(a, F);
        let _o = b.open_update(C, v);
        let sum = AccessSummary::of(&b.finish());
        let r = sum.resolve_with(&[Value::Int(1)], &mut MapOracle::default());
        assert!(!r.exact);
    }

    #[test]
    fn missing_param_degrades_instead_of_panicking() {
        let mut b = ProgramBuilder::new("t", 2);
        let _oa = b.open_read(A, b.param(1));
        let sum = AccessSummary::of(&b.finish());
        let r = sum.resolve(&[Value::Int(1)]); // param 1 absent
        assert!(!r.exact);
        assert!(r.reads.is_empty());
    }
}
