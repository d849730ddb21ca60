//! The one description of a template's opens.
//!
//! The paper's Static Module "maintains static information of transaction
//! code … created once, queried at run time". What it owes the run time
//! about opens — *which objects will this instance open, in which mode,
//! and how does each get its copy* — is one table, [`AccessSummary`]: a
//! row per top-level open whose index `symbolic.rs` could write as a
//! closed form, the hot-counter sites those forms read, and class sets
//! covering everything else. It has two readers, and both evaluate a row
//! through [`OpenRow::object`]:
//!
//! * the batch scheduler asks for an instance's complete read/write sets
//!   *before* it runs ([`AccessSummary::resolve_with`], counter values
//!   predicted by a [`CounterOracle`]);
//! * the executor asks which copies to fetch ahead of the `Open`s, as
//!   early as each index is known ([`AccessSummary::fetch_list`]), and
//!   which opens to run with no fetch at all ([`OpenRow::absent`]).
//!
//! `Cond`-nested opens and pointer chases have no row: the scheduler falls
//! back to class-level conflict edges for such a template, the executor to
//! a single remote read at the statement.

use crate::ir::{Program, VarId};
use crate::object::{FieldId, ObjClass, ObjectId};
use crate::symbolic::{CounterRef, SymExpr};
use crate::value::Value;

/// One top-level open whose index resolved symbolically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenRow {
    /// The handle register the open defines.
    pub handle: VarId,
    /// Class of the object the open targets.
    pub class: ObjClass,
    /// The index as a closed form (may contain counter leaves).
    pub index: SymExpr,
    /// `true` for `Update` opens (write intent), `false` for reads.
    pub write: bool,
    /// *Presumed absent*: a value-blind `Update` (the template never reads
    /// a field of this handle) whose index reads a counter — the paper's
    /// insert of a freshly drawn key. Opened with no fetch; every other
    /// row's copy is fetched ahead of its `Open`.
    pub absent: bool,
}

impl OpenRow {
    /// The object this open targets under `params` and the counter values
    /// known so far, by [`AccessSummary::counters`] site (`None` or past
    /// the end = not known yet). `None` when the index reads an unknown
    /// counter or fails to evaluate (mistyped parameter) — the `Open`
    /// itself surfaces such an error when it executes.
    pub fn object(&self, params: &[Value], counters: &[Option<i64>]) -> Option<ObjectId> {
        let i = self.index.eval(params, counters)?.as_int().ok()?;
        Some(ObjectId::new(self.class, i as u64))
    }
}

/// Per-template access summary, computed once by
/// [`crate::DependencyModel::analyze`] and shared with every Block sequence
/// built from the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSummary {
    /// The symbolically resolved top-level opens, in statement order.
    pub rows: Vec<OpenRow>,
    /// Row of each handle register (`None`: not a resolved top-level open).
    pub(crate) row_of: Vec<Option<usize>>,
    /// The hot-counter sites some row's index reads, by
    /// [`SymExpr::Counter`] number (first use first).
    pub counters: Vec<CounterRef>,
    /// Every class the template may read (`Cond`-nested and unresolved
    /// opens included), in id order. Updates count as reads too.
    pub read_classes: Vec<ObjClass>,
    /// Every class the template may write, in id order.
    pub write_classes: Vec<ObjClass>,
    /// `true` iff every open of the template is a row — evaluating `rows`
    /// yields the *complete* read/write sets of any instance. When `false`
    /// the rows are a lower bound and the class sets the sound upper bound.
    pub complete: bool,
    /// Does some *fetched* row's index read a counter? Only then does a
    /// counter read unlock a further fetch round in the executor.
    pub fetch_derives: bool,
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
/// class-level fallback information the scheduler needs when the object
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
    /// `true` iff `reads`/`writes` are the instance's complete sets: every
    /// open of the template is a row and every row evaluated — for a
    /// *predicted-exact* instance under the values in `predicted`. When
    /// `false` they under-approximate (the rows that evaluate from the
    /// parameters alone) and conflict detection must use the class sets.
    pub exact: bool,
    /// Counter reads whose values the sets above assume. Empty for truly
    /// static instances; non-empty means the sets are exact *iff* every
    /// prediction validates at execution time.
    pub predicted: Vec<PredictedRead>,
}

impl AccessSummary {
    /// Summarize a template (the analysis lives in `symbolic.rs`).
    pub fn of(program: &Program) -> Self {
        crate::symbolic::summarize(program)
    }

    /// Register count of the template this table was built from.
    pub fn vars(&self) -> usize {
        self.row_of.len()
    }

    /// Is `handle`'s open presumed absent ([`OpenRow::absent`])?
    #[inline]
    pub fn presumed_absent(&self, handle: VarId) -> bool {
        self.row_of[handle.0 as usize].is_some_and(|r| self.rows[r].absent)
    }

    /// The host object of counter site `c` under `params`.
    pub fn counter_host(&self, c: usize, params: &[Value]) -> Option<ObjectId> {
        self.rows[self.counters[c].host].object(params, &[])
    }

    /// The executor's view: the object of every fetched row whose index is
    /// known under `counters`, in statement order, deduplicated.
    pub fn fetch_list(&self, params: &[Value], counters: &[Option<i64>]) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = Vec::with_capacity(self.rows.len());
        for row in self.rows.iter().filter(|r| !r.absent) {
            if let Some(obj) = row.object(params, counters) {
                if !out.contains(&obj) {
                    out.push(obj);
                }
            }
        }
        out
    }

    /// Predict every counter site, in site order — all or nothing: `None`
    /// once a host fails to evaluate or the oracle refuses.
    fn predict(
        &self,
        params: &[Value],
        oracle: &mut dyn CounterOracle,
    ) -> Option<Vec<PredictedRead>> {
        let predict_site = |(c, site): (usize, &CounterRef)| {
            let (obj, field, delta) = (self.counter_host(c, params)?, site.field, site.delta);
            let value = oracle.predict(&CounterSite { obj, field, delta })?;
            Some(PredictedRead {
                obj,
                field,
                value,
                delta,
            })
        };
        self.counters.iter().enumerate().map(predict_site).collect()
    }

    /// The scheduler's view: one instance's read/write sets. A complete
    /// template whose every counter the oracle predicts and whose every row
    /// evaluates is *exact* (`predicted` lists the assumptions to validate;
    /// empty when no index reads a counter, and then the oracle is never
    /// asked). Anything less — an incomplete template (never asks either), a
    /// refusing oracle, a row that fails to evaluate — is inexact: the sets
    /// hold the rows that evaluate from `params` alone and rest on no
    /// prediction.
    pub fn resolve_with(&self, params: &[Value], oracle: &mut dyn CounterOracle) -> ResolvedAccess {
        let predicted = if self.complete {
            self.predict(params, oracle)
        } else {
            None
        };
        let mut exact = predicted.is_some();
        let mut predicted = predicted.unwrap_or_default();
        let counters: Vec<Option<i64>> = predicted.iter().map(|p| Some(p.value)).collect();
        let mut hits: Vec<(&OpenRow, ObjectId)> = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            match row.object(params, &counters) {
                Some(obj) => hits.push((row, obj)),
                None => exact = false,
            }
        }
        if !exact {
            predicted.clear();
            hits.retain(|(row, _)| !row.index.reads_counter());
        }
        let mut reads: Vec<ObjectId> = hits.iter().map(|&(_, obj)| obj).collect();
        let mut writes: Vec<ObjectId> = hits
            .iter()
            .filter(|(row, _)| row.write)
            .map(|&(_, obj)| obj)
            .collect();
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
            predicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ir::ComputeOp;

    const A: ObjClass = ObjClass::new(0, "A");
    const B: ObjClass = ObjClass::new(1, "B");
    const C: ObjClass = ObjClass::new(2, "C");
    const F: FieldId = FieldId(0);

    /// For templates that must never consult the oracle.
    struct Unasked;
    impl CounterOracle for Unasked {
        fn predict(&mut self, site: &CounterSite) -> Option<i64> {
            panic!("oracle asked about {site:?}");
        }
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
        assert!(sum.complete);
        assert_eq!(sum.rows.len(), 2);
        assert!(sum.counters.is_empty(), "no index reads A.F or B.F");
        assert_eq!(sum.read_classes, vec![A, B]);
        assert_eq!(sum.write_classes, vec![A]);

        let r = sum.resolve_with(&[Value::Int(7), Value::Int(9)], &mut Unasked);
        assert!(r.exact);
        assert_eq!(r.reads, vec![ObjectId::new(A, 7), ObjectId::new(B, 9)]);
        assert_eq!(r.writes, vec![ObjectId::new(A, 7)]);
        assert_eq!(r.read_classes, vec![0, 1]);
        assert_eq!(r.write_classes, vec![0]);
    }

    #[test]
    fn pointer_chase_degrades_to_class_level_and_never_asks() {
        // Two reads of the same field → not a counter → no row for C.
        let mut b = ProgramBuilder::new("t", 1);
        let oa = b.open_read(A, b.param(0));
        let va = b.get(oa, F);
        let _again = b.get(oa, F);
        let oc = b.open_update(C, va);
        b.set(oc, F, 1i64);
        let sum = AccessSummary::of(&b.finish());
        assert!(!sum.complete, "register-indexed open is data-dependent");
        assert_eq!(sum.rows.len(), 1, "the A open still has its row");
        assert_eq!(sum.read_classes, vec![A, C]);
        assert_eq!(sum.write_classes, vec![C]);
        let r = sum.resolve_with(&[Value::Int(3)], &mut Unasked);
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
        assert!(!sum.complete, "conditional open may or may not run");
        assert_eq!(sum.rows.len(), 1, "only the top-level open has a row");
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
        let r = sum.resolve_with(&[Value::Int(4)], &mut Unasked);
        assert_eq!(r.reads, vec![ObjectId::new(A, 4)]);
        assert_eq!(r.writes, vec![ObjectId::new(A, 4)]);
        assert_eq!(sum.fetch_list(&[Value::Int(4)], &[]), r.reads);
    }

    /// NewOrder's shape: `order = district_param*1000 + next_oid`.
    fn counter_template() -> AccessSummary {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_update(A, b.param(0));
        let oid = b.get(d, F);
        let next = b.add(oid, 1i64);
        b.set(d, F, next);
        let base = b.compute(ComputeOp::Mul, [b.param(0).into(), 1000i64.into()]);
        let oidx = b.add(base, oid);
        let o = b.open_update(B, oidx);
        b.set(o, F, 7i64);
        AccessSummary::of(&b.finish())
    }

    #[test]
    fn counter_indexed_open_resolves_predicted_exact() {
        let sum = counter_template();
        assert!(sum.complete);
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
    fn the_executor_presumes_only_the_counter_derived_insert_absent() {
        // The counter host is fetched and resolvable at entry; the
        // counter-derived insert is presumed absent — so no fetched index
        // reads a counter and a counter read unlocks no further round.
        let sum = counter_template();
        let [host, insert] = [&sum.rows[0], &sum.rows[1]];
        assert!(!host.absent && insert.absent);
        assert!(sum.presumed_absent(insert.handle) && !sum.presumed_absent(host.handle));
        assert!(!sum.fetch_derives);
        let p = [Value::Int(3)];
        assert_eq!(sum.counter_host(0, &p), Some(ObjectId::new(A, 3)));
        assert_eq!(sum.fetch_list(&p, &[]), vec![ObjectId::new(A, 3)]);
        assert_eq!(sum.fetch_list(&p, &[Some(41)]), vec![ObjectId::new(A, 3)]);
        assert_eq!(insert.object(&p, &[Some(41)]), Some(ObjectId::new(B, 3041)));
        // A mistyped parameter is skipped, not a panic.
        assert!(sum.fetch_list(&[Value::str("x")], &[]).is_empty());
    }

    #[test]
    fn set_only_updates_of_named_rows_are_fetched() {
        // Delivery's shape: a set-only update of a row a parameter (or a
        // constant) names is value-blind, but the row usually exists, so it
        // joins the initial fetch instead of being presumed absent.
        let mut b = ProgramBuilder::new("t", 1);
        let o = b.open_update(B, b.param(0));
        b.set(o, F, 1i64);
        let a = b.open_update(A, 4i64);
        b.set(a, F, 2i64);
        let sum = AccessSummary::of(&b.finish());
        assert!(sum.rows.iter().all(|r| !r.absent));
        assert_eq!(
            sum.fetch_list(&[Value::Int(9)], &[]),
            vec![ObjectId::new(B, 9), ObjectId::new(A, 4)]
        );
    }

    #[test]
    fn a_derived_valued_open_is_fetched_once_its_counter_is_known() {
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_update(A, b.param(0));
        let oid = b.get(d, F);
        let next = b.add(oid, 1i64);
        b.set(d, F, next);
        let o = b.open_read(B, oid);
        let _v = b.get(o, F);
        let flag = b.constant(true);
        b.cond(
            flag,
            |b| {
                let _ = b.open_read(C, 1i64);
            },
            |_| {},
        );
        let sum = AccessSummary::of(&b.finish());
        assert!(sum.fetch_derives);
        assert_eq!(sum.counters.len(), 1);
        assert_eq!(sum.counters[0].reg, oid);
        let params = [Value::Int(3)];
        assert_eq!(
            sum.fetch_list(&params, &[None]),
            vec![ObjectId::new(A, 3)],
            "the derived open waits for its counter; the Cond-nested one has no row"
        );
        assert_eq!(
            sum.fetch_list(&params, &[Some(41)]),
            vec![ObjectId::new(A, 3), ObjectId::new(B, 41)]
        );
        // Incomplete (the Cond): the scheduler never asks, and its lower
        // bound leaves the counter-derived row out.
        let r = sum.resolve_with(&params, &mut Unasked);
        assert!(!r.exact);
        assert_eq!(r.reads, vec![ObjectId::new(A, 3)]);
    }

    #[test]
    fn pure_var_chain_resolves_without_predictions() {
        let mut b = ProgramBuilder::new("t", 2);
        let x = b.compute(ComputeOp::Mul, [b.param(0).into(), 10i64.into()]);
        let y = b.add(x, b.param(1));
        let _o = b.open_update(C, y);
        let sum = AccessSummary::of(&b.finish());
        let r = sum.resolve_with(&[Value::Int(4), Value::Int(2)], &mut Unasked);
        assert!(r.exact);
        assert!(r.predicted.is_empty(), "no counter involved");
        assert_eq!(r.writes, vec![ObjectId::new(C, 42)]);
    }

    #[test]
    fn an_inexact_lower_bound_keeps_counter_free_var_chains() {
        // Allowed delta of the one-table fold: the pure chain's row counts
        // toward an inexact instance's sets (read only by the planner's
        // `pessimistic_edges` statistic under `InexactPolicy::Order`).
        let mut b = ProgramBuilder::new("t", 1);
        let x = b.compute(ComputeOp::Mul, [b.param(0).into(), 10i64.into()]);
        let _o = b.open_update(C, x);
        let a = b.open_read(A, b.param(0));
        let v = b.get(a, F);
        let _v2 = b.get(a, F);
        let _chase = b.open_read(B, v);
        let sum = AccessSummary::of(&b.finish());
        let r = sum.resolve_with(&[Value::Int(4)], &mut Unasked);
        assert!(!r.exact);
        assert_eq!(r.reads, vec![ObjectId::new(A, 4), ObjectId::new(C, 40)]);
        assert_eq!(r.writes, vec![ObjectId::new(C, 40)]);
    }

    #[test]
    fn counter_sites_no_index_reads_are_not_in_the_table() {
        // Allowed delta: A.F is a read-once, advance-by-one field, but no
        // index reads it — the oracle is never asked about it.
        let mut b = ProgramBuilder::new("t", 1);
        let d = b.open_update(A, b.param(0));
        let v = b.get(d, F);
        let next = b.add(v, 1i64);
        b.set(d, F, next);
        let sum = AccessSummary::of(&b.finish());
        assert!(sum.counters.is_empty());
        assert!(sum.resolve_with(&[Value::Int(1)], &mut Unasked).exact);
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
    fn a_row_that_fails_under_predictions_leaves_no_predicted_row_behind() {
        // Param 1 is a string: the B row fails to evaluate after the
        // counter was predicted. The instance is inexact and its sets rest
        // on no prediction.
        let mut b = ProgramBuilder::new("t", 2);
        let d = b.open_update(A, b.param(0));
        let oid = b.get(d, F);
        let _o = b.open_read(C, oid);
        let _bad = b.open_read(B, b.param(1));
        let sum = AccessSummary::of(&b.finish());
        let r = sum.resolve_with(&[Value::Int(3), Value::str("x")], &mut MapOracle::default());
        assert!(!r.exact);
        assert!(r.predicted.is_empty());
        assert_eq!(r.reads, vec![ObjectId::new(A, 3)]);
    }

    #[test]
    fn missing_param_degrades_instead_of_panicking() {
        let mut b = ProgramBuilder::new("t", 2);
        let _oa = b.open_read(A, b.param(1));
        let sum = AccessSummary::of(&b.finish());
        let r = sum.resolve_with(&[Value::Int(1)], &mut Unasked); // param 1 absent
        assert!(!r.exact);
        assert!(r.reads.is_empty());
    }
}
