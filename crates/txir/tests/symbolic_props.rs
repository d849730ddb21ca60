//! Oracle property tests for the symbolic access resolver.
//!
//! [`AccessSummary::resolve_with`] claims its resolved read/write sets are
//! the *complete* object sets of an instance whenever the table is complete
//! and the counter oracle answers. These tests pit that claim
//! against a concrete reference interpreter: build a random template out of
//! the shapes the resolver reasons about (static opens, hot-counter index
//! chains, pure parameter arithmetic, pointer chases, `Cond`-nested opens),
//! run each instance against a plain key-value store, and compare.
//!
//!   * resolver claims `exact` → resolved reads/writes **equal** the
//!     observed opens, every predicted counter read matches the value the
//!     interpreter actually saw, and the executor's reading of the same
//!     rows under the same counter values — fetch list ∪ rows presumed
//!     absent — is that read set too;
//!   * resolver stays inexact → resolved sets are a **subset** of the
//!     observed opens (the prediction-free rows never over-claim). This is
//!     also the bound the separate `static_resolve_is_always_a_subset`
//!     property used to put on `AccessSummary::resolve`, which is gone.
//!
//! The oracle is the production shape: a cursor map seeded from the store
//! on first touch and advanced by `delta` per prediction, shared across a
//! whole sequence of instances — exactly how the batch coordinator chains
//! predictions through a wave.

use acn_txir::{
    AccessMode, AccessSummary, ComputeOp, CounterOracle, CounterSite, FieldId, ObjClass, ObjectId,
    Operand, Program, ProgramBuilder, Stmt, Value, VarId,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const CLASSES: [ObjClass; 4] = [
    ObjClass::new(0, "c0"),
    ObjClass::new(1, "c1"),
    ObjClass::new(2, "c2"),
    ObjClass::new(3, "c3"),
];
/// The counter field and a scratch field that never hosts a used counter.
const CTR: FieldId = FieldId(0);
const AUX: FieldId = FieldId(1);
const PARAMS: u16 = 8;

/// One generated fragment of a template. Every shape the resolver
/// classifies is represented, including the ones it must refuse.
#[derive(Debug, Clone)]
enum Piece {
    /// `open(class, param(p))` — statically resolvable.
    Static { class: u8, p: u8, write: bool },
    /// The NewOrder shape: `open_update(host, param(p))`, read `CTR`,
    /// advance it by `delta`, then `open(target, param(q)*mul + ctr)`.
    Counter {
        host: u8,
        p: u8,
        delta: i8,
        target: u8,
        q: u8,
        mul: u8,
        write: bool,
    },
    /// Pure arithmetic chain: `open(class, param(p)*mul + off)`.
    Pure { class: u8, p: u8, mul: u8, off: u8 },
    /// An unqualified read-modify-write on `AUX` of a static open. The
    /// field qualifies as an (unused) counter; no index depends on it, so
    /// it must not disturb exactness.
    Rmw { class: u8, p: u8, delta: i8 },
    /// Pointer chase: two reads of the same field disqualify the counter,
    /// so the dependent open is unresolvable and the template inexact.
    Chase { host: u8, p: u8, target: u8 },
    /// A `Cond`-nested open — may or may not run, so the template is
    /// incomplete and the resolver must stay at the sound static subset.
    CondOpen { class: u8, idx: u8, taken: bool },
}

fn build(pieces: &[Piece]) -> Program {
    let mut b = ProgramBuilder::new("prop", PARAMS);
    for piece in pieces {
        match *piece {
            Piece::Static { class, p, write } => {
                let class = CLASSES[(class % 4) as usize];
                let idx = b.param((p % PARAMS as u8) as u16);
                if write {
                    b.open_update(class, idx);
                } else {
                    b.open_read(class, idx);
                }
            }
            Piece::Counter {
                host,
                p,
                delta,
                target,
                q,
                mul,
                write,
            } => {
                let host = CLASSES[(host % 4) as usize];
                let target = CLASSES[(target % 4) as usize];
                let d = b.open_update(host, b.param((p % PARAMS as u8) as u16));
                let ctr = b.get(d, CTR);
                let next = b.add(ctr, delta as i64);
                b.set(d, CTR, next);
                let base = b.compute(
                    ComputeOp::Mul,
                    [
                        b.param((q % PARAMS as u8) as u16).into(),
                        (mul as i64).into(),
                    ],
                );
                let idx = b.add(base, ctr);
                if write {
                    b.open_update(target, idx);
                } else {
                    b.open_read(target, idx);
                }
            }
            Piece::Pure { class, p, mul, off } => {
                let class = CLASSES[(class % 4) as usize];
                let base = b.compute(
                    ComputeOp::Mul,
                    [
                        b.param((p % PARAMS as u8) as u16).into(),
                        (mul as i64).into(),
                    ],
                );
                let idx = b.add(base, off as i64);
                b.open_read(class, idx);
            }
            Piece::Rmw { class, p, delta } => {
                let class = CLASSES[(class % 4) as usize];
                let o = b.open_update(class, b.param((p % PARAMS as u8) as u16));
                let v = b.get(o, AUX);
                let next = b.add(v, delta as i64);
                b.set(o, AUX, next);
            }
            Piece::Chase { host, p, target } => {
                let host = CLASSES[(host % 4) as usize];
                let target = CLASSES[(target % 4) as usize];
                let h = b.open_read(host, b.param((p % PARAMS as u8) as u16));
                let v = b.get(h, CTR);
                let _again = b.get(h, CTR);
                b.open_read(target, v);
            }
            Piece::CondOpen { class, idx, taken } => {
                let class = CLASSES[(class % 4) as usize];
                let flag = b.constant(taken);
                b.cond(
                    flag,
                    |b| {
                        let o = b.open_update(class, (idx % 8) as i64);
                        b.set(o, AUX, 1i64);
                    },
                    |_| {},
                );
            }
        }
    }
    b.finish()
}

type Store = BTreeMap<(u16, u64, u16), i64>;

fn store_key(obj: ObjectId, field: FieldId) -> (u16, u64, u16) {
    (obj.class.id, obj.index, field.0)
}

/// What one reference-interpreted instance actually touched.
#[derive(Debug, Default)]
struct Observed {
    reads: BTreeSet<ObjectId>,
    writes: BTreeSet<ObjectId>,
    /// Value each `(obj, CTR/AUX)` GetField returned, in execution order —
    /// the ground truth predictions must match.
    field_reads: Vec<(ObjectId, FieldId, i64)>,
}

/// Execute one instance sequentially against `store` (the single-threaded
/// ground truth: buffered writes apply immediately, fields default to 0).
fn interpret(program: &Program, params: &[Value], store: &mut Store) -> Observed {
    let mut regs: BTreeMap<VarId, Value> = BTreeMap::new();
    let mut handles: BTreeMap<VarId, ObjectId> = BTreeMap::new();
    let mut obs = Observed::default();

    fn operand(op: &Operand, regs: &BTreeMap<VarId, Value>, params: &[Value]) -> Value {
        match op {
            Operand::Const(v) => v.clone(),
            Operand::Param(p) => params[p.0 as usize].clone(),
            Operand::Var(v) => regs.get(v).expect("SSA: use after def").clone(),
        }
    }

    fn run(
        stmts: &[Stmt],
        regs: &mut BTreeMap<VarId, Value>,
        handles: &mut BTreeMap<VarId, ObjectId>,
        obs: &mut Observed,
        params: &[Value],
        store: &mut Store,
    ) {
        for s in stmts {
            match s {
                Stmt::Open {
                    var,
                    class,
                    index,
                    mode,
                } => {
                    let idx = operand(index, regs, params).as_int().expect("int index");
                    let obj = ObjectId::new(*class, idx as u64);
                    obs.reads.insert(obj);
                    if *mode == AccessMode::Update {
                        obs.writes.insert(obj);
                    }
                    handles.insert(*var, obj);
                }
                Stmt::GetField { var, obj, field } => {
                    let target = handles[obj];
                    let v = *store.entry(store_key(target, *field)).or_insert(0);
                    obs.field_reads.push((target, *field, v));
                    regs.insert(*var, Value::Int(v));
                }
                Stmt::SetField { obj, field, value } => {
                    let target = handles[obj];
                    let v = operand(value, regs, params).as_int().expect("int field");
                    store.insert(store_key(target, *field), v);
                }
                Stmt::Compute { out, op, ins } => {
                    let args: Vec<Value> = ins.iter().map(|i| operand(i, regs, params)).collect();
                    regs.insert(*out, op.eval(&args).expect("generated ops are total"));
                }
                Stmt::Cond {
                    pred,
                    then_br,
                    else_br,
                } => {
                    let taken = operand(pred, regs, params).as_bool().expect("bool pred");
                    let br = if taken { then_br } else { else_br };
                    run(br, regs, handles, obs, params, store);
                }
            }
        }
    }
    run(
        &program.stmts,
        &mut regs,
        &mut handles,
        &mut obs,
        params,
        store,
    );
    obs
}

/// The production predictor shape: per-counter cursors seeded from the
/// store on first touch, advanced by `delta` per prediction.
struct StoreCursorOracle<'a> {
    store: &'a Store,
    cursors: BTreeMap<(u16, u64, u16), i64>,
}

impl CounterOracle for StoreCursorOracle<'_> {
    fn predict(&mut self, site: &CounterSite) -> Option<i64> {
        let key = store_key(site.obj, site.field);
        let e = self
            .cursors
            .entry(key)
            .or_insert_with(|| self.store.get(&key).copied().unwrap_or(0));
        let v = *e;
        *e += site.delta;
        Some(v)
    }
}

fn piece_strategy() -> impl Strategy<Value = Piece> {
    prop_oneof![
        (0u8..4, 0u8..8, any::<bool>()).prop_map(|(class, p, write)| Piece::Static {
            class,
            p,
            write
        }),
        (
            (0u8..4, 0u8..8, -2i8..3),
            (0u8..4, 0u8..8, 1u8..32, any::<bool>())
        )
            .prop_map(
                |((host, p, delta), (target, q, mul, write))| Piece::Counter {
                    host,
                    p,
                    delta,
                    target,
                    q,
                    mul,
                    write,
                }
            ),
        (0u8..4, 0u8..8, 1u8..32, 0u8..16).prop_map(|(class, p, mul, off)| Piece::Pure {
            class,
            p,
            mul,
            off
        }),
        (0u8..4, 0u8..8, -2i8..3).prop_map(|(class, p, delta)| Piece::Rmw { class, p, delta }),
        (0u8..4, 0u8..8, 0u8..4).prop_map(|(host, p, target)| Piece::Chase { host, p, target }),
        (0u8..4, 0u8..8, any::<bool>()).prop_map(|(class, idx, taken)| Piece::CondOpen {
            class,
            idx,
            taken
        }),
    ]
}

type Case = (Vec<Piece>, Vec<Vec<i64>>, Vec<((u8, u8), i64)>);

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(piece_strategy(), 1..7),
        prop::collection::vec(prop::collection::vec(0i64..8, PARAMS as usize), 1..5),
        prop::collection::vec(((0u8..4, 0u8..8), 0i64..50), 0..6),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The central oracle property: predicted-exact instances resolve the
    /// *true* access sets; inexact ones never over-claim. Instances run
    /// sequentially against one store with one shared cursor oracle, the
    /// way a batch wave chains predictions.
    #[test]
    fn resolved_sets_match_the_reference_interpreter(case in case_strategy()) {
        let (pieces, instances, seeds) = case;
        let program = build(&pieces);
        let summary = AccessSummary::of(&program);

        let mut store: Store = Store::new();
        for ((class, idx), v) in seeds {
            let obj = ObjectId::new(CLASSES[(class % 4) as usize], (idx % 8) as u64);
            store.insert(store_key(obj, CTR), v);
        }
        let seeded = store.clone();
        let mut oracle = StoreCursorOracle {
            store: &seeded,
            cursors: BTreeMap::new(),
        };

        for params_raw in &instances {
            let params: Vec<Value> = params_raw.iter().map(|&v| Value::Int(v)).collect();
            let resolved = summary.resolve_with(&params, &mut oracle);
            let observed = interpret(&program, &params, &mut store);

            let obs_reads: Vec<ObjectId> = observed.reads.iter().copied().collect();
            let obs_writes: Vec<ObjectId> = observed.writes.iter().copied().collect();
            if resolved.exact {
                prop_assert_eq!(
                    &resolved.reads, &obs_reads,
                    "exact read set must equal the interpreter's:\n{}", program
                );
                prop_assert_eq!(
                    &resolved.writes, &obs_writes,
                    "exact write set must equal the interpreter's:\n{}", program
                );
                // Every prediction the schedule leaned on must be the value
                // the instance actually read.
                for pred in &resolved.predicted {
                    prop_assert!(
                        observed
                            .field_reads
                            .iter()
                            .any(|&(o, f, v)| o == pred.obj && f == pred.field && v == pred.value),
                        "prediction {:?} never observed (reads: {:?})\n{}",
                        pred, observed.field_reads, program
                    );
                }
                // The executor reads the same rows: what it fetches ahead
                // plus what it opens with no fetch is the same read set.
                let counters: Vec<Option<i64>> =
                    resolved.predicted.iter().map(|p| Some(p.value)).collect();
                let mut executor: BTreeSet<ObjectId> =
                    summary.fetch_list(&params, &counters).into_iter().collect();
                let absent = summary.rows.iter().filter(|r| r.absent);
                executor.extend(absent.filter_map(|r| r.object(&params, &counters)));
                prop_assert_eq!(
                    executor.into_iter().collect::<Vec<_>>(), obs_reads,
                    "fetched ∪ presumed absent must equal the read set:\n{}", program
                );
            } else {
                prop_assert!(resolved.predicted.is_empty(),
                    "inexact instances carry no predictions");
                for r in &resolved.reads {
                    prop_assert!(obs_reads.contains(r),
                        "inexact read set must under-approximate:\n{}", program);
                }
                for w in &resolved.writes {
                    prop_assert!(obs_writes.contains(w),
                        "inexact write set must under-approximate:\n{}", program);
                }
            }
        }
    }
}
