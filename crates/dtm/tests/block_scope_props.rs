//! A closed-nested Block is a scope on the one `TxnCtx`. Random operation
//! sequences on an offline client are checked against a two-layer model —
//! a parent layer and an optional child overlay that merges into it on
//! commit and is dropped on abort — which is what closed nesting *means*,
//! independent of how the context represents it.

use acn_dtm::{
    AbortScope, ClientConfig, Cluster, ClusterConfig, DtmClient, Msg, SpecCache, TxnCtx,
};
use acn_quorum::{DaryTree, LevelQuorums};
use acn_simnet::{LatencyModel, Network, NodeId};
use acn_txir::{FieldId, ObjClass, ObjectId, ObjectVal, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const ROW: ObjClass = ObjClass::new(7, "Row");
const F: FieldId = FieldId(0);
/// Objects `0..UNIVERSE`; the first `CACHED` have a speculative copy, so an
/// `open_spec` of them hits, and every other first open needs the network.
const UNIVERSE: u64 = 6;
const CACHED: u64 = 3;

fn obj(i: u64) -> ObjectId {
    ObjectId::new(ROW, i)
}

/// A client whose only server is down: a remote round fails at once as
/// `Unavailable` and leaves the context untouched.
fn offline_client() -> DtmClient {
    let net: Network<Msg> = Network::new(2, LatencyModel::Zero);
    net.fail(NodeId(0));
    let quorums = LevelQuorums::new(DaryTree::ternary(1));
    DtmClient::new(
        net.clone(),
        net.endpoint(NodeId(1)),
        quorums,
        ClientConfig::default(),
    )
}

fn cache() -> SpecCache {
    (0..CACHED)
        .map(|i| {
            let value = ObjectVal::from_fields([(F, Value::Int(100 + i as i64))]);
            (obj(i), 10 + i, value)
        })
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    Open(u64, bool),
    OpenSpec(u64, bool),
    OpenBlind(u64, bool),
    Set(u64, i64),
    Classify(Vec<u64>),
    Begin,
    Commit,
    Abort,
}

fn op() -> impl Strategy<Value = Op> {
    let o = || 0..UNIVERSE;
    // Cache hits and writes are listed twice: they are what builds state.
    prop_oneof![
        (o(), any::<bool>()).prop_map(|(o, u)| Op::Open(o, u)),
        (o(), any::<bool>()).prop_map(|(o, u)| Op::OpenSpec(o, u)),
        (o(), any::<bool>()).prop_map(|(o, u)| Op::OpenSpec(o, u)),
        (o(), any::<bool>()).prop_map(|(o, u)| Op::OpenBlind(o, u)),
        (o(), -50i64..50).prop_map(|(o, v)| Op::Set(o, v)),
        (o(), -50i64..50).prop_map(|(o, v)| Op::Set(o, v)),
        proptest::collection::vec(o(), 0..3).prop_map(Op::Classify),
        Just(Op::Begin),
        Just(Op::Commit),
        Just(Op::Abort),
    ]
}

/// Everything a caller can see of a context, over the whole universe.
#[derive(Debug, Clone, PartialEq, Default)]
struct Seen {
    reads: Vec<(ObjectId, u64)>,
    values: BTreeMap<ObjectId, Value>,
    writes: BTreeSet<ObjectId>,
}

fn see(ctx: &TxnCtx) -> Seen {
    let objs = (0..UNIVERSE).map(obj);
    Seen {
        reads: ctx.read_set().to_vec(),
        values: objs
            .clone()
            .filter(|&o| ctx.has_read(o))
            .map(|o| (o, ctx.get_field(o, F)))
            .collect(),
        writes: objs.filter(|&o| ctx.has_write(o)).collect(),
    }
}

/// The model: a parent layer and, while a Block runs, a child overlay.
#[derive(Debug, Default)]
struct Model {
    parent: Seen,
    child: Option<Seen>,
}

impl Model {
    fn top(&mut self) -> &mut Seen {
        self.child.as_mut().unwrap_or(&mut self.parent)
    }

    fn child_read(&self, o: ObjectId) -> bool {
        (self.child.iter().flat_map(|c| &c.reads)).any(|r| r.0 == o)
    }

    fn has_read(&self, o: ObjectId) -> bool {
        self.parent.reads.iter().any(|r| r.0 == o) || self.child_read(o)
    }

    fn has_write(&self, o: ObjectId) -> bool {
        self.parent.writes.contains(&o) || self.child.iter().any(|c| c.writes.contains(&o))
    }

    /// A first read lands in the running child, else in the parent; `true`
    /// if it was one.
    fn install(&mut self, o: ObjectId, version: u64, value: i64) -> bool {
        let first = !self.has_read(o);
        if first {
            self.top().reads.push((o, version));
            self.top().values.insert(o, Value::Int(value));
        }
        first
    }

    /// Apply a data operation; `true` if it installed a blind copy.
    fn apply(&mut self, op: &Op) -> bool {
        let (o, update, installed) = match *op {
            Op::Open(o, update) => (o, update, false),
            Op::OpenSpec(o, update) => {
                if o < CACHED {
                    self.install(obj(o), 10 + o, 100 + o as i64);
                }
                (o, update, false)
            }
            Op::OpenBlind(o, update) => (o, update, self.install(obj(o), 0, 0)),
            // A write inside a child goes to its overlay, not the parent.
            Op::Set(o, v) => {
                self.top().values.insert(obj(o), Value::Int(v));
                return false;
            }
            _ => unreachable!("not a data operation"),
        };
        // The tail every open shares: an unread object would need the
        // network (down: no effect at all); a read one records the intent.
        if update && self.has_read(obj(o)) {
            self.top().writes.insert(obj(o));
        }
        installed
    }

    fn commit_block(&mut self) {
        let child = self.child.take().expect("open child");
        self.parent.reads.extend(child.reads);
        self.parent.values.extend(child.values);
        self.parent.writes.extend(child.writes);
    }

    fn classify(&self, invalid: &[ObjectId]) -> AbortScope {
        if !invalid.is_empty() && invalid.iter().all(|&o| self.child_read(o)) {
            AbortScope::Child
        } else {
            AbortScope::Parent
        }
    }

    /// The parent with the child's overlay on top.
    fn seen(&self) -> Seen {
        let mut s = self.parent.clone();
        if let Some(c) = self.child.clone() {
            s.reads.extend(c.reads);
            s.values.extend(c.values);
            s.writes.extend(c.writes);
        }
        s
    }
}

/// Apply a data operation to a real context; `true` if it installed a
/// blind copy.
fn apply(ctx: &mut TxnCtx, client: &mut DtmClient, cache: &SpecCache, op: &Op) -> bool {
    match *op {
        Op::Open(o, update) => {
            let _ = ctx.open(client, obj(o), update);
        }
        Op::OpenSpec(o, update) => {
            let _ = ctx.open_spec(client, obj(o), update, cache);
        }
        Op::OpenBlind(o, update) => return ctx.open_blind(obj(o), update),
        Op::Set(o, v) => ctx.set_field(obj(o), F, Value::Int(v)),
        _ => unreachable!("not a data operation"),
    }
    false
}

proptest! {
    #[test]
    fn a_block_scope_behaves_as_a_child_overlay(ops in proptest::collection::vec(op(), 0..40)) {
        let mut client = offline_client();
        let cache = cache();
        let mut ctx = TxnCtx::begin(&mut client);
        let mut model = Model::default();
        // What `begin_block` found, and the data operations that survive
        // (those outside a Block or inside a committed one).
        let mut at_begin = Seen::default();
        let mut kept: Vec<Op> = Vec::new();
        let mut kept_at_begin = 0;

        for op in &ops {
            match op {
                Op::Begin if model.child.is_none() => {
                    at_begin = see(&ctx);
                    kept_at_begin = kept.len();
                    ctx.begin_block();
                    model.child = Some(Seen::default());
                }
                Op::Commit if model.child.is_some() => {
                    ctx.commit_block();
                    model.commit_block();
                    // The same as never having opened a scope.
                    let mut flat = TxnCtx::begin(&mut client);
                    for op in &kept {
                        apply(&mut flat, &mut client, &cache, op);
                    }
                    prop_assert_eq!(see(&ctx), see(&flat), "commit_block after {:?}", kept);
                }
                Op::Abort if model.child.is_some() => {
                    ctx.abort_block();
                    model.child = None;
                    kept.truncate(kept_at_begin);
                    prop_assert_eq!(see(&ctx), at_begin.clone(), "abort_block restores");
                }
                Op::Begin | Op::Commit | Op::Abort => {}
                Op::Classify(invalid) => {
                    let invalid: Vec<ObjectId> = invalid.iter().map(|&o| obj(o)).collect();
                    prop_assert_eq!(ctx.classify(&invalid), model.classify(&invalid));
                }
                // A write needs the object opened for update.
                Op::Set(o, _) if !model.has_write(obj(*o)) => {}
                data => {
                    let installed = apply(&mut ctx, &mut client, &cache, data);
                    prop_assert_eq!(installed, model.apply(data), "{:?}", data);
                    kept.push(data.clone());
                }
            }
            prop_assert_eq!(see(&ctx), model.seen(), "after {:?}", op);
        }
    }
}

/// `abort_block` clamps the validated watermarks to the mark at once. Seen
/// from outside as validation entries shipped: a read position the aborted
/// Block had validated is reused by the re-run, and the next fetch round
/// must present the new occupant.
#[test]
fn abort_block_unvalidates_the_positions_it_frees() {
    let cluster = Cluster::start(ClusterConfig::test(4, 1));
    let mut client = cluster.client(0);
    let members = LevelQuorums::new(DaryTree::ternary(4)).read_quorum_size() as u64;
    let mut shipped = {
        let mut at = 0;
        move |client: &DtmClient| {
            let now = client.stats().validate_entries_sent;
            let delta = now - at;
            at = now;
            delta / members
        }
    };

    let mut ctx = TxnCtx::begin(&mut client);
    ctx.open_batch(&mut client, &[obj(0)]).unwrap();
    assert_eq!(shipped(&client), 0, "empty read-set");
    ctx.begin_block();
    ctx.open_batch(&mut client, &[obj(1)]).unwrap();
    assert_eq!(shipped(&client), 1, "obj 0");
    ctx.open_batch(&mut client, &[obj(2)]).unwrap();
    assert_eq!(shipped(&client), 1, "obj 1 — position 1 is now validated");
    ctx.abort_block();

    ctx.begin_block();
    ctx.open_batch(&mut client, &[obj(3)]).unwrap();
    assert_eq!(shipped(&client), 0, "obj 0 is still validated");
    ctx.open_batch(&mut client, &[obj(4)]).unwrap();
    assert_eq!(shipped(&client), 1, "obj 3 took position 1: validate it");
    ctx.commit_block();
    ctx.commit(&mut client).unwrap();
    cluster.shutdown();
}
