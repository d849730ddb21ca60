//! Property tests for the durable write-ahead log.
//!
//! Two families of invariants keep crash-restart recovery honest:
//!
//! * **Codec exactness** — `decode(encode(r)) == r` for every record, and
//!   a framed log decodes back to itself with nothing torn. Recovery
//!   correctness is meaningless if the bytes round-trip lossily.
//! * **Prefix validity** — a crash can cut the log after *any* record, so
//!   replaying any prefix must yield a valid state: the exact left-fold
//!   intermediate of the full replay (versions never ahead of the full
//!   log, replies a literal prefix), and replay must be idempotent per
//!   dedup key so a log that was partially re-shipped applies once.
//!
//! The frame bytes themselves are pinned by golden strings, one per record
//! kind, and [`MemLog`]'s byte ring is checked against a `VecDeque` model
//! over runs long enough to compact its buffer many times.

use acn_dtm::{
    decode_stream, replay, FaultLog, FaultLogConfig, MemLog, Msg, Persistence, TxnId, WalRecord,
    FRAME_HDR,
};
use acn_simnet::NodeId;
use acn_txir::{FieldId, ObjClass, ObjectId, ObjectVal, Value};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

const CLASSES: [ObjClass; 3] = [
    ObjClass::new(0, "acct"),
    ObjClass::new(1, "order"),
    ObjClass::new(2, "item"),
];

/// Small object space (3 classes × 8 indices) so records collide on
/// objects and dedup keys actually repeat across a generated log.
fn obj(c: u8, i: u8) -> ObjectId {
    ObjectId::new(CLASSES[(c % 3) as usize], (i % 8) as u64)
}

fn txn(client: u8, seq: u8) -> TxnId {
    TxnId {
        client: NodeId((client % 4) as u32),
        seq: (seq % 16) as u64,
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        (0usize..4).prop_map(|i| Value::Str(["", "a", "wal", "torn tail"][i].into())),
    ]
}

fn objval_strategy() -> impl Strategy<Value = ObjectVal> {
    prop::collection::vec((0u16..4, value_strategy()), 0..3)
        .prop_map(|fields| ObjectVal::from_fields(fields.into_iter().map(|(f, v)| (FieldId(f), v))))
}

fn objs_strategy() -> impl Strategy<Value = Vec<ObjectId>> {
    prop::collection::vec((0u8..3, 0u8..8), 0..4).prop_map(|v| {
        let mut o: Vec<ObjectId> = v.iter().map(|&(c, i)| obj(c, i)).collect();
        o.sort_unstable();
        o.dedup();
        o
    })
}

fn writes_strategy() -> impl Strategy<Value = Vec<(ObjectId, u64, ObjectVal)>> {
    prop::collection::vec(((0u8..3, 0u8..8), 1u64..6, objval_strategy()), 0..4).prop_map(|v| {
        v.into_iter()
            .map(|((c, i), ver, val)| (obj(c, i), ver, val))
            .collect()
    })
}

fn record_strategy() -> BoxedStrategy<WalRecord> {
    let ids = || (0u8..4, 0u8..16, 0u64..32);
    prop_oneof![
        (ids(), objs_strategy()).prop_map(|((c, s, req), objs)| WalRecord::PrepareGrant {
            txn: txn(c, s),
            req,
            objs,
        }),
        (ids(), writes_strategy()).prop_map(|((c, s, req), writes)| WalRecord::CommitApply {
            txn: txn(c, s),
            req,
            writes,
        }),
        ids().prop_map(|(c, s, req)| WalRecord::Abort {
            txn: txn(c, s),
            req,
        }),
        (0u64..10).prop_map(|incarnation| WalRecord::IncarnationBump { incarnation }),
    ]
    .boxed()
}

fn log_strategy() -> impl Strategy<Value = Vec<WalRecord>> {
    prop::collection::vec(record_strategy(), 0..24)
}

fn frame_all(log: &[WalRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for rec in log {
        rec.frame_into(&mut bytes);
    }
    bytes
}

/// The shape of a replies list without needing `Msg: PartialEq`: the
/// dedup key plus the wire kind of the cached reply.
fn reply_shape(replies: &[((TxnId, u64), Msg)]) -> Vec<((TxnId, u64), u8)> {
    replies.iter().map(|(k, m)| (*k, m.kind())).collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One frame of each record kind, byte for byte: a change to the encoder
/// that moves a byte fails here before any stored log could misread.
#[test]
fn frame_bytes_are_pinned_for_every_record_kind() {
    let t = TxnId {
        client: NodeId(2),
        seq: 5,
    };
    let (acct3, order4) = (ObjectId::new(CLASSES[0], 3), ObjectId::new(CLASSES[1], 4));
    let rich = ObjectVal::from_fields([
        (FieldId(0), Value::Unit),
        (FieldId(1), Value::Int(-2)),
        (FieldId(2), Value::Bool(true)),
        (FieldId(3), Value::str("ab")),
    ]);
    // Header (`len: u32`, `crc: u64`) and tag, then client and seq of the
    // txn, req, a count, and per item its class, index (and for a write its
    // version, field count and `field, value-tag, value` triples), all
    // little-endian.
    let golden = [
        (
            WalRecord::PrepareGrant {
                txn: t,
                req: 7,
                objs: vec![acct3, order4],
            },
            concat!(
                "2d000000 0d5f29b82256d242 01 ",
                "02000000 0500000000000000 0700000000000000 02000000 ",
                "0000 0300000000000000 0100 0400000000000000",
            ),
        ),
        (
            WalRecord::CommitApply {
                txn: t,
                req: 8,
                writes: vec![(acct3, 6, rich)],
            },
            concat!(
                "4a000000 1e77540c4a2e6aa6 02 ",
                "02000000 0500000000000000 0800000000000000 01000000 ",
                "0000 0300000000000000 0600000000000000 04000000 ",
                "0000 00 0100 01 feffffffffffffff 0200 02 01 0300 03 02000000 6162",
            ),
        ),
        (
            WalRecord::Abort { txn: t, req: 9 },
            concat!(
                "15000000 bddbc42e8216f110 03 ",
                "02000000 0500000000000000 0900000000000000",
            ),
        ),
        (
            WalRecord::IncarnationBump { incarnation: 3 },
            "09000000 4d531846c6f0ea7c 04 0300000000000000",
        ),
    ];
    for (rec, want) in golden {
        let mut frame = Vec::new();
        rec.frame_into(&mut frame);
        assert_eq!(hex(&frame), want.replace(' ', ""), "{rec:?}");
        assert_eq!(hex(&frame[FRAME_HDR..]), hex(&rec.encode()));
    }
}

/// One step of the [`MemLog`] model test.
#[derive(Debug, Clone)]
enum RingOp {
    Append(WalRecord),
    Load,
    Reset,
}

fn ring_ops_strategy() -> impl Strategy<Value = Vec<RingOp>> {
    // Mostly appends: one op in ten loads, one in forty resets.
    let op = (0u8..40, record_strategy()).prop_map(|(roll, rec)| match roll {
        0 => RingOp::Reset,
        1..=4 => RingOp::Load,
        _ => RingOp::Append(rec),
    });
    prop::collection::vec(op, 40..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Framing appends to whatever the buffer already holds: two records
    /// framed after arbitrary leading bytes decode back from where the
    /// first frame starts.
    #[test]
    fn frames_append_to_a_non_empty_buffer(
        junk in prop::collection::vec(any::<u8>(), 1..16),
        a in record_strategy(),
        b in record_strategy(),
    ) {
        let mut bytes = junk.clone();
        a.frame_into(&mut bytes);
        b.frame_into(&mut bytes);
        let (records, good, torn) = decode_stream(&bytes[junk.len()..]);
        prop_assert_eq!(records, vec![a, b]);
        prop_assert_eq!(good, bytes.len() - junk.len());
        prop_assert!(!torn);
    }

    /// The byte ring against a `VecDeque` model: after every operation
    /// `load` is the last `cap` records appended since the last reset, in
    /// order, and `reset` empties it. Runs are long enough to evict and
    /// compact many times over.
    #[test]
    fn memlog_ring_keeps_the_last_cap_records(cap in 1usize..8, ops in ring_ops_strategy()) {
        let mut wal = MemLog::with_capacity(cap);
        let mut model: VecDeque<WalRecord> = VecDeque::new();
        for op in ops {
            match op {
                RingOp::Append(rec) => {
                    wal.append(&rec).unwrap();
                    if model.len() == cap {
                        model.pop_front();
                    }
                    model.push_back(rec);
                }
                RingOp::Load => {
                    let loaded = wal.load();
                    prop_assert_eq!(loaded.torn_tails_truncated, 0);
                    prop_assert_eq!(&loaded.records, &Vec::from(model.clone()));
                }
                RingOp::Reset => {
                    wal.reset();
                    model.clear();
                    prop_assert!(wal.is_empty());
                }
            }
            prop_assert_eq!(wal.len(), model.len());
        }
        prop_assert_eq!(wal.load().records, Vec::from(model));
        wal.reset();
        prop_assert!(wal.load().records.is_empty());
    }

    /// Every record kind survives encode→decode exactly.
    #[test]
    fn codec_round_trips_exactly(rec in record_strategy()) {
        let payload = rec.encode();
        prop_assert_eq!(WalRecord::decode(&payload), Some(rec));
    }

    /// A whole framed log decodes back to itself: same records, every
    /// byte consumed, nothing reported torn.
    #[test]
    fn framed_log_decodes_whole_and_untorn(log in log_strategy()) {
        let bytes = frame_all(&log);
        let (records, good, torn) = decode_stream(&bytes);
        prop_assert_eq!(records, log);
        prop_assert_eq!(good, bytes.len());
        prop_assert!(!torn);
    }

    /// The in-memory ring is a faithful log: load returns exactly what
    /// was appended, in order, with no torn tail — and reset empties it.
    #[test]
    fn memlog_loads_exactly_what_was_appended(log in log_strategy()) {
        let mut wal = MemLog::new();
        for rec in &log {
            wal.append(rec).unwrap();
        }
        let loaded = wal.load();
        prop_assert_eq!(loaded.records, log);
        prop_assert_eq!(loaded.torn_tails_truncated, 0);
        wal.reset();
        prop_assert!(wal.load().records.is_empty());
    }

    /// Replaying any prefix of a valid log is a valid state: the exact
    /// left-fold intermediate of the full replay. Versions never run
    /// ahead of the full log, the replies list is a literal prefix, and
    /// no cut point panics.
    #[test]
    fn any_prefix_replays_to_a_valid_state(log in log_strategy(), cut in any::<u16>()) {
        let cut = cut as usize % (log.len() + 1);
        let pre = replay(log[..cut].to_vec());
        let full = replay(log.clone());
        prop_assert!(pre.records <= cut as u64);
        prop_assert!(pre.incarnation <= full.incarnation);
        let full_versions: HashMap<_, _> = full.store.known_versions().into_iter().collect();
        for (o, v) in pre.store.known_versions() {
            let fv = full_versions.get(&o).copied();
            prop_assert!(Some(v) <= fv, "prefix ahead of full log on {o:?}: {v} > {fv:?}");
        }
        let shape = reply_shape(&pre.replies);
        prop_assert_eq!(shape.as_slice(), &reply_shape(&full.replies)[..shape.len()]);
        // Everything still prepared after the prefix is either decided
        // later in the log or still prepared at its end.
        for t in pre.prepared.keys() {
            let decided_later = log[cut..].iter().any(|r| matches!(
                r,
                WalRecord::CommitApply { txn, .. } | WalRecord::Abort { txn, .. } if txn == t
            ));
            prop_assert!(decided_later || full.prepared.contains_key(t));
        }
    }

    /// Group-commit equivalence: a group-committed log crashed at *any*
    /// point recovers byte-identically to the same workload logged with
    /// `EveryRecord` and crashed at the last sync boundary — the unsynced
    /// suffix is the only thing group commit puts at risk.
    #[test]
    fn group_commit_crash_recovers_to_the_last_sync_boundary(
        log in log_strategy(),
        group in 1usize..6,
        cut in any::<u16>(),
    ) {
        let cut = cut as usize % (log.len() + 1);
        let lossy = || FaultLogConfig {
            lose_unsynced_on_restart: true,
            ..FaultLogConfig::default()
        };
        // Group-committed: sync every `group`-th append, crash after `cut`
        // appends, restart drops whatever no sync covered.
        let mut gc = FaultLog::new(Box::new(MemLog::new()), lossy());
        for (i, rec) in log[..cut].iter().enumerate() {
            gc.append(rec).unwrap();
            if (i + 1) % group == 0 {
                gc.sync().unwrap();
            }
        }
        let survived = gc.load().records;
        // EveryRecord: every append synced, crashed at the boundary the
        // group-committed log's last sync covered.
        let boundary = (cut / group) * group;
        let mut er = FaultLog::new(Box::new(MemLog::new()), lossy());
        for rec in &log[..boundary] {
            er.append(rec).unwrap();
            er.sync().unwrap();
        }
        let reference = er.load().records;
        prop_assert_eq!(&survived, &reference);
        let a = replay(survived.clone());
        let b = replay(reference.clone());
        prop_assert_eq!(a.store.digest(), b.store.digest());
        let mut av = a.store.known_versions();
        let mut bv = b.store.known_versions();
        av.sort_unstable();
        bv.sort_unstable();
        prop_assert_eq!(av, bv);
        prop_assert_eq!(a.prepared, b.prepared);
        prop_assert_eq!(a.incarnation, b.incarnation);
        prop_assert_eq!(reply_shape(&a.replies), reply_shape(&b.replies));
    }

    /// Replay is idempotent per dedup key: a log that was re-shipped in
    /// full (`log + log`) produces the same store, prepared table and
    /// incarnation as one copy.
    #[test]
    fn replaying_a_log_twice_equals_once(log in log_strategy()) {
        let once = replay(log.clone());
        let mut twice_input = log.clone();
        twice_input.extend(log.clone());
        let twice = replay(twice_input);
        prop_assert_eq!(once.store.digest(), twice.store.digest());
        prop_assert_eq!(once.prepared, twice.prepared);
        prop_assert_eq!(once.incarnation, twice.incarnation);
        prop_assert_eq!(reply_shape(&once.replies), reply_shape(&twice.replies));
    }
}
