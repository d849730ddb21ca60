//! The event stream is the only source of counts: for any sequence of
//! events, the executor counters ([`ExecStats::on_event`]) and the abort
//! attribution ([`TxnObserver::on_event`]) agree to the unit.

use acn_obs::{AbortKind, ExecStats, TxnEvent, TxnObserver};
use acn_txir::{ObjClass, ObjectId};
use proptest::prelude::*;

const KINDS: [AbortKind; 11] = [
    AbortKind::Partial,
    AbortKind::ReadInvalid,
    AbortKind::CommitConflict,
    AbortKind::LockedOut,
    AbortKind::Escalated,
    AbortKind::SyncRefused,
    AbortKind::WalRefused,
    AbortKind::SpecPartial,
    AbortKind::SpecFull,
    AbortKind::SpecMispredict,
    AbortKind::AliasedOpen,
];

/// Any event an executor can emit. Lock-outs are full restarts only, as in
/// the executor: a child scope never escalates a `protected` read.
fn event() -> impl Strategy<Value = TxnEvent> {
    (
        0u8..8,
        0u32..7,
        (0u16..4, 0u64..8, any::<bool>()),
        0usize..KINDS.len(),
    )
        .prop_map(|(tag, b, (class, index, blamed), k)| {
            let block = b.checked_sub(1);
            let obj = blamed.then(|| ObjectId::new(ObjClass::new(class, "C"), index));
            match tag {
                0 => TxnEvent::Begin,
                1 => TxnEvent::BlockStart { block: b },
                2 => TxnEvent::BatchedRead { block, objs: b + 1 },
                3 => TxnEvent::LockHolds {
                    block,
                    holds: b + 1,
                },
                4 => TxnEvent::PartialAbort {
                    block: b,
                    obj,
                    kind: match KINDS[k] {
                        AbortKind::LockedOut => AbortKind::Partial,
                        kind => kind,
                    },
                },
                5 => TxnEvent::FullAbort {
                    block,
                    obj,
                    kind: KINDS[k],
                },
                6 => TxnEvent::UnavailableRetry,
                _ => TxnEvent::Commit { restarts: b },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counters_and_attribution_agree_on_any_event_stream(
        events in prop::collection::vec(event(), 0..300),
    ) {
        let mut stats = ExecStats::default();
        let mut obs = TxnObserver::default();
        for &ev in &events {
            stats.on_event(ev);
            obs.on_event(ev);
        }
        prop_assert_eq!(stats.total_aborts(), obs.aborts.total());
        prop_assert_eq!(
            stats.locked_aborts,
            obs.aborts.total_of(&[AbortKind::LockedOut])
        );
        let count = |f: fn(&TxnEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
        prop_assert_eq!(stats.commits, count(|e| matches!(e, TxnEvent::Commit { .. })));
        prop_assert_eq!(
            stats.unavailable_retries,
            count(|e| matches!(e, TxnEvent::UnavailableRetry))
        );
        prop_assert_eq!(
            stats.partial_aborts,
            count(|e| matches!(e, TxnEvent::PartialAbort { .. }))
        );
    }
}
