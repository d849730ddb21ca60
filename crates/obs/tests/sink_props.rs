//! The event stream is the only source of counts and spans: for any
//! sequence of events, the executor counters ([`ExecStats::on_event`]) and
//! the abort attribution ([`TxnObserver::on_event`]) agree to the unit, and
//! the observer's span tracer turns the same events into a well-formed
//! attempt / Block tree.

use acn_obs::{AbortKind, ExecStats, SpanKind, Tracer, TxnEvent, TxnObserver};
use acn_txir::{ObjClass, ObjectId};
use proptest::prelude::*;
use std::time::Instant;

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
        0u8..9,
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
                7 => TxnEvent::BlockCommit { block: b },
                _ => TxnEvent::Commit { restarts: b },
            }
        })
}

/// Feed `events` to fresh counters and a fresh observer (no tracer).
fn count(events: impl Iterator<Item = TxnEvent>) -> (ExecStats, TxnObserver) {
    let mut stats = ExecStats::default();
    let mut obs = TxnObserver::default();
    for ev in events {
        stats.on_event(ev);
        obs.on_event(ev);
    }
    (stats, obs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counters_and_attribution_agree_on_any_event_stream(
        events in prop::collection::vec(event(), 0..300),
    ) {
        let (stats, obs) = count(events.iter().copied());
        prop_assert_eq!(stats.total_aborts(), obs.aborts.total());
        prop_assert_eq!(
            stats.locked_aborts,
            obs.aborts.total_of(&[AbortKind::LockedOut])
        );
        let count_of = |f: fn(&TxnEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
        prop_assert_eq!(stats.commits, count_of(|e| matches!(e, TxnEvent::Commit { .. })));
        prop_assert_eq!(
            stats.unavailable_retries,
            count_of(|e| matches!(e, TxnEvent::UnavailableRetry))
        );
        prop_assert_eq!(
            stats.partial_aborts,
            count_of(|e| matches!(e, TxnEvent::PartialAbort { .. }))
        );
        // `BlockCommit` is the tracer's alone: dropping every one of them
        // moves no counter, no attribution row and no ledger unit.
        let (bare_stats, bare_obs) = count(
            events
                .iter()
                .copied()
                .filter(|e| !matches!(e, TxnEvent::BlockCommit { .. })),
        );
        prop_assert_eq!(stats, bare_stats);
        prop_assert_eq!(&obs.aborts, &bare_obs.aborts);
        prop_assert_eq!(obs.work.snapshot(), bare_obs.work.snapshot());
    }

    /// Between `start_txn` and `end_txn`, an attempt stream (every attempt
    /// opens with `Begin`) yields one Attempt span per `Begin`, one Block
    /// span per `BlockStart`, and every Block hangs off an Attempt of the
    /// same trace.
    #[test]
    fn tracer_spans_follow_any_event_stream(
        events in prop::collection::vec(event(), 0..300),
    ) {
        let stream: Vec<TxnEvent> = std::iter::once(TxnEvent::Begin).chain(events).collect();
        let mut tracer = Tracer::new(Instant::now(), 0, 0, 2 * stream.len() + 2);
        tracer.start_txn(0);
        let mut obs = TxnObserver {
            spans: Some(tracer),
            ..TxnObserver::default()
        };
        for &ev in &stream {
            obs.on_event(ev);
        }
        let mut tracer = obs.spans.take().expect("installed");
        tracer.end_txn(true);
        let (spans, row) = tracer.drain();
        prop_assert_eq!(row.dropped, 0, "the ring holds every span");

        let events_of = |f: fn(&TxnEvent) -> bool| stream.iter().filter(|e| f(e)).count();
        let spans_of = |kind| spans.iter().filter(move |s| s.kind == kind);
        prop_assert_eq!(
            spans_of(SpanKind::Attempt).count(),
            events_of(|e| matches!(e, TxnEvent::Begin))
        );
        prop_assert_eq!(
            spans_of(SpanKind::Block).count(),
            events_of(|e| matches!(e, TxnEvent::BlockStart { .. }))
        );
        for b in spans_of(SpanKind::Block) {
            prop_assert!(
                spans_of(SpanKind::Attempt).any(|a| a.id == b.parent && a.trace == b.trace),
                "Block span {:?} has no Attempt parent",
                b
            );
        }
    }
}
