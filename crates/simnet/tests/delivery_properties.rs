//! Property tests for the network's delivery semantics.

use acn_simnet::{LatencyModel, Network, NodeId};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-once delivery: every message sent to a live node arrives
    /// exactly once, regardless of latency jitter and sender count, and
    /// never before its `deliver_at`. The receiver runs while the senders
    /// do, so pushes meet it both parked and busy.
    #[test]
    fn exactly_once_delivery(
        senders in 1usize..5,
        per_sender in 1usize..30,
        max_latency_us in 0u64..500,
    ) {
        let net: Network<(usize, usize)> = Network::new(
            senders + 1,
            if max_latency_us == 0 {
                LatencyModel::Zero
            } else {
                LatencyModel::Uniform {
                    min: Duration::ZERO,
                    max: Duration::from_micros(max_latency_us),
                }
            },
        );
        let rx = net.endpoint(NodeId(senders as u32));
        let received = std::thread::scope(|s| {
            for t in 0..senders {
                let ep = net.endpoint(NodeId(t as u32));
                s.spawn(move || {
                    for k in 0..per_sender {
                        ep.send(NodeId(senders as u32), (t, k));
                    }
                });
            }
            (0..senders * per_sender)
                .map(|_| rx.recv_timeout_meta(Duration::from_secs(2)).expect("message lost"))
                .collect::<Vec<_>>()
        });
        let mut got = std::collections::HashSet::new();
        for (_, msg, meta) in received {
            prop_assert!(got.insert(msg), "duplicate {msg:?}");
            prop_assert!(meta.received_at >= meta.deliver_at, "{msg:?} handed over early");
        }
        // And nothing extra.
        prop_assert!(rx.try_recv().is_none());
        prop_assert_eq!(got.len(), senders * per_sender);
    }

    /// Per-sender FIFO under constant latency: with equal delay for every
    /// message, one sender's messages arrive in send order.
    #[test]
    fn per_sender_fifo_under_constant_latency(
        n in 1usize..60,
        latency_us in 0u64..200,
    ) {
        let net: Network<usize> =
            Network::new(2, LatencyModel::Constant(Duration::from_micros(latency_us)));
        let tx = net.endpoint(NodeId(0));
        let rx = net.endpoint(NodeId(1));
        for k in 0..n {
            tx.send(NodeId(1), k);
        }
        for expect in 0..n {
            let (_, got) = rx.recv_timeout(Duration::from_secs(1)).unwrap();
            prop_assert_eq!(got, expect);
        }
    }

    /// Fault isolation: messages sent while the destination is failed are
    /// lost; messages sent after recovery arrive. Counts match stats.
    #[test]
    fn failure_drops_are_accounted(
        before in 0usize..10,
        during in 0usize..10,
        after in 0usize..10,
    ) {
        let net: Network<u32> = Network::new(2, LatencyModel::Zero);
        let tx = net.endpoint(NodeId(0));
        let rx = net.endpoint(NodeId(1));
        for _ in 0..before {
            tx.send(NodeId(1), 0);
        }
        // Drain pre-failure traffic first: a crash also destroys whatever
        // is still queued at the host.
        let mut delivered = 0;
        while rx.try_recv().is_some() {
            delivered += 1;
        }
        prop_assert_eq!(delivered, before);
        net.fail(NodeId(1));
        for _ in 0..during {
            tx.send(NodeId(1), 1);
        }
        net.recover(NodeId(1));
        for _ in 0..after {
            tx.send(NodeId(1), 2);
        }
        let mut delivered = 0;
        while rx.try_recv().is_some() {
            delivered += 1;
        }
        prop_assert_eq!(delivered, after);
        let stats = net.stats();
        prop_assert_eq!(stats.sent as usize, before + during + after);
        prop_assert_eq!(stats.dropped_failed as usize, during);
    }
}
