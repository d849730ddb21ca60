//! `NetStats` counts no delivery: `delivered` and `bytes_delivered` are
//! derived as sent + chaos duplicates − drops. This checks the derivation
//! against a model that counts every enqueue the network makes, over
//! random schedules of sends, broadcasts, chaos plans (drops, duplicates,
//! delays), node and link faults, recoveries and a shutdown that closes
//! every inbox. A second test sends from several nodes at once, each on
//! its own thread, through a node whose runner answers on the senders'
//! threads: each node's counters have one writer, and their sum is exact.

use acn_simnet::{
    ChaosDecision, ChaosRule, FaultPlan, LatencyModel, MsgKind, NetStatsSnapshot, Network, NodeId,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const NODES: u32 = 4;

fn classify(m: &u32) -> MsgKind {
    (*m % 3) as MsgKind
}

#[derive(Debug, Clone)]
enum Op {
    Send {
        src: u32,
        dst: u32,
        msg: u32,
        bytes: u64,
    },
    Broadcast {
        src: u32,
        members: Vec<u32>,
        msg: u32,
        bytes: u64,
    },
    Chaos {
        seed: u64,
        drop_p: f64,
        dup_p: f64,
        delay_p: f64,
    },
    ClearChaos,
    Fail(u32),
    Recover(u32),
    FailLink(u32, u32),
    HealLink(u32, u32),
    Shutdown,
}

fn op() -> impl Strategy<Value = Op> {
    // Mostly sends and broadcasts; one op in ten installs a plan.
    let nodes = (0..NODES, 0..NODES);
    let payload = (any::<u32>(), 1u64..500);
    let members = proptest::collection::vec(0..NODES, 0..4);
    let plan = (any::<u64>(), 0.0..0.5f64, 0.0..0.5f64, 0.0..0.5f64);
    (0u8..20, nodes, payload, members, plan).prop_map(
        |(roll, (src, dst), (msg, bytes), members, (seed, drop_p, dup_p, delay_p))| match roll {
            0..=7 => Op::Send {
                src,
                dst,
                msg,
                bytes,
            },
            8..=11 => Op::Broadcast {
                src,
                members,
                msg,
                bytes,
            },
            12 | 13 => Op::Chaos {
                seed,
                drop_p,
                dup_p,
                delay_p,
            },
            14 => Op::ClearChaos,
            15 => Op::Fail(dst),
            16 | 17 => Op::Recover(dst),
            18 => Op::FailLink(src, dst),
            _ => Op::HealLink(src, dst),
        },
    )
}

/// What the network should have counted: every send, and every copy it
/// enqueued on an open inbox.
#[derive(Default)]
struct Model {
    plan: Option<FaultPlan>,
    links: HashMap<(NodeId, NodeId, MsgKind), u64>,
    failed: HashSet<NodeId>,
    failed_links: HashSet<(NodeId, NodeId)>,
    closed: bool,
    sent: u64,
    bytes_sent: u64,
    enqueued: u64,
    bytes_enqueued: u64,
}

impl Model {
    fn send(&mut self, src: NodeId, dst: NodeId, msg: u32, bytes: u64) {
        self.sent += 1;
        self.bytes_sent += bytes;
        if self.failed.contains(&src)
            || self.failed.contains(&dst)
            || self.failed_links.contains(&(src, dst))
        {
            return;
        }
        let copies = match &self.plan {
            None => 1,
            Some(plan) => {
                let kind = classify(&msg);
                let n = self.links.entry((src, dst, kind)).or_insert(0);
                let decision = plan.decide(src, dst, kind, *n);
                *n += 1;
                match decision {
                    ChaosDecision::Drop => 0,
                    ChaosDecision::Deliver | ChaosDecision::Delay(_) => 1,
                    ChaosDecision::Duplicate | ChaosDecision::DuplicateDelayed(_) => 2,
                }
            }
        };
        if !self.closed {
            self.enqueued += copies;
            self.bytes_enqueued += copies * bytes;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn derived_delivery_counters_match_a_model_of_every_enqueue(
        ops in proptest::collection::vec(op(), 1..80),
        shutdown_at in 0usize..160,
    ) {
        let net: Network<u32> = Network::new(NODES as usize, LatencyModel::Zero);
        let eps: Vec<_> = (0..NODES).map(|n| net.endpoint(NodeId(n))).collect();
        let mut model = Model::default();
        // Half the schedules close every inbox somewhere along the way.
        let mut ops = ops;
        if shutdown_at < ops.len() {
            ops.insert(shutdown_at, Op::Shutdown);
        }
        for op in ops {
            match op {
                Op::Send { src, dst, msg, bytes } => {
                    eps[src as usize].send_sized(NodeId(dst), msg, bytes);
                    model.send(NodeId(src), NodeId(dst), msg, bytes);
                }
                Op::Broadcast { src, members, msg, bytes } => {
                    let members: Vec<NodeId> = members.into_iter().map(NodeId).collect();
                    eps[src as usize].broadcast(&members, msg, bytes);
                    for &dst in &members {
                        model.send(NodeId(src), dst, msg, bytes);
                    }
                }
                Op::Chaos { seed, drop_p, dup_p, delay_p } => {
                    let rule = ChaosRule::all(drop_p, dup_p, delay_p, Duration::from_micros(50));
                    let plan = FaultPlan::with_rules(seed, vec![rule]);
                    net.set_chaos(plan.clone(), classify);
                    model.plan = Some(plan);
                    model.links.clear();
                }
                Op::ClearChaos => {
                    net.clear_chaos();
                    model.plan = None;
                }
                Op::Fail(n) => {
                    net.fail(NodeId(n));
                    model.failed.insert(NodeId(n));
                }
                Op::Recover(n) => {
                    net.recover(NodeId(n));
                    model.failed.remove(&NodeId(n));
                }
                Op::FailLink(a, b) => {
                    net.fail_link(NodeId(a), NodeId(b));
                    model.failed_links.insert((NodeId(a), NodeId(b)));
                }
                Op::HealLink(a, b) => {
                    net.heal_link(NodeId(a), NodeId(b));
                    model.failed_links.remove(&(NodeId(a), NodeId(b)));
                }
                Op::Shutdown => {
                    net.shutdown();
                    model.closed = true;
                }
            }
            let s: NetStatsSnapshot = net.stats();
            prop_assert_eq!(s.sent, model.sent);
            prop_assert_eq!(s.bytes_sent, model.bytes_sent);
            prop_assert_eq!(s.delivered, model.enqueued);
            prop_assert_eq!(s.bytes_delivered, model.bytes_enqueued);
        }
    }
}

#[test]
fn senders_on_their_own_threads_are_counted_exactly() {
    const SENDERS: u32 = 4;
    const PER_SENDER: u64 = 20_000;
    const ECHO_BYTES: u64 = 7;
    // Nodes 0..SENDERS send; `echo` answers each message on the thread
    // that delivered it, under its lock, as a server does; `sink` only
    // queues.
    let (echo, sink) = (NodeId(SENDERS), NodeId(SENDERS + 1));
    let net: Network<u32> = Network::new(SENDERS as usize + 2, LatencyModel::Zero);
    let lock = Arc::new(Mutex::new(()));
    let ep = net.endpoint(echo);
    net.attach(echo, move || {
        while let Some(held) = lock.try_lock() {
            while let Some((src, v)) = ep.try_recv() {
                ep.send_sized(src, v, ECHO_BYTES);
            }
            drop(held);
            if !ep.has_mature() {
                return;
            }
        }
    });
    // Sender `n`'s `i`-th message: to `echo` or `sink`, or a broadcast to
    // both, of `1 + (n·PER_SENDER + i) % 100` bytes per copy.
    let bytes = |n: u32, i: u64| 1 + (u64::from(n) * PER_SENDER + i) % 100;
    // All start at once, so the senders overlap.
    let start = Arc::new(Barrier::new(SENDERS as usize));
    let senders: Vec<_> = (0..SENDERS)
        .map(|n| {
            let (tx, start) = (net.endpoint(NodeId(n)), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_SENDER {
                    match i % 3 {
                        0 => tx.send_sized(echo, n, bytes(n, i)),
                        1 => tx.send_sized(sink, n, bytes(n, i)),
                        _ => tx.broadcast(&[echo, sink], n, bytes(n, i)),
                    }
                }
            })
        })
        .collect();
    for h in senders {
        h.join().unwrap();
    }
    let (mut sent, mut bytes_sent) = (0, 0);
    for n in 0..SENDERS {
        for i in 0..PER_SENDER {
            // Copies sent by `n`, and how many of them reach `echo`.
            let (copies, echoed) = if i % 3 == 2 {
                (2, 1)
            } else {
                (1, u64::from(i % 3 == 0))
            };
            sent += copies + echoed;
            bytes_sent += copies * bytes(n, i) + echoed * ECHO_BYTES;
        }
    }
    let s = net.stats();
    assert_eq!(s.sent, sent);
    assert_eq!(s.bytes_sent, bytes_sent);
    assert_eq!((s.delivered, s.bytes_delivered), (sent, bytes_sent));
    net.shutdown();
}
