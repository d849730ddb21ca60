//! `NetStats` counts no delivery: `delivered` and `bytes_delivered` are
//! derived as sent + chaos duplicates − drops. This checks the derivation
//! against a model that counts every enqueue the network makes, over
//! random schedules of sends, broadcasts, chaos plans (drops, duplicates,
//! delays), node and link faults, recoveries and a shutdown that closes
//! every inbox.

use acn_simnet::{
    ChaosDecision, ChaosRule, FaultPlan, LatencyModel, MsgKind, NetStatsSnapshot, Network, NodeId,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
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
