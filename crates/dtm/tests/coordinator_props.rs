//! A whole quorum on one thread (DESIGN §15, "The coordinator half"):
//! three or four [`Server`]s and two [`Coordinator`]s over two objects, the
//! network a multiset of in-flight messages — no threads, no endpoint, no
//! sleeps, every instant synthetic and an hour ahead of the wall clock.
//!
//! A random schedule picks, step by step, one message in flight to
//! deliver, drop or duplicate; when nothing is in flight, `now` jumps to
//! the earliest pending deadline — a coordinator's `on_deadline` or a
//! server's `tick`. The coordinators run scripted transactions (one read
//! round, then a commit) through the same [`Read`] / [`Commit`] machines
//! `DtmClient::drive` pumps over the real endpoint.
//!
//! The schedule is held to a *fair-loss budget*: a round may lose at most
//! as many messages as it has retries, so at least one of its broadcasts
//! gets through both ways. (Past that budget a commit round can die after
//! the decision — ROADMAP item 1's termination hole, pinned on its own by
//! the fixed schedules at the bottom.) Inside it:
//!
//! * every operation terminates, as `Committed` or `Aborted`;
//! * [`HistoryLog::check`] is clean;
//! * `Aborted` ⇒ no server applied the writes, and no lock of that
//!   transaction survives the abort round;
//! * `Committed` ⇒ every write-quorum member holds the committed version;
//! * the round that ended an operation was answered by every member — one
//!   reply per source is all that ever counts;
//! * a read advances the watermarks of servers that served it, only.

use acn_dtm::coordinator::{
    Alive, Commit, CommitOutcome, Coordinator, Effect, Machine, Phase, Read,
};
use acn_dtm::{
    ClientConfig, DtmError, HistoryLog, Msg, ReqId, Server, TxnId, ValidateEntry, Version,
    WindowConfig,
};
use acn_quorum::{DaryTree, LevelQuorums};
use acn_simnet::NodeId;
use acn_txir::{FieldId, ObjClass, ObjectId, ObjectVal, Value};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ACCT: ObjClass = ObjClass::new(0, "acct");
const OBJS: [ObjectId; 2] = [ObjectId::new(ACCT, 1), ObjectId::new(ACCT, 2)];
const ALL_UP: Alive<'static> = &|_| true;
const PREPARED_TTL: Duration = Duration::from_secs(2);

fn client_cfg() -> ClientConfig {
    ClientConfig {
        rpc_timeout: Duration::from_millis(30),
        quorum_retries: 3,
        locked_retries: 20,
        locked_backoff: Duration::from_micros(200),
        retry_backoff: Duration::from_micros(200),
        read_repair_max: 2,
    }
}

macro_rules! ensure {
    ($cond:expr, $($msg:tt)*) => {
        if !$cond {
            return Err(format!($($msg)*));
        }
    };
}

/// One scripted transaction: read the objects in `reads` (a non-empty bit
/// set over [`OBJS`]), then commit an overwrite of those in `writes`
/// (a subset; empty = a read-only validation).
#[derive(Debug, Clone, Copy)]
struct Script {
    reads: u8,
    writes: u8,
}

fn picked(mask: u8) -> impl Iterator<Item = ObjectId> {
    (0..OBJS.len())
        .filter(move |i| mask & (1 << i) != 0)
        .map(|i| OBJS[i])
}

enum Op {
    Read(Read<'static>),
    Commit(Commit<'static>),
}

impl Op {
    fn phase(&self) -> Phase {
        match self {
            Op::Read(m) => m.phase(),
            Op::Commit(m) => m.phase(),
        }
    }

    fn members(&self) -> &[NodeId] {
        match self {
            Op::Read(m) => m.members(),
            Op::Commit(m) => m.members(),
        }
    }

    fn on_reply(&mut self, co: &mut Coordinator, src: NodeId, msg: Msg, now: Instant) {
        match self {
            Op::Read(m) => m.on_reply(co, src, msg, now),
            Op::Commit(m) => m.on_reply(co, src, msg, now),
        }
    }

    fn on_deadline(&mut self, co: &mut Coordinator, now: Instant) {
        match self {
            Op::Read(m) => m.on_deadline(co, ALL_UP, now),
            Op::Commit(m) => m.on_deadline(co, ALL_UP, now),
        }
    }
}

/// How a scripted transaction ended.
#[derive(Debug, Clone, PartialEq)]
enum Ended {
    /// The read round refused it (`Invalidated` / `LockedOut`).
    AtRead(DtmError),
    At2pc(CommitOutcome),
}

struct Running {
    txn: TxnId,
    script: Script,
    writes: &'static [(ObjectId, Version, ObjectVal)],
}

struct Client {
    node: NodeId,
    co: Coordinator,
    todo: VecDeque<Script>,
    running: Option<Running>,
    op: Option<Op>,
    /// The request id last scattered.
    round: ReqId,
    /// Every `(source, request id)` reply handed to this client's machines.
    replies: HashSet<(NodeId, ReqId)>,
    ended: Vec<(TxnId, Ended)>,
}

struct Flight {
    src: NodeId,
    dst: NodeId,
    msg: Msg,
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Deliver(usize),
    Drop(usize),
    Duplicate(usize),
}

struct World {
    now: Instant,
    servers: Vec<Server>,
    /// When each server asked to be ticked next.
    next_tick: Vec<Option<Instant>>,
    net: Vec<Flight>,
    clients: Vec<Client>,
    history: Arc<HistoryLog>,
    /// Hold drops to the fair-loss budget.
    fair: bool,
    /// Messages lost so far per `(client, request id)` round.
    lost: HashMap<(NodeId, ReqId), usize>,
    /// `(transaction, server)` pairs where the server answered a read.
    served: HashSet<(TxnId, NodeId)>,
}

fn request_id(msg: &Msg) -> Option<ReqId> {
    match msg {
        Msg::ReadBatchReq { req, .. }
        | Msg::PrepareReq { req, .. }
        | Msg::CommitReq { req, .. }
        | Msg::AbortReq { req, .. }
        | Msg::RepairWrite { req, .. } => Some(*req),
        _ => None,
    }
}

impl World {
    fn new(servers: usize, scripts: [Vec<Script>; 2], fair: bool) -> Result<World, String> {
        let quorums = LevelQuorums::new(DaryTree::ternary(servers));
        let history = Arc::new(HistoryLog::new());
        let clients = scripts.into_iter().enumerate().map(|(i, todo)| {
            let node = NodeId((servers + i) as u32);
            let mut co = Coordinator::new(node, quorums.clone(), client_cfg());
            co.set_history(history.clone());
            Client {
                node,
                co,
                todo: todo.into(),
                running: None,
                op: None,
                round: 0,
                replies: HashSet::new(),
                ended: Vec::new(),
            }
        });
        let mut world = World {
            now: Instant::now() + Duration::from_secs(3600),
            servers: (0..servers)
                .map(|_| {
                    let mut server = Server::new(WindowConfig::default());
                    server.set_prepared_ttl(PREPARED_TTL);
                    server
                })
                .collect(),
            next_tick: vec![None; servers],
            net: Vec::new(),
            clients: clients.collect(),
            history,
            fair,
            lost: HashMap::new(),
            served: HashSet::new(),
        };
        for c in 0..world.clients.len() {
            world.start_next(c);
            world.pump(c)?;
        }
        Ok(world)
    }

    fn idle(&self) -> bool {
        self.net.is_empty() && self.clients.iter().all(|c| c.op.is_none())
    }

    /// Begin the client's next scripted transaction with its read round.
    fn start_next(&mut self, c: usize) {
        let client = &mut self.clients[c];
        client.running = None;
        let Some(script) = client.todo.pop_front() else {
            return;
        };
        let txn = client.co.begin();
        // The machines borrow their inputs; a scheduler that parks them
        // between events hands them inputs that live as long as the test.
        let objs = picked(script.reads).collect::<Vec<_>>().leak();
        let watermarks = Box::leak(Box::new(HashMap::new()));
        client.co.resend_decided(ALL_UP);
        let read = Read::start(&mut client.co, ALL_UP, txn, objs, &[], watermarks, self.now);
        client.op = Some(Op::Read(read));
        client.running = Some(Running {
            txn,
            script,
            writes: &[],
        });
    }

    /// Put the client's queued effects on the network and, whenever its
    /// operation is done, check what it claims and start the next one.
    fn pump(&mut self, c: usize) -> Result<(), String> {
        loop {
            let World { clients, net, .. } = self;
            let client = &mut clients[c];
            let Some(op) = &client.op else {
                return Ok(());
            };
            for effect in client.co.effects() {
                match effect {
                    Effect::Scatter(msg) => {
                        client.round = request_id(&msg).expect("a request");
                        let flights = op.members().iter().map(|&dst| Flight {
                            src: client.node,
                            dst,
                            msg: Msg::clone(&msg),
                        });
                        net.extend(flights);
                    }
                    Effect::Gathered { .. } => {}
                    Effect::Send(dst, msg) => net.push(Flight {
                        src: client.node,
                        dst,
                        msg,
                    }),
                }
            }
            if op.phase() != Phase::Done {
                return Ok(());
            }
            match client.op.take().expect("checked above") {
                Op::Read(read) => self.settle_read(c, read)?,
                Op::Commit(commit) => self.settle_commit(c, commit)?,
            }
        }
    }

    fn settle_read(&mut self, c: usize, read: Read<'static>) -> Result<(), String> {
        let now = self.now;
        let client = &mut self.clients[c];
        let running = client
            .running
            .as_mut()
            .expect("a read runs in a transaction");
        let txn = running.txn;
        for (&node, &validated) in read.watermarks() {
            ensure!(
                self.served.contains(&(txn, node)) && validated == 0,
                "{txn:?}: watermark {validated} for {node:?}, which served it nothing"
            );
        }
        let members = read.members().to_vec();
        let reads = match read.finish() {
            Ok(reads) => reads,
            Err(e) => {
                let refused =
                    matches!(e, DtmError::Invalidated { .. } | DtmError::LockedOut { .. });
                ensure!(
                    refused || !self.fair,
                    "{txn:?}: read ended {e:?} under fair loss"
                );
                client.ended.push((txn, Ended::AtRead(e)));
                self.start_next(c);
                return Ok(());
            }
        };
        for member in members {
            ensure!(
                client.replies.contains(&(member, client.round)),
                "{txn:?}: read finished without {member:?}'s reply"
            );
        }
        let validate: &[ValidateEntry] =
            reads.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>().leak();
        // A value no other transaction writes, so an applied write is
        // recognisable in a store.
        let mark = ObjectVal::from_fields([(FieldId(0), Value::Int(txn.seq as i64))]);
        running.writes = picked(running.script.writes)
            .map(|obj| {
                let version = validate
                    .iter()
                    .find(|v| v.0 == obj)
                    .expect("writes ⊆ reads")
                    .1;
                (obj, version, mark.clone())
            })
            .collect::<Vec<_>>()
            .leak();
        client.co.resend_decided(ALL_UP);
        let commit = Commit::start(&mut client.co, ALL_UP, txn, validate, running.writes, now);
        client.op = Some(Op::Commit(commit));
        Ok(())
    }

    fn settle_commit(&mut self, c: usize, commit: Commit<'static>) -> Result<(), String> {
        let members = commit.members().to_vec();
        let outcome = commit.finish();
        let client = &mut self.clients[c];
        let Running { txn, writes, .. } = client
            .running
            .take()
            .expect("a commit runs in a transaction");
        match &outcome {
            CommitOutcome::Committed | CommitOutcome::Aborted(_) => {
                for &member in &members {
                    ensure!(
                        client.replies.contains(&(member, client.round)),
                        "{txn:?}: {outcome:?} without {member:?}'s reply to round {}",
                        client.round
                    );
                }
            }
            CommitOutcome::Decided | CommitOutcome::Unavailable => {
                ensure!(!self.fair, "{txn:?}: {outcome:?} under fair loss");
            }
        }
        for &(obj, read_at, ref mark) in writes {
            for (rank, server) in self.servers.iter_mut().enumerate() {
                let store = server.store_mut();
                let member = members.contains(&NodeId(rank as u32));
                match &outcome {
                    CommitOutcome::Committed => ensure!(
                        !member || store.version(obj) > read_at,
                        "{txn:?} committed {obj}@{} but member {rank} holds @{}",
                        read_at + 1,
                        store.version(obj)
                    ),
                    CommitOutcome::Aborted(_) => {
                        ensure!(
                            store.lock_holder(obj) != Some(txn),
                            "{txn:?} aborted but still locks {obj} on server {rank}"
                        );
                        ensure!(
                            store.read(obj).1 != *mark,
                            "{txn:?} aborted but server {rank} applied its write of {obj}"
                        );
                    }
                    CommitOutcome::Decided | CommitOutcome::Unavailable => {}
                }
            }
        }
        client.ended.push((txn, Ended::At2pc(outcome)));
        self.start_next(c);
        Ok(())
    }

    /// Hand one message to its destination.
    fn deliver(&mut self, flight: Flight) -> Result<(), String> {
        let Flight { src, dst, msg } = flight;
        if let Some(server) = self.servers.get_mut(dst.index()) {
            if let Msg::ReadBatchReq { txn, .. } = &msg {
                self.served.insert((*txn, dst));
            }
            let mut replies = Vec::new();
            replies.extend(server.step(src, &msg, self.now).map(|reply| (src, reply)));
            // The service loop ticks between messages: that is when the
            // acks `step` parked behind the log are synced and released.
            self.next_tick[dst.index()] = server.tick(self.now, &mut replies);
            let flights = replies.into_iter().map(|(to, msg)| Flight {
                src: dst,
                dst: to,
                msg,
            });
            self.net.extend(flights);
            return Ok(());
        }
        let c = dst.index() - self.servers.len();
        let client = &mut self.clients[c];
        if let Some(req) = msg.response_req() {
            client.replies.insert((src, req));
        }
        client.co.settle_decided(src, &msg);
        if let Some(op) = &mut client.op {
            op.on_reply(&mut client.co, src, msg, self.now);
        }
        self.pump(c)
    }

    /// Fire every deadline that is due: servers tick, coordinators time
    /// out or end a backoff.
    fn fire_due(&mut self) -> Result<(), String> {
        for rank in 0..self.servers.len() {
            if self.next_tick[rank].is_some_and(|at| at <= self.now) {
                let mut released = Vec::new();
                self.next_tick[rank] = self.servers[rank].tick(self.now, &mut released);
                let flights = released.into_iter().map(|(dst, msg)| Flight {
                    src: NodeId(rank as u32),
                    dst,
                    msg,
                });
                self.net.extend(flights);
            }
        }
        for c in 0..self.clients.len() {
            let client = &mut self.clients[c];
            let Some(op) = &mut client.op else { continue };
            let (Phase::Awaiting(at) | Phase::BackingOff(at, _)) = op.phase() else {
                continue;
            };
            if at <= self.now {
                op.on_deadline(&mut client.co, self.now);
                self.pump(c)?;
            }
        }
        Ok(())
    }

    /// Nothing is in flight: jump to the earliest pending deadline.
    fn advance(&mut self) -> Result<(), String> {
        let waits = self
            .clients
            .iter()
            .filter_map(|c| match c.op.as_ref()?.phase() {
                Phase::Awaiting(at) | Phase::BackingOff(at, _) => Some(at),
                Phase::Done => None,
            });
        let Some(next) = waits.chain(self.next_tick.iter().flatten().copied()).min() else {
            return Err("nothing in flight and no deadline pending: stuck".into());
        };
        self.now = self.now.max(next);
        self.fire_due()
    }

    /// May this message be lost without breaking the fair-loss budget? A
    /// round affords as many losses as it has retries (a read round none,
    /// a repair — awaited by nobody — any number).
    fn may_lose(&mut self, flight: &Flight) -> bool {
        let (client, req, retries) = match &flight.msg {
            Msg::RepairWrite { .. } => return true,
            Msg::ReadBatchReq { req, .. } => (flight.src, *req, 0),
            Msg::ReadBatchResp { req, .. } => (flight.dst, *req, 0),
            msg => match (request_id(msg), msg.response_req()) {
                (Some(req), _) => (flight.src, req, client_cfg().quorum_retries),
                (_, Some(req)) => (flight.dst, req, client_cfg().quorum_retries),
                _ => return false,
            },
        };
        let lost = self.lost.entry((client, req)).or_insert(0);
        let affordable = !self.fair || *lost < retries;
        *lost += affordable as usize;
        affordable
    }

    fn act(&mut self, action: Action) -> Result<(), String> {
        self.now += Duration::from_micros(1);
        self.fire_due()?;
        if self.net.is_empty() {
            return self.advance();
        }
        let at = |i: usize| i % self.net.len();
        match action {
            Action::Duplicate(i) if self.net.len() < 64 => {
                let Flight { src, dst, ref msg } = self.net[at(i)];
                let msg = msg.clone();
                self.net.push(Flight { src, dst, msg });
                Ok(())
            }
            Action::Drop(i) => {
                let flight = self.net.remove(at(i));
                if self.may_lose(&flight) {
                    Ok(())
                } else {
                    self.deliver(flight)
                }
            }
            Action::Deliver(i) | Action::Duplicate(i) => {
                let flight = self.net.remove(at(i));
                self.deliver(flight)
            }
        }
    }

    /// Run `schedule`, then drain in arrival order until every script is
    /// through.
    fn run(&mut self, schedule: &[Action]) -> Result<(), String> {
        let mut steps = schedule
            .iter()
            .copied()
            .chain(std::iter::repeat(Action::Deliver(0)));
        for _ in 0..20_000 {
            if self.idle() {
                return Ok(());
            }
            self.act(steps.next().expect("endless"))?;
        }
        Err("still running after 20 000 steps".into())
    }

    /// What must hold once everything has ended under fair loss.
    fn check_quiescent(&mut self) -> Result<(), String> {
        if let Err(violations) = self.history.check() {
            return Err(format!("history: {violations:?}"));
        }
        for (rank, server) in self.servers.iter_mut().enumerate() {
            for obj in OBJS {
                let holder = server.store_mut().lock_holder(obj);
                ensure!(
                    holder.is_none(),
                    "server {rank} still locks {obj} for {holder:?}"
                );
            }
        }
        Ok(())
    }
}

/// A transaction overwrites everything it read or nothing: one that
/// writes only part of its read-set can commit a write skew today (pinned
/// at the bottom), which is a server-side hole, not a coordinator's.
fn script() -> impl Strategy<Value = Script> {
    (1u8..4, any::<bool>()).prop_map(|(reads, update)| Script {
        reads,
        writes: if update { reads } else { 0 },
    })
}

fn action() -> impl Strategy<Value = Action> {
    (0u8..10, any::<u8>()).prop_map(|(kind, i)| match kind {
        0..=5 => Action::Deliver(i as usize),
        6..=7 => Action::Drop(i as usize),
        _ => Action::Duplicate(i as usize),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fair_loss_schedules_terminate_and_keep_every_promise(
        servers in 3usize..=4,
        first in prop::collection::vec(script(), 1..4),
        second in prop::collection::vec(script(), 1..4),
        schedule in prop::collection::vec(action(), 0..400),
    ) {
        let scripted = first.len() + second.len();
        let scripts = [first.clone(), second.clone()];
        let outcome = World::new(servers, [first, second], true).and_then(|mut world| {
            world.run(&schedule)?;
            world.check_quiescent()?;
            Ok(world.clients.iter().map(|c| c.ended.len()).sum::<usize>())
        });
        prop_assert_eq!(outcome, Ok(scripted), "{} servers, {:?}\n{:?}", servers, scripts, schedule);
    }
}

/// The schedules above do reach both 2PC outcomes and the read refusals,
/// so the promises they check are not vacuous.
#[test]
fn a_contended_schedule_reaches_commits_aborts_and_locked_reads() {
    let both = Script {
        reads: 3,
        writes: 3,
    };
    let mut world = World::new(4, [vec![both; 3], vec![both; 3]], true).unwrap();
    // Deliver newest-first: the two coordinators' rounds interleave.
    let schedule: Vec<Action> = (0..600)
        .map(|i| Action::Deliver(usize::MAX - i % 3))
        .collect();
    world.run(&schedule).unwrap();
    world.check_quiescent().unwrap();
    let ended: Vec<&Ended> = world
        .clients
        .iter()
        .flat_map(|c| &c.ended)
        .map(|e| &e.1)
        .collect();
    assert_eq!(ended.len(), 6);
    let committed = ended
        .iter()
        .filter(|e| ***e == Ended::At2pc(CommitOutcome::Committed));
    assert!(committed.count() >= 1, "{ended:?}");
    let refused = |e: &&&Ended| {
        matches!(
            e,
            Ended::At2pc(CommitOutcome::Aborted(_)) | Ended::AtRead(_)
        )
    };
    assert!(ended.iter().filter(refused).count() >= 1, "{ended:?}");
}

/// ROADMAP item 1(a): the termination hole, without threads and outside
/// the fair-loss budget. Client 4 (write quorum {0, 2, 3} of four servers)
/// overwrites `x` while every `CommitReq` to the `lost` members is dropped
/// until the coordinator stops re-sending; then the prepared TTL passes.
/// Returns the world and the decided transaction.
///
/// What happens **today** when that coordinator runs nothing more: it ends
/// [`CommitOutcome::Decided`] after `quorum_retries + 1` broadcasts — the
/// history holds the decision, no ack — and nobody re-sends the commit (a
/// coordinator re-sends it only as its next operation starts, see
/// `a_live_coordinator_finishes_the_commit_it_walked_away_from`). The
/// reached members applied version 1; a lost member keeps the prepared
/// entry and its lock, then drops both when the TTL sweep passes — it
/// neither applies nor asks anyone. Message loss plus a coordinator that
/// stops is enough; no partition has to outlive the TTL.
fn walked_away(lost: &[u32]) -> (World, TxnId) {
    let x = OBJS[0];
    let write_x = Script {
        reads: 1,
        writes: 1,
    };
    let mut world = World::new(4, [vec![write_x], vec![]], false).unwrap();
    let dropped = |f: &Flight| matches!(f.msg, Msg::CommitReq { .. }) && lost.contains(&f.dst.0);
    while !world.idle() {
        let action = match world.net.first() {
            Some(flight) if dropped(flight) => Action::Drop(0),
            _ => Action::Deliver(0),
        };
        world.act(action).unwrap();
    }
    let (txn, ended) = world.clients[0].ended[0].clone();
    assert_eq!(ended, Ended::At2pc(CommitOutcome::Decided));
    let stats = world.clients[0].co.stats();
    assert_eq!(
        (stats.rpc_retries, stats.commits, stats.best_effort_aborts),
        (3, 0, 0)
    );
    assert_eq!(world.history.snapshot()[0].writes, [(x, 1)]);
    assert!(world.history.acked_snapshot().is_empty());
    for (rank, server) in world.servers.iter_mut().enumerate() {
        let store = server.store_mut();
        let reached = [0, 2, 3].contains(&rank) && !lost.contains(&(rank as u32));
        assert_eq!(store.version(x), reached as Version, "server {rank}");
        let holds = lost.contains(&(rank as u32)).then_some(txn);
        assert_eq!(store.lock_holder(x), holds, "server {rank}");
    }
    // The TTL passes: the prepared entries go away, not in doubt.
    world.now += PREPARED_TTL * 2;
    for (rank, server) in world.servers.iter_mut().enumerate() {
        server.tick(world.now, &mut Vec::new());
        let expired = lost.contains(&(rank as u32)) as u64;
        assert_eq!(server.stats().expired_prepares, expired, "server {rank}");
        assert_eq!(server.store_mut().lock_holder(x), None);
    }
    // A second writer, client 5: read quorum {1, 3}, write quorum {0, 1, 3}.
    world.clients[1].todo = vec![write_x; 3].into();
    world.start_next(1);
    world.pump(1).unwrap();
    world.run(&[]).unwrap();
    (world, txn)
}

/// One lost member, leaf 3: versions end [1, 0, 1, 0], so the read quorum
/// {1, 3} misses the applied `(x, 1)` — item 1(d)'s visibility invariant —
/// and the second writer, reading version 0 through it, is refused at
/// prepare by the ahead replica 0 on every attempt: the livelock face
/// (the 240 s chaos stall). The last assertion is the one item 1's fix
/// inverts.
#[test]
fn a_walked_away_commit_leaves_an_applied_write_invisible_and_livelocks_the_next_writer() {
    let x = OBJS[0];
    let (mut world, _) = walked_away(&[3]);
    for (_, ended) in &world.clients[1].ended {
        let Ended::At2pc(CommitOutcome::Aborted(DtmError::Conflict { invalid, .. })) = ended else {
            panic!("the second writer ended {ended:?}");
        };
        assert_eq!(invalid, &[x], "refused by the ahead replica");
    }
    assert_eq!(world.clients[1].ended.len(), 3);
    assert!(
        world.history.check().is_ok(),
        "no version is committed twice"
    );

    let quorums = LevelQuorums::new(DaryTree::ternary(4));
    let stores = world.servers.iter_mut();
    let applied: Vec<Version> = stores.map(|s| s.store_mut().version(x)).collect();
    assert_eq!(applied, [1, 0, 1, 0]);
    let blind: Vec<Vec<usize>> = (0..3)
        .filter_map(|seed| quorums.read_quorum(seed, ALL_UP))
        .filter(|quorum| quorum.iter().all(|&rank| applied[rank] < 1))
        .collect();
    assert_eq!(
        blind,
        [[1, 3]],
        "a read quorum that misses the applied (x, 1)"
    );
}

/// Two lost members, 0 and 3 — every member the two writers' quorums
/// share: only server 2 applied version 1, nothing the second writer
/// contacts is ahead, and once the locks have expired it commits version
/// 1 again: the `TornWrite` face. The last assertion is the one item 1's
/// fix inverts.
#[test]
fn a_walked_away_commit_lets_the_next_writer_commit_the_same_version() {
    let (world, first) = walked_away(&[0, 3]);
    let (second, ended) = &world.clients[1].ended[0];
    assert_eq!(*ended, Ended::At2pc(CommitOutcome::Committed));
    let violations = world.history.check().unwrap_err();
    let torn = acn_dtm::Violation::TornWrite {
        obj: OBJS[0],
        version: 1,
        txns: (first, *second),
    };
    assert_eq!(violations, [torn]);
}

/// The same drops as the torn-write pin above, but client 4 has a second
/// transaction to run (ROADMAP item 1(e), the coordinator half). Its
/// operations re-send the decided commit to servers 0 and 3 under the same
/// `(txn, req)`; once the drops stop those servers apply version 1 and
/// release the lock, with no TTL involved. Client 4 then writes version 2,
/// and the second writer, client 5, reads it and commits version 3: one
/// writer per version, nothing expired.
#[test]
fn a_live_coordinator_finishes_the_commit_it_walked_away_from() {
    let x = OBJS[0];
    let write_x = Script {
        reads: 1,
        writes: 1,
    };
    let mut world = World::new(4, [vec![write_x; 2], vec![]], false).unwrap();
    while !world.idle() {
        let deciding = world.clients[0].ended.is_empty();
        let action = match world.net.first() {
            Some(Flight {
                dst,
                msg: Msg::CommitReq { .. },
                ..
            }) if deciding && [0, 3].contains(&dst.0) => Action::Drop(0),
            _ => Action::Deliver(0),
        };
        world.act(action).unwrap();
    }
    let ended: Vec<&Ended> = world.clients[0].ended.iter().map(|e| &e.1).collect();
    let (decided, committed) = (CommitOutcome::Decided, CommitOutcome::Committed);
    assert_eq!(ended, [&Ended::At2pc(decided), &Ended::At2pc(committed)]);
    world.clients[1].todo = vec![write_x].into();
    world.start_next(1);
    world.pump(1).unwrap();
    world.run(&[]).unwrap();
    assert_eq!(
        world.clients[1].ended[0].1,
        Ended::At2pc(CommitOutcome::Committed)
    );
    world.check_quiescent().unwrap();
    let stores = world.servers.iter_mut();
    let versions: Vec<Version> = stores.map(|s| s.store_mut().version(x)).collect();
    assert_eq!(versions, [3, 3, 2, 3]);
    for server in &world.servers {
        assert_eq!(server.stats().expired_prepares, 0);
    }
}

/// Found by the schedules above before `script()` was narrowed, and true
/// **today**: prepare validation compares versions only (`Server::stale`),
/// so a read-set entry that another transaction has locked for writing
/// still validates. Two transactions that each read both objects and
/// overwrite a different one prepare side by side, both collect a full
/// yes-vote, both commit — a write skew, which the history checker reports
/// as a cycle. No loss, duplication or timeout is involved: arrival order
/// is enough. The last assertion is the one a fix inverts.
#[test]
fn crossed_partial_writers_commit_a_write_skew_today() {
    let scripts = [
        vec![Script {
            reads: 3,
            writes: 1,
        }],
        vec![Script {
            reads: 3,
            writes: 2,
        }],
    ];
    let mut world = World::new(3, scripts, true).unwrap();
    world.run(&[]).unwrap();
    for client in &world.clients {
        assert_eq!(client.ended[0].1, Ended::At2pc(CommitOutcome::Committed));
    }
    let violations = world.history.check().unwrap_err();
    assert!(
        matches!(violations[..], [acn_dtm::Violation::Cycle { .. }]),
        "{violations:?}"
    );
}
