//! The coordinator half of the quorum protocol as sans-IO state machines.
//!
//! A [`Coordinator`] is what one client node remembers between operations
//! (id allocation, config, counters, the jitter generator, the decided
//! commits still owed an ack). [`Round`],
//! [`Commit`] and [`Read`] are the operations it runs, each a value that
//! is *stepped*: an event goes in with the instant it happened at — a
//! reply ([`Machine::on_reply`]) or the passing of the deadline the
//! machine last named ([`Machine::on_deadline`]) — and what to put on the
//! wire comes out as [`Effect`]s on the coordinator's outbox. Nothing in
//! this module sends, receives, sleeps or reads a clock: `DtmClient::drive`
//! is the one pump that does, and a test can be another
//! (`tests/coordinator_props.rs` schedules whole quorums on one thread).

use crate::client::{ClientConfig, ClientStats};
use crate::error::DtmError;
use crate::history::{CommitRecord, HistoryLog};
use crate::messages::{Msg, ReqId, TxnId, ValidateEntry, Version};
use acn_obs::SpanKind;
use acn_quorum::LevelQuorums;
use acn_simnet::NodeId;
use acn_txir::{ObjectId, ObjectVal};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The liveness snapshot a quorum is picked from: is server `rank` up?
pub type Alive<'a> = &'a dyn Fn(usize) -> bool;

/// What a machine asks its pump to do, in order.
#[derive(Debug)]
pub enum Effect {
    /// Send the request to every one of [`Machine::members`] as one round
    /// (the pump opens the round's span and wraps the message with it).
    /// The request is the round's one allocation: every member reads it in
    /// place, and a retry sends the same handle again.
    Scatter(Arc<Msg>),
    /// The round the last `Scatter` opened is over (its span closes).
    Gathered {
        /// It ended without every member's reply.
        failed: bool,
    },
    /// Fire-and-forget to one node, outside any round (read repair, a
    /// decided commit's re-send).
    Send(NodeId, Msg),
}

/// What a machine is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// A broadcast is out: feed replies to [`Machine::on_reply`], and call
    /// [`Machine::on_deadline`] if the instant passes first.
    Awaiting(Instant),
    /// Nothing is in flight and replies are not read until the instant
    /// passes; then call [`Machine::on_deadline`]. The span kind, if any,
    /// is what the pump records the wait as.
    BackingOff(Instant, Option<SpanKind>),
    /// Finished: take [`Machine::finish`].
    #[default]
    Done,
}

/// A protocol operation a pump can drive to completion. After every call
/// the pump carries out [`Coordinator::effects`], then waits for what
/// [`Machine::phase`] names.
pub trait Machine {
    /// What the operation yields.
    type Output;
    /// A message arrived at `now`.
    fn on_reply(&mut self, co: &mut Coordinator, src: NodeId, msg: Msg, now: Instant);
    /// The instant [`Machine::phase`] named has passed; it is `now`.
    fn on_deadline(&mut self, co: &mut Coordinator, alive: Alive, now: Instant);
    /// What the machine waits for next.
    fn phase(&self) -> Phase;
    /// Whom an [`Effect::Scatter`] goes to.
    fn members(&self) -> &[NodeId];
    /// The result, once [`Machine::phase`] is [`Phase::Done`].
    fn finish(self) -> Self::Output;
}

/// Process-wide coordinator incarnation counter. Two coordinators bound to
/// the *same* node id (a slot reused sequentially, or rebuilt after a
/// crash) must not reuse txn/req ids: servers dedup Prepare/Commit/Abort by
/// `(txn, req)`, and a reused id would replay the previous incarnation's
/// cached response instead of executing. Each incarnation gets a disjoint
/// `2^40`-wide id band.
static INCARNATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// One client node's protocol state — everything its operations share.
pub struct Coordinator {
    node: NodeId,
    pub(crate) quorums: LevelQuorums,
    /// Quorum-selection seed (the node id): server rank `r` lives at
    /// `NodeId(r)`, servers occupy the first node ids.
    pub(crate) seed: u64,
    next_req: ReqId,
    next_txn: u64,
    pub(crate) cfg: ClientConfig,
    pub(crate) stats: ClientStats,
    /// Classes whose contention levels should be piggybacked on every
    /// remote read (empty = piggybacking off).
    pub(crate) piggyback_classes: Vec<u16>,
    /// Latest piggybacked per-class levels (max across quorum replies).
    pub(crate) piggybacked: HashMap<u16, f64>,
    /// xorshift state behind every randomized wait of this node: retry
    /// backoff here, restart jitter through `DtmClient::pause`.
    jitter: u64,
    /// Cluster-wide committed-history log; every successful commit
    /// (read-only validations included) appends a [`CommitRecord`].
    history: Option<Arc<HistoryLog>>,
    /// Effects the machines queued and the pump has not carried out yet.
    /// Kept here so a round allocates no queue of its own.
    out: Vec<Effect>,
    /// Decided commits some write-quorum member never acknowledged, until
    /// it does (see [`Coordinator::resend_decided`]).
    unfinished: Vec<Unfinished>,
}

/// A commit that ended [`CommitOutcome::Decided`]: its `CommitReq` — the
/// commit round's own allocation, request id kept — and the members that
/// still owe the ack.
struct Unfinished {
    req: ReqId,
    msg: Arc<Msg>,
    owed: Vec<NodeId>,
}

impl Coordinator {
    /// The coordinator of client node `node`.
    pub fn new(node: NodeId, quorums: LevelQuorums, cfg: ClientConfig) -> Self {
        let seed = u64::from(node.0);
        let id_base = INCARNATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed) << 40;
        Coordinator {
            node,
            quorums,
            seed,
            next_req: id_base,
            next_txn: id_base,
            cfg,
            stats: ClientStats::default(),
            piggyback_classes: Vec::new(),
            piggybacked: HashMap::new(),
            jitter: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            history: None,
            out: Vec::new(),
            unfinished: Vec::new(),
        }
    }

    /// Message/outcome counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Attach the committed-history log decisions and acks are recorded in.
    pub fn set_history(&mut self, history: Arc<HistoryLog>) {
        self.history = Some(history);
    }

    /// Allocate the next transaction id.
    pub fn begin(&mut self) -> TxnId {
        let txn = TxnId {
            client: self.node,
            seq: self.next_txn,
        };
        self.next_txn += 1;
        txn
    }

    /// Take what the machines asked for since the last call, in order.
    pub fn effects(&mut self) -> impl Iterator<Item = Effect> + '_ {
        self.out.drain(..)
    }

    /// Queue the `CommitReq` of every decided-but-unacknowledged commit
    /// again, one [`Effect::Send`] per member that still owes the ack and
    /// that `alive` reports up. A pump calls this as each operation starts,
    /// so a coordinator that walked away from a commit round finishes it
    /// once the network lets it. Without this, a member the `CommitReq`
    /// never reached keeps the prepared entry until the TTL sweep drops it
    /// unapplied (ROADMAP item 1). The request keeps its `(txn, req)`. A
    /// member that already applied it answers from its dedup cache. Any
    /// other member applies it now, because versions only move forward.
    pub fn resend_decided(&mut self, alive: Alive) {
        for u in &self.unfinished {
            for &to in u.owed.iter().filter(|n| alive(n.index())) {
                self.out.push(Effect::Send(to, Msg::clone(&u.msg)));
            }
        }
    }

    /// A reply reached the pump. If it acknowledges a re-sent decided
    /// commit, its sender owes nothing more.
    pub fn settle_decided(&mut self, src: NodeId, msg: &Msg) {
        let Msg::CommitAck { req } = msg else { return };
        self.unfinished.retain_mut(|u| {
            if u.req == *req {
                u.owed.retain(|&n| n != src);
            }
            !u.owed.is_empty()
        });
    }

    fn alloc_req(&mut self) -> ReqId {
        let req = self.next_req;
        self.next_req += 1;
        req
    }

    /// A uniform draw from `[lo, hi)` (`lo` when the range is empty) off
    /// the node's one xorshift64 generator.
    pub(crate) fn draw(&mut self, lo: Duration, hi: Duration) -> Duration {
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        match hi.saturating_sub(lo).as_nanos() as u64 {
            0 => lo,
            width => lo + Duration::from_nanos(x % width),
        }
    }

    /// How long to wait before retry `attempt` (1-based) of a round:
    /// uniform in `[c/2, c]` with `c = retry_backoff · 2^min(attempt-1, 4)`,
    /// so retries from clients that timed out together do not stampede
    /// back in lock-step.
    fn retry_backoff(&mut self, attempt: usize) -> Duration {
        let ceil = (self.cfg.retry_backoff).saturating_mul(1 << (attempt - 1).min(4));
        self.draw(ceil / 2, ceil + Duration::from_nanos(1))
    }
}

fn server_node(rank: usize) -> NodeId {
    NodeId(rank as u32)
}

/// Every member's reply, tagged with its source — or `Unavailable`.
pub type RoundResult = Result<Vec<(NodeId, Msg)>, DtmError>;

/// One quorum round: scatter one request to a fixed member set and gather
/// every member's response, each tagged with its source. A timeout
/// re-tries against the *same* members up to `retries` times (2PC phases
/// and explicit queries pass `quorum_retries`; the read round passes 0 and
/// re-picks its quorum itself).
///
/// One logical request keeps **one** request id across every attempt: a
/// timeout re-broadcasts the same correlation id after a jittered,
/// bounded-exponential backoff, responses already gathered are kept (a
/// retry only needs the members that have not answered yet), and servers
/// dedup retried Prepare/Commit/Abort by `(txn, req)` so a request whose
/// *response* was lost is answered from the dedup cache instead of being
/// re-executed. At most one response counts **per source node**: the chaos
/// layer can duplicate a reply in flight, and counting one server twice
/// toward a quorum would void quorum intersection.
#[derive(Default)]
pub struct Round {
    nodes: Vec<NodeId>,
    retries: usize,
    req: ReqId,
    /// The request, built once per logical request: every attempt
    /// scatters this handle.
    msg: Option<Arc<Msg>>,
    got: Vec<(NodeId, Msg)>,
    /// Retries made so far.
    attempt: usize,
    phase: Phase,
    /// Set when the round ends; whether a failed round abandons the
    /// operation — `quorum_unavailable` — is the taker's to count.
    result: Option<RoundResult>,
}

impl Round {
    /// Scatter `build(req)` to `members` and await their replies.
    pub fn begin(
        co: &mut Coordinator,
        members: &[usize],
        retries: usize,
        build: impl FnOnce(ReqId) -> Msg,
        now: Instant,
    ) -> Round {
        let mut round = Round {
            nodes: members.iter().map(|&m| server_node(m)).collect(),
            retries,
            got: Vec::with_capacity(members.len()),
            ..Round::default()
        };
        round.next(co, build, now);
        round
    }

    /// Start the next logical request to the same members.
    fn next(&mut self, co: &mut Coordinator, build: impl FnOnce(ReqId) -> Msg, now: Instant) {
        self.req = co.alloc_req();
        self.msg = Some(Arc::new(build(self.req)));
        self.got.clear();
        self.attempt = 0;
        self.scatter(co, now);
    }

    /// Send one request to the members and await nothing: the round is
    /// over at the broadcast.
    fn fire(&self, co: &mut Coordinator, build: impl FnOnce(ReqId) -> Msg) {
        let msg = build(co.alloc_req());
        co.out.push(Effect::Scatter(Arc::new(msg)));
        co.out.push(Effect::Gathered { failed: false });
    }

    /// Broadcast to everyone: servers that already answered hit their
    /// dedup cache (or redo an idempotent read), the rest get another
    /// chance to respond. Each broadcast is its own round span, so a
    /// retry's server spans are children of the attempt that carried them.
    /// Every attempt sends the same allocation; the round keeps its handle
    /// past the last, for a decided commit to re-send.
    fn scatter(&mut self, co: &mut Coordinator, now: Instant) {
        let msg = self.msg.clone().expect("a round scatters after `next`");
        co.out.push(Effect::Scatter(msg));
        self.phase = Phase::Awaiting(now + co.cfg.rpc_timeout);
    }

    /// The attempt in flight is lost: back off and retry, or give up.
    fn fail_attempt(&mut self, co: &mut Coordinator, now: Instant) {
        co.out.push(Effect::Gathered { failed: true });
        if self.attempt == self.retries {
            return self.end(Err(DtmError::Unavailable));
        }
        self.attempt += 1;
        co.stats.rpc_retries += 1;
        self.phase = Phase::BackingOff(now + co.retry_backoff(self.attempt), None);
    }

    fn end(&mut self, result: RoundResult) {
        self.phase = Phase::Done;
        self.result = Some(result);
    }
}

impl Machine for Round {
    type Output = RoundResult;

    fn on_reply(&mut self, co: &mut Coordinator, src: NodeId, msg: Msg, now: Instant) {
        // Strays: another request's reply, or nothing is in flight.
        if !matches!(self.phase, Phase::Awaiting(_)) || msg.response_req() != Some(self.req) {
            return;
        }
        if let Msg::Syncing { .. } = msg {
            // The replica is catching up after a crash and will not
            // answer this attempt: fail it now instead of burning
            // the full deadline on a reply that cannot arrive.
            co.stats.sync_refusals_seen += 1;
            self.fail_attempt(co, now);
        } else if !self.got.iter().any(|&(s, _)| s == src) {
            self.got.push((src, msg));
            if self.got.len() == self.nodes.len() {
                co.out.push(Effect::Gathered { failed: false });
                let got = std::mem::take(&mut self.got);
                self.end(Ok(got));
            }
        }
    }

    fn on_deadline(&mut self, co: &mut Coordinator, _: Alive, now: Instant) {
        match self.phase {
            Phase::Awaiting(_) => self.fail_attempt(co, now),
            Phase::BackingOff(..) => self.scatter(co, now),
            Phase::Done => {}
        }
    }

    fn phase(&self) -> Phase {
        self.phase
    }

    fn members(&self) -> &[NodeId] {
        &self.nodes
    }

    fn finish(self) -> RoundResult {
        self.result.expect("finished before the round was over")
    }
}

/// How a [`Commit`] ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Every write-quorum member acknowledged the commit (or, read-only,
    /// validated the read-set).
    Committed,
    /// The full quorum voted yes — the transaction *is* committed and the
    /// history says so — but the commit round died before every member
    /// acknowledged it. Members the `CommitReq` never reached still hold
    /// the prepared entry; the coordinator re-sends it to them as each of
    /// its later operations starts ([`Coordinator::resend_decided`]).
    Decided,
    /// A member voted no; the abort round has run. Carries the
    /// [`DtmError::Conflict`].
    Aborted(DtmError),
    /// No quorum could be picked, or the prepare round died without one.
    Unavailable,
}

enum CommitStage {
    Prepare,
    /// Aborting everywhere after a no-vote, with the conflict to report.
    Abort(DtmError),
    Commit,
    Done(CommitOutcome),
}

/// Two-phase commit against a write quorum: prepare, then commit or abort
/// everywhere. Read-only transactions (`writes` empty) run a single
/// validation round against a read quorum — no locks, no phase 2.
pub struct Commit<'a> {
    txn: TxnId,
    validate: &'a [ValidateEntry],
    writes: &'a [(ObjectId, Version, ObjectVal)],
    round: Round,
    stage: CommitStage,
}

impl<'a> Commit<'a> {
    /// Pick the quorum and send the prepare.
    ///
    /// * `validate` — the full read-set (write-set read versions included);
    /// * `writes` — `(object, version-read, new value)`; the committed
    ///   version is `version-read + 1`.
    pub fn start(
        co: &mut Coordinator,
        alive: Alive,
        txn: TxnId,
        validate: &'a [ValidateEntry],
        writes: &'a [(ObjectId, Version, ObjectVal)],
        now: Instant,
    ) -> Self {
        let mut commit = Commit {
            txn,
            validate,
            writes,
            round: Round::default(),
            stage: CommitStage::Done(CommitOutcome::Unavailable),
        };
        let quorum = if writes.is_empty() {
            co.quorums.read_quorum(co.seed, alive)
        } else {
            co.quorums.write_quorum(co.seed, alive)
        };
        let Some(quorum) = quorum else {
            co.stats.quorum_unavailable += 1;
            return commit;
        };
        co.stats.prepares += 1;
        let prepare = |req| Msg::PrepareReq {
            txn,
            req,
            validate: validate.to_vec(),
            writes: writes.iter().map(|&(o, v, _)| (o, v)).collect(),
        };
        commit.round = Round::begin(co, &quorum, co.cfg.quorum_retries, prepare, now);
        commit.stage = CommitStage::Prepare;
        commit
    }

    /// If the stage's round is over, make the stage's transition.
    fn advance(&mut self, co: &mut Coordinator, now: Instant) {
        let Some(result) = self.round.result.take() else {
            return;
        };
        if result.is_err() {
            co.stats.quorum_unavailable += 1;
        }
        let txn = self.txn;
        let stage = std::mem::replace(&mut self.stage, CommitStage::Prepare);
        self.stage = CommitStage::Done(match (stage, result) {
            (CommitStage::Prepare, Ok(votes)) => return self.decide(co, votes, now),
            (CommitStage::Prepare, Err(_)) => {
                // No quorum for prepare (this client may be stuck on a
                // partition's minority side). Members that *did* receive
                // the prepare are holding locks: tell every reachable one
                // to release now instead of waiting out the TTL sweep.
                if !self.writes.is_empty() {
                    self.round.fire(co, |req| Msg::AbortReq { txn, req });
                    co.stats.best_effort_aborts += 1;
                }
                CommitOutcome::Unavailable
            }
            (CommitStage::Abort(conflict), _) => {
                co.stats.conflict_aborts += 1;
                CommitOutcome::Aborted(conflict)
            }
            (CommitStage::Commit, Ok(_)) => {
                // Only now — with a CommitAck from the full write quorum in
                // hand — is the commit *acknowledged*: under
                // ack-after-durable servers held those acks until the
                // covering WAL records were synced, so everything recorded
                // here must survive any later crash-restart.
                if let Some(h) = &co.history {
                    h.record_ack(txn);
                }
                co.stats.commits += 1;
                CommitOutcome::Committed
            }
            (CommitStage::Commit, Err(_)) => {
                let round = &self.round;
                let acked = |n: &NodeId| round.got.iter().any(|&(s, _)| s == *n);
                co.unfinished.push(Unfinished {
                    req: round.req,
                    msg: round.msg.clone().expect("the commit round's request"),
                    owed: round.nodes.iter().copied().filter(|n| !acked(n)).collect(),
                });
                CommitOutcome::Decided
            }
            (CommitStage::Done(_), _) => unreachable!("a finished commit runs no round"),
        });
    }

    /// Fold the prepare votes into the next stage: phase 2, or the end if
    /// read-only.
    fn decide(&mut self, co: &mut Coordinator, votes: Vec<(NodeId, Msg)>, now: Instant) {
        let txn = self.txn;
        let mut all_yes = true;
        let mut invalid: Vec<ObjectId> = Vec::new();
        let mut locked: Vec<ObjectId> = Vec::new();
        let mut sync_refused = false;
        let mut wal_refused = false;
        for (_, r) in votes {
            if let Msg::PrepareResp {
                vote,
                invalid: inv,
                locked: lock,
                syncing,
                wal_refused: walr,
                ..
            } = r
            {
                all_yes &= vote;
                if syncing {
                    sync_refused = true;
                    co.stats.sync_refusals_seen += 1;
                }
                wal_refused |= walr;
                invalid.extend(inv);
                locked.extend(lock);
            }
        }
        if !all_yes {
            invalid.sort_unstable();
            invalid.dedup();
            locked.sort_unstable();
            locked.dedup();
            let conflict = DtmError::Conflict {
                invalid,
                locked,
                syncing: sync_refused,
                wal_refused,
            };
            self.stage = if self.writes.is_empty() {
                // Read-only: validation outcome is the commit outcome.
                co.stats.conflict_aborts += 1;
                CommitStage::Done(CommitOutcome::Aborted(conflict))
            } else {
                // Phase 2: abort everywhere (also the replicas that voted
                // yes).
                self.round.next(co, |req| Msg::AbortReq { txn, req }, now);
                CommitStage::Abort(conflict)
            };
            return;
        }
        // The decision is reached *here* — a yes-vote from the full quorum
        // — so the history record is appended now: even if every CommitAck
        // is lost, servers that receive the CommitReq will apply it, and
        // the checker must account those writes to a committed transaction.
        if let Some(h) = &co.history {
            h.record(CommitRecord {
                txn,
                reads: self.validate.to_vec(),
                writes: self.writes.iter().map(|&(o, v, _)| (o, v + 1)).collect(),
            });
            if self.writes.is_empty() {
                h.record_ack(txn);
            }
        }
        self.stage = if self.writes.is_empty() {
            co.stats.commits += 1;
            CommitStage::Done(CommitOutcome::Committed)
        } else {
            let writes = self.commit_writes();
            let commit = |req| Msg::CommitReq { txn, req, writes };
            self.round.next(co, commit, now);
            CommitStage::Commit
        };
    }

    /// What phase 2 installs: every write at the version after the one read.
    fn commit_writes(&self) -> Vec<(ObjectId, Version, ObjectVal)> {
        let next = |(o, v, val): &(ObjectId, Version, ObjectVal)| (*o, v + 1, val.clone());
        self.writes.iter().map(next).collect()
    }
}

impl Machine for Commit<'_> {
    type Output = CommitOutcome;

    fn on_reply(&mut self, co: &mut Coordinator, src: NodeId, msg: Msg, now: Instant) {
        self.round.on_reply(co, src, msg, now);
        self.advance(co, now);
    }

    fn on_deadline(&mut self, co: &mut Coordinator, alive: Alive, now: Instant) {
        self.round.on_deadline(co, alive, now);
        self.advance(co, now);
    }

    fn phase(&self) -> Phase {
        match self.stage {
            CommitStage::Done(_) => Phase::Done,
            _ => self.round.phase,
        }
    }

    fn members(&self) -> &[NodeId] {
        &self.round.nodes
    }

    fn finish(self) -> CommitOutcome {
        match self.stage {
            CommitStage::Done(outcome) => outcome,
            _ => panic!("finished before the commit was over"),
        }
    }
}

/// `(object, version, value)` per requested object, in request order.
pub type ReadResult = Result<Vec<(ObjectId, Version, ObjectVal)>, DtmError>;

/// The read round — every remote read of the DTM, of one object or of
/// many, is this one quorum round trip.
///
/// `validate` is the transaction's full read-set; `watermarks` maps each
/// server to the length of the read-set prefix it has already validated
/// for this transaction. Only the suffix past the slowest contacted
/// member's watermark is shipped (the *delta*), and the watermarks of the
/// members that replied are advanced on success — so total shipped
/// validation payload stays linear in the read-set size. Skipped entries
/// are still validated at prepare time; the delta only affects how early
/// staleness is detected, never safety. A caller that wants the whole
/// read-set re-validated (a statement-level open) passes empty watermarks.
///
/// The round contacts exactly one minimal read quorum and waits for every
/// member: advancing watermarks for a member that never replied would
/// skip validation it has not done, and *not* advancing stragglers would
/// pin the delta at the full read-set, defeating the point.
pub struct Read<'a> {
    txn: TxnId,
    objs: &'a [ObjectId],
    validate: &'a [ValidateEntry],
    watermarks: &'a mut HashMap<NodeId, usize>,
    round: Round,
    locked_attempts: usize,
    quorum_attempts: usize,
    /// A wait between rounds (`BackingOff`), the end (`Done`, with
    /// `result` set), or `None` while a round runs.
    wait: Option<Phase>,
    result: Option<ReadResult>,
}

impl<'a> Read<'a> {
    /// Pick a read quorum and send the request.
    pub fn start(
        co: &mut Coordinator,
        alive: Alive,
        txn: TxnId,
        objs: &'a [ObjectId],
        validate: &'a [ValidateEntry],
        watermarks: &'a mut HashMap<NodeId, usize>,
        now: Instant,
    ) -> Self {
        assert!(!objs.is_empty(), "read round for zero objects");
        let mut read = Read {
            txn,
            objs,
            validate,
            watermarks,
            round: Round::default(),
            locked_attempts: 0,
            quorum_attempts: 0,
            wait: None,
            result: None,
        };
        read.issue(co, alive, now);
        read
    }

    /// How long a read-set prefix each server has validated so far.
    pub fn watermarks(&self) -> &HashMap<NodeId, usize> {
        self.watermarks
    }

    fn end(&mut self, result: ReadResult) {
        self.result = Some(result);
        self.wait = Some(Phase::Done);
    }

    /// One round against the read quorum the current attempt's seed picks
    /// from `alive`.
    fn issue(&mut self, co: &mut Coordinator, alive: Alive, now: Instant) {
        let seed = co.seed.wrapping_add(self.quorum_attempts as u64);
        let Some(quorum) = co.quorums.read_quorum(seed, alive) else {
            co.stats.quorum_unavailable += 1;
            return self.end(Err(DtmError::Unavailable));
        };
        let start = quorum
            .iter()
            .map(|&m| self.watermarks.get(&server_node(m)).copied().unwrap_or(0))
            .min()
            .unwrap_or(0)
            .min(self.validate.len());
        let delta = self.validate[start..].to_vec();
        co.stats.validate_entries_sent += (delta.len() * quorum.len()) as u64;
        let (txn, objs) = (self.txn, self.objs.to_vec());
        let sample = co.piggyback_classes.clone();
        let request = |req| Msg::ReadBatchReq {
            txn,
            req,
            objs,
            validate: delta,
            sample,
        };
        self.wait = None;
        self.round = Round::begin(co, &quorum, 0, request, now);
    }

    /// If the round is over, fold its replies into the next state.
    fn advance(&mut self, co: &mut Coordinator, now: Instant) {
        let Some(result) = self.round.result.take() else {
            return;
        };
        let Ok(resps) = result else {
            // Timed out or refused: re-pick the quorum with the next seed,
            // at once.
            self.quorum_attempts += 1;
            if self.quorum_attempts > co.cfg.quorum_retries {
                co.stats.quorum_unavailable += 1;
                return self.end(Err(DtmError::Unavailable));
            }
            self.wait = Some(Phase::BackingOff(now, None));
            return;
        };
        co.stats.remote_reads += 1;
        let objs = self.objs;

        let mut invalid: Vec<ObjectId> = Vec::new();
        let mut locked_obj: Option<ObjectId> = None;
        let mut best: Vec<Option<(Version, ObjectVal)>> = vec![None; objs.len()];
        let mut sampled: HashMap<u16, f64> = HashMap::new();
        // Per responder: (version, locked) in request order, for repair.
        let mut served: Vec<(NodeId, Vec<(Version, bool)>)> = Vec::with_capacity(resps.len());
        for (src, r) in resps {
            if let Msg::ReadBatchResp {
                reads,
                invalid: inv,
                levels,
                ..
            } = r
            {
                debug_assert_eq!(reads.len(), objs.len(), "reply not in request shape");
                invalid.extend(inv);
                for (c, l) in levels {
                    let e = sampled.entry(c).or_insert(0.0);
                    if l > *e {
                        *e = l;
                    }
                }
                let mut versions = Vec::with_capacity(objs.len());
                for (i, read) in reads.into_iter().enumerate().take(objs.len()) {
                    versions.push((read.version, read.locked));
                    if read.locked {
                        locked_obj.get_or_insert(read.obj);
                    } else if best[i].as_ref().is_none_or(|(v, _)| read.version > *v) {
                        best[i] = Some((read.version, read.value));
                    }
                }
                served.push((src, versions));
            }
        }
        if !sampled.is_empty() {
            co.piggybacked = sampled;
        }
        if !invalid.is_empty() {
            invalid.sort_unstable();
            invalid.dedup();
            co.stats.read_invalidations += 1;
            return self.end(Err(DtmError::Invalidated { objs: invalid }));
        }
        if let Some(obj) = locked_obj {
            // An object (or a replica of it) is protected by an in-flight
            // commit: back off briefly and re-read. Reading around the lock
            // would be unsafe only for the value — the freshest unlocked
            // replica may be pre-commit — so we must retry rather than mix.
            self.locked_attempts += 1;
            co.stats.locked_read_retries += 1;
            if self.locked_attempts > co.cfg.locked_retries {
                return self.end(Err(DtmError::LockedOut { obj }));
            }
            let until = now + co.cfg.locked_backoff;
            self.wait = Some(Phase::BackingOff(until, Some(SpanKind::LockWait)));
            return;
        }
        // The round validated `validate[start..]` at every replier, and
        // entries before `start` were covered by each replier's own
        // (>= start) watermark: the full prefix is now validated there.
        for (node, _) in &served {
            let w = self.watermarks.entry(*node).or_insert(0);
            *w = (*w).max(self.validate.len());
        }
        // Read repair, batched per lagging responder: each repaired node
        // gets one RepairWrite carrying exactly the objects it served stale
        // (and unlocked) — pushing the freshest committed copy back.
        // Bounded and fire-and-forget.
        let mut repaired = 0usize;
        for (node, versions) in &served {
            if repaired >= co.cfg.read_repair_max {
                break;
            }
            let writes: Vec<(ObjectId, Version, ObjectVal)> = versions
                .iter()
                .enumerate()
                .filter_map(|(i, &(v, locked))| match &best[i] {
                    Some((bv, bval)) if !locked && v < *bv => Some((objs[i], *bv, bval.clone())),
                    _ => None,
                })
                .collect();
            if writes.is_empty() {
                continue;
            }
            let req = co.alloc_req();
            co.out
                .push(Effect::Send(*node, Msg::RepairWrite { req, writes }));
            co.stats.repair_writes_sent += 1;
            repaired += 1;
        }
        let reads = objs.iter().zip(best).map(|(&o, b)| {
            let (v, val) = b.expect("quorum is non-empty");
            (o, v, val)
        });
        self.end(Ok(reads.collect()));
    }
}

impl Machine for Read<'_> {
    type Output = ReadResult;

    fn on_reply(&mut self, co: &mut Coordinator, src: NodeId, msg: Msg, now: Instant) {
        if self.wait.is_none() {
            self.round.on_reply(co, src, msg, now);
            self.advance(co, now);
        }
    }

    fn on_deadline(&mut self, co: &mut Coordinator, alive: Alive, now: Instant) {
        match self.wait {
            None => {
                self.round.on_deadline(co, alive, now);
                self.advance(co, now);
            }
            Some(Phase::Done) => {}
            Some(_) => self.issue(co, alive, now),
        }
    }

    fn phase(&self) -> Phase {
        self.wait.unwrap_or(self.round.phase)
    }

    fn members(&self) -> &[NodeId] {
        &self.round.nodes
    }

    fn finish(self) -> ReadResult {
        self.result.expect("finished before the read was over")
    }
}

#[cfg(test)]
mod tests {
    //! The machines at synthetic instants an hour ahead of the wall clock:
    //! no cluster, no endpoint, no sleep.

    use super::*;
    use crate::messages::BatchRead;
    use acn_quorum::DaryTree;
    use acn_txir::ObjClass;

    const ACCT: ObjClass = ObjClass::new(0, "acct");
    const X: ObjectId = ObjectId::new(ACCT, 1);
    const ALL_UP: Alive<'static> = &|_| true;

    /// Client node 4 of a four-server ternary tree: its read quorum is
    /// {2, 3} (then {1, 3}, {1, 2} as the seed moves on), its write quorum
    /// {0, 2, 3}.
    fn coordinator(cfg: ClientConfig) -> Coordinator {
        Coordinator::new(NodeId(4), LevelQuorums::new(DaryTree::ternary(4)), cfg)
    }

    fn cfg() -> ClientConfig {
        ClientConfig {
            rpc_timeout: Duration::from_millis(30),
            quorum_retries: 3,
            locked_retries: 2,
            locked_backoff: Duration::from_micros(200),
            retry_backoff: Duration::from_micros(200),
            read_repair_max: 2,
        }
    }

    fn t0() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    fn query(req: ReqId) -> Msg {
        Msg::ContentionReq {
            req,
            classes: vec![],
        }
    }

    fn answer(req: ReqId) -> Msg {
        Msg::ContentionResp {
            req,
            levels: vec![],
            abort_levels: vec![],
        }
    }

    fn req_of(msg: &Msg) -> ReqId {
        match msg {
            Msg::ReadBatchReq { req, .. }
            | Msg::PrepareReq { req, .. }
            | Msg::CommitReq { req, .. }
            | Msg::AbortReq { req, .. }
            | Msg::ContentionReq { req, .. } => *req,
            other => panic!("not a request: {other:?}"),
        }
    }

    /// Take the queued effects, returning the request ids scattered and the
    /// `Gathered { failed }` flags seen, each in order.
    fn drain(co: &mut Coordinator) -> (Vec<ReqId>, Vec<bool>) {
        let (mut scattered, mut gathered) = (Vec::new(), Vec::new());
        for effect in co.effects() {
            match effect {
                Effect::Scatter(msg) => scattered.push(req_of(&msg)),
                Effect::Gathered { failed } => gathered.push(failed),
                Effect::Send(..) => {}
            }
        }
        (scattered, gathered)
    }

    fn awaited(phase: Phase) -> Instant {
        match phase {
            Phase::Awaiting(deadline) => deadline,
            other => panic!("expected Awaiting, got {other:?}"),
        }
    }

    fn backing_off(phase: Phase) -> (Instant, Option<SpanKind>) {
        match phase {
            Phase::BackingOff(until, kind) => (until, kind),
            other => panic!("expected BackingOff, got {other:?}"),
        }
    }

    #[test]
    fn retry_backoff_is_a_jittered_capped_deadline_and_the_request_id_never_changes() {
        let mut co = coordinator(cfg());
        let mut now = t0();
        let retries = 7;
        let mut round = Round::begin(&mut co, &[0, 2, 3], retries, query, now);
        let req = drain(&mut co).0[0];
        for attempt in 1..=retries {
            let deadline = awaited(round.phase);
            assert_eq!(deadline, now + co.cfg.rpc_timeout);
            now = deadline;
            round.on_deadline(&mut co, ALL_UP, now);
            assert_eq!(
                drain(&mut co),
                (vec![], vec![true]),
                "the span closes failed"
            );
            assert_eq!(co.stats.rpc_retries, attempt as u64);
            let (until, kind) = backing_off(round.phase);
            let ceil = co.cfg.retry_backoff * (1 << (attempt - 1).min(4));
            let wait = until - now;
            assert!(
                ceil / 2 <= wait && wait <= ceil,
                "attempt {attempt}: {wait:?}"
            );
            assert!(wait <= co.cfg.retry_backoff * 16, "the 16x cap");
            assert_eq!(kind, None, "a retry backoff is not a span");
            now = until;
            round.on_deadline(&mut co, ALL_UP, now);
            assert_eq!(drain(&mut co), (vec![req], vec![]), "one id, every attempt");
        }
        now = awaited(round.phase);
        round.on_deadline(&mut co, ALL_UP, now);
        assert_eq!(round.phase, Phase::Done);
        assert_eq!(round.finish().unwrap_err(), DtmError::Unavailable);
        assert_eq!(co.stats.rpc_retries, retries as u64);
    }

    /// Every `Scatter` the coordinator queues, in order.
    fn scatters(co: &mut Coordinator) -> Vec<Arc<Msg>> {
        let scattered = co.effects().filter_map(|effect| match effect {
            Effect::Scatter(msg) => Some(msg),
            _ => None,
        });
        scattered.collect()
    }

    #[test]
    fn a_retried_round_rebroadcasts_one_allocation_and_a_decided_commit_keeps_it() {
        let mut co = coordinator(cfg());
        let mut now = t0();
        let mut round = Round::begin(&mut co, &[0, 2, 3], 3, query, now);
        let mut sent = scatters(&mut co);
        while round.phase != Phase::Done {
            now = match round.phase {
                Phase::Awaiting(at) | Phase::BackingOff(at, _) => at,
                Phase::Done => unreachable!(),
            };
            round.on_deadline(&mut co, ALL_UP, now);
            sent.extend(scatters(&mut co));
        }
        assert_eq!(sent.len(), 4, "the first attempt and three retries");
        assert!(sent.iter().all(|msg| Arc::ptr_eq(msg, &sent[0])));

        // A commit round that dies after the decision keeps its request
        // for the re-send, as the same allocation.
        let txn = co.begin();
        let writes = [(X, 0, ObjectVal::new())];
        let mut commit = Commit::start(&mut co, ALL_UP, txn, &[(X, 0)], &writes, now);
        let prepare = req_of(&scatters(&mut co)[0]);
        for node in [0, 2, 3] {
            commit.on_reply(&mut co, NodeId(node), vote(prepare, true), now);
        }
        let mut sent = scatters(&mut co);
        while commit.phase() != Phase::Done {
            now = match commit.phase() {
                Phase::Awaiting(at) | Phase::BackingOff(at, _) => at,
                Phase::Done => unreachable!(),
            };
            commit.on_deadline(&mut co, ALL_UP, now);
            sent.extend(scatters(&mut co));
        }
        assert_eq!(commit.finish(), CommitOutcome::Decided);
        assert_eq!(sent.len(), 4);
        assert!(sent.iter().all(|msg| Arc::ptr_eq(msg, &sent[0])));
        assert!(Arc::ptr_eq(&co.unfinished[0].msg, &sent[0]));
    }

    #[test]
    fn one_reply_per_source_counts_and_an_earlier_attempts_replies_are_kept() {
        let mut co = coordinator(cfg());
        let mut now = t0();
        let mut round = Round::begin(&mut co, &[0, 2, 3], 1, query, now);
        let req = drain(&mut co).0[0];
        // Attempt 1: node 0 answers (twice — a duplicate in flight), a
        // stray from another request passes by, then the deadline.
        round.on_reply(&mut co, NodeId(0), answer(req), now);
        round.on_reply(&mut co, NodeId(0), answer(req), now);
        round.on_reply(&mut co, NodeId(2), answer(req + 1), now);
        assert_eq!(round.got.len(), 1);
        now = awaited(round.phase);
        round.on_deadline(&mut co, ALL_UP, now);
        // A reply during the backoff is a stray: nothing is in flight.
        round.on_reply(&mut co, NodeId(2), answer(req), now);
        assert_eq!(round.got.len(), 1);
        now = backing_off(round.phase).0;
        round.on_deadline(&mut co, ALL_UP, now);
        // Attempt 2 only needs the two members still missing.
        round.on_reply(&mut co, NodeId(2), answer(req), now);
        assert_ne!(round.phase, Phase::Done);
        round.on_reply(&mut co, NodeId(3), answer(req), now);
        assert_eq!(round.phase, Phase::Done);
        assert_eq!(drain(&mut co), (vec![req], vec![true, false]));
        let sources: Vec<NodeId> = round.finish().unwrap().iter().map(|r| r.0).collect();
        assert_eq!(sources, [NodeId(0), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn a_syncing_refusal_fails_the_attempt_without_waiting_for_the_deadline() {
        let mut co = coordinator(cfg());
        let now = t0();
        let mut round = Round::begin(&mut co, &[0, 2, 3], 0, query, now);
        let req = drain(&mut co).0[0];
        round.on_reply(&mut co, NodeId(0), answer(req), now);
        round.on_reply(&mut co, NodeId(2), Msg::Syncing { req }, now);
        assert_eq!(drain(&mut co), (vec![], vec![true]));
        assert_eq!(co.stats.sync_refusals_seen, 1);
        assert_eq!(round.finish().unwrap_err(), DtmError::Unavailable);
    }

    fn read_reply(req: ReqId, version: Version, locked: bool) -> Msg {
        Msg::ReadBatchResp {
            req,
            reads: vec![BatchRead {
                obj: X,
                version,
                value: ObjectVal::new(),
                locked,
            }],
            invalid: vec![],
            levels: vec![],
        }
    }

    #[test]
    fn a_locked_read_reissues_after_exactly_locked_backoff_and_then_locks_out() {
        let mut co = coordinator(cfg());
        let mut now = t0();
        let mut wm = HashMap::new();
        let txn = co.begin();
        let mut read = Read::start(&mut co, ALL_UP, txn, &[X], &[], &mut wm, now);
        for round in 1..=co.cfg.locked_retries + 1 {
            let (scattered, _) = drain(&mut co);
            assert_eq!(scattered.len(), 1, "one broadcast per round");
            assert_eq!(read.members(), [NodeId(2), NodeId(3)]);
            read.on_reply(&mut co, NodeId(2), read_reply(scattered[0], 1, false), now);
            read.on_reply(&mut co, NodeId(3), read_reply(scattered[0], 0, true), now);
            assert_eq!(co.stats.locked_read_retries, round as u64);
            if round <= co.cfg.locked_retries {
                let (until, kind) = backing_off(read.phase());
                assert_eq!(until, now + co.cfg.locked_backoff);
                assert_eq!(kind, Some(SpanKind::LockWait));
                now = until;
                read.on_deadline(&mut co, ALL_UP, now);
            }
        }
        assert_eq!(read.phase(), Phase::Done);
        assert_eq!(read.finish(), Err(DtmError::LockedOut { obj: X }));
        assert_eq!(co.stats.remote_reads, 3);
        assert!(wm.is_empty(), "a locked round validates nothing");
    }

    #[test]
    fn a_timed_out_read_repicks_its_quorum_and_advances_only_that_rounds_repliers() {
        let mut co = coordinator(cfg());
        let mut now = t0();
        let mut wm = HashMap::new();
        let txn = co.begin();
        let validate = [(X, 1)];
        let mut read = Read::start(&mut co, ALL_UP, txn, &[X], &validate, &mut wm, now);
        // Round 1 to {2, 3}: node 2 answers, node 3 never does.
        let req = drain(&mut co).0[0];
        read.on_reply(&mut co, NodeId(2), read_reply(req, 1, false), now);
        now = awaited(read.phase());
        read.on_deadline(&mut co, ALL_UP, now);
        assert_eq!(backing_off(read.phase()), (now, None), "re-pick at once");
        read.on_deadline(&mut co, ALL_UP, now);
        // Round 2 goes to the next seed's quorum under a fresh id; node 2's
        // late duplicate no longer counts.
        assert_eq!(read.members(), [NodeId(1), NodeId(3)]);
        let (scattered, gathered) = drain(&mut co);
        assert_eq!(gathered, [true]);
        assert_ne!(scattered[0], req);
        read.on_reply(&mut co, NodeId(2), read_reply(req, 1, false), now);
        read.on_reply(&mut co, NodeId(1), read_reply(scattered[0], 0, false), now);
        read.on_reply(&mut co, NodeId(3), read_reply(scattered[0], 1, false), now);
        let got = read.finish().unwrap();
        assert_eq!((got[0].0, got[0].1), (X, 1), "the freshest copy wins");
        let mut advanced: Vec<_> = wm.into_iter().collect();
        advanced.sort_unstable();
        assert_eq!(advanced, [(NodeId(1), 1), (NodeId(3), 1)]);
        assert_eq!(co.stats.rpc_retries, 0, "a re-pick is not a retry");
        assert_eq!(co.stats.repair_writes_sent, 1, "node 1 served a stale copy");
    }

    #[test]
    fn a_read_is_unavailable_after_quorum_retries_plus_one_timeouts() {
        let mut co = coordinator(cfg());
        let mut now = t0();
        let mut wm = HashMap::new();
        let txn = co.begin();
        let mut read = Read::start(&mut co, ALL_UP, txn, &[X], &[], &mut wm, now);
        let mut rounds = 0;
        while read.phase() != Phase::Done {
            now = match read.phase() {
                Phase::Awaiting(deadline) => deadline,
                Phase::BackingOff(until, _) => until,
                Phase::Done => unreachable!(),
            };
            read.on_deadline(&mut co, ALL_UP, now);
            rounds += drain(&mut co).1.len();
        }
        assert_eq!(rounds, co.cfg.quorum_retries + 1);
        assert_eq!(read.finish(), Err(DtmError::Unavailable));
        assert_eq!(co.stats.quorum_unavailable, 1);
        // With no live majority the same read fails without a broadcast.
        let read = Read::start(&mut co, &|_| false, txn, &[X], &[], &mut wm, now);
        assert_eq!(co.effects().count(), 0);
        assert_eq!(read.finish(), Err(DtmError::Unavailable));
    }

    fn vote(req: ReqId, vote: bool) -> Msg {
        Msg::PrepareResp {
            req,
            vote,
            invalid: if vote { vec![] } else { vec![X] },
            locked: None,
            syncing: false,
            wal_refused: false,
        }
    }

    /// Let every deadline of `commit` pass until it is done; returns how
    /// many broadcasts that took.
    fn starve(commit: &mut Commit, co: &mut Coordinator, now: &mut Instant) -> Vec<ReqId> {
        let mut scattered = Vec::new();
        while commit.phase() != Phase::Done {
            *now = match commit.phase() {
                Phase::Awaiting(deadline) => deadline,
                Phase::BackingOff(until, _) => until,
                Phase::Done => unreachable!(),
            };
            commit.on_deadline(co, ALL_UP, *now);
            scattered.extend(drain(co).0);
        }
        scattered
    }

    #[test]
    fn a_dead_prepare_round_fires_one_unawaited_abort_and_is_unavailable() {
        let mut co = coordinator(cfg());
        let mut now = t0();
        let txn = co.begin();
        let writes = [(X, 0, ObjectVal::new())];
        let mut commit = Commit::start(&mut co, ALL_UP, txn, &[(X, 0)], &writes, now);
        assert_eq!(commit.members(), [NodeId(0), NodeId(2), NodeId(3)]);
        let prepare = drain(&mut co).0[0];
        let scattered = starve(&mut commit, &mut co, &mut now);
        // Three re-broadcasts of the prepare, then the abort under the
        // next id — sent, its span closed, nothing awaited.
        assert_eq!(scattered, [prepare, prepare, prepare, prepare + 1]);
        assert_eq!(commit.finish(), CommitOutcome::Unavailable);
        let stats = co.stats();
        assert_eq!((stats.prepares, stats.best_effort_aborts), (1, 1));
        assert_eq!((stats.rpc_retries, stats.quorum_unavailable), (3, 1));
    }

    #[test]
    fn a_commit_round_that_dies_after_the_decision_ends_decided() {
        let mut co = coordinator(cfg());
        let history = Arc::new(HistoryLog::new());
        co.set_history(history.clone());
        let mut now = t0();
        let txn = co.begin();
        let writes = [(X, 0, ObjectVal::new())];
        let mut commit = Commit::start(&mut co, ALL_UP, txn, &[(X, 0)], &writes, now);
        let prepare = drain(&mut co).0[0];
        for node in [0, 2, 3] {
            assert!(history.is_empty(), "no decision before the last vote");
            commit.on_reply(&mut co, NodeId(node), vote(prepare, true), now);
        }
        assert_eq!(history.snapshot()[0].writes, [(X, 1)]);
        assert_eq!(drain(&mut co), (vec![prepare + 1], vec![false]));
        // Two of three members acknowledge; the third never does.
        let ack = Msg::CommitAck { req: prepare + 1 };
        commit.on_reply(&mut co, NodeId(0), ack.clone(), now);
        commit.on_reply(&mut co, NodeId(2), ack, now);
        let scattered = starve(&mut commit, &mut co, &mut now);
        assert_eq!(
            scattered,
            [prepare + 1; 3],
            "the commit is re-sent, never an abort"
        );
        assert_eq!(commit.finish(), CommitOutcome::Decided);
        assert!(history.acked_snapshot().is_empty(), "decided is not acked");
        assert_eq!((co.stats.commits, co.stats.quorum_unavailable), (0, 1));
        assert_eq!(co.stats.best_effort_aborts, 0);
        // Each later operation re-sends the same request to the member that
        // never acknowledged it, unless that member is down, until it acks.
        co.resend_decided(&|rank| rank != 3);
        assert_eq!(co.effects().count(), 0, "member 3 is down");
        co.resend_decided(ALL_UP);
        let resent: Vec<Effect> = co.effects().collect();
        let [Effect::Send(to, msg)] = &resent[..] else {
            panic!("expected one send: {resent:?}");
        };
        let Msg::CommitReq { req, writes, .. } = msg else {
            panic!("expected the CommitReq: {msg:?}");
        };
        assert_eq!(
            (*to, *req),
            (NodeId(3), prepare + 1),
            "same id, silent member"
        );
        assert_eq!((writes[0].0, writes[0].1), (X, 1));
        co.settle_decided(NodeId(3), &Msg::CommitAck { req: prepare + 1 });
        co.resend_decided(ALL_UP);
        assert_eq!(co.effects().count(), 0, "settled");
    }

    #[test]
    fn a_no_vote_runs_the_abort_round_before_the_conflict_is_reported() {
        let mut co = coordinator(cfg());
        let now = t0();
        let txn = co.begin();
        let writes = [(X, 0, ObjectVal::new())];
        let mut commit = Commit::start(&mut co, ALL_UP, txn, &[(X, 0)], &writes, now);
        let prepare = drain(&mut co).0[0];
        commit.on_reply(&mut co, NodeId(0), vote(prepare, true), now);
        commit.on_reply(&mut co, NodeId(2), vote(prepare, false), now);
        commit.on_reply(&mut co, NodeId(3), vote(prepare, true), now);
        assert!(
            matches!(
                co.effects().nth(1),
                Some(Effect::Scatter(msg)) if matches!(*msg, Msg::AbortReq { .. })
            ),
            "abort everywhere, the yes-voters included"
        );
        assert_eq!(co.stats.conflict_aborts, 0, "not over until the abort is");
        for node in [0, 2, 3] {
            assert_ne!(commit.phase(), Phase::Done);
            let ack = Msg::AbortAck { req: prepare + 1 };
            commit.on_reply(&mut co, NodeId(node), ack, now);
        }
        let conflict = DtmError::Conflict {
            invalid: vec![X],
            locked: vec![],
            syncing: false,
            wal_refused: false,
        };
        assert_eq!(commit.finish(), CommitOutcome::Aborted(conflict));
        assert_eq!(co.stats.conflict_aborts, 1);
    }

    #[test]
    fn jitter_is_seeded_per_node_and_stays_in_range() {
        // Contending clients must not back off in lock-step: the one
        // generator behind retry backoff and restart jitter is seeded by
        // the node id, never by thread first-touch order.
        let sequence = |node| {
            let mut co = Coordinator::new(NodeId(node), coordinator(cfg()).quorums, cfg());
            let (lo, hi) = (Duration::from_nanos(100), Duration::from_nanos(1700));
            let draws: Vec<Duration> = (0..64).map(|_| co.draw(lo, hi)).collect();
            assert!(draws.iter().all(|&d| lo <= d && d < hi));
            assert!(draws.iter().any(|&d| d != draws[0]));
            draws
        };
        assert_ne!(sequence(4), sequence(5));
        assert_eq!(sequence(4), sequence(4), "a node's sequence is its seed's");
        let mut co = coordinator(cfg());
        let at = Duration::from_micros(3);
        assert_eq!(co.draw(at, at), at, "an empty range draws its bound");
    }
}
