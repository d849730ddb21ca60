//! The transaction client: remote reads with incremental validation,
//! two-phase commit, and contention queries.
//!
//! The protocol itself lives in [`crate::coordinator`] as state machines
//! that touch neither the network nor the clock. [`DtmClient`] is their
//! pump: `drive` is the only function here that calls an [`Endpoint`]
//! method, and — with [`DtmClient::pause`], the one place a client thread
//! sleeps outside a round — the only one that reads `Instant::now()` or
//! sleeps.

use crate::context::Scratch;
use crate::coordinator::{
    Alive, Commit, CommitOutcome, Coordinator, Effect, Machine, Phase, Read, ReadResult, Round,
};
use crate::error::DtmError;
use crate::history::HistoryLog;
use crate::messages::{Msg, TxnId, ValidateEntry, Version};
use acn_obs::{PendingSpan, SpanKind, Tracer, TxnObserver};
use acn_quorum::LevelQuorums;
use acn_simnet::{Endpoint, Network, NodeId};
use acn_txir::{ObjectId, ObjectVal};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side protocol knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// How long to wait for a full quorum of responses before treating the
    /// round as failed and re-selecting a quorum.
    pub rpc_timeout: Duration,
    /// How many quorum re-selections before reporting `Unavailable`.
    pub quorum_retries: usize,
    /// How many times to re-issue a read that keeps hitting `protected`
    /// objects before giving up with `LockedOut`.
    pub locked_retries: usize,
    /// Pause between locked-read retries (lets the in-flight commit drain).
    pub locked_backoff: Duration,
    /// Base pause before a quorum-RPC retry. Doubles per attempt (capped
    /// at 16×) with uniform jitter, so retries from clients that timed out
    /// together do not stampede back in lock-step.
    pub retry_backoff: Duration,
    /// Read repair: after a quorum read, push the freshest version back to
    /// at most this many lagging responders per round (fire-and-forget
    /// [`Msg::RepairWrite`], no ack awaited). Safe because repairs install
    /// only already-committed versions and the store is forward-only; 0
    /// disables repair.
    pub read_repair_max: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            // Generous: the simulation may run many more threads than
            // cores, so a slice-starved server must not look failed.
            rpc_timeout: Duration::from_secs(1),
            quorum_retries: 3,
            locked_retries: 20,
            locked_backoff: Duration::from_micros(200),
            retry_backoff: Duration::from_micros(200),
            read_repair_max: 2,
        }
    }
}

/// Message counters for one client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Quorum read rounds completed.
    pub remote_reads: u64,
    /// Read rounds re-issued because an object was `protected`.
    pub locked_read_retries: u64,
    /// Reads that surfaced a stale read-set entry.
    pub read_invalidations: u64,
    /// Prepare rounds issued.
    pub prepares: u64,
    /// Transactions committed (including read-only validations).
    pub commits: u64,
    /// Prepare rounds that voted no.
    pub conflict_aborts: u64,
    /// Operations abandoned for lack of a quorum.
    pub quorum_unavailable: u64,
    /// Read-set validation entries shipped on read rounds, counted once
    /// per receiving quorum member. Delta validation keeps this linear in
    /// the read-set size for fetch rounds; statement-level opens present
    /// the full read-set every round and grow quadratically.
    pub validate_entries_sent: u64,
    /// Quorum RPC rounds re-broadcast after a timeout (same request id,
    /// after backoff).
    pub rpc_retries: u64,
    /// Best-effort abort broadcasts fired when a 2PC round died without a
    /// quorum (e.g. the client found itself on a partition's minority
    /// side), so reachable servers release locks without waiting for the
    /// prepared-entry TTL.
    pub best_effort_aborts: u64,
    /// Read-repair messages sent to lagging responders (fire-and-forget;
    /// whether each repair actually advanced the replica is counted
    /// server-side).
    pub repair_writes_sent: u64,
    /// Responses refused because the replica was catching up after a
    /// crash (restart or amnesia): [`Msg::Syncing`] read refusals plus
    /// syncing-flagged prepare no-votes.
    pub sync_refusals_seen: u64,
}

/// A client node's connection to the DTM: it executes remote operations on
/// behalf of the transactions running on this node. One `DtmClient` is
/// owned by one thread (the paper's "client").
pub struct DtmClient {
    endpoint: Endpoint<Msg>,
    net: Network<Msg>,
    /// The protocol state the operations run on.
    co: Coordinator,
    /// The worker's observer. When its span tracer has a transaction
    /// trace open, quorum rounds become spans and requests ship wrapped in
    /// [`Msg::Traced`] so servers can parent their own spans to the round.
    observer: Option<Box<TxnObserver>>,
    /// Did `drive` park — wait for a reply or back off — since the last
    /// [`DtmClient::begin`]?
    parked: bool,
    /// The collections of the last committed transaction, emptied, for the
    /// next [`crate::TxnCtx::begin`] to fill again.
    pub(crate) scratch: Scratch,
}

impl DtmClient {
    /// Wire a client endpoint to the cluster's quorum system.
    pub fn new(
        net: Network<Msg>,
        endpoint: Endpoint<Msg>,
        quorums: LevelQuorums,
        cfg: ClientConfig,
    ) -> Self {
        DtmClient {
            co: Coordinator::new(endpoint.id(), quorums, cfg),
            endpoint,
            net,
            observer: None,
            parked: false,
            scratch: Scratch::default(),
        }
    }

    /// Message/outcome counters so far.
    pub fn stats(&self) -> ClientStats {
        self.co.stats
    }

    /// Attach a cluster-wide committed-history log. Every subsequent
    /// successful commit appends its read/write versions for the
    /// serializability checker.
    pub fn set_history(&mut self, history: Arc<HistoryLog>) {
        self.co.set_history(history);
    }

    /// Install the worker's observer: the executor hands it every event
    /// of the transactions run on this client. With a span tracer in it,
    /// the client also records one round span per quorum RPC broadcast and
    /// one wait span per backoff — but only while the tracer has an open
    /// transaction, so seeding and contention-query traffic stays
    /// untraced and unwrapped.
    pub fn set_observer(&mut self, observer: TxnObserver) {
        self.observer = Some(Box::new(observer));
    }

    /// The installed observer.
    pub fn observer_mut(&mut self) -> Option<&mut TxnObserver> {
        self.observer.as_deref_mut()
    }

    /// Remove and return the observer (merged by the driver at run end).
    pub fn take_observer(&mut self) -> Option<TxnObserver> {
        self.observer.take().map(|b| *b)
    }

    /// Piggyback a contention sample of `classes` on every subsequent
    /// remote read, instead of (or in addition to) explicit
    /// [`DtmClient::query_contention`] rounds.
    pub fn set_piggyback_classes(&mut self, classes: Vec<u16>) {
        self.co.piggyback_classes = classes;
    }

    /// The most recent piggybacked per-class contention levels (empty
    /// until a remote read has carried a sample).
    pub fn piggybacked_levels(&self) -> &HashMap<u16, f64> {
        &self.co.piggybacked
    }

    /// The client's network node id.
    pub fn node(&self) -> NodeId {
        self.endpoint.id()
    }

    /// Start a transaction: allocate its globally unique id.
    ///
    /// A client whose previous transaction never parked — every reply was
    /// already queued, because the servers ran on this thread — yields the
    /// core first. Otherwise two such clients sharing a core each run whole
    /// time slices, and a transaction preempted between prepare and commit
    /// holds its locks for a full slice. A client that waits on the network
    /// already lets others run, and never yields here.
    pub fn begin(&mut self) -> TxnId {
        if !std::mem::take(&mut self.parked) {
            std::thread::yield_now();
        }
        self.co.begin()
    }

    /// The round-span kind a request message opens.
    fn round_kind(msg: &Msg) -> SpanKind {
        match msg {
            Msg::ReadBatchReq { .. } => SpanKind::ReadRound,
            Msg::PrepareReq { .. } => SpanKind::PrepareRound,
            Msg::CommitReq { .. } => SpanKind::CommitRound,
            Msg::AbortReq { .. } => SpanKind::AbortRound,
            _ => SpanKind::QueryRound,
        }
    }

    /// The pump: run one protocol operation to completion over the
    /// endpoint and the wall clock. `start` builds the machine; from then
    /// on every reply and every passed deadline is handed to it with the
    /// instant it was seen at, and every [`Effect`] it queues is carried
    /// out in order. Replies already queued when the pump looks form a
    /// batch seen at one instant: the clock is read at a batch's first
    /// reply, and a batch ends when the pump sends or parks. Each
    /// operation first re-sends the decided commits still owed an ack,
    /// and every reply may settle one ([`Coordinator::resend_decided`]).
    ///
    /// Round spans are the pump's too, because the tracer reads the wall
    /// clock and the machines must not: a scatter opens one (only while
    /// tracing an open transaction) and ships the request wrapped with the
    /// span's wire context, so servers can parent their queue/handling
    /// spans to it; `Gathered` closes it — on every exit path, timeouts
    /// included, so a server span's parent always exists client-side.
    fn drive<M: Machine>(
        &mut self,
        start: impl FnOnce(&mut Coordinator, Alive, Instant) -> M,
    ) -> M::Output {
        let mut span: Option<PendingSpan> = None;
        self.co.faults_seen(self.net.fault_changes());
        let alive = alive(&self.net);
        self.co.resend_decided(&alive);
        let mut m = start(&mut self.co, &alive, Instant::now());
        let mut seen: Option<Instant> = None;
        loop {
            for effect in self.co.effects() {
                match effect {
                    Effect::Scatter(msg) => {
                        seen = None;
                        let mut bytes = msg.wire_bytes();
                        let kind = Self::round_kind(&msg);
                        span = tracer(&mut self.observer).and_then(|t| t.start_round(kind));
                        let wire = match &span {
                            Some(p) => {
                                bytes += 16;
                                Arc::new(Msg::Traced {
                                    ctx: p.ctx(),
                                    inner: msg,
                                })
                            }
                            None => msg,
                        };
                        self.endpoint.broadcast(m.members(), wire, bytes);
                    }
                    Effect::Gathered { failed } => {
                        if let (Some(p), Some(t)) = (span.take(), tracer(&mut self.observer)) {
                            t.end_round(p, failed);
                        }
                    }
                    Effect::Send(to, msg) => {
                        seen = None;
                        let bytes = msg.wire_bytes();
                        self.endpoint.send_sized(to, msg, bytes);
                    }
                }
            }
            match m.phase() {
                Phase::Done => break,
                Phase::Awaiting(deadline) => {
                    let reply = match self.endpoint.try_recv() {
                        Some(queued) => Some(queued),
                        None => {
                            self.parked = true;
                            seen = None;
                            self.endpoint.recv_deadline(deadline).ok()
                        }
                    };
                    if let Some((src, msg)) = reply {
                        let now = *seen.get_or_insert_with(Instant::now);
                        self.co.settle_decided(src, &msg);
                        m.on_reply(&mut self.co, src, msg, now);
                        continue;
                    }
                    // Timed out, or the network closed under us.
                }
                Phase::BackingOff(until, kind) => {
                    self.parked = true;
                    let from = Instant::now();
                    std::thread::sleep(until.saturating_duration_since(from));
                    if let (Some(kind), Some(t)) = (kind, tracer(&mut self.observer)) {
                        t.record_plain(kind, from);
                    }
                }
            }
            self.co.faults_seen(self.net.fault_changes());
            m.on_deadline(&mut self.co, &alive, Instant::now());
        }
        m.finish()
    }

    /// Sleep for a uniformly random duration in `[lo, hi)`, drawn from this
    /// node's jitter generator, and record the wait as a `kind` span if a
    /// transaction trace is open. The one place a client thread sleeps
    /// outside a round — the executor's restart backoff goes through here.
    pub fn pause(&mut self, kind: SpanKind, lo: Duration, hi: Duration) {
        let from = Instant::now();
        std::thread::sleep(self.co.draw(lo, hi));
        if let Some(t) = tracer(&mut self.observer) {
            t.record_plain(kind, from);
        }
    }

    /// The read round (see [`Read`]): fetch `objs` from one minimal read
    /// quorum, validating the read-set suffix past `watermarks` on the way.
    ///
    /// Returns `(object, version, value)` in request order.
    pub fn remote_read_batch(
        &mut self,
        txn: TxnId,
        objs: &[ObjectId],
        validate: &[ValidateEntry],
        watermarks: &mut HashMap<NodeId, usize>,
    ) -> ReadResult {
        self.drive(|co, alive, now| Read::start(co, alive, txn, objs, validate, watermarks, now))
    }

    /// Commit a transaction with two-phase commit against a write quorum
    /// (see [`Commit`]).
    ///
    /// * `validate` — the full read-set (write-set read versions included);
    /// * `writes` — `(object, version-read, new value)`; the committed
    ///   version is `version-read + 1`.
    ///
    /// Read-only transactions (`writes` empty) run a single validation
    /// round against a read quorum — no locks, no phase 2.
    pub fn commit(
        &mut self,
        txn: TxnId,
        validate: &[ValidateEntry],
        writes: Vec<(ObjectId, Version, ObjectVal)>,
    ) -> Result<(), DtmError> {
        match self.drive(|co, alive, now| Commit::start(co, alive, txn, validate, writes, now)) {
            CommitOutcome::Committed => Ok(()),
            CommitOutcome::Aborted(conflict) => Err(conflict),
            CommitOutcome::Decided => Err(DtmError::Decided),
            CommitOutcome::Unavailable => Err(DtmError::Unavailable),
        }
    }

    /// Dynamic Module: fetch per-class write contention levels from a read
    /// quorum, taking the maximum across replicas (each replica only counts
    /// the commits it participated in).
    pub fn query_contention(&mut self, classes: &[u16]) -> Result<HashMap<u16, f64>, DtmError> {
        Ok(self.query_contention_full(classes)?.writes)
    }

    /// Like [`DtmClient::query_contention`], but returning both run-time
    /// parameters the paper's Dynamic Module collects: per-class write
    /// levels and per-class abort ratios.
    pub fn query_contention_full(&mut self, classes: &[u16]) -> Result<ContentionSample, DtmError> {
        self.co.faults_seen(self.net.fault_changes());
        let Some(quorum) = self.co.quorum(false, self.co.seed, &alive(&self.net)) else {
            self.co.stats.quorum_unavailable += 1;
            return Err(DtmError::Unavailable);
        };
        let retries = self.co.cfg.quorum_retries;
        let query = |req| Msg::ContentionReq {
            req,
            classes: classes.to_vec(),
        };
        let resps = self
            .drive(|co, _, now| Round::begin(co, quorum, retries, query, now))
            .inspect_err(|_| self.co.stats.quorum_unavailable += 1)?;
        let mut out = ContentionSample {
            writes: classes.iter().map(|&c| (c, 0.0)).collect(),
            aborts: classes.iter().map(|&c| (c, 0.0)).collect(),
        };
        let fold = |into: &mut HashMap<u16, f64>, pairs: Vec<(u16, f64)>| {
            for (c, l) in pairs {
                let e = into.entry(c).or_insert(0.0);
                if l > *e {
                    *e = l;
                }
            }
        };
        for (_, r) in resps {
            if let Msg::ContentionResp {
                levels,
                abort_levels,
                ..
            } = r
            {
                fold(&mut out.writes, levels);
                fold(&mut out.aborts, abort_levels);
            }
        }
        Ok(out)
    }
}

/// The liveness a quorum pick reads: is server `rank` up? A coordinator
/// asks only when it picks, once per fault state
/// ([`Coordinator::faults_seen`]).
fn alive(net: &Network<Msg>) -> impl Fn(usize) -> bool + '_ {
    |rank: usize| !net.is_failed(NodeId(rank as u32))
}

/// The installed observer's span tracer, when it has one.
fn tracer(observer: &mut Option<Box<TxnObserver>>) -> Option<&mut Tracer> {
    observer.as_mut()?.spans.as_mut()
}

/// Both run-time parameters the Dynamic Module collects (§V-B): per-class
/// write levels and abort ratios, max-aggregated across the quorum.
#[derive(Debug, Clone, Default)]
pub struct ContentionSample {
    /// Mean writes per written object, per class.
    pub writes: HashMap<u16, f64>,
    /// Mean prepare rejections blamed per object, per class.
    pub aborts: HashMap<u16, f64>,
}
