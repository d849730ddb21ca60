//! The transaction client: quorum RPC, remote reads with incremental
//! validation, two-phase commit, and contention queries.

use crate::error::DtmError;
use crate::history::{CommitRecord, HistoryLog};
use crate::messages::{Msg, ReqId, TxnId, ValidateEntry, Version};
use acn_obs::{PendingSpan, SpanKind, Tracer};
use acn_quorum::LevelQuorums;
use acn_simnet::{Endpoint, Network, NodeId, RecvError};
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
    /// crash-with-amnesia: [`Msg::Syncing`] read refusals plus
    /// syncing-flagged prepare no-votes.
    pub sync_refusals_seen: u64,
}

/// A client node's connection to the DTM: it executes remote operations on
/// behalf of the transactions running on this node. One `DtmClient` is
/// owned by one thread (the paper's "client").
pub struct DtmClient {
    endpoint: Endpoint<Msg>,
    net: Network<Msg>,
    quorums: LevelQuorums,
    /// Rank→node mapping: server rank `r` lives at `NodeId(r)` (servers
    /// occupy the first node ids).
    seed: u64,
    next_req: ReqId,
    next_txn: u64,
    cfg: ClientConfig,
    stats: ClientStats,
    /// Classes whose contention levels should be piggybacked on every
    /// remote read (empty = piggybacking off).
    piggyback_classes: Vec<u16>,
    /// Latest piggybacked per-class levels (max across quorum replies).
    piggybacked: HashMap<u16, f64>,
    /// xorshift state for retry-backoff jitter.
    backoff_state: u64,
    /// Cluster-wide committed-history log; every successful commit
    /// (read-only validations included) appends a [`CommitRecord`].
    history: Option<Arc<HistoryLog>>,
    /// Span tracer: when installed *and* a transaction trace is open,
    /// quorum rounds become spans and requests ship wrapped in
    /// [`Msg::Traced`] so servers can parent their own spans to the round.
    tracer: Option<Box<Tracer>>,
}

/// Process-wide client incarnation counter. Two `DtmClient` instances bound
/// to the *same* node id (a slot reused sequentially, or rebuilt after a
/// crash) must not reuse txn/req ids: servers dedup Prepare/Commit/Abort by
/// `(txn, req)`, and a reused id would replay the previous incarnation's
/// cached response instead of executing. Each incarnation gets a disjoint
/// `2^40`-wide id band.
static INCARNATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl DtmClient {
    /// Wire a client endpoint to the cluster's quorum system.
    pub fn new(
        net: Network<Msg>,
        endpoint: Endpoint<Msg>,
        quorums: LevelQuorums,
        cfg: ClientConfig,
    ) -> Self {
        let seed = u64::from(endpoint.id().0);
        let id_base = INCARNATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed) << 40;
        DtmClient {
            endpoint,
            net,
            quorums,
            seed,
            next_req: id_base,
            next_txn: id_base,
            cfg,
            stats: ClientStats::default(),
            piggyback_classes: Vec::new(),
            piggybacked: HashMap::new(),
            backoff_state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            history: None,
            tracer: None,
        }
    }

    /// Message/outcome counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Attach a cluster-wide committed-history log. Every subsequent
    /// successful commit appends its read/write versions for the
    /// serializability checker.
    pub fn set_history(&mut self, history: Arc<HistoryLog>) {
        self.history = Some(history);
    }

    /// Install a span tracer. The client records one round span per quorum
    /// RPC broadcast and one lock-wait span per locked-read backoff —
    /// but only while the tracer has an open transaction, so seeding and
    /// contention-query traffic stays untraced and unwrapped.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(Box::new(tracer));
    }

    /// The installed tracer, for the executor's transaction/Block hooks.
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }

    /// Remove and return the tracer (drained by the driver at run end).
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take().map(|b| *b)
    }

    /// Piggyback a contention sample of `classes` on every subsequent
    /// remote read, instead of (or in addition to) explicit
    /// [`DtmClient::query_contention`] rounds.
    pub fn set_piggyback_classes(&mut self, classes: Vec<u16>) {
        self.piggyback_classes = classes;
    }

    /// The most recent piggybacked per-class contention levels (empty
    /// until a remote read has carried a sample).
    pub fn piggybacked_levels(&self) -> &HashMap<u16, f64> {
        &self.piggybacked
    }

    /// The client's network node id.
    pub fn node(&self) -> NodeId {
        self.endpoint.id()
    }

    /// Start a transaction: allocate its globally unique id. Each call is
    /// one execution attempt, so the tracer opens an attempt span here
    /// (closing the previous one as rolled back if the last attempt never
    /// finished — that is what a full restart looks like).
    pub fn begin(&mut self) -> TxnId {
        if let Some(t) = self.tracer.as_mut() {
            t.begin_attempt();
        }
        let txn = TxnId {
            client: self.endpoint.id(),
            seq: self.next_txn,
        };
        self.next_txn += 1;
        txn
    }

    fn server_node(rank: usize) -> NodeId {
        NodeId(rank as u32)
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

    /// Open a round span for `msg` (only while tracing an open transaction)
    /// and wrap the request with the span's wire context so servers can
    /// parent their queue/handling spans to it. Returns the message to
    /// send, its wire size, and the pending span to close at round end.
    fn trace_round(&mut self, msg: Msg) -> (Msg, u64, Option<PendingSpan>) {
        let bytes = msg.wire_bytes();
        match self
            .tracer
            .as_mut()
            .and_then(|t| t.start_round(Self::round_kind(&msg)))
        {
            Some(p) => (
                Msg::Traced {
                    ctx: p.ctx(),
                    inner: Box::new(msg),
                },
                bytes + 16,
                Some(p),
            ),
            None => (msg, bytes, None),
        }
    }

    /// Close a round span opened by [`DtmClient::trace_round`]. Called on
    /// every exit path — timeouts included — so a server span's parent
    /// always exists client-side.
    fn end_round(&mut self, pending: Option<PendingSpan>, failed: bool) {
        if let (Some(t), Some(p)) = (self.tracer.as_mut(), pending) {
            t.end_round(p, failed);
        }
    }

    fn alive_fn(&self) -> impl Fn(usize) -> bool {
        let failed = self.net.failed_set();
        move |rank: usize| !failed.contains(&Self::server_node(rank))
    }

    /// Collect responses for `req` into `got` until every one of the
    /// `total` contacted members has answered, keeping at most one response
    /// **per source node**: the chaos layer can duplicate a reply in flight,
    /// and counting one server twice toward a quorum would void quorum
    /// intersection. Other strays are discarded by request id.
    ///
    /// A [`Msg::Syncing`] refusal (the replica is catching up after a
    /// crash-with-amnesia) never counts toward the quorum, so the round
    /// fails fast as `Unavailable` instead of burning the full deadline on
    /// a reply that cannot arrive.
    fn gather(
        &mut self,
        req: ReqId,
        total: usize,
        deadline: Instant,
        got: &mut Vec<(NodeId, Msg)>,
    ) -> Result<(), DtmError> {
        while got.len() < total {
            match self.endpoint.recv_deadline(deadline) {
                Ok((_, Msg::Syncing { req: r })) if r == req => {
                    self.stats.sync_refusals_seen += 1;
                    return Err(DtmError::Unavailable);
                }
                Ok((src, m))
                    if m.response_req() == Some(req) && !got.iter().any(|&(s, _)| s == src) =>
                {
                    got.push((src, m))
                }
                Ok(_) => continue, // stray or duplicate response
                Err(RecvError::Timeout) | Err(RecvError::Closed) => {
                    return Err(DtmError::Unavailable)
                }
            }
        }
        Ok(())
    }

    /// Sleep a jittered, bounded-exponential backoff before retry `attempt`
    /// (1-based): uniform in `[base·2^(a-1)/2, base·2^(a-1)]`, with the
    /// exponent capped at 16×.
    fn backoff(&mut self, attempt: usize) {
        let factor = 1u32 << (attempt.saturating_sub(1)).min(4);
        let ceil = self.cfg.retry_backoff.saturating_mul(factor);
        // xorshift64* jitter, seeded per client.
        let mut x = self.backoff_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.backoff_state = x;
        let nanos = ceil.as_nanos() as u64;
        if nanos == 0 {
            return;
        }
        let jittered = nanos / 2 + x % (nanos / 2 + 1);
        std::thread::sleep(Duration::from_nanos(jittered));
    }

    /// One quorum round: scatter one request to `members` (a single
    /// shared-payload broadcast, not a clone per member) and gather every
    /// member's response, each tagged with its source. A timeout re-tries
    /// against the *same* members up to `retries` times (2PC phases and
    /// explicit queries pass `quorum_retries`; the read round passes 0 and
    /// re-picks its quorum itself). Whether a failed round abandons the
    /// operation — `quorum_unavailable` — is the caller's to count.
    ///
    /// One logical request keeps **one** request id across every attempt: a
    /// timeout re-broadcasts the same correlation id after a jittered,
    /// bounded-exponential backoff, responses already gathered are kept
    /// (a retry only needs the members that have not answered yet), and
    /// servers dedup retried Prepare/Commit/Abort by `(txn, req)` so a
    /// request whose *response* was lost is answered from the dedup cache
    /// instead of being re-executed.
    fn round(
        &mut self,
        members: &[usize],
        retries: usize,
        build: impl FnOnce(ReqId) -> Msg,
    ) -> Result<Vec<(NodeId, Msg)>, DtmError> {
        let req = self.next_req;
        self.next_req += 1;
        let mut msg = Some(build(req));
        let nodes: Vec<NodeId> = members.iter().map(|&m| Self::server_node(m)).collect();
        let mut got: Vec<(NodeId, Msg)> = Vec::with_capacity(members.len());
        for attempt in 0..=retries {
            if attempt > 0 {
                self.stats.rpc_retries += 1;
                self.backoff(attempt);
            }
            // Re-broadcast to everyone: servers that already answered hit
            // their dedup cache (or redo an idempotent read), the rest get
            // another chance to respond. Each broadcast is its own round
            // span (a fresh wire context), so a retry's server spans are
            // children of the attempt that actually carried them. The last
            // attempt gives the message away instead of copying it.
            let copy = if attempt == retries {
                msg.take()
            } else {
                msg.clone()
            };
            let (wire, bytes, pending) = self.trace_round(copy.expect("taken on the last attempt"));
            self.endpoint.broadcast(&nodes, wire, bytes);
            let deadline = Instant::now() + self.cfg.rpc_timeout;
            let ok = self.gather(req, members.len(), deadline, &mut got).is_ok();
            self.end_round(pending, !ok);
            if ok {
                return Ok(got);
            }
        }
        Err(DtmError::Unavailable)
    }

    /// Fire-and-forget abort to `members`: used when a 2PC round could not
    /// assemble a quorum (this client may be on a partition's minority
    /// side). Reachable servers release their locks now; unreachable ones
    /// fall back to the prepared-entry TTL sweep.
    fn abort_best_effort(&mut self, txn: TxnId, members: &[usize]) {
        let req = self.next_req;
        self.next_req += 1;
        let (msg, bytes, pending) = self.trace_round(Msg::AbortReq { txn, req });
        let nodes: Vec<NodeId> = members.iter().map(|&m| Self::server_node(m)).collect();
        self.endpoint.broadcast(&nodes, msg, bytes);
        // No replies are awaited; close the round span at the broadcast.
        self.end_round(pending, false);
        self.stats.best_effort_aborts += 1;
    }

    /// The read round — every remote read of the DTM, of one object or of
    /// many, is this one quorum round trip.
    ///
    /// `validate` is the transaction's full read-set; `watermarks` maps
    /// each server to the length of the read-set prefix it has already
    /// validated for this transaction. Only the suffix past the slowest
    /// contacted member's watermark is shipped (the *delta*), and the
    /// watermarks of the members that replied are advanced on success —
    /// so total shipped validation payload stays linear in the read-set
    /// size. Skipped entries are still validated at prepare time; the
    /// delta only affects how early staleness is detected, never safety.
    /// A caller that wants the whole read-set re-validated (a
    /// statement-level open) passes empty watermarks.
    ///
    /// The round contacts exactly one minimal read quorum and waits for
    /// every member: advancing watermarks for a member that never replied
    /// would skip validation it has not done, and *not* advancing
    /// stragglers would pin the delta at the full read-set, defeating the
    /// point.
    ///
    /// Returns `(object, version, value)` in request order.
    pub fn remote_read_batch(
        &mut self,
        txn: TxnId,
        objs: &[ObjectId],
        validate: &[ValidateEntry],
        watermarks: &mut HashMap<NodeId, usize>,
    ) -> Result<Vec<(ObjectId, Version, ObjectVal)>, DtmError> {
        assert!(!objs.is_empty(), "read round for zero objects");
        let mut locked_attempts = 0usize;
        let mut quorum_attempts = 0usize;
        loop {
            let alive = self.alive_fn();
            let Some(quorum) = self
                .quorums
                .read_quorum(self.seed.wrapping_add(quorum_attempts as u64), &alive)
            else {
                self.stats.quorum_unavailable += 1;
                return Err(DtmError::Unavailable);
            };
            let start = quorum
                .iter()
                .map(|&m| watermarks.get(&Self::server_node(m)).copied().unwrap_or(0))
                .min()
                .unwrap_or(0)
                .min(validate.len());
            let delta = validate[start..].to_vec();
            self.stats.validate_entries_sent += (delta.len() * quorum.len()) as u64;
            let sample = self.piggyback_classes.clone();
            let Ok(resps) = self.round(&quorum, 0, |req| Msg::ReadBatchReq {
                txn,
                req,
                objs: objs.to_vec(),
                validate: delta,
                sample,
            }) else {
                quorum_attempts += 1;
                if quorum_attempts > self.cfg.quorum_retries {
                    self.stats.quorum_unavailable += 1;
                    return Err(DtmError::Unavailable);
                }
                continue;
            };
            self.stats.remote_reads += 1;

            let mut invalid: Vec<ObjectId> = Vec::new();
            let mut locked_obj: Option<ObjectId> = None;
            let mut best: Vec<Option<(Version, ObjectVal)>> = vec![None; objs.len()];
            let mut sampled: HashMap<u16, f64> = HashMap::new();
            let mut repliers: Vec<NodeId> = Vec::with_capacity(resps.len());
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
                    repliers.push(src);
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
                self.piggybacked = sampled;
            }
            if !invalid.is_empty() {
                invalid.sort_unstable();
                invalid.dedup();
                self.stats.read_invalidations += 1;
                return Err(DtmError::Invalidated { objs: invalid });
            }
            if let Some(obj) = locked_obj {
                // An object (or a replica of it) is protected by an
                // in-flight commit: back off briefly and re-read. Reading
                // around the lock would be unsafe only for the value — the
                // freshest unlocked replica may be pre-commit — so we must
                // retry rather than mix.
                locked_attempts += 1;
                self.stats.locked_read_retries += 1;
                if locked_attempts > self.cfg.locked_retries {
                    return Err(DtmError::LockedOut { obj });
                }
                let lw = Instant::now();
                std::thread::sleep(self.cfg.locked_backoff);
                if let Some(t) = self.tracer.as_mut() {
                    t.record_plain(SpanKind::LockWait, lw);
                }
                continue;
            }
            // The round validated `validate[start..]` at every replier, and
            // entries before `start` were covered by each replier's own
            // (>= start) watermark: the full prefix is now validated there.
            for node in repliers {
                let w = watermarks.entry(node).or_insert(0);
                *w = (*w).max(validate.len());
            }
            // Read repair, batched per lagging responder: each repaired
            // node gets one RepairWrite carrying exactly the objects it
            // served stale (and unlocked) — pushing the freshest committed
            // copy back. Bounded and fire-and-forget.
            if self.cfg.read_repair_max > 0 {
                let mut repaired = 0usize;
                for (node, versions) in &served {
                    if repaired >= self.cfg.read_repair_max {
                        break;
                    }
                    let writes: Vec<(ObjectId, Version, ObjectVal)> = versions
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &(v, locked))| match &best[i] {
                            Some((bv, bval)) if !locked && v < *bv => {
                                Some((objs[i], *bv, bval.clone()))
                            }
                            _ => None,
                        })
                        .collect();
                    if writes.is_empty() {
                        continue;
                    }
                    let req = self.next_req;
                    self.next_req += 1;
                    let msg = Msg::RepairWrite { req, writes };
                    let bytes = msg.wire_bytes();
                    self.endpoint.send_sized(*node, msg, bytes);
                    self.stats.repair_writes_sent += 1;
                    repaired += 1;
                }
            }
            return Ok(objs
                .iter()
                .zip(best)
                .map(|(&o, b)| {
                    let (v, val) = b.expect("quorum is non-empty");
                    (o, v, val)
                })
                .collect());
        }
    }

    /// Commit a transaction with two-phase commit against a write quorum.
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
        writes: &[(ObjectId, Version, ObjectVal)],
    ) -> Result<(), DtmError> {
        let alive = self.alive_fn();
        let quorum = if writes.is_empty() {
            self.quorums.read_quorum(self.seed, &alive)
        } else {
            self.quorums.write_quorum(self.seed, &alive)
        };
        let Some(quorum) = quorum else {
            self.stats.quorum_unavailable += 1;
            return Err(DtmError::Unavailable);
        };

        // Phase 1: prepare.
        self.stats.prepares += 1;
        let retries = self.cfg.quorum_retries;
        let resps = match self.round(&quorum, retries, |req| Msg::PrepareReq {
            txn,
            req,
            validate: validate.to_vec(),
            writes: writes.iter().map(|&(o, v, _)| (o, v)).collect(),
        }) {
            Ok(r) => r,
            Err(e) => {
                self.stats.quorum_unavailable += 1;
                // No quorum for prepare (this client may be stuck on a
                // partition's minority side). Members that *did* receive
                // the prepare are holding locks: tell every reachable one
                // to release now instead of waiting out the TTL sweep.
                if !writes.is_empty() {
                    self.abort_best_effort(txn, &quorum);
                }
                return Err(e);
            }
        };
        let mut all_yes = true;
        let mut invalid: Vec<ObjectId> = Vec::new();
        let mut locked: Vec<ObjectId> = Vec::new();
        let mut sync_refused = false;
        let mut wal_refused = false;
        for (_, r) in resps {
            if let Msg::PrepareResp {
                vote,
                invalid: inv,
                locked: lock,
                syncing,
                wal_refused: walr,
                ..
            } = r
            {
                if !vote {
                    all_yes = false;
                }
                if syncing {
                    sync_refused = true;
                    self.stats.sync_refusals_seen += 1;
                }
                if walr {
                    wal_refused = true;
                }
                invalid.extend(inv);
                locked.extend(lock);
            }
        }
        let conflict = |mut invalid: Vec<ObjectId>, mut locked: Vec<ObjectId>| {
            invalid.sort_unstable();
            invalid.dedup();
            locked.sort_unstable();
            locked.dedup();
            DtmError::Conflict {
                invalid,
                locked,
                syncing: sync_refused,
                wal_refused,
            }
        };
        if writes.is_empty() {
            // Read-only: validation outcome is the commit outcome.
            return if all_yes {
                self.stats.commits += 1;
                if let Some(h) = &self.history {
                    h.record(CommitRecord {
                        txn,
                        reads: validate.to_vec(),
                        writes: Vec::new(),
                    });
                    h.record_ack(txn);
                }
                Ok(())
            } else {
                self.stats.conflict_aborts += 1;
                Err(conflict(invalid, locked))
            };
        }

        if !all_yes {
            // Phase 2: abort everywhere (also the replicas that voted yes).
            let _ = self
                .round(&quorum, retries, |req| Msg::AbortReq { txn, req })
                .inspect_err(|_| self.stats.quorum_unavailable += 1);
            self.stats.conflict_aborts += 1;
            return Err(conflict(invalid, locked));
        }

        // Phase 2: commit. The decision is reached *here* — a yes-vote from
        // the full write quorum — so the history record is appended now:
        // even if every CommitAck is lost, servers that receive the
        // CommitReq will apply it, and the checker must account those
        // writes to a committed transaction.
        let commit_writes: Vec<(ObjectId, Version, ObjectVal)> = writes
            .iter()
            .map(|(o, v, val)| (*o, v + 1, val.clone()))
            .collect();
        if let Some(h) = &self.history {
            h.record(CommitRecord {
                txn,
                reads: validate.to_vec(),
                writes: commit_writes.iter().map(|&(o, v, _)| (o, v)).collect(),
            });
        }
        let commit = |req| Msg::CommitReq {
            txn,
            req,
            writes: commit_writes,
        };
        self.round(&quorum, retries, commit)
            .inspect_err(|_| self.stats.quorum_unavailable += 1)?;
        // Only now — with a CommitAck from the full write quorum in hand —
        // is the commit *acknowledged*: under ack-after-durable servers
        // held those acks until the covering WAL records were synced, so
        // everything recorded here must survive any later crash-restart.
        // (The history record above is different: it marks the decision,
        // which servers may apply even when every ack is lost.)
        if let Some(h) = &self.history {
            h.record_ack(txn);
        }
        self.stats.commits += 1;
        Ok(())
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
        let alive = self.alive_fn();
        let Some(quorum) = self.quorums.read_quorum(self.seed, &alive) else {
            self.stats.quorum_unavailable += 1;
            return Err(DtmError::Unavailable);
        };
        let query = |req| Msg::ContentionReq {
            req,
            classes: classes.to_vec(),
        };
        let resps = self
            .round(&quorum, self.cfg.quorum_retries, query)
            .inspect_err(|_| self.stats.quorum_unavailable += 1)?;
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

/// Both run-time parameters the Dynamic Module collects (§V-B): per-class
/// write levels and abort ratios, max-aggregated across the quorum.
#[derive(Debug, Clone, Default)]
pub struct ContentionSample {
    /// Mean writes per written object, per class.
    pub writes: HashMap<u16, f64>,
    /// Mean prepare rejections blamed per object, per class.
    pub aborts: HashMap<u16, f64>,
}
