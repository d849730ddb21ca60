//! The quorum server: request handling and the service loop.

use crate::contention::{ContentionWindow, WindowConfig};
use crate::messages::{Msg, ReqId, TxnId, Version};
use crate::store::{Store, StoreDigest};
use crate::wal::{replay, DurabilityMode, Persistence, WalRecord};
use acn_obs::{RawSpan, SpanCollector, SpanKind, TraceCtx, FLAG_ROLLED_BACK};
use acn_quorum::LevelQuorums;
use acn_simnet::{Endpoint, NodeId, RecvError};
use acn_txir::ObjectId;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters a server reports on shutdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Objects served on read rounds.
    pub reads: u64,
    /// Prepare requests processed.
    pub prepares: u64,
    /// Prepares that voted no.
    pub prepare_rejects: u64,
    /// Commit requests applied.
    pub commits: u64,
    /// Abort requests processed.
    pub aborts: u64,
    /// Explicit contention queries answered.
    pub contention_queries: u64,
    /// Prepared transactions whose locks were reclaimed because the client
    /// never finished phase 2 within the prepare TTL.
    pub expired_prepares: u64,
    /// Retried 2PC requests answered from the dedup cache instead of being
    /// re-executed (duplicate (txn, req) Prepare/Commit/Abort).
    pub dedup_hits: u64,
    /// Amnesia wipes this replica performed (state lost, catch-up begun).
    pub amnesia_wipes: u64,
    /// Prepare votes refused because this replica was still catching up.
    pub sync_vote_refusals: u64,
    /// Read rounds refused ([`Msg::Syncing`] sent) while catching up.
    pub sync_read_refusals: u64,
    /// Objects whose copy moved forward while absorbing peer inventories.
    pub sync_objects_received: u64,
    /// Inventories served to recovering peers.
    pub syncs_served: u64,
    /// Catch-up rounds completed (responders covered a read quorum).
    pub syncs_completed: u64,
    /// Client repair writes received (messages, not objects).
    pub repair_writes_received: u64,
    /// Repaired objects that actually advanced this replica's copy.
    pub repair_writes_applied: u64,
    /// Crash-restart recoveries performed (WAL replayed, delta fetched).
    pub restart_replays: u64,
    /// WAL records applied across all restart replays.
    pub wal_records_replayed: u64,
    /// Torn/corrupt log tails detected by checksum and truncated.
    pub torn_tails_truncated: u64,
    /// Objects received in delta-sync responses after a restart replay
    /// (the work a recovery cost — it must scale with the outage, not
    /// with the store).
    pub delta_objects_fetched: u64,
    /// WAL append/sync failures surfaced by the persistence backend
    /// (previously `FileLog` swallowed these silently).
    pub wal_io_errors: u64,
    /// Prepare votes refused because the WAL could not make the grant
    /// durable (degraded mode while the backend keeps erroring).
    pub wal_vote_refusals: u64,
    /// Successful WAL syncs that made at least one new record durable.
    pub wal_sync_batches: u64,
    /// Records made durable across those batches; divided by
    /// `wal_sync_batches` this is the group-commit batching factor.
    pub wal_records_synced: u64,
    /// Object versions this replica holds when the stats are taken,
    /// sorted by object id. The lost-ack checker compares these against
    /// the set of commits acknowledged to clients.
    pub inventory: Vec<(ObjectId, Version)>,
    /// Per-class store fingerprint, filled when the stats are taken — the
    /// cheap divergence check between replicas.
    pub digest: StoreDigest,
}

/// Cluster-awareness a server needs to run the catch-up protocol after a
/// crash-with-amnesia: which peers exist and what counts as a read quorum
/// among those that answered. Servers without one (standalone unit-test
/// servers) skip catch-up and restart empty.
#[derive(Clone)]
pub struct SyncConfig {
    /// The cluster's quorum structure (shared with clients).
    pub quorums: LevelQuorums,
    /// This server's own rank (excluded from its sync quorum: a replica's
    /// pre-crash quorum participation is void once its state is lost).
    pub rank: usize,
    /// Total number of servers (ranks `0..servers`).
    pub servers: usize,
}

/// Locks a transaction holds on this replica between prepare and phase 2.
struct PreparedTxn {
    objs: Vec<ObjectId>,
    /// When the prepare was granted — drives the expiry sweep.
    at: Instant,
}

/// One quorum node: a full replica of every object plus commit-lock and
/// contention bookkeeping. The server is single-threaded — it owns its
/// state and processes messages in arrival order, so each request is
/// handled atomically with respect to the others (the concurrency in the
/// system is *between* nodes, as in the paper's deployment).
pub struct Server {
    store: Store,
    contention: ContentionWindow,
    /// Objects locked at prepare per transaction, so abort/commit releases
    /// exactly what was acquired.
    prepared: HashMap<TxnId, PreparedTxn>,
    /// How long a prepared transaction may sit without a phase-2 message
    /// before its entry and locks are reclaimed.
    prepared_ttl: Duration,
    /// Replies already sent for 2PC requests, keyed by (txn, req): a
    /// retried or chaos-duplicated Prepare/Commit/Abort is answered from
    /// here instead of re-executing. This is what makes the client's
    /// same-request-id retry loop genuinely idempotent — without it, a
    /// delayed duplicate PrepareReq arriving *after* the commit would
    /// re-lock the write-set and strand the locks until the TTL sweep.
    completed: HashMap<(TxnId, ReqId), Msg>,
    /// Insertion order of `completed`, for FIFO eviction.
    completed_order: VecDeque<(TxnId, ReqId)>,
    stats: ServerStats,
    /// Window shape, kept to rebuild the contention window after a wipe.
    window: WindowConfig,
    /// Cluster-awareness for catch-up sync (`None` = standalone server).
    sync: Option<SyncConfig>,
    /// True from an amnesia wipe until peer inventories covering a read
    /// quorum have been absorbed. While set, reads and prepare votes are
    /// refused; phase-2 commits/aborts (decisions already made) and
    /// repair writes are still applied.
    syncing: bool,
    /// Recovery incarnation, bumped on every wipe. Stale [`Msg::SyncResp`]s
    /// from a previous recovery attempt are discarded by it.
    incarnation: u64,
    /// Peer ranks that answered the current incarnation's [`Msg::SyncReq`].
    sync_responders: HashSet<usize>,
    /// Correlation ids for server-originated requests (SyncReq).
    server_req: ReqId,
    /// Last amnesia epoch acted upon (vs. the endpoint's fault table).
    amnesia_seen: u64,
    /// Last crash-restart epoch acted upon (vs. the endpoint's fault
    /// table). A restart keeps the WAL: the replica replays it instead
    /// of wiping.
    restart_seen: u64,
    /// Durable decision log (`None` = no persistence: a restart degrades
    /// to amnesia-style full catch-up).
    wal: Option<Box<dyn Persistence>>,
    /// When 2PC acks may be released relative to the log — see
    /// [`DurabilityMode`]. Ignored without a WAL.
    durability: DurabilityMode,
    /// Records appended to the WAL since startup (monotonic watermark).
    wal_appended: u64,
    /// High-water mark of `wal_appended` covered by a successful sync.
    wal_durable: u64,
    /// True from an append/sync error until a sync succeeds. While set,
    /// new prepares are refused with `wal_refused` — the server degrades
    /// to back-pressure instead of handing out grants the log cannot
    /// make durable (or panicking).
    wal_failed: bool,
    /// When the oldest not-yet-durable record was appended — drives the
    /// group-commit `max_delay` deadline.
    wal_first_dirty_at: Option<Instant>,
    /// Decision records (commit apply / abort) whose original append
    /// failed. The quorum's decision is applied to the store regardless
    /// (refusing it would strand the locks), but its ack is parked past
    /// these: every sync attempt first re-appends the queue in order, so
    /// the ack releases only once a re-append plus a covering sync made
    /// the record durable — ack-after-durable holds across append faults.
    wal_retry: VecDeque<WalRecord>,
    /// Earliest time the next sync attempt may run while the backend is
    /// unhealthy; `None` = no backoff pending (healthy, or first failure
    /// not yet retried).
    wal_retry_after: Option<Instant>,
    /// Current degraded-mode backoff step (doubles per failed attempt,
    /// bounded by [`WAL_RETRY_BACKOFF_MAX`]).
    wal_backoff: Duration,
    /// True while the current catch-up round should fetch only the delta
    /// (set by a restart replay, cleared by amnesia and by completion):
    /// probes carry the replica's known versions so peers answer with
    /// just the newer/missing objects.
    delta_sync: bool,
    /// When the message-path lazy sweep last ran (see [`Server::handle`]).
    last_sweep: Instant,
    /// Sink for server-side spans (inbox dwell, handling, sync refusals),
    /// parented by the trace context a [`Msg::Traced`] request carries.
    /// `None` (the default) disables span recording entirely; spans never
    /// touch [`ServerStats`].
    spans: Option<Arc<SpanCollector>>,
}

/// Lock-release sentinel for writes installed outside 2PC (sync catch-up
/// and client read-repair): a transaction id no client can mint — client
/// node ids start at the server count — so [`Store::apply`] never releases
/// a real transaction's lock on its behalf.
const REPAIR_TXN: TxnId = TxnId {
    client: NodeId(u32::MAX),
    seq: u64::MAX,
};

/// Bound on the dedup cache. Eviction is FIFO: a reply only needs to
/// survive as long as its client might still retransmit the request, so
/// the oldest entry is always the safest to shed.
const DEDUP_CAPACITY: usize = 8192;

/// Default prepare TTL. Must comfortably exceed the client's worst-case
/// phase-2 latency (`rpc_timeout × (quorum_retries + 1)`, 4 s with default
/// [`crate::ClientConfig`]): reclaiming a *live* client's locks would let
/// another transaction commit in between, and version monotonicity would
/// then silently discard the first client's phase-2 writes on this replica.
/// Shared with [`crate::ClusterConfig`] so the two defaults cannot drift.
pub const DEFAULT_PREPARED_TTL: Duration = Duration::from_secs(30);

/// Backoff bounds for retrying WAL syncs (and failed-append re-stages)
/// while the backend keeps erroring. Without a backoff the service loop's
/// "degraded mode is due now" rule turns a persistently failing device
/// into a 100% CPU spin; the cap matches the loop's idle receive timeout,
/// so a healed backend is still noticed within one idle period.
const WAL_RETRY_BACKOFF_MIN: Duration = Duration::from_millis(1);
const WAL_RETRY_BACKOFF_MAX: Duration = Duration::from_millis(20);

impl Server {
    /// A fresh replica with an empty store.
    pub fn new(window: WindowConfig) -> Self {
        Server {
            store: Store::new(),
            contention: ContentionWindow::new(window),
            prepared: HashMap::new(),
            prepared_ttl: DEFAULT_PREPARED_TTL,
            completed: HashMap::new(),
            completed_order: VecDeque::new(),
            stats: ServerStats::default(),
            window,
            sync: None,
            syncing: false,
            incarnation: 0,
            sync_responders: HashSet::new(),
            server_req: 0,
            amnesia_seen: 0,
            restart_seen: 0,
            wal: None,
            durability: DurabilityMode::default(),
            wal_appended: 0,
            wal_durable: 0,
            wal_failed: false,
            wal_first_dirty_at: None,
            wal_retry: VecDeque::new(),
            wal_retry_after: None,
            wal_backoff: Duration::ZERO,
            delta_sync: false,
            last_sweep: Instant::now(),
            spans: None,
        }
    }

    /// Install the durable decision log. Appends happen at the 2PC
    /// decision points (prepare grant, commit apply, abort, incarnation
    /// bump); [`Server::recover_from_restart`] replays it.
    pub fn set_persistence(&mut self, wal: Box<dyn Persistence>) {
        self.wal = Some(wal);
    }

    /// Choose when 2PC acks are released relative to the log. With
    /// `EveryRecord` (the default) and `GroupCommit`, the service loop
    /// holds `PrepareResp`/`CommitAck`/`AbortAck` replies until a sync
    /// covers the records they depend on; `Buffered` acks immediately
    /// and never syncs (the pre-durability behaviour, kept for ablation).
    pub fn set_durability(&mut self, mode: DurabilityMode) {
        self.durability = mode;
    }

    /// Append one record, tracking the dirty window. Returns `false` on
    /// backend error, in which case the record was *not* staged and the
    /// server enters degraded mode (`wal_failed`) until a sync succeeds.
    /// `true` when there is no WAL at all: callers treat "no log" as
    /// "nothing to make durable".
    fn append_wal(&mut self, rec: &WalRecord) -> bool {
        let Some(wal) = self.wal.as_mut() else {
            return true;
        };
        match wal.append(rec) {
            Ok(()) => {
                self.wal_appended += 1;
                if self.wal_first_dirty_at.is_none() {
                    self.wal_first_dirty_at = Some(Instant::now());
                }
                true
            }
            Err(_) => {
                self.stats.wal_io_errors += 1;
                self.wal_failed = true;
                false
            }
        }
    }

    /// Try to make every appended record durable. Returns `true` when the
    /// log is fully durable afterwards (trivially so without a WAL) —
    /// which also clears degraded mode: the backend is healthy again and
    /// new prepares may be granted. Anything less (sync error, or a
    /// failed-append retry still pending) keeps degraded mode and backs
    /// off the next attempt so a dead backend is not hammered in a spin.
    fn sync_wal(&mut self) -> bool {
        // Re-stage decision records whose original append failed, in
        // order, ahead of the sync: the acks parked on them release only
        // once these reach the log under a covering sync.
        while let Some(rec) = self.wal_retry.front().cloned() {
            if self.append_wal(&rec) {
                self.wal_retry.pop_front();
            } else {
                break;
            }
        }
        let dirty = self.wal_appended - self.wal_durable;
        if dirty == 0 && !self.wal_failed && self.wal_retry.is_empty() {
            return true;
        }
        let Some(wal) = self.wal.as_mut() else {
            return true;
        };
        let synced = match wal.sync() {
            Ok(()) => {
                if dirty > 0 {
                    self.stats.wal_sync_batches += 1;
                    self.stats.wal_records_synced += dirty;
                }
                self.wal_durable = self.wal_appended;
                self.wal_first_dirty_at = None;
                true
            }
            Err(_) => {
                self.stats.wal_io_errors += 1;
                false
            }
        };
        let healthy = synced && self.wal_retry.is_empty();
        self.wal_failed = !healthy;
        if healthy {
            self.wal_retry_after = None;
            self.wal_backoff = Duration::ZERO;
        } else {
            self.wal_backoff =
                (self.wal_backoff * 2).clamp(WAL_RETRY_BACKOFF_MIN, WAL_RETRY_BACKOFF_MAX);
            self.wal_retry_after = Some(Instant::now() + self.wal_backoff);
        }
        healthy
    }

    /// When must the next sync happen? `None` means no sync is scheduled
    /// (clean log, no WAL, or Buffered mode — which only syncs at
    /// shutdown). Degraded mode (sync failure or a pending failed-append
    /// retry) is due after its backoff — immediate enough to exit
    /// back-pressure as the backend heals, without busy-spinning on one
    /// that stays broken. Under GroupCommit, `waiting` says
    /// acks are parked on the durable watermark: that makes a sync due at
    /// once — the loop drained the inbox first, so the batch is whatever
    /// accumulated while the previous fsync ran, and ack latency stays
    /// one fsync rather than one aging period. (Holding waiters for a
    /// sub-millisecond accumulation window was tried and measured worse:
    /// the extra prepare-ack delay stretches lock hold time, and on a
    /// contended workload the conflict aborts that causes cost more than
    /// the larger batches save.) The record/age caps bound the dirty
    /// window when *no* ack is waiting (refused votes, best-effort
    /// decision appends). The service loop shortens its receive timeout
    /// to this deadline so aging fires on time.
    fn wal_sync_deadline(&self, now: Instant, waiting: bool) -> Option<Instant> {
        self.wal.as_ref()?;
        if self.wal_failed || !self.wal_retry.is_empty() {
            return Some(self.wal_retry_after.unwrap_or(now));
        }
        let dirty = self.wal_appended - self.wal_durable;
        if dirty == 0 {
            return None;
        }
        match self.durability {
            DurabilityMode::EveryRecord => Some(now),
            DurabilityMode::GroupCommit {
                max_records,
                max_delay,
            } => {
                if waiting || dirty as usize >= max_records {
                    return Some(now);
                }
                Some(self.wal_first_dirty_at.unwrap_or(now) + max_delay)
            }
            DurabilityMode::Buffered => None,
        }
    }

    /// Has [`Self::wal_sync_deadline`] passed?
    fn wal_sync_due(&self, now: Instant, waiting: bool) -> bool {
        self.wal_sync_deadline(now, waiting)
            .is_some_and(|due| due <= now)
    }

    /// Install the span sink the service loop records server-side spans
    /// into. Spans are only recorded for requests that arrive wrapped in
    /// [`Msg::Traced`]; bare requests stay span-free either way.
    pub fn set_span_collector(&mut self, spans: Arc<SpanCollector>) {
        self.spans = Some(spans);
    }

    /// Override the prepare TTL (see `DEFAULT_PREPARED_TTL` for the safety
    /// bound it must respect relative to client timeouts).
    pub fn set_prepared_ttl(&mut self, ttl: Duration) {
        self.prepared_ttl = ttl;
    }

    /// Install the cluster-awareness that enables catch-up sync after a
    /// crash-with-amnesia. Without it a wiped server restarts empty and
    /// keeps serving — acceptable only for standalone unit-test servers.
    pub fn set_sync_config(&mut self, sync: SyncConfig) {
        self.sync = Some(sync);
    }

    /// Is this replica still catching up after an amnesia wipe?
    pub fn is_syncing(&self) -> bool {
        self.syncing
    }

    /// Reclaim prepared entries older than the TTL, releasing their locks.
    /// Returns how many transactions were expired. Invoked periodically by
    /// [`Server::run`]; public so tests (and embedders with their own
    /// service loops) can drive it directly.
    pub fn sweep_expired(&mut self, now: Instant) -> usize {
        let ttl = self.prepared_ttl;
        let expired: Vec<TxnId> = self
            .prepared
            .iter()
            .filter(|(_, p)| now.duration_since(p.at) >= ttl)
            .map(|(&t, _)| t)
            .collect();
        for txn in &expired {
            if let Some(p) = self.prepared.remove(txn) {
                for obj in p.objs {
                    self.store.unlock(obj, *txn);
                }
            }
        }
        self.stats.expired_prepares += expired.len() as u64;
        expired.len()
    }

    /// Counters so far, with the store digest and the object-version
    /// inventory computed at call time.
    pub fn stats(&self) -> ServerStats {
        let mut s = self.stats.clone();
        s.digest = self.store.digest();
        s.inventory = self.store.known_versions();
        s.inventory.sort_unstable();
        s
    }

    /// Direct store access for tests and cluster seeding.
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Crash-with-amnesia landed: lose the store, the prepared table, the
    /// dedup cache and the contention window, then (when peers are known)
    /// enter catch-up mode — reads and prepare votes are refused until
    /// peer inventories covering a read quorum have been absorbed.
    pub fn wipe_for_amnesia(&mut self) {
        self.store.wipe();
        self.prepared.clear();
        self.completed.clear();
        self.completed_order.clear();
        self.contention = ContentionWindow::new(self.window);
        self.incarnation += 1;
        self.sync_responders.clear();
        self.stats.amnesia_wipes += 1;
        // Amnesia loses the disk too: the log restarts empty, seeded
        // with the new incarnation, and catch-up is a full sync.
        if let Some(wal) = self.wal.as_mut() {
            wal.reset();
        }
        // The reset emptied whatever was dirty; start a fresh window.
        // Failed-append retries lived only in this process's memory and
        // reference the wiped log — they die with it, exactly like the
        // acks the service loop had parked on them.
        self.wal_durable = self.wal_appended;
        self.wal_first_dirty_at = None;
        self.wal_failed = false;
        self.wal_retry.clear();
        self.wal_retry_after = None;
        self.wal_backoff = Duration::ZERO;
        let incarnation = self.incarnation;
        self.append_wal(&WalRecord::IncarnationBump { incarnation });
        self.delta_sync = false;
        // Without peers there is nobody to catch up from; restarting
        // empty is all a standalone server can do.
        self.syncing = self.sync.is_some();
    }

    /// Crash-restart landed: the process died but the log survived.
    /// Volatile state (store, prepared table, dedup cache, contention
    /// window) is dropped and rebuilt by deterministically replaying the
    /// WAL — torn tail truncated, `(txn, req)`-idempotent apply, replies
    /// reconstructed so post-restart client retries hit the dedup cache.
    /// Catch-up then runs in *delta* mode: only writes committed while
    /// this replica was down need fetching from peers.
    pub fn recover_from_restart(&mut self) {
        self.stats.restart_replays += 1;
        self.store = Store::new();
        self.prepared.clear();
        self.completed.clear();
        self.completed_order.clear();
        self.contention = ContentionWindow::new(self.window);
        self.sync_responders.clear();
        let now = Instant::now();
        let mut replayed_incarnation = 0;
        if let Some(wal) = self.wal.as_mut() {
            let loaded = wal.load();
            self.stats.torn_tails_truncated += loaded.torn_tails_truncated;
            let st = replay(loaded.records);
            self.stats.wal_records_replayed += st.records;
            replayed_incarnation = st.incarnation;
            self.store = st.store;
            for (txn, objs) in st.prepared {
                // The prepare's age did not survive the crash; re-arming
                // the TTL from now is the conservative choice (locks are
                // held at most one extra TTL, never released early).
                self.prepared.insert(txn, PreparedTxn { objs, at: now });
            }
            for (key, reply) in st.replies {
                if self.completed.len() >= DEDUP_CAPACITY {
                    if let Some(old) = self.completed_order.pop_front() {
                        self.completed.remove(&old);
                    }
                }
                if self.completed.insert(key, reply).is_none() {
                    self.completed_order.push_back(key);
                }
            }
        }
        self.incarnation = self.incarnation.max(replayed_incarnation) + 1;
        // The load dropped whatever the backend lost (e.g. a fault-injected
        // unsynced suffix); the surviving prefix is durable by definition.
        // Failed-append retries were in-memory only — the crash loses
        // them, exactly like the acks the service loop had parked on them.
        self.wal_durable = self.wal_appended;
        self.wal_first_dirty_at = None;
        self.wal_failed = false;
        self.wal_retry.clear();
        self.wal_retry_after = None;
        self.wal_backoff = Duration::ZERO;
        let incarnation = self.incarnation;
        self.append_wal(&WalRecord::IncarnationBump { incarnation });
        self.delta_sync = true;
        self.syncing = self.sync.is_some();
    }

    /// The [`Msg::SyncReq`] to (re)broadcast to every peer while catching
    /// up, with the peer list. `None` when not syncing or peerless.
    /// Re-broadcasting with a fresh correlation id is harmless: responses
    /// are matched by incarnation, not request id.
    pub fn sync_probe(&mut self) -> Option<(Vec<NodeId>, Msg)> {
        if !self.syncing {
            return None;
        }
        let sync = self.sync.as_ref()?;
        self.server_req += 1;
        let peers = (0..sync.servers)
            .filter(|&r| r != sync.rank)
            .map(|r| NodeId(r as u32))
            .collect();
        let probe = if self.delta_sync {
            Msg::SyncDeltaReq {
                req: self.server_req,
                incarnation: self.incarnation,
                known: self.store.known_versions(),
            }
        } else {
            Msg::SyncReq {
                req: self.server_req,
                incarnation: self.incarnation,
            }
        };
        Some((peers, probe))
    }

    /// Absorb one peer's [`Msg::SyncResp`] inventory. Catch-up completes —
    /// and the replica resumes voting and serving reads — once the set of
    /// responders covers a full read quorum *excluding this server*: any
    /// read quorum intersects every write quorum in at least one member,
    /// and since none of the responders is this (wiped) server, the
    /// max-version union over them dominates every write committed before
    /// the snapshots. Writes concurrent with catch-up either include this
    /// replica in their write quorum (refused → the client aborts and
    /// retries) or avoid it entirely, in which case missing them here is
    /// ordinary replica staleness that quorum reads already mask.
    fn absorb_sync_resp(
        &mut self,
        src: NodeId,
        incarnation: u64,
        entries: Vec<(ObjectId, crate::messages::Version, acn_txir::ObjectVal)>,
    ) {
        if !self.syncing || incarnation != self.incarnation {
            return; // stale response to an earlier recovery attempt
        }
        if self.delta_sync {
            // Every entry a peer shipped is recovery work the restart
            // cost; the regression tests pin this to the outage size.
            self.stats.delta_objects_fetched += entries.len() as u64;
        }
        for (obj, version, value) in entries {
            if self.store.apply(obj, version, value, REPAIR_TXN) {
                self.stats.sync_objects_received += 1;
            }
        }
        let Some(sync) = &self.sync else { return };
        self.sync_responders.insert(src.index());
        let rank = sync.rank;
        let responders = &self.sync_responders;
        let covered = sync
            .quorums
            .read_quorum(0, &|r| r != rank && responders.contains(&r))
            .is_some();
        if covered {
            self.syncing = false;
            self.delta_sync = false;
            self.stats.syncs_completed += 1;
        }
    }

    /// [`Server::handle`] with the sender known: intercepts peer-to-peer
    /// sync responses (which update recovery state instead of producing a
    /// reply) and delegates everything else. The service loop always goes
    /// through here.
    pub fn handle_from(&mut self, src: NodeId, msg: Msg, now: Instant) -> Option<Msg> {
        if let Msg::SyncResp {
            incarnation,
            entries,
            ..
        } = msg
        {
            self.absorb_sync_resp(src, incarnation, entries);
            return None;
        }
        self.handle(msg, now)
    }

    /// Handle one request, producing the reply to send back (if any).
    ///
    /// 2PC requests (Prepare/Commit/Abort) are deduped by (txn, req): a
    /// duplicate — from a client retry whose response was lost, or from
    /// chaos duplication in flight — replays the original reply without
    /// touching locks, versions, or counters. Reads are not deduped; they
    /// are naturally idempotent and re-reading gives the client fresher
    /// data. Sync refusals are not cached either: the same request id may
    /// legitimately be retried after catch-up completes and must then get
    /// a real vote.
    ///
    /// Message arrival also drives a lazy TTL sweep: a server whose
    /// service loop sat blocked in a long receive would otherwise only
    /// reclaim expired prepares on the loop's timeout cadence, so an
    /// expired lock could outlive its TTL by a full idle gap and reject
    /// the very prepare that just arrived.
    pub fn handle(&mut self, msg: Msg, now: Instant) -> Option<Msg> {
        // Unwrap a trace envelope defensively so direct calls (tests,
        // embedders) behave exactly like the service loop, which strips
        // the envelope itself to time the handling.
        let msg = match msg {
            Msg::Traced { inner, .. } => *inner,
            other => other,
        };
        let sweep_every = (self.prepared_ttl / 4).max(Duration::from_millis(100));
        if now.saturating_duration_since(self.last_sweep) >= sweep_every {
            self.sweep_expired(now);
            self.last_sweep = now;
        }
        let dedup_key = match &msg {
            Msg::PrepareReq { txn, req, .. }
            | Msg::CommitReq { txn, req, .. }
            | Msg::AbortReq { txn, req } => Some((*txn, *req)),
            _ => None,
        };
        if let Some(key) = dedup_key {
            if let Some(reply) = self.completed.get(&key) {
                self.stats.dedup_hits += 1;
                return Some(reply.clone());
            }
        }
        let reply = self.handle_fresh(msg, now);
        // Refusals are not cached: the same request id may legitimately
        // be retried after catch-up completes (syncing) or the storage
        // backend heals (wal_refused) and must then get a real vote.
        let cacheable = !matches!(
            &reply,
            Some(Msg::PrepareResp { syncing: true, .. })
                | Some(Msg::PrepareResp {
                    wal_refused: true,
                    ..
                })
        );
        if let (Some(key), Some(r), true) = (dedup_key, &reply, cacheable) {
            if self.completed.len() >= DEDUP_CAPACITY {
                if let Some(old) = self.completed_order.pop_front() {
                    self.completed.remove(&old);
                }
            }
            if self.completed.insert(key, r.clone()).is_none() {
                self.completed_order.push_back(key);
            }
        }
        reply
    }

    /// [`Server::handle`] past the dedup cache: executes the request.
    fn handle_fresh(&mut self, msg: Msg, now: Instant) -> Option<Msg> {
        // Catch-up mode: an amnesiac store reads every object as version 0,
        // so serving reads would hand out phantom-fresh copies and voting
        // yes in prepares would silently pass validation against wiped
        // state. Refuse both. Phase-2 messages are still processed below —
        // the commit/abort decision was already made from quorum votes that
        // did not include this replica's, and `Store::apply` only moves
        // versions forward.
        if self.syncing {
            match &msg {
                Msg::ReadBatchReq { req, .. } => {
                    self.stats.sync_read_refusals += 1;
                    return Some(Msg::Syncing { req: *req });
                }
                Msg::PrepareReq { req, .. } => {
                    self.stats.sync_vote_refusals += 1;
                    return Some(Msg::PrepareResp {
                        req: *req,
                        vote: false,
                        invalid: vec![],
                        locked: None,
                        syncing: true,
                        wal_refused: false,
                    });
                }
                _ => {}
            }
        }
        // Degraded mode: the WAL cannot currently make anything durable,
        // so granting a prepare would hand out a lock whose grant record
        // is unloggable. Refuse new prepares with back-pressure the
        // client attributes separately; phase-2 commits/aborts (decisions
        // already made by the quorum) are still applied below.
        if self.wal_failed {
            if let Msg::PrepareReq { req, .. } = &msg {
                self.stats.wal_vote_refusals += 1;
                return Some(Msg::PrepareResp {
                    req: *req,
                    vote: false,
                    invalid: vec![],
                    locked: None,
                    syncing: false,
                    wal_refused: true,
                });
            }
        }
        match msg {
            Msg::ReadBatchReq {
                txn,
                req,
                objs,
                validate,
                sample,
            } => {
                // The server is single-threaded, so the whole batch is
                // served against one atomic snapshot of the store.
                // Incremental validation runs regardless of lock state: a
                // stale read-set is worth reporting even when a requested
                // object is protected.
                self.stats.reads += objs.len() as u64;
                let invalid: Vec<ObjectId> = validate
                    .iter()
                    .filter(|&&(o, v)| self.store.version(o) > v)
                    .map(|&(o, _)| o)
                    .collect();
                let reads = objs
                    .iter()
                    .map(|&obj| {
                        let (version, value, lock) = self.store.read(obj);
                        crate::messages::BatchRead {
                            obj,
                            version,
                            value,
                            locked: matches!(lock, Some(holder) if holder != txn),
                        }
                    })
                    .collect();
                let levels = sample
                    .iter()
                    .map(|&c| (c, self.contention.class_level(c, now)))
                    .collect();
                Some(Msg::ReadBatchResp {
                    req,
                    reads,
                    invalid,
                    levels,
                })
            }
            Msg::PrepareReq {
                txn,
                req,
                validate,
                writes,
            } => {
                self.stats.prepares += 1;
                // Lock the write-set all-or-nothing on this replica.
                let mut locked: Vec<ObjectId> = Vec::with_capacity(writes.len());
                let mut lock_conflict: Option<ObjectId> = None;
                let mut vote = true;
                for &(obj, _) in &writes {
                    if self.store.try_lock(obj, txn) {
                        locked.push(obj);
                    } else {
                        // Blame the contended object for the rejection,
                        // locally and in the response.
                        self.contention.record_abort(obj, now);
                        lock_conflict = Some(obj);
                        vote = false;
                        break;
                    }
                }
                let mut invalid = Vec::new();
                if vote {
                    invalid = validate
                        .iter()
                        .filter(|&&(o, v)| self.store.version(o) > v)
                        .map(|&(o, _)| o)
                        .collect();
                    vote = invalid.is_empty();
                    for &o in &invalid {
                        self.contention.record_abort(o, now);
                    }
                }
                if vote {
                    // Read-only prepares (no writes) hold no locks and need
                    // no phase 2, so nothing is recorded for them.
                    if !locked.is_empty() {
                        if !self.append_wal(&WalRecord::PrepareGrant {
                            txn,
                            req,
                            objs: locked.clone(),
                        }) {
                            // The grant could not even be staged: undo the
                            // locks and refuse with storage back-pressure.
                            for obj in locked {
                                self.store.unlock(obj, txn);
                            }
                            self.stats.wal_vote_refusals += 1;
                            return Some(Msg::PrepareResp {
                                req,
                                vote: false,
                                invalid: vec![],
                                locked: None,
                                syncing: false,
                                wal_refused: true,
                            });
                        }
                        self.prepared.insert(
                            txn,
                            PreparedTxn {
                                objs: locked,
                                at: now,
                            },
                        );
                    }
                } else {
                    for obj in locked {
                        self.store.unlock(obj, txn);
                    }
                    self.stats.prepare_rejects += 1;
                }
                Some(Msg::PrepareResp {
                    req,
                    vote,
                    invalid,
                    locked: lock_conflict,
                    syncing: false,
                    wal_refused: false,
                })
            }
            Msg::CommitReq { txn, req, writes } => {
                self.stats.commits += 1;
                // Write-ahead: the decision is durable before the store
                // mutates, so a crash between the two replays the apply.
                // On append failure the decision — already made by the
                // quorum — is applied anyway (refusing it would strand
                // the locks), but the record goes onto the retry queue:
                // the ack stays parked until a re-append plus a covering
                // sync make it durable, so ack-after-durable holds even
                // when the append itself faulted. The error is counted
                // and the server degrades to refusing *new* prepares.
                let rec = WalRecord::CommitApply {
                    txn,
                    req,
                    writes: writes.clone(),
                };
                if !self.append_wal(&rec) {
                    self.wal_retry.push_back(rec);
                }
                for (obj, version, value) in writes {
                    self.store.apply(obj, version, value, txn);
                    self.contention.record_write(obj, now);
                }
                self.prepared.remove(&txn);
                Some(Msg::CommitAck { req })
            }
            Msg::AbortReq { txn, req } => {
                self.stats.aborts += 1;
                // Same retry discipline as the commit record: the abort
                // is applied now, its ack parked until the record is
                // durable. A record lost to a crash before the retry
                // lands replays as a still-prepared transaction, which
                // the post-restart TTL sweep reclaims — and the parked
                // ack dies with the crash, never sent.
                let rec = WalRecord::Abort { txn, req };
                if !self.append_wal(&rec) {
                    self.wal_retry.push_back(rec);
                }
                if let Some(p) = self.prepared.remove(&txn) {
                    for obj in p.objs {
                        self.store.unlock(obj, txn);
                    }
                }
                Some(Msg::AbortAck { req })
            }
            Msg::ContentionReq { req, classes } => {
                self.stats.contention_queries += 1;
                let levels = classes
                    .iter()
                    .map(|&c| (c, self.contention.class_level(c, now)))
                    .collect();
                let abort_levels = classes
                    .iter()
                    .map(|&c| (c, self.contention.class_abort_level(c, now)))
                    .collect();
                Some(Msg::ContentionResp {
                    req,
                    levels,
                    abort_levels,
                })
            }
            Msg::SyncReq { req, incarnation } => {
                // A replica that is itself catching up must not seed
                // another: its amnesiac inventory would launder version-0
                // state into the requester's "covered" quorum. Stay silent
                // and let the requester's re-broadcast find healthy peers.
                if self.syncing {
                    return None;
                }
                self.stats.syncs_served += 1;
                Some(Msg::SyncResp {
                    req,
                    incarnation,
                    entries: self.store.inventory(),
                })
            }
            Msg::SyncDeltaReq {
                req,
                incarnation,
                known,
            } => {
                // Same no-amnesiac-seeding rule as a full SyncReq.
                if self.syncing {
                    return None;
                }
                self.stats.syncs_served += 1;
                // Ship only what the requester is missing: objects it has
                // never seen, or holds at an older version. A never-written
                // object reads as version 0 everywhere, so absent == 0.
                let known: HashMap<ObjectId, crate::messages::Version> =
                    known.into_iter().collect();
                let entries = self
                    .store
                    .inventory()
                    .into_iter()
                    .filter(|(obj, version, _)| known.get(obj).copied().unwrap_or(0) < *version)
                    .collect();
                Some(Msg::SyncResp {
                    req,
                    incarnation,
                    entries,
                })
            }
            Msg::RepairWrite { writes, .. } => {
                self.stats.repair_writes_received += 1;
                for (obj, version, value) in writes {
                    // Forward-only apply under a sentinel txn: a repair can
                    // never regress a concurrent commit or release a real
                    // transaction's lock. Safe even on protected objects —
                    // the repaired version is an already-committed one,
                    // which validation guarantees is ≤ any version the
                    // lock-holding prepare will install.
                    if self.store.apply(obj, version, value, REPAIR_TXN) {
                        self.stats.repair_writes_applied += 1;
                    }
                }
                None // fire-and-forget: no ack
            }
            Msg::Shutdown => None,
            // Responses should never arrive at a server.
            other => {
                debug_assert!(false, "server received non-request {other:?}");
                None
            }
        }
    }

    /// Service loop: receive, handle, reply, until `Msg::Shutdown` arrives
    /// or the network closes. Returns the final stats.
    ///
    /// Periodically sweeps expired prepared transactions, so a client that
    /// crashed (or timed out) between prepare and phase 2 cannot leave its
    /// write-set locked — and the `prepared` map growing — forever.
    ///
    /// Each iteration also polls the fault table's amnesia epoch: when a
    /// crash-with-amnesia lands, the replica wipes itself immediately (so
    /// no pre-wipe state survives into recovery) and, once reachable
    /// again, re-broadcasts [`Msg::SyncReq`] to its peers every probe
    /// interval until their inventories cover a read quorum.
    pub fn run(mut self, endpoint: Endpoint<Msg>) -> ServerStats {
        let sweep_every = (self.prepared_ttl / 4).max(Duration::from_millis(100));
        let probe_every = Duration::from_millis(40);
        let mut next_sweep = Instant::now() + sweep_every;
        let mut next_probe = Instant::now();
        // Acks held back until the WAL records they depend on are durable:
        // (covering append watermark, destination, reply, and — when the
        // request carried a trace — its context plus park time, so the
        // release records a `WalPark` span covering the held interval).
        // Watermarks are appended in increasing order, so the front is
        // always the next releasable entry.
        type Parked = (u64, NodeId, Msg, Option<(TraceCtx, Instant)>);
        let mut wal_waiters: VecDeque<Parked> = VecDeque::new();
        // Group commit batches by *arrival concurrency*: the loop drains
        // every message already queued in the inbox before syncing, so one
        // fsync covers everything that accumulated while the previous one
        // ran. EveryRecord keeps a drain of 1 — its contract is one sync
        // per record, and the ablation measures exactly that.
        let drain: usize = match self.durability {
            DurabilityMode::GroupCommit { .. } => 64,
            _ => 1,
        };
        'serve: loop {
            // Amnesia first: if both faults landed in one poll gap, the
            // disk is gone too — the replay then finds the wiped log,
            // which is exactly what the combined fault means.
            let epoch = endpoint.amnesia_epoch();
            if epoch > self.amnesia_seen {
                self.amnesia_seen = epoch;
                self.wipe_for_amnesia();
                // A crashed process loses its in-memory parked acks: they
                // were never sent, and the records covering them may have
                // died with the wiped log or the unsynced suffix —
                // releasing them post-recovery would ack decisions the
                // log no longer holds, the exact early ack the
                // ack-after-durable contract forbids.
                wal_waiters.clear();
            }
            let repoch = endpoint.restart_epoch();
            if repoch > self.restart_seen {
                self.restart_seen = repoch;
                self.recover_from_restart();
                // Same as amnesia: pre-crash parked acks die unsent.
                wal_waiters.clear();
            }
            if self.syncing && !endpoint.is_failed() {
                let now = Instant::now();
                if now >= next_probe {
                    if let Some((peers, probe)) = self.sync_probe() {
                        let bytes = probe.wire_bytes();
                        endpoint.broadcast(&peers, probe, bytes);
                    }
                    next_probe = now + probe_every;
                }
            }
            // A short receive keeps the amnesia poll and probe cadence
            // responsive while the node is failed or idle, shortened to
            // the sync deadline when records are dirty so aging (and the
            // waiter accumulation window) fires on time; after the first
            // message, zero-timeout receives drain what is already queued.
            'drain: for received in 0..drain {
                let timeout = if received == 0 {
                    let idle = Duration::from_millis(20);
                    match self.wal_sync_deadline(Instant::now(), !wal_waiters.is_empty()) {
                        Some(due) => idle.min(due.saturating_duration_since(Instant::now())),
                        None => idle,
                    }
                } else {
                    Duration::ZERO
                };
                match endpoint.recv_timeout_meta(timeout) {
                    Ok((src, msg, meta)) => {
                        // Strip the trace envelope before dispatch so
                        // handling (and the Shutdown check) sees the bare
                        // request; the carried context parents the
                        // server-side spans below.
                        let (ctx, msg) = match msg {
                            Msg::Traced { ctx, inner } => (Some(ctx), *inner),
                            other => (None, other),
                        };
                        if matches!(msg, Msg::Shutdown) {
                            break 'serve;
                        }
                        let reply = self.handle_from(src, msg, Instant::now());
                        if let (Some(spans), Some(ctx)) = (self.spans.as_ref(), ctx) {
                            let node = endpoint.id().0;
                            let done = Instant::now();
                            // Inbox dwell: matured on the wire at
                            // `deliver_at`, picked up by this
                            // single-threaded loop at `received_at` — the
                            // server-queue segment.
                            spans.record(RawSpan {
                                parent: ctx.span,
                                trace: ctx.trace,
                                kind: SpanKind::ServerQueue,
                                node,
                                start: meta.deliver_at,
                                end: meta.received_at,
                                flags: 0,
                            });
                            spans.record(RawSpan {
                                parent: ctx.span,
                                trace: ctx.trace,
                                kind: SpanKind::ServerHandle,
                                node,
                                start: meta.received_at,
                                end: done,
                                flags: 0,
                            });
                            // A refusal while catching up reads as a
                            // rolled-back server span: the client will
                            // retry elsewhere.
                            let refused = matches!(
                                &reply,
                                Some(Msg::Syncing { .. })
                                    | Some(Msg::PrepareResp { syncing: true, .. })
                            );
                            if refused {
                                spans.record(RawSpan {
                                    parent: ctx.span,
                                    trace: ctx.trace,
                                    kind: SpanKind::SyncRefusal,
                                    node,
                                    start: meta.received_at,
                                    end: done,
                                    flags: FLAG_ROLLED_BACK,
                                });
                            }
                        }
                        if let Some(reply) = reply {
                            // Ack-after-durable: a 2PC reply that depends
                            // on log records still in the dirty window is
                            // parked until a sync covers the current
                            // watermark. Reads and refusals (no vote ⇒ no
                            // grant record) go out immediately; Buffered
                            // mode never defers — that is exactly the
                            // honesty gap the ablation measures.
                            let needs_durability = matches!(
                                &reply,
                                Msg::PrepareResp { vote: true, .. }
                                    | Msg::CommitAck { .. }
                                    | Msg::AbortAck { .. }
                            );
                            // A pending failed-append retry counts into
                            // the covering watermark: its record is not
                            // even staged yet, and will occupy the slots
                            // past everything queued before it once the
                            // sync path re-appends the queue in order.
                            let mark = self.wal_appended + self.wal_retry.len() as u64;
                            let defer = needs_durability
                                && self.wal.is_some()
                                && self.durability != DurabilityMode::Buffered
                                && self.wal_durable < mark;
                            if defer {
                                let parked = ctx.map(|c| (c, Instant::now()));
                                wal_waiters.push_back((mark, src, reply, parked));
                            } else {
                                let bytes = reply.wire_bytes();
                                endpoint.send_sized(src, reply, bytes);
                            }
                        }
                    }
                    Err(RecvError::Timeout) => break 'drain,
                    Err(RecvError::Closed) => break 'serve,
                }
            }
            // Sync on the durability mode's cadence (EveryRecord: right
            // here, before the ack leaves; GroupCommit: once the oldest
            // parked ack has aged past the accumulation window — the
            // drain above already emptied the inbox, so the batch is
            // everything that arrived during the window plus the previous
            // fsync — or when the dirty window fills or ages out with no
            // waiter), then release every waiter the new durable watermark
            // covers.
            let now = Instant::now();
            if self.wal_sync_due(now, !wal_waiters.is_empty()) {
                let sync_start = Instant::now();
                self.sync_wal();
                // The fsync itself is server-local work with no client
                // parent — a root-level span so flight-recorder dumps show
                // when the disk was busy.
                if let Some(spans) = self.spans.as_ref() {
                    spans.record(RawSpan {
                        parent: 0,
                        trace: 0,
                        kind: SpanKind::WalSync,
                        node: endpoint.id().0,
                        start: sync_start,
                        end: Instant::now(),
                        flags: 0,
                    });
                }
            }
            while let Some(&(mark, _, _, _)) = wal_waiters.front() {
                if mark > self.wal_durable {
                    break;
                }
                let (_, dst, msg, parked) = wal_waiters.pop_front().expect("front checked");
                if let (Some(spans), Some((c, at))) = (self.spans.as_ref(), parked) {
                    spans.record(RawSpan {
                        parent: c.span,
                        trace: c.trace,
                        kind: SpanKind::WalPark,
                        node: endpoint.id().0,
                        start: at,
                        end: Instant::now(),
                        flags: 0,
                    });
                }
                let bytes = msg.wire_bytes();
                endpoint.send_sized(dst, msg, bytes);
            }
            if now >= next_sweep {
                self.sweep_expired(now);
                next_sweep = now + sweep_every;
            }
        }
        // Final sync so a cleanly shut-down log is durable even under
        // GroupCommit/Buffered, and any still-parked acks are released
        // (waiters whose records the backend persistently refuses to
        // sync are dropped — exactly a never-sent ack).
        self.sync_wal();
        while let Some((mark, dst, msg, parked)) = wal_waiters.pop_front() {
            if mark <= self.wal_durable {
                if let (Some(spans), Some((c, at))) = (self.spans.as_ref(), parked) {
                    spans.record(RawSpan {
                        parent: c.span,
                        trace: c.trace,
                        kind: SpanKind::WalPark,
                        node: endpoint.id().0,
                        start: at,
                        end: Instant::now(),
                        flags: 0,
                    });
                }
                let bytes = msg.wire_bytes();
                endpoint.send_sized(dst, msg, bytes);
            }
        }
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_simnet::NodeId;
    use acn_txir::{FieldId, ObjClass, ObjectVal, Value};

    const C: ObjClass = ObjClass::new(0, "C");
    const OBJ: ObjectId = ObjectId::new(C, 1);
    const OBJ2: ObjectId = ObjectId::new(C, 2);

    fn txn(seq: u64) -> TxnId {
        TxnId {
            client: NodeId(10),
            seq,
        }
    }

    fn val(v: i64) -> ObjectVal {
        ObjectVal::from_fields([(FieldId(0), Value::Int(v))])
    }

    fn server() -> Server {
        Server::new(WindowConfig::default())
    }

    /// A single-object read: a batch of one.
    fn read(s: &mut Server, t: TxnId, obj: ObjectId, validate: Vec<(ObjectId, u64)>) -> Msg {
        s.handle(
            Msg::ReadBatchReq {
                txn: t,
                req: 1,
                objs: vec![obj],
                validate,
                sample: vec![],
            },
            Instant::now(),
        )
        .unwrap()
    }

    #[test]
    fn fresh_read_returns_version_zero() {
        let mut s = server();
        match read(&mut s, txn(1), OBJ, vec![]) {
            Msg::ReadBatchResp { reads, invalid, .. } => {
                assert_eq!(reads.len(), 1);
                assert_eq!(reads[0].obj, OBJ);
                assert_eq!(reads[0].version, 0);
                assert!(invalid.is_empty());
                assert!(!reads[0].locked);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn full_commit_cycle() {
        let mut s = server();
        let t = txn(1);
        // Prepare: lock OBJ, validate read version 0.
        let resp = s
            .handle(
                Msg::PrepareReq {
                    txn: t,
                    req: 2,
                    validate: vec![(OBJ, 0)],
                    writes: vec![(OBJ, 0)],
                },
                Instant::now(),
            )
            .unwrap();
        assert!(matches!(resp, Msg::PrepareResp { vote: true, .. }));
        // Commit at version 1.
        let ack = s
            .handle(
                Msg::CommitReq {
                    txn: t,
                    req: 3,
                    writes: vec![(OBJ, 1, val(42))],
                },
                Instant::now(),
            )
            .unwrap();
        assert!(matches!(ack, Msg::CommitAck { req: 3 }));
        // A later read sees it.
        match read(&mut s, txn(2), OBJ, vec![]) {
            Msg::ReadBatchResp { reads, .. } => {
                assert_eq!(reads[0].version, 1);
                assert_eq!(reads[0].value, val(42));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stale_read_set_is_reported() {
        let mut s = server();
        let t = txn(1);
        s.handle(
            Msg::PrepareReq {
                txn: t,
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            Instant::now(),
        );
        s.handle(
            Msg::CommitReq {
                txn: t,
                req: 2,
                writes: vec![(OBJ, 1, val(1))],
            },
            Instant::now(),
        );
        // Reader presents version 0 for OBJ while reading OBJ2.
        match read(&mut s, txn(2), OBJ2, vec![(OBJ, 0)]) {
            Msg::ReadBatchResp { invalid, .. } => assert_eq!(invalid, vec![OBJ]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn locked_object_reported_but_validation_still_runs() {
        let mut s = server();
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            Instant::now(),
        );
        match read(&mut s, txn(2), OBJ, vec![]) {
            Msg::ReadBatchResp { reads, .. } => assert!(reads[0].locked),
            other => panic!("{other:?}"),
        }
        // The lock holder itself is not "locked out".
        match read(&mut s, txn(1), OBJ, vec![]) {
            Msg::ReadBatchResp { reads, .. } => assert!(!reads[0].locked),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn prepare_lock_conflict_votes_no_and_rolls_back_partial_locks() {
        let mut s = server();
        assert!(matches!(
            s.handle(
                Msg::PrepareReq {
                    txn: txn(1),
                    req: 1,
                    validate: vec![],
                    writes: vec![(OBJ, 0)],
                },
                Instant::now()
            ),
            Some(Msg::PrepareResp { vote: true, .. })
        ));
        // txn 2 wants OBJ2 then OBJ: OBJ conflicts, OBJ2 must be released,
        // and the response blames the object it could not lock.
        match s.handle(
            Msg::PrepareReq {
                txn: txn(2),
                req: 2,
                validate: vec![],
                writes: vec![(OBJ2, 0), (OBJ, 0)],
            },
            Instant::now(),
        ) {
            Some(Msg::PrepareResp {
                vote: false,
                locked,
                ..
            }) => assert_eq!(locked, Some(OBJ), "lock conflict must be attributable"),
            other => panic!("{other:?}"),
        }
        // txn 3 can now lock OBJ2 — proof the partial lock was released.
        assert!(matches!(
            s.handle(
                Msg::PrepareReq {
                    txn: txn(3),
                    req: 3,
                    validate: vec![],
                    writes: vec![(OBJ2, 0)],
                },
                Instant::now()
            ),
            Some(Msg::PrepareResp { vote: true, .. })
        ));
        assert_eq!(s.stats().prepare_rejects, 1);
    }

    #[test]
    fn prepare_rejects_stale_validation() {
        let mut s = server();
        // Install version 2.
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            Instant::now(),
        );
        s.handle(
            Msg::CommitReq {
                txn: txn(1),
                req: 2,
                writes: vec![(OBJ, 2, val(5))],
            },
            Instant::now(),
        );
        // txn 2 read version 1 (stale).
        match s
            .handle(
                Msg::PrepareReq {
                    txn: txn(2),
                    req: 3,
                    validate: vec![(OBJ, 1)],
                    writes: vec![(OBJ2, 0)],
                },
                Instant::now(),
            )
            .unwrap()
        {
            Msg::PrepareResp { vote, invalid, .. } => {
                assert!(!vote);
                assert_eq!(invalid, vec![OBJ]);
            }
            other => panic!("{other:?}"),
        }
        // And its failed prepare released the OBJ2 lock.
        assert!(matches!(
            s.handle(
                Msg::PrepareReq {
                    txn: txn(3),
                    req: 4,
                    validate: vec![],
                    writes: vec![(OBJ2, 0)]
                },
                Instant::now()
            ),
            Some(Msg::PrepareResp { vote: true, .. })
        ));
    }

    #[test]
    fn abort_releases_locks() {
        let mut s = server();
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            Instant::now(),
        );
        s.handle(
            Msg::AbortReq {
                txn: txn(1),
                req: 2,
            },
            Instant::now(),
        );
        assert!(matches!(
            s.handle(
                Msg::PrepareReq {
                    txn: txn(2),
                    req: 3,
                    validate: vec![],
                    writes: vec![(OBJ, 0)]
                },
                Instant::now()
            ),
            Some(Msg::PrepareResp { vote: true, .. })
        ));
        assert_eq!(s.stats().aborts, 1);
    }

    #[test]
    fn contention_query_reports_committed_writes() {
        let mut s = Server::new(WindowConfig {
            window: Duration::from_millis(100),
        });
        let t0 = Instant::now();
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            t0,
        );
        s.handle(
            Msg::CommitReq {
                txn: txn(1),
                req: 2,
                writes: vec![(OBJ, 1, val(1))],
            },
            t0,
        );
        // Query one window later (within [window, 2·window), so the write
        // window is the last *complete* one — any later and it is stale).
        match s
            .handle(
                Msg::ContentionReq {
                    req: 3,
                    classes: vec![C.id, 99],
                },
                t0 + Duration::from_millis(150),
            )
            .unwrap()
        {
            Msg::ContentionResp { levels, .. } => {
                assert_eq!(levels.len(), 2);
                assert!(levels[0].1 > 0.0, "class C saw a write");
                assert_eq!(levels[1].1, 0.0, "unknown class is cold");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn piggybacked_sample_rides_on_read_responses() {
        let mut s = Server::new(WindowConfig {
            window: Duration::from_millis(100),
        });
        let t0 = Instant::now();
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            t0,
        );
        s.handle(
            Msg::CommitReq {
                txn: txn(1),
                req: 2,
                writes: vec![(OBJ, 1, val(1))],
            },
            t0,
        );
        // Sample one window later so the write window is the last complete
        // one (a multi-window gap would — correctly — read as cold).
        let resp = s
            .handle(
                Msg::ReadBatchReq {
                    txn: txn(2),
                    req: 3,
                    objs: vec![OBJ2],
                    validate: vec![],
                    sample: vec![C.id, 77],
                },
                t0 + Duration::from_millis(150),
            )
            .unwrap();
        match resp {
            Msg::ReadBatchResp { levels, .. } => {
                assert_eq!(levels.len(), 2);
                assert!(levels[0].1 > 0.0, "class C saw a committed write");
                assert_eq!(levels[1].1, 0.0);
            }
            other => panic!("{other:?}"),
        }
        // An empty sample costs nothing on the wire.
        match read(&mut s, txn(3), OBJ2, vec![]) {
            Msg::ReadBatchResp { levels, .. } => assert!(levels.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_read_serves_all_objects_and_validates_once() {
        let mut s = server();
        // Install OBJ at version 1 so validation has something to catch.
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            Instant::now(),
        );
        s.handle(
            Msg::CommitReq {
                txn: txn(1),
                req: 2,
                writes: vec![(OBJ, 1, val(5))],
            },
            Instant::now(),
        );
        let resp = s
            .handle(
                Msg::ReadBatchReq {
                    txn: txn(2),
                    req: 3,
                    objs: vec![OBJ, OBJ2],
                    validate: vec![(OBJ, 0)],
                    sample: vec![],
                },
                Instant::now(),
            )
            .unwrap();
        match resp {
            Msg::ReadBatchResp { reads, invalid, .. } => {
                assert_eq!(reads.len(), 2, "one reply per requested object");
                assert_eq!(reads[0].obj, OBJ);
                assert_eq!(reads[0].version, 1);
                assert_eq!(reads[0].value, val(5));
                assert_eq!(reads[1].obj, OBJ2);
                assert_eq!(reads[1].version, 0);
                assert_eq!(invalid, vec![OBJ], "stale delta entry reported");
            }
            other => panic!("{other:?}"),
        }
        // Each object counts as a read.
        assert_eq!(s.stats().reads, 2);
    }

    #[test]
    fn batch_read_reports_locks_per_object() {
        let mut s = server();
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            Instant::now(),
        );
        match s
            .handle(
                Msg::ReadBatchReq {
                    txn: txn(2),
                    req: 2,
                    objs: vec![OBJ, OBJ2],
                    validate: vec![],
                    sample: vec![],
                },
                Instant::now(),
            )
            .unwrap()
        {
            Msg::ReadBatchResp { reads, .. } => {
                assert!(reads[0].locked, "OBJ is protected by txn 1");
                assert!(!reads[1].locked);
            }
            other => panic!("{other:?}"),
        }
        // The lock holder itself is not locked out of its own objects.
        match s
            .handle(
                Msg::ReadBatchReq {
                    txn: txn(1),
                    req: 3,
                    objs: vec![OBJ, OBJ2],
                    validate: vec![],
                    sample: vec![],
                },
                Instant::now(),
            )
            .unwrap()
        {
            Msg::ReadBatchResp { reads, .. } => {
                assert!(!reads[0].locked);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expired_prepare_releases_locks_and_entry() {
        let mut s = server();
        s.set_prepared_ttl(Duration::from_millis(10));
        let t0 = Instant::now();
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            t0,
        );
        assert_eq!(s.store_mut().lock_holder(OBJ), Some(txn(1)));
        // Before the TTL: nothing to reclaim.
        assert_eq!(s.sweep_expired(t0 + Duration::from_millis(5)), 0);
        assert_eq!(s.store_mut().lock_holder(OBJ), Some(txn(1)));
        // Past the TTL: entry gone, lock free, counter bumped.
        assert_eq!(s.sweep_expired(t0 + Duration::from_millis(11)), 1);
        assert_eq!(s.store_mut().lock_holder(OBJ), None);
        assert_eq!(s.stats().expired_prepares, 1);
        assert!(s.prepared.is_empty(), "prepared map must not leak");
        // A new transaction can prepare the same object.
        assert!(matches!(
            s.handle(
                Msg::PrepareReq {
                    txn: txn(2),
                    req: 2,
                    validate: vec![],
                    writes: vec![(OBJ, 0)]
                },
                Instant::now()
            ),
            Some(Msg::PrepareResp { vote: true, .. })
        ));
        // A straggling abort from the expired txn is harmless.
        s.handle(
            Msg::AbortReq {
                txn: txn(1),
                req: 3,
            },
            Instant::now(),
        );
        assert_eq!(s.store_mut().lock_holder(OBJ), Some(txn(2)));
    }

    #[test]
    fn sweep_leaves_fresh_prepares_alone() {
        let mut s = server();
        let t0 = Instant::now();
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            t0,
        );
        // Default TTL is 30 s; a sweep "now" must not touch the entry.
        assert_eq!(s.sweep_expired(t0 + Duration::from_secs(1)), 0);
        assert_eq!(s.store_mut().lock_holder(OBJ), Some(txn(1)));
    }

    #[test]
    fn duplicate_prepare_replays_vote_without_relocking() {
        let mut s = server();
        let prepare = Msg::PrepareReq {
            txn: txn(1),
            req: 1,
            validate: vec![(OBJ, 0)],
            writes: vec![(OBJ, 0)],
        };
        assert!(matches!(
            s.handle(prepare.clone(), Instant::now()),
            Some(Msg::PrepareResp { vote: true, .. })
        ));
        s.handle(
            Msg::CommitReq {
                txn: txn(1),
                req: 2,
                writes: vec![(OBJ, 1, val(9))],
            },
            Instant::now(),
        );
        assert_eq!(s.store_mut().lock_holder(OBJ), None);
        // A delayed duplicate of the original prepare arrives after the
        // commit: it must replay the cached vote, not re-lock OBJ.
        assert!(matches!(
            s.handle(prepare, Instant::now()),
            Some(Msg::PrepareResp { vote: true, .. })
        ));
        assert_eq!(
            s.store_mut().lock_holder(OBJ),
            None,
            "dup prepare must not resurrect the lock"
        );
        assert_eq!(s.stats().dedup_hits, 1);
        assert_eq!(s.stats().prepares, 1, "the duplicate was not re-executed");
    }

    #[test]
    fn duplicate_commit_applies_once() {
        let mut s = server();
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            Instant::now(),
        );
        let commit = Msg::CommitReq {
            txn: txn(1),
            req: 2,
            writes: vec![(OBJ, 1, val(7))],
        };
        assert!(matches!(
            s.handle(commit.clone(), Instant::now()),
            Some(Msg::CommitAck { req: 2 })
        ));
        assert!(matches!(
            s.handle(commit, Instant::now()),
            Some(Msg::CommitAck { req: 2 })
        ));
        assert_eq!(s.stats().commits, 1, "duplicate commit not re-applied");
        assert_eq!(s.stats().dedup_hits, 1);
    }

    #[test]
    fn distinct_requests_of_same_txn_are_not_deduped() {
        // The same transaction legitimately issues prepare (req a) and
        // commit (req b): different request ids, both must execute.
        let mut s = server();
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 10,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            Instant::now(),
        );
        s.handle(
            Msg::CommitReq {
                txn: txn(1),
                req: 11,
                writes: vec![(OBJ, 1, val(3))],
            },
            Instant::now(),
        );
        assert_eq!(s.stats().prepares, 1);
        assert_eq!(s.stats().commits, 1);
        assert_eq!(s.stats().dedup_hits, 0);
    }

    #[test]
    fn dedup_cache_is_bounded() {
        let mut s = server();
        for i in 0..(super::DEDUP_CAPACITY as u64 + 10) {
            s.handle(
                Msg::AbortReq {
                    txn: txn(i),
                    req: i,
                },
                Instant::now(),
            );
        }
        assert_eq!(s.completed.len(), super::DEDUP_CAPACITY);
        assert_eq!(s.completed_order.len(), super::DEDUP_CAPACITY);
        // The oldest entries were evicted: replaying the very first abort
        // re-executes it (harmlessly) rather than hitting the cache.
        s.handle(
            Msg::AbortReq {
                txn: txn(0),
                req: 0,
            },
            Instant::now(),
        );
        assert_eq!(s.stats().dedup_hits, 0);
    }

    fn sync_cfg(rank: usize, servers: usize) -> SyncConfig {
        use acn_quorum::DaryTree;
        SyncConfig {
            quorums: LevelQuorums::new(DaryTree::new(servers, 3)),
            rank,
            servers,
        }
    }

    fn commit_obj(s: &mut Server, t: TxnId, req_base: u64, obj: ObjectId, ver: u64, v: i64) {
        s.handle(
            Msg::PrepareReq {
                txn: t,
                req: req_base,
                validate: vec![],
                writes: vec![(obj, ver - 1)],
            },
            Instant::now(),
        );
        s.handle(
            Msg::CommitReq {
                txn: t,
                req: req_base + 1,
                writes: vec![(obj, ver, val(v))],
            },
            Instant::now(),
        );
    }

    #[test]
    fn amnesia_wipe_refuses_reads_and_votes_until_quorum_synced() {
        let mut s = server();
        s.set_sync_config(sync_cfg(0, 4));
        commit_obj(&mut s, txn(1), 1, OBJ, 1, 42);
        s.wipe_for_amnesia();
        assert!(s.is_syncing());
        assert_eq!(s.stats().amnesia_wipes, 1);
        assert_eq!(s.stats().digest.total_objects(), 0, "store is gone");

        // Reads: refused with a Syncing response, not served as v0.
        match s
            .handle(
                Msg::ReadBatchReq {
                    txn: txn(2),
                    req: 7,
                    objs: vec![OBJ],
                    validate: vec![],
                    sample: vec![],
                },
                Instant::now(),
            )
            .unwrap()
        {
            Msg::Syncing { req } => assert_eq!(req, 7),
            other => panic!("{other:?}"),
        }
        match s
            .handle(
                Msg::ReadBatchReq {
                    txn: txn(2),
                    req: 8,
                    objs: vec![OBJ, OBJ2],
                    validate: vec![],
                    sample: vec![],
                },
                Instant::now(),
            )
            .unwrap()
        {
            Msg::Syncing { req } => assert_eq!(req, 8),
            other => panic!("{other:?}"),
        }
        // Votes: refused, flagged as a sync refusal, nothing locked.
        match s
            .handle(
                Msg::PrepareReq {
                    txn: txn(3),
                    req: 9,
                    validate: vec![(OBJ, 0)],
                    writes: vec![(OBJ, 0)],
                },
                Instant::now(),
            )
            .unwrap()
        {
            Msg::PrepareResp {
                vote,
                syncing,
                invalid,
                locked,
                ..
            } => {
                assert!(!vote);
                assert!(syncing);
                assert!(invalid.is_empty() && locked.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.store_mut().lock_holder(OBJ), None);
        assert_eq!(s.stats().sync_vote_refusals, 1);
        assert_eq!(s.stats().sync_read_refusals, 2);

        // Phase 2 of an already-decided commit still applies.
        s.handle(
            Msg::CommitReq {
                txn: txn(4),
                req: 10,
                writes: vec![(OBJ2, 2, val(9))],
            },
            Instant::now(),
        );

        // Probe names every peer and carries the current incarnation.
        let (peers, probe) = s.sync_probe().expect("syncing server probes");
        assert_eq!(peers, vec![NodeId(1), NodeId(2), NodeId(3)]);
        let inc = match probe {
            Msg::SyncReq { incarnation, .. } => incarnation,
            other => panic!("{other:?}"),
        };

        // A healthy peer's inventory: OBJ at version 4. With 4 servers
        // (tree levels {0} and {1,2,3}) the recovering rank 0 needs a
        // majority of the deepest level — two peers — to finish.
        let entries = vec![(OBJ, 4u64, val(40))];
        s.handle_from(
            NodeId(1),
            Msg::SyncResp {
                req: 1,
                incarnation: inc,
                entries: entries.clone(),
            },
            Instant::now(),
        );
        assert!(s.is_syncing(), "one responder is below a read quorum");
        s.handle_from(
            NodeId(2),
            Msg::SyncResp {
                req: 1,
                incarnation: inc,
                entries: entries.clone(),
            },
            Instant::now(),
        );
        assert!(!s.is_syncing(), "two peers cover a read quorum: done");
        assert_eq!(s.stats().syncs_completed, 1);
        assert!(s.stats().sync_objects_received >= 1);

        // Reads serve the synced copy; the mid-sync commit survived.
        match read(&mut s, txn(5), OBJ, vec![]) {
            Msg::ReadBatchResp { reads, .. } => {
                assert_eq!(reads[0].version, 4);
                assert_eq!(reads[0].value, val(40));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.store_mut().read(OBJ2).0, 2, "mid-sync commit kept");
        // Votes work again.
        assert!(matches!(
            s.handle(
                Msg::PrepareReq {
                    txn: txn(6),
                    req: 11,
                    validate: vec![(OBJ, 4)],
                    writes: vec![(OBJ, 4)],
                },
                Instant::now()
            ),
            Some(Msg::PrepareResp { vote: true, .. })
        ));
    }

    #[test]
    fn sync_refusal_is_not_cached_for_dedup() {
        let mut s = server();
        s.set_sync_config(sync_cfg(0, 4));
        s.wipe_for_amnesia();
        let prepare = Msg::PrepareReq {
            txn: txn(1),
            req: 1,
            validate: vec![],
            writes: vec![(OBJ, 0)],
        };
        assert!(matches!(
            s.handle(prepare.clone(), Instant::now()),
            Some(Msg::PrepareResp { syncing: true, .. })
        ));
        // Catch-up completes…
        let (_, probe) = s.sync_probe().unwrap();
        let inc = match probe {
            Msg::SyncReq { incarnation, .. } => incarnation,
            other => panic!("{other:?}"),
        };
        for rank in 1..=3u32 {
            s.handle_from(
                NodeId(rank),
                Msg::SyncResp {
                    req: 1,
                    incarnation: inc,
                    entries: vec![],
                },
                Instant::now(),
            );
        }
        // …and the *same* (txn, req) retry must now get a real vote, not
        // a dedup replay of the refusal.
        match s.handle(prepare, Instant::now()).unwrap() {
            Msg::PrepareResp { vote, syncing, .. } => {
                assert!(vote, "retry after catch-up gets a real vote");
                assert!(!syncing);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.stats().dedup_hits, 0);
    }

    #[test]
    fn restart_replays_wal_then_delta_syncs_only_missing_writes() {
        use crate::wal::MemLog;
        let mut s = server();
        s.set_sync_config(sync_cfg(0, 4));
        s.set_persistence(Box::new(MemLog::new()));
        commit_obj(&mut s, txn(1), 1, OBJ, 1, 42);
        commit_obj(&mut s, txn(2), 3, OBJ2, 1, 7);

        s.recover_from_restart();
        assert!(s.is_syncing(), "still needs the delta from peers");
        assert_eq!(s.stats().restart_replays, 1);
        assert_eq!(s.stats().amnesia_wipes, 0);
        // 2 grants + 2 commits came back from the log…
        assert_eq!(s.stats().wal_records_replayed, 4);
        // …and rebuilt the store without touching the network.
        assert_eq!(s.store_mut().version(OBJ), 1);
        assert_eq!(s.store_mut().version(OBJ2), 1);

        // A client retrying a pre-crash phase-2 hits the rebuilt dedup
        // cache instead of re-executing (or being refused while syncing).
        match s
            .handle(
                Msg::CommitReq {
                    txn: txn(1),
                    req: 2,
                    writes: vec![(OBJ, 1, val(42))],
                },
                Instant::now(),
            )
            .unwrap()
        {
            Msg::CommitAck { req } => assert_eq!(req, 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.stats().dedup_hits, 1);

        // The probe advertises what the replica already has…
        let (peers, probe) = s.sync_probe().expect("restarting server probes");
        assert_eq!(peers, vec![NodeId(1), NodeId(2), NodeId(3)]);
        let (inc, mut known) = match probe {
            Msg::SyncDeltaReq {
                incarnation, known, ..
            } => (incarnation, known),
            other => panic!("expected delta probe, got {other:?}"),
        };
        known.sort();
        assert_eq!(known, vec![(OBJ, 1), (OBJ2, 1)]);

        // …so peers ship only the missed write; its cost is counted.
        let delta = vec![(OBJ2, 3u64, val(9))];
        for rank in [1u32, 2] {
            s.handle_from(
                NodeId(rank),
                Msg::SyncResp {
                    req: 1,
                    incarnation: inc,
                    entries: delta.clone(),
                },
                Instant::now(),
            );
        }
        assert!(!s.is_syncing(), "two peers cover a read quorum");
        assert_eq!(s.stats().delta_objects_fetched, 2, "one entry per peer");
        assert_eq!(s.store_mut().version(OBJ2), 3);
        assert_eq!(s.stats().syncs_completed, 1);
    }

    #[test]
    fn delta_sync_request_serves_only_newer_versions() {
        let mut s = server();
        s.set_sync_config(sync_cfg(1, 4));
        commit_obj(&mut s, txn(1), 1, OBJ, 2, 20);
        commit_obj(&mut s, txn(2), 3, OBJ2, 5, 50);
        match s
            .handle(
                Msg::SyncDeltaReq {
                    req: 6,
                    incarnation: 3,
                    known: vec![(OBJ, 2), (OBJ2, 1)],
                },
                Instant::now(),
            )
            .unwrap()
        {
            Msg::SyncResp {
                req,
                incarnation,
                entries,
            } => {
                assert_eq!((req, incarnation), (6, 3), "echoed for correlation");
                // OBJ is already current on the requester; only OBJ2 moved.
                assert_eq!(entries, vec![(OBJ2, 5, val(50))]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.stats().syncs_served, 1);
        // A syncing peer must not seed anyone, delta or not.
        s.wipe_for_amnesia();
        assert!(s
            .handle(
                Msg::SyncDeltaReq {
                    req: 7,
                    incarnation: 4,
                    known: vec![],
                },
                Instant::now()
            )
            .is_none());
        assert_eq!(s.stats().syncs_served, 1);
    }

    #[test]
    fn amnesia_resets_the_wal_so_restart_replays_nothing() {
        use crate::wal::MemLog;
        let mut s = server();
        s.set_sync_config(sync_cfg(0, 4));
        s.set_persistence(Box::new(MemLog::new()));
        commit_obj(&mut s, txn(1), 1, OBJ, 1, 42);
        s.wipe_for_amnesia();
        // If a restart lands after the disk was wiped, the replay must
        // find only the amnesia incarnation bump — no resurrected state.
        s.recover_from_restart();
        assert_eq!(s.stats().wal_records_replayed, 1, "just the bump");
        assert_eq!(s.store_mut().version(OBJ), 0);
        // And the incarnation keeps moving strictly forward through both
        // faults, so pre-amnesia sync responses stay refusable.
        let (_, probe) = s.sync_probe().unwrap();
        match probe {
            Msg::SyncDeltaReq { incarnation, .. } => assert_eq!(incarnation, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stale_sync_resp_from_earlier_incarnation_is_ignored() {
        let mut s = server();
        s.set_sync_config(sync_cfg(0, 4));
        s.wipe_for_amnesia(); // incarnation 1
        s.wipe_for_amnesia(); // incarnation 2: the one that counts
        let (_, probe) = s.sync_probe().unwrap();
        let inc = match probe {
            Msg::SyncReq { incarnation, .. } => incarnation,
            other => panic!("{other:?}"),
        };
        for rank in 1..=3u32 {
            s.handle_from(
                NodeId(rank),
                Msg::SyncResp {
                    req: 1,
                    incarnation: inc - 1, // answers the *first* recovery
                    entries: vec![(OBJ, 9, val(9))],
                },
                Instant::now(),
            );
        }
        assert!(s.is_syncing(), "stale responses must not complete sync");
        assert_eq!(s.store_mut().version(OBJ), 0, "stale entries not applied");
        for rank in 1..=3u32 {
            s.handle_from(
                NodeId(rank),
                Msg::SyncResp {
                    req: 2,
                    incarnation: inc,
                    entries: vec![(OBJ, 9, val(9))],
                },
                Instant::now(),
            );
        }
        assert!(!s.is_syncing());
        assert_eq!(s.store_mut().version(OBJ), 9);
    }

    #[test]
    fn syncing_peer_serves_no_inventory() {
        let mut s = server();
        s.set_sync_config(sync_cfg(1, 4));
        commit_obj(&mut s, txn(1), 1, OBJ, 1, 5);
        // Healthy: serves its inventory.
        match s
            .handle(
                Msg::SyncReq {
                    req: 3,
                    incarnation: 7,
                },
                Instant::now(),
            )
            .unwrap()
        {
            Msg::SyncResp {
                req,
                incarnation,
                entries,
            } => {
                assert_eq!((req, incarnation), (3, 7), "echoed for correlation");
                assert_eq!(entries, vec![(OBJ, 1, val(5))]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.stats().syncs_served, 1);
        // Amnesiac: must not seed another replica with wiped state.
        s.wipe_for_amnesia();
        assert!(s
            .handle(
                Msg::SyncReq {
                    req: 4,
                    incarnation: 8
                },
                Instant::now()
            )
            .is_none());
        assert_eq!(s.stats().syncs_served, 1);
    }

    #[test]
    fn repair_write_applies_forward_only_without_reply() {
        let mut s = server();
        commit_obj(&mut s, txn(1), 1, OBJ, 5, 50);
        let reply = s.handle(
            Msg::RepairWrite {
                req: 1,
                writes: vec![(OBJ, 3, val(30)), (OBJ2, 7, val(70))],
            },
            Instant::now(),
        );
        assert!(reply.is_none(), "repair writes are fire-and-forget");
        assert_eq!(s.store_mut().version(OBJ), 5, "stale repair ignored");
        assert_eq!(s.store_mut().version(OBJ2), 7, "fresh repair applied");
        assert_eq!(s.stats().repair_writes_received, 1);
        assert_eq!(s.stats().repair_writes_applied, 1, "only the effective one");
        // A repair on a protected object must not touch the lock.
        s.handle(
            Msg::PrepareReq {
                txn: txn(9),
                req: 9,
                validate: vec![],
                writes: vec![(OBJ, 5)],
            },
            Instant::now(),
        );
        s.handle(
            Msg::RepairWrite {
                req: 2,
                writes: vec![(OBJ, 4, val(4))],
            },
            Instant::now(),
        );
        assert_eq!(s.store_mut().lock_holder(OBJ), Some(txn(9)));
        assert_eq!(s.store_mut().version(OBJ), 5);
    }

    #[test]
    fn lazy_sweep_fires_from_the_message_path() {
        // Regression: a server sitting in a long idle gap must reclaim
        // expired prepares when the *next message* arrives, not only when
        // its service loop's timer cadence happens to fire.
        let mut s = server();
        s.set_prepared_ttl(Duration::from_millis(10));
        let t0 = Instant::now();
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            t0,
        );
        assert_eq!(s.store_mut().lock_holder(OBJ), Some(txn(1)));
        // Long idle gap, then a conflicting prepare arrives. The lazy
        // sweep (cadence max(ttl/4, 100 ms)) must run first and release
        // the expired lock, so the new prepare succeeds immediately.
        match s
            .handle(
                Msg::PrepareReq {
                    txn: txn(2),
                    req: 2,
                    validate: vec![],
                    writes: vec![(OBJ, 0)],
                },
                t0 + Duration::from_millis(150),
            )
            .unwrap()
        {
            Msg::PrepareResp { vote, .. } => assert!(vote, "expired lock must not block"),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.stats().expired_prepares, 1);
    }

    #[test]
    fn wipe_loses_prepared_and_dedup_state() {
        let mut s = server();
        s.set_sync_config(sync_cfg(0, 4));
        let prepare = Msg::PrepareReq {
            txn: txn(1),
            req: 1,
            validate: vec![],
            writes: vec![(OBJ, 0)],
        };
        s.handle(prepare, Instant::now());
        commit_obj(&mut s, txn(2), 5, OBJ2, 1, 1);
        assert!(!s.prepared.is_empty());
        assert!(!s.completed.is_empty());
        s.wipe_for_amnesia();
        assert!(s.prepared.is_empty(), "prepared table wiped");
        assert!(s.completed.is_empty(), "dedup cache wiped");
        assert!(s.completed_order.is_empty());
        assert!(s.store_mut().is_empty(), "store wiped");
    }

    /// Test backend: fails chosen 1-based append calls and the first
    /// `failing_syncs` sync calls, delegating everything else (including
    /// load/replay) to a [`crate::wal::MemLog`].
    struct FlakyLog {
        inner: crate::wal::MemLog,
        appends_seen: u64,
        fail_appends: Vec<u64>,
        failing_syncs: u32,
    }

    impl FlakyLog {
        fn failing_appends(fail_appends: Vec<u64>) -> Self {
            FlakyLog {
                inner: crate::wal::MemLog::new(),
                appends_seen: 0,
                fail_appends,
                failing_syncs: 0,
            }
        }

        fn failing_syncs(failing_syncs: u32) -> Self {
            FlakyLog {
                inner: crate::wal::MemLog::new(),
                appends_seen: 0,
                fail_appends: vec![],
                failing_syncs,
            }
        }
    }

    impl Persistence for FlakyLog {
        fn append(&mut self, rec: &WalRecord) -> Result<(), crate::wal::WalError> {
            self.appends_seen += 1;
            if self.fail_appends.contains(&self.appends_seen) {
                return Err(crate::wal::WalError::Io);
            }
            self.inner.append(rec)
        }

        fn sync(&mut self) -> Result<(), crate::wal::WalError> {
            if self.failing_syncs > 0 {
                self.failing_syncs -= 1;
                return Err(crate::wal::WalError::Io);
            }
            self.inner.sync()
        }

        fn load(&mut self) -> crate::wal::LoadedLog {
            self.inner.load()
        }

        fn reset(&mut self) {
            self.inner.reset();
        }
    }

    #[test]
    fn failed_commit_append_is_retried_so_the_ack_waits_for_durability() {
        let mut s = server();
        // Append 1 is the prepare grant; append 2 — the commit decision —
        // fails once.
        s.set_persistence(Box::new(FlakyLog::failing_appends(vec![2])));
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            Instant::now(),
        );
        let ack = s
            .handle(
                Msg::CommitReq {
                    txn: txn(1),
                    req: 2,
                    writes: vec![(OBJ, 1, val(42))],
                },
                Instant::now(),
            )
            .unwrap();
        // The quorum's decision still applies locally…
        assert!(matches!(ack, Msg::CommitAck { req: 2 }));
        assert_eq!(s.store_mut().version(OBJ), 1);
        // …but the record is queued for retry and the server is degraded:
        // the covering watermark sits past the queued record, so the
        // service loop would park the ack, not release it.
        assert_eq!(s.stats().wal_io_errors, 1);
        assert!(s.wal_failed);
        assert_eq!(s.wal_retry.len(), 1);
        assert_eq!(s.wal_appended + s.wal_retry.len() as u64, 2);
        assert!(s.wal_durable < 2, "commit record must not count durable");
        // The sync path re-appends the queue ahead of the sync: fully
        // durable, degraded mode over, nothing left queued.
        assert!(s.sync_wal());
        assert!(s.wal_retry.is_empty());
        assert_eq!((s.wal_appended, s.wal_durable), (2, 2));
        assert!(!s.wal_failed);
        // Proof the record physically landed: a restart replays it.
        s.recover_from_restart();
        assert_eq!(s.store_mut().version(OBJ), 1);
    }

    #[test]
    fn crash_before_append_retry_loses_record_and_queue_together() {
        let mut s = server();
        s.set_persistence(Box::new(FlakyLog::failing_appends(vec![2])));
        s.handle(
            Msg::PrepareReq {
                txn: txn(1),
                req: 1,
                validate: vec![],
                writes: vec![(OBJ, 0)],
            },
            Instant::now(),
        );
        s.handle(
            Msg::CommitReq {
                txn: txn(1),
                req: 2,
                writes: vec![(OBJ, 1, val(42))],
            },
            Instant::now(),
        );
        assert_eq!(s.store_mut().version(OBJ), 1, "decision applied pre-crash");
        // Crash before the retry lands: the record never reached the log
        // and the retry queue was memory-only — both are gone, exactly
        // like the ack the service loop had parked (and drops on the
        // crash epoch). Losing an *unacked* commit is the contract.
        s.recover_from_restart();
        assert!(s.wal_retry.is_empty(), "retry queue dies with the process");
        assert_eq!(s.store_mut().version(OBJ), 0, "unacked commit lost");
        assert!(
            s.prepared.contains_key(&txn(1)),
            "the synced grant replays as still-prepared; the TTL sweep reclaims it"
        );
    }

    #[test]
    fn degraded_mode_backs_off_instead_of_hot_spinning() {
        let mut s = server();
        s.set_persistence(Box::new(FlakyLog::failing_syncs(2)));
        commit_obj(&mut s, txn(1), 1, OBJ, 1, 42);
        assert!(!s.sync_wal());
        assert_eq!(s.wal_backoff, WAL_RETRY_BACKOFF_MIN);
        // The deadline honours the backoff instead of reading "due now":
        // that gap is what keeps the service loop off a 100% CPU spin
        // while the backend stays broken.
        let now = Instant::now();
        assert_eq!(s.wal_sync_deadline(now, true), s.wal_retry_after);
        assert!(s.wal_retry_after.is_some());
        assert!(!s.sync_wal());
        assert_eq!(s.wal_backoff, WAL_RETRY_BACKOFF_MIN * 2, "doubles");
        assert!(s.sync_wal(), "third attempt heals");
        assert!(!s.wal_failed);
        assert_eq!(s.wal_backoff, Duration::ZERO, "healthy resets backoff");
        assert_eq!(
            s.wal_sync_deadline(Instant::now(), false),
            None,
            "clean log schedules nothing"
        );
    }

    #[test]
    fn read_only_prepare_validates_without_locking() {
        let mut s = server();
        match s
            .handle(
                Msg::PrepareReq {
                    txn: txn(1),
                    req: 1,
                    validate: vec![(OBJ, 0)],
                    writes: vec![],
                },
                Instant::now(),
            )
            .unwrap()
        {
            Msg::PrepareResp { vote, .. } => assert!(vote),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.store_mut().lock_holder(OBJ), None);
    }
}
