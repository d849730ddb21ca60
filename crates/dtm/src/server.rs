//! The quorum server: a state machine and the one pump that drives it.
//!
//! [`Server`] is the whole protocol state machine — store, locks, dedup,
//! the durable log with its ack-after-durable gate, the TTL sweep, crash
//! handling and catch-up. It is driven through three entry points that
//! take the time as a parameter and touch no network:
//! [`Server::step`] (one message in, at most one reply out),
//! [`Server::tick`] (everything that happens because time passed) and
//! [`Server::observe_faults`] (what the fault table says about this host).
//!
//! [`Server::drain`] is the only method here that owns an [`Endpoint`] or
//! reads the clock (`Instant::now()`): it receives, steps, ticks and
//! sends, and decides nothing. A server has no thread of its own: [`run`],
//! the runner the network calls on whichever thread delivers — a sender's,
//! the timer's, a fault injector's — drains it under its lock. A server
//! whose log syncs to a file also has [`sync_loop`], one thread that
//! takes every sync, since an fsync blocks.

use crate::contention::{ContentionWindow, WindowConfig};
use crate::messages::{BatchRead, Msg, ReqId, TxnId, ValidateEntry, Version};
use crate::store::{Store, StoreDigest};
use crate::wal::{replay, DurabilityMode, DurableLog, MemLog, Persistence, WalRecord};
use acn_obs::{RawSpan, SpanCollector, SpanKind, TraceCtx, FLAG_ROLLED_BACK};
use acn_quorum::LevelQuorums;
use acn_simnet::{Endpoint, NodeId};
use acn_txir::{IdMap, IdSet, ObjectId, ObjectVal};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, SyncSender};
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
    /// Recoveries from a crash that lost the disk too (crash-with-amnesia:
    /// nothing survived, catch-up fetches everything).
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
    /// Recoveries from a crash the durable log survived (WAL replayed,
    /// delta fetched).
    pub restart_replays: u64,
    /// WAL records applied across all recovery replays.
    pub wal_records_replayed: u64,
    /// Torn/corrupt log tails detected by checksum and truncated.
    pub torn_tails_truncated: u64,
    /// Entries peers shipped to this replica while it was recovering —
    /// the work a recovery cost. After a restart replay it must scale with
    /// the outage, not with the store; after a disk loss it is the store.
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

impl ServerStats {
    /// Every counter by field name, in declaration order: what an exporter
    /// walks (and sums over replicas) instead of naming the fields again.
    pub const COUNTERS: &'static [acn_obs::Getter<ServerStats>] = {
        macro_rules! by_name {
            ($($f:ident),*) => { &[$((stringify!($f), |s| s.$f)),*] };
        }
        by_name![
            reads,
            prepares,
            prepare_rejects,
            commits,
            aborts,
            contention_queries,
            expired_prepares,
            dedup_hits,
            amnesia_wipes,
            sync_vote_refusals,
            sync_read_refusals,
            sync_objects_received,
            syncs_served,
            syncs_completed,
            repair_writes_received,
            repair_writes_applied,
            restart_replays,
            wal_records_replayed,
            torn_tails_truncated,
            delta_objects_fetched,
            wal_io_errors,
            wal_vote_refusals,
            wal_sync_batches,
            wal_records_synced
        ]
    };
}

/// Cluster-awareness a server needs to run the catch-up protocol after a
/// crash (restart or amnesia): which peers exist and what counts as a read
/// quorum among those that answered. Servers without one (standalone
/// unit-test servers) skip catch-up and serve what their log rebuilt.
#[derive(Clone)]
pub struct SyncConfig {
    /// The cluster's quorum structure (shared with clients).
    pub quorums: LevelQuorums,
    /// This server's own rank (excluded from its sync quorum: a replica's
    /// pre-crash quorum participation is void once it may have lost state).
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

/// One quorum node: a full replica of every object plus commit-lock,
/// durability and contention bookkeeping. The server is sequential — one
/// lock serialises every caller of [`Server::drain`], which processes
/// messages in arrival order, so each request is handled atomically with
/// respect to the others (the concurrency in the system is *between*
/// nodes, as in the paper's deployment).
pub struct Server {
    store: Store,
    contention: ContentionWindow,
    /// Objects locked at prepare per transaction, so abort/commit releases
    /// exactly what was acquired.
    prepared: IdMap<TxnId, PreparedTxn>,
    /// How long a prepared transaction may sit without a phase-2 message
    /// before its entry and locks are reclaimed.
    prepared_ttl: Duration,
    /// Replies already sent for 2PC requests, keyed by (txn, req): a
    /// retried or chaos-duplicated Prepare/Commit/Abort is answered from
    /// here instead of re-executing. This is what makes the client's
    /// same-request-id retry loop genuinely idempotent — without it, a
    /// delayed duplicate PrepareReq arriving *after* the commit would
    /// re-lock the write-set and strand the locks until the TTL sweep.
    completed: IdMap<(TxnId, ReqId), Msg>,
    /// Insertion order of `completed`, for FIFO eviction.
    completed_order: VecDeque<(TxnId, ReqId)>,
    stats: ServerStats,
    /// Window shape, kept to rebuild the contention window after a crash.
    window: WindowConfig,
    /// Cluster-awareness for catch-up sync (`None` = standalone server).
    sync: Option<SyncConfig>,
    /// True from a crash recovery until peer responses covering a read
    /// quorum have been absorbed. While set, reads and prepare votes are
    /// refused; phase-2 commits/aborts (decisions already made) and
    /// repair writes are still applied.
    syncing: bool,
    /// Recovery incarnation, bumped on every recovery. Stale [`Msg::SyncResp`]s
    /// from a previous recovery attempt are discarded by it.
    incarnation: u64,
    /// Peer ranks that answered the current incarnation's [`Msg::SyncReq`].
    sync_responders: IdSet<usize>,
    /// Correlation ids for server-originated requests (SyncReq).
    server_req: ReqId,
    /// Last amnesia epoch acted upon (vs. the endpoint's fault table).
    amnesia_seen: u64,
    /// Last crash-restart epoch acted upon (vs. the endpoint's fault
    /// table). A restart keeps the WAL; an amnesia crash loses it too.
    restart_seen: u64,
    /// True while the fault table says this host is down. A crashed host
    /// emits nothing, so the catch-up probe waits until it is reachable.
    down: bool,
    /// Durable decision log and the ack-after-durable gate in front of it
    /// (a [`MemLog`] until [`Server::set_persistence`] installs another).
    log: DurableLog,
    /// Earliest time of the next TTL sweep, run by whichever of a message
    /// ([`Server::handle`]) and a tick gets there first. `None` = due at
    /// once.
    next_sweep: Option<Instant>,
    /// Earliest time of the next catch-up probe. `None` = due at once.
    next_probe: Option<Instant>,
    /// Sink for server-side spans (inbox dwell, handling, sync refusals,
    /// WAL syncs and parks), parented by the trace context a
    /// [`Msg::Traced`] request carries. `None` (the default) disables span
    /// recording entirely; spans never touch [`ServerStats`].
    spans: Option<Arc<SpanCollector>>,
    /// Spans a tick opened — a WAL sync and the acks it released — as
    /// `(parent, kind, start)`. They end when the blocking sync returned,
    /// which only the pump's clock can say: [`Server::drain`] stamps and
    /// records them right after the tick. Empty unless `spans` is set.
    open_spans: Vec<(Option<TraceCtx>, SpanKind, Instant)>,
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

/// How often a syncing replica re-broadcasts its catch-up probe.
const PROBE_EVERY: Duration = Duration::from_millis(40);

impl Server {
    /// A fresh replica with an empty store and an in-memory log.
    pub fn new(window: WindowConfig) -> Self {
        Server {
            store: Store::new(),
            contention: ContentionWindow::new(window),
            prepared: IdMap::default(),
            prepared_ttl: DEFAULT_PREPARED_TTL,
            completed: IdMap::default(),
            completed_order: VecDeque::new(),
            stats: ServerStats::default(),
            window,
            sync: None,
            syncing: false,
            incarnation: 0,
            sync_responders: IdSet::default(),
            server_req: 0,
            amnesia_seen: 0,
            restart_seen: 0,
            down: false,
            log: DurableLog::new(Box::new(MemLog::new())),
            next_sweep: None,
            next_probe: None,
            spans: None,
            open_spans: Vec::new(),
        }
    }

    /// Install the durable decision log's backend. Appends happen at the
    /// 2PC decision points (prepare grant, commit apply, abort, incarnation
    /// bump); recovery from a crash replays what survived of it.
    pub fn set_persistence(&mut self, wal: Box<dyn Persistence>) {
        self.log.backend = wal;
    }

    /// Choose when 2PC acks are released relative to the log. With
    /// `EveryRecord` (the default) and `GroupCommit`, [`Server::step`]
    /// withholds `PrepareResp`/`CommitAck`/`AbortAck` replies until a sync
    /// in [`Server::tick`] covers the records they depend on; `Buffered`
    /// acks immediately and never syncs (the pre-durability behaviour,
    /// kept for ablation).
    pub fn set_durability(&mut self, mode: DurabilityMode) {
        self.log.mode = mode;
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
    /// crash. Without it a recovered server serves whatever its log rebuilt
    /// — acceptable only for standalone unit-test servers.
    pub fn set_sync_config(&mut self, sync: SyncConfig) {
        self.sync = Some(sync);
    }

    /// Is this replica still catching up after a crash?
    pub fn is_syncing(&self) -> bool {
        self.syncing
    }

    /// Reclaim prepared entries older than the TTL, releasing their locks —
    /// so a client that crashed (or timed out) between prepare and phase 2
    /// cannot leave its write-set locked, and the `prepared` map growing,
    /// forever. Returns how many transactions were expired.
    fn sweep_expired(&mut self, now: Instant) -> usize {
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

    /// Run the TTL sweep on its cadence: a quarter TTL, at least 100 ms.
    fn sweep_if_due(&mut self, now: Instant) {
        if self.next_sweep.is_none_or(|at| now >= at) {
            self.sweep_expired(now);
            let every = (self.prepared_ttl / 4).max(Duration::from_millis(100));
            self.next_sweep = Some(now + every);
        }
    }

    /// Remember the reply sent for a 2PC request, evicting the oldest
    /// entry once the cache is full.
    fn remember_reply(&mut self, key: (TxnId, ReqId), reply: Msg) {
        if self.completed.len() >= DEDUP_CAPACITY {
            if let Some(old) = self.completed_order.pop_front() {
                self.completed.remove(&old);
            }
        }
        if self.completed.insert(key, reply).is_none() {
            self.completed_order.push_back(key);
        }
    }

    /// Counters so far, with the log's counters, the store digest and the
    /// object-version inventory filled in at call time.
    pub fn stats(&self) -> ServerStats {
        let mut s = self.stats.clone();
        s.wal_io_errors = self.log.io_errors;
        s.wal_sync_batches = self.log.sync_batches;
        s.wal_records_synced = self.log.records_synced;
        s.digest = self.store.digest();
        s.inventory = self.store.known_versions();
        s.inventory.sort_unstable();
        s
    }

    /// Direct store access for tests and cluster seeding.
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Fold in what the fault table says about this host: crash epochs not
    /// yet acted on, and whether the host is currently down. Either epoch
    /// moving is one crash to recover from; if the amnesia epoch is among
    /// them the disk is gone too — also when both moved since the last
    /// call, which is what the combined fault means. Recovery happens at
    /// once, also while down, so no pre-crash state survives into it.
    pub fn observe_faults(
        &mut self,
        amnesia_epoch: u64,
        restart_epoch: u64,
        down: bool,
        now: Instant,
    ) {
        let disk_lost = amnesia_epoch > self.amnesia_seen;
        if disk_lost || restart_epoch > self.restart_seen {
            self.amnesia_seen = amnesia_epoch;
            self.restart_seen = restart_epoch;
            self.recover(disk_lost, now);
        }
        self.down = down;
    }

    /// The process died, and with `disk_lost` its log went too. Volatile
    /// state (store, prepared table, dedup cache, contention window, parked
    /// acks, the catch-up round in progress) is dropped and rebuilt by
    /// deterministically replaying whatever the log still holds — torn
    /// tail truncated, `(txn, req)`-idempotent apply, replies reconstructed
    /// so post-restart client retries hit the dedup cache; an emptied log
    /// rebuilds an empty replica. The next incarnation is adopted and
    /// logged, and (when peers are known) catch-up begins: reads and
    /// prepare votes are refused until peers covering a read quorum have
    /// shipped what this replica is missing — everything after a disk
    /// loss, only the writes committed during the outage otherwise.
    /// Without peers there is nobody to catch up from; serving what it has
    /// is all a standalone server can do.
    fn recover(&mut self, disk_lost: bool, now: Instant) {
        self.prepared.clear();
        self.completed.clear();
        self.completed_order.clear();
        self.contention = ContentionWindow::new(self.window);
        self.sync_responders.clear();
        if disk_lost {
            self.stats.amnesia_wipes += 1;
        } else {
            self.stats.restart_replays += 1;
        }
        // The load drops whatever the backend lost (e.g. a fault-injected
        // unsynced suffix); the surviving prefix is durable by definition.
        let loaded = self.log.restart(disk_lost);
        self.stats.torn_tails_truncated += loaded.torn_tails_truncated;
        let st = replay(loaded.records);
        self.stats.wal_records_replayed += st.records;
        self.store = st.store;
        for (txn, objs) in st.prepared {
            // The prepare's age did not survive the crash; re-arming
            // the TTL from now is the conservative choice (locks are
            // held at most one extra TTL, never released early).
            self.prepared.insert(txn, PreparedTxn { objs, at: now });
        }
        for (key, reply) in st.replies {
            self.remember_reply(key, reply);
        }
        self.incarnation = self.incarnation.max(st.incarnation) + 1;
        let incarnation = self.incarnation;
        self.log
            .append(&WalRecord::IncarnationBump { incarnation }, now);
        self.syncing = self.sync.is_some();
    }

    /// (Re)broadcast the catch-up probe onto `out`, one copy per peer: a
    /// [`Msg::SyncReq`] carrying what the replica holds right now — the
    /// replayed log plus whatever earlier responses already brought — so
    /// peers ship only the remainder. A fresh correlation id per round is
    /// harmless: responses are matched by incarnation, not request id.
    fn probe(&mut self, out: &mut Vec<(NodeId, Msg)>) {
        let Some(sync) = &self.sync else { return };
        self.server_req += 1;
        let probe = Msg::SyncReq {
            req: self.server_req,
            incarnation: self.incarnation,
            known: self.store.known_versions(),
        };
        let peers = (0..sync.servers).filter(|&r| r != sync.rank);
        out.extend(peers.map(|r| (NodeId(r as u32), probe.clone())));
    }

    /// Absorb one peer's [`Msg::SyncResp`]. Catch-up completes — and the
    /// replica resumes voting and serving reads — once the set of
    /// responders covers a full read quorum *excluding this server*: any
    /// read quorum intersects every write quorum in at least one member,
    /// and since none of the responders is this (recovering) server, the
    /// max-version union over them dominates every write committed before
    /// the snapshots. Writes concurrent with catch-up either include this
    /// replica in their write quorum (refused → the client aborts and
    /// retries) or avoid it entirely, in which case missing them here is
    /// ordinary replica staleness that quorum reads already mask.
    fn absorb_sync_resp(
        &mut self,
        src: NodeId,
        incarnation: u64,
        entries: Vec<(ObjectId, Version, ObjectVal)>,
    ) {
        if !self.syncing || incarnation != self.incarnation {
            return; // stale response to an earlier recovery attempt
        }
        // Every entry a peer shipped is work the recovery cost; after a
        // restart the regression tests pin it to the outage size.
        self.stats.delta_objects_fetched += entries.len() as u64;
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
            self.stats.syncs_completed += 1;
        }
    }

    /// One message in, at most one reply out — what the service loop does
    /// with everything it receives. Strips the trace envelope, absorbs
    /// peer-to-peer sync responses (which update recovery state instead of
    /// producing a reply), [`Server::handle`]s the rest and passes the
    /// reply through the ack-after-durable gate. `Some` = send it to `src`
    /// now; `None` = there is no reply, or it certifies a decision the log
    /// has not made durable yet and is parked until the [`Server::tick`]
    /// whose sync covers it.
    pub fn step(&mut self, src: NodeId, msg: Msg, now: Instant) -> Option<Msg> {
        let (ctx, msg) = match msg {
            Msg::Traced { ctx, inner } => (Some(ctx), *inner),
            other => (None, other),
        };
        if let Msg::SyncResp {
            incarnation,
            entries,
            ..
        } = msg
        {
            self.absorb_sync_resp(src, incarnation, entries);
            return None;
        }
        let reply = self.handle(msg, now)?;
        self.log.gate(src, reply, ctx, now)
    }

    /// Everything that happens because time passed, in the order the
    /// service loop needs it: sync the log if its mode says one is due and
    /// release — oldest first — the parked acks the sync covered; run the
    /// TTL sweep on its cadence; re-broadcast the catch-up probe on its
    /// cadence while syncing and reachable. Messages to send are pushed
    /// onto `out` as `(destination, message)`. Returns when to tick next
    /// at the latest (earlier is always fine).
    pub fn tick(&mut self, now: Instant, out: &mut Vec<(NodeId, Msg)>) -> Option<Instant> {
        if self.log.deadline(now).is_some_and(|due| due <= now) {
            // The fsync itself is server-local work with no client parent
            // — a root-level span so flight-recorder dumps show when the
            // disk was busy.
            if self.spans.is_some() {
                self.open_spans.push((None, SpanKind::WalSync, now));
            }
            self.log.sync(now);
        }
        self.release(out);
        self.sweep_if_due(now);
        let probing = self.syncing && !self.down;
        if probing && self.next_probe.is_none_or(|at| now >= at) {
            self.probe(out);
            self.next_probe = Some(now + PROBE_EVERY);
        }
        let probe_at = self.next_probe.filter(|_| probing);
        let log_at = self.log.deadline(now);
        log_at
            .into_iter()
            .chain(self.next_sweep)
            .chain(probe_at)
            .min()
    }

    /// Move every parked ack the durable watermark covers onto `out`, in
    /// park order.
    fn release(&mut self, out: &mut Vec<(NodeId, Msg)>) {
        while let Some(ack) = self.log.pop_covered() {
            if let (Some(_), Some((ctx, at))) = (&self.spans, ack.traced) {
                self.open_spans.push((Some(ctx), SpanKind::WalPark, at));
            }
            out.push((ack.dst, ack.reply));
        }
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
    /// Message arrival also drives the TTL sweep, lazily: a server whose
    /// driver sat blocked in a long receive would otherwise only reclaim
    /// expired prepares on the tick cadence, so an expired lock could
    /// outlive its TTL by a full idle gap and reject the very prepare that
    /// just arrived.
    ///
    /// This is what the reply *is*. Whether it may leave yet is the
    /// ack-after-durable gate's call, which [`Server::step`] adds.
    pub fn handle(&mut self, msg: Msg, now: Instant) -> Option<Msg> {
        // Unwrap a trace envelope defensively so direct calls (tests,
        // embedders) behave exactly like `step`, which strips the
        // envelope itself to keep the context.
        let msg = match msg {
            Msg::Traced { inner, .. } => *inner,
            other => other,
        };
        self.sweep_if_due(now);
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
        let refused = matches!(
            &reply,
            Some(Msg::PrepareResp { syncing, wal_refused, .. }) if *syncing || *wal_refused
        );
        if let (Some(key), Some(r), false) = (dedup_key, &reply, refused) {
            self.remember_reply(key, r.clone());
        }
        reply
    }

    /// [`Server::handle`] past the dedup cache: executes the request.
    ///
    /// Two states refuse work up front. *Catching up*: a recovering store
    /// reads every object it is missing at a stale version (0 after a disk
    /// loss), so serving reads would hand out phantom-fresh copies and
    /// voting yes would silently pass validation against lost state —
    /// reads and prepares are refused. *Degraded*:
    /// the log cannot currently make anything durable, so a grant would
    /// hand out a lock whose record is unloggable — prepares are refused,
    /// with back-pressure the client attributes separately. Phase-2
    /// messages are processed in both: the commit/abort decision was
    /// already made by a quorum, and `Store::apply` only moves versions
    /// forward.
    fn handle_fresh(&mut self, msg: Msg, now: Instant) -> Option<Msg> {
        // A no-vote that blames no object: the client retries elsewhere.
        let refusal = |req, syncing| Msg::PrepareResp {
            req,
            vote: false,
            invalid: vec![],
            locked: None,
            syncing,
            wal_refused: !syncing,
        };
        match msg {
            Msg::ReadBatchReq { req, .. } if self.syncing => {
                self.stats.sync_read_refusals += 1;
                Some(Msg::Syncing { req })
            }
            Msg::PrepareReq { req, .. } if self.syncing => {
                self.stats.sync_vote_refusals += 1;
                Some(refusal(req, true))
            }
            Msg::PrepareReq { req, .. } if self.log.degraded() => {
                self.stats.wal_vote_refusals += 1;
                Some(refusal(req, false))
            }
            Msg::ReadBatchReq {
                txn,
                req,
                objs,
                validate,
                sample,
            } => {
                // The server steps one message at a time, so the whole
                // batch is served against one atomic snapshot of the store.
                // Incremental validation runs regardless of lock state: a
                // stale read-set is worth reporting even when a requested
                // object is protected.
                self.stats.reads += objs.len() as u64;
                let invalid = self.stale(&validate);
                let reads = objs
                    .iter()
                    .map(|&obj| {
                        let (version, value, lock) = self.store.read(obj);
                        BatchRead {
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
                    invalid = self.stale(&validate);
                    vote = invalid.is_empty();
                    for &o in &invalid {
                        self.contention.record_abort(o, now);
                    }
                }
                if vote {
                    // Read-only prepares (no writes) hold no locks and need
                    // no phase 2, so nothing is recorded for them.
                    if !locked.is_empty() {
                        // The grant record takes the locked set for the
                        // append and gives it back for the prepared table.
                        let grant = WalRecord::PrepareGrant {
                            txn,
                            req,
                            objs: locked,
                        };
                        let staged = self.log.append(&grant, now);
                        let WalRecord::PrepareGrant { objs, .. } = grant else {
                            unreachable!("built as a grant above")
                        };
                        if !staged {
                            // The grant could not even be staged: undo the
                            // locks and refuse with storage back-pressure.
                            for obj in objs {
                                self.store.unlock(obj, txn);
                            }
                            self.stats.wal_vote_refusals += 1;
                            return Some(refusal(req, false));
                        }
                        self.prepared.insert(txn, PreparedTxn { objs, at: now });
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
                // and the server degrades to refusing *new* prepares. The
                // record moves the request's writes in and the log hands
                // them back to apply.
                let rec = WalRecord::CommitApply { txn, req, writes };
                let WalRecord::CommitApply { writes, .. } = self.log.append_decision(rec, now)
                else {
                    unreachable!("the log returns the record it was given")
                };
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
                self.log.append_decision(rec, now);
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
            Msg::SyncReq {
                req,
                incarnation,
                known,
            } => self.serve_sync(req, incarnation, &known),
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
            // Responses should never arrive at a server.
            other => {
                debug_assert!(false, "server received non-request {other:?}");
                None
            }
        }
    }

    /// The presented read-set entries this replica holds a newer version of.
    fn stale(&self, validate: &[ValidateEntry]) -> Vec<ObjectId> {
        let newer = validate.iter().filter(|&&(o, v)| self.store.version(o) > v);
        newer.map(|&(o, _)| o).collect()
    }

    /// Answer a recovering peer's probe with what it is missing: the
    /// objects it has never seen or holds at an older version than this
    /// replica ([`Store::newer_than`] its `known`). A replica that is
    /// itself catching up must not seed another: its incomplete store
    /// would launder stale state into the requester's "covered" quorum. It
    /// stays silent and lets the requester's re-broadcast find healthy
    /// peers.
    fn serve_sync(
        &mut self,
        req: ReqId,
        incarnation: u64,
        known: &[(ObjectId, Version)],
    ) -> Option<Msg> {
        if self.syncing {
            return None;
        }
        self.stats.syncs_served += 1;
        Some(Msg::SyncResp {
            req,
            incarnation,
            entries: self.store.newer_than(known),
        })
    }

    /// Record one server-side span. `ctx: None` makes it a server-local
    /// root; a refusal reads as rolled back — the client retries elsewhere.
    fn span(&self, node: u32, ctx: Option<TraceCtx>, kind: SpanKind, start: Instant, end: Instant) {
        if let Some(spans) = &self.spans {
            spans.record(RawSpan {
                parent: ctx.map_or(0, |c| c.span),
                trace: ctx.map_or(0, |c| c.trace),
                kind,
                node,
                start,
                end,
                flags: if kind == SpanKind::SyncRefusal {
                    FLAG_ROLLED_BACK
                } else {
                    0
                },
            });
        }
    }

    /// End the spans a tick opened: `end` is when the driver saw the sync
    /// they waited on return.
    fn close_spans(&mut self, node: u32, end: Instant) {
        for (ctx, kind, start) in std::mem::take(&mut self.open_spans) {
            self.span(node, ctx, kind, start, end);
        }
    }

    /// Send what a tick produced at `now`, an instant read after any sync
    /// the tick ran. The spans it opened end there, now that the sync they
    /// waited on has returned.
    fn flush(&mut self, endpoint: &Endpoint<Msg>, out: &mut Vec<(NodeId, Msg)>, now: Instant) {
        if !self.open_spans.is_empty() {
            self.close_spans(endpoint.id().0, now);
        }
        out.drain(..)
            .for_each(|(dst, msg)| send(endpoint, dst, msg, now));
    }

    /// The pump: feed the fault table, the clock and every ready message
    /// of `endpoint` through the state machine, sending what comes out,
    /// until a pass finds no message to step. Returns when to drain again
    /// at the latest.
    ///
    /// Each pass keeps one order: report the fault table
    /// ([`Server::observe_faults`]), tick and send what the tick released,
    /// then step up to a batch of ready messages, sending each ungated
    /// reply before the next one is received. The pass after the last
    /// message ticks again, so a sync the batch made due happens before
    /// the pump returns. A pass reads the clock once — twice if its tick
    /// synced the log, since the sync took time: its instant is the one
    /// the fault report, the tick and every step see, and the one its
    /// replies are sent at. A message's [`acn_simnet::RecvMeta`] is only
    /// stamped while a span collector is installed.
    ///
    /// Callers hold the server's lock around it. `may_sync` is `false`
    /// where a sync would block a thread that has better things to do:
    /// the runner of a server whose log syncs to a file (`run`). While a
    /// sync is owed this pump then skips the tick — it would sync — and
    /// keeps stepping, leaving every record it appends to the one sync the
    /// server's sync thread (`sync_loop`) runs next; it returns that
    /// deadline, already due, for the caller to hand over.
    pub fn drain(&mut self, endpoint: &Endpoint<Msg>, may_sync: bool) -> Option<Instant> {
        let node = endpoint.id().0;
        let mut out = Vec::new();
        loop {
            let mut now = Instant::now();
            self.observe_faults(
                endpoint.amnesia_epoch(),
                endpoint.restart_epoch(),
                endpoint.is_failed(),
                now,
            );
            let sync_due = self.log.deadline(now).filter(|&due| due <= now);
            let deadline = if sync_due.is_some() && !may_sync {
                sync_due
            } else {
                let deadline = self.tick(now, &mut out);
                if sync_due.is_some() {
                    now = Instant::now();
                }
                self.flush(endpoint, &mut out, now);
                deadline
            };
            let mut stepped = 0;
            while stepped < self.log.batch() {
                let received = if self.spans.is_some() {
                    endpoint
                        .try_recv_meta()
                        .map(|(src, msg, meta)| (src, msg, Some(meta)))
                } else {
                    endpoint.try_recv().map(|(src, msg)| (src, msg, None))
                };
                let Some((src, msg, meta)) = received else {
                    break;
                };
                stepped += 1;
                // Look through the trace envelope: `step` strips it, but
                // its context parents the spans below.
                let ctx = match &msg {
                    Msg::Traced { ctx, .. } => Some(*ctx),
                    _ => None,
                };
                let reply = self.step(src, msg, now);
                if let (Some(ctx), Some(meta)) = (ctx, meta) {
                    let done = Instant::now();
                    // Inbox dwell: matured on the wire at `deliver_at`,
                    // picked up by whichever thread drained the inbox at
                    // `received_at` — the server-queue segment.
                    let queue = SpanKind::ServerQueue;
                    self.span(node, Some(ctx), queue, meta.deliver_at, meta.received_at);
                    let handle = SpanKind::ServerHandle;
                    self.span(node, Some(ctx), handle, meta.received_at, done);
                    if matches!(
                        &reply,
                        Some(Msg::Syncing { .. }) | Some(Msg::PrepareResp { syncing: true, .. })
                    ) {
                        let refusal = SpanKind::SyncRefusal;
                        self.span(node, Some(ctx), refusal, meta.received_at, done);
                    }
                }
                if let Some(reply) = reply {
                    send(endpoint, src, reply, now);
                }
            }
            if stepped == 0 {
                return deadline;
            }
        }
    }
}

/// Send `msg` from the server at `now`, charged its wire size.
fn send(endpoint: &Endpoint<Msg>, dst: NodeId, msg: Msg, now: Instant) {
    let bytes = msg.wire_bytes();
    endpoint.send_sized_at(dst, msg, bytes, now);
}

/// Everything's delivery to a server — a message, a wake it asked for, a
/// fault change — on the delivering thread (the runner
/// [`crate::Cluster::start`] attaches per server): drain the server unless
/// another thread holds it, then ask for a wake at its next deadline. A
/// deadline already due on a server with a `syncer` is a sync owed: it
/// goes to the [`sync_loop`] instead, where one pending request covers
/// every later one. Whoever holds the lock drains what this call left,
/// because every holder looks at the inbox and the fault count again
/// after unlocking.
pub(crate) fn run(server: &Mutex<Server>, ep: &Endpoint<Msg>, syncer: Option<&SyncSender<()>>) {
    loop {
        let faults = ep.fault_changes();
        let Some(mut s) = server.try_lock() else {
            return;
        };
        let due = s.drain(ep, syncer.is_none());
        drop(s);
        match (due, syncer) {
            (Some(due), Some(owed)) if due <= Instant::now() => _ = owed.try_send(()),
            (Some(due), _) => ep.wake_at(due),
            (None, _) => {}
        }
        if !ep.has_mature() && ep.fault_changes() == faults {
            return;
        }
    }
}

/// A file-logged server's sync thread: each sync [`run`] hands over waits
/// out the lock's holder, then runs the server with syncs allowed. A
/// runner that takes the lock first finds the sync still owed and hands
/// it over again. Ends when the runner — the one sender — is dropped.
pub(crate) fn sync_loop(server: &Mutex<Server>, ep: &Endpoint<Msg>, owed: Receiver<()>) {
    while owed.recv().is_ok() {
        drop(server.lock());
        run(server, ep, None);
    }
}

/// A server's last call, once nothing delivers to it any more: one final
/// drain, then one more sync, so a cleanly shut-down log is durable even
/// under `GroupCommit`/`Buffered`, releasing every parked ack it covered
/// (acks whose records the backend persistently refuses to sync are
/// dropped with the server — exactly a never-sent ack), and the stats.
pub(crate) fn finish(server: &Mutex<Server>, ep: &Endpoint<Msg>) -> ServerStats {
    let mut s = server.lock();
    s.drain(ep, true);
    s.log.sync(Instant::now());
    let mut out = Vec::new();
    s.release(&mut out);
    s.flush(ep, &mut out, Instant::now());
    s.stats()
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

    /// A server whose log stages appends until a sync, as a file does —
    /// the fixture of the tests of the gate itself, which a `MemLog`
    /// (durable on append) never closes.
    fn staged_server() -> Server {
        let mut s = server();
        s.set_persistence(Box::new(FlakyLog::failing_appends(vec![])));
        s
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
    fn mutating_a_read_replys_value_leaves_the_store_unchanged() {
        let mut s = server();
        let t = txn(1);
        s.handle(
            Msg::CommitReq {
                txn: t,
                req: 2,
                writes: vec![(OBJ, 1, val(42))],
            },
            Instant::now(),
        );
        let Msg::ReadBatchResp { mut reads, .. } = read(&mut s, txn(2), OBJ, vec![]) else {
            panic!("not a read reply");
        };
        // The reply shares the store's fields; a write must copy them.
        reads[0].value.set(FieldId(0), Value::Int(-1));
        reads[0].value.set(FieldId(1), Value::Int(7));
        assert_eq!(s.store.read(OBJ).1, val(42));
        match read(&mut s, txn(3), OBJ, vec![]) {
            Msg::ReadBatchResp { reads, .. } => assert_eq!(reads[0].value, val(42)),
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

    /// The catch-up probe a syncing server broadcasts, and to whom.
    fn probe(s: &mut Server) -> (Vec<NodeId>, Msg) {
        let mut out = Vec::new();
        s.probe(&mut out);
        let probe = out[0].1.clone();
        (out.into_iter().map(|(peer, _)| peer).collect(), probe)
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
        s.recover(true, Instant::now());
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
        let (peers, probe) = probe(&mut s);
        assert_eq!(peers, vec![NodeId(1), NodeId(2), NodeId(3)]);
        let inc = match probe {
            Msg::SyncReq { incarnation, .. } => incarnation,
            other => panic!("{other:?}"),
        };

        // A healthy peer's inventory: OBJ at version 4. With 4 servers
        // (tree levels {0} and {1,2,3}) the recovering rank 0 needs a
        // majority of the deepest level — two peers — to finish.
        let entries = vec![(OBJ, 4u64, val(40))];
        s.step(
            NodeId(1),
            Msg::SyncResp {
                req: 1,
                incarnation: inc,
                entries: entries.clone(),
            },
            Instant::now(),
        );
        assert!(s.is_syncing(), "one responder is below a read quorum");
        s.step(
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
        s.recover(true, Instant::now());
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
        let (_, probe) = probe(&mut s);
        let inc = match probe {
            Msg::SyncReq { incarnation, .. } => incarnation,
            other => panic!("{other:?}"),
        };
        for rank in 1..=3u32 {
            s.step(
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
        let mut s = server();
        s.set_sync_config(sync_cfg(0, 4));
        commit_obj(&mut s, txn(1), 1, OBJ, 1, 42);
        commit_obj(&mut s, txn(2), 3, OBJ2, 1, 7);

        s.recover(false, Instant::now());
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
        let (peers, probe) = probe(&mut s);
        assert_eq!(peers, vec![NodeId(1), NodeId(2), NodeId(3)]);
        let (inc, mut known) = match probe {
            Msg::SyncReq {
                incarnation, known, ..
            } => (incarnation, known),
            other => panic!("expected a probe, got {other:?}"),
        };
        known.sort();
        assert_eq!(known, vec![(OBJ, 1), (OBJ2, 1)]);

        // …so peers ship only the missed write; its cost is counted.
        let delta = vec![(OBJ2, 3u64, val(9))];
        for rank in [1u32, 2] {
            s.step(
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
                Msg::SyncReq {
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
        s.recover(true, Instant::now());
        assert!(s
            .handle(
                Msg::SyncReq {
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
        let mut s = server();
        s.set_sync_config(sync_cfg(0, 4));
        commit_obj(&mut s, txn(1), 1, OBJ, 1, 42);
        s.recover(true, Instant::now());
        // If a restart lands after the disk was wiped, the replay must
        // find only the amnesia incarnation bump — no resurrected state.
        s.recover(false, Instant::now());
        assert_eq!(s.stats().wal_records_replayed, 1, "just the bump");
        assert_eq!(s.store_mut().version(OBJ), 0);
        // And the incarnation keeps moving strictly forward through both
        // faults, so pre-amnesia sync responses stay refusable.
        let (_, probe) = probe(&mut s);
        match probe {
            Msg::SyncReq { incarnation, .. } => assert_eq!(incarnation, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stale_sync_resp_from_earlier_incarnation_is_ignored() {
        let mut s = server();
        s.set_sync_config(sync_cfg(0, 4));
        s.recover(true, Instant::now()); // incarnation 1
        s.recover(true, Instant::now()); // incarnation 2: the one that counts
        let (_, probe) = probe(&mut s);
        let inc = match probe {
            Msg::SyncReq { incarnation, .. } => incarnation,
            other => panic!("{other:?}"),
        };
        for rank in 1..=3u32 {
            s.step(
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
            s.step(
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
    fn re_probe_after_a_disk_loss_ships_only_the_remainder() {
        let mut s = server();
        s.set_sync_config(sync_cfg(0, 4));
        commit_obj(&mut s, txn(1), 1, OBJ, 1, 42);
        s.recover(true, Instant::now());
        // Nothing survived, so the first probe asks for everything.
        let (_, first) = probe(&mut s);
        assert!(matches!(&first, Msg::SyncReq { known, .. } if known.is_empty()));

        // Peer 1 holds OBJ only; peer 2 holds OBJ and OBJ2.
        let mut one = server();
        one.set_sync_config(sync_cfg(1, 4));
        commit_obj(&mut one, txn(2), 1, OBJ, 4, 40);
        let mut two = server();
        two.set_sync_config(sync_cfg(2, 4));
        commit_obj(&mut two, txn(2), 1, OBJ, 4, 40);
        commit_obj(&mut two, txn(3), 3, OBJ2, 2, 20);

        // One answer is below a read quorum: the probe goes out again…
        let resp = one.handle(first, Instant::now()).unwrap();
        assert!(s.step(NodeId(1), resp, Instant::now()).is_none());
        assert!(s.is_syncing());
        let (_, second) = probe(&mut s);
        // …carrying exactly what was absorbed so far…
        match &second {
            Msg::SyncReq { known, .. } => assert_eq!(known, &vec![(OBJ, 4)]),
            other => panic!("{other:?}"),
        }
        // …so a peer serving it ships none of that again.
        let resp = two.handle(second, Instant::now()).unwrap();
        match &resp {
            Msg::SyncResp { entries, .. } => assert_eq!(entries, &vec![(OBJ2, 2, val(20))]),
            other => panic!("{other:?}"),
        }
        s.step(NodeId(2), resp, Instant::now());
        assert!(!s.is_syncing(), "two peers cover a read quorum");
        assert_eq!(s.stats().delta_objects_fetched, 2, "every shipped entry");
        assert_eq!(s.store_mut().version(OBJ), 4);
        assert_eq!(s.store_mut().version(OBJ2), 2);
    }

    /// Store order is a function of the messages a replica handled, not of
    /// per-process hash keys: two replicas fed one sequence answer one
    /// probe with the same entries in the same order.
    #[test]
    fn replicas_fed_one_sequence_answer_a_probe_identically() {
        const D: ObjClass = ObjClass::new(1, "D");
        let feed = |s: &mut Server| {
            for i in 0..300u64 {
                let obj = ObjectId::new(if i % 3 == 0 { C } else { D }, i * 7 + 1);
                commit_obj(s, txn(i), 2 * i + 1, obj, 1, i as i64);
            }
        };
        let probe = Msg::SyncReq {
            req: 1,
            incarnation: 1,
            known: vec![(ObjectId::new(D, 8), 1)],
        };
        let entries = |s: &mut Server| match s.handle(probe.clone(), Instant::now()) {
            Some(Msg::SyncResp { entries, .. }) => entries,
            other => panic!("{other:?}"),
        };
        let (mut a, mut b) = (server(), server());
        feed(&mut a);
        feed(&mut b);
        let (ea, eb) = (entries(&mut a), entries(&mut b));
        assert_eq!(ea.len(), 299, "everything but the one object it knows");
        assert_eq!(ea, eb);
    }

    #[test]
    fn both_epochs_advancing_is_one_recovery_from_a_lost_disk() {
        let mut s = server();
        s.set_sync_config(sync_cfg(0, 4));
        commit_obj(&mut s, txn(1), 1, OBJ, 1, 42);
        commit_obj(&mut s, txn(2), 3, OBJ2, 1, 7);
        s.observe_faults(1, 1, false, Instant::now());
        let stats = s.stats();
        assert_eq!((stats.amnesia_wipes, stats.restart_replays), (1, 0));
        assert_eq!(stats.wal_records_replayed, 0, "the log went with the disk");
        assert_eq!(stats.digest.total_objects(), 0, "nothing of the old store");
        assert!(s.prepared.is_empty() && s.completed.is_empty());
        assert!(s.is_syncing());
        assert_eq!(s.incarnation, 1, "one recovery, one incarnation");
        let log = s.log.backend.load().records;
        assert!(
            matches!(&log[..], [WalRecord::IncarnationBump { incarnation: 1 }]),
            "exactly one bump and nothing older: {log:?}"
        );
        // Seeing the same epochs again is not another crash.
        s.observe_faults(1, 1, false, Instant::now());
        assert_eq!(s.incarnation, 1);
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
                    known: vec![],
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
        s.recover(true, Instant::now());
        assert!(s
            .handle(
                Msg::SyncReq {
                    req: 4,
                    incarnation: 8,
                    known: vec![],
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
        s.recover(true, Instant::now());
        assert!(s.prepared.is_empty(), "prepared table wiped");
        assert!(s.completed.is_empty(), "dedup cache wiped");
        assert!(s.completed_order.is_empty());
        assert!(s.store_mut().is_empty(), "store wiped");
    }

    /// Test backend: fails chosen 1-based append calls and the first
    /// `failing_syncs` sync calls, delegating everything else (including
    /// load/replay) to a [`MemLog`].
    struct FlakyLog {
        inner: MemLog,
        appends_seen: u64,
        fail_appends: Vec<u64>,
        failing_syncs: u32,
    }

    impl FlakyLog {
        fn failing_appends(fail_appends: Vec<u64>) -> Self {
            FlakyLog {
                inner: MemLog::new(),
                appends_seen: 0,
                fail_appends,
                failing_syncs: 0,
            }
        }

        fn failing_syncs(failing_syncs: u32) -> Self {
            FlakyLog {
                failing_syncs,
                ..FlakyLog::failing_appends(vec![])
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

    /// The client every gated request below comes from.
    const CLIENT: NodeId = NodeId(10);

    /// A synthetic clock origin an hour ahead of the wall clock: a state
    /// method that still read `Instant::now()` would stamp its deadlines an
    /// hour early and every cadence below would fire at once.
    fn far() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn prepare(seq: u64, req: ReqId, obj: ObjectId) -> Msg {
        Msg::PrepareReq {
            txn: txn(seq),
            req,
            validate: vec![],
            writes: vec![(obj, 0)],
        }
    }

    fn commit(seq: u64, req: ReqId, obj: ObjectId) -> Msg {
        Msg::CommitReq {
            txn: txn(seq),
            req,
            writes: vec![(obj, 1, val(42))],
        }
    }

    /// Tick at `now` and return what left the server.
    fn tick(s: &mut Server, now: Instant) -> Vec<(NodeId, Msg)> {
        let mut out = Vec::new();
        s.tick(now, &mut out);
        out
    }

    /// Prepare `obj` for `txn(seq)` through the gate: the grant is withheld
    /// by `step` and released by the tick that syncs it.
    fn granted_prepare(s: &mut Server, seq: u64, req: ReqId, obj: ObjectId, now: Instant) {
        assert!(s.step(CLIENT, prepare(seq, req, obj), now).is_none());
        let out = tick(s, now);
        assert!(
            matches!(&out[..], [(CLIENT, Msg::PrepareResp { vote: true, .. })]),
            "{out:?}"
        );
    }

    #[test]
    fn failed_commit_append_is_retried_so_the_ack_waits_for_durability() {
        let mut s = server();
        // Append 1 is the prepare grant; append 2 — the commit decision —
        // fails once.
        s.set_persistence(Box::new(FlakyLog::failing_appends(vec![2])));
        let t0 = far();
        granted_prepare(&mut s, 1, 1, OBJ, t0);
        // The quorum's decision still applies locally…
        let ack = s.step(CLIENT, commit(1, 2, OBJ), t0);
        assert_eq!(s.store_mut().version(OBJ), 1);
        assert_eq!(s.stats().wal_io_errors, 1);
        // …but its record is queued, not staged, so the ack is withheld.
        assert!(ack.is_none(), "commit record must not count durable");
        // Degraded: new prepares are refused — and a refusal certifies
        // nothing, so it leaves at once.
        assert!(matches!(
            s.step(CLIENT, prepare(2, 3, OBJ2), t0),
            Some(Msg::PrepareResp {
                vote: false,
                wal_refused: true,
                ..
            })
        ));
        // The tick's sync re-appends the queue ahead of the sync: the ack
        // is released, nothing is left parked, degraded mode is over.
        let out = tick(&mut s, t0);
        assert!(
            matches!(&out[..], [(CLIENT, Msg::CommitAck { req: 2 })]),
            "{out:?}"
        );
        assert!(tick(&mut s, t0 + ms(50)).is_empty());
        granted_prepare(&mut s, 2, 3, OBJ2, t0 + ms(50));
        // Proof the record physically landed: a restart replays it.
        s.recover(false, t0 + ms(60));
        assert_eq!(s.store_mut().version(OBJ), 1);
    }

    #[test]
    fn crash_before_append_retry_loses_record_and_queue_together() {
        let mut s = server();
        s.set_persistence(Box::new(FlakyLog::failing_appends(vec![2])));
        let t0 = far();
        granted_prepare(&mut s, 1, 1, OBJ, t0);
        assert!(
            s.step(CLIENT, commit(1, 2, OBJ), t0).is_none(),
            "ack parked"
        );
        assert_eq!(s.store_mut().version(OBJ), 1, "decision applied pre-crash");
        // Crash before the retry lands: the record never reached the log
        // and the retry queue was memory-only — both are gone, and so is
        // the parked ack. Losing an *unacked* commit is the contract.
        s.recover(false, t0 + ms(1));
        assert!(
            tick(&mut s, t0 + ms(1)).is_empty(),
            "the parked ack and the retry queue die with the process"
        );
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
        let t0 = far();
        let mut out = Vec::new();
        assert!(s.step(CLIENT, prepare(1, 1, OBJ), t0).is_none());
        // First attempt fails: the deadline honours the 1 ms backoff
        // instead of reading "due now" — that gap is what keeps the pump
        // off a 100% CPU spin while the backend stays broken.
        assert_eq!(s.tick(t0, &mut out), Some(t0 + ms(1)));
        assert_eq!(s.stats().wal_io_errors, 1);
        assert_eq!(
            s.tick(t0, &mut out),
            Some(t0 + ms(1)),
            "not due: no attempt"
        );
        assert_eq!(s.stats().wal_io_errors, 1);
        // Second failure doubles the step.
        assert_eq!(s.tick(t0 + ms(1), &mut out), Some(t0 + ms(3)), "doubles");
        assert_eq!(s.stats().wal_io_errors, 2);
        s.tick(t0 + ms(2), &mut out);
        assert_eq!(s.stats().wal_io_errors, 2, "still backing off");
        assert!(
            out.is_empty(),
            "the grant stays parked while the log is sick"
        );
        // Third attempt heals: the ack leaves, the backoff resets and a
        // clean log schedules nothing (what remains is the TTL sweep).
        let next = s.tick(t0 + ms(3), &mut out).expect("the sweep cadence");
        assert!(matches!(
            &out[..],
            [(CLIENT, Msg::PrepareResp { vote: true, .. })]
        ));
        assert!(next >= t0 + ms(100), "no log deadline left");
        s.set_persistence(Box::new(FlakyLog::failing_syncs(1)));
        assert!(s.step(CLIENT, commit(1, 2, OBJ), t0 + ms(4)).is_none());
        let next = s.tick(t0 + ms(4), &mut out);
        assert_eq!(next, Some(t0 + ms(5)), "healthy reset the backoff to 1 ms");
    }

    fn group_commit(max_records: usize, max_delay: Duration) -> Server {
        let mut s = staged_server();
        s.set_durability(DurabilityMode::GroupCommit {
            max_records,
            max_delay,
        });
        s
    }

    #[test]
    fn group_commit_syncs_at_once_when_an_ack_is_parked() {
        let mut s = group_commit(64, ms(5));
        let t0 = far();
        // A waiter makes the sync due now, not one aging period later.
        granted_prepare(&mut s, 1, 1, OBJ, t0);
        assert_eq!(s.stats().wal_sync_batches, 1);
        // Two decisions parked between ticks share one sync and leave in
        // park order.
        assert!(s.step(CLIENT, commit(1, 2, OBJ), t0 + ms(1)).is_none());
        assert!(s
            .step(NodeId(11), prepare(2, 3, OBJ2), t0 + ms(1))
            .is_none());
        let out = tick(&mut s, t0 + ms(1));
        assert!(
            matches!(
                &out[..],
                [
                    (CLIENT, Msg::CommitAck { req: 2 }),
                    (NodeId(11), Msg::PrepareResp { vote: true, .. })
                ]
            ),
            "{out:?}"
        );
        assert_eq!(s.stats().wal_sync_batches, 2);
        assert_eq!(s.stats().wal_records_synced, 3);
    }

    #[test]
    fn group_commit_ages_out_a_dirty_window_nobody_waits_on() {
        let mut s = group_commit(64, ms(5));
        let t0 = far();
        let mut out = Vec::new();
        // `handle` is the ungated path: the grant is staged at t0 + 1 ms
        // and nothing is parked on it.
        s.tick(t0, &mut out);
        assert!(s.handle(prepare(1, 1, OBJ), t0 + ms(1)).is_some());
        // A later record does not restart the window.
        assert!(s.handle(prepare(2, 2, OBJ2), t0 + ms(3)).is_some());
        assert_eq!(s.tick(t0 + ms(3), &mut out), Some(t0 + ms(6)));
        s.tick(t0 + ms(6) - Duration::from_nanos(1), &mut out);
        assert_eq!(s.stats().wal_sync_batches, 0, "max_delay has not passed");
        s.tick(t0 + ms(6), &mut out);
        assert_eq!(s.stats().wal_sync_batches, 1, "the oldest record aged out");
        assert_eq!(s.stats().wal_records_synced, 2);
        assert!(out.is_empty(), "nobody was waiting");
    }

    #[test]
    fn group_commit_record_cap_bounds_the_dirty_window() {
        let mut s = group_commit(3, Duration::from_secs(3600));
        let t0 = far();
        assert!(s.handle(prepare(1, 1, OBJ), t0).is_some());
        assert!(s.handle(commit(1, 2, OBJ), t0).is_some());
        tick(&mut s, t0 + ms(1));
        assert_eq!(
            s.stats().wal_sync_batches,
            0,
            "two dirty records: below the cap"
        );
        assert!(s.handle(prepare(2, 3, OBJ2), t0 + ms(1)).is_some());
        tick(&mut s, t0 + ms(1));
        assert_eq!(s.stats().wal_sync_batches, 1, "the third record trips it");
        assert_eq!(s.stats().wal_records_synced, 3);
    }

    #[test]
    fn memlog_acks_leave_at_once() {
        // Memory is as durable as it gets the moment it is written: the
        // gate has nothing to wait for and no tick owes a sync.
        let mut s = server();
        let t0 = far();
        assert!(matches!(
            s.step(CLIENT, prepare(1, 1, OBJ), t0),
            Some(Msg::PrepareResp { vote: true, .. })
        ));
        assert!(matches!(
            s.step(CLIENT, commit(1, 2, OBJ), t0),
            Some(Msg::CommitAck { req: 2 })
        ));
        let mut out = Vec::new();
        assert_eq!(
            s.tick(t0, &mut out),
            Some(t0 + DEFAULT_PREPARED_TTL / 4),
            "only the sweep cadence: no log deadline"
        );
        assert!(out.is_empty());
        assert_eq!(s.stats().wal_sync_batches, 0);
    }

    #[test]
    fn buffered_never_parks_and_never_syncs_from_a_tick() {
        let mut s = server();
        s.set_durability(DurabilityMode::Buffered);
        let t0 = far();
        assert!(matches!(
            s.step(CLIENT, prepare(1, 1, OBJ), t0),
            Some(Msg::PrepareResp { vote: true, .. })
        ));
        assert!(matches!(
            s.step(CLIENT, commit(1, 2, OBJ), t0),
            Some(Msg::CommitAck { req: 2 })
        ));
        assert!(tick(&mut s, t0 + Duration::from_secs(60)).is_empty());
        assert_eq!(s.stats().wal_sync_batches, 0);
    }

    #[test]
    fn reads_and_refusals_pass_the_gate_while_acks_are_parked() {
        let mut s = staged_server();
        let t0 = far();
        assert!(
            s.step(CLIENT, prepare(1, 1, OBJ), t0).is_none(),
            "grant parked"
        );
        // A read, a lock-conflict refusal and a traced read all leave at
        // once, overtaking the parked grant.
        let read = Msg::ReadBatchReq {
            txn: txn(2),
            req: 2,
            objs: vec![OBJ],
            validate: vec![],
            sample: vec![],
        };
        assert!(matches!(
            s.step(NodeId(11), read.clone(), t0),
            Some(Msg::ReadBatchResp { .. })
        ));
        assert!(matches!(
            s.step(NodeId(11), prepare(2, 3, OBJ), t0),
            Some(Msg::PrepareResp { vote: false, .. })
        ));
        let traced = Msg::Traced {
            ctx: TraceCtx { trace: 7, span: 9 },
            inner: Box::new(read),
        };
        assert!(matches!(
            s.step(NodeId(11), traced, t0),
            Some(Msg::ReadBatchResp { .. })
        ));
        // A duplicate of the parked prepare is answered from the dedup
        // cache — and parks behind the original: same record, same rule.
        assert!(s.step(CLIENT, prepare(1, 1, OBJ), t0).is_none());
        assert_eq!(tick(&mut s, t0).len(), 2);
    }

    #[test]
    fn catch_up_probe_goes_out_every_40_ms_while_reachable() {
        let mut s = server();
        s.set_sync_config(sync_cfg(0, 4));
        let t0 = far();
        // Crash with amnesia, host still down: a crashed host emits nothing.
        s.observe_faults(1, 0, true, t0);
        assert!(s.is_syncing());
        assert!(tick(&mut s, t0).is_empty());
        // Reachable again: the probe leaves at once, to every peer…
        s.observe_faults(1, 0, false, t0 + ms(5));
        let out = tick(&mut s, t0 + ms(5));
        let peers: Vec<NodeId> = out.iter().map(|(dst, _)| *dst).collect();
        assert_eq!(peers, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(out
            .iter()
            .all(|(_, m)| matches!(m, Msg::SyncReq { incarnation: 1, .. })));
        // …then again every 40 ms, and the tick says so.
        let mut out = Vec::new();
        assert_eq!(s.tick(t0 + ms(44), &mut out), Some(t0 + ms(45)));
        assert!(out.is_empty(), "39 ms: not yet");
        s.tick(t0 + ms(45), &mut out);
        assert_eq!(out.len(), 3, "40 ms: the next round");
        // Seeing the same epochs again is not a new crash.
        assert_eq!(s.stats().amnesia_wipes, 1);
        // Catch-up done: the probe stops.
        for rank in [1u32, 2] {
            let resp = Msg::SyncResp {
                req: 1,
                incarnation: 1,
                entries: vec![],
            };
            assert!(s.step(NodeId(rank), resp, t0 + ms(50)).is_none());
        }
        assert!(!s.is_syncing());
        assert!(tick(&mut s, t0 + ms(500)).is_empty());
    }

    #[test]
    fn tick_sweeps_expired_prepares_on_the_sweep_cadence() {
        let mut s = staged_server();
        s.set_prepared_ttl(ms(10)); // cadence: max(ttl / 4, 100 ms)
        let t0 = far();
        granted_prepare(&mut s, 1, 1, OBJ, t0);
        let mut out = Vec::new();
        // Past the TTL but inside the cadence: the lock is still held.
        assert_eq!(s.tick(t0 + ms(99), &mut out), Some(t0 + ms(100)));
        assert_eq!(s.store_mut().lock_holder(OBJ), Some(txn(1)));
        s.tick(t0 + ms(100), &mut out);
        assert!(s.store_mut().lock_holder(OBJ).is_none());
        assert_eq!(s.stats().expired_prepares, 1);
        // One timer: the tick's sweep also resets the message path's.
        granted_prepare(&mut s, 2, 2, OBJ, t0 + ms(101));
        assert!(matches!(
            s.step(CLIENT, prepare(3, 3, OBJ), t0 + ms(199)),
            Some(Msg::PrepareResp { vote: false, .. })
        ));
        granted_prepare(&mut s, 3, 4, OBJ, t0 + ms(200));
        assert_eq!(s.stats().expired_prepares, 2);
    }

    #[test]
    fn a_crash_drops_parked_acks_and_restarts_the_dirty_window() {
        let mut s = group_commit(64, ms(5));
        let t0 = far();
        granted_prepare(&mut s, 1, 1, OBJ, t0);
        assert!(s.step(CLIENT, commit(1, 2, OBJ), t0 + ms(1)).is_none());
        s.observe_faults(0, 1, false, t0 + ms(2));
        // The commit record survived in the (memory) log and replays; its
        // ack was never sent and never will be — the client retries and
        // hits the rebuilt dedup cache.
        let mut out = Vec::new();
        assert_eq!(
            s.tick(t0 + ms(2), &mut out),
            Some(t0 + ms(7)),
            "only the incarnation bump is dirty, stamped at the restart"
        );
        assert!(out.is_empty());
        assert_eq!(s.store_mut().version(OBJ), 1);
        assert!(s.step(CLIENT, commit(1, 2, OBJ), t0 + ms(3)).is_none());
        let out = tick(&mut s, t0 + ms(3));
        assert!(
            matches!(&out[..], [(CLIENT, Msg::CommitAck { req: 2 })]),
            "{out:?}"
        );
        assert_eq!(s.stats().dedup_hits, 1);
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
        assert!(s.store_mut().lock_holder(OBJ).is_none());
    }

    /// What a recovery leaves behind, in comparable form: store digest,
    /// prepared table, dedup cache, `syncing`, and the next probe.
    fn recovered(s: &mut Server) -> String {
        let next_probe = probe(s);
        let mut prepared: Vec<_> = s.prepared.iter().map(|(t, p)| (*t, &p.objs)).collect();
        prepared.sort();
        let mut replies: Vec<_> = s.completed.iter().collect();
        replies.sort_by_key(|(key, _)| **key);
        let state = (s.store.digest(), prepared, replies, s.syncing);
        format!("{state:?} {next_probe:?}")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Amnesia is a restart over an emptied log: whatever a replica
        /// went through, recovering it with the disk lost ends where a
        /// replica that never held anything ends after a restart.
        #[test]
        fn a_lost_disk_recovers_like_a_restart_over_an_empty_log(
            ops in proptest::collection::vec((0u8..3, 0u64..6, 1u64..4), 0..40)
        ) {
            let t0 = far();
            let mut live = server();
            live.set_sync_config(sync_cfg(0, 4));
            for (i, (kind, seq, index)) in ops.into_iter().enumerate() {
                let (req, obj) = (i as ReqId + 1, ObjectId::new(C, index));
                let msg = match kind {
                    0 => prepare(seq, req, obj),
                    1 => commit(seq, req, obj),
                    _ => Msg::AbortReq { txn: txn(seq), req },
                };
                live.handle(msg, t0);
            }
            live.recover(true, t0 + ms(1));

            let mut backend = MemLog::new();
            backend.reset();
            let mut fresh = server();
            fresh.set_sync_config(sync_cfg(0, 4));
            fresh.set_persistence(Box::new(backend));
            fresh.recover(false, t0 + ms(1));

            proptest::prop_assert_eq!(recovered(&mut live), recovered(&mut fresh));
            proptest::prop_assert_eq!(live.stats().amnesia_wipes, 1);
            proptest::prop_assert_eq!(fresh.stats().restart_replays, 1);
        }
    }
}
