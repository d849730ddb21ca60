//! Causal span tracing across client, network and quorum servers.
//!
//! Each top-level transaction owns a **trace**; within it, every execution
//! attempt, closed-nested Block, 2PC round (read / prepare / commit /
//! abort), lock-wait sleep and restart backoff is a
//! **span**, and the trace context travels on the wire (as a
//! `Msg::Traced` wrapper in `acn-dtm`) so server-side handling — inbox
//! dwell, request execution, sync refusal — appears as child spans of the
//! client round that caused it. The attempt and Block spans are read off
//! the executor's [`TxnEvent`] stream ([`Tracer::on_event`]). Spans are
//! plain `Copy` records in a bounded per-thread ring (client side) or a
//! shared bounded [`SpanCollector`] (server side), so memory stays flat
//! regardless of run length.
//!
//! On top of the raw spans, [`critical_path`] decomposes each committed
//! transaction's end-to-end latency into `{local compute, network, server
//! queue, lock wait, rollback redo}` — a telescoping decomposition whose
//! segments sum *exactly* to the end-to-end duration in integer
//! nanoseconds.

use crate::event::TxnEvent;
use crate::registry::{ThreadTraceRow, SERVER_TRACE_THREAD};
use crate::ring::Ring;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Default per-thread span-ring capacity (spans, not bytes). A span is
/// ~64 B, so the default costs ≈ 1 MiB per worker thread.
pub const DEFAULT_SPAN_CAPACITY: usize = 16_384;

/// Flag bit: the span's transaction (or attempt) committed.
pub const FLAG_COMMITTED: u32 = 1;
/// Flag bit: the span ended in a rollback, retry, timeout or refusal.
pub const FLAG_ROLLED_BACK: u32 = 2;

/// Dedicated bit distinguishing server-assigned span ids from client
/// ones, so the two id spaces can never collide when traces are joined
/// post-run. Bit 62, not 63: ids must stay representable in the JSON
/// codec's `i64` integers for the Chrome-trace round trip.
const SERVER_ID_BIT: u64 = 1 << 62;

/// The trace context that travels on the wire: which trace the message
/// belongs to and which client span (the quorum round) is its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id — equals the root transaction span's id.
    pub trace: u64,
    /// Parent span id for any server-side span this message produces.
    pub span: u64,
}

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Root: one top-level transaction, first attempt to outcome.
    Txn,
    /// One execution attempt (full restarts open a fresh one).
    Attempt,
    /// One closed-nested Block execution.
    Block,
    /// A quorum read round, of one object or of many.
    ReadRound,
    /// The 2PC prepare round.
    PrepareRound,
    /// The 2PC commit round.
    CommitRound,
    /// The 2PC abort round (including best-effort aborts).
    AbortRound,
    /// An explicit contention-query round.
    QueryRound,
    /// Client-side sleep after a read hit a `protected` object.
    LockWait,
    /// Randomized backoff between full restarts.
    Backoff,
    /// Server: inbox dwell between delivery and being picked up.
    ServerQueue,
    /// Server: executing the request (store reads, lock work, apply).
    ServerHandle,
    /// Server: the request was refused because the replica was syncing.
    SyncRefusal,
    /// Server: one WAL fsync batch (group commit's durability point). A
    /// server-local root span — fsyncs serve many traces at once.
    WalSync,
    /// Server: an ack parked by group commit until its WAL mark became
    /// durable — the fsync-stall share of the client round that caused it.
    WalPark,
    /// Batch coordinator: building and dispatching one wave's conflict
    /// graph (a root span — waves are not nested inside any transaction).
    WaveSchedule,
}

impl SpanKind {
    /// Every kind, for round-trip tests.
    pub const ALL: [SpanKind; 16] = [
        SpanKind::Txn,
        SpanKind::Attempt,
        SpanKind::Block,
        SpanKind::ReadRound,
        SpanKind::PrepareRound,
        SpanKind::CommitRound,
        SpanKind::AbortRound,
        SpanKind::QueryRound,
        SpanKind::LockWait,
        SpanKind::Backoff,
        SpanKind::ServerQueue,
        SpanKind::ServerHandle,
        SpanKind::SyncRefusal,
        SpanKind::WalSync,
        SpanKind::WalPark,
        SpanKind::WaveSchedule,
    ];

    /// The quorum-round kinds — the spans whose wire context servers see.
    pub const ROUNDS: [SpanKind; 5] = [
        SpanKind::ReadRound,
        SpanKind::PrepareRound,
        SpanKind::CommitRound,
        SpanKind::AbortRound,
        SpanKind::QueryRound,
    ];

    /// The server-side kinds (recorded into the [`SpanCollector`]).
    pub const SERVER: [SpanKind; 5] = [
        SpanKind::ServerQueue,
        SpanKind::ServerHandle,
        SpanKind::SyncRefusal,
        SpanKind::WalSync,
        SpanKind::WalPark,
    ];

    /// Stable lower-case label used in the Chrome-trace export.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::Attempt => "attempt",
            SpanKind::Block => "block",
            SpanKind::ReadRound => "read_round",
            SpanKind::PrepareRound => "prepare_round",
            SpanKind::CommitRound => "commit_round",
            SpanKind::AbortRound => "abort_round",
            SpanKind::QueryRound => "query_round",
            SpanKind::LockWait => "lock_wait",
            SpanKind::Backoff => "backoff",
            SpanKind::ServerQueue => "server_queue",
            SpanKind::ServerHandle => "server_handle",
            SpanKind::SyncRefusal => "sync_refusal",
            SpanKind::WalSync => "wal_sync",
            SpanKind::WalPark => "wal_park",
            SpanKind::WaveSchedule => "wave_schedule",
        }
    }

    /// Inverse of [`SpanKind::label`] (Chrome-trace import).
    pub fn from_label(s: &str) -> Option<SpanKind> {
        Some(match s {
            "txn" => SpanKind::Txn,
            "attempt" => SpanKind::Attempt,
            "block" => SpanKind::Block,
            "read_round" => SpanKind::ReadRound,
            "prepare_round" => SpanKind::PrepareRound,
            "commit_round" => SpanKind::CommitRound,
            "abort_round" => SpanKind::AbortRound,
            "query_round" => SpanKind::QueryRound,
            "lock_wait" => SpanKind::LockWait,
            "backoff" => SpanKind::Backoff,
            "server_queue" => SpanKind::ServerQueue,
            "server_handle" => SpanKind::ServerHandle,
            "sync_refusal" => SpanKind::SyncRefusal,
            "wal_sync" => SpanKind::WalSync,
            "wal_park" => SpanKind::WalPark,
            "wave_schedule" => SpanKind::WaveSchedule,
            _ => return None,
        })
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One finished span. All timestamps are nanoseconds relative to the run's
/// shared origin instant — the same clock the driver's interval rows use,
/// so trace time and [`crate::WindowedSeries`] time line up by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique span id (clients: `(thread+1) << 40 | seq`; servers carry
    /// the server id bit so the spaces never collide).
    pub id: u64,
    /// Parent span id (`0` = root).
    pub parent: u64,
    /// Trace id — the owning transaction's root span id.
    pub trace: u64,
    /// What this span measures.
    pub kind: SpanKind,
    /// Workload class (transaction template index); meaningful on
    /// [`SpanKind::Txn`] spans, `0` elsewhere.
    pub class: u16,
    /// Block index the span occurred in (`-1` = outside any Block).
    pub block: i32,
    /// Node id of the recording side (client or server).
    pub node: u32,
    /// Start, nanoseconds since the run origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// [`FLAG_COMMITTED`] / [`FLAG_ROLLED_BACK`] bits.
    pub flags: u32,
}

/// An in-flight round span handed to the caller at send time: its id goes
/// on the wire (so server spans parent to it) and the span itself is
/// pushed when the round completes — success *or* timeout, which is what
/// guarantees every server span's parent exists client-side.
#[derive(Debug, Clone, Copy)]
pub struct PendingSpan {
    id: u64,
    parent: u64,
    trace: u64,
    kind: SpanKind,
    block: i32,
    start: Instant,
}

impl PendingSpan {
    /// The wire context naming this round as the parent.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace: self.trace,
            span: self.id,
        }
    }
}

/// Per-thread client-side tracer: owns the span ring, allocates span ids,
/// and tracks the open transaction / attempt / Block state. The driver
/// opens and closes the transaction ([`Tracer::start_txn`] /
/// [`Tracer::end_txn`]), attempts and Blocks follow the executor's events
/// ([`Tracer::on_event`]), and the client's pump records rounds and waits.
///
/// All methods are cheap no-ops while no transaction is open, so protocol
/// traffic outside a traced transaction (seeding, contention queries) is
/// never wrapped and costs nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    node: u32,
    /// Seeds the id band; the ring reports under this thread row.
    thread: u64,
    ring: Ring<Span>,
    next: u64,
    cur: Option<TxnState>,
}

#[derive(Debug)]
struct TxnState {
    trace: u64,
    class: u16,
    start: Instant,
    attempt: Option<(u64, Instant)>,
    block: Option<(u32, Instant)>,
}

impl Tracer {
    /// A tracer for one worker thread. `origin` is the run's shared zero
    /// instant (every tracer and the server collector must use the same
    /// one); `thread` seeds the id band so ids are unique across threads.
    pub fn new(origin: Instant, node: u32, thread: u64, capacity: usize) -> Self {
        Tracer {
            origin,
            node,
            thread,
            ring: Ring::new(capacity),
            next: (thread + 1) << 40,
            cur: None,
        }
    }

    /// Map one executor event onto the span tree: `Begin` opens an
    /// attempt, `BlockStart` opens a Block and `BlockCommit` closes it; an
    /// abort or an absorbed unavailable round closes any open Block as
    /// rolled back. A fatal error emits no event, so a Block it interrupts
    /// stays open until [`Tracer::end_txn`] closes it.
    pub fn on_event(&mut self, ev: TxnEvent) {
        match ev {
            TxnEvent::Begin => self.begin_attempt(),
            TxnEvent::BlockStart { block } => self.block_start(block),
            TxnEvent::BlockCommit { .. } => self.block_end(false),
            TxnEvent::PartialAbort { .. }
            | TxnEvent::FullAbort { .. }
            | TxnEvent::UnavailableRetry => self.block_end(true),
            TxnEvent::BatchedRead { .. } | TxnEvent::LockHolds { .. } | TxnEvent::Commit { .. } => {
            }
        }
    }

    fn alloc(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &mut self,
        id: u64,
        parent: u64,
        kind: SpanKind,
        start: Instant,
        end: Instant,
        flags: u32,
    ) {
        let Some(cur) = &self.cur else { return };
        let span = Span {
            id,
            parent,
            trace: cur.trace,
            kind,
            class: if kind == SpanKind::Txn { cur.class } else { 0 },
            block: self.cur_block(),
            node: self.node,
            start_ns: self.ns(start),
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            flags,
        };
        self.ring.push(span);
    }

    /// The Block index currently executing (`-1` = outside any Block).
    fn cur_block(&self) -> i32 {
        match &self.cur {
            Some(TxnState {
                block: Some((b, _)),
                ..
            }) => *b as i32,
            _ => -1,
        }
    }

    /// Open a new trace for one top-level transaction of workload class
    /// (template index) `class`. Any unfinished trace is closed first.
    pub fn start_txn(&mut self, class: u16) {
        if self.cur.is_some() {
            self.end_txn(false);
        }
        let trace = self.alloc();
        self.cur = Some(TxnState {
            trace,
            class,
            start: Instant::now(),
            attempt: None,
            block: None,
        });
    }

    /// Open a new attempt span, closing any open Block and the previous
    /// attempt as rolled back — that is what a full restart looks like. A
    /// no-op outside a transaction.
    fn begin_attempt(&mut self) {
        if self.cur.is_none() {
            return;
        }
        self.block_end(true);
        let now = Instant::now();
        self.close_attempt(now, false);
        let id = self.alloc();
        if let Some(cur) = &mut self.cur {
            cur.attempt = Some((id, now));
        }
    }

    fn close_attempt(&mut self, now: Instant, committed: bool) {
        let Some(cur) = &mut self.cur else { return };
        let Some((id, start)) = cur.attempt.take() else {
            return;
        };
        let trace = cur.trace;
        let flags = if committed {
            FLAG_COMMITTED
        } else {
            FLAG_ROLLED_BACK
        };
        self.push(id, trace, SpanKind::Attempt, start, now, flags);
    }

    /// Close the trace: the open attempt and the root transaction span are
    /// finished with one shared end instant, so the final attempt's end
    /// coincides exactly with the transaction's.
    pub fn end_txn(&mut self, committed: bool) {
        if self.cur.is_none() {
            return;
        }
        let now = Instant::now();
        self.block_end(!committed);
        self.close_attempt(now, committed);
        let Some(cur) = &self.cur else { return };
        let (trace, start) = (cur.trace, cur.start);
        let flags = if committed {
            FLAG_COMMITTED
        } else {
            FLAG_ROLLED_BACK
        };
        self.push(trace, 0, SpanKind::Txn, start, now, flags);
        self.cur = None;
    }

    /// Start a quorum-round span of `kind`. Returns `None` when no attempt
    /// is open (traffic outside transactions stays unwrapped).
    pub fn start_round(&mut self, kind: SpanKind) -> Option<PendingSpan> {
        let cur = self.cur.as_ref()?;
        let (attempt, _) = cur.attempt?;
        let trace = cur.trace;
        let block = self.cur_block();
        let id = self.alloc();
        Some(PendingSpan {
            id,
            parent: attempt,
            trace,
            kind,
            block,
            start: Instant::now(),
        })
    }

    /// Finish a round span started with [`Tracer::start_round`].
    pub fn end_round(&mut self, p: PendingSpan, failed: bool) {
        let Some(cur) = &self.cur else { return };
        let span = Span {
            id: p.id,
            parent: p.parent,
            trace: cur.trace,
            kind: p.kind,
            class: 0,
            block: p.block,
            node: self.node,
            start_ns: self.ns(p.start),
            dur_ns: Instant::now().saturating_duration_since(p.start).as_nanos() as u64,
            flags: if failed { FLAG_ROLLED_BACK } else { 0 },
        };
        self.ring.push(span);
    }

    /// Record a standalone root span of `kind` from `start` to now — its
    /// own trace, no parent. Unlike every other record method this works
    /// *outside* any open transaction; the batch coordinator uses it to
    /// time wave scheduling, which wraps many transactions rather than
    /// living inside one. `class` carries a kind-specific payload (for
    /// [`SpanKind::WaveSchedule`]: the number of transactions in the wave).
    pub fn record_root(&mut self, kind: SpanKind, start: Instant, class: u16) {
        let id = self.alloc();
        let span = Span {
            id,
            parent: 0,
            trace: id,
            kind,
            class,
            block: -1,
            node: self.node,
            start_ns: self.ns(start),
            dur_ns: Instant::now().saturating_duration_since(start).as_nanos() as u64,
            flags: 0,
        };
        self.ring.push(span);
    }

    /// Record a leaf span of `kind` from `start` to now, parented to the
    /// open attempt. A no-op when no attempt is open.
    pub fn record_plain(&mut self, kind: SpanKind, start: Instant) {
        let Some(cur) = &self.cur else { return };
        let Some((attempt, _)) = cur.attempt else {
            return;
        };
        let id = self.alloc();
        self.push(id, attempt, kind, start, Instant::now(), 0);
    }

    /// A Block began executing as a closed-nested sub-transaction of the
    /// open attempt; one still open is closed first, as rolled back.
    fn block_start(&mut self, block: u32) {
        self.block_end(true);
        if let Some(cur) = self.cur.as_mut().filter(|c| c.attempt.is_some()) {
            cur.block = Some((block, Instant::now()));
        }
    }

    /// Close the open Block, if any (`rolled_back` = child-scope rollback,
    /// escalation or restart rather than a merge into the parent).
    fn block_end(&mut self, rolled_back: bool) {
        let Some(cur) = &mut self.cur else { return };
        let Some((block, start)) = cur.block.take() else {
            return;
        };
        let Some((attempt, _)) = cur.attempt else {
            return;
        };
        let trace = cur.trace;
        let id = self.alloc();
        let span = Span {
            id,
            parent: attempt,
            trace,
            kind: SpanKind::Block,
            class: 0,
            block: block as i32,
            node: self.node,
            start_ns: self.ns(start),
            dur_ns: Instant::now().saturating_duration_since(start).as_nanos() as u64,
            flags: if rolled_back { FLAG_ROLLED_BACK } else { 0 },
        };
        self.ring.push(span);
    }

    /// Finish: retained spans (oldest first) plus the ring's completeness
    /// row.
    pub fn drain(mut self) -> (Vec<Span>, ThreadTraceRow) {
        self.end_txn(false);
        (self.ring.take(), self.ring.row(self.thread))
    }
}

/// A raw server-side span, still in `Instant` time (converted to
/// origin-relative nanoseconds at [`SpanCollector::drain`]).
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    /// Parent span id (the client round span from the wire context).
    pub parent: u64,
    /// Trace id from the wire context.
    pub trace: u64,
    /// What the span measures (one of [`SpanKind::SERVER`]).
    pub kind: SpanKind,
    /// Server node id.
    pub node: u32,
    /// Span start.
    pub start: Instant,
    /// Span end.
    pub end: Instant,
    /// [`FLAG_ROLLED_BACK`] for refusals, else 0.
    pub flags: u32,
}

/// Shared bounded collector for server-side spans. Servers are
/// single-threaded but several share one collector, so the ring is behind
/// a mutex; recording happens only for messages that carried a trace
/// context, so untraced runs never touch it.
#[derive(Debug)]
pub struct SpanCollector {
    inner: Mutex<CollectorInner>,
}

#[derive(Debug)]
struct CollectorInner {
    ring: Ring<RawSpan>,
    /// Span ids handed out so far.
    next: u64,
}

impl SpanCollector {
    /// A collector retaining at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        SpanCollector {
            inner: Mutex::new(CollectorInner {
                ring: Ring::new(capacity),
                next: 0,
            }),
        }
    }

    /// Record one raw server span (overwrite-oldest when full).
    pub fn record(&self, s: RawSpan) {
        let mut inner = self.inner.lock().expect("span collector poisoned");
        inner.ring.push(s);
    }

    /// Convert the retained raw spans to origin-relative [`Span`]s
    /// (oldest first) and return them with the collector's completeness
    /// row, under [`SERVER_TRACE_THREAD`]. Server span ids carry a
    /// dedicated bit so they can never collide with client ids.
    pub fn drain(&self, origin: Instant) -> (Vec<Span>, ThreadTraceRow) {
        let mut inner = self.inner.lock().expect("span collector poisoned");
        let row = inner.ring.row(SERVER_TRACE_THREAD);
        let raw = inner.ring.take();
        let mut out = Vec::with_capacity(raw.len());
        for r in raw {
            inner.next += 1;
            out.push(Span {
                id: SERVER_ID_BIT | inner.next,
                parent: r.parent,
                trace: r.trace,
                kind: r.kind,
                class: 0,
                block: -1,
                node: r.node,
                start_ns: r.start.saturating_duration_since(origin).as_nanos() as u64,
                dur_ns: r.end.saturating_duration_since(r.start).as_nanos() as u64,
                flags: r.flags,
            });
        }
        (out, row)
    }
}

/// Per-Block share of one transaction's critical path (`block = -1`
/// collects commit-phase rounds and anything outside a Block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCost {
    /// Block index (`-1` = outside any Block).
    pub block: i32,
    /// Network + server-handle time of this Block's quorum rounds.
    pub net_ns: u64,
    /// Server inbox dwell carved out of those rounds (slowest responder).
    pub srvq_ns: u64,
    /// Client-side lock-wait sleeps in this Block.
    pub lock_ns: u64,
    /// WAL fsync stall carved out of those rounds (slowest responder's
    /// group-commit park).
    pub wal_ns: u64,
}

/// One committed transaction's critical-path decomposition. The six
/// segments telescope exactly:
/// `redo + lock + srvq + net + wal + local == end_to_end` (integer ns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnCritPath {
    /// Trace id of the transaction.
    pub trace: u64,
    /// Workload class (transaction template index).
    pub class: u16,
    /// End-to-end duration of the transaction span.
    pub end_to_end_ns: u64,
    /// Rollback redo: time from first attempt to the final (committing)
    /// attempt's start — all discarded work plus restart backoff.
    pub redo_ns: u64,
    /// Client-side lock-wait sleeps in the final attempt.
    pub lock_ns: u64,
    /// Server inbox dwell on the slowest responder of each final-attempt
    /// round.
    pub srvq_ns: u64,
    /// WAL fsync stall on the slowest responder of each final-attempt
    /// round (acks parked by group commit until their mark was durable).
    pub wal_ns: u64,
    /// The rest of the final attempt's quorum rounds: wire time plus
    /// server request execution.
    pub net_ns: u64,
    /// Everything else in the final attempt: local compute and
    /// bookkeeping.
    pub local_ns: u64,
    /// The `{net, srvq, lock}` split per Block.
    pub blocks: Vec<BlockCost>,
}

/// Decompose every *complete, committed* trace in `spans` into its
/// critical-path segments. Traces whose root or final attempt span was
/// dropped by the ring are skipped (completeness is reported separately),
/// as are the rare traces whose retained spans are mutually inconsistent.
pub fn critical_path(spans: &[Span]) -> Vec<TxnCritPath> {
    let mut by_trace: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let mut out: Vec<TxnCritPath> = Vec::new();
    for (trace, spans) in by_trace {
        let Some(txn) = spans
            .iter()
            .find(|s| s.kind == SpanKind::Txn && s.flags & FLAG_COMMITTED != 0)
        else {
            continue;
        };
        let Some(fin) = spans.iter().find(|s| {
            s.kind == SpanKind::Attempt && s.parent == txn.id && s.flags & FLAG_COMMITTED != 0
        }) else {
            continue;
        };
        let Some(redo) = fin.start_ns.checked_sub(txn.start_ns) else {
            continue;
        };
        let mut blocks: HashMap<i32, BlockCost> = HashMap::new();
        let mut consistent = true;
        for s in &spans {
            if s.parent != fin.id {
                continue;
            }
            if s.kind == SpanKind::LockWait {
                blocks.entry(s.block).or_default().lock_ns += s.dur_ns;
            } else if SpanKind::ROUNDS.contains(&s.kind) {
                let srvq = spans
                    .iter()
                    .filter(|c| c.parent == s.id && c.kind == SpanKind::ServerQueue)
                    .map(|c| c.dur_ns)
                    .max()
                    .unwrap_or(0)
                    .min(s.dur_ns);
                // The slowest responder's fsync stall is carved after the
                // queue dwell, so the three server-side shares can never
                // exceed the round they were carved from.
                let wal = spans
                    .iter()
                    .filter(|c| c.parent == s.id && c.kind == SpanKind::WalPark)
                    .map(|c| c.dur_ns)
                    .max()
                    .unwrap_or(0)
                    .min(s.dur_ns - srvq);
                let b = blocks.entry(s.block).or_default();
                b.srvq_ns += srvq;
                b.wal_ns += wal;
                b.net_ns += s.dur_ns - srvq - wal;
            }
        }
        let mut lock = 0u64;
        let mut srvq = 0u64;
        let mut net = 0u64;
        let mut wal = 0u64;
        let mut rows: Vec<BlockCost> = blocks
            .into_iter()
            .map(|(block, mut c)| {
                c.block = block;
                lock += c.lock_ns;
                srvq += c.srvq_ns;
                net += c.net_ns;
                wal += c.wal_ns;
                c
            })
            .collect();
        rows.sort_by_key(|c| c.block);
        let spent = redo.checked_add(lock).and_then(|v| {
            v.checked_add(srvq)
                .and_then(|v| v.checked_add(net).and_then(|v| v.checked_add(wal)))
        });
        let local = match spent.and_then(|v| txn.dur_ns.checked_sub(v)) {
            Some(l) => l,
            None => {
                consistent = false;
                0
            }
        };
        if !consistent {
            continue;
        }
        out.push(TxnCritPath {
            trace,
            class: txn.class,
            end_to_end_ns: txn.dur_ns,
            redo_ns: redo,
            lock_ns: lock,
            srvq_ns: srvq,
            wal_ns: wal,
            net_ns: net,
            local_ns: local,
            blocks: rows,
        });
    }
    out.sort_by_key(|p| p.trace);
    out
}

/// Aggregate per-transaction decompositions into `(class, block)` rows for
/// the metrics report. `class_name` maps the template index to its name.
/// Transaction-level segments (`redo`, `local`) land on each class's
/// `block = -1` row; per-Block `{net, srvq, lock}` land on their Block's
/// row. `txns` counts the transactions contributing to each row.
pub fn aggregate_critpath<F: Fn(u16) -> String>(
    paths: &[TxnCritPath],
    class_name: F,
) -> Vec<crate::registry::CritPathRow> {
    use std::collections::BTreeMap;
    fn row<'a, F: Fn(u16) -> String>(
        rows: &'a mut BTreeMap<(u16, i64), crate::registry::CritPathRow>,
        class_name: &F,
        class: u16,
        block: i64,
    ) -> &'a mut crate::registry::CritPathRow {
        rows.entry((class, block))
            .or_insert_with(|| crate::registry::CritPathRow {
                class: class_name(class),
                block,
                ..Default::default()
            })
    }
    let mut rows: BTreeMap<(u16, i64), crate::registry::CritPathRow> = BTreeMap::new();
    for p in paths {
        let r = row(&mut rows, &class_name, p.class, -1);
        r.txns += 1;
        r.local_ns += p.local_ns;
        r.redo_ns += p.redo_ns;
        for b in &p.blocks {
            let r = row(&mut rows, &class_name, p.class, b.block as i64);
            if b.block != -1 {
                r.txns += 1;
            }
            r.net_ns += b.net_ns;
            r.srvq_ns += b.srvq_ns;
            r.lock_ns += b.lock_ns;
            r.wal_ns += b.wal_ns;
        }
    }
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn kind_labels_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_label(k.label()), Some(k));
        }
        assert_eq!(SpanKind::from_label("nope"), None);
    }

    #[test]
    fn spans_stay_small() {
        // The ring pre-allocates capacity × size_of::<Span>() bytes; the
        // default 16 Ki ring must stay close to a megabyte per thread.
        assert!(std::mem::size_of::<Span>() <= 72);
    }

    #[test]
    fn tracer_builds_a_parented_trace() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 7, 0, 64);
        t.start_txn(3);
        t.on_event(TxnEvent::Begin);
        let p = t.start_round(SpanKind::ReadRound).expect("attempt open");
        let ctx = p.ctx();
        t.end_round(p, false);
        t.on_event(TxnEvent::BlockStart { block: 1 });
        let lw = Instant::now();
        t.record_plain(SpanKind::LockWait, lw);
        t.on_event(TxnEvent::BlockCommit { block: 1 });
        t.end_txn(true);
        let (spans, row) = t.drain();
        assert_eq!((row.thread, row.dropped), (0, 0));
        let txn = spans.iter().find(|s| s.kind == SpanKind::Txn).unwrap();
        assert_eq!(txn.flags & FLAG_COMMITTED, FLAG_COMMITTED);
        assert_eq!(txn.class, 3);
        assert_eq!(txn.id, txn.trace);
        let attempt = spans.iter().find(|s| s.kind == SpanKind::Attempt).unwrap();
        assert_eq!(attempt.parent, txn.id);
        assert_eq!(attempt.flags & FLAG_COMMITTED, FLAG_COMMITTED);
        let round = spans
            .iter()
            .find(|s| s.kind == SpanKind::ReadRound)
            .unwrap();
        assert_eq!(round.parent, attempt.id);
        assert_eq!(ctx.span, round.id);
        assert_eq!(ctx.trace, txn.trace);
        let block = spans.iter().find(|s| s.kind == SpanKind::Block).unwrap();
        assert_eq!(block.block, 1);
        let lockw = spans.iter().find(|s| s.kind == SpanKind::LockWait).unwrap();
        assert_eq!(lockw.block, 1, "lock wait inside Block 1 is labeled so");
        assert!(spans.iter().all(|s| s.node == 7));
    }

    #[test]
    fn tracer_is_inert_outside_transactions() {
        let mut t = Tracer::new(Instant::now(), 1, 0, 16);
        t.on_event(TxnEvent::Begin);
        assert!(t.start_round(SpanKind::ReadRound).is_none());
        t.record_plain(SpanKind::LockWait, Instant::now());
        t.on_event(TxnEvent::BlockStart { block: 0 });
        t.on_event(TxnEvent::BlockCommit { block: 0 });
        t.end_txn(true);
        let (spans, row) = t.drain();
        assert!(spans.is_empty());
        assert_eq!(row.recorded, 0);
    }

    #[test]
    fn restart_closes_the_previous_attempt_as_rolled_back() {
        let mut t = Tracer::new(Instant::now(), 1, 0, 64);
        t.start_txn(0);
        t.on_event(TxnEvent::Begin);
        t.on_event(TxnEvent::Begin); // restart
        t.end_txn(true);
        let (spans, _) = t.drain();
        let attempts: Vec<&Span> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Attempt)
            .collect();
        assert_eq!(attempts.len(), 2);
        assert_eq!(attempts[0].flags, FLAG_ROLLED_BACK);
        assert_eq!(attempts[1].flags, FLAG_COMMITTED);
    }

    #[test]
    fn aborts_close_the_open_block_and_end_txn_closes_a_fatal_one() {
        use crate::event::AbortKind;
        let mut t = Tracer::new(Instant::now(), 1, 0, 64);
        t.start_txn(0);
        t.on_event(TxnEvent::Begin);
        t.on_event(TxnEvent::BlockStart { block: 0 });
        t.on_event(TxnEvent::PartialAbort {
            block: 0,
            obj: None,
            kind: AbortKind::Partial,
        });
        t.on_event(TxnEvent::BlockStart { block: 0 });
        t.on_event(TxnEvent::BlockCommit { block: 0 });
        t.on_event(TxnEvent::BlockStart { block: 1 });
        // A fatal error emits no event: the Block closes with the trace.
        t.end_txn(false);
        let (spans, _) = t.drain();
        let blocks: Vec<(i32, u32)> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Block)
            .map(|s| (s.block, s.flags))
            .collect();
        assert_eq!(
            blocks,
            [(0, FLAG_ROLLED_BACK), (0, 0), (1, FLAG_ROLLED_BACK)]
        );
    }

    #[test]
    fn span_ring_drops_oldest_and_reports_it() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 1, 0, 2);
        t.start_txn(0);
        t.on_event(TxnEvent::Begin);
        for _ in 0..4 {
            let p = t.start_round(SpanKind::ReadRound).unwrap();
            t.end_round(p, false);
        }
        t.end_txn(true);
        let (spans, row) = t.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(row.recorded, 6);
        assert_eq!(row.dropped, 4);
        assert_eq!(row.capacity, 2);
    }

    #[test]
    fn collector_ids_never_collide_with_client_ids() {
        let origin = Instant::now();
        let col = SpanCollector::new(8);
        let now = Instant::now();
        col.record(RawSpan {
            parent: 42,
            trace: 41,
            kind: SpanKind::ServerQueue,
            node: 2,
            start: now,
            end: now + Duration::from_micros(5),
            flags: 0,
        });
        let (spans, row) = col.drain(origin);
        assert_eq!(spans.len(), 1);
        assert_eq!((row.thread, row.recorded), (SERVER_TRACE_THREAD, 1));
        assert!(spans[0].id & SERVER_ID_BIT != 0);
        assert_eq!(spans[0].parent, 42);
        assert!(spans[0].dur_ns >= 5_000);
    }

    /// Hand-build a two-attempt trace and check the telescoping invariant.
    #[test]
    fn critical_path_sums_exactly() {
        let mk = |id, parent, kind, block, start_ns, dur_ns, flags| Span {
            id,
            parent,
            trace: 100,
            kind,
            class: 2,
            block,
            node: 0,
            start_ns,
            dur_ns,
            flags,
        };
        let spans = vec![
            mk(100, 0, SpanKind::Txn, -1, 0, 1000, FLAG_COMMITTED),
            mk(101, 100, SpanKind::Attempt, -1, 0, 290, FLAG_ROLLED_BACK),
            mk(102, 100, SpanKind::Attempt, -1, 300, 700, FLAG_COMMITTED),
            // Final attempt: one read round in Block 0 with 40 ns of
            // server dwell on the slowest responder…
            mk(103, 102, SpanKind::ReadRound, 0, 310, 100, 0),
            mk(900, 103, SpanKind::ServerQueue, -1, 315, 25, 0),
            mk(901, 103, SpanKind::ServerQueue, -1, 315, 40, 0),
            // …a lock wait in Block 0, and a commit-phase prepare round
            // whose slowest responder parked its ack 30 ns for an fsync.
            mk(104, 102, SpanKind::LockWait, 0, 420, 50, 0),
            mk(105, 102, SpanKind::PrepareRound, -1, 500, 200, 0),
            mk(902, 105, SpanKind::WalPark, -1, 520, 30, 0),
            mk(903, 105, SpanKind::WalPark, -1, 520, 10, 0),
            // Rounds of the *failed* attempt must not count (they are redo).
            mk(106, 101, SpanKind::ReadRound, 0, 10, 100, 0),
        ];
        let paths = critical_path(&spans);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.class, 2);
        assert_eq!(p.end_to_end_ns, 1000);
        assert_eq!(p.redo_ns, 300);
        assert_eq!(p.lock_ns, 50);
        assert_eq!(p.srvq_ns, 40, "slowest responder's dwell, not the sum");
        assert_eq!(p.wal_ns, 30, "slowest responder's fsync park");
        assert_eq!(p.net_ns, (100 - 40) + (200 - 30));
        assert_eq!(
            p.redo_ns + p.lock_ns + p.srvq_ns + p.net_ns + p.wal_ns + p.local_ns,
            p.end_to_end_ns,
            "segments must telescope exactly"
        );
        assert_eq!(p.blocks.len(), 2);
        assert_eq!(p.blocks[0].block, -1);
        assert_eq!(p.blocks[0].net_ns, 170);
        assert_eq!(p.blocks[0].wal_ns, 30);
        assert_eq!(p.blocks[1].block, 0);
        assert_eq!(p.blocks[1].lock_ns, 50);
        assert_eq!(p.blocks[1].srvq_ns, 40);
    }

    #[test]
    fn critical_path_skips_uncommitted_and_incomplete_traces() {
        let txn_only = vec![Span {
            id: 1,
            parent: 0,
            trace: 1,
            kind: SpanKind::Txn,
            class: 0,
            block: -1,
            node: 0,
            start_ns: 0,
            dur_ns: 10,
            flags: FLAG_ROLLED_BACK,
        }];
        assert!(critical_path(&txn_only).is_empty(), "aborted txn skipped");
        let committed_without_attempt = vec![Span {
            flags: FLAG_COMMITTED,
            ..txn_only[0]
        }];
        assert!(
            critical_path(&committed_without_attempt).is_empty(),
            "ring-dropped attempt spans make the trace incomplete"
        );
    }

    #[test]
    fn aggregation_groups_by_class_and_block() {
        let p = TxnCritPath {
            trace: 1,
            class: 0,
            end_to_end_ns: 100,
            redo_ns: 10,
            lock_ns: 5,
            srvq_ns: 15,
            wal_ns: 4,
            net_ns: 26,
            local_ns: 40,
            blocks: vec![
                BlockCost {
                    block: -1,
                    net_ns: 10,
                    srvq_ns: 5,
                    lock_ns: 0,
                    wal_ns: 4,
                },
                BlockCost {
                    block: 0,
                    net_ns: 20,
                    srvq_ns: 10,
                    lock_ns: 5,
                    wal_ns: 0,
                },
            ],
        };
        let rows = aggregate_critpath(&[p.clone(), p], |c| format!("tpl{c}"));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].class, "tpl0");
        assert_eq!(rows[0].block, -1);
        assert_eq!(rows[0].txns, 2);
        assert_eq!(rows[0].redo_ns, 20);
        assert_eq!(rows[0].local_ns, 80);
        assert_eq!(rows[0].net_ns, 20, "block -1 rounds stay on the -1 row");
        assert_eq!(rows[1].block, 0);
        assert_eq!(rows[1].net_ns, 40);
        assert_eq!(rows[1].lock_ns, 10);
    }
}
