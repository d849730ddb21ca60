//! Durable write-ahead log for crash-restart recovery.
//!
//! Each server appends a [`WalRecord`] at every 2PC *decision point* —
//! prepare grants, commit applications, aborts — plus an incarnation bump
//! whenever it re-identifies itself after a wipe or restart. On restart the
//! log is replayed deterministically by [`replay`]: apply is idempotent
//! (keyed by `(TxnId, ReqId)`, the same key as the live completion
//! records), so a record that survives both in the log and in a retried
//! client request is applied exactly once. A torn tail — the frame being
//! written when the crash hit — is detected by the length prefix +
//! checksum and truncated; everything before it is whole by construction
//! (appends are frame-atomic in the ring backend and written in order in
//! the file backend).
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 LE] [crc: u64 LE] [payload: len bytes]
//! ```
//!
//! `crc` is [`checksum`] over the payload: its little-endian 8-byte words
//! (the last zero-padded) folded into a state seeded with the length, one
//! multiply per word (hand-rolled — no external deps). Every step is a
//! bijection, so a change confined to one word always changes the sum.
//! Decoding stops at the first frame whose header is short, whose payload
//! is short, whose checksum mismatches, or whose payload fails structural
//! decode; the byte offset of that frame is the truncation point.
//!
//! Object classes are encoded by id only: [`ObjClass`] equality and
//! hashing are by id (the name is diagnostics), so decode materialises a
//! `"wal"` placeholder name and round-trip *equality* still holds.
//!
//! ## One writer, each byte written once
//!
//! One private writer encodes a payload. [`WalRecord::frame_into`] reserves
//! the header in the caller's buffer, runs the writer straight after it and
//! patches `len` and `crc` over exactly those bytes; [`WalRecord::encode`]
//! is the same writer into a fresh `Vec`. A backend appends anything
//! [`Framed`]: a `WalRecord`, or a [`CommitApplyRef`], whose frame the
//! commit arm of the same writer encodes from borrowed writes. Each
//! backend frames into a buffer it keeps: [`MemLog`] is one byte ring —
//! frames back to back in one `Vec<u8>` beside a queue of frame lengths,
//! eviction advancing a head offset, the dead prefix compacted once it
//! reaches half the buffer, so the buffer never holds more than 2× its
//! live bytes and a steady-state append allocates nothing. [`FileLog`]
//! and [`FaultLog`] reuse one frame buffer each.
//!
//! The server's decision records copy no data: a commit is framed from
//! the `CommitReq`'s writes where the request lies, shared by every
//! member it was broadcast to ([`CommitApplyRef`]); a `PrepareGrant` takes
//! the locked set and gives it back for the prepared table. A record is
//! copied only when it goes onto the failed-append retry queue.
//!
//! ## Who decides when an ack may leave
//!
//! `DurableLog` (private to the crate) is the one place that implements
//! the [`DurabilityMode`] contract: it owns the backend, the appended and
//! durable watermarks, degraded mode with its retry queue and backoff, and
//! the acks parked on all of that. It touches no network and reads no
//! clock — every method that stamps or compares a time takes `now` from
//! its caller ([`crate::Server`], and ultimately `Server::drain`), so
//! `max_delay` aging and backoff run on whatever clock drives the server.
//!
//! A backend whose [`Persistence::durable_on_append`] is `true` promises
//! that an `Ok` append is already as durable as it will ever be — its
//! `sync` does nothing. [`MemLog`] is the one in-tree example. For such a
//! backend the durable watermark moves with the appended one: the gate
//! passes every ack at once, no dirty window opens, and no tick owes a
//! sync. A failed append still degrades the log and parks what depends on
//! the queued record, as on any backend. [`FileLog`] and [`FaultLog`] keep
//! the default `false` — `FaultLog` stages its appends until a sync, even
//! over a `MemLog` — so the durability chaos profiles still park acks.

use crate::messages::{Msg, ReqId, TxnId, Version};
use crate::store::Store;
use acn_obs::TraceCtx;
use acn_simnet::NodeId;
use acn_txir::{FieldId, IdMap, IdSet, ObjClass, ObjectId, ObjectVal, Value};
use std::collections::VecDeque;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One durable decision. The three 2PC records carry the `(txn, req)`
/// dedup key; replay uses it to apply each decision at most once and to
/// reconstruct the reply the server would have sent, so post-restart
/// client retries hit the completion records instead of re-executing.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Phase 1 voted yes: `objs` were locked for `txn`.
    PrepareGrant {
        /// The transaction that locked.
        txn: TxnId,
        /// Request id of the `PrepareReq` (dedup key half).
        req: ReqId,
        /// The objects locked on this replica.
        objs: Vec<ObjectId>,
    },
    /// Phase 2 commit: `writes` were applied forward-only.
    CommitApply {
        /// The committing transaction.
        txn: TxnId,
        /// Request id of the `CommitReq`.
        req: ReqId,
        /// `(object, version, value)` triples exactly as applied.
        writes: Vec<(ObjectId, Version, ObjectVal)>,
    },
    /// Phase 2 abort: `txn`'s locks were released.
    Abort {
        /// The aborting transaction.
        txn: TxnId,
        /// Request id of the `AbortReq`.
        req: ReqId,
    },
    /// The server adopted a new incarnation (restart replay or amnesia).
    IncarnationBump {
        /// The incarnation adopted.
        incarnation: u64,
    },
}

const TAG_PREPARE: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_INCARNATION: u8 = 4;

const VAL_UNIT: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_BOOL: u8 = 2;
const VAL_STR: u8 = 3;

/// Frame header: `len: u32` + `crc: u64`.
pub const FRAME_HDR: usize = 12;

/// The frame checksum. `bytes` are read as little-endian 8-byte words,
/// the last one zero-padded, and folded into a state seeded with the
/// length: xor the word in, multiply by an odd constant, xor the high half
/// down. A final multiply and shift mix the state. Every one of those
/// steps is a bijection of the state, so two inputs of one length that
/// differ only inside one word always sum differently: a flipped bit, or
/// any damage confined to one word, is always caught. The length seed
/// tells a payload from the same bytes with zeros appended.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let fold = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(K);
        h ^ (h >> 32)
    };
    let mut words = bytes.chunks_exact(8);
    let mut h = (bytes.len() as u64) ^ 0xcbf2_9ce4_8422_2325;
    for word in &mut words {
        h = fold(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(word));
    }
    let h = (h ^ (h >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

/// Append one frame to `out`: reserve the header, let `write` encode the
/// payload straight after it, then patch `len` and `crc` over exactly the
/// bytes it wrote.
fn frame_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HDR]);
    write(out);
    let (hdr, payload) = out[start..].split_at_mut(FRAME_HDR);
    hdr[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    hdr[4..].copy_from_slice(&checksum(payload).to_le_bytes());
}

/// The commit record's payload, from whatever holds its writes: the one
/// encoder behind [`WalRecord::CommitApply`] and [`CommitApplyRef`].
fn put_commit(
    buf: &mut Vec<u8>,
    txn: TxnId,
    req: ReqId,
    writes: &[(ObjectId, Version, ObjectVal)],
) {
    buf.push(TAG_COMMIT);
    put_txn(buf, txn);
    put_u64(buf, req);
    put_u32(buf, writes.len() as u32);
    for (obj, version, value) in writes {
        put_obj(buf, *obj);
        put_u64(buf, *version);
        put_val(buf, value);
    }
}

/// A record as [`Persistence::append`] takes it: something that frames as
/// one [`WalRecord`]. A `WalRecord` is one, and so is a [`CommitApplyRef`].
pub trait Framed {
    /// Append this record's whole frame to `out` (see
    /// [`WalRecord::frame_into`]).
    fn frame_into(&self, out: &mut Vec<u8>);
    /// The owned record, for whoever keeps records rather than frames
    /// (a staging backend, the failed-append retry queue).
    fn to_record(&self) -> WalRecord;
}

impl Framed for WalRecord {
    fn frame_into(&self, out: &mut Vec<u8>) {
        WalRecord::frame_into(self, out);
    }

    fn to_record(&self) -> WalRecord {
        self.clone()
    }
}

/// A [`WalRecord::CommitApply`] over writes it borrows — from the
/// `CommitReq` the server is applying, which every member of the write
/// quorum reads in place — so logging a commit copies none of them. Its
/// frame is byte-for-byte the owned record's.
#[derive(Debug, Clone, Copy)]
pub struct CommitApplyRef<'a> {
    /// The committing transaction.
    pub txn: TxnId,
    /// Request id of the `CommitReq`.
    pub req: ReqId,
    /// `(object, version, value)` triples exactly as applied.
    pub writes: &'a [(ObjectId, Version, ObjectVal)],
}

impl Framed for CommitApplyRef<'_> {
    fn frame_into(&self, out: &mut Vec<u8>) {
        frame_with(out, |buf| put_commit(buf, self.txn, self.req, self.writes));
    }

    fn to_record(&self) -> WalRecord {
        WalRecord::CommitApply {
            txn: self.txn,
            req: self.req,
            writes: self.writes.to_vec(),
        }
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Sequential little-endian reader over a payload slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|s| u16::from_le_bytes(s.try_into().unwrap()))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }
    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

fn put_txn(buf: &mut Vec<u8>, txn: TxnId) {
    put_u32(buf, txn.client.0);
    put_u64(buf, txn.seq);
}

fn get_txn(c: &mut Cursor<'_>) -> Option<TxnId> {
    Some(TxnId {
        client: NodeId(c.u32()?),
        seq: c.u64()?,
    })
}

fn put_obj(buf: &mut Vec<u8>, obj: ObjectId) {
    put_u16(buf, obj.class.id);
    put_u64(buf, obj.index);
}

fn get_obj(c: &mut Cursor<'_>) -> Option<ObjectId> {
    let id = c.u16()?;
    let index = c.u64()?;
    // Class names are diagnostics; identity (Eq/Hash/Ord) is by id.
    Some(ObjectId::new(ObjClass::new(id, "wal"), index))
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Unit => buf.push(VAL_UNIT),
        Value::Int(i) => {
            buf.push(VAL_INT);
            put_u64(buf, *i as u64);
        }
        Value::Bool(b) => {
            buf.push(VAL_BOOL);
            buf.push(*b as u8);
        }
        Value::Str(s) => {
            buf.push(VAL_STR);
            put_u32(buf, s.len() as u32);
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

fn get_value(c: &mut Cursor<'_>) -> Option<Value> {
    match c.u8()? {
        VAL_UNIT => Some(Value::Unit),
        VAL_INT => Some(Value::Int(c.u64()? as i64)),
        VAL_BOOL => match c.u8()? {
            0 => Some(Value::Bool(false)),
            1 => Some(Value::Bool(true)),
            _ => None,
        },
        VAL_STR => {
            let len = c.u32()? as usize;
            let raw = c.take(len)?;
            let s = std::str::from_utf8(raw).ok()?;
            Some(Value::str(s))
        }
        _ => None,
    }
}

fn put_val(buf: &mut Vec<u8>, val: &ObjectVal) {
    put_u32(buf, val.len() as u32);
    for (field, v) in val.iter() {
        put_u16(buf, field.0);
        put_value(buf, v);
    }
}

fn get_val(c: &mut Cursor<'_>) -> Option<ObjectVal> {
    let n = c.u32()? as usize;
    let mut pairs = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let field = FieldId(c.u16()?);
        pairs.push((field, get_value(c)?));
    }
    Some(ObjectVal::from_fields(pairs))
}

impl WalRecord {
    /// Encode the record payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        self.write_payload(&mut buf);
        buf
    }

    /// The one writer: append this record's payload bytes to `buf`.
    fn write_payload(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::PrepareGrant { txn, req, objs } => {
                buf.push(TAG_PREPARE);
                put_txn(buf, *txn);
                put_u64(buf, *req);
                put_u32(buf, objs.len() as u32);
                for obj in objs {
                    put_obj(buf, *obj);
                }
            }
            WalRecord::CommitApply { txn, req, writes } => put_commit(buf, *txn, *req, writes),
            WalRecord::Abort { txn, req } => {
                buf.push(TAG_ABORT);
                put_txn(buf, *txn);
                put_u64(buf, *req);
            }
            WalRecord::IncarnationBump { incarnation } => {
                buf.push(TAG_INCARNATION);
                put_u64(buf, *incarnation);
            }
        }
    }

    /// Decode a payload produced by [`encode`](Self::encode). `None` on
    /// any structural violation (bad tag, short buffer, trailing bytes).
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut c = Cursor::new(payload);
        let rec = match c.u8()? {
            TAG_PREPARE => {
                let txn = get_txn(&mut c)?;
                let req = c.u64()?;
                let n = c.u32()? as usize;
                let mut objs = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    objs.push(get_obj(&mut c)?);
                }
                WalRecord::PrepareGrant { txn, req, objs }
            }
            TAG_COMMIT => {
                let txn = get_txn(&mut c)?;
                let req = c.u64()?;
                let n = c.u32()? as usize;
                let mut writes = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let obj = get_obj(&mut c)?;
                    let version = c.u64()?;
                    writes.push((obj, version, get_val(&mut c)?));
                }
                WalRecord::CommitApply { txn, req, writes }
            }
            TAG_ABORT => {
                let txn = get_txn(&mut c)?;
                let req = c.u64()?;
                WalRecord::Abort { txn, req }
            }
            TAG_INCARNATION => WalRecord::IncarnationBump {
                incarnation: c.u64()?,
            },
            _ => return None,
        };
        if !c.done() {
            return None; // trailing garbage inside a checksummed frame
        }
        Some(rec)
    }

    /// Append this record as a whole frame (`len` + `crc` + payload): the
    /// header is reserved, the payload encoded straight after it, and the
    /// header patched over exactly those bytes — no intermediate buffer.
    pub fn frame_into(&self, out: &mut Vec<u8>) {
        frame_with(out, |buf| self.write_payload(buf));
    }
}

/// Decode a byte stream of frames. Returns the records decoded, the byte
/// length of the whole-frame prefix, and whether a torn/corrupt tail was
/// cut (`true` when `good_len < bytes.len()`).
pub fn decode_stream(bytes: &[u8]) -> (Vec<WalRecord>, usize, bool) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let Some(hdr) = bytes.get(at..at + FRAME_HDR) else {
            break; // short header: torn mid-header
        };
        let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
        let crc = u64::from_le_bytes(hdr[4..12].try_into().unwrap());
        let Some(payload) = bytes.get(at + FRAME_HDR..at + FRAME_HDR + len) else {
            break; // short payload: torn mid-frame
        };
        if checksum(payload) != crc {
            break; // bit rot or interleaved torn write
        }
        let Some(rec) = WalRecord::decode(payload) else {
            break; // checksum ok but structurally invalid — treat as torn
        };
        records.push(rec);
        at += FRAME_HDR + len;
    }
    (records, at, at < bytes.len())
}

/// What a backend hands back on [`Persistence::load`].
#[derive(Debug, Default)]
pub struct LoadedLog {
    /// Every whole record, in append order.
    pub records: Vec<WalRecord>,
    /// 1 when a torn/corrupt tail was detected and truncated, else 0.
    pub torn_tails_truncated: u64,
}

/// A storage-layer failure surfaced by a [`Persistence`] backend. The
/// server does not panic on these: it degrades to refusing new prepares
/// (the decision would not be durable) until a later sync succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// The backing device failed the write, flush, or sync.
    Io,
    /// The backing device is out of space (ENOSPC).
    NoSpace,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io => write!(f, "wal i/o error"),
            WalError::NoSpace => write!(f, "wal device out of space"),
        }
    }
}

impl std::error::Error for WalError {}

/// When an appended WAL record becomes *durable* — and therefore when the
/// server may release the ack that depends on it. The contract checked by
/// the lost-ack checker is: a reply covered by a WAL record is sent only
/// once that record has been synced (except under `Buffered`, which
/// deliberately weakens the contract to measure its cost).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Sync after every appended record before releasing its ack:
    /// strongest guarantee, one sync per decision.
    #[default]
    EveryRecord,
    /// Batch appended records and sync when either bound trips; acks for
    /// the batch are parked until the covering sync completes. Same
    /// guarantee as [`DurabilityMode::EveryRecord`] for every *released*
    /// ack, at a fraction of the syncs.
    GroupCommit {
        /// Sync once this many records are dirty.
        max_records: usize,
        /// Sync once the oldest dirty record has waited this long.
        max_delay: Duration,
    },
    /// Never sync from the ack path (the backend still flushes whenever
    /// it likes). Acks may outrun durability: an acked commit can be
    /// lost with the unsynced suffix. The honest upper bound for the
    /// sync-mode ablation.
    Buffered,
}

/// A durable decision log. `append` must be frame-atomic from the point
/// of view of a later `load` on the *same* backend instance family: the
/// ring never exposes partial frames, and the file backend truncates the
/// torn tail on load. `append` stages the record; `sync` makes every
/// staged record durable — a record is only guaranteed to survive a
/// crash once a covering `sync` returned `Ok`.
pub trait Persistence: Send {
    /// Append one record to the log. On `Err` the record was *not*
    /// appended; the caller must treat the covered decision as
    /// non-durable.
    fn append(&mut self, rec: &dyn Framed) -> Result<(), WalError>;
    /// Make every appended record durable. Idempotent when clean.
    fn sync(&mut self) -> Result<(), WalError>;
    /// Read back every whole record, truncating any torn tail in the
    /// backing store so subsequent appends extend a clean log.
    fn load(&mut self) -> LoadedLog;
    /// Destroy the log (crash-with-amnesia loses the disk too).
    fn reset(&mut self);
    /// Is a record durable the moment `append` returns `Ok` — is `sync` a
    /// no-op? Then the gate never parks an ack on this backend. Default
    /// `false`.
    fn durable_on_append(&self) -> bool {
        false
    }
}

/// Backoff bounds for retrying syncs (and failed-append re-stages) while
/// the backend keeps erroring. Without a backoff "degraded mode is due now"
/// turns a persistently failing device into a 100% CPU spin; the cap
/// bounds how late a healed backend is noticed, since each retry is a
/// wake the server asks the network for, at most 20 ms out.
const RETRY_BACKOFF_MIN: Duration = Duration::from_millis(1);
const RETRY_BACKOFF_MAX: Duration = Duration::from_millis(20);

/// Messages a server's pump steps between two syncs under group commit
/// (and on a backend that never syncs): see [`DurableLog::batch`].
const GROUP_COMMIT_BATCH: usize = 64;

/// A reply held back until the log records it certifies are durable.
pub(crate) struct Parked {
    /// The append watermark the reply depends on.
    mark: u64,
    /// Who asked.
    pub(crate) dst: NodeId,
    /// The withheld reply.
    pub(crate) reply: Msg,
    /// The request's trace context and when the reply was parked, for the
    /// `WalPark` span its release records.
    pub(crate) traced: Option<(TraceCtx, Instant)>,
}

/// The half of a [`DurableLog`] that lives in process memory and dies with
/// the process: a crash replaces it with `Volatile::default()`.
#[derive(Default)]
struct Volatile {
    /// Records appended since the process started (monotonic watermark).
    appended: u64,
    /// High-water mark of `appended` covered by a successful sync.
    durable: u64,
    /// When the oldest not-yet-durable record was appended — drives the
    /// group-commit `max_delay` deadline.
    first_dirty_at: Option<Instant>,
    /// True from an append/sync error until a sync succeeds with nothing
    /// left queued. While set the server refuses new prepares — it
    /// degrades to back-pressure instead of handing out grants the log
    /// cannot make durable (or panicking).
    failed: bool,
    /// Decision records (commit apply / abort) not yet staged because an
    /// append failed. The quorum's decision is applied to the store
    /// regardless (refusing it would strand the locks), but its ack is
    /// parked past these: every sync attempt first re-appends the queue in
    /// order, so the ack releases only once a re-append plus a covering
    /// sync made the record durable.
    retry: VecDeque<WalRecord>,
    /// Earliest time the next sync attempt may run while the backend is
    /// unhealthy; `None` = no backoff pending.
    retry_after: Option<Instant>,
    /// Current degraded-mode backoff step (doubles per failed attempt).
    backoff: Duration,
    /// Withheld replies, oldest first. Marks are taken in increasing
    /// order, so the front is always the next releasable entry.
    parked: VecDeque<Parked>,
}

/// The ack-after-durable gate: a [`Persistence`] backend plus everything
/// that decides *when a logged decision may be acknowledged* under a
/// [`DurabilityMode`] — the watermarks, degraded mode, the failed-append
/// retry queue and the parked acks. Only the backend (and the counters,
/// which describe the device rather than the process) survive a crash.
pub(crate) struct DurableLog {
    pub(crate) backend: Box<dyn Persistence>,
    pub(crate) mode: DurabilityMode,
    /// Append/sync failures the backend surfaced (`ServerStats::wal_io_errors`).
    pub(crate) io_errors: u64,
    /// Successful syncs that made at least one new record durable.
    pub(crate) sync_batches: u64,
    /// Records made durable across those syncs.
    pub(crate) records_synced: u64,
    mem: Volatile,
}

impl DurableLog {
    /// A clean log over `backend` under the default mode.
    pub(crate) fn new(backend: Box<dyn Persistence>) -> Self {
        DurableLog {
            backend,
            mode: DurabilityMode::default(),
            io_errors: 0,
            sync_batches: 0,
            records_synced: 0,
            mem: Volatile::default(),
        }
    }

    /// Is the backend currently refusing to make records durable?
    pub(crate) fn degraded(&self) -> bool {
        self.mem.failed
    }

    /// How many queued messages the server's pump may handle between
    /// syncs. Group commit batches by *arrival concurrency*: everything
    /// already queued is handled before the sync, so one fsync covers what
    /// accumulated while the previous one ran. `EveryRecord` syncs after
    /// each record the pump handles — unless the backend is durable on
    /// append: it never syncs, so it takes the group-commit bound and a
    /// pass steps the whole inbox. Records appended inline, on a sender's
    /// thread that may not sync, ride the next sync either way.
    pub(crate) fn batch(&self) -> usize {
        match self.mode {
            DurabilityMode::GroupCommit { .. } => GROUP_COMMIT_BATCH,
            _ if self.backend.durable_on_append() => GROUP_COMMIT_BATCH,
            DurabilityMode::EveryRecord | DurabilityMode::Buffered => 1,
        }
    }

    /// Stage one record, opening the dirty window. Returns `false` on
    /// backend error, in which case the record was *not* staged and the
    /// log is degraded until a sync succeeds.
    pub(crate) fn append(&mut self, rec: &dyn Framed, now: Instant) -> bool {
        let staged = self.backend.append(rec).is_ok();
        if staged {
            self.mem.appended += 1;
            if self.backend.durable_on_append() {
                self.mem.durable = self.mem.appended;
            } else {
                self.mem.first_dirty_at.get_or_insert(now);
            }
        } else {
            self.io_errors += 1;
            self.mem.failed = true;
        }
        staged
    }

    /// Stage a decision the quorum already took (commit apply / abort).
    /// If the append fails the record is queued for re-staging — and once
    /// anything is queued every later decision queues behind it, so the
    /// log keeps decision order and a mark taken in [`DurableLog::gate`]
    /// names exactly the slot its record will occupy. Only a record that
    /// goes onto the retry queue is copied.
    pub(crate) fn append_decision(&mut self, rec: &dyn Framed, now: Instant) {
        if !self.mem.retry.is_empty() || !self.append(rec, now) {
            self.mem.retry.push_back(rec.to_record());
        }
    }

    /// Ack-after-durable: pass a reply through the gate. `Some` = it may
    /// leave now. `None` = it certifies a logged decision
    /// (`PrepareResp { vote: true }`, `CommitAck`, `AbortAck`) while
    /// records are still dirty or queued, and is parked until a sync
    /// covers them. Reads and refusals (no vote ⇒ no grant record) always
    /// pass; `Buffered` never parks — that is exactly the honesty gap the
    /// ablation measures.
    pub(crate) fn gate(
        &mut self,
        dst: NodeId,
        reply: Msg,
        trace: Option<TraceCtx>,
        now: Instant,
    ) -> Option<Msg> {
        let certifies = matches!(
            &reply,
            Msg::PrepareResp { vote: true, .. } | Msg::CommitAck { .. } | Msg::AbortAck { .. }
        );
        // A queued retry counts into the covering watermark: its record is
        // not even staged yet, and will occupy the slots past everything
        // appended before it once the sync path re-stages the queue.
        let mark = self.mem.appended + self.mem.retry.len() as u64;
        if !certifies || self.mode == DurabilityMode::Buffered || self.mem.durable >= mark {
            return Some(reply);
        }
        let traced = trace.map(|ctx| (ctx, now));
        self.mem.parked.push_back(Parked {
            mark,
            dst,
            reply,
            traced,
        });
        None
    }

    /// When must the next sync happen? `None` = nothing scheduled (clean
    /// log, or `Buffered`, which only syncs at shutdown). Degraded mode is
    /// due after its backoff — immediate enough to exit back-pressure as
    /// the backend heals, without busy-spinning on one that stays broken.
    /// Under `GroupCommit` a parked ack makes a sync due at once: the
    /// driver handled its batch first, so the batch is whatever
    /// accumulated while the previous fsync ran, and ack latency stays one
    /// fsync rather than one aging period. (Holding waiters for a
    /// sub-millisecond accumulation window was tried and measured worse:
    /// the extra prepare-ack delay stretches lock hold time, and on a
    /// contended workload the conflict aborts that causes cost more than
    /// the larger batches save.) The record/age caps bound the dirty
    /// window when *no* ack is waiting (refused votes, best-effort
    /// decision appends).
    pub(crate) fn deadline(&self, now: Instant) -> Option<Instant> {
        let mem = &self.mem;
        if mem.failed || !mem.retry.is_empty() {
            return Some(mem.retry_after.unwrap_or(now));
        }
        let dirty = (mem.appended - mem.durable) as usize;
        if dirty == 0 {
            return None;
        }
        match self.mode {
            DurabilityMode::EveryRecord => Some(now),
            DurabilityMode::GroupCommit {
                max_records,
                max_delay,
            } => {
                let at_once = !mem.parked.is_empty() || dirty >= max_records;
                let aged = mem.first_dirty_at.unwrap_or(now) + max_delay;
                Some(if at_once { now } else { aged })
            }
            DurabilityMode::Buffered => None,
        }
    }

    /// Re-stage the retry queue, in order, then try to make every staged
    /// record durable. Returns `true` when the log is fully durable
    /// afterwards — which also clears degraded mode: the backend is
    /// healthy again and new prepares may be granted. Anything less (sync
    /// error, or a retry still queued) keeps degraded mode and backs off
    /// the next attempt so a dead backend is not hammered in a spin.
    pub(crate) fn sync(&mut self, now: Instant) -> bool {
        while let Some(rec) = self.mem.retry.pop_front() {
            if !self.append(&rec, now) {
                self.mem.retry.push_front(rec);
                break;
            }
        }
        let dirty = self.mem.appended - self.mem.durable;
        if dirty == 0 && !self.mem.failed && self.mem.retry.is_empty() {
            return true;
        }
        let synced = self.backend.sync().is_ok();
        if synced {
            self.sync_batches += (dirty > 0) as u64;
            self.records_synced += dirty;
            self.mem.durable = self.mem.appended;
            self.mem.first_dirty_at = None;
        } else {
            self.io_errors += 1;
        }
        let healthy = synced && self.mem.retry.is_empty();
        self.mem.failed = !healthy;
        self.mem.backoff = if healthy {
            Duration::ZERO
        } else {
            (self.mem.backoff * 2).clamp(RETRY_BACKOFF_MIN, RETRY_BACKOFF_MAX)
        };
        self.mem.retry_after = (!healthy).then(|| now + self.mem.backoff);
        healthy
    }

    /// The oldest parked ack, if the durable watermark now covers it.
    pub(crate) fn pop_covered(&mut self) -> Option<Parked> {
        if self.mem.parked.front()?.mark > self.mem.durable {
            return None;
        }
        self.mem.parked.pop_front()
    }

    /// The process died and took its memory with it. What the backend
    /// still holds is durable by definition, so the window restarts clean;
    /// queued retries never reached the log and die unstaged; parked acks
    /// die unsent — the records covering them may have gone with the
    /// unsynced suffix, and releasing them after recovery would be exactly
    /// the early ack the contract forbids.
    fn crash(&mut self) {
        self.mem = Volatile::default();
    }

    /// The process crashed: read back what survived on the backend —
    /// nothing, if the disk was lost with it.
    pub(crate) fn restart(&mut self, disk_lost: bool) -> LoadedLog {
        self.crash();
        if disk_lost {
            self.backend.reset();
        }
        self.backend.load()
    }
}

/// Default [`MemLog`] frame capacity. Old frames are dropped FIFO past
/// this; a restarted server covers the gap via the peer delta sync, so a
/// bounded ring is safe (if conservative) for tests.
pub const MEMLOG_CAPACITY: usize = 1 << 16;

/// In-memory ring backend for tests: frames survive a simulated restart
/// (the `Cluster` owns the log across the fault) but not process death.
///
/// One byte buffer holds the frames back to back, each framed in place by
/// [`WalRecord::frame_into`]. Evicting the oldest frame only advances
/// `head`; the dead prefix is compacted away once it reaches half the
/// buffer, so the buffer never holds more than about twice its live bytes
/// and a steady-state append allocates nothing.
#[derive(Debug, Default)]
pub struct MemLog {
    /// `bytes[head..]` are the live frames; `bytes[..head]` is dead.
    bytes: Vec<u8>,
    head: usize,
    /// Byte length of each live frame, oldest first.
    frames: VecDeque<usize>,
    capacity: usize,
}

impl MemLog {
    /// An empty ring with the default capacity.
    pub fn new() -> Self {
        MemLog::with_capacity(MEMLOG_CAPACITY)
    }

    /// An empty ring bounded to `capacity` frames.
    pub fn with_capacity(capacity: usize) -> Self {
        MemLog {
            capacity: capacity.max(1),
            ..MemLog::default()
        }
    }

    /// Number of frames currently held.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no frame is held.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

impl Persistence for MemLog {
    fn append(&mut self, rec: &dyn Framed) -> Result<(), WalError> {
        if self.frames.len() == self.capacity {
            self.head += self.frames.pop_front().unwrap_or(0);
        }
        if self.head > 0 && self.head >= self.bytes.len() / 2 {
            self.bytes.drain(..self.head);
            self.head = 0;
        }
        let start = self.bytes.len();
        rec.frame_into(&mut self.bytes);
        self.frames.push_back(self.bytes.len() - start);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        // Memory is "durable" for the simulated-restart lifetime.
        Ok(())
    }

    fn durable_on_append(&self) -> bool {
        true
    }

    fn load(&mut self) -> LoadedLog {
        let (records, _, torn) = decode_stream(&self.bytes[self.head..]);
        debug_assert!(!torn, "ring frames are whole by construction");
        LoadedLog {
            records,
            torn_tails_truncated: 0,
        }
    }

    fn reset(&mut self) {
        self.bytes.clear();
        self.head = 0;
        self.frames.clear();
    }
}

/// Append-only file backend: length-prefixed checksummed frames, each
/// written with one `write` at the end of the file (the file is opened in
/// append mode, so no seek precedes it). `load` truncates the file at the
/// first torn/corrupt frame.
#[derive(Debug)]
pub struct FileLog {
    path: PathBuf,
    file: std::fs::File,
    /// The frame being written, reused across appends.
    frame: Vec<u8>,
}

impl FileLog {
    /// Open (creating if absent) the log at `path`, keeping what it holds.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        Ok(FileLog {
            path,
            file,
            frame: Vec::new(),
        })
    }

    /// Open the log at `path` empty: create it, or truncate whatever an
    /// earlier run left there.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let log = FileLog::open(path)?;
        log.file.set_len(0)?;
        Ok(log)
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn io_err(e: std::io::Error) -> WalError {
    if e.raw_os_error() == Some(28) {
        // ENOSPC
        WalError::NoSpace
    } else {
        WalError::Io
    }
}

impl Persistence for FileLog {
    fn append(&mut self, rec: &dyn Framed) -> Result<(), WalError> {
        self.frame.clear();
        rec.frame_into(&mut self.frame);
        // A failed or partial write is a torn tail: the checksum catches
        // it on the next load. The error still propagates so the server
        // stops acking decisions it cannot make durable.
        self.file.write_all(&self.frame).map_err(io_err)
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data().map_err(io_err)
    }

    fn load(&mut self) -> LoadedLog {
        let mut bytes = Vec::new();
        if self.file.seek(SeekFrom::Start(0)).is_err() || self.file.read_to_end(&mut bytes).is_err()
        {
            return LoadedLog::default();
        }
        let (records, good_len, torn) = decode_stream(&bytes);
        if torn {
            let _ = self.file.set_len(good_len as u64);
        }
        LoadedLog {
            records,
            torn_tails_truncated: torn as u64,
        }
    }

    fn reset(&mut self) {
        let _ = self.file.set_len(0);
    }
}

/// Storage fault model for [`FaultLog`], driven by the same seeded-hash
/// discipline as the network chaos layer: every fault fate is a pure
/// function of `(seed, op counter)`, so a schedule replays exactly from
/// its seed.
#[derive(Debug, Clone)]
pub struct FaultLogConfig {
    /// Fault-schedule seed.
    pub seed: u64,
    /// Probability an append fails with [`WalError::Io`].
    pub append_error_p: f64,
    /// Probability a sync fails with [`WalError::Io`] (staged records
    /// stay staged and the next sync retries them).
    pub sync_error_p: f64,
    /// Total bytes the device accepts before appends fail with
    /// [`WalError::NoSpace`]. `None` = unbounded.
    pub byte_budget: Option<u64>,
    /// On [`Persistence::load`] (= the crash-restart path), drop every
    /// record appended since the last successful sync — the physical
    /// meaning of an unsynced page cache dying with the machine.
    pub lose_unsynced_on_restart: bool,
}

impl Default for FaultLogConfig {
    fn default() -> Self {
        FaultLogConfig {
            seed: 0,
            append_error_p: 0.0,
            sync_error_p: 0.0,
            byte_budget: None,
            lose_unsynced_on_restart: false,
        }
    }
}

// Same splitmix64 finalizer + unit-interval mapping the simnet chaos
// layer uses for per-message fates (kept local: they are private there).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const FAULT_SALT_APPEND: u64 = 0x5741_4c5f_4150_5044; // "WAL_APPD"
const FAULT_SALT_SYNC: u64 = 0x5741_4c5f_5359_4e43; // "WAL_SYNC"

/// Fault-injecting wrapper over any [`Persistence`] backend. Appends are
/// *staged* in memory and only reach the inner backend on a successful
/// `sync` — which is exactly what an OS page cache does between
/// `write(2)` and `fsync(2)` — so `lose_unsynced_on_restart` can model
/// crash-time loss of the unsynced suffix even over backends (like
/// [`MemLog`]) that have no real page cache.
pub struct FaultLog {
    inner: Box<dyn Persistence>,
    cfg: FaultLogConfig,
    /// Records appended since the last successful sync.
    staged: VecDeque<WalRecord>,
    /// Monotone op counter: one draw per append / sync attempt.
    ops: u64,
    /// Cumulative frame bytes accepted, checked against `byte_budget`.
    bytes_accepted: u64,
    /// Scratch frame the byte count is measured on, reused across appends.
    frame: Vec<u8>,
    /// Staged records dropped at load: the unsynced suffix under
    /// `lose_unsynced_on_restart`, plus anything the inner backend
    /// refused when a healthy load flushed the stage.
    suffix_records_lost: u64,
}

impl FaultLog {
    /// Wrap `inner` with the fault model in `cfg`.
    pub fn new(inner: Box<dyn Persistence>, cfg: FaultLogConfig) -> Self {
        FaultLog {
            inner,
            cfg,
            staged: VecDeque::new(),
            ops: 0,
            bytes_accepted: 0,
            frame: Vec::new(),
            suffix_records_lost: 0,
        }
    }

    /// Records staged but not yet durable.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Records dropped so far at load (suffix loss or a failed flush).
    pub fn suffix_records_lost(&self) -> u64 {
        self.suffix_records_lost
    }

    fn draw(&mut self, salt: u64) -> f64 {
        self.ops += 1;
        unit(mix64(self.cfg.seed ^ mix64(self.ops) ^ salt))
    }

    /// Push every staged record into the inner backend.
    fn flush_staged(&mut self) -> Result<(), WalError> {
        while let Some(rec) = self.staged.front() {
            self.inner.append(rec)?;
            self.staged.pop_front();
        }
        Ok(())
    }
}

impl Persistence for FaultLog {
    fn append(&mut self, rec: &dyn Framed) -> Result<(), WalError> {
        if self.cfg.append_error_p > 0.0 && self.draw(FAULT_SALT_APPEND) < self.cfg.append_error_p {
            return Err(WalError::Io);
        }
        self.frame.clear();
        rec.frame_into(&mut self.frame);
        let len = self.frame.len() as u64;
        if let Some(budget) = self.cfg.byte_budget {
            if self.bytes_accepted + len > budget {
                return Err(WalError::NoSpace);
            }
        }
        self.bytes_accepted += len;
        self.staged.push_back(rec.to_record());
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        if self.cfg.sync_error_p > 0.0 && self.draw(FAULT_SALT_SYNC) < self.cfg.sync_error_p {
            return Err(WalError::Io);
        }
        self.flush_staged()?;
        self.inner.sync()
    }

    fn load(&mut self) -> LoadedLog {
        if self.cfg.lose_unsynced_on_restart {
            // The crash takes the page cache with it: only synced
            // records survive into the replayed log.
            self.suffix_records_lost += self.staged.len() as u64;
            self.staged.clear();
        } else if self.flush_staged().is_err() {
            // A healthy restart flushes the stage, but the inner backend
            // can refuse mid-flush; whatever it refused is as lost as a
            // dropped suffix, so count it — silently omitting records
            // whose append was acknowledged with Ok would make the loss
            // invisible to the checker. (`flush_staged` pops each record
            // as it lands, so what remains staged is exactly the loss.)
            self.suffix_records_lost += self.staged.len() as u64;
            self.staged.clear();
        }
        self.inner.load()
    }

    fn reset(&mut self) {
        self.staged.clear();
        self.inner.reset();
    }
}

/// The deterministic product of replaying a log prefix.
#[derive(Debug, Default)]
pub struct ReplayState {
    /// The store as of the last whole record.
    pub store: Store,
    /// Prepared-but-undecided transactions and the objects they lock.
    pub prepared: IdMap<TxnId, Vec<ObjectId>>,
    /// `(dedup key, reply)` pairs in log order — the replies the server
    /// sent before crashing, for rebuilding the completion records so
    /// retries are answered without re-execution.
    pub replies: Vec<((TxnId, ReqId), Msg)>,
    /// Highest incarnation recorded in the log.
    pub incarnation: u64,
    /// Records applied (idempotent duplicates are skipped, not counted).
    pub records: u64,
}

/// Replay `records` into a fresh state. Deterministic and idempotent:
/// the same log always produces the same state, and a `(txn, req)` pair
/// appearing twice applies once — so replaying `log + log` equals
/// replaying `log`, and any *prefix* of a valid log is itself a valid
/// state (the property the WAL proptests pin down).
pub fn replay(records: impl IntoIterator<Item = WalRecord>) -> ReplayState {
    let mut st = ReplayState::default();
    let mut seen: IdSet<(TxnId, ReqId)> = IdSet::default();
    for rec in records {
        match rec {
            WalRecord::PrepareGrant { txn, req, objs } => {
                if !seen.insert((txn, req)) {
                    continue;
                }
                for obj in &objs {
                    st.store.try_lock(*obj, txn);
                }
                st.prepared.insert(txn, objs);
                st.replies.push((
                    (txn, req),
                    Msg::PrepareResp {
                        req,
                        vote: true,
                        invalid: vec![],
                        locked: None,
                        syncing: false,
                        wal_refused: false,
                    },
                ));
                st.records += 1;
            }
            WalRecord::CommitApply { txn, req, writes } => {
                if !seen.insert((txn, req)) {
                    continue;
                }
                for (obj, version, value) in writes {
                    st.store.apply(obj, version, value, txn);
                }
                st.prepared.remove(&txn);
                st.replies.push(((txn, req), Msg::CommitAck { req }));
                st.records += 1;
            }
            WalRecord::Abort { txn, req } => {
                if !seen.insert((txn, req)) {
                    continue;
                }
                if let Some(objs) = st.prepared.remove(&txn) {
                    for obj in objs {
                        st.store.unlock(obj, txn);
                    }
                }
                st.replies.push(((txn, req), Msg::AbortAck { req }));
                st.records += 1;
            }
            WalRecord::IncarnationBump { incarnation } => {
                st.incarnation = st.incarnation.max(incarnation);
                st.records += 1;
            }
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;

    const BRANCH: ObjClass = ObjClass::new(0, "Branch");
    const BAL: FieldId = FieldId(0);

    fn txn(seq: u64) -> TxnId {
        TxnId {
            client: NodeId(10),
            seq,
        }
    }

    fn val(v: i64) -> ObjectVal {
        ObjectVal::from_fields([(BAL, Value::Int(v))])
    }

    fn sample_records() -> Vec<WalRecord> {
        let obj = ObjectId::new(BRANCH, 3);
        vec![
            WalRecord::PrepareGrant {
                txn: txn(1),
                req: 7,
                objs: vec![obj, ObjectId::new(BRANCH, 4)],
            },
            WalRecord::CommitApply {
                txn: txn(1),
                req: 8,
                writes: vec![(obj, 1, val(42))],
            },
            WalRecord::PrepareGrant {
                txn: txn(2),
                req: 9,
                objs: vec![obj],
            },
            WalRecord::Abort {
                txn: txn(2),
                req: 10,
            },
            WalRecord::IncarnationBump { incarnation: 3 },
        ]
    }

    #[test]
    fn codec_round_trips_every_record_kind() {
        for rec in sample_records() {
            let payload = rec.encode();
            assert_eq!(WalRecord::decode(&payload), Some(rec));
        }
        // All value kinds survive, including strings.
        let rich = WalRecord::CommitApply {
            txn: txn(9),
            req: 99,
            writes: vec![(
                ObjectId::new(BRANCH, 0),
                5,
                ObjectVal::from_fields([
                    (FieldId(0), Value::Unit),
                    (FieldId(1), Value::Int(-7)),
                    (FieldId(2), Value::Bool(true)),
                    (FieldId(3), Value::str("warehouse")),
                ]),
            )],
        };
        assert_eq!(WalRecord::decode(&rich.encode()), Some(rich));
    }

    #[test]
    fn decode_rejects_trailing_bytes_and_bad_tags() {
        let mut payload = WalRecord::Abort {
            txn: txn(1),
            req: 2,
        }
        .encode();
        payload.push(0);
        assert_eq!(WalRecord::decode(&payload), None);
        assert_eq!(WalRecord::decode(&[200]), None);
        assert_eq!(WalRecord::decode(&[]), None);
    }

    #[test]
    fn stream_stops_at_corrupt_frame() {
        let mut bytes = Vec::new();
        for rec in sample_records() {
            rec.frame_into(&mut bytes);
        }
        let (recs, good, torn) = decode_stream(&bytes);
        assert_eq!(recs, sample_records());
        assert_eq!(good, bytes.len());
        assert!(!torn);

        // Flip one payload byte of the final frame: the stream must keep
        // everything before it and report a torn tail.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let (recs, good, torn) = decode_stream(&corrupt);
        assert_eq!(recs.len(), sample_records().len() - 1);
        assert!(good < corrupt.len());
        assert!(torn);
    }

    /// A few records of every kind: empty, short and longer bodies, a
    /// value with every field type.
    fn records_of_every_kind() -> Vec<WalRecord> {
        let obj = |i| ObjectId::new(BRANCH, i);
        let rich = ObjectVal::from_fields([
            (FieldId(0), Value::Unit),
            (FieldId(1), Value::Int(-2)),
            (FieldId(2), Value::Bool(true)),
            (FieldId(3), Value::str("abc")),
        ]);
        let mut recs = sample_records();
        recs.extend([
            WalRecord::PrepareGrant {
                txn: txn(3),
                req: 11,
                objs: vec![],
            },
            WalRecord::PrepareGrant {
                txn: txn(3),
                req: 12,
                objs: (0..5).map(obj).collect(),
            },
            WalRecord::CommitApply {
                txn: txn(4),
                req: 13,
                writes: vec![],
            },
            WalRecord::CommitApply {
                txn: txn(4),
                req: 14,
                writes: vec![(obj(1), 2, rich), (obj(2), 3, val(-1)), (obj(3), 4, val(0))],
            },
            WalRecord::Abort {
                txn: txn(5),
                req: u64::MAX,
            },
            WalRecord::IncarnationBump { incarnation: 0 },
        ]);
        recs
    }

    #[test]
    fn the_checksum_catches_every_single_bit_flip_of_a_frame() {
        for rec in records_of_every_kind() {
            let mut frame = Vec::new();
            rec.frame_into(&mut frame);
            assert_eq!(decode_stream(&frame).0, std::slice::from_ref(&rec));
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let (recs, good, torn) = decode_stream(&flipped);
                assert!(
                    recs.is_empty() && good == 0 && torn,
                    "bit {bit} of {rec:?} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn a_borrowed_commit_frames_as_the_owned_record() {
        for rec in records_of_every_kind() {
            let WalRecord::CommitApply { txn, req, writes } = &rec else {
                continue;
            };
            let borrowed = CommitApplyRef {
                txn: *txn,
                req: *req,
                writes,
            };
            let (mut owned, mut framed) = (Vec::new(), Vec::new());
            rec.frame_into(&mut owned);
            Framed::frame_into(&borrowed, &mut framed);
            assert_eq!(framed, owned);
            assert_eq!(borrowed.to_record(), rec);
        }
    }

    #[test]
    fn memlog_round_trips_and_bounds_capacity() {
        let mut log = MemLog::with_capacity(3);
        for rec in sample_records() {
            log.append(&rec).unwrap();
        }
        log.sync().unwrap();
        assert_eq!(log.len(), 3);
        let loaded = log.load();
        assert_eq!(loaded.torn_tails_truncated, 0);
        assert_eq!(loaded.records, sample_records()[2..].to_vec());
        log.reset();
        assert!(log.is_empty());
        assert!(log.load().records.is_empty());
    }

    #[test]
    fn filelog_survives_reopen_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "acn-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server-0.wal");
        {
            let mut log = FileLog::open(&path).unwrap();
            log.reset();
            for rec in sample_records() {
                log.append(&rec).unwrap();
            }
            log.sync().unwrap();
        }
        // Tear the tail: chop 3 bytes off the final frame.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let mut log = FileLog::open(&path).unwrap();
        let loaded = log.load();
        assert_eq!(loaded.torn_tails_truncated, 1);
        assert_eq!(loaded.records, sample_records()[..4].to_vec());

        // The torn tail was physically truncated: appending after the
        // load yields a clean log with the new record following record 4.
        log.append(&WalRecord::IncarnationBump { incarnation: 9 })
            .unwrap();
        let reloaded = log.load();
        assert_eq!(reloaded.torn_tails_truncated, 0);
        assert_eq!(reloaded.records.len(), 5);
        assert_eq!(
            reloaded.records[4],
            WalRecord::IncarnationBump { incarnation: 9 }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memlog_buffer_stays_under_twice_its_live_bytes() {
        let mut log = MemLog::with_capacity(3);
        for (i, rec) in sample_records().iter().cycle().take(200).enumerate() {
            log.append(rec).unwrap();
            let live: usize = log.frames.iter().sum();
            assert_eq!(log.bytes.len() - log.head, live, "append {i}");
            assert!(
                log.bytes.len() < 2 * live,
                "append {i}: dead prefix not compacted"
            );
        }
    }

    fn scratch_wal(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("acn-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server-0.wal");
        (dir, path)
    }

    fn frame(rec: &WalRecord) -> Vec<u8> {
        let mut bytes = Vec::new();
        rec.frame_into(&mut bytes);
        bytes
    }

    #[test]
    fn filelog_appends_at_the_end_of_a_reopened_log_before_any_load() {
        let (dir, path) = scratch_wal("reopen");
        let recs = sample_records();
        FileLog::create(&path).unwrap().append(&recs[0]).unwrap();
        let mut log = FileLog::open(&path).unwrap();
        log.append(&recs[1]).unwrap();
        assert_eq!(log.load().records, recs[..2].to_vec());
        // `create` starts over whatever the file held.
        let mut fresh = FileLog::create(&path).unwrap();
        assert!(fresh.load().records.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filelog_append_after_a_torn_tail_cut_lands_right_after_it() {
        let (dir, path) = scratch_wal("cut");
        let recs = sample_records();
        let mut log = FileLog::create(&path).unwrap();
        log.append(&recs[0]).unwrap();
        log.append(&recs[1]).unwrap();
        drop(log);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let mut log = FileLog::open(&path).unwrap();
        assert_eq!(log.load().torn_tails_truncated, 1);
        log.append(&recs[3]).unwrap();
        let want = [frame(&recs[0]), frame(&recs[3])].concat();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            want,
            "no gap, nothing overwritten"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_reconstructs_store_prepared_and_replies() {
        let st = replay(sample_records());
        let obj = ObjectId::new(BRANCH, 3);
        let (version, value, lock) = st.store.read(obj);
        assert_eq!(version, 1);
        assert_eq!(value.get(BAL), Some(&Value::Int(42)));
        assert_eq!(lock, None, "commit and abort must both have unlocked");
        // txn(1)'s grant also locked object 4 but its commit never wrote
        // it: apply() only releases what it writes, so the lock survives
        // replay exactly as it survived live — the TTL sweep reclaims it.
        assert_eq!(st.store.lock_holder(ObjectId::new(BRANCH, 4)), Some(txn(1)));
        assert!(st.prepared.is_empty());
        assert_eq!(st.incarnation, 3);
        assert_eq!(st.records, 5);
        assert_eq!(st.replies.len(), 4);
    }

    #[test]
    fn replay_is_idempotent_per_dedup_key() {
        let once = replay(sample_records());
        let twice = replay(sample_records().into_iter().chain(sample_records()));
        assert_eq!(once.store.digest(), twice.store.digest());
        assert_eq!(once.records, twice.records - 1, "only the bump re-applies");
        assert_eq!(once.replies.len(), twice.replies.len());
    }

    #[test]
    fn fault_log_drops_unsynced_suffix_on_restart_load() {
        let mut log = FaultLog::new(
            Box::new(MemLog::new()),
            FaultLogConfig {
                lose_unsynced_on_restart: true,
                ..FaultLogConfig::default()
            },
        );
        let recs = sample_records();
        // First three records synced, last two staged only.
        for rec in &recs[..3] {
            log.append(rec).unwrap();
        }
        log.sync().unwrap();
        for rec in &recs[3..] {
            log.append(rec).unwrap();
        }
        assert_eq!(log.staged_len(), 2);
        let loaded = log.load();
        assert_eq!(loaded.records, recs[..3].to_vec(), "suffix lost");
        assert_eq!(log.suffix_records_lost(), 2);
        // Without suffix loss, load flushes the stage instead.
        let mut keep = FaultLog::new(Box::new(MemLog::new()), FaultLogConfig::default());
        for rec in &recs {
            keep.append(rec).unwrap();
        }
        assert_eq!(keep.load().records, recs);
    }

    /// Inner backend that accepts a fixed number of appends, then
    /// refuses with [`WalError::Io`] — for driving flush failures.
    struct QuotaLog {
        inner: MemLog,
        accepts: usize,
    }

    impl Persistence for QuotaLog {
        fn append(&mut self, rec: &dyn Framed) -> Result<(), WalError> {
            if self.accepts == 0 {
                return Err(WalError::Io);
            }
            self.accepts -= 1;
            self.inner.append(rec)
        }

        fn sync(&mut self) -> Result<(), WalError> {
            self.inner.sync()
        }

        fn load(&mut self) -> LoadedLog {
            self.inner.load()
        }

        fn reset(&mut self) {
            self.inner.reset();
        }
    }

    #[test]
    fn fault_log_counts_records_a_failed_flush_drops_at_load() {
        // Healthy-restart load (no suffix loss configured), but the inner
        // backend dies one record into the flush: the record that landed
        // is loaded, the two it refused are counted as lost rather than
        // silently vanishing.
        let mut log = FaultLog::new(
            Box::new(QuotaLog {
                inner: MemLog::new(),
                accepts: 1,
            }),
            FaultLogConfig::default(),
        );
        let recs = sample_records();
        for rec in &recs[..3] {
            log.append(rec).unwrap();
        }
        let loaded = log.load();
        assert_eq!(loaded.records, recs[..1].to_vec());
        assert_eq!(log.suffix_records_lost(), 2);
        assert_eq!(log.staged_len(), 0, "nothing left half-staged");
    }

    #[test]
    fn fault_log_errors_are_seeded_and_enospc_trips_on_budget() {
        let cfg = FaultLogConfig {
            seed: 7,
            append_error_p: 0.5,
            ..FaultLogConfig::default()
        };
        let run = |cfg: FaultLogConfig| {
            let mut log = FaultLog::new(Box::new(MemLog::new()), cfg);
            (0..32)
                .map(|i| {
                    log.append(&WalRecord::IncarnationBump { incarnation: i })
                        .is_ok()
                })
                .collect::<Vec<bool>>()
        };
        let a = run(cfg.clone());
        assert_eq!(a, run(cfg), "same seed, same fault schedule");
        assert!(a.iter().any(|ok| *ok) && a.iter().any(|ok| !*ok));

        let mut small = FaultLog::new(
            Box::new(MemLog::new()),
            FaultLogConfig {
                byte_budget: Some(64),
                ..FaultLogConfig::default()
            },
        );
        let mut saw_nospace = false;
        for i in 0..16 {
            if small.append(&WalRecord::IncarnationBump { incarnation: i })
                == Err(WalError::NoSpace)
            {
                saw_nospace = true;
            }
        }
        assert!(saw_nospace, "byte budget must surface ENOSPC");
    }

    #[test]
    fn fault_log_failed_sync_keeps_records_staged_for_retry() {
        // sync_error_p = 1 fails every sync; staged records must survive
        // so a later (clean) sync can still land them.
        let mut log = FaultLog::new(
            Box::new(MemLog::new()),
            FaultLogConfig {
                sync_error_p: 1.0,
                ..FaultLogConfig::default()
            },
        );
        log.append(&WalRecord::IncarnationBump { incarnation: 1 })
            .unwrap();
        assert_eq!(log.sync(), Err(WalError::Io));
        assert_eq!(log.staged_len(), 1, "failed sync must not lose records");
        log.cfg.sync_error_p = 0.0;
        log.sync().unwrap();
        assert_eq!(log.staged_len(), 0);
        assert_eq!(log.load().records.len(), 1);
    }

    #[test]
    fn replay_of_undecided_prepare_keeps_the_lock() {
        let obj = ObjectId::new(BRANCH, 8);
        let st = replay([WalRecord::PrepareGrant {
            txn: txn(5),
            req: 1,
            objs: vec![obj],
        }]);
        assert_eq!(st.store.lock_holder(obj), Some(txn(5)));
        assert_eq!(st.prepared.get(&txn(5)), Some(&vec![obj]));
    }
}
