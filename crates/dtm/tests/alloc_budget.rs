//! Allocation budget of a log append, of a server's two decision arms and
//! of a whole solo commit.
//!
//! A counting global allocator tallies, per thread, every `alloc`,
//! `alloc_zeroed` and `realloc`; each measured call runs between two reads
//! of the calling thread's counter, so the harness's other threads never
//! leak into a count. Everything a call consumes (its request, its record)
//! is built before the counter is read.
//!
//! * A steady-state [`MemLog`] append frames the record in place into the
//!   ring's one buffer and allocates nothing.
//! * [`Server::step`] of a `CommitReq` and of a `PrepareReq`, on a server
//!   past its warm-up (completion records at their bound, store and
//!   contention maps sized, ring buffer grown), allocates exactly the
//!   counts pinned below. The step reads the request in place, the commit
//!   record is framed from the request's writes and the grant record moves
//!   the locked set, so a count that grows means a copy came back.
//! * An [`ObjectVal`] is shared, not copied: cloning a populated one
//!   allocates nothing, so neither does the store read behind each object
//!   of a `ReadBatchReq` — its step allocates the reply's vectors only.
//! * A solo Bank-shaped transfer through a zero-latency [`Cluster`]
//!   allocates the same count on its client's thread every time: the
//!   servers run inline there, so the count covers client and servers,
//!   and each round's request is one allocation that every member reads.

use acn_dtm::{
    BatchRead, Cluster, ClusterConfig, DtmClient, MemLog, Msg, Persistence, Server, TxnCtx, TxnId,
    Version, WalRecord, WindowConfig,
};
use acn_simnet::NodeId;
use acn_txir::{FieldId, ObjClass, ObjectId, ObjectVal, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and count the allocations it made on this thread.
fn allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const ACCT: ObjClass = ObjClass::new(0, "acct");
const BAL: FieldId = FieldId(0);
const CLIENT: NodeId = NodeId(9);

/// The four objects a Bank transfer writes.
fn objs() -> [ObjectId; 4] {
    [0, 1, 2, 3].map(|i| ObjectId::new(ACCT, i))
}

fn txn(seq: u64) -> TxnId {
    TxnId {
        client: CLIENT,
        seq,
    }
}

/// A 4-write `CommitReq` payload at `version`.
fn writes(version: Version) -> Vec<(ObjectId, Version, ObjectVal)> {
    objs()
        .into_iter()
        .map(|o| {
            (
                o,
                version,
                ObjectVal::from_fields([(BAL, Value::Int(version as i64))]),
            )
        })
        .collect()
}

#[test]
fn steady_state_memlog_append_allocates_nothing() {
    let mut log = MemLog::with_capacity(64);
    let recs: Vec<WalRecord> = (0..2_000u64)
        .map(|seq| WalRecord::CommitApply {
            txn: txn(seq),
            req: seq,
            writes: writes(seq),
        })
        .collect();
    // Warm-up: fill the ring, evict and compact until the buffer is grown.
    for rec in &recs[..1_000] {
        log.append(rec).unwrap();
    }
    let (_, n) = allocs(|| {
        for rec in &recs[1_000..] {
            log.append(rec).unwrap();
        }
    });
    assert_eq!(n, 0, "1000 steady-state appends allocated {n} times");
    assert_eq!(log.len(), 64);
}

/// Prepare then commit the four objects once, as transaction `seq` —
/// returning what the prepare and the commit step each allocated.
fn transfer(s: &mut Server, seq: u64, now: Instant) -> (u64, u64) {
    let version = seq + 1;
    let prepare = Msg::PrepareReq {
        txn: txn(seq),
        req: 2 * seq,
        validate: objs().map(|o| (o, seq)).to_vec(),
        writes: objs().map(|o| (o, seq)).to_vec(),
    };
    let commit = Msg::CommitReq {
        txn: txn(seq),
        req: 2 * seq + 1,
        writes: writes(version),
    };
    let (vote, prepare_allocs) = allocs(|| s.step(CLIENT, &prepare, now));
    assert!(
        matches!(vote, Some(Msg::PrepareResp { vote: true, .. })),
        "{vote:?}"
    );
    drop(vote);
    let (ack, commit_allocs) = allocs(|| s.step(CLIENT, &commit, now));
    assert!(matches!(ack, Some(Msg::CommitAck { .. })), "{ack:?}");
    (prepare_allocs, commit_allocs)
}

/// What `Server::step` allocates for a `PrepareReq` that votes yes on four
/// objects: the locked-set `Vec` (it moves through the grant record into
/// the prepared table). The grant's frame lands in the ring's buffer, the
/// read-set check finds nothing stale (an empty `Vec`), and the reply and
/// its dedup-cache copy carry no heap data.
const PREPARE_ALLOCS: u64 = 1;

/// What `Server::step` allocates for a 4-write `CommitReq`: nothing. The
/// record is framed from the request's writes into the ring's buffer, the
/// store takes a shared handle on each value, and the store, contention
/// window, dedup cache and prepared table are at their steady-state sizes.
const COMMIT_ALLOCS: u64 = 0;

#[test]
fn server_decision_arms_allocate_the_pinned_counts() {
    let mut s = Server::new(WindowConfig::default());
    // A small ring reaches its steady-state buffer within the warm-up; the
    // default one (`MEMLOG_CAPACITY` frames) keeps doubling its buffer
    // until it first fills, ≈ 33 k transfers in.
    s.set_persistence(Box::new(MemLog::with_capacity(256)));
    // One instant throughout: no contention-window rotation, no TTL sweep.
    let now = Instant::now();
    // Warm-up past the completion records' per-client bound (two records
    // per transfer), so the client's queue has stopped growing.
    let mut seq = 0;
    while seq < 6_000 {
        transfer(&mut s, seq, now);
        seq += 1;
    }
    for _ in 0..500 {
        let (prepare, commit) = transfer(&mut s, seq, now);
        assert_eq!(prepare, PREPARE_ALLOCS, "PrepareReq, transfer {seq}");
        assert_eq!(commit, COMMIT_ALLOCS, "CommitReq, transfer {seq}");
        seq += 1;
    }
}

#[test]
fn cloning_a_populated_object_value_allocates_nothing() {
    let val = ObjectVal::from_fields((0..4).map(|f| (FieldId(f), Value::Int(f.into()))));
    let (clones, n) = allocs(|| (0..1_000).map(|_| val.clone()).fold(0, |k, c| k + c.len()));
    assert_eq!(clones, 4_000);
    assert_eq!(n, 0, "1000 clones allocated {n} times");
}

/// What `Server::step` allocates for a `ReadBatchReq` of two populated
/// objects that presents a current read-set and samples one class: the
/// reply's `reads` and `levels` vectors. The values ride in the reply as
/// shared handles on the store's, the read-set check finds nothing stale
/// (an empty `Vec`), and a read is neither logged nor deduped.
const READ_BATCH_ALLOCS: u64 = 2;

#[test]
fn a_read_batch_allocates_the_reply_vectors_only() {
    let mut s = Server::new(WindowConfig::default());
    s.set_persistence(Box::new(MemLog::with_capacity(256)));
    let now = Instant::now();
    transfer(&mut s, 0, now);
    let [a, b, ..] = objs();
    for seq in 1..100u64 {
        let read = Msg::ReadBatchReq {
            txn: txn(1_000 + seq),
            req: seq,
            objs: vec![a, b],
            validate: vec![(a, 1), (b, 1)],
            sample: vec![ACCT.id],
        };
        let (reply, n) = allocs(|| s.step(CLIENT, &read, now));
        let Some(Msg::ReadBatchResp { reads, invalid, .. }) = reply else {
            panic!("{reply:?}");
        };
        assert!(invalid.is_empty());
        assert!(reads
            .iter()
            .all(|r: &BatchRead| r.version == 1 && !r.value.is_empty()));
        assert_eq!(n, READ_BATCH_ALLOCS, "ReadBatchReq {seq}");
    }
}

const BRANCH: ObjClass = ObjClass::new(1, "branch");

/// A Bank-shaped transfer as one client transaction: one read round over
/// two branches and two accounts, four writes, one commit.
fn bank_transfer(client: &mut DtmClient, amount: i64) {
    let objs = [
        ObjectId::new(BRANCH, 0),
        ObjectId::new(BRANCH, 1),
        ObjectId::new(ACCT, 0),
        ObjectId::new(ACCT, 1),
    ];
    let mut ctx = TxnCtx::begin(client);
    ctx.open_batch(client, &objs).expect("a solo read round");
    for (i, &obj) in objs.iter().enumerate() {
        ctx.open(client, obj, true).expect("already read");
        let bal = ctx.get_field(obj, BAL).as_int().unwrap_or(0);
        let delta = if i % 2 == 0 { -amount } else { amount };
        ctx.set_field(obj, BAL, Value::Int(bal + delta));
    }
    ctx.commit(client).expect("a solo commit");
}

/// What one solo Bank-shaped transfer allocates on its client's thread,
/// through a 4-server zero-latency Memory cluster: the client's whole
/// transaction — context, read round, prepare and commit rounds — and
/// every server visit, since each server runs inline on the thread that
/// sends to it. Measured past the completion records' per-client bound,
/// so each server's queue sheds one record per record it keeps, and
/// across contention-window rotations, which refill their maps in place.
const WHOLE_COMMIT_ALLOCS: u64 = 40;

#[test]
fn a_solo_transfer_through_a_cluster_allocates_the_pinned_count() {
    let cfg = ClusterConfig {
        // No TTL sweep inside the measured run: it is not a per-commit
        // cost. The contention window keeps its default length.
        prepared_ttl: Duration::from_secs(3600),
        ..ClusterConfig::test(4, 1)
    };
    // 1 000 transfers paced this way span two contention windows, so
    // every server rotates its window, with writes in it, inside them.
    let pace = 2 * cfg.window.window / 1_000;
    let cluster = Cluster::start(cfg);
    let mut client = cluster.client(0);
    // Warm-up past every server's completion-record bound (two records
    // per transfer), so the queues, the store and the client's maps have
    // stopped growing. Its last 1 000 transfers are paced, so the maps a
    // rotation refills have been filled once, however fast the rest ran.
    for i in 0..5_000 {
        bank_transfer(&mut client, i % 7 + 1);
        if i >= 4_000 {
            std::thread::sleep(pace);
        }
    }
    // 1 000 paced transfers, counted. The run is sized by count, not
    // time: a longer one would cross a doubling of the WAL ring's buffer,
    // which grows until the ring first fills.
    for i in 0..1_000 {
        let ((), n) = allocs(|| bank_transfer(&mut client, i % 7 + 1));
        assert_eq!(n, WHOLE_COMMIT_ALLOCS, "transfer {i}");
        std::thread::sleep(pace);
    }
    cluster.shutdown();
}
