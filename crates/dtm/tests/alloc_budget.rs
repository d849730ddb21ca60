//! Allocation budget of a log append and of a server's two decision arms.
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
//!   past its warm-up (dedup cache full, store and contention maps sized,
//!   ring buffer grown), allocates exactly the counts pinned below. The
//!   commit record moves the request's writes and the grant record moves
//!   the locked set, so a count that grows means a copy came back.

use acn_dtm::{MemLog, Msg, Persistence, Server, TxnId, Version, WalRecord, WindowConfig};
use acn_simnet::NodeId;
use acn_txir::{FieldId, ObjClass, ObjectId, ObjectVal, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

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
    let (vote, prepare_allocs) = allocs(|| s.step(CLIENT, prepare, now));
    assert!(
        matches!(vote, Some(Msg::PrepareResp { vote: true, .. })),
        "{vote:?}"
    );
    drop(vote);
    let (ack, commit_allocs) = allocs(|| s.step(CLIENT, commit, now));
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
/// record is framed into the ring's buffer, the writes it moved in come
/// back and are applied by move, and the store, contention window, dedup
/// cache and prepared table are at their steady-state sizes.
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
    // Warm-up past the dedup cache's capacity (two entries per transfer),
    // so its map and order queue have stopped growing.
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
