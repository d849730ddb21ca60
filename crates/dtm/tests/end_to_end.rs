//! End-to-end QR-DTM / QR-CN tests against live server threads.

use acn_dtm::{AbortScope, Cluster, ClusterConfig, DtmError, TxnCtx};
use acn_txir::{FieldId, ObjClass, ObjectId, Value};

const ACCOUNT: ObjClass = ObjClass::new(1, "Account");
const BRANCH: ObjClass = ObjClass::new(0, "Branch");
const BAL: FieldId = FieldId(0);

fn acct(i: u64) -> ObjectId {
    ObjectId::new(ACCOUNT, i)
}
fn branch(i: u64) -> ObjectId {
    ObjectId::new(BRANCH, i)
}

/// Write `value` into `obj.BAL` with a standalone transaction.
fn seed(client: &mut acn_dtm::DtmClient, obj: ObjectId, value: i64) {
    let mut ctx = TxnCtx::begin(client);
    ctx.open(client, obj, true).unwrap();
    ctx.set_field(obj, BAL, Value::Int(value));
    ctx.commit(client).unwrap();
}

fn read_bal(client: &mut acn_dtm::DtmClient, obj: ObjectId) -> i64 {
    let mut ctx = TxnCtx::begin(client);
    ctx.open(client, obj, false).unwrap();
    let v = ctx.get_field(obj, BAL).as_int().unwrap();
    ctx.commit(client).unwrap();
    v
}

#[test]
fn write_then_read_round_trips() {
    let cluster = Cluster::start(ClusterConfig::test(10, 2));
    let mut c0 = cluster.client(0);
    let mut c1 = cluster.client(1);
    seed(&mut c0, acct(1), 500);
    // A *different* client through a *different* read quorum sees it.
    assert_eq!(read_bal(&mut c1, acct(1)), 500);
    cluster.shutdown();
}

#[test]
fn fresh_objects_read_zero() {
    let cluster = Cluster::start(ClusterConfig::test(4, 1));
    let mut c = cluster.client(0);
    assert_eq!(read_bal(&mut c, acct(999)), 0);
    cluster.shutdown();
}

#[test]
fn repeated_open_is_local() {
    let cluster = Cluster::start(ClusterConfig::test(4, 1));
    let mut c = cluster.client(0);
    seed(&mut c, acct(1), 7);
    let before = c.stats().remote_reads;
    let mut ctx = TxnCtx::begin(&mut c);
    ctx.open(&mut c, acct(1), false).unwrap();
    ctx.open(&mut c, acct(1), true).unwrap(); // upgrade, still local
    ctx.open(&mut c, acct(1), false).unwrap();
    assert_eq!(c.stats().remote_reads, before + 1, "one remote fetch only");
    ctx.set_field(acct(1), BAL, Value::Int(8));
    ctx.commit(&mut c).unwrap();
    assert_eq!(read_bal(&mut c, acct(1)), 8);
    cluster.shutdown();
}

#[test]
fn blind_open_commits_with_no_read_round() {
    let cluster = Cluster::start(ClusterConfig::test(4, 1));
    let mut c = cluster.client(0);
    let before = c.stats().remote_reads;
    let mut ctx = TxnCtx::begin(&mut c);
    ctx.open_blind(acct(50), true);
    ctx.set_field(acct(50), BAL, Value::Int(9));
    ctx.commit(&mut c).unwrap();
    assert_eq!(
        c.stats().remote_reads,
        before,
        "a blind insert pays no read round"
    );
    assert_eq!(read_bal(&mut c, acct(50)), 9);
    cluster.shutdown();
}

#[test]
fn blind_open_of_existing_object_is_rejected() {
    let cluster = Cluster::start(ClusterConfig::test(4, 1));
    let mut c = cluster.client(0);
    seed(&mut c, acct(51), 123);
    // A blind open presumes version 0; prepare validation must catch the
    // existing object before the write can clobber it.
    let mut ctx = TxnCtx::begin(&mut c);
    ctx.open_blind(acct(51), true);
    ctx.set_field(acct(51), BAL, Value::Int(0));
    match ctx.commit(&mut c) {
        Err(DtmError::Conflict { invalid, .. }) => assert_eq!(invalid, vec![acct(51)]),
        other => panic!("expected commit conflict, got {other:?}"),
    }
    assert_eq!(read_bal(&mut c, acct(51)), 123, "existing value survives");
    cluster.shutdown();
}

#[test]
fn stale_read_set_detected_on_next_open() {
    let cluster = Cluster::start(ClusterConfig::test(10, 2));
    let mut c0 = cluster.client(0);
    let mut c1 = cluster.client(1);
    seed(&mut c0, acct(1), 100);

    // c1 reads acct(1) …
    let mut ctx = TxnCtx::begin(&mut c1);
    ctx.open(&mut c1, acct(1), false).unwrap();
    // … c0 overwrites it behind c1's back …
    seed(&mut c0, acct(1), 200);
    // … so c1's next open reports the invalidation.
    let err = ctx.open(&mut c1, acct(2), false).unwrap_err();
    match err {
        DtmError::Invalidated { objs } => assert_eq!(objs, vec![acct(1)]),
        other => panic!("expected invalidation, got {other}"),
    }
    cluster.shutdown();
}

#[test]
fn commit_conflict_detected_at_prepare() {
    let cluster = Cluster::start(ClusterConfig::test(10, 2));
    let mut c0 = cluster.client(0);
    let mut c1 = cluster.client(1);
    seed(&mut c0, acct(1), 100);

    // Both read the same version, both try to commit a write.
    let mut t0 = TxnCtx::begin(&mut c0);
    t0.open(&mut c0, acct(1), true).unwrap();
    let mut t1 = TxnCtx::begin(&mut c1);
    t1.open(&mut c1, acct(1), true).unwrap();
    t0.set_field(acct(1), BAL, Value::Int(110));
    t1.set_field(acct(1), BAL, Value::Int(120));
    let r0 = t0.commit(&mut c0);
    let r1 = t1.commit(&mut c1);
    assert!(
        r0.is_ok() != r1.is_ok(),
        "exactly one writer must win: {r0:?} vs {r1:?}"
    );
    let expected = if r0.is_ok() { 110 } else { 120 };
    assert_eq!(read_bal(&mut c0, acct(1)), expected);
    cluster.shutdown();
}

#[test]
fn read_only_commit_validates() {
    let cluster = Cluster::start(ClusterConfig::test(10, 2));
    let mut c0 = cluster.client(0);
    let mut c1 = cluster.client(1);
    seed(&mut c0, acct(1), 5);

    let mut ro = TxnCtx::begin(&mut c1);
    ro.open(&mut c1, acct(1), false).unwrap();
    seed(&mut c0, acct(1), 6); // invalidate before the read-only commit
    match ro.commit(&mut c1) {
        Err(DtmError::Conflict {
            invalid,
            locked,
            syncing,
            wal_refused,
        }) => {
            assert_eq!(invalid, vec![acct(1)]);
            assert!(locked.is_empty(), "validation failure, not a lock conflict");
            assert!(!syncing, "no replica was recovering");
            assert!(!wal_refused, "no replica's storage was failing");
        }
        other => panic!("expected conflict, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn closed_nesting_partial_abort_scope() {
    let cluster = Cluster::start(ClusterConfig::test(10, 2));
    let mut c0 = cluster.client(0);
    let mut c1 = cluster.client(1);
    seed(&mut c0, acct(1), 10);
    seed(&mut c0, branch(1), 1000);

    // The transaction reads the account; its Block reads the branch.
    let mut txn = TxnCtx::begin(&mut c1);
    txn.open(&mut c1, acct(1), true).unwrap();
    txn.begin_block();
    txn.open(&mut c1, branch(1), true).unwrap();

    // Another client invalidates the BRANCH (Block-first object).
    seed(&mut c0, branch(1), 2000);

    // The Block's next remote open reports branch(1) stale → child scope.
    let err = txn.open(&mut c1, branch(2), false).unwrap_err();
    match &err {
        DtmError::Invalidated { objs } => {
            assert_eq!(objs, &vec![branch(1)]);
            assert_eq!(txn.classify(objs), AbortScope::Child);
        }
        other => panic!("expected invalidation, got {other}"),
    }

    // Partial rollback: abort the Block, re-run it, the parent survives.
    txn.abort_block();
    txn.begin_block();
    txn.open(&mut c1, branch(1), true).unwrap();
    let bal = txn.get_field(branch(1), BAL).as_int().unwrap();
    assert_eq!(bal, 2000, "re-read sees the fresh branch");
    txn.set_field(branch(1), BAL, Value::Int(bal - 50));
    txn.commit_block();
    txn.set_field(acct(1), BAL, Value::Int(60));
    txn.commit(&mut c1).unwrap();

    assert_eq!(read_bal(&mut c0, branch(1)), 1950);
    assert_eq!(read_bal(&mut c0, acct(1)), 60);
    cluster.shutdown();
}

#[test]
fn closed_nesting_parent_scope_when_history_invalidated() {
    let cluster = Cluster::start(ClusterConfig::test(10, 2));
    let mut c0 = cluster.client(0);
    let mut c1 = cluster.client(1);
    seed(&mut c0, acct(1), 10);

    let mut txn = TxnCtx::begin(&mut c1);
    txn.open(&mut c1, acct(1), false).unwrap();
    txn.begin_block();

    // Invalidate the PARENT's object.
    seed(&mut c0, acct(1), 20);

    let err = txn.open(&mut c1, branch(1), false).unwrap_err();
    match &err {
        DtmError::Invalidated { objs } => {
            assert_eq!(objs, &vec![acct(1)]);
            assert_eq!(txn.classify(objs), AbortScope::Parent);
        }
        other => panic!("expected invalidation, got {other}"),
    }
    cluster.shutdown();
}

#[test]
fn block_commit_commits_through_parent() {
    let cluster = Cluster::start(ClusterConfig::test(4, 1));
    let mut c = cluster.client(0);
    seed(&mut c, acct(1), 100);
    seed(&mut c, acct(2), 0);

    let mut txn = TxnCtx::begin(&mut c);
    txn.open(&mut c, acct(1), true).unwrap();
    let b1 = txn.get_field(acct(1), BAL).as_int().unwrap();
    txn.set_field(acct(1), BAL, Value::Int(b1 - 30));

    txn.begin_block();
    txn.open(&mut c, acct(2), true).unwrap();
    let b2 = txn.get_field(acct(2), BAL).as_int().unwrap();
    txn.set_field(acct(2), BAL, Value::Int(b2 + 30));
    txn.commit_block();

    txn.commit(&mut c).unwrap();
    assert_eq!(read_bal(&mut c, acct(1)), 70);
    assert_eq!(read_bal(&mut c, acct(2)), 30);
    cluster.shutdown();
}

#[test]
fn aborted_block_state_is_invisible_to_commit() {
    let cluster = Cluster::start(ClusterConfig::test(4, 1));
    let mut c = cluster.client(0);
    seed(&mut c, acct(1), 100);

    let mut txn = TxnCtx::begin(&mut c);
    txn.open(&mut c, acct(1), true).unwrap();
    txn.begin_block();
    txn.set_field(acct(1), BAL, Value::Int(0));
    txn.abort_block();
    txn.commit(&mut c).unwrap();
    assert_eq!(read_bal(&mut c, acct(1)), 100, "aborted Block write leaked");
    cluster.shutdown();
}

#[test]
fn leaf_failures_are_tolerated() {
    let cluster = Cluster::start(ClusterConfig::test(10, 1));
    let mut c = cluster.client(0);
    seed(&mut c, acct(1), 42);
    // Fail two of the six leaves: reads and writes must still work.
    cluster.fail_server(5);
    cluster.fail_server(8);
    assert_eq!(read_bal(&mut c, acct(1)), 42);
    seed(&mut c, acct(1), 43);
    assert_eq!(read_bal(&mut c, acct(1)), 43);
    cluster.shutdown();
}

#[test]
fn root_failure_blocks_writes_but_reads_survive() {
    let cluster = Cluster::start(ClusterConfig::test(10, 1));
    let mut c = cluster.client(0);
    seed(&mut c, acct(1), 7);
    cluster.fail_server(0);
    assert_eq!(read_bal(&mut c, acct(1)), 7, "reads survive root failure");
    let mut ctx = TxnCtx::begin(&mut c);
    ctx.open(&mut c, acct(1), true).unwrap();
    ctx.set_field(acct(1), BAL, Value::Int(8));
    assert_eq!(ctx.commit(&mut c), Err(DtmError::Unavailable));
    // Recovery restores write availability.
    cluster.recover_server(0);
    seed(&mut c, acct(1), 9);
    assert_eq!(read_bal(&mut c, acct(1)), 9);
    cluster.shutdown();
}

#[test]
fn recovered_stale_replica_reconciles_via_versions() {
    let cluster = Cluster::start(ClusterConfig::test(10, 1));
    let mut c = cluster.client(0);
    seed(&mut c, acct(1), 1);
    // Fail a leaf, write a few more versions it will miss, recover it.
    cluster.fail_server(9);
    seed(&mut c, acct(1), 2);
    seed(&mut c, acct(1), 3);
    cluster.recover_server(9);
    // Reads take the max version across the quorum, so the stale replica
    // cannot roll the value back.
    for _ in 0..10 {
        assert_eq!(read_bal(&mut c, acct(1)), 3);
    }
    cluster.shutdown();
}

#[test]
fn contention_query_sees_hot_class() {
    let mut cfg = ClusterConfig::test(4, 1);
    cfg.window.window = std::time::Duration::from_millis(100);
    let cluster = Cluster::start(cfg);
    let mut c = cluster.client(0);
    // Hammer one branch, touch many accounts once.
    for i in 0..10 {
        seed(&mut c, branch(1), i);
        seed(&mut c, acct(i as u64), i);
    }
    // Query one window after the writes: within [window, 2·window) the
    // write window is the last complete one and gets published; waiting
    // past 2·window would (correctly, post-fix) read as cold.
    std::thread::sleep(std::time::Duration::from_millis(130));
    let levels = c.query_contention(&[BRANCH.id, ACCOUNT.id]).unwrap();
    assert!(
        levels[&BRANCH.id] > levels[&ACCOUNT.id],
        "branch must look hotter: {levels:?}"
    );
    cluster.shutdown();
}

#[test]
fn concurrent_increments_conserve_total() {
    // 4 clients × 50 increment transactions on one counter with retries:
    // the committed value must equal the number of successful commits.
    let cluster = Cluster::start(ClusterConfig::test(10, 4));
    let mut c0 = cluster.client(0);
    seed(&mut c0, acct(1), 0);
    let committed: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let mut client = cluster.client(i);
                s.spawn(move || {
                    let mut commits = 0u64;
                    for _ in 0..50 {
                        loop {
                            let mut ctx = TxnCtx::begin(&mut client);
                            if ctx.open(&mut client, acct(1), true).is_err() {
                                continue;
                            }
                            let v = ctx.get_field(acct(1), BAL).as_int().unwrap();
                            ctx.set_field(acct(1), BAL, Value::Int(v + 1));
                            if ctx.commit(&mut client).is_ok() {
                                commits += 1;
                                break;
                            }
                        }
                    }
                    commits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total: u64 = committed.iter().sum();
    assert_eq!(total, 200);
    assert_eq!(read_bal(&mut c0, acct(1)), 200);
    cluster.shutdown();
}
