//! Client recovery under faults: prepared-entry TTL sweeps, partition-aware
//! aborts, and request dedup under message-level chaos.

use acn_dtm::{msg_kind, ClientConfig, Cluster, ClusterConfig, DtmError, Msg, TxnCtx, TxnId};
use acn_simnet::{ChaosRule, FaultPlan, NodeId};
use acn_txir::{FieldId, ObjClass, ObjectId, Value};
use std::time::Duration;

const BRANCH: ObjClass = ObjClass::new(0, "Branch");
const BAL: FieldId = FieldId(0);

fn seed(client: &mut acn_dtm::DtmClient, obj: ObjectId, value: i64) {
    let mut ctx = TxnCtx::begin(client);
    ctx.open(client, obj, true).unwrap();
    ctx.set_field(obj, BAL, Value::Int(value));
    ctx.commit(client).unwrap();
}

/// A coordinator that dies between prepare and its decision must not strand
/// its write-set locks: the servers' TTL sweep releases them, after which
/// another client can commit the same objects.
#[test]
fn ttl_sweep_releases_a_dead_coordinators_locks() {
    let mut cfg = ClusterConfig::test(4, 2);
    cfg.prepared_ttl = Duration::from_millis(120);
    let cluster = Cluster::start(cfg);
    let obj = ObjectId::new(BRANCH, 3);
    let mut writer = cluster.client(0);
    seed(&mut writer, obj, 5);

    // "Kill a client between prepare and decision": a raw endpoint locks
    // the object on every replica and never sends phase 2.
    let zombie = cluster.net().endpoint(NodeId(4 + 1));
    let ztxn = TxnId {
        client: NodeId(4 + 1),
        seq: 0,
    };
    for rank in 0..4u32 {
        zombie.send(
            NodeId(rank),
            Msg::PrepareReq {
                txn: ztxn,
                req: 1,
                validate: vec![],
                writes: vec![(obj, 1)],
            },
        );
    }
    for _ in 0..4 {
        let _ = zombie.recv_timeout(Duration::from_millis(200));
    }

    // Immediately after, the object is protected on every replica.
    {
        let mut ctx = TxnCtx::begin(&mut writer);
        match ctx.open(&mut writer, obj, true) {
            Err(DtmError::LockedOut { obj: o }) => assert_eq!(o, obj),
            other => panic!("expected LockedOut while zombie holds locks, got {other:?}"),
        }
    }

    // Past the TTL (plus sweep cadence slack) the locks are gone and a
    // second client can commit.
    std::thread::sleep(Duration::from_millis(350));
    let mut second = cluster.client(1);
    let mut ctx = TxnCtx::begin(&mut second);
    ctx.open(&mut second, obj, true).unwrap();
    ctx.set_field(obj, BAL, Value::Int(6));
    ctx.commit(&mut second).unwrap();

    let stats = cluster.shutdown();
    let expired: u64 = stats.iter().map(|s| s.expired_prepares).sum();
    assert!(
        expired >= 1,
        "at least one sweep must have fired: {expired}"
    );
}

/// A client stuck on a partition's minority side cannot assemble a write
/// quorum: it must give up with `Unavailable` and fire a best-effort abort
/// so the minority servers it *did* prepare on release their locks without
/// waiting out the (long) TTL.
#[test]
fn minority_client_aborts_and_releases_minority_locks() {
    let mut cfg = ClusterConfig::test(4, 2);
    cfg.client_cfg = ClientConfig {
        rpc_timeout: Duration::from_millis(30),
        quorum_retries: 1,
        retry_backoff: Duration::from_micros(100),
        ..ClientConfig::default()
    };
    // TTL far beyond the test runtime: if the lock releases, it was the
    // best-effort abort, not the sweep.
    cfg.prepared_ttl = Duration::from_secs(30);
    let cluster = Cluster::start(cfg);
    let obj = ObjectId::new(BRANCH, 9);
    let mut minority = cluster.client(0);
    seed(&mut minority, obj, 1);

    // Client 0 sides with server 3 only; servers 0-2 and client 1 are the
    // majority. Note the fault table is consulted at *send* time, so the
    // minority client still reaches server 3 and locks there.
    cluster.partition(&[3], &[0]);

    let mut ctx = TxnCtx::begin(&mut minority);
    let err = match ctx.open(&mut minority, obj, true) {
        Err(e) => e,
        Ok(()) => {
            ctx.set_field(obj, BAL, Value::Int(2));
            ctx.commit(&mut minority).unwrap_err()
        }
    };
    assert_eq!(err, DtmError::Unavailable, "minority side must starve");
    assert!(
        minority.stats().quorum_unavailable >= 1,
        "unavailability must be counted"
    );

    cluster.heal_partition();

    // If server 3 were still holding the zombie prepare's lock, this write
    // would run out of locked-read retries (the TTL is 30 s). Its prompt
    // success proves the best-effort abort (or the absence of a stranded
    // prepare) cleaned up.
    let mut majority = cluster.client(1);
    let mut ctx = TxnCtx::begin(&mut majority);
    ctx.open(&mut majority, obj, true).unwrap();
    ctx.set_field(obj, BAL, Value::Int(3));
    ctx.commit(&mut majority).unwrap();

    let stats = cluster.shutdown();
    let expired: u64 = stats.iter().map(|s| s.expired_prepares).sum();
    assert_eq!(expired, 0, "cleanup must not have come from the TTL sweep");
}

/// Asymmetric link faults that lose only the *votes*: every server
/// receives the prepare and locks, the client starves and gives up — its
/// fire-and-forget abort (which still flows client→server) must release
/// the locks without the TTL sweep.
#[test]
fn lost_votes_trigger_best_effort_abort_that_releases_locks() {
    let mut cfg = ClusterConfig::test(4, 2);
    cfg.client_cfg = ClientConfig {
        rpc_timeout: Duration::from_millis(25),
        quorum_retries: 1,
        retry_backoff: Duration::from_micros(100),
        ..ClientConfig::default()
    };
    cfg.prepared_ttl = Duration::from_secs(30);
    let cluster = Cluster::start(cfg);
    let obj = ObjectId::new(BRANCH, 13);
    let mut victim = cluster.client(0);
    seed(&mut victim, obj, 1);

    let mut ctx = TxnCtx::begin(&mut victim);
    ctx.open(&mut victim, obj, true).unwrap();
    ctx.set_field(obj, BAL, Value::Int(2));

    // Votes (server → client 0) die; requests (client 0 → server) flow.
    let client0 = NodeId(4);
    for rank in 0..4u32 {
        cluster.net().fail_link(NodeId(rank), client0);
    }
    let err = ctx.commit(&mut victim).unwrap_err();
    assert_eq!(err, DtmError::Unavailable);
    assert_eq!(
        victim.stats().best_effort_aborts,
        1,
        "the failed 2PC must fire exactly one best-effort abort"
    );
    cluster.heal_partition();

    // Give the (already delivered) aborts a beat to be processed, then
    // prove the locks are gone long before the 30 s TTL could fire.
    let mut other = cluster.client(1);
    let mut ctx = TxnCtx::begin(&mut other);
    ctx.open(&mut other, obj, true).unwrap();
    ctx.set_field(obj, BAL, Value::Int(3));
    ctx.commit(&mut other).unwrap();

    let stats = cluster.shutdown();
    let expired: u64 = stats.iter().map(|s| s.expired_prepares).sum();
    assert_eq!(expired, 0, "release must not have come from the TTL sweep");
    let aborts: u64 = stats.iter().map(|s| s.aborts).sum();
    assert!(
        aborts >= 1,
        "servers must have processed the abort: {aborts}"
    );
}

/// Crash-with-amnesia end to end: a replica loses its entire store, dedup
/// cache, and prepared table; on rejoin it must refuse reads and prepare
/// votes until a read quorum of peers has answered its catch-up probes,
/// and once caught up its store digest must match the root replica's
/// (which sits in every write quorum and therefore holds everything).
#[test]
fn amnesia_recovery_refuses_votes_then_converges() {
    // 4 servers, ternary tree → levels [[0], [1,2,3]]. Write quorum =
    // {0} + 2 of {1,2,3}; with rank 3 wiped, its catch-up read quorum
    // must cover {1,2}, whose union holds every committed write.
    let cluster = Cluster::start(ClusterConfig::test(4, 2));
    let mut writer = cluster.client(0);
    for i in 20..28u64 {
        seed(&mut writer, ObjectId::new(BRANCH, i), i as i64);
    }

    // Wipe server 3. Give its service loop a beat to observe the epoch
    // bump (it polls every receive timeout, well under this sleep).
    cluster.fail_server_amnesia(3);
    std::thread::sleep(Duration::from_millis(150));

    // Writes while the replica is down all land on {0, 1, 2}.
    for i in 20..24u64 {
        let obj = ObjectId::new(BRANCH, i);
        let mut ctx = TxnCtx::begin(&mut writer);
        ctx.open(&mut writer, obj, true).unwrap();
        ctx.set_field(obj, BAL, Value::Int(100 + i as i64));
        ctx.commit(&mut writer).unwrap();
    }

    // Hold the replica in the syncing state: its probes reach the peers,
    // but every response (peer → 3) is dropped at send time.
    let node3 = NodeId(3);
    for rank in 0..3u32 {
        cluster.net().fail_link(NodeId(rank), node3);
    }
    cluster.recover_server(3);
    std::thread::sleep(Duration::from_millis(150));

    // (a) While catching up the replica must refuse reads...
    let zombie = cluster.net().endpoint(NodeId(4 + 1));
    let probe = ObjectId::new(BRANCH, 20);
    zombie.send(
        node3,
        Msg::ReadBatchReq {
            txn: TxnId {
                client: NodeId(4 + 1),
                seq: 0,
            },
            req: 1,
            objs: vec![probe],
            validate: vec![],
            sample: vec![],
        },
    );
    match zombie.recv_timeout(Duration::from_millis(500)) {
        Ok((src, Msg::Syncing { req })) => {
            assert_eq!(src, node3);
            assert_eq!(req, 1);
        }
        other => panic!("expected a Syncing read refusal, got {other:?}"),
    }

    // ...and refuse prepare votes, attributing the no-vote to recovery.
    let ztxn = TxnId {
        client: NodeId(4 + 1),
        seq: 1,
    };
    let prepare = Msg::PrepareReq {
        txn: ztxn,
        req: 2,
        validate: vec![],
        writes: vec![(probe, 5)],
    };
    zombie.send(node3, prepare.clone());
    match zombie.recv_timeout(Duration::from_millis(500)) {
        Ok((
            _,
            Msg::PrepareResp {
                req,
                vote,
                invalid,
                locked,
                syncing,
                wal_refused,
            },
        )) => {
            assert_eq!(req, 2);
            assert!(!vote, "a syncing replica must not vote yes");
            assert!(syncing, "the no-vote must be attributed to catch-up");
            assert!(!wal_refused, "catch-up, not storage, refused this vote");
            assert!(invalid.is_empty() && locked.is_none());
        }
        other => panic!("expected a syncing vote refusal, got {other:?}"),
    }

    // Let the sync responses through; catch-up completes within a couple
    // of probe rounds.
    cluster.heal_partition();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "replica 3 never finished catching up"
        );
        zombie.send(
            node3,
            Msg::ReadBatchReq {
                txn: TxnId {
                    client: NodeId(4 + 1),
                    seq: 2,
                },
                req: 3,
                objs: vec![probe],
                validate: vec![],
                sample: vec![],
            },
        );
        match zombie.recv_timeout(Duration::from_millis(500)) {
            Ok((_, Msg::Syncing { .. })) => std::thread::sleep(Duration::from_millis(20)),
            Ok((_, Msg::ReadBatchResp { reads, .. })) => {
                // The wiped replica must have recovered the down-time
                // write, not resurrected the pre-crash value.
                assert!(
                    reads[0].version >= 2,
                    "synced version must be post-downtime"
                );
                assert_eq!(reads[0].value.get(BAL), Some(&Value::Int(120)));
                break;
            }
            other => panic!("expected Syncing or ReadBatchResp, got {other:?}"),
        }
    }

    // The refusal was not dedup-cached: the *same* (txn, req) prepare now
    // earns a real vote.
    zombie.send(node3, prepare);
    match zombie.recv_timeout(Duration::from_millis(500)) {
        Ok((
            _,
            Msg::PrepareResp {
                req, vote, syncing, ..
            },
        )) => {
            assert_eq!(req, 2);
            assert!(vote, "a caught-up replica must vote on the retried prepare");
            assert!(!syncing);
        }
        other => panic!("expected a real vote after catch-up, got {other:?}"),
    }
    zombie.send(node3, Msg::AbortReq { txn: ztxn, req: 4 });
    let _ = zombie.recv_timeout(Duration::from_millis(500));

    // (b) Convergence: rank 0 is in every write quorum, so its digest is
    // the complete committed state; the recovered replica must match it.
    let stats = cluster.shutdown();
    assert_eq!(stats[3].amnesia_wipes, 1);
    assert_eq!(stats[3].syncs_completed, 1);
    assert!(stats[3].sync_read_refusals >= 1);
    assert!(stats[3].sync_vote_refusals >= 1);
    assert!(
        stats[3].sync_objects_received >= 8,
        "catch-up must have pulled the seeded objects: {}",
        stats[3].sync_objects_received
    );
    assert_eq!(
        stats[3].digest, stats[0].digest,
        "recovered replica must converge to the root replica's state"
    );
}

/// Crash-restart end to end: unlike amnesia, the replica keeps its durable
/// log. On rejoin it must replay the WAL (not refetch its whole store),
/// refuse reads and votes only until the *delta* sync covers a read
/// quorum, and converge to the root replica's digest.
#[test]
fn crash_restart_replays_log_then_fetches_only_the_delta() {
    let cluster = Cluster::start(ClusterConfig::test(4, 2));
    let mut writer = cluster.client(0);
    for i in 40..48u64 {
        seed(&mut writer, ObjectId::new(BRANCH, i), i as i64);
    }

    // Crash server 3 keeping its log; let its loop observe the epoch.
    cluster.fail_server_restart(3);
    std::thread::sleep(Duration::from_millis(150));

    // Writes while the replica is down all land on {0, 1, 2}.
    for i in 40..44u64 {
        let obj = ObjectId::new(BRANCH, i);
        let mut ctx = TxnCtx::begin(&mut writer);
        ctx.open(&mut writer, obj, true).unwrap();
        ctx.set_field(obj, BAL, Value::Int(100 + i as i64));
        ctx.commit(&mut writer).unwrap();
    }

    // Hold the replica mid-recovery: probes flow out, responses drop.
    let node3 = NodeId(3);
    for rank in 0..3u32 {
        cluster.net().fail_link(NodeId(rank), node3);
    }
    cluster.recover_server(3);
    std::thread::sleep(Duration::from_millis(150));

    // Even with its WAL replayed, the replica must refuse until the
    // delta arrives — its log cannot contain the down-time writes.
    let zombie = cluster.net().endpoint(NodeId(4 + 1));
    let probe = ObjectId::new(BRANCH, 40);
    zombie.send(
        node3,
        Msg::ReadBatchReq {
            txn: TxnId {
                client: NodeId(4 + 1),
                seq: 0,
            },
            req: 1,
            objs: vec![probe],
            validate: vec![],
            sample: vec![],
        },
    );
    match zombie.recv_timeout(Duration::from_millis(500)) {
        Ok((src, Msg::Syncing { req })) => {
            assert_eq!(src, node3);
            assert_eq!(req, 1);
        }
        other => panic!("expected a Syncing read refusal, got {other:?}"),
    }

    // Let the delta through; recovery completes within a few probes.
    cluster.heal_partition();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "replica 3 never finished its delta sync"
        );
        zombie.send(
            node3,
            Msg::ReadBatchReq {
                txn: TxnId {
                    client: NodeId(4 + 1),
                    seq: 1,
                },
                req: 2,
                objs: vec![probe],
                validate: vec![],
                sample: vec![],
            },
        );
        match zombie.recv_timeout(Duration::from_millis(500)) {
            Ok((_, Msg::Syncing { .. })) => std::thread::sleep(Duration::from_millis(20)),
            Ok((_, Msg::ReadBatchResp { reads, .. })) => {
                // The down-time write arrived via the delta, not a stale
                // replayed copy.
                assert!(
                    reads[0].version >= 2,
                    "synced version must be post-downtime"
                );
                assert_eq!(reads[0].value.get(BAL), Some(&Value::Int(140)));
                break;
            }
            other => panic!("expected Syncing or ReadBatchResp, got {other:?}"),
        }
    }

    let stats = cluster.shutdown();
    assert_eq!(stats[3].restart_replays, 1, "one restart recovery");
    assert_eq!(stats[3].amnesia_wipes, 0, "the disk survived");
    assert_eq!(stats[3].torn_tails_truncated, 0, "the log was whole");
    // 8 seeds + 4 pre-crash writes each logged a grant and a commit.
    assert!(
        stats[3].wal_records_replayed >= 16,
        "the store must come back from the log: {}",
        stats[3].wal_records_replayed
    );
    assert_eq!(stats[3].syncs_completed, 1);
    assert!(stats[3].sync_read_refusals >= 1);
    // Peers shipped (and the replica paid for) only the outage delta:
    // 4 changed objects from at most 3 peers over the few probe rounds
    // between heal and quorum coverage — nowhere near 8 × 3 for a full
    // re-fetch per round.
    assert!(
        stats[3].delta_objects_fetched >= 4,
        "the delta must actually flow: {}",
        stats[3].delta_objects_fetched
    );
    assert_eq!(
        stats[3].digest, stats[0].digest,
        "restarted replica must converge to the root replica's state"
    );
}

/// The durable-recovery payoff, pinned as a regression: after a short
/// outage on a *large* store, recovery work scales with the delta (what
/// changed while down), not with the store size. Counter-based and fully
/// deterministic: the WAL replays the whole inventory, while peers ship
/// only the handful of objects written during the outage.
#[test]
fn restart_recovery_work_scales_with_the_delta_not_the_store() {
    const STORE_OBJS: u64 = 192;
    const DELTA_OBJS: u64 = 4;
    let cluster = Cluster::start(ClusterConfig::test(4, 2));
    let mut writer = cluster.client(0);
    for i in 0..STORE_OBJS {
        seed(&mut writer, ObjectId::new(BRANCH, i), i as i64);
    }

    cluster.fail_server_restart(3);
    std::thread::sleep(Duration::from_millis(150));
    for i in 0..DELTA_OBJS {
        let obj = ObjectId::new(BRANCH, i);
        let mut ctx = TxnCtx::begin(&mut writer);
        ctx.open(&mut writer, obj, true).unwrap();
        ctx.set_field(obj, BAL, Value::Int(1000 + i as i64));
        ctx.commit(&mut writer).unwrap();
    }
    cluster.recover_server(3);

    // Wait until the replica serves again (sync complete).
    let zombie = cluster.net().endpoint(NodeId(4 + 1));
    let node3 = NodeId(3);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut req = 0;
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "replica 3 never finished its delta sync"
        );
        req += 1;
        zombie.send(
            node3,
            Msg::ReadBatchReq {
                txn: TxnId {
                    client: NodeId(4 + 1),
                    seq: req,
                },
                req,
                objs: vec![ObjectId::new(BRANCH, 0)],
                validate: vec![],
                sample: vec![],
            },
        );
        match zombie.recv_timeout(Duration::from_millis(500)) {
            Ok((_, Msg::Syncing { .. })) => std::thread::sleep(Duration::from_millis(20)),
            Ok((_, Msg::ReadBatchResp { reads, .. })) => {
                assert!(reads[0].version >= 2);
                break;
            }
            other => panic!("expected Syncing or ReadBatchResp, got {other:?}"),
        }
    }

    let stats = cluster.shutdown();
    let s3 = &stats[3];
    // The whole inventory came back from the local log…
    assert!(
        s3.wal_records_replayed >= 2 * STORE_OBJS,
        "each seeded object logged a grant and a commit: {}",
        s3.wal_records_replayed
    );
    assert_eq!(
        s3.digest.total_objects(),
        STORE_OBJS,
        "recovered inventory must be the full store"
    );
    // …while the network shipped only the outage delta. The hard bound:
    // at most 3 peers answer each of the few probe rounds between
    // recovery and quorum coverage with the 4 changed objects. A full
    // refetch would move ≥ STORE_OBJS per responding peer.
    assert!(
        s3.delta_objects_fetched >= DELTA_OBJS,
        "the delta must actually flow: {}",
        s3.delta_objects_fetched
    );
    assert!(
        s3.delta_objects_fetched < STORE_OBJS / 4,
        "recovery traffic must scale with the outage, not the store: \
         fetched {} of a {}-object inventory",
        s3.delta_objects_fetched,
        STORE_OBJS
    );
    assert_eq!(s3.digest, stats[0].digest);
}

/// With every `PrepareReq` duplicated (and half of them delayed behind
/// later traffic), commits must still apply exactly once: servers dedup
/// retried phase-1/phase-2 requests by `(txn, req)` id.
#[test]
fn duplicated_prepares_commit_exactly_once() {
    let mut cfg = ClusterConfig::test(4, 1);
    cfg.client_cfg = ClientConfig {
        rpc_timeout: Duration::from_millis(200),
        ..ClientConfig::default()
    };
    let cluster = Cluster::start(cfg);
    let obj = ObjectId::new(BRANCH, 11);
    let mut client = cluster.client(0);
    seed(&mut client, obj, 0);

    cluster.install_chaos(&FaultPlan::with_rules(
        7,
        vec![ChaosRule::for_kind(
            msg_kind::PREPARE_REQ,
            0.0, // never drop
            1.0, // always duplicate
            0.5, // half the duplicates arrive late, behind the CommitReq
            Duration::from_millis(2),
        )],
    ));

    for i in 1..=20i64 {
        let mut ctx = TxnCtx::begin(&mut client);
        ctx.open(&mut client, obj, true).unwrap();
        let v = ctx.get_field(obj, BAL).as_int().unwrap();
        assert_eq!(v, i - 1, "previous increment must be visible exactly once");
        ctx.set_field(obj, BAL, Value::Int(v + 1));
        ctx.commit(&mut client).unwrap();
    }

    cluster.clear_chaos();
    // Late duplicate prepares must not have resurrected any lock.
    let mut ctx = TxnCtx::begin(&mut client);
    ctx.open(&mut client, obj, false).unwrap();
    assert_eq!(ctx.get_field(obj, BAL).as_int().unwrap(), 20);
    ctx.commit(&mut client).unwrap();

    let stats = cluster.shutdown();
    let dedup_hits: u64 = stats.iter().map(|s| s.dedup_hits).sum();
    assert!(
        dedup_hits > 0,
        "duplicated prepares must hit the dedup cache: {dedup_hits}"
    );
}
