//! The round budget: what one uncontended transaction costs in quorum
//! rounds, as exact counts.
//!
//! On a zero-latency cluster with one client nothing aborts, so the deltas
//! of `ClientStats::remote_reads` / `prepares` around a run repeat exactly.
//! The executor pays one read round per data-dependency level — never one
//! per Block, never one per insert — so the schedule chosen for a
//! transaction changes where it can roll back to, not what it costs.
//! And a read round is one thing on the wire: a request to, and a reply
//! from, each member of one minimal read quorum, whichever door issued it.

use qr_acn::core::{ExecutorConfig, ExecutorEngine};
use qr_acn::dtm::SpecCache;
use qr_acn::prelude::*;
use qr_acn::workloads::bank::Bank;
use qr_acn::workloads::schema::{DISTRICT, ORDER, O_CARRIER, O_OL_CNT};
use qr_acn::workloads::tpcc::{Tpcc, TpccConfig, TpccMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(read rounds, prepare rounds)` one run of `params` over `seq` costs.
fn rounds(
    engine: &ExecutorEngine,
    client: &mut DtmClient,
    dm: &DependencyModel,
    params: &[Value],
    seq: &BlockSeq,
) -> (u64, u64) {
    let before = client.stats();
    let mut stats = ExecStats::default();
    engine
        .run(client, &dm.program, params, seq, &mut stats)
        .expect("an uncontended run commits");
    assert_eq!(
        (stats.commits, stats.full_aborts + stats.partial_aborts),
        (1, 0),
        "nothing aborts on a one-client cluster"
    );
    let after = client.stats();
    (
        after.remote_reads - before.remote_reads,
        after.prepares - before.prepares,
    )
}

fn unbatched() -> ExecutorEngine {
    ExecutorEngine::with_config(
        RetryPolicy::default(),
        ExecutorConfig {
            batched_reads: false,
        },
    )
}

/// A seeded TPC-C whose only template (index 2) is the `k`-line NewOrder.
fn neworder(k: usize, client: &mut DtmClient) -> (Tpcc, DependencyModel) {
    let cfg = TpccConfig {
        ol_min: k,
        ol_max: k,
        ..TpccConfig::default()
    };
    let tpcc = Tpcc::new(cfg, TpccMix::NEW_ORDER);
    tpcc.seed(client);
    let dm = DependencyModel::analyze(tpcc.templates()[2].clone()).unwrap();
    (tpcc, dm)
}

#[test]
fn neworder_costs_one_read_round_under_every_schedule() {
    for k in [5usize, 10] {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let (tpcc, dm) = neworder(k, &mut client);
        let hot_district = AlgorithmModule::with_model(Box::new(SumModel))
            .recompute(&dm, &[(DISTRICT.id, 9.0)].into());
        let manual = BlockSeq::group_units(&dm, &tpcc.manual_groups(2, &dm));
        assert!(
            hot_district.len() > 1 && manual.len() > 1,
            "nested schedules"
        );
        let engine = ExecutorEngine::default();
        let mut rng = StdRng::seed_from_u64(k as u64);
        for seq in [&BlockSeq::flat(&dm), &hot_district, &manual] {
            let params = tpcc.next(&mut rng, 0).params;
            assert_eq!(
                rounds(&engine, &mut client, &dm, &params, seq),
                (1, 1),
                "NewOrder-{k} over {} Blocks: one fetch, zero-round inserts",
                seq.len()
            );
        }
        // The paper-literal arm: one remote read per open — the header's
        // three, an Item and a Stock per line, Order, NewOrder and an
        // OrderLine per line.
        let params = tpcc.next(&mut rng, 0).params;
        assert_eq!(
            rounds(&unbatched(), &mut client, &dm, &params, &manual),
            (3 + 2 * k as u64 + 2 + k as u64, 1)
        );
        cluster.shutdown();
    }
}

#[test]
fn bank_transfer_costs_one_read_round_flat_or_in_two_blocks() {
    let cluster = Cluster::start(ClusterConfig::test(4, 1));
    let mut client = cluster.client(0);
    let bank = Bank::default();
    let dm = DependencyModel::analyze(bank.templates()[0].clone()).unwrap();
    // Figure 3: branches in one sub-transaction, accounts in the other.
    let two_blocks = BlockSeq::group_units(&dm, &bank.manual_groups(0, &dm));
    assert_eq!(two_blocks.len(), 2);
    let params: Vec<Value> = [0, 1, 2, 3, 5].map(Value::Int).to_vec();
    let engine = ExecutorEngine::default();
    for seq in [&BlockSeq::flat(&dm), &two_blocks] {
        assert_eq!(rounds(&engine, &mut client, &dm, &params, seq), (1, 1));
    }
    assert_eq!(
        rounds(&unbatched(), &mut client, &dm, &params, &two_blocks),
        (4, 1),
        "unbatched: one remote read per open"
    );
    cluster.shutdown();
}

#[test]
fn delivery_of_an_already_written_order_costs_what_a_fresh_one_does() {
    // Delivery's NEW_ORDER / ORDER updates are set-only, but their rows are
    // named by a parameter and mostly exist: they are fetched with the
    // initial round, not presumed absent, so re-delivering an order (the
    // steady state as the 100 k order pool fills) costs no abort.
    let cluster = Cluster::start(ClusterConfig::test(4, 1));
    let mut client = cluster.client(0);
    let tpcc = Tpcc::new(TpccConfig::default(), TpccMix::DELIVERY);
    tpcc.seed(&mut client);
    let dm = DependencyModel::analyze(tpcc.templates()[1].clone()).unwrap();
    let manual = BlockSeq::group_units(&dm, &tpcc.manual_groups(1, &dm));
    let params = tpcc.next(&mut StdRng::seed_from_u64(4), 0).params;
    let engine = ExecutorEngine::default();
    for seq in [&BlockSeq::flat(&dm), &manual, &manual] {
        assert_eq!(rounds(&engine, &mut client, &dm, &params, seq), (1, 1));
    }
    assert_eq!(
        rounds(&unbatched(), &mut client, &dm, &params, &manual),
        (4, 1)
    );
    cluster.shutdown();
}

#[test]
fn counter_derived_valued_opens_share_one_round() {
    const COUNTER: ObjClass = ObjClass::new(0, "Counter");
    const ROW: ObjClass = ObjClass::new(1, "Row");
    const NEXT: FieldId = FieldId(0);
    const F: FieldId = FieldId(1);
    // Read a counter, then open two rows it names and *read* them: a
    // dependency level, so a second round — but one for both rows.
    let mut b = ProgramBuilder::new("it/derived", 1);
    let c = b.open_update(COUNTER, b.param(0));
    let id = b.get(c, NEXT);
    let next = b.add(id, 1i64);
    b.set(c, NEXT, next);
    let r1 = b.open_update(ROW, id);
    let v1 = b.get(r1, F);
    let n1 = b.add(v1, 1i64);
    b.set(r1, F, n1);
    let shifted = b.add(id, 100i64);
    let r2 = b.open_read(ROW, shifted);
    let v2 = b.get(r2, F);
    b.set(c, F, v2);
    let dm = DependencyModel::analyze(b.finish()).unwrap();

    let cluster = Cluster::start(ClusterConfig::test(4, 1));
    let mut client = cluster.client(0);
    let params = [Value::Int(7)];
    let engine = ExecutorEngine::default();
    for seq in [&BlockSeq::flat(&dm), &BlockSeq::from_units(&dm)] {
        assert_eq!(
            rounds(&engine, &mut client, &dm, &params, seq),
            (2, 1),
            "{} Blocks: the counter, then both derived rows together",
            seq.len()
        );
    }
    assert_eq!(
        rounds(
            &unbatched(),
            &mut client,
            &dm,
            &params,
            &BlockSeq::flat(&dm)
        ),
        (3, 1)
    );
    // Three runs advanced the counter to 3 and bumped rows 0, 1 and 2.
    let mut ctx = TxnCtx::begin(&mut client);
    for (obj, field, want) in [
        (ObjectId::new(COUNTER, 7), NEXT, 3),
        (ObjectId::new(ROW, 2), F, 1),
    ] {
        ctx.open(&mut client, obj, false).unwrap();
        assert_eq!(ctx.get_field(obj, field), Value::Int(want));
    }
    cluster.shutdown();
}

#[test]
fn colliding_insert_is_caught_demoted_and_retried() {
    let cluster = Cluster::start(ClusterConfig::test(4, 1));
    let mut client = cluster.client(0);
    let (tpcc, dm) = neworder(5, &mut client);
    let params = tpcc.next(&mut StdRng::seed_from_u64(1), 0).params;
    // The ORDER row this NewOrder will derive already exists: no order was
    // placed yet, so its id is the district's base.
    let district = params[1].as_int().unwrap() as u64;
    let order = ObjectId::new(ORDER, district * 1_000_000);
    let mut ctx = TxnCtx::begin(&mut client);
    ctx.open(&mut client, order, true).unwrap();
    ctx.set_field(order, O_CARRIER, Value::Int(7));
    ctx.commit(&mut client).unwrap();

    let before = client.stats();
    let mut stats = ExecStats::default();
    ExecutorEngine::default()
        .run(
            &mut client,
            &dm.program,
            &params,
            &BlockSeq::flat(&dm),
            &mut stats,
        )
        .unwrap();
    assert_eq!(stats.commits, 1);
    assert_eq!(
        stats.full_aborts, 1,
        "prepare rejects the version-0 presumption"
    );
    let after = client.stats();
    assert_eq!(
        (
            after.remote_reads - before.remote_reads,
            after.prepares - before.prepares
        ),
        (2, 2),
        "the retry fetches the demoted row with its initial round"
    );
    // The retry wrote onto the row's real copy: the old field survives.
    let mut ctx = TxnCtx::begin(&mut client);
    ctx.open(&mut client, order, false).unwrap();
    assert_eq!(ctx.get_field(order, O_CARRIER), Value::Int(7));
    assert_eq!(ctx.get_field(order, O_OL_CNT), Value::Int(5));
    cluster.shutdown();
}

#[test]
fn every_read_round_costs_one_minimal_quorum_whichever_door_issued_it() {
    const ROW: ObjClass = ObjClass::new(7, "Row");
    for servers in [4usize, 10] {
        let cluster = Cluster::start(ClusterConfig::test(servers, 1));
        let mut client = cluster.client(0);
        let quorums = LevelQuorums::new(DaryTree::ternary(servers));
        let round = 2 * quorums.read_quorum_size() as u64;
        // Never-written objects, each named once: every replica serves
        // version 0, so no read repair rides behind a round.
        let mut ids = 0..;
        let mut fresh = |n: usize| -> Vec<ObjectId> {
            ids.by_ref()
                .take(n)
                .map(|i| ObjectId::new(ROW, i))
                .collect()
        };
        let sent = || cluster.net().stats().sent;

        let mut ctx = TxnCtx::begin(&mut client);
        let mut at = sent();
        let mut paid = |door: &str| {
            let now = sent();
            assert_eq!(now - at, round, "{door} on {servers} servers");
            at = now;
        };
        ctx.open(&mut client, fresh(1)[0], false).unwrap();
        paid("TxnCtx::open");
        ctx.open_batch(&mut client, &fresh(1)).unwrap();
        paid("open_batch of 1");
        ctx.open_batch(&mut client, &fresh(4)).unwrap();
        paid("open_batch of 4");
        ctx.fetch_spec(&mut client, &fresh(1)).unwrap();
        paid("TxnCtx::fetch_spec of 1");
        ctx.fetch_spec(&mut client, &fresh(4)).unwrap();
        paid("TxnCtx::fetch_spec of 4");
        ctx.open_spec(&mut client, fresh(1)[0], true, &SpecCache::default())
            .unwrap();
        paid("TxnCtx::open_spec miss");
        ctx.begin_block();
        ctx.open(&mut client, fresh(1)[0], false).unwrap();
        paid("open inside an open block");
        ctx.fetch_spec(&mut client, &fresh(1)).unwrap();
        paid("fetch_spec of 1 inside an open block");
        ctx.fetch_spec(&mut client, &fresh(4)).unwrap();
        paid("fetch_spec of 4 inside an open block");
        ctx.open_spec(&mut client, fresh(1)[0], false, &SpecCache::default())
            .unwrap();
        paid("open_spec miss inside an open block");

        // One unseeded NewOrder on the paper-literal arm: a round per open,
        // then prepare and commit to one write quorum.
        let k = 5;
        let cfg = TpccConfig {
            ol_min: k,
            ol_max: k,
            ..TpccConfig::default()
        };
        let tpcc = Tpcc::new(cfg, TpccMix::NEW_ORDER);
        let dm = DependencyModel::analyze(tpcc.templates()[2].clone()).unwrap();
        let params = tpcc.next(&mut StdRng::seed_from_u64(3), 0).params;
        let before = sent();
        let (reads, prepares) = rounds(
            &unbatched(),
            &mut client,
            &dm,
            &params,
            &BlockSeq::flat(&dm),
        );
        assert_eq!((reads, prepares), (3 + 2 * k as u64 + 2 + k as u64, 1));
        assert_eq!(
            sent() - before,
            reads * round + 4 * quorums.write_quorum_size() as u64,
            "unbatched NewOrder on {servers} servers"
        );
        cluster.shutdown();
    }
}

/// `(messages sent, read rounds, validate entries shipped)` that one
/// audit+credit transaction over `objects` accounts costs on 10 servers:
/// sum every balance, credit the first account, in two Blocks of
/// `objects / 2` opens each. Three runs must each cost exactly the same.
/// The second value is the most bytes any run sent: byte counts are not
/// exact, since encoded versions grow from one run to the next.
fn audit_credit_cost(objects: usize, batched_reads: bool) -> ((u64, u64, u64), u64) {
    const ACCOUNT: ObjClass = ObjClass::new(1, "Account");
    const BAL: FieldId = FieldId(0);
    let mut b = ProgramBuilder::new("bank/audit_credit", objects as u16);
    let first = b.open_update(ACCOUNT, b.param(0));
    let mut sum = b.get(first, BAL);
    for i in 1..objects as u16 {
        let acc = b.open_read(ACCOUNT, b.param(i));
        let v = b.get(acc, BAL);
        sum = b.add(sum, v);
    }
    let credited = b.add(sum, 1i64);
    b.set(first, BAL, credited);
    let dm = DependencyModel::analyze(b.finish()).unwrap();
    let half = dm.unit_count() / 2;
    let groups = [
        (0..half).collect::<Vec<_>>(),
        (half..dm.unit_count()).collect(),
    ];
    let seq = BlockSeq::group_units(&dm, &groups);

    let cluster = Cluster::start(ClusterConfig::test(10, 1));
    let mut client = cluster.client(0);
    let engine =
        ExecutorEngine::with_config(RetryPolicy::default(), ExecutorConfig { batched_reads });
    let params: Vec<Value> = (0..objects as i64).map(Value::Int).collect();
    let (mut costs, mut bytes) = (Vec::new(), 0);
    for _ in 0..3 {
        let (net, before) = (cluster.net().stats(), client.stats());
        let (reads, _) = rounds(&engine, &mut client, &dm, &params, &seq);
        let after = cluster.net().stats();
        bytes = bytes.max(after.bytes_sent - net.bytes_sent);
        costs.push((
            after.sent - net.sent,
            reads,
            client.stats().validate_entries_sent - before.validate_entries_sent,
        ));
    }
    cluster.shutdown();
    assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");
    (costs[0], bytes)
}

#[test]
fn wide_audit_costs_one_read_round_and_no_revalidation_when_batched() {
    // Read quorum 4, write quorum 7 on 10 servers: a read round is 8
    // messages, prepare + commit 28. Unbatched, the i-th open revalidates
    // the i entries before it at each of the 4 members: 4 × (0 + … + 7).
    let (unbatched, unbatched_bytes) = audit_credit_cost(8, false);
    assert_eq!(unbatched, (92, 8, 112));
    // Batched, the speculative fetch reads all 8 accounts in one round, so
    // the second Block has nothing new to validate.
    let (batched, batched_bytes) = audit_credit_cost(8, true);
    assert_eq!(batched, (36, 1, 0));
    // Fewer messages and no revalidation entries also mean fewer bytes.
    assert!(
        batched_bytes < unbatched_bytes,
        "batching must shrink bytes: {batched_bytes} vs {unbatched_bytes}"
    );
}

#[test]
fn unbatched_revalidation_grows_quadratically_and_batched_ships_none() {
    // 4 × n(n-1)/2 entries unbatched: doubling the read-set from 6 to 12
    // multiplies them by 4.4; the batched arm stays at one round and zero.
    assert_eq!(audit_credit_cost(6, false).0, (76, 6, 60));
    assert_eq!(audit_credit_cost(12, false).0, (124, 12, 264));
    assert_eq!(audit_credit_cost(6, true).0, (36, 1, 0));
    assert_eq!(audit_credit_cost(12, true).0, (36, 1, 0));
}
