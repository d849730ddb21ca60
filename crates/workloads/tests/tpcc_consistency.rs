//! TPC-C consistency invariants across decompositions: whatever Block
//! sequence executes NewOrder, the District counter must equal the number
//! of committed orders, and every committed order's rows must exist.

use acn_core::{
    AcnController, AlgorithmConfig, AlgorithmModule, BlockSeq, ControllerConfig, ExecStats,
    ExecutorEngine, SumModel,
};
use acn_dtm::{Cluster, ClusterConfig, DtmClient, TxnCtx};
use acn_txir::{DependencyModel, ObjectId};
use acn_workloads::schema::{
    CUSTOMER, DISTRICT, D_NEXT_OID, ITEM, NEW_ORDER, NO_PENDING, ORDER, ORDER_LINE, O_OL_CNT,
    STOCK, S_QTY, WAREHOUSE,
};
use acn_workloads::tpcc::{Tpcc, TpccConfig, TpccMix};
use acn_workloads::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

fn read_int(client: &mut DtmClient, obj: ObjectId, field: acn_txir::FieldId) -> i64 {
    let mut ctx = TxnCtx::begin(client);
    ctx.open(client, obj, false).unwrap();
    let v = ctx.get_field(obj, field).as_int().unwrap();
    ctx.commit(client).unwrap();
    v
}

fn run_neworders(
    seq_for: impl Fn(&Arc<DependencyModel>) -> Arc<BlockSeq>,
) -> (Tpcc, Vec<(u64, i64)>) {
    let cfg = TpccConfig {
        warehouses: 1,
        districts_per_warehouse: 2,
        customers_per_district: 10,
        items: 50,
        ol_min: 5,
        ol_max: 5,
    };
    let tpcc = Tpcc::new(cfg, TpccMix::NEW_ORDER);
    let cluster = Cluster::start(ClusterConfig::test(10, 1));
    let mut client = cluster.client(0);
    tpcc.seed(&mut client);

    let dm = Arc::new(DependencyModel::analyze(tpcc.templates()[2].clone()).unwrap());
    let seq = seq_for(&dm);
    let engine = ExecutorEngine::default();
    let mut stats = ExecStats::default();
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..30 {
        let req = tpcc.next(&mut rng, 0);
        assert_eq!(req.template, 2, "ol range pinned to 5");
        engine
            .run(&mut client, &dm.program, &req.params, &seq, &mut stats)
            .unwrap();
    }
    assert_eq!(stats.commits, 30);

    // District counters must sum to the committed order count.
    let mut districts = Vec::new();
    let mut total_orders = 0;
    for d in 0..2u64 {
        let next = read_int(
            &mut client,
            ObjectId::new(DISTRICT, tpcc.district_index(0, d)),
            D_NEXT_OID,
        );
        total_orders += next;
        districts.push((tpcc.district_index(0, d), next));
    }
    assert_eq!(total_orders, 30, "district counters track commits");

    // Every allocated order id has its Order, NewOrder and OrderLine rows.
    for &(d_index, next) in &districts {
        for oid in 0..next {
            let order_idx = d_index * 1_000_000 + oid as u64;
            let ol_cnt = read_int(&mut client, ObjectId::new(ORDER, order_idx), O_OL_CNT);
            assert_eq!(ol_cnt, 5, "order {order_idx} line count");
            let pending = read_int(&mut client, ObjectId::new(NEW_ORDER, order_idx), NO_PENDING);
            assert_eq!(pending, 1, "new-order row present");
            for line in 0..5 {
                let amount = read_int(
                    &mut client,
                    ObjectId::new(ORDER_LINE, order_idx * 16 + line),
                    acn_workloads::schema::OL_AMOUNT,
                );
                assert!(amount > 0, "order line priced (items are seeded)");
            }
        }
    }

    // Stock never exceeds its seeded level (decrements + refills only).
    for item in 0..50u64 {
        let q = read_int(
            &mut client,
            ObjectId::new(STOCK, tpcc.stock_index(0, item)),
            S_QTY,
        );
        assert!(q <= 1_000, "stock {item} grew past seed: {q}");
        assert!(q > 0, "stock {item} exhausted below refill floor: {q}");
    }

    cluster.shutdown();
    (tpcc, districts)
}

#[test]
fn neworder_invariants_hold_flat() {
    run_neworders(|dm| Arc::new(BlockSeq::flat(dm)));
}

#[test]
fn neworder_invariants_hold_per_unit_nesting() {
    run_neworders(|dm| Arc::new(BlockSeq::from_units(dm)));
}

#[test]
fn neworder_invariants_hold_acn_adapted() {
    run_neworders(|dm| {
        let controller = AcnController::new(
            Arc::clone(dm),
            AlgorithmModule::with_model(Box::new(SumModel)),
            ControllerConfig::default(),
        );
        // Feed the District-hot levels Fig 4(a) converges to.
        let levels: HashMap<u16, f64> = [
            (DISTRICT.id, 20.0),
            (STOCK.id, 2.0),
            (acn_workloads::schema::ORDER.id, 0.5),
            (acn_workloads::schema::NEW_ORDER.id, 0.5),
            (acn_workloads::schema::ORDER_LINE.id, 0.5),
        ]
        .into();
        controller.refresh_with_levels(&levels);
        let seq = controller.current();
        assert!(seq.len() > 1, "adapted sequence should be nested");
        seq
    });
}

/// Step 2's similarity band decides how many Blocks NewOrder keeps: the
/// wider the `(rel, abs)` thresholds, the more neighbours merge.
#[test]
fn neworder_block_count_per_merge_threshold() {
    let tpcc = Tpcc::new(TpccConfig::default(), TpccMix::NEW_ORDER);
    let dm = DependencyModel::analyze(tpcc.templates()[2].clone()).unwrap();
    let levels: HashMap<u16, f64> = [
        (WAREHOUSE.id, 3.0),
        (DISTRICT.id, 20.0),
        (STOCK.id, 2.0),
        (ITEM.id, 0.0),
        (CUSTOMER.id, 0.1),
        (ORDER.id, 0.5),
        (NEW_ORDER.id, 0.5),
        (ORDER_LINE.id, 0.5),
    ]
    .into();
    let blocks = |rel_threshold, abs_threshold| {
        let config = AlgorithmConfig {
            rel_threshold,
            abs_threshold,
        };
        let module = AlgorithmModule::new(config, Box::new(SumModel));
        module.recompute(&dm, &levels).len()
    };
    assert_eq!(blocks(0.0, 0.0), 6);
    assert_eq!(blocks(0.25, 0.5), 3);
    assert_eq!(blocks(0.5, 1.0), 2);
    assert_eq!(blocks(1.0, 4.0), 1);
}
