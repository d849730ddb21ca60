//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **merge threshold** — Step 2's similarity band changes how many
//!   Blocks survive; this measures recompute cost and records the
//!   resulting block counts across thresholds;
//! * **contention model** — the default write-count/Sum model vs the
//!   di-Sanzo-style analytic abort-probability model.

use acn_core::{AbortProbabilityModel, AlgorithmModule, SumModel};
use acn_txir::DependencyModel;
use acn_workloads::schema;
use acn_workloads::tpcc::{Tpcc, TpccConfig, TpccMix};
use acn_workloads::Workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;
use std::hint::black_box;

fn neworder_dm() -> DependencyModel {
    let tpcc = Tpcc::new(TpccConfig::default(), TpccMix::NEW_ORDER);
    DependencyModel::analyze(tpcc.templates()[2].clone()).unwrap()
}

fn tpcc_levels() -> HashMap<u16, f64> {
    [
        (schema::WAREHOUSE.id, 3.0),
        (schema::DISTRICT.id, 20.0),
        (schema::STOCK.id, 2.0),
        (schema::ITEM.id, 0.0),
        (schema::CUSTOMER.id, 0.1),
        (schema::ORDER.id, 0.5),
        (schema::NEW_ORDER.id, 0.5),
        (schema::ORDER_LINE.id, 0.5),
    ]
    .into()
}

fn bench_merge_threshold(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_merge_threshold");
    let dm = neworder_dm();
    let lv = tpcc_levels();
    for &(rel, abs) in &[(0.0, 0.0), (0.25, 0.5), (0.5, 1.0), (1.0, 4.0)] {
        let module = AlgorithmModule::new(
            acn_core::AlgorithmConfig {
                rel_threshold: rel,
                abs_threshold: abs,
            },
            Box::new(SumModel),
        );
        let blocks = module.recompute(&dm, &lv).len();
        g.bench_with_input(
            BenchmarkId::new(format!("rel{rel}_abs{abs}_blocks{blocks}"), blocks),
            &blocks,
            |b, _| b.iter(|| black_box(module.recompute(&dm, &lv))),
        );
    }
    g.finish();
}

fn bench_contention_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_contention_model");
    let dm = neworder_dm();
    let lv = tpcc_levels();
    let sum = AlgorithmModule::with_model(Box::new(SumModel));
    g.bench_function("write_count_sum", |b| {
        b.iter(|| black_box(sum.recompute(&dm, &lv)))
    });
    let analytic = AlgorithmModule::with_model(Box::new(AbortProbabilityModel { exposure: 0.1 }));
    g.bench_function("analytic_abort_probability", |b| {
        b.iter(|| black_box(analytic.recompute(&dm, &lv)))
    });
    g.finish();
}

criterion_group!(benches, bench_merge_threshold, bench_contention_model);
criterion_main!(benches);
