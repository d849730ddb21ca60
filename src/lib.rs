#![warn(missing_docs)]

//! # qr-acn — Automated Closed Nesting for Distributed Transactional Memory
//!
//! A from-scratch Rust reproduction of *"An Automated Framework for
//! Decomposing Memory Transactions to Exploit Partial Rollback"* (Dhoke,
//! Palmieri, Ravindran — IPPS 2015): the **ACN** framework, which
//! automatically decomposes flat memory transactions into closed-nested
//! sub-transactions and keeps the decomposition tuned to the live
//! workload, together with the entire substrate it runs on — a
//! quorum-replicated distributed transactional memory (QR-DTM / QR-CN), a
//! tree quorum protocol, a simulated message-passing network, and a
//! transaction IR with the static analysis the paper delegates to Soot.
//!
//! ## Crate map
//!
//! | module | re-exports | role |
//! |---|---|---|
//! | [`simnet`] | `acn-simnet` | message-passing network with latency models and fault injection |
//! | [`quorum`] | `acn-quorum` | Agrawal–El Abbadi tree quorums (level-majority) |
//! | [`txir`] | `acn-txir` | transaction IR, UnitGraph, data-flow, UnitBlock extraction |
//! | [`dtm`] | `acn-dtm` | QR-DTM replication protocol + QR-CN closed nesting + contention windows |
//! | [`obs`] | `acn-obs` | observability: span tracer + critical paths, abort attribution, metrics export |
//! | [`core`] | `acn-core` | ACN: static/dynamic/algorithm modules, executor engine, controller |
//! | [`workloads`] | `acn-workloads` | Bank, Vacation, TPC-C + the measurement driver |
//!
//! ## Quickstart
//!
//! ```
//! use qr_acn::prelude::*;
//! use std::sync::Arc;
//!
//! // A transaction template: transfer with a hot Branch and a cold Account.
//! const BRANCH: ObjClass = ObjClass::new(0, "Branch");
//! const ACCOUNT: ObjClass = ObjClass::new(1, "Account");
//! const BAL: FieldId = FieldId(0);
//!
//! let mut b = ProgramBuilder::new("transfer", 3);
//! let amt = b.param(2);
//! let br = b.open_update(BRANCH, b.param(0));
//! let v = b.get(br, BAL);
//! let n = b.sub(v, amt);
//! b.set(br, BAL, n);
//! let acc = b.open_update(ACCOUNT, b.param(1));
//! let w = b.get(acc, BAL);
//! let m = b.add(w, amt);
//! b.set(acc, BAL, m);
//! let program = b.finish();
//!
//! // Static Module: UnitBlocks + dependency model.
//! let dm = Arc::new(DependencyModel::analyze(program).unwrap());
//! assert_eq!(dm.unit_count(), 2);
//!
//! // Bring up a cluster (4 servers, 1 client, zero latency for the demo).
//! let cluster = Cluster::start(ClusterConfig::test(4, 1));
//! let mut client = cluster.client(0);
//!
//! // ACN controller: starts from the static decomposition, adapts on
//! // refresh. Execute one transaction through the Executor Engine.
//! let controller = AcnController::new(
//!     Arc::clone(&dm),
//!     AlgorithmModule::with_model(Box::new(SumModel)),
//!     ControllerConfig::default(),
//! );
//! let engine = ExecutorEngine::default();
//! let mut stats = ExecStats::default();
//! engine
//!     .run(
//!         &mut client,
//!         &dm.program,
//!         &[Value::Int(1), Value::Int(42), Value::Int(25)],
//!         &controller.current(),
//!         &mut stats,
//!     )
//!     .unwrap();
//! assert_eq!(stats.commits, 1);
//! cluster.shutdown();
//! ```

pub use acn_core as core;
pub use acn_dtm as dtm;
pub use acn_obs as obs;
pub use acn_quorum as quorum;
pub use acn_simnet as simnet;
pub use acn_txir as txir;
pub use acn_workloads as workloads;

/// One-stop imports for applications built on QR-ACN.
pub mod prelude {
    pub use acn_core::{
        AbortProbabilityModel, AcnController, AlgorithmModule, BlockSeq, ContentionModel,
        ControllerConfig, ExecStats, ExecutorEngine, MaxModel, RetryPolicy, RunError, StaticModule,
        SumModel,
    };
    pub use acn_dtm::{
        check_durability, check_history, ClientConfig, Cluster, ClusterConfig, CommitRecord,
        DtmClient, DtmError, DurabilityMode, DurabilitySummary, FaultLogConfig, HistoryLog,
        HistorySummary, StoreDigest, SyncConfig, TxnCtx, TxnId, Violation,
    };
    pub use acn_obs::{
        aggregate_critpath, critical_path, parse_chrome_trace, parse_prom, render_prom,
        report_to_prom, write_chrome_trace, AbortKind, AbortSite, AbortTable, CritPathRow,
        LogHistogram, MetricsReport, ObsConfig, PromMetric, Span, SpanCollector, SpanKind,
        ThreadTraceRow, TraceCtx, Tracer, TxnCritPath, TxnEvent, TxnObserver, WindowedSeries,
        WorkLedger, WorkTotals, WorkUnits, SERVER_TRACE_THREAD,
    };
    pub use acn_quorum::{DaryTree, LevelQuorums, ReadLevelPolicy};
    pub use acn_simnet::{
        ChaosProfile, ChaosRule, FaultAction, FaultPlan, LatencyModel, Network, NodeId, TimedFault,
    };
    pub use acn_txir::{
        AccessMode, ComputeOp, DependencyModel, FieldId, ObjClass, ObjectId, ObjectVal, Operand,
        Program, ProgramBuilder, Stmt, Value,
    };
    pub use acn_workloads::{
        run_scenario, BatchConfig, ScenarioConfig, ScenarioObs, ScenarioResult, SpecMode,
        SystemKind, TxnRequest, Workload,
    };
}
