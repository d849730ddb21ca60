#![warn(missing_docs)]

//! # acn-workloads — benchmarks and the measurement driver
//!
//! Rust ports of the three benchmarks the paper evaluates with, expressed
//! as `acn-txir` transaction templates, plus the multi-client driver that
//! measures throughput per time interval for the three systems under
//! comparison (QR-DTM flat, QR-CN manual closed nesting, QR-ACN):
//!
//! * [`bank`] — the Bank application of §V-A/Figures 1–3: transfers touch
//!   two globally-shared **branch** objects (hot) and two **account**
//!   objects (cold); contention-shift phases swap the hot class.
//! * [`vacation`] — STAMP Vacation-style reservations over car / flight /
//!   room tables plus a customer record; the hot table rotates across
//!   phases as in the Fig 4(e) experiment.
//! * [`tpcc`] — TPC-C order processing with the transaction profiles the
//!   paper exercises: **NewOrder** (District hot), **Payment** (Warehouse
//!   and District hot), **Delivery** (uniformly low contention) and the
//!   50/50 NewOrder+Payment mix.
//! * [`driver`] — spawns a cluster and client threads, runs a workload for
//!   a configured number of measurement intervals, applies the phase
//!   schedule (hot-set shifts) and collects per-interval commit/abort
//!   counts — the data behind every subplot of Figure 4.

pub mod bank;
mod batch;
pub mod driver;
pub mod schema;
pub mod tpcc;
pub mod vacation;
mod workload;

pub use batch::{BatchConfig, SpecMode};
pub use driver::{run_scenario, ScenarioConfig, ScenarioObs, ScenarioResult, SystemKind};
pub use workload::{seed_txn, TxnRequest, Workload};
