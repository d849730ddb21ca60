#![warn(missing_docs)]

//! # acn-core — ACN: Automated Closed Nesting
//!
//! The paper's contribution: a framework that **automatically decomposes
//! programmer-written flat transactions into closed-nested transactions**
//! and keeps the decomposition tuned to the live workload, so partial
//! rollback pays off without manual sub-transaction design.
//!
//! The moving parts map one-to-one onto the paper's §V:
//!
//! * [`StaticModule`] — runs the `acn-txir` analysis once per transaction
//!   template and caches the [`acn_txir::DependencyModel`] (UnitBlocks +
//!   dependency edges + eligible hosts).
//! * [`DynamicModule`] — samples per-class contention levels from the
//!   quorum servers through the DTM client.
//! * [`AlgorithmModule`] — recomputes the **Block sequence**: Step 1 splits
//!   merged blocks and re-attaches each local operation to its most
//!   contended eligible UnitBlock; Step 2 merges adjacent dependent
//!   UnitBlocks with similar contention; Step 3 sorts blocks by ascending
//!   contention while preserving data dependencies, pushing hot blocks
//!   toward the commit phase.
//! * [`ExecutorEngine`] — interprets a transaction instance over a
//!   [`BlockSeq`], running each Block as one closed-nested transaction
//!   with QR-CN partial rollback, or flat for the QR-DTM baseline.
//! * [`AcnController`] — the periodic trigger tying the above together: at
//!   every period boundary a client thread refreshes contention and swaps
//!   in the new Block sequence for all threads running that template.
//!
//! Baselines for the evaluation ship here too: flat execution (QR-DTM) and
//! manual closed nesting (QR-CN) via [`BlockSeq::flat`] /
//! [`BlockSeq::group_units`].

mod algorithm;
mod blocks;
mod contention_model;
mod controller;
mod dynamic_module;
mod executor;
mod scheduler;
mod static_module;

pub use acn_obs::ExecStats;
pub use algorithm::{AlgorithmConfig, AlgorithmModule};
pub use blocks::BlockSeq;
pub use contention_model::{AbortProbabilityModel, ContentionModel, MaxModel, SumModel};
pub use controller::{AcnController, ControllerConfig, SamplingMode};
pub use dynamic_module::DynamicModule;
pub use executor::{
    ExecutorConfig, ExecutorEngine, Prediction, PredictionOutcome, RetryPolicy, RunError,
};
pub use scheduler::{
    conflicts, conflicts_with, plan_wave, plan_wave_with, InexactPolicy, WavePlan, WaveStats,
};
pub use static_module::StaticModule;
