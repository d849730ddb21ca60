//! # acn-bench — the Figure-4 runner
//!
//! The [`figures`] module defines one specification per subplot of the
//! paper's Figure 4 (workload, phase schedule, cluster shape) and a runner
//! that executes all three systems (QR-DTM, QR-CN, QR-ACN) and prints the
//! throughput-per-interval series next to the paper's reported
//! improvements. The `figures` binary is the CLI front end.

pub mod figures;
