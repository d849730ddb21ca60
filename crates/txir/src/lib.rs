#![warn(missing_docs)]

//! # acn-txir — transaction IR and static analysis
//!
//! The paper's Static Module feeds Java transaction code to the Soot
//! framework, obtains a *UnitGraph* (control-flow graph), runs data-flow
//! analysis over it, and extracts **UnitBlocks** — the smallest logical
//! units of transactional code, each containing exactly one remote object
//! invocation plus the local computation that depends on it — together with
//! a **dependency model** between UnitBlocks.
//!
//! Rust has no Soot, so this crate provides the equivalent from first
//! principles: transactions are written in a small SSA-form IR (built with
//! [`ProgramBuilder`]), and the same analyses run over it:
//!
//! * [`UnitGraph`] — statement-level graph with flow (def-use) and
//!   object-state (read/write ordering) dependency edges;
//! * [`extract_unit_blocks`] — the §V-C1 assignment rules: one UnitBlock per
//!   remote open, each local operation enclosed in the latest UnitBlock that
//!   accesses one of the shared objects it manages, purely-local operations
//!   following their dependency chains;
//! * [`DependencyModel`] — UnitBlocks, lifted block-level edges, and per-
//!   operation *eligible host* sets that the run-time Algorithm Module uses
//!   to re-attach local operations to the most contended eligible UnitBlock
//!   (Step 1), merge similar-contention neighbours (Step 2) and sort blocks
//!   by contention (Step 3).
//!
//! The IR is deliberately interpretation-friendly: the Executor Engine in
//! `acn-core` walks statements and evaluates [`ComputeOp`]s over [`Value`]s,
//! issuing remote opens through the DTM for every [`Stmt::Open`].
//!
//! ## Aliasing contract
//!
//! The dependency analysis treats distinct `Open` statements as touching
//! distinct objects — object indices are run-time values, so may-alias
//! information is statically unavailable, exactly as for the paper's
//! Soot-based analysis of `getRemote(id)` call sites. Consequently a
//! template whose instances open the *same* object through two different
//! statements could otherwise let Block reordering change which buffered
//! value a later read observes. Transaction-level atomicity and isolation
//! are never affected — the hazard is purely the intra-transaction
//! read/write order around an aliased handle. The executor in `acn-core`
//! enforces the contract at run time: an `Open` resolving to an object
//! already held by a *different* handle aborts the attempt and re-runs it
//! as a flat (program-order) sequence, where aliasing is harmless. The
//! bundled workload generators still draw ids without replacement where it
//! matters (e.g. TPC-C order lines), so the degraded path stays cold.
//!
//! ## The access table
//!
//! [`AccessSummary`] is the one description of a template's opens: a row
//! ([`OpenRow`]) per top-level open whose index is a closed form
//! ([`SymExpr`]) over parameters and designated *hot-counter* reads
//! (TPC-C's `D_NEXT_OID`), the counter sites, and class sets covering
//! `Cond`-nested opens and pointer chases. One evaluator,
//! [`OpenRow::object`], turns a row into an [`ObjectId`] for both readers:
//! the batch scheduler ([`AccessSummary::resolve_with`], counters predicted
//! by a [`CounterOracle`] → *predicted-exact* access sets it can order at
//! object granularity; the executor validates each [`PredictedRead`] at the
//! real read and repairs mismatches by partial rollback) and the executor
//! ([`AccessSummary::fetch_list`] ∪ the rows it presumes absent).

mod access;
mod analysis;
mod builder;
mod depmodel;
mod idhash;
mod ir;
mod object;
mod symbolic;
mod unitgraph;
mod validate;
mod value;

pub use access::{
    AccessSummary, CounterOracle, CounterSite, OpenRow, PredictedRead, ResolvedAccess,
};
pub use analysis::{extract_unit_blocks, UnitBlock, UnitBlockId};
pub use builder::ProgramBuilder;
pub use depmodel::{
    is_acyclic, lift_edges, topo_order_preserving, DependencyModel, StmtAssignment,
};
pub use idhash::{IdHasher, IdMap, IdSet};
pub use ir::{AccessMode, ComputeOp, Operand, ParamId, Program, Stmt, StmtIdx, VarId};
pub use object::{FieldId, ObjClass, ObjectId, ObjectVal};
pub use symbolic::{CounterRef, SymExpr};
pub use unitgraph::{StmtInfo, UnitGraph};
pub use validate::{validate, ValidateError};
pub use value::{EvalError, Value};
