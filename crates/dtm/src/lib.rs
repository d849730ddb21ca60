#![warn(missing_docs)]

//! # acn-dtm — QR-DTM / QR-CN: a quorum-replicated DTM with closed nesting
//!
//! This crate rebuilds the transactional substrate the paper runs on:
//!
//! * **QR-DTM** (Zhang & Ravindran, OPODIS '11): a fault-tolerant DTM that
//!   fully replicates every object on all server nodes and coordinates
//!   through **tree quorums** (`acn-quorum`). A transaction's first access
//!   to an object is a remote fetch from a read quorum; every such read
//!   **incrementally validates** the transaction's current read-set so
//!   conflicts surface early; commit runs **two-phase commit** against a
//!   write quorum, locking (the paper's `protected` flag) and re-validating
//!   before applying writes and bumping version numbers. The protocol is
//!   1-copy serializable because any read quorum intersects any write
//!   quorum and any two write quorums intersect.
//! * **QR-CN** (Dhoke et al., IPDPS '13): closed nesting on top. A
//!   sub-transaction is a scope on its parent's context; committing it
//!   keeps its reads and writes in the parent (never in the shared state);
//!   an invalidation of an object *first read by the running
//!   sub-transaction* aborts only that sub-transaction (**partial
//!   rollback**), while an invalidation of anything in the parent's history
//!   aborts the whole transaction.
//! * The **Dynamic Module's server half**: per-object write counters over
//!   rotating time windows, queryable per class, which is how QR-ACN
//!   observes contention ("the contention level of an object is calculated
//!   as the number of write requests happened in the last time window").
//!
//! The client/server split mirrors the paper's: the requesting transaction
//! is the *client*, quorum nodes are *servers*, and all interaction flows
//! through `acn-simnet` messages so remote operations pay network latency.

mod client;
mod cluster;
mod contention;
mod context;
pub mod coordinator;
mod error;
mod history;
mod messages;
mod server;
mod store;
mod wal;

pub use client::{ClientConfig, ClientStats, ContentionSample, DtmClient};
pub use cluster::{Cluster, ClusterConfig, PersistenceMode};
pub use contention::{ContentionWindow, WindowConfig};
pub use context::{SpecCache, TxnCtx};
pub use error::{AbortScope, DtmError};
pub use history::{
    check_durability, check_history, CommitRecord, DurabilitySummary, HistoryLog, HistorySummary,
    Violation,
};
pub use messages::{kind as msg_kind, BatchRead, Msg, ReqId, TxnId, ValidateEntry, Version};
pub use server::{Server, ServerStats, SyncConfig, DEFAULT_PREPARED_TTL};
pub use store::{ClassDigest, Store, StoreDigest, VersionedObject};
pub use wal::{
    checksum, decode_stream, replay, CommitApplyRef, DurabilityMode, FaultLog, FaultLogConfig,
    FileLog, Framed, LoadedLog, MemLog, Persistence, ReplayState, WalError, WalRecord, FRAME_HDR,
    MEMLOG_CAPACITY,
};
