//! Structured transaction events and the abort taxonomy.
//!
//! Events are small `Copy` values: handing one to the counters and the
//! observer is a few integer stores — cheap enough to leave enabled on
//! every abort/commit/retry site of a saturation run.

use crate::prom::{PromFamily, PromType};
use crate::section::section;
use acn_txir::ObjectId;

/// Why an execution attempt (or one Block of it) was thrown away.
///
/// The executor kinds ([`AbortKind::EXECUTOR_KINDS`]) are emitted by the
/// nesting executor, and [`ExecStats`] counts the same events, so
/// `sum(attributed aborts over executor kinds) == full_aborts +
/// partial_aborts + locked_aborts`. Under speculative batch execution the
/// same sites emit the `Spec*` variants instead, so a report separates
/// scheduler mis-speculation from ordinary contention without disturbing
/// that invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortKind {
    /// Child-scope rollback of one Block (the closed-nesting win).
    Partial,
    /// Incremental read validation surfaced stale read-set entries in the
    /// parent's history — full restart.
    ReadInvalid,
    /// Two-phase commit voted no (lock conflict or stale read at prepare).
    CommitConflict,
    /// A read kept hitting `protected` objects until the retry budget ran
    /// out.
    LockedOut,
    /// A livelocked child exhausted its partial-retry budget and escalated
    /// to a full restart.
    Escalated,
    /// Two-phase commit refused *only* because a quorum member was still
    /// catching up after a crash — recovery back-pressure,
    /// not data contention (no stale and no locked object was named).
    SyncRefused,
    /// Two-phase commit refused *only* because a quorum member's WAL
    /// could not make the prepare grant durable (storage I/O errors or
    /// ENOSPC) — storage back-pressure, not data contention (no stale
    /// and no locked object was named).
    WalRefused,
    /// Mis-speculation under the batch scheduler recovered by a child-scope
    /// partial rollback — a conflict the static access sets missed, repaired
    /// from the offending Block instead of a full re-execution.
    SpecPartial,
    /// Mis-speculation under the batch scheduler that forced a full
    /// re-execution (Block-STM-style recovery; the ablation's other arm).
    SpecFull,
    /// A predicted-exact counter read observed a different value than the
    /// wave scheduler assumed: the access sets the wave was ordered by were
    /// wrong, and the Block holding the prediction was repaired by partial
    /// rollback (or, on the flat full-restart arm, the attempt restarted).
    /// Distinct from [`AbortKind::SpecPartial`] so the ablation separates
    /// wrong-prediction repair from ordinary missed conflicts.
    SpecMispredict,
    /// An `Open` resolved to an object already held by a *different*
    /// handle, voiding the dependency analysis's distinct-objects
    /// assumption; the attempt restarted as a flat (program-order)
    /// sequence, where aliasing is harmless.
    AliasedOpen,
}

impl AbortKind {
    /// The executor kinds — every kind — whose attributed counts sum to
    /// `full_aborts + partial_aborts + locked_aborts` of the executor's
    /// stats.
    pub const EXECUTOR_KINDS: [AbortKind; 11] = [
        AbortKind::Partial,
        AbortKind::ReadInvalid,
        AbortKind::CommitConflict,
        AbortKind::LockedOut,
        AbortKind::Escalated,
        AbortKind::SyncRefused,
        AbortKind::WalRefused,
        AbortKind::SpecPartial,
        AbortKind::SpecFull,
        AbortKind::SpecMispredict,
        AbortKind::AliasedOpen,
    ];

    /// Stable lower-case label used in the JSON-lines export.
    pub fn label(&self) -> &'static str {
        match self {
            AbortKind::Partial => "partial",
            AbortKind::ReadInvalid => "read_invalid",
            AbortKind::CommitConflict => "commit_conflict",
            AbortKind::LockedOut => "locked_out",
            AbortKind::Escalated => "escalated",
            AbortKind::SyncRefused => "sync_refused",
            AbortKind::WalRefused => "wal_refused",
            AbortKind::SpecPartial => "spec_partial",
            AbortKind::SpecFull => "spec_full",
            AbortKind::SpecMispredict => "spec_mispredict",
            AbortKind::AliasedOpen => "aliased_open",
        }
    }

    /// Inverse of [`AbortKind::label`] (JSON-lines import).
    pub fn from_label(s: &str) -> Option<AbortKind> {
        Some(match s {
            "partial" => AbortKind::Partial,
            "read_invalid" => AbortKind::ReadInvalid,
            "commit_conflict" => AbortKind::CommitConflict,
            "locked_out" => AbortKind::LockedOut,
            "escalated" => AbortKind::Escalated,
            "sync_refused" => AbortKind::SyncRefused,
            "wal_refused" => AbortKind::WalRefused,
            "spec_partial" => AbortKind::SpecPartial,
            "spec_full" => AbortKind::SpecFull,
            "spec_mispredict" => AbortKind::SpecMispredict,
            "aliased_open" => AbortKind::AliasedOpen,
            _ => return None,
        })
    }
}

impl std::fmt::Display for AbortKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured event in a transaction's life: the executor emits each
/// one once, to [`ExecStats::on_event`] and to the client's
/// [`crate::TxnObserver`].
///
/// `block` is the index into the Block sequence where the event happened;
/// `None` means the flat (single-Block) body or the commit phase, where no
/// sub-transaction scope exists. `obj` is the first object the DTM blamed,
/// when it blamed any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnEvent {
    /// An execution attempt started (one per full restart).
    Begin,
    /// A Block started executing as a closed-nested sub-transaction.
    BlockStart {
        /// Index into the Block sequence.
        block: u32,
    },
    /// The running Block merged into its parent transaction. Only the span
    /// tracer reads it: the counters and the ledger settle a Block at the
    /// next `BlockStart` or terminal event.
    BlockCommit {
        /// Index into the Block sequence.
        block: u32,
    },
    /// A speculative fetch round filled the attempt's read cache: the
    /// attempt's initial fetch (every open the parameters resolve, all
    /// Blocks' at once), a dependency level unlocked by a counter read, or
    /// a refetch of evicted entries before a Block re-runs.
    BatchedRead {
        /// Block the round was issued from (`None` = flat body, or the
        /// attempt's initial fetch).
        block: Option<u32>,
        /// Number of objects fetched in the round.
        objs: u32,
    },
    /// A child-scope rollback: only this Block re-runs.
    PartialAbort {
        /// Block that rolled back.
        block: u32,
        /// First object blamed by the invalidation.
        obj: Option<ObjectId>,
        /// Why ([`AbortKind::Partial`] from the executor).
        kind: AbortKind,
    },
    /// A full restart: the whole transaction re-runs from the top.
    FullAbort {
        /// Block in which the conflict surfaced (`None` = flat body or
        /// commit phase).
        block: Option<u32>,
        /// First object blamed, when the DTM blamed one.
        obj: Option<ObjectId>,
        /// Why.
        kind: AbortKind,
    },
    /// Update-mode opens acquired by this Block (or flat body) — each one
    /// is a commit-time lock claim the wasted-work ledger charges to the
    /// scope that discards it.
    LockHolds {
        /// Block the locks belong to (`None` = flat body).
        block: Option<u32>,
        /// Number of update-mode opens recorded.
        holds: u32,
    },
    /// A quorum-unavailable round was absorbed by the retry policy.
    UnavailableRetry,
    /// The transaction committed.
    Commit {
        /// Full restarts this run absorbed before committing.
        restarts: u32,
    },
}

section! {
    /// Execution counters of the nesting executor — for one transaction, one
    /// client thread, one measurement window or a whole run, depending on
    /// what was merged into it. Derived from the [`TxnEvent`] stream and from
    /// nothing else ([`ExecStats::on_event`]), so `full + partial + locked`
    /// equals the attributed abort total by construction.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ExecStats: "exec" => TXNS {
        /// Transactions committed.
        pub commits: u64 = "commits" as "commit",
        /// Full transaction restarts (parent scope).
        pub full_aborts: u64 = "full_aborts" as "full_abort",
        /// Partial rollbacks (child scope only) — the closed-nesting win.
        pub partial_aborts: u64 = "partial_aborts" as "partial_abort",
        /// Restarts caused by persistent `protected` objects.
        pub locked_aborts: u64 = "locked_aborts" as "locked_abort",
        /// Restarts after a quorum-unavailable round (chaos/partition runs
        /// with a non-zero unavailable-retry budget).
        pub unavailable_retries: u64 = "unavailable_retries" as "unavailable_retry",
    }
}

const TXNS: PromFamily = PromFamily {
    name: "acn_txns_total",
    help: "Transaction outcomes by the executor",
    ty: PromType::Counter,
    label: Some("outcome"),
};

impl ExecStats {
    /// Count one event: terminal and abort events move a counter, every
    /// other event is ignored. [`AbortKind::LockedOut`] restarts count as
    /// `locked_aborts`, every other full restart as `full_aborts`.
    #[inline]
    pub fn on_event(&mut self, ev: TxnEvent) {
        match ev {
            TxnEvent::Commit { .. } => self.commits += 1,
            TxnEvent::FullAbort {
                kind: AbortKind::LockedOut,
                ..
            } => self.locked_aborts += 1,
            TxnEvent::FullAbort { .. } => self.full_aborts += 1,
            TxnEvent::PartialAbort { .. } => self.partial_aborts += 1,
            TxnEvent::UnavailableRetry => self.unavailable_retries += 1,
            TxnEvent::Begin
            | TxnEvent::BlockStart { .. }
            | TxnEvent::BlockCommit { .. }
            | TxnEvent::BatchedRead { .. }
            | TxnEvent::LockHolds { .. } => {}
        }
    }

    /// Element-wise accumulate (per-transaction → window → run).
    pub fn merge(&mut self, other: &ExecStats) {
        self.commits += other.commits;
        self.full_aborts += other.full_aborts;
        self.partial_aborts += other.partial_aborts;
        self.locked_aborts += other.locked_aborts;
        self.unavailable_retries += other.unavailable_retries;
    }

    /// Every abort counted: equals `AbortTable::total_of(EXECUTOR_KINDS)`
    /// of an observer fed the same events.
    pub fn total_aborts(&self) -> u64 {
        self.full_aborts + self.partial_aborts + self.locked_aborts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for k in [
            AbortKind::Partial,
            AbortKind::ReadInvalid,
            AbortKind::CommitConflict,
            AbortKind::LockedOut,
            AbortKind::Escalated,
            AbortKind::SyncRefused,
            AbortKind::WalRefused,
            AbortKind::SpecPartial,
            AbortKind::SpecFull,
            AbortKind::SpecMispredict,
            AbortKind::AliasedOpen,
        ] {
            assert_eq!(AbortKind::from_label(k.label()), Some(k));
        }
        assert_eq!(AbortKind::from_label("nope"), None);
    }

    #[test]
    fn events_are_small() {
        // Every site passes the event by value, twice; keep it a few words.
        assert!(std::mem::size_of::<TxnEvent>() <= 48);
    }
}
