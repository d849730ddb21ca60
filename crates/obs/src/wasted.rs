//! The wasted-work ledger: what every abort actually threw away.
//!
//! The paper's value proposition is that partial rollback discards *less
//! work* than a full restart; this module makes that a first-class online
//! metric instead of an end-of-run inference. Work is measured in three
//! units — Block executions, batched read rounds, and lock holds
//! (update-mode opens) — accumulated from the same [`TxnEvent`] stream
//! that feeds abort attribution, so the closed loop and the batch path are
//! covered by one accounting.
//!
//! The ledger follows the attribution-sum discipline of PR 3: every unit
//! of work counted as executed is charged to exactly one outcome, and
//!
//! ```text
//! committed + discarded(full) + discarded(partial) == executed
//! ```
//!
//! holds *exactly*, per unit, on every settled ledger — CI asserts it
//! under chaos profiles too. An execution path that records work but
//! never charges it (or charges work it never recorded) breaks the sum
//! and fails the suite, which is the point: the invariant is a tripwire
//! for unaccounted work, not a definition that is true by construction.
//!
//! Accounting notes, for precision about what the numbers mean:
//!
//! - A *flat* attempt (no Block scopes) counts as one Block execution,
//!   charged when the attempt terminates — including attempts that fail
//!   before reaching their body, whose partial statement execution the
//!   event stream cannot size.
//! - Attempts abandoned without a terminal abort event (quorum
//!   unavailability absorbed by the retry policy, retry-budget
//!   exhaustion, fatal errors) are charged to `discarded(full)` and
//!   additionally reported under [`WorkTotals::abandoned`], so storm
//!   analysis can separate contention loss from availability loss.
//! - A partial rollback re-runs exactly the aborted Block, so its
//!   attribution is exact.

use crate::event::{AbortKind, TxnEvent};
use crate::section::section;
use std::collections::BTreeMap;

section! {
    /// A quantity of transactional work, by unit.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WorkUnits {
        /// Block (sub-transaction) executions, flat bodies counted as one.
        pub blocks: u64 = "blocks",
        /// Batched quorum read rounds.
        pub read_rounds: u64 = "read_rounds",
        /// Update-mode opens (each acquires a commit-time lock claim).
        pub lock_holds: u64 = "lock_holds",
    }
}

impl WorkUnits {
    /// All-zero work.
    pub const ZERO: WorkUnits = WorkUnits {
        blocks: 0,
        read_rounds: 0,
        lock_holds: 0,
    };

    /// True when every unit is zero.
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    fn accumulate(&mut self, other: WorkUnits) {
        self.blocks += other.blocks;
        self.read_rounds += other.read_rounds;
        self.lock_holds += other.lock_holds;
    }
}

impl std::ops::Add for WorkUnits {
    type Output = WorkUnits;
    fn add(self, rhs: WorkUnits) -> WorkUnits {
        let mut out = self;
        out.accumulate(rhs);
        out
    }
}

/// The settled, mergeable totals of a [`WorkLedger`]: every recorded unit
/// of work charged to exactly one outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkTotals {
    /// Everything recorded, charged or not yet — the right-hand side of
    /// the invariant.
    pub executed: WorkUnits,
    /// Work alive in a committed transaction's final state.
    pub committed: WorkUnits,
    /// Work discarded by full restarts (abandoned attempts included).
    pub discarded_full: WorkUnits,
    /// Work discarded by partial (child-scope) rollbacks —
    /// the paper's headline: this is what stays *small* under ACN.
    pub discarded_partial: WorkUnits,
    /// Sub-bucket of [`WorkTotals::discarded_full`]: attempts abandoned
    /// without a terminal abort event (availability, budget exhaustion).
    pub abandoned: WorkUnits,
    /// Discarded work split by the abort kind that discarded it
    /// (abandoned work carries no kind and appears only in `abandoned`).
    pub by_kind: BTreeMap<AbortKind, WorkUnits>,
}

/// One outcome bucket of [`WorkTotals`]: its exported name and the member.
pub type WorkScope = (
    &'static str,
    fn(&WorkTotals) -> &WorkUnits,
    fn(&mut WorkTotals) -> &mut WorkUnits,
);

impl WorkTotals {
    /// The outcome buckets by exported `scope` name, in export order
    /// (`by_kind` is exported per kind, not per scope).
    pub const SCOPES: [WorkScope; 5] = [
        ("executed", |w| &w.executed, |w| &mut w.executed),
        ("committed", |w| &w.committed, |w| &mut w.committed),
        (
            "discarded_full",
            |w| &w.discarded_full,
            |w| &mut w.discarded_full,
        ),
        (
            "discarded_partial",
            |w| &w.discarded_partial,
            |w| &mut w.discarded_partial,
        ),
        ("abandoned", |w| &w.abandoned, |w| &mut w.abandoned),
    ];

    /// Total discarded work, full and partial.
    pub fn discarded(&self) -> WorkUnits {
        self.discarded_full + self.discarded_partial
    }

    /// Accumulate another settled total (per-thread collection).
    pub fn merge(&mut self, other: &WorkTotals) {
        self.executed.accumulate(other.executed);
        self.committed.accumulate(other.committed);
        self.discarded_full.accumulate(other.discarded_full);
        self.discarded_partial.accumulate(other.discarded_partial);
        self.abandoned.accumulate(other.abandoned);
        for (&k, &w) in &other.by_kind {
            self.by_kind.entry(k).or_default().accumulate(w);
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.executed.is_zero()
    }

    /// The exactness invariant, checked per unit:
    /// `committed + discarded_full + discarded_partial == executed`, and
    /// the per-kind split plus abandoned must sum to the discard totals.
    /// Returns a description of the first violated equation.
    pub fn check(&self) -> Result<(), String> {
        let charged = self.committed + self.discarded_full + self.discarded_partial;
        if charged != self.executed {
            return Err(format!(
                "work invariant violated: committed {:?} + discarded_full {:?} + \
                 discarded_partial {:?} = {charged:?} != executed {:?}",
                self.committed, self.discarded_full, self.discarded_partial, self.executed
            ));
        }
        let mut by_kind_sum = self.abandoned;
        for w in self.by_kind.values() {
            by_kind_sum.accumulate(*w);
        }
        if by_kind_sum != self.discarded() {
            return Err(format!(
                "per-kind split violated: sum(by_kind) + abandoned = {by_kind_sum:?} \
                 != discarded {:?}",
                self.discarded()
            ));
        }
        Ok(())
    }
}

/// Per-observer live ledger: the settled totals plus the work of the
/// in-flight attempt, fed one [`TxnEvent`] at a time.
#[derive(Debug, Clone, Default)]
pub struct WorkLedger {
    totals: WorkTotals,
    /// Completed-Block work of the in-flight attempt (merged parent
    /// state): discarded only by a full abort.
    attempt: WorkUnits,
    /// Work of the Block currently executing: discarded by a partial
    /// abort of that Block alone.
    block: WorkUnits,
    /// Whether the in-flight attempt opened any Block scope; a flat
    /// attempt counts one Block lazily when it terminates.
    saw_block: bool,
}

impl WorkLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge the current Block's work to `f`'s bucket and reset it.
    fn charge_block(&mut self, kind: AbortKind) {
        let w = std::mem::take(&mut self.block);
        self.totals.discarded_partial.accumulate(w);
        self.totals.by_kind.entry(kind).or_default().accumulate(w);
    }

    /// Fold the in-flight attempt (current Block included) into one
    /// value, applying the lazy flat-Block count.
    fn take_attempt(&mut self) -> WorkUnits {
        let mut w = std::mem::take(&mut self.attempt);
        w.accumulate(std::mem::take(&mut self.block));
        if !self.saw_block {
            // Flat body: one Block-equivalent of execution, recorded here
            // because no BlockStart event ever named it.
            w.blocks += 1;
            self.totals.executed.blocks += 1;
        }
        self.saw_block = false;
        w
    }

    /// Charge whatever the in-flight attempt accumulated to the abandoned
    /// sub-bucket of `discarded_full` — used for attempts that never got a
    /// terminal event (fatal errors, absorbed unavailability).
    fn abandon_in_flight(&mut self) {
        if self.attempt.is_zero() && self.block.is_zero() && !self.saw_block {
            // Nothing recorded since the last charge: no lazy Block either
            // (a Begin that never executed anything is not work).
            return;
        }
        let w = self.take_attempt();
        self.totals.discarded_full.accumulate(w);
        self.totals.abandoned.accumulate(w);
    }

    /// Record one event. Called from [`crate::TxnObserver::on_event`] so
    /// the ledger and the attribution table never disagree about which
    /// events happened.
    pub fn on_event(&mut self, ev: TxnEvent) {
        match ev {
            TxnEvent::Begin => {
                // Leftover work means the previous transaction ended on a
                // fatal path that emits no terminal event.
                self.abandon_in_flight();
            }
            TxnEvent::BlockStart { .. } => {
                // The previous Block (if any) completed: its work now
                // belongs to the attempt's merged parent state.
                let done = std::mem::take(&mut self.block);
                self.attempt.accumulate(done);
                self.block.blocks = 1;
                self.totals.executed.blocks += 1;
                self.saw_block = true;
            }
            // The next BlockStart or terminal event settles the Block.
            TxnEvent::BlockCommit { .. } => {}
            TxnEvent::BatchedRead { block, .. } => {
                let scope = if block.is_some() {
                    &mut self.block
                } else {
                    &mut self.attempt
                };
                scope.read_rounds += 1;
                self.totals.executed.read_rounds += 1;
            }
            TxnEvent::LockHolds { block, holds } => {
                let scope = if block.is_some() {
                    &mut self.block
                } else {
                    &mut self.attempt
                };
                scope.lock_holds += holds as u64;
                self.totals.executed.lock_holds += holds as u64;
            }
            TxnEvent::PartialAbort { kind, .. } => {
                self.charge_block(kind);
                // The Block re-runs: its BlockStart re-arms `block`.
            }
            TxnEvent::FullAbort { kind, .. } => {
                let w = self.take_attempt();
                self.totals.discarded_full.accumulate(w);
                self.totals.by_kind.entry(kind).or_default().accumulate(w);
            }
            TxnEvent::UnavailableRetry => {
                // The attempt restarts from scratch; everything it did is
                // availability loss, not contention loss.
                self.abandon_in_flight();
            }
            TxnEvent::Commit { .. } => {
                let w = self.take_attempt();
                self.totals.committed.accumulate(w);
            }
        }
    }

    /// The settled totals: a snapshot with any in-flight work folded into
    /// the abandoned bucket, on which [`WorkTotals::check`] always applies.
    pub fn snapshot(&self) -> WorkTotals {
        let mut settled = self.clone();
        settled.abandon_in_flight();
        settled.totals
    }

    /// Direct read of the (unsettled) totals — tests and diagnostics.
    pub fn totals(&self) -> &WorkTotals {
        &self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_txir::{ObjClass, ObjectId};

    const BRANCH: ObjClass = ObjClass::new(1, "Branch");

    fn obj() -> Option<ObjectId> {
        Some(ObjectId::new(BRANCH, 3))
    }

    fn ledger(events: &[TxnEvent]) -> WorkTotals {
        let mut l = WorkLedger::new();
        for &e in events {
            l.on_event(e);
        }
        let t = l.snapshot();
        t.check().expect("invariant");
        t
    }

    #[test]
    fn committed_nested_txn_charges_everything_to_committed() {
        let t = ledger(&[
            TxnEvent::Begin,
            TxnEvent::BlockStart { block: 0 },
            TxnEvent::BatchedRead {
                block: Some(0),
                objs: 3,
            },
            TxnEvent::LockHolds {
                block: Some(0),
                holds: 2,
            },
            TxnEvent::BlockStart { block: 1 },
            TxnEvent::LockHolds {
                block: Some(1),
                holds: 1,
            },
            TxnEvent::Commit { restarts: 0 },
        ]);
        assert_eq!(
            t.committed,
            WorkUnits {
                blocks: 2,
                read_rounds: 1,
                lock_holds: 3
            }
        );
        assert_eq!(t.executed, t.committed);
        assert!(t.discarded().is_zero());
    }

    #[test]
    fn partial_abort_charges_only_the_aborted_block_run() {
        let t = ledger(&[
            TxnEvent::Begin,
            TxnEvent::BlockStart { block: 0 },
            TxnEvent::LockHolds {
                block: Some(0),
                holds: 1,
            },
            TxnEvent::BlockStart { block: 1 },
            TxnEvent::BatchedRead {
                block: Some(1),
                objs: 2,
            },
            TxnEvent::PartialAbort {
                block: 1,
                obj: obj(),
                kind: AbortKind::Partial,
            },
            // Re-run of Block 1 succeeds this time.
            TxnEvent::BlockStart { block: 1 },
            TxnEvent::Commit { restarts: 0 },
        ]);
        assert_eq!(
            t.discarded_partial,
            WorkUnits {
                blocks: 1,
                read_rounds: 1,
                lock_holds: 0
            }
        );
        assert_eq!(
            t.committed,
            WorkUnits {
                blocks: 2,
                read_rounds: 0,
                lock_holds: 1
            }
        );
        assert_eq!(t.executed.blocks, 3, "three Block executions happened");
        assert_eq!(t.by_kind[&AbortKind::Partial].blocks, 1);
    }

    #[test]
    fn escalation_splits_block_and_attempt_charges() {
        // The executor emits PartialAbort (the livelocked Block's last
        // run) and then FullAbort{Escalated} (the attempt's other work).
        let t = ledger(&[
            TxnEvent::Begin,
            TxnEvent::BlockStart { block: 0 },
            TxnEvent::LockHolds {
                block: Some(0),
                holds: 1,
            },
            TxnEvent::BlockStart { block: 1 },
            TxnEvent::PartialAbort {
                block: 1,
                obj: obj(),
                kind: AbortKind::Partial,
            },
            TxnEvent::BlockStart { block: 1 },
            TxnEvent::PartialAbort {
                block: 1,
                obj: obj(),
                kind: AbortKind::Partial,
            },
            TxnEvent::FullAbort {
                block: Some(1),
                obj: obj(),
                kind: AbortKind::Escalated,
            },
            // Retry commits cleanly.
            TxnEvent::Begin,
            TxnEvent::BlockStart { block: 0 },
            TxnEvent::BlockStart { block: 1 },
            TxnEvent::Commit { restarts: 1 },
        ]);
        assert_eq!(t.discarded_partial.blocks, 2, "two livelocked Block runs");
        assert_eq!(
            t.by_kind[&AbortKind::Escalated],
            WorkUnits {
                blocks: 1,
                read_rounds: 0,
                lock_holds: 1
            },
            "escalation discards the attempt's completed Blocks"
        );
        assert_eq!(t.committed.blocks, 2);
        assert_eq!(t.executed.blocks, 5);
    }

    #[test]
    fn flat_attempts_count_one_lazy_block() {
        let t = ledger(&[
            TxnEvent::Begin,
            TxnEvent::BatchedRead {
                block: None,
                objs: 4,
            },
            TxnEvent::LockHolds {
                block: None,
                holds: 2,
            },
            TxnEvent::FullAbort {
                block: None,
                obj: obj(),
                kind: AbortKind::CommitConflict,
            },
            TxnEvent::Begin,
            TxnEvent::BatchedRead {
                block: None,
                objs: 4,
            },
            TxnEvent::LockHolds {
                block: None,
                holds: 2,
            },
            TxnEvent::Commit { restarts: 1 },
        ]);
        assert_eq!(
            t.discarded_full,
            WorkUnits {
                blocks: 1,
                read_rounds: 1,
                lock_holds: 2
            }
        );
        assert_eq!(t.committed.blocks, 1);
        assert_eq!(t.executed.blocks, 2);
        assert!(t.discarded_partial.is_zero(), "flat cannot partially abort");
    }

    #[test]
    fn unavailable_retry_lands_in_abandoned() {
        let t = ledger(&[
            TxnEvent::Begin,
            TxnEvent::BlockStart { block: 0 },
            TxnEvent::BatchedRead {
                block: Some(0),
                objs: 1,
            },
            TxnEvent::UnavailableRetry,
            TxnEvent::Begin,
            TxnEvent::BlockStart { block: 0 },
            TxnEvent::Commit { restarts: 0 },
        ]);
        assert_eq!(
            t.abandoned,
            WorkUnits {
                blocks: 1,
                read_rounds: 1,
                lock_holds: 0
            }
        );
        assert_eq!(t.discarded_full, t.abandoned);
        assert!(t.by_kind.is_empty(), "abandoned work carries no abort kind");
    }

    #[test]
    fn fatal_path_leftovers_are_abandoned_at_the_next_begin_or_snapshot() {
        let mut l = WorkLedger::new();
        for e in [
            TxnEvent::Begin,
            TxnEvent::BlockStart { block: 0 },
            // Fatal return: no terminal event. Next transaction begins.
            TxnEvent::Begin,
            TxnEvent::BlockStart { block: 0 },
            TxnEvent::Commit { restarts: 0 },
            // And one more left in flight at drain time.
            TxnEvent::Begin,
            TxnEvent::BlockStart { block: 1 },
        ] {
            l.on_event(e);
        }
        let t = l.snapshot();
        t.check().expect("invariant");
        assert_eq!(t.abandoned.blocks, 2, "one per fatal/in-flight attempt");
        assert_eq!(t.committed.blocks, 1);
        assert_eq!(t.executed.blocks, 3);
    }

    #[test]
    fn empty_begin_leaves_no_phantom_work() {
        let t = ledger(&[TxnEvent::Begin, TxnEvent::Begin]);
        assert!(t.is_empty());
        assert!(t.abandoned.is_zero());
    }

    #[test]
    fn merge_accumulates_and_preserves_the_invariant() {
        let a = ledger(&[
            TxnEvent::Begin,
            TxnEvent::BlockStart { block: 0 },
            TxnEvent::Commit { restarts: 0 },
        ]);
        let mut b = ledger(&[
            TxnEvent::Begin,
            TxnEvent::LockHolds {
                block: None,
                holds: 1,
            },
            TxnEvent::FullAbort {
                block: None,
                obj: None,
                kind: AbortKind::LockedOut,
            },
        ]);
        b.merge(&a);
        b.check().expect("merged invariant");
        assert_eq!(b.executed.blocks, 2);
        assert_eq!(b.committed.blocks, 1);
        assert_eq!(b.by_kind[&AbortKind::LockedOut].lock_holds, 1);
    }
}
