//! Error and abort taxonomy.

use acn_txir::ObjectId;
use std::fmt;

/// How far a conflict rolls a transaction back — the heart of QR-CN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortScope {
    /// Only the running sub-transaction is rolled back and re-issued
    /// (every invalidated object was first read by it).
    Child,
    /// The whole (parent) transaction restarts: an object in the parent's
    /// history — read before the running sub-transaction started — was
    /// invalidated, or the conflict surfaced at commit time.
    Parent,
}

/// Failures surfaced by the DTM layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtmError {
    /// Incremental validation found stale read-set entries.
    Invalidated {
        /// The objects whose versions went stale.
        objs: Vec<ObjectId>,
    },
    /// Two-phase commit failed: a lock conflict or stale read at prepare.
    Conflict {
        /// Stale read-set entries reported by the quorum (empty for pure
        /// lock conflicts).
        invalid: Vec<ObjectId>,
        /// Write-set objects the quorum failed to lock (empty for pure
        /// validation failures). Feeds abort attribution: without it a
        /// lock conflict blamed no object at all.
        locked: Vec<ObjectId>,
        /// True when at least one quorum member refused to vote because it
        /// was still catching up after a crash (restart or amnesia). A conflict
        /// with *only* this set (no stale, no locked objects) is transient
        /// recovery back-pressure, not data contention — the abort
        /// attribution layer classifies it separately.
        syncing: bool,
        /// True when at least one quorum member refused to vote because
        /// its WAL could not make the grant durable. Like `syncing`,
        /// transient storage back-pressure classified separately by the
        /// abort attribution layer.
        wal_refused: bool,
    },
    /// A read kept hitting `protected` objects and gave up after the
    /// configured number of retries.
    LockedOut {
        /// The object that stayed protected.
        obj: ObjectId,
    },
    /// No quorum available (too many failed servers) or RPC timeout.
    Unavailable,
    /// Decided, not acknowledged: the full write quorum voted yes and the
    /// history records the commit, but the commit round died before every
    /// member acknowledged it, so no replica is known to hold it durably.
    /// Not a commit to report — and never a reason to run the transaction
    /// again: the decision stands, a re-run would apply it twice.
    Decided,
}

impl fmt::Display for DtmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtmError::Invalidated { objs } => write!(f, "read-set invalidated: {objs:?}"),
            DtmError::Conflict {
                invalid,
                locked,
                syncing,
                wal_refused,
            } => {
                write!(
                    f,
                    "commit conflict (stale: {invalid:?}, locked: {locked:?}, syncing: \
                     {syncing}, wal_refused: {wal_refused})"
                )
            }
            DtmError::LockedOut { obj } => write!(f, "read locked out on {obj}"),
            DtmError::Unavailable => write!(f, "quorum unavailable"),
            DtmError::Decided => write!(f, "commit decided, not acknowledged"),
        }
    }
}

impl std::error::Error for DtmError {}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_txir::ObjClass;

    #[test]
    fn display_is_informative() {
        const C: ObjClass = ObjClass::new(0, "C");
        let e = DtmError::Invalidated {
            objs: vec![ObjectId::new(C, 1)],
        };
        assert!(e.to_string().contains("C#1"));
        assert!(DtmError::Unavailable.to_string().contains("unavailable"));
        assert!(DtmError::LockedOut {
            obj: ObjectId::new(C, 2)
        }
        .to_string()
        .contains("C#2"));
    }

    #[test]
    fn scopes_are_distinct() {
        assert_ne!(AbortScope::Child, AbortScope::Parent);
    }
}
