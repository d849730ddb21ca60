//! The wire protocol between transaction clients and quorum servers.

use acn_simnet::NodeId;
use acn_txir::{ObjectId, ObjectVal};
use std::fmt;
use std::sync::Arc;

/// Object version number, bumped on every commit. Fresh (never-committed)
/// objects have version 0 on every replica.
pub type Version = u64;

/// Per-client request correlation id. Clients discard stray responses from
/// timed-out earlier requests by matching this.
pub type ReqId = u64;

/// Globally unique transaction identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId {
    /// The client node running the transaction.
    pub client: NodeId,
    /// Client-local sequence number.
    pub seq: u64,
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn({}:{})", self.client, self.seq)
    }
}

/// A read-set entry presented for incremental validation.
pub type ValidateEntry = (ObjectId, Version);

/// One object's copy inside a [`Msg::ReadBatchResp`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRead {
    /// The object this entry answers for.
    pub obj: ObjectId,
    /// This replica's version of the object.
    pub version: Version,
    /// This replica's copy of the object.
    pub value: ObjectVal,
    /// The object is `protected` by an in-flight commit; `version`/`value`
    /// must be ignored.
    pub locked: bool,
}

/// Messages exchanged between clients and quorum servers.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Client → read quorum member: the one read request. Fetch the latest
    /// copies of `objs` in one round trip and re-validate the presented
    /// read-set entries (incremental validation); a single-object read is
    /// a batch of one.
    ///
    /// `validate` is the whole read-set on a round issued by a
    /// statement-level open, and only its *delta* on a fetch round —
    /// entries not yet validated against the slowest member of this quorum,
    /// per the client's per-server watermarks — so a fetching transaction's
    /// shipped validation payload grows linearly with the read-set instead
    /// of quadratically. The full read-set is still validated at prepare
    /// time, so the delta only affects how early a stale read is detected,
    /// never safety.
    ///
    /// `sample` piggybacks a contention query on the existing message —
    /// "meta-data are coupled with existing network messages, which
    /// slightly increases the network transmission delay" (paper §V-C2) —
    /// listing the object classes whose levels the Dynamic Module wants.
    ReadBatchReq {
        /// The requesting transaction.
        txn: TxnId,
        /// Correlation id.
        req: ReqId,
        /// The objects to fetch.
        objs: Vec<ObjectId>,
        /// Read-set entries presented for incremental validation.
        validate: Vec<ValidateEntry>,
        /// Classes whose contention level should ride along on the reply.
        sample: Vec<u16>,
    },
    /// Server → client: one [`BatchRead`] per requested object (same
    /// order), served atomically against the replica's store, plus any
    /// presented read-set entries this replica knows to be stale (its
    /// version is newer than presented). `levels` answers the request's
    /// piggybacked contention sample.
    ReadBatchResp {
        /// Correlation id.
        req: ReqId,
        /// Per-object replies, in request order.
        reads: Vec<BatchRead>,
        /// Presented read-set entries this replica knows to be stale.
        invalid: Vec<ObjectId>,
        /// Piggybacked per-class contention levels (see
        /// `ReadBatchReq::sample`).
        levels: Vec<(u16, f64)>,
    },
    /// Phase 1 of 2PC: lock the write-set and validate the read-set.
    PrepareReq {
        /// The committing transaction.
        txn: TxnId,
        /// Correlation id.
        req: ReqId,
        /// Full read-set (write-set read versions included).
        validate: Vec<ValidateEntry>,
        /// Objects to be written, with the version the client read.
        writes: Vec<(ObjectId, Version)>,
    },
    /// Server vote. `invalid` lists stale read-set entries; `locked` names
    /// the write-set object a lock conflict rejected on. Both feed the
    /// client's abort attribution: a no-vote with empty `invalid` and
    /// empty `locked` would leave the conflict unattributable.
    PrepareResp {
        /// Correlation id.
        req: ReqId,
        /// Yes/no vote for phase 2.
        vote: bool,
        /// Stale read-set entries, when the rejection was a validation
        /// failure.
        invalid: Vec<ObjectId>,
        /// The already-locked write-set object, when the rejection was a
        /// lock conflict (at most one: locking stops at the first failure).
        locked: Option<ObjectId>,
        /// The replica refused to vote because it is still catching up
        /// after a crash (restart or amnesia). Always a no-vote with empty
        /// `invalid`/`locked`; the client must not blame an object and
        /// should retry against a fresh quorum.
        syncing: bool,
        /// The replica refused to vote because its WAL is failing: the
        /// grant could not be made durable, so granting it would risk an
        /// unreplayable decision. Like `syncing`, always a no-vote with
        /// empty `invalid`/`locked` and attributed separately (storage
        /// back-pressure, not data contention).
        wal_refused: bool,
    },
    /// Phase 2, commit: apply buffered writes, bump versions, count writes
    /// into the contention window, release locks.
    CommitReq {
        /// The committing transaction.
        txn: TxnId,
        /// Correlation id.
        req: ReqId,
        /// `(object, new version, new value)` to install.
        writes: Vec<(ObjectId, Version, ObjectVal)>,
    },
    /// Acknowledges a [`Msg::CommitReq`].
    CommitAck {
        /// Correlation id.
        req: ReqId,
    },
    /// Phase 2, abort: release locks without applying.
    AbortReq {
        /// The aborting transaction.
        txn: TxnId,
        /// Correlation id.
        req: ReqId,
    },
    /// Acknowledges a [`Msg::AbortReq`].
    AbortAck {
        /// Correlation id.
        req: ReqId,
    },
    /// Dynamic Module: ask for the contention level of object classes
    /// (identified by `ObjClass::id`).
    ContentionReq {
        /// Correlation id.
        req: ReqId,
        /// Class ids to report on.
        classes: Vec<u16>,
    },
    /// Per-class contention levels from the last complete window:
    /// `levels` from write counts, `abort_levels` from prepare rejections
    /// blamed on each class's objects.
    ContentionResp {
        /// Correlation id.
        req: ReqId,
        /// Per-class write levels.
        levels: Vec<(u16, f64)>,
        /// Per-class abort ratios.
        abort_levels: Vec<(u16, f64)>,
    },
    /// Recovering server → peer server: a replica back from a crash asks
    /// for whatever is newer than what it holds. `known` is what the replay
    /// of its surviving log (and the responses absorbed so far) rebuilt —
    /// empty when the disk was lost too, which makes the answer the peer's
    /// whole inventory. The `incarnation` (bumped on every recovery) lets
    /// the requester discard stale responses to a previous attempt.
    SyncReq {
        /// Correlation id (the recovering server's own counter).
        req: ReqId,
        /// The requester's recovery incarnation this request belongs to.
        incarnation: u64,
        /// `(object, version)` the requester already holds.
        known: Vec<(ObjectId, Version)>,
    },
    /// Peer server → recovering server: what the peer holds that the probe's
    /// `known` lacks. Servers that are themselves syncing do not answer — a
    /// store that may be missing committed writes must never seed another
    /// replica.
    SyncResp {
        /// Correlation id, echoed from the [`Msg::SyncReq`].
        req: ReqId,
        /// The requester's incarnation, echoed for staleness filtering.
        incarnation: u64,
        /// `(object, version, value)` for every object the peer holds at a
        /// newer version than the requester.
        entries: Vec<(ObjectId, Version, ObjectVal)>,
    },
    /// Client → lagging read-quorum member, fire-and-forget: after a
    /// quorum read disagreed on versions, push the winning copy back to
    /// the responders that served an older one. Applied through the same
    /// forward-only [`crate::Store::apply`] as commits, so a concurrent
    /// newer commit can never be regressed. No response message.
    RepairWrite {
        /// Correlation id (unused — there is no reply — but kept for
        /// uniform tracing).
        req: ReqId,
        /// `(object, version, value)` copies to install if newer.
        writes: Vec<(ObjectId, Version, ObjectVal)>,
    },
    /// Server → client: the replica cannot serve reads because it is
    /// catching up after a crash (restart or amnesia). The client treats the
    /// responder as unavailable for this round (it does not count toward
    /// the quorum) without waiting out the RPC timeout.
    Syncing {
        /// Correlation id, echoed from the refused request.
        req: ReqId,
    },
    /// A client request wrapped with its causal span context. Servers
    /// unwrap before handling and record their queue-dwell / handling
    /// spans as children of `ctx.span` (the client's round span).
    ///
    /// [`Msg::kind`] and [`Msg::response_req`] delegate to the inner
    /// message, so chaos classification — and therefore every seeded fault
    /// schedule — is identical whether tracing is on or off. Responses are
    /// never wrapped: the client already owns the round span. The
    /// wrapped request is the round's own shared allocation, so tracing
    /// copies no request.
    Traced {
        /// Trace id + parent (round) span id.
        ctx: acn_obs::TraceCtx,
        /// The wrapped request.
        inner: Arc<Msg>,
    },
}

/// Message-kind constants for the chaos layer's (src, dst, kind) filters.
/// Stable small integers so fault plans can be written against them.
pub mod kind {
    use acn_simnet::MsgKind;

    // 0 and 1 belonged to the retired single-object read pair. They are
    // not reused: chaos fates hash the kind, so renumbering would reshuffle
    // every seeded fault schedule.
    /// [`super::Msg::ReadBatchReq`]
    pub const READ_BATCH_REQ: MsgKind = 2;
    /// [`super::Msg::ReadBatchResp`]
    pub const READ_BATCH_RESP: MsgKind = 3;
    /// [`super::Msg::PrepareReq`]
    pub const PREPARE_REQ: MsgKind = 4;
    /// [`super::Msg::PrepareResp`]
    pub const PREPARE_RESP: MsgKind = 5;
    /// [`super::Msg::CommitReq`]
    pub const COMMIT_REQ: MsgKind = 6;
    /// [`super::Msg::CommitAck`]
    pub const COMMIT_ACK: MsgKind = 7;
    /// [`super::Msg::AbortReq`]
    pub const ABORT_REQ: MsgKind = 8;
    /// [`super::Msg::AbortAck`]
    pub const ABORT_ACK: MsgKind = 9;
    /// [`super::Msg::ContentionReq`]
    pub const CONTENTION_REQ: MsgKind = 10;
    /// [`super::Msg::ContentionResp`]
    pub const CONTENTION_RESP: MsgKind = 11;
    // 12 belonged to the retired shutdown message (a server is stopped by
    // a call now); like 0 and 1 it is not reused.
    /// [`super::Msg::SyncReq`]
    pub const SYNC_REQ: MsgKind = 13;
    /// [`super::Msg::SyncResp`]
    pub const SYNC_RESP: MsgKind = 14;
    /// [`super::Msg::RepairWrite`]
    pub const REPAIR_WRITE: MsgKind = 15;
    /// [`super::Msg::Syncing`]
    pub const SYNCING: MsgKind = 16;
    // 17 belonged to the retired delta probe (every `SyncReq` carries
    // `known` now); like 0 and 1 it is not reused.
}

impl Msg {
    /// This message's [`acn_simnet::MsgKind`] for chaos-rule filtering.
    pub fn kind(&self) -> acn_simnet::MsgKind {
        match self {
            Msg::ReadBatchReq { .. } => kind::READ_BATCH_REQ,
            Msg::ReadBatchResp { .. } => kind::READ_BATCH_RESP,
            Msg::PrepareReq { .. } => kind::PREPARE_REQ,
            Msg::PrepareResp { .. } => kind::PREPARE_RESP,
            Msg::CommitReq { .. } => kind::COMMIT_REQ,
            Msg::CommitAck { .. } => kind::COMMIT_ACK,
            Msg::AbortReq { .. } => kind::ABORT_REQ,
            Msg::AbortAck { .. } => kind::ABORT_ACK,
            Msg::ContentionReq { .. } => kind::CONTENTION_REQ,
            Msg::ContentionResp { .. } => kind::CONTENTION_RESP,
            Msg::SyncReq { .. } => kind::SYNC_REQ,
            Msg::SyncResp { .. } => kind::SYNC_RESP,
            Msg::RepairWrite { .. } => kind::REPAIR_WRITE,
            Msg::Syncing { .. } => kind::SYNCING,
            Msg::Traced { inner, .. } => inner.kind(),
        }
    }

    /// The correlation id of a *response* message, if it is one.
    pub fn response_req(&self) -> Option<ReqId> {
        match self {
            Msg::ReadBatchResp { req, .. }
            | Msg::PrepareResp { req, .. }
            | Msg::CommitAck { req }
            | Msg::AbortAck { req }
            | Msg::ContentionResp { req, .. }
            | Msg::SyncResp { req, .. }
            | Msg::Syncing { req } => Some(*req),
            Msg::Traced { inner, .. } => inner.response_req(),
            _ => None,
        }
    }

    /// Approximate serialised size in bytes, for the simulator's byte
    /// accounting ([`acn_simnet::NetStatsSnapshot::bytes_sent`]). The
    /// estimate uses fixed per-field costs (8-byte versions and ids, 12-byte
    /// object ids, 16 bytes per populated object field) — precise enough to
    /// compare read-path variants, which is all the simulator needs.
    pub fn wire_bytes(&self) -> u64 {
        const HDR: u64 = 16; // tag + txn/req ids common to all messages
        const OID: u64 = 12; // class + index
        const VE: u64 = OID + 8; // validate entry: object id + version
        const LVL: u64 = 10; // class id + level
        fn val_bytes(v: &ObjectVal) -> u64 {
            8 + 16 * v.len() as u64
        }
        match self {
            Msg::ReadBatchReq {
                objs,
                validate,
                sample,
                ..
            } => {
                HDR + OID * objs.len() as u64 + VE * validate.len() as u64 + 2 * sample.len() as u64
            }
            Msg::ReadBatchResp {
                reads,
                invalid,
                levels,
                ..
            } => {
                HDR + reads
                    .iter()
                    .map(|r| OID + 9 + val_bytes(&r.value))
                    .sum::<u64>()
                    + OID * invalid.len() as u64
                    + LVL * levels.len() as u64
            }
            Msg::PrepareReq {
                validate, writes, ..
            } => HDR + VE * (validate.len() + writes.len()) as u64,
            Msg::PrepareResp {
                invalid, locked, ..
            } => HDR + 3 + OID * (invalid.len() as u64 + u64::from(locked.is_some())),
            Msg::CommitReq { writes, .. }
            | Msg::SyncResp {
                entries: writes, ..
            }
            | Msg::RepairWrite { writes, .. } => {
                HDR + writes
                    .iter()
                    .map(|(_, _, v)| VE + val_bytes(v))
                    .sum::<u64>()
            }
            Msg::CommitAck { .. } | Msg::AbortAck { .. } => HDR,
            Msg::AbortReq { .. } => HDR,
            Msg::ContentionReq { classes, .. } => HDR + 2 * classes.len() as u64,
            Msg::ContentionResp {
                levels,
                abort_levels,
                ..
            } => HDR + LVL * (levels.len() + abort_levels.len()) as u64,
            Msg::SyncReq { known, .. } => HDR + 8 + VE * known.len() as u64,
            Msg::Syncing { .. } => HDR,
            // Two span ids ride along with the inner message.
            Msg::Traced { inner, .. } => inner.wire_bytes() + 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_debug_format() {
        let t = TxnId {
            client: NodeId(3),
            seq: 9,
        };
        assert_eq!(format!("{t:?}"), "txn(n3:9)");
    }

    #[test]
    fn response_req_extracts_correlation_ids() {
        assert_eq!(
            Msg::ReadBatchResp {
                req: 6,
                reads: vec![],
                invalid: vec![],
                levels: vec![]
            }
            .response_req(),
            Some(6)
        );
        assert_eq!(Msg::CommitAck { req: 7 }.response_req(), Some(7));
        assert_eq!(Msg::AbortAck { req: 8 }.response_req(), Some(8));
        assert_eq!(
            Msg::ContentionResp {
                req: 9,
                levels: vec![],
                abort_levels: vec![]
            }
            .response_req(),
            Some(9)
        );
        assert_eq!(
            Msg::ContentionReq {
                req: 1,
                classes: vec![]
            }
            .response_req(),
            None,
            "requests are not responses"
        );
        assert_eq!(
            Msg::SyncResp {
                req: 10,
                incarnation: 1,
                entries: vec![]
            }
            .response_req(),
            Some(10)
        );
        assert_eq!(
            Msg::Syncing { req: 11 }.response_req(),
            Some(11),
            "a sync refusal correlates with the refused request"
        );
        assert_eq!(
            Msg::SyncReq {
                req: 1,
                incarnation: 1,
                known: vec![]
            }
            .response_req(),
            None,
            "a sync probe is a request, not a response"
        );
        assert_eq!(
            Msg::RepairWrite {
                req: 1,
                writes: vec![]
            }
            .response_req(),
            None,
            "repair writes are fire-and-forget"
        );
    }

    #[test]
    fn recovery_messages_have_distinct_kinds() {
        let t = TxnId {
            client: NodeId(0),
            seq: 1,
        };
        let all = [
            Msg::SyncReq {
                req: 1,
                incarnation: 1,
                known: vec![],
            },
            Msg::SyncResp {
                req: 1,
                incarnation: 1,
                entries: vec![],
            },
            Msg::RepairWrite {
                req: 1,
                writes: vec![],
            },
            Msg::Syncing { req: 1 },
            Msg::PrepareReq {
                txn: t,
                req: 1,
                validate: vec![],
                writes: vec![],
            },
        ];
        let kinds: std::collections::HashSet<_> = all.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds.len(), all.len(), "kinds must not collide");
        assert_eq!(all[0].kind(), kind::SYNC_REQ);
        assert_eq!(all[3].kind(), kind::SYNCING);
        // Sync payload cost scales with the inventory like a commit's.
        use acn_txir::ObjClass;
        let obj = |i| ObjectId::new(ObjClass::new(1, "c"), i);
        let resp = |n: u64| Msg::SyncResp {
            req: 1,
            incarnation: 1,
            entries: (0..n).map(|i| (obj(i), i, ObjectVal::new())).collect(),
        };
        let per_entry = resp(2).wire_bytes() - resp(1).wire_bytes();
        assert!(per_entry >= 20, "entries are not free: {per_entry}");
        // A probe pays per known-version entry (object id + version),
        // trading probe size for a delta-sized response.
        let probe = |n: u64| Msg::SyncReq {
            req: 1,
            incarnation: 1,
            known: (0..n).map(|i| (obj(i), i)).collect(),
        };
        assert_eq!(probe(3).wire_bytes() - probe(1).wire_bytes(), 2 * 20);
    }

    #[test]
    fn wire_bytes_scales_with_payload() {
        use acn_txir::ObjClass;
        let t = TxnId {
            client: NodeId(0),
            seq: 1,
        };
        let obj = |i| ObjectId::new(ObjClass::new(1, "c"), i);
        let batch = |n: u64, v: usize| Msg::ReadBatchReq {
            txn: t,
            req: 1,
            objs: (0..n).map(obj).collect(),
            validate: (0..v as u64).map(|i| (obj(i), 0)).collect(),
            sample: vec![],
        };
        // Doubling the object list or the validate delta grows the
        // estimate by exactly the per-entry cost.
        let base = batch(4, 0).wire_bytes();
        assert_eq!(batch(8, 0).wire_bytes() - base, 4 * 12);
        assert_eq!(batch(4, 3).wire_bytes() - base, 3 * 20);
        // A batch of n objects costs less than n batches of one.
        assert!(batch(8, 0).wire_bytes() < 8 * batch(1, 0).wire_bytes());
    }

    #[test]
    fn traced_wrapper_is_transparent_to_chaos_classification() {
        let t = TxnId {
            client: NodeId(0),
            seq: 1,
        };
        let inner = Msg::PrepareReq {
            txn: t,
            req: 3,
            validate: vec![],
            writes: vec![],
        };
        let plain_kind = inner.kind();
        let plain_bytes = inner.wire_bytes();
        let wrapped = Msg::Traced {
            ctx: acn_obs::TraceCtx { trace: 7, span: 9 },
            inner: Arc::new(inner),
        };
        assert_eq!(
            wrapped.kind(),
            plain_kind,
            "same chaos fate with tracing on or off"
        );
        assert_eq!(wrapped.wire_bytes(), plain_bytes + 16);
        assert_eq!(wrapped.response_req(), None);
    }

    #[test]
    fn txn_ids_order_by_client_then_seq() {
        let a = TxnId {
            client: NodeId(1),
            seq: 5,
        };
        let b = TxnId {
            client: NodeId(2),
            seq: 1,
        };
        assert!(a < b);
    }
}
