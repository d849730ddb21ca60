//! The transaction context, shared by flat (QR-DTM) and closed-nested
//! (QR-CN) execution.
//!
//! A [`TxnCtx`] holds the paper's private read-set and write-set: reads log
//! `(object, version)`, fetched copies are buffered, `SetField`s mutate the
//! buffer, and everything is applied to the shared state only at commit.
//!
//! A closed-nested sub-transaction — one Block of a nested schedule — is a
//! **scope** on that context. [`TxnCtx::begin_block`] records a *mark*, the
//! read-set length, and starts an empty undo log. Inside the scope every
//! operation is the one that runs outside it; the only extra work is that
//! the first write to a copy read before the mark saves that copy to the
//! log, and an object joining the write-set is noted there.
//! [`TxnCtx::commit_block`] forgets the mark: the Block's reads and writes
//! simply stay, and nothing becomes globally visible.
//! [`TxnCtx::abort_block`] truncates the read-set to the mark, drops the
//! copies read past it, replays the undo log and clamps the validated
//! watermarks to the mark, leaving the context as `begin_block` found it.
//! The validation vector a remote round presents is the read-set itself:
//! the reads before the mark followed by the Block's own.
//!
//! When incremental validation reports stale objects,
//! [`TxnCtx::classify`] decides the rollback scope: if every stale object
//! was first read past the mark, only the Block re-executes (**partial
//! rollback**); a stale object before the mark forces a full restart. One
//! scope may be open at a time — the paper's single nesting level.
//!
//! A context's collections — read-set, its index, buffers, write-set,
//! watermarks — are reused from one transaction to the next on the same
//! client. [`TxnCtx::commit`] hands them back to its [`DtmClient`] emptied,
//! whatever the outcome, and [`TxnCtx::begin`] takes them again, so a
//! client's steady stream of transactions stops allocating them once they
//! have grown to its largest one. A context dropped without a commit (an
//! attempt abandoned on an abort) takes its collections with it, and the
//! next one starts from new, empty ones. Either way a transaction starts
//! with nothing of the one before it.

use crate::client::DtmClient;
use crate::error::{AbortScope, DtmError};
use crate::messages::{TxnId, ValidateEntry, Version};
use acn_simnet::NodeId;
use acn_txir::{FieldId, IdMap, IdSet, ObjectId, ObjectVal, Value};
use std::collections::HashMap;

/// The speculative read cache of one transaction attempt: versioned object
/// copies fetched ahead of their `Open` in batched quorum rounds
/// ([`TxnCtx::fetch_spec`]).
///
/// Entries are *not* part of the read-set until an `Open` installs them
/// via [`TxnCtx::open_spec`] — an object that was fetched but is never
/// opened therefore never enters validation and cannot cause a spurious
/// abort. Installing **peeks**: the entry stays cached, so a Block rolled
/// back for any reason other than the entry's own staleness re-installs it
/// for free. A stale copy that is installed is caught like any stale read
/// — by incremental validation on a later remote round or by commit-time
/// validation — and must then be [`SpecCache::evict`]ed before the Block
/// re-runs, or the re-run would replay the very copy that invalidated it.
/// A full restart drops the whole cache with the attempt.
#[derive(Debug, Default)]
pub struct SpecCache {
    map: IdMap<ObjectId, (Version, ObjectVal)>,
}

/// A cache of the `(object, version, value)` copies one round returned.
impl FromIterator<(ObjectId, Version, ObjectVal)> for SpecCache {
    fn from_iter<I: IntoIterator<Item = (ObjectId, Version, ObjectVal)>>(fetched: I) -> Self {
        SpecCache {
            map: fetched
                .into_iter()
                .map(|(o, v, val)| (o, (v, val)))
                .collect(),
        }
    }
}

impl SpecCache {
    /// Number of cached copies.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Nothing cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether a copy of `obj` is cached.
    pub fn contains(&self, obj: &ObjectId) -> bool {
        self.map.contains_key(obj)
    }

    /// Merge a later fetch into this cache; `other` wins on overlap (it
    /// was fetched later, so its copies are at least as fresh). An empty
    /// cache — an attempt's first round — takes `other`'s map whole.
    pub fn absorb(&mut self, other: SpecCache) {
        if self.map.is_empty() {
            self.map = other.map;
        } else {
            self.map.extend(other.map);
        }
    }

    /// Drop the copy of `obj` (it was reported stale); `true` if one was
    /// cached — the caller refetches those before re-running the Block.
    pub fn evict(&mut self, obj: &ObjectId) -> bool {
        self.map.remove(obj).is_some()
    }
}

/// The open Block scope of a [`TxnCtx`]: what [`TxnCtx::abort_block`] needs
/// to put the context back as [`TxnCtx::begin_block`] found it.
#[derive(Debug)]
struct Scope {
    /// Read-set length at `begin_block`: entries at or past it are the
    /// Block's own first reads.
    mark: usize,
    undo: Vec<Undo>,
}

/// One entry of a [`Scope`]'s undo log — logged the first time the Block
/// touches state that predates it.
#[derive(Debug)]
enum Undo {
    /// The buffered copy of an object read before the mark, as it was
    /// before the Block first wrote it.
    Buffer(ObjectId, ObjectVal),
    /// An object the Block added to the write-set.
    Write(ObjectId),
}

/// A context's collections between transactions: all empty, capacity kept
/// (see the module doc).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    read_set: Vec<ValidateEntry>,
    read_index: IdMap<ObjectId, usize>,
    buffers: IdMap<ObjectId, ObjectVal>,
    writes: IdSet<ObjectId>,
    watermarks: HashMap<NodeId, usize>,
    missing: Vec<ObjectId>,
}

/// The transaction context: read-set, buffered copies and write-set of one
/// attempt, with at most one closed-nested Block scope open on it.
#[derive(Debug)]
pub struct TxnCtx {
    txn: TxnId,
    /// `(object, version)` in first-read order — the read-set, and the
    /// validation vector every remote round presents.
    read_set: Vec<ValidateEntry>,
    read_index: IdMap<ObjectId, usize>,
    /// Buffered object copies (current values including local writes).
    buffers: IdMap<ObjectId, ObjectVal>,
    /// Objects with buffered writes — the write-set.
    writes: IdSet<ObjectId>,
    /// Per-server validated watermark: how many leading entries of the
    /// read-set each server has already validated. Fetch rounds ship only
    /// the suffix past the contacted quorum's minimum watermark (see
    /// [`DtmClient::remote_read_batch`]).
    watermarks: HashMap<NodeId, usize>,
    /// A fetch round's objects not yet read (kept for its capacity).
    missing: Vec<ObjectId>,
    scope: Option<Scope>,
}

impl TxnCtx {
    /// Begin a fresh transaction on `client`, in the collections the
    /// client's last committed transaction left it.
    pub fn begin(client: &mut DtmClient) -> TxnCtx {
        let Scratch {
            read_set,
            read_index,
            buffers,
            writes,
            watermarks,
            missing,
        } = std::mem::take(&mut client.scratch);
        TxnCtx {
            txn: client.begin(),
            read_set,
            read_index,
            buffers,
            writes,
            watermarks,
            missing,
            scope: None,
        }
    }

    /// Empty the collections for the next transaction.
    fn into_scratch(self) -> Scratch {
        let TxnCtx {
            mut read_set,
            mut read_index,
            mut buffers,
            mut writes,
            mut watermarks,
            mut missing,
            ..
        } = self;
        read_set.clear();
        read_index.clear();
        buffers.clear();
        writes.clear();
        watermarks.clear();
        missing.clear();
        Scratch {
            read_set,
            read_index,
            buffers,
            writes,
            watermarks,
            missing,
        }
    }

    /// This transaction's globally unique id.
    pub fn id(&self) -> TxnId {
        self.txn
    }

    /// Is `obj` in the read-set?
    pub fn has_read(&self, obj: ObjectId) -> bool {
        self.read_index.contains_key(&obj)
    }

    /// Is `obj` in the write-set?
    pub fn has_write(&self, obj: ObjectId) -> bool {
        self.writes.contains(&obj)
    }

    /// The version this transaction read for `obj`.
    pub fn read_version(&self, obj: ObjectId) -> Option<Version> {
        self.read_index.get(&obj).map(|&i| self.read_set[i].1)
    }

    /// The current read-set (for validation payloads).
    pub fn read_set(&self) -> &[ValidateEntry] {
        &self.read_set
    }

    /// Log `obj` as a first read with its buffered copy.
    fn install(&mut self, obj: ObjectId, version: Version, value: ObjectVal) {
        self.read_index.insert(obj, self.read_set.len());
        self.read_set.push((obj, version));
        self.buffers.insert(obj, value);
    }

    /// Put `obj` in the write-set.
    fn add_write(&mut self, obj: ObjectId) {
        if self.writes.insert(obj) {
            if let Some(scope) = self.scope.as_mut() {
                scope.undo.push(Undo::Write(obj));
            }
        }
    }

    /// One fetch round for the not-yet-read objects of `objs`, each once,
    /// presenting the *delta* of the read-set past the contacted quorum's
    /// watermarks; nothing missing costs nothing.
    fn fetch(
        &mut self,
        client: &mut DtmClient,
        objs: &[ObjectId],
    ) -> Result<Vec<(ObjectId, Version, ObjectVal)>, DtmError> {
        self.missing.clear();
        for &obj in objs {
            if !self.has_read(obj) && !self.missing.contains(&obj) {
                self.missing.push(obj);
            }
        }
        if self.missing.is_empty() {
            return Ok(Vec::new());
        }
        client.remote_read_batch(
            self.txn,
            &self.missing,
            &self.read_set,
            &mut self.watermarks,
        )
    }

    /// Open `obj`; the first open of an object is a remote quorum read, a
    /// repeated open is local. `update` adds it to the write-set.
    pub fn open(
        &mut self,
        client: &mut DtmClient,
        obj: ObjectId,
        update: bool,
    ) -> Result<(), DtmError> {
        if !self.has_read(obj) {
            // The same read round as a fetch, but with no watermarks, so
            // the *whole* read-set is re-validated — the paper's
            // incremental validation on every open.
            let (_, version, value) = client
                .remote_read_batch(self.txn, &[obj], &self.read_set, &mut HashMap::new())?
                .pop()
                .expect("one reply per requested object");
            self.install(obj, version, value);
        }
        if update {
            self.add_write(obj);
        }
        Ok(())
    }

    /// Open every not-yet-read object of `objs` in **one** quorum round
    /// trip (a fetch round), straight into the read-set; none missing is
    /// free. Objects are fetched read-only — the `Open` statement itself
    /// still records update intent when it executes.
    pub fn open_batch(
        &mut self,
        client: &mut DtmClient,
        objs: &[ObjectId],
    ) -> Result<(), DtmError> {
        for (obj, version, value) in self.fetch(client, objs)? {
            self.install(obj, version, value);
        }
        Ok(())
    }

    /// Fetch speculative copies of every not-yet-read object of `objs` in
    /// one quorum round, into a side cache that leaves the read-set
    /// untouched (see [`SpecCache`]). Reads are validated incrementally
    /// against the current read-set like any other remote round, so
    /// staleness among an open Block's own reads surfaces here and still
    /// classifies as a partial rollback.
    pub fn fetch_spec(
        &mut self,
        client: &mut DtmClient,
        objs: &[ObjectId],
    ) -> Result<SpecCache, DtmError> {
        Ok(self.fetch(client, objs)?.into_iter().collect())
    }

    /// [`TxnCtx::open`] through the speculative cache: a hit installs a
    /// copy of the prefetched entry as a first read with no remote round;
    /// a miss — a mispredicted object — is a normal remote open. The entry
    /// stays cached (peek, not take — see [`SpecCache`]).
    pub fn open_spec(
        &mut self,
        client: &mut DtmClient,
        obj: ObjectId,
        update: bool,
        cache: &SpecCache,
    ) -> Result<(), DtmError> {
        if !self.has_read(obj) {
            if let Some((version, value)) = cache.map.get(&obj) {
                self.install(obj, *version, value.clone());
            }
        }
        self.open(client, obj, update)
    }

    /// Open `obj` presuming it *fresh*: install a synthesized
    /// `(version 0, default value)` copy with no remote round at all, and
    /// say whether it was installed — `false` when the transaction had
    /// already read `obj`, whose real copy stays. Used for value-blind
    /// updates (insert-only rows): the template never reads a field, so
    /// only the version assumption matters — and validation checks it like
    /// any read, failing the transaction (or, inside a Block, only the
    /// Block) if the object in fact exists. The executor then demotes the
    /// object to a real read on the retry.
    pub fn open_blind(&mut self, obj: ObjectId, update: bool) -> bool {
        let installed = !self.has_read(obj);
        if installed {
            self.install(obj, 0, ObjectVal::new());
        }
        if update {
            self.add_write(obj);
        }
        installed
    }

    /// Read a field of an opened object's buffered copy.
    ///
    /// # Panics
    /// Panics if `obj` was never opened — that is an executor bug, not a
    /// run-time condition.
    pub fn get_field(&self, obj: ObjectId, field: FieldId) -> Value {
        self.buffers
            .get(&obj)
            .unwrap_or_else(|| panic!("get_field on unopened {obj}"))
            .get_or_zero(field)
    }

    /// Buffered write to an opened object. Inside a Block, the first write
    /// to a copy read before the Block saves that copy to the undo log, so
    /// aborting the Block never disturbs what preceded it.
    pub fn set_field(&mut self, obj: ObjectId, field: FieldId, value: Value) {
        debug_assert!(self.writes.contains(&obj), "set_field outside write-set");
        let buffer = self
            .buffers
            .get_mut(&obj)
            .unwrap_or_else(|| panic!("set_field on unopened {obj}"));
        if let Some(scope) = self.scope.as_mut() {
            let logged = |u: &Undo| matches!(u, Undo::Buffer(o, _) if *o == obj);
            if self.read_index[&obj] < scope.mark && !scope.undo.iter().any(logged) {
                scope.undo.push(Undo::Buffer(obj, buffer.clone()));
            }
        }
        buffer.set(field, value);
    }

    /// Commit via two-phase commit. The context is consumed either way —
    /// on failure the caller restarts with a fresh one — and its emptied
    /// collections go back to `client` for the next. Each written value
    /// moves from its buffer into the commit request.
    pub fn commit(mut self, client: &mut DtmClient) -> Result<(), DtmError> {
        debug_assert!(self.scope.is_none(), "commit inside an open Block");
        let mut writes: Vec<(ObjectId, Version, ObjectVal)> = Vec::with_capacity(self.writes.len());
        for &obj in &self.writes {
            let version = self.read_version(obj).expect("write implies read");
            let value = self.buffers.remove(&obj).expect("write implies a buffer");
            writes.push((obj, version, value));
        }
        // Deterministic order keeps server-side lock patterns stable.
        writes.sort_by_key(|&(o, _, _)| o);
        let outcome = client.commit(self.txn, &self.read_set, writes);
        client.scratch = self.into_scratch();
        outcome
    }

    /// Start a closed-nested sub-transaction: every object first read from
    /// here on is the Block's own, and every write is undoable, until
    /// [`TxnCtx::commit_block`] or [`TxnCtx::abort_block`].
    ///
    /// # Panics
    /// Panics if a Block is already open: ACN uses exactly one nesting
    /// level, matching the paper's system model.
    pub fn begin_block(&mut self) {
        assert!(self.scope.is_none(), "a Block is already open");
        self.scope = Some(Scope {
            mark: self.read_set.len(),
            undo: Vec::new(),
        });
    }

    /// Closed-nested commit: the Block's reads and writes become the
    /// transaction's. No remote interaction — results stay invisible until
    /// the transaction commits.
    pub fn commit_block(&mut self) {
        self.scope.take().expect("no open Block");
    }

    /// Closed-nested abort: discard everything the Block read and wrote.
    /// The validated watermarks are clamped to the mark, because a round
    /// issued inside the Block may have advanced them over reads that are
    /// now gone, and those positions are about to be reused.
    pub fn abort_block(&mut self) {
        let Scope { mark, undo } = self.scope.take().expect("no open Block");
        for (obj, _) in self.read_set.drain(mark..) {
            self.read_index.remove(&obj);
            self.buffers.remove(&obj);
        }
        for entry in undo {
            match entry {
                Undo::Buffer(obj, value) => {
                    self.buffers.insert(obj, value);
                }
                Undo::Write(obj) => {
                    self.writes.remove(&obj);
                }
            }
        }
        for w in self.watermarks.values_mut() {
            *w = (*w).min(mark);
        }
    }

    /// Decide the rollback scope for an invalidation report: Block-only iff
    /// a Block is open and *every* stale object was first read inside it.
    /// Anything read before the mark means state the Block built on is
    /// stale and the whole transaction must re-execute.
    pub fn classify(&self, invalid: &[ObjectId]) -> AbortScope {
        let in_block = |o: &ObjectId| match (&self.scope, self.read_index.get(o)) {
            (Some(scope), Some(&i)) => i >= scope.mark,
            _ => false,
        };
        if !invalid.is_empty() && invalid.iter().all(in_block) {
            AbortScope::Child
        } else {
            AbortScope::Parent
        }
    }
}

#[cfg(test)]
mod tests {
    //! Context-local logic (Block scope, undo, classification). End-to-end
    //! behaviour against live servers is covered in the crate's
    //! integration tests.
    use super::*;
    use acn_simnet::{LatencyModel, Network, NodeId};
    use acn_txir::ObjClass;

    const BRANCH: ObjClass = ObjClass::new(0, "Branch");
    const ACCOUNT: ObjClass = ObjClass::new(1, "Account");
    const B1: ObjectId = ObjectId::new(BRANCH, 1);
    const A1: ObjectId = ObjectId::new(ACCOUNT, 1);
    const A2: ObjectId = ObjectId::new(ACCOUNT, 2);
    const F: FieldId = FieldId(0);

    /// A client wired to an empty network — usable for pure context tests
    /// that never issue remote operations.
    fn offline_client() -> DtmClient {
        let net: Network<crate::messages::Msg> = Network::new(2, LatencyModel::Zero);
        let quorums = acn_quorum::LevelQuorums::new(acn_quorum::DaryTree::ternary(1));
        DtmClient::new(
            net.clone(),
            net.endpoint(NodeId(1)),
            quorums,
            crate::client::ClientConfig::default(),
        )
    }

    /// Hand-construct a parent with pre-loaded buffers (as if read).
    fn parent_with(objs: &[(ObjectId, i64)]) -> TxnCtx {
        let mut client = offline_client();
        let mut ctx = TxnCtx::begin(&mut client);
        for &(obj, v) in objs {
            ctx.read_index.insert(obj, ctx.read_set.len());
            ctx.read_set.push((obj, 1));
            ctx.buffers
                .insert(obj, ObjectVal::from_fields([(F, Value::Int(v))]));
            ctx.writes.insert(obj);
        }
        ctx
    }

    #[test]
    fn parent_field_roundtrip() {
        let mut p = parent_with(&[(A1, 10)]);
        assert_eq!(p.get_field(A1, F), Value::Int(10));
        p.set_field(A1, F, Value::Int(25));
        assert_eq!(p.get_field(A1, F), Value::Int(25));
        assert!(p.has_read(A1));
        assert_eq!(p.read_version(A1), Some(1));
    }

    #[test]
    #[should_panic(expected = "unopened")]
    fn get_field_unopened_panics() {
        let p = parent_with(&[]);
        let _ = p.get_field(A1, F);
    }

    #[test]
    fn block_write_shadows_the_earlier_value_until_abort() {
        let mut p = parent_with(&[(A1, 10)]);
        p.begin_block();
        assert_eq!(p.get_field(A1, F), Value::Int(10), "falls through");
        p.set_field(A1, F, Value::Int(99));
        assert_eq!(p.get_field(A1, F), Value::Int(99), "Block write wins");
        p.abort_block();
        assert_eq!(p.get_field(A1, F), Value::Int(10), "parent untouched");
    }

    #[test]
    fn block_abort_discards_its_writes() {
        let mut p = parent_with(&[(A1, 10)]);
        p.begin_block();
        p.set_field(A1, F, Value::Int(99));
        p.set_field(A1, F, Value::Int(98));
        p.abort_block();
        assert_eq!(p.get_field(A1, F), Value::Int(10));
        // A fresh Block sees the parent value again.
        p.begin_block();
        assert_eq!(p.get_field(A1, F), Value::Int(10));
        p.commit_block();
        p.set_field(A1, F, Value::Int(11));
        assert_eq!(p.get_field(A1, F), Value::Int(11));
    }

    #[test]
    fn block_commit_keeps_state() {
        let mut p = parent_with(&[(A1, 10)]);
        p.begin_block();
        // Simulate the Block having read B1 remotely.
        p.install(B1, 7, ObjectVal::from_fields([(F, Value::Int(100))]));
        p.add_write(B1);
        p.set_field(A1, F, Value::Int(42));
        p.commit_block();
        assert!(p.has_read(B1));
        assert_eq!(p.read_version(B1), Some(7));
        assert_eq!(p.get_field(B1, F), Value::Int(100));
        assert_eq!(p.get_field(A1, F), Value::Int(42));
        assert!(p.writes.contains(&B1));
    }

    #[test]
    fn block_does_not_duplicate_parent_reads() {
        let mut p = parent_with(&[(A1, 10)]);
        p.begin_block();
        // The Block "re-reads" A1 — every open short-circuits on it, so
        // the read-set must not double up.
        assert!(!p.open_blind(A1, false));
        p.commit_block();
        assert_eq!(p.read_set().len(), 1);
    }

    #[test]
    fn classify_child_scope() {
        let mut p = parent_with(&[(A1, 10)]);
        p.begin_block();
        p.install(B1, 3, ObjectVal::new());
        // B1 was first read inside the Block ⇒ child scope.
        assert_eq!(p.classify(&[B1]), AbortScope::Child);
    }

    #[test]
    fn classify_parent_scope_when_history_invalid() {
        let mut p = parent_with(&[(A1, 10)]);
        p.begin_block();
        p.install(B1, 3, ObjectVal::new());
        // A1 belongs to the parent's history ⇒ parent scope, even though
        // B1 is Block-local.
        assert_eq!(p.classify(&[B1, A1]), AbortScope::Parent);
        assert_eq!(p.classify(&[A1]), AbortScope::Parent);
    }

    #[test]
    fn open_blind_installs_presumed_absent_entry() {
        let mut p = parent_with(&[]);
        assert!(p.open_blind(A1, true));
        assert!(p.has_read(A1));
        assert_eq!(p.read_version(A1), Some(0), "presumed never written");
        assert_eq!(p.get_field(A1, F), Value::Int(0), "default value");
        assert!(p.writes.contains(&A1));
        p.set_field(A1, F, Value::Int(5));
        assert_eq!(p.get_field(A1, F), Value::Int(5));
    }

    #[test]
    fn block_open_blind_is_child_scoped() {
        let mut p = parent_with(&[]);
        p.begin_block();
        p.open_blind(A1, true);
        assert_eq!(p.get_field(A1, F), Value::Int(0));
        // The presumption is a Block-first read: if it is wrong, only
        // this Block rolls back.
        assert_eq!(p.classify(&[A1]), AbortScope::Child);
        p.commit_block();
        assert!(p.has_read(A1));
        assert_eq!(p.read_version(A1), Some(0));
        assert!(p.writes.contains(&A1));
    }

    #[test]
    fn classify_empty_or_unknown_is_parent() {
        let mut p = parent_with(&[(A1, 10)]);
        assert_eq!(p.classify(&[A1]), AbortScope::Parent, "no Block open");
        p.begin_block();
        assert_eq!(p.classify(&[]), AbortScope::Parent);
        assert_eq!(p.classify(&[A2]), AbortScope::Parent);
    }

    #[test]
    fn validation_vector_is_parent_reads_then_block_reads() {
        let mut p = parent_with(&[(A1, 10)]);
        p.begin_block();
        p.install(B1, 3, ObjectVal::new());
        assert_eq!(p.read_set(), [(A1, 1), (B1, 3)]);
        p.abort_block();
        assert_eq!(p.read_set(), [(A1, 1)]);
        assert!(!p.has_read(B1));
    }

    #[test]
    fn abort_undoes_write_set_entries_and_clamps_watermarks() {
        let mut p = parent_with(&[(A1, 10)]);
        p.writes.clear();
        p.watermarks.insert(NodeId(0), 1);
        p.begin_block();
        p.add_write(A1);
        p.open_blind(A2, true);
        // Rounds inside the Block validated its reads too.
        p.watermarks.insert(NodeId(0), 2);
        p.watermarks.insert(NodeId(2), 2);
        p.abort_block();
        assert!(p.writes.is_empty());
        assert!(p.watermarks.values().all(|&w| w == 1), "clamped to mark");
    }

    #[test]
    #[should_panic(expected = "already open")]
    fn blocks_do_not_nest() {
        let mut p = parent_with(&[]);
        p.begin_block();
        p.begin_block();
    }
}
