//! Transaction contexts: flat (QR-DTM) and closed-nested (QR-CN).
//!
//! A [`TxnCtx`] holds the paper's private read-set and write-set: reads log
//! `(object, version)`, fetched copies are buffered, `SetField`s mutate the
//! buffer, and everything is applied to the shared state only at commit.
//!
//! A [`ChildCtx`] is a closed-nested sub-transaction: it layers its own
//! read-set and buffer *overlay* on top of the parent. Committing a child
//! merges into the parent (nothing becomes globally visible); aborting a
//! child discards only the overlay. When incremental validation reports
//! stale objects, [`ChildCtx::classify`] decides the rollback scope: if
//! every invalidated object was first read by the running child, only the
//! child re-executes (**partial rollback**); any invalidated object in the
//! parent's history forces a full restart.

use crate::client::DtmClient;
use crate::error::{AbortScope, DtmError};
use crate::messages::{TxnId, ValidateEntry, Version};
use acn_simnet::NodeId;
use acn_txir::{FieldId, ObjectId, ObjectVal, Value};
use std::collections::{HashMap, HashSet};

/// The speculative read cache of one transaction attempt: versioned object
/// copies fetched ahead of their `Open` in batched quorum rounds
/// ([`TxnCtx::fetch_spec`] / [`ChildCtx::fetch_spec`]).
///
/// Entries are *not* part of any read-set until an `Open` installs them
/// via [`TxnCtx::open_spec`] / [`ChildCtx::open_spec`] — an object that
/// was fetched but is never opened therefore never enters validation and
/// cannot cause a spurious abort. Installing **peeks**: the entry stays
/// cached, so a Block rolled back for any reason other than the entry's
/// own staleness re-installs it for free. A stale copy that is installed
/// is caught like any stale read — by incremental validation on a later
/// remote round or by commit-time validation — and must then be
/// [`SpecCache::evict`]ed before the Block re-runs, or the re-run would
/// replay the very copy that invalidated it. A full restart drops the
/// whole cache with the attempt.
#[derive(Debug, Default)]
pub struct SpecCache {
    map: HashMap<ObjectId, (Version, ObjectVal)>,
}

impl SpecCache {
    fn from_round(fetched: Vec<(ObjectId, Version, ObjectVal)>) -> SpecCache {
        SpecCache {
            map: fetched
                .into_iter()
                .map(|(o, v, val)| (o, (v, val)))
                .collect(),
        }
    }

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
    /// was fetched later, so its copies are at least as fresh).
    pub fn absorb(&mut self, other: SpecCache) {
        self.map.extend(other.map);
    }

    /// Drop the copy of `obj` (it was reported stale); `true` if one was
    /// cached — the caller refetches those before re-running the Block.
    pub fn evict(&mut self, obj: &ObjectId) -> bool {
        self.map.remove(obj).is_some()
    }
}

/// The objects of `objs` a round must still fetch: those the transaction
/// has not `read`, each once.
fn unread(objs: &[ObjectId], read: impl Fn(ObjectId) -> bool) -> Vec<ObjectId> {
    let mut out: Vec<ObjectId> = Vec::new();
    for &obj in objs {
        if !read(obj) && !out.contains(&obj) {
            out.push(obj);
        }
    }
    out
}

/// One fetch round for `missing`, presenting the *delta* of `validate`
/// past the contacted quorum's `watermarks`; nothing missing costs nothing.
fn fetch_round(
    client: &mut DtmClient,
    txn: TxnId,
    missing: &[ObjectId],
    validate: &[ValidateEntry],
    watermarks: &mut HashMap<NodeId, usize>,
) -> Result<Vec<(ObjectId, Version, ObjectVal)>, DtmError> {
    if missing.is_empty() {
        return Ok(Vec::new());
    }
    client.remote_read_batch(txn, missing, validate, watermarks)
}

/// The round behind a statement-level `Open` of `obj`: the same read round
/// as a fetch, but with no watermarks, so the *whole* of `validate` is
/// re-validated — the paper's incremental validation on every open.
fn open_round(
    client: &mut DtmClient,
    txn: TxnId,
    obj: ObjectId,
    validate: &[ValidateEntry],
) -> Result<(Version, ObjectVal), DtmError> {
    let (_, version, value) = client
        .remote_read_batch(txn, &[obj], validate, &mut HashMap::new())?
        .pop()
        .expect("one reply per requested object");
    Ok((version, value))
}

/// The root (parent) transaction context.
///
/// `Clone` exists for the checkpointing executor in `acn-core`, which
/// snapshots the whole context at sub-transaction boundaries — the very
/// overhead closed nesting avoids.
#[derive(Debug, Clone)]
pub struct TxnCtx {
    txn: TxnId,
    /// `(object, version)` in first-read order — the read-set.
    read_set: Vec<ValidateEntry>,
    read_index: HashMap<ObjectId, usize>,
    /// Buffered object copies (current values including local writes).
    buffers: HashMap<ObjectId, ObjectVal>,
    /// Objects with buffered writes — the write-set.
    writes: HashSet<ObjectId>,
    /// Per-server validated watermark: how many leading entries of the
    /// current validation vector (this read-set, extended by a running
    /// child's reads) each server has already validated. Fetch rounds
    /// ship only the suffix past the contacted quorum's minimum watermark
    /// (see [`DtmClient::remote_read_batch`]).
    watermarks: HashMap<NodeId, usize>,
}

impl TxnCtx {
    /// Begin a fresh transaction on `client`.
    pub fn begin(client: &mut DtmClient) -> TxnCtx {
        TxnCtx {
            txn: client.begin(),
            read_set: Vec::new(),
            read_index: HashMap::new(),
            buffers: HashMap::new(),
            writes: HashSet::new(),
            watermarks: HashMap::new(),
        }
    }

    /// This transaction's globally unique id.
    pub fn id(&self) -> TxnId {
        self.txn
    }

    /// Is `obj` in this context's read-set?
    pub fn has_read(&self, obj: ObjectId) -> bool {
        self.read_index.contains_key(&obj)
    }

    /// The version this transaction read for `obj`.
    pub fn read_version(&self, obj: ObjectId) -> Option<Version> {
        self.read_index.get(&obj).map(|&i| self.read_set[i].1)
    }

    /// The current read-set (for validation payloads).
    pub fn read_set(&self) -> &[ValidateEntry] {
        &self.read_set
    }

    /// Number of objects opened so far.
    pub fn reads_len(&self) -> usize {
        self.read_set.len()
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
            let (version, value) = open_round(client, self.txn, obj, &self.read_set)?;
            self.read_index.insert(obj, self.read_set.len());
            self.read_set.push((obj, version));
            self.buffers.insert(obj, value);
        }
        if update {
            self.writes.insert(obj);
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
        let missing = unread(objs, |obj| self.has_read(obj));
        let fetched = fetch_round(
            client,
            self.txn,
            &missing,
            &self.read_set,
            &mut self.watermarks,
        )?;
        for (obj, version, value) in fetched {
            self.read_index.insert(obj, self.read_set.len());
            self.read_set.push((obj, version));
            self.buffers.insert(obj, value);
        }
        Ok(())
    }

    /// Fetch speculative copies of every not-yet-read object of `objs` in
    /// one quorum round, into a side cache that leaves the read-set
    /// untouched (see [`SpecCache`]). Reads are validated incrementally
    /// against the current read-set like any other remote round.
    pub fn fetch_spec(
        &mut self,
        client: &mut DtmClient,
        objs: &[ObjectId],
    ) -> Result<SpecCache, DtmError> {
        let missing = unread(objs, |obj| self.has_read(obj));
        fetch_round(
            client,
            self.txn,
            &missing,
            &self.read_set,
            &mut self.watermarks,
        )
        .map(SpecCache::from_round)
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
                self.read_index.insert(obj, self.read_set.len());
                self.read_set.push((obj, *version));
                self.buffers.insert(obj, value.clone());
                if update {
                    self.writes.insert(obj);
                }
                return Ok(());
            }
        }
        self.open(client, obj, update)
    }

    /// Open `obj` presuming it *fresh*: install a synthesized
    /// `(version 0, default value)` copy with no remote round at all.
    /// Used for value-blind updates (insert-only rows): the template never
    /// reads a field, so only the version assumption matters — and commit
    /// validation checks it like any read, failing the transaction if the
    /// object in fact exists. The executor then demotes the object to a
    /// real read on the retry.
    pub fn open_blind(&mut self, obj: ObjectId, update: bool) {
        if !self.has_read(obj) {
            self.read_index.insert(obj, self.read_set.len());
            self.read_set.push((obj, 0));
            self.buffers.insert(obj, ObjectVal::new());
        }
        if update {
            self.writes.insert(obj);
        }
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

    /// Buffered write to an opened object.
    pub fn set_field(&mut self, obj: ObjectId, field: FieldId, value: Value) {
        debug_assert!(self.writes.contains(&obj), "set_field outside write-set");
        self.buffers
            .get_mut(&obj)
            .unwrap_or_else(|| panic!("set_field on unopened {obj}"))
            .set(field, value);
    }

    /// Commit via two-phase commit. On success the context is consumed;
    /// on failure the caller restarts with a fresh context.
    pub fn commit(self, client: &mut DtmClient) -> Result<(), DtmError> {
        let mut writes: Vec<(ObjectId, Version, ObjectVal)> = Vec::with_capacity(self.writes.len());
        for &obj in &self.writes {
            let version = self.read_version(obj).expect("write implies read");
            let value = self.buffers[&obj].clone();
            writes.push((obj, version, value));
        }
        // Deterministic order keeps server-side lock patterns stable.
        writes.sort_by_key(|&(o, _, _)| o);
        client.commit(self.txn, &self.read_set, &writes)
    }

    /// Start a closed-nested sub-transaction.
    ///
    /// Also re-clamps the validated watermarks to this context's own
    /// read-set length: a previously aborted child may have advanced them
    /// over its (now discarded) reads, and those positions are about to be
    /// reused by the new child's validation vector.
    pub fn child(&mut self) -> ChildCtx {
        let len = self.read_set.len();
        for w in self.watermarks.values_mut() {
            *w = (*w).min(len);
        }
        ChildCtx {
            reads: Vec::new(),
            read_index: HashMap::new(),
            overlay: HashMap::new(),
            writes: HashSet::new(),
        }
    }
}

/// A closed-nested sub-transaction: private overlay over a parent
/// [`TxnCtx`]. ACN uses exactly one nesting level, matching the paper's
/// system model, so children cannot spawn grandchildren.
#[derive(Debug)]
pub struct ChildCtx {
    /// Objects first read by this child.
    reads: Vec<ValidateEntry>,
    read_index: HashMap<ObjectId, usize>,
    /// Copy-on-write buffers shadowing the parent's.
    overlay: HashMap<ObjectId, ObjectVal>,
    writes: HashSet<ObjectId>,
}

impl ChildCtx {
    /// Objects this child read first (not via the parent).
    pub fn reads_len(&self) -> usize {
        self.reads.len()
    }

    fn combined_validate(&self, parent: &TxnCtx) -> Vec<ValidateEntry> {
        let mut v = Vec::with_capacity(parent.read_set.len() + self.reads.len());
        v.extend_from_slice(&parent.read_set);
        v.extend_from_slice(&self.reads);
        v
    }

    /// Open `obj` inside the sub-transaction. Objects already read by the
    /// parent (or this child) are local; fresh objects are fetched remotely
    /// with the *combined* read-set presented for incremental validation.
    pub fn open(
        &mut self,
        client: &mut DtmClient,
        parent: &TxnCtx,
        obj: ObjectId,
        update: bool,
    ) -> Result<(), DtmError> {
        if !self.read_index.contains_key(&obj) && !parent.has_read(obj) {
            let validate = self.combined_validate(parent);
            let (version, value) = open_round(client, parent.txn, obj, &validate)?;
            self.read_index.insert(obj, self.reads.len());
            self.reads.push((obj, version));
            self.overlay.insert(obj, value);
        }
        if update {
            self.writes.insert(obj);
        }
        Ok(())
    }

    /// [`TxnCtx::fetch_spec`] from inside the sub-transaction: the round
    /// presents the *combined* read-set, so staleness among this child's
    /// own reads surfaces here and still classifies as a partial rollback.
    /// Takes the parent mutably for its validated watermarks; neither
    /// read-set is touched.
    pub fn fetch_spec(
        &self,
        client: &mut DtmClient,
        parent: &mut TxnCtx,
        objs: &[ObjectId],
    ) -> Result<SpecCache, DtmError> {
        let missing = unread(objs, |obj| {
            self.read_index.contains_key(&obj) || parent.has_read(obj)
        });
        let validate = self.combined_validate(parent);
        fetch_round(
            client,
            parent.txn,
            &missing,
            &validate,
            &mut parent.watermarks,
        )
        .map(SpecCache::from_round)
    }

    /// [`ChildCtx::open`] through the speculative cache: a hit installs a
    /// copy of the prefetched entry as a **child-first** read with no
    /// remote round, so a later invalidation of it still classifies as a
    /// partial rollback; a miss is a normal remote open. The entry stays
    /// cached (peek, not take — see [`SpecCache`]).
    pub fn open_spec(
        &mut self,
        client: &mut DtmClient,
        parent: &TxnCtx,
        obj: ObjectId,
        update: bool,
        cache: &SpecCache,
    ) -> Result<(), DtmError> {
        if !self.read_index.contains_key(&obj) && !parent.has_read(obj) {
            if let Some((version, value)) = cache.map.get(&obj) {
                self.read_index.insert(obj, self.reads.len());
                self.reads.push((obj, *version));
                self.overlay.insert(obj, value.clone());
                if update {
                    self.writes.insert(obj);
                }
                return Ok(());
            }
        }
        self.open(client, parent, obj, update)
    }

    /// [`TxnCtx::open_blind`] inside the sub-transaction: the presumed
    /// `(version 0, default)` copy installs as a **child-first** read, so
    /// a failed presumption surfacing mid-run rolls back only this Block.
    pub fn open_blind(&mut self, parent: &TxnCtx, obj: ObjectId, update: bool) {
        if !self.read_index.contains_key(&obj) && !parent.has_read(obj) {
            self.read_index.insert(obj, self.reads.len());
            self.reads.push((obj, 0));
            self.overlay.insert(obj, ObjectVal::new());
        }
        if update {
            self.writes.insert(obj);
        }
    }

    /// Field read through the overlay chain: child overlay, else parent.
    pub fn get_field(&self, parent: &TxnCtx, obj: ObjectId, field: FieldId) -> Value {
        if let Some(val) = self.overlay.get(&obj) {
            return val.get_or_zero(field);
        }
        parent.get_field(obj, field)
    }

    /// Buffered write: copy-on-write from the parent's buffer into the
    /// overlay, so an abort of this child never disturbs the parent.
    pub fn set_field(&mut self, parent: &TxnCtx, obj: ObjectId, field: FieldId, value: Value) {
        debug_assert!(
            self.writes.contains(&obj) || parent.writes.contains(&obj),
            "set_field outside write-set"
        );
        let entry = self.overlay.entry(obj).or_insert_with(|| {
            parent
                .buffers
                .get(&obj)
                .cloned()
                .unwrap_or_else(|| panic!("set_field on unopened {obj}"))
        });
        entry.set(field, value);
        self.writes.insert(obj);
    }

    /// Closed-nested commit: merge into the parent's private context. No
    /// remote interaction — results stay invisible until the parent
    /// commits.
    pub fn commit_into(self, parent: &mut TxnCtx) {
        let base = parent.read_set.len();
        let expect = base + self.reads.len();
        for (obj, version) in self.reads {
            if !parent.has_read(obj) {
                parent.read_index.insert(obj, parent.read_set.len());
                parent.read_set.push((obj, version));
            }
        }
        if parent.read_set.len() != expect {
            // A duplicate child read was skipped, shifting the positions the
            // watermarks were advanced against — fall back to the stable
            // parent prefix. (Cannot happen via `open`, which short-circuits
            // parent reads; this guards hand-built children.)
            for w in parent.watermarks.values_mut() {
                *w = (*w).min(base);
            }
        }
        for (obj, value) in self.overlay {
            parent.buffers.insert(obj, value);
        }
        parent.writes.extend(self.writes);
    }

    /// Decide the rollback scope for an invalidation report: child-only iff
    /// *every* stale object was first read by this child. Anything touching
    /// the parent's history means the parent's merged state is stale and
    /// the whole transaction must re-execute.
    pub fn classify(&self, parent: &TxnCtx, invalid: &[ObjectId]) -> AbortScope {
        let all_child_local = invalid
            .iter()
            .all(|o| self.read_index.contains_key(o) && !parent.has_read(*o));
        if all_child_local && !invalid.is_empty() {
            AbortScope::Child
        } else {
            AbortScope::Parent
        }
    }
}

#[cfg(test)]
mod tests {
    //! Context-local logic (merge, overlay, classification). End-to-end
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
    fn child_overlay_shadows_parent() {
        let mut p = parent_with(&[(A1, 10)]);
        let mut c = p.child();
        assert_eq!(c.get_field(&p, A1, F), Value::Int(10), "falls through");
        c.set_field(&p, A1, F, Value::Int(99));
        assert_eq!(c.get_field(&p, A1, F), Value::Int(99), "overlay wins");
        assert_eq!(p.get_field(A1, F), Value::Int(10), "parent untouched");
    }

    #[test]
    fn child_abort_discards_overlay() {
        let mut p = parent_with(&[(A1, 10)]);
        {
            let mut c = p.child();
            c.set_field(&p, A1, F, Value::Int(99));
            // dropped without commit_into = aborted
        }
        assert_eq!(p.get_field(A1, F), Value::Int(10));
        // A fresh child sees the parent value again.
        let c2 = p.child();
        assert_eq!(c2.get_field(&p, A1, F), Value::Int(10));
        p.set_field(A1, F, Value::Int(11));
        assert_eq!(p.get_field(A1, F), Value::Int(11));
    }

    #[test]
    fn child_commit_merges_state() {
        let mut p = parent_with(&[(A1, 10)]);
        let mut c = p.child();
        // Simulate the child having read B1 remotely.
        c.read_index.insert(B1, 0);
        c.reads.push((B1, 7));
        c.overlay
            .insert(B1, ObjectVal::from_fields([(F, Value::Int(100))]));
        c.writes.insert(B1);
        c.set_field(&p, A1, F, Value::Int(42));
        c.commit_into(&mut p);
        assert!(p.has_read(B1));
        assert_eq!(p.read_version(B1), Some(7));
        assert_eq!(p.get_field(B1, F), Value::Int(100));
        assert_eq!(p.get_field(A1, F), Value::Int(42));
        assert!(p.writes.contains(&B1));
    }

    #[test]
    fn merge_does_not_duplicate_parent_reads() {
        let mut p = parent_with(&[(A1, 10)]);
        let c = p.child();
        // Child "re-reads" A1 — open() would short-circuit, but even a
        // manual duplicate entry must not double up the parent read-set.
        c.commit_into(&mut p);
        assert_eq!(p.reads_len(), 1);
    }

    #[test]
    fn classify_child_scope() {
        let mut p = parent_with(&[(A1, 10)]);
        let mut c = p.child();
        c.read_index.insert(B1, 0);
        c.reads.push((B1, 3));
        // B1 is child-first ⇒ child scope.
        assert_eq!(c.classify(&p, &[B1]), AbortScope::Child);
    }

    #[test]
    fn classify_parent_scope_when_history_invalid() {
        let mut p = parent_with(&[(A1, 10)]);
        let mut c = p.child();
        c.read_index.insert(B1, 0);
        c.reads.push((B1, 3));
        // A1 belongs to the parent's history ⇒ parent scope, even though
        // B1 is child-local.
        assert_eq!(c.classify(&p, &[B1, A1]), AbortScope::Parent);
        assert_eq!(c.classify(&p, &[A1]), AbortScope::Parent);
    }

    #[test]
    fn open_blind_installs_presumed_absent_entry() {
        let mut p = parent_with(&[]);
        p.open_blind(A1, true);
        assert!(p.has_read(A1));
        assert_eq!(p.read_version(A1), Some(0), "presumed never written");
        assert_eq!(p.get_field(A1, F), Value::Int(0), "default value");
        assert!(p.writes.contains(&A1));
        p.set_field(A1, F, Value::Int(5));
        assert_eq!(p.get_field(A1, F), Value::Int(5));
    }

    #[test]
    fn child_open_blind_is_child_scoped() {
        let mut p = parent_with(&[]);
        let mut c = p.child();
        c.open_blind(&p, A1, true);
        assert_eq!(c.get_field(&p, A1, F), Value::Int(0));
        // The presumption is a child-first read: if it is wrong, only
        // this Block rolls back.
        assert_eq!(c.classify(&p, &[A1]), AbortScope::Child);
        c.commit_into(&mut p);
        assert!(p.has_read(A1));
        assert_eq!(p.read_version(A1), Some(0));
        assert!(p.writes.contains(&A1));
    }

    #[test]
    fn classify_empty_or_unknown_is_parent() {
        let mut p = parent_with(&[(A1, 10)]);
        let c = p.child();
        assert_eq!(c.classify(&p, &[]), AbortScope::Parent);
        assert_eq!(c.classify(&p, &[A2]), AbortScope::Parent);
    }

    #[test]
    fn combined_validate_covers_both_histories() {
        let mut p = parent_with(&[(A1, 10)]);
        let mut c = p.child();
        c.read_index.insert(B1, 0);
        c.reads.push((B1, 3));
        let v = c.combined_validate(&p);
        assert_eq!(v, vec![(A1, 1), (B1, 3)]);
    }

    #[test]
    fn child_copy_on_write_from_parent_buffer() {
        let mut p = parent_with(&[(A1, 10)]);
        let mut c = p.child();
        c.set_field(&p, A1, F, Value::Int(11));
        // Write marked in the child's write-set so the merge propagates it.
        assert!(c.writes.contains(&A1));
    }
}
