//! A replica's object store.

use crate::messages::{TxnId, Version};
use acn_txir::{IdMap, ObjectId, ObjectVal};
use std::collections::BTreeMap;

/// One object class's slice of a [`StoreDigest`]: enough to detect
/// divergence between replicas cheaply (count + max + xor of versions)
/// without shipping or comparing the objects themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassDigest {
    /// Objects of this class materialised on the replica.
    pub count: u64,
    /// Highest committed version among them.
    pub max_version: Version,
    /// XOR over `version * (object index + 1)` of every object, an
    /// order-independent fingerprint: two replicas that agree per class on
    /// `count`, `max_version` and `xor` almost certainly hold identical
    /// version vectors.
    pub xor: u64,
}

/// A replica's per-class store fingerprint, cheap to compute and compare.
/// Used by the recovery subsystem to assert that a re-synced replica
/// converged to a healthy peer, and exported through `ServerStats` for
/// divergence checks in tests and chaos suites.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreDigest {
    /// Digest per object-class id, ordered by class id.
    pub classes: BTreeMap<u16, ClassDigest>,
}

impl StoreDigest {
    /// Total objects across all classes.
    pub fn total_objects(&self) -> u64 {
        self.classes.values().map(|c| c.count).sum()
    }
}

/// One replicated object as held by a server: the paper's per-object
/// meta-data is the *version number* (used during validation) and the
/// *protected* flag (here the id of the transaction holding the commit
/// lock, so release is owner-checked).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VersionedObject {
    /// Commit version (0 = never written).
    pub version: Version,
    /// The object payload.
    pub value: ObjectVal,
    /// `Some(txn)` while `txn` holds the commit lock ("protected is true").
    pub protected: Option<TxnId>,
}

/// A server's full-replication object store. Objects materialise lazily:
/// a never-written object reads as version 0 with a default value on every
/// replica, which is also how the benchmarks "insert" rows (open a fresh
/// id, populate, commit).
#[derive(Debug, Default)]
pub struct Store {
    objects: IdMap<ObjectId, VersionedObject>,
}

impl Store {
    /// An empty replica store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read the replica's copy: `(version, value, protected-by)`.
    pub fn read(&self, obj: ObjectId) -> (Version, ObjectVal, Option<TxnId>) {
        match self.objects.get(&obj) {
            Some(o) => (o.version, o.value.clone(), o.protected),
            None => (0, ObjectVal::new(), None),
        }
    }

    /// This replica's version of `obj` (0 if never written here).
    pub fn version(&self, obj: ObjectId) -> Version {
        self.objects.get(&obj).map(|o| o.version).unwrap_or(0)
    }

    /// Who protects `obj`, if anyone.
    pub fn lock_holder(&self, obj: ObjectId) -> Option<TxnId> {
        self.objects.get(&obj).and_then(|o| o.protected)
    }

    /// Try to protect `obj` for `txn`. Re-acquisition by the same holder
    /// succeeds (idempotent prepare retries). Returns `false` on conflict.
    pub fn try_lock(&mut self, obj: ObjectId, txn: TxnId) -> bool {
        let entry = self.objects.entry(obj).or_default();
        match entry.protected {
            None => {
                entry.protected = Some(txn);
                true
            }
            Some(holder) => holder == txn,
        }
    }

    /// Release `obj` if held by `txn`; foreign locks are left untouched.
    pub fn unlock(&mut self, obj: ObjectId, txn: TxnId) {
        if let Some(entry) = self.objects.get_mut(&obj) {
            if entry.protected == Some(txn) {
                entry.protected = None;
            }
        }
    }

    /// Apply a committed write: install `value` at `version` and release
    /// `txn`'s lock. Versions only move forward — a replica that already
    /// holds a newer copy (possible when a stale client commit races a
    /// recovered replica) keeps it.
    /// Returns `true` when the write advanced the replica's copy (the
    /// repair path counts only effective repairs).
    pub fn apply(&mut self, obj: ObjectId, version: Version, value: ObjectVal, txn: TxnId) -> bool {
        let entry = self.objects.entry(obj).or_default();
        let advanced = version > entry.version;
        if advanced {
            entry.version = version;
            entry.value = value;
        }
        if entry.protected == Some(txn) {
            entry.protected = None;
        }
        advanced
    }

    /// What a recovering replica that holds `known` is missing: `(object,
    /// version, value)` for every object this replica holds at a newer
    /// version — a never-written object reads as version 0 everywhere, so
    /// absent from `known` == 0 — cloned only for what ships in the
    /// [`crate::Msg::SyncResp`]. Lock state is deliberately excluded: a
    /// recovering replica must not inherit another replica's in-flight
    /// `protected` flags.
    pub fn newer_than(&self, known: &[(ObjectId, Version)]) -> Vec<(ObjectId, Version, ObjectVal)> {
        let known: IdMap<ObjectId, Version> = known.iter().copied().collect();
        self.objects
            .iter()
            .filter(|(obj, o)| known.get(obj).copied().unwrap_or(0) < o.version)
            .map(|(&obj, o)| (obj, o.version, o.value.clone()))
            .collect()
    }

    /// The versions this replica already holds — the "I have" half of a
    /// catch-up probe ([`crate::Msg::SyncReq`]): a peer answers with only
    /// the objects that are absent here or newer there.
    pub fn known_versions(&self) -> Vec<(ObjectId, Version)> {
        self.objects
            .iter()
            .map(|(&obj, o)| (obj, o.version))
            .collect()
    }

    /// Per-class fingerprint of the store (see [`StoreDigest`]).
    pub fn digest(&self) -> StoreDigest {
        let mut classes: BTreeMap<u16, ClassDigest> = BTreeMap::new();
        for (obj, o) in &self.objects {
            let d = classes.entry(obj.class.id).or_default();
            d.count += 1;
            d.max_version = d.max_version.max(o.version);
            d.xor ^= o.version.wrapping_mul(obj.index.wrapping_add(1));
        }
        StoreDigest { classes }
    }

    /// Number of objects this replica has materialised.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no object has materialised.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_simnet::NodeId;
    use acn_txir::{FieldId, ObjClass, Value};

    const C: ObjClass = ObjClass::new(0, "C");
    const OBJ: ObjectId = ObjectId::new(C, 1);

    fn txn(seq: u64) -> TxnId {
        TxnId {
            client: NodeId(9),
            seq,
        }
    }

    fn val(v: i64) -> ObjectVal {
        ObjectVal::from_fields([(FieldId(0), Value::Int(v))])
    }

    #[test]
    fn unknown_object_reads_as_fresh() {
        let s = Store::new();
        let (ver, value, lock) = s.read(OBJ);
        assert_eq!(ver, 0);
        assert!(value.is_empty());
        assert!(lock.is_none());
        assert_eq!(s.version(OBJ), 0);
    }

    #[test]
    fn apply_installs_and_unlocks() {
        let mut s = Store::new();
        assert!(s.try_lock(OBJ, txn(1)));
        s.apply(OBJ, 1, val(10), txn(1));
        let (ver, value, lock) = s.read(OBJ);
        assert_eq!(ver, 1);
        assert_eq!(value, val(10));
        assert!(lock.is_none());
    }

    #[test]
    fn lock_conflicts_are_detected() {
        let mut s = Store::new();
        assert!(s.try_lock(OBJ, txn(1)));
        assert!(!s.try_lock(OBJ, txn(2)), "second holder must fail");
        assert!(s.try_lock(OBJ, txn(1)), "re-acquisition is idempotent");
        assert_eq!(s.lock_holder(OBJ), Some(txn(1)));
    }

    #[test]
    fn unlock_is_owner_checked() {
        let mut s = Store::new();
        s.try_lock(OBJ, txn(1));
        s.unlock(OBJ, txn(2)); // not the owner
        assert_eq!(s.lock_holder(OBJ), Some(txn(1)));
        s.unlock(OBJ, txn(1));
        assert_eq!(s.lock_holder(OBJ), None);
    }

    #[test]
    fn versions_never_regress() {
        let mut s = Store::new();
        s.apply(OBJ, 5, val(50), txn(1));
        s.apply(OBJ, 3, val(30), txn(2)); // stale apply
        let (ver, value, _) = s.read(OBJ);
        assert_eq!(ver, 5);
        assert_eq!(value, val(50));
    }

    #[test]
    fn stale_apply_still_releases_own_lock() {
        let mut s = Store::new();
        s.apply(OBJ, 5, val(50), txn(1));
        s.try_lock(OBJ, txn(2));
        s.apply(OBJ, 3, val(30), txn(2));
        assert_eq!(s.lock_holder(OBJ), None);
        assert_eq!(s.version(OBJ), 5);
    }

    #[test]
    fn apply_reports_whether_it_advanced() {
        let mut s = Store::new();
        assert!(s.apply(OBJ, 5, val(50), txn(1)), "fresh install advances");
        assert!(!s.apply(OBJ, 3, val(30), txn(2)), "stale apply does not");
        assert!(!s.apply(OBJ, 5, val(50), txn(3)), "same version does not");
        assert!(s.apply(OBJ, 6, val(60), txn(4)));
    }

    #[test]
    fn newer_than_round_trips_through_apply() {
        let mut a = Store::new();
        a.apply(OBJ, 3, val(3), txn(1));
        a.apply(ObjectId::new(C, 2), 7, val(7), txn(1));
        a.try_lock(OBJ, txn(9)); // locks must not travel
        let mut b = Store::new();
        for (obj, ver, value) in a.newer_than(&b.known_versions()) {
            b.apply(obj, ver, value, txn(0));
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(b.lock_holder(OBJ), None, "inventory carries no locks");
        assert_eq!(b.read(OBJ).0, 3);
        assert_eq!(b.read(ObjectId::new(C, 2)).1, val(7));
        // Caught up: nothing left to ship. One object behind: just that one.
        assert!(a.newer_than(&b.known_versions()).is_empty());
        a.apply(OBJ, 4, val(4), txn(2));
        assert_eq!(a.newer_than(&b.known_versions()), vec![(OBJ, 4, val(4))]);
    }

    #[test]
    fn digest_detects_divergence_per_class() {
        const D: ObjClass = ObjClass::new(1, "D");
        let mut a = Store::new();
        a.apply(OBJ, 3, val(3), txn(1));
        a.apply(ObjectId::new(D, 1), 2, val(2), txn(1));
        let mut b = Store::new();
        b.apply(OBJ, 3, val(3), txn(1));
        b.apply(ObjectId::new(D, 1), 2, val(2), txn(1));
        assert_eq!(a.digest(), b.digest(), "identical stores agree");
        assert_eq!(a.digest().total_objects(), 2);

        b.apply(ObjectId::new(D, 1), 4, val(4), txn(2));
        let (da, db) = (a.digest(), b.digest());
        assert_ne!(da, db, "a newer version must change the digest");
        assert_eq!(
            da.classes.get(&0),
            db.classes.get(&0),
            "the untouched class still agrees"
        );
        let dd = db.classes.get(&1).unwrap();
        assert_eq!(dd.max_version, 4);
        assert_eq!(dd.count, 1);

        // Same count and max but a different version *vector* still
        // diverges, caught by the xor term.
        let mut c = Store::new();
        c.apply(ObjectId::new(C, 5), 3, val(1), txn(1));
        let mut e = Store::new();
        e.apply(ObjectId::new(C, 6), 3, val(1), txn(1));
        assert_ne!(c.digest(), e.digest());
    }

    #[test]
    fn len_counts_materialised_objects() {
        let mut s = Store::new();
        assert!(s.is_empty());
        s.apply(OBJ, 1, val(1), txn(1));
        s.apply(ObjectId::new(C, 2), 1, val(2), txn(1));
        assert_eq!(s.len(), 2);
    }
}
