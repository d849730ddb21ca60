//! Shared-object identity and payloads.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A class of shared objects (Branch, Account, District, …).
///
/// Contention monitoring aggregates per class: when the paper says "QR-ACN
/// determines the heavily contended objects (*District* in this case)", the
/// run-time decision is made at class granularity because a transaction
/// *template* does not know which concrete District a future instance will
/// touch. Identity is the numeric id; the name is carried for diagnostics.
#[derive(Clone, Copy)]
pub struct ObjClass {
    /// Identity (contention is aggregated per class id).
    pub id: u16,
    /// Human-readable name for diagnostics.
    pub name: &'static str,
}

impl ObjClass {
    /// Define a class constant.
    pub const fn new(id: u16, name: &'static str) -> Self {
        ObjClass { id, name }
    }
}

impl PartialEq for ObjClass {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for ObjClass {}

impl std::hash::Hash for ObjClass {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl PartialOrd for ObjClass {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ObjClass {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

impl fmt::Debug for ObjClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

impl fmt::Display for ObjClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Identity of one shared object: class plus index within the class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId {
    /// The class this object belongs to.
    pub class: ObjClass,
    /// Index within the class.
    pub index: u64,
}

impl ObjectId {
    /// Identify object `index` of `class`.
    pub const fn new(class: ObjClass, index: u64) -> Self {
        ObjectId { class, index }
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.class, self.index)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.class, self.index)
    }
}

/// A field within an object. Workloads define constants per class schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u16);

/// An object's payload: a small field map, kept sorted by [`FieldId`].
///
/// Objects in the benchmarks have a handful of fields, so a sorted slice
/// with binary search beats a hash map on footprint. The slice is shared
/// and copied on write: a clone only bumps a reference count, so a store
/// read, a broadcast's per-member copy of a request and a round's retry
/// copy all hand out one allocation, and [`ObjectVal::set`] writes in
/// place while the value is unshared and copies the fields only while
/// another handle still holds them. The empty value allocates nothing.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ObjectVal {
    /// `None` is the empty value; a `Some` slice is never empty, so equal
    /// values compare equal.
    fields: Option<Arc<[(FieldId, Value)]>>,
}

impl ObjectVal {
    /// An empty payload (fresh objects).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unsorted field pairs; later duplicates win.
    pub fn from_fields(pairs: impl IntoIterator<Item = (FieldId, Value)>) -> Self {
        let mut fields: Vec<(FieldId, Value)> = pairs.into_iter().collect();
        // A stable sort keeps duplicates in input order; the merge then
        // moves each later duplicate into the slot of the one it replaces.
        fields.sort_by_key(|(f, _)| *f);
        fields.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        ObjectVal {
            fields: (!fields.is_empty()).then(|| fields.into()),
        }
    }

    fn fields(&self) -> &[(FieldId, Value)] {
        self.fields.as_deref().unwrap_or_default()
    }

    /// Read a field, `None` when absent.
    pub fn get(&self, field: FieldId) -> Option<&Value> {
        let fields = self.fields();
        fields
            .binary_search_by_key(&field, |(f, _)| *f)
            .ok()
            .map(|i| &fields[i].1)
    }

    /// Read a field, defaulting missing fields to `Value::Int(0)` — fresh
    /// objects materialise zeroed, matching how the benchmarks initialise
    /// counters lazily.
    pub fn get_or_zero(&self, field: FieldId) -> Value {
        self.get(field).cloned().unwrap_or(Value::Int(0))
    }

    /// Write (or insert) a field: in place when no other handle shares
    /// the fields, on a fresh copy otherwise. An insert always copies.
    pub fn set(&mut self, field: FieldId, value: Value) {
        let fields = self.fields();
        match fields.binary_search_by_key(&field, |(f, _)| *f) {
            Ok(i) => {
                let shared = self.fields.as_mut().expect("a found field");
                Arc::make_mut(shared)[i].1 = value;
            }
            Err(i) => {
                let (before, after) = fields.split_at(i);
                let grown = before
                    .iter()
                    .cloned()
                    .chain(std::iter::once((field, value)))
                    .chain(after.iter().cloned())
                    .collect();
                self.fields = Some(grown);
            }
        }
    }

    /// Number of populated fields.
    pub fn len(&self) -> usize {
        self.fields().len()
    }

    /// True when no field is populated.
    pub fn is_empty(&self) -> bool {
        self.fields.is_none()
    }

    /// Iterate fields in ascending [`FieldId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, &Value)> {
        self.fields().iter().map(|(f, v)| (*f, v))
    }
}

/// `ObjectVal { fields: [..] }`, whether the fields are shared or absent.
impl fmt::Debug for ObjectVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectVal")
            .field("fields", &self.fields())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BRANCH: ObjClass = ObjClass::new(0, "Branch");
    const ACCOUNT: ObjClass = ObjClass::new(1, "Account");

    #[test]
    fn class_identity_is_by_id() {
        let other_branch = ObjClass::new(0, "Alias");
        assert_eq!(BRANCH, other_branch);
        assert_ne!(BRANCH, ACCOUNT);
    }

    #[test]
    fn object_id_display() {
        assert_eq!(ObjectId::new(BRANCH, 7).to_string(), "Branch#7");
    }

    #[test]
    fn field_map_set_get() {
        let mut v = ObjectVal::new();
        assert!(v.get(FieldId(1)).is_none());
        v.set(FieldId(1), Value::Int(10));
        v.set(FieldId(0), Value::Int(5));
        v.set(FieldId(1), Value::Int(20)); // overwrite
        assert_eq!(v.get(FieldId(1)), Some(&Value::Int(20)));
        assert_eq!(v.get(FieldId(0)), Some(&Value::Int(5)));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn fields_stay_sorted() {
        let v = ObjectVal::from_fields([
            (FieldId(5), Value::Int(5)),
            (FieldId(1), Value::Int(1)),
            (FieldId(3), Value::Int(3)),
        ]);
        let order: Vec<u16> = v.iter().map(|(f, _)| f.0).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn get_or_zero_defaults() {
        let v = ObjectVal::new();
        assert_eq!(v.get_or_zero(FieldId(9)), Value::Int(0));
    }

    /// Where a value's fields live, `None` for the empty value.
    fn slice_ptr(v: &ObjectVal) -> Option<*const (FieldId, Value)> {
        v.fields.as_ref().map(|f| f.as_ptr())
    }

    #[test]
    fn clones_share_and_a_write_copies_only_while_shared() {
        let mut a = ObjectVal::from_fields([(FieldId(0), Value::Int(1))]);
        let home = slice_ptr(&a);
        a.set(FieldId(0), Value::Int(2));
        assert_eq!(slice_ptr(&a), home, "an unshared value writes in place");
        let b = a.clone();
        assert_eq!(slice_ptr(&b), home, "a clone shares the fields");
        a.set(FieldId(0), Value::Int(3));
        assert_ne!(slice_ptr(&a), home, "a shared value copies on write");
        assert_eq!(slice_ptr(&b), home);
        assert_eq!(b.get(FieldId(0)), Some(&Value::Int(2)));
        assert_eq!(a.get(FieldId(0)), Some(&Value::Int(3)));
        assert_eq!(
            slice_ptr(&ObjectVal::new()),
            None,
            "empty allocates nothing"
        );
        assert!(ObjectVal::from_fields([]).is_empty());
    }

    #[test]
    fn debug_prints_the_field_list() {
        let v = ObjectVal::from_fields([(FieldId(3), Value::Int(7))]);
        assert_eq!(
            format!("{v:?}"),
            "ObjectVal { fields: [(FieldId(3), Int(7))] }"
        );
        assert_eq!(
            format!("{:?}", ObjectVal::new()),
            "ObjectVal { fields: [] }"
        );
    }

    #[test]
    fn from_fields_later_duplicate_wins() {
        let v = ObjectVal::from_fields([(FieldId(2), Value::Int(1)), (FieldId(2), Value::Int(9))]);
        assert_eq!(v.get(FieldId(2)), Some(&Value::Int(9)));
        assert_eq!(v.len(), 1);
    }
}
