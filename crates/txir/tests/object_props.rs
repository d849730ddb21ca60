//! Copy-on-write [`ObjectVal`]: a value and its clones share one field
//! slice until a handle writes, and every handle reads as its own copy.
//!
//! A random sequence of clones, drops and `set`s runs over a pool of
//! handles. Each handle has its own reference model, a sorted
//! `Vec<(FieldId, Value)>` cloned when the handle is, and after every step
//! every handle must read exactly as its model: a write through one handle
//! that leaks into another (an in-place write on a shared slice) fails it,
//! and so does a copy that loses or misorders a field.

use acn_txir::{FieldId, ObjectVal, Value};
use proptest::prelude::*;

/// Fields drawn from a small range, so sets overwrite as often as insert.
const FIELDS: u16 = 6;

/// One handle's model: what its value must read as.
type Model = Vec<(FieldId, Value)>;

fn model_set(model: &mut Model, field: FieldId, value: Value) {
    match model.binary_search_by_key(&field, |(f, _)| *f) {
        Ok(i) => model[i].1 = value,
        Err(i) => model.insert(i, (field, value)),
    }
}

fn assert_reads_as(val: &ObjectVal, model: &Model) {
    let got: Model = val.iter().map(|(f, v)| (f, v.clone())).collect();
    assert_eq!(&got, model);
    assert_eq!(val.len(), model.len());
    assert_eq!(val.is_empty(), model.is_empty());
    for f in (0..FIELDS).map(FieldId) {
        let want = model.iter().find(|(g, _)| *g == f).map(|(_, v)| v);
        assert_eq!(val.get(f), want, "field {f:?}");
    }
    assert_eq!(val, &ObjectVal::from_fields(model.iter().cloned()));
}

/// `(kind, handle, field, value)`: kind 0 clones the handle, 1 drops it
/// (the last handle stays), anything else sets the field — an `Int` for
/// an even value, a `Str` for an odd one.
fn op() -> impl Strategy<Value = (u8, usize, u16, i64)> {
    (0u8..5, 0usize..8, 0..FIELDS, -4i64..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sets_on_a_value_and_its_clones_each_match_their_own_model(
        ops in prop::collection::vec(op(), 0..80),
    ) {
        let mut vals = vec![ObjectVal::new()];
        let mut models: Vec<Model> = vec![Vec::new()];
        for (kind, handle, field, value) in ops {
            let h = handle % vals.len();
            match kind {
                0 => {
                    vals.push(vals[h].clone());
                    models.push(models[h].clone());
                }
                1 if vals.len() > 1 => {
                    vals.swap_remove(h);
                    models.swap_remove(h);
                }
                _ => {
                    let value = if value % 2 == 0 {
                        Value::Int(value)
                    } else {
                        Value::str(format!("s{value}"))
                    };
                    vals[h].set(FieldId(field), value.clone());
                    model_set(&mut models[h], FieldId(field), value);
                }
            }
            for (val, model) in vals.iter().zip(&models) {
                assert_reads_as(val, model);
            }
        }
    }
}
