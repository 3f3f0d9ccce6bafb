//! Laws of the row value order and the clause-table key derived from it.
//!
//! `cmp_values` is a total order: antisymmetric and transitive, also where
//! an `f64` cannot tell neighbouring integers apart (±2^53 ± k, ±2^63,
//! `i64::MIN`/`MAX`), on NaN and on ±0.0. `RowKey` equality holds exactly
//! when `cmp_rows` says `Equal`, and equal keys hash equally, so joins,
//! grouping and `DISTINCT` agree with `ORDER BY`.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use gradoop_core::{cmp_rows, cmp_values, RowKey, Value};
use proptest::prelude::*;

const TWO_53: i64 = 1 << 53;

/// Integers where `i64 as f64` rounds, and where it saturates.
const ANCHORS: [i64; 7] = [0, 1, TWO_53, -TWO_53, i64::MAX, i64::MIN, 1 << 62];

/// Floats at the edges of the `i64` range and outside every integer.
const FLOATS: [f64; 9] = [
    9_223_372_036_854_775_808.0, // 2^63
    -9_223_372_036_854_775_808.0,
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    2.5,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// A two-string list: `["a,b", "c"]` and `["a", "b,c"]` join to one text.
fn ambiguous(a: &str, b: &str) -> Value {
    Value::List(vec![Value::Str(a.into()), Value::Str(b.into())])
}

/// Every case the retired unit tests checked, plus the integer/float
/// neighbourhood of 2^53 that an `as f64` comparison gets wrong.
fn pinned() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::Int(-1),
        Value::Int(2),
        Value::Float(2.0),
        Value::Float(2.5),
        Value::Float(f64::NAN),
        Value::Str("a".into()),
        Value::Vertex(1),
        Value::Edge(1),
        Value::Vertex(5),
        Value::Edge(5),
        Value::Path(vec![1, 2, 3]),
        Value::List(vec![Value::Int(1)]),
        ambiguous("a,b", "c"),
        ambiguous("a", "b,c"),
        Value::Int(TWO_53),
        Value::Int(TWO_53 + 1),
        Value::Float(TWO_53 as f64),
        Value::Int(i64::MAX),
        Value::Float(9_223_372_036_854_775_808.0),
        Value::Float(-0.0),
        Value::Int(0),
    ]
}

/// `anchor + k` as an `Int` (saturating) or as the nearest `Float`.
fn near(anchor: i64, k: i64, float: bool) -> Value {
    if float {
        Value::Float(anchor as f64 + k as f64)
    } else {
        Value::Int(anchor.saturating_add(k))
    }
}

fn number() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0..ANCHORS.len(), -3i64..4, any::<bool>())
            .prop_map(|(i, k, float)| near(ANCHORS[i], k, float)),
        (0..FLOATS.len()).prop_map(|i| Value::Float(FLOATS[i])),
    ]
}

/// Numbers around one anchor, so that integers a float cannot tell apart
/// meet in one draw.
fn clustered() -> impl Strategy<Value = Vec<Value>> {
    (0..ANCHORS.len()).prop_flat_map(|anchor| {
        proptest::collection::vec(
            (-2i64..3, any::<bool>()).prop_map(move |(k, float)| near(ANCHORS[anchor], k, float)),
            0..8,
        )
    })
}

/// Boundary numerics, short strings, element ids from a small range (so a
/// vertex and an edge share ids), paths and nested lists.
fn value() -> impl Strategy<Value = Value> {
    let scalar = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        number(),
        number(),
        "[ab,]{0,3}".prop_map(Value::Str),
        (0u64..3).prop_map(Value::Vertex),
        (0u64..3).prop_map(Value::Edge),
        proptest::collection::vec(0u64..3, 0..4).prop_map(Value::Path),
    ];
    scalar.prop_recursive(2, 8, 3, |inner| {
        proptest::collection::vec(inner, 0..3).prop_map(Value::List)
    })
}

fn hash_of(key: &RowKey) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

fn assert_order_laws(values: &[Value]) {
    for a in values {
        assert_eq!(
            cmp_values(a, a),
            Ordering::Equal,
            "{a:?} is not equal to itself"
        );
        for b in values {
            let ab = cmp_values(a, b);
            assert_eq!(ab, cmp_values(b, a).reverse(), "{a:?} vs {b:?}");
            for c in values {
                if ab != Ordering::Greater && cmp_values(b, c) != Ordering::Greater {
                    assert_ne!(
                        cmp_values(a, c),
                        Ordering::Greater,
                        "{a:?} <= {b:?} <= {c:?} but {a:?} > {c:?}"
                    );
                }
            }
        }
    }
}

fn assert_key_laws(rows: &[Vec<Value>]) {
    for a in rows {
        for b in rows {
            let (ka, kb) = (RowKey(a.clone()), RowKey(b.clone()));
            let equal = cmp_rows(a, b) == Ordering::Equal;
            assert_eq!(ka == kb, equal, "{a:?} vs {b:?}");
            assert_eq!(ka.cmp(&kb), cmp_rows(a, b), "{a:?} vs {b:?}");
            if equal {
                assert_eq!(hash_of(&ka), hash_of(&kb), "{a:?} vs {b:?}");
            }
        }
    }
}

#[test]
fn pinned_values_obey_the_order_and_key_laws() {
    let values = pinned();
    assert_order_laws(&values);
    let rows: Vec<Vec<Value>> = values.iter().map(|v| vec![v.clone()]).collect();
    assert_key_laws(&rows);

    let key = |v: Value| RowKey(vec![v]);
    // Numbers collapse across types where they are the same number.
    assert_eq!(key(Value::Int(2)), key(Value::Float(2.0)));
    assert_eq!(key(Value::Int(0)), key(Value::Float(-0.0)));
    assert_eq!(key(Value::Float(f64::NAN)), key(Value::Float(-f64::NAN)));
    assert_ne!(key(Value::Int(2)), key(Value::Float(2.5)));
    // ... and only there: 2^53 + 1 has no f64, and 2^63 exceeds every i64.
    assert_ne!(
        key(Value::Int(TWO_53 + 1)),
        key(Value::Float(TWO_53 as f64))
    );
    assert_ne!(
        key(Value::Int(i64::MAX)),
        key(Value::Float(9_223_372_036_854_775_808.0))
    );
    // Vertex and edge id spaces stay apart; list items stay apart.
    assert_ne!(key(Value::Vertex(5)), key(Value::Edge(5)));
    assert_ne!(key(ambiguous("a,b", "c")), key(ambiguous("a", "b,c")));
    // NULL sorts last and groups with NULL.
    assert_eq!(
        cmp_values(&Value::Null, &Value::Str("z".into())),
        Ordering::Greater
    );
    assert_eq!(key(Value::Null), key(Value::Null));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn cmp_values_is_antisymmetric_and_transitive(
        values in proptest::collection::vec(value(), 0..10),
        numbers in clustered(),
    ) {
        assert_order_laws(&values);
        assert_order_laws(&numbers);
    }

    #[test]
    fn key_equality_is_cmp_rows_equality_and_equal_keys_hash_equally(
        rows in proptest::collection::vec(proptest::collection::vec(number(), 0..3), 0..10),
        mixed in proptest::collection::vec(proptest::collection::vec(value(), 0..3), 0..6),
    ) {
        assert_key_laws(&rows);
        assert_key_laws(&mixed);
    }
}
