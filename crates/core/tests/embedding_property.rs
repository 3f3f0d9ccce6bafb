//! Property-based tests of the byte-array embedding layout: every sequence
//! of writes reads back exactly, merge behaves like concatenation with
//! column skips, and the leaf constructor commits what the push sequence
//! writes.

use gradoop_core::{Embedding, EmbeddingRead, EmbeddingWriter, Entry};
use gradoop_epgm::{Properties, PropertyValue};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Write {
    Id(u64),
    Path(Vec<u64>),
}

fn writes() -> impl Strategy<Value = Vec<Write>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u64>().prop_map(Write::Id),
            proptest::collection::vec(any::<u64>(), 0..8).prop_map(Write::Path),
        ],
        0..10,
    )
}

fn properties() -> impl Strategy<Value = Vec<PropertyValue>> {
    proptest::collection::vec(
        prop_oneof![
            Just(PropertyValue::Null),
            any::<i64>().prop_map(PropertyValue::Long),
            "[a-z]{0,12}".prop_map(PropertyValue::String),
        ],
        0..6,
    )
}

/// Values of every encoded type, lists included.
fn any_value() -> impl Strategy<Value = PropertyValue> {
    let scalar = prop_oneof![
        Just(PropertyValue::Null),
        any::<bool>().prop_map(PropertyValue::Boolean),
        any::<i32>().prop_map(PropertyValue::Int),
        any::<i64>().prop_map(PropertyValue::Long),
        any::<f64>().prop_map(PropertyValue::Double),
        "[a-zé ]{0,12}".prop_map(PropertyValue::String),
    ];
    scalar.prop_recursive(2, 8, 4, move |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(PropertyValue::List)
    })
}

fn build(writes: &[Write], props: &[PropertyValue]) -> Embedding {
    let mut embedding = EmbeddingWriter::new();
    for write in writes {
        match write {
            Write::Id(id) => embedding.push_id(*id),
            Write::Path(ids) => embedding.push_path(ids),
        }
    }
    for value in props {
        embedding.push_property(value);
    }
    embedding.commit()
}

fn expected_entry(write: &Write) -> Entry {
    match write {
        Write::Id(id) => Entry::Id(*id),
        Write::Path(ids) => Entry::Path(ids.clone()),
    }
}

proptest! {
    #[test]
    fn writes_read_back_exactly(ws in writes(), props in properties()) {
        let embedding = build(&ws, &props);
        prop_assert_eq!(embedding.columns(), ws.len());
        prop_assert_eq!(embedding.property_count(), props.len());
        for (column, write) in ws.iter().enumerate() {
            prop_assert_eq!(embedding.entry(column), expected_entry(write));
        }
        for (index, value) in props.iter().enumerate() {
            prop_assert_eq!(&embedding.property(index), value);
        }
    }

    #[test]
    fn merge_is_concatenation_with_skips(
        left_writes in writes(),
        left_props in properties(),
        right_writes in writes(),
        right_props in properties(),
        skip_mask in proptest::collection::vec(any::<bool>(), 10),
    ) {
        let left = build(&left_writes, &left_props);
        let right = build(&right_writes, &right_props);
        let skips: Vec<usize> = (0..right_writes.len())
            .filter(|&i| skip_mask[i])
            .collect();
        let merged = left.merge(&right, &skips);

        // Columns: all of left's, then right's unskipped ones in order.
        let mut expected: Vec<Entry> = left_writes.iter().map(expected_entry).collect();
        expected.extend(
            right_writes
                .iter()
                .enumerate()
                .filter(|(i, _)| !skips.contains(i))
                .map(|(_, w)| expected_entry(w)),
        );
        prop_assert_eq!(merged.columns(), expected.len());
        for (column, entry) in expected.iter().enumerate() {
            prop_assert_eq!(&merged.entry(column), entry);
        }

        // Properties: plain concatenation.
        prop_assert_eq!(merged.property_count(), left_props.len() + right_props.len());
        for (index, value) in left_props.iter().chain(right_props.iter()).enumerate() {
            prop_assert_eq!(&merged.property(index), value);
        }
    }

    #[test]
    fn merge_with_empty_right_is_identity(ws in writes(), props in properties()) {
        let embedding = build(&ws, &props);
        let merged = embedding.merge(&EmbeddingWriter::new().commit(), &[]);
        prop_assert_eq!(merged, embedding);
    }

    /// An element binds some of the keys `k0..k5`; the leaf is asked for any
    /// of `k0..k7` in any order, repeats included, so `k6` and `k7` (and
    /// whatever the element lacks) must come out as NULL.
    #[test]
    fn leaf_constructor_is_the_push_sequence_byte_for_byte(
        ids in proptest::collection::vec(any::<u64>(), 0..4),
        bound in proptest::collection::vec((0usize..6, any_value()), 0..6),
        asked in proptest::collection::vec(0usize..8, 0..8),
    ) {
        let properties: Properties = bound
            .into_iter()
            .map(|(key, value)| (format!("k{key}"), value))
            .collect();
        let keys: Vec<String> = asked.iter().map(|key| format!("k{key}")).collect();

        let mut pushed = EmbeddingWriter::new();
        for id in &ids {
            pushed.push_id(*id);
        }
        for key in &keys {
            let value = properties.get(key).cloned().unwrap_or(PropertyValue::Null);
            pushed.push_property(&value);
        }
        let leaf = Embedding::leaf(&ids, &properties, &keys);
        // `Embedding: Eq` compares the bytes and both section offsets.
        prop_assert_eq!(&leaf, &pushed.commit());
        prop_assert_eq!(leaf.property_count(), keys.len());
        for (index, key) in keys.iter().enumerate() {
            let expected = properties.get(key).cloned().unwrap_or(PropertyValue::Null);
            prop_assert_eq!(leaf.property(index).to_bytes(), expected.to_bytes());
        }
    }
}
