//! `ValueJoinEmbeddings`: joins two embedding sets on *property values*
//! instead of element identity.
//!
//! The paper names this as the canonical example of the query engine's
//! extensibility ("it is easy to integrate new query operators, for
//! example, to join subqueries on property values", Section 3.1). The
//! planner uses it to evaluate equality predicates between properties of
//! otherwise disconnected query components, replacing a cartesian product
//! followed by a filter.

use crate::embedding::{Embedding, EmbeddingRead};
use crate::matching::{MatchingConfig, MorphismCheck};
use crate::operators::{malformed_plan, observe_operator, EmbeddingSet};
use gradoop_dataflow::JoinStrategy;

/// Joins `left` and `right` where the given property slots are equal.
///
/// Rows whose join property is `NULL` (or missing) never match — Cypher
/// equality semantics. The output binds the union of both sides' columns
/// and property slots (nothing is skipped: the sides share no variables).
/// An unbound join property means a malformed plan: the operator records a
/// classified execution failure instead of panicking and returns an empty
/// set. Consumes both inputs.
pub fn value_join_embeddings(
    left: EmbeddingSet,
    right: EmbeddingSet,
    left_property: &(String, String),
    right_property: &(String, String),
    config: &MatchingConfig,
    strategy: JoinStrategy,
) -> EmbeddingSet {
    let Some(left_index) = left.meta.property_index(&left_property.0, &left_property.1) else {
        return malformed_plan(
            &left,
            "value_join_embeddings",
            format!(
                "value-join property `{}.{}` unbound on left side",
                left_property.0, left_property.1
            ),
        );
    };
    let Some(right_index) = right
        .meta
        .property_index(&right_property.0, &right_property.1)
    else {
        return malformed_plan(
            &right,
            "value_join_embeddings",
            format!(
                "value-join property `{}.{}` unbound on right side",
                right_property.0, right_property.1
            ),
        );
    };

    let meta = left.meta.merge(&right.meta, &[]);
    let check = MorphismCheck::new(&meta, config);

    let rows_in = (left.data.len_untracked() + right.data.len_untracked()) as u64;
    let data = left.data.join(
        right.data,
        move |embedding| embedding.property(left_index),
        move |embedding| embedding.property(right_index),
        strategy,
        move |l, r| {
            // NULL never equals NULL under Cypher semantics; the hash join
            // groups them together, so reject here. The tag test decodes
            // nothing, so a string key costs no allocation per pair.
            if l.property_is_null(left_index) {
                return None;
            }
            Embedding::write(|row| {
                l.merge_into(r, &[], row);
                check.check(row)
            })
        },
    );
    let result = EmbeddingSet { data, meta };
    observe_operator("value_join_embeddings", rows_in, &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{EmbeddingMetaData, EmbeddingWriter, EntryType};
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
    use gradoop_epgm::PropertyValue;

    fn env() -> ExecutionEnvironment {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()))
    }

    /// One-column embeddings for `variable` with property `key` bound to
    /// the given values (None = NULL).
    fn side(
        env: &ExecutionEnvironment,
        variable: &str,
        key: &str,
        rows: &[(u64, Option<&str>)],
    ) -> EmbeddingSet {
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry(variable, EntryType::Vertex);
        meta.add_property(variable, key);
        let data = env.from_collection(
            rows.iter()
                .map(|(id, value)| {
                    let mut e = EmbeddingWriter::new();
                    e.push_id(*id);
                    e.push_property(&match value {
                        Some(s) => PropertyValue::String((*s).into()),
                        None => PropertyValue::Null,
                    });
                    e.commit()
                })
                .collect::<Vec<_>>(),
        );
        EmbeddingSet { data, meta }
    }

    #[test]
    fn joins_on_equal_property_values() {
        let env = env();
        let people = side(
            &env,
            "p",
            "city",
            &[
                (1, Some("Leipzig")),
                (2, Some("Dresden")),
                (3, Some("Leipzig")),
            ],
        );
        let unis = side(
            &env,
            "u",
            "city",
            &[(10, Some("Leipzig")), (11, Some("Berlin"))],
        );
        let joined = value_join_embeddings(
            people,
            unis,
            &("p".to_string(), "city".to_string()),
            &("u".to_string(), "city".to_string()),
            &MatchingConfig::cypher_default(),
            JoinStrategy::RepartitionHash,
        );
        let rows = joined.data.collect();
        assert_eq!(rows.len(), 2); // persons 1 and 3 with university 10
        let p = joined.meta.column("p").unwrap();
        let u = joined.meta.column("u").unwrap();
        for row in rows {
            assert_eq!(row.id(u), 10);
            assert!(row.id(p) == 1 || row.id(p) == 3);
        }
        // Both property slots survive in the merged layout.
        assert!(joined.meta.property_index("p", "city").is_some());
        assert!(joined.meta.property_index("u", "city").is_some());
    }

    #[test]
    fn null_values_never_match() {
        let env = env();
        let left = side(&env, "a", "k", &[(1, None), (2, Some("x"))]);
        let right = side(&env, "b", "k", &[(10, None), (11, Some("x"))]);
        let joined = value_join_embeddings(
            left,
            right,
            &("a".to_string(), "k".to_string()),
            &("b".to_string(), "k".to_string()),
            &MatchingConfig::cypher_default(),
            JoinStrategy::RepartitionHash,
        );
        // Only the ("x", "x") pair joins; NULL = NULL is false.
        assert_eq!(joined.data.count(), 1);
    }

    #[test]
    fn morphism_checks_apply_to_value_joins() {
        let env = env();
        // Both sides bind the same data vertex 1.
        let left = side(&env, "a", "k", &[(1, Some("x"))]);
        let right = side(&env, "b", "k", &[(1, Some("x"))]);
        let homo = value_join_embeddings(
            left.clone(),
            right.clone(),
            &("a".to_string(), "k".to_string()),
            &("b".to_string(), "k".to_string()),
            &MatchingConfig::homomorphism(),
            JoinStrategy::RepartitionHash,
        );
        assert_eq!(homo.data.count(), 1);
        let iso = value_join_embeddings(
            left,
            right,
            &("a".to_string(), "k".to_string()),
            &("b".to_string(), "k".to_string()),
            &MatchingConfig::isomorphism(),
            JoinStrategy::RepartitionHash,
        );
        assert_eq!(iso.data.count(), 0);
    }

    #[test]
    fn unknown_property_poisons_environment() {
        let env = env();
        let left = side(&env, "a", "k", &[(1, Some("x"))]);
        let right = side(&env, "b", "k", &[(2, Some("x"))]);
        let joined = value_join_embeddings(
            left,
            right,
            &("a".to_string(), "nope".to_string()),
            &("b".to_string(), "k".to_string()),
            &MatchingConfig::cypher_default(),
            JoinStrategy::RepartitionHash,
        );
        assert_eq!(joined.data.count(), 0);
        let failure = env.take_execution_failure().expect("poisoned");
        assert!(failure.message.contains("`a.nope` unbound"));
        assert!(failure.site.contains("value_join_embeddings"));
    }
}
