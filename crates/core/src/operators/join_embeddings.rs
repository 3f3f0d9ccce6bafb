//! `JoinEmbeddings`: connects two subqueries by joining their embedding
//! datasets on shared variables.
//!
//! Uses the FlatJoin pattern of the paper: the joined embedding is only
//! emitted if the configured morphism semantics hold, so rejected
//! combinations are never materialized or shuffled further.
//!
//! The join key is *named*: the set of join variables is canonicalized
//! (sorted) into a [`PartitionKey`], and key extraction follows that
//! canonical order on both sides. An embedding set that is already
//! partitioned on the same variables — typically the output of a previous
//! join in a chain — is forwarded instead of shuffled (Flink FORWARD), and
//! the join's output is stamped so the *next* join on those variables can
//! elide its shuffle too.
//!
//! Both inputs are taken by value: a side that has to be shuffled and that
//! nobody else holds is moved to its join partition, not copied.

use std::sync::atomic::{AtomicU64, Ordering};

use gradoop_cypher::predicates::eval::eval_clause;
use gradoop_cypher::CnfClause;
use gradoop_dataflow::{JoinStrategy, PartitionKey};

use crate::embedding::{Embedding, EmbeddingBindings, EmbeddingRead};
use crate::matching::{MatchingConfig, MorphismCheck};
use crate::operators::{malformed_plan, observe_operator_with, EmbeddingSet};

/// A join key extracted from one or two id columns hashes inline; only
/// wider keys (rare in practice — most joins share one or two variables)
/// fall back to an allocated vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    One(u64),
    Two(u64, u64),
    Many(Vec<u64>),
}

fn extract_key(embedding: &Embedding, columns: &[usize]) -> JoinKey {
    match columns {
        [a] => JoinKey::One(embedding.id(*a)),
        [a, b] => JoinKey::Two(embedding.id(*a), embedding.id(*b)),
        _ => JoinKey::Many(columns.iter().map(|&c| embedding.id(c)).collect()),
    }
}

/// The canonical [`PartitionKey`] for embeddings hash-placed by the ids of
/// `variables` (order-insensitive: the variables are sorted first, and key
/// extraction everywhere follows the sorted order). Shared by the join
/// operator, the executor and the planner so that plan-time shuffle
/// predictions and run-time placement facts agree.
pub fn embedding_join_key(variables: &[String]) -> PartitionKey {
    let mut sorted: Vec<&str> = variables.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    PartitionKey::named(&format!("embedding:{}", sorted.join(",")))
}

/// Joins `left` and `right` on the columns bound to `join_variables`.
///
/// A join variable that is unbound on either side makes the plan malformed
/// — the planner never produces such plans. Rather than panicking, the
/// operator records a classified execution failure on the environment and
/// returns an empty embedding set; the engine surfaces the failure as
/// `CypherError::Execution` after the run.
pub fn join_embeddings(
    left: EmbeddingSet,
    right: EmbeddingSet,
    join_variables: &[String],
    config: &MatchingConfig,
    strategy: JoinStrategy,
) -> EmbeddingSet {
    join_embeddings_filtered(left, right, join_variables, config, strategy, &[])
}

/// [`join_embeddings`] with `residual_clauses` fused into the join kernel:
/// each clause is evaluated on the merged embedding *while it is still the
/// thread's scratch row* ([`Embedding::write`]), so embeddings a post-join
/// filter would drop are never committed, materialized or shuffled. The executor
/// uses this to collapse Filter-over-Join plan steps; the operator span then
/// carries a `rows_joined` counter — the pairs the join alone produced,
/// before any residual clause ran — so PROFILE can still report the join's
/// and the filter's cardinalities separately.
pub fn join_embeddings_filtered(
    left: EmbeddingSet,
    right: EmbeddingSet,
    join_variables: &[String],
    config: &MatchingConfig,
    strategy: JoinStrategy,
    residual_clauses: &[CnfClause],
) -> EmbeddingSet {
    if join_variables.is_empty() {
        return malformed_plan(
            &left,
            "join_embeddings",
            "join requires at least one shared variable".to_string(),
        );
    }
    let mut right_columns: Vec<usize> = Vec::with_capacity(join_variables.len());
    for v in join_variables {
        match right.meta.column(v) {
            Some(column) => right_columns.push(column),
            None => {
                return malformed_plan(
                    &right,
                    "join_embeddings",
                    format!("join variable `{v}` unbound on right side"),
                )
            }
        }
    }

    // Key extraction follows the *sorted* variable order on both sides, so
    // the same variable set always hashes identically — the precondition
    // for the named [`PartitionKey`] below to elide repeated shuffles.
    let mut canonical: Vec<String> = join_variables.to_vec();
    canonical.sort_unstable();
    let mut left_key_columns: Vec<usize> = Vec::with_capacity(canonical.len());
    for v in &canonical {
        match left.meta.column(v) {
            Some(column) => left_key_columns.push(column),
            None => {
                return malformed_plan(
                    &left,
                    "join_embeddings",
                    format!("join variable `{v}` unbound on left side"),
                )
            }
        }
    }
    let right_key_columns: Vec<usize> = canonical
        .iter()
        .map(|v| right.meta.column(v).expect("checked above"))
        .collect();
    let key_id = embedding_join_key(join_variables);

    let meta = left.meta.merge(&right.meta, &right_columns);
    let check = MorphismCheck::new(&meta, config);
    let merged_meta = meta.clone();
    let skip = right_columns.clone();
    let clauses = residual_clauses.to_vec();
    let joined = AtomicU64::new(0);
    let joined_pairs = &joined;

    let rows_in = (left.data.len_untracked() + right.data.len_untracked()) as u64;
    let data = left.data.join_partitioned(
        right.data,
        key_id,
        {
            let columns = left_key_columns;
            move |embedding| extract_key(embedding, &columns)
        },
        {
            let columns = right_key_columns;
            move |embedding| extract_key(embedding, &columns)
        },
        strategy,
        move |l, r| {
            Embedding::write(|row| {
                l.merge_into(r, &skip, row);
                if !check.check(row) {
                    return false;
                }
                if clauses.is_empty() {
                    return true;
                }
                joined_pairs.fetch_add(1, Ordering::Relaxed);
                let bindings = EmbeddingBindings {
                    embedding: &*row,
                    meta: &merged_meta,
                };
                clauses.iter().all(|clause| eval_clause(clause, &bindings))
            })
        },
    );

    let result = EmbeddingSet { data, meta };
    let extra = if residual_clauses.is_empty() {
        Vec::new()
    } else {
        let rows_joined = joined.load(Ordering::Relaxed) as f64;
        vec![("rows_joined".to_string(), rows_joined)]
    };
    observe_operator_with("join_embeddings", rows_in, &result, extra);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{Embedding, EmbeddingMetaData, EmbeddingWriter, EntryType};
    use gradoop_dataflow::{CostModel, Dataset, ExecutionConfig, ExecutionEnvironment};

    fn env() -> ExecutionEnvironment {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()))
    }

    /// Embeddings for (a)-[e]->(b): rows of (a, e, b) ids.
    fn edge_set(
        env: &ExecutionEnvironment,
        rows: &[(u64, u64, u64)],
        vars: [&str; 3],
    ) -> EmbeddingSet {
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry(vars[0], EntryType::Vertex);
        meta.add_entry(vars[1], EntryType::Edge);
        meta.add_entry(vars[2], EntryType::Vertex);
        let data: Dataset<Embedding> = env.from_collection(
            rows.iter()
                .map(|(a, e, b)| {
                    let mut emb = EmbeddingWriter::new();
                    emb.push_id(*a);
                    emb.push_id(*e);
                    emb.push_id(*b);
                    emb.commit()
                })
                .collect::<Vec<_>>(),
        );
        EmbeddingSet { data, meta }
    }

    #[test]
    fn joins_on_shared_vertex() {
        let env = env();
        // (a)-[e1]->(b) joined with (b)-[e2]->(c) on b.
        let left = edge_set(&env, &[(1, 10, 2), (3, 11, 4)], ["a", "e1", "b"]);
        let right = edge_set(&env, &[(2, 20, 5), (4, 21, 6)], ["b", "e2", "c"]);
        let joined = join_embeddings(
            left,
            right,
            &["b".to_string()],
            &MatchingConfig::homomorphism(),
            JoinStrategy::RepartitionHash,
        );
        assert_eq!(joined.meta.columns(), 5);
        let rows = joined.data.collect();
        assert_eq!(rows.len(), 2);
        for row in rows {
            let b = row.id(joined.meta.column("b").unwrap());
            let c = row.id(joined.meta.column("c").unwrap());
            assert!((b == 2 && c == 5) || (b == 4 && c == 6));
        }
    }

    #[test]
    fn vertex_isomorphism_prunes_repeats() {
        let env = env();
        // Path of length 2 where data vertex 1 would repeat: 1->2->1.
        let left = edge_set(&env, &[(1, 10, 2)], ["a", "e1", "b"]);
        let right = edge_set(&env, &[(2, 20, 1), (2, 21, 3)], ["b", "e2", "c"]);
        let homo = join_embeddings(
            left.clone(),
            right.clone(),
            &["b".to_string()],
            &MatchingConfig::homomorphism(),
            JoinStrategy::RepartitionHash,
        );
        assert_eq!(homo.data.count(), 2);
        let iso = join_embeddings(
            left,
            right,
            &["b".to_string()],
            &MatchingConfig::isomorphism(),
            JoinStrategy::RepartitionHash,
        );
        assert_eq!(iso.data.count(), 1);
    }

    #[test]
    fn edge_isomorphism_prunes_repeated_edges() {
        let env = env();
        // Undirected-style data: the same data edge 10 in both directions.
        let left = edge_set(&env, &[(1, 10, 2)], ["a", "e1", "b"]);
        let right = edge_set(&env, &[(2, 10, 1)], ["b", "e2", "c"]);
        let cypher = join_embeddings(
            left.clone(),
            right.clone(),
            &["b".to_string()],
            &MatchingConfig::cypher_default(),
            JoinStrategy::RepartitionHash,
        );
        assert_eq!(cypher.data.count(), 0); // edge 10 bound twice
        let homo = join_embeddings(
            left,
            right,
            &["b".to_string()],
            &MatchingConfig::homomorphism(),
            JoinStrategy::RepartitionHash,
        );
        assert_eq!(homo.data.count(), 1);
    }

    #[test]
    fn multi_column_join_closes_triangles() {
        let env = env();
        // (a)-[e1]->(b)-[e2]->(c) as left; (a)-[e3]->(c) as right:
        // join on both a and c.
        let mut left_meta = EmbeddingMetaData::new();
        left_meta.add_entry("a", EntryType::Vertex);
        left_meta.add_entry("b", EntryType::Vertex);
        left_meta.add_entry("c", EntryType::Vertex);
        let mut emb = EmbeddingWriter::new();
        emb.push_id(1);
        emb.push_id(2);
        emb.push_id(3);
        let left = EmbeddingSet {
            data: env.from_collection(vec![emb.commit()]),
            meta: left_meta,
        };
        let right = edge_set(&env, &[(1, 30, 3), (1, 31, 4)], ["a", "e3", "c"]);
        let joined = join_embeddings(
            left,
            right,
            &["a".to_string(), "c".to_string()],
            &MatchingConfig::homomorphism(),
            JoinStrategy::RepartitionHash,
        );
        let rows = joined.data.collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id(joined.meta.column("e3").unwrap()), 30);
    }

    #[test]
    fn join_key_is_order_insensitive() {
        let ac = embedding_join_key(&["a".to_string(), "c".to_string()]);
        let ca = embedding_join_key(&["c".to_string(), "a".to_string()]);
        assert_eq!(ac, ca);
        assert_ne!(ac, embedding_join_key(&["a".to_string()]));
    }

    #[test]
    fn chained_joins_on_same_variable_elide_the_shuffle() {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(4).cost_model(CostModel::free()),
        );
        let rows: Vec<(u64, u64, u64)> = (0..200).map(|i| (i, 1000 + i, i % 20)).collect();
        let left = edge_set(&env, &rows, ["a", "e1", "b"]);
        let mid_rows: Vec<(u64, u64, u64)> = (0..20).map(|i| (i, 2000 + i, i + 500)).collect();
        let mid = edge_set(&env, &mid_rows, ["b", "e2", "c"]);
        let last_rows: Vec<(u64, u64, u64)> = (0..20).map(|i| (i, 3000 + i, i + 900)).collect();
        let last = edge_set(&env, &last_rows, ["b", "e3", "d"]);

        let first = join_embeddings(
            left,
            mid,
            &["b".to_string()],
            &MatchingConfig::homomorphism(),
            JoinStrategy::RepartitionHash,
        );
        // The join output is stamped as partitioned on its join variables.
        assert!(first.data.partitioning().is_some());

        // Second join on the same variable: the (large) first result is
        // forwarded; only `last` is pushed through the shuffle. (The first
        // result already sits hash-placed by `b`, so the re-shuffle it
        // avoids would move zero bytes — the saving shows up as records not
        // re-hashed and re-routed.) Compare against the same join with the
        // placement fact erased.
        let before = env.metrics();
        let _ = join_embeddings(
            first.clone(),
            last.clone(),
            &["b".to_string()],
            &MatchingConfig::homomorphism(),
            JoinStrategy::RepartitionHash,
        );
        let mid_metrics = env.metrics();
        let with_stamp = mid_metrics.records_in - before.records_in;

        let unstamped = EmbeddingSet {
            data: first.data.clone().assume_partitioning(None),
            meta: first.meta.clone(),
        };
        let _ = join_embeddings(
            unstamped,
            last,
            &["b".to_string()],
            &MatchingConfig::homomorphism(),
            JoinStrategy::RepartitionHash,
        );
        let after = env.metrics();
        let without_stamp = after.records_in - mid_metrics.records_in;
        assert!(
            with_stamp < without_stamp,
            "forwarding must process fewer records: {with_stamp} vs {without_stamp}"
        );
        // Byte-wise the forwarded plan can only be at least as cheap.
        let stamped_bytes = mid_metrics.bytes_shuffled - before.bytes_shuffled;
        let unstamped_bytes = after.bytes_shuffled - mid_metrics.bytes_shuffled;
        assert!(stamped_bytes <= unstamped_bytes);
    }

    #[test]
    fn unknown_join_variable_poisons_environment() {
        let env = env();
        let left = edge_set(&env, &[(1, 10, 2)], ["a", "e1", "b"]);
        let right = edge_set(&env, &[(2, 20, 3)], ["b", "e2", "c"]);
        let joined = join_embeddings(
            left,
            right,
            &["nope".to_string()],
            &MatchingConfig::homomorphism(),
            JoinStrategy::RepartitionHash,
        );
        // No panic: an empty result plus a recorded execution failure.
        assert_eq!(joined.data.count(), 0);
        let failure = env.take_execution_failure().expect("poisoned");
        assert!(failure.message.contains("`nope` unbound"));
        assert!(failure.site.contains("join_embeddings"));
        // The failure is drained exactly once.
        assert!(env.take_execution_failure().is_none());
    }
}
