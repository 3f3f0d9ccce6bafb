//! `ExpandEmbeddings`: variable-length path expressions via bulk iteration
//! (paper Section 3.1).
//!
//! A path of length `k` corresponds to a k-way join between the input
//! embeddings and the edge set. The operator runs a bulk iteration whose
//! body performs a 1-hop expansion (a join with the candidate edges),
//! keeps only paths that satisfy the configured morphism semantics, and
//! unions embeddings into the result set once the iteration counter reaches
//! the lower bound. The iteration terminates when the upper bound is
//! reached or no extensible paths remain.
//!
//! The candidate edge set is **loop-invariant**: it never changes between
//! supersteps. The operator partitions the candidates by source vertex and
//! indexes them *once*, before the iteration starts, and every
//! superstep only ships the working set to the cached index — Flink caches
//! loop-invariant datasets inside a `BulkIteration` the same way.
//!
//! The working set is a dataset of embeddings in the paper's Section 3.3
//! layout: the input columns, the growing path entry and the path's end
//! vertex. A hop is one row written by [`EmbeddingWriter::grow_path`] and
//! committed with one `memcpy` into the thread's chunk, once
//! [`MorphismCheck::accepts_hop`] — the one uniqueness rule, applied to the
//! new edge and end — lets it grow. A non-closing expansion's frontier row
//! *is* its output row, so emitting it costs a handle; a closing one emits
//! the rows that reached the bound target without their end column. The
//! emitted rows are appended to the one solution set in place.
//!
//! [`EmbeddingWriter::grow_path`]: crate::embedding::EmbeddingWriter::grow_path

use gradoop_dataflow::{
    bulk_iterate_with_results, AdjacencyIndex, Dataset, PartitionKey, SpanRecord,
};

use crate::embedding::{Embedding, EmbeddingRead, EntryType};
use crate::matching::{MatchingConfig, MorphismCheck};
use crate::operators::{malformed_plan, observe_operator, EmbeddingSet};

/// A candidate edge, projected to `(source, edge, target)` identifiers.
pub type EdgeTriple = (u64, u64, u64);

/// Configuration of one expansion.
#[derive(Debug, Clone)]
pub struct ExpandConfig {
    /// Variable the expansion starts from (must be bound in the input).
    pub source_variable: String,
    /// The path's edge variable (bound to a path column in the output).
    pub edge_variable: String,
    /// Variable the expansion ends at. If already bound in the input the
    /// expansion closes a cycle; otherwise a new vertex column is added.
    pub target_variable: String,
    /// Minimum number of edges (0 allows the empty path).
    pub lower: usize,
    /// Maximum number of edges.
    pub upper: usize,
    /// Morphism semantics.
    pub matching: MatchingConfig,
}

/// Expands `input` along `candidates` according to `config`. Takes both by
/// value like every operator that ships its rows: the expansion reads
/// `input` once, to seed the working set, and moves a last-held
/// `candidates` into the index it builds.
pub fn expand_embeddings(
    input: EmbeddingSet,
    candidates: Dataset<EdgeTriple>,
    config: &ExpandConfig,
) -> EmbeddingSet {
    let Some(source_column) = input.meta.column(&config.source_variable) else {
        // A malformed plan, not a data fault: record a classified failure
        // and degrade to an empty result instead of panicking.
        return malformed_plan(
            &input,
            "expand_embeddings",
            format!("expand source `{}` unbound", config.source_variable),
        );
    };
    let close_column = input.meta.column(&config.target_variable);

    // Frontier layout: input columns + path column + the path's end, which
    // is the new target column unless the expansion closes a cycle on an
    // already-bound variable; then it goes unnamed and the output drops it.
    let mut meta = input.meta.clone();
    meta.add_entry(&config.edge_variable, EntryType::Path);
    let mut frontier = meta.clone();
    let end_column = frontier.add_entry(
        close_column.map_or(config.target_variable.as_str(), |_| ""),
        EntryType::Vertex,
    );
    if close_column.is_none() {
        meta = frontier.clone();
    }
    let mut check = MorphismCheck::new(&frontier, &config.matching);
    check.closing = close_column;

    // What frontier rows emit: a non-closing expansion's rows as they are,
    // a closing one's that reached the bound target without their end.
    let emit = |rows: &Dataset<Embedding>| match close_column {
        None => rows.clone(),
        Some(close) => rows.flat_map(move |row, out| {
            if row.id(end_column) == row.id(close) {
                out.extend(Embedding::write(|closed| {
                    closed.grow_path(row, &[], None);
                    true
                }));
            }
        }),
    };

    let env = input.data.env().clone();

    // Initial working set: the seeds, empty paths that end at the source —
    // the one place a row's end repeats a column.
    let initial: Dataset<Embedding> = input.data.map(move |base| {
        Embedding::write(|seed| {
            seed.extend(base, true, [base.id(source_column)]);
            true
        })
        .expect("a seed row is always committed")
    });

    // Zero-length paths (lower bound 0) are emitted before the iteration;
    // the hop rule never saw them, so a non-closing seed is checked whole.
    let results: Dataset<Embedding> = match config.lower {
        0 if close_column.is_none() => initial.filter(|seed| check.check(seed)),
        0 => emit(&initial),
        _ => env.empty(),
    };

    // Loop-invariant build side: the candidates are shuffled by source
    // vertex and indexed exactly once, before the first superstep.
    let rows_in = (input.data.len_untracked() + candidates.len_untracked()) as u64;
    let index = AdjacencyIndex::partitioned(
        candidates,
        PartitionKey::named("expand:candidate.source"),
        |&(source, edge, target)| (source, target, edge),
    );

    // The 1-hop expansion probing the candidate index with the working set.
    // Emits per-iteration PROFILE counters: path length reached, size of the
    // surviving working set, embeddings emitted this round, frontier bytes
    // shipped, and candidate-side bytes shipped (the index's build, charged
    // to round 1 only). A no-op unless a trace sink is installed.
    let (_, iterated) = bulk_iterate_with_results(initial, config.upper, |rows, k| {
        let bytes_before = env.metrics().bytes_shuffled;
        let candidate_bytes = if k > 1 {
            0
        } else {
            index.build_shuffled_bytes()
        };
        let next: Dataset<Embedding> = index.probe_join(
            rows,
            |row| row.id(end_column),
            |row, target, edge| {
                if !check.accepts_hop(row, edge, target) {
                    return None;
                }
                // The path gains the old end and the edge; a seed's, the edge.
                let seed = row.path_len(end_column - 1) == 0;
                let via = &[row.id(end_column), edge][usize::from(seed)..];
                Embedding::write(|grown| {
                    grown.grow_path(row, via, Some(target));
                    true
                })
            },
        );
        let found: Dataset<Embedding> = if k >= config.lower {
            emit(&next)
        } else {
            env.empty()
        };
        let frontier_bytes = env.metrics().bytes_shuffled - bytes_before;
        env.emit_span(SpanRecord {
            name: "expand/iteration".to_string(),
            wall_seconds: 0.0,
            simulated_seconds: 0.0,
            counters: vec![
                ("iteration".to_string(), k as f64),
                ("frontier_rows".to_string(), next.len_untracked() as f64),
                ("emitted_rows".to_string(), found.len_untracked() as f64),
                ("shuffled_bytes".to_string(), frontier_bytes as f64),
                (
                    "candidate_shuffled_bytes".to_string(),
                    candidate_bytes as f64,
                ),
            ],
        });
        (next, found)
    });
    let result = EmbeddingSet {
        data: results.union(iterated),
        meta,
    };
    observe_operator("expand_embeddings", rows_in, &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{EmbeddingMetaData, EmbeddingWriter};
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};

    fn env() -> ExecutionEnvironment {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()))
    }

    /// One-column input: vertex variable `a` bound to each given id.
    fn starts(env: &ExecutionEnvironment, ids: &[u64]) -> EmbeddingSet {
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry("a", EntryType::Vertex);
        let data = env.from_collection(
            ids.iter()
                .map(|id| {
                    let mut emb = EmbeddingWriter::new();
                    emb.push_id(*id);
                    emb.commit()
                })
                .collect::<Vec<_>>(),
        );
        EmbeddingSet { data, meta }
    }

    fn config(lower: usize, upper: usize, matching: MatchingConfig) -> ExpandConfig {
        ExpandConfig {
            source_variable: "a".into(),
            edge_variable: "e".into(),
            target_variable: "b".into(),
            lower,
            upper,
            matching,
        }
    }

    /// Chain 1 -e10-> 2 -e11-> 3 -e12-> 4.
    fn chain(env: &ExecutionEnvironment) -> Dataset<EdgeTriple> {
        env.from_collection(vec![(1u64, 10u64, 2u64), (2, 11, 3), (3, 12, 4)])
    }

    #[test]
    fn expands_paths_between_bounds() {
        let env = env();
        let input = starts(&env, &[1]);
        let result = expand_embeddings(
            input,
            chain(&env),
            &config(1, 3, MatchingConfig::cypher_default()),
        );
        let rows = result.data.collect();
        // Paths from 1 of length 1, 2, 3.
        assert_eq!(rows.len(), 3);
        let path_col = result.meta.column("e").unwrap();
        let target_col = result.meta.column("b").unwrap();
        let mut summary: Vec<(usize, u64)> = rows
            .iter()
            .map(|r| (r.path(path_col).len(), r.id(target_col)))
            .collect();
        summary.sort();
        // via lengths: k=1 -> 1 entry, k=2 -> 3, k=3 -> 5.
        assert_eq!(summary, vec![(1, 2), (3, 3), (5, 4)]);
    }

    #[test]
    fn paper_via_representation() {
        let env = env();
        let input = starts(&env, &[1]);
        let result = expand_embeddings(
            input,
            chain(&env),
            &config(2, 2, MatchingConfig::cypher_default()),
        );
        let rows = result.data.collect();
        assert_eq!(rows.len(), 1);
        // via holds [edge, vertex, edge] like Table 2b.
        assert_eq!(
            rows[0].path(result.meta.column("e").unwrap()),
            vec![10, 2, 11]
        );
    }

    #[test]
    fn zero_lower_bound_emits_empty_path() {
        let env = env();
        let input = starts(&env, &[1]);
        let result = expand_embeddings(
            input,
            chain(&env),
            &config(0, 1, MatchingConfig::cypher_default()),
        );
        let rows = result.data.collect();
        assert_eq!(rows.len(), 2);
        let path_col = result.meta.column("e").unwrap();
        let target_col = result.meta.column("b").unwrap();
        let zero = rows.iter().find(|r| r.path(path_col).is_empty()).unwrap();
        // Zero-length path: target equals source.
        assert_eq!(zero.id(target_col), 1);
    }

    #[test]
    fn cycle_edge_isomorphism_terminates() {
        let env = env();
        // 1 <-> 2 cycle.
        let candidates = env.from_collection(vec![(1u64, 10u64, 2u64), (2, 11, 1)]);
        let input = starts(&env, &[1]);
        let result = expand_embeddings(
            input,
            candidates,
            &config(1, 10, MatchingConfig::cypher_default()),
        );
        // Edge-ISO: 1->2 (len 1), 1->2->1 (len 2). Vertex repeats allowed
        // under HOMO vertices.
        assert_eq!(result.data.count(), 2);
    }

    #[test]
    fn cycle_homomorphism_expands_to_upper_bound() {
        let env = env();
        let candidates = env.from_collection(vec![(1u64, 10u64, 2u64), (2, 11, 1)]);
        let input = starts(&env, &[1]);
        let result = expand_embeddings(
            input,
            candidates,
            &config(1, 6, MatchingConfig::homomorphism()),
        );
        // One path per length 1..=6.
        assert_eq!(result.data.count(), 6);
    }

    #[test]
    fn vertex_isomorphism_prunes_revisits() {
        let env = env();
        // Diamond with return: 1->2, 2->3, 3->2 would revisit 2.
        let candidates = env.from_collection(vec![(1u64, 10u64, 2u64), (2, 11, 3), (3, 12, 2)]);
        let input = starts(&env, &[1]);
        let result = expand_embeddings(
            input,
            candidates,
            &config(1, 5, MatchingConfig::isomorphism()),
        );
        // 1->2 and 1->2->3 only; 1->2->3->2 revisits vertex 2.
        assert_eq!(result.data.count(), 2);
    }

    #[test]
    fn closing_expansion_filters_on_bound_target() {
        let env = env();
        // Input binds a=1 and b=3; expansion must end at 3.
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry("a", EntryType::Vertex);
        meta.add_entry("b", EntryType::Vertex);
        let mut emb = EmbeddingWriter::new();
        emb.push_id(1);
        emb.push_id(3);
        let input = EmbeddingSet {
            data: env.from_collection(vec![emb.commit()]),
            meta,
        };
        let result = expand_embeddings(
            input,
            chain(&env),
            &config(1, 3, MatchingConfig::cypher_default()),
        );
        let rows = result.data.collect();
        assert_eq!(rows.len(), 1);
        // Only the length-2 path 1->2->3 closes on b=3; no new column added.
        assert_eq!(result.meta.columns(), 3);
        assert_eq!(rows[0].path(2), vec![10, 2, 11]);
    }

    #[test]
    fn a_closing_path_ends_at_its_bound_target_or_passes_it_only_homomorphically() {
        let env = env();
        // Input binds a=1 and b=2; 1 -e10-> 2 -e11-> 3 -e12-> 2.
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry("a", EntryType::Vertex);
        meta.add_entry("b", EntryType::Vertex);
        let mut emb = EmbeddingWriter::new();
        emb.push_id(1);
        emb.push_id(2);
        let input = EmbeddingSet {
            data: env.from_collection(vec![emb.commit()]),
            meta,
        };
        let candidates = env.from_collection(vec![(1u64, 10u64, 2u64), (2, 11, 3), (3, 12, 2)]);
        let paths = |matching| {
            let result =
                expand_embeddings(input.clone(), candidates.clone(), &config(1, 5, matching));
            assert_eq!(result.meta.columns(), 3);
            let mut paths: Vec<Vec<u64>> =
                result.data.collect().iter().map(|r| r.path(2)).collect();
            paths.sort();
            paths
        };
        // Under vertex isomorphism the bound target 2 cannot be an
        // intermediate vertex, so only 1->2 closes.
        assert_eq!(paths(MatchingConfig::isomorphism()), vec![vec![10]]);
        // Under Cypher's default the path may pass through 2 and return.
        assert_eq!(
            paths(MatchingConfig::cypher_default()),
            vec![vec![10], vec![10, 2, 11, 3, 12]]
        );
    }

    #[test]
    fn closing_on_the_source_admits_a_self_loop_under_isomorphism() {
        let env = env();
        // 1 -e10-> 1, 1 -e11-> 2 -e12-> 1; the expansion is (a)-[e*1..3]->(a).
        let candidates = env.from_collection(vec![(1u64, 10u64, 1u64), (1, 11, 2), (2, 12, 1)]);
        let paths = |matching| {
            let mut config = config(1, 3, matching);
            config.target_variable = "a".into();
            let result = expand_embeddings(starts(&env, &[1]), candidates.clone(), &config);
            assert_eq!(result.meta.columns(), 2);
            let mut paths: Vec<Vec<u64>> =
                result.data.collect().iter().map(|r| r.path(1)).collect();
            paths.sort();
            paths
        };
        assert_eq!(
            paths(MatchingConfig::isomorphism()),
            vec![vec![10], vec![11, 2, 12]]
        );
        assert_eq!(
            paths(MatchingConfig::cypher_default()),
            vec![
                vec![10],
                vec![10, 1, 11, 2, 12],
                vec![11, 2, 12],
                vec![11, 2, 12, 1, 10]
            ]
        );
    }

    #[test]
    fn candidates_are_shuffled_exactly_once_across_iterations() {
        use gradoop_dataflow::CollectingSink;
        use std::sync::Arc;

        let env = env();
        let sink = Arc::new(CollectingSink::new());
        env.set_trace_sink(Some(sink.clone()));
        let input = starts(&env, &[1]);
        let result = expand_embeddings(
            input,
            chain(&env),
            &config(1, 3, MatchingConfig::cypher_default()),
        );
        assert_eq!(result.data.count(), 3);
        let counters: Vec<(f64, f64)> = sink
            .snapshot()
            .spans
            .iter()
            .filter(|s| s.name == "expand/iteration")
            .map(|s| {
                (
                    s.counter("iteration").unwrap(),
                    s.counter("candidate_shuffled_bytes").unwrap(),
                )
            })
            .collect();

        // The candidate edges ship in round 1 only; later rounds probe the
        // cached index for free.
        assert_eq!(counters.len(), 3);
        assert!(counters[0].1 > 0.0);
        assert_eq!(counters[1], (2.0, 0.0));
        assert_eq!(counters[2], (3.0, 0.0));
    }

    #[test]
    fn no_candidates_yields_empty_unless_zero_allowed() {
        let env = env();
        let input = starts(&env, &[1]);
        let empty: Dataset<EdgeTriple> = env.empty();
        let strict = expand_embeddings(
            input.clone(),
            empty.clone(),
            &config(1, 3, MatchingConfig::cypher_default()),
        );
        assert_eq!(strict.data.count(), 0);
        let zero = expand_embeddings(
            input,
            empty,
            &config(0, 3, MatchingConfig::cypher_default()),
        );
        assert_eq!(zero.data.count(), 1);
    }
}
