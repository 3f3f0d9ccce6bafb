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
//! Rows are written once. The working set is handed to each superstep by
//! value, so shipping it to the candidate index moves the states; a state
//! shares its base embedding (a handle on a chunk row) with every other path
//! grown from the same input row; an emitted row is written and checked in
//! the thread's scratch row and committed only if it survives; and the
//! embeddings a superstep emits are appended to the one solution set in
//! place.

use gradoop_dataflow::{
    bulk_iterate_with_results, AdjacencyIndex, Dataset, PartitionKey, SpanRecord,
};

use crate::embedding::{Embedding, EmbeddingRead, EntryType};
use crate::matching::{MatchingConfig, MorphismCheck, MorphismType};
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

/// Working-set element: the base embedding (a handle shared by all paths
/// that start from it), the path's `via` identifiers (alternating edge,
/// vertex, edge, ...) and the current end vertex.
type ExpandState = (Embedding, Vec<u64>, u64);

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

    // Output layout: input columns + path column (+ target column unless
    // the expansion closes a cycle on an already-bound variable).
    let mut meta = input.meta.clone();
    meta.add_entry(&config.edge_variable, EntryType::Path);
    if close_column.is_none() {
        meta.add_entry(&config.target_variable, EntryType::Vertex);
    }

    let base_vertex_columns = input.meta.vertex_columns();
    let base_edge_columns = input.meta.edge_columns();
    let base_path_columns = input.meta.path_columns();
    let matching = config.matching;
    let check = MorphismCheck::new(&meta, &matching);

    let emit = |state: &ExpandState| -> Option<Embedding> {
        let (base, via, end) = state;
        if let Some(close) = close_column {
            if base.id(close) != *end {
                return None;
            }
        }
        // Path column + optional target column are written in one pass and
        // committed only if the row passes the check.
        Embedding::write(|row| {
            row.extend(base, Some(via), close_column.is_none().then_some(*end));
            check.check(row)
        })
    };

    let env = input.data.env().clone();

    // Initial working set: empty path anchored at the source column.
    let initial: Dataset<ExpandState> = input.data.map(move |embedding| {
        let end = embedding.id(source_column);
        (embedding.clone(), Vec::new(), end)
    });

    // Zero-length paths (lower bound 0) are emitted before the iteration.
    let results: Dataset<Embedding> = if config.lower == 0 {
        initial.flat_map(|state, out| out.extend(emit(state)))
    } else {
        env.empty()
    };

    let lower = config.lower.max(1);

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
    let (_, iterated) = bulk_iterate_with_results(initial, config.upper, |states, k| {
        let bytes_before = env.metrics().bytes_shuffled;
        let candidate_bytes = if k > 1 {
            0
        } else {
            index.build_shuffled_bytes()
        };
        let next: Dataset<ExpandState> = index.probe_join(
            states,
            |(_, _, end)| *end,
            |(base, via, end), target, edge| {
                if !valid_extension(
                    base,
                    via,
                    *end,
                    edge,
                    &base_vertex_columns,
                    &base_edge_columns,
                    &base_path_columns,
                    &matching,
                ) {
                    return None;
                }
                let mut extended = Vec::with_capacity(via.len() + 2);
                if via.is_empty() {
                    extended.push(edge);
                } else {
                    extended.extend_from_slice(via);
                    extended.push(*end);
                    extended.push(edge);
                }
                Some((base.clone(), extended, target))
            },
        );
        let found: Dataset<Embedding> = if k >= lower {
            next.flat_map(|state, out| out.extend(emit(state)))
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

/// Checks whether extending a path with `edge` keeps it viable under the
/// configured semantics. The final embedding is re-checked by
/// [`MorphismCheck::check`]; this pre-check prunes states that could never
/// produce a valid embedding, keeping intermediate results small — the
/// "keep only paths that satisfy the specified query semantics" step of the
/// paper's iteration body.
#[allow(clippy::too_many_arguments)]
fn valid_extension(
    base: &Embedding,
    via: &[u64],
    end: u64,
    edge: u64,
    base_vertex_columns: &[usize],
    base_edge_columns: &[usize],
    base_path_columns: &[usize],
    matching: &MatchingConfig,
) -> bool {
    if matching.edges == MorphismType::Isomorphism {
        // The new edge must not repeat any edge of this path, any edge
        // column of the base, or any edge inside the base's path columns.
        if via.iter().step_by(2).any(|&e| e == edge) {
            return false;
        }
        for &column in base_edge_columns {
            if base.id(column) == edge {
                return false;
            }
        }
        for &column in base_path_columns {
            if base.path_iter(column).step_by(2).any(|e| e == edge) {
                return false;
            }
        }
    }
    if matching.vertices == MorphismType::Isomorphism && !via.is_empty() {
        // `end` becomes an intermediate path vertex: it must be fresh.
        if via.iter().skip(1).step_by(2).any(|&v| v == end) {
            return false;
        }
        for &column in base_vertex_columns {
            if base.id(column) == end {
                return false;
            }
        }
        for &column in base_path_columns {
            if base.path_iter(column).skip(1).step_by(2).any(|v| v == end) {
                return false;
            }
        }
    }
    true
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
