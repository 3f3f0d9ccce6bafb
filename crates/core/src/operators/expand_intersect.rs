//! `ExpandIntersect`: worst-case-optimal closure of a cycle.
//!
//! Binds one new query vertex by intersecting, per partial embedding, the
//! sorted adjacency lists of every already-bound endpoint of the closing
//! edges. A binary plan would first materialize the open path — on a
//! triangle that intermediate is `O(|E|·d)` rows — and filter it down with
//! a closing join; the intersection emits only vertices adjacent to *all*
//! bound endpoints, so the open path never exists. The adjacency indexes
//! are replicated (charged like a broadcast-join build) and the probe runs
//! partition-local, so no embedding is ever shuffled.

use std::collections::HashSet;

use gradoop_cypher::predicates::eval::{eval_predicate, SingleElement};
use gradoop_cypher::QueryGraph;
use gradoop_dataflow::{probe_intersect, AdjacencyIndex, SpanRecord};

use crate::embedding::{Embedding, EmbeddingRead, EntryType};
use crate::matching::{MatchingConfig, MorphismCheck};
use crate::operators::{edge_triples, malformed_plan, observe_operator, EmbeddingSet};
use crate::source::GraphSource;

/// Extends `input` by the query vertex `vertex`, closing all `edges` at
/// once via sorted-adjacency intersection.
///
/// Every closing edge must have its non-`vertex` endpoint bound by `input`
/// (the planner guarantees this); an unbound endpoint marks the plan
/// malformed — recorded on the environment, not panicked. Label and
/// element-centric predicates of the new vertex are enforced through an
/// admissibility set, edge predicates inside the adjacency index build, and
/// the configured morphism semantics on each candidate embedding before it
/// is emitted.
pub fn expand_intersect<S: GraphSource + ?Sized>(
    input: &EmbeddingSet,
    query: &QueryGraph,
    source: &S,
    vertex: usize,
    edges: &[usize],
    matching: &MatchingConfig,
) -> EmbeddingSet {
    let target_vertex = &query.vertices[vertex];

    // One replicated adjacency index per closing edge, oriented so the key
    // is the id of the endpoint `input` already binds. Undirected edges
    // carry both orientations in their triples, so keying by the stored
    // source covers either direction.
    let mut bound_columns: Vec<usize> = Vec::with_capacity(edges.len());
    let mut indexes: Vec<AdjacencyIndex> = Vec::with_capacity(edges.len());
    for &e in edges {
        let query_edge = &query.edges[e];
        let bound_vertex = if query_edge.source == vertex {
            query_edge.target
        } else {
            query_edge.source
        };
        let bound_var = &query.vertices[bound_vertex].variable;
        let column = match input.meta.column(bound_var) {
            Some(column) => column,
            None => {
                return malformed_plan(
                    input,
                    "expand_intersect",
                    format!("intersection endpoint `{bound_var}` unbound"),
                )
            }
        };
        bound_columns.push(column);
        let keyed_by_source = query_edge.undirected || query_edge.target == vertex;
        let triples = edge_triples(&source.edges_for_labels(&query_edge.labels), query_edge);
        indexes.push(AdjacencyIndex::replicated(
            &triples,
            |&(source, edge, target)| {
                if keyed_by_source {
                    (source, target, edge)
                } else {
                    (target, source, edge)
                }
            },
        ));
    }

    // Admissible bindings of the new vertex: label plus element-centric
    // predicate, mirroring what a ScanVertices leaf would have produced.
    let candidates = source.vertices_for_labels(&target_vertex.labels);
    let mut admissible: HashSet<u64> = HashSet::new();
    for part in candidates.datasets().iter().flat_map(|d| d.partitions()) {
        for v in part {
            if !target_vertex.labels.is_empty() && !target_vertex.labels.contains(&v.label) {
                continue;
            }
            let bindings = SingleElement {
                variable: &target_vertex.variable,
                label: &v.label,
                properties: &v.properties,
                id: v.id.0,
            };
            if !eval_predicate(&target_vertex.predicates, &bindings) {
                continue;
            }
            admissible.insert(v.id.0);
        }
    }

    let mut meta = input.meta.clone();
    for &e in edges {
        meta.add_entry(&query.edges[e].variable, EntryType::Edge);
    }
    meta.add_entry(&target_vertex.variable, EntryType::Vertex);
    let check = MorphismCheck::new(&meta, matching);

    let rows_in = input.data.len_untracked() as u64;
    let (data, stats) = probe_intersect(
        &input.data,
        &indexes,
        |row, keys| {
            for &column in &bound_columns {
                keys.push(row.id(column));
            }
        },
        |row, w, edge_ids, out| {
            if !admissible.contains(&w) {
                return;
            }
            // The closing edges and the new vertex are written in one pass
            // and committed only if the row passes the check.
            out.extend(Embedding::write(|embedding| {
                embedding.extend(row, false, edge_ids.iter().copied().chain([w]));
                check.check(embedding)
            }));
        },
    );

    let result = EmbeddingSet { data, meta };
    result.data.env().emit_span(SpanRecord {
        name: "expand_intersect/intersect".to_string(),
        wall_seconds: 0.0,
        simulated_seconds: 0.0,
        counters: vec![
            (
                "rows_intersected".to_string(),
                stats.rows_intersected as f64,
            ),
            ("rows_emitted".to_string(), stats.rows_emitted as f64),
        ],
    });
    observe_operator("expand_intersect", rows_in, &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::filter_and_project_edges;
    use gradoop_cypher::parse;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
    use gradoop_epgm::{properties, Edge, GradoopId, GraphHead, LogicalGraph, Properties, Vertex};

    /// A graph with exactly one directed triangle 1→2→3→1 plus a dangling
    /// open path 1→4 (wedge 3→1→4 never closes).
    fn triangle_graph(env: &ExecutionEnvironment) -> LogicalGraph {
        let person =
            |id: u64| Vertex::new(GradoopId(id), "Person", properties! {"vid" => id as i64});
        let knows = |id: u64, s: u64, t: u64| {
            Edge::new(
                GradoopId(id),
                "knows",
                GradoopId(s),
                GradoopId(t),
                Properties::new(),
            )
        };
        LogicalGraph::from_data(
            env,
            GraphHead::new(GradoopId(100), "g", Properties::new()),
            vec![person(1), person(2), person(3), person(4)],
            vec![
                knows(10, 1, 2),
                knows(11, 2, 3),
                knows(12, 3, 1),
                knows(13, 1, 4),
            ],
        )
    }

    /// The directed cycle a→b→c→a: closing at `c` intersects one
    /// source-keyed index (e2: b→c) with one target-keyed index (e3: c→a).
    fn triangle_query() -> QueryGraph {
        QueryGraph::from_query(
            &parse(
                "MATCH (a:Person)-[e1:knows]->(b:Person), \
                 (b)-[e2:knows]->(c:Person), (c)-[e3:knows]->(a) RETURN *",
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn env() -> ExecutionEnvironment {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()))
    }

    #[test]
    fn closes_the_triangle_without_open_paths() {
        let env = env();
        let graph = triangle_graph(&env);
        let query = triangle_query();
        // Input: embeddings of (a)-[e1]->(b); close c = e2 ∩ e3.
        let e1 = &query.edges[0];
        let input = filter_and_project_edges(
            &graph.edges_for_labels(&e1.labels),
            e1,
            "a",
            "b",
            &MatchingConfig::cypher_default(),
        );
        let c = query
            .vertices
            .iter()
            .position(|v| v.variable == "c")
            .unwrap();
        let closing: Vec<usize> = (0..query.edges.len())
            .filter(|&i| query.edges[i].source == c || query.edges[i].target == c)
            .collect();
        assert_eq!(closing.len(), 2);
        let result = expand_intersect(
            &input,
            &query,
            &graph,
            c,
            &closing,
            &MatchingConfig::cypher_default(),
        );
        // The one triangle matches in all three rotations; the wedge through
        // vertex 4 never closes.
        let rows = result.data.collect();
        let mut abc: Vec<(u64, u64, u64)> = rows
            .iter()
            .map(|row| {
                (
                    row.id(result.meta.column("a").unwrap()),
                    row.id(result.meta.column("b").unwrap()),
                    row.id(result.meta.column("c").unwrap()),
                )
            })
            .collect();
        abc.sort();
        assert_eq!(abc, vec![(1, 2, 3), (2, 3, 1), (3, 1, 2)]);
        let first = rows
            .iter()
            .find(|row| row.id(result.meta.column("a").unwrap()) == 1)
            .unwrap();
        assert_eq!(first.id(result.meta.column("e2").unwrap()), 11);
        assert_eq!(first.id(result.meta.column("e3").unwrap()), 12);
    }

    #[test]
    fn vertex_predicate_restricts_the_intersection() {
        let env = env();
        let graph = triangle_graph(&env);
        let query = QueryGraph::from_query(
            &parse(
                "MATCH (a:Person)-[e1:knows]->(b:Person), \
                 (b)-[e2:knows]->(c:Person), (c)-[e3:knows]->(a) \
                 WHERE c.vid > 90 RETURN *",
            )
            .unwrap(),
        )
        .unwrap();
        let e1 = &query.edges[0];
        let input = filter_and_project_edges(
            &graph.edges_for_labels(&e1.labels),
            e1,
            "a",
            "b",
            &MatchingConfig::cypher_default(),
        );
        let c = query
            .vertices
            .iter()
            .position(|v| v.variable == "c")
            .unwrap();
        let closing: Vec<usize> = (0..query.edges.len())
            .filter(|&i| query.edges[i].source == c || query.edges[i].target == c)
            .collect();
        let result = expand_intersect(
            &input,
            &query,
            &graph,
            c,
            &closing,
            &MatchingConfig::cypher_default(),
        );
        assert_eq!(result.data.count(), 0);
    }

    #[test]
    fn unbound_endpoint_poisons_environment() {
        let env = env();
        let graph = triangle_graph(&env);
        let query = triangle_query();
        // Input binds only vertex a — endpoint b of the closing edges is
        // unbound, so the plan is malformed.
        let input = crate::operators::filter_and_project_vertices(
            &graph.vertices_for_labels(&query.vertices[0].labels),
            &query.vertices[0],
        );
        let c = query
            .vertices
            .iter()
            .position(|v| v.variable == "c")
            .unwrap();
        let closing: Vec<usize> = (0..query.edges.len())
            .filter(|&i| query.edges[i].source == c || query.edges[i].target == c)
            .collect();
        let result = expand_intersect(
            &input,
            &query,
            &graph,
            c,
            &closing,
            &MatchingConfig::cypher_default(),
        );
        assert_eq!(result.data.count(), 0);
        let failure = env.take_execution_failure().expect("poisoned");
        assert!(failure.site.contains("expand_intersect"));
        assert!(failure.message.contains("unbound"));
    }
}
