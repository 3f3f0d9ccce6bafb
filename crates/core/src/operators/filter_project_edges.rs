//! `SelectAndProjectEdges`: the edge leaf operator.
//!
//! Emits one embedding per matching edge with columns
//! `[source, edge, target]` (or `[vertex, edge]` for loops, where the query
//! edge starts and ends at the same query vertex). Undirected query edges
//! emit both orientations, letting all downstream joins stay purely
//! directional.

use gradoop_cypher::predicates::eval::{eval_predicate, SingleElement};
use gradoop_cypher::QueryEdge;
use gradoop_dataflow::{Dataset, Parts};
use gradoop_epgm::Edge;

use crate::embedding::{Embedding, EmbeddingMetaData, EmbeddingWriter, EntryType};
use crate::matching::{MatchingConfig, MorphismCheck};
use crate::operators::{observe_operator, EmbeddingSet};

fn edge_matches(edge: &Edge, query_edge: &QueryEdge) -> bool {
    if !query_edge.labels.is_empty() && !query_edge.labels.contains(&edge.label) {
        return false;
    }
    let bindings = SingleElement {
        variable: &query_edge.variable,
        label: &edge.label,
        properties: &edge.properties,
        id: edge.id.0,
    };
    eval_predicate(&query_edge.predicates, &bindings)
}

/// Builds the embedding dataset for one plain (1-hop) query edge from its
/// candidate edges. `source_var` / `target_var` are the variables of the
/// query edge's endpoints.
///
/// The morphism check judges the one violation a single edge can already
/// exhibit: under vertex isomorphism, a data loop cannot bind two *distinct*
/// query vertices.
pub fn filter_and_project_edges(
    candidates: &Parts<Edge>,
    query_edge: &QueryEdge,
    source_var: &str,
    target_var: &str,
    matching: &MatchingConfig,
) -> EmbeddingSet {
    let is_loop = source_var == target_var;
    let meta = edge_leaf_meta(query_edge, source_var, target_var);
    let check = MorphismCheck::new(&meta, matching);

    let qe = query_edge.clone();
    let undirected = query_edge.undirected;
    let data = candidates.flat_map(move |edge, out| {
        if !edge_matches(edge, &qe) {
            return;
        }
        let (source, id, target) = (edge.source.0, edge.id.0, edge.target.0);
        // Only a data loop can repeat an id within one edge's row.
        let mut emit = |ids: &[u64]| {
            let keys = &qe.required_keys;
            let accept = |row: &EmbeddingWriter| source != target || check.check(row);
            out.extend(Embedding::leaf(ids, &edge.properties, keys, accept));
        };
        if is_loop {
            // The query edge starts and ends at the same query vertex: only
            // data loops can match.
            if source == target {
                emit(&[source, id]);
            }
            return;
        }
        emit(&[source, id, target]);
        if undirected && source != target {
            emit(&[target, id, source]);
        }
    });

    let result = EmbeddingSet { data, meta };
    observe_operator(
        "filter_and_project_edges",
        candidates.len_untracked() as u64,
        &result,
    );
    result
}

/// The layout of [`filter_and_project_edges`]' rows: source, edge and
/// target columns (source and edge for a loop), then one property per
/// required key.
pub(crate) fn edge_leaf_meta(
    query_edge: &QueryEdge,
    source_var: &str,
    target_var: &str,
) -> EmbeddingMetaData {
    let mut meta = EmbeddingMetaData::new();
    meta.add_entry(source_var, EntryType::Vertex);
    meta.add_entry(&query_edge.variable, EntryType::Edge);
    if source_var != target_var {
        meta.add_entry(target_var, EntryType::Vertex);
    }
    for key in &query_edge.required_keys {
        meta.add_property(&query_edge.variable, key);
    }
    meta
}

/// Projects candidate edges to bare `(source, edge, target)` identifier
/// triples for the bulk-iteration expansion — label and element predicates
/// applied, undirected edges emitted in both orientations.
pub fn edge_triples(
    candidates: &Parts<Edge>,
    query_edge: &QueryEdge,
) -> Dataset<crate::operators::EdgeTriple> {
    let qe = query_edge.clone();
    let undirected = query_edge.undirected;
    candidates.flat_map(move |edge, out| {
        if !edge_matches(edge, &qe) {
            return;
        }
        out.push((edge.source.0, edge.id.0, edge.target.0));
        if undirected && edge.source != edge.target {
            out.push((edge.target.0, edge.id.0, edge.source.0));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::EmbeddingRead;
    use crate::matching::MatchingConfig;
    use gradoop_cypher::{parse, QueryGraph};
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
    use gradoop_epgm::{properties, GradoopId, Properties, PropertyValue};

    fn env() -> ExecutionEnvironment {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()))
    }

    fn edges(env: &ExecutionEnvironment) -> Parts<Edge> {
        env.from_collection(vec![
            Edge::new(
                GradoopId(10),
                "knows",
                GradoopId(1),
                GradoopId(2),
                properties! {"since" => 2014i64},
            ),
            Edge::new(
                GradoopId(11),
                "knows",
                GradoopId(2),
                GradoopId(2), // data loop
                Properties::new(),
            ),
            Edge::new(
                GradoopId(12),
                "studyAt",
                GradoopId(1),
                GradoopId(3),
                properties! {"classYear" => 2016i64},
            ),
        ])
        .into()
    }

    fn query_edge(text: &str) -> (QueryEdge, String, String) {
        let graph = QueryGraph::from_query(&parse(text).unwrap()).unwrap();
        let edge = graph.edges[0].clone();
        let source = graph.vertices[edge.source].variable.clone();
        let target = graph.vertices[edge.target].variable.clone();
        (edge, source, target)
    }

    #[test]
    fn directed_edge_emits_one_embedding_per_match() {
        let env = env();
        let (qe, s, t) = query_edge("MATCH (a)-[e:knows]->(b) RETURN *");
        let result =
            filter_and_project_edges(&edges(&env), &qe, &s, &t, &MatchingConfig::homomorphism());
        assert_eq!(result.data.count(), 2);
        assert_eq!(result.meta.column("a"), Some(0));
        assert_eq!(result.meta.column("e"), Some(1));
        assert_eq!(result.meta.column("b"), Some(2));
        // Under vertex isomorphism the data loop cannot bind both a and b.
        let iso =
            filter_and_project_edges(&edges(&env), &qe, &s, &t, &MatchingConfig::isomorphism());
        assert_eq!(
            iso.data
                .collect()
                .iter()
                .map(|r| r.id(1))
                .collect::<Vec<_>>(),
            [10]
        );
    }

    #[test]
    fn undirected_edge_emits_both_orientations() {
        let env = env();
        let (qe, s, t) = query_edge("MATCH (a)-[e:knows]-(b) RETURN *");
        let result =
            filter_and_project_edges(&edges(&env), &qe, &s, &t, &MatchingConfig::homomorphism());
        // Edge 10 twice (both directions), loop edge 11 once.
        assert_eq!(result.data.count(), 3);
    }

    #[test]
    fn predicate_and_projection() {
        let env = env();
        let (qe, s, t) =
            query_edge("MATCH (a)-[e:studyAt]->(b) WHERE e.classYear > 2014 RETURN e.classYear");
        let result =
            filter_and_project_edges(&edges(&env), &qe, &s, &t, &MatchingConfig::homomorphism());
        let rows = result.data.collect();
        assert_eq!(rows.len(), 1);
        let index = result.meta.property_index("e", "classYear").unwrap();
        assert_eq!(rows[0].property(index), PropertyValue::Long(2016));
    }

    #[test]
    fn loop_query_edge_matches_only_data_loops() {
        let env = env();
        let (qe, s, t) = query_edge("MATCH (a)-[e:knows]->(a) RETURN *");
        assert_eq!(s, t);
        let result =
            filter_and_project_edges(&edges(&env), &qe, &s, &t, &MatchingConfig::homomorphism());
        let rows = result.data.collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id(0), 2);
        assert_eq!(rows[0].id(1), 11);
        assert_eq!(result.meta.columns(), 2);
        // A loop query edge binds one vertex, so isomorphism keeps the loop.
        let iso =
            filter_and_project_edges(&edges(&env), &qe, &s, &t, &MatchingConfig::isomorphism());
        assert_eq!(iso.data.count(), 1);
    }

    #[test]
    fn triples_respect_direction_flag() {
        let env = env();
        let (qe, _, _) = query_edge("MATCH (a)-[e:knows]->(b) RETURN *");
        let mut directed = edge_triples(&edges(&env), &qe).collect();
        directed.sort();
        assert_eq!(directed, vec![(1, 10, 2), (2, 11, 2)]);

        let (qe, _, _) = query_edge("MATCH (a)-[e:knows]-(b) RETURN *");
        assert_eq!(edge_triples(&edges(&env), &qe).count(), 3);
    }
}
