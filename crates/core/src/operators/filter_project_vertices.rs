//! `SelectAndProjectVertices`: the vertex leaf operator.
//!
//! Fuses the Select → Project → Transform steps into a single `flat_map`
//! (the paper uses Flink's `FlatMap` for the same reason: one pass, no
//! intermediate (de)serialization). Select evaluates the element-centric
//! predicate, Project keeps only the property keys later operators need,
//! Transform emits the one-column embedding.

use gradoop_cypher::predicates::eval::{eval_predicate, SingleElement};
use gradoop_cypher::QueryVertex;
use gradoop_dataflow::Parts;
use gradoop_epgm::Vertex;

use crate::embedding::{Embedding, EmbeddingMetaData, EntryType};
use crate::operators::{observe_operator, EmbeddingSet};

/// Builds the embedding dataset for one query vertex from its candidate
/// vertices (already label-restricted by the graph source; for a label
/// alternation over an indexed graph, the per-label datasets read in place).
pub fn filter_and_project_vertices(
    candidates: &Parts<Vertex>,
    query_vertex: &QueryVertex,
) -> EmbeddingSet {
    let meta = vertex_leaf_meta(query_vertex);
    let variable = query_vertex.variable.clone();
    let labels = query_vertex.labels.clone();
    let predicates = query_vertex.predicates.clone();
    let keys = query_vertex.required_keys.clone();

    let data = candidates.flat_map(move |vertex, out| {
        // Select: label predicate (defensive re-check — sources may serve a
        // superset when unindexed) plus the element-centric predicate.
        if !labels.is_empty() && !labels.contains(&vertex.label) {
            return;
        }
        let bindings = SingleElement {
            variable: &variable,
            label: &vertex.label,
            properties: &vertex.properties,
            id: vertex.id.0,
        };
        if !eval_predicate(&predicates, &bindings) {
            return;
        }
        // Project + Transform: one-column embedding with required values.
        out.push(Embedding::leaf(&[vertex.id.0], &vertex.properties, &keys));
    });

    let result = EmbeddingSet { data, meta };
    observe_operator(
        "filter_and_project_vertices",
        candidates.len_untracked() as u64,
        &result,
    );
    result
}

/// The layout of [`filter_and_project_vertices`]' rows: the vertex column,
/// then one property per required key.
pub(crate) fn vertex_leaf_meta(query_vertex: &QueryVertex) -> EmbeddingMetaData {
    let mut meta = EmbeddingMetaData::new();
    meta.add_entry(&query_vertex.variable, EntryType::Vertex);
    for key in &query_vertex.required_keys {
        meta.add_property(&query_vertex.variable, key);
    }
    meta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::EmbeddingRead;
    use gradoop_cypher::{parse, QueryGraph};
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
    use gradoop_epgm::{properties, GradoopId, PropertyValue};

    fn env() -> ExecutionEnvironment {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()))
    }

    fn vertices(env: &ExecutionEnvironment) -> Parts<Vertex> {
        env.from_collection(vec![
            Vertex::new(
                GradoopId(1),
                "Person",
                properties! {"name" => "Alice", "yob" => 1984i64},
            ),
            Vertex::new(GradoopId(2), "Person", properties! {"name" => "Bob"}),
            Vertex::new(GradoopId(3), "City", properties! {"name" => "Leipzig"}),
        ])
        .into()
    }

    fn query_vertex(text: &str) -> QueryVertex {
        let graph = QueryGraph::from_query(&parse(text).unwrap()).unwrap();
        graph.vertices[0].clone()
    }

    #[test]
    fn filters_by_label_and_predicate() {
        let env = env();
        let qv = query_vertex("MATCH (p:Person) WHERE p.name = 'Alice' RETURN p.name");
        let result = filter_and_project_vertices(&vertices(&env), &qv);
        let rows = result.data.collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id(0), 1);
    }

    #[test]
    fn projects_required_keys_in_meta_order() {
        let env = env();
        let qv = query_vertex("MATCH (p:Person) WHERE p.yob > 1980 RETURN p.name");
        let result = filter_and_project_vertices(&vertices(&env), &qv);
        // required keys: yob (predicate), name (return)
        let yob = result.meta.property_index("p", "yob").unwrap();
        let name = result.meta.property_index("p", "name").unwrap();
        let rows = result.data.collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].property(yob), PropertyValue::Long(1984));
        assert_eq!(
            rows[0].property(name),
            PropertyValue::String("Alice".into())
        );
    }

    #[test]
    fn missing_properties_are_null() {
        let env = env();
        let qv = query_vertex("MATCH (p:Person) RETURN p.yob");
        let result = filter_and_project_vertices(&vertices(&env), &qv);
        let rows = result.data.collect();
        assert_eq!(rows.len(), 2);
        let index = result.meta.property_index("p", "yob").unwrap();
        assert!(rows.iter().any(|r| r.property(index).is_null()));
    }

    #[test]
    fn unlabeled_query_vertex_accepts_everything() {
        let env = env();
        let qv = query_vertex("MATCH (x) RETURN count(*)");
        let result = filter_and_project_vertices(&vertices(&env), &qv);
        assert_eq!(result.data.count(), 3);
        assert_eq!(result.meta.property_count(), 0);
    }

    #[test]
    fn unsatisfiable_predicate_yields_empty() {
        let env = env();
        let qv = query_vertex("MATCH (p:Person) WHERE p.name = 'Zz' RETURN *");
        let result = filter_and_project_vertices(&vertices(&env), &qv);
        assert_eq!(result.data.count(), 0);
    }
}
