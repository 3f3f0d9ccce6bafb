//! Integration tests composing the Cypher operator with the other EPGM
//! operators — the analytical-program capability the paper emphasizes.

mod common;

use common::{figure1_graph, test_env};
use gradoop::prelude::*;

#[test]
fn cypher_then_aggregate_then_select() {
    // Find friendships, lift each match graph back to a logical graph,
    // aggregate and select — a full EPGM analytical program.
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let matches = graph
        .cypher(
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a.name",
            MatchingConfig::cypher_default(),
        )
        .unwrap();
    assert_eq!(matches.graph_count(), 4);

    // Matches involving Eve as the source.
    let eves = matches
        .select(|head| head.properties.get("a.name").and_then(|v| v.as_str()) == Some("Eve"));
    assert_eq!(eves.graph_count(), 2);
}

#[test]
fn subgraph_before_cypher_restricts_matches() {
    let env = test_env(2);
    let graph = figure1_graph(&env);
    // Only the friendship subgraph: university/city and their edges vanish.
    let friendships = graph.subgraph(|v| v.label == "Person", |e| e.label == "knows");
    let matches = friendships
        .cypher(
            "MATCH (a)-[e]->(b) RETURN *",
            MatchingConfig::cypher_default(),
        )
        .unwrap();
    assert_eq!(matches.graph_count(), 4); // exactly the 4 knows edges
}

#[test]
fn grouping_summarizes_the_figure1_graph() {
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let summary = graph.group_by(&GroupingConfig::by_label());
    let vertices = summary.vertices().collect();
    // Person, University, City.
    assert_eq!(vertices.len(), 3);
    let person = vertices.iter().find(|v| v.label == "Person").unwrap();
    assert_eq!(person.property("count").unwrap().as_i64(), Some(3));
    let edges = summary.edges().collect();
    // knows (P->P), studyAt (P->U), locatedIn (P->C), locatedIn (U->C).
    assert_eq!(edges.len(), 4);
}

#[test]
fn aggregation_counts_match_graph_contents() {
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let aggregated = graph
        .aggregate("vertexCount", &AggregateFunction::VertexCount)
        .aggregate("edgeCount", &AggregateFunction::EdgeCount);
    assert_eq!(
        aggregated.head().properties.get("vertexCount"),
        Some(&PropertyValue::Long(5))
    );
    assert_eq!(
        aggregated.head().properties.get("edgeCount"),
        Some(&PropertyValue::Long(8))
    );
}

#[test]
fn collection_set_operations_on_match_results() {
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let all_knows = graph
        .cypher(
            "MATCH (a)-[e:knows]->(b) RETURN *",
            MatchingConfig::cypher_default(),
        )
        .unwrap();
    let from_eve = all_knows.select(|head| {
        // Variable bindings are attached as graph-head properties; `a` is
        // the source person's vertex id.
        head.properties.get("a").and_then(|v| v.as_i64()) == Some(20)
    });
    let rest = all_knows.difference_collections(&from_eve);
    assert_eq!(from_eve.graph_count(), 2);
    assert_eq!(rest.graph_count(), 2);
    let reunited = rest.union_collections(&from_eve);
    assert_eq!(reunited.graph_count(), 4);
}

#[test]
fn transformation_feeds_modified_graph_to_cypher() {
    let env = test_env(2);
    let graph = figure1_graph(&env).transform_vertices(|v| {
        let mut v = v.clone();
        if v.label == "Person" {
            v.properties.set("vip", true);
        }
        v
    });
    let matches = graph
        .cypher(
            "MATCH (p:Person) WHERE p.vip = TRUE RETURN p.name",
            MatchingConfig::cypher_default(),
        )
        .unwrap();
    assert_eq!(matches.graph_count(), 3);
}

#[test]
fn indexed_graph_source_for_queries() {
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let indexed = graph.to_indexed();
    let engine = CypherEngine::for_graph(&graph);
    let query = "MATCH (p:Person)-[s:studyAt]->(u:University) RETURN *";
    let plain = engine
        .execute(
            &graph,
            query,
            &Default::default(),
            MatchingConfig::cypher_default(),
        )
        .unwrap();
    let indexed_result = engine
        .execute(
            &indexed,
            query,
            &Default::default(),
            MatchingConfig::cypher_default(),
        )
        .unwrap();
    assert_eq!(plain.count(), 2);
    assert_eq!(indexed_result.count(), 2);
}

/// A label repeated in an alternation used to read its per-label dataset
/// of the index twice, so the indexed source answered `:A|A` with every
/// match doubled while the scan source counted it once.
#[test]
fn repeated_labels_in_an_alternation_count_once_on_either_source() {
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let indexed = graph.to_indexed();
    let engine = CypherEngine::for_graph(&graph);
    let count = |source: &dyn GraphSource, query: &str| {
        engine
            .execute(
                source,
                query,
                &Default::default(),
                MatchingConfig::homomorphism(),
            )
            .unwrap()
            .count()
    };
    for (repeated, plain_form) in [
        (
            "MATCH (p:Person|Person) RETURN *",
            "MATCH (p:Person) RETURN *",
        ),
        (
            "MATCH (x:Person|University|Person) RETURN *",
            "MATCH (x:Person|University) RETURN *",
        ),
        (
            "MATCH (a)-[e:knows|knows]->(b) RETURN *",
            "MATCH (a)-[e:knows]->(b) RETURN *",
        ),
        (
            "MATCH (a:Person)-[e:knows|knows*1..2]->(b:Person|Person) RETURN *",
            "MATCH (a:Person)-[e:knows*1..2]->(b:Person) RETURN *",
        ),
    ] {
        let expected = count(&graph, plain_form);
        assert!(expected > 0, "{plain_form}");
        assert_eq!(count(&graph, repeated), expected, "scan: {repeated}");
        assert_eq!(count(&indexed, repeated), expected, "indexed: {repeated}");
    }
}

#[test]
fn algorithms_compose_with_cypher() {
    // WCC annotates components; Cypher then filters on the computed
    // property — algorithm output is queryable like any other property.
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let friendships = graph.subgraph(|v| v.label == "Person", |e| e.label == "knows");
    let with_components = connected_components(&friendships);
    let matches = with_components
        .cypher(
            "MATCH (a:Person)-[e:knows]->(b:Person) \
             WHERE a.component = b.component RETURN *",
            MatchingConfig::cypher_default(),
        )
        .unwrap();
    // All three persons are one component, so every knows edge matches.
    assert_eq!(matches.graph_count(), 4);
}

#[test]
fn page_rank_identifies_figure1_hub() {
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let friendships = graph.subgraph(|v| v.label == "Person", |e| e.label == "knows");
    let ranked = page_rank(&friendships, &PageRankConfig::default());
    let ranks: std::collections::HashMap<String, f64> = ranked
        .vertices()
        .collect()
        .iter()
        .map(|v| {
            (
                v.property("name")
                    .and_then(|p| p.as_str())
                    .unwrap()
                    .to_string(),
                v.property("pageRank").and_then(|p| p.as_f64()).unwrap(),
            )
        })
        .collect();
    // Alice is pointed at by Eve and Bob; ranks must sum to one.
    let total: f64 = ranks.values().sum();
    assert!((total - 1.0).abs() < 1e-6);
    assert!(ranks["Alice"] > ranks["Bob"]);
}

#[test]
fn bfs_distances_follow_edge_direction() {
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let friendships = graph.subgraph(|v| v.label == "Person", |e| e.label == "knows");
    // From Alice (10): Eve at 1 hop (edge 5), Bob at 2 hops (via Eve).
    let with_distances = single_source_distances(&friendships, GradoopId(10));
    let distance = |name: &str| {
        with_distances
            .vertices()
            .collect()
            .iter()
            .find(|v| v.property("name").and_then(|p| p.as_str()) == Some(name))
            .and_then(|v| v.property("distance").and_then(|p| p.as_i64()))
    };
    assert_eq!(distance("Alice"), Some(0));
    assert_eq!(distance("Eve"), Some(1));
    assert_eq!(distance("Bob"), Some(2));
}
