//! End-to-end integration tests of the Cypher operator: parse → plan →
//! execute → post-process, across crates.

mod common;

use std::collections::HashMap;

use common::{figure1_graph, test_env};
use gradoop::prelude::*;

fn count(graph: &LogicalGraph, query: &str, matching: MatchingConfig) -> usize {
    let engine = CypherEngine::for_graph(graph);
    engine
        .execute(graph, query, &HashMap::new(), matching)
        .unwrap_or_else(|e| panic!("{query}: {e}"))
        .count()
}

#[test]
fn paper_example_query_from_section_2_3() {
    // Pairs of persons studying at Uni Leipzig with different genders who
    // know each other by at most three friendships (paper Section 2.3).
    let env = test_env(4);
    let graph = figure1_graph(&env);
    let query = "MATCH (p1:Person)-[s:studyAt]->(u:University), \
                       (p2:Person)-[:studyAt]->(u), \
                       (p1)-[e:knows*1..3]->(p2) \
                 WHERE p1.gender <> p2.gender \
                   AND u.name = 'Uni Leipzig' \
                   AND s.classYear > 2014 \
                 RETURN *";
    // Students at Uni Leipzig: Alice (female, 2015), Bob (male, 2016);
    // gender differs both ways. Paths within 3 hops:
    //   Alice ->5 Eve ->7 Bob                 (2 hops)
    //   Bob ->8 Alice                         (1 hop)
    //   Bob ->8 Alice ->5 Eve ->6 Alice       (3 hops, revisits Alice)
    // The last one is only valid under homomorphic vertex semantics.
    assert_eq!(count(&graph, query, MatchingConfig::cypher_default()), 3);
    assert_eq!(count(&graph, query, MatchingConfig::isomorphism()), 2);
}

#[test]
fn morphism_semantics_change_result_counts() {
    let env = test_env(2);
    let graph = figure1_graph(&env);
    // Two-hop friend-of-friend: under HOMO vertices, p3 may equal p1
    // (Alice -> Eve -> Alice), under ISO it may not.
    let query = "MATCH (p1:Person)-[:knows]->(p2:Person)-[:knows]->(p3:Person) RETURN *";
    let homo = count(&graph, query, MatchingConfig::homomorphism());
    let iso = count(&graph, query, MatchingConfig::isomorphism());
    assert!(homo > iso, "homo {homo} vs iso {iso}");
    // Reference matcher agrees on both counts.
    let ast = parse(query).unwrap();
    let qg = QueryGraph::from_query(&ast).unwrap();
    assert_eq!(
        reference_match(&graph, &qg, &MatchingConfig::homomorphism()).len(),
        homo
    );
    assert_eq!(
        reference_match(&graph, &qg, &MatchingConfig::isomorphism()).len(),
        iso
    );
}

#[test]
fn tabular_result_matches_table_2a() {
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let engine = CypherEngine::for_graph(&graph);
    let result = engine
        .execute(
            &graph,
            "MATCH (p1:Person)-[s:studyAt]->(u:University) \
             WHERE s.classYear > 2014 RETURN p1.name, u.name",
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        )
        .unwrap();
    let table = result.rows().expect("rows");
    assert_eq!(table.columns, vec!["p1.name", "u.name"]);
    let mut rows: Vec<(String, String)> = table
        .rows
        .iter()
        .map(|row| {
            let name = |v: &Value| match v {
                Value::Str(s) => s.clone(),
                other => panic!("{other:?}"),
            };
            (name(&row[0]), name(&row[1]))
        })
        .collect();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            ("Alice".to_string(), "Uni Leipzig".to_string()),
            ("Bob".to_string(), "Uni Leipzig".to_string()),
        ]
    );
}

#[test]
fn graph_collection_output_supports_post_processing() {
    // Def. 2.4: the operator returns logical graphs that are added to the
    // collection; bindings are head properties, so the heads can be filtered.
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let matches = graph
        .cypher(
            "MATCH (p:Person)-[s:studyAt]->(u:University) RETURN p.name, s.classYear",
            MatchingConfig::cypher_default(),
        )
        .unwrap();
    assert_eq!(matches.graph_count(), 2);
    // Post-process on the head properties: only 2016 enrolments.
    let mut selected: Vec<GraphHead> = matches
        .heads()
        .collect()
        .into_iter()
        .filter(|head| {
            head.properties
                .get("s.classYear")
                .and_then(|v| v.as_i64())
                .is_some_and(|year| year >= 2016)
        })
        .collect();
    assert_eq!(selected.len(), 1);
    let head = selected.pop().unwrap();
    assert_eq!(
        head.properties.get("p.name"),
        Some(&PropertyValue::String("Bob".into()))
    );
}

#[test]
fn variable_length_zero_bound_matches_message_itself() {
    // Q2-style pattern: replyOf*0..N must treat a post as its own thread
    // root (zero-length path).
    let env = test_env(2);
    let vertices = vec![
        Vertex::new(GradoopId(1), "Post", properties! {"content" => "root"}),
        Vertex::new(GradoopId(2), "Comment", properties! {"content" => "reply"}),
    ];
    let edges = vec![Edge::new(
        GradoopId(10),
        "replyOf",
        GradoopId(2),
        GradoopId(1),
        Properties::new(),
    )];
    let graph = LogicalGraph::from_data(
        &env,
        GraphHead::new(GradoopId(100), "g", Properties::new()),
        vertices,
        edges,
    );
    let query = "MATCH (m:Comment|Post)-[:replyOf*0..10]->(p:Post) RETURN *";
    // Matches: (m=post, empty path, p=post) and (m=comment, 1 hop, p=post).
    assert_eq!(count(&graph, query, MatchingConfig::cypher_default()), 2);
}

#[test]
fn undirected_patterns_match_both_orientations() {
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let directed = count(
        &graph,
        "MATCH (a:Person {name: 'Bob'})-[e:knows]->(b:Person) RETURN *",
        MatchingConfig::cypher_default(),
    );
    let undirected = count(
        &graph,
        "MATCH (a:Person {name: 'Bob'})-[e:knows]-(b:Person) RETURN *",
        MatchingConfig::cypher_default(),
    );
    assert_eq!(directed, 1); // Bob -> Alice
    assert_eq!(undirected, 2); // plus Eve -> Bob seen from Bob
}

#[test]
fn query_plans_are_explainable() {
    let env = test_env(2);
    let graph = figure1_graph(&env);
    let engine = CypherEngine::for_graph(&graph);
    let explain = engine
        .explain(
            "MATCH (p1:Person)-[s:studyAt]->(u:University) \
             WHERE u.name = 'Uni Leipzig' RETURN p1.name",
        )
        .unwrap();
    let text = explain.root.to_text();
    assert!(text.contains("ScanVertices(u:University)"), "{text}");
    assert!(text.contains("JoinEmbeddings"), "{text}");
    assert!(explain.estimated_cardinality > 0.0);
}

#[test]
fn engine_works_on_every_worker_count() {
    for workers in [1, 2, 3, 5, 8] {
        let env = test_env(workers);
        let graph = figure1_graph(&env);
        assert_eq!(
            count(
                &graph,
                "MATCH (a:Person)-[:knows]->(b:Person) RETURN *",
                MatchingConfig::cypher_default()
            ),
            4,
            "workers = {workers}"
        );
    }
}

#[test]
fn simulated_clock_advances_during_queries() {
    let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4));
    let graph = figure1_graph(&env);
    env.reset_metrics();
    let _ = count(
        &graph,
        "MATCH (a:Person)-[:knows]->(b:Person) RETURN *",
        MatchingConfig::cypher_default(),
    );
    let metrics = env.metrics();
    assert!(metrics.simulated_seconds > 0.0);
    assert!(metrics.stages > 0);
    assert!(metrics.records_in > 0);
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
