//! Integration tests for the Cypher feature extensions beyond the paper's
//! six queries: `IS [NOT] NULL`, `RETURN DISTINCT`, parameters, aliases.

mod common;

use std::collections::HashMap;

use common::test_env;
use gradoop::core::{cmp_values, reference_pipeline, RowKey};
use gradoop::cypher::parse_pipeline;
use gradoop::prelude::*;

fn people_graph(env: &ExecutionEnvironment) -> LogicalGraph {
    // Alice and Eve share a city; Bob has no city property at all.
    let vertices = vec![
        Vertex::new(
            GradoopId(1),
            "Person",
            properties! {"name" => "Alice", "city" => "Leipzig"},
        ),
        Vertex::new(
            GradoopId(2),
            "Person",
            properties! {"name" => "Eve", "city" => "Leipzig"},
        ),
        Vertex::new(GradoopId(3), "Person", properties! {"name" => "Bob"}),
    ];
    let edges = vec![
        Edge::new(
            GradoopId(10),
            "knows",
            GradoopId(1),
            GradoopId(2),
            Properties::new(),
        ),
        Edge::new(
            GradoopId(11),
            "knows",
            GradoopId(1),
            GradoopId(3),
            Properties::new(),
        ),
        Edge::new(
            GradoopId(12),
            "knows",
            GradoopId(2),
            GradoopId(3),
            Properties::new(),
        ),
    ];
    LogicalGraph::from_data(
        env,
        GraphHead::new(GradoopId(100), "g", Properties::new()),
        vertices,
        edges,
    )
}

fn run(graph: &LogicalGraph, query: &str) -> QueryResult {
    CypherEngine::for_graph(graph)
        .execute(
            graph,
            query,
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        )
        .unwrap_or_else(|e| panic!("{query}: {e}"))
}

/// `RETURN DISTINCT` is a table operation: it is answered by `run`.
fn table(graph: &LogicalGraph, query: &str) -> TableResult {
    CypherEngine::for_graph(graph)
        .run(
            graph,
            query,
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        )
        .unwrap_or_else(|e| panic!("{query}: {e}"))
}

#[test]
fn is_null_finds_missing_properties() {
    let env = test_env(2);
    let graph = people_graph(&env);
    let result = run(
        &graph,
        "MATCH (p:Person) WHERE p.city IS NULL RETURN p.name",
    );
    assert_eq!(result.count(), 1);
    let table = result.rows().expect("rows");
    assert_eq!(table.columns, vec!["p.name"]);
    assert_eq!(table.rows[0][0], Value::Str("Bob".into()));
}

#[test]
fn is_not_null_excludes_missing_properties() {
    let env = test_env(2);
    let graph = people_graph(&env);
    let result = run(&graph, "MATCH (p:Person) WHERE p.city IS NOT NULL RETURN *");
    assert_eq!(result.count(), 2);
}

#[test]
fn is_null_composes_with_negation() {
    let env = test_env(2);
    let graph = people_graph(&env);
    // NOT (p.city IS NULL) == p.city IS NOT NULL.
    let negated = run(&graph, "MATCH (p:Person) WHERE NOT p.city IS NULL RETURN *");
    let positive = run(&graph, "MATCH (p:Person) WHERE p.city IS NOT NULL RETURN *");
    assert_eq!(negated.count(), positive.count());
}

#[test]
fn return_distinct_deduplicates_rows() {
    let env = test_env(2);
    let graph = people_graph(&env);
    // Three knows-edges, but only two distinct source cities (Leipzig from
    // Alice and Eve; Bob is a target only).
    let all = run(
        &graph,
        "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a.city",
    );
    assert_eq!(all.count(), 3);
    let distinct = table(
        &graph,
        "MATCH (a:Person)-[e:knows]->(b:Person) RETURN DISTINCT a.city",
    );
    assert_eq!(distinct.rows.len(), 1, "Leipzig twice collapses to one row");

    // Distinct over a variable keeps one row per bound element.
    let sources = table(
        &graph,
        "MATCH (a:Person)-[e:knows]->(b:Person) RETURN DISTINCT a",
    );
    assert_eq!(sources.rows.len(), 2); // Alice and Eve
}

#[test]
fn return_distinct_rows_are_usable() {
    let env = test_env(2);
    let graph = people_graph(&env);
    let table = table(
        &graph,
        "MATCH (a:Person)-[e:knows]->(b:Person) RETURN DISTINCT b.name",
    );
    assert_eq!(table.columns, vec!["b.name"]);
    let mut names: Vec<String> = table
        .rows
        .iter()
        .map(|row| match &row[0] {
            Value::Str(s) => s.clone(),
            other => panic!("{other:?}"),
        })
        .collect();
    names.sort();
    assert_eq!(names, vec!["Bob", "Eve"]);
}

#[test]
fn distinct_count_star_counts_matches() {
    let env = test_env(2);
    let graph = people_graph(&env);
    // count(*) is unaffected by DISTINCT (documented behaviour).
    let result = run(
        &graph,
        "MATCH (a:Person)-[e:knows]->(b:Person) RETURN count(*)",
    );
    assert_eq!(result.rows().expect("rows").rows, vec![vec![Value::Int(3)]]);
}

#[test]
fn aliases_rename_result_columns() {
    let env = test_env(2);
    let graph = people_graph(&env);
    let result = run(
        &graph,
        "MATCH (p:Person {name: 'Alice'}) RETURN p.name AS who",
    );
    let table = result.rows().expect("rows");
    assert!(table.columns.contains(&"who".to_string()));
    assert!(!table.columns.contains(&"p.name".to_string()));
}

#[test]
fn is_null_on_path_variables_is_rejected_gracefully() {
    // `e IS NULL` on a bound edge variable is simply false — never a crash.
    let env = test_env(2);
    let graph = people_graph(&env);
    let result = run(
        &graph,
        "MATCH (a:Person)-[e:knows]->(b:Person) WHERE e IS NULL RETURN *",
    );
    assert_eq!(result.count(), 0);
    let result = run(
        &graph,
        "MATCH (a:Person)-[e:knows]->(b:Person) WHERE e IS NOT NULL RETURN *",
    );
    assert_eq!(result.count(), 3);
}

/// `text`'s table from `CypherEngine::run` and from `reference_pipeline`,
/// rows as keys: the two executors may pick different but equal
/// representatives (`2` and `2.0`).
fn both_executors(graph: &LogicalGraph, text: &str) -> (Vec<RowKey>, Vec<RowKey>) {
    let engine = table(graph, text);
    let pipeline = parse_pipeline(text).expect("parses");
    let reference = reference_pipeline(graph, &pipeline, &MatchingConfig::cypher_default())
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    let keys = |rows: Vec<Vec<Value>>| rows.into_iter().map(RowKey).collect();
    (keys(engine.rows), keys(reference.rows))
}

#[test]
fn order_by_is_a_total_order_where_floats_cannot_tell_integers_apart() {
    // 2^53 + 1 + 2k, (2^53 + 2k).0 and 2^53 + 2k for k in 0..4, interleaved
    // over 40 values: an `as f64` comparison makes 2^53 + 1 equal to 2^53.0
    // equal to 2^53 but greater than 2^53, which the sort rejects as no
    // total order.
    const TWO_53: i64 = 1 << 53;
    let items: Vec<String> = (0..40)
        .map(|i| {
            let k = 2 * (i % 4);
            match i % 3 {
                0 => (TWO_53 + 1 + k).to_string(),
                1 => format!("{}.0", TWO_53 + k),
                _ => (TWO_53 + k).to_string(),
            }
        })
        .collect();
    let text = format!("UNWIND [{}] AS x RETURN x ORDER BY x", items.join(", "));
    let env = test_env(2);
    let graph = people_graph(&env);
    let (engine, reference) = both_executors(&graph, &text);
    assert_eq!(engine.len(), 40);
    assert!(engine
        .windows(2)
        .all(|pair| cmp_values(&pair[0].0[0], &pair[1].0[0]).is_le()));
    assert_eq!(engine, reference);
}

#[test]
fn distinct_keeps_2_pow_63_apart_from_i64_max() {
    let env = test_env(2);
    let graph = people_graph(&env);
    let (engine, reference) = both_executors(
        &graph,
        "UNWIND [9223372036854775807, 9223372036854775808.0] AS x RETURN DISTINCT x",
    );
    assert_eq!((engine.len(), reference.len()), (2, 2));
}

#[test]
fn distinct_collapses_an_integer_and_its_exact_float() {
    let env = test_env(2);
    let graph = people_graph(&env);
    let (engine, reference) = both_executors(
        &graph,
        "UNWIND [9007199254740992, 9007199254740992.0] AS x RETURN DISTINCT x",
    );
    assert_eq!((engine.len(), reference.len()), (1, 1));
}
