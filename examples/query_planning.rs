//! Inside the greedy cost-based planner (paper Section 3.2): show the graph
//! statistics the planner consumes and the bushy plans it produces — and
//! how a selective predicate changes the chosen operator order.
//!
//! ```sh
//! cargo run --release --example query_planning
//! ```

use gradoop::prelude::*;

fn explain(engine: &CypherEngine, title: &str, query: &str) {
    let explain = engine
        .explain(query)
        .unwrap_or_else(|e| panic!("{title}: {e}"));
    println!("--- {title}\n{query}\n\n{}", explain.root.to_text());
}

fn main() {
    let env = ExecutionEnvironment::with_workers(4);
    let graph = generate_graph(&env, &LdbcConfig::tiny());
    let engine = CypherEngine::for_graph(&graph);

    // The statistics the paper's planner uses (Section 3.2).
    let stats = engine.statistics();
    println!("planner statistics:");
    println!("  vertices: {}", stats.vertex_count);
    println!("  edges:    {}", stats.edge_count);
    let mut labels: Vec<(String, u64)> = stats
        .vertex_count_by_label
        .iter()
        .map(|(l, c)| (l.to_string(), *c))
        .collect();
    labels.sort();
    for (label, count) in labels {
        println!("  vertex label {label:12} x{count}");
    }
    println!(
        "  distinct knows sources: {}",
        stats.distinct_sources(Some(&Label::new("knows")))
    );
    println!(
        "  distinct Person.firstName values: {:?}",
        stats.distinct_vertex_values(&Label::new("Person"), "firstName")
    );
    println!();

    // Without a selective predicate, the plan starts from label counts.
    explain(
        &engine,
        "unselective two-hop query",
        "MATCH (p:Person)-[:isLocatedIn]->(c:City), (p)-[:studyAt]->(u:University) RETURN *",
    );

    // With an equality on a (label, key) pair the planner knows the
    // distinct-value count for, the cheap side moves to the bottom.
    explain(
        &engine,
        "selective firstName predicate",
        "MATCH (p:Person)-[:isLocatedIn]->(c:City), (p)-[:studyAt]->(u:University) \
         WHERE p.firstName = 'Zelda' RETURN *",
    );

    // Variable-length path expressions become ExpandEmbeddings nodes.
    explain(
        &engine,
        "variable-length friendships",
        "MATCH (a:Person)-[e:knows*1..3]->(b:Person) WHERE a.firstName = 'Zelda' RETURN *",
    );

    // The triangle query: the last edge joins on two bound variables.
    explain(
        &engine,
        "triangle (paper Query 5)",
        &BenchmarkQuery::Q5.text(None),
    );
}
