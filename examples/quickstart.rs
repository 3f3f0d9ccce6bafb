//! Quickstart: build a small property graph, run the Cypher pattern
//! matching operator, inspect results as a table and as a graph collection.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::collections::HashMap;

use gradoop::prelude::*;

fn main() {
    // A simulated 4-worker cluster. Every dataset is partitioned over the
    // workers and every transformation is charged against a simulated
    // clock modelled after the paper's testbed.
    let env = ExecutionEnvironment::with_workers(4);

    // The social network of the paper's Figure 1 (abridged): one logical
    // graph with persons, a university and friendships.
    let person = |id: u64, name: &str, gender: &str| {
        Vertex::new(
            GradoopId(id),
            "Person",
            properties! {"name" => name, "gender" => gender},
        )
    };
    let graph = LogicalGraph::from_data(
        &env,
        GraphHead::new(
            GradoopId(100),
            "Community",
            properties! {"area" => "Leipzig"},
        ),
        vec![
            person(10, "Alice", "female"),
            person(20, "Eve", "female"),
            person(30, "Bob", "male"),
            Vertex::new(
                GradoopId(40),
                "University",
                properties! {"name" => "Uni Leipzig"},
            ),
        ],
        vec![
            Edge::new(
                GradoopId(5),
                "knows",
                GradoopId(10),
                GradoopId(20),
                Properties::new(),
            ),
            Edge::new(
                GradoopId(6),
                "knows",
                GradoopId(20),
                GradoopId(10),
                Properties::new(),
            ),
            Edge::new(
                GradoopId(7),
                "knows",
                GradoopId(20),
                GradoopId(30),
                Properties::new(),
            ),
            Edge::new(
                GradoopId(1),
                "studyAt",
                GradoopId(10),
                GradoopId(40),
                properties! {"classYear" => 2015i64},
            ),
            Edge::new(
                GradoopId(2),
                "studyAt",
                GradoopId(30),
                GradoopId(40),
                properties! {"classYear" => 2016i64},
            ),
        ],
    );

    // The example query of the paper (Section 2.3): pairs of persons who
    // study at Uni Leipzig, have different genders and know each other
    // directly or transitively by at most three friendships.
    let query = "MATCH (p1:Person)-[s:studyAt]->(u:University), \
                       (p2:Person)-[:studyAt]->(u), \
                       (p1)-[e:knows*1..3]->(p2) \
                 WHERE p1.gender <> p2.gender \
                   AND u.name = 'Uni Leipzig' \
                   AND s.classYear > 2014 \
                 RETURN p1.name, p2.name";

    // Tabular access (paper Table 2): engine + rows.
    let engine = CypherEngine::for_graph(&graph);
    let result = engine
        .execute(
            &graph,
            query,
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        )
        .expect("query executes");
    println!(
        "query plan:\n{}",
        result.plan.root.explain(&result.query).to_text()
    );
    println!("{} match(es):", result.count());
    let table = result.rows().expect("rows materialize");
    for row in &table.rows {
        let cells: Vec<String> = table
            .columns
            .iter()
            .zip(row)
            .map(|(name, value)| format!("{name}={value:?}"))
            .collect();
        println!("  {}", cells.join(", "));
    }

    // EPGM access (Definition 2.4): the operator returns a collection of
    // logical graphs with bindings attached as graph-head properties.
    let matches = graph
        .cypher(query, MatchingConfig::cypher_default())
        .expect("query executes");
    println!(
        "\nas a graph collection: {} logical graph(s)",
        matches.graph_count()
    );

    // The simulated cluster reports what the execution cost.
    let metrics = env.metrics();
    println!(
        "\nsimulated execution: {:.3}s over {} stages, {} records, {} bytes shuffled",
        metrics.simulated_seconds, metrics.stages, metrics.records_in, metrics.bytes_shuffled
    );
}
