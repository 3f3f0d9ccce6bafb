//! The paper's Figure 1 example graph — a five-vertex social network with
//! `knows`, `studyAt` and `locatedIn` edges — and the example queries run
//! against it by `repro --trace-out` and the telemetry tests.

use gradoop_dataflow::ExecutionEnvironment;
use gradoop_epgm::{properties, Edge, GradoopId, GraphHead, LogicalGraph, Properties, Vertex};

/// The example queries over the Figure 1 graph: a one-hop join, a
/// predicate-filtered join, a variable-length expansion, and a
/// cross-variable predicate.
pub const FIGURE1_QUERIES: [&str; 4] = [
    "MATCH (a:Person)-[e:knows]->(b:Person) RETURN *",
    "MATCH (p:Person)-[s:studyAt]->(u:University) WHERE s.classYear > 2015 RETURN *",
    "MATCH (a:Person)-[e:knows*1..2]->(b:Person) RETURN *",
    "MATCH (p1:Person)-[:knows]->(p2:Person) WHERE p1.gender <> p2.gender RETURN *",
];

/// Builds the Figure 1 community graph on `env`.
pub fn figure1_graph(env: &ExecutionEnvironment) -> LogicalGraph {
    let person = |id: u64, name: &str, gender: &str| {
        Vertex::new(
            GradoopId(id),
            "Person",
            properties! {"name" => name, "gender" => gender},
        )
    };
    let vertices = vec![
        person(10, "Alice", "female"),
        person(20, "Eve", "female"),
        person(30, "Bob", "male"),
        Vertex::new(
            GradoopId(40),
            "University",
            properties! {"name" => "Uni Leipzig"},
        ),
        Vertex::new(GradoopId(50), "City", properties! {"name" => "Leipzig"}),
    ];
    let knows = |id: u64, source: u64, target: u64| {
        Edge::new(
            GradoopId(id),
            "knows",
            GradoopId(source),
            GradoopId(target),
            Properties::new(),
        )
    };
    let edges = vec![
        knows(5, 10, 20),
        knows(6, 20, 10),
        knows(7, 20, 30),
        knows(8, 30, 10),
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
        Edge::new(
            GradoopId(3),
            "locatedIn",
            GradoopId(10),
            GradoopId(50),
            Properties::new(),
        ),
        Edge::new(
            GradoopId(4),
            "locatedIn",
            GradoopId(40),
            GradoopId(50),
            Properties::new(),
        ),
    ];
    LogicalGraph::from_data(
        env,
        GraphHead::new(
            GradoopId(100),
            "Community",
            properties! {"area" => "Leipzig"},
        ),
        vertices,
        edges,
    )
}
