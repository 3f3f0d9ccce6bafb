//! Front-end fuzz past the parser: arbitrary texts, weighted toward whole
//! clauses, go through `CypherEngine::explain_with_params` over a small
//! labelled graph's statistics. Every text must answer `Ok` or a classified
//! `CypherError` — never a panic — so query-graph construction and the
//! planner see the same hostile inputs the lexer and parser do
//! (`crates/cypher/tests/parser_property.rs`, which cannot reach the
//! planner from its crate).

use std::collections::HashMap;

use gradoop_core::{CypherEngine, CypherError};
use gradoop_cypher::Literal;
use gradoop_dataflow::ExecutionEnvironment;
use gradoop_epgm::{
    properties, Edge, GradoopId, GraphHead, GraphStatistics, LogicalGraph, Properties, Vertex,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const CASES: u32 = 20_000;

/// Texts of the 20 000 that must get past parsing and query-graph
/// construction into the planner (`Ok` or a `PlanError`). 7 372 do; the
/// floor keeps the property from passing on texts that all fail early.
const PLANNED_FLOOR: usize = 7_000;

/// `arbitrary_text`'s alphabet from the parser property test: runs of
/// characters the lexer gives a meaning to, multi-byte characters and
/// whole fragments.
fn fragment() -> BoxedStrategy<String> {
    prop_oneof![
        "[ \n\ta-fA-F_0-9'\"`$/\\.,:;|*<>=(){}[+^?!é€𝔸-]{0,8}",
        Just("]".to_string()),
        Just("12345678901234567890".to_string()),
        Just("// comment\n".to_string()),
        Just(" UNWIND [1, 'x', .5] AS v WITH v OPTIONAL MATCH".to_string()),
        reading_clause(),
        middle_clause(),
        return_clause(),
    ]
    .boxed()
}

fn reading_clause() -> BoxedStrategy<String> {
    prop_oneof![
        Just("MATCH (a:A)-[e:x*1..2]->(b {p: 1e9})".to_string()),
        Just("MATCH (a:A)-[e:x]->(b:B)".to_string()),
        Just("MATCH (b)<-[f:y]-(c:A|B), (c)-[:x]-(a)".to_string()),
    ]
    .boxed()
}

fn middle_clause() -> BoxedStrategy<String> {
    prop_oneof![
        Just(" WHERE a.p <> $p AND NOT b.q IS NULL".to_string()),
        Just(" WHERE a.p > 1 OR b.q = 'x'".to_string()),
        Just(" WITH a, b, count(*) AS n".to_string()),
        Just(" OPTIONAL MATCH (b)-[g:y]->(d)".to_string()),
        Just(" UNWIND [1, 'x', NULL] AS v".to_string()),
    ]
    .boxed()
}

fn return_clause() -> BoxedStrategy<String> {
    prop_oneof![
        Just(" RETURN *".to_string()),
        Just(" RETURN a.p, b".to_string()),
        Just(" RETURN DISTINCT a.p AS p, count(*) ORDER BY p SKIP 1 LIMIT 2".to_string()),
    ]
    .boxed()
}

/// Texts weighted toward whole clauses: a reading clause first and a
/// `RETURN` last three times in four, any fragments between.
fn clause_text() -> impl Strategy<Value = String> {
    let head = prop_oneof![
        reading_clause(),
        reading_clause(),
        reading_clause(),
        fragment()
    ];
    let tail = prop_oneof![
        return_clause(),
        return_clause(),
        return_clause(),
        fragment()
    ];
    let middle = proptest::collection::vec(prop_oneof![middle_clause(), fragment()], 0..4);
    (head, middle, tail).prop_map(|(head, middle, tail)| head + &middle.concat() + &tail)
}

/// Two `A`s and a `B` with `x` and `y` edges between them.
fn graph() -> LogicalGraph {
    let env = ExecutionEnvironment::with_workers(2);
    let vertices = vec![
        Vertex::new(GradoopId(1), "A", properties! {"p" => 1i32}),
        Vertex::new(GradoopId(2), "A", properties! {"q" => "x"}),
        Vertex::new(GradoopId(3), "B", properties! {"p" => 2i32}),
    ];
    let edge = |id, label, source, target| {
        Edge::new(
            GradoopId(id),
            label,
            GradoopId(source),
            GradoopId(target),
            Properties::new(),
        )
    };
    let edges = vec![
        edge(10, "x", 1, 2),
        edge(11, "x", 2, 3),
        edge(12, "y", 3, 1),
        edge(13, "y", 1, 3),
    ];
    let head = GraphHead::new(GradoopId(100), "g", Properties::new());
    LogicalGraph::from_data(&env, head, vertices, edges)
}

#[test]
fn no_text_panics_the_planner() {
    let engine = CypherEngine::with_statistics(GraphStatistics::of(&graph()));
    let params = HashMap::from([("p".to_string(), Literal::Integer(1))]);
    let strategy = clause_text();
    let mut planned = 0;
    for case in 0..CASES {
        let text = strategy.gen_value(&mut TestRng::for_case(case));
        match engine.explain_with_params(&text, &params) {
            Ok(_) | Err(CypherError::Plan(_)) => planned += 1,
            Err(CypherError::Parse(_) | CypherError::QueryGraph(_)) => {}
            Err(error @ CypherError::Execution(_)) => {
                panic!("EXPLAIN executed something: {error} for {text:?}")
            }
        }
    }
    assert!(
        planned >= PLANNED_FLOOR,
        "only {planned} of {CASES} texts reached the planner"
    );
}
