//! Clause pipelines read the shared graph in place, as allocation counts.
//!
//! * A pipeline run resolves labels and properties through the graph's
//!   element index, built once per graph: after a warm-up run it allocates
//!   the same whether or not the graph holds 1 000 more vertices and edges
//!   that the query never reads. A per-query copy of the graph would cost
//!   several allocations per element.
//! * The `ORDER BY` comparator reads named columns by reference: comparing
//!   rows on string columns allocates nothing.
//! * Clause-table joins, grouping and `DISTINCT` key on typed values, not
//!   on rendered strings: a pipeline allocates the same whether its ids
//!   have 1 or 16 digits and its grouped names 3 or 30 bytes.
//! * A plan-cache hit allocates nothing: the borrowed shape probes the map
//!   and the stored signature is compared with the query graph in place.
//!
//! The engine runs on a one-worker environment, so every stage's task runs
//! inline on this thread and the per-thread counter (`counting/mod.rs`)
//! sees all of it.

use std::collections::HashMap;
use std::hint::black_box;

use gradoop_core::{
    compare_rows_by_keys, plan_query, CypherEngine, Estimator, MatchingConfig, PlanCache, PlanMode,
    Value,
};
use gradoop_cypher::ast::{SortKey, SortRef};
use gradoop_cypher::QueryGraph;
use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
use gradoop_epgm::{
    properties, Edge, ElementIndex, GradoopId, GraphHead, IndexedLogicalGraph, LogicalGraph,
    Properties, Vertex,
};

mod counting;
use counting::{allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// 64 persons in a ring of `knows` edges, every fourth one studying at one
/// university; with `unread`, also 1 000 tags and 1 000 edges between them,
/// each carrying a string property.
fn graph(unread: bool) -> IndexedLogicalGraph {
    const PERSONS: u64 = 64;
    let env =
        ExecutionEnvironment::new(ExecutionConfig::with_workers(1).cost_model(CostModel::free()));
    let mut vertices: Vec<Vertex> = (0..PERSONS)
        .map(|i| {
            let name = format!("person {i:02}");
            Vertex::new(GradoopId(i), "Person", properties! {"name" => name})
        })
        .collect();
    vertices.push(Vertex::new(
        GradoopId(PERSONS),
        "University",
        properties! {"name" => "Uni Leipzig"},
    ));
    let mut edges: Vec<Edge> = (0..PERSONS)
        .map(|i| {
            let (source, target) = (GradoopId(i), GradoopId((i + 1) % PERSONS));
            Edge::new(
                GradoopId(1_000 + i),
                "knows",
                source,
                target,
                Properties::new(),
            )
        })
        .chain((0..PERSONS).step_by(4).map(|i| {
            let (source, target) = (GradoopId(i), GradoopId(PERSONS));
            Edge::new(
                GradoopId(2_000 + i),
                "studyAt",
                source,
                target,
                Properties::new(),
            )
        }))
        .collect();
    if unread {
        for i in 0..1_000 {
            let label = format!("tag {i:04}");
            vertices.push(Vertex::new(
                GradoopId(10_000 + i),
                "Tag",
                properties! {"name" => label},
            ));
            let (source, target) = (GradoopId(10_000 + i), GradoopId(10_000 + (i + 1) % 1_000));
            let note = format!("related {i:04}");
            edges.push(Edge::new(
                GradoopId(20_000 + i),
                "relatedTo",
                source,
                target,
                properties! {"note" => note},
            ));
        }
    }
    let head = GraphHead::new(GradoopId(100_000), "g", Properties::new());
    LogicalGraph::from_data(&env, head, vertices, edges).to_indexed()
}

#[test]
fn a_pipeline_run_costs_the_same_however_much_of_the_graph_it_does_not_read() {
    const TEXT: &str = "MATCH (a:Person)-[:knows]->(b:Person) WITH a, count(*) AS degree \
                        OPTIONAL MATCH (a)-[:studyAt]->(u:University) \
                        RETURN a.name, degree, u.name ORDER BY u.name, a.name LIMIT 10";
    let (small, large) = (graph(false), graph(true));
    // One engine, so both graphs get the same plans.
    let engine = CypherEngine::for_graph(small.graph());
    let run = |graph: &IndexedLogicalGraph| {
        let before = allocations();
        let table = black_box(
            engine
                .run(
                    graph,
                    TEXT,
                    &HashMap::new(),
                    MatchingConfig::cypher_default(),
                )
                .unwrap(),
        );
        let spent = allocations() - before;
        assert_eq!(table.rows.len(), 10);
        assert_eq!(table.rows[0][2], Value::Str("Uni Leipzig".into()));
        spent
    };
    // The first runs also start the worker pool and build each graph's
    // element index.
    run(&small);
    run(&large);
    assert_eq!(run(&large), run(&small));
}

#[test]
fn comparing_rows_on_named_string_columns_allocates_nothing() {
    let columns = ["city".to_string(), "family".to_string()];
    let keys = [
        SortKey {
            expr: SortRef::Name("city".into()),
            descending: false,
        },
        SortKey {
            expr: SortRef::Name("family".into()),
            descending: true,
        },
    ];
    let a = [Value::Str("Leipzig".into()), Value::Str("Schmidt".into())];
    let b = [Value::Str("Leipzig".into()), Value::Str("Meier".into())];
    let index = ElementIndex::default();
    let before = allocations();
    for _ in 0..1_000 {
        black_box(compare_rows_by_keys(
            &keys,
            &columns,
            &index,
            black_box(&a),
            black_box(&b),
        ));
    }
    assert_eq!(allocations() - before, 0);
}

/// Five persons in a ring of `knows` edges. `wide` gives every id 16
/// digits instead of 1 and every name 30 bytes instead of 3; nothing else
/// differs.
fn ring(wide: bool) -> LogicalGraph {
    const PERSONS: u64 = 5;
    let base = if wide { 1_000_000_000_000_000 } else { 0 };
    let env =
        ExecutionEnvironment::new(ExecutionConfig::with_workers(1).cost_model(CostModel::free()));
    let vertices: Vec<Vertex> = (0..PERSONS)
        .map(|i| {
            let name = if wide {
                format!("p{i:029}")
            } else {
                format!("p{i:02}")
            };
            Vertex::new(GradoopId(base + i), "Person", properties! {"name" => name})
        })
        .collect();
    let edges: Vec<Edge> = (0..PERSONS)
        .map(|i| {
            Edge::new(
                GradoopId(base + PERSONS + i),
                "knows",
                GradoopId(base + i),
                GradoopId(base + (i + 1) % PERSONS),
                Properties::new(),
            )
        })
        .collect();
    let head = GraphHead::new(GradoopId(100), "g", Properties::new());
    LogicalGraph::from_data(&env, head, vertices, edges)
}

#[test]
fn clause_table_keys_cost_the_same_however_wide_the_key_values() {
    const TEXT: &str = "MATCH (a:Person)-[:knows]->(b:Person) MATCH (b)-[:knows]->(c:Person) \
                        WITH c.name AS name, count(*) AS paths RETURN DISTINCT name, paths";
    let (narrow, wide) = (ring(false), ring(true));
    let engine = CypherEngine::for_graph(&narrow);
    let run = |graph: &LogicalGraph| {
        let before = allocations();
        let table = black_box(
            engine
                .run(
                    graph,
                    TEXT,
                    &HashMap::new(),
                    MatchingConfig::cypher_default(),
                )
                .unwrap(),
        );
        let spent = allocations() - before;
        assert_eq!(table.rows.len(), 5);
        assert!(table.rows.iter().all(|row| row[1] == Value::Int(1)));
        spent
    };
    // The first runs also start the worker pool and build each graph's
    // element index.
    run(&narrow);
    run(&wide);
    assert_eq!(run(&wide), run(&narrow));
}

#[test]
fn a_plan_cache_hit_allocates_nothing() {
    const SHAPE: &str = "MATCH (a:Person)-[:knows]->(b:Person) WHERE a.name = ? RETURN b.name\n0";
    let query_for = |name: &str| {
        let text =
            format!("MATCH (a:Person)-[:knows]->(b:Person) WHERE a.name = '{name}' RETURN b.name");
        QueryGraph::from_query(&gradoop_cypher::parse(&text).unwrap()).unwrap()
    };
    let statistics = gradoop_epgm::GraphStatistics::of(&ring(false));
    let planned = query_for("p00");
    let plan = plan_query(&planned, &Estimator::new(&statistics)).unwrap();
    let cache = PlanCache::default();
    cache.insert(
        SHAPE.to_string(),
        PlanMode::CostBased,
        &planned,
        plan.into(),
    );
    let query = query_for("p01");
    let before = allocations();
    let hit = black_box(cache.lookup(black_box(SHAPE), PlanMode::CostBased, &query));
    assert_eq!(allocations() - before, 0);
    assert!(hit.is_some());
    assert_eq!(cache.stats().hits, 1);
}
