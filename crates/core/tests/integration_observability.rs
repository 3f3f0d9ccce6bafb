//! End-to-end observability tests on the paper's Figure 1 sample graph:
//! `PROFILE` must report the actual per-operator cardinalities, `EXPLAIN`
//! must report the join strategies the executor would choose from the
//! estimates, and a run's totals must count that run's stages only.

use std::collections::HashMap;
use std::sync::Arc;

use gradoop_core::{
    choose_join_strategy, ship_strategies, CypherEngine, MatchingConfig, MemoryQueryLog, Profile,
    ShipStrategy,
};
use gradoop_dataflow::{CollectingSink, ExecutionConfig, ExecutionEnvironment};
use gradoop_epgm::{properties, Edge, GradoopId, GraphHead, LogicalGraph, Properties, Vertex};

/// The social-network sample of the paper's Figure 1 (simplified): persons
/// Alice, Eve and Bob, a university, three `knows` edges and two `studyAt`
/// edges. Runs on the default (cluster-calibrated) cost model so simulated
/// times are non-trivial.
fn figure1_graph() -> LogicalGraph {
    let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(2));
    let person =
        |id: u64, name: &str| Vertex::new(GradoopId(id), "Person", properties! {"name" => name});
    let knows = |id: u64, s: u64, t: u64| {
        Edge::new(
            GradoopId(id),
            "knows",
            GradoopId(s),
            GradoopId(t),
            Properties::new(),
        )
    };
    LogicalGraph::from_data(
        &env,
        GraphHead::new(GradoopId(100), "Community", Properties::new()),
        vec![
            person(10, "Alice"),
            person(20, "Eve"),
            person(30, "Bob"),
            Vertex::new(
                GradoopId(40),
                "University",
                properties! {"name" => "Uni Leipzig"},
            ),
        ],
        vec![
            knows(5, 10, 20),
            knows(6, 20, 10),
            knows(7, 20, 30),
            Edge::new(
                GradoopId(3),
                "studyAt",
                GradoopId(10),
                GradoopId(40),
                properties! {"classYear" => 2015i64},
            ),
            Edge::new(
                GradoopId(4),
                "studyAt",
                GradoopId(30),
                GradoopId(40),
                properties! {"classYear" => 2016i64},
            ),
        ],
    )
}

fn profile(graph: &LogicalGraph, text: &str) -> Profile {
    CypherEngine::for_graph(graph)
        .profile(
            graph,
            text,
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        )
        .expect("query profiles")
}

const TWO_HOP: &str = "MATCH (a:Person)-[e1:knows]->(b:Person)-[e2:knows]->(c:Person) RETURN *";

#[test]
fn profile_reports_actual_cardinalities_for_two_hop_query() {
    let graph = figure1_graph();
    let p = profile(&graph, TWO_HOP);

    // The Figure 1 graph has exactly three 2-hop knows-paths under Cypher
    // default morphism (edge isomorphism): 10→20→10, 10→20→30, 20→10→20.
    assert_eq!(p.matches, 3);
    assert_eq!(p.root.rows_out, 3);

    for node in p.root.pre_order() {
        // Every operator carries actual rows-in/rows-out, simulated time
        // and a computed estimate-vs-actual error.
        assert!(node.rows_in > 0, "{} saw no input", node.operator);
        assert!(
            node.metrics.simulated_seconds > 0.0,
            "{} has no cost",
            node.operator
        );
        assert!(node.wall_seconds >= 0.0);
        assert!(node.estimate_error >= 1.0, "q-error is clamped to >= 1");
        assert!(node.selectivity >= 0.0);
        // Inner joins consume exactly what their children produced.
        if node.operator.starts_with("JoinEmbeddings") {
            assert_eq!(node.children.len(), 2);
            assert_eq!(
                node.rows_in,
                node.children[0].rows_out + node.children[1].rows_out,
                "{} rows_in mismatch",
                node.operator
            );
            assert!(node.actual_strategy.is_some());
        }
    }
    // The per-operator counts sum to a non-trivial intermediate footprint.
    assert!(p.root.intermediate_rows() > 0);
    assert!(p.metrics.simulated_seconds > 0.0);

    // The leaf scans saw the real data: 3 Person vertices out of 4.
    let scans: Vec<_> = p
        .root
        .pre_order()
        .filter(|n| n.operator.starts_with("ScanVertices"))
        .collect();
    assert!(!scans.is_empty());
    for scan in scans {
        assert_eq!(scan.rows_out, 3, "three Person vertices match");
        assert!(scan.rows_in >= scan.rows_out);
    }
}

#[test]
fn profile_counts_studyat_predicate_match() {
    let graph = figure1_graph();
    let p = profile(
        &graph,
        "MATCH (p:Person)-[s:studyAt]->(u:University) WHERE s.classYear = 2015 RETURN *",
    );
    assert_eq!(p.matches, 1, "only Alice studies at Leipzig since 2015");
    assert_eq!(p.root.rows_out, 1);
}

#[test]
fn profile_records_variable_length_expansion_iterations() {
    let graph = figure1_graph();
    let p = profile(
        &graph,
        "MATCH (a:Person)-[e:knows*1..3]->(b:Person) RETURN *",
    );
    let expand = p
        .root
        .pre_order()
        .find(|n| n.operator.starts_with("ExpandEmbeddings"))
        .expect("plan contains an expand operator");
    assert!(
        !expand.iterations.is_empty(),
        "per-iteration counters recorded"
    );
    for (index, iteration) in expand.iterations.iter().enumerate() {
        assert_eq!(iteration.iteration, index as u64 + 1);
    }
    let emitted: u64 = expand.iterations.iter().map(|i| i.emitted_rows).sum();
    assert!(emitted > 0, "the expansion found paths");
}

#[test]
fn expansion_ships_candidate_edges_only_in_the_first_iteration() {
    let graph = figure1_graph();
    let p = profile(
        &graph,
        "MATCH (a:Person)-[e:knows*1..3]->(b:Person) RETURN *",
    );
    let expand = p
        .root
        .pre_order()
        .find(|n| n.operator.starts_with("ExpandEmbeddings"))
        .expect("plan contains an expand operator");
    assert!(
        expand.iterations.len() > 1,
        "upper bound 3 runs several supersteps"
    );
    // The candidate edge relation is loop-invariant: it is partitioned and
    // indexed once before the iteration, so only iteration 1 is charged for
    // shipping it. Later supersteps probe the cached index for free.
    assert!(
        expand.iterations[0].candidate_shuffled_bytes > 0,
        "building the candidate index ships the edge relation once"
    );
    for iteration in &expand.iterations[1..] {
        assert_eq!(
            iteration.candidate_shuffled_bytes, 0,
            "iteration {} re-shipped the loop-invariant candidates",
            iteration.iteration
        );
    }
}

#[test]
fn explain_reports_strategy_chosen_from_estimates() {
    let graph = figure1_graph();
    let engine = CypherEngine::for_graph(&graph);
    let explain = engine.explain(TWO_HOP).expect("query plans");

    // At least one binary join is predicted, every predicted join carries a
    // per-side ship annotation consistent with its strategy, and when
    // neither input is pre-partitioned on the key the strategy is exactly
    // what choose_join_strategy picks for the children's estimates.
    let strategies = explain.join_strategies();
    assert!(!strategies.is_empty(), "2-hop plan joins embeddings");
    for node in explain.root.pre_order() {
        if let Some(strategy) = node.estimated_strategy {
            assert_eq!(node.children.len(), 2);
            let ship = node
                .estimated_ship
                .unwrap_or_else(|| panic!("{} join lacks ship annotation", node.operator));
            // Forward on a repartition-join side means the planner predicts
            // that side is already placed on the key; re-deriving the ship
            // pair from the strategy and those flags must agree.
            let left_partitioned = ship[0] == ShipStrategy::Forward;
            let right_partitioned = ship[1] == ShipStrategy::Forward;
            assert_eq!(
                ship,
                ship_strategies(strategy, left_partitioned, right_partitioned),
                "{} ship annotation inconsistent with its strategy",
                node.operator
            );
            if ship == [ShipStrategy::Shuffle, ShipStrategy::Shuffle] {
                let expected = choose_join_strategy(
                    node.children[0].estimated_cardinality.max(0.0) as usize,
                    node.children[1].estimated_cardinality.max(0.0) as usize,
                    false,
                    false,
                );
                assert_eq!(strategy, expected, "{} strategy", node.operator);
            }
        }
    }

    // The planner decision log covers both edges of the pattern.
    assert_eq!(explain.planner.rounds.len(), 2);
    assert!(!explain.planner.rounds[0].candidates.is_empty());
}

#[test]
fn profile_restores_previously_installed_trace_sink() {
    let graph = figure1_graph();
    // Statistics are computed before the sink goes in, so everything the
    // sink sees below comes from the profiled query itself.
    let engine = CypherEngine::for_graph(&graph);
    let sink = Arc::new(CollectingSink::new());
    graph.env().set_trace_sink(Some(sink.clone()));
    let p = engine
        .profile(
            &graph,
            TWO_HOP,
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        )
        .expect("query profiles");
    assert_eq!(p.matches, 3);
    assert!(
        graph.env().trace_sink().is_some(),
        "profiling restores the caller's sink"
    );
    // PROFILE tees its collector in front of the caller's sink instead of
    // replacing it: a Chrome-trace export (or the server's deadline sink)
    // keeps seeing every stage and operator span while a query profiles.
    assert!(sink.stage_count() >= 1, "the caller's sink saw no stage");
    assert!(sink.span_count() >= 1, "the caller's sink saw no span");
    graph.env().set_trace_sink(None);
}

/// A run's totals count the stages that run submitted, not everything its
/// environment ever ran: a scan profiled after a join on the same
/// environment reports its own memory peak (none), as its query-log record
/// always did.
#[test]
fn profile_reports_the_run_peak_not_the_environment_peak() {
    let graph = figure1_graph();
    let log = Arc::new(MemoryQueryLog::new());
    let engine = CypherEngine::for_graph(&graph).with_query_log(log.clone());
    let profile = |text: &str| {
        engine
            .profile(
                &graph,
                text,
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .expect("query profiles")
    };

    let join = profile(TWO_HOP);
    assert!(
        join.metrics.peak_memory_bytes > 0,
        "the join builds a table"
    );
    let scan = profile("MATCH (a:Person) RETURN *");
    let records = log.snapshot();
    let scan_record = records.last().expect("the scan is logged");
    assert_eq!(scan_record.query, "MATCH (a:Person) RETURN *");
    assert_eq!(scan_record.peak_memory_bytes, 0);
    assert_eq!(
        scan.metrics.peak_memory_bytes,
        scan_record.peak_memory_bytes
    );
    assert!(!scan.to_text().contains("memory:"), "{}", scan.to_text());
}
