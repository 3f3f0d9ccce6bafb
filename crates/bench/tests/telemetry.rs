//! End-to-end telemetry tests: the Figure 1 timeline export must be valid
//! Chrome trace JSON with one lane event per operator stage per worker, the
//! query log must record every query, and `execute`, `run`, `profile` and
//! the log must agree on what one execution did.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use gradoop_bench::figure1::{figure1_graph, FIGURE1_QUERIES};
use gradoop_core::{CypherEngine, MatchingConfig, MemoryQueryLog, QueryOutcome};
use gradoop_dataflow::{
    chrome_trace_json, CollectingSink, ExecutionConfig, ExecutionEnvironment, JsonValue,
};

const WORKERS: usize = 4;

/// Runs every Figure 1 query with a collecting trace sink and a memory
/// query log, returning the captured trace and the log.
fn run_figure1() -> (gradoop_dataflow::CollectedTrace, Arc<MemoryQueryLog>) {
    let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(WORKERS));
    let sink = Arc::new(CollectingSink::new());
    env.set_trace_sink(Some(sink.clone()));
    let graph = figure1_graph(&env);
    let log = Arc::new(MemoryQueryLog::new());
    let engine = CypherEngine::for_graph(&graph).with_query_log(log.clone());
    for query in FIGURE1_QUERIES {
        engine
            .execute(
                &graph,
                query,
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap_or_else(|e| panic!("{query}: {e}"));
    }
    (sink.snapshot(), log)
}

#[test]
fn figure1_timeline_is_valid_chrome_trace_with_one_event_per_stage_per_worker() {
    let (trace, _log) = run_figure1();
    assert!(!trace.stages.is_empty(), "queries must produce stages");
    let exported = chrome_trace_json(&trace);
    let value = JsonValue::parse(&exported).expect("timeline parses as JSON");
    let events = value
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    // One complete ("ph":"X") lane event per stage per worker on pid 0.
    let stage_events: Vec<&JsonValue> = events
        .iter()
        .filter(|e| e.get("cat").and_then(JsonValue::as_str) == Some("stage"))
        .collect();
    assert_eq!(
        stage_events.len(),
        trace.stages.len() * WORKERS,
        "one span per operator stage per worker"
    );
    let lanes: BTreeSet<i64> = stage_events
        .iter()
        .filter_map(|e| e.get("tid").and_then(JsonValue::as_f64))
        .map(|tid| tid as i64)
        .collect();
    assert_eq!(lanes, (0..WORKERS as i64).collect::<BTreeSet<i64>>());
    for event in &stage_events {
        assert_eq!(event.get("ph").and_then(JsonValue::as_str), Some("X"));
        let dur = event.get("dur").and_then(JsonValue::as_f64).unwrap();
        assert!(dur >= 0.0, "durations are non-negative microseconds");
    }
}

#[test]
fn figure1_queries_all_land_in_the_query_log_as_ok() {
    let (_trace, log) = run_figure1();
    let records = log.snapshot();
    assert_eq!(records.len(), FIGURE1_QUERIES.len());
    for record in &records {
        assert_eq!(record.outcome, QueryOutcome::Ok);
        assert_eq!(record.fingerprint.len(), 16);
        assert_eq!(record.plan_digest.len(), 16);
        assert!(!record.operators.is_empty());
        assert!(record.simulated_seconds > 0.0);
    }
    // The four queries have four distinct shapes.
    let shapes: BTreeSet<&str> = records.iter().map(|r| r.fingerprint.as_str()).collect();
    assert_eq!(shapes.len(), FIGURE1_QUERIES.len());
}

/// `execute`, `run`, `profile` and the query log are views over one
/// execution: same match count, and the logged operators are the PROFILE
/// tree in pre-order — for classic queries and clause pipelines alike.
#[test]
fn execute_run_profile_and_the_query_log_agree() {
    let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(WORKERS));
    let graph = figure1_graph(&env);
    let log = Arc::new(MemoryQueryLog::new());
    let engine = CypherEngine::for_graph(&graph).with_query_log(log.clone());
    let matching = MatchingConfig::cypher_default();
    let no_params = HashMap::new();
    let pipelines = [
        "MATCH (a:Person)-[:knows]->(b:Person) WITH a, count(*) AS degree \
         OPTIONAL MATCH (a)-[:studyAt]->(u:University) \
         RETURN a.name, degree ORDER BY degree DESC, a.name LIMIT 2",
        "MATCH (p:Person)-[:knows]->(q:Person) WITH q, collect(p.name) AS fans \
         UNWIND fans AS fan RETURN q.name, fan ORDER BY q.name, fan",
    ];
    for (query, simple) in FIGURE1_QUERIES
        .iter()
        .map(|q| (*q, true))
        .chain(pipelines.iter().map(|q| (*q, false)))
    {
        let table = engine
            .run(&graph, query, &no_params, matching)
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        let profile = engine
            .profile(&graph, query, &no_params, matching)
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        assert_eq!(table.rows.len() as u64, profile.matches, "{query}");
        assert!(profile.matches > 0, "{query}");
        if simple {
            let result = engine
                .execute(&graph, query, &no_params, matching)
                .unwrap_or_else(|e| panic!("{query}: {e}"));
            assert_eq!(result.count() as u64, profile.matches, "{query}");
        } else {
            // Every MATCH stage shows its operators, timed, under the root.
            let subtrees = profile
                .root
                .children
                .iter()
                .filter(|child| !child.children.is_empty())
                .count();
            assert_eq!(subtrees, query.matches("MATCH (").count(), "{query}");
            assert!(profile.root.children.iter().any(|c| c.wall_seconds > 0.0));
        }
        // One record per call; every view logged the same operator rows.
        let records = log.drain();
        assert_eq!(records.len(), if simple { 3 } else { 2 }, "{query}");
        for record in &records {
            assert_eq!(record.outcome, QueryOutcome::Ok, "{query}");
            assert_eq!(record.matches, profile.matches, "{query}");
            let logged: Vec<(String, u64)> = record
                .operators
                .iter()
                .map(|op| (op.name.clone(), op.rows_out))
                .collect();
            assert_eq!(logged, profile.root.operator_rows(), "{query}");
        }
    }
}

/// A Filter-over-Join plan runs as one fused kernel, yet the walker's join
/// and filter nodes report exactly what `join_embeddings` followed by
/// `filter_embeddings` produce when called directly on the same inputs.
#[test]
fn fused_filter_over_join_counts_match_the_separate_operators() {
    use gradoop_core::operators::{filter_embeddings, join_embeddings};
    use gradoop_core::{execute_plan, plan_query, Estimator, PlanNode, PlanOperator};
    use gradoop_dataflow::JoinStrategy;

    let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(WORKERS));
    let graph = figure1_graph(&env);
    let matching = MatchingConfig::cypher_default();
    let ast = gradoop_cypher::parse(FIGURE1_QUERIES[3]).unwrap();
    let query = gradoop_cypher::QueryGraph::from_query(&ast).unwrap();
    let statistics = gradoop_epgm::GraphStatistics::of(&graph);
    let plan = plan_query(&query, &Estimator::new(&statistics)).unwrap();
    let text = plan.root.explain(&query).to_text();
    let (PlanOperator::Filter { clauses }, [input]) = (&plan.root.operator, &plan.root.inputs[..])
    else {
        panic!("expected a Filter root:\n{text}");
    };
    let (PlanOperator::Join { variables }, [left, right]) = (&input.operator, &input.inputs[..])
    else {
        panic!("expected Filter over Join:\n{text}");
    };

    let collector = Arc::new(CollectingSink::new());
    env.set_trace_sink(Some(collector.clone()));
    let walk = |node: &PlanNode| execute_plan(node, &query, &graph, &matching, &collector);
    let (fused, filter) = walk(&plan.root);
    let join = &filter.children[0];

    let (left_set, _) = walk(left);
    let (right_set, _) = walk(right);
    let strategy = JoinStrategy::RepartitionHash;
    let joined = join_embeddings(
        left_set.clone(),
        right_set.clone(),
        variables,
        &matching,
        strategy,
    );
    let clause_list: Vec<_> = clauses
        .iter()
        .map(|&index| query.cross_clauses[index].0.clone())
        .collect();
    let filtered = filter_embeddings(&joined, &clause_list);
    env.set_trace_sink(None);

    assert_eq!(join.rows_out, joined.data.count() as u64);
    assert_eq!(
        join.rows_in,
        (left_set.data.count() + right_set.data.count()) as u64
    );
    assert_eq!(filter.rows_in, join.rows_out);
    assert_eq!(filter.rows_out, filtered.data.count() as u64);
    assert_eq!(fused.data.count(), filtered.data.count());
    assert!(
        join.rows_out > filter.rows_out,
        "the filter must drop a pair for the comparison to mean anything"
    );
    // The fused filter ran inside the join's stage.
    assert_eq!(filter.metrics.stages, 0);
    assert!(join.metrics.stages > 0);
}
