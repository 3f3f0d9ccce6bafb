//! End-to-end server tests: concurrent sessions over one snapshot must be
//! byte-identical to serial execution, re-bind parameters through the plan
//! cache, reject on overload and classify deadline trips.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use gradoop_core::{CypherEngine, CypherError, ReturnColumns, Row, RowKey, TableResult};
use gradoop_cypher::ast::Stage;
use gradoop_cypher::{parse_pipeline, Literal};
use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
use gradoop_epgm::ElementIndex;
use gradoop_ldbc::{generate_graph, BenchmarkQuery, LdbcConfig};
use gradoop_server::{
    DeadlineSink, GraphSnapshot, QueryServer, ServerConfig, ServerError, DEADLINE_SITE,
};

/// Small LDBC graph on a free cost model — fast, deterministic.
fn snapshot() -> GraphSnapshot {
    let env =
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()));
    let graph = generate_graph(&env, &LdbcConfig::with_persons(40));
    GraphSnapshot::of(graph)
}

/// `Threads:` of `/proc/self/status`; `None` where there is no such file.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

/// A result table as two runs compare it: its columns and its rows under
/// `RowKey` equality, sorted by that key's order unless row order is part
/// of the answer.
type Digest = (Vec<String>, Vec<RowKey>);

fn digest(table: &TableResult) -> Digest {
    let mut rows: Vec<RowKey> = table.rows.iter().cloned().map(RowKey).collect();
    if !table.ordered {
        rows.sort();
    }
    (table.columns.clone(), rows)
}

/// A clause pipeline whose first `MATCH` stage takes `$firstName`: every
/// binding shares the cached plans of both stages.
const PARAMETERIZED_PIPELINE: &str =
    "MATCH (p:Person {firstName: $firstName})-[:knows]->(f:Person) WITH p, count(*) AS friends \
     OPTIONAL MATCH (p)-[:isLocatedIn]->(c:City) RETURN p.lastName, friends, c.name";

/// The clause pipelines of the benchmark's `pipeline` workload.
const PIPELINES: [&str; 5] = [
    "MATCH (a:Person)-[:knows]->(b:Person) WITH a, count(*) AS degree \
     OPTIONAL MATCH (a)-[:studyAt]->(u:University) \
     RETURN a.firstName, degree ORDER BY degree DESC, a.firstName LIMIT 10",
    "MATCH (p:Person)-[:hasInterest]->(t:Tag) \
     RETURN t.name, count(*) AS fans ORDER BY fans DESC, t.name LIMIT 10",
    "MATCH (p:Person)-[:isLocatedIn]->(c:City) \
     RETURN DISTINCT c.name AS city, p.lastName AS family ORDER BY city, family",
    "MATCH (a:Person)-[:knows]->(b:Person) WITH a, count(*) AS degree WHERE degree > 8 \
     MATCH (a)-[:isLocatedIn]->(c:City) \
     RETURN c.name, count(*) AS hubs ORDER BY hubs DESC, c.name",
    "MATCH (p:Person)-[:isLocatedIn]->(c:City) WITH c, collect(p.lastName) AS families \
     UNWIND families AS family RETURN c.name, family ORDER BY c.name, family",
];

/// The mixed workload: every benchmark query, operational ones and a
/// parameterized clause pipeline across a spread of common first names.
fn workload() -> Vec<(String, HashMap<String, Literal>)> {
    let names = ["Jan", "Maria", "Chen", "Ali"];
    let bind =
        |name: &str| HashMap::from([("firstName".to_string(), Literal::String(name.into()))]);
    let mut queries = Vec::new();
    for query in BenchmarkQuery::all() {
        if query.is_operational() {
            for name in names {
                queries.push((query.parameterized_text(), bind(name)));
            }
        } else {
            queries.push((query.text(None), HashMap::new()));
        }
    }
    for name in names {
        queries.push((PARAMETERIZED_PIPELINE.to_string(), bind(name)));
    }
    queries
}

#[test]
fn concurrent_mixed_workload_is_byte_identical_to_serial_execution() {
    let server = QueryServer::new(snapshot(), ServerConfig::default());
    let workload = workload();

    // Serial reference: a cold engine over the same snapshot, no cache.
    let reference_engine = CypherEngine::with_statistics(server.snapshot().statistics().clone());
    let expected: Vec<Digest> = workload
        .iter()
        .map(|(text, params)| {
            let (env, graph) = server.snapshot().attach();
            let table = reference_engine
                .run(&graph, text, params, server.config().matching)
                .expect("serial reference run");
            drop(env);
            digest(&table)
        })
        .collect();

    // 8 concurrent clients, each running the full mixed workload.
    let expected = Arc::new(expected);
    let workload = Arc::new(workload);
    let handles: Vec<_> = (0..8)
        .map(|client| {
            let server = Arc::clone(&server);
            let workload = Arc::clone(&workload);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let session = server.session();
                // Stagger starting offsets so clients overlap on
                // different queries at any given moment.
                for step in 0..workload.len() {
                    let index = (step + client * 3) % workload.len();
                    let (text, params) = &workload[index];
                    let table = session.query(text, params).expect("concurrent run");
                    assert_eq!(
                        digest(&table),
                        expected[index],
                        "client {client} query {index} diverged from serial execution"
                    );
                }
                (session.stats().queries, process_threads())
            })
        })
        .collect();
    let results: Vec<(u64, Option<usize>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    let total: u64 = results.iter().map(|(queries, _)| queries).sum();

    // Stages run on the clients and the process-wide pool, not on threads
    // of their own: counted by each client as it finishes (the others are
    // mostly still querying) and once more after the run, the process
    // holds the 8 clients, the 8 of this file's other 8-session test if it
    // runs alongside, at most nproc - 1 pool threads, and the test harness
    // (main plus at most one thread for each of this file's nine tests).
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let most = results.iter().filter_map(|(_, threads)| *threads).max();
    for threads in most.into_iter().chain(process_threads()) {
        assert!(
            threads <= 2 * 8 + parallelism + 9,
            "{threads} threads for 8 clients on {parallelism} cores"
        );
    }

    assert_eq!(total, 8 * workload.len() as u64);
    assert_eq!(server.stats().queries, total);
    assert_eq!(server.stats().failed, 0);
    assert_eq!(server.in_flight(), 0);
}

/// The first pipelines on a fresh snapshot build its element index while
/// seven other sessions race them: every session answers what a serial run
/// answers, and all of them resolve properties through one index.
#[test]
fn concurrent_pipelines_on_a_fresh_snapshot_share_one_element_index() {
    let no_params = HashMap::new();
    // Serial reference over a snapshot of its own, so the tested one starts
    // without an index.
    let reference = snapshot();
    let reference_engine = CypherEngine::with_statistics(reference.statistics().clone());
    let expected: Vec<Digest> = PIPELINES
        .iter()
        .map(|text| {
            let (_env, graph) = reference.attach();
            let table = reference_engine
                .run(&graph, text, &no_params, ServerConfig::default().matching)
                .expect("serial reference run");
            digest(&table)
        })
        .collect();

    let server = QueryServer::new(snapshot(), ServerConfig::default());
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..8)
        .map(|client| {
            let server = Arc::clone(&server);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let session = server.session();
                for step in 0..PIPELINES.len() {
                    let index = (step + client) % PIPELINES.len();
                    let table = session
                        .query(PIPELINES[index], &HashMap::new())
                        .expect("concurrent run");
                    assert_eq!(
                        digest(&table),
                        expected[index],
                        "client {client} pipeline {index} diverged from serial execution"
                    );
                }
                let (_env, graph) = server.snapshot().attach();
                graph.element_index() as *const ElementIndex as usize
            })
        })
        .collect();
    let seen: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let shared = server.snapshot().graph().element_index() as *const ElementIndex as usize;
    assert_eq!(seen, vec![shared; 8]);
    assert!(std::ptr::eq(
        server.snapshot().indexed().element_index(),
        server.snapshot().graph().element_index()
    ));
    assert_eq!(server.stats().failed, 0);
}

/// Result rows are decoded partition by partition on the worker pool; the
/// table a session gets back must still list them in partition order, as
/// the serial decoder did.
#[test]
fn session_query_returns_q6_rows_in_partition_order() {
    let server = QueryServer::new(snapshot(), ServerConfig::default());
    let (text, params) = (BenchmarkQuery::Q6.text(None), HashMap::new());
    let table = server.session().query(&text, &params).expect("Q6 runs");

    let engine = CypherEngine::with_statistics(server.snapshot().statistics().clone());
    let (_env, graph) = server.snapshot().attach();
    let result = engine
        .execute(&graph, &text, &params, server.config().matching)
        .expect("Q6 executes");
    let partitions = result.embeddings.partitions();
    assert!(
        partitions.iter().filter(|part| !part.is_empty()).count() >= 2,
        "the order is only at stake with rows on several workers"
    );
    let columns = ReturnColumns::resolve(&result.query, &result.meta).expect("bound");
    let mut offsets = Vec::new();
    let in_partition_order: Vec<Row> = partitions
        .iter()
        .flatten()
        .map(|embedding| columns.table_row(embedding, &mut offsets))
        .collect();
    assert_eq!(table.columns, columns.names());
    assert!(!table.ordered);
    assert_eq!(table.rows, in_partition_order);
}

#[test]
fn parameterized_rerun_exceeds_ninety_percent_cache_hit_rate() {
    let server = QueryServer::new(snapshot(), ServerConfig::default());
    let session = server.session();
    let names = [
        "Jan", "Maria", "Chen", "Ali", "Anna", "Ivan", "Yang", "Jose", "Nina", "Ahmed",
    ];
    for name in names {
        let params = HashMap::from([("firstName".to_string(), Literal::String(name.to_string()))]);
        for query in BenchmarkQuery::all() {
            if !query.is_operational() {
                continue;
            }
            session
                .query(&query.parameterized_text(), &params)
                .expect("parameterized run");
        }
    }
    let stats = server.stats().plan_cache;
    // Three shapes, one miss each; everything after re-binds a cached plan.
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.hits, (names.len() as u64) * 3 - 3);
    // An inline-literal spelling of the same query shares the cached plan.
    let inline = session
        .query(&BenchmarkQuery::Q1.text(Some("Jan")), &HashMap::new())
        .expect("inline run");
    let parameterized = session
        .query(
            &BenchmarkQuery::Q1.parameterized_text(),
            &HashMap::from([("firstName".to_string(), Literal::String("Jan".to_string()))]),
        )
        .expect("parameterized rerun");
    assert_eq!(digest(&inline), digest(&parameterized));
    let stats = server.stats().plan_cache;
    assert_eq!(stats.misses, 3);
    assert!(
        stats.hit_rate() > 0.9,
        "hit rate {:.3} not above 0.9",
        stats.hit_rate()
    );
    // The query log records the cache interaction per query.
    let log = server.query_log().snapshot();
    assert!(log.iter().all(|r| r.plan_cache.is_some()));
    assert_eq!(
        log.iter().filter(|r| r.plan_cache == Some("miss")).count(),
        3
    );
}

/// A pipeline's `MATCH` stages are planned through the server's plan cache
/// like any plain `MATCH`: the second run of each text hits on every stage
/// and answers what a cold engine answers.
#[test]
fn pipeline_reruns_hit_every_match_stage_and_match_a_cold_engine() {
    let server = QueryServer::new(snapshot(), ServerConfig::default());
    let session = server.session();
    let cold = CypherEngine::with_statistics(server.snapshot().statistics().clone());
    let no_params = HashMap::new();
    for text in PIPELINES {
        let stages = parse_pipeline(text)
            .expect("parses")
            .stages
            .iter()
            .filter(|stage| matches!(stage, Stage::Match(_) | Stage::OptionalMatch(_)))
            .count() as u64;
        let first = session.query(text, &no_params).expect("first run");
        let before = server.stats().plan_cache;
        let second = session.query(text, &no_params).expect("second run");
        let after = server.stats().plan_cache;
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (stages, 0),
            "{text}"
        );
        let log = server.query_log().snapshot();
        assert_eq!(
            log.last().expect("logged").plan_cache,
            Some("hit"),
            "{text}"
        );

        let (_env, graph) = server.snapshot().attach();
        let expected = cold
            .run(&graph, text, &no_params, server.config().matching)
            .expect("cold run");
        assert_eq!(digest(&second), digest(&expected), "{text}");
        assert_eq!(digest(&first), digest(&second), "{text}");
    }
}

#[test]
fn overloaded_server_rejects_without_executing() {
    let server = QueryServer::new(
        snapshot(),
        ServerConfig {
            max_in_flight: 1,
            admission_timeout: Duration::ZERO,
            ..ServerConfig::default()
        },
    );
    let session = server.session();
    let text = BenchmarkQuery::Q5.text(None);

    // Occupy the only slot, then try to query: rejected, nothing ran.
    let slot = server.admission().admit(Duration::ZERO).expect("reserve");
    let error = session.query(&text, &HashMap::new()).expect_err("full");
    match error {
        ServerError::Overloaded(rejected) => assert_eq!(rejected.limit, 1),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(server.stats().rejected, 1);
    assert_eq!(server.stats().queries, 0);
    assert!(server.query_log().is_empty(), "rejected query must not run");

    // Freeing the slot lets the same query through.
    drop(slot);
    session.query(&text, &HashMap::new()).expect("slot freed");
    assert_eq!(server.stats().queries, 1);
}

#[test]
fn deadline_exceeded_is_classified_and_returns_no_rows() {
    let server = QueryServer::new(snapshot(), ServerConfig::default());
    let session = server.session();
    let outcome = session.query_with_deadline(
        &BenchmarkQuery::Q5.text(None),
        &HashMap::new(),
        Some(Duration::ZERO),
    );
    let error = outcome.expect_err("zero budget must trip");
    match &error {
        ServerError::DeadlineExceeded(failure) => {
            assert_eq!(failure.site, DEADLINE_SITE);
            assert!(failure.message.contains("deadline"));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(server.stats().deadline_exceeded, 1);
    assert_eq!(session.stats().errors, 1);
}

#[test]
fn mid_run_deadline_discards_results_through_the_engine() {
    let server = QueryServer::new(snapshot(), ServerConfig::default());
    let engine = CypherEngine::with_statistics(server.snapshot().statistics().clone());
    let (env, graph) = server.snapshot().attach();
    let text = BenchmarkQuery::Q1.text(Some("Jan"));
    let matching = server.config().matching;
    // `run` and `profile` are views over one execution path, under the same
    // tee: the caller's sink keeps firing while either of them runs.
    for view in ["run", "profile"] {
        // Arm an already-expired deadline directly, bypassing the server's
        // pre-execution check: the first finished stage poisons the run.
        env.set_trace_sink(Some(Arc::new(DeadlineSink::new(
            env.clone(),
            std::time::Instant::now(),
            0,
        ))));
        let outcome = match view {
            "run" => engine
                .run(&graph, &text, &HashMap::new(), matching)
                .map(drop),
            _ => engine
                .profile(&graph, &text, &HashMap::new(), matching)
                .map(drop),
        };
        env.set_trace_sink(None);
        match outcome.expect_err("expired deadline must fail the run") {
            CypherError::Execution(failure) => assert_eq!(failure.site, DEADLINE_SITE, "{view}"),
            other => panic!("{view}: expected Execution failure, got {other:?}"),
        }
    }
}

#[test]
fn sessions_track_their_own_latency() {
    let server = QueryServer::new(snapshot(), ServerConfig::default());
    let busy = server.session();
    let idle = server.session();
    assert_ne!(busy.id(), idle.id());
    for _ in 0..3 {
        busy.query(&BenchmarkQuery::Q1.text(Some("Jan")), &HashMap::new())
            .expect("run");
    }
    let stats = busy.stats();
    assert_eq!(stats.queries, 3);
    assert_eq!(stats.errors, 0);
    assert!(stats.total_latency_seconds > 0.0);
    assert!(stats.p99_latency_seconds > 0.0);
    assert_eq!(idle.stats().queries, 0);
    assert!(server.stats().p99_latency_seconds > 0.0);
}
