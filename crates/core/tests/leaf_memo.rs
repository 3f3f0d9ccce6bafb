//! The leaf memo: predicate-free scans build their rows once per graph.
//!
//! * A hit answers and charges exactly what the miss did: the same rows in
//!   the same partitions, the same `StageReport`s field for field (under a
//!   fault schedule too) and the same PROFILE text, wall-clock fields
//!   masked — on a label-indexed source, on a plain source that filters
//!   and on a label alternation read in place.
//! * Two graphs never share an entry, however alike their labels and worker
//!   counts, and the label-indexed and plain views of one graph, which
//!   read the same elements in different orders, never share one either.
//! * A stream of distinct required-key sets never takes the memo past its
//!   bound, the graph's own element bytes; leaves past it are built per
//!   query.
//! * The memo lives as long as the graph: dropping engine and graph brings
//!   [`pinned_chunk_bytes`] back to its value before the graph.
//! * Eight sessions racing on one cold key get identical answers, and one
//!   entry is kept.
//!
//! [`pinned_chunk_bytes`] is process-wide, so every test here holds
//! [`SERIAL`] while it commits or drops rows.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use gradoop_core::embedding::pinned_chunk_bytes;
use gradoop_core::{leaf_memo_stats, CypherEngine, Embedding, GraphSource, MatchingConfig};
use gradoop_dataflow::{
    CollectingSink, ExecutionConfig, ExecutionEnvironment, FailureSchedule, FaultConfig,
    StageReport,
};
use gradoop_epgm::{
    properties, Edge, GradoopId, GraphHead, IndexedLogicalGraph, LogicalGraph, Properties, Vertex,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `persons` persons in a ring of `knows` edges (each knowing the next
/// three), each living in one of five cities; every person carries the
/// string properties `k0` … `k19`.
fn graph(persons: u64) -> LogicalGraph {
    let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4));
    let mut vertices: Vec<Vertex> = (0..persons)
        .map(|i| {
            let mut properties = properties! {"name" => format!("person {i:03}")};
            for k in 0..20 {
                properties.set(&format!("k{k}"), format!("{i}-{k}"));
            }
            Vertex::new(GradoopId(i), "Person", properties)
        })
        .collect();
    vertices.extend((0..5).map(|c| {
        let name = format!("city {c}");
        Vertex::new(GradoopId(10_000 + c), "City", properties! {"name" => name})
    }));
    let mut edges: Vec<Edge> = (0..persons)
        .flat_map(|i| {
            (1..=3).map(move |k| {
                let (source, target) = (GradoopId(i), GradoopId((i + k) % persons));
                Edge::new(
                    GradoopId(20_000 + 3 * i + k),
                    "knows",
                    source,
                    target,
                    Properties::new(),
                )
            })
        })
        .collect();
    edges.extend((0..persons).map(|i| {
        let (source, target) = (GradoopId(i), GradoopId(10_000 + i % 5));
        Edge::new(
            GradoopId(40_000 + i),
            "livesIn",
            source,
            target,
            Properties::new(),
        )
    }));
    let head = GraphHead::new(GradoopId(1), "ring", Properties::new());
    LogicalGraph::from_data(&env, head, vertices, edges)
}

/// One run's rows, partition by partition, and the stages it reported.
fn execute(
    engine: &CypherEngine,
    source: &dyn GraphSource,
    text: &str,
) -> (Vec<Vec<Embedding>>, Vec<StageReport>) {
    let sink = Arc::new(CollectingSink::new());
    source.env().set_trace_sink(Some(sink.clone()));
    let result = engine.execute(
        source,
        text,
        &HashMap::new(),
        MatchingConfig::cypher_default(),
    );
    source.env().set_trace_sink(None);
    let rows = result.expect("query runs").embeddings.partitions().to_vec();
    (rows, sink.drain().stages)
}

/// PROFILE text with the wall-clock fields masked.
fn profile(engine: &CypherEngine, source: &dyn GraphSource, text: &str) -> String {
    let profile = engine
        .profile(
            source,
            text,
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        )
        .expect("query runs");
    let mut masked = String::new();
    for line in profile.to_text().lines() {
        let line = match (line.find("t_wall="), line.find("wall: ")) {
            (Some(at), _) => &line[..at],
            (None, Some(at)) => &line[..at],
            (None, None) => line,
        };
        masked.push_str(line);
        masked.push('\n');
    }
    masked
}

const PAIRS: &str = "MATCH (a:Person)-[:knows]->(b:Person)-[:livesIn]->(c:City) \
                     RETURN a.name, b.k3, c.name";
const ALTERNATION: &str = "MATCH (a:Person|City)<-[e:knows|livesIn]-(b) RETURN a.name, b.name";

/// The sources a hit is compared on, each over a graph of its own.
fn sources() -> Vec<(&'static str, Box<dyn GraphSource>, &'static str)> {
    vec![
        ("indexed", Box::new(graph(60).to_indexed()), PAIRS),
        ("plain", Box::new(graph(60)), PAIRS),
        ("alternation", Box::new(graph(60).to_indexed()), ALTERNATION),
        ("plain alternation", Box::new(graph(60)), ALTERNATION),
    ]
}

#[test]
fn a_hit_answers_and_charges_what_the_miss_did() {
    let _serial = serial();
    for (name, source, text) in sources() {
        let engine = CypherEngine::for_graph(source.graph());
        let (miss_rows, miss_stages) = execute(&engine, &*source, text);
        let kept = leaf_memo_stats(source.graph());
        assert!(kept.entries >= 2, "{name}: {kept:?}");
        let (hit_rows, hit_stages) = execute(&engine, &*source, text);
        assert_eq!(leaf_memo_stats(source.graph()), kept, "{name}");
        assert!(!hit_rows.iter().all(Vec::is_empty), "{name}");
        assert_eq!(hit_rows, miss_rows, "{name}");
        assert_eq!(
            format!("{hit_stages:?}"),
            format!("{miss_stages:?}"),
            "{name}"
        );
    }
    for (name, source, text) in sources() {
        let engine = CypherEngine::for_graph(source.graph());
        let miss = profile(&engine, &*source, text);
        assert_eq!(profile(&engine, &*source, text), miss, "{name}");
    }
}

#[test]
fn an_indexed_view_and_a_plain_view_of_one_graph_keep_apart() {
    let _serial = serial();
    // A fresh graph read plainly is the reference.
    let plain = graph(60);
    let engine = CypherEngine::for_graph(&plain);
    let reference = execute(&engine, &plain, ALTERNATION);
    // The same elements, first read through the label index: the plain
    // view's leaves read the same labels and keys but in another order,
    // through a `filter` stage, so it must not be served the indexed rows.
    let shared = graph(60);
    drop(execute(&engine, &shared.to_indexed(), ALTERNATION));
    let after_indexed = execute(&engine, &shared, ALTERNATION);
    assert_eq!(after_indexed.0, reference.0);
    assert_eq!(
        format!("{:?}", after_indexed.1),
        format!("{:?}", reference.1)
    );
}

#[test]
fn a_hit_passes_the_fault_layer_as_the_miss_did() {
    let _serial = serial();
    let source = graph(60).to_indexed();
    let engine = CypherEngine::for_graph(source.graph());
    // The scans are the first stages: a crash in one costs a retry, a
    // straggler stretches another.
    let faults = || {
        let schedule = FailureSchedule::none()
            .crash_at_stage(0, 1)
            .straggler_at_stage(1, 2, 3.0);
        FaultConfig::new(schedule)
    };
    let mut runs = Vec::new();
    for _ in 0..2 {
        source.env().install_faults(faults());
        runs.push(execute(&engine, &source, PAIRS));
    }
    source.env().clear_faults();
    let (miss, hit) = (&runs[0], &runs[1]);
    assert_eq!(hit.0, miss.0);
    assert_eq!(format!("{:?}", hit.1), format!("{:?}", miss.1));
    assert_eq!(miss.1[0].attempts, 2, "{:?}", miss.1[0]);
    assert!(leaf_memo_stats(source.graph()).entries >= 2);
}

#[test]
fn two_graphs_never_share_an_entry() {
    let _serial = serial();
    let text = "MATCH (p:Person)-[:livesIn]->(c:City) RETURN p.name, c.name";
    let (small, large) = (graph(30).to_indexed(), graph(60).to_indexed());
    let engine = CypherEngine::for_graph(small.graph());
    let count = |graph: &IndexedLogicalGraph| {
        let rows = execute(&engine, graph, text).0;
        rows.iter().map(Vec::len).sum::<usize>()
    };
    assert_eq!(count(&small), 30);
    // Same labels, same keys, same worker count: only the graph differs.
    assert_eq!(count(&large), 60);
    assert_eq!(count(&small), 30);
    assert_eq!(
        leaf_memo_stats(small.graph()).entries,
        leaf_memo_stats(large.graph()).entries
    );
    assert!(leaf_memo_stats(small.graph()).rows < leaf_memo_stats(large.graph()).rows);
}

#[test]
fn distinct_required_key_sets_never_take_the_memo_past_its_bound() {
    let _serial = serial();
    let source = graph(60).to_indexed();
    let engine = CypherEngine::for_graph(source.graph());
    let mut texts = 0;
    for first in 0..20 {
        for second in (first + 1)..20 {
            let text = format!("MATCH (p:Person) RETURN p.k{first}, p.k{second}");
            let rows = execute(&engine, &source, &text).0;
            assert_eq!(rows.iter().map(Vec::len).sum::<usize>(), 60, "{text}");
            let stats = leaf_memo_stats(source.graph());
            assert!(stats.row_bytes <= stats.bound_bytes, "{text}: {stats:?}");
            texts += 1;
        }
    }
    let stats = leaf_memo_stats(source.graph());
    assert!(stats.entries > 0, "{stats:?}");
    assert!(
        stats.entries < texts,
        "the bound refused some leaves: {stats:?}"
    );
    // A leaf past the bound is still answered, built per query.
    let rows = execute(&engine, &source, "MATCH (p:Person) RETURN p.k18, p.k19").0;
    assert_eq!(rows.iter().map(Vec::len).sum::<usize>(), 60);
}

#[test]
fn dropping_engine_and_graph_releases_the_kept_rows() {
    let _serial = serial();
    let before_graph = pinned_chunk_bytes();
    let source = graph(60).to_indexed();
    let engine = CypherEngine::for_graph(source.graph());
    drop(execute(&engine, &source, PAIRS));
    assert!(leaf_memo_stats(source.graph()).entries > 0);
    assert!(pinned_chunk_bytes() > before_graph);
    let attached = source.rehomed(&source.env().fork());
    drop(execute(&engine, &attached, PAIRS));
    drop(attached);
    drop(engine);
    drop(source);
    assert_eq!(pinned_chunk_bytes(), before_graph);
}

#[test]
fn eight_sessions_on_one_cold_key_get_identical_answers() {
    let _serial = serial();
    let source = graph(60).to_indexed();
    let engine = CypherEngine::for_graph(source.graph());
    let answers: Vec<Vec<Vec<Embedding>>> = std::thread::scope(|scope| {
        let sessions: Vec<_> = (0..8)
            .map(|_| {
                let attached = source.rehomed(&source.env().fork());
                let engine = &engine;
                scope.spawn(move || execute(engine, &attached, PAIRS).0)
            })
            .collect();
        sessions
            .into_iter()
            .map(|session| session.join().expect("session runs"))
            .collect()
    });
    for answer in &answers {
        assert_eq!(answer, &answers[0]);
    }
    let kept = leaf_memo_stats(source.graph());
    // a:Person, knows, b:Person(k3), livesIn, c:City — each kept once.
    assert_eq!(kept.entries, 5, "{kept:?}");
    assert_eq!(execute(&engine, &source, PAIRS).0, answers[0]);
}
