//! Rows in shared chunks: what the handles promise across threads and over
//! a chunk's life.
//!
//! * Rows committed on the worker pool read back byte for byte as a
//!   reference encoding of the layout on other threads, which then drop
//!   them.
//! * A row larger than a chunk gets a chunk of its own and does not disturb
//!   the thread's current chunk.
//! * Nothing leaks: once a repeated query's result is dropped, the chunk
//!   bytes rows pin are back where they were before the query, apart from
//!   each thread's current chunk; once the graph is dropped too, the rows
//!   its leaf memo kept are released as well.
//!
//! [`pinned_chunk_bytes`] is process-wide, so every test here holds
//! [`SERIAL`] while it commits or drops rows.

use std::collections::HashMap;
use std::sync::Mutex;

use gradoop_core::embedding::{pinned_chunk_bytes, CHUNK_BYTES};
use gradoop_core::{CypherEngine, Embedding, EmbeddingRead, EmbeddingWriter, MatchingConfig};
use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
use gradoop_epgm::{
    properties, Edge, GradoopId, GraphHead, LogicalGraph, Properties, PropertyValue, Vertex,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Row `i`: an id column `i`, a path column of `i % 7` ids, an id column
/// `i + 1` and a string property of `i % 50` characters.
fn path_of(i: u64) -> Vec<u64> {
    (0..i % 7).map(|k| 1_000 * i + k).collect()
}

fn name_of(i: u64) -> PropertyValue {
    PropertyValue::String("x".repeat((i % 50) as usize))
}

fn written(i: u64) -> Embedding {
    let mut row = EmbeddingWriter::new();
    row.push_id(i);
    row.push_path(&path_of(i));
    row.push_id(i + 1);
    row.push_property(&name_of(i));
    row.commit()
}

/// Row `i` encoded by hand from the layout: `[idData][pathData][propData]`,
/// an id entry being flag 0 and the id, a path entry flag 1 and the
/// payload's offset in pathData, a payload its id count and ids, a property
/// its byte length and its encoded value.
fn reference(i: u64) -> (Vec<u8>, usize, usize) {
    let mut bytes = Vec::new();
    bytes.push(0);
    bytes.extend_from_slice(&i.to_le_bytes());
    bytes.push(1);
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&(i + 1).to_le_bytes());
    let path_start = bytes.len();
    let path = path_of(i);
    bytes.extend_from_slice(&(path.len() as u32).to_le_bytes());
    for id in &path {
        bytes.extend_from_slice(&id.to_le_bytes());
    }
    let prop_start = bytes.len();
    let value = name_of(i).to_bytes();
    bytes.extend_from_slice(&(value.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&value);
    (bytes, path_start, prop_start)
}

#[test]
fn rows_committed_on_pool_workers_read_back_exactly_on_other_threads() {
    let _serial = serial();
    const ROWS: u64 = 20_000;
    let before = pinned_chunk_bytes();
    let env =
        ExecutionEnvironment::new(ExecutionConfig::with_workers(4).cost_model(CostModel::free()));
    let rows = env
        .from_collection((0..ROWS).collect::<Vec<_>>())
        .map(|&i| (i, written(i)))
        .collect();
    assert_eq!(rows.len() as u64, ROWS);
    assert!(
        pinned_chunk_bytes() > before,
        "{ROWS} rows of up to 150 bytes fill chunks beyond the current ones"
    );

    let readers: Vec<_> = rows
        .chunks(ROWS as usize / 4)
        .map(|part| {
            let part = part.to_vec();
            std::thread::spawn(move || {
                for (i, row) in part {
                    let (bytes, path_start, prop_start) = reference(i);
                    assert_eq!(row.bytes(), bytes, "row {i}");
                    assert_eq!(
                        (row.path_start(), row.prop_start()),
                        (path_start, prop_start)
                    );
                    assert_eq!(row.path(1), path_of(i));
                    assert_eq!(row.property(0), name_of(i));
                }
            })
        })
        .collect();
    drop(rows);
    for reader in readers {
        reader.join().expect("reader thread");
    }
    assert_eq!(pinned_chunk_bytes(), before, "every row was dropped");
}

#[test]
fn a_row_larger_than_a_chunk_gets_a_chunk_of_its_own() {
    let _serial = serial();
    let small = written(3);
    let before = pinned_chunk_bytes();
    let text = "y".repeat(CHUNK_BYTES + 100);
    let mut writer = EmbeddingWriter::new();
    writer.push_id(9);
    writer.push_property(&PropertyValue::String(text.clone()));
    let large = writer.commit();
    assert!(large.bytes().len() > CHUNK_BYTES);
    assert_eq!(
        pinned_chunk_bytes(),
        before + large.bytes().len(),
        "a chunk of exactly the row's size"
    );
    assert_eq!(large.bytes(), writer.bytes());
    assert_eq!(large.id(0), 9);
    assert_eq!(large.property(0), PropertyValue::String(text));

    // The next small row still goes to this thread's current chunk.
    let next = written(3);
    assert_eq!(next, small);
    assert_eq!(pinned_chunk_bytes(), before + large.bytes().len());
    drop(large);
    assert_eq!(pinned_chunk_bytes(), before);
}

/// 400 persons, each knowing the next 8 (mod 400).
fn ring() -> LogicalGraph {
    const PERSONS: u64 = 400;
    let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4));
    let vertices = (0..PERSONS)
        .map(|i| {
            let name = format!("person {i:03}");
            Vertex::new(GradoopId(i), "Person", properties! {"name" => name})
        })
        .collect();
    let edges = (0..PERSONS)
        .flat_map(|i| {
            (1..=8).map(move |k| {
                Edge::new(
                    GradoopId(10_000 + i * 8 + k),
                    "knows",
                    GradoopId(i),
                    GradoopId((i + k) % PERSONS),
                    Properties::new(),
                )
            })
        })
        .collect();
    LogicalGraph::from_data(
        &env,
        GraphHead::new(GradoopId(1), "ring", Properties::new()),
        vertices,
        edges,
    )
}

#[test]
fn dropping_a_result_releases_every_chunk_its_rows_pinned() {
    let _serial = serial();
    let before_graph = pinned_chunk_bytes();
    let graph = ring();
    let engine = CypherEngine::for_graph(&graph);
    let run = |text: &str| {
        engine
            .execute(
                &graph,
                text,
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .expect("query runs")
    };
    for text in [
        "MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) \
         WHERE a.name <> c.name RETURN a.name, b.name, c.name",
        "MATCH (a:Person)-[e:knows*1..3]->(b:Person) WHERE a.name = 'person 007' RETURN b.name",
    ] {
        // The first run keeps its predicate-free leaves in the graph's
        // memo, whose rows stay pinned as long as the graph lives.
        drop(run(text));
        let before = pinned_chunk_bytes();
        let result = run(text);
        assert!(result.count() > 0, "{text}");
        drop(result);
        assert_eq!(pinned_chunk_bytes(), before, "{text}");
    }
    // While a large result is held, its rows pin chunks.
    let text = "MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) RETURN a.name, c.name";
    drop(run(text));
    let before = pinned_chunk_bytes();
    let held = run(text);
    assert_eq!(held.count(), 400 * 8 * 8);
    assert!(pinned_chunk_bytes() > before);
    drop(held);
    assert_eq!(pinned_chunk_bytes(), before);
    // The memo lives as long as the graph: dropping both releases the rows
    // it kept too.
    drop(engine);
    drop(graph);
    assert_eq!(pinned_chunk_bytes(), before_graph);
}
