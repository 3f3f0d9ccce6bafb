//! Allocation budgets of the per-row kernels, as equalities.
//!
//! * The join kernel: probing a pair with [`Embedding::merge_into`] into a
//!   reused scratch row plus [`MorphismCheck::check`] with a reused id
//!   buffer costs exactly one heap allocation per accepted pair (the clone
//!   of the survivor) and none per rejected pair.
//! * The leaf scan: [`filter_and_project_vertices`] costs exactly one
//!   allocation per emitted row ([`Embedding::leaf`]) and none per row its
//!   predicate rejects.
//! * Result decoding: [`ReturnColumns::table_row`] costs exactly one
//!   allocation per row plus one per string cell.
//!
//! The counter is a wrapping global allocator (`counting/mod.rs`, shared
//! with `row_moves.rs`), which is why the test has a file of its own; it
//! counts per thread, so the test runner's own thread cannot disturb it.

use std::hint::black_box;

use gradoop_core::operators::filter_and_project_vertices;
use gradoop_core::{
    Embedding, EmbeddingMetaData, EntryType, MatchingConfig, MorphismCheck, ReturnColumns, Value,
};
use gradoop_cypher::{parse, QueryGraph};
use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment, Parts};
use gradoop_epgm::{properties, GradoopId, PropertyValue, Vertex};

mod counting;
use counting::{allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A two-column row `(vertex, vertex)` carrying one property.
fn row(first: u64, second: u64, property: PropertyValue) -> Embedding {
    let mut embedding = Embedding::new();
    embedding.push_id(first);
    embedding.push_id(second);
    embedding.push_property(&property);
    embedding
}

#[test]
fn fused_join_kernel_allocates_once_per_accepted_pair_and_never_per_rejected_pair() {
    let left = row(1, 2, PropertyValue::String("Alice".into()));
    let right = row(1, 3, PropertyValue::Long(1984));
    // Joined on column 0 this repeats vertex 2, which isomorphism rejects.
    let duplicate = row(1, 2, PropertyValue::Long(7));
    let mut meta = EmbeddingMetaData::new();
    meta.add_entry("a", EntryType::Vertex);
    meta.add_entry("b", EntryType::Vertex);
    meta.add_entry("c", EntryType::Vertex);
    meta.add_property("a", "name");
    meta.add_property("c", "yob");
    let check = MorphismCheck::new(&meta, &MatchingConfig::isomorphism());

    // Warm the scratch buffers so their capacity is settled.
    let mut scratch = Embedding::new();
    let mut ids = Vec::new();
    left.merge_into(&right, &[0], &mut scratch);
    assert!(check.check(&scratch, &mut ids));

    const PAIRS: u64 = 10_000;
    let before = allocations();
    for _ in 0..PAIRS {
        left.merge_into(&right, &[0], &mut scratch);
        assert!(check.check(&scratch, &mut ids));
        black_box(scratch.clone());
    }
    let accepted = allocations() - before;

    let before = allocations();
    for _ in 0..PAIRS {
        left.merge_into(&duplicate, &[0], &mut scratch);
        assert!(!check.check(&scratch, &mut ids));
    }
    let rejected = allocations() - before;

    assert_eq!(accepted, PAIRS, "one allocation per output embedding");
    assert_eq!(rejected, 0, "rejected pairs must not allocate");
}

fn query(text: &str) -> QueryGraph {
    QueryGraph::from_query(&parse(text).unwrap()).unwrap()
}

/// `count` persons with two string properties, all born in `yob`.
fn persons(env: &ExecutionEnvironment, count: u64, yob: i64) -> Parts<Vertex> {
    let person = |id| {
        Vertex::new(
            GradoopId(id),
            "Person",
            properties! {"firstName" => "Alice", "lastName" => "Liddell", "yob" => yob},
        )
    };
    env.from_collection((0..count).map(person).collect::<Vec<_>>())
        .into()
}

/// One worker, so the stage runs on this thread and the per-thread counter
/// sees all of it.
#[test]
fn leaf_scan_allocates_once_per_emitted_row_and_never_per_rejected_row() {
    const ROWS: u64 = 4_096;
    let env =
        ExecutionEnvironment::new(ExecutionConfig::with_workers(1).cost_model(CostModel::free()));
    let graph = query("MATCH (p:Person) WHERE p.yob > 1980 RETURN p.firstName, p.lastName");
    let vertex = &graph.vertices[0];
    assert_eq!(vertex.required_keys.len(), 3);
    let scan = |candidates: &Parts<Vertex>, expected_rows: u64| {
        let before = allocations();
        let result = black_box(filter_and_project_vertices(candidates, vertex));
        let spent = allocations() - before;
        assert_eq!(result.data.len_untracked() as u64, expected_rows);
        spent
    };
    let (accepted, rejected) = (persons(&env, ROWS, 1984), persons(&env, ROWS, 1970));
    let twice_rejected = persons(&env, 2 * ROWS, 1970);
    // What the output partition costs on its own: the growth of a vector
    // of `ROWS` embeddings, whatever the standard library's policy is.
    let before = allocations();
    let mut partition = Vec::new();
    (0..ROWS).for_each(|_| partition.push(Embedding::new()));
    let partition_growth = allocations() - before;
    black_box(partition);

    // The first stage of a process also starts the pool and the telemetry
    // registry; after it, a scan has a fixed cost per stage.
    scan(&rejected, 0);
    let fixed = scan(&rejected, 0);
    assert_eq!(scan(&twice_rejected, 0), fixed, "rejected rows allocate");
    assert_eq!(
        scan(&accepted, ROWS) - fixed,
        ROWS + partition_growth,
        "one allocation per emitted row"
    );
}

#[test]
fn decoding_a_row_allocates_the_row_and_one_string_per_string_cell() {
    let graph = query("MATCH (p:Person) RETURN p, p.firstName, p.yob, p.lastName");
    let keys = &graph.vertices[0].required_keys;
    let mut meta = EmbeddingMetaData::new();
    meta.add_entry("p", EntryType::Vertex);
    for key in keys {
        meta.add_property("p", key);
    }
    let columns = ReturnColumns::resolve(&graph, &meta).unwrap();
    assert_eq!(columns.names(), ["p", "p.firstName", "p.yob", "p.lastName"]);
    let properties =
        properties! {"firstName" => "Alice", "lastName" => "Liddell", "yob" => 1984i64};
    let embedding = Embedding::leaf(&[7], &properties, keys);

    // Warm the offsets scratch so its capacity is settled.
    let mut offsets = Vec::new();
    let row = columns.table_row(&embedding, &mut offsets);
    let expected = [
        Value::Vertex(7),
        Value::Str("Alice".into()),
        Value::Int(1984),
        Value::Str("Liddell".into()),
    ];
    assert_eq!(row, expected);

    const ROWS: u64 = 10_000;
    let before = allocations();
    for _ in 0..ROWS {
        black_box(columns.table_row(&embedding, &mut offsets));
    }
    assert_eq!(allocations() - before, ROWS * (1 + 2));
}
