//! Allocation budgets of the per-row kernels, as equalities.
//!
//! Committed rows live in shared 64 KiB chunks, each of which costs
//! [`ALLOCATIONS_PER_CHUNK`] allocations; a row costs none of its own.
//!
//! * The join kernel: merging a pair into the thread's scratch row with
//!   [`Embedding::merge_into`], checking it with [`MorphismCheck::check`]
//!   and committing the survivor ([`Embedding::write`]) costs one chunk per
//!   64 KiB of accepted pairs and nothing per rejected pair.
//! * The leaf scan: [`filter_and_project_vertices`] costs one chunk per
//!   64 KiB of emitted rows and nothing per row its predicate rejects — a
//!   string equality included, which reads the property and the literal in
//!   place.
//! * The cartesian product: a pair the morphism check rejects costs nothing.
//! * The value join: a pair on a string key costs nothing beyond its chunk
//!   share — its NULL test reads the key's type tag, not the string.
//! * Result decoding: [`ReturnColumns::table_row`] costs exactly one
//!   allocation per row plus one per string cell.
//!
//! The counter is a wrapping global allocator (`counting/mod.rs`, shared
//! with `row_moves.rs`), which is why the test has a file of its own; it
//! counts per thread, so the test runner's own thread cannot disturb it.
//! Every test runs on a thread of its own, whose first committed row starts
//! its first chunk; rows a test only reads are committed on another thread
//! ([`elsewhere`]) so that they do not move this thread's chunk boundaries.

use std::hint::black_box;

use gradoop_core::embedding::CHUNK_BYTES;
use gradoop_core::operators::{
    cartesian_embeddings, filter_and_project_vertices, value_join_embeddings, EmbeddingSet,
};
use gradoop_core::{
    Embedding, EmbeddingMetaData, EmbeddingRead, EmbeddingWriter, EntryType, MatchingConfig,
    MorphismCheck, ReturnColumns, Value,
};
use gradoop_cypher::{parse, QueryGraph, QueryVertex};
use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment, JoinStrategy, Parts};
use gradoop_epgm::{properties, GradoopId, Properties, PropertyValue, Vertex};

mod counting;
use counting::{allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What one chunk costs: the `Arc` that shares it and its byte buffer.
const ALLOCATIONS_PER_CHUNK: u64 = 2;

/// Chunks a thread allocates to commit `rows` rows of `bytes` bytes each
/// after `earlier` rows of the same size: a chunk holds
/// `CHUNK_BYTES / bytes` of them.
fn chunks_for(earlier: u64, rows: u64, bytes: usize) -> u64 {
    let per_chunk = (CHUNK_BYTES / bytes) as u64;
    (earlier + rows).div_ceil(per_chunk) - earlier.div_ceil(per_chunk)
}

/// Runs `make` on a thread of its own, so the rows it commits leave this
/// thread's current chunk as it was.
fn elsewhere<T: Send>(make: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| scope.spawn(make).join().expect("helper thread"))
}

/// A two-column row `(vertex, vertex)` carrying one property.
fn row(first: u64, second: u64, property: PropertyValue) -> Embedding {
    let mut embedding = EmbeddingWriter::new();
    embedding.push_id(first);
    embedding.push_id(second);
    embedding.push_property(&property);
    embedding.commit()
}

fn one_worker() -> ExecutionEnvironment {
    ExecutionEnvironment::new(ExecutionConfig::with_workers(1).cost_model(CostModel::free()))
}

#[test]
fn fused_join_kernel_allocates_per_chunk_of_accepted_pairs_and_never_per_rejected_pair() {
    let (left, right, duplicate) = elsewhere(|| {
        (
            row(1, 2, PropertyValue::String("Alice".into())),
            row(1, 3, PropertyValue::Long(1984)),
            // Joined on column 0 this repeats vertex 2, which isomorphism
            // rejects.
            row(1, 2, PropertyValue::Long(7)),
        )
    });
    let mut meta = EmbeddingMetaData::new();
    meta.add_entry("a", EntryType::Vertex);
    meta.add_entry("b", EntryType::Vertex);
    meta.add_entry("c", EntryType::Vertex);
    meta.add_property("a", "name");
    meta.add_property("c", "yob");
    let check = MorphismCheck::new(&meta, &MatchingConfig::isomorphism());
    let join = |right: &Embedding| {
        Embedding::write(|row| {
            left.merge_into(right, &[0], row);
            check.check(row)
        })
    };

    // The first accepted pair also settles this thread's scratch row, its
    // id buffer and its first chunk. Three id columns, "Alice" and 1984.
    const ROW_BYTES: usize = 3 * 9 + (4 + 1 + 4 + 5) + (4 + 9);
    assert_eq!(join(&right).expect("accepted").bytes().len(), ROW_BYTES);

    const PAIRS: u64 = 10_000;
    let before = allocations();
    for _ in 0..PAIRS {
        black_box(join(&right).expect("accepted"));
    }
    let accepted = allocations() - before;

    let before = allocations();
    for _ in 0..PAIRS {
        assert!(join(&duplicate).is_none());
    }
    let rejected = allocations() - before;

    // 1 213 rows of 54 bytes fill a chunk: the 10 001 rows need 9 chunks,
    // the first of which the warm-up allocated.
    assert_eq!(chunks_for(1, PAIRS, ROW_BYTES), 8);
    assert_eq!(
        accepted,
        ALLOCATIONS_PER_CHUNK * chunks_for(1, PAIRS, ROW_BYTES),
        "one chunk per 64 KiB of output rows, nothing per row"
    );
    assert_eq!(rejected, 0, "rejected pairs must not allocate");
}

fn query(text: &str) -> QueryGraph {
    QueryGraph::from_query(&parse(text).unwrap()).unwrap()
}

fn person_properties(yob: i64) -> Properties {
    properties! {"firstName" => "Alice", "lastName" => "Liddell", "yob" => yob}
}

/// `count` persons with two string properties, all born in `yob`.
fn persons(env: &ExecutionEnvironment, count: u64, yob: i64) -> Parts<Vertex> {
    let person = |id| Vertex::new(GradoopId(id), "Person", person_properties(yob));
    env.from_collection((0..count).map(person).collect::<Vec<_>>())
        .into()
}

/// One worker, so the stage runs on this thread and the per-thread counter
/// sees all of it.
#[test]
fn leaf_scan_allocates_per_chunk_of_emitted_rows_and_never_per_rejected_row() {
    const ROWS: u64 = 4_096;
    let env = one_worker();
    let by_yob = query("MATCH (p:Person) WHERE p.yob > 1980 RETURN p.firstName, p.lastName");
    let by_name = query("MATCH (p:Person) WHERE p.firstName = 'Bob' RETURN p.lastName");
    let vertex = &by_yob.vertices[0];
    assert_eq!(vertex.required_keys.len(), 3);
    let scan = |vertex: &QueryVertex, candidates: &Parts<Vertex>, expected_rows: u64| {
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
    let sample = elsewhere(|| EmbeddingWriter::new().commit());
    let before = allocations();
    let mut partition = Vec::new();
    (0..ROWS).for_each(|_| partition.push(sample.clone()));
    let partition_growth = allocations() - before;
    black_box(partition);

    // The first stage of a process also starts the pool; after it, a scan
    // has a fixed cost per stage.
    scan(vertex, &rejected, 0);
    let fixed = scan(vertex, &rejected, 0);
    assert_eq!(
        scan(vertex, &twice_rejected, 0),
        fixed,
        "rejected rows allocate"
    );

    // `firstName = 'Bob'` rejects every Alice, reading the property and the
    // literal in place.
    let named = &by_name.vertices[0];
    scan(named, &rejected, 0);
    assert_eq!(
        scan(named, &twice_rejected, 0),
        scan(named, &rejected, 0),
        "rows a string equality rejects allocate"
    );

    // The first emitted row also settles this thread's scratch row and its
    // first chunk. One id column, "Alice", "Liddell" and 1984.
    const ROW_BYTES: usize = 9 + (4 + 1 + 4 + 5) + (4 + 1 + 4 + 7) + (4 + 9);
    let first = Embedding::leaf(&[0], &person_properties(1984), &vertex.required_keys);
    assert_eq!(first.bytes().len(), ROW_BYTES);
    assert_eq!(chunks_for(1, ROWS, ROW_BYTES), 3);
    assert_eq!(
        scan(vertex, &accepted, ROWS) - fixed,
        ALLOCATIONS_PER_CHUNK * chunks_for(1, ROWS, ROW_BYTES) + partition_growth,
        "one chunk per 64 KiB of emitted rows, nothing per row"
    );
}

/// `count` one-column rows binding `variable` to vertex 5.
fn fives(env: &ExecutionEnvironment, variable: &str, count: usize) -> EmbeddingSet {
    let mut meta = EmbeddingMetaData::new();
    meta.add_entry(variable, EntryType::Vertex);
    let mut five = EmbeddingWriter::new();
    five.push_id(5);
    EmbeddingSet {
        data: env.from_collection(vec![five.commit(); count]),
        meta,
    }
}

#[test]
fn rejected_cartesian_pairs_allocate_nothing() {
    const ROWS: usize = 2_048;
    let env = one_worker();
    // Every pair binds vertex 5 twice, which vertex isomorphism rejects.
    let product = |left_rows: usize| {
        let (left, right) = (fives(&env, "a", left_rows), fives(&env, "b", 1));
        let before = allocations();
        let result = black_box(cartesian_embeddings(
            left,
            right,
            &MatchingConfig::isomorphism(),
        ));
        let spent = allocations() - before;
        assert_eq!(result.data.len_untracked(), 0);
        spent
    };
    product(ROWS); // the first stage also starts the worker pool
    assert_eq!(
        product(2 * ROWS),
        product(ROWS),
        "a rejected pair allocates"
    );
}

/// Rows binding `variable` to vertices `ids`, each with the string
/// property `name` = "Leipzig".
fn from_leipzig(
    env: &ExecutionEnvironment,
    variable: &str,
    ids: std::ops::Range<u64>,
) -> EmbeddingSet {
    let mut meta = EmbeddingMetaData::new();
    meta.add_entry(variable, EntryType::Vertex);
    meta.add_property(variable, "city");
    let rows = ids.map(|id| {
        let mut embedding = EmbeddingWriter::new();
        embedding.push_id(id);
        embedding.push_property(&PropertyValue::String("Leipzig".into()));
        embedding.commit()
    });
    EmbeddingSet {
        data: env.from_collection(rows.collect::<Vec<_>>()),
        meta,
    }
}

#[test]
fn a_value_join_pair_on_a_string_key_allocates_nothing_beyond_its_chunks() {
    let env = one_worker();
    // One left row whose string key matches each of `matches` right rows.
    let join = |matches: u64| {
        let (left, right) = elsewhere(|| {
            (
                from_leipzig(&env, "p", 0..1),
                from_leipzig(&env, "u", 1..1 + matches),
            )
        });
        let before = allocations();
        let joined = black_box(value_join_embeddings(
            left,
            right,
            &("p".to_string(), "city".to_string()),
            &("u".to_string(), "city".to_string()),
            &MatchingConfig::homomorphism(),
            JoinStrategy::RepartitionHash,
        ));
        let spent = allocations() - before;
        assert_eq!(joined.data.len_untracked() as u64, matches);
        spent
    };
    const FEW: u64 = 10;
    const MANY: u64 = 1_000;
    join(MANY); // the first stage also starts the worker pool
    let (few, many) = (join(FEW), join(MANY));
    // Two id columns and two 16-byte "Leipzig" slots per output row. This
    // thread committed MANY rows, then FEW, then MANY.
    const ROW_BYTES: usize = 2 * 9 + 2 * (4 + 1 + 4 + 7);
    let chunk_allocations = ALLOCATIONS_PER_CHUNK
        * (chunks_for(MANY + FEW, MANY, ROW_BYTES) - chunks_for(MANY, FEW, ROW_BYTES));
    // The join decodes each right row's key twice — to route it and to
    // probe the table — and a decoded string is one allocation. A pair
    // decodes nothing: before its NULL test read the type tag, every pair
    // cost one more string.
    const DECODES_PER_RIGHT_ROW: u64 = 2;
    let expected = DECODES_PER_RIGHT_ROW * (MANY - FEW) + chunk_allocations;
    let added = many - few;
    assert!(
        (expected..expected + 64).contains(&added),
        "{} more matching right rows cost {added} more allocations, expected \
         {expected} plus buffer regrowth: their key decodes and chunks, \
         nothing per accepted pair",
        MANY - FEW
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
