//! "Rows move, they are not copied", as allocation counts.
//!
//! * A shuffle that holds the last handle on its input moves the rows: a
//!   second live handle costs exactly one allocation per heap-carrying row
//!   more, and that handle still reads its rows in their order.
//! * A repartition [`join_embeddings`] of two last-held inputs allocates
//!   per 64 KiB chunk of *output* rows: no clone per shipped row, no `Vec`
//!   per build key, no allocation per output row. The left outer join runs
//!   the same stage and builds the same table, with or without a match
//!   predicate: one key or thousands, it costs the same, and the table's
//!   memory is charged (and spills) as the inner join's is.
//! * [`Dataset::group_reduce`] indexes its groups with that table and
//!   gathers each group into one reused buffer: one group or thousands, it
//!   costs the same.
//! * [`Dataset::distinct`] over a shared input clones each row once, to
//!   shuffle it, and moves its survivors (counted in clones, not
//!   allocations).
//! * Either placement of the [`AdjacencyIndex`] — the expand index, one
//!   layout per worker, and the replicated WCO index — lays its runs out in
//!   one `Vec` under one key table: one key or thousands, it costs the same.
//! * [`expand_embeddings`] writes the solution set once: a superstep costs
//!   the same however many rows earlier supersteps found, and emitted rows
//!   share chunks: no allocation per row.
//!
//! All stages run on a one-worker environment, so their tasks run inline on
//! this thread and the per-thread counter (`counting/mod.rs`) sees them.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gradoop_core::embedding::CHUNK_BYTES;
use gradoop_core::operators::{
    expand_embeddings, join_embeddings, EdgeTriple, EmbeddingSet, ExpandConfig,
};
use gradoop_core::{EmbeddingMetaData, EmbeddingWriter, EntryType, MatchingConfig};
use gradoop_dataflow::cost::StageCosts;
use gradoop_dataflow::partition::shuffle_by_key;
use gradoop_dataflow::{
    AdjacencyIndex, CollectingSink, CostModel, Data, Dataset, ExecutionConfig,
    ExecutionEnvironment, JoinStrategy, PartitionKey,
};

mod counting;
use counting::{allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn one_worker() -> ExecutionEnvironment {
    ExecutionEnvironment::new(ExecutionConfig::with_workers(1).cost_model(CostModel::free()))
}

#[test]
fn a_second_handle_costs_a_shuffle_one_clone_per_row_and_keeps_its_rows() {
    const ROWS: usize = 4_096;
    let rows: Vec<String> = (0..ROWS).map(|i| format!("row {i:05}")).collect();
    let env = one_worker();
    let shuffle = |handle: Arc<Vec<Vec<String>>>| {
        let mut stage = StageCosts::new("shuffle", 1);
        let before = allocations();
        let placed = black_box(shuffle_by_key(&env, handle, String::len, &mut stage));
        (allocations() - before, placed)
    };
    shuffle(Arc::new(vec![Vec::new()])); // the first stage of a process starts the pool
    let (moved, _) = shuffle(Arc::new(vec![rows.clone()]));
    let survivor = Arc::new(vec![rows.clone()]);
    let (cloned, placed) = shuffle(Arc::clone(&survivor));
    assert_eq!(cloned - moved, ROWS as u64, "one clone per shared row");
    assert_eq!(survivor[0], rows, "the surviving handle reads what it had");
    assert_eq!(placed[0], rows, "placed in source order");
}

/// `(first, second)` vertex rows under the given variable names.
fn pairs(
    env: &ExecutionEnvironment,
    variables: [&str; 2],
    rows: impl Iterator<Item = (u64, u64)>,
) -> EmbeddingSet {
    let mut meta = EmbeddingMetaData::new();
    for variable in variables {
        meta.add_entry(variable, EntryType::Vertex);
    }
    let data = env.from_collection(
        rows.map(|(first, second)| {
            let mut embedding = EmbeddingWriter::new();
            embedding.push_id(first);
            embedding.push_id(second);
            embedding.commit()
        })
        .collect::<Vec<_>>(),
    );
    EmbeddingSet { data, meta }
}

/// Runs `make` on a thread of its own, so the rows it commits leave this
/// thread's current chunk as it was.
fn elsewhere<T: Send>(make: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| scope.spawn(make).join().expect("helper thread"))
}

#[test]
fn a_repartition_join_of_last_held_inputs_allocates_per_chunk_of_output_rows() {
    let env = one_worker();
    // `pairs` distinct keys, one accepted pair each.
    let join = |pairs_out: u64| {
        let (left, right) = elsewhere(|| {
            (
                pairs(&env, ["a", "b"], (0..pairs_out).map(|i| (i, 10_000 + i))),
                pairs(&env, ["a", "c"], (0..pairs_out).map(|i| (i, 20_000 + i))),
            )
        });
        let variables = ["a".to_string()];
        let before = allocations();
        let joined = black_box(join_embeddings(
            left,
            right,
            &variables,
            &MatchingConfig::homomorphism(),
            JoinStrategy::RepartitionHash,
        ));
        let spent = allocations() - before;
        assert_eq!(joined.data.len_untracked() as u64, pairs_out);
        spent
    };
    const PAIRS: u64 = 2_048;
    join(PAIRS); // the first stage also starts the worker pool
    let (once, twice) = (join(PAIRS), join(2 * PAIRS));
    // This thread commits every output row: 2 048, 2 048 and 4 096 rows of
    // three id columns, 2 427 of which fill a chunk. The run of 4 096 rows
    // starts two chunks, the run of 2 048 one; a chunk is an `Arc` and a
    // buffer.
    let chunks = |committed: u64| committed.div_ceil((CHUNK_BYTES / 27) as u64);
    let chunk_allocations =
        2 * ((chunks(8 * 1024) - chunks(4 * 1024)) - (chunks(4 * 1024) - chunks(2 * 1024)));
    assert_eq!(chunk_allocations, 2);
    let added = twice - once;
    assert!(
        (chunk_allocations..chunk_allocations + 64).contains(&added),
        "{PAIRS} more pairs cost {added} more allocations: their chunks plus \
         buffer regrowth, nothing per output row, per shipped row or per key"
    );
}

/// A keyed join of one left row against `(key, value)` right rows, returning
/// its output size.
type KeyedJoin = dyn Fn(Dataset<u64>, Dataset<(u64, u64)>) -> usize;

#[test]
fn outer_join_tables_cost_the_same_however_many_keys_they_hold() {
    const ROWS: u64 = 2_048;
    let env = one_worker();
    let left = env.from_collection(vec![0u64]);
    // Allocations of one join against `ROWS` right rows carrying `distinct`
    // keys, key 0 among them.
    let spent = |join: &KeyedJoin, distinct: u64| {
        let right = env.from_collection((0..ROWS).map(|i| (i % distinct, i)).collect::<Vec<_>>());
        let before = allocations();
        let out = black_box(join(left.clone(), right));
        let spent = allocations() - before;
        assert_eq!(out, 0);
        spent
    };
    fn key((k, _): &(u64, u64)) -> u64 {
        *k
    }
    // Every join function emits nothing, so only the shuffles and the table
    // are counted; the right side is moved, the left one copied.
    let joins: [(&str, &KeyedJoin); 2] = [
        ("left outer", &|l, r| {
            l.join_left_outer_filtered(r, |k| *k, key, |_, _| true, |_, _| None::<u64>)
                .len_untracked()
        }),
        ("filtered left outer", &|l, r| {
            l.join_left_outer_filtered(r, |k| *k, key, |_, (_, v)| v % 2 == 0, |_, _| None::<u64>)
                .len_untracked()
        }),
    ];
    for (name, join) in joins {
        spent(join, 1); // the first stage also starts the worker pool
        let (one_key, every_key) = (spent(join, 1), spent(join, ROWS));
        assert!(
            one_key.abs_diff(every_key) < 8,
            "{name} join over {ROWS} right rows: {one_key} allocations with one key, \
             {every_key} with {ROWS} keys; the table allocates nothing per key"
        );
    }
}

#[test]
fn grouping_costs_the_same_however_many_groups_it_holds() {
    const ROWS: u64 = 2_048;
    let env = one_worker();
    let spent = |groups: u64| {
        let rows = env.from_collection((0..ROWS).map(|i| (i % groups, i)).collect::<Vec<_>>());
        let before = allocations();
        let sums = black_box(rows.group_reduce(
            |(k, _)| *k,
            |k, members| (*k, members.iter().map(|(_, v)| v).sum::<u64>()),
        ));
        let spent = allocations() - before;
        assert_eq!(sums.len_untracked() as u64, groups);
        spent
    };
    spent(1); // the first stage also starts the worker pool
    let (one_group, every_group) = (spent(1), spent(ROWS));
    assert!(
        one_group.abs_diff(every_group) < 32,
        "grouping {ROWS} rows: {one_group} allocations into one group, \
         {every_group} into {ROWS}; a group allocates nothing of its own"
    );
}

/// Clones of [`Counted`] rows made so far, on any thread.
static CLONES: AtomicU64 = AtomicU64::new(0);

/// A row that counts its clones.
#[derive(Debug, PartialEq, Eq, Hash)]
struct Counted(u64);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Counted(self.0)
    }
}

impl Data for Counted {
    fn byte_size(&self) -> usize {
        8
    }
}

#[test]
fn distinct_clones_each_row_of_a_shared_input_once() {
    const ROWS: u64 = 1_000;
    const UNIQUE: u64 = 250;
    let env =
        ExecutionEnvironment::new(ExecutionConfig::with_workers(3).cost_model(CostModel::free()));
    let rows = env.from_collection((0..ROWS).map(|i| Counted(i % UNIQUE)).collect::<Vec<_>>());
    let before = CLONES.load(Ordering::Relaxed);
    let unique = black_box(rows.distinct());
    let clones = CLONES.load(Ordering::Relaxed) - before;
    assert_eq!(unique.len_untracked() as u64, UNIQUE);
    assert_eq!(
        clones, ROWS,
        "distinct over {ROWS} shared rows, {UNIQUE} of them distinct"
    );
}

#[test]
fn an_adjacency_index_costs_the_same_however_many_keys_it_holds() {
    const ROWS: u64 = 2_048;
    let env = one_worker();
    // Allocations of one build over `ROWS` triples carrying `distinct` keys.
    let spent = |distinct: u64, replicated: bool| {
        let triples =
            env.from_collection((0..ROWS).map(|i| (i % distinct, i, i)).collect::<Vec<_>>());
        let before = allocations();
        let index = black_box(if replicated {
            AdjacencyIndex::replicated(&triples, |&t| t)
        } else {
            AdjacencyIndex::partitioned(triples, PartitionKey::named("adjacency.key"), |&t| t)
        });
        let spent = allocations() - before;
        assert_eq!(index.candidates(0, 0).len() as u64, ROWS / distinct);
        spent
    };
    for (name, replicated) in [("partitioned", false), ("replicated", true)] {
        spent(1, replicated); // the first stage also starts the worker pool
        let (one_key, every_key) = (spent(1, replicated), spent(ROWS, replicated));
        assert_eq!(
            one_key, every_key,
            "{name} index over {ROWS} triples: {one_key} allocations with one key, \
             {every_key} with {ROWS} keys; a key allocates nothing of its own"
        );
    }
}

#[test]
fn an_outer_join_charges_and_spills_its_build_side_as_an_inner_join_does() {
    let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(1).cost_model(CostModel {
        memory_per_worker: 16,
        ..CostModel::free()
    }));
    let sink = Arc::new(CollectingSink::new());
    env.set_trace_sink(Some(sink.clone()));
    let left = || env.from_collection((0u64..100).collect::<Vec<_>>());
    let right = || env.from_collection((0u64..100).map(|i| (i, i)).collect::<Vec<_>>());
    let key = |(k, _): &(u64, u64)| *k;
    let inner = left().join(
        right(),
        |l| *l,
        key,
        JoinStrategy::RepartitionHash,
        |l, _| Some(*l),
    );
    let outer = left().join_left_outer_filtered(right(), |l| *l, key, |_, _| true, |l, _| Some(*l));
    assert_eq!(
        [inner, outer].map(|joined| joined.len_untracked()),
        [100, 100]
    );
    let stages = sink.snapshot().stages;
    let names: Vec<&str> = stages.iter().map(|stage| stage.name.as_str()).collect();
    assert_eq!(names, ["join(repartition-hash)", "join(left-outer-hash)"]);
    for stage in &stages {
        assert!(
            stage.bytes_spilled > 0 && stage.peak_memory_bytes > 0,
            "{}: {} bytes spilled, peak memory {} bytes",
            stage.name,
            stage.bytes_spilled,
            stage.peak_memory_bytes
        );
    }
}

/// `chains` disjoint chains of `length` edges; chain `c` starts at vertex
/// `c * 1000`. Returns the start vertices as a one-column input and the
/// candidate triples.
fn chains(
    env: &ExecutionEnvironment,
    chains: u64,
    length: u64,
) -> (EmbeddingSet, Dataset<EdgeTriple>) {
    let mut meta = EmbeddingMetaData::new();
    meta.add_entry("a", EntryType::Vertex);
    let starts = (0..chains)
        .map(|chain| {
            let mut embedding = EmbeddingWriter::new();
            embedding.push_id(chain * 1000);
            embedding.commit()
        })
        .collect::<Vec<_>>();
    let edges = (0..chains)
        .flat_map(|chain| {
            (0..length).map(move |i| {
                let from = chain * 1000 + i;
                (from, 1_000_000 + from, from + 1)
            })
        })
        .collect::<Vec<EdgeTriple>>();
    let input = EmbeddingSet {
        data: env.from_collection(starts),
        meta,
    };
    (input, env.from_collection(edges))
}

/// Allocations of one `*lower..upper` expansion over `chain_count` chains of
/// `upper` edges, every path of which is emitted once its length reaches
/// `lower`.
fn expand_allocations(
    env: &ExecutionEnvironment,
    chain_count: u64,
    lower: usize,
    upper: usize,
) -> u64 {
    let (input, candidates) = chains(env, chain_count, upper as u64);
    let config = ExpandConfig {
        source_variable: "a".into(),
        edge_variable: "e".into(),
        target_variable: "b".into(),
        lower,
        upper,
        matching: MatchingConfig::cypher_default(),
    };
    let before = allocations();
    let result = black_box(expand_embeddings(input, candidates, &config));
    let spent = allocations() - before;
    let emitted = chain_count * (upper - lower + 1) as u64;
    assert_eq!(result.data.len_untracked() as u64, emitted);
    spent
}

#[test]
fn a_superstep_costs_the_same_however_many_rows_are_already_found() {
    let env = one_worker();
    expand_allocations(&env, 1, 1, 4); // warm-up, as above
    let [a16, a32, a64] = [16, 32, 64].map(|k| expand_allocations(&env, 1, 1, k));
    // One start vertex, one path per superstep: supersteps 33..=64 may cost
    // what twice supersteps 17..=32 cost, plus buffer regrowth. Re-copying
    // the solution set every superstep adds 33 + … + 64 = 1552 clones here
    // against 2 × (17 + … + 32) = 784.
    assert!(
        a64 - a32 < 2 * (a32 - a16) + 64,
        "allocations for *1..16 / 32 / 64 over a chain: {a16} / {a32} / {a64}"
    );
}

#[test]
fn emitted_rows_share_chunks() {
    let env = one_worker();
    const STEPS: usize = 8;
    expand_allocations(&env, 1, 1, 4); // warm-up, as above
                                       // `*1..8` emits in every superstep, `*8..8` only in the last: the same
                                       // states, (STEPS - 1) emitted rows per chain apart.
    let emit_cost = |chain_count: u64| {
        expand_allocations(&env, chain_count, 1, STEPS)
            - expand_allocations(&env, chain_count, STEPS, STEPS)
    };
    const CHAINS: u64 = 64;
    let added = emit_cost(2 * CHAINS) - emit_cost(CHAINS);
    // The extra rows: a path of k edges holds 2k - 1 ids, so its row is
    // three entries, a count and those ids. Together they fill less than a
    // chunk; chunk starts fall differently in the four expansions, which is
    // a few allocations (two per chunk) besides buffer regrowth, where one
    // allocation per row would add `rows`.
    let rows = CHAINS * (STEPS as u64 - 1);
    let bytes = CHAINS as usize
        * (1..STEPS)
            .map(|k| 3 * 9 + 4 + 8 * (2 * k - 1))
            .sum::<usize>();
    assert!(
        bytes < CHUNK_BYTES,
        "{rows} rows of {bytes} bytes fit in one chunk"
    );
    const SLACK: u64 = 2 * 2 + 64;
    assert!(rows > SLACK);
    assert!(
        added < SLACK,
        "{rows} more emitted rows cost {added} more allocations"
    );
}
