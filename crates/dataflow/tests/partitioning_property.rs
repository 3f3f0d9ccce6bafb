//! Property tests for the partitioning fingerprint: over random operator
//! chains the stamp must follow the preserved-or-dropped rules exactly, and
//! whenever a dataset claims a partitioning, every record must actually sit
//! on the worker the claimed key hashes to — the fingerprint is never a lie.
//! A second property checks that a FORWARD-elided join finds exactly the
//! pairs of a nested-loop join while shipping nothing.
//!
//! Three more pin what "the last holder of a dataset gives its rows away"
//! may not change: a shuffle, join or index probe that moved its input and
//! one that had to copy it (a second handle was alive) produce the same
//! partitions in the same order, the same stamps and the same stage reports,
//! and the surviving handle still reads its rows; the consuming `union` is
//! the partition-wise concatenation whoever else holds its inputs; and the
//! chained build table matches duplicate-heavy keys in the order a
//! `Vec`-per-key table does — in the inner joins and the left outer join,
//! with or without a match predicate, down to their stage reports — while
//! the adjacency index probe walks each key's run in `(neighbor, edge)`
//! order. A last property checks that the partitioned and replicated
//! adjacency index return equal candidates for every key.

use std::collections::HashMap;
use std::sync::Arc;

use gradoop_dataflow::cost::StageCosts;
use gradoop_dataflow::partition::shuffle_by_key;
use gradoop_dataflow::{
    partition_for, AdjacencyIndex, CollectingSink, CostModel, Data, Dataset, ExecutionConfig,
    ExecutionEnvironment, JoinStrategy, PartitionKey, Partitioning,
};
use proptest::prelude::*;

type Record = (u8, u16);

fn key_k() -> PartitionKey {
    PartitionKey::named("prop.k")
}

fn key_v() -> PartitionKey {
    PartitionKey::named("prop.v")
}

/// One step of a random operator chain, with its documented effect on the
/// partitioning fingerprint.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Named shuffle by the first field: stamps `prop.k`.
    PartitionByK,
    /// Named shuffle by the second field: stamps `prop.v`.
    PartitionByV,
    /// Anonymous shuffle: real placement, but no stamp.
    PartitionAnon,
    /// Rewrites records, so any stamp is dropped.
    MapIncrement,
    /// Partition-local, record-preserving: stamp survives.
    FilterEven,
    /// Duplication via `flat_map`, which may rewrite keys: stamp dropped.
    FlatMapDup,
    /// Union with itself: both sides carry the same stamp, so it survives.
    UnionSelf,
    /// Shuffles anonymously and deduplicates: stamp dropped.
    Distinct,
}

const OPS: [Op; 8] = [
    Op::PartitionByK,
    Op::PartitionByV,
    Op::PartitionAnon,
    Op::MapIncrement,
    Op::FilterEven,
    Op::FlatMapDup,
    Op::UnionSelf,
    Op::Distinct,
];

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0..OPS.len()).prop_map(|i| OPS[i]), 0..8)
}

fn records() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec((0u8..8, 0u16..32), 0..24)
}

/// Applies one operator to the dataset and, in lockstep, to the model: the
/// expected element multiset and the expected stamp.
fn apply(
    ds: Dataset<Record>,
    model: &mut Vec<Record>,
    stamp: &mut Option<PartitionKey>,
    op: Op,
) -> Dataset<Record> {
    match op {
        Op::PartitionByK => {
            *stamp = Some(key_k());
            ds.partition_by(key_k(), |(k, _)| *k)
        }
        Op::PartitionByV => {
            *stamp = Some(key_v());
            ds.partition_by(key_v(), |(_, v)| *v)
        }
        Op::PartitionAnon => {
            *stamp = None;
            ds.partition_by_key(|(k, _)| *k)
        }
        Op::MapIncrement => {
            *stamp = None;
            for (_, v) in model.iter_mut() {
                *v = v.wrapping_add(1);
            }
            ds.map(|(k, v)| (*k, v.wrapping_add(1)))
        }
        Op::FilterEven => {
            model.retain(|(_, v)| v % 2 == 0);
            ds.filter(|(_, v)| v % 2 == 0)
        }
        Op::FlatMapDup => {
            *stamp = None;
            *model = model.iter().flat_map(|r| [*r, *r]).collect();
            ds.flat_map(|r, out| {
                out.push(*r);
                out.push(*r);
            })
        }
        Op::UnionSelf => {
            *model = model.iter().flat_map(|r| [*r, *r]).collect();
            ds.clone().union(ds)
        }
        Op::Distinct => {
            *stamp = None;
            model.sort_unstable();
            model.dedup();
            ds.distinct()
        }
    }
}

/// A heap-carrying row: moving and cloning it are different operations.
type Row = (u8, String);

/// `workers` partitions of heap-carrying rows with few distinct keys.
fn partitioned_rows(workers: usize) -> impl Strategy<Value = Vec<Vec<Row>>> {
    let row = (0u8..4, 0u16..32).prop_map(|(k, v)| (k, v.to_string()));
    proptest::collection::vec(proptest::collection::vec(row, 0..24), workers)
}

/// The adjacency triple of a row under `key`: the row's number `v` gives
/// the neighbor `v / 8` and the edge `v`, so runs hold equal neighbors with
/// different edges.
fn row_triple(key: impl Fn(&Row) -> u8, row: &Row) -> (u64, u64, u64) {
    let v: u64 = row.1.parse().expect("rows carry numbers");
    (u64::from(key(row)), v / 8, v)
}

/// Two partitionings over the same one to four workers.
fn two_partitioned_rows() -> impl Strategy<Value = (Vec<Vec<Row>>, Vec<Vec<Row>>)> {
    (1..5usize).prop_flat_map(|workers| (partitioned_rows(workers), partitioned_rows(workers)))
}

/// An environment that charges every record and byte, with a sink keeping
/// the stage reports.
/// The environment a modelled shuffle runs under: its panic policy only.
fn model_env(workers: usize) -> ExecutionEnvironment {
    ExecutionEnvironment::new(ExecutionConfig::with_workers(workers))
}

fn charging_env(workers: usize) -> (ExecutionEnvironment, Arc<CollectingSink>) {
    let env = ExecutionEnvironment::new(
        ExecutionConfig::with_workers(workers).cost_model(CostModel::cluster_2017()),
    );
    let sink = Arc::new(CollectingSink::new());
    env.set_trace_sink(Some(sink.clone()));
    (env, sink)
}

/// `rows` indexed by key, one `Vec` per key in row order.
fn table(rows: &[Row]) -> HashMap<u8, Vec<&Row>> {
    let mut table: HashMap<u8, Vec<&Row>> = HashMap::new();
    for row in rows {
        table.entry(row.0).or_default().push(row);
    }
    table
}

/// What a local hash join with one `Vec` of rows per key emits: built over
/// the smaller side, probed in the other side's order, matches in build
/// order.
fn vec_per_key_join(left: &[Row], right: &[Row]) -> Vec<(u8, String, String)> {
    let pair = |l: &Row, r: &Row| (l.0, l.1.clone(), r.1.clone());
    let mut out = Vec::new();
    if left.len() <= right.len() {
        let built = table(left);
        for r in right {
            out.extend(built.get(&r.0).into_iter().flatten().map(|l| pair(l, r)));
        }
    } else {
        let built = table(right);
        for l in left {
            out.extend(built.get(&l.0).into_iter().flatten().map(|r| pair(l, r)));
        }
    }
    out
}

/// What a left outer join emits per partition pair when the right side is
/// a `Vec` of rows per key: each left row once per accepted partner, in
/// right-side order, or once with `None`.
fn vec_per_key_outer(
    left: &[Row],
    right: &[Row],
    accept: impl Fn(&Row, &Row) -> bool,
) -> Vec<(u8, String, Option<String>)> {
    let built = table(right);
    let mut out = Vec::new();
    for l in left {
        let padded = |r: Option<&Row>| (l.0, l.1.clone(), r.map(|r| r.1.clone()));
        let before = out.len();
        for r in built
            .get(&l.0)
            .into_iter()
            .flatten()
            .filter(|r| accept(l, r))
        {
            out.push(padded(Some(r)));
        }
        if out.len() == before {
            out.push(padded(None));
        }
    }
    out
}

/// Runs `join` over fresh datasets on `left` and `right` and returns its
/// partitions and the rendered report of its one stage.
fn run_keyed_join<O: Data>(
    left: &[Vec<Row>],
    right: &[Vec<Row>],
    join: impl Fn(Dataset<Row>, Dataset<Row>) -> Dataset<O>,
) -> (Vec<Vec<O>>, String) {
    let (env, sink) = charging_env(left.len());
    let joined = join(
        Dataset::from_partitions(env.clone(), left.to_vec()),
        Dataset::from_partitions(env, right.to_vec()),
    );
    let stages = sink.snapshot().stages;
    assert_eq!(stages.len(), 1, "one stage per keyed join");
    (joined.partitions().to_vec(), format!("{:?}", stages[0]))
}

/// What [`run_keyed_join`] must return for a join named `name`: `local` over
/// each pair of partitions shuffled by the first field, and the report of a
/// stage that shuffles `left`, then `right`, and charges each worker the
/// records it read and wrote plus the memory and one scratch allocation of
/// the right side it built its table over.
fn model_keyed_join<O>(
    name: &'static str,
    left: &[Vec<Row>],
    right: &[Vec<Row>],
    local: impl Fn(&[Row], &[Row]) -> Vec<O>,
) -> (Vec<Vec<O>>, String) {
    let mut stage = StageCosts::new(name, left.len());
    let key = |row: &Row| row.0;
    let env = model_env(left.len());
    let left = shuffle_by_key(&env, Arc::new(left.to_vec()), key, &mut stage);
    let right = shuffle_by_key(&env, Arc::new(right.to_vec()), key, &mut stage);
    let outputs: Vec<Vec<O>> = left.iter().zip(&right).map(|(l, r)| local(l, r)).collect();
    for (i, ((l, r), out)) in left.iter().zip(&right).zip(&outputs).enumerate() {
        let build_bytes: u64 = r.iter().map(|row| row.byte_size() as u64).sum();
        let w = stage.worker(i);
        w.records_in += (l.len() + r.len()) as u64;
        w.records_out += out.len() as u64;
        w.peak_memory_bytes = w.peak_memory_bytes.max(build_bytes);
        w.scratch_allocations += 1;
    }
    (
        outputs,
        format!("{:?}", stage.finish(&CostModel::cluster_2017())),
    )
}

/// Every record of a stamped dataset must sit on the worker its claimed key
/// hashes to.
fn assert_placement_matches_stamp(ds: &Dataset<Record>, workers: usize) {
    let Some(Partitioning { key, workers: w }) = ds.partitioning() else {
        return;
    };
    assert_eq!(w, workers, "stamp must name the environment's worker count");
    for (index, part) in ds.partitions().iter().enumerate() {
        for &(k, v) in part {
            let target = if key == key_k() {
                partition_for(&k, workers)
            } else if key == key_v() {
                partition_for(&v, workers)
            } else {
                panic!("unexpected partition key {key:?}");
            };
            assert_eq!(
                target, index,
                "record ({k}, {v}) claims key {key:?} but sits on worker {index}"
            );
        }
    }
}

proptest! {
    /// The fingerprint model: after an arbitrary operator chain the stamp
    /// is exactly what the preserved-or-dropped rules predict, the claimed
    /// placement physically holds, and no operator lost or invented
    /// elements along the way.
    #[test]
    fn fingerprint_follows_the_preservation_rules(
        input in records(),
        chain in ops(),
        workers in 1..5usize,
    ) {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(workers).cost_model(CostModel::free()),
        );
        let mut ds = env.from_collection(input.clone());
        let mut model = input;
        let mut stamp: Option<PartitionKey> = None;
        for op in chain.iter() {
            ds = apply(ds, &mut model, &mut stamp, *op);
            prop_assert_eq!(
                ds.partitioning().map(|p| p.key),
                stamp,
                "stamp mismatch after {:?} (chain {:?})",
                op,
                chain
            );
            assert_placement_matches_stamp(&ds, workers);
        }
        let mut got = ds.collect();
        got.sort_unstable();
        let mut expected = model;
        expected.sort_unstable();
        prop_assert_eq!(got, expected, "elements diverged over chain {:?}", chain);
    }

    /// FORWARD elision is cost-only: a join whose sides are pre-partitioned
    /// on the join key produces exactly the pairs a nested-loop join finds,
    /// its one stage ships nothing, and it reads each input record once.
    #[test]
    fn forward_elided_joins_agree_with_a_nested_loop_join(
        left in records(),
        right in records(),
        workers in 1..5usize,
    ) {
        let (env, sink) = charging_env(workers);
        let left_ds = env
            .from_collection(left.clone())
            .partition_by(key_k(), |(k, _)| *k);
        let right_ds = env
            .from_collection(right.clone())
            .partition_by(key_k(), |(k, _)| *k);
        let mut joined = left_ds
            .join_partitioned(
                right_ds,
                key_k(),
                |(k, _)| *k,
                |(k, _)| *k,
                JoinStrategy::RepartitionHash,
                |(k, lv), (_, rv)| Some((*k, *lv, *rv)),
            )
            .collect();
        joined.sort_unstable();
        let join_stages: Vec<_> = sink
            .snapshot()
            .stages
            .into_iter()
            .filter(|s| s.name.starts_with("join("))
            .collect();

        let mut expected: Vec<(u8, u16, u16)> = Vec::new();
        for (lk, lv) in &left {
            for (rk, rv) in &right {
                if lk == rk {
                    expected.push((*lk, *lv, *rv));
                }
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(joined, expected, "FORWARD elision changed the join result");
        prop_assert_eq!(join_stages.len(), 1);
        prop_assert_eq!(join_stages[0].bytes_shuffled, 0);
        prop_assert_eq!(join_stages[0].records_in, (left.len() + right.len()) as u64);
    }

    /// Moving the rows of a last-held input and copying the rows of a
    /// shared one are the same shuffle: partitions, order, stamps and every
    /// charged record and byte agree, and the shared input is left as it
    /// was.
    #[test]
    fn moved_and_cloned_shuffles_are_indistinguishable(
        (left, right) in two_partitioned_rows(),
        key_on_text in any::<bool>(),
    ) {
        let workers = left.len();
        let key = move |row: &Row| if key_on_text { row.1.len() as u8 } else { row.0 };

        // The primitive itself.
        let mut moved_costs = StageCosts::new("shuffle", workers);
        let env = model_env(workers);
        let moved = shuffle_by_key(&env, Arc::new(left.clone()), key, &mut moved_costs);
        let survivor = Arc::new(left.clone());
        let mut cloned_costs = StageCosts::new("shuffle", workers);
        let cloned = shuffle_by_key(&env, Arc::clone(&survivor), key, &mut cloned_costs);
        prop_assert_eq!(&moved, &cloned);
        prop_assert_eq!(format!("{moved_costs:?}"), format!("{cloned_costs:?}"));
        prop_assert_eq!(&*survivor, &left);

        // A repartition join feeding an index probe, once owning its inputs
        // and once with a second handle on each of them alive.
        let run = |shared: bool| {
            let (env, sink) = charging_env(workers);
            let left_ds = Dataset::from_partitions(env.clone(), left.clone());
            let right_ds = Dataset::from_partitions(env.clone(), right.clone());
            let index = AdjacencyIndex::partitioned(right_ds.clone(), key_v(), |r| row_triple(key, r));
            let survivors = shared.then(|| (left_ds.clone(), right_ds.clone()));
            let joined = left_ds.join_partitioned(
                right_ds,
                key_k(),
                key,
                key,
                JoinStrategy::RepartitionHash,
                |l, r| Some((l.0, format!("{}-{}", l.1, r.1))),
            );
            let join_stamp = joined.partitioning();
            let also_joined = shared.then(|| joined.clone());
            let probed = index.probe_join(
                joined,
                |p| u64::from(key(p)),
                |p, neighbor, _| Some((p.0, p.1.clone(), neighbor)),
            );
            if let Some((left_kept, right_kept)) = &survivors {
                assert_eq!(left_kept.partitions(), left.as_slice());
                assert_eq!(right_kept.partitions(), right.as_slice());
            }
            drop(also_joined);
            (
                probed.partitions().to_vec(),
                join_stamp,
                probed.partitioning(),
                format!("{:?}", sink.snapshot().stages),
            )
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// The consuming union is the partition-wise concatenation, with the
    /// documented stamp, whichever of its inputs somebody else still holds
    /// — and those holders keep reading what they had.
    #[test]
    fn consuming_union_is_the_partitionwise_concatenation(
        (left, right) in two_partitioned_rows(),
        left_stamp in 0..3usize,
        right_stamp in 0..3usize,
        left_shared in any::<bool>(),
        right_shared in any::<bool>(),
    ) {
        let workers = left.len();
        let stamp = |choice: usize| {
            [None, Some(key_k()), Some(key_v())][choice].map(|key| Partitioning { key, workers })
        };
        let (env, sink) = charging_env(workers);
        let a = Dataset::from_partitions(env.clone(), left.clone())
            .assume_partitioning(stamp(left_stamp));
        let b = Dataset::from_partitions(env.clone(), right.clone())
            .assume_partitioning(stamp(right_stamp));
        let a_kept = left_shared.then(|| a.clone());
        let b_kept = right_shared.then(|| b.clone());
        let merged = a.union(b);

        let concatenation: Vec<Vec<Row>> = left
            .iter()
            .zip(&right)
            .map(|(l, r)| l.iter().chain(r).cloned().collect())
            .collect();
        prop_assert_eq!(merged.partitions(), concatenation.as_slice());
        let empty = |parts: &[Vec<Row>]| parts.iter().all(Vec::is_empty);
        let expected_stamp = match (stamp(left_stamp), stamp(right_stamp)) {
            (Some(l), Some(r)) if l == r => Some(l),
            (Some(l), _) if empty(&right) => Some(l),
            (_, Some(r)) if empty(&left) => Some(r),
            _ => None,
        };
        prop_assert_eq!(merged.partitioning(), expected_stamp);
        // Flink's union is free: no stage, nothing charged.
        prop_assert!(sink.snapshot().stages.is_empty());
        if let Some(kept) = a_kept {
            prop_assert_eq!(kept.partitions(), left.as_slice());
        }
        if let Some(kept) = b_kept {
            prop_assert_eq!(kept.partitions(), right.as_slice());
        }
    }

    /// On duplicate-heavy keys the chained build table yields every match a
    /// `Vec`-per-key table yields, in the same order, through the
    /// repartition hash join; the adjacency index yields them in
    /// `(neighbor, edge)` order within each key.
    #[test]
    fn chained_table_matches_in_vec_per_key_order(
        (left, right) in two_partitioned_rows(),
    ) {
        let workers = left.len();
        let key = |row: &Row| row.0;
        let model = model_env(workers);
        let shuffled = |parts: &[Vec<Row>]| {
            let mut stage = StageCosts::new("model", workers);
            shuffle_by_key(&model, Arc::new(parts.to_vec()), key, &mut stage)
        };
        let (left_placed, right_placed) = (shuffled(&left), shuffled(&right));

        let (env, _) = charging_env(workers);
        let left_ds = Dataset::from_partitions(env.clone(), left.clone());
        let right_ds = Dataset::from_partitions(env.clone(), right.clone());
        let pair = |l: &Row, r: &Row| Some((l.0, l.1.clone(), r.1.clone()));
        let joined = left_ds
            .clone()
            .join(right_ds.clone(), key, key, JoinStrategy::RepartitionHash, pair);
        let expected: Vec<Vec<(u8, String, String)>> = left_placed
            .iter()
            .zip(&right_placed)
            .map(|(l, r)| vec_per_key_join(l, r))
            .collect();
        prop_assert_eq!(joined.partitions(), expected.as_slice());

        // The index is always the build side: probe order outside, each
        // key's run sorted by `(neighbor, edge)` inside. Its key is a `u64`,
        // which hash-places rows apart from the `u8` join key.
        let index = AdjacencyIndex::partitioned(right_ds, key_k(), |r| row_triple(key, r));
        let wide = |row: &Row| u64::from(row.0);
        let probed = index.probe_join(left_ds, wide, |l, neighbor, edge| {
            Some((l.0, l.1.clone(), neighbor, edge))
        });
        let wide_placed = |parts: &[Vec<Row>]| {
            let mut stage = StageCosts::new("model", workers);
            shuffle_by_key(&model, Arc::new(parts.to_vec()), wide, &mut stage)
        };
        let expected: Vec<Vec<(u8, String, u64, u64)>> = wide_placed(&left)
            .iter()
            .zip(&wide_placed(&right))
            .map(|(probe, build)| {
                let mut out = Vec::new();
                for l in probe {
                    let mut run: Vec<(u64, u64)> = build
                        .iter()
                        .filter(|r| r.0 == l.0)
                        .map(|r| {
                            let (_, neighbor, edge) = row_triple(key, r);
                            (neighbor, edge)
                        })
                        .collect();
                    run.sort_unstable();
                    out.extend(run.into_iter().map(|(n, e)| (l.0, l.1.clone(), n, e)));
                }
                out
            })
            .collect();
        prop_assert_eq!(probed.partitions(), expected.as_slice());

        // The left outer join, with and without a match predicate: partitions,
        // in-partition order and stage report of a `Vec`-per-key join over the
        // same shuffled partitions.
        let padded = |l: &Row, r: Option<&Row>| Some((l.0, l.1.clone(), r.map(|r| r.1.clone())));
        let accept = |l: &Row, r: &Row| l.1 <= r.1;
        prop_assert_eq!(
            run_keyed_join(&left, &right, |l, r| {
                l.join_left_outer_filtered(r, key, key, |_, _| true, padded)
            }),
            model_keyed_join("join(left-outer-hash)", &left, &right, |l, r| {
                vec_per_key_outer(l, r, |_, _| true)
            })
        );
        prop_assert_eq!(
            run_keyed_join(&left, &right, |l, r| {
                l.join_left_outer_filtered(r, key, key, accept, padded)
            }),
            model_keyed_join("join(left-outer-hash)", &left, &right, |l, r| {
                vec_per_key_outer(l, r, accept)
            })
        );
    }

    /// Both placements of the adjacency index answer every key alike: the
    /// worker a key hash-places on holds exactly the replicated run, sorted
    /// by `(neighbor, edge)`, and no other worker holds any of it.
    #[test]
    fn adjacency_placements_return_equal_candidates_for_every_key(
        parts in (1..5usize).prop_flat_map(|workers| proptest::collection::vec(
            proptest::collection::vec((0u64..12, 0u64..6, 0u64..64), 0..32),
            workers,
        )),
    ) {
        let workers = parts.len();
        let (env, _) = charging_env(workers);
        let triples = Dataset::from_partitions(env, parts.clone());
        let partitioned =
            AdjacencyIndex::partitioned(triples.clone(), PartitionKey::named("adjacency.key"), |&t| t);
        let replicated = AdjacencyIndex::replicated(&triples, |&t| t);
        for key in 0..13u64 {
            let mut run: Vec<(u64, u64)> = parts
                .iter()
                .flatten()
                .filter(|t| t.0 == key)
                .map(|&(_, neighbor, edge)| (neighbor, edge))
                .collect();
            run.sort_unstable();
            let home = partition_for(&key, workers);
            for worker in 0..workers {
                prop_assert_eq!(replicated.candidates(worker, key), run.as_slice());
                let held = partitioned.candidates(worker, key);
                if worker == home {
                    prop_assert_eq!(held, run.as_slice());
                } else {
                    prop_assert!(held.is_empty());
                }
            }
        }
    }
}
