//! Equi-join transformations.
//!
//! Flink's optimizer chooses the shipping strategy of a join (repartition
//! vs broadcast vs FORWARD); the paper relies on that choice (Section 3.2).
//! Every strategy the query engine's planner can pick is implemented here,
//! each with a local hash join:
//!
//! * [`JoinStrategy::RepartitionHash`] — both sides are hash-partitioned by
//!   key; each worker builds a hash table over its smaller side and probes
//!   with the other. Build sides larger than the worker memory budget spill.
//! * [`JoinStrategy::BroadcastHashSecond`] / [`JoinStrategy::BroadcastHashFirst`]
//!   — one (small) side is replicated to every worker; the other side stays
//!   in place. No shuffle of the large side.
//!
//! [`Dataset::join_partitioned`] additionally names the join key with a
//! [`PartitionKey`]: a side whose [`Partitioning`] fingerprint already
//! matches is *forwarded* — its shuffle is skipped and zero network bytes
//! are charged for it (Flink's FORWARD ship strategy) — and the output is
//! stamped as partitioned on the join key, so chained joins on the same key
//! pay the shuffle once.
//!
//! The join function has *FlatJoin* semantics (paper Section 3.1): it may
//! reject a pair by returning `None`, which is how isomorphism checks are
//! fused into joins without materializing rejected embeddings.
//!
//! Every join **consumes** both inputs: a side that has to be shuffled and
//! whose handle is the last one is moved into place, not copied (see
//! [`shuffle_by_key`]). Pass a clone to keep using an input.
//!
//! Every repartitioned join — the inner joins here and the filtered left
//! outer join of `outer_join.rs` — runs as one stage body,
//! `Dataset::repartition_join`: it ships both sides, builds one
//! `ChainedTable` per partition (two flat allocations however many
//! distinct keys there are, so a join allocates nothing per shipped row or
//! per key), hands each partition pair to the join's probe, and charges the
//! memory of the side it built. What an output row costs is up to the join
//! function that writes it.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use crate::cost::{StageCosts, WorkerCost};
use crate::data::Data;
use crate::dataset::Dataset;
use crate::partition::{shuffle_by_key, PartitionKey, Partitioning, TableHasher};

/// Shipping strategy for an equi-join; the local strategy is always a hash
/// join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Hash-partition both inputs, hash-join locally (Flink
    /// `REPARTITION_HASH`). The default for two large inputs.
    #[default]
    RepartitionHash,
    /// Replicate the *first* (left) input to all workers, hash-join against
    /// the stationary second input.
    BroadcastHashFirst,
    /// Replicate the *second* (right) input to all workers.
    BroadcastHashSecond,
}

/// Which side a repartitioned join builds each partition's table over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Build {
    /// The side with fewer rows in the partition (inner joins).
    Smaller,
    /// Always the right side (the left outer join, whose probe walks every
    /// left row).
    Right,
}

impl Build {
    /// The side a partition of `left` and `right` rows builds over.
    fn side(self, left: usize, right: usize) -> BuildSide {
        match self {
            Build::Smaller if left <= right => BuildSide::Left,
            _ => BuildSide::Right,
        }
    }
}

/// Which local side a hash join built its table over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BuildSide {
    Left,
    Right,
}

/// Ships one join side and returns its partitions: the dataset's own,
/// untouched (FORWARD, free), when its fingerprint already matches the named
/// join key, else the output of a full `shuffle_by_key` charged to `stage`.
/// Either way each worker is charged for reading the rows that arrived.
pub(crate) fn ship_side<T, K, F>(
    side: Dataset<T>,
    key_id: Option<PartitionKey>,
    key: &F,
    stage: &mut StageCosts,
) -> Arc<Vec<Vec<T>>>
where
    T: Data,
    K: Hash,
    F: Fn(&T) -> K + Sync,
{
    let forwarded = key_id.is_some_and(|key| {
        side.partitioning()
            == Some(Partitioning {
                key,
                workers: side.env().workers(),
            })
    });
    let shipped = if forwarded {
        side.into_partitions()
    } else {
        let env = side.env().clone();
        Arc::new(shuffle_by_key(&env, side.into_partitions(), key, stage))
    };
    stage.read(&shipped);
    shipped
}

/// The build side of a local hash join and the index of a group-by: key →
/// index of the first row that carries it, and per row the index of the
/// next row with the same key. Two allocations per table, none per key.
/// [`ChainedTable::matches`] walks a chain in insertion order;
/// [`ChainedTable::heads`] lists the keys in the order they first appear.
pub(crate) struct ChainedTable<K> {
    first: HashMap<K, u32, TableHasher>,
    next: Vec<u32>,
}

/// End of a chain.
const NO_ROW: u32 = u32::MAX;

impl<K: Hash + Eq> ChainedTable<K> {
    /// Indexes a join's build side `rows` by `key`. The key map is sized
    /// for every row to carry a key of its own, so it is allocated once
    /// however many distinct keys there are.
    pub(crate) fn build<'a, T>(rows: &'a [T], key: impl Fn(&'a T) -> K) -> Self {
        Self::index(
            rows,
            HashMap::with_capacity_and_hasher(rows.len(), TableHasher::default()),
            key,
        )
    }

    /// Indexes `rows` by a group key, which may borrow from the rows.
    /// Groups are usually far fewer than rows, so the key map grows with
    /// the keys instead of being sized for the rows.
    pub(crate) fn group<'a, T>(rows: &'a [T], key: impl Fn(&'a T) -> K) -> Self {
        Self::index(rows, HashMap::default(), key)
    }

    fn index<'a, T>(
        rows: &'a [T],
        mut first: HashMap<K, u32, TableHasher>,
        key: impl Fn(&'a T) -> K,
    ) -> Self {
        assert!(
            rows.len() < NO_ROW as usize,
            "a partition holds fewer than 2^32 - 1 rows"
        );
        let mut next = vec![NO_ROW; rows.len()];
        // Back to front, so each row is linked in front of the later rows
        // of its key and every chain ascends.
        for (i, row) in rows.iter().enumerate().rev() {
            if let Some(later) = first.insert(key(row), i as u32) {
                next[i] = later;
            }
        }
        ChainedTable { first, next }
    }

    /// Indices of the rows whose key equals `key`, in insertion order.
    pub(crate) fn matches(&self, key: &K) -> impl Iterator<Item = usize> + '_ {
        let mut row = self.first.get(key).copied().unwrap_or(NO_ROW);
        std::iter::from_fn(move || {
            (row != NO_ROW).then(|| {
                let current = row as usize;
                row = self.next[current];
                current
            })
        })
    }

    /// The first row of every key, ascending: the keys in first-seen order.
    pub(crate) fn heads(&self) -> impl Iterator<Item = usize> + '_ {
        let mut linked = vec![false; self.next.len()];
        for &later in &self.next {
            if later != NO_ROW {
                linked[later as usize] = true;
            }
        }
        (0..self.next.len()).filter(move |&row| !linked[row])
    }
}

impl<T: Data> Dataset<T> {
    /// Equi-join with FlatJoin semantics: `join_fn` returns `Some(output)`
    /// to emit a joined element or `None` to reject the pair. The join key
    /// is anonymous, so no shuffle can be elided; see
    /// [`Dataset::join_partitioned`] for the partitioning-aware variant.
    ///
    /// Consumes both inputs: a shuffled side moves its rows if this was the
    /// last handle on it. Pass a clone to keep using an input.
    pub fn join<R, K, O, KL, KR, F>(
        self,
        right: Dataset<R>,
        left_key: KL,
        right_key: KR,
        strategy: JoinStrategy,
        join_fn: F,
    ) -> Dataset<O>
    where
        R: Data,
        O: Data,
        K: Hash + Eq,
        KL: Fn(&T) -> K + Sync,
        KR: Fn(&R) -> K + Sync,
        F: Fn(&T, &R) -> Option<O> + Sync,
    {
        self.join_with_key(right, None, left_key, right_key, strategy, join_fn)
    }

    /// Like [`Dataset::join`], but names the join key with a
    /// [`PartitionKey`]. A side already partitioned on `key_id` is
    /// forwarded instead of shuffled (zero network bytes for that side),
    /// and repartitioning strategies stamp the output as partitioned on
    /// `key_id`, so a chained join on the same key elides its shuffle too.
    ///
    /// `key_id` must actually describe the values `left_key`/`right_key`
    /// extract — callers that reuse a key id across joins must extract the
    /// same semantic key each time.
    pub fn join_partitioned<R, K, O, KL, KR, F>(
        self,
        right: Dataset<R>,
        key_id: PartitionKey,
        left_key: KL,
        right_key: KR,
        strategy: JoinStrategy,
        join_fn: F,
    ) -> Dataset<O>
    where
        R: Data,
        O: Data,
        K: Hash + Eq,
        KL: Fn(&T) -> K + Sync,
        KR: Fn(&R) -> K + Sync,
        F: Fn(&T, &R) -> Option<O> + Sync,
    {
        self.join_with_key(right, Some(key_id), left_key, right_key, strategy, join_fn)
    }

    fn join_with_key<R, K, O, KL, KR, F>(
        self,
        right: Dataset<R>,
        key_id: Option<PartitionKey>,
        left_key: KL,
        right_key: KR,
        strategy: JoinStrategy,
        join_fn: F,
    ) -> Dataset<O>
    where
        R: Data,
        O: Data,
        K: Hash + Eq,
        KL: Fn(&T) -> K + Sync,
        KR: Fn(&R) -> K + Sync,
        F: Fn(&T, &R) -> Option<O> + Sync,
    {
        match strategy {
            JoinStrategy::RepartitionHash => self.repartition_join(
                "join(repartition-hash)",
                right,
                key_id,
                (&left_key, &right_key),
                Build::Smaller,
                |l, r, side, table| probe_inner(l, r, side, table, &left_key, &right_key, &join_fn),
            ),
            JoinStrategy::BroadcastHashFirst => {
                // Symmetric to broadcasting the second input: broadcast self
                // and probe from the right side, flipping the join function.
                right.broadcast_hash_join(&self, key_id, right_key, left_key, |r, l| join_fn(l, r))
            }
            JoinStrategy::BroadcastHashSecond => {
                self.broadcast_hash_join(&right, key_id, left_key, right_key, join_fn)
            }
        }
    }

    /// The one stage body of every repartitioned join, run as `name`.
    ///
    /// Ships both sides on the join key ([`ship_side`]: moved when this is
    /// the last handle, FORWARD when the fingerprint already matches
    /// `key_id`), builds one [`ChainedTable`] per partition over the side
    /// `build` names, runs `probe(left, right, built side, table)` per
    /// partition pair as one task of the stage runner, and charges each
    /// worker the records it read and wrote plus the peak memory, one
    /// scratch allocation and the spill overflow of the side it built.
    pub(crate) fn repartition_join<R, K, O, KL, KR, F>(
        self,
        name: &'static str,
        right: Dataset<R>,
        key_id: Option<PartitionKey>,
        (left_key, right_key): (&KL, &KR),
        build: Build,
        probe: F,
    ) -> Dataset<O>
    where
        R: Data,
        O: Data,
        K: Hash + Eq,
        KL: Fn(&T) -> K + Sync,
        KR: Fn(&R) -> K + Sync,
        F: Fn(&[T], &[R], BuildSide, &ChainedTable<K>) -> Vec<O> + Sync,
    {
        let env = self.env().clone();
        let mut stage = env.stage(name);
        let left_parts = ship_side(self, key_id, left_key, &mut stage);
        let right_parts = ship_side(right, key_id, right_key, &mut stage);

        let memory = env.cost_model().memory_per_worker;
        let outputs = env.run_stage(stage, |i, cost| {
            let (l, r) = (&left_parts[i], &right_parts[i]);
            let side = build.side(l.len(), r.len());
            let (table, build_bytes) = match side {
                BuildSide::Left => (ChainedTable::build(l, left_key), bytes_of(l)),
                BuildSide::Right => (ChainedTable::build(r, right_key), bytes_of(r)),
            };
            charge_build(cost, build_bytes, memory);
            probe(l, r, side, &table)
        });
        // Both sides now sit on partition_for(join key), and every output
        // row carries that key value: the output is partitioned on it.
        let stamp = key_id.map(|key| Partitioning {
            key,
            workers: env.workers(),
        });
        Dataset::from_partitions(env, outputs).assume_partitioning(stamp)
    }

    fn broadcast_hash_join<R, K, O, KL, KR, F>(
        &self,
        right: &Dataset<R>,
        key_id: Option<PartitionKey>,
        left_key: KL,
        right_key: KR,
        join_fn: F,
    ) -> Dataset<O>
    where
        R: Data,
        O: Data,
        K: Hash + Eq,
        KL: Fn(&T) -> K + Sync,
        KR: Fn(&R) -> K + Sync,
        F: Fn(&T, &R) -> Option<O> + Sync,
    {
        let env = self.env().clone();
        let mut stage = env.stage("join(broadcast-hash)");

        // Broadcast the right side. The simulation charges the replication
        // but probes the original records through borrows — no copy is
        // materialized.
        let broadcast: Vec<&R> = right.partitions().iter().flatten().collect();
        let total_bytes = charge_replication(right.partitions(), &mut stage);

        // Each worker reads its stationary fragment and the full broadcast
        // set, builds over the smaller of the two and charges the side it
        // built.
        stage.read(self.partitions());
        stage.read_replicated(broadcast.len() as u64);
        let broadcast_key = |r: &&R| right_key(r);
        let memory = env.cost_model().memory_per_worker;
        let outputs = env.run_stage(stage, |i, cost| {
            let left = &self.partitions()[i];
            let side = Build::Smaller.side(left.len(), broadcast.len());
            let (table, build_bytes) = match side {
                BuildSide::Left => (ChainedTable::build(left, &left_key), bytes_of(left)),
                BuildSide::Right => (ChainedTable::build(&broadcast, broadcast_key), total_bytes),
            };
            charge_build(cost, build_bytes, memory);
            probe_inner(
                left,
                &broadcast,
                side,
                &table,
                &left_key,
                broadcast_key,
                |l: &T, r: &&R| join_fn(l, r),
            )
        });
        // Outputs stay on the stationary side's workers, so its fingerprint
        // carries over when it already matches the named join key.
        let stamp = key_id.and_then(|key| {
            let target = Partitioning {
                key,
                workers: env.workers(),
            };
            (self.partitioning() == Some(target)).then_some(target)
        });
        Dataset::from_partitions(env, outputs).assume_partitioning(stamp)
    }
}

/// The inner-join probe of a table built over `side`: walks the other
/// side's rows in order and, per row, its matches in build order, emitting
/// every pair `join_fn` accepts.
fn probe_inner<L, R, K, O>(
    left: &[L],
    right: &[R],
    side: BuildSide,
    table: &ChainedTable<K>,
    left_key: impl Fn(&L) -> K,
    right_key: impl Fn(&R) -> K,
    join_fn: impl Fn(&L, &R) -> Option<O>,
) -> Vec<O>
where
    K: Hash + Eq,
{
    let mut out = Vec::new();
    if left.is_empty() || right.is_empty() {
        return out;
    }
    match side {
        BuildSide::Left => {
            for r in right {
                for l in table.matches(&right_key(r)) {
                    out.extend(join_fn(&left[l], r));
                }
            }
        }
        BuildSide::Right => {
            for l in left {
                for r in table.matches(&left_key(l)) {
                    out.extend(join_fn(l, &right[r]));
                }
            }
        }
    }
    out
}

/// Serialized bytes of `rows`.
pub(crate) fn bytes_of<T: Data>(rows: &[T]) -> u64 {
    rows.iter().map(|e| e.byte_size() as u64).sum()
}

/// Charges the replication of `fragments` to every worker — each sends its
/// fragment to all others and receives every other fragment — and returns
/// the bytes of the whole replicated set.
pub(crate) fn charge_replication<T: Data>(fragments: &[Vec<T>], stage: &mut StageCosts) -> u64 {
    let bytes: Vec<u64> = fragments.iter().map(|part| bytes_of(part)).collect();
    let total: u64 = bytes.iter().sum();
    for (i, &fragment) in bytes.iter().enumerate() {
        let w = stage.worker(i);
        w.bytes_sent += fragment * (bytes.len() as u64 - 1);
        w.bytes_received += total - fragment;
    }
    total
}

/// Charges a worker for the table or index it built over `build_bytes`: the
/// peak memory, one scratch allocation, and — grace-hash style — the
/// overflow beyond the `memory` budget, written out and re-read.
pub(crate) fn charge_build(w: &mut WorkerCost, build_bytes: u64, memory: usize) {
    w.peak_memory_bytes = w.peak_memory_bytes.max(build_bytes);
    w.scratch_allocations += 1;
    if build_bytes as usize > memory {
        w.bytes_spilled += build_bytes - memory as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::env::{ExecutionConfig, ExecutionEnvironment};

    fn env(workers: usize) -> ExecutionEnvironment {
        ExecutionEnvironment::new(
            ExecutionConfig::with_workers(workers).cost_model(CostModel::free()),
        )
    }

    fn expected_pairs() -> Vec<(u64, String)> {
        vec![
            (1, "a1".into()),
            (1, "b1".into()),
            (2, "a2".into()),
            (2, "b2".into()),
        ]
    }

    fn run_join(strategy: JoinStrategy, workers: usize) -> Vec<(u64, String)> {
        let env = env(workers);
        let left = env.from_collection(vec![1u64, 2, 3]);
        let right = env.from_collection(vec![
            (1u64, "a1".to_string()),
            (1, "b1".to_string()),
            (2, "a2".to_string()),
            (2, "b2".to_string()),
            (9, "x".to_string()),
        ]);
        let joined = left.join(
            right,
            |l| *l,
            |(k, _)| *k,
            strategy,
            |l, (_, v)| Some((*l, v.clone())),
        );
        let mut result = joined.collect();
        result.sort();
        result
    }

    #[test]
    fn chained_table_walks_each_key_in_insertion_order() {
        let rows = [3u8, 1, 3, 2, 1, 3];
        let table = ChainedTable::build(&rows, |row| *row);
        let matches = |key: u8| table.matches(&key).collect::<Vec<_>>();
        assert_eq!(matches(3), vec![0, 2, 5]);
        assert_eq!(matches(1), vec![1, 4]);
        assert_eq!(matches(2), vec![3]);
        assert!(matches(9).is_empty());
        assert!(ChainedTable::build(&[] as &[u8], |row| *row)
            .matches(&3)
            .next()
            .is_none());
        assert_eq!(table.heads().collect::<Vec<_>>(), vec![0, 1, 3]);
    }

    #[test]
    fn repartition_hash_join_matches() {
        assert_eq!(run_join(JoinStrategy::RepartitionHash, 4), expected_pairs());
    }

    #[test]
    fn broadcast_second_join_matches() {
        assert_eq!(
            run_join(JoinStrategy::BroadcastHashSecond, 4),
            expected_pairs()
        );
    }

    #[test]
    fn broadcast_first_join_matches() {
        assert_eq!(
            run_join(JoinStrategy::BroadcastHashFirst, 4),
            expected_pairs()
        );
    }

    #[test]
    fn all_strategies_agree_on_single_worker() {
        let expected = expected_pairs();
        for strategy in [
            JoinStrategy::RepartitionHash,
            JoinStrategy::BroadcastHashFirst,
            JoinStrategy::BroadcastHashSecond,
        ] {
            assert_eq!(run_join(strategy, 1), expected, "{strategy:?}");
        }
    }

    #[test]
    fn flat_join_can_reject_pairs() {
        let env = env(2);
        let left = env.from_collection(vec![1u64, 2]);
        let right = env.from_collection(vec![(1u64, 10u64), (2, 20)]);
        let joined = left.join(
            right,
            |l| *l,
            |(k, _)| *k,
            JoinStrategy::RepartitionHash,
            |l, (_, v)| if *v >= 20 { Some((*l, *v)) } else { None },
        );
        assert_eq!(joined.collect(), vec![(2, 20)]);
    }

    #[test]
    fn join_with_duplicate_keys_produces_cross_product_per_key() {
        let env = env(2);
        let left = env.from_collection(vec![1u64, 1]);
        let right = env.from_collection(vec![(1u64, 1u64), (1, 2), (1, 3)]);
        let joined = left.join(
            right,
            |l| *l,
            |(k, _)| *k,
            JoinStrategy::RepartitionHash,
            |_, (_, v)| Some(*v),
        );
        assert_eq!(joined.count(), 6);
    }

    #[test]
    fn empty_sides_produce_empty_output() {
        let env = env(2);
        let left = env.from_collection(Vec::<u64>::new());
        let right = env.from_collection(vec![(1u64, 2u64)]);
        let joined = left.join(
            right,
            |l| *l,
            |(k, _)| *k,
            JoinStrategy::RepartitionHash,
            |_, _| Some(0u64),
        );
        assert_eq!(joined.count(), 0);
    }

    #[test]
    fn repartition_join_shuffles_bytes() {
        let config = ExecutionConfig::with_workers(4);
        let env = ExecutionEnvironment::new(config);
        let left = env.from_collection(0u64..1000);
        let right = env.from_collection((0u64..1000).map(|i| (i, i)).collect::<Vec<_>>());
        env.reset_metrics();
        let _ = left.join(
            right,
            |l| *l,
            |(k, _)| *k,
            JoinStrategy::RepartitionHash,
            |l, _| Some(*l),
        );
        assert!(env.metrics().bytes_shuffled > 0);
    }

    #[test]
    fn prepartitioned_sides_join_without_shuffling() {
        let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4));
        let key = PartitionKey::named("id");
        let left = env.from_collection(0u64..1000).partition_by(key, |l| *l);
        let right = env
            .from_collection((0u64..1000).map(|i| (i, i)).collect::<Vec<_>>())
            .partition_by(key, |(k, _)| *k);
        env.reset_metrics();
        let joined = left.join_partitioned(
            right,
            key,
            |l| *l,
            |(k, _)| *k,
            JoinStrategy::RepartitionHash,
            |l, _| Some(*l),
        );
        // Both sides forwarded: the join charges zero network bytes.
        assert_eq!(env.metrics().bytes_shuffled, 0);
        assert_eq!(joined.len_untracked(), 1000);
        assert_eq!(
            joined.partitioning(),
            Some(Partitioning { key, workers: 4 })
        );
    }

    #[test]
    fn chained_join_on_same_key_shuffles_only_the_new_side() {
        let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4));
        let key = PartitionKey::named("id");
        let left = env.from_collection(0u64..500).partition_by(key, |l| *l);
        let middle = env.from_collection((0u64..500).map(|i| (i, i)).collect::<Vec<_>>());
        let right = env.from_collection((0u64..500).map(|i| (i, i * 2)).collect::<Vec<_>>());
        env.reset_metrics();
        // First join: only `middle` pays a shuffle.
        let first = left.join_partitioned(
            middle,
            key,
            |l| *l,
            |(k, _)| *k,
            JoinStrategy::RepartitionHash,
            |l, (_, v)| Some((*l, *v)),
        );
        let after_first = env.metrics().bytes_shuffled;
        // The raw `middle` shuffle alone, measured on a fresh join of two
        // unpartitioned copies, would charge both sides; here the output is
        // already stamped, so the second join only ships `right`.
        let second = first.join_partitioned(
            right.clone(),
            key,
            |(k, _)| *k,
            |(k, _)| *k,
            JoinStrategy::RepartitionHash,
            |(k, a), (_, b)| Some((*k, *a, *b)),
        );
        let second_cost = env.metrics().bytes_shuffled - after_first;
        assert_eq!(second.len_untracked(), 500);
        // Shuffling `right` alone costs what an unpartitioned copy ships.
        env.reset_metrics();
        let _ = right.partition_by_key(|(k, _)| *k);
        assert_eq!(second_cost, env.metrics().bytes_shuffled);
    }

    #[test]
    fn small_memory_budget_triggers_spill() {
        let config = ExecutionConfig::with_workers(1).cost_model(CostModel {
            memory_per_worker: 16,
            ..CostModel::free()
        });
        let env = ExecutionEnvironment::new(config);
        let left = env.from_collection(0u64..100);
        let right = env.from_collection((0u64..100).map(|i| (i, i)).collect::<Vec<_>>());
        env.reset_metrics();
        let _ = left.join(
            right,
            |l| *l,
            |(k, _)| *k,
            JoinStrategy::RepartitionHash,
            |l, _| Some(*l),
        );
        assert!(env.metrics().bytes_spilled > 0);
    }

    #[test]
    fn broadcast_join_charges_build_on_the_side_actually_built() {
        // Tiny stationary side (1 record, 8 bytes) vs a large broadcast side
        // (200 records, 1600 bytes) with a 64-byte memory budget. The local
        // join builds over the *stationary* side, so nothing spills — the
        // old accounting charged the full broadcast side and spilled ~1536B.
        let config = ExecutionConfig::with_workers(1).cost_model(CostModel {
            memory_per_worker: 64,
            ..CostModel::free()
        });
        let env = ExecutionEnvironment::new(config);
        let left = env.from_collection(vec![5u64]);
        let right = env.from_collection((0u64..200).map(|i| (i % 10, i)).collect::<Vec<_>>());
        env.reset_metrics();
        let joined = left.join(
            right,
            |l| *l,
            |(k, _)| *k,
            JoinStrategy::BroadcastHashSecond,
            |l, (_, v)| Some((*l, *v)),
        );
        assert_eq!(joined.count(), 20);
        assert_eq!(env.metrics().bytes_spilled, 0);

        // Flipped sizes: the broadcast side is smaller than the stationary
        // fragment, so the broadcast set is built — and only its overflow
        // spills (2 records × 16 bytes = 32 bytes, budget 16).
        let config = ExecutionConfig::with_workers(1).cost_model(CostModel {
            memory_per_worker: 16,
            ..CostModel::free()
        });
        let env = ExecutionEnvironment::new(config);
        let left = env.from_collection(0u64..100);
        let right = env.from_collection(vec![(1u64, 1u64), (2, 2)]);
        env.reset_metrics();
        let _ = left.join(
            right,
            |l| *l,
            |(k, _)| *k,
            JoinStrategy::BroadcastHashSecond,
            |l, _| Some(*l),
        );
        assert_eq!(env.metrics().bytes_spilled, 32 - 16);
    }
}
