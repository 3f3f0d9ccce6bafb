//! Grouping and aggregation transformations (Flink `groupBy` + `reduce`).
//!
//! Grouping consumes its input: the shuffle moves the rows when it holds
//! their last handle, and each key's computed value rides along with its
//! row ([`shuffle_with_keys`]). Every shuffled partition is then indexed by
//! the `ChainedTable` the joins build, borrowing those keys — no allocation
//! per group — and groups are emitted in the order their keys first
//! appear, so repeated runs over the same input produce identical
//! partitions.

use std::hash::Hash;

use crate::data::Data;
use crate::dataset::Dataset;
use crate::join::ChainedTable;
use crate::partition::shuffle_with_keys;
use crate::pool::Handoff;

impl<T: Data> Dataset<T> {
    /// Groups elements by key (shuffling equal keys to one worker) and
    /// reduces every group with `reduce`, which sees the key and all group
    /// members, in input order, as one mutable slice it may reorder or take
    /// rows from. Equivalent to Flink's `groupBy(...).reduceGroup(...)`.
    ///
    /// Groups are emitted in first-seen key order within each partition, so
    /// repeated runs over the same input produce identical output — hash
    /// order must never leak into partition contents (the fault-tolerance
    /// tests compare result digests). Members are moved into one scratch
    /// buffer reused for every group of a partition, so a group costs no
    /// allocation of its own.
    pub fn group_reduce<K, O, KF, RF>(self, key: KF, reduce: RF) -> Dataset<O>
    where
        K: Hash + Eq + Send,
        O: Data,
        KF: Fn(&T) -> K + Sync,
        RF: Fn(&K, &mut [T]) -> O + Sync,
    {
        let env = self.env().clone();
        // The shuffle computes each record's key exactly once and lets it
        // ride along to the grouping stage — group keys can be expensive
        // (grouping rows, decoded property values), so they must not be
        // re-derived per record after the shuffle.
        let mut shuffle_stage = env.stage("partition_by_key");
        let keyed = shuffle_with_keys(&env, self.into_partitions(), &key, &mut shuffle_stage);
        env.finish_stage(shuffle_stage);
        let mut stage = env.stage("group_reduce");
        stage.read(&keyed);
        let keyed = Handoff::new(keyed);
        let outputs = env.run_stage(stage, |i, _| {
            let (keys, mut rows): (Vec<K>, Vec<Option<T>>) = keyed
                .take(i)
                .into_iter()
                .map(|(k, row)| (k, Some(row)))
                .unzip();
            let table = ChainedTable::group(&keys, |k| k);
            let mut members: Vec<T> = Vec::new();
            table
                .heads()
                .map(|head| {
                    let key = &keys[head];
                    members.clear();
                    members.extend(
                        table
                            .matches(&key)
                            .map(|row| rows[row].take().expect("a row is in one group")),
                    );
                    reduce(key, &mut members)
                })
                .collect()
        });
        Dataset::from_partitions(env, outputs)
    }

    /// Counts elements per key. A pre-aggregation runs on each worker before
    /// the shuffle (Flink's combiner), so only one record per key and worker
    /// crosses the network. Like [`Dataset::group_reduce`], every stage
    /// emits its keys in first-seen order.
    pub fn count_by_key<K, KF>(&self, key: KF) -> Dataset<(K, u64)>
    where
        K: Data + Hash + Eq,
        KF: Fn(&T) -> K + Sync,
    {
        // Local pre-aggregation.
        let partial: Dataset<(K, u64)> = self.count_locally(&key);
        partial.group_reduce(
            |(k, _)| k.clone(),
            |k, members| (k.clone(), members.iter().map(|(_, c)| *c).sum()),
        )
    }

    fn count_locally<K, KF>(&self, key: &KF) -> Dataset<(K, u64)>
    where
        K: Data + Hash + Eq,
        KF: Fn(&T) -> K + Sync,
    {
        let env = self.env().clone();
        let mut stage = env.stage("count_by_key(combine)");
        stage.read(self.partitions());
        let outputs = env.run_stage(stage, |i, _| {
            let part = &self.partitions()[i];
            let table = ChainedTable::group(part, key);
            table
                .heads()
                .map(|head| {
                    let k = key(&part[head]);
                    let count = table.matches(&k).count() as u64;
                    (k, count)
                })
                .collect()
        });
        Dataset::from_partitions(env, outputs)
    }
}

#[cfg(test)]
mod tests {
    use crate::cost::CostModel;
    use crate::env::{ExecutionConfig, ExecutionEnvironment};

    fn env(workers: usize) -> ExecutionEnvironment {
        ExecutionEnvironment::new(
            ExecutionConfig::with_workers(workers).cost_model(CostModel::free()),
        )
    }

    #[test]
    fn group_reduce_sees_whole_groups() {
        let env = env(4);
        let ds = env.from_collection((0u64..100).map(|i| (i % 3, i)).collect::<Vec<_>>());
        let sums = ds.group_reduce(
            |(k, _)| *k,
            |k, members| (*k, members.iter().map(|(_, v)| *v).sum::<u64>()),
        );
        let mut result = sums.collect();
        result.sort();
        let expect = |m: u64| (0..100).filter(|i| i % 3 == m).sum::<u64>();
        assert_eq!(result, vec![(0, expect(0)), (1, expect(1)), (2, expect(2))]);
    }

    #[test]
    fn group_reduce_output_order_is_deterministic() {
        // Many distinct keys so a hash-order leak would almost
        // surely reorder something between runs (and across key types whose
        // hashes collide differently). Identical runs must produce
        // identical partition contents, and the order must be the
        // first-seen order of keys within each partition.
        let input: Vec<(u64, u64)> = (0u64..500).map(|i| ((i * 37) % 101, i)).collect();
        let reference: Vec<Vec<(u64, u64)>> = {
            let env = env(4);
            let ds = env.from_collection(input.clone());
            let reduced = ds.group_reduce(
                |(k, _)| *k,
                |k, members| (*k, members.iter().map(|(_, v)| *v).sum::<u64>()),
            );
            reduced.partitions().to_vec()
        };
        for _ in 0..5 {
            let env = env(4);
            let ds = env.from_collection(input.clone());
            let reduced = ds.group_reduce(
                |(k, _)| *k,
                |k, members| (*k, members.iter().map(|(_, v)| *v).sum::<u64>()),
            );
            assert_eq!(reduced.partitions().to_vec(), reference);
        }
        // First-seen order: a single-worker run over a known sequence must
        // emit groups in the order their keys first appear.
        let env = env(1);
        let ds = env.from_collection(vec![(3u64, 1u64), (1, 10), (3, 2), (2, 5), (1, 20)]);
        let reduced = ds.group_reduce(
            |(k, _)| *k,
            |k, members| (*k, members.iter().map(|(_, v)| *v).sum::<u64>()),
        );
        assert_eq!(reduced.collect(), vec![(3, 3), (1, 30), (2, 5)]);
    }

    #[test]
    fn count_by_key_counts() {
        let env = env(3);
        let ds = env.from_collection(vec![1u64, 1, 2, 3, 3, 3]);
        let mut counts = ds.count_by_key(|x| *x).collect();
        counts.sort();
        assert_eq!(counts, vec![(1, 2), (2, 1), (3, 3)]);
    }

    #[test]
    fn count_by_key_output_order_is_deterministic() {
        // 500 keys over 4 workers: a combiner that emitted in hash order
        // would reorder the partitions of fresh environments.
        let counts = || {
            let env = env(4);
            let ds = env.from_collection((0u64..2_000).map(|i| (i * 7919) % 500));
            ds.count_by_key(|x| *x).partitions().to_vec()
        };
        let reference = counts();
        assert_eq!(reference.iter().map(Vec::len).sum::<usize>(), 500);
        for _ in 0..5 {
            assert_eq!(counts(), reference);
        }
        // First-seen order through the combiner and the final reduce.
        let env = env(1);
        let ds = env.from_collection(vec![3u64, 1, 3, 2, 1, 3]);
        assert_eq!(
            ds.count_by_key(|x| *x).collect(),
            vec![(3, 3), (1, 2), (2, 1)]
        );
    }

    #[test]
    fn count_by_key_on_empty_dataset() {
        let env = env(2);
        let ds = env.from_collection(Vec::<u64>::new());
        assert!(ds.count_by_key(|x| *x).collect().is_empty());
    }
}
