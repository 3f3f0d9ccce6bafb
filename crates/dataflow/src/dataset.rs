//! The [`Dataset`] abstraction: a partitioned, immutable collection plus the
//! element-wise transformations of the dataflow model.
//!
//! Methods that take `&self` read the partitions and leave them alone.
//! [`Dataset::union`] and [`Dataset::into_partitions`] (and, through it,
//! every join, [`Dataset::group_reduce`] and
//! [`AdjacencyIndex::probe_join`](crate::index::AdjacencyIndex::probe_join))
//! take the dataset by value: the last holder of the partitions gives its
//! rows away instead of having them copied.

use std::hash::Hash;
use std::sync::Arc;

use crate::data::Data;
use crate::env::ExecutionEnvironment;
use crate::partition::{shuffle_by_key, PartitionKey, Partitioning, TableHasher};
use crate::pool::Handoff;

/// A distributed collection: one partition per simulated worker.
///
/// Datasets are immutable while shared and cheap to clone (a clone is one
/// more handle on the partitions behind an [`Arc`]). Operations that
/// consume a dataset move its rows when that handle is the last one and
/// copy them when it is not, so a clone kept elsewhere — a graph snapshot,
/// an iteration checkpoint — never sees a change. Transformations execute
/// eagerly, processing partitions on parallel threads and charging the
/// simulated clock of the owning [`ExecutionEnvironment`].
///
/// A dataset optionally carries a [`Partitioning`] fingerprint recording
/// that its records are hash-placed by a semantic key. Key-stamped shuffles
/// ([`Dataset::partition_by`]) set it, `filter` keeps it, and everything
/// that moves or rewrites records clears it. Joins consult the fingerprint
/// to skip shuffles of already co-partitioned inputs (Flink's FORWARD
/// strategy).
pub struct Dataset<T> {
    env: ExecutionEnvironment,
    partitions: Arc<Vec<Vec<T>>>,
    partitioning: Option<Partitioning>,
}

impl<T> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Dataset {
            env: self.env.clone(),
            partitions: Arc::clone(&self.partitions),
            partitioning: self.partitioning,
        }
    }
}

impl<T: Data> Dataset<T> {
    /// Wraps pre-partitioned data in a dataset (no partitioning claim).
    pub fn from_partitions(env: ExecutionEnvironment, partitions: Vec<Vec<T>>) -> Self {
        debug_assert_eq!(partitions.len(), env.workers());
        Dataset {
            env,
            partitions: Arc::new(partitions),
            partitioning: None,
        }
    }

    /// Wraps partitions another dataset shares (see
    /// [`Dataset::partitions_arc`]) in a dataset of `env`, without copying
    /// them (no partitioning claim).
    pub fn from_partitions_arc(env: ExecutionEnvironment, partitions: Arc<Vec<Vec<T>>>) -> Self {
        debug_assert_eq!(partitions.len(), env.workers());
        Dataset {
            env,
            partitions,
            partitioning: None,
        }
    }

    /// The owning environment.
    pub fn env(&self) -> &ExecutionEnvironment {
        &self.env
    }

    /// The dataset's partitioning fingerprint, if its records are known to
    /// be hash-placed by a semantic key.
    pub fn partitioning(&self) -> Option<Partitioning> {
        self.partitioning
    }

    /// Returns the same dataset stamped with a partitioning fingerprint.
    ///
    /// This is an *assertion by the caller*: the records must actually sit
    /// on `partition_for(key(record), workers)` for the semantic key the
    /// fingerprint names. Operators in this crate stamp outputs themselves;
    /// higher layers use this when they re-wrap partitions they obtained
    /// from an operation that provably preserved placement.
    pub fn assume_partitioning(mut self, partitioning: Option<Partitioning>) -> Self {
        if let Some(p) = partitioning {
            debug_assert_eq!(p.workers, self.env.workers());
        }
        self.partitioning = partitioning;
        self
    }

    /// Re-homes the dataset onto another environment **without copying the
    /// partitions** — the `Arc`-shared data and the partitioning
    /// fingerprint carry over, only the owning environment (whose clock,
    /// metrics, trace sink and poison slot are per-environment) changes.
    ///
    /// This is the snapshot-sharing primitive of the concurrent query
    /// server: one immutable graph snapshot is loaded once, and every
    /// session re-homes it onto a private environment so concurrent
    /// queries never race on per-environment state. The target must have
    /// the same worker count (partition placement is per-worker).
    pub fn rehomed(&self, env: &ExecutionEnvironment) -> Self {
        debug_assert_eq!(env.workers(), self.env.workers());
        Dataset {
            env: env.clone(),
            partitions: Arc::clone(&self.partitions),
            partitioning: self.partitioning,
        }
    }

    /// Read access to the raw partitions (no cost charged — used by
    /// operators in this crate and by higher layers that implement their
    /// own operators with explicit cost accounting).
    pub fn partitions(&self) -> &[Vec<T>] {
        &self.partitions
    }

    /// Shared handle to the raw partitions. Lets operators that outlive the
    /// dataset keep the records alive without copying them.
    pub fn partitions_arc(&self) -> Arc<Vec<Vec<T>>> {
        Arc::clone(&self.partitions)
    }

    /// Gives up this handle on the raw partitions. A consuming operator
    /// that receives the last handle ([`Arc::try_unwrap`] succeeds) may
    /// move the rows out instead of cloning them.
    pub fn into_partitions(self) -> Arc<Vec<Vec<T>>> {
        self.partitions
    }

    /// Total number of elements without charging the clock. Flink exposes
    /// the equivalent through its iteration termination condition; query
    /// drivers also use it to detect empty intermediate results.
    pub fn len_untracked(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// `true` if the dataset holds no elements (no cost charged).
    pub fn is_empty_untracked(&self) -> bool {
        self.partitions.iter().all(Vec::is_empty)
    }

    /// Element-wise transformation (Flink `map`). Output records may carry
    /// arbitrary new keys, so any partitioning fingerprint is dropped.
    pub fn map<O: Data, F>(&self, f: F) -> Dataset<O>
    where
        F: Fn(&T) -> O + Sync,
    {
        self.transform_one("map", false, |part, out| {
            out.extend(part.iter().map(&f));
        })
    }

    /// Element-wise transformation emitting zero or more outputs
    /// (Flink `flatMap`). The paper's leaf operators fuse select, project
    /// and transform into a single `FlatMap` (Section 3.1); higher layers
    /// do the same through this method. Output records may carry arbitrary
    /// new keys, so any partitioning fingerprint is dropped.
    pub fn flat_map<O: Data, F>(&self, f: F) -> Dataset<O>
    where
        F: Fn(&T, &mut Vec<O>) + Sync,
    {
        self.transform_one("flat_map", false, |part, out| {
            for item in part {
                f(item, out);
            }
        })
    }

    /// Keeps elements satisfying the predicate (Flink `filter`). Purely
    /// partition-local, so the partitioning fingerprint survives.
    pub fn filter<F>(&self, predicate: F) -> Dataset<T>
    where
        F: Fn(&T) -> bool + Sync,
    {
        self.transform_one("filter", true, |part, out| {
            out.extend(part.iter().filter(|i| predicate(i)).cloned());
        })
    }

    /// [`Dataset::transform`] of this dataset alone; `preserves_keys` says
    /// whether the output may keep its fingerprint.
    fn transform_one<O: Data, F>(
        &self,
        name: &'static str,
        preserves_keys: bool,
        f: F,
    ) -> Dataset<O>
    where
        F: Fn(&[T], &mut Vec<O>) + Sync,
    {
        let kept = self.partitioning.filter(|_| preserves_keys);
        Self::transform(&self.env, std::slice::from_ref(self), name, kept, f)
    }

    /// The one body of every element-wise stage. Worker `i` reads partition
    /// `i` of each of `inputs` in turn and writes one output partition —
    /// the stage a `flat_map` over their (free) partition-wise union would
    /// run, without that union ever being built. `kept` is the fingerprint
    /// the output may carry.
    fn transform<O: Data, F>(
        env: &ExecutionEnvironment,
        inputs: &[Dataset<T>],
        name: &'static str,
        kept: Option<Partitioning>,
        f: F,
    ) -> Dataset<O>
    where
        F: Fn(&[T], &mut Vec<O>) + Sync,
    {
        let mut stage = env.stage(name);
        for input in inputs {
            stage.read(input.partitions());
        }
        let outputs = env.run_stage(stage, |i, _| {
            let mut out = Vec::new();
            for input in inputs {
                f(&input.partitions[i], &mut out);
            }
            out
        });
        Dataset::from_partitions(env.clone(), outputs).assume_partitioning(kept)
    }

    /// Concatenates two datasets partition-wise (Flink `union` — free, no
    /// shuffle). The fingerprint survives only when both inputs carry the
    /// *same* partitioning; a union of differently (or un-) partitioned
    /// inputs mixes placements and invalidates the claim.
    ///
    /// Both inputs are consumed: `other`'s rows are appended to `self`'s
    /// partitions in place, and each side is copied only if something else
    /// still holds it.
    pub fn union(self, other: Dataset<T>) -> Dataset<T> {
        assert_eq!(
            self.env.workers(),
            other.env.workers(),
            "union requires datasets from the same environment"
        );
        let kept = match (self.partitioning, other.partitioning) {
            (Some(a), Some(b)) if a == b => Some(a),
            // An empty side cannot contradict the other side's placement.
            (Some(a), _) if other.is_empty_untracked() => Some(a),
            (_, Some(b)) if self.is_empty_untracked() => Some(b),
            _ => None,
        };
        let mut merged = Arc::unwrap_or_clone(self.partitions);
        match Arc::try_unwrap(other.partitions) {
            Ok(owned) => {
                for (into, from) in merged.iter_mut().zip(owned) {
                    into.extend(from);
                }
            }
            Err(shared) => {
                for (into, from) in merged.iter_mut().zip(shared.iter()) {
                    into.extend_from_slice(from);
                }
            }
        }
        Dataset::from_partitions(self.env, merged).assume_partitioning(kept)
    }

    /// Repartitions the dataset by an *anonymous* key so equal keys share a
    /// worker. The placement is real but unnamed, so no fingerprint is
    /// recorded — use [`Dataset::partition_by`] to stamp one. The dataset
    /// is borrowed, so every placed record is a copy.
    pub fn partition_by_key<K, F>(&self, key: F) -> Dataset<T>
    where
        K: Hash,
        F: Fn(&T) -> K + Sync,
    {
        let mut stage = self.env.stage("partition_by_key");
        let partitions = shuffle_by_key(&self.env, self.partitions_arc(), key, &mut stage);
        self.env.finish_stage(stage);
        Dataset::from_partitions(self.env.clone(), partitions)
    }

    /// Repartitions the dataset by a *named* semantic key and stamps the
    /// result with the matching [`Partitioning`] fingerprint.
    ///
    /// If the dataset is already partitioned on `key_id`, the shuffle is
    /// skipped entirely — Flink's FORWARD ship strategy: no stage runs, no
    /// bytes move, no simulated time is charged.
    pub fn partition_by<K, F>(&self, key_id: PartitionKey, key: F) -> Dataset<T>
    where
        K: Hash,
        F: Fn(&T) -> K + Sync,
    {
        let target = Partitioning {
            key: key_id,
            workers: self.env.workers(),
        };
        if self.partitioning == Some(target) {
            return self.clone();
        }
        let mut stage = self.env.stage("partition_by_key");
        let partitions = shuffle_by_key(&self.env, self.partitions_arc(), key, &mut stage);
        self.env.finish_stage(stage);
        Dataset::from_partitions(self.env.clone(), partitions).assume_partitioning(Some(target))
    }

    /// Counts elements. Counting is distributed: each worker counts its
    /// partition, only the per-worker counts travel to the driver.
    pub fn count(&self) -> usize {
        let mut stage = self.env.stage("count");
        let total = self.partitions.iter().map(Vec::len).sum();
        for (i, part) in self.partitions.iter().enumerate() {
            let w = stage.worker(i);
            w.records_in += part.len() as u64;
            w.bytes_sent += 8; // one u64 count per worker to the driver
        }
        self.env.finish_stage(stage);
        total
    }

    /// Gathers all elements at the driver, charging the full network
    /// transfer. Element order follows partition order.
    pub fn collect(&self) -> Vec<T> {
        let mut stage = self.env.stage("collect");
        for (i, part) in self.partitions.iter().enumerate() {
            let bytes: u64 = part.iter().map(|e| e.byte_size() as u64).sum();
            let w = stage.worker(i);
            w.records_in += part.len() as u64;
            w.bytes_sent += bytes;
        }
        self.env.finish_stage(stage);
        self.partitions.iter().flatten().cloned().collect()
    }
}

impl<T: Data + Hash + Eq> Dataset<T> {
    /// Removes duplicates (Flink `distinct`): shuffle by value, then
    /// per-partition deduplication. The shuffle clones each record once out
    /// of the borrowed dataset; each task then takes its shuffled partition
    /// and moves the first occurrence of every record into its output.
    pub fn distinct(&self) -> Dataset<T> {
        let mut shuffle = self.env.stage("partition_by_key");
        let shuffled = shuffle_by_key(
            &self.env,
            self.partitions_arc(),
            |item| {
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                item.hash(&mut hasher);
                std::hash::Hasher::finish(&hasher)
            },
            &mut shuffle,
        );
        self.env.finish_stage(shuffle);
        let mut stage = self.env.stage("distinct");
        stage.read(&shuffled);
        let shuffled = Handoff::new(shuffled);
        let outputs = self.env.run_stage(stage, |i, _| {
            let part = shuffled.take(i);
            let mut seen = std::collections::HashSet::with_capacity_and_hasher(
                part.len(),
                TableHasher::default(),
            );
            let first: Vec<bool> = part.iter().map(|item| seen.insert(item)).collect();
            drop(seen);
            part.into_iter()
                .zip(first)
                .filter_map(|(item, first)| first.then_some(item))
                .collect()
        });
        Dataset::from_partitions(self.env.clone(), outputs)
    }
}

/// Several datasets of one environment that are only ever read as their
/// partition-wise concatenation — Flink's free `union`, never built.
///
/// This is what a label alternation over an indexed graph scans (paper
/// Section 3.4): the per-label datasets stay where they are and the leaf
/// `flat_map` walks them one after the other, so no element is copied
/// before the scan and no union is precomputed per alternation.
/// No parts at all is the empty dataset.
pub struct Parts<T> {
    env: ExecutionEnvironment,
    parts: Vec<Dataset<T>>,
}

impl<T: Data> Parts<T> {
    /// The concatenation of `parts`, all of which must live on `env`'s
    /// worker count.
    pub fn new(env: &ExecutionEnvironment, parts: Vec<Dataset<T>>) -> Self {
        for part in &parts {
            assert_eq!(
                part.env.workers(),
                env.workers(),
                "parts must share the environment's worker count"
            );
        }
        Parts {
            env: env.clone(),
            parts,
        }
    }

    /// The owning environment.
    pub fn env(&self) -> &ExecutionEnvironment {
        &self.env
    }

    /// The datasets read one after the other.
    pub fn datasets(&self) -> &[Dataset<T>] {
        &self.parts
    }

    /// Total number of elements without charging the clock.
    pub fn len_untracked(&self) -> usize {
        self.parts.iter().map(Dataset::len_untracked).sum()
    }

    /// [`Dataset::flat_map`] over the concatenation, as one stage: the same
    /// `flat_map` report — per-worker records and simulated seconds — the
    /// stage would emit over the materialized union. Drops any partitioning
    /// fingerprint.
    pub fn flat_map<O: Data, F>(&self, f: F) -> Dataset<O>
    where
        F: Fn(&T, &mut Vec<O>) + Sync,
    {
        Dataset::transform(&self.env, &self.parts, "flat_map", None, |part, out| {
            for item in part {
                f(item, out);
            }
        })
    }
}

impl<T: Data> From<Dataset<T>> for Parts<T> {
    fn from(dataset: Dataset<T>) -> Self {
        Parts {
            env: dataset.env.clone(),
            parts: vec![dataset],
        }
    }
}

impl<T: Data> std::fmt::Debug for Dataset<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field(
                "partitions",
                &self.partitions.iter().map(Vec::len).collect::<Vec<_>>(),
            )
            .field("partitioning", &self.partitioning)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::env::ExecutionConfig;

    fn env(workers: usize) -> ExecutionEnvironment {
        ExecutionEnvironment::new(
            ExecutionConfig::with_workers(workers).cost_model(CostModel::free()),
        )
    }

    #[test]
    fn map_transforms_every_element() {
        let env = env(3);
        let ds = env.from_collection(0u64..9).map(|x| x * 2);
        let mut values = ds.collect();
        values.sort_unstable();
        assert_eq!(values, (0..9).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn rehoming_shares_partitions_and_charges_the_new_clock() {
        let home = env(3);
        let ds = env(3).from_collection(0u64..30);
        let moved = ds.rehomed(&home);
        // Same partition allocations, no copy; fingerprint carries over.
        assert!(Arc::ptr_eq(&ds.partitions_arc(), &moved.partitions_arc()));
        assert_eq!(moved.partitioning(), ds.partitioning());
        assert!(moved.env().same_as(&home));
        assert!(!moved.env().same_as(ds.env()));
        // Work on the re-homed dataset charges the new environment only.
        let before = ds.env().metrics().records_in;
        assert_eq!(moved.map(|x| x + 1).collect().len(), 30);
        assert_eq!(ds.env().metrics().records_in, before);
        assert!(home.metrics().records_in > 0);
    }

    #[test]
    fn flat_map_can_drop_and_multiply() {
        let env = env(2);
        let ds = env.from_collection(0u64..4).flat_map(|x, out| {
            if x % 2 == 0 {
                out.push(*x);
                out.push(*x + 100);
            }
        });
        let mut values = ds.collect();
        values.sort_unstable();
        assert_eq!(values, vec![0, 2, 100, 102]);
    }

    #[test]
    fn filter_keeps_matching() {
        let env = env(2);
        let ds = env.from_collection(0u64..10).filter(|x| *x < 3);
        assert_eq!(ds.count(), 3);
    }

    #[test]
    fn union_is_partitionwise() {
        let env = env(2);
        let a = env.from_collection(vec![1u64, 2]);
        let b = env.from_collection(vec![3u64]);
        let u = a.union(b);
        assert_eq!(u.count(), 3);
        assert_eq!(u.partitions().len(), 2);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let env = env(4);
        let ds = env.from_collection(vec![1u64, 2, 2, 3, 3, 3]).distinct();
        let mut values = ds.collect();
        values.sort_unstable();
        assert_eq!(values, vec![1, 2, 3]);
    }

    #[test]
    fn partition_by_key_groups_keys() {
        let env = env(4);
        let ds = env
            .from_collection((0u64..100).map(|i| (i % 5, i)).collect::<Vec<_>>())
            .partition_by_key(|(k, _)| *k);
        // All records with equal keys must share a partition.
        for part in ds.partitions() {
            for (k, _) in part {
                let home = crate::partition::partition_for(k, 4);
                assert!(part
                    .iter()
                    .all(|(k2, _)| k2 != k || crate::partition::partition_for(k2, 4) == home));
            }
        }
        assert_eq!(ds.count(), 100);
    }

    #[test]
    fn named_partitioning_is_stamped_and_reused() {
        let env = env(4);
        let key = PartitionKey::named("pair.first");
        let ds = env
            .from_collection((0u64..100).map(|i| (i % 5, i)).collect::<Vec<_>>())
            .partition_by(key, |(k, _)| *k);
        assert_eq!(ds.partitioning(), Some(Partitioning { key, workers: 4 }));
        // Re-partitioning by the same key is a FORWARD: no stage runs.
        let stages_before = env.metrics().stages;
        let again = ds.partition_by(key, |(k, _)| *k);
        assert_eq!(env.metrics().stages, stages_before);
        assert_eq!(again.partitioning(), ds.partitioning());
        assert_eq!(again.partitions(), ds.partitions());
        // A different key still shuffles and re-stamps.
        let other = PartitionKey::named("pair.second");
        let reshuffled = ds.partition_by(other, |(_, v)| *v);
        assert!(env.metrics().stages > stages_before);
        assert_eq!(
            reshuffled.partitioning(),
            Some(Partitioning {
                key: other,
                workers: 4
            })
        );
    }

    #[test]
    fn filter_keeps_partitioning() {
        let env = env(4);
        let key = PartitionKey::named("value");
        let ds = env.from_collection(0u64..50).partition_by(key, |x| *x);
        assert!(ds.filter(|x| *x % 2 == 0).partitioning().is_some());
        // map/flat_map may rewrite keys: fingerprint dropped.
        assert!(ds.map(|x| *x + 1).partitioning().is_none());
        assert!(ds.flat_map(|x, out| out.push(*x)).partitioning().is_none());
    }

    #[test]
    fn union_keeps_partitioning_only_for_like_partitioned_inputs() {
        let env = env(4);
        let key = PartitionKey::named("value");
        let a = env.from_collection(0u64..20).partition_by(key, |x| *x);
        let b = env.from_collection(20u64..40).partition_by(key, |x| *x);
        assert!(a.clone().union(b).partitioning().is_some());
        // Union with an unpartitioned, non-empty side invalidates.
        let c = env.from_collection(40u64..60);
        assert!(a.clone().union(c).partitioning().is_none());
        // An empty side cannot contradict the placement.
        let empty = env.empty::<u64>();
        assert_eq!(
            a.clone().union(empty.clone()).partitioning(),
            a.partitioning()
        );
        assert_eq!(empty.union(a.clone()).partitioning(), a.partitioning());
        // Differently keyed inputs invalidate.
        let other = env
            .from_collection(0u64..20)
            .partition_by(PartitionKey::named("other"), |x| *x);
        assert!(a.union(other).partitioning().is_none());
    }

    #[test]
    fn count_and_len_untracked_agree() {
        let env = env(3);
        let ds = env.from_collection(0u64..17);
        assert_eq!(ds.count(), ds.len_untracked());
        assert!(!ds.is_empty_untracked());
        assert!(env.empty::<u64>().is_empty_untracked());
    }

    #[test]
    fn collect_preserves_all_elements() {
        let env = env(3);
        let ds = env.from_collection(0u64..10);
        let mut values = ds.collect();
        values.sort_unstable();
        assert_eq!(values, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn map_charges_simulated_time() {
        let config = ExecutionConfig::with_workers(2).cost_model(CostModel {
            cpu_seconds_per_record: 1.0,
            ..CostModel::free()
        });
        let env = ExecutionEnvironment::new(config);
        let _ = env.from_collection(0u64..10).map(|x| *x);
        // 10 records in round-robin over 2 workers: 5 in + 5 out per worker.
        assert!((env.simulated_seconds() - 10.0).abs() < 1e-9);
    }

    /// A stage is charged its slowest worker: every partition's records are
    /// billed to the worker that owns it, nothing moves to an idle one.
    #[test]
    fn skewed_stage_charges_each_worker_its_own_partition() {
        let model = CostModel {
            cpu_seconds_per_record: 1.0,
            stage_overhead_seconds: 0.0,
            ..CostModel::free()
        };
        let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4).cost_model(model));
        let sink = Arc::new(crate::trace::CollectingSink::new());
        env.set_trace_sink(Some(sink.clone()));
        // One partition 4x the others.
        let skewed: Vec<Vec<u64>> = vec![
            (0..64).collect(),
            (64..80).collect(),
            (80..96).collect(),
            (96..112).collect(),
        ];
        let mapped = Dataset::from_partitions(env.clone(), skewed).map(|x| *x);
        // Worker 0 pays 64 in + 64 out = 128 simulated seconds.
        assert!((env.simulated_seconds() - 128.0).abs() < 1e-9);
        let _ = mapped.filter(|_| false);
        let stages = sink.snapshot().stages;
        let (map, filter) = (&stages[0], &stages[1]);
        // The filter emits nothing, so its per-worker seconds are the
        // per-worker records_in; the map's are records_in + records_out.
        assert_eq!(filter.worker_seconds, vec![64.0, 16.0, 16.0, 16.0]);
        assert_eq!(map.worker_seconds, vec![128.0, 32.0, 32.0, 32.0]);
        assert_eq!((map.records_in, map.records_out), (112, 112));
        assert_eq!(map.busiest_worker_records, 128);
        assert_eq!(map.seconds, 128.0);
    }

    /// A skewed two-part input on a cost model that charges every record,
    /// with a sink that keeps the stage reports.
    fn two_parts() -> (
        ExecutionEnvironment,
        Arc<crate::trace::CollectingSink>,
        Parts<u64>,
    ) {
        let model = CostModel {
            cpu_seconds_per_record: 1.0,
            stage_overhead_seconds: 0.5,
            ..CostModel::free()
        };
        let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(3).cost_model(model));
        let sink = Arc::new(crate::trace::CollectingSink::new());
        env.set_trace_sink(Some(sink.clone()));
        let key = PartitionKey::named("value");
        let a = Dataset::from_partitions(env.clone(), vec![(0..7).collect(), vec![], vec![7, 8]])
            .assume_partitioning(Some(Partitioning { key, workers: 3 }));
        let b = Dataset::from_partitions(env.clone(), vec![vec![9], (10..14).collect(), vec![]])
            .assume_partitioning(Some(Partitioning { key, workers: 3 }));
        let parts = Parts::new(&env, vec![a, b]);
        (env, sink, parts)
    }

    /// Reading the parts in place is, to the cost model and every observer,
    /// the `flat_map` over their free union: one stage, same name, same
    /// per-worker records in and out, same simulated seconds, same output
    /// partitions in the same order.
    #[test]
    fn flat_map_over_parts_reports_the_stage_of_flat_map_over_their_union() {
        let (_, sink, parts) = two_parts();
        let odd_twice = |x: &u64, out: &mut Vec<u64>| {
            if x % 2 == 1 {
                out.extend([*x, *x]);
            }
        };
        let [a, b] = parts.datasets() else {
            unreachable!("two parts")
        };
        let expected = a.clone().union(b.clone()).flat_map(odd_twice);
        let in_place = parts.flat_map(odd_twice);
        assert_eq!(in_place.partitions(), expected.partitions());
        // Both inputs carry the same fingerprint and so does their union,
        // but a flat_map may rewrite keys: dropped either way.
        assert!(a.clone().union(b.clone()).partitioning().is_some());
        assert!(in_place.partitioning().is_none() && expected.partitioning().is_none());

        let stages = sink.snapshot().stages;
        let [over_union, over_parts] = stages.as_slice() else {
            panic!("the union is free, each flat_map is one stage: {stages:?}")
        };
        assert_eq!(format!("{over_parts:?}"), format!("{over_union:?}"));
        assert_eq!(over_parts.name, "flat_map");
        assert_eq!((over_parts.records_in, over_parts.records_out), (14, 14));
        // Per worker: 8 + 4 + 2 records in, 8 + 4 + 2 out (odd ones twice).
        assert_eq!(over_parts.worker_seconds, vec![16.0, 8.0, 4.0]);
        assert_eq!(over_parts.seconds, 16.5);
        assert_eq!(parts.len_untracked(), 14);
    }

    #[test]
    fn no_parts_is_the_empty_dataset_and_still_one_stage() {
        let (env, sink, _) = two_parts();
        let nothing = Parts::<u64>::new(&env, Vec::new());
        let out = nothing.flat_map(|x, out| out.push(*x));
        assert!(out.partitions().iter().all(Vec::is_empty));
        assert_eq!(out.partitions().len(), 3);
        let stages = sink.snapshot().stages;
        assert_eq!(stages.len(), 1);
        assert_eq!((stages[0].records_in, stages[0].seconds), (0, 0.5));
    }

    fn panic_on_ten(x: &u64, out: &mut Vec<u64>) {
        assert_ne!(*x, 10, "closure died");
        out.push(*x);
    }

    /// With fault tolerance installed a panicking closure poisons the
    /// environment exactly as it does in a single-input stage: classified,
    /// the inputs charged, no output.
    #[test]
    fn panicking_closure_over_parts_is_classified_under_fault_tolerance() {
        let classified = |run: &dyn Fn(&Parts<u64>) -> Dataset<u64>| {
            let (env, sink, parts) = two_parts();
            env.install_faults(crate::fault::FaultConfig::default());
            let out = run(&parts);
            assert!(out.is_empty_untracked());
            let failure = env.take_execution_failure().expect("classified");
            (failure, format!("{:?}", sink.snapshot().stages))
        };
        let (failure, stages) = classified(&|parts| parts.flat_map(panic_on_ten));
        assert_eq!(failure.site, "stage `flat_map` (worker 1)");
        assert_eq!(failure.attempts, 1);
        assert!(failure.message.contains("worker panicked"), "{failure:?}");
        assert!(failure.message.contains("closure died"), "{failure:?}");
        let over_union = classified(&|parts| {
            let [a, b] = parts.datasets() else {
                unreachable!("two parts")
            };
            a.clone().union(b.clone()).flat_map(panic_on_ten)
        });
        assert_eq!((failure, stages), over_union);
    }

    #[test]
    #[should_panic(expected = "partition worker 1 panicked")]
    fn panicking_closure_over_parts_fails_fast_without_fault_tolerance() {
        let (_, _, parts) = two_parts();
        let _ = parts.flat_map(panic_on_ten);
    }

    #[test]
    #[should_panic(expected = "same environment")]
    fn union_across_environments_panics() {
        let a = env(2).from_collection(vec![1u64]);
        let b = env(3).from_collection(vec![2u64]);
        let _ = a.union(b);
    }
}
