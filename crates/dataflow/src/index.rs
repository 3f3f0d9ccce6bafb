//! Loop-invariant partitioned hash indexes.
//!
//! The paper's variable-length path operator (Section 3.1) relies on Flink's
//! bulk iteration keeping the *static* candidate-edge dataset partitioned
//! and cached across supersteps: the edges are shuffled and hash-indexed
//! once, and every iteration only ships the (changing) working set to the
//! index. [`PartitionedIndex`] is that building block: a per-worker hash
//! table over a key-partitioned dataset, built once with full cost
//! accounting, then probed any number of times — each probe charges only
//! the probe side's shuffle and CPU, zero bytes for the build side.
//!
//! [`PartitionedIndex::probe_join`] **consumes** the probe dataset: a probe
//! side that has to be shuffled to the index and whose handle is the last
//! one is moved there, not copied. Building borrows the indexed dataset.

use std::hash::Hash;
use std::sync::Arc;

use crate::data::Data;
use crate::dataset::Dataset;
use crate::env::ExecutionEnvironment;
use crate::join::{ship_side, ChainedTable};
use crate::partition::PartitionKey;
use crate::pool::map_partitions;

/// A hash index over a dataset partitioned on a named key: one table per
/// worker, each covering exactly the keys that hash-place on that worker.
///
/// Built by [`Dataset::build_partitioned_index`]; probed by
/// [`PartitionedIndex::probe_join`]. The build charges the one-time shuffle,
/// table-build CPU and memory pressure; probes are build-side-free.
///
/// The index does not copy the indexed records: `rows` shares the
/// co-partitioned partitions (the dataset's own `Arc` when the input was
/// forwarded) and the per-worker `ChainedTable`s link row *indices* into
/// them, so building is allocation-free per record and per key.
pub struct PartitionedIndex<K, T> {
    env: ExecutionEnvironment,
    key: PartitionKey,
    rows: Arc<Vec<Vec<T>>>,
    tables: Arc<Vec<ChainedTable<K>>>,
    records: u64,
    build_shuffled_bytes: u64,
}

impl<K, T> Clone for PartitionedIndex<K, T> {
    fn clone(&self) -> Self {
        PartitionedIndex {
            env: self.env.clone(),
            key: self.key,
            rows: Arc::clone(&self.rows),
            tables: Arc::clone(&self.tables),
            records: self.records,
            build_shuffled_bytes: self.build_shuffled_bytes,
        }
    }
}

impl<T: Data> Dataset<T> {
    /// Partitions the dataset by `key_id` (a FORWARD if it is already
    /// stamped with that key) and builds one hash table per worker over the
    /// co-located records. Shuffle traffic, build CPU (records in) and
    /// memory overflow of the tables are charged once, in a dedicated
    /// `"index(build)"` stage.
    pub fn build_partitioned_index<K, F>(
        &self,
        key_id: PartitionKey,
        key: F,
    ) -> PartitionedIndex<K, T>
    where
        K: Hash + Eq + Clone + Send + Sync,
        F: Fn(&T) -> K + Sync,
    {
        let env = self.env().clone();
        let mut stage = env.stage("index(build)");
        // Forwarded, `rows` is the dataset's own partitions — no records
        // move or copy.
        let rows = ship_side(self.clone(), Some(key_id), &key, &mut stage);
        let build_shuffled_bytes = stage.bytes_sent_total();

        // Tables hold row indices into `rows`, not record copies.
        let tables: Vec<ChainedTable<K>> =
            map_partitions(&rows, |_, part| ChainedTable::build(part, &key));

        let memory = env.cost_model().memory_per_worker;
        let mut records = 0u64;
        for (i, part) in rows.iter().enumerate() {
            let build_bytes: u64 = part.iter().map(|e| e.byte_size() as u64).sum();
            let w = stage.worker(i);
            w.records_in += part.len() as u64;
            if build_bytes as usize > memory {
                w.bytes_spilled += build_bytes - memory as u64;
            }
            records += part.len() as u64;
        }
        env.finish_stage(stage);
        PartitionedIndex {
            env,
            key: key_id,
            rows,
            tables: Arc::new(tables),
            records,
            build_shuffled_bytes,
        }
    }
}

impl<K, T> PartitionedIndex<K, T>
where
    K: Hash + Eq + Clone + Send + Sync,
    T: Data,
{
    /// The semantic key the index is partitioned on.
    pub fn partition_key(&self) -> PartitionKey {
        self.key
    }

    /// Total records indexed.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Network bytes the one-time build shuffle moved. Zero if the input
    /// was already partitioned on the index key.
    pub fn build_shuffled_bytes(&self) -> u64 {
        self.build_shuffled_bytes
    }

    /// Equi-joins `probe` against the cached index with FlatJoin semantics.
    ///
    /// The probe side is shipped to the index's partitioning (a FORWARD if
    /// it is already stamped with the index key; otherwise its rows are
    /// moved if `probe` was the last handle on them, copied if not); the
    /// cached tables are probed in place. Only probe records and output
    /// records are charged —
    /// the build side costs nothing per probe, which is what makes the
    /// index pay off inside bulk iterations.
    ///
    /// The output carries *no* partitioning fingerprint: its records sit
    /// where the probe key of the input placed them, but `join_fn` emits
    /// arbitrary records that need not contain that key (an expand step
    /// joins on the path's end vertex and emits the *next* end vertex). A
    /// caller whose output provably retains the key can re-stamp with
    /// [`Dataset::assume_partitioning`].
    pub fn probe_join<P, O, KP, F>(
        &self,
        probe: Dataset<P>,
        probe_key: KP,
        join_fn: F,
    ) -> Dataset<O>
    where
        P: Data,
        O: Data,
        KP: Fn(&P) -> K + Sync,
        F: Fn(&P, &T) -> Option<O> + Sync,
    {
        let env = self.env.clone();
        let mut stage = env.stage("join(probe-index)");
        let probe_parts = ship_side(probe, Some(self.key), &probe_key, &mut stage);

        let outputs: Vec<Vec<O>> = map_partitions(&probe_parts, |i, part| {
            let rows = &self.rows[i];
            let mut out = Vec::new();
            for p in part {
                for row in self.tables[i].matches(&probe_key(p)) {
                    out.extend(join_fn(p, &rows[row]));
                }
            }
            out
        });

        for (i, (inp, out)) in probe_parts.iter().zip(&outputs).enumerate() {
            let w = stage.worker(i);
            w.records_in += inp.len() as u64;
            w.records_out += out.len() as u64;
        }
        env.finish_stage(stage);
        Dataset::from_partitions(env, outputs)
    }
}

impl<K, T> std::fmt::Debug for PartitionedIndex<K, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedIndex")
            .field("key", &self.key)
            .field("records", &self.records)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::env::ExecutionConfig;
    use crate::join::JoinStrategy;

    fn env(workers: usize) -> ExecutionEnvironment {
        ExecutionEnvironment::new(
            ExecutionConfig::with_workers(workers).cost_model(CostModel::free()),
        )
    }

    #[test]
    fn probe_join_matches_repartition_join() {
        let env = env(4);
        let edges: Dataset<(u64, u64)> =
            env.from_collection((0u64..100).map(|i| (i % 10, i)).collect::<Vec<_>>());
        let probe = env.from_collection(0u64..10);
        let expected = {
            let mut rows = probe
                .clone()
                .join(
                    edges.clone(),
                    |p| *p,
                    |(k, _)| *k,
                    JoinStrategy::RepartitionHash,
                    |p, (_, v)| Some((*p, *v)),
                )
                .collect();
            rows.sort_unstable();
            rows
        };
        let index = edges.build_partitioned_index(PartitionKey::named("edge.key"), |(k, _)| *k);
        assert_eq!(index.records(), 100);
        let mut rows = index
            .probe_join(probe, |p| *p, |p, (_, v)| Some((*p, *v)))
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, expected);
    }

    #[test]
    fn repeated_probes_pay_no_build_side_bytes() {
        let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4));
        let key = PartitionKey::named("edge.source");
        let edges: Dataset<(u64, u64)> =
            env.from_collection((0u64..1000).map(|i| (i % 50, i)).collect::<Vec<_>>());
        env.reset_metrics();
        let index = edges.build_partitioned_index(key, |(k, _)| *k);
        let build_bytes = env.metrics().bytes_shuffled;
        assert!(build_bytes > 0);
        assert_eq!(index.build_shuffled_bytes(), build_bytes);
        // A probe already partitioned on the key ships nothing at all.
        let probe = env.from_collection(0u64..50).partition_by(key, |p| *p);
        let shuffled_before = env.metrics().bytes_shuffled;
        let joined = index.probe_join(probe, |p| *p, |p, (_, v)| Some((*p, *v)));
        assert_eq!(env.metrics().bytes_shuffled, shuffled_before);
        assert_eq!(joined.len_untracked(), 1000);
        // join_fn emits arbitrary records, so no fingerprint is claimed.
        assert_eq!(joined.partitioning(), None);
    }

    #[test]
    fn prepartitioned_input_builds_without_shuffle() {
        let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4));
        let key = PartitionKey::named("edge.source");
        let edges = env
            .from_collection((0u64..500).map(|i| (i % 20, i)).collect::<Vec<_>>())
            .partition_by(key, |(k, _)| *k);
        env.reset_metrics();
        let index = edges.build_partitioned_index(key, |(k, _)| *k);
        assert_eq!(index.build_shuffled_bytes(), 0);
        assert_eq!(env.metrics().bytes_shuffled, 0);
    }

    #[test]
    fn oversized_index_build_spills() {
        let config = ExecutionConfig::with_workers(1).cost_model(CostModel {
            memory_per_worker: 16,
            ..CostModel::free()
        });
        let env = ExecutionEnvironment::new(config);
        let edges: Dataset<(u64, u64)> =
            env.from_collection((0u64..100).map(|i| (i, i)).collect::<Vec<_>>());
        env.reset_metrics();
        let _ = edges.build_partitioned_index(PartitionKey::named("k"), |(k, _)| *k);
        assert!(env.metrics().bytes_spilled > 0);
    }
}
