//! The adjacency index both path operators read.
//!
//! The paper's variable-length path operator (Section 3.1) relies on Flink's
//! bulk iteration keeping the *static* candidate-edge dataset partitioned
//! and cached across supersteps: the edges are shuffled and indexed once,
//! and every iteration only ships the (changing) working set to the index.
//! The worst-case-optimal intersection (`intersect.rs`) needs the same
//! lists, sorted, on every worker. [`AdjacencyIndex`] serves both: one
//! compressed-sparse-row layout over `(key, neighbor, edge)` triples, placed
//! one of two ways.
//!
//! * [`AdjacencyIndex::partitioned`] (the expand index): one layout per
//!   worker over the triples the key hash-places there, built in an
//!   `"index(build)"` stage that charges the one-time shuffle.
//!   [`AdjacencyIndex::probe_join`] ships the probe side to it and
//!   **consumes** that side: a last-held probe is moved, not copied.
//! * [`AdjacencyIndex::replicated`] (the WCO index): one layout every worker
//!   reads, built in a `"wco(build-adjacency)"` stage charged like a
//!   broadcast-join build and probed partition-local by
//!   [`probe_intersect`](crate::intersect::probe_intersect).
//!
//! Both builds charge each worker its records in, the peak memory of the
//! layout it holds, one scratch allocation and the overflow beyond the
//! memory budget, as every hash-join build does.

use std::collections::HashMap;
use std::sync::Arc;

use crate::cost::WorkerCost;
use crate::data::Data;
use crate::dataset::Dataset;
use crate::env::{ExecutionEnvironment, TaskOutput};
use crate::join::{bytes_of, charge_build, charge_replication, ship_side};
use crate::partition::{PartitionKey, TableHasher};
use crate::pool::{try_run_here, Handoff};

/// One compressed-sparse-row layout: every key's `(neighbor, edge)` run,
/// sorted, back to back in one `Vec`, and where each key's run lies. Its
/// allocations do not depend on how many keys it holds.
#[derive(Debug, Default)]
struct Csr {
    /// Key → index of its run.
    runs: HashMap<u64, u32, TableHasher>,
    /// Run `r` is `entries[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<u32>,
    entries: Vec<(u64, u64)>,
}

impl Csr {
    /// Lays out the `triple` of every row: a counting pass numbers the keys
    /// and sizes their runs, a second pass fills the runs without hashing
    /// again, and each run is sorted on its own.
    fn build<'a, T: 'a>(
        rows: impl Iterator<Item = &'a T> + Clone,
        triple: impl Fn(&T) -> (u64, u64, u64),
    ) -> Csr {
        let len = rows.clone().count();
        assert!(
            len < u32::MAX as usize,
            "an adjacency index holds fewer than 2^32 - 1 triples"
        );
        let mut runs = HashMap::with_capacity_and_hasher(len, TableHasher::default());
        let mut offsets: Vec<u32> = Vec::with_capacity(len + 1);
        let mut run_of: Vec<u32> = Vec::with_capacity(len);
        for row in rows.clone() {
            let fresh = offsets.len() as u32;
            let run = *runs.entry(triple(row).0).or_insert_with(|| {
                offsets.push(0);
                fresh
            });
            offsets[run as usize] += 1;
            run_of.push(run);
        }
        // Each run's end, then — filling every run from its end — its start.
        for r in 1..offsets.len() {
            offsets[r] += offsets[r - 1];
        }
        let mut entries = vec![(0, 0); len];
        for (row, &run) in rows.zip(&run_of) {
            let (_, neighbor, edge) = triple(row);
            offsets[run as usize] -= 1;
            entries[offsets[run as usize] as usize] = (neighbor, edge);
        }
        offsets.push(len as u32);
        for run in offsets.windows(2) {
            entries[run[0] as usize..run[1] as usize].sort_unstable();
        }
        Csr {
            runs,
            offsets,
            entries,
        }
    }

    fn candidates(&self, key: u64) -> &[(u64, u64)] {
        let Some(&run) = self.runs.get(&key) else {
            return &[];
        };
        &self.entries[self.offsets[run as usize] as usize..self.offsets[run as usize + 1] as usize]
    }
}

/// A build task's layout; an index emits no records.
impl TaskOutput for Csr {
    fn records(&self) -> u64 {
        0
    }
}

/// Sorted `(neighbor, edge)` candidates per key, partitioned or replicated
/// (see the module docs). Cloning shares the layouts.
#[derive(Debug, Clone)]
pub struct AdjacencyIndex {
    env: ExecutionEnvironment,
    /// The key the triples are hash-placed by; `None` when replicated.
    key: Option<PartitionKey>,
    /// One layout per worker when partitioned, one in all when replicated.
    csrs: Arc<Vec<Csr>>,
    records: u64,
    build_shuffled_bytes: u64,
}

impl AdjacencyIndex {
    /// Partitions `rows` by the key of their `triple` (a FORWARD if they are
    /// already stamped with `key_id`) and lays out, per worker, the triples
    /// placed there. Charged once, in an `"index(build)"` stage.
    ///
    /// Consumes `rows` like a join consumes its sides: a last-held input is
    /// moved into place, not copied. Pass a clone to keep using it.
    pub fn partitioned<T, F>(rows: Dataset<T>, key_id: PartitionKey, triple: F) -> Self
    where
        T: Data,
        F: Fn(&T) -> (u64, u64, u64) + Sync,
    {
        let env = rows.env().clone();
        let records = rows.len_untracked() as u64;
        let mut stage = env.stage("index(build)");
        let key = |row: &T| triple(row).0;
        let placed = ship_side(rows, Some(key_id), &key, &mut stage);
        let build_shuffled_bytes = stage.bytes_sent_total();
        let memory = env.cost_model().memory_per_worker;
        let build = |part: &[T], cost: &mut WorkerCost| {
            charge_build(cost, bytes_of(part), memory);
            Csr::build(part.iter(), &triple)
        };
        // A task that owns its partition drops the rows once its layout is
        // built, so the shipped rows and the layouts do not all coexist.
        let csrs = match Arc::try_unwrap(placed) {
            Ok(owned) => {
                let owned = Handoff::new(owned);
                env.run_stage(stage, |i, cost| build(&owned.take(i), cost))
            }
            Err(shared) => env.run_stage(stage, |i, cost| build(&shared[i], cost)),
        };
        AdjacencyIndex {
            records,
            env,
            key: Some(key_id),
            csrs: Arc::new(csrs),
            build_shuffled_bytes,
        }
    }

    /// Lays out the `triple`s of all of `rows` once, for every worker to
    /// read. Charged in a `"wco(build-adjacency)"` stage like a broadcast
    /// build: each worker sends its fragment to every other and holds the
    /// whole index.
    pub fn replicated<T, F>(rows: &Dataset<T>, triple: F) -> Self
    where
        T: Data,
        F: Fn(&T) -> (u64, u64, u64),
    {
        let env = rows.env().clone();
        let mut stage = env.stage("wco(build-adjacency)");
        let total_bytes = charge_replication(rows.partitions(), &mut stage);
        stage.read(rows.partitions());
        let memory = env.cost_model().memory_per_worker;
        for i in 0..env.workers() {
            charge_build(stage.worker(i), total_bytes, memory);
        }
        let build_shuffled_bytes = stage.bytes_sent_total();
        // The build runs here, on the driver, under the stage panic policy:
        // a panicking `triple` fails the stage at the worker holding its row.
        let built = try_run_here(|worker| {
            let rows = rows.partitions().iter().enumerate();
            let rows = rows.flat_map(|(i, part)| {
                worker.set(i);
                part
            });
            Csr::build(rows, triple)
        });
        let csr = env.settle(stage.name(), built, Csr::default);
        env.finish_stage(stage);
        AdjacencyIndex {
            records: rows.len_untracked() as u64,
            env,
            key: None,
            csrs: Arc::new(vec![csr]),
            build_shuffled_bytes,
        }
    }

    /// The sorted `(neighbor, edge)` candidates of `key` that `worker` holds
    /// (empty when it holds none). A replicated index answers every worker
    /// alike.
    pub fn candidates(&self, worker: usize, key: u64) -> &[(u64, u64)] {
        let csr = match self.key {
            Some(_) => &self.csrs[worker],
            None => &self.csrs[0],
        };
        csr.candidates(key)
    }

    /// The key a partitioned index is placed by; `None` when replicated.
    pub fn partition_key(&self) -> Option<PartitionKey> {
        self.key
    }

    /// Total triples indexed.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Network bytes the one-time build moved: the shuffle of a partitioned
    /// index (zero if its input was already placed by the key), the
    /// replication of a replicated one.
    pub fn build_shuffled_bytes(&self) -> u64 {
        self.build_shuffled_bytes
    }

    /// Joins `probe` against a partitioned index with FlatJoin semantics:
    /// `join_fn(row, neighbor, edge)` sees each candidate of the row's
    /// `probe_key`, in `(neighbor, edge)` order.
    ///
    /// The probe side is shipped to the index's placement (a FORWARD if it
    /// is already stamped with the index key; otherwise its rows are moved
    /// if `probe` was the last handle on them, copied if not); the layouts
    /// are read in place. Only probe and output records are charged — the
    /// index costs nothing per probe, which is what makes it pay off inside
    /// bulk iterations.
    ///
    /// The output carries *no* partitioning fingerprint: `join_fn` emits
    /// arbitrary records that need not contain the key (an expand step
    /// joins on the path's end vertex and emits the *next* end vertex).
    pub fn probe_join<P, O, KP, F>(
        &self,
        probe: Dataset<P>,
        probe_key: KP,
        join_fn: F,
    ) -> Dataset<O>
    where
        P: Data,
        O: Data,
        KP: Fn(&P) -> u64 + Sync,
        F: Fn(&P, u64, u64) -> Option<O> + Sync,
    {
        assert!(self.key.is_some(), "probe_join reads a partitioned index");
        let env = self.env.clone();
        let mut stage = env.stage("join(probe-index)");
        let probe_parts = ship_side(probe, self.key, &probe_key, &mut stage);

        let outputs = env.run_stage(stage, |i, _| {
            let mut out = Vec::new();
            for p in &probe_parts[i] {
                for &(neighbor, edge) in self.candidates(i, probe_key(p)) {
                    out.extend(join_fn(p, neighbor, edge));
                }
            }
            out
        });
        Dataset::from_partitions(env, outputs)
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

    /// `(key, value)` pairs indexed as `key → (value, value)`.
    fn pair_triple(&(key, value): &(u64, u64)) -> (u64, u64, u64) {
        (key, value, value)
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
        let index =
            AdjacencyIndex::partitioned(edges, PartitionKey::named("edge.key"), pair_triple);
        assert_eq!(index.records(), 100);
        let mut rows = index
            .probe_join(probe, |p| *p, |p, v, _| Some((*p, v)))
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
        let index = AdjacencyIndex::partitioned(edges, key, pair_triple);
        let build_bytes = env.metrics().bytes_shuffled;
        assert!(build_bytes > 0);
        assert_eq!(index.build_shuffled_bytes(), build_bytes);
        // A probe already partitioned on the key ships nothing at all.
        let probe = env.from_collection(0u64..50).partition_by(key, |p| *p);
        let shuffled_before = env.metrics().bytes_shuffled;
        let joined = index.probe_join(probe, |p| *p, |p, v, _| Some((*p, v)));
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
        let index = AdjacencyIndex::partitioned(edges, key, pair_triple);
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
        let _ = AdjacencyIndex::partitioned(edges, PartitionKey::named("k"), pair_triple);
        assert!(env.metrics().bytes_spilled > 0);
    }

    #[test]
    fn every_adjacency_build_charges_its_memory_and_one_scratch_allocation_per_worker() {
        let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(2));
        let sink = Arc::new(crate::trace::CollectingSink::new());
        env.set_trace_sink(Some(sink.clone()));
        let triples = env.from_collection((0..100u64).map(|i| (i, i + 1, i)).collect::<Vec<_>>());
        let _ = AdjacencyIndex::partitioned(triples.clone(), PartitionKey::named("k"), |&t| t);
        let _ = AdjacencyIndex::replicated(&triples, |&t| t);
        let stages = sink.snapshot().stages;
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["index(build)", "wco(build-adjacency)"]);
        for stage in &stages {
            assert_eq!(stage.scratch_allocations, 2, "{}", stage.name);
        }
        // A worker of the partitioned index holds its share of the 2400
        // bytes, every worker of the replicated one all of them.
        assert!((1..2400).contains(&stages[0].peak_memory_bytes));
        assert_eq!(stages[1].peak_memory_bytes, 2400);
    }
}
