//! Hash partitioning and the shuffle primitive.
//!
//! A shuffle redistributes elements so that equal keys land on the same
//! worker. Records that change workers are charged as network traffic
//! (sender and receiver side) by the simulated clock.
//!
//! Shuffles also produce a *placement fact*: after `shuffle_by_key` every
//! record sits on `partition_for(key(record))`. [`Partitioning`] captures
//! that fact as a fingerprint (semantic key id + worker count) so later
//! operators — joins above all — can recognize co-partitioned inputs and
//! skip the shuffle entirely, mirroring Flink's FORWARD ship strategy.
//!
//! [`shuffle_by_key`] **consumes** the partition handle it is given: the
//! last holder of a dataset gives its rows away (each row is moved into its
//! bucket), anyone else keeps them and the shuffle clones. Which of the two
//! happened is observed from the handle, never configured, and changes
//! neither the output nor a single charged byte. [`shuffle_with_keys`]
//! (group-by / reduce) is the same shuffle, routed by the same loop, that
//! keeps each record's key beside it.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use crate::cost::StageCosts;
use crate::data::Data;
use crate::pool::run_indexed;

/// Identity of a *semantic* partitioning key, e.g. "the edge source id" or
/// "the values of join variables `[a, b]`". Two datasets partitioned under
/// the same `PartitionKey` (and worker count) are co-partitioned: records
/// whose key functions extract equal values live on the same worker.
///
/// The id is opaque; [`PartitionKey::named`] derives one deterministically
/// from a descriptive string so independent operators that agree on the
/// name agree on the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionKey(pub u64);

impl PartitionKey {
    /// Deterministic key id for a semantic key description. Callers across
    /// layers that pass the same name get the same key.
    pub fn named(name: &str) -> Self {
        let mut hasher = DefaultHasher::new();
        name.hash(&mut hasher);
        PartitionKey(hasher.finish())
    }
}

/// A dataset's partitioning fingerprint: which semantic key its records are
/// hash-placed by, and over how many workers. Carried by
/// [`Dataset`](crate::Dataset) as metadata; it is a claim about *placement*
/// (`record` is on `partition_for(key(record), workers)`), so it stays
/// valid under partition-local transformations (`filter`) and is
/// invalidated by anything that moves or rewrites records (`map`,
/// `flat_map`, unions of differently partitioned inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioning {
    /// The semantic key records are placed by.
    pub key: PartitionKey,
    /// Worker count the hash placement was computed for.
    pub workers: usize,
}

/// Deterministic target worker for a key.
#[inline]
pub fn partition_for<K: Hash>(key: &K, workers: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() % workers as u64) as usize
}

/// Redistributes `partitions` so that each element lands on
/// `partition_for(key(elem))`, charging shuffle traffic to `stage`.
///
/// Elements that stay on their current worker are free; elements that move
/// are charged once on the sender and once on the receiver.
///
/// The handle is consumed. If it is the last one, the rows are moved out of
/// the input; if anything else still holds the partitions (a graph snapshot
/// shared by sessions, an iteration checkpoint, a caller that kept a
/// clone), they stay untouched and every row is cloned. Output order is the
/// same either way: source partitions in order, rows in order.
pub fn shuffle_by_key<T, K, F>(
    partitions: Arc<Vec<Vec<T>>>,
    key: F,
    stage: &mut StageCosts,
) -> Vec<Vec<T>>
where
    T: Data,
    K: Hash,
    F: Fn(&T) -> K + Sync,
{
    route(partitions, key, |_, item| item, stage)
}

/// [`shuffle_by_key`], but each element's computed key rides along to the
/// receiving worker so downstream grouping reuses it instead of re-deriving
/// it per record — group keys can be expensive (rendered group-by rows,
/// decoded property values). It consumes the handle the same way, and its
/// cost accounting is identical: the keys are engine-side scratch (a real
/// system re-hashes on the receiver), so only `T`'s bytes are charged.
pub fn shuffle_with_keys<T, K, F>(
    partitions: Arc<Vec<Vec<T>>>,
    key: F,
    stage: &mut StageCosts,
) -> Vec<Vec<(K, T)>>
where
    T: Data,
    K: Hash + Send,
    F: Fn(&T) -> K + Sync,
{
    route(partitions, key, |k, item| (k, item), stage)
}

/// The routing loop of both shuffles. Each source worker takes its rows
/// (last handle) or clones them (shared), computes each row's key once,
/// files `entry(key, row)` in the bucket of the key's target worker and
/// adds the row's bytes to that bucket when it leaves the worker. The
/// buckets are then charged (sender and receiver) and concatenated per
/// target in source order.
fn route<T, K, E, F, M>(
    partitions: Arc<Vec<Vec<T>>>,
    key: F,
    entry: M,
    stage: &mut StageCosts,
) -> Vec<Vec<E>>
where
    T: Data,
    K: Hash,
    E: Send,
    F: Fn(&T) -> K + Sync,
    M: Fn(K, T) -> E + Sync,
{
    let workers = partitions.len();
    // The last holder's partitions are ours to take apart, one per worker.
    let sources = Arc::try_unwrap(partitions).map(Mutex::new);
    // Phase 1 (parallel): per source, one (entries, bytes moved) bucket per
    // target worker.
    let routed: Vec<Vec<(Vec<E>, u64)>> = run_indexed(workers, |index| {
        let mut buckets: Vec<(Vec<E>, u64)> = (0..workers).map(|_| (Vec::new(), 0)).collect();
        let mut place = |item: T| {
            let k = key(&item);
            let target = partition_for(&k, workers);
            let (entries, bytes) = &mut buckets[target];
            if target != index {
                *bytes += item.byte_size() as u64;
            }
            entries.push(entry(k, item));
        };
        match &sources {
            Ok(owned) => {
                // The guard is released before the rows are routed.
                let mine = std::mem::take(
                    &mut owned.lock().expect("held only to take a partition")[index],
                );
                mine.into_iter().for_each(&mut place);
            }
            Err(shared) => shared[index].iter().for_each(|item| place(item.clone())),
        }
        buckets
    });

    // Phase 2: charge costs and regroup buckets by target worker.
    let mut result: Vec<Vec<E>> = (0..workers).map(|_| Vec::new()).collect();
    for (source, buckets) in routed.into_iter().enumerate() {
        for (target, (entries, bytes)) in buckets.into_iter().enumerate() {
            stage.worker(source).records_in += entries.len() as u64;
            if target != source {
                stage.worker(source).bytes_sent += bytes;
                stage.worker(target).bytes_received += bytes;
            }
            result[target].extend(entries);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StageCosts;

    #[test]
    fn partition_for_is_deterministic_and_in_range() {
        for key in 0u64..1000 {
            let p = partition_for(&key, 7);
            assert!(p < 7);
            assert_eq!(p, partition_for(&key, 7));
        }
    }

    #[test]
    fn shuffle_groups_equal_keys() {
        let partitions: Vec<Vec<u64>> = vec![vec![1, 2, 3, 1], vec![2, 1, 4]];
        let mut stage = StageCosts::new("shuffle", 2);
        let shuffled = shuffle_by_key(Arc::new(partitions), |x| *x, &mut stage);
        assert_eq!(shuffled.iter().map(Vec::len).sum::<usize>(), 7);
        // Every copy of a key must be in the partition the hash assigns.
        for (index, part) in shuffled.iter().enumerate() {
            for item in part {
                assert_eq!(partition_for(item, 2), index);
            }
        }
    }

    #[test]
    fn shuffle_charges_only_moved_bytes() {
        // Single worker: nothing can move, so no network traffic.
        let partitions: Vec<Vec<u64>> = vec![vec![1, 2, 3]];
        let mut stage = StageCosts::new("shuffle", 1);
        let _ = shuffle_by_key(Arc::new(partitions), |x| *x, &mut stage);
        let report = stage.finish(&crate::cost::CostModel::free());
        assert_eq!(report.bytes_shuffled, 0);
    }

    #[test]
    fn named_partition_keys_are_deterministic() {
        assert_eq!(
            PartitionKey::named("edge.source"),
            PartitionKey::named("edge.source")
        );
        assert_ne!(
            PartitionKey::named("edge.source"),
            PartitionKey::named("edge.target")
        );
    }

    #[test]
    fn shuffle_on_empty_input_is_empty() {
        let partitions: Vec<Vec<u64>> = vec![vec![], vec![]];
        let mut stage = StageCosts::new("shuffle", 2);
        let shuffled = shuffle_by_key(Arc::new(partitions), |x| *x, &mut stage);
        assert!(shuffled.iter().all(Vec::is_empty));
    }
}
