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
//!
//! Two hashes serve two purposes. Placement — which worker a key lands on —
//! is SipHash ([`DefaultHasher`]) with fixed keys, so partitions, their
//! order and every simulated figure are the same on every run. The hash
//! tables that live inside one partition and are never iterated (join and
//! grouping tables, adjacency runs, seen-sets, id lookups) hash with
//! [`TableHasher`], a seeded folded multiply that costs one widening multiply
//! per word instead of a SipHash round per row.

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::cost::StageCosts;
use crate::data::Data;
use crate::env::ExecutionEnvironment;
use crate::pool::{try_run_indexed, Handoff};

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

/// The [`BuildHasher`] of every hash table that lives inside one partition
/// and is never iterated: `HashMap<K, V, TableHasher>`. Its hashes decide
/// bucket positions only, never placement or output order, so the seed may
/// differ per process; it is drawn once, from the standard library's
/// [`RandomState`], so keys taken from query text (`UNWIND` literals,
/// property values) cannot be chosen to collide.
#[derive(Debug, Clone, Copy)]
pub struct TableHasher {
    seed: u64,
}

impl Default for TableHasher {
    /// The process's table seed; drawn on first use, without allocating.
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        TableHasher {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(0u64)),
        }
    }
}

impl BuildHasher for TableHasher {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.seed }
    }
}

/// The hasher [`TableHasher`] builds: every word is mixed into the state by
/// one [`fold`].
#[derive(Debug, Clone)]
pub struct FoldHasher {
    state: u64,
}

/// An odd multiplier with well-spread bits (2^64 / φ).
const FOLD_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixes `word` into `state`: the 128-bit product of `state ^ word` and an
/// odd constant, its high and low halves XORed. Keeping only the low half
/// would leave keys that differ only in high bits (GradoopIds, `(id, id)`
/// pairs) with equal low bits — one bucket for all of them; the high half
/// carries those bits down.
#[inline]
fn fold(state: u64, word: u64) -> u64 {
    let product = u128::from(state ^ word) * u128::from(FOLD_MULTIPLIER);
    (product as u64) ^ ((product >> 64) as u64)
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    /// Eight bytes per fold; the last 0–7 bytes share one word with the
    /// slice's length, so slices that differ only in trailing zeros differ.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            self.state = fold(self.state, word);
        }
        let rest = words.remainder();
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        let tail = u64::from_le_bytes(tail) | ((bytes.len() as u64) << 56);
        self.state = fold(self.state, tail);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.state = fold(self.state, u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.state = fold(self.state, u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.state = fold(self.state, u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = fold(self.state, i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.state = fold(fold(self.state, i as u64), (i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.state = fold(self.state, i as u64);
    }
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
///
/// A `key` that panics fails `stage` under `env`'s panic policy: with fault
/// tolerance installed the failure is recorded at the worker that held the
/// row and every output partition is empty; without it the caller panics.
pub fn shuffle_by_key<T, K, F>(
    env: &ExecutionEnvironment,
    partitions: Arc<Vec<Vec<T>>>,
    key: F,
    stage: &mut StageCosts,
) -> Vec<Vec<T>>
where
    T: Data,
    K: Hash,
    F: Fn(&T) -> K + Sync,
{
    route(env, partitions, key, |_, item| item, stage)
}

/// [`shuffle_by_key`], but each element's computed key rides along to the
/// receiving worker so downstream grouping reuses it instead of re-deriving
/// it per record — group keys can be expensive (rendered group-by rows,
/// decoded property values). It consumes the handle the same way, and its
/// cost accounting is identical: the keys are engine-side scratch (a real
/// system re-hashes on the receiver), so only `T`'s bytes are charged.
pub fn shuffle_with_keys<T, K, F>(
    env: &ExecutionEnvironment,
    partitions: Arc<Vec<Vec<T>>>,
    key: F,
    stage: &mut StageCosts,
) -> Vec<Vec<(K, T)>>
where
    T: Data,
    K: Hash + Send,
    F: Fn(&T) -> K + Sync,
{
    route(env, partitions, key, |k, item| (k, item), stage)
}

/// The routing loop of both shuffles. Each source worker takes its rows
/// (last handle) or clones them (shared), computes each row's key once,
/// files `entry(key, row)` in the bucket of the key's target worker and
/// adds the row's bytes to that bucket when it leaves the worker. The
/// buckets are then charged (sender and receiver) and concatenated per
/// target in source order. A panicking source task is settled by `env`'s
/// panic policy; a failed routing routes nothing.
fn route<T, K, E, F, M>(
    env: &ExecutionEnvironment,
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
    let sources = Arc::try_unwrap(partitions).map(Handoff::new);
    // Phase 1 (parallel): per source, one (entries, bytes moved) bucket per
    // target worker.
    let attempt = try_run_indexed(workers, &|index| {
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
            Ok(owned) => owned.take(index).into_iter().for_each(&mut place),
            Err(shared) => shared[index].iter().for_each(|item| place(item.clone())),
        }
        buckets
    });
    let routed: Vec<Vec<(Vec<E>, u64)>> =
        env.settle(stage.name(), attempt.map(Iterator::collect), Vec::new);

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
    use crate::env::ExecutionConfig;

    fn env(workers: usize) -> ExecutionEnvironment {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(workers))
    }

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
        let shuffled = shuffle_by_key(&env(2), Arc::new(partitions), |x| *x, &mut stage);
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
        let _ = shuffle_by_key(&env(1), Arc::new(partitions), |x| *x, &mut stage);
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

    /// Distinct values of the low 12 bits of the table hashes of `keys`:
    /// what a table of 4 096 buckets spreads them over.
    fn low_bits_spread<K: Hash>(keys: impl Iterator<Item = K>) -> usize {
        let hasher = TableHasher::default();
        let mut buckets = vec![false; 4096];
        for key in keys {
            buckets[(hasher.hash_one(key) & 4095) as usize] = true;
        }
        buckets.iter().filter(|&&hit| hit).count()
    }

    #[test]
    fn table_hashes_spread_every_key_shape_the_engine_hashes() {
        // Uniform hashes would fill ≈ 2 589 of 4 096 buckets. Keeping only
        // the product's low half puts every id below on one bucket.
        let ids = low_bits_spread((0..4096u64).map(|i| i << 32));
        let pairs = low_bits_spread((0..4096u64).map(|i| (i << 32, (i + 1) << 32)));
        let strings =
            low_bits_spread((0..4096u64).map(|i| format!("shared-prefix-of-24-byte{i:08}")));
        for (shape, spread) in [("ids", ids), ("pairs", pairs), ("strings", strings)] {
            assert!(spread >= 2000, "{shape}: 4 096 keys on {spread} buckets");
        }
    }

    #[test]
    fn table_hashes_are_stable_within_a_process() {
        let (a, b) = (TableHasher::default(), TableHasher::default());
        assert_eq!(a.hash_one((7u64, "x")), b.hash_one((7u64, "x")));
        assert_ne!(a.hash_one(b"ab".as_slice()), a.hash_one(b"ab\0".as_slice()));
    }

    #[test]
    fn placement_is_pinned() {
        // Recorded before table hashing moved off SipHash: placement
        // decides partitions, their order and every simulated figure, so a
        // later hasher change must leave these values as they are.
        let ids: [u64; 4] = [0, 1, 42, 1 << 40];
        let pairs: [(u64, u64); 3] = [(0, 1), (7, 7), (1 << 32, 3)];
        let names = ["", "Alice", "person.id"];
        let placed = |workers: usize| -> Vec<usize> {
            let ids = ids.iter().map(|k| partition_for(k, workers));
            let pairs = pairs.iter().map(|k| partition_for(k, workers));
            let names = names.iter().map(|k| partition_for(k, workers));
            ids.chain(pairs).chain(names).collect()
        };
        assert_eq!(placed(2), [1, 1, 1, 0, 0, 1, 0, 1, 1, 0]);
        assert_eq!(placed(4), [1, 1, 1, 2, 2, 3, 2, 3, 3, 0]);
        assert_eq!(placed(16), [5, 9, 1, 2, 10, 3, 6, 15, 15, 12]);
    }

    #[test]
    fn shuffle_on_empty_input_is_empty() {
        let partitions: Vec<Vec<u64>> = vec![vec![], vec![]];
        let mut stage = StageCosts::new("shuffle", 2);
        let shuffled = shuffle_by_key(&env(2), Arc::new(partitions), |x| *x, &mut stage);
        assert!(shuffled.iter().all(Vec::is_empty));
    }
}
