//! Distributed ordering: full sort and per-partition top-k + driver merge.
//!
//! `ORDER BY` without a `LIMIT` has to materialize and ship every row to
//! produce a total order ([`Dataset::ordered_full`]). With a `LIMIT l` (and
//! optional `SKIP s`) only the first `s + l` rows of each partition can ever
//! reach the output, so each worker sorts locally, truncates to `s + l`, and
//! ships just that prefix to the driver for the final merge
//! ([`Dataset::ordered_top_k`]). The stage names — `order_by(full-sort)` vs
//! `order_by(top-k)` — flow through [`StageReport`](crate::StageReport) into
//! PROFILE and the query log, so plans can prove which variant ran.

use std::cmp::Ordering;

use crate::data::Data;
use crate::dataset::Dataset;
use crate::join::bytes_of;

impl<T: Data> Dataset<T> {
    /// Total order over the whole dataset: sorts every partition locally,
    /// ships everything to the driver, merges, and drops the first `skip`
    /// rows. The result is a single ordered partition.
    ///
    /// `cmp` must be a total order for the output to be deterministic.
    pub fn ordered_full<C>(&self, cmp: C, skip: usize) -> Dataset<T>
    where
        C: Fn(&T, &T) -> Ordering + Sync,
    {
        let env = self.env().clone();
        let mut stage = env.stage("order_by(full-sort)");
        stage.read(self.partitions());
        let sorted = env.run_stage(stage, |i, cost| {
            let mut local: Vec<T> = self.partitions()[i].to_vec();
            local.sort_by(&cmp);
            cost.bytes_sent += bytes_of(&local);
            local
        });
        let merged = merge_sorted(sorted, &cmp, skip, usize::MAX);
        let partitions = ordered_partitions(merged, env.workers());
        Dataset::from_partitions(env, partitions)
    }

    /// Top-k selection for `ORDER BY ... [SKIP skip] LIMIT limit`: each
    /// partition sorts locally and ships only its first `skip + limit` rows;
    /// the driver merges the prefixes and keeps rows `skip .. skip + limit`.
    /// The result is a single ordered partition of at most `limit` rows.
    pub fn ordered_top_k<C>(&self, cmp: C, skip: usize, limit: usize) -> Dataset<T>
    where
        C: Fn(&T, &T) -> Ordering + Sync,
    {
        let keep = skip.saturating_add(limit);
        let env = self.env().clone();
        let mut stage = env.stage("order_by(top-k)");
        stage.read(self.partitions());
        let truncated = env.run_stage(stage, |i, cost| {
            let mut local: Vec<T> = self.partitions()[i].to_vec();
            local.sort_by(&cmp);
            local.truncate(keep);
            cost.bytes_sent += bytes_of(&local);
            local
        });
        let merged = merge_sorted(truncated, &cmp, skip, limit);
        let partitions = ordered_partitions(merged, env.workers());
        Dataset::from_partitions(env, partitions)
    }
}

/// The merged run as partition 0 plus empty partitions for the remaining
/// workers — `collect` concatenates partitions in order, so the dataset
/// stays totally ordered.
fn ordered_partitions<T>(merged: Vec<T>, workers: usize) -> Vec<Vec<T>> {
    let mut partitions: Vec<Vec<T>> = Vec::with_capacity(workers);
    partitions.push(merged);
    for _ in 1..workers {
        partitions.push(Vec::new());
    }
    partitions
}

/// K-way merge of locally sorted runs at the driver, skipping the first
/// `skip` merged rows and keeping at most `limit` after that.
fn merge_sorted<T: Clone, C>(runs: Vec<Vec<T>>, cmp: &C, skip: usize, limit: usize) -> Vec<T>
where
    C: Fn(&T, &T) -> Ordering,
{
    let mut cursors: Vec<(usize, std::slice::Iter<'_, T>)> = Vec::new();
    let mut heads: Vec<Option<&T>> = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let mut it = run.iter();
        let head = it.next();
        cursors.push((i, it));
        heads.push(head);
    }
    let mut out: Vec<T> = Vec::new();
    let mut dropped = 0usize;
    if limit == 0 {
        return out;
    }
    loop {
        // Smallest head; ties resolved by run index for stability.
        let mut best: Option<usize> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some(h) = head {
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        if cmp(h, heads[b].expect("best head set")) == Ordering::Less {
                            best = Some(i);
                        }
                    }
                }
            }
        }
        let Some(i) = best else { break };
        let value = heads[i].expect("head present").clone();
        heads[i] = cursors[i].1.next();
        if dropped < skip {
            dropped += 1;
            continue;
        }
        out.push(value);
        if out.len() >= limit {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::cost::CostModel;
    use crate::env::{ExecutionConfig, ExecutionEnvironment};
    use crate::trace::{CollectingSink, TraceSink};
    use std::sync::Arc;

    fn env(workers: usize) -> ExecutionEnvironment {
        ExecutionEnvironment::new(
            ExecutionConfig::with_workers(workers).cost_model(CostModel::free()),
        )
    }

    #[test]
    fn full_sort_orders_everything() {
        let env = env(4);
        let ds = env.from_collection((0u64..100).map(|i| (i * 31) % 100).collect::<Vec<_>>());
        let sorted = ds.ordered_full(|a, b| a.cmp(b), 0);
        assert_eq!(sorted.collect(), (0u64..100).collect::<Vec<_>>());
    }

    #[test]
    fn full_sort_applies_skip() {
        let env = env(3);
        let ds = env.from_collection(vec![5u64, 1, 4, 2, 3]);
        let sorted = ds.ordered_full(|a, b| a.cmp(b), 2);
        assert_eq!(sorted.collect(), vec![3, 4, 5]);
    }

    #[test]
    fn top_k_matches_full_sort_prefix() {
        let values: Vec<u64> = (0u64..200).map(|i| (i * 97) % 200).collect();
        for (skip, limit) in [(0usize, 5usize), (3, 7), (10, 0), (195, 10)] {
            let env = env(4);
            let ds = env.from_collection(values.clone());
            let top = ds.ordered_top_k(|a, b| a.cmp(b), skip, limit).collect();
            let mut expected: Vec<u64> = values.clone();
            expected.sort_unstable();
            let expected: Vec<u64> = expected.into_iter().skip(skip).take(limit).collect();
            assert_eq!(top, expected, "skip={skip} limit={limit}");
        }
    }

    #[test]
    fn top_k_ships_fewer_bytes_than_full_sort() {
        let values: Vec<u64> = (0u64..1000).map(|i| (i * 61) % 1000).collect();
        let shipped = |top_k: bool| {
            let env = env(4);
            let sink = Arc::new(CollectingSink::new());
            env.set_trace_sink(Some(sink.clone() as Arc<dyn TraceSink>));
            let ds = env.from_collection(values.clone());
            if top_k {
                ds.ordered_top_k(|a, b| a.cmp(b), 0, 10);
            } else {
                ds.ordered_full(|a, b| a.cmp(b), 0);
            }
            let trace = sink.drain();
            let stage = trace
                .stages
                .iter()
                .find(|s| s.name.starts_with("order_by"))
                .expect("order stage traced")
                .clone();
            (stage.name.clone(), stage.bytes_shuffled)
        };
        let (full_name, full_bytes) = shipped(false);
        let (topk_name, topk_bytes) = shipped(true);
        assert_eq!(full_name, "order_by(full-sort)");
        assert_eq!(topk_name, "order_by(top-k)");
        assert!(
            topk_bytes < full_bytes / 10,
            "top-k shipped {topk_bytes}B, full sort {full_bytes}B"
        );
    }

    #[test]
    fn empty_dataset_orders_to_empty() {
        let env = env(2);
        let ds = env.from_collection(Vec::<u64>::new());
        assert!(ds.ordered_full(|a, b| a.cmp(b), 0).collect().is_empty());
        let ds = env.from_collection(Vec::<u64>::new());
        assert!(ds.ordered_top_k(|a, b| a.cmp(b), 0, 5).collect().is_empty());
    }
}
