//! The filtered left outer join.
//!
//! `OPTIONAL MATCH ... WHERE` is a left outer join whose predicate decides
//! what counts as a match. It runs as the one repartitioned join stage of
//! `join.rs`: both sides are shipped by key (moved when the join holds
//! their last handle), each right partition is indexed by a `ChainedTable`
//! (two allocations per table, none per key) whose memory and spill the
//! stage charges, and each left partition probes it. Like the inner joins
//! it consumes both inputs.

use std::hash::Hash;

use crate::data::Data;
use crate::dataset::Dataset;
use crate::join::Build;

impl<T: Data> Dataset<T> {
    /// Left outer equi-join with a match predicate: a right element with an
    /// equal key only counts as a partner when `accept` holds for the pair.
    /// A left element whose key-equal candidates **all** fail `accept` is
    /// treated as unmatched and emitted once with `None` — the behaviour
    /// `OPTIONAL MATCH ... WHERE` needs, where the predicate is part of the
    /// match decision rather than a post-filter (a post-filter would drop
    /// the row instead of NULL-padding it).
    pub fn join_left_outer_filtered<R, K, O, KL, KR, P, F>(
        self,
        right: Dataset<R>,
        left_key: KL,
        right_key: KR,
        accept: P,
        join_fn: F,
    ) -> Dataset<O>
    where
        R: Data,
        O: Data,
        K: Hash + Eq,
        KL: Fn(&T) -> K + Sync,
        KR: Fn(&R) -> K + Sync,
        P: Fn(&T, &R) -> bool + Sync,
        F: Fn(&T, Option<&R>) -> Option<O> + Sync,
    {
        self.repartition_join(
            "join(left-outer-hash)",
            right,
            None,
            (&left_key, &right_key),
            Build::Right,
            |l, r, _, table| {
                let mut out = Vec::new();
                for item in l {
                    let mut matched = false;
                    for candidate in table.matches(&left_key(item)).map(|i| &r[i]) {
                        if accept(item, candidate) {
                            matched = true;
                            out.extend(join_fn(item, Some(candidate)));
                        }
                    }
                    if !matched {
                        out.extend(join_fn(item, None));
                    }
                }
                out
            },
        )
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
    fn left_outer_join_keeps_unmatched_lefts() {
        let env = env(3);
        let left = env.from_collection(vec![1u64, 2, 3]);
        let right = env.from_collection(vec![(2u64, "two".to_string())]);
        let joined = left.join_left_outer_filtered(
            right,
            |l| *l,
            |(k, _)| *k,
            |_, _| true,
            |l, matched| Some((*l, matched.map(|(_, v)| v.clone()).unwrap_or_default())),
        );
        let mut rows = joined.collect();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                (1, String::new()),
                (2, "two".to_string()),
                (3, String::new())
            ]
        );
    }

    #[test]
    fn left_outer_join_multiplies_matches() {
        let env = env(2);
        let left = env.from_collection(vec![1u64]);
        let right = env.from_collection(vec![(1u64, 10u64), (1, 20)]);
        let joined = left.join_left_outer_filtered(
            right,
            |l| *l,
            |(k, _)| *k,
            |_, _| true,
            |_, matched| matched.map(|(_, v)| *v),
        );
        let mut rows = joined.collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![10, 20]);
    }

    #[test]
    fn filtered_outer_join_pads_when_all_candidates_fail() {
        let env = env(3);
        let left = env.from_collection(vec![1u64, 2, 3]);
        // Key 2 has two candidates: one accepted, one rejected. Key 3 has
        // one candidate that the predicate rejects — it must still be
        // padded, not dropped.
        let right = env.from_collection(vec![(2u64, 10u64), (2, 99), (3, 99)]);
        let joined = left.join_left_outer_filtered(
            right,
            |l| *l,
            |(k, _)| *k,
            |_, (_, v)| *v != 99,
            |l, matched| Some((*l, matched.map(|(_, v)| *v))),
        );
        let mut rows = joined.collect();
        rows.sort();
        assert_eq!(rows, vec![(1, None), (2, Some(10)), (3, None)]);
    }

    #[test]
    fn outer_join_on_empty_right_is_all_none() {
        let env = env(2);
        let left = env.from_collection(vec![5u64]);
        let right = env.from_collection(Vec::<u64>::new());
        let joined = left.join_left_outer_filtered(
            right,
            |l| *l,
            |r| *r,
            |_, _| true,
            |l, matched| Some((*l, matched.is_none())),
        );
        assert_eq!(joined.collect(), vec![(5, true)]);
    }
}
