//! Property-based tests of the join library: every strategy must produce
//! the same multiset of results, and the left outer join must keep every
//! left row.

use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment, JoinStrategy};
use proptest::prelude::*;

fn env(workers: usize) -> ExecutionEnvironment {
    ExecutionEnvironment::new(ExecutionConfig::with_workers(workers).cost_model(CostModel::free()))
}

fn pairs() -> impl Strategy<Value = Vec<(u8, u16)>> {
    proptest::collection::vec((0u8..8, any::<u16>()), 0..24)
}

proptest! {
    #[test]
    fn all_strategies_agree(
        left in pairs(),
        right in pairs(),
        workers in 1..5usize,
    ) {
        let env = env(workers);
        let left_ds = env.from_collection(left.clone());
        let right_ds = env.from_collection(right.clone());
        let mut expected: Vec<(u8, u16, u16)> = Vec::new();
        for (lk, lv) in &left {
            for (rk, rv) in &right {
                if lk == rk {
                    expected.push((*lk, *lv, *rv));
                }
            }
        }
        expected.sort_unstable();
        for strategy in [
            JoinStrategy::RepartitionHash,
            JoinStrategy::BroadcastHashFirst,
            JoinStrategy::BroadcastHashSecond,
        ] {
            let mut got = left_ds
                .clone()
                .join(
                    right_ds.clone(),
                    |(k, _)| *k,
                    |(k, _)| *k,
                    strategy,
                    |(k, lv), (_, rv)| Some((*k, *lv, *rv)),
                )
                .collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "{:?}", strategy);
        }
    }

    #[test]
    fn left_outer_join_covers_every_left_row(
        left in pairs(),
        right in pairs(),
        workers in 1..5usize,
    ) {
        let env = env(workers);
        let left_ds = env.from_collection(left.clone());
        let right_ds = env.from_collection(right);
        let outer = left_ds.join_left_outer_filtered(
            right_ds,
            |(k, _)| *k,
            |(k, _)| *k,
            |_, _| true,
            |l, _| Some(*l),
        );
        let mut covered: Vec<(u8, u16)> = outer.collect();
        covered.sort_unstable();
        covered.dedup();
        let mut all_left = left;
        all_left.sort_unstable();
        all_left.dedup();
        prop_assert_eq!(covered, all_left);
    }

    #[test]
    fn distinct_matches_set_semantics(
        items in proptest::collection::vec(0u8..16, 0..64),
        workers in 1..5usize,
    ) {
        let env = env(workers);
        let mut got = env.from_collection(items.clone()).distinct().collect();
        got.sort_unstable();
        let mut expected = items;
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(got, expected);
    }
}
