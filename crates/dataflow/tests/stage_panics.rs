//! One panic policy for every partition-parallel stage.
//!
//! Each site below runs a stage whose user code panics on one row, the
//! `POISON` row, on a known worker: in the stage's tasks, in the key a
//! shuffle routes the row by, or in the triple a replicated index is built
//! from. With fault tolerance installed the
//! stage yields an empty output and the environment records a classified
//! failure at ``stage `<name>` (worker i)``; without it the caller panics
//! with `partition worker i panicked`. Either way the environment runs its
//! next stage as usual.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use gradoop_dataflow::{
    partition_for, probe_intersect, AdjacencyIndex, CostModel, Data, Dataset, ExecutionConfig,
    ExecutionEnvironment, FaultConfig, JoinStrategy, PartitionKey,
};

const WORKERS: usize = 3;
const POISON: u64 = 7;

fn poisoned(x: u64) -> u64 {
    assert_ne!(x, POISON, "poisoned row");
    x
}

/// A row type whose equality panics when two `POISON` rows are compared:
/// the only user code `distinct` runs in its stage.
#[derive(Debug, Clone, Eq)]
struct Touchy(u64);

impl Hash for Touchy {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq for Touchy {
    fn eq(&self, other: &Self) -> bool {
        assert!(self.0 != POISON || other.0 != POISON, "poisoned row");
        self.0 == other.0
    }
}

impl Data for Touchy {
    fn byte_size(&self) -> usize {
        8
    }
}

/// `POISON` on worker 2, two rows or more on every worker.
fn placed(env: &ExecutionEnvironment) -> Dataset<u64> {
    Dataset::from_partitions(
        env.clone(),
        vec![vec![1, 2], vec![3, 5], vec![6, POISON, 8]],
    )
}

fn keyed(env: &ExecutionEnvironment) -> Dataset<(u64, u64)> {
    env.from_collection((0..12u64).map(|k| (k, 10 * k)).collect::<Vec<_>>())
}

fn poisoned_cmp(a: &u64, b: &u64) -> std::cmp::Ordering {
    poisoned(*a).cmp(&poisoned(*b))
}

/// One stage kind: the name its report carries, the worker that holds the
/// poisoned row, and a run returning how many rows the stage produced.
struct Site {
    stage: &'static str,
    worker: usize,
    run: fn(&ExecutionEnvironment) -> usize,
}

fn sites() -> Vec<Site> {
    // Where a stage that shuffles by the row's value places `POISON`.
    let hashed = partition_for(&POISON, WORKERS);
    let distinct_worker = {
        let mut hasher = DefaultHasher::new();
        Touchy(POISON).hash(&mut hasher);
        partition_for(&hasher.finish(), WORKERS)
    };
    vec![
        Site {
            stage: "map",
            worker: 2,
            run: |env| placed(env).map(|x| poisoned(*x)).len_untracked(),
        },
        Site {
            stage: "distinct",
            worker: distinct_worker,
            run: |env| {
                let rows = [1, POISON, 2, POISON, 3].map(Touchy);
                env.from_collection(rows).distinct().len_untracked()
            },
        },
        Site {
            stage: "join(repartition-hash)",
            worker: hashed,
            run: |env| {
                env.from_collection(0..12u64)
                    .join(
                        keyed(env),
                        |l| *l,
                        |r| r.0,
                        JoinStrategy::RepartitionHash,
                        |l, r| Some((poisoned(*l), r.1)),
                    )
                    .len_untracked()
            },
        },
        Site {
            stage: "join(broadcast-hash)",
            worker: 2,
            run: |env| {
                placed(env)
                    .join(
                        keyed(env),
                        |l| *l,
                        |r| r.0,
                        JoinStrategy::BroadcastHashSecond,
                        |l, r| Some((poisoned(*l), r.1)),
                    )
                    .len_untracked()
            },
        },
        Site {
            stage: "index(build)",
            worker: hashed,
            run: |env| {
                let key = PartitionKey::named("triple.key");
                // Already placed by the key, so the build task is the only
                // code that reads the triples.
                let triples = keyed(env).partition_by(key, |t| t.0);
                let index =
                    AdjacencyIndex::partitioned(triples, key, |&(k, v)| (poisoned(k), v, v));
                (0..WORKERS)
                    .flat_map(|w| (0..12).map(move |k| (w, k)))
                    .map(|(w, k)| index.candidates(w, k).len())
                    .sum()
            },
        },
        Site {
            stage: "join(probe-index)",
            worker: hashed,
            run: |env| {
                let key = PartitionKey::named("triple.key");
                let index = AdjacencyIndex::partitioned(keyed(env), key, |&(k, v)| (k, v, v));
                index
                    .probe_join(
                        env.from_collection(0..12u64),
                        |p| *p,
                        |p, v, _| Some((poisoned(*p), v)),
                    )
                    .len_untracked()
            },
        },
        Site {
            stage: "expand(wco-intersect)",
            worker: 2,
            run: |env| {
                let index = AdjacencyIndex::replicated(&keyed(env), |&(k, v)| (k, v, v));
                let (out, _) = probe_intersect(
                    &placed(env),
                    &[index],
                    |row, keys| keys.push(*row),
                    |row, neighbor, _, out| out.push((poisoned(*row), neighbor)),
                );
                out.len_untracked()
            },
        },
        Site {
            stage: "group_reduce",
            worker: hashed,
            run: |env| {
                keyed(env)
                    .group_reduce(|r| r.0, |k, members| (poisoned(*k), members.len()))
                    .len_untracked()
            },
        },
        Site {
            stage: "count_by_key(combine)",
            worker: 2,
            run: |env| placed(env).count_by_key(|x| poisoned(*x)).len_untracked(),
        },
        Site {
            stage: "order_by(full-sort)",
            worker: 2,
            run: |env| placed(env).ordered_full(poisoned_cmp, 0).len_untracked(),
        },
        Site {
            stage: "order_by(top-k)",
            worker: 2,
            run: |env| {
                placed(env)
                    .ordered_top_k(poisoned_cmp, 0, 2)
                    .len_untracked()
            },
        },
    ]
}

/// Sites whose panicking code runs before the stage's tasks: a shuffle's
/// key, read where the row sits, and a replicated index's triple, read on
/// the driver, which names the worker holding the row.
fn routing_sites() -> Vec<Site> {
    vec![
        Site {
            stage: "join(repartition-hash)",
            worker: 2,
            run: |env| {
                placed(env)
                    .join(
                        keyed(env),
                        |l| poisoned(*l),
                        |r| r.0,
                        JoinStrategy::RepartitionHash,
                        |l, r| Some((*l, r.1)),
                    )
                    .len_untracked()
            },
        },
        Site {
            stage: "partition_by_key",
            worker: 2,
            run: |env| {
                placed(env)
                    .group_reduce(|x| poisoned(*x), |k, members| (*k, members.len()))
                    .len_untracked()
            },
        },
        Site {
            stage: "partition_by_key",
            worker: 2,
            run: |env| {
                placed(env)
                    .partition_by(PartitionKey::named("poisoned"), |x| poisoned(*x))
                    .len_untracked()
            },
        },
        Site {
            stage: "wco(build-adjacency)",
            worker: 2,
            run: |env| {
                let index = AdjacencyIndex::replicated(&placed(env), |&x| (poisoned(x), x, x));
                (0..10).map(|k| index.candidates(0, k).len()).sum()
            },
        },
    ]
}

fn env() -> ExecutionEnvironment {
    ExecutionEnvironment::new(ExecutionConfig::with_workers(WORKERS).cost_model(CostModel::free()))
}

/// The environment still runs a stage, and has no failure left over.
fn assert_usable(env: &ExecutionEnvironment, stage: &str) {
    let stages = env.metrics().stages;
    assert_eq!(
        env.from_collection(0..10u64).map(|x| x + 1).count(),
        10,
        "{stage}"
    );
    assert_eq!(env.metrics().stages, stages + 2, "{stage}");
    assert!(env.take_execution_failure().is_none(), "{stage}");
}

#[test]
fn there_is_one_site_per_stage_kind() {
    let mut stages: Vec<&str> = sites().iter().map(|site| site.stage).collect();
    stages.sort_unstable();
    stages.dedup();
    assert_eq!(stages.len(), 11);
}

/// Runs `check` on every site, routing sites included, and fails listing
/// each site it failed on.
fn for_every_site(check: impl Fn(&Site) -> Result<(), String>) {
    let failed: Vec<String> = sites()
        .iter()
        .chain(&routing_sites())
        .filter_map(|site| {
            check(site)
                .err()
                .map(|why| format!("{}: {why}", site.stage))
        })
        .collect();
    assert!(
        failed.is_empty(),
        "{} sites failed:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn a_panicking_task_is_a_classified_failure_under_fault_tolerance() {
    for_every_site(|site| {
        let env = env();
        env.install_faults(FaultConfig::default());
        let rows = catch_unwind(AssertUnwindSafe(|| (site.run)(&env)))
            .map_err(|payload| format!("panicked: {}", panic_message(&*payload)))?;
        if rows != 0 {
            return Err(format!("yielded {rows} rows"));
        }
        let failure = env.take_execution_failure().ok_or("no failure recorded")?;
        let expected = format!("stage `{}` (worker {})", site.stage, site.worker);
        if failure.site != expected
            || failure.attempts != 1
            || !failure.message.contains("worker panicked")
            || !failure.message.contains("poisoned row")
        {
            return Err(format!("{failure:?}, expected site {expected:?}"));
        }
        assert_usable(&env, site.stage);
        Ok(())
    });
}

#[test]
fn a_panicking_task_fails_the_caller_without_fault_tolerance() {
    for_every_site(|site| {
        let env = env();
        let payload = catch_unwind(AssertUnwindSafe(|| (site.run)(&env)))
            .err()
            .ok_or("the stage did not fail")?;
        let message = panic_message(&*payload);
        let expected = format!("partition worker {} panicked: ", site.worker);
        if !message.starts_with(&expected) || !message.contains("poisoned row") {
            return Err(format!("{message:?}, expected {expected:?}…"));
        }
        assert_usable(&env, site.stage);
        Ok(())
    });
}
