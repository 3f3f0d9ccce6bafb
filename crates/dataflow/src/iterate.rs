//! Bulk iteration (Flink's `BulkIteration` operator).
//!
//! The paper evaluates variable-length path expressions with a bulk
//! iteration whose body performs a 1-hop expansion; the iteration terminates
//! when the upper bound is reached or no valid paths remain (Section 3.1).
//! [`bulk_iterate_with_results`] provides exactly those while-loop
//! semantics: the body maps the working set of one iteration to the working
//! set of the next, and the loop stops at `max_iterations` or on an empty
//! working set.
//!
//! A loop-invariant dataset is not the loop's business: the caller builds
//! it once, before the loop (for a join side, a partitioned
//! [`AdjacencyIndex`](crate::index::AdjacencyIndex)), and the body reads
//! it every superstep — Flink caches loop-invariant datasets inside a
//! `BulkIteration` the same way.
//!
//! The loop owns what it iterates over. The body receives the working set by
//! value, so a shuffle inside it moves the rows; each iteration's solution
//! dataset is consumed by [`Dataset::union`] and appended to the one
//! solution set, which therefore grows in place — linear in the rows found,
//! not supersteps × rows. A checkpoint is one more handle on both sets: the
//! superstep after it copies instead of appending, and the snapshot never
//! sees a later row.

use crate::cost::StageCosts;
use crate::data::Data;
use crate::dataset::Dataset;
use crate::env::ExecutionEnvironment;
use crate::fault::{backoff_seconds, ExecutionFailure, FaultConfig};
use crate::trace::SpanRecord;

/// Runs `body` up to `max_iterations` times, feeding each iteration's
/// working set into the next and terminating early when the working set
/// becomes empty. The body receives the 1-based iteration number, mirroring
/// Flink's iteration runtime context, and additionally emits a "solution"
/// dataset per iteration; all solutions are unioned into the second return
/// value, the final working set is the first. This matches the paper's
/// expansion dataflow, where embeddings reaching the lower path bound are
/// moved to the result set via a union transformation while the working set
/// keeps growing paths.
///
/// When the environment has a [`FaultConfig`] installed, the iteration is
/// **checkpointed**: every [`FaultConfig::checkpoint_interval`] supersteps
/// the working and solution sets are snapshotted (the write is charged to
/// the simulated clock as a `"checkpoint"` stage), and a scheduled
/// superstep fault rolls the loop back to the last checkpoint instead of
/// losing the query — re-executed supersteps re-charge their stages
/// naturally, so recovery overhead shows up in simulated seconds. With a
/// checkpoint interval of `0` recovery restarts from the initial working
/// set (restart-from-scratch, the ablation baseline). More superstep
/// faults than [`FaultConfig::max_attempts`] poison the environment with
/// an [`ExecutionFailure`].
pub fn bulk_iterate_with_results<T, R, F>(
    initial: Dataset<T>,
    max_iterations: usize,
    mut body: F,
) -> (Dataset<T>, Dataset<R>)
where
    T: Data,
    R: Data,
    F: FnMut(Dataset<T>, usize) -> (Dataset<T>, Dataset<R>),
{
    let env = initial.env().clone();
    let mut working = initial;
    let mut results: Dataset<R> = env.empty();
    // Under a fault policy the initial state doubles as the superstep-0
    // checkpoint; with interval 0 it is never replaced, so recovery restarts
    // from scratch. Without one no checkpoint is taken: nothing else holds
    // the solution set, so every superstep appends to it in place.
    let mut checkpoint = env
        .fault_config()
        .map(|config| (config, 0usize, working.clone(), results.clone()));
    let mut restores: u32 = 0;
    let mut iteration = 1usize;
    while iteration <= max_iterations && !working.is_empty_untracked() {
        if let Some(event) = env.begin_superstep_fault() {
            let Some((config, at, saved_working, saved_results)) = checkpoint.clone() else {
                unreachable!("superstep faults fire only under a fault policy")
            };
            restores += 1;
            if restores >= config.max_attempts {
                env.record_execution_failure(ExecutionFailure {
                    site: format!("superstep {iteration}"),
                    attempts: restores,
                    message: format!(
                        "retry budget exhausted during bulk iteration \
                         (max_attempts = {}, fault: {:?})",
                        config.max_attempts, event.kind
                    ),
                });
                break;
            }
            charge_restore(&env, &config, &saved_working, &saved_results, at, restores);
            working = saved_working;
            results = saved_results;
            iteration = at + 1;
            continue;
        }
        let (next, found) = body(working, iteration);
        results = results.union(found);
        working = next;
        if let Some((config, at, saved_working, saved_results)) = &mut checkpoint {
            let interval = config.checkpoint_interval;
            if interval > 0 && iteration.is_multiple_of(interval) {
                (*at, *saved_working, *saved_results) =
                    (iteration, working.clone(), results.clone());
                charge_checkpoint(&env, &working, &results, iteration);
            }
        }
        iteration += 1;
    }
    (working, results)
}

/// Per-worker serialized size of a snapshot (working set + solution set).
fn snapshot_bytes<T: Data, R: Data>(working: &Dataset<T>, results: &Dataset<R>) -> Vec<u64> {
    working
        .partitions()
        .iter()
        .zip(results.partitions())
        .map(|(w, r)| {
            w.iter().map(|item| item.byte_size() as u64).sum::<u64>()
                + r.iter().map(|item| item.byte_size() as u64).sum::<u64>()
        })
        .collect()
}

/// Charges the durable-storage write of a checkpoint as its own stage and
/// emits an `"iterate/checkpoint"` span for the trace sink.
fn charge_checkpoint<T: Data, R: Data>(
    env: &ExecutionEnvironment,
    working: &Dataset<T>,
    results: &Dataset<R>,
    superstep: usize,
) {
    let bytes = snapshot_bytes(working, results);
    let mut stage = StageCosts::new("checkpoint", bytes.len());
    for (index, b) in bytes.iter().enumerate() {
        stage.worker(index).bytes_checkpointed = *b;
    }
    let simulated_before = env.simulated_seconds();
    env.finish_stage(stage);
    env.emit_span(SpanRecord {
        name: "iterate/checkpoint".to_string(),
        wall_seconds: 0.0,
        simulated_seconds: env.simulated_seconds() - simulated_before,
        counters: vec![
            ("superstep".to_string(), superstep as f64),
            ("bytes".to_string(), bytes.iter().sum::<u64>() as f64),
        ],
    });
}

/// Charges the rollback to the last checkpoint: the snapshot is re-read
/// from durable storage and re-shipped, plus the exponential retry backoff.
/// Reported as a `"superstep-restore"` stage with `attempts = 2` so the
/// recovery shows up in [`ExecutionMetrics`](crate::ExecutionMetrics)
/// exactly like a stage retry. Restarts from scratch (checkpoint at
/// superstep 0) re-read nothing — the lost supersteps are simply re-run.
fn charge_restore<T: Data, R: Data>(
    env: &ExecutionEnvironment,
    config: &FaultConfig,
    working: &Dataset<T>,
    results: &Dataset<R>,
    checkpoint_superstep: usize,
    restores: u32,
) {
    let bytes = if checkpoint_superstep > 0 {
        snapshot_bytes(working, results)
    } else {
        vec![0; working.partitions().len()]
    };
    let mut stage = StageCosts::new("superstep-restore", bytes.len());
    for (index, b) in bytes.iter().enumerate() {
        stage.worker(index).bytes_restored = *b;
    }
    let mut report = stage.finish(env.cost_model());
    report.seconds += backoff_seconds(config, restores);
    report.attempts = 2;
    report.recovery_seconds = report.seconds;
    let simulated_before = env.simulated_seconds();
    env.submit_report(report);
    env.emit_span(SpanRecord {
        name: "iterate/restore".to_string(),
        wall_seconds: 0.0,
        simulated_seconds: env.simulated_seconds() - simulated_before,
        counters: vec![
            (
                "restored_from_superstep".to_string(),
                checkpoint_superstep as f64,
            ),
            ("bytes".to_string(), bytes.iter().sum::<u64>() as f64),
            ("restore".to_string(), restores as f64),
        ],
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::env::{ExecutionConfig, ExecutionEnvironment};
    use crate::index::AdjacencyIndex;
    use crate::partition::PartitionKey;

    fn env(workers: usize) -> ExecutionEnvironment {
        ExecutionEnvironment::new(
            ExecutionConfig::with_workers(workers).cost_model(CostModel::free()),
        )
    }

    /// A body that emits no solutions.
    fn no_results(ds: Dataset<u64>) -> (Dataset<u64>, Dataset<u64>) {
        let env = ds.env().clone();
        (ds, env.empty())
    }

    #[test]
    fn iterates_fixed_number_of_times() {
        let env = env(2);
        let initial = env.from_collection(vec![1u64, 2, 3]);
        let (result, _) =
            bulk_iterate_with_results(initial, 5, |ds, _| no_results(ds.map(|x| x + 1)));
        let mut values = result.collect();
        values.sort_unstable();
        assert_eq!(values, vec![6, 7, 8]);
    }

    #[test]
    fn terminates_early_on_empty_working_set() {
        let env = env(2);
        let initial = env.from_collection(vec![1u64, 2, 3]);
        let mut iterations = 0usize;
        let (result, _) = bulk_iterate_with_results(initial, 100, |ds, _| {
            iterations += 1;
            no_results(ds.filter(|_| false))
        });
        assert_eq!(iterations, 1);
        assert_eq!(result.count(), 0);
    }

    #[test]
    fn body_sees_one_based_iteration_numbers() {
        let env = env(1);
        let initial = env.from_collection(vec![0u64]);
        let mut seen = Vec::new();
        let _ = bulk_iterate_with_results(initial, 3, |ds, i| {
            seen.push(i);
            no_results(ds)
        });
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn results_accumulate_across_iterations() {
        let env = env(2);
        // Working set: a single counter; result per iteration: its value.
        let initial = env.from_collection(vec![0u64]);
        let (_, results) = bulk_iterate_with_results(initial, 4, |ds, _| {
            let next = ds.map(|x| x + 1);
            (next.clone(), next)
        });
        let mut values = results.collect();
        values.sort_unstable();
        assert_eq!(values, vec![1, 2, 3, 4]);
    }

    #[test]
    fn invariant_side_is_shuffled_exactly_once() {
        let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4));
        // Static "edge" relation: key -> successor. Walking it three times
        // must ship the relation over the network exactly once: the index is
        // built before the loop and every superstep probes it.
        let edges: Dataset<(u64, u64)> =
            env.from_collection((0u64..100).map(|i| (i, (i + 1) % 100)).collect::<Vec<_>>());
        let frontier = env.from_collection(vec![0u64, 7, 42]);
        env.reset_metrics();
        let index = AdjacencyIndex::partitioned(
            edges,
            PartitionKey::named("edge.source"),
            |&(src, dst)| (src, dst, dst),
        );
        let build_bytes = env.metrics().bytes_shuffled;
        assert_eq!(build_bytes, index.build_shuffled_bytes());
        assert!(build_bytes > 0);
        let mut per_iteration_shuffle = Vec::new();
        let (_, reached) = bulk_iterate_with_results(frontier, 3, |working, _| {
            let before = env.metrics().bytes_shuffled;
            let next = index.probe_join(working, |v| *v, |_, dst, _| Some(dst));
            per_iteration_shuffle.push(env.metrics().bytes_shuffled - before);
            (next.clone(), next)
        });
        let mut values = reached.collect();
        values.sort_unstable();
        assert_eq!(values, vec![1, 2, 3, 8, 9, 10, 43, 44, 45]);
        // After the build the only network traffic is the (re-keyed)
        // frontier: three u64s, never anywhere near the relation's bytes.
        assert_eq!(per_iteration_shuffle.len(), 3);
        for bytes in per_iteration_shuffle {
            assert!(bytes <= 3 * 8, "a superstep shipped {bytes} bytes");
        }
    }

    #[test]
    fn zero_iterations_returns_initial() {
        let env = env(2);
        let initial = env.from_collection(vec![7u64]);
        let (result, solutions) =
            bulk_iterate_with_results(initial, 0, |ds, _| no_results(ds.map(|_| unreachable!())));
        assert_eq!(result.collect(), vec![7]);
        assert_eq!(solutions.count(), 0);
    }

    use crate::fault::{FailureSchedule, FaultConfig};

    fn faulted_env(workers: usize, model: CostModel, faults: FaultConfig) -> ExecutionEnvironment {
        ExecutionEnvironment::new(
            ExecutionConfig::with_workers(workers)
                .cost_model(model)
                .faults(faults),
        )
    }

    /// Runs the counter iteration of `results_accumulate_across_iterations`
    /// and returns (sorted results, simulated seconds).
    fn run_counter_iteration(env: &ExecutionEnvironment, supersteps: usize) -> (Vec<u64>, f64) {
        let initial = env.from_collection(vec![0u64]);
        let (_, results) = bulk_iterate_with_results(initial, supersteps, |ds, _| {
            let next = ds.map(|x| x + 1);
            (next.clone(), next)
        });
        let mut values = results.collect();
        values.sort_unstable();
        (values, env.simulated_seconds())
    }

    #[test]
    fn superstep_crash_restores_from_checkpoint_with_identical_results() {
        let clean_env = env(2);
        let (expected, _) = run_counter_iteration(&clean_env, 6);

        let faults = FaultConfig::new(FailureSchedule::none().crash_at_superstep(5, 0))
            .checkpoint_interval(2)
            .backoff(0.0, 1.0);
        let chaos_env = faulted_env(2, CostModel::free(), faults);
        let (values, _) = run_counter_iteration(&chaos_env, 6);
        assert_eq!(values, expected);
        assert!(chaos_env.take_execution_failure().is_none());
        let metrics = chaos_env.metrics();
        assert!(metrics.recovery_attempts >= 1, "restore must be counted");
        assert!(metrics.checkpoint_bytes > 0, "checkpoints must be charged");
        assert!(metrics.restored_bytes > 0, "restore read must be charged");
    }

    #[test]
    fn checkpointed_recovery_is_cheaper_than_restart_from_scratch() {
        let model = CostModel {
            cpu_seconds_per_record: 1.0,
            ..CostModel::free()
        };
        // Crash late (superstep 6 of 8): scratch restart redoes five
        // supersteps, a 2-interval checkpoint redoes at most one.
        let schedule = FailureSchedule::none().crash_at_superstep(6, 0);
        let scratch = faulted_env(
            2,
            model.clone(),
            FaultConfig::new(schedule.clone())
                .checkpoint_interval(0)
                .backoff(0.0, 1.0),
        );
        let (scratch_values, scratch_seconds) = run_counter_iteration(&scratch, 8);
        let checkpointed = faulted_env(
            2,
            model,
            FaultConfig::new(schedule)
                .checkpoint_interval(2)
                .backoff(0.0, 1.0),
        );
        let (ckpt_values, ckpt_seconds) = run_counter_iteration(&checkpointed, 8);
        assert_eq!(scratch_values, ckpt_values);
        assert!(
            ckpt_seconds < scratch_seconds,
            "checkpointed recovery ({ckpt_seconds}s) must beat restart \
             from scratch ({scratch_seconds}s)"
        );
    }

    #[test]
    fn exhausted_superstep_budget_poisons_environment() {
        let faults = FaultConfig::new(
            FailureSchedule::none()
                .crash_at_superstep(2, 0)
                .crash_at_superstep(3, 0),
        )
        .max_attempts(2)
        .checkpoint_interval(1)
        .backoff(0.0, 1.0);
        let env = faulted_env(2, CostModel::free(), faults);
        let _ = run_counter_iteration(&env, 6);
        let failure = env
            .take_execution_failure()
            .expect("two superstep crashes against a budget of 2 must fail");
        assert!(failure.site.starts_with("superstep"));
        // The poison is gone after taking it.
        assert!(env.take_execution_failure().is_none());
    }

    #[test]
    fn empty_schedule_with_faults_installed_changes_no_results() {
        let clean_env = env(3);
        let (expected, _) = run_counter_iteration(&clean_env, 4);
        let chaos_env = faulted_env(
            3,
            CostModel::free(),
            FaultConfig::new(FailureSchedule::none()).checkpoint_interval(2),
        );
        let (values, _) = run_counter_iteration(&chaos_env, 4);
        assert_eq!(values, expected);
        assert_eq!(chaos_env.metrics().recovery_attempts, 0);
    }
}
