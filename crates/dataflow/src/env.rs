//! Execution environment: simulated cluster configuration plus metrics.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::cost::{CostModel, ExecutionMetrics, StageCosts, StageReport, WorkerCost};
use crate::data::Data;
use crate::dataset::Dataset;
use crate::fault::{
    finish_stage_with_faults, ExecutionFailure, FaultConfig, FaultEvent, FaultInjector,
};
use crate::pool::{propagate, try_run_indexed, WorkerPanic};
use crate::trace::{SpanRecord, TraceSink};

/// Configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ExecutionConfig {
    /// Number of simulated workers; every dataset has one partition per
    /// worker. A stage is one task per partition on the process-wide
    /// worker pool ([`pool`](crate::pool)): the submitting thread and up to
    /// `nproc - 1` pool threads claim the tasks, so `workers` sizes the
    /// simulated cluster, not the number of OS threads.
    pub workers: usize,
    /// Cost model used by the simulated clock.
    pub cost_model: CostModel,
    /// Optional fault-tolerance policy: a deterministic failure schedule to
    /// inject plus the retry/backoff/checkpoint parameters. `None` (the
    /// default) disables the fault machinery entirely — no counters, no
    /// checkpoints, zero behavior change.
    pub faults: Option<FaultConfig>,
}

impl ExecutionConfig {
    /// Configuration with `workers` workers and the default cost model.
    pub fn with_workers(workers: usize) -> Self {
        ExecutionConfig {
            workers: workers.max(1),
            cost_model: CostModel::default(),
            faults: None,
        }
    }

    /// Replaces the cost model.
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Installs a fault-tolerance policy (see [`ExecutionConfig::faults`]).
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig::with_workers(4)
    }
}

struct EnvInner {
    config: ExecutionConfig,
    metrics: Mutex<ExecutionMetrics>,
    trace: Mutex<Option<Arc<dyn TraceSink>>>,
    fault: Mutex<Option<FaultInjector>>,
    /// Terminal failure recorded outside the fault-injection machinery
    /// (e.g. an operator detecting a malformed plan). First failure wins;
    /// drained by [`ExecutionEnvironment::take_execution_failure`].
    poison: Mutex<Option<ExecutionFailure>>,
    /// The stages finished while [`ExecutionEnvironment::recording`] runs.
    recording: Mutex<Option<Vec<RecordedStage>>>,
}

/// A finished stage's per-worker charges as its tasks left them, before the
/// fault layer saw them: what
/// [`ExecutionEnvironment::finish_recorded`] needs to finish the same stage
/// again without running it.
#[derive(Debug, Clone)]
pub struct RecordedStage(StageCosts);

/// Handle to a simulated cluster. Cheap to clone; all clones share the same
/// metrics and simulated clock.
#[derive(Clone)]
pub struct ExecutionEnvironment {
    inner: Arc<EnvInner>,
}

impl ExecutionEnvironment {
    /// Creates an environment for the given configuration.
    pub fn new(config: ExecutionConfig) -> Self {
        let injector = config.faults.clone().map(FaultInjector::new);
        ExecutionEnvironment {
            inner: Arc::new(EnvInner {
                config,
                metrics: Mutex::new(ExecutionMetrics::default()),
                trace: Mutex::new(None),
                fault: Mutex::new(injector),
                poison: Mutex::new(None),
                recording: Mutex::new(None),
            }),
        }
    }

    /// Convenience constructor: `workers` workers, default cost model.
    pub fn with_workers(workers: usize) -> Self {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(workers))
    }

    /// Number of simulated workers (= partitions per dataset).
    pub fn workers(&self) -> usize {
        self.inner.config.workers
    }

    /// True when `other` is a clone of this environment (shares the same
    /// clock, metrics, trace sink and poison slot). Distinct environments
    /// with identical configurations are *not* the same — that distinction
    /// is what per-query environment isolation relies on.
    pub fn same_as(&self, other: &ExecutionEnvironment) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The environment's full configuration.
    pub fn config(&self) -> &ExecutionConfig {
        &self.inner.config
    }

    /// Creates a *new* environment with the same configuration but its own
    /// clock, metrics, trace sink and poison slot. This is the per-query
    /// isolation primitive of the query server: every query runs on a fork
    /// of the snapshot's environment, so concurrent queries never share
    /// mutable execution state while the immutable datasets themselves are
    /// shared via [`Dataset::rehomed`](crate::dataset::Dataset::rehomed).
    pub fn fork(&self) -> ExecutionEnvironment {
        ExecutionEnvironment::new(self.inner.config.clone())
    }

    /// The environment's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.config.cost_model
    }

    /// Snapshot of the accumulated execution metrics.
    pub fn metrics(&self) -> ExecutionMetrics {
        *locked(&self.inner.metrics)
    }

    /// Resets the simulated clock and all counters. Used by benchmark
    /// harnesses that re-run queries on the same environment.
    pub fn reset_metrics(&self) {
        *locked(&self.inner.metrics) = ExecutionMetrics::default();
    }

    /// Total simulated seconds so far.
    pub fn simulated_seconds(&self) -> f64 {
        locked(&self.inner.metrics).simulated_seconds
    }

    /// Creates a new per-stage cost accumulator.
    pub(crate) fn stage(&self, name: &'static str) -> StageCosts {
        StageCosts::new(name, self.workers())
    }

    /// Finalizes a stage, folds it into the metrics and notifies the trace
    /// sink, if one is installed. When a fault injector is installed, the
    /// stage first passes through it: scheduled crashes cost wasted
    /// attempts plus backoff, lost partitions add durable-storage restores,
    /// stragglers stretch the makespan, and an exhausted retry budget
    /// poisons the environment (see
    /// [`ExecutionEnvironment::take_execution_failure`]).
    pub(crate) fn finish_stage(&self, stage: StageCosts) {
        if let Some(recorded) = locked(&self.inner.recording).as_mut() {
            recorded.push(RecordedStage(stage.clone()));
        }
        let model = &self.inner.config.cost_model;
        let report = {
            let mut guard = locked(&self.inner.fault);
            match guard.as_mut() {
                Some(injector) => {
                    let events = injector.begin_stage(stage.name());
                    let (report, failure) =
                        finish_stage_with_faults(stage, model, &events, injector.config());
                    if let Some(failure) = failure {
                        self.record_execution_failure(failure);
                    }
                    report
                }
                None => stage.finish(model),
            }
        };
        self.submit_report(report);
    }

    /// Runs `body` and returns, next to its result, every stage that
    /// finished on this environment meanwhile, in order. Recordings do not
    /// nest; the environment records nothing once `body` returned or
    /// panicked.
    pub fn recording<T>(&self, body: impl FnOnce() -> T) -> (T, Vec<RecordedStage>) {
        /// Stops the recording however `body` ends.
        struct Stop<'a>(&'a Mutex<Option<Vec<RecordedStage>>>);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                locked(self.0).take();
            }
        }
        let stop = Stop(&self.inner.recording);
        *locked(stop.0) = Some(Vec::new());
        let result = body();
        let stages = locked(stop.0).take().unwrap_or_default();
        (result, stages)
    }

    /// Finishes a recorded stage again without running it: the same
    /// per-worker records in and out pass through the fault layer, the
    /// metrics and the trace sink exactly as when the stage ran — how a
    /// stage whose outputs are already known is charged.
    pub fn finish_recorded(&self, stage: &RecordedStage) {
        self.finish_stage(stage.0.clone());
    }

    /// Runs `stage` as one task per partition on the worker pool and
    /// finishes it: the one body of every partition-parallel stage.
    ///
    /// The caller charges on `stage` what it knows before the tasks run —
    /// shipping, replication and records in. Task `i` computes partition
    /// `i`'s output and adds what it computes (build memory and spill, sort
    /// bytes sent) to a copy of worker `i`'s cost; the runner counts the
    /// output's records and stores the copy back once every task finished.
    ///
    /// A panicking task fails the stage under [`settle`](Self::settle):
    /// with fault tolerance installed the stage keeps only what the caller
    /// charged and every output is empty.
    pub(crate) fn run_stage<R, F>(&self, mut stage: StageCosts, task: F) -> Vec<R>
    where
        R: TaskOutput,
        F: Fn(usize, &mut WorkerCost) -> R + Sync,
    {
        let workers = self.workers();
        let attempt = try_run_indexed(workers, &|i| {
            let mut cost = stage.charged(i);
            let out = task(i, &mut cost);
            cost.records_out += out.records();
            (out, cost)
        })
        .map(|done| {
            done.enumerate()
                .map(|(i, (out, cost))| {
                    *stage.worker(i) = cost;
                    out
                })
                .collect()
        });
        let outputs = self.settle(stage.name(), attempt, || {
            (0..workers).map(|_| R::default()).collect()
        });
        self.finish_stage(stage);
        outputs
    }

    /// The one panic policy of the work a stage runs — its tasks, its
    /// shuffle's routing tasks, a replicated index's build: `attempt` is
    /// that work's result, or the panic of the worker whose partition it
    /// was on. With fault tolerance installed, a panic is recorded as the
    /// environment's execution failure at ``stage `<name>` (worker i)`` and
    /// `failed` stands in for the result. Without it, the calling thread
    /// panics with `partition worker {i} panicked: {message}`.
    pub(crate) fn settle<O>(
        &self,
        stage: &str,
        attempt: Result<O, WorkerPanic>,
        failed: impl FnOnce() -> O,
    ) -> O {
        match attempt {
            Ok(done) => done,
            Err(panic) if self.faults_installed() => {
                self.record_execution_failure(ExecutionFailure {
                    site: format!("stage `{stage}` (worker {})", panic.worker),
                    attempts: 1,
                    message: format!("worker panicked: {}", panic.message),
                });
                failed()
            }
            Err(panic) => propagate(panic),
        }
    }

    /// Folds an already-finalized stage report into the metrics and notifies
    /// the trace sink. Used by recovery stages (checkpoint rollbacks) whose
    /// reports are built by the bulk-iteration driver and must bypass the
    /// fault injector.
    pub(crate) fn submit_report(&self, report: StageReport) {
        locked(&self.inner.metrics).record(&report);
        if let Some(sink) = self.trace_sink() {
            sink.on_stage(&report);
        }
    }

    /// Installs a fault injector for `config`, replacing any existing one
    /// and resetting its stage/superstep counters. Benchmark harnesses use
    /// this to start the failure schedule *after* data loading, so stage
    /// indices count from the first query stage.
    pub fn install_faults(&self, config: FaultConfig) {
        *locked(&self.inner.fault) = Some(FaultInjector::new(config));
    }

    /// Removes the fault injector; subsequent stages run fault-free.
    pub fn clear_faults(&self) {
        *locked(&self.inner.fault) = None;
    }

    /// `true` when a fault injector is installed.
    pub fn faults_installed(&self) -> bool {
        locked(&self.inner.fault).is_some()
    }

    /// The installed fault policy, if any.
    pub fn fault_config(&self) -> Option<FaultConfig> {
        locked(&self.inner.fault)
            .as_ref()
            .map(|injector| injector.config().clone())
    }

    /// Advances the global superstep counter and returns the scheduled
    /// fault firing at the new superstep, if any. Called by the
    /// bulk-iteration driver before executing each superstep.
    pub(crate) fn begin_superstep_fault(&self) -> Option<FaultEvent> {
        locked(&self.inner.fault)
            .as_mut()
            .and_then(FaultInjector::begin_superstep)
    }

    /// Records a terminal execution failure (first one wins), poisoning the
    /// environment until [`ExecutionEnvironment::take_execution_failure`]
    /// is called. Works with or without an installed fault injector, so
    /// operators can surface malformed-plan errors on fault-free
    /// environments too.
    pub fn record_execution_failure(&self, failure: ExecutionFailure) {
        locked(&self.inner.poison).get_or_insert(failure);
    }

    /// `true` while an execution failure is recorded (see
    /// [`ExecutionEnvironment::take_execution_failure`], which drains it).
    pub fn execution_failed(&self) -> bool {
        locked(&self.inner.poison).is_some()
    }

    /// Removes and returns the recorded execution failure, if any. The
    /// query engine calls this after running a plan; a `Some` means retries
    /// were exhausted (or an operator hit a terminal error) and the
    /// computed datasets must be discarded. Installing or clearing a fault
    /// injector leaves a recorded failure in place.
    pub fn take_execution_failure(&self) -> Option<ExecutionFailure> {
        locked(&self.inner.poison).take()
    }

    /// Installs (or, with `None`, removes) the environment's trace sink.
    /// The sink observes every finished stage and every closed span; all
    /// clones of the environment share it.
    pub fn set_trace_sink(&self, sink: Option<Arc<dyn TraceSink>>) {
        *locked(&self.inner.trace) = sink;
    }

    /// The currently installed trace sink, if any.
    pub fn trace_sink(&self) -> Option<Arc<dyn TraceSink>> {
        locked(&self.inner.trace).clone()
    }

    /// Runs `body` inside a named span, measuring wall-clock time and the
    /// simulated seconds charged while it ran. The span is reported to the
    /// trace sink when `body` returns; without a sink only `body`'s cost of
    /// an `Instant::now()` pair is paid.
    pub fn span<T>(&self, name: &str, body: impl FnOnce() -> T) -> T {
        let Some(sink) = self.trace_sink() else {
            return body();
        };
        let simulated_before = self.simulated_seconds();
        let started = Instant::now();
        let result = body();
        sink.on_span(&SpanRecord {
            name: name.to_string(),
            wall_seconds: started.elapsed().as_secs_f64(),
            simulated_seconds: self.simulated_seconds() - simulated_before,
            counters: Vec::new(),
        });
        result
    }

    /// Reports a pre-built span (used by operators that attach counters,
    /// e.g. per-iteration statistics of variable-length expansion). A no-op
    /// without an installed sink.
    pub fn emit_span(&self, span: SpanRecord) {
        if let Some(sink) = self.trace_sink() {
            sink.on_span(&span);
        }
    }

    /// Creates a dataset from a collection, distributing elements round-robin
    /// over the workers (Flink's `fromCollection` followed by `rebalance`).
    pub fn from_collection<T: Data, I: IntoIterator<Item = T>>(&self, items: I) -> Dataset<T> {
        let workers = self.workers();
        let mut partitions: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            partitions[i % workers].push(item);
        }
        Dataset::from_partitions(self.clone(), partitions)
    }

    /// Creates an empty dataset.
    pub fn empty<T: Data>(&self) -> Dataset<T> {
        Dataset::from_partitions(self.clone(), vec![Vec::new(); self.workers()])
    }
}

/// What one task of [`ExecutionEnvironment::run_stage`] returns: the
/// output of its partition, empty (`Default`) when the stage failed.
pub(crate) trait TaskOutput: Default + Send {
    /// Records the output holds, charged as the worker's records out.
    fn records(&self) -> u64;
}

impl<T: Send> TaskOutput for Vec<T> {
    fn records(&self) -> u64 {
        self.len() as u64
    }
}

impl std::fmt::Debug for ExecutionEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionEnvironment")
            .field("workers", &self.workers())
            .finish()
    }
}

/// Locks `mutex`, recovering it if a thread panicked while holding it: one
/// failed query must not fail every later stage of the environment.
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_collection_distributes_round_robin() {
        let env = ExecutionEnvironment::with_workers(3);
        let ds = env.from_collection(0u64..10);
        let sizes: Vec<usize> = ds.partitions().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(ds.count(), 10);
    }

    #[test]
    fn a_poisoned_lock_does_not_take_the_environment_down() {
        /// A session panics while it holds `lock`.
        fn poison<T>(lock: &Mutex<T>) {
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _held = lock.lock();
                panic!("session panics holding an environment lock");
            }));
            assert!(panicked.is_err());
            assert!(lock.is_poisoned());
        }
        let env = ExecutionEnvironment::with_workers(2);
        poison(&env.inner.metrics);
        poison(&env.inner.fault);
        poison(&env.inner.trace);
        poison(&env.inner.poison);
        poison(&env.inner.recording);

        let stage = env.stage("after-poison");
        env.finish_stage(stage);
        assert_eq!(env.from_collection(0u64..10).count(), 10);
        assert!(env.metrics().stages >= 2);
        env.set_trace_sink(None);
        assert!(env.trace_sink().is_none());
        assert!(!env.faults_installed());
        assert!(env.take_execution_failure().is_none());
    }

    #[test]
    fn a_failure_recorded_under_a_fault_injector_survives_clear_faults_and_is_taken_once() {
        let env = ExecutionEnvironment::with_workers(2);
        env.install_faults(
            FaultConfig::new(crate::fault::FailureSchedule::none().crash_at_stage(0, 0))
                .max_attempts(1),
        );
        // The crash exhausts the first stage's one attempt and poisons the
        // environment; an operator failure recorded later loses to it.
        let _ = env.from_collection(0u64..10).count();
        env.record_execution_failure(ExecutionFailure {
            site: "operator".to_string(),
            attempts: 1,
            message: "later".to_string(),
        });
        env.clear_faults();
        let failure = env.take_execution_failure().expect("the crash is kept");
        assert_ne!(failure.site, "operator");
        assert!(env.take_execution_failure().is_none());
    }

    #[test]
    fn a_recorded_stage_finishes_again_as_it_did_when_it_ran() {
        let env = ExecutionEnvironment::with_workers(3);
        let sink = Arc::new(crate::trace::CollectingSink::new());
        env.set_trace_sink(Some(sink.clone()));
        let input = env.from_collection(0u64..10);
        let (even, stages) = env.recording(|| {
            input.flat_map(|x, out| {
                if x % 2 == 0 {
                    out.push(*x);
                }
            })
        });
        assert_eq!(even.count(), 5);
        assert_eq!(stages.len(), 1, "the `count` ran after the recording");
        let before = env.metrics();
        env.finish_recorded(&stages[0]);
        let reports = sink.drain().stages;
        let (ran, replayed) = (&reports[0], reports.last().unwrap());
        assert_eq!(format!("{ran:?}"), format!("{replayed:?}"));
        assert_eq!(env.metrics().records_out, before.records_out + 5);
        // A body that panics stops the recording too.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            env.recording(|| panic!("the body fails"))
        }));
        assert!(panicked.is_err());
        assert!(locked(&env.inner.recording).is_none());
    }

    #[test]
    fn workers_is_at_least_one() {
        let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(0));
        assert_eq!(env.workers(), 1);
    }

    #[test]
    fn metrics_reset() {
        let env = ExecutionEnvironment::with_workers(2);
        let _ = env.from_collection(0u64..100).map(|x| x + 1).count();
        assert!(env.metrics().stages > 0);
        env.reset_metrics();
        assert_eq!(env.metrics().stages, 0);
        assert_eq!(env.simulated_seconds(), 0.0);
    }

    #[test]
    fn clones_share_metrics() {
        let env = ExecutionEnvironment::with_workers(2);
        let clone = env.clone();
        let _ = env.from_collection(0u64..10).count();
        assert_eq!(clone.metrics().stages, env.metrics().stages);
    }
}
