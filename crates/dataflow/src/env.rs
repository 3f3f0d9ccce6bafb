//! Execution environment: simulated cluster configuration plus metrics.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::cost::{CostModel, ExecutionMetrics, StageCosts, StageReport};
use crate::data::Data;
use crate::dataset::Dataset;
use crate::fault::{
    finish_stage_with_faults, ExecutionFailure, FaultConfig, FaultEvent, FaultInjector,
};
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
}

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
        *self.inner.metrics.lock().unwrap()
    }

    /// Resets the simulated clock and all counters. Used by benchmark
    /// harnesses that re-run queries on the same environment.
    pub fn reset_metrics(&self) {
        *self.inner.metrics.lock().unwrap() = ExecutionMetrics::default();
    }

    /// Total simulated seconds so far.
    pub fn simulated_seconds(&self) -> f64 {
        self.inner.metrics.lock().unwrap().simulated_seconds
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
        let model = &self.inner.config.cost_model;
        let report = {
            let mut guard = self.inner.fault.lock().unwrap();
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

    /// Folds an already-finalized stage report into the metrics and notifies
    /// the trace sink. Used by recovery stages (checkpoint rollbacks) whose
    /// reports are built by the bulk-iteration driver and must bypass the
    /// fault injector.
    ///
    /// Every finished stage funnels through here, so this is also where the
    /// process-wide [`MetricsRegistry`](crate::telemetry::MetricsRegistry)
    /// is fed — pre-interned handles, pure atomic updates.
    pub(crate) fn submit_report(&self, report: StageReport) {
        let telemetry = crate::telemetry::stage_telemetry();
        telemetry.stages.add(1);
        telemetry.records_in.add(report.records_in);
        telemetry.records_out.add(report.records_out);
        telemetry.bytes_shuffled.add(report.bytes_shuffled);
        telemetry.bytes_spilled.add(report.bytes_spilled);
        telemetry
            .recovery_attempts
            .add(report.attempts.saturating_sub(1));
        telemetry
            .scratch_allocations
            .add(report.scratch_allocations);
        telemetry.stage_seconds.observe(report.seconds);
        telemetry
            .stage_records_out
            .observe(report.records_out as f64);
        if (report.peak_memory_bytes as f64) > telemetry.peak_memory_bytes.get() {
            telemetry
                .peak_memory_bytes
                .set(report.peak_memory_bytes as f64);
        }
        self.inner.metrics.lock().unwrap().record(&report);
        if let Some(sink) = self.trace_sink() {
            sink.on_stage(&report);
        }
    }

    /// Installs a fault injector for `config`, replacing any existing one
    /// and resetting its stage/superstep counters. Benchmark harnesses use
    /// this to start the failure schedule *after* data loading, so stage
    /// indices count from the first query stage.
    pub fn install_faults(&self, config: FaultConfig) {
        *self.inner.fault.lock().unwrap() = Some(FaultInjector::new(config));
    }

    /// Removes the fault injector; subsequent stages run fault-free.
    pub fn clear_faults(&self) {
        *self.inner.fault.lock().unwrap() = None;
    }

    /// `true` when a fault injector is installed.
    pub fn faults_installed(&self) -> bool {
        self.inner.fault.lock().unwrap().is_some()
    }

    /// The installed fault policy, if any.
    pub fn fault_config(&self) -> Option<FaultConfig> {
        self.inner
            .fault
            .lock()
            .unwrap()
            .as_ref()
            .map(|injector| injector.config().clone())
    }

    /// Advances the global superstep counter and returns the scheduled
    /// fault firing at the new superstep, if any. Called by the
    /// bulk-iteration driver before executing each superstep.
    pub(crate) fn begin_superstep_fault(&self) -> Option<FaultEvent> {
        self.inner
            .fault
            .lock()
            .unwrap()
            .as_mut()
            .and_then(FaultInjector::begin_superstep)
    }

    /// Records a terminal execution failure (first one wins), poisoning the
    /// environment until [`ExecutionEnvironment::take_execution_failure`]
    /// is called. Works with or without an installed fault injector, so
    /// operators can surface malformed-plan errors on fault-free
    /// environments too.
    pub fn record_execution_failure(&self, failure: ExecutionFailure) {
        self.inner.poison.lock().unwrap().get_or_insert(failure);
    }

    /// Removes and returns the recorded execution failure, if any. The
    /// query engine calls this after running a plan; a `Some` means retries
    /// were exhausted (or an operator hit a terminal error) and the
    /// computed datasets must be discarded. Installing or clearing a fault
    /// injector leaves a recorded failure in place.
    pub fn take_execution_failure(&self) -> Option<ExecutionFailure> {
        self.inner.poison.lock().unwrap().take()
    }

    /// Installs (or, with `None`, removes) the environment's trace sink.
    /// The sink observes every finished stage and every closed span; all
    /// clones of the environment share it.
    pub fn set_trace_sink(&self, sink: Option<Arc<dyn TraceSink>>) {
        *self.inner.trace.lock().unwrap() = sink;
    }

    /// The currently installed trace sink, if any.
    pub fn trace_sink(&self) -> Option<Arc<dyn TraceSink>> {
        self.inner.trace.lock().unwrap().clone()
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

impl std::fmt::Debug for ExecutionEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionEnvironment")
            .field("workers", &self.workers())
            .finish()
    }
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
