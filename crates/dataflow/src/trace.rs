//! Structured tracing for the dataflow engine.
//!
//! A [`TraceSink`] installed on an
//! [`ExecutionEnvironment`](crate::ExecutionEnvironment) observes two event
//! kinds while queries run:
//!
//! * **stages** — every executed transformation reports its
//!   [`StageReport`] (records, shuffle bytes, simulated makespan,
//!   per-worker skew) the moment it finishes;
//! * **spans** — named driver-side regions opened with
//!   [`ExecutionEnvironment::span`](crate::ExecutionEnvironment::span) (or
//!   emitted directly via
//!   [`ExecutionEnvironment::emit_span`](crate::ExecutionEnvironment::emit_span)),
//!   carrying both wall-clock and simulated-clock duration plus free-form
//!   numeric counters.
//!
//! Sinks replace the old all-or-nothing `log_stages` flag: observability is
//! now opt-in per environment, thread-safe, and structured enough for the
//! query profiler in `gradoop-core` to attribute stages and spans to plan
//! operators.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::cost::StageReport;

/// One named region of driver-side execution.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name, e.g. `"operator/expand"` or `"expand/iteration"`.
    pub name: String,
    /// Elapsed wall-clock seconds (real time on the driver).
    pub wall_seconds: f64,
    /// Simulated seconds charged to the environment's clock while the span
    /// was open.
    pub simulated_seconds: f64,
    /// Free-form numeric counters, e.g. `("rows_out", 42.0)` or
    /// `("iteration", 3.0)`.
    pub counters: Vec<(String, f64)>,
}

impl SpanRecord {
    /// Returns a counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| *value)
    }
}

/// Receiver for trace events. Implementations must be thread-safe: stages
/// finish on the driver thread today, but sinks are shared via `Arc` across
/// environment clones.
pub trait TraceSink: Send + Sync {
    /// Called when a dataflow stage finishes.
    fn on_stage(&self, report: &StageReport);
    /// Called when a driver-side span closes.
    fn on_span(&self, span: &SpanRecord);
}

/// A [`TraceSink`] that buffers every event in memory — the backbone of
/// `profile()` in the query engine and of tests.
#[derive(Default)]
pub struct CollectingSink {
    inner: Mutex<CollectedTrace>,
}

/// Events gathered by a [`CollectingSink`].
#[derive(Debug, Clone, Default)]
pub struct CollectedTrace {
    /// Finished stages in execution order.
    pub stages: Vec<StageReport>,
    /// Closed spans in completion order.
    pub spans: Vec<SpanRecord>,
}

impl CollectingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        CollectingSink::default()
    }

    /// The buffer. A thread that panicked while holding it left whole
    /// events behind (each is pushed in one step), so a poisoned lock is
    /// taken over rather than passed on as a second panic.
    fn inner(&self) -> MutexGuard<'_, CollectedTrace> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of everything collected so far.
    pub fn snapshot(&self) -> CollectedTrace {
        self.inner().clone()
    }

    /// Removes and returns everything collected so far.
    pub fn drain(&self) -> CollectedTrace {
        std::mem::take(&mut *self.inner())
    }

    /// Number of stages collected so far.
    pub fn stage_count(&self) -> usize {
        self.inner().stages.len()
    }

    /// Number of spans collected so far.
    pub fn span_count(&self) -> usize {
        self.inner().spans.len()
    }
}

impl TraceSink for CollectingSink {
    fn on_stage(&self, report: &StageReport) {
        self.inner().stages.push(report.clone());
    }

    fn on_span(&self, span: &SpanRecord) {
        self.inner().spans.push(span.clone());
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::cost::CostModel;
    use crate::env::{ExecutionConfig, ExecutionEnvironment};

    fn traced_env(workers: usize) -> (ExecutionEnvironment, Arc<CollectingSink>) {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(workers).cost_model(CostModel::free()),
        );
        let sink = Arc::new(CollectingSink::new());
        env.set_trace_sink(Some(sink.clone()));
        (env, sink)
    }

    #[test]
    fn sink_sees_every_stage() {
        let (env, sink) = traced_env(2);
        let _ = env.from_collection(0u64..10).map(|x| x + 1).count();
        let trace = sink.snapshot();
        assert_eq!(
            trace
                .stages
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>(),
            vec!["map", "count"]
        );
        assert_eq!(trace.stages[0].records_in, 10);
        assert_eq!(trace.stages[0].worker_seconds.len(), 2);
    }

    #[test]
    fn a_poisoned_sink_keeps_collecting() {
        let (env, sink) = traced_env(1);
        let _ = env.from_collection(0u64..4).count();
        let holder = sink.clone();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = holder.inner.lock().unwrap();
            panic!("poison the buffer");
        }));
        assert!(panicked.is_err());
        assert!(sink.inner.is_poisoned());
        let _ = env.from_collection(0u64..4).count();
        let trace = sink.snapshot();
        assert_eq!(trace.stages.len(), 2);
        assert_eq!(sink.stage_count(), 2);
    }

    #[test]
    fn span_measures_wall_and_simulated_time() {
        let config = ExecutionConfig::with_workers(2).cost_model(CostModel {
            cpu_seconds_per_record: 1.0,
            ..CostModel::free()
        });
        let env = ExecutionEnvironment::new(config);
        let sink = Arc::new(CollectingSink::new());
        env.set_trace_sink(Some(sink.clone()));
        let count = env.span("load", || env.from_collection(0u64..10).count());
        assert_eq!(count, 10);
        let trace = sink.snapshot();
        let span = trace.spans.last().expect("span recorded");
        assert_eq!(span.name, "load");
        // count charges 10 records_in over 2 workers -> 5 simulated seconds.
        assert!((span.simulated_seconds - 5.0).abs() < 1e-9);
        assert!(span.wall_seconds >= 0.0);
    }

    #[test]
    fn uninstalling_the_sink_stops_collection() {
        let (env, sink) = traced_env(2);
        let _ = env.from_collection(0u64..4).count();
        assert_eq!(sink.stage_count(), 1);
        env.set_trace_sink(None);
        let _ = env.from_collection(0u64..4).count();
        assert_eq!(sink.stage_count(), 1);
    }

    #[test]
    fn drain_empties_the_buffer() {
        let (env, sink) = traced_env(2);
        let _ = env.from_collection(0u64..4).count();
        assert_eq!(sink.drain().stages.len(), 1);
        assert_eq!(sink.stage_count(), 0);
    }

    #[test]
    fn sink_sees_injected_stage_faults() {
        use crate::fault::{FailureSchedule, FaultConfig};
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2)
                .cost_model(CostModel::free())
                .faults(
                    FaultConfig::new(FailureSchedule::none().crash_at_stage_named("map", 1, 0))
                        .backoff(0.0, 1.0),
                ),
        );
        let sink = Arc::new(CollectingSink::new());
        env.set_trace_sink(Some(sink.clone()));
        let _ = env.from_collection(0u64..10).map(|x| x + 1).count();
        let trace = sink.snapshot();
        let map_stage = trace.stages.iter().find(|s| s.name == "map").unwrap();
        assert_eq!(map_stage.attempts, 2);
        assert_eq!(env.metrics().recovery_attempts, 1);
        assert!(env.take_execution_failure().is_none());
    }

    #[test]
    fn emitted_spans_carry_counters() {
        let (env, sink) = traced_env(1);
        env.emit_span(SpanRecord {
            name: "expand/iteration".into(),
            wall_seconds: 0.0,
            simulated_seconds: 0.0,
            counters: vec![("iteration".into(), 2.0), ("rows_out".into(), 7.0)],
        });
        let trace = sink.snapshot();
        assert_eq!(trace.spans[0].counter("rows_out"), Some(7.0));
        assert_eq!(trace.spans[0].counter("missing"), None);
    }
}
