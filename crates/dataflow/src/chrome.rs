//! Chrome trace-event export of a collected trace.
//!
//! [`chrome_trace`] serializes a [`CollectedTrace`] into the Chrome
//! trace-event JSON format, loadable in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev). The export makes the simulated
//! cluster visually inspectable: worker skew shows as ragged lane ends,
//! checkpoint/restore stalls as their own stage blocks.
//!
//! Layout:
//!
//! * **pid 0 — workers**: each finished stage emits one complete (`"ph":
//!   "X"`) event *per worker lane* (`tid` = worker index) with the worker's
//!   simulated busy seconds from [`StageReport::worker_seconds`]. Stages
//!   are laid out sequentially on a cumulative simulated-time axis, each
//!   block starting when the previous stage (including its overhead and
//!   recovery charge) ended — exactly the barrier semantics of the
//!   simulated clock.
//! * **pid 1 — driver**: operator spans (`"operator/expand"`,
//!   `"expand/iteration"`, …) on their own lanes, laid out sequentially
//!   with their simulated durations, counters attached as `args`.
//!
//! Timestamps and durations are microseconds of *simulated* time, so the
//! picture is deterministic and wall-clock noise never skews it.

use crate::json::JsonValue;
use crate::trace::CollectedTrace;

/// Microseconds per simulated second — trace-event `ts`/`dur` units.
const MICROS: f64 = 1.0e6;

/// Serializes `trace` to a Chrome trace-event JSON document.
pub fn chrome_trace(trace: &CollectedTrace) -> JsonValue {
    let mut events: Vec<JsonValue> = Vec::new();
    let workers = trace
        .stages
        .iter()
        .map(|s| s.worker_seconds.len())
        .max()
        .unwrap_or(0);

    events.push(metadata_event("process_name", 0, "workers (simulated)"));
    events.push(metadata_event("process_name", 1, "driver spans"));
    for worker in 0..workers {
        events.push(thread_name_event(
            0,
            worker as u64,
            &format!("worker {worker}"),
        ));
    }

    // Worker lanes: one X event per worker per stage on the cumulative
    // simulated-time axis.
    let mut cursor = 0.0f64;
    for stage in &trace.stages {
        for (worker, &busy) in stage.worker_seconds.iter().enumerate() {
            let args = JsonValue::object(vec![
                ("records_in", JsonValue::Number(stage.records_in as f64)),
                ("records_out", JsonValue::Number(stage.records_out as f64)),
                (
                    "bytes_shuffled",
                    JsonValue::Number(stage.bytes_shuffled as f64),
                ),
                (
                    "bytes_spilled",
                    JsonValue::Number(stage.bytes_spilled as f64),
                ),
                ("attempts", JsonValue::Number(stage.attempts as f64)),
                (
                    "recovery_seconds",
                    JsonValue::Number(stage.recovery_seconds),
                ),
                (
                    "peak_memory_bytes",
                    JsonValue::Number(stage.peak_memory_bytes as f64),
                ),
                ("skew", JsonValue::Number(stage.skew())),
            ]);
            events.push(JsonValue::object(vec![
                ("name", JsonValue::string(stage.name.clone())),
                ("cat", JsonValue::string("stage")),
                ("ph", JsonValue::string("X")),
                ("ts", JsonValue::Number(cursor * MICROS)),
                ("dur", JsonValue::Number(busy.max(0.0) * MICROS)),
                ("pid", JsonValue::Number(0.0)),
                ("tid", JsonValue::Number(worker as f64)),
                ("args", args),
            ]));
        }
        // The next stage starts after this one's full simulated makespan —
        // overhead and recovery included, matching the simulated clock.
        cursor += stage.seconds.max(0.0);
    }

    // Driver spans: sequential layout with simulated durations; counters
    // ride along as args.
    let mut span_cursor = 0.0f64;
    for span in &trace.spans {
        let args: Vec<(&str, JsonValue)> = span
            .counters
            .iter()
            .map(|(key, value)| (key.as_str(), JsonValue::Number(*value)))
            .collect();
        events.push(JsonValue::object(vec![
            ("name", JsonValue::string(span.name.clone())),
            ("cat", JsonValue::string("span")),
            ("ph", JsonValue::string("X")),
            ("ts", JsonValue::Number(span_cursor * MICROS)),
            (
                "dur",
                JsonValue::Number(span.simulated_seconds.max(0.0) * MICROS),
            ),
            ("pid", JsonValue::Number(1.0)),
            ("tid", JsonValue::Number(0.0)),
            ("args", JsonValue::object(args)),
        ]));
        span_cursor += span.simulated_seconds.max(0.0);
    }

    JsonValue::object(vec![
        ("traceEvents", JsonValue::Array(events)),
        ("displayTimeUnit", JsonValue::string("ms")),
    ])
}

/// [`chrome_trace`] rendered as compact JSON text.
pub fn chrome_trace_json(trace: &CollectedTrace) -> String {
    chrome_trace(trace).to_json()
}

fn metadata_event(name: &str, pid: u64, value: &str) -> JsonValue {
    JsonValue::object(vec![
        ("name", JsonValue::string(name)),
        ("ph", JsonValue::string("M")),
        ("pid", JsonValue::Number(pid as f64)),
        ("tid", JsonValue::Number(0.0)),
        (
            "args",
            JsonValue::object(vec![("name", JsonValue::string(value))]),
        ),
    ])
}

fn thread_name_event(pid: u64, tid: u64, value: &str) -> JsonValue {
    JsonValue::object(vec![
        ("name", JsonValue::string("thread_name")),
        ("ph", JsonValue::string("M")),
        ("pid", JsonValue::Number(pid as f64)),
        ("tid", JsonValue::Number(tid as f64)),
        (
            "args",
            JsonValue::object(vec![("name", JsonValue::string(value))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, StageCosts};
    use crate::trace::SpanRecord;

    fn sample_trace() -> CollectedTrace {
        let model = CostModel {
            cpu_seconds_per_record: 1.0,
            stage_overhead_seconds: 0.25,
            ..CostModel::free()
        };
        let mut scan = StageCosts::new("scan", 2);
        scan.worker(0).records_in = 2;
        scan.worker(1).records_in = 6;
        let mut join = StageCosts::new("join(repartition-hash)", 2);
        join.worker(0).records_in = 4;
        join.worker(1).records_in = 4;
        join.worker(0).peak_memory_bytes = 512;
        CollectedTrace {
            stages: vec![scan.finish(&model), join.finish(&model)],
            spans: vec![SpanRecord {
                name: "operator/join".into(),
                wall_seconds: 0.0,
                simulated_seconds: 4.25,
                counters: vec![("rows_out".into(), 8.0)],
            }],
        }
    }

    #[test]
    fn export_is_valid_json_with_one_event_per_worker_per_stage() {
        let trace = sample_trace();
        let json = chrome_trace_json(&trace);
        let parsed = JsonValue::parse(&json).expect("chrome trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        let stage_events: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("cat").and_then(JsonValue::as_str) == Some("stage"))
            .collect();
        // 2 stages × 2 workers.
        assert_eq!(stage_events.len(), 4);
        for event in &stage_events {
            assert_eq!(event.get("ph").and_then(JsonValue::as_str), Some("X"));
            assert!(event.get("ts").and_then(JsonValue::as_f64).is_some());
            assert!(event.get("dur").and_then(JsonValue::as_f64).unwrap() >= 0.0);
        }
        // Worker 1 of the scan stage was the straggler: 6 simulated seconds.
        let scan_w1 = stage_events
            .iter()
            .find(|e| {
                e.get("name").and_then(JsonValue::as_str) == Some("scan")
                    && e.get("tid").and_then(JsonValue::as_f64) == Some(1.0)
            })
            .expect("scan lane for worker 1");
        assert_eq!(scan_w1.get("dur").and_then(JsonValue::as_f64), Some(6.0e6));
    }

    #[test]
    fn stages_are_laid_out_sequentially_on_the_simulated_axis() {
        let trace = sample_trace();
        let parsed = chrome_trace(&trace);
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        let ts_of = |name: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("cat").and_then(JsonValue::as_str) == Some("stage")
                        && e.get("name").and_then(JsonValue::as_str) == Some(name)
                })
                .and_then(|e| e.get("ts"))
                .and_then(JsonValue::as_f64)
                .unwrap()
        };
        assert_eq!(ts_of("scan"), 0.0);
        // Scan makespan = 6s busy + 0.25s overhead.
        assert_eq!(ts_of("join(repartition-hash)"), 6.25e6);
    }

    #[test]
    fn spans_land_on_the_driver_process_with_counters() {
        let parsed = chrome_trace(&sample_trace());
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        let span = events
            .iter()
            .find(|e| e.get("cat").and_then(JsonValue::as_str) == Some("span"))
            .expect("span event");
        assert_eq!(span.get("pid").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(
            span.get("args")
                .and_then(|a| a.get("rows_out"))
                .and_then(JsonValue::as_f64),
            Some(8.0)
        );
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let parsed = chrome_trace(&CollectedTrace::default());
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        // Just the two process-name metadata records.
        assert_eq!(events.len(), 2);
    }
}
