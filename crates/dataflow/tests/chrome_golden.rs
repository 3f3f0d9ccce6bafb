//! Golden-file test for the Chrome trace-event export: a fixed trace must
//! serialize to the committed `testdata/chrome_trace_golden.json` document.
//! Regenerate with `GRADOOP_UPDATE_GOLDEN=1 cargo test -p gradoop-dataflow
//! --test chrome_golden` after deliberate format changes.

use gradoop_dataflow::cost::StageCosts;
use gradoop_dataflow::{chrome_trace_json, CollectedTrace, CostModel, JsonValue, SpanRecord};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/testdata/chrome_trace_golden.json"
);

fn golden_trace() -> CollectedTrace {
    let model = CostModel {
        cpu_seconds_per_record: 1.0,
        ser_seconds_per_byte: 0.5,
        stage_overhead_seconds: 0.25,
        ..CostModel::free()
    };
    let mut scan = StageCosts::new("scan", 2);
    scan.worker(0).records_in = 2;
    scan.worker(1).records_in = 6;
    scan.worker(1).records_out = 6;
    let mut join = StageCosts::new("join(repartition-hash)", 2);
    join.worker(0).records_in = 4;
    join.worker(0).bytes_received = 2;
    join.worker(1).records_in = 4;
    join.worker(0).peak_memory_bytes = 512;
    join.worker(0).scratch_allocations = 1;
    CollectedTrace {
        stages: vec![scan.finish(&model), join.finish(&model)],
        spans: vec![
            SpanRecord {
                name: "operator/scan".into(),
                wall_seconds: 0.0,
                simulated_seconds: 6.25,
                counters: vec![("rows_out".into(), 6.0)],
            },
            SpanRecord {
                name: "operator/join".into(),
                wall_seconds: 0.0,
                simulated_seconds: 5.25,
                counters: vec![("rows_out".into(), 8.0), ("iteration".into(), 1.0)],
            },
        ],
    }
}

#[test]
fn chrome_export_matches_the_committed_golden_file() {
    let actual = chrome_trace_json(&golden_trace());
    if std::env::var_os("GRADOOP_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file exists (regenerate with GRADOOP_UPDATE_GOLDEN=1)");
    let actual_value = JsonValue::parse(&actual).expect("export parses");
    let golden_value = JsonValue::parse(&golden).expect("golden parses");
    assert!(
        actual_value.semantically_eq(&golden_value),
        "chrome trace export drifted from the golden file.\nactual:\n{actual}\ngolden:\n{golden}"
    );
    // The golden layout itself: 2 stages x 2 workers + 2 spans + metadata.
    let events = golden_value
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap();
    let stage_events = events
        .iter()
        .filter(|e| e.get("cat").and_then(JsonValue::as_str) == Some("stage"))
        .count();
    let span_events = events
        .iter()
        .filter(|e| e.get("cat").and_then(JsonValue::as_str) == Some("span"))
        .count();
    assert_eq!(stage_events, 4);
    assert_eq!(span_events, 2);
}
