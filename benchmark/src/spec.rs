//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end metric
//! and workload each is expected to move. `list` prints these tables and a
//! unit test holds `BENCHMARK.json` to them.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const OPERATIONAL: &str = "operational";
pub const ANALYTICAL: &str = "analytical";
pub const PIPELINE: &str = "pipeline";
pub const CONCURRENT_SMALL: &str = "concurrent_small";
pub const FRONTEND_COLD: &str = "frontend_cold";

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: OPERATIONAL,
        why: "Q1-Q3 x {high, low} selectivity, one client, persons=1000: scans and variable-length expand do the work, results are tiny",
    },
    WorkloadSpec {
        name: ANALYTICAL,
        why: "Q4-Q6 plus knows triangle and diamond, one client, persons=1000: hash joins, WCO intersect and 6k-31k result rows do the work, no expand",
    },
    WorkloadSpec {
        name: PIPELINE,
        why: "five WITH/OPTIONAL MATCH/aggregate/ORDER BY/UNWIND texts: the second executor (reduce, top-k, outer join), planned per stage and never cached",
    },
    WorkloadSpec {
        name: CONCURRENT_SMALL,
        why: "nproc closed-loop clients on persons=100, 90% repeated shapes and 10% from 512 novel ones: per-query fixed cost, contention and plan-cache eviction dominate",
    },
    WorkloadSpec {
        name: FRONTEND_COLD,
        why: "plan-only EXPLAIN of 525 distinct texts on an engine without plan cache: lexer, parser, fingerprint and planner only, nothing executes",
    },
];

/// One end-to-end metric. `bound` is the share of the parent's median by
/// which the metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const LATENCY_P50_MS: &str = "latency_p50_ms";
pub const LATENCY_P95_MS: &str = "latency_p95_ms";
pub const THROUGHPUT_QPS: &str = "throughput_qps";
pub const CPU_MS_PER_QUERY: &str = "cpu_ms_per_query";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

pub const END_TO_END: [EndToEndSpec; 6] = [
    EndToEndSpec {
        name: LATENCY_P50_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndSpec {
        name: LATENCY_P95_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndSpec {
        name: THROUGHPUT_QPS,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndSpec {
        name: CPU_MS_PER_QUERY,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndSpec {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndSpec {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric: the layer is the crate/module prefix of the name.
#[derive(Debug, Clone, Copy)]
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this number is expected to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const MOVES_SETUP: &str = "setup_s, every workload; nothing else";
const MOVES_FRONTEND: &str =
    "latency_p50_ms on frontend_cold; a few % of concurrent_small (cache misses only)";
const MOVES_CACHE: &str = "latency_p50_ms / throughput_qps on concurrent_small only";
const MOVES_SCAN_EXPAND: &str = "latency_p50_ms on operational; not frontend_cold";
const MOVES_JOIN: &str = "latency_p50_ms / throughput_qps on analytical; not frontend_cold";
const MOVES_PIPELINE: &str = "latency_p50_ms on pipeline";
const MOVES_DATAFLOW: &str =
    "latency_p50_ms on concurrent_small (fixed cost x stages); cpu_ms_per_query everywhere";
const MOVES_SERVER: &str = "latency_p95_ms / throughput_qps on concurrent_small";
const MOVES_ALLOC: &str = "cpu_ms_per_query and peak_rss_mb on analytical";
const MOVES_NOTHING: &str = "no end-to-end metric; reported for calibration";

pub const PER_LAYER: [LayerSpec; 47] = [
    layer("ldbc.generate_ms", "ms", Lower, MOVES_SETUP),
    layer("epgm.index_build_ms", "ms", Lower, MOVES_SETUP),
    layer("epgm.statistics_ms", "ms", Lower, MOVES_SETUP),
    layer("server.snapshot_ms", "ms", Lower, MOVES_SETUP),
    layer("cypher.lex_us", "us", Lower, MOVES_FRONTEND),
    layer("cypher.parse_us", "us", Lower, MOVES_FRONTEND),
    layer("cypher.query_graph_us", "us", Lower, MOVES_FRONTEND),
    layer("cypher.tokens_per_query", "count", Lower, MOVES_FRONTEND),
    layer("core.fingerprint_us", "us", Lower, MOVES_FRONTEND),
    layer("core.plan_us", "us", Lower, MOVES_FRONTEND),
    layer("core.plan_digest_changed", "count", Lower, MOVES_NOTHING),
    layer("core.plancache_hit_rate", "share", Higher, MOVES_CACHE),
    layer("core.plancache_evictions", "count", Lower, MOVES_CACHE),
    layer("core.plancache_lookup_us", "us", Lower, MOVES_CACHE),
    layer("core.op.scan_ms", "ms", Lower, MOVES_SCAN_EXPAND),
    layer("core.op.expand_ms", "ms", Lower, MOVES_SCAN_EXPAND),
    layer("core.op.join_ms", "ms", Lower, MOVES_JOIN),
    layer("core.op.intersect_ms", "ms", Lower, MOVES_JOIN),
    layer(
        "core.op.filter_project_ms",
        "ms",
        Lower,
        "latency_p50_ms on operational and analytical",
    ),
    layer(
        "core.op.rows_examined_per_row_out",
        "ratio",
        Lower,
        "latency_p50_ms on operational (scans) and analytical (joins)",
    ),
    layer("core.op.max_intermediate_rows", "count", Lower, MOVES_JOIN),
    layer(
        "core.plan_q_error_max",
        "ratio",
        Lower,
        "plan choice: latency_p50_ms on analytical when it changes a join order",
    ),
    layer(
        "core.materialize_ms",
        "ms",
        Lower,
        "latency_p50_ms on analytical",
    ),
    layer(
        "core.rows_out_per_query",
        "count",
        Lower,
        "latency_p50_ms on analytical (fixed by the workload; a change means a wrong result)",
    ),
    layer(
        "core.pipeline.stages_per_query",
        "count",
        Lower,
        MOVES_PIPELINE,
    ),
    layer(
        "core.pipeline.collected_records_per_query",
        "count",
        Lower,
        MOVES_PIPELINE,
    ),
    layer(
        "core.pipeline.sim_s_per_query",
        "s",
        Lower,
        MOVES_PIPELINE,
    ),
    layer("dataflow.stages_per_query", "count", Lower, MOVES_DATAFLOW),
    layer("dataflow.records_per_query", "count", Lower, MOVES_DATAFLOW),
    layer(
        "dataflow.shuffled_bytes_per_query",
        "B",
        Lower,
        MOVES_DATAFLOW,
    ),
    layer(
        "dataflow.morsels_per_query",
        "count",
        Lower,
        MOVES_DATAFLOW,
    ),
    layer("dataflow.stolen_share", "share", Lower, MOVES_DATAFLOW),
    layer("dataflow.peak_memory_bytes", "B", Lower, MOVES_ALLOC),
    layer("dataflow.empty_stage_us", "us", Lower, MOVES_DATAFLOW),
    layer("dataflow.sim_s_per_query", "s", Lower, MOVES_NOTHING),
    layer(
        "dataflow.sim_wall_rank_corr",
        "ratio",
        Higher,
        MOVES_NOTHING,
    ),
    layer("server.admit_us", "us", Lower, MOVES_SERVER),
    layer("server.attach_us", "us", Lower, MOVES_SERVER),
    layer(
        "server.session_overhead_us",
        "us",
        Lower,
        "latency_p95_ms / throughput_qps on concurrent_small; bounds what server work can cost operational",
    ),
    layer(
        "server.scaling_efficiency",
        "ratio",
        Higher,
        MOVES_SERVER,
    ),
    layer("server.rejected", "count", Lower, MOVES_SERVER),
    layer("server.deadline_exceeded", "count", Lower, MOVES_SERVER),
    layer("server.cold_pass_ms", "ms", Lower, MOVES_SERVER),
    layer("alloc.count_per_query", "count", Lower, MOVES_ALLOC),
    layer("alloc.bytes_per_query", "B", Lower, MOVES_ALLOC),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "honesty check: traced p50 / untraced p50",
    ),
    layer(
        "trace.unattributed_share",
        "share",
        Lower,
        "honesty check: share of a call no measured layer accounts for",
    ),
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEndSpec> {
    END_TO_END.iter().find(|metric| metric.name == name)
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradoop_dataflow::JsonValue;

    fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
        entry.get(key).and_then(JsonValue::as_str).unwrap_or("")
    }

    /// `BENCHMARK.json` at the repository root and this file name the same
    /// workloads and metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_agrees_with_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let document = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let section = |key: &str| document.get(key).and_then(JsonValue::as_array).unwrap();

        let workloads = section("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }

        let end_to_end = section("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, spec) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "unit"), spec.unit);
            assert_eq!(field(entry, "better"), spec.better.name());
            assert_eq!(
                entry.get("bound").and_then(JsonValue::as_f64),
                Some(spec.bound)
            );
            assert!(spec.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == SETUP_S && m.unit == "s"));

        let per_layer = section("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, spec) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "unit"), spec.unit);
            assert_eq!(field(entry, "better"), spec.better.name());
        }

        let run_seconds = document.get("run_seconds").and_then(JsonValue::as_f64);
        assert_eq!(run_seconds, Some(15.0));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let distinct: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len());
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
