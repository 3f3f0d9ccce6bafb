//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```sh
//! cargo run --release -p gradoop-bench --bin repro            # everything
//! cargo run --release -p gradoop-bench --bin repro -- --fig3  # one artifact
//! cargo run --release -p gradoop-bench --bin repro -- --quick # small datasets
//! cargo run --release -p gradoop-bench --bin repro -- --smoke # CI smoke run
//! ```
//!
//! Runtimes are **simulated cluster seconds** (per-worker makespans with
//! network and spill costs, see `gradoop-dataflow`), which is what
//! reproduces the paper's scaling behaviour; absolute numbers differ from
//! the paper because the datasets are rescaled ~1000× (see DESIGN.md).

use std::collections::HashMap;

use gradoop_bench::figure1::{figure1_graph, FIGURE1_QUERIES};
use gradoop_bench::harness::{self, Measurement, ScaleFactor};
use gradoop_bench::report::{bytes, seconds, speedup, Table};
use gradoop_core::{CypherEngine, GraphSource, JsonlQueryLog, MatchingConfig};
use gradoop_dataflow::{
    chrome_trace_json, CollectingSink, ExecutionConfig, ExecutionEnvironment, FailureSchedule,
    FaultConfig,
};
use gradoop_ldbc::{table3_patterns, BenchmarkQuery, LdbcConfig, Selectivity, SelectivityNames};

const WORKER_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Lazily memoized measurements so `--all` never repeats a run.
struct Memo {
    scale: f64,
    cache: HashMap<(usize, &'static str, Option<Selectivity>, usize), Measurement>,
}

impl Memo {
    fn new(scale: f64) -> Self {
        Memo {
            scale,
            cache: HashMap::new(),
        }
    }

    fn get(
        &mut self,
        query: BenchmarkQuery,
        sf: ScaleFactor,
        selectivity: Option<Selectivity>,
        workers: usize,
    ) -> Measurement {
        let key = (query.number(), sf.label(), selectivity, workers);
        if let Some(found) = self.cache.get(&key) {
            return found.clone();
        }
        let config = sf.config(self.scale);
        let names = harness::dataset(&config).names.clone();
        let text = query.text(selectivity.map(|s| names.name(s)));
        let measurement = harness::run_query(&config, workers, &text, None);
        self.cache.insert(key, measurement.clone());
        measurement
    }
}

fn fig3(memo: &mut Memo) {
    println!("== Figure 3: speedup over workers ==");
    println!("(operational queries on SF 100 with low selectivity; analytical on SF 10)\n");
    let mut table = Table::new(
        ["series", "1", "2", "4", "8", "16"]
            .iter()
            .map(|s| s.to_string()),
    );
    let series: [(BenchmarkQuery, ScaleFactor, Option<Selectivity>); 6] = [
        (
            BenchmarkQuery::Q1,
            ScaleFactor::Sf100,
            Some(Selectivity::Low),
        ),
        (
            BenchmarkQuery::Q2,
            ScaleFactor::Sf100,
            Some(Selectivity::Low),
        ),
        (
            BenchmarkQuery::Q3,
            ScaleFactor::Sf100,
            Some(Selectivity::Low),
        ),
        (BenchmarkQuery::Q4, ScaleFactor::Sf10, None),
        (BenchmarkQuery::Q5, ScaleFactor::Sf10, None),
        (BenchmarkQuery::Q6, ScaleFactor::Sf10, None),
    ];
    for (query, sf, selectivity) in series {
        let base = memo.get(query, sf, selectivity, 1).simulated_seconds;
        let mut cells = vec![format!(
            "Q{}.{}",
            query.number(),
            sf.label().replace(' ', "")
        )];
        for workers in WORKER_COUNTS {
            let m = memo.get(query, sf, selectivity, workers);
            cells.push(format!(
                "{} {}",
                seconds(m.simulated_seconds),
                speedup(base, m.simulated_seconds)
            ));
        }
        table.row(cells);
    }
    println!("{table}");
}

fn fig4(memo: &mut Memo) {
    println!("== Figure 4: data size increase (16 workers) ==\n");
    let mut table = Table::new(["query", "SF 10 [s]", "SF 100 [s]", "ratio"]);
    for query in BenchmarkQuery::all() {
        let selectivity = query.is_operational().then_some(Selectivity::Low);
        let small = memo.get(query, ScaleFactor::Sf10, selectivity, 16);
        let large = memo.get(query, ScaleFactor::Sf100, selectivity, 16);
        table.row([
            query.to_string(),
            seconds(small.simulated_seconds),
            seconds(large.simulated_seconds),
            format!(
                "{:.1}x",
                large.simulated_seconds / small.simulated_seconds.max(1e-9)
            ),
        ]);
    }
    println!("{table}");
}

fn fig5(memo: &mut Memo) {
    println!("== Figure 5: query selectivity (4 workers, SF 10) ==\n");
    let mut table = Table::new(["query", "high [s]", "medium [s]", "low [s]"]);
    for query in [BenchmarkQuery::Q1, BenchmarkQuery::Q2, BenchmarkQuery::Q3] {
        let mut cells = vec![query.to_string()];
        for selectivity in Selectivity::all() {
            let m = memo.get(query, ScaleFactor::Sf10, Some(selectivity), 4);
            cells.push(seconds(m.simulated_seconds));
        }
        table.row(cells);
    }
    println!("{table}");
}

fn table3(scale: f64) {
    println!("== Table 3: intermediate result sizes (SF 10, measured by PROFILE) ==\n");
    let config = ScaleFactor::Sf10.config(scale);
    let dataset = harness::dataset(&config);
    let names = dataset.names.clone();
    let mut table = Table::new(["pattern", "High", "Medium", "Low"]);
    let patterns: Vec<&'static str> = table3_patterns("x")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let mut low_profiles = Vec::new();
    for pattern in &patterns {
        let mut cells = vec![pattern.to_string()];
        for selectivity in Selectivity::all() {
            let name = names.name(selectivity).to_string();
            let text = table3_patterns(&name)
                .into_iter()
                .find(|(p, _)| p == pattern)
                .map(|(_, text)| text)
                .expect("pattern exists");
            let profile = harness::profile_query(&config, 4, &text, None);
            cells.push(format!(
                "{} ({})",
                profile.matches,
                profile.root.intermediate_rows()
            ));
            if selectivity == Selectivity::Low {
                low_profiles.push((pattern.to_string(), profile));
            }
        }
        table.row(cells);
    }
    println!("(cells are matches (total intermediate embeddings), per PROFILE)");
    println!("{table}");

    fault_tolerance(&config, &names);

    println!("-- per-operator intermediate results (low selectivity, from PROFILE)");
    let mut breakdown = Table::new(["pattern", "operator", "rows out", "q-error"]);
    for (pattern, profile) in &low_profiles {
        let mut nodes = Vec::new();
        fn walk<'a>(
            node: &'a gradoop_core::ProfileNode,
            out: &mut Vec<&'a gradoop_core::ProfileNode>,
        ) {
            out.push(node);
            for child in &node.children {
                walk(child, out);
            }
        }
        walk(&profile.root, &mut nodes);
        for (index, node) in nodes.iter().enumerate() {
            breakdown.row([
                if index == 0 {
                    pattern.clone()
                } else {
                    String::new()
                },
                node.operator.clone(),
                node.rows_out.to_string(),
                format!("{:.1}", node.estimate_error),
            ]);
        }
    }
    println!("{breakdown}");
}

/// Fault-tolerance ablation. Three experiments, each asserting its own
/// acceptance condition:
///
/// 1. every Table-3 pattern (plus the variable-length Q2/Q3) runs once
///    fault-free and once under a non-empty failure schedule (worker crash,
///    lost partition, straggler, superstep crash) — match counts and sorted
///    result rows must be byte-identical, and recovery must actually have
///    happened;
/// 2. `PROFILE` of a faulted query must report the recovery attempts and
///    their simulated cost in its tree;
/// 3. a checkpoint-interval sweep on Q3's deep `replyOf*1..10` expansion
///    shows checkpointed recovery beating restart-from-scratch.
fn fault_tolerance(config: &LdbcConfig, names: &SelectivityNames) {
    println!("-- fault tolerance: injected failures vs fault-free (low selectivity, 4 workers)");
    let mut comparisons: Vec<(String, String)> = table3_patterns(&names.low)
        .into_iter()
        .map(|(name, text)| (name.to_string(), text))
        .collect();
    for query in [BenchmarkQuery::Q2, BenchmarkQuery::Q3] {
        comparisons.push((query.to_string(), query.text(Some(&names.low))));
    }
    let mut table = Table::new([
        "query",
        "matches",
        "identical",
        "retries",
        "t_recovery [s]",
        "faulted [s]",
        "clean [s]",
    ]);
    for (label, text) in comparisons {
        let clean = harness::run_query(config, 4, &text, None);
        // The crash at stage 0 always fires; the later events fire on
        // queries with enough stages (joins) or supersteps (Q2/Q3).
        let schedule = FailureSchedule::none()
            .crash_at_stage(0, 0)
            .lost_partition_at_stage(2, 1)
            .straggler_at_stage(4, 2, 4.0)
            .crash_at_superstep(2, 3);
        let faulted = harness::run_query(
            config,
            4,
            &text,
            Some(FaultConfig::new(schedule).checkpoint_interval(2)),
        );
        assert_eq!(
            clean.matches, faulted.matches,
            "fault injection changed the match count of {label}"
        );
        assert_eq!(
            clean.result_digest, faulted.result_digest,
            "fault injection changed the result rows of {label}"
        );
        assert!(
            faulted.recovery_attempts > 0,
            "the schedule must actually fire on {label}"
        );
        assert!(
            faulted.simulated_seconds > clean.simulated_seconds,
            "recovery must cost simulated time on {label}"
        );
        table.row([
            label,
            faulted.matches.to_string(),
            "yes".to_string(),
            faulted.recovery_attempts.to_string(),
            seconds(faulted.recovery_seconds),
            seconds(faulted.simulated_seconds),
            seconds(clean.simulated_seconds),
        ]);
    }
    println!("(identical = equal match counts and byte-identical sorted result rows)");
    println!("{table}");

    println!("-- PROFILE under faults (Q1, worker crash at scan + lost partition)");
    let text = BenchmarkQuery::Q1.text(Some(&names.low));
    let profile = harness::profile_query(
        config,
        4,
        &text,
        Some(FaultConfig::new(
            FailureSchedule::none()
                .crash_at_stage(0, 0)
                .lost_partition_at_stage(2, 1),
        )),
    );
    assert!(
        profile.recovery_attempts > 0,
        "PROFILE must report the injected recovery attempts"
    );
    assert!(
        profile.recovery_seconds > 0.0,
        "PROFILE must report the simulated recovery cost"
    );
    println!("{}", profile.to_text());

    println!("-- checkpoint interval ablation (Q3, crash at superstep 7, 4 workers)");
    // Q3's `replyOf*1..10` expansion runs deep (8+ supersteps even on the
    // smoke dataset, reply chains go to depth 9); a crash late in the
    // iteration makes restart-from-scratch redo six supersteps while a
    // checkpointed run redoes at most the interval.
    let text = BenchmarkQuery::Q3.text(Some(&names.low));
    let clean = harness::run_query(config, 4, &text, None);
    let schedule = FailureSchedule::none().crash_at_superstep(7, 0);
    let mut table = Table::new([
        "checkpoint interval",
        "matches",
        "restores",
        "restored",
        "ckpt",
        "simulated [s]",
        "vs scratch",
    ]);
    let mut scratch_seconds = f64::NAN;
    let mut checkpointed_restores = 0u64;
    for interval in [0usize, 1, 2, 4] {
        let m = harness::run_query(
            config,
            4,
            &text,
            Some(FaultConfig::new(schedule.clone()).checkpoint_interval(interval)),
        );
        assert_eq!(
            m.matches, clean.matches,
            "checkpoint interval {interval} changed the match count"
        );
        assert_eq!(
            m.result_digest, clean.result_digest,
            "checkpoint interval {interval} changed the result rows"
        );
        assert!(
            m.recovery_attempts > 0,
            "the superstep crash must fire (interval {interval})"
        );
        if interval == 0 {
            // Restart-from-scratch baseline: the crash rolls the iteration
            // back to the initial working set.
            scratch_seconds = m.simulated_seconds;
        } else if m.restored_bytes > 0 {
            // A checkpoint preceded the crash: recovery re-runs fewer
            // supersteps and must beat the scratch restart even after
            // paying for the checkpoint writes.
            checkpointed_restores += 1;
            assert!(
                m.simulated_seconds < scratch_seconds,
                "checkpoint interval {interval} ({}s) must beat restart \
                 from scratch ({scratch_seconds}s)",
                m.simulated_seconds
            );
        }
        table.row([
            if interval == 0 {
                "0 (scratch)".to_string()
            } else {
                interval.to_string()
            },
            m.matches.to_string(),
            m.recovery_attempts.to_string(),
            bytes(m.restored_bytes),
            bytes(m.checkpoint_bytes),
            seconds(m.simulated_seconds),
            if interval == 0 {
                "-".to_string()
            } else {
                speedup(scratch_seconds, m.simulated_seconds)
            },
        ]);
    }
    assert!(
        checkpointed_restores > 0,
        "at least one interval must recover from a real checkpoint"
    );
    println!("{table}");
}

fn profiles(scale: f64) {
    println!("== Profiled operational queries (PROFILE, 4 workers, SF 10, low selectivity) ==\n");
    let config = ScaleFactor::Sf10.config(scale);
    let names = harness::dataset(&config).names.clone();
    for query in [BenchmarkQuery::Q1, BenchmarkQuery::Q2, BenchmarkQuery::Q3] {
        let text = query.text(Some(&names.low));
        let profile = harness::profile_query(&config, 4, &text, None);
        println!("-- {query}: {}\n{}", query.title(), profile.to_text());
    }
}

fn table4(memo: &mut Memo) {
    println!("== Table 4: query runtimes in seconds (speedup) ==\n");
    let mut table = Table::new(["query", "selectivity", "SF", "1", "2", "4", "8", "16"]);
    for query in [BenchmarkQuery::Q1, BenchmarkQuery::Q2, BenchmarkQuery::Q3] {
        for selectivity in [Selectivity::Low, Selectivity::Medium, Selectivity::High] {
            for sf in ScaleFactor::all() {
                let base = memo.get(query, sf, Some(selectivity), 1).simulated_seconds;
                let mut cells = vec![
                    query.to_string(),
                    selectivity.to_string(),
                    sf.label().to_string(),
                ];
                for workers in WORKER_COUNTS {
                    let m = memo.get(query, sf, Some(selectivity), workers);
                    cells.push(format!(
                        "{} {}",
                        seconds(m.simulated_seconds),
                        speedup(base, m.simulated_seconds)
                    ));
                }
                table.row(cells);
            }
        }
    }
    // Analytical queries: the paper runs the full worker grid on SF 10 and
    // SF 100 only on 16 workers.
    for query in [BenchmarkQuery::Q4, BenchmarkQuery::Q5, BenchmarkQuery::Q6] {
        let base = memo
            .get(query, ScaleFactor::Sf10, None, 1)
            .simulated_seconds;
        let mut cells = vec![query.to_string(), "-".to_string(), "SF 10".to_string()];
        for workers in WORKER_COUNTS {
            let m = memo.get(query, ScaleFactor::Sf10, None, workers);
            cells.push(format!(
                "{} {}",
                seconds(m.simulated_seconds),
                speedup(base, m.simulated_seconds)
            ));
        }
        table.row(cells);
        let m16 = memo.get(query, ScaleFactor::Sf100, None, 16);
        table.row([
            query.to_string(),
            "-".to_string(),
            "SF 100".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            seconds(m16.simulated_seconds),
        ]);
    }
    println!("{table}");
}

fn cardinalities(memo: &mut Memo) {
    println!("== Appendix: result cardinalities ==\n");
    let mut table = Table::new(["query", "SF", "High", "Medium", "Low"]);
    for query in [BenchmarkQuery::Q1, BenchmarkQuery::Q2, BenchmarkQuery::Q3] {
        for sf in ScaleFactor::all() {
            let mut cells = vec![query.to_string(), sf.label().to_string()];
            for selectivity in Selectivity::all() {
                let m = memo.get(query, sf, Some(selectivity), 4);
                cells.push(m.matches.to_string());
            }
            table.row(cells);
        }
    }
    for query in [BenchmarkQuery::Q4, BenchmarkQuery::Q5, BenchmarkQuery::Q6] {
        for sf in ScaleFactor::all() {
            let workers = if sf == ScaleFactor::Sf100 { 16 } else { 4 };
            let m = memo.get(query, sf, None, workers);
            table.row([
                query.to_string(),
                sf.label().to_string(),
                "-".to_string(),
                "-".to_string(),
                m.matches.to_string(),
            ]);
        }
    }
    println!("{table}");
}

fn plans(scale: f64) {
    println!("== Query plans (EXPLAIN: greedy planner with statistics, SF 10) ==\n");
    let config = ScaleFactor::Sf10.config(scale);
    let dataset = harness::dataset(&config);
    let names = dataset.names.clone();
    let engine = CypherEngine::with_statistics(dataset.statistics.clone());
    for query in BenchmarkQuery::all() {
        let text = query.text(Some(&names.low));
        let explain = engine
            .explain(&text)
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        println!("-- {query}: {}\n{}", query.title(), explain.to_text());
    }
}

fn ablations(scale: f64) {
    println!("== Ablations ==\n");
    let config = ScaleFactor::Sf10.config(scale);
    let dataset = harness::dataset(&config);
    let names = dataset.names.clone();
    let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4));
    let graph = harness::graph_on(&env, &dataset.data);
    let indexed = graph.to_indexed();
    let engine = CypherEngine::with_statistics(dataset.statistics.clone());
    // Matches and simulated seconds of one query, the metrics reset first.
    let run = |engine: &CypherEngine, source: &dyn GraphSource, text: &str| {
        env.reset_metrics();
        let matches = engine
            .execute(
                source,
                text,
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap_or_else(|e| panic!("query failed: {e}\n{text}"))
            .count();
        (matches, env.simulated_seconds())
    };

    // §3.2: greedy planner with statistics vs without (Flink's default has
    // no statistics-based reordering). Both arms read the label index, so
    // only the operator order differs.
    println!("-- query planner: with vs without graph statistics (IndexedLogicalGraph, 4 workers)");
    let blind_engine =
        CypherEngine::with_statistics(harness::uniform_statistics(&dataset.statistics));
    let mut table = Table::new(["query", "planner", "matches", "simulated [s]"]);
    for query in [BenchmarkQuery::Q3, BenchmarkQuery::Q6] {
        let text = query.text(Some(&names.low));
        let (informed_matches, informed_seconds) = run(&engine, &indexed, &text);
        let (blind_matches, blind_seconds) = run(&blind_engine, &indexed, &text);
        assert_eq!(
            informed_matches, blind_matches,
            "{query}: planners disagree"
        );
        for (planner, matches, simulated) in [
            ("greedy + statistics", informed_matches, informed_seconds),
            ("no statistics", blind_matches, blind_seconds),
        ] {
            table.row([
                query.to_string(),
                planner.to_string(),
                matches.to_string(),
                seconds(simulated),
            ]);
        }
    }
    println!("{table}");

    // §3.4: IndexedLogicalGraph vs full scans (Q1).
    println!("-- graph representation: label index vs full scan (Q1, 4 workers)");
    let text = BenchmarkQuery::Q1.text(Some(&names.low));
    let (scan_matches, scan_seconds) = run(&engine, &graph, &text);
    let (index_matches, index_seconds) = run(&engine, &indexed, &text);
    assert_eq!(scan_matches, index_matches);
    let mut table = Table::new(["representation", "matches", "simulated [s]"]);
    table.row([
        "LogicalGraph (scan)".to_string(),
        scan_matches.to_string(),
        seconds(scan_seconds),
    ]);
    table.row([
        "IndexedLogicalGraph".to_string(),
        index_matches.to_string(),
        seconds(index_seconds),
    ]);
    println!("{table}");
}

/// Runs the Figure 1 queries with a collecting trace sink and writes the
/// Chrome trace-event timeline (`chrome://tracing` / Perfetto loadable) to
/// `path`. With `query_log_path`, the engine's query log additionally
/// streams one JSONL record per query to that file.
fn trace_out(path: &str, query_log_path: Option<&str>) {
    use std::sync::Arc;
    let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4));
    let sink = Arc::new(CollectingSink::new());
    env.set_trace_sink(Some(sink.clone()));
    let graph = figure1_graph(&env);
    let mut engine = CypherEngine::for_graph(&graph);
    if let Some(log_path) = query_log_path {
        let log = JsonlQueryLog::create(std::path::Path::new(log_path))
            .unwrap_or_else(|e| panic!("open {log_path}: {e}"));
        engine = engine.with_query_log(Arc::new(log));
    }
    for query in FIGURE1_QUERIES {
        engine
            .execute(
                &graph,
                query,
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap_or_else(|e| panic!("{query}: {e}"));
    }
    let trace = sink.snapshot();
    std::fs::write(path, chrome_trace_json(&trace)).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "wrote Chrome trace-event timeline to {path} ({} stages, {} spans)",
        trace.stages.len(),
        trace.spans.len()
    );
    if let Some(log_path) = query_log_path {
        println!(
            "wrote query log to {log_path} ({} queries)",
            FIGURE1_QUERIES.len()
        );
    }
}

/// The artifacts `repro` regenerates. Naming none of them (nor
/// `--trace-out`) selects them all.
const ARTIFACTS: [&str; 9] = [
    "--cardinalities",
    "--table3",
    "--fig5",
    "--fig3",
    "--fig4",
    "--table4",
    "--plans",
    "--profiles",
    "--ablations",
];
/// Run modes, and the dataset shrinker.
const SWITCHES: [&str; 3] = ["--smoke", "--conformance", "--quick"];
/// Flags that take a value, each with the flag it needs beside it (itself
/// when it stands alone).
const VALUE_FLAGS: [(&str, &str); 3] = [
    ("--trace-out", "--trace-out"),
    ("--query-log", "--trace-out"),
    ("--cases", "--conformance"),
];

/// Rejects anything that is not a known flag (or the value of one), and a
/// value flag whose owner is absent, so neither a typo nor an ignored flag
/// can silently select the full multi-minute suite.
fn check_args(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if let Some((flag, owner)) = VALUE_FLAGS.iter().find(|(flag, _)| flag == arg) {
            if rest.next().is_none_or(|value| value.starts_with("--")) {
                return Err(format!("{flag} needs a value"));
            }
            if !args.iter().any(|a| a == owner) {
                return Err(format!("{flag} only applies together with {owner}"));
            }
        } else if !ARTIFACTS.contains(&arg.as_str()) && !SWITCHES.contains(&arg.as_str()) {
            return Err(format!("unknown argument `{arg}`"));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(problem) = check_args(&args) {
        eprintln!(
            "repro: {problem}\nflags: {} {} {}",
            ARTIFACTS.join(" "),
            SWITCHES.join(" "),
            VALUE_FLAGS
                .map(|(flag, _)| format!("{flag} <value>"))
                .join(" ")
        );
        std::process::exit(2);
    }
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    if has("--smoke") {
        // CI smoke run: exercise the harness end to end (generation,
        // planning, execution, PROFILE, the fault-tolerance ablation) on a
        // tiny dataset and exit. Any panic or result mismatch fails CI.
        let scale = 0.04;
        println!("Smoke run at scale {scale} (tiny datasets, table 3 + figure 5 only).\n");
        let mut memo = Memo::new(scale);
        table3(scale);
        fig5(&mut memo);
        println!("smoke OK");
        return;
    }
    if has("--conformance") {
        // Differential conformance campaign: random (graph, query) pairs,
        // every engine configuration vs the reference matcher. The seed is
        // pinned via GRADOOP_TEST_SEED (CI) and defaults to the repo-wide
        // test seed; --cases N overrides the budget.
        let cases = value_of("--cases")
            .and_then(|n| n.parse().ok())
            .unwrap_or(1000);
        let seed = gradoop_bench::fuzz::seed_from_env(0xC0FFEE);
        println!("Conformance campaign: {cases} cases, seed {seed}.\n");
        let report = gradoop_bench::fuzz::run_conformance(&gradoop_bench::fuzz::FuzzConfig::new(
            seed, cases,
        ));
        print!("{}", report.summary());
        if !report.is_clean() {
            std::process::exit(1);
        }
        println!("conformance OK");
        return;
    }
    let trace_path = value_of("--trace-out");
    let all = trace_path.is_none() && !ARTIFACTS.iter().any(|flag| has(flag));
    let scale = if has("--quick") { 0.2 } else { 1.0 };
    let mut memo = Memo::new(scale);

    println!(
        "Reproduction harness — datasets rescaled ~1000x vs the paper \
         (scale multiplier {scale}); runtimes are simulated cluster seconds.\n"
    );

    if all || has("--cardinalities") {
        cardinalities(&mut memo);
    }
    if all || has("--table3") {
        table3(scale);
    }
    if all || has("--fig5") {
        fig5(&mut memo);
    }
    if all || has("--fig3") {
        fig3(&mut memo);
    }
    if all || has("--fig4") {
        fig4(&mut memo);
    }
    if all || has("--table4") {
        table4(&mut memo);
    }
    if all || has("--plans") {
        plans(scale);
    }
    if all || has("--profiles") {
        profiles(scale);
    }
    if all || has("--ablations") {
        ablations(scale);
    }
    if let Some(path) = trace_path {
        trace_out(&path, value_of("--query-log").as_deref());
    }
}
