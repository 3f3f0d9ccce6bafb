//! Shared experiment harness: cached datasets, query execution with
//! simulated-clock measurement.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use gradoop_core::{CypherEngine, MatchingConfig, Profile, QueryResult};
use gradoop_dataflow::{ExecutionConfig, ExecutionEnvironment, ExecutionMetrics, FaultConfig};
use gradoop_epgm::{
    properties, GradoopId, GraphHead, GraphStatistics, IndexedLogicalGraph, LogicalGraph,
};
use gradoop_ldbc::{generate, pick_names, GeneratedData, LdbcConfig, SelectivityNames};

/// The two dataset sizes of the paper's evaluation, rescaled ~1000×
/// (see DESIGN.md). The 10× ratio between them is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleFactor {
    /// Paper "SF 10" (rescaled).
    Sf10,
    /// Paper "SF 100" (rescaled).
    Sf100,
}

impl ScaleFactor {
    /// Both scale factors, small first.
    pub fn all() -> [ScaleFactor; 2] {
        [ScaleFactor::Sf10, ScaleFactor::Sf100]
    }

    /// The generator configuration, scaled by `scale` (1.0 = default;
    /// `repro --quick` uses a smaller scale).
    pub fn config(&self, scale: f64) -> LdbcConfig {
        let persons = match self {
            ScaleFactor::Sf10 => 1500.0 * scale,
            ScaleFactor::Sf100 => 15000.0 * scale,
        };
        LdbcConfig::with_persons((persons as usize).max(50))
    }

    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            ScaleFactor::Sf10 => "SF 10",
            ScaleFactor::Sf100 => "SF 100",
        }
    }
}

/// A generated dataset with everything the experiments need, cached so the
/// (deterministic) generation and statistics run once per configuration.
pub struct Dataset {
    /// The generated elements.
    pub data: GeneratedData,
    /// Selectivity parameter names for this dataset.
    pub names: SelectivityNames,
    /// Pre-computed statistics (the paper computes them offline too).
    pub statistics: GraphStatistics,
}

fn cache() -> &'static Mutex<HashMap<usize, Arc<Dataset>>> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<Dataset>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the (cached) dataset for `config`.
pub fn dataset(config: &LdbcConfig) -> Arc<Dataset> {
    if let Some(found) = cache().lock().unwrap().get(&config.persons) {
        return Arc::clone(found);
    }
    let data = generate(config);
    let names = pick_names(&data);
    // Statistics are computed once on a throw-away environment; the timed
    // runs use pre-computed statistics exactly like the paper.
    let env = ExecutionEnvironment::new(
        ExecutionConfig::with_workers(4).cost_model(gradoop_dataflow::CostModel::free()),
    );
    let graph = graph_on(&env, &data);
    let statistics = GraphStatistics::of(&graph);
    let dataset = Arc::new(Dataset {
        data,
        names,
        statistics,
    });
    cache()
        .lock()
        .unwrap()
        .insert(config.persons, Arc::clone(&dataset));
    dataset
}

/// Builds the logical graph for a dataset on `env`.
pub fn graph_on(env: &ExecutionEnvironment, data: &GeneratedData) -> LogicalGraph {
    LogicalGraph::from_data(
        env,
        GraphHead::new(GradoopId(0), "LdbcSocialNetwork", properties! {}),
        data.vertices.clone(),
        data.edges.clone(),
    )
}

/// One measured query execution.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Number of matches (the paper counts matches too).
    pub matches: usize,
    /// Wall-clock seconds on this machine.
    pub wall_seconds: f64,
    /// Totals of the query's stages: simulated cluster time (per-stage
    /// makespans), records, and the recovery attempts, seconds and
    /// checkpoint/restore bytes injected faults cost (0 without faults).
    pub metrics: ExecutionMetrics,
    /// Order-independent digest over the rendered result rows. Two runs
    /// with equal digests returned byte-identical result sets — the chaos
    /// experiments compare faulted runs against fault-free ones with this.
    pub result_digest: u64,
}

/// Order-independent digest of a result set: every row is rendered, the
/// renderings are sorted and hashed. Equal digests ⇔ byte-identical rows.
fn result_digest(result: &QueryResult) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let table = result.rows().expect("result rows materialize");
    let mut rendered: Vec<String> = table.rows.iter().map(|row| format!("{row:?}")).collect();
    rendered.sort_unstable();
    let mut hasher = DefaultHasher::new();
    table.columns.hash(&mut hasher);
    rendered.hash(&mut hasher);
    hasher.finish()
}

/// The set-up every measured query shares: the dataset of `config` on a
/// fresh environment of `workers` simulated workers with the default
/// (cluster-calibrated) cost model, queried in its label-indexed
/// representation (paper §3.4) like the paper's evaluation, by an engine
/// over the pre-computed statistics. Building the index is preprocessing
/// and excluded from the measured time, exactly like the statistics: the
/// metrics are reset after it. `faults`, when given, are installed last, so
/// stage 0 of the failure schedule is the first stage of the measured
/// query — the same convention the chaos tests use. Without them no
/// injector is installed at all (an empty schedule would still charge
/// iteration checkpoints).
fn measured_setup(
    config: &LdbcConfig,
    workers: usize,
    faults: Option<FaultConfig>,
) -> (ExecutionEnvironment, IndexedLogicalGraph, CypherEngine) {
    let dataset = dataset(config);
    let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(workers));
    let graph = graph_on(&env, &dataset.data).to_indexed();
    let engine = CypherEngine::with_statistics(dataset.statistics.clone());
    env.reset_metrics();
    if let Some(faults) = faults {
        env.install_faults(faults);
    }
    (env, graph, engine)
}

/// Runs `query_text` on the dataset of `config` with `workers` simulated
/// workers (see [`measured_setup`]) and returns the measurement. Under
/// `faults`, an exhausted retry budget surfaces as a panic carrying the
/// classified [`CypherError::Execution`](gradoop_core::CypherError::Execution)
/// message; a survivable schedule returns a normal [`Measurement`] whose
/// recovery fields are non-zero.
pub fn run_query(
    config: &LdbcConfig,
    workers: usize,
    query_text: &str,
    faults: Option<FaultConfig>,
) -> Measurement {
    let (env, graph, engine) = measured_setup(config, workers, faults);
    let wall_start = Instant::now();
    let result = engine
        .execute(
            &graph,
            query_text,
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        )
        .unwrap_or_else(|e| panic!("query failed: {e}\n{query_text}"));
    let matches = result.count();
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    Measurement {
        matches,
        wall_seconds,
        metrics: env.metrics(),
        // Decoding rows runs no dataflow stage, so no fault can fire in it.
        result_digest: result_digest(&result),
    }
}

/// Runs `query_text` under PROFILE: same set-up as [`run_query`], but
/// returns the per-operator [`Profile`] tree — actual cardinalities,
/// selectivities, simulated times and estimate-vs-actual errors — instead
/// of aggregate metrics. The paper's Table 3 intermediate-result counts are
/// read off this tree; under `faults` it carries the recovery attempts,
/// recovery seconds and checkpoint/restore bytes the injected faults
/// charged.
pub fn profile_query(
    config: &LdbcConfig,
    workers: usize,
    query_text: &str,
    faults: Option<FaultConfig>,
) -> Profile {
    let (_env, graph, engine) = measured_setup(config, workers, faults);
    engine
        .profile(
            &graph,
            query_text,
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        )
        .unwrap_or_else(|e| panic!("query failed: {e}\n{query_text}"))
}

/// A statistics object with no label information: feeding it to the greedy
/// planner reproduces "no statistics-based operator reordering" (the Flink
/// default the paper improves on) for the planner ablation.
pub fn uniform_statistics(stats: &GraphStatistics) -> GraphStatistics {
    GraphStatistics {
        vertex_count: stats.vertex_count,
        edge_count: stats.edge_count,
        distinct_source_count: stats.vertex_count,
        distinct_target_count: stats.vertex_count,
        ..GraphStatistics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradoop_ldbc::BenchmarkQuery;

    #[test]
    fn dataset_is_cached() {
        let config = LdbcConfig::with_persons(60);
        let a = dataset(&config);
        let b = dataset(&config);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn run_query_measures_something() {
        let config = LdbcConfig::with_persons(60);
        let names = dataset(&config).names.clone();
        let m = run_query(&config, 2, &BenchmarkQuery::Q1.text(Some(&names.low)), None);
        assert!(m.matches > 0);
        assert!(m.metrics.simulated_seconds > 0.0);
        assert!(m.wall_seconds > 0.0);
        assert!(m.metrics.records_in > 0);
    }

    #[test]
    fn faulted_run_recovers_with_identical_results() {
        use gradoop_dataflow::FailureSchedule;
        let config = LdbcConfig::with_persons(60);
        let names = dataset(&config).names.clone();
        let text = BenchmarkQuery::Q1.text(Some(&names.low));
        let clean = run_query(&config, 4, &text, None);
        let faults = FaultConfig::new(
            FailureSchedule::none()
                .crash_at_stage(0, 0)
                .lost_partition_at_stage(1, 1),
        );
        let faulted = run_query(&config, 4, &text, Some(faults));
        assert_eq!(clean.matches, faulted.matches);
        assert_eq!(clean.result_digest, faulted.result_digest);
        assert_eq!(clean.metrics.recovery_attempts, 0);
        assert_eq!(faulted.metrics.recovery_attempts, 2);
        assert!(faulted.metrics.recovery_seconds > 0.0);
        assert!(faulted.metrics.simulated_seconds > clean.metrics.simulated_seconds);
    }

    #[test]
    fn faulted_profile_reports_recovery() {
        use gradoop_dataflow::FailureSchedule;
        let config = LdbcConfig::with_persons(60);
        let names = dataset(&config).names.clone();
        let text = BenchmarkQuery::Q1.text(Some(&names.low));
        let profile = profile_query(
            &config,
            4,
            &text,
            Some(FaultConfig::new(
                FailureSchedule::none().crash_at_stage(0, 0),
            )),
        );
        assert!(profile.metrics.recovery_attempts >= 1);
        assert!(profile.metrics.recovery_seconds > 0.0);
    }

    #[test]
    fn scale_factor_configs_keep_ratio() {
        let sf10 = ScaleFactor::Sf10.config(1.0);
        let sf100 = ScaleFactor::Sf100.config(1.0);
        assert_eq!(sf100.persons, 10 * sf10.persons);
        let quick = ScaleFactor::Sf100.config(0.1);
        assert_eq!(quick.persons, sf10.persons);
    }

    #[test]
    fn uniform_statistics_strip_label_information() {
        let config = LdbcConfig::with_persons(60);
        let stats = dataset(&config).statistics.clone();
        let uniform = uniform_statistics(&stats);
        assert_eq!(uniform.vertex_count, stats.vertex_count);
        assert!(uniform.vertex_count_by_label.is_empty());
    }
}
