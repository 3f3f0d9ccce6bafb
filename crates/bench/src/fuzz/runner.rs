//! Differential execution of one conformance case: the real engine, across
//! its whole configuration matrix, against the single-machine reference
//! matcher, result-for-result.

use std::collections::{BTreeMap, HashMap};

use gradoop_core::{
    reference_match, reference_pipeline, CypherEngine, EmbeddingRead, Entry, MatchingConfig,
    MorphismType, PlanMode, QueryResult, RowKey, TableResult,
};
use gradoop_cypher::ast::Pipeline;
use gradoop_cypher::{parse, parse_pipeline, QueryGraph};
use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
use gradoop_epgm::{GraphStatistics, LogicalGraph};

use super::gen::{GraphSpec, QuerySpec, Rng};
use crate::harness::uniform_statistics;

/// Canonical form of one match: variable → printable entry, order-free.
pub type Canonical = BTreeMap<String, String>;

/// One side's answer to a case, as the runner compares it.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A plain case's matches, sorted.
    Matches(Vec<Canonical>),
    /// A pipeline case's table. Rows compare under [`RowKey`] equality, the
    /// one both executors group and deduplicate by, so the two may pick
    /// different but equivalent representatives (`2` and `2.0`); an
    /// unordered table's rows are sorted by that key's order.
    Table {
        /// The column names.
        columns: Vec<String>,
        /// Whether row order is part of the answer.
        ordered: bool,
        /// The rows.
        rows: Vec<RowKey>,
    },
}

/// One point of the engine configuration matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Strip label statistics (the planner ablation) — exercises the
    /// alternative join orders the greedy planner picks without them.
    pub uniform_stats: bool,
    /// Planner mode — cyclic cases, with or without a pipeline tail,
    /// additionally sweep [`PlanMode::ForceBinary`] and
    /// [`PlanMode::ForceWco`] so the worst-case-optimal and binary plans are
    /// compared result-for-result on every matrix point.
    pub plan_mode: PlanMode,
}

impl EngineConfig {
    /// The full 2-point matrix (cost-based planning; forced plan modes
    /// are layered on per case by [`run_case`]).
    pub fn matrix() -> Vec<EngineConfig> {
        [false, true]
            .map(|uniform_stats| EngineConfig {
                uniform_stats,
                plan_mode: PlanMode::CostBased,
            })
            .to_vec()
    }

    /// This configuration with its planner forced to `mode`.
    pub fn with_mode(mut self, mode: PlanMode) -> EngineConfig {
        self.plan_mode = mode;
        self
    }

    /// Compact label for reports, e.g. `stats- wco!`.
    pub fn label(&self) -> String {
        let mode = match self.plan_mode {
            PlanMode::CostBased => "",
            PlanMode::ForceBinary => " binary!",
            PlanMode::ForceWco => " wco!",
        };
        format!("stats{}{mode}", if self.uniform_stats { "-" } else { "+" })
    }
}

/// One generated conformance case.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// The data graph.
    pub graph: GraphSpec,
    /// The query.
    pub query: QuerySpec,
    /// Vertex/edge morphism semantics for this case.
    pub matching: MatchingConfig,
    /// Run against the label-indexed graph representation.
    pub indexed: bool,
    /// Simulated worker count.
    pub workers: usize,
}

/// The four morphism combinations (paper Definition 2.4).
pub const MORPHISMS: [MatchingConfig; 4] = [
    MatchingConfig {
        vertices: MorphismType::Homomorphism,
        edges: MorphismType::Homomorphism,
    },
    MatchingConfig {
        vertices: MorphismType::Homomorphism,
        edges: MorphismType::Isomorphism,
    },
    MatchingConfig {
        vertices: MorphismType::Isomorphism,
        edges: MorphismType::Homomorphism,
    },
    MatchingConfig {
        vertices: MorphismType::Isomorphism,
        edges: MorphismType::Isomorphism,
    },
];

/// Draws a complete random case.
pub fn random_case(rng: &mut Rng) -> CaseSpec {
    CaseSpec {
        graph: super::gen::random_graph(rng),
        query: super::gen::random_query(rng),
        matching: MORPHISMS[rng.below(MORPHISMS.len())],
        indexed: rng.chance(50),
        workers: 1 + rng.below(3),
    }
}

/// A confirmed engine-vs-reference divergence on one configuration.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The engine configuration that diverged.
    pub config: EngineConfig,
    /// The query text that diverged.
    pub query_text: String,
    /// The engine's answer (or the classified error it returned).
    pub engine: Result<Answer, String>,
    /// The reference's answer.
    pub reference: Answer,
}

/// Outcome of running one case through the full matrix.
#[derive(Debug)]
pub enum CaseOutcome {
    /// All configurations agreed with the reference.
    Passed {
        /// Engine executions performed (one per matrix point).
        executions: usize,
        /// Matches the reference found.
        reference_matches: usize,
    },
    /// The query was rejected at parse or query-graph construction — a
    /// generator artifact (e.g. an inverted range), not a conformance
    /// verdict. Counted separately so reports surface generator drift.
    Rejected {
        /// The rejection message.
        reason: String,
    },
    /// At least one configuration diverged from the reference.
    Mismatch(Box<Mismatch>),
}

fn free_env(workers: usize) -> ExecutionEnvironment {
    ExecutionEnvironment::new(ExecutionConfig::with_workers(workers).cost_model(CostModel::free()))
}

fn canonical_entry(entry: &Entry) -> String {
    match entry {
        Entry::Id(id) => format!("#{id}"),
        Entry::Path(ids) => format!("{ids:?}"),
    }
}

fn canonicalize(result: &QueryResult) -> Result<Vec<Canonical>, String> {
    let variables: Vec<String> = result.query.variables().map(str::to_string).collect();
    let mut out = Vec::new();
    for embedding in result.embeddings.collect().iter() {
        let mut row = Canonical::new();
        for variable in &variables {
            let column = result
                .meta
                .column(variable)
                .ok_or_else(|| format!("variable `{variable}` unbound in engine result"))?;
            row.insert(variable.clone(), canonical_entry(&embedding.entry(column)));
        }
        out.push(row);
    }
    out.sort();
    Ok(out)
}

/// Reference (ground-truth) rows for `case`, canonicalized. Returns `Err`
/// with the rejection message when the query does not build.
pub fn reference_rows(case: &CaseSpec, query: &QueryGraph) -> Vec<Canonical> {
    let env = free_env(case.workers);
    let graph = case.graph.build(&env);
    let mut out: Vec<Canonical> = reference_match(&graph, query, &case.matching)
        .iter()
        .map(|m| {
            m.iter()
                .map(|(variable, entry)| (variable.clone(), canonical_entry(entry)))
                .collect()
        })
        .collect();
    out.sort();
    out
}

/// The data graph of `case` on a fresh environment, and an engine over it
/// that plans the way `config` says.
fn engine_for(case: &CaseSpec, config: &EngineConfig) -> (LogicalGraph, CypherEngine) {
    let graph = case.graph.build(&free_env(case.workers));
    let statistics = GraphStatistics::of(&graph);
    let statistics = if config.uniform_stats {
        uniform_statistics(&statistics)
    } else {
        statistics
    };
    let engine = CypherEngine::with_statistics(statistics).with_plan_mode(config.plan_mode);
    (graph, engine)
}

/// Runs `case` under one engine configuration and returns its sorted
/// canonical matches (or the error the engine classified).
pub fn engine_rows(
    case: &CaseSpec,
    query_text: &str,
    config: &EngineConfig,
) -> Result<Answer, String> {
    let (graph, engine) = engine_for(case, config);
    let result = if case.indexed {
        engine.execute(
            &graph.to_indexed(),
            query_text,
            &HashMap::new(),
            case.matching,
        )
    } else {
        engine.execute(&graph, query_text, &HashMap::new(), case.matching)
    };
    match result {
        Ok(result) => canonicalize(&result).map(Answer::Matches),
        Err(error) => Err(error.to_string()),
    }
}

/// A pipeline table as the runner compares it.
fn table_answer(table: TableResult) -> Answer {
    let mut rows: Vec<RowKey> = table.rows.into_iter().map(RowKey).collect();
    if !table.ordered {
        rows.sort();
    }
    Answer::Table {
        columns: table.columns,
        ordered: table.ordered,
        rows,
    }
}

/// Reference (ground-truth) table for a pipeline case, plus its row count.
/// `Err` carries the reference's rejection message.
fn pipeline_reference(case: &CaseSpec, pipeline: &Pipeline) -> Result<(Answer, usize), String> {
    let env = free_env(case.workers);
    let graph = case.graph.build(&env);
    let table = reference_pipeline(&graph, pipeline, &case.matching)?;
    let matches = table.rows.len();
    Ok((table_answer(table), matches))
}

/// Whether the reference's `RETURN DISTINCT` removes at least one row of
/// `case`'s projection (counted before any `SKIP`/`LIMIT`): a case on which
/// an engine that skipped `DISTINCT` would disagree with the reference.
pub(super) fn distinct_removes_rows(case: &CaseSpec) -> bool {
    let Ok(mut pipeline) = parse_pipeline(&case.query.render()) else {
        return false;
    };
    if !pipeline.ret.distinct {
        return false;
    }
    pipeline.ret.distinct = false;
    pipeline.ret.skip = None;
    pipeline.ret.limit = None;
    let graph = case.graph.build(&free_env(case.workers));
    let Ok(table) = reference_pipeline(&graph, &pipeline, &case.matching) else {
        return false;
    };
    let mut rows: Vec<RowKey> = table.rows.into_iter().map(RowKey).collect();
    let projected = rows.len();
    rows.sort();
    rows.dedup();
    rows.len() < projected
}

/// Runs a pipeline case (one with a tail) under one engine configuration
/// through `CypherEngine::run`.
pub fn pipeline_engine_rows(
    case: &CaseSpec,
    query_text: &str,
    config: &EngineConfig,
) -> Result<Answer, String> {
    let (graph, engine) = engine_for(case, config);
    let result = if case.indexed {
        engine.run(
            &graph.to_indexed(),
            query_text,
            &HashMap::new(),
            case.matching,
        )
    } else {
        engine.run(&graph, query_text, &HashMap::new(), case.matching)
    };
    match result {
        Ok(table) => Ok(table_answer(table)),
        Err(error) => Err(error.to_string()),
    }
}

/// Runs `engine` on every matrix point against `reference`, stopping at the
/// first diverging configuration. Cyclic patterns are where
/// worst-case-optimal and binary plans genuinely differ, so cyclic cases —
/// with or without a pipeline tail — additionally sweep both forced planner
/// modes: every matrix point must agree with the reference under whichever
/// plan shape the mode selects.
fn sweep(
    case: &CaseSpec,
    query_text: String,
    reference: Answer,
    reference_matches: usize,
    engine: fn(&CaseSpec, &str, &EngineConfig) -> Result<Answer, String>,
) -> CaseOutcome {
    let modes: &[PlanMode] = if case.query.is_cyclic() {
        &[
            PlanMode::CostBased,
            PlanMode::ForceBinary,
            PlanMode::ForceWco,
        ]
    } else {
        &[PlanMode::CostBased]
    };
    let mut executions = 0;
    for config in EngineConfig::matrix() {
        for &mode in modes {
            let config = config.with_mode(mode);
            executions += 1;
            let engine = engine(case, &query_text, &config);
            if engine.as_ref().ok() != Some(&reference) {
                return CaseOutcome::Mismatch(Box::new(Mismatch {
                    config,
                    query_text,
                    engine,
                    reference,
                }));
            }
        }
    }
    CaseOutcome::Passed {
        executions,
        reference_matches,
    }
}

/// Runs `case` through the full configuration matrix against the
/// reference: a tail-bearing case compares the engine's `run` table with
/// the reference pipeline interpreter's, a plain one its embeddings with
/// the reference matcher's.
pub fn run_case(case: &CaseSpec) -> CaseOutcome {
    let query_text = case.query.render();
    if case.query.tail.is_some() {
        let pipeline = match parse_pipeline(&query_text) {
            Ok(pipeline) => pipeline,
            Err(error) => {
                return CaseOutcome::Rejected {
                    reason: error.to_string(),
                }
            }
        };
        return match pipeline_reference(case, &pipeline) {
            Ok((reference, matches)) => {
                sweep(case, query_text, reference, matches, pipeline_engine_rows)
            }
            Err(reason) => CaseOutcome::Rejected { reason },
        };
    }
    let query = match parse(&query_text)
        .map_err(|e| e.to_string())
        .and_then(|ast| QueryGraph::from_query(&ast).map_err(|e| e.to_string()))
    {
        Ok(query) => query,
        Err(reason) => return CaseOutcome::Rejected { reason },
    };
    let reference = reference_rows(case, &query);
    let matches = reference.len();
    sweep(
        case,
        query_text,
        Answer::Matches(reference),
        matches,
        engine_rows,
    )
}

/// Re-checks whether `case` still diverges under `config` (the shrinker's
/// probe): `Some` with the fresh divergence when it does.
pub fn still_fails(case: &CaseSpec, config: &EngineConfig) -> Option<Mismatch> {
    let query_text = case.query.render();
    if case.query.tail.is_some() {
        let pipeline = parse_pipeline(&query_text).ok()?;
        let (reference, _) = pipeline_reference(case, &pipeline).ok()?;
        let engine = pipeline_engine_rows(case, &query_text, config);
        if engine.as_ref().ok() != Some(&reference) {
            return Some(Mismatch {
                config: *config,
                query_text,
                engine,
                reference,
            });
        }
        return None;
    }
    let query = QueryGraph::from_query(&parse(&query_text).ok()?).ok()?;
    let reference = Answer::Matches(reference_rows(case, &query));
    let engine = engine_rows(case, &query_text, config);
    if engine.as_ref().ok() != Some(&reference) {
        Some(Mismatch {
            config: *config,
            query_text,
            engine,
            reference,
        })
    } else {
        None
    }
}
