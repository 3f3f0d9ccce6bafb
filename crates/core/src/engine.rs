//! The engine entry point: parse → simplify → plan → execute, exactly the
//! pipeline of paper Section 3.
//!
//! There is one execution path. Every run is lexed once (shape and parser
//! read the same tokens), parsed once by the one grammar, planned once (or
//! answered from the plan cache) and executed by the
//! one plan walker ([`execute_plan`](crate::execute_plan)) with per-operator
//! counters on; [`CypherEngine::execute`], [`CypherEngine::run`],
//! [`CypherEngine::profile`] and the query log are views over that run, and
//! [`CypherEngine::explain`] is the same front half without the execution.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use gradoop_cypher::ast::{Pipeline, Projection, ProjectionExpr, Query, Stage};
use gradoop_cypher::lexer::lex_shape;
use gradoop_cypher::{parse_tokens, Literal, ParseError, QueryGraph, QueryGraphError};
use gradoop_dataflow::{CollectingSink, ExecutionFailure, ExecutionMetrics};
use gradoop_epgm::{GraphCollection, GraphStatistics, LogicalGraph};

use crate::matching::MatchingConfig;
use crate::observe::{q_error, Explain, ExplainNode, PlannerTrace, Profile, ProfileNode};
use crate::pipeline::{execute_match, execute_pipeline};
use crate::plancache::PlanCache;
use crate::planner::{plan_query_with_mode, Estimator, PlanError, PlanMode, QueryPlan};
use crate::querylog::{
    operators_from_profile, stable_digest, QueryLogRecord, QueryLogSink, QueryOutcome, TeeSink,
};
use crate::result::{QueryResult, TableResult};
use crate::source::GraphSource;

/// Any failure of a Cypher execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CypherError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// The query is structurally invalid.
    QueryGraph(QueryGraphError),
    /// Planning failed.
    Plan(PlanError),
    /// Execution failed at runtime: a dataflow stage or bulk iteration
    /// exhausted its retry budget (or a worker died without fault
    /// tolerance headroom). The computed datasets are discarded — a failed
    /// query never returns a partial result set.
    Execution(ExecutionFailure),
}

impl std::fmt::Display for CypherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CypherError::Parse(e) => write!(f, "{e}"),
            CypherError::QueryGraph(e) => write!(f, "{e}"),
            CypherError::Plan(e) => write!(f, "{e}"),
            CypherError::Execution(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CypherError {}

impl From<ParseError> for CypherError {
    fn from(e: ParseError) -> Self {
        CypherError::Parse(e)
    }
}
impl From<QueryGraphError> for CypherError {
    fn from(e: QueryGraphError) -> Self {
        CypherError::QueryGraph(e)
    }
}
impl From<PlanError> for CypherError {
    fn from(e: PlanError) -> Self {
        CypherError::Plan(e)
    }
}
impl From<ExecutionFailure> for CypherError {
    fn from(e: ExecutionFailure) -> Self {
        CypherError::Execution(e)
    }
}

/// The Cypher query engine. Holds the graph statistics used by the greedy
/// planner; create it once per data graph and reuse it across queries.
///
/// With a query log installed ([`with_query_log`](CypherEngine::with_query_log)),
/// every run — successful or not — appends one [`QueryLogRecord`] to it.
#[derive(Clone)]
pub struct CypherEngine {
    statistics: GraphStatistics,
    query_log: Option<Arc<dyn QueryLogSink>>,
    plan_mode: PlanMode,
    plan_cache: Option<Arc<PlanCache>>,
}

impl std::fmt::Debug for CypherEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CypherEngine")
            .field("statistics", &self.statistics)
            .finish_non_exhaustive()
    }
}

impl CypherEngine {
    /// Creates an engine with pre-computed statistics.
    pub fn with_statistics(statistics: GraphStatistics) -> Self {
        CypherEngine {
            statistics,
            query_log: None,
            plan_mode: PlanMode::CostBased,
            plan_cache: None,
        }
    }

    /// Overrides how the planner treats worst-case-optimal intersection
    /// candidates for cyclic patterns: cost-based (default), never
    /// (`ForceBinary`) or whenever eligible (`ForceWco`). Used by the
    /// conformance harness to sweep all strategies over the same queries.
    pub fn with_plan_mode(mut self, mode: PlanMode) -> Self {
        self.plan_mode = mode;
        self
    }

    /// Installs the query log sink every run appends its record to — e.g.
    /// a [`MemoryQueryLog`](crate::querylog::MemoryQueryLog) or a
    /// [`JsonlQueryLog`](crate::querylog::JsonlQueryLog) file sink.
    pub fn with_query_log(mut self, sink: Arc<dyn QueryLogSink>) -> Self {
        self.query_log = Some(sink);
        self
    }

    /// Installs a shared [`PlanCache`]: every `MATCH` is then answered from
    /// the cache when its text's *shape* repeats instead of being
    /// re-planned, re-binding each execution's literals and `$param` values
    /// through its freshly built query graph — stage `i` of every text under
    /// the shape, a newline and `i` (a plain `MATCH … RETURN` is stage 0).
    /// Cached plans are cost-based against this engine's statistics — share
    /// one cache only between engines over the same data graph.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// The installed plan cache, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// Creates an engine, computing statistics from the data graph.
    pub fn for_graph(graph: &LogicalGraph) -> Self {
        CypherEngine::with_statistics(GraphStatistics::of(graph))
    }

    /// The engine's statistics.
    pub fn statistics(&self) -> &GraphStatistics {
        &self.statistics
    }

    /// Plans one `MATCH` — stage `index` of a text — through the installed
    /// [`PlanCache`] (when any), under the text's `shape`, a newline and
    /// `index`, plus the plan mode; no key is built without a cache. The
    /// query graph is always rebuilt from this call's own parameters, so a
    /// cached plan's index-based operators resolve against the caller's
    /// literal bindings and its labels read them. A hit shares the cached
    /// plan. Returns `Some("hit")`/`Some("miss")` for the query log when a
    /// cache is installed, `None` otherwise.
    fn plan_match(
        &self,
        ast: &Query,
        shape: &str,
        index: usize,
        params: &HashMap<String, Literal>,
    ) -> Result<(QueryGraph, Arc<QueryPlan>, Option<&'static str>), CypherError> {
        let query = QueryGraph::from_query_with_params(ast, params)?;
        let cached = self
            .plan_cache
            .as_ref()
            .map(|cache| (cache, format!("{shape}\n{index}")));
        if let Some((cache, key)) = &cached {
            if let Some(plan) = cache.lookup(key, self.plan_mode, &query) {
                return Ok((query, plan, Some("hit")));
            }
        }
        let plan = plan_query_with_mode(&query, &Estimator::new(&self.statistics), self.plan_mode)
            .map(Arc::new)?;
        let event = cached.map(|(cache, key)| {
            cache.insert(key, self.plan_mode, &query, plan.clone());
            "miss"
        });
        Ok((query, plan, event))
    }

    /// Plans a parsed text: one greedy plan per `MATCH` / `OPTIONAL MATCH`
    /// stage, made once, through the plan cache, and handed to the run body.
    /// A plain `MATCH … RETURN` ([`Pipeline::as_simple`]) is the one-stage
    /// case: its stage plans the whole lowered query (`WHERE` and return
    /// items included) and its EXPLAIN tree is that plan's. Every other
    /// stage plans its patterns alone ([`MatchStage::as_query`]) under
    /// openCypher's per-`MATCH` uniqueness scope, and the text's EXPLAIN
    /// tree is a `pipeline` root with one child per clause. With
    /// `plain_only` a clause pipeline is refused before any stage is planned.
    ///
    /// [`MatchStage::as_query`]: gradoop_cypher::ast::MatchStage::as_query
    fn plan_text(
        &self,
        pipeline: Pipeline,
        shape: &str,
        params: &HashMap<String, Literal>,
        plain_only: bool,
    ) -> Result<Planned, CypherError> {
        let simple = pipeline.as_simple();
        if plain_only && simple.is_none() {
            return Err(clause_pipeline_error());
        }
        let mut stages = Vec::new();
        // `"hit"` only when every stage hit.
        let mut cache = None;
        for (index, stage) in pipeline.stages.iter().enumerate() {
            if let Stage::Match(inner) | Stage::OptionalMatch(inner) = stage {
                let stage_query;
                let ast = match &simple {
                    Some(query) => query,
                    None => {
                        stage_query = inner.as_query();
                        &stage_query
                    }
                };
                let (query, plan, event) = self.plan_match(ast, shape, index, params)?;
                if cache != Some("miss") {
                    cache = event;
                }
                stages.push((query, plan));
            }
        }
        Ok(Planned {
            simple: simple.is_some(),
            pipeline,
            stages,
            cache,
        })
    }

    /// Parses, plans and executes `query_text` — a single plain
    /// `MATCH … RETURN` — against `source`, returning the matched
    /// embeddings. A clause pipeline (`RETURN DISTINCT` included) is a
    /// classified error that names [`run`](CypherEngine::run).
    pub fn execute<S: GraphSource + ?Sized>(
        &self,
        source: &S,
        query_text: &str,
        params: &HashMap<String, Literal>,
        matching: MatchingConfig,
    ) -> Result<QueryResult, CypherError> {
        match self.observed(source, query_text, params, &matching, true)? {
            (Output::Embeddings(result), _) => Ok(*result),
            // `plain_only` lets no clause pipeline get this far.
            (Output::Table(_), _) => Err(clause_pipeline_error()),
        }
    }

    /// EXPLAIN: plans `query_text` without executing it and returns the
    /// annotated plan tree (per-operator estimated cardinalities, predicted
    /// join strategies) together with the greedy planner's decision log.
    pub fn explain(&self, query_text: &str) -> Result<Explain, CypherError> {
        self.explain_with_params(query_text, &HashMap::new())
    }

    /// [`explain`](CypherEngine::explain) with query parameters.
    pub fn explain_with_params(
        &self,
        query_text: &str,
        params: &HashMap<String, Literal>,
    ) -> Result<Explain, CypherError> {
        let (shape, parsed) = read_query(query_text);
        let planned = self.plan_text(parsed?, &shape, params, false)?;
        let root = planned.explain();
        let planner = match planned.simple {
            true => planned.stages[0].1.planner.clone(),
            false => PlannerTrace::default(),
        };
        Ok(Explain {
            query: query_text.to_string(),
            estimated_cardinality: root.estimated_cardinality,
            root,
            planner,
        })
    }

    /// PROFILE: plans and executes `query_text`, returning the plan tree
    /// annotated with actual per-operator cardinalities, selectivities,
    /// simulated/wall-clock times and estimate-vs-actual errors — the tree
    /// every run builds, handed out instead of the result. A pipeline's
    /// tree has one operator subtree per `MATCH` stage and one leaf per
    /// remaining dataflow stage under a `pipeline` root, so top-k vs
    /// full-sort choices, outer-join padding counts and group-reduce sizes
    /// are all visible post-hoc.
    pub fn profile<S: GraphSource + ?Sized>(
        &self,
        source: &S,
        query_text: &str,
        params: &HashMap<String, Literal>,
        matching: MatchingConfig,
    ) -> Result<Profile, CypherError> {
        let (_, profile) = self.observed(source, query_text, params, &matching, false)?;
        Ok(profile)
    }

    /// Runs the full read-only clause surface — `MATCH`, `OPTIONAL MATCH`,
    /// `WITH`, `UNWIND`, aggregation, `DISTINCT`, `ORDER BY`/`SKIP`/`LIMIT`
    /// — and returns a tabular [`TableResult`]: a plain `MATCH … RETURN`
    /// answers with [`QueryResult::rows`], any other text with the clause
    /// table.
    pub fn run<S: GraphSource + ?Sized>(
        &self,
        source: &S,
        query_text: &str,
        params: &HashMap<String, Literal>,
        matching: MatchingConfig,
    ) -> Result<TableResult, CypherError> {
        match self.observed(source, query_text, params, &matching, false)? {
            (Output::Embeddings(result), _) => result.rows(),
            (Output::Table(table), _) => Ok(table),
        }
    }

    /// The one observed run behind [`execute`](CypherEngine::execute),
    /// [`run`](CypherEngine::run) and [`profile`](CypherEngine::profile):
    /// reads the text once (shape and AST), plans it (refusing a clause
    /// pipeline with `plain_only`), executes the plan with a per-query
    /// collector teed in front of the caller's trace sink, classifies the
    /// outcome, builds the [`Profile`] and, with a query log installed,
    /// appends exactly one [`QueryLogRecord`] — successful or not.
    fn observed<S: GraphSource + ?Sized>(
        &self,
        source: &S,
        query_text: &str,
        params: &HashMap<String, Literal>,
        matching: &MatchingConfig,
        plain_only: bool,
    ) -> Result<(Output, Profile), CypherError> {
        let started = Instant::now();
        let (shape, parsed) = read_query(query_text);
        let env = source.env();
        let mut plan_digest = String::new();
        let mut plan_cache = None;
        let mut metrics = ExecutionMetrics::default();
        let planned =
            parsed.and_then(|pipeline| self.plan_text(pipeline, &shape, params, plain_only));
        let ran = planned.and_then(|planned| {
            if self.query_log.is_some() {
                plan_digest = stable_digest(&planned.explain().to_text());
            }
            plan_cache = planned.cache;
            // Tee stages and spans into a per-query collector — the plan
            // walker attributes them to operators — without clobbering a
            // caller-installed sink (a Chrome-trace export, the server's
            // deadline sink). The tee folds the run's totals.
            let collector = Arc::new(CollectingSink::new());
            let downstream = env.trace_sink();
            let tee = Arc::new(TeeSink::new(downstream.clone(), collector.clone()));
            env.set_trace_sink(Some(tee.clone()));
            // Drop any stale poison from a previous failed run on this
            // environment, so this execution is judged on its own faults.
            let _ = env.take_execution_failure();
            let ran = run_planned(source, planned, params, matching, &collector);
            env.set_trace_sink(downstream);
            metrics = tee.metrics();
            // A failure recorded while the body ran (exhausted retries, a
            // tripped deadline, a malformed plan) outranks its result: the
            // computed datasets are discarded.
            match env.take_execution_failure() {
                Some(failure) => Err(CypherError::Execution(failure)),
                None => ran,
            }
        });
        let wall_seconds = started.elapsed().as_secs_f64();
        let outcome = ran.map(|mut ran| {
            if let Output::Table(_) = ran.output {
                // The `pipeline` root carries the run's totals.
                ran.root.wall_seconds = wall_seconds;
                ran.root.metrics = metrics;
            }
            let profile = Profile {
                query: query_text.to_string(),
                root: ran.root,
                plan: ran.plan,
                matches: ran.matches,
                wall_seconds,
                metrics,
            };
            (ran.output, profile)
        });
        if let Some(log) = &self.query_log {
            let (operators, max_q_error) = match &outcome {
                Ok((_, profile)) => operators_from_profile(&profile.root),
                Err(_) => (Vec::new(), 1.0),
            };
            log.log(&QueryLogRecord {
                query: query_text.to_string(),
                fingerprint: stable_digest(&shape),
                shape,
                plan_digest,
                plan_cache,
                outcome: match &outcome {
                    Ok(_) => QueryOutcome::Ok,
                    Err(CypherError::Execution(_)) => QueryOutcome::Faulted,
                    Err(_) => QueryOutcome::Error,
                },
                error: outcome.as_ref().err().map(|error| error.to_string()),
                matches: outcome.as_ref().map_or(0, |(_, profile)| profile.matches),
                wall_seconds,
                simulated_seconds: metrics.simulated_seconds,
                operators,
                max_q_error,
                recovery_attempts: metrics.recovery_attempts,
                peak_memory_bytes: if outcome.is_ok() {
                    metrics.peak_memory_bytes
                } else {
                    0
                },
            });
        }
        outcome
    }
}

/// The engine's one read of a query text: lexes it once, takes the shape
/// from those tokens (any text has one, for its query-log record) and
/// parses the same tokens with the one grammar.
fn read_query(query_text: &str) -> (String, Result<Pipeline, CypherError>) {
    let (shape, tokens) = lex_shape(query_text);
    let parsed = tokens.and_then(parse_tokens).map_err(CypherError::Parse);
    (shape, parsed)
}

fn clause_pipeline_error() -> CypherError {
    CypherError::QueryGraph(QueryGraphError(
        "the text is a clause pipeline (several reading clauses, RETURN DISTINCT, \
         ORDER BY / SKIP / LIMIT, aggregates or aliased variables in RETURN), not a single \
         `MATCH … RETURN` with one query graph and embeddings for a result: use \
         `CypherEngine::run`"
            .to_string(),
    ))
}

/// A parsed and planned text — what `explain` renders and what one observed
/// run executes. Every text is a clause pipeline; a plain `MATCH … RETURN`
/// is the one-stage case.
struct Planned {
    pipeline: Pipeline,
    /// The query graph and plan of every `MATCH`/`OPTIONAL MATCH` stage, in
    /// stage order.
    stages: Vec<(QueryGraph, Arc<QueryPlan>)>,
    /// A plain `MATCH … RETURN`, whose EXPLAIN tree is its one plan's; any
    /// other text's is a `pipeline` root over its clauses.
    simple: bool,
    /// The plan-cache event: `"hit"` when every stage hit, `"miss"`
    /// otherwise; `None` without a cache or without a `MATCH`.
    cache: Option<&'static str>,
}

impl Planned {
    /// The EXPLAIN tree (what EXPLAIN prints and the plan digest hashes),
    /// labelled against this run's query graphs. Built only when read.
    fn explain(&self) -> ExplainNode {
        match self.simple {
            true => self.stages[0].1.root.explain(&self.stages[0].0),
            false => pipeline_explain(&self.pipeline, &self.stages),
        }
    }
}

/// The result of a run: a plain text's embeddings or a clause table.
enum Output {
    Embeddings(Box<QueryResult>),
    Table(TableResult),
}

/// What the run body hands back to [`CypherEngine::observed`].
struct Ran {
    output: Output,
    root: ProfileNode,
    /// A plain text's plan, whose decision log PROFILE shows.
    plan: Option<Arc<QueryPlan>>,
    matches: u64,
}

/// The one run body: every `MATCH` runs through [`execute_match`]. A plain
/// text answers with its one walk's embeddings and operator tree; any other
/// text with the clause table under a `pipeline` profile root, whose run
/// totals [`CypherEngine::observed`] fills in.
fn run_planned<S: GraphSource + ?Sized>(
    source: &S,
    planned: Planned,
    params: &HashMap<String, Literal>,
    matching: &MatchingConfig,
    collector: &CollectingSink,
) -> Result<Ran, CypherError> {
    if planned.simple {
        let (query, plan) = planned
            .stages
            .into_iter()
            .next()
            .expect("a plain text has one MATCH");
        let (set, root) = execute_match(&query, &plan, source, matching, collector)?;
        return Ok(Ran {
            root,
            plan: Some(plan.clone()),
            matches: set.data.len_untracked() as u64,
            output: Output::Embeddings(Box::new(QueryResult {
                embeddings: set.data,
                meta: set.meta,
                query,
                plan,
            })),
        });
    }
    let estimated = clause_estimates(&planned.pipeline, &planned.stages)
        .last()
        .expect("RETURN's estimate");
    let mut children = Vec::new();
    let table = execute_pipeline(
        &planned.pipeline,
        &planned.stages,
        params,
        source,
        matching,
        collector,
        &mut children,
    )?;
    let matches = table.rows.len() as u64;
    let root = ProfileNode {
        operator: "pipeline".to_string(),
        estimated_cardinality: estimated,
        rows_in: children.first().map_or(0, |child| child.rows_in),
        rows_out: matches,
        selectivity: 1.0,
        estimate_error: q_error(estimated, matches),
        children,
        ..ProfileNode::default()
    };
    Ok(Ran {
        output: Output::Table(table),
        root,
        plan: None,
        matches,
    })
}

/// The EXPLAIN tree of a clause pipeline: one child per clause under a
/// `pipeline` root — each `MATCH` stage's plan, projection stages listing
/// their steps, a `LIMIT`-bearing sort shown as
/// `order_by(top-k skip=.. limit=..)` and an unbounded one as
/// `order_by(full-sort)` — estimated by [`clause_estimates`].
fn pipeline_explain(pipeline: &Pipeline, stages: &[(QueryGraph, Arc<QueryPlan>)]) -> ExplainNode {
    let mut estimates = clause_estimates(pipeline, stages);
    let mut plans = stages.iter();
    let mut children: Vec<ExplainNode> = (pipeline.stages.iter().zip(&mut estimates))
        .map(|(stage, estimated)| match stage {
            Stage::Match(_) | Stage::OptionalMatch(_) => {
                let (query, plan) = plans.next().expect("one plan per MATCH stage");
                let operator = match stage {
                    Stage::OptionalMatch(_) => "optional_match(left-outer-join)",
                    _ => "match(join)",
                };
                ExplainNode::inner(operator, estimated, vec![plan.root.explain(query)])
            }
            Stage::With(projection) => projection_explain("with", projection, estimated),
            Stage::Unwind(u) => ExplainNode::leaf(format!("unwind({})", u.alias), estimated),
        })
        .collect();
    let estimated = estimates.next().expect("RETURN's estimate");
    children.push(projection_explain("return", &pipeline.ret, estimated));
    ExplainNode::inner("pipeline", estimated, children)
}

/// The estimated rows out of each clause of `pipeline` in turn, the
/// `RETURN`'s last (the `pipeline` root's): a `MATCH` multiplies its plan's
/// estimate in, `UNWIND` keeps the count, and a `WITH`/`RETURN`'s
/// aggregation collapses it toward the group count (modeled as a square
/// root) and its `LIMIT` caps it outright.
fn clause_estimates<'a>(
    pipeline: &'a Pipeline,
    stages: &'a [(QueryGraph, Arc<QueryPlan>)],
) -> impl Iterator<Item = f64> + 'a {
    let mut plans = stages.iter();
    let clauses = pipeline.stages.iter().map(Some).chain([None]);
    clauses.scan(1.0f64, move |estimated, stage| {
        let projection = match stage {
            Some(Stage::Match(_) | Stage::OptionalMatch(_)) => {
                let (_, plan) = plans.next().expect("one plan per MATCH stage");
                *estimated = (*estimated * plan.root.estimated_cardinality).max(1.0);
                return Some(*estimated);
            }
            Some(Stage::Unwind(_)) => return Some(*estimated),
            Some(Stage::With(projection)) => projection,
            None => &pipeline.ret,
        };
        if aggregates(projection) {
            *estimated = estimated.sqrt();
        }
        let limit = projection.limit.map_or(f64::INFINITY, |limit| limit as f64);
        *estimated = estimated.min(limit).max(1.0);
        Some(*estimated)
    })
}

fn aggregates(projection: &Projection) -> bool {
    (projection.items.iter()).any(|i| matches!(i.expr, ProjectionExpr::Aggregate(_)))
}

/// EXPLAIN node for a `WITH`/`RETURN` stage of `estimated` rows out, one
/// step leaf per applied sub-operation in evaluation order.
fn projection_explain(name: &str, projection: &Projection, estimated: f64) -> ExplainNode {
    let mut steps: Vec<ExplainNode> = Vec::new();
    if aggregates(projection) {
        steps.push(ExplainNode::leaf("aggregate(group_reduce)", estimated));
    }
    if projection.distinct {
        steps.push(ExplainNode::leaf("distinct(group_reduce)", estimated));
    }
    if !projection.order_by.is_empty() || projection.skip.is_some() || projection.limit.is_some() {
        let operator = match projection.limit {
            Some(limit) => format!(
                "order_by(top-k skip={} limit={limit})",
                projection.skip.unwrap_or(0)
            ),
            None => "order_by(full-sort)".to_string(),
        };
        steps.push(ExplainNode::leaf(operator, estimated));
    }
    if projection.where_clause.is_some() {
        steps.push(ExplainNode::leaf("filter(where)", estimated));
    }
    ExplainNode::inner(name, estimated, steps)
}

/// The EPGM pattern-matching operator (Definition 2.4): `g.cypher(q, ...)`.
///
/// Returns the collection of logical graphs matching the query, with
/// variable bindings attached as graph-head properties. This mirrors the
/// paper's Java API:
///
/// ```java
/// GraphCollection matches = g.cypher(q, HOMO, ISO);
/// ```
pub trait CypherOperator {
    /// Runs `query` with the given vertex/edge morphism semantics.
    fn cypher(&self, query: &str, matching: MatchingConfig)
        -> Result<GraphCollection, CypherError>;
}

impl CypherOperator for LogicalGraph {
    fn cypher(
        &self,
        query: &str,
        matching: MatchingConfig,
    ) -> Result<GraphCollection, CypherError> {
        let engine = CypherEngine::for_graph(self);
        let result = engine.execute(self, query, &HashMap::new(), matching)?;
        result.to_graph_collection(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_pipeline;
    use crate::values::Value;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
    use gradoop_epgm::{properties, Edge, GradoopId, GraphHead, Properties, Vertex};

    fn sample_graph() -> LogicalGraph {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let vertices = vec![
            Vertex::new(GradoopId(10), "Person", properties! {"name" => "Alice"}),
            Vertex::new(GradoopId(20), "Person", properties! {"name" => "Eve"}),
            Vertex::new(
                GradoopId(40),
                "University",
                properties! {"name" => "Uni Leipzig"},
            ),
        ];
        let edges = vec![
            Edge::new(
                GradoopId(3),
                "studyAt",
                GradoopId(10),
                GradoopId(40),
                properties! {"classYear" => 2015i64},
            ),
            Edge::new(
                GradoopId(4),
                "studyAt",
                GradoopId(20),
                GradoopId(40),
                properties! {"classYear" => 2016i64},
            ),
            Edge::new(
                GradoopId(5),
                "knows",
                GradoopId(10),
                GradoopId(20),
                Properties::new(),
            ),
        ];
        LogicalGraph::from_data(
            &env,
            GraphHead::new(GradoopId(100), "Community", Properties::new()),
            vertices,
            edges,
        )
    }

    #[test]
    fn end_to_end_table_2a() {
        // The query of paper Table 2a.
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let result = engine
            .execute(
                &graph,
                "MATCH (p1:Person)-[s:studyAt]->(u:University) \
                 WHERE s.classYear > 2014 RETURN p1.name, u.name",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(result.count(), 2);
        let table = result.rows().expect("rows");
        assert_eq!(table.columns, vec!["p1.name", "u.name"]);
        let mut names: Vec<String> = table
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Str(s) => s.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        names.sort();
        assert_eq!(names, vec!["Alice", "Eve"]);
    }

    /// One record per call, whichever view made it and however it ended:
    /// {`execute`, `run`, `profile`} × {ok, plan error, faulted} ×
    /// {simple, pipeline}, each with the right outcome and cache event.
    #[test]
    fn every_run_lands_in_the_query_log() {
        use crate::querylog::MemoryQueryLog;
        use gradoop_dataflow::{FailureSchedule, FaultConfig};

        const SIMPLE: &str = "MATCH (p:Person {name: $who})-[s:studyAt]->(u:University) \
                              RETURN p.name";
        const PIPELINE: &str = "MATCH (p:Person {name: $who})-[s:studyAt]->(u:University) \
                                WITH u, count(*) AS n RETURN u.name, n";
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Scenario {
            Ok,
            PlanError,
            Faulted,
        }

        let graph = sample_graph();
        let log = Arc::new(MemoryQueryLog::new());
        let engine = CypherEngine::for_graph(&graph)
            .with_query_log(log.clone())
            .with_plan_cache(Arc::new(PlanCache::default()));
        let matching = MatchingConfig::cypher_default();
        let bound = HashMap::from([("who".to_string(), Literal::String("Alice".to_string()))]);
        let unbound = HashMap::new();
        type View<'a> = (
            &'a str,
            Box<dyn Fn(&str, &HashMap<String, Literal>) -> bool + 'a>,
        );
        let views: [View<'_>; 3] = [
            (
                "execute",
                Box::new(|text, params| engine.execute(&graph, text, params, matching).is_ok()),
            ),
            (
                "run",
                Box::new(|text, params| engine.run(&graph, text, params, matching).is_ok()),
            ),
            (
                "profile",
                Box::new(|text, params| engine.profile(&graph, text, params, matching).is_ok()),
            ),
        ];

        // Whether the simple text / the pipeline has been planned before:
        // its first plan misses, every later one hits — a pipeline's
        // `MATCH` stage is cached like a plain `MATCH`.
        let mut planned_before = [false; 2];
        for (view, call) in &views {
            for (text, is_pipeline) in [(SIMPLE, false), (PIPELINE, true)] {
                for scenario in [Scenario::Ok, Scenario::PlanError, Scenario::Faulted] {
                    let case = format!("{view} / pipeline={is_pipeline} / {scenario:?}");
                    // `execute` answers single-MATCH texts only: a clause
                    // pipeline is rejected before anything is planned.
                    let rejected = *view == "execute" && is_pipeline;
                    if scenario == Scenario::Faulted {
                        // Crash the very first stage with no retry headroom.
                        graph.env().install_faults(
                            FaultConfig::new(FailureSchedule::none().crash_at_stage(0, 0))
                                .max_attempts(1),
                        );
                    }
                    let params = if scenario == Scenario::PlanError {
                        &unbound
                    } else {
                        &bound
                    };
                    let before = log.len();
                    let succeeded = call(text, params);
                    graph.env().clear_faults();

                    let records = log.snapshot();
                    assert_eq!(records.len(), before + 1, "{case}: exactly one record");
                    let record = &records[before];
                    let expected = match scenario {
                        _ if rejected => QueryOutcome::Error,
                        Scenario::Ok => QueryOutcome::Ok,
                        Scenario::PlanError => QueryOutcome::Error,
                        Scenario::Faulted => QueryOutcome::Faulted,
                    };
                    assert_eq!(record.outcome, expected, "{case}");
                    assert_eq!(succeeded, expected == QueryOutcome::Ok, "{case}");
                    assert_eq!(record.error.is_none(), succeeded, "{case}");
                    assert_eq!(record.fingerprint.len(), 16, "{case}");
                    // A plan exists (and was looked up) unless the text or
                    // its parameters were rejected first.
                    let planned = !rejected && scenario != Scenario::PlanError;
                    assert_eq!(record.plan_digest.len(), if planned { 16 } else { 0 });
                    let seen = &mut planned_before[usize::from(is_pipeline)];
                    let cache_event = match (planned, *seen) {
                        (false, _) => None,
                        (true, false) => Some("miss"),
                        (true, true) => Some("hit"),
                    };
                    assert_eq!(record.plan_cache, cache_event, "{case}");
                    *seen |= planned;
                    if succeeded {
                        assert_eq!(record.matches, 1, "{case}");
                        assert!(record.operators.iter().any(|op| op.rows_out > 0));
                        assert!(record.max_q_error >= 1.0 && record.max_q_error.is_finite());
                    } else {
                        assert_eq!(record.matches, 0, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn plan_cache_hits_rebind_parameters_and_match_cold_results() {
        use crate::querylog::MemoryQueryLog;
        let graph = sample_graph();
        let log = Arc::new(MemoryQueryLog::new());
        let cache = Arc::new(PlanCache::default());
        let engine = CypherEngine::for_graph(&graph)
            .with_query_log(log.clone())
            .with_plan_cache(cache.clone());
        // A cache-less engine over the same graph provides the cold
        // reference results.
        let cold = CypherEngine::for_graph(&graph);

        let rows_of = |result: &QueryResult| {
            let table = result.rows().expect("rows");
            let mut rows: Vec<String> = table.rows.iter().map(|row| format!("{row:?}")).collect();
            rows.sort();
            (table.columns, rows)
        };

        let query = "MATCH (p:Person {name: $who})-[s:studyAt]->(u:University) \
                     WHERE s.classYear > $year RETURN p.name, u.name";
        let bind = |who: &str, year: i64| {
            HashMap::from([
                ("who".to_string(), Literal::String(who.to_string())),
                ("year".to_string(), Literal::Integer(year)),
            ])
        };

        // Cold: first execution plans and populates the cache.
        let first = engine
            .execute(
                &graph,
                query,
                &bind("Alice", 2014),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        // Hit: different parameter values, same shape — the cached plan
        // must re-bind and return exactly what a cold plan returns.
        let second = engine
            .execute(
                &graph,
                query,
                &bind("Eve", 2015),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        let reference = cold
            .execute(
                &graph,
                query,
                &bind("Eve", 2015),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(first.count(), 1);
        assert_eq!(second.count(), 1);
        assert_eq!(rows_of(&second), rows_of(&reference));
        assert_ne!(rows_of(&first), rows_of(&second), "params must re-bind");

        // An inline-literal spelling of the same shape also hits.
        let inline = engine
            .execute(
                &graph,
                "MATCH (p:Person {name: 'Eve'})-[s:studyAt]->(u:University) \
                 WHERE s.classYear > 2015 RETURN p.name, u.name",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(rows_of(&inline), rows_of(&reference));

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        let records = log.snapshot();
        assert_eq!(records[0].plan_cache, Some("miss"));
        assert_eq!(records[1].plan_cache, Some("hit"));
        assert_eq!(records[2].plan_cache, Some("hit"));
        assert_eq!(records[0].plan_digest, records[1].plan_digest);
    }

    #[test]
    fn pipeline_stage_plans_hit_the_cache_and_rebind_parameters() {
        use crate::querylog::MemoryQueryLog;
        const TEXT: &str = "MATCH (p:Person {name: $who}) \
                            OPTIONAL MATCH (p)-[k:knows]->(q:Person) RETURN p.name, q.name";
        let graph = sample_graph();
        let log = Arc::new(MemoryQueryLog::new());
        let cache = Arc::new(PlanCache::default());
        let engine = CypherEngine::for_graph(&graph)
            .with_query_log(log.clone())
            .with_plan_cache(cache.clone());
        let cold = CypherEngine::for_graph(&graph);
        let matching = MatchingConfig::cypher_default();
        let who = |name: &str| HashMap::from([("who".to_string(), Literal::String(name.into()))]);

        let first = engine.run(&graph, TEXT, &who("Alice"), matching).unwrap();
        let second = engine.run(&graph, TEXT, &who("Eve"), matching).unwrap();
        assert_eq!(
            first,
            cold.run(&graph, TEXT, &who("Alice"), matching).unwrap()
        );
        assert_eq!(
            second,
            cold.run(&graph, TEXT, &who("Eve"), matching).unwrap()
        );
        // The cached plan of the first stage re-binds `$who`: Eve knows
        // nobody, so the optional stage pads her row.
        assert_eq!(
            second.rows,
            vec![vec![Value::Str("Eve".to_string()), Value::Null]]
        );

        // One entry per MATCH stage: two misses on the first run, two hits
        // on the second.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2));
        let records = log.snapshot();
        let events: Vec<_> = records.iter().map(|record| record.plan_cache).collect();
        assert_eq!(events, vec![Some("miss"), Some("hit")]);
        assert_eq!(records[0].plan_digest, records[1].plan_digest);
    }

    #[test]
    fn distinct_count_star_is_a_pipeline_that_agrees_with_the_oracle() {
        const TEXT: &str = "MATCH (p:Person) RETURN DISTINCT count(*)";
        let graph = sample_graph();
        let matching = MatchingConfig::cypher_default();
        let pipeline = gradoop_cypher::parse_pipeline(TEXT).unwrap();
        assert!(pipeline.as_simple().is_none());
        let table = CypherEngine::for_graph(&graph)
            .run(&graph, TEXT, &HashMap::new(), matching)
            .unwrap();
        assert_eq!(
            table,
            reference_pipeline(&graph, &pipeline, &matching).unwrap()
        );
        assert_eq!(table.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn count_star_row() {
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let result = engine
            .execute(
                &graph,
                "MATCH (p:Person) RETURN count(*)",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        let table = result.rows().expect("rows");
        assert_eq!(table.columns, vec!["count(*)"]);
        assert_eq!(table.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn cypher_operator_returns_graph_collection() {
        let graph = sample_graph();
        let matches = graph
            .cypher(
                "MATCH (p:Person)-[s:studyAt]->(u:University) RETURN p.name",
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(matches.graph_count(), 2);
        // Each match graph contains person + university + edge.
        let heads = matches.heads().collect();
        for head in &heads {
            assert!(head.properties.contains_key("p.name"));
        }
        // Result graphs are part of the collection's element membership.
        let first = heads[0].id;
        let vertices = matches.vertices().collect();
        let edges = matches.edges().collect();
        assert_eq!(
            vertices
                .iter()
                .filter(|v| v.graph_ids.contains(first))
                .count(),
            2
        );
        assert_eq!(
            edges.iter().filter(|e| e.graph_ids.contains(first)).count(),
            1
        );
    }

    #[test]
    fn parameterized_execution() {
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let mut params = HashMap::new();
        params.insert("name".to_string(), Literal::String("Alice".into()));
        let result = engine
            .execute(
                &graph,
                "MATCH (p:Person) WHERE p.name = $name RETURN p",
                &params,
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(result.count(), 1);
    }

    #[test]
    fn errors_are_classified() {
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let no_params = HashMap::new();
        let config = MatchingConfig::cypher_default();
        assert!(matches!(
            engine.execute(&graph, "MATCH (p RETURN *", &no_params, config),
            Err(CypherError::Parse(_))
        ));
        assert!(matches!(
            engine.execute(&graph, "MATCH (p) RETURN q.name", &no_params, config),
            Err(CypherError::QueryGraph(_))
        ));
    }

    #[test]
    fn unbound_return_item_yields_classified_result_error() {
        // A hand-assembled result whose embeddings never bound the returned
        // variable: materialization reports a classified error, not a panic.
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let mut result = engine
            .execute(
                &graph,
                "MATCH (p:Person) RETURN p",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .expect("query executes");
        result.meta = crate::embedding::EmbeddingMetaData::new();
        match result.rows() {
            Err(CypherError::Execution(failure)) => {
                assert!(failure.message.contains("`p` unbound"));
            }
            other => panic!("expected classified execution error, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_retries_yield_classified_execution_error() {
        use gradoop_dataflow::{FailureSchedule, FaultConfig};
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let query = "MATCH (p:Person)-[s:studyAt]->(u:University) RETURN p.name";
        // Crash the very first query stage with no retry headroom.
        graph.env().install_faults(
            FaultConfig::new(FailureSchedule::none().crash_at_stage(0, 0)).max_attempts(1),
        );
        let result = engine.execute(
            &graph,
            query,
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        );
        match result {
            Err(CypherError::Execution(failure)) => {
                assert!(failure.message.contains("retry budget exhausted"));
            }
            other => panic!("expected classified execution error, got {other:?}"),
        }
        // The schedule is consumed and the poison cleared: the same query
        // succeeds on the next attempt and returns the full result set.
        let retry = engine
            .execute(
                &graph,
                query,
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(retry.count(), 2);
    }

    #[test]
    fn survivable_faults_leave_results_identical_and_profile_shows_recovery() {
        use gradoop_dataflow::{FailureSchedule, FaultConfig};
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let query = "MATCH (p1:Person)-[s:studyAt]->(u:University) \
                     WHERE s.classYear > 2014 RETURN p1.name, u.name";
        let clean = engine
            .execute(
                &graph,
                query,
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        graph.env().install_faults(
            FaultConfig::new(
                FailureSchedule::none()
                    .crash_at_stage(0, 0)
                    .lost_partition_at_stage(2, 1),
            )
            .max_attempts(3),
        );
        let profile = engine
            .profile(
                &graph,
                query,
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        graph.env().clear_faults();
        assert_eq!(profile.matches, clean.count() as u64);
        assert_eq!(profile.metrics.recovery_attempts, 2);
        assert!(profile.metrics.recovery_seconds >= 0.0);
        assert!(profile.to_text().contains("recovery: attempts=2"));
    }

    #[test]
    fn run_delegates_simple_queries_to_the_classic_path() {
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let table = engine
            .run(
                &graph,
                "MATCH (p:Person) RETURN p.name",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(table.columns, vec!["p.name"]);
        let mut names: Vec<String> = table
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Str(s) => s.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        names.sort();
        assert_eq!(names, vec!["Alice", "Eve"]);

        let counted = engine
            .run(
                &graph,
                "MATCH (p:Person) RETURN count(*)",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(counted.columns, vec!["count(*)"]);
        assert_eq!(counted.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn two_match_clauses_have_one_answer_on_every_entry_point() {
        // Edge uniqueness is scoped per MATCH (Francis et al., *Formal
        // Semantics of the Language Cypher*): each clause binds any of the
        // three edges, 3 × 3 rows. The retired second grammar behind
        // `execute` merged the clauses into one pattern list — query-wide
        // uniqueness, 6 rows — so one text had two answers.
        const TEXT: &str = "MATCH (a)-[e1]->(b) MATCH (c)-[e2]->(d) RETURN count(*)";
        // `DISTINCT` is a table operation, so this text is a clause pipeline
        // too: two people study at one university.
        const DISTINCT: &str = "MATCH (p:Person)-[:studyAt]->(u:University) \
                                RETURN DISTINCT u.name";
        let graph = sample_graph();
        let cache = Arc::new(PlanCache::default());
        let engine = CypherEngine::for_graph(&graph).with_plan_cache(cache.clone());
        let no_params = HashMap::new();
        let matching = MatchingConfig::cypher_default();

        for text in [TEXT, DISTINCT] {
            let rejections = [
                engine.execute(&graph, text, &no_params, matching).err(),
                graph.cypher(text, matching).err(),
            ];
            for rejection in rejections {
                match rejection {
                    Some(CypherError::QueryGraph(error)) => {
                        assert!(error.0.contains("clause pipeline"), "{error}");
                        assert!(error.0.contains("`CypherEngine::run`"), "{error}");
                    }
                    other => panic!("expected a classified rejection, got {other:?}"),
                }
            }
        }
        // Refused before any stage is planned: not one plan-cache lookup.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));

        let table = engine.run(&graph, TEXT, &no_params, matching).unwrap();
        assert_eq!(table.rows, vec![vec![Value::Int(9)]]);
        let pipeline = gradoop_cypher::parse_pipeline(TEXT).unwrap();
        let reference = reference_pipeline(&graph, &pipeline, &matching).unwrap();
        assert_eq!(reference.rows, vec![vec![Value::Int(9)]]);

        let table = engine.run(&graph, DISTINCT, &no_params, matching).unwrap();
        let pipeline = gradoop_cypher::parse_pipeline(DISTINCT).unwrap();
        assert_eq!(
            table,
            reference_pipeline(&graph, &pipeline, &matching).unwrap()
        );
        assert_eq!(table.columns, vec!["u.name"]);
        assert_eq!(
            table.rows,
            vec![vec![Value::Str("Uni Leipzig".to_string())]]
        );
    }

    #[test]
    fn run_executes_with_aggregation_pipelines() {
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let table = engine
            .run(
                &graph,
                "MATCH (p:Person)-[s:studyAt]->(u:University) \
                 WITH u, count(*) AS n RETURN u.name, n",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(table.columns, vec!["u.name", "n"]);
        assert_eq!(
            table.rows,
            vec![vec![Value::Str("Uni Leipzig".to_string()), Value::Int(2)]]
        );
    }

    #[test]
    fn run_pads_optional_match_and_reports_the_pad_count() {
        use crate::querylog::MemoryQueryLog;
        let graph = sample_graph();
        let log = Arc::new(MemoryQueryLog::new());
        let engine = CypherEngine::for_graph(&graph).with_query_log(log.clone());
        let table = engine
            .run(
                &graph,
                "MATCH (p:Person) OPTIONAL MATCH (p)-[k:knows]->(q:Person) \
                 RETURN p.name, q.name ORDER BY p.name",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert!(table.ordered);
        assert_eq!(
            table.rows,
            vec![
                vec![
                    Value::Str("Alice".to_string()),
                    Value::Str("Eve".to_string())
                ],
                // Eve knows nobody: the outer join NULL-pads her row.
                vec![Value::Str("Eve".to_string()), Value::Null],
            ]
        );
        let records = log.snapshot();
        let record = records.last().expect("run was logged");
        assert_eq!(record.outcome, QueryOutcome::Ok);
        assert_eq!(record.matches, 2);
        let pad = record
            .operators
            .iter()
            .find(|op| op.name == "optional_match(pad)")
            .expect("pad telemetry operator");
        assert_eq!(pad.rows_out, 1);
        assert!(record
            .operators
            .iter()
            .any(|op| op.name == "join(left-outer-hash)"));
    }

    /// Properties resolve through the graph's element index, so the one
    /// `collect` of a pipeline run is the final gather of its result rows.
    #[test]
    fn a_pipeline_collects_only_its_result_rows() {
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let sink = Arc::new(CollectingSink::new());
        graph.env().set_trace_sink(Some(sink.clone()));
        let table = engine
            .run(
                &graph,
                "MATCH (p:Person) OPTIONAL MATCH (p)-[:studyAt]->(u:University) \
                 WITH p, u WHERE u.name = 'Uni Leipzig' \
                 RETURN p.name, u.name ORDER BY p.name",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        graph.env().set_trace_sink(None);
        assert_eq!(table.rows.len(), 2);
        let collects: Vec<u64> = sink
            .snapshot()
            .stages
            .iter()
            .filter(|stage| stage.name == "collect")
            .map(|stage| stage.records_in)
            .collect();
        assert_eq!(collects, vec![table.rows.len() as u64]);
    }

    #[test]
    fn run_unwinds_lists_and_orders_descending() {
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let table = engine
            .run(
                &graph,
                "UNWIND [1, 2, 3] AS x RETURN x ORDER BY x DESC LIMIT 2",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(table.columns, vec!["x"]);
        assert_eq!(table.rows, vec![vec![Value::Int(3)], vec![Value::Int(2)]]);
    }

    #[test]
    fn explain_and_profile_show_top_k_for_limit_bearing_order_by() {
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let with_limit = engine
            .explain("MATCH (p:Person) RETURN p.name ORDER BY p.name LIMIT 1")
            .unwrap();
        assert!(with_limit
            .root
            .to_text()
            .contains("order_by(top-k skip=0 limit=1)"));
        let unbounded = engine
            .explain("MATCH (p:Person) RETURN p.name ORDER BY p.name")
            .unwrap();
        assert!(unbounded.root.to_text().contains("order_by(full-sort)"));

        let profile = engine
            .profile(
                &graph,
                "MATCH (p:Person) RETURN p.name ORDER BY p.name LIMIT 1",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(profile.matches, 1);
        let stage_names: Vec<&str> = profile
            .root
            .children
            .iter()
            .map(|c| c.operator.as_str())
            .collect();
        assert!(stage_names.contains(&"order_by(top-k)"));
        assert!(!stage_names.contains(&"order_by(full-sort)"));
    }

    fn chain_graph(hops: u64) -> LogicalGraph {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let vertices = (1..=hops + 1)
            .map(|id| Vertex::new(GradoopId(id), "Node", Properties::new()))
            .collect();
        let edges = (1..=hops)
            .map(|i| {
                Edge::new(
                    GradoopId(100 + i),
                    "next",
                    GradoopId(i),
                    GradoopId(i + 1),
                    Properties::new(),
                )
            })
            .collect();
        LogicalGraph::from_data(
            &env,
            GraphHead::new(GradoopId(1000), "chain", Properties::new()),
            vertices,
            edges,
        )
    }

    #[test]
    fn open_range_beyond_the_default_cap_is_a_classified_error() {
        // A 12-hop chain holds paths longer than DEFAULT_MAX_HOPS (10):
        // the old behaviour silently returned the truncated result set.
        let graph = chain_graph(12);
        let engine = CypherEngine::for_graph(&graph);
        let result = engine.execute(
            &graph,
            "MATCH (a)-[*]->(b) RETURN count(*)",
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        );
        match result {
            Err(CypherError::Execution(failure)) => {
                assert!(failure.message.contains("cap of 10 hops"), "{failure}");
                assert!(failure.site.contains("open-range path expansion"));
            }
            other => panic!("expected classified truncation error, got {other:?}"),
        }
        // An explicit upper bound opts into the deeper expansion: every
        // path of 1..=12 hops in the chain, 12+11+…+1 = 78 of them.
        let bounded = engine
            .execute(
                &graph,
                "MATCH (a)-[*1..12]->(b) RETURN count(*)",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(bounded.count(), 78);
        // A graph whose longest path sits at the cap is untouched.
        let short = chain_graph(10);
        let engine = CypherEngine::for_graph(&short);
        let ok = engine
            .execute(
                &short,
                "MATCH (a)-[*]->(b) RETURN count(*)",
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(ok.count(), 55);
    }

    #[test]
    fn planning_a_range_costs_the_same_for_any_upper_bound() {
        // The planner once summed fanout^k hop by hop: EXPLAIN of
        // `*1..10000000` took a second, and this bound never finished.
        let graph = sample_graph();
        let engine = CypherEngine::for_graph(&graph);
        let explain = engine
            .explain("MATCH (a)-[e*1..9223372036854775807]->(b) RETURN count(*)")
            .unwrap();
        assert!(explain.root.to_text().contains("ExpandEmbeddings"));
    }

    #[test]
    fn indexed_graph_gives_same_results() {
        let graph = sample_graph();
        let indexed = graph.to_indexed();
        let engine = CypherEngine::for_graph(&graph);
        let q = "MATCH (p:Person)-[s:studyAt]->(u:University) RETURN *";
        let plain = engine
            .execute(&graph, q, &HashMap::new(), MatchingConfig::cypher_default())
            .unwrap();
        let via_index = engine
            .execute(
                &indexed,
                q,
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert_eq!(plain.count(), via_index.count());
    }
}
