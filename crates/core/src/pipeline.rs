//! Dataflow lowering of multi-clause Cypher pipelines.
//!
//! `execute_pipeline` runs the full read-only clause surface — `MATCH`,
//! `OPTIONAL MATCH`, `WITH`, `UNWIND`, aggregation, `DISTINCT`,
//! `ORDER BY`/`SKIP`/`LIMIT` — clause by clause over a working table of
//! [`Row`]s, mirroring [`reference_pipeline`](crate::reference_pipeline)
//! operator for operator:
//!
//! * each `MATCH` stage is planned by the engine — its patterns alone
//!   ([`MatchStage::as_query`]), through the plan cache like any other
//!   `MATCH` — and executed by the classic plan walker under its **own**
//!   morphism-uniqueness scope (openCypher's per-`MATCH` uniqueness), then
//!   hash-joined onto the working table on the [`RowKey`] of the shared
//!   variables. The walker's operator subtree becomes one child of
//!   the pipeline's PROFILE; every other dataflow stage stays a flat leaf;
//! * `OPTIONAL MATCH` lowers onto
//!   [`join_left_outer_filtered`](gradoop_dataflow::Dataset::join_left_outer_filtered):
//!   the stage `WHERE` participates in the match decision, and a left row
//!   whose candidates all fail is NULL-padded. Pad counts surface as a
//!   synthetic `optional_match(pad)` stage report so PROFILE and the query
//!   log can show them;
//! * `WITH`/`RETURN` apply projection → aggregation
//!   ([`group_reduce`](gradoop_dataflow::Dataset::group_reduce) keyed on
//!   the [`RowKey`] of the grouping values) → `DISTINCT` → `ORDER BY` →
//!   `SKIP`/`LIMIT` → trailing `WHERE`. A `LIMIT`-bearing sort runs as
//!   per-partition top-k ([`ordered_top_k`](gradoop_dataflow::Dataset::ordered_top_k));
//!   without a limit the full sort is used, and `SKIP`/`LIMIT` without
//!   `ORDER BY` first sorts by the full-row [`cmp_rows`] order so the cut
//!   is deterministic;
//! * `UNWIND` is a flat-map: `NULL` produces no rows, a list one row per
//!   element, a scalar a single row.
//!
//! The module also hosts the open-range check (`check_open_range_caps`):
//! unbounded variable-length patterns (`*`, `*2..`) carry a
//! parser-substituted hop cap, and instead of silently truncating results
//! at the cap the plan walker expands one hop further and the check raises
//! a classified [`CypherError::Execution`] when anything is found beyond
//! it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use gradoop_cypher::ast::{
    MatchStage, Pipeline, Projection, ProjectionExpr, ProjectionItem, Stage, UnwindSource,
    UnwindStage,
};
use gradoop_cypher::predicates::eval::eval_expression;
use gradoop_cypher::{Expression, Literal, QueryGraph};
use gradoop_dataflow::{CollectingSink, Dataset, ExecutionFailure, JoinStrategy, StageReport};
use gradoop_epgm::ElementIndex;

use crate::embedding::{EmbeddingRead, Entry};
use crate::engine::CypherError;
use crate::executor::execute_plan;
use crate::matching::MatchingConfig;
use crate::observe::ProfileNode;
use crate::operators::EmbeddingSet;
use crate::planner::{PlanError, QueryPlan};
use crate::result::TableResult;
use crate::source::GraphSource;
use crate::values::{
    agg_arg_value, cmp_rows, compare_rows_by_keys, fold_aggregate, Row, RowKey, RowScope, Value,
};

// --- open-range check --------------------------------------------------------

/// Scans an executed embedding set for paths that crossed the substituted
/// hop cap of one of `query`'s open ranges, which the plan walker expands
/// one hop past it. Finding one means the cap would have silently
/// truncated the result set, so a classified execution error is returned
/// instead of a partial answer.
pub(crate) fn check_open_range_caps(
    set: &EmbeddingSet,
    query: &QueryGraph,
) -> Result<(), CypherError> {
    let open = query.edges.iter().filter(|edge| edge.open_range);
    for (variable, cap) in open.filter_map(|edge| Some((&edge.variable, edge.range?.1))) {
        let Some(column) = set.meta.column(variable) else {
            continue;
        };
        for embedding in set.data.partitions().iter().flatten() {
            let hops = match embedding.entry(column) {
                Entry::Path(via) => via.len().div_ceil(2),
                Entry::Id(_) => 1,
            };
            if hops > cap {
                return Err(CypherError::Execution(ExecutionFailure {
                    site: format!("open-range path expansion `{variable}`"),
                    attempts: 0,
                    message: format!(
                        "unbounded variable-length path reaches beyond the default cap of \
                         {cap} hops; the result would be silently truncated — give the \
                         pattern an explicit upper bound (e.g. `*1..{wider}`)",
                        wider = cap.saturating_add(1),
                    ),
                }));
            }
        }
    }
    Ok(())
}

// --- pipeline execution ------------------------------------------------------

/// Executes one planned `MATCH` through the plan walker and checks its open
/// ranges: a tripped fault budget, a malformed plan or a path crossing an
/// open range's cap is a classified error, never a partial result.
pub(crate) fn execute_match<S: GraphSource + ?Sized>(
    query: &QueryGraph,
    plan: &QueryPlan,
    source: &S,
    matching: &MatchingConfig,
    collector: &CollectingSink,
) -> Result<(EmbeddingSet, ProfileNode), CypherError> {
    let (set, profile) = execute_plan(&plan.root, query, source, matching, collector);
    if let Some(failure) = source.env().take_execution_failure() {
        return Err(CypherError::Execution(failure));
    }
    check_open_range_caps(&set, query)?;
    Ok((set, profile))
}

/// Executes a multi-clause pipeline against `source`, returning the final
/// tabular result. Semantics match
/// [`reference_pipeline`](crate::reference_pipeline) exactly — the
/// conformance fuzzer holds the two against each other.
///
/// `stage_plans` holds the query graph and plan of every `MATCH`/`OPTIONAL
/// MATCH` stage in stage order, each planned from the stage's patterns
/// alone ([`MatchStage::as_query`]). `collector` must be installed as
/// (or teed into) the environment's trace sink; the run's PROFILE children
/// are appended to `profile` in execution order — one operator subtree per
/// `MATCH` stage, one flat leaf per remaining dataflow stage. Labels and
/// properties resolve by id through the source's shared
/// [`element_index`](GraphSource::element_index), so the only `collect` is
/// the final gather of the result rows.
pub(crate) fn execute_pipeline<S: GraphSource + ?Sized>(
    pipeline: &Pipeline,
    stage_plans: &[(QueryGraph, Arc<QueryPlan>)],
    params: &HashMap<String, Literal>,
    source: &S,
    matching: &MatchingConfig,
    collector: &CollectingSink,
    profile: &mut Vec<ProfileNode>,
) -> Result<TableResult, CypherError> {
    let index = source.element_index();
    let mut columns: Vec<String> = Vec::new();
    // One empty seed row: the first MATCH cross-joins against it on the
    // empty shared-variable key, so no clause needs a special first case.
    let mut data: Dataset<Row> = source.env().from_collection(vec![Row::new()]);
    let mut stage_plans = stage_plans.iter();
    for stage in &pipeline.stages {
        match stage {
            Stage::Match(inner) | Stage::OptionalMatch(inner) => {
                let (query_graph, plan) = stage_plans.next().expect("one plan per MATCH stage");
                profile.extend(collector.drain().stages.iter().map(ProfileNode::of_stage));
                let (set, operators) =
                    execute_match(query_graph, plan, source, matching, collector)?;
                profile.push(operators);
                data = apply_match(
                    index,
                    &mut columns,
                    data,
                    inner,
                    stage_rows(query_graph, &set)?,
                    params,
                    matches!(stage, Stage::OptionalMatch(_)),
                )?;
            }
            Stage::With(projection) => {
                data = apply_projection(index, &mut columns, data, projection, params)?;
            }
            Stage::Unwind(unwind) => data = apply_unwind(index, &mut columns, data, unwind)?,
        }
    }
    let data = apply_projection(index, &mut columns, data, &pipeline.ret, params)?;
    // `collect` concatenates partitions in order; ordered datasets hold
    // their merged run in partition 0, so sorted order survives.
    let rows = data.collect();
    profile.extend(collector.drain().stages.iter().map(ProfileNode::of_stage));
    Ok(TableResult {
        columns,
        rows,
        ordered: !pipeline.ret.order_by.is_empty(),
    })
}

/// Converts one executed `MATCH` stage's embeddings to rows. Columns are the
/// named variables, vertices first then edges, in query-graph order — the
/// same layout as the reference interpreter's stage table.
fn stage_rows(
    query_graph: &QueryGraph,
    set: &EmbeddingSet,
) -> Result<(Vec<String>, Dataset<Row>), CypherError> {
    let mut names: Vec<String> = Vec::new();
    let mut vertex_count = 0usize;
    for vertex in &query_graph.vertices {
        if vertex.named {
            names.push(vertex.variable.clone());
            vertex_count += 1;
        }
    }
    for edge in &query_graph.edges {
        if edge.named {
            names.push(edge.variable.clone());
        }
    }
    let mut sources: Vec<usize> = Vec::with_capacity(names.len());
    for name in &names {
        let Some(column) = set.meta.column(name) else {
            return Err(CypherError::Plan(PlanError(format!(
                "pattern variable `{name}` was not materialized by the stage plan"
            ))));
        };
        sources.push(column);
    }
    let rows = set.data.map(move |embedding| {
        sources
            .iter()
            .enumerate()
            .map(|(i, &column)| match embedding.entry(column) {
                Entry::Id(id) if i < vertex_count => Value::Vertex(id),
                Entry::Id(id) => Value::Edge(id),
                Entry::Path(via) => Value::Path(via),
            })
            .collect::<Row>()
    });
    Ok((names, rows))
}

/// Substitutes `$parameters`, classifying an unbound name as a plan error.
fn bind_params(
    expr: &Expression,
    params: &HashMap<String, Literal>,
) -> Result<Expression, CypherError> {
    let mut bound = expr.clone();
    bound
        .substitute_parameters(params)
        .map_err(|name| CypherError::Plan(PlanError(format!("parameter ${name} is not bound"))))?;
    Ok(bound)
}

/// Joins one executed `MATCH` stage onto the working table `data`, which it
/// consumes: the join moves the table's rows instead of copying them.
fn apply_match(
    index: &ElementIndex,
    columns: &mut Vec<String>,
    data: Dataset<Row>,
    stage: &MatchStage,
    (match_columns, match_rows): (Vec<String>, Dataset<Row>),
    params: &HashMap<String, Literal>,
    optional: bool,
) -> Result<Dataset<Row>, CypherError> {
    let shared: Vec<(usize, usize)> = match_columns
        .iter()
        .enumerate()
        .filter_map(|(mi, name)| columns.iter().position(|c| c == name).map(|li| (li, mi)))
        .collect();
    let new_columns: Vec<usize> = (0..match_columns.len())
        .filter(|mi| !shared.iter().any(|&(_, smi)| smi == *mi))
        .collect();
    let mut out_columns = columns.clone();
    out_columns.extend(new_columns.iter().map(|&mi| match_columns[mi].clone()));
    let predicate = match &stage.where_clause {
        Some(expr) => Some(bind_params(expr, params)?),
        None => None,
    };

    // NULL never joins: the right side binds elements only, so a NULL-bound
    // shared variable finds no partner — the row drops (inner) or re-pads
    // (optional).
    let left_key = |row: &Row| RowKey(shared.iter().map(|&(li, _)| row[li].clone()).collect());
    let right_key = |row: &Row| RowKey(shared.iter().map(|&(_, mi)| row[mi].clone()).collect());
    let combine = |left: &Row, right: &Row| -> Row {
        let mut combined = left.clone();
        combined.extend(new_columns.iter().map(|&mi| right[mi].clone()));
        combined
    };
    let accepts = |combined: &Row| -> bool {
        match &predicate {
            Some(expr) => {
                let scope = RowScope {
                    columns: &out_columns,
                    row: combined,
                    index,
                };
                eval_expression(expr, &scope) == Some(true)
            }
            None => true,
        }
    };

    let joined = if optional {
        let padded = AtomicU64::new(0);
        let result = data.join_left_outer_filtered(
            match_rows,
            left_key,
            right_key,
            |left, right| accepts(&combine(left, right)),
            |left, right| match right {
                Some(right) => Some(combine(left, right)),
                None => {
                    padded.fetch_add(1, AtomicOrdering::Relaxed);
                    let mut row = left.clone();
                    row.extend(new_columns.iter().map(|_| Value::Null));
                    Some(row)
                }
            },
        );
        // Surface the padding count as a stage report so PROFILE and the
        // query log show how many rows the outer join NULL-padded.
        if let Some(sink) = result.env().trace_sink() {
            sink.on_stage(&StageReport {
                name: "optional_match(pad)".to_string(),
                records_out: padded.load(AtomicOrdering::Relaxed),
                ..StageReport::default()
            });
        }
        result
    } else {
        data.join(
            match_rows,
            left_key,
            right_key,
            JoinStrategy::RepartitionHash,
            |left, right| {
                let combined = combine(left, right);
                accepts(&combined).then_some(combined)
            },
        )
    };
    *columns = out_columns;
    Ok(joined)
}

fn apply_unwind(
    index: &ElementIndex,
    columns: &mut Vec<String>,
    data: Dataset<Row>,
    unwind: &UnwindStage,
) -> Result<Dataset<Row>, CypherError> {
    if columns.contains(&unwind.alias) {
        return Err(CypherError::Plan(PlanError(format!(
            "UNWIND alias `{}` is already bound",
            unwind.alias
        ))));
    }
    let in_columns = &*columns;
    let unwound = data.flat_map(|row: &Row, out: &mut Vec<Row>| {
        let scope = RowScope {
            columns: in_columns,
            row,
            index,
        };
        let source = match &unwind.source {
            UnwindSource::List(items) => Value::List(
                items
                    .iter()
                    .map(|l| Value::from(l.to_property_value()))
                    .collect(),
            ),
            UnwindSource::Variable(variable) => scope.get(variable).cloned().unwrap_or(Value::Null),
            UnwindSource::Property { variable, key } => scope.property_value(variable, key),
        };
        match source {
            // UNWIND NULL produces no rows; a non-list scalar one row.
            Value::Null => {}
            Value::List(items) => {
                for item in items {
                    let mut extended = row.clone();
                    extended.push(item);
                    out.push(extended);
                }
            }
            scalar => {
                let mut extended = row.clone();
                extended.push(scalar);
                out.push(extended);
            }
        }
    });
    columns.push(unwind.alias.clone());
    Ok(unwound)
}

fn eval_projection_item(item: &ProjectionExpr, scope: &RowScope<'_>) -> Value {
    match item {
        ProjectionExpr::Variable(variable) => scope.get(variable).cloned().unwrap_or(Value::Null),
        ProjectionExpr::Property { variable, key } => scope.property_value(variable, key),
        ProjectionExpr::Aggregate(_) => unreachable!("aggregates are folded per group"),
    }
}

/// Applies one `WITH`/`RETURN` projection to the working table `data`,
/// which it consumes: grouping and `DISTINCT` move the table's rows.
fn apply_projection(
    index: &ElementIndex,
    columns: &mut Vec<String>,
    data: Dataset<Row>,
    projection: &Projection,
    params: &HashMap<String, Literal>,
) -> Result<Dataset<Row>, CypherError> {
    let items: Vec<ProjectionItem> = if projection.star {
        columns
            .iter()
            .map(|c| ProjectionItem {
                expr: ProjectionExpr::Variable(c.clone()),
                alias: None,
            })
            .collect()
    } else {
        projection.items.clone()
    };
    let out_columns: Vec<String> = items.iter().map(|i| i.name()).collect();
    let has_aggregate = items
        .iter()
        .any(|i| matches!(i.expr, ProjectionExpr::Aggregate(_)));
    let trailing_where = match &projection.where_clause {
        Some(expr) => Some(bind_params(expr, params)?),
        None => None,
    };
    let in_columns = columns.clone();

    let mut result: Dataset<Row> = if has_aggregate {
        // Group by the key of the non-aggregate items; each group folds its
        // members in `cmp_rows` order (so `collect` agrees with the
        // reference interpreter).
        let key_values = |row: &Row| -> Vec<Value> {
            let scope = RowScope {
                columns: &in_columns,
                row,
                index,
            };
            items
                .iter()
                .filter(|i| !matches!(i.expr, ProjectionExpr::Aggregate(_)))
                .map(|i| eval_projection_item(&i.expr, &scope))
                .collect()
        };
        let grouped = data.group_reduce(
            |row| RowKey(key_values(row)),
            |_key, members| {
                members.sort_by(|a, b| cmp_rows(a, b));
                let mut key_iter = key_values(&members[0]).into_iter();
                items
                    .iter()
                    .map(|item| match &item.expr {
                        ProjectionExpr::Aggregate(call) => {
                            let args: Vec<Value> = members
                                .iter()
                                .map(|member| {
                                    let scope = RowScope {
                                        columns: &in_columns,
                                        row: member,
                                        index,
                                    };
                                    agg_arg_value(&call.arg, &scope)
                                })
                                .collect();
                            fold_aggregate(call.func, call.distinct, &args)
                        }
                        _ => key_iter.next().expect("grouping key"),
                    })
                    .collect::<Row>()
            },
        );
        let all_aggregates = items
            .iter()
            .all(|i| matches!(i.expr, ProjectionExpr::Aggregate(_)));
        if all_aggregates && grouped.len_untracked() == 0 {
            // A global aggregate over no rows still emits one row.
            let empty_folds: Row = items
                .iter()
                .map(|item| match &item.expr {
                    ProjectionExpr::Aggregate(call) => {
                        fold_aggregate(call.func, call.distinct, &[])
                    }
                    _ => unreachable!("all items are aggregates"),
                })
                .collect();
            grouped.env().from_collection(vec![empty_folds])
        } else {
            grouped
        }
    } else {
        data.map(|row| {
            let scope = RowScope {
                columns: &in_columns,
                row,
                index,
            };
            items
                .iter()
                .map(|item| eval_projection_item(&item.expr, &scope))
                .collect::<Row>()
        })
    };

    if projection.distinct {
        result = result.group_reduce(
            |row| RowKey(row.clone()),
            |_key, members| {
                let first = members
                    .iter_mut()
                    .min_by(|a, b| cmp_rows(a, b))
                    .expect("group is non-empty");
                std::mem::take(first)
            },
        );
    }
    if !projection.order_by.is_empty() || projection.skip.is_some() || projection.limit.is_some() {
        // With no explicit sort keys `compare_rows_by_keys` falls through
        // to the full-row `cmp_rows` order, making a bare SKIP/LIMIT cut
        // deterministic. A LIMIT runs as per-partition top-k + merge; only
        // an unbounded sort pays for the full order.
        let cmp = |a: &Row, b: &Row| {
            compare_rows_by_keys(&projection.order_by, &out_columns, index, a, b)
        };
        let skip = projection.skip.unwrap_or(0);
        result = match projection.limit {
            Some(limit) => result.ordered_top_k(cmp, skip, limit),
            None => result.ordered_full(cmp, skip),
        };
    }
    if let Some(expr) = &trailing_where {
        result = result.filter(|row| {
            let scope = RowScope {
                columns: &out_columns,
                row,
                index,
            };
            eval_expression(expr, &scope) == Some(true)
        });
    }
    *columns = out_columns;
    Ok(result)
}
