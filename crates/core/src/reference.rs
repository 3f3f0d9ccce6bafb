//! Single-machine reference matcher.
//!
//! A naive backtracking pattern matcher with exactly the engine's semantics
//! (three-valued Kleene predicates, user-selected morphisms, paths with
//! alternating `via` identifiers). It serves two purposes:
//!
//! * a correctness **oracle** — property tests and the conformance fuzzer
//!   compare the distributed engine's result set against it on random
//!   graphs and queries;
//! * the single-machine **baseline** of the benchmark suite (the role a
//!   graph database like Neo4j plays in the paper's motivation).
//!
//! To stay independent of the engine's CNF machinery, the matcher
//! additionally re-evaluates the query's retained `WHERE` expression tree
//! ([`QueryGraph::where_expression`]) with the direct Kleene evaluator
//! [`eval_expression`] on every candidate match. The per-element CNF
//! predicates still prune the backtracking (they are semantics-preserving),
//! but a match is only emitted when the original expression is exactly
//! `true` — so an NNF/CNF/split bug that makes the engine *admit* a row
//! Cypher would filter shows up as a divergence from this matcher.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use gradoop_cypher::ast::{
    MatchStage, Pipeline, Projection, ProjectionExpr, ProjectionItem, Stage, UnwindSource,
    UnwindStage,
};
use gradoop_cypher::predicates::eval::{
    eval_clause, eval_expression, eval_predicate, Bindings, SingleElement,
};
use gradoop_cypher::{QueryEdge, QueryGraph};
use gradoop_epgm::{Edge, ElementIndex, Label, LogicalGraph, PropertyValue, Vertex};

use crate::embedding::Entry;
use crate::matching::{MatchingConfig, MorphismType};
use crate::result::TableResult;
use crate::values::{
    agg_arg_value, cmp_rows, compare_rows_by_keys, fold_aggregate, Row, RowKey, RowScope, Value,
};

/// One match found by the reference matcher: variable → entry.
pub type ReferenceMatch = HashMap<String, Entry>;

/// In-memory snapshot of a data graph, indexed for backtracking.
struct GraphIndex {
    vertices: HashMap<u64, Vertex>,
    edges: Vec<Edge>,
    out_edges: HashMap<u64, Vec<usize>>,
}

impl GraphIndex {
    fn of(graph: &LogicalGraph) -> Self {
        let vertices: HashMap<u64, Vertex> = graph
            .vertices()
            .collect()
            .into_iter()
            .map(|v| (v.id.0, v))
            .collect();
        let edges = graph.edges().collect();
        let mut out_edges: HashMap<u64, Vec<usize>> = HashMap::new();
        for (index, edge) in edges.iter().enumerate() {
            out_edges.entry(edge.source.0).or_default().push(index);
        }
        GraphIndex {
            vertices,
            edges,
            out_edges,
        }
    }
}

struct Matcher<'a> {
    graph: &'a GraphIndex,
    query: &'a QueryGraph,
    config: MatchingConfig,
    /// Vertex variable → data vertex id.
    vertex_bindings: HashMap<String, u64>,
    /// Edge variable → id or via path.
    edge_bindings: HashMap<String, Entry>,
    /// All vertex ids currently bound (columns + path intermediates), for
    /// vertex isomorphism.
    used_vertices: Vec<u64>,
    /// All edge ids currently bound, for edge isomorphism.
    used_edges: Vec<u64>,
    results: Vec<ReferenceMatch>,
}

/// Runs the reference matcher, returning all matches.
pub fn reference_match(
    graph: &LogicalGraph,
    query: &QueryGraph,
    config: &MatchingConfig,
) -> Vec<ReferenceMatch> {
    let index = GraphIndex::of(graph);
    let mut matcher = Matcher {
        graph: &index,
        query,
        config: *config,
        vertex_bindings: HashMap::new(),
        edge_bindings: HashMap::new(),
        used_vertices: Vec::new(),
        used_edges: Vec::new(),
        results: Vec::new(),
    };
    matcher.solve_edges(0);
    matcher.results
}

impl Matcher<'_> {
    fn vertex_ok(&self, query_vertex: usize, vertex: &Vertex) -> bool {
        let qv = &self.query.vertices[query_vertex];
        if !qv.labels.is_empty() && !qv.labels.contains(&vertex.label) {
            return false;
        }
        let bindings = SingleElement {
            variable: &qv.variable,
            label: &vertex.label,
            properties: &vertex.properties,
            id: vertex.id.0,
        };
        eval_predicate(&qv.predicates, &bindings)
    }

    fn edge_ok(&self, query_edge: &QueryEdge, edge: &Edge) -> bool {
        if !query_edge.labels.is_empty() && !query_edge.labels.contains(&edge.label) {
            return false;
        }
        let bindings = SingleElement {
            variable: &query_edge.variable,
            label: &edge.label,
            properties: &edge.properties,
            id: edge.id.0,
        };
        eval_predicate(&query_edge.predicates, &bindings)
    }

    /// Binds a vertex variable if compatible; returns whether binding was
    /// fresh (must be undone) or `None` if incompatible.
    fn bind_vertex(&mut self, query_vertex: usize, id: u64) -> Option<bool> {
        let variable = self.query.vertices[query_vertex].variable.clone();
        if let Some(&bound) = self.vertex_bindings.get(&variable) {
            return (bound == id).then_some(false);
        }
        let vertex = self.graph.vertices.get(&id)?;
        if !self.vertex_ok(query_vertex, vertex) {
            return None;
        }
        if self.config.vertices == MorphismType::Isomorphism && self.used_vertices.contains(&id) {
            return None;
        }
        self.vertex_bindings.insert(variable, id);
        self.used_vertices.push(id);
        Some(true)
    }

    fn unbind_vertex(&mut self, query_vertex: usize) {
        let variable = &self.query.vertices[query_vertex].variable;
        if let Some(id) = self.vertex_bindings.remove(variable) {
            let position = self
                .used_vertices
                .iter()
                .rposition(|&v| v == id)
                .expect("bound vertex is used");
            self.used_vertices.remove(position);
        }
    }

    fn solve_edges(&mut self, edge_index: usize) {
        if edge_index == self.query.edges.len() {
            self.solve_isolated_vertices(0);
            return;
        }
        let edge = self.query.edges[edge_index].clone();
        if edge.is_variable_length() {
            self.solve_path_edge(edge_index, &edge);
        } else {
            self.solve_plain_edge(edge_index, &edge);
        }
    }

    fn solve_plain_edge(&mut self, edge_index: usize, query_edge: &QueryEdge) {
        for data_index in 0..self.graph.edges.len() {
            let edge = self.graph.edges[data_index].clone();
            if !self.edge_ok(query_edge, &edge) {
                continue;
            }
            if self.config.edges == MorphismType::Isomorphism
                && self.used_edges.contains(&edge.id.0)
            {
                continue;
            }
            let mut orientations = vec![(edge.source.0, edge.target.0)];
            if query_edge.undirected && edge.source != edge.target {
                orientations.push((edge.target.0, edge.source.0));
            }
            for (source, target) in orientations {
                // Loop query edges need a loop data edge.
                if query_edge.source == query_edge.target && source != target {
                    continue;
                }
                let Some(fresh_source) = self.bind_vertex(query_edge.source, source) else {
                    continue;
                };
                if let Some(fresh_target) = self.bind_vertex(query_edge.target, target) {
                    self.edge_bindings
                        .insert(query_edge.variable.clone(), Entry::Id(edge.id.0));
                    self.used_edges.push(edge.id.0);
                    self.solve_edges(edge_index + 1);
                    self.used_edges.pop();
                    self.edge_bindings.remove(&query_edge.variable);
                    if fresh_target {
                        self.unbind_vertex(query_edge.target);
                    }
                }
                if fresh_source {
                    self.unbind_vertex(query_edge.source);
                }
            }
        }
    }

    fn solve_path_edge(&mut self, edge_index: usize, query_edge: &QueryEdge) {
        let (lower, upper) = query_edge.range.expect("variable-length edge");
        // Enumerate start vertices: the bound source, or every vertex.
        let source_variable = &self.query.vertices[query_edge.source].variable;
        let starts: Vec<u64> = match self.vertex_bindings.get(source_variable) {
            Some(&id) => vec![id],
            None => self.graph.vertices.keys().copied().collect(),
        };
        for start in starts {
            let Some(fresh_start) = self.bind_vertex(query_edge.source, start) else {
                continue;
            };
            self.extend_path(edge_index, query_edge, start, Vec::new(), lower, upper);
            if fresh_start {
                self.unbind_vertex(query_edge.source);
            }
        }
    }

    /// Depth-first path extension from `end`, having already traversed
    /// `via` (alternating edge, vertex, ... ids from the path's start).
    fn extend_path(
        &mut self,
        edge_index: usize,
        query_edge: &QueryEdge,
        end: u64,
        via: Vec<u64>,
        lower: usize,
        upper: usize,
    ) {
        let hops = via.len().div_ceil(2);
        if hops >= lower {
            self.emit_path(edge_index, query_edge, end, &via);
        }
        if hops == upper {
            return;
        }
        // 1-hop extension in the allowed orientations.
        let mut candidates: Vec<(u64, u64)> = Vec::new(); // (edge id, next vertex)
        if let Some(indices) = self.graph.out_edges.get(&end) {
            for &index in indices {
                let edge = &self.graph.edges[index];
                if self.edge_ok(query_edge, edge) {
                    candidates.push((edge.id.0, edge.target.0));
                }
            }
        }
        if query_edge.undirected {
            for edge in &self.graph.edges {
                if edge.target.0 == end
                    && edge.source.0 != edge.target.0
                    && self.edge_ok(query_edge, edge)
                {
                    candidates.push((edge.id.0, edge.source.0));
                }
            }
        }
        for (edge_id, next) in candidates {
            if self.config.edges == MorphismType::Isomorphism {
                let in_path = via.iter().step_by(2).any(|&e| e == edge_id);
                if in_path || self.used_edges.contains(&edge_id) {
                    continue;
                }
            }
            if self.config.vertices == MorphismType::Isomorphism && !via.is_empty() {
                // `end` becomes an intermediate vertex: it must not repeat
                // any path intermediate nor any already-bound vertex
                // (columns or other paths' intermediates).
                let in_path = via.iter().skip(1).step_by(2).any(|&v| v == end);
                if in_path || self.used_vertices.contains(&end) {
                    continue;
                }
            }
            let mut extended = via.clone();
            if extended.is_empty() {
                extended.push(edge_id);
            } else {
                extended.push(end);
                extended.push(edge_id);
            }
            self.extend_path(edge_index, query_edge, next, extended, lower, upper);
        }
    }

    fn emit_path(&mut self, edge_index: usize, query_edge: &QueryEdge, end: u64, via: &[u64]) {
        let Some(fresh_end) = self.bind_vertex(query_edge.target, end) else {
            return;
        };
        // Register path contents in the uniqueness sets so later edges see
        // them; the final morphism check is implicit in these sets.
        let path_edges: Vec<u64> = via.iter().step_by(2).copied().collect();
        let path_vertices: Vec<u64> = via.iter().skip(1).step_by(2).copied().collect();
        let mut valid = true;
        if self.config.edges == MorphismType::Isomorphism {
            let mut all = path_edges.clone();
            all.sort_unstable();
            if all.windows(2).any(|w| w[0] == w[1]) {
                valid = false;
            }
            if path_edges.iter().any(|e| self.used_edges.contains(e)) {
                valid = false;
            }
        }
        if valid && self.config.vertices == MorphismType::Isomorphism {
            let mut all = path_vertices.clone();
            all.sort_unstable();
            if all.windows(2).any(|w| w[0] == w[1]) {
                valid = false;
            }
            if path_vertices.iter().any(|v| self.used_vertices.contains(v)) {
                valid = false;
            }
        }
        if valid {
            self.used_edges.extend(&path_edges);
            self.used_vertices.extend(&path_vertices);
            self.edge_bindings
                .insert(query_edge.variable.clone(), Entry::Path(via.to_vec()));
            self.solve_edges(edge_index + 1);
            self.edge_bindings.remove(&query_edge.variable);
            self.used_vertices
                .truncate(self.used_vertices.len() - path_vertices.len());
            self.used_edges
                .truncate(self.used_edges.len() - path_edges.len());
        }
        if fresh_end {
            self.unbind_vertex(query_edge.target);
        }
    }

    fn solve_isolated_vertices(&mut self, from: usize) {
        // Bind any query vertex not yet bound (isolated components).
        let next = (from..self.query.vertices.len()).find(|&i| {
            !self
                .vertex_bindings
                .contains_key(&self.query.vertices[i].variable)
        });
        let Some(vertex_index) = next else {
            self.emit_match();
            return;
        };
        let ids: Vec<u64> = self.graph.vertices.keys().copied().collect();
        for id in ids {
            if let Some(fresh) = self.bind_vertex(vertex_index, id) {
                self.solve_isolated_vertices(vertex_index + 1);
                if fresh {
                    self.unbind_vertex(vertex_index);
                }
            }
        }
    }

    fn emit_match(&mut self) {
        // Cross-variable predicates, evaluated with full element access.
        let bindings = ReferenceBindings {
            graph: self.graph,
            vertex_bindings: &self.vertex_bindings,
            edge_bindings: &self.edge_bindings,
        };
        for (clause, _) in &self.query.cross_clauses {
            if !eval_clause(clause, &bindings) {
                return;
            }
        }
        // Ground truth: the retained WHERE expression, evaluated directly
        // under Kleene logic, must be exactly true.
        if let Some(expression) = &self.query.where_expression {
            if eval_expression(expression, &bindings) != Some(true) {
                return;
            }
        }
        let mut result: ReferenceMatch = HashMap::new();
        for (variable, id) in &self.vertex_bindings {
            result.insert(variable.clone(), Entry::Id(*id));
        }
        for (variable, entry) in &self.edge_bindings {
            result.insert(variable.clone(), entry.clone());
        }
        self.results.push(result);
    }
}

struct ReferenceBindings<'a> {
    graph: &'a GraphIndex,
    vertex_bindings: &'a HashMap<String, u64>,
    edge_bindings: &'a HashMap<String, Entry>,
}

impl Bindings for ReferenceBindings<'_> {
    fn property(&self, variable: &str, key: &str) -> Option<Cow<'_, PropertyValue>> {
        if let Some(id) = self.vertex_bindings.get(variable) {
            return self
                .graph
                .vertices
                .get(id)?
                .properties
                .get(key)
                .map(Cow::Borrowed);
        }
        if let Some(Entry::Id(id)) = self.edge_bindings.get(variable) {
            let edge = self.graph.edges.iter().find(|e| e.id.0 == *id)?;
            return edge.properties.get(key).map(Cow::Borrowed);
        }
        None
    }

    fn label(&self, variable: &str) -> Option<Label> {
        if let Some(id) = self.vertex_bindings.get(variable) {
            return Some(self.graph.vertices.get(id)?.label.clone());
        }
        if let Some(Entry::Id(id)) = self.edge_bindings.get(variable) {
            return self
                .graph
                .edges
                .iter()
                .find(|e| e.id.0 == *id)
                .map(|e| e.label.clone());
        }
        None
    }

    fn element_id(&self, variable: &str) -> Option<u64> {
        if let Some(id) = self.vertex_bindings.get(variable) {
            return Some(*id);
        }
        match self.edge_bindings.get(variable) {
            Some(Entry::Id(id)) => Some(*id),
            _ => None,
        }
    }
}

// --- pipeline reference interpreter ------------------------------------------

/// Interprets a multi-clause pipeline (`MATCH` / `OPTIONAL MATCH` / `WITH`
/// / `UNWIND` / final `RETURN`) clause by clause over an in-memory table —
/// the oracle the conformance fuzzer holds the dataflow lowering against.
///
/// Clause semantics:
/// * each `MATCH` stage is matched by [`reference_match`] under its **own**
///   morphism-uniqueness scope (openCypher's per-`MATCH` uniqueness), then
///   joined onto the working table on the shared variables;
/// * the stage `WHERE` is evaluated row-wise under Kleene logic over the
///   combined row — for `OPTIONAL MATCH` it participates in the match
///   decision, so a row whose candidates all fail is NULL-padded;
/// * a later `MATCH` referencing a NULL-bound variable finds no join
///   partner: the row is dropped (or re-padded when optional);
/// * `WITH` / `RETURN` apply projection → aggregation → `DISTINCT` →
///   `ORDER BY` → `SKIP`/`LIMIT` → trailing `WHERE`, in that order;
/// * `SKIP`/`LIMIT` without `ORDER BY` cut after the full-row
///   [`cmp_rows`] sort, so the selection is deterministic and
///   engine-reproducible.
///
/// The answer is the engine's own [`TableResult`], so the two compare
/// directly.
pub fn reference_pipeline(
    graph: &LogicalGraph,
    pipeline: &Pipeline,
    config: &MatchingConfig,
) -> Result<TableResult, String> {
    let index = graph.element_index();
    let mut columns: Vec<String> = Vec::new();
    let mut rows: Vec<Row> = vec![Vec::new()];
    for stage in &pipeline.stages {
        match stage {
            Stage::Match(stage) => {
                apply_match(graph, index, &mut columns, &mut rows, stage, config, false)?;
            }
            Stage::OptionalMatch(stage) => {
                apply_match(graph, index, &mut columns, &mut rows, stage, config, true)?;
            }
            Stage::With(projection) => {
                apply_projection(index, &mut columns, &mut rows, projection)?;
            }
            Stage::Unwind(unwind) => apply_unwind(index, &mut columns, &mut rows, unwind)?,
        }
    }
    apply_projection(index, &mut columns, &mut rows, &pipeline.ret)?;
    Ok(TableResult {
        columns,
        rows,
        ordered: !pipeline.ret.order_by.is_empty(),
    })
}

/// Matches one `MATCH` stage in isolation: named variables become columns
/// (vertices first, then edges, in query-graph order).
fn match_stage_table(
    graph: &LogicalGraph,
    stage: &MatchStage,
    config: &MatchingConfig,
) -> Result<(Vec<String>, Vec<Row>), String> {
    let query_graph = QueryGraph::from_query(&stage.as_query()).map_err(|e| e.to_string())?;
    let mut columns: Vec<String> = Vec::new();
    let mut vertex_columns = 0usize;
    for vertex in &query_graph.vertices {
        if vertex.named {
            columns.push(vertex.variable.clone());
            vertex_columns += 1;
        }
    }
    for edge in &query_graph.edges {
        if edge.named {
            columns.push(edge.variable.clone());
        }
    }
    let matches = reference_match(graph, &query_graph, config);
    let rows = matches
        .into_iter()
        .map(|found| {
            columns
                .iter()
                .enumerate()
                .map(|(i, variable)| match &found[variable] {
                    Entry::Id(id) if i < vertex_columns => Value::Vertex(*id),
                    Entry::Id(id) => Value::Edge(*id),
                    Entry::Path(via) => Value::Path(via.clone()),
                })
                .collect()
        })
        .collect();
    Ok((columns, rows))
}

fn apply_match(
    graph: &LogicalGraph,
    index: &ElementIndex,
    columns: &mut Vec<String>,
    rows: &mut Vec<Row>,
    stage: &MatchStage,
    config: &MatchingConfig,
    optional: bool,
) -> Result<(), String> {
    let (match_columns, match_rows) = match_stage_table(graph, stage, config)?;
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
    // Shared variables join on their `RowKey`, and NULL joins nothing:
    // the engine's hash join, pair by pair.
    let match_keys: Vec<RowKey> = match_rows
        .iter()
        .map(|m| RowKey(shared.iter().map(|&(_, mi)| m[mi].clone()).collect()))
        .collect();
    let mut out: Vec<Row> = Vec::new();
    for row in rows.iter() {
        let key = RowKey(shared.iter().map(|&(li, _)| row[li].clone()).collect());
        let joins = !key.0.contains(&Value::Null);
        let mut matched = false;
        for (match_row, match_key) in match_rows.iter().zip(&match_keys) {
            if !joins || key != *match_key {
                continue;
            }
            let mut combined = row.clone();
            combined.extend(new_columns.iter().map(|&mi| match_row[mi].clone()));
            if let Some(expr) = &stage.where_clause {
                let scope = RowScope {
                    columns: &out_columns,
                    row: &combined,
                    index,
                };
                if eval_expression(expr, &scope) != Some(true) {
                    continue;
                }
            }
            matched = true;
            out.push(combined);
        }
        if optional && !matched {
            let mut padded = row.clone();
            padded.extend(new_columns.iter().map(|_| Value::Null));
            out.push(padded);
        }
    }
    *columns = out_columns;
    *rows = out;
    Ok(())
}

fn apply_unwind(
    index: &ElementIndex,
    columns: &mut Vec<String>,
    rows: &mut Vec<Row>,
    unwind: &UnwindStage,
) -> Result<(), String> {
    if columns.contains(&unwind.alias) {
        return Err(format!("UNWIND alias `{}` is already bound", unwind.alias));
    }
    let mut out: Vec<Row> = Vec::new();
    for row in rows.iter() {
        let scope = RowScope {
            columns,
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
    }
    columns.push(unwind.alias.clone());
    *rows = out;
    Ok(())
}

fn eval_projection_item(item: &ProjectionExpr, scope: &RowScope<'_>) -> Value {
    match item {
        ProjectionExpr::Variable(variable) => scope.get(variable).cloned().unwrap_or(Value::Null),
        ProjectionExpr::Property { variable, key } => scope.property_value(variable, key),
        ProjectionExpr::Aggregate(_) => unreachable!("aggregates are folded per group"),
    }
}

fn apply_projection(
    index: &ElementIndex,
    columns: &mut Vec<String>,
    rows: &mut Vec<Row>,
    projection: &Projection,
) -> Result<(), String> {
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

    let mut out_rows: Vec<Row> = if has_aggregate {
        // Group by the key of the non-aggregate items; each group folds its
        // members in `cmp_rows` order (so `collect` agrees with the engine).
        let mut groups: Vec<(RowKey, Vec<Row>)> = Vec::new();
        let mut index_of: HashMap<RowKey, usize> = HashMap::new();
        for row in rows.iter() {
            let scope = RowScope {
                columns,
                row,
                index,
            };
            let key = RowKey(
                items
                    .iter()
                    .filter(|i| !matches!(i.expr, ProjectionExpr::Aggregate(_)))
                    .map(|i| eval_projection_item(&i.expr, &scope))
                    .collect(),
            );
            let at = *index_of.entry(key.clone()).or_insert_with(|| {
                groups.push((key, Vec::new()));
                groups.len() - 1
            });
            groups[at].1.push(row.clone());
        }
        if groups.is_empty()
            && items
                .iter()
                .all(|i| matches!(i.expr, ProjectionExpr::Aggregate(_)))
        {
            // A global aggregate over no rows still emits one row.
            groups.push((RowKey(Vec::new()), Vec::new()));
        }
        groups
            .into_iter()
            .map(|(key, mut members)| {
                members.sort_by(|a, b| cmp_rows(a, b));
                let mut key_iter = key.0.into_iter();
                items
                    .iter()
                    .map(|item| match &item.expr {
                        ProjectionExpr::Aggregate(call) => {
                            let args: Vec<Value> = members
                                .iter()
                                .map(|member| {
                                    let scope = RowScope {
                                        columns,
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
                    .collect()
            })
            .collect()
    } else {
        rows.iter()
            .map(|row| {
                let scope = RowScope {
                    columns,
                    row,
                    index,
                };
                items
                    .iter()
                    .map(|item| eval_projection_item(&item.expr, &scope))
                    .collect()
            })
            .collect()
    };

    if projection.distinct {
        let mut seen = HashSet::new();
        out_rows.retain(|row| seen.insert(RowKey(row.clone())));
    }
    if !projection.order_by.is_empty() || projection.skip.is_some() || projection.limit.is_some() {
        out_rows
            .sort_by(|a, b| compare_rows_by_keys(&projection.order_by, &out_columns, index, a, b));
        let skip = projection.skip.unwrap_or(0);
        let limit = projection.limit.unwrap_or(usize::MAX);
        out_rows = out_rows.into_iter().skip(skip).take(limit).collect();
    }
    if let Some(expr) = &projection.where_clause {
        out_rows.retain(|row| {
            let scope = RowScope {
                columns: &out_columns,
                row,
                index,
            };
            eval_expression(expr, &scope) == Some(true)
        });
    }
    *columns = out_columns;
    *rows = out_rows;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradoop_cypher::parse;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
    use gradoop_epgm::{properties, GradoopId, GraphHead, Properties};

    fn graph() -> LogicalGraph {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let person = |id: u64, name: &str| {
            Vertex::new(GradoopId(id), "Person", properties! {"name" => name})
        };
        let knows = |id: u64, s: u64, t: u64| {
            Edge::new(
                GradoopId(id),
                "knows",
                GradoopId(s),
                GradoopId(t),
                Properties::new(),
            )
        };
        LogicalGraph::from_data(
            &env,
            GraphHead::new(GradoopId(100), "g", Properties::new()),
            vec![person(1, "Alice"), person(2, "Eve"), person(3, "Bob")],
            vec![knows(10, 1, 2), knows(11, 2, 3), knows(12, 1, 3)],
        )
    }

    fn matches(text: &str, config: MatchingConfig) -> Vec<ReferenceMatch> {
        let query = QueryGraph::from_query(&parse(text).unwrap()).unwrap();
        reference_match(&graph(), &query, &config)
    }

    #[test]
    fn single_edge_matches() {
        let found = matches(
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN *",
            MatchingConfig::cypher_default(),
        );
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn two_hop_matches() {
        let found = matches(
            "MATCH (a)-[e1:knows]->(b)-[e2:knows]->(c) RETURN *",
            MatchingConfig::cypher_default(),
        );
        // 1->2->3 only.
        assert_eq!(found.len(), 1);
        assert_eq!(found[0]["a"], Entry::Id(1));
        assert_eq!(found[0]["c"], Entry::Id(3));
    }

    #[test]
    fn triangle_under_different_semantics() {
        let text = "MATCH (a)-[e1:knows]->(b)-[e2:knows]->(c), (a)-[e3:knows]->(c) RETURN *";
        assert_eq!(matches(text, MatchingConfig::cypher_default()).len(), 1);
        assert_eq!(matches(text, MatchingConfig::isomorphism()).len(), 1);
        assert_eq!(matches(text, MatchingConfig::homomorphism()).len(), 1);
    }

    #[test]
    fn variable_length_paths() {
        let found = matches(
            "MATCH (a:Person {name: 'Alice'})-[e:knows*1..2]->(b) RETURN *",
            MatchingConfig::cypher_default(),
        );
        // 1->2, 1->3, 1->2->3.
        assert_eq!(found.len(), 3);
        let path = found
            .iter()
            .find_map(|m| match &m["e"] {
                Entry::Path(via) if via.len() == 3 => Some(via.clone()),
                _ => None,
            })
            .expect("two-hop path");
        assert_eq!(path, vec![10, 2, 11]);
    }

    #[test]
    fn zero_length_path_binds_same_vertex() {
        let found = matches(
            "MATCH (a:Person {name: 'Alice'})-[e:knows*0..1]->(b) RETURN *",
            MatchingConfig::cypher_default(),
        );
        // Zero-length: b = a; plus 1->2 and 1->3.
        assert_eq!(found.len(), 3);
        assert!(found
            .iter()
            .any(|m| m["e"] == Entry::Path(vec![]) && m["b"] == Entry::Id(1)));
    }

    #[test]
    fn cross_predicates_filter_matches() {
        let found = matches(
            "MATCH (a:Person)-[:knows]->(b:Person) WHERE a.name <> b.name RETURN *",
            MatchingConfig::cypher_default(),
        );
        assert_eq!(found.len(), 3);
        let found = matches(
            "MATCH (a:Person)-[:knows]->(b:Person) WHERE a.name = b.name RETURN *",
            MatchingConfig::cypher_default(),
        );
        assert_eq!(found.len(), 0);
    }

    #[test]
    fn isolated_vertices_are_enumerated() {
        let found = matches(
            "MATCH (a:Person), (b:Person) RETURN *",
            MatchingConfig::homomorphism(),
        );
        assert_eq!(found.len(), 9);
        let found = matches(
            "MATCH (a:Person), (b:Person) RETURN *",
            MatchingConfig::isomorphism(),
        );
        assert_eq!(found.len(), 6);
    }

    // --- pipeline interpreter ------------------------------------------------

    fn pipeline(text: &str) -> TableResult {
        let pipeline = gradoop_cypher::parse_pipeline(text).unwrap();
        reference_pipeline(&graph(), &pipeline, &MatchingConfig::cypher_default()).unwrap()
    }

    fn sorted_rows(table: &TableResult) -> Vec<Row> {
        let mut rows = table.rows.clone();
        rows.sort_by(|a, b| cmp_rows(a, b));
        rows
    }

    #[test]
    fn with_aggregation_groups_by_nonaggregate_items() {
        let table = pipeline("MATCH (a:Person)-[e:knows]->(b) WITH a, count(b) AS n RETURN a, n");
        assert_eq!(table.columns, vec!["a", "n"]);
        assert_eq!(
            sorted_rows(&table),
            vec![
                vec![Value::Vertex(1), Value::Int(2)],
                vec![Value::Vertex(2), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn optional_match_pads_with_null_when_where_rejects() {
        let table = pipeline(
            "MATCH (a:Person) OPTIONAL MATCH (a)-[e:knows]->(b) \
             WHERE b.name = 'Eve' RETURN a, b",
        );
        assert_eq!(
            sorted_rows(&table),
            vec![
                vec![Value::Vertex(1), Value::Vertex(2)],
                vec![Value::Vertex(2), Value::Null],
                vec![Value::Vertex(3), Value::Null],
            ]
        );
    }

    #[test]
    fn match_after_optional_drops_null_bound_rows() {
        // b is NULL for Bob (3, no outgoing edges); the second MATCH can't
        // join a NULL, so only rows with a real b survive.
        let table = pipeline(
            "MATCH (a:Person) OPTIONAL MATCH (a)-[e:knows]->(b) \
             MATCH (b)-[f:knows]->(c) RETURN a, c",
        );
        assert_eq!(
            sorted_rows(&table),
            vec![
                vec![Value::Vertex(1), Value::Vertex(3)], // a=1 via b=2
            ]
        );
    }

    #[test]
    fn order_by_skip_limit_slices_deterministically() {
        let table =
            pipeline("MATCH (a:Person) RETURN a.name AS name ORDER BY name DESC SKIP 1 LIMIT 1");
        assert!(table.ordered);
        assert_eq!(table.rows, vec![vec![Value::Str("Bob".into())]]);
    }

    #[test]
    fn with_where_applies_after_paging() {
        let table = pipeline(
            "MATCH (a:Person) WITH a.name AS name ORDER BY name LIMIT 2 \
             WHERE name <> 'Alice' RETURN name",
        );
        assert_eq!(table.rows, vec![vec![Value::Str("Bob".into())]]);
    }

    #[test]
    fn unwind_expands_lists_and_distinct_dedups() {
        let table = pipeline("UNWIND [1, 2, 2] AS x RETURN DISTINCT x");
        assert_eq!(
            sorted_rows(&table),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]]
        );
    }

    #[test]
    fn global_aggregates_on_empty_input_emit_one_row() {
        let table = pipeline(
            "MATCH (a:Person) WHERE a.name = 'Zed' \
             RETURN count(a) AS n, min(a.name) AS m, collect(a.name) AS c",
        );
        assert_eq!(
            table.rows,
            vec![vec![Value::Int(0), Value::Null, Value::List(vec![])]]
        );
    }

    #[test]
    fn count_distinct_counts_unique_sources() {
        let table =
            pipeline("MATCH (a:Person)-[e:knows]->(b:Person) RETURN count(DISTINCT a) AS n");
        assert_eq!(table.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn collect_folds_in_canonical_member_order() {
        let table =
            pipeline("MATCH (a:Person)-[e:knows]->(b:Person) RETURN collect(b.name) AS names");
        // Members sort canonically by full input row before folding:
        // rows keyed by (a, e, b) → edges 10 (1→2), 11 (2→3), 12 (1→3).
        assert_eq!(
            table.rows,
            vec![vec![Value::List(vec![
                Value::Str("Eve".into()),
                Value::Str("Bob".into()),
                Value::Str("Bob".into()),
            ])]]
        );
    }
}
