//! Plan execution: one recursive walker instantiates the query operators
//! of a plan tree over the graph source's datasets and measures each of them.
//!
//! [`execute_plan`] is the only way a plan runs. Next to the result it
//! returns a [`ProfileNode`] tree mirroring the plan: per operator the
//! actual rows in/out, selectivity and embedding bytes (read off the
//! `operator/*` span every operator emits), simulated and wall-clock
//! seconds, executed stages, the join strategy actually chosen,
//! per-iteration counters of variable-length expansions and the
//! estimate-vs-actual q-error. `execute`, `run`, `profile` and the query log
//! are views over that one tree (see [`CypherEngine`](crate::CypherEngine)).
//!
//! Stages and spans are attributed through the per-query [`CollectingSink`]
//! the engine tees in front of the caller's trace sink: the walker drains it
//! after each operator, so whatever is buffered at that point belongs to the
//! operator that just ran.

use std::time::Instant;

use gradoop_cypher::{CnfClause, QueryGraph};
use gradoop_dataflow::{CollectedTrace, CollectingSink, JoinStrategy, Partitioning, SpanRecord};

use crate::matching::MatchingConfig;
use crate::observe::{
    q_error, selectivity, ship_strategies, ExpandIteration, ExplainNode, ProfileNode, ShipStrategy,
};
use crate::operators::{
    cartesian_embeddings, edge_triples, embedding_join_key, expand_embeddings, expand_intersect,
    filter_and_project_edges, filter_and_project_vertices, filter_embeddings,
    join_embeddings_filtered, value_join_embeddings, EmbeddingSet, ExpandConfig,
};
use crate::planner::PlanNode;
use crate::source::GraphSource;

/// Inputs smaller than this many embeddings are broadcast in joins instead
/// of repartitioning the (larger) other side.
const BROADCAST_THRESHOLD: usize = 10_000;

/// Executes the plan rooted at `node` against `source` with the given
/// morphism semantics and returns the result next to its profiled plan
/// tree. `explain` is the planner's annotation of `node` (labels and
/// estimates); `collector` must be installed (directly or behind a tee) as
/// the trace sink of the source's environment for the duration of the call.
pub fn execute_plan<S: GraphSource + ?Sized>(
    node: &PlanNode,
    explain: &ExplainNode,
    query: &QueryGraph,
    source: &S,
    matching: &MatchingConfig,
    collector: &CollectingSink,
) -> (EmbeddingSet, ProfileNode) {
    let mut spent = CollectedTrace::default();
    walk(
        node,
        explain,
        query,
        source,
        matching,
        (collector, &mut spent),
        &[],
    )
}

/// The walker behind [`execute_plan`]. `residual` is non-empty only for a
/// join whose parent filter was fused into it. Events an operator has been
/// charged for move from `collector` to `spent`, which lives as long as the
/// walk: releasing them operator by operator, between the large dataset
/// allocations, measurably slows the allocator down (6 % of Q1–Q3's
/// latency on glibc), so they are released together, as they always were.
fn walk<S: GraphSource + ?Sized>(
    node: &PlanNode,
    explain: &ExplainNode,
    query: &QueryGraph,
    source: &S,
    matching: &MatchingConfig,
    (collector, spent): (&CollectingSink, &mut CollectedTrace),
    residual: &[CnfClause],
) -> (EmbeddingSet, ProfileNode) {
    let clauses_of = |indices: &[usize]| -> Vec<CnfClause> {
        indices
            .iter()
            .map(|&index| query.cross_clauses[index].0.clone())
            .collect()
    };
    let planned = |rows_out: u64| ProfileNode {
        operator: explain.operator.clone(),
        estimated_cardinality: explain.estimated_cardinality,
        estimated_strategy: explain.estimated_strategy,
        rows_out,
        estimate_error: q_error(explain.estimated_cardinality, rows_out),
        ..ProfileNode::default()
    };

    // Filter-over-Join is fused into the join kernel: the clauses run
    // against the merged embedding while it still sits in the join's
    // scratch buffer, so embeddings the filter would drop are never
    // allocated or shuffled. One kernel answers for both plan nodes: the
    // join node reports the pairs it produced before any clause ran, the
    // filter node what survived; stages, time and bytes stay with the join.
    if let PlanNode::Filter { input, clauses } = node {
        if matches!(input.as_ref(), PlanNode::Join { .. }) {
            let (result, join) = walk(
                input,
                &explain.children[0],
                query,
                source,
                matching,
                (collector, spent),
                &clauses_of(clauses),
            );
            let rows_out = result.data.len_untracked() as u64;
            let filter = ProfileNode {
                rows_in: join.rows_out,
                selectivity: selectivity(join.rows_out, rows_out),
                embedding_bytes: join.embedding_bytes,
                children: vec![join],
                ..planned(rows_out)
            };
            return (result, filter);
        }
    }

    // Children run (and drain the collector for themselves) first, so
    // everything buffered after this node's own operator ran belongs to
    // this node.
    let child_nodes: Vec<&PlanNode> = match node {
        PlanNode::Join { left, right, .. }
        | PlanNode::Cartesian { left, right }
        | PlanNode::ValueJoin { left, right, .. } => vec![left, right],
        PlanNode::Expand { input, .. }
        | PlanNode::Filter { input, .. }
        | PlanNode::ExpandIntersect { input, .. } => vec![input],
        PlanNode::ScanVertices { .. } | PlanNode::ScanEdges { .. } => Vec::new(),
    };
    // Whatever a child produced is this operator's to consume: nothing else
    // holds it, so the operators below move its rows instead of copying.
    let (child_sets, children): (Vec<EmbeddingSet>, Vec<ProfileNode>) = child_nodes
        .into_iter()
        .zip(&explain.children)
        .map(|(child, child_explain)| {
            walk(
                child,
                child_explain,
                query,
                source,
                matching,
                (collector, &mut *spent),
                &[],
            )
        })
        .unzip();

    let mut child_sets = child_sets.into_iter();
    let mut child = || child_sets.next().expect("one set per child node");

    let started = Instant::now();
    let mut actual_strategy = None;
    let mut actual_ship = None;
    let result = match node {
        PlanNode::ScanVertices { vertex } => {
            let query_vertex = &query.vertices[*vertex];
            let candidates = source.vertices_for_labels(&query_vertex.labels);
            filter_and_project_vertices(&candidates, query_vertex)
        }
        PlanNode::ScanEdges { edge } => {
            let query_edge = &query.edges[*edge];
            let candidates = source.edges_for_labels(&query_edge.labels);
            let source_var = &query.vertices[query_edge.source].variable;
            let target_var = &query.vertices[query_edge.target].variable;
            filter_and_project_edges(&candidates, query_edge, source_var, target_var, matching)
        }
        PlanNode::Join { variables, .. } => {
            let (left, right) = (child(), child());
            let (strategy, ship) = choose_strategy_partitioned(&left, &right, variables);
            actual_strategy = Some(strategy);
            actual_ship = Some(ship);
            join_embeddings_filtered(left, right, variables, matching, strategy, residual)
        }
        PlanNode::Expand { edge, .. } => {
            let query_edge = &query.edges[*edge];
            let (lower, upper) = query_edge.range.expect("expand node on plain edge");
            let candidates = edge_triples(&source.edges_for_labels(&query_edge.labels), query_edge);
            let config = ExpandConfig {
                source_variable: query.vertices[query_edge.source].variable.clone(),
                edge_variable: query_edge.variable.clone(),
                target_variable: query.vertices[query_edge.target].variable.clone(),
                lower,
                upper,
                matching: *matching,
            };
            expand_embeddings(child(), candidates, &config)
        }
        PlanNode::ExpandIntersect { vertex, edges, .. } => {
            expand_intersect(&child(), query, source, *vertex, edges, matching)
        }
        PlanNode::Filter { clauses, .. } => filter_embeddings(&child(), &clauses_of(clauses)),
        PlanNode::Cartesian { .. } => cartesian_embeddings(child(), child(), matching),
        PlanNode::ValueJoin {
            left_property,
            right_property,
            ..
        } => {
            let (left, right) = (child(), child());
            let strategy = choose_join_strategy(
                left.data.len_untracked(),
                right.data.len_untracked(),
                false,
                false,
            );
            actual_strategy = Some(strategy);
            // Value joins key on property values; no named partitioning
            // fact exists for those, so neither side can be forwarded.
            actual_ship = Some(ship_strategies(strategy, false, false));
            value_join_embeddings(
                left,
                right,
                left_property,
                right_property,
                matching,
                strategy,
            )
        }
    };
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut drained = collector.drain();
    // The operator's own span carries its cardinalities and result bytes
    // (missing only when a malformed plan made it bail out empty-handed).
    let count = |span: &SpanRecord, name: &str| span.counter(name).unwrap_or(0.0) as u64;
    let operator_span = drained
        .spans
        .iter()
        .rev()
        .find(|span| span.name.starts_with("operator/"));
    let counter = |name: &str| operator_span.map_or(0, |span| count(span, name));
    let rows_in = counter("rows_in");
    let rows_out = if residual.is_empty() {
        counter("rows_out")
    } else {
        counter("rows_joined")
    };
    let mut profile = ProfileNode {
        actual_strategy,
        actual_ship,
        rows_in,
        selectivity: selectivity(rows_in, rows_out),
        embedding_bytes: counter("embedding_bytes"),
        wall_seconds,
        iterations: drained
            .spans
            .iter()
            .filter(|span| span.name == "expand/iteration")
            .map(|span| ExpandIteration {
                iteration: count(span, "iteration"),
                frontier_rows: count(span, "frontier_rows"),
                emitted_rows: count(span, "emitted_rows"),
                shuffled_bytes: count(span, "shuffled_bytes"),
                candidate_shuffled_bytes: count(span, "candidate_shuffled_bytes"),
            })
            .collect(),
        rows_intersected: drained
            .spans
            .iter()
            .filter(|span| span.name == "expand_intersect/intersect")
            .map(|span| count(span, "rows_intersected"))
            .sum(),
        children,
        ..planned(rows_out)
    };
    for report in &drained.stages {
        profile.metrics.record(report);
    }
    spent.stages.append(&mut drained.stages);
    spent.spans.append(&mut drained.spans);
    (result, profile)
}

/// Join-strategy choice from the two input cardinalities and which inputs
/// are already hash-partitioned on the join key, standing in for Flink's
/// shipping-strategy optimizer: broadcast a side that is much smaller than
/// the other, else repartition. A broadcast replicates its side to every
/// worker so that the other side stays where it is; that only pays while
/// the stationary side would otherwise have to ship. A side already placed
/// on the key is forwarded for free by the repartition strategy, so the
/// side opposite it is never broadcast (and with both in place the join is
/// shuffle-free). Public so the planner can predict (from estimates and
/// expected partitioning) the choice the executor will make at runtime —
/// EXPLAIN reports the prediction, PROFILE the actual choice.
pub fn choose_join_strategy(
    left_rows: usize,
    right_rows: usize,
    left_partitioned: bool,
    right_partitioned: bool,
) -> JoinStrategy {
    let worth_broadcasting = |side: usize, stationary: usize, stationary_in_place: bool| {
        !stationary_in_place && side < BROADCAST_THRESHOLD && side * 8 < stationary
    };
    if worth_broadcasting(right_rows, left_rows, left_partitioned) {
        JoinStrategy::BroadcastHashSecond
    } else if worth_broadcasting(left_rows, right_rows, right_partitioned) {
        JoinStrategy::BroadcastHashFirst
    } else {
        JoinStrategy::RepartitionHash
    }
}

/// Runtime strategy choice for a join on `variables`: reads the inputs'
/// partitioning facts and returns the chosen strategy plus the
/// `[left, right]` ship strategies it implies.
fn choose_strategy_partitioned(
    left: &EmbeddingSet,
    right: &EmbeddingSet,
    variables: &[String],
) -> (JoinStrategy, [ShipStrategy; 2]) {
    let target = Partitioning {
        key: embedding_join_key(variables),
        workers: left.data.env().workers(),
    };
    let left_partitioned = left.data.partitioning() == Some(target);
    let right_partitioned = right.data.partitioning() == Some(target);
    let strategy = choose_join_strategy(
        left.data.len_untracked(),
        right.data.len_untracked(),
        left_partitioned,
        right_partitioned,
    );
    (
        strategy,
        ship_strategies(strategy, left_partitioned, right_partitioned),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_query, Estimator};
    use gradoop_cypher::parse;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
    use gradoop_epgm::{
        properties, Edge, GradoopId, GraphHead, GraphStatistics, LogicalGraph, Properties, Vertex,
    };

    /// The social-network sample of the paper's Figure 1 (simplified).
    fn sample_graph() -> LogicalGraph {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let person = |id: u64, name: &str, gender: &str| {
            Vertex::new(
                GradoopId(id),
                "Person",
                properties! {"name" => name, "gender" => gender},
            )
        };
        let vertices = vec![
            person(10, "Alice", "female"),
            person(20, "Eve", "female"),
            person(30, "Bob", "male"),
            Vertex::new(
                GradoopId(40),
                "University",
                properties! {"name" => "Uni Leipzig"},
            ),
        ];
        let knows = |id: u64, s: u64, t: u64| {
            Edge::new(
                GradoopId(id),
                "knows",
                GradoopId(s),
                GradoopId(t),
                Properties::new(),
            )
        };
        let edges = vec![
            knows(5, 10, 20),
            knows(6, 20, 10),
            knows(7, 20, 30),
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
                GradoopId(30),
                GradoopId(40),
                properties! {"classYear" => 2016i64},
            ),
        ];
        LogicalGraph::from_data(
            &env,
            GraphHead::new(GradoopId(100), "Community", Properties::new()),
            vertices,
            edges,
        )
    }

    fn run(graph: &LogicalGraph, text: &str, matching: MatchingConfig) -> usize {
        let query = gradoop_cypher::QueryGraph::from_query(&parse(text).unwrap()).unwrap();
        let stats = GraphStatistics::of(graph);
        let plan = plan_query(&query, &Estimator::new(&stats)).unwrap();
        let collector = CollectingSink::new();
        let (result, _) = execute_plan(
            &plan.root,
            &plan.explain,
            &query,
            graph,
            &matching,
            &collector,
        );
        result.data.count()
    }

    #[test]
    fn single_edge_pattern() {
        let graph = sample_graph();
        assert_eq!(
            run(
                &graph,
                "MATCH (a:Person)-[e:knows]->(b:Person) RETURN *",
                MatchingConfig::cypher_default()
            ),
            3
        );
    }

    #[test]
    fn two_hop_pattern_with_predicate() {
        let graph = sample_graph();
        // Persons studying at Uni Leipzig after 2015.
        assert_eq!(
            run(
                &graph,
                "MATCH (p:Person)-[s:studyAt]->(u:University) \
                 WHERE u.name = 'Uni Leipzig' AND s.classYear > 2015 RETURN *",
                MatchingConfig::cypher_default()
            ),
            1
        );
    }

    #[test]
    fn variable_length_paths() {
        let graph = sample_graph();
        // knows*1..2 from Alice: 10->20 (1 hop), 10->20->10 (blocked by
        // edge-homo? no — edges 5,6 distinct, vertex HOMO allows), 10->20->30.
        assert_eq!(
            run(
                &graph,
                "MATCH (a:Person {name: 'Alice'})-[e:knows*1..2]->(b:Person) RETURN *",
                MatchingConfig::cypher_default()
            ),
            3
        );
        // Vertex isomorphism removes the path returning to Alice.
        assert_eq!(
            run(
                &graph,
                "MATCH (a:Person {name: 'Alice'})-[e:knows*1..2]->(b:Person) RETURN *",
                MatchingConfig::isomorphism()
            ),
            2
        );
    }

    #[test]
    fn cross_variable_predicate() {
        let graph = sample_graph();
        // Pairs with different genders that know each other directly.
        assert_eq!(
            run(
                &graph,
                "MATCH (p1:Person)-[:knows]->(p2:Person) \
                 WHERE p1.gender <> p2.gender RETURN *",
                MatchingConfig::cypher_default()
            ),
            1 // Eve -> Bob
        );
    }

    #[test]
    fn disconnected_pattern_uses_cartesian() {
        let graph = sample_graph();
        assert_eq!(
            run(
                &graph,
                "MATCH (u:University), (p:Person {name: 'Alice'}) RETURN *",
                MatchingConfig::cypher_default()
            ),
            1
        );
    }

    #[test]
    fn empty_result_for_unsatisfiable_query() {
        let graph = sample_graph();
        assert_eq!(
            run(
                &graph,
                "MATCH (p:Person {name: 'Nobody'})-[:knows]->(q) RETURN *",
                MatchingConfig::cypher_default()
            ),
            0
        );
    }
}
