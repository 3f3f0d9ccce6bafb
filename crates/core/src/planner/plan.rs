//! Query plan representation: one annotated tree.
//!
//! The planner builds [`PlanNode`]s and nothing else. Each node holds its
//! operator, its inputs and the planner's expectations of it; leaf
//! operators reference query vertices/edges by index into the
//! [`QueryGraph`]. Labels are not stored: EXPLAIN, PROFILE and the plan
//! digest make them when they show a tree, against the query graph of the
//! run being shown, so a cached plan reads its own run's literals.

use std::fmt::Write;

use gradoop_cypher::QueryGraph;
use gradoop_dataflow::JoinStrategy;
use gradoop_epgm::Label;

use crate::observe::{ExplainNode, PlannerTrace, ShipStrategy};

/// The physical operator of one [`PlanNode`]; its inputs are the node's.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOperator {
    /// `SelectAndProjectVertices` for one query vertex.
    ScanVertices {
        /// Query vertex index.
        vertex: usize,
    },
    /// `SelectAndProjectEdges` for one plain query edge.
    ScanEdges {
        /// Query edge index.
        edge: usize,
    },
    /// `JoinEmbeddings` of the two inputs on the given shared variables.
    Join {
        /// Shared variables joined on.
        variables: Vec<String>,
    },
    /// `ExpandEmbeddings` for one variable-length query edge; the input
    /// provides the expansion's source column.
    Expand {
        /// Query edge index (must be variable-length).
        edge: usize,
    },
    /// `ExpandIntersect`: worst-case-optimal closure of a cycle. Binds one
    /// new vertex by intersecting the sorted adjacency lists of every
    /// already-bound endpoint of the closing edges — the intermediate a
    /// binary join would materialize for the open path never exists.
    ExpandIntersect {
        /// Query vertex index bound by the intersection.
        vertex: usize,
        /// Closing query edge indices (≥ 2), all incident to `vertex` with
        /// their other endpoint bound by the input.
        edges: Vec<usize>,
    },
    /// `FilterEmbeddings` applying cross-variable clauses.
    Filter {
        /// Indices into `QueryGraph::cross_clauses`.
        clauses: Vec<usize>,
    },
    /// Cartesian product of disconnected components.
    Cartesian,
    /// `ValueJoinEmbeddings`: joins disconnected components on equal
    /// property values (replaces Cartesian + Filter for one equality
    /// clause).
    ValueJoin {
        /// `(variable, key)` on the left side.
        left_property: (String, String),
        /// `(variable, key)` on the right side.
        right_property: (String, String),
    },
}

/// A node of the (bushy) query plan tree: its operator, its inputs and
/// what the planner expects of it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The operator.
    pub operator: PlanOperator,
    /// Inputs: none for scans, one for expand, intersect and filter, two
    /// for joins and products.
    pub inputs: Vec<PlanNode>,
    /// Estimated result cardinality of this operator.
    pub estimated_cardinality: f64,
    /// For joins and value joins: the strategy predicted from the
    /// estimated input cardinalities (the choice `choose_join_strategy`
    /// makes if the estimates are accurate).
    pub estimated_strategy: Option<JoinStrategy>,
    /// For joins and value joins: the `[left, right]` ship strategies
    /// expected from the predicted partitioning of each input — `forward`
    /// marks a shuffle the engine expects to elide.
    pub estimated_ship: Option<[ShipStrategy; 2]>,
}

/// A complete plan: the annotated tree and the planner's decision log.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Root of the plan tree; its estimate is the whole query's.
    pub root: PlanNode,
    /// The greedy planner's decision log.
    pub planner: PlannerTrace,
}

impl PlanNode {
    /// A node over `inputs` with no predicted join strategy.
    pub fn new(operator: PlanOperator, inputs: Vec<PlanNode>, estimated_cardinality: f64) -> Self {
        PlanNode {
            operator,
            inputs,
            estimated_cardinality,
            estimated_strategy: None,
            estimated_ship: None,
        }
    }

    /// One-line label of this node (no inputs), resolving leaf indices to
    /// the variables, labels and literals of `query`.
    pub fn label(&self, query: &QueryGraph) -> String {
        let mut label = String::new();
        self.write_label(query, &mut label);
        label
    }

    fn write_label(&self, query: &QueryGraph, out: &mut String) {
        match &self.operator {
            PlanOperator::ScanVertices { vertex } => {
                let v = &query.vertices[*vertex];
                write_scan(out, "ScanVertices(", &v.variable, &v.labels);
            }
            PlanOperator::ScanEdges { edge } => {
                let e = &query.edges[*edge];
                write_scan(out, "ScanEdges(", &e.variable, &e.labels);
            }
            PlanOperator::Join { variables } => {
                out.push_str("JoinEmbeddings(on ");
                write_joined(out, variables, ", ", |out, v| out.push_str(v));
                out.push(')');
            }
            PlanOperator::Expand { edge } => {
                let e = &query.edges[*edge];
                let (lower, upper) = e.range.unwrap_or((1, 1));
                let _ = write!(out, "ExpandEmbeddings({} *{lower}..{upper})", e.variable);
            }
            PlanOperator::ExpandIntersect { vertex, edges } => {
                out.push_str("ExpandIntersect(wco intersect ");
                out.push_str(&query.vertices[*vertex].variable);
                out.push_str(" = ");
                write_joined(out, edges, "∩", |out, &e| {
                    out.push_str(&query.edges[e].variable)
                });
                out.push(')');
            }
            PlanOperator::Filter { clauses } => {
                out.push_str("FilterEmbeddings(");
                write_joined(out, clauses, " AND ", |out, &i| {
                    let _ = write!(out, "{}", query.cross_clauses[i].0);
                });
                out.push(')');
            }
            PlanOperator::Cartesian => out.push_str("CartesianProduct"),
            PlanOperator::ValueJoin {
                left_property: (lv, lk),
                right_property: (rv, rk),
            } => {
                let _ = write!(out, "ValueJoinEmbeddings({lv}.{lk} = {rv}.{rk})");
            }
        }
    }

    /// The EXPLAIN tree of this subtree, labelled against `query`.
    pub fn explain(&self, query: &QueryGraph) -> ExplainNode {
        ExplainNode {
            operator: self.label(query),
            estimated_cardinality: self.estimated_cardinality,
            estimated_strategy: self.estimated_strategy,
            estimated_ship: self.estimated_ship,
            children: self
                .inputs
                .iter()
                .map(|input| input.explain(query))
                .collect(),
        }
    }
}

/// `Scan…(variable:A|B)`, the colon only when there are labels.
fn write_scan(out: &mut String, operator: &str, variable: &str, labels: &[Label]) {
    out.push_str(operator);
    out.push_str(variable);
    for (i, label) in labels.iter().enumerate() {
        out.push(if i == 0 { ':' } else { '|' });
        out.push_str(label.as_str());
    }
    out.push(')');
}

/// Writes every item with `write`, separated by `separator`.
fn write_joined<T>(
    out: &mut String,
    items: &[T],
    separator: &str,
    write: impl Fn(&mut String, &T),
) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(separator);
        }
        write(out, item);
    }
}
