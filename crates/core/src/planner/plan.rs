//! Query plan representation.

use gradoop_cypher::QueryGraph;

use crate::observe::{ExplainNode, PlannerTrace};

/// A node of the (bushy) query plan tree. Leaf nodes reference query
/// vertices/edges by index into the [`QueryGraph`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
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
    /// `JoinEmbeddings` on the given shared variables.
    Join {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Shared variables joined on.
        variables: Vec<String>,
    },
    /// `ExpandEmbeddings` for one variable-length query edge.
    Expand {
        /// Input providing the expansion's source column.
        input: Box<PlanNode>,
        /// Query edge index (must be variable-length).
        edge: usize,
    },
    /// `ExpandIntersect`: worst-case-optimal closure of a cycle. Binds one
    /// new vertex by intersecting the sorted adjacency lists of every
    /// already-bound endpoint of the closing edges — the intermediate a
    /// binary join would materialize for the open path never exists.
    ExpandIntersect {
        /// Input providing the bound endpoints.
        input: Box<PlanNode>,
        /// Query vertex index bound by the intersection.
        vertex: usize,
        /// Closing query edge indices (≥ 2), all incident to `vertex` with
        /// their other endpoint bound by `input`.
        edges: Vec<usize>,
    },
    /// `FilterEmbeddings` applying cross-variable clauses.
    Filter {
        /// Input.
        input: Box<PlanNode>,
        /// Indices into `QueryGraph::cross_clauses`.
        clauses: Vec<usize>,
    },
    /// Cartesian product of disconnected components.
    Cartesian {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
    },
    /// `ValueJoinEmbeddings`: joins disconnected components on equal
    /// property values (replaces Cartesian + Filter for one equality
    /// clause).
    ValueJoin {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// `(variable, key)` on the left side.
        left_property: (String, String),
        /// `(variable, key)` on the right side.
        right_property: (String, String),
    },
}

/// A complete plan with its cost estimate and planner annotations.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Root of the plan tree.
    pub root: PlanNode,
    /// Estimated number of result embeddings.
    pub estimated_cardinality: f64,
    /// Annotated plan tree mirroring `root`: per-operator estimated
    /// cardinalities and predicted join strategies.
    pub explain: ExplainNode,
    /// The greedy planner's decision log.
    pub planner: PlannerTrace,
}

/// One-line label of a plan node (no children), resolving leaf indices to
/// query variables: the operator of each [`ExplainNode`] the planner
/// builds alongside the plan.
pub(crate) fn node_label(node: &PlanNode, query: &QueryGraph) -> String {
    match node {
        PlanNode::ScanVertices { vertex } => {
            let v = &query.vertices[*vertex];
            let labels: Vec<&str> = v.labels.iter().map(|l| l.as_str()).collect();
            format!(
                "ScanVertices({}{}{})",
                v.variable,
                if labels.is_empty() { "" } else { ":" },
                labels.join("|")
            )
        }
        PlanNode::ScanEdges { edge } => {
            let e = &query.edges[*edge];
            let labels: Vec<&str> = e.labels.iter().map(|l| l.as_str()).collect();
            format!(
                "ScanEdges({}{}{})",
                e.variable,
                if labels.is_empty() { "" } else { ":" },
                labels.join("|")
            )
        }
        PlanNode::Join { variables, .. } => {
            format!("JoinEmbeddings(on {})", variables.join(", "))
        }
        PlanNode::Expand { edge, .. } => {
            let e = &query.edges[*edge];
            let (lower, upper) = e.range.unwrap_or((1, 1));
            format!("ExpandEmbeddings({} *{}..{})", e.variable, lower, upper)
        }
        PlanNode::ExpandIntersect { vertex, edges, .. } => {
            let v = &query.vertices[*vertex];
            let edge_vars: Vec<&str> = edges
                .iter()
                .map(|&e| query.edges[e].variable.as_str())
                .collect();
            format!(
                "ExpandIntersect(wco intersect {} = {})",
                v.variable,
                edge_vars.join("∩")
            )
        }
        PlanNode::Filter { clauses, .. } => {
            let texts: Vec<String> = clauses
                .iter()
                .map(|&i| query.cross_clauses[i].0.to_string())
                .collect();
            format!("FilterEmbeddings({})", texts.join(" AND "))
        }
        PlanNode::Cartesian { .. } => "CartesianProduct".to_string(),
        PlanNode::ValueJoin {
            left_property,
            right_property,
            ..
        } => format!(
            "ValueJoinEmbeddings({}.{} = {}.{})",
            left_property.0, left_property.1, right_property.0, right_property.1
        ),
    }
}
