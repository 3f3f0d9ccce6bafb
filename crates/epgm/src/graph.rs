//! Logical graphs and graph collections (Definition 2.1), the two main
//! programming abstractions of Gradoop (paper Section 2.4).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use gradoop_dataflow::{Dataset, ExecutionEnvironment};

use crate::element::{Edge, GraphHead, Vertex};
use crate::element_index::ElementIndex;
use crate::id::GradoopId;

/// A single property graph: one graph head plus vertex and edge datasets.
///
/// Like in Gradoop, a logical graph is the special case of a graph
/// collection whose graph-head dataset holds exactly one element; the head
/// is small and kept at the driver.
#[derive(Clone, Debug)]
pub struct LogicalGraph {
    head: GraphHead,
    vertices: Dataset<Vertex>,
    edges: Dataset<Edge>,
    /// Built on first use; clones and re-homed copies share it.
    element_index: Arc<OnceLock<ElementIndex>>,
}

impl LogicalGraph {
    /// Wraps datasets into a logical graph. The caller is responsible for
    /// the elements' graph membership containing `head.id`.
    pub fn new(head: GraphHead, vertices: Dataset<Vertex>, edges: Dataset<Edge>) -> Self {
        LogicalGraph {
            head,
            vertices,
            edges,
            element_index: Arc::default(),
        }
    }

    /// Builds a logical graph from element collections, stamping every
    /// vertex and edge with the new graph's id.
    pub fn from_data(
        env: &ExecutionEnvironment,
        head: GraphHead,
        vertices: Vec<Vertex>,
        edges: Vec<Edge>,
    ) -> Self {
        let graph_id = head.id;
        let vertices = env.from_collection(
            vertices
                .into_iter()
                .map(|v| v.add_to_graph(graph_id))
                .collect::<Vec<_>>(),
        );
        let edges = env.from_collection(
            edges
                .into_iter()
                .map(|e| e.add_to_graph(graph_id))
                .collect::<Vec<_>>(),
        );
        LogicalGraph::new(head, vertices, edges)
    }

    /// The graph head.
    pub fn head(&self) -> &GraphHead {
        &self.head
    }

    /// The graph identifier.
    pub fn id(&self) -> GradoopId {
        self.head.id
    }

    /// The vertex dataset.
    pub fn vertices(&self) -> &Dataset<Vertex> {
        &self.vertices
    }

    /// The edge dataset.
    pub fn edges(&self) -> &Dataset<Edge> {
        &self.edges
    }

    /// The owning execution environment.
    pub fn env(&self) -> &ExecutionEnvironment {
        self.vertices.env()
    }

    /// Number of vertices (distributed count).
    pub fn vertex_count(&self) -> usize {
        self.vertices.count()
    }

    /// Number of edges (distributed count).
    pub fn edge_count(&self) -> usize {
        self.edges.count()
    }

    /// The id → element index over this graph's partitions, built on the
    /// first call (no dataflow stage is charged) and shared with every
    /// clone, re-homed copy and label-indexed view of the graph.
    pub fn element_index(&self) -> &ElementIndex {
        self.element_index
            .get_or_init(|| ElementIndex::of(&self.vertices, &self.edges))
    }

    /// Re-homes the graph onto another environment without copying any
    /// element data (see [`Dataset::rehomed`]) — the snapshot-sharing
    /// primitive that lets concurrent sessions run over one immutable
    /// graph, each with a private environment. The copy shares the
    /// graph's element index.
    pub fn rehomed(&self, env: &ExecutionEnvironment) -> Self {
        LogicalGraph {
            head: self.head.clone(),
            vertices: self.vertices.rehomed(env),
            edges: self.edges.rehomed(env),
            element_index: Arc::clone(&self.element_index),
        }
    }

    /// Lifts this graph into a collection containing only it.
    pub fn into_collection(self) -> GraphCollection {
        let heads = self.vertices.env().from_collection(vec![self.head.clone()]);
        GraphCollection::new(heads, self.vertices, self.edges)
    }
}

/// Head ids for derived graphs start at 2^40 to avoid colliding with data
/// ids produced by loaders and generators.
static DERIVED_GRAPH_IDS: AtomicU64 = AtomicU64::new(1 << 40);

/// Returns a fresh graph-head id for a derived graph, such as one match
/// graph of the Cypher operator's result collection.
pub fn next_derived_graph_id() -> GradoopId {
    GradoopId(DERIVED_GRAPH_IDS.fetch_add(1, Ordering::Relaxed))
}

/// A set of possibly overlapping logical graphs, represented — exactly like
/// in Gradoop — by three datasets: graph heads, vertices and edges, where
/// vertices/edges record their graph membership.
#[derive(Clone, Debug)]
pub struct GraphCollection {
    heads: Dataset<GraphHead>,
    vertices: Dataset<Vertex>,
    edges: Dataset<Edge>,
}

impl GraphCollection {
    /// Wraps datasets into a collection.
    pub fn new(heads: Dataset<GraphHead>, vertices: Dataset<Vertex>, edges: Dataset<Edge>) -> Self {
        GraphCollection {
            heads,
            vertices,
            edges,
        }
    }

    /// An empty collection.
    pub fn empty(env: &ExecutionEnvironment) -> Self {
        GraphCollection {
            heads: env.empty(),
            vertices: env.empty(),
            edges: env.empty(),
        }
    }

    /// The graph-head dataset.
    pub fn heads(&self) -> &Dataset<GraphHead> {
        &self.heads
    }

    /// The vertex dataset (union over all member graphs).
    pub fn vertices(&self) -> &Dataset<Vertex> {
        &self.vertices
    }

    /// The edge dataset (union over all member graphs).
    pub fn edges(&self) -> &Dataset<Edge> {
        &self.edges
    }

    /// The owning execution environment.
    pub fn env(&self) -> &ExecutionEnvironment {
        self.heads.env()
    }

    /// Number of graphs in the collection (distributed count).
    pub fn graph_count(&self) -> usize {
        self.heads.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use crate::properties::Properties;
    use gradoop_dataflow::{CostModel, ExecutionConfig};

    fn env() -> ExecutionEnvironment {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()))
    }

    fn sample_graph(env: &ExecutionEnvironment) -> LogicalGraph {
        let head = GraphHead::new(
            GradoopId(100),
            "Community",
            properties! {"area" => "Leipzig"},
        );
        let vertices = vec![
            Vertex::new(GradoopId(10), "Person", properties! {"name" => "Alice"}),
            Vertex::new(GradoopId(20), "Person", properties! {"name" => "Eve"}),
        ];
        let edges = vec![Edge::new(
            GradoopId(5),
            "knows",
            GradoopId(10),
            GradoopId(20),
            Properties::new(),
        )];
        LogicalGraph::from_data(env, head, vertices, edges)
    }

    #[test]
    fn from_data_stamps_membership() {
        let env = env();
        let graph = sample_graph(&env);
        assert_eq!(graph.vertex_count(), 2);
        assert_eq!(graph.edge_count(), 1);
        for v in graph.vertices().collect() {
            assert!(v.graph_ids.contains(GradoopId(100)));
        }
        for e in graph.edges().collect() {
            assert!(e.graph_ids.contains(GradoopId(100)));
        }
    }

    #[test]
    fn into_collection_has_one_head() {
        let env = env();
        let collection = sample_graph(&env).into_collection();
        assert_eq!(collection.graph_count(), 1);
        assert_eq!(collection.vertices().count(), 2);
    }

    #[test]
    fn derived_graph_ids_are_fresh_and_above_data_ids() {
        let a = next_derived_graph_id();
        let b = next_derived_graph_id();
        assert_ne!(a, b);
        assert!(a.0 >= 1 << 40 && b.0 >= 1 << 40);
    }
}
