//! Subgraph extraction operators.

use gradoop_dataflow::JoinStrategy;

use crate::element::{Edge, Vertex};
use crate::graph::LogicalGraph;

impl LogicalGraph {
    /// Extracts the subgraph of vertices satisfying `vertex_predicate` and
    /// edges satisfying `edge_predicate`. A verification step drops edges
    /// whose endpoints were filtered out, so the result is a valid graph
    /// (Definition 2.3's subgraph condition).
    pub fn subgraph<VP, EP>(&self, vertex_predicate: VP, edge_predicate: EP) -> LogicalGraph
    where
        VP: Fn(&Vertex) -> bool + Sync,
        EP: Fn(&Edge) -> bool + Sync,
    {
        let vertices = self.vertices().filter(vertex_predicate);
        let edges = self.edges().filter(edge_predicate);
        let edges = verify_edges(&vertices, &edges);
        LogicalGraph::new(self.head().clone(), vertices, edges)
    }

    /// Subgraph induced by the vertices satisfying the predicate: keeps all
    /// edges running between retained vertices.
    pub fn vertex_induced_subgraph<VP>(&self, vertex_predicate: VP) -> LogicalGraph
    where
        VP: Fn(&Vertex) -> bool + Sync,
    {
        self.subgraph(vertex_predicate, |_| true)
    }

    /// Subgraph induced by the edges satisfying the predicate: keeps the
    /// matching edges plus all their incident vertices.
    pub fn edge_induced_subgraph<EP>(&self, edge_predicate: EP) -> LogicalGraph
    where
        EP: Fn(&Edge) -> bool + Sync,
    {
        let edges = self.edges().filter(edge_predicate);
        // Incident vertex ids, deduplicated, then joined back to vertices.
        let incident = edges
            .flat_map(|e, out| {
                out.push(e.source);
                out.push(e.target);
            })
            .distinct();
        let vertices = self.vertices().clone().join(
            incident,
            |v| v.id,
            |id| *id,
            JoinStrategy::RepartitionHash,
            |v, _| Some(v.clone()),
        );
        LogicalGraph::new(self.head().clone(), vertices, edges)
    }
}

/// Keeps only edges whose source *and* target survive in `vertices`.
fn verify_edges(
    vertices: &gradoop_dataflow::Dataset<Vertex>,
    edges: &gradoop_dataflow::Dataset<Edge>,
) -> gradoop_dataflow::Dataset<Edge> {
    let vertex_ids = vertices.map(|v| v.id);
    let with_source = edges.clone().join(
        vertex_ids.clone(),
        |e| e.source,
        |id| *id,
        JoinStrategy::RepartitionHash,
        |e, _| Some(e.clone()),
    );
    with_source.join(
        vertex_ids,
        |e| e.target,
        |id| *id,
        JoinStrategy::RepartitionHash,
        |e, _| Some(e.clone()),
    )
}

#[cfg(test)]
mod tests {
    use crate::element::{Edge, Element, GraphHead, Vertex};
    use crate::graph::LogicalGraph;
    use crate::id::GradoopId;
    use crate::properties;
    use crate::properties::Properties;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};

    fn graph() -> LogicalGraph {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let head = GraphHead::new(GradoopId(100), "g", Properties::new());
        let vertices = vec![
            Vertex::new(GradoopId(1), "Person", properties! {"age" => 30i64}),
            Vertex::new(GradoopId(2), "Person", properties! {"age" => 20i64}),
            Vertex::new(GradoopId(3), "City", Properties::new()),
        ];
        let edges = vec![
            Edge::new(
                GradoopId(10),
                "knows",
                GradoopId(1),
                GradoopId(2),
                Properties::new(),
            ),
            Edge::new(
                GradoopId(11),
                "livesIn",
                GradoopId(2),
                GradoopId(3),
                Properties::new(),
            ),
        ];
        LogicalGraph::from_data(&env, head, vertices, edges)
    }

    #[test]
    fn subgraph_verifies_dangling_edges() {
        let g = graph();
        // Keep only Person vertices: the livesIn edge loses its target.
        let sub = g.subgraph(|v| v.label == "Person", |_| true);
        assert_eq!(sub.vertex_count(), 2);
        let edges = sub.edges().collect();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].label, "knows");
    }

    #[test]
    fn vertex_induced_subgraph_by_property() {
        let g = graph();
        let sub = g.vertex_induced_subgraph(|v| {
            v.property("age").and_then(|p| p.as_i64()).unwrap_or(0) >= 20
        });
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn edge_induced_subgraph_keeps_incident_vertices() {
        let g = graph();
        let sub = g.edge_induced_subgraph(|e| e.label == "livesIn");
        assert_eq!(sub.edge_count(), 1);
        let mut ids: Vec<u64> = sub.vertices().collect().iter().map(|v| v.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn empty_predicate_yields_empty_graph() {
        let g = graph();
        let sub = g.subgraph(|_| false, |_| false);
        assert_eq!(sub.vertex_count(), 0);
        assert_eq!(sub.edge_count(), 0);
    }
}
