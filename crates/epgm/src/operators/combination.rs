//! Binary operators on logical graphs: combination, overlap, exclusion.
//!
//! Following Gradoop, the result is a *new* logical graph whose element sets
//! are derived from both inputs by element identity. Result graphs receive
//! fresh head identifiers from a process-wide generator that starts far
//! above the id range of loaded data.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::element::GraphHead;
use crate::graph::LogicalGraph;
use crate::id::GradoopId;
use crate::properties::Properties;

/// Head ids for derived graphs start at 2^40 to avoid colliding with data
/// ids produced by loaders and generators.
static DERIVED_GRAPH_IDS: AtomicU64 = AtomicU64::new(1 << 40);

/// Returns a fresh graph-head id for operator-derived graphs. Public so
/// higher layers (e.g. the Cypher operator's post-processing) can mint
/// result-graph ids from the same sequence.
pub fn next_derived_graph_id() -> GradoopId {
    GradoopId(DERIVED_GRAPH_IDS.fetch_add(1, Ordering::Relaxed))
}

impl LogicalGraph {
    /// Combination: union of both graphs' vertex and edge sets.
    pub fn combine(&self, other: &LogicalGraph) -> LogicalGraph {
        let head = derived_head("Combination");
        let id = head.id;
        let vertices = self
            .vertices()
            .clone()
            .union(other.vertices().clone())
            .distinct()
            .map(move |v| v.clone().add_to_graph(id));
        let edges = self
            .edges()
            .clone()
            .union(other.edges().clone())
            .distinct()
            .map(move |e| e.clone().add_to_graph(id));
        LogicalGraph::new(head, vertices, edges)
    }

    /// Overlap: vertices and edges contained in both graphs.
    pub fn overlap(&self, other: &LogicalGraph) -> LogicalGraph {
        let head = derived_head("Overlap");
        let id = head.id;
        let other_vertex_ids: HashSet<u64> =
            other.vertices().collect().iter().map(|v| v.id.0).collect();
        let other_edge_ids: HashSet<u64> = other.edges().collect().iter().map(|e| e.id.0).collect();
        let vertices = self
            .vertices()
            .filter(move |v| other_vertex_ids.contains(&v.id.0))
            .map(move |v| v.clone().add_to_graph(id));
        let edges = self
            .edges()
            .filter(move |e| other_edge_ids.contains(&e.id.0))
            .map(move |e| e.clone().add_to_graph(id));
        LogicalGraph::new(head, vertices, edges)
    }

    /// Exclusion: elements of `self` that do not appear in `other`; edges
    /// are verified so none dangles.
    pub fn exclude(&self, other: &LogicalGraph) -> LogicalGraph {
        let head = derived_head("Exclusion");
        let id = head.id;
        let other_vertex_ids: HashSet<u64> =
            other.vertices().collect().iter().map(|v| v.id.0).collect();
        let other_edge_ids: HashSet<u64> = other.edges().collect().iter().map(|e| e.id.0).collect();
        let vertices = self
            .vertices()
            .filter(move |v| !other_vertex_ids.contains(&v.id.0))
            .map(move |v| v.clone().add_to_graph(id));
        let retained: HashSet<u64> = vertices.collect().iter().map(|v| v.id.0).collect();
        let edges = self
            .edges()
            .filter(move |e| {
                !other_edge_ids.contains(&e.id.0)
                    && retained.contains(&e.source.0)
                    && retained.contains(&e.target.0)
            })
            .map(move |e| e.clone().add_to_graph(id));
        LogicalGraph::new(head, vertices, edges)
    }
}

fn derived_head(label: &str) -> GraphHead {
    GraphHead::new(next_derived_graph_id(), label, Properties::new())
}

#[cfg(test)]
mod tests {
    use crate::element::{Edge, GraphHead, Vertex};
    use crate::graph::LogicalGraph;
    use crate::id::GradoopId;
    use crate::properties::Properties;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};

    fn env() -> ExecutionEnvironment {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()))
    }

    /// Two overlapping graphs over a shared vertex universe:
    /// g1 = {1,2,3} with edges 10:(1->2), 11:(2->3)
    /// g2 = {2,3,4} with edges 11:(2->3), 12:(3->4)
    fn graphs(env: &ExecutionEnvironment) -> (LogicalGraph, LogicalGraph) {
        let v = |id: u64| Vertex::new(GradoopId(id), "V", Properties::new());
        let e = |id: u64, s: u64, t: u64| {
            Edge::new(
                GradoopId(id),
                "E",
                GradoopId(s),
                GradoopId(t),
                Properties::new(),
            )
        };
        let g1 = LogicalGraph::from_data(
            env,
            GraphHead::new(GradoopId(101), "g1", Properties::new()),
            vec![v(1), v(2), v(3)],
            vec![e(10, 1, 2), e(11, 2, 3)],
        );
        let g2 = LogicalGraph::from_data(
            env,
            GraphHead::new(GradoopId(102), "g2", Properties::new()),
            vec![v(2), v(3), v(4)],
            vec![e(11, 2, 3), e(12, 3, 4)],
        );
        (g1, g2)
    }

    #[test]
    fn combine_unions_elements() {
        let env = env();
        let (g1, g2) = graphs(&env);
        let c = g1.combine(&g2);
        // Vertices 2 and 3 appear in both inputs with different membership
        // sets, so distinct keeps both copies; ids must still cover 1..=4.
        let mut ids: Vec<u64> = c.vertices().collect().iter().map(|v| v.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        let mut eids: Vec<u64> = c.edges().collect().iter().map(|e| e.id.0).collect();
        eids.sort_unstable();
        eids.dedup();
        assert_eq!(eids, vec![10, 11, 12]);
    }

    #[test]
    fn overlap_keeps_common_elements() {
        let env = env();
        let (g1, g2) = graphs(&env);
        let o = g1.overlap(&g2);
        let mut ids: Vec<u64> = o.vertices().collect().iter().map(|v| v.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
        let eids: Vec<u64> = o.edges().collect().iter().map(|e| e.id.0).collect();
        assert_eq!(eids, vec![11]);
    }

    #[test]
    fn exclude_removes_other_and_verifies() {
        let env = env();
        let (g1, g2) = graphs(&env);
        let x = g1.exclude(&g2);
        let ids: Vec<u64> = x.vertices().collect().iter().map(|v| v.id.0).collect();
        assert_eq!(ids, vec![1]);
        // Edge 10 loses its target (vertex 2 is excluded) and must vanish.
        assert_eq!(x.edge_count(), 0);
    }

    #[test]
    fn derived_graphs_get_fresh_membership() {
        let env = env();
        let (g1, g2) = graphs(&env);
        let c = g1.combine(&g2);
        let new_id = c.head().id;
        assert!(new_id.0 >= (1 << 40));
        for v in c.vertices().collect() {
            assert!(v.graph_ids.contains(new_id));
        }
    }
}
