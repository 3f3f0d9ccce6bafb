//! Immutable graph snapshots shared across concurrent queries.
//!
//! A snapshot is built **once**: the logical graph, its label index and the
//! planner statistics. Every query then *attaches* to the snapshot, which
//! forks a private [`ExecutionEnvironment`] (own simulated clock, metrics,
//! trace sink and poison slot) and re-homes the indexed graph onto it.
//! Re-homing shares the underlying partition `Arc`s — no element data is
//! copied and the per-label index is not rebuilt — so attaching is O(labels)
//! pointer clones while execution state stays fully isolated per query.
//! The graph's id → element index, through which clause pipelines resolve
//! properties, is shared the same way: the first query that needs it builds
//! it, once, and every attachment reads that one.

use gradoop_dataflow::ExecutionEnvironment;
use gradoop_epgm::{GraphStatistics, IndexedLogicalGraph, LogicalGraph};

/// An immutable graph plus everything derived from it that queries share:
/// the per-label index and the planner statistics.
#[derive(Debug)]
pub struct GraphSnapshot {
    graph: LogicalGraph,
    indexed: IndexedLogicalGraph,
    statistics: GraphStatistics,
}

impl GraphSnapshot {
    /// Builds the snapshot: indexes the graph by label and computes the
    /// planner statistics. Both scans happen here, once, on the graph's own
    /// environment — queries only pay for attachment.
    pub fn of(graph: LogicalGraph) -> Self {
        let indexed = graph.to_indexed();
        let statistics = GraphStatistics::of(&graph);
        GraphSnapshot {
            graph,
            indexed,
            statistics,
        }
    }

    /// The snapshot's logical graph.
    pub fn graph(&self) -> &LogicalGraph {
        &self.graph
    }

    /// The snapshot's label-indexed graph, homed on the snapshot
    /// environment. Queries should use [`GraphSnapshot::attach`] instead of
    /// running against this directly, or they would share one clock.
    pub fn indexed(&self) -> &IndexedLogicalGraph {
        &self.indexed
    }

    /// The planner statistics computed from the graph.
    pub fn statistics(&self) -> &GraphStatistics {
        &self.statistics
    }

    /// The environment the snapshot was built on.
    pub fn env(&self) -> &ExecutionEnvironment {
        self.graph.env()
    }

    /// Attaches a query to the snapshot: forks a fresh environment with the
    /// snapshot's configuration and re-homes the indexed graph onto it.
    /// The returned graph shares every partition allocation with the
    /// snapshot but charges all execution to the fork.
    pub fn attach(&self) -> (ExecutionEnvironment, IndexedLogicalGraph) {
        let env = self.env().fork();
        let indexed = self.indexed.rehomed(&env);
        (env, indexed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradoop_dataflow::{CostModel, ExecutionConfig};
    use gradoop_epgm::{Edge, GradoopId, GraphHead, Label, Properties, Vertex};

    fn snapshot() -> GraphSnapshot {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let graph = LogicalGraph::from_data(
            &env,
            GraphHead::new(GradoopId(100), "g", Properties::new()),
            vec![
                Vertex::new(GradoopId(1), "Person", Properties::new()),
                Vertex::new(GradoopId(2), "City", Properties::new()),
            ],
            vec![Edge::new(
                GradoopId(10),
                "livesIn",
                GradoopId(1),
                GradoopId(2),
                Properties::new(),
            )],
        );
        GraphSnapshot::of(graph)
    }

    #[test]
    fn attach_forks_a_private_environment() {
        let snapshot = snapshot();
        let (env_a, graph_a) = snapshot.attach();
        let (env_b, graph_b) = snapshot.attach();
        assert!(!env_a.same_as(&env_b));
        assert!(!env_a.same_as(snapshot.env()));
        assert!(graph_a.env().same_as(&env_a));
        assert!(graph_b.env().same_as(&env_b));
        // Work on one attachment never shows up on the other's clock.
        let persons = graph_a.vertices_for_labels(&[Label::new("Person")]);
        let _ = persons.datasets()[0].count();
        assert!(env_a.metrics().stages > 0);
        assert_eq!(env_b.metrics().stages, 0);
    }

    #[test]
    fn attachments_share_partition_allocations() {
        let snapshot = snapshot();
        let (_, graph_a) = snapshot.attach();
        let (_, graph_b) = snapshot.attach();
        let label = Label::new("Person");
        let a = graph_a.vertices_for_labels(std::slice::from_ref(&label));
        let b = graph_b.vertices_for_labels(std::slice::from_ref(&label));
        assert!(std::sync::Arc::ptr_eq(
            &a.datasets()[0].partitions_arc(),
            &b.datasets()[0].partitions_arc()
        ));
    }
}
