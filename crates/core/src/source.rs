//! Abstraction over the two graph representations a query can scan.
//!
//! The planner only needs label-restricted vertex and edge datasets. A plain
//! [`LogicalGraph`] serves them by scanning and filtering its full datasets;
//! an [`IndexedLogicalGraph`] (paper Section 3.4) serves the pre-partitioned
//! per-label datasets directly, avoiding the full scan — for a label
//! alternation several of them, which the leaf reads in place as
//! [`Parts`]. `repro --ablations` compares both paths. Both share the
//! graph's [`ElementIndex`], through which pipeline rows resolve labels and
//! properties by id, and its leaf memo (`memo.rs`), which keeps the rows of
//! predicate-free scans.

use gradoop_dataflow::{ExecutionEnvironment, Parts};
use gradoop_epgm::{Edge, ElementIndex, IndexedLogicalGraph, Label, LogicalGraph, Vertex};

/// Provider of label-restricted element datasets.
pub trait GraphSource {
    /// The owning environment.
    fn env(&self) -> &ExecutionEnvironment;
    /// Vertices whose label is in `labels` (all vertices if empty).
    fn vertices_for_labels(&self, labels: &[Label]) -> Parts<Vertex>;
    /// Edges whose label is in `labels` (all edges if empty).
    fn edges_for_labels(&self, labels: &[Label]) -> Parts<Edge>;
    /// The graph this source reads; what is derived from it once per graph
    /// (element index, leaf memo) is shared through it.
    fn graph(&self) -> &LogicalGraph;
    /// `true` when a label alternation reads the graph's per-label datasets
    /// in place instead of filtering the full datasets — the two serve the
    /// same elements in different orders.
    fn label_indexed(&self) -> bool;
    /// The graph's id → element index, built once per graph on first use.
    fn element_index(&self) -> &ElementIndex {
        self.graph().element_index()
    }
}

impl GraphSource for LogicalGraph {
    fn env(&self) -> &ExecutionEnvironment {
        LogicalGraph::env(self)
    }

    fn vertices_for_labels(&self, labels: &[Label]) -> Parts<Vertex> {
        if labels.is_empty() {
            return self.vertices().clone().into();
        }
        self.vertices().filter(|v| labels.contains(&v.label)).into()
    }

    fn edges_for_labels(&self, labels: &[Label]) -> Parts<Edge> {
        if labels.is_empty() {
            return self.edges().clone().into();
        }
        self.edges().filter(|e| labels.contains(&e.label)).into()
    }

    fn graph(&self) -> &LogicalGraph {
        self
    }

    fn label_indexed(&self) -> bool {
        false
    }
}

impl GraphSource for IndexedLogicalGraph {
    fn env(&self) -> &ExecutionEnvironment {
        IndexedLogicalGraph::env(self)
    }

    fn vertices_for_labels(&self, labels: &[Label]) -> Parts<Vertex> {
        IndexedLogicalGraph::vertices_for_labels(self, labels)
    }

    fn edges_for_labels(&self, labels: &[Label]) -> Parts<Edge> {
        IndexedLogicalGraph::edges_for_labels(self, labels)
    }

    fn graph(&self) -> &LogicalGraph {
        IndexedLogicalGraph::graph(self)
    }

    fn label_indexed(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradoop_dataflow::{CostModel, ExecutionConfig};
    use gradoop_epgm::{GradoopId, GraphHead, Properties};

    fn graph() -> LogicalGraph {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        LogicalGraph::from_data(
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
        )
    }

    fn ids<T: gradoop_dataflow::Data>(parts: &Parts<T>, id: fn(&T) -> u64) -> Vec<u64> {
        let mut ids = parts.flat_map(|x, out| out.push(id(x))).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn logical_graph_scans_and_filters() {
        let g = graph();
        let label = |name: &str| [Label::new(name)];
        assert_eq!(g.vertices_for_labels(&[]).len_untracked(), 2);
        assert_eq!(g.vertices_for_labels(&label("Person")).len_untracked(), 1);
        assert_eq!(g.edges_for_labels(&label("livesIn")).len_untracked(), 1);
        assert_eq!(g.edges_for_labels(&label("knows")).len_untracked(), 0);
    }

    /// Repeated labels included: `:A|A`, `:A|B|A` and `[:r|r]` used to read
    /// a per-label dataset of the index twice and bind every element twice.
    #[test]
    fn indexed_graph_agrees_with_scan() {
        let g = graph();
        let indexed = g.to_indexed();
        let (person, city) = (Label::new("Person"), Label::new("City"));
        for labels in [
            vec![],
            vec![person.clone()],
            vec![city.clone()],
            vec![person.clone(), person.clone()],
            vec![person.clone(), city, person],
            vec![Label::new("Tag")],
        ] {
            assert_eq!(
                ids(&GraphSource::vertices_for_labels(&g, &labels), |v| v.id.0),
                ids(&GraphSource::vertices_for_labels(&indexed, &labels), |v| v
                    .id
                    .0),
                "{labels:?}"
            );
        }
        let lives_in = Label::new("livesIn");
        for labels in [vec![lives_in.clone()], vec![lives_in.clone(), lives_in]] {
            assert_eq!(
                ids(&GraphSource::edges_for_labels(&g, &labels), |e| e.id.0),
                ids(&GraphSource::edges_for_labels(&indexed, &labels), |e| e
                    .id
                    .0),
                "{labels:?}"
            );
        }
    }
}
