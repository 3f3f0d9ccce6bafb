//! The indexed logical graph (paper Section 3.4).
//!
//! Multiple transformations consuming one Flink dataset cause the dataset's
//! elements to be replicated per consumer; the paper counters this with an
//! alternative graph representation that partitions vertices and edges by
//! type label and manages a separate dataset per label. When a query vertex
//! or edge carries a label predicate, the planner loads only the specific
//! dataset instead of scanning (a union of) everything.

use std::collections::HashMap;

use gradoop_dataflow::{Dataset, Parts};

use crate::element::{Edge, GraphHead, Vertex};
use crate::element_index::ElementIndex;
use crate::graph::LogicalGraph;
use crate::label::Label;

/// A logical graph whose vertices and edges are partitioned by type label.
#[derive(Clone, Debug)]
pub struct IndexedLogicalGraph {
    /// The un-indexed graph: the full datasets and the element index.
    graph: LogicalGraph,
    vertices_by_label: HashMap<Label, Dataset<Vertex>>,
    edges_by_label: HashMap<Label, Dataset<Edge>>,
}

impl IndexedLogicalGraph {
    /// Builds the label index of `graph`. The index is computed once by
    /// scanning each dataset per occurring label.
    pub fn from_graph(graph: &LogicalGraph) -> Self {
        let vertex_labels: Vec<Label> = graph
            .vertices()
            .count_by_key(|v| v.label.clone())
            .collect()
            .into_iter()
            .map(|(label, _)| label)
            .collect();
        let edge_labels: Vec<Label> = graph
            .edges()
            .count_by_key(|e| e.label.clone())
            .collect()
            .into_iter()
            .map(|(label, _)| label)
            .collect();

        let vertices_by_label = vertex_labels
            .into_iter()
            .map(|label| {
                let wanted = label.clone();
                let ds = graph.vertices().filter(move |v| v.label == wanted);
                (label, ds)
            })
            .collect();
        let edges_by_label = edge_labels
            .into_iter()
            .map(|label| {
                let wanted = label.clone();
                let ds = graph.edges().filter(move |e| e.label == wanted);
                (label, ds)
            })
            .collect();

        IndexedLogicalGraph {
            graph: graph.clone(),
            vertices_by_label,
            edges_by_label,
        }
    }

    /// The graph head.
    pub fn head(&self) -> &GraphHead {
        self.graph.head()
    }

    /// The owning environment.
    pub fn env(&self) -> &gradoop_dataflow::ExecutionEnvironment {
        self.graph.env()
    }

    /// The id → element index of the graph, shared with the graph it was
    /// built from (see [`LogicalGraph::element_index`]).
    pub fn element_index(&self) -> &ElementIndex {
        self.graph.element_index()
    }

    /// Labels with at least one vertex.
    pub fn vertex_labels(&self) -> impl Iterator<Item = &Label> {
        self.vertices_by_label.keys()
    }

    /// Labels with at least one edge.
    pub fn edge_labels(&self) -> impl Iterator<Item = &Label> {
        self.edges_by_label.keys()
    }

    /// The datasets holding the vertices whose label is in `labels`, handed
    /// out as they are stored: one per distinct label that occurs, in
    /// first-mention order, for the scan to read in place (no union is
    /// built). With an empty slice, the full vertex dataset (no label
    /// predicate — the planner must scan).
    pub fn vertices_for_labels(&self, labels: &[Label]) -> Parts<Vertex> {
        if labels.is_empty() {
            return self.graph.vertices().clone().into();
        }
        Parts::new(self.env(), label_parts(&self.vertices_by_label, labels))
    }

    /// The datasets holding the edges whose label is in `labels`; with an
    /// empty slice, the full edge dataset. See
    /// [`IndexedLogicalGraph::vertices_for_labels`].
    pub fn edges_for_labels(&self, labels: &[Label]) -> Parts<Edge> {
        if labels.is_empty() {
            return self.graph.edges().clone().into();
        }
        Parts::new(self.env(), label_parts(&self.edges_by_label, labels))
    }

    /// Re-homes the indexed graph onto another environment without
    /// copying any element data or rebuilding the per-label index (see
    /// [`Dataset::rehomed`]): every label dataset keeps sharing its
    /// partitions, only the owning environment changes. Building the index
    /// scans the graph once per label — re-homing it is O(labels) `Arc`
    /// clones, which is what makes per-query environments affordable. The
    /// element index is shared too, not rebuilt.
    pub fn rehomed(&self, env: &gradoop_dataflow::ExecutionEnvironment) -> Self {
        IndexedLogicalGraph {
            graph: self.graph.rehomed(env),
            vertices_by_label: self
                .vertices_by_label
                .iter()
                .map(|(label, ds)| (label.clone(), ds.rehomed(env)))
                .collect(),
            edges_by_label: self
                .edges_by_label
                .iter()
                .map(|(label, ds)| (label.clone(), ds.rehomed(env)))
                .collect(),
        }
    }

    /// The un-indexed graph this index was built from; the element index
    /// and derived state are its.
    pub fn graph(&self) -> &LogicalGraph {
        &self.graph
    }
}

/// The per-label dataset of each distinct label of `labels` that occurs. A
/// label repeated in an alternation (`:A|A`) selects its dataset once:
/// reading it twice would bind every element twice.
fn label_parts<T>(by_label: &HashMap<Label, Dataset<T>>, labels: &[Label]) -> Vec<Dataset<T>> {
    labels
        .iter()
        .enumerate()
        .filter(|(i, label)| !labels[..*i].contains(label))
        .filter_map(|(_, label)| by_label.get(label).cloned())
        .collect()
}

impl LogicalGraph {
    /// Builds the label-indexed representation of this graph. It shares
    /// this graph's element index.
    pub fn to_indexed(&self) -> IndexedLogicalGraph {
        IndexedLogicalGraph::from_graph(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Edge, GraphHead, Vertex};
    use crate::id::GradoopId;
    use crate::properties::Properties;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};

    fn graph() -> LogicalGraph {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let v = |id: u64, label: &str| Vertex::new(GradoopId(id), label, Properties::new());
        let e = |id: u64, label: &str, s: u64, t: u64| {
            Edge::new(
                GradoopId(id),
                label,
                GradoopId(s),
                GradoopId(t),
                Properties::new(),
            )
        };
        LogicalGraph::from_data(
            &env,
            GraphHead::new(GradoopId(100), "g", Properties::new()),
            vec![v(1, "Person"), v(2, "Person"), v(3, "City")],
            vec![e(10, "knows", 1, 2), e(11, "livesIn", 1, 3)],
        )
    }

    #[test]
    fn index_partitions_by_label() {
        let indexed = graph().to_indexed();
        let count = |label: &str| {
            indexed
                .vertices_for_labels(&[Label::new(label)])
                .len_untracked()
        };
        assert_eq!(count("Person"), 2);
        assert_eq!(count("City"), 1);
        assert_eq!(
            indexed
                .edges_for_labels(&[Label::new("knows")])
                .len_untracked(),
            1
        );
    }

    #[test]
    fn label_alternation_hands_out_the_label_datasets_themselves() {
        let indexed = graph().to_indexed();
        let (person, city) = (Label::new("Person"), Label::new("City"));
        let both = indexed.vertices_for_labels(&[person.clone(), city.clone()]);
        assert_eq!(both.len_untracked(), 3);
        // In place: the parts are the stored per-label datasets, not copies.
        for (part, label) in both.datasets().iter().zip([&person, &city]) {
            let stored = &indexed.vertices_by_label[label];
            assert!(std::sync::Arc::ptr_eq(
                &part.partitions_arc(),
                &stored.partitions_arc()
            ));
        }
    }

    #[test]
    fn repeated_labels_select_their_dataset_once() {
        let indexed = graph().to_indexed();
        let (person, city, knows) = (
            Label::new("Person"),
            Label::new("City"),
            Label::new("knows"),
        );
        let twice = indexed.vertices_for_labels(&[person.clone(), person.clone()]);
        assert_eq!((twice.datasets().len(), twice.len_untracked()), (1, 2));
        let around = indexed.vertices_for_labels(&[person.clone(), city, person]);
        assert_eq!((around.datasets().len(), around.len_untracked()), (2, 3));
        let edges = indexed.edges_for_labels(&[knows.clone(), knows]);
        assert_eq!((edges.datasets().len(), edges.len_untracked()), (1, 1));
    }

    #[test]
    fn empty_label_list_scans_everything() {
        let indexed = graph().to_indexed();
        assert_eq!(indexed.vertices_for_labels(&[]).len_untracked(), 3);
        assert_eq!(indexed.edges_for_labels(&[]).len_untracked(), 2);
    }

    #[test]
    fn unknown_label_yields_empty_dataset() {
        let indexed = graph().to_indexed();
        let none = indexed.vertices_for_labels(&[Label::new("Tag")]);
        assert_eq!((none.datasets().len(), none.len_untracked()), (0, 0));
    }

    #[test]
    fn graph_roundtrip() {
        let indexed = graph().to_indexed();
        let back = indexed.graph();
        assert_eq!(back.vertex_count(), 3);
        assert_eq!(back.edge_count(), 2);
    }

    #[test]
    fn rehomed_index_shares_partitions_on_a_new_environment() {
        let indexed = graph().to_indexed();
        let fresh = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let moved = indexed.rehomed(&fresh);
        // Same data, reachable through the new environment…
        assert_eq!(moved.vertices_for_labels(&[]).len_untracked(), 3);
        let persons = moved.vertices_for_labels(&[Label::new("Person")]);
        assert_eq!(persons.len_untracked(), 2);
        assert!(persons.env().same_as(&fresh));
        assert!(moved.env().same_as(&fresh));
        assert!(!moved.env().same_as(indexed.env()));
        // …and no partition data was copied: the label datasets still
        // point at the very same partition allocations.
        for label in [Label::new("Person"), Label::new("City")] {
            let original = indexed.vertices_for_labels(std::slice::from_ref(&label));
            let shared = moved.vertices_for_labels(std::slice::from_ref(&label));
            assert!(std::sync::Arc::ptr_eq(
                &original.datasets()[0].partitions_arc(),
                &shared.datasets()[0].partitions_arc()
            ));
        }
    }
}
